//! Offline stand-in for the subset of `serde_json` 1 that the ovnes crates
//! use, on top of the stand-in `serde`: compact and pretty writers, a
//! single-pass parser that borrows strings from the input, `Value`, `Map`,
//! `Number`, `RawValue` and a small `json!`.
//!
//! The text it writes follows the published crate (sorted object keys,
//! shortest round-trip floats with a fractional part, `null` for non-finite
//! floats, integer map keys quoted), with one known difference: floats are
//! printed by `core::fmt` instead of ryu, so exponents of very large or small
//! numbers may be spelled differently. Both spellings parse back to the same
//! bits.

mod de;
mod error;
mod ser;
pub mod value;

pub use de::{from_slice, from_str};
pub use error::{Error, Result};
pub use ser::{to_string, to_string_pretty, to_vec, to_vec_pretty};
pub use value::{from_value, to_value, Map, Number, Value};

/// Build a [`Value`] from JSON-like syntax. Narrower than the published
/// macro: every object value and array element must be a single token tree
/// (a literal, an identifier, a nested `{..}`/`[..]`, or a parenthesized
/// expression).
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($elem:tt),* $(,)? ]) => {
        $crate::Value::Array(::std::vec![ $( $crate::json!($elem) ),* ])
    };
    ({ $($key:tt : $value:tt),* $(,)? }) => {{
        #[allow(unused_mut)]
        let mut map = $crate::Map::new();
        $( map.insert(::std::string::ToString::to_string(&$key), $crate::json!($value)); )*
        $crate::Value::Object(map)
    }};
    ($other:expr) => {
        $crate::to_value(&$other).expect("json! value failed to serialize")
    };
}
