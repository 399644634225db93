//! Offline stand-in for the subset of `serde` 1 that the ovnes crates use.
//!
//! The container that grows this repository has no crate registry, so the
//! benchmark builds the workspace against this crate instead of the published
//! one. `Serialize`/`Deserialize` keep their published signatures, so the
//! hand-written impls in `ovnes-sim` compile unchanged, and the derive macros
//! keep the externally-tagged data model, so JSON written through
//! `serde_json` has the published shape. What differs is the inside:
//! serializers get a small push interface and deserializers a pull interface
//! ([`de::Token`]) instead of the visitor machinery. Attributes supported by
//! the derive: `skip`, `default`, `default = "path"`, `rename`, and the
//! container attributes `from`, `into`.

pub mod de;
pub mod ser;

pub use de::{Deserialize, Deserializer};
pub use ser::{Serialize, Serializer};
pub use serde_derive::{Deserialize, Serialize};

/// Support code for what the derive macros generate. Not a stable interface.
#[doc(hidden)]
pub mod __private {
    use crate::de::{Deserialize, Deserializer, Error, MapAccess, SeqAccess, Token};
    use std::marker::PhantomData;

    /// Deserializer handed to a field's type when its key is absent: options
    /// become `None`, everything else reports the missing field.
    pub struct Missing<E> {
        field: &'static str,
        error: PhantomData<E>,
    }

    /// Never constructed: the sequence and map access of [`Missing`].
    pub struct Never<E>(PhantomData<E>, std::convert::Infallible);

    impl<'de, E: Error> SeqAccess<'de> for Never<E> {
        type Error = E;
        fn next<T: Deserialize<'de>>(&mut self) -> Result<Option<T>, E> {
            match self.1 {}
        }
    }

    impl<'de, E: Error> MapAccess<'de> for Never<E> {
        type Error = E;
        fn next_key<K: Deserialize<'de>>(&mut self) -> Result<Option<K>, E> {
            match self.1 {}
        }
        fn next_value<T: Deserialize<'de>>(&mut self) -> Result<T, E> {
            match self.1 {}
        }
        fn skip_value(&mut self) -> Result<(), E> {
            match self.1 {}
        }
    }

    impl<'de, E: Error> Deserializer<'de> for Missing<E> {
        type Error = E;
        type Seq = Never<E>;
        type Map = Never<E>;
        fn take(self) -> Result<Token<'de, Never<E>, Never<E>>, E> {
            Err(E::custom(format_args!("missing field `{}`", self.field)))
        }
        fn take_option(self) -> Result<Option<Self>, E> {
            Ok(None)
        }
    }

    pub fn missing_field<'de, T: Deserialize<'de>, E: Error>(field: &'static str) -> Result<T, E> {
        T::deserialize(Missing {
            field,
            error: PhantomData,
        })
    }

    pub fn unknown_variant<E: Error>(ty: &str, found: &str) -> E {
        E::custom(format_args!("unknown variant `{found}` of {ty}"))
    }

    pub fn invalid_type<'de, S, M, E: Error>(ty: &str, found: &Token<'de, S, M>) -> E {
        E::custom(format_args!(
            "invalid type: {}, expected {ty}",
            found.kind()
        ))
    }

    pub fn invalid_length<E: Error>(ty: &str, len: usize) -> E {
        E::custom(format_args!("invalid length {len} for {ty}"))
    }

    pub fn duplicate_field<E: Error>(field: &str) -> E {
        E::custom(format_args!("duplicate field `{field}`"))
    }
}
