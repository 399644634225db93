//! Deserialization half: a pull interface. A [`Deserializer`] hands out the
//! next value as a [`Token`]; sequences and maps are handed out as access
//! objects that deserialize their elements in place, so no intermediate tree
//! is built.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt::Display;
use std::hash::{BuildHasher, Hash};

use crate::__private::{invalid_length, invalid_type};

/// Errors a deserializer can raise.
pub trait Error: Sized + std::error::Error {
    fn custom<T: Display>(msg: T) -> Self;
}

/// A data structure that can be read from any [`Deserializer`].
pub trait Deserialize<'de>: Sized {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

/// A data structure that can be read without borrowing from the input.
pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
impl<T> DeserializeOwned for T where T: for<'de> Deserialize<'de> {}

/// The next value of the input.
pub enum Token<'de, S, M> {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(Cow<'de, str>),
    /// A map key of a text format: a string that number types may parse.
    Key(Cow<'de, str>),
    Seq(S),
    Map(M),
}

impl<S, M> Token<'_, S, M> {
    /// What the token is, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Token::Null => "null",
            Token::Bool(_) => "a boolean",
            Token::U64(_) | Token::I64(_) => "an integer",
            Token::F64(_) => "a floating point number",
            Token::Str(_) | Token::Key(_) => "a string",
            Token::Seq(_) => "a sequence",
            Token::Map(_) => "a map",
        }
    }
}

/// A data format that can read the serde data model.
pub trait Deserializer<'de>: Sized {
    type Error: Error;
    type Seq: SeqAccess<'de, Error = Self::Error>;
    type Map: MapAccess<'de, Error = Self::Error>;

    /// Consume the next value.
    fn take(self) -> Result<Token<'de, Self::Seq, Self::Map>, Self::Error>;

    /// Consume the next value if it is null, else give the deserializer back.
    fn take_option(self) -> Result<Option<Self>, Self::Error>;

    /// The next value as the unparsed text of the format itself.
    fn take_raw(self) -> Result<&'de str, Self::Error> {
        Err(Error::custom("raw values are not supported by this format"))
    }
}

pub trait SeqAccess<'de> {
    type Error: Error;
    fn next<T: Deserialize<'de>>(&mut self) -> Result<Option<T>, Self::Error>;
    fn size_hint(&self) -> Option<usize> {
        None
    }
}

pub trait MapAccess<'de> {
    type Error: Error;
    fn next_key<K: Deserialize<'de>>(&mut self) -> Result<Option<K>, Self::Error>;
    fn next_value<T: Deserialize<'de>>(&mut self) -> Result<T, Self::Error>;
    fn skip_value(&mut self) -> Result<(), Self::Error>;
}

/// A value that deserializes from anything and keeps nothing.
pub struct IgnoredAny;

impl<'de> Deserialize<'de> for IgnoredAny {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.take()? {
            Token::Seq(mut seq) => while seq.next::<IgnoredAny>()?.is_some() {},
            Token::Map(mut map) => {
                while map.next_key::<IgnoredAny>()?.is_some() {
                    map.skip_value()?;
                }
            }
            _ => {}
        }
        Ok(IgnoredAny)
    }
}

macro_rules! integer {
    ($($t:ty),*) => {$(
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                let out_of_range = |v: &dyn Display| {
                    Error::custom(format_args!("number {v} out of range for {}", stringify!($t)))
                };
                match deserializer.take()? {
                    Token::U64(v) => <$t>::try_from(v).map_err(|_| out_of_range(&v)),
                    Token::I64(v) => <$t>::try_from(v).map_err(|_| out_of_range(&v)),
                    Token::Key(text) => text.parse().map_err(|_| {
                        Error::custom(format_args!("invalid {} key {text:?}", stringify!($t)))
                    }),
                    other => Err(invalid_type(stringify!($t), &other)),
                }
            }
        }
    )*};
}
integer!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl<'de> Deserialize<'de> for f64 {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.take()? {
            Token::F64(v) => Ok(v),
            Token::U64(v) => Ok(v as f64),
            Token::I64(v) => Ok(v as f64),
            other => Err(invalid_type("f64", &other)),
        }
    }
}

impl<'de> Deserialize<'de> for f32 {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        f64::deserialize(deserializer).map(|v| v as f32)
    }
}

impl<'de> Deserialize<'de> for bool {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.take()? {
            Token::Bool(v) => Ok(v),
            other => Err(invalid_type("bool", &other)),
        }
    }
}

impl<'de> Deserialize<'de> for Cow<'de, str> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.take()? {
            Token::Str(text) | Token::Key(text) => Ok(text),
            other => Err(invalid_type("a string", &other)),
        }
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Cow::<str>::deserialize(deserializer).map(Cow::into_owned)
    }
}

impl<'de> Deserialize<'de> for &'de str {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match Cow::<str>::deserialize(deserializer)? {
            Cow::Borrowed(text) => Ok(text),
            Cow::Owned(_) => Err(Error::custom("string with escapes cannot be borrowed")),
        }
    }
}

impl<'de> Deserialize<'de> for char {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let text = Cow::<str>::deserialize(deserializer)?;
        let mut chars = text.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::custom("expected a single character")),
        }
    }
}

impl<'de> Deserialize<'de> for () {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.take()? {
            Token::Null => Ok(()),
            other => Err(invalid_type("unit", &other)),
        }
    }
}

impl<'de, T: ?Sized> Deserialize<'de> for std::marker::PhantomData<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        <()>::deserialize(deserializer).map(|()| std::marker::PhantomData)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.take_option()? {
            Some(deserializer) => T::deserialize(deserializer).map(Some),
            None => Ok(None),
        }
    }
}

macro_rules! boxed {
    ($($t:ident)::+) => {
        impl<'de, T: Deserialize<'de>> Deserialize<'de> for $($t)::+<T> {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                T::deserialize(deserializer).map($($t)::+::new)
            }
        }
    };
}
boxed!(Box);
boxed!(std::rc::Rc);
boxed!(std::sync::Arc);

fn take_seq<'de, D: Deserializer<'de>>(deserializer: D, ty: &str) -> Result<D::Seq, D::Error> {
    match deserializer.take()? {
        Token::Seq(seq) => Ok(seq),
        other => Err(invalid_type(ty, &other)),
    }
}

fn take_map<'de, D: Deserializer<'de>>(deserializer: D, ty: &str) -> Result<D::Map, D::Error> {
    match deserializer.take()? {
        Token::Map(map) => Ok(map),
        other => Err(invalid_type(ty, &other)),
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let mut seq = take_seq(deserializer, "a sequence")?;
        // A hint comes from the input: cap it so a lie cannot exhaust memory.
        let mut out = Vec::with_capacity(seq.size_hint().unwrap_or(0).min(4096));
        while let Some(item) = seq.next()? {
            out.push(item);
        }
        Ok(out)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for VecDeque<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Vec::deserialize(deserializer).map(VecDeque::from)
    }
}

impl<'de, T: Deserialize<'de> + Ord> Deserialize<'de> for BTreeSet<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let mut seq = take_seq(deserializer, "a sequence")?;
        let mut out = BTreeSet::new();
        while let Some(item) = seq.next()? {
            out.insert(item);
        }
        Ok(out)
    }
}

impl<'de, T, H> Deserialize<'de> for HashSet<T, H>
where
    T: Deserialize<'de> + Eq + Hash,
    H: BuildHasher + Default,
{
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let mut seq = take_seq(deserializer, "a sequence")?;
        let mut out = HashSet::default();
        while let Some(item) = seq.next()? {
            out.insert(item);
        }
        Ok(out)
    }
}

impl<'de, T: Deserialize<'de>, const N: usize> Deserialize<'de> for [T; N] {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let items = Vec::<T>::deserialize(deserializer)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| invalid_length(&format!("an array of length {N}"), len))
    }
}

impl<'de, K: Deserialize<'de> + Ord, V: Deserialize<'de>> Deserialize<'de> for BTreeMap<K, V> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let mut map = take_map(deserializer, "a map")?;
        let mut out = BTreeMap::new();
        while let Some(key) = map.next_key()? {
            out.insert(key, map.next_value()?);
        }
        Ok(out)
    }
}

impl<'de, K, V, H> Deserialize<'de> for HashMap<K, V, H>
where
    K: Deserialize<'de> + Eq + Hash,
    V: Deserialize<'de>,
    H: BuildHasher + Default,
{
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let mut map = take_map(deserializer, "a map")?;
        let mut out = HashMap::default();
        while let Some(key) = map.next_key()? {
            out.insert(key, map.next_value()?);
        }
        Ok(out)
    }
}

macro_rules! tuple {
    ($(($len:expr; $($name:ident),+))*) => {$(
        impl<'de, $($name: Deserialize<'de>),+> Deserialize<'de> for ($($name,)+) {
            fn deserialize<De: Deserializer<'de>>(deserializer: De) -> Result<Self, De::Error> {
                let ty = concat!("a tuple of length ", $len);
                let mut seq = take_seq(deserializer, ty)?;
                let mut taken = 0usize;
                let out = ($(
                    match seq.next::<$name>()? {
                        Some(item) => {
                            taken += 1;
                            item
                        }
                        None => return Err(invalid_length(ty, taken)),
                    },
                )+);
                match seq.next::<IgnoredAny>()? {
                    None => Ok(out),
                    Some(_) => Err(invalid_length(ty, taken + 1)),
                }
            }
        }
    )*};
}
tuple! {
    (1; A)
    (2; A, B)
    (3; A, B, C)
    (4; A, B, C, D)
    (5; A, B, C, D, E)
    (6; A, B, C, D, E, F)
    (7; A, B, C, D, E, F, G)
    (8; A, B, C, D, E, F, G, H)
}

impl<'de> Deserialize<'de> for std::time::Duration {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let mut map = take_map(deserializer, "a duration")?;
        let (mut secs, mut nanos) = (None, None);
        while let Some(key) = map.next_key::<Cow<str>>()? {
            match &*key {
                "secs" => secs = Some(map.next_value::<u64>()?),
                "nanos" => nanos = Some(map.next_value::<u32>()?),
                _ => map.skip_value()?,
            }
        }
        match (secs, nanos) {
            (Some(secs), Some(nanos)) => Ok(std::time::Duration::new(secs, nanos)),
            _ => Err(Error::custom("duration needs `secs` and `nanos`")),
        }
    }
}

impl<'de> Deserialize<'de> for std::net::SocketAddr {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Cow::<str>::deserialize(deserializer)?
            .parse()
            .map_err(Error::custom)
    }
}

impl<'de> Deserialize<'de> for std::path::PathBuf {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        String::deserialize(deserializer).map(Into::into)
    }
}
