//! Serialization half: a push interface with one compound type for
//! sequences and one for maps.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt::Display;

/// Errors a serializer can raise.
pub trait Error: Sized + std::error::Error {
    fn custom<T: Display>(msg: T) -> Self;
}

/// A data structure that can be written to any [`Serializer`].
pub trait Serialize {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
}

/// A data format that can write the serde data model.
pub trait Serializer: Sized {
    type Ok;
    type Error: Error;
    type Seq: SerializeSeq<Ok = Self::Ok, Error = Self::Error>;
    type Map: SerializeMap<Ok = Self::Ok, Error = Self::Error>;

    fn serialize_bool(self, v: bool) -> Result<Self::Ok, Self::Error>;
    fn serialize_i64(self, v: i64) -> Result<Self::Ok, Self::Error>;
    fn serialize_u64(self, v: u64) -> Result<Self::Ok, Self::Error>;
    fn serialize_f64(self, v: f64) -> Result<Self::Ok, Self::Error>;
    fn serialize_str(self, v: &str) -> Result<Self::Ok, Self::Error>;
    /// `()`, unit structs and `None`.
    fn serialize_unit(self) -> Result<Self::Ok, Self::Error>;
    fn serialize_seq(self, len: Option<usize>) -> Result<Self::Seq, Self::Error>;
    fn serialize_map(self, len: Option<usize>) -> Result<Self::Map, Self::Error>;

    fn serialize_f32(self, v: f32) -> Result<Self::Ok, Self::Error> {
        self.serialize_f64(v as f64)
    }

    /// Pre-rendered text of the format itself (`serde_json::value::RawValue`).
    fn serialize_raw(self, _text: &str) -> Result<Self::Ok, Self::Error> {
        Err(Error::custom("raw values are not supported by this format"))
    }

    /// An enum variant without data.
    fn serialize_unit_variant(self, variant: &'static str) -> Result<Self::Ok, Self::Error> {
        self.serialize_str(variant)
    }

    /// An enum variant with data, externally tagged: `{variant: value}`.
    fn serialize_variant<T: Serialize + ?Sized>(
        self,
        variant: &'static str,
        value: &T,
    ) -> Result<Self::Ok, Self::Error> {
        let mut map = self.serialize_map(Some(1))?;
        map.entry(variant, value)?;
        map.end()
    }
}

pub trait SerializeSeq {
    type Ok;
    type Error: Error;
    fn element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Self::Error>;
    fn end(self) -> Result<Self::Ok, Self::Error>;
}

pub trait SerializeMap {
    type Ok;
    type Error: Error;
    fn key<K: Serialize + ?Sized>(&mut self, key: &K) -> Result<(), Self::Error>;
    fn value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Self::Error>;
    fn end(self) -> Result<Self::Ok, Self::Error>;

    fn entry<K: Serialize + ?Sized, T: Serialize + ?Sized>(
        &mut self,
        key: &K,
        value: &T,
    ) -> Result<(), Self::Error> {
        self.key(key)?;
        self.value(value)
    }
}

macro_rules! primitive {
    ($method:ident as $wide:ty: $($t:ty),*) => {$(
        impl Serialize for $t {
            #[inline]
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.$method(*self as $wide)
            }
        }
    )*};
}
primitive!(serialize_i64 as i64: i8, i16, i32, i64, isize);
primitive!(serialize_u64 as u64: u8, u16, u32, u64, usize);
primitive!(serialize_f64 as f64: f64);
primitive!(serialize_f32 as f32: f32);
primitive!(serialize_bool as bool: bool);

impl Serialize for str {
    #[inline]
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self)
    }
}

impl Serialize for String {
    #[inline]
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self)
    }
}

impl Serialize for char {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self.encode_utf8(&mut [0u8; 4]))
    }
}

impl Serialize for () {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_unit()
    }
}

impl<T: ?Sized> Serialize for std::marker::PhantomData<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_unit()
    }
}

macro_rules! deref {
    ($($t:ty),*) => {$(
        impl<T: Serialize + ?Sized> Serialize for $t {
            #[inline]
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                (**self).serialize(serializer)
            }
        }
    )*};
}
deref!(&T, &mut T, Box<T>, std::rc::Rc<T>, std::sync::Arc<T>);

impl<T: Serialize + ToOwned + ?Sized> Serialize for std::borrow::Cow<'_, T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(serializer)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    #[inline]
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self {
            Some(value) => value.serialize(serializer),
            None => serializer.serialize_unit(),
        }
    }
}

macro_rules! sequence {
    ($($t:ty),*) => {$(
        impl<T: Serialize> Serialize for $t {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                let mut seq = serializer.serialize_seq(Some(self.len()))?;
                for item in self.iter() {
                    seq.element(item)?;
                }
                seq.end()
            }
        }
    )*};
}
sequence!([T], Vec<T>, VecDeque<T>, BTreeSet<T>);

impl<T: Serialize, H> Serialize for HashSet<T, H> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut seq = serializer.serialize_seq(Some(self.len()))?;
        for item in self.iter() {
            seq.element(item)?;
        }
        seq.end()
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.as_slice().serialize(serializer)
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut map = serializer.serialize_map(Some(self.len()))?;
        for (key, value) in self {
            map.entry(key, value)?;
        }
        map.end()
    }
}

impl<K: Serialize, V: Serialize, H> Serialize for HashMap<K, V, H> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut map = serializer.serialize_map(Some(self.len()))?;
        for (key, value) in self {
            map.entry(key, value)?;
        }
        map.end()
    }
}

macro_rules! tuple {
    ($(($($name:ident $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                let mut seq = serializer.serialize_seq(None)?;
                $(seq.element(&self.$idx)?;)+
                seq.end()
            }
        }
    )*};
}
tuple! {
    (A 0)
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
    (A 0, B 1, C 2, D 3, E 4, F 5)
    (A 0, B 1, C 2, D 3, E 4, F 5, G 6)
    (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7)
}

impl Serialize for std::time::Duration {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut map = serializer.serialize_map(Some(2))?;
        map.entry("secs", &self.as_secs())?;
        map.entry("nanos", &self.subsec_nanos())?;
        map.end()
    }
}

impl Serialize for std::net::SocketAddr {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(&self.to_string())
    }
}

impl Serialize for std::path::PathBuf {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self.to_str() {
            Some(text) => serializer.serialize_str(text),
            None => Err(Error::custom("path contains invalid UTF-8 characters")),
        }
    }
}
