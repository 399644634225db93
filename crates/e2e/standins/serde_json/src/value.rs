//! `Value`, `Map`, `Number`, `RawValue`, and conversion to and from them.

use serde::de::{Deserialize, Deserializer, MapAccess, SeqAccess, Token};
use serde::ser::{Error as _, SerializeMap, SerializeSeq};
use serde::{Serialize, Serializer};
use std::borrow::Cow;
use std::collections::{btree_map, BTreeMap};
use std::fmt;

use crate::ser::NoCompound;
use crate::{Error, Result};

/// A JSON number: an unsigned, a negative or a floating point value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Number(N);

#[derive(Clone, Copy, Debug, PartialEq)]
enum N {
    Unsigned(u64),
    Negative(i64),
    Float(f64),
}

impl Number {
    /// `None` for NaN and the infinities, which JSON cannot hold.
    pub fn from_f64(v: f64) -> Option<Number> {
        v.is_finite().then_some(Number(N::Float(v)))
    }
    pub fn as_f64(&self) -> Option<f64> {
        Some(match self.0 {
            N::Unsigned(v) => v as f64,
            N::Negative(v) => v as f64,
            N::Float(v) => v,
        })
    }
    pub fn as_u64(&self) -> Option<u64> {
        match self.0 {
            N::Unsigned(v) => Some(v),
            _ => None,
        }
    }
    pub fn as_i64(&self) -> Option<i64> {
        match self.0 {
            N::Unsigned(v) => i64::try_from(v).ok(),
            N::Negative(v) => Some(v),
            N::Float(_) => None,
        }
    }
    pub fn is_f64(&self) -> bool {
        matches!(self.0, N::Float(_))
    }
    pub fn is_u64(&self) -> bool {
        matches!(self.0, N::Unsigned(_))
    }
    pub fn is_i64(&self) -> bool {
        self.as_i64().is_some()
    }
}

macro_rules! number_from {
    ($($t:ty),*) => {$(
        impl From<$t> for Number {
            fn from(v: $t) -> Number {
                match u64::try_from(v) {
                    Ok(v) => Number(N::Unsigned(v)),
                    Err(_) => Number(N::Negative(v as i64)),
                }
            }
        }
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                Value::Number(v.into())
            }
        }
    )*};
}
number_from!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            N::Unsigned(v) => write!(f, "{v}"),
            N::Negative(v) => write!(f, "{v}"),
            N::Float(v) => write!(f, "{v:?}"),
        }
    }
}

/// A JSON object with its keys in sorted order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Map<K: Ord = String, V = Value>(BTreeMap<K, V>);

impl Map<String, Value> {
    pub fn new() -> Self {
        Map(BTreeMap::new())
    }
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        self.0.insert(key, value)
    }
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0.get(key)
    }
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.0.get_mut(key)
    }
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        self.0.remove(key)
    }
    pub fn contains_key(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }
    pub fn len(&self) -> usize {
        self.0.len()
    }
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
    pub fn iter(&self) -> btree_map::Iter<'_, String, Value> {
        self.0.iter()
    }
    pub fn keys(&self) -> btree_map::Keys<'_, String, Value> {
        self.0.keys()
    }
    pub fn values(&self) -> btree_map::Values<'_, String, Value> {
        self.0.values()
    }
}

impl IntoIterator for Map<String, Value> {
    type Item = (String, Value);
    type IntoIter = btree_map::IntoIter<String, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

impl<'a> IntoIterator for &'a Map<String, Value> {
    type Item = (&'a String, &'a Value);
    type IntoIter = btree_map::Iter<'a, String, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl Extend<(String, Value)> for Map<String, Value> {
    fn extend<I: IntoIterator<Item = (String, Value)>>(&mut self, iter: I) {
        self.0.extend(iter)
    }
}

impl FromIterator<(String, Value)> for Map<String, Value> {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        Map(iter.into_iter().collect())
    }
}

/// Any JSON value.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Value>),
    Object(Map<String, Value>),
}

static NULL: Value = Value::Null;

impl Value {
    /// Member `key` of an object or element `index` of an array.
    pub fn get<I: Index>(&self, index: I) -> Option<&Value> {
        index.index_into(self)
    }
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(v) => Some(v),
            _ => None,
        }
    }
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }
    pub fn as_object(&self) -> Option<&Map<String, Value>> {
        match self {
            Value::Object(v) => Some(v),
            _ => None,
        }
    }
    pub fn is_number(&self) -> bool {
        matches!(self, Value::Number(_))
    }
    pub fn is_string(&self) -> bool {
        matches!(self, Value::String(_))
    }
    pub fn is_array(&self) -> bool {
        matches!(self, Value::Array(_))
    }
    pub fn is_object(&self) -> bool {
        matches!(self, Value::Object(_))
    }
}

/// Types that can index into a [`Value`]: `&str`, `String` and `usize`.
pub trait Index {
    #[doc(hidden)]
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value>;
}

impl Index for str {
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value> {
        value.as_object()?.get(self)
    }
}

impl Index for String {
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value> {
        self.as_str().index_into(value)
    }
}

impl Index for usize {
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value> {
        value.as_array()?.get(*self)
    }
}

impl<T: Index + ?Sized> Index for &T {
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value> {
        (**self).index_into(value)
    }
}

impl<I: Index> std::ops::Index<I> for Value {
    type Output = Value;
    /// A missing member reads as `Value::Null`, as in the published crate.
    fn index(&self, index: I) -> &Value {
        index.index_into(self).unwrap_or(&NULL)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Number::from_f64(v).map_or(Value::Null, Value::Number)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl From<Map<String, Value>> for Value {
    fn from(v: Map<String, Value>) -> Value {
        Value::Object(v)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

impl PartialEq<f64> for Value {
    fn eq(&self, other: &f64) -> bool {
        self.as_f64() == Some(*other)
    }
}

impl PartialEq<u64> for Value {
    fn eq(&self, other: &u64) -> bool {
        self.as_u64() == Some(*other)
    }
}

impl PartialEq<i64> for Value {
    fn eq(&self, other: &i64) -> bool {
        self.as_i64() == Some(*other)
    }
}

/// Compact JSON text.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = if f.alternate() {
            crate::to_string_pretty(self)
        } else {
            crate::to_string(self)
        };
        f.write_str(&text.map_err(|_| fmt::Error)?)
    }
}

impl Serialize for Number {
    fn serialize<S: Serializer>(&self, serializer: S) -> std::result::Result<S::Ok, S::Error> {
        match self.0 {
            N::Unsigned(v) => serializer.serialize_u64(v),
            N::Negative(v) => serializer.serialize_i64(v),
            N::Float(v) => serializer.serialize_f64(v),
        }
    }
}

impl Serialize for Map<String, Value> {
    fn serialize<S: Serializer>(&self, serializer: S) -> std::result::Result<S::Ok, S::Error> {
        self.0.serialize(serializer)
    }
}

impl Serialize for Value {
    fn serialize<S: Serializer>(&self, serializer: S) -> std::result::Result<S::Ok, S::Error> {
        match self {
            Value::Null => serializer.serialize_unit(),
            Value::Bool(v) => serializer.serialize_bool(*v),
            Value::Number(v) => v.serialize(serializer),
            Value::String(v) => serializer.serialize_str(v),
            Value::Array(v) => v.serialize(serializer),
            Value::Object(v) => v.serialize(serializer),
        }
    }
}

impl<'de> Deserialize<'de> for Map<String, Value> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> std::result::Result<Self, D::Error> {
        BTreeMap::deserialize(deserializer).map(Map)
    }
}

impl<'de> Deserialize<'de> for Value {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> std::result::Result<Self, D::Error> {
        Ok(match deserializer.take()? {
            Token::Null => Value::Null,
            Token::Bool(v) => Value::Bool(v),
            Token::U64(v) => Value::Number(Number(N::Unsigned(v))),
            Token::I64(v) => Value::Number(v.into()),
            Token::F64(v) => Value::from(v),
            Token::Str(v) | Token::Key(v) => Value::String(v.into_owned()),
            Token::Seq(mut seq) => {
                let mut items = Vec::new();
                while let Some(item) = seq.next()? {
                    items.push(item);
                }
                Value::Array(items)
            }
            Token::Map(mut map) => {
                let mut members = Map::new();
                while let Some(key) = map.next_key::<String>()? {
                    members.insert(key, map.next_value()?);
                }
                Value::Object(members)
            }
        })
    }
}

// ------------------------------------------------------------------ to_value

pub fn to_value<T: Serialize>(value: T) -> Result<Value> {
    value.serialize(ValueWriter)
}

struct ValueWriter;

pub struct ArrayWriter(Vec<Value>);

pub struct ObjectWriter {
    members: Map<String, Value>,
    key: Option<String>,
}

impl Serializer for ValueWriter {
    type Ok = Value;
    type Error = Error;
    type Seq = ArrayWriter;
    type Map = ObjectWriter;

    fn serialize_bool(self, v: bool) -> Result<Value> {
        Ok(Value::Bool(v))
    }
    fn serialize_i64(self, v: i64) -> Result<Value> {
        Ok(v.into())
    }
    fn serialize_u64(self, v: u64) -> Result<Value> {
        Ok(v.into())
    }
    fn serialize_f64(self, v: f64) -> Result<Value> {
        Ok(v.into())
    }
    fn serialize_str(self, v: &str) -> Result<Value> {
        Ok(v.into())
    }
    fn serialize_unit(self) -> Result<Value> {
        Ok(Value::Null)
    }
    fn serialize_raw(self, text: &str) -> Result<Value> {
        crate::from_str(text)
    }
    fn serialize_seq(self, len: Option<usize>) -> Result<ArrayWriter> {
        Ok(ArrayWriter(Vec::with_capacity(len.unwrap_or(0))))
    }
    fn serialize_map(self, _len: Option<usize>) -> Result<ObjectWriter> {
        Ok(ObjectWriter {
            members: Map::new(),
            key: None,
        })
    }
}

impl SerializeSeq for ArrayWriter {
    type Ok = Value;
    type Error = Error;
    fn element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        self.0.push(value.serialize(ValueWriter)?);
        Ok(())
    }
    fn end(self) -> Result<Value> {
        Ok(Value::Array(self.0))
    }
}

impl SerializeMap for ObjectWriter {
    type Ok = Value;
    type Error = Error;
    fn key<K: Serialize + ?Sized>(&mut self, key: &K) -> Result<()> {
        self.key = Some(key.serialize(KeyText)?);
        Ok(())
    }
    fn value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        let key = self
            .key
            .take()
            .ok_or_else(|| Error::custom("value written before its key"))?;
        self.members.insert(key, value.serialize(ValueWriter)?);
        Ok(())
    }
    fn end(self) -> Result<Value> {
        Ok(Value::Object(self.members))
    }
}

/// Object keys as text: strings as they are, integers in decimal.
struct KeyText;

impl Serializer for KeyText {
    type Ok = String;
    type Error = Error;
    type Seq = NoKey;
    type Map = NoKey;

    fn serialize_bool(self, _: bool) -> Result<String> {
        Err(Error::custom("key must be a string"))
    }
    fn serialize_i64(self, v: i64) -> Result<String> {
        Ok(v.to_string())
    }
    fn serialize_u64(self, v: u64) -> Result<String> {
        Ok(v.to_string())
    }
    fn serialize_f64(self, _: f64) -> Result<String> {
        Err(Error::custom("key must be a string"))
    }
    fn serialize_str(self, v: &str) -> Result<String> {
        Ok(v.to_string())
    }
    fn serialize_unit(self) -> Result<String> {
        Err(Error::custom("key must be a string"))
    }
    fn serialize_seq(self, _: Option<usize>) -> Result<NoKey> {
        Err(Error::custom("key must be a string"))
    }
    fn serialize_map(self, _: Option<usize>) -> Result<NoKey> {
        Err(Error::custom("key must be a string"))
    }
}

/// Never constructed: a key cannot be a sequence or a map.
pub struct NoKey(NoCompound);

impl SerializeSeq for NoKey {
    type Ok = String;
    type Error = Error;
    fn element<T: Serialize + ?Sized>(&mut self, _: &T) -> Result<()> {
        match self.0 {}
    }
    fn end(self) -> Result<String> {
        match self.0 {}
    }
}

impl SerializeMap for NoKey {
    type Ok = String;
    type Error = Error;
    fn key<K: Serialize + ?Sized>(&mut self, _: &K) -> Result<()> {
        match self.0 {}
    }
    fn value<T: Serialize + ?Sized>(&mut self, _: &T) -> Result<()> {
        match self.0 {}
    }
    fn end(self) -> Result<String> {
        match self.0 {}
    }
}

// ---------------------------------------------------------------- from_value

pub fn from_value<T: for<'de> Deserialize<'de>>(value: Value) -> Result<T> {
    T::deserialize(value)
}

pub struct ArrayReader(std::vec::IntoIter<Value>);

pub struct ObjectReader {
    members: btree_map::IntoIter<String, Value>,
    value: Option<Value>,
}

impl<'de> Deserializer<'de> for Value {
    type Error = Error;
    type Seq = ArrayReader;
    type Map = ObjectReader;

    fn take(self) -> Result<Token<'de, ArrayReader, ObjectReader>> {
        Ok(match self {
            Value::Null => Token::Null,
            Value::Bool(v) => Token::Bool(v),
            Value::Number(Number(N::Unsigned(v))) => Token::U64(v),
            Value::Number(Number(N::Negative(v))) => Token::I64(v),
            Value::Number(Number(N::Float(v))) => Token::F64(v),
            Value::String(v) => Token::Str(Cow::Owned(v)),
            Value::Array(v) => Token::Seq(ArrayReader(v.into_iter())),
            Value::Object(v) => Token::Map(ObjectReader {
                members: v.into_iter(),
                value: None,
            }),
        })
    }

    fn take_option(self) -> Result<Option<Self>> {
        Ok(match self {
            Value::Null => None,
            other => Some(other),
        })
    }
}

impl<'de> SeqAccess<'de> for ArrayReader {
    type Error = Error;
    fn next<T: Deserialize<'de>>(&mut self) -> Result<Option<T>> {
        self.0.next().map(T::deserialize).transpose()
    }
    fn size_hint(&self) -> Option<usize> {
        Some(self.0.len())
    }
}

/// Deserializer of an object key held as text.
struct KeyReader(String);

impl<'de> Deserializer<'de> for KeyReader {
    type Error = Error;
    type Seq = ArrayReader;
    type Map = ObjectReader;
    fn take(self) -> Result<Token<'de, ArrayReader, ObjectReader>> {
        Ok(Token::Key(Cow::Owned(self.0)))
    }
    fn take_option(self) -> Result<Option<Self>> {
        Ok(Some(self))
    }
}

impl<'de> MapAccess<'de> for ObjectReader {
    type Error = Error;
    fn next_key<K: Deserialize<'de>>(&mut self) -> Result<Option<K>> {
        match self.members.next() {
            Some((key, value)) => {
                self.value = Some(value);
                K::deserialize(KeyReader(key)).map(Some)
            }
            None => Ok(None),
        }
    }
    fn next_value<T: Deserialize<'de>>(&mut self) -> Result<T> {
        match self.value.take() {
            Some(value) => T::deserialize(value),
            None => Err(serde::de::Error::custom("value read before its key")),
        }
    }
    fn skip_value(&mut self) -> Result<()> {
        self.value = None;
        Ok(())
    }
}

// ------------------------------------------------------------------ RawValue

/// A value kept as the JSON text it was parsed from.
#[repr(transparent)]
pub struct RawValue {
    json: str,
}

impl RawValue {
    fn from_borrowed(json: &str) -> &RawValue {
        // SAFETY: `RawValue` is `repr(transparent)` over `str`, so the two
        // references have the same layout and the lifetime is carried over.
        unsafe { &*(json as *const str as *const RawValue) }
    }

    /// The JSON text.
    pub fn get(&self) -> &str {
        &self.json
    }
}

impl fmt::Debug for RawValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RawValue({})", &self.json)
    }
}

impl fmt::Display for RawValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.json)
    }
}

impl Serialize for RawValue {
    fn serialize<S: Serializer>(&self, serializer: S) -> std::result::Result<S::Ok, S::Error> {
        serializer.serialize_raw(&self.json)
    }
}

impl<'de: 'a, 'a> Deserialize<'de> for &'a RawValue {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> std::result::Result<Self, D::Error> {
        deserializer.take_raw().map(RawValue::from_borrowed)
    }
}
