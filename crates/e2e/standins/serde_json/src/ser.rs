use serde::ser::{Error as _, SerializeMap, SerializeSeq};
use serde::{Serialize, Serializer};
use std::io::Write;

use crate::{Error, Result};

pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    let mut writer = Writer::new(false);
    value.serialize(&mut writer)?;
    Ok(writer.out)
}

pub fn to_vec_pretty<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    let mut writer = Writer::new(true);
    value.serialize(&mut writer)?;
    Ok(writer.out)
}

pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    // The writer emits `str` data and ASCII punctuation only.
    to_vec(value).map(|bytes| String::from_utf8(bytes).expect("writer emitted invalid UTF-8"))
}

pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    to_vec_pretty(value)
        .map(|bytes| String::from_utf8(bytes).expect("writer emitted invalid UTF-8"))
}

pub(crate) struct Writer {
    out: Vec<u8>,
    pretty: bool,
    depth: usize,
}

impl Writer {
    fn new(pretty: bool) -> Self {
        Writer {
            out: Vec::with_capacity(128),
            pretty,
            depth: 0,
        }
    }

    fn newline(&mut self) {
        self.out.push(b'\n');
        for _ in 0..self.depth {
            self.out.extend_from_slice(b"  ");
        }
    }

    fn open(&mut self, bracket: u8) {
        self.out.push(bracket);
        self.depth += 1;
    }

    /// Separator before an element: `first` tells whether it is the first.
    fn separate(&mut self, first: bool) {
        if !first {
            self.out.push(b',');
        }
        if self.pretty {
            self.newline();
        }
    }

    fn close(&mut self, bracket: u8, empty: bool) {
        self.depth -= 1;
        if self.pretty && !empty {
            self.newline();
        }
        self.out.push(bracket);
    }

    fn write_u64(&mut self, mut v: u64) {
        let mut buf = [0u8; 20];
        let mut at = buf.len();
        loop {
            at -= 1;
            buf[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.out.extend_from_slice(&buf[at..]);
    }

    fn write_i64(&mut self, v: i64) {
        if v < 0 {
            self.out.push(b'-');
        }
        self.write_u64(v.unsigned_abs());
    }

    fn write_f64(&mut self, v: f64) {
        if v.is_finite() {
            // `{:?}` is the shortest text that parses back to the same bits
            // and always keeps a fractional part or an exponent.
            write!(self.out, "{v:?}").expect("writing to a Vec cannot fail");
        } else {
            self.out.extend_from_slice(b"null");
        }
    }

    fn write_str(&mut self, text: &str) {
        self.out.push(b'"');
        let bytes = text.as_bytes();
        let mut run = 0;
        for (i, &byte) in bytes.iter().enumerate() {
            let escape: &[u8] = match byte {
                b'"' => b"\\\"",
                b'\\' => b"\\\\",
                b'\n' => b"\\n",
                b'\r' => b"\\r",
                b'\t' => b"\\t",
                0x08 => b"\\b",
                0x0c => b"\\f",
                0x00..=0x1f => b"",
                _ => continue,
            };
            self.out.extend_from_slice(&bytes[run..i]);
            if escape.is_empty() {
                write!(self.out, "\\u{byte:04x}").expect("writing to a Vec cannot fail");
            } else {
                self.out.extend_from_slice(escape);
            }
            run = i + 1;
        }
        self.out.extend_from_slice(&bytes[run..]);
        self.out.push(b'"');
    }
}

pub(crate) struct Compound<'a> {
    writer: &'a mut Writer,
    first: bool,
    close: u8,
}

impl<'a> Serializer for &'a mut Writer {
    type Ok = ();
    type Error = Error;
    type Seq = Compound<'a>;
    type Map = Compound<'a>;

    fn serialize_bool(self, v: bool) -> Result<()> {
        self.out
            .extend_from_slice(if v { b"true" } else { b"false" });
        Ok(())
    }
    fn serialize_i64(self, v: i64) -> Result<()> {
        self.write_i64(v);
        Ok(())
    }
    fn serialize_u64(self, v: u64) -> Result<()> {
        self.write_u64(v);
        Ok(())
    }
    fn serialize_f64(self, v: f64) -> Result<()> {
        self.write_f64(v);
        Ok(())
    }
    fn serialize_f32(self, v: f32) -> Result<()> {
        if v.is_finite() {
            write!(self.out, "{v:?}").expect("writing to a Vec cannot fail");
        } else {
            self.out.extend_from_slice(b"null");
        }
        Ok(())
    }
    fn serialize_str(self, v: &str) -> Result<()> {
        self.write_str(v);
        Ok(())
    }
    fn serialize_unit(self) -> Result<()> {
        self.out.extend_from_slice(b"null");
        Ok(())
    }
    fn serialize_raw(self, text: &str) -> Result<()> {
        self.out.extend_from_slice(text.as_bytes());
        Ok(())
    }
    fn serialize_seq(self, _len: Option<usize>) -> Result<Compound<'a>> {
        self.open(b'[');
        Ok(Compound {
            writer: self,
            first: true,
            close: b']',
        })
    }
    fn serialize_map(self, _len: Option<usize>) -> Result<Compound<'a>> {
        self.open(b'{');
        Ok(Compound {
            writer: self,
            first: true,
            close: b'}',
        })
    }
}

impl SerializeSeq for Compound<'_> {
    type Ok = ();
    type Error = Error;
    fn element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        self.writer.separate(self.first);
        self.first = false;
        value.serialize(&mut *self.writer)
    }
    fn end(self) -> Result<()> {
        self.writer.close(self.close, self.first);
        Ok(())
    }
}

impl SerializeMap for Compound<'_> {
    type Ok = ();
    type Error = Error;
    fn key<K: Serialize + ?Sized>(&mut self, key: &K) -> Result<()> {
        self.writer.separate(self.first);
        self.first = false;
        key.serialize(KeyWriter(self.writer))
    }
    fn value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        self.writer
            .out
            .extend_from_slice(if self.writer.pretty { b": " } else { b":" });
        value.serialize(&mut *self.writer)
    }
    fn end(self) -> Result<()> {
        self.writer.close(self.close, self.first);
        Ok(())
    }
}

/// Object keys must be strings: integers are quoted, everything else that is
/// not a string is refused.
struct KeyWriter<'a>(&'a mut Writer);

/// Never constructed: a key cannot be a sequence or a map.
pub(crate) enum NoCompound {}

impl SerializeSeq for NoCompound {
    type Ok = ();
    type Error = Error;
    fn element<T: Serialize + ?Sized>(&mut self, _: &T) -> Result<()> {
        match *self {}
    }
    fn end(self) -> Result<()> {
        match self {}
    }
}

impl SerializeMap for NoCompound {
    type Ok = ();
    type Error = Error;
    fn key<K: Serialize + ?Sized>(&mut self, _: &K) -> Result<()> {
        match *self {}
    }
    fn value<T: Serialize + ?Sized>(&mut self, _: &T) -> Result<()> {
        match *self {}
    }
    fn end(self) -> Result<()> {
        match self {}
    }
}

fn key_must_be_string<T>() -> Result<T> {
    Err(Error::custom("key must be a string"))
}

impl Serializer for KeyWriter<'_> {
    type Ok = ();
    type Error = Error;
    type Seq = NoCompound;
    type Map = NoCompound;

    fn serialize_bool(self, _: bool) -> Result<()> {
        key_must_be_string()
    }
    fn serialize_i64(self, v: i64) -> Result<()> {
        self.0.out.push(b'"');
        self.0.write_i64(v);
        self.0.out.push(b'"');
        Ok(())
    }
    fn serialize_u64(self, v: u64) -> Result<()> {
        self.0.out.push(b'"');
        self.0.write_u64(v);
        self.0.out.push(b'"');
        Ok(())
    }
    fn serialize_f64(self, _: f64) -> Result<()> {
        key_must_be_string()
    }
    fn serialize_str(self, v: &str) -> Result<()> {
        self.0.write_str(v);
        Ok(())
    }
    fn serialize_unit(self) -> Result<()> {
        key_must_be_string()
    }
    fn serialize_seq(self, _: Option<usize>) -> Result<NoCompound> {
        key_must_be_string()
    }
    fn serialize_map(self, _: Option<usize>) -> Result<NoCompound> {
        key_must_be_string()
    }
}
