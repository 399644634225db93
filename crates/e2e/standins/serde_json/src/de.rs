use serde::de::{Deserialize, Deserializer, MapAccess, SeqAccess, Token};
use std::borrow::Cow;

use crate::{Error, Result};

/// Nesting deeper than this is refused, so hostile input cannot overflow the
/// stack (the published crate uses the same limit).
const MAX_DEPTH: usize = 128;

pub fn from_slice<'a, T: Deserialize<'a>>(input: &'a [u8]) -> Result<T> {
    let mut parser = Parser {
        input,
        pos: 0,
        depth: 0,
    };
    let value = T::deserialize(&mut parser).map_err(|e| e.locate(input, parser.pos))?;
    parser.skip_whitespace();
    if parser.pos < input.len() {
        return Err(parser.error("trailing characters"));
    }
    Ok(value)
}

pub fn from_str<'a, T: Deserialize<'a>>(input: &'a str) -> Result<T> {
    from_slice(input.as_bytes())
}

pub(crate) struct Parser<'de> {
    input: &'de [u8],
    pos: usize,
    depth: usize,
}

impl<'de> Parser<'de> {
    fn error(&self, msg: &str) -> Error {
        Error::at(msg, self.input, self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while let Some(b' ' | b'\n' | b'\t' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    /// Skip whitespace and return the byte that starts the next token.
    fn next_significant(&mut self) -> Result<u8> {
        self.skip_whitespace();
        self.peek()
            .ok_or_else(|| self.error("EOF while parsing a value"))
    }

    fn expect_literal(&mut self, literal: &[u8]) -> Result<()> {
        if self.input[self.pos..].starts_with(literal) {
            self.pos += literal.len();
            Ok(())
        } else {
            Err(self.error("expected ident"))
        }
    }

    fn enter(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error("recursion limit exceeded"));
        }
        self.pos += 1;
        Ok(())
    }

    fn text(&self, start: usize, end: usize) -> Result<&'de str> {
        std::str::from_utf8(&self.input[start..end])
            .map_err(|_| Error::at("invalid unicode code point", self.input, start))
    }

    /// Parse a string whose opening quote is the next byte.
    fn parse_string(&mut self) -> Result<Cow<'de, str>> {
        self.pos += 1;
        let start = self.pos;
        let mut owned: Option<String> = None;
        let mut run = start;
        loop {
            let Some(byte) = self.peek() else {
                return Err(self.error("EOF while parsing a string"));
            };
            match byte {
                b'"' => {
                    let tail = self.text(run, self.pos)?;
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(tail),
                        Some(mut text) => {
                            text.push_str(tail);
                            Cow::Owned(text)
                        }
                    });
                }
                b'\\' => {
                    let head = self.text(run, self.pos)?;
                    let text = owned.get_or_insert_with(String::new);
                    text.push_str(head);
                    self.pos += 1;
                    let ch = self.parse_escape()?;
                    owned.as_mut().expect("set above").push(ch);
                    run = self.pos;
                }
                0x00..=0x1f => {
                    return Err(self
                        .error("control character (\\u0000-\\u001F) found while parsing a string"))
                }
                _ => self.pos += 1,
            }
        }
    }

    /// Parse what follows a backslash.
    fn parse_escape(&mut self) -> Result<char> {
        let Some(byte) = self.peek() else {
            return Err(self.error("EOF while parsing a string"));
        };
        self.pos += 1;
        Ok(match byte {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let first = self.parse_hex4()?;
                let code = match first {
                    0xD800..=0xDBFF => {
                        if !self.input[self.pos..].starts_with(b"\\u") {
                            return Err(self.error("unexpected end of hex escape"));
                        }
                        self.pos += 2;
                        let second = self.parse_hex4()?;
                        if !(0xDC00..=0xDFFF).contains(&second) {
                            return Err(self.error("lone leading surrogate in hex escape"));
                        }
                        0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                    }
                    0xDC00..=0xDFFF => {
                        return Err(self.error("lone trailing surrogate in hex escape"))
                    }
                    code => code,
                };
                char::from_u32(code).ok_or_else(|| self.error("invalid unicode code point"))?
            }
            _ => return Err(self.error("invalid escape")),
        })
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        let digits = self
            .input
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.error("EOF while parsing a string"))?;
        let mut code = 0u32;
        for &digit in digits {
            let nibble = (digit as char)
                .to_digit(16)
                .ok_or_else(|| self.error("invalid escape"))?;
            code = code * 16 + nibble;
        }
        self.pos += 4;
        Ok(code)
    }

    /// Parse a number whose first byte (`-` or a digit) is the next byte.
    fn parse_number<S, M>(&mut self) -> Result<Token<'de, S, M>> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if let Some(b'0'..=b'9') = self.peek() {
                    return Err(self.error("invalid number"));
                }
            }
            Some(b'1'..=b'9') => self.skip_digits(),
            _ => return Err(self.error("invalid number")),
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("invalid number"));
            }
            self.skip_digits();
        }
        if let Some(b'e' | b'E') = self.peek() {
            integral = false;
            self.pos += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("invalid number"));
            }
            self.skip_digits();
        }
        // The grammar above admits ASCII only.
        let text = self.text(start, self.pos)?;
        if integral {
            if negative {
                if let Ok(v) = text.parse::<i64>() {
                    return Ok(Token::I64(v));
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(Token::U64(v));
            }
        }
        text.parse::<f64>()
            .map(Token::F64)
            .map_err(|_| Error::at("invalid number", self.input, start))
    }

    fn skip_digits(&mut self) {
        while let Some(b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
    }

    /// Skip one value without building anything.
    fn skip_value(&mut self) -> Result<()> {
        match self.next_significant()? {
            b'n' => self.expect_literal(b"null"),
            b't' => self.expect_literal(b"true"),
            b'f' => self.expect_literal(b"false"),
            b'"' => self.parse_string().map(drop),
            b'-' | b'0'..=b'9' => self.parse_number::<(), ()>().map(drop),
            b'[' => {
                self.enter()?;
                let mut first = true;
                loop {
                    if self.next_significant()? == b']' {
                        break;
                    }
                    if !first {
                        self.expect_comma()?;
                    }
                    first = false;
                    self.skip_value()?;
                }
                self.pos += 1;
                self.depth -= 1;
                Ok(())
            }
            b'{' => {
                self.enter()?;
                let mut first = true;
                loop {
                    if self.next_significant()? == b'}' {
                        break;
                    }
                    if !first {
                        self.expect_comma()?;
                    }
                    first = false;
                    if self.next_significant()? != b'"' {
                        return Err(self.error("key must be a string"));
                    }
                    self.parse_string()?;
                    self.expect_colon()?;
                    self.skip_value()?;
                }
                self.pos += 1;
                self.depth -= 1;
                Ok(())
            }
            _ => Err(self.error("expected value")),
        }
    }

    fn expect_comma(&mut self) -> Result<()> {
        if self.peek() == Some(b',') {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error("expected `,` or the end of the list"))
        }
    }

    fn expect_colon(&mut self) -> Result<()> {
        if self.next_significant()? == b':' {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error("expected `:`"))
        }
    }
}

impl<'de, 'a> Deserializer<'de> for &'a mut Parser<'de> {
    type Error = Error;
    type Seq = Elements<'a, 'de>;
    type Map = Entries<'a, 'de>;

    fn take(self) -> Result<Token<'de, Elements<'a, 'de>, Entries<'a, 'de>>> {
        match self.next_significant()? {
            b'n' => self.expect_literal(b"null").map(|()| Token::Null),
            b't' => self.expect_literal(b"true").map(|()| Token::Bool(true)),
            b'f' => self.expect_literal(b"false").map(|()| Token::Bool(false)),
            b'"' => self.parse_string().map(Token::Str),
            b'-' | b'0'..=b'9' => self.parse_number(),
            b'[' => {
                self.enter()?;
                Ok(Token::Seq(Elements {
                    parser: self,
                    first: true,
                }))
            }
            b'{' => {
                self.enter()?;
                Ok(Token::Map(Entries {
                    parser: self,
                    first: true,
                }))
            }
            _ => Err(self.error("expected value")),
        }
    }

    fn take_option(self) -> Result<Option<Self>> {
        if self.next_significant()? == b'n' {
            self.expect_literal(b"null")?;
            Ok(None)
        } else {
            Ok(Some(self))
        }
    }

    fn take_raw(self) -> Result<&'de str> {
        self.skip_whitespace();
        let start = self.pos;
        self.skip_value()?;
        self.text(start, self.pos)
    }
}

pub(crate) struct Elements<'a, 'de> {
    parser: &'a mut Parser<'de>,
    first: bool,
}

impl<'de> SeqAccess<'de> for Elements<'_, 'de> {
    type Error = Error;
    fn next<T: Deserialize<'de>>(&mut self) -> Result<Option<T>> {
        if self.parser.next_significant()? == b']' {
            self.parser.pos += 1;
            self.parser.depth -= 1;
            return Ok(None);
        }
        if !self.first {
            self.parser.expect_comma()?;
        }
        self.first = false;
        T::deserialize(&mut *self.parser).map(Some)
    }
}

pub(crate) struct Entries<'a, 'de> {
    parser: &'a mut Parser<'de>,
    first: bool,
}

impl<'de> MapAccess<'de> for Entries<'_, 'de> {
    type Error = Error;
    fn next_key<K: Deserialize<'de>>(&mut self) -> Result<Option<K>> {
        if self.parser.next_significant()? == b'}' {
            self.parser.pos += 1;
            self.parser.depth -= 1;
            return Ok(None);
        }
        if !self.first {
            self.parser.expect_comma()?;
        }
        self.first = false;
        if self.parser.next_significant()? != b'"' {
            return Err(self.parser.error("key must be a string"));
        }
        let key = K::deserialize(KeyParser(&mut *self.parser))?;
        self.parser.expect_colon()?;
        Ok(Some(key))
    }
    fn next_value<T: Deserialize<'de>>(&mut self) -> Result<T> {
        T::deserialize(&mut *self.parser)
    }
    fn skip_value(&mut self) -> Result<()> {
        self.parser.skip_value()
    }
}

/// Deserializer of an object key: the string is handed out as `Token::Key`,
/// which integer types parse (the writer quotes integer keys).
struct KeyParser<'a, 'de>(&'a mut Parser<'de>);

impl<'de, 'a> Deserializer<'de> for KeyParser<'a, 'de> {
    type Error = Error;
    type Seq = Elements<'a, 'de>;
    type Map = Entries<'a, 'de>;

    fn take(self) -> Result<Token<'de, Elements<'a, 'de>, Entries<'a, 'de>>> {
        self.0.parse_string().map(Token::Key)
    }

    fn take_option(self) -> Result<Option<Self>> {
        Ok(Some(self))
    }
}
