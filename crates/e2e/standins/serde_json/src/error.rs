use std::fmt;

/// A serialization or parse failure. Parse failures carry the position.
pub struct Error {
    msg: String,
    /// 1-based line and column of a parse failure.
    at: Option<(usize, usize)>,
}

pub type Result<T> = std::result::Result<T, Error>;

impl Error {
    pub(crate) fn new(msg: impl fmt::Display) -> Self {
        Error {
            msg: msg.to_string(),
            at: None,
        }
    }

    pub(crate) fn at(msg: impl fmt::Display, input: &[u8], pos: usize) -> Self {
        let before = &input[..pos.min(input.len())];
        let line = 1 + before.iter().filter(|&&b| b == b'\n').count();
        let column = 1 + before.iter().rev().take_while(|&&b| b != b'\n').count();
        Error {
            msg: msg.to_string(),
            at: Some((line, column)),
        }
    }

    /// Attach a position to an error raised by a `Deserialize` impl.
    pub(crate) fn locate(mut self, input: &[u8], pos: usize) -> Self {
        if self.at.is_none() {
            self.at = Error::at("", input, pos).at;
        }
        self
    }

    pub fn line(&self) -> usize {
        self.at.map_or(0, |(line, _)| line)
    }

    pub fn column(&self) -> usize {
        self.at.map_or(0, |(_, column)| column)
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.at {
            Some((line, column)) => write!(f, "{} at line {line} column {column}", self.msg),
            None => f.write_str(&self.msg),
        }
    }
}

impl fmt::Debug for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Error({:?}", self.msg)?;
        if let Some((line, column)) = self.at {
            write!(f, ", line: {line}, column: {column}")?;
        }
        f.write_str(")")
    }
}

impl std::error::Error for Error {}

impl serde::ser::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error::new(msg)
    }
}

impl serde::de::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error::new(msg)
    }
}
