//! Request/response envelopes: correlation ids, endpoint paths, and
//! HTTP-like status codes around opaque bodies, and the one form those
//! bodies take inside a JSON envelope ([`Body`]).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Outcome class of a response, mirroring the HTTP status families the
/// demo's REST APIs would return.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Status {
    /// 2xx — the command was executed.
    Ok,
    /// 4xx — the command was understood but refused (no capacity, unknown
    /// slice, …). The body carries the domain error.
    Rejected,
    /// 5xx — the endpoint failed to process the command (decode error,
    /// internal invariant).
    Error,
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Status::Ok => "ok",
            Status::Rejected => "rejected",
            Status::Error => "error",
        })
    }
}

/// The bytes an envelope carries — any bytes: a codec frame, a plain-text
/// reason, a report one flipped byte away from UTF-8. Inside the JSON
/// envelope they are one string of padded RFC 4648 base64 (4 characters
/// per 3 bytes), the same on the in-process bus and on a socket; text
/// that is not canonical base64 fails to deserialize.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Body(pub Vec<u8>);

impl Serialize for Body {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(&base64_encode(&self.0))
    }
}

impl<'de> Deserialize<'de> for Body {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let text = String::deserialize(deserializer)?;
        base64_decode(&text).map(Body).map_err(|reason| {
            <D::Error as serde::de::Error>::custom(format_args!("body: {reason}"))
        })
    }
}

const BASE64_ALPHABET: &[u8; 64] =
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Marks a byte outside the alphabet in [`BASE64_VALUES`].
const NOT_BASE64: u8 = 0xFF;

/// Alphabet character → its six bits.
const BASE64_VALUES: [u8; 256] = {
    let mut values = [NOT_BASE64; 256];
    let mut i = 0;
    while i < 64 {
        values[BASE64_ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    values
};

fn base64_encode(bytes: &[u8]) -> String {
    let sextet = |group: u32, shift: u32| BASE64_ALPHABET[(group >> shift) as usize & 63];
    let mut out = Vec::with_capacity(bytes.len().div_ceil(3) * 4);
    let mut chunks = bytes.chunks_exact(3);
    for c in &mut chunks {
        let group = u32::from(c[0]) << 16 | u32::from(c[1]) << 8 | u32::from(c[2]);
        out.extend_from_slice(&[
            sextet(group, 18),
            sextet(group, 12),
            sextet(group, 6),
            sextet(group, 0),
        ]);
    }
    match *chunks.remainder() {
        [a] => {
            let group = u32::from(a) << 16;
            out.extend_from_slice(&[sextet(group, 18), sextet(group, 12), b'=', b'=']);
        }
        [a, b] => {
            let group = u32::from(a) << 16 | u32::from(b) << 8;
            out.extend_from_slice(&[sextet(group, 18), sextet(group, 12), sextet(group, 6), b'=']);
        }
        _ => {}
    }
    String::from_utf8(out).expect("the base64 alphabet is ASCII")
}

/// The bytes `text` spells, or why it is not canonical padded base64:
/// a length that is not a multiple of four, a character outside the
/// alphabet (padding anywhere but the end included), or set bits beyond
/// the last byte.
fn base64_decode(text: &str) -> Result<Vec<u8>, &'static str> {
    let text = text.as_bytes();
    if !text.len().is_multiple_of(4) {
        return Err("base64 length is not a multiple of 4");
    }
    let padding = match text {
        [.., b'=', b'='] => 2,
        [.., b'='] => 1,
        _ => 0,
    };
    let data = &text[..text.len() - padding];
    let sextets = |chars: &[u8]| {
        chars
            .iter()
            .try_fold(0u32, |group, &c| match BASE64_VALUES[c as usize] {
                NOT_BASE64 => Err("character outside the base64 alphabet"),
                bits => Ok(group << 6 | u32::from(bits)),
            })
    };
    let mut out = Vec::with_capacity(data.len() / 4 * 3 + 2);
    let mut quads = data.chunks_exact(4);
    for quad in &mut quads {
        out.extend_from_slice(&sextets(quad)?.to_be_bytes()[1..]);
    }
    // A short last quad of n characters (2 or 3) spells n - 1 bytes; the
    // bits past them must be zero, or two texts would spell one body.
    let tail = quads.remainder();
    if !tail.is_empty() {
        let group = sextets(tail)?;
        let short = 4 - tail.len();
        if group & ((1 << (2 * short)) - 1) != 0 {
            return Err("non-canonical base64: trailing bits set");
        }
        out.extend_from_slice(&(group << (6 * short)).to_be_bytes()[1..tail.len()]);
    }
    Ok(out)
}

/// A request envelope: where it goes and what it carries.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Correlation id, echoed in the response.
    pub id: u64,
    /// Endpoint path, e.g. `"ran/monitoring"`.
    pub endpoint: String,
    /// The payload, already framed by the codec; a base64 string in the
    /// JSON envelope (see [`Body`]).
    pub body: Body,
}

/// A response envelope.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// Correlation id from the request.
    pub id: u64,
    /// Outcome class.
    pub status: Status,
    /// The payload; a base64 string in the JSON envelope (see [`Body`]).
    pub body: Body,
}

impl Response {
    /// An OK response carrying `body`.
    pub fn ok(id: u64, body: Vec<u8>) -> Response {
        Response {
            id,
            status: Status::Ok,
            body: Body(body),
        }
    }

    /// A rejection carrying a serialized domain error.
    pub fn rejected(id: u64, body: Vec<u8>) -> Response {
        Response {
            id,
            status: Status::Rejected,
            body: Body(body),
        }
    }

    /// A processing error with a plain-text reason.
    pub fn error(id: u64, reason: &str) -> Response {
        Response {
            id,
            status: Status::Error,
            body: Body(reason.as_bytes().to_vec()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_status() {
        assert_eq!(Response::ok(1, vec![]).status, Status::Ok);
        assert_eq!(Response::rejected(1, vec![]).status, Status::Rejected);
        let e = Response::error(9, "boom");
        assert_eq!(e.status, Status::Error);
        assert_eq!(e.body.0, b"boom");
        assert_eq!(e.id, 9);
    }

    #[test]
    fn status_displays() {
        assert_eq!(Status::Ok.to_string(), "ok");
        assert_eq!(Status::Rejected.to_string(), "rejected");
        assert_eq!(Status::Error.to_string(), "error");
    }

    #[test]
    fn envelope_serde_round_trip() {
        let req = Request {
            id: 42,
            endpoint: "ran/command".into(),
            body: Body(vec![1, 2, 3]),
        };
        let j = serde_json::to_string(&req).unwrap();
        assert_eq!(j, r#"{"id":42,"endpoint":"ran/command","body":"AQID"}"#);
        assert_eq!(serde_json::from_str::<Request>(&j).unwrap(), req);
    }

    #[test]
    fn base64_matches_the_rfc_4648_vectors() {
        let vectors = [
            ("", ""),
            ("f", "Zg=="),
            ("fo", "Zm8="),
            ("foo", "Zm9v"),
            ("foob", "Zm9vYg=="),
            ("fooba", "Zm9vYmE="),
            ("foobar", "Zm9vYmFy"),
        ];
        for (plain, text) in vectors {
            assert_eq!(base64_encode(plain.as_bytes()), text);
            assert_eq!(base64_decode(text).unwrap(), plain.as_bytes());
        }
    }

    #[test]
    fn base64_round_trips_every_byte_value_at_every_short_length() {
        let all: Vec<u8> = (0..=255).collect();
        assert_eq!(base64_decode(&base64_encode(&all)).unwrap(), all);
        for len in 0..=66usize {
            // Slide along the byte values so every length sees high bytes.
            let bytes: Vec<u8> = (0..len).map(|i| (i * 37 + len * 11) as u8 ^ 0xA5).collect();
            let text = base64_encode(&bytes);
            assert_eq!(
                text.len(),
                len.div_ceil(3) * 4,
                "padded length, {len} bytes"
            );
            assert_eq!(base64_decode(&text).unwrap(), bytes, "{len} bytes");
        }
    }

    #[test]
    fn malformed_base64_is_an_error_never_a_fix_up() {
        for (text, why) in [
            ("Zm9", "length not a multiple of 4"),
            ("Zg=", "length not a multiple of 4"),
            ("Zm9v\n", "length not a multiple of 4"),
            ("Zm9*", "character outside the alphabet"),
            ("Zm-_", "the URL-safe alphabet is another alphabet"),
            ("Zm 9", "whitespace"),
            ("Zm\u{e9}", "non-ASCII"),
            ("Zg==Zm9v", "padding in the middle"),
            ("Zm=v", "padding in the middle of a quad"),
            ("Z===", "three padding characters"),
            ("====", "padding only"),
            ("Zh==", "trailing bits set under two padding characters"),
            ("Zm9=", "trailing bits set under one padding character"),
        ] {
            assert!(base64_decode(text).is_err(), "{text:?}: {why}");
        }
        // Through serde the same texts are decode errors, not panics.
        assert!(serde_json::from_str::<Body>(r#""Zh==""#).is_err());
        assert!(
            serde_json::from_str::<Body>("[102]").is_err(),
            "the array form is gone"
        );
        let bad = r#"{"id":1,"endpoint":"e","body":"Zm9*"}"#;
        let err = serde_json::from_str::<Request>(bad).unwrap_err();
        assert!(err.to_string().contains("base64"), "{err}");
    }

    #[test]
    fn an_envelope_costs_four_thirds_of_its_body() {
        // A count, not a stopwatch: one JSON string of base64, not one
        // decimal number and a comma per byte (≈ 3.5 × the body).
        let body: Vec<u8> = (0..300_000u32).map(|i| (i * 31 % 251) as u8).collect();
        let req = Request {
            id: u64::MAX,
            endpoint: "transport/monitoring".into(),
            body: Body(body.clone()),
        };
        let wire = serde_json::to_vec(&req).unwrap();
        assert!(
            wire.len() <= body.len() * 4 / 3 + 128,
            "{} bytes",
            wire.len()
        );
        assert_eq!(serde_json::from_slice::<Request>(&wire).unwrap(), req);
    }
}
