//! The stand-in `serde`, `serde_derive` and `serde_json` against each other:
//! the shapes the ovnes crates derive, and the JSON text they must produce.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
struct Id(u64);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Pair(u32, String);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Unit;

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Shape {
    Point,
    Circle(f64),
    Segment(f64, f64),
    Rect { w: f64, h: f64 },
}

fn default_alive() -> bool {
    true
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Record<T> {
    id: Id,
    name: String,
    tags: Vec<String>,
    maybe: Option<u8>,
    by_id: BTreeMap<Id, T>,
    shape: Shape,
    seed: [u8; 4],
    #[serde(default = "default_alive")]
    alive: bool,
    #[serde(default)]
    count: u32,
    #[serde(skip)]
    scratch: Vec<u8>,
    r#type: i32,
}

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(from = "Wire", into = "Wire")]
struct Doubled(u32);

#[derive(Serialize, Deserialize)]
struct Wire {
    half: u32,
}

impl From<Wire> for Doubled {
    fn from(w: Wire) -> Self {
        Doubled(w.half * 2)
    }
}

impl From<Doubled> for Wire {
    fn from(d: Doubled) -> Self {
        Wire { half: d.0 / 2 }
    }
}

fn record() -> Record<f64> {
    Record {
        id: Id(7),
        name: "a \"quoted\"\nline \u{1f600} \u{1}".into(),
        tags: vec![],
        maybe: None,
        by_id: [(Id(2), 0.5), (Id(10), -1e300)].into_iter().collect(),
        shape: Shape::Rect { w: 1.0, h: 2.5 },
        seed: [1, 2, 3, 4],
        alive: false,
        count: 3,
        scratch: vec![9],
        r#type: -4,
    }
}

#[test]
fn compact_text_has_the_published_shape() {
    let text = serde_json::to_string(&record()).unwrap();
    assert_eq!(
        text,
        "{\"id\":7,\"name\":\"a \\\"quoted\\\"\\nline \u{1f600} \\u0001\",\"tags\":[],\"maybe\":null,\
         \"by_id\":{\"2\":0.5,\"10\":-1e300},\"shape\":{\"Rect\":{\"w\":1.0,\"h\":2.5}},\
         \"seed\":[1,2,3,4],\"alive\":false,\"count\":3,\"type\":-4}"
    );
}

#[test]
fn round_trips_and_fills_defaults() {
    let original = record();
    let text = serde_json::to_string(&original).unwrap();
    let mut back: Record<f64> = serde_json::from_str(&text).unwrap();
    assert!(back.scratch.is_empty());
    back.scratch = vec![9];
    assert_eq!(back, original);

    let sparse = r#" { "id": 1, "name": "x", "tags": ["t"], "by_id": {}, "shape": "Point",
                      "seed": [0,0,0,0], "type": 0, "unknown": [1, {"a": null}] } "#;
    let sparse: Record<f64> = serde_json::from_str(sparse).unwrap();
    assert!(sparse.alive);
    assert_eq!(sparse.count, 0);
    assert_eq!(sparse.maybe, None);
    assert_eq!(sparse.shape, Shape::Point);
}

#[test]
fn enums_are_externally_tagged() {
    let shapes = vec![
        Shape::Point,
        Shape::Circle(2.0),
        Shape::Segment(0.0, 1.5),
        Shape::Rect { w: 3.0, h: 4.0 },
    ];
    let text = serde_json::to_string(&shapes).unwrap();
    assert_eq!(
        text,
        r#"["Point",{"Circle":2.0},{"Segment":[0.0,1.5]},{"Rect":{"w":3.0,"h":4.0}}]"#
    );
    assert_eq!(serde_json::from_str::<Vec<Shape>>(&text).unwrap(), shapes);
    assert!(serde_json::from_str::<Shape>(r#""Square""#).is_err());
    assert!(serde_json::from_str::<Shape>(r#"{"Circle":1.0,"Point":null}"#).is_err());
}

#[test]
fn tuple_unit_and_converted_structs() {
    assert_eq!(
        serde_json::to_string(&Pair(1, "p".into())).unwrap(),
        r#"[1,"p"]"#
    );
    assert_eq!(
        serde_json::from_str::<Pair>(r#"[1,"p"]"#).unwrap(),
        Pair(1, "p".into())
    );
    assert!(serde_json::from_str::<Pair>("[1]").is_err());
    assert!(serde_json::from_str::<Pair>(r#"[1,"p",2]"#).is_err());
    assert_eq!(serde_json::to_string(&Unit).unwrap(), "null");
    assert_eq!(serde_json::from_str::<Unit>("null").unwrap(), Unit);
    assert_eq!(serde_json::to_string(&Doubled(8)).unwrap(), r#"{"half":4}"#);
    assert_eq!(
        serde_json::from_str::<Doubled>(r#"{"half":4}"#).unwrap(),
        Doubled(8)
    );
}

#[test]
fn pretty_text_has_the_published_shape() {
    #[derive(Serialize)]
    struct Doc {
        a: Vec<u8>,
        b: Vec<u8>,
        c: BTreeMap<String, bool>,
    }
    let doc = Doc {
        a: vec![1, 2],
        b: vec![],
        c: BTreeMap::new(),
    };
    assert_eq!(
        serde_json::to_string_pretty(&doc).unwrap(),
        "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": [],\n  \"c\": {}\n}"
    );
}

#[test]
fn floats_keep_their_bits() {
    for v in [
        0.0,
        -0.0,
        1.0,
        0.1,
        1e21,
        1e-7,
        5e-324,
        f64::MAX,
        123456.789e3,
    ] {
        let text = serde_json::to_string(&v).unwrap();
        let back: f64 = serde_json::from_str(&text).unwrap();
        assert_eq!(back.to_bits(), v.to_bits(), "{text}");
    }
    assert_eq!(serde_json::to_string(&f64::NAN).unwrap(), "null");
    assert_eq!(serde_json::from_str::<f64>("3").unwrap(), 3.0);
    assert_eq!(
        serde_json::from_str::<u64>("18446744073709551615").unwrap(),
        u64::MAX
    );
    assert!(serde_json::from_str::<u8>("256").is_err());
    assert!(serde_json::from_str::<u8>("-1").is_err());
}

#[test]
fn raw_values_borrow_the_input() {
    #[derive(Serialize, Deserialize)]
    struct Frame<T> {
        version: u32,
        payload: T,
    }
    let bytes = serde_json::to_vec(&Frame {
        version: 1,
        payload: &Pair(5, "x".into()),
    })
    .unwrap();
    let frame: Frame<&serde_json::value::RawValue> = serde_json::from_slice(&bytes).unwrap();
    assert_eq!(frame.version, 1);
    assert_eq!(frame.payload.get(), r#"[5,"x"]"#);
    assert_eq!(
        serde_json::to_string(&frame).unwrap().as_bytes(),
        &bytes[..]
    );
}

#[test]
fn values_and_the_json_macro() {
    let value = serde_json::to_value(record()).unwrap();
    assert_eq!(value["id"], 7u64);
    assert_eq!(value["shape"]["Rect"]["h"], 2.5);
    assert!(value["nope"].is_null());
    let back: Record<f64> = serde_json::from_value(value.clone()).unwrap();
    assert_eq!(back.id, Id(7));
    let parsed: serde_json::Value = serde_json::from_str(&value.to_string()).unwrap();
    assert_eq!(parsed, value);

    let n = 3;
    let built = serde_json::json!({"a": [1, null, "s"], "b": {"c": (n + 1)}, "d": n});
    assert_eq!(built.to_string(), r#"{"a":[1,null,"s"],"b":{"c":4},"d":3}"#);
}

#[test]
fn malformed_input_is_an_error_with_a_position() {
    for bad in [
        "",
        "{",
        "[1,]",
        "{\"a\" 1}",
        "tru",
        "\"abc",
        "1 2",
        "\"\\ud800\"",
        "01",
        "1.",
    ] {
        let err = serde_json::from_str::<serde_json::Value>(bad).unwrap_err();
        assert!(err.line() >= 1, "{bad}: {err}");
    }
    let deep = "[".repeat(200) + &"]".repeat(200);
    assert!(serde_json::from_str::<serde_json::Value>(&deep).is_err());
    assert!(serde_json::from_slice::<String>(b"\"\xff\"").is_err());
}
