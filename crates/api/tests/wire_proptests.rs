//! Properties of the framed wire codec, as seeded loops (the case index
//! seeds the draw, and a failing case prints it): a [`MonitoringReport`]
//! survives the full journey a socket call takes — versioned JSON envelope
//! ([`encode`]/[`decode`]) wrapped in a [`WireFrame::Request`] and
//! length-prefix-framed onto the wire — and the frame reader rejects the
//! malformed inputs a real TCP peer can produce: truncated frames, trailing
//! garbage, wrong-version envelopes, and a body that is not base64. Bodies
//! are arbitrary bytes, and every frame kind that carries one returns it
//! bit for bit.

use ovnes_api::rpc::{read_frame_bytes, write_frame_bytes};
use ovnes_api::{
    decode, encode, read_frame, register_control_endpoints, write_frame, Body, CodecError,
    MonitoringReport, Request, Response, Router, RpcServer, SocketBus, Status, WireFrame,
    WIRE_VERSION,
};
use ovnes_sim::{SimRng, SimTime};
use std::io::{self, Read};
use std::net::TcpStream;
use std::time::Duration;

const CASES: u64 = 256;

fn lowercase(rng: &mut SimRng, alphabet: &[u8], min: usize, max: usize) -> String {
    (0..rng.uniform_usize(min, max + 1))
        .map(|_| alphabet[rng.uniform_usize(0, alphabet.len())] as char)
        .collect()
}

fn monitoring_report(rng: &mut SimRng) -> MonitoringReport {
    MonitoringReport {
        domain: lowercase(rng, b"abcdefghijklmnopqrstuvwxyz", 1, 10),
        at: SimTime::from_micros(rng.next_u64()),
        scalars: (0..rng.uniform_usize(0, 6))
            .map(|_| {
                (
                    lowercase(rng, b"abcdefghijklmnopqrstuvwxyz_.", 1, 16),
                    rng.uniform_range(-1e9, 1e9),
                )
            })
            .collect(),
    }
}

/// `report` as the request a client puts on the wire, and that wire.
fn framed(report: &MonitoringReport, id: u64) -> (WireFrame, Vec<u8>) {
    let frame = WireFrame::Request(Request {
        id,
        endpoint: "ran/monitoring".to_owned(),
        body: Body(encode(report).expect("encode")),
    });
    let mut wire = Vec::new();
    write_frame_bytes(&mut wire, &serde_json::to_vec(&frame).unwrap()).expect("write");
    (frame, wire)
}

/// encode → WireFrame::Request → length-prefixed bytes → read back →
/// WireFrame parse → decode. Exactly the client-to-server path.
#[test]
fn monitoring_reports_survive_the_framed_wire() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(case);
        let report = monitoring_report(&mut rng);
        let id = rng.next_u64();
        let (_, wire) = framed(&report, id);

        let bytes = read_frame_bytes(&mut wire.as_slice()).expect("read");
        match serde_json::from_slice(&bytes).expect("frame parse") {
            WireFrame::Request(req) => {
                assert_eq!(req.id, id, "case {case}");
                assert_eq!(req.endpoint, "ran/monitoring", "case {case}");
                assert_eq!(
                    decode::<MonitoringReport>(&req.body.0).expect("decode"),
                    report,
                    "case {case}"
                );
            }
            other => panic!("case {case}: wrong frame kind: {other:?}"),
        }
    }
}

#[test]
fn truncated_frames_error_instead_of_hanging_or_garbling() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(case);
        let (_, wire) = framed(&monitoring_report(&mut rng), 1);

        // Cut the wire anywhere strictly before the end: inside the length
        // prefix or inside the payload. Either way the reader must report
        // an error, never a short or fabricated frame.
        let cut = rng.uniform_usize(0, wire.len());
        assert!(
            read_frame_bytes(&mut &wire[..cut]).is_err(),
            "case {case}: {cut} of {} bytes read as a frame",
            wire.len()
        );
    }
}

#[test]
fn trailing_garbage_does_not_bleed_into_the_frame() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(case);
        let (frame, mut wire) = framed(&monitoring_report(&mut rng), 2);
        let framed_len = wire.len();
        let garbage = rng.uniform_usize(1, 64);
        wire.extend((0..garbage).map(|_| rng.next_u64() as u8));

        // The length prefix bounds the read exactly: the first frame comes
        // back intact and the garbage stays unconsumed in the reader.
        let mut reader = wire.as_slice();
        let bytes = read_frame_bytes(&mut reader).unwrap();
        let back: WireFrame = serde_json::from_slice(&bytes).unwrap();
        assert_eq!(back, frame, "case {case}");
        assert_eq!(reader.len(), wire.len() - framed_len, "case {case}");
    }
}

#[test]
fn wrong_version_frames_report_the_mismatch_not_a_schema_error() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(case);
        let report = monitoring_report(&mut rng);
        // Any version below 1000 but the one the codec speaks.
        let drawn = rng.uniform_usize(0, 999) as u32;
        let version = if drawn < WIRE_VERSION { drawn } else { drawn + 1 };

        // A valid payload behind a wrong version must surface as
        // VersionMismatch — the schema is never even consulted.
        let body = serde_json::to_vec(&serde_json::json!({
            "version": version,
            "payload": report,
        }))
        .unwrap();
        match decode::<MonitoringReport>(&body) {
            Err(CodecError::VersionMismatch { found }) => assert_eq!(found, version, "case {case}"),
            other => panic!("case {case}: expected VersionMismatch, got {other:?}"),
        }
    }
}

/// A body no text format would pass: empty, all-ones, random, or a report
/// with one byte flipped the way `FaultInjector` corrupts a response
/// (which leaves UTF-8 behind).
fn arbitrary_body(rng: &mut SimRng) -> Vec<u8> {
    match rng.uniform_usize(0, 4) {
        0 => Vec::new(),
        1 => vec![0xFF; rng.uniform_usize(1, 9)],
        2 => (0..rng.uniform_usize(1, 200))
            .map(|_| rng.next_u64() as u8)
            .collect(),
        _ => {
            let mut body = encode(&monitoring_report(rng)).expect("encode");
            let i = rng.uniform_usize(0, body.len());
            body[i] ^= 0xFF;
            body
        }
    }
}

#[test]
fn arbitrary_bodies_survive_every_frame_that_carries_one() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(case);
        let body = Body(arbitrary_body(&mut rng));
        let frames = [
            WireFrame::Request(Request {
                id: rng.next_u64(),
                endpoint: "transport/monitoring".to_owned(),
                body: body.clone(),
            }),
            WireFrame::Response {
                term: rng.next_u64(),
                response: Response {
                    id: rng.next_u64(),
                    status: Status::Rejected,
                    body: body.clone(),
                },
            },
            WireFrame::Push {
                topic: "transport/monitoring".to_owned(),
                body,
            },
        ];
        let mut wire = Vec::new();
        for frame in &frames {
            write_frame(&mut wire, frame).expect("write");
        }
        let mut reader = wire.as_slice();
        for frame in &frames {
            assert_eq!(
                &read_frame(&mut reader).expect("read"),
                frame,
                "case {case}"
            );
        }
        assert!(reader.is_empty(), "case {case}");
    }
}

/// A well-framed request whose `body` string is `text`.
fn request_with_body_text(text: &str) -> Vec<u8> {
    let json = format!(r#"{{"Request":{{"id":7,"endpoint":"ran/monitoring","body":"{text}"}}}}"#);
    let mut wire = Vec::new();
    write_frame_bytes(&mut wire, json.as_bytes()).expect("write");
    wire
}

#[test]
fn a_body_that_is_not_base64_is_invalid_data() {
    // The helper writes what `write_frame` writes …
    let good = request_with_body_text("Zm9v");
    match read_frame(&mut good.as_slice()).expect("read") {
        WireFrame::Request(req) => assert_eq!(req.body.0, b"foo"),
        other => panic!("wrong frame kind: {other:?}"),
    }
    // … so these fail on the body alone: bad length, bad character,
    // padding in the middle, trailing bits, and the array spelling.
    for text in ["Zm9", "Zm9*", "Zg==Zm9v", "Zh==", "102,111,111"] {
        let wire = request_with_body_text(text);
        let err = read_frame(&mut wire.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{text:?}: {err}");
    }
}

#[test]
fn a_malformed_body_drops_its_own_connection_and_no_other() {
    let mut router = Router::new();
    register_control_endpoints(&mut router, "ran");
    let server = RpcServer::spawn(router).expect("bind loopback");
    let mut healthy = SocketBus::new();
    healthy.attach(&server);
    healthy
        .call("ran/health", Vec::new())
        .expect("served before");

    let mut confused = TcpStream::connect(server.addr()).expect("connect");
    confused
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    io::Write::write_all(&mut confused, &request_with_body_text("Zm9*")).expect("send");
    // The server hangs up without answering: the read sees EOF, not a frame.
    let mut answer = Vec::new();
    confused.read_to_end(&mut answer).expect("a clean hang-up");
    assert!(answer.is_empty(), "the malformed request was answered");
    assert_eq!(server.stats().requests, 1, "and it was never dispatched");

    let resp = healthy
        .call("ran/monitoring", b"still here".to_vec())
        .expect("served after");
    assert_eq!(resp.body.0, b"still here");
}
