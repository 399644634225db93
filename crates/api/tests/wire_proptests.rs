//! Properties of the framed wire codec, as seeded loops (the case index
//! seeds the draw, and a failing case prints it): a [`MonitoringReport`]
//! survives the full journey a socket call takes — versioned JSON envelope
//! ([`encode`]/[`decode`]) wrapped in a [`WireFrame::Request`] and
//! length-prefix-framed onto the wire — and the frame reader rejects the
//! malformed inputs a real TCP peer can produce: truncated frames, trailing
//! garbage, and wrong-version envelopes.

use ovnes_api::rpc::{read_frame_bytes, write_frame_bytes};
use ovnes_api::{decode, encode, CodecError, MonitoringReport, Request, WireFrame, WIRE_VERSION};
use ovnes_sim::{SimRng, SimTime};

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
        body: encode(report).expect("encode"),
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
                    decode::<MonitoringReport>(&req.body).expect("decode"),
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
