//! Hostile-bytes tests: whatever arrives on the socket, the gateway
//! replies with a typed `Reject` or closes cleanly — it never panics a
//! shard, and other connections keep being served. Plus the one-job JSON
//! `submit` message on a live gateway, a seeded mutation loop over the
//! request and reply decoders, and property tests over the frame and
//! submit codecs.

use flowtree_core::SchedulerSpec;
use flowtree_gateway::{
    decode, decode_reply, decode_request, encode, encode_reply_into, encode_request_into,
    encode_submit_batch_into, read_frame, write_frame, Gateway, GatewayClient, GatewayConfig,
    Reply, Request, SubmitOutcome, WireCodec, BINARY_MARKER, MAX_FRAME, PROTOCOL_VERSION,
};
use flowtree_serve::{IngestStats, ServeConfig, ShardPool};
use flowtree_sim::JobSpec;
use flowtree_workloads::mix::Scenario;
use proptest::prelude::*;
use rand::Rng as _;
use std::io::Write as _;
use std::net::TcpStream;

fn launch() -> (ShardPool, Gateway) {
    let cfg = ServeConfig::builder(SchedulerSpec::from_name_with_half("fifo", 1).expect("spec"), 2)
        .scenario("gateway-hostile")
        .build()
        .expect("valid config");
    let pool = ShardPool::launch(cfg).expect("launch");
    let gw = Gateway::launch("127.0.0.1:0", pool.handle(), GatewayConfig::default())
        .expect("gateway up");
    (pool, gw)
}

fn dial(gw: &Gateway) -> TcpStream {
    TcpStream::connect(gw.addr()).expect("dial")
}

fn hello(stream: &TcpStream) {
    let req = Request::hello("hostile");
    assert!(matches!(req, Request::Hello { proto, .. } if proto == PROTOCOL_VERSION));
    write_frame(&mut &*stream, &encode(&req)).expect("send hello");
    let payload = read_frame(&mut &*stream, 1 << 20).expect("reply").expect("frame");
    assert!(matches!(decode::<Reply>(&payload).expect("parse"), Reply::Welcome { .. }));
}

fn expect_reject(stream: &TcpStream, needle: &str) {
    let payload = read_frame(&mut &*stream, 1 << 20).expect("reply").expect("frame");
    match decode::<Reply>(&payload).expect("parse") {
        Reply::Reject { reason } => {
            assert!(reason.contains(needle), "reject says {reason:?}, wanted {needle:?}")
        }
        other => panic!("expected reject, got {other:?}"),
    }
}

/// The pool behind the hostile connection still serves honest clients.
fn assert_pool_alive(gw: &Gateway) {
    let mut client =
        GatewayClient::with_name(&gw.addr().to_string(), "honest").expect("honest connect");
    let jobs = Scenario::service(2)
        .instantiate(&mut flowtree_workloads::rng(3))
        .jobs()
        .to_vec();
    match client.submit_batch(jobs).expect("honest submit") {
        SubmitOutcome::Accepted { delta, .. } => assert_eq!(delta.offered, 2),
        other => panic!("honest client refused: {other:?}"),
    }
    assert!(client.snapshot().expect("snapshot").balanced);
}

#[test]
fn invalid_json_and_unknown_types_get_rejects_on_a_live_connection() {
    let (pool, gw) = launch();
    let stream = dial(&gw);
    hello(&stream);

    write_frame(&mut &stream, b"this is not json").expect("send");
    expect_reject(&stream, "bad request");

    write_frame(&mut &stream, b"{\"type\":\"frobnicate\"}").expect("send");
    expect_reject(&stream, "unknown request type");

    write_frame(&mut &stream, b"{\"type\":\"watermark\"}").expect("send");
    expect_reject(&stream, "missing field");

    // The same connection still works after three rejects.
    let req = Request::Watermark { t: 5 };
    write_frame(&mut &stream, &encode(&req)).expect("send");
    let payload = read_frame(&mut &stream, 1 << 20).expect("reply").expect("frame");
    assert!(matches!(decode::<Reply>(&payload).expect("parse"), Reply::Ack { .. }));

    assert_pool_alive(&gw);
    gw.shutdown();
    pool.drain().expect("drain");
}

#[test]
fn requests_before_hello_are_rejected() {
    let (pool, gw) = launch();
    let stream = dial(&gw);
    write_frame(&mut &stream, &encode(&Request::Snapshot)).expect("send");
    expect_reject(&stream, "hello");
    assert_pool_alive(&gw);
    gw.shutdown();
    pool.drain().expect("drain");
}

#[test]
fn oversized_frames_are_rejected_then_the_connection_closes() {
    let (pool, gw) = launch();
    let stream = dial(&gw);
    hello(&stream);

    // Announce a payload over the gateway's frame limit; send nothing.
    (&stream).write_all(&(MAX_FRAME as u32 + 1).to_be_bytes()).expect("send length");
    expect_reject(&stream, "exceeds");
    // Frame sync is gone, so the gateway hangs up.
    assert_eq!(read_frame(&mut &stream, 1 << 20).expect("clean close"), None);

    assert_eq!(gw.stats().wire_errors.load(std::sync::atomic::Ordering::SeqCst), 1);
    assert_pool_alive(&gw);
    gw.shutdown();
    pool.drain().expect("drain");
}

#[test]
fn truncated_frames_close_the_connection_without_panicking_a_shard() {
    let (pool, gw) = launch();
    {
        let stream = dial(&gw);
        hello(&stream);
        // Announce 100 bytes, deliver 3, hang up.
        (&stream).write_all(&100u32.to_be_bytes()).expect("send length");
        (&stream).write_all(b"abc").expect("send partial");
    }
    // Wait for the handler to notice the dead connection.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while gw.stats().wire_errors.load(std::sync::atomic::Ordering::SeqCst) == 0 {
        assert!(std::time::Instant::now() < deadline, "handler never saw the truncation");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_pool_alive(&gw);
    gw.shutdown();
    let results = pool.drain().expect("no shard panicked");
    assert!(results.iter().all(|r| r.summary.invariants_clean));
}

/// A frame is a few bytes, but the node count it declares is a graph's
/// worth of memory: a submit whose jobs declare more subjobs than the
/// per-frame budget is rejected before any graph is built, in either
/// codec, and the connection lives on.
#[test]
fn frames_declaring_too_many_subjobs_are_rejected_before_building() {
    let (pool, gw) = launch();
    let stream = dial(&gw);
    hello(&stream);

    // Binary: marker, submit-batch opcode, one job with release 0,
    // n = u32::MAX and no edges — 22 bytes.
    let mut bin = vec![0x00, 0x01];
    bin.extend_from_slice(&1u32.to_le_bytes());
    bin.extend_from_slice(&0u64.to_le_bytes());
    bin.extend_from_slice(&u32::MAX.to_le_bytes());
    bin.extend_from_slice(&0u32.to_le_bytes());
    assert_eq!(bin.len(), 22);
    write_frame(&mut &stream, &bin).expect("send");
    expect_reject(&stream, "budget");

    let json = format!(
        "{{\"type\":\"submit-batch\",\"jobs\":[{{\"graph\":{{\"n\":{},\"edges\":[]}},\"release\":0}}]}}",
        u32::MAX
    );
    write_frame(&mut &stream, json.as_bytes()).expect("send");
    expect_reject(&stream, "budget");

    // The same connection still works after both rejects.
    write_frame(&mut &stream, &encode(&Request::Watermark { t: 5 })).expect("send");
    let payload = read_frame(&mut &stream, 1 << 20).expect("reply").expect("frame");
    assert!(matches!(decode::<Reply>(&payload).expect("parse"), Reply::Ack { .. }));

    assert_pool_alive(&gw);
    gw.shutdown();
    pool.drain().expect("drain");
}

/// The JSON `submit` message (one `job`, no batch) stays part of the
/// wire protocol: a live gateway acks it as a one-job batch and the pool
/// admits exactly that job.
#[test]
fn json_submit_frame_is_acked_as_a_one_job_batch() {
    let (pool, gw) = launch();
    let stream = dial(&gw);
    hello(&stream);

    let frame = br#"{"type":"submit","job":{"graph":{"n":2,"edges":[[0,1]]},"release":3}}"#;
    write_frame(&mut &stream, frame).expect("send");
    let payload = read_frame(&mut &stream, 1 << 20).expect("reply").expect("frame");
    match decode::<Reply>(&payload).expect("parse") {
        Reply::Ack { delta, frames, .. } => {
            assert_eq!(delta.offered, 1);
            assert_eq!(delta.delivered, 1);
            assert_eq!(frames, 1);
        }
        other => panic!("expected ack, got {other:?}"),
    }

    gw.shutdown();
    let results = pool.drain().expect("drain");
    let jobs: Vec<&JobSpec> = results.iter().flat_map(|r| r.instance.jobs()).collect();
    assert_eq!(jobs, [&JobSpec { graph: flowtree_dag::builder::chain(2), release: 3 }]);
}

/// A binary submit frame that fails to decode stages none of its jobs:
/// the well-formed job in front of the trailing byte is never offered,
/// so the next good frame's ack covers that frame's job alone.
#[test]
fn a_rejected_binary_submit_offers_none_of_its_jobs() {
    let (pool, gw) = launch();
    let stream = dial(&gw);
    hello(&stream);

    let job = JobSpec { graph: flowtree_dag::builder::chain(2), release: 3 };
    let mut bad = Vec::new();
    encode_submit_batch_into(std::slice::from_ref(&job), WireCodec::Binary, &mut bad);
    bad.push(0xAB);
    write_frame(&mut &stream, &bad).expect("send");
    expect_reject(&stream, "trailing");

    let frame = encode(&Request::SubmitBatch { jobs: vec![job.clone()] });
    write_frame(&mut &stream, &frame).expect("send");
    let payload = read_frame(&mut &stream, 1 << 20).expect("reply").expect("frame");
    match decode::<Reply>(&payload).expect("parse") {
        Reply::Ack { delta, frames: 1, .. } => assert_eq!(delta.offered, 1),
        other => panic!("expected a one-frame ack, got {other:?}"),
    }

    gw.shutdown();
    let results = pool.drain().expect("drain");
    let jobs: Vec<&JobSpec> = results.iter().flat_map(|r| r.instance.jobs()).collect();
    assert_eq!(jobs, [&job]);
}

/// Mutation test of the decoders: seed frames of every request and reply
/// kind, in both codecs, garbled by a seeded loop of byte flips,
/// truncations, splices and insertions. Neither decoder may panic, and
/// every request that still decodes must come back unchanged from a
/// re-encode in the codec its first byte names.
#[test]
fn mutated_frames_never_panic_a_decoder_and_decoded_requests_roundtrip() {
    let job = |n, release| JobSpec { graph: flowtree_dag::builder::chain(n), release };
    let requests = [
        Request::hello("seed"),
        Request::Hello {
            proto: PROTOCOL_VERSION,
            client: "bin".into(),
            codec: WireCodec::Binary,
            window: 32,
        },
        Request::SubmitBatch { jobs: vec![job(3, 5)] },
        Request::SubmitBatch {
            jobs: vec![job(1, 0), JobSpec { graph: flowtree_dag::builder::star(3), release: 2 }],
        },
        Request::Watermark { t: 77 },
        Request::Swap { shard: -1, at: 10, spec: "lpf".into() },
        Request::Snapshot,
        Request::Metrics,
        Request::Drain,
    ];
    let replies = [
        Reply::Welcome {
            proto: PROTOCOL_VERSION,
            shards: 2,
            scheduler: "fifo".into(),
            policy: "block".into(),
            codec: WireCodec::Binary,
            window: 8,
        },
        Reply::Ack {
            seq: 3,
            delta: IngestStats { offered: 2, delivered: 2, ..Default::default() },
            frames: 1,
        },
        Reply::Busy { retry_after_ms: 50, frames: 4 },
        Reply::Reject { reason: "nope".into() },
        Reply::State {
            line: "t>=0".into(),
            offered: 5,
            delivered: 4,
            dropped: 0,
            staged: 1,
            balanced: true,
        },
        Reply::MetricsText { text: "# HELP x\n".into() },
    ];
    let mut buf = Vec::new();
    let mut seeds =
        vec![br#"{"type":"submit","job":{"graph":{"n":2,"edges":[[0,1]]},"release":3}}"#.to_vec()];
    for codec in [WireCodec::Json, WireCodec::Binary] {
        for req in &requests {
            encode_request_into(req, codec, &mut buf);
            seeds.push(buf.clone());
        }
        for reply in &replies {
            encode_reply_into(reply, codec, &mut buf);
            seeds.push(buf.clone());
        }
    }
    seeds.sort();
    seeds.dedup();

    let mut rng = flowtree_workloads::rng(0x5eed);
    let mut decoded = 0;
    for case in 0..4000 {
        let mut frame = seeds[rng.gen_range(0..seeds.len())].clone();
        for _ in 0..rng.gen_range(1..=3) {
            let at = rng.gen_range(0..=frame.len());
            match rng.gen_range(0..4) {
                0 if at < frame.len() => frame[at] ^= rng.gen_range(1..=255u8),
                1 => frame.truncate(at),
                2 => {
                    let other = &seeds[rng.gen_range(0..seeds.len())];
                    frame.truncate(at);
                    frame.extend_from_slice(&other[rng.gen_range(0..=other.len())..]);
                }
                _ => frame.insert(at, rng.gen_range(0..=255u8)),
            }
        }
        let (req, _) = std::panic::catch_unwind(|| (decode_request(&frame), decode_reply(&frame)))
            .unwrap_or_else(|_| panic!("case {case}: a decoder panicked on {frame:?}"));
        if let Ok(req) = req {
            decoded += 1;
            let codec = if frame[0] == BINARY_MARKER {
                WireCodec::Binary
            } else {
                WireCodec::Json
            };
            encode_request_into(&req, codec, &mut buf);
            assert_eq!(decode_request(&buf), Ok(req), "case {case}: {frame:?}");
        }
    }
    // The loop must reach the accepting paths too (1% of the cases).
    assert!(decoded >= 40, "only {decoded} of 4000 mutated frames decoded");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any sequence of payloads written as frames reads back identically,
    /// and the concatenated stream ends on a clean boundary.
    #[test]
    fn frame_codec_roundtrips_any_payload_sequence(
        payloads in proptest::collection::vec(
            proptest::collection::vec(0u8..=255u8, 0..300), 0..10),
    ) {
        let mut buf = Vec::new();
        for p in &payloads {
            write_frame(&mut buf, p).unwrap();
        }
        let mut r = &buf[..];
        for p in &payloads {
            let got = read_frame(&mut r, 1 << 20).unwrap();
            prop_assert_eq!(got.as_deref(), Some(&p[..]));
        }
        prop_assert_eq!(read_frame(&mut r, 1 << 20).unwrap(), None);
    }

    /// Any job batch survives the binary codec unchanged, and decodes to
    /// exactly the same jobs the JSON encoding of the batch decodes to —
    /// the two codecs are interchangeable on the wire.
    #[test]
    fn binary_codec_roundtrips_any_job_batch(
        shapes in proptest::collection::vec((1usize..40, 0u64..1_000_000u64), 0..12),
        seed in 0u64..1000,
    ) {
        let mut rng = flowtree_workloads::rng(seed);
        let jobs: Vec<JobSpec> = shapes
            .iter()
            .map(|&(n, release)| JobSpec {
                graph: flowtree_workloads::trees::random_recursive_tree(n, &mut rng),
                release,
            })
            .collect();
        let mut bin = Vec::new();
        encode_submit_batch_into(&jobs, WireCodec::Binary, &mut bin);
        let mut json = Vec::new();
        encode_submit_batch_into(&jobs, WireCodec::Json, &mut json);
        let staged = decode_request(&bin).unwrap();
        prop_assert_eq!(&staged, &Request::SubmitBatch { jobs });
        prop_assert_eq!(decode_request(&json).unwrap(), staged);
    }
}
