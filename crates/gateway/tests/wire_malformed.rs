//! Hostile-bytes tests: whatever arrives on the socket, the gateway
//! replies with a typed `Reject` or closes cleanly — it never panics a
//! shard, and other connections keep being served. Plus the one-job JSON
//! `submit` message on a live gateway, and property tests over the frame
//! and submit codecs.

use flowtree_core::SchedulerSpec;
use flowtree_gateway::{
    decode, decode_submit_into, encode, encode_submit_batch_into, read_frame, write_frame, Gateway,
    GatewayClient, GatewayConfig, Reply, Request, SubmitOutcome, WireCodec, MAX_FRAME,
    PROTOCOL_VERSION,
};
use flowtree_serve::{ServeConfig, ShardPool};
use flowtree_sim::JobSpec;
use flowtree_workloads::mix::Scenario;
use proptest::prelude::*;
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

    /// Any job batch survives the binary codec unchanged, and stages
    /// exactly the same jobs the JSON encoding of the batch stages —
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
        let mut staged = Vec::new();
        prop_assert_eq!(decode_submit_into(&bin, &mut staged).unwrap(), Some(jobs.len()));
        prop_assert_eq!(&staged, &jobs);

        let mut json = Vec::new();
        encode_submit_batch_into(&jobs, WireCodec::Json, &mut json);
        let mut staged_json = Vec::new();
        prop_assert_eq!(decode_submit_into(&json, &mut staged_json).unwrap(), Some(jobs.len()));
        prop_assert_eq!(staged_json, staged);
    }
}
