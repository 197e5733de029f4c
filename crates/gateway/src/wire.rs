//! The wire protocol: length-framed messages, JSON by default with an
//! optional binary codec for the hot path.
//!
//! Every frame is a 4-byte big-endian payload length followed by that many
//! payload bytes — one message per frame, the framing layer playing the
//! role JSONL's newline plays on disk. By default the payload is a UTF-8
//! JSON `"type"`-tagged object ([`Request`] client→gateway, [`Reply`]
//! gateway→client) so either side can reject an unknown tag without losing
//! frame sync.
//!
//! A connection may negotiate [`WireCodec::Binary`] in its hello: the four
//! hot messages (`submit-batch`, `watermark`, `ack`, `busy`) then
//! travel in a compact fixed layout whose first byte is
//! [`BINARY_MARKER`] (`0x00`, never a valid JSON start), so JSON and
//! binary frames coexist on one stream and every control message stays
//! JSON. Decoders sniff the marker per frame — negotiation governs what a
//! peer *sends*, never what it accepts.
//!
//! Error surfaces are deliberately split: [`FrameError`] is about the byte
//! stream (truncation, an oversized length prefix, socket errors) and
//! usually ends the connection, while a payload that frames correctly but
//! parses badly is answered with [`Reply::Reject`] and the connection
//! lives on.

use flowtree_dag::{GraphBuilder, NodeId, Time};
use flowtree_serve::IngestStats;
use flowtree_sim::JobSpec;
use serde::Value;
use std::io::{self, IoSlice, Read, Write};

/// Wire protocol version carried in [`Request::Hello`]; the gateway refuses
/// clients that speak a different one.
pub const PROTOCOL_VERSION: u32 = 1;

/// Default ceiling on one frame's payload (4 MiB). A length prefix above
/// the limit is a protocol error, not an allocation request — the reader
/// refuses it before reserving memory.
pub const MAX_FRAME: usize = 4 << 20;

/// Ceiling on the subjobs one submit frame may declare, summed over its
/// jobs: `MAX_FRAME / 4` = 1,048,576. A node count costs 4 bytes on the
/// wire but a graph's worth of memory to build, so both codecs check a
/// frame's total against it before they build any graph.
const FRAME_NODE_BUDGET: u64 = (MAX_FRAME / 4) as u64;

/// First payload byte of every binary-codec message. `0x00` can never open
/// a JSON document, so a decoder distinguishes the codecs per frame.
pub const BINARY_MARKER: u8 = 0x00;

/// Binary opcode: a submit batch (requests).
const OP_SUBMIT_BATCH: u8 = 1;
/// Binary opcode: a cumulative acknowledgement (replies).
const OP_ACK: u8 = 2;
/// Binary opcode: a watermark (requests).
const OP_WATERMARK: u8 = 3;
/// Binary opcode: a busy push-back (replies).
const OP_BUSY: u8 = 4;

/// Codec for the hot wire messages, negotiated per connection in
/// [`Request::Hello`]. Control messages are always JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireCodec {
    /// UTF-8 JSON payloads (the protocol default: what a hello without a
    /// codec gets; every peer speaks it). [`ClientOptions`] asks for
    /// binary unless told otherwise.
    ///
    /// [`ClientOptions`]: crate::ClientOptions
    #[default]
    Json,
    /// Fixed-layout little-endian payloads for the hot messages.
    Binary,
}

impl WireCodec {
    /// Stable wire/CLI name (`"json"` / `"bin"`).
    pub fn name(self) -> &'static str {
        match self {
            WireCodec::Json => "json",
            WireCodec::Binary => "bin",
        }
    }

    /// Parse a wire/CLI name back into the codec.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "json" => Ok(WireCodec::Json),
            "bin" | "binary" => Ok(WireCodec::Binary),
            other => Err(format!("unknown codec '{other}' (expected json|bin)")),
        }
    }
}

impl serde::Serialize for WireCodec {
    fn to_value(&self) -> Value {
        Value::Str(self.name().to_string())
    }
}

impl serde::Deserialize for WireCodec {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let s = String::from_value(v)?;
        WireCodec::parse(&s).map_err(serde::Error::custom)
    }
}

/// A byte-stream-level framing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix exceeded the reader's limit.
    Oversized {
        /// Payload length the prefix announced.
        len: usize,
        /// The reader's configured ceiling.
        max: usize,
    },
    /// The stream ended (EOF or reader gave up) mid-frame.
    Truncated,
    /// An underlying socket error.
    Io(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::Io(e) => write!(f, "frame i/o: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Write one frame: 4-byte big-endian length, then the payload, flushed.
/// Header and payload go out in a single vectored write so a small frame
/// costs one syscall (and one TCP segment under `TCP_NODELAY`), not two.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "payload exceeds u32 framing"))?;
    let header = len.to_be_bytes();
    let total = header.len() + payload.len();
    let mut written = 0usize;
    while written < total {
        let r = if written < header.len() {
            let bufs = [IoSlice::new(&header[written..]), IoSlice::new(payload)];
            w.write_vectored(&bufs)
        } else {
            w.write(&payload[written - header.len()..])
        };
        match r {
            Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "frame write stalled")),
            Ok(n) => written += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Read one frame, blocking until it arrives. `Ok(None)` means the peer
/// closed cleanly between frames; EOF *inside* a frame is
/// [`FrameError::Truncated`].
pub fn read_frame<R: Read>(r: &mut R, max: usize) -> Result<Option<Vec<u8>>, FrameError> {
    let mut buf = Vec::new();
    Ok(read_frame_patient_into(r, max, &mut buf, &mut || true)?.then_some(buf))
}

/// [`read_frame`] into a caller-owned buffer (cleared and refilled,
/// capacity kept, so a connection loop pays no allocation per frame), for
/// sockets with a read timeout: every time the read times out
/// (`WouldBlock`/`TimedOut`), `keep_waiting` is consulted. While it
/// returns `true` the read retries; once it returns `false` the call
/// resolves — `Ok(false)` if no byte of the frame had arrived yet,
/// [`FrameError::Truncated`] if one had. `Ok(false)` also means the peer
/// closed cleanly between frames. Pass `&mut || true` to block until a
/// frame or a close arrives. The gateway server does not use it, since it
/// parses frames from its own nonblocking buffers.
pub fn read_frame_patient_into<R: Read>(
    r: &mut R,
    max: usize,
    buf: &mut Vec<u8>,
    keep_waiting: &mut dyn FnMut() -> bool,
) -> Result<bool, FrameError> {
    let mut header = [0u8; 4];
    if !read_exact_patient(r, &mut header, true, keep_waiting)? {
        return Ok(false);
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > max {
        return Err(FrameError::Oversized { len, max });
    }
    buf.clear();
    buf.resize(len, 0);
    if !read_exact_patient(r, buf, false, keep_waiting)? {
        return Err(FrameError::Truncated);
    }
    Ok(true)
}

/// Fill `buf` from `r`. Returns `Ok(false)` when the stream ends (EOF or
/// `keep_waiting` says stop) before the *first* byte and `at_boundary` is
/// set; any later shortfall is [`FrameError::Truncated`].
fn read_exact_patient<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    at_boundary: bool,
    keep_waiting: &mut dyn FnMut() -> bool,
) -> Result<bool, FrameError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return if got == 0 && at_boundary {
                    Ok(false)
                } else {
                    Err(FrameError::Truncated)
                }
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                if keep_waiting() {
                    continue;
                }
                return if got == 0 && at_boundary {
                    Ok(false)
                } else {
                    Err(FrameError::Truncated)
                };
            }
            Err(e) => return Err(FrameError::Io(e.to_string())),
        }
    }
    Ok(true)
}

/// Serialize a wire message to a fresh JSON frame payload (the
/// convenience form; hot paths use [`encode_request_into`] /
/// [`encode_reply_into`] with a reused buffer).
pub fn encode<T: serde::Serialize>(msg: &T) -> Vec<u8> {
    let mut out = Vec::new();
    encode_json_into(msg, &mut out);
    out
}

/// Append `msg`'s JSON payload to `out` (the `*_into` encoders clear it
/// first, so a reused buffer keeps its capacity).
fn encode_json_into<T: serde::Serialize>(msg: &T, out: &mut Vec<u8>) {
    serde_json::to_writer(out, msg).expect("wire messages serialize");
}

/// Parse a JSON frame payload into a wire message. The error string is
/// safe to echo back in a [`Reply::Reject`].
pub fn decode<T: serde::Deserialize>(payload: &[u8]) -> Result<T, String> {
    let text =
        std::str::from_utf8(payload).map_err(|_| "frame payload is not UTF-8".to_string())?;
    serde_json::from_str(text).map_err(|e| e.to_string())
}

/// A client→gateway message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Mandatory first message on every connection. Always JSON.
    Hello {
        /// Must equal [`PROTOCOL_VERSION`].
        proto: u32,
        /// Free-form client name, echoed into flight-recorder events.
        client: String,
        /// Requested hot-message codec (granted codec comes back in
        /// [`Reply::Welcome`]). Absent on old clients ⇒ JSON.
        codec: WireCodec,
        /// Requested ack window: submit frames the client may have in
        /// flight before it must collect a reply. Absent ⇒ 1
        /// (stop-and-wait). The gateway clamps; the grant is in
        /// [`Reply::Welcome`].
        window: u64,
    },
    /// Offer a batch of jobs atomically (all accepted or all [`Reply::Busy`]).
    /// A JSON `"submit"` message carrying one `job` decodes to a one-job
    /// batch.
    SubmitBatch {
        /// The jobs to ingest, releases nondecreasing preferred.
        jobs: Vec<JobSpec>,
    },
    /// Advance the pool's event-time frontier without offering work.
    Watermark {
        /// New frontier; ignored if the pool is already past it.
        t: Time,
    },
    /// Hot-swap the scheduler on one shard (or all with `shard = -1`).
    Swap {
        /// Target shard index, or `-1` for every shard.
        shard: i64,
        /// Event time at which the swap applies.
        at: Time,
        /// Scheduler name as the CLI spells it (e.g. `"lpf"`).
        spec: String,
    },
    /// Ask for a point-in-time pool snapshot.
    Snapshot,
    /// Ask for the Prometheus text exposition (pool + gateway series).
    Metrics,
    /// Ask the gateway to stop accepting work and drain the pool.
    Drain,
}

impl Request {
    /// A hello with the default codec and window (what old clients send).
    pub fn hello(client: &str) -> Request {
        Request::Hello {
            proto: PROTOCOL_VERSION,
            client: client.to_string(),
            codec: WireCodec::Json,
            window: 1,
        }
    }
}

/// A gateway→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Successful [`Request::Hello`]. Always JSON.
    Welcome {
        /// The gateway's protocol version.
        proto: u32,
        /// Shards in the pool behind the gateway.
        shards: usize,
        /// Scheduler the pool launched with.
        scheduler: String,
        /// Overload policy name (`block` / `drop` / `redirect`).
        policy: String,
        /// Granted hot-message codec. Absent on old gateways ⇒ JSON.
        codec: WireCodec,
        /// Granted ack window. Absent on old gateways ⇒ 1.
        window: u64,
    },
    /// The request was applied; `delta` is exactly what it did to the
    /// pool-wide ingest ledger.
    Ack {
        /// Per-connection acknowledgement counter.
        seq: u64,
        /// Ledger delta attributable to the acknowledged request(s) alone.
        delta: IngestStats,
        /// Submit frames this ack covers (cumulative under a pipelined
        /// window; 1 — and absent on old gateways — otherwise).
        frames: u64,
    },
    /// The pool would have blocked on this work; retry later. The covered
    /// frames were *not* offered — they appear in no ledger counter.
    Busy {
        /// Suggested client back-off.
        retry_after_ms: u64,
        /// Submit frames this push-back covers (the oldest unacknowledged
        /// ones; 1 — and absent on old gateways — otherwise).
        frames: u64,
    },
    /// The request was understood as a frame but refused.
    Reject {
        /// Human-readable refusal.
        reason: String,
    },
    /// Answer to [`Request::Snapshot`].
    State {
        /// The pool's one-line heartbeat.
        line: String,
        /// Ledger: arrivals offered.
        offered: u64,
        /// Ledger: arrivals delivered to shards.
        delivered: u64,
        /// Ledger: arrivals shed.
        dropped: u64,
        /// Ledger: arrivals staged router-side.
        staged: u64,
        /// Whether `delivered + dropped + staged == offered` held.
        balanced: bool,
    },
    /// Answer to [`Request::Metrics`].
    MetricsText {
        /// Prometheus text exposition.
        text: String,
    },
}

// ------------------------------------------------------------- JSON (Value)

fn tagged(tag: &str, fields: Vec<(&str, Value)>) -> Value {
    let mut all = Vec::with_capacity(fields.len() + 1);
    all.push(("type".to_string(), Value::Str(tag.to_string())));
    all.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    Value::Object(all)
}

fn field<T: serde::Deserialize>(v: &Value, name: &str) -> Result<T, serde::Error> {
    T::from_value(v.get(name).ok_or_else(|| serde::Error::missing_field(name))?)
}

/// An optional field with a default — how the protocol grows without
/// breaking old peers (the JSON decoders skip unknown fields, and new
/// fields default when absent).
fn field_or<T: serde::Deserialize>(v: &Value, name: &str, default: T) -> Result<T, serde::Error> {
    match v.get(name) {
        Some(inner) => T::from_value(inner),
        None => Ok(default),
    }
}

/// A submit batch over a borrowed job slice: serializes exactly like
/// [`Request::SubmitBatch`] without first cloning the jobs into one.
struct SubmitBatchRef<'a>(&'a [JobSpec]);

impl serde::Serialize for SubmitBatchRef<'_> {
    fn to_value(&self) -> Value {
        tagged("submit-batch", vec![("jobs", serde::Serialize::to_value(self.0))])
    }
}

impl serde::Serialize for Request {
    fn to_value(&self) -> Value {
        match self {
            Request::Hello { proto, client, codec, window } => tagged(
                "hello",
                vec![
                    ("proto", proto.to_value()),
                    ("client", client.to_value()),
                    ("codec", codec.to_value()),
                    ("window", window.to_value()),
                ],
            ),
            Request::SubmitBatch { jobs } => SubmitBatchRef(jobs).to_value(),
            Request::Watermark { t } => tagged("watermark", vec![("t", t.to_value())]),
            Request::Swap { shard, at, spec } => tagged(
                "swap",
                vec![("shard", shard.to_value()), ("at", at.to_value()), ("spec", spec.to_value())],
            ),
            Request::Snapshot => tagged("snapshot", vec![]),
            Request::Metrics => tagged("metrics", vec![]),
            Request::Drain => tagged("drain", vec![]),
        }
    }
}

impl serde::Deserialize for Request {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let tag: String = field(v, "type")?;
        check_json_node_budget(v).map_err(serde::Error::custom)?;
        Ok(match tag.as_str() {
            "hello" => Request::Hello {
                proto: field(v, "proto")?,
                client: field(v, "client")?,
                codec: field_or(v, "codec", WireCodec::Json)?,
                window: field_or(v, "window", 1)?,
            },
            "submit" => Request::SubmitBatch { jobs: vec![field(v, "job")?] },
            "submit-batch" => Request::SubmitBatch { jobs: field(v, "jobs")? },
            "watermark" => Request::Watermark { t: field(v, "t")? },
            "swap" => Request::Swap {
                shard: field(v, "shard")?,
                at: field(v, "at")?,
                spec: field(v, "spec")?,
            },
            "snapshot" => Request::Snapshot,
            "metrics" => Request::Metrics,
            "drain" => Request::Drain,
            other => return Err(serde::Error::custom(format!("unknown request type '{other}'"))),
        })
    }
}

impl serde::Serialize for Reply {
    fn to_value(&self) -> Value {
        match self {
            Reply::Welcome { proto, shards, scheduler, policy, codec, window } => tagged(
                "welcome",
                vec![
                    ("proto", proto.to_value()),
                    ("shards", shards.to_value()),
                    ("scheduler", scheduler.to_value()),
                    ("policy", policy.to_value()),
                    ("codec", codec.to_value()),
                    ("window", window.to_value()),
                ],
            ),
            Reply::Ack { seq, delta, frames } => tagged(
                "ack",
                vec![
                    ("seq", seq.to_value()),
                    ("delta", delta.to_value()),
                    ("frames", frames.to_value()),
                ],
            ),
            Reply::Busy { retry_after_ms, frames } => tagged(
                "busy",
                vec![("retry_after_ms", retry_after_ms.to_value()), ("frames", frames.to_value())],
            ),
            Reply::Reject { reason } => tagged("reject", vec![("reason", reason.to_value())]),
            Reply::State { line, offered, delivered, dropped, staged, balanced } => tagged(
                "state",
                vec![
                    ("line", line.to_value()),
                    ("offered", offered.to_value()),
                    ("delivered", delivered.to_value()),
                    ("dropped", dropped.to_value()),
                    ("staged", staged.to_value()),
                    ("balanced", balanced.to_value()),
                ],
            ),
            Reply::MetricsText { text } => tagged("metrics", vec![("text", text.to_value())]),
        }
    }
}

impl serde::Deserialize for Reply {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let tag: String = field(v, "type")?;
        Ok(match tag.as_str() {
            "welcome" => Reply::Welcome {
                proto: field(v, "proto")?,
                shards: field(v, "shards")?,
                scheduler: field(v, "scheduler")?,
                policy: field(v, "policy")?,
                codec: field_or(v, "codec", WireCodec::Json)?,
                window: field_or(v, "window", 1)?,
            },
            "ack" => Reply::Ack {
                seq: field(v, "seq")?,
                delta: field(v, "delta")?,
                frames: field_or(v, "frames", 1)?,
            },
            "busy" => Reply::Busy {
                retry_after_ms: field(v, "retry_after_ms")?,
                frames: field_or(v, "frames", 1)?,
            },
            "reject" => Reply::Reject { reason: field(v, "reason")? },
            "state" => Reply::State {
                line: field(v, "line")?,
                offered: field(v, "offered")?,
                delivered: field(v, "delivered")?,
                dropped: field(v, "dropped")?,
                staged: field(v, "staged")?,
                balanced: field(v, "balanced")?,
            },
            "metrics" => Reply::MetricsText { text: field(v, "text")? },
            other => return Err(serde::Error::custom(format!("unknown reply type '{other}'"))),
        })
    }
}

// ------------------------------------------------------------- binary codec

fn push_u32_le(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64_le(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Encode a submit batch in the binary codec: marker, opcode, `u32` job
/// count, then per job `u64` release, `u32` node count, `u32` edge count
/// and the `(u32, u32)` edge pairs — all little-endian.
fn push_submit_batch_binary(out: &mut Vec<u8>, jobs: &[JobSpec]) {
    out.push(BINARY_MARKER);
    out.push(OP_SUBMIT_BATCH);
    push_u32_le(out, jobs.len() as u32);
    for job in jobs {
        push_u64_le(out, job.release);
        let n = job.graph.n() as u32;
        push_u32_le(out, n);
        push_u32_le(out, job.graph.num_edges() as u32);
        for v in 0..n {
            job.graph.children(NodeId(v)).iter().for_each(|c| {
                push_u32_le(out, v);
                push_u32_le(out, c);
            });
        }
    }
}

/// Little-endian cursor over a binary payload; every read is
/// bounds-checked so hostile bytes surface as `Err(String)`, never a
/// panic.
#[derive(Clone)]
struct BinReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BinReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        BinReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err("binary payload truncated".to_string()),
        }
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn finish(&self) -> Result<(), String> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err("binary payload has trailing bytes".to_string())
        }
    }
}

/// Decode a binary submit batch. The graphs are rebuilt through
/// [`GraphBuilder`] exactly like the JSON path, so a hostile payload
/// cannot smuggle in a cyclic "DAG" and a well-formed one produces
/// structurally identical jobs.
fn read_submit_batch_binary(r: &mut BinReader<'_>) -> Result<Vec<JobSpec>, String> {
    let count = r.u32()? as usize;
    // Each job costs at least 16 bytes on the wire; refuse counts the
    // payload cannot possibly hold before reserving anything.
    if count.saturating_mul(16) > r.buf.len() {
        return Err("binary job count exceeds payload".to_string());
    }
    // Walk the job headers first, so the frame's node total is checked
    // before any graph is built.
    let mut scan = r.clone();
    let mut nodes = 0u64;
    for _ in 0..count {
        scan.u64()?;
        nodes += u64::from(scan.u32()?);
        let edges = scan.u32()? as usize;
        if edges.saturating_mul(8) > scan.buf.len() - scan.pos {
            return Err("binary edge count exceeds payload".to_string());
        }
        scan.pos += edges * 8;
    }
    check_node_budget(nodes)?;
    let mut jobs = Vec::with_capacity(count);
    for _ in 0..count {
        let release = r.u64()?;
        let n = r.u32()? as usize;
        let edges = r.u32()? as usize;
        let mut b = GraphBuilder::new(n);
        for _ in 0..edges {
            let u = r.u32()?;
            let v = r.u32()?;
            b.edge(u, v);
        }
        let graph = b.build().map_err(|e| e.to_string())?;
        jobs.push(JobSpec { graph, release });
    }
    Ok(jobs)
}

/// Refuse a frame whose jobs declare more than [`FRAME_NODE_BUDGET`]
/// subjobs in total.
fn check_node_budget(nodes: u64) -> Result<(), String> {
    if nodes > FRAME_NODE_BUDGET {
        return Err(format!(
            "frame declares {nodes} subjobs, over the budget of {FRAME_NODE_BUDGET} per frame"
        ));
    }
    Ok(())
}

/// The JSON counterpart of the binary header walk: sums the node counts
/// (`graph.n`) that the jobs of a `submit` (`job`) or `submit-batch`
/// (`jobs`) message declare and checks them against the budget, before
/// any job is decoded. Other messages carry no jobs and pass; a job
/// without a readable count adds nothing here and fails its own decode.
fn check_json_node_budget(msg: &Value) -> Result<(), String> {
    let jobs = msg.get("job").into_iter();
    let jobs = jobs.chain(msg.get("jobs").and_then(Value::as_array).into_iter().flatten());
    check_node_budget(
        jobs.filter_map(|j| j.get("graph")?.get("n")?.as_u64())
            .fold(0, u64::saturating_add),
    )
}

// ---------------------------------------------------------- encode / decode

/// Encode `req` into `out` (cleared first, capacity kept). Hot messages
/// honor `codec`; control messages, and every message under JSON, go
/// through the one JSON encoder ([`encode`]).
pub fn encode_request_into(req: &Request, codec: WireCodec, out: &mut Vec<u8>) {
    out.clear();
    match (req, codec) {
        (Request::SubmitBatch { jobs }, WireCodec::Binary) => push_submit_batch_binary(out, jobs),
        (Request::Watermark { t }, WireCodec::Binary) => {
            out.push(BINARY_MARKER);
            out.push(OP_WATERMARK);
            push_u64_le(out, *t);
        }
        (other, _) => encode_json_into(other, out),
    }
}

/// Encode a submit batch directly from a job slice (the client hot path:
/// no `Request` construction, no `Vec<JobSpec>` clone, one reused buffer).
pub fn encode_submit_batch_into(jobs: &[JobSpec], codec: WireCodec, out: &mut Vec<u8>) {
    out.clear();
    match codec {
        WireCodec::Binary => push_submit_batch_binary(out, jobs),
        WireCodec::Json => encode_json_into(&SubmitBatchRef(jobs), out),
    }
}

/// Encode `reply` into `out` (cleared first, capacity kept). Hot replies
/// honor `codec`; control replies, and every reply under JSON, go through
/// the one JSON encoder ([`encode`]).
pub fn encode_reply_into(reply: &Reply, codec: WireCodec, out: &mut Vec<u8>) {
    out.clear();
    match (reply, codec) {
        (Reply::Ack { seq, delta, frames }, WireCodec::Binary) => {
            out.push(BINARY_MARKER);
            out.push(OP_ACK);
            push_u64_le(out, *seq);
            push_u64_le(out, *frames);
            for v in delta.to_array() {
                push_u64_le(out, v);
            }
        }
        (Reply::Busy { retry_after_ms, frames }, WireCodec::Binary) => {
            out.push(BINARY_MARKER);
            out.push(OP_BUSY);
            push_u64_le(out, *retry_after_ms);
            push_u64_le(out, *frames);
        }
        (other, _) => encode_json_into(other, out),
    }
}

/// Decode a frame payload into a [`Request`], sniffing the codec from the
/// first byte — a connection may mix codecs frame by frame.
pub fn decode_request(payload: &[u8]) -> Result<Request, String> {
    if payload.first() == Some(&BINARY_MARKER) {
        let mut r = BinReader::new(&payload[1..]);
        let op = r.take(1)?[0];
        let req = match op {
            OP_SUBMIT_BATCH => Request::SubmitBatch { jobs: read_submit_batch_binary(&mut r)? },
            OP_WATERMARK => Request::Watermark { t: r.u64()? },
            other => return Err(format!("unknown binary request opcode {other}")),
        };
        r.finish()?;
        Ok(req)
    } else {
        decode(payload)
    }
}

/// Decode a frame payload into a [`Reply`], sniffing the codec from the
/// first byte.
pub fn decode_reply(payload: &[u8]) -> Result<Reply, String> {
    if payload.first() == Some(&BINARY_MARKER) {
        let mut r = BinReader::new(&payload[1..]);
        let op = r.take(1)?[0];
        let reply = match op {
            OP_ACK => {
                let seq = r.u64()?;
                let frames = r.u64()?;
                let mut delta = [0; 8];
                for v in &mut delta {
                    *v = r.u64()?;
                }
                Reply::Ack { seq, delta: IngestStats::from_array(delta), frames }
            }
            OP_BUSY => Reply::Busy { retry_after_ms: r.u64()?, frames: r.u64()? },
            other => return Err(format!("unknown binary reply opcode {other}")),
        };
        r.finish()?;
        Ok(reply)
    } else {
        decode(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_back_to_back() {
        let payloads: Vec<Vec<u8>> =
            vec![b"".to_vec(), b"{}".to_vec(), vec![0xF0, 0x9F, 0x8C, 0xB3]];
        let mut buf = Vec::new();
        for p in &payloads {
            write_frame(&mut buf, p).unwrap();
        }
        let mut r = &buf[..];
        for p in &payloads {
            assert_eq!(read_frame(&mut r, MAX_FRAME).unwrap().as_deref(), Some(&p[..]));
        }
        assert_eq!(read_frame(&mut r, MAX_FRAME).unwrap(), None);
    }

    #[test]
    fn truncated_and_oversized_frames_are_typed_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        for cut in 1..buf.len() {
            let mut r = &buf[..cut];
            assert_eq!(read_frame(&mut r, MAX_FRAME), Err(FrameError::Truncated), "cut={cut}");
        }
        let mut big = 100u32.to_be_bytes().to_vec();
        big.extend_from_slice(&[0; 100]);
        let mut r = &big[..];
        assert_eq!(read_frame(&mut r, 10), Err(FrameError::Oversized { len: 100, max: 10 }));
    }

    #[test]
    fn read_frame_patient_into_reuses_one_buffer() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"first frame, the longer one").unwrap();
        write_frame(&mut stream, b"second").unwrap();
        let mut r = &stream[..];
        let mut buf = Vec::new();
        let mut read = |buf: &mut Vec<u8>| {
            read_frame_patient_into(&mut r, MAX_FRAME, buf, &mut || true).unwrap()
        };
        assert!(read(&mut buf));
        assert_eq!(buf, b"first frame, the longer one");
        let cap = buf.capacity();
        assert!(read(&mut buf));
        assert_eq!(buf, b"second");
        assert_eq!(buf.capacity(), cap, "shorter frame must reuse the capacity");
        assert!(!read(&mut buf));
    }

    #[test]
    fn requests_and_replies_roundtrip_through_json() {
        let reqs = vec![
            Request::hello("t"),
            Request::Hello {
                proto: PROTOCOL_VERSION,
                client: "t2".into(),
                codec: WireCodec::Binary,
                window: 32,
            },
            Request::Watermark { t: 42 },
            Request::Swap { shard: -1, at: 10, spec: "lpf".into() },
            Request::Snapshot,
            Request::Metrics,
            Request::Drain,
        ];
        for req in reqs {
            let back: Request = decode(&encode(&req)).unwrap();
            assert_eq!(back, req);
        }
        let replies = vec![
            Reply::Welcome {
                proto: 1,
                shards: 4,
                scheduler: "fifo".into(),
                policy: "block".into(),
                codec: WireCodec::Binary,
                window: 8,
            },
            Reply::Ack {
                seq: 3,
                delta: IngestStats { offered: 2, ..Default::default() },
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
        for reply in replies {
            let back: Reply = decode(&encode(&reply)).unwrap();
            assert_eq!(back, reply);
        }
    }

    #[test]
    fn codec_and_window_default_when_absent_for_old_peers() {
        let req: Request = decode(b"{\"type\":\"hello\",\"proto\":1,\"client\":\"old\"}").unwrap();
        assert_eq!(req, Request::hello("old"));
        // An old client's one-job `submit` is a one-job batch.
        let req: Request =
            decode(br#"{"type":"submit","job":{"graph":{"n":2,"edges":[[0,1]]},"release":3}}"#)
                .unwrap();
        let job = JobSpec { graph: flowtree_dag::builder::chain(2), release: 3 };
        assert_eq!(req, Request::SubmitBatch { jobs: vec![job] });
        let reply: Reply = decode(
            b"{\"type\":\"ack\",\"seq\":7,\"delta\":{\"offered\":1,\"delivered\":1,\
              \"dropped\":0,\"redirected\":0,\"reordered\":0,\"stolen_in\":0,\
              \"stolen_out\":0,\"wm_skipped\":0}}",
        )
        .unwrap();
        assert!(matches!(reply, Reply::Ack { frames: 1, .. }));
        let busy: Reply = decode(b"{\"type\":\"busy\",\"retry_after_ms\":9}").unwrap();
        assert_eq!(busy, Reply::Busy { retry_after_ms: 9, frames: 1 });
    }

    fn sample_jobs() -> Vec<JobSpec> {
        let mut rng = flowtree_workloads::rng(5);
        (0..4)
            .map(|i| JobSpec {
                graph: flowtree_workloads::trees::random_recursive_tree(1 + 3 * i, &mut rng),
                release: 7 * i as u64,
            })
            .collect()
    }

    #[test]
    fn json_encode_into_matches_encode() {
        let jobs = sample_jobs();
        let mut buf = Vec::new();
        let reqs = vec![
            Request::SubmitBatch { jobs: jobs.clone() },
            Request::SubmitBatch { jobs: Vec::new() },
            Request::Watermark { t: 0 },
            Request::Watermark { t: u64::MAX },
        ];
        for req in &reqs {
            encode_request_into(req, WireCodec::Json, &mut buf);
            assert_eq!(buf, encode(req), "JSON diverged for {req:?}");
        }
        for batch in [&jobs[..], &jobs[..1], &[]] {
            encode_submit_batch_into(batch, WireCodec::Json, &mut buf);
            let req = Request::SubmitBatch { jobs: batch.to_vec() };
            assert_eq!(buf, encode(&req), "JSON diverged for {req:?}");
        }
        let replies = vec![
            Reply::Ack {
                seq: 12,
                delta: IngestStats {
                    offered: 32,
                    delivered: 30,
                    dropped: 1,
                    redirected: 2,
                    reordered: 3,
                    stolen_in: 4,
                    stolen_out: 4,
                    wm_skipped: 5,
                },
                frames: 9,
            },
            Reply::Ack { seq: 0, delta: IngestStats::default(), frames: 1 },
            Reply::Busy { retry_after_ms: 50, frames: 3 },
        ];
        for reply in &replies {
            encode_reply_into(reply, WireCodec::Json, &mut buf);
            assert_eq!(buf, encode(reply), "JSON diverged for {reply:?}");
        }
    }

    #[test]
    fn binary_codec_roundtrips_and_stages_into_a_reused_vec() {
        let jobs = sample_jobs();
        let mut buf = Vec::new();
        encode_submit_batch_into(&jobs, WireCodec::Binary, &mut buf);
        assert_eq!(buf[0], BINARY_MARKER);
        assert_eq!(decode_request(&buf), Ok(Request::SubmitBatch { jobs }));

        encode_request_into(&Request::Watermark { t: 99 }, WireCodec::Binary, &mut buf);
        assert_eq!(decode_request(&buf).unwrap(), Request::Watermark { t: 99 });

        let replies = vec![
            Reply::Ack {
                seq: 5,
                delta: IngestStats { offered: 8, delivered: 8, ..Default::default() },
                frames: 2,
            },
            Reply::Busy { retry_after_ms: 17, frames: 6 },
        ];
        for reply in &replies {
            encode_reply_into(reply, WireCodec::Binary, &mut buf);
            assert_eq!(buf[0], BINARY_MARKER);
            assert_eq!(&decode_reply(&buf).unwrap(), reply);
        }
    }

    /// The exact bytes of a one-job binary submit batch, as DESIGN.md §10
    /// documents them: marker, opcode, `u32` job count, then per job `u64`
    /// release, `u32` node count, `u32` edge count and `(u32, u32)` edge
    /// pairs, all little-endian.
    #[test]
    fn binary_submit_batch_layout_is_pinned() {
        let job = JobSpec { graph: flowtree_dag::builder::chain(2), release: 7 };
        let mut buf = Vec::new();
        encode_submit_batch_into(std::slice::from_ref(&job), WireCodec::Binary, &mut buf);
        #[rustfmt::skip]
        let expected: &[u8] = &[
            0x00, 0x01,             // marker, submit-batch opcode
            1, 0, 0, 0,             // job count
            7, 0, 0, 0, 0, 0, 0, 0, // release
            2, 0, 0, 0,             // node count
            1, 0, 0, 0,             // edge count
            0, 0, 0, 0, 1, 0, 0, 0, // edge (0, 1)
        ];
        assert_eq!(buf, expected);
        assert_eq!(decode_request(expected), Ok(Request::SubmitBatch { jobs: vec![job] }));
    }

    #[test]
    fn binary_ack_and_busy_layouts_are_pinned() {
        let delta = IngestStats {
            offered: 1,
            delivered: 2,
            dropped: 3,
            redirected: 4,
            reordered: 5,
            stolen_in: 6,
            stolen_out: 7,
            wm_skipped: 8,
        };
        let ack = Reply::Ack { seq: 9, delta, frames: 3 };
        let mut buf = Vec::new();
        encode_reply_into(&ack, WireCodec::Binary, &mut buf);
        #[rustfmt::skip]
        let expected: &[u8] = &[
            0x00, 0x02,             // marker, ack opcode
            9, 0, 0, 0, 0, 0, 0, 0, // seq
            3, 0, 0, 0, 0, 0, 0, 0, // frames
            1, 0, 0, 0, 0, 0, 0, 0, // delta.offered
            2, 0, 0, 0, 0, 0, 0, 0, // delta.delivered
            3, 0, 0, 0, 0, 0, 0, 0, // delta.dropped
            4, 0, 0, 0, 0, 0, 0, 0, // delta.redirected
            5, 0, 0, 0, 0, 0, 0, 0, // delta.reordered
            6, 0, 0, 0, 0, 0, 0, 0, // delta.stolen_in
            7, 0, 0, 0, 0, 0, 0, 0, // delta.stolen_out
            8, 0, 0, 0, 0, 0, 0, 0, // delta.wm_skipped
        ];
        assert_eq!(buf, expected);
        assert_eq!(decode_reply(expected), Ok(ack));

        let busy = Reply::Busy { retry_after_ms: 50, frames: 4 };
        encode_reply_into(&busy, WireCodec::Binary, &mut buf);
        #[rustfmt::skip]
        let expected: &[u8] = &[
            0x00, 0x04,              // marker, busy opcode
            50, 0, 0, 0, 0, 0, 0, 0, // retry_after_ms
            4, 0, 0, 0, 0, 0, 0, 0,  // frames
        ];
        assert_eq!(buf, expected);
        assert_eq!(decode_reply(expected), Ok(busy));
    }

    #[test]
    fn hostile_binary_payloads_error_without_panicking() {
        // Truncations at every length of a valid batch.
        let jobs = sample_jobs();
        let mut buf = Vec::new();
        encode_submit_batch_into(&jobs, WireCodec::Binary, &mut buf);
        for cut in 1..buf.len() {
            assert!(decode_request(&buf[..cut]).is_err(), "cut={cut} must not parse");
        }
        // Absurd counts refuse before reserving memory.
        let mut lie = vec![BINARY_MARKER, OP_SUBMIT_BATCH];
        lie.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_request(&lie).unwrap_err().contains("count"));
        // A cycle smuggled into the edge list is refused by the rebuild.
        let mut cyclic = vec![BINARY_MARKER, OP_SUBMIT_BATCH];
        cyclic.extend_from_slice(&1u32.to_le_bytes());
        cyclic.extend_from_slice(&0u64.to_le_bytes());
        cyclic.extend_from_slice(&2u32.to_le_bytes());
        cyclic.extend_from_slice(&2u32.to_le_bytes());
        for (u, v) in [(0u32, 1u32), (1, 0)] {
            cyclic.extend_from_slice(&u.to_le_bytes());
            cyclic.extend_from_slice(&v.to_le_bytes());
        }
        assert!(decode_request(&cyclic).is_err());
        // Unknown opcodes and trailing garbage are typed errors.
        assert!(decode_request(&[BINARY_MARKER, 0xEE]).unwrap_err().contains("opcode"));
        let mut trailing = Vec::new();
        encode_request_into(&Request::Watermark { t: 3 }, WireCodec::Binary, &mut trailing);
        trailing.push(0xAB);
        assert!(decode_request(&trailing).unwrap_err().contains("trailing"));
    }

    #[test]
    fn unknown_tags_and_bad_payloads_decode_to_errors() {
        assert!(decode::<Request>(b"{\"type\":\"frobnicate\"}")
            .unwrap_err()
            .contains("unknown request type"));
        assert!(decode::<Request>(b"not json at all").is_err());
        assert!(decode::<Request>(&[0xFF, 0xFE]).unwrap_err().contains("UTF-8"));
        assert!(decode::<Request>(b"{\"type\":\"watermark\"}")
            .unwrap_err()
            .contains("missing field"));
    }
}
