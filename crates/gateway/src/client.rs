//! A blocking client for the gateway wire protocol.
//!
//! [`GatewayClient`] keeps one TCP connection, dialed lazily: the first
//! call (and the first call after a connection dies) connects and performs
//! the `Hello`/`Welcome` handshake — which also negotiates the hot-message
//! codec and the ack window ([`ClientOptions`]). An I/O failure marks the
//! connection dead; the *next* call dials fresh, so a replay driver
//! survives a gateway restart mid-stream by just retrying the unsettled
//! batches — reconnect-and-resume, counted in
//! [`GatewayClient::reconnects`].
//!
//! [`submit_all`](GatewayClient::submit_all) is the streaming hot path:
//! with a negotiated window `w` it keeps up to `w` submit frames in
//! flight, encoding each batch into one reused buffer, and settles the
//! gateway's cumulative `ack{frames}` / `busy{frames}` replies as they
//! arrive. With `w = 1` (the default, and what old gateways grant) it
//! degrades to the classic stop-and-wait exchange.

use crate::wire::{
    decode_reply, encode_request_into, encode_submit_batch_into, read_frame_patient_into,
    write_frame, FrameError, Reply, Request, WireCodec, MAX_FRAME, PROTOCOL_VERSION,
};
use flowtree_dag::Time;
use flowtree_serve::IngestStats;
use flowtree_sim::JobSpec;
use std::collections::VecDeque;
use std::net::TcpStream;
use std::time::Duration;

/// How many times one replay may fail on I/O (each retry on a fresh
/// connection) before [`GatewayClient::submit_all`] gives up.
const MAX_IO_RETRIES: u64 = 3;

/// Connection preferences, requested in the hello and granted (possibly
/// clamped) by the gateway's welcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientOptions {
    /// Hot-message codec to request.
    pub codec: WireCodec,
    /// Ack window to request: submit frames in flight before the client
    /// must collect a reply. `1` is stop-and-wait.
    pub window: u64,
}

/// Binary hot messages, stop-and-wait: a client that does not choose a
/// codec sends its submits in the cheap one (every gateway accepts both).
impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions { codec: WireCodec::Binary, window: 1 }
    }
}

/// What a connection speaks until the welcome grants more: what every
/// gateway speaks (JSON, stop-and-wait).
const PRE_WELCOME: ClientOptions = ClientOptions { codec: WireCodec::Json, window: 1 };

/// A client-side failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Socket-level failure; the connection has been marked dead and the
    /// next call will redial.
    Io(String),
    /// Byte-stream framing failure from the gateway.
    Frame(FrameError),
    /// The gateway answered [`Reply::Reject`].
    Rejected(String),
    /// The gateway closed the connection instead of replying.
    Closed,
    /// The gateway sent a reply the request does not expect.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "gateway i/o: {e}"),
            ClientError::Frame(e) => write!(f, "gateway framing: {e}"),
            ClientError::Rejected(r) => write!(f, "gateway rejected the request: {r}"),
            ClientError::Closed => write!(f, "gateway closed the connection"),
            ClientError::Protocol(m) => write!(f, "protocol confusion: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// What the gateway said to a submit.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitOutcome {
    /// The batch was offered; `delta` is its exact ledger contribution.
    Accepted {
        /// The gateway's per-connection acknowledgement counter.
        seq: u64,
        /// Ledger delta for this batch alone.
        delta: IngestStats,
    },
    /// The pool had no room; nothing was offered. Retry after the hint.
    Busy {
        /// Gateway-suggested back-off.
        retry_after_ms: u64,
    },
}

/// Aggregate outcome of a [`GatewayClient::submit_all`] replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientRunStats {
    /// Jobs accepted by the gateway.
    pub submitted: u64,
    /// Accepted submit frames (batches).
    pub batches: u64,
    /// Busy replies absorbed (each one slept and retried its frames).
    pub busy_retries: u64,
    /// Fresh connections dialed after the first.
    pub reconnects: u64,
}

/// A pool snapshot as seen over the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteSnapshot {
    /// The pool's one-line heartbeat.
    pub line: String,
    /// Ledger: arrivals offered.
    pub offered: u64,
    /// Ledger: arrivals delivered.
    pub delivered: u64,
    /// Ledger: arrivals shed.
    pub dropped: u64,
    /// Ledger: arrivals staged router-side.
    pub staged: u64,
    /// Whether the ledger balanced at snapshot time.
    pub balanced: bool,
}

/// A blocking gateway connection with lazy dial and redial.
#[derive(Debug)]
pub struct GatewayClient {
    addr: String,
    name: String,
    opts: ClientOptions,
    /// What the gateway granted on the *current* connection (reset to the
    /// JSON, stop-and-wait on every redial until the welcome arrives).
    granted: ClientOptions,
    conn: Option<TcpStream>,
    dials: u64,
    /// Reused frame-encode and frame-read buffers (no allocation per
    /// frame on the hot path).
    sbuf: Vec<u8>,
    rbuf: Vec<u8>,
}

impl GatewayClient {
    /// Connect to `addr` (host:port), performing the hello handshake
    /// eagerly so a bad address or version mismatch fails here.
    pub fn connect(addr: &str) -> Result<Self, ClientError> {
        Self::with_name(addr, "flowtree-client")
    }

    /// [`connect`](Self::connect) with an explicit client name (shows up
    /// in the gateway's flight-recorder drain event).
    pub fn with_name(addr: &str, name: &str) -> Result<Self, ClientError> {
        Self::connect_with(addr, name, ClientOptions::default())
    }

    /// [`with_name`](Self::with_name) plus codec/window negotiation. The
    /// gateway may clamp the request; [`granted`](Self::granted) tells
    /// what this connection actually speaks.
    pub fn connect_with(addr: &str, name: &str, opts: ClientOptions) -> Result<Self, ClientError> {
        let mut c = GatewayClient {
            addr: addr.to_string(),
            name: name.to_string(),
            opts,
            granted: PRE_WELCOME,
            conn: None,
            dials: 0,
            sbuf: Vec::new(),
            rbuf: Vec::new(),
        };
        c.ensure_connected()?;
        Ok(c)
    }

    /// What the current connection negotiated (JSON, stop-and-wait until a
    /// welcome has granted more).
    pub fn granted(&self) -> ClientOptions {
        self.granted
    }

    /// Fresh connections dialed after the first (0 = never reconnected).
    pub fn reconnects(&self) -> u64 {
        self.dials.saturating_sub(1)
    }

    /// Drop the current connection (if any). The next call redials.
    pub fn disconnect(&mut self) {
        self.conn = None;
    }

    fn ensure_connected(&mut self) -> Result<(), ClientError> {
        if self.conn.is_some() {
            return Ok(());
        }
        let stream = TcpStream::connect(&self.addr)
            .map_err(|e| ClientError::Io(format!("connect {}: {e}", self.addr)))?;
        let _ = stream.set_nodelay(true);
        self.dials += 1;
        self.conn = Some(stream);
        // Until the welcome says otherwise, speak the lowest common
        // denominator (JSON, stop-and-wait).
        self.granted = PRE_WELCOME;
        let hello = Request::Hello {
            proto: PROTOCOL_VERSION,
            client: self.name.clone(),
            codec: self.opts.codec,
            window: self.opts.window,
        };
        match self.roundtrip(&hello) {
            Ok(Reply::Welcome { codec, window, .. }) => {
                self.granted = ClientOptions { codec, window: window.max(1) };
                Ok(())
            }
            Ok(Reply::Reject { reason }) => {
                self.conn = None;
                Err(ClientError::Rejected(reason))
            }
            Ok(other) => {
                self.conn = None;
                Err(ClientError::Protocol(format!("expected welcome, got {other:?}")))
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }

    /// Write one already-encoded frame from the send buffer.
    fn send_frame(&mut self) -> Result<(), ClientError> {
        let stream = self.conn.as_ref().expect("send needs a connection");
        write_frame(&mut &*stream, &self.sbuf).map_err(|e| ClientError::Io(e.to_string()))
    }

    /// Read and decode one reply frame into the reused read buffer.
    fn recv_reply(&mut self) -> Result<Reply, ClientError> {
        let stream = self.conn.as_ref().expect("recv needs a connection");
        match read_frame_patient_into(&mut &*stream, MAX_FRAME, &mut self.rbuf, &mut || true) {
            Ok(true) => decode_reply(&self.rbuf).map_err(ClientError::Protocol),
            Ok(false) => Err(ClientError::Closed),
            Err(e) => Err(ClientError::Frame(e)),
        }
    }

    /// One request/reply exchange on the live connection. Any failure
    /// marks the connection dead so the next call redials.
    fn roundtrip(&mut self, req: &Request) -> Result<Reply, ClientError> {
        encode_request_into(req, self.granted.codec, &mut self.sbuf);
        let outcome = self.send_frame().and_then(|()| self.recv_reply());
        if outcome.is_err() {
            self.conn = None;
        }
        outcome
    }

    /// Connect if needed, then exchange one request/reply.
    fn call(&mut self, req: &Request) -> Result<Reply, ClientError> {
        self.ensure_connected()?;
        self.roundtrip(req)
    }

    fn call_expect_ack(&mut self, req: &Request) -> Result<IngestStats, ClientError> {
        match self.call(req)? {
            Reply::Ack { delta, .. } => Ok(delta),
            Reply::Reject { reason } => Err(ClientError::Rejected(reason)),
            other => Err(ClientError::Protocol(format!("expected ack, got {other:?}"))),
        }
    }

    /// Offer a batch (all-or-nothing: `Busy` means none were offered).
    pub fn submit_batch(&mut self, jobs: Vec<JobSpec>) -> Result<SubmitOutcome, ClientError> {
        match self.call(&Request::SubmitBatch { jobs })? {
            Reply::Ack { seq, delta, .. } => Ok(SubmitOutcome::Accepted { seq, delta }),
            Reply::Busy { retry_after_ms, .. } => Ok(SubmitOutcome::Busy { retry_after_ms }),
            Reply::Reject { reason } => Err(ClientError::Rejected(reason)),
            other => Err(ClientError::Protocol(format!("expected ack/busy, got {other:?}"))),
        }
    }

    /// Drive a whole job list through the gateway in batches of `batch`,
    /// keeping up to the granted window of frames in flight, sleeping
    /// through `Busy` replies (which cover the oldest in-flight frames —
    /// those are re-queued in order) and redialing through connection
    /// failures. A redial re-sends every unsettled frame on the fresh
    /// connection — the gateway never saw it, or saw it and the ledger
    /// keeps it; either way the pool's books stay balanced.
    pub fn submit_all(
        &mut self,
        jobs: &[JobSpec],
        batch: usize,
    ) -> Result<ClientRunStats, ClientError> {
        let batch = batch.max(1);
        let mut stats = ClientRunStats::default();
        let chunks: Vec<&[JobSpec]> = jobs.chunks(batch).collect();
        let mut to_send: VecDeque<usize> = (0..chunks.len()).collect();
        let mut in_flight: VecDeque<usize> = VecDeque::new();
        let mut io_failures = 0u64;
        while !to_send.is_empty() || !in_flight.is_empty() {
            // A dead connection re-queues every unsettled frame, in order.
            if self.conn.is_none() {
                while let Some(idx) = in_flight.pop_back() {
                    to_send.push_front(idx);
                }
            }
            let outcome = (|| -> Result<(), ClientError> {
                self.ensure_connected()?;
                let window = self.granted.window.max(1) as usize;
                while !to_send.is_empty() || !in_flight.is_empty() {
                    while in_flight.len() < window {
                        let Some(idx) = to_send.pop_front() else {
                            break;
                        };
                        encode_submit_batch_into(chunks[idx], self.granted.codec, &mut self.sbuf);
                        self.send_frame()?;
                        in_flight.push_back(idx);
                    }
                    match self.recv_reply()? {
                        Reply::Ack { frames, .. } => {
                            let settled = (frames.max(1) as usize).min(in_flight.len());
                            for _ in 0..settled {
                                let idx = in_flight.pop_front().expect("counted");
                                stats.submitted += chunks[idx].len() as u64;
                                stats.batches += 1;
                            }
                        }
                        Reply::Busy { retry_after_ms, frames } => {
                            stats.busy_retries += 1;
                            // The refused frames are the oldest in flight;
                            // they re-queue *ahead* of anything unsent so
                            // the job stream stays in order.
                            let refused = (frames.max(1) as usize).min(in_flight.len());
                            for i in (0..refused).rev() {
                                let idx =
                                    in_flight.remove(i).expect("refused frames are in flight");
                                to_send.push_front(idx);
                            }
                            std::thread::sleep(Duration::from_millis(
                                retry_after_ms.clamp(1, 1000),
                            ));
                        }
                        Reply::Reject { reason } => return Err(ClientError::Rejected(reason)),
                        other => {
                            return Err(ClientError::Protocol(format!(
                                "expected ack/busy, got {other:?}"
                            )))
                        }
                    }
                }
                Ok(())
            })();
            match outcome {
                Ok(()) => break,
                Err(e @ (ClientError::Io(_) | ClientError::Closed | ClientError::Frame(_)))
                    if io_failures < MAX_IO_RETRIES =>
                {
                    let _ = e;
                    io_failures += 1;
                    self.conn = None;
                }
                Err(e) => return Err(e),
            }
        }
        stats.reconnects = self.reconnects();
        Ok(stats)
    }

    /// Advance the pool's event-time frontier.
    pub fn watermark(&mut self, t: Time) -> Result<IngestStats, ClientError> {
        self.call_expect_ack(&Request::Watermark { t })
    }

    /// Hot-swap the scheduler on `shard` (`None` = every shard) at event
    /// time `at`.
    pub fn swap(&mut self, shard: Option<usize>, at: Time, spec: &str) -> Result<(), ClientError> {
        let shard = shard.map(|s| s as i64).unwrap_or(-1);
        self.call_expect_ack(&Request::Swap { shard, at, spec: spec.to_string() })
            .map(|_| ())
    }

    /// A point-in-time pool snapshot over the wire.
    pub fn snapshot(&mut self) -> Result<RemoteSnapshot, ClientError> {
        match self.call(&Request::Snapshot)? {
            Reply::State { line, offered, delivered, dropped, staged, balanced } => {
                Ok(RemoteSnapshot { line, offered, delivered, dropped, staged, balanced })
            }
            Reply::Reject { reason } => Err(ClientError::Rejected(reason)),
            other => Err(ClientError::Protocol(format!("expected state, got {other:?}"))),
        }
    }

    /// The gateway's Prometheus text exposition (pool + gateway series).
    pub fn metrics_text(&mut self) -> Result<String, ClientError> {
        match self.call(&Request::Metrics)? {
            Reply::MetricsText { text } => Ok(text),
            Reply::Reject { reason } => Err(ClientError::Rejected(reason)),
            other => Err(ClientError::Protocol(format!("expected metrics, got {other:?}"))),
        }
    }

    /// Ask the gateway to drain its pool, then hang up.
    pub fn drain(&mut self) -> Result<(), ClientError> {
        let out = self.call_expect_ack(&Request::Drain).map(|_| ());
        self.disconnect();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Gateway, GatewayConfig};
    use flowtree_core::SchedulerSpec;
    use flowtree_serve::{ServeConfig, ShardPool};

    #[test]
    fn default_client_negotiates_binary_stop_and_wait() {
        let spec = SchedulerSpec::from_name_with_half("fifo", 1).expect("registry name");
        let pool = ShardPool::launch(ServeConfig::builder(spec, 2).build().expect("config"))
            .expect("launch");
        let gw = Gateway::launch("127.0.0.1:0", pool.handle(), GatewayConfig::default())
            .expect("gateway up");
        let client = GatewayClient::connect(&gw.addr().to_string()).expect("connect");
        assert_eq!(client.granted(), ClientOptions { codec: WireCodec::Binary, window: 1 });
        drop(client);
        gw.shutdown();
        pool.drain().expect("drain");
    }
}
