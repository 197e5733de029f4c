//! The gateway wire-path throughput matrix (`BENCH_gateway.json`).
//!
//! Every cell replays the same fixed-seed bursty arrival stream through a
//! real [`Gateway`] over loopback TCP: a [`ShardPool`] is launched, a
//! gateway binds `127.0.0.1:0`, and `clients` concurrent [`GatewayClient`]s
//! each stream a contiguous slice of the jobs with `submit_all`. The sweep
//! covers client count × batch size × wire codec × ack window — the four
//! knobs of the ingest hot path — and reports
//!
//! * **submitted_jobs_per_sec** — offered jobs over the *submit phase* wall
//!   (connect/handshake outside the clock), the wire-path headline, and
//! * **subjobs_per_sec** — dispatched work over the ingest→drain wall, the
//!   number the shared 25% regression gate compares (consistent with the
//!   serve and engine matrices).
//!
//! The `json+w1` cell keeps the
//! legacy protocol shape (JSON codec, one ack round-trip per batch) next
//! to the pipelined binary cells so the committed baseline documents the
//! speedup and gates both paths.

use crate::cells::{run_cells, Cell, Run, Stream};
use crate::BenchOpts;
use flowtree_core::SchedulerSpec;
use flowtree_gateway::{ClientOptions, Gateway, GatewayClient, GatewayConfig, WireCodec};
use flowtree_serve::{OverloadPolicy, Routing, ServeConfig, ShardPool};
use flowtree_sim::{Instance, JobSpec};
use serde::Value;
use std::time::Instant;

/// The acceptance-measurement stream: the serve matrix's shape, so wire
/// and in-process numbers describe the same jobs.
const GATEWAY_REPLAY: Stream = Stream::bursty("gateway-replay", 3072);

/// The `--quick` stream, also part of the full matrix under the same name
/// so the committed baseline contains cells CI can `--check` against.
const GATEWAY_MINI: Stream = Stream::bursty("gateway-mini", 768);

/// One wire-path shape to measure the stream through.
pub(crate) struct GatewayCell {
    stream: &'static Stream,
    /// Concurrent clients, each replaying a contiguous slice of the jobs.
    clients: usize,
    /// Jobs per submit frame.
    batch: usize,
    /// Wire codec for the hot messages.
    codec: WireCodec,
    /// Ack window: submit frames in flight before the client must see an
    /// ack (1 = legacy stop-and-wait, one round-trip per frame).
    window: usize,
}

impl GatewayCell {
    const fn new(stream: &'static Stream) -> Self {
        GatewayCell {
            stream,
            clients: 4,
            batch: 32,
            codec: WireCodec::Json,
            window: 1,
        }
    }

    /// The cell's identity string: wire shape baked into the workload name
    /// so the shared `(workload, scheduler, m, total_subjobs)` cell key
    /// distinguishes gateway configurations.
    fn name(&self) -> String {
        format!(
            "{}+c{}+b{}+{}+w{}",
            self.stream.name,
            self.clients,
            self.batch,
            self.codec.name(),
            self.window
        )
    }
}

/// Processors per shard in every gateway cell (matches the serve matrix).
const GATEWAY_M: usize = 8;

/// Shards behind the gateway in every cell.
const GATEWAY_SHARDS: usize = 4;

/// The pipelined ack window used by the optimized cells.
const PIPE_WINDOW: usize = 32;

/// The matrix's cells. The full sweep: the headline codec×window square on
/// the 4-client stream, a client-count sweep and a batch sweep on the
/// optimized shape, plus the mini cells CI compares. The `--quick` subset
/// (CI smoke) is the two mini twins — legacy JSON stop-and-wait and
/// pipelined binary.
pub(crate) fn cells(quick: bool) -> Vec<GatewayCell> {
    let minis = [
        GatewayCell::new(&GATEWAY_MINI),
        GatewayCell {
            codec: WireCodec::Binary,
            window: PIPE_WINDOW,
            ..GatewayCell::new(&GATEWAY_MINI)
        },
    ];
    if quick {
        return minis.into();
    }
    let mut cells = Vec::new();
    // Codec × window on the headline 4-client replay: `json+w1` is the
    // legacy wire shape, `bin+w32` the optimized one.
    for codec in [WireCodec::Json, WireCodec::Binary] {
        for window in [1usize, PIPE_WINDOW] {
            cells.push(GatewayCell { codec, window, ..GatewayCell::new(&GATEWAY_REPLAY) });
        }
    }
    // Client fan-in at the optimized shape.
    for clients in [1usize, 2, 8] {
        cells.push(GatewayCell {
            clients,
            codec: WireCodec::Binary,
            window: PIPE_WINDOW,
            ..GatewayCell::new(&GATEWAY_REPLAY)
        });
    }
    // Batch-size sweep at the optimized shape.
    for batch in [1usize, 8] {
        cells.push(GatewayCell {
            batch,
            codec: WireCodec::Binary,
            window: PIPE_WINDOW,
            ..GatewayCell::new(&GATEWAY_REPLAY)
        });
    }
    cells.extend(minis);
    cells
}

fn pool_config() -> Result<ServeConfig, String> {
    let spec = SchedulerSpec::from_name_with_half("fifo", 8).map_err(|e| e.to_string())?;
    ServeConfig::builder(spec, GATEWAY_M)
        .shards(GATEWAY_SHARDS)
        .scenario("bench-gateway")
        .queue_cap(1024)
        .policy(OverloadPolicy::Block)
        .routing(Routing::Hash)
        .max_horizon(1_000_000_000)
        .build()
        .map_err(|e| e.to_string())
}

impl Cell for GatewayCell {
    const CLOCKS: &'static [&'static str] = &["submit_", ""];
    const ARRIVALS: Option<&'static str> = Some("submitted_jobs");

    fn stream(&self) -> &'static Stream {
        self.stream
    }

    fn key(&self) -> (String, &'static str, usize) {
        (self.name(), "fifo", GATEWAY_M)
    }

    /// One end-to-end run: launch pool + gateway, connect the clients (all
    /// outside the clock), stream every slice concurrently, then drain.
    /// Clocks: the submit phase, then ingest through drain.
    fn run<'a>(&self, inst: &'a Instance) -> Result<Run<'a>, String> {
        let pool = ShardPool::launch(pool_config()?).map_err(|e| e.to_string())?;
        let gw = Gateway::launch("127.0.0.1:0", pool.handle(), GatewayConfig::default())
            .map_err(|e| format!("{}: gateway: {e}", self.name()))?;
        let addr = gw.addr().to_string();

        // Contiguous slices: client c streams jobs [c*per, (c+1)*per) so the
        // union is exactly the replay and every job is offered once.
        let jobs = inst.jobs();
        let per = jobs.len().div_ceil(self.clients);
        let opts = ClientOptions { codec: self.codec, window: self.window as u64 };
        // Connect + handshake outside the clock, like pool launch in the serve
        // matrix: the cell measures the streaming path, not dial latency.
        let mut clients: Vec<(GatewayClient, &[JobSpec])> = Vec::with_capacity(self.clients);
        for (c, chunk) in jobs.chunks(per).enumerate() {
            let client = GatewayClient::connect_with(&addr, &format!("bench-{c}"), opts)
                .map_err(|e| format!("{}: connect: {e}", self.name()))?;
            clients.push((client, chunk));
        }

        let start = Instant::now();
        let outcomes = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .map(|(client, chunk)| {
                    let batch = self.batch;
                    s.spawn(move || client.submit_all(chunk, batch))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect::<Vec<_>>()
        });
        let submit_secs = start.elapsed().as_secs_f64();
        let mut submitted = 0u64;
        for outcome in outcomes {
            let stats = outcome.map_err(|e| format!("{}: submit: {e}", self.name()))?;
            submitted += stats.submitted;
        }
        if submitted != jobs.len() as u64 {
            return Err(format!("{}: submitted {submitted} of {} jobs", self.name(), jobs.len()));
        }
        gw.shutdown();
        let results = pool.drain().map_err(|e| e.to_string())?;
        let total_secs = start.elapsed().as_secs_f64();
        Ok(Run::of_shards(vec![submit_secs, total_secs], results))
    }

    fn fields(&self) -> Vec<(&'static str, Value)> {
        vec![
            ("shards", Value::UInt(GATEWAY_SHARDS as u64)),
            ("clients", Value::UInt(self.clients as u64)),
            ("batch", Value::UInt(self.batch as u64)),
            ("codec", Value::Str(self.codec.name().into())),
            ("window", Value::UInt(self.window as u64)),
        ]
    }
}

/// Run the whole gateway matrix; returns the JSON document.
pub fn run_gateway_matrix(o: &BenchOpts) -> Result<Value, String> {
    run_cells(&cells(o.quick), o)
}
