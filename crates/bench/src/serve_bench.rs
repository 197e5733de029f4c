//! The serve-path throughput matrix (`BENCH_serve.json`).
//!
//! Every cell replays the same fixed-seed bursty arrival stream through a
//! real [`ShardPool`] — ingest through drain under the clock, launch
//! outside it — and reports
//! **arrivals/sec** (offered jobs over wall time, the ingest-path headline)
//! plus **subjobs/sec** (dispatched work over wall time, the number the
//! regression gate compares, consistent with the engine matrix). The sweep
//! covers shard counts × routing × overload policy × stealing, plus one
//! `per-event` cell that drives [`PoolHandle::offer`] one arrival at a time:
//! each offer is a one-job batch through the same router as the batched
//! [`run_source`](flowtree_serve::ShardPool::run_source) default, so the
//! cell tracks the fixed cost of one router call per job.

use crate::cells::{run_cells, Cell, Run, Stream};
use crate::BenchOpts;
use flowtree_core::SchedulerSpec;
use flowtree_serve::{
    scrape_metrics, serve_metrics, ArrivalSource, OverloadPolicy, ReplaySource, Routing,
    ServeConfig, ShardPool, StealConfig,
};
use flowtree_sim::Instance;
use serde::Value;
use std::time::Instant;

/// The acceptance-measurement stream: 3072 small jobs arriving 8 per tick.
const SERVE_REPLAY: Stream = Stream::bursty("serve-replay", 3072);

/// The `--quick` stream, also part of the full matrix under the same name
/// so the committed baseline contains cells CI can `--check` against.
const SERVE_MINI: Stream = Stream::bursty("serve-mini", 768);

/// One pool shape to measure the stream through.
pub(crate) struct ServeCell {
    stream: &'static Stream,
    scheduler: &'static str,
    shards: usize,
    routing: Routing,
    policy: OverloadPolicy,
    /// Steal mode runs with a small queue so staging actually happens.
    steal: bool,
    /// Drive `offer()` per arrival instead of the batched source pump.
    per_event: bool,
    /// Serve the metrics endpoint for the whole timed region and take a
    /// real mid-run TCP scrape (the registry itself is always on; this
    /// measures the *exposition* overhead the ≤5% gate pins).
    telemetry: bool,
}

impl ServeCell {
    const fn new(stream: &'static Stream, shards: usize) -> Self {
        ServeCell {
            stream,
            scheduler: "fifo",
            shards,
            routing: Routing::Hash,
            policy: OverloadPolicy::Block,
            steal: false,
            per_event: false,
            telemetry: false,
        }
    }

    /// The cell's identity string: pool shape baked into the workload name
    /// so the shared `(workload, scheduler, m, total_subjobs)` cell key
    /// distinguishes serve configurations.
    fn name(&self) -> String {
        let mut name = format!(
            "{}+s{}+{}+{}",
            self.stream.name,
            self.shards,
            self.routing.name(),
            self.policy.name()
        );
        if self.steal {
            name.push_str("+steal");
        }
        if self.per_event {
            name.push_str("+per-event");
        }
        if self.telemetry {
            name.push_str("+telemetry");
        }
        name
    }
}

/// Processors per shard in every serve cell.
const SERVE_M: usize = 8;

/// The matrix's cells. The full sweep: shards × routing on the headline
/// stream, plus overload policies, stealing, a second scheduler, the
/// per-event ingest mode, the telemetry twin and the mini cells CI
/// compares.
///
/// The `--quick` subset (CI smoke): mini stream on 1 and 4 shards, plus
/// the telemetry overhead-gate twins. The twins ride the bigger replay
/// stream even in `--quick`: on a millisecond-scale mini run a single
/// scrape render is a double-digit fraction of the whole run, so a mini
/// gate would measure clock granularity, not exposition overhead. Every
/// quick cell also appears in the full matrix, so the committed baseline
/// always has the cells CI `--check`s against.
pub(crate) fn cells(quick: bool) -> Vec<ServeCell> {
    if quick {
        return vec![
            ServeCell::new(&SERVE_MINI, 1),
            ServeCell::new(&SERVE_MINI, 4),
            ServeCell::new(&SERVE_REPLAY, 4),
            ServeCell { telemetry: true, ..ServeCell::new(&SERVE_REPLAY, 4) },
        ];
    }
    let mut cells = Vec::new();
    for shards in [1usize, 2, 4] {
        for routing in [Routing::Hash, Routing::LeastLoaded] {
            cells.push(ServeCell { routing, ..ServeCell::new(&SERVE_REPLAY, shards) });
        }
    }
    for policy in [OverloadPolicy::DropNewest, OverloadPolicy::Redirect] {
        cells.push(ServeCell { policy, ..ServeCell::new(&SERVE_REPLAY, 2) });
    }
    cells.push(ServeCell { steal: true, ..ServeCell::new(&SERVE_REPLAY, 4) });
    cells.push(ServeCell { scheduler: "lpf", ..ServeCell::new(&SERVE_REPLAY, 4) });
    cells.push(ServeCell { per_event: true, ..ServeCell::new(&SERVE_REPLAY, 4) });
    cells.push(ServeCell { telemetry: true, ..ServeCell::new(&SERVE_REPLAY, 4) });
    cells.push(ServeCell::new(&SERVE_MINI, 1));
    cells.push(ServeCell::new(&SERVE_MINI, 4));
    cells
}

fn cell_config(cell: &ServeCell) -> Result<ServeConfig, String> {
    let spec = SchedulerSpec::from_name_with_half(cell.scheduler, 8)?;
    let mut builder = ServeConfig::builder(spec, SERVE_M)
        .shards(cell.shards)
        .scenario("bench")
        .queue_cap(if cell.steal { 8 } else { 1024 })
        .policy(cell.policy)
        .routing(cell.routing)
        .max_horizon(1_000_000_000);
    if cell.steal {
        builder = builder.steal(StealConfig::default());
    }
    builder.build().map_err(|e| e.to_string())
}

impl Cell for ServeCell {
    const ARRIVALS: Option<&'static str> = Some("arrivals");

    fn stream(&self) -> &'static Stream {
        self.stream
    }

    fn key(&self) -> (String, &'static str, usize) {
        (self.name(), self.scheduler, SERVE_M)
    }

    fn lossy(&self) -> bool {
        self.policy == OverloadPolicy::DropNewest
    }

    /// One end-to-end run: launch, ingest the whole replay, drain.
    ///
    /// The timed region covers ingest through drain; pool launch and, for
    /// telemetry cells, endpoint startup stay outside the clock so the ≤5%
    /// telemetry gate pins steady-state exposition cost, not one-time socket
    /// and thread setup (which would swamp a millisecond run). Telemetry
    /// cells keep the endpoint live for the whole timed region and take one
    /// real TCP scrape *mid-run* — after ingest, while the shards are still
    /// working through their queues — from the bench thread. Deliberately no
    /// scraper thread: the listener parks in `accept` and the bench thread blocks
    /// in `scrape_metrics`, so nothing wakes on a timer; on a single-core
    /// host a 1 ms sleep-scrape loop measures hrtimer preemption of the
    /// pool's threads (~12% here), not the exposition path.
    fn run<'a>(&self, inst: &'a Instance) -> Result<Run<'a>, String> {
        let cfg = cell_config(self)?;
        let mut src = ReplaySource::from_instance(inst);
        let pool = ShardPool::launch(cfg).map_err(|e| e.to_string())?;
        let endpoint = if self.telemetry {
            let server = serve_metrics("127.0.0.1:0", pool.handle()).map_err(|e| e.to_string())?;
            let addr = server.addr().to_string();
            // Barrier scrape: proves the listener thread is scheduled and
            // serving before the clock starts.
            scrape_metrics(&addr).map_err(|e| format!("{}: barrier scrape: {e}", self.name()))?;
            Some((server, addr))
        } else {
            None
        };
        let handle = pool.handle();
        let start = Instant::now();
        if self.per_event {
            while let Some(spec) = src.next_arrival() {
                handle.offer(spec).map_err(|e| e.to_string())?;
            }
        } else {
            handle.run_source(&mut src).map_err(|e| e.to_string())?;
        }
        if let Some((_, addr)) = &endpoint {
            // The mid-run scrape: ingest is done but the pool has not been
            // asked to drain — shards are still simulating queued work.
            let body = scrape_metrics(addr)
                .map_err(|e| format!("{}: mid-run scrape: {e}", self.name()))?;
            if !body.contains("flowtree_ingest_offered_total") {
                return Err(format!("{}: mid-run scrape returned no metrics", self.name()));
            }
            std::hint::black_box(&body);
        }
        let results = pool.drain().map_err(|e| e.to_string())?;
        let secs = start.elapsed().as_secs_f64();
        drop(endpoint);
        Ok(Run::of_shards(vec![secs], results))
    }

    fn fields(&self) -> Vec<(&'static str, Value)> {
        vec![
            ("shards", Value::UInt(self.shards as u64)),
            ("routing", Value::Str(self.routing.name().into())),
            ("policy", Value::Str(self.policy.name().into())),
            ("steal", Value::Bool(self.steal)),
            ("per_event", Value::Bool(self.per_event)),
            ("telemetry", Value::Bool(self.telemetry)),
        ]
    }
}

/// Run the whole serve matrix; returns the JSON document.
pub fn run_serve_matrix(o: &BenchOpts) -> Result<Value, String> {
    run_cells(&cells(o.quick), o)
}
