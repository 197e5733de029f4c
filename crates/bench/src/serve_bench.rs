//! The serve-path throughput matrix (`BENCH_serve.json`).
//!
//! Every cell replays the same fixed-seed bursty arrival stream through a
//! real [`ShardPool`] — ingest through drain under the clock, launch
//! outside it — and reports
//! **arrivals/sec** (offered jobs over wall time, the ingest-path headline)
//! plus **subjobs/sec** (dispatched work over wall time, the number the
//! regression gate compares, consistent with the engine matrix). The sweep
//! covers shard counts × routing × overload policy × stealing, plus one
//! `per-event` cell that drives [`PoolHandle::offer`] one arrival at a time
//! so the unbatched ingest path stays perf-tracked next to the batched
//! [`run_source`](flowtree_serve::ShardPool::run_source) default.
//!
//! Jobs are deliberately small (16-subjob trees in bursts of 8): in this
//! regime ingest overhead — channel ops, watermark fan-out, router locking —
//! dominates simulation, which is exactly what the serve-path optimizations
//! target.

use crate::{document, BenchOpts, SEED};
use flowtree_core::SchedulerSpec;
use flowtree_serve::{
    scrape_metrics, serve_metrics, ArrivalSource, OverloadPolicy, ReplaySource, Routing,
    ServeConfig, ShardPool, StealConfig,
};
use flowtree_sim::{Instance, JobSpec};
use serde::Value;
use std::time::Instant;

/// A named bursty replay stream.
struct ServeWorkload {
    name: &'static str,
    /// Number of jobs (arrivals) in the stream.
    jobs: usize,
    /// Subjobs per job (random recursive out-trees of this size).
    job_size: usize,
    /// Jobs sharing one release tick.
    burst: usize,
    /// Release spacing between consecutive ticks.
    spread: u64,
}

/// The acceptance-measurement stream: 3072 small jobs arriving 8 per tick.
const SERVE_REPLAY: ServeWorkload = ServeWorkload {
    name: "serve-replay",
    jobs: 3072,
    job_size: 16,
    burst: 8,
    spread: 2,
};

/// The `--quick` stream, also part of the full matrix under the same name
/// so the committed baseline contains cells CI can `--check` against.
const SERVE_MINI: ServeWorkload = ServeWorkload {
    name: "serve-mini",
    jobs: 768,
    job_size: 16,
    burst: 8,
    spread: 2,
};

/// One pool shape to measure the stream through.
struct ServeCell {
    workload: &'static ServeWorkload,
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
    const fn new(workload: &'static ServeWorkload, shards: usize) -> Self {
        ServeCell {
            workload,
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
            self.workload.name,
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

/// The full sweep: shards × routing on the headline stream, plus overload
/// policies, stealing, a second scheduler, the per-event ingest mode, and
/// the mini cells CI compares.
fn full_cells() -> Vec<ServeCell> {
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

/// The `--quick` subset (CI smoke): mini stream on 1 and 4 shards, plus
/// the telemetry overhead-gate twins. The twins ride the bigger replay
/// stream even in `--quick`: on a millisecond-scale mini run a single
/// scrape render is a double-digit fraction of the whole run, so a mini
/// gate would measure clock granularity, not exposition overhead. Every
/// quick cell also appears in the full matrix, so the committed baseline
/// always has the cells CI `--check`s against.
fn quick_cells() -> Vec<ServeCell> {
    vec![
        ServeCell::new(&SERVE_MINI, 1),
        ServeCell::new(&SERVE_MINI, 4),
        ServeCell::new(&SERVE_REPLAY, 4),
        ServeCell { telemetry: true, ..ServeCell::new(&SERVE_REPLAY, 4) },
    ]
}

/// The fixed-seed replay stream for `w`.
fn replay_instance(w: &ServeWorkload) -> Instance {
    let mut rng = flowtree_workloads::rng(SEED);
    let jobs = (0..w.jobs)
        .map(|i| JobSpec {
            graph: flowtree_workloads::trees::random_recursive_tree(w.job_size, &mut rng),
            release: (i / w.burst) as u64 * w.spread,
        })
        .collect();
    Instance::new(jobs)
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

/// One end-to-end run: launch, ingest the whole replay, drain. Returns
/// (wall seconds, subjobs dispatched). Untimed callers use the dispatch
/// count for accounting checks.
///
/// The timed region covers ingest through drain; pool launch and, for
/// telemetry cells, endpoint startup stay outside the clock so the ≤5%
/// telemetry gate pins steady-state exposition cost, not one-time socket
/// and thread setup (which would swamp a millisecond run). Telemetry
/// cells keep the endpoint live for the whole timed region and take one
/// real TCP scrape *mid-run* — after ingest, while the shards are still
/// working through their queues — from the driver thread. Deliberately no
/// scraper thread: the listener parks in `accept` and the driver blocks
/// in `scrape_metrics`, so nothing wakes on a timer; on a single-core
/// host a 1 ms sleep-scrape loop measures hrtimer preemption of the
/// pool's threads (~12% here), not the exposition path.
fn timed_serve(inst: &Instance, cell: &ServeCell) -> Result<(f64, u64), String> {
    let cfg = cell_config(cell)?;
    let mut src = ReplaySource::from_instance(inst);
    let pool = ShardPool::launch(cfg).map_err(|e| e.to_string())?;
    let endpoint = if cell.telemetry {
        let server = serve_metrics("127.0.0.1:0", pool.handle()).map_err(|e| e.to_string())?;
        let addr = server.addr().to_string();
        // Barrier scrape: proves the listener thread is scheduled and
        // serving before the clock starts.
        scrape_metrics(&addr).map_err(|e| format!("{}: barrier scrape: {e}", cell.name()))?;
        Some((server, addr))
    } else {
        None
    };
    let handle = pool.handle();
    let start = Instant::now();
    if cell.per_event {
        while let Some(spec) = src.next_arrival() {
            handle.offer(spec).map_err(|e| e.to_string())?;
        }
    } else {
        handle.run_source(&mut src).map_err(|e| e.to_string())?;
    }
    if let Some((_, addr)) = &endpoint {
        // The mid-run scrape: ingest is done but the pool has not been
        // asked to drain — shards are still simulating queued work.
        let body =
            scrape_metrics(addr).map_err(|e| format!("{}: mid-run scrape: {e}", cell.name()))?;
        if !body.contains("flowtree_ingest_offered_total") {
            return Err(format!("{}: mid-run scrape returned no metrics", cell.name()));
        }
        std::hint::black_box(&body);
    }
    let results = pool.drain().map_err(|e| e.to_string())?;
    let secs = start.elapsed().as_secs_f64();
    drop(endpoint);
    let dispatched: u64 = results.iter().map(|r| r.report.counters.dispatched).sum();
    std::hint::black_box(&results);
    Ok((secs, dispatched))
}

/// Run the whole serve matrix; returns the JSON document.
pub fn run_serve_matrix(o: &BenchOpts) -> Result<Value, String> {
    let cells = if o.quick { quick_cells() } else { full_cells() };
    let mut entries: Vec<Value> = Vec::new();

    for cell in &cells {
        let inst = replay_instance(cell.workload);
        let total_work = inst.total_work();
        let arrivals = cell.workload.jobs as u64;
        // Correctness outside the timed region: every shard's report is
        // verified inside `drain`, and no-loss policies must dispatch every
        // subjob of the replay.
        let (_, dispatched) = timed_serve(&inst, cell)?;
        if cell.policy != OverloadPolicy::DropNewest {
            assert_eq!(dispatched, total_work, "{}: serve run lost work", cell.name());
        }
        for _ in 0..o.warmup {
            timed_serve(&inst, cell)?;
        }
        let mut walls = Vec::with_capacity(o.reps);
        let mut dispatched = 0;
        for _ in 0..o.reps {
            let (secs, d) = timed_serve(&inst, cell)?;
            walls.push(secs);
            dispatched = d;
        }
        let best = walls.iter().copied().fold(f64::INFINITY, f64::min);
        let arrivals_per_sec = arrivals as f64 / best;
        let subjobs_per_sec = dispatched as f64 / best;
        let name = cell.name();
        println!(
            "{:<38} {:<6} m={:<3} {:>10.0} arrivals/s {:>12.0} subjobs/s  (best of {}: {:.3} ms)",
            name,
            cell.scheduler,
            SERVE_M,
            arrivals_per_sec,
            subjobs_per_sec,
            o.reps,
            best * 1e3
        );
        entries.push(Value::Object(vec![
            ("workload".into(), Value::Str(name)),
            ("scheduler".into(), Value::Str(cell.scheduler.into())),
            ("m".into(), Value::UInt(SERVE_M as u64)),
            ("total_subjobs".into(), Value::UInt(total_work)),
            ("shards".into(), Value::UInt(cell.shards as u64)),
            ("routing".into(), Value::Str(cell.routing.name().into())),
            ("policy".into(), Value::Str(cell.policy.name().into())),
            ("steal".into(), Value::Bool(cell.steal)),
            ("per_event".into(), Value::Bool(cell.per_event)),
            ("telemetry".into(), Value::Bool(cell.telemetry)),
            ("arrivals".into(), Value::UInt(arrivals)),
            ("repeats".into(), Value::UInt(o.reps as u64)),
            (
                "wall_secs".into(),
                Value::Array(walls.iter().map(|&s| Value::Float(s)).collect()),
            ),
            ("best_secs".into(), Value::Float(best)),
            ("arrivals_per_sec".into(), Value::Float(arrivals_per_sec)),
            ("subjobs_per_sec".into(), Value::Float(subjobs_per_sec)),
        ]));
    }

    Ok(document(o.quick, entries))
}
