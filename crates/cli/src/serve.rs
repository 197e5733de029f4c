//! `flowtree-repro serve` — run the sharded online simulation service.
//!
//! Arrivals stream from a generator (scenario blend at `--rate` expected
//! jobs per step) or a replayed trace (`--replay FILE`), are routed across
//! `--shards` engine shards under a bounded-queue overload policy, and each
//! drained shard reports a certified `RunSummary`. The control plane is
//! exposed too: `--swap-at T:SPEC` hot-swaps every shard's scheduler at
//! event time `T`, and `--steal` turns on work stealing between shards
//! (full-queue arrivals stage router-side and migrate to idle shards).
//! With `--store DIR` the summaries append to the persistent results store
//! (conventionally `results/store/`) for `report --trend` to consume.
//!
//! ```text
//! flowtree-repro serve service --shards 2 --rate 0.5 --scheduler fifo -m 4
//! flowtree-repro serve analytics --shards 4 --policy redirect --store results/store
//! flowtree-repro serve replayed --replay trace.jsonl --scheduler lpf
//! flowtree-repro serve service --shards 2 --swap-at 40:lpf --steal --queue-cap 4
//! ```

use crate::scenario::{parse_num, preset, scenario_names, ScenarioOpts};
use flowtree_analysis::table::f3;
use flowtree_analysis::Table;
use flowtree_core::SchedulerSpec;
use flowtree_dag::Time;
use flowtree_serve::{
    git_describe, run_id, serve_metrics, write_flight_jsonl, ArrivalSource, GeneratorSource,
    MetricsSnapshot, OverloadPolicy, PoolHandle, PoolSnapshot, ReplaySource, ResultsStore, Routing,
    ServeConfig, ShardPool, ShardResult, ShardSnapshot, StealConfig, StoreRecord,
};

/// Subcommand-specific options on top of [`ScenarioOpts`]. Shared with the
/// `gateway` verb, which serves the same pool over a socket.
pub(crate) struct ServeOpts {
    pub(crate) shards: usize,
    pub(crate) rate: f64,
    pub(crate) queue_cap: usize,
    pub(crate) policy: String,
    pub(crate) routing: String,
    pub(crate) replay: Option<String>,
    pub(crate) stats_every: u64,
    pub(crate) store: Option<String>,
    pub(crate) run: Option<String>,
    pub(crate) horizon: u64,
    pub(crate) swap_at: Vec<String>,
    pub(crate) steal: bool,
    pub(crate) steal_watermarks: Option<String>,
    pub(crate) ingest_batch: usize,
    pub(crate) watermark_stride: Time,
    pub(crate) metrics_addr: Option<String>,
    pub(crate) flight: Option<String>,
}

impl Default for ServeOpts {
    fn default() -> Self {
        ServeOpts {
            shards: 2,
            rate: 0.5,
            queue_cap: 64,
            policy: "block".to_string(),
            routing: "hash".to_string(),
            replay: None,
            stats_every: 8,
            store: None,
            run: None,
            horizon: 100_000_000,
            swap_at: Vec::new(),
            steal: false,
            steal_watermarks: None,
            ingest_batch: 32,
            watermark_stride: 0,
            metrics_addr: None,
            flight: None,
        }
    }
}

/// Usage text for the flag set [`serve_flag`] understands (shared by the
/// `serve` and `gateway` verbs).
pub(crate) const SERVE_FLAG_USAGE: &str =
    " [--shards N] [--rate R] [--queue-cap N] [--policy block|drop|redirect]\n\
     \u{20}        [--routing hash|least-loaded] [--replay FILE] [--stats-every N]\n\
     \u{20}        [--store DIR] [--run-id ID] [--horizon H] [--swap-at T:SPEC]\n\
     \u{20}        [--steal] [--steal-watermarks LOW:HIGH] [--ingest-batch N]\n\
     \u{20}        [--watermark-stride T] [--metrics-addr HOST:PORT] [--flight FILE]";

/// Parse one serve-family flag into `s`; returns whether it was consumed.
pub(crate) fn serve_flag(
    s: &mut ServeOpts,
    flag: &str,
    it: &mut std::slice::Iter<'_, String>,
) -> Result<bool, String> {
    match flag {
        "--shards" => s.shards = parse_num(it, "--shards")?,
        "--rate" => s.rate = parse_num(it, "--rate")?,
        "--queue-cap" => s.queue_cap = parse_num(it, "--queue-cap")?,
        "--stats-every" => s.stats_every = parse_num(it, "--stats-every")?,
        "--horizon" => s.horizon = parse_num(it, "--horizon")?,
        "--policy" => s.policy = it.next().ok_or("--policy needs a name")?.clone(),
        "--routing" => s.routing = it.next().ok_or("--routing needs a name")?.clone(),
        "--replay" => s.replay = Some(it.next().ok_or("--replay needs a path")?.clone()),
        "--store" => s.store = Some(it.next().ok_or("--store needs a directory")?.clone()),
        "--run-id" => s.run = Some(it.next().ok_or("--run-id needs an id")?.clone()),
        "--swap-at" => s.swap_at.push(it.next().ok_or("--swap-at needs T:SPEC")?.clone()),
        "--steal" => s.steal = true,
        "--steal-watermarks" => {
            s.steal = true;
            s.steal_watermarks =
                Some(it.next().ok_or("--steal-watermarks needs LOW:HIGH")?.clone());
        }
        "--ingest-batch" => s.ingest_batch = parse_num(it, "--ingest-batch")?,
        "--watermark-stride" => s.watermark_stride = parse_num(it, "--watermark-stride")?,
        "--metrics-addr" => {
            s.metrics_addr = Some(it.next().ok_or("--metrics-addr needs HOST:PORT")?.clone())
        }
        "--flight" => s.flight = Some(it.next().ok_or("--flight needs a path")?.clone()),
        _ => return Ok(false),
    }
    Ok(true)
}

/// Run `serve <scenario> [flags]`.
pub fn run(args: &[String]) -> Result<(), String> {
    let mut s = ServeOpts::default();
    let o = ScenarioOpts::parse_with("serve", args, false, SERVE_FLAG_USAGE, &mut |flag, it| {
        serve_flag(&mut s, flag, it)
    })?;
    let (results, handle) = serve(&o, &s, &mut |line| println!("{line}"))?;
    finish(&o, &s, &results, &handle)
}

/// The epilogue every pool-owning verb shares: summary table, ledger line,
/// store records, flight dump.
pub(crate) fn finish(
    o: &ScenarioOpts,
    s: &ServeOpts,
    results: &[ShardResult],
    handle: &PoolHandle,
) -> Result<(), String> {
    print!("{}", summary_table(o, s, results, &handle.metrics()));
    println!("{}", accounting_line(&handle.snapshot()));
    if let Some(dir) = &s.store {
        let path = persist(o, s, results, dir)?;
        eprintln!("appended {} record(s) to {path}", results.len());
    }
    if let Some(path) = flight_path(o, s) {
        let n = dump_flight(&path, handle)?;
        eprintln!("recorded {n} flight event(s) to {}", path.display());
    }
    Ok(())
}

/// Where the flight-recorder JSONL lands: `--flight FILE` wins; otherwise
/// a run-scoped file beside the store records; nowhere if neither is set.
pub(crate) fn flight_path(o: &ScenarioOpts, s: &ServeOpts) -> Option<std::path::PathBuf> {
    if let Some(path) = &s.flight {
        return Some(path.into());
    }
    s.store.as_ref().map(|dir| {
        let id = s.run.clone().unwrap_or_else(|| run_id(&o.scenario, &o.scheduler, o.m, o.seed));
        std::path::Path::new(dir).join(format!("flight-{id}.jsonl"))
    })
}

/// Dump the pool's merged flight ring to `path`; returns the event count.
pub(crate) fn dump_flight(path: &std::path::Path, handle: &PoolHandle) -> Result<usize, String> {
    let events = handle.flight();
    write_flight_jsonl(path, &events).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(events.len())
}

/// Parse one `--swap-at T:SPEC` directive against the run's `--half`.
fn parse_swap(arg: &str, half: Time) -> Result<(Time, SchedulerSpec), String> {
    let (t, name) = arg
        .split_once(':')
        .ok_or_else(|| format!("--swap-at wants T:SPEC (e.g. 100:lpf), got '{arg}'"))?;
    let at: Time = t.parse().map_err(|_| format!("--swap-at time '{t}' is not an integer"))?;
    let spec = SchedulerSpec::from_name_with_half(name, half)?;
    Ok((at, spec))
}

/// Parse `--steal-watermarks LOW:HIGH`.
fn parse_watermarks(arg: &str) -> Result<StealConfig, String> {
    let (lo, hi) = arg
        .split_once(':')
        .ok_or_else(|| format!("--steal-watermarks wants LOW:HIGH (e.g. 2:8), got '{arg}'"))?;
    let low_watermark = lo
        .parse()
        .map_err(|_| format!("steal low watermark '{lo}' is not an integer"))?;
    let high_watermark = hi
        .parse()
        .map_err(|_| format!("steal high watermark '{hi}' is not an integer"))?;
    Ok(StealConfig { low_watermark, high_watermark })
}

/// The post-drain ingest ledger; ends in `(balanced)` exactly when the
/// pool's [`PoolSnapshot::accounting_balanced`] holds. Drain empties the
/// router's staging, so after it that rule reads `delivered + dropped ==
/// offered` and `stolen_in == stolen_out`.
pub(crate) fn accounting_line(snap: &PoolSnapshot) -> String {
    let ingest = &snap.ingest;
    format!(
        "ingest: offered={} delivered={} dropped={} redirected={} reordered={} \
         stolen_in={} stolen_out={} wm_skipped={} {}",
        ingest.offered,
        ingest.delivered,
        ingest.dropped,
        ingest.redirected,
        ingest.reordered,
        ingest.stolen_in,
        ingest.stolen_out,
        ingest.wm_skipped,
        if snap.accounting_balanced() {
            "(balanced)"
        } else {
            "(IMBALANCED)"
        },
    )
}

/// Launch the pool, queue any hot-swaps, pump the source dry (emitting a
/// stats line through `heartbeat` every `--stats-every` arrivals), and
/// drain. Heartbeats carry the live p99 arrival→completion latency and the
/// worst per-shard max_flow/LB ratio from the telemetry registry. If a
/// shard worker panics during drain, the flight recorder is dumped anyway
/// (the rings outlive the workers) before the error propagates.
fn serve(
    o: &ScenarioOpts,
    s: &ServeOpts,
    heartbeat: &mut dyn FnMut(&str),
) -> Result<(Vec<ShardResult>, PoolHandle), String> {
    let (cfg, swaps) = build_config(o, s)?;
    let mut source = build_source(o, &s.replay, s.rate)?;
    let pool = ShardPool::launch(cfg)?;
    let handle = pool.handle();
    let server = match &s.metrics_addr {
        Some(addr) => {
            let srv = serve_metrics(addr, handle.clone())
                .map_err(|e| format!("metrics endpoint {addr}: {e}"))?;
            heartbeat(&format!("metrics endpoint listening on http://{}/metrics", srv.addr()));
            Some(srv)
        }
        None => None,
    };
    // Queue swaps before any arrival: per-shard FIFO ordering makes a
    // `--swap-at 0:SPEC` take effect before the first admission.
    for &(at, swap_spec) in &swaps {
        handle.swap(None, at, swap_spec)?;
    }
    {
        let beat_handle = handle.clone();
        handle.run_source_with(source.as_mut(), s.stats_every, &mut |snap| {
            heartbeat(&format!("{} {}", snap.line(), latency_suffix(&beat_handle)))
        })?;
    }
    let snap = handle.snapshot();
    heartbeat(&format!(
        "stream ended: offered={} delivered={} dropped={} redirected={} staged={} — \
         draining {} shard(s)",
        snap.ingest.offered,
        snap.ingest.delivered,
        snap.ingest.dropped,
        snap.ingest.redirected,
        snap.in_flight(),
        s.shards
    ));
    let drained = pool.drain();
    if let Some(srv) = server {
        srv.shutdown();
    }
    let results = match drained {
        Ok(r) => r,
        Err(e) => {
            // Crashed workers can't report results, but the flight rings
            // survive — persist the post-mortem trail before bailing out.
            if let Some(path) = flight_path(o, s) {
                if let Ok(n) = dump_flight(&path, &handle) {
                    heartbeat(&format!(
                        "recorded {n} flight event(s) to {} before aborting",
                        path.display()
                    ));
                }
            }
            return Err(e.to_string());
        }
    };
    Ok((results, handle))
}

/// Turn the parsed CLI options into a validated [`ServeConfig`] plus the
/// `--swap-at` directives (to queue before any arrival).
pub(crate) fn build_config(
    o: &ScenarioOpts,
    s: &ServeOpts,
) -> Result<(ServeConfig, Vec<(Time, SchedulerSpec)>), String> {
    if s.shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    let spec = SchedulerSpec::from_name_with_half(&o.scheduler, o.half)?;
    let swaps: Vec<(Time, SchedulerSpec)> =
        s.swap_at.iter().map(|a| parse_swap(a, o.half)).collect::<Result<_, _>>()?;
    let mut builder = ServeConfig::builder(spec, o.m)
        .shards(s.shards)
        .scenario(o.scenario.clone())
        .queue_cap(s.queue_cap)
        .policy(s.policy.parse::<OverloadPolicy>()?)
        .routing(s.routing.parse::<Routing>()?)
        .max_horizon(s.horizon)
        .ingest_batch(s.ingest_batch)
        .watermark_stride(s.watermark_stride);
    if s.steal {
        let marks = match &s.steal_watermarks {
            Some(arg) => parse_watermarks(arg)?,
            None => StealConfig::default(),
        };
        builder = builder.steal(marks);
    }
    Ok((builder.build()?, swaps))
}

/// The arrival stream: a replayed trace when `replay` is set, otherwise
/// the named scenario sampled at `rate` expected jobs per step.
pub(crate) fn build_source(
    o: &ScenarioOpts,
    replay: &Option<String>,
    rate: f64,
) -> Result<Box<dyn ArrivalSource>, String> {
    Ok(match replay {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            Box::new(ReplaySource::from_json(&text).map_err(|e| format!("{path}: {e}"))?)
        }
        None => {
            let scenario = preset(&o.scenario, o.jobs).ok_or_else(|| {
                format!(
                    "unknown scenario '{}'; known: {} (or use --replay FILE)",
                    o.scenario,
                    scenario_names().join(", ")
                )
            })?;
            Box::new(GeneratorSource::new(&scenario, rate, o.jobs, o.seed))
        }
    })
}

/// The telemetry tail of a heartbeat line: merged p99 arrival→completion
/// latency and the worst per-shard live max_flow/LB ratio.
fn latency_suffix(handle: &PoolHandle) -> String {
    let m = handle.metrics();
    let ratio = match m.ratio() {
        Some(r) => format!("{r:.3}"),
        None => "-".to_string(),
    };
    format!("lat_p99={}µs ratio≤{ratio}", m.arrival_to_complete().p99())
}

/// Render the final per-shard summary table, including the telemetry
/// registry's wall-clock p99 arrival→completion latency and live ratio.
pub(crate) fn summary_table(
    o: &ScenarioOpts,
    s: &ServeOpts,
    results: &[ShardResult],
    metrics: &MetricsSnapshot,
) -> String {
    let mut table = Table::new(
        format!(
            "serve '{}' — {} on {} shard(s) × m = {}, policy {}{}",
            o.scenario,
            o.scheduler,
            s.shards,
            o.m,
            s.policy,
            if s.steal { ", stealing" } else { "" }
        ),
        &[
            "shard",
            "jobs",
            "steps",
            "dispatched",
            "max flow",
            "ratio ≤",
            "flow p99",
            "lat p99 µs",
            "live ratio",
            "swaps",
            "invariants",
        ],
    );
    for r in results {
        let sm = &r.summary;
        let tel = metrics.telemetry.get(r.shard);
        table.row(vec![
            r.shard.to_string(),
            sm.jobs.to_string(),
            sm.steps.to_string(),
            sm.dispatched.to_string(),
            sm.max_flow.to_string(),
            f3(sm.ratio),
            sm.flow.p99.to_string(),
            match tel {
                Some(t) => t.arrival_to_complete.p99().to_string(),
                None => "-".to_string(),
            },
            match metrics.shards.get(r.shard).and_then(ShardSnapshot::ratio) {
                Some(ratio) => f3(ratio),
                None => "-".to_string(),
            },
            if r.swaps.is_empty() {
                "-".to_string()
            } else {
                r.swaps.iter().map(|e| e.to_string()).collect::<Vec<_>>().join(" ")
            },
            if sm.invariants_clean {
                "clean".to_string()
            } else {
                format!("{} violation(s)", sm.total_violations)
            },
        ]);
    }
    table.to_markdown()
}

/// Append one store record per shard; returns the store directory.
pub(crate) fn persist(
    o: &ScenarioOpts,
    s: &ServeOpts,
    results: &[ShardResult],
    dir: &str,
) -> Result<String, String> {
    let store = ResultsStore::open(dir).map_err(|e| format!("open store {dir}: {e}"))?;
    let id = s.run.clone().unwrap_or_else(|| run_id(&o.scenario, &o.scheduler, o.m, o.seed));
    let git = git_describe();
    for r in results {
        let record = StoreRecord {
            run_id: id.clone(),
            git: git.clone(),
            shard: r.shard,
            shards: results.len(),
            summary: r.summary.clone(),
            swaps: r.swaps.clone(),
        };
        store.append(&record).map_err(|e| format!("append to {dir}: {e}"))?;
    }
    Ok(dir.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(scenario: &str) -> ScenarioOpts {
        ScenarioOpts {
            scenario: scenario.into(),
            scheduler: "fifo".into(),
            m: 2,
            jobs: 10,
            seed: 3,
            ..ScenarioOpts::default()
        }
    }

    #[test]
    fn serve_drains_one_summary_per_shard_with_heartbeats() {
        let mut s = ServeOpts { shards: 2, stats_every: 4, ..ServeOpts::default() };
        s.rate = 1.0;
        let mut lines = Vec::new();
        let (results, handle) =
            serve(&opts("service"), &s, &mut |l| lines.push(l.to_string())).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results.iter().map(|r| r.summary.jobs).sum::<usize>(), 10);
        assert!(lines.iter().any(|l| l.contains("admitted=")), "{lines:?}");
        assert!(lines.iter().any(|l| l.contains("lat_p99=")), "{lines:?}");
        assert!(lines.last().unwrap().contains("draining"));
        let table = summary_table(&opts("service"), &s, &results, &handle.metrics());
        assert!(table.contains("| shard |"), "{table}");
        assert!(table.contains("| swaps |"), "{table}");
        assert!(table.contains("lat p99 µs"), "{table}");
        assert!(table.contains("live ratio"), "{table}");
        let ledger = accounting_line(&handle.snapshot());
        assert!(ledger.ends_with("(balanced)"), "{ledger}");
    }

    #[test]
    fn serve_persists_parseable_store_records() {
        let dir = std::env::temp_dir().join(format!("flowtree-serve-cli-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = ServeOpts { shards: 2, rate: 1.0, ..ServeOpts::default() };
        let o = opts("service");
        let (results, _) = serve(&o, &s, &mut |_| {}).unwrap();
        persist(&o, &s, &results, dir.to_str().unwrap()).unwrap();
        let records = flowtree_serve::load_records(&dir).unwrap();
        assert_eq!(records.len(), 2, "one record per shard");
        assert!(records.iter().all(|r| r.summary.scenario == "service"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn swap_at_relabels_every_shard_and_persists_the_event() {
        let dir = std::env::temp_dir().join(format!("flowtree-swap-cli-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = ServeOpts {
            shards: 2,
            rate: 1.0,
            swap_at: vec!["0:lpf".to_string()],
            ..ServeOpts::default()
        };
        let o = opts("service");
        let (results, handle) = serve(&o, &s, &mut |_| {}).unwrap();
        for r in &results {
            assert_eq!(r.summary.scheduler, "lpf");
            assert_eq!(r.swaps.len(), 1);
            assert_eq!(
                (r.swaps[0].from.as_str(), r.swaps[0].to.as_str(), r.swaps[0].t),
                ("fifo", "lpf", 0)
            );
        }
        assert!(accounting_line(&handle.snapshot()).ends_with("(balanced)"));
        persist(&o, &s, &results, dir.to_str().unwrap()).unwrap();
        let records = flowtree_serve::load_records(&dir).unwrap();
        assert!(records.iter().all(|r| r.swaps.len() == 1), "swap events persisted");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stealing_serve_balances_the_ledger() {
        let s = ServeOpts {
            shards: 2,
            rate: 1.0,
            queue_cap: 2,
            steal: true,
            steal_watermarks: Some("0:2".to_string()),
            ..ServeOpts::default()
        };
        let o = ScenarioOpts { jobs: 40, ..opts("service") };
        let (results, handle) = serve(&o, &s, &mut |_| {}).unwrap();
        let snap = handle.snapshot();
        let ingest = &snap.ingest;
        assert_eq!(results.iter().map(|r| r.summary.jobs).sum::<usize>() as u64, ingest.offered);
        assert_eq!(ingest.stolen_in, ingest.stolen_out);
        assert!(accounting_line(&snap).ends_with("(balanced)"), "{ingest:?}");
    }

    #[test]
    fn metrics_endpoint_serves_and_flight_dump_roundtrips() {
        let dir = std::env::temp_dir().join(format!("flowtree-flight-cli-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let flight_file = dir.join("flight.jsonl");
        let s = ServeOpts {
            shards: 2,
            rate: 1.0,
            metrics_addr: Some("127.0.0.1:0".to_string()),
            flight: Some(flight_file.to_str().unwrap().to_string()),
            swap_at: vec!["0:lpf".to_string()],
            ..ServeOpts::default()
        };
        let o = opts("service");
        let mut lines: Vec<String> = Vec::new();
        let mut body: Option<String> = None;
        // Scrape from inside a heartbeat: the endpoint lives exactly as
        // long as the pool, so mid-run is the only window.
        let (results, handle) = serve(&o, &s, &mut |l| {
            if body.is_none() {
                if let Some(announce) =
                    lines.iter().find(|l| l.contains("metrics endpoint listening"))
                {
                    let addr = announce
                        .rsplit("http://")
                        .next()
                        .unwrap()
                        .trim_end_matches("/metrics")
                        .to_string();
                    body = Some(flowtree_serve::scrape_metrics(&addr).expect("scrape mid-run"));
                }
            }
            lines.push(l.to_string());
        })
        .unwrap();
        let body = body.expect("a heartbeat fired after the endpoint came up");
        assert!(body.contains("flowtree_ingest_offered_total"), "{body}");
        assert!(body.contains("flowtree_latency_us"), "{body}");

        let path = flight_path(&o, &s).expect("--flight set");
        let n = dump_flight(&path, &handle).unwrap();
        let events = flowtree_serve::load_flight_jsonl(&path).unwrap();
        assert_eq!(events.len(), n);
        let swaps = events.iter().filter(|e| e.kind == flowtree_serve::FlightKind::Swap).count();
        assert_eq!(swaps, results.iter().map(|r| r.swaps.len()).sum::<usize>());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flight_path_defaults_beside_the_store() {
        let o = opts("service");
        let none = ServeOpts::default();
        assert!(flight_path(&o, &none).is_none());
        let stored = ServeOpts { store: Some("results/store".into()), ..ServeOpts::default() };
        let p = flight_path(&o, &stored).expect("store implies a flight file");
        assert!(p.starts_with("results/store"), "{p:?}");
        assert!(p.file_name().unwrap().to_str().unwrap().starts_with("flight-"), "{p:?}");
        let explicit = ServeOpts {
            store: Some("results/store".into()),
            flight: Some("/tmp/f.jsonl".into()),
            ..ServeOpts::default()
        };
        assert_eq!(flight_path(&o, &explicit).unwrap(), std::path::PathBuf::from("/tmp/f.jsonl"));
    }

    #[test]
    fn swap_and_watermark_args_parse_strictly() {
        assert!(parse_swap("100:lpf", 8).is_ok());
        assert!(parse_swap("lpf", 8).is_err());
        assert!(parse_swap("x:lpf", 8).is_err());
        assert!(parse_swap("5:not-a-scheduler", 8).is_err());
        assert_eq!(
            parse_watermarks("2:8"),
            Ok(StealConfig { low_watermark: 2, high_watermark: 8 })
        );
        assert!(parse_watermarks("8").is_err());
        assert!(parse_watermarks("a:b").is_err());
    }

    #[test]
    fn unknown_scenario_and_policy_error_cleanly() {
        let s = ServeOpts::default();
        assert!(serve(&opts("nope"), &s, &mut |_| {}).is_err());
        let bad = ServeOpts { policy: "yolo".into(), ..ServeOpts::default() };
        assert!(serve(&opts("service"), &bad, &mut |_| {}).is_err());
        let zero = ServeOpts { shards: 0, ..ServeOpts::default() };
        let err = serve(&opts("service"), &zero, &mut |_| {}).unwrap_err();
        assert!(err.contains("--shards"), "{err}");
        let marks = ServeOpts {
            steal: true,
            steal_watermarks: Some("8:2".to_string()),
            ..ServeOpts::default()
        };
        let err = serve(&opts("service"), &marks, &mut |_| {}).unwrap_err();
        assert!(err.contains("watermark"), "{err}");
    }
}
