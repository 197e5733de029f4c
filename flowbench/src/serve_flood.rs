//! `serve-flood`: the in-process serve path, closed loop, no gateway.
//!
//! One generator thread pumps a stream of 16-subjob trees (bursts of 8
//! every 10 ticks, event-time load 0.8) into a 2-shard pool (m = 8 each,
//! hash routing, block policy, every other `ServeConfig` field at its
//! default) with `ArrivalSource::next_batch` + `PoolHandle::offer_batch`,
//! the batching `run_source` uses, and drains it. A round is one fresh
//! pool fed one of the run's instances, from first offer to drained
//! results; rounds cycle over the instances until the measured time is
//! spent, and throughput is the median round's. The
//! router lock, shard channel sends, admits and watermarks dominate; the
//! shards keep every job until drain, so memory retention shows too.

use crate::gen::{self, FLOOD};
use crate::trace::Tracer;
use crate::{host, rounds_note, stats, Outcome, RunCfg};
use flowtree_core::SchedulerSpec;
use flowtree_serve::{
    ArrivalSource, OverloadPolicy, PoolHandle, ReplaySource, Routing, ServeConfig, ShardPool,
    ShardResult,
};
use flowtree_sim::{Instance, JobSpec};
use std::time::Instant;

/// Jobs per round (64 Ki jobs, about 0.2 s and 130 MiB of retained state).
const JOBS: usize = 1 << 16;

/// Shards in every pool of this workload and of `gateway-open`.
pub const SHARDS: usize = 2;

/// Processors per shard.
pub const M: usize = 8;

/// Fewest rounds a measurement takes.
const MIN_ROUNDS: usize = 5;

/// Offers between two queue-depth samples in a traced round.
const DEPTH_EVERY: usize = 64;

/// Thread-name prefix of the shard workers (`comm` keeps 15 bytes).
pub const SHARD_THREADS: &str = "flowtree-shard-";

/// The pool every workload launches.
pub fn pool_config() -> Result<ServeConfig, String> {
    let spec = "fifo".parse::<SchedulerSpec>()?;
    ServeConfig::builder(spec, M)
        .shards(SHARDS)
        .routing(Routing::Hash)
        .policy(OverloadPolicy::Block)
        .build()
        .map_err(|e| e.to_string())
}

/// Per-round observations of the ingest side (traced rounds fill them).
#[derive(Debug, Default)]
pub struct Pumped {
    /// `offer_batch` calls.
    pub offers: u64,
    /// Wall seconds inside `offer_batch`.
    pub offer_s: f64,
    /// Summed queue depth across shards, sampled every few offers.
    pub depth: Vec<u64>,
}

/// Pump `src` dry into `handle` in ingest batches, as `run_source` does.
pub fn pump(
    handle: &PoolHandle,
    src: &mut dyn ArrivalSource,
    tracer: &mut Tracer,
    round: u64,
) -> Result<Pumped, String> {
    let cfg = handle.config();
    let (max, span) = (cfg.ingest_batch, cfg.watermark_stride);
    let mut batch: Vec<JobSpec> = Vec::with_capacity(max);
    let mut p = Pumped::default();
    while src.next_batch(max, span, &mut batch) > 0 {
        if tracer.on() {
            let start = Instant::now();
            handle.offer_batch(&mut batch).map_err(|e| e.to_string())?;
            let end = Instant::now();
            tracer.record("serve.offer_batch", round, None, start, end);
            p.offer_s += (end - start).as_secs_f64();
            if p.offers % DEPTH_EVERY as u64 == 0 {
                let snap = handle.snapshot();
                p.depth.push(snap.shards.iter().map(|s| s.queue_len as u64).sum());
            }
        } else {
            handle.offer_batch(&mut batch).map_err(|e| e.to_string())?;
        }
        p.offers += 1;
    }
    Ok(p)
}

/// Output checks on a drained pool that was offered `offered` jobs of
/// `total_work` subjobs: every shard's schedule verifies, no subjob is
/// lost, and the ingest ledger balances.
pub fn check_pool(
    out: &mut Outcome,
    label: &str,
    handle: &PoolHandle,
    results: &[ShardResult],
    offered: u64,
    total_work: u64,
) {
    for r in results {
        out.check(r.report.verify(&r.instance).is_ok(), || {
            format!("{label}: shard {} schedule fails verify", r.shard)
        });
        out.check(r.summary.invariants_clean, || {
            format!("{label}: shard {} recorded invariant violations", r.shard)
        });
    }
    let dispatched: u64 = results.iter().map(|r| r.report.counters.dispatched).sum();
    out.check(dispatched == total_work, || {
        format!("{label}: dispatched {dispatched} of {total_work} subjobs")
    });
    let snap = handle.snapshot();
    let ing = snap.ingest;
    out.check(snap.accounting_balanced() && ing.offered == offered, || {
        format!(
            "{label}: ledger delivered {} + dropped {} + staged {} != offered {} (expected {offered})",
            ing.delivered,
            ing.dropped,
            snap.in_flight(),
            ing.offered
        )
    });
    out.check(ing.stolen_in == ing.stolen_out, || {
        format!("{label}: stolen_in {} != stolen_out {}", ing.stolen_in, ing.stolen_out)
    });
}

/// Worst shard's max flow over the offline lower bound of its instance.
pub fn worst_ratio(results: &[ShardResult]) -> f64 {
    results
        .iter()
        .map(|r| {
            let lower = flowtree_opt::bounds::combined_lower_bound(&r.instance, M as u64).max(1);
            r.report.stats.max_flow as f64 / lower as f64
        })
        .fold(0.0, f64::max)
}

/// Run `inst` through a fresh pool in-process and drain it (no timing):
/// the reference a remote replay must equal.
pub fn replay_in_process(inst: &Instance) -> Result<Vec<ShardResult>, String> {
    let pool = ShardPool::launch(pool_config()?).map_err(|e| e.to_string())?;
    let mut src = ReplaySource::from_instance(inst);
    pump(&pool.handle(), &mut src, &mut Tracer::new(false, Instant::now()), 0)?;
    pool.drain().map_err(|e| e.to_string())
}

/// One mode's rounds: fresh pools, one per round.
#[derive(Debug, Default)]
struct Measured {
    /// Wall seconds per round, first offer to drained results.
    round_s: Vec<f64>,
    launch_s: Vec<f64>,
    drain_s: Vec<f64>,
    cpu_s: f64,
    shard_cpu_s: f64,
    jobs: u64,
    offers: u64,
    offer_s: f64,
    depth: Vec<u64>,
    wm_skipped: u64,
}

/// Rounds until `cfg.seconds` are measured, round `r` on instance
/// `r mod insts.len()`; in a traced run rounds alternate untraced and
/// traced, so host drift hits both alike. The result is indexed by
/// "traced", with the worst-shard ratio of each instance that ran. Checks
/// run after each drain, outside the clock.
fn measure(
    insts: &[Instance],
    cfg: &RunCfg,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<([Measured; 2], Vec<f64>), String> {
    let mut both: [Measured; 2] = Default::default();
    let mut quiet = Tracer::new(false, Instant::now());
    let mut first_max_flows: Vec<Option<Vec<u64>>> = vec![None; insts.len()];
    let mut worst = Vec::new();
    let mut spent = 0.0;
    let mut round = 0u64;
    let enough = |b: &[Measured; 2]| {
        b[0].round_s.len() >= MIN_ROUNDS && (!cfg.trace || b[1].round_s.len() >= MIN_ROUNDS)
    };
    while !enough(&both) || spent < cfg.seconds {
        let traced = cfg.trace && round % 2 == 1;
        let inst = &insts[round as usize % insts.len()];
        let tr: &mut Tracer = if traced { tracer } else { &mut quiet };
        let m = &mut both[traced as usize];
        let mut src = ReplaySource::from_instance(inst);
        let t0 = Instant::now();
        let pool = ShardPool::launch(pool_config()?).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        tr.record("serve.launch", round, None, t0, t1);
        m.launch_s.push((t1 - t0).as_secs_f64());
        let handle = pool.handle();

        let (shard0, _) = host::threads_cpu(SHARD_THREADS);
        let cpu0 = host::process_cpu_s();
        let start = Instant::now();
        let pumped = pump(&handle, &mut src, tr, round)?;
        let (shard1, _) = host::threads_cpu(SHARD_THREADS);
        let cpu1 = host::process_cpu_s();
        let d0 = Instant::now();
        let results = pool.drain().map_err(|e| e.to_string())?;
        let end = Instant::now();
        let cpu2 = host::process_cpu_s();
        tr.record("serve.drain", round, None, d0, end);

        let wall = (end - start).as_secs_f64();
        spent += wall;
        m.round_s.push(wall);
        m.drain_s.push((end - d0).as_secs_f64());
        m.cpu_s += cpu2 - cpu0;
        // The shard threads exit inside drain, so their drain-phase time is
        // read off the process total: the generator sleeps in join meanwhile.
        m.shard_cpu_s += (shard1 - shard0) + (cpu2 - cpu1);
        m.jobs += inst.num_jobs() as u64;
        m.offers += pumped.offers;
        m.offer_s += pumped.offer_s;
        m.depth.extend(pumped.depth);
        m.wm_skipped += handle.ingest().wm_skipped;

        // Checks, outside the clock.
        check_pool(
            out,
            "serve-flood",
            &handle,
            &results,
            inst.num_jobs() as u64,
            inst.total_work(),
        );
        let max_flows: Vec<u64> = results.iter().map(|r| r.report.stats.max_flow).collect();
        match &first_max_flows[round as usize % insts.len()] {
            None => {
                worst.push(worst_ratio(&results));
                first_max_flows[round as usize % insts.len()] = Some(max_flows);
            }
            Some(f) => out.check(*f == max_flows, || {
                format!("serve-flood: round {round} max flows {max_flows:?} differ from {f:?}")
            }),
        }
        round += 1;
    }
    Ok((both, worst))
}

/// Run the workload and report into `out`.
pub fn run(cfg: &RunCfg, tracer: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let (insts, gen_s) = gen::generate_timed(FLOOD, JOBS, gen::sub_seed(cfg.seed, 2), tracer);
    for inst in &insts {
        let load = gen::event_time_load(inst, FLOOD.period, FLOOD.processors);
        out.check(load < 1.0, || format!("event-time load {load} is not below 1"));
    }
    out.note(format!(
        "{} instances of {JOBS} jobs x {} subjobs, one per round, {SHARDS} shards x m = {M}, \
         event-time load {:.3}",
        insts.len(),
        FLOOD.job_size,
        gen::event_time_load(&insts[0], FLOOD.period, FLOOD.processors)
    ));
    out.note(gen::gen_note(&gen_s));
    // Every tree has exactly `job_size` subjobs, so every round has the
    // same work.
    let work = (JOBS * FLOOD.job_size) as f64;

    let ([plain, traced], worst) = measure(&insts, cfg, tracer, out)?;
    out.attempted = plain.jobs + traced.jobs;
    out.note(format!(
        "{} untraced and {} traced rounds",
        plain.round_s.len(),
        traced.round_s.len()
    ));
    let round_median = stats::median(&plain.round_s);
    out.note(rounds_note(&plain.round_s));

    if !cfg.trace {
        let setup_s = stats::median(&gen_s) + stats::median(&plain.launch_s);
        out.metric("setup_s", setup_s, "s");
        out.metric("subjobs_per_s", work / round_median, "1/s");
        out.metric("jobs_per_s", JOBS as f64 / round_median, "1/s");
        out.metric("max_flow_ratio", stats::median(&worst), "ratio");
        out.metric("peak_rss_mb", host::peak_rss_mb(), "MiB");
        out.metric("cpu_us_per_job", plain.cpu_s * 1e6 / plain.jobs as f64, "us");
        return Ok(());
    }

    let offer_ns = stats::sorted_u64(tracer.durations("serve.offer_batch"));
    let wall: f64 = traced.round_s.iter().sum();
    let depth = stats::sorted_u64(traced.depth);
    out.metric("workloads.gen_s", stats::median(&gen_s), "s");
    out.metric("serve.launch_ms", stats::median(&traced.launch_s) * 1e3, "ms");
    out.metric("serve.offer_us.p50", stats::percentile(&offer_ns, 50.0) as f64 / 1e3, "us");
    out.metric("serve.offer_us.p90", stats::percentile(&offer_ns, 90.0) as f64 / 1e3, "us");
    out.metric("serve.offer_busy_share", traced.offer_s / wall, "share");
    out.metric("serve.jobs_per_offer", traced.jobs as f64 / traced.offers as f64, "count");
    out.metric("serve.queue_depth.p90", stats::percentile(&depth, 90.0) as f64, "count");
    out.metric("serve.drain_ms", stats::median(&traced.drain_s) * 1e3, "ms");
    let shard_share = traced.shard_cpu_s / (wall * SHARDS as f64);
    out.metric("serve.shard_cpu_share", shard_share, "share");
    let skipped = traced.wm_skipped as f64 / traced.round_s.len() as f64;
    out.metric("serve.wm_skipped", skipped, "count");
    let overhead = stats::median(&traced.round_s) / round_median - 1.0;
    out.metric("bench.trace_overhead", overhead, "share");
    Ok(())
}
