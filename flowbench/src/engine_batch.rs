//! `engine-batch`: the batch engine and the schedulers, nothing else.
//!
//! One thread runs `Engine::run` over a dense stream of 256-subjob trees
//! (one release every 5 ticks on m = 64, event-time load 0.8) with the
//! shard probe stack — `LowerBound` + `InvariantMonitor` +
//! `RunHistograms` — for `fifo`, `lpf` and `algo-a` in turn. A round is
//! one run of each on one of the run's instances; rounds cycle over the
//! instances until the measured time is spent, and the throughput is the
//! median round's. `serve` and `gateway` do no work
//! here, so a change to them should leave every number of this workload
//! unchanged.

use crate::gen::{self, ENGINE};
use crate::trace::Tracer;
use crate::{host, rounds_note, stats, Outcome, RunCfg};
use flowtree_core::SchedulerSpec;
use flowtree_sim::{Engine, Instance, InvariantMonitor, LowerBound, RunHistograms, RunReport};
use std::time::Instant;

/// Jobs per instance (4096 × 256 = 1 Mi subjobs, about 0.7 s per round).
const JOBS: usize = 4096;

/// Schedulers of one round, in run order.
const SCHEDULERS: [&str; 3] = ["fifo", "lpf", "algo-a"];

/// Fewest rounds a measurement takes, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// What a run of a scheduler must reproduce in every later round.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    max_flow: u64,
    steps: u64,
    dispatched: u64,
    violations: u64,
}

/// Fingerprints of the first run of each scheduler on one instance.
type Firsts = [Option<Fingerprint>; 3];

/// One measurement: rounds of every scheduler, alternately untraced and
/// (in a traced run) traced, so host drift hits both alike.
#[derive(Default)]
struct Measured {
    /// Wall seconds of each untraced round (all schedulers).
    round_s: Vec<f64>,
    /// Wall seconds of each traced round.
    traced_round_s: Vec<f64>,
    /// Per scheduler: traced-round wall seconds with the probe stack, and
    /// of the `NullProbe` run right after it.
    stack_s: [Vec<f64>; 3],
    null_s: [Vec<f64>; 3],
    /// Process CPU seconds inside the untraced runs.
    cpu_s: f64,
    /// Jobs simulated in untraced rounds.
    jobs: u64,
}

fn specs() -> Result<Vec<SchedulerSpec>, String> {
    SCHEDULERS.iter().map(|n| n.parse::<SchedulerSpec>()).collect()
}

/// Whether `spec`'s declared invariants are sound on an instance with
/// this lower bound. Algorithm 𝒜's strict tail-rectangle rule assumes its
/// fixed estimate is valid (2·half ≥ OPT); a lower bound above 2·half
/// proves it is not, and the rule may then fire on a feasible schedule.
fn invariants_apply(spec: &SchedulerSpec, lower: u64) -> bool {
    match spec {
        SchedulerSpec::AlgoA { half, .. } => lower <= 2 * half,
        _ => true,
    }
}

/// Check one run's report; the first round's fingerprint is kept, later
/// rounds must match it.
fn check_report(
    out: &mut Outcome,
    inst: &Instance,
    spec: &SchedulerSpec,
    lower: u64,
    report: &RunReport,
    inv: &InvariantMonitor,
    first: &mut Option<Fingerprint>,
) {
    let name = spec.name();
    out.check(report.verify(inst).is_ok(), || format!("{name}: schedule fails verify"));
    out.check(report.counters.dispatched == inst.total_work(), || {
        format!(
            "{name}: dispatched {} of {} subjobs",
            report.counters.dispatched,
            inst.total_work()
        )
    });
    out.check(inv.is_clean() || !invariants_apply(spec, lower), || {
        let first = inv.violations().first().map_or(String::new(), |v| format!(", first: {v}"));
        format!("{name}: {} invariant violations{first}", inv.total_violations())
    });
    let fp = Fingerprint {
        max_flow: report.stats.max_flow,
        steps: report.counters.steps,
        dispatched: report.counters.dispatched,
        violations: inv.total_violations(),
    };
    match first {
        None => *first = Some(fp),
        Some(f) => out.check(*f == fp, || format!("{name}: run differs from the first round")),
    }
}

/// Rounds of every scheduler under the full probe stack until `seconds`
/// of runs are measured, round `r` on instance `r mod insts.len()`. A
/// traced round also runs each scheduler with `NullProbe` right after its
/// stack run. Checks run between runs, outside the clock.
fn measure(
    insts: &[Instance],
    lowers: &[u64],
    cfg: &RunCfg,
    tracer: &mut Tracer,
    out: &mut Outcome,
    firsts: &mut [Firsts],
) -> Result<Measured, String> {
    let specs = specs()?;
    let mut m = Measured::default();
    let mut spent = 0.0;
    let enough = |m: &Measured| {
        m.round_s.len() >= MIN_ROUNDS && (!cfg.trace || m.traced_round_s.len() >= MIN_ROUNDS)
    };
    while !enough(&m) || spent < cfg.seconds {
        let r = m.round_s.len() + m.traced_round_s.len();
        let traced = cfg.trace && r % 2 == 1;
        let k = r % insts.len();
        let (inst, lower) = (&insts[k], lowers[k]);
        let mut round = 0.0;
        for (i, spec) in specs.iter().enumerate() {
            let mut sched = spec.build();
            let cpu0 = host::process_cpu_s();
            let start = Instant::now();
            let mut lb = LowerBound::new(inst);
            let mut inv = InvariantMonitor::new(inst, spec.invariants());
            let mut histos = RunHistograms::new();
            let report = Engine::new(ENGINE.processors)
                .with_probe((&mut lb, &mut inv, &mut histos))
                .run(inst, sched.as_mut())
                .map_err(|e| format!("{}: {e}", spec.name()))?;
            let end = Instant::now();
            let s = (end - start).as_secs_f64();
            round += s;
            std::hint::black_box((&lb, &histos));
            if traced {
                tracer.record("sim.engine_run", i as u64, None, start, end);
                m.stack_s[i].push(s);
                let mut sched = spec.build();
                let start = Instant::now();
                let bare = Engine::new(ENGINE.processors)
                    .run(inst, sched.as_mut())
                    .map_err(|e| format!("{}: {e}", spec.name()))?;
                let s = start.elapsed().as_secs_f64();
                std::hint::black_box(&bare);
                m.null_s[i].push(s);
                spent += s;
            } else {
                m.cpu_s += host::process_cpu_s() - cpu0;
            }
            check_report(out, inst, spec, lower, &report, &inv, &mut firsts[k][i]);
        }
        spent += round;
        if traced {
            m.traced_round_s.push(round);
        } else {
            m.round_s.push(round);
            m.jobs += (SCHEDULERS.len() * inst.num_jobs()) as u64;
        }
    }
    Ok(m)
}

/// Run the workload and report into `out`.
pub fn run(cfg: &RunCfg, tracer: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let (insts, gen_s) = gen::generate_timed(ENGINE, JOBS, gen::sub_seed(cfg.seed, 1), tracer);
    let mut lowers = Vec::with_capacity(insts.len());
    for inst in &insts {
        let load = gen::event_time_load(inst, ENGINE.period, ENGINE.processors);
        out.check(load < 1.0, || format!("event-time load {load} is not below 1"));
        // Ratio denominators come from the offline bound, outside the clock.
        let lower = flowtree_opt::bounds::combined_lower_bound(inst, ENGINE.processors as u64);
        lowers.push(lower.max(1));
    }
    // Every tree has exactly `job_size` subjobs, so every instance has
    // the same work.
    let work = (JOBS * ENGINE.job_size) as f64;
    out.note(format!(
        "{} instances of {JOBS} jobs x {} subjobs, m = {}, event-time load {:.3}",
        insts.len(),
        ENGINE.job_size,
        ENGINE.processors,
        gen::event_time_load(&insts[0], ENGINE.period, ENGINE.processors)
    ));

    out.note(gen::gen_note(&gen_s));
    let mut firsts: Vec<Firsts> = vec![Default::default(); insts.len()];
    let m = measure(&insts, &lowers, cfg, tracer, out, &mut firsts)?;
    let round_median = stats::median(&m.round_s);
    out.attempted = m.jobs;
    out.note(rounds_note(&m.round_s));
    out.note(format!(
        "{} untraced and {} traced rounds of {}",
        m.round_s.len(),
        m.traced_round_s.len(),
        SCHEDULERS.join(" + ")
    ));

    // Per instance that ran: the worst scheduler's max flow over the bound.
    let mut worst = Vec::new();
    for (k, (fps, lower)) in firsts.iter().zip(&lowers).enumerate() {
        let mut line = format!("instance {k}, lower bound {lower}:");
        let mut inst_worst = None::<f64>;
        for (spec, fp) in specs()?.iter().zip(fps) {
            let Some(fp) = fp else { continue };
            let ratio = fp.max_flow as f64 / *lower as f64;
            let enforced = if invariants_apply(spec, *lower) {
                ""
            } else {
                ", not enforced"
            };
            line += &format!(
                " {} max flow {} ({ratio:.3}, {} violations{enforced});",
                spec.name(),
                fp.max_flow,
                fp.violations
            );
            inst_worst = Some(inst_worst.map_or(ratio, |w| w.max(ratio)));
        }
        if let Some(w) = inst_worst {
            out.note(line);
            worst.push(w);
        }
    }

    if !cfg.trace {
        out.metric("setup_s", stats::median(&gen_s), "s");
        out.metric("subjobs_per_s", SCHEDULERS.len() as f64 * work / round_median, "1/s");
        out.metric("jobs_per_s", (SCHEDULERS.len() * JOBS) as f64 / round_median, "1/s");
        out.metric("max_flow_ratio", stats::median(&worst), "ratio");
        out.metric("peak_rss_mb", host::peak_rss_mb(), "MiB");
        out.metric("cpu_us_per_job", m.cpu_s * 1e6 / m.jobs as f64, "us");
        return Ok(());
    }

    out.metric("workloads.gen_s", stats::median(&gen_s), "s");
    let mut probe_s = 0.0;
    for (i, name) in SCHEDULERS.iter().enumerate() {
        let bare = stats::median(&m.null_s[i]);
        out.metric(format!("core.{name}.ns_per_subjob"), bare * 1e9 / work, "ns");
        probe_s += stats::median(&m.stack_s[i]) - bare;
    }
    out.metric(
        "sim.probe.ns_per_subjob",
        probe_s * 1e9 / (SCHEDULERS.len() as f64 * work),
        "ns",
    );
    let traced_median = stats::median(&m.traced_round_s);
    out.metric("bench.trace_overhead", traced_median / round_median - 1.0, "share");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algo_a_invariants_apply_only_under_a_valid_estimate() {
        let a = SchedulerSpec::from_name_with_half("algo-a", 8).unwrap();
        assert!(invariants_apply(&a, 16));
        assert!(!invariants_apply(&a, 17));
        for name in ["fifo", "lpf"] {
            assert!(invariants_apply(&name.parse().unwrap(), 1000));
        }
    }
}
