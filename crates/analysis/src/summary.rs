//! One-run observability reports: run a registry scheduler with the full
//! monitor/histogram probe stack attached and bundle everything the theory
//! says about the run into a serializable [`RunSummary`].
//!
//! The probe stack is a tuple `(LowerBound, InvariantMonitor, RunHistograms)`
//! — three probes, one `Engine::run`, zero dynamic dispatch. The summary
//! carries two lower bounds: the Lemma 5.1 per-job bound the live monitor
//! maintains, and the (at least as strong) combined bound from
//! `flowtree-opt` that also accounts for interval load across jobs; the
//! headline `ratio` is measured against the stronger one. For a single
//! out-forest released at 0 both coincide and are exact (Corollary 5.4), so
//! LPF reports ratio exactly 1.0.

use crate::table::f3;
use flowtree_core::SchedulerSpec;
use flowtree_sim::monitor::{InvariantMonitor, LowerBound};
use flowtree_sim::{Engine, Instance, LogHistogram, RunHistograms, RunReport};

/// Compact histogram summary (count + quantile upper bounds + max).
#[derive(Debug, Clone, PartialEq)]
pub struct HistoSummary {
    /// Observations recorded.
    pub count: u64,
    /// Mean observation.
    pub mean: f64,
    /// Median upper bound (log-bucket resolution).
    pub p50: u64,
    /// 90th-percentile upper bound.
    pub p90: u64,
    /// 99th-percentile upper bound.
    pub p99: u64,
    /// Largest observation.
    pub max: u64,
}

serde::impl_serde_struct!(HistoSummary { count, mean, p50, p90, p99, max });

impl From<&LogHistogram> for HistoSummary {
    fn from(h: &LogHistogram) -> Self {
        HistoSummary {
            count: h.count(),
            mean: h.mean(),
            p50: h.p50(),
            p90: h.p90(),
            p99: h.p99(),
            max: h.max(),
        }
    }
}

/// One invariant breach, flattened for serialization.
#[derive(Debug, Clone, PartialEq)]
pub struct ViolationRecord {
    /// Step start time of the breach.
    pub t: u64,
    /// Rule name (`work-conserving` / `rectangle-tail`).
    pub rule: String,
    /// Human-readable specifics.
    pub detail: String,
}

serde::impl_serde_struct!(ViolationRecord { t, rule, detail });

/// Everything one observed run reports: counters, theory bounds, invariant
/// verdicts, and distribution summaries.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Scenario (or instance) label.
    pub scenario: String,
    /// Registry scheduler name.
    pub scheduler: String,
    /// Machine size.
    pub m: usize,
    /// Jobs in the instance.
    pub jobs: usize,
    /// Steps simulated (schedule horizon).
    pub steps: u64,
    /// Subjobs dispatched (total work).
    pub dispatched: u64,
    /// Busy fraction of processor-slots.
    pub utilization: f64,
    /// Ready-pool high-water mark.
    pub max_ready_depth: usize,
    /// Maximum per-job flow (the paper's objective).
    pub max_flow: u64,
    /// Mean per-job flow.
    pub mean_flow: f64,
    /// Completion time of the last job.
    pub makespan: u64,
    /// Best certified lower bound on the optimal max flow (combined
    /// Lemma 5.1 + interval-load bound from `flowtree-opt`).
    pub lower_bound: u64,
    /// The Lemma 5.1 per-job bound alone (what the live monitor tracks).
    pub job_lower_bound: u64,
    /// `max_flow / lower_bound` — certified competitive-ratio bound.
    pub ratio: f64,
    /// Did the enabled invariant checks all pass?
    pub invariants_clean: bool,
    /// Total violations observed (may exceed `violations.len()`).
    pub total_violations: u64,
    /// Recorded invariant breaches (capped).
    pub violations: Vec<ViolationRecord>,
    /// Per-job flow distribution.
    pub flow: HistoSummary,
    /// Per-step ready-depth distribution.
    pub ready_depth: HistoSummary,
    /// Per-step scheduled-width distribution (utilization × m).
    pub scheduled: HistoSummary,
}

serde::impl_serde_struct!(RunSummary {
    scenario,
    scheduler,
    m,
    jobs,
    steps,
    dispatched,
    utilization,
    max_ready_depth,
    max_flow,
    mean_flow,
    makespan,
    lower_bound,
    job_lower_bound,
    ratio,
    invariants_clean,
    total_violations,
    violations,
    flow,
    ready_depth,
    scheduled,
});

impl RunSummary {
    /// Render as a small markdown report (the CLI `report` command's
    /// default output).
    pub fn to_markdown(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "# Run report — {} on '{}'\n", self.scheduler, self.scenario);
        let _ = writeln!(s, "| metric | value |");
        let _ = writeln!(s, "| --- | --- |");
        let _ = writeln!(s, "| jobs | {} |", self.jobs);
        let _ = writeln!(s, "| m | {} |", self.m);
        let _ = writeln!(s, "| steps (horizon) | {} |", self.steps);
        let _ = writeln!(s, "| dispatched | {} |", self.dispatched);
        let _ = writeln!(s, "| utilization | {} |", f3(self.utilization));
        let _ = writeln!(s, "| max ready depth | {} |", self.max_ready_depth);
        let _ = writeln!(s, "| max flow | {} |", self.max_flow);
        let _ = writeln!(s, "| mean flow | {} |", f3(self.mean_flow));
        let _ = writeln!(s, "| makespan | {} |", self.makespan);
        let _ = writeln!(s, "| lower bound (certified) | {} |", self.lower_bound);
        let _ = writeln!(s, "| lower bound (Lemma 5.1) | {} |", self.job_lower_bound);
        let _ = writeln!(s, "| competitive ratio ≤ | {} |", f3(self.ratio));
        let _ = writeln!(
            s,
            "| invariants | {} |",
            if self.invariants_clean {
                "clean".to_string()
            } else {
                format!("{} violation(s)", self.total_violations)
            }
        );
        let _ = writeln!(s, "\n## Distributions (p50 / p90 / p99 / max)\n");
        let _ = writeln!(s, "| series | count | mean | p50 | p90 | p99 | max |");
        let _ = writeln!(s, "| --- | --- | --- | --- | --- | --- | --- |");
        for (name, h) in [
            ("job flow", &self.flow),
            ("ready depth", &self.ready_depth),
            ("scheduled/step", &self.scheduled),
        ] {
            let _ = writeln!(
                s,
                "| {name} | {} | {} | {} | {} | {} | {} |",
                h.count,
                f3(h.mean),
                h.p50,
                h.p90,
                h.p99,
                h.max
            );
        }
        if !self.violations.is_empty() {
            let _ = writeln!(s, "\n## Violations\n");
            for v in &self.violations {
                let _ = writeln!(s, "- t={}: {}: {}", v.t, v.rule, v.detail);
            }
            if self.total_violations > self.violations.len() as u64 {
                let _ = writeln!(
                    s,
                    "- … and {} more",
                    self.total_violations - self.violations.len() as u64
                );
            }
        }
        s
    }
}

/// Run `spec` on `instance` with the full monitor stack attached and
/// summarize. `scenario` is a label carried into the summary. The verified
/// run's [`RunReport`] (schedule, stats, counters) comes back beside it.
pub fn summarize(
    scenario: &str,
    instance: &Instance,
    m: usize,
    spec: SchedulerSpec,
) -> Result<(RunSummary, RunReport), String> {
    let mut sched = spec.build();
    let mut lb = LowerBound::new(instance);
    let mut inv = InvariantMonitor::new(instance, spec.invariants());
    let mut histos = RunHistograms::new();
    let report = Engine::new(m)
        .with_max_horizon(100_000_000)
        .with_probe((&mut lb, &mut inv, &mut histos))
        .run(instance, sched.as_mut())
        .map_err(|e| format!("{} on m={m}: {e}", spec.name()))?;
    report.verify(instance).map_err(|e| format!("infeasible schedule: {e}"))?;

    let summary =
        summary_from_parts(scenario, spec.name(), instance, m, &report, &lb, &inv, &histos);
    Ok((summary, report))
}

/// Assemble a [`RunSummary`] from an already-completed run's pieces: the
/// [`RunReport`] and the monitor/histogram stack
/// that observed it. Shared by [`summarize`] (batch `Engine::run`) and the
/// streaming serve path (a drained `Session` per shard), so both emit
/// byte-identical records for the same observed run.
#[allow(clippy::too_many_arguments)]
pub fn summary_from_parts(
    scenario: &str,
    scheduler: &str,
    instance: &Instance,
    m: usize,
    report: &RunReport,
    lb: &LowerBound,
    inv: &InvariantMonitor,
    histos: &RunHistograms,
) -> RunSummary {
    // On a completed run every job has released, so the tracker's running
    // max over released jobs *is* `instance.per_job_lower_bound(m)` — no
    // need to re-profile every graph at drain time (which dominated the
    // serve drain path). Only the interval-load bound still needs a pass.
    let interval = flowtree_opt::interval::interval_load_lower_bound(instance, m as u64);
    debug_assert_eq!(
        lb.lower_bound(),
        instance.per_job_lower_bound(m as u64),
        "LowerBound tracker must cover every job of a completed run"
    );
    let lower_bound = interval.max(lb.lower_bound()).max(1);
    let stats = &report.stats;
    RunSummary {
        scenario: scenario.to_string(),
        scheduler: scheduler.to_string(),
        m,
        jobs: instance.num_jobs(),
        steps: report.counters.steps,
        dispatched: report.counters.dispatched,
        utilization: stats.utilization,
        max_ready_depth: report.counters.max_ready_depth,
        max_flow: stats.max_flow,
        mean_flow: stats.mean_flow,
        makespan: stats.makespan,
        lower_bound,
        job_lower_bound: lb.lower_bound(),
        ratio: stats.max_flow as f64 / lower_bound as f64,
        invariants_clean: inv.is_clean(),
        total_violations: inv.total_violations(),
        violations: inv
            .violations()
            .iter()
            .map(|v| ViolationRecord { t: v.t, rule: v.rule.to_string(), detail: v.detail.clone() })
            .collect(),
        flow: (&histos.flow).into(),
        ready_depth: (&histos.ready_depth).into(),
        scheduled: (&histos.scheduled).into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtree_dag::builder::complete_kary;

    #[test]
    fn lpf_on_single_out_tree_reports_ratio_exactly_one() {
        // Corollary 5.4 + Lemma 5.3: for a single out-tree released at 0,
        // the Lemma 5.1 bound is exact and LPF achieves it.
        let inst = Instance::single(complete_kary(2, 4));
        let spec = "lpf".parse::<SchedulerSpec>().unwrap();
        let (s, _) = summarize("single", &inst, 4, spec).unwrap();
        assert_eq!(s.max_flow, s.lower_bound);
        assert_eq!(s.lower_bound, s.job_lower_bound);
        assert_eq!(s.ratio, 1.0);
        assert!(s.invariants_clean, "{:?}", s.violations);
        assert_eq!(s.flow.count, 1);
        assert_eq!(s.flow.max, s.max_flow);
    }

    #[test]
    fn summary_serde_roundtrips() {
        let inst = Instance::single(complete_kary(2, 3));
        let spec = "fifo".parse::<SchedulerSpec>().unwrap();
        let (s, _) = summarize("single", &inst, 2, spec).unwrap();
        let json = serde_json::to_string_pretty(&s).unwrap();
        let back: RunSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        // Key fields present in the JSON by name.
        for key in ["\"ratio\"", "\"lower_bound\"", "\"violations\"", "\"p99\""] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn markdown_report_carries_the_headline_numbers() {
        let inst = Instance::single(complete_kary(2, 3));
        let spec = "lpf".parse::<SchedulerSpec>().unwrap();
        let (s, _) = summarize("single", &inst, 2, spec).unwrap();
        let md = s.to_markdown();
        assert!(md.contains("competitive ratio"));
        assert!(md.contains("| invariants | clean |"));
        assert!(md.contains("ready depth"));
    }

    #[test]
    fn algo_a_passes_its_own_head_tail_checks() {
        // algo-a now carries the strict Thm 5.6 group-structure checks; a
        // genuine AlgoA run with a valid estimate must come out clean.
        let inst = Instance::single(complete_kary(2, 3));
        let spec = SchedulerSpec::from_name_with_half("algo-a", 4).unwrap();
        let (s, _) = summarize("single", &inst, 8, spec).unwrap();
        assert!(s.invariants_clean, "{:?}", s.violations);
        assert!(s.ratio >= 1.0);
    }
}
