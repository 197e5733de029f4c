//! E16 — Extension: **the practical shoot-out**.
//!
//! Every scheduler in the repository on every scenario preset: max flow
//! (the paper's objective), mean flow (the ℓ₁ counterpart the paper
//! contrasts it with), and ratio against the certified lower bound. This is
//! the table a practitioner would consult — and it shows the paper's
//! qualitative story end-to-end: FIFO variants are excellent on benign
//! mixes, Algorithm 𝒜's guarantees cost little, and max-flow (fairness) and
//! mean-flow (throughput-ish) objectives pull in different directions for
//! SJF-like policies.

use crate::summary::summarize;
use crate::sweep::parallel_map_progress;
use crate::{table::f3, Effort, Report, Table};
use flowtree_core::SchedulerSpec;
use flowtree_workloads::mix::Scenario;

/// Run E16.
pub fn run(effort: Effort) -> Report {
    let mut report = Report::new("E16", "Extension: all schedulers × all scenarios");
    let m = 8usize;
    let jobs = effort.pick(16, 60);

    for scenario in Scenario::presets(jobs) {
        let inst = scenario.instantiate(&mut flowtree_workloads::rng(42));
        let lb = flowtree_opt::bounds::combined_lower_bound(&inst, m as u64).max(1);
        let mut table = Table::new(
            format!(
                "scenario '{}' — {} jobs, work {}, lower bound {lb} (m = {m})",
                scenario.name,
                inst.num_jobs(),
                inst.total_work(),
            ),
            &[
                "scheduler",
                "max flow",
                "ratio ≤",
                "mean flow",
                "utilization",
                "flow p99",
                "invariants",
            ],
        );
        // Each monitored cell (scheduler + LowerBound + InvariantMonitor +
        // RunHistograms) is Send, so the matrix fans out across worker
        // threads; parallel_map_progress preserves input order, so the
        // table is byte-identical to the sequential loop it replaced.
        let summaries = parallel_map_progress(
            SchedulerSpec::matrix(),
            0,
            |spec| {
                summarize(scenario.name, &inst, m, *spec)
                    .unwrap_or_else(|e| panic!("{}: {e}", spec.name()))
                    .0
            },
            |_, _| {},
        );
        for s in summaries {
            table.row(vec![
                s.scheduler.clone(),
                s.max_flow.to_string(),
                f3(s.ratio),
                f3(s.mean_flow),
                f3(s.utilization),
                s.flow.p99.to_string(),
                if s.invariants_clean {
                    "clean".to_string()
                } else {
                    format!("{} violation(s)", s.total_violations)
                },
            ]);
        }
        report.table(table);
    }
    report.note(
        "Work-conserving FIFO variants track the lower bound closely on all \
         presets (these are not adversarial instances); the guess-and-double \
         𝒜 pays a modest constant for its worst-case guarantee; LRWF \
         sometimes wins on mean flow while losing on max flow — the fairness \
         trade-off that motivates the paper's ℓ∞ objective. The invariants \
         column is the per-scheduler monitor verdict (work conservation, and \
         the Lemma 5.2 rectangle tail for LPF, FIFO[highest-height]).",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_all_scenarios_and_schedulers() {
        let r = run(Effort::Quick);
        assert_eq!(r.tables.len(), 3);
        for t in &r.tables {
            assert_eq!(t.len(), 7, "7 schedulers per scenario");
            for row in 0..t.len() {
                let ratio: f64 = t.cell(row, 2).parse().unwrap();
                assert!(ratio >= 1.0 - 1e-9, "ratio below a certified lower bound");
                let util: f64 = t.cell(row, 4).parse().unwrap();
                assert!((0.0..=1.0).contains(&util));
                // Every matrix scheduler upholds its declared invariants on
                // the benign presets.
                assert_eq!(t.cell(row, 6), "clean", "row {row} of '{}'", t.title);
            }
        }
    }

    #[test]
    fn parallel_matrix_matches_sequential_summaries_exactly() {
        // The satellite's "output unchanged" check: the parallel fan-out
        // must reproduce the sequential summarize() cells verbatim.
        let r = run(Effort::Quick);
        let m = 8usize;
        let jobs = Effort::Quick.pick(16, 60);
        for (scenario, t) in Scenario::presets(jobs).iter().zip(&r.tables) {
            let inst = scenario.instantiate(&mut flowtree_workloads::rng(42));
            for (row, spec) in SchedulerSpec::matrix().into_iter().enumerate() {
                let (s, _) = summarize(scenario.name, &inst, m, spec).unwrap();
                assert_eq!(t.cell(row, 0), s.scheduler, "row order shifted");
                assert_eq!(t.cell(row, 1), s.max_flow.to_string());
                assert_eq!(t.cell(row, 2), f3(s.ratio));
                assert_eq!(t.cell(row, 3), f3(s.mean_flow));
            }
        }
    }

    #[test]
    fn fifo_is_near_optimal_on_benign_mixes() {
        let r = run(Effort::Quick);
        for t in &r.tables {
            let fifo_ratio: f64 = t.cell(0, 2).parse().unwrap();
            assert!(
                fifo_ratio <= 3.0,
                "FIFO ratio {fifo_ratio} unexpectedly large on '{}'",
                t.title
            );
        }
    }
}
