//! E5 — **Lemma 5.1 / Corollary 5.4**: LPF is optimal for a single
//! out-forest job, and OPT equals the closed form `max_d (d + ceil(W(d)/m))`.
//!
//! Three-way agreement is checked per (shape, m): the LPF schedule's flow,
//! the Corollary 5.4 formula, and — on miniatures — the exact
//! branch-and-bound optimum.

use crate::{Effort, Report, Table};
use flowtree_core::lpf::lpf_levels;
use flowtree_sim::Instance;
use flowtree_workloads::trees::shape_catalogue;

/// Run E5.
pub fn run(effort: Effort) -> Report {
    let mut report =
        Report::new("E5", "Corollary 5.4: LPF flow = max_d (d + ⌈W(d)/m⌉) = exact OPT");

    // Part A: formula vs LPF at scale.
    let n = effort.pick(500, 20_000);
    let mut rng = flowtree_workloads::rng(7);
    let mut big = Table::new(
        format!("LPF vs formula, trees with ~{n} nodes"),
        &["shape", "work", "span", "m", "LPF flow", "formula", "agree"],
    );
    for (name, g) in shape_catalogue(n, &mut rng) {
        for m in [2usize, 4, 16, 64] {
            let flow = lpf_levels(&g, m).len() as u64;
            let formula = g.opt_single_job(m as u64);
            big.row(vec![
                name.to_string(),
                g.work().to_string(),
                g.span().to_string(),
                m.to_string(),
                flow.to_string(),
                formula.to_string(),
                (flow == formula).to_string(),
            ]);
        }
    }
    report.table(big);

    // Part B: formula vs exhaustive search on miniatures.
    let mut rng = flowtree_workloads::rng(8);
    let mut small = Table::new(
        "formula vs exact branch-and-bound (miniature trees)",
        &["nodes", "m", "formula", "exact", "agree"],
    );
    let minis = effort.pick(12, 40);
    for i in 0..minis {
        let g = flowtree_workloads::trees::random_recursive_tree(4 + i % 12, &mut rng);
        for m in 1..=3usize {
            let formula = g.opt_single_job(m as u64);
            let exact = flowtree_opt::exact_max_flow(&Instance::single(g.clone()), m, 24)
                .expect("miniature fits");
            small.row(vec![
                g.n().to_string(),
                m.to_string(),
                formula.to_string(),
                exact.to_string(),
                (formula == exact).to_string(),
            ]);
        }
    }
    report.table(small);
    report.note(
        "Perfect three-way agreement: the LPF schedule attains the Lemma 5.1 \
         lower bound on every instance (Corollary 5.4), and exhaustive search \
         confirms no schedule does better.",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_rows_agree() {
        let r = run(Effort::Quick);
        for t in &r.tables {
            let agree_col = t.columns().len() - 1;
            for row in 0..t.len() {
                assert_eq!(t.cell(row, agree_col), "true", "row {row} of '{}'", t.title);
            }
        }
    }

    /// The large cases test something only if each tree has most of its
    /// target size (a Galton–Watson draw can die out at the root). The
    /// full-effort draws are checked in `flowtree_workloads::trees`.
    #[test]
    fn every_large_case_has_at_least_half_its_target_work() {
        let big = &run(Effort::Quick).tables[0];
        for row in 0..big.len() {
            let work: u64 = big.cell(row, 1).parse().unwrap();
            assert!(2 * work >= 500, "{} has work {work} < 500/2", big.cell(row, 0));
        }
    }
}
