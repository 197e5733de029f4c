//! Random series-parallel (fork-join) jobs — general DAGs beyond out-trees.
//!
//! The paper's Section 6 result (FIFO on batched instances) holds for
//! arbitrary DAGs; [`random_sp_expr`] provides the fork-join programs that
//! dynamic-multithreading languages actually produce, including nested
//! `parallel_for` structures ([`SpExpr::lower`] turns one into a job).

use crate::Rng;
use flowtree_dag::sp::SpExpr;
use rand::Rng as _;

/// Random series-parallel expression with roughly `target` units of work:
/// recursively split the budget into series or parallel compositions, with
/// strands at the leaves.
pub fn random_sp_expr(target: usize, rng: &mut Rng) -> SpExpr {
    assert!(target >= 1);
    if target <= 3 || rng.gen_bool(0.25) {
        return SpExpr::Strand(target.max(1));
    }
    let parts = rng.gen_range(2..=3.min(target / 2).max(2));
    let mut budgets = vec![target / parts; parts];
    budgets[0] += target - budgets.iter().sum::<usize>();
    let children: Vec<SpExpr> = budgets.iter().map(|&b| random_sp_expr(b.max(1), rng)).collect();
    if rng.gen_bool(0.5) {
        SpExpr::Series(children)
    } else {
        SpExpr::Parallel(children)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_sp_jobs_have_unique_source_and_sink() {
        let mut r = crate::rng(21);
        for _ in 0..20 {
            let g = random_sp_expr(40, &mut r).lower();
            assert_eq!(g.sources().len(), 1);
            assert_eq!(g.sinks().len(), 1);
            assert!(g.work() >= 30, "work {} too small", g.work());
        }
    }

    #[test]
    fn sp_expr_metrics_match_lowering() {
        let mut r = crate::rng(22);
        for _ in 0..20 {
            let e = random_sp_expr(60, &mut r);
            let g = e.lower();
            assert_eq!(e.work(), g.work());
            assert_eq!(e.span(), g.span());
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = random_sp_expr(50, &mut crate::rng(1)).lower();
        let b = random_sp_expr(50, &mut crate::rng(1)).lower();
        assert_eq!(a, b);
    }
}
