//! Property tests for the bounds/exact machinery: the certified chain
//! `every lower bound <= exact OPT <= every feasible schedule` must hold on
//! random miniatures, and the classical algorithms must agree with
//! exhaustive search.

use flowtree_dag::{classify, GraphBuilder, JobGraph};
use flowtree_opt::{bounds, exact, interval, single};
use flowtree_sim::{Instance, JobSpec};
use proptest::prelude::*;

// Classical in-forest algorithms, kept here as oracles for the exact
// machinery: no library code calls them.
#[path = "oracles/bgj.rs"]
mod bgj;
#[path = "oracles/hu.rs"]
mod hu;

fn arb_tree(max_n: usize) -> impl Strategy<Value = JobGraph> {
    (1..=max_n).prop_flat_map(|n| {
        proptest::collection::vec(0..usize::MAX, n.saturating_sub(1)).prop_map(move |cs| {
            let mut b = GraphBuilder::new(n);
            for (i, &c) in cs.iter().enumerate() {
                b.edge((c % (i + 1)) as u32, (i + 1) as u32);
            }
            b.build().unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn bounds_below_exact_opt(
        a in arb_tree(7),
        b in arb_tree(7),
        ra in 0u64..4,
        rb in 0u64..4,
        m in 1usize..4,
    ) {
        let inst = Instance::new(vec![
            JobSpec { graph: a, release: ra },
            JobSpec { graph: b, release: rb },
        ]);
        let opt = exact::exact_max_flow(&inst, m, 64).unwrap();
        prop_assert!(bounds::combined_lower_bound(&inst, m as u64) <= opt);
        prop_assert!(interval::interval_load_lower_bound(&inst, m as u64) <= opt);
        prop_assert!(inst.per_job_lower_bound(m as u64) <= opt);
        // Monotone in m: more processors never hurt.
        if m > 1 {
            let opt_more = exact::exact_max_flow(&inst, m + 1, 64).unwrap();
            prop_assert!(opt_more <= opt);
        }
    }

    #[test]
    fn corollary_5_4_exact_on_random_minis(g in arb_tree(12), m in 1usize..4) {
        let inst = Instance::single(g.clone());
        let formula = bounds::job_lower_bound(&g, m as u64);
        let exact = exact::exact_max_flow(&inst, m, 24).unwrap();
        prop_assert_eq!(formula, exact);
    }

    #[test]
    fn hu_equals_exact_on_random_in_trees(g in arb_tree(10), m in 1usize..4) {
        let it = classify::reverse(&g);
        let inst = Instance::single(it.clone());
        prop_assert_eq!(
            hu::hu_makespan(&it, m),
            exact::exact_max_flow(&inst, m, 24).unwrap()
        );
    }

    #[test]
    fn hu_duality_with_formula(g in arb_tree(60), m in 1usize..8) {
        let it = classify::reverse(&g);
        prop_assert_eq!(
            hu::hu_makespan(&it, m),
            bounds::job_lower_bound(&g, m as u64)
        );
    }

    #[test]
    fn bgj_uniform_deadline_equals_hu(g in arb_tree(30), m in 1usize..5) {
        let it = classify::reverse(&g);
        let d = vec![0i64; it.n()];
        prop_assert_eq!(
            bgj::bgj_max_lateness(&it, &d, m),
            hu::hu_makespan(&it, m) as i64
        );
    }

    #[test]
    fn bgj_lateness_shift_invariance(g in arb_tree(20), m in 1usize..4, shift in -5i64..6) {
        // Adding `shift` to all deadlines subtracts `shift` from Lmax.
        let it = classify::reverse(&g);
        let d: Vec<i64> = (0..it.n()).map(|i| (i % 5) as i64).collect();
        let ds: Vec<i64> = d.iter().map(|&x| x + shift).collect();
        prop_assert_eq!(
            bgj::bgj_max_lateness(&it, &ds, m),
            bgj::bgj_max_lateness(&it, &d, m) - shift
        );
    }

    #[test]
    fn single_group_opt_matches_union(g1 in arb_tree(20), g2 in arb_tree(20), m in 1usize..6) {
        let inst = Instance::new(vec![
            JobSpec { graph: g1.clone(), release: 0 },
            JobSpec { graph: g2.clone(), release: 0 },
        ]);
        let (u, _) = JobGraph::disjoint_union(&[&g1, &g2]);
        prop_assert_eq!(
            single::single_group_opt(&inst, m as u64),
            bounds::job_lower_bound(&u, m as u64)
        );
    }

    #[test]
    fn feasibility_is_monotone_in_f(g in arb_tree(8), m in 1usize..3) {
        let inst = Instance::single(g);
        let opt = exact::exact_max_flow(&inst, m, 24).unwrap();
        prop_assert_eq!(exact::feasible_max_flow(&inst, m, opt), Some(true));
        if opt > 1 {
            prop_assert_eq!(exact::feasible_max_flow(&inst, m, opt - 1), Some(false));
        }
        prop_assert_eq!(exact::feasible_max_flow(&inst, m, opt + 5), Some(true));
    }
}
