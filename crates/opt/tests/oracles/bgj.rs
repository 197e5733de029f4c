//! Brucker–Garey–Johnson (1977) — optimal max-lateness scheduling of
//! unit-task **in-forests with deadlines** on `m` identical processors.
//!
//! The second classical tree-scheduling result in the paper's related-work
//! lineage (alongside Hu's algorithm). Given a deadline `d(v)` per node,
//! BGJ first propagates **modified deadlines** from each root outward:
//!
//! ```text
//! d'(root) = d(root);     d'(v) = min(d(v), d'(succ(v)) - 1)
//! ```
//!
//! (a node must finish early enough for its unique successor chain), then
//! list-schedules ready nodes by earliest modified deadline. The resulting
//! schedule minimizes `Lmax = max_v (C_v - d(v))`.
//!
//! Here it serves as an independently-tested oracle for deadline-feasibility
//! questions on tree jobs, cross-validating the exact searcher.

use flowtree_dag::{classify, JobGraph, NodeId};

/// The BGJ schedule (levels of node ids) and its max lateness.
pub fn bgj_schedule(g: &JobGraph, deadlines: &[i64], m: usize) -> (Vec<Vec<u32>>, i64) {
    assert!(m >= 1);
    assert_eq!(deadlines.len(), g.n(), "one deadline per node");
    assert!(
        classify::is_in_forest(g),
        "BGJ requires an in-forest (each node at most one successor)"
    );

    // Modified deadlines, roots (sinks) first = reverse topological order.
    let mut dmod = deadlines.to_vec();
    for &v in g.topo_order().iter().rev() {
        if let Some(succ) = g.children(NodeId(v)).iter().next() {
            dmod[v as usize] = dmod[v as usize].min(dmod[succ as usize] - 1);
        }
    }

    // List-schedule by earliest modified deadline among ready nodes.
    let mut indeg = vec![0u32; g.n()];
    for (_, v) in g.edges() {
        indeg[v as usize] += 1;
    }
    let mut ready: Vec<u32> = g.nodes().filter(|&v| indeg[v.index()] == 0).map(|v| v.0).collect();
    let mut schedule: Vec<Vec<u32>> = Vec::new();
    let mut lmax = i64::MIN;
    let mut remaining = g.n();
    while remaining > 0 {
        // Earliest modified deadline first; take m.
        ready.sort_by_key(|&v| dmod[v as usize]);
        let take = m.min(ready.len());
        let step: Vec<u32> = ready.drain(..take).collect();
        remaining -= step.len();
        let t = schedule.len() as i64 + 1; // completion time of this step
        for &v in &step {
            lmax = lmax.max(t - deadlines[v as usize]);
            for c in g.children(NodeId(v)) {
                indeg[c as usize] -= 1;
                if indeg[c as usize] == 0 {
                    ready.push(c);
                }
            }
        }
        schedule.push(step);
    }
    (schedule, lmax)
}

/// Optimal max lateness of a unit-task in-forest with per-node deadlines.
pub fn bgj_max_lateness(g: &JobGraph, deadlines: &[i64], m: usize) -> i64 {
    bgj_schedule(g, deadlines, m).1
}

/// Can the in-forest be scheduled so that every node meets its deadline?
pub fn bgj_feasible(g: &JobGraph, deadlines: &[i64], m: usize) -> bool {
    bgj_max_lateness(g, deadlines, m) <= 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtree_dag::builder::{chain, complete_kary, star};
    use flowtree_dag::classify::reverse;

    /// Test-local exhaustive minimizer of Lmax (tiny inputs only): DFS over
    /// all maximal selections per step.
    fn brute_lmax(g: &JobGraph, deadlines: &[i64], m: usize) -> i64 {
        fn go(
            g: &JobGraph,
            deadlines: &[i64],
            m: usize,
            done: u32,
            t: i64,
            best: &mut i64,
            cur: i64,
        ) {
            if cur >= *best {
                return; // can't improve
            }
            if done.count_ones() as usize == g.n() {
                *best = cur;
                return;
            }
            let edges = g.edges();
            let ready: Vec<u32> = (0..g.n() as u32)
                .filter(|&v| {
                    done >> v & 1 == 0 && edges.iter().all(|&(u, w)| w != v || done >> u & 1 == 1)
                })
                .collect();
            let k = m.min(ready.len());
            // Enumerate k-subsets.
            fn combos(ready: &[u32], k: usize, start: usize, acc: u32, out: &mut Vec<u32>) {
                if k == 0 {
                    out.push(acc);
                    return;
                }
                for i in start..ready.len() {
                    combos(ready, k - 1, i + 1, acc | (1 << ready[i]), out);
                }
            }
            let mut sets = Vec::new();
            combos(&ready, k, 0, 0, &mut sets);
            for set in sets {
                let mut worst = cur;
                for v in 0..g.n() as u32 {
                    if set >> v & 1 == 1 {
                        worst = worst.max(t + 1 - deadlines[v as usize]);
                    }
                }
                go(g, deadlines, m, done | set, t + 1, best, worst);
            }
        }
        let mut best = i64::MAX;
        go(g, deadlines, m, 0, 0, &mut best, i64::MIN);
        best
    }

    #[test]
    fn chain_with_tight_deadlines() {
        let g = chain(4); // also an in-forest
                          // Deadlines exactly at positions: lateness 0.
        assert_eq!(bgj_max_lateness(&g, &[1, 2, 3, 4], 2), 0);
        // Root (node 0) deadline 0 is impossible: lateness 1.
        assert_eq!(bgj_max_lateness(&g, &[0, 2, 3, 4], 2), 1);
        assert!(!bgj_feasible(&g, &[0, 2, 3, 4], 2));
    }

    #[test]
    fn modified_deadlines_pull_predecessors_earlier() {
        // reverse(star(2)): nodes 1 and 2 feed sink 0. Sink deadline 2 means
        // both leaves are effectively due at 1 (modified deadline), despite
        // their nominal deadline 10.
        let g = reverse(&star(2));
        let d = vec![2i64, 10, 10];
        // m=2: leaves at step 1, sink at step 2 -> lateness 0.
        assert_eq!(bgj_max_lateness(&g, &d, 2), 0);
        assert!(bgj_feasible(&g, &d, 2));
        // m=1: one leaf must slip to step 2, sink to step 3 -> lateness 1.
        assert_eq!(bgj_max_lateness(&g, &d, 1), 1);
        assert!(!bgj_feasible(&g, &d, 1));
    }

    #[test]
    fn against_brute_force_small() {
        let shapes = [
            reverse(&star(3)),
            reverse(&flowtree_dag::builder::caterpillar(3, &[1, 1, 0])),
            chain(5),
            reverse(&complete_kary(2, 3)),
        ];
        // A few deadline patterns per shape.
        for g in &shapes {
            let n = g.n();
            let patterns: Vec<Vec<i64>> = vec![
                (0..n).map(|i| (i as i64 % 3) + 2).collect(),
                (0..n).map(|i| (n - i) as i64).collect(),
                vec![3; n],
                (0..n).map(|i| i as i64 + 1).collect(),
            ];
            for d in patterns {
                for m in 1..=3usize {
                    assert_eq!(
                        bgj_max_lateness(g, &d, m),
                        brute_lmax(g, &d, m),
                        "shape n={n} deadlines {d:?} m={m}"
                    );
                }
            }
        }
    }

    #[test]
    fn uniform_deadlines_reduce_to_hu_makespan() {
        for g in [
            reverse(&complete_kary(2, 4)),
            reverse(&flowtree_dag::builder::caterpillar(5, &[2, 0, 1, 3, 0])),
        ] {
            for m in 1..=4usize {
                let d = vec![0i64; g.n()];
                // Lmax with all deadlines 0 == makespan.
                assert_eq!(bgj_max_lateness(&g, &d, m), crate::hu::hu_makespan(&g, m) as i64);
            }
        }
    }

    #[test]
    fn schedules_are_feasible() {
        let g = reverse(&complete_kary(3, 3));
        let d: Vec<i64> = (0..g.n()).map(|i| (i % 4) as i64 + 3).collect();
        let (levels, _) = bgj_schedule(&g, &d, 3);
        // Feasibility: precedence respected and every node exactly once.
        let mut when = vec![0usize; g.n()];
        let mut count = 0;
        for (i, level) in levels.iter().enumerate() {
            assert!(level.len() <= 3);
            for &v in level {
                when[v as usize] = i + 1;
                count += 1;
            }
        }
        assert_eq!(count, g.n());
        for (u, v) in g.edges() {
            assert!(when[u as usize] < when[v as usize]);
        }
    }

    #[test]
    #[should_panic(expected = "in-forest")]
    fn rejects_branching_out_trees() {
        bgj_schedule(&star(3), &[1, 1, 1, 1], 2);
    }
}
