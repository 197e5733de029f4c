//! Hu's algorithm (1961) — optimal makespan for unit-task **in-forests**.
//!
//! The classical result behind the paper's related-work discussion: for
//! in-trees/in-forests of unit tasks on `m` identical processors,
//! highest-level-first list scheduling minimizes makespan, where the *level*
//! of a task is the number of nodes on its path to the root (i.e. its height
//! in our out-tree vocabulary, after reversing edges).
//!
//! Duality check used in tests: reading a schedule backwards turns an
//! in-forest into an out-forest, so Hu's optimal makespan must equal the
//! Corollary 5.4 value of the reversed graph — the two classical results
//! validate each other.

use flowtree_dag::{classify, JobGraph, NodeId};

/// Run Hu's highest-level-first algorithm on an in-forest; returns the
/// schedule as levels of node ids (step `i` runs `levels[i]`).
///
/// Panics if `g` is not an in-forest.
pub fn hu_schedule(g: &JobGraph, m: usize) -> Vec<Vec<u32>> {
    assert!(m >= 1);
    assert!(classify::is_in_forest(g), "Hu's algorithm requires an in-forest");
    // Level of v = longest path from v to its root = our height... in an
    // in-forest each node has <= 1 child, so the path to the root is unique
    // and its length is the node's height in the DAG sense.
    let level = g.heights();

    // Bucket the *ready* tasks by level; initial ready = sources.
    let max_l = level.iter().copied().max().unwrap_or(1) as usize;
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); max_l + 1];
    let mut indeg = vec![0u32; g.n()];
    for (_, v) in g.edges() {
        indeg[v as usize] += 1;
    }
    for v in g.nodes() {
        if indeg[v.index()] == 0 {
            buckets[level[v.index()] as usize].push(v.0);
        }
    }
    let mut remaining = g.n();
    let mut schedule = Vec::new();
    let mut cur = max_l;
    while remaining > 0 {
        let mut step = Vec::with_capacity(m);
        let mut scan = cur;
        while step.len() < m && scan > 0 {
            while scan > 0 && buckets[scan].is_empty() {
                scan -= 1;
            }
            if scan == 0 {
                break;
            }
            let take = (m - step.len()).min(buckets[scan].len());
            let start = buckets[scan].len() - take;
            step.extend(buckets[scan].drain(start..));
        }
        debug_assert!(!step.is_empty());
        remaining -= step.len();
        let mut enabled = Vec::new();
        for &v in &step {
            for &c in g.children(NodeId(v)) {
                indeg[c as usize] -= 1;
                if indeg[c as usize] == 0 {
                    enabled.push(c);
                }
            }
        }
        for c in enabled {
            let l = level[c as usize] as usize;
            buckets[l].push(c);
            cur = cur.max(l);
        }
        schedule.push(step);
    }
    schedule
}

/// Optimal makespan of a unit-task in-forest on `m` processors.
pub fn hu_makespan(g: &JobGraph, m: usize) -> u64 {
    hu_schedule(g, m).len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtree_dag::builder::{chain, complete_kary, star};
    use flowtree_dag::classify::reverse;
    use flowtree_dag::DepthProfile;
    use flowtree_sim::Instance;

    fn verify(g: &JobGraph, levels: &[Vec<u32>], m: usize) {
        let inst = Instance::single(g.clone());
        let mut s = flowtree_sim::Schedule::new(m);
        for level in levels {
            s.push_step(level.iter().map(|&v| (flowtree_dag::JobId(0), NodeId(v))).collect());
        }
        s.verify(&inst).unwrap();
    }

    #[test]
    fn chain_is_sequential() {
        let g = chain(6); // a chain is both an in- and out-forest
        assert_eq!(hu_makespan(&g, 4), 6);
        verify(&g, &hu_schedule(&g, 4), 4);
    }

    #[test]
    fn reversed_star_is_a_join() {
        let g = reverse(&star(6)); // 6 leaves feeding one sink
        assert_eq!(hu_makespan(&g, 3), 3); // 2 waves of leaves + sink
        assert_eq!(hu_makespan(&g, 6), 2);
        verify(&g, &hu_schedule(&g, 3), 3);
    }

    #[test]
    fn duality_with_corollary_5_4() {
        // Hu's makespan on an in-forest == Cor 5.4 OPT of the reversed
        // out-forest, for a family of shapes and machine sizes.
        let shapes = [
            reverse(&complete_kary(2, 5)),
            reverse(&complete_kary(3, 4)),
            reverse(&flowtree_dag::builder::caterpillar(6, &[3, 1, 0, 2, 5, 1])),
            reverse(&flowtree_dag::builder::forest(&[star(5), chain(4)])),
        ];
        for g in &shapes {
            let out = reverse(g);
            let profile = DepthProfile::new(&out);
            for m in 1..=8usize {
                assert_eq!(
                    hu_makespan(g, m),
                    profile.opt_single_job(m as u64),
                    "duality failed for m={m}"
                );
                verify(g, &hu_schedule(g, m), m);
            }
        }
    }

    #[test]
    fn hu_matches_exact_on_miniatures() {
        let g = reverse(&flowtree_dag::builder::caterpillar(3, &[2, 1, 2]));
        for m in 1..=3usize {
            let inst = Instance::single(g.clone());
            assert_eq!(
                hu_makespan(&g, m),
                flowtree_opt::exact::exact_max_flow(&inst, m, 64).unwrap()
            );
        }
    }

    #[test]
    #[should_panic(expected = "in-forest")]
    fn rejects_out_trees_with_branching() {
        hu_schedule(&star(3), 2);
    }
}
