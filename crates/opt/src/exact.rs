//! Exact optimal maximum flow for small instances.
//!
//! Binary search over the objective value `F`, with a memoized depth-first
//! feasibility search deciding "can every job `i` finish by `r_i + F`?".
//! The searcher exploits two structural facts:
//!
//! * **Fullness dominance**: with unit subjobs and per-job deadlines, running
//!   *more* ready subjobs in a step never hurts (everything else can only
//!   shift earlier), so only selections of size `min(m, #ready)` are
//!   explored.
//! * **Pruning**: a state dies early if some job's remaining critical path
//!   cannot fit before its deadline, or if the remaining work with deadline
//!   `<= D` exceeds `m * (D - t)` for some deadline `D`.
//!
//! State space is exponential; the entry point refuses instances with more
//! than 64 total subjobs and is intended for validation of bounds and
//! algorithms on miniatures (the experiment harness uses constructed
//! known-OPT instances at scale instead).

use flowtree_sim::Instance;
use std::collections::HashSet;

/// Exact optimal maximum flow of `instance` on `m` processors, or `None` if
/// the instance has more than `max_nodes` (<= 64) subjobs in total.
pub fn exact_max_flow(instance: &Instance, m: usize, max_nodes: usize) -> Option<u64> {
    let total: usize = instance.jobs().iter().map(|j| j.graph.n()).sum();
    if total > max_nodes.min(64) {
        return None;
    }
    let searcher = Searcher::new(instance, m);
    // Binary search on F in [lb, ub].
    let mut lo = crate::bounds::combined_lower_bound(instance, m as u64).max(1);
    // Upper bound: serialize everything after the last release.
    let mut hi = instance.last_release() + total as u64;
    debug_assert!(searcher.feasible(hi));
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if searcher.feasible(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(lo)
}

/// Decide whether max flow `f` is achievable for `instance` on `m`
/// processors (exact, exponential). Public so tests can check that
/// [`exact_max_flow`]'s answer is tight: feasible at OPT, not at OPT − 1.
pub fn feasible_max_flow(instance: &Instance, m: usize, f: u64) -> Option<bool> {
    let total: usize = instance.jobs().iter().map(|j| j.graph.n()).sum();
    if total > 64 {
        return None;
    }
    Some(Searcher::new(instance, m).feasible(f))
}

struct Searcher<'a> {
    instance: &'a Instance,
    m: usize,
    /// Global index base per job.
    base: Vec<usize>,
    total: usize,
    /// Remaining height of each node (longest path to a leaf within its
    /// job): completing a node at time `t` forces its subtree to run until
    /// at least `t + height - 1`.
    heights: Vec<u32>,
    /// The parents of each node, as a mask of global indices: a node is
    /// ready once `done` covers its mask.
    preds: Vec<u64>,
}

impl<'a> Searcher<'a> {
    fn new(instance: &'a Instance, m: usize) -> Self {
        let mut base = Vec::with_capacity(instance.num_jobs());
        let mut total = 0usize;
        let mut heights = Vec::new();
        for spec in instance.jobs() {
            base.push(total);
            total += spec.graph.n();
            heights.extend(spec.graph.heights());
        }
        let mut preds = vec![0u64; total];
        for (spec, &b) in instance.jobs().iter().zip(&base) {
            for (u, v) in spec.graph.edges() {
                preds[b + v as usize] |= 1 << (b + u as usize);
            }
        }
        Searcher { instance, m, base, total, heights, preds }
    }

    fn feasible(&self, f: u64) -> bool {
        let full = if self.total == 64 {
            u64::MAX
        } else {
            (1u64 << self.total) - 1
        };
        let mut failed: HashSet<(u64, u64)> = HashSet::new();
        self.dfs(0, 0, full, f, &mut failed)
    }

    /// DFS over (time, completed set).
    fn dfs(&self, t: u64, done: u64, full: u64, f: u64, failed: &mut HashSet<(u64, u64)>) -> bool {
        if done == full {
            return true;
        }
        if failed.contains(&(t, done)) {
            return false;
        }

        // Prunes + ready collection.
        let mut ready: Vec<usize> = Vec::new();
        let mut next_release: Option<u64> = None;
        // Work remaining per deadline (sorted by job since deadlines are
        // r_i + f, nondecreasing in i).
        let mut deadline_work: Vec<(u64, u64)> = Vec::new();
        for (id, spec) in self.instance.iter() {
            let b = self.base[id.index()];
            let deadline = spec.release + f;
            let mut remaining = 0u64;
            for v in spec.graph.nodes() {
                let g = b + v.index();
                if done >> g & 1 == 1 {
                    continue;
                }
                remaining += 1;
                // Critical-path prune: node v and its deepest chain must fit.
                // v completes at >= max(t, release) + 1, subtree needs
                // heights[g] steps total.
                let earliest_end = t.max(spec.release) + self.heights[g] as u64;
                if earliest_end > deadline {
                    failed.insert((t, done));
                    return false;
                }
                if spec.release <= t && done & self.preds[g] == self.preds[g] {
                    ready.push(g);
                }
            }
            if remaining > 0 {
                if spec.release > t {
                    next_release = Some(match next_release {
                        Some(r) => r.min(spec.release),
                        None => spec.release,
                    });
                }
                match deadline_work.last_mut() {
                    Some((d, w)) if *d == deadline => *w += remaining,
                    _ => deadline_work.push((deadline, remaining)),
                }
            }
        }
        // Deadline-load prune: work due by D must fit in (t, D].
        let mut cum = 0u64;
        deadline_work.sort_unstable();
        for &(d, w) in &deadline_work {
            cum += w;
            if cum > (d.saturating_sub(t)) * self.m as u64 {
                failed.insert((t, done));
                return false;
            }
        }

        if ready.is_empty() {
            // Jump to the next release (there must be one, else infeasible
            // state would have no pending work — contradiction with done !=
            // full and all jobs released implying some ready node exists).
            match next_release {
                Some(r) => {
                    if self.dfs(r, done, full, f, failed) {
                        return true;
                    }
                    failed.insert((t, done));
                    return false;
                }
                None => unreachable!("unfinished DAG with no ready node"),
            }
        }

        let k = self.m.min(ready.len());
        // Enumerate k-subsets of `ready` (fullness dominance).
        let mut chosen = vec![0usize; k];
        let ok = self.combos(&ready, k, 0, 0, &mut chosen, t, done, full, f, failed);
        if !ok {
            failed.insert((t, done));
        }
        ok
    }

    #[allow(clippy::too_many_arguments)]
    fn combos(
        &self,
        ready: &[usize],
        k: usize,
        start: usize,
        depth: usize,
        chosen: &mut [usize],
        t: u64,
        done: u64,
        full: u64,
        f: u64,
        failed: &mut HashSet<(u64, u64)>,
    ) -> bool {
        if depth == k {
            let mut nd = done;
            for &g in chosen.iter() {
                nd |= 1 << g;
            }
            return self.dfs(t + 1, nd, full, f, failed);
        }
        // Not enough elements left to fill the subset.
        if ready.len() - start < k - depth {
            return false;
        }
        for i in start..ready.len() {
            chosen[depth] = ready[i];
            if self.combos(ready, k, i + 1, depth + 1, chosen, t, done, full, f, failed) {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtree_dag::builder::{caterpillar, chain, star};
    use flowtree_dag::{DepthProfile, GraphBuilder, JobGraph};
    use flowtree_sim::JobSpec;

    #[test]
    fn single_chain_opt_is_length() {
        let inst = Instance::single(chain(5));
        assert_eq!(exact_max_flow(&inst, 3, 64), Some(5));
    }

    #[test]
    fn single_star_matches_formula() {
        let g = star(7);
        for m in 1..=4usize {
            let inst = Instance::single(g.clone());
            assert_eq!(
                exact_max_flow(&inst, m, 64),
                Some(DepthProfile::new(&g).opt_single_job(m as u64))
            );
        }
    }

    #[test]
    fn corollary_5_4_verified_on_shapes() {
        for g in [
            caterpillar(4, &[2, 0, 3, 1]),
            flowtree_dag::builder::complete_kary(2, 3),
            flowtree_dag::builder::forest(&[chain(3), star(4)]),
        ] {
            for m in 1..=3usize {
                let inst = Instance::single(g.clone());
                assert_eq!(
                    exact_max_flow(&inst, m, 64).unwrap(),
                    DepthProfile::new(&g).opt_single_job(m as u64),
                    "shape with work {} on m={m}",
                    g.work()
                );
            }
        }
    }

    #[test]
    fn staggered_releases_interleave() {
        // chain(3) at t=0 and chain(3) at t=1 on one processor: the optimal
        // alternates; each job's flow is at most 5 (OPT = 5).
        let inst = Instance::new(vec![
            JobSpec { graph: chain(3), release: 0 },
            JobSpec { graph: chain(3), release: 1 },
        ]);
        assert_eq!(exact_max_flow(&inst, 1, 64), Some(5));
        // With two processors: each chain runs unimpeded: flows 3 and 3.
        assert_eq!(exact_max_flow(&inst, 2, 64), Some(3));
    }

    #[test]
    fn general_dag_supported() {
        // The searcher is not restricted to out-forests: a diamond.
        let mut b = GraphBuilder::new(4);
        b.edge(0, 1).edge(0, 2).edge(1, 3).edge(2, 3);
        let g = b.build().unwrap();
        let inst = Instance::single(g);
        assert_eq!(exact_max_flow(&inst, 2, 64), Some(3));
        let inst2 = Instance::single({
            let mut b = GraphBuilder::new(4);
            b.edge(0, 1).edge(0, 2).edge(1, 3).edge(2, 3);
            b.build().unwrap()
        });
        assert_eq!(exact_max_flow(&inst2, 1, 64), Some(4));
    }

    #[test]
    fn refuses_large_instances() {
        let inst = Instance::single(star(100));
        assert_eq!(exact_max_flow(&inst, 4, 64), None);
        assert_eq!(exact_max_flow(&inst, 4, 200), None, "hard cap at 64");
    }

    #[test]
    fn feasibility_endpoint() {
        let inst = Instance::single(star(4));
        // OPT on m=2 is 3 (root + 2 waves).
        assert_eq!(feasible_max_flow(&inst, 2, 2), Some(false));
        assert_eq!(feasible_max_flow(&inst, 2, 3), Some(true));
    }

    #[test]
    fn overload_window_instance() {
        // Three star(5)s at consecutive releases on m=2: interval bound
        // predicts F >= ceil(18/2) - 2 = 7; exact must be >= that.
        let jobs: Vec<JobSpec> = (0..3).map(|i| JobSpec { graph: star(5), release: i }).collect();
        let inst = Instance::new(jobs);
        let opt = exact_max_flow(&inst, 2, 64).unwrap();
        let lb = crate::interval::interval_load_lower_bound(&inst, 2);
        assert!(opt >= lb);
        assert_eq!(opt, 8);
    }

    #[test]
    fn exact_respects_all_lower_bounds_property() {
        // A cross-validation sweep over miniatures.
        let shapes: Vec<JobGraph> = vec![chain(4), star(3), caterpillar(2, &[1, 2])];
        for (i, a) in shapes.iter().enumerate() {
            for b in &shapes[i..] {
                for (ra, rb) in [(0u64, 0u64), (0, 2), (1, 3)] {
                    let inst = Instance::new(vec![
                        JobSpec { graph: a.clone(), release: ra },
                        JobSpec { graph: b.clone(), release: rb },
                    ]);
                    for m in 1..=3usize {
                        let opt = exact_max_flow(&inst, m, 64).unwrap();
                        let lb = crate::bounds::combined_lower_bound(&inst, m as u64);
                        assert!(opt >= lb, "opt {opt} < lb {lb}");
                        // And OPT is at most the trivial serialization.
                        assert!(opt <= inst.last_release() + inst.total_work());
                    }
                }
            }
        }
    }
}
