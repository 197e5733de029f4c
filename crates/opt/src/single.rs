//! Corollary 5.4 — the exact optimal maximum flow of a single out-forest
//! release group.
//!
//! For one out-forest job `J` released at time 0 on `m` processors,
//! `OPT = max_{d in [0, D]} (d + ceil(W(d)/m))`: the lower bound of
//! Lemma 5.1 is attained by the LPF schedule (Lemma 5.3 with α = 1). The
//! same holds for several jobs released *together* by treating their union
//! as one job (Section 5.3 does exactly this). For one job the exact OPT
//! is therefore [`job_lower_bound`](crate::bounds::job_lower_bound), the
//! Lemma 5.1 bound itself.

use flowtree_dag::DepthProfile;
use flowtree_sim::Instance;

/// Exact OPT for an instance in which *all jobs share one release time*
/// (the union is treated as a single out-forest job). Panics otherwise —
/// this formula is simply wrong for staggered releases; use
/// [`crate::exact::exact_max_flow`] or lower bounds there.
pub fn single_group_opt(instance: &Instance, m: u64) -> u64 {
    let r0 = instance.release(flowtree_dag::JobId(0));
    assert!(
        instance.jobs().iter().all(|j| j.release == r0),
        "single_group_opt requires a common release time"
    );
    // The union's depth counts are the members' counts summed per depth,
    // so no union graph (and no profile per job) is built.
    let mut counts: Vec<u64> = Vec::new();
    for spec in instance.jobs() {
        let c = spec.graph.depth_counts();
        if counts.len() < c.len() {
            counts.resize(c.len(), 0);
        }
        for (sum, &n) in counts.iter_mut().zip(c) {
            *sum += u64::from(n);
        }
    }
    DepthProfile::opt_of_depth_counts(&counts, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::job_lower_bound;
    use flowtree_dag::builder::{caterpillar, chain, complete_kary, star};
    use flowtree_sim::JobSpec;

    #[test]
    fn matches_profile_for_one_job() {
        let g = complete_kary(2, 5);
        for m in 1..=8 {
            assert_eq!(job_lower_bound(&g, m), DepthProfile::new(&g).opt_single_job(m));
        }
    }

    #[test]
    fn group_opt_equals_union_opt() {
        let parts = [chain(5), star(7), caterpillar(3, &[2, 0, 4])];
        let inst =
            Instance::new(parts.iter().map(|g| JobSpec { graph: g.clone(), release: 3 }).collect());
        let refs: Vec<&flowtree_dag::JobGraph> = parts.iter().collect();
        let (union, _) = flowtree_dag::JobGraph::disjoint_union(&refs);
        for m in 1..=6 {
            assert_eq!(single_group_opt(&inst, m), job_lower_bound(&union, m));
        }
    }

    #[test]
    fn group_opt_matches_exact_search_small() {
        let inst = Instance::new(vec![
            JobSpec { graph: star(3), release: 0 },
            JobSpec { graph: chain(4), release: 0 },
        ]);
        for m in 1..=3usize {
            let formula = single_group_opt(&inst, m as u64);
            let exact = crate::exact::exact_max_flow(&inst, m, 40).unwrap();
            assert_eq!(formula, exact, "m={m}");
        }
    }

    #[test]
    #[should_panic(expected = "common release time")]
    fn staggered_releases_rejected() {
        let inst = Instance::new(vec![
            JobSpec { graph: chain(2), release: 0 },
            JobSpec { graph: chain(2), release: 1 },
        ]);
        single_group_opt(&inst, 2);
    }
}
