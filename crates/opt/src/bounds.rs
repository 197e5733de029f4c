//! Certified lower bounds on the optimal maximum flow.
//!
//! A *lower bound* here is a value `L` such that every feasible schedule of
//! the instance on `m` processors has maximum flow `>= L`. Ratios reported
//! against lower bounds over-state (never under-state) the true competitive
//! ratio, so conclusions drawn from them are conservative.

use flowtree_dag::{DepthProfile, JobGraph};
use flowtree_sim::Instance;

/// Lemma 5.1 bound for one job on `m` processors:
/// `max_d (d + ceil(W(d)/m))`, which dominates both the span bound
/// (`d = D, W = 0`) and the work bound (`d = 0`).
pub fn job_lower_bound(g: &JobGraph, m: u64) -> u64 {
    DepthProfile::opt_single_job_of(g, m)
}

/// The strongest bound this crate offers without exact search: the max of
/// the per-job Lemma 5.1 bound ([`Instance::per_job_lower_bound`]: any
/// schedule must give each job at least its own single-job optimum of
/// flow) and the [`interval load`](crate::interval::interval_load_lower_bound)
/// bound.
pub fn combined_lower_bound(instance: &Instance, m: u64) -> u64 {
    instance
        .per_job_lower_bound(m)
        .max(crate::interval::interval_load_lower_bound(instance, m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtree_dag::builder::{chain, complete_kary, star};
    use flowtree_sim::JobSpec;

    #[test]
    fn job_bound_dominates_span_and_work() {
        for g in [chain(7), star(12), complete_kary(2, 4)] {
            for m in 1..=6u64 {
                let b = job_lower_bound(&g, m);
                assert!(b >= g.span());
                assert!(b >= g.work().div_ceil(m));
            }
        }
    }

    #[test]
    fn max_job_bound_picks_hardest_job() {
        let inst = Instance::new(vec![
            JobSpec { graph: chain(10), release: 0 },
            JobSpec { graph: star(3), release: 5 },
        ]);
        assert_eq!(inst.per_job_lower_bound(4), 10);
        assert_eq!(combined_lower_bound(&inst, 4), 10);
    }

    #[test]
    fn combined_bound_at_least_each_part() {
        let inst = Instance::new(vec![
            JobSpec { graph: star(20), release: 0 },
            JobSpec { graph: star(20), release: 0 },
            JobSpec { graph: star(20), release: 1 },
        ]);
        let m = 4;
        let c = combined_lower_bound(&inst, m);
        assert!(c >= inst.per_job_lower_bound(m));
        assert!(c >= crate::interval::interval_load_lower_bound(&inst, m));
        // 63 units released by time 1; they must finish by 1 + F:
        // m(F + 1) >= 63 - (work released at 0 that can run at step 1)...
        // the interval bound gives F >= ceil(63/4) - 1 = 15.
        assert!(c >= 15);
    }
}
