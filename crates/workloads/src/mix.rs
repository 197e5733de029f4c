//! Scenario presets: named heterogeneous workload blends.
//!
//! Experiments and examples need "realistic" mixtures more often than pure
//! shape families. A [`Scenario`] is a weighted blend of job shapes with an
//! arrival pattern; [`Scenario::instantiate`] produces a reproducible
//! [`Instance`]. Presets model the workloads the paper's introduction
//! motivates: divide-and-conquer batch jobs, interactive service traffic,
//! and mixed analytics.

use crate::{trees, Rng};
use flowtree_dag::{JobGraph, Time};
use flowtree_sim::{Instance, JobSpec};
use rand::Rng as _;

/// How jobs of a scenario arrive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrivals {
    /// All at time 0 (one batch).
    Batch,
    /// One job every `period` steps.
    Periodic(Time),
    /// Bernoulli arrivals with probability `num/den` per step over a
    /// horizon (integer odds keep the type `Eq` and the preset list const).
    Random {
        /// Numerator of the per-step arrival probability.
        num: u32,
        /// Denominator of the per-step arrival probability.
        den: u32,
        /// Number of steps over which arrivals occur.
        horizon: Time,
    },
}

/// One shape class in a blend.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// Balanced divide-and-conquer (randomized quicksort tree on `n`).
    DivideConquer(usize),
    /// Wide shallow request handler (recursive tree on `n`).
    Service(usize),
    /// Sequential pipeline (chain of `n`).
    Pipeline(usize),
    /// Bushy preferential-attachment analytics job on `n`.
    Analytics(usize),
    /// Caterpillar with spine `s` and up to `l` legs per node.
    Hybrid(usize, usize),
}

impl Shape {
    /// Sample a concrete job of this shape.
    pub fn sample(&self, rng: &mut Rng) -> JobGraph {
        match *self {
            Shape::DivideConquer(n) => trees::random_quicksort_tree(n, 2, rng),
            Shape::Service(n) => trees::random_recursive_tree(n, rng),
            Shape::Pipeline(n) => flowtree_dag::builder::chain(n),
            Shape::Analytics(n) => trees::preferential_tree(n, 0.7, rng),
            Shape::Hybrid(s, l) => trees::random_caterpillar(s, l, rng),
        }
    }
}

/// A named workload blend.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Display name.
    pub name: &'static str,
    /// (shape, weight) pairs; weights need not be normalized.
    pub blend: Vec<(Shape, u32)>,
    /// Number of jobs to generate.
    pub jobs: usize,
    /// Arrival pattern.
    pub arrivals: Arrivals,
}

impl Scenario {
    /// A batch of divide-and-conquer sorts (the paper's quicksort example).
    pub fn sort_farm(jobs: usize) -> Self {
        Scenario {
            name: "sort-farm",
            blend: vec![(Shape::DivideConquer(256), 1)],
            jobs,
            arrivals: Arrivals::Batch,
        }
    }

    /// Interactive service: many small wide handlers, steady arrivals.
    pub fn service(jobs: usize) -> Self {
        Scenario {
            name: "service",
            blend: vec![(Shape::Service(24), 3), (Shape::Pipeline(6), 1)],
            jobs,
            arrivals: Arrivals::Random { num: 1, den: 2, horizon: 4 * jobs as Time },
        }
    }

    /// Mixed analytics: heavy bushy jobs + pipelines, periodic arrivals.
    pub fn analytics(jobs: usize) -> Self {
        Scenario {
            name: "analytics",
            blend: vec![
                (Shape::Analytics(120), 2),
                (Shape::Pipeline(40), 1),
                (Shape::Hybrid(20, 4), 1),
            ],
            jobs,
            arrivals: Arrivals::Periodic(8),
        }
    }

    /// All presets (for sweep-style experiments).
    pub fn presets(jobs: usize) -> Vec<Scenario> {
        vec![Scenario::sort_farm(jobs), Scenario::service(jobs), Scenario::analytics(jobs)]
    }

    /// Draw one job: a shape with probability proportional to its weight,
    /// then a concrete job of that shape. Panics if the weights sum to 0
    /// (an empty blend included).
    pub fn sample_job(&self, rng: &mut Rng) -> JobGraph {
        let total_weight: u32 = self.blend.iter().map(|&(_, w)| w).sum();
        assert!(total_weight > 0, "blend weights must not all be zero");
        let mut roll = rng.gen_range(0..total_weight);
        for &(shape, w) in &self.blend {
            if roll < w {
                return shape.sample(rng);
            }
            roll -= w;
        }
        unreachable!("weights cover the roll")
    }

    /// Materialize the scenario into an instance.
    pub fn instantiate(&self, rng: &mut Rng) -> Instance {
        assert!(self.jobs >= 1);

        let mut jobs = Vec::with_capacity(self.jobs);
        match self.arrivals {
            Arrivals::Batch => {
                for _ in 0..self.jobs {
                    jobs.push(JobSpec { graph: self.sample_job(rng), release: 0 });
                }
            }
            Arrivals::Periodic(period) => {
                for i in 0..self.jobs {
                    jobs.push(JobSpec { graph: self.sample_job(rng), release: i as Time * period });
                }
            }
            Arrivals::Random { num, den, horizon } => {
                // `horizon` is a soft target: arrivals continue past it (at
                // the same rate) until the job quota is met, keeping
                // releases nondecreasing.
                let p = (num as f64 / den as f64).min(1.0);
                let mut t: Time = 0;
                while jobs.len() < self.jobs {
                    if rng.gen_bool(p) || t >= 100 * horizon.max(1) {
                        jobs.push(JobSpec { graph: self.sample_job(rng), release: t });
                    }
                    t += 1;
                }
            }
        }
        Instance::new(jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_instantiate_reproducibly() {
        for preset in Scenario::presets(12) {
            let a = preset.instantiate(&mut crate::rng(5));
            let b = preset.instantiate(&mut crate::rng(5));
            assert_eq!(a, b, "{} not reproducible", preset.name);
            assert_eq!(a.num_jobs(), 12);
            assert!(a.is_out_forest_instance());
        }
    }

    #[test]
    fn batch_scenario_releases_at_zero() {
        let inst = Scenario::sort_farm(5).instantiate(&mut crate::rng(1));
        assert!(inst.jobs().iter().all(|j| j.release == 0));
    }

    #[test]
    fn periodic_scenario_spacing() {
        let inst = Scenario::analytics(4).instantiate(&mut crate::rng(2));
        let releases: Vec<Time> = inst.jobs().iter().map(|j| j.release).collect();
        assert_eq!(releases, vec![0, 8, 16, 24]);
    }

    #[test]
    fn random_scenario_nondecreasing_releases() {
        let inst = Scenario::service(20).instantiate(&mut crate::rng(3));
        let releases: Vec<Time> = inst.jobs().iter().map(|j| j.release).collect();
        for w in releases.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn blends_mix_shapes() {
        // The service blend has both wide trees and chains; check both span
        // profiles appear.
        let inst = Scenario::service(40).instantiate(&mut crate::rng(4));
        let spans: Vec<u64> = inst.jobs().iter().map(|j| j.graph.span()).collect();
        let has_chainish = spans.contains(&6);
        let has_wide = spans.iter().any(|&s| s < 6);
        assert!(has_chainish && has_wide, "spans: {spans:?}");
    }

    #[test]
    fn schedulable_end_to_end() {
        let inst = Scenario::analytics(6).instantiate(&mut crate::rng(6));
        let s = flowtree_sim::Engine::new(4)
            .run(&inst, &mut flowtree_core::Fifo::arbitrary())
            .unwrap();
        s.verify(&inst).unwrap();
    }
}
