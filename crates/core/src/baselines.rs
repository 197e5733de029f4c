//! Classical comparator schedulers.
//!
//! These are not from the paper's Section 5 toolbox; they are the baselines a
//! practitioner would reach for, used in the experiment harness to put the
//! paper's algorithms in context:
//!
//! * [`RoundRobin`] — equipartition ("EQUI"): split the `m` processors as
//!   evenly as possible among alive jobs each step;
//! * [`RandomWorkConserving`] — any-work-conserving strawman: run `m`
//!   uniformly random ready subjobs (it has the span-reduction property the
//!   paper discusses, and nothing else);
//! * [`LeastRemainingWorkFirst`] — an SJF-flavoured clairvoyant policy.

use flowtree_dag::{JobId, NodeId, Time};
use flowtree_sim::{Clairvoyance, OnlineScheduler, Selection, SimView};

/// Equipartition: each alive job gets `floor(m / k)` processors (the first
/// `m mod k` jobs in arrival order get one extra); leftovers (a job with
/// fewer ready subjobs than its share) are re-granted to later jobs greedily.
pub struct RoundRobin;

impl OnlineScheduler for RoundRobin {
    fn clairvoyance(&self) -> Clairvoyance {
        Clairvoyance::NonClairvoyant
    }

    fn select(&mut self, _t: Time, view: &SimView<'_>, sel: &mut Selection) {
        let alive = view.alive();
        let k = alive.len();
        if k == 0 {
            return;
        }
        let m = view.m();
        let (share, extra) = (m / k, m % k);
        for (i, &job) in alive.iter().enumerate() {
            let quota = share + usize::from(i < extra);
            for &v in view.ready(job).iter().take(quota) {
                if !sel.push(job, NodeId(v)) {
                    return;
                }
            }
        }
        // Second pass: hand unused capacity to jobs with surplus ready work,
        // skipping exactly what each job's first-pass quota covered (a job
        // beyond the `extra` cutoff took only `share`, so skipping a uniform
        // `share + 1` would strand its `share`-th ready subjob and leave a
        // processor idle — breaking work conservation).
        for (i, &job) in alive.iter().enumerate() {
            if sel.remaining() == 0 {
                return;
            }
            let taken = share + usize::from(i < extra);
            for &v in view.ready(job).iter().skip(taken) {
                if !sel.push(job, NodeId(v)) {
                    return;
                }
            }
        }
    }

    fn name(&self) -> String {
        "RoundRobin".into()
    }
}

/// Work-conserving scheduler that runs a uniformly random set of ready
/// subjobs (seeded, deterministic).
pub struct RandomWorkConserving {
    state: u64,
}

impl RandomWorkConserving {
    /// Seeded constructor.
    pub fn new(seed: u64) -> Self {
        RandomWorkConserving { state: seed ^ 0x2545F4914F6CDD1D }
    }

    fn next(&mut self) -> u64 {
        // xorshift64*
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        self.state.wrapping_mul(0x2545F4914F6CDD1D)
    }
}

impl OnlineScheduler for RandomWorkConserving {
    fn clairvoyance(&self) -> Clairvoyance {
        Clairvoyance::NonClairvoyant
    }

    fn select(&mut self, _t: Time, view: &SimView<'_>, sel: &mut Selection) {
        // Gather the global ready pool, then sample without replacement.
        let mut pool: Vec<(JobId, u32)> = Vec::with_capacity(view.total_ready());
        for &job in view.alive() {
            for &v in view.ready(job) {
                pool.push((job, v));
            }
        }
        let m = view.m().min(pool.len());
        for i in 0..m {
            let j = i + (self.next() % (pool.len() - i) as u64) as usize;
            pool.swap(i, j);
            let (job, v) = pool[i];
            sel.push(job, NodeId(v));
        }
    }

    fn name(&self) -> String {
        "RandomWC".into()
    }
}

/// Clairvoyant "shortest job first" flavour: order alive jobs by remaining
/// work ascending (FIFO to break ties), then take each job's ready subjobs
/// in the engine's ready-list order ([`SimView::ready`], which
/// `swap_remove` reshuffles as subjobs complete) until the processors run
/// out. Known to be terrible for *maximum* flow (it starves big jobs) —
/// included as a cautionary baseline.
pub struct LeastRemainingWorkFirst;

impl OnlineScheduler for LeastRemainingWorkFirst {
    fn clairvoyance(&self) -> Clairvoyance {
        Clairvoyance::Clairvoyant
    }

    fn select(&mut self, _t: Time, view: &SimView<'_>, sel: &mut Selection) {
        let mut order: Vec<JobId> = view.alive().to_vec();
        order.sort_by_key(|&j| view.unfinished(j)); // stable: FIFO tie-break
        for &job in &order {
            for &v in view.ready(job) {
                if !sel.push(job, NodeId(v)) {
                    return;
                }
            }
        }
    }

    fn name(&self) -> String {
        "LRWF".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtree_dag::builder::{chain, star};
    use flowtree_sim::metrics::flow_stats;
    use flowtree_sim::{Engine, Instance, JobSpec};

    fn wide_pair() -> Instance {
        Instance::new(vec![
            JobSpec { graph: star(8), release: 0 },
            JobSpec { graph: star(8), release: 0 },
        ])
    }

    #[test]
    fn round_robin_splits_evenly() {
        let inst = wide_pair();
        let s = Engine::new(4).run(&inst, &mut RoundRobin).unwrap();
        s.verify(&inst).unwrap();
        // Step 2: both jobs have 8 ready leaves; each gets 2 processors.
        let step2 = s.at(2);
        let a = step2.iter().filter(|&&(j, _)| j == JobId(0)).count();
        let b = step2.iter().filter(|&&(j, _)| j == JobId(1)).count();
        assert_eq!((a, b), (2, 2));
    }

    #[test]
    fn round_robin_redistributes_surplus() {
        // Job 0 is a chain (1 ready subjob); job 1 a wide star. Extra
        // processors flow to the star.
        let inst = Instance::new(vec![
            JobSpec { graph: chain(6), release: 0 },
            JobSpec { graph: star(12), release: 0 },
        ]);
        let s = Engine::new(6).run(&inst, &mut RoundRobin).unwrap();
        s.verify(&inst).unwrap();
        // Step 2: chain has 1 ready, star has 12 leaves; load must be 6.
        assert_eq!(s.load(2), 6);
    }

    #[test]
    fn round_robin_is_work_conserving_past_the_extra_cutoff() {
        // k=2 alive jobs on m=6: share=3, extra=0. Job 0 offers 1 ready
        // subjob, job 1 offers 5 — equipartition gives job 1 three, and the
        // re-grant pass must pick up its remaining two (a uniform
        // `skip(share + 1)` would strand ready[3] and run only 5 of 6).
        let inst = Instance::new(vec![
            JobSpec { graph: chain(3), release: 0 },
            JobSpec { graph: star(5), release: 0 },
        ]);
        let s = Engine::new(6).run(&inst, &mut RoundRobin).unwrap();
        s.verify(&inst).unwrap();
        // Step 2 (t=1): chain has 1 ready, star has 5 leaves ready.
        assert_eq!(s.load(2), 6);
    }

    #[test]
    fn round_robin_single_job_gets_everything() {
        let inst = Instance::single(star(9));
        let s = Engine::new(4).run(&inst, &mut RoundRobin).unwrap();
        s.verify(&inst).unwrap();
        assert_eq!(s.load(2), 4);
    }

    #[test]
    fn random_wc_is_work_conserving_and_seeded() {
        let inst = wide_pair();
        let a = Engine::new(4).run(&inst, &mut RandomWorkConserving::new(1)).unwrap();
        a.verify(&inst).unwrap();
        let b = Engine::new(4).run(&inst, &mut RandomWorkConserving::new(1)).unwrap();
        assert_eq!(a, b);
        // Work conservation: roots first (2), then 16 leaves over 4 full
        // steps => makespan 5 regardless of randomness.
        let stats = flow_stats(&inst, &a);
        assert_eq!(stats.makespan, 5);
    }

    #[test]
    fn lrwf_starves_the_large_job() {
        // A stream of small jobs keeps the big chain waiting under LRWF.
        let mut jobs = vec![JobSpec { graph: star(8), release: 0 }];
        for t in 0..6 {
            jobs.push(JobSpec { graph: chain(2), release: t });
        }
        let inst = Instance::new(jobs);
        let s = Engine::new(2).run(&inst, &mut LeastRemainingWorkFirst).unwrap();
        s.verify(&inst).unwrap();
        let lrwf = flow_stats(&inst, &s);
        let s2 = Engine::new(2).run(&inst, &mut crate::fifo::Fifo::arbitrary()).unwrap();
        let fifo = flow_stats(&inst, &s2);
        // The star's flow under LRWF is at least as bad as under FIFO.
        assert!(lrwf.flows[0] >= fifo.flows[0]);
    }

    #[test]
    fn all_baselines_complete_and_verify() {
        let inst = Instance::new(vec![
            JobSpec { graph: star(5), release: 0 },
            JobSpec { graph: chain(4), release: 1 },
            JobSpec { graph: star(3), release: 3 },
        ]);
        let mut schedulers: Vec<Box<dyn OnlineScheduler>> = vec![
            Box::new(RoundRobin),
            Box::new(RandomWorkConserving::new(9)),
            Box::new(LeastRemainingWorkFirst),
        ];
        for s in schedulers.iter_mut() {
            let sched = Engine::new(3).run(&inst, s.as_mut()).unwrap();
            sched.verify(&inst).unwrap();
        }
    }
}
