//! The FIFO family — Section 3's definition, Section 4's villain,
//! Section 6's hero.
//!
//! **FIFO** schedules, at each time `t`, an arbitrary set of ready subjobs
//! subject to: (1) if fewer than `m` subjobs are ready, all of them run;
//! (2) if a ready subjob is skipped, everything that runs belongs to jobs
//! that arrived no later. Equivalently: allocate processors to alive jobs in
//! arrival order, giving each job as many processors as it has ready
//! subjobs, until processors run out.
//!
//! The *last* job to receive processors may get fewer than its ready count —
//! FIFO must then pick which of its ready subjobs run. That intra-job choice
//! is the [`TieBreak`], and it is the crux of the paper: with an arbitrary
//! (adversarial) choice FIFO is Ω(log m)-competitive even on out-trees
//! (Theorem 4.2), while Section 5's Algorithm 𝒜 shows a careful intra-job
//! policy recovers O(1)-competitiveness for clairvoyant schedulers.

use flowtree_dag::{by_width, JobId, NodeId, Time, Word};
use flowtree_sim::{Clairvoyance, OnlineScheduler, Selection, SimView};
use std::cmp::Reverse;

/// Intra-job policy used when a job is granted fewer processors than it has
/// ready subjobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TieBreak {
    /// Run the subjobs that became ready earliest (the engine's
    /// became-ready log, [`SimView::became_ready`] — a natural "arbitrary"
    /// order, and exactly the choice the Section 4 adversary exploits,
    /// because the adversary places each layer's key subjob last).
    /// Non-clairvoyant.
    BecameReady,
    /// Run the subjobs that became ready latest. Non-clairvoyant.
    LastReady,
    /// Uniformly random subset (seeded, deterministic). Non-clairvoyant.
    Random(u64),
    /// Longest-path-first: run the ready subjobs of greatest height, ties
    /// in the engine's ready-list order (arbitrary but deterministic; not
    /// the became-ready order). Clairvoyant (heights require the DAG). FIFO
    /// with this tie-break *is* the multi-job LPF baseline of Section 5.1:
    /// the `lpf` registry entry.
    HighestHeight,
    /// Run the ready subjobs with the most children in the DAG, maximizing
    /// next-step parallelism; ties as for [`HighestHeight`](Self::HighestHeight).
    /// Clairvoyant.
    MostChildren,
}

impl TieBreak {
    fn clairvoyance(self) -> Clairvoyance {
        match self {
            TieBreak::BecameReady | TieBreak::LastReady | TieBreak::Random(_) => {
                Clairvoyance::NonClairvoyant
            }
            TieBreak::HighestHeight | TieBreak::MostChildren => Clairvoyance::Clairvoyant,
        }
    }

    fn label(self) -> &'static str {
        match self {
            TieBreak::BecameReady => "became-ready",
            TieBreak::LastReady => "last-ready",
            TieBreak::Random(_) => "random",
            TieBreak::HighestHeight => "highest-height",
            TieBreak::MostChildren => "most-children",
        }
    }
}

/// SplitMix64 — a tiny deterministic PRNG so the non-clairvoyant random
/// tie-break needs no external dependency.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0) by rejection-free modulo (bias negligible
    /// for the small `n` used here, and determinism is what matters).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The FIFO scheduler with a pluggable intra-job [`TieBreak`].
///
/// ```
/// use flowtree_core::Fifo;
/// use flowtree_dag::builder;
/// use flowtree_sim::{Engine, Instance};
///
/// let instance = Instance::single(builder::star(8));
/// let schedule = Engine::new(4).run(&instance, &mut Fifo::arbitrary()).unwrap();
/// schedule.verify(&instance).unwrap();
/// // Root first, then 8 leaves on 4 processors: 3 steps.
/// assert_eq!(schedule.horizon(), 3);
/// ```
pub struct Fifo {
    tie: TieBreak,
    rng: SplitMix64,
    /// Scratch buffer reused across steps (allocation-free steady state).
    scratch: Vec<u32>,
}

impl Fifo {
    /// FIFO with the given tie-break.
    pub fn new(tie: TieBreak) -> Self {
        let seed = match tie {
            TieBreak::Random(s) => s,
            _ => 0,
        };
        Fifo {
            tie,
            rng: SplitMix64(seed ^ 0xD1B54A32D192ED03),
            scratch: Vec::new(),
        }
    }

    /// Plain FIFO with the became-ready ("arbitrary") tie-break.
    pub fn arbitrary() -> Self {
        Fifo::new(TieBreak::BecameReady)
    }

    /// Pick `k` of the job's ready nodes into `sel` according to the
    /// tie-break (`ready` is in arbitrary engine order).
    fn pick(
        &mut self,
        job: JobId,
        ready: &[u32],
        k: usize,
        view: &SimView<'_>,
        sel: &mut Selection,
    ) {
        debug_assert!(k <= ready.len());
        match self.tie {
            // The job's became-ready log yields its ready nodes in order,
            // so the k earliest (or latest) are read off one end of it.
            TieBreak::BecameReady => {
                for v in view.became_ready(job).take(k) {
                    sel.push(job, v);
                }
            }
            TieBreak::LastReady => {
                for v in view.became_ready(job).rev().take(k) {
                    sel.push(job, v);
                }
            }
            TieBreak::Random(_) => {
                // Partial Fisher-Yates over a scratch copy.
                self.scratch.clear();
                self.scratch.extend_from_slice(ready);
                let n = self.scratch.len();
                for i in 0..k {
                    let j = i + self.rng.below(n - i);
                    self.scratch.swap(i, j);
                    sel.push(job, NodeId(self.scratch[i]));
                }
            }
            TieBreak::HighestHeight | TieBreak::MostChildren => {
                // The graph holds its heights and child lists, so nothing
                // is kept per job here.
                let g = view.graph(job);
                self.scratch.clear();
                self.scratch.extend_from_slice(ready);
                // Stable sorts: priority desc, ties in the engine's
                // ready-list order (arbitrary, but deterministic). The
                // graph's width is tested once per sort.
                if self.tie == TieBreak::HighestHeight {
                    by_width!(g.heights(), |h| {
                        self.scratch.sort_by_key(|&v| Reverse(h[v as usize].widen()))
                    });
                } else {
                    by_width!(g.child_offsets(), |o| {
                        self.scratch.sort_by_key(|&v| {
                            let v = v as usize;
                            Reverse(o[v + 1].widen() - o[v].widen())
                        })
                    });
                }
                for &v in &self.scratch[..k] {
                    sel.push(job, NodeId(v));
                }
            }
        }
    }
}

impl OnlineScheduler for Fifo {
    fn clairvoyance(&self) -> Clairvoyance {
        self.tie.clairvoyance()
    }

    fn select(&mut self, _t: Time, view: &SimView<'_>, sel: &mut Selection) {
        // `alive()` is in arrival order — exactly FIFO's job priority.
        for i in 0..view.alive().len() {
            let job = view.alive()[i];
            let rem = sel.remaining();
            if rem == 0 {
                return;
            }
            let ready = view.ready(job);
            // The log-ordered tie-breaks push picks in became-ready order
            // even when the whole ready set fits: the engine applies
            // completions in pick order, which determines the became-ready
            // order of the *children* — so the order matters beyond the
            // subset choice. Other tie-breaks only order when subsetting.
            // `ready` borrows the view's state, not `self`, so it feeds
            // `pick` directly.
            match self.tie {
                TieBreak::BecameReady | TieBreak::LastReady => {
                    let k = rem.min(ready.len());
                    self.pick(job, ready, k, view, sel);
                }
                _ if ready.len() <= rem => {
                    for &v in ready {
                        sel.push(job, NodeId(v));
                    }
                }
                _ => {
                    self.pick(job, ready, rem, view, sel);
                }
            }
        }
    }

    fn name(&self) -> String {
        format!("FIFO[{}]", self.tie.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtree_dag::builder::{caterpillar, chain, star};
    use flowtree_sim::metrics::flow_stats;
    use flowtree_sim::{Engine, Instance, JobSpec};

    fn run(inst: &Instance, m: usize, tie: TieBreak) -> flowtree_sim::Schedule {
        let s = Engine::new(m).run(inst, &mut Fifo::new(tie)).unwrap();
        s.verify(inst).unwrap();
        s.schedule
    }

    #[test]
    fn older_job_gets_priority() {
        // Two stars released together; ids order them. With m=3, job 0's
        // root+? ... simpler: chain(1) jobs: all fit. Use wide jobs: star(5)
        // at t=0, star(5) at t=1; m=3. Job 0 must never be starved by job 1.
        let inst = Instance::new(vec![
            JobSpec { graph: star(5), release: 0 },
            JobSpec { graph: star(5), release: 1 },
        ]);
        let s = run(&inst, 3, TieBreak::BecameReady);
        let stats = flow_stats(&inst, &s);
        // Job 0: root at 1, leaves at 2,2,2 + 3,3 -> completes at 3.
        assert_eq!(stats.flows[0], 3);
        // Work conservation: at t=2 job0 has 5 ready, fills all 3 procs.
        assert_eq!(s.load(2), 3);
    }

    #[test]
    fn work_conserving_when_enough_ready() {
        let inst = Instance::new(vec![
            JobSpec { graph: star(10), release: 0 },
            JobSpec { graph: star(10), release: 0 },
        ]);
        let s = run(&inst, 4, TieBreak::BecameReady);
        // Steps 2..: 20 leaves + 1 root among 4 procs; never idle while
        // ready work remains.
        let stats = flow_stats(&inst, &s);
        assert_eq!(stats.makespan, 6); // step 1 runs 2 roots, then 20 leaves / 4 = 5 full steps
        assert_eq!(s.load(1), 2);
        for t in 2..=6 {
            assert_eq!(s.load(t), 4, "t={t}");
        }
    }

    #[test]
    fn became_ready_takes_prefix() {
        // star(4), m=3: step 2 has leaves [1,2,3,4] ready, picks first 3.
        let inst = Instance::single(star(4));
        let s = run(&inst, 3, TieBreak::BecameReady);
        let picked: Vec<u32> = s.at(2).iter().map(|&(_, v)| v.0).collect();
        assert_eq!(picked, vec![1, 2, 3]);
        assert_eq!(s.at(3)[0].1 .0, 4);
    }

    #[test]
    fn last_ready_takes_suffix() {
        let inst = Instance::single(star(4));
        let s = run(&inst, 3, TieBreak::LastReady);
        let mut picked: Vec<u32> = s.at(2).iter().map(|&(_, v)| v.0).collect();
        picked.sort_unstable();
        assert_eq!(picked, vec![2, 3, 4]);
        assert_eq!(s.at(3)[0].1 .0, 1);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let inst = Instance::single(star(12));
        let a = run(&inst, 5, TieBreak::Random(7));
        let b = run(&inst, 5, TieBreak::Random(7));
        let c = run(&inst, 5, TieBreak::Random(8));
        assert_eq!(a, b);
        // Different seed almost surely differs in pick order.
        assert!(a != c || a.horizon() == c.horizon());
    }

    #[test]
    fn highest_height_prefers_spine() {
        // Caterpillar: spine 0-1-2-3 plus 3 legs on the root. m=1: after
        // running the root, ready = {spine 1 (h=3), legs (h=1)}.
        let g = caterpillar(4, &[3, 0, 0, 0]);
        let inst = Instance::single(g);
        let s = run(&inst, 1, TieBreak::HighestHeight);
        let order: Vec<u32> = (1..=3).map(|t| s.at(t)[0].1 .0).collect();
        // The spine prefix has strictly decreasing heights 4, 3, 2 and must
        // run first; after that everything ready has height 1 (ties).
        assert_eq!(order, vec![0, 1, 2], "spine first under LPF tie-break");
    }

    #[test]
    fn most_children_prefers_fertile_nodes() {
        // Root -> {a, b}; a has 3 children, b has none. m=1 at step 2 must
        // pick a (2 ready: a=1?, need ids): caterpillar won't do; build
        // directly.
        let mut b = flowtree_dag::GraphBuilder::new(6);
        b.edge(0, 1).edge(0, 2).edge(1, 3).edge(1, 4).edge(1, 5);
        let g = b.build().unwrap();
        let inst = Instance::single(g);
        let s = run(&inst, 1, TieBreak::MostChildren);
        assert_eq!(s.at(2)[0].1 .0, 1, "node with 3 children first");
    }

    #[test]
    fn fifo_constraint_holds() {
        // Whenever a ready subjob is skipped at t, every scheduled subjob
        // belongs to a job with release <= that subjob's job's release.
        let inst = Instance::new(vec![
            JobSpec { graph: caterpillar(5, &[2, 2, 2, 2, 2]), release: 0 },
            JobSpec { graph: star(9), release: 1 },
            JobSpec { graph: chain(7), release: 2 },
        ]);
        let m = 3;
        let s = run(&inst, m, TieBreak::BecameReady);
        // Replay and check the FIFO property step by step.
        let mut st = flowtree_sim::SimState::new(&inst);
        for t in 0..s.horizon() {
            st.release_due(&inst, t);
            let picks = s.at(t + 1);
            if picks.len() < m {
                // Constraint (1): all ready subjobs scheduled.
                assert_eq!(st.total_ready(), picks.len(), "t={t}");
            } else {
                // Constraint (2): scheduled jobs arrived no later than any
                // skipped ready subjob's job.
                let max_sched = picks.iter().map(|&(j, _)| inst.release(j)).max().unwrap();
                for &job in st.alive() {
                    let scheduled: Vec<_> =
                        picks.iter().filter(|&&(j, _)| j == job).map(|&(_, v)| v.0).collect();
                    let skipped = st.ready(job).len() - scheduled.len();
                    if skipped > 0 {
                        assert!(
                            max_sched <= inst.release(job),
                            "t={t}: skipped ready subjob of {job} while a later job ran"
                        );
                    }
                }
            }
            for &(j, v) in picks {
                st.complete(&inst, j, v, t + 1);
            }
            st.prune_alive();
        }
    }

    #[test]
    fn names() {
        assert_eq!(Fifo::arbitrary().name(), "FIFO[became-ready]");
        assert_eq!(Fifo::new(TieBreak::HighestHeight).name(), "FIFO[highest-height]");
        assert_eq!(Fifo::new(TieBreak::Random(3)).name(), "FIFO[random]");
    }

    #[test]
    fn splitmix_below_in_range() {
        let mut r = SplitMix64(42);
        for n in 1..50usize {
            for _ in 0..20 {
                assert!(r.below(n) < n);
            }
        }
    }
}
