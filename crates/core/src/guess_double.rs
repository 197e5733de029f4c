//! Guess-and-double — removing the a-priori knowledge of OPT (Section 5.4).
//!
//! The paper's final algorithm maintains a working lower bound `AOPT` on the
//! optimal maximum flow, starting at 1. It runs the batched Algorithm 𝒜 with
//! block length `half = AOPT` (so the inner working OPT estimate `2·half`
//! covers the batched instance's true optimum, which is at most
//! `OPT + AOPT ≤ 2·AOPT` once `AOPT ≥ OPT`). Whenever some alive job's age
//! exceeds `β·AOPT/2`, the guess was too small: `AOPT` doubles and 𝒜 restarts
//! with every unfinished job's *unexecuted portion* re-enqueued as a fresh
//! arrival (deferred to the next block boundary). Theorem 5.7: the total
//! delay telescopes to a constant factor, giving 1548-competitiveness with
//! α = 4, β = 258.

use crate::algo_a::AlgoA;
use flowtree_dag::{JobId, Time};
use flowtree_sim::{Clairvoyance, OnlineScheduler, Selection, SimView};

/// The fully general clairvoyant out-forest scheduler (Theorem 5.7).
pub struct GuessDoubleA {
    alpha: usize,
    beta: u64,
    /// Current guess (a power of two).
    aopt: Time,
    inner: AlgoA,
    /// Number of restarts performed (diagnostics / tests).
    restarts: u32,
    /// Release time of each job *within the current incarnation*: the actual
    /// release for jobs arriving after the last restart, the restart time for
    /// re-enqueued jobs. The paper's restart "delays" unfinished jobs — their
    /// flow clock inside the restarted algorithm starts afresh, and the
    /// accumulated delay is accounted for by the telescoping-sum analysis of
    /// Section 5.4 (total delay ≤ (3/2)·β·2^k ≤ 3β·OPT).
    virtual_release: Vec<Time>,
}

impl GuessDoubleA {
    /// The paper's parameterization is `alpha = 4`, `beta = 258`.
    pub fn new(alpha: usize, beta: u64) -> Self {
        // beta must leave room for the batching delay: a re-enqueued job
        // waits up to AOPT for the next boundary, which already consumes
        // beta*AOPT/2 when beta <= 2 — no progress window would remain. The
        // paper's analysis uses beta = 258.
        assert!(beta >= 4, "beta must be at least 4 (batching delay is AOPT)");
        GuessDoubleA {
            alpha,
            beta,
            aopt: 1,
            inner: AlgoA::with_batching(alpha, 1),
            restarts: 0,
            virtual_release: Vec::new(),
        }
    }

    /// The paper's α, with which [`paper`](Self::paper) runs Algorithm 𝒜.
    pub const PAPER_ALPHA: usize = 4;

    /// The paper's exact parameters (α = 4, β = 258).
    pub fn paper() -> Self {
        Self::new(Self::PAPER_ALPHA, 258)
    }

    /// Current guess `AOPT`.
    pub fn aopt(&self) -> Time {
        self.aopt
    }

    /// How many times the guess doubled.
    pub fn restarts(&self) -> u32 {
        self.restarts
    }

    /// Does any alive job's flow *within the current incarnation* exceed the
    /// violation threshold β·AOPT/2?
    fn violated(&self, t: Time, view: &SimView<'_>) -> bool {
        let threshold = self.beta * self.aopt / 2;
        view.alive()
            .iter()
            .any(|&j| t.saturating_sub(self.virtual_release[j.index()]) > threshold)
    }

    /// Double the guess and restart 𝒜 on the unexecuted remainders. The
    /// re-enqueued jobs' flow clocks reset to the restart time `t` (the
    /// paper's "release time of all unfinished jobs ... delayed").
    fn restart(&mut self, t: Time, view: &SimView<'_>) {
        self.aopt *= 2;
        self.restarts += 1;
        self.inner = AlgoA::with_batching(self.alpha, self.aopt);
        for &job in view.alive() {
            let g = view.graph(job);
            let remaining: Vec<bool> = g.nodes().map(|v| !view.is_complete(job, v)).collect();
            debug_assert!(remaining.iter().any(|&r| r), "alive job with nothing left");
            self.inner.enqueue(job, Some(remaining));
            self.virtual_release[job.index()] = t;
        }
    }

    fn ensure_slot(&mut self, job: JobId) {
        if self.virtual_release.len() <= job.index() {
            self.virtual_release.resize(job.index() + 1, 0);
        }
    }
}

impl OnlineScheduler for GuessDoubleA {
    fn clairvoyance(&self) -> Clairvoyance {
        Clairvoyance::Clairvoyant
    }

    fn on_arrival(&mut self, t: Time, job: JobId, view: &SimView<'_>) {
        self.ensure_slot(job);
        self.virtual_release[job.index()] = t;
        self.inner.on_arrival(t, job, view);
    }

    fn select(&mut self, t: Time, view: &SimView<'_>, sel: &mut Selection) {
        // A single doubling suffices per violation event: the restarted
        // incarnation resets every alive job's flow clock to `t`.
        if self.violated(t, view) {
            self.restart(t, view);
        }
        self.inner.select(t, view, sel);
    }

    fn name(&self) -> String {
        format!("GuessDoubleA[alpha={},beta={}]", self.alpha, self.beta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtree_dag::builder::{chain, complete_kary, star};
    use flowtree_sim::metrics::flow_stats;
    use flowtree_sim::{Engine, Instance, JobSpec};

    #[test]
    fn single_small_job_needs_no_restart_after_warmup() {
        let inst = Instance::single(chain(3));
        let mut sched = GuessDoubleA::paper();
        let s = Engine::new(4).with_max_horizon(200_000).run(&inst, &mut sched).unwrap();
        s.verify(&inst).unwrap();
        // beta * aopt / 2 = 129 with aopt = 1; a chain of 3 finishes long
        // before that, so the initial guess survives.
        assert_eq!(sched.restarts(), 0);
        assert_eq!(sched.aopt(), 1);
    }

    #[test]
    fn big_job_forces_doubling() {
        // OPT for this job on m=4 is ~17; the initial guess (threshold 129)
        // is too small once beta is small. Use beta = 4 to see doubling.
        let g = star(64);
        let inst = Instance::single(g.clone());
        let m = 4;
        let opt = g.opt_single_job(m as u64);
        let mut sched = GuessDoubleA::new(4, 4);
        let s = Engine::new(m).with_max_horizon(200_000).run(&inst, &mut sched).unwrap();
        s.verify(&inst).unwrap();
        assert!(sched.restarts() > 0, "tiny guess must double");
        // Final guess stays within a constant factor of OPT: on the first
        // guess with threshold >= achievable flow, doubling stops.
        assert!(sched.aopt() <= 8 * opt.max(1));
    }

    #[test]
    fn theorem_5_7_bound_on_streams() {
        // A stream with arbitrary (non-batched) releases; verify the 1548x
        // bound against the certified per-job lower bound (conservative).
        let mut jobs = Vec::new();
        for i in 0..10u64 {
            jobs.push(JobSpec { graph: complete_kary(2, 4), release: i * 3 + (i % 2) });
            jobs.push(JobSpec { graph: star(9), release: i * 3 + 1 });
        }
        let inst = Instance::new(jobs);
        let m = 8;
        let mut sched = GuessDoubleA::paper();
        let s = Engine::new(m).with_max_horizon(2_000_000).run(&inst, &mut sched).unwrap();
        s.verify(&inst).unwrap();
        let stats = flow_stats(&inst, &s);
        let lb = inst.per_job_lower_bound(m as u64).max(1);
        assert!(
            stats.max_flow <= 1548 * lb,
            "Theorem 5.7 violated: flow {} vs 1548 * {lb}",
            stats.max_flow
        );
    }

    #[test]
    fn restart_resumes_partially_executed_jobs() {
        // Force a restart mid-job with a small beta and check completeness
        // (verify() catches lost subjobs).
        let g = complete_kary(3, 4); // 40 nodes
        let inst = Instance::new(vec![
            JobSpec { graph: g, release: 0 },
            JobSpec { graph: chain(5), release: 2 },
        ]);
        let mut sched = GuessDoubleA::new(4, 4);
        let s = Engine::new(4).with_max_horizon(200_000).run(&inst, &mut sched).unwrap();
        s.verify(&inst).unwrap();
        assert!(sched.restarts() >= 1);
    }

    #[test]
    fn guesses_are_powers_of_two() {
        let g = star(200);
        let inst = Instance::single(g);
        let mut sched = GuessDoubleA::new(4, 4);
        let s = Engine::new(4).with_max_horizon(200_000).run(&inst, &mut sched).unwrap();
        s.verify(&inst).unwrap();
        assert!(sched.aopt().is_power_of_two());
    }

    #[test]
    fn name_reports_parameters() {
        assert_eq!(GuessDoubleA::paper().name(), "GuessDoubleA[alpha=4,beta=258]");
    }
}
