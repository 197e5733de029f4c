//! Algorithm 𝒜 — the O(1)-competitive clairvoyant out-forest scheduler of
//! Section 5.3, with the Section 5.4 batching reduction built in.
//!
//! 𝒜 is parameterized by α (an integer ≥ 3 dividing `m`; the paper picks
//! α = 4) and by a block length `half` (the paper's OPT/2, so the algorithm's
//! working estimate of the optimal maximum flow is `2·half`). Jobs arriving
//! at the same block boundary are treated as one **group** (one out-forest
//! job). For each group 𝒜 precomputes `S = LPF(group, m/α)` and then:
//!
//! * **blocks 1–2 (the head)**: the group replays `S` verbatim on a dedicated
//!   slice of `m/α` processors — the newest group on the first slice, the
//!   second-newest on the second;
//! * **blocks 3+ (the tail)**: the group joins the FIFO pool: older groups
//!   first, each granted `min(remaining processors, m/α)` and scheduled by
//!   the Most-Children replay ([`McReplay`]) of the unprocessed part of `S`.
//!
//! By Lemma 5.2 the unprocessed part after `2·half ≥ span` steps is a full
//! `m/α`-wide rectangle (except its last step), which is exactly MC's
//! precondition; Lemma 5.5 then guarantees the FIFO pool never wastes a
//! granted processor, and Theorem 5.6 gives 𝒜's flow ≤ (β/2)·OPT with
//! β = 258 whenever `2·half ≥ OPT`.
//!
//! With [`AlgoA::with_batching`], arrivals at arbitrary times are deferred to
//! the next block boundary (the Section 5.4 reduction, costing a factor ≤ 2).
//!
//! A group is never materialized as one graph. `S` comes from
//! [`lpf_levels_forest`] over the members' own graphs (with their
//! guess-and-double masks), written into the group's own [`Levels`] with
//! LPF scratch 𝒜 keeps across groups. When the head ends, the tail replay
//! takes over that buffer from its first unexecuted level and gets the
//! forest as a parent array ([`McReplay::with_parents`]); the group numbers
//! its nodes by concatenating the members' node ids, as the LPF plan does.

use crate::lpf::{lpf_levels_forest, Levels, LpfScratch};
use crate::mc::McReplay;
use flowtree_dag::{JobGraph, JobId, NodeId, Time};
use flowtree_sim::{Clairvoyance, OnlineScheduler, Selection, SimView};

/// A pending (not yet grouped) job: its id plus the subset of nodes still to
/// execute (`None` = all of them; `Some` masks are used by guess-and-double
/// restarts).
#[derive(Debug, Clone)]
pub(crate) struct PendingJob {
    pub job: JobId,
    pub remaining: Option<Vec<bool>>,
}

/// One group of jobs released (or deferred to) the same block boundary.
struct Group {
    /// Block boundary at which the group started executing.
    start: Time,
    /// Group node -> (job, original node).
    origin: Vec<(JobId, u32)>,
    /// Parent of each group node (`u32::MAX` for a root): the group's
    /// out-forest, handed to the tail replay (then left empty).
    parent: Vec<u32>,
    /// `S` = LPF(group, m/α): levels of group-node ids, handed to the tail
    /// replay (then left empty).
    levels: Levels,
    /// Tail replay, created when the group leaves the head phase.
    mc: Option<McReplay>,
}

impl Group {
    fn is_done(&self, age: Time) -> bool {
        match &self.mc {
            Some(mc) => mc.is_done(),
            None => age as usize >= self.levels.len(),
        }
    }
}

/// Algorithm 𝒜 (see module docs).
pub struct AlgoA {
    alpha: usize,
    half: Time,
    batching: bool,
    pending: Vec<PendingJob>,
    groups: Vec<Group>,
    /// LPF working buffers, reused by every group's plan.
    lpf: LpfScratch,
}

impl AlgoA {
    /// 𝒜 for semi-batched instances (every release an integer multiple of
    /// `half`); panics at arrival otherwise. The paper's Section 5.3 setting
    /// with OPT = `2·half`.
    pub fn semi_batched(alpha: usize, half: Time) -> Self {
        Self::build(alpha, half, false)
    }

    /// 𝒜 with the Section 5.4 batching reduction: arrivals at arbitrary
    /// times are deferred to the next multiple of `half`.
    pub fn with_batching(alpha: usize, half: Time) -> Self {
        Self::build(alpha, half, true)
    }

    fn build(alpha: usize, half: Time, batching: bool) -> Self {
        assert!(alpha >= 3, "the schedule layout needs alpha > 2 (paper 5.3)");
        assert!(half >= 1, "block length must be positive");
        AlgoA {
            alpha,
            half,
            batching,
            pending: Vec::new(),
            groups: Vec::new(),
            lpf: LpfScratch::default(),
        }
    }

    /// Block length (the paper's OPT/2).
    pub fn half(&self) -> Time {
        self.half
    }

    /// Inject a job (used on guess-and-double restarts): schedules only the
    /// nodes with `remaining[v] == true` from the next boundary on.
    pub(crate) fn enqueue(&mut self, job: JobId, remaining: Option<Vec<bool>>) {
        self.pending.push(PendingJob { job, remaining });
    }

    /// Width of one processor slice.
    fn slice(&self, m: usize) -> usize {
        assert!(
            m.is_multiple_of(self.alpha) && m >= self.alpha,
            "alpha = {} must divide m = {m}",
            self.alpha
        );
        m / self.alpha
    }

    /// Form a group from all pending jobs at boundary `t`.
    ///
    /// The group is one out-forest, but it is never built as one graph: the
    /// members' graphs and guess-and-double masks go to
    /// [`lpf_levels_forest`] as they are. A member's node `v` has the group
    /// id `offset + v`, where `offset` counts the nodes of the members
    /// before it (masked-out nodes keep their ids and simply appear in no
    /// level, which MC reads as already executed); the plan numbers nodes
    /// the same way.
    fn form_group(&mut self, t: Time, view: &SimView<'_>) {
        if self.pending.is_empty() {
            return;
        }
        let p = self.slice(view.m());
        let pending = std::mem::take(&mut self.pending);
        let parts: Vec<(&JobGraph, Option<&[bool]>)> =
            pending.iter().map(|pj| (view.graph(pj.job), pj.remaining.as_deref())).collect();

        // S = LPF(group, m/alpha), in group ids. The plan's pass over the
        // members' edges also gives each node's parent in group ids and
        // checks the out-forest shape MC relies on.
        let mut levels = Levels::new();
        let out_forest = lpf_levels_forest(&parts, p, &mut self.lpf, &mut levels);
        assert!(out_forest, "Algorithm A requires out-forest jobs");
        let parent = self.lpf.take_parent();

        // Group ids to (job, node).
        let mut origin = Vec::with_capacity(parent.len());
        for (pj, (g, _)) in pending.iter().zip(&parts) {
            origin.extend((0..g.n() as u32).map(|v| (pj.job, v)));
        }

        self.groups.push(Group { start: t, origin, parent, levels, mc: None });
    }
}

impl OnlineScheduler for AlgoA {
    fn clairvoyance(&self) -> Clairvoyance {
        Clairvoyance::Clairvoyant
    }

    fn on_arrival(&mut self, t: Time, job: JobId, _view: &SimView<'_>) {
        if !self.batching {
            assert!(
                t.is_multiple_of(self.half),
                "semi-batched AlgoA requires releases at multiples of {} (got {t})",
                self.half
            );
        }
        self.enqueue(job, None);
    }

    fn select(&mut self, t: Time, view: &SimView<'_>, sel: &mut Selection) {
        let p = self.slice(view.m());
        let opt = 2 * self.half; // the algorithm's working OPT estimate

        if t.is_multiple_of(self.half) {
            // Transition groups whose head phase ends now (age == opt) to
            // MC-replay mode over the unprocessed part of S.
            for g in &mut self.groups {
                let age = t - g.start;
                if age >= opt && g.mc.is_none() {
                    // The head ran the first `age` levels (all of them if
                    // the plan is shorter); the replay takes the rest.
                    // When the working estimate is valid (2·half >= the
                    // group's true OPT on the full machine), Lemma 5.2
                    // makes this tail a full-width rectangle and Lemma 5.5
                    // applies. Under guess-and-double the estimate may
                    // still be too small; MC stays *feasible* on a ragged
                    // tail (it only loses the never-idle guarantee), and
                    // the resulting slow progress is what triggers the next
                    // doubling. So no rectangularity assertion here — the
                    // property is validated where it is guaranteed (E2/E7).
                    g.mc = Some(McReplay::with_parents(
                        std::mem::take(&mut g.parent),
                        std::mem::take(&mut g.levels),
                        age as usize,
                    ));
                }
            }
            // New group from everything pending.
            self.form_group(t, view);
        }

        // Phase 1 & 2: young groups (age < opt) replay S verbatim on their
        // dedicated m/alpha slice.
        for g in &mut self.groups {
            let age = t - g.start;
            if age < opt {
                if let Some(level) = g.levels.get(age as usize) {
                    debug_assert!(level.len() <= p);
                    for &v in level {
                        let (job, orig) = g.origin[v as usize];
                        let ok = sel.push(job, NodeId(orig));
                        debug_assert!(ok, "young slices exceeded capacity");
                    }
                }
            }
        }

        // Phase 3: older groups in FIFO order via MC, each granted at most
        // m/alpha of whatever capacity remains.
        for g in &mut self.groups {
            let age = t - g.start;
            if age < opt {
                continue;
            }
            let mc = g.mc.as_mut().expect("old group must have an MC replay");
            if mc.is_done() {
                continue;
            }
            let m_t = sel.remaining().min(p);
            if m_t == 0 {
                break;
            }
            let origin = &g.origin;
            mc.next(m_t, |v| {
                let (job, orig) = origin[v as usize];
                let ok = sel.push(job, NodeId(orig));
                debug_assert!(ok);
            });
        }

        // Garbage-collect finished groups.
        self.groups.retain(|g| !g.is_done(t + 1 - g.start));
    }

    fn name(&self) -> String {
        format!(
            "AlgoA[alpha={},half={}{}]",
            self.alpha,
            self.half,
            if self.batching { ",batched" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtree_dag::builder::{caterpillar, chain, complete_kary, star};
    use flowtree_sim::metrics::flow_stats;
    use flowtree_sim::{Engine, Instance, JobSpec};

    /// Known-OPT helper: single-release-group instances have
    /// OPT = formula of Corollary 5.4 applied to the union.
    fn union_opt(inst: &Instance, m: u64) -> u64 {
        let graphs: Vec<&JobGraph> = inst.jobs().iter().map(|j| &j.graph).collect();
        let (u, _) = JobGraph::disjoint_union(&graphs);
        u.opt_single_job(m)
    }

    #[test]
    fn single_job_completes_feasibly() {
        let g = complete_kary(2, 5);
        let inst = Instance::single(g);
        let m = 8;
        let opt = union_opt(&inst, m as u64);
        let half = opt.div_ceil(2);
        let s = Engine::new(m).run(&inst, &mut AlgoA::semi_batched(4, half)).unwrap();
        s.verify(&inst).unwrap();
        let stats = flow_stats(&inst, &s);
        // Theorem 5.6 bound (beta/2 = 129), hugely loose in practice; the
        // realistic sanity bound is alpha * opt for a lone job (Lemma 5.3)
        // plus the block quantization.
        assert!(stats.max_flow <= 129 * opt.max(1));
        assert!(stats.max_flow <= 4 * opt + 2 * half);
    }

    #[test]
    fn semi_batched_stream_is_feasible_and_bounded() {
        // Groups of jobs arriving every `half`; OPT known to be <= 2*half by
        // construction (each group's union OPT <= 8, set half = 8).
        let half: Time = 8;
        let m = 8;
        let mut jobs = Vec::new();
        for i in 0..6u64 {
            jobs.push(JobSpec { graph: star(7), release: i * half });
            jobs.push(JobSpec { graph: chain(4), release: i * half });
        }
        let inst = Instance::new(jobs);
        let s = Engine::new(m).run(&inst, &mut AlgoA::semi_batched(4, half)).unwrap();
        s.verify(&inst).unwrap();
        let stats = flow_stats(&inst, &s);
        assert!(
            stats.max_flow <= 129 * 2 * half,
            "Theorem 5.6 bound violated: {}",
            stats.max_flow
        );
    }

    #[test]
    #[should_panic(expected = "semi-batched AlgoA requires releases")]
    fn semi_batched_rejects_off_boundary_arrivals() {
        let inst = Instance::new(vec![
            JobSpec { graph: chain(2), release: 0 },
            JobSpec { graph: chain(2), release: 3 },
        ]);
        let _ = Engine::new(4).run(&inst, &mut AlgoA::semi_batched(4, 8));
    }

    #[test]
    fn batching_mode_defers_and_completes() {
        let half: Time = 4;
        let inst = Instance::new(vec![
            JobSpec { graph: star(5), release: 0 },
            JobSpec { graph: chain(3), release: 1 },
            JobSpec { graph: star(4), release: 6 },
            JobSpec { graph: chain(2), release: 7 },
        ]);
        let m = 8;
        let s = Engine::new(m).run(&inst, &mut AlgoA::with_batching(4, half)).unwrap();
        s.verify(&inst).unwrap();
        // Jobs arriving at 1 are deferred to 4: nothing of job 1 may run in
        // steps 2..=4.
        for t in 2..=4 {
            assert!(
                s.at(t).iter().all(|&(j, _)| j != flowtree_dag::JobId(1)),
                "deferred job ran early at step {t}"
            );
        }
        let stats = flow_stats(&inst, &s);
        assert!(stats.max_flow <= 129 * 2 * half);
    }

    #[test]
    fn head_runs_lpf_schedule_verbatim() {
        // One job; its first levels must match LPF(g, m/alpha) exactly.
        let g = caterpillar(6, &[2, 3, 0, 4, 1, 0]);
        let inst = Instance::single(g.clone());
        let (m, alpha) = (8, 4);
        let half = 16; // comfortably >= span so the whole job is head
        let s = Engine::new(m).run(&inst, &mut AlgoA::semi_batched(alpha, half)).unwrap();
        s.verify(&inst).unwrap();
        let levels = crate::lpf::lpf_levels(&g, m / alpha);
        for (i, level) in levels.iter().enumerate() {
            let mut got: Vec<u32> = s.at(i as Time + 1).iter().map(|&(_, v)| v.0).collect();
            let mut want = level.to_vec();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "step {}", i + 1);
        }
    }

    #[test]
    fn old_groups_share_leftover_processors_fifo() {
        // Three heavy groups stack up; once old, the earliest gets MC grants
        // first. We check global feasibility + that everything finishes
        // within the theorem bound.
        let half: Time = 2;
        let m = 12;
        let mut jobs = Vec::new();
        for i in 0..5u64 {
            // Each group: work 3 * m * half (heavy — the system overloads,
            // which stresses the FIFO tail pool).
            jobs.push(JobSpec { graph: star((3 * m * half as usize) - 1), release: i * half });
        }
        let inst = Instance::new(jobs);
        let s = Engine::new(m).run(&inst, &mut AlgoA::semi_batched(4, half)).unwrap();
        s.verify(&inst).unwrap();
    }

    #[test]
    fn enqueue_with_mask_schedules_only_remaining() {
        // Simulate a guess-double handoff: chain(4) with prefix executed.
        let g = chain(4);
        let inst = Instance::new(vec![
            JobSpec { graph: g.clone(), release: 0 },
            // A dummy job so the engine has work for the masked test to
            // coexist with (keeps instance auto-horizon sane).
            JobSpec { graph: chain(1), release: 0 },
        ]);
        // Drive manually: AlgoA must not run nodes 0,1 of job 0.
        struct Hybrid {
            inner: AlgoA,
            primed: bool,
        }
        impl OnlineScheduler for Hybrid {
            fn clairvoyance(&self) -> Clairvoyance {
                Clairvoyance::Clairvoyant
            }
            fn on_arrival(&mut self, _t: Time, job: JobId, _v: &SimView<'_>) {
                if job == JobId(1) {
                    self.inner.enqueue(job, None);
                }
                // Job 0 handled manually below.
            }
            fn select(&mut self, t: Time, view: &SimView<'_>, sel: &mut Selection) {
                if !self.primed {
                    // Execute nodes 0,1 of job 0 "by hand" in the first two
                    // steps, then hand the rest to AlgoA.
                    if t == 0 {
                        sel.push(JobId(0), NodeId(0));
                        return;
                    }
                    if t == 1 {
                        sel.push(JobId(0), NodeId(1));
                        self.inner.enqueue(JobId(0), Some(vec![false, false, true, true]));
                        self.primed = true;
                        return;
                    }
                }
                self.inner.select(t, view, sel);
            }
        }
        let mut h = Hybrid { inner: AlgoA::with_batching(4, 2), primed: false };
        let s = Engine::new(8).run(&inst, &mut h).unwrap();
        s.verify(&inst).unwrap();
        // Nodes 2,3 must run at t >= 3 (next boundary after priming is 2).
        let c = s.completion_times(&inst);
        assert!(c[0].unwrap() >= 4);
    }

    #[test]
    fn adversarial_fifo_instance_is_handled_well() {
        // The Section 4 shape (layers with key subjobs) released in a
        // stream; AlgoA must stay within its constant bound. (The full
        // adaptive adversary lives in flowtree-workloads; this is the static
        // skeleton.)
        let m = 8usize;
        let sizes: Vec<usize> = (0..m).map(|i| 1 + (i * 3) % (m + 1)).collect();
        let (g, _) = flowtree_dag::builder::keyed_layers(&sizes);
        let half = g.opt_single_job(m as u64).div_ceil(2).max(1);
        let mut jobs = Vec::new();
        for i in 0..4u64 {
            jobs.push(JobSpec { graph: g.clone(), release: i * half });
        }
        let inst = Instance::new(jobs);
        let s = Engine::new(m).run(&inst, &mut AlgoA::semi_batched(4, half)).unwrap();
        s.verify(&inst).unwrap();
        let stats = flow_stats(&inst, &s);
        assert!(stats.max_flow <= 129 * 2 * half);
    }

    #[test]
    fn name_reports_parameters() {
        assert_eq!(AlgoA::semi_batched(4, 7).name(), "AlgoA[alpha=4,half=7]");
        assert_eq!(AlgoA::with_batching(8, 3).name(), "AlgoA[alpha=8,half=3,batched]");
    }

    #[test]
    #[should_panic(expected = "Algorithm A requires out-forest jobs")]
    fn jobs_with_joins_are_rejected_when_grouped() {
        let mut b = flowtree_dag::GraphBuilder::new(3);
        b.edge(0, 2).edge(1, 2);
        let inst = Instance::single(b.build().unwrap());
        let _ = Engine::new(4).run(&inst, &mut AlgoA::semi_batched(4, 8));
    }

    #[test]
    #[should_panic(expected = "alpha > 2")]
    fn alpha_two_rejected() {
        AlgoA::semi_batched(2, 4);
    }
}
