//! Runtime simulation state: which subjobs are ready, which jobs are alive.
//!
//! [`SimState`] tracks, per alive job, the remaining in-degree of every
//! node, a ready list (arbitrary order; removal is O(1) swap-remove) and a
//! global monotone **became-ready stamp** per node so schedulers can
//! reconstruct the true became-ready order when they need it (e.g.
//! `FIFO[became-ready]`). All mutation is O(1) amortized per (node, edge).
//!
//! Per-node state exists only while a job is alive: a job's slots and ready
//! list are filled from a spare pool when it is released and go back to the
//! pool when its last subjob completes. The working set is therefore the
//! alive jobs, and the pool never holds more buffers than the peak number
//! of jobs alive at once. Unreleased and finished jobs keep only a few
//! counters: they have no ready subjobs, and their per-node questions are
//! answered from the job's phase alone.

use crate::instance::Instance;
use flowtree_dag::{JobId, NodeId, Time};

const NOT_READY: u32 = u32::MAX;

/// Per-node runtime bookkeeping, kept together so the completion hot path
/// (indeg decrement → ready insert → stamp) touches one cache line per node
/// and the engine's pick check reads the same slot it is about to complete.
#[derive(Debug, Clone, Copy)]
struct NodeSlot {
    /// Remaining unfinished predecessors.
    indeg: u32,
    /// Position in the job's `ready` list (NOT_READY if absent).
    pos: u32,
    /// Global became-ready stamp (monotone across the whole simulation;
    /// 0 = never ready yet).
    seq: u64,
    /// The engine's duplicate-pick stamp: the last step stamp this node was
    /// picked under (see [`SimState::claim`]; 0 = never picked).
    stamp: Time,
}

/// Per-job runtime bookkeeping.
#[derive(Debug, Clone, Default)]
struct JobState {
    /// Per-node slots, indexed by node id; empty unless the job is alive.
    nodes: Vec<NodeSlot>,
    /// Ready nodes (arbitrary order — removal swaps; use the slot `seq` for
    /// true became-ready order); empty unless the job is alive.
    ready: Vec<u32>,
    /// Number of unfinished nodes.
    unfinished: u32,
    /// Has the job been released to the scheduler yet?
    released: bool,
}

impl JobState {
    fn unreleased(g: &flowtree_dag::JobGraph) -> Self {
        JobState { unfinished: g.n() as u32, ..JobState::default() }
    }
}

/// Why [`SimState::claim`] refused a pick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Refusal {
    /// Out of bounds, not released, finished, or not ready.
    NotReady,
    /// Already claimed under the same step stamp.
    Duplicate,
}

/// Mutable simulation state over an [`Instance`].
#[derive(Debug, Clone)]
pub struct SimState {
    jobs: Vec<JobState>,
    /// Cleared slot and ready buffers of finished jobs, reused at release.
    spare: Vec<(Vec<NodeSlot>, Vec<u32>)>,
    /// Released, unfinished jobs in arrival (JobId) order.
    alive: Vec<JobId>,
    /// Next job (by arrival order) not yet released.
    next_release: usize,
    finished_jobs: usize,
    /// Monotone became-ready counter (next stamp to hand out).
    next_seq: u64,
    /// Ready subjobs over all jobs, maintained incrementally (finished and
    /// unreleased jobs contribute zero, so this equals the sum over alive).
    total_ready: usize,
}

impl SimState {
    /// Initial state: nothing released, nothing complete. Costs O(jobs):
    /// per-node state is built only when a job is released.
    pub fn new(instance: &Instance) -> Self {
        let jobs = instance.jobs().iter().map(|spec| JobState::unreleased(&spec.graph)).collect();
        SimState {
            jobs,
            spare: Vec::new(),
            alive: Vec::new(),
            next_release: 0,
            finished_jobs: 0,
            next_seq: 1,
            total_ready: 0,
        }
    }

    /// Register the next job appended to `instance` after this state was
    /// built (streaming admission): call once per
    /// [`Instance::push_job`](crate::Instance::push_job), in order. O(1):
    /// the new job starts unreleased, and [`release_one`](Self::release_one)
    /// builds its per-node state when its release time is due, exactly as
    /// for a batch-constructed instance.
    pub fn push_job(&mut self, instance: &Instance) {
        let spec = &instance.jobs()[self.jobs.len()];
        self.jobs.push(JobState::unreleased(&spec.graph));
    }

    /// Release the next job by arrival order if its release time is `<= t`.
    /// Returns `None` when no release is due — the peek costs nothing, so
    /// the engine's loop pays no allocation on the (overwhelmingly common)
    /// no-release step. The job's slots are filled from the spare pool, and
    /// its roots become ready in id order.
    pub fn release_one(&mut self, instance: &Instance, t: Time) -> Option<JobId> {
        let spec = instance.jobs().get(self.next_release)?;
        if spec.release > t {
            return None;
        }
        let g = &spec.graph;
        let (mut nodes, mut ready) = self.spare.pop().unwrap_or_default();
        nodes.reserve(g.n());
        for v in 0..g.n() as u32 {
            let indeg = g.in_degree(NodeId(v)) as u32;
            let mut slot = NodeSlot { indeg, pos: NOT_READY, seq: 0, stamp: 0 };
            if indeg == 0 {
                slot.pos = ready.len() as u32;
                slot.seq = self.next_seq;
                self.next_seq += 1;
                ready.push(v);
            }
            nodes.push(slot);
        }
        self.total_ready += ready.len();
        let js = &mut self.jobs[self.next_release];
        js.nodes = nodes;
        js.ready = ready;
        js.released = true;
        let id = JobId(self.next_release as u32);
        self.alive.push(id);
        self.next_release += 1;
        Some(id)
    }

    /// Release every job with `release <= t` that is not yet released.
    /// Returns the ids released now (in arrival order).
    pub fn release_due(&mut self, instance: &Instance, t: Time) -> Vec<JobId> {
        let mut out = Vec::new();
        while let Some(id) = self.release_one(instance, t) {
            out.push(id);
        }
        out
    }

    /// Release time of the next unreleased job (`None` when all released).
    /// Releases are sorted, so this is the earliest pending arrival.
    pub fn next_release_time(&self, instance: &Instance) -> Option<Time> {
        instance.jobs().get(self.next_release).map(|j| j.release)
    }

    /// Check one pick of the engine's step under `stamp` (a nonzero value
    /// unique to the step) and mark it claimed. The checks run in a fixed
    /// order: bounds (a job that is unreleased or finished has no slots, so
    /// it fails here too), then duplicate within the step, then readiness.
    /// Readiness is only cleared on completion and the engine completes a
    /// step's picks after claiming all of them, so every pick is checked
    /// against the start-of-step state.
    pub(crate) fn claim(&mut self, job: JobId, node: NodeId, stamp: Time) -> Result<(), Refusal> {
        let slot = self
            .jobs
            .get_mut(job.index())
            .and_then(|js| js.nodes.get_mut(node.index()))
            .ok_or(Refusal::NotReady)?;
        if slot.stamp == stamp {
            return Err(Refusal::Duplicate);
        }
        slot.stamp = stamp;
        if slot.pos == NOT_READY {
            return Err(Refusal::NotReady);
        }
        Ok(())
    }

    /// Complete `(job, node)` at time `t` (it ran during step `t`): remove
    /// it from the ready list and enable any children whose last
    /// predecessor this was. When this was the job's last subjob, its slot
    /// and ready buffers go back to the spare pool.
    ///
    /// Panics if the job is not alive; panics (debug) if the node was not
    /// ready.
    pub fn complete(&mut self, instance: &Instance, job: JobId, node: NodeId, t: Time) {
        debug_assert!(t >= 1, "a subjob completes at the end of a step, at t >= 1");
        let g = instance.graph(job);
        let js = &mut self.jobs[job.index()];
        let vi = node.index();
        debug_assert!(js.nodes[vi].pos != NOT_READY, "{job}/{node} was not ready");

        // Swap-remove from ready, fixing the moved element's position.
        let p = js.nodes[vi].pos as usize;
        js.ready.swap_remove(p);
        if p < js.ready.len() {
            js.nodes[js.ready[p] as usize].pos = p as u32;
        }
        js.nodes[vi].pos = NOT_READY;
        self.total_ready -= 1;

        for &c in g.children(node) {
            let slot = &mut js.nodes[c as usize];
            slot.indeg -= 1;
            if slot.indeg == 0 {
                slot.pos = js.ready.len() as u32;
                slot.seq = self.next_seq;
                self.next_seq += 1;
                js.ready.push(c);
                self.total_ready += 1;
            }
        }
        js.unfinished -= 1;
        if js.unfinished == 0 {
            // The last subjob has no unfinished children, so the ready list
            // is empty and nothing reads the slots again.
            self.finished_jobs += 1;
            let mut nodes = std::mem::take(&mut js.nodes);
            nodes.clear();
            self.spare.push((nodes, std::mem::take(&mut js.ready)));
        }
    }

    /// Drop finished jobs from the alive list (kept in arrival order).
    pub fn prune_alive(&mut self) {
        let jobs = &self.jobs;
        self.alive.retain(|j| jobs[j.index()].unfinished > 0);
    }

    /// Released, unfinished jobs in arrival order (may briefly include jobs
    /// finished this step until [`prune_alive`](Self::prune_alive) runs).
    pub fn alive(&self) -> &[JobId] {
        &self.alive
    }

    /// Ready nodes of `job` (arbitrary order; pair with
    /// [`ready_seq`](Self::ready_seq) for the true became-ready order).
    /// Empty for a job that is not alive.
    pub fn ready(&self, job: JobId) -> &[u32] {
        &self.jobs[job.index()].ready
    }

    /// The global became-ready stamp of a node of an alive job: smaller =
    /// became ready earlier (unique across the whole simulation). 0 for a
    /// node that has not become ready yet and for any node of a job that
    /// is not alive.
    pub fn ready_seq(&self, job: JobId, node: NodeId) -> u64 {
        self.jobs[job.index()].nodes.get(node.index()).map_or(0, |s| s.seq)
    }

    /// Is a specific node ready? Always false for a job that is not alive.
    pub fn is_ready(&self, job: JobId, node: NodeId) -> bool {
        self.jobs[job.index()]
            .nodes
            .get(node.index())
            .is_some_and(|s| s.pos != NOT_READY)
    }

    /// Has a node completed? False for every node of an unreleased job,
    /// true for every node of a finished one; for an alive job, true once
    /// the node became ready and then left the ready list. Completion
    /// *times* are not kept here: the recorded
    /// [`Schedule`](crate::Schedule) holds them.
    pub fn is_complete(&self, job: JobId, node: NodeId) -> bool {
        let js = &self.jobs[job.index()];
        match js.nodes.get(node.index()) {
            Some(s) => s.seq != 0 && s.pos == NOT_READY,
            None => js.released && js.unfinished == 0,
        }
    }

    /// Number of unfinished subjobs of `job`.
    pub fn unfinished(&self, job: JobId) -> u32 {
        self.jobs[job.index()].unfinished
    }

    /// Has `job` been released?
    pub fn is_released(&self, job: JobId) -> bool {
        self.jobs[job.index()].released
    }

    /// Total ready subjobs over all alive jobs — an incrementally maintained
    /// counter, O(1) per call (it used to be an O(alive) per-step sum).
    pub fn total_ready(&self) -> usize {
        self.total_ready
    }

    /// Are all jobs finished?
    pub fn all_done(&self) -> bool {
        self.finished_jobs == self.jobs.len()
    }

    /// Slot buffers in existence: those of alive jobs plus the spare pool.
    /// A buffer is allocated only when the pool is empty, so this never
    /// exceeds the peak number of jobs alive at once.
    #[cfg(test)]
    fn buffers(&self) -> usize {
        self.jobs.iter().filter(|js| js.nodes.capacity() > 0).count() + self.spare.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{Instance, JobSpec};
    use flowtree_dag::builder::{chain, star};

    fn two_job_instance() -> Instance {
        Instance::new(vec![
            JobSpec { graph: chain(3), release: 0 },
            JobSpec { graph: star(2), release: 2 },
        ])
    }

    #[test]
    fn release_order_and_roots() {
        let inst = two_job_instance();
        let mut st = SimState::new(&inst);
        assert_eq!(st.release_due(&inst, 0), vec![JobId(0)]);
        assert_eq!(st.release_due(&inst, 1), vec![]);
        assert_eq!(st.release_due(&inst, 2), vec![JobId(1)]);
        assert_eq!(st.alive(), &[JobId(0), JobId(1)]);
        assert_eq!(st.ready(JobId(0)), &[0]);
        assert_eq!(st.ready(JobId(1)), &[0]);
        assert!(st.is_released(JobId(1)));
    }

    #[test]
    fn late_release_catches_up() {
        let inst = two_job_instance();
        let mut st = SimState::new(&inst);
        // Jump straight to t=5: both released at once, in order.
        assert_eq!(st.release_due(&inst, 5), vec![JobId(0), JobId(1)]);
    }

    #[test]
    fn completion_enables_children() {
        let inst = two_job_instance();
        let mut st = SimState::new(&inst);
        st.release_due(&inst, 0);
        st.complete(&inst, JobId(0), NodeId(0), 1);
        assert_eq!(st.ready(JobId(0)), &[1]);
        assert!(st.is_complete(JobId(0), NodeId(0)));
        assert!(!st.is_complete(JobId(0), NodeId(1)));
        assert_eq!(st.unfinished(JobId(0)), 2);
    }

    #[test]
    fn star_root_enables_all_leaves() {
        let inst = two_job_instance();
        let mut st = SimState::new(&inst);
        st.release_due(&inst, 2);
        st.complete(&inst, JobId(1), NodeId(0), 3);
        assert_eq!(st.ready(JobId(1)), &[1, 2]);
        assert!(st.is_ready(JobId(1), NodeId(1)));
        assert!(!st.is_ready(JobId(1), NodeId(0)));
    }

    #[test]
    fn finish_job_and_prune() {
        let inst = two_job_instance();
        let mut st = SimState::new(&inst);
        st.release_due(&inst, 0);
        st.complete(&inst, JobId(0), NodeId(0), 1);
        st.complete(&inst, JobId(0), NodeId(1), 2);
        st.complete(&inst, JobId(0), NodeId(2), 3);
        assert_eq!(st.unfinished(JobId(0)), 0);
        st.prune_alive();
        assert!(st.alive().is_empty());
        assert!(!st.all_done()); // job 1 not yet released/finished
        st.release_due(&inst, 2);
        st.complete(&inst, JobId(1), NodeId(0), 3);
        st.complete(&inst, JobId(1), NodeId(1), 4);
        st.complete(&inst, JobId(1), NodeId(2), 4);
        assert!(st.all_done());
    }

    #[test]
    fn ready_order_is_became_ready_order() {
        // Diamond-ish out-tree: root with 3 children; completing the root
        // makes children ready in child-list order.
        let inst = Instance::single(star(3));
        let mut st = SimState::new(&inst);
        st.release_due(&inst, 0);
        st.complete(&inst, JobId(0), NodeId(0), 1);
        assert_eq!(st.ready(JobId(0)), &[1, 2, 3]);
        // Complete the middle one; swap_remove moves 3 into its slot.
        st.complete(&inst, JobId(0), NodeId(2), 2);
        assert_eq!(st.ready(JobId(0)), &[1, 3]);
        assert!(st.is_ready(JobId(0), NodeId(3)));
    }

    #[test]
    fn total_ready_sums_alive_jobs() {
        let inst = two_job_instance();
        let mut st = SimState::new(&inst);
        st.release_due(&inst, 2);
        assert_eq!(st.total_ready(), 2);
    }

    /// The incremental counter must agree with a from-scratch sum over the
    /// alive jobs' ready lists after every kind of mutation.
    #[test]
    fn total_ready_counter_matches_recomputed_sum() {
        let recompute =
            |st: &SimState| -> usize { st.alive().iter().map(|&j| st.ready(j).len()).sum() };
        let inst = Instance::new(vec![
            JobSpec { graph: star(3), release: 0 },
            JobSpec { graph: chain(3), release: 1 },
        ]);
        let mut st = SimState::new(&inst);
        assert_eq!(st.total_ready(), 0);
        st.release_due(&inst, 0);
        assert_eq!(st.total_ready(), recompute(&st));
        st.complete(&inst, JobId(0), NodeId(0), 1); // star root: 3 leaves appear
        assert_eq!(st.total_ready(), recompute(&st));
        assert_eq!(st.total_ready(), 3);
        st.release_due(&inst, 1);
        assert_eq!(st.total_ready(), 4);
        st.complete(&inst, JobId(0), NodeId(1), 2);
        st.complete(&inst, JobId(0), NodeId(2), 2);
        st.complete(&inst, JobId(0), NodeId(3), 2);
        st.prune_alive();
        assert_eq!(st.total_ready(), recompute(&st));
        assert_eq!(st.total_ready(), 1); // chain head only
    }

    #[test]
    fn release_one_peeks_without_allocating() {
        let inst = two_job_instance();
        let mut st = SimState::new(&inst);
        assert_eq!(st.next_release_time(&inst), Some(0));
        assert_eq!(st.release_one(&inst, 0), Some(JobId(0)));
        assert_eq!(st.release_one(&inst, 0), None); // job 1 releases at 2
        assert_eq!(st.next_release_time(&inst), Some(2));
        assert_eq!(st.release_one(&inst, 2), Some(JobId(1)));
        assert_eq!(st.release_one(&inst, 99), None);
        assert_eq!(st.next_release_time(&inst), None);
    }

    #[test]
    fn pushed_jobs_behave_like_batch_construction() {
        let mut inst = Instance::empty();
        let mut st = SimState::new(&inst);
        assert!(st.all_done()); // vacuously: zero jobs
        inst.push_job(JobSpec { graph: chain(3), release: 0 });
        st.push_job(&inst);
        assert!(!st.all_done());
        assert_eq!(st.release_due(&inst, 0), vec![JobId(0)]);
        inst.push_job(JobSpec { graph: star(2), release: 2 });
        st.push_job(&inst);
        assert_eq!(st.next_release_time(&inst), Some(2));
        assert_eq!(st.release_due(&inst, 2), vec![JobId(1)]);
        assert_eq!(st.alive(), &[JobId(0), JobId(1)]);
        assert_eq!(st.total_ready(), 2);
    }

    #[test]
    fn jobs_that_are_not_alive_answer_from_their_phase() {
        let inst = two_job_instance();
        let mut st = SimState::new(&inst);
        st.release_due(&inst, 0);
        // Job 1 is not released yet: nothing ready, nothing complete.
        assert!(st.ready(JobId(1)).is_empty());
        assert!(!st.is_ready(JobId(1), NodeId(0)));
        assert!(!st.is_complete(JobId(1), NodeId(0)));
        assert_eq!(st.ready_seq(JobId(1), NodeId(0)), 0);
        assert_eq!(st.unfinished(JobId(1)), 3);
        for (v, t) in [(0, 1), (1, 2), (2, 3)] {
            st.complete(&inst, JobId(0), NodeId(v), t);
        }
        // Job 0 finished: its slots are gone, every node reads complete.
        assert!(st.ready(JobId(0)).is_empty());
        assert!(!st.is_ready(JobId(0), NodeId(0)));
        assert!((0..3).all(|v| st.is_complete(JobId(0), NodeId(v))));
        assert_eq!(st.ready_seq(JobId(0), NodeId(2)), 0);
    }

    /// A job released after another finished reuses its buffers, with
    /// fresh slots: the recycled job's state starts from its own graph.
    #[test]
    fn released_job_reuses_a_finished_jobs_buffers() {
        let inst = Instance::new(vec![
            JobSpec { graph: star(3), release: 0 },
            JobSpec { graph: chain(2), release: 3 },
        ]);
        let mut st = SimState::new(&inst);
        st.release_due(&inst, 0);
        st.complete(&inst, JobId(0), NodeId(0), 1);
        for v in 1..=3 {
            st.complete(&inst, JobId(0), NodeId(v), 2);
        }
        st.prune_alive();
        assert_eq!(st.buffers(), 1);
        st.release_due(&inst, 3);
        assert_eq!(st.buffers(), 1, "the spare buffer was reused");
        assert_eq!(st.ready(JobId(1)), &[0]);
        assert!(!st.is_ready(JobId(1), NodeId(1)));
        assert!(!st.is_complete(JobId(1), NodeId(1)));
        assert_eq!(st.ready_seq(JobId(1), NodeId(0)), 5); // 4 stamps of job 0 came first
        st.complete(&inst, JobId(1), NodeId(0), 4);
        assert_eq!(st.ready(JobId(1)), &[1]);
        st.complete(&inst, JobId(1), NodeId(1), 5);
        assert!(st.all_done());
    }

    /// Buffers in existence never exceed the peak number of alive jobs,
    /// however many jobs a stream runs through.
    #[test]
    fn buffers_are_bounded_by_peak_alive_jobs() {
        let inst =
            Instance::new((0..2000u64).map(|i| JobSpec { graph: chain(3), release: i }).collect());
        let mut st = SimState::new(&inst);
        let mut peak = 0;
        for t in 0.. {
            st.release_due(&inst, t);
            peak = peak.max(st.alive().len());
            let picks: Vec<(JobId, u32)> =
                st.alive().iter().map(|&j| (j, st.ready(j)[0])).collect();
            for (j, v) in picks {
                st.complete(&inst, j, NodeId(v), t + 1);
            }
            st.prune_alive();
            assert!(st.buffers() <= peak);
            if st.all_done() {
                break;
            }
        }
        assert_eq!(peak, 3);
        assert_eq!(st.buffers(), 3);
    }

    #[test]
    fn claim_checks_bounds_then_duplicates_then_readiness() {
        let inst = two_job_instance();
        let mut st = SimState::new(&inst);
        st.release_due(&inst, 0);
        assert_eq!(st.claim(JobId(0), NodeId(0), 1), Ok(()));
        assert_eq!(st.claim(JobId(0), NodeId(0), 1), Err(Refusal::Duplicate));
        assert_eq!(st.claim(JobId(0), NodeId(0), 2), Ok(()), "a new step stamp");
        assert_eq!(st.claim(JobId(0), NodeId(1), 2), Err(Refusal::NotReady));
        assert_eq!(st.claim(JobId(0), NodeId(1), 2), Err(Refusal::Duplicate));
        assert_eq!(st.claim(JobId(0), NodeId(3), 2), Err(Refusal::NotReady));
        assert_eq!(st.claim(JobId(1), NodeId(0), 2), Err(Refusal::NotReady));
        assert_eq!(st.claim(JobId(7), NodeId(0), 2), Err(Refusal::NotReady));
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn completing_unready_node_panics() {
        let inst = two_job_instance();
        let mut st = SimState::new(&inst);
        st.release_due(&inst, 0);
        st.complete(&inst, JobId(0), NodeId(2), 1); // chain tail not ready
    }
}
