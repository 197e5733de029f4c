//! Runtime simulation state: which subjobs are ready, which jobs are alive.
//!
//! [`SimState`] tracks, per alive job, the remaining in-degree of every
//! node, a ready list (arbitrary order; removal is O(1) swap-remove) and a
//! **became-ready log**: the job's nodes in the order they became ready,
//! appended as they do. [`SimState::became_ready`] reads the log's ready
//! entries in that order (or, reversed, latest first), which is what
//! `FIFO[became-ready]` needs without sorting. All mutation is O(1)
//! amortized per (node, edge).
//!
//! Per-node state exists only while a job is alive: a job's slots, ready
//! list and log live in one `Live` record, taken from a recycled pool
//! when the job is released and returned to it when its last subjob
//! completes. The working set is therefore the alive jobs, and the pool
//! never holds more records than the peak number of jobs alive at once.
//! Every job, alive or not, keeps only a 12-byte `JobState`: unreleased
//! and finished jobs have no ready subjobs, and their per-node questions
//! are answered from the job's phase alone.

use crate::instance::Instance;
use flowtree_dag::{JobId, NodeId, Time};
use std::cell::Cell;

const NOT_READY: u32 = u32::MAX;

/// [`JobState::live`] of a job that holds no [`Live`] record (unreleased
/// or finished).
const NO_LIVE: u32 = u32::MAX;

/// Per-node runtime bookkeeping, kept together so the completion hot path
/// (indeg decrement → ready insert) touches one cache line per node and
/// the engine's pick check reads the same slot it is about to complete.
#[derive(Debug, Clone, Copy)]
struct NodeSlot {
    /// Remaining unfinished predecessors.
    indeg: u32,
    /// Position in the job's `ready` list (NOT_READY if absent).
    pos: u32,
    /// The engine's duplicate-pick stamp: the last step stamp this node was
    /// picked under (see [`SimState::claim`]; 0 = never picked).
    stamp: Time,
}

const _: () = assert!(std::mem::size_of::<NodeSlot>() == 16);

/// The buffers a job holds only while it is alive. Cleared, not freed, when
/// the job finishes, and reused by the next release.
#[derive(Debug, Clone, Default)]
struct Live {
    /// Per-node slots, indexed by node id.
    nodes: Vec<NodeSlot>,
    /// Ready nodes (arbitrary order: removal swaps).
    ready: Vec<u32>,
    /// Every node that has become ready, in the order it did. A node is
    /// never removed when it completes; readers skip completed entries.
    log: Vec<u32>,
    /// Every log entry before `head` is complete. Only readers advance it
    /// (completions never touch it), so a `Cell` lets them do so through
    /// `&self`.
    head: Cell<u32>,
    /// Completed entries past `head` that readers have walked over since
    /// the log was last compacted; once they add up to the log's length,
    /// the next completion compacts the log (see [`SimState::complete`]).
    skipped: Cell<u32>,
}

/// Per-job runtime bookkeeping.
#[derive(Debug, Clone)]
struct JobState {
    /// Index of the job's [`Live`] record; [`NO_LIVE`] unless alive.
    live: u32,
    /// Number of unfinished nodes.
    unfinished: u32,
    /// Has the job been released to the scheduler yet?
    released: bool,
}

// Every job ever admitted keeps one of these for the whole run.
const _: () = assert!(std::mem::size_of::<JobState>() == 12);

impl JobState {
    fn unreleased(g: &flowtree_dag::JobGraph) -> Self {
        JobState { live: NO_LIVE, unfinished: g.n() as u32, released: false }
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

/// The ready nodes of one job in the order they became ready (earliest
/// first; [`rev`](Iterator::rev) for latest first), from
/// [`SimState::became_ready`]. Walks the job's became-ready log and skips
/// the entries that have completed since.
#[derive(Debug, Clone)]
pub struct ReadyLog<'a> {
    entries: std::slice::Iter<'a, u32>,
    nodes: &'a [NodeSlot],
    /// The job's count of walked-over completed entries.
    skipped: Option<&'a Cell<u32>>,
}

impl ReadyLog<'_> {
    fn is_ready(&self, v: u32) -> bool {
        if self.nodes[v as usize].pos != NOT_READY {
            return true;
        }
        if let Some(s) = self.skipped {
            s.set(s.get().saturating_add(1));
        }
        false
    }
}

impl Iterator for ReadyLog<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        loop {
            let &v = self.entries.next()?;
            if self.is_ready(v) {
                return Some(NodeId(v));
            }
        }
    }
}

impl DoubleEndedIterator for ReadyLog<'_> {
    fn next_back(&mut self) -> Option<NodeId> {
        loop {
            let &v = self.entries.next_back()?;
            if self.is_ready(v) {
                return Some(NodeId(v));
            }
        }
    }
}

/// Mutable simulation state over an [`Instance`].
#[derive(Debug, Clone)]
pub struct SimState {
    jobs: Vec<JobState>,
    /// [`Live`] records: those of alive jobs, and cleared ones listed in
    /// `free` for the next release.
    live: Vec<Live>,
    /// Indices of cleared records in `live`.
    free: Vec<u32>,
    /// Released, unfinished jobs in arrival (JobId) order.
    alive: Vec<JobId>,
    /// Next job (by arrival order) not yet released.
    next_release: usize,
    finished_jobs: usize,
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
            live: Vec::new(),
            free: Vec::new(),
            alive: Vec::new(),
            next_release: 0,
            finished_jobs: 0,
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

    /// The job's [`Live`] record; `None` unless the job is alive.
    fn live(&self, job: JobId) -> Option<&Live> {
        self.live.get(self.jobs[job.index()].live as usize)
    }

    /// Release the next job by arrival order if its release time is `<= t`.
    /// Returns `None` when no release is due — the peek costs nothing, so
    /// the engine's loop pays no allocation on the (overwhelmingly common)
    /// no-release step. The job's record comes from the recycled pool, and
    /// its roots become ready in id order.
    pub fn release_one(&mut self, instance: &Instance, t: Time) -> Option<JobId> {
        let spec = instance.jobs().get(self.next_release)?;
        if spec.release > t {
            return None;
        }
        let g = &spec.graph;
        let li = self.free.pop().unwrap_or_else(|| {
            self.live.push(Live::default());
            (self.live.len() - 1) as u32
        });
        let lv = &mut self.live[li as usize];
        lv.nodes.resize(g.n(), NodeSlot { indeg: 0, pos: NOT_READY, stamp: 0 });
        lv.log.reserve(g.n());
        g.edge_heads().iter().for_each(|c| lv.nodes[c as usize].indeg += 1);
        for (v, slot) in lv.nodes.iter_mut().enumerate() {
            if slot.indeg == 0 {
                slot.pos = lv.ready.len() as u32;
                lv.ready.push(v as u32);
                lv.log.push(v as u32);
            }
        }
        self.total_ready += lv.ready.len();
        let js = &mut self.jobs[self.next_release];
        js.live = li;
        js.released = true;
        let id = JobId(self.next_release as u32);
        self.alive.push(id);
        self.next_release += 1;
        Some(id)
    }

    /// Release every job with `release <= t` that is not yet released.
    /// Returns the ids released now (in arrival order). The engine releases
    /// through [`release_one`](Self::release_one); this batch form stays
    /// public because the sim, core and facade tests drive a bare
    /// `SimState` with it.
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
        let li = self.jobs.get(job.index()).ok_or(Refusal::NotReady)?.live;
        let slot = self
            .live
            .get_mut(li as usize)
            .and_then(|lv| lv.nodes.get_mut(node.index()))
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
    /// predecessor this was, appending them to the became-ready log. When
    /// this was the job's last subjob, its record goes back to the pool.
    ///
    /// The log is compacted here (completed entries dropped, order kept)
    /// once readers have walked over as many completed entries as the log
    /// holds, so a reader's walk stays proportional to the ready set
    /// however the job's nodes are picked; a job whose log is never read
    /// is never compacted.
    ///
    /// Panics if the job is not alive; panics (debug) if the node was not
    /// ready.
    pub fn complete(&mut self, instance: &Instance, job: JobId, node: NodeId, t: Time) {
        debug_assert!(t >= 1, "a subjob completes at the end of a step, at t >= 1");
        let g = instance.graph(job);
        let js = &mut self.jobs[job.index()];
        let lv = &mut self.live[js.live as usize];
        let vi = node.index();
        debug_assert!(lv.nodes[vi].pos != NOT_READY, "{job}/{node} was not ready");

        // Swap-remove from ready, fixing the moved element's position.
        let p = lv.nodes[vi].pos as usize;
        lv.ready.swap_remove(p);
        if p < lv.ready.len() {
            lv.nodes[lv.ready[p] as usize].pos = p as u32;
        }
        lv.nodes[vi].pos = NOT_READY;
        self.total_ready -= 1;

        g.children(node).iter().for_each(|c| {
            let slot = &mut lv.nodes[c as usize];
            slot.indeg -= 1;
            if slot.indeg == 0 {
                slot.pos = lv.ready.len() as u32;
                lv.ready.push(c);
                lv.log.push(c);
                self.total_ready += 1;
            }
        });
        js.unfinished -= 1;
        if js.unfinished == 0 {
            // The last subjob has no unfinished children, so the ready list
            // is empty and nothing reads the record again.
            self.finished_jobs += 1;
            lv.nodes.clear();
            lv.log.clear();
            lv.head.set(0);
            lv.skipped.set(0);
            self.free.push(js.live);
            js.live = NO_LIVE;
        } else if lv.skipped.get() as usize >= lv.log.len() {
            let Live { nodes, log, head, skipped, .. } = lv;
            log.retain(|&v| nodes[v as usize].pos != NOT_READY);
            head.set(0);
            skipped.set(0);
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

    /// Ready nodes of `job` (arbitrary order; see
    /// [`became_ready`](Self::became_ready) for the order they became
    /// ready in). Empty for a job that is not alive.
    pub fn ready(&self, job: JobId) -> &[u32] {
        self.live(job).map_or(&[], |lv| &lv.ready)
    }

    /// The ready nodes of `job` in the order they became ready: roots in
    /// id order at release, then each completion's newly ready children in
    /// child-list order, completions in the order they were applied. Empty
    /// for a job that is not alive.
    ///
    /// Advances the log's head past completed entries first, so a reader
    /// that takes ready nodes from the front, as `FIFO[became-ready]`
    /// does, never walks the same completed entry twice.
    pub fn became_ready(&self, job: JobId) -> ReadyLog<'_> {
        let Some(lv) = self.live(job) else {
            return ReadyLog { entries: [].iter(), nodes: &[], skipped: None };
        };
        let mut h = lv.head.get() as usize;
        while lv.log.get(h).is_some_and(|&v| lv.nodes[v as usize].pos == NOT_READY) {
            h += 1;
        }
        lv.head.set(h as u32);
        ReadyLog {
            entries: lv.log[h..].iter(),
            nodes: &lv.nodes,
            skipped: Some(&lv.skipped),
        }
    }

    /// Is a specific node ready? Always false for a job that is not alive.
    pub fn is_ready(&self, job: JobId, node: NodeId) -> bool {
        self.live(job)
            .and_then(|lv| lv.nodes.get(node.index()))
            .is_some_and(|s| s.pos != NOT_READY)
    }

    /// Has a node completed? False for every node of an unreleased job,
    /// true for every node of a finished one; for an alive job, true once
    /// the node became ready (no predecessor left) and then left the ready
    /// list. Completion *times* are not kept here: the recorded
    /// [`Schedule`](crate::Schedule) holds them.
    pub fn is_complete(&self, job: JobId, node: NodeId) -> bool {
        match self.live(job) {
            Some(lv) => {
                lv.nodes.get(node.index()).is_some_and(|s| s.indeg == 0 && s.pos == NOT_READY)
            }
            None => {
                let js = &self.jobs[job.index()];
                js.released && js.unfinished == 0
            }
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

    /// [`Live`] records in existence: those of alive jobs plus the free
    /// ones. A record is created only when none is free, so this never
    /// exceeds the peak number of jobs alive at once.
    #[cfg(test)]
    fn buffers(&self) -> usize {
        self.live.len()
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
    fn join_waits_for_every_parent() {
        // Two sources 0 and 1, both parents of 2: the in-degrees counted
        // at release make 2 ready only when its second parent completes.
        let mut b = flowtree_dag::GraphBuilder::new(3);
        b.edge(1, 2).edge(0, 2);
        let inst = Instance::single(b.build().unwrap());
        let mut st = SimState::new(&inst);
        st.release_due(&inst, 0);
        assert_eq!(st.ready(JobId(0)), &[0, 1]);
        st.complete(&inst, JobId(0), NodeId(1), 1);
        assert!(!st.is_ready(JobId(0), NodeId(2)));
        st.complete(&inst, JobId(0), NodeId(0), 2);
        assert_eq!(st.ready(JobId(0)), &[2]);
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
    fn became_ready_reads_the_log_in_order_and_reversed() {
        // 0 -> {1, 2, 3}, 1 -> {4, 5}.
        let mut b = flowtree_dag::GraphBuilder::new(6);
        b.edge(0, 1).edge(0, 2).edge(0, 3).edge(1, 4).edge(1, 5);
        let inst = Instance::single(b.build().unwrap());
        let order = |st: &SimState| st.became_ready(JobId(0)).map(|v| v.0).collect::<Vec<_>>();
        let latest =
            |st: &SimState| st.became_ready(JobId(0)).rev().map(|v| v.0).collect::<Vec<_>>();
        let mut st = SimState::new(&inst);
        st.release_due(&inst, 0);
        assert_eq!(order(&st), [0]);
        st.complete(&inst, JobId(0), NodeId(0), 1);
        assert_eq!(order(&st), [1, 2, 3]);
        assert_eq!(latest(&st), [3, 2, 1]);
        // Completing 1 then 3 leaves the ready list as [5, 2, 4]; the log
        // still has 2 before 1's children, in child-list order.
        st.complete(&inst, JobId(0), NodeId(1), 2);
        st.complete(&inst, JobId(0), NodeId(3), 2);
        assert_eq!(st.ready(JobId(0)), &[5, 2, 4]);
        assert_eq!(order(&st), [2, 4, 5]);
        assert_eq!(latest(&st), [5, 4, 2]);
        // The head moved past the completed prefix 0, 1 only.
        assert_eq!(st.live(JobId(0)).unwrap().head.get(), 2);
    }

    #[test]
    fn log_is_compacted_once_readers_walk_as_many_completed_entries_as_it_holds() {
        let inst = Instance::single(star(6));
        let mut st = SimState::new(&inst);
        st.release_due(&inst, 0);
        st.complete(&inst, JobId(0), NodeId(0), 1);
        for v in [6, 5, 4] {
            st.complete(&inst, JobId(0), NodeId(v), 2);
        }
        let lv = |st: &SimState| st.live(JobId(0)).unwrap().clone();
        // Each latest-first read walks over 6, 5, 4: 3 entries per read.
        for reads in 1..=3u32 {
            assert_eq!(st.became_ready(JobId(0)).next_back(), Some(NodeId(3)));
            assert_eq!(lv(&st).skipped.get(), 3 * reads);
        }
        assert_eq!(lv(&st).log, [0, 1, 2, 3, 4, 5, 6], "only a completion compacts");
        st.complete(&inst, JobId(0), NodeId(3), 3);
        let after = lv(&st);
        assert_eq!(after.log, [1, 2]);
        assert_eq!((after.head.get(), after.skipped.get()), (0, 0));
        assert!(st.became_ready(JobId(0)).eq([NodeId(1), NodeId(2)]));
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
        assert_eq!(st.became_ready(JobId(1)).count(), 0);
        assert_eq!(st.unfinished(JobId(1)), 3);
        for (v, t) in [(0, 1), (1, 2), (2, 3)] {
            st.complete(&inst, JobId(0), NodeId(v), t);
        }
        // Job 0 finished: its slots are gone, every node reads complete.
        assert!(st.ready(JobId(0)).is_empty());
        assert!(!st.is_ready(JobId(0), NodeId(0)));
        assert!((0..3).all(|v| st.is_complete(JobId(0), NodeId(v))));
        assert_eq!(st.became_ready(JobId(0)).count(), 0);
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
        assert!(st.became_ready(JobId(1)).eq([NodeId(0)]), "a fresh log");
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
