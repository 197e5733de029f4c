//! The online simulation loop.
//!
//! [`Engine::run`] drives an [`OnlineScheduler`] over an [`Instance`]:
//!
//! ```text
//! t = 0
//! loop:
//!   release jobs with r_i <= t, calling on_arrival for each
//!   scheduler selects <= m ready subjobs      (runs during step t+1)
//!   engine validates and applies the selection
//!   t += 1
//! until all jobs complete
//! ```
//!
//! Every selection is validated online (readiness, distinctness — capacity
//! is enforced by [`Selection`] itself), so scheduler bugs surface as
//! [`EngineError`]s at the offending step instead of as corrupt results.
//!
//! A run returns a [`RunReport`]: the recorded [`Schedule`] plus
//! [`FlowStats`] and the engine's internal [`Counters`], so callers no
//! longer recompute flow statistics ad hoc. Attach a custom
//! [`Probe`] with [`Engine::with_probe`] to observe
//! per-step events (tracing, custom instrumentation).

use crate::instance::Instance;
use crate::metrics::FlowStats;
use crate::probe::{Counters, NullProbe, Probe, StepStat};
use crate::schedule::Schedule;
use crate::scheduler::{OnlineScheduler, Selection, SimView};
use crate::state::{Refusal, SimState};
use flowtree_dag::{JobId, NodeId, Time};

/// Errors raised while driving a scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The scheduler selected a subjob that is not ready (unreleased job,
    /// incomplete predecessor, or already-complete subjob).
    NotReady {
        /// Time of the offending selection.
        t: Time,
        /// Offending job.
        job: JobId,
        /// Offending node.
        node: NodeId,
    },
    /// The scheduler selected the same subjob twice in one step.
    DuplicateSelection {
        /// Time of the offending selection.
        t: Time,
        /// Offending job.
        job: JobId,
        /// Offending node.
        node: NodeId,
    },
    /// The simulation exceeded the safety horizon — the scheduler is
    /// stalling (e.g. selecting nothing while work remains).
    HorizonExceeded {
        /// The safety cap that was hit.
        horizon: Time,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::NotReady { t, job, node } => {
                write!(f, "t={t}: scheduler selected unready subjob {job}/{node}")
            }
            EngineError::DuplicateSelection { t, job, node } => {
                write!(f, "t={t}: scheduler selected {job}/{node} twice")
            }
            EngineError::HorizonExceeded { horizon } => {
                write!(f, "simulation exceeded safety horizon {horizon}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// The result of a completed [`Engine::run`]: the recorded schedule plus the
/// metrics every caller used to recompute by hand.
///
/// Dereferences to its [`Schedule`], so schedule accessors (`horizon`,
/// `load`, `at`, `verify`, `completion_times`, …) work directly on the
/// report.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// The recorded feasible schedule.
    pub schedule: Schedule,
    /// Flow statistics of the completed schedule (what
    /// [`metrics::flow_stats`](crate::metrics::flow_stats) computes).
    pub stats: FlowStats,
    /// The engine's internal per-step counters.
    pub counters: Counters,
}

impl std::ops::Deref for RunReport {
    type Target = Schedule;

    fn deref(&self) -> &Schedule {
        &self.schedule
    }
}

/// Simulation driver. Construct with the machine size, optionally attach a
/// [`Probe`] via [`with_probe`](Self::with_probe), then [`run`](Self::run).
#[derive(Debug, Clone)]
pub struct Engine<P: Probe = NullProbe> {
    m: usize,
    /// Hard cap on simulated steps; `None` derives a generous default from
    /// the instance (every scheduler that never idles unnecessarily finishes
    /// well below it).
    max_horizon: Option<Time>,
    probe: P,
}

impl Engine<NullProbe> {
    /// An engine over `m` identical processors, with no instrumentation
    /// (the [`NullProbe`] hooks compile away).
    pub fn new(m: usize) -> Self {
        assert!(m >= 1, "need at least one processor");
        Engine { m, max_horizon: None, probe: NullProbe }
    }
}

impl<P: Probe> Engine<P> {
    /// Attach `probe`; its hooks fire at every step of subsequent runs.
    /// Pass `&mut probe` to keep ownership for inspection after the run.
    pub fn with_probe<Q: Probe>(self, probe: Q) -> Engine<Q> {
        Engine { m: self.m, max_horizon: self.max_horizon, probe }
    }

    /// Override the safety horizon (default: `last_release + total_work +
    /// max_span + 4`, enough for any scheduler that makes progress whenever
    /// possible — even one running a single subjob per busy step).
    pub fn with_max_horizon(mut self, horizon: Time) -> Self {
        self.max_horizon = Some(horizon);
        self
    }

    /// Machine size.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Drive `scheduler` over `instance` to completion. Returns the recorded
    /// schedule bundled with its flow statistics and step counters. The
    /// caller should usually also run [`Schedule::verify`] (via the report's
    /// deref).
    ///
    /// The loop allocates nothing per step: one [`Selection`] scratch buffer
    /// is cleared and reused, its picks are copied straight into the CSR
    /// [`Schedule`], releases are peeked one at a time, and selection
    /// validation stamps each pick's own slot (O(picks) per step rather
    /// than O(picks²)). Per-node state exists only for alive jobs: a job's
    /// slots are filled at release from buffers that finished jobs
    /// returned. When no job is alive the engine fast-forwards to the next
    /// release, emitting a [`Probe::on_idle_gap`] that is observationally
    /// equivalent to stepwise idling; `select` is *not* called during such
    /// gaps (nothing is ready, so only an empty selection could be valid).
    pub fn run(
        &mut self,
        instance: &Instance,
        scheduler: &mut dyn OnlineScheduler,
    ) -> Result<RunReport, EngineError> {
        let horizon = self.max_horizon.unwrap_or_else(|| {
            instance.last_release() + instance.total_work() + instance.max_span() + 4
        });
        let mut core = Core::new(self.m, instance);
        core.start(&mut self.probe, instance.num_jobs());
        core.run_until(instance, &mut self.probe, scheduler, Time::MAX, horizon)?;
        Ok(core.finish(&mut self.probe))
    }
}

/// The per-run step state and the one step loop behind both
/// [`Engine::run`] and [`Session`](crate::Session).
///
/// The core borrows its [`Instance`] and probe per call instead of owning
/// them: the engine runs over a caller's instance, while a session owns the
/// instance it materializes from admissions and only appends to it between
/// calls (each append followed by [`SimState::push_job`]).
#[derive(Debug)]
pub(crate) struct Core {
    pub(crate) m: usize,
    pub(crate) state: SimState,
    schedule: Schedule,
    pub(crate) counters: Counters,
    sel: Selection,
    /// Jobs whose completion fired this step (scratch, cleared per step).
    finished: Vec<JobId>,
    pub(crate) t: Time,
}

impl Core {
    /// A core at `t = 0` sized for every job already in `instance`.
    pub(crate) fn new(m: usize, instance: &Instance) -> Self {
        Core {
            m,
            state: SimState::new(instance),
            schedule: Schedule::new(m),
            counters: Counters::default(),
            sel: Selection::new(m),
            finished: Vec::new(),
            t: 0,
        }
    }

    /// Fire `on_start` with the job count known up front.
    pub(crate) fn start<P: Probe>(&mut self, probe: &mut P, jobs: usize) {
        self.counters.on_start(self.m, jobs);
        probe.on_start(self.m, jobs);
    }

    /// Simulate until `t_end`, or until every job of `instance` has
    /// finished, whichever comes first; `horizon` is the safety cap.
    pub(crate) fn run_until<P: Probe>(
        &mut self,
        instance: &Instance,
        probe: &mut P,
        scheduler: &mut dyn OnlineScheduler,
        t_end: Time,
        horizon: Time,
    ) -> Result<(), EngineError> {
        let clair = scheduler.clairvoyance();
        let Core { m, state, schedule, counters, sel, finished, t: now } = self;
        let m = *m;
        while *now < t_end && !state.all_done() {
            let t = *now;
            if t > horizon {
                return Err(EngineError::HorizonExceeded { horizon });
            }

            while let Some(job) = state.release_one(instance, t) {
                let graph = instance.graph(job);
                counters.on_release(t, job, graph);
                probe.on_release(t, job, graph);
                let view = SimView::new(instance, state, m, clair);
                scheduler.on_arrival(t, job, &view);
            }

            // Idle-gap fast-forward: no alive job means nothing is ready and
            // no non-empty selection could be valid, so jump to the next
            // release. The gap is capped at `t_end` and at `horizon + 1`, so
            // a release beyond the safety cap still surfaces as
            // `HorizonExceeded` (with the same probe events the stepwise loop
            // emitted first). A gap split across `run_until` calls replays as
            // the same stepwise event stream, so probes cannot tell it from a
            // single-call gap.
            if state.alive().is_empty() {
                let next = state
                    .next_release_time(instance)
                    .expect("no job alive and none pending, yet not all done");
                debug_assert!(next > t, "a release due now was not applied");
                let end = next.min(t_end).min(horizon + 1);
                let gap = end - t;
                counters.on_idle_gap(t, gap, m);
                probe.on_idle_gap(t, gap, m);
                schedule.push_empty_steps(gap);
                *now = end;
                continue;
            }

            let ready_depth = state.total_ready();
            sel.clear();
            {
                let view = SimView::new(instance, state, m, clair);
                scheduler.select(t, &view, sel);
            }
            let picks = sel.picks();

            // Validate: in-bounds, pairwise distinct, ready — O(1) per
            // pick against the pick's own slot (see `SimState::claim`).
            let stamp = t + 1; // nonzero, unique per step
            for &(j, v) in picks {
                match state.claim(j, v, stamp) {
                    Ok(()) => {}
                    Err(Refusal::NotReady) => {
                        return Err(EngineError::NotReady { t, job: j, node: v });
                    }
                    Err(Refusal::Duplicate) => {
                        return Err(EngineError::DuplicateSelection { t, job: j, node: v });
                    }
                }
            }

            counters.on_select(t, picks);
            probe.on_select(t, picks);
            for &(j, v) in picks {
                probe.on_dispatch(t, j, v);
                state.complete(instance, j, v, t + 1);
            }

            let stat = StepStat {
                scheduled: picks.len(),
                idle_procs: m - picks.len(),
                ready_depth,
            };
            counters.on_step(t, stat);
            probe.on_step(t, stat);

            // A job completes at t+1 when this step ran its last subjob.
            // Fire once per job, in the order of its first pick; only the
            // few jobs finishing this step are ever searched.
            finished.clear();
            for &(j, _) in picks {
                if state.unfinished(j) == 0 && !finished.contains(&j) {
                    finished.push(j);
                    let release = instance.release(j);
                    counters.on_complete(t + 1, j, release);
                    probe.on_complete(t + 1, j, release);
                }
            }

            if !finished.is_empty() {
                state.prune_alive();
            }
            schedule.extend_step(picks);
            *now = t + 1;
        }
        Ok(())
    }

    /// Fire `on_finish` and bundle the report. Flow statistics come from the
    /// counters alone in O(jobs), with no second pass over the schedule.
    pub(crate) fn finish<P: Probe>(mut self, probe: &mut P) -> RunReport {
        self.counters.on_finish(self.t);
        probe.on_finish(self.t);
        let stats = self.counters.flow_stats();
        RunReport { schedule: self.schedule, stats, counters: self.counters }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::JobSpec;
    use crate::scheduler::Clairvoyance;
    use flowtree_dag::builder::{chain, star};

    /// Greedy work-conserving scheduler: take ready subjobs from alive jobs
    /// in FIFO order until processors run out.
    struct Greedy;

    impl OnlineScheduler for Greedy {
        fn clairvoyance(&self) -> Clairvoyance {
            Clairvoyance::NonClairvoyant
        }
        fn select(&mut self, _t: Time, view: &SimView<'_>, sel: &mut Selection) {
            'outer: for &job in view.alive() {
                for &v in view.ready(job) {
                    if !sel.push(job, NodeId(v)) {
                        break 'outer;
                    }
                }
            }
        }
        fn name(&self) -> String {
            "greedy".into()
        }
    }

    /// A scheduler that always does nothing (to exercise the horizon guard).
    struct Lazy;
    impl OnlineScheduler for Lazy {
        fn clairvoyance(&self) -> Clairvoyance {
            Clairvoyance::NonClairvoyant
        }
        fn select(&mut self, _t: Time, _v: &SimView<'_>, _s: &mut Selection) {}
    }

    /// A buggy scheduler that selects node 1 of job 0 immediately (not ready
    /// at t=0 for a chain).
    struct Eager;
    impl OnlineScheduler for Eager {
        fn clairvoyance(&self) -> Clairvoyance {
            Clairvoyance::NonClairvoyant
        }
        fn select(&mut self, _t: Time, _v: &SimView<'_>, sel: &mut Selection) {
            sel.push(JobId(0), NodeId(1));
        }
    }

    /// A buggy scheduler that selects the same subjob twice.
    struct Doubler;
    impl OnlineScheduler for Doubler {
        fn clairvoyance(&self) -> Clairvoyance {
            Clairvoyance::NonClairvoyant
        }
        fn select(&mut self, _t: Time, view: &SimView<'_>, sel: &mut Selection) {
            if let Some(&job) = view.alive().first() {
                if let Some(&v) = view.ready(job).first() {
                    sel.push(job, NodeId(v));
                    sel.push(job, NodeId(v));
                }
            }
        }
    }

    fn two_job_instance() -> Instance {
        Instance::new(vec![
            JobSpec { graph: chain(3), release: 0 },
            JobSpec { graph: star(3), release: 1 },
        ])
    }

    /// A buggy scheduler: greedy, except at its scripted steps, where it
    /// pushes exactly the scripted `(job, node)` picks.
    struct Scripted(Vec<(Time, Vec<(u32, u32)>)>);
    impl OnlineScheduler for Scripted {
        fn clairvoyance(&self) -> Clairvoyance {
            Clairvoyance::NonClairvoyant
        }
        fn select(&mut self, t: Time, view: &SimView<'_>, sel: &mut Selection) {
            match self.0.iter().find(|(at, _)| *at == t) {
                Some((_, picks)) => {
                    for &(j, v) in picks {
                        sel.push(JobId(j), NodeId(v));
                    }
                }
                None => Greedy.select(t, view, sel),
            }
        }
    }

    /// Job 0 finishes at t=1, and job 1, released at t=1, refills the slot
    /// buffers job 0 returned.
    fn recycling_instance() -> Instance {
        Instance::new(vec![
            JobSpec { graph: chain(1), release: 0 },
            JobSpec { graph: star(2), release: 1 },
        ])
    }

    #[test]
    fn repick_of_a_finished_job_is_not_ready_after_its_slots_are_recycled() {
        for picks in [vec![(0, 0)], vec![(1, 0), (0, 0)]] {
            let mut sched = Scripted(vec![(1, picks)]);
            let err = Engine::new(2).run(&recycling_instance(), &mut sched).unwrap_err();
            assert_eq!(err, EngineError::NotReady { t: 1, job: JobId(0), node: NodeId(0) });
        }
    }

    #[test]
    fn pick_of_an_unreleased_job_is_not_ready() {
        let inst = Instance::new(vec![
            JobSpec { graph: chain(1), release: 0 },
            JobSpec { graph: chain(3), release: 0 },
            JobSpec { graph: star(2), release: 5 },
        ]);
        // Before any job finished, and again once job 0 returned its slots.
        for t in [0, 1] {
            let mut sched = Scripted(vec![(t, vec![(2, 0)])]);
            let err = Engine::new(2).run(&inst, &mut sched).unwrap_err();
            assert_eq!(err, EngineError::NotReady { t, job: JobId(2), node: NodeId(0) });
        }
    }

    #[test]
    fn duplicate_pick_on_a_recycled_slot_is_rejected() {
        let mut sched = Scripted(vec![(1, vec![(1, 0), (1, 0)])]);
        let err = Engine::new(2).run(&recycling_instance(), &mut sched).unwrap_err();
        assert_eq!(err, EngineError::DuplicateSelection { t: 1, job: JobId(1), node: NodeId(0) });
        // Node 0 of job 0 was picked at t=0 in the same slot; a pick of the
        // recycled slot's new owner at t=1 is fine.
        let mut sched = Scripted(vec![(1, vec![(1, 0)])]);
        Engine::new(2)
            .run(&recycling_instance(), &mut sched)
            .unwrap()
            .verify(&recycling_instance())
            .unwrap();
    }

    #[test]
    fn greedy_completes_and_verifies() {
        let inst = two_job_instance();
        let s = Engine::new(2).run(&inst, &mut Greedy).unwrap();
        s.verify(&inst).unwrap();
        let c = s.completion_times(&inst);
        assert_eq!(c[0], Some(3)); // chain(3) released at 0 runs 1,2,3
        assert!(c[1].unwrap() >= 3); // star needs root + 2 steps of leaves on m=2
    }

    #[test]
    fn greedy_single_processor() {
        let inst = two_job_instance();
        let s = Engine::new(1).run(&inst, &mut Greedy).unwrap();
        s.verify(&inst).unwrap();
        assert_eq!(s.horizon(), 7); // 7 subjobs, one per step, no forced idles
    }

    #[test]
    fn many_processors_run_wide() {
        let inst = Instance::single(star(10));
        let s = Engine::new(16).run(&inst, &mut Greedy).unwrap();
        s.verify(&inst).unwrap();
        assert_eq!(s.horizon(), 2); // root, then all 10 leaves at once
        assert_eq!(s.load(2), 10);
    }

    #[test]
    fn idle_gap_before_late_arrival() {
        let inst = Instance::new(vec![
            JobSpec { graph: chain(1), release: 0 },
            JobSpec { graph: chain(1), release: 5 },
        ]);
        let s = Engine::new(4).run(&inst, &mut Greedy).unwrap();
        s.verify(&inst).unwrap();
        assert_eq!(s.horizon(), 6);
        for t in 2..=5 {
            assert_eq!(s.load(t), 0);
        }
    }

    #[test]
    fn fast_forward_emits_stepwise_equivalent_events() {
        // chain(1) at t=0, then nothing until t=7: steps 1..=6 are a
        // fast-forwarded gap. Counters and the JSONL trace must look exactly
        // like stepwise idling.
        let inst = Instance::new(vec![
            JobSpec { graph: chain(1), release: 0 },
            JobSpec { graph: chain(1), release: 7 },
        ]);
        let mut trace = crate::probe::JsonlTrace::new(Vec::new());
        let report = Engine::new(3).with_probe(&mut trace).run(&inst, &mut Greedy).unwrap();
        report.verify(&inst).unwrap();

        let c = &report.counters;
        assert_eq!(c.steps, 8);
        assert_eq!(c.dispatched, 2);
        assert_eq!(c.idle_slots, 2 + 6 * 3 + 2);
        assert_eq!(c.idle_steps, 8);

        let text = String::from_utf8(trace.finish().unwrap()).unwrap();
        // One step record per simulated step, gap steps included.
        let steps: Vec<&str> = text.lines().filter(|l| l.contains("\"ev\":\"step\"")).collect();
        assert_eq!(steps.len(), 8);
        assert!(text.contains(r#"{"ev":"step","t":3,"picks":[],"idle":3,"ready":0}"#));
        assert!(text.lines().last().unwrap().contains(r#""ev":"finish","horizon":8"#));
    }

    #[test]
    fn fast_forward_respects_horizon_cap() {
        // Second release far beyond the horizon: the gap must stop at the
        // cap and report HorizonExceeded, like the stepwise loop did.
        let inst = Instance::new(vec![
            JobSpec { graph: chain(1), release: 0 },
            JobSpec { graph: chain(1), release: 1_000 },
        ]);
        let err = Engine::new(2).with_max_horizon(10).run(&inst, &mut Greedy).unwrap_err();
        assert_eq!(err, EngineError::HorizonExceeded { horizon: 10 });
    }

    #[test]
    fn lazy_scheduler_hits_horizon() {
        let inst = two_job_instance();
        let err = Engine::new(2).with_max_horizon(50).run(&inst, &mut Lazy).unwrap_err();
        assert_eq!(err, EngineError::HorizonExceeded { horizon: 50 });
    }

    #[test]
    fn unready_selection_rejected() {
        let inst = two_job_instance();
        let err = Engine::new(2).run(&inst, &mut Eager).unwrap_err();
        assert_eq!(err, EngineError::NotReady { t: 0, job: JobId(0), node: NodeId(1) });
    }

    #[test]
    fn duplicate_selection_rejected() {
        let inst = two_job_instance();
        let err = Engine::new(2).run(&inst, &mut Doubler).unwrap_err();
        assert_eq!(err, EngineError::DuplicateSelection { t: 0, job: JobId(0), node: NodeId(0) });
    }

    #[test]
    fn arrival_hook_called_once_per_job() {
        struct Counting {
            arrivals: Vec<(Time, JobId)>,
        }
        impl OnlineScheduler for Counting {
            fn clairvoyance(&self) -> Clairvoyance {
                Clairvoyance::NonClairvoyant
            }
            fn on_arrival(&mut self, t: Time, job: JobId, _v: &SimView<'_>) {
                self.arrivals.push((t, job));
            }
            fn select(&mut self, _t: Time, view: &SimView<'_>, sel: &mut Selection) {
                for &job in view.alive() {
                    for &v in view.ready(job) {
                        if !sel.push(job, NodeId(v)) {
                            return;
                        }
                    }
                }
            }
        }
        let inst = two_job_instance();
        let mut s = Counting { arrivals: vec![] };
        Engine::new(2).run(&inst, &mut s).unwrap();
        assert_eq!(s.arrivals, vec![(0, JobId(0)), (1, JobId(1))]);
    }
}
