//! Incremental (streaming) engine entry point.
//!
//! [`Engine::run`](crate::Engine::run) needs the whole [`Instance`] up
//! front; a [`Session`] instead accepts jobs one at a time via
//! [`admit`](Session::admit) and simulates on demand via
//! [`run_until`](Session::run_until), so a long-running service can feed
//! arrivals as they happen. The step loop is the engine's loop — one
//! crate-private core runs both, with the same release order, idle-gap
//! fast-forward, stamp-based selection validation and probe event stream —
//! so a session that admits every job of an instance before its release
//! time produces a [`RunReport`] *identical* to the batch engine's (the
//! differential tests in `flowtree-serve` pin this bit-for-bit).
//!
//! The contract that makes this work: a job may only be admitted with
//! `release >= now()`, and admissions must have nondecreasing release
//! times. Callers that ingest from concurrent sources enforce this with an
//! event-time watermark (see `flowtree-serve`): simulate step `t` only once
//! every arrival with release `<= t` has been admitted.

use crate::engine::{Core, EngineError, RunReport};
use crate::instance::{Instance, JobSpec};
use crate::probe::{Counters, NullProbe, Probe};
use crate::scheduler::{OnlineScheduler, SimView};
use flowtree_dag::{JobId, Time};

/// Errors from [`Session::admit`] and [`Session::admit_batch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The job's release time is before the session's current time — the
    /// steps that should have seen it were already simulated.
    ReleaseInPast {
        /// The rejected release time.
        release: Time,
        /// The session's current time.
        now: Time,
    },
    /// The job's release time is before an earlier admission's — admissions
    /// must arrive in nondecreasing release order.
    ReleaseOutOfOrder {
        /// The rejected release time.
        release: Time,
        /// The latest admitted release.
        last: Time,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::ReleaseInPast { release, now } => {
                write!(f, "cannot admit a job released at {release}: session is at {now}")
            }
            SessionError::ReleaseOutOfOrder { release, last } => {
                write!(f, "cannot admit a job released at {release} after one released at {last}")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// Default safety horizon: far enough to never bind in practice, low enough
/// that `horizon + 1` cannot overflow.
const DEFAULT_HORIZON: Time = Time::MAX / 4;

/// A resumable simulation accepting streamed arrivals.
///
/// ```
/// use flowtree_sim::{Session, Instance, JobSpec};
/// # use flowtree_sim::{Selection, SimView, OnlineScheduler, Clairvoyance};
/// # use flowtree_dag::{builder::chain, NodeId, Time};
/// # struct Greedy;
/// # impl OnlineScheduler for Greedy {
/// #     fn clairvoyance(&self) -> Clairvoyance { Clairvoyance::NonClairvoyant }
/// #     fn select(&mut self, _t: Time, view: &SimView<'_>, sel: &mut Selection) {
/// #         for &job in view.alive() {
/// #             for &v in view.ready(job) {
/// #                 if !sel.push(job, NodeId(v)) { return; }
/// #             }
/// #         }
/// #     }
/// # }
/// let mut sched = Greedy;
/// let mut s = Session::new(2);
/// s.admit(JobSpec { graph: chain(3), release: 0 }).unwrap();
/// s.run_until(Time::MAX, &mut sched).unwrap(); // runs dry at t=3
/// assert_eq!(s.now(), 3);
/// let (report, inst) = s.finish();
/// report.verify(&inst).unwrap();
/// ```
#[derive(Debug)]
pub struct Session<P: Probe = NullProbe> {
    instance: Instance,
    core: Core,
    probe: P,
    max_horizon: Time,
    started: bool,
}

impl Session<NullProbe> {
    /// A session over `m` identical processors, with no instrumentation.
    pub fn new(m: usize) -> Self {
        assert!(m >= 1, "need at least one processor");
        let instance = Instance::empty();
        let core = Core::new(m, &instance);
        Session {
            instance,
            core,
            probe: NullProbe,
            max_horizon: DEFAULT_HORIZON,
            started: false,
        }
    }
}

impl<P: Probe> Session<P> {
    /// Attach `probe` (before any admit/step; the session has not started).
    /// The probe sees the engine's event stream: each job's graph at
    /// [`Probe::on_release`], its release time at [`Probe::on_complete`].
    pub fn with_probe<Q: Probe>(self, probe: Q) -> Session<Q> {
        assert!(!self.started, "attach probes before the session starts");
        Session {
            instance: self.instance,
            core: self.core,
            probe,
            max_horizon: self.max_horizon,
            started: self.started,
        }
    }

    /// Override the safety horizon (a stalling scheduler surfaces as
    /// [`EngineError::HorizonExceeded`] instead of spinning forever).
    pub fn with_max_horizon(mut self, horizon: Time) -> Self {
        self.max_horizon = horizon;
        self
    }

    /// Machine size.
    pub fn m(&self) -> usize {
        self.core.m
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.core.t
    }

    /// Jobs admitted so far.
    pub fn num_admitted(&self) -> usize {
        self.instance.num_jobs()
    }

    /// The instance materialized from admissions so far.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The engine-maintained counters (live snapshot).
    pub fn counters(&self) -> &Counters {
        &self.core.counters
    }

    /// The attached probe (live snapshot — e.g. per-shard monitors).
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Mutable access to the attached probe, for mid-stream reconfiguration
    /// (e.g. retargeting an `InvariantMonitor` at a scheduler hot-swap).
    /// Probes see every event exactly once either way; this only exposes
    /// their own knobs, not the event stream.
    pub fn probe_mut(&mut self) -> &mut P {
        &mut self.probe
    }

    fn ensure_started(&mut self) {
        if !self.started {
            self.started = true;
            // A streaming run starts with zero known jobs; probes grow.
            self.core.start(&mut self.probe, 0);
        }
    }

    /// Admit one job: a one-job [`admit_batch`](Self::admit_batch). Its
    /// release must be `>= now()` and `>=` every earlier admission's
    /// release; the job releases (and its roots become ready) once
    /// simulation reaches its release time.
    pub fn admit(&mut self, spec: JobSpec) -> Result<JobId, SessionError> {
        let id = JobId(self.instance.num_jobs() as u32);
        self.admit_batch(vec![spec])?;
        Ok(id)
    }

    /// Admit a whole batch of jobs in one call. The batch is validated
    /// up front — each release must be `>= now()` and `>=` the release
    /// admitted before it, in this batch or an earlier call — so the call
    /// is all-or-nothing: on error nothing was admitted. Per-node state is
    /// built only when each job is released, so an admit costs O(1).
    pub fn admit_batch(&mut self, specs: Vec<JobSpec>) -> Result<(), SessionError> {
        self.ensure_started();
        let now = self.core.t;
        let mut last = (self.instance.num_jobs() > 0).then(|| self.instance.last_release());
        for spec in &specs {
            if spec.release < now {
                return Err(SessionError::ReleaseInPast { release: spec.release, now });
            }
            if let Some(last) = last.filter(|&last| spec.release < last) {
                return Err(SessionError::ReleaseOutOfOrder { release: spec.release, last });
            }
            last = Some(spec.release);
        }
        for spec in specs {
            self.instance.push_job(spec);
            self.core.state.push_job(&self.instance);
        }
        Ok(())
    }

    /// Introduce every alive (released, unfinished) job to `scheduler`, in
    /// arrival order, as if each arrived right now.
    ///
    /// This is the quiesce half of a **live scheduler hot-swap**: the caller
    /// stops driving the old scheduler at some step boundary (sessions never
    /// leave subjob steps half-applied), builds a fresh scheduler, and primes
    /// it here so its `on_arrival` bookkeeping (FIFO order, clairvoyant
    /// priorities, batching state) covers the jobs already in flight. Jobs
    /// admitted but not yet released are *not* replayed — they fire
    /// `on_arrival` naturally when simulation reaches their release.
    pub fn prime_scheduler(&mut self, scheduler: &mut dyn OnlineScheduler) {
        self.ensure_started();
        let clair = scheduler.clairvoyance();
        let view = SimView::new(&self.instance, &self.core.state, self.core.m, clair);
        for &job in self.core.state.alive() {
            scheduler.on_arrival(self.core.t, job, &view);
        }
    }

    /// Simulate until `t_end`, or until the session runs dry (every admitted
    /// job finished and none pending), whichever comes first. This is the
    /// loop of [`Engine::run`](crate::Engine::run): due releases fire (with
    /// `on_arrival`), all-idle stretches fast-forward, selections are
    /// validated. Callers feeding from concurrent sources must only pass a
    /// `t_end` no later than their arrival watermark.
    pub fn run_until(
        &mut self,
        t_end: Time,
        scheduler: &mut dyn OnlineScheduler,
    ) -> Result<(), EngineError> {
        self.ensure_started();
        self.core
            .run_until(&self.instance, &mut self.probe, scheduler, t_end, self.max_horizon)
    }

    /// Finish the session: fire `on_finish`, compute flow statistics, and
    /// return the [`RunReport`] plus the materialized [`Instance`] (needed
    /// to verify the schedule or compute instance-level lower bounds).
    ///
    /// Panics if some admitted job never completed — drain with
    /// [`run_until`](Self::run_until)`(Time::MAX, …)` first.
    pub fn finish(mut self) -> (RunReport, Instance) {
        self.ensure_started();
        (self.core.finish(&mut self.probe), self.instance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::probe::{JsonlTrace, StepStat};
    use crate::scheduler::{Clairvoyance, Selection};
    use flowtree_dag::builder::{chain, star};
    use flowtree_dag::{JobGraph, NodeId};

    /// Have all admitted jobs finished (vacuously true before any admit)?
    fn is_drained<P: Probe>(s: &Session<P>) -> bool {
        s.core.state.all_done()
    }

    struct Greedy;

    impl OnlineScheduler for Greedy {
        fn clairvoyance(&self) -> Clairvoyance {
            Clairvoyance::NonClairvoyant
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

    fn specs() -> Vec<JobSpec> {
        vec![
            JobSpec { graph: chain(3), release: 0 },
            JobSpec { graph: star(4), release: 1 },
            JobSpec { graph: chain(2), release: 9 },
        ]
    }

    /// Run `specs()` through a session that admits each job lazily and
    /// advances in awkward increments, splitting the idle gap before t=9
    /// across calls.
    fn lazy_session_run<P: Probe>(probe: P) -> (RunReport, Instance) {
        let mut s = Session::new(2).with_probe(probe);
        s.admit(specs().remove(0)).unwrap();
        s.run_until(1, &mut Greedy).unwrap();
        s.admit(specs().remove(1)).unwrap();
        s.run_until(5, &mut Greedy).unwrap();
        s.run_until(7, &mut Greedy).unwrap();
        s.admit(specs().remove(2)).unwrap();
        s.run_until(Time::MAX, &mut Greedy).unwrap();
        s.finish()
    }

    /// The headline property: admit-before-release streaming == batch, down
    /// to the bytes of the trace and the full `RunReport`.
    #[test]
    fn piecewise_session_matches_batch_engine_bit_for_bit() {
        let inst = Instance::new(specs());
        let mut batch_trace = JsonlTrace::new(Vec::new());
        let batch = Engine::new(2).with_probe(&mut batch_trace).run(&inst, &mut Greedy).unwrap();

        let mut stream_trace = JsonlTrace::new(Vec::new());
        let (stream, materialized) = lazy_session_run(&mut stream_trace);

        assert_eq!(materialized, inst);
        assert_eq!(stream, batch);
        stream.verify(&inst).unwrap();
        let a = String::from_utf8(batch_trace.finish().unwrap()).unwrap();
        let b = String::from_utf8(stream_trace.finish().unwrap()).unwrap();
        // The only legitimate difference is the `start` record: a streaming
        // session cannot know the final job count up front, so it reports 0.
        let (a0, a_rest) = a.split_once('\n').unwrap();
        let (b0, b_rest) = b.split_once('\n').unwrap();
        assert_eq!(a0, r#"{"ev":"start","m":2,"jobs":3}"#);
        assert_eq!(b0, r#"{"ev":"start","m":2,"jobs":0}"#);
        assert_eq!(a_rest, b_rest);
    }

    #[test]
    fn run_until_stops_at_the_requested_time() {
        let mut s = Session::new(2);
        s.admit(JobSpec { graph: chain(5), release: 0 }).unwrap();
        s.run_until(2, &mut Greedy).unwrap();
        assert_eq!(s.now(), 2);
        assert!(!is_drained(&s));
        s.run_until(Time::MAX, &mut Greedy).unwrap();
        assert_eq!(s.now(), 5);
        assert!(is_drained(&s));
    }

    #[test]
    fn session_runs_dry_without_advancing_past_last_completion() {
        let mut s = Session::new(4);
        s.admit(JobSpec { graph: chain(2), release: 3 }).unwrap();
        s.run_until(1_000, &mut Greedy).unwrap();
        // Idle gap 0..3, then two busy steps; the clock freezes at 5.
        assert_eq!(s.now(), 5);
        assert!(is_drained(&s));
        // A later admission resumes from the frozen clock.
        s.admit(JobSpec { graph: chain(1), release: 10 }).unwrap();
        s.run_until(1_000, &mut Greedy).unwrap();
        assert_eq!(s.now(), 11);
    }

    #[test]
    fn admit_rejects_past_and_out_of_order_releases() {
        let mut s = Session::new(2);
        s.admit(JobSpec { graph: chain(1), release: 5 }).unwrap();
        assert_eq!(
            s.admit(JobSpec { graph: chain(1), release: 4 }),
            Err(SessionError::ReleaseOutOfOrder { release: 4, last: 5 })
        );
        s.run_until(Time::MAX, &mut Greedy).unwrap();
        assert_eq!(s.now(), 6);
        assert_eq!(
            s.admit(JobSpec { graph: chain(1), release: 5 }),
            Err(SessionError::ReleaseInPast { release: 5, now: 6 })
        );
    }

    /// Batched admission must be indistinguishable from a loop of single
    /// admissions — same report, same materialized instance, same trace.
    #[test]
    fn admit_batch_matches_single_admissions_bit_for_bit() {
        let mut trace_a = JsonlTrace::new(Vec::new());
        let mut a = Session::new(2).with_probe(&mut trace_a);
        for spec in specs() {
            a.admit(spec).unwrap();
        }
        a.run_until(Time::MAX, &mut Greedy).unwrap();
        let (ra, ia) = a.finish();

        let mut trace_b = JsonlTrace::new(Vec::new());
        let mut b = Session::new(2).with_probe(&mut trace_b);
        b.admit_batch(specs()).unwrap();
        b.run_until(Time::MAX, &mut Greedy).unwrap();
        let (rb, ib) = b.finish();

        assert_eq!(ia, ib);
        assert_eq!(ra, rb);
        assert_eq!(
            String::from_utf8(trace_a.finish().unwrap()).unwrap(),
            String::from_utf8(trace_b.finish().unwrap()).unwrap()
        );
    }

    #[test]
    fn admit_batch_is_all_or_nothing() {
        let mut s = Session::new(2);
        s.admit(JobSpec { graph: chain(2), release: 5 }).unwrap();
        // Out of order inside the batch: release 3 after 7.
        let err = s
            .admit_batch(vec![
                JobSpec { graph: chain(2), release: 7 },
                JobSpec { graph: chain(2), release: 3 },
            ])
            .unwrap_err();
        assert_eq!(err, SessionError::ReleaseOutOfOrder { release: 3, last: 7 });
        assert_eq!(s.num_admitted(), 1, "failed batch must admit nothing");
        // Before the earlier admission's release: also rejected whole.
        let err = s.admit_batch(vec![JobSpec { graph: chain(2), release: 4 }]).unwrap_err();
        assert_eq!(err, SessionError::ReleaseOutOfOrder { release: 4, last: 5 });
        // An empty batch is a no-op; a valid batch still lands afterwards.
        s.admit_batch(Vec::new()).unwrap();
        s.admit_batch(vec![JobSpec { graph: chain(2), release: 6 }]).unwrap();
        assert_eq!(s.num_admitted(), 2);
        s.run_until(Time::MAX, &mut Greedy).unwrap();
        let (report, inst) = s.finish();
        report.verify(&inst).unwrap();
    }

    /// One table for both entry points: each row admits `prior`, simulates
    /// to `run_to`, then offers `batch`, whose last job must be rejected
    /// with `err`. `admit_batch` gets the whole batch; `admit` gets its jobs
    /// one at a time. Both must fail with the same error and admit nothing
    /// in the failing call.
    #[test]
    fn admit_and_admit_batch_reject_the_same_inputs() {
        let rows: [(&[Time], Time, &[Time], SessionError); 3] = [
            // Release before now(): chain(1) at 5 completes at 6.
            (&[5], Time::MAX, &[5], SessionError::ReleaseInPast { release: 5, now: 6 }),
            // Release before the last admission.
            (&[5], 0, &[4], SessionError::ReleaseOutOfOrder { release: 4, last: 5 }),
            // Release that decreases inside the batch.
            (&[5], 0, &[7, 3], SessionError::ReleaseOutOfOrder { release: 3, last: 7 }),
        ];
        let job = |release| JobSpec { graph: chain(1), release };
        let session = |prior: &[Time], run_to| {
            let mut s = Session::new(2);
            for &r in prior {
                s.admit(job(r)).unwrap();
            }
            s.run_until(run_to, &mut Greedy).unwrap();
            s
        };
        for (prior, run_to, batch, err) in rows {
            let mut s = session(prior, run_to);
            assert_eq!(s.admit_batch(batch.iter().map(|&r| job(r)).collect()), Err(err.clone()));
            assert_eq!(s.num_admitted(), prior.len(), "admit_batch admitted part of {batch:?}");

            let mut s = session(prior, run_to);
            let (&rejected, accepted) = batch.split_last().unwrap();
            for &r in accepted {
                s.admit(job(r)).unwrap();
            }
            let before = s.num_admitted();
            assert_eq!(s.admit(job(rejected)), Err(err));
            assert_eq!(s.num_admitted(), before, "admit admitted release {rejected}");
        }
    }

    #[test]
    fn empty_session_is_inert() {
        let mut s = Session::new(3);
        s.run_until(100, &mut Greedy).unwrap();
        assert_eq!(s.now(), 0);
        assert!(is_drained(&s));
    }

    /// Records every hook after `on_start` with its arguments. Idle gaps
    /// are not overridden: the default replays them as stepwise hooks, so a
    /// gap split across `run_until` calls records like an unsplit one.
    #[derive(Default)]
    struct Recorder(Vec<String>);

    impl Probe for Recorder {
        fn on_release(&mut self, t: Time, job: JobId, graph: &JobGraph) {
            self.0.push(format!("release t={t} {job} n={}", graph.n()));
        }
        fn on_complete(&mut self, t: Time, job: JobId, release: Time) {
            self.0.push(format!("complete t={t} {job} r={release}"));
        }
        fn on_step(&mut self, t: Time, stat: StepStat) {
            self.0.push(format!("step t={t} {stat:?}"));
        }
        fn on_finish(&mut self, horizon: Time) {
            self.0.push(format!("finish {horizon}"));
        }
    }

    /// One probe lifecycle for both entry points: an engine run and a lazy
    /// session fire the same hooks with the same graphs and release times,
    /// so the monitors built on them agree too.
    #[test]
    fn streaming_monitors_match_batch_monitors() {
        use crate::monitor::{InvariantChecks, InvariantMonitor, LowerBound};

        let inst = Instance::new(specs());
        let mut rec = Recorder::default();
        let mut lb = LowerBound::new(&inst);
        let mut mon = InvariantMonitor::new(&inst, InvariantChecks::WORK_CONSERVING);
        Engine::new(2)
            .with_probe((&mut rec, &mut lb, &mut mon))
            .run(&inst, &mut Greedy)
            .unwrap();

        let mut srec = Recorder::default();
        let mut slb = LowerBound::new(&Instance::empty());
        let mut smon = InvariantMonitor::new(&Instance::empty(), InvariantChecks::WORK_CONSERVING);
        lazy_session_run((&mut srec, &mut slb, &mut smon));

        assert!(rec.0.iter().any(|e| e.starts_with("release t=9 J2 n=2")));
        assert!(rec.0.iter().any(|e| e.starts_with("complete t=11 J2 r=9")));
        assert_eq!(srec.0, rec.0);
        assert_eq!(lb.lower_bound(), inst.per_job_lower_bound(2));
        assert_eq!(slb.lower_bound(), lb.lower_bound());
        assert_eq!(slb.max_flow(), lb.max_flow());
        assert_eq!(slb.ratio(), lb.ratio());
        assert_eq!(smon.is_clean(), mon.is_clean());
        assert_eq!(smon.total_violations(), mon.total_violations());
    }

    /// A scheduler that only runs jobs it was told about via `on_arrival` —
    /// the shape that makes hot-swap priming observable: a fresh instance
    /// swapped in mid-stream knows nothing and stalls unless primed.
    struct KnowsArrivals {
        known: Vec<JobId>,
    }

    impl OnlineScheduler for KnowsArrivals {
        fn clairvoyance(&self) -> Clairvoyance {
            Clairvoyance::NonClairvoyant
        }
        fn on_arrival(&mut self, _t: Time, job: JobId, _view: &SimView<'_>) {
            self.known.push(job);
        }
        fn select(&mut self, _t: Time, view: &SimView<'_>, sel: &mut Selection) {
            for &job in &self.known {
                for &v in view.ready(job) {
                    if !sel.push(job, NodeId(v)) {
                        return;
                    }
                }
            }
        }
    }

    #[test]
    fn prime_scheduler_replays_alive_jobs_into_a_fresh_scheduler() {
        let mut s = Session::new(2).with_max_horizon(50);
        let mut old = KnowsArrivals { known: Vec::new() };
        s.admit(JobSpec { graph: chain(6), release: 0 }).unwrap();
        s.admit(JobSpec { graph: star(4), release: 1 }).unwrap();
        s.run_until(2, &mut old).unwrap();

        // Swap without priming: the new scheduler knows no jobs, schedules
        // nothing, and the session hits its safety horizon.
        let mut blank = KnowsArrivals { known: Vec::new() };
        let err = s.run_until(Time::MAX, &mut blank).unwrap_err();
        assert_eq!(err, EngineError::HorizonExceeded { horizon: 50 });

        // Same swap, primed: both alive jobs are reintroduced (in arrival
        // order) and the run completes and verifies.
        let mut s = Session::new(2).with_max_horizon(50);
        let mut old = KnowsArrivals { known: Vec::new() };
        s.admit(JobSpec { graph: chain(6), release: 0 }).unwrap();
        s.admit(JobSpec { graph: star(4), release: 1 }).unwrap();
        s.run_until(2, &mut old).unwrap();
        let mut new = KnowsArrivals { known: Vec::new() };
        s.prime_scheduler(&mut new);
        assert_eq!(new.known, &[JobId(0), JobId(1)]);
        s.run_until(Time::MAX, &mut new).unwrap();
        let (report, inst) = s.finish();
        report.verify(&inst).unwrap();
    }

    #[test]
    fn prime_scheduler_skips_finished_and_unreleased_jobs() {
        let mut s = Session::new(4).with_max_horizon(100);
        let mut old = KnowsArrivals { known: Vec::new() };
        s.admit(JobSpec { graph: chain(2), release: 0 }).unwrap();
        s.admit(JobSpec { graph: chain(3), release: 1 }).unwrap();
        s.admit(JobSpec { graph: chain(2), release: 50 }).unwrap();
        s.run_until(3, &mut old).unwrap(); // job 0 finished, job 2 unreleased
        assert_eq!(s.now(), 3);
        let mut new = KnowsArrivals { known: Vec::new() };
        s.prime_scheduler(&mut new);
        assert_eq!(new.known, &[JobId(1)], "only the alive job is replayed");
        s.run_until(Time::MAX, &mut new).unwrap();
        // Job 2 reached the swapped-in scheduler through its natural release.
        assert!(is_drained(&s));
        let (report, inst) = s.finish();
        report.verify(&inst).unwrap();
    }

    #[test]
    fn lazy_scheduler_hits_session_horizon() {
        struct Lazy;
        impl OnlineScheduler for Lazy {
            fn clairvoyance(&self) -> Clairvoyance {
                Clairvoyance::NonClairvoyant
            }
            fn select(&mut self, _t: Time, _v: &SimView<'_>, _s: &mut Selection) {}
        }
        let mut s = Session::new(2).with_max_horizon(20);
        s.admit(JobSpec { graph: chain(2), release: 0 }).unwrap();
        let err = s.run_until(Time::MAX, &mut Lazy).unwrap_err();
        assert_eq!(err, EngineError::HorizonExceeded { horizon: 20 });
    }
}
