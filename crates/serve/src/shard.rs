//! One shard: a worker thread driving a streaming [`Session`] under the
//! pool's control-plane protocol.
//!
//! The worker owns a scheduler (built fresh from its
//! [`SchedulerSpec`]) and the streaming monitor stack — a
//! [`LowerBound`], an [`InvariantMonitor`], and [`RunHistograms`] attached
//! to the session as one probe tuple, exactly like the batch
//! [`summarize`](flowtree_analysis::summarize) path. Commands arrive on a
//! bounded channel:
//!
//! * [`ShardCmd::Admit`] admits a lone arrival and advances the shard's
//!   *safe* time to the job's release — once the router has shown us
//!   release `r`, the global nondecreasing-release contract guarantees no
//!   later arrival can land before `r`, so every step `t < r` may be
//!   simulated.
//! * [`ShardCmd::AdmitBatch`] admits a router-coalesced batch in one queue
//!   slot and one [`Session::admit_batch`] call; the batch's last release
//!   implies the watermark. Because placement is per job and the admitted
//!   sequence per shard is what determines its final result, a batched
//!   delivery is bit-for-bit equivalent to the same jobs delivered one
//!   [`ShardCmd::Admit`] at a time (pinned by the batched differential
//!   suite).
//! * [`ShardCmd::Watermark`] advances safe time without a job (the arrival
//!   went to a different shard, was dropped, or is staged behind this
//!   shard's own backlog). The router sends one at the end of every offer;
//!   [`ServeConfig::watermark_stride`](crate::ServeConfig::watermark_stride)
//!   only bounds how much release time one ingest batch may span.
//! * [`ShardCmd::Donate`] admits jobs migrated from another shard's ingress
//!   backlog (work stealing) as one batch. A donated job's release is
//!   clamped forward to this shard's event time — migration re-releases it
//!   here — so the session's nondecreasing-admission contract survives the
//!   move.
//! * [`ShardCmd::Swap`] requests a **live scheduler hot-swap** at an event
//!   time: the shard quiesces there (finishes every whole subjob step up to
//!   the swap point; sessions never split a step), rebuilds the scheduler
//!   from the new [`SchedulerSpec`] against live state via
//!   [`Session::prime_scheduler`], retargets the invariant monitor, and
//!   records a [`SwapEvent`] for the drain summary.
//! * [`ShardCmd::Drain`] (or a closed channel) lifts the watermark limit
//!   entirely: the session runs dry, and the worker returns a
//!   [`ShardResult`] carrying the [`RunReport`], the materialized
//!   per-shard [`Instance`], a certified [`RunSummary`], and every
//!   [`SwapEvent`] along the way.
//!
//! After each command batch and simulation window the worker publishes one
//! [`ShardSnapshot`] (progress plus theory gauges) into its
//! [`ShardTelemetry`] cell, the shard's only live view.

use std::sync::Arc;

use crossbeam::channel::Receiver;
use flowtree_analysis::{summary_from_parts, RunSummary};
use flowtree_core::SchedulerSpec;
use flowtree_dag::{JobId, Time};
use flowtree_sim::monitor::{InvariantMonitor, LowerBound};
use flowtree_sim::{Instance, JobSpec, OnlineScheduler, RunHistograms, RunReport, Session};

use crate::telemetry::{FlightEvent, FlightKind, LatencyProbe, ShardTelemetry};

/// One arrival in flight through the pool: the job plus the wall-clock
/// stamp (µs since the pool's epoch) of when the router first saw it. The
/// stamp rides along through staging, batching, and donation so end-to-end
/// latency is measured from the *offer*, not from whichever queue the job
/// last sat in.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// The job being delivered.
    pub spec: JobSpec,
    /// Microseconds since the pool's epoch when the router accepted it.
    pub offered_us: u64,
}

impl From<JobSpec> for Arrival {
    /// Wrap a bare spec with a zero stamp (tests and direct injection).
    fn from(spec: JobSpec) -> Self {
        Arrival { spec, offered_us: 0 }
    }
}

/// A control-plane command from the router to one shard worker.
#[derive(Debug)]
pub enum ShardCmd {
    /// Admit this arrival (its release implies a watermark).
    Admit(Arrival),
    /// Admit a coalesced batch of arrivals (releases nondecreasing within
    /// the batch; the last one implies the watermark). One queue slot, one
    /// [`Session::admit_batch`] call.
    AdmitBatch(Vec<Arrival>),
    /// No job for you, but event time has advanced this far.
    Watermark(Time),
    /// Admit jobs stolen from another shard's ingress backlog; releases are
    /// clamped forward to this shard's event time.
    Donate(Vec<Arrival>),
    /// Hot-swap the scheduler once simulation reaches the directive's time.
    Swap(SwapDirective),
    /// No further arrivals follow: run dry and report.
    Drain,
}

/// A scheduler hot-swap request: at event time `at`, switch to `spec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapDirective {
    /// Event time of the switch. If the shard's clock is already past `at`
    /// when the command is processed, the swap applies immediately.
    pub at: Time,
    /// The scheduler to rebuild to.
    pub spec: SchedulerSpec,
}

/// One recorded scheduler hot-swap (carried into the results store).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapEvent {
    /// Event time at which the new scheduler took over.
    pub t: Time,
    /// Registry name of the scheduler swapped out.
    pub from: String,
    /// Registry name of the scheduler swapped in.
    pub to: String,
}

serde::impl_serde_struct!(SwapEvent { t, from, to });

impl std::fmt::Display for SwapEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}→{}@{}", self.from, self.to, self.t)
    }
}

/// A point-in-time view of one shard's progress and theory gauges (see
/// [`PoolHandle::snapshot`](crate::PoolHandle::snapshot)), as the worker
/// last published it into its [`ShardTelemetry`]. Each field is exact; a
/// reader may see fields from two adjacent publications (e.g.
/// `dispatched` one loop ahead of `now`), the usual monitoring contract.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// The shard's simulated clock.
    pub now: Time,
    /// Jobs admitted so far.
    pub admitted: usize,
    /// Steps simulated so far.
    pub steps: u64,
    /// Subjobs dispatched so far.
    pub dispatched: u64,
    /// The live Lemma 5.1 lower bound over admitted jobs.
    pub lower_bound: u64,
    /// The observed max flow over completed jobs (0 before the first
    /// completion).
    pub max_flow: u64,
    /// Invariant violations observed so far.
    pub violations: u64,
    /// Jobs admitted via [`ShardCmd::Donate`] (stolen in).
    pub donated: u64,
    /// Scheduler hot-swaps applied so far.
    pub swaps: u64,
    /// Commands queued to the shard (filled in by the pool, not the worker).
    pub queue_len: usize,
    /// Arrivals staged router-side for this shard, awaiting delivery
    /// (filled in by the pool; nonzero only with stealing enabled).
    pub staged: usize,
}

impl ShardSnapshot {
    /// Live `max_flow / LB` competitive-ratio gauge (`None` before the
    /// first completion, mirroring the streaming monitor).
    pub fn ratio(&self) -> Option<f64> {
        (self.max_flow > 0).then(|| self.max_flow as f64 / self.lower_bound.max(1) as f64)
    }
}

/// What one drained shard hands back.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardResult {
    /// The shard's index in the pool.
    pub shard: usize,
    /// The certified run summary for this shard's sub-instance (labelled
    /// with the *final* scheduler after any hot-swaps).
    pub summary: RunSummary,
    /// The full run report (schedule + stats + counters). Every step was
    /// validated online as the session applied it; debug builds additionally
    /// re-verify the whole schedule against `instance` at drain time.
    pub report: RunReport,
    /// The per-shard instance materialized from admissions.
    pub instance: Instance,
    /// Every scheduler hot-swap applied, in event-time order.
    pub swaps: Vec<SwapEvent>,
}

/// The concrete probe stack every shard session carries.
type ShardProbe<'a> = (
    &'a mut LowerBound,
    &'a mut InvariantMonitor,
    &'a mut RunHistograms,
    &'a mut LatencyProbe,
);

fn snapshot_of(session: &Session<ShardProbe<'_>>, swaps: u64, donated: u64) -> ShardSnapshot {
    let counters = session.counters();
    let (lb, inv, ..) = session.probe();
    ShardSnapshot {
        now: session.now(),
        admitted: session.num_admitted(),
        steps: counters.steps,
        dispatched: counters.dispatched,
        lower_bound: lb.lower_bound(),
        max_flow: lb.max_flow().unwrap_or(0),
        violations: inv.total_violations(),
        donated,
        swaps,
        queue_len: 0,
        staged: 0,
    }
}

/// Everything a shard worker needs beyond its command channel: identity,
/// engine parameters, and the shared observability cell.
pub(crate) struct ShardCtx {
    pub shard: usize,
    pub m: usize,
    pub spec: SchedulerSpec,
    pub scenario: String,
    pub max_horizon: Time,
    pub tel: Arc<ShardTelemetry>,
}

/// Worker body: consume commands until drained, then summarize.
pub(crate) fn run_shard(ctx: ShardCtx, rx: Receiver<ShardCmd>) -> ShardResult {
    let ShardCtx { shard, m, mut spec, scenario, max_horizon, tel } = ctx;
    let mut sched: Box<dyn OnlineScheduler + Send> = spec.build();
    let session = Session::new(m).with_max_horizon(max_horizon);
    let mut lb = LowerBound::new(session.instance());
    let mut inv = InvariantMonitor::new(session.instance(), spec.invariants());
    let mut histos = RunHistograms::new();
    let mut lat = LatencyProbe::new(Arc::clone(&tel));
    let mut session = session.with_probe((&mut lb, &mut inv, &mut histos, &mut lat));

    let mut safe: Time = 0;
    let mut draining = false;
    let mut donated: u64 = 0;
    let mut swaps: Vec<SwapEvent> = Vec::new();
    let mut pending_swaps: Vec<SwapDirective> = Vec::new();
    let mut batch: Vec<ShardCmd> = Vec::new();
    loop {
        // Block for one command, then absorb the backlog without blocking,
        // so a burst is admitted whole before simulation resumes.
        match rx.recv() {
            Ok(cmd) => {
                batch.push(cmd);
                while let Some(cmd) = rx.try_recv() {
                    batch.push(cmd);
                }
            }
            Err(_) => draining = true,
        }
        for cmd in batch.drain(..) {
            match cmd {
                ShardCmd::Admit(a) => {
                    safe = safe.max(a.spec.release);
                    let id = session
                        .admit(a.spec)
                        .expect("router delivers jobs in nondecreasing release order");
                    let now_us = tel.now_us();
                    session.probe_mut().3.stamp(id, a.offered_us, now_us);
                }
                ShardCmd::AdmitBatch(arrivals) => {
                    if let Some(last) = arrivals.last() {
                        safe = safe.max(last.spec.release);
                    }
                    admit(&mut session, &tel, arrivals);
                }
                ShardCmd::Watermark(w) => safe = safe.max(w),
                ShardCmd::Donate(mut arrivals) => {
                    let count = arrivals.len();
                    // Migration re-releases each job at this shard's event
                    // time: never earlier than the clock, the latest
                    // admission, or the donated job before it, so the
                    // session contract holds.
                    let mut floor = session.now();
                    if session.num_admitted() > 0 {
                        floor = floor.max(session.instance().last_release());
                    }
                    for a in &mut arrivals {
                        a.spec.release = a.spec.release.max(floor);
                        floor = a.spec.release;
                    }
                    safe = safe.max(floor);
                    admit(&mut session, &tel, arrivals);
                    donated += count as u64;
                    tel.flight.record(FlightEvent {
                        us: tel.now_us(),
                        shard,
                        kind: FlightKind::Donate,
                        t: session.now(),
                        detail: format!("x{count}"),
                    });
                }
                ShardCmd::Swap(d) => {
                    pending_swaps.push(d);
                    pending_swaps.sort_by_key(|d| d.at);
                }
                ShardCmd::Drain => {
                    draining = true;
                    tel.flight.record(FlightEvent {
                        us: tel.now_us(),
                        shard,
                        kind: FlightKind::Drain,
                        t: session.now(),
                        detail: String::new(),
                    });
                }
            }
        }
        let target = if draining { Time::MAX } else { safe };
        // Apply every swap due inside this simulation window, quiescing the
        // session at each swap point first. The watermark certifies nothing
        // can happen between a dry clock and the swap time, so swapping the
        // moment the session settles is equivalent to swapping at `at`.
        while let Some(&d) = pending_swaps.first() {
            if d.at > target {
                break;
            }
            pending_swaps.remove(0);
            session.run_until(d.at, sched.as_mut()).unwrap_or_else(|e| {
                record_panic(&tel, shard, session.now(), &e);
                panic!("shard {shard}: {e}")
            });
            let t_swap = d.at.max(session.now());
            let from = spec;
            spec = d.spec;
            sched = spec.build();
            session.probe_mut().1.set_checks(spec.invariants());
            session.prime_scheduler(sched.as_mut());
            swaps.push(SwapEvent { t: t_swap, from: from.to_string(), to: spec.to_string() });
            tel.flight.record(FlightEvent {
                us: tel.now_us(),
                shard,
                kind: FlightKind::Swap,
                t: t_swap,
                detail: format!("{from}→{spec}"),
            });
        }
        session.run_until(target, sched.as_mut()).unwrap_or_else(|e| {
            record_panic(&tel, shard, session.now(), &e);
            panic!("shard {shard}: {e}")
        });
        tel.publish(&snapshot_of(&session, swaps.len() as u64, donated));
        if draining {
            break;
        }
    }

    let (report, instance) = session.finish();
    // The session validated every step online (stamp checks at dispatch
    // time), so the full feasibility re-scan is a debug-build cross-check,
    // not a release-path cost.
    #[cfg(debug_assertions)]
    report
        .verify(&instance)
        .unwrap_or_else(|e| panic!("shard {shard} produced an infeasible schedule: {e}"));
    let summary =
        summary_from_parts(&scenario, spec.name(), &instance, m, &report, &lb, &inv, &histos);
    ShardResult { shard, summary, report, instance, swaps }
}

/// Admit `arrivals` (releases nondecreasing, the first admissible) in one
/// [`Session::admit_batch`] call and stamp each job's offer→admit latency.
fn admit(session: &mut Session<ShardProbe<'_>>, tel: &ShardTelemetry, arrivals: Vec<Arrival>) {
    let base = session.num_admitted();
    let stamps: Vec<u64> = arrivals.iter().map(|a| a.offered_us).collect();
    session
        .admit_batch(arrivals.into_iter().map(|a| a.spec).collect())
        .expect("router delivers batches in nondecreasing release order");
    let now_us = tel.now_us();
    for (k, &offered_us) in stamps.iter().enumerate() {
        session.probe_mut().3.stamp(JobId((base + k) as u32), offered_us, now_us);
    }
}

/// Leave a trace of an imminent worker panic in the flight ring (the ring
/// outlives the worker thread behind its `Arc`).
fn record_panic(tel: &ShardTelemetry, shard: usize, t: Time, err: &dyn std::fmt::Display) {
    tel.flight.record(FlightEvent {
        us: tel.now_us(),
        shard,
        kind: FlightKind::Panic,
        t,
        detail: err.to_string(),
    });
}
