//! Per-step instrumentation hooks for the simulation engine.
//!
//! A [`Probe`] observes an [`Engine`](crate::Engine) run without influencing
//! it: the engine invokes the hooks at fixed points of its loop, in event
//! order ([`on_start`](Probe::on_start), then per step
//! [`on_release`](Probe::on_release)* → [`on_step`](Probe::on_step) →
//! [`on_complete`](Probe::on_complete)*, and finally
//! [`on_finish`](Probe::on_finish)). When the engine fast-forwards over a
//! stretch of forced-idle steps it emits a single
//! [`on_idle_gap`](Probe::on_idle_gap), whose *default* implementation
//! replays the per-step events verbatim — probes that don't override it
//! cannot tell a fast-forwarded gap from stepwise idling.
//!
//! A probe learns about a job from two hooks: `on_release` passes the
//! job's [`JobGraph`], and `on_complete` passes its release time, so the
//! flow `C_i - r_i` needs no per-job state. An [`Engine`](crate::Engine)
//! run and a streaming [`Session`](crate::Session) fire the same hooks with
//! the same arguments. The one difference is `on_start`'s job count, which
//! a session reports as 0 because jobs arrive later. A probe therefore has
//! one code path for both kinds of run.
//!
//! The default probe is [`NullProbe`], whose empty inlined hooks compile
//! away entirely — an uninstrumented `Engine::new(m)` pays nothing. The
//! engine additionally maintains its own internal [`Counters`] (a handful of
//! integer updates per step), observed as the first element of a
//! `(counters, probe)` tuple and returned by every run in
//! [`RunReport::counters`](crate::RunReport::counters).
//!
//! Built-in probes:
//!
//! * [`Counters`] — O(1)-per-event aggregate counters (steps, idle slots,
//!   per-job flows, ready-depth high-water mark);
//! * [`JsonlTrace`] — streams every event as one JSON Lines record to any
//!   `io::Write`.

use crate::metrics::FlowStats;
use flowtree_dag::{JobGraph, JobId, NodeId, Time};
use std::io::Write;

/// Per-step summary handed to [`Probe::on_step`] after the step's picks have
/// been validated and applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepStat<'a> {
    /// The subjobs dispatched this step, in the order the scheduler pushed
    /// them (`picks.len()` is the number scheduled).
    pub picks: &'a [(JobId, NodeId)],
    /// Processors left idle this step (`m - picks.len()`).
    pub idle_procs: usize,
    /// Number of ready subjobs the scheduler could choose from (measured
    /// before the selection was applied).
    pub ready_depth: usize,
}

/// Observer of one engine run. All hooks default to no-ops, so probes
/// implement only what they need.
///
/// `&mut P` also implements `Probe`, so a probe can be attached by mutable
/// reference and inspected after the run:
///
/// ```
/// use flowtree_sim::{Engine, Instance, probe::Counters};
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
/// let inst = Instance::single(chain(3));
/// let mut counters = Counters::default();
/// Engine::new(2).with_probe(&mut counters).run(&inst, &mut Greedy).unwrap();
/// assert_eq!(counters.steps, 3);
/// ```
pub trait Probe {
    /// The run is starting on `m` processors over `num_jobs` jobs.
    #[inline]
    fn on_start(&mut self, m: usize, num_jobs: usize) {
        let _ = (m, num_jobs);
    }

    /// `job`, whose graph is `graph`, was released at time `t`. This is
    /// the one point where a probe sees a job's structure: anything it
    /// needs from the graph (a Lemma 5.1 bound, depth counts) is read here.
    #[inline]
    fn on_release(&mut self, t: Time, job: JobId, graph: &JobGraph) {
        let _ = (t, job, graph);
    }

    /// `job` ran its last subjob during this step and completes at time `t`
    /// (its completion time `C_i`); `release` is its release time `r_i`, so
    /// its flow is `t - release` without the probe keeping release times.
    #[inline]
    fn on_complete(&mut self, t: Time, job: JobId, release: Time) {
        let _ = (t, job, release);
    }

    /// The step running during `(t, t+1]` was validated and applied;
    /// `stat` carries its picks. Completions it caused fire next.
    #[inline]
    fn on_step(&mut self, t: Time, stat: StepStat<'_>) {
        let _ = (t, stat);
    }

    /// The engine fast-forwarded over `steps` consecutive idle steps
    /// starting at `t0` (no job alive, nothing ready, next release at
    /// `t0 + steps` or the horizon cap). The default implementation replays
    /// the gap as the stepwise events the non-fast-forwarding loop would
    /// have emitted — one all-idle [`on_step`](Self::on_step) per step — so
    /// existing probes (tracers included) observe a byte-identical event
    /// stream without opting in. Aggregating probes override this with an
    /// O(1) batch update (see [`Counters`]).
    #[inline]
    fn on_idle_gap(&mut self, t0: Time, steps: Time, m: usize) {
        for t in t0..t0 + steps {
            self.on_step(t, StepStat { picks: &[], idle_procs: m, ready_depth: 0 });
        }
    }

    /// The run completed after `horizon` steps (the schedule's horizon).
    #[inline]
    fn on_finish(&mut self, horizon: Time) {
        let _ = horizon;
    }
}

/// The do-nothing probe: every hook is an empty `#[inline]` default, so an
/// `Engine<NullProbe>` monomorphizes to the uninstrumented loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullProbe;

impl Probe for NullProbe {}

/// Forwarding impl so callers can keep ownership of their probe:
/// `engine.with_probe(&mut probe)`.
impl<P: Probe + ?Sized> Probe for &mut P {
    #[inline]
    fn on_start(&mut self, m: usize, num_jobs: usize) {
        (**self).on_start(m, num_jobs)
    }
    #[inline]
    fn on_release(&mut self, t: Time, job: JobId, graph: &JobGraph) {
        (**self).on_release(t, job, graph)
    }
    #[inline]
    fn on_complete(&mut self, t: Time, job: JobId, release: Time) {
        (**self).on_complete(t, job, release)
    }
    #[inline]
    fn on_step(&mut self, t: Time, stat: StepStat<'_>) {
        (**self).on_step(t, stat)
    }
    #[inline]
    fn on_idle_gap(&mut self, t0: Time, steps: Time, m: usize) {
        (**self).on_idle_gap(t0, steps, m)
    }
    #[inline]
    fn on_finish(&mut self, horizon: Time) {
        (**self).on_finish(horizon)
    }
}

/// Probe composition: a tuple of probes is a probe, each hook forwarding to
/// every element in order. Composition nests (`((a, b), c)`) and stays fully
/// monomorphized — no dynamic dispatch, so a `(NullProbe, NullProbe)` still
/// compiles away. Crucially `on_idle_gap` forwards to each element's *own*
/// implementation, so an aggregating probe keeps its O(1) batch update even
/// when composed with a stepwise tracer.
macro_rules! impl_probe_tuple {
    ($(($($p:ident . $idx:tt),+);)*) => {$(
        impl<$($p: Probe),+> Probe for ($($p,)+) {
            #[inline]
            fn on_start(&mut self, m: usize, num_jobs: usize) {
                $(self.$idx.on_start(m, num_jobs);)+
            }
            #[inline]
            fn on_release(&mut self, t: Time, job: JobId, graph: &JobGraph) {
                $(self.$idx.on_release(t, job, graph);)+
            }
            #[inline]
            fn on_complete(&mut self, t: Time, job: JobId, release: Time) {
                $(self.$idx.on_complete(t, job, release);)+
            }
            #[inline]
            fn on_step(&mut self, t: Time, stat: StepStat<'_>) {
                $(self.$idx.on_step(t, stat);)+
            }
            #[inline]
            fn on_idle_gap(&mut self, t0: Time, steps: Time, m: usize) {
                $(self.$idx.on_idle_gap(t0, steps, m);)+
            }
            #[inline]
            fn on_finish(&mut self, horizon: Time) {
                $(self.$idx.on_finish(horizon);)+
            }
        }
    )*};
}

impl_probe_tuple! {
    (A.0, B.1);
    (A.0, B.1, C.2);
    (A.0, B.1, C.2, D.3);
}

/// Aggregate run counters: O(1) integer updates per event.
///
/// The engine maintains one internally for every run (returned in
/// [`RunReport::counters`](crate::RunReport::counters)); it can also be
/// attached as an explicit probe.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    /// Machine size of the observed run.
    pub m: usize,
    /// Steps simulated (== the schedule's horizon).
    pub steps: u64,
    /// Subjobs dispatched in total (== total work on completion).
    pub dispatched: u64,
    /// Idle processor-slots summed over all steps.
    pub idle_slots: u64,
    /// Steps with at least one idle processor.
    pub idle_steps: u64,
    /// High-water mark of the ready pool (max subjobs simultaneously ready).
    pub max_ready_depth: usize,
    /// Latest completion time seen (the makespan once every job completed).
    pub makespan: Time,
    /// Per-job flow `C_i - r_i`, indexed by job id (`None` until complete).
    pub flows: Vec<Option<Time>>,
}

impl Counters {
    /// Fraction of processor-slots busy over the simulated steps.
    pub fn utilization(&self) -> f64 {
        let total = self.steps * self.m as u64;
        if total == 0 {
            0.0
        } else {
            (total - self.idle_slots) as f64 / total as f64
        }
    }

    /// [`FlowStats`] of a completed run, derived from the counters alone in
    /// O(jobs) — no pass over the schedule. Agrees exactly with
    /// [`metrics::flow_stats`](crate::metrics::flow_stats) on any
    /// engine-produced run: the engine stops the moment the last job
    /// completes, so `steps == makespan`, and `idle_steps`/`idle_slots`
    /// already cover exactly the window `[1, makespan]` that `flow_stats`
    /// scans.
    ///
    /// Panics if some job never completed, mirroring `flow_stats` on a
    /// partial schedule.
    pub fn flow_stats(&self) -> FlowStats {
        let flows: Vec<Time> = self
            .flows
            .iter()
            .enumerate()
            .map(|(id, f)| f.unwrap_or_else(|| panic!("job {id} never scheduled")))
            .collect();
        let max_flow = flows.iter().copied().max().unwrap_or(0);
        let mean_flow = if flows.is_empty() {
            0.0
        } else {
            flows.iter().sum::<Time>() as f64 / flows.len() as f64
        };
        FlowStats {
            flows,
            max_flow,
            mean_flow,
            makespan: self.makespan,
            utilization: self.utilization(),
            idle_steps: self.idle_steps,
        }
    }
}

impl Probe for Counters {
    fn on_start(&mut self, m: usize, num_jobs: usize) {
        *self = Counters { m, flows: vec![None; num_jobs], ..Counters::default() };
    }

    fn on_release(&mut self, _t: Time, job: JobId, _graph: &JobGraph) {
        // Streaming sessions start with zero jobs and admit as they go; jobs
        // release in id order, so growing to `index + 1` here leaves the
        // vector identical to the batch-presized one once all jobs release.
        if job.index() >= self.flows.len() {
            self.flows.resize(job.index() + 1, None);
        }
    }

    fn on_complete(&mut self, t: Time, job: JobId, release: Time) {
        assert!(t > release, "job {job} completes at {t} before its release {release}");
        self.flows[job.index()] = Some(t - release);
        self.makespan = self.makespan.max(t);
    }

    fn on_step(&mut self, _t: Time, stat: StepStat<'_>) {
        self.steps += 1;
        self.dispatched += stat.picks.len() as u64;
        self.idle_slots += stat.idle_procs as u64;
        if stat.idle_procs > 0 {
            self.idle_steps += 1;
        }
        self.max_ready_depth = self.max_ready_depth.max(stat.ready_depth);
    }

    /// O(1) batch form of `steps` all-idle [`on_step`](Probe::on_step)s —
    /// the whole point of the engine's idle-gap fast-forward.
    fn on_idle_gap(&mut self, _t0: Time, steps: Time, m: usize) {
        self.steps += steps;
        self.idle_slots += steps * m as u64;
        if m > 0 {
            self.idle_steps += steps;
        }
    }
}

/// Streams every probe event as one JSON Lines record.
///
/// Record shapes (one per line, in event order):
///
/// ```text
/// {"ev":"start","m":2,"jobs":3}
/// {"ev":"release","t":0,"job":1}
/// {"ev":"step","t":0,"picks":[[1,0],[0,2]],"idle":0,"ready":4}
/// {"ev":"complete","t":3,"job":1}
/// {"ev":"finish","horizon":7}
/// ```
///
/// `picks` entries are `[job, node]` pairs, so the stream is one line per
/// step.
///
/// Write errors are sticky: the first error stops further output and is
/// surfaced by [`finish`](Self::finish) (or swallowed on drop, matching the
/// usual buffered-writer contract).
#[derive(Debug)]
pub struct JsonlTrace<W: Write> {
    out: W,
    compact_idle: bool,
    error: Option<std::io::Error>,
}

impl<W: Write> JsonlTrace<W> {
    /// Trace into `out`. Wrap files in a `BufWriter`; the trace writes one
    /// small record per event.
    pub fn new(out: W) -> Self {
        JsonlTrace { out, compact_idle: false, error: None }
    }

    /// Emit fast-forwarded idle gaps as a single
    /// `{"ev":"idle","t0":…,"steps":…}` record instead of one all-idle
    /// `step` line per idle step. Off by default (the default stream is
    /// byte-identical to the pre-fast-forward format); turn on for sparse
    /// instances where gap replay dominates the trace size.
    pub fn compact_idle(mut self, on: bool) -> Self {
        self.compact_idle = on;
        self
    }

    /// Flush and return the writer, surfacing any write error encountered
    /// during the run.
    pub fn finish(mut self) -> std::io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }

    fn record(&mut self, line: std::fmt::Arguments<'_>) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.out.write_fmt(format_args!("{line}\n")) {
            self.error = Some(e);
        }
    }
}

impl<W: Write> Probe for JsonlTrace<W> {
    fn on_start(&mut self, m: usize, num_jobs: usize) {
        self.record(format_args!(r#"{{"ev":"start","m":{m},"jobs":{num_jobs}}}"#));
    }

    fn on_release(&mut self, t: Time, job: JobId, _graph: &JobGraph) {
        self.record(format_args!(r#"{{"ev":"release","t":{t},"job":{}}}"#, job.0));
    }

    fn on_step(&mut self, t: Time, stat: StepStat<'_>) {
        self.record(format_args!(
            r#"{{"ev":"step","t":{t},"picks":{},"idle":{},"ready":{}}}"#,
            PicksJson(stat.picks),
            stat.idle_procs,
            stat.ready_depth
        ));
    }

    fn on_complete(&mut self, t: Time, job: JobId, _release: Time) {
        self.record(format_args!(r#"{{"ev":"complete","t":{t},"job":{}}}"#, job.0));
    }

    fn on_idle_gap(&mut self, t0: Time, steps: Time, m: usize) {
        if self.compact_idle {
            self.record(format_args!(r#"{{"ev":"idle","t0":{t0},"steps":{steps}}}"#));
        } else {
            // Replay the gap stepwise (the default-impl behavior) so the
            // stream stays byte-identical to the non-fast-forwarding loop.
            for t in t0..t0 + steps {
                self.on_step(t, StepStat { picks: &[], idle_procs: m, ready_depth: 0 });
            }
        }
    }

    fn on_finish(&mut self, horizon: Time) {
        self.record(format_args!(r#"{{"ev":"finish","horizon":{horizon}}}"#));
    }
}

/// A step's picks as the trace's JSON array of `[job,node]` pairs.
struct PicksJson<'a>(&'a [(JobId, NodeId)]);

impl std::fmt::Display for PicksJson<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("[")?;
        for (i, (j, v)) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "[{},{}]", j.0, v.0)?;
        }
        f.write_str("]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtree_dag::builder::chain;

    /// Records the order hooks fire in, to pin tuple forwarding semantics.
    #[derive(Default)]
    struct Log(Vec<String>);

    impl Probe for Log {
        fn on_start(&mut self, m: usize, num_jobs: usize) {
            self.0.push(format!("start {m} {num_jobs}"));
        }
        fn on_step(&mut self, t: Time, stat: StepStat) {
            self.0.push(format!("step {t} {}", stat.picks.len()));
        }
        fn on_idle_gap(&mut self, t0: Time, steps: Time, _m: usize) {
            self.0.push(format!("gap {t0}+{steps}"));
        }
    }

    #[test]
    fn tuple_probe_forwards_to_every_element_in_order() {
        let mut pair = (Log::default(), Log::default());
        pair.on_start(4, 2);
        let picks = [(JobId(0), NodeId(0)), (JobId(0), NodeId(1)), (JobId(1), NodeId(0))];
        pair.on_step(0, StepStat { picks: &picks, idle_procs: 1, ready_depth: 5 });
        pair.on_idle_gap(1, 10, 4);
        assert_eq!(pair.0 .0, vec!["start 4 2", "step 0 3", "gap 1+10"]);
        assert_eq!(pair.0 .0, pair.1 .0);

        let mut triple = (Log::default(), Counters::default(), Log::default());
        triple.on_start(2, 1);
        triple.on_idle_gap(0, 7, 2);
        // Each element gets its *own* on_idle_gap: the batching Counters
        // sees one O(1) update, not a stepwise replay.
        assert_eq!(triple.1.steps, 7);
        assert_eq!(triple.1.idle_slots, 14);
        assert_eq!(triple.0 .0, vec!["start 2 1", "gap 0+7"]);
    }

    #[test]
    fn tuple_of_counters_matches_single_counters() {
        let mut single = Counters::default();
        let mut pair = (Counters::default(), NullProbe);
        for p in [&mut single, &mut pair.0] {
            p.on_start(2, 1);
            p.on_release(0, JobId(0), &chain(2));
            let picks = [(JobId(0), NodeId(0)), (JobId(0), NodeId(1))];
            p.on_step(0, StepStat { picks: &picks, idle_procs: 0, ready_depth: 3 });
            p.on_complete(1, JobId(0), 0);
            p.on_finish(1);
        }
        assert_eq!(single, pair.0);
    }

    #[test]
    fn compact_idle_emits_one_record_per_gap() {
        let mut trace = JsonlTrace::new(Vec::new()).compact_idle(true);
        trace.on_start(3, 1);
        trace.on_idle_gap(5, 1000, 3);
        trace.on_finish(1005);
        let text = String::from_utf8(trace.finish().unwrap()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            vec![
                r#"{"ev":"start","m":3,"jobs":1}"#,
                r#"{"ev":"idle","t0":5,"steps":1000}"#,
                r#"{"ev":"finish","horizon":1005}"#,
            ]
        );
    }
}
