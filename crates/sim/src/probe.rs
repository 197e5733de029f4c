//! Per-step instrumentation hooks for the simulation engine.
//!
//! A [`Probe`] observes an [`Engine`](crate::Engine) run without influencing
//! it: the engine invokes the hooks at fixed points of its loop, in event
//! order ([`on_start`](Probe::on_start), then per step
//! [`on_release`](Probe::on_release)* → [`on_select`](Probe::on_select) →
//! [`on_dispatch`](Probe::on_dispatch)* → [`on_step`](Probe::on_step) →
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
//! integer updates per step), which every run returns in
//! [`RunReport::counters`](crate::RunReport::counters).
//!
//! Built-in probes:
//!
//! * [`Counters`] — O(1)-per-event aggregate counters (steps, idle slots,
//!   per-job flows, ready-depth high-water mark);
//! * [`JsonlTrace`] — streams every event as one JSON Lines record to any
//!   `io::Write`; [`crate::replay`] parses the stream back.

use crate::metrics::FlowStats;
use flowtree_dag::{JobGraph, JobId, NodeId, Time};
use std::io::Write;

/// Per-step summary handed to [`Probe::on_step`] after the step's picks have
/// been validated and applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepStat {
    /// Number of subjobs dispatched this step.
    pub scheduled: usize,
    /// Processors left idle this step (`m - scheduled`).
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

    /// The scheduler's (validated) selection for the step running during
    /// `(t, t+1]`.
    #[inline]
    fn on_select(&mut self, t: Time, picks: &[(JobId, NodeId)]) {
        let _ = (t, picks);
    }

    /// One subjob of the selection was dispatched (fires once per pick,
    /// after [`on_select`](Self::on_select)).
    #[inline]
    fn on_dispatch(&mut self, t: Time, job: JobId, node: NodeId) {
        let _ = (t, job, node);
    }

    /// `job` ran its last subjob during this step and completes at time `t`
    /// (its completion time `C_i`); `release` is its release time `r_i`, so
    /// its flow is `t - release` without the probe keeping release times.
    #[inline]
    fn on_complete(&mut self, t: Time, job: JobId, release: Time) {
        let _ = (t, job, release);
    }

    /// The step starting at `t` finished; `stat` summarizes it.
    #[inline]
    fn on_step(&mut self, t: Time, stat: StepStat) {
        let _ = (t, stat);
    }

    /// The engine fast-forwarded over `steps` consecutive idle steps
    /// starting at `t0` (no job alive, nothing ready, next release at
    /// `t0 + steps` or the horizon cap). The default implementation replays
    /// the gap as the stepwise events the non-fast-forwarding loop would
    /// have emitted — an empty [`on_select`](Self::on_select) followed by an
    /// all-idle [`on_step`](Self::on_step) per step — so existing probes
    /// (tracers included) observe a byte-identical event stream without
    /// opting in. Aggregating probes override this with an O(1) batch
    /// update (see [`Counters`]).
    #[inline]
    fn on_idle_gap(&mut self, t0: Time, steps: Time, m: usize) {
        for t in t0..t0 + steps {
            self.on_select(t, &[]);
            self.on_step(t, StepStat { scheduled: 0, idle_procs: m, ready_depth: 0 });
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
    fn on_select(&mut self, t: Time, picks: &[(JobId, NodeId)]) {
        (**self).on_select(t, picks)
    }
    #[inline]
    fn on_dispatch(&mut self, t: Time, job: JobId, node: NodeId) {
        (**self).on_dispatch(t, job, node)
    }
    #[inline]
    fn on_complete(&mut self, t: Time, job: JobId, release: Time) {
        (**self).on_complete(t, job, release)
    }
    #[inline]
    fn on_step(&mut self, t: Time, stat: StepStat) {
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
            fn on_select(&mut self, t: Time, picks: &[(JobId, NodeId)]) {
                $(self.$idx.on_select(t, picks);)+
            }
            #[inline]
            fn on_dispatch(&mut self, t: Time, job: JobId, node: NodeId) {
                $(self.$idx.on_dispatch(t, job, node);)+
            }
            #[inline]
            fn on_complete(&mut self, t: Time, job: JobId, release: Time) {
                $(self.$idx.on_complete(t, job, release);)+
            }
            #[inline]
            fn on_step(&mut self, t: Time, stat: StepStat) {
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
    /// Per-job release times, indexed by job id (`None` until released).
    pub releases: Vec<Option<Time>>,
    /// Per-job completion times, indexed by job id (`None` until complete).
    pub completions: Vec<Option<Time>>,
}

impl Counters {
    /// Per-job flow `F_i = C_i - r_i`; `None` for jobs not yet complete.
    pub fn flows(&self) -> Vec<Option<Time>> {
        self.completions
            .iter()
            .zip(&self.releases)
            .map(|(c, r)| Some(c.as_ref()? - r.as_ref()?))
            .collect()
    }

    /// Maximum flow over completed jobs (`None` when no job completed).
    pub fn max_flow(&self) -> Option<Time> {
        self.flows().into_iter().flatten().max()
    }

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
        let mut flows = Vec::with_capacity(self.completions.len());
        let mut makespan = 0;
        for (id, (c, r)) in self.completions.iter().zip(&self.releases).enumerate() {
            let c = c.unwrap_or_else(|| panic!("job {id} never scheduled"));
            let r = r.unwrap_or_else(|| panic!("job {id} completed without a release"));
            assert!(c > r, "job {id} completes at {c} before its release {r}");
            flows.push(c - r);
            makespan = makespan.max(c);
        }
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
            makespan,
            utilization: self.utilization(),
            idle_steps: self.idle_steps,
        }
    }
}

impl Probe for Counters {
    fn on_start(&mut self, m: usize, num_jobs: usize) {
        *self = Counters {
            m,
            releases: vec![None; num_jobs],
            completions: vec![None; num_jobs],
            ..Counters::default()
        };
    }

    fn on_release(&mut self, t: Time, job: JobId, _graph: &JobGraph) {
        // Streaming sessions start with zero jobs and admit as they go; jobs
        // release in id order, so growing to `index + 1` here leaves the
        // vectors identical to the batch-presized ones once all jobs release.
        if job.index() >= self.releases.len() {
            self.releases.resize(job.index() + 1, None);
            self.completions.resize(job.index() + 1, None);
        }
        self.releases[job.index()] = Some(t);
    }

    fn on_complete(&mut self, t: Time, job: JobId, _release: Time) {
        self.completions[job.index()] = Some(t);
    }

    fn on_step(&mut self, _t: Time, stat: StepStat) {
        self.steps += 1;
        self.dispatched += stat.scheduled as u64;
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
/// `picks` entries are `[job, node]` pairs. The per-pick
/// [`on_dispatch`](Probe::on_dispatch) events are folded into the `step`
/// record (they duplicate `picks`), keeping the stream one line per step.
/// [`crate::replay`] parses this format back into events, a
/// [`Schedule`](crate::Schedule), and per-job flows.
///
/// Write errors are sticky: the first error stops further output and is
/// surfaced by [`finish`](Self::finish) (or swallowed on drop, matching the
/// usual buffered-writer contract).
#[derive(Debug)]
pub struct JsonlTrace<W: Write> {
    out: W,
    /// The current step's picks, formatted as a JSON array; filled by
    /// `on_select`, consumed by `on_step` (which owns the step record).
    picks_json: String,
    compact_idle: bool,
    error: Option<std::io::Error>,
}

impl<W: Write> JsonlTrace<W> {
    /// Trace into `out`. Wrap files in a `BufWriter`; the trace writes one
    /// small record per event.
    pub fn new(out: W) -> Self {
        JsonlTrace {
            out,
            picks_json: String::new(),
            compact_idle: false,
            error: None,
        }
    }

    /// Emit fast-forwarded idle gaps as a single
    /// `{"ev":"idle","t0":…,"steps":…}` record instead of one all-idle
    /// `step` line per idle step. Off by default (the default stream is
    /// byte-identical to the pre-fast-forward format); turn on for sparse
    /// instances where gap replay dominates the trace size. [`crate::replay`]
    /// accepts both forms.
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

    fn on_select(&mut self, _t: Time, picks: &[(JobId, NodeId)]) {
        use std::fmt::Write as _;
        self.picks_json.clear();
        self.picks_json.push('[');
        for (i, (j, v)) in picks.iter().enumerate() {
            if i > 0 {
                self.picks_json.push(',');
            }
            let _ = write!(self.picks_json, "[{},{}]", j.0, v.0);
        }
        self.picks_json.push(']');
    }

    fn on_step(&mut self, t: Time, stat: StepStat) {
        let picks = std::mem::take(&mut self.picks_json);
        self.record(format_args!(
            r#"{{"ev":"step","t":{t},"picks":{picks},"idle":{},"ready":{}}}"#,
            stat.idle_procs, stat.ready_depth
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
                self.on_select(t, &[]);
                self.on_step(t, StepStat { scheduled: 0, idle_procs: m, ready_depth: 0 });
            }
        }
    }

    fn on_finish(&mut self, horizon: Time) {
        self.record(format_args!(r#"{{"ev":"finish","horizon":{horizon}}}"#));
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
            self.0.push(format!("step {t} {}", stat.scheduled));
        }
        fn on_idle_gap(&mut self, t0: Time, steps: Time, _m: usize) {
            self.0.push(format!("gap {t0}+{steps}"));
        }
    }

    #[test]
    fn tuple_probe_forwards_to_every_element_in_order() {
        let mut pair = (Log::default(), Log::default());
        pair.on_start(4, 2);
        pair.on_step(0, StepStat { scheduled: 3, idle_procs: 1, ready_depth: 5 });
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
            p.on_step(0, StepStat { scheduled: 2, idle_procs: 0, ready_depth: 3 });
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
