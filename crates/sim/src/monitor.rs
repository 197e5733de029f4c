//! Theory-aware run monitors — probes that watch a live run against the
//! paper's provable guarantees.
//!
//! * [`LowerBound`] maintains the Lemma 5.1 certified lower bound
//!   `max_d (d + ⌈W(d)/m⌉)` over the released jobs and the live competitive
//!   ratio `max_flow / LB` as jobs complete. For a single out-forest released
//!   at time 0 the bound is *exact* (Corollary 5.4), so an optimal scheduler
//!   (LPF, Lemma 5.3) drives the ratio to exactly 1.
//! * [`InvariantMonitor`] checks structural invariants a scheduler claims to
//!   uphold — non-idling while work is ready (work conservation, the
//!   property Lemma 5.5 proves for MC) and the LPF rectangle-tail shape of
//!   Lemma 5.2 — recording structured [`Violation`]s instead of panicking,
//!   so a long sweep completes and reports every breach.
//!
//! Which invariants apply to which scheduler is declarative data
//! ([`InvariantChecks`]); the registry in `flowtree-core` maps every
//! `SchedulerSpec` entry to its checks. Both monitors are ordinary
//! [`Probe`]s: attach them (alone or composed in a tuple) via
//! `Engine::with_probe` and inspect them after the run.

use crate::instance::Instance;
use crate::probe::{Probe, StepStat};
use flowtree_dag::{JobGraph, JobId, NodeId, Time};
use std::collections::BTreeMap;

/// Live Lemma 5.1 lower-bound tracker.
///
/// Each job's bound `max_d (d + ⌈W_i(d)/m⌉)` is read from its graph's
/// cached depth counts at [`Probe::on_release`] (no graph walk, no
/// allocation). The running lower bound is the max over *released* jobs —
/// each job must individually be scheduled within its own single-job
/// optimum, whatever else is in the system — and the running `max_flow` is
/// the max over *completed* jobs, so [`ratio`](LowerBound::ratio) is a
/// certified competitive-ratio bound at every point of the run and exact
/// for single out-forests at the end. The tracker keeps no per-job state,
/// so batch runs and streaming sessions build it the same way.
#[derive(Debug, Clone)]
pub struct LowerBound {
    /// Machine size (recorded at `on_start`).
    m: u64,
    lb: Time,
    max_flow: Option<Time>,
}

impl LowerBound {
    /// A tracker for a run of `instance` (or of a
    /// [`Session`](crate::Session), starting from its empty instance).
    /// Bounds are evaluated per job as jobs release, so the instance itself
    /// is not read.
    pub fn new(_instance: &Instance) -> Self {
        LowerBound { m: 1, lb: 0, max_flow: None }
    }

    /// Current certified lower bound on the optimal max flow: the max
    /// Lemma 5.1 bound over released jobs (0 before any release).
    pub fn lower_bound(&self) -> Time {
        self.lb
    }

    /// Maximum flow over completed jobs (`None` until a job completes).
    pub fn max_flow(&self) -> Option<Time> {
        self.max_flow
    }

    /// Live competitive ratio `max_flow / lower_bound` (`None` until a job
    /// completes). Never below 1 on a feasible run: each completed job's
    /// flow is itself at least its own Lemma 5.1 bound.
    pub fn ratio(&self) -> Option<f64> {
        Some(self.max_flow? as f64 / self.lb.max(1) as f64)
    }
}

impl Probe for LowerBound {
    fn on_start(&mut self, m: usize, _num_jobs: usize) {
        *self = LowerBound { m: (m as u64).max(1), lb: 0, max_flow: None };
    }

    fn on_release(&mut self, _t: Time, _job: JobId, graph: &JobGraph) {
        self.lb = self.lb.max(graph.opt_single_job(self.m));
    }

    fn on_complete(&mut self, t: Time, _job: JobId, release: Time) {
        let flow = t - release;
        self.max_flow = Some(self.max_flow.map_or(flow, |f| f.max(flow)));
    }
}

/// Parameters of the Algorithm 𝒜 head/tail accounting check (Thm 5.6
/// batch structure).
///
/// 𝒜 partitions releases into *groups* at block boundaries (multiples of
/// `half`, the working estimate OPT/2) and never grants a group more than
/// one slice `p = m/alpha` of processors per step — head levels are
/// `LPF(union, p)` levels (width ≤ p by construction), tail grants are
/// `min(remaining, p)` (Section 5.3). The monitor rebuilds the grouping
/// from observed release times (`boundary = ⌈release / half⌉ · half`; the
/// simulator fires releases before the same-step selection, so this matches
/// 𝒜's own group formation exactly) and enforces the width cap per group
/// per step.
///
/// With `strict`, the Lemma 5.2 rectangle shape of the tail is also
/// checked: once a tail-phase group (age ≥ 2·half) is granted processors
/// and returns *short* — it schedules fewer than `p` subjobs in a step
/// whose total selection is under `m`, so its grant provably exceeded its
/// picks — its MC rectangle is exhausted and the group must never schedule
/// again. Strict mode is sound when the grouping is exact (a scheduler
/// constructed at run start); a mid-run hot-swap regroups alive jobs at the
/// swap boundary, so [`InvariantMonitor::set_checks`] demotes `strict`
/// (the width cap stays sound: a release-derived group is then a *subset*
/// of one rebuilt group, and a subset's picks never exceed the group's).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeadTailChecks {
    /// Processor-augmentation parameter α: the per-group slice is `m/α`.
    pub alpha: usize,
    /// Block length (the algorithm's OPT/2 estimate); boundaries are its
    /// multiples.
    pub half: Time,
    /// Also enforce the Lemma 5.2 exhausted-rectangle rule (see above).
    pub strict: bool,
}

/// Which structural invariants a scheduler is expected to uphold.
///
/// This is declarative metadata, not behavior: the scheduler registry in
/// `flowtree-core` maps each spec to its checks, and an [`InvariantMonitor`]
/// enforces exactly the enabled ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvariantChecks {
    /// The scheduler never leaves a processor idle while a ready subjob
    /// exists (every step runs `min(m, ready)` subjobs). Holds for the FIFO
    /// family by definition and for MC by Lemma 5.5; deliberately violated
    /// by Algorithm 𝒜, which reserves capacity for its guarantees.
    pub work_conserving: bool,
    /// Lemma 5.2 shape check for single-job runs: with OPT computed on
    /// `alpha * m` processors, every schedule step from `release + OPT`
    /// onward must use all `m` processors, except possibly the final step.
    /// `Some(alpha)` enables the check (LPF runs use `alpha = 1`); ignored
    /// on multi-job instances, where the lemma does not apply.
    pub rectangle_tail_alpha: Option<usize>,
    /// Algorithm 𝒜 group-structure check (see [`HeadTailChecks`]); applies
    /// to batch and streaming runs alike.
    pub head_tail: Option<HeadTailChecks>,
}

impl InvariantChecks {
    /// No checks (schedulers with no proven structural invariants).
    pub const NONE: InvariantChecks = InvariantChecks {
        work_conserving: false,
        rectangle_tail_alpha: None,
        head_tail: None,
    };

    /// Work conservation only.
    pub const WORK_CONSERVING: InvariantChecks = InvariantChecks {
        work_conserving: true,
        rectangle_tail_alpha: None,
        head_tail: None,
    };
}

/// Which invariant a [`Violation`] breached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantRule {
    /// Idle processors coexisted with unscheduled ready subjobs.
    WorkConserving,
    /// A non-final tail step (at or after `release + OPT`) was not full
    /// width (Lemma 5.2).
    RectangleTail,
    /// An Algorithm 𝒜 release group exceeded its `m/α` slice in one step
    /// (Section 5.3 layout).
    GroupWidth,
    /// A tail-phase group scheduled again after a short step proved its MC
    /// rectangle exhausted (Lemma 5.2 under a valid estimate).
    TailRectangle,
}

impl std::fmt::Display for InvariantRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvariantRule::WorkConserving => write!(f, "work-conserving"),
            InvariantRule::RectangleTail => write!(f, "rectangle-tail"),
            InvariantRule::GroupWidth => write!(f, "group-width"),
            InvariantRule::TailRectangle => write!(f, "tail-rectangle"),
        }
    }
}

/// One recorded invariant breach.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Step start time at which the breach occurred.
    pub t: Time,
    /// The invariant breached.
    pub rule: InvariantRule,
    /// Human-readable specifics (counts involved).
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t={}: {}: {}", self.t, self.rule, self.detail)
    }
}

/// One live Algorithm 𝒜 release group the head/tail check is tracking.
/// Retired (removed from the map) when every member job has completed.
#[derive(Debug, Clone, Default)]
struct GroupTrack {
    /// Jobs whose release maps to this boundary.
    members: usize,
    /// Members that have completed.
    completed: usize,
    /// Time of the short tail step that proved the group's MC rectangle
    /// exhausted (strict mode); any later pick is a violation.
    exhausted_at: Option<Time>,
}

/// Checks the enabled [`InvariantChecks`] online, recording [`Violation`]s
/// instead of panicking (at most [`MAX_RECORDED`](Self::MAX_RECORDED) are
/// kept; the total is counted). Work-conservation and the single-job
/// rectangle tail are O(1) state; the head/tail group check is O(alive
/// groups) state and O(picks) work per step: picks are attributed by runs
/// of consecutive picks from one group, and each group the step touched
/// costs one map lookup.
///
/// The rectangle-tail check is stateful but bounded: it remembers only the
/// most recent narrow tail step, which becomes a violation the moment any
/// later step proves it was not the schedule's final step.
#[derive(Debug, Clone)]
pub struct InvariantMonitor {
    checks: InvariantChecks,
    m: usize,
    /// Did `on_start` announce a single-job run? The rectangle-tail lemma
    /// is single-job only; a session announces 0 jobs and never arms it.
    single: bool,
    /// `release + OPT(alpha * m)` — first tail step (rectangle check only;
    /// set when the single job releases).
    tail_start: Option<Time>,
    /// Most recent narrow tail step, not yet known to be non-final.
    pending_narrow: Option<(Time, usize)>,
    done: bool,
    /// Per-job release times, grown on release and cleared on completion,
    /// so `Some` marks an alive job. Always maintained: picks are
    /// attributed to groups by them, and they let
    /// [`set_checks`](Self::set_checks) arm the head/tail group check
    /// mid-run by rebuilding the grouping from history.
    releases: Vec<Option<Time>>,
    /// Live release groups keyed by block boundary (head/tail check only).
    groups: BTreeMap<Time, GroupTrack>,
    /// Scratch: the boundaries the current step's selection touched, in
    /// first-touch order, with the picks attributed to each.
    touched: Vec<(Time, usize)>,
    violations: Vec<Violation>,
    total: u64,
}

/// The block boundary a job released at `r` is grouped to: the next
/// multiple of `half` at or after `r` (𝒜 forms groups at boundaries, and
/// releases fire before the same-step selection).
fn group_boundary(release: Time, half: Time) -> Time {
    let half = half.max(1);
    release.div_ceil(half) * half
}

impl InvariantMonitor {
    /// Cap on stored violations; beyond it only the count grows, so a badly
    /// broken scheduler on a long horizon cannot exhaust memory.
    pub const MAX_RECORDED: usize = 64;

    /// Monitor a run of `instance` (or of a [`Session`](crate::Session),
    /// starting from its empty instance) against `checks`. The monitor
    /// learns the job count at `on_start` and each graph at release, so the
    /// instance itself is not read.
    pub fn new(_instance: &Instance, checks: InvariantChecks) -> Self {
        InvariantMonitor {
            checks,
            m: 0,
            single: false,
            tail_start: None,
            pending_narrow: None,
            done: false,
            releases: Vec::new(),
            groups: BTreeMap::new(),
            touched: Vec::new(),
            violations: Vec::new(),
            total: 0,
        }
    }

    /// Switch the enforced checks mid-run — the probe half of a live
    /// scheduler hot-swap: steps from here on are judged against the *new*
    /// scheduler's invariants, while violations already recorded stand.
    /// Disabling the rectangle-tail check discards its pending state.
    /// Enabling it after the single job has released arms nothing, because
    /// the tail start is computed at that release; sessions announce 0 jobs
    /// and never arm it.
    ///
    /// A head/tail group check is re-armed from the recorded release
    /// history, with `strict` demoted: a hot-swapped Algorithm 𝒜 regroups
    /// every alive job at the swap boundary, so release-derived rectangles
    /// no longer apply, while the `m/α` width cap stays sound (each
    /// release-derived group is a subset of one rebuilt group).
    pub fn set_checks(&mut self, checks: InvariantChecks) {
        let mut checks = checks;
        if let Some(ht) = &mut checks.head_tail {
            ht.strict = false;
        }
        self.checks = checks;
        if checks.rectangle_tail_alpha.is_none() {
            self.tail_start = None;
            self.pending_narrow = None;
        }
        self.groups.clear();
        if let Some(ht) = checks.head_tail {
            for r in self.releases.iter().flatten() {
                self.groups.entry(group_boundary(*r, ht.half)).or_default().members += 1;
            }
        }
    }

    /// Recorded violations (first [`Self::MAX_RECORDED`] of them).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Total violations observed, including any beyond the storage cap.
    pub fn total_violations(&self) -> u64 {
        self.total
    }

    /// Did the run uphold every enabled invariant?
    pub fn is_clean(&self) -> bool {
        self.total == 0
    }

    /// Count a breach; `detail` is formatted only if the breach is kept
    /// (past [`Self::MAX_RECORDED`] only the count grows).
    fn record(&mut self, t: Time, rule: InvariantRule, detail: impl FnOnce() -> String) {
        self.total += 1;
        if self.violations.len() < Self::MAX_RECORDED {
            self.violations.push(Violation { t, rule, detail: detail() });
        }
    }
}

impl InvariantMonitor {
    /// Add `n` of the current step's picks to the group at boundary `b`.
    /// A step touches a handful of groups, so a scan finds its entry.
    fn attribute(&mut self, b: Time, n: usize) {
        match self.touched.iter_mut().find(|(tb, _)| *tb == b) {
            Some((_, picks)) => *picks += n,
            None => self.touched.push((b, n)),
        }
    }

    /// Judge the current step's `picks` against the head/tail group
    /// structure (width cap always; exhausted-rectangle rule in strict
    /// mode).
    fn check_head_tail(&mut self, ht: HeadTailChecks, t: Time, picks: &[(JobId, NodeId)]) {
        // Attribute runs of consecutive picks that share a boundary (a
        // group's picks are pushed together) once per run. A pick of the
        // run's last job extends it at once, and a job released within
        // `half` before the run's boundary shares it, so the division in
        // `group_boundary` runs only where a run starts. A group met again
        // in a later run adds to its count.
        let half = ht.half.max(1);
        let mut run: Option<(JobId, Time, usize)> = None;
        for &(job, _) in picks {
            if let Some((j, _, n)) = &mut run {
                if *j == job {
                    *n += 1;
                    continue;
                }
            }
            let Some(Some(r)) = self.releases.get(job.index()).copied() else {
                continue;
            };
            match &mut run {
                Some((j, rb, n)) if r <= *rb && *rb < r + half => {
                    *j = job;
                    *n += 1;
                }
                _ => {
                    let b = group_boundary(r, half);
                    if let Some((_, rb, n)) = run.replace((job, b, 1)) {
                        self.attribute(rb, n);
                    }
                }
            }
        }
        if let Some((_, rb, n)) = run {
            self.attribute(rb, n);
        }

        let m = self.m;
        let total = picks.len();
        let p = (m / ht.alpha.max(1)).max(1);
        let opt = 2 * half;
        let touched = std::mem::take(&mut self.touched);
        for &(b, n) in &touched {
            let g = self.groups.entry(b).or_default();
            let exhausted_at = g.exhausted_at;
            let in_tail = ht.strict && t >= b.saturating_add(opt);
            if in_tail {
                // A short tail step (the group got < p while the selection
                // stayed under m, so its grant provably exceeded its picks)
                // means its MC rectangle is exhausted under a valid
                // estimate; re-evaluated every tail step the group runs.
                g.exhausted_at = (n < p && total < m).then_some(t);
            }
            if n > p {
                self.record(t, InvariantRule::GroupWidth, || {
                    format!("group@{b} ran {n} > slice {p} (m={m}, alpha={})", ht.alpha)
                });
            }
            if in_tail {
                if let Some(t0) = exhausted_at {
                    if t > t0 {
                        self.record(t, InvariantRule::TailRectangle, || {
                            format!("group@{b} scheduled after its rectangle ran short at t={t0}")
                        });
                    }
                }
            }
        }
        self.touched = touched;
        self.touched.clear();
    }
}

impl Probe for InvariantMonitor {
    fn on_start(&mut self, m: usize, num_jobs: usize) {
        self.m = m;
        self.single = num_jobs == 1;
        self.tail_start = None;
        self.pending_narrow = None;
        self.done = false;
        self.releases.clear();
        self.groups.clear();
        self.touched.clear();
        self.violations.clear();
        self.total = 0;
    }

    fn on_release(&mut self, t: Time, job: JobId, graph: &JobGraph) {
        if let (true, Some(alpha)) = (self.single, self.checks.rectangle_tail_alpha) {
            let p = (alpha.max(1) * self.m.max(1)) as u64;
            self.tail_start = Some(t + graph.opt_single_job(p));
        }
        if job.index() >= self.releases.len() {
            self.releases.resize(job.index() + 1, None);
        }
        self.releases[job.index()] = Some(t);
        if let Some(ht) = self.checks.head_tail {
            self.groups.entry(group_boundary(t, ht.half)).or_default().members += 1;
        }
    }

    fn on_step(&mut self, t: Time, stat: StepStat<'_>) {
        let m = self.m;
        let scheduled = stat.picks.len();
        if let Some(ht) = self.checks.head_tail {
            self.check_head_tail(ht, t, stat.picks);
        }
        if self.checks.work_conserving && scheduled < m && scheduled < stat.ready_depth {
            self.record(t, InvariantRule::WorkConserving, || {
                format!("scheduled {scheduled} of {} ready on {m} processors", stat.ready_depth)
            });
        }
        if let Some(tail) = self.tail_start {
            if t >= tail && !self.done {
                // Any tail step arriving after a narrow one proves the
                // narrow step was not the schedule's (exempt) final step.
                if let Some((nt, width)) = self.pending_narrow.take() {
                    self.record(nt, InvariantRule::RectangleTail, || {
                        format!(
                            "non-final tail step ran {width} < {m} subjobs (tail starts at {tail})"
                        )
                    });
                }
                if scheduled < m {
                    self.pending_narrow = Some((t, scheduled));
                }
            }
        }
    }

    fn on_complete(&mut self, _t: Time, job: JobId, release: Time) {
        // Single-job instance: the run's last productive step has happened;
        // a pending narrow step was the final one, which Lemma 5.2 exempts.
        self.done = true;
        self.pending_narrow = None;
        self.releases[job.index()] = None;
        if let Some(ht) = self.checks.head_tail {
            let b = group_boundary(release, ht.half);
            if let Some(g) = self.groups.get_mut(&b) {
                g.completed += 1;
                if g.completed >= g.members {
                    // Every member done: the group retires, and with it any
                    // exhausted-rectangle state (a short final step is the
                    // expected rectangle shape, not a breach).
                    self.groups.remove(&b);
                }
            }
        }
    }

    fn on_idle_gap(&mut self, _t0: Time, _steps: Time, _m: usize) {
        // Gaps occur only when nothing is alive: vacuously work-conserving,
        // and on single-job instances they precede the release, before any
        // tail. O(1) instead of the default stepwise replay.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::instance::JobSpec;
    use crate::scheduler::{Clairvoyance, OnlineScheduler, Selection, SimView};
    use flowtree_dag::builder::{chain, star};
    use flowtree_dag::NodeId;

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

    /// Greedy, but refuses to use the last processor — breaks work
    /// conservation whenever more than `m - 1` subjobs are ready.
    struct Lazy;

    impl OnlineScheduler for Lazy {
        fn clairvoyance(&self) -> Clairvoyance {
            Clairvoyance::NonClairvoyant
        }
        fn select(&mut self, _t: Time, view: &SimView<'_>, sel: &mut Selection) {
            for &job in view.alive() {
                for &v in view.ready(job) {
                    if sel.remaining() <= 1 || !sel.push(job, NodeId(v)) {
                        return;
                    }
                }
            }
        }
    }

    /// Feed `picks` as the step at `t`; the head/tail check reads only the
    /// picks (its tests disable the checks that read the other fields).
    fn step(mon: &mut InvariantMonitor, t: Time, picks: &[(JobId, NodeId)]) {
        mon.on_step(t, StepStat { picks, idle_procs: 0, ready_depth: 0 });
    }

    #[test]
    fn lower_bound_is_exact_for_single_star() {
        // star(6): root + 6 leaves on m=3 -> OPT = 3 (Corollary 5.4).
        let inst = Instance::single(star(6));
        let mut lb = LowerBound::new(&inst);
        let report = Engine::new(3).with_probe(&mut lb).run(&inst, &mut Greedy).unwrap();
        assert_eq!(lb.lower_bound(), 3);
        assert_eq!(lb.max_flow(), Some(report.stats.max_flow));
        assert_eq!(lb.ratio(), Some(report.stats.max_flow as f64 / 3.0));
        assert!(lb.ratio().unwrap() >= 1.0);
    }

    #[test]
    fn lower_bound_tracks_released_jobs_only() {
        let inst = Instance::new(vec![
            JobSpec { graph: chain(2), release: 0 },
            JobSpec { graph: chain(9), release: 50 },
        ]);
        let mut lb = LowerBound::new(&inst);
        Engine::new(2).with_probe(&mut lb).run(&inst, &mut Greedy).unwrap();
        // Both released by the end: the chain(9) dominates.
        assert_eq!(lb.lower_bound(), 9);
    }

    #[test]
    fn work_conserving_violations_are_recorded_not_panicked() {
        let inst = Instance::single(star(9));
        let mut mon = InvariantMonitor::new(&inst, InvariantChecks::WORK_CONSERVING);
        Engine::new(4).with_probe(&mut mon).run(&inst, &mut Lazy).unwrap();
        assert!(!mon.is_clean());
        let v = &mon.violations()[0];
        assert_eq!(v.rule, InvariantRule::WorkConserving);
        assert!(v.detail.contains("of"), "detail should carry counts: {}", v.detail);
        // The same run is clean under the greedy scheduler.
        let mut mon = InvariantMonitor::new(&inst, InvariantChecks::WORK_CONSERVING);
        Engine::new(4).with_probe(&mut mon).run(&inst, &mut Greedy).unwrap();
        assert!(mon.is_clean(), "{:?}", mon.violations());
    }

    #[test]
    fn rectangle_tail_flags_non_final_narrow_steps_only() {
        let checks = InvariantChecks {
            work_conserving: false,
            rectangle_tail_alpha: Some(1),
            head_tail: None,
        };
        let inst = Instance::single(star(8));
        let mut mon = InvariantMonitor::new(&inst, checks);
        // Drive the probe by hand: star(8) on m=4 has OPT = 3, so the tail
        // starts at t=3.
        mon.on_start(4, 1);
        mon.on_release(0, JobId(0), inst.graph(JobId(0)));
        for (t, scheduled) in [(0u64, 1usize), (1, 4), (2, 4), (3, 4), (4, 2), (5, 1)] {
            let picks = vec![(JobId(0), NodeId(0)); scheduled];
            mon.on_step(t, StepStat { picks: &picks, idle_procs: 4 - scheduled, ready_depth: 9 });
        }
        mon.on_complete(6, JobId(0), 0);
        mon.on_finish(6);
        // t=4 ran 2 < 4 and was followed by t=5, so it is a violation;
        // t=5 was the final step and is exempt.
        assert_eq!(mon.total_violations(), 1);
        assert_eq!(mon.violations()[0].t, 4);
        assert_eq!(mon.violations()[0].rule, InvariantRule::RectangleTail);
    }

    #[test]
    fn head_tail_width_cap_and_strict_rectangle_rule() {
        let checks = InvariantChecks {
            work_conserving: false,
            rectangle_tail_alpha: None,
            head_tail: Some(HeadTailChecks { alpha: 4, half: 2, strict: true }),
        };
        let mut mon = InvariantMonitor::new(&Instance::empty(), checks);
        mon.on_start(8, 0); // slice p = 2, head length opt = 4
        let g = chain(8);
        mon.on_release(0, JobId(0), &g);
        mon.on_release(0, JobId(1), &g); // group@0 with jobs 0, 1
        mon.on_release(3, JobId(2), &g); // group@4
                                         // Head step within the cap: clean.
        step(&mut mon, 0, &[(JobId(0), NodeId(0)), (JobId(1), NodeId(0))]);
        assert!(mon.is_clean());
        // Width breach: 3 picks for group@0 against slice 2.
        step(
            &mut mon,
            1,
            &[(JobId(0), NodeId(1)), (JobId(0), NodeId(2)), (JobId(1), NodeId(1))],
        );
        assert_eq!(mon.total_violations(), 1);
        assert_eq!(mon.violations()[0].rule, InvariantRule::GroupWidth);
        // Tail (t >= 4): a short step (1 < 2 picks, total under m) marks the
        // rectangle exhausted but is not itself a breach...
        step(&mut mon, 4, &[(JobId(0), NodeId(3))]);
        assert_eq!(mon.total_violations(), 1);
        // ...scheduling the group again afterwards is.
        step(&mut mon, 5, &[(JobId(1), NodeId(2))]);
        assert_eq!(mon.total_violations(), 2);
        assert_eq!(mon.violations()[1].rule, InvariantRule::TailRectangle);
    }

    /// Picks of one group need not be contiguous: attribution by runs
    /// (b0, b2, b0 inside one step) must judge every step exactly as the
    /// same picks regrouped so each group forms a single run.
    #[test]
    fn interleaved_pick_runs_attribute_like_grouped_picks() {
        let checks = InvariantChecks {
            work_conserving: false,
            rectangle_tail_alpha: None,
            head_tail: Some(HeadTailChecks { alpha: 4, half: 2, strict: true }),
        };
        let releases = [0, 0, 1, 2]; // jobs 0, 1 -> group@0; jobs 2, 3 -> group@2
        let steps: [(Time, &[u32]); 4] = [
            (1, &[0, 2, 1]),       // group@0: 2, group@2: 1
            (2, &[0, 2, 3, 1, 0]), // group@0: 3 > slice 2
            (4, &[2, 0, 3]),       // group@0 in its tail runs short
            (5, &[1, 2]),          // ...and is scheduled again
        ];
        let monitor = |regroup: bool| {
            let mut mon = InvariantMonitor::new(&Instance::empty(), checks);
            mon.on_start(8, 0);
            let g = chain(8);
            for (j, &r) in releases.iter().enumerate() {
                mon.on_release(r, JobId(j as u32), &g);
            }
            for (t, jobs) in steps {
                let mut picks: Vec<(JobId, NodeId)> =
                    jobs.iter().enumerate().map(|(i, &j)| (JobId(j), NodeId(i as u32))).collect();
                if regroup {
                    let first = |b: Time| {
                        jobs.iter().position(|&j| group_boundary(releases[j as usize], 2) == b)
                    };
                    picks.sort_by_key(|&(j, _)| first(group_boundary(releases[j.index()], 2)));
                }
                step(&mut mon, t, &picks);
            }
            mon.violations().to_vec()
        };
        let interleaved = monitor(false);
        assert_eq!(interleaved, monitor(true));
        let rules: Vec<(Time, InvariantRule)> = interleaved.iter().map(|v| (v.t, v.rule)).collect();
        assert_eq!(rules, [(2, InvariantRule::GroupWidth), (5, InvariantRule::TailRectangle)]);
    }

    #[test]
    fn head_tail_group_retires_when_all_members_complete() {
        let checks = InvariantChecks {
            work_conserving: false,
            rectangle_tail_alpha: None,
            head_tail: Some(HeadTailChecks { alpha: 4, half: 2, strict: true }),
        };
        let mut mon = InvariantMonitor::new(&Instance::empty(), checks);
        mon.on_start(8, 0);
        let g = chain(8);
        mon.on_release(0, JobId(0), &g);
        mon.on_release(0, JobId(1), &g);
        // Short tail step, then both members complete: the short step was
        // the group's (exempt) rectangle end, not a violation.
        step(&mut mon, 4, &[(JobId(0), NodeId(0)), (JobId(1), NodeId(0))]);
        step(&mut mon, 5, &[(JobId(0), NodeId(1))]);
        mon.on_complete(5, JobId(0), 0);
        mon.on_complete(5, JobId(1), 0);
        mon.on_finish(5);
        assert!(mon.is_clean(), "{:?}", mon.violations());
    }

    #[test]
    fn set_checks_rearms_head_tail_from_history_without_strict() {
        let mut mon = InvariantMonitor::new(&Instance::empty(), InvariantChecks::NONE);
        mon.on_start(8, 0);
        let g = chain(8);
        mon.on_release(0, JobId(0), &g);
        mon.on_release(1, JobId(1), &g);
        mon.on_complete(2, JobId(0), 0); // done before the swap: not regrouped
        mon.set_checks(InvariantChecks {
            work_conserving: false,
            rectangle_tail_alpha: None,
            head_tail: Some(HeadTailChecks { alpha: 4, half: 2, strict: true }),
        });
        // Strict demoted: a short tail step followed by more scheduling of
        // the same group is tolerated after a hot-swap regrouping...
        step(&mut mon, 6, &[(JobId(1), NodeId(0))]);
        step(&mut mon, 7, &[(JobId(1), NodeId(1))]);
        assert!(mon.is_clean(), "{:?}", mon.violations());
        // ...but the m/alpha width cap still applies (slice = 2).
        step(
            &mut mon,
            8,
            &[(JobId(1), NodeId(2)), (JobId(1), NodeId(3)), (JobId(1), NodeId(4))],
        );
        assert_eq!(mon.total_violations(), 1);
        assert_eq!(mon.violations()[0].rule, InvariantRule::GroupWidth);
    }

    #[test]
    fn violation_storage_is_capped() {
        let inst = Instance::single(chain(2));
        let mut mon = InvariantMonitor::new(&inst, InvariantChecks::WORK_CONSERVING);
        mon.on_start(4, 1);
        for t in 0..1000 {
            mon.on_step(t, StepStat { picks: &[], idle_procs: 4, ready_depth: 7 });
        }
        assert_eq!(mon.total_violations(), 1000);
        assert_eq!(mon.violations().len(), InvariantMonitor::MAX_RECORDED);
    }
}
