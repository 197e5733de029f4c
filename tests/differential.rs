//! Differential test for the optimized engine hot loop.
//!
//! `slow_run` below reproduces the pre-optimization engine loop verbatim:
//! a fresh [`Selection`] and a `picks` Vec per step, the O(picks²) duplicate
//! and completion-fire scans, batch `release_due`, `push_step`, and stepwise
//! idling (the scheduler's `select` is called at every empty step instead of
//! fast-forwarding across release gaps). The optimized [`Engine`] must be
//! observationally identical: the same [`RunReport`] (schedule, flow stats,
//! counters), byte-identical JSONL traces, and the same errors — across
//! every scheduler in the registry and on randomized instances including
//! sparse arrival patterns that exercise the idle-gap fast-forward.

use flowtree::core::{SchedulerSpec, SCHEDULER_NAMES};
use flowtree::dag::NodeId;
use flowtree::prelude::*;
use flowtree::sim::{
    Counters, EngineError, InvariantMonitor, JsonlTrace, LowerBound, Probe, RunReport, SimState,
    StepStat,
};
use proptest::prelude::*;

/// The default safety-horizon formula, computed identically for both
/// engines so the comparison never hinges on differing caps.
fn default_horizon(inst: &Instance) -> Time {
    inst.last_release() + inst.total_work() + inst.max_span() + 4
}

/// The pre-optimization simulation loop, kept as a reference semantics.
/// Any behavioural divergence introduced by the CSR schedule, the scratch
/// `Selection`, the stamp-array validation, or the idle-gap fast-forward
/// shows up as a mismatch against this function.
fn slow_run<P: Probe>(
    m: usize,
    horizon: Time,
    instance: &Instance,
    scheduler: &mut dyn OnlineScheduler,
    mut probe: P,
) -> Result<RunReport, EngineError> {
    let clair = scheduler.clairvoyance();
    let mut state = SimState::new(instance);
    let mut schedule = Schedule::new(m);
    let mut counters = Counters::default();
    let mut t: Time = 0;

    counters.on_start(m, instance.num_jobs());
    probe.on_start(m, instance.num_jobs());

    while !state.all_done() {
        if t > horizon {
            return Err(EngineError::HorizonExceeded { horizon });
        }

        for job in state.release_due(instance, t) {
            counters.on_release(t, job, instance.graph(job));
            probe.on_release(t, job, instance.graph(job));
            let view = SimView::new(instance, &state, m, clair);
            scheduler.on_arrival(t, job, &view);
        }

        let ready_depth = state.total_ready();
        let mut sel = Selection::new(m);
        {
            let view = SimView::new(instance, &state, m, clair);
            scheduler.select(t, &view, &mut sel);
        }
        let picks = sel.picks().to_vec();

        for (i, &(j, v)) in picks.iter().enumerate() {
            if picks[..i].contains(&(j, v)) {
                return Err(EngineError::DuplicateSelection { t, job: j, node: v });
            }
            if j.index() >= instance.num_jobs()
                || v.index() >= instance.graph(j).n()
                || !state.is_ready(j, v)
            {
                return Err(EngineError::NotReady { t, job: j, node: v });
            }
        }

        counters.on_select(t, &picks);
        probe.on_select(t, &picks);
        for &(j, v) in &picks {
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

        for (i, &(j, _)) in picks.iter().enumerate() {
            if state.unfinished(j) == 0 && !picks[..i].iter().any(|&(pj, _)| pj == j) {
                counters.on_complete(t + 1, j, instance.release(j));
                probe.on_complete(t + 1, j, instance.release(j));
            }
        }

        state.prune_alive();
        schedule.push_step(picks);
        t += 1;
    }

    counters.on_finish(t);
    probe.on_finish(t);

    let stats = counters.flow_stats();
    Ok(RunReport { schedule, stats, counters })
}

/// Run both engines on the same instance with fresh schedulers from `make`,
/// each with a JSONL trace attached. Returns `(slow, fast)` where each side
/// is the run result plus the captured trace text.
#[allow(clippy::type_complexity)]
fn both_runs(
    inst: &Instance,
    m: usize,
    make: &mut dyn FnMut() -> Box<dyn OnlineScheduler>,
) -> (
    (Result<RunReport, EngineError>, String),
    (Result<RunReport, EngineError>, String),
) {
    let horizon = default_horizon(inst);

    let mut slow_trace = JsonlTrace::new(Vec::new());
    let slow = slow_run(m, horizon, inst, make().as_mut(), &mut slow_trace);
    let slow_text = String::from_utf8(slow_trace.finish().unwrap()).unwrap();

    let mut fast_trace = JsonlTrace::new(Vec::new());
    let fast = Engine::new(m)
        .with_max_horizon(horizon)
        .with_probe(&mut fast_trace)
        .run(inst, make().as_mut());
    let fast_text = String::from_utf8(fast_trace.finish().unwrap()).unwrap();

    ((slow, slow_text), (fast, fast_text))
}

/// Assert the two engines agree on report and trace (panicking variant for
/// the deterministic tests; the proptests use prop_assert directly).
fn assert_identical(inst: &Instance, m: usize, make: &mut dyn FnMut() -> Box<dyn OnlineScheduler>) {
    let ((slow, slow_text), (fast, fast_text)) = both_runs(inst, m, make);
    assert_eq!(slow, fast, "RunReport/err diverged (m={m})");
    assert_eq!(slow_text, fast_text, "JSONL trace diverged (m={m})");
}

/// Random out-tree via the recursive-attachment process (same generator as
/// `tests/trace.rs`).
fn arb_tree(max_n: usize) -> impl Strategy<Value = JobGraph> {
    (1..=max_n).prop_flat_map(|n| {
        proptest::collection::vec(0..usize::MAX, n.saturating_sub(1)).prop_map(move |cs| {
            let mut b = flowtree::dag::GraphBuilder::new(n);
            for (i, &c) in cs.iter().enumerate() {
                b.edge((c % (i + 1)) as u32, (i + 1) as u32);
            }
            b.build().unwrap()
        })
    })
}

fn arb_instance(max_jobs: usize, max_n: usize, max_r: Time) -> impl Strategy<Value = Instance> {
    proptest::collection::vec((arb_tree(max_n), 0..=max_r), 1..=max_jobs).prop_map(|jobs| {
        Instance::new(jobs.into_iter().map(|(graph, release)| JobSpec { graph, release }).collect())
    })
}

/// A seed-driven work-conserving scheduler ("any scheduler" for the
/// differential properties). Consumes randomness only when the ready pool
/// is non-empty, so skipped empty selects cannot desynchronize the RNG.
struct SeededGreedy {
    state: u64,
}

impl SeededGreedy {
    fn next(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state
    }
}

impl OnlineScheduler for SeededGreedy {
    fn clairvoyance(&self) -> Clairvoyance {
        Clairvoyance::NonClairvoyant
    }
    fn select(&mut self, _t: Time, view: &SimView<'_>, sel: &mut Selection) {
        let mut pool: Vec<(JobId, u32)> = Vec::new();
        for &job in view.alive() {
            for &v in view.ready(job) {
                pool.push((job, v));
            }
        }
        let take = pool.len().min(sel.remaining());
        for i in 0..take {
            let j = i + (self.next() as usize) % (pool.len() - i);
            pool.swap(i, j);
            let (job, v) = pool[i];
            sel.push(job, NodeId(v));
        }
    }
}

proptest! {
    /// Dense instances, randomized work-conserving scheduler: identical
    /// reports and byte-identical traces.
    #[test]
    fn dense_instances_agree(
        inst in arb_instance(5, 10, 8),
        m in 1usize..=6,
        seed in 1u64..u64::MAX,
    ) {
        let ((slow, slow_text), (fast, fast_text)) =
            both_runs(&inst, m, &mut || Box::new(SeededGreedy { state: seed }));
        prop_assert_eq!(slow, fast);
        prop_assert_eq!(slow_text, fast_text);
    }

    /// Sparse arrivals — releases far apart relative to total work — so most
    /// runs cross several idle gaps and exercise the fast-forward path.
    #[test]
    fn sparse_instances_agree(
        inst in arb_instance(4, 6, 80),
        m in 1usize..=5,
        seed in 1u64..u64::MAX,
    ) {
        let ((slow, slow_text), (fast, fast_text)) =
            both_runs(&inst, m, &mut || Box::new(SeededGreedy { state: seed }));
        prop_assert_eq!(slow, fast);
        prop_assert_eq!(slow_text, fast_text);
    }

    /// The FIFO family (including the randomized tie-break) over sparse
    /// instances: the satellite scratch-buffer fix must not change results,
    /// and FIFO's tie-break RNG must survive skipped gap selects.
    #[test]
    fn fifo_family_agrees(
        inst in arb_instance(4, 8, 40),
        m in 1usize..=4,
        seed in 1u64..u64::MAX,
    ) {
        for tie in [TieBreak::BecameReady, TieBreak::LastReady, TieBreak::Random(seed)] {
            let ((slow, slow_text), (fast, fast_text)) =
                both_runs(&inst, m, &mut || Box::new(Fifo::new(tie)));
            prop_assert_eq!(slow, fast);
            prop_assert_eq!(slow_text, fast_text);
        }
    }
}

/// The fixed instance mix shared by the registry-wide tests: dense
/// overlapping arrivals, gap-heavy sparse arrivals, and a late single job.
fn fixed_instances() -> Vec<Instance> {
    use flowtree::dag::builder::{chain, quicksort_tree, star};
    vec![
        // Dense: overlapping arrivals, no gaps.
        Instance::new(vec![
            JobSpec { graph: chain(5), release: 0 },
            JobSpec { graph: star(6), release: 1 },
            JobSpec { graph: quicksort_tree(20, 1, 2, 1), release: 2 },
        ]),
        // Gap after the first job drains; second release off a batch boundary.
        Instance::new(vec![
            JobSpec { graph: chain(2), release: 0 },
            JobSpec { graph: star(4), release: 17 },
        ]),
        // Repeated long gaps, releases on and off multiples of half = 4.
        Instance::new(vec![
            JobSpec { graph: chain(1), release: 0 },
            JobSpec { graph: chain(3), release: 12 },
            JobSpec { graph: star(5), release: 33 },
            JobSpec { graph: chain(2), release: 64 },
        ]),
        // Everything released late: the run starts with a gap.
        Instance::new(vec![JobSpec { graph: star(7), release: 23 }]),
    ]
}

/// Every scheduler in the registry, on a mix of dense and gap-heavy fixed
/// instances. `m = 8` satisfies the α = 4 divisibility requirement of
/// `algo-a` and `guess-double`; `half = 4` so batch boundaries land inside
/// and outside the idle gaps.
#[test]
fn registry_schedulers_agree_on_fixed_instances() {
    for name in SCHEDULER_NAMES {
        let spec = SchedulerSpec::from_name_with_half(name, 4).unwrap();
        for inst in &fixed_instances() {
            assert_identical(inst, 8, &mut || spec.build());
        }
    }
}

/// Every scheduler in the registry under the full monitor stack: the
/// [`InvariantMonitor`] (configured with the registry's per-scheduler
/// declared invariants) records zero violations, and the Lemma 5.1
/// certificate from [`LowerBound`] never exceeds the achieved max flow.
#[test]
fn registry_schedulers_uphold_declared_invariants() {
    for name in SCHEDULER_NAMES {
        let spec = SchedulerSpec::from_name_with_half(name, 4).unwrap();
        for inst in &fixed_instances() {
            let mut lb = LowerBound::new(inst);
            let mut inv = InvariantMonitor::new(inst, spec.invariants());
            let mut probe = (&mut lb, &mut inv);
            let report = Engine::new(8)
                .with_max_horizon(100_000)
                .with_probe(&mut probe)
                .run(inst, spec.build().as_mut())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(
                inv.is_clean(),
                "{name}: {} violation(s), first: {:?}",
                inv.total_violations(),
                inv.violations().first()
            );
            assert!(
                lb.lower_bound() <= report.stats.max_flow,
                "{name}: certificate {} exceeds achieved max flow {}",
                lb.lower_bound(),
                report.stats.max_flow
            );
            assert_eq!(lb.max_flow(), Some(report.stats.max_flow), "{name}");
        }
    }
}

proptest! {
    /// Lemma 5.1 + Lemma 5.3: on random out-forest instances the monitor's
    /// lower-bound certificate never exceeds the max flow LPF achieves at
    /// α = 1 (LB ≤ OPT ≤ any feasible schedule's max flow).
    #[test]
    fn lower_bound_never_exceeds_lpf_max_flow(
        inst in arb_instance(5, 12, 10),
        m in 1usize..=6,
    ) {
        let mut lb = LowerBound::new(&inst);
        let report = Engine::new(m)
            .with_max_horizon(1_000_000)
            .with_probe(&mut lb)
            .run(&inst, &mut Lpf::new())
            .unwrap();
        prop_assert!(
            lb.lower_bound() <= report.stats.max_flow,
            "certificate {} > LPF max flow {}",
            lb.lower_bound(),
            report.stats.max_flow
        );
    }

    /// Corollary 5.4: for a single out-tree released at 0 the certificate
    /// is exact — LPF achieves it with equality, so the reported
    /// competitive ratio is exactly 1.
    #[test]
    fn single_job_lpf_achieves_the_certificate_exactly(
        tree in arb_tree(16),
        m in 1usize..=6,
    ) {
        let inst = Instance::new(vec![JobSpec { graph: tree, release: 0 }]);
        let mut lb = LowerBound::new(&inst);
        let report = Engine::new(m)
            .with_max_horizon(1_000_000)
            .with_probe(&mut lb)
            .run(&inst, &mut Lpf::new())
            .unwrap();
        prop_assert_eq!(lb.lower_bound(), report.stats.max_flow);
        prop_assert_eq!(lb.ratio(), Some(1.0));
    }
}

/// Scheduler-bug paths: both engines must reject the same invalid selection
/// with the same error (the stamp-array validation replaced the quadratic
/// scans but must report identically).
#[test]
fn error_paths_agree() {
    use flowtree::dag::builder::chain;

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

    struct Eager;
    impl OnlineScheduler for Eager {
        fn clairvoyance(&self) -> Clairvoyance {
            Clairvoyance::NonClairvoyant
        }
        fn select(&mut self, _t: Time, _v: &SimView<'_>, sel: &mut Selection) {
            sel.push(JobId(0), NodeId(1));
        }
    }

    struct Lazy;
    impl OnlineScheduler for Lazy {
        fn clairvoyance(&self) -> Clairvoyance {
            Clairvoyance::NonClairvoyant
        }
        fn select(&mut self, _t: Time, _v: &SimView<'_>, _s: &mut Selection) {}
    }

    let inst = Instance::new(vec![
        JobSpec { graph: chain(3), release: 0 },
        JobSpec { graph: chain(2), release: 9 },
    ]);
    let horizon = default_horizon(&inst);

    let slow = slow_run(2, horizon, &inst, &mut Doubler, flowtree::sim::NullProbe);
    let fast = Engine::new(2).with_max_horizon(horizon).run(&inst, &mut Doubler);
    assert_eq!(slow.unwrap_err(), fast.unwrap_err());
    assert_eq!(
        Engine::new(2).with_max_horizon(horizon).run(&inst, &mut Doubler).unwrap_err(),
        EngineError::DuplicateSelection { t: 0, job: JobId(0), node: NodeId(0) }
    );

    let slow = slow_run(2, horizon, &inst, &mut Eager, flowtree::sim::NullProbe);
    let fast = Engine::new(2).with_max_horizon(horizon).run(&inst, &mut Eager);
    assert_eq!(slow.unwrap_err(), fast.unwrap_err());
    assert_eq!(
        Engine::new(2).with_max_horizon(horizon).run(&inst, &mut Eager).unwrap_err(),
        EngineError::NotReady { t: 0, job: JobId(0), node: NodeId(1) }
    );

    let slow = slow_run(2, 25, &inst, &mut Lazy, flowtree::sim::NullProbe);
    let fast = Engine::new(2).with_max_horizon(25).run(&inst, &mut Lazy);
    assert_eq!(slow.unwrap_err(), fast.unwrap_err());
    assert_eq!(
        Engine::new(2).with_max_horizon(25).run(&inst, &mut Lazy).unwrap_err(),
        EngineError::HorizonExceeded { horizon: 25 }
    );
}
