//! Name-indexed scheduler registry.
//!
//! Every scheduler in the repository, constructible from a declarative
//! [`SchedulerSpec`] — so the CLI, the experiment matrix (E16), and the
//! benchmarks share one list instead of three hand-built ones. A spec is a
//! plain value: it can be parsed from a CLI name, compared, copied, and
//! turned into a live scheduler with [`SchedulerSpec::build`].

use crate::baselines::{LeastRemainingWorkFirst, RandomWorkConserving, RoundRobin};
use crate::{AlgoA, Fifo, GuessDoubleA, TieBreak};
use flowtree_dag::Time;
use flowtree_sim::{HeadTailChecks, InvariantChecks, OnlineScheduler};

/// Default `algo-a` half-batch length used when a spec is parsed without an
/// explicit parameter (the `FromStr` impl); matches the CLI `--half` default.
pub const DEFAULT_HALF: Time = 8;

/// Canonical CLI names, one per registry entry (order matches `--help`).
pub const SCHEDULER_NAMES: &[&str] = &[
    "fifo",
    "fifo-last",
    "fifo-random",
    "fifo-mc",
    "lpf",
    "algo-a",
    "guess-double",
    "round-robin",
    "random-wc",
    "lrwf",
];

/// A declarative description of a scheduler configuration.
///
/// Unlike a `Box<dyn OnlineScheduler>`, a spec is `Copy + Eq`: lists of
/// specs can be stored in constants, compared in tests, and rebuilt fresh
/// for every run (schedulers are stateful, so each run needs a new one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerSpec {
    /// The FIFO family with a concrete intra-job tie-break;
    /// `Fifo(TieBreak::HighestHeight)` is the multi-job Longest Path First
    /// baseline of Section 5.1, registered as `lpf`.
    Fifo(TieBreak),
    /// Algorithm 𝒜 with the batching reduction (`alpha >= 3`, `half >= 1`).
    AlgoA {
        /// Processor-augmentation parameter α of Section 5.3.
        alpha: usize,
        /// Half-batch length of the Section 5.4 reduction.
        half: Time,
    },
    /// Guess-and-double wrapper with the paper's constants (Theorem 5.7).
    GuessDouble,
    /// Round-robin equipartition baseline.
    RoundRobin,
    /// Random work-conserving baseline with a fixed seed.
    RandomWc {
        /// RNG seed (fixed so runs are reproducible).
        seed: u64,
    },
    /// Least-remaining-work-first baseline.
    Lrwf,
}

impl SchedulerSpec {
    /// The canonical CLI name for this spec (parameters are not encoded).
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerSpec::Fifo(TieBreak::BecameReady) => "fifo",
            SchedulerSpec::Fifo(TieBreak::LastReady) => "fifo-last",
            SchedulerSpec::Fifo(TieBreak::Random(_)) => "fifo-random",
            SchedulerSpec::Fifo(TieBreak::MostChildren) => "fifo-mc",
            SchedulerSpec::Fifo(TieBreak::HighestHeight) => "lpf",
            SchedulerSpec::AlgoA { .. } => "algo-a",
            SchedulerSpec::GuessDouble => "guess-double",
            SchedulerSpec::RoundRobin => "round-robin",
            SchedulerSpec::RandomWc { .. } => "random-wc",
            SchedulerSpec::Lrwf => "lrwf",
        }
    }

    /// Parse a CLI name into a spec, overriding the `algo-a` half-batch
    /// parameter; the other entries ignore `half`. Parameterized entries get
    /// the same fixed defaults the CLI has always used (seed 1). Prefer
    /// `name.parse::<SchedulerSpec>()` when the default half is fine.
    pub fn from_name_with_half(name: &str, half: Time) -> Result<Self, String> {
        Ok(match name {
            "fifo" => SchedulerSpec::Fifo(TieBreak::BecameReady),
            "fifo-last" => SchedulerSpec::Fifo(TieBreak::LastReady),
            "fifo-random" => SchedulerSpec::Fifo(TieBreak::Random(1)),
            "fifo-mc" => SchedulerSpec::Fifo(TieBreak::MostChildren),
            "lpf" => SchedulerSpec::Fifo(TieBreak::HighestHeight),
            "algo-a" => SchedulerSpec::AlgoA { alpha: 4, half: half.max(1) },
            "guess-double" => SchedulerSpec::GuessDouble,
            "round-robin" => SchedulerSpec::RoundRobin,
            "random-wc" => SchedulerSpec::RandomWc { seed: 1 },
            "lrwf" => SchedulerSpec::Lrwf,
            other => {
                return Err(format!(
                    "unknown scheduler '{other}'; known: {}",
                    SCHEDULER_NAMES.join(", ")
                ))
            }
        })
    }

    /// Every registry entry, in [`SCHEDULER_NAMES`] order.
    pub fn all(half: Time) -> Vec<SchedulerSpec> {
        SCHEDULER_NAMES
            .iter()
            .map(|n| SchedulerSpec::from_name_with_half(n, half).expect("registry names parse"))
            .collect()
    }

    /// The canonical comparison set used by the E16 scheduler matrix:
    /// the three deterministic FIFO tie-breaks (highest-height is LPF),
    /// guess-and-double 𝒜, and the three classical baselines.
    pub fn matrix() -> Vec<SchedulerSpec> {
        vec![
            SchedulerSpec::Fifo(TieBreak::BecameReady),
            SchedulerSpec::Fifo(TieBreak::HighestHeight),
            SchedulerSpec::Fifo(TieBreak::MostChildren),
            SchedulerSpec::GuessDouble,
            SchedulerSpec::RoundRobin,
            SchedulerSpec::RandomWc { seed: 7 },
            SchedulerSpec::Lrwf,
        ]
    }

    /// Check that this scheduler can run on `m` processors. Algorithm 𝒜,
    /// alone or inside the guess-and-double wrapper, runs each release
    /// group on an `m/α` slice of the machine, so α must divide `m`; every
    /// other scheduler runs on any `m >= 1`. The CLI, a serve pool's
    /// configuration and a scheduler swap all check this before a run
    /// starts (`AlgoA` still asserts it as a backstop).
    pub fn check_machine(&self, m: usize) -> Result<(), String> {
        let alpha = match *self {
            SchedulerSpec::AlgoA { alpha, .. } => alpha,
            SchedulerSpec::GuessDouble => GuessDoubleA::PAPER_ALPHA,
            _ => return Ok(()),
        };
        if m >= alpha && m.is_multiple_of(alpha) {
            Ok(())
        } else {
            Err(format!(
                "{} splits the machine into alpha = {alpha} slices: m must be a multiple of \
                 {alpha}, got {m}",
                self.name()
            ))
        }
    }

    /// Build a fresh scheduler from this spec. The box is `Send`, so built
    /// schedulers can move into worker threads (sweeps, serve shards).
    pub fn build(&self) -> Box<dyn OnlineScheduler + Send> {
        match *self {
            SchedulerSpec::Fifo(tie) => Box::new(Fifo::new(tie)),
            SchedulerSpec::AlgoA { alpha, half } => Box::new(AlgoA::with_batching(alpha, half)),
            SchedulerSpec::GuessDouble => Box::new(GuessDoubleA::paper()),
            SchedulerSpec::RoundRobin => Box::new(RoundRobin),
            SchedulerSpec::RandomWc { seed } => Box::new(RandomWorkConserving::new(seed)),
            SchedulerSpec::Lrwf => Box::new(LeastRemainingWorkFirst),
        }
    }

    /// Which structural invariants this scheduler provably upholds, for an
    /// `InvariantMonitor` to enforce. The FIFO family and the classical
    /// baselines are work-conserving by construction (MC additionally by
    /// Lemma 5.5); LPF moreover produces the Lemma 5.2 rectangle tail on
    /// single-job runs (at augmentation α = 1, since the registry runs it
    /// unaugmented). Algorithm 𝒜 and its guess-and-double wrapper
    /// deliberately idle processors for their worst-case guarantees, so
    /// work conservation does *not* apply — instead they carry the
    /// Theorem 5.6 head/tail group check: no release group ever exceeds
    /// its `m/α` slice in one step, and (for 𝒜 run with its own fixed
    /// estimate) a tail group whose Lemma 5.2 rectangle ran short never
    /// schedules again. Guess-and-double restarts its inner 𝒜 with fresh
    /// groupings, so only the width cap is sound there (`half = 1` groups
    /// exactly the same-release jobs, which restarts keep together; the
    /// wrapper's inner α is the paper's 4).
    pub fn invariants(&self) -> InvariantChecks {
        match self {
            SchedulerSpec::Fifo(TieBreak::HighestHeight) => InvariantChecks {
                work_conserving: true,
                rectangle_tail_alpha: Some(1),
                head_tail: None,
            },
            SchedulerSpec::Fifo(_)
            | SchedulerSpec::RoundRobin
            | SchedulerSpec::RandomWc { .. }
            | SchedulerSpec::Lrwf => InvariantChecks::WORK_CONSERVING,
            SchedulerSpec::AlgoA { alpha, half } => InvariantChecks {
                work_conserving: false,
                rectangle_tail_alpha: None,
                head_tail: Some(HeadTailChecks { alpha: *alpha, half: *half, strict: true }),
            },
            SchedulerSpec::GuessDouble => InvariantChecks {
                work_conserving: false,
                rectangle_tail_alpha: None,
                head_tail: Some(HeadTailChecks {
                    alpha: GuessDoubleA::PAPER_ALPHA,
                    half: 1,
                    strict: false,
                }),
            },
        }
    }
}

impl std::str::FromStr for SchedulerSpec {
    type Err = String;

    /// Parse a registry name. `algo-a` takes [`DEFAULT_HALF`] as its
    /// half-batch length; use [`SchedulerSpec::from_name_with_half`] to
    /// override it.
    fn from_str(s: &str) -> Result<Self, String> {
        Self::from_name_with_half(s, DEFAULT_HALF)
    }
}

impl std::fmt::Display for SchedulerSpec {
    /// The canonical CLI name (parameters are not encoded, matching
    /// [`SchedulerSpec::name`]).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtree_sim::{Engine, Instance};

    #[test]
    fn every_name_parses_and_roundtrips() {
        for &name in SCHEDULER_NAMES {
            let spec: SchedulerSpec = name.parse().unwrap_or_else(|e: String| panic!("{e}"));
            assert_eq!(spec.name(), name);
            // Display is the FromStr inverse (modulo parameters).
            assert_eq!(spec.to_string(), name);
        }
    }

    #[test]
    fn from_name_with_half_parameterizes_algo_a() {
        assert_eq!(
            SchedulerSpec::from_name_with_half("algo-a", 16),
            Ok(SchedulerSpec::AlgoA { alpha: 4, half: 16 })
        );
        // The FromStr path uses the documented default.
        assert_eq!(
            "algo-a".parse::<SchedulerSpec>(),
            Ok(SchedulerSpec::AlgoA { alpha: 4, half: DEFAULT_HALF })
        );
    }

    #[test]
    fn unknown_name_is_an_error() {
        assert!("sjf-magic".parse::<SchedulerSpec>().is_err());
        assert!("".parse::<SchedulerSpec>().is_err());
        // LPF has one name; the error lists every registered one.
        let err = "fifo-lpf".parse::<SchedulerSpec>().unwrap_err();
        assert_eq!(
            err,
            format!("unknown scheduler 'fifo-lpf'; known: {}", SCHEDULER_NAMES.join(", "))
        );
        assert_eq!(SCHEDULER_NAMES.len(), 10);
    }

    #[test]
    fn all_matches_name_list() {
        let all = SchedulerSpec::all(8);
        assert_eq!(all.len(), SCHEDULER_NAMES.len());
        for (spec, &name) in all.iter().zip(SCHEDULER_NAMES) {
            assert_eq!(spec.name(), name);
        }
    }

    #[test]
    fn every_spec_builds_and_runs() {
        let inst = Instance::single(flowtree_dag::builder::star(6));
        for spec in SchedulerSpec::all(4) {
            let mut s = spec.build();
            let report = Engine::new(8)
                .with_max_horizon(100_000)
                .run(&inst, s.as_mut())
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name()));
            report.verify(&inst).unwrap();
        }
    }

    #[test]
    fn invariants_match_scheduler_construction() {
        for spec in SchedulerSpec::all(8) {
            let inv = spec.invariants();
            match spec.name() {
                "algo-a" | "guess-double" => {
                    assert!(!inv.work_conserving, "{} reserves capacity", spec.name());
                    let ht = inv.head_tail.unwrap_or_else(|| {
                        panic!("{} must carry the head/tail group check", spec.name())
                    });
                    // 𝒜 is checked against its own parameters, strictly;
                    // the guess-double wrapper regroups on every restart,
                    // so only the width cap (non-strict) is sound for it.
                    if spec.name() == "algo-a" {
                        assert_eq!((ht.alpha, ht.half, ht.strict), (4, 8, true));
                    } else {
                        assert_eq!((ht.alpha, ht.half, ht.strict), (4, 1, false));
                    }
                }
                _ => {
                    assert!(inv.work_conserving, "{} is work-conserving", spec.name());
                    assert!(inv.head_tail.is_none(), "{} has no group structure", spec.name());
                }
            }
            assert_eq!(inv.rectangle_tail_alpha.is_some(), spec.name() == "lpf");
        }
    }

    #[test]
    fn algo_a_and_guess_double_stay_clean_under_their_head_tail_checks() {
        use flowtree_sim::monitor::InvariantMonitor;
        use flowtree_sim::JobSpec;
        // A semi-batched stream with a comfortably valid estimate: the
        // strict Thm 5.6 structure must hold step for step.
        let half: flowtree_dag::Time = 8;
        let m = 8;
        let mut jobs = Vec::new();
        for i in 0..5u64 {
            jobs.push(JobSpec { graph: flowtree_dag::builder::star(7), release: i * half });
            jobs.push(JobSpec { graph: flowtree_dag::builder::chain(4), release: i * half });
        }
        let inst = Instance::new(jobs);
        for spec in [SchedulerSpec::AlgoA { alpha: 4, half }, SchedulerSpec::GuessDouble] {
            let mut mon = InvariantMonitor::new(&inst, spec.invariants());
            let mut s = spec.build();
            Engine::new(m)
                .with_max_horizon(1_000_000)
                .with_probe(&mut mon)
                .run(&inst, s.as_mut())
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name()));
            assert!(
                mon.is_clean(),
                "{} breached its own structure: {:?}",
                spec.name(),
                mon.violations()
            );
        }
    }

    #[test]
    fn head_tail_monitor_flags_a_greedy_impostor() {
        use flowtree_sim::monitor::InvariantMonitor;
        // FIFO schedules far more than one m/alpha slice per group per
        // step, so running it under algo-a's checks must light up the
        // group-width rule — proving the monitor actually bites. The star
        // is wide enough to breach more often than the monitor keeps.
        let inst = Instance::single(flowtree_dag::builder::star(600));
        let spec = SchedulerSpec::AlgoA { alpha: 4, half: 8 };
        let mut mon = InvariantMonitor::new(&inst, spec.invariants());
        let mut s = SchedulerSpec::Fifo(TieBreak::BecameReady).build();
        Engine::new(8).with_probe(&mut mon).run(&inst, s.as_mut()).expect("fifo runs");
        assert!(!mon.is_clean());
        assert!(mon
            .violations()
            .iter()
            .any(|v| v.rule == flowtree_sim::InvariantRule::GroupWidth));
        // Past the cap only the count grows; the kept breaches are the
        // first 64, each a full 8-wide step of the star's one group.
        assert_eq!(InvariantMonitor::MAX_RECORDED, 64);
        assert!(mon.total_violations() > 64, "{} breaches", mon.total_violations());
        assert_eq!(mon.violations().len(), 64);
        for (i, v) in mon.violations().iter().enumerate() {
            assert_eq!(v.rule, flowtree_sim::InvariantRule::GroupWidth);
            assert_eq!(v.detail, "group@0 ran 8 > slice 2 (m=8, alpha=4)");
            assert_eq!(v.t, mon.violations()[0].t + i as flowtree_dag::Time);
        }
    }

    #[test]
    fn built_schedulers_and_monitor_stack_are_send() {
        // Compile-time guarantees that a whole monitored cell can move into
        // a worker thread (parallel sweeps, serve shards).
        fn assert_send<T: Send>() {}
        assert_send::<Box<dyn OnlineScheduler + Send>>();
        assert_send::<flowtree_sim::monitor::LowerBound>();
        assert_send::<flowtree_sim::monitor::InvariantMonitor>();
        assert_send::<flowtree_sim::RunHistograms>();
        assert_send::<flowtree_sim::Counters>();
        assert_send::<(
            flowtree_sim::monitor::LowerBound,
            flowtree_sim::monitor::InvariantMonitor,
            flowtree_sim::RunHistograms,
        )>();
    }

    #[test]
    fn algo_a_and_guess_double_need_alpha_to_divide_m() {
        let algo_a = SchedulerSpec::AlgoA { alpha: 4, half: 8 };
        for spec in [algo_a, SchedulerSpec::GuessDouble] {
            for m in [4, 8, 64] {
                assert_eq!(spec.check_machine(m), Ok(()), "{spec} m={m}");
            }
            for m in [0, 1, 2, 6, 7] {
                let err = spec.check_machine(m).unwrap_err();
                assert!(err.contains("multiple of 4"), "{err}");
            }
        }
        assert!(SchedulerSpec::AlgoA { alpha: 3, half: 1 }.check_machine(9).is_ok());
        for name in ["fifo", "lpf", "round-robin", "lrwf"] {
            assert_eq!(name.parse::<SchedulerSpec>().unwrap().check_machine(7), Ok(()));
        }
    }

    #[test]
    fn matrix_is_seven_distinct_specs() {
        let m = SchedulerSpec::matrix();
        assert_eq!(m.len(), 7);
        // Pairwise distinct names (so distinct specs too): the matrix never
        // lists one scheduler twice.
        for (i, a) in m.iter().enumerate() {
            for b in &m[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
    }
}
