//! Pinned schedule digests: every registry scheduler, plus guess-and-double
//! with a small β so its restarts hand masked remainders to Algorithm 𝒜,
//! runs two fixed seeded streams, and a hash of every step's picks (in
//! push order) must equal the pinned value. A change that moves a single
//! pick of any scheduler, or the order in which a step's picks are pushed,
//! changes its digest.
//!
//! The digests are regenerated only when a change to a scheduler's picks
//! is intended: run with `PRINT_DIGESTS=1` and `--nocapture` to print the
//! current table.

use flowtree_core::{GuessDoubleA, SchedulerSpec, SCHEDULER_NAMES};
use flowtree_dag::builder::{caterpillar, star};
use flowtree_sim::{Engine, Instance, JobSpec, OnlineScheduler, RunReport};
use rand::Rng as _;

/// Machine size: `alpha = 4` divides it, as Algorithm 𝒜 requires.
const M: usize = 8;

/// Jobs per stream.
const JOBS: usize = 400;

/// The seeded streams, one per pinned column.
const SEEDS: [u64; 2] = [11, 29];

/// A bursty stream of mixed out-trees near load 0.9: random recursive trees
/// of 1..=64 subjobs, with every fifth job a star and every seventh a
/// caterpillar (wide ready sets, so every tie-break has choices to make),
/// released three at a time every 14 ticks.
fn stream(seed: u64) -> Instance {
    let mut rng = flowtree_workloads::rng(seed);
    let jobs = (0..JOBS)
        .map(|i| {
            let n = rng.gen_range(1..=64usize);
            let graph = if i % 5 == 4 {
                star(n)
            } else if i % 7 == 6 {
                let legs: Vec<usize> = (0..n.div_ceil(4)).map(|_| rng.gen_range(0..4)).collect();
                caterpillar(legs.len(), &legs)
            } else {
                flowtree_workloads::trees::random_recursive_tree(n, &mut rng)
            };
            JobSpec { graph, release: (i / 3) as u64 * 14 }
        })
        .collect();
    Instance::new(jobs)
}

/// FNV-1a over every step's time and picks, in push order.
fn digest(report: &RunReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (t, picks) in report.iter() {
        eat(t);
        eat(picks.len() as u64);
        for &(j, v) in picks {
            eat(u64::from(j.0));
            eat(u64::from(v.0));
        }
    }
    h
}

fn run(inst: &Instance, sched: &mut dyn OnlineScheduler) -> u64 {
    let report = Engine::new(M).with_max_horizon(10_000_000).run(inst, sched).unwrap();
    report.verify(inst).unwrap();
    digest(&report)
}

/// Pinned digests per scheduler, one per seed of [`SEEDS`].
const PINNED: &[(&str, [u64; 2])] = &[
    ("fifo", [0x5baa25b48e6a5f6a, 0x647e18f0255c9188]),
    ("fifo-last", [0x745bdcdb486b3312, 0x73097c7e933b27e1]),
    ("fifo-random", [0x7d892de84fdddd26, 0xaf453aaa4fa8132e]),
    ("fifo-mc", [0x14218824dae3219e, 0x9363c0f1947413da]),
    ("lpf", [0xf60a2deba976a7f0, 0x527bd4b803db6e1e]),
    ("algo-a", [0x5b5eeb4473277929, 0xbcbf483604d4ce74]),
    ("guess-double", [0xeaca2c74cc8e6aaa, 0xe332ee27c029a6eb]),
    ("round-robin", [0xcf57da3855a0017e, 0xe855feb11a3be22c]),
    ("random-wc", [0x487f22ac74adad52, 0x70e741dfdc0a98da]),
    ("lrwf", [0x57e2c5cb7d3ab0c8, 0xba9ba64f310ecd4a]),
    ("guess-double-masked", [0xded83f8dd4ee62c8, 0x9af3a79314e5ba72]),
];

#[test]
fn every_scheduler_reproduces_its_pinned_digest() {
    let insts: Vec<Instance> = SEEDS.iter().map(|&s| stream(s)).collect();
    let mut got: Vec<(String, [u64; 2])> = Vec::new();
    for name in SCHEDULER_NAMES {
        let spec: SchedulerSpec = name.parse().unwrap();
        let d = [0, 1].map(|k| run(&insts[k], spec.build().as_mut()));
        got.push((name.to_string(), d));
    }
    let d = [0, 1].map(|k| {
        let mut gd = GuessDoubleA::new(4, 4);
        let d = run(&insts[k], &mut gd);
        assert!(gd.restarts() > 0, "the masked case must restart");
        d
    });
    got.push(("guess-double-masked".to_string(), d));
    if std::env::var_os("PRINT_DIGESTS").is_some() {
        for (name, [a, b]) in &got {
            println!("    (\"{name}\", [{a:#018x}, {b:#018x}]),");
        }
    }
    let want: Vec<(String, [u64; 2])> = PINNED.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    assert_eq!(got, want);
}

/// Two names with one digest pair are one scheduler registered twice: every
/// pinned row must be a distinct schedule on at least one stream.
#[test]
fn no_two_pinned_rows_share_a_digest_pair() {
    for (i, (a, da)) in PINNED.iter().enumerate() {
        for (b, db) in &PINNED[i + 1..] {
            assert_ne!(da, db, "'{a}' and '{b}' produce the same schedules");
        }
    }
}
