//! Seeded inputs: out-tree job streams and open-loop send schedules.
//!
//! Every input is a pure function of the `--seed` (and of which part of the
//! run asks for it), so the same seed gives the same instances and the same
//! Poisson gaps. Jobs are random recursive out-trees released in bursts at a
//! fixed period. *Event-time load* is total work per tick over total
//! processors; each workload keeps it below 1, so a longer run simulates a
//! longer stream rather than a growing backlog, and per-job cost does not
//! depend on run length.

use crate::trace::Tracer;
use flowtree_sim::{Instance, JobSpec};
use rand::Rng as _;
use std::time::Instant;

/// Instances a workload generates in one run, each from its own seed;
/// rounds cycle over them.
pub const SETUPS: usize = 5;

/// Times each instance is generated. Set-up time is the median of all
/// `SETUPS × GENERATIONS` generations: single generations last about
/// 0.1 s and vary by ±25% on a shared host, and a median of ten moves less
/// from run to run than a median of five.
const GENERATIONS: usize = 2;

/// A bursty stream of equal-size random out-trees.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Subjobs per job.
    pub job_size: usize,
    /// Jobs sharing one release tick.
    pub burst: usize,
    /// Ticks between consecutive bursts.
    pub period: u64,
    /// Processors the stream is sized for (all shards together).
    pub processors: usize,
}

/// `engine-batch`: 256-subjob trees, one release every 5 ticks on m = 64
/// (load 256 / 5 / 64 = 0.8).
pub const ENGINE: Shape = Shape { job_size: 256, burst: 1, period: 5, processors: 64 };

/// `serve-flood` and `gateway-open`: 16-subjob trees in bursts of 8 every
/// 10 ticks on 2 shards × m = 8 (load 128 / 10 / 16 = 0.8).
pub const FLOOD: Shape = Shape { job_size: 16, burst: 8, period: 10, processors: 16 };

/// Seed of one generated part of a run: the workload seed mixed with a
/// stream tag, so distinct parts never share a random stream.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag.wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// `jobs` jobs of `shape`, released in bursts from tick 0.
pub fn instance(shape: Shape, jobs: usize, seed: u64) -> Instance {
    let mut rng = flowtree_workloads::rng(seed);
    let specs = (0..jobs)
        .map(|i| JobSpec {
            graph: flowtree_workloads::trees::random_recursive_tree(shape.job_size, &mut rng),
            release: (i / shape.burst) as u64 * shape.period,
        })
        .collect();
    Instance::new(specs)
}

/// Generate [`SETUPS`] instances, the `k`-th from `sub_seed(seed, k)`,
/// [`GENERATIONS`] times each, every generation inside a
/// `workloads.generate` span; returns the instances with every
/// generation's seconds.
pub fn generate_timed(
    shape: Shape,
    jobs: usize,
    seed: u64,
    tracer: &mut Tracer,
) -> (Vec<Instance>, Vec<f64>) {
    let mut secs = Vec::with_capacity(SETUPS * GENERATIONS);
    let mut insts = Vec::with_capacity(SETUPS);
    for k in 0..SETUPS as u64 {
        let mut inst = Instance::empty();
        for _ in 0..GENERATIONS {
            let start = Instant::now();
            inst = instance(shape, jobs, sub_seed(seed, k));
            let end = Instant::now();
            tracer.record("workloads.generate", k, None, start, end);
            secs.push((end - start).as_secs_f64());
        }
        insts.push(inst);
    }
    (insts, secs)
}

/// A context line on the generation times of one run.
pub fn gen_note(secs: &[f64]) -> String {
    let ms: Vec<String> = secs.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
    format!("generation ms, in order: {}", ms.join(", "))
}

/// Event-time load of `inst`: total work per tick over `processors`, with
/// the stream taken to last one `period` past its last release.
pub fn event_time_load(inst: &Instance, period: u64, processors: usize) -> f64 {
    let ticks = inst.last_release() + period;
    inst.total_work() as f64 / (ticks as f64 * processors as f64)
}

/// Due times (ns from the start of sending) of a Poisson process of `rate`
/// events per second, up to `horizon_ns`. The first event is due one gap
/// after the start.
pub fn poisson_due_ns(seed: u64, rate: f64, horizon_ns: u64) -> Vec<u64> {
    let mut rng = flowtree_workloads::rng(seed);
    let mean_gap_ns = 1e9 / rate;
    let mut due = Vec::with_capacity((horizon_ns as f64 / mean_gap_ns * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        // Inverse-CDF exponential gap; 1 - u lies in (0, 1], so ln is finite.
        let u: f64 = rng.gen_range(0.0..1.0);
        t += -(1.0 - u).ln() * mean_gap_ns;
        if t >= horizon_ns as f64 {
            return due;
        }
        due.push(t as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_stream_is_underloaded_in_event_time() {
        for (shape, jobs) in [(ENGINE, 512), (FLOOD, 4096)] {
            let inst = instance(shape, jobs, 3);
            assert_eq!(inst.num_jobs(), jobs);
            assert_eq!(inst.total_work(), (jobs * shape.job_size) as u64);
            let load = event_time_load(&inst, shape.period, shape.processors);
            assert!(load < 1.0, "load {load}");
            assert!((load - 0.8).abs() < 1e-9, "load {load}");
        }
    }

    #[test]
    fn the_old_serve_replay_shape_is_four_times_over_capacity() {
        // Bursts of 8 sixteen-subjob jobs every 2 ticks on 2 × m = 8.
        let replay = Shape { period: 2, ..FLOOD };
        let load = event_time_load(&instance(replay, 4096, 1), replay.period, 16);
        assert!((load - 4.0).abs() < 1e-9, "load {load}");
    }

    #[test]
    fn same_seed_same_instance_and_schedule() {
        assert_eq!(instance(FLOOD, 64, 9), instance(FLOOD, 64, 9));
        assert_ne!(instance(FLOOD, 64, 9), instance(FLOOD, 64, 10));
        let a = poisson_due_ns(5, 2500.0, 1_000_000_000);
        assert_eq!(a, poisson_due_ns(5, 2500.0, 1_000_000_000));
        assert_ne!(a, poisson_due_ns(6, 2500.0, 1_000_000_000));
    }

    #[test]
    fn poisson_schedule_has_the_requested_rate() {
        let due = poisson_due_ns(1, 12_500.0, 4_000_000_000);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        let rate = due.len() as f64 / 4.0;
        assert!((rate / 12_500.0 - 1.0).abs() < 0.03, "rate {rate}");
        // Exponential gaps: about e^-1 of them exceed the mean.
        let mean = 1e9 / 12_500.0;
        let long = due.windows(2).filter(|w| (w[1] - w[0]) as f64 > mean).count();
        let share = long as f64 / (due.len() - 1) as f64;
        assert!((share - (-1.0f64).exp()).abs() < 0.02, "share {share}");
    }
}
