//! The batch-engine throughput matrix (`BENCH_engine.json`).
//!
//! Runs the simulation engine over fixed workloads (the dense 64-job ×
//! 256-subjob stream every experiment's cost is dominated by, plus a
//! sparse-arrival stream that exercises the idle-gap fast path) for a
//! matrix of schedulers × machine sizes. Each cell times one
//! [`Engine::run`] with a fresh scheduler (schedulers are stateful).

use crate::cells::{run_cells, Cell, Run, Stream};
use crate::BenchOpts;
use flowtree_core::SchedulerSpec;
use flowtree_sim::{Engine, Instance};
use serde::Value;
use std::borrow::Cow;
use std::time::Instant;

/// `jobs` random recursive out-trees of `job_size` subjobs, one released
/// every `spread` ticks.
const fn spaced(name: &'static str, jobs: usize, job_size: usize, spread: u64) -> Stream {
    Stream { name, jobs, job_size, burst: 1, spread }
}

/// The dense stream of the acceptance measurement (64 × 256 at m = 256).
const STREAM: Stream = spaced("stream", 64, 256, 8);

/// Releases spaced far apart, so most simulated steps are idle gaps.
const SPARSE: Stream = spaced("sparse", 64, 256, 2048);

/// The `--quick` streams, also part of the full matrix under the same
/// names — so a committed full-run baseline contains cells a quick CI run
/// can compare against with `--check`. Sized so every cell runs for about a
/// millisecond: much smaller and a best-of-N wall time is dominated by
/// scheduler/OS noise, making the `--check` gate flaky.
const STREAM_MINI: Stream = spaced("stream-mini", 96, 128, 4);

/// Sparse counterpart of [`STREAM_MINI`] (exercises the idle-gap fast path).
const SPARSE_MINI: Stream = spaced("sparse-mini", 96, 128, 1024);

/// Every listed scheduler (registry names) on every listed machine size.
type Sweep = (&'static Stream, &'static [&'static str], &'static [usize]);

/// Reduced matrix for `--quick` (CI smoke): completes in well under a
/// second while still touching both stream shapes.
const QUICK: &[Sweep] =
    &[(&STREAM_MINI, &["fifo", "lpf"], &[8, 64]), (&SPARSE_MINI, &["fifo"], &[8])];

/// The full matrix. `stream` covers the whole headline scheduler set — the
/// greedy family plus the paper's §5.3 Algorithm 𝒜 and §5.4 guess-double,
/// so their cost is tracked too; the quick cells are included so the
/// committed baseline covers them.
const FULL: &[Sweep] = &[
    (
        &STREAM,
        &["fifo", "fifo-last", "lpf", "lrwf", "algo-a", "guess-double"],
        &[8, 64, 256],
    ),
    (&SPARSE, &["fifo"], &[8, 256]),
    QUICK[0],
    QUICK[1],
];

/// One scheduler on one machine size.
pub(crate) struct EngineCell {
    stream: &'static Stream,
    scheduler: &'static str,
    m: usize,
}

/// The matrix's cells: stream × scheduler × m, in that order.
pub(crate) fn cells(quick: bool) -> Vec<EngineCell> {
    let sweeps = if quick { QUICK } else { FULL };
    sweeps
        .iter()
        .flat_map(|&(stream, schedulers, ms)| {
            schedulers.iter().flat_map(move |&scheduler| {
                ms.iter().map(move |&m| EngineCell { stream, scheduler, m })
            })
        })
        .collect()
}

impl Cell for EngineCell {
    fn stream(&self) -> &'static Stream {
        self.stream
    }

    fn key(&self) -> (String, &'static str, usize) {
        (self.stream.name.to_string(), self.scheduler, self.m)
    }

    fn run<'a>(&self, inst: &'a Instance) -> Result<Run<'a>, String> {
        let mut sched = SchedulerSpec::from_name_with_half(self.scheduler, 8)?.build();
        let start = Instant::now();
        let report = Engine::new(self.m)
            .with_max_horizon(1_000_000_000)
            .run(inst, sched.as_mut())
            .map_err(|e| format!("{} on m={}: {e}", self.scheduler, self.m))?;
        let secs = start.elapsed().as_secs_f64();
        Ok(Run {
            secs: vec![secs],
            schedules: vec![(report, Cow::Borrowed(inst))],
        })
    }
}

/// Run the whole engine matrix; returns the JSON document.
pub fn run_engine_matrix(o: &BenchOpts) -> Result<Value, String> {
    run_cells(&cells(o.quick), o)
}
