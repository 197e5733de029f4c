//! The one timed loop every matrix runs through.
//!
//! A matrix is a list of [`Cell`]s, timed in groups: a `+telemetry` cell
//! joins the group of its plain twin (paired by the rule the telemetry
//! gate uses, [`plain_twin`]), every other cell is a group of one. For each
//! group, [`run_cells`]
//!
//! 1. builds the group's instances, alive only while the group runs
//!    (holding every cell's replay across the serve matrix slowed its
//!    per-arrival cells by ~15%);
//! 2. makes one untimed, checked run per cell, then its warmups;
//! 3. runs the reps, alternating within the group (plain, telemetry,
//!    plain, …) so one burst of host load cannot land on a single twin;
//! 4. takes the best wall per clock (least interference), prints the line
//!    and emits the entry. Entries keep matrix order.

use crate::{document, plain_twin, BenchOpts, SEED};
use flowtree_serve::ShardResult;
use flowtree_sim::{Instance, JobSpec, RunReport};
use serde::Value;
use std::borrow::Cow;

/// A named fixed-seed stream: `jobs` random recursive out-trees of
/// `job_size` subjobs, released `burst` jobs per tick, ticks `spread`
/// apart.
pub(crate) struct Stream {
    pub name: &'static str,
    pub jobs: usize,
    pub job_size: usize,
    pub burst: usize,
    pub spread: u64,
}

impl Stream {
    /// The serve and gateway shape: `jobs` 16-subjob trees arriving 8 per
    /// tick, ticks 2 apart. Jobs this small make ingest overhead — channel
    /// ops, watermark fan-out, router locking, frame encode/decode, ack
    /// round-trips — dominate simulation, which is exactly what the serve
    /// and wire-path optimizations target.
    pub const fn bursty(name: &'static str, jobs: usize) -> Self {
        Stream { name, jobs, job_size: 16, burst: 8, spread: 2 }
    }

    /// The stream's jobs — the same on every run, since [`SEED`] is fixed.
    pub fn instance(&self) -> Instance {
        let mut rng = flowtree_workloads::rng(SEED);
        let jobs = (0..self.jobs)
            .map(|i| JobSpec {
                graph: flowtree_workloads::trees::random_recursive_tree(self.job_size, &mut rng),
                release: (i / self.burst) as u64 * self.spread,
            })
            .collect();
        Instance::new(jobs)
    }
}

/// What one run of a cell hands back once its clocks have stopped.
pub(crate) struct Run<'a> {
    /// Wall seconds under each of the cell's [`Cell::CLOCKS`].
    pub secs: Vec<f64>,
    /// Every schedule the run produced, with the instance it schedules:
    /// the engine's one, or one per shard.
    pub schedules: Vec<(RunReport, Cow<'a, Instance>)>,
}

impl Run<'_> {
    /// A pool run: one schedule per drained shard.
    pub fn of_shards(secs: Vec<f64>, results: Vec<ShardResult>) -> Self {
        let schedules = results.into_iter().map(|r| (r.report, Cow::Owned(r.instance))).collect();
        Run { secs, schedules }
    }

    fn dispatched(&self) -> u64 {
        self.schedules.iter().map(|(report, _)| report.counters.dispatched).sum()
    }
}

/// One cell of a matrix.
pub(crate) trait Cell {
    /// Each clock's infix in the entry, in [`Run::secs`] order: its walls
    /// go to `<clock>wall_secs`, its best to `best_<clock>secs`.
    /// `subjobs_per_sec` divides by the last clock.
    const CLOCKS: &'static [&'static str] = &[""];
    /// Stem of the offered-jobs rate over the first clock, recorded as
    /// `<stem>_per_sec` beside an `arrivals` count; `None` records neither.
    const ARRIVALS: Option<&'static str> = None;

    /// The stream the cell runs.
    fn stream(&self) -> &'static Stream;
    /// `workload`, `scheduler` and `m` of the cell's key; `total_subjobs`
    /// is its stream's work.
    fn key(&self) -> (String, &'static str, usize);
    /// Whether the cell may shed jobs, so that its checked run need not
    /// dispatch every subjob.
    fn lossy(&self) -> bool {
        false
    }
    /// One run on `inst`; the cell starts and stops its own clocks.
    fn run<'a>(&self, inst: &'a Instance) -> Result<Run<'a>, String>;
    /// The fields of the cell's shape, recorded between its key and
    /// `repeats`.
    fn fields(&self) -> Vec<(&'static str, Value)> {
        Vec::new()
    }
}

/// Run every cell of a matrix; returns the `flowtree-bench-v1` document.
pub(crate) fn run_cells<C: Cell>(cells: &[C], o: &BenchOpts) -> Result<Value, String> {
    let keys: Vec<_> = cells.iter().map(Cell::key).collect();
    let twin = |j: usize| {
        let (name, scheduler, m) = &keys[j];
        let plain = plain_twin(name)?;
        keys.iter().position(|(n, s, k)| n == plain && s == scheduler && k == m)
    };
    let mut entries = vec![Value::Null; cells.len()];
    for lead in (0..cells.len()).filter(|&i| twin(i).is_none()) {
        let group: Vec<(usize, Instance)> = std::iter::once(lead)
            .chain((0..cells.len()).filter(|&j| twin(j) == Some(lead)))
            .map(|j| (j, cells[j].stream().instance()))
            .collect();
        for (j, inst) in &group {
            check(&cells[*j], inst)?;
            for _ in 0..o.warmup {
                cells[*j].run(inst)?;
            }
        }
        let mut walls = vec![vec![Vec::with_capacity(o.reps); C::CLOCKS.len()]; group.len()];
        let mut dispatched = vec![0u64; group.len()];
        for _ in 0..o.reps {
            for (g, (j, inst)) in group.iter().enumerate() {
                let run = cells[*j].run(inst)?;
                for (clock, secs) in walls[g].iter_mut().zip(&run.secs) {
                    clock.push(*secs);
                }
                dispatched[g] = run.dispatched();
            }
        }
        for (g, (j, inst)) in group.iter().enumerate() {
            entries[*j] = entry(&cells[*j], inst.total_work(), &walls[g], dispatched[g], o.reps);
        }
    }
    Ok(document(o.quick, entries))
}

/// The untimed correctness run: every schedule verifies, and a cell that
/// cannot shed jobs dispatches every subjob of its stream.
fn check<C: Cell>(cell: &C, inst: &Instance) -> Result<(), String> {
    let run = cell.run(inst)?;
    let name = cell.key().0;
    for (report, scheduled) in &run.schedules {
        report.verify(scheduled).map_err(|e| format!("{name}: {e}"))?;
    }
    let (dispatched, work) = (run.dispatched(), inst.total_work());
    if !cell.lossy() && dispatched != work {
        return Err(format!("{name}: dispatched {dispatched} of {work} subjobs"));
    }
    Ok(())
}

/// Print one cell's line and build its entry from the walls of every rep.
fn entry<C: Cell>(cell: &C, work: u64, walls: &[Vec<f64>], dispatched: u64, reps: usize) -> Value {
    let (workload, scheduler, m) = cell.key();
    let best: Vec<f64> =
        walls.iter().map(|w| w.iter().copied().fold(f64::INFINITY, f64::min)).collect();
    let last = *best.last().expect("every cell reads a clock");
    let subjobs_per_sec = dispatched as f64 / last;
    let mut line = format!("{workload:<40} {scheduler:<12} m={m:<4}");
    let mut fields: Vec<(String, Value)> = vec![
        ("workload".into(), Value::Str(workload)),
        ("scheduler".into(), Value::Str(scheduler.into())),
        ("m".into(), Value::UInt(m as u64)),
        ("total_subjobs".into(), Value::UInt(work)),
    ];
    fields.extend(cell.fields().into_iter().map(|(k, v)| (k.to_string(), v)));
    let arrivals = cell.stream().jobs as u64;
    if C::ARRIVALS.is_some() {
        fields.push(("arrivals".into(), Value::UInt(arrivals)));
    }
    fields.push(("repeats".into(), Value::UInt(reps as u64)));
    for (clock, w) in C::CLOCKS.iter().zip(walls) {
        let w = w.iter().map(|&s| Value::Float(s)).collect();
        fields.push((format!("{clock}wall_secs"), Value::Array(w)));
    }
    for (clock, &b) in C::CLOCKS.iter().zip(&best) {
        fields.push((format!("best_{clock}secs"), Value::Float(b)));
    }
    if let Some(stem) = C::ARRIVALS {
        let rate = arrivals as f64 / best[0];
        line += &format!(" {rate:>10.0} {stem}/s");
        fields.push((format!("{stem}_per_sec"), Value::Float(rate)));
    }
    fields.push(("subjobs_per_sec".into(), Value::Float(subjobs_per_sec)));
    println!(
        "{line} {subjobs_per_sec:>12.0} subjobs/s  (best of {reps}: {:.3} ms)",
        last * 1e3
    );
    Value::Object(fields)
}
