//! # flowtree-bench — the committed-throughput benchmark harness
//!
//! Three baselines guard this workspace's performance, all produced here and
//! all committed at the repo root so successive PRs can diff them:
//!
//! * **`BENCH_engine.json`** — batch [`Engine`](flowtree_sim::Engine)
//!   throughput (subjobs/sec per workload × scheduler × m), produced by
//!   [`run_engine_matrix`].
//! * **`BENCH_serve.json`** — end-to-end serve-path throughput
//!   (arrivals/sec and subjobs/sec through a real
//!   [`ShardPool`](flowtree_serve::ShardPool), fixed-seed replay, sweeping
//!   shards × routing × policy), produced by [`run_serve_matrix`].
//! * **`BENCH_gateway.json`** — networked ingest throughput
//!   (submitted-jobs/sec through a loopback
//!   [`Gateway`](flowtree_gateway::Gateway), sweeping clients × batch ×
//!   codec × ack window), produced by [`run_gateway_matrix`].
//!
//! Each matrix is a list of cells over one fixed-seed stream generator,
//! and one timed loop runs them all: per group of cells (a `+telemetry` cell
//! with its plain twin, any other cell alone) it makes one untimed run
//! that verifies every schedule and, unless the cell may shed jobs,
//! requires all work dispatched; then it runs the warmups and the reps,
//! alternating within the group, and records every wall with the best-of.
//!
//! The CLI's `bench` subcommand is a thin argument parser over this crate;
//! `scripts/bench.sh` regenerates the baselines and `scripts/ci.sh` runs
//! the `--quick` subsets under the [`check_regressions`] gate.
//!
//! All documents share the `flowtree-bench-v1` schema: a cell is
//! identified by `(workload, scheduler, m, total_subjobs)` — serve and
//! gateway cells encode their pool or wire shape into the workload name so
//! the same gate logic compares them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ab;
mod cells;
mod engine_bench;
mod gateway_bench;
mod serve_bench;

pub use engine_bench::run_engine_matrix;
pub use gateway_bench::run_gateway_matrix;
pub use serve_bench::run_serve_matrix;

use serde::Value;

/// Knobs shared by the three matrices (parsed by the CLI).
#[derive(Debug, Clone)]
pub struct BenchOpts {
    /// Run only the mini workloads (CI smoke).
    pub quick: bool,
    /// Timed repeats per cell; the *best* wall time wins (least
    /// interference).
    pub reps: usize,
    /// Untimed warmup runs per cell.
    pub warmup: usize,
}

/// Seed for every benchmark workload generator — fixed so trajectories
/// compare the same instances across PRs.
pub const SEED: u64 = 11;

/// Wrap matrix entries into a `flowtree-bench-v1` document.
pub(crate) fn document(quick: bool, entries: Vec<Value>) -> Value {
    Value::Object(vec![
        ("schema".into(), Value::Str("flowtree-bench-v1".into())),
        ("git_rev".into(), Value::Str(flowtree_serve::git_describe())),
        ("quick".into(), Value::Bool(quick)),
        ("workload_seed".into(), Value::UInt(SEED)),
        ("entries".into(), Value::Array(entries)),
    ])
}

/// The plain twin's workload name of a `+telemetry` cell: the cell the
/// telemetry gate compares it with, and the timed loop runs it beside.
pub(crate) fn plain_twin(workload: &str) -> Option<&str> {
    workload.strip_suffix("+telemetry")
}

/// The entries of a bench document (none if it has no entries array).
fn entries(doc: &Value) -> impl Iterator<Item = &Value> {
    doc.get("entries").and_then(Value::as_array).into_iter().flatten()
}

/// Identity of one bench cell — entries are comparable across runs iff all
/// four fields match (same instances via the fixed seed).
pub fn cell_key(e: &Value) -> Option<(String, String, u64, u64)> {
    Some((
        e.get("workload")?.as_str()?.to_string(),
        e.get("scheduler")?.as_str()?.to_string(),
        e.get("m")?.as_u64()?,
        e.get("total_subjobs")?.as_u64()?,
    ))
}

/// Regression tolerance: a cell fails when its throughput drops below this
/// fraction of the baseline's.
pub const CHECK_FLOOR: f64 = 0.75;

/// A parsed baseline: comparable cell identities with their throughputs.
pub type Baseline = Vec<((String, String, u64, u64), f64)>;

/// Load and validate the baseline trajectory at `path`. Failures here are
/// configuration errors, not measurement noise — the caller fails fast
/// instead of re-measuring.
pub fn load_baseline(path: &str) -> Result<Baseline, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read baseline {path}: {e}"))?;
    let base: Value = serde_json::from_str(&text).map_err(|e| format!("baseline {path}: {e}"))?;
    if base.get("schema").and_then(Value::as_str) != Some("flowtree-bench-v1") {
        return Err(format!("baseline {path}: not a flowtree-bench-v1 document"));
    }
    let base_entries = base
        .get("entries")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("baseline {path}: missing entries array"))?;
    Ok(base_entries
        .iter()
        .filter_map(|e| Some((cell_key(e)?, e.get("subjobs_per_sec")?.as_f64()?)))
        .collect())
}

/// Require every cell of `doc` to have a comparable entry in `baseline`:
/// a renamed or new cell would otherwise drop out of the gate unseen. Like
/// [`load_baseline`]'s, this failure is a configuration error — the caller
/// fails at once instead of re-measuring.
pub fn require_baseline_cells(doc: &Value, baseline: &Baseline, path: &str) -> Result<(), String> {
    let missing: Vec<String> = entries(doc)
        .map(cell_key)
        .filter(|key| !key.as_ref().is_some_and(|k| baseline.iter().any(|(b, _)| b == k)))
        .map(|key| key.map_or("  an entry without a cell key".into(), |k| format!("  {k:?}")))
        .collect();
    if missing.is_empty() {
        return Ok(());
    }
    Err(format!(
        "bench check: {} cell(s) of this run are missing from the baseline {path} \
         (workload/scheduler/m/total_subjobs all must agree):\n{}",
        missing.len(),
        missing.join("\n")
    ))
}

/// Compare `doc` against a loaded baseline; error (nonzero exit) when any
/// cell is missing from the baseline ([`require_baseline_cells`]), when any
/// cell's `subjobs_per_sec` regressed by more than 25%, or when the run
/// has no cell at all.
pub fn check_regressions(doc: &Value, baseline: &Baseline, path: &str) -> Result<(), String> {
    require_baseline_cells(doc, baseline, path)?;
    let mut compared = 0usize;
    let mut regressions: Vec<String> = Vec::new();
    for e in entries(doc) {
        let (Some(key), Some(cur)) =
            (cell_key(e), e.get("subjobs_per_sec").and_then(Value::as_f64))
        else {
            continue;
        };
        let Some(&(_, base_rate)) = baseline.iter().find(|(k, _)| *k == key) else {
            continue;
        };
        compared += 1;
        if cur < CHECK_FLOOR * base_rate {
            regressions.push(format!(
                "  {}/{} m={}: {:.0} subjobs/s vs baseline {:.0} ({:.0}%)",
                key.0,
                key.1,
                key.2,
                cur,
                base_rate,
                100.0 * cur / base_rate
            ));
        }
    }
    if compared == 0 {
        return Err(format!("bench check: no cell in this run to compare with {path}"));
    }
    if !regressions.is_empty() {
        return Err(format!(
            "bench check FAILED: {} of {compared} cells regressed >{:.0}% vs {path}:\n{}",
            regressions.len(),
            100.0 * (1.0 - CHECK_FLOOR),
            regressions.join("\n")
        ));
    }
    println!(
        "bench check: {compared} cells within {:.0}% of {path}",
        100.0 * (1.0 - CHECK_FLOOR)
    );
    Ok(())
}

/// Telemetry exposition overhead ceiling: a `+telemetry` serve cell fails
/// the gate when its throughput falls more than this fraction below its
/// matching plain cell *in the same run* (within-run comparison — machine
/// speed cancels out).
pub const TELEMETRY_OVERHEAD_CEILING: f64 = 0.05;

/// Gate every `+telemetry` serve cell against its plain twin from the same
/// document. Errors when a twin is missing or when scraping cost more than
/// [`TELEMETRY_OVERHEAD_CEILING`]; prints the measured overhead otherwise.
pub fn check_telemetry_overhead(doc: &Value) -> Result<(), String> {
    let entries: Vec<&Value> = entries(doc).collect();
    let rate = |e: &Value| e.get("subjobs_per_sec").and_then(Value::as_f64);
    let mut failures = Vec::new();
    let mut compared = 0usize;
    for e in &entries {
        let Some((name, scheduler, m, work)) = cell_key(e) else {
            continue;
        };
        let Some(plain_name) = plain_twin(&name) else {
            continue;
        };
        let twin = entries.iter().find(|t| {
            cell_key(t).as_ref() == Some(&(plain_name.to_string(), scheduler.clone(), m, work))
        });
        let (Some(tel_rate), Some(plain_rate)) = (rate(e), twin.and_then(|t| rate(t))) else {
            failures.push(format!("  {name}: no comparable plain cell in this run"));
            continue;
        };
        compared += 1;
        let overhead = 1.0 - tel_rate / plain_rate;
        if overhead > TELEMETRY_OVERHEAD_CEILING {
            failures.push(format!(
                "  {name}: {tel_rate:.0} vs {plain_rate:.0} subjobs/s \
                 ({:.1}% overhead > {:.0}% ceiling)",
                100.0 * overhead,
                100.0 * TELEMETRY_OVERHEAD_CEILING
            ));
        } else {
            println!(
                "telemetry overhead gate: {name} {:.1}% (ceiling {:.0}%)",
                100.0 * overhead.max(0.0),
                100.0 * TELEMETRY_OVERHEAD_CEILING
            );
        }
    }
    if !failures.is_empty() {
        return Err(format!("telemetry overhead gate FAILED:\n{}", failures.join("\n")));
    }
    if compared == 0 {
        return Err("telemetry overhead gate: no +telemetry cell in this run".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::cells::Cell;
    use std::collections::BTreeSet;

    type Key = (String, String, u64, u64);

    /// The committed `BENCH_<matrix>.json` at the repo root.
    fn committed(matrix: &str) -> Value {
        let path = format!("{}/../../BENCH_{matrix}.json", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        serde_json::from_str(&text).unwrap()
    }

    fn doc_keys(doc: &Value) -> BTreeSet<Key> {
        entries(doc).map(|e| cell_key(e).unwrap()).collect()
    }

    /// A matrix's cell keys, built without timing anything.
    fn cell_keys<C: Cell>(cells: &[C]) -> BTreeSet<Key> {
        cells
            .iter()
            .map(|c| {
                let (workload, scheduler, m) = c.key();
                (workload, scheduler.to_string(), m as u64, c.stream().instance().total_work())
            })
            .collect()
    }

    #[test]
    fn matrices_match_the_committed_baselines() {
        let matrices = [
            (
                "engine",
                cell_keys(&engine_bench::cells(false)),
                cell_keys(&engine_bench::cells(true)),
                25,
            ),
            (
                "serve",
                cell_keys(&serve_bench::cells(false)),
                cell_keys(&serve_bench::cells(true)),
                14,
            ),
            (
                "gateway",
                cell_keys(&gateway_bench::cells(false)),
                cell_keys(&gateway_bench::cells(true)),
                11,
            ),
        ];
        for (matrix, full, quick, n) in matrices {
            assert_eq!(full.len(), n, "{matrix}");
            assert_eq!(
                full,
                doc_keys(&committed(matrix)),
                "{matrix}: cells differ from the baseline"
            );
            assert!(quick.is_subset(&full), "{matrix}: a quick cell is not in the full matrix");
            // The quick serve matrix keeps a telemetry twin pair, so its
            // overhead gate has something to compare.
            if matrix == "serve" {
                assert!(quick.iter().any(|(w, s, m, n)| plain_twin(w)
                    .is_some_and(|p| quick.contains(&(p.to_string(), s.clone(), *m, *n)))));
            }
        }
    }

    /// Runs `matrix`'s quick cells once (`reps: 1, warmup: 0`) and checks
    /// that every entry has its committed `BENCH_<matrix>.json` key set and
    /// one wall, and that the document round-trips through JSON.
    fn run_quick(matrix: &str, run: fn(&BenchOpts) -> Result<Value, String>) -> Value {
        let shapes = |doc: &Value| -> BTreeSet<Vec<String>> {
            entries(doc)
                .map(|e| match e {
                    Value::Object(fields) => {
                        let mut names: Vec<String> =
                            fields.iter().map(|(k, _)| k.clone()).collect();
                        names.sort();
                        names
                    }
                    other => panic!("entry is not an object: {other:?}"),
                })
                .collect()
        };
        let doc = run(&BenchOpts { quick: true, reps: 1, warmup: 0 }).unwrap();
        assert_eq!(shapes(&doc), shapes(&committed(matrix)), "{matrix}");
        for e in entries(&doc) {
            assert_eq!(e.get("wall_secs").and_then(Value::as_array).map(<[Value]>::len), Some(1));
        }
        let json = serde_json::to_string_pretty(&doc).unwrap();
        let back: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(back.get("schema").and_then(Value::as_str), Some("flowtree-bench-v1"));
        doc
    }

    #[test]
    fn quick_engine_matrix_produces_valid_entries() {
        let doc = run_quick("engine", run_engine_matrix);
        // 2 schedulers x 2 m's on stream + 1 x 1 on sparse.
        assert_eq!(entries(&doc).count(), 5);
    }

    #[test]
    fn quick_serve_matrix_produces_valid_entries() {
        let doc = run_quick("serve", run_serve_matrix);
        let names: Vec<&str> =
            entries(&doc).map(|e| e.get("workload").unwrap().as_str().unwrap()).collect();
        assert!(names.iter().all(|n| n.starts_with("serve-")), "{names:?}");
        // The quick matrix carries a telemetry cell and its plain twin, so
        // the overhead gate is computable (though not asserted here — a
        // 1-rep debug-build run is far too noisy to pin 5% on).
        assert!(
            names.iter().any(|n| plain_twin(n).is_some_and(|p| names.contains(&p))),
            "quick matrix lost its +telemetry twin pair"
        );
    }

    #[test]
    fn quick_gateway_matrix_produces_valid_entries() {
        let doc = run_quick("gateway", run_gateway_matrix);
        assert!(entries(&doc).all(|e| e
            .get("workload")
            .and_then(Value::as_str)
            .is_some_and(|n| n.starts_with("gateway-"))));
    }

    /// A two-entry serve document: a plain cell at `plain` subjobs/s and
    /// its `+telemetry` twin at `tel`.
    fn telemetry_doc(plain: f64, tel: f64) -> Value {
        let cell = |name: &str, rate: f64| {
            Value::Object(vec![
                ("workload".into(), Value::Str(name.into())),
                ("scheduler".into(), Value::Str("fifo".into())),
                ("m".into(), Value::UInt(8)),
                ("total_subjobs".into(), Value::UInt(4096)),
                ("subjobs_per_sec".into(), Value::Float(rate)),
            ])
        };
        Value::Object(vec![(
            "entries".into(),
            Value::Array(vec![
                cell("serve-mini+s4+hash+block", plain),
                cell("serve-mini+s4+hash+block+telemetry", tel),
            ]),
        )])
    }

    #[test]
    fn telemetry_gate_passes_under_the_ceiling_and_fails_over_it() {
        check_telemetry_overhead(&telemetry_doc(1000.0, 980.0)).unwrap();
        // Faster-than-plain (noise) is fine too.
        check_telemetry_overhead(&telemetry_doc(1000.0, 1010.0)).unwrap();
        let err = check_telemetry_overhead(&telemetry_doc(1000.0, 900.0)).unwrap_err();
        assert!(err.contains("overhead"), "{err}");

        // A telemetry cell without its twin is a configuration error…
        let mut orphan = telemetry_doc(1000.0, 980.0);
        if let Value::Object(fields) = &mut orphan {
            if let Some((_, Value::Array(entries))) =
                fields.iter_mut().find(|(k, _)| k == "entries")
            {
                entries.remove(0);
            }
        }
        assert!(check_telemetry_overhead(&orphan).unwrap_err().contains("no comparable"));
        // …and so is a document with no telemetry cell at all.
        let none = Value::Object(vec![("entries".into(), Value::Array(vec![]))]);
        assert!(check_telemetry_overhead(&none).unwrap_err().contains("no +telemetry"));
    }

    /// Build a one-entry bench document with the given throughput, shaped
    /// like matrix output.
    fn doc_with_rate(rate: f64) -> Value {
        Value::Object(vec![
            ("schema".into(), Value::Str("flowtree-bench-v1".into())),
            (
                "entries".into(),
                Value::Array(vec![Value::Object(vec![
                    ("workload".into(), Value::Str("stream-mini".into())),
                    ("scheduler".into(), Value::Str("fifo".into())),
                    ("m".into(), Value::UInt(8)),
                    ("total_subjobs".into(), Value::UInt(4096)),
                    ("subjobs_per_sec".into(), Value::Float(rate)),
                ])]),
            ),
        ])
    }

    #[test]
    fn check_passes_within_threshold_and_fails_past_it() {
        let dir = std::env::temp_dir();
        let path = dir.join("flowtree_bench_check_test.json");
        let path = path.to_str().unwrap();
        std::fs::write(path, serde_json::to_string(&doc_with_rate(1000.0)).unwrap()).unwrap();
        let baseline = load_baseline(path).unwrap();
        assert_eq!(baseline.len(), 1);

        // 80% of baseline: inside the 25% tolerance.
        check_regressions(&doc_with_rate(800.0), &baseline, path).unwrap();
        // 50% of baseline: a regression.
        let err = check_regressions(&doc_with_rate(500.0), &baseline, path).unwrap_err();
        assert!(err.contains("FAILED"), "{err}");
        assert!(err.contains("stream-mini"), "{err}");

        // A cell missing from the baseline fails the gate by name, even
        // beside a passing cell.
        let mut renamed = doc_with_rate(1000.0);
        if let Value::Object(fields) = &mut renamed {
            if let Some((_, Value::Array(entries))) =
                fields.iter_mut().find(|(k, _)| k == "entries")
            {
                let mut cell = entries[0].clone();
                if let Value::Object(cell_fields) = &mut cell {
                    cell_fields[0].1 = Value::Str("stream-renamed".into());
                }
                entries.push(cell);
            }
        }
        let err = check_regressions(&renamed, &baseline, path).unwrap_err();
        assert!(err.contains("missing") && err.contains("stream-renamed"), "{err}");
        assert!(!err.contains("stream-mini/"), "{err}");
        assert_eq!(require_baseline_cells(&renamed, &baseline, path).unwrap_err(), err);
        require_baseline_cells(&doc_with_rate(500.0), &baseline, path).unwrap();

        // A run with no cells must also fail loudly.
        let mut other = doc_with_rate(1000.0);
        if let Value::Object(fields) = &mut other {
            fields.retain(|(k, _)| k.as_str() != "entries");
            fields.push(("entries".into(), Value::Array(vec![])));
        }
        assert!(check_regressions(&other, &baseline, path).unwrap_err().contains("no cell"));

        // An unreadable or schema-less baseline is a configuration error.
        assert!(load_baseline("/nonexistent/flowtree.json").is_err());

        std::fs::remove_file(path).ok();
    }
}
