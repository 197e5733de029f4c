//! `flowtree-repro bench` — thin CLI over the [`flowtree_bench`] harness.
//!
//! Three matrices live in `flowtree-bench`, all run by its one timed loop;
//! this module parses arguments, picks a row of its matrix table, writes
//! the JSON trajectory, and applies the regression gate:
//!
//! ```text
//! flowtree-repro bench                      # engine matrix  -> BENCH_engine.json
//! flowtree-repro bench --serve              # serve matrix   -> BENCH_serve.json
//! flowtree-repro bench --gateway            # gateway matrix -> BENCH_gateway.json
//! flowtree-repro bench --quick -o /tmp/b.json   # CI smoke: small + fast (-o required)
//! flowtree-repro bench --reps 9             # more repeats per cell
//! flowtree-repro bench --serve --quick --check BENCH_serve.json -o /tmp/b.json
//!                                           # regression gate vs a baseline
//! ```
//!
//! Each entry records every wall time observed; `subjobs_per_sec` uses the
//! *best* repeat (least interference). Without `--check` no thresholds are
//! enforced — hardware varies; the trajectory is for human/PR-level
//! diffing. With `--check BASELINE` every cell's (workload, scheduler, m,
//! total_subjobs) identity must appear in the baseline (a missing one fails
//! at once), and the run exits nonzero when any cell lost more than 25%
//! throughput; a failing comparison is
//! re-measured from scratch up to two more times first, so transient
//! machine load doesn't fail the gate while a real regression (which
//! survives every attempt) still does.

use flowtree_bench::{
    check_regressions, check_telemetry_overhead, load_baseline, require_baseline_cells,
    run_engine_matrix, run_gateway_matrix, run_serve_matrix, BenchOpts,
};
use serde::Value;

/// A check of one run's document.
type Gate = fn(&Value) -> Result<(), String>;

/// One committed baseline a `bench` invocation can produce.
struct Matrix {
    /// Selected by `--<name>`; the first row is the default.
    name: &'static str,
    /// Where the document goes without `-o`.
    out: &'static str,
    run: fn(&BenchOpts) -> Result<Value, String>,
    /// A gate beside the regression check, on the same document.
    gate: Option<Gate>,
}

static MATRICES: [Matrix; 3] = [
    Matrix {
        name: "engine",
        out: "BENCH_engine.json",
        run: run_engine_matrix,
        gate: None,
    },
    Matrix {
        name: "serve",
        out: "BENCH_serve.json",
        run: run_serve_matrix,
        gate: Some(check_telemetry_overhead),
    },
    Matrix {
        name: "gateway",
        out: "BENCH_gateway.json",
        run: run_gateway_matrix,
        gate: None,
    },
];

struct Opts {
    bench: BenchOpts,
    matrix: &'static Matrix,
    out: String,
    /// Baseline path to compare against; exit nonzero on regression.
    check: Option<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut quick = false;
    let mut matrix = &MATRICES[0];
    let mut out = None;
    let mut reps = None;
    let mut warmup = None;
    let mut check = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "-o" => out = Some(it.next().ok_or("-o needs a path")?.clone()),
            "--reps" => reps = Some(crate::scenario::parse_num(&mut it, "--reps")?),
            "--warmup" => warmup = Some(crate::scenario::parse_num(&mut it, "--warmup")?),
            "--check" => check = Some(it.next().ok_or("--check needs a baseline path")?.clone()),
            other => {
                matrix = MATRICES[1..]
                    .iter()
                    .find(|m| other.strip_prefix("--") == Some(m.name))
                    .ok_or_else(|| {
                        format!(
                            "unknown bench option '{other}'\n\
                             usage: flowtree-repro bench [--serve | --gateway] [--quick] \
                             [--reps N] [--warmup N] [--check BASELINE] [-o FILE]"
                        )
                    })?
            }
        }
    }
    if reps == Some(0) {
        return Err("--reps must be at least 1 (the best of no runs is undefined)".into());
    }
    // Gated runs take more repeats: the 25% regression threshold needs a
    // stable best-of.
    let reps = reps.unwrap_or(if check.is_some() {
        15
    } else if quick {
        2
    } else {
        5
    });
    let warmup = warmup.unwrap_or(usize::from(!quick || check.is_some()));
    // A quick document must never replace a committed baseline, and a
    // gate must not compare a run with the file that run just wrote.
    let out = match out {
        Some(out) => out,
        None if quick => {
            return Err("--quick needs -o FILE (it must not replace the committed baseline)".into())
        }
        None => matrix.out.to_string(),
    };
    let name = std::path::Path::new(&out).file_name();
    if quick && MATRICES.iter().any(|m| name == Some(m.out.as_ref())) {
        return Err(format!(
            "--quick must not write the committed baseline {out}; pass another -o"
        ));
    }
    if check.as_deref().is_some_and(|check| same_file(check, &out)) {
        return Err(format!(
            "-o {out} is the --check baseline; the run would overwrite what it is checked against"
        ));
    }
    Ok(Opts { bench: BenchOpts { quick, reps, warmup }, matrix, out, check })
}

/// Whether two paths name one file: equal once canonicalized, or, when
/// either does not exist yet, equal as written.
fn same_file(a: &str, b: &str) -> bool {
    match (std::fs::canonicalize(a), std::fs::canonicalize(b)) {
        (Ok(a), Ok(b)) => a == b,
        _ => a == b,
    }
}

/// Run `bench [--serve | --gateway] [--quick] [--reps N] [--warmup N]
/// [--check BASELINE] [-o FILE]`.
pub fn run(args: &[String]) -> Result<(), String> {
    let o = parse_opts(args)?;
    let doc = (o.matrix.run)(&o.bench)?;
    let json = serde_json::to_string_pretty(&doc).map_err(|e| format!("serialize: {e}"))?;
    std::fs::write(&o.out, &json).map_err(|e| format!("write {}: {e}", o.out))?;
    // Self-validation: the written trajectory must parse back (CI smoke
    // asserts this command exits 0).
    let back: Value = serde_json::from_str(
        &std::fs::read_to_string(&o.out).map_err(|e| format!("re-read {}: {e}", o.out))?,
    )
    .map_err(|e| format!("{} is not valid JSON after write: {e}", o.out))?;
    let n = back
        .get("entries")
        .and_then(|e| e.as_array())
        .map(|a| a.len())
        .ok_or_else(|| format!("{}: missing entries array", o.out))?;
    eprintln!("wrote {n} bench entries to {}", o.out);
    if let Some(path) = &o.check {
        let baseline = load_baseline(path)?;
        require_baseline_cells(&doc, &baseline, path)?;
        // A gate on wall time is at the mercy of transient machine load
        // (CI runs it right after the test suite). Re-measure from scratch
        // before failing: only a regression that survives every fresh
        // attempt is reported. The passing attempt's document is what
        // stays written to `-o`.
        const ATTEMPTS: usize = 3;
        // The matrix's own gate (serve: every `+telemetry` cell against its
        // plain twin, within-run so machine speed cancels) follows the same
        // re-measure policy.
        let gate = |doc: &Value| {
            check_regressions(doc, &baseline, path)
                .and_then(|()| o.matrix.gate.map_or(Ok(()), |gate| gate(doc)))
        };
        let mut verdict = gate(&doc);
        for attempt in 2..=ATTEMPTS {
            if verdict.is_ok() {
                break;
            }
            eprintln!(
                "{}\nre-measuring (attempt {attempt}/{ATTEMPTS})…",
                verdict.as_ref().unwrap_err()
            );
            let doc = (o.matrix.run)(&o.bench)?;
            let json = serde_json::to_string_pretty(&doc).map_err(|e| format!("serialize: {e}"))?;
            std::fs::write(&o.out, &json).map_err(|e| format!("write {}: {e}", o.out))?;
            verdict = gate(&doc);
        }
        verdict?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opts_parse_and_reject() {
        let args = ["--quick", "--reps", "3", "-o", "q.json"].map(String::from);
        let o = parse_opts(&args).unwrap();
        assert!(o.bench.quick);
        assert_eq!(o.matrix.name, "engine");
        assert_eq!(o.bench.reps, 3);
        assert_eq!(o.out, "q.json");
        assert!(parse_opts(&["--frobnicate".into()]).is_err());
        assert!(parse_opts(&["--reps".into()]).is_err());
        // The default matrix has no flag of its own.
        assert!(parse_opts(&["--engine".into()]).is_err());
    }

    #[test]
    fn serve_and_gateway_modes_switch_default_output() {
        let o = parse_opts(&["--serve".into()]).unwrap();
        assert_eq!(o.matrix.name, "serve");
        assert_eq!(o.out, "BENCH_serve.json");
        assert!(o.matrix.gate.is_some());
        let o = parse_opts(&["--gateway".into()]).unwrap();
        assert_eq!(o.matrix.name, "gateway");
        assert_eq!(o.out, "BENCH_gateway.json");
        assert!(o.matrix.gate.is_none());
        // Explicit -o still wins.
        let o = parse_opts(&["--serve".into(), "-o".into(), "x.json".into()]).unwrap();
        assert_eq!(o.out, "x.json");
    }

    #[test]
    fn check_implies_more_repeats_and_warmup() {
        let o = parse_opts(&["--quick", "--check", "b.json", "-o", "r.json"].map(String::from))
            .unwrap();
        assert_eq!(o.check.as_deref(), Some("b.json"));
        assert_eq!(o.bench.reps, 15);
        assert_eq!(o.bench.warmup, 1);
        // Explicit --reps still wins over the gate default.
        let o =
            parse_opts(&["--check".into(), "b.json".into(), "--reps".into(), "2".into()]).unwrap();
        assert_eq!(o.bench.reps, 2);
        // Without --check, full runs warm up once and quick runs do not.
        assert_eq!(parse_opts(&[]).unwrap().bench.warmup, 1);
        assert_eq!(
            parse_opts(&["--quick", "-o", "q.json"].map(String::from)).unwrap().bench.warmup,
            0
        );
    }

    #[test]
    fn no_run_overwrites_a_committed_baseline_or_its_check_baseline() {
        let err = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            parse_opts(&args).err().unwrap_or_else(|| panic!("{args:?} must be refused"))
        };
        assert!(err(&["--quick"]).contains("-o"));
        assert!(err(&["--quick", "-o", "BENCH_engine.json"]).contains("BENCH_engine.json"));
        assert!(err(&["--serve", "--quick", "-o", "./BENCH_serve.json"]).contains("BENCH_serve"));
        assert!(err(&["--check", "x.json", "-o", "x.json"]).contains("--check"));
        // A full gated run would write its default output over the baseline.
        assert!(err(&["--check", "BENCH_engine.json"]).contains("--check"));
        // A full run still writes its committed baseline by default.
        assert_eq!(parse_opts(&[]).unwrap().out, "BENCH_engine.json");
    }

    #[test]
    fn explicit_warmup_zero_is_kept_and_reps_zero_rejected() {
        for args in [
            &["--warmup", "0"][..],
            &["--quick", "--check", "b.json", "-o", "r.json", "--warmup", "0"],
        ] {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            assert_eq!(parse_opts(&args).unwrap().bench.warmup, 0, "{args:?}");
        }
        let err = parse_opts(&["--reps".into(), "0".into()]).err().unwrap();
        assert!(err.contains("--reps"), "{err}");
    }
}
