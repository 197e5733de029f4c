//! `ab_summary SPEC BASE_RUNS HEAD_RUNS`: the table `scripts/ab.sh` prints.
//!
//! `SPEC` is a BENCHMARK.json document (for each metric's direction);
//! `BASE_RUNS` and `HEAD_RUNS` hold one flowbench result line per run, line
//! `i` of each being pair `i`. See [`flowtree_bench::ab`] for the rule.

use std::process::ExitCode;

fn run(args: &[String]) -> Result<String, String> {
    let [spec, base, head] = args else {
        return Err("usage: ab_summary SPEC BASE_RUNS HEAD_RUNS".into());
    };
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let (spec, base, head) = (read(spec)?, read(base)?, read(head)?);
    let lines =
        |text: &str| text.lines().filter(|l| !l.trim().is_empty()).map(str::to_owned).collect();
    let (base, head): (Vec<String>, Vec<String>) = (lines(&base), lines(&head));
    flowtree_bench::ab::summarize(&spec, &base, &head)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(table) => {
            print!("{table}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ab_summary: {e}");
            ExitCode::from(2)
        }
    }
}
