//! `flowtree-repro` — regenerate every experiment table and figure.
//!
//! ```text
//! flowtree-repro              # run all experiments at quick effort
//! flowtree-repro e3 e8        # run selected experiments
//! flowtree-repro --full all   # paper-scale parameters (slower)
//! flowtree-repro --csv out/ e3# also dump each table as CSV into out/
//! flowtree-repro --list       # list experiment ids
//! flowtree-repro gen adversary -m 16 --jobs 20 -o inst.json
//! flowtree-repro report adversary --instance inst.json --scheduler guess-double -m 16 \
//!     --gantt --dump sched.json
//! flowtree-repro verify inst.json sched.json
//! flowtree-repro trace service --scheduler lpf -m 8 -o run.jsonl
//! flowtree-repro report sort-farm --scheduler lpf --jobs 1 --format json
//! flowtree-repro report --trend results/store/
//! flowtree-repro report --flight results/store/flight-run.jsonl
//! flowtree-repro serve service --shards 2 --rate 0.5 --store results/store
//! flowtree-repro serve service --shards 2 --metrics-addr 127.0.0.1:9187
//! flowtree-repro metrics 127.0.0.1:9187 --check
//! flowtree-repro bench --quick --check BENCH_engine.json -o /tmp/b.json
//! ```

use flowtree_analysis::{experiments, Effort};
use std::process::ExitCode;

mod bench;
mod gateway;
mod gen;
mod metrics;
mod report;
mod scenario;
mod serve;
mod trace;

/// The experiment ids as `first..last`, from [`experiments::ALL`].
fn id_range() -> String {
    format!("{}..{}", experiments::ALL[0], experiments::ALL[experiments::ALL.len() - 1])
}

fn usage() -> String {
    format!(
        "usage: flowtree-repro [--full] [--csv DIR] [--list] [{} | all]...\n\
     \u{20}      flowtree-repro gen <family> [-m M] [--jobs N] [--seed S] [-o FILE]\n\
     \u{20}      flowtree-repro report <scenario> [--scheduler S] [-m M] [--format json|md]\n\
     \u{20}                            [--instance FILE] [--store DIR] [--dump schedule.json]\n\
     \u{20}                            [--gantt]\n\
     \u{20}      flowtree-repro verify <instance.json> <schedule.json>\n\
     \u{20}      flowtree-repro trace <scenario> [--scheduler S] [-m M] [-o FILE]\n\
     \u{20}      flowtree-repro report --trend <store-dir-or-file>\n\
     \u{20}      flowtree-repro report --flight <flight.jsonl-or-dir>\n\
     \u{20}      flowtree-repro serve <scenario> [--shards N] [--rate R] [--policy P] [--store DIR]\n\
     \u{20}                           [--metrics-addr HOST:PORT] [--flight FILE]\n\
     \u{20}      flowtree-repro gateway <scenario> --addr HOST:PORT [serve flags]\n\
     \u{20}      flowtree-repro submit <scenario> --addr HOST:PORT [--replay FILE]\n\
     \u{20}                            [--codec bin|json] [--window N] [--drain]\n\
     \u{20}      flowtree-repro metrics ADDR [--raw] [--check] [--retry N]\n\
     \u{20}      flowtree-repro bench [--serve | --gateway] [--quick] [--reps N]\n\
     \u{20}                           [--check BASELINE] [-o FILE]\n\
     Runs the reproduction experiments for 'Scheduling Out-Trees Online to\n\
     Optimize Maximum Flow' (SPAA 2024) and prints markdown reports.",
        id_range()
    )
}

/// A subcommand: its arguments in, a printable error out.
type Verb = fn(&[String]) -> Result<(), String>;

/// Every subcommand, by name.
const VERBS: [(&str, Verb); 9] = [
    ("gen", gen::run),
    ("trace", trace::run_trace),
    ("report", report::run),
    ("metrics", metrics::run),
    ("serve", serve::run),
    ("gateway", gateway::run_gateway),
    ("submit", gateway::run_submit),
    ("bench", bench::run),
    ("verify", |args| verify_cmd(args).map(|msg| println!("{msg}"))),
];

fn main() -> ExitCode {
    // Subcommands first.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let verb = raw.first().and_then(|a| VERBS.iter().find(|(name, _)| name == a));
    if let Some((_, run)) = verb {
        return match run(&raw[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }

    let mut effort = Effort::Quick;
    let mut csv_dir: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut list = false;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--full" => effort = Effort::Full,
            "--quick" => effort = Effort::Quick,
            "--list" => list = true,
            "--csv" => match args.next() {
                Some(dir) => csv_dir = Some(dir),
                None => {
                    eprintln!("--csv needs a directory\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "-h" | "--help" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            "all" => ids.extend(experiments::ALL.iter().map(|s| s.to_string())),
            other if other.starts_with('-') => {
                eprintln!("unknown flag '{other}'\n{}", usage());
                return ExitCode::FAILURE;
            }
            id => ids.push(id.to_ascii_lowercase()),
        }
    }

    if list {
        for id in experiments::ALL {
            println!("{id}");
        }
        return ExitCode::SUCCESS;
    }
    if ids.is_empty() {
        ids.extend(experiments::ALL.iter().map(|s| s.to_string()));
    }
    // Keep the first occurrence of each id: `all e3` runs e3 once.
    let mut seen = std::collections::HashSet::new();
    ids.retain(|id| seen.insert(id.clone()));

    if let Some(dir) = &csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir}: {e}");
            return ExitCode::FAILURE;
        }
    }

    for id in &ids {
        match experiments::run(id, effort) {
            Some(report) => {
                print!("{}", report.render());
                if let Some(dir) = &csv_dir {
                    for (i, t) in report.tables.iter().enumerate() {
                        let path = format!("{dir}/{}_{i}.csv", report.id.to_lowercase());
                        if let Err(e) = std::fs::write(&path, t.to_csv()) {
                            eprintln!("cannot write {path}: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
            }
            None => {
                eprintln!("unknown experiment '{id}' (expected {} or all)", id_range());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// `verify <instance.json> <schedule.json>` — re-run the independent
/// Section 3 feasibility checker on a dumped schedule and report per-job
/// flow statistics.
fn verify_cmd(args: &[String]) -> Result<String, String> {
    let [inst_path, sched_path] = args else {
        return Err("usage: flowtree-repro verify <instance.json> <schedule.json>".into());
    };
    let instance: flowtree_sim::Instance = read_json(inst_path)?;
    let schedule: flowtree_sim::Schedule = read_json(sched_path)?;
    schedule.verify(&instance).map_err(|e| format!("INFEASIBLE: {e}"))?;
    let stats = flowtree_sim::metrics::flow_stats(&instance, &schedule);
    Ok(format!(
        "feasible: {} jobs, max flow {}, mean flow {:.2}, makespan {}",
        instance.num_jobs(),
        stats.max_flow,
        stats.mean_flow,
        stats.makespan
    ))
}

/// Read and parse the JSON file at `path`; errors name the path.
fn read_json<T: serde::Deserialize>(path: &str) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_names_every_verb() {
        let text = usage();
        for (name, _) in VERBS {
            assert!(text.contains(&format!("flowtree-repro {name} ")), "usage() omits {name}");
        }
    }
}
