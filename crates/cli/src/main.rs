//! `flowtree-repro` — regenerate every experiment table and figure.
//!
//! ```text
//! flowtree-repro              # run all experiments at quick effort
//! flowtree-repro e3 e8        # run selected experiments
//! flowtree-repro --full all   # paper-scale parameters (slower)
//! flowtree-repro --csv out/ e3# also dump each table as CSV into out/
//! flowtree-repro --list       # list experiment ids
//! flowtree-repro gen adversary -m 16 --jobs 20 -o inst.json
//! flowtree-repro simulate guess-double inst.json -m 16 --gantt --dump sched.json
//! flowtree-repro verify inst.json sched.json
//! flowtree-repro trace service --scheduler lpf -m 8 --compact-idle -o run.jsonl
//! flowtree-repro stats service --scheduler lpf -m 8
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
mod simulate;
mod store;
mod trace;

fn usage() -> &'static str {
    "usage: flowtree-repro [--full] [--csv DIR] [--list] [e1..e16 | all]...\n\
     \u{20}      flowtree-repro gen <family> [-m M] [--jobs N] [--seed S] [-o FILE]\n\
     \u{20}      flowtree-repro simulate <scheduler> <instance.json> [-m M] [--gantt]\n\
     \u{20}      flowtree-repro trace <scenario> [--scheduler S] [-m M] [--compact-idle] [-o FILE]\n\
     \u{20}      flowtree-repro stats <scenario> [--scheduler S] [-m M]\n\
     \u{20}      flowtree-repro report <scenario> [--scheduler S] [-m M] [--format json|md]\n\
     \u{20}      flowtree-repro report --trend <store-dir-or-file>\n\
     \u{20}      flowtree-repro report --flight <flight.jsonl-or-dir>\n\
     \u{20}      flowtree-repro serve <scenario> [--shards N] [--rate R] [--policy P] [--store DIR]\n\
     \u{20}                           [--metrics-addr HOST:PORT] [--flight FILE]\n\
     \u{20}      flowtree-repro gateway <scenario> --addr HOST:PORT [serve flags]\n\
     \u{20}      flowtree-repro submit <scenario> --addr HOST:PORT [--replay FILE]\n\
     \u{20}                            [--codec bin|json] [--window N] [--drain]\n\
     \u{20}      flowtree-repro store ls DIR\n\
     \u{20}      flowtree-repro store gc DIR [--max-age DAYS] [--max-bytes N] [--dry-run]\n\
     \u{20}      flowtree-repro metrics ADDR [--raw] [--check] [--retry N]\n\
     \u{20}      flowtree-repro bench [--serve | --gateway] [--quick] [--reps N]\n\
     \u{20}                           [--check BASELINE] [-o FILE]\n\
     Runs the reproduction experiments for 'Scheduling Out-Trees Online to\n\
     Optimize Maximum Flow' (SPAA 2024) and prints markdown reports."
}

fn main() -> ExitCode {
    // Subcommands first.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match raw.first().map(String::as_str) {
        Some("gen") => {
            return match gen::run(&raw[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("simulate") => {
            return match simulate::run(&raw[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("trace") => {
            return match trace::run_trace(&raw[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("stats") => {
            return match trace::run_stats(&raw[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("report") => {
            return match report::run(&raw[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("metrics") => {
            return match metrics::run(&raw[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("serve") => {
            return match serve::run(&raw[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("gateway") => {
            return match gateway::run_gateway(&raw[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("submit") => {
            return match gateway::run_submit(&raw[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("store") => {
            return match store::run(&raw[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("bench") => {
            return match bench::run(&raw[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("verify") => {
            return match verify_cmd(&raw[1..]) {
                Ok(msg) => {
                    println!("{msg}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => {}
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
            id => ids.push(id.to_string()),
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
    ids.dedup();

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
                eprintln!("unknown experiment '{id}' (expected e1..e12 or all)");
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
    let instance: flowtree_sim::Instance = serde_json::from_str(
        &std::fs::read_to_string(inst_path).map_err(|e| format!("read {inst_path}: {e}"))?,
    )
    .map_err(|e| format!("parse {inst_path}: {e}"))?;
    let schedule: flowtree_sim::Schedule = serde_json::from_str(
        &std::fs::read_to_string(sched_path).map_err(|e| format!("read {sched_path}: {e}"))?,
    )
    .map_err(|e| format!("parse {sched_path}: {e}"))?;
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
