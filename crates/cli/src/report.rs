//! `flowtree-repro report` — run one scheduler on one instance (any `gen`
//! family, or an instance file) with the full monitor/histogram probe stack
//! attached and render the resulting [`RunSummary`] as JSON or markdown
//! (`--store DIR` also appends it to the results store, `--dump FILE`
//! writes the verified schedule for `verify`, `--gantt` appends a Gantt
//! chart to the markdown); or render cross-run trend tables over the store
//! (`--trend`), or a flight-recorder dump (`--flight`). The two render modes
//! take no other argument.
//!
//! ```text
//! flowtree-repro report sort-farm --scheduler lpf --jobs 1 --format json
//! flowtree-repro report service --scheduler fifo -m 16 -o report.md
//! flowtree-repro report adversary --instance inst.json --store results/store
//! flowtree-repro report adversary --instance inst.json --dump sched.json --gantt
//! flowtree-repro report --trend results/store/
//! flowtree-repro report --flight results/store/flight-run.jsonl
//! ```

use crate::scenario::ScenarioOpts;
use flowtree_analysis::RunSummary;
use flowtree_core::SchedulerSpec;
use flowtree_serve::{
    git_describe, is_flight_dump, load_flight_jsonl, load_records, run_id, FlightEvent,
    ResultsStore, StoreRecord,
};
use flowtree_sim::{gantt, Instance, RunReport};
use std::io::Write;

/// Run `report <scenario> [--format json|md]`, `report --trend STORE`, or
/// `report --flight FILE`.
pub fn run(args: &[String]) -> Result<(), String> {
    // Trend mode has no scenario/scheduler: it reads the store and renders.
    if let Some(path) = render_mode_path(args, "--trend", "a store file or directory")? {
        return trend(path);
    }
    // Flight mode renders a recorder dump (or every dump in a directory).
    if let Some(path) = render_mode_path(args, "--flight", "a flight.jsonl file or directory")? {
        return flight(path);
    }

    let mut format = "md".to_string();
    let mut instance_path: Option<String> = None;
    let mut store_dir: Option<String> = None;
    let mut dump: Option<String> = None;
    let mut with_gantt = false;
    let o = ScenarioOpts::parse_with(
        "report",
        args,
        true,
        " [--format json|md] [--instance FILE] [--store DIR] [--dump FILE] [--gantt] \
         | --trend STORE | --flight FILE",
        &mut |flag, it| {
            match flag {
                "--format" => format = it.next().ok_or("--format needs json or md")?.clone(),
                "--instance" => {
                    instance_path = Some(it.next().ok_or("--instance needs a path")?.clone())
                }
                "--store" => {
                    store_dir = Some(it.next().ok_or("--store needs a directory")?.clone())
                }
                "--dump" => dump = Some(it.next().ok_or("--dump needs a path")?.clone()),
                "--gantt" => with_gantt = true,
                _ => return Ok(false),
            }
            Ok(true)
        },
    )?;
    if with_gantt && format == "json" {
        return Err("--gantt renders with --format md only".into());
    }
    let (summary, report, instance) = build_summary(&o, instance_path.as_deref())?;
    if let Some(dir) = &store_dir {
        let store = ResultsStore::open(dir).map_err(|e| format!("open store {dir}: {e}"))?;
        let record = StoreRecord {
            run_id: run_id(&o.scenario, &o.scheduler, o.m, o.seed),
            git: git_describe(),
            shard: 0,
            shards: 1,
            summary: summary.clone(),
            swaps: Vec::new(),
        };
        let path = store.append(&record).map_err(|e| format!("append to {dir}: {e}"))?;
        eprintln!("appended store record to {}", path.display());
    }
    if let Some(path) = &dump {
        let json = serde_json::to_string(&report.schedule).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote schedule to {path}");
    }
    let mut text = render_summary(&summary, &format)?;
    if with_gantt {
        let opts = gantt::GanttOptions { max_steps: 120, ..Default::default() };
        text.push_str(&format!("\n{}\n", gantt::render(&instance, &report.schedule, &opts)));
    }
    match &o.out {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("write {path}: {e}"))?;
            eprintln!("wrote report to {path}");
        }
        None => {
            std::io::stdout()
                .write_all(text.as_bytes())
                .map_err(|e| format!("stdout: {e}"))?;
        }
    }
    Ok(())
}

/// The path after `flag` when `args` is exactly `flag PATH`; `None` when
/// `flag` is absent. A render mode takes no other argument, so an extra
/// one is an error rather than silently dropped.
fn render_mode_path<'a>(
    args: &'a [String],
    flag: &str,
    what: &str,
) -> Result<Option<&'a str>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let path = match args.get(i + 1) {
        Some(p) if !p.starts_with("--") => p,
        _ => return Err(format!("{flag} needs {what}")),
    };
    match args.iter().enumerate().find(|&(j, _)| j != i && j != i + 1) {
        Some((_, extra)) => Err(format!("unexpected argument '{extra}'")),
        None => Ok(Some(path)),
    }
}

/// Render the trend tables for a store file or directory.
fn trend(path: &str) -> Result<(), String> {
    let records =
        load_records(std::path::Path::new(path)).map_err(|e| format!("load {path}: {e}"))?;
    if records.is_empty() {
        return Err(format!("no store records under {path}"));
    }
    print!("{}", flowtree_serve::render_trend(&records));
    Ok(())
}

/// Load one flight JSONL dump (or every `flight-*.jsonl` in a directory)
/// and render the merged control-plane event trail.
fn flight(path: &str) -> Result<(), String> {
    let p = std::path::Path::new(path);
    let mut events = if p.is_dir() {
        let mut all = Vec::new();
        let entries = std::fs::read_dir(p).map_err(|e| format!("read {path}: {e}"))?;
        for entry in entries {
            let file = entry.map_err(|e| format!("read {path}: {e}"))?.path();
            if is_flight_dump(&file) {
                all.extend(
                    load_flight_jsonl(&file)
                        .map_err(|e| format!("load {}: {e}", file.display()))?,
                );
            }
        }
        all
    } else {
        load_flight_jsonl(p).map_err(|e| format!("load {path}: {e}"))?
    };
    if events.is_empty() {
        return Err(format!("no flight events under {path}"));
    }
    events.sort_by_key(|ev| ev.us);
    print!("{}", render_flight(&events));
    Ok(())
}

/// Render a flight-event trail as a markdown table plus a per-kind tally.
fn render_flight(events: &[FlightEvent]) -> String {
    let mut table = flowtree_analysis::Table::new(
        format!("flight recorder — {} control-plane event(s)", events.len()),
        &["t_wall (µs)", "shard", "kind", "t_sim", "detail"],
    );
    for ev in events {
        table.row(vec![
            ev.us.to_string(),
            ev.shard.to_string(),
            ev.kind.to_string(),
            ev.t.to_string(),
            if ev.detail.is_empty() {
                "-".to_string()
            } else {
                ev.detail.clone()
            },
        ]);
    }
    let mut out = table.to_markdown();
    let mut tally: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for ev in events {
        *tally.entry(ev.kind.name()).or_default() += 1;
    }
    let line = tally.iter().map(|(k, n)| format!("{k}={n}")).collect::<Vec<_>>().join(" ");
    out.push_str(&format!("by kind: {line}\n"));
    out
}

/// Run `o` monitored, on a serialized instance file if given (the scenario
/// name then only labels the run) or the named family: the summary, the
/// verified run report and the instance it ran on.
fn build_summary(
    o: &ScenarioOpts,
    instance_path: Option<&str>,
) -> Result<(RunSummary, RunReport, Instance), String> {
    let instance = match instance_path {
        Some(path) => crate::read_json(path)?,
        None => o.build_instance()?,
    };
    let spec = SchedulerSpec::from_name_with_half(&o.scheduler, o.half)?;
    let (summary, report) = flowtree_analysis::summarize(&o.scenario, &instance, o.m, spec)?;
    Ok((summary, report, instance))
}

/// Render a built summary in `format`.
fn render_summary(summary: &RunSummary, format: &str) -> Result<String, String> {
    match format {
        "json" => {
            let mut json =
                serde_json::to_string_pretty(&summary).map_err(|e| format!("serialize: {e}"))?;
            json.push('\n');
            Ok(json)
        }
        "md" | "markdown" => Ok(summary.to_markdown()),
        other => Err(format!("unknown --format '{other}' (expected json or md)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn render(o: &ScenarioOpts, format: &str) -> Result<String, String> {
        render_summary(&build_summary(o, None)?.0, format)
    }

    /// The ISSUE's acceptance criterion: LPF on a single-job scenario
    /// reports competitive ratio exactly 1.0 in the JSON output.
    #[test]
    fn lpf_single_job_reports_ratio_exactly_one() {
        let o = ScenarioOpts {
            scenario: "sort-farm".into(),
            scheduler: "lpf".into(),
            jobs: 1,
            ..ScenarioOpts::default()
        };
        let json = render(&o, "json").unwrap();
        let v: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v.get("ratio").and_then(Value::as_f64), Some(1.0));
        assert_eq!(v.get("jobs").and_then(Value::as_u64), Some(1));
        assert_eq!(
            v.get("max_flow").and_then(Value::as_u64),
            v.get("lower_bound").and_then(Value::as_u64)
        );
        assert_eq!(v.get("invariants_clean").and_then(|b| b.as_bool()), Some(true));
    }

    #[test]
    fn markdown_format_renders_for_every_registry_scheduler() {
        for &name in flowtree_core::SCHEDULER_NAMES {
            let o = ScenarioOpts {
                scenario: "service".into(),
                scheduler: name.into(),
                jobs: 6,
                m: 4,
                ..ScenarioOpts::default()
            };
            let md = render(&o, "md").unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(md.contains("competitive ratio"), "{name}");
        }
    }

    #[test]
    fn bad_format_is_an_error() {
        let o = ScenarioOpts {
            scenario: "service".into(),
            jobs: 2,
            ..ScenarioOpts::default()
        };
        assert!(render(&o, "xml").is_err());
    }

    #[test]
    fn instance_file_overrides_the_preset() {
        let inst = flowtree_sim::Instance::single(flowtree_dag::builder::chain(4));
        let path =
            std::env::temp_dir().join(format!("flowtree-report-{}.json", std::process::id()));
        std::fs::write(&path, serde_json::to_string(&inst).unwrap()).unwrap();
        let o = ScenarioOpts {
            scenario: "adversary".into(), // label only; not a preset name
            scheduler: "lpf".into(),
            m: 2,
            ..ScenarioOpts::default()
        };
        let (s, _, _) = build_summary(&o, path.to_str()).unwrap();
        assert_eq!(s.jobs, 1);
        assert_eq!(s.scenario, "adversary");
        assert_eq!(s.max_flow, 4); // chain(4) on any m
        std::fs::remove_file(&path).unwrap();
    }

    /// Write `inst` to a per-test temp file and return its path.
    fn instance_file(tag: &str, inst: &Instance) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("flowtree-report-{tag}-{}.json", std::process::id()));
        std::fs::write(&path, serde_json::to_string(inst).unwrap()).unwrap();
        path
    }

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn every_registry_scheduler_runs_on_an_instance_file() {
        let path = instance_file("all", &Instance::single(flowtree_dag::builder::star(6)));
        for &name in flowtree_core::SCHEDULER_NAMES {
            let o = ScenarioOpts { scheduler: name.into(), half: 4, ..ScenarioOpts::default() };
            let (s, _, _) =
                build_summary(&o, path.to_str()).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(s.jobs, 1, "{name}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unknown_scheduler_is_an_error() {
        let err = run(&args(&["service", "--scheduler", "sjf-magic"])).unwrap_err();
        assert!(err.contains("sjf-magic"), "{err}");
    }

    #[test]
    fn dumped_schedule_passes_the_independent_checker() {
        let inst = ScenarioOpts { scenario: "adversary".into(), jobs: 6, ..Default::default() }
            .build_instance()
            .unwrap();
        let inst_path = instance_file("dump-inst", &inst);
        let tmp = |name: &str| {
            let p = std::env::temp_dir().join(format!("flowtree-{name}-{}", std::process::id()));
            p.to_str().unwrap().to_string()
        };
        let (sched_path, out_path) = (tmp("dump-sched.json"), tmp("dump-summary.json"));
        let inst_arg = inst_path.to_str().unwrap().to_string();
        run(&args(&[
            "adversary",
            "--instance",
            &inst_arg,
            "--scheduler",
            "guess-double",
            "--dump",
            &sched_path,
            "--format",
            "json",
            "-o",
            &out_path,
        ]))
        .unwrap();
        let summary: RunSummary =
            serde_json::from_str(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
        let verdict = crate::verify_cmd(&[inst_arg, sched_path.clone()]).unwrap();
        assert!(
            verdict.starts_with(&format!("feasible: 6 jobs, max flow {},", summary.max_flow)),
            "{verdict}"
        );
        for path in [inst_path.to_str().unwrap(), &sched_path, &out_path] {
            std::fs::remove_file(path).unwrap();
        }
    }

    #[test]
    fn gantt_is_rejected_with_json_output() {
        let err = run(&args(&["service", "--gantt", "--format", "json"])).unwrap_err();
        assert_eq!(err, "--gantt renders with --format md only");
    }

    #[test]
    fn trend_mode_renders_store_records() {
        let dir = std::env::temp_dir().join(format!("flowtree-trend-cli-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultsStore::open(&dir).unwrap();
        let o = ScenarioOpts {
            scenario: "sort-farm".into(),
            jobs: 2,
            ..ScenarioOpts::default()
        };
        let (summary, _, _) = build_summary(&o, None).unwrap();
        store
            .append(&StoreRecord {
                run_id: "t".into(),
                git: "g".into(),
                shard: 0,
                shards: 1,
                summary,
                swaps: Vec::new(),
            })
            .unwrap();
        assert!(trend(dir.to_str().unwrap()).is_ok());
        assert!(trend("/nonexistent/store/path").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn render_modes_reject_extra_arguments() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let err = run(&args(&["--trend", "results/store", "--plot"])).unwrap_err();
        assert_eq!(err, "unexpected argument '--plot'");
        let err =
            run(&args(&["--flight", "flight.jsonl", "--trend", "results/store"])).unwrap_err();
        assert_eq!(err, "unexpected argument '--flight'");
    }

    #[test]
    fn flight_mode_renders_dumps_from_files_and_directories() {
        use flowtree_serve::FlightKind;
        let dir = std::env::temp_dir().join(format!("flowtree-flight-rep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let events = vec![
            FlightEvent {
                us: 10,
                shard: 0,
                kind: FlightKind::Swap,
                t: 4,
                detail: "fifo→lpf".into(),
            },
            FlightEvent {
                us: 3,
                shard: 1,
                kind: FlightKind::Drain,
                t: 9,
                detail: String::new(),
            },
        ];
        let path = dir.join("flight-run.jsonl");
        flowtree_serve::write_flight_jsonl(&path, &events).unwrap();

        let back = flowtree_serve::load_flight_jsonl(&path).unwrap();
        assert_eq!(back, events, "flight dump round-trips");
        let mut sorted = back;
        sorted.sort_by_key(|ev| ev.us);
        let md = render_flight(&sorted);
        assert!(md.contains("fifo→lpf"), "{md}");
        assert!(md.contains("swap"), "{md}");
        assert!(md.contains("by kind: drain=1 swap=1"), "{md}");

        assert!(flight(path.to_str().unwrap()).is_ok());
        assert!(flight(dir.to_str().unwrap()).is_ok());
        assert!(flight("/nonexistent/flight.jsonl").is_err());
        let empty = std::env::temp_dir().join(format!("flowtree-flight-mt-{}", std::process::id()));
        std::fs::create_dir_all(&empty).unwrap();
        assert!(flight(empty.to_str().unwrap()).unwrap_err().contains("no flight events"));
        std::fs::remove_dir_all(&empty).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
