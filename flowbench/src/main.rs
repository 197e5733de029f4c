//! `flowbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! flowbench --workload <engine-batch|serve-flood|gateway-open>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run generates its inputs from `--seed`, measures the named workload
//! for about `--seconds` seconds, checks every output outside the timed
//! region, and prints each metric as `name value unit` followed, on the
//! last line, by one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` alternates
//! untraced rounds with rounds that record spans around every layer call,
//! and reports the per-layer metrics, the tracing overhead among them. Every
//! run reports every metric of its kind: a traced run measures the layers
//! its workload does not reach with a short companion pass of each other
//! workload. A failed
//! check still prints the result line, with `"correct":false`, and exits 1;
//! bad arguments or a program error exit 2 without a result line.
//! `README.md` beside this file describes the workloads and metrics.

mod engine_batch;
mod gateway_open;
mod gen;
mod host;
mod serve_flood;
mod stats;
mod trace;

use std::io::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// One named, united measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as declared in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (jobs or frames, per workload).
    pub attempted: u64,
    /// Operations that failed, were refused, or were dropped.
    pub failed: u64,
    /// Output checks that did not hold, one line each.
    pub check_failures: Vec<String>,
    /// Reported metrics.
    pub metrics: Vec<Metric>,
    /// Context printed beside the metrics (sample counts, calibration).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Report `value` under `name`.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    /// Record an output check; a false `ok` fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// Add a context line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// A context line on the spread of per-round wall times.
pub fn rounds_note(round_s: &[f64]) -> String {
    let v = stats::sorted(round_s);
    format!(
        "{} untraced rounds: min {:.1} ms, median {:.1} ms, max {:.1} ms",
        v.len(),
        v[0] * 1e3,
        stats::median(&v) * 1e3,
        v[v.len() - 1] * 1e3
    )
}

/// Workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["engine-batch", "serve-flood", "gateway-open"];

/// End-to-end metrics: what every untraced run reports.
const END_TO_END: [&str; 7] = [
    "setup_s",
    "subjobs_per_s",
    "jobs_per_s",
    "max_flow_ratio",
    "peak_rss_mb",
    "ok_share",
    "cpu_us_per_job",
];

/// Per-layer metrics: what every traced run reports.
const PER_LAYER: [&str; 46] = [
    "workloads.gen_s",
    "core.fifo.ns_per_subjob",
    "core.lpf.ns_per_subjob",
    "core.algo-a.ns_per_subjob",
    "sim.probe.ns_per_subjob",
    "serve.launch_ms",
    "serve.offer_us.p50",
    "serve.offer_us.p90",
    "serve.offer_busy_share",
    "serve.jobs_per_offer",
    "serve.queue_depth.p90",
    "serve.drain_ms",
    "serve.shard_cpu_share",
    "serve.wm_skipped",
    "gateway.connect_ms",
    "gateway.encode_ns_per_frame",
    "ack_p50_us.lo",
    "ack_p90_us.lo",
    "ack_p50_us.hi",
    "ack_p90_us.hi",
    "bench.ack_samples.lo",
    "bench.ack_samples.hi",
    "bench.ack_tail_pct.lo",
    "bench.ack_tail_pct.hi",
    "bench.ack_tail_us.lo",
    "bench.ack_tail_us.hi",
    "gateway.rtt_us.p50.lo",
    "gateway.rtt_us.p90.lo",
    "gateway.rtt_us.p50.hi",
    "gateway.rtt_us.p90.hi",
    "gateway.frames_per_ack.lo",
    "gateway.frames_per_ack.hi",
    "gateway.window_stall_share.lo",
    "gateway.window_stall_share.hi",
    "gateway.worker_cpu_share.lo",
    "gateway.worker_cpu_share.hi",
    "gateway.busy_replies",
    "gateway.wire_errors",
    "bench.gen_late_us.p50.lo",
    "bench.gen_late_us.p99.lo",
    "bench.gen_late_us.p50.hi",
    "bench.gen_late_us.p99.hi",
    "bench.host_late_us.p90",
    "bench.host_late_us.p99",
    "bench.trace_overhead",
    "failed_share",
];

/// Share of `--seconds` each companion pass of a traced run measures.
const COMPANION_SHARE: f64 = 0.25;

fn usage() -> String {
    format!(
        "usage: flowbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<RunCfg, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    Ok(RunCfg {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Host calibration before the workload: lateness of a bare 200 µs
/// sleep loop, reported as notes always and as metrics when traced.
fn calibrate_host(out: &mut Outcome, trace: bool) {
    let mut late = host::sleep_lateness_ns(1000, Duration::from_micros(200));
    late.sort_unstable();
    let p90 = stats::percentile(&late, 90.0) as f64 / 1e3;
    let p99 = stats::percentile(&late, 99.0) as f64 / 1e3;
    out.note(format!(
        "host sleep-loop lateness over {} naps of 200 us: p90 {p90:.1} us, p99 {p99:.1} us",
        late.len()
    ));
    if trace {
        out.metric("bench.host_late_us.p90", p90, "us");
        out.metric("bench.host_late_us.p99", p99, "us");
    }
}

/// Write a traced pass's spans beside the build output, as JSONL: the
/// run's own workload to `<workload>-seed<n>.jsonl`, a companion pass
/// `pass` to `<workload>-seed<n>.<pass>.jsonl`.
fn write_spans(cfg: &RunCfg, pass: &str, tracer: &Tracer) -> Result<String, String> {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "flowbench/target".into());
    let dir = std::path::Path::new(&dir).join("flowbench-spans");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let suffix = if pass == cfg.workload {
        String::new()
    } else {
        format!(".{pass}")
    };
    let path = dir.join(format!("{}-seed{}{suffix}.jsonl", cfg.workload, cfg.seed));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    tracer.write_jsonl(&mut w).map_err(|e| format!("{}: {e}", path.display()))?;
    w.flush().map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

/// JSON number for `v` (finite: `run` refuses anything else). Rust's
/// shortest round-trip form keeps every digit.
fn json_number(v: f64) -> String {
    format!("{v:?}")
}

fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, json_number(m.value), m.unit)
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.check_failures.is_empty(),
        out.attempted,
        out.failed,
        metrics.join(",")
    )
}

fn run_workload(cfg: &RunCfg, tracer: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    match cfg.workload.as_str() {
        "engine-batch" => engine_batch::run(cfg, tracer, out),
        "serve-flood" => serve_flood::run(cfg, tracer, out),
        "gateway-open" => gateway_open::run(cfg, tracer, out),
        other => unreachable!("workload '{other}' passed argument validation"),
    }
}

/// Print each layer's span count and self time, and write the spans.
fn report_spans(
    cfg: &RunCfg,
    pass: &str,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut layers: std::collections::BTreeMap<&str, (u64, u64)> = Default::default();
    for (span, own) in tracer.spans().iter().zip(tracer.self_times()) {
        let e = layers.entry(span.name).or_default();
        e.0 += 1;
        e.1 += own;
    }
    for (name, (count, own)) in layers {
        out.note(format!("span {name}: {count} spans, self time {:.3} ms", own as f64 / 1e6));
    }
    let path = write_spans(cfg, pass, tracer)?;
    out.note(format!("{} spans written to {path}", tracer.spans().len()));
    Ok(())
}

/// Fold a companion pass into the run: its operations and checks count,
/// and it adds the per-layer metrics the run's own workload did not give.
fn absorb(out: &mut Outcome, pass: &str, sub: Outcome) {
    out.attempted += sub.attempted;
    out.failed += sub.failed;
    out.check_failures
        .extend(sub.check_failures.into_iter().map(|f| format!("{pass}: {f}")));
    out.notes.extend(sub.notes.into_iter().map(|n| format!("{pass}: {n}")));
    for m in sub.metrics {
        if !out.metrics.iter().any(|have| have.name == m.name) {
            out.metrics.push(m);
        }
    }
}

fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    calibrate_host(&mut out, cfg.trace);
    let mut tracer = Tracer::new(cfg.trace, Instant::now());
    run_workload(cfg, &mut tracer, &mut out)?;
    if cfg.trace {
        report_spans(cfg, &cfg.workload, &tracer, &mut out)?;
        // Companion passes, after the own workload so they cannot disturb it.
        for pass in WORKLOADS.iter().filter(|w| **w != cfg.workload) {
            let sub_cfg = RunCfg {
                workload: pass.to_string(),
                seconds: cfg.seconds * COMPANION_SHARE,
                ..cfg.clone()
            };
            let mut sub = Outcome::default();
            let mut sub_tracer = Tracer::new(true, Instant::now());
            run_workload(&sub_cfg, &mut sub_tracer, &mut sub)?;
            report_spans(cfg, pass, &sub_tracer, &mut sub)?;
            absorb(&mut out, pass, sub);
        }
    }
    let failed_share = out.failed as f64 / out.attempted.max(1) as f64;
    if cfg.trace {
        out.metric("failed_share", failed_share, "share");
    } else {
        out.metric("ok_share", 1.0 - failed_share, "share");
    }
    if out.metrics.iter().any(|m| !m.value.is_finite()) {
        return Err("a metric came out non-finite".into());
    }
    let declared: &[&str] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let mut names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
    names.sort_unstable();
    let mut want = declared.to_vec();
    want.sort_unstable();
    if names != want {
        return Err(format!("reported metrics {names:?} are not the declared {want:?}"));
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("flowbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let out = match run(&cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("flowbench: {} seed {}: {e}", cfg.workload, cfg.seed);
            return ExitCode::from(2);
        }
    };
    for line in &out.notes {
        println!("# {line}");
    }
    for failure in &out.check_failures {
        println!("# CHECK FAILED: {failure}");
    }
    for m in &out.metrics {
        println!("{:<34} {:>16} {}", m.name, json_number(m.value), m.unit);
    }
    println!("{}", result_line(&out));
    if out.check_failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let cfg =
            parse_args(&args("--workload serve-flood --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (cfg.workload.as_str(), cfg.seed, cfg.seconds, cfg.trace),
            ("serve-flood", 7, 10.0, true)
        );
        assert!(parse_args(&args("--workload nope --seed 7 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&args("--workload serve-flood --seed 7 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&args("--workload serve-flood --seed 7 --seconds 10")).is_err());
    }

    /// The `"name"` values of one section of `BENCHMARK.json`.
    fn manifest_names(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let start = text.find(&format!("\"{section}\"")).unwrap();
        let body = &text[start..];
        let body = &body[..body.find(']').unwrap()];
        body.split("\"name\":")
            .skip(1)
            .map(|rest| rest.trim_start().trim_start_matches('"').split('"').next().unwrap().into())
            .collect()
    }

    #[test]
    fn declared_metrics_match_the_manifest() {
        assert_eq!(manifest_names("end_to_end"), END_TO_END);
        assert_eq!(manifest_names("per_layer"), PER_LAYER);
        assert_eq!(manifest_names("workloads"), WORKLOADS);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut out = Outcome { attempted: 3, ..Default::default() };
        out.metric("setup_s", 0.25, "s");
        assert_eq!(
            result_line(&out),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.25,\"unit\":\"s\"}}}"
        );
        out.check(false, || "boom".into());
        assert!(result_line(&out).starts_with("{\"correct\":false"));
    }
}
