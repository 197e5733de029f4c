//! `flowtree-repro trace` — run a scheduler on one instance and stream its
//! JSONL event trace. Option parsing and instance construction are shared
//! with `report` via [`crate::scenario`].

use crate::scenario::ScenarioOpts;
use flowtree_core::SchedulerSpec;
use flowtree_sim::{Engine, Instance, JsonlTrace, RunReport};
use std::io::Write;

/// Run `trace <scenario>`: emit the JSONL event stream of one run to stdout
/// (or `-o FILE`).
pub fn run_trace(args: &[String]) -> Result<(), String> {
    let o = ScenarioOpts::parse_with("trace", args, true, "", &mut |_, _| Ok(false))?;
    let instance = o.build_instance()?;
    let (jsonl, _report) = trace_run(&o, &instance)?;
    match &o.out {
        Some(path) => {
            std::fs::write(path, &jsonl).map_err(|e| format!("write {path}: {e}"))?;
            eprintln!("wrote {} trace lines to {path}", jsonl.lines().count());
        }
        None => {
            std::io::stdout()
                .write_all(jsonl.as_bytes())
                .map_err(|e| format!("write stdout: {e}"))?;
        }
    }
    Ok(())
}

/// Run one traced, verified simulation, returning the JSONL text and the
/// report.
fn trace_run(o: &ScenarioOpts, instance: &Instance) -> Result<(String, RunReport), String> {
    let mut sched = SchedulerSpec::from_name_with_half(&o.scheduler, o.half)?.build();
    let mut trace = JsonlTrace::new(Vec::new());
    let report = Engine::new(o.m)
        .with_max_horizon(100_000_000)
        .with_probe(&mut trace)
        .run(instance, sched.as_mut())
        .map_err(|e| format!("simulation failed: {e}"))?;
    report.verify(instance).map_err(|e| format!("infeasible schedule: {e}"))?;
    let buf = trace.finish().map_err(|e| format!("trace error: {e}"))?;
    let jsonl = String::from_utf8(buf).expect("trace emits UTF-8");
    Ok((jsonl, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::scenario_names;
    use flowtree_sim::{JobId, NodeId, Schedule, Time};
    use serde_json::Value;

    /// Rebuild the schedule and per-job flows from the JSONL text alone:
    /// `step` picks extend the schedule, and `release` / `complete` pairs
    /// give the flows.
    fn rebuild(jsonl: &str) -> (Schedule, Vec<Time>) {
        let uint = |v: &Value, key: &str| v.get(key).and_then(Value::as_u64).unwrap();
        let mut schedule = None;
        let (mut releases, mut flows) = (Vec::new(), Vec::new());
        for line in jsonl.lines() {
            let v: Value = serde_json::from_str(line).unwrap();
            match v.get("ev").and_then(Value::as_str).unwrap() {
                "start" => schedule = Some(Schedule::new(uint(&v, "m") as usize)),
                "release" => {
                    assert_eq!(uint(&v, "job") as usize, releases.len());
                    releases.push(uint(&v, "t"));
                    flows.push(None);
                }
                "complete" => {
                    let job = uint(&v, "job") as usize;
                    flows[job] = Some(uint(&v, "t") - releases[job]);
                }
                "step" => {
                    let picks: Vec<(JobId, NodeId)> = (v.get("picks").and_then(Value::as_array))
                        .unwrap()
                        .iter()
                        .map(|p| {
                            let id = |i: usize| p.as_array().unwrap()[i].as_u64().unwrap() as u32;
                            (JobId(id(0)), NodeId(id(1)))
                        })
                        .collect();
                    schedule.as_mut().unwrap().extend_step(&picks);
                }
                _ => {}
            }
        }
        (schedule.unwrap(), flows.into_iter().map(Option::unwrap).collect())
    }

    fn opts(scenario: &str) -> ScenarioOpts {
        ScenarioOpts {
            scenario: scenario.to_string(),
            m: 4,
            jobs: 8,
            ..ScenarioOpts::default()
        }
    }

    /// Acceptance check: on every scenario preset, the emitted JSONL rebuilds
    /// exactly the run's schedule and per-job flows.
    #[test]
    fn traced_flows_match_flow_stats_on_all_presets() {
        for name in scenario_names() {
            let o = opts(name);
            let instance = o.build_instance().unwrap();
            let (jsonl, report) = trace_run(&o, &instance).unwrap();
            let (schedule, flows) = rebuild(&jsonl);
            assert_eq!(flows, report.stats.flows, "scenario '{name}'");
            assert_eq!(schedule, report.schedule, "scenario '{name}'");
        }
    }
}
