//! `flowtree-repro trace` — run a scheduler on one instance and stream its
//! JSONL event trace. Option parsing and instance construction are shared
//! with `report` via [`crate::scenario`].

use crate::scenario::ScenarioOpts;
use flowtree_core::SchedulerSpec;
use flowtree_sim::{Engine, Instance, JsonlTrace, RunReport};
use std::io::Write;

/// Run `trace <scenario>`: emit the JSONL event stream of one run to stdout
/// (or `-o FILE`). `--compact-idle` folds fast-forwarded idle gaps into
/// single `idle` records.
pub fn run_trace(args: &[String]) -> Result<(), String> {
    let mut compact = false;
    let o = ScenarioOpts::parse_with("trace", args, true, " [--compact-idle]", &mut |flag, _| {
        Ok(flag == "--compact-idle" && {
            compact = true;
            true
        })
    })?;
    let instance = o.build_instance()?;
    let (jsonl, _report) = trace_run(&o, &instance, compact)?;
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
fn trace_run(
    o: &ScenarioOpts,
    instance: &Instance,
    compact: bool,
) -> Result<(String, RunReport), String> {
    let mut sched = SchedulerSpec::from_name_with_half(&o.scheduler, o.half)?.build();
    let mut trace = JsonlTrace::new(Vec::new()).compact_idle(compact);
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
    use flowtree_sim::Replay;

    fn opts(scenario: &str) -> ScenarioOpts {
        ScenarioOpts {
            scenario: scenario.to_string(),
            m: 4,
            jobs: 8,
            ..ScenarioOpts::default()
        }
    }

    /// Acceptance check: on every scenario preset, the emitted JSONL replays
    /// to exactly the schedule's per-job flows — in both idle-gap modes.
    #[test]
    fn traced_flows_match_flow_stats_on_all_presets() {
        for name in scenario_names() {
            for compact in [false, true] {
                let o = opts(name);
                let instance = o.build_instance().unwrap();
                let (jsonl, report) = trace_run(&o, &instance, compact).unwrap();
                let replay = Replay::from_str(&jsonl).unwrap_or_else(|e| panic!("{name}: {e}"));
                let flows: Vec<_> = replay.flows().into_iter().map(Option::unwrap).collect();
                assert_eq!(flows, report.stats.flows, "scenario '{name}'");
                assert_eq!(replay.schedule, report.schedule, "scenario '{name}'");
            }
        }
    }

    #[test]
    fn trace_accepts_compact_idle_flag() {
        let args: Vec<String> =
            ["service", "--compact-idle"].iter().map(|s| s.to_string()).collect();
        let mut compact = false;
        ScenarioOpts::parse_with("trace", &args, true, "", &mut |flag, _| {
            Ok(flag == "--compact-idle" && {
                compact = true;
                true
            })
        })
        .unwrap();
        assert!(compact);
    }
}
