//! Shared option parsing for the run-one-instance subcommands (`trace`,
//! `report`, and the pool-owning `serve`/`gateway`/`submit`) — one parser,
//! one instance builder, one usage string, instead of a copy per
//! subcommand. The numeric flag helper [`parse_num`] is also used by `gen`
//! and `bench`.

use flowtree_core::{SchedulerSpec, SCHEDULER_NAMES};
use flowtree_sim::Instance;
use flowtree_workloads::mix::Scenario;

/// Options shared by every instance-running subcommand.
#[derive(Debug)]
pub struct ScenarioOpts {
    /// Instance family or scenario preset name (positional).
    pub scenario: String,
    /// Registry scheduler name.
    pub scheduler: String,
    /// Machine size.
    pub m: usize,
    /// Jobs instantiated from the preset.
    pub jobs: usize,
    /// Workload RNG seed.
    pub seed: u64,
    /// `algo-a` half-batch parameter.
    pub half: u64,
    /// Output path (`-o`), when the subcommand allows one.
    pub out: Option<String>,
}

impl Default for ScenarioOpts {
    fn default() -> Self {
        ScenarioOpts {
            scenario: String::new(),
            scheduler: "fifo".to_string(),
            m: 8,
            jobs: 16,
            seed: 42,
            half: 8,
            out: None,
        }
    }
}

/// Parse the value after a numeric flag (`--reps 5`), with a helpful error
/// naming the flag.
pub fn parse_num<T: std::str::FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> Result<T, String> {
    it.next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{flag} needs a number"))
}

/// Names of every scenario preset, for usage strings and errors.
pub fn scenario_names() -> Vec<&'static str> {
    Scenario::presets(1).iter().map(|s| s.name).collect()
}

/// The scenario preset called `name`, sized to `jobs` jobs.
pub fn preset(name: &str, jobs: usize) -> Option<Scenario> {
    Scenario::presets(jobs).into_iter().find(|s| s.name == name)
}

/// Subcommand-specific flag hook: tried on each flag the common parser does
/// not recognize; consumes any value from the iterator and returns whether
/// it handled the flag.
pub type ExtraFlags<'a> =
    dyn FnMut(&str, &mut std::slice::Iter<'a, String>) -> Result<bool, String> + 'a;

impl ScenarioOpts {
    /// Parse the common flag set. `extra_usage` documents subcommand-specific
    /// flags; `extra` gets first refusal on each unrecognized flag and
    /// returns whether it consumed it.
    pub fn parse_with<'a>(
        cmd: &str,
        args: &'a [String],
        allow_out: bool,
        extra_usage: &str,
        extra: &mut ExtraFlags<'a>,
    ) -> Result<ScenarioOpts, String> {
        let mut o = ScenarioOpts::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "-m" => o.m = parse_num(&mut it, "-m")?,
                "--jobs" => o.jobs = parse_num(&mut it, "--jobs")?,
                "--seed" => o.seed = parse_num(&mut it, "--seed")?,
                "--half" => o.half = parse_num(&mut it, "--half")?,
                "--scheduler" => o.scheduler = it.next().ok_or("--scheduler needs a name")?.clone(),
                "-o" if allow_out => o.out = Some(it.next().ok_or("-o needs a path")?.clone()),
                v if extra(v, &mut it)? => {}
                v if !v.starts_with('-') && o.scenario.is_empty() => o.scenario = v.to_string(),
                other => return Err(format!("unknown {cmd} option '{other}'")),
            }
        }
        if o.scenario.is_empty() {
            let out = if allow_out { " [-o FILE]" } else { "" };
            return Err(format!(
                "usage: flowtree-repro {cmd} <scenario> [--scheduler S] [-m M] [--jobs N] \
                 [--seed S] [--half H]{extra_usage}{out}\n\
                 scenarios: {} (trace and report: any gen family)\n\
                 schedulers: {}",
                scenario_names().join(", "),
                SCHEDULER_NAMES.join(", ")
            ));
        }
        o.check_sizes()?;
        Ok(o)
    }

    /// Reject sizes no run can use: a machine needs a processor, an
    /// instance at least one job, and a registered scheduler that slices
    /// the machine a processor count it can slice. An unknown scheduler
    /// name is left to the subcommand, which reports it.
    pub fn check_sizes(&self) -> Result<(), String> {
        if self.m == 0 {
            return Err("-m must be at least 1".into());
        }
        if self.jobs == 0 {
            return Err("--jobs must be at least 1".into());
        }
        match SchedulerSpec::from_name_with_half(&self.scheduler, self.half) {
            Ok(spec) => spec.check_machine(self.m),
            Err(_) => Ok(()),
        }
    }

    /// Instantiate the named family or preset with these options, through
    /// [`gen`](crate::gen::generate)'s family table.
    pub fn build_instance(&self) -> Result<Instance, String> {
        crate::gen::generate(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse the common flag set with no subcommand-specific flags.
    fn parse(cmd: &str, args: &[String], allow_out: bool) -> Result<ScenarioOpts, String> {
        ScenarioOpts::parse_with(cmd, args, allow_out, "", &mut |_, _| Ok(false))
    }

    #[test]
    fn parses_common_flags_and_positional_scenario() {
        let args: Vec<String> =
            ["service", "--scheduler", "lpf", "-m", "16", "--jobs", "4", "--seed", "7"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let o = parse("serve", &args, false).unwrap();
        assert_eq!(o.scenario, "service");
        assert_eq!(o.scheduler, "lpf");
        assert_eq!((o.m, o.jobs, o.seed), (16, 4, 7));
        assert!(o.build_instance().is_ok());
    }

    #[test]
    fn extra_hook_consumes_subcommand_flags() {
        let args: Vec<String> =
            ["--format", "json", "service"].iter().map(|s| s.to_string()).collect();
        let mut format = String::new();
        let o =
            ScenarioOpts::parse_with("report", &args, true, " [--format F]", &mut |flag, it| {
                if flag == "--format" {
                    format = it.next().ok_or("--format needs a value")?.clone();
                    return Ok(true);
                }
                Ok(false)
            })
            .unwrap();
        assert_eq!(o.scenario, "service");
        assert_eq!(format, "json");
    }

    #[test]
    fn missing_scenario_prints_usage_with_presets() {
        let err = parse("trace", &[], true).unwrap_err();
        assert!(err.contains("usage:"));
        for name in scenario_names() {
            assert!(err.contains(name));
        }
    }

    #[test]
    fn out_flag_gated_per_subcommand() {
        let args: Vec<String> = ["service", "-o", "x"].iter().map(|s| s.to_string()).collect();
        assert!(parse("serve", &args, false).is_err());
        assert!(parse("trace", &args, true).is_ok());
    }

    #[test]
    fn zero_machines_is_an_error() {
        let args: Vec<String> = ["service", "-m", "0"].iter().map(|s| s.to_string()).collect();
        assert_eq!(parse("report", &args, true).unwrap_err(), "-m must be at least 1");
    }

    #[test]
    fn algo_a_needs_alpha_to_divide_m() {
        let args = |m: &str| -> Vec<String> {
            ["service", "--scheduler", "algo-a", "-m", m]
                .iter()
                .map(|s| s.to_string())
                .collect()
        };
        let err = parse("report", &args("7"), true).unwrap_err();
        assert!(err.contains("multiple of 4, got 7"), "{err}");
        assert!(parse("report", &args("8"), true).is_ok());
    }

    #[test]
    fn zero_jobs_is_an_error() {
        let args: Vec<String> = ["service", "--jobs", "0"].iter().map(|s| s.to_string()).collect();
        assert_eq!(parse("trace", &args, true).unwrap_err(), "--jobs must be at least 1");
    }

    #[test]
    fn unknown_scenario_is_an_error() {
        let o = ScenarioOpts { scenario: "nope".into(), ..ScenarioOpts::default() };
        assert!(o.build_instance().is_err());
    }
}
