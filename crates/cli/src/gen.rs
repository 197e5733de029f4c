//! `flowtree-repro gen` — generate an instance and write it as JSON. Its
//! family table, [`generate`], is the one place an instance name resolves:
//! `report` and `trace` build their instances through it too.

use crate::scenario::{parse_num, preset, scenario_names, ScenarioOpts};
use flowtree_sim::Instance;
use flowtree_sim::JobSpec;
use flowtree_workloads::{adversary, arrivals, batched, rng, trees};

/// The generated families besides the scenario presets.
const GENERATED: [&str; 5] =
    ["adversary", "packed-chains", "packed-caterpillars", "stream", "quicksort-batch"];

/// Every family name: the generated ones, then the scenario presets.
pub fn families() -> Vec<&'static str> {
    GENERATED.iter().copied().chain(scenario_names()).collect()
}

/// Build the instance `o.scenario` names from `o.m`, `o.jobs` and `o.seed`.
pub fn generate(o: &ScenarioOpts) -> Result<Instance, String> {
    let mut r = rng(o.seed);
    let inst = match o.scenario.as_str() {
        "adversary" => {
            let out = adversary::duel(o.m, o.m, o.jobs);
            adversary::materialize(&out)
        }
        "packed-chains" => {
            let t = (o.m as u64).max(2);
            batched::packed_chains(o.m, t, (o.m / 2).max(1), o.jobs.max(1), &mut r).instance
        }
        "packed-caterpillars" => {
            let t = (o.m as u64).max(2);
            batched::packed_caterpillars(o.m, t, (o.m / 2).max(1), o.jobs.max(1), &mut r).instance
        }
        "stream" => arrivals::load_stream(
            o.m,
            0.9,
            (4 * o.jobs) as u64,
            24.0,
            |r| trees::random_recursive_tree(24, r),
            &mut r,
        ),
        "quicksort-batch" => Instance::new(
            (0..o.jobs)
                .map(|i| JobSpec {
                    graph: trees::random_quicksort_tree(128 + 16 * (i % 9), 2, &mut r),
                    release: 4 * i as u64,
                })
                .collect(),
        ),
        name => preset(name, o.jobs)
            .ok_or_else(|| format!("unknown family '{name}'; known: {}", families().join(", ")))?
            .instantiate(&mut r),
    };
    Ok(inst)
}

/// Run the `gen` subcommand.
pub fn run(args: &[String]) -> Result<(), String> {
    let mut o = ScenarioOpts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-m" => o.m = parse_num(&mut it, "-m")?,
            "--jobs" => o.jobs = parse_num(&mut it, "--jobs")?,
            "--seed" => o.seed = parse_num(&mut it, "--seed")?,
            "-o" | "--out" => o.out = Some(it.next().ok_or("-o needs a path")?.clone()),
            fam if !fam.starts_with('-') && o.scenario.is_empty() => o.scenario = fam.to_string(),
            other => return Err(format!("unknown gen option '{other}'")),
        }
    }
    if o.scenario.is_empty() {
        return Err(format!(
            "usage: flowtree-repro gen <family> [-m M] [--jobs N] [--seed S] [-o FILE]\n\
             families: {}",
            families().join(", ")
        ));
    }
    let inst = generate(&o)?;
    let json = serde_json::to_string_pretty(&inst).map_err(|e| e.to_string())?;
    match &o.out {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("write {path}: {e}"))?;
            eprintln!(
                "wrote {} ({} jobs, work {}, span {})",
                path,
                inst.num_jobs(),
                inst.total_work(),
                inst.max_span()
            );
        }
        None => println!("{json}"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_families_generate() {
        for fam in families() {
            let opts = ScenarioOpts {
                scenario: fam.to_string(),
                m: 8,
                jobs: 4,
                seed: 1,
                ..Default::default()
            };
            let inst = generate(&opts).unwrap_or_else(|e| panic!("{fam}: {e}"));
            assert!(inst.num_jobs() >= 1, "{fam}");
            // Round-trips through JSON.
            let json = serde_json::to_string(&inst).unwrap();
            let back: Instance = serde_json::from_str(&json).unwrap();
            assert_eq!(back, inst, "{fam}");
        }
    }

    #[test]
    fn unknown_family_is_an_error() {
        let opts = ScenarioOpts { scenario: "nope".into(), ..Default::default() };
        assert!(generate(&opts).is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let mk = |seed| {
            generate(&ScenarioOpts {
                scenario: "service".into(),
                seed,
                jobs: 6,
                ..Default::default()
            })
            .unwrap()
        };
        assert_eq!(mk(3), mk(3));
        assert_ne!(mk(3), mk(4));
    }
}
