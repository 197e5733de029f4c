//! Cross-run trend tables over [`StoreRecord`]s.
//!
//! Groups store records by `(scenario, m)` and renders one table per group
//! with the headline serving metrics per record: the certified competitive
//! ratio, throughput (dispatched subjobs per simulated step), and the p99
//! of the per-job flow distribution — the numbers a maintainer watches
//! across commits to spot regressions in scheduler quality.

use std::collections::BTreeMap;

use flowtree_analysis::table::f3;
use flowtree_analysis::Table;

use crate::store::StoreRecord;

/// One table per `(scenario, m)` group, rows sorted by scheduler, run id,
/// then shard.
pub fn trend_tables(records: &[StoreRecord]) -> Vec<Table> {
    let mut groups: BTreeMap<(String, usize), Vec<&StoreRecord>> = BTreeMap::new();
    for r in records {
        groups.entry((r.summary.scenario.clone(), r.summary.m)).or_default().push(r);
    }
    groups
        .into_iter()
        .map(|((scenario, m), mut rs)| {
            rs.sort_by(|a, b| {
                (&a.summary.scheduler, &a.run_id, a.shard).cmp(&(
                    &b.summary.scheduler,
                    &b.run_id,
                    b.shard,
                ))
            });
            let mut table = Table::new(
                format!("trend — scenario '{scenario}' (m = {m}, {} record(s))", rs.len()),
                &[
                    "run",
                    "git",
                    "scheduler",
                    "shard",
                    "jobs",
                    "max flow",
                    "ratio ≤",
                    "throughput",
                    "flow p99",
                    "invariants",
                ],
            );
            for r in rs {
                let s = &r.summary;
                table.row(vec![
                    r.run_id.clone(),
                    r.git.clone(),
                    s.scheduler.clone(),
                    format!("{}/{}", r.shard, r.shards),
                    s.jobs.to_string(),
                    s.max_flow.to_string(),
                    f3(s.ratio),
                    f3(s.dispatched as f64 / s.steps.max(1) as f64),
                    s.flow.p99.to_string(),
                    if s.invariants_clean {
                        "clean".to_string()
                    } else {
                        format!("{} violation(s)", s.total_violations)
                    },
                ]);
            }
            table
        })
        .collect()
}

/// Render the trend tables as one markdown document.
pub fn render_trend(records: &[StoreRecord]) -> String {
    if records.is_empty() {
        return "no store records found\n".to_string();
    }
    let mut out = String::from("# Store trends\n\n");
    for table in trend_tables(records) {
        out.push_str(&table.to_markdown());
        out.push('\n');
    }
    out
}
