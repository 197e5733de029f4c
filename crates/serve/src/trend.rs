//! Cross-run trend tables and plots over [`StoreRecord`]s.
//!
//! Groups store records by `(scenario, m)` and renders one table per group
//! with the headline serving metrics per record: the certified competitive
//! ratio, throughput (dispatched subjobs per simulated step), and the p99
//! of the per-job flow distribution — the numbers a maintainer watches
//! across commits to spot regressions in scheduler quality.
//! [`render_trend_plots`] turns the same records into ASCII longitudinal
//! plots (certified ratio against git revision, one plot per
//! scenario × m × scheduler) for an at-a-glance regression check.

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

/// Plot grid height in character rows.
const PLOT_ROWS: usize = 8;
/// Character columns per data point.
const PLOT_COL_W: usize = 3;

/// ASCII longitudinal plots: certified ratio per record, in store order
/// (file name = run id, so chronological for dated runs), one plot per
/// `(scenario, m, scheduler)`. Each column is one record; its git revision
/// is listed in the legend under the axis.
pub fn render_trend_plots(records: &[StoreRecord]) -> String {
    let mut groups: BTreeMap<(String, usize, String), Vec<&StoreRecord>> = BTreeMap::new();
    for r in records {
        groups
            .entry((r.summary.scenario.clone(), r.summary.m, r.summary.scheduler.clone()))
            .or_default()
            .push(r);
    }
    let mut out = String::new();
    for ((scenario, m, scheduler), rs) in groups {
        let pts: Vec<(&str, f64)> = rs.iter().map(|r| (r.git.as_str(), r.summary.ratio)).collect();
        out.push_str(&format!(
            "## ratio trend — scenario '{scenario}' (m = {m}, scheduler {scheduler})\n\n"
        ));
        out.push_str(&ascii_plot(&pts));
        out.push('\n');
    }
    out
}

/// One fixed-height scatter of `(label, y)` points, columns in input order.
fn ascii_plot(pts: &[(&str, f64)]) -> String {
    if pts.is_empty() {
        return "(no points)\n".to_string();
    }
    let lo = pts.iter().map(|&(_, y)| y).fold(f64::INFINITY, f64::min);
    let hi = pts.iter().map(|&(_, y)| y).fold(f64::NEG_INFINITY, f64::max);
    let span = if hi > lo { hi - lo } else { 1.0 };
    let width = pts.len() * PLOT_COL_W;
    let mut grid = vec![vec![' '; width]; PLOT_ROWS];
    for (x, &(_, y)) in pts.iter().enumerate() {
        let frac = (y - lo) / span;
        let row = ((PLOT_ROWS - 1) as f64 * frac).round() as usize;
        grid[PLOT_ROWS - 1 - row][x * PLOT_COL_W + 1] = '*';
    }
    let mut out = String::new();
    for (i, row) in grid.iter().enumerate() {
        let label = if i == 0 {
            f3(hi)
        } else if i == PLOT_ROWS - 1 {
            f3(lo)
        } else {
            String::new()
        };
        let line: String = row.iter().collect();
        out.push_str(&format!("{label:>8} |{}\n", line.trim_end()));
    }
    out.push_str(&format!("{:>8} +{}\n", "", "-".repeat(width)));
    let legend: Vec<String> =
        pts.iter().enumerate().map(|(i, &(git, _))| format!("{i}:{git}")).collect();
    out.push_str(&format!("{:>8}  runs: {}\n", "", legend.join(" ")));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{ServeConfig, ShardPool};

    fn record(git: &str, ratio: f64) -> StoreRecord {
        let pool = ShardPool::launch(ServeConfig::new("fifo".parse().expect("fifo parses"), 1))
            .expect("launch");
        pool.handle()
            .offer(flowtree_sim::JobSpec { graph: flowtree_dag::builder::chain(2), release: 0 })
            .expect("offer");
        let mut summary = pool.drain().expect("drain").remove(0).summary;
        summary.ratio = ratio;
        StoreRecord {
            run_id: "r".to_string(),
            git: git.to_string(),
            shard: 0,
            shards: 1,
            summary,
            swaps: Vec::new(),
        }
    }

    #[test]
    fn plots_render_one_block_per_group_with_git_legend() {
        let out = render_trend_plots(&[record("aaa1111", 1.0), record("bbb2222", 2.0)]);
        assert!(out.contains("ratio trend"), "{out}");
        assert!(out.contains("runs: 0:aaa1111 1:bbb2222"), "{out}");
        assert_eq!(out.matches('*').count(), 2, "{out}");
        assert!(out.contains("2.000"), "{out}");
        assert!(out.contains("1.000"), "{out}");
    }

    #[test]
    fn empty_plot_input_renders_nothing() {
        assert!(render_trend_plots(&[]).is_empty());
    }
}
