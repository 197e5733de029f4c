//! ASCII Gantt rendering of schedules — used to reproduce the paper's
//! Figure 1 ("two possible packings for one job on three processors").
//!
//! Subjobs are assigned to processor lanes greedily per step (the paper notes
//! the processor identity is irrelevant; lanes are presentation only). Cells
//! show a per-job letter, or a per-node label for single-job schedules.

use crate::instance::Instance;
use crate::schedule::Schedule;
use flowtree_dag::Time;

/// Rendering options.
#[derive(Debug, Clone)]
pub struct GanttOptions {
    /// Label cells by node id (single-job figures) instead of by job.
    pub label_nodes: bool,
    /// Character used for an idle processor cell.
    pub idle: char,
    /// Clip rendering to at most this many steps (0 = no limit).
    pub max_steps: usize,
}

impl Default for GanttOptions {
    fn default() -> Self {
        GanttOptions { label_nodes: false, idle: '.', max_steps: 0 }
    }
}

fn job_label(i: usize) -> String {
    // A..Z, then A1, B1, ...
    let letter = (b'A' + (i % 26) as u8) as char;
    if i < 26 {
        letter.to_string()
    } else {
        format!("{letter}{}", i / 26)
    }
}

fn node_label(i: usize) -> String {
    job_label(i)
}

/// Render `schedule` as an ASCII Gantt chart: one row per processor, one
/// column per time step.
pub fn render(instance: &Instance, schedule: &Schedule, opts: &GanttOptions) -> String {
    let m = schedule.m();
    let horizon = schedule.horizon();
    let steps = if opts.max_steps > 0 {
        horizon.min(opts.max_steps as Time)
    } else {
        horizon
    };

    // Widest cell label decides the column width.
    let mut cells: Vec<Vec<String>> = vec![Vec::new(); m];
    let mut width = 1;
    for t in 1..=steps {
        let picks = schedule.at(t);
        for (lane, row) in cells.iter_mut().enumerate() {
            let label = picks.get(lane).map(|&(j, v)| {
                if opts.label_nodes {
                    node_label(v.index())
                } else {
                    job_label(j.index())
                }
            });
            let s = label.unwrap_or_else(|| opts.idle.to_string());
            width = width.max(s.len());
            row.push(s);
        }
    }

    let mut out = String::new();
    // Header: time axis.
    out.push_str("t    |");
    for t in 1..=steps {
        out.push_str(&format!("{:>width$}|", t, width = width));
    }
    out.push('\n');
    for (lane, row) in cells.iter().enumerate() {
        out.push_str(&format!("p{:<4}|", lane + 1));
        for cell in row {
            out.push_str(&format!("{:>width$}|", cell, width = width));
        }
        out.push('\n');
    }
    let _ = instance; // reserved for richer labels (release markers etc.)
    out
}

/// Render with default options.
pub fn render_default(instance: &Instance, schedule: &Schedule) -> String {
    render(instance, schedule, &GanttOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{Instance, JobSpec};
    use flowtree_dag::builder::chain;
    use flowtree_dag::{JobId, NodeId};

    fn fixture() -> (Instance, Schedule) {
        let inst = Instance::new(vec![
            JobSpec { graph: chain(2), release: 0 },
            JobSpec { graph: chain(2), release: 0 },
        ]);
        let mut s = Schedule::new(2);
        s.push_step(vec![(JobId(0), NodeId(0)), (JobId(1), NodeId(0))]);
        s.push_step(vec![(JobId(0), NodeId(1))]);
        s.push_step(vec![(JobId(1), NodeId(1))]);
        (inst, s)
    }

    #[test]
    fn renders_rows_and_columns() {
        let (inst, s) = fixture();
        let out = render_default(&inst, &s);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3); // header + 2 lanes
        assert!(lines[0].starts_with("t    |"));
        assert!(lines[1].contains('A'));
        assert!(lines[2].contains('B'));
        // Idle cell in steps 2 and 3 on the second lane.
        assert!(lines[2].contains('.'));
    }

    #[test]
    fn node_labels_for_single_job() {
        let (inst, s) = fixture();
        let opts = GanttOptions { label_nodes: true, ..Default::default() };
        let out = render(&inst, &s, &opts);
        // Node 0 of both jobs renders as 'A' (node-indexed labels).
        assert!(out.lines().nth(1).unwrap().contains('A'));
        assert!(out.lines().nth(2).unwrap().contains('A'));
    }

    #[test]
    fn max_steps_clips() {
        let (inst, s) = fixture();
        let opts = GanttOptions { max_steps: 1, ..Default::default() };
        let out = render(&inst, &s, &opts);
        assert!(!out.lines().next().unwrap().contains('2'));
    }

    #[test]
    fn job_labels_wrap_past_z() {
        assert_eq!(job_label(0), "A");
        assert_eq!(job_label(25), "Z");
        assert_eq!(job_label(26), "A1");
        assert_eq!(job_label(27), "B1");
    }
}
