//! E1 — **Figure 1**: two qualitatively different packings of one job on
//! three processors.
//!
//! The paper's Figure 1 shows a single fork-join DAG packed two ways on
//! m = 3, illustrating that the scheduler's intra-job choices change the
//! "shape" of the piece it is packing. We reconstruct the job
//! ([`flowtree_dag::sp::figure1_job`]) and render the packings produced by
//! (a) breadth-greedy FIFO (became-ready order) and (b) LPF, as ASCII Gantt
//! charts, together with their flows and the certified single-job optimum.

use crate::{Effort, Report, Table};
use flowtree_core::{Fifo, TieBreak};
use flowtree_dag::sp::figure1_job;
use flowtree_sim::gantt::{render, GanttOptions};
use flowtree_sim::{Engine, Instance, OnlineScheduler};

/// Run E1.
pub fn run(_effort: Effort) -> Report {
    let mut report = Report::new("E1", "Figure 1: two packings of one job on 3 processors");
    let g = figure1_job();
    let inst = Instance::single(g.clone());
    let m = 3;
    let opt = flowtree_opt::exact_max_flow(&inst, m, 64).expect("10-node job");

    let mut table = Table::new(
        "packings of the Figure 1 job (work=10, span=7) on m=3",
        &["schedule", "flow", "opt", "steps used"],
    );
    let opts = GanttOptions { label_nodes: true, ..Default::default() };

    let schedulers: Vec<(&str, Box<dyn OnlineScheduler>)> = vec![
        ("FIFO[became-ready]", Box::new(Fifo::new(TieBreak::BecameReady))),
        ("LPF", Box::new(Fifo::new(TieBreak::HighestHeight))),
    ];
    for (label, mut sched) in schedulers {
        let s = Engine::new(m).run(&inst, sched.as_mut()).unwrap();
        s.verify(&inst).unwrap();
        table.row(vec![
            label.to_string(),
            s.stats.max_flow.to_string(),
            opt.to_string(),
            s.horizon().to_string(),
        ]);
        report
            .figure(format!("{label} packing (cells are subjob labels)"), render(&inst, &s, &opts));
    }
    report.table(table);
    report.note(format!(
        "The job is span-limited on m=3 (span 7 > ceil(10/3) = 4); OPT = {opt}. \
         Both packings are feasible — the figure illustrates that packing shape, \
         not just greedy fullness, is the scheduler's real degree of freedom."
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_has_two_gantts_and_bounds() {
        let r = run(Effort::Quick);
        assert_eq!(r.figures.len(), 2);
        assert_eq!(r.tables.len(), 1);
        let t = &r.tables[0];
        assert_eq!(t.len(), 2);
        // Both schedules meet the exact optimum's lower bound.
        let flows = t.column_f64(1);
        let opts = t.column_f64(2);
        for (f, o) in flows.iter().zip(&opts) {
            assert!(f >= o);
        }
        // LPF is optimal on a single job (Lemma 5.3 with alpha = 1).
        assert_eq!(flows[1], opts[1]);
    }
}
