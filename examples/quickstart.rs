//! Quickstart: build an instance, run three schedulers, compare maximum
//! flow against a certified lower bound, and print a Gantt chart.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use flowtree::prelude::*;
use flowtree::sim::gantt;
use flowtree::workloads::trees;

fn main() {
    let m = 4;

    // A small stream of fork-heavy jobs: two quicksort recursion trees and
    // a sequential chain arriving over time.
    let mut rng = flowtree::workloads::rng(1);
    let instance = Instance::new(vec![
        JobSpec {
            graph: trees::random_quicksort_tree(48, 2, &mut rng),
            release: 0,
        },
        JobSpec { graph: flowtree::dag::builder::chain(8), release: 2 },
        JobSpec {
            graph: trees::random_quicksort_tree(48, 2, &mut rng),
            release: 4,
        },
    ]);
    println!(
        "instance: {} jobs, total work {}, max span {}",
        instance.num_jobs(),
        instance.total_work(),
        instance.max_span()
    );

    let lb = flowtree::opt::bounds::combined_lower_bound(&instance, m as u64);
    println!("certified lower bound on OPT max-flow (m = {m}): {lb}\n");

    // LPF is FIFO whose intra-job tie-break runs the highest subjobs first.
    let schedulers: Vec<(&str, Box<dyn OnlineScheduler>)> = vec![
        ("FIFO", Box::new(Fifo::arbitrary())),
        ("LPF", Box::new(Fifo::new(TieBreak::HighestHeight))),
        ("guess-and-double", Box::new(GuessDoubleA::paper())),
    ];
    for (label, mut sched) in schedulers {
        let schedule = Engine::new(m)
            .with_max_horizon(1_000_000)
            .run(&instance, sched.as_mut())
            .expect("scheduler completes");
        schedule.verify(&instance).expect("feasible");
        let stats = &schedule.stats;
        println!(
            "{label:<16} max flow {:>3}  (ratio vs LB {:.2}), mean flow {:.1}, util {:.2}",
            stats.max_flow,
            stats.max_flow as f64 / lb as f64,
            stats.mean_flow,
            stats.utilization,
        );
        if label == "FIFO" {
            println!("\nFIFO packing (rows = processors, letters = jobs):");
            println!("{}", gantt::render_default(&instance, &schedule));
            println!("per-job timelines:");
            println!("{}", flowtree::sim::trace::render_timelines(&instance, &schedule));
        }
    }
}
