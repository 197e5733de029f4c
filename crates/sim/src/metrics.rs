//! Schedule quality metrics: per-job flow, maximum flow, utilization.

use crate::instance::Instance;
use crate::schedule::Schedule;
use flowtree_dag::Time;

/// Flow-time statistics of a complete schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowStats {
    /// Per-job flow `F_i = C_i - r_i`, indexed by job id.
    pub flows: Vec<Time>,
    /// `max_i F_i` — the paper's objective.
    pub max_flow: Time,
    /// `sum_i F_i / n` (the l1-norm counterpart, for context in reports).
    pub mean_flow: f64,
    /// Completion time of the last subjob overall.
    pub makespan: Time,
    /// Fraction of processor-steps busy in `[1, makespan]`.
    pub utilization: f64,
    /// Steps in `[1, makespan]` with at least one idle processor.
    pub idle_steps: u64,
}

/// Compute [`FlowStats`]. Panics if the schedule is incomplete (some job has
/// no completion time) — run [`Schedule::verify`] first for a precise error.
pub fn flow_stats(instance: &Instance, schedule: &Schedule) -> FlowStats {
    let completions = schedule.completion_times(instance);
    let mut flows = Vec::with_capacity(instance.num_jobs());
    let mut makespan = 0;
    for (id, spec) in instance.iter() {
        let c = completions[id.index()].unwrap_or_else(|| panic!("job {id} never scheduled"));
        assert!(
            c > spec.release,
            "job {id} completes at {c} before its release {}",
            spec.release
        );
        flows.push(c - spec.release);
        makespan = makespan.max(c);
    }
    let max_flow = flows.iter().copied().max().unwrap_or(0);
    let mean_flow = flows.iter().map(|&f| f as f64).sum::<f64>() / flows.len() as f64;

    let mut busy = 0u64;
    let mut idle_steps = 0u64;
    for t in 1..=makespan {
        let load = schedule.load(t) as u64;
        busy += load;
        if load < schedule.m() as u64 {
            idle_steps += 1;
        }
    }
    let utilization = if makespan == 0 {
        0.0
    } else {
        busy as f64 / (makespan as f64 * schedule.m() as f64)
    };

    FlowStats {
        flows,
        max_flow,
        mean_flow,
        makespan,
        utilization,
        idle_steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{Instance, JobSpec};
    use flowtree_dag::builder::chain;
    use flowtree_dag::{JobId, NodeId};

    fn simple() -> (Instance, Schedule) {
        let inst = Instance::new(vec![
            JobSpec { graph: chain(2), release: 0 },
            JobSpec { graph: chain(1), release: 2 },
        ]);
        let mut s = Schedule::new(2);
        s.push_step(vec![(JobId(0), NodeId(0))]); // t=1
        s.push_step(vec![(JobId(0), NodeId(1))]); // t=2
        s.push_step(vec![]); // t=3 idle
        s.push_step(vec![(JobId(1), NodeId(0))]); // t=4
        (inst, s)
    }

    #[test]
    fn flows_and_max_flow() {
        let (inst, s) = simple();
        s.verify(&inst).unwrap();
        let st = flow_stats(&inst, &s);
        assert_eq!(st.flows, vec![2, 2]);
        assert_eq!(st.max_flow, 2);
        assert_eq!(st.makespan, 4);
        assert!((st.mean_flow - 2.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_counts_busy_processor_steps() {
        let (inst, s) = simple();
        let st = flow_stats(&inst, &s);
        // 3 busy processor-steps out of 4 steps x 2 processors.
        assert!((st.utilization - 3.0 / 8.0).abs() < 1e-12);
        assert_eq!(st.idle_steps, 4); // every step has an idle processor
    }

    #[test]
    fn full_rectangle_utilization_is_one() {
        let inst = Instance::new(vec![
            JobSpec { graph: chain(2), release: 0 },
            JobSpec { graph: chain(2), release: 0 },
        ]);
        let mut s = Schedule::new(2);
        s.push_step(vec![(JobId(0), NodeId(0)), (JobId(1), NodeId(0))]);
        s.push_step(vec![(JobId(0), NodeId(1)), (JobId(1), NodeId(1))]);
        s.verify(&inst).unwrap();
        let st = flow_stats(&inst, &s);
        assert_eq!(st.utilization, 1.0);
        assert_eq!(st.idle_steps, 0);
        assert_eq!(st.max_flow, 2);
    }

    #[test]
    #[should_panic(expected = "never scheduled")]
    fn incomplete_schedule_panics() {
        let (inst, _) = simple();
        let s = Schedule::new(2);
        flow_stats(&inst, &s);
    }
}
