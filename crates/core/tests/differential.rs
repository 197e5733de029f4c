//! Differential testing: an independent, deliberately naive reference
//! implementation of FIFO[became-ready] is compared step-for-step against
//! the engine + `Fifo` pipeline. The reference shares *no code* with the
//! production path (no SimState, no ready queues — it rescans everything
//! each step), so agreement rules out whole classes of bookkeeping bugs.

use flowtree_core::{Fifo, TieBreak};
use flowtree_dag::{GraphBuilder, JobGraph, Time};
use flowtree_sim::{Engine, Instance, JobSpec};
use proptest::prelude::*;

/// Reference FIFO: returns per-(job, node) completion times.
///
/// Per step: walk jobs in arrival order; a node is ready if its job is
/// released, all its parents are complete, and it is not complete. Within a
/// job, nodes are taken in "became-ready order", reconstructed the naive
/// way: a ready node's priority is (time it became ready, the order its
/// last-finishing parent... ). For out-forests with the engine's child-push
/// order, became-ready order within a job equals ordering by
/// (ready_time, parent completion order, child-list position) — which for
/// the engine's SimState is: roots in id order at release, then children
/// appended in (parent completion step, parent position in that step's
/// processing order, child-list order). To stay truly independent we
/// reconstruct it as (ready_time, sequence number assigned when a node
/// first becomes ready, scanning parents in the order their completions
/// were recorded this step).
fn reference_fifo(instance: &Instance, m: usize) -> Vec<Vec<Time>> {
    let _n_jobs = instance.num_jobs();
    let mut complete: Vec<Vec<Time>> =
        instance.jobs().iter().map(|j| vec![0; j.graph.n()]).collect();
    // became-ready sequence per (job, node); usize::MAX = not yet ready.
    let mut seq: Vec<Vec<usize>> =
        instance.jobs().iter().map(|j| vec![usize::MAX; j.graph.n()]).collect();
    let mut next_seq = 0usize;
    let mut remaining: usize = instance.jobs().iter().map(|j| j.graph.n()).sum();
    let mut t: Time = 0;

    // Assign ready sequence numbers for anything that becomes ready at time
    // `t` (release or parents complete by t), scanning jobs and nodes in a
    // fixed order. The engine pushes roots in id order and children in
    // child-list order at the completing step; scanning nodes in id order
    // per completion wave reproduces that order for out-forests as long as
    // within one wave we order by (parent's completion step, parent id,
    // child list position). We emulate exactly that.
    let mark_ready = |t: Time,
                      instance: &Instance,
                      complete: &Vec<Vec<Time>>,
                      seq: &mut Vec<Vec<usize>>,
                      next_seq: &mut usize| {
        for (j, spec) in instance.jobs().iter().enumerate() {
            if spec.release != t {
                continue;
            }
            let edges = spec.graph.edges();
            for v in spec.graph.nodes() {
                if edges.iter().all(|&(_, w)| w != v.0) {
                    seq[j][v.index()] = *next_seq;
                    *next_seq += 1;
                }
            }
        }
        // Children enabled by completions at exactly time t: order by
        // (parent seq) then child-list order — matching SimState, which
        // processes the step's picks in selection order (selection order =
        // ready order = seq order).
        // Engine enabling order within a step: picks are applied in
        // selection order = jobs in arrival order, then by became-ready
        // stamp within a job; each pick enables its children in child-list
        // (ascending id) order. Key: (job, parent_seq, child id).
        let mut enabled: Vec<(usize, usize, u32)> = Vec::new(); // (job, parent_seq, child)
        for (j, spec) in instance.jobs().iter().enumerate() {
            for v in spec.graph.nodes() {
                if complete[j][v.index()] == t {
                    for c in spec.graph.children(v) {
                        let all_done = spec.graph.edges().iter().all(|&(u, w)| {
                            w != c || complete[j][u as usize] != 0 && complete[j][u as usize] <= t
                        });
                        if all_done && seq[j][c as usize] == usize::MAX {
                            enabled.push((j, seq[j][v.index()], c));
                        }
                    }
                }
            }
        }
        enabled.sort_unstable();
        for (j, _, c) in enabled {
            seq[j][c as usize] = *next_seq;
            *next_seq += 1;
        }
    };

    while remaining > 0 {
        mark_ready(t, instance, &complete, &mut seq, &mut next_seq);
        // FIFO selection: jobs in arrival order, ready nodes by seq.
        let mut capacity = m;
        let mut picks: Vec<(usize, u32)> = Vec::new();
        for (j, spec) in instance.jobs().iter().enumerate() {
            if spec.release > t || capacity == 0 {
                continue;
            }
            let mut ready: Vec<(usize, u32)> = spec
                .graph
                .nodes()
                .filter(|&v| complete[j][v.index()] == 0 && seq[j][v.index()] != usize::MAX)
                .map(|v| (seq[j][v.index()], v.0))
                .collect();
            ready.sort_unstable();
            for (_, v) in ready.into_iter().take(capacity) {
                picks.push((j, v));
                capacity -= 1;
            }
        }
        for (j, v) in picks {
            complete[j][v as usize] = t + 1;
            remaining -= 1;
        }
        t += 1;
        assert!(t < 1_000_000, "reference FIFO ran away");
    }
    complete
}

fn arb_tree(max_n: usize) -> impl Strategy<Value = JobGraph> {
    (1..=max_n).prop_flat_map(|n| {
        proptest::collection::vec(0..usize::MAX, n.saturating_sub(1)).prop_map(move |cs| {
            let mut b = GraphBuilder::new(n);
            for (i, &c) in cs.iter().enumerate() {
                b.edge((c % (i + 1)) as u32, (i + 1) as u32);
            }
            b.build().unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engine_fifo_matches_reference(
        trees in proptest::collection::vec((arb_tree(16), 0u64..8), 1..6),
        m in 1usize..5,
    ) {
        let inst = Instance::new(
            trees.into_iter().map(|(graph, release)| JobSpec { graph, release }).collect(),
        );
        let s = Engine::new(m)
            .run(&inst, &mut Fifo::new(TieBreak::BecameReady))
            .unwrap();
        s.verify(&inst).unwrap();
        let reference = reference_fifo(&inst, m);
        // Same completion time for every single subjob.
        for (id, spec) in inst.iter() {
            for v in spec.graph.nodes() {
                let mut got = 0;
                for (t, picks) in s.iter() {
                    if picks.contains(&(id, v)) {
                        got = t;
                    }
                }
                prop_assert_eq!(
                    got,
                    reference[id.index()][v.index()],
                    "mismatch at {}/{}", id, v
                );
            }
        }
    }
}

#[test]
fn reference_agrees_on_adversary_instances() {
    use flowtree_workloads::adversary;
    let m = 6;
    let out = adversary::duel(m, m, 5);
    let inst = adversary::materialize(&out);
    let s = Engine::new(m)
        .with_max_horizon(1_000_000)
        .run(&inst, &mut Fifo::new(TieBreak::BecameReady))
        .unwrap();
    let reference = reference_fifo(&inst, m);
    let stats = flowtree_sim::metrics::flow_stats(&inst, &s);
    for (id, spec) in inst.iter() {
        let ref_completion =
            spec.graph.nodes().map(|v| reference[id.index()][v.index()]).max().unwrap();
        assert_eq!(
            stats.flows[id.index()],
            ref_completion - spec.release,
            "job {id} flow mismatch"
        );
    }
}
