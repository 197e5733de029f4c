//! Differential property: the batched ingest path (one `Admit` command
//! per shard carrying every arrival of an offer routed there, plus
//! stride-amortized watermark broadcasts) is **bit for bit** the per-event
//! path (one single-arrival `Admit` per offer). Event-time watermarks only
//! pace simulation — they never change what a shard computes — and placement is
//! decided per job under the router lock in both paths, so for any stream,
//! shard count, routing mode, steal setting, batch bound, and stride, the
//! drained [`ShardResult`]s must be identical, hot-swaps included.
//!
//! Both pools run the same router, so agreeing with each other alone
//! cannot catch a routing bug they share. Without a hot-swap each shard's
//! report is therefore also checked against the batch [`Engine`] run on
//! that shard's materialized instance, an oracle outside the serve crate.
//!
//! Queue capacity is kept generous so backpressure staging never triggers:
//! staging timing is load-dependent (a per-event pool fills queues in a
//! different rhythm than a batched one), so it is exercised by the soak
//! tests in `differential.rs`, not by this equivalence property.

use flowtree_core::SchedulerSpec;
use flowtree_dag::{GraphBuilder, JobGraph, Time};
use flowtree_serve::{
    OverloadPolicy, ReplaySource, Routing, ServeConfig, ShardPool, ShardResult, StealConfig,
};
use flowtree_sim::{Engine, Instance, JobSpec};
use proptest::prelude::*;

/// Random out-tree via the recursive-attachment process.
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

/// A nondecreasing-release arrival stream (gaps 0..=3, so bursts that
/// coalesce into batches and spreads that force flushes both occur).
fn arb_stream(max_jobs: usize) -> impl Strategy<Value = Vec<JobSpec>> {
    proptest::collection::vec((arb_tree(8), 0u64..=3), 1..=max_jobs).prop_map(|items| {
        let mut release: Time = 0;
        items
            .into_iter()
            .map(|(graph, gap)| {
                release += gap;
                JobSpec { graph, release }
            })
            .collect()
    })
}

fn config(
    shards: usize,
    routing: Routing,
    steal: bool,
    ingest_batch: usize,
    stride: Time,
) -> ServeConfig {
    let spec = SchedulerSpec::from_name_with_half("fifo", 1).unwrap();
    let mut b = ServeConfig::builder(spec, 4)
        .shards(shards)
        .scenario("batched-diff")
        .routing(routing)
        .policy(OverloadPolicy::Block)
        // Generous: staging/backpressure never engages, so the only
        // difference between the two pools is batching + stride.
        .queue_cap(4096)
        .ingest_batch(ingest_batch)
        .watermark_stride(stride);
    if steal {
        b = b.steal(StealConfig::default());
    }
    b.build().expect("valid differential config")
}

/// Drive `jobs` through a pool; `batched` uses the coalescing source path,
/// otherwise every job is offered individually (the per-event reference,
/// equivalent to `ingest_batch = 1`, `stride = 0`). `swap_at` issues a
/// pool-wide LPF hot-swap before any arrival is offered.
fn run_pool(
    jobs: &[JobSpec],
    cfg: ServeConfig,
    batched: bool,
    swap_at: Option<Time>,
) -> Vec<ShardResult> {
    let pool = ShardPool::launch(cfg).expect("launch");
    let handle = pool.handle();
    if let Some(at) = swap_at {
        let lpf = SchedulerSpec::from_name_with_half("lpf", 1).unwrap();
        handle.swap(None, at, lpf).expect("swap accepted");
    }
    if batched {
        let mut src = ReplaySource::from_instance(&Instance::new(jobs.to_vec()));
        handle.run_source(&mut src).expect("stream");
    } else {
        for job in jobs {
            handle.offer(job.clone()).expect("offer");
        }
    }
    pool.drain().expect("drain")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn batched_ingest_is_bit_for_bit_the_per_event_path(
        jobs in arb_stream(40),
        shards_pick in 0usize..3,
        least_loaded in 0u8..2,
        steal_bit in 0u8..2,
        ingest_batch in 1usize..=48,
        stride in 0u64..=8,
        // 0 = no hot-swap; 1..=7 = pool-wide LPF swap at t = value - 1.
        swap_raw in 0u64..=7,
    ) {
        let shards = [1, 2, 4][shards_pick];
        let routing = if least_loaded == 1 { Routing::LeastLoaded } else { Routing::Hash };
        let steal = steal_bit == 1;
        let swap = swap_raw.checked_sub(1);
        let reference = run_pool(
            &jobs,
            config(shards, routing, steal, 1, 0),
            false,
            swap,
        );
        let batched = run_pool(
            &jobs,
            config(shards, routing, steal, ingest_batch, stride),
            true,
            swap,
        );
        prop_assert_eq!(reference.len(), batched.len());
        for (a, b) in reference.iter().zip(&batched) {
            prop_assert_eq!(a, b, "shard {} diverged under batching", a.shard);
        }
        if swap.is_none() {
            for shard in &batched {
                let mut fifo = SchedulerSpec::from_name_with_half("fifo", 1).unwrap().build();
                let oracle = Engine::new(4)
                    .with_max_horizon(100_000_000)
                    .run(&shard.instance, fifo.as_mut())
                    .expect("batch engine run");
                prop_assert_eq!(
                    &shard.report,
                    &oracle,
                    "shard {} diverged from the engine",
                    shard.shard
                );
            }
        }
    }
}
