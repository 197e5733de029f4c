//! Differential and soak tests for the sharded serve pipeline.
//!
//! The load-bearing guarantee: a one-shard pool replaying a recorded
//! instance is *bit for bit* the batch engine — same `RunReport`, same
//! certified `RunSummary` — and that still holds when the scheduler arrives
//! via a `--swap-at 0` control-plane hot-swap rather than the launch
//! config. The multi-shard tests then pin the operational properties:
//! overload with backpressure neither deadlocks nor loses jobs, work
//! stealing migrates jobs without losing or double-counting any, every
//! drained shard emits a valid, verified summary, and the persistent store
//! round-trips records that the trend renderer can consume.

use flowtree_analysis::summarize;
use flowtree_core::SchedulerSpec;
use flowtree_serve::{
    GeneratorSource, OverloadPolicy, ReplaySource, ResultsStore, Routing, ServeConfig, ShardPool,
    StealConfig, StoreRecord,
};
use flowtree_sim::Engine;
use flowtree_workloads::mix::Scenario;

fn spec(name: &str) -> SchedulerSpec {
    SchedulerSpec::from_name_with_half(name, 1).expect("registry name parses")
}

#[test]
fn one_shard_replay_is_bit_for_bit_identical_to_batch() {
    let scenario = Scenario::service(24);
    let inst = scenario.instantiate(&mut flowtree_workloads::rng(7));
    let m = 4;
    let fifo = spec("fifo");

    // Batch references: the monitored summary and a raw engine report.
    let batch_summary = summarize("service", &inst, m, fifo).expect("batch run");
    let mut sched = fifo.build();
    let batch_report = Engine::new(m)
        .with_max_horizon(100_000_000)
        .run(&inst, sched.as_mut())
        .expect("batch engine run");

    // Streamed: one shard consuming a replay of the same arrivals.
    let cfg = ServeConfig::builder(fifo, m).scenario("service").build().expect("valid config");
    let pool = ShardPool::launch(cfg).expect("launch");
    let mut src = ReplaySource::from_instance(&inst);
    assert_eq!(pool.handle().run_source(&mut src).expect("stream"), 24);
    let results = pool.drain().expect("drain");
    assert_eq!(results.len(), 1);

    let streamed = &results[0];
    assert_eq!(streamed.instance, inst, "admissions materialize the replayed instance");
    assert_eq!(streamed.report, batch_report, "schedule, stats, and counters are identical");
    assert_eq!(streamed.summary, batch_summary, "certified summaries are identical");
    assert!(streamed.swaps.is_empty(), "no control-plane swaps were requested");
}

#[test]
fn swap_at_zero_is_bit_for_bit_identical_to_batch_under_the_new_scheduler() {
    // Launch under FIFO, hot-swap to LPF at t = 0 before any arrival: every
    // simulated step runs under LPF, so the run must be indistinguishable
    // from a batch LPF run — except for the recorded SwapEvent.
    let inst = Scenario::service(24).instantiate(&mut flowtree_workloads::rng(7));
    let m = 4;
    let lpf = spec("lpf");

    let batch_summary = summarize("service", &inst, m, lpf).expect("batch run");
    let mut sched = lpf.build();
    let batch_report = Engine::new(m)
        .with_max_horizon(100_000_000)
        .run(&inst, sched.as_mut())
        .expect("batch engine run");

    let cfg = ServeConfig::builder(spec("fifo"), m)
        .scenario("service")
        .build()
        .expect("valid config");
    let pool = ShardPool::launch(cfg).expect("launch");
    pool.handle().swap(None, 0, lpf).expect("queue swap before arrivals");
    pool.handle()
        .run_source(&mut ReplaySource::from_instance(&inst))
        .expect("stream");
    let results = pool.drain().expect("drain");

    let streamed = &results[0];
    assert_eq!(streamed.instance, inst);
    assert_eq!(streamed.report, batch_report, "hot-swapped run diverges from batch LPF");
    assert_eq!(streamed.summary, batch_summary, "hot-swapped summary diverges from batch LPF");
    assert_eq!(streamed.swaps.len(), 1);
    let ev = &streamed.swaps[0];
    assert_eq!((ev.t, ev.from.as_str(), ev.to.as_str()), (0, "fifo", "lpf"));
}

#[test]
fn mid_stream_swap_accounts_for_every_job_and_stays_feasible() {
    let inst = Scenario::service(30).instantiate(&mut flowtree_workloads::rng(19));
    let mid = inst.last_release() / 2;
    let cfg = ServeConfig::builder(spec("fifo"), 2)
        .shards(2)
        .scenario("midswap")
        .build()
        .expect("valid config");
    let pool = ShardPool::launch(cfg).expect("launch");
    pool.handle().swap(None, mid, spec("lpf")).expect("queue swap");
    let offered = pool
        .handle()
        .run_source(&mut ReplaySource::from_instance(&inst))
        .expect("stream");
    let ingest = pool.handle().ingest();
    let results = pool.drain().expect("drain");

    let admitted: u64 = results.iter().map(|r| r.summary.jobs as u64).sum();
    assert_eq!(admitted, offered, "a mid-stream swap must not lose or duplicate jobs");
    assert_eq!(ingest.delivered + ingest.dropped, offered);
    for r in &results {
        assert_eq!(r.swaps.len(), 1, "shard {} missed its swap", r.shard);
        assert!(r.swaps[0].t >= mid, "swap applied early on shard {}", r.shard);
        assert_eq!(r.summary.scheduler, "lpf", "summary labels the final scheduler");
        assert!(r.summary.invariants_clean, "shard {}: {:?}", r.shard, r.summary.violations);
        r.report.verify(&r.instance).expect("feasible schedule across the swap");
    }
}

#[test]
fn stealing_pool_wide_books_balance_and_no_job_is_lost() {
    // Tiny queues + aggressive watermarks force staging and make migration
    // possible; the invariants must hold however the timing plays out.
    let scenario = Scenario::service(1);
    let mut src = GeneratorSource::new(&scenario, 4.0, 80, 23);
    let cfg = ServeConfig::builder(spec("fifo"), 2)
        .shards(3)
        .queue_cap(2)
        .scenario("steal")
        .steal(StealConfig { low_watermark: 0, high_watermark: 2 })
        .build()
        .expect("valid config");
    let pool = ShardPool::launch(cfg).expect("launch");
    let offered = pool.handle().run_source(&mut src).expect("stream");
    assert_eq!(offered, 80);

    let snap = pool.handle().snapshot();
    assert!(snap.accounting_balanced(), "mid-stream ledger: {:?}", snap.ingest);

    let ingest = pool.handle().ingest();
    assert_eq!(ingest.stolen_in, ingest.stolen_out, "every stolen job lands exactly once");

    let results = pool.drain().expect("drain");
    let admitted: u64 = results.iter().map(|r| r.summary.jobs as u64).sum();
    assert_eq!(admitted, offered, "work stealing lost a job");
    for r in &results {
        assert_eq!(r.summary.jobs, r.instance.num_jobs());
        assert!(r.summary.invariants_clean, "shard {}: {:?}", r.shard, r.summary.violations);
        r.report.verify(&r.instance).expect("feasible shard schedule");
    }
}

#[test]
fn one_shard_replay_matches_batch_for_every_matrix_scheduler() {
    let inst = Scenario::analytics(10).instantiate(&mut flowtree_workloads::rng(13));
    let m = 4;
    for s in SchedulerSpec::matrix() {
        let batch = summarize("analytics", &inst, m, s).expect("batch run");
        let cfg = ServeConfig::builder(s, m).scenario("analytics").build().expect("valid config");
        let pool = ShardPool::launch(cfg).expect("launch");
        pool.handle()
            .run_source(&mut ReplaySource::from_instance(&inst))
            .expect("stream");
        let results = pool.drain().expect("drain");
        assert_eq!(results[0].summary, batch, "{} diverges from batch", s.name());
    }
}

#[test]
fn multi_shard_overload_backpressure_loses_nothing_and_conserves_work() {
    // queue_cap 2 with 60 arrivals over 3 shards forces real backpressure;
    // Block must neither deadlock nor drop.
    let scenario = Scenario::service(1);
    let mut src = GeneratorSource::new(&scenario, 2.0, 60, 11);
    let cfg = ServeConfig::builder(spec("fifo"), 2)
        .shards(3)
        .queue_cap(2)
        .scenario("overload")
        .routing(Routing::LeastLoaded)
        .build()
        .expect("valid config");
    let pool = ShardPool::launch(cfg).expect("launch");
    let offered = pool.handle().run_source(&mut src).expect("stream");
    assert_eq!(offered, 60);

    let snap = pool.handle().snapshot();
    assert_eq!(snap.ingest.offered, 60);
    assert_eq!(snap.ingest.delivered, 60);
    assert_eq!(snap.ingest.dropped, 0);

    let results = pool.drain().expect("drain");
    assert_eq!(results.len(), 3, "drain emits one result per shard");
    let total: usize = results.iter().map(|r| r.summary.jobs).sum();
    assert_eq!(total, 60, "no job lost under backpressure");
    for r in &results {
        assert_eq!(r.summary.jobs, r.instance.num_jobs());
        // FIFO is work-conserving; the per-shard streaming monitor must
        // agree (Lemma 5.5 on each shard's sub-instance).
        assert!(r.summary.invariants_clean, "shard {}: {:?}", r.shard, r.summary.violations);
        r.report.verify(&r.instance).expect("feasible shard schedule");
    }
}

/// Drop and redirect deliver per arrival whether the router was handed a
/// one-job batch or a coalesced one; both batch sizes must keep the books.
#[test]
fn drop_newest_accounts_for_every_offered_job() {
    for ingest_batch in [1, 32] {
        let scenario = Scenario::analytics(1);
        let mut src = GeneratorSource::new(&scenario, 4.0, 40, 3);
        let cfg = ServeConfig::builder(spec("fifo"), 2)
            .shards(2)
            .queue_cap(1)
            .policy(OverloadPolicy::DropNewest)
            .ingest_batch(ingest_batch)
            .scenario("shed")
            .build()
            .expect("valid config");
        let pool = ShardPool::launch(cfg).expect("launch");
        let offered = pool.handle().run_source(&mut src).expect("stream");
        let ingest = pool.handle().ingest();
        let results = pool.drain().expect("drain");
        let admitted: u64 = results.iter().map(|r| r.summary.jobs as u64).sum();
        assert_eq!(ingest.delivered, admitted);
        assert_eq!(
            admitted + ingest.dropped,
            offered,
            "every offer is admitted or counted dropped (batch {ingest_batch})"
        );
        for r in &results {
            assert!(r.summary.invariants_clean);
        }
    }
}

#[test]
fn redirect_policy_never_loses_jobs() {
    for ingest_batch in [1, 32] {
        let scenario = Scenario::service(1);
        let mut src = GeneratorSource::new(&scenario, 3.0, 30, 5);
        let cfg = ServeConfig::builder(spec("fifo"), 2)
            .shards(2)
            .queue_cap(1)
            .policy(OverloadPolicy::Redirect)
            .ingest_batch(ingest_batch)
            .scenario("redirect")
            .build()
            .expect("valid config");
        let pool = ShardPool::launch(cfg).expect("launch");
        let offered = pool.handle().run_source(&mut src).expect("stream");
        let results = pool.drain().expect("drain");
        let admitted: u64 = results.iter().map(|r| r.summary.jobs as u64).sum();
        assert_eq!(
            admitted, offered,
            "redirect degrades to backpressure, never loss (batch {ingest_batch})"
        );
    }
}

#[test]
fn store_roundtrips_and_trend_renders_across_runs() {
    let dir = std::env::temp_dir().join(format!("flowtree-store-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultsStore::open(&dir).expect("open store");

    let inst = Scenario::sort_farm(6).instantiate(&mut flowtree_workloads::rng(2));
    for name in ["fifo", "lpf"] {
        let summary = summarize("sort-farm", &inst, 4, spec(name)).expect("batch run");
        let record = StoreRecord {
            run_id: flowtree_serve::run_id("sort-farm", name, 4, 2),
            git: "test".to_string(),
            shard: 0,
            shards: 1,
            summary,
            swaps: Vec::new(),
        };
        let path = store.append(&record).expect("append");
        assert!(path.exists());
    }

    let records = store.load().expect("load store");
    assert_eq!(records.len(), 2);
    assert!(records.iter().any(|r| r.summary.scheduler == "fifo"));
    assert!(records.iter().any(|r| r.summary.scheduler == "lpf"));

    let tables = flowtree_serve::trend_tables(&records);
    assert_eq!(tables.len(), 1, "one (scenario, m) group");
    assert_eq!(tables[0].len(), 2, "one row per record");

    let md = flowtree_serve::render_trend(&records);
    assert!(md.contains("sort-farm") && md.contains("fifo") && md.contains("lpf"), "{md}");

    let plots = flowtree_serve::render_trend_plots(&records);
    assert!(plots.contains("ratio trend") && plots.contains("runs:"), "{plots}");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn serve_results_persist_and_reload_through_the_store() {
    // End to end: pool -> store -> load -> trend.
    let dir = std::env::temp_dir().join(format!("flowtree-serve-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultsStore::open(&dir).expect("open store");

    let inst = Scenario::service(12).instantiate(&mut flowtree_workloads::rng(21));
    let cfg = ServeConfig::builder(spec("fifo"), 2)
        .shards(2)
        .scenario("service")
        .build()
        .expect("valid config");
    let pool = ShardPool::launch(cfg).expect("launch");
    pool.handle()
        .run_source(&mut ReplaySource::from_instance(&inst))
        .expect("stream");
    let results = pool.drain().expect("drain");
    let shards = results.len();
    for r in &results {
        let record = StoreRecord {
            run_id: flowtree_serve::run_id("service", "fifo", 2, 21),
            git: flowtree_serve::git_describe(),
            shard: r.shard,
            shards,
            summary: r.summary.clone(),
            swaps: r.swaps.clone(),
        };
        store.append(&record).expect("append");
    }
    let back = store.load().expect("reload");
    assert_eq!(back.len(), shards);
    for (record, r) in back.iter().zip(&results) {
        assert_eq!(record.summary, r.summary, "summary survives the JSONL roundtrip");
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
