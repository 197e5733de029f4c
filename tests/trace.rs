//! Trace-subsystem integration tests: a golden JSONL trace for a fixed
//! instance, and property tests checking that the schedule and metrics
//! rebuilt from a [`JsonlTrace`] stream agree with the engine's own
//! [`RunReport`] counters and with `metrics::flow_stats`. The tests read
//! the stream as plain JSON values, so they pin the format itself.

use flowtree::core::{Fifo, TieBreak};
use flowtree::dag::builder::{chain, star};
use flowtree::dag::NodeId;
use flowtree::prelude::*;
use flowtree::sim::metrics::flow_stats;
use flowtree::sim::{JsonlTrace, RunReport};
use proptest::prelude::*;
use serde_json::Value;

/// Run `sched` with a JSONL trace attached (idle gaps folded into `idle`
/// records when `compact`); return the trace text and report.
fn traced_run(
    inst: &Instance,
    m: usize,
    sched: &mut dyn OnlineScheduler,
    compact: bool,
) -> (String, RunReport) {
    let mut trace = JsonlTrace::new(Vec::new()).compact_idle(compact);
    let report = Engine::new(m)
        .with_max_horizon(100_000)
        .with_probe(&mut trace)
        .run(inst, sched)
        .unwrap();
    let jsonl = String::from_utf8(trace.finish().unwrap()).unwrap();
    (jsonl, report)
}

/// The exact event stream for a fixed two-job instance under FIFO on two
/// processors. Every line is hand-checkable: job 0 is chain(3) released at
/// 0 (one node per step, completes at 3); job 1 is star(3) (root + three
/// leaves) released at 1, FIFO gives it the spare processor each step.
#[test]
fn golden_trace_for_fixed_instance() {
    let inst = Instance::new(vec![
        JobSpec { graph: chain(3), release: 0 },
        JobSpec { graph: star(3), release: 1 },
    ]);
    let (jsonl, report) = traced_run(&inst, 2, &mut Fifo::new(TieBreak::BecameReady), false);
    let golden = "\
{\"ev\":\"start\",\"m\":2,\"jobs\":2}
{\"ev\":\"release\",\"t\":0,\"job\":0}
{\"ev\":\"step\",\"t\":0,\"picks\":[[0,0]],\"idle\":1,\"ready\":1}
{\"ev\":\"release\",\"t\":1,\"job\":1}
{\"ev\":\"step\",\"t\":1,\"picks\":[[0,1],[1,0]],\"idle\":0,\"ready\":2}
{\"ev\":\"step\",\"t\":2,\"picks\":[[0,2],[1,1]],\"idle\":0,\"ready\":4}
{\"ev\":\"complete\",\"t\":3,\"job\":0}
{\"ev\":\"step\",\"t\":3,\"picks\":[[1,2],[1,3]],\"idle\":0,\"ready\":2}
{\"ev\":\"complete\",\"t\":4,\"job\":1}
{\"ev\":\"finish\",\"horizon\":4}
";
    assert_eq!(jsonl, golden);
    assert_eq!(report.stats.flows, vec![3, 3]);
    assert_eq!(rebuild(&jsonl).schedule, report.schedule);
}

/// The exact event streams — compact and stepwise — for an instance whose
/// run crosses an idle gap: chain(1) at 0 drains in one step, then nothing
/// until chain(2) arrives at 5. With `compact_idle` the four empty steps
/// collapse into a single `idle` record; without it they appear verbatim.
/// Both streams must rebuild the engine's own schedule and flows.
#[test]
fn golden_trace_with_idle_gap_in_both_modes() {
    let inst = Instance::new(vec![
        JobSpec { graph: chain(1), release: 0 },
        JobSpec { graph: chain(2), release: 5 },
    ]);
    let common_head = "\
{\"ev\":\"start\",\"m\":2,\"jobs\":2}
{\"ev\":\"release\",\"t\":0,\"job\":0}
{\"ev\":\"step\",\"t\":0,\"picks\":[[0,0]],\"idle\":1,\"ready\":1}
{\"ev\":\"complete\",\"t\":1,\"job\":0}
";
    let common_tail = "\
{\"ev\":\"release\",\"t\":5,\"job\":1}
{\"ev\":\"step\",\"t\":5,\"picks\":[[1,0]],\"idle\":1,\"ready\":1}
{\"ev\":\"step\",\"t\":6,\"picks\":[[1,1]],\"idle\":1,\"ready\":1}
{\"ev\":\"complete\",\"t\":7,\"job\":1}
{\"ev\":\"finish\",\"horizon\":7}
";
    let stepwise_gap = "\
{\"ev\":\"step\",\"t\":1,\"picks\":[],\"idle\":2,\"ready\":0}
{\"ev\":\"step\",\"t\":2,\"picks\":[],\"idle\":2,\"ready\":0}
{\"ev\":\"step\",\"t\":3,\"picks\":[],\"idle\":2,\"ready\":0}
{\"ev\":\"step\",\"t\":4,\"picks\":[],\"idle\":2,\"ready\":0}
";
    let compact_gap = "{\"ev\":\"idle\",\"t0\":1,\"steps\":4}\n";

    for (compact, gap) in [(false, stepwise_gap), (true, compact_gap)] {
        let (jsonl, report) = traced_run(&inst, 2, &mut Fifo::new(TieBreak::BecameReady), compact);
        assert_eq!(jsonl, format!("{common_head}{gap}{common_tail}"), "compact={compact}");
        let rebuilt = rebuild(&jsonl);
        assert_eq!(rebuilt.schedule, report.schedule, "compact={compact}");
        assert_eq!(rebuilt.flows, vec![Some(1), Some(2)], "compact={compact}");
        assert_eq!(report.stats.flows, vec![1, 2]);
    }
}

/// Random out-tree via the recursive-attachment process (mirrors the
/// simulator crate's own property-test generator).
fn arb_tree(max_n: usize) -> impl Strategy<Value = JobGraph> {
    (1..=max_n).prop_flat_map(|n| {
        proptest::collection::vec(0..usize::MAX, n.saturating_sub(1)).prop_map(move |cs| {
            let mut b = flowtree::dag::GraphBuilder::new(n);
            for (i, &c) in cs.iter().enumerate() {
                b.edge((c % (i + 1)) as u32, (i + 1) as u32);
            }
            b.build().unwrap()
        })
    })
}

fn arb_instance(max_jobs: usize, max_n: usize, max_r: Time) -> impl Strategy<Value = Instance> {
    proptest::collection::vec((arb_tree(max_n), 0..=max_r), 1..=max_jobs).prop_map(|jobs| {
        Instance::new(jobs.into_iter().map(|(graph, release)| JobSpec { graph, release }).collect())
    })
}

/// A work-conserving scheduler driven by a seed — "any scheduler" for the
/// agreement properties below.
struct SeededGreedy {
    state: u64,
}

impl SeededGreedy {
    fn next(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state
    }
}

impl OnlineScheduler for SeededGreedy {
    fn clairvoyance(&self) -> Clairvoyance {
        Clairvoyance::NonClairvoyant
    }
    fn select(&mut self, _t: Time, view: &SimView<'_>, sel: &mut Selection) {
        let mut pool: Vec<(JobId, u32)> = Vec::new();
        for &job in view.alive() {
            for &v in view.ready(job) {
                pool.push((job, v));
            }
        }
        let take = pool.len().min(sel.remaining());
        for i in 0..take {
            let j = i + (self.next() as usize) % (pool.len() - i);
            pool.swap(i, j);
            let (job, v) = pool[i];
            sel.push(job, NodeId(v));
        }
    }
}

/// Counters, flows and the schedule rebuilt from the trace text alone.
struct Rebuilt {
    steps: u64,
    dispatched: u64,
    idle_slots: u64,
    idle_steps: u64,
    max_ready_depth: usize,
    makespan: Time,
    flows: Vec<Option<Time>>,
    schedule: Schedule,
}

fn uint(v: &Value, key: &str) -> u64 {
    v.get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("no `{key}` in {v:?}"))
}

/// Read every line as a JSON value (each must parse) and rebuild the run:
/// `step` records extend the schedule in time order, `idle` records add
/// empty steps, and `release`/`complete` records give each job's flow.
fn rebuild(jsonl: &str) -> Rebuilt {
    let mut records = jsonl.lines().map(|l| serde_json::from_str::<Value>(l).unwrap());
    let start = records.next().expect("empty trace");
    assert_eq!(start.get("ev").and_then(Value::as_str), Some("start"));
    let m = uint(&start, "m") as usize;
    let jobs = uint(&start, "jobs") as usize;
    let mut r = Rebuilt {
        steps: 0,
        dispatched: 0,
        idle_slots: 0,
        idle_steps: 0,
        max_ready_depth: 0,
        makespan: 0,
        flows: vec![None; jobs],
        schedule: Schedule::new(m),
    };
    let mut releases = vec![None; jobs];
    let mut finished = false;
    for v in records {
        assert!(!finished, "record after finish: {v:?}");
        match v.get("ev").and_then(Value::as_str).expect("record without `ev`") {
            "release" => releases[uint(&v, "job") as usize] = Some(uint(&v, "t")),
            "complete" => {
                let (t, job) = (uint(&v, "t"), uint(&v, "job") as usize);
                let release = releases[job].expect("complete before release");
                r.flows[job] = Some(t - release);
                r.makespan = r.makespan.max(t);
            }
            "step" => {
                assert_eq!(uint(&v, "t"), r.steps, "steps out of order");
                let picks: Vec<(JobId, NodeId)> = v
                    .get("picks")
                    .and_then(Value::as_array)
                    .expect("step without picks")
                    .iter()
                    .map(|p| match p.as_array() {
                        Some([j, n]) => {
                            (JobId(j.as_u64().unwrap() as u32), NodeId(n.as_u64().unwrap() as u32))
                        }
                        _ => panic!("pick is not a [job, node] pair: {p:?}"),
                    })
                    .collect();
                let (idle, ready) = (uint(&v, "idle"), uint(&v, "ready") as usize);
                assert_eq!(picks.len() as u64 + idle, m as u64);
                r.schedule.extend_step(&picks);
                r.steps += 1;
                r.dispatched += picks.len() as u64;
                r.idle_slots += idle;
                if idle > 0 {
                    r.idle_steps += 1;
                }
                r.max_ready_depth = r.max_ready_depth.max(ready);
            }
            "idle" => {
                assert_eq!(uint(&v, "t0"), r.steps, "idle gap out of order");
                let steps = uint(&v, "steps");
                r.schedule.push_empty_steps(steps);
                r.steps += steps;
                r.idle_slots += steps * m as u64;
                r.idle_steps += steps;
            }
            "finish" => {
                assert_eq!(uint(&v, "horizon"), r.steps);
                finished = true;
            }
            other => panic!("unknown event `{other}`"),
        }
    }
    assert!(finished, "trace without finish");
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The three metric sources agree on every random run: the trace
    /// stream, the engine's internal counters, and the from-scratch
    /// `flow_stats` recomputation.
    #[test]
    fn trace_counters_and_flow_stats_agree(
        inst in arb_instance(5, 10, 8),
        m in 1usize..5,
        seed in 1u64..5000,
        compact in (0u8..2).prop_map(|b| b == 1),
    ) {
        let (jsonl, report) = traced_run(&inst, m, &mut SeededGreedy { state: seed }, compact);

        // 1. Trace records vs the engine's internal counters.
        let rebuilt = rebuild(&jsonl);
        let c = &report.counters;
        prop_assert_eq!(rebuilt.steps, c.steps);
        prop_assert_eq!(rebuilt.dispatched, c.dispatched);
        prop_assert_eq!(rebuilt.idle_slots, c.idle_slots);
        prop_assert_eq!(rebuilt.idle_steps, c.idle_steps);
        prop_assert_eq!(rebuilt.max_ready_depth, c.max_ready_depth);
        prop_assert_eq!(rebuilt.makespan, c.makespan);
        prop_assert_eq!(&rebuilt.flows, &c.flows);

        // 2. Rebuilt schedule and flows vs the from-scratch metrics.
        prop_assert_eq!(&rebuilt.schedule, &report.schedule);
        let stats = flow_stats(&inst, &report.schedule);
        let traced: Vec<Time> = rebuilt.flows.iter().map(|f| f.unwrap()).collect();
        prop_assert_eq!(&traced, &stats.flows);
        prop_assert_eq!(traced.iter().max().copied(), Some(stats.max_flow));

        // 3. The report's cached stats are that same recomputation.
        prop_assert_eq!(&report.stats.flows, &stats.flows);
        let counter_flows: Vec<Time> = c.flows.iter().map(|f| f.unwrap()).collect();
        prop_assert_eq!(&counter_flows, &stats.flows);
        prop_assert_eq!(c.steps, report.schedule.horizon());
        prop_assert_eq!(c.dispatched, inst.total_work());
    }

    /// Attaching a probe never changes the schedule itself.
    #[test]
    fn probe_does_not_perturb_the_run(
        inst in arb_instance(4, 8, 6),
        seed in 1u64..1000,
    ) {
        let bare = Engine::new(3)
            .with_max_horizon(100_000)
            .run(&inst, &mut SeededGreedy { state: seed })
            .unwrap();
        let (_, probed) = traced_run(&inst, 3, &mut SeededGreedy { state: seed }, false);
        prop_assert_eq!(bare.schedule, probed.schedule);
        prop_assert_eq!(bare.counters, probed.counters);
    }
}
