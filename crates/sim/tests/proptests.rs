//! Property tests for the simulator substrate: random instances, random
//! work-conserving decisions — feasibility and accounting invariants must
//! hold unconditionally.

use flowtree_dag::{GraphBuilder, JobGraph, NodeId, Time};
use flowtree_sim::metrics::flow_stats;
use flowtree_sim::{
    Clairvoyance, Engine, Instance, JobId, JobSpec, OnlineScheduler, Selection, SimState, SimView,
};
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

fn arb_instance(max_jobs: usize, max_n: usize, max_r: Time) -> impl Strategy<Value = Instance> {
    proptest::collection::vec((arb_tree(max_n), 0..=max_r), 1..=max_jobs).prop_map(|jobs| {
        Instance::new(jobs.into_iter().map(|(graph, release)| JobSpec { graph, release }).collect())
    })
}

/// A work-conserving scheduler whose per-step choices are driven by a seed —
/// a stand-in for "any scheduler" in feasibility properties.
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
        // Work-conserving but otherwise arbitrary: gather the whole ready
        // pool, shuffle it with the seeded generator, take up to m.
        let mut pool: Vec<(flowtree_dag::JobId, u32)> = Vec::new();
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engine_output_always_verifies(inst in arb_instance(5, 12, 10), m in 1usize..6, seed in 1u64..5000) {
        let mut sched = SeededGreedy { state: seed };
        let s = Engine::new(m)
            .with_max_horizon(100_000)
            .run(&inst, &mut sched)
            .expect("greedy completes");
        prop_assert_eq!(s.verify(&inst), Ok(()));
        let stats = flow_stats(&inst, &s);
        // Flow >= span of each job.
        for (id, spec) in inst.iter() {
            prop_assert!(stats.flows[id.index()] >= spec.graph.span());
        }
        // Makespan sanity: at least ceil(total work / m) after last release.
        prop_assert!(stats.makespan >= inst.total_work().div_ceil(m as u64));
        prop_assert!(stats.makespan <= inst.last_release() + inst.total_work() + 1);
    }

    #[test]
    fn completion_times_cover_all_jobs(inst in arb_instance(4, 10, 6), seed in 1u64..1000) {
        let mut sched = SeededGreedy { state: seed };
        let s = Engine::new(3).with_max_horizon(100_000).run(&inst, &mut sched).unwrap();
        let completions = s.completion_times(&inst);
        for (i, c) in completions.iter().enumerate() {
            let c = c.expect("every job completes");
            prop_assert!(c > inst.jobs()[i].release);
        }
    }

    #[test]
    fn schedule_loads_bounded_by_m(inst in arb_instance(4, 10, 6), m in 1usize..5, seed in 1u64..1000) {
        let mut sched = SeededGreedy { state: seed };
        let s = Engine::new(m).with_max_horizon(100_000).run(&inst, &mut sched).unwrap();
        for t in 1..=s.horizon() {
            prop_assert!(s.load(t) <= m);
        }
        // Total scheduled = total work.
        let total: usize = (1..=s.horizon()).map(|t| s.load(t)).sum();
        prop_assert_eq!(total as u64, inst.total_work());
    }

    #[test]
    fn speed_augmentation_invariants(inst in arb_instance(4, 10, 6), s in 1u64..4, seed in 1u64..500) {
        let mut sched = SeededGreedy { state: seed };
        let run = flowtree_sim::speed::run_with_speed(&inst, 2, s, &mut sched, Some(1_000_000)).unwrap();
        // Macro flows are at least ceil(span / s).
        for (id, spec) in inst.iter() {
            prop_assert!(run.flows[id.index()] >= spec.graph.span().div_ceil(s));
            prop_assert!(run.flows[id.index()] >= 1);
        }
        prop_assert_eq!(run.micro_schedule.verify(&run.scaled_instance), Ok(()));
    }
}

/// A naive became-ready record kept beside a [`SimState`]: the order in
/// which each node was enabled (roots at release in id order, children as
/// each completion enables them), and which nodes are done.
struct NaiveLog {
    enabled: Vec<Vec<Option<u64>>>,
    done: Vec<Vec<bool>>,
    next: u64,
}

impl NaiveLog {
    fn new(inst: &Instance) -> Self {
        NaiveLog {
            enabled: inst.jobs().iter().map(|j| vec![None; j.graph.n()]).collect(),
            done: inst.jobs().iter().map(|j| vec![false; j.graph.n()]).collect(),
            next: 0,
        }
    }

    fn enable(&mut self, job: JobId, v: u32) {
        self.enabled[job.index()][v as usize] = Some(self.next);
        self.next += 1;
    }

    fn release(&mut self, inst: &Instance, job: JobId) {
        let g = inst.graph(job);
        let heads: Vec<u32> = g.edges().iter().map(|&(_, v)| v).collect();
        for v in g.nodes().filter(|&v| !heads.contains(&v.0)) {
            self.enable(job, v.0);
        }
    }

    fn complete(&mut self, inst: &Instance, job: JobId, v: NodeId) {
        let (g, j) = (inst.graph(job), job.index());
        self.done[j][v.index()] = true;
        let edges = g.edges();
        for c in g.children(v) {
            if edges.iter().all(|&(u, w)| w != c || self.done[j][u as usize]) {
                self.enable(job, c);
            }
        }
    }

    /// Ready nodes of `job`, earliest enabled first.
    fn ready_in_order(&self, job: JobId) -> Vec<u32> {
        let j = job.index();
        let mut ready: Vec<(u64, u32)> = (0..self.done[j].len())
            .filter(|&v| !self.done[j][v])
            .filter_map(|v| self.enabled[j][v].map(|e| (e, v as u32)))
            .collect();
        ready.sort_unstable();
        ready.into_iter().map(|(_, v)| v).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The became-ready log, read earliest first and latest first at every
    /// step, lists exactly the ready nodes in the naive order, whatever
    /// order completions arrive in: a FIFO-like picker (from the log's
    /// front) until `switch`, then an LPF-like one (tallest ready nodes),
    /// each step's picks completed in a shuffled order. The latest-first
    /// reads walk over completed entries, so the log is also compacted
    /// along the way.
    #[test]
    fn became_ready_log_matches_naive_order(
        inst in arb_instance(4, 14, 6),
        m in 1usize..5,
        switch in 0u64..30,
        seed in 1u64..1000,
    ) {
        let mut st = SimState::new(&inst);
        let mut naive = NaiveLog::new(&inst);
        let mut rng = SeededGreedy { state: seed };
        for t in 0.. {
            for job in st.release_due(&inst, t) {
                naive.release(&inst, job);
            }
            let mut picks: Vec<(JobId, NodeId)> = Vec::new();
            for &job in st.alive() {
                let want = naive.ready_in_order(job);
                let got: Vec<u32> = st.became_ready(job).map(|v| v.0).collect();
                prop_assert_eq!(&got, &want, "t={} {}", t, job);
                let latest: Vec<u32> = st.became_ready(job).rev().map(|v| v.0).collect();
                prop_assert!(latest.iter().eq(want.iter().rev()), "t={} {} reversed", t, job);
                let room = m - picks.len();
                if t < switch {
                    picks.extend(st.became_ready(job).take(room).map(|v| (job, v)));
                } else {
                    let h = inst.graph(job).heights();
                    let mut tallest = st.ready(job).to_vec();
                    tallest.sort_by_key(|&v| std::cmp::Reverse(h.get(v as usize)));
                    picks.extend(tallest.into_iter().take(room).map(|v| (job, NodeId(v))));
                }
            }
            for i in 0..picks.len() {
                let j = i + (rng.next() as usize) % (picks.len() - i);
                picks.swap(i, j);
            }
            for &(job, v) in &picks {
                st.complete(&inst, job, v, t + 1);
                naive.complete(&inst, job, v);
            }
            st.prune_alive();
            if st.all_done() {
                break;
            }
        }
    }
}

#[test]
fn seeded_greedy_is_deterministic() {
    let inst = Instance::new(vec![
        JobSpec { graph: flowtree_dag::builder::star(6), release: 0 },
        JobSpec { graph: flowtree_dag::builder::chain(4), release: 1 },
    ]);
    let a = Engine::new(2)
        .with_max_horizon(10_000)
        .run(&inst, &mut SeededGreedy { state: 7 })
        .unwrap();
    let b = Engine::new(2)
        .with_max_horizon(10_000)
        .run(&inst, &mut SeededGreedy { state: 7 })
        .unwrap();
    assert_eq!(a, b);
}
