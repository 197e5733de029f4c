//! # flowtree
//!
//! A from-scratch Rust implementation of *Scheduling Out-Trees Online to
//! Optimize Maximum Flow* (Agrawal, Moseley, Newman, Pruhs — SPAA 2024):
//! online scheduling of dynamic-multithreaded jobs (DAGs of unit subjobs)
//! on `m` identical processors to minimize the **maximum flow time**,
//! without resource augmentation.
//!
//! ## What's inside
//!
//! * [`dag`] — the job model: out-trees/out-forests, series-parallel DAGs,
//!   depth profiles (`W(d)`), heights/spans.
//! * [`sim`] — the discrete-time simulator: [`sim::Engine`] drives any
//!   [`sim::OnlineScheduler`] and every schedule is re-checked by an
//!   independent feasibility verifier.
//! * [`core`] — the paper's algorithms: FIFO with pluggable intra-job
//!   tie-breaks, Longest Path First, the Most-Children replay, Algorithm 𝒜
//!   (129-competitive, semi-batched) and the guess-and-double wrapper
//!   (1548-competitive, fully online).
//! * [`opt`] — exact optima and certified lower bounds (Lemma 5.1,
//!   Corollary 5.4, branch-and-bound, Hu, Brucker–Garey–Johnson).
//! * [`workloads`] — generators, including the Section 4 adaptive adversary
//!   and certified known-OPT packed batched instances.
//! * [`analysis`] — the experiment harness reproducing every figure and
//!   theorem (E1–E17; see `DESIGN.md` / `EXPERIMENTS.md`).
//!
//! ## Quickstart
//!
//! ```
//! use flowtree::prelude::*;
//!
//! // Two quicksort-shaped jobs arriving over time on 4 processors.
//! let jobs = vec![
//!     JobSpec { graph: flowtree::dag::builder::quicksort_tree(64, 1, 2, 1), release: 0 },
//!     JobSpec { graph: flowtree::dag::builder::quicksort_tree(64, 1, 2, 1), release: 3 },
//! ];
//! let instance = Instance::new(jobs);
//!
//! let schedule = Engine::new(4)
//!     .run(&instance, &mut Fifo::arbitrary())
//!     .expect("FIFO always completes");
//! schedule.verify(&instance).expect("engine output is feasible");
//!
//! let stats = flowtree::sim::metrics::flow_stats(&instance, &schedule);
//! assert!(stats.max_flow >= instance.per_job_lower_bound(4));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use flowtree_analysis as analysis;
pub use flowtree_core as core;
pub use flowtree_dag as dag;
pub use flowtree_opt as opt;
pub use flowtree_sim as sim;
pub use flowtree_workloads as workloads;

/// The most common imports in one place.
pub mod prelude {
    pub use flowtree_core::{AlgoA, Fifo, GuessDoubleA, McReplay, TieBreak};
    pub use flowtree_dag::{JobGraph, JobId, NodeId, Time};
    pub use flowtree_sim::{
        Clairvoyance, Engine, Instance, JobSpec, OnlineScheduler, Schedule, Selection, SimView,
    };
}
