//! # flowtree-dag — the job model
//!
//! This crate implements the job model of *Scheduling Out-Trees Online to
//! Optimize Maximum Flow* (SPAA 2024), Section 3:
//!
//! * A **job** is a directed acyclic graph whose vertices (**subjobs**) are
//!   unit-time atomic computation steps and whose edges are precedence
//!   constraints: an edge `(u, v)` means `u` must complete before `v` starts.
//! * An **out-tree** is a job whose underlying graph is a rooted tree with all
//!   edges directed away from the root; an **out-forest** is a disjoint union
//!   of out-trees. The paper's positive results (Section 5) apply to
//!   out-forests; its lower bound (Section 4) already holds for out-trees.
//! * **Series-parallel** DAGs model fork-join programs (spawn/sync,
//!   parallel-for); the paper's introduction motivates the model with these.
//!
//! The central type is [`JobGraph`], a compact CSR (compressed sparse row)
//! representation that also holds each node's height and the number of
//! nodes at each depth, computed once when the graph is built. On top of it this crate
//! provides:
//!
//! * structural metrics — [`JobGraph::work`], [`JobGraph::span`], per-node
//!   [`heights`](JobGraph::heights) and [`depths`](JobGraph::depths), and the
//!   depth profile `W(d)` ([`profile::DepthProfile`]) that drives the paper's
//!   Lemma 5.1 / Corollary 5.4;
//! * shape constructors for common out-trees ([`builder`]);
//! * series-parallel composition ([`sp`]);
//! * classification predicates ([`classify`]): chain, out-forest, in-forest,
//!   layered;
//! * a depth-level text sketch ([`render`]) and serde round-tripping.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod classify;
pub mod graph;
pub mod profile;
pub mod render;
pub mod sp;

pub use graph::{GraphBuilder, GraphError, JobGraph, NodeId};
pub use profile::DepthProfile;

/// Discrete simulation time. Subjobs occupy unit intervals; a subjob
/// scheduled "at time `t`" runs during `(t-1, t]` in the paper's convention.
pub type Time = u64;

/// Identifier of a job within an instance (index into the instance's job
/// list). Jobs are independent: their vertex sets are disjoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u32);

serde::impl_serde_newtype!(JobId(u32));

impl JobId {
    /// The job id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "J{}", self.0)
    }
}
