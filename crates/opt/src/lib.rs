//! # flowtree-opt — optimal values, certified lower bounds, classical exact
//! algorithms
//!
//! Measuring a competitive ratio needs a reference value. This crate provides
//! the paper's own bounds plus exact machinery:
//!
//! * [`bounds`] — per-job lower bounds on the optimal maximum flow: span,
//!   work, and the depth-profile bound of **Lemma 5.1**
//!   (`OPT >= d + ceil(W(d)/m)`).
//! * [`single`] — **Corollary 5.4**: the exact optimal maximum flow of a
//!   single out-forest release group, `OPT = max_d (d + ceil(W(d)/m))`; for
//!   one job that is [`job_lower_bound`] itself.
//! * [`interval`] — a multi-job *interval load* lower bound: work released
//!   inside a window must fit between the window start and the last deadline.
//! * [`exact`] — exact optimal maximum flow for small instances by binary
//!   search over the objective plus memoized depth-first feasibility search.
//!   Used to validate every approximate bound and the optimality claims.
//!
//! The classical in-forest algorithms the paper's related work builds on —
//! Hu's highest-level-first (1961, makespan) and Brucker–Garey–Johnson
//! (deadlines, max lateness) — live in this crate's test tree
//! (`tests/oracles/`), where they cross-check the exact searcher and the
//! Corollary 5.4 formula.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod exact;
pub mod interval;
pub mod single;

pub use bounds::{combined_lower_bound, job_lower_bound};
pub use exact::exact_max_flow;
pub use single::single_group_opt;
