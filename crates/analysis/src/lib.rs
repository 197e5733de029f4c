//! # flowtree-analysis — the experiment harness
//!
//! Reproduces every figure and theorem of the paper as a measurable
//! experiment (the paper is pure theory, so "reproduction" means empirical
//! validation of each claim's *shape*: who wins, by what factor, where the
//! curves bend). The experiment index lives in `DESIGN.md`; each experiment
//! `E1`–`E17` is a module under [`experiments`] producing a [`Report`] of
//! markdown tables and ASCII figures.
//!
//! Infrastructure:
//!
//! * [`table`] — simple column-aligned markdown tables + CSV export;
//! * [`plot`] — ASCII scatter/line plots for ratio-vs-m style series;
//! * [`sweep`] — parallel parameter sweeps over scoped threads that claim
//!   indices from an atomic counter and return results over a std channel;
//! * [`ratio`] — run-scheduler-measure-ratio helpers used by most
//!   experiments;
//! * [`summary`] — one-run observability reports ([`RunSummary`]): counters,
//!   certified bounds and ratio, invariant verdicts, and histogram summaries
//!   from the `flowtree-sim` monitor/histogram probe stack.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod plot;
pub mod ratio;
pub mod report;
pub mod section6;
pub mod summary;
pub mod sweep;
pub mod table;

pub use report::Report;
pub use summary::{summarize, summary_from_parts, RunSummary};
pub use table::Table;

/// Effort level for experiments: `Quick` keeps every experiment under a few
/// seconds (used by tests and CI), `Full` uses the paper-scale parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Small parameters; seconds.
    Quick,
    /// Paper-scale parameters; minutes.
    Full,
}

impl Effort {
    /// Pick `q` under Quick and `f` under Full.
    pub fn pick<T>(self, q: T, f: T) -> T {
        match self {
            Effort::Quick => q,
            Effort::Full => f,
        }
    }
}
