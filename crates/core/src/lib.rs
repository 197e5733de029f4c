//! # flowtree-core — the SPAA 2024 schedulers
//!
//! This crate implements every scheduling algorithm of *Scheduling Out-Trees
//! Online to Optimize Maximum Flow* (SPAA 2024):
//!
//! * [`fifo`] — the FIFO family (Section 3's definition): allocate processors
//!   to alive jobs in arrival order; a pluggable [`fifo::TieBreak`] decides
//!   *which* ready subjobs run when a job gets fewer processors than it has
//!   ready subjobs — the intra-job decision the paper shows can cost
//!   Ω(log m).
//! * [`lpf`] — Longest Path First (Section 5.1): the clairvoyant single-job
//!   policy that is optimal on `m` processors and α-competitive on `m/α`,
//!   plus the head/tail decomposition of Figure 2.
//! * [`mc`] — the Most-Children replay (Section 5.2): re-executes a given
//!   feasible schedule under fluctuating processor counts without idling a
//!   granted processor (Lemma 5.5).
//! * [`algo_a`] — Algorithm 𝒜 (Section 5.3): the O(1)-competitive
//!   super-clairvoyant algorithm for semi-batched out-forest instances,
//!   with the Section 5.4 batching reduction built in.
//! * [`guess_double`] — the Section 5.4 guess-and-double wrapper removing
//!   the a-priori knowledge of OPT (the fully general 1548-competitive
//!   clairvoyant algorithm of Theorem 5.7).
//! * [`baselines`] — classical comparators: Graham list scheduling,
//!   round-robin equipartition, random work-conserving.
//! * [`registry`] — a declarative [`SchedulerSpec`] covering every entry
//!   above, shared by the CLI, the E16 matrix, and the benchmarks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algo_a;
pub mod baselines;
pub mod fifo;
pub mod guess_double;
pub mod lpf;
pub mod mc;
pub mod registry;

pub use algo_a::AlgoA;
pub use fifo::{Fifo, TieBreak};
pub use guess_double::GuessDoubleA;
pub use mc::McReplay;
pub use registry::{SchedulerSpec, DEFAULT_HALF, SCHEDULER_NAMES};
