//! # flowtree-sim — discrete-time multiprocessor scheduling simulator
//!
//! Implements the execution model of *Scheduling Out-Trees Online to Optimize
//! Maximum Flow* (SPAA 2024), Section 3:
//!
//! * `m` identical processors, discrete unit time steps;
//! * jobs ([`Instance`]) are DAGs of unit subjobs with integer release times;
//! * a subjob is **ready** at time `t` if its job is released (`r_i <= t`),
//!   all its predecessors are complete by `t`, and it is not itself complete;
//! * at each time `t` an online scheduler selects up to `m` ready subjobs to
//!   run during step `t+1` (so they complete at `t+1`).
//!
//! The crate provides:
//!
//! * [`Instance`] — a job set with release times;
//! * [`OnlineScheduler`] — the scheduler trait, with clairvoyance expressed
//!   through what [`SimView`] exposes;
//! * [`Engine`] — the simulation loop, which *validates every selection*
//!   (readiness, distinctness, capacity) so a buggy scheduler cannot produce
//!   an infeasible schedule silently;
//! * [`Schedule`] — the recorded output, with an independent
//!   [feasibility checker](Schedule::verify) re-checking Section 3's four
//!   conditions from scratch;
//! * flow/utilization [`metrics`] and an ASCII [`gantt`] renderer used to
//!   reproduce the paper's Figure 1;
//! * a [`probe`] subsystem for per-step instrumentation — runs return a
//!   [`RunReport`] (schedule + stats + counters), and probes like
//!   [`JsonlTrace`] stream every event as JSON Lines. Probes compose as
//!   tuples (`(A, B)`, `(A, B, C)`) with zero dynamic dispatch;
//! * theory-aware [`monitor`]s (live Lemma 5.1 lower bound / competitive
//!   ratio, work-conservation and rectangle-tail invariant checking) and
//!   bounded-memory run [`histo`]grams for long-horizon observability.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod gantt;
pub mod histo;
pub mod instance;
pub mod metrics;
pub mod monitor;
pub mod probe;
pub mod schedule;
pub mod scheduler;
pub mod session;
pub mod speed;
pub mod state;
pub mod trace;

pub use engine::{Engine, EngineError, RunReport};
pub use histo::{LogHistogram, RunHistograms};
pub use instance::{Instance, JobSpec};
pub use metrics::FlowStats;
pub use monitor::{
    HeadTailChecks, InvariantChecks, InvariantMonitor, InvariantRule, LowerBound, Violation,
};
pub use probe::{Counters, JsonlTrace, NullProbe, Probe, StepStat};
pub use schedule::{FeasibilityError, Schedule};
pub use scheduler::{Clairvoyance, OnlineScheduler, Selection, SimView};
pub use session::{Session, SessionError};
pub use state::{ReadyLog, SimState};

pub use flowtree_dag::{JobId, NodeId, Time};
