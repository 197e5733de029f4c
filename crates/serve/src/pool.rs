//! The shard pool: bounded-queue routing of an arrival stream across N
//! engine shards, with a control plane for live scheduler hot-swap and
//! work stealing, explicit overload behavior, and graceful drain.
//!
//! Each shard is a worker thread (see [`crate::shard`]) behind a bounded
//! `std::sync::mpsc::sync_channel` of [`ShardCmd`]s. Two private helpers
//! are the only code that sends on it; each counts the command into the
//! shard's queue depth (kept in its telemetry cell) before the channel
//! operation, and the worker counts it out once received. Every offer —
//! one job through [`PoolHandle::offer`] or a batch through
//! [`PoolHandle::offer_batch`] — runs the same routing loop under **one**
//! router lock acquisition: it clamps the rare out-of-order release from a
//! misbehaving source (counting it in [`IngestStats::reordered`]), picks a
//! shard ([`Routing`]) per job, and delivers under the configured
//! [`OverloadPolicy`]. Every delivery is one [`ShardCmd::Admit`] of the
//! arrivals it carries. Under [`OverloadPolicy::Block`] same-shard
//! placements coalesce into one command per shard (one queue slot, one
//! channel op); drop and redirect decide per arrival. Sources
//! feed batches through [`PoolHandle::run_source`] via
//! [`ArrivalSource::next_batch`], bounded by [`ServeConfig::ingest_batch`]
//! jobs and a release span of [`ServeConfig::watermark_stride`], so
//! batching never changes event-time semantics — only how many channel
//! ops they cost.
//!
//! Event time propagates to the other shards as *watermarks*, flushed at
//! the end of every offer and at drain.
//! The router remembers the highest watermark each shard is known to have
//! (an admit carries its release for free) and never re-sends a value that
//! cannot advance it. Broadcasts use `try_send` and skip full queues
//! (counted in [`IngestStats::wm_skipped`], surfaced in the CLI drain
//! table): a full queue already holds a command whose eventual processing
//! advances that shard at least as far, so skipping cannot deadlock or
//! stall a shard forever — and the dedup ledger retries the skipped value
//! on the next broadcast anyway.
//!
//! With stealing enabled ([`StealConfig`]), an arrival whose target queue
//! is full is *staged* router-side instead of blocking the ingest thread.
//! When one shard's ingress backlog (queue + staged) sinks to the low
//! watermark while another's exceeds the high watermark, the router
//! migrates staged — never admitted — jobs to the underloaded shard in one
//! [`ShardCmd::Donate`] batch. A shard whose staged queue is nonempty has
//! its broadcast watermark capped at the staged front's release, so it can
//! never simulate past a job it has yet to receive.
//!
//! Runtime control (offer / swap / snapshot / drain request) is
//! a [`PoolHandle`]: a cheap clone that external front doors can drive
//! without owning the pool. [`ShardPool`] owns the worker threads and is
//! the only way to [`drain`](ShardPool::drain) and join them.

use std::collections::VecDeque;
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

use flowtree_core::SchedulerSpec;
use flowtree_dag::Time;
use flowtree_sim::JobSpec;

use crate::shard::{
    run_shard, Arrival, ShardCmd, ShardCtx, ShardResult, ShardSnapshot, SwapDirective,
};
use crate::source::ArrivalSource;
use crate::telemetry::{FlightEvent, FlightKind, MetricsSnapshot, Telemetry};

/// Capacity of each shard's control-plane flight ring (structured
/// swap/steal/overload events kept for diagnosis; oldest evicted when
/// full).
const FLIGHT_CAPACITY: usize = 256;

/// Everything that can go wrong launching or driving a pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The configuration failed validation (message says which field).
    InvalidConfig(String),
    /// A worker thread could not be spawned.
    Spawn(String),
    /// The pool's workers are gone (already drained or panicked); the
    /// handle can no longer deliver commands.
    PoolClosed,
    /// These shard workers panicked during drain; surviving shards'
    /// results are lost but the pool's telemetry (including each shard's
    /// flight ring, which records the panic) remains readable through any
    /// [`PoolHandle`].
    ShardPanicked(Vec<usize>),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::InvalidConfig(msg) => write!(f, "invalid serve config: {msg}"),
            ServeError::Spawn(msg) => write!(f, "failed to spawn shard worker: {msg}"),
            ServeError::PoolClosed => f.write_str("pool is closed (shards already drained)"),
            ServeError::ShardPanicked(shards) => {
                write!(f, "shard worker(s) panicked during drain: {shards:?}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ServeError> for String {
    fn from(e: ServeError) -> String {
        e.to_string()
    }
}

/// What to do with an arrival whose target shard queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Apply backpressure: block the ingest thread until there is room
    /// (never loses work; the default). With stealing enabled the arrival
    /// is staged router-side instead, so ingest never blocks.
    Block,
    /// Shed load: drop the arriving job (counted in
    /// [`IngestStats::dropped`]); its release still advances watermarks.
    DropNewest,
    /// Try every other shard in ascending queue-length order, falling back
    /// to a blocking send on the original target (never loses work).
    Redirect,
}

impl OverloadPolicy {
    /// CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            OverloadPolicy::Block => "block",
            OverloadPolicy::DropNewest => "drop",
            OverloadPolicy::Redirect => "redirect",
        }
    }
}

impl std::str::FromStr for OverloadPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "block" => Ok(OverloadPolicy::Block),
            "drop" => Ok(OverloadPolicy::DropNewest),
            "redirect" => Ok(OverloadPolicy::Redirect),
            other => {
                Err(format!("unknown overload policy '{other}'; known: block, drop, redirect"))
            }
        }
    }
}

impl std::fmt::Display for OverloadPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How the router picks a shard for each arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routing {
    /// Multiplicative hash of the arrival sequence number — stateless and
    /// uniform, like consistent hashing over a fixed ring.
    Hash,
    /// The shard with the fewest jobs assigned by the router so far (ties
    /// go to the lowest index). The ledger counts actual placements —
    /// redirects land where they land, stolen jobs move victim → thief —
    /// so placement is a pure function of the arrival sequence, never of
    /// shard timing; that determinism is what lets the differential suite
    /// compare batched and per-event ingest bit for bit under this routing
    /// too.
    LeastLoaded,
}

impl Routing {
    /// CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            Routing::Hash => "hash",
            Routing::LeastLoaded => "least-loaded",
        }
    }
}

impl std::str::FromStr for Routing {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "hash" => Ok(Routing::Hash),
            "least-loaded" => Ok(Routing::LeastLoaded),
            other => Err(format!("unknown routing '{other}'; known: hash, least-loaded")),
        }
    }
}

impl std::fmt::Display for Routing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Work-stealing thresholds over each shard's ingress backlog
/// (channel queue + router-side staged jobs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealConfig {
    /// A shard whose backlog is at or below this may steal.
    pub low_watermark: usize,
    /// A shard whose backlog is at or above this (and has staged jobs to
    /// give) may be stolen from.
    pub high_watermark: usize,
}

impl Default for StealConfig {
    fn default() -> Self {
        StealConfig { low_watermark: 2, high_watermark: 8 }
    }
}

/// Configuration of a [`ShardPool`]. Build one with
/// [`ServeConfig::builder`] (validated) or [`ServeConfig::new`] (the
/// always-valid single-shard default).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of engine shards (worker threads).
    pub shards: usize,
    /// Processors per shard.
    pub m: usize,
    /// Scheduler to run on every shard.
    pub spec: SchedulerSpec,
    /// Scenario label carried into summaries and store records.
    pub scenario: String,
    /// Bounded queue capacity per shard.
    pub queue_cap: usize,
    /// What to do when a shard queue is full.
    pub policy: OverloadPolicy,
    /// How arrivals are placed.
    pub routing: Routing,
    /// Safety horizon per shard (a stalling scheduler errors out instead of
    /// spinning forever).
    pub max_horizon: Time,
    /// Work-stealing thresholds; `None` disables stealing and keeps the
    /// delivery path identical to the pre-control-plane pool.
    pub steal: Option<StealConfig>,
    /// Most arrivals one ingest batch may carry
    /// ([`run_source`](PoolHandle::run_source) /
    /// [`offer_batch`](PoolHandle::offer_batch)); 1 degenerates to
    /// per-event ingest.
    pub ingest_batch: usize,
    /// Most event time one ingest batch from
    /// [`run_source`](PoolHandle::run_source) may span past its first
    /// release (0 = only same-release bursts coalesce). Every offer ends
    /// by flushing the exact frontier, so the stride only sizes batches;
    /// watermarks never affect final results — only how eagerly shards may
    /// simulate ahead.
    pub watermark_stride: Time,
}

impl ServeConfig {
    /// A single-shard, blocking, hash-routed pool — the configuration whose
    /// behavior is bit-for-bit the batch engine's.
    pub fn new(spec: SchedulerSpec, m: usize) -> Self {
        ServeConfig {
            shards: 1,
            m,
            spec,
            scenario: "serve".to_string(),
            queue_cap: 1024,
            policy: OverloadPolicy::Block,
            routing: Routing::Hash,
            max_horizon: 100_000_000,
            steal: None,
            ingest_batch: 32,
            watermark_stride: 0,
        }
    }

    /// Start a validated configuration.
    pub fn builder(spec: SchedulerSpec, m: usize) -> ServeConfigBuilder {
        ServeConfigBuilder { cfg: ServeConfig::new(spec, m) }
    }

    fn validate(&self) -> Result<(), ServeError> {
        if self.shards < 1 {
            return Err(ServeError::InvalidConfig("need at least one shard".into()));
        }
        if self.m < 1 {
            return Err(ServeError::InvalidConfig("need at least one processor per shard".into()));
        }
        self.spec.check_machine(self.m).map_err(ServeError::InvalidConfig)?;
        if self.queue_cap < 1 {
            return Err(ServeError::InvalidConfig("queues must hold at least one command".into()));
        }
        if self.ingest_batch < 1 {
            return Err(ServeError::InvalidConfig(
                "ingest batches must carry at least one arrival".into(),
            ));
        }
        if self.max_horizon < 1 || self.max_horizon >= Time::MAX / 2 {
            return Err(ServeError::InvalidConfig(format!(
                "max_horizon must be in [1, {}), got {}",
                Time::MAX / 2,
                self.max_horizon
            )));
        }
        if let Some(steal) = self.steal {
            if steal.low_watermark >= steal.high_watermark {
                return Err(ServeError::InvalidConfig(format!(
                    "steal low watermark ({}) must be below the high watermark ({})",
                    steal.low_watermark, steal.high_watermark
                )));
            }
            if self.policy != OverloadPolicy::Block {
                return Err(ServeError::InvalidConfig(format!(
                    "work stealing stages full-queue arrivals and requires the '{}' \
                     overload policy, got '{}'",
                    OverloadPolicy::Block,
                    self.policy
                )));
            }
        }
        Ok(())
    }
}

/// Chained, validated construction of a [`ServeConfig`].
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    cfg: ServeConfig,
}

impl ServeConfigBuilder {
    /// Number of engine shards.
    pub fn shards(mut self, shards: usize) -> Self {
        self.cfg.shards = shards;
        self
    }

    /// Scenario label for summaries and store records.
    pub fn scenario(mut self, scenario: impl Into<String>) -> Self {
        self.cfg.scenario = scenario.into();
        self
    }

    /// Bounded queue capacity per shard.
    pub fn queue_cap(mut self, cap: usize) -> Self {
        self.cfg.queue_cap = cap;
        self
    }

    /// Full-queue behavior.
    pub fn policy(mut self, policy: OverloadPolicy) -> Self {
        self.cfg.policy = policy;
        self
    }

    /// Shard placement.
    pub fn routing(mut self, routing: Routing) -> Self {
        self.cfg.routing = routing;
        self
    }

    /// Per-shard safety horizon.
    pub fn max_horizon(mut self, horizon: Time) -> Self {
        self.cfg.max_horizon = horizon;
        self
    }

    /// Enable work stealing with these thresholds.
    pub fn steal(mut self, steal: StealConfig) -> Self {
        self.cfg.steal = Some(steal);
        self
    }

    /// Most arrivals one ingest batch may carry (1 = per-event ingest).
    pub fn ingest_batch(mut self, max: usize) -> Self {
        self.cfg.ingest_batch = max;
        self
    }

    /// Ingest-batch release span (see [`ServeConfig::watermark_stride`]).
    pub fn watermark_stride(mut self, stride: Time) -> Self {
        self.cfg.watermark_stride = stride;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<ServeConfig, ServeError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// Ingest-side counters (what happened to offered arrivals).
///
/// The books must always balance:
/// `delivered + dropped + staged-in-flight == offered`, and pool-wide
/// `stolen_in == stolen_out` (every migrated job leaves one shard's staged
/// queue and lands on another).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Arrivals offered to the pool.
    pub offered: u64,
    /// Arrivals delivered to some shard (directly, pumped from staging, or
    /// donated to a thief).
    pub delivered: u64,
    /// Arrivals shed under [`OverloadPolicy::DropNewest`].
    pub dropped: u64,
    /// Arrivals placed on a shard other than the routed one under
    /// [`OverloadPolicy::Redirect`].
    pub redirected: u64,
    /// Arrivals whose release went backwards and was clamped forward.
    pub reordered: u64,
    /// Jobs migrated onto an underloaded shard by work stealing.
    pub stolen_in: u64,
    /// Jobs migrated off an overloaded shard's staged queue.
    pub stolen_out: u64,
    /// Watermark broadcasts skipped because a shard's queue was full. Not
    /// part of the balance equation: a full queue already holds a command
    /// that advances the shard at least as far, and the router's dedup
    /// ledger retries the value on the next broadcast.
    pub wm_skipped: u64,
}

serde::impl_serde_struct!(IngestStats {
    offered,
    delivered,
    dropped,
    redirected,
    reordered,
    stolen_in,
    stolen_out,
    wm_skipped
});

impl IngestStats {
    /// The eight counters in declaration order, the one place that lists
    /// them all (the binary ack carries them in this order);
    /// [`from_array`](Self::from_array) is the inverse.
    pub fn to_array(&self) -> [u64; 8] {
        let IngestStats {
            offered,
            delivered,
            dropped,
            redirected,
            reordered,
            stolen_in,
            stolen_out,
            wm_skipped,
        } = *self;
        [
            offered, delivered, dropped, redirected, reordered, stolen_in, stolen_out, wm_skipped,
        ]
    }

    /// The ledger whose [`to_array`](Self::to_array) is `counters`.
    pub fn from_array(counters: [u64; 8]) -> Self {
        let [offered, delivered, dropped, redirected, reordered, stolen_in, stolen_out, wm_skipped] =
            counters;
        IngestStats {
            offered,
            delivered,
            dropped,
            redirected,
            reordered,
            stolen_in,
            stolen_out,
            wm_skipped,
        }
    }

    /// Field-wise difference `self - earlier`. Counters only grow, so the
    /// saturation never fires between two snapshots of the same ledger;
    /// it just keeps a misuse from panicking. A gateway uses this to tell
    /// each client exactly what *its* command did to the pool-wide books.
    pub fn delta_since(&self, earlier: &IngestStats) -> IngestStats {
        let (now, then) = (self.to_array(), earlier.to_array());
        IngestStats::from_array(std::array::from_fn(|i| now[i].saturating_sub(then[i])))
    }
}

/// A point-in-time view of the whole pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolSnapshot {
    /// Per-shard progress, indexed by shard.
    pub shards: Vec<ShardSnapshot>,
    /// Ingest counters at snapshot time.
    pub ingest: IngestStats,
}

impl PoolSnapshot {
    /// Jobs admitted across all shards.
    pub fn total_admitted(&self) -> usize {
        self.shards.iter().map(|s| s.admitted).sum()
    }

    /// Subjobs dispatched across all shards.
    pub fn total_dispatched(&self) -> u64 {
        self.shards.iter().map(|s| s.dispatched).sum()
    }

    /// Arrivals staged router-side, offered but not yet delivered.
    pub fn in_flight(&self) -> u64 {
        self.shards.iter().map(|s| s.staged as u64).sum()
    }

    /// Whether every offered arrival is accounted for:
    /// `delivered + dropped + in-flight == offered` and
    /// `stolen_in == stolen_out`.
    pub fn accounting_balanced(&self) -> bool {
        self.ingest.delivered + self.ingest.dropped + self.in_flight() == self.ingest.offered
            && self.ingest.stolen_in == self.ingest.stolen_out
    }

    /// One human-readable stats line (the CLI's periodic heartbeat).
    pub fn line(&self) -> String {
        let now = self.shards.iter().map(|s| s.now).min().unwrap_or(0);
        let queued: usize = self.shards.iter().map(|s| s.queue_len).sum();
        let lb = self.shards.iter().map(|s| s.lower_bound).max().unwrap_or(0);
        format!(
            "t>={now} admitted={} dispatched={} queued={queued} staged={} lb>={lb} \
             dropped={} redirected={} stolen={}",
            self.total_admitted(),
            self.total_dispatched(),
            self.in_flight(),
            self.ingest.dropped,
            self.ingest.redirected,
            self.ingest.stolen_in,
        )
    }
}

/// Router state: everything the ingest path mutates, behind one lock.
#[derive(Debug)]
struct Router {
    seq: u64,
    last_release: Time,
    ingest: IngestStats,
    /// Per-shard arrivals accepted but not yet delivered (steal mode only).
    staged: Vec<VecDeque<Arrival>>,
    /// Per-shard scratch for one `route` call's placements under
    /// [`OverloadPolicy::Block`], kept across calls so that offers reuse
    /// its capacity instead of allocating.
    buckets: Vec<Vec<Arrival>>,
    /// Highest watermark each shard is known to have seen (via an admit or
    /// an accepted broadcast). A broadcast that cannot advance a shard past
    /// this value is skipped — it would be a no-op channel op.
    wm_known: Vec<Time>,
    /// Whether the last watermark broadcast to each shard was skipped on a
    /// full queue — the next successful send is recorded as a flight
    /// `wm-retry` event.
    wm_skip: Vec<bool>,
    /// Jobs placed on each shard by the router so far — the deterministic
    /// load ledger behind [`Routing::LeastLoaded`]. Counts actual
    /// placements: redirects credit the shard that took the job, stolen
    /// jobs move victim → thief, drops count nowhere.
    assigned: Vec<u64>,
}

/// Shared pool state: what both the owning [`ShardPool`] and every cloned
/// [`PoolHandle`] see.
#[derive(Debug)]
struct PoolCore {
    cfg: ServeConfig,
    txs: Vec<SyncSender<ShardCmd>>,
    tel: Arc<Telemetry>,
    router: Mutex<Router>,
}

/// A cloneable runtime-control handle onto a running pool.
///
/// Handles carry every operation that does not require owning the worker
/// threads: [`offer`](Self::offer), [`swap`](Self::swap),
/// [`snapshot`](Self::snapshot), and [`request_drain`](Self::request_drain).
/// Joining the workers and collecting [`ShardResult`]s stays with
/// [`ShardPool::drain`].
#[derive(Debug, Clone)]
pub struct PoolHandle {
    core: Arc<PoolCore>,
}

impl PoolHandle {
    /// The pool's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.core.cfg
    }

    /// Ingest counters so far.
    pub fn ingest(&self) -> IngestStats {
        self.router().ingest
    }

    fn router(&self) -> MutexGuard<'_, Router> {
        self.core.router.lock().expect("pool router lock")
    }

    fn pick_shard(&self, r: &Router) -> usize {
        let n = self.core.cfg.shards;
        match self.core.cfg.routing {
            Routing::Hash => (r.seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % n,
            Routing::LeastLoaded => {
                (0..n).min_by_key(|&i| r.assigned[i]).expect("at least one shard")
            }
        }
    }

    /// Send `cmd` to shard `i`, blocking while its queue is full. This and
    /// [`try_send`](Self::try_send) are the only code that sends on the
    /// shard channels, so they keep the queue depth: count in, then send,
    /// and count back out if the send fails.
    fn send(&self, i: usize, cmd: ShardCmd) -> Result<(), ServeError> {
        let tel = self.core.tel.shard(i);
        tel.add_queued(1);
        self.core.txs[i].send(cmd).map_err(|_| {
            tel.sub_queued(1);
            ServeError::PoolClosed
        })
    }

    /// Send `cmd` to shard `i` without blocking. Hands the command back if
    /// the queue is full.
    fn try_send(&self, i: usize, cmd: ShardCmd) -> Result<Option<ShardCmd>, ServeError> {
        let tel = self.core.tel.shard(i);
        tel.add_queued(1);
        let sent = self.core.txs[i].try_send(cmd);
        if sent.is_err() {
            tel.sub_queued(1);
        }
        match sent {
            Ok(()) => Ok(None),
            Err(TrySendError::Full(cmd)) => Ok(Some(cmd)),
            Err(TrySendError::Disconnected(_)) => Err(ServeError::PoolClosed),
        }
    }

    /// Offer `arrivals` to shard `i` as one [`ShardCmd::Admit`] without
    /// blocking. Hands them back if the queue is full.
    fn try_admit(
        &self,
        i: usize,
        arrivals: Vec<Arrival>,
    ) -> Result<Option<Vec<Arrival>>, ServeError> {
        match self.try_send(i, ShardCmd::Admit(arrivals))? {
            None => Ok(None),
            Some(ShardCmd::Admit(back)) => Ok(Some(back)),
            Some(_) => unreachable!("sent an admit command"),
        }
    }

    /// Flush shard `i`'s staged queue into its channel while there is room,
    /// one arrival per queue slot.
    fn pump_shard(&self, r: &mut Router, i: usize) -> Result<(), ServeError> {
        while let Some(arrival) = r.staged[i].pop_front() {
            if let Some(mut back) = self.try_admit(i, vec![arrival])? {
                r.staged[i].push_front(back.pop().expect("one arrival"));
                break;
            }
            r.ingest.delivered += 1;
        }
        Ok(())
    }

    /// One stealing round: if some shard's backlog sank to the low
    /// watermark while another's exceeds the high watermark *and* has
    /// staged jobs to give, migrate half the victim's staged queue (taken
    /// from the back — the latest arrivals) to the thief in one
    /// [`ShardCmd::Donate`] batch. The thief re-releases donated jobs at
    /// its own event time, so admitted work never moves and per-shard
    /// determinism is untouched.
    fn rebalance(&self, r: &mut Router) -> Result<(), ServeError> {
        let Some(steal) = self.core.cfg.steal else {
            return Ok(());
        };
        let n = self.core.cfg.shards;
        if n < 2 {
            return Ok(());
        }
        let backlog: Vec<usize> =
            (0..n).map(|i| self.core.tel.shard(i).queue_len() + r.staged[i].len()).collect();
        let thief = (0..n)
            .filter(|&i| r.staged[i].is_empty() && backlog[i] <= steal.low_watermark)
            .min_by_key(|&i| backlog[i]);
        let victim = (0..n)
            .filter(|&i| !r.staged[i].is_empty() && backlog[i] >= steal.high_watermark)
            .max_by_key(|&i| backlog[i]);
        let (Some(thief), Some(victim)) = (thief, victim) else {
            return Ok(());
        };
        if thief == victim {
            return Ok(());
        }
        let keep = r.staged[victim].len() - r.staged[victim].len().div_ceil(2);
        let moved: Vec<Arrival> = r.staged[victim].split_off(keep).into();
        let count = moved.len() as u64;
        match self.try_send(thief, ShardCmd::Donate(moved))? {
            None => {
                r.ingest.stolen_out += count;
                r.ingest.stolen_in += count;
                r.ingest.delivered += count;
                r.assigned[victim] -= count;
                r.assigned[thief] += count;
                self.core.tel.shard(victim).record(
                    FlightKind::Steal,
                    r.last_release,
                    format!("{victim}→{thief} x{count}"),
                );
            }
            Some(ShardCmd::Donate(jobs)) => {
                // Thief filled up in the meantime: put the jobs back.
                r.staged[victim].extend(jobs);
            }
            Some(_) => unreachable!("donated a non-donate command"),
        }
        Ok(())
    }

    /// Deliver the arrivals bucketed for shard `i` by one [`route`](Self::route)
    /// call (already credited in the load ledger) as one
    /// [`ShardCmd::Admit`]. Blocks under backpressure; with stealing
    /// enabled it stages the bucket behind the shard's backlog instead.
    fn deliver(&self, r: &mut Router, i: usize) -> Result<(), ServeError> {
        let count = r.buckets[i].len() as u64;
        let last = r.buckets[i].last().expect("nonempty bucket").spec.release;
        let stealing = self.core.cfg.steal.is_some();
        if stealing {
            // Never block ingest, and keep per-shard FIFO: the whole bucket
            // stages if anything for this shard is already staged.
            self.pump_shard(r, i)?;
            if !r.staged[i].is_empty() {
                r.staged[i].extend(r.buckets[i].drain(..));
                return Ok(());
            }
        }
        let arrivals: Vec<Arrival> = r.buckets[i].drain(..).collect();
        if stealing {
            if let Some(back) = self.try_admit(i, arrivals)? {
                r.staged[i].extend(back);
                return Ok(());
            }
        } else {
            self.send(i, ShardCmd::Admit(arrivals))?;
        }
        r.ingest.delivered += count;
        // The admit itself carries the release: once the shard processes
        // it, its safe time is at least this far along.
        r.wm_known[i] = r.wm_known[i].max(last);
        Ok(())
    }

    /// Deliver one arrival routed to `target` under
    /// [`OverloadPolicy::DropNewest`] or [`OverloadPolicy::Redirect`]. Both
    /// decide from the room in each queue at this moment, so they are never
    /// coalesced: doing so would change what gets shed or moved.
    fn deliver_one(
        &self,
        r: &mut Router,
        target: usize,
        arrival: Arrival,
    ) -> Result<(), ServeError> {
        let release = arrival.spec.release;
        let mut delivered_to = None;
        if self.core.cfg.policy == OverloadPolicy::DropNewest {
            if self.try_admit(target, vec![arrival])?.is_some() {
                r.ingest.dropped += 1;
                self.core.tel.shard(target).record(FlightKind::Drop, release, String::new());
            } else {
                delivered_to = Some(target);
            }
        } else {
            let mut order: Vec<usize> = (0..self.core.cfg.shards).collect();
            order.sort_by_key(|&i| (i != target, self.core.tel.shard(i).queue_len()));
            let mut pending = Some(vec![arrival]);
            for &i in &order {
                pending = self.try_admit(i, pending.take().expect("arrival pending"))?;
                if pending.is_none() {
                    delivered_to = Some(i);
                    break;
                }
            }
            if let Some(arrivals) = pending {
                // Everyone is full: fall back to backpressure.
                self.send(target, ShardCmd::Admit(arrivals))?;
                delivered_to = Some(target);
            }
            if let Some(i) = delivered_to.filter(|&i| i != target) {
                r.ingest.redirected += 1;
                self.core.tel.shard(target).record(
                    FlightKind::Redirect,
                    release,
                    format!("{target}→{i}"),
                );
            }
        }
        if let Some(i) = delivered_to {
            r.ingest.delivered += 1;
            r.assigned[i] += 1;
            r.wm_known[i] = r.wm_known[i].max(release);
        }
        Ok(())
    }

    /// The one routing loop behind every offer. Under one router lock it
    /// clamps each arrival into nondecreasing release order (counting
    /// stragglers in [`IngestStats::reordered`]), picks its shard, and
    /// delivers it: [`OverloadPolicy::Block`] buckets the batch per shard
    /// and sends one command per bucket, the other policies deliver each
    /// arrival as it is placed. The frontier is flushed once at the end.
    /// Returns the exact ledger delta of this call.
    fn route(
        &self,
        specs: impl Iterator<Item = JobSpec>,
        offered_us: u64,
    ) -> Result<IngestStats, ServeError> {
        let r = &mut *self.router();
        let before = r.ingest;
        // Validation ties stealing to Block, so this also covers staging.
        let coalesce = self.core.cfg.policy == OverloadPolicy::Block;
        for mut spec in specs {
            r.ingest.offered += 1;
            if spec.release < r.last_release {
                spec.release = r.last_release;
                r.ingest.reordered += 1;
            }
            r.last_release = spec.release;
            let target = self.pick_shard(r);
            r.seq = r.seq.wrapping_add(1);
            let arrival = Arrival { spec, offered_us };
            if coalesce {
                // With stealing, rebalance moves the credit if the job is
                // later stolen.
                r.assigned[target] += 1;
                r.buckets[target].push(arrival);
            } else {
                self.deliver_one(r, target, arrival)?;
            }
        }
        for i in 0..self.core.cfg.shards {
            if !r.buckets[i].is_empty() {
                self.deliver(r, i)?;
            }
        }
        if self.core.cfg.steal.is_some() {
            self.rebalance(r)?;
        }
        self.broadcast_frontier(r);
        Ok(r.ingest.delta_since(&before))
    }

    /// Send frontier watermarks to shards that need them: every advance
    /// past what a shard is known to have seen, once per offer.
    fn broadcast_frontier(&self, r: &mut Router) {
        let frontier = r.last_release;
        for i in 0..self.core.cfg.shards {
            // A shard with staged jobs must not outrun its own backlog, so
            // its watermark is capped at the staged front's release.
            let w = match r.staged[i].front() {
                Some(a) => frontier.min(a.spec.release),
                None => frontier,
            };
            if w <= r.wm_known[i] {
                continue;
            }
            match self.try_send(i, ShardCmd::Watermark(w)) {
                Ok(None) => {
                    r.wm_known[i] = w;
                    if r.wm_skip[i] {
                        r.wm_skip[i] = false;
                        self.core.tel.shard(i).record(FlightKind::WmRetry, w, String::new());
                    }
                }
                // A full queue already holds commands that advance this
                // shard at least as far; the dedup ledger retries the value
                // on the next broadcast.
                Ok(Some(_)) => {
                    r.ingest.wm_skipped += 1;
                    if !r.wm_skip[i] {
                        r.wm_skip[i] = true;
                        self.core.tel.shard(i).record(FlightKind::WmSkip, w, String::new());
                    }
                }
                // Workers gone: drain already started; nothing left to pace.
                Err(_) => {}
            }
        }
    }

    /// Route one arrival: a one-job batch through the same router as
    /// [`offer_batch`](Self::offer_batch). A release earlier than the last
    /// offered one is clamped forward (counted in
    /// [`IngestStats::reordered`]) so shard sessions always see admissible
    /// order.
    pub fn offer(&self, spec: JobSpec) -> Result<(), ServeError> {
        self.route(std::iter::once(spec), self.core.tel.now_us()).map(|_| ())
    }

    /// Route a whole ingest batch under one router lock. Under
    /// [`OverloadPolicy::Block`] same-shard placements coalesce into a
    /// single command — one queue slot, one channel op — and the
    /// event-time frontier is flushed at the batch boundary. Drains `specs` so the caller can reuse the
    /// buffer. Placement is identical to offering the same jobs one at a
    /// time; only the channel traffic differs.
    pub fn offer_batch(&self, specs: &mut Vec<JobSpec>) -> Result<(), ServeError> {
        self.offer_batch_stamped(specs, self.core.tel.now_us()).map(|_| ())
    }

    /// [`offer_batch`](Self::offer_batch) with an explicit arrival stamp
    /// (microseconds on the pool clock, see [`now_us`](Self::now_us)) and
    /// an exact per-command ledger delta in the reply. Front doors stamp at
    /// decode time so arrival→admit latency covers queueing behind the
    /// router lock, and the delta — computed under that lock — is exact
    /// even with any number of concurrent offering clients.
    pub fn offer_batch_stamped(
        &self,
        specs: &mut Vec<JobSpec>,
        offered_us: u64,
    ) -> Result<IngestStats, ServeError> {
        if specs.is_empty() {
            return Ok(IngestStats::default());
        }
        self.route(specs.drain(..), offered_us)
    }

    /// Microseconds since the pool launched — the clock every telemetry
    /// stamp and flight event is measured on. Front doors stamp remote
    /// offers with this before handing them to
    /// [`offer_batch_stamped`](Self::offer_batch_stamped).
    #[inline]
    pub fn now_us(&self) -> u64 {
        self.core.tel.now_us()
    }

    /// Free admission slots across every shard queue right now. An
    /// approximation for backpressure decisions — queues also hold
    /// control-plane commands and other clients race for the same room —
    /// but a conservative front door can turn "not enough room for this
    /// batch" into a retry-later reply instead of blocking a connection
    /// handler inside [`offer_batch`](Self::offer_batch).
    pub fn ingress_room(&self) -> usize {
        (0..self.core.cfg.shards)
            .map(|i| self.core.cfg.queue_cap.saturating_sub(self.core.tel.shard(i).queue_len()))
            .sum()
    }

    /// Advance the event-time frontier to `t` without offering a job, as if
    /// an arrival with release `t` had been observed: later offers with
    /// earlier releases are clamped forward (and counted reordered), and
    /// shards are told they may simulate up to `t`. A no-op if the frontier
    /// is already at or past `t`. Returns the ledger delta (only
    /// `wm_skipped` can move). This is the remote `Watermark` verb: a
    /// client that knows no arrival before `t` is coming lets idle shards
    /// simulate ahead instead of stalling at the last release.
    pub fn advance_frontier(&self, t: Time) -> Result<IngestStats, ServeError> {
        let r = &mut *self.router();
        let before = r.ingest;
        if t > r.last_release {
            r.last_release = t;
            self.broadcast_frontier(r);
        }
        Ok(r.ingest.delta_since(&before))
    }

    /// Record a control-plane event that originated *outside* the router —
    /// e.g. a network front door's connection lifecycle — into shard
    /// `shard`'s flight ring, stamped with the pool clock. Errors if the
    /// shard index is out of range.
    pub fn record_flight(
        &self,
        shard: usize,
        kind: FlightKind,
        t: Time,
        detail: String,
    ) -> Result<(), ServeError> {
        if shard >= self.core.cfg.shards {
            return Err(ServeError::InvalidConfig(format!(
                "shard {shard} out of range (pool has {})",
                self.core.cfg.shards
            )));
        }
        self.core.tel.shard(shard).record(kind, t, detail);
        Ok(())
    }

    /// Pump `source` dry in ingest batches (bounded by
    /// [`ServeConfig::ingest_batch`] and the stride-sized release span),
    /// calling `progress` with a fresh snapshot roughly every `every`
    /// arrivals (0 disables). Returns the number of arrivals offered.
    pub fn run_source_with(
        &self,
        source: &mut dyn ArrivalSource,
        every: u64,
        progress: &mut dyn FnMut(&PoolSnapshot),
    ) -> Result<u64, ServeError> {
        let (max, span) = (self.core.cfg.ingest_batch, self.core.cfg.watermark_stride);
        let mut batch = Vec::with_capacity(max);
        let mut n = 0u64;
        let mut next_beat = every;
        while source.next_batch(max, span, &mut batch) > 0 {
            n += batch.len() as u64;
            self.offer_batch(&mut batch)?;
            if every > 0 && n >= next_beat {
                progress(&self.snapshot());
                while next_beat <= n {
                    next_beat += every;
                }
            }
        }
        Ok(n)
    }

    /// Pump `source` dry without progress reporting.
    pub fn run_source(&self, source: &mut dyn ArrivalSource) -> Result<u64, ServeError> {
        self.run_source_with(source, 0, &mut |_| {})
    }

    /// Request a live scheduler hot-swap at event time `at` on one shard
    /// (`Some(i)`) or every shard (`None`). The swap applies once the
    /// shard's simulation reaches `at` (immediately if already past it);
    /// the drained [`ShardResult`] records it as a
    /// [`SwapEvent`](crate::SwapEvent).
    pub fn swap(
        &self,
        shard: Option<usize>,
        at: Time,
        spec: SchedulerSpec,
    ) -> Result<(), ServeError> {
        spec.check_machine(self.core.cfg.m).map_err(ServeError::InvalidConfig)?;
        let directive = SwapDirective { at, spec };
        let targets: Vec<usize> = match shard {
            Some(i) if i >= self.core.cfg.shards => {
                return Err(ServeError::InvalidConfig(format!(
                    "shard {i} out of range (pool has {})",
                    self.core.cfg.shards
                )));
            }
            Some(i) => vec![i],
            None => (0..self.core.cfg.shards).collect(),
        };
        for i in targets {
            self.send(i, ShardCmd::Swap(directive))?;
        }
        Ok(())
    }

    /// A point-in-time view of every shard plus ingest counters. Reads what
    /// each worker last published into its telemetry cell — no shard-side
    /// lock, so a snapshot never stalls the hot loop.
    pub fn snapshot(&self) -> PoolSnapshot {
        let r = self.router();
        let shards = self
            .core
            .tel
            .shards()
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let mut snap = t.load();
                snap.staged = r.staged[i].len();
                snap
            })
            .collect();
        PoolSnapshot { shards, ingest: r.ingest }
    }

    /// Flush every staged job (blocking until the shards accept them) and
    /// tell every shard to run dry. After this the pool accepts no more
    /// work; join the workers with [`ShardPool::drain`].
    pub fn request_drain(&self) -> Result<(), ServeError> {
        let r = &mut *self.router();
        for i in 0..self.core.cfg.shards {
            if r.staged[i].is_empty() {
                continue;
            }
            let jobs: Vec<Arrival> = r.staged[i].drain(..).collect();
            let count = jobs.len() as u64;
            self.send(i, ShardCmd::Admit(jobs))?;
            r.ingest.delivered += count;
        }
        for i in 0..self.core.cfg.shards {
            self.send(i, ShardCmd::Drain)?;
        }
        Ok(())
    }

    /// A full telemetry snapshot: ingest counters, per-shard engine
    /// snapshots with their theory gauges, and per-shard latency histograms.
    /// Lock-light — safe to call from a scrape thread mid-run.
    pub fn metrics(&self) -> MetricsSnapshot {
        let snap = self.snapshot();
        MetricsSnapshot {
            uptime_us: self.core.tel.now_us(),
            ingest: snap.ingest,
            shards: snap.shards,
            telemetry: self.core.tel.shards().iter().map(|t| t.metrics()).collect(),
        }
    }

    /// Every control-plane flight-recorder event captured so far, merged
    /// across shards and ordered by wall-clock timestamp. Readable even
    /// after a worker panic — the rings outlive the workers.
    pub fn flight(&self) -> Vec<FlightEvent> {
        self.core.tel.flight_events()
    }
}

/// A running pool of engine shards consuming an arrival stream.
///
/// A pool is [`launch`](Self::launch)ed, fed, watched and controlled
/// through a cloneable [`handle`](Self::handle) (offers, sources,
/// snapshots, swaps — see [`PoolHandle`]), and finished with
/// [`drain`](Self::drain), which returns one [`ShardResult`] per shard.
#[derive(Debug)]
pub struct ShardPool {
    handle: PoolHandle,
    handles: Vec<JoinHandle<ShardResult>>,
}

impl ShardPool {
    /// Validate `cfg`, spawn the shard workers, and return the pool ready
    /// for arrivals.
    pub fn launch(cfg: ServeConfig) -> Result<Self, ServeError> {
        cfg.validate()?;
        let tel = Arc::new(Telemetry::new(cfg.shards, FLIGHT_CAPACITY));
        let mut txs = Vec::with_capacity(cfg.shards);
        let mut handles = Vec::with_capacity(cfg.shards);
        for shard in 0..cfg.shards {
            let (tx, rx) = mpsc::sync_channel(cfg.queue_cap);
            let ctx = ShardCtx {
                shard,
                m: cfg.m,
                spec: cfg.spec,
                scenario: cfg.scenario.clone(),
                max_horizon: cfg.max_horizon,
                tel: Arc::clone(tel.shard(shard)),
            };
            let handle = std::thread::Builder::new()
                .name(format!("flowtree-shard-{shard}"))
                .spawn(move || run_shard(ctx, rx))
                .map_err(|e| ServeError::Spawn(e.to_string()))?;
            txs.push(tx);
            handles.push(handle);
        }
        let shards = cfg.shards;
        let core = PoolCore {
            cfg,
            txs,
            tel,
            router: Mutex::new(Router {
                seq: 0,
                last_release: 0,
                ingest: IngestStats::default(),
                staged: (0..shards).map(|_| VecDeque::new()).collect(),
                buckets: (0..shards).map(|_| Vec::new()).collect(),
                wm_known: vec![0; shards],
                wm_skip: vec![false; shards],
                assigned: vec![0; shards],
            }),
        };
        Ok(ShardPool { handle: PoolHandle { core: Arc::new(core) }, handles })
    }

    /// A cloneable runtime-control handle onto this pool.
    pub fn handle(&self) -> PoolHandle {
        self.handle.clone()
    }

    /// Graceful shutdown: flush staged work, tell every shard to run dry,
    /// wait for all of them, and return their results ordered by shard
    /// index. If any worker panicked, the surviving results are discarded
    /// and [`ServeError::ShardPanicked`] lists the dead shards; their
    /// flight rings stay readable through a [`PoolHandle`] cloned before
    /// the drain, so the post-mortem trail survives the crash.
    pub fn drain(self) -> Result<Vec<ShardResult>, ServeError> {
        self.handle.request_drain()?;
        let tel = Arc::clone(&self.handle.core.tel);
        let mut results = Vec::with_capacity(self.handles.len());
        let mut panicked = Vec::new();
        for (shard, h) in self.handles.into_iter().enumerate() {
            match h.join() {
                Ok(res) => results.push(res),
                Err(_) => {
                    tel.shard(shard).record(FlightKind::Panic, 0, "joined dead worker".to_string());
                    panicked.push(shard);
                }
            }
        }
        if !panicked.is_empty() {
            return Err(ServeError::ShardPanicked(panicked));
        }
        results.sort_by_key(|r| r.shard);
        Ok(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtree_dag::builder::{chain, star};

    fn fifo() -> SchedulerSpec {
        "fifo".parse().expect("fifo parses")
    }

    #[test]
    fn policy_and_routing_names_roundtrip() {
        for p in [OverloadPolicy::Block, OverloadPolicy::DropNewest, OverloadPolicy::Redirect] {
            assert_eq!(p.name().parse::<OverloadPolicy>(), Ok(p));
            assert_eq!(p.to_string(), p.name());
        }
        for r in [Routing::Hash, Routing::LeastLoaded] {
            assert_eq!(r.name().parse::<Routing>(), Ok(r));
            assert_eq!(r.to_string(), r.name());
        }
        assert!("yolo".parse::<OverloadPolicy>().is_err());
        assert!("ring".parse::<Routing>().is_err());
    }

    #[test]
    fn builder_validates_configuration() {
        assert!(ServeConfig::builder(fifo(), 2).shards(2).queue_cap(8).build().is_ok());
        for bad in [
            ServeConfig::builder(fifo(), 2).shards(0).build(),
            ServeConfig::builder(fifo(), 0).build(),
            ServeConfig::builder(fifo(), 2).queue_cap(0).build(),
            ServeConfig::builder(fifo(), 2).max_horizon(0).build(),
            ServeConfig::builder(fifo(), 2).max_horizon(Time::MAX).build(),
            ServeConfig::builder(SchedulerSpec::GuessDouble, 6).build(),
            ServeConfig::builder(fifo(), 2)
                .shards(2)
                .steal(StealConfig { low_watermark: 4, high_watermark: 4 })
                .build(),
            ServeConfig::builder(fifo(), 2)
                .shards(2)
                .policy(OverloadPolicy::DropNewest)
                .steal(StealConfig::default())
                .build(),
        ] {
            match bad {
                Err(ServeError::InvalidConfig(msg)) => assert!(!msg.is_empty()),
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
        assert!(
            ShardPool::launch(ServeConfig { shards: 0, ..ServeConfig::new(fifo(), 1) }).is_err()
        );
    }

    #[test]
    fn out_of_order_releases_are_clamped_and_counted() {
        let cfg = ServeConfig::builder(fifo(), 2)
            .scenario("reorder")
            .build()
            .expect("valid config");
        let pool = ShardPool::launch(cfg).expect("launch");
        let handle = pool.handle();
        handle.offer(JobSpec { graph: chain(2), release: 5 }).expect("offer");
        handle.offer(JobSpec { graph: star(2), release: 3 }).expect("offer"); // late straggler
        assert_eq!(handle.ingest().reordered, 1);
        let results = pool.drain().expect("drain");
        assert_eq!(results[0].summary.jobs, 2);
        // Both jobs run with release 5 after the clamp.
        assert_eq!(results[0].instance.last_release(), 5);
        assert!(results[0].summary.invariants_clean);
        assert!(results[0].swaps.is_empty());
    }

    #[test]
    fn hash_routing_spreads_across_shards() {
        let cfg = ServeConfig::builder(fifo(), 1).shards(4).build().expect("valid config");
        let pool = ShardPool::launch(cfg).expect("launch");
        let mut hit = vec![false; 4];
        for seq in 0u64..64 {
            hit[(seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % 4] = true;
        }
        assert!(hit.iter().all(|&h| h), "hash leaves a shard cold: {hit:?}");
        let results = pool.drain().expect("drain"); // zero-job drain is clean
        assert_eq!(results.len(), 4);
        for r in &results {
            assert_eq!(r.summary.jobs, 0);
            assert_eq!(r.summary.max_flow, 0);
        }
    }

    #[test]
    fn snapshot_reports_progress_and_queues() {
        let cfg = ServeConfig::builder(fifo(), 2).shards(2).build().expect("valid config");
        let pool = ShardPool::launch(cfg).expect("launch");
        let handle = pool.handle();
        for t in 0..6 {
            handle.offer(JobSpec { graph: chain(3), release: t }).expect("offer");
        }
        let snap = handle.snapshot();
        assert_eq!(snap.shards.len(), 2);
        assert_eq!(snap.ingest.offered, 6);
        assert_eq!(snap.ingest.delivered, 6);
        assert!(snap.accounting_balanced(), "{:?}", snap.ingest);
        let line = snap.line();
        assert!(line.contains("admitted="), "{line}");
        assert!(line.contains("staged="), "{line}");
        let results = pool.drain().expect("drain");
        let total: usize = results.iter().map(|r| r.summary.jobs).sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn hot_swap_records_event_and_relabels_summary() {
        let cfg = ServeConfig::builder(fifo(), 2).scenario("swap").build().expect("valid");
        let pool = ShardPool::launch(cfg).expect("launch");
        let handle = pool.handle();
        handle.swap(None, 4, "lpf".parse().expect("lpf parses")).expect("swap queued");
        for t in 0..8 {
            handle.offer(JobSpec { graph: chain(3), release: t }).expect("offer");
        }
        let results = pool.drain().expect("drain");
        assert_eq!(results[0].summary.jobs, 8);
        assert_eq!(results[0].summary.scheduler, "lpf");
        assert_eq!(results[0].swaps.len(), 1);
        let ev = &results[0].swaps[0];
        assert_eq!((ev.from.as_str(), ev.to.as_str()), ("fifo", "lpf"));
        assert!(ev.t >= 4, "swap applied before its directive time: {ev:?}");
        assert!(results[0].summary.invariants_clean);
    }

    #[test]
    fn swap_on_out_of_range_shard_is_rejected() {
        let pool = ShardPool::launch(ServeConfig::new(fifo(), 1)).expect("launch");
        let err = pool.handle().swap(Some(7), 0, fifo()).expect_err("out of range");
        assert!(matches!(err, ServeError::InvalidConfig(_)), "{err}");
        // Algorithm 𝒜's α = 4 slices cannot divide one processor.
        let algo_a = SchedulerSpec::AlgoA { alpha: 4, half: 1 };
        let err = pool.handle().swap(None, 0, algo_a).expect_err("alpha does not divide m");
        assert!(matches!(err, ServeError::InvalidConfig(_)), "{err}");
        pool.drain().expect("drain");
    }

    #[test]
    fn donated_jobs_are_rereleased_at_the_thief() {
        // Bypass the router and donate out-of-order releases directly: the
        // shard must clamp them forward instead of panicking.
        let pool = ShardPool::launch(ServeConfig::new(fifo(), 1)).expect("launch");
        pool.handle().offer(JobSpec { graph: chain(2), release: 9 }).expect("offer");
        let donated: Vec<Arrival> = vec![
            JobSpec { graph: chain(2), release: 3 }.into(),
            JobSpec { graph: star(2), release: 1 }.into(),
        ];
        pool.handle.send(0, ShardCmd::Donate(donated)).expect("donate");
        let results = pool.drain().expect("drain");
        assert_eq!(results[0].summary.jobs, 3);
        // Clamped to the last admitted release, never earlier.
        assert!(results[0].instance.last_release() >= 9);
        assert!(results[0].summary.invariants_clean);
    }

    #[test]
    fn stealing_pool_loses_no_work_and_balances_books() {
        let cfg = ServeConfig::builder(fifo(), 1)
            .shards(2)
            .queue_cap(2)
            .scenario("steal")
            .steal(StealConfig { low_watermark: 0, high_watermark: 2 })
            .build()
            .expect("valid config");
        let pool = ShardPool::launch(cfg).expect("launch");
        let handle = pool.handle();
        let total = 64usize;
        for t in 0..total {
            handle.offer(JobSpec { graph: chain(4), release: t as Time }).expect("offer");
            let snap = handle.snapshot();
            assert!(snap.accounting_balanced(), "mid-stream books: {:?}", snap.ingest);
        }
        let results = pool.drain().expect("drain");
        let ingest = results.iter().map(|r| r.summary.jobs).sum::<usize>();
        assert_eq!(ingest, total, "work was lost");
        for r in &results {
            assert!(r.summary.invariants_clean, "shard {} dirty", r.shard);
        }
    }

    #[test]
    fn queue_depth_balances_on_every_send_path() {
        // One-slot queues exercise every send path: blocking admits, swaps
        // and drains, and failed try-sends (watermarks, drops, redirects,
        // staging, donations). Once drained, every depth is back to 0.
        let base = || ServeConfig::builder(fifo(), 1).shards(2).queue_cap(1);
        let pools = [
            base(),
            base().policy(OverloadPolicy::DropNewest),
            base().policy(OverloadPolicy::Redirect),
            base().steal(StealConfig { low_watermark: 0, high_watermark: 2 }),
        ];
        for builder in pools {
            let cfg = builder.build().expect("valid config");
            let label = format!("{} steal={}", cfg.policy, cfg.steal.is_some());
            let pool = ShardPool::launch(cfg).expect("launch");
            let handle = pool.handle();
            handle.swap(None, 8, "lpf".parse().expect("lpf parses")).expect("swap");
            for t in 0..32 {
                let mut batch = vec![
                    JobSpec { graph: chain(4), release: t },
                    JobSpec { graph: star(3), release: t },
                ];
                handle.offer_batch(&mut batch).expect("offer");
                handle.advance_frontier(t + 1).expect("advance");
            }
            pool.drain().expect("drain");
            let depths: Vec<usize> = handle.snapshot().shards.iter().map(|s| s.queue_len).collect();
            assert_eq!(depths, [0, 0], "{label}: depth after drain");
            assert_eq!(handle.ingress_room(), 2, "{label}: room after drain");
        }
    }

    #[test]
    fn stamped_batches_report_exact_deltas() {
        let cfg = ServeConfig::builder(fifo(), 2).shards(2).build().expect("valid");
        let pool = ShardPool::launch(cfg).expect("launch");
        let handle = pool.handle();
        let mut batch = vec![
            JobSpec { graph: chain(2), release: 3 },
            JobSpec { graph: star(2), release: 1 }, // goes backwards: clamped
        ];
        let delta = handle.offer_batch_stamped(&mut batch, handle.now_us()).expect("offer");
        assert_eq!((delta.offered, delta.delivered, delta.reordered), (2, 2, 1));
        let mut empty = Vec::new();
        let delta = handle.offer_batch_stamped(&mut empty, 0).expect("empty offer");
        assert_eq!(delta, IngestStats::default());
        assert_eq!(handle.ingest().offered, 2, "cumulative ledger unaffected by deltas");
        pool.drain().expect("drain");
    }

    #[test]
    fn advance_frontier_clamps_later_offers() {
        let pool = ShardPool::launch(ServeConfig::new(fifo(), 1)).expect("launch");
        let handle = pool.handle();
        handle.advance_frontier(50).expect("advance");
        handle.advance_frontier(10).expect("monotone no-op");
        handle.offer(JobSpec { graph: chain(2), release: 20 }).expect("offer");
        assert_eq!(handle.ingest().reordered, 1, "pre-frontier release clamps forward");
        let results = pool.drain().expect("drain");
        assert_eq!(results[0].instance.last_release(), 50);
    }

    #[test]
    fn external_flight_events_land_in_the_ring() {
        let pool = ShardPool::launch(ServeConfig::new(fifo(), 1)).expect("launch");
        let handle = pool.handle();
        handle
            .record_flight(0, FlightKind::ConnOpen, 0, "127.0.0.1:9".to_string())
            .expect("record");
        assert!(handle.record_flight(9, FlightKind::ConnClose, 0, String::new()).is_err());
        let events = handle.flight();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, FlightKind::ConnOpen);
        assert_eq!(events[0].detail, "127.0.0.1:9");
        pool.drain().expect("drain");
    }

    #[test]
    fn flight_ring_holds_flight_capacity_events() {
        let pool = ShardPool::launch(ServeConfig::new(fifo(), 1)).expect("launch");
        let handle = pool.handle();
        for i in 0..300 {
            handle.record_flight(0, FlightKind::ConnOpen, i, String::new()).expect("record");
        }
        let shard = &handle.metrics().telemetry[0];
        assert_eq!(shard.flight_len, 256);
        assert!(shard.flight_dropped >= 300 - 256, "dropped {}", shard.flight_dropped);
        pool.drain().expect("drain");
    }

    #[test]
    fn ingest_stats_serde_and_delta_roundtrip() {
        let a = IngestStats {
            offered: 10,
            delivered: 8,
            dropped: 2,
            ..IngestStats::default()
        };
        let line = serde_json::to_string(&a).expect("serializes");
        let back: IngestStats = serde_json::from_str(&line).expect("roundtrips");
        assert_eq!(back, a);
        let b = IngestStats {
            offered: 14,
            delivered: 11,
            dropped: 3,
            ..IngestStats::default()
        };
        let d = b.delta_since(&a);
        assert_eq!((d.offered, d.delivered, d.dropped), (4, 3, 1));
    }

    #[test]
    fn handle_outlives_drain_and_reports_closed() {
        let pool = ShardPool::launch(ServeConfig::new(fifo(), 1)).expect("launch");
        let handle = pool.handle();
        pool.drain().expect("drain");
        let err = handle.offer(JobSpec { graph: chain(2), release: 0 }).expect_err("closed");
        assert_eq!(err, ServeError::PoolClosed);
        assert_eq!(handle.request_drain(), Err(ServeError::PoolClosed));
    }
}
