//! Live telemetry for the serve stack: a lock-light metrics registry,
//! wall-clock latency histograms, Prometheus-style text exposition over a
//! std-TCP endpoint, and a bounded control-plane flight recorder.
//!
//! The registry is **always on**: every pool owns one [`Telemetry`] and
//! every shard worker records into its own [`ShardTelemetry`] through
//! relaxed atomics ([`AtomicHisto`] plus the cell's one
//! [`publish`](ShardTelemetry::publish) of a [`ShardSnapshot`] per loop
//! iteration), so enabling the exposition endpoint only adds a *reader*
//! thread — it cannot perturb
//! routing, admission order, or simulation, which is what makes the
//! metrics-on/off differential test hold by construction.
//!
//! Three end-to-end wall-clock latencies are tracked per shard, all in
//! microseconds since the pool's epoch:
//!
//! * **arrival → admit** — router offer to session admission;
//! * **admit → first dispatch** — admission to the job's first subjob
//!   dispatch (recorded by [`LatencyProbe`], once per job);
//! * **arrival → completion** — router offer to the job's completion event.
//!
//! Control-plane happenings (scheduler swaps, steals/donations, watermark
//! skips and retries, overload drops and redirects, drains, worker
//! panics) land in a bounded per-shard [`FlightRecorder`] ring as
//! structured [`FlightEvent`]s; the ring survives a worker panic (it lives
//! behind the pool's `Arc`), and the CLI dumps it as JSONL beside the
//! results store for `report --flight` to render.

use std::collections::VecDeque;
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use flowtree_dag::{JobId, Time};
use flowtree_sim::{LogHistogram, Probe, StepStat};

use crate::pool::{IngestStats, PoolHandle};
use crate::shard::ShardSnapshot;

/// A lock-free log-bucketed histogram: the atomic twin of
/// [`LogHistogram`], with identical bucket boundaries
/// ([`LogHistogram::bucket_of`]). Writers [`record`](Self::record) through
/// relaxed atomics (a few uncontended fetch-adds per observation); readers
/// [`snapshot`](Self::snapshot) into a plain [`LogHistogram`] for
/// quantiles. Each field of a snapshot is individually exact; a snapshot
/// taken mid-record may skew `count` against `sum` by the records in
/// flight, which is the usual monitoring contract.
#[derive(Debug)]
pub struct AtomicHisto {
    counts: [AtomicU64; LogHistogram::NUM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHisto {
    fn default() -> Self {
        AtomicHisto {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl AtomicHisto {
    /// Fresh empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation (relaxed; never blocks). The max only
    /// grows, so a value no larger than one already loaded cannot raise
    /// it: only a new maximum pays for the read-modify-write.
    #[inline]
    pub fn record(&self, v: u64) {
        self.counts[LogHistogram::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        if v > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Materialize the current state as a [`LogHistogram`] (for quantiles,
    /// merging, and rendering).
    pub fn snapshot(&self) -> LogHistogram {
        let mut counts = [0u64; LogHistogram::NUM_BUCKETS];
        for (c, a) in counts.iter_mut().zip(&self.counts) {
            *c = a.load(Ordering::Relaxed);
        }
        LogHistogram::from_parts(
            &counts,
            self.sum.load(Ordering::Relaxed) as u128,
            self.max.load(Ordering::Relaxed),
        )
    }
}

/// What kind of control-plane event a [`FlightEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A scheduler hot-swap was applied on a shard.
    Swap,
    /// A shard admitted a batch of donated (stolen) jobs.
    Donate,
    /// The router migrated staged jobs from a victim to a thief.
    Steal,
    /// A watermark broadcast was skipped because the shard's queue was full.
    WmSkip,
    /// A previously skipped watermark value was successfully re-sent.
    WmRetry,
    /// An arrival was shed under the drop overload policy.
    Drop,
    /// An arrival was redirected away from its routed shard.
    Redirect,
    /// A shard received its drain order.
    Drain,
    /// A shard worker panicked (detail carries the error when known).
    Panic,
    /// A gateway client connection opened (detail carries the peer).
    ConnOpen,
    /// A gateway client connection closed (detail carries the peer).
    ConnClose,
    /// A gateway turned backpressure into a `Busy` reply instead of
    /// blocking a connection handler.
    Busy,
}

impl FlightKind {
    /// Stable wire name (used in JSONL dumps and `report --flight`).
    pub fn name(&self) -> &'static str {
        match self {
            FlightKind::Swap => "swap",
            FlightKind::Donate => "donate",
            FlightKind::Steal => "steal",
            FlightKind::WmSkip => "wm-skip",
            FlightKind::WmRetry => "wm-retry",
            FlightKind::Drop => "drop",
            FlightKind::Redirect => "redirect",
            FlightKind::Drain => "drain",
            FlightKind::Panic => "panic",
            FlightKind::ConnOpen => "conn-open",
            FlightKind::ConnClose => "conn-close",
            FlightKind::Busy => "busy",
        }
    }
}

impl std::fmt::Display for FlightKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for FlightKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Ok(match s {
            "swap" => FlightKind::Swap,
            "donate" => FlightKind::Donate,
            "steal" => FlightKind::Steal,
            "wm-skip" => FlightKind::WmSkip,
            "wm-retry" => FlightKind::WmRetry,
            "drop" => FlightKind::Drop,
            "redirect" => FlightKind::Redirect,
            "drain" => FlightKind::Drain,
            "panic" => FlightKind::Panic,
            "conn-open" => FlightKind::ConnOpen,
            "conn-close" => FlightKind::ConnClose,
            "busy" => FlightKind::Busy,
            other => return Err(format!("unknown flight event kind '{other}'")),
        })
    }
}

impl serde::Serialize for FlightKind {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.name().to_string())
    }
}

impl serde::Deserialize for FlightKind {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        v.as_str()
            .ok_or_else(|| serde::Error::custom("flight kind must be a string"))?
            .parse()
            .map_err(serde::Error::custom)
    }
}

/// One structured control-plane event in a shard's flight ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotonic wall-clock timestamp: microseconds since the pool's epoch.
    pub us: u64,
    /// The shard the event concerns (for router-side events, the shard
    /// acted upon — the drop target, the steal victim, …).
    pub shard: usize,
    /// What happened.
    pub kind: FlightKind,
    /// The relevant *event* time (swap time, watermark value, release …);
    /// 0 when no event time applies.
    pub t: Time,
    /// Free-form context (`"fifo→lpf"`, `"2→0 x5"`, an error message …).
    pub detail: String,
}

serde::impl_serde_struct!(FlightEvent { us, shard, kind, t, detail });

/// A bounded ring of [`FlightEvent`]s. Control-plane events are rare (per
/// swap / steal round / overload incident, never per arrival or per step),
/// so a plain mutex around a `VecDeque` is cheap; when the ring is full the
/// oldest event is discarded and counted in [`dropped`](Self::dropped).
#[derive(Debug)]
pub struct FlightRecorder {
    cap: usize,
    inner: Mutex<FlightInner>,
}

#[derive(Debug, Default)]
struct FlightInner {
    buf: VecDeque<FlightEvent>,
    dropped: u64,
}

impl FlightRecorder {
    /// A ring holding at most `cap` events (`cap >= 1`).
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "a flight ring needs at least one slot");
        FlightRecorder { cap, inner: Mutex::new(FlightInner::default()) }
    }

    /// Append one event, evicting the oldest if the ring is full.
    pub fn record(&self, ev: FlightEvent) {
        let mut inner = self.inner.lock().expect("flight ring lock");
        if inner.buf.len() == self.cap {
            inner.buf.pop_front();
            inner.dropped += 1;
        }
        inner.buf.push_back(ev);
    }

    /// The ring's current contents, oldest first (the ring is not cleared).
    pub fn events(&self) -> Vec<FlightEvent> {
        self.inner.lock().expect("flight ring lock").buf.iter().cloned().collect()
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("flight ring lock").buf.len()
    }

    /// Is the ring empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("flight ring lock").dropped
    }
}

/// One shard's always-on telemetry cell and its only live view: latency
/// histograms, the progress counters and theory gauges of the last
/// [`publish`](Self::publish)ed [`ShardSnapshot`], the shard's queue
/// depth, and the flight ring.
/// Lives behind an `Arc` shared by the worker, the router, and every
/// reader, so it survives a worker panic.
#[derive(Debug)]
pub struct ShardTelemetry {
    epoch: Instant,
    shard: usize,
    /// Wall-clock µs from router offer to session admission.
    pub arrival_to_admit: AtomicHisto,
    /// Wall-clock µs from admission to the job's first subjob dispatch.
    pub admit_to_first_dispatch: AtomicHisto,
    /// Wall-clock µs from router offer to the job's completion event.
    pub arrival_to_complete: AtomicHisto,
    now: AtomicU64,
    admitted: AtomicU64,
    steps: AtomicU64,
    dispatched: AtomicU64,
    donated: AtomicU64,
    swaps: AtomicU64,
    lower_bound: AtomicU64,
    max_flow: AtomicU64,
    violations: AtomicU64,
    /// The queue depth behind `queue_len`: every add happens before its
    /// send and every subtract after its receive, so it never underflows.
    queued: AtomicUsize,
    /// Bounded ring of control-plane events.
    pub flight: FlightRecorder,
}

impl ShardTelemetry {
    fn new(epoch: Instant, shard: usize, flight_cap: usize) -> Self {
        ShardTelemetry {
            epoch,
            shard,
            arrival_to_admit: AtomicHisto::new(),
            admit_to_first_dispatch: AtomicHisto::new(),
            arrival_to_complete: AtomicHisto::new(),
            now: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            steps: AtomicU64::new(0),
            dispatched: AtomicU64::new(0),
            donated: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
            lower_bound: AtomicU64::new(0),
            max_flow: AtomicU64::new(0),
            violations: AtomicU64::new(0),
            queued: AtomicUsize::new(0),
            flight: FlightRecorder::new(flight_cap),
        }
    }

    /// Microseconds since the pool's epoch (the flight-event clock).
    #[inline]
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Record a control-plane event about this shard into its flight ring,
    /// stamped with the pool clock.
    pub fn record(&self, kind: FlightKind, t: Time, detail: String) {
        self.flight
            .record(FlightEvent { us: self.now_us(), shard: self.shard, kind, t, detail });
    }

    /// Publish `snap` (worker side, once per loop iteration). Relaxed:
    /// readers tolerate skew between fields. `queue_len` is not stored (the
    /// pool's sends and the worker's receives keep it live); `staged` is
    /// the router's.
    pub fn publish(&self, snap: &ShardSnapshot) {
        self.now.store(snap.now, Ordering::Relaxed);
        self.admitted.store(snap.admitted as u64, Ordering::Relaxed);
        self.steps.store(snap.steps, Ordering::Relaxed);
        self.dispatched.store(snap.dispatched, Ordering::Relaxed);
        self.donated.store(snap.donated, Ordering::Relaxed);
        self.swaps.store(snap.swaps, Ordering::Relaxed);
        self.lower_bound.store(snap.lower_bound, Ordering::Relaxed);
        self.max_flow.store(snap.max_flow, Ordering::Relaxed);
        self.violations.store(snap.violations, Ordering::Relaxed);
    }

    /// The latest published view (reader side), with the live queue depth
    /// and with `staged` left 0 for the pool to fill in.
    pub fn load(&self) -> ShardSnapshot {
        ShardSnapshot {
            now: self.now.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed) as usize,
            steps: self.steps.load(Ordering::Relaxed),
            dispatched: self.dispatched.load(Ordering::Relaxed),
            donated: self.donated.load(Ordering::Relaxed),
            swaps: self.swaps.load(Ordering::Relaxed),
            lower_bound: self.lower_bound.load(Ordering::Relaxed),
            max_flow: self.max_flow.load(Ordering::Relaxed),
            violations: self.violations.load(Ordering::Relaxed),
            queue_len: self.queue_len(),
            staged: 0,
        }
    }

    /// Commands sent, or being sent, to the shard and not yet received by
    /// its worker. A blocking send waiting on a full queue is already
    /// counted, so the depth can read `queue_cap + 1` while it waits.
    pub(crate) fn queue_len(&self) -> usize {
        self.queued.load(Ordering::Relaxed)
    }

    /// Count `n` commands in, before the channel operation that sends them.
    pub(crate) fn add_queued(&self, n: usize) {
        self.queued.fetch_add(n, Ordering::Relaxed);
    }

    /// Count `n` commands out: a failed send, or the worker's receive.
    pub(crate) fn sub_queued(&self, n: usize) {
        self.queued.fetch_sub(n, Ordering::Relaxed);
    }

    /// Materialize this shard's latency histograms and flight-ring counts.
    pub fn metrics(&self) -> ShardMetrics {
        ShardMetrics {
            arrival_to_admit: self.arrival_to_admit.snapshot(),
            admit_to_first_dispatch: self.admit_to_first_dispatch.snapshot(),
            arrival_to_complete: self.arrival_to_complete.snapshot(),
            flight_len: self.flight.len(),
            flight_dropped: self.flight.dropped(),
        }
    }
}

/// The pool-wide metrics registry: one [`ShardTelemetry`] per shard plus
/// the shared epoch all timestamps are measured from.
#[derive(Debug)]
pub struct Telemetry {
    epoch: Instant,
    shards: Vec<Arc<ShardTelemetry>>,
}

impl Telemetry {
    /// A registry for `shards` shards, each with a `flight_cap`-slot ring.
    pub fn new(shards: usize, flight_cap: usize) -> Self {
        let epoch = Instant::now();
        Telemetry {
            epoch,
            shards: (0..shards)
                .map(|i| Arc::new(ShardTelemetry::new(epoch, i, flight_cap)))
                .collect(),
        }
    }

    /// Shard `i`'s telemetry cell.
    pub fn shard(&self, i: usize) -> &Arc<ShardTelemetry> {
        &self.shards[i]
    }

    /// All shard cells, indexed by shard.
    pub fn shards(&self) -> &[Arc<ShardTelemetry>] {
        &self.shards
    }

    /// Microseconds since the registry was created.
    #[inline]
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Every shard's flight events, merged and sorted by timestamp.
    pub fn flight_events(&self) -> Vec<FlightEvent> {
        let mut all: Vec<FlightEvent> =
            self.shards.iter().flat_map(|s| s.flight.events()).collect();
        all.sort_by_key(|e| e.us);
        all
    }
}

/// The per-shard latency probe: rides as the fourth element of the shard's
/// probe tuple and records admit→first-dispatch and arrival→completion
/// latencies into the shard's [`ShardTelemetry`]. The worker feeds it
/// offer/admit stamps via [`stamp`](Self::stamp) right after each
/// admission; the probe hooks handle the rest. Cost is one `Instant::now`
/// per *job* milestone (never per subjob), plus a vec lookup per pick.
#[derive(Debug)]
pub struct LatencyProbe {
    tel: Arc<ShardTelemetry>,
    offered_us: Vec<u64>,
    admitted_us: Vec<u64>,
    dispatched: Vec<bool>,
}

impl LatencyProbe {
    /// A probe recording into `tel`.
    pub fn new(tel: Arc<ShardTelemetry>) -> Self {
        LatencyProbe {
            tel,
            offered_us: Vec::new(),
            admitted_us: Vec::new(),
            dispatched: Vec::new(),
        }
    }

    /// Register `job`'s wall-clock stamps: when the router first saw it
    /// (`offered_us`) and when the session admitted it (`admit_us`).
    /// Records the arrival→admit observation immediately.
    pub fn stamp(&mut self, job: JobId, offered_us: u64, admit_us: u64) {
        let i = job.index();
        if i >= self.offered_us.len() {
            self.offered_us.resize(i + 1, 0);
            self.admitted_us.resize(i + 1, 0);
            self.dispatched.resize(i + 1, false);
        }
        self.offered_us[i] = offered_us;
        self.admitted_us[i] = admit_us;
        self.tel.arrival_to_admit.record(admit_us.saturating_sub(offered_us));
    }
}

impl Probe for LatencyProbe {
    #[inline]
    fn on_step(&mut self, _t: Time, stat: StepStat<'_>) {
        for &(job, _) in stat.picks {
            let i = job.index();
            if i < self.dispatched.len() && !self.dispatched[i] {
                self.dispatched[i] = true;
                let now = self.tel.now_us();
                self.tel.admit_to_first_dispatch.record(now.saturating_sub(self.admitted_us[i]));
            }
        }
    }

    #[inline]
    fn on_complete(&mut self, _t: Time, job: JobId, _release: Time) {
        let i = job.index();
        if i < self.offered_us.len() {
            let now = self.tel.now_us();
            self.tel.arrival_to_complete.record(now.saturating_sub(self.offered_us[i]));
        }
    }

    /// Idle gaps carry no job milestones; an O(1) no-op keeps fast-forward
    /// fast (the default impl would replay the gap stepwise).
    #[inline]
    fn on_idle_gap(&mut self, _t0: Time, _steps: Time, _m: usize) {}
}

/// One shard's materialized latency histograms and flight-ring counts (see
/// [`ShardTelemetry::metrics`]); its gauges are in [`ShardSnapshot`].
#[derive(Debug, Clone)]
pub struct ShardMetrics {
    /// Arrival→admit latency distribution (µs).
    pub arrival_to_admit: LogHistogram,
    /// Admit→first-dispatch latency distribution (µs).
    pub admit_to_first_dispatch: LogHistogram,
    /// Arrival→completion latency distribution (µs).
    pub arrival_to_complete: LogHistogram,
    /// Flight events currently in the ring.
    pub flight_len: usize,
    /// Flight events evicted because the ring was full.
    pub flight_dropped: u64,
}

/// A merged point-in-time view of the whole pool's telemetry: ingest
/// counters, per-shard progress and theory gauges, and per-shard latency
/// metrics.
/// Returned by [`PoolHandle::metrics`]; rendered by
/// [`render_prometheus`](Self::render_prometheus).
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Microseconds since the pool launched.
    pub uptime_us: u64,
    /// Ingest counters at snapshot time.
    pub ingest: IngestStats,
    /// Per-shard progress and theory gauges, indexed by shard.
    pub shards: Vec<ShardSnapshot>,
    /// Per-shard latency histograms and flight-ring counts, indexed by shard.
    pub telemetry: Vec<ShardMetrics>,
}

impl MetricsSnapshot {
    /// Pool-wide arrival→completion latency: the per-shard histograms
    /// merged (exact — merging disjoint streams is lossless).
    pub fn arrival_to_complete(&self) -> LogHistogram {
        let mut merged = LogHistogram::new();
        for t in &self.telemetry {
            merged.merge(&t.arrival_to_complete);
        }
        merged
    }

    /// Worst live per-shard `max_flow / LB` ratio (`None` until some shard
    /// completes a job).
    pub fn ratio(&self) -> Option<f64> {
        self.shards.iter().filter_map(ShardSnapshot::ratio).reduce(f64::max)
    }

    /// Invariant violations summed across shards.
    pub fn total_violations(&self) -> u64 {
        self.shards.iter().map(|s| s.violations).sum()
    }

    /// Render the snapshot in the Prometheus text exposition format
    /// (`text/plain; version=0.0.4`): `_total` counters for ingest,
    /// per-shard gauges, and per-stage latency summaries with
    /// `quantile`-labelled p50/p90/p99 plus `_max`, `_mean`, `_count`.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(4096);
        let _ = writeln!(out, "# HELP flowtree_uptime_seconds Seconds since the pool launched.");
        let _ = writeln!(out, "# TYPE flowtree_uptime_seconds gauge");
        let _ = writeln!(out, "flowtree_uptime_seconds {}", self.uptime_us as f64 / 1e6);

        let ing = &self.ingest;
        let counters: [(&str, u64, &str); 8] = [
            ("offered", ing.offered, "Arrivals offered to the pool."),
            ("delivered", ing.delivered, "Arrivals delivered to some shard."),
            ("dropped", ing.dropped, "Arrivals shed under the drop policy."),
            ("redirected", ing.redirected, "Arrivals placed off their routed shard."),
            ("reordered", ing.reordered, "Arrivals whose release was clamped forward."),
            ("stolen_in", ing.stolen_in, "Jobs migrated onto an underloaded shard."),
            ("stolen_out", ing.stolen_out, "Jobs migrated off an overloaded shard."),
            ("wm_skipped", ing.wm_skipped, "Watermark broadcasts skipped on full queues."),
        ];
        for (name, v, help) in counters {
            let _ = writeln!(out, "# HELP flowtree_ingest_{name}_total {help}");
            let _ = writeln!(out, "# TYPE flowtree_ingest_{name}_total counter");
            let _ = writeln!(out, "flowtree_ingest_{name}_total {v}");
        }

        let _ = writeln!(out, "# HELP flowtree_shard_now The shard's simulated clock.");
        let _ = writeln!(out, "# TYPE flowtree_shard_now gauge");
        for (i, s) in self.shards.iter().enumerate() {
            let _ = writeln!(out, "flowtree_shard_now{{shard=\"{i}\"}} {}", s.now);
        }
        type GaugeRow<'a, T> = (&'a str, &'a dyn Fn(&T) -> u64, &'a str);
        let shard_gauges: [GaugeRow<'_, ShardSnapshot>; 10] = [
            ("admitted", &|s| s.admitted as u64, "Jobs admitted so far."),
            ("steps", &|s| s.steps, "Steps simulated so far."),
            ("dispatched", &|s| s.dispatched, "Subjobs dispatched so far."),
            ("queue_len", &|s| s.queue_len as u64, "Commands queued to the shard."),
            ("staged", &|s| s.staged as u64, "Arrivals staged router-side for the shard."),
            ("donated", &|s| s.donated, "Jobs admitted via donation (stolen in)."),
            ("swaps", &|s| s.swaps, "Scheduler hot-swaps applied."),
            ("violations", &|s| s.violations, "Live invariant-violation total."),
            ("max_flow", &|s| s.max_flow, "Live observed max flow."),
            ("lower_bound", &|s| s.lower_bound, "Live Lemma 5.1 lower bound."),
        ];
        for (name, get, help) in shard_gauges {
            let _ = writeln!(out, "# HELP flowtree_shard_{name} {help}");
            let _ = writeln!(out, "# TYPE flowtree_shard_{name} gauge");
            for (i, s) in self.shards.iter().enumerate() {
                let _ = writeln!(out, "flowtree_shard_{name}{{shard=\"{i}\"}} {}", get(s));
            }
        }

        let tel_gauges: [GaugeRow<'_, ShardMetrics>; 2] = [
            ("flight_events", &|t| t.flight_len as u64, "Flight events in the ring."),
            ("flight_dropped", &|t| t.flight_dropped, "Flight events evicted from the ring."),
        ];
        for (name, get, help) in tel_gauges {
            let _ = writeln!(out, "# HELP flowtree_shard_{name} {help}");
            let _ = writeln!(out, "# TYPE flowtree_shard_{name} gauge");
            for (i, t) in self.telemetry.iter().enumerate() {
                let _ = writeln!(out, "flowtree_shard_{name}{{shard=\"{i}\"}} {}", get(t));
            }
        }
        let _ = writeln!(out, "# HELP flowtree_shard_flow_ratio Live max_flow/LB ratio.");
        let _ = writeln!(out, "# TYPE flowtree_shard_flow_ratio gauge");
        for (i, s) in self.shards.iter().enumerate() {
            if let Some(r) = s.ratio() {
                let _ = writeln!(out, "flowtree_shard_flow_ratio{{shard=\"{i}\"}} {r}");
            }
        }

        let _ = writeln!(
            out,
            "# HELP flowtree_latency_us End-to-end wall-clock latency summaries (µs)."
        );
        let _ = writeln!(out, "# TYPE flowtree_latency_us summary");
        for (i, t) in self.telemetry.iter().enumerate() {
            for (stage, h) in [
                ("arrival_to_admit", &t.arrival_to_admit),
                ("admit_to_first_dispatch", &t.admit_to_first_dispatch),
                ("arrival_to_complete", &t.arrival_to_complete),
            ] {
                let base = format!("stage=\"{stage}\",shard=\"{i}\"");
                for (q, v) in [("0.5", h.p50()), ("0.9", h.p90()), ("0.99", h.p99())] {
                    let _ = writeln!(out, "flowtree_latency_us{{{base},quantile=\"{q}\"}} {v}");
                }
                let _ = writeln!(out, "flowtree_latency_us_max{{{base}}} {}", h.max());
                let _ = writeln!(out, "flowtree_latency_us_mean{{{base}}} {}", h.mean());
                let _ = writeln!(out, "flowtree_latency_us_count{{{base}}} {}", h.count());
            }
        }
        out
    }
}

/// A running metrics exposition endpoint (see [`serve_metrics`]). Dropping
/// (or calling [`shutdown`](Self::shutdown)) stops the listener thread.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// The address the listener actually bound (resolves `:0` ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the listener thread and wait for it to exit.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // The listener thread parks in a *blocking* `accept` (a sleeping
        // poll loop would wake on a timer and preempt busy cores for
        // nothing); wake it with a throwaway connection so it observes the
        // stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// An extra exposition provider: called per scrape, its output is appended
/// verbatim after the pool's own exposition (it must be well-formed
/// Prometheus text itself). This is how a front door (the gateway) gets its
/// per-connection gauges onto the *existing* endpoint instead of a second
/// port.
pub type MetricsExtra = Arc<dyn Fn() -> String + Send + Sync>;

/// Serve `handle`'s metrics over HTTP on `addr` (e.g. `127.0.0.1:9464`, or
/// port 0 to pick a free one). Every request — any path — receives the
/// current [`MetricsSnapshot`] rendered in the Prometheus text format.
/// Plain std TCP, one reader thread, no new dependencies; scraping reads
/// the same atomics the workers write, so it cannot perturb results. The
/// listener thread blocks in `accept` between requests — it never wakes on
/// a timer, so an idle endpoint costs the pool nothing even on a
/// single-core host ([`MetricsServer::shutdown`] wakes it with a poke
/// connection).
pub fn serve_metrics(addr: &str, handle: PoolHandle) -> io::Result<MetricsServer> {
    serve_metrics_with(addr, handle, None)
}

/// [`serve_metrics`] plus an optional [`MetricsExtra`] appended to every
/// scrape body.
pub fn serve_metrics_with(
    addr: &str,
    handle: PoolHandle,
    extra: Option<MetricsExtra>,
) -> io::Result<MetricsServer> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let thread =
        std::thread::Builder::new()
            .name("flowtree-metrics".to_string())
            .spawn(move || {
                while let Ok((stream, _)) = listener.accept() {
                    if flag.load(Ordering::Relaxed) {
                        break;
                    }
                    let _ = respond(stream, &handle, extra.as_ref());
                }
            })?;
    Ok(MetricsServer { addr: bound, stop, thread: Some(thread) })
}

fn respond(
    mut stream: TcpStream,
    handle: &PoolHandle,
    extra: Option<&MetricsExtra>,
) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    // Consume (and ignore) the request head; every path serves metrics.
    let mut buf = [0u8; 1024];
    let _ = stream.read(&mut buf);
    let mut body = handle.metrics().render_prometheus();
    if let Some(extra) = extra {
        body.push_str(&extra());
    }
    let head = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())
}

/// Why a [`scrape_metrics`] call failed. Every variant's message names the
/// scraped address, so a CI log or CLI error points straight at the
/// endpoint that was (or wasn't) there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScrapeError {
    /// Nothing is listening at the address (the usual CI race: the serve
    /// process has not bound its `--metrics-addr` yet, or already exited).
    Refused {
        /// The address that refused the connection.
        addr: String,
    },
    /// Some other socket-level failure (timeout, reset, unroutable …).
    Io {
        /// The address being scraped.
        addr: String,
        /// The underlying error, stringified.
        err: String,
    },
    /// The response was not an HTTP reply with a header/body split.
    Malformed {
        /// The address that replied.
        addr: String,
    },
}

impl ScrapeError {
    /// Whether retrying later could plausibly succeed (the endpoint may
    /// simply not be up yet).
    pub fn is_retryable(&self) -> bool {
        !matches!(self, ScrapeError::Malformed { .. })
    }
}

impl std::fmt::Display for ScrapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScrapeError::Refused { addr } => write!(
                f,
                "connection refused by {addr} — is a serve/gateway run with \
                 --metrics-addr {addr} up?"
            ),
            ScrapeError::Io { addr, err } => write!(f, "scrape {addr}: {err}"),
            ScrapeError::Malformed { addr } => {
                write!(f, "scrape {addr}: response has no HTTP header/body split")
            }
        }
    }
}

impl std::error::Error for ScrapeError {}

/// One-shot scrape: GET `addr` and return the exposition body (headers
/// stripped). The client half of [`serve_metrics`], used by the
/// `flowtree-repro metrics` subcommand and the CI smoke test.
pub fn scrape_metrics(addr: &str) -> Result<String, ScrapeError> {
    let classify = |e: io::Error| match e.kind() {
        io::ErrorKind::ConnectionRefused => ScrapeError::Refused { addr: addr.to_string() },
        _ => ScrapeError::Io { addr: addr.to_string(), err: e.to_string() },
    };
    let mut stream = TcpStream::connect(addr).map_err(classify)?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).map_err(classify)?;
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\nHost: flowtree\r\n\r\n")
        .map_err(classify)?;
    let mut text = String::new();
    stream.read_to_string(&mut text).map_err(classify)?;
    match text.split_once("\r\n\r\n") {
        Some((_, body)) => Ok(body.to_string()),
        None => Err(ScrapeError::Malformed { addr: addr.to_string() }),
    }
}

/// Write `events` as JSONL (one [`FlightEvent`] object per line).
pub fn write_flight_jsonl(path: &Path, events: &[FlightEvent]) -> io::Result<()> {
    let mut out = String::new();
    for ev in events {
        let line = serde_json::to_string(ev)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        out.push_str(&line);
        out.push('\n');
    }
    std::fs::write(path, out)
}

/// Load a flight JSONL dump written by [`write_flight_jsonl`].
pub fn load_flight_jsonl(path: &Path) -> io::Result<Vec<FlightEvent>> {
    let text = std::fs::read_to_string(path)?;
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let ev: FlightEvent = serde_json::from_str(line).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("{}:{}: {e}", path.display(), i + 1))
        })?;
        events.push(ev);
    }
    Ok(events)
}

/// Is `path` a flight-recorder dump (`flight*.jsonl`)? The CLI writes
/// them beside the store records, which a store scan must skip.
pub fn is_flight_dump(path: &Path) -> bool {
    path.file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.starts_with("flight") && n.ends_with(".jsonl"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtree_dag::NodeId;

    #[test]
    fn atomic_histo_snapshot_matches_plain_histogram() {
        let atomic = AtomicHisto::new();
        let mut plain = LogHistogram::new();
        for v in [0u64, 1, 2, 7, 100, 1_000_000, 5] {
            atomic.record(v);
            plain.record(v);
        }
        let snap = atomic.snapshot();
        assert_eq!(snap.count(), plain.count());
        assert_eq!(snap.max(), plain.max());
        assert_eq!(snap.p50(), plain.p50());
        assert_eq!(snap.p99(), plain.p99());
        assert!((snap.mean() - plain.mean()).abs() < 1e-9);
    }

    #[test]
    fn atomic_histo_max_survives_concurrent_writers() {
        // Two writers, released together, interleave rising and falling
        // values; whichever loses a race on the max must not leave a
        // smaller one behind.
        let h = AtomicHisto::new();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for w in 0..2u64 {
                let (h, start) = (&h, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..20_000u64 {
                        h.record(if i % 2 == 0 { i * 2 + w } else { 7 });
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count(), 40_000);
        assert_eq!(snap.max(), 19_998 * 2 + 1);
    }

    #[test]
    fn flight_ring_bounds_and_counts_evictions() {
        let ring = FlightRecorder::new(3);
        for i in 0..5u64 {
            ring.record(FlightEvent {
                us: i,
                shard: 0,
                kind: FlightKind::Swap,
                t: i,
                detail: String::new(),
            });
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let events = ring.events();
        assert_eq!(events.first().map(|e| e.us), Some(2));
        assert_eq!(events.last().map(|e| e.us), Some(4));
    }

    #[test]
    fn flight_events_roundtrip_through_jsonl() {
        let dir = std::env::temp_dir().join(format!("flowtree-flight-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("flight.jsonl");
        let events = vec![
            FlightEvent {
                us: 12,
                shard: 0,
                kind: FlightKind::Swap,
                t: 4,
                detail: "fifo→lpf".to_string(),
            },
            FlightEvent {
                us: 34,
                shard: 1,
                kind: FlightKind::Steal,
                t: 0,
                detail: "1→0 x5".to_string(),
            },
        ];
        write_flight_jsonl(&path, &events).expect("write");
        let back = load_flight_jsonl(&path).expect("load");
        assert_eq!(back, events);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flight_kind_names_roundtrip() {
        for k in [
            FlightKind::Swap,
            FlightKind::Donate,
            FlightKind::Steal,
            FlightKind::WmSkip,
            FlightKind::WmRetry,
            FlightKind::Drop,
            FlightKind::Redirect,
            FlightKind::Drain,
            FlightKind::Panic,
            FlightKind::ConnOpen,
            FlightKind::ConnClose,
            FlightKind::Busy,
        ] {
            assert_eq!(k.name().parse::<FlightKind>(), Ok(k));
        }
        assert!("warp".parse::<FlightKind>().is_err());
    }

    #[test]
    fn refused_scrapes_report_a_typed_error_naming_the_address() {
        // Bind then drop a listener so the port is known-free: the connect
        // must be refused, not time out.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr").to_string()
        };
        let err = scrape_metrics(&addr).expect_err("nothing listening");
        assert_eq!(err, ScrapeError::Refused { addr: addr.clone() });
        assert!(err.is_retryable());
        let msg = err.to_string();
        assert!(msg.contains(&addr), "{msg}");
        assert!(msg.contains("refused"), "{msg}");
        assert!(!ScrapeError::Malformed { addr }.is_retryable());
    }

    #[test]
    fn latency_probe_records_job_milestones_once() {
        let tel = Arc::new(ShardTelemetry::new(Instant::now(), 0, 8));
        let mut probe = LatencyProbe::new(Arc::clone(&tel));
        probe.stamp(JobId(0), 0, 10);
        let picks = [(JobId(0), NodeId(0)), (JobId(0), NodeId(1))]; // second pick: no-op
        probe.on_step(0, StepStat { picks: &picks, idle_procs: 0, ready_depth: 2 });
        probe.on_complete(1, JobId(0), 0);
        assert_eq!(tel.arrival_to_admit.snapshot().count(), 1);
        assert_eq!(tel.arrival_to_admit.snapshot().max(), 10);
        assert_eq!(tel.admit_to_first_dispatch.snapshot().count(), 1);
        assert_eq!(tel.arrival_to_complete.snapshot().count(), 1);
    }

    /// The exposition text, byte for byte, for a hand-built two-shard
    /// snapshot: gauges set on both shards, one non-empty histogram, and a
    /// flow ratio on shard 0 only (shard 1 has no completion yet).
    #[test]
    fn prometheus_exposition_is_pinned() {
        let mut admit = LogHistogram::new();
        for v in [3, 10, 200] {
            admit.record(v);
        }
        let metrics = |flight_len, flight_dropped| ShardMetrics {
            arrival_to_admit: LogHistogram::new(),
            admit_to_first_dispatch: LogHistogram::new(),
            arrival_to_complete: LogHistogram::new(),
            flight_len,
            flight_dropped,
        };
        let snap = MetricsSnapshot {
            uptime_us: 1_500_000,
            ingest: IngestStats {
                offered: 7,
                delivered: 5,
                dropped: 1,
                redirected: 1,
                reordered: 2,
                stolen_in: 1,
                stolen_out: 1,
                wm_skipped: 3,
            },
            shards: vec![
                ShardSnapshot {
                    now: 12,
                    admitted: 4,
                    steps: 12,
                    dispatched: 20,
                    lower_bound: 5,
                    max_flow: 8,
                    violations: 0,
                    donated: 1,
                    swaps: 1,
                    queue_len: 2,
                    staged: 0,
                },
                ShardSnapshot {
                    now: 9,
                    admitted: 3,
                    steps: 9,
                    dispatched: 11,
                    lower_bound: 4,
                    max_flow: 0,
                    violations: 2,
                    donated: 0,
                    swaps: 0,
                    queue_len: 0,
                    staged: 1,
                },
            ],
            telemetry: vec![
                ShardMetrics { arrival_to_admit: admit, ..metrics(3, 0) },
                metrics(0, 1),
            ],
        };
        assert_eq!(snap.render_prometheus(), GOLDEN_EXPOSITION);
    }

    const GOLDEN_EXPOSITION: &str = r##"# HELP flowtree_uptime_seconds Seconds since the pool launched.
# TYPE flowtree_uptime_seconds gauge
flowtree_uptime_seconds 1.5
# HELP flowtree_ingest_offered_total Arrivals offered to the pool.
# TYPE flowtree_ingest_offered_total counter
flowtree_ingest_offered_total 7
# HELP flowtree_ingest_delivered_total Arrivals delivered to some shard.
# TYPE flowtree_ingest_delivered_total counter
flowtree_ingest_delivered_total 5
# HELP flowtree_ingest_dropped_total Arrivals shed under the drop policy.
# TYPE flowtree_ingest_dropped_total counter
flowtree_ingest_dropped_total 1
# HELP flowtree_ingest_redirected_total Arrivals placed off their routed shard.
# TYPE flowtree_ingest_redirected_total counter
flowtree_ingest_redirected_total 1
# HELP flowtree_ingest_reordered_total Arrivals whose release was clamped forward.
# TYPE flowtree_ingest_reordered_total counter
flowtree_ingest_reordered_total 2
# HELP flowtree_ingest_stolen_in_total Jobs migrated onto an underloaded shard.
# TYPE flowtree_ingest_stolen_in_total counter
flowtree_ingest_stolen_in_total 1
# HELP flowtree_ingest_stolen_out_total Jobs migrated off an overloaded shard.
# TYPE flowtree_ingest_stolen_out_total counter
flowtree_ingest_stolen_out_total 1
# HELP flowtree_ingest_wm_skipped_total Watermark broadcasts skipped on full queues.
# TYPE flowtree_ingest_wm_skipped_total counter
flowtree_ingest_wm_skipped_total 3
# HELP flowtree_shard_now The shard's simulated clock.
# TYPE flowtree_shard_now gauge
flowtree_shard_now{shard="0"} 12
flowtree_shard_now{shard="1"} 9
# HELP flowtree_shard_admitted Jobs admitted so far.
# TYPE flowtree_shard_admitted gauge
flowtree_shard_admitted{shard="0"} 4
flowtree_shard_admitted{shard="1"} 3
# HELP flowtree_shard_steps Steps simulated so far.
# TYPE flowtree_shard_steps gauge
flowtree_shard_steps{shard="0"} 12
flowtree_shard_steps{shard="1"} 9
# HELP flowtree_shard_dispatched Subjobs dispatched so far.
# TYPE flowtree_shard_dispatched gauge
flowtree_shard_dispatched{shard="0"} 20
flowtree_shard_dispatched{shard="1"} 11
# HELP flowtree_shard_queue_len Commands queued to the shard.
# TYPE flowtree_shard_queue_len gauge
flowtree_shard_queue_len{shard="0"} 2
flowtree_shard_queue_len{shard="1"} 0
# HELP flowtree_shard_staged Arrivals staged router-side for the shard.
# TYPE flowtree_shard_staged gauge
flowtree_shard_staged{shard="0"} 0
flowtree_shard_staged{shard="1"} 1
# HELP flowtree_shard_donated Jobs admitted via donation (stolen in).
# TYPE flowtree_shard_donated gauge
flowtree_shard_donated{shard="0"} 1
flowtree_shard_donated{shard="1"} 0
# HELP flowtree_shard_swaps Scheduler hot-swaps applied.
# TYPE flowtree_shard_swaps gauge
flowtree_shard_swaps{shard="0"} 1
flowtree_shard_swaps{shard="1"} 0
# HELP flowtree_shard_violations Live invariant-violation total.
# TYPE flowtree_shard_violations gauge
flowtree_shard_violations{shard="0"} 0
flowtree_shard_violations{shard="1"} 2
# HELP flowtree_shard_max_flow Live observed max flow.
# TYPE flowtree_shard_max_flow gauge
flowtree_shard_max_flow{shard="0"} 8
flowtree_shard_max_flow{shard="1"} 0
# HELP flowtree_shard_lower_bound Live Lemma 5.1 lower bound.
# TYPE flowtree_shard_lower_bound gauge
flowtree_shard_lower_bound{shard="0"} 5
flowtree_shard_lower_bound{shard="1"} 4
# HELP flowtree_shard_flight_events Flight events in the ring.
# TYPE flowtree_shard_flight_events gauge
flowtree_shard_flight_events{shard="0"} 3
flowtree_shard_flight_events{shard="1"} 0
# HELP flowtree_shard_flight_dropped Flight events evicted from the ring.
# TYPE flowtree_shard_flight_dropped gauge
flowtree_shard_flight_dropped{shard="0"} 0
flowtree_shard_flight_dropped{shard="1"} 1
# HELP flowtree_shard_flow_ratio Live max_flow/LB ratio.
# TYPE flowtree_shard_flow_ratio gauge
flowtree_shard_flow_ratio{shard="0"} 1.6
# HELP flowtree_latency_us End-to-end wall-clock latency summaries (µs).
# TYPE flowtree_latency_us summary
flowtree_latency_us{stage="arrival_to_admit",shard="0",quantile="0.5"} 15
flowtree_latency_us{stage="arrival_to_admit",shard="0",quantile="0.9"} 200
flowtree_latency_us{stage="arrival_to_admit",shard="0",quantile="0.99"} 200
flowtree_latency_us_max{stage="arrival_to_admit",shard="0"} 200
flowtree_latency_us_mean{stage="arrival_to_admit",shard="0"} 71
flowtree_latency_us_count{stage="arrival_to_admit",shard="0"} 3
flowtree_latency_us{stage="admit_to_first_dispatch",shard="0",quantile="0.5"} 0
flowtree_latency_us{stage="admit_to_first_dispatch",shard="0",quantile="0.9"} 0
flowtree_latency_us{stage="admit_to_first_dispatch",shard="0",quantile="0.99"} 0
flowtree_latency_us_max{stage="admit_to_first_dispatch",shard="0"} 0
flowtree_latency_us_mean{stage="admit_to_first_dispatch",shard="0"} 0
flowtree_latency_us_count{stage="admit_to_first_dispatch",shard="0"} 0
flowtree_latency_us{stage="arrival_to_complete",shard="0",quantile="0.5"} 0
flowtree_latency_us{stage="arrival_to_complete",shard="0",quantile="0.9"} 0
flowtree_latency_us{stage="arrival_to_complete",shard="0",quantile="0.99"} 0
flowtree_latency_us_max{stage="arrival_to_complete",shard="0"} 0
flowtree_latency_us_mean{stage="arrival_to_complete",shard="0"} 0
flowtree_latency_us_count{stage="arrival_to_complete",shard="0"} 0
flowtree_latency_us{stage="arrival_to_admit",shard="1",quantile="0.5"} 0
flowtree_latency_us{stage="arrival_to_admit",shard="1",quantile="0.9"} 0
flowtree_latency_us{stage="arrival_to_admit",shard="1",quantile="0.99"} 0
flowtree_latency_us_max{stage="arrival_to_admit",shard="1"} 0
flowtree_latency_us_mean{stage="arrival_to_admit",shard="1"} 0
flowtree_latency_us_count{stage="arrival_to_admit",shard="1"} 0
flowtree_latency_us{stage="admit_to_first_dispatch",shard="1",quantile="0.5"} 0
flowtree_latency_us{stage="admit_to_first_dispatch",shard="1",quantile="0.9"} 0
flowtree_latency_us{stage="admit_to_first_dispatch",shard="1",quantile="0.99"} 0
flowtree_latency_us_max{stage="admit_to_first_dispatch",shard="1"} 0
flowtree_latency_us_mean{stage="admit_to_first_dispatch",shard="1"} 0
flowtree_latency_us_count{stage="admit_to_first_dispatch",shard="1"} 0
flowtree_latency_us{stage="arrival_to_complete",shard="1",quantile="0.5"} 0
flowtree_latency_us{stage="arrival_to_complete",shard="1",quantile="0.9"} 0
flowtree_latency_us{stage="arrival_to_complete",shard="1",quantile="0.99"} 0
flowtree_latency_us_max{stage="arrival_to_complete",shard="1"} 0
flowtree_latency_us_mean{stage="arrival_to_complete",shard="1"} 0
flowtree_latency_us_count{stage="arrival_to_complete",shard="1"} 0
"##;
}
