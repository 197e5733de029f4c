//! `gateway-open`: a remote client at a stated offered load, open loop.
//!
//! One TCP connection over loopback carries the `serve-flood` job shape in
//! frames of 8 jobs (one burst each), sent on a seeded Poisson schedule by
//! a sender thread while a second thread reads the acks. The binary codec
//! runs pipelined: a frame goes out when it is due, without waiting for
//! earlier acks, up to the granted window. Behind the socket is the same
//! 2-shard pool as `serve-flood`, under `Gateway::launch` with
//! `GatewayConfig::default()`. Every 100 ms of schedule the sender also
//! renders the pool's Prometheus exposition, as an operator's scrape would.
//!
//! Two rungs: `lo` (20k jobs/s) exercises the gateway event loop's idle
//! path, `hi` (100k jobs/s) is meant to keep it hot. A rung is a sequence
//! of short epochs, each on a fresh pool, gateway and connection, so
//! retained shard state stays small. Latency runs from each frame's *due*
//! time to its ack, so a stall is charged to every frame it delays; a
//! frame refused with `Busy` counts as failed, misses every limit, and is
//! resent after the hinted back-off so the instance stays complete.

use crate::gen::{self, FLOOD};
use crate::serve_flood;
use crate::trace::Tracer;
use crate::{host, stats, Outcome, RunCfg};
use flowtree_gateway::{
    decode_reply, encode_request_into, encode_submit_batch_into, read_frame_patient_into,
    write_frame, Gateway, GatewayConfig, Reply, Request, WireCodec, MAX_FRAME, PROTOCOL_VERSION,
};
use flowtree_serve::{PoolHandle, ShardPool, ShardResult};
use flowtree_sim::{Instance, JobSpec};
use std::collections::VecDeque;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::time::{Duration, Instant};

/// One offered load.
#[derive(Debug, Clone, Copy)]
struct Rung {
    name: &'static str,
    jobs_per_s: f64,
}

/// The rungs, in run order.
const RUNGS: [Rung; 2] = [
    Rung { name: "lo", jobs_per_s: 20_000.0 },
    Rung { name: "hi", jobs_per_s: 100_000.0 },
];

/// Jobs per submit frame: one release burst.
const FRAME_JOBS: usize = FLOOD.burst;

/// Target length of one epoch (fresh pool, gateway and connection).
const EPOCH_S: f64 = 0.5;

/// Ack window requested in the hello (the default gateway grants 256).
const WINDOW: u64 = 256;

/// Schedule time between two operator reads of the metrics exposition.
const OPERATOR_READ_NS: u64 = 100_000_000;

/// How long the ack reader waits for a reply before failing the run.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

/// Thread-name prefix of the gateway's event-loop workers.
const WORKER_THREADS: &str = "gateway-worker-";

/// What the open loop asks of its caller, in schedule order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Due {
    /// The operator read that is due now.
    Read,
    /// Frame `k` is due now.
    Frame(usize),
}

/// Sleep until `at` (no-op if it has passed).
fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// The open-loop schedule: frame `k` is due `due_ns[k]` after `t0` and an
/// operator read every `read_every_ns`. Each item is handed to `step` no
/// earlier than it is due and never waits for any reply, so a slow `step`
/// delays everything behind it — and, since latency counts from the due
/// time, is charged to every frame it delays.
pub fn open_loop(
    t0: Instant,
    due_ns: &[u64],
    read_every_ns: u64,
    mut step: impl FnMut(Due) -> Result<(), String>,
) -> Result<(), String> {
    let mut next_read = read_every_ns;
    for (k, &due) in due_ns.iter().enumerate() {
        while next_read <= due {
            sleep_until(t0 + Duration::from_nanos(next_read));
            step(Due::Read)?;
            next_read += read_every_ns;
        }
        sleep_until(t0 + Duration::from_nanos(due));
        step(Due::Frame(k))?;
    }
    Ok(())
}

/// Due-to-ack latency (µs) per frame; a failed frame misses every limit.
pub fn due_to_ack_us(due_ns: &[u64], ack_ns: &[u64], failed: &[bool]) -> Vec<f64> {
    due_ns
        .iter()
        .zip(ack_ns)
        .zip(failed)
        .map(|((&d, &a), &f)| {
            if f {
                f64::INFINITY
            } else {
                a.saturating_sub(d) as f64 / 1e3
            }
        })
        .collect()
}

/// What the ack reader saw.
struct Acks {
    /// ns after `t0` at which each frame's ack arrived.
    ack_ns: Vec<u64>,
    /// Frames refused with `Busy` at least once.
    failed: Vec<bool>,
    /// Ack replies (each may cover several frames).
    acks: u64,
}

/// The ack reader: settle frames in send order as cumulative acks and
/// busy replies arrive. `ids` carries frame ids in write order; refused
/// frames go back to the sender on `retry` with the time they may go.
fn read_acks(
    mut stream: TcpStream,
    t0: Instant,
    frames: usize,
    ids: Receiver<usize>,
    retry: Sender<(usize, Instant)>,
    replied: &AtomicU64,
    acked: &AtomicU64,
) -> Result<Acks, String> {
    let mut a = Acks {
        ack_ns: vec![0; frames],
        failed: vec![false; frames],
        acks: 0,
    };
    let mut buf = Vec::with_capacity(256);
    let mut settled = 0usize;
    while settled < frames {
        let deadline = Instant::now() + REPLY_TIMEOUT;
        let got = read_frame_patient_into(&mut stream, MAX_FRAME, &mut buf, &mut || {
            Instant::now() < deadline
        })
        .map_err(|e| format!("ack reader: {e}"))?;
        if !got {
            return Err(format!("ack reader: no reply within {REPLY_TIMEOUT:?}"));
        }
        let now = Instant::now();
        let at = (now - t0).as_nanos() as u64;
        let (n, busy_until) = match decode_reply(&buf).map_err(|e| format!("ack reader: {e}"))? {
            Reply::Ack { frames: n, .. } => {
                a.acks += 1;
                (n as usize, None)
            }
            Reply::Busy { retry_after_ms, frames: n } => {
                (n as usize, Some(now + Duration::from_millis(retry_after_ms.clamp(1, 1000))))
            }
            other => return Err(format!("ack reader: expected ack or busy, got {other:?}")),
        };
        for _ in 0..n.max(1) {
            let id = ids
                .recv_timeout(REPLY_TIMEOUT)
                .map_err(|_| "ack reader: reply for a frame never sent".to_string())?;
            match busy_until {
                None => {
                    a.ack_ns[id] = at;
                    settled += 1;
                    acked.fetch_add(1, Ordering::SeqCst);
                }
                Some(when) => {
                    a.failed[id] = true;
                    retry.send((id, when)).map_err(|_| "ack reader: sender gone".to_string())?;
                }
            }
        }
        replied.fetch_add(n.max(1) as u64, Ordering::SeqCst);
    }
    Ok(a)
}

/// Per-frame sender timestamps of the first write, ns after `t0`; 0 means
/// not written yet (no frame is due before `t0`).
#[derive(Debug)]
struct Sent {
    enc_start: Vec<u64>,
    write_start: Vec<u64>,
    write_end: Vec<u64>,
    /// Sender time spent waiting for window room.
    stall_ns: u64,
}

/// The sending half of one connection.
struct FrameSender<'a> {
    stream: TcpStream,
    jobs: &'a [JobSpec],
    t0: Instant,
    buf: Vec<u8>,
    ids: Sender<usize>,
    writes: u64,
    replied: &'a AtomicU64,
    window: u64,
    sent: Sent,
}

impl FrameSender<'_> {
    fn ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Encode and write frame `id`, after waiting for window room.
    fn send(&mut self, id: usize) -> Result<(), String> {
        let wait = Instant::now();
        while self.writes - self.replied.load(Ordering::SeqCst) >= self.window {
            if wait.elapsed() > REPLY_TIMEOUT {
                return Err(format!("sender: window full for {REPLY_TIMEOUT:?}"));
            }
            std::thread::yield_now();
        }
        self.sent.stall_ns += wait.elapsed().as_nanos() as u64;
        let first = self.sent.write_start[id] == 0;
        let enc_start = self.ns();
        let frame = &self.jobs[id * FRAME_JOBS..(id + 1) * FRAME_JOBS];
        encode_submit_batch_into(frame, WireCodec::Binary, &mut self.buf);
        let write_start = self.ns();
        self.ids.send(id).map_err(|_| "sender: ack reader gone".to_string())?;
        write_frame(&mut self.stream, &self.buf).map_err(|e| format!("sender: {e}"))?;
        self.writes += 1;
        if first {
            self.sent.enc_start[id] = enc_start;
            self.sent.write_start[id] = write_start.max(1);
            self.sent.write_end[id] = self.ns();
        }
        Ok(())
    }
}

/// Connect and negotiate the binary codec with a pipelined window.
fn connect(addr: &str) -> Result<(TcpStream, u64), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let hello = Request::Hello {
        proto: PROTOCOL_VERSION,
        client: "flowbench".into(),
        codec: WireCodec::Binary,
        window: WINDOW,
    };
    let mut buf = Vec::new();
    encode_request_into(&hello, WireCodec::Json, &mut buf);
    write_frame(&mut stream, &buf).map_err(|e| format!("hello: {e}"))?;
    if !read_frame_patient_into(&mut stream, MAX_FRAME, &mut buf, &mut || true)
        .map_err(|e| format!("welcome: {e}"))?
    {
        return Err("gateway closed before welcome".into());
    }
    match decode_reply(&buf)? {
        Reply::Welcome { codec: WireCodec::Binary, window, .. } => Ok((stream, window.max(1))),
        other => Err(format!("expected a binary welcome, got {other:?}")),
    }
}

/// One epoch's measurements.
struct Epoch {
    due_ns: Vec<u64>,
    sent: Sent,
    acks: Acks,
    /// ns after `t0` of the last ack (the epoch's send wall).
    wall_ns: u64,
    /// Gateway worker CPU seconds over the epoch, and the worker count.
    worker_cpu_s: f64,
    workers: usize,
    busy_replies: u64,
    wire_errors: u64,
    /// Process CPU seconds from the first frame's schedule through drain.
    cpu_s: f64,
    /// Origin of the epoch's timestamps, for span export.
    t0: Instant,
}

/// Launch, connect, run the open loop over `due_ns`, and tear down.
/// Returns the epoch's measurements, drained shard results, a pool
/// handle for the ledger check, and the setup timings.
fn run_epoch(
    jobs: &[JobSpec],
    due_ns: Vec<u64>,
    setup: &mut Setup,
    tracer: &mut Tracer,
    id: u64,
) -> Result<(Epoch, Vec<ShardResult>, PoolHandle), String> {
    let t_launch = Instant::now();
    let pool = ShardPool::launch(serve_flood::pool_config()?).map_err(|e| e.to_string())?;
    let handle = pool.handle();
    let gw = Gateway::launch("127.0.0.1:0", handle.clone(), GatewayConfig::default())
        .map_err(|e| format!("gateway launch: {e}"))?;
    let t_connect = Instant::now();
    let (stream, window) = connect(&gw.addr().to_string())?;
    let t_ready = Instant::now();
    tracer.record("serve.launch", id, None, t_launch, t_connect);
    tracer.record("gateway.connect", id, None, t_connect, t_ready);
    setup.launch_s.push((t_connect - t_launch).as_secs_f64());
    setup.connect_s.push((t_ready - t_connect).as_secs_f64());

    let frames = due_ns.len();
    let reader_stream = stream.try_clone().map_err(|e| e.to_string())?;
    reader_stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .map_err(|e| e.to_string())?;
    let (ids_tx, ids_rx) = mpsc::channel();
    let (retry_tx, retry_rx) = mpsc::channel::<(usize, Instant)>();
    let replied = AtomicU64::new(0);
    let acked = AtomicU64::new(0);
    let (workers0, _) = host::threads_cpu(WORKER_THREADS);
    let cpu0 = host::process_cpu_s();
    let t0 = Instant::now() + Duration::from_millis(1);

    let (sent, acks) = std::thread::scope(|s| -> Result<(Sent, Acks), String> {
        let reader = std::thread::Builder::new()
            .name("flowbench-acks".into())
            .spawn_scoped(s, || {
                read_acks(reader_stream, t0, frames, ids_rx, retry_tx, &replied, &acked)
            })
            .map_err(|e| e.to_string())?;
        let mut tx = FrameSender {
            stream,
            jobs,
            t0,
            buf: Vec::with_capacity(1024),
            ids: ids_tx,
            writes: 0,
            replied: &replied,
            window,
            sent: Sent {
                enc_start: vec![0; frames],
                write_start: vec![0; frames],
                write_end: vec![0; frames],
                stall_ns: 0,
            },
        };
        let mut retries: VecDeque<(usize, Instant)> = VecDeque::new();
        let sending = open_loop(t0, &due_ns, OPERATOR_READ_NS, |due| {
            match due {
                Due::Read => {
                    std::hint::black_box(handle.metrics().render_prometheus().len());
                }
                Due::Frame(k) => {
                    retries.extend(retry_rx.try_iter());
                    while retries.front().is_some_and(|&(_, at)| at <= Instant::now()) {
                        let (id, _) = retries.pop_front().expect("checked nonempty");
                        tx.send(id)?;
                    }
                    tx.send(k)?;
                }
            }
            Ok(())
        });
        // Resend refused frames until every frame is acknowledged.
        let give_up = Instant::now() + REPLY_TIMEOUT;
        while sending.is_ok() && (acked.load(Ordering::SeqCst) as usize) < frames {
            if Instant::now() > give_up {
                break;
            }
            if let Ok(r) = retry_rx.recv_timeout(Duration::from_millis(1)) {
                retries.push_back(r);
            }
            while let Some(&(id, at)) = retries.front() {
                sleep_until(at);
                retries.pop_front();
                tx.send(id)?;
            }
        }
        let FrameSender { stream, sent, .. } = tx;
        if sending.is_err() || (acked.load(Ordering::SeqCst) as usize) < frames {
            // Unblock the reader: shutting the socket down ends its read.
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        drop(stream);
        let acks = reader.join().map_err(|_| "ack reader panicked".to_string())?;
        sending?;
        Ok((sent, acks?))
    })?;
    let wall_ns = acks.ack_ns.iter().copied().max().unwrap_or(0);
    let (workers1, workers) = host::threads_cpu(WORKER_THREADS);
    let stats = gw.stats();
    let busy_replies = stats.busy_replies.load(Ordering::SeqCst);
    let wire_errors = stats.wire_errors.load(Ordering::SeqCst);
    gw.shutdown();
    let d0 = Instant::now();
    let results = pool.drain().map_err(|e| e.to_string())?;
    tracer.record("serve.drain", id, None, d0, Instant::now());
    let cpu_s = host::process_cpu_s() - cpu0;
    let epoch = Epoch {
        due_ns,
        sent,
        acks,
        wall_ns,
        worker_cpu_s: workers1 - workers0,
        workers,
        busy_replies,
        wire_errors,
        cpu_s,
        t0,
    };
    Ok((epoch, results, handle))
}

/// Setup timings across every epoch of the run.
#[derive(Debug, Default)]
struct Setup {
    gen_s: Vec<f64>,
    launch_s: Vec<f64>,
    connect_s: Vec<f64>,
}

/// One rung's pooled samples.
#[derive(Debug, Default)]
struct RungStats {
    lat_us: Vec<f64>,
    /// Each epoch's due-to-ack p50 and p90.
    epoch_p50: Vec<f64>,
    epoch_p90: Vec<f64>,
    rtt_us: Vec<f64>,
    late_us: Vec<f64>,
    frames: u64,
    failed: u64,
    acks: u64,
    stall_ns: u64,
    wall_ns: u64,
    worker_cpu_s: f64,
    worker_wall_s: f64,
    cpu_s: f64,
    busy_replies: u64,
    wire_errors: u64,
}

/// Export one epoch's frames as spans: a `bench.frame` root from due time
/// to ack, with encode, write and ack-wait children.
fn export_spans(tracer: &mut Tracer, e: &Epoch, first_id: u64) {
    let base = tracer.ns(e.t0);
    for k in 0..e.due_ns.len() {
        let id = first_id + k as u64;
        let (s, a) = (&e.sent, e.acks.ack_ns[k]);
        let root = tracer.record_ns("bench.frame", id, None, base + e.due_ns[k], base + a);
        tracer.record_ns(
            "gateway.encode",
            id,
            root,
            base + s.enc_start[k],
            base + s.write_start[k],
        );
        tracer.record_ns("gateway.write", id, root, base + s.write_start[k], base + s.write_end[k]);
        tracer.record_ns("gateway.ack_wait", id, root, base + s.write_end[k], base + a);
    }
}

/// Run every epoch of rung `r` for `seconds` of schedule. In a traced run
/// odd epochs are traced and even ones are not, so host drift hits both
/// alike; the result is indexed by "traced". Each epoch's worst-shard max
/// flow ratio is pushed onto `ratios`.
fn run_rung(
    cfg: &RunCfg,
    r: usize,
    seconds: f64,
    tracer: &mut Tracer,
    out: &mut Outcome,
    setup: &mut Setup,
    ratios: &mut Vec<f64>,
) -> Result<[RungStats; 2], String> {
    let rung = RUNGS[r];
    let epochs = (seconds / EPOCH_S).ceil().max(if cfg.trace { 2.0 } else { 1.0 }) as usize;
    let epoch_ns = (seconds / epochs as f64 * 1e9) as u64;
    let frames_per_s = rung.jobs_per_s / FRAME_JOBS as f64;
    let mut both: [RungStats; 2] = Default::default();
    let mut quiet = Tracer::new(false, Instant::now());
    for e in 0..epochs {
        let traced = cfg.trace && e % 2 == 1;
        let tr: &mut Tracer = if traced { tracer } else { &mut quiet };
        let st = &mut both[traced as usize];
        // Seed-stream tags: an even/odd pair per epoch, clear of the other
        // workloads' tags (1 and 2).
        let tag = 16 + (r * 1024 + e) as u64 * 2;
        let due = gen::poisson_due_ns(gen::sub_seed(cfg.seed, tag), frames_per_s, epoch_ns);
        let frames = due.len();
        let start = Instant::now();
        let inst = gen::instance(FLOOD, frames * FRAME_JOBS, gen::sub_seed(cfg.seed, tag + 1));
        let end = Instant::now();
        tr.record("workloads.generate", tag, None, start, end);
        setup.gen_s.push((end - start).as_secs_f64());
        let load = gen::event_time_load(&inst, FLOOD.period, FLOOD.processors);
        out.check(load < 1.0, || format!("event-time load {load} is not below 1"));

        let (epoch, results, handle) = run_epoch(inst.jobs(), due, setup, tr, tag)?;
        st.cpu_s += epoch.cpu_s;

        // Checks, outside the clock.
        let label = format!("gateway-open {} epoch {e}", rung.name);
        let offered = inst.num_jobs() as u64;
        serve_flood::check_pool(out, &label, &handle, &results, offered, inst.total_work());
        out.check(epoch.wire_errors == 0, || format!("{label}: {} wire errors", epoch.wire_errors));
        check_replay(out, &label, &inst, &results)?;
        ratios.push(serve_flood::worst_ratio(&results));
        drop(results);

        export_spans(tr, &epoch, (r * 1024 + e) as u64 * 1_000_000);
        let lat = due_to_ack_us(&epoch.due_ns, &epoch.acks.ack_ns, &epoch.acks.failed);
        let (p50, p90, _, _) = quantiles(&lat)?;
        st.epoch_p50.push(p50);
        st.epoch_p90.push(p90);
        for k in 0..frames {
            let ws = epoch.sent.write_start[k];
            st.late_us.push(ws.saturating_sub(epoch.due_ns[k]) as f64 / 1e3);
            if !epoch.acks.failed[k] {
                st.rtt_us.push(epoch.acks.ack_ns[k].saturating_sub(ws) as f64 / 1e3);
            }
        }
        st.lat_us.extend(lat);
        st.frames += frames as u64;
        st.failed += epoch.acks.failed.iter().filter(|&&f| f).count() as u64;
        st.acks += epoch.acks.acks;
        st.stall_ns += epoch.sent.stall_ns;
        st.wall_ns += epoch.wall_ns;
        st.worker_cpu_s += epoch.worker_cpu_s;
        st.worker_wall_s += epoch.wall_ns as f64 / 1e9 * epoch.workers as f64;
        st.busy_replies += epoch.busy_replies;
        st.wire_errors += epoch.wire_errors;
    }
    Ok(both)
}

/// The remote replay must equal an in-process run of the same instance:
/// same per-shard instances, schedules, counters and summaries.
fn check_replay(
    out: &mut Outcome,
    label: &str,
    inst: &Instance,
    remote: &[ShardResult],
) -> Result<(), String> {
    let local = serve_flood::replay_in_process(inst)?;
    out.check(remote.len() == local.len(), || format!("{label}: shard count differs"));
    for (a, b) in remote.iter().zip(&local) {
        out.check(
            a.instance == b.instance && a.report == b.report && a.summary == b.summary,
            || format!("{label}: shard {} differs from the in-process replay", a.shard),
        );
    }
    Ok(())
}

/// p50, p90 and the ladder tail of a latency sample.
fn quantiles(xs: &[f64]) -> Result<(f64, f64, f64, f64), String> {
    if xs.is_empty() {
        return Err("a rung produced no latency samples".into());
    }
    let v = stats::sorted(xs);
    let tail = stats::tail_percentile(v.len()).unwrap_or(50.0);
    Ok((
        stats::percentile(&v, 50.0),
        stats::percentile(&v, 90.0),
        tail,
        stats::percentile(&v, tail),
    ))
}

/// Run the workload and report into `out`.
pub fn run(cfg: &RunCfg, tracer: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let mut setup = Setup::default();
    let mut ratios = Vec::new();
    let mut rungs = Vec::with_capacity(RUNGS.len());
    // Each rung's first set-up index: its epochs' set-ups follow in order.
    let mut firsts = Vec::with_capacity(RUNGS.len() + 1);
    for r in 0..RUNGS.len() {
        let seconds = cfg.seconds / RUNGS.len() as f64;
        firsts.push(setup.gen_s.len());
        rungs.push(run_rung(cfg, r, seconds, tracer, out, &mut setup, &mut ratios)?);
    }
    firsts.push(setup.gen_s.len());
    out.attempted = rungs.iter().flatten().map(|s| s.frames).sum();
    out.failed = rungs.iter().flatten().map(|s| s.failed).sum();
    for (rung, [plain, _]) in RUNGS.iter().zip(&rungs) {
        let (p50, p90, tail, pt) = quantiles(&plain.lat_us)?;
        out.note(format!(
            "{}: {} frames at {} jobs/s offered, due->ack p50 {p50:.0} us, p90 {p90:.0} us, \
             p{tail} {pt:.0} us over {} samples, {} failed",
            rung.name,
            plain.frames,
            rung.jobs_per_s,
            plain.lat_us.len(),
            plain.failed
        ));
        let late = stats::sorted(&plain.late_us);
        out.note(format!(
            "{}: sender lateness p50 {:.0} us, p99 {:.0} us",
            rung.name,
            stats::percentile(&late, 50.0),
            stats::percentile(&late, 99.0)
        ));
    }
    // The rungs generate instances of different sizes, so a set-up time is
    // one epoch's of each rung: the sum of the rungs' medians.
    let per_rung_sum = |of: &dyn Fn(usize) -> f64| -> f64 {
        let median = |w: &[usize]| stats::median(&(w[0]..w[1]).map(of).collect::<Vec<_>>());
        firsts.windows(2).map(median).sum()
    };
    let setup_s = per_rung_sum(&|i| setup.gen_s[i] + setup.launch_s[i] + setup.connect_s[i]);
    for (rung, w) in RUNGS.iter().zip(firsts.windows(2)) {
        let ms = |xs: &[f64]| stats::median(&xs[w[0]..w[1]]) * 1e3;
        out.note(format!(
            "{}: median set-up of {} epochs: generate {:.2} ms, launch {:.2} ms, connect {:.2} ms",
            rung.name,
            w[1] - w[0],
            ms(&setup.gen_s),
            ms(&setup.launch_s),
            ms(&setup.connect_s)
        ));
    }
    if !cfg.trace {
        let frames: u64 = rungs.iter().map(|[p, _]| p.frames).sum();
        let cpu: f64 = rungs.iter().map(|[p, _]| p.cpu_s).sum();
        // Achieved throughput: acknowledged work over the time from each
        // epoch's start to its last ack; below the offered rate means the
        // pool or the wire fell behind.
        let wall_s = rungs.iter().map(|[p, _]| p.wall_ns).sum::<u64>() as f64 / 1e9;
        let jobs = (frames * FRAME_JOBS as u64) as f64;
        out.metric("setup_s", setup_s, "s");
        out.metric("subjobs_per_s", jobs * FLOOD.job_size as f64 / wall_s, "1/s");
        out.metric("jobs_per_s", jobs / wall_s, "1/s");
        out.metric("max_flow_ratio", stats::median(&ratios), "ratio");
        out.metric("peak_rss_mb", host::peak_rss_mb(), "MiB");
        out.metric("cpu_us_per_job", cpu * 1e6 / (frames * FRAME_JOBS as u64) as f64, "us");
        return Ok(());
    }

    // Per-layer: the ack percentiles from untraced epochs (median over
    // epochs of each epoch's percentile), everything else from traced ones.
    out.metric("workloads.gen_s", per_rung_sum(&|i| setup.gen_s[i]), "s");
    out.metric("gateway.connect_ms", stats::median(&setup.connect_s) * 1e3, "ms");
    let traced_frames: u64 = rungs.iter().map(|[_, t]| t.frames).sum();
    let enc = tracer.self_total("gateway.encode");
    out.metric("gateway.encode_ns_per_frame", enc as f64 / traced_frames as f64, "ns");
    let mut overhead = Vec::new();
    for (rung, [plain, st]) in RUNGS.iter().zip(&rungs) {
        let r = rung.name;
        let p50 = stats::median(&plain.epoch_p50);
        out.metric(format!("ack_p50_us.{r}"), p50, "us");
        out.metric(format!("ack_p90_us.{r}"), stats::median(&plain.epoch_p90), "us");
        let (_, _, tail, pt) = quantiles(&plain.lat_us)?;
        out.metric(format!("bench.ack_samples.{r}"), plain.lat_us.len() as f64, "count");
        out.metric(format!("bench.ack_tail_pct.{r}"), tail, "pct");
        out.metric(format!("bench.ack_tail_us.{r}"), pt, "us");
        overhead.push(stats::median(&st.epoch_p50) / p50 - 1.0);
        let (rtt50, rtt90, _, _) = quantiles(&st.rtt_us)?;
        out.metric(format!("gateway.rtt_us.p50.{r}"), rtt50, "us");
        out.metric(format!("gateway.rtt_us.p90.{r}"), rtt90, "us");
        let per_ack = st.frames as f64 / st.acks.max(1) as f64;
        out.metric(format!("gateway.frames_per_ack.{r}"), per_ack, "count");
        let stall = st.stall_ns as f64 / st.wall_ns as f64;
        out.metric(format!("gateway.window_stall_share.{r}"), stall, "share");
        let busy = st.worker_cpu_s / st.worker_wall_s;
        out.metric(format!("gateway.worker_cpu_share.{r}"), busy, "share");
        let late = stats::sorted(&st.late_us);
        out.metric(format!("bench.gen_late_us.p50.{r}"), stats::percentile(&late, 50.0), "us");
        out.metric(format!("bench.gen_late_us.p99.{r}"), stats::percentile(&late, 99.0), "us");
    }
    let busy: u64 = rungs.iter().flatten().map(|s| s.busy_replies).sum();
    let wire: u64 = rungs.iter().flatten().map(|s| s.wire_errors).sum();
    out.metric("gateway.busy_replies", busy as f64, "count");
    out.metric("gateway.wire_errors", wire as f64, "count");
    out.metric("bench.trace_overhead", stats::median(&overhead), "share");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stall_is_charged_to_every_frame_it_delays() {
        // 200 frames due every 250 µs; the send of frame 40 stalls 30 ms.
        let due: Vec<u64> = (1..=200).map(|k| k * 250_000).collect();
        let stall = Duration::from_millis(30);
        let t0 = Instant::now();
        let mut ack = vec![0u64; due.len()];
        let mut reads = 0;
        open_loop(t0, &due, 10_000_000, |d| {
            match d {
                Due::Read => reads += 1,
                Due::Frame(k) => {
                    if k == 40 {
                        std::thread::sleep(stall);
                    }
                    // Acknowledged the moment it is written.
                    ack[k] = t0.elapsed().as_nanos() as u64;
                }
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(reads, 5, "operator reads at 10..50 ms of schedule");
        let lat = due_to_ack_us(&due, &ack, &vec![false; due.len()]);
        let stall_end_us = ack[40] as f64 / 1e3;
        // Every frame due during the stall waits until it ends.
        let delayed: Vec<usize> =
            (41..due.len()).filter(|&k| (due[k] as f64 / 1e3) < stall_end_us).collect();
        assert!(delayed.len() >= 100, "30 ms covers about 120 frames, got {}", delayed.len());
        for &k in &delayed {
            let owed = stall_end_us - due[k] as f64 / 1e3;
            assert!(lat[k] >= owed, "frame {k}: latency {} < owed {owed}", lat[k]);
        }
        assert!(lat[41] >= 29_000.0, "the first delayed frame waits ~30 ms, got {}", lat[41]);
        // Frames the stall did not delay are charged nothing for it.
        assert!(lat[..40].iter().all(|&l| l < 20_000.0));
    }

    #[test]
    fn failed_frames_miss_every_limit() {
        let lat = due_to_ack_us(&[0, 10_000], &[5_000, 12_000], &[false, true]);
        assert_eq!(lat[0], 5.0);
        assert!(lat[1].is_infinite());
    }
}
