//! The resident sweep service: socket accept loop, fair-share scheduler,
//! in-flight dedup, and the shared telemetry surface.
//!
//! Architecture (one process):
//!
//! ```text
//!  conn threads (1/client)      job table (Mutex)         worker pool
//!  ───────────────────────      ────────────────────      ───────────────
//!  read JSONL frames  ───────►  dedup by fingerprint      pop fairest job
//!  write via mpsc queue  ◄────  bounded FIFO queue   ───► per-job
//!  per-conn MetricRegistry      per-client shares         Orchestrator
//! ```
//!
//! Every job runs through its own cheap [`Orchestrator`] over the one
//! shared [`ResultStore`] and the one shared [`MetricRegistry`], so
//! `jle_orchestrator_*` counters aggregate across clients while the
//! store's chunk claims (PR 7 satellite) keep concurrent writers of one
//! fingerprint race-free. Scheduling is fair-share: the queue is FIFO
//! *within* a client but the next job always goes to the submitter with
//! the fewest jobs currently running.
//!
//! Dedup is **in-flight only**: a submission whose fingerprint matches a
//! queued or running job attaches as an additional subscriber (one
//! computation, many byte-identical result frames). Re-submission after
//! completion instead hits the warm store through the orchestrator — a
//! unit cache hit, served in one chunk-load pass.

use crate::protocol::{read_line, ClientFrame, LineRead, ServerFrame, PROTOCOL_VERSION};
use crate::work;
use jle_engine::RunReport;
use jle_orchestrator::{
    engine_salt, CancelToken, Event, Fingerprint, Interrupted, Orchestrator, Reporter, ResultStore,
    WorkSpec, DEFAULT_CHUNK_SIZE, DEFAULT_CODE_SALT,
};
use jle_protocols::ElectionParams;
use jle_telemetry::{
    Counter, Gauge, Histogram, MetricRegistry, SpanGuard, SpanRecorder, TraceContext,
};
use serde::Serialize;
use serde_json::value::{to_raw_value, RawValue};
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Where the service listens (or a client connects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address like `127.0.0.1:7677`.
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

impl Endpoint {
    /// Parse a CLI spelling: `tcp:ADDR`, `unix:PATH`, a bare path
    /// (contains `/`), or a bare TCP address.
    pub fn parse(s: &str) -> Result<Self, String> {
        if let Some(rest) = s.strip_prefix("tcp:") {
            Ok(Endpoint::Tcp(rest.to_string()))
        } else if let Some(rest) = s.strip_prefix("unix:") {
            Ok(Endpoint::Unix(PathBuf::from(rest)))
        } else if s.contains('/') {
            Ok(Endpoint::Unix(PathBuf::from(s)))
        } else if s.contains(':') {
            Ok(Endpoint::Tcp(s.to_string()))
        } else {
            Err(format!("endpoint `{s}`: expected tcp:HOST:PORT, unix:PATH, or a socket path"))
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// A connected socket of either family.
#[derive(Debug)]
pub enum SweepStream {
    /// TCP connection.
    Tcp(TcpStream),
    /// Unix-domain connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl SweepStream {
    /// Connect to a service endpoint.
    pub fn connect(endpoint: &Endpoint) -> io::Result<Self> {
        match endpoint {
            Endpoint::Tcp(addr) => {
                let stream = TcpStream::connect(addr.as_str())?;
                // Frames are small and latency-sensitive; Nagle + delayed
                // ACK would add ~40 ms per round trip.
                stream.set_nodelay(true)?;
                Ok(SweepStream::Tcp(stream))
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => UnixStream::connect(path).map(SweepStream::Unix),
            #[cfg(not(unix))]
            Endpoint::Unix(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix sockets are not available on this platform",
            )),
        }
    }

    /// A second handle to the same connection (for split read/write).
    pub fn try_clone(&self) -> io::Result<Self> {
        match self {
            SweepStream::Tcp(s) => s.try_clone().map(SweepStream::Tcp),
            #[cfg(unix)]
            SweepStream::Unix(s) => s.try_clone().map(SweepStream::Unix),
        }
    }

    /// Bound blocking reads (None = wait forever).
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            SweepStream::Tcp(s) => s.set_read_timeout(dur),
            #[cfg(unix)]
            SweepStream::Unix(s) => s.set_read_timeout(dur),
        }
    }
}

impl Read for SweepStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            SweepStream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            SweepStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for SweepStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            SweepStream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            SweepStream::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            SweepStream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            SweepStream::Unix(s) => s.flush(),
        }
    }
}

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Result-store root (`None` = ephemeral, nothing persists).
    pub cache_dir: Option<PathBuf>,
    /// Worker threads executing jobs (`0` = half the cores, min 1).
    pub workers: usize,
    /// Monte-Carlo parallelism *within* one job (`0` = rayon default).
    /// Keep `workers * mc_jobs` near the core count.
    pub mc_jobs: usize,
    /// Bounded queue length; submissions beyond it are rejected with a
    /// `retry_after_ms` hint.
    pub max_queue: usize,
    /// Max distinct in-flight jobs one client may have submitted.
    pub client_share: usize,
    /// Orchestrator checkpoint chunk size.
    pub chunk_size: u64,
    /// Cache-key salt (must match the CLIs for cache sharing).
    pub salt: String,
    /// Minimum interval between progress frames per job.
    pub progress_every: Duration,
    /// Periodically write the Prometheus rendering here.
    pub prom_dump: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            cache_dir: None,
            workers: 0,
            mc_jobs: 1,
            max_queue: 64,
            client_share: 8,
            chunk_size: DEFAULT_CHUNK_SIZE,
            salt: DEFAULT_CODE_SALT.to_string(),
            progress_every: Duration::from_millis(100),
            prom_dump: None,
        }
    }
}

impl ServerConfig {
    fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism().map(|n| n.get() / 2).unwrap_or(1).max(1)
    }
}

/// What phase a job is in.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Phase {
    Queued,
    Running,
    Done,
    Cancelled,
    Failed,
}

impl Phase {
    fn label(&self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Running => "running",
            Phase::Done => "done",
            Phase::Cancelled => "cancelled",
            Phase::Failed => "failed",
        }
    }
}

/// One connection's interest in one job.
struct Subscriber {
    client: u64,
    req_id: u64,
    tx: mpsc::Sender<String>,
    progress_ctr: Counter,
    terminal_ctr: Counter,
}

struct JobInner {
    phase: Phase,
    done_trials: u64,
    subs: Vec<Subscriber>,
    latency_observed: bool,
    last_progress: Option<Instant>,
}

/// One deduped unit of in-flight work.
struct Job {
    key: String,
    spec: WorkSpec,
    /// `spec.params`, decoded once at admission.
    election: ElectionParams,
    trials: u64,
    /// Primary submitter, for fair-share accounting.
    client: u64,
    cancel: CancelToken,
    submitted: Instant,
    executed_trials: AtomicU64,
    cached_trials: AtomicU64,
    /// Per-job span recorder: stamped with the submitter's
    /// [`TraceContext`] when the submission carried one, disabled
    /// otherwise (every span call is then a no-op).
    tracer: SpanRecorder,
    /// The open queue-wait span; the worker closes it at pickup.
    queue_span: Mutex<Option<SpanGuard>>,
    inner: Mutex<JobInner>,
}

/// One frame as the writer queue takes it: its line plus the newline.
fn wire(frame: &ServerFrame) -> String {
    let mut line = frame.to_line();
    line.push('\n');
    line
}

impl Job {
    /// Queue one line per subscriber; `make` renders the line for a
    /// request id, without its newline.
    fn send_to_subs(subs: &[Subscriber], make: impl Fn(u64) -> String, terminal: bool) {
        for sub in subs {
            let mut line = make(sub.req_id);
            line.push('\n');
            // Count before queueing: once the writer holds the frame the
            // client can read it and scrape this connection's counters
            // before a later increment lands. A failed send means the
            // connection is gone, and with it the only reader of these
            // per-connection counters.
            if terminal {
                sub.terminal_ctr.inc();
            } else {
                sub.progress_ctr.inc();
            }
            let _ = sub.tx.send(line);
        }
    }
}

/// The `jle_sweepd_*` metric family, on the shared registry.
#[derive(Clone)]
struct Metrics {
    submissions: Counter,
    dedup_hits: Counter,
    rejected_queue_full: Counter,
    rejected_fair_share: Counter,
    jobs_completed: Counter,
    jobs_cancelled: Counter,
    jobs_failed: Counter,
    unit_cache_hits: Counter,
    connections: Counter,
    queue_depth: Gauge,
    active_jobs: Gauge,
    first_chunk_latency_us: Histogram,
    queue_wait_us: Histogram,
    dedup_shortcircuit_us: Histogram,
    execute_us: Histogram,
    deliver_us: Histogram,
}

impl Metrics {
    fn new(reg: &MetricRegistry) -> Self {
        Metrics {
            submissions: reg
                .counter("jle_sweepd_submissions_total", "work submissions accepted or deduped"),
            dedup_hits: reg.counter(
                "jle_sweepd_dedup_hits_total",
                "submissions coalesced onto an in-flight identical computation",
            ),
            rejected_queue_full: reg.counter(
                "jle_sweepd_rejected_queue_full_total",
                "submissions rejected because the bounded queue was full",
            ),
            rejected_fair_share: reg.counter(
                "jle_sweepd_rejected_fair_share_total",
                "submissions rejected because the client's fair share was exhausted",
            ),
            jobs_completed: reg.counter("jle_sweepd_jobs_completed_total", "jobs finished"),
            jobs_cancelled: reg.counter("jle_sweepd_jobs_cancelled_total", "jobs cancelled"),
            jobs_failed: reg.counter("jle_sweepd_jobs_failed_total", "jobs failed"),
            unit_cache_hits: reg.counter(
                "jle_sweepd_unit_cache_hits_total",
                "jobs answered entirely from the warm result store",
            ),
            connections: reg.counter("jle_sweepd_connections_total", "client connections accepted"),
            queue_depth: reg.gauge("jle_sweepd_queue_depth", "jobs waiting for a worker"),
            active_jobs: reg.gauge("jle_sweepd_active_jobs", "jobs currently executing"),
            first_chunk_latency_us: reg.histogram(
                "jle_sweepd_first_chunk_latency_us",
                "submission-to-first-chunk (or cache-answer) latency, microseconds",
            ),
            queue_wait_us: reg.histogram(
                "jle_sweepd_queue_wait_us",
                "admission-to-worker-pickup wait per job, microseconds",
            ),
            dedup_shortcircuit_us: reg.histogram(
                "jle_sweepd_dedup_shortcircuit_us",
                "admission latency of submissions coalesced onto in-flight work, microseconds",
            ),
            execute_us: reg.histogram(
                "jle_sweepd_execute_us",
                "orchestrator execution time per job, microseconds",
            ),
            deliver_us: reg.histogram(
                "jle_sweepd_deliver_us",
                "result rendering + subscriber fan-out time per job, microseconds",
            ),
        }
    }
}

/// Per-connection counters, on the connection's private registry.
#[derive(Clone)]
struct ConnMetrics {
    submissions: Counter,
    dedup: Counter,
    rejected: Counter,
    progress_frames: Counter,
    results: Counter,
}

impl ConnMetrics {
    fn new(reg: &MetricRegistry) -> Self {
        ConnMetrics {
            submissions: reg
                .counter("jle_sweepd_client_submissions_total", "submissions on this connection"),
            dedup: reg.counter(
                "jle_sweepd_client_dedup_total",
                "this connection's submissions coalesced onto in-flight work",
            ),
            rejected: reg.counter(
                "jle_sweepd_client_rejected_total",
                "this connection's submissions rejected (backpressure)",
            ),
            progress_frames: reg.counter(
                "jle_sweepd_client_progress_frames_total",
                "progress frames streamed to this connection",
            ),
            results: reg.counter(
                "jle_sweepd_client_results_total",
                "terminal frames delivered to this connection",
            ),
        }
    }
}

struct State {
    /// In-flight (queued or running) jobs by fingerprint hex.
    jobs: HashMap<String, Arc<Job>>,
    queue: VecDeque<Arc<Job>>,
    inflight_per_client: HashMap<u64, u64>,
    running_per_client: HashMap<u64, u64>,
    running: u64,
}

struct Core {
    config: ServerConfig,
    store: Option<ResultStore>,
    registry: MetricRegistry,
    m: Metrics,
    state: Mutex<State>,
    work_cv: Condvar,
    shutdown: AtomicBool,
    next_client: AtomicU64,
}

impl Core {
    /// The store key `run_job`'s orchestrator files `spec` under, so
    /// `accepted`/`result` frames name a real store entry.
    fn fingerprint(&self, spec: &WorkSpec, election: &ElectionParams) -> String {
        let salt = engine_salt(&self.config.salt, work::engine_mode(election));
        Fingerprint::of(spec, &salt, std::any::type_name::<RunReport>()).hex().to_string()
    }

    fn request_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Fire every in-flight job's token and flush queued jobs with a
        // terminal frame: no subscriber is left waiting forever.
        let drained: Vec<Arc<Job>> = {
            let mut st = self.state.lock().expect("sweepd state");
            let queued: Vec<Arc<Job>> = st.queue.drain(..).collect();
            for job in st.jobs.values() {
                job.cancel.cancel();
            }
            for job in &queued {
                st.jobs.remove(&job.key);
                dec(&mut st.inflight_per_client, job.client);
            }
            self.m.queue_depth.set(st.queue.len() as f64);
            queued
        };
        for job in drained {
            let subs = {
                let mut inner = job.inner.lock().expect("job inner");
                inner.phase = Phase::Failed;
                std::mem::take(&mut inner.subs)
            };
            let key = job.key.clone();
            self.m.jobs_failed.inc();
            Job::send_to_subs(
                &subs,
                |req_id| {
                    ServerFrame::Failed {
                        id: req_id,
                        key: key.clone(),
                        reason: "server shutting down".to_string(),
                    }
                    .to_line()
                },
                true,
            );
        }
        self.work_cv.notify_all();
    }

    /// Admission control: dedup → queue bound → fair share.
    ///
    /// Returns `None` when the `accepted` frame was already pushed into
    /// `tx` — delivery order matters there: the frame must enter the
    /// writer queue *before* the subscriber becomes visible to a worker,
    /// or a warm-cache `result` can overtake its own `accepted` and the
    /// client (which reads frames in order) discards it as stray.
    #[allow(clippy::too_many_arguments)]
    fn submit(
        &self,
        client: u64,
        req_id: u64,
        tx: &mpsc::Sender<String>,
        cm: &ConnMetrics,
        spec: WorkSpec,
        trials: u64,
        trace: Option<TraceContext>,
    ) -> Option<ServerFrame> {
        let admitted_at = Instant::now();
        if self.shutdown.load(Ordering::SeqCst) {
            cm.rejected.inc();
            return Some(ServerFrame::Rejected {
                id: req_id,
                reason: "server shutting down".to_string(),
                retry_after_ms: 0,
            });
        }
        let election = match work::decode(&spec.params) {
            Ok(election) => election,
            Err(e) => return Some(ServerFrame::Error { id: req_id, reason: e.to_string() }),
        };
        let key = self.fingerprint(&spec, &election);
        let tracer = match trace {
            Some(ctx) => SpanRecorder::with_trace(ctx),
            None => SpanRecorder::disabled(),
        };
        let admission_span = tracer.span("sweepd", "admission");
        let mut st = self.state.lock().expect("sweepd state");
        if let Some(job) = st.jobs.get(&key) {
            if job.trials != trials {
                cm.rejected.inc();
                return Some(ServerFrame::Rejected {
                    id: req_id,
                    reason: format!(
                        "key {key} is in flight with {} trials (requested {trials})",
                        job.trials
                    ),
                    retry_after_ms: 500,
                });
            }
            let job = Arc::clone(job);
            let queue_depth = st.queue.len() as u64;
            drop(st);
            let attached = {
                let mut inner = job.inner.lock().expect("job inner");
                // A terminal phase means the worker is mid-delivery; the
                // race window is tiny, so just ask the client to retry
                // (the store is warm by then — the retry is a cache hit).
                if matches!(inner.phase, Phase::Queued | Phase::Running) {
                    // Counted while the inner lock still holds the result
                    // back, so no client sees its result before the count.
                    self.m.submissions.inc();
                    self.m.dedup_hits.inc();
                    self.m.dedup_shortcircuit_us.observe(admitted_at.elapsed().as_micros() as u64);
                    cm.submissions.inc();
                    cm.dedup.inc();
                    // `accepted` first, subscriber second: the worker
                    // delivering the terminal frame takes this same inner
                    // lock, so once the subscriber is visible its result
                    // frame is guaranteed to queue behind this one.
                    let _ = tx.send(wire(&ServerFrame::Accepted {
                        id: req_id,
                        key: key.clone(),
                        trials,
                        dedup: true,
                        queue_depth,
                    }));
                    inner.subs.push(Subscriber {
                        client,
                        req_id,
                        tx: tx.clone(),
                        progress_ctr: cm.progress_frames.clone(),
                        terminal_ctr: cm.results.clone(),
                    });
                    true
                } else {
                    false
                }
            };
            if !attached {
                cm.rejected.inc();
                return Some(ServerFrame::Rejected {
                    id: req_id,
                    reason: format!("key {key} just completed; retry hits the warm cache"),
                    retry_after_ms: 20,
                });
            }
            return None;
        }
        if st.queue.len() >= self.config.max_queue {
            self.m.rejected_queue_full.inc();
            cm.rejected.inc();
            let retry_after_ms = 100 + 25 * st.queue.len() as u64;
            return Some(ServerFrame::Rejected {
                id: req_id,
                reason: format!("queue full ({} jobs)", st.queue.len()),
                retry_after_ms,
            });
        }
        let inflight = st.inflight_per_client.get(&client).copied().unwrap_or(0);
        if inflight >= self.config.client_share as u64 {
            self.m.rejected_fair_share.inc();
            cm.rejected.inc();
            return Some(ServerFrame::Rejected {
                id: req_id,
                reason: format!("fair share exhausted ({inflight} jobs in flight)"),
                retry_after_ms: 200,
            });
        }
        // Close the admission span and open the queue-wait span, which
        // stays open until worker pickup.
        drop(admission_span);
        let queue_span = tracer.span("sweepd", "queue-wait");
        let job = Arc::new(Job {
            key: key.clone(),
            spec,
            election,
            trials,
            client,
            cancel: CancelToken::new(),
            submitted: Instant::now(),
            executed_trials: AtomicU64::new(0),
            cached_trials: AtomicU64::new(0),
            tracer,
            queue_span: Mutex::new(Some(queue_span)),
            inner: Mutex::new(JobInner {
                phase: Phase::Queued,
                done_trials: 0,
                subs: vec![Subscriber {
                    client,
                    req_id,
                    tx: tx.clone(),
                    progress_ctr: cm.progress_frames.clone(),
                    terminal_ctr: cm.results.clone(),
                }],
                latency_observed: false,
                last_progress: None,
            }),
        });
        let queue_depth = st.queue.len() as u64 + 1;
        // Still under the state lock, so no worker can pop the job (and
        // race its `result` ahead of this frame) until after we enqueue.
        let _ = tx.send(wire(&ServerFrame::Accepted {
            id: req_id,
            key: key.clone(),
            trials,
            dedup: false,
            queue_depth,
        }));
        st.jobs.insert(key.clone(), Arc::clone(&job));
        st.queue.push_back(job);
        *st.inflight_per_client.entry(client).or_insert(0) += 1;
        self.m.queue_depth.set(queue_depth as f64);
        // Counted before the state lock lets a worker pop the job.
        self.m.submissions.inc();
        cm.submissions.inc();
        drop(st);
        self.work_cv.notify_one();
        None
    }

    fn subscribe(
        &self,
        client: u64,
        req_id: u64,
        tx: &mpsc::Sender<String>,
        cm: &ConnMetrics,
        key: &str,
    ) -> Option<ServerFrame> {
        let st = self.state.lock().expect("sweepd state");
        let Some(job) = st.jobs.get(key) else {
            return Some(ServerFrame::Error {
                id: req_id,
                reason: format!("key {key} is not in flight"),
            });
        };
        let job = Arc::clone(job);
        let queue_depth = st.queue.len() as u64;
        drop(st);
        let mut inner = job.inner.lock().expect("job inner");
        if !matches!(inner.phase, Phase::Queued | Phase::Running) {
            return Some(ServerFrame::Error {
                id: req_id,
                reason: format!("key {key} already finished"),
            });
        }
        // Same delivery-order rule as `submit`: `accepted` enters the
        // writer queue before the subscriber can receive any frame.
        let _ = tx.send(wire(&ServerFrame::Accepted {
            id: req_id,
            key: key.to_string(),
            trials: job.trials,
            dedup: true,
            queue_depth,
        }));
        inner.subs.push(Subscriber {
            client,
            req_id,
            tx: tx.clone(),
            progress_ctr: cm.progress_frames.clone(),
            terminal_ctr: cm.results.clone(),
        });
        None
    }

    fn status(&self, req_id: u64, key: &str) -> ServerFrame {
        let st = self.state.lock().expect("sweepd state");
        let Some(job) = st.jobs.get(key) else {
            return ServerFrame::Status {
                id: req_id,
                key: key.to_string(),
                state: "unknown".to_string(),
                done_trials: 0,
                total_trials: 0,
                subscribers: 0,
            };
        };
        let job = Arc::clone(job);
        drop(st);
        let inner = job.inner.lock().expect("job inner");
        ServerFrame::Status {
            id: req_id,
            key: key.to_string(),
            state: inner.phase.label().to_string(),
            done_trials: inner.done_trials,
            total_trials: job.trials,
            subscribers: inner.subs.len() as u64,
        }
    }

    /// Withdraw `client`'s interest in `key`; the computation is
    /// cancelled only when nobody else still wants it.
    fn cancel(&self, client: u64, req_id: u64, key: &str) -> ServerFrame {
        let st = self.state.lock().expect("sweepd state");
        let Some(job) = st.jobs.get(key) else {
            return ServerFrame::Error {
                id: req_id,
                reason: format!("key {key} is not in flight"),
            };
        };
        let job = Arc::clone(job);
        drop(st);
        let completed_trials = {
            let mut inner = job.inner.lock().expect("job inner");
            inner.subs.retain(|s| s.client != client);
            if inner.subs.is_empty() {
                job.cancel.cancel();
            }
            inner.done_trials
        };
        self.work_cv.notify_all();
        ServerFrame::Cancelled { id: req_id, key: key.to_string(), completed_trials }
    }

    /// A connection went away: drop its subscriptions everywhere and
    /// cancel computations nobody is left waiting for.
    fn drop_client(&self, client: u64) {
        let jobs: Vec<Arc<Job>> = {
            let st = self.state.lock().expect("sweepd state");
            st.jobs.values().map(Arc::clone).collect()
        };
        for job in jobs {
            let mut inner = job.inner.lock().expect("job inner");
            inner.subs.retain(|s| s.client != client);
            if inner.subs.is_empty() && matches!(inner.phase, Phase::Queued | Phase::Running) {
                job.cancel.cancel();
            }
        }
    }

    /// Pop the fairest runnable job: FIFO position among jobs whose
    /// submitter currently has the fewest running jobs.
    fn pick_next(&self, st: &mut State) -> Option<Arc<Job>> {
        let mut best: Option<(u64, usize)> = None;
        for (i, job) in st.queue.iter().enumerate() {
            let running = st.running_per_client.get(&job.client).copied().unwrap_or(0);
            if best.is_none_or(|(r, _)| running < r) {
                best = Some((running, i));
                if running == 0 {
                    break;
                }
            }
        }
        let (_, i) = best?;
        let job = st.queue.remove(i).expect("index in bounds");
        *st.running_per_client.entry(job.client).or_insert(0) += 1;
        st.running += 1;
        self.m.queue_depth.set(st.queue.len() as f64);
        self.m.active_jobs.set(st.running as f64);
        Some(job)
    }

    fn worker_loop(self: &Arc<Self>) {
        loop {
            let job = {
                let mut st = self.state.lock().expect("sweepd state");
                loop {
                    if self.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    if let Some(job) = self.pick_next(&mut st) {
                        break job;
                    }
                    st = self.work_cv.wait(st).expect("sweepd state");
                }
            };
            self.run_job(&job);
        }
    }

    fn run_job(self: &Arc<Self>, job: &Arc<Job>) {
        {
            let mut inner = job.inner.lock().expect("job inner");
            inner.phase = Phase::Running;
        }
        // Close the queue-wait span (open since admission) and record the
        // wait — observed for every job, traced or not.
        self.m.queue_wait_us.observe(job.submitted.elapsed().as_micros() as u64);
        drop(job.queue_span.lock().expect("queue span").take());
        let execute_span = job.tracer.span("sweepd", "execute");
        let execute_span_id = execute_span.id();
        let executed_at = Instant::now();
        let orch = match &self.store {
            Some(store) => Orchestrator::with_store(store.clone()),
            None => Orchestrator::ephemeral(),
        }
        .chunk_size(self.config.chunk_size)
        .jobs(self.config.mc_jobs)
        .salt(self.config.salt.clone())
        .engine_mode(work::engine_mode(&job.election))
        .cancel_token(job.cancel.clone())
        .metrics_registry(&self.registry)
        .tracer(job.tracer.clone())
        .reporter(JobReporter {
            job: Arc::clone(job),
            m: self.m.clone(),
            progress_every: self.config.progress_every,
        });
        // Kinds with a bit-identical batch backend run whole seed batches
        // per slot-loop pass; everything else stays on the per-trial
        // path. Either way the chunk layout, seeding, and fingerprints
        // are identical, so results land in the same cache entries.
        let run = match work::batch_fn(&job.election) {
            Ok(f) => JobFn::Batch(f),
            Err(_) => JobFn::Trial(work::trial_fn(&job.election)),
        };
        let outcome =
            execute_unit(&orch, &job.spec, job.trials, &run, &job.tracer, execute_span_id);
        self.m.execute_us.observe(executed_at.elapsed().as_micros() as u64);
        drop(execute_span);
        let wall_secs = job.submitted.elapsed().as_secs_f64();

        // Remove from the in-flight table *before* taking the subscriber
        // list (state → inner lock order, matching submit), so a
        // re-submission races toward the warm cache, never a stale entry.
        let subs = {
            let mut st = self.state.lock().expect("sweepd state");
            st.jobs.remove(&job.key);
            dec(&mut st.inflight_per_client, job.client);
            dec(&mut st.running_per_client, job.client);
            st.running -= 1;
            self.m.active_jobs.set(st.running as f64);
            drop(st);
            let mut inner = job.inner.lock().expect("job inner");
            inner.phase = match &outcome {
                Ok(Ok(_)) => Phase::Done,
                Ok(Err(_)) => Phase::Cancelled,
                Err(_) => Phase::Failed,
            };
            std::mem::take(&mut inner.subs)
        };
        let key = job.key.clone();
        match outcome {
            Ok(Ok(results)) => {
                let delivered_at = Instant::now();
                let executed_trials = job.executed_trials.load(Ordering::Relaxed);
                let cached_trials = job.cached_trials.load(Ordering::Relaxed);
                // Written to text once per job, straight from the typed
                // reports: every subscriber's line splices the same text,
                // so dedup subscribers get identical bytes.
                let results: Arc<RawValue> =
                    to_raw_value(&results).expect("report serialization").into();
                // The deliver span is open while the export happens, so it
                // reaches the client truncated-at-export — present in the
                // merged trace, its tail not observable by construction.
                let deliver_span = job.tracer.span("sweepd", "deliver");
                let spans: Option<Arc<RawValue>> = job.tracer.is_enabled().then(|| {
                    to_raw_value(&job.tracer.export_events()).expect("span serialization").into()
                });
                // Terminal counters move before the frames go out, so a
                // client that scrapes right after its result sees them.
                self.m.jobs_completed.inc();
                Job::send_to_subs(
                    &subs,
                    |req_id| {
                        ServerFrame::Result {
                            id: req_id,
                            key: key.clone(),
                            trials: job.trials,
                            executed_trials,
                            cached_trials,
                            wall_secs,
                            results: Arc::clone(&results),
                            spans: spans.clone(),
                        }
                        .to_line()
                    },
                    true,
                );
                drop(deliver_span);
                self.m.deliver_us.observe(delivered_at.elapsed().as_micros() as u64);
            }
            Ok(Err(interrupted)) => {
                let completed_trials = interrupted.completed_trials();
                // Interrupted::ChunkBudgetExhausted cannot happen (no
                // budget is set); fold it into cancellation regardless.
                debug_assert!(matches!(interrupted, Interrupted::Cancelled { .. }));
                self.m.jobs_cancelled.inc();
                Job::send_to_subs(
                    &subs,
                    |req_id| {
                        ServerFrame::Cancelled { id: req_id, key: key.clone(), completed_trials }
                            .to_line()
                    },
                    true,
                );
            }
            Err(reason) => {
                self.m.jobs_failed.inc();
                Job::send_to_subs(
                    &subs,
                    |req_id| {
                        ServerFrame::Failed { id: req_id, key: key.clone(), reason: reason.clone() }
                            .to_line()
                    },
                    true,
                );
            }
        }
    }
}

/// A job's closure: whole seed batches when its election has a batch
/// backend, one trial per call otherwise.
enum JobFn {
    Batch(work::BatchFn),
    Trial(work::TrialFn),
}

/// Run one job's unit on `orch`, spanning each closure call under
/// `parent` on `tracer`. A panicking trial becomes
/// `Err("trial panicked: <msg>")`, the reason its `failed` frame carries.
fn execute_unit(
    orch: &Orchestrator,
    spec: &WorkSpec,
    trials: u64,
    run: &JobFn,
    tracer: &SpanRecorder,
    parent: u64,
) -> Result<Result<Vec<RunReport>, Interrupted>, String> {
    catch_unwind(AssertUnwindSafe(|| match run {
        JobFn::Batch(f) => orch.try_run_trials_batched(spec, trials, |seeds| {
            let _run_span =
                tracer.child_span("engine", format!("batch:{} seeds", seeds.len()), parent);
            f(seeds)
        }),
        JobFn::Trial(f) => orch.try_run_trials(spec, trials, |seed| {
            let _run_span = tracer.child_span("engine", format!("run:seed={seed}"), parent);
            f(seed)
        }),
    }))
    .map_err(|panic| {
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "worker panicked".to_string());
        format!("trial panicked: {msg}")
    })
}

fn dec(map: &mut HashMap<u64, u64>, client: u64) {
    if let Some(v) = map.get_mut(&client) {
        *v = v.saturating_sub(1);
        if *v == 0 {
            map.remove(&client);
        }
    }
}

/// Bridges orchestrator events into subscriber progress frames and the
/// service latency/cache metrics.
struct JobReporter {
    job: Arc<Job>,
    m: Metrics,
    progress_every: Duration,
}

impl JobReporter {
    fn observe_first_event(&self, inner: &mut JobInner) {
        if !inner.latency_observed {
            inner.latency_observed = true;
            self.m.first_chunk_latency_us.observe(self.job.submitted.elapsed().as_micros() as u64);
        }
    }
}

impl Reporter for JobReporter {
    fn report(&self, event: &Event<'_>) {
        match *event {
            Event::UnitStarted { trials, cached_trials, .. } => {
                self.job.cached_trials.store(cached_trials, Ordering::Relaxed);
                if cached_trials >= trials {
                    // Fully warm unit: the store answers in one pass.
                    self.m.unit_cache_hits.inc();
                    let mut inner = self.job.inner.lock().expect("job inner");
                    inner.done_trials = trials;
                    self.observe_first_event(&mut inner);
                }
            }
            Event::ChunkFinished { end, slots, trials_per_sec, eta_secs, .. } => {
                let mut inner = self.job.inner.lock().expect("job inner");
                inner.done_trials = inner.done_trials.max(end);
                self.observe_first_event(&mut inner);
                let due = inner.last_progress.is_none_or(|t| t.elapsed() >= self.progress_every);
                if !due {
                    return;
                }
                inner.last_progress = Some(Instant::now());
                let done_trials = inner.done_trials;
                let key = self.job.key.clone();
                Job::send_to_subs(
                    &inner.subs,
                    |req_id| {
                        ServerFrame::Progress {
                            id: req_id,
                            key: key.clone(),
                            done_trials,
                            total_trials: self.job.trials,
                            slots,
                            trials_per_sec,
                            eta_secs,
                        }
                        .to_line()
                    },
                    false,
                );
            }
            Event::UnitFinished { executed_trials, cached_trials, .. } => {
                self.job.executed_trials.store(executed_trials, Ordering::Relaxed);
                self.job.cached_trials.store(cached_trials, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

enum ListenerKind {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

/// The bound, ready-to-serve service.
pub struct SweepServer {
    core: Arc<Core>,
    listener: ListenerKind,
    workers: Vec<std::thread::JoinHandle<()>>,
    prom: Option<std::thread::JoinHandle<()>>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
}

impl SweepServer {
    /// Bind `endpoint`, open the store, and start the worker pool. The
    /// accept loop itself runs in [`SweepServer::serve`] /
    /// [`SweepServer::spawn`].
    pub fn bind(endpoint: &Endpoint, config: ServerConfig) -> io::Result<Self> {
        let store = match &config.cache_dir {
            Some(dir) => Some(ResultStore::open(dir)?),
            None => None,
        };
        let registry = MetricRegistry::new();
        let m = Metrics::new(&registry);
        let core = Arc::new(Core {
            store,
            registry,
            m,
            state: Mutex::new(State {
                jobs: HashMap::new(),
                queue: VecDeque::new(),
                inflight_per_client: HashMap::new(),
                running_per_client: HashMap::new(),
                running: 0,
            }),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_client: AtomicU64::new(0),
            config,
        });
        let (listener, tcp_addr, unix_path) = match endpoint {
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                l.set_nonblocking(true)?;
                let local = l.local_addr()?;
                (ListenerKind::Tcp(l), Some(local), None)
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                (ListenerKind::Unix(l), None, Some(path.clone()))
            }
            #[cfg(not(unix))]
            Endpoint::Unix(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "unix sockets are not available on this platform",
                ))
            }
        };
        let workers = (0..core.config.effective_workers())
            .map(|i| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("sweepd-worker-{i}"))
                    .spawn(move || core.worker_loop())
                    .expect("spawn worker")
            })
            .collect();
        let prom = core.config.prom_dump.clone().map(|path| {
            let core = Arc::clone(&core);
            std::thread::Builder::new()
                .name("sweepd-prom-dump".to_string())
                .spawn(move || {
                    loop {
                        let _ = core.registry.write_prometheus(&path);
                        if core.shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(500));
                    }
                    let _ = core.registry.write_prometheus(&path);
                })
                .expect("spawn prom dump")
        });
        Ok(SweepServer { core, listener, workers, prom, tcp_addr, unix_path })
    }

    /// The bound TCP address (for `Endpoint::Tcp(..:0)` tests).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The shared metric registry (server side).
    pub fn registry(&self) -> MetricRegistry {
        self.core.registry.clone()
    }

    /// Accept connections until a `shutdown` frame arrives, then drain
    /// and exit. Consumes the server.
    pub fn serve(self) -> io::Result<()> {
        let SweepServer { core, listener, workers, prom, unix_path, .. } = self;
        loop {
            let accepted: Option<SweepStream> = match &listener {
                ListenerKind::Tcp(l) => match l.accept() {
                    Ok((s, _)) => {
                        let _ = s.set_nodelay(true);
                        Some(SweepStream::Tcp(s))
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
                    Err(e) => return Err(e),
                },
                #[cfg(unix)]
                ListenerKind::Unix(l) => match l.accept() {
                    Ok((s, _)) => Some(SweepStream::Unix(s)),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
                    Err(e) => return Err(e),
                },
            };
            match accepted {
                Some(stream) => {
                    let core = Arc::clone(&core);
                    std::thread::Builder::new()
                        .name("sweepd-conn".to_string())
                        .spawn(move || handle_conn(&core, stream))
                        .expect("spawn connection handler");
                }
                None => {
                    if core.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
        core.work_cv.notify_all();
        for w in workers {
            let _ = w.join();
        }
        if let Some(p) = prom {
            let _ = p.join();
        }
        if let Some(path) = unix_path {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }

    /// Run [`SweepServer::serve`] on a background thread.
    pub fn spawn(self) -> ServerHandle {
        let core = Arc::clone(&self.core);
        let join = std::thread::Builder::new()
            .name("sweepd-accept".to_string())
            .spawn(move || self.serve())
            .expect("spawn accept loop");
        ServerHandle { core, join }
    }
}

/// Handle to a background [`SweepServer::spawn`] instance.
pub struct ServerHandle {
    core: Arc<Core>,
    join: std::thread::JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The shared metric registry (server side).
    pub fn registry(&self) -> MetricRegistry {
        self.core.registry.clone()
    }

    /// Request shutdown and wait for the accept loop to drain.
    pub fn shutdown(self) -> io::Result<()> {
        self.core.request_shutdown();
        self.join.join().unwrap_or_else(|_| Err(io::Error::other("accept loop panicked")))
    }
}

/// The longest client line the daemon buffers, not counting its newline.
/// A longer one gets an `error` frame and the connection is closed, so a
/// client that never sends `\n` cannot grow daemon memory without bound.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

fn handle_conn(core: &Arc<Core>, stream: SweepStream) {
    let client = core.next_client.fetch_add(1, Ordering::Relaxed) + 1;
    core.m.connections.inc();
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (tx, rx) = mpsc::channel::<String>();
    let writer = std::thread::Builder::new()
        .name("sweepd-conn-writer".to_string())
        .spawn(move || {
            let mut out = write_half;
            for chunk in rx {
                if out.write_all(chunk.as_bytes()).and_then(|()| out.flush()).is_err() {
                    break;
                }
            }
        })
        .expect("spawn connection writer");

    let conn_registry = MetricRegistry::new();
    let cm = ConnMetrics::new(&conn_registry);
    let send_frame = |frame: &ServerFrame| {
        let _ = tx.send(wire(frame));
    };

    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    let mut first = true;
    loop {
        match read_line(&mut reader, &mut buf, MAX_FRAME_BYTES) {
            Ok(LineRead::Line) => {}
            Ok(LineRead::TooLong) => {
                send_frame(&ServerFrame::Error {
                    id: 0,
                    reason: format!(
                        "frame exceeds {MAX_FRAME_BYTES} bytes; closing the connection"
                    ),
                });
                break;
            }
            Ok(LineRead::Closed) | Err(_) => break,
        }
        let Ok(line) = std::str::from_utf8(&buf) else { break };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        // HTTP-ish health surface: a plain `GET <path> HTTP/1.x` first
        // line gets the Prometheus text and the connection closes —
        // curl-compatible without an HTTP stack.
        if first && trimmed.starts_with("GET ") {
            let body = core.registry.render_prometheus();
            let _ = tx.send(format!(
                "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len(),
            ));
            break;
        }
        first = false;
        let frame = match ClientFrame::parse(trimmed) {
            Ok(f) => f,
            Err(e) => {
                send_frame(&ServerFrame::Error { id: 0, reason: format!("bad frame: {e}") });
                continue;
            }
        };
        match frame {
            ClientFrame::Hello { id } => send_frame(&ServerFrame::Hello {
                id,
                proto: PROTOCOL_VERSION.to_string(),
                workers: core.config.effective_workers() as u64,
                max_queue: core.config.max_queue as u64,
                client_share: core.config.client_share as u64,
            }),
            ClientFrame::Submit { id, spec, trials, trace } => {
                if let Some(reply) = core.submit(client, id, &tx, &cm, spec, trials, trace) {
                    send_frame(&reply);
                }
            }
            ClientFrame::Subscribe { id, key } => {
                if let Some(reply) = core.subscribe(client, id, &tx, &cm, &key) {
                    send_frame(&reply);
                }
            }
            ClientFrame::Status { id, key } => send_frame(&core.status(id, &key)),
            ClientFrame::Cancel { id, key } => send_frame(&core.cancel(client, id, &key)),
            ClientFrame::Metrics { id } => send_frame(&ServerFrame::Metrics {
                id,
                server: core.registry.snapshot().to_json_value(),
                client: conn_registry.snapshot().to_json_value(),
            }),
            ClientFrame::Shutdown { id } => {
                send_frame(&ServerFrame::ShuttingDown { id });
                core.request_shutdown();
                break;
            }
        }
    }
    core.drop_client(client);
    drop(tx);
    let _ = writer.join();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_parse_spellings() {
        assert_eq!(
            Endpoint::parse("tcp:127.0.0.1:7677"),
            Ok(Endpoint::Tcp("127.0.0.1:7677".into()))
        );
        assert_eq!(Endpoint::parse("127.0.0.1:0"), Ok(Endpoint::Tcp("127.0.0.1:0".into())));
        assert_eq!(
            Endpoint::parse("unix:/tmp/sweepd.sock"),
            Ok(Endpoint::Unix(PathBuf::from("/tmp/sweepd.sock")))
        );
        assert_eq!(
            Endpoint::parse("/tmp/sweepd.sock"),
            Ok(Endpoint::Unix(PathBuf::from("/tmp/sweepd.sock")))
        );
        assert!(Endpoint::parse("nonsense").is_err());
    }

    #[test]
    fn a_trial_panic_reaches_the_failed_frame_as_its_own_message() {
        // Two workers, as with `mc_jobs = 2`: the panic happens on a worker
        // thread and must still surface with its own payload.
        let boom = |seed: u64| {
            if seed == 20 {
                panic!("boom at seed {seed}");
            }
            RunReport::default()
        };
        let runs = [
            JobFn::Trial(Box::new(boom)),
            JobFn::Batch(Box::new(move |seeds: &[u64]| seeds.iter().map(|&s| boom(s)).collect())),
        ];
        let spec = WorkSpec::new("svc", "panic", serde_json::json!({}), 0);
        for run in &runs {
            let orch = Orchestrator::ephemeral().chunk_size(8).jobs(2);
            let reason = execute_unit(&orch, &spec, 32, run, &SpanRecorder::disabled(), 0)
                .expect_err("the unit panics");
            assert_eq!(reason, "trial panicked: boom at seed 20");
            let line = ServerFrame::Failed { id: 1, key: "k".into(), reason }.to_line();
            match ServerFrame::parse(&line).unwrap() {
                ServerFrame::Failed { reason, .. } => {
                    assert_eq!(reason, "trial panicked: boom at seed 20")
                }
                other => panic!("expected a failed frame, got {other:?}"),
            }
        }
    }

    #[test]
    fn config_defaults_are_sane() {
        let c = ServerConfig::default();
        assert!(c.effective_workers() >= 1);
        assert!(c.max_queue > 0);
        assert!(c.client_share > 0);
        assert_eq!(c.salt, DEFAULT_CODE_SALT);
    }
}
