//! The resident sweep service's shell: the socket accept loop, one
//! reader and one writer thread per connection, the worker pool, and
//! result rendering around the decision core in `sched.rs`.
//!
//! Architecture (one process):
//!
//! ```text
//!  conn threads (1/client)        Mutex<Locked> + Condvar        worker pool
//!  ───────────────────────        ────────────────────────       ──────────────────
//!  reader: JSONL frames ───────►  Sched: admission, dedup,  ◄──  pick_next, report,
//!    submit → (recall store) ──►    settle, fair share,          finish
//!      → settle                     cancel, drain                per-job
//!                                   │ frames pushed in           Orchestrator
//!                                   ▼ decision order
//!  reader, or writer  ◄─ drains ─  per-conn outbox (FIFO),
//!    (woken only for frames        written by whoever holds
//!     other threads decide)        the stream mutex
//!  per-conn MetricRegistry
//! ```
//!
//! Every call on the core runs under the one lock, and the
//! frames it decides are pushed onto their connections' outboxes before
//! the lock is released, so they leave in the order they were decided;
//! the frames one decision makes for one connection go as one write.
//! Whichever thread holds a connection's stream mutex drains its outbox,
//! in order, after the state lock is released: the connection's reader
//! for what it decided itself (a served answer, an `accepted`, `status`,
//! `hello`, ...), the connection's writer thread for what workers and
//! other connections decided (`progress`, a job's `result`, the shutdown
//! drain). No thread writes while holding the state lock, and no worker
//! waits on a client's socket. A client that stops reading stalls its own
//! reader in the write, so the daemon stops reading its requests and
//! their answers wait in TCP, not in daemon memory. Every job
//! runs through its own cheap [`Orchestrator`] over the one shared
//! [`ResultStore`] and the one shared [`MetricRegistry`], so
//! `jle_orchestrator_*` counters aggregate across clients; chunk writes
//! are a temp file plus a `rename`, so writers that meet on a chunk need
//! no lock. Scheduling is fair-share: the queue is FIFO *within* a client
//! but the next job always goes to the submitter with the fewest jobs
//! currently running. A job computes on `mc_jobs` threads, or on every
//! idle one when nothing is queued behind it; a job that queues takes
//! the borrowed threads back through the borrower's [`ThreadCap`].
//!
//! Admission is one decision in the core. A submission of a unit in
//! flight attaches to its job, or to the recall already pending for its
//! key. Any other makes a pending entry, and the connection thread that
//! read the `submit` recalls the unit from the store outside the lock
//! (every chunk check applies) and settles it: on a hit it renders the
//! reports once and the core answers `accepted` and `result` together to
//! every submission waiting, the same thread writing its own; such an
//! answer takes no queue slot, no fair share and no worker. Any miss — a
//! fresh unit, a partial leftover, a corrupt shard — queues one job for
//! all of them. One key has at most one recall outstanding, so identical
//! submissions that arrive together probe the store once.
//!
//! Dedup is **in-flight only**: a submission whose fingerprint matches a
//! queued or running job that still has a subscriber attaches as an
//! additional subscriber (one computation, many byte-identical result
//! frames). Re-submission after completion is answered from the store.

use crate::protocol::{read_line, ClientFrame, LineRead, ServerFrame, PROTOCOL_VERSION};
use crate::sched::{ConnMetrics, Metrics, Out, Outcome, Sched, Stored};
use crate::work;
use jle_engine::RunReport;
use jle_orchestrator::{
    engine_salt, CachePolicy, CancelToken, Event, Fingerprint, Interrupted, Orchestrator, Reporter,
    ResultStore, ThreadCap, WorkSpec, DEFAULT_CHUNK_SIZE, DEFAULT_CODE_SALT,
};
use jle_protocols::ElectionParams;
use jle_telemetry::{MetricRegistry, SpanGuard, SpanRecorder, TraceContext};
use serde::Serialize;
use serde_json::value::to_raw_value;
use std::collections::HashMap;
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
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
    /// Monte-Carlo threads a job computes on while other jobs wait (`0` =
    /// the engine's default parallelism). The pool holds `workers *
    /// mc_jobs` threads; keep that near the core count. A job picked up
    /// with nothing queued behind it borrows every idle thread, up to its
    /// trial count, so a lone unit computes on the whole pool. A distinct
    /// job that queues meanwhile takes the borrowed threads back: the
    /// borrower drops to `mc_jobs` threads, each surplus thread leaving
    /// after its current piece, so the newcomer starts at once and shares
    /// the cores with that last piece.
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
    pub(crate) fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism().map(|n| n.get() / 2).unwrap_or(1).max(1)
    }

    /// The threads one job computes on while others wait, as the
    /// orchestrator resolves `jobs(mc_jobs)`.
    pub(crate) fn effective_mc_jobs(&self) -> usize {
        if self.mc_jobs > 0 {
            return self.mc_jobs;
        }
        jle_engine::worker_threads().max(1)
    }
}

/// A queued job's payload, handed to the worker that picks it up.
struct Work {
    spec: WorkSpec,
    /// `spec.params`, decoded once at admission.
    election: ElectionParams,
    trials: u64,
    /// Per-job span recorder: stamped with the submitter's
    /// [`TraceContext`] when the submission carried one, disabled
    /// otherwise (every span call is then a no-op).
    tracer: SpanRecorder,
    /// The open queue-wait span; the worker closes it at pickup.
    queue_span: SpanGuard,
}

/// What the one lock guards: the decision core, and where its decisions
/// go — each connection's outbox and each running job's cancel token and
/// thread cap.
struct Locked {
    sched: Sched<Work>,
    conns: HashMap<u64, Arc<Conn>>,
    running: HashMap<u64, (CancelToken, ThreadCap)>,
}

impl Locked {
    /// Carry out the core's decisions, in the order it made them. The
    /// frames decided for one connection are pushed onto its outbox as one
    /// text, so an `accepted` and the `result` served with it leave in one
    /// write and reach the client in one wake-up. Connection `me`'s reader
    /// made these decisions and writes its own frames once it unlocks;
    /// every other connection's writer thread is woken for its frames.
    fn flush(&mut self, me: Option<u64>) {
        let mut texts: Vec<(u64, String)> = Vec::new();
        for out in self.sched.drain() {
            match out {
                Out::Frame(conn, frame) => match texts.iter_mut().find(|(c, _)| *c == conn) {
                    Some((_, text)) => text.push_str(&wire(&frame)),
                    None => texts.push((conn, wire(&frame))),
                },
                Out::Cancel(job) => {
                    if let Some((token, _)) = self.running.get(&job) {
                        token.cancel();
                    }
                }
                Out::Narrow(job, threads) => {
                    if let Some((_, cap)) = self.running.get(&job) {
                        cap.narrow(threads);
                    }
                }
            }
        }
        for (id, text) in texts {
            if let Some(conn) = self.conns.get(&id) {
                conn.push(text);
                if me != Some(id) {
                    conn.wake.notify_one();
                }
            }
        }
    }
}

/// One frame as an outbox takes it: its line plus the newline.
fn wire(frame: &ServerFrame) -> String {
    let mut line = frame.to_line();
    line.push('\n');
    line
}

/// One connection's ordered outbox and the write half of its socket.
/// Text is appended in decision order; whichever thread holds `stream`
/// takes it out from the front and writes it, so bytes leave in the
/// order they were pushed, whoever writes them.
struct Conn {
    /// The core's id for this connection.
    id: u64,
    outbox: Mutex<Outbox>,
    /// Wakes the connection's writer thread.
    wake: Condvar,
    stream: Mutex<SweepStream>,
}

#[derive(Default)]
struct Outbox {
    /// Frames not yet written, each with its newline.
    text: String,
    /// The reader has left: the writer thread writes what is left and
    /// exits.
    closed: bool,
}

impl Conn {
    fn new(id: u64, stream: SweepStream) -> Self {
        Conn { id, outbox: Mutex::default(), wake: Condvar::new(), stream: Mutex::new(stream) }
    }

    /// Write `text` behind everything pushed before it, on this thread.
    fn send(&self, text: String) {
        self.push(text);
        self.write_pending();
    }

    fn push(&self, text: String) {
        let mut outbox = self.outbox.lock().expect("sweepd outbox");
        if outbox.text.is_empty() {
            outbox.text = text;
        } else {
            outbox.text.push_str(&text);
        }
    }

    /// Write everything pushed so far, and whatever is pushed meanwhile,
    /// in order. Blocks while the client is not reading: that is the
    /// backpressure a client that stops reading gets. Text a write fails
    /// on is dropped: the peer is gone, and its reader ends the
    /// connection on its next read.
    fn write_pending(&self) {
        let mut stream = self.stream.lock().expect("sweepd stream");
        loop {
            let text = std::mem::take(&mut self.outbox.lock().expect("sweepd outbox").text);
            if text.is_empty() {
                return;
            }
            let _ = stream.write_all(text.as_bytes()).and_then(|()| stream.flush());
        }
    }

    /// The writer thread: writes the frames other threads decide for this
    /// connection until the reader closes it.
    fn writer_loop(&self) {
        loop {
            let mut outbox = self.outbox.lock().expect("sweepd outbox");
            while outbox.text.is_empty() && !outbox.closed {
                outbox = self.wake.wait(outbox).expect("sweepd outbox");
            }
            if outbox.text.is_empty() {
                return;
            }
            drop(outbox);
            self.write_pending();
        }
    }

    fn close(&self) {
        self.outbox.lock().expect("sweepd outbox").closed = true;
        self.wake.notify_one();
    }
}

struct Shared {
    config: ServerConfig,
    store: Option<ResultStore>,
    registry: MetricRegistry,
    m: Metrics,
    state: Mutex<Locked>,
    work_cv: Condvar,
}

impl Shared {
    /// Run `f` under the lock and push what it decided onto the outboxes
    /// before unlocking, waking each addressed connection's writer thread:
    /// for what a worker or the shutdown request decides, and for a
    /// connection's arrival and departure. An `accepted` is in its outbox
    /// before any worker can see the job, and each outbox is written in
    /// order, so no `result` can overtake it (the client reads frames in
    /// order and would drop a result ahead of its `accepted`), whichever
    /// thread writes each.
    fn with<R>(&self, f: impl FnOnce(&mut Locked) -> R) -> R {
        let mut st = self.state.lock().expect("sweepd state");
        let r = f(&mut st);
        st.flush(None);
        r
    }

    /// [`Shared::with`] for connection `me`'s reader: its own frames are
    /// not handed to its writer thread but written here, once the lock is
    /// released, with anything queued ahead of them.
    fn with_conn<R>(&self, me: &Conn, f: impl FnOnce(&mut Locked) -> R) -> R {
        let r = {
            let mut st = self.state.lock().expect("sweepd state");
            let r = f(&mut st);
            st.flush(Some(me.id));
            r
        };
        me.write_pending();
        r
    }

    fn shutting_down(&self) -> bool {
        self.with(|st| st.sched.shutting_down())
    }

    fn request_shutdown(&self) {
        self.with(|st| st.sched.shutdown());
        self.work_cv.notify_all();
    }

    /// Decode and fingerprint a submission once and make one admission
    /// call. When the core asks for a recall, probe the store outside the
    /// lock and settle: a hit is answered on this reader, which writes the
    /// answer itself; a miss queues a job for everyone waiting on it.
    fn submit(
        &self,
        me: &Conn,
        req_id: u64,
        spec: WorkSpec,
        trials: u64,
        trace: Option<TraceContext>,
    ) {
        let received = Instant::now();
        let tracer = match trace {
            Some(ctx) => SpanRecorder::with_trace(ctx),
            None => SpanRecorder::disabled(),
        };
        let admission_span = tracer.span("sweepd", "admission");
        let decoded = work::decode(&spec.params).map_err(|e| e.to_string()).map(|election| {
            // The store key the orchestrator files `spec` under, so
            // `accepted`/`result` frames name a real store entry.
            let salt = engine_salt(&self.config.salt, work::engine_mode(&election));
            let key = Fingerprint::of(&spec, &salt, std::any::type_name::<RunReport>());
            (election, key)
        });
        let client = me.id;
        let key = decoded.as_ref().map(|(_, key)| key.hex()).map_err(Clone::clone);
        if !self.with_conn(me, |st| {
            st.sched.submit(client, req_id, trials, key, received, Instant::now())
        }) {
            return;
        }
        let Ok((election, key)) = decoded else { return };
        let recalled = self.recall(&spec, &election, &key, trials, &tracer);
        let served_from = recalled.as_ref().map(|(_, recalled_at)| *recalled_at);
        let make = move || {
            // Close the admission span and open the queue-wait span,
            // which stays open until worker pickup.
            drop(admission_span);
            let queue_span = tracer.span("sweepd", "queue-wait");
            Work { spec, election, trials, tracer, queue_span }
        };
        // A fresh job wakes a worker before the reader writes `accepted`:
        // a client slow to read must not hold a queued job back.
        self.with_conn(me, |st| {
            let stored = recalled.map(|(stored, _)| stored);
            if st.sched.settle(key.hex(), stored, make, Instant::now()) {
                self.work_cv.notify_one();
            }
        });
        if let Some(recalled_at) = served_from {
            // Delivery ends once the answer is on the socket.
            self.m.deliver_us.observe(recalled_at.elapsed().as_micros() as u64);
        }
    }

    /// The answer to a unit the store holds whole: its reports, and its
    /// spans when traced, rendered once; with the instant the recall
    /// ended, where delivery starts. `None`, leaving no span or
    /// observation behind, on any miss.
    fn recall(
        &self,
        spec: &WorkSpec,
        election: &ElectionParams,
        key: &Fingerprint,
        trials: u64,
        tracer: &SpanRecorder,
    ) -> Option<(Stored, Instant)> {
        let store = self.store.as_ref()?;
        self.m.store_recalls.inc();
        let execute_span = tracer.span("sweepd", "execute");
        let started = Instant::now();
        let Some(reports) =
            self.orchestrator(Some(store), election, tracer).recall::<RunReport>(spec, key, trials)
        else {
            execute_span.discard();
            return None;
        };
        let recalled_at = Instant::now();
        self.m.execute_us.observe(recalled_at.duration_since(started).as_micros() as u64);
        drop(execute_span);
        let _deliver_span = tracer.span("sweepd", "deliver");
        let results = to_raw_value(&reports).expect("report serialization").into();
        let spans = tracer
            .is_enabled()
            .then(|| to_raw_value(&tracer.export_events()).expect("span serialization").into());
        Some((Stored { results, spans }, recalled_at))
    }

    /// An orchestrator for one unit of `election` over the shared store
    /// and registry, spanning on `tracer`. It reuses the chunks a
    /// cancelled job or a killed daemon left behind.
    fn orchestrator(
        &self,
        store: Option<&ResultStore>,
        election: &ElectionParams,
        tracer: &SpanRecorder,
    ) -> Orchestrator {
        match store {
            Some(store) => Orchestrator::with_store(store.clone()),
            None => Orchestrator::ephemeral(),
        }
        .chunk_size(self.config.chunk_size)
        .salt(self.config.salt.clone())
        .engine_mode(work::engine_mode(election))
        .policy(CachePolicy::Resume)
        .metrics_registry(&self.registry)
        .tracer(tracer.clone())
    }

    fn worker_loop(self: &Arc<Self>) {
        loop {
            let mut st = self.state.lock().expect("sweepd state");
            let (id, work, threads) = loop {
                if st.sched.shutting_down() {
                    return;
                }
                if let Some(next) = st.sched.pick_next(Instant::now()) {
                    break next;
                }
                st = self.work_cv.wait(st).expect("sweepd state");
            };
            let (token, cap) = (CancelToken::new(), ThreadCap::new(threads));
            st.running.insert(id, (token.clone(), cap.clone()));
            drop(st);
            self.run_job(id, work, token, cap);
        }
    }

    fn run_job(self: &Arc<Self>, id: u64, work: Work, token: CancelToken, cap: ThreadCap) {
        let Work { spec, election, trials, tracer, queue_span } = work;
        drop(queue_span);
        let execute_span = tracer.span("sweepd", "execute");
        let execute_span_id = execute_span.id();
        let executed_at = Instant::now();
        let orch = self
            .orchestrator(self.store.as_ref(), &election, &tracer)
            .thread_cap(cap)
            .cancel_token(token)
            .reporter(JobReporter { shared: Arc::clone(self), id });
        // Kinds with a bit-identical batch backend run whole seed batches
        // per slot-loop pass; everything else stays on the per-trial
        // path. Either way the chunk layout, seeding, and fingerprints
        // are identical, so results land in the same cache entries.
        let run = match work::batch_fn(&election) {
            Ok(f) => JobFn::Batch(f),
            Err(_) => JobFn::Trial(work::trial_fn(&election)),
        };
        let outcome = execute_unit(&orch, &spec, trials, &run, &tracer, execute_span_id);
        self.m.execute_us.observe(executed_at.elapsed().as_micros() as u64);
        drop(execute_span);
        let finished_at = Instant::now();
        let mut deliver_span = None;
        let outcome = match outcome {
            Ok(Ok(reports)) => {
                // Written to text once per job, straight from the typed
                // reports: every subscriber's line splices the same text,
                // so dedup subscribers get identical bytes.
                let results = to_raw_value(&reports).expect("report serialization").into();
                // The deliver span is open while the export happens, so it
                // reaches the client truncated-at-export — present in the
                // merged trace, its tail not observable by construction.
                deliver_span = Some(tracer.span("sweepd", "deliver"));
                let spans = tracer.is_enabled().then(|| {
                    to_raw_value(&tracer.export_events()).expect("span serialization").into()
                });
                Outcome::Done { results, spans }
            }
            Ok(Err(interrupted)) => {
                // Interrupted::ChunkBudgetExhausted cannot happen (no
                // budget is set); fold it into cancellation regardless.
                debug_assert!(matches!(interrupted, Interrupted::Cancelled { .. }));
                Outcome::Cancelled { completed_trials: interrupted.completed_trials() }
            }
            Err(reason) => Outcome::Failed(reason),
        };
        self.with(|st| {
            st.running.remove(&id);
            st.sched.finish(id, outcome, finished_at);
        });
        if let Some(span) = deliver_span {
            drop(span);
            self.m.deliver_us.observe(finished_at.elapsed().as_micros() as u64);
        }
    }
}

/// Forwards a running job's orchestrator events to the core.
struct JobReporter {
    shared: Arc<Shared>,
    id: u64,
}

impl Reporter for JobReporter {
    fn report(&self, event: &Event<'_>) {
        if matches!(
            event,
            Event::UnitStarted { .. } | Event::ChunkFinished { .. } | Event::UnitFinished { .. }
        ) {
            self.shared.with(|st| st.sched.report(self.id, event, Instant::now()));
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

enum ListenerKind {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

/// The bound, ready-to-serve service.
pub struct SweepServer {
    core: Arc<Shared>,
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
        let sched = Sched::new(&config, m.clone());
        let core = Arc::new(Shared {
            store,
            registry,
            m,
            state: Mutex::new(Locked { sched, conns: HashMap::new(), running: HashMap::new() }),
            work_cv: Condvar::new(),
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
                        if core.shutting_down() {
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
                    if core.shutting_down() {
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
    core: Arc<Shared>,
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

fn handle_conn(core: &Arc<Shared>, stream: SweepStream) {
    let Ok(write_half) = stream.try_clone() else { return };
    let conn_registry = MetricRegistry::new();
    let conn = core.with(|st| {
        let client = st.sched.connect(ConnMetrics::new(&conn_registry));
        let conn = Arc::new(Conn::new(client, write_half));
        st.conns.insert(client, Arc::clone(&conn));
        conn
    });
    let writer = {
        let conn = Arc::clone(&conn);
        std::thread::Builder::new()
            .name("sweepd-conn-writer".to_string())
            .spawn(move || conn.writer_loop())
            .expect("spawn connection writer")
    };
    let client = conn.id;
    // A frame the reader answers without the core.
    let send_frame = |frame: &ServerFrame| conn.send(wire(frame));

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
            conn.send(format!(
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
                core.submit(&conn, id, spec, trials, trace)
            }
            ClientFrame::Subscribe { id, key } => {
                core.with_conn(&conn, |st| st.sched.subscribe(client, id, &key))
            }
            ClientFrame::Status { id, key } => {
                core.with_conn(&conn, |st| st.sched.status(client, id, &key))
            }
            ClientFrame::Cancel { id, key } => {
                core.with_conn(&conn, |st| st.sched.cancel(client, id, &key))
            }
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
    core.with(|st| {
        st.sched.disconnect(client);
        st.conns.remove(&client);
    });
    conn.close();
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
