//! The decision core of the sweep service: admission (dedup → store
//! recall → queue bound → fair share), subscribe, status, cancel,
//! disconnect, `pick_next` with its thread ledger, progress throttling,
//! terminal delivery and the shutdown drain.
//!
//! [`Sched`] is one plain `&mut self` state machine. It takes no lock,
//! opens no socket, starts no thread and reads no clock (`now` is passed
//! in). What it decides lands in an outbox of [`Out`]s: frames for
//! connections and cancel tokens to fire. The shell in `server.rs` keeps
//! it behind one `Mutex` and carries the outbox out before unlocking, so
//! frames leave in the order they were decided: an `accepted` always
//! precedes every `progress` or `result` of its request id.
//!
//! Admission is one decision in two calls. [`Sched::submit`] answers a
//! unit in flight (a job, or a recall pending for its key) and turns any
//! other into a pending entry the shell recalls from the store outside
//! the lock; [`Sched::settle`] takes the recall's hit or miss and answers
//! every submission waiting on it. The seeded suite at the end of this
//! file drives it with no socket and no thread.

use crate::protocol::ServerFrame;
use crate::server::ServerConfig;
use jle_orchestrator::Event;
use jle_telemetry::{Counter, Gauge, Histogram, MetricRegistry};
use serde_json::value::RawValue;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One decision for the shell to carry out.
#[derive(Debug)]
pub(crate) enum Out {
    /// Queue this frame on connection `.0`.
    Frame(u64, ServerFrame),
    /// Fire the cancel token of running job `.0`.
    Cancel(u64),
    /// Lower running job `.0`'s thread cap to `.1`.
    Narrow(u64, usize),
}

/// How a job's execution ended.
pub(crate) enum Outcome {
    /// All trials are in: the reports (and the job's spans, when traced)
    /// as JSON text, written once for every subscriber.
    Done { results: Arc<RawValue>, spans: Option<Arc<RawValue>> },
    /// The cancel token stopped it at a chunk boundary.
    Cancelled { completed_trials: u64 },
    /// It could not run (a trial panicked).
    Failed(String),
}

/// A unit the store held whole, recalled and rendered by the shell at
/// admission: answered at once, without a job.
pub(crate) struct Stored {
    pub(crate) results: Arc<RawValue>,
    pub(crate) spans: Option<Arc<RawValue>>,
}

/// One connection's interest in one job.
struct Sub {
    conn: u64,
    req_id: u64,
}

/// A unit the shell is recalling from the store: the submissions waiting
/// on the recall, in arrival order, with when each arrived.
struct Pending {
    trials: u64,
    subs: Vec<(Sub, Instant)>,
}

/// One deduped unit of in-flight work.
struct Job<W> {
    key: String,
    trials: u64,
    /// Primary submitter, for fair-share accounting.
    client: u64,
    submitted: Instant,
    /// The shell's payload while queued; the worker takes it at pickup,
    /// so `None` means running.
    work: Option<W>,
    /// Thread credits reserved at pickup; 0 while queued.
    threads: usize,
    subs: Vec<Sub>,
    done_trials: u64,
    executed_trials: u64,
    cached_trials: u64,
    first_event_seen: bool,
    last_progress: Option<Instant>,
}

impl<W> Job<W> {
    fn running(&self) -> bool {
        self.work.is_none()
    }
}

/// The `jle_sweepd_*` metric family, on the shared registry.
#[derive(Clone)]
pub(crate) struct Metrics {
    submissions: Counter,
    dedup_hits: Counter,
    rejected_queue_full: Counter,
    rejected_fair_share: Counter,
    jobs_completed: Counter,
    jobs_cancelled: Counter,
    jobs_failed: Counter,
    unit_cache_hits: Counter,
    pub(crate) store_recalls: Counter,
    threads_reclaimed: Counter,
    connections: Counter,
    queue_depth: Gauge,
    active_jobs: Gauge,
    first_chunk_latency_us: Histogram,
    queue_wait_us: Histogram,
    job_threads: Histogram,
    dedup_shortcircuit_us: Histogram,
    pub(crate) execute_us: Histogram,
    pub(crate) deliver_us: Histogram,
}

impl Metrics {
    pub(crate) fn new(reg: &MetricRegistry) -> Self {
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
                "units answered entirely from the warm result store, at admission or by a job",
            ),
            store_recalls: reg.counter(
                "jle_sweepd_store_recalls_total",
                "store probes of submitted units not in flight, at most one per key at a time",
            ),
            threads_reclaimed: reg.counter(
                "jle_sweepd_threads_reclaimed_total",
                "borrowed threads a running job gave back because another job queued",
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
                "admission-to-worker-pickup wait per queued job, microseconds",
            ),
            job_threads: reg.histogram(
                "jle_sweepd_job_threads",
                "threads each job computes on, observed at worker pickup",
            ),
            dedup_shortcircuit_us: reg.histogram(
                "jle_sweepd_dedup_shortcircuit_us",
                "admission latency of submissions coalesced onto in-flight work, microseconds",
            ),
            execute_us: reg.histogram(
                "jle_sweepd_execute_us",
                "orchestrator execution time per job or admission-time recall, microseconds",
            ),
            deliver_us: reg.histogram(
                "jle_sweepd_deliver_us",
                "per job, result rendering + fan-out onto the subscribers' outboxes; per served \
                 answer, rendering + the reader's socket write; microseconds",
            ),
        }
    }
}

/// Per-connection counters, on the connection's private registry.
pub(crate) struct ConnMetrics {
    submissions: Counter,
    dedup: Counter,
    rejected: Counter,
    progress_frames: Counter,
    results: Counter,
}

impl ConnMetrics {
    pub(crate) fn new(reg: &MetricRegistry) -> Self {
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

fn micros(d: Duration) -> u64 {
    d.as_micros() as u64
}

/// Every scheduling decision of the service. `W` is the shell's payload
/// of a queued job (its spec and tracer), handed back at pickup.
pub(crate) struct Sched<W> {
    max_queue: usize,
    client_share: usize,
    progress_every: Duration,
    m: Metrics,
    conns: HashMap<u64, ConnMetrics>,
    /// Queued and running jobs by id.
    jobs: BTreeMap<u64, Job<W>>,
    /// The dedup table: the in-flight job of each fingerprint that still
    /// has a subscriber. Every job in it has at least one.
    by_key: HashMap<String, u64>,
    /// The recalls outstanding, by fingerprint: one per key at most, and
    /// never for a key in `by_key`. An entry takes no queue slot and no
    /// fair share, and leaves only through [`Sched::settle`].
    pending: HashMap<String, Pending>,
    queue: VecDeque<u64>,
    /// The thread ledger: how many of the pool's `workers × mc_jobs`
    /// credits no job holds. A pickup reserves; [`Sched::finish`]
    /// settles, and a job queued behind a borrower settles what it
    /// borrowed.
    free: usize,
    /// The credits a job takes while others wait (`mc_jobs`).
    width: usize,
    next_id: u64,
    shutting_down: bool,
    out: Vec<Out>,
}

impl<W> Sched<W> {
    pub(crate) fn new(config: &ServerConfig, m: Metrics) -> Self {
        let width = config.effective_mc_jobs();
        Sched {
            max_queue: config.max_queue,
            client_share: config.client_share,
            progress_every: config.progress_every,
            m,
            conns: HashMap::new(),
            jobs: BTreeMap::new(),
            by_key: HashMap::new(),
            pending: HashMap::new(),
            queue: VecDeque::new(),
            free: config.effective_workers() * width,
            width,
            next_id: 0,
            shutting_down: false,
            out: Vec::new(),
        }
    }

    /// The decisions made since the last drain, in order.
    pub(crate) fn drain(&mut self) -> std::vec::Drain<'_, Out> {
        self.out.drain(..)
    }

    pub(crate) fn shutting_down(&self) -> bool {
        self.shutting_down
    }

    fn send(&mut self, conn: u64, frame: ServerFrame) {
        self.out.push(Out::Frame(conn, frame));
    }

    fn running(&self) -> usize {
        self.jobs.len() - self.queue.len()
    }

    fn set_gauges(&self) {
        self.m.queue_depth.set(self.queue.len() as f64);
        self.m.active_jobs.set(self.running() as f64);
    }

    /// A new connection; returns its id (also its client id).
    pub(crate) fn connect(&mut self, cm: ConnMetrics) -> u64 {
        self.m.connections.inc();
        self.next_id += 1;
        self.conns.insert(self.next_id, cm);
        self.next_id
    }

    /// Admission, first half. A submission of a unit in flight is
    /// answered here: attached to the queued or running job of its key,
    /// or to the recall pending for it, or refused when that runs another
    /// trial count. Any other unit becomes a pending entry, and `true`
    /// tells the shell to recall `key` from the store and report the
    /// outcome through [`Sched::settle`]. `key` is the unit's fingerprint,
    /// or the reason it could not be decoded; `received` is when the frame
    /// arrived.
    pub(crate) fn submit(
        &mut self,
        conn: u64,
        req_id: u64,
        trials: u64,
        key: Result<&str, String>,
        received: Instant,
        now: Instant,
    ) -> bool {
        if self.shutting_down {
            self.refuse(conn, req_id, "server shutting down".to_string(), 0);
            return false;
        }
        let key = match key {
            Ok(key) => key,
            Err(reason) => {
                self.send(conn, ServerFrame::Error { id: req_id, reason });
                return false;
            }
        };
        let had = match (self.by_key.get(key), self.pending.get_mut(key)) {
            (Some(id), _) => self.jobs[id].trials,
            (None, Some(pending)) => {
                if pending.trials == trials {
                    pending.subs.push((Sub { conn, req_id }, received));
                    return false;
                }
                pending.trials
            }
            (None, None) => {
                let subs = vec![(Sub { conn, req_id }, received)];
                self.pending.insert(key.to_string(), Pending { trials, subs });
                return true;
            }
        };
        if had == trials {
            self.attach(conn, req_id, key.to_string(), received, now);
        } else {
            let reason = format!("key {key} is in flight with {had} trials (requested {trials})");
            self.refuse(conn, req_id, reason, 500);
        }
        false
    }

    /// Admission, second half: the shell's recall of `key` ended, with the
    /// rendered unit on a hit. On a hit every submission still waiting on
    /// it gets `accepted` and the stored `result` in this drain: no job,
    /// no queue slot, no fair share, and it counts as a warm job does. On
    /// a miss they share one job, built by `make`: the queue bound and the
    /// fair share of the first one still waiting admit it or refuse them
    /// all, and the rest attach to it as dedups. While shutting down all
    /// are refused. Returns whether a job was queued.
    pub(crate) fn settle(
        &mut self,
        key: &str,
        stored: Option<Stored>,
        make: impl FnOnce() -> W,
        now: Instant,
    ) -> bool {
        let Some((key, Pending { trials, subs })) = self.pending.remove_entry(key) else {
            return false;
        };
        let (reason, retry_after_ms) = 'refuse: {
            if self.shutting_down {
                break 'refuse ("server shutting down".to_string(), 0);
            }
            if let Some(Stored { results, spans }) = stored {
                for (Sub { conn, req_id }, received) in subs {
                    self.accept(conn, req_id, key.clone(), trials, false);
                    let waited = now.saturating_duration_since(received);
                    self.m.unit_cache_hits.inc();
                    self.m.jobs_completed.inc();
                    self.m.first_chunk_latency_us.observe(micros(waited));
                    self.conns[&conn].results.inc();
                    let frame = ServerFrame::Result {
                        id: req_id,
                        key: key.clone(),
                        trials,
                        executed_trials: 0,
                        cached_trials: trials,
                        wall_secs: waited.as_secs_f64(),
                        results: Arc::clone(&results),
                        spans: spans.clone(),
                    };
                    self.send(conn, frame);
                }
                return false;
            }
            let Some(&(Sub { conn: client, req_id }, _)) = subs.first() else { return false };
            let depth = self.queue.len();
            if depth >= self.max_queue {
                self.m.rejected_queue_full.add(subs.len() as u64);
                break 'refuse (format!("queue full ({depth} jobs)"), 100 + 25 * depth as u64);
            }
            let inflight = self.jobs.values().filter(|j| j.client == client).count();
            if inflight >= self.client_share {
                self.m.rejected_fair_share.add(subs.len() as u64);
                break 'refuse (format!("fair share exhausted ({inflight} jobs in flight)"), 200);
            }
            self.next_id += 1;
            let job = Job {
                key: key.clone(),
                trials,
                client,
                submitted: now,
                work: Some(make()),
                threads: 0,
                subs: vec![Sub { conn: client, req_id }],
                done_trials: 0,
                executed_trials: 0,
                cached_trials: 0,
                first_event_seen: false,
                last_progress: None,
            };
            self.jobs.insert(self.next_id, job);
            self.by_key.insert(key.clone(), self.next_id);
            self.queue.push_back(self.next_id);
            self.reclaim();
            self.set_gauges();
            self.accept(client, req_id, key.clone(), trials, false);
            for (Sub { conn, req_id }, received) in subs.into_iter().skip(1) {
                self.attach(conn, req_id, key.clone(), received, now);
            }
            return true;
        };
        for (Sub { conn, req_id }, _) in subs {
            self.refuse(conn, req_id, reason.clone(), retry_after_ms);
        }
        false
    }

    /// Attach a submission to the in-flight job of `key`, as a dedup.
    fn attach(&mut self, conn: u64, req_id: u64, key: String, received: Instant, now: Instant) {
        let job = self.jobs.get_mut(&self.by_key[&key]).expect("dedup entries name live jobs");
        job.subs.push(Sub { conn, req_id });
        let trials = job.trials;
        self.m.dedup_hits.inc();
        self.m.dedup_shortcircuit_us.observe(micros(now.saturating_duration_since(received)));
        self.conns[&conn].dedup.inc();
        self.accept(conn, req_id, key, trials, true);
    }

    /// Count an admission and answer it.
    fn accept(&mut self, conn: u64, req_id: u64, key: String, trials: u64, dedup: bool) {
        self.m.submissions.inc();
        self.conns[&conn].submissions.inc();
        let queue_depth = self.queue.len() as u64;
        self.send(conn, ServerFrame::Accepted { id: req_id, key, trials, dedup, queue_depth });
    }

    /// Count a refused submission and answer it.
    fn refuse(&mut self, conn: u64, req_id: u64, reason: String, retry_after_ms: u64) {
        self.conns[&conn].rejected.inc();
        self.send(conn, ServerFrame::Rejected { id: req_id, reason, retry_after_ms });
    }

    /// Attach `conn` to the in-flight job of `key`.
    pub(crate) fn subscribe(&mut self, conn: u64, req_id: u64, key: &str) {
        let frame = match self.by_key.get(key) {
            Some(id) => {
                let job = self.jobs.get_mut(id).expect("dedup entries name live jobs");
                job.subs.push(Sub { conn, req_id });
                ServerFrame::Accepted {
                    id: req_id,
                    key: key.to_string(),
                    trials: job.trials,
                    dedup: true,
                    queue_depth: self.queue.len() as u64,
                }
            }
            None => {
                ServerFrame::Error { id: req_id, reason: format!("key {key} is not in flight") }
            }
        };
        self.send(conn, frame);
    }

    pub(crate) fn status(&mut self, conn: u64, req_id: u64, key: &str) {
        let job = self.by_key.get(key).map(|id| &self.jobs[id]);
        let frame = ServerFrame::Status {
            id: req_id,
            key: key.to_string(),
            state: match job {
                None => "unknown",
                Some(job) if job.running() => "running",
                Some(_) => "queued",
            }
            .to_string(),
            done_trials: job.map_or(0, |j| j.done_trials),
            total_trials: job.map_or(0, |j| j.trials),
            subscribers: job.map_or(0, |j| j.subs.len() as u64),
        };
        self.send(conn, frame);
    }

    /// Withdraw `conn`'s interest in `key`; the computation is dropped
    /// only when nobody else still wants it. Submissions waiting on a
    /// recall of `key` are withdrawn and get no answer; the recall still
    /// settles.
    pub(crate) fn cancel(&mut self, conn: u64, req_id: u64, key: &str) {
        let completed_trials = if let Some(&id) = self.by_key.get(key) {
            let job = self.jobs.get_mut(&id).expect("dedup entries name live jobs");
            job.subs.retain(|s| s.conn != conn);
            let done = job.done_trials;
            if job.subs.is_empty() {
                self.orphan(id);
            }
            done
        } else if let Some(pending) = self.pending.get_mut(key) {
            pending.subs.retain(|(s, _)| s.conn != conn);
            0
        } else {
            let reason = format!("key {key} is not in flight");
            return self.send(conn, ServerFrame::Error { id: req_id, reason });
        };
        self.send(
            conn,
            ServerFrame::Cancelled { id: req_id, key: key.to_string(), completed_trials },
        );
    }

    /// A connection went away: drop its subscriptions and waiting
    /// submissions everywhere and orphan the jobs nobody is left waiting
    /// for.
    pub(crate) fn disconnect(&mut self, conn: u64) {
        self.conns.remove(&conn);
        for pending in self.pending.values_mut() {
            pending.subs.retain(|(s, _)| s.conn != conn);
        }
        let mut orphans = Vec::new();
        for (&id, job) in &mut self.jobs {
            let before = job.subs.len();
            job.subs.retain(|s| s.conn != conn);
            if before > 0 && job.subs.is_empty() {
                orphans.push(id);
            }
        }
        for id in orphans {
            self.orphan(id);
        }
    }

    /// Job `id` lost its last subscriber. It leaves the dedup table at
    /// once, so the next submission of its key starts afresh. A queued job
    /// is dropped, freeing its queue slot and its submitter's share; a
    /// running one gets its token fired and finishes unseen.
    fn orphan(&mut self, id: u64) {
        let job = &self.jobs[&id];
        self.by_key.remove(&job.key);
        if job.running() {
            self.out.push(Out::Cancel(id));
        } else {
            self.jobs.remove(&id);
            self.queue.retain(|&q| q != id);
            self.m.jobs_cancelled.inc();
            self.set_gauges();
        }
    }

    /// Pop the fairest runnable job: FIFO position among jobs whose
    /// submitter currently has the fewest running jobs. Returns its id,
    /// the shell's payload and the threads it computes on, reserved on
    /// the ledger until [`Sched::finish`]: `mc_jobs` while other jobs
    /// wait, else every free credit up to its trial count, so a lone job
    /// borrows the idle workers' threads. An idle worker always finds
    /// `mc_jobs` credits free: a job holds more only while nothing is
    /// queued, and [`Sched::settle`] reclaims the surplus in the decision
    /// that queues a job. So no worker ever waits for threads.
    pub(crate) fn pick_next(&mut self, now: Instant) -> Option<(u64, W, usize)> {
        if self.shutting_down {
            return None;
        }
        let running_of =
            |client| self.jobs.values().filter(|j| j.running() && j.client == client).count();
        let mut best: Option<(usize, usize)> = None;
        for (i, id) in self.queue.iter().enumerate() {
            let running = running_of(self.jobs[id].client);
            if best.is_none_or(|(r, _)| running < r) {
                best = Some((running, i));
                if running == 0 {
                    break;
                }
            }
        }
        let id = self.queue.remove(best?.1)?;
        let job = self.jobs.get_mut(&id)?;
        let work = job.work.take()?;
        let threads = if self.queue.is_empty() {
            self.free.min(usize::try_from(job.trials).unwrap_or(usize::MAX).max(1))
        } else {
            self.width
        };
        job.threads = threads;
        self.free -= threads;
        self.m.job_threads.observe(threads as u64);
        self.m.queue_wait_us.observe(micros(now.saturating_duration_since(job.submitted)));
        self.set_gauges();
        Some((id, work, threads))
    }

    /// A job is queued: every running job that borrowed idle threads
    /// gives back all but `mc_jobs` of them, so the newcomer need not wait
    /// for the borrower's whole run. The shell lowers the borrower's
    /// thread cap; each thread past it leaves after its current piece.
    fn reclaim(&mut self) {
        for (&id, job) in &mut self.jobs {
            if job.threads > self.width {
                self.free += job.threads - self.width;
                self.m.threads_reclaimed.add((job.threads - self.width) as u64);
                job.threads = self.width;
                self.out.push(Out::Narrow(id, self.width));
            }
        }
    }

    /// An orchestrator event of running job `id`: record progress and
    /// stream it to the subscribers, at most once per `progress_every`.
    pub(crate) fn report(&mut self, id: u64, event: &Event<'_>, now: Instant) {
        let Some(job) = self.jobs.get_mut(&id) else { return };
        let first_event = |job: &mut Job<W>| {
            if !job.first_event_seen {
                job.first_event_seen = true;
                let latency = now.saturating_duration_since(job.submitted);
                self.m.first_chunk_latency_us.observe(micros(latency));
            }
        };
        match *event {
            Event::UnitStarted { trials, cached_trials, .. } if cached_trials >= trials => {
                // Fully warm unit: the store answers in one pass.
                self.m.unit_cache_hits.inc();
                job.done_trials = trials;
                first_event(job);
            }
            Event::ChunkFinished { end, slots, trials_per_sec, eta_secs, .. } => {
                job.done_trials = job.done_trials.max(end);
                first_event(job);
                let every = self.progress_every;
                if job.last_progress.is_some_and(|t| now.saturating_duration_since(t) < every) {
                    return;
                }
                job.last_progress = Some(now);
                for sub in &job.subs {
                    self.conns[&sub.conn].progress_frames.inc();
                    let frame = ServerFrame::Progress {
                        id: sub.req_id,
                        key: job.key.clone(),
                        done_trials: job.done_trials,
                        total_trials: job.trials,
                        slots,
                        trials_per_sec,
                        eta_secs,
                    };
                    self.out.push(Out::Frame(sub.conn, frame));
                }
            }
            Event::UnitFinished { executed_trials, cached_trials, .. } => {
                job.executed_trials = executed_trials;
                job.cached_trials = cached_trials;
            }
            _ => {}
        }
    }

    /// Running job `id` stopped: its threads go back to the ledger, one
    /// terminal frame goes to each subscriber, and the job is gone.
    /// Terminal counters move before the frames go out, so a client that
    /// scrapes right after its result sees them.
    pub(crate) fn finish(&mut self, id: u64, outcome: Outcome, now: Instant) {
        let Some(job) = self.jobs.remove(&id) else { return };
        self.free += job.threads;
        if self.by_key.get(&job.key) == Some(&id) {
            self.by_key.remove(&job.key);
        }
        self.set_gauges();
        match outcome {
            Outcome::Done { .. } => self.m.jobs_completed.inc(),
            Outcome::Cancelled { .. } => self.m.jobs_cancelled.inc(),
            Outcome::Failed(_) => self.m.jobs_failed.inc(),
        }
        let wall_secs = now.saturating_duration_since(job.submitted).as_secs_f64();
        for Sub { conn, req_id: id } in job.subs {
            self.conns[&conn].results.inc();
            let key = job.key.clone();
            let frame = match &outcome {
                Outcome::Done { results, spans } => ServerFrame::Result {
                    id,
                    key,
                    trials: job.trials,
                    executed_trials: job.executed_trials,
                    cached_trials: job.cached_trials,
                    wall_secs,
                    results: Arc::clone(results),
                    spans: spans.clone(),
                },
                &Outcome::Cancelled { completed_trials } => {
                    ServerFrame::Cancelled { id, key, completed_trials }
                }
                Outcome::Failed(reason) => ServerFrame::Failed { id, key, reason: reason.clone() },
            };
            self.send(conn, frame);
        }
    }

    /// Stop admitting: every queued job gets its terminal `failed`, and
    /// every running job's token fires. Idempotent.
    pub(crate) fn shutdown(&mut self) {
        if std::mem::replace(&mut self.shutting_down, true) {
            return;
        }
        for id in std::mem::take(&mut self.queue) {
            let job = self.jobs.remove(&id).expect("queued jobs are in the table");
            self.by_key.remove(&job.key);
            self.m.jobs_failed.inc();
            for sub in job.subs {
                self.conns[&sub.conn].results.inc();
                let reason = "server shutting down".to_string();
                let frame = ServerFrame::Failed { id: sub.req_id, key: job.key.clone(), reason };
                self.send(sub.conn, frame);
            }
        }
        let running: Vec<u64> = self.jobs.keys().copied().collect();
        self.out.extend(running.into_iter().map(Out::Cancel));
        self.set_gauges();
    }
}

#[cfg(test)]
mod tests {
    //! The seeded suite: random event sequences, worker-completion orders
    //! and recall outcomes drive [`Sched`] directly, with fake job
    //! outcomes, and every frame it decides is checked against the
    //! service's invariants.

    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Fail the case with a message.
    macro_rules! check {
        ($cond:expr, $($fmt:tt)+) => {
            if !$cond {
                return Err(format!($($fmt)+));
            }
        };
    }

    const KEYS: [&str; 3] = ["k0", "k1", "k2"];
    const SLOTS: usize = 3;

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Kind {
        Submit,
        /// A submission whose recall settled as a hit: answered from the
        /// store.
        Serve,
        Subscribe,
        /// `status` and `cancel`: one reply, no job frames.
        Query,
    }

    /// One connection as its client sees it.
    struct Conn {
        id: u64,
        registry: MetricRegistry,
        live: bool,
        next_req: u64,
        reqs: HashMap<u64, (String, Kind)>,
        frames: Vec<ServerFrame>,
        /// Accepted requests still owed a terminal frame, with their key.
        open: BTreeMap<u64, String>,
        /// When each request last got a progress frame.
        progress_at: HashMap<u64, Instant>,
        /// Submissions answered (`accepted`, `rejected` or `error`), or
        /// withdrawn by a cancel while waiting on a recall.
        answered: BTreeSet<u64>,
    }

    struct Model {
        sched: Sched<String>,
        registry: MetricRegistry,
        max_queue: usize,
        share: usize,
        /// The ledger's size, `workers × mc_jobs`, and `mc_jobs`.
        credits: usize,
        mc_jobs: usize,
        progress_every: Duration,
        conns: Vec<Conn>,
        /// The connection each slot drives now (an index into `conns`).
        slots: [usize; SLOTS],
        /// Each worker's running job: id, key, trials done, threads.
        workers: Vec<Option<(u64, String, u64, usize)>>,
        /// Jobs whose cancel token has fired.
        fired: BTreeSet<u64>,
        /// The recalls the core asked for that the shell has not settled:
        /// by key, the trial count and the submissions waiting on it
        /// (connection id, request id).
        recalls: BTreeMap<String, (u64, Vec<(u64, u64)>)>,
        shutdown: bool,
        now: Instant,
        completed: u64,
        /// Units answered whole from the store: served, or a job's warm start.
        cache_hits: u64,
    }

    impl Model {
        fn new(
            (workers, mc_jobs): (usize, usize),
            max_queue: usize,
            share: usize,
            progress_ms: u64,
        ) -> Self {
            let registry = MetricRegistry::new();
            let config = ServerConfig {
                workers,
                mc_jobs,
                max_queue,
                client_share: share,
                progress_every: Duration::from_millis(progress_ms),
                ..ServerConfig::default()
            };
            let mut model = Model {
                sched: Sched::new(&config, Metrics::new(&registry)),
                registry,
                max_queue,
                share,
                credits: workers * mc_jobs,
                mc_jobs,
                progress_every: config.progress_every,
                conns: Vec::new(),
                slots: [0; SLOTS],
                workers: vec![None; workers],
                fired: BTreeSet::new(),
                recalls: BTreeMap::new(),
                shutdown: false,
                now: Instant::now(),
                completed: 0,
                cache_hits: 0,
            };
            for slot in 0..SLOTS {
                model.slots[slot] = model.connect();
            }
            model
        }

        fn connect(&mut self) -> usize {
            let registry = MetricRegistry::new();
            let id = self.sched.connect(ConnMetrics::new(&registry));
            self.conns.push(Conn {
                id,
                registry,
                live: true,
                next_req: 0,
                reqs: HashMap::new(),
                frames: Vec::new(),
                open: BTreeMap::new(),
                progress_at: HashMap::new(),
                answered: BTreeSet::new(),
            });
            self.conns.len() - 1
        }

        fn conn(&mut self, id: u64) -> &mut Conn {
            self.conns.iter_mut().find(|c| c.id == id).expect("known connection")
        }

        /// The threads the running jobs hold, by the workers' own count.
        fn in_use(&self) -> usize {
            self.workers.iter().flatten().map(|w| w.3).sum()
        }

        /// How many live requests are owed `key`'s job.
        fn wanting(&self, key: &str) -> usize {
            let live = self.conns.iter().filter(|c| c.live);
            live.map(|c| c.open.values().filter(|k| *k == key).count()).sum()
        }

        fn request(&mut self, slot: usize, key: &str, kind: Kind) -> (u64, u64) {
            let conn = &mut self.conns[self.slots[slot]];
            conn.next_req += 1;
            conn.reqs.insert(conn.next_req, (key.to_string(), kind));
            (conn.id, conn.next_req)
        }

        /// Carry out the core's decisions and check the state they leave.
        fn flush(&mut self) -> Result<(), String> {
            self.deliver()?;
            self.check()
        }

        /// Carry out the core's decisions, checking each frame as its
        /// connection receives it.
        fn deliver(&mut self) -> Result<(), String> {
            let outs: Vec<Out> = self.sched.drain().collect();
            for out in outs {
                let (conn_id, frame) = match out {
                    Out::Cancel(job) => {
                        self.fired.insert(job);
                        continue;
                    }
                    Out::Narrow(job, threads) => {
                        let mut running = self.workers.iter_mut().flatten();
                        let Some(held) = running.find(|w| w.0 == job).map(|w| &mut w.3) else {
                            return Err(format!("narrowed job {job}, which no worker runs"));
                        };
                        check!(threads == self.mc_jobs, "narrowed {job} to {threads} threads");
                        check!(*held > threads, "narrowed {job} from {held} to {threads}");
                        *held = threads;
                        continue;
                    }
                    Out::Frame(conn, frame) => (conn, frame),
                };
                let i = self.conns.iter().position(|c| c.id == conn_id).expect("known connection");
                check!(self.conns[i].live, "frame for closed connection {conn_id}: {frame:?}");
                let id = frame.id();
                let (key, kind) = self.conns[i].reqs[&id].clone();
                let wanting = self.wanting(&key);
                let conn = &mut self.conns[i];
                if matches!(kind, Kind::Submit | Kind::Serve)
                    && matches!(
                        frame,
                        ServerFrame::Accepted { .. }
                            | ServerFrame::Rejected { .. }
                            | ServerFrame::Error { .. }
                    )
                {
                    // One admission answer per submission, none after a
                    // withdrawal, and no admission once shut down.
                    check!(conn.answered.insert(id), "submission {id} answered twice: {frame:?}");
                    let admitted = matches!(frame, ServerFrame::Accepted { .. });
                    check!(!(admitted && self.shutdown), "admitted {key} after shutdown");
                }
                match &frame {
                    ServerFrame::Accepted { dedup, key: k, .. } if kind == Kind::Serve => {
                        check!(*k == key, "accepted names {k}, the request {key}");
                        // Served answers never attach to in-flight work.
                        check!(!dedup, "served {key} as a dedup");
                        conn.open.insert(id, key);
                    }
                    ServerFrame::Result { executed_trials, cached_trials, trials, .. }
                        if kind == Kind::Serve =>
                    {
                        check!(*executed_trials == 0, "served {key} executed {executed_trials}");
                        check!(*cached_trials == *trials, "served {cached_trials} of {trials}");
                        check!(conn.open.remove(&id).is_some(), "{frame:?} before its accepted");
                    }
                    ServerFrame::Accepted { dedup, key: k, .. } => {
                        check!(*k == key, "accepted names {k}, the request {key}");
                        // A fresh job only when nobody is owed one already,
                        // and a dedup only onto a job somebody is owed.
                        check!(*dedup == (wanting > 0), "accepted {key}, dedup {dedup}: {wanting}");
                        conn.open.insert(id, key);
                    }
                    ServerFrame::Progress { .. } => {
                        check!(conn.open.contains_key(&id), "progress of {id} before accepted");
                        // Throttled: at most one per `progress_every`.
                        let last = conn.progress_at.insert(id, self.now);
                        let gap = last.map(|t| self.now - t);
                        check!(gap.is_none_or(|g| g >= self.progress_every), "progress {gap:?}");
                    }
                    ServerFrame::Result { .. } | ServerFrame::Failed { .. } => {
                        check!(conn.open.remove(&id).is_some(), "{frame:?} for no open request");
                    }
                    ServerFrame::Cancelled { .. } if kind != Kind::Query => {
                        check!(self.shutdown, "request {id} got `cancelled` but never cancelled");
                        check!(conn.open.remove(&id).is_some(), "{frame:?} for no open request");
                    }
                    // The reply to a cancel: the connection's requests for
                    // the key are withdrawn and owed nothing more, those
                    // waiting on a recall included.
                    ServerFrame::Cancelled { .. } => {
                        conn.open.retain(|_, k| *k != key);
                        if let Some((_, waiting)) = self.recalls.get_mut(&key) {
                            let (gone, kept) = waiting.drain(..).partition(|w| w.0 == conn_id);
                            *waiting = kept;
                            conn.answered.extend(gone.into_iter().map(|w: (u64, u64)| w.1));
                        }
                    }
                    ServerFrame::Error { reason, .. } => {
                        let own = conn.open.values().any(|k| *k == key);
                        check!(!own, "{reason}, but this connection is owed {key}");
                    }
                    ServerFrame::Status { state, subscribers, .. } => {
                        let want = wanting as u64;
                        check!(*subscribers == want, "status: {subscribers} subscribers of {want}");
                        check!((state == "unknown") == (want == 0), "status {state} for {key}");
                    }
                    ServerFrame::Rejected { .. } if kind == Kind::Serve => {
                        check!(self.shutdown, "served request {id} refused before shutdown")
                    }
                    ServerFrame::Rejected { .. } => {
                        check!(kind == Kind::Submit, "rejected {kind:?}")
                    }
                    other => return Err(format!("the core never decides {other:?}")),
                }
                conn.frames.push(frame);
            }
            Ok(())
        }

        /// The invariants of the state the last decision left.
        fn check(&self) -> Result<(), String> {
            // A served request got its `result` in the drain that accepted it.
            for conn in &self.conns {
                let owed = conn.open.keys().find(|id| conn.reqs[id].1 == Kind::Serve);
                check!(owed.is_none(), "served request {owed:?} still open after its drain");
            }
            // Admission stays inside the queue bound and the fair share.
            let queued = self.sched.queue.len();
            check!(queued <= self.max_queue, "{queued} queued, bound {}", self.max_queue);
            for conn in self.conns.iter().filter(|c| c.live) {
                let held = self.sched.jobs.values().filter(|j| j.client == conn.id).count();
                check!(held <= self.share, "client {} holds {held} jobs", conn.id);
            }
            self.ledgers()
        }

        /// The core's two reserve→settle ledgers. Threads: a pickup
        /// reserves credits, a narrowing settles the borrowed part and
        /// `finish` the rest, so no more threads are out than the pool
        /// holds and the core's free count is the pool less what the
        /// running jobs hold, each reservation settled exactly once; while
        /// a job waits no running job holds more than `mc_jobs`. Recalls:
        /// `submit` reserves a pending entry for a key not in flight and
        /// `settle` ends it, so the core's pending table is exactly the
        /// recalls the shell owes (no key with two outstanding, none
        /// settled twice or dropped unsettled), each waits for exactly the
        /// submissions neither answered nor withdrawn, and no pending key
        /// is in the dedup table.
        fn ledgers(&self) -> Result<(), String> {
            let in_use = self.in_use();
            check!(in_use <= self.credits, "{in_use} threads out of {}", self.credits);
            let free = self.sched.free;
            check!(free + in_use == self.credits, "{free} free + {in_use} held ≠ {}", self.credits);
            let widest = self.workers.iter().flatten().map(|w| w.3).max().unwrap_or(0);
            let queued = self.sched.queue.len();
            check!(queued == 0 || widest <= self.mc_jobs, "{widest} threads, {queued} queued");
            let pending = self.sched.pending.len();
            check!(pending == self.recalls.len(), "{pending} pending, {} owed", self.recalls.len());
            for (key, (trials, waiting)) in &self.recalls {
                let Some(entry) = self.sched.pending.get(key) else {
                    return Err(format!("the recall of {key} is owed but not pending"));
                };
                check!(entry.trials == *trials, "{key} pending for {} trials", entry.trials);
                let mut subs: Vec<(u64, u64)> =
                    entry.subs.iter().map(|(s, _)| (s.conn, s.req_id)).collect();
                let mut want = waiting.clone();
                subs.sort_unstable();
                want.sort_unstable();
                check!(subs == want, "{key} waits for {subs:?}, not {want:?}");
                check!(!self.sched.by_key.contains_key(key), "{key} pending and in flight");
            }
            Ok(())
        }

        fn step(&mut self, op: u8, arg: u64) -> Result<(), String> {
            let slot = (arg % SLOTS as u64) as usize;
            let key = KEYS[(arg >> 8) as usize % KEYS.len()];
            let worker = (arg >> 16) as usize % self.workers.len();
            match op {
                0..=9 => {
                    let trials = if arg >> 24 & 7 == 0 { 8 } else { 4 };
                    let (conn, req) = self.request(slot, key, Kind::Submit);
                    if self.sched.submit(conn, req, trials, Ok(key), self.now, self.now) {
                        check!(!self.recalls.contains_key(key), "a second recall of {key}");
                        self.recalls.insert(key.to_string(), (trials, Vec::new()));
                    }
                    self.deliver()?;
                    let answered = self.conn(conn).answered.contains(&req);
                    match self.recalls.get_mut(key) {
                        Some((_, waiting)) if !answered => waiting.push((conn, req)),
                        _ => check!(answered, "submission {req} of {key} unanswered, no recall"),
                    }
                    return self.check();
                }
                10..=11 => {
                    let (conn, req) = self.request(slot, key, Kind::Subscribe);
                    self.sched.subscribe(conn, req, key);
                }
                12 => {
                    let (conn, req) = self.request(slot, key, Kind::Query);
                    self.sched.status(conn, req, key);
                }
                13..=16 => {
                    let (conn, req) = self.request(slot, key, Kind::Query);
                    self.sched.cancel(conn, req, key);
                }
                17..=18 => {
                    let i = self.slots[slot];
                    let id = self.conns[i].id;
                    self.conns[i].live = false;
                    for (_, waiting) in self.recalls.values_mut() {
                        waiting.retain(|w| w.0 != id);
                    }
                    self.sched.disconnect(id);
                    self.slots[slot] = self.connect();
                }
                19..=25 if self.workers[worker].is_none() => {
                    let free = self.credits - self.in_use();
                    let queued = !self.shutdown && !self.sched.queue.is_empty();
                    let picked = self.sched.pick_next(self.now);
                    // No worker waits for threads: an idle one always
                    // picks a queued job.
                    check!(picked.is_some() == queued, "queued {queued}, picked {picked:?}");
                    if let Some((id, key, threads)) = picked {
                        check!(self.wanting(&key) > 0, "picked {key}, which nobody is owed");
                        let mut running = self.workers.iter().flatten();
                        let twin = running.any(|(j, k, ..)| *k == key && !self.fired.contains(j));
                        check!(!twin, "a second execution of {key}");
                        // A lone job borrows the idle threads, up to its
                        // trial count; one with others behind it takes
                        // `mc_jobs`.
                        let trials = self.sched.jobs[&id].trials as usize;
                        let want = if self.sched.queue.is_empty() {
                            free.min(trials)
                        } else {
                            self.mc_jobs
                        };
                        check!(threads == want, "picked {key} on {threads} threads, not {want}");
                        self.workers[worker] = Some((id, key, 0, threads));
                    }
                }
                26..=30 => {
                    if let Some((id, _, done, _)) = &mut self.workers[worker] {
                        *done += 1 + arg % 3;
                        let (experiment, point, key, end) = ("e", "p", "k", *done);
                        let event = if arg >> 32 & 7 == 0 {
                            self.cache_hits += 1;
                            Event::UnitStarted {
                                experiment,
                                point,
                                key,
                                trials: end,
                                cached_trials: end,
                            }
                        } else {
                            Event::ChunkFinished {
                                experiment,
                                point,
                                start: 0,
                                end,
                                slots: 10,
                                trials_per_sec: 1.0,
                                slots_per_sec: 10.0,
                                eta_secs: 0.5,
                            }
                        };
                        self.sched.report(*id, &event, self.now);
                    }
                }
                31..=36 => return self.finish(worker, arg >> 40),
                37..=38 => self.now += Duration::from_millis(arg >> 48 & 63),
                // Rare, so most sequences run long before the drain.
                39 if arg >> 60 == 0 => {
                    self.shutdown = true;
                    self.sched.shutdown();
                }
                // The shell's recall of `key` ends, a hit or a miss,
                // possibly while an orphaned job of the key still runs.
                40..=43 if self.recalls.contains_key(key) => {
                    return self.settle(key.to_string(), arg >> 24 & 1 == 0);
                }
                _ => {}
            }
            self.flush()
        }

        /// Settle the outstanding recall of `key`: every submission still
        /// waiting on it is answered in this drain, served on a hit.
        fn settle(&mut self, key: String, hit: bool) -> Result<(), String> {
            let (trials, waiting) = self.recalls.remove(&key).expect("an outstanding recall");
            let stored = hit.then(|| {
                let results = serde_json::value::to_raw_value(&vec![trials]).expect("json");
                Stored { results: results.into(), spans: None }
            });
            if hit {
                for &(conn, req) in &waiting {
                    self.conn(conn).reqs.get_mut(&req).expect("a sent request").1 = Kind::Serve;
                }
                if !self.shutdown {
                    self.completed += waiting.len() as u64;
                    self.cache_hits += waiting.len() as u64;
                }
            }
            self.sched.settle(&key, stored, || key.clone(), self.now);
            self.deliver()?;
            for &(conn, req) in &waiting {
                let answered = self.conn(conn).answered.contains(&req);
                check!(answered, "submission {req} waiting on {key} unanswered by the settle");
            }
            self.check()
        }

        /// Worker `worker` ends its job: cancelled if its token fired (or
        /// done anyway, having passed its last chunk), else done or failed.
        fn finish(&mut self, worker: usize, dice: u64) -> Result<(), String> {
            let Some((id, _, done, _)) = self.workers[worker].take() else { return Ok(()) };
            let outcome = if self.fired.contains(&id) && dice & 1 == 0 {
                Outcome::Cancelled { completed_trials: done }
            } else if dice % 11 == 5 {
                Outcome::Failed("trial panicked: boom".to_string())
            } else {
                self.completed += 1;
                let results = serde_json::value::to_raw_value(&vec![done]).expect("json").into();
                Outcome::Done { results, spans: None }
            };
            self.sched.finish(id, outcome, self.now);
            self.flush()
        }

        /// Shut down, settle the recalls still out, let every worker
        /// finish, and check the end state.
        fn drain_and_check(mut self) -> Result<(), String> {
            self.shutdown = true;
            self.sched.shutdown();
            self.flush()?;
            let owed: Vec<String> = self.recalls.keys().cloned().collect();
            for (i, key) in owed.into_iter().enumerate() {
                self.settle(key, i % 2 == 0)?;
            }
            check!(self.sched.pick_next(self.now).is_none(), "picked a job after shutdown");
            for worker in 0..self.workers.len() {
                let id = self.workers[worker].as_ref().map(|w| w.0);
                check!(id.is_none_or(|id| self.fired.contains(&id)), "job {id:?} not cancelled");
                self.finish(worker, 0)?;
            }
            check!(self.sched.jobs.is_empty(), "{} jobs left", self.sched.jobs.len());
            let tables =
                [self.sched.by_key.len(), self.sched.pending.len(), self.sched.queue.len()];
            check!(tables == [0; 3], "tables left: {tables:?}");
            check!(
                self.sched.free == self.credits,
                "{} of {} threads free",
                self.sched.free,
                self.credits
            );
            let gauge = |name| self.registry.gauge(name, "").get();
            check!(gauge("jle_sweepd_queue_depth") == 0.0, "queue depth gauge");
            check!(gauge("jle_sweepd_active_jobs") == 0.0, "active jobs gauge");
            let mut total: BTreeMap<&str, u64> = BTreeMap::new();
            for conn in &self.conns {
                // One terminal frame per accepted request not withdrawn,
                // and an answer to every submission not withdrawn.
                check!(!conn.live || conn.open.is_empty(), "{} owed {:?}", conn.id, conn.open);
                let unanswered = conn.reqs.iter().find(|(id, r)| {
                    matches!(r.1, Kind::Submit | Kind::Serve) && !conn.answered.contains(id)
                });
                check!(
                    !conn.live || unanswered.is_none(),
                    "{} never answered {unanswered:?}",
                    conn.id
                );
                let mut sent: BTreeMap<&str, u64> = BTreeMap::new();
                for frame in &conn.frames {
                    let kind = conn.reqs[&frame.id()].1;
                    let name = match frame {
                        ServerFrame::Accepted { dedup, .. }
                            if matches!(kind, Kind::Submit | Kind::Serve) =>
                        {
                            *sent.entry("dedup").or_default() += *dedup as u64;
                            "submissions"
                        }
                        ServerFrame::Rejected { .. } => "rejected",
                        ServerFrame::Progress { .. } => "progress_frames",
                        ServerFrame::Result { .. } | ServerFrame::Failed { .. } => "results",
                        ServerFrame::Cancelled { .. } if kind != Kind::Query => "results",
                        _ => continue,
                    };
                    *sent.entry(name).or_default() += 1;
                }
                for name in ["submissions", "dedup", "rejected", "progress_frames", "results"] {
                    let metric = format!("jle_sweepd_client_{name}_total");
                    let counted = conn.registry.counter(&metric, "").get();
                    let frames = sent.get(name).copied().unwrap_or(0);
                    check!(
                        counted == frames,
                        "conn {}: {metric} {counted}, {frames} frames",
                        conn.id
                    );
                    *total.entry(name).or_default() += frames;
                }
            }
            let counter = |name| self.registry.counter(name, "").get();
            check!(counter("jle_sweepd_submissions_total") == total["submissions"], "submissions");
            check!(counter("jle_sweepd_dedup_hits_total") == total["dedup"], "dedup hits");
            check!(counter("jle_sweepd_jobs_completed_total") == self.completed, "completed");
            check!(counter("jle_sweepd_unit_cache_hits_total") == self.cache_hits, "cache hits");
            Ok(())
        }
    }

    /// A fresh core with connections `1` and `2`.
    fn core() -> (Sched<&'static str>, MetricRegistry) {
        let registry = MetricRegistry::new();
        let mut sched = Sched::new(&ServerConfig::default(), Metrics::new(&registry));
        for _ in 0..2 {
            sched.connect(ConnMetrics::new(&MetricRegistry::new()));
        }
        (sched, registry)
    }

    #[test]
    fn a_cancel_that_orphans_a_queued_job_frees_its_key() {
        let (mut sched, registry) = core();
        let now = Instant::now();
        let admit = |sched: &mut Sched<&str>, conn| {
            assert!(sched.submit(conn, 1, 8, Ok("k"), now, now), "k is not in flight");
            sched.settle("k", None, || "k", now)
        };
        assert!(admit(&mut sched, 1));
        sched.cancel(1, 2, "k");
        assert_eq!(registry.counter("jle_sweepd_jobs_cancelled_total", "").get(), 1);
        assert!(admit(&mut sched, 2), "B's submission computes afresh");
        let (id, _, _) = sched.pick_next(now).expect("B's job is queued");
        let results = serde_json::value::to_raw_value(&vec![1u64]).expect("json").into();
        sched.finish(id, Outcome::Done { results, spans: None }, now);
        let frames: Vec<_> = sched.drain().map(|out| format!("{out:?}")).collect();
        assert_eq!(frames.len(), 4, "{frames:#?}");
        assert!(frames[2].contains("dedup: false") && frames[3].contains("Result"), "{frames:#?}");
    }

    /// Two identical submissions that arrive together cost one recall, and
    /// both are answered from it: served on a hit, one job with a dedup on
    /// a miss.
    #[test]
    fn identical_submissions_share_one_recall() {
        for hit in [true, false] {
            let (mut sched, registry) = core();
            let now = Instant::now();
            assert!(sched.submit(1, 7, 8, Ok("k"), now, now), "the first submission recalls");
            assert!(!sched.submit(2, 9, 8, Ok("k"), now, now), "the second waits on that recall");
            assert_eq!(sched.drain().count(), 0, "nobody is answered before the recall settles");
            let stored = hit.then(|| {
                let results = serde_json::value::to_raw_value(&vec![1u64]).expect("json").into();
                Stored { results, spans: None }
            });
            assert_eq!(sched.settle("k", stored, || "k", now), !hit, "a job only on a miss");
            let frames: Vec<(u64, u64, &str, bool)> = sched
                .drain()
                .map(|out| match out {
                    Out::Frame(conn, ServerFrame::Accepted { id, dedup, .. }) => {
                        (conn, id, "accepted", dedup)
                    }
                    Out::Frame(conn, ServerFrame::Result { id, .. }) => (conn, id, "result", false),
                    other => panic!("{other:?}"),
                })
                .collect();
            let want: &[_] = if hit {
                &[(1, 7, "accepted", false), (1, 7, "result", false)][..]
            } else {
                &[(1, 7, "accepted", false)][..]
            };
            assert_eq!(&frames[..want.len()], want);
            let second = if hit {
                vec![(2, 9, "accepted", false), (2, 9, "result", false)]
            } else {
                vec![(2, 9, "accepted", true)]
            };
            assert_eq!(frames[want.len()..], second[..]);
            let dedups = registry.counter("jle_sweepd_dedup_hits_total", "").get();
            assert_eq!(dedups, u64::from(!hit));
            let again = sched.submit(2, 10, 8, Ok("k"), now, now);
            assert_eq!(again, hit, "a hit leaves nothing in flight; a miss leaves the job");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The checks and the mutants of the core each one kills. The
        /// thread ledger: the width rule of a pick (a pick that always
        /// borrows, never borrows, or borrows past its trial count); the
        /// ledger equality `free + held = workers × mc_jobs` (a `finish`
        /// that settles nothing, a reclaim that keeps the credits or
        /// lowers no cap, a shutdown that also settles the running jobs);
        /// no running job above `mc_jobs` while one waits (no reclaim
        /// when a job queues, a pickup that leaves the reservation off the
        /// job); only a borrower is narrowed (a reclaim that narrows every
        /// job). The recall ledger, one mutant per recall step: a hit
        /// that answers only the first submission waiting (every waiting
        /// submission answered by its settle); a miss that skips the
        /// queue bound (the queue bound); a duplicate while pending that
        /// starts its own recall (no key with two recalls outstanding); a
        /// `finish` that drops the pending entry of its key (the pending
        /// table is the recalls owed); a cancel that leaves the
        /// canceller's waiting submissions attached, or a disconnect that
        /// leaves the closed connection's attached (each entry waits for
        /// exactly the submissions neither answered nor withdrawn, which
        /// keeps frames off closed connections); a settle that ignores
        /// shutdown (no admission once shut down).
        #[test]
        fn seeded_schedules_keep_every_invariant(
            limits in ((1usize..4, 1usize..4), 1usize..5, 1usize..4),
            progress_ms in 0u64..40,
            ops in proptest::collection::vec((0u8..44, any::<u64>()), 1..160),
        ) {
            let (pool, max_queue, share) = limits;
            let mut model = Model::new(pool, max_queue, share, progress_ms);
            for (n, &(op, arg)) in ops.iter().enumerate() {
                model.step(op, arg).map_err(|e| format!("step {n} ({op}, {arg:#x}): {e}"))?;
            }
            model.drain_and_check()?;
        }
    }
}
