//! The trial-level sweep scheduler.
//!
//! [`Orchestrator::run_trials`] is the single entry point experiments
//! submit work through. A unit of `trials` trials is split into fixed
//! chunks; each chunk is either served from the [`ResultStore`] or
//! computed and checkpointed the moment it is complete.
//!
//! The missing chunks of a unit are computed by one fan-out: `jobs`
//! scoped worker threads take *pieces* — one trial on the per-trial path,
//! one seed batch on the batched path — from a single index over the
//! missing ranges, in range order. The calling thread meanwhile commits
//! each chunk as soon as all its pieces are in, in range order: store
//! write, counters, [`Event::ChunkFinished`]. With one job the pieces run
//! inline and no thread is spawned. Per-trial seeding is the workspace
//! convention `base_seed + trial_index` wherever a piece runs, so the
//! assembled result vector is bit-identical whether the unit was computed
//! in one pass, resumed after a kill, or served entirely from cache.

use crate::fingerprint::{Fingerprint, WorkSpec};
use crate::store::ResultStore;
use crate::telemetry::{Event, Reporter, Stats, StatsSnapshot};
use jle_engine::SlotCost;
use jle_telemetry::{MetricRegistry, SpanGuard, SpanRecorder};
use serde::{Deserialize, Serialize};
use serde_json::value::RawValue;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// Default trials per checkpointed chunk. Small enough that a killed
/// sweep loses seconds of work, large enough that store traffic is noise
/// next to simulation time.
pub const DEFAULT_CHUNK_SIZE: u64 = 32;

/// Cache-key salt naming the current simulation-code generation. Bump on
/// any behavioural change to the engine or protocols so stale results are
/// recomputed instead of served.
pub const DEFAULT_CODE_SALT: &str = "jle-sim-v1";

/// The salt [`Orchestrator::engine_mode`] derives from `salt` for an
/// engine `mode`: unchanged for the default `"exact"` backend, tagged
/// `+engine=<mode>` otherwise. Exposed so a service that names cache
/// keys without building an orchestrator names the same store entries.
pub fn engine_salt(salt: &str, mode: &str) -> String {
    if mode == "exact" {
        salt.to_string()
    } else {
        format!("{salt}+engine={mode}")
    }
}

/// How the scheduler uses the result store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CachePolicy {
    /// No store at all: compute everything, persist nothing.
    Off,
    /// Serve a unit from cache only when **every** chunk is present;
    /// otherwise recompute the whole unit (persisting as it goes). The
    /// default: partial state never influences a fresh run's shape.
    #[default]
    Complete,
    /// Additionally reuse partial per-chunk checkpoints, computing only
    /// the missing chunks — `--resume` after an interrupted sweep.
    Resume,
    /// Ignore existing entries and overwrite them — `--force`.
    Force,
}

/// Cooperative cancellation handle, checked at chunk boundaries.
///
/// Clones share one flag: hand one clone to
/// [`Orchestrator::cancel_token`] and keep another wherever the cancel
/// decision is made (a service's `cancel` frame, a signal handler, a
/// watchdog). Once fired it stays fired — the unit aborts at the next
/// chunk boundary with [`Interrupted::Cancelled`], leaving every
/// completed chunk checkpointed so a later run resumes or recomputes
/// cleanly.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<std::sync::atomic::AtomicBool>);

impl CancelToken {
    /// A fresh, unfired token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Fire the token. Idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Has the token fired?
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// A cap on the threads computing a unit that can only come down.
///
/// Clones share one value: hand one clone to [`Orchestrator::thread_cap`]
/// and keep another wherever the width is decided (a service that lends
/// a lone job its idle workers' threads takes them back when another job
/// queues). Once it is lowered, each fan-out thread past the cap leaves
/// after the piece it is computing. Pieces, seeding and results stay
/// those of the width the unit started with. It never drops below one.
/// The count publishes no other data, so it is read and lowered
/// `Relaxed`: a thread that reads it late only leaves a piece later.
#[derive(Debug, Clone)]
pub struct ThreadCap(Arc<AtomicUsize>);

impl ThreadCap {
    /// A cap of `threads` (at least one).
    pub fn new(threads: usize) -> Self {
        ThreadCap(Arc::new(AtomicUsize::new(threads.max(1))))
    }

    /// Lower the cap to `threads` (at least one); a higher value is
    /// ignored.
    pub fn narrow(&self, threads: usize) {
        self.0.fetch_min(threads.max(1), Ordering::Relaxed);
    }

    /// The current cap.
    pub fn get(&self) -> usize {
        self.0.load(Ordering::Relaxed)
    }
}

/// Why a unit stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Interrupted {
    /// The test-only chunk budget ran out mid-unit. Completed chunks are
    /// already checkpointed; a `Resume` run picks up from here.
    ChunkBudgetExhausted {
        /// Trials already available (cached or checkpointed) when the
        /// budget ran out.
        completed_trials: u64,
    },
    /// The unit's [`CancelToken`] fired. Completed chunks are already
    /// checkpointed; the remainder was never started.
    Cancelled {
        /// Trials already available (cached or checkpointed) at the
        /// cancellation boundary.
        completed_trials: u64,
    },
}

impl Interrupted {
    /// Trials already available (cached or checkpointed) when the unit
    /// stopped.
    pub fn completed_trials(&self) -> u64 {
        match *self {
            Interrupted::ChunkBudgetExhausted { completed_trials }
            | Interrupted::Cancelled { completed_trials } => completed_trials,
        }
    }
}

impl std::fmt::Display for Interrupted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Interrupted::ChunkBudgetExhausted { completed_trials } => {
                write!(f, "chunk budget exhausted after {completed_trials} completed trials")
            }
            Interrupted::Cancelled { completed_trials } => {
                write!(f, "cancelled after {completed_trials} completed trials")
            }
        }
    }
}

impl std::error::Error for Interrupted {}

/// The scheduler: owns the store handle, the cache policy, the telemetry
/// fan-out, and the run counters.
pub struct Orchestrator {
    store: Option<ResultStore>,
    policy: CachePolicy,
    chunk_size: u64,
    jobs: Option<usize>,
    salt: String,
    reporters: Vec<Box<dyn Reporter>>,
    stats: Arc<Stats>,
    tracer: SpanRecorder,
    /// Test hook: when set, each executed (not cached) chunk decrements
    /// the budget; at zero the unit aborts with [`Interrupted`], modelling
    /// a mid-sweep kill at a checkpoint boundary.
    chunk_budget: Option<AtomicU64>,
    /// Cooperative cancellation, checked before each chunk commit.
    cancel: Option<CancelToken>,
    /// Lowered while the unit runs to send fan-out threads home.
    thread_cap: Option<ThreadCap>,
    started: Instant,
}

impl Orchestrator {
    /// An orchestrator with no on-disk store: everything is computed,
    /// nothing persists. Telemetry still works.
    pub fn ephemeral() -> Self {
        Orchestrator {
            store: None,
            policy: CachePolicy::Off,
            chunk_size: DEFAULT_CHUNK_SIZE,
            jobs: None,
            salt: DEFAULT_CODE_SALT.to_string(),
            reporters: Vec::new(),
            stats: Arc::new(Stats::default()),
            tracer: SpanRecorder::disabled(),
            chunk_budget: None,
            cancel: None,
            thread_cap: None,
            started: Instant::now(),
        }
    }

    /// An orchestrator backed by a store at `dir` (created if absent),
    /// with the default [`CachePolicy::Complete`].
    pub fn with_cache_dir(dir: impl Into<std::path::PathBuf>) -> std::io::Result<Self> {
        let mut o = Self::ephemeral();
        o.store = Some(ResultStore::open(dir)?);
        o.policy = CachePolicy::Complete;
        Ok(o)
    }

    /// An orchestrator sharing an already-open [`ResultStore`] handle,
    /// with the default [`CachePolicy::Complete`]. Cheap — no filesystem
    /// work — so a service can build one per submitted job over a single
    /// store.
    pub fn with_store(store: ResultStore) -> Self {
        let mut o = Self::ephemeral();
        o.store = Some(store);
        o.policy = CachePolicy::Complete;
        o
    }

    /// Set the cache policy. Setting anything but `Off` without a store
    /// behaves as `Off`.
    pub fn policy(mut self, policy: CachePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Set the checkpoint chunk size (clamped to ≥ 1).
    pub fn chunk_size(mut self, trials: u64) -> Self {
        self.chunk_size = trials.max(1);
        self
    }

    /// Pin the worker count for executed chunks (`0` = the default
    /// parallelism, `1` = inline on the calling thread).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = if jobs == 0 { None } else { Some(jobs) };
        self
    }

    /// Override the code-version salt baked into every cache key.
    pub fn salt(mut self, salt: impl Into<String>) -> Self {
        self.salt = salt.into();
        self
    }

    /// Tag every cache key with the engine backend the trials run on.
    ///
    /// The default backend (`"exact"`) leaves the salt untouched, so
    /// existing stores stay valid; any other mode appends
    /// `+engine=<mode>`. The two exact backends draw from unrelated
    /// random streams — same spec, different bits — so their results
    /// must never alias in the store.
    pub fn engine_mode(mut self, mode: impl AsRef<str>) -> Self {
        self.salt = engine_salt(&self.salt, mode.as_ref());
        self
    }

    /// Attach a telemetry reporter.
    pub fn reporter(mut self, r: impl Reporter + 'static) -> Self {
        self.reporters.push(Box::new(r));
        self
    }

    /// Register the run counters on a shared [`MetricRegistry`] instead
    /// of a private one, so `jle_orchestrator_*` metrics export alongside
    /// other families (e.g. the engine's `jle_engine_*`). Counts already
    /// accumulated on the private registry are discarded — call this
    /// before submitting work.
    pub fn metrics_registry(mut self, registry: &MetricRegistry) -> Self {
        self.stats = Arc::new(Stats::on_registry(registry));
        self
    }

    /// Record unit/chunk spans on `tracer` (see
    /// [`SpanRecorder::to_chrome_trace`]). Disabled by default.
    pub fn tracer(mut self, tracer: SpanRecorder) -> Self {
        self.tracer = tracer;
        self
    }

    /// Test hook: abort after `chunks` executed chunks (see
    /// [`Interrupted::ChunkBudgetExhausted`]).
    pub fn chunk_budget(mut self, chunks: u64) -> Self {
        self.chunk_budget = Some(AtomicU64::new(chunks));
        self
    }

    /// Attach a cooperative [`CancelToken`]: once it fires, the running
    /// unit aborts at the next chunk boundary with
    /// [`Interrupted::Cancelled`]. Fully cached units complete without
    /// consulting the token (there is no computation to cancel).
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Start executed chunks on `cap`'s current count of threads, as
    /// [`jobs`](Self::jobs) does, and let the holder of another clone
    /// lower it mid-unit: threads past the lowered cap leave after their
    /// current piece.
    pub fn thread_cap(mut self, cap: ThreadCap) -> Self {
        self.jobs = Some(cap.get());
        self.thread_cap = Some(cap);
        self
    }

    /// Effective worker parallelism for executed chunks: the pinned
    /// count, else [`jle_engine::worker_threads`], and at least 1.
    pub fn effective_jobs(&self) -> usize {
        self.jobs.unwrap_or_else(jle_engine::worker_threads).max(1)
    }

    /// The shared run counters.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// A copy of the run counters.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Seconds since the orchestrator was constructed.
    pub fn wall_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Fan one event out to every reporter.
    pub fn emit(&self, event: &Event<'_>) {
        for r in &self.reporters {
            r.report(event);
        }
    }

    /// Announce the run (worker count) to reporters.
    pub fn announce(&self) {
        self.emit(&Event::RunStarted { jobs: self.effective_jobs() });
    }

    /// Emit the closing [`Event::RunSummary`] and cross-check the two
    /// slot tallies ([`Stats::check_slot_accounting`]): after the final
    /// chunk flush, live-counted slots must not exceed chunk-counted
    /// ones. A violation panics in debug builds and warns on stderr in
    /// release builds.
    pub fn summarize(&self) {
        self.emit(&Event::RunSummary { stats: self.stats.snapshot(), wall_secs: self.wall_secs() });
        if let Err(msg) = self.stats.check_slot_accounting() {
            debug_assert!(false, "{msg}");
            eprintln!("orchestrator: WARNING: {msg}");
        }
    }

    fn chunk_ranges(&self, trials: u64) -> Vec<(u64, u64)> {
        (0..trials)
            .step_by(self.chunk_size as usize)
            .map(|start| (start, (start + self.chunk_size).min(trials)))
            .collect()
    }

    /// Run (or recall) `trials` trials of `spec`, returning results in
    /// trial order. `f` maps a per-trial seed (`spec.base_seed + index`)
    /// to a result; it must be deterministic in the seed and fully
    /// described by `spec` — anything else aliases in the cache.
    ///
    /// Errors only via the chunk-budget test hook or an attached
    /// [`CancelToken`]; production paths without either always complete
    /// (store corruption degrades to recomputation). A panicking trial
    /// re-raises its own panic payload on the calling thread.
    pub fn try_run_trials<R, F>(
        &self,
        spec: &WorkSpec,
        trials: u64,
        f: F,
    ) -> Result<Vec<R>, Interrupted>
    where
        R: Send + Serialize + Deserialize + SlotCost,
        F: Fn(u64) -> R + Sync,
    {
        self.try_run_trials_costed(spec, trials, |seed| {
            let result = f(seed);
            let slots = result.simulated_slots();
            (result, slots)
        })
    }

    /// [`Self::try_run_trials`] for trials that report the slots they
    /// simulated beside their result: `f(seed)` returns `(result, slots)`,
    /// and the chunk that commits the result counts `slots` (in
    /// [`Stats::simulated_slots`] and the chunk and unit events) instead
    /// of the result's [`SlotCost`] — for results that project away the
    /// run that produced them.
    pub fn try_run_trials_costed<R, F>(
        &self,
        spec: &WorkSpec,
        trials: u64,
        f: F,
    ) -> Result<Vec<R>, Interrupted>
    where
        R: Send + Serialize + Deserialize,
        F: Fn(u64) -> (R, u64) + Sync,
    {
        self.try_run_trials_inner(
            spec,
            trials,
            |_, _| 1,
            |start, _| std::iter::once(f(spec.base_seed + start)),
        )
    }

    /// Batch-aware twin of [`Self::try_run_trials`]: each missing chunk
    /// is executed as contiguous seed *batches* handed to `f` (one result
    /// per seed, in seed order) instead of one closure call per trial —
    /// the scheduling shape the `jle_engine::batch` backend wants, where one
    /// slot-loop pass serves a whole batch.
    ///
    /// Everything cache-shaped is unchanged: chunk ranges, fingerprints,
    /// checkpoint layout, and per-trial seeding are exactly those of the
    /// per-trial path, so a unit computed batched resumes (or is served)
    /// interchangeably with one computed per-trial **when the batch
    /// closure is bit-identical per trial** — which is the batch
    /// backend's contract with the fast-exact engine. Callers exploiting
    /// that contract should alias the salt via
    /// [`engine_mode("fast-exact")`](Self::engine_mode) so batch and
    /// fast-exact sweeps share warm caches.
    ///
    /// A missing chunk is one whole batch when the unit has at least
    /// [`effective_jobs`](Self::effective_jobs) chunks to run, so every
    /// worker has a chunk to itself. With fewer, each chunk is cut into
    /// batches of `chunk_len / effective_jobs` seeds (rounded up), so no
    /// worker sits idle. Either way the batches of all missing chunks
    /// share the unit's one set of workers. Raise
    /// [`chunk_size`](Self::chunk_size) to deepen the batches.
    ///
    /// # Panics
    /// Panics if `f` returns a result count different from its seed
    /// count.
    pub fn try_run_trials_batched<R, F>(
        &self,
        spec: &WorkSpec,
        trials: u64,
        f: F,
    ) -> Result<Vec<R>, Interrupted>
    where
        R: Send + Serialize + Deserialize + SlotCost,
        F: Fn(&[u64]) -> Vec<R> + Sync,
    {
        let jobs = self.effective_jobs();
        self.try_run_trials_inner(
            spec,
            trials,
            |len, chunks| if chunks < jobs { len.div_ceil(jobs as u64) } else { len },
            |start, len| {
                let seeds: Vec<u64> =
                    (spec.base_seed + start..spec.base_seed + start + len).collect();
                let out = f(&seeds);
                assert_eq!(out.len(), seeds.len(), "batch closure must return one result per seed");
                out.into_iter().map(|result| {
                    let slots = result.simulated_slots();
                    (result, slots)
                })
            },
        )
    }

    /// [`Self::try_run_trials_batched`], panicking on interruption.
    pub fn run_trials_batched<R, F>(&self, spec: &WorkSpec, trials: u64, f: F) -> Vec<R>
    where
        R: Send + Serialize + Deserialize + SlotCost,
        F: Fn(&[u64]) -> Vec<R> + Sync,
    {
        self.try_run_trials_batched(spec, trials, f).expect("interrupted without a chunk budget")
    }

    /// Serve `trials` trials of `spec` from the store alone, or nothing.
    ///
    /// `key` is the unit's fingerprint under this orchestrator's salt and
    /// result type `R` (what [`Self::fingerprint_hex`] names), computed
    /// once by the caller. The chunks are probed in range order by the
    /// loop a run's first phase uses, and every load check holds: a
    /// shard that is corrupt, mis-keyed, mis-ranged, short or undecodable
    /// is deleted and counts as missing. The probe stops at the first
    /// missing chunk; a miss counts nothing, records no span and returns
    /// `None`, as does an orchestrator without a store or under
    /// [`CachePolicy::Off`] or [`CachePolicy::Force`]. A full hit counts,
    /// reports and spans exactly what a warm [`Self::try_run_trials`] of
    /// the unit does and returns the results in trial order.
    pub fn recall<R>(&self, spec: &WorkSpec, key: &Fingerprint, trials: u64) -> Option<Vec<R>>
    where
        R: Deserialize,
    {
        self.readable_store()?;
        let unit_started = Instant::now();
        let unit_span = self.unit_span(spec);
        let ranges = self.chunk_ranges(trials);
        let cached: Vec<Option<Vec<R>>> = self.probe(key, &ranges, true);
        if cached.iter().any(Option::is_none) {
            unit_span.discard();
            return None;
        }
        self.start_unit(spec, key, &ranges, &cached);
        self.emit(&Event::UnitFinished {
            experiment: &spec.experiment,
            point: &spec.point,
            key: key.hex(),
            executed_trials: 0,
            cached_trials: trials,
            slots: 0,
            wall_secs: unit_started.elapsed().as_secs_f64(),
        });
        Some(cached.into_iter().flatten().flatten().collect())
    }

    fn unit_span(&self, spec: &WorkSpec) -> SpanGuard {
        self.tracer.span("orchestrator", format!("unit:{}/{}", spec.experiment, spec.point))
    }

    /// The store chunks are read from: none when the policy is `Off` or
    /// `Force`.
    fn readable_store(&self) -> Option<&ResultStore> {
        match self.policy {
            CachePolicy::Off | CachePolicy::Force => None,
            _ => self.store.as_ref(),
        }
    }

    /// A unit's first phase: load its chunks in range order, stopping
    /// after the first miss when `stop_at_miss`. Chunks not loaded are
    /// `None`.
    fn probe<R: Deserialize>(
        &self,
        key: &Fingerprint,
        ranges: &[(u64, u64)],
        stop_at_miss: bool,
    ) -> Vec<Option<Vec<R>>> {
        let mut cached = Vec::with_capacity(ranges.len());
        if let Some(store) = self.readable_store() {
            for &(start, end) in ranges {
                let chunk = store.load_chunk(key, start, end);
                let missed = chunk.is_none();
                cached.push(chunk);
                if missed && stop_at_miss {
                    break;
                }
            }
        }
        cached.resize_with(ranges.len(), || None);
        cached
    }

    /// Count a probed unit (units, planned trials, chunk hits and
    /// misses, cached trials) and announce it; returns its cached trials.
    fn start_unit<R>(
        &self,
        spec: &WorkSpec,
        key: &Fingerprint,
        ranges: &[(u64, u64)],
        cached: &[Option<Vec<R>>],
    ) -> u64 {
        let trials = ranges.last().map_or(0, |&(_, end)| end);
        let mut cached_trials = 0;
        for (&(start, end), c) in ranges.iter().zip(cached) {
            if c.is_some() {
                cached_trials += end - start;
                self.stats.chunk_hits.add(1);
            } else {
                self.stats.chunk_misses.add(1);
            }
        }
        self.stats.units.add(1);
        self.stats.planned_trials.add(trials);
        self.stats.cached_trials.add(cached_trials);
        self.emit(&Event::UnitStarted {
            experiment: &spec.experiment,
            point: &spec.point,
            key: key.hex(),
            trials,
            cached_trials,
        });
        cached_trials
    }

    /// The shared unit body: cache probing, chunk accounting, telemetry,
    /// and checkpointing. Each missing chunk of length `len` is cut into
    /// pieces of `piece_width(len, chunks)` trials, `chunks` being how
    /// many chunks run in this call; `exec(start, len)` computes
    /// one piece's results in trial order, each with the slots it
    /// simulated, `start` being the index of its first trial in the unit.
    fn try_run_trials_inner<R, P>(
        &self,
        spec: &WorkSpec,
        trials: u64,
        piece_width: impl Fn(u64, usize) -> u64,
        exec: impl Fn(u64, u64) -> P + Sync,
    ) -> Result<Vec<R>, Interrupted>
    where
        R: Send + Serialize + Deserialize,
        P: IntoIterator<Item = (R, u64)> + Send,
    {
        let unit_started = Instant::now();
        let _unit_span = self.unit_span(spec);
        let key = Fingerprint::of(spec, &self.salt, std::any::type_name::<R>());
        let store = match self.policy {
            CachePolicy::Off => None,
            _ => self.store.as_ref(),
        };
        let ranges = self.chunk_ranges(trials);

        // Phase 1: what does the store already hold? Complete recomputes
        // a unit with any chunk missing, so the chunks after a miss need
        // no probe, and partial coverage is discarded wholesale so a
        // fresh run's shape never depends on leftover checkpoints.
        let complete = self.policy == CachePolicy::Complete;
        let mut cached: Vec<Option<Vec<R>>> = self.probe(&key, &ranges, complete);
        if complete && cached.iter().any(Option::is_none) {
            cached.fill_with(|| None);
        }
        let cached_trials = self.start_unit(spec, &key, &ranges, &cached);

        // Phase 2: cut the missing chunks the budget lets run into pieces,
        // in range order; chunk `j` of `missing` owns `pieces[owned[j]]`.
        let missing: Vec<usize> = (0..ranges.len()).filter(|&i| cached[i].is_none()).collect();
        let runnable = match &self.chunk_budget {
            Some(budget) => missing.len().min(budget.load(Ordering::Relaxed) as usize),
            None => missing.len(),
        };
        let mut pieces: Vec<(u64, u64)> = Vec::new();
        let owned: Vec<Range<usize>> = missing[..runnable]
            .iter()
            .map(|&i| {
                let (start, end) = ranges[i];
                let width = piece_width(end - start, runnable).max(1);
                let first = pieces.len();
                pieces
                    .extend((start..end).step_by(width as usize).map(|s| (s, width.min(end - s))));
                first..pieces.len()
            })
            .collect();

        // Phase 3: commit each chunk in range order as soon as its pieces
        // are in, stopping at a chunk boundary on cancellation or an
        // exhausted budget.
        let mut executed_trials = 0u64;
        let mut executed_slots = 0u64;
        let exec_started = Instant::now();
        let remaining_exec: u64 = trials - cached_trials;
        let mut commit_all = |next_chunk: &mut dyn FnMut(Range<usize>) -> Vec<(R, u64)>| {
            // The unit's spec goes next to its chunks before the first of
            // them, written while the workers already compute.
            if let Some(store) = store.filter(|_| cached_trials < trials) {
                let canonical = RawValue::from_string(spec.canonical_json())
                    .expect("canonical JSON is one JSON value");
                let pretty = serde_json::to_string_pretty(&canonical).expect("spec serialization");
                let _ = store.write_spec_info(&key, &pretty);
            }
            for (j, &i) in missing.iter().enumerate() {
                let completed_trials = cached_trials + executed_trials;
                if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                    return Err(Interrupted::Cancelled { completed_trials });
                }
                if j == runnable {
                    return Err(Interrupted::ChunkBudgetExhausted { completed_trials });
                }
                if let Some(budget) = &self.chunk_budget {
                    budget.fetch_sub(1, Ordering::Relaxed);
                }
                let (start, end) = ranges[i];
                let len = end - start;
                let chunk_span = self.tracer.span("orchestrator", format!("chunk:{start}..{end}"));
                let mut slots = 0u64;
                let results: Vec<R> = next_chunk(owned[j].clone())
                    .into_iter()
                    .map(|(result, cost)| {
                        slots += cost;
                        result
                    })
                    .collect();
                debug_assert_eq!(results.len() as u64, len, "pieces must fill their chunk");
                drop(chunk_span);
                if let Some(store) = store {
                    // Persist best-effort: an unwritable cache degrades to
                    // recomputation next run, never to failure now.
                    let _ = store.write_chunk(&key, start, end, &results);
                }
                executed_trials += len;
                executed_slots += slots;
                self.stats.executed_trials.add(len);
                self.stats.simulated_slots.add(slots);

                let elapsed = exec_started.elapsed().as_secs_f64().max(1e-9);
                let trials_per_sec = executed_trials as f64 / elapsed;
                let eta_secs = (remaining_exec - executed_trials) as f64 / trials_per_sec;
                self.emit(&Event::ChunkFinished {
                    experiment: &spec.experiment,
                    point: &spec.point,
                    start,
                    end,
                    slots,
                    trials_per_sec,
                    slots_per_sec: executed_slots as f64 / elapsed,
                    eta_secs,
                });
                cached[i] = Some(results);
            }
            Ok(())
        };
        // A token that fired before the unit started stops it at the first
        // boundary: no workers are spawned for it.
        let cancelled = self.cancel.as_ref().is_some_and(CancelToken::is_cancelled);
        let workers = if cancelled { 1 } else { self.effective_jobs().min(pieces.len()) };
        if workers <= 1 {
            commit_all(&mut |range| pieces[range].iter().flat_map(|&(s, l)| exec(s, l)).collect())
        } else {
            let cap = self.thread_cap.as_ref();
            fan_out(workers, cap, &pieces, &exec, |inbox| {
                commit_all(&mut |range| inbox.take(range))
            })
        }?;

        self.emit(&Event::UnitFinished {
            experiment: &spec.experiment,
            point: &spec.point,
            key: key.hex(),
            executed_trials,
            cached_trials,
            slots: executed_slots,
            wall_secs: unit_started.elapsed().as_secs_f64(),
        });

        let mut out = Vec::with_capacity(trials as usize);
        for chunk in cached {
            out.extend(chunk.expect("every chunk resolved"));
        }
        Ok(out)
    }

    /// [`Self::try_run_trials`], panicking on interruption (chunk budget
    /// or cancellation).
    pub fn run_trials<R, F>(&self, spec: &WorkSpec, trials: u64, f: F) -> Vec<R>
    where
        R: Send + Serialize + Deserialize + SlotCost,
        F: Fn(u64) -> R + Sync,
    {
        self.try_run_trials(spec, trials, f).expect("interrupted without a chunk budget")
    }

    /// [`Self::try_run_trials_costed`], panicking on interruption.
    pub fn run_trials_costed<R, F>(&self, spec: &WorkSpec, trials: u64, f: F) -> Vec<R>
    where
        R: Send + Serialize + Deserialize,
        F: Fn(u64) -> (R, u64) + Sync,
    {
        self.try_run_trials_costed(spec, trials, f).expect("interrupted without a chunk budget")
    }

    /// The canonical JSON this orchestrator would hash for `spec` — for
    /// diagnostics and tests.
    pub fn canonical_spec_json(&self, spec: &WorkSpec) -> String {
        spec.canonical_json()
    }

    /// The content-addressed cache key this orchestrator derives for
    /// `spec` with result type `R` — the config fingerprint stamped into
    /// flight-recorder postmortems, so an artifact names the exact unit
    /// to replay.
    pub fn fingerprint_hex<R>(&self, spec: &WorkSpec) -> String {
        Fingerprint::of(spec, &self.salt, std::any::type_name::<R>()).hex().to_string()
    }
}

/// Pieces computed on worker threads, handed to the committing thread in
/// piece order whatever order they finish in.
struct Inbox<P> {
    rx: mpsc::Receiver<(usize, std::thread::Result<P>)>,
    slots: Vec<Option<std::thread::Result<P>>>,
}

impl<P: IntoIterator> Inbox<P> {
    /// The results of pieces `range`, concatenated, waiting for any not
    /// yet in. A piece that panicked re-raises its own payload here.
    fn take(&mut self, range: Range<usize>) -> Vec<P::Item> {
        let mut out = Vec::new();
        for p in range {
            while self.slots[p].is_none() {
                let (q, result) = self.rx.recv().expect("every taken piece is sent");
                self.slots[q] = Some(result);
            }
            match self.slots[p].take().expect("piece just arrived") {
                Ok(results) => out.extend(results),
                Err(payload) => resume_unwind(payload),
            }
        }
        out
    }
}

/// Compute `pieces` on `workers` scoped threads while the calling thread
/// runs `consume` over their results. Workers take pieces from one shared
/// index, so pieces start in order and every piece before a panicking one
/// still arrives. When `consume` returns or unwinds, its [`Inbox`] is
/// dropped and each worker exits after its current piece. Worker `i`
/// takes no further piece once `cap` is at most `i`; worker 0 never
/// stops early, so every piece is still taken.
fn fan_out<P: Send, T>(
    workers: usize,
    cap: Option<&ThreadCap>,
    pieces: &[(u64, u64)],
    exec: &(impl Fn(u64, u64) -> P + Sync),
    consume: impl FnOnce(&mut Inbox<P>) -> T,
) -> T {
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        for i in 0..workers {
            let (tx, next) = (tx.clone(), &next);
            scope.spawn(move || loop {
                if cap.is_some_and(|cap| cap.get() <= i) {
                    break;
                }
                let p = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(start, len)) = pieces.get(p) else { break };
                let result = catch_unwind(AssertUnwindSafe(|| exec(start, len)));
                if tx.send((p, result)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        consume(&mut Inbox { rx, slots: pieces.iter().map(|_| None).collect() })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("jle-orch-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec() -> WorkSpec {
        WorkSpec::new("eT", "unit", json!({"n": 8u64}), 5000)
    }

    fn trial(seed: u64) -> u64 {
        seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407)
    }

    /// The reference: `trial` over the unit's seeds, serially.
    fn direct(trials: u64) -> Vec<u64> {
        (5000..5000 + trials).map(trial).collect()
    }

    #[test]
    fn ephemeral_matches_direct_monte_carlo() {
        let orch = Orchestrator::ephemeral().chunk_size(7);
        let got: Vec<u64> = orch.run_trials(&spec(), 100, trial);
        let direct = direct(100);
        assert_eq!(got, direct);
    }

    #[test]
    fn explicit_jobs_change_width_not_results() {
        let narrow = Orchestrator::ephemeral().jobs(1);
        assert_eq!(narrow.effective_jobs(), 1);
        assert_eq!(Orchestrator::ephemeral().jobs(3).effective_jobs(), 3);
        let default = Orchestrator::ephemeral().jobs(0).effective_jobs();
        assert_eq!(default, jle_engine::worker_threads().max(1));
        let wide: Vec<u64> = Orchestrator::ephemeral().jobs(3).run_trials(&spec(), 128, trial);
        assert_eq!(wide, narrow.run_trials(&spec(), 128, trial));
    }

    #[test]
    fn warm_cache_executes_zero_trials() {
        let dir = tmp_dir("warm");
        let cold = Orchestrator::with_cache_dir(&dir).unwrap().chunk_size(8);
        let a: Vec<u64> = cold.run_trials(&spec(), 50, trial);
        assert_eq!(cold.stats_snapshot().executed_trials, 50);

        let warm = Orchestrator::with_cache_dir(&dir).unwrap().chunk_size(8);
        let b: Vec<u64> = warm.run_trials(&spec(), 50, trial);
        let snap = warm.stats_snapshot();
        assert_eq!(snap.executed_trials, 0, "warm run must execute nothing");
        assert_eq!(snap.cached_trials, 50);
        assert_eq!(a, b);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recall_serves_and_counts_exactly_what_a_warm_run_does() {
        let dir = tmp_dir("recall");
        let cold = Orchestrator::with_cache_dir(&dir).unwrap().chunk_size(8);
        let a: Vec<u64> = cold.run_trials(&spec(), 50, trial);
        let key = Fingerprint::of(&spec(), DEFAULT_CODE_SALT, std::any::type_name::<u64>());

        let warm = Orchestrator::with_cache_dir(&dir).unwrap().chunk_size(8);
        let b: Vec<u64> = warm.run_trials(&spec(), 50, trial);
        let tracer = SpanRecorder::new();
        let served =
            Orchestrator::with_cache_dir(&dir).unwrap().chunk_size(8).tracer(tracer.clone());
        let c: Vec<u64> = served.recall(&spec(), &key, 50).expect("every chunk is stored");
        assert_eq!((&a, &a), (&b, &c));
        assert_eq!(served.stats_snapshot(), warm.stats_snapshot());
        assert_eq!(served.stats_snapshot().chunk_hits, 7);
        assert!(tracer.to_chrome_trace().contains("unit:eT/unit"));

        // Force never reads the store, and no store means nothing to serve.
        let forced =
            Orchestrator::with_cache_dir(&dir).unwrap().chunk_size(8).policy(CachePolicy::Force);
        assert_eq!(forced.recall::<u64>(&spec(), &key, 50), None);
        assert_eq!(Orchestrator::ephemeral().recall::<u64>(&spec(), &key, 0), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_recall_miss_counts_nothing_and_leaves_no_span() {
        let dir = tmp_dir("recall-miss");
        let key = Fingerprint::of(&spec(), DEFAULT_CODE_SALT, std::any::type_name::<u64>());
        // Leftovers of an interrupted run: 3 of 7 chunks.
        let cold = Orchestrator::with_cache_dir(&dir).unwrap().chunk_size(8).chunk_budget(3);
        cold.try_run_trials::<u64, _>(&spec(), 50, trial).unwrap_err();
        // A corrupt shard before them.
        let store = ResultStore::open(&dir).unwrap();
        let first = store.chunk_path(&key, 0, 8);
        std::fs::write(&first, b"{\"key\":").unwrap();

        let tracer = SpanRecorder::new();
        let orch = Orchestrator::with_cache_dir(&dir).unwrap().chunk_size(8).tracer(tracer.clone());
        assert_eq!(orch.recall::<u64>(&spec(), &key, 50), None);
        assert!(!first.exists(), "the corrupt shard is deleted, as on every load");
        assert!(store.chunk_path(&key, 8, 16).exists(), "the probe stops at the first miss");
        assert_eq!(orch.recall::<u64>(&spec(), &key, 50), None, "partial coverage is a miss");
        assert_eq!(orch.stats_snapshot(), StatsSnapshot::default());
        assert!(tracer.is_empty() && tracer.open_spans() == 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn complete_policy_ignores_partial_coverage() {
        let dir = tmp_dir("complete");
        // Interrupt a cold run after 2 chunks.
        let cold = Orchestrator::with_cache_dir(&dir).unwrap().chunk_size(8).chunk_budget(2);
        let err = cold.try_run_trials::<u64, _>(&spec(), 50, trial).unwrap_err();
        assert_eq!(err, Interrupted::ChunkBudgetExhausted { completed_trials: 16 });

        // Default (Complete) policy: partial chunks are not consulted.
        let fresh = Orchestrator::with_cache_dir(&dir).unwrap().chunk_size(8);
        let a: Vec<u64> = fresh.run_trials(&spec(), 50, trial);
        assert_eq!(fresh.stats_snapshot().executed_trials, 50);
        assert_eq!(a, direct(50));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_reuses_partial_chunks_bit_identically() {
        let dir = tmp_dir("resume");
        let cold = Orchestrator::with_cache_dir(&dir).unwrap().chunk_size(8).chunk_budget(3);
        let err = cold.try_run_trials::<u64, _>(&spec(), 50, trial).unwrap_err();
        assert_eq!(err, Interrupted::ChunkBudgetExhausted { completed_trials: 24 });

        let resumed =
            Orchestrator::with_cache_dir(&dir).unwrap().chunk_size(8).policy(CachePolicy::Resume);
        let a: Vec<u64> = resumed.run_trials(&spec(), 50, trial);
        let snap = resumed.stats_snapshot();
        assert_eq!(snap.cached_trials, 24);
        assert_eq!(snap.executed_trials, 26);
        assert_eq!(a, direct(50), "resume must be bit-identical");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn force_recomputes_and_overwrites() {
        let dir = tmp_dir("force");
        let cold = Orchestrator::with_cache_dir(&dir).unwrap().chunk_size(8);
        let _: Vec<u64> = cold.run_trials(&spec(), 20, trial);

        let forced =
            Orchestrator::with_cache_dir(&dir).unwrap().chunk_size(8).policy(CachePolicy::Force);
        let a: Vec<u64> = forced.run_trials(&spec(), 20, trial);
        assert_eq!(forced.stats_snapshot().executed_trials, 20);
        assert_eq!(a, direct(20));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn different_specs_do_not_alias() {
        let dir = tmp_dir("alias");
        let orch = Orchestrator::with_cache_dir(&dir).unwrap().chunk_size(8);
        let a: Vec<u64> = orch.run_trials(&spec(), 20, trial);
        let mut other = spec();
        other.params = json!({"n": 9u64});
        let b: Vec<u64> = orch.run_trials(&other, 20, |s| trial(s) ^ 1);
        assert_ne!(a, b);
        // Both now cached independently.
        let warm = Orchestrator::with_cache_dir(&dir).unwrap().chunk_size(8);
        let a2: Vec<u64> = warm.run_trials(&spec(), 20, trial);
        let b2: Vec<u64> = warm.run_trials(&other, 20, |s| trial(s) ^ 1);
        assert_eq!(warm.stats_snapshot().executed_trials, 0);
        assert_eq!((a, b), (a2, b2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spans_and_shared_registry_cover_executed_work() {
        let registry = MetricRegistry::new();
        let tracer = SpanRecorder::new();
        let orch = Orchestrator::ephemeral()
            .chunk_size(8)
            .metrics_registry(&registry)
            .tracer(tracer.clone());
        let got: Vec<u64> = orch.run_trials(&spec(), 20, trial);
        orch.summarize();
        assert_eq!(got, direct(20), "telemetry must not perturb results");
        assert_eq!(tracer.len(), 4, "one unit span + three chunk spans (8+8+4)");
        let trace = tracer.to_chrome_trace();
        assert!(trace.contains("unit:eT/unit"), "trace names the unit: {trace}");
        assert!(trace.contains("chunk:16..20"), "trace names the trailing chunk: {trace}");
        let text = registry.render_prometheus();
        assert!(text.contains("jle_orchestrator_executed_trials 20"), "{text}");
        assert!(text.contains("jle_orchestrator_units 1"), "{text}");
    }

    #[test]
    fn engine_mode_partitions_the_store() {
        let dir = tmp_dir("engine-mode");
        // Default mode: salt unchanged, so keys match a plain orchestrator.
        let plain = Orchestrator::with_cache_dir(&dir).unwrap().chunk_size(8);
        let tagged_default =
            Orchestrator::with_cache_dir(&dir).unwrap().chunk_size(8).engine_mode("exact");
        assert_eq!(
            plain.fingerprint_hex::<u64>(&spec()),
            tagged_default.fingerprint_hex::<u64>(&spec()),
            "the default engine must not invalidate existing caches"
        );
        // Fast-exact mode: different keys, no aliasing with exact results.
        let fast =
            Orchestrator::with_cache_dir(&dir).unwrap().chunk_size(8).engine_mode("fast-exact");
        assert_ne!(plain.fingerprint_hex::<u64>(&spec()), fast.fingerprint_hex::<u64>(&spec()));
        let a: Vec<u64> = plain.run_trials(&spec(), 20, trial);
        let b: Vec<u64> = fast.run_trials(&spec(), 20, |s| trial(s) ^ 1);
        assert_ne!(a, b);
        let warm_fast =
            Orchestrator::with_cache_dir(&dir).unwrap().chunk_size(8).engine_mode("fast-exact");
        let b2: Vec<u64> = warm_fast.run_trials(&spec(), 20, |s| trial(s) ^ 1);
        assert_eq!(warm_fast.stats_snapshot().executed_trials, 0);
        assert_eq!(b, b2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batched_scheduling_matches_per_trial_and_shares_its_cache() {
        let dir = tmp_dir("batched");
        // Cold: compute the unit through the batched path under the
        // fast-exact engine salt (the alias batch callers use, since
        // their per-trial bits match the fast-exact engine).
        let batched =
            Orchestrator::with_cache_dir(&dir).unwrap().chunk_size(8).engine_mode("fast-exact");
        let a: Vec<u64> = batched
            .run_trials_batched(&spec(), 50, |seeds| seeds.iter().map(|&s| trial(s)).collect());
        assert_eq!(batched.stats_snapshot().executed_trials, 50);
        assert_eq!(a, direct(50), "batched results keep trial order");

        // Warm: the per-trial path under the same engine mode is served
        // entirely from the batched run's checkpoints — fingerprints
        // alias because the per-trial bits are identical.
        let per_trial =
            Orchestrator::with_cache_dir(&dir).unwrap().chunk_size(8).engine_mode("fast-exact");
        let b: Vec<u64> = per_trial.run_trials(&spec(), 50, trial);
        assert_eq!(per_trial.stats_snapshot().executed_trials, 0, "warm cache shared across modes");
        assert_eq!(a, b);

        // And the reverse direction: a batched run over a per-trial-warmed
        // store executes nothing either.
        let warm_batched =
            Orchestrator::with_cache_dir(&dir).unwrap().chunk_size(8).engine_mode("fast-exact");
        let c: Vec<u64> = warm_batched
            .run_trials_batched(&spec(), 50, |seeds| seeds.iter().map(|&s| trial(s)).collect());
        assert_eq!(warm_batched.stats_snapshot().executed_trials, 0);
        assert_eq!(a, c);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batches_are_whole_chunks_unless_fewer_chunks_than_jobs() {
        let widths = |trials: u64| {
            let seen = std::sync::Mutex::new(Vec::new());
            let orch = Orchestrator::ephemeral().chunk_size(8).jobs(2);
            let got: Vec<u64> = orch.run_trials_batched(&spec(), trials, |seeds| {
                seen.lock().unwrap().push(seeds.len());
                seeds.iter().map(|&s| trial(s)).collect()
            });
            assert_eq!(got, direct(trials), "{trials} trials");
            let mut seen = seen.into_inner().unwrap();
            seen.sort_unstable();
            seen
        };
        assert_eq!(widths(18), [2, 8, 8], "three chunks for two jobs: one batch each");
        assert_eq!(widths(16), [8, 8], "two chunks for two jobs: one batch each");
        assert_eq!(widths(8), [4, 4], "one chunk for two jobs: split between them");
    }

    #[test]
    fn a_cap_lowered_mid_unit_sends_threads_home_and_keeps_results() {
        let cap = ThreadCap::new(3);
        let orch = Orchestrator::ephemeral().chunk_size(8).thread_cap(cap.clone());
        assert_eq!(orch.effective_jobs(), 3);
        let ran = std::sync::Mutex::new(Vec::new());
        let got: Vec<u64> = orch.run_trials(&spec(), 200, |seed| {
            if seed == 5020 {
                cap.narrow(1);
            }
            ran.lock().unwrap().push((std::thread::current().id(), seed));
            trial(seed)
        });
        assert_eq!(got, direct(200), "narrowing moves no result");
        // Past the narrowing, a thread above the cap finishes the piece it
        // holds and takes at most one more it claimed before it looked.
        let mut late = std::collections::HashMap::<std::thread::ThreadId, usize>::new();
        for (thread, seed) in ran.into_inner().unwrap() {
            if seed >= 5020 {
                *late.entry(thread).or_default() += 1;
            }
        }
        let mut counts: Vec<usize> = late.into_values().collect();
        counts.sort_unstable();
        counts.pop();
        assert!(counts.iter().all(|&n| n <= 2), "one thread runs the tail: {counts:?}");
        cap.narrow(5);
        assert_eq!(cap.get(), 1, "a cap never rises");
    }

    #[test]
    fn batched_chunk_budget_interrupts_at_chunk_boundaries() {
        let orch = Orchestrator::ephemeral().chunk_size(8).chunk_budget(2);
        let err = orch
            .try_run_trials_batched::<u64, _>(&spec(), 50, |seeds| {
                seeds.iter().map(|&s| trial(s)).collect()
            })
            .unwrap_err();
        assert_eq!(err, Interrupted::ChunkBudgetExhausted { completed_trials: 16 });
    }

    #[test]
    fn pre_fired_cancel_token_aborts_before_the_first_chunk() {
        let token = CancelToken::new();
        token.cancel();
        let orch = Orchestrator::ephemeral().chunk_size(8).cancel_token(token);
        let err = orch.try_run_trials::<u64, _>(&spec(), 50, trial).unwrap_err();
        assert_eq!(err, Interrupted::Cancelled { completed_trials: 0 });
        assert_eq!(err.completed_trials(), 0);
        assert_eq!(orch.stats_snapshot().executed_trials, 0);
    }

    #[test]
    fn cancel_mid_unit_keeps_completed_chunks_and_resumes() {
        // A reporter that fires the token after the first executed chunk:
        // deterministic mid-unit cancellation at a checkpoint boundary.
        struct CancelAfterFirstChunk(CancelToken);
        impl crate::telemetry::Reporter for CancelAfterFirstChunk {
            fn report(&self, event: &Event<'_>) {
                if matches!(event, Event::ChunkFinished { .. }) {
                    self.0.cancel();
                }
            }
        }

        let dir = tmp_dir("cancel");
        let token = CancelToken::new();
        let orch = Orchestrator::with_cache_dir(&dir)
            .unwrap()
            .chunk_size(8)
            .cancel_token(token.clone())
            .reporter(CancelAfterFirstChunk(token.clone()));
        let err = orch.try_run_trials::<u64, _>(&spec(), 50, trial).unwrap_err();
        assert_eq!(err, Interrupted::Cancelled { completed_trials: 8 });
        assert!(token.is_cancelled());
        assert_eq!(orch.stats_snapshot().executed_trials, 8);

        // The completed chunk is checkpointed: a Resume run reuses it and
        // assembles the bit-identical full unit.
        let resumed =
            Orchestrator::with_cache_dir(&dir).unwrap().chunk_size(8).policy(CachePolicy::Resume);
        let got: Vec<u64> = resumed.run_trials(&spec(), 50, trial);
        assert_eq!(resumed.stats_snapshot().cached_trials, 8);
        assert_eq!(got, direct(50));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fully_cached_unit_completes_despite_cancellation() {
        let dir = tmp_dir("cancel-cached");
        let warmup = Orchestrator::with_cache_dir(&dir).unwrap().chunk_size(8);
        let a: Vec<u64> = warmup.run_trials(&spec(), 50, trial);

        let token = CancelToken::new();
        token.cancel();
        let warm = Orchestrator::with_cache_dir(&dir).unwrap().chunk_size(8).cancel_token(token);
        let b = warm.try_run_trials::<u64, _>(&spec(), 50, trial).unwrap();
        assert_eq!(a, b, "cache-served units have nothing to cancel");
        assert_eq!(warm.stats_snapshot().executed_trials, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_panicking_trial_surfaces_its_own_message_under_two_jobs() {
        let boom = |seed: u64| {
            if seed == 5000 + 40 {
                panic!("boom at seed {seed}");
            }
            trial(seed)
        };
        for batched in [false, true] {
            let dir = tmp_dir(if batched { "panic-batched" } else { "panic" });
            let orch = Orchestrator::with_cache_dir(&dir).unwrap().chunk_size(8).jobs(2);
            let payload = catch_unwind(AssertUnwindSafe(|| {
                if batched {
                    orch.try_run_trials_batched(&spec(), 64, |seeds| {
                        seeds.iter().map(|&s| boom(s)).collect()
                    })
                } else {
                    orch.try_run_trials(&spec(), 64, boom)
                }
            }))
            .expect_err("the unit panics");
            assert_eq!(payload.downcast_ref::<String>().unwrap(), "boom at seed 5040");
            // Every chunk before the panicking trial's is checkpointed.
            let resumed = Orchestrator::with_cache_dir(&dir)
                .unwrap()
                .chunk_size(8)
                .policy(CachePolicy::Resume);
            let got: Vec<u64> = resumed.run_trials(&spec(), 64, trial);
            assert_eq!(resumed.stats_snapshot().cached_trials, 40);
            assert_eq!(got, direct(64));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn trailing_partial_chunk_is_handled() {
        let orch = Orchestrator::ephemeral().chunk_size(32);
        let got: Vec<u64> = orch.run_trials(&spec(), 33, trial);
        assert_eq!(got.len(), 33);
        assert_eq!(got, direct(33));
    }
}
