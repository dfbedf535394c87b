//! # jle-orchestrator
//!
//! Content-addressed experiment cache and resumable, checkpointed sweep
//! scheduler for the jamming-leader-election reproduction.
//!
//! The experiment suite re-simulates every trial on every invocation,
//! which makes wide sweeps expensive to iterate on and impossible to
//! resume after a kill. This crate sits between the experiment
//! definitions in `jle-bench` and the seeded trial closures they run,
//! and adds three things:
//!
//! * **Fingerprints** ([`WorkSpec`] → [`Fingerprint`]): each unit of work
//!   — experiment id, sweep point, full parameter tree, base seed — is
//!   canonically serialized (sorted keys, shortest-round-trip floats) and
//!   SHA-256-hashed together with a code-version salt and the result
//!   type, yielding a content-addressed cache key.
//! * **A sharded store** ([`ResultStore`]): per-unit directories under the
//!   cache root, one JSON shard per completed trial chunk, written
//!   atomically (temp file + rename) and loaded corruption-tolerantly — a
//!   truncated or garbled shard is discarded and recomputed, never a
//!   panic.
//! * **A chunked scheduler** ([`Orchestrator`]): trials run in fixed
//!   chunks, each checkpointed on completion; seeding stays the workspace
//!   convention `base_seed + trial_index`, so an interrupted sweep
//!   resumed under [`CachePolicy::Resume`] assembles output bit-identical
//!   to an uninterrupted run, and a warm cache replays a sweep with zero
//!   trials executed.
//!
//! Live telemetry ([`Reporter`], [`Stats`]) reports trials/sec, slots/sec
//! (via [`jle_engine::SlotCost`]), cache hit/miss counts, per-experiment
//! wall-clock, and an ETA, with stderr-progress and JSONL-run-log
//! implementations.

pub mod fingerprint;
pub mod scheduler;
pub mod sha256;
pub mod store;
pub mod telemetry;

pub use fingerprint::{canonical_json, canonicalize, Fingerprint, WorkSpec};
pub use scheduler::{
    engine_salt, CachePolicy, CancelToken, Interrupted, Orchestrator, ThreadCap,
    DEFAULT_CHUNK_SIZE, DEFAULT_CODE_SALT,
};
pub use store::ResultStore;
pub use telemetry::{Event, JsonlReporter, Reporter, Stats, StatsSnapshot, StderrProgress};
