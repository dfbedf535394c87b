//! # jle-sweepd
//!
//! A resident, multi-tenant experiment service over the
//! [`jle_orchestrator`] cache and scheduler — ROADMAP item 2's "serving
//! layer" for the paper reproduction's Monte-Carlo sweeps.
//!
//! Every experiment in the suite is a batch CLI invocation; wide LESK
//! sweeps under jamming are exactly the workload that benefits from
//! request coalescing instead. The service accepts work submissions over
//! a Unix or TCP socket using a versioned JSONL protocol
//! ([`protocol`]: `submit` / `subscribe` / `status` / `cancel` /
//! `metrics` / `shutdown` frames), schedules them across a shared worker
//! pool with per-client fair-share accounting and a bounded queue
//! (backpressure: reject-with-`retry_after_ms` when full), and dedupes
//! concurrent identical requests through the orchestrator's
//! content-addressed [`jle_orchestrator::Fingerprint`]: the same
//! `WorkSpec` submitted by many clients triggers **one** computation,
//! with every subscriber streaming the same throttled progress events
//! and receiving byte-identical results.
//!
//! The crate ships both halves:
//!
//! * [`server`] — the resident service ([`server::SweepServer`]), run by
//!   the `jle-sweepd` binary: sockets, threads and the worker pool around
//!   `sched`, the private state machine that makes every scheduling
//!   decision;
//! * [`client`] — the client library ([`client::SweepClient`]), used by
//!   the bench CLIs' `--server` mode and by tests;
//! * [`work`] — the server-side work-kind registry mapping a submitted
//!   parameter tree back to a trial closure (strictly: unknown keys are
//!   rejected so the server never mis-reconstructs a sweep variant).
//!
//! `jle-sweepd` is the crate's one binary. Load on it is measured by
//! `sweepbench --workload sweepd_mixed`, its own workspace under
//! `sweepbench/`.
//!
//! Health surface: all `jle_sweepd_*` / `jle_orchestrator_*` counters
//! live on one shared [`jle_telemetry::MetricRegistry`]; a `metrics`
//! frame returns the `jle-metrics-v1` snapshot, and an HTTP-ish `GET`
//! on the same socket (or `--prom-dump`) serves the Prometheus text.

pub mod client;
pub mod protocol;
mod sched;
pub mod server;
pub mod work;

pub use client::{ClientError, SweepClient, SweepOutcome};
pub use protocol::{ClientFrame, ServerFrame, PROTOCOL_VERSION};
pub use server::{Endpoint, ServerConfig, ServerHandle, SweepServer};
pub use work::{build_trial_fn, is_supported, WorkError};
