//! Observability core for the `jle-*` workspace: spans, metrics, and an
//! anomaly flight recorder.
//!
//! This crate is deliberately a *leaf* — it depends on nothing but the
//! vendored `serde`/`serde_json` shims, so every other crate (engine,
//! adversary, orchestrator, CLI) can depend on it without cycles. It
//! provides three independent facilities:
//!
//! * [`metrics`] — a process-wide [`MetricRegistry`] of named counters,
//!   gauges, and log₂-bucketed histograms, exported as Prometheus text
//!   exposition and as a versioned JSONL snapshot. Metric names follow
//!   the `jle_<crate>_<name>` convention (DESIGN.md §11).
//! * [`spans`] — a [`SpanRecorder`] of cheap begin/end spans (run →
//!   experiment → unit → chunk → trial granularity) with a Chrome
//!   `trace_event` JSON exporter, so any sweep can be profiled in
//!   `chrome://tracing` or Perfetto.
//! * [`flight`] — a fixed-size [`FlightRing`] of recent slot events plus
//!   a [`FlightRecorder`] that dumps the ring as a self-contained JSON
//!   artifact whenever an anomaly fires, including the seed and config
//!   fingerprint needed to replay the trial exactly.
//!
//! Everything here is strictly *passive*: recording a span, bumping a
//! counter, or filling the flight ring never touches simulation state or
//! RNG draw order (the engine's golden-seed suite pins this).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flight;
pub mod metrics;
pub mod spans;
pub mod trace;

pub use flight::{AnomalyKind, FlightRecord, FlightRecorder, FlightRing, SlotEvent};
pub use metrics::{Counter, Gauge, Histogram, MetricRegistry, MetricsSnapshot};
pub use spans::{FlushGuard, SpanGuard, SpanRecorder};
pub use trace::TraceContext;

/// The version `N` of a `{prefix}N` schema tag, spelled exactly as
/// `N.to_string()` writes it (no sign, no leading zero).
fn schema_version(tag: &str, prefix: &str) -> Option<u32> {
    let digits = tag.strip_prefix(prefix)?;
    digits.parse::<u32>().ok().filter(|n| n.to_string() == digits)
}

/// Schema version stamped into every metrics snapshot and flight-recorder
/// artifact this crate writes. Bump on any backwards-incompatible change
/// to either layout.
pub const SCHEMA_VERSION: u32 = 1;
