//! Anomaly flight recorder: a ring of recent slot events dumped as a
//! self-contained JSON postmortem when something goes wrong.
//!
//! A [`FlightRing`] rides along inside a trial (filled by the engine's
//! `TelemetryObserver`, one push per slot, no allocation after warm-up).
//! When an anomaly fires — the slot cap, a crashed leader, a supervisor
//! restart, a caught panic — the ring's last `N` events plus the trial's
//! seed and config fingerprint are frozen into a [`FlightRecord`] and
//! written by the [`FlightRecorder`] as one JSON artifact. Because every
//! trial is seeded deterministically (`base_seed + trial_index`, see
//! `jle-orchestrator`), the seed + fingerprint pair suffices to replay
//! the exact trial; the artifact documents the replay in-line.

use serde::{Deserialize, Error, Serialize, Value};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// One slot as the flight recorder saw it: aggregate actions plus the
/// channel outcome. Mirrors the engine's per-slot truth without depending
/// on `jle-radio` (this crate is a leaf). Written
/// `{"slot":S,"tx":T,"rx":R,"jam":J}`; every field is required on read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SlotEvent {
    /// Slot index.
    pub slot: u64,
    /// Number of transmitting stations.
    #[serde(rename = "tx")]
    pub transmitters: u64,
    /// Number of listening stations.
    #[serde(rename = "rx")]
    pub listeners: u64,
    /// Whether the slot was jammed (or noise-corrupted).
    #[serde(rename = "jam")]
    pub jammed: bool,
}

/// Fixed-capacity ring buffer of the most recent [`SlotEvent`]s.
#[derive(Debug, Clone)]
pub struct FlightRing {
    buf: Vec<SlotEvent>,
    cap: usize,
    next: usize,
    total: u64,
}

impl FlightRing {
    /// A ring keeping the last `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        FlightRing { buf: Vec::with_capacity(cap), cap, next: 0, total: 0 }
    }

    /// Record one event, evicting the oldest once full.
    pub fn push(&mut self, ev: SlotEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.next] = ev;
        }
        self.next = (self.next + 1) % self.cap;
        self.total += 1;
    }

    /// Events in chronological order (oldest retained first).
    pub fn events(&self) -> Vec<SlotEvent> {
        if self.buf.len() < self.cap {
            self.buf.clone()
        } else {
            let mut out = Vec::with_capacity(self.cap);
            out.extend_from_slice(&self.buf[self.next..]);
            out.extend_from_slice(&self.buf[..self.next]);
            out
        }
    }

    /// Total events ever pushed (≥ retained count).
    pub fn total_pushed(&self) -> u64 {
        self.total
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Forget everything (capacity is kept).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.next = 0;
        self.total = 0;
    }
}

/// Why a flight record was dumped (the anomaly taxonomy; DESIGN.md §11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnomalyKind {
    /// The run hit its slot cap without resolving (`RunReport::cap_hit`).
    CapHit,
    /// The elected leader crashed before the horizon
    /// (`RunReport::leader_crashed`).
    LeaderCrashed,
    /// More than one station believes it is the leader.
    MultiLeader,
    /// A supervisor watchdog fired and restarted a station's election.
    SupervisorRestart,
    /// ≥2 stations concurrently believed they were leader (open-world
    /// lease runs; resolved or not — the detail says which).
    SplitBrain,
    /// A station lost sight of the leader's lease (missed beacons) and
    /// re-entered election.
    LeaseLost,
    /// A trial panicked and was caught by `jle_engine::catch_trial`.
    Panic,
    /// Nothing went wrong — the record is a deliberate snapshot of a
    /// healthy run (e.g. a `jle-lens record` replay fixture).
    Snapshot,
}

impl AnomalyKind {
    /// All anomaly kinds, for exhaustive iteration in tests and docs.
    pub const ALL: [AnomalyKind; 8] = [
        AnomalyKind::CapHit,
        AnomalyKind::LeaderCrashed,
        AnomalyKind::MultiLeader,
        AnomalyKind::SupervisorRestart,
        AnomalyKind::SplitBrain,
        AnomalyKind::LeaseLost,
        AnomalyKind::Panic,
        AnomalyKind::Snapshot,
    ];

    /// Stable snake_case label used in filenames and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            AnomalyKind::CapHit => "cap_hit",
            AnomalyKind::LeaderCrashed => "leader_crashed",
            AnomalyKind::MultiLeader => "multi_leader",
            AnomalyKind::SupervisorRestart => "supervisor_restart",
            AnomalyKind::SplitBrain => "split_brain",
            AnomalyKind::LeaseLost => "lease_lost",
            AnomalyKind::Panic => "panic",
            AnomalyKind::Snapshot => "snapshot",
        }
    }

    /// Parse a [`AnomalyKind::label`] back.
    pub fn from_label(s: &str) -> Option<Self> {
        AnomalyKind::ALL.into_iter().find(|k| k.label() == s)
    }
}

/// A self-contained postmortem: everything needed to understand — and
/// replay — one anomalous trial.
///
/// Written as `schema` (`"jle-flight-vN"`), `anomaly` (its label),
/// `seed`, `fingerprint` (`null` when absent), `detail`, `context` (an
/// object, in insertion order), `slots_seen`, `events`, `spec` (only
/// when embedded) and `replay` (prose, ignored on read). An absent
/// `detail`, `context` or `slots_seen` reads as empty or 0, and an absent
/// `fingerprint` or `spec` as `None`, so older artifacts still load.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "FlightWire", into = "FlightWire")]
pub struct FlightRecord {
    /// Artifact schema version ([`crate::SCHEMA_VERSION`]).
    pub schema: u32,
    /// What fired.
    pub anomaly: AnomalyKind,
    /// The trial's engine seed (replays the exact RNG streams).
    pub seed: u64,
    /// Content-addressed config fingerprint of the owning work unit
    /// (`jle-orchestrator`), when the trial ran under the orchestrator.
    pub fingerprint: Option<String>,
    /// The full run spec (params tree), when the producer chose to embed
    /// it — makes the artifact replayable on its own, without access to
    /// the result store that maps fingerprints back to specs.
    pub replay_spec: Option<Value>,
    /// Free-form detail (panic message, restart cause, ...).
    pub detail: String,
    /// Extra context as key/value pairs (experiment id, trial index, ...).
    pub context: Vec<(String, String)>,
    /// Total slot events observed by the trial (the ring may have
    /// dropped all but the last [`FlightRecord::events`]`.len()`).
    pub slots_seen: u64,
    /// The last retained slot events, oldest first.
    pub events: Vec<SlotEvent>,
}

impl FlightRecord {
    /// A record for `anomaly` with the ring's current contents.
    pub fn new(anomaly: AnomalyKind, seed: u64, ring: &FlightRing) -> Self {
        FlightRecord {
            schema: crate::SCHEMA_VERSION,
            anomaly,
            seed,
            fingerprint: None,
            replay_spec: None,
            detail: String::new(),
            context: Vec::new(),
            slots_seen: ring.total_pushed(),
            events: ring.events(),
        }
    }

    /// Attach the work unit's config fingerprint.
    pub fn with_fingerprint(mut self, fp: impl Into<String>) -> Self {
        self.fingerprint = Some(fp.into());
        self
    }

    /// Embed the full run spec so the artifact replays standalone.
    pub fn with_replay_spec(mut self, spec: Value) -> Self {
        self.replay_spec = Some(spec);
        self
    }

    /// Attach free-form detail text.
    pub fn with_detail(mut self, detail: impl Into<String>) -> Self {
        self.detail = detail.into();
        self
    }

    /// Attach one context key/value pair.
    pub fn with_context(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.context.push((key.into(), value.into()));
        self
    }
}

/// [`FlightRecord`] as written, computed fields included.
#[derive(Serialize, Deserialize)]
struct FlightWire {
    schema: String,
    anomaly: String,
    seed: u64,
    #[serde(default)]
    fingerprint: Option<String>,
    #[serde(default)]
    detail: String,
    #[serde(default)]
    context: Value,
    #[serde(default)]
    slots_seen: u64,
    events: Vec<SlotEvent>,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    spec: Option<Value>,
    #[serde(default)]
    replay: String,
}

impl From<FlightRecord> for FlightWire {
    fn from(r: FlightRecord) -> Self {
        FlightWire {
            schema: format!("jle-flight-v{}", r.schema),
            anomaly: r.anomaly.label().to_string(),
            seed: r.seed,
            fingerprint: r.fingerprint,
            detail: r.detail,
            context: Value::Map(r.context.into_iter().map(|(k, v)| (k, Value::Str(v))).collect()),
            slots_seen: r.slots_seen,
            events: r.events,
            spec: r.replay_spec,
            // Document the replay inline so a bare artifact is actionable.
            replay: format!(
                "re-run the owning work unit (fingerprint above) or any engine entry \
                 point with seed {}; trials are seeded deterministically so the same \
                 seed reproduces the identical slot sequence",
                r.seed
            ),
        }
    }
}

impl TryFrom<FlightWire> for FlightRecord {
    type Error = Error;
    fn try_from(w: FlightWire) -> Result<Self, Error> {
        let schema = crate::schema_version(&w.schema, "jle-flight-v")
            .ok_or_else(|| Error::custom(format!("unrecognized flight schema {:?}", w.schema)))?;
        let anomaly = AnomalyKind::from_label(&w.anomaly)
            .ok_or_else(|| Error::custom(format!("unknown anomaly {:?}", w.anomaly)))?;
        let context = match w.context {
            Value::Null => Vec::new(),
            Value::Map(m) => m
                .into_iter()
                .map(|(k, v)| match v {
                    Value::Str(s) => Ok((k, s)),
                    _ => Err(Error::custom("context values must be strings")),
                })
                .collect::<Result<_, _>>()?,
            other => {
                return Err(Error::custom(format!(
                    "context must be an object, found {}",
                    other.kind()
                )))
            }
        };
        Ok(FlightRecord {
            schema,
            anomaly,
            seed: w.seed,
            fingerprint: w.fingerprint,
            replay_spec: w.spec,
            detail: w.detail,
            context,
            slots_seen: w.slots_seen,
            events: w.events,
        })
    }
}

/// Writes [`FlightRecord`]s as JSON artifacts into a directory, with a
/// global cap so a pathological sweep cannot fill the disk.
#[derive(Debug)]
pub struct FlightRecorder {
    dir: PathBuf,
    seq: AtomicU64,
    limit: u64,
}

impl FlightRecorder {
    /// Default cap on artifacts written per recorder.
    pub const DEFAULT_LIMIT: u64 = 256;

    /// A recorder writing into `dir` (created if absent).
    pub fn new(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(FlightRecorder { dir, seq: AtomicU64::new(0), limit: Self::DEFAULT_LIMIT })
    }

    /// Override the artifact cap.
    pub fn with_limit(mut self, limit: u64) -> Self {
        self.limit = limit;
        self
    }

    /// The artifact directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of artifacts written so far.
    pub fn written(&self) -> u64 {
        self.seq.load(Ordering::Relaxed).min(self.limit)
    }

    /// Dump one record; returns the artifact path, or `None` if the cap
    /// was reached (the record is silently dropped — postmortems past the
    /// first few hundred add nothing).
    pub fn dump(&self, record: &FlightRecord) -> std::io::Result<Option<PathBuf>> {
        let n = self.seq.fetch_add(1, Ordering::Relaxed);
        if n >= self.limit {
            return Ok(None);
        }
        let name = format!("flight-{:05}-{}-seed{}.json", n, record.anomaly.label(), record.seed);
        let path = self.dir.join(name);
        let text = serde_json::to_string_pretty(record)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        std::fs::write(&path, text)?;
        Ok(Some(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(slot: u64) -> SlotEvent {
        SlotEvent { slot, transmitters: slot % 3, listeners: 5, jammed: slot.is_multiple_of(2) }
    }

    #[test]
    fn ring_wraps_and_preserves_chronological_order() {
        let mut ring = FlightRing::new(4);
        assert!(ring.is_empty());
        for slot in 0..3 {
            ring.push(ev(slot));
        }
        // Under capacity: everything retained, in order.
        assert_eq!(ring.events().iter().map(|e| e.slot).collect::<Vec<_>>(), vec![0, 1, 2]);
        for slot in 3..10 {
            ring.push(ev(slot));
        }
        // Wrapped: last 4, oldest first.
        assert_eq!(ring.events().iter().map(|e| e.slot).collect::<Vec<_>>(), vec![6, 7, 8, 9]);
        assert_eq!(ring.total_pushed(), 10);
        assert_eq!(ring.len(), 4);
        ring.clear();
        assert!(ring.is_empty());
        assert_eq!(ring.total_pushed(), 0);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut ring = FlightRing::new(0);
        ring.push(ev(1));
        ring.push(ev(2));
        assert_eq!(ring.events().iter().map(|e| e.slot).collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn anomaly_labels_roundtrip() {
        for kind in AnomalyKind::ALL {
            assert_eq!(AnomalyKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(AnomalyKind::from_label("nonsense"), None);
    }

    #[test]
    fn record_serde_roundtrip() {
        let mut ring = FlightRing::new(3);
        for slot in 0..5 {
            ring.push(ev(slot));
        }
        let rec = FlightRecord::new(AnomalyKind::CapHit, 0xA11CE, &ring)
            .with_fingerprint("deadbeef")
            .with_detail("hit the cap at 4000 slots")
            .with_context("experiment", "e24");
        let text = serde_json::to_string(&rec).unwrap();
        assert!(text.contains("\"jle-flight-v1\""));
        assert!(text.contains("\"cap_hit\""));
        assert!(text.contains("\"replay\""));
        let back: FlightRecord = serde_json::from_str(&text).unwrap();
        assert_eq!(back, rec);
        assert_eq!(back.slots_seen, 5);
        assert_eq!(back.events.len(), 3);
    }

    #[test]
    fn only_the_written_schema_spelling_loads() {
        let text =
            serde_json::to_string(&FlightRecord::new(AnomalyKind::CapHit, 7, &FlightRing::new(1)))
                .unwrap();
        assert!(serde_json::from_str::<FlightRecord>(&text).is_ok());
        for tag in ["jle-flight-v+01", "jle-flight-v01", "jle-flight-v+1", "jle-flight-v"] {
            let bad = text.replace("\"jle-flight-v1\"", &format!("{tag:?}"));
            let err = serde_json::from_str::<FlightRecord>(&bad).unwrap_err().to_string();
            assert!(err.contains("unrecognized flight schema"), "{tag}: {err}");
        }
    }

    #[test]
    fn recorder_writes_artifacts_and_respects_the_cap() {
        let dir = std::env::temp_dir().join(format!("jle-flight-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rec = FlightRecorder::new(&dir).unwrap().with_limit(2);
        let ring = FlightRing::new(2);
        let record = FlightRecord::new(AnomalyKind::Panic, 7, &ring).with_detail("boom");
        let p1 = rec.dump(&record).unwrap().expect("first artifact");
        let p2 = rec.dump(&record).unwrap().expect("second artifact");
        assert!(rec.dump(&record).unwrap().is_none(), "cap reached");
        assert_ne!(p1, p2);
        let text = std::fs::read_to_string(&p1).unwrap();
        let back: FlightRecord = serde_json::from_str(&text).unwrap();
        assert_eq!(back.anomaly, AnomalyKind::Panic);
        assert_eq!(back.seed, 7);
        assert_eq!(rec.written(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
