//! Deterministic slot-level replay: spec + seed → annotated timeline,
//! bit-exact divergence checking against flight artifacts, and
//! backend-vs-backend diffing.
//!
//! The whole module leans on one engine invariant (pinned by the
//! golden-seed suite): observers are passive, so attaching the
//! [`ReplayObserver`] cannot change the simulation. The per-slot stream
//! it captures uses the *same* [`SlotEvent`] mapping the engine's
//! `TelemetryObserver` uses to fill flight-recorder rings — slot index,
//! transmitter and listener counts from the aggregate actions, jammed
//! flag from the ground truth — so comparing a replayed stream against a
//! recorded artifact is an event-for-event equality check, not a
//! heuristic.

use crate::spec::{LensSpec, SpecError};
use jle_engine::{RunReport, SlotActions, SlotObserver, StateProbe};
use jle_radio::SlotTruth;
use jle_telemetry::{FlightRecord, FlightRing, SlotEvent};

/// Hard cap on captured slot events per replay (memory guard; runs are
/// typically orders of magnitude shorter).
pub const MAX_CAPTURE: usize = 1 << 20;

/// Default cap on recorded state transitions per replay.
pub const MAX_TRANSITIONS: usize = 4096;

/// One station's protocol-state change, sampled at the end of the slot
/// where the new label first appeared.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transition {
    /// Slot after which the station reported the new state.
    pub slot: u64,
    /// Station id.
    pub station: u64,
    /// The new protocol-chosen state label.
    pub state: &'static str,
    /// The probe's scalar at the moment of the change, if any.
    pub value: Option<f64>,
}

/// Passive capture layer for replays: slot events (flight-ring mapping),
/// state transitions via [`StateProbe`]s, and adversary spend.
pub struct ReplayObserver {
    ring: FlightRing,
    want_probes: bool,
    last: Vec<Option<&'static str>>,
    transitions: Vec<Transition>,
    transitions_truncated: bool,
    jammed_total: u64,
}

impl ReplayObserver {
    /// An observer retaining the last `capture` slot events (clamped to
    /// [`MAX_CAPTURE`]); `want_probes` opts into per-station state
    /// probes (an O(n)-per-slot collection in the engine).
    pub fn new(capture: usize, want_probes: bool) -> Self {
        ReplayObserver {
            ring: FlightRing::new(capture.min(MAX_CAPTURE)),
            want_probes,
            last: Vec::new(),
            transitions: Vec::new(),
            transitions_truncated: false,
            jammed_total: 0,
        }
    }

    /// The captured ring (for freezing into a [`FlightRecord`]).
    pub fn ring(&self) -> &FlightRing {
        &self.ring
    }
}

impl SlotObserver for ReplayObserver {
    fn wants_probes(&self) -> bool {
        self.want_probes
    }

    fn on_probes(&mut self, slot: u64, probes: &[StateProbe]) {
        for p in probes {
            let idx = p.station as usize;
            if idx >= self.last.len() {
                self.last.resize(idx + 1, None);
            }
            if self.last[idx] != Some(p.state) {
                self.last[idx] = Some(p.state);
                if self.transitions.len() < MAX_TRANSITIONS {
                    self.transitions.push(Transition {
                        slot,
                        station: p.station,
                        state: p.state,
                        value: p.value,
                    });
                } else {
                    self.transitions_truncated = true;
                }
            }
        }
    }

    fn on_slot(
        &mut self,
        slot: u64,
        truth: &SlotTruth,
        actions: &SlotActions,
        _estimate: Option<f64>,
    ) {
        // Must stay field-for-field identical to the engine telemetry
        // observer's flight-ring mapping — divergence checks compare
        // these events against recorded artifacts for bit-equality.
        self.ring.push(SlotEvent {
            slot,
            transmitters: actions.transmitters,
            listeners: actions.listeners,
            jammed: truth.jammed,
        });
        if truth.jammed {
            self.jammed_total += 1;
        }
    }
}

/// Everything one replay produced.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// The re-derived run report.
    pub report: RunReport,
    /// Captured slot events, oldest retained first (the last
    /// `capture` slots of the run).
    pub events: Vec<SlotEvent>,
    /// Total slots the run played (≥ `events.len()`).
    pub slots_seen: u64,
    /// Protocol state transitions, in slot order.
    pub transitions: Vec<Transition>,
    /// Whether the transition log hit [`MAX_TRANSITIONS`].
    pub transitions_truncated: bool,
    /// Total jammed (or noise-corrupted) slots the observer saw.
    pub jammed_total: u64,
}

/// Re-derive `spec` at `seed`, capturing the last `capture` slot events
/// and (optionally) protocol state transitions.
pub fn replay(
    spec: &LensSpec,
    seed: u64,
    capture: usize,
    want_probes: bool,
) -> Result<ReplayOutcome, SpecError> {
    let mut obs = ReplayObserver::new(capture, want_probes);
    let report = spec.run_observed(seed, &mut [&mut obs])?.report;
    Ok(ReplayOutcome {
        slots_seen: obs.ring.total_pushed(),
        events: obs.ring.events(),
        report,
        transitions: obs.transitions,
        transitions_truncated: obs.transitions_truncated,
        jammed_total: obs.jammed_total,
    })
}

/// Re-derive `spec` at `seed` and freeze the result into a healthy
/// ([`jle_telemetry::AnomalyKind::Snapshot`]) flight record carrying its
/// own replay spec — the self-contained artifact `jle-lens record`
/// writes and CI replays.
pub fn record(
    spec: &LensSpec,
    seed: u64,
    tail: usize,
) -> Result<(FlightRecord, ReplayOutcome), SpecError> {
    let mut obs = ReplayObserver::new(tail, true);
    let report = spec.run_observed(seed, &mut [&mut obs])?.report;
    let record = FlightRecord::new(jle_telemetry::AnomalyKind::Snapshot, seed, obs.ring())
        .with_replay_spec(spec.to_params())
        .with_detail("lens snapshot (healthy run, recorded for replay)")
        .with_context("engine", spec.engine.label())
        .with_context("proto", spec.proto.label());
    let outcome = ReplayOutcome {
        slots_seen: obs.ring.total_pushed(),
        events: obs.ring.events(),
        report,
        transitions: obs.transitions,
        transitions_truncated: obs.transitions_truncated,
        jammed_total: obs.jammed_total,
    };
    Ok((record, outcome))
}

/// The verdict of replaying a recorded trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Divergence {
    /// Every recorded slot event was reproduced bit-for-bit and the run
    /// lengths agree.
    None,
    /// A recorded slot replayed with different aggregate behaviour —
    /// the first such slot.
    SlotMismatch {
        /// The diverging slot's recorded event.
        recorded: SlotEvent,
        /// What the replay produced for the same slot index.
        replayed: SlotEvent,
    },
    /// A recorded slot index is absent from the replayed capture (the
    /// replay ended earlier, or its capture window no longer covers it).
    MissingSlot {
        /// The missing slot index.
        slot: u64,
    },
    /// All recorded events matched but the total run lengths differ.
    LengthMismatch {
        /// Slots the recorded run played.
        recorded_slots: u64,
        /// Slots the replay played.
        replayed_slots: u64,
    },
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Divergence::None => write!(f, "none"),
            Divergence::SlotMismatch { recorded, replayed } => write!(
                f,
                "slot {} — recorded tx={} rx={} jam={} vs replayed tx={} rx={} jam={}",
                recorded.slot,
                recorded.transmitters,
                recorded.listeners,
                recorded.jammed,
                replayed.transmitters,
                replayed.listeners,
                replayed.jammed,
            ),
            Divergence::MissingSlot { slot } => {
                write!(f, "slot {slot} absent from the replayed capture")
            }
            Divergence::LengthMismatch { recorded_slots, replayed_slots } => write!(
                f,
                "run length — recorded {recorded_slots} slots vs replayed {replayed_slots}"
            ),
        }
    }
}

/// Compare a recorded artifact against a replay of the same trial.
///
/// Bit-exactness is judged on the recorded window: every event the
/// artifact retained must reappear identically at the same slot index,
/// and the total slot counts must agree.
pub fn divergence(record: &FlightRecord, out: &ReplayOutcome) -> Divergence {
    let mut by_slot = std::collections::BTreeMap::new();
    for ev in &out.events {
        by_slot.insert(ev.slot, *ev);
    }
    for ev in &record.events {
        match by_slot.get(&ev.slot) {
            Some(r) if r == ev => {}
            Some(r) => return Divergence::SlotMismatch { recorded: *ev, replayed: *r },
            None => return Divergence::MissingSlot { slot: ev.slot },
        }
    }
    if record.slots_seen != out.slots_seen {
        return Divergence::LengthMismatch {
            recorded_slots: record.slots_seen,
            replayed_slots: out.slots_seen,
        };
    }
    Divergence::None
}

/// Result of replaying one trial on two backends.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Slots backend A played.
    pub slots_a: u64,
    /// Slots backend B played.
    pub slots_b: u64,
    /// Slot events compared (the common prefix length).
    pub compared: u64,
    /// First slot whose events differ, with both sides, if any.
    pub first_divergence: Option<(SlotEvent, SlotEvent)>,
}

impl DiffReport {
    /// Whether the backends produced identical slot streams end to end.
    pub fn agree(&self) -> bool {
        self.first_divergence.is_none() && self.slots_a == self.slots_b
    }
}

/// Replay the same trial on two specs (typically the same run
/// re-targeted via [`LensSpec::with_engine`]) and pinpoint the first
/// diverging slot.
pub fn diff(a: &LensSpec, b: &LensSpec, seed: u64) -> Result<DiffReport, SpecError> {
    let cap = a.max_slots.max(b.max_slots);
    if cap > MAX_CAPTURE as u64 {
        return Err(SpecError::Invalid(format!(
            "diff captures every slot; max_slots must be ≤ {MAX_CAPTURE}"
        )));
    }
    let out_a = replay(a, seed, cap as usize, false)?;
    let out_b = replay(b, seed, cap as usize, false)?;
    let compared = out_a.events.len().min(out_b.events.len());
    let mut first = None;
    for i in 0..compared {
        if out_a.events[i] != out_b.events[i] {
            first = Some((out_a.events[i], out_b.events[i]));
            break;
        }
    }
    Ok(DiffReport {
        slots_a: out_a.slots_seen,
        slots_b: out_b.slots_seen,
        compared: compared as u64,
        first_divergence: first,
    })
}
