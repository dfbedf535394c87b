//! Per-slot instrumentation layers for the unified core.
//!
//! A [`SlotObserver`] sees every played slot (ground truth plus aggregate
//! actions) and may fill report fields when the run ends. Optional layers
//! (live throughput for the orchestrator, telemetry, split-brain
//! tracking, slot taxonomy in `jle-protocols`) compose this way without
//! touching the loop; energy accounting and trace recording are part of
//! the report contract and live in the core's per-trial lane.
//!
//! Observers are strictly passive: they run after the slot's randomness
//! (winner draw included) is drawn and before feedback, and must not
//! influence the simulation (the golden-seed suite pins this — attaching
//! or detaching observers never changes a report's simulation fields).

use crate::core::SlotActions;
use crate::report::RunReport;
use jle_radio::SlotTruth;

/// One station's protocol-internal state, sampled at the end of a slot
/// (after feedback) for replay timelines and state-transition debugging.
///
/// Produced by [`crate::Protocol::state_probe`] implementations and
/// collected by [`crate::StationSet::collect_probes`]; delivered to
/// observers that opted in via [`SlotObserver::wants_probes`]. `state` is
/// a protocol-chosen static label (e.g. LESK's `"electing"`, a lease
/// protocol's `"leading"`); `value` an optional scalar (LESK's estimate
/// `u`, a lease epoch).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateProbe {
    /// Station id the probe describes.
    pub station: u64,
    /// Protocol-chosen state label.
    pub state: &'static str,
    /// Optional protocol-internal scalar.
    pub value: Option<f64>,
}

/// A passive per-slot instrumentation layer (see the module docs).
pub trait SlotObserver {
    /// Whether this observer consumes the per-slot protocol estimate. The
    /// core queries [`crate::StationSet::estimate`] — an O(n) scan on the
    /// exact engine — only if some attached observer wants it.
    fn wants_estimate(&self) -> bool {
        false
    }

    /// Whether this observer consumes per-station [`StateProbe`]s. The
    /// core collects probes — an O(n) scan — only if some attached
    /// observer wants them; the disabled path costs one branch per slot.
    fn wants_probes(&self) -> bool {
        false
    }

    /// Called once per played slot, after feedback has been delivered,
    /// with every station's [`StateProbe`] (stations whose protocol
    /// returns `None` are absent). Only called when
    /// [`SlotObserver::wants_probes`] held for this observer.
    fn on_probes(&mut self, slot: u64, probes: &[StateProbe]) {
        let _ = (slot, probes);
    }

    /// Called once per played slot, after the slot's randomness is fully
    /// drawn (the winner draw of a resolving slot included) and before
    /// feedback. `estimate` is `Some` only if
    /// [`SlotObserver::wants_estimate`] held for some observer.
    fn on_slot(
        &mut self,
        slot: u64,
        truth: &SlotTruth,
        actions: &SlotActions,
        estimate: Option<f64>,
    );

    /// Called once when the run ends, before backend finalization; the
    /// observer may deposit its accumulated result on the report.
    fn finish(&mut self, report: &mut RunReport) {
        let _ = report;
    }

    /// Called once after backend finalization, with the *final* report —
    /// every field (`cap_hit`, `leader_crashed`, `leaders`, …) is settled.
    /// Read-only by design: this is where telemetry layers classify
    /// anomalies and update metrics without being able to perturb the
    /// result.
    fn after_run(&mut self, report: &RunReport) {
        let _ = report;
    }
}

/// Blanket impl so `&mut O` can be attached where an observer is expected.
impl<O: SlotObserver + ?Sized> SlotObserver for &mut O {
    fn wants_estimate(&self) -> bool {
        (**self).wants_estimate()
    }
    fn wants_probes(&self) -> bool {
        (**self).wants_probes()
    }
    fn on_probes(&mut self, slot: u64, probes: &[StateProbe]) {
        (**self).on_probes(slot, probes)
    }
    fn on_slot(
        &mut self,
        slot: u64,
        truth: &SlotTruth,
        actions: &SlotActions,
        estimate: Option<f64>,
    ) {
        (**self).on_slot(slot, truth, actions, estimate)
    }
    fn finish(&mut self, report: &mut RunReport) {
        (**self).finish(report)
    }
    fn after_run(&mut self, report: &RunReport) {
        (**self).after_run(report)
    }
}

/// Live slots/sec telemetry: batches played slots and hands the count to a
/// sink every `interval` slots (plus a final flush), so a long run reports
/// progress while it is still inside the loop. The orchestrator wires the
/// sink to its atomic [`Stats`] counters — see
/// `jle_orchestrator::telemetry`.
///
/// The batching keeps the per-slot cost to one increment; pick `interval`
/// large enough that the sink (typically an atomic add) stays off the hot
/// path.
pub struct ThroughputObserver<F: FnMut(u64)> {
    interval: u64,
    pending: u64,
    sink: F,
}

impl<F: FnMut(u64)> ThroughputObserver<F> {
    /// Flush `sink` every `interval` played slots (minimum 1).
    pub fn new(interval: u64, sink: F) -> Self {
        ThroughputObserver { interval: interval.max(1), pending: 0, sink }
    }
}

impl<F: FnMut(u64)> std::fmt::Debug for ThroughputObserver<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThroughputObserver")
            .field("interval", &self.interval)
            .field("pending", &self.pending)
            .finish_non_exhaustive()
    }
}

impl<F: FnMut(u64)> SlotObserver for ThroughputObserver<F> {
    fn on_slot(&mut self, _: u64, _: &SlotTruth, _: &SlotActions, _: Option<f64>) {
        self.pending += 1;
        if self.pending >= self.interval {
            (self.sink)(self.pending);
            self.pending = 0;
        }
    }

    fn finish(&mut self, _: &mut RunReport) {
        if self.pending > 0 {
            (self.sink)(self.pending);
            self.pending = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_observer_batches_and_flushes() {
        let mut seen: Vec<u64> = Vec::new();
        {
            let mut t = ThroughputObserver::new(4, |k| seen.push(k));
            let actions = SlotActions::default();
            for slot in 0..10 {
                t.on_slot(slot, &SlotTruth::IDLE, &actions, None);
            }
            t.finish(&mut RunReport::default());
            // A second finish must not double-flush.
            t.finish(&mut RunReport::default());
        }
        assert_eq!(seen, vec![4, 4, 2]);
    }

    #[test]
    fn zero_interval_is_clamped() {
        let mut total = 0u64;
        let mut t = ThroughputObserver::new(0, |k| total += k);
        t.on_slot(0, &SlotTruth::IDLE, &SlotActions::default(), None);
        assert_eq!(total, 1, "interval 0 behaves as 1");
    }
}
