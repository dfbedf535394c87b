//! Engine ↔ telemetry glue: a [`TelemetryObserver`] for the
//! [`crate::SlotObserver`] stack, the `jle_engine_*` metric family, and a
//! panic postmortem helper for [`crate::catch_trial`].
//!
//! The observer is strictly passive (it never draws randomness and never
//! mutates the report — `tests/telemetry_invariance.rs` re-runs every
//! golden-seed fixture with it attached and asserts bit-identical
//! reports). Per slot it does one ring-buffer write; everything heavier —
//! metric updates, anomaly classification, flight-record dumps — happens
//! once per run in [`SlotObserver::after_run`], where the final report is
//! settled.

use crate::config::SimConfig;
use crate::core::SlotActions;
use crate::observer::SlotObserver;
use crate::report::{Outcome, RunReport};
use jle_radio::SlotTruth;
use jle_telemetry::{
    AnomalyKind, Counter, FlightRecord, FlightRecorder, FlightRing, Gauge, Histogram,
    MetricRegistry, SlotEvent,
};
use std::path::PathBuf;
use std::sync::Arc;

/// The engine's metric family (`jle_engine_*`), registered once per
/// registry and shared by every [`TelemetryObserver`] built from it.
#[derive(Debug, Clone)]
pub struct EngineMetrics {
    /// `jle_engine_slots_total` — channel slots simulated.
    pub slots_total: Counter,
    /// `jle_engine_runs_total` — simulation runs completed.
    pub runs_total: Counter,
    /// `jle_engine_election_slots` — slots to the first clean `Single`,
    /// observed only for runs that resolved.
    pub election_slots: Histogram,
    /// `jle_engine_energy_per_station` — per-station channel accesses
    /// (transmissions + listens, averaged over `n`).
    pub energy_per_station: Histogram,
    /// `jle_engine_adv_budget_spent` — fraction of the adversary's
    /// jamming allowance spent in the most recent run.
    pub adv_budget_spent: Gauge,
    /// `jle_engine_awake_stations` — stations that were up (transmitting
    /// or listening) in the last observed slot. On duty-cycled workloads
    /// this is the live size of the fast backend's awake set, the
    /// quantity its O(awake) slot cost scales with.
    pub awake_stations: Gauge,
    /// `jle_engine_anomalies_total` — anomalies detected across runs.
    pub anomalies_total: Counter,
    /// `jle_engine_split_brain_windows_total` — maximal slot windows with
    /// ≥2 concurrent leadership believers, across observed runs.
    pub split_brain_windows_total: Counter,
    /// `jle_engine_split_brain_slots_total` — slots spent with ≥2
    /// concurrent believers, across observed runs.
    pub split_brain_slots_total: Counter,
    /// `jle_engine_reelections_total` — lease-loss re-elections across
    /// observed runs.
    pub reelections_total: Counter,
    /// `jle_engine_multihop_cluster_resolved_total` — clusters that
    /// resolved a leader, across observed multi-hop runs.
    pub multihop_cluster_resolved_total: Counter,
    /// `jle_engine_cross_cluster_interference_slots` — node-slot events
    /// where a foreign cluster manufactured a collision, across observed
    /// multi-hop runs.
    pub cross_cluster_interference_slots: Counter,
}

impl EngineMetrics {
    /// Register (or fetch) the family on `registry`.
    pub fn register(registry: &MetricRegistry) -> Self {
        EngineMetrics {
            slots_total: registry
                .counter("jle_engine_slots_total", "channel slots simulated by observed runs"),
            runs_total: registry.counter("jle_engine_runs_total", "observed simulation runs"),
            election_slots: registry.histogram(
                "jle_engine_election_slots",
                "slots until the first clean Single (resolved runs only)",
            ),
            energy_per_station: registry.histogram(
                "jle_engine_energy_per_station",
                "per-station channel accesses (tx + listen) per run",
            ),
            adv_budget_spent: registry.gauge(
                "jle_engine_adv_budget_spent",
                "fraction of the adversary's jamming allowance spent (last observed run)",
            ),
            awake_stations: registry.gauge(
                "jle_engine_awake_stations",
                "stations up (tx + listen) in the last observed slot",
            ),
            anomalies_total: registry
                .counter("jle_engine_anomalies_total", "anomalies detected across observed runs"),
            split_brain_windows_total: registry.counter(
                "jle_engine_split_brain_windows_total",
                "slot windows with >=2 concurrent leadership believers",
            ),
            split_brain_slots_total: registry.counter(
                "jle_engine_split_brain_slots_total",
                "slots spent with >=2 concurrent leadership believers",
            ),
            reelections_total: registry.counter(
                "jle_engine_reelections_total",
                "lease-loss re-elections across observed runs",
            ),
            multihop_cluster_resolved_total: registry.counter(
                "jle_engine_multihop_cluster_resolved_total",
                "clusters that resolved a leader across observed multi-hop runs",
            ),
            cross_cluster_interference_slots: registry.counter(
                "jle_engine_cross_cluster_interference_slots",
                "foreign-cluster collision node-slots across observed multi-hop runs",
            ),
        }
    }
}

/// Default flight-ring capacity: enough context to see the adversary's
/// recent cadence without bloating the postmortem artifact.
pub const DEFAULT_RING_CAPACITY: usize = 64;

/// A passive telemetry layer for the observer stack: fills a flight ring
/// every slot, then (once, after finalization) updates metrics and dumps
/// a [`FlightRecord`] if the run ended anomalously.
///
/// ```
/// use jle_adversary::AdversarySpec;
/// use jle_engine::{telemetry::TelemetryObserver, CohortStations, SimConfig, SimCore};
/// use jle_engine::UniformProtocol;
/// use jle_radio::{CdModel, ChannelState};
///
/// struct Silent;
/// impl UniformProtocol for Silent {
///     fn tx_prob(&mut self, _: u64) -> f64 { 0.0 }
///     fn on_state(&mut self, _: u64, _: ChannelState) {}
/// }
///
/// let config = SimConfig::new(4, CdModel::Strong).with_seed(1).with_max_slots(32);
/// let mut obs = TelemetryObserver::new(&config);
/// let mut stations = CohortStations::new(Silent);
/// let report = SimCore::new(&config, &AdversarySpec::passive())
///     .observe(&mut obs)
///     .run(&mut stations);
/// assert_eq!(report.slots, 32);
/// ```
pub struct TelemetryObserver {
    ring: FlightRing,
    seed: u64,
    n: u64,
    fingerprint: Option<String>,
    context: Vec<(String, String)>,
    metrics: Option<EngineMetrics>,
    recorder: Option<Arc<FlightRecorder>>,
    artifacts: Vec<PathBuf>,
    last_awake: u64,
}

impl TelemetryObserver {
    /// An observer for a run of `config` (captures the seed and station
    /// count; attach it with [`crate::SimCore::observe`]).
    pub fn new(config: &SimConfig) -> Self {
        TelemetryObserver {
            ring: FlightRing::new(DEFAULT_RING_CAPACITY),
            seed: config.seed,
            n: config.n,
            fingerprint: None,
            context: Vec::new(),
            metrics: None,
            recorder: None,
            artifacts: Vec::new(),
            last_awake: 0,
        }
    }

    /// Keep the last `capacity` slot events instead of the default.
    pub fn with_ring_capacity(mut self, capacity: usize) -> Self {
        self.ring = FlightRing::new(capacity);
        self
    }

    /// Update `metrics` when the run ends.
    pub fn with_metrics(mut self, metrics: EngineMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Dump a flight record through `recorder` when the run ends
    /// anomalously.
    pub fn with_flight_recorder(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Stamp dumps with the owning work unit's config fingerprint.
    pub fn with_fingerprint(mut self, fp: impl Into<String>) -> Self {
        self.fingerprint = Some(fp.into());
        self
    }

    /// Stamp dumps with one context key/value pair (experiment id, trial
    /// index, …).
    pub fn with_context(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.context.push((key.into(), value.into()));
        self
    }

    /// Flight-record artifacts written so far by this observer.
    pub fn artifacts(&self) -> &[PathBuf] {
        &self.artifacts
    }

    /// The flight ring (for tests and external anomaly hooks).
    pub fn ring(&self) -> &FlightRing {
        &self.ring
    }

    /// Dump a flight record for an externally detected anomaly (e.g. a
    /// supervisor restart harvested after the run) with the ring's current
    /// contents. No-op without a recorder.
    pub fn dump_anomaly(&mut self, kind: AnomalyKind, detail: impl Into<String>) {
        let Some(recorder) = self.recorder.as_ref() else { return };
        let mut record = FlightRecord::new(kind, self.seed, &self.ring).with_detail(detail.into());
        record.fingerprint = self.fingerprint.clone();
        record.context = self.context.clone();
        if let Some(m) = &self.metrics {
            m.anomalies_total.inc();
        }
        if let Ok(Some(path)) = recorder.dump(&record) {
            self.artifacts.push(path);
        }
    }

    /// The dominant anomaly of a settled report, if any (the flight
    /// recorder dumps one record per run, for the most severe condition:
    /// validity violations dominate liveness failures dominate cap hits).
    pub fn classify(report: &RunReport) -> Option<(AnomalyKind, String)> {
        match report.outcome() {
            Outcome::MultiLeader => Some((
                AnomalyKind::MultiLeader,
                format!("{} stations terminated as Leader", report.leaders.len()),
            )),
            Outcome::SplitBrain => Some((
                AnomalyKind::SplitBrain,
                format!(
                    "unresolved split brain: believers {:?} after {} split window(s), \
                     longest {} slot(s)",
                    report.split_brain.believers,
                    report.split_brain.windows,
                    report.split_brain.longest_split
                ),
            )),
            Outcome::LeaderCrashed => Some((
                AnomalyKind::LeaderCrashed,
                format!("leader {:?} crashed before the horizon", report.winner),
            )),
            Outcome::DeadlineExceeded => Some((
                AnomalyKind::CapHit,
                format!("run consumed its {}-slot budget without resolving", report.slots),
            )),
            _ => None,
        }
    }
}

impl std::fmt::Debug for TelemetryObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryObserver")
            .field("seed", &self.seed)
            .field("ring_len", &self.ring.len())
            .field("artifacts", &self.artifacts.len())
            .finish_non_exhaustive()
    }
}

impl SlotObserver for TelemetryObserver {
    fn on_slot(&mut self, slot: u64, truth: &SlotTruth, actions: &SlotActions, _: Option<f64>) {
        self.last_awake = actions.transmitters + actions.listeners;
        self.ring.push(SlotEvent {
            slot,
            transmitters: actions.transmitters,
            listeners: actions.listeners,
            jammed: truth.jammed,
        });
    }

    fn after_run(&mut self, report: &RunReport) {
        if let Some(m) = &self.metrics {
            m.slots_total.add(report.slots);
            m.runs_total.inc();
            if let Some(at) = report.resolved_at {
                m.election_slots.observe(at + 1);
            }
            if let Some(per_station) = report.energy.total().checked_div(self.n) {
                m.energy_per_station.observe(per_station);
            }
            m.adv_budget_spent.set(report.adv_budget_spent);
            m.awake_stations.set(self.last_awake as f64);
            if report.split_brain.tracked {
                m.split_brain_windows_total.add(report.split_brain.windows);
                m.split_brain_slots_total.add(report.split_brain.split_slots);
                m.reelections_total.add(report.split_brain.reelections);
            }
            if let Some(mh) = &report.multihop {
                let resolved = mh.clusters.iter().filter(|c| c.resolved_at.is_some()).count();
                m.multihop_cluster_resolved_total.add(resolved as u64);
                m.cross_cluster_interference_slots.add(mh.cross_cluster_interference);
            }
        }
        if let Some((kind, detail)) = Self::classify(report) {
            if let Some(m) = &self.metrics {
                m.anomalies_total.inc();
            }
            if let Some(recorder) = self.recorder.as_ref() {
                let mut record = FlightRecord::new(kind, self.seed, &self.ring).with_detail(detail);
                record.fingerprint = self.fingerprint.clone();
                record.context = self.context.clone();
                if let Ok(Some(path)) = recorder.dump(&record) {
                    self.artifacts.push(path);
                }
            }
        }
    }
}

/// Postmortem for a panicked trial: [`crate::catch_trial`]
/// destroys the trial's stack (and any in-trial flight ring) during
/// unwinding, so the record carries no slot events — the seed plus
/// fingerprint still replay the trial exactly, which is what a panic
/// postmortem needs.
pub fn dump_panic(
    recorder: &FlightRecorder,
    seed: u64,
    fingerprint: Option<&str>,
    message: &str,
) -> std::io::Result<Option<PathBuf>> {
    let mut record =
        FlightRecord::new(AnomalyKind::Panic, seed, &FlightRing::new(1)).with_detail(message);
    record.fingerprint = fingerprint.map(str::to_string);
    recorder.dump(&record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CohortStations, SimCore, UniformProtocol};
    use jle_adversary::AdversarySpec;
    use jle_radio::{CdModel, ChannelState};

    #[derive(Debug, Clone)]
    struct Silent;
    impl UniformProtocol for Silent {
        fn tx_prob(&mut self, _: u64) -> f64 {
            0.0
        }
        fn on_state(&mut self, _: u64, _: ChannelState) {}
    }

    #[derive(Debug, Clone)]
    struct AlwaysTx;
    impl UniformProtocol for AlwaysTx {
        fn tx_prob(&mut self, _: u64) -> f64 {
            1.0
        }
        fn on_state(&mut self, _: u64, _: ChannelState) {}
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("jle-engine-telemetry-{tag}-{}", std::process::id()))
    }

    #[test]
    fn metrics_update_after_a_run() {
        let reg = MetricRegistry::new();
        let metrics = EngineMetrics::register(&reg);
        let config = SimConfig::new(1, CdModel::Strong).with_seed(3).with_max_slots(100);
        let mut obs = TelemetryObserver::new(&config).with_metrics(metrics.clone());
        let mut stations = CohortStations::new(AlwaysTx);
        let report =
            SimCore::new(&config, &AdversarySpec::passive()).observe(&mut obs).run(&mut stations);
        assert_eq!(report.resolved_at, Some(0), "one always-tx station resolves immediately");
        assert_eq!(metrics.runs_total.get(), 1);
        assert_eq!(metrics.slots_total.get(), report.slots);
        assert_eq!(metrics.election_slots.count(), 1);
        assert_eq!(metrics.election_slots.sum(), 1, "resolved at slot 0 → 1 slot");
        assert_eq!(metrics.anomalies_total.get(), 0);
    }

    #[test]
    fn cap_hit_dumps_a_flight_record_with_ring_context() {
        let dir = tmp_dir("cap");
        let _ = std::fs::remove_dir_all(&dir);
        let recorder = Arc::new(FlightRecorder::new(&dir).unwrap());
        // A silent cohort can never resolve: the run must hit the cap.
        let config = SimConfig::new(4, CdModel::Strong).with_seed(11).with_max_slots(50);
        let mut obs = TelemetryObserver::new(&config)
            .with_ring_capacity(8)
            .with_flight_recorder(Arc::clone(&recorder))
            .with_fingerprint("cafe1234")
            .with_context("experiment", "unit-test");
        let mut stations = CohortStations::new(Silent);
        let report =
            SimCore::new(&config, &AdversarySpec::passive()).observe(&mut obs).run(&mut stations);
        assert!(report.cap_hit);
        assert_eq!(obs.artifacts().len(), 1, "one postmortem for the cap hit");
        let text = std::fs::read_to_string(&obs.artifacts()[0]).unwrap();
        let record: FlightRecord = serde_json::from_str(&text).unwrap();
        assert_eq!(record.anomaly, AnomalyKind::CapHit);
        assert_eq!(record.seed, 11);
        assert_eq!(record.fingerprint.as_deref(), Some("cafe1234"));
        assert_eq!(record.slots_seen, 50);
        assert_eq!(record.events.len(), 8, "ring kept the last 8 slots");
        assert_eq!(record.events.last().unwrap().slot, 49);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn healthy_run_dumps_nothing() {
        let dir = tmp_dir("healthy");
        let _ = std::fs::remove_dir_all(&dir);
        let recorder = Arc::new(FlightRecorder::new(&dir).unwrap());
        let config = SimConfig::new(1, CdModel::Strong).with_seed(5).with_max_slots(100);
        let mut obs = TelemetryObserver::new(&config).with_flight_recorder(Arc::clone(&recorder));
        let mut stations = CohortStations::new(AlwaysTx);
        let report =
            SimCore::new(&config, &AdversarySpec::passive()).observe(&mut obs).run(&mut stations);
        assert!(report.leader_elected());
        assert!(obs.artifacts().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn external_anomalies_can_be_dumped_post_run() {
        let dir = tmp_dir("external");
        let _ = std::fs::remove_dir_all(&dir);
        let recorder = Arc::new(FlightRecorder::new(&dir).unwrap());
        let config = SimConfig::new(1, CdModel::Strong).with_seed(5).with_max_slots(100);
        let mut obs = TelemetryObserver::new(&config).with_flight_recorder(Arc::clone(&recorder));
        let mut stations = CohortStations::new(AlwaysTx);
        let _ =
            SimCore::new(&config, &AdversarySpec::passive()).observe(&mut obs).run(&mut stations);
        obs.dump_anomaly(AnomalyKind::SupervisorRestart, "watchdog fired at slot 42");
        assert_eq!(obs.artifacts().len(), 1);
        let record: FlightRecord =
            serde_json::from_str(&std::fs::read_to_string(&obs.artifacts()[0]).unwrap()).unwrap();
        assert_eq!(record.anomaly, AnomalyKind::SupervisorRestart);
        assert!(record.detail.contains("slot 42"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dump_panic_writes_a_replayable_record() {
        let dir = tmp_dir("panic");
        let _ = std::fs::remove_dir_all(&dir);
        let recorder = FlightRecorder::new(&dir).unwrap();
        let path = dump_panic(&recorder, 99, Some("feedface"), "index out of bounds")
            .unwrap()
            .expect("under the cap");
        let record: FlightRecord =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(record.anomaly, AnomalyKind::Panic);
        assert_eq!(record.seed, 99);
        assert_eq!(record.fingerprint.as_deref(), Some("feedface"));
        assert!(record.detail.contains("index out of bounds"));
        assert!(record.events.is_empty(), "panic unwinding destroys the ring");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn awake_gauge_tracks_the_last_slot() {
        let reg = MetricRegistry::new();
        let metrics = EngineMetrics::register(&reg);
        let config = SimConfig::new(4, CdModel::Strong).with_seed(2).with_max_slots(10);
        let mut obs = TelemetryObserver::new(&config).with_metrics(metrics.clone());
        let mut stations = CohortStations::new(Silent);
        let _ =
            SimCore::new(&config, &AdversarySpec::passive()).observe(&mut obs).run(&mut stations);
        assert_eq!(metrics.awake_stations.get(), 4.0, "all four silent stations listen");
    }

    #[test]
    fn split_brain_runs_update_counters_and_classify() {
        use crate::report::SplitBrainStats;
        let reg = MetricRegistry::new();
        let metrics = EngineMetrics::register(&reg);
        let config = SimConfig::new(4, CdModel::Strong).with_seed(2).with_max_slots(10);
        let mut obs = TelemetryObserver::new(&config).with_metrics(metrics.clone());
        let mut report = RunReport { slots: 10, ..Default::default() };
        report.split_brain = SplitBrainStats {
            tracked: true,
            windows: 2,
            split_slots: 9,
            longest_split: 6,
            max_believers: 2,
            believers: vec![1, 4],
            reelections: 3,
        };
        obs.after_run(&report);
        assert_eq!(metrics.split_brain_windows_total.get(), 2);
        assert_eq!(metrics.split_brain_slots_total.get(), 9);
        assert_eq!(metrics.reelections_total.get(), 3);
        assert_eq!(metrics.anomalies_total.get(), 1, "unresolved split is an anomaly");
        let (kind, detail) = TelemetryObserver::classify(&report).expect("split at end");
        assert_eq!(kind, AnomalyKind::SplitBrain);
        assert!(detail.contains("believers [1, 4]"), "got {detail}");
        // A converged run updates counters but is not anomalous.
        report.split_brain.believers = vec![4];
        assert!(TelemetryObserver::classify(&report).is_none());
    }

    #[test]
    fn multihop_runs_update_cluster_counters() {
        use crate::report::{ClusterOutcome, MultihopReport};
        let reg = MetricRegistry::new();
        let metrics = EngineMetrics::register(&reg);
        let config = SimConfig::new(6, CdModel::Strong).with_seed(2).with_max_slots(10);
        let mut obs = TelemetryObserver::new(&config).with_metrics(metrics.clone());
        let mut report = RunReport { slots: 10, ..Default::default() };
        report.multihop = Some(MultihopReport {
            topology: "dense-linear:3,2".into(),
            components: 1,
            clusters: vec![
                ClusterOutcome { cluster: 0, size: 3, resolved_at: Some(4), leader: Some(1) },
                ClusterOutcome { cluster: 1, size: 3, resolved_at: None, leader: None },
            ],
            converged_at: None,
            network_leader: None,
            cross_cluster_interference: 7,
        });
        obs.after_run(&report);
        assert_eq!(metrics.multihop_cluster_resolved_total.get(), 1);
        assert_eq!(metrics.cross_cluster_interference_slots.get(), 7);
    }

    #[test]
    fn budget_spend_gauge_reflects_the_adversary() {
        use jle_adversary::{JamStrategyKind, Rate};
        let reg = MetricRegistry::new();
        let metrics = EngineMetrics::register(&reg);
        let adv = AdversarySpec::new(Rate::from_f64(0.5), 8, JamStrategyKind::Saturating);
        let config = SimConfig::new(4, CdModel::Strong).with_seed(2).with_max_slots(64);
        let mut obs = TelemetryObserver::new(&config).with_metrics(metrics.clone());
        let mut stations = CohortStations::new(Silent);
        let report = SimCore::new(&config, &adv).observe(&mut obs).run(&mut stations);
        assert!(report.counts.jammed > 0, "saturating adversary jams");
        let spent = metrics.adv_budget_spent.get();
        assert!(spent > 0.5 && spent <= 1.5, "saturating spend near the allowance, got {spent}");
        assert_eq!(spent, report.adv_budget_spent);
    }
}
