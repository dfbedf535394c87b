//! Telemetry is behaviour-invisible: every golden-seed fixture, re-run
//! with the **full telemetry stack attached** (a `TelemetryObserver` with
//! metrics + flight recorder, plus a `ThroughputObserver`), must produce
//! a byte-identical snapshot to the fixture the bare engines wrote.
//!
//! This is the observability counterpart of the golden suite: observers
//! run after each slot's randomness is fully drawn (DESIGN.md §10), so
//! attaching them may not perturb a single RNG draw, stop decision, or
//! report field. A regression here means telemetry leaked into the
//! simulation.

use jle_adversary::{AdversarySpec, JamStrategyKind, Rate};
use jle_engine::telemetry::{EngineMetrics, TelemetryObserver};
use jle_engine::{
    run_fast_exact_faulty, CohortStations, FastFaultyStations, FaultPlan, MeshProtocol,
    MultihopStations, PerStation, RunReport, SimConfig, SimCore, StationFaults, StdMesh, StopRule,
    ThroughputObserver, UniformProtocol,
};
use jle_radio::{CdModel, ChannelState, Topology};
use jle_telemetry::{FlightRecorder, MetricRegistry};
use std::path::PathBuf;
use std::sync::Arc;

const MAX_SLOTS: u64 = 4_000;
const SEED: u64 = 0xA11CE;

#[derive(Debug, Clone)]
struct Fixed(f64);

impl UniformProtocol for Fixed {
    fn tx_prob(&mut self, _: u64) -> f64 {
        self.0
    }
    fn on_state(&mut self, _: u64, _: ChannelState) {}
}

/// Same history-dependent workload as the golden suite.
#[derive(Debug, Clone)]
struct Backoff {
    u: f64,
}

impl Backoff {
    fn new() -> Self {
        Backoff { u: 0.0 }
    }
}

impl UniformProtocol for Backoff {
    fn tx_prob(&mut self, _: u64) -> f64 {
        2f64.powf(-self.u)
    }
    fn on_state(&mut self, _: u64, state: ChannelState) {
        match state {
            ChannelState::Null => self.u = (self.u - 1.0).max(0.0),
            ChannelState::Collision => self.u += 0.5,
            ChannelState::Single => {}
        }
    }
    fn estimate(&self) -> Option<f64> {
        Some(self.u)
    }
}

#[derive(Debug, Clone)]
struct CountDown(u32);

impl UniformProtocol for CountDown {
    fn tx_prob(&mut self, _: u64) -> f64 {
        0.0
    }
    fn on_state(&mut self, _: u64, _: ChannelState) {
        self.0 -= 1;
    }
    fn finished(&self) -> bool {
        self.0 == 0
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn push(&mut self, byte: u8) {
        self.0 ^= byte as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
    fn push_all(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.push(b);
        }
    }
}

/// Identical snapshot format to `golden_seed.rs` — byte-for-byte.
fn snapshot(report: &RunReport) -> String {
    let body = serde_json::to_string(report).expect("RunReport serializes");
    let trace = match &report.trace {
        None => "null".to_string(),
        Some(t) => {
            let mut h = Fnv::new();
            for s in t.iter() {
                let code = match s.state() {
                    ChannelState::Null => 0u8,
                    ChannelState::Single => 1,
                    ChannelState::Collision => 2,
                };
                let b = code
                    | (u8::from(s.jammed()) << 2)
                    | (u8::from(s.clean_single()) << 3)
                    | (u8::from(s.any_transmitter()) << 4);
                h.push(b);
            }
            for &e in &t.estimates {
                h.push_all(&e.to_bits().to_le_bytes());
            }
            format!(
                "{{\"len\":{},\"estimates\":{},\"digest\":\"{:016x}\"}}",
                t.len(),
                t.estimates.len(),
                h.0
            )
        }
    };
    format!("{{\"report\":{body},\"trace\":{trace}}}\n")
}

/// Read-only fixture comparison (the golden suite owns regeneration).
fn check(name: &str, report: &RunReport) {
    let actual = snapshot(report);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(format!("{name}.json"));
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden fixture {path:?} ({e}); regenerate via the golden_seed suite")
    });
    assert_eq!(actual, expected, "telemetry perturbed the simulation for `{name}`");
}

/// Shared per-process telemetry plumbing: metrics registry + a flight
/// recorder writing into a temp dir (cap-hit fixtures will dump records;
/// the point is that dumping must not change the report).
fn stack() -> (MetricRegistry, Arc<FlightRecorder>, PathBuf) {
    let dir = std::env::temp_dir().join(format!("jle-invariance-{}", std::process::id()));
    let recorder = Arc::new(FlightRecorder::new(&dir).expect("flight dir"));
    (MetricRegistry::new(), recorder, dir)
}

/// Run a station backend under the full telemetry stack and hand back the
/// report. A macro (not a function) so the observers and the `SimCore` can
/// share one scope — `SimCore<'a>` ties its observers to the config borrow.
macro_rules! run_with_stack {
    ($config:expr, $core:expr, $stations:expr) => {{
        let config: &SimConfig = $config;
        let (registry, recorder, _dir) = stack();
        let live = jle_telemetry::Counter::detached();
        let live_sink = live.clone();
        let mut telemetry = TelemetryObserver::new(config)
            .with_metrics(EngineMetrics::register(&registry))
            .with_flight_recorder(recorder)
            .with_fingerprint("invariance-test")
            .with_context("suite", "telemetry_invariance");
        let mut throughput = ThroughputObserver::new(64, move |k| live_sink.add(k));
        let report = $core.observe(&mut telemetry).observe(&mut throughput).run($stations);
        assert_eq!(live.get(), report.slots, "throughput observer saw every slot");
        report
    }};
}

/// The `exact_*` fixtures' shared-stream discipline: the multi-hop
/// backend's default `Shared` mode on the complete graph.
fn exact_observed(
    config: &SimConfig,
    adversary: &AdversarySpec,
    mut factory: impl FnMut(u64) -> Box<dyn jle_engine::Protocol>,
) -> RunReport {
    let topology = Topology::Complete;
    let mut stations = MultihopStations::new(config, &topology, |i| {
        Box::new(StdMesh::new(factory(i))) as Box<dyn MeshProtocol>
    });
    run_with_stack!(config, SimCore::new(config, adversary), &mut stations)
}

fn cohort_observed<U: UniformProtocol>(
    config: &SimConfig,
    adversary: &AdversarySpec,
    factory: impl FnOnce() -> U,
) -> RunReport {
    let mut stations = CohortStations::new(factory());
    run_with_stack!(config, SimCore::new(config, adversary), &mut stations)
}

fn faulty_observed<F>(
    config: &SimConfig,
    adversary: &AdversarySpec,
    plan: &FaultPlan,
    factory: F,
) -> RunReport
where
    F: Fn(u64) -> Box<dyn jle_engine::Protocol> + Send + Sync + 'static,
{
    let mut stations = FastFaultyStations::new(config, plan, factory);
    run_with_stack!(config, SimCore::new(config, adversary), &mut stations)
}

fn saturating() -> AdversarySpec {
    AdversarySpec::new(Rate::from_f64(0.5), 16, JamStrategyKind::Saturating)
}

fn random_jammer() -> AdversarySpec {
    AdversarySpec::new(Rate::from_f64(0.5), 16, JamStrategyKind::Random { prob: 0.7 })
}

fn exact_config(cd: CdModel) -> SimConfig {
    SimConfig::new(12, cd).with_seed(SEED).with_max_slots(MAX_SLOTS).with_trace(true)
}

fn cohort_config(cd: CdModel) -> SimConfig {
    SimConfig::new(64, cd).with_seed(SEED).with_max_slots(MAX_SLOTS).with_trace(true)
}

fn stress_plan() -> FaultPlan {
    FaultPlan::new(3)
        .with_station(1, StationFaults::none().crash_with_recovery(6, 60))
        .with_station(2, StationFaults::none().wake_at(3))
        .with_station(3, StationFaults::none().deaf_between(2, 30))
        .with_station(4, StationFaults::none().flip_prob(0.2))
        .with_station(5, StationFaults::none().crash(10))
}

// ---------------------------------------------------------------- exact --

#[test]
fn observed_exact_strong() {
    let r = exact_observed(&exact_config(CdModel::Strong), &saturating(), |_| {
        Box::new(PerStation::new(Backoff::new()))
    });
    check("exact_strong", &r);
}

#[test]
fn observed_exact_strong_noise() {
    let config = exact_config(CdModel::Strong).with_noise(0.01);
    let r = exact_observed(&config, &saturating(), |_| Box::new(PerStation::new(Backoff::new())));
    check("exact_strong_noise", &r);
}

#[test]
fn observed_exact_weak_random_jammer() {
    let r = exact_observed(&exact_config(CdModel::Weak), &random_jammer(), |_| {
        Box::new(PerStation::new(Backoff::new()))
    });
    check("exact_weak_random_jammer", &r);
}

#[test]
fn observed_exact_nocd() {
    let r = exact_observed(&exact_config(CdModel::NoCd), &saturating(), |_| {
        Box::new(PerStation::new(Backoff::new()))
    });
    check("exact_nocd", &r);
}

#[test]
fn observed_exact_weak_cap() {
    let config =
        exact_config(CdModel::Weak).with_max_slots(1_500).with_stop(StopRule::AllTerminated);
    let r = exact_observed(&config, &saturating(), |_| Box::new(PerStation::new(Backoff::new())));
    check("exact_weak_cap", &r);
}

#[test]
fn observed_exact_all_terminated() {
    let config = exact_config(CdModel::Strong).with_stop(StopRule::AllTerminated);
    let r = exact_observed(&config, &saturating(), |_| Box::new(PerStation::new(Backoff::new())));
    check("exact_all_terminated", &r);
}

// --------------------------------------------------------------- cohort --

#[test]
fn observed_cohort_strong() {
    let r = cohort_observed(&cohort_config(CdModel::Strong), &saturating(), Backoff::new);
    check("cohort_strong", &r);
}

#[test]
fn observed_cohort_weak_random_jammer() {
    let r = cohort_observed(&cohort_config(CdModel::Weak), &random_jammer(), Backoff::new);
    check("cohort_weak_random_jammer", &r);
}

#[test]
fn observed_cohort_nocd() {
    let r = cohort_observed(&cohort_config(CdModel::NoCd), &saturating(), Backoff::new);
    check("cohort_nocd", &r);
}

#[test]
fn observed_cohort_noise() {
    let config = cohort_config(CdModel::Strong).with_noise(0.01);
    let r = cohort_observed(&config, &saturating(), Backoff::new);
    check("cohort_noise", &r);
}

#[test]
fn observed_cohort_continue_past_singles() {
    let config = cohort_config(CdModel::Strong).with_max_slots(512).with_stop(StopRule::Horizon);
    let r = cohort_observed(&config, &saturating(), Backoff::new);
    check("cohort_continue_past_singles", &r);
}

#[test]
fn observed_cohort_finished_protocol() {
    let config = cohort_config(CdModel::Strong);
    let r = cohort_observed(&config, &AdversarySpec::passive(), || CountDown(9));
    check("cohort_finished_protocol", &r);
}

// --------------------------------------------------------------- faulty --

#[test]
fn observed_faulty_strong() {
    let config = exact_config(CdModel::Strong).with_stop(StopRule::AllTerminated);
    let r = faulty_observed(&config, &saturating(), &stress_plan(), |_| {
        Box::new(PerStation::new(Backoff::new()))
    });
    check("fast_faulty_strong", &r);
}

#[test]
fn observed_faulty_weak() {
    // No fixture pins this arm: the bare run is the reference.
    let config = exact_config(CdModel::Weak);
    let factory = |_| Box::new(PerStation::new(Backoff::new())) as Box<dyn jle_engine::Protocol>;
    let bare = run_fast_exact_faulty(&config, &saturating(), &stress_plan(), factory);
    let observed = faulty_observed(&config, &saturating(), &stress_plan(), factory);
    assert_eq!(snapshot(&observed), snapshot(&bare), "telemetry perturbed the faulty weak-CD run");
}

#[test]
fn observed_faulty_nocd() {
    let r = faulty_observed(&exact_config(CdModel::NoCd), &random_jammer(), &stress_plan(), |_| {
        Box::new(PerStation::new(Backoff::new()))
    });
    check("fast_faulty_nocd", &r);
}

// --------------------------------------------------------------- oracle --

#[test]
fn observed_oracle_strong() {
    let config = SimConfig::new(16, CdModel::Strong).with_seed(SEED).with_max_slots(2_000);
    let mut stations = CohortStations::without_leader_claim(Fixed(1.0 / 16.0));
    let r =
        run_with_stack!(&config, SimCore::oracle(&config, Rate::from_f64(0.05), 16), &mut stations);
    check("oracle_strong", &r);
}
