//! Cross-engine agreement for protocol-driven termination.
//!
//! `UniformProtocol::finished()` used to be honored only by the cohort
//! loop; the per-station `PerStation` path ran a finished protocol to the
//! slot cap. With the unified `SimCore`, both backends consult the same
//! `StationSet::finished()` hook, so an `Estimation`-style protocol must
//! now stop both engines at the *same* slot.
//!
//! To compare stop slots across engines at all, the protocol must be
//! silent: the two backends consume randomness differently (n Bernoulli
//! draws vs one binomial draw), so any transmission desynchronizes the
//! channel sequences. A listen-only probe makes both runs fully
//! deterministic — every slot is a `Null` (or a jammed `Collision`, which
//! the deterministic saturating adversary places identically in both runs
//! because the channel history is identical) — and the real
//! `EstimationProtocol` state machine decides the stop slot on its own.
//!
//! The second half of this suite validates the **fast exact backend**
//! (`run_fast_exact`, per-station counter streams) against the legacy
//! shared-stream discipline — every station drawn from the engine's one
//! sequential stream in index order, which lives on as the multi-hop
//! backend's `Shared` mode on the complete graph (`run_multihop_std`;
//! the `exact_*` golden fixtures pin its bits). Same-stop-slot agreement
//! on deterministic protocols, and KS/chi-square statistical equivalence
//! on election-slot, winner-identity, and energy distributions across
//! protocols × CD models × jamming strategies. All seeds are fixed, so
//! the statistical verdicts are deterministic (no flaky re-rolls); the
//! tests run at `α = 0.001` per comparison.

use jle_adversary::{AdversarySpec, JamStrategyKind, Rate};
use jle_analysis::{chi_square_two_sample, ks_two_sample};
use jle_engine::{
    run_cohort, run_fast_exact, run_fast_exact_faulty, run_multihop_std, CohortStations,
    EngineMetrics, FastExactStations, FaultPlan, FaultyStation, PerStation, Protocol,
    RngDiscipline, RunReport, SimConfig, SimCore, TelemetryObserver, UniformProtocol,
};
use jle_protocols::estimation::EstimationProtocol;
use jle_protocols::{LeskProtocol, LesuProtocol};
use jle_radio::{CdModel, ChannelState, Topology};
use jle_telemetry::{FlightRecorder, MetricRegistry};
use std::sync::Arc;

/// The real `Estimation(L)` state machine with its transmissions muted.
#[derive(Debug, Clone)]
struct SilencedEstimation(EstimationProtocol);

impl SilencedEstimation {
    fn new(l_threshold: u64) -> Self {
        SilencedEstimation(EstimationProtocol::new(l_threshold))
    }
}

impl UniformProtocol for SilencedEstimation {
    fn tx_prob(&mut self, _slot: u64) -> f64 {
        0.0
    }
    fn on_state(&mut self, slot: u64, state: ChannelState) {
        self.0.on_state(slot, state)
    }
    fn finished(&self) -> bool {
        self.0.finished()
    }
    fn estimate(&self) -> Option<f64> {
        self.0.estimate()
    }
}

/// The legacy shared-stream reference: `run_multihop_std` on the complete
/// graph under the `Shared` discipline.
fn run_shared(
    config: &SimConfig,
    adv: &AdversarySpec,
    factory: impl FnMut(u64) -> Box<dyn Protocol>,
) -> RunReport {
    run_multihop_std(config, adv, &Topology::Complete, RngDiscipline::Shared, factory)
}

/// All-Null channel: `Estimation(5)` fails rounds 1 (2 Nulls) and 2
/// (4 Nulls) and returns in round 3 after 2 + 4 + 8 = 14 slots.
#[test]
fn estimation_stops_both_engines_at_the_same_slot() {
    let config = SimConfig::new(8, CdModel::Strong).with_seed(77).with_max_slots(10_000);
    let adv = AdversarySpec::passive();
    let cohort = run_cohort(&config, &adv, || SilencedEstimation::new(5));
    let exact =
        run_fast_exact(&config, &adv, |_| Box::new(PerStation::new(SilencedEstimation::new(5))));
    assert_eq!(cohort.slots, 14, "rounds 1+2+3 = 2+4+8 slots");
    assert_eq!(exact.slots, cohort.slots, "engines must stop at the same slot");
    assert!(!cohort.timed_out && !exact.timed_out, "a finished run is not a timeout");
    assert_eq!(cohort.resolved_at, None);
    assert_eq!(exact.resolved_at, None);
}

/// Same agreement under jamming: jammed slots read as `Collision`, so the
/// probe needs more rounds to collect its Nulls — and both engines must
/// still agree, because the silent channel gives the (deterministic)
/// saturating adversary identical histories to jam against.
#[test]
fn estimation_stops_both_engines_at_the_same_slot_under_jamming() {
    let spec = AdversarySpec::new(Rate::from_f64(0.5), 8, JamStrategyKind::Saturating);
    let config = SimConfig::new(8, CdModel::Strong).with_seed(78).with_max_slots(10_000);
    let cohort = run_cohort(&config, &spec, || SilencedEstimation::new(5));
    let exact =
        run_fast_exact(&config, &spec, |_| Box::new(PerStation::new(SilencedEstimation::new(5))));
    assert_eq!(exact.slots, cohort.slots, "engines must stop at the same slot");
    assert!(cohort.counts.jammed > 0, "the adversary must actually jam");
    assert!(!cohort.timed_out && !exact.timed_out);
    assert_eq!(exact.counts, cohort.counts, "identical deterministic channel sequences");
}

/// The full telemetry stack (metric registry + flight recorder attached
/// as a `TelemetryObserver`) must be invisible to both engines: the
/// cross-engine scenarios above re-run with telemetry produce reports
/// that serialize bit-identically to the bare runs.
#[test]
fn telemetry_attachment_is_invisible_to_both_engines() {
    let dir = std::env::temp_dir().join(format!("jle-cross-engine-tel-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let scenarios: [(u64, AdversarySpec); 2] = [
        (77, AdversarySpec::passive()),
        (78, AdversarySpec::new(Rate::from_f64(0.5), 8, JamStrategyKind::Saturating)),
    ];
    for (seed, adv) in &scenarios {
        let config = SimConfig::new(8, CdModel::Strong).with_seed(*seed).with_max_slots(10_000);
        let bare_cohort = run_cohort(&config, adv, || SilencedEstimation::new(5));
        let bare_exact =
            run_fast_exact(&config, adv, |_| Box::new(PerStation::new(SilencedEstimation::new(5))));

        let registry = MetricRegistry::new();
        let recorder = Arc::new(FlightRecorder::new(&dir).unwrap());
        let observed = |stations: &mut dyn FnMut(&mut TelemetryObserver) -> RunReport| {
            let mut obs = TelemetryObserver::new(&config)
                .with_metrics(EngineMetrics::register(&registry))
                .with_flight_recorder(Arc::clone(&recorder))
                .with_fingerprint("cross-engine")
                .with_context("suite", "cross_engine");
            stations(&mut obs)
        };
        let tel_cohort = observed(&mut |obs| {
            let mut stations = CohortStations::new(SilencedEstimation::new(5));
            SimCore::new(&config, adv).observe(obs).run(&mut stations)
        });
        let tel_exact = observed(&mut |obs| {
            let mut stations = FastExactStations::new(&config, |_| {
                Box::new(PerStation::new(SilencedEstimation::new(5)))
            });
            SimCore::new(&config, adv).observe(obs).run(&mut stations)
        });

        let json = |r: &RunReport| serde_json::to_string(r).unwrap();
        assert_eq!(
            json(&tel_cohort),
            json(&bare_cohort),
            "cohort report must be bit-identical with telemetry attached (seed {seed})"
        );
        assert_eq!(
            json(&tel_exact),
            json(&bare_exact),
            "exact report must be bit-identical with telemetry attached (seed {seed})"
        );
        assert_eq!(tel_exact.slots, tel_cohort.slots, "engines still agree under telemetry");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Fast exact backend: agreement and statistical equivalence with the
// legacy shared-stream discipline.
// ---------------------------------------------------------------------------

/// Silent protocols are fully deterministic, so the fast backend must
/// agree with the legacy one *exactly* — stop slot, counts, everything —
/// despite drawing from unrelated random streams (it never draws).
#[test]
fn fast_exact_stops_with_legacy_on_silent_protocols() {
    let scenarios: [(u64, AdversarySpec); 2] = [
        (77, AdversarySpec::passive()),
        (78, AdversarySpec::new(Rate::from_f64(0.5), 8, JamStrategyKind::Saturating)),
    ];
    for (seed, adv) in &scenarios {
        let config = SimConfig::new(8, CdModel::Strong).with_seed(*seed).with_max_slots(10_000);
        let legacy =
            run_shared(&config, adv, |_| Box::new(PerStation::new(SilencedEstimation::new(5))));
        let fast =
            run_fast_exact(&config, adv, |_| Box::new(PerStation::new(SilencedEstimation::new(5))));
        assert_eq!(fast.slots, legacy.slots, "same stop slot (seed {seed})");
        assert_eq!(fast.counts, legacy.counts, "same channel sequence (seed {seed})");
        assert_eq!(fast.energy, legacy.energy, "same energy (seed {seed})");
        assert!(!fast.timed_out);
    }
}

/// Which election protocol a statistical scenario runs.
#[derive(Debug, Clone, Copy)]
enum Proto {
    Lesk,
    Lesu,
}

impl Proto {
    fn build(self) -> Box<dyn Protocol> {
        match self {
            Proto::Lesk => Box::new(PerStation::new(LeskProtocol::new(0.5))),
            Proto::Lesu => Box::new(PerStation::new(LesuProtocol::new())),
        }
    }

    /// Network size for the scenario. LESU spends a long estimation
    /// phase before electing (runs are ~100x longer than LESK's), so its
    /// scenarios use a smaller network to keep the dev-profile suite
    /// fast; the backends are compared on identical scenarios either way.
    fn n(self) -> u64 {
        match self {
            Proto::Lesk => 48,
            Proto::Lesu => 24,
        }
    }

    /// Monte-Carlo trials per backend per CD model (same runtime
    /// reasoning as [`Proto::n`]; LESU still contributes 60 × 3 CD
    /// models = 180 paired samples per adversary).
    fn trials(self) -> u64 {
        match self {
            Proto::Lesk => 150,
            Proto::Lesu => 60,
        }
    }

    /// Slot cap. LESU resolves in tens of slots where it resolves at all
    /// (strong CD), but without collision detection its runs walk the
    /// whole budget — capped runs are censored *identically* on both
    /// backends (both report `slots = max_slots`), so a tight cap keeps
    /// the comparison sound while bounding the runtime.
    fn max_slots(self) -> u64 {
        match self {
            Proto::Lesk => 200_000,
            Proto::Lesu => 30_000,
        }
    }
}

/// Per-backend Monte-Carlo samples of the three observables the
/// equivalence suite compares.
struct Samples {
    /// Run length in slots (election time, or the cap for timeouts).
    slots: Vec<f64>,
    /// Total channel accesses (transmissions + listens).
    energy: Vec<f64>,
    /// Winner-identity histogram, bucketed so chi-square cells stay
    /// well-populated at modest trial counts.
    winners: Vec<u64>,
}

const WINNER_BUCKETS: usize = 8;

fn sample(
    run: impl Fn(&SimConfig) -> RunReport,
    n: u64,
    trials: u64,
    max_slots: u64,
    cd: CdModel,
    base_seed: u64,
) -> Samples {
    let mut s = Samples { slots: Vec::new(), energy: Vec::new(), winners: vec![0; WINNER_BUCKETS] };
    for t in 0..trials {
        let config = SimConfig::new(n, cd).with_seed(base_seed + t).with_max_slots(max_slots);
        let r = run(&config);
        s.slots.push(r.slots as f64);
        s.energy.push(r.energy.total() as f64);
        if let Some(w) = r.winner {
            s.winners[(w as usize * WINNER_BUCKETS) / n as usize] += 1;
        }
    }
    s
}

/// Run one protocol × adversary scenario through both disciplines under
/// every CD model and require KS/chi-square equivalence on
/// election slots, energy, and winner identity at `α = 0.001`.
fn assert_backends_equivalent(proto: Proto, adv: &AdversarySpec, base_seed: u64) {
    let (n, trials, cap) = (proto.n(), proto.trials(), proto.max_slots());
    for cd in [CdModel::Strong, CdModel::Weak, CdModel::NoCd] {
        let legacy =
            sample(|c| run_shared(c, adv, |_| proto.build()), n, trials, cap, cd, base_seed);
        let fast =
            sample(|c| run_fast_exact(c, adv, |_| proto.build()), n, trials, cap, cd, base_seed);

        let ks_slots = ks_two_sample(&legacy.slots, &fast.slots);
        assert!(
            ks_slots.equivalent(),
            "{proto:?}/{cd:?}: election-slot distributions diverge \
             (D = {:.4} > {:.4})",
            ks_slots.statistic,
            ks_slots.critical
        );
        let ks_energy = ks_two_sample(&legacy.energy, &fast.energy);
        assert!(
            ks_energy.equivalent(),
            "{proto:?}/{cd:?}: energy distributions diverge (D = {:.4} > {:.4})",
            ks_energy.statistic,
            ks_energy.critical
        );
        let resolved: u64 = legacy.winners.iter().chain(fast.winners.iter()).sum();
        if resolved > 0 {
            let chi = chi_square_two_sample(&legacy.winners, &fast.winners);
            assert!(
                chi.equivalent(),
                "{proto:?}/{cd:?}: winner-identity distributions diverge \
                 (χ² = {:.2} > {:.2}, dof {})",
                chi.statistic,
                chi.critical,
                chi.dof
            );
        }
    }
}

#[test]
fn fast_exact_equivalent_lesk_passive() {
    assert_backends_equivalent(Proto::Lesk, &AdversarySpec::passive(), 0x1000);
}

#[test]
fn fast_exact_equivalent_lesk_saturating() {
    let adv = AdversarySpec::new(Rate::from_f64(0.5), 16, JamStrategyKind::Saturating);
    assert_backends_equivalent(Proto::Lesk, &adv, 0x2000);
}

#[test]
fn fast_exact_equivalent_lesk_random_jammer() {
    let adv = AdversarySpec::new(Rate::from_f64(0.5), 16, JamStrategyKind::Random { prob: 0.7 });
    assert_backends_equivalent(Proto::Lesk, &adv, 0x3000);
}

#[test]
fn fast_exact_equivalent_lesu_passive() {
    assert_backends_equivalent(Proto::Lesu, &AdversarySpec::passive(), 0x4000);
}

#[test]
fn fast_exact_equivalent_lesu_saturating() {
    let adv = AdversarySpec::new(Rate::from_f64(0.5), 16, JamStrategyKind::Saturating);
    assert_backends_equivalent(Proto::Lesu, &adv, 0x5000);
}

#[test]
fn fast_exact_equivalent_lesu_random_jammer() {
    let adv = AdversarySpec::new(Rate::from_f64(0.5), 16, JamStrategyKind::Random { prob: 0.7 });
    assert_backends_equivalent(Proto::Lesu, &adv, 0x6000);
}

/// The fault subsystem through both disciplines: the `FaultPlan` schedule
/// is derived from plan-private streams (identical either way), so the
/// degradation statistics must match distributionally too. The shared arm
/// wraps the planned stations in the public `FaultyStation` adapter and
/// applies the plan's post-run verdict, as the faulty backend does.
#[test]
fn fast_exact_equivalent_under_fault_plan() {
    const N: u64 = 48;
    const TRIALS: u64 = 150;
    let adv = AdversarySpec::passive();
    let collect = |fast: bool| {
        let mut slots = Vec::new();
        let mut outcomes = [0u64; 2]; // [elected, not elected]
        for t in 0..TRIALS {
            let config =
                SimConfig::new(N, CdModel::Strong).with_seed(0x7000 + t).with_max_slots(200_000);
            let plan = FaultPlan::new(900 + t)
                .with_random_crashes(N, 0.2, 2_000)
                .with_recoveries(500)
                .with_staggered_wakeups(N, 256);
            let factory =
                |_| Box::new(PerStation::new(LeskProtocol::new(0.5))) as Box<dyn Protocol>;
            let r = if fast {
                run_fast_exact_faulty(&config, &adv, &plan, factory)
            } else {
                let mut r = run_shared(&config, &adv, |i| match plan.get(i) {
                    None => factory(i),
                    Some(f) => Box::new(FaultyStation::new(
                        f.clone(),
                        plan.station_seed(i),
                        Box::new(move || factory(i)),
                    )),
                });
                plan.judge_leader_crash(&config, &mut r);
                r
            };
            slots.push(r.slots as f64);
            outcomes[usize::from(!r.leader_elected())] += 1;
        }
        (slots, outcomes)
    };
    let (legacy_slots, legacy_outcomes) = collect(false);
    let (fast_slots, fast_outcomes) = collect(true);
    let ks = ks_two_sample(&legacy_slots, &fast_slots);
    assert!(
        ks.equivalent(),
        "faulty election-slot distributions diverge (D = {:.4} > {:.4})",
        ks.statistic,
        ks.critical
    );
    let chi = chi_square_two_sample(&legacy_outcomes, &fast_outcomes);
    assert!(
        chi.equivalent(),
        "outcome mix diverges: legacy {legacy_outcomes:?} vs fast {fast_outcomes:?}"
    );
}
