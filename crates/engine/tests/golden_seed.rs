//! Golden-seed regression suite: locks the exact bit-level behavior of the
//! engine entry points (`run_cohort`, `run_fast_exact`,
//! `run_fast_exact_faulty`, `run_fast_exact_churn`, and the oracle negative
//! control) across the three CD models under a jamming adversary.
//!
//! The fixtures under `tests/golden/` must remain byte-for-byte
//! reproducible by any future engine: the serialized `RunReport` plus an
//! FNV-1a digest of the full trace pins the per-slot RNG draw order
//! (adversary decide → station draws → noise Bernoulli → cohort winner
//! draw) and every report-finalization rule. The `exact_*` fixtures pin
//! the single-hop shared-stream discipline; they were captured from the
//! retired shared-stream engine, so they are only ever compared, never
//! rewritten (`check_against_existing`). Here they are replayed through
//! [`run_multihop`]'s default discipline on the complete graph, and
//! `topology_identity.rs` replays them through an explicit `Shared`.
//!
//! Regenerate (only when an intentional behavior change is being made, with
//! an explanation in the commit): `UPDATE_GOLDEN=1 cargo test -p jle-engine
//! --test golden_seed`.

mod common;

use common::*;
use jle_adversary::{AdversarySpec, Rate};
use jle_engine::{
    run_cohort, run_cohort_against_oracle, run_fast_exact, run_fast_exact_churn,
    run_fast_exact_faulty, run_multihop, run_multihop_std, ChurnPlan, FaultPlan, FaultyStation,
    PerStation, Protocol, RngDiscipline, RunReport, SimConfig, StationChurn, StationFaults,
    StdMesh, StopRule,
};
use jle_radio::{CdModel, Topology};

// ---------------------------------------------------------------- exact --

/// The shared-stream single-hop run: [`run_multihop`] keeps `Shared` as
/// its default discipline, and on the complete graph that is the law the
/// `exact_*` fixtures recorded.
fn run_shared(config: &SimConfig, adversary: &AdversarySpec) -> RunReport {
    run_multihop(config, adversary, &Topology::complete(), None, |_| {
        Box::new(StdMesh::new(Box::new(PerStation::new(Backoff::new()))))
    })
}

#[test]
fn golden_exact_strong() {
    let r = run_shared(&exact_config(CdModel::Strong), &saturating());
    check_against_existing("exact_strong", &r);
}

#[test]
fn golden_exact_strong_noise() {
    let config = exact_config(CdModel::Strong).with_noise(0.01);
    check_against_existing("exact_strong_noise", &run_shared(&config, &saturating()));
}

#[test]
fn golden_exact_weak_random_jammer() {
    let r = run_shared(&exact_config(CdModel::Weak), &random_jammer());
    check_against_existing("exact_weak_random_jammer", &r);
}

#[test]
fn golden_exact_nocd() {
    check_against_existing("exact_nocd", &run_shared(&exact_config(CdModel::NoCd), &saturating()));
}

#[test]
fn golden_exact_weak_cap() {
    // Weak-CD winners never learn, so `AllTerminated` never fires: the run
    // walks the full 1500-slot horizon, cycling the jam budget window ~90
    // times and drawing station randomness every slot — the long-run
    // fixture pinning steady-state loop behavior.
    let config =
        exact_config(CdModel::Weak).with_max_slots(1_500).with_stop(StopRule::AllTerminated);
    check_against_existing("exact_weak_cap", &run_shared(&config, &saturating()));
}

#[test]
fn golden_exact_all_terminated() {
    let config = exact_config(CdModel::Strong).with_stop(StopRule::AllTerminated);
    check_against_existing("exact_all_terminated", &run_shared(&config, &saturating()));
}

// --------------------------------------------------------------- cohort --

#[test]
fn golden_cohort_strong() {
    let r = run_cohort(&cohort_config(CdModel::Strong), &saturating(), Backoff::new);
    check("cohort_strong", &r);
}

#[test]
fn golden_cohort_weak_random_jammer() {
    let r = run_cohort(&cohort_config(CdModel::Weak), &random_jammer(), Backoff::new);
    check("cohort_weak_random_jammer", &r);
}

#[test]
fn golden_cohort_nocd() {
    let r = run_cohort(&cohort_config(CdModel::NoCd), &saturating(), Backoff::new);
    check("cohort_nocd", &r);
}

#[test]
fn golden_cohort_noise() {
    let config = cohort_config(CdModel::Strong).with_noise(0.01);
    let r = run_cohort(&config, &saturating(), Backoff::new);
    check("cohort_noise", &r);
}

#[test]
fn golden_cohort_continue_past_singles() {
    let config = cohort_config(CdModel::Strong).with_max_slots(512).with_stop(StopRule::Horizon);
    let r = run_cohort(&config, &saturating(), Backoff::new);
    check("cohort_continue_past_singles", &r);
}

#[test]
fn golden_cohort_finished_protocol() {
    let config = cohort_config(CdModel::Strong);
    let r = run_cohort(&config, &AdversarySpec::passive(), || CountDown(9));
    check("cohort_finished_protocol", &r);
}

// --------------------------------------------------------------- faulty --

/// A plan exercising every fault kind at once.
fn stress_plan() -> FaultPlan {
    FaultPlan::new(3)
        .with_station(1, StationFaults::none().crash_with_recovery(6, 60))
        .with_station(2, StationFaults::none().wake_at(3))
        .with_station(3, StationFaults::none().deaf_between(2, 30))
        .with_station(4, StationFaults::none().flip_prob(0.2))
        .with_station(5, StationFaults::none().crash(10))
}

// ----------------------------------------------------------- fast exact --
//
// The fast backend draws from counter-based per-station streams, so its
// fixtures are *distinct* from (and unrelated to) the legacy `exact_*`
// ones — these pin the fast backend's own draw-order contract
// (DESIGN.md §12): station draws keyed by `(seed, station, slot, draw)`,
// order-independent action phase, heap-driven wake scheduling.
//
// Regenerate only the fast fixtures:
// `UPDATE_GOLDEN=1 cargo test -p jle-engine --test golden_seed fast_`.

#[test]
fn fast_exact_strong() {
    let r = run_fast_exact(&exact_config(CdModel::Strong), &saturating(), |_| {
        Box::new(PerStation::new(Backoff::new()))
    });
    check("fast_exact_strong", &r);
}

#[test]
fn fast_exact_strong_noise() {
    let config = exact_config(CdModel::Strong).with_noise(0.01);
    let r = run_fast_exact(&config, &saturating(), |_| Box::new(PerStation::new(Backoff::new())));
    check("fast_exact_strong_noise", &r);
}

#[test]
fn fast_exact_weak_random_jammer() {
    let r = run_fast_exact(&exact_config(CdModel::Weak), &random_jammer(), |_| {
        Box::new(PerStation::new(Backoff::new()))
    });
    check("fast_exact_weak_random_jammer", &r);
}

#[test]
fn fast_exact_nocd() {
    let r = run_fast_exact(&exact_config(CdModel::NoCd), &saturating(), |_| {
        Box::new(PerStation::new(Backoff::new()))
    });
    check("fast_exact_nocd", &r);
}

#[test]
fn fast_exact_all_terminated() {
    let config = exact_config(CdModel::Strong).with_stop(StopRule::AllTerminated);
    let r = run_fast_exact(&config, &saturating(), |_| Box::new(PerStation::new(Backoff::new())));
    check("fast_exact_all_terminated", &r);
}

#[test]
fn fast_exact_duty_cycled() {
    // Sleep-heavy workload: pins the wake-heap schedule (park order,
    // wake order, prefix compaction) in addition to the draw streams.
    let r = run_fast_exact(&exact_config(CdModel::Strong), &saturating(), |i| {
        Box::new(DutyBackoff::new(4, i))
    });
    check("fast_exact_duty_cycled", &r);
}

#[test]
fn fast_faulty_strong() {
    let config = exact_config(CdModel::Strong).with_stop(StopRule::AllTerminated);
    let r = run_fast_exact_faulty(&config, &saturating(), &stress_plan(), |_| {
        Box::new(PerStation::new(Backoff::new()))
    });
    check("fast_faulty_strong", &r);
}

#[test]
fn fast_faulty_nocd() {
    let r = run_fast_exact_faulty(
        &exact_config(CdModel::NoCd),
        &random_jammer(),
        &stress_plan(),
        |_| Box::new(PerStation::new(Backoff::new())),
    );
    check("fast_faulty_nocd", &r);
}

// ---------------------------------------------------------------- churn --
//
// Open-world identity contract: an *empty* churn plan (and an empty fault
// plan) must be byte-identical to the pristine run on both disciplines —
// checked against the very same fixtures the pristine tests pin, so the
// wrappers cannot drift even by one RNG draw.

/// The shared-stream arm under `plan`: every station wrapped in the public
/// `FaultyStation` adapter (benign where the plan has no entry), then the
/// plan's post-run verdict applied, as the faulty backend does.
fn run_shared_faulty(config: &SimConfig, adversary: &AdversarySpec, plan: &FaultPlan) -> RunReport {
    let mut r =
        run_multihop_std(config, adversary, &Topology::complete(), RngDiscipline::Shared, |i| {
            Box::new(FaultyStation::new(
                plan.get(i).cloned().unwrap_or_default(),
                plan.station_seed(i),
                Box::new(|| -> Box<dyn Protocol> { Box::new(PerStation::new(Backoff::new())) }),
            ))
        });
    plan.judge_leader_crash(config, &mut r);
    r
}

#[test]
fn churn_empty_plan_matches_pristine_exact() {
    let plan = ChurnPlan::empty().overlay(&FaultPlan::empty());
    let r = run_shared_faulty(&exact_config(CdModel::Strong), &saturating(), &plan);
    check_against_existing("exact_strong", &r);
}

#[test]
fn churn_empty_plan_matches_pristine_fast() {
    let r = run_fast_exact_churn(
        &exact_config(CdModel::Strong),
        &saturating(),
        &ChurnPlan::empty(),
        |_| Box::new(PerStation::new(Backoff::new())),
    );
    check("fast_exact_strong", &r);
}

#[test]
fn faulty_empty_plan_matches_pristine_exact() {
    let r = run_shared_faulty(&exact_config(CdModel::Strong), &saturating(), &FaultPlan::empty());
    check_against_existing("exact_strong", &r);
}

#[test]
fn faulty_empty_plan_matches_pristine_fast() {
    let r = run_fast_exact_faulty(
        &exact_config(CdModel::Strong),
        &saturating(),
        &FaultPlan::empty(),
        |_| Box::new(PerStation::new(Backoff::new())),
    );
    check("fast_exact_strong", &r);
}

/// A churn plan exercising join, leave, and leave-with-rejoin at once.
fn churn_stress_plan() -> ChurnPlan {
    ChurnPlan::empty()
        .with_station(1, StationChurn::founding().joining_at(40))
        .with_station(2, StationChurn::founding().leaving_at(200))
        .with_station(3, StationChurn::founding().leave_and_rejoin(100, 400))
        .with_station(4, StationChurn::founding().joining_at(25).leave_and_rejoin(300, 900))
}

#[test]
fn fast_churn_strong() {
    let config = exact_config(CdModel::Strong).with_stop(StopRule::Horizon).with_max_slots(1_200);
    let r = run_fast_exact_churn(&config, &saturating(), &churn_stress_plan(), |_| {
        Box::new(PerStation::new(Backoff::new()))
    });
    check("fast_churn_strong", &r);
}

// --------------------------------------------------------------- oracle --

#[test]
fn golden_oracle_strong() {
    let config = SimConfig::new(16, CdModel::Strong).with_seed(SEED).with_max_slots(2_000);
    let r = run_cohort_against_oracle(&config, Rate::from_f64(0.05), 16, || Fixed(1.0 / 16.0));
    check("oracle_strong", &r);
}
