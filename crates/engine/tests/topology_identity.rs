//! The multi-hop refactor's contract, checked at the fixture level: on
//! [`Topology::Complete`] the per-neighborhood backend is **byte-identical**
//! to the single-channel engines whose behavior the golden fixtures pin.
//!
//! Every pristine `fast_exact_*` fixture is replayed through
//! `run_multihop_std(Complete, Counter)` — same seeds, same protocols, same
//! adversaries as `golden_seed.rs`, compared against the very same files.
//!
//! Every `exact_*` fixture is replayed through
//! `run_multihop_std(Complete, Shared)`: they pin the legacy shared-stream
//! discipline (every station drawn from the engine's one sequential stream
//! in index order), which lives on only as the multi-hop `Shared` mode.
//! They were captured from the retired single-hop shared-stream engine and
//! are never regenerated (`golden_seed.rs` replays them too, through
//! `run_multihop`'s default discipline).
//!
//! This suite never rewrites a fixture (`check_against_existing`), so a
//! drifted multi-hop backend cannot silently regenerate its way back to
//! green.
//!
//! Also pins seed-purity of the unit-disk constructor end to end: the same
//! `(n, radius, seed)` triple must reproduce the same run byte for byte.

mod common;

use common::*;
use jle_engine::{run_multihop_std, PerStation, RngDiscipline, RunReport, SimConfig, StopRule};
use jle_radio::{CdModel, Topology};

fn complete_shared(config: &SimConfig, adversary: &jle_adversary::AdversarySpec) -> RunReport {
    run_multihop_std(config, adversary, &Topology::complete(), RngDiscipline::Shared, |_| {
        Box::new(PerStation::new(Backoff::new()))
    })
}

fn complete_counter(config: &SimConfig, adversary: &jle_adversary::AdversarySpec) -> RunReport {
    run_multihop_std(config, adversary, &Topology::complete(), RngDiscipline::Counter, |_| {
        Box::new(PerStation::new(Backoff::new()))
    })
}

// --------------------------------- Shared ≡ the legacy exact fixtures --

#[test]
fn multihop_matches_exact_strong() {
    let r = complete_shared(&exact_config(CdModel::Strong), &saturating());
    assert!(r.multihop.is_none(), "plain complete runs must not grow a multihop block");
    check_against_existing("exact_strong", &r);
}

#[test]
fn multihop_matches_exact_strong_noise() {
    let config = exact_config(CdModel::Strong).with_noise(0.01);
    check_against_existing("exact_strong_noise", &complete_shared(&config, &saturating()));
}

#[test]
fn multihop_matches_exact_weak_random_jammer() {
    let r = complete_shared(&exact_config(CdModel::Weak), &random_jammer());
    check_against_existing("exact_weak_random_jammer", &r);
}

#[test]
fn multihop_matches_exact_nocd() {
    check_against_existing(
        "exact_nocd",
        &complete_shared(&exact_config(CdModel::NoCd), &saturating()),
    );
}

#[test]
fn multihop_matches_exact_weak_cap() {
    let config =
        exact_config(CdModel::Weak).with_max_slots(1_500).with_stop(StopRule::AllTerminated);
    check_against_existing("exact_weak_cap", &complete_shared(&config, &saturating()));
}

#[test]
fn multihop_matches_exact_all_terminated() {
    let config = exact_config(CdModel::Strong).with_stop(StopRule::AllTerminated);
    check_against_existing("exact_all_terminated", &complete_shared(&config, &saturating()));
}

// ------------------------------------- Counter ≡ FastExactStations --

#[test]
fn multihop_matches_fast_exact_strong() {
    let r = complete_counter(&exact_config(CdModel::Strong), &saturating());
    assert!(r.multihop.is_none(), "plain complete runs must not grow a multihop block");
    check_against_existing("fast_exact_strong", &r);
}

#[test]
fn multihop_matches_fast_exact_strong_noise() {
    let config = exact_config(CdModel::Strong).with_noise(0.01);
    check_against_existing("fast_exact_strong_noise", &complete_counter(&config, &saturating()));
}

#[test]
fn multihop_matches_fast_exact_weak_random_jammer() {
    let r = complete_counter(&exact_config(CdModel::Weak), &random_jammer());
    check_against_existing("fast_exact_weak_random_jammer", &r);
}

#[test]
fn multihop_matches_fast_exact_nocd() {
    let r = complete_counter(&exact_config(CdModel::NoCd), &saturating());
    check_against_existing("fast_exact_nocd", &r);
}

#[test]
fn multihop_matches_fast_exact_all_terminated() {
    let config = exact_config(CdModel::Strong).with_stop(StopRule::AllTerminated);
    check_against_existing("fast_exact_all_terminated", &complete_counter(&config, &saturating()));
}

#[test]
fn multihop_matches_fast_exact_duty_cycled() {
    // Sleep-heavy workload: the counter streams are keyed by
    // `(seed, station, slot, draw)`, so the multi-hop act loop (which polls
    // every non-terminal station each slot) consumes exactly the same draws
    // as the fast backend's wake-heap schedule.
    let r = run_multihop_std(
        &exact_config(CdModel::Strong),
        &saturating(),
        &Topology::complete(),
        RngDiscipline::Counter,
        |i| Box::new(DutyBackoff::new(4, i)),
    );
    check_against_existing("fast_exact_duty_cycled", &r);
}

// ----------------------------------------------- unit-disk purity --

#[test]
fn unit_disk_runs_are_pure_in_the_seed() {
    let run = |topo_seed: u64| {
        let topo = Topology::unit_disk(24, 0.45, topo_seed).expect("valid disk");
        let config = SimConfig::new(24, CdModel::Strong)
            .with_seed(SEED)
            .with_max_slots(MAX_SLOTS)
            .with_trace(true);
        let r = run_multihop_std(&config, &saturating(), &topo, RngDiscipline::Shared, |_| {
            Box::new(PerStation::new(Backoff::new()))
        });
        snapshot(&r)
    };
    assert_eq!(run(7), run(7), "same (n, r, seed) must reproduce byte-identically");
    assert_ne!(run(7), run(8), "the disk seed must actually matter");
}
