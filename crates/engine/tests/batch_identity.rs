//! Batched-backend identity suite: the lockstep uniform backend
//! (`run_batch_uniform`) must be bit-identical *per trial* to the
//! fast-exact backend over `PerStation` — the contract that lets the
//! orchestrator cache batch results under the fast-exact engine salt
//! (DESIGN.md §17).
//!
//! Four layers of evidence:
//!
//! 1. **Golden replay** — every committed `fast_*` fixture whose stations
//!    are a `PerStation`-wrapped uniform protocol (pristine, noisy, weak
//!    CD under a random jammer, no-CD, all-terminated) re-derives
//!    byte-identically through the batch at K = 1 via
//!    `check_against_existing`, which never rewrites a fixture: a drifted
//!    batch backend fails, it cannot paper over itself with
//!    `UPDATE_GOLDEN`. The duty-cycled, faulty and churned fixtures have
//!    non-uniform stations; `golden_seed.rs` pins them on fast-exact.
//! 2. **K-fold identity** — multi-trial batches (including K not a
//!    multiple of the 64-trial word width) match per-trial
//!    `run_fast_exact` report-for-report, and early-resolving trials
//!    retire without perturbing their still-running neighbors.
//! 3. **Order independence** — a proptest shuffles the seed order and
//!    demands every per-trial `RunReport` stays byte-identical: trial
//!    identity depends on the seed alone, never on batch position.
//! 4. **Strategy matrix** — every `JamStrategyKind` × CD model × stop
//!    rule × noise level at K = 65. The history-reading strategies catch
//!    a lane that pushes history or clamps the budget at the wrong point
//!    of a slot.

mod common;

use common::{
    check_against_existing, exact_config, random_jammer, saturating, snapshot, Backoff, Fixed,
    MAX_SLOTS, SEED,
};
use jle_adversary::{AdversarySpec, JamStrategyKind, Rate};
use jle_engine::{
    run_batch_uniform, run_fast_exact, PerStation, Protocol, RunReport, SimConfig, StopRule,
};
use jle_radio::CdModel;
use proptest::prelude::*;

fn backoff_factory(_: u64) -> Box<dyn Protocol> {
    Box::new(PerStation::new(Backoff::new()))
}

/// Replay a fast fixture through the batch backend at K = 1.
fn batch_one(config: &SimConfig, adv: &AdversarySpec) -> RunReport {
    let mut reports = run_batch_uniform(config, adv, &[SEED], Backoff::new);
    assert_eq!(reports.len(), 1);
    reports.pop().expect("one report")
}

// ------------------------------------------------------- golden replay --

#[test]
fn batch_replays_fast_exact_strong_fixture() {
    check_against_existing(
        "fast_exact_strong",
        &batch_one(&exact_config(CdModel::Strong), &saturating()),
    );
}

#[test]
fn batch_replays_fast_exact_strong_noise_fixture() {
    let config = exact_config(CdModel::Strong).with_noise(0.01);
    check_against_existing("fast_exact_strong_noise", &batch_one(&config, &saturating()));
}

#[test]
fn batch_replays_fast_exact_weak_random_jammer_fixture() {
    check_against_existing(
        "fast_exact_weak_random_jammer",
        &batch_one(&exact_config(CdModel::Weak), &random_jammer()),
    );
}

#[test]
fn batch_replays_fast_exact_nocd_fixture() {
    check_against_existing(
        "fast_exact_nocd",
        &batch_one(&exact_config(CdModel::NoCd), &saturating()),
    );
}

#[test]
fn batch_replays_fast_exact_all_terminated_fixture() {
    let config = exact_config(CdModel::Strong).with_stop(StopRule::AllTerminated);
    check_against_existing("fast_exact_all_terminated", &batch_one(&config, &saturating()));
}

// ------------------------------------------------------ K-fold identity --

/// Per-trial fast-exact reports for `seeds` under the same workload.
fn fast_per_trial(
    config: &SimConfig,
    adv: &AdversarySpec,
    seeds: &[u64],
    factory: impl Fn(u64) -> Box<dyn Protocol>,
) -> Vec<RunReport> {
    seeds
        .iter()
        .map(|&seed| run_fast_exact(&config.clone().with_seed(seed), adv, &factory))
        .collect()
}

fn assert_all_match(batch: &[RunReport], fast: &[RunReport], what: &str) {
    assert_eq!(batch.len(), fast.len(), "{what}: report count");
    for (k, (b, f)) in batch.iter().zip(fast).enumerate() {
        assert_eq!(snapshot(b), snapshot(f), "{what}: trial {k} diverged from fast-exact");
    }
}

#[test]
fn k_not_multiple_of_word_width_matches_fast_exact() {
    // 100 trials: one full 64-trial word plus a ragged 36-trial tail.
    let seeds: Vec<u64> = (0..100).map(|t| SEED + t).collect();
    let config = exact_config(CdModel::Strong);
    let adv = saturating();
    let batch = run_batch_uniform(&config, &adv, &seeds, Backoff::new);
    let fast = fast_per_trial(&config, &adv, &seeds, backoff_factory);
    assert_all_match(&batch, &fast, "K=100 strong");
}

#[test]
fn all_trials_resolve_in_slot_zero() {
    // A lone station that always transmits, no jammer: every trial sees
    // a clean single in slot 0 (the p = 1 word path names the one
    // running station as the transmitter) and the whole batch retires
    // after one pass.
    let factory = |_: u64| -> Box<dyn Protocol> { Box::new(PerStation::new(Fixed(1.0))) };
    let seeds: Vec<u64> = (0..70).map(|t| SEED + t).collect();
    let config = SimConfig::new(1, CdModel::Strong).with_max_slots(MAX_SLOTS);
    let adv = AdversarySpec::passive();
    let batch = run_batch_uniform(&config, &adv, &seeds, || Fixed(1.0));
    for (k, r) in batch.iter().enumerate() {
        assert_eq!(r.resolved_at, Some(0), "trial {k} must resolve in slot 0");
        assert_eq!(r.winner, Some(0), "trial {k} must elect station 0");
        assert_eq!(r.slots, 1, "trial {k} must stop after one slot");
    }
    let fast = fast_per_trial(&config, &adv, &seeds, factory);
    assert_all_match(&batch, &fast, "all-resolve-slot-0");
}

#[test]
fn timed_out_trials_ride_alongside_resolving_ones() {
    // Fixed(0.5) at n=4 under a tight horizon: some seeds find a clean
    // single in time, others exhaust the 12-slot budget. The late trials
    // must keep drawing the same streams after their neighbors retire.
    let factory = |_: u64| -> Box<dyn Protocol> { Box::new(PerStation::new(Fixed(0.5))) };
    let seeds: Vec<u64> = (0..96).map(|t| SEED + t).collect();
    let config = SimConfig::new(4, CdModel::Strong).with_max_slots(12);
    let adv = saturating();
    let batch = run_batch_uniform(&config, &adv, &seeds, || Fixed(0.5));
    let resolved = batch.iter().filter(|r| r.resolved_at.is_some()).count();
    let timed_out = batch.iter().filter(|r| r.timed_out).count();
    assert!(resolved > 0, "workload must resolve some trials (got none of {})", batch.len());
    assert!(timed_out > 0, "workload must time some trials out (got none of {})", batch.len());
    let fast = fast_per_trial(&config, &adv, &seeds, factory);
    assert_all_match(&batch, &fast, "mixed retirement");
}

#[test]
fn uniform_batch_matches_fast_exact_weak_random_jammer() {
    // The golden fixture's workload (weak CD, random jammer, full slot
    // budget) at K = 33: one word, partly filled.
    let seeds: Vec<u64> = (0..33).map(|t| SEED + t).collect();
    let config = exact_config(CdModel::Weak);
    let adv = random_jammer();
    let uniform = run_batch_uniform(&config, &adv, &seeds, Backoff::new);
    let fast = fast_per_trial(&config, &adv, &seeds, backoff_factory);
    assert_all_match(&uniform, &fast, "uniform vs fast");
}

// ---------------------------------------------------- order independence --

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Shuffling the seed order (and thus every trial's lane index, word
    /// position, and retirement interleaving) must leave each seed's
    /// report byte-identical: coordinate-pure draws mean trial identity
    /// is a function of the seed alone.
    #[test]
    fn trial_reports_are_independent_of_batch_order(perm_seed in proptest::prelude::any::<u64>()) {
        // Fisher–Yates keyed off the proptest-drawn seed via the
        // engine's own mix64 (the vendored proptest shim has no
        // prop_shuffle).
        let mut perm: Vec<u64> = (0..48).collect();
        for i in (1..perm.len()).rev() {
            let j = (jle_engine::mix64(perm_seed ^ i as u64) % (i as u64 + 1)) as usize;
            perm.swap(i, j);
        }
        let config = exact_config(CdModel::Strong).with_max_slots(200).with_trace(false);
        let adv = saturating();
        let canonical: Vec<u64> = (0..48).map(|t| SEED + t).collect();
        let baseline = run_batch_uniform(&config, &adv, &canonical, Backoff::new);
        let shuffled: Vec<u64> = perm.iter().map(|&t| SEED + t).collect();
        let reports = run_batch_uniform(&config, &adv, &shuffled, Backoff::new);
        for (pos, &t) in perm.iter().enumerate() {
            prop_assert_eq!(
                snapshot(&reports[pos]),
                snapshot(&baseline[t as usize]),
                "seed {} drifted when moved to batch position {}", SEED + t, pos
            );
        }
    }
}

// ---------------------------------------------------- strategy matrix --

/// One instance of every [`JamStrategyKind`], parameterized so each one
/// actually spends budget inside a short run. The history-reading
/// strategies (ReactiveNull, AdaptiveEstimator, SweepTargeted, and the
/// Phased table that switches into them) are the ones that catch a lane
/// pushing history or clamping the budget at the wrong point of a slot.
fn every_strategy(n: u64) -> Vec<JamStrategyKind> {
    vec![
        JamStrategyKind::None,
        JamStrategyKind::Saturating,
        JamStrategyKind::PeriodicFront,
        JamStrategyKind::Random { prob: 0.6 },
        JamStrategyKind::ReactiveNull,
        JamStrategyKind::AdaptiveEstimator { n, protocol_eps: 0.5, band: 2.0, initial_u: 0.0 },
        JamStrategyKind::Burst { on: 3, off: 4 },
        JamStrategyKind::FrontLoaded { horizon: 24 },
        JamStrategyKind::Scripted { pattern: vec![true, false, true, true, false], repeat: true },
        JamStrategyKind::SweepTargeted { n, band: 1.0 },
        JamStrategyKind::Phased {
            phases: vec![
                (0, JamStrategyKind::Saturating),
                (16, JamStrategyKind::ReactiveNull),
                (36, JamStrategyKind::Random { prob: 0.5 }),
            ],
        },
    ]
}

/// Every strategy × stop rule × noise level under one CD model: the
/// batch at K = 65 must equal per-seed fast-exact runs byte for byte. 65 trials = one full word plus a one-trial tail, so the
/// live-mask walk crosses a word boundary in every cell.
fn strategy_matrix_matches_fast_exact(cd: CdModel) {
    const N: u64 = 8;
    let seeds: Vec<u64> = (0..65).map(|t| SEED + t).collect();
    let strategies = every_strategy(N);
    assert_eq!(strategies.len(), 11, "one entry per JamStrategyKind variant");
    for kind in &strategies {
        let adv = AdversarySpec::new(Rate::from_f64(0.4), 12, kind.clone());
        for stop in [StopRule::FirstCleanSingle, StopRule::AllTerminated, StopRule::Horizon] {
            for noise in [0.0, 0.05] {
                let config = SimConfig::new(N, cd)
                    .with_max_slots(64)
                    .with_stop(stop)
                    .with_noise(noise)
                    .with_trace(true);
                let what = format!("{} / {cd:?} / {stop:?} / noise {noise}", kind.name());
                let fast = fast_per_trial(&config, &adv, &seeds, backoff_factory);
                let uniform = run_batch_uniform(&config, &adv, &seeds, Backoff::new);
                assert_all_match(&uniform, &fast, &format!("batch-uniform {what}"));
            }
        }
    }
}

#[test]
fn strategy_matrix_strong_cd_matches_fast_exact() {
    strategy_matrix_matches_fast_exact(CdModel::Strong);
}

#[test]
fn strategy_matrix_weak_cd_matches_fast_exact() {
    strategy_matrix_matches_fast_exact(CdModel::Weak);
}

#[test]
fn strategy_matrix_no_cd_matches_fast_exact() {
    strategy_matrix_matches_fast_exact(CdModel::NoCd);
}
