//! Batched-backend identity suite: the SoA lockstep backend must be
//! bit-identical *per trial* to the fast-exact backend — the contract
//! that lets the orchestrator cache batch results under the fast-exact
//! engine salt (DESIGN.md §17).
//!
//! Four layers of evidence:
//!
//! 1. **Golden replay** — every committed `fast_*` fixture (pristine,
//!    noisy, duty-cycled, faulty, churned) re-derives byte-identically
//!    through the batch entry points via `check_against_existing`, which
//!    never rewrites a fixture: a drifted batch backend fails, it cannot
//!    paper over itself with `UPDATE_GOLDEN`.
//! 2. **K-fold identity** — multi-trial batches (including K not a
//!    multiple of the 64-trial word width) match per-trial
//!    `run_fast_exact` report-for-report, and early-resolving trials
//!    retire without perturbing their still-running neighbors.
//! 3. **Order independence** — a proptest shuffles the seed order and
//!    demands every per-trial `RunReport` stays byte-identical: trial
//!    identity depends on the seed alone, never on batch position.
//! 4. **Strategy matrix** — every `JamStrategyKind` × CD model × stop
//!    rule × noise level at K = 65, through both batch entry points. The
//!    history-reading strategies catch a lane that pushes history or
//!    clamps the budget at the wrong point of a slot.

mod common;

use common::{
    check_against_existing, exact_config, random_jammer, saturating, snapshot, Backoff,
    DutyBackoff, Fixed, MAX_SLOTS, SEED,
};
use jle_adversary::{AdversarySpec, JamStrategyKind, Rate};
use jle_engine::{
    run_batch_exact, run_batch_exact_churn, run_batch_exact_faulty, run_batch_uniform,
    run_fast_exact, ChurnPlan, FaultPlan, PerStation, Protocol, RunReport, SimConfig, StationChurn,
    StationFaults, StopRule,
};
use jle_radio::CdModel;
use proptest::prelude::*;

fn backoff_factory(_: u64) -> Box<dyn Protocol> {
    Box::new(PerStation::new(Backoff::new()))
}

/// The golden suite's all-fault-kinds plan (mirrors `golden_seed.rs`).
fn stress_plan() -> FaultPlan {
    FaultPlan::new(3)
        .with_station(1, StationFaults::none().crash_with_recovery(6, 60))
        .with_station(2, StationFaults::none().wake_at(3))
        .with_station(3, StationFaults::none().deaf_between(2, 30))
        .with_station(4, StationFaults::none().flip_prob(0.2))
        .with_station(5, StationFaults::none().crash(10))
}

/// The golden suite's join/leave/rejoin plan (mirrors `golden_seed.rs`).
fn churn_stress_plan() -> ChurnPlan {
    ChurnPlan::empty()
        .with_station(1, StationChurn::founding().joining_at(40))
        .with_station(2, StationChurn::founding().leaving_at(200))
        .with_station(3, StationChurn::founding().leave_and_rejoin(100, 400))
        .with_station(4, StationChurn::founding().joining_at(25).leave_and_rejoin(300, 900))
}

/// Replay a fast fixture through the batch backend at K = 1.
fn batch_one(config: &SimConfig, adv: &AdversarySpec) -> RunReport {
    let mut reports = run_batch_exact(config, adv, &[SEED], backoff_factory);
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

#[test]
fn batch_replays_fast_exact_duty_cycled_fixture() {
    // Sleep-heavy: exercises the merged wake calendar against the fast
    // backend's per-run wake heap.
    let reports = run_batch_exact(&exact_config(CdModel::Strong), &saturating(), &[SEED], |i| {
        Box::new(DutyBackoff::new(4, i))
    });
    check_against_existing("fast_exact_duty_cycled", &reports[0]);
}

#[test]
fn batch_replays_fast_faulty_strong_fixture() {
    let config = exact_config(CdModel::Strong).with_stop(StopRule::AllTerminated);
    let reports =
        run_batch_exact_faulty(&config, &saturating(), &stress_plan(), &[SEED], backoff_factory);
    check_against_existing("fast_faulty_strong", &reports[0]);
}

#[test]
fn batch_replays_fast_faulty_nocd_fixture() {
    let reports = run_batch_exact_faulty(
        &exact_config(CdModel::NoCd),
        &random_jammer(),
        &stress_plan(),
        &[SEED],
        backoff_factory,
    );
    check_against_existing("fast_faulty_nocd", &reports[0]);
}

#[test]
fn batch_replays_fast_churn_strong_fixture() {
    let config = exact_config(CdModel::Strong).with_stop(StopRule::Horizon).with_max_slots(1_200);
    let reports = run_batch_exact_churn(
        &config,
        &saturating(),
        &churn_stress_plan(),
        &[SEED],
        backoff_factory,
    );
    check_against_existing("fast_churn_strong", &reports[0]);
}

#[test]
fn batch_empty_churn_plan_matches_pristine_fixture() {
    // The open-world identity contract extends to the batch wrapper: an
    // empty churn plan is byte-identical to the pristine batch run.
    let reports = run_batch_exact_churn(
        &exact_config(CdModel::Strong),
        &saturating(),
        &ChurnPlan::empty(),
        &[SEED],
        backoff_factory,
    );
    check_against_existing("fast_exact_strong", &reports[0]);
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
    let batch = run_batch_exact(&config, &adv, &seeds, backoff_factory);
    let fast = fast_per_trial(&config, &adv, &seeds, backoff_factory);
    assert_all_match(&batch, &fast, "K=100 strong");
}

#[test]
fn k_fold_faulty_overlay_matches_fast_exact() {
    let seeds: Vec<u64> = (0..65).map(|t| SEED + t).collect(); // 64 + 1
    let config = exact_config(CdModel::Strong).with_stop(StopRule::AllTerminated);
    let adv = saturating();
    let plan = stress_plan();
    let batch = run_batch_exact_faulty(&config, &adv, &plan, &seeds, backoff_factory);
    let fast: Vec<RunReport> = seeds
        .iter()
        .map(|&seed| {
            jle_engine::run_fast_exact_faulty(
                &config.clone().with_seed(seed),
                &adv,
                &plan,
                backoff_factory,
            )
        })
        .collect();
    assert_all_match(&batch, &fast, "K=65 faulty");
}

#[test]
fn k_fold_churn_overlay_matches_fast_exact() {
    let seeds: Vec<u64> = (0..40).map(|t| SEED + t).collect();
    let config = exact_config(CdModel::Strong).with_stop(StopRule::Horizon).with_max_slots(600);
    let adv = saturating();
    let plan = churn_stress_plan();
    let batch = run_batch_exact_churn(&config, &adv, &plan, &seeds, backoff_factory);
    let fast: Vec<RunReport> = seeds
        .iter()
        .map(|&seed| {
            jle_engine::run_fast_exact_churn(
                &config.clone().with_seed(seed),
                &adv,
                &plan,
                backoff_factory,
            )
        })
        .collect();
    assert_all_match(&batch, &fast, "K=40 churn");
}

#[test]
fn all_trials_resolve_in_slot_zero() {
    // Station 0 always transmits, everyone else always listens, no
    // jammer: every trial sees a clean single in slot 0 and the whole
    // batch retires after one pass.
    let factory = |i: u64| -> Box<dyn Protocol> {
        Box::new(PerStation::new(Fixed(if i == 0 { 1.0 } else { 0.0 })))
    };
    let seeds: Vec<u64> = (0..70).map(|t| SEED + t).collect();
    let config = SimConfig::new(12, CdModel::Strong).with_max_slots(MAX_SLOTS);
    let adv = AdversarySpec::passive();
    let batch = run_batch_exact(&config, &adv, &seeds, factory);
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
    let batch = run_batch_exact(&config, &adv, &seeds, factory);
    let resolved = batch.iter().filter(|r| r.resolved_at.is_some()).count();
    let timed_out = batch.iter().filter(|r| r.timed_out).count();
    assert!(resolved > 0, "workload must resolve some trials (got none of {})", batch.len());
    assert!(timed_out > 0, "workload must time some trials out (got none of {})", batch.len());
    let fast = fast_per_trial(&config, &adv, &seeds, factory);
    assert_all_match(&batch, &fast, "mixed retirement");
}

#[test]
fn uniform_batch_matches_general_batch_and_fast() {
    // The uniform fast path and the general path agree with each other
    // (and with fast-exact) on a shared-state workload.
    let seeds: Vec<u64> = (0..33).map(|t| SEED + t).collect();
    let config = exact_config(CdModel::Weak);
    let adv = random_jammer();
    let uniform = run_batch_uniform(&config, &adv, &seeds, Backoff::new);
    let general = run_batch_exact(&config, &adv, &seeds, |_| {
        Box::new(PerStation::new(Backoff::new())) as Box<dyn Protocol>
    });
    let fast = fast_per_trial(&config, &adv, &seeds, |_| {
        Box::new(PerStation::new(Backoff::new())) as Box<dyn Protocol>
    });
    assert_all_match(&uniform, &general, "uniform vs general");
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
        let baseline = run_batch_exact(&config, &adv, &canonical, backoff_factory);
        let shuffled: Vec<u64> = perm.iter().map(|&t| SEED + t).collect();
        let reports = run_batch_exact(&config, &adv, &shuffled, backoff_factory);
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

/// Every strategy × stop rule × noise level under one CD model: batch
/// exact and batch uniform at K = 65 must equal per-seed fast-exact runs
/// byte for byte. 65 trials = one full word plus a one-trial tail, so the
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
                let exact = run_batch_exact(&config, &adv, &seeds, backoff_factory);
                assert_all_match(&exact, &fast, &format!("batch-exact {what}"));
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
