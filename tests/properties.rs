//! Property-based end-to-end tests: safety and liveness hold across
//! randomly drawn configurations, not just hand-picked ones.

use jamming_leader_election::analysis::{bootstrap_ci, median_ci, percentile, ConfInterval};
use jamming_leader_election::prelude::*;
use proptest::prelude::*;

fn arbitrary_adversary(eps: f64, t: u64, n: u64) -> impl Strategy<Value = AdversarySpec> {
    let r = Rate::from_f64(eps);
    prop_oneof![
        Just(AdversarySpec::passive()),
        Just(AdversarySpec::new(r, t, JamStrategyKind::Saturating)),
        Just(AdversarySpec::new(r, t, JamStrategyKind::PeriodicFront)),
        Just(AdversarySpec::new(r, t, JamStrategyKind::ReactiveNull)),
        (0.1f64..0.9).prop_map(move |p| AdversarySpec::new(
            r,
            t,
            JamStrategyKind::Random { prob: p }
        )),
        Just(AdversarySpec::new(
            r,
            t,
            JamStrategyKind::AdaptiveEstimator { n, protocol_eps: eps, band: 3.0, initial_u: 0.0 }
        )),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// LESK elects exactly one leader for any drawn configuration.
    #[test]
    fn lesk_always_elects(
        n in 1u64..600,
        seed in any::<u64>(),
        eps_pct in 15u32..90,
    ) {
        let eps = eps_pct as f64 / 100.0;
        let adv = AdversarySpec::new(
            Rate::from_f64(eps), 16, JamStrategyKind::Saturating);
        let config = SimConfig::new(n, CdModel::Strong)
            .with_seed(seed)
            .with_max_slots(20_000_000);
        let r = run_cohort(&config, &adv, || LeskProtocol::new(eps));
        prop_assert!(r.leader_elected(), "n={n} eps={eps} seed={seed}");
        prop_assert_eq!(r.leaders.len(), 1);
        prop_assert!(r.resolved_at.is_some());
        prop_assert!(r.winner.unwrap() < n);
    }

    /// LEWK terminates with exactly one leader for any drawn adversary
    /// (weak-CD full election; Lemma 3.1 needs n >= 3).
    #[test]
    fn lewk_safety_and_liveness(
        n in 3u64..24,
        seed in any::<u64>(),
        adv in arbitrary_adversary(0.5, 8, 16),
    ) {
        let config = SimConfig::new(n, CdModel::Weak)
            .with_seed(seed)
            .with_max_slots(20_000_000)
            .with_stop(StopRule::AllTerminated);
        let r = run_fast_exact(&config, &adv, |_| Box::new(lewk(0.5)));
        prop_assert!(r.all_terminated, "n={n} adv={} seed={seed}", adv.label());
        prop_assert_eq!(r.leaders.len(), 1);
        // The leader is the station that transmitted the first clean
        // Single (which is in C1).
        prop_assert_eq!(r.leaders[0], r.winner.unwrap());
    }

    /// The first clean Single's slot is consistent between the report and
    /// the trace, and no clean Single precedes it.
    #[test]
    fn resolution_slot_is_the_first_clean_single(
        n in 2u64..256,
        seed in any::<u64>(),
    ) {
        let config = SimConfig::new(n, CdModel::Strong)
            .with_seed(seed)
            .with_max_slots(5_000_000)
            .with_trace(true);
        let adv = AdversarySpec::new(
            Rate::from_f64(0.4), 8, JamStrategyKind::Saturating);
        let r = run_cohort(&config, &adv, || LeskProtocol::new(0.4));
        prop_assert!(r.leader_elected());
        let trace = r.trace.as_ref().unwrap();
        prop_assert_eq!(trace.first_clean_single(), r.resolved_at.map(|s| s as usize));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The fault-plan generators draw from tagged, independent RNG
    /// streams (`TAG_CRASH`/`TAG_WAKE`/`TAG_DEAF`), so composing them in
    /// any order yields the same plan. The canonical JSON form is the
    /// witness: byte-equal serialization means byte-equal plans.
    #[test]
    fn fault_generators_compose_order_independently(
        seed in any::<u64>(),
        n in 1u64..64,
        crash_pct in 0u32..=100,
        deaf_pct in 0u32..=100,
        stagger in 0u64..4_096,
        window in 1u64..8_192,
    ) {
        let crash = crash_pct as f64 / 100.0;
        let deaf = deaf_pct as f64 / 100.0;
        let a = FaultPlan::new(seed)
            .with_random_crashes(n, crash, window)
            .with_staggered_wakeups(n, stagger)
            .with_random_deafness(n, deaf, window, 64);
        let b = FaultPlan::new(seed)
            .with_random_deafness(n, deaf, window, 64)
            .with_staggered_wakeups(n, stagger)
            .with_random_crashes(n, crash, window);
        let c = FaultPlan::new(seed)
            .with_staggered_wakeups(n, stagger)
            .with_random_crashes(n, crash, window)
            .with_random_deafness(n, deaf, window, 64);
        let ja = serde_json::to_string(&a).unwrap();
        prop_assert_eq!(&ja, &serde_json::to_string(&b).unwrap());
        prop_assert_eq!(&ja, &serde_json::to_string(&c).unwrap());
        // Recoveries post-process existing crashes, so they commute with
        // the other generators as long as they follow the crashes.
        let ar = serde_json::to_string(
            &a.with_recoveries(100)).unwrap();
        let br = serde_json::to_string(
            &b.with_recoveries(100)).unwrap();
        prop_assert_eq!(ar, br);
    }

    /// Churn generators share the stream discipline (`TAG_JOIN`/
    /// `TAG_LEAVE`), and a churn plan's canonical JSON round-trips to the
    /// same bytes — the property the orchestrator's cache fingerprints
    /// rely on.
    #[test]
    fn churn_plan_json_is_canonical_and_order_independent(
        seed in any::<u64>(),
        n in 1u64..64,
        join_pct in 0u32..=100,
        leave_pct in 0u32..=100,
        window in 1u64..8_192,
    ) {
        let join = join_pct as f64 / 100.0;
        let leave = leave_pct as f64 / 100.0;
        let a = ChurnPlan::new(seed)
            .with_staggered_joins(n, join, window)
            .with_random_leaves(n, leave, window);
        let b = ChurnPlan::new(seed)
            .with_random_leaves(n, leave, window)
            .with_staggered_joins(n, join, window)
            .with_rejoins(64);
        // Round trip: serialize -> deserialize -> serialize is a fixed
        // point (canonical form), and parsing reproduces the plan.
        let ja = serde_json::to_string(&a).unwrap();
        let back: ChurnPlan = serde_json::from_str(&ja).unwrap();
        prop_assert_eq!(&ja, &serde_json::to_string(&back).unwrap());
        let jb = serde_json::to_string(&b).unwrap();
        let back_b: ChurnPlan = serde_json::from_str(&jb).unwrap();
        prop_assert_eq!(&jb, &serde_json::to_string(&back_b).unwrap());
        // Order independence of the generator streams: rebuild `b`'s
        // schedule in the opposite call order.
        let b2 = ChurnPlan::new(seed)
            .with_staggered_joins(n, join, window)
            .with_random_leaves(n, leave, window)
            .with_rejoins(64);
        prop_assert_eq!(jb, serde_json::to_string(&b2).unwrap());
    }

    /// A lease-wrapped cohort under churn converges: once the churn
    /// schedule is exhausted, the ledger ends with at most one live
    /// believer, and with exactly one whenever any station is present.
    #[test]
    fn leases_converge_after_churn(
        seed in any::<u64>(),
        churn_pct in 0u32..=60,
    ) {
        use std::sync::Arc;
        let n = 16u64;
        let horizon = 12_288u64;
        let eps = 0.5;
        let churn = churn_pct as f64 / 100.0;
        let plan = ChurnPlan::new(seed ^ 0xC4C4)
            .with_staggered_joins(n, churn, horizon / 8)
            .with_random_leaves(n, churn, horizon / 4)
            .with_rejoins(horizon / 8);
        let adv = AdversarySpec::new(
            Rate::from_f64(eps), 32, JamStrategyKind::Saturating);
        let config = SimConfig::new(n, CdModel::Strong)
            .with_seed(seed)
            .with_max_slots(horizon)
            .with_stop(StopRule::Horizon);
        let ledger = LeaderLedger::new(512);
        let factory = {
            let ledger = Arc::clone(&ledger);
            move |i: u64| -> Box<dyn Protocol> {
                Box::new(LeaseProtocol::over_supervised_lesk(
                    i, eps, 16_384,
                    LeaseConfig::new(8, 10, 512),
                    Arc::clone(&ledger),
                ))
            }
        };
        let mut split = SplitBrainObserver::new(Arc::clone(&ledger));
        let fplan = plan.overlay(&FaultPlan::empty());
        let mut stations = jamming_leader_election::engine::FastFaultyStations::new(
            &config, &fplan, factory);
        let r = jamming_leader_election::engine::SimCore::new(&config, &adv)
            .observe(&mut split)
            .run(&mut stations);
        prop_assert_eq!(r.slots, horizon);
        prop_assert!(!r.timed_out && !r.cap_hit);
        prop_assert!(r.split_brain.tracked);
        let live = plan.live_at(horizon - 1, n);
        if live > 0 {
            prop_assert_eq!(
                r.split_brain.believers.len(), 1,
                "live={} split={:?} seed={}", live, r.split_brain, seed);
        } else {
            prop_assert!(r.split_brain.believers.is_empty());
        }
    }
}

/// The generic bootstrap path `median_ci` must reproduce bit for bit.
fn generic_median_ci(xs: &[f64], level: f64, seed: u64) -> Option<ConfInterval> {
    bootstrap_ci(xs, |s| percentile(s, 0.5), level, 1000, seed)
}

fn assert_median_ci_bits(xs: &[f64], level: f64, seed: u64) {
    let fast = median_ci(xs, level, seed).expect("non-empty sample");
    let slow = generic_median_ci(xs, level, seed).expect("non-empty sample");
    let bits = |ci: &ConfInterval| {
        (ci.estimate.to_bits(), ci.lo.to_bits(), ci.hi.to_bits(), ci.level.to_bits())
    };
    assert_eq!(bits(&fast), bits(&slow), "n={} level={level} seed={seed}", xs.len());
}

/// The rank-counting `median_ci` is bit-identical to the generic
/// resample-and-sort bootstrap across sample sizes (odd and even, so both
/// the exact-rank and the interpolated median), seeds, levels, and
/// sample shapes.
#[test]
fn median_ci_matches_generic_bootstrap_bit_for_bit() {
    for n in [1usize, 2, 3, 7, 24, 64, 96, 224, 257] {
        for seed in [0u64, 7, 0xDEAD_BEEF, u64::MAX] {
            // Distinct, unsorted values with non-trivial fractions.
            let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
            let distinct: Vec<f64> = (0..n)
                .map(|_| {
                    state =
                        state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    (state >> 11) as f64 / (1u64 << 20) as f64 - 2048.0
                })
                .collect();
            // Duplicate-heavy: slot counts the way runtime samples look.
            let dups: Vec<f64> =
                (0..n as u64).map(|i| ((i * 7).wrapping_add(seed) % 3) as f64 * 16.0).collect();
            for level in [0.5, 0.95, 0.99] {
                assert_median_ci_bits(&distinct, level, seed);
                assert_median_ci_bits(&dups, level, seed);
            }
        }
    }
    // One large sample, one seed and one level (a short debug run): its
    // later draw chains start 250 000, 500 000 and 750 000 steps in.
    let large: Vec<f64> = (0..1000u64).map(|i| ((i * 7919) % 1009) as f64 * 0.25).collect();
    assert_median_ci_bits(&large, 0.95, 0xDEAD_BEEF);
    // Signed zeros are distinct under total_cmp and must land exactly
    // where the generic sort puts them.
    let zeros = [0.0, -0.0, 0.0, -0.0, -0.0, 1.0, -1.0, 0.0];
    for seed in [3u64, 11, 99] {
        assert_median_ci_bits(&zeros, 0.95, seed);
        assert_median_ci_bits(&zeros[..5], 0.8, seed);
    }
    // Clamped levels take the same path in both.
    assert_median_ci_bits(&[4.0, 1.0, 9.0, 9.0], 0.1, 5);
    assert_median_ci_bits(&[4.0, 1.0, 9.0, 9.0], 1.0, 5);
    assert!(median_ci(&[], 0.95, 1).is_none());
    assert!(generic_median_ci(&[], 0.95, 1).is_none());
}
