//! Integration tests for the §4 building-block extensions, exercised
//! through the public facade.

use jamming_leader_election::prelude::*;
use jamming_leader_election::protocols::{
    run_fair_use, run_k_selection, targeted_tdma_jammer, SizeApproxProtocol,
};

#[test]
fn k_selection_across_adversaries() {
    let eps = 0.5;
    let n = 512u64;
    let k = 12u64;
    for (name, adv) in [
        ("none", AdversarySpec::passive()),
        ("saturating", AdversarySpec::new(Rate::from_f64(eps), 16, JamStrategyKind::Saturating)),
        ("periodic", AdversarySpec::new(Rate::from_f64(eps), 16, JamStrategyKind::PeriodicFront)),
    ] {
        for seed in 0..4u64 {
            let config =
                SimConfig::new(n, CdModel::Strong).with_seed(seed).with_max_slots(2_000_000);
            let r = run_k_selection(&config, &adv, k, eps);
            assert!(r.completed, "{name} seed {seed}");
            assert_eq!(r.election_slots.len() as u64, k);
            // Leaders are crowned at distinct slots in order.
            assert!(r.election_slots.windows(2).all(|w| w[1] > w[0]));
        }
    }
}

#[test]
fn k_selection_amortizes() {
    // Total slots for k leaders must be far below k independent runs.
    let eps = 0.5;
    let n = 1024u64;
    let config = SimConfig::new(n, CdModel::Strong).with_seed(7).with_max_slots(2_000_000);
    let one = run_k_selection(&config, &AdversarySpec::passive(), 1, eps);
    let many = run_k_selection(&config, &AdversarySpec::passive(), 20, eps);
    assert!(many.completed);
    assert!(
        (many.slots as f64) < 20.0 * 0.5 * one.slots as f64,
        "20 leaders in {} slots vs one in {}",
        many.slots,
        one.slots
    );
}

#[test]
fn size_approx_is_monotone_in_n() {
    // Estimates must grow with the true n (monotone up to noise).
    let eps = 0.5;
    let mut prev = 0.0;
    for k in [6u32, 10, 14] {
        let n = 1u64 << k;
        let horizon = 400 + 40 * k as u64;
        let config = SimConfig::new(n, CdModel::Strong)
            .with_seed(3)
            .with_max_slots(horizon + 10)
            .with_stop(StopRule::Horizon);
        let (_, proto) = run_cohort_with(&config, &AdversarySpec::passive(), || {
            SizeApproxProtocol::new(eps, horizon)
        });
        let est = proto.estimate_n();
        assert!(est > prev, "estimate must grow with n (n={n}, est={est})");
        prev = est;
    }
}

#[test]
fn fair_use_targeting_starves_exactly_the_victim() {
    let n = 8u64;
    let eps = 0.5;
    let base = AdversarySpec::new(Rate::from_f64(eps), 4, JamStrategyKind::Saturating);
    for victim in 0..n {
        let adv = targeted_tdma_jammer(&base, n, victim);
        let config = SimConfig::new(n, CdModel::Strong).with_seed(11).with_max_slots(1_000_000);
        let r = run_fair_use(&config, &adv, 25, eps);
        assert!(r.setup_completed);
        for (rank, &d) in r.deliveries.iter().enumerate() {
            if rank as u64 == victim {
                assert_eq!(d, 0, "victim {victim} must be starved");
            } else {
                assert_eq!(d, 25, "rank {rank} must be untouched (victim {victim})");
            }
        }
    }
}

#[test]
fn oracle_negative_control_through_facade() {
    use jamming_leader_election::engine::run_cohort_against_oracle;
    let config = SimConfig::new(128, CdModel::Strong).with_seed(2).with_max_slots(50_000);
    let r = run_cohort_against_oracle(&config, Rate::from_f64(0.1), 32, || LeskProtocol::new(0.1));
    assert!(r.timed_out, "oracle must block");
    assert_eq!(r.counts.singles, 0);
    // Identical budget, fair rules: election succeeds.
    let fair = AdversarySpec::new(Rate::from_f64(0.1), 32, JamStrategyKind::Saturating);
    let ok = run_cohort(&config, &fair, || LeskProtocol::new(0.1));
    assert!(ok.leader_elected());
}
