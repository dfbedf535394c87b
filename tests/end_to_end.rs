//! End-to-end election matrix: protocol × adversary × CD model.
//!
//! The safety property everywhere: at most one leader; the liveness
//! property wherever the theory promises it: exactly one leader within
//! the slot cap.

use jamming_leader_election::prelude::*;

fn adversaries(eps: f64, t: u64, n: u64) -> Vec<AdversarySpec> {
    let r = Rate::from_f64(eps);
    vec![
        AdversarySpec::passive(),
        AdversarySpec::new(r, t, JamStrategyKind::Saturating),
        AdversarySpec::new(r, t, JamStrategyKind::PeriodicFront),
        AdversarySpec::new(r, t, JamStrategyKind::Random { prob: 0.8 }),
        AdversarySpec::new(r, t, JamStrategyKind::ReactiveNull),
        AdversarySpec::new(r, t, JamStrategyKind::Burst { on: t, off: t }),
        AdversarySpec::new(
            r,
            t,
            JamStrategyKind::AdaptiveEstimator { n, protocol_eps: eps, band: 3.0, initial_u: 0.0 },
        ),
    ]
}

#[test]
fn lesk_elects_against_every_adversary_strong_cd() {
    let n = 256u64;
    let eps = 0.4;
    for (ai, adv) in adversaries(eps, 32, n).into_iter().enumerate() {
        for seed in 0..5u64 {
            let config = SimConfig::new(n, CdModel::Strong)
                .with_seed(seed * 31 + ai as u64)
                .with_max_slots(5_000_000);
            let r = run_cohort(&config, &adv, || LeskProtocol::new(eps));
            assert!(r.leader_elected(), "LESK failed vs {} seed {seed}", adv.label());
            assert_eq!(r.leaders.len(), 1);
        }
    }
}

#[test]
fn lesu_elects_against_every_adversary_strong_cd() {
    let n = 200u64;
    let eps = 0.5;
    for (ai, adv) in adversaries(eps, 16, n).into_iter().enumerate() {
        for seed in 0..3u64 {
            let config = SimConfig::new(n, CdModel::Strong)
                .with_seed(seed * 37 + ai as u64)
                .with_max_slots(50_000_000);
            let r = run_cohort(&config, &adv, LesuProtocol::new);
            assert!(r.leader_elected(), "LESU failed vs {} seed {seed}", adv.label());
        }
    }
}

#[test]
fn lewk_full_election_weak_cd_matrix() {
    let n = 12u64;
    let eps = 0.5;
    for (ai, adv) in adversaries(eps, 8, n).into_iter().enumerate() {
        for seed in 0..3u64 {
            let config = SimConfig::new(n, CdModel::Weak)
                .with_seed(seed * 41 + ai as u64)
                .with_max_slots(10_000_000)
                .with_stop(StopRule::AllTerminated);
            let r = run_fast_exact(&config, &adv, |_| Box::new(lewk(eps)));
            assert!(r.all_terminated, "LEWK stalled vs {} seed {seed}", adv.label());
            assert_eq!(r.leaders.len(), 1, "leader count vs {} seed {seed}", adv.label());
            assert!(!r.timed_out);
        }
    }
}

#[test]
fn lewu_full_election_weak_cd() {
    let n = 8u64;
    for seed in 0..3u64 {
        let adv = AdversarySpec::new(Rate::from_f64(0.5), 8, JamStrategyKind::Saturating);
        let config = SimConfig::new(n, CdModel::Weak)
            .with_seed(seed)
            .with_max_slots(50_000_000)
            .with_stop(StopRule::AllTerminated);
        let r = run_fast_exact(&config, &adv, |_| Box::new(lewu()));
        assert!(r.all_terminated && r.leaders.len() == 1, "LEWU failed seed {seed}");
    }
}

#[test]
fn baselines_elect_on_clean_channel() {
    let n = 256u64;
    let config = SimConfig::new(n, CdModel::Strong).with_seed(5).with_max_slots(2_000_000);
    let adv = AdversarySpec::passive();
    assert!(run_cohort(&config, &adv, BackoffProtocol::new).leader_elected());
    assert!(run_cohort(&config, &adv, WillardProtocol::new).leader_elected());
    assert!(run_cohort(&config, &adv, || ArssMacProtocol::new(0.2)).leader_elected());
}

#[test]
fn exact_engine_runs_uniform_protocols_per_station() {
    // The same protocols, run per-station: no shared state, yet the
    // election still works (uniformity is a property, not a mechanism).
    let n = 64u64;
    for seed in 0..5u64 {
        let config = SimConfig::new(n, CdModel::Strong).with_seed(seed).with_max_slots(2_000_000);
        let r = run_fast_exact(&config, &AdversarySpec::passive(), |_| {
            Box::new(jamming_leader_election::engine::PerStation::new(LeskProtocol::new(0.5)))
        });
        assert!(r.leader_elected());
        assert_eq!(r.leaders.len(), 1);
        assert_eq!(r.leaders[0], r.winner.unwrap());
    }
}

#[test]
fn no_cd_channel_is_supported_but_hard() {
    // Under no-CD the backoff baseline (which never reads the channel)
    // still elects; LESK cannot use its Null signal and is expected to
    // struggle — but safety must hold.
    let n = 64u64;
    let config = SimConfig::new(n, CdModel::NoCd).with_seed(3).with_max_slots(500_000);
    let adv = AdversarySpec::passive();
    let r = run_cohort(&config, &adv, BackoffProtocol::new);
    assert!(r.leader_elected());
    let r2 = run_cohort(&config, &adv, || LeskProtocol::new(0.5));
    assert!(r2.leaders.len() <= 1);
}
