//! Reproducibility: a seed fully determines a run, on both engines, with
//! and without adversaries — the property every experiment in
//! EXPERIMENTS.md relies on.

use jamming_leader_election::prelude::*;
use rayon::prelude::*;

fn spec() -> AdversarySpec {
    AdversarySpec::new(Rate::from_f64(0.4), 16, JamStrategyKind::Saturating)
}

#[test]
fn cohort_runs_are_bit_identical() {
    for seed in [0u64, 1, 42, u64::MAX] {
        let config = SimConfig::new(500, CdModel::Strong)
            .with_seed(seed)
            .with_max_slots(5_000_000)
            .with_trace(true);
        let a = run_cohort(&config, &spec(), || LeskProtocol::new(0.4));
        let b = run_cohort(&config, &spec(), || LeskProtocol::new(0.4));
        assert_eq!(a.slots, b.slots);
        assert_eq!(a.resolved_at, b.resolved_at);
        assert_eq!(a.winner, b.winner);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.energy, b.energy);
        let (ta, tb) = (a.trace.unwrap(), b.trace.unwrap());
        assert_eq!(ta.estimates, tb.estimates);
        assert!(ta.iter().zip(tb.iter()).all(|(x, y)| x == y));
    }
}

#[test]
fn exact_runs_are_bit_identical() {
    let config = SimConfig::new(24, CdModel::Weak)
        .with_seed(9)
        .with_max_slots(5_000_000)
        .with_stop(StopRule::AllTerminated);
    let a = run_fast_exact(&config, &spec(), |_| Box::new(lewk(0.4)));
    let b = run_fast_exact(&config, &spec(), |_| Box::new(lewk(0.4)));
    assert_eq!(a.slots, b.slots);
    assert_eq!(a.leaders, b.leaders);
    assert_eq!(a.winner, b.winner);
    assert_eq!(a.counts, b.counts);
}

#[test]
fn different_seeds_differ() {
    let mk = |seed| {
        let config = SimConfig::new(500, CdModel::Strong).with_seed(seed).with_max_slots(5_000_000);
        run_cohort(&config, &spec(), || LeskProtocol::new(0.4))
    };
    // At least one of 8 consecutive seeds must produce a different
    // election time (all-equal would indicate a seeding bug).
    let base = mk(100).slots;
    assert!((101..108).any(|s| mk(s).slots != base), "8 seeds produced identical runs");
}

#[test]
fn monte_carlo_is_order_independent() {
    // Thread scheduling must not leak into results: a parallel sweep
    // returns the serial sweep's vector.
    let f = |seed: u64| {
        let config = SimConfig::new(128, CdModel::Strong).with_seed(seed).with_max_slots(5_000_000);
        run_cohort(&config, &spec(), || LeskProtocol::new(0.4)).slots
    };
    let parallel: Vec<u64> = (5..69u64).into_par_iter().map(f).collect();
    assert_eq!(parallel, (5..69).map(f).collect::<Vec<_>>());
}
