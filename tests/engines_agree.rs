//! Statistical agreement between the cohort and the exact engine — the
//! cohort engine's O(1)-per-slot shortcut must not change the dynamics.

use jamming_leader_election::engine::PerStation;
use jamming_leader_election::prelude::*;
use rayon::prelude::*;

fn means(n: u64, trials: u64) -> (f64, f64) {
    let adv = AdversarySpec::new(Rate::from_f64(0.5), 16, JamStrategyKind::Saturating);
    let cohort = (1000..1000 + trials)
        .into_par_iter()
        .map(|seed| {
            let config =
                SimConfig::new(n, CdModel::Strong).with_seed(seed).with_max_slots(5_000_000);
            run_cohort(&config, &adv, || LeskProtocol::new(0.5)).slots as f64
        })
        .collect::<Vec<f64>>();
    let exact = (1000..1000 + trials)
        .into_par_iter()
        .map(|seed| {
            let config = SimConfig::new(n, CdModel::Strong)
                .with_seed(seed ^ 0x5555_5555)
                .with_max_slots(5_000_000);
            run_fast_exact(&config, &adv, |_| Box::new(PerStation::new(LeskProtocol::new(0.5))))
                .slots as f64
        })
        .collect::<Vec<f64>>();
    let m = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
    (m(&cohort), m(&exact))
}

#[test]
fn election_time_means_agree_within_noise() {
    for n in [4u64, 32, 128] {
        let (c, e) = means(n, 120);
        let ratio = c / e;
        assert!(
            (0.8..=1.25).contains(&ratio),
            "n={n}: cohort mean {c} vs exact mean {e} (ratio {ratio})"
        );
    }
}

#[test]
fn channel_statistics_match_the_binomial_law() {
    // State fractions over a long non-resolving exact-engine run must
    // match the closed-form binomial probabilities (and therefore the
    // cohort engine, which samples that law directly).
    use jamming_leader_election::engine::{Action, Protocol, Status};
    use jamming_leader_election::radio::Observation;
    use rand::{Rng, RngCore};

    /// Transmits with fixed probability forever; never terminates.
    struct NonTerminating(f64);
    impl Protocol for NonTerminating {
        fn act(&mut self, _: u64, rng: &mut dyn RngCore) -> Action {
            if rng.gen_bool(self.0) {
                Action::Transmit
            } else {
                Action::Listen
            }
        }
        fn feedback(&mut self, _: u64, _: bool, _: Observation) {}
        fn status(&self) -> Status {
            Status::Running
        }
    }

    let n = 64u64;
    let p = 0.02; // E[k] = 1.28: rich mix of Null/Single/Collision
    let slots = 30_000u64;
    let config = SimConfig::new(n, CdModel::Weak)
        .with_seed(12)
        .with_max_slots(slots)
        .with_stop(StopRule::AllTerminated);
    let exact = run_fast_exact(&config, &AdversarySpec::passive(), |_| Box::new(NonTerminating(p)));
    assert_eq!(exact.slots, slots);
    let p_null = jamming_leader_election::protocols::math::p_null(n, p);
    let p_single = jamming_leader_election::protocols::math::p_single(n, p);
    let total = exact.slots as f64;
    let null_frac = exact.counts.nulls as f64 / total;
    let single_frac = exact.counts.singles as f64 / total;
    assert!((null_frac - p_null).abs() < 0.02, "null {null_frac} vs {p_null}");
    assert!((single_frac - p_single).abs() < 0.02, "single {single_frac} vs {p_single}");
}

#[test]
fn winner_distribution_is_uniformish_in_exact_engine() {
    // Symmetry: each of 8 stations should win a fair share of elections.
    let n = 8u64;
    let trials = 400u64;
    let winners = (9_999..9_999 + trials)
        .into_par_iter()
        .map(|seed| {
            let config =
                SimConfig::new(n, CdModel::Strong).with_seed(seed).with_max_slots(1_000_000);
            let r = run_fast_exact(&config, &AdversarySpec::passive(), |_| {
                Box::new(PerStation::new(LeskProtocol::new(0.5)))
            });
            r.winner.unwrap()
        })
        .collect::<Vec<_>>();
    let mut counts = [0u64; 8];
    for w in winners {
        counts[w as usize] += 1;
    }
    let expected = trials as f64 / 8.0;
    for (i, &c) in counts.iter().enumerate() {
        assert!(
            (c as f64) > expected * 0.4 && (c as f64) < expected * 1.9,
            "station {i} won {c} of {trials} (expected ≈ {expected})"
        );
    }
}
