//! k-selection: electing `k` distinct leaders (paper §4 building block).
//!
//! Strong-CD construction on top of LESK: run the LESK dynamics; each
//! clean `Single` crowns one more leader, who then *retires* (stops
//! transmitting); the remaining `n − i` stations continue with the same
//! estimate `u`. Because `u` is already in the regular band after the
//! first election — and `log₂(n − i) ≈ log₂ n` for `k ≪ n` — each
//! additional leader costs only `O(1/(ε·C(a)))` expected slots instead of
//! another full `O(log n)` run. The same `(T, 1−ε)` robustness argument
//! applies verbatim: jams read as collisions and are paid for by the
//! asymmetric update rule.
//!
//! The driver below is a thin slot loop over the same primitives the
//! cohort engine uses (`sample_transmitters`, `JamBudget`, strategy
//! dispatch), with a shrinking population.

use crate::lesk::LeskProtocol;
use jle_adversary::AdversarySpec;
use jle_engine::{sample_transmitters, SimConfig, UniformProtocol};
use jle_radio::{CdModel, ChannelHistory, ChannelState, SlotTruth};
use rand::{rngs::SmallRng, SeedableRng};
use serde::{Deserialize, Serialize};

const ADV_SEED_XOR: u64 = 0x9E37_79B9_7F4A_7C15;

/// Result of a k-selection run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct KSelectionReport {
    /// Slot at which the i-th leader was crowned (length = leaders found).
    pub election_slots: Vec<u64>,
    /// Total slots simulated.
    pub slots: u64,
    /// Whether all `k` leaders were found within the cap.
    pub completed: bool,
    /// Jammed slots.
    pub jammed: u64,
}

impl KSelectionReport {
    /// Slots between consecutive elections (first entry = slots to the
    /// first leader).
    pub fn gaps(&self) -> Vec<u64> {
        let mut prev = 0u64;
        self.election_slots
            .iter()
            .map(|&s| {
                let gap = s - prev;
                prev = s + 1;
                gap
            })
            .collect()
    }
}

/// Elect `k` leaders among `config.n` stations with LESK(ε) dynamics in
/// strong-CD, against `adversary`.
///
/// # Panics
/// Panics if `k == 0`, `k > config.n`, or `config.cd != Strong` (the
/// construction relies on winners knowing they won; under weak-CD wrap
/// each round in `Notification` instead).
pub fn run_k_selection(
    config: &SimConfig,
    adversary: &AdversarySpec,
    k: u64,
    eps: f64,
) -> KSelectionReport {
    assert!(k >= 1, "k must be positive");
    assert!(k <= config.n, "cannot elect more leaders than stations");
    assert_eq!(config.cd, CdModel::Strong, "k-selection driver is strong-CD only");
    let mut proto = LeskProtocol::new(eps);
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut adv_rng = SmallRng::seed_from_u64(config.seed ^ ADV_SEED_XOR);
    let mut strategy = adversary.strategy();
    let mut budget = adversary.budget();
    let mut history = ChannelHistory::new(config.effective_retention(adversary.t_window));
    let mut remaining = config.n;
    let mut report = KSelectionReport::default();

    for slot in 0..config.max_slots {
        let want = strategy.decide(&history, &budget, &mut adv_rng);
        let jam = want && budget.can_jam();
        budget.advance(jam);
        let p = proto.tx_prob(slot);
        let tx = sample_transmitters(remaining, p, &mut rng);
        let truth = SlotTruth::new(tx, jam);
        history.push(&truth);
        report.slots = slot + 1;
        report.jammed += jam as u64;
        if truth.is_clean_single() {
            // One more leader crowned; it retires from the population.
            report.election_slots.push(slot);
            remaining -= 1;
            if report.election_slots.len() as u64 == k {
                report.completed = true;
                break;
            }
            // The estimate is already calibrated; keep it.
            continue;
        }
        let state = truth.observed();
        debug_assert_ne!(state, ChannelState::Single);
        proto.on_state(slot, state);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use jle_adversary::{JamStrategyKind, Rate};

    fn config(n: u64, seed: u64) -> SimConfig {
        SimConfig::new(n, CdModel::Strong).with_seed(seed).with_max_slots(1_000_000)
    }

    #[test]
    fn finds_k_leaders() {
        let r = run_k_selection(&config(256, 3), &AdversarySpec::passive(), 8, 0.5);
        assert!(r.completed);
        assert_eq!(r.election_slots.len(), 8);
        // Election slots are strictly increasing.
        assert!(r.election_slots.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn later_leaders_come_much_faster_than_the_first() {
        let ratios = (500..520)
            .map(|seed| {
                let r = run_k_selection(&config(1024, seed), &AdversarySpec::passive(), 10, 0.5);
                assert!(r.completed);
                let gaps = r.gaps();
                let first = gaps[0] as f64;
                let rest: f64 = gaps[1..].iter().map(|&g| g as f64).sum::<f64>() / 9.0;
                rest / first
            })
            .collect::<Vec<f64>>();
        let med = jle_analysis_median(&ratios);
        assert!(
            med < 0.5,
            "additional leaders should be much cheaper than the first (ratio {med})"
        );
    }

    fn jle_analysis_median(xs: &[f64]) -> f64 {
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    }

    #[test]
    fn works_under_jamming() {
        let adv = AdversarySpec::new(Rate::from_f64(0.5), 16, JamStrategyKind::Saturating);
        let r = run_k_selection(&config(256, 9), &adv, 5, 0.5);
        assert!(r.completed);
        assert!(r.jammed > 0);
    }

    #[test]
    fn k_equals_n_selects_everyone() {
        let r = run_k_selection(&config(8, 1), &AdversarySpec::passive(), 8, 0.5);
        assert!(r.completed);
        assert_eq!(r.election_slots.len(), 8);
    }

    #[test]
    #[should_panic(expected = "cannot elect more leaders than stations")]
    fn rejects_k_above_n() {
        let _ = run_k_selection(&config(4, 1), &AdversarySpec::passive(), 5, 0.5);
    }

    #[test]
    #[should_panic(expected = "strong-CD only")]
    fn rejects_weak_cd() {
        let c = SimConfig::new(8, CdModel::Weak).with_seed(1).with_max_slots(100);
        let _ = run_k_selection(&c, &AdversarySpec::passive(), 2, 0.5);
    }

    #[test]
    fn gaps_reconstruct_slots() {
        let r = KSelectionReport {
            election_slots: vec![10, 12, 40],
            slots: 41,
            completed: true,
            jammed: 0,
        };
        assert_eq!(r.gaps(), vec![10, 1, 27]);
    }
}
