//! The `Estimation(L)` primitive (Function 2, Lemma 2.8).
//!
//! Doubling probe for `max{log log n, log T}`:
//!
//! ```text
//! for round = 1, 2, … :
//!     repeat 2^round times: Broadcast(2^round)     // tx prob 2^(−2^round)
//!     if (number of Nulls in this round) ≥ L: return round
//! ```
//!
//! Lemma 2.8 (`L = 2`, `n ≥ 115`): with probability ≥ 1 − 2/n², against
//! any `(T, 1−ε)`-adversary, the function either obtains a `Single`
//! (electing a leader early) or returns `i` with
//! `log log n − 1 ≤ i ≤ max{log log n, log T} + 1`, in
//! `O(max{log n, T})` slots. LESU seeds its schedule with
//! `t₀ = c · 2^{1+Estimation(2)}`.

use crate::broadcast::tx_probability;
use jle_engine::UniformProtocol;
use jle_radio::ChannelState;

/// Largest round we allow (`2^62` slots is far beyond any run cap).
const MAX_ROUND: u32 = 62;

/// Live `Estimation(L)` state.
#[derive(Debug, Clone)]
pub struct EstimationProtocol {
    l_threshold: u64,
    round: u32,
    slots_left_in_round: u64,
    nulls_this_round: u64,
    result: Option<u32>,
}

impl EstimationProtocol {
    /// Create `Estimation(L)`; the paper uses `L = 2`.
    ///
    /// # Panics
    /// Panics if `l_threshold == 0`.
    pub fn new(l_threshold: u64) -> Self {
        assert!(l_threshold >= 1, "L must be positive");
        EstimationProtocol {
            l_threshold,
            round: 1,
            slots_left_in_round: 2,
            nulls_this_round: 0,
            result: None,
        }
    }

    /// The paper's instantiation, `Estimation(2)`.
    pub fn paper() -> Self {
        EstimationProtocol::new(2)
    }

    /// The returned round, once finished.
    #[inline]
    pub fn result(&self) -> Option<u32> {
        self.result
    }

    /// The current round number.
    #[inline]
    pub fn round(&self) -> u32 {
        self.round
    }
}

impl UniformProtocol for EstimationProtocol {
    fn tx_prob(&mut self, _slot: u64) -> f64 {
        // Broadcast(2^round): transmit with probability 2^(−2^round).
        tx_probability((1u64 << self.round.min(MAX_ROUND)) as f64)
    }

    fn on_state(&mut self, _slot: u64, state: ChannelState) {
        if self.result.is_some() {
            return;
        }
        if state == ChannelState::Null {
            self.nulls_this_round += 1;
        }
        self.slots_left_in_round -= 1;
        if self.slots_left_in_round == 0 {
            if self.nulls_this_round >= self.l_threshold {
                self.result = Some(self.round);
            } else {
                self.round = (self.round + 1).min(MAX_ROUND);
                self.slots_left_in_round = 1u64 << self.round;
                self.nulls_this_round = 0;
            }
        }
    }

    fn finished(&self) -> bool {
        self.result.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jle_adversary::{AdversarySpec, JamStrategyKind, Rate};
    use jle_engine::{run_cohort_with, SimConfig};
    use jle_radio::CdModel;

    #[test]
    fn round_lengths_double() {
        let mut e = EstimationProtocol::new(99); // threshold unreachable early
        assert_eq!(e.round(), 1);
        // Round 1: 2 slots.
        e.on_state(0, ChannelState::Collision);
        e.on_state(1, ChannelState::Collision);
        assert_eq!(e.round(), 2);
        // Round 2: 4 slots.
        for s in 2..6 {
            e.on_state(s, ChannelState::Collision);
        }
        assert_eq!(e.round(), 3);
        assert!(!e.finished());
    }

    #[test]
    fn returns_when_nulls_reach_threshold() {
        let mut e = EstimationProtocol::new(2);
        e.on_state(0, ChannelState::Collision);
        e.on_state(1, ChannelState::Null);
        assert!(!e.finished(), "one Null < L = 2");
        // Round 2: two Nulls anywhere in the round suffice.
        e.on_state(2, ChannelState::Null);
        e.on_state(3, ChannelState::Collision);
        e.on_state(4, ChannelState::Null);
        e.on_state(5, ChannelState::Collision);
        assert_eq!(e.result(), Some(2));
        assert!(e.finished());
    }

    #[test]
    fn transmission_probability_is_doubly_exponential() {
        let mut e = EstimationProtocol::new(2);
        assert!((e.tx_prob(0) - 0.25).abs() < 1e-15, "round 1: 2^-2");
        e.on_state(0, ChannelState::Collision);
        e.on_state(1, ChannelState::Collision);
        assert!((e.tx_prob(2) - 0.0625).abs() < 1e-15, "round 2: 2^-4");
    }

    #[test]
    fn output_respects_lemma_2_8_window_without_adversary() {
        // n = 4096: log log n = log2(12) ≈ 3.58; window is
        // [floor(3.58)-1, 3.58+1] → rounds 2..=4 (T = 1: the T term
        // vanishes). The run may instead end in a Single — also allowed.
        let n = 4096u64;
        let ok = (31..71)
            .map(|seed| {
                let config =
                    SimConfig::new(n, CdModel::Strong).with_seed(seed).with_max_slots(100_000);
                let (report, proto) =
                    run_cohort_with(&config, &AdversarySpec::passive(), EstimationProtocol::paper);
                if report.resolved_at.is_some() {
                    return true; // Single counts as success per Lemma 2.8
                }
                let i = proto.result().expect("finished without Single") as f64;
                let loglog = (n as f64).log2().log2();
                i >= loglog.floor() - 1.0 && i <= loglog.ceil() + 1.0
            })
            .filter(|&ok| ok)
            .count() as f64
            / 40.0;
        assert!(ok >= 0.95, "success rate {ok}");
    }

    #[test]
    fn jamming_delays_but_stays_bounded() {
        // With T = 64 and a saturating eps=1/2 jammer, Lemma 2.8 allows
        // returns up to max{loglog n, log T} + 1 = 7.
        let n = 256u64;
        let spec = AdversarySpec::new(Rate::from_f64(0.5), 64, JamStrategyKind::Saturating);
        let ok = (900..925)
            .map(|seed| {
                let config =
                    SimConfig::new(n, CdModel::Strong).with_seed(seed).with_max_slots(100_000);
                let (report, proto) = run_cohort_with(&config, &spec, EstimationProtocol::paper);
                if report.resolved_at.is_some() {
                    return true;
                }
                proto.result().is_some_and(|r| (2..=7).contains(&r))
            })
            .filter(|&ok| ok)
            .count() as f64
            / 25.0;
        assert!(ok >= 0.9, "success rate {ok}");
    }

    #[test]
    #[should_panic(expected = "L must be positive")]
    fn rejects_zero_threshold() {
        let _ = EstimationProtocol::new(0);
    }
}
