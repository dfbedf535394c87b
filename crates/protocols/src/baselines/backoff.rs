//! Oblivious cyclic-sweep election (classical baseline).
//!
//! Cycle `R = 1, 2, 3, …`; within cycle `R` spend one slot at each
//! probability `2^{-1}, 2^{-2}, …, 2^{-R}`. Some slot of a cycle with
//! `R ≥ log₂ n` has transmission probability ≈ `1/n` and yields a
//! `Single` with constant probability, so the protocol elects in
//! `O(log² n)` expected slots on a clean channel. It ignores the channel
//! history entirely — which makes it trivially *uniform* and trivially
//! *attackable*: an adversary that knows the schedule jams exactly the
//! useful slots (experiment E7).

use jle_engine::UniformProtocol;
use jle_radio::ChannelState;

/// Live sweep state.
#[derive(Debug, Clone)]
pub struct BackoffProtocol {
    cycle: u32,
    step: u32,
}

impl BackoffProtocol {
    /// Start at cycle 1.
    pub fn new() -> Self {
        BackoffProtocol { cycle: 1, step: 1 }
    }

    /// Current `(cycle, step)` — the slot transmits with `2^{-step}`.
    pub fn position(&self) -> (u32, u32) {
        (self.cycle, self.step)
    }
}

impl Default for BackoffProtocol {
    fn default() -> Self {
        Self::new()
    }
}

impl UniformProtocol for BackoffProtocol {
    fn tx_prob(&mut self, _slot: u64) -> f64 {
        crate::broadcast::tx_probability(self.step as f64)
    }

    fn on_state(&mut self, _slot: u64, _state: ChannelState) {
        // Oblivious: only the slot counter advances.
        if self.step >= self.cycle {
            self.cycle += 1;
            self.step = 1;
        } else {
            self.step += 1;
        }
    }

    fn estimate(&self) -> Option<f64> {
        Some(self.step as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jle_adversary::AdversarySpec;
    use jle_engine::{run_cohort, SimConfig};
    use jle_radio::CdModel;

    #[test]
    fn sweep_schedule() {
        let mut p = BackoffProtocol::new();
        let mut seq = Vec::new();
        for s in 0..10 {
            seq.push(p.position().1);
            p.on_state(s, ChannelState::Collision);
        }
        // cycles: [1], [1,2], [1,2,3], [1,2,3,4]
        assert_eq!(seq, vec![1, 1, 2, 1, 2, 3, 1, 2, 3, 4]);
    }

    #[test]
    fn elects_on_clean_channel() {
        let ok = (10..40)
            .map(|seed| {
                let config =
                    SimConfig::new(512, CdModel::Strong).with_seed(seed).with_max_slots(100_000);
                run_cohort(&config, &AdversarySpec::passive(), BackoffProtocol::new)
                    .leader_elected()
            })
            .filter(|&ok| ok)
            .count() as f64
            / 30.0;
        assert!(ok >= 0.95, "rate {ok}");
    }

    #[test]
    fn probability_ignores_channel() {
        let mut a = BackoffProtocol::new();
        let mut b = BackoffProtocol::new();
        for s in 0..20 {
            assert_eq!(a.tx_prob(s), b.tx_prob(s));
            a.on_state(s, ChannelState::Null);
            b.on_state(s, ChannelState::Collision);
        }
    }
}
