//! Willard-style log-logarithmic selection resolution.
//!
//! Willard (SIAM J. Comput. 1986) resolves selection in expected
//! `O(log log n)` slots with collision detection on a *clean* channel:
//! double the estimate until the channel falls silent, binary-search the
//! `Collision → Null` boundary, then dwell at the found estimate. Our
//! implementation is the natural uniform-protocol rendition:
//!
//! * **Doubling**: probe `u = 1, 2, 4, 8, …` (tx prob `2^{-u}`);
//!   `Collision` ⇒ estimate too low, double; `Null` ⇒ bracket found.
//! * **Binary search** on `[lo, hi]` until `hi − lo ≤ 1`.
//! * **Dwell** at the boundary estimate until a `Single` ends the run
//!   (with a slow *drift*: `Null` nudges the estimate down, `Collision`
//!   up, by 1 — without this the dwell phase could sit one off the
//!   optimum forever).
//!
//! Jamming breaks the search: every jammed probe reads `Collision` and
//! drives the estimate upward, so the protocol stalls at astronomically
//! small transmission probabilities (experiment E7 quantifies this).

use crate::broadcast::tx_probability;
use jle_engine::UniformProtocol;
use jle_radio::ChannelState;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WPhase {
    /// Doubling probes at `u = 2^k`.
    Doubling { k: u32 },
    /// Binary search of the Collision→Null boundary.
    Binary { lo: u64, hi: u64 },
    /// Dwell at the located estimate.
    Dwell { u: u64 },
}

/// Live Willard-style state.
#[derive(Debug, Clone)]
pub struct WillardProtocol {
    phase: WPhase,
}

/// Cap on the doubling exponent (tx prob `2^{-2^40}` is already 0).
const MAX_K: u32 = 40;

impl WillardProtocol {
    /// Start with the first probe at `u = 1`.
    pub fn new() -> Self {
        WillardProtocol { phase: WPhase::Doubling { k: 0 } }
    }

    fn current_u(&self) -> u64 {
        match self.phase {
            WPhase::Doubling { k } => 1u64 << k.min(MAX_K),
            WPhase::Binary { lo, hi } => (lo + hi) / 2,
            WPhase::Dwell { u } => u,
        }
    }

    /// Which phase the search is in: `"doubling"`, `"binary"`, `"dwell"`.
    pub fn phase_name(&self) -> &'static str {
        match self.phase {
            WPhase::Doubling { .. } => "doubling",
            WPhase::Binary { .. } => "binary",
            WPhase::Dwell { .. } => "dwell",
        }
    }
}

impl Default for WillardProtocol {
    fn default() -> Self {
        Self::new()
    }
}

impl UniformProtocol for WillardProtocol {
    fn tx_prob(&mut self, _slot: u64) -> f64 {
        tx_probability(self.current_u() as f64)
    }

    fn on_state(&mut self, _slot: u64, state: ChannelState) {
        let too_low = match state {
            ChannelState::Collision => true,
            ChannelState::Null => false,
            ChannelState::Single => return,
        };
        self.phase = match self.phase {
            WPhase::Doubling { k } => {
                if too_low {
                    WPhase::Doubling { k: (k + 1).min(MAX_K) }
                } else if k == 0 {
                    WPhase::Dwell { u: 1 }
                } else {
                    WPhase::Binary { lo: 1 << (k - 1), hi: 1 << k }
                }
            }
            WPhase::Binary { lo, hi } => {
                let mid = (lo + hi) / 2;
                let (lo, hi) = if too_low { (mid, hi) } else { (lo, mid) };
                if hi - lo <= 1 {
                    WPhase::Dwell { u: hi }
                } else {
                    WPhase::Binary { lo, hi }
                }
            }
            WPhase::Dwell { u } => {
                if too_low {
                    WPhase::Dwell { u: u + 1 }
                } else {
                    WPhase::Dwell { u: u.saturating_sub(1).max(1) }
                }
            }
        };
    }

    fn estimate(&self) -> Option<f64> {
        Some(self.current_u() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jle_adversary::{AdversarySpec, JamStrategyKind, Rate};
    use jle_engine::{run_cohort, SimConfig};
    use jle_radio::CdModel;

    #[test]
    fn doubling_then_binary_then_dwell() {
        let mut p = WillardProtocol::new();
        assert_eq!(p.phase_name(), "doubling");
        assert_eq!(p.current_u(), 1);
        p.on_state(0, ChannelState::Collision);
        assert_eq!(p.current_u(), 2);
        p.on_state(1, ChannelState::Collision);
        assert_eq!(p.current_u(), 4);
        p.on_state(2, ChannelState::Null); // bracket [2, 4]
        assert_eq!(p.phase_name(), "binary");
        assert_eq!(p.current_u(), 3);
        p.on_state(3, ChannelState::Collision); // [3, 4] → done, hi = 4
        assert_eq!(p.phase_name(), "dwell");
        assert_eq!(p.current_u(), 4);
    }

    #[test]
    fn dwell_drift() {
        let mut p = WillardProtocol { phase: WPhase::Dwell { u: 5 } };
        p.on_state(0, ChannelState::Null);
        assert_eq!(p.current_u(), 4);
        p.on_state(1, ChannelState::Collision);
        assert_eq!(p.current_u(), 5);
        let mut q = WillardProtocol { phase: WPhase::Dwell { u: 1 } };
        q.on_state(0, ChannelState::Null);
        assert_eq!(q.current_u(), 1, "estimate floor is 1");
    }

    #[test]
    fn fast_on_clean_channel() {
        let slots = (90..120)
            .map(|seed| {
                let config =
                    SimConfig::new(4096, CdModel::Strong).with_seed(seed).with_max_slots(100_000);
                let r = run_cohort(&config, &AdversarySpec::passive(), WillardProtocol::new);
                assert!(r.leader_elected());
                r.slots as f64
            })
            .collect::<Vec<f64>>();
        let mean = slots.iter().sum::<f64>() / slots.len() as f64;
        // log log n regime: tens of slots, not hundreds.
        assert!(mean < 120.0, "mean {mean}");
    }

    #[test]
    fn jamming_wrecks_the_search() {
        // At eps = 0.5 Willard's symmetric ±1 dwell drift happens to
        // balance a 50% jammer, but at eps = 0.2 the adversary owns 80%
        // of the slots: jams (read as Collisions) outnumber Nulls and the
        // estimate diverges upward. LESK's asymmetric −1/+ε/8 rule is
        // built for exactly this regime.
        let eps = 0.2;
        let spec = AdversarySpec::new(Rate::from_f64(eps), 16, JamStrategyKind::Saturating);
        let willard_ok = (40..55)
            .map(|seed| {
                let config =
                    SimConfig::new(256, CdModel::Strong).with_seed(seed).with_max_slots(100_000);
                run_cohort(&config, &spec, WillardProtocol::new).leader_elected()
            })
            .filter(|&ok| ok)
            .count() as f64
            / 15.0;
        let lesk_ok = (40..55)
            .map(|seed| {
                let config =
                    SimConfig::new(256, CdModel::Strong).with_seed(seed).with_max_slots(100_000);
                run_cohort(&config, &spec, || crate::lesk::LeskProtocol::new(eps)).leader_elected()
            })
            .filter(|&ok| ok)
            .count() as f64
            / 15.0;
        assert!(lesk_ok >= 0.9, "LESK rate {lesk_ok}");
        assert!(
            lesk_ok > willard_ok,
            "LESK ({lesk_ok}) must beat Willard ({willard_ok}) under jamming"
        );
    }
}
