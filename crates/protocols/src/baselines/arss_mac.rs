//! ARSS-style robust MAC (Awerbuch–Richa–Scheideler–Schmid–Zhang, TALG'14).
//!
//! The prior state of the art the paper measures itself against
//! (Section 1.3). The ARSS protocol ignores `Collision`s entirely —
//! "stations in their algorithm ignore all Collisions and the decisions
//! are made based only on Nulls and Singles" — and steers a per-station
//! access probability `p` with a multiplicative-weights rule plus an
//! adaptive time window `T_v`:
//!
//! * on `Null`: `p ← min((1+γ)·p, p_max)` and the idle timer resets;
//! * if no `Null` has been sensed for `T_v` consecutive slots:
//!   `p ← p/(1+γ)`, `T_v ← T_v + 2` (suspected jamming — back off);
//! * `γ = O(1/(log T + log log n))` is a *global* parameter the stations
//!   must know — precisely the knowledge the paper's LESU removes.
//!
//! This reimplementation follows the published dynamics with the authors'
//! `p_max = 1/24`; absolute constants were never reported, so experiment
//! E7 compares *shapes* (ARSS's proven `O(log⁴ n)` vs LESK's
//! `O(log n)`), not absolute slot counts. Selection ends at the first
//! clean `Single` like every other protocol here.

use jle_engine::UniformProtocol;
use jle_radio::ChannelState;

/// The authors' access-probability ceiling.
pub const P_MAX: f64 = 1.0 / 24.0;

/// Live ARSS MAC state.
#[derive(Debug, Clone)]
pub struct ArssMacProtocol {
    gamma: f64,
    p: f64,
    t_v: u64,
    slots_since_null: u64,
}

impl ArssMacProtocol {
    /// Create with explicit `γ`.
    ///
    /// # Panics
    /// Panics unless `0 < gamma <= 1`.
    pub fn new(gamma: f64) -> Self {
        assert!(gamma > 0.0 && gamma <= 1.0, "gamma must be in (0,1]");
        ArssMacProtocol { gamma, p: P_MAX, t_v: 1, slots_since_null: 0 }
    }

    /// The γ the original analysis prescribes for given `n` and `T`:
    /// `Θ(1/(log log n + log T))` (we use constant 1).
    pub fn recommended_gamma(n: u64, t_window: u64) -> f64 {
        let ll = (n.max(4) as f64).log2().log2();
        let lt = (t_window.max(2) as f64).log2();
        1.0 / (ll + lt)
    }

    /// Current access probability.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Current adaptive window `T_v`.
    pub fn t_v(&self) -> u64 {
        self.t_v
    }
}

impl UniformProtocol for ArssMacProtocol {
    fn tx_prob(&mut self, _slot: u64) -> f64 {
        self.p
    }

    fn on_state(&mut self, _slot: u64, state: ChannelState) {
        match state {
            ChannelState::Null => {
                self.p = (self.p * (1.0 + self.gamma)).min(P_MAX);
                self.slots_since_null = 0;
                self.t_v = self.t_v.saturating_sub(1).max(1);
            }
            ChannelState::Collision => {
                // Collisions are ignored except through the idle timer.
                self.slots_since_null += 1;
                if self.slots_since_null >= self.t_v {
                    self.p /= 1.0 + self.gamma;
                    self.t_v += 2;
                    self.slots_since_null = 0;
                }
            }
            ChannelState::Single => {}
        }
    }

    fn estimate(&self) -> Option<f64> {
        // Report -log2(p) so traces are comparable with LESK's u.
        Some(-self.p.log2())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jle_adversary::{AdversarySpec, JamStrategyKind, Rate};
    use jle_engine::{run_cohort, SimConfig};
    use jle_radio::CdModel;

    #[test]
    fn null_raises_p_collision_run_lowers_it() {
        let mut m = ArssMacProtocol::new(0.5);
        let p0 = m.p();
        m.on_state(0, ChannelState::Null);
        assert_eq!(m.p(), P_MAX, "p is capped at p_max");
        // Force the idle-timer backoff: T_v = 1 after the Null reset.
        m.on_state(1, ChannelState::Collision);
        assert!(m.p() < p0, "idle timeout must lower p");
        assert_eq!(m.t_v(), 3);
        let p1 = m.p();
        // Next backoff needs 3 consecutive non-Null slots.
        m.on_state(2, ChannelState::Collision);
        m.on_state(3, ChannelState::Collision);
        assert_eq!(m.p(), p1);
        m.on_state(4, ChannelState::Collision);
        assert!(m.p() < p1);
    }

    #[test]
    fn recommended_gamma_shrinks_with_scale() {
        assert!(
            ArssMacProtocol::recommended_gamma(1 << 20, 1024)
                < ArssMacProtocol::recommended_gamma(16, 2)
        );
    }

    #[test]
    fn elects_on_clean_channel() {
        let n = 512u64;
        let ok = (60..80)
            .map(|seed| {
                let config =
                    SimConfig::new(n, CdModel::Strong).with_seed(seed).with_max_slots(1_000_000);
                run_cohort(&config, &AdversarySpec::passive(), || {
                    ArssMacProtocol::new(ArssMacProtocol::recommended_gamma(n, 1))
                })
                .leader_elected()
            })
            .filter(|&ok| ok)
            .count() as f64
            / 20.0;
        assert_eq!(ok, 1.0);
    }

    #[test]
    fn survives_saturating_jammer_eventually() {
        // ARSS is provably robust too — just slower than LESK.
        let n = 128u64;
        let t = 16u64;
        let spec = AdversarySpec::new(Rate::from_f64(0.5), t, JamStrategyKind::Saturating);
        let ok = (77..87)
            .map(|seed| {
                let config =
                    SimConfig::new(n, CdModel::Strong).with_seed(seed).with_max_slots(5_000_000);
                run_cohort(&config, &spec, || {
                    ArssMacProtocol::new(ArssMacProtocol::recommended_gamma(n, t))
                })
                .leader_elected()
            })
            .filter(|&ok| ok)
            .count() as f64
            / 10.0;
        assert!(ok >= 0.9, "rate {ok}");
    }

    #[test]
    #[should_panic(expected = "gamma must be in (0,1]")]
    fn rejects_bad_gamma() {
        let _ = ArssMacProtocol::new(0.0);
    }
}
