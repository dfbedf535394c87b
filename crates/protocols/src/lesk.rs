//! LESK — Leader Election in Strong-CD with Known ε (Algorithm 1).
//!
//! The paper's core protocol. Each station maintains a shared estimate
//! `u` of `log₂ n` and transmits with probability `2^{-u}` every slot:
//!
//! ```text
//! a ← 8/ε;  u ← 0
//! repeat
//!     state ← Broadcast(u)
//!     if state = Null      then u ← max(u − 1, 0)
//!     else if state = Collision then u ← u + 1/a
//! until state = Single
//! ```
//!
//! The asymmetry (−1 on `Null`, +ε/8 on `Collision`) is the jamming
//! defence: the adversary can only *add* collisions (worth `ε/8` each),
//! never fake a `Null` (worth −1), so each genuine silence neutralizes
//! ≈ 8/ε jammed slots. Theorem 2.6: a leader is elected in
//! `O(max{T, log n / (ε³ log(1/ε))})` slots w.h.p. against any adaptive
//! `(T, 1−ε)`-bounded adversary.
//!
//! LESK is *uniform*, so it runs on both engines; it implements
//! [`UniformProtocol`].

use crate::broadcast::tx_probability;
use jle_engine::UniformProtocol;
use jle_radio::ChannelState;

/// Live LESK state (shared by all stations of a cohort).
#[derive(Debug, Clone)]
pub struct LeskProtocol {
    eps: f64,
    /// `1/a = ε/8`: the per-`Collision` increment.
    increment: f64,
    /// The estimate `u` of `log₂ n`.
    u: f64,
}

impl LeskProtocol {
    /// Create LESK with known ε ∈ (0, 1).
    ///
    /// # Panics
    /// Panics unless `0 < eps < 1`.
    pub fn new(eps: f64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1), got {eps}");
        LeskProtocol { eps, increment: eps / 8.0, u: 0.0 }
    }

    /// Create LESK starting from a non-default estimate (used by tests and
    /// the slot-taxonomy experiment to enter specific regimes quickly).
    pub fn with_initial_estimate(eps: f64, u: f64) -> Self {
        LeskProtocol::new(eps).starting_at(u)
    }

    /// Create LESK with a non-paper increment `ε/divisor` instead of the
    /// paper's `ε/8` (`a = 8/ε`). For the E20 ablation: the stability
    /// argument only needs the drift condition
    /// `(1−ε)·(ε/divisor) < ε·1`, i.e. `divisor > 1−ε`, but the
    /// counting lemmas' constants assume `a ≥ 8`.
    ///
    /// # Panics
    /// Panics unless `0 < eps < 1` and `divisor > 0`.
    pub fn with_increment_divisor(eps: f64, divisor: f64) -> Self {
        assert!(divisor > 0.0, "divisor must be positive");
        let mut p = LeskProtocol::new(eps);
        p.increment = eps / divisor;
        p
    }

    /// Builder: start the walk at estimate `u` (clamped at 0). Composes
    /// with the other constructors.
    pub fn starting_at(mut self, u: f64) -> Self {
        self.u = u.max(0.0);
        self
    }

    /// The ε this instance was built with.
    #[inline]
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// The paper's `a = 8/ε`.
    #[inline]
    pub fn a(&self) -> f64 {
        8.0 / self.eps
    }

    /// Current estimate `u`.
    #[inline]
    pub fn u(&self) -> f64 {
        self.u
    }

    /// Apply one LESK update for an observed state. `Single` ends the
    /// protocol and carries no update.
    #[inline]
    pub fn update(&mut self, state: ChannelState) {
        match state {
            ChannelState::Null => self.u = (self.u - 1.0).max(0.0),
            ChannelState::Collision => self.u += self.increment,
            ChannelState::Single => {}
        }
    }
}

impl UniformProtocol for LeskProtocol {
    fn tx_prob(&mut self, _slot: u64) -> f64 {
        tx_probability(self.u)
    }

    fn on_state(&mut self, _slot: u64, state: ChannelState) {
        self.update(state);
    }

    fn estimate(&self) -> Option<f64> {
        Some(self.u)
    }

    fn state_probe(&self) -> Option<(&'static str, Option<f64>)> {
        Some(("electing", Some(self.u)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jle_adversary::{AdversarySpec, JamStrategyKind, Rate};
    use jle_engine::{run_cohort, SimConfig};
    use jle_radio::CdModel;

    #[test]
    fn update_rule_matches_algorithm_1() {
        let mut p = LeskProtocol::new(0.5);
        assert_eq!(p.u(), 0.0);
        p.update(ChannelState::Null);
        assert_eq!(p.u(), 0.0, "u is clamped at 0");
        p.update(ChannelState::Collision);
        assert!((p.u() - 0.0625).abs() < 1e-12, "increment is eps/8 = 1/16");
        for _ in 0..16 {
            p.update(ChannelState::Collision);
        }
        assert!((p.u() - 17.0 * 0.0625).abs() < 1e-12);
        p.update(ChannelState::Null);
        assert!((p.u() - (17.0 * 0.0625 - 1.0)).abs() < 1e-12);
        let before = p.u();
        p.update(ChannelState::Single);
        assert_eq!(p.u(), before, "Single carries no update");
    }

    #[test]
    fn null_worth_eight_over_eps_collisions() {
        // The design intuition: one Null neutralizes a = 8/eps collisions.
        let mut p = LeskProtocol::new(0.25);
        for _ in 0..32 {
            p.update(ChannelState::Collision);
        }
        assert!((p.u() - 1.0).abs() < 1e-12, "32 collisions at eps=1/4 raise u by 1");
        p.update(ChannelState::Null);
        assert!(p.u().abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "eps must be in (0,1)")]
    fn rejects_eps_one() {
        let _ = LeskProtocol::new(1.0);
    }

    #[test]
    fn elects_quickly_without_adversary() {
        // n = 256: Theorem 2.6 predicts O(log n) slots for constant eps.
        let slots = (1000..1050)
            .map(|seed| {
                let config =
                    SimConfig::new(256, CdModel::Strong).with_seed(seed).with_max_slots(100_000);
                let r = run_cohort(&config, &AdversarySpec::passive(), || LeskProtocol::new(0.5));
                assert!(r.leader_elected(), "must elect, seed {seed}");
                r.slots as f64
            })
            .collect::<Vec<f64>>();
        let mean = slots.iter().sum::<f64>() / slots.len() as f64;
        // u must climb from 0 to ~8 in eps/8 = 1/16 steps: >= 128 slots,
        // and w.h.p. the election lands within a few hundred.
        assert!(mean >= 100.0, "mean {mean} too fast to be plausible");
        assert!(mean <= 2_000.0, "mean {mean} way above the O(log n) regime");
    }

    #[test]
    fn elects_under_saturating_jammer() {
        let eps = 0.5;
        let spec = AdversarySpec::new(Rate::from_f64(eps), 32, JamStrategyKind::Saturating);
        let ok = (77..107)
            .map(|seed| {
                let config =
                    SimConfig::new(128, CdModel::Strong).with_seed(seed).with_max_slots(1_000_000);
                run_cohort(&config, &spec, || LeskProtocol::new(eps)).leader_elected()
            })
            .filter(|&ok| ok)
            .count() as f64
            / 30.0;
        assert_eq!(ok, 1.0, "LESK must survive the saturating jammer");
    }

    #[test]
    fn estimate_tracks_log_n_eventually() {
        // After enough slots, u should hover near log2(n) (Section 2.2's
        // biased-random-walk argument). Run with a jammer that cannot
        // stop the drift and inspect the trace.
        let n = 1024u64;
        let config = SimConfig::new(n, CdModel::Strong)
            .with_seed(5)
            .with_max_slots(100_000)
            .with_trace(true);
        let r = run_cohort(&config, &AdversarySpec::passive(), || LeskProtocol::new(0.5));
        let trace = r.trace.unwrap();
        let last_u = *trace.estimates.last().unwrap();
        // At election time u is inside the paper's regular band
        // [u0 - log2(2 ln a), u0 + log2(sqrt a) + 1] (a = 16).
        let u0 = (n as f64).log2();
        let a = 16.0f64;
        assert!(
            last_u >= u0 - (2.0 * a.ln()).log2() - 1.0 && last_u <= u0 + 0.5 * a.log2() + 2.0,
            "final u = {last_u}, u0 = {u0}"
        );
    }

    #[test]
    fn with_initial_estimate_clamps() {
        let p = LeskProtocol::with_initial_estimate(0.5, -3.0);
        assert_eq!(p.u(), 0.0);
        let p = LeskProtocol::with_initial_estimate(0.5, 12.5);
        assert_eq!(p.u(), 12.5);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_state() -> impl Strategy<Value = ChannelState> {
        prop_oneof![
            Just(ChannelState::Null),
            Just(ChannelState::Collision),
            Just(ChannelState::Single),
        ]
    }

    proptest! {
        /// The estimate never goes negative and moves exactly per the
        /// Algorithm 1 rule under arbitrary channel sequences.
        #[test]
        fn update_rule_invariants(
            eps_pct in 1u32..100,
            states in proptest::collection::vec(arb_state(), 0..500),
        ) {
            let eps = eps_pct as f64 / 100.0;
            let mut p = LeskProtocol::new(eps);
            let mut model = 0.0f64;
            for &s in &states {
                p.update(s);
                match s {
                    ChannelState::Null => model = (model - 1.0).max(0.0),
                    ChannelState::Collision => model += eps / 8.0,
                    ChannelState::Single => {}
                }
                prop_assert!(p.u() >= 0.0);
                prop_assert!((p.u() - model).abs() < 1e-9);
            }
        }

        /// tx probability is 2^-u, monotone decreasing in u.
        #[test]
        fn tx_prob_tracks_estimate(collisions in 0usize..500) {
            let mut p = LeskProtocol::new(0.5);
            let mut last = p.tx_prob(0);
            prop_assert_eq!(last, 1.0);
            for i in 0..collisions {
                p.on_state(i as u64, ChannelState::Collision);
                let now = p.tx_prob(i as u64 + 1);
                prop_assert!(now <= last);
                prop_assert!((now - (-p.u()).exp2()).abs() < 1e-12);
                last = now;
            }
        }
    }
}
