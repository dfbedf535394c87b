//! Jamming-robust network-size approximation (paper §4 building block).
//!
//! Run the LESK estimate dynamics for a fixed horizon without stopping at
//! `Single`s and output `2^ū`, where `ū` averages the estimate over the
//! final quarter of the horizon. The same argument that confines LESK's
//! `u` to the regular band (Section 2.2) confines the output to
//! `[n / (2 ln a), n · 2√a]` against any `(T, 1−ε)` adversary: jams can
//! push the estimate only `ε/8` per slot upward and every genuine `Null`
//! pulls it a full unit down, so the band — and hence the approximation
//! factor — is adversary-independent up to the `a = 8/ε` constants.
//!
//! To keep the cohort lockstep sound in weak-CD we treat an observed
//! `Single` exactly like a `Collision` (`u += ε/8`): busy is busy. This
//! also means the protocol is *anonymous* — it never needs to know who
//! transmitted.

use crate::broadcast::tx_probability;
use jle_engine::UniformProtocol;
use jle_radio::ChannelState;

/// Live size-approximation state.
#[derive(Debug, Clone)]
pub struct SizeApproxProtocol {
    increment: f64,
    horizon: u64,
    slots_seen: u64,
    u: f64,
    /// Sum of `u` over the averaging window (final quarter).
    tail_sum: f64,
    tail_count: u64,
}

impl SizeApproxProtocol {
    /// Approximate for `horizon` slots with robustness parameter `eps`.
    ///
    /// # Panics
    /// Panics unless `0 < eps < 1` and `horizon >= 4`.
    pub fn new(eps: f64, horizon: u64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1)");
        assert!(horizon >= 4, "horizon too short to average");
        SizeApproxProtocol {
            increment: eps / 8.0,
            horizon,
            slots_seen: 0,
            u: 0.0,
            tail_sum: 0.0,
            tail_count: 0,
        }
    }

    /// The size estimate `2^ū`, meaningful once finished (or at any point
    /// after the averaging window opened).
    pub fn estimate_n(&self) -> f64 {
        let u_bar =
            if self.tail_count > 0 { self.tail_sum / self.tail_count as f64 } else { self.u };
        u_bar.exp2()
    }

    /// The current raw estimate `u`.
    pub fn u(&self) -> f64 {
        self.u
    }
}

impl UniformProtocol for SizeApproxProtocol {
    fn tx_prob(&mut self, _slot: u64) -> f64 {
        tx_probability(self.u)
    }

    fn on_state(&mut self, _slot: u64, state: ChannelState) {
        match state {
            ChannelState::Null => self.u = (self.u - 1.0).max(0.0),
            // Busy is busy: Single and Collision both bump the estimate,
            // keeping weak-CD cohorts in lockstep (see module docs).
            ChannelState::Single | ChannelState::Collision => self.u += self.increment,
        }
        self.slots_seen += 1;
        if self.slots_seen * 4 >= self.horizon * 3 {
            self.tail_sum += self.u;
            self.tail_count += 1;
        }
    }

    fn finished(&self) -> bool {
        self.slots_seen >= self.horizon
    }

    fn estimate(&self) -> Option<f64> {
        Some(self.u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jle_adversary::{AdversarySpec, JamStrategyKind, Rate};
    use jle_engine::{run_cohort_with, SimConfig, StopRule};
    use jle_radio::CdModel;

    fn approx(n: u64, eps: f64, adv: &AdversarySpec, seed: u64) -> f64 {
        let horizon = 400 + 40 * (n as f64).log2() as u64;
        let config = SimConfig::new(n, CdModel::Strong)
            .with_seed(seed)
            .with_max_slots(horizon + 10)
            .with_stop(StopRule::Horizon);
        let (report, proto) =
            run_cohort_with(&config, adv, || SizeApproxProtocol::new(eps, horizon));
        assert!(!report.timed_out);
        proto.estimate_n()
    }

    #[test]
    fn approximates_within_band_clean_channel() {
        let eps = 0.5;
        let a: f64 = 16.0;
        for &n in &[64u64, 1024, 65_536] {
            let est = approx(n, eps, &AdversarySpec::passive(), 5);
            let lo = n as f64 / (2.0 * a.ln()) / 2.0; // band low + slack
            let hi = n as f64 * 2.0 * a.sqrt() * 2.0; // band high + slack
            assert!(est >= lo && est <= hi, "n={n}: estimate {est} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn approximates_under_saturating_jammer() {
        let eps = 0.5;
        let a: f64 = 16.0;
        let adv = AdversarySpec::new(Rate::from_f64(eps), 16, JamStrategyKind::Saturating);
        let n = 4096u64;
        let ok = (99..109)
            .map(|seed| {
                let est = approx(n, eps, &adv, seed);
                est >= n as f64 / (4.0 * a.ln()) && est <= n as f64 * 4.0 * a.sqrt()
            })
            .filter(|&ok| ok)
            .count() as f64
            / 10.0;
        assert!(ok >= 0.9, "in-band rate {ok}");
    }

    #[test]
    fn jamming_biases_up_but_boundedly() {
        // The adversary can only push the estimate upward; check the
        // direction of the bias and its ceiling.
        let eps = 0.5;
        let n = 1024u64;
        let clean = approx(n, eps, &AdversarySpec::passive(), 7);
        let jam = AdversarySpec::new(Rate::from_f64(eps), 16, JamStrategyKind::Saturating);
        let jammed = approx(n, eps, &jam, 7);
        assert!(
            jammed >= clean * 0.5,
            "jamming should not push the estimate down (clean {clean}, jammed {jammed})"
        );
        assert!(jammed <= (n as f64) * 16.0, "bias must stay within the band");
    }

    #[test]
    #[should_panic(expected = "horizon too short")]
    fn rejects_tiny_horizon() {
        let _ = SizeApproxProtocol::new(0.5, 2);
    }
}
