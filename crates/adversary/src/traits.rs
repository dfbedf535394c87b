//! The adversary interface and the serializable adversary specification.

use crate::budget::JamBudget;
use crate::rate::Rate;
use jle_radio::HistoryView;
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// A jamming strategy: decides, slot by slot, whether it *wants* to jam.
///
/// Per the paper's model the adversary is adaptive — it sees the entire
/// channel history and knows the protocol, `n`, `ε` and `T` — but it must
/// commit to jamming **before** the stations act in the current slot.
/// The engine enforces that interface: `decide` is called before station
/// actions are sampled, and the request is clamped by [`JamBudget`] (a
/// strategy may consult the budget read-only to avoid wasting requests).
pub trait JamStrategy: Send {
    /// Human-readable name for reports.
    fn name(&self) -> &'static str;

    /// Whether the adversary requests to jam the slot about to be played.
    fn decide(
        &mut self,
        history: &dyn HistoryView,
        budget: &JamBudget,
        rng: &mut dyn RngCore,
    ) -> bool;

    /// Reset internal state for a fresh run.
    fn reset(&mut self) {}
}

/// Serializable description of an adversary: budget parameters plus a
/// strategy, buildable into a live [`JamStrategy`]. A key no field
/// declares is refused, here and in every strategy's parameters: a
/// cache key or a replay that dropped a knob would name another run.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct AdversarySpec {
    /// The ε of the `(T, 1−ε)` bound.
    pub eps: Rate,
    /// The window parameter `T`.
    pub t_window: u64,
    /// Which strategy to run within the budget.
    pub kind: crate::strategies::JamStrategyKind,
}

impl AdversarySpec {
    /// Create a spec.
    pub fn new(eps: Rate, t_window: u64, kind: crate::strategies::JamStrategyKind) -> Self {
        AdversarySpec { eps, t_window, kind }
    }

    /// A spec whose strategy never jams (budget parameters still recorded).
    pub fn passive() -> Self {
        AdversarySpec {
            eps: Rate::from_f64(0.5),
            t_window: 1,
            kind: crate::strategies::JamStrategyKind::None,
        }
    }

    /// Instantiate the budget enforcer.
    pub fn budget(&self) -> JamBudget {
        JamBudget::new(self.eps, self.t_window)
    }

    /// Instantiate the strategy.
    pub fn strategy(&self) -> Box<dyn JamStrategy> {
        self.kind.build(self)
    }

    /// Short label like `saturating(eps=0.50,T=32)` for tables.
    pub fn label(&self) -> String {
        format!("{}(eps={:.3},T={})", self.kind.name(), self.eps.as_f64(), self.t_window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::JamStrategyKind;

    #[test]
    fn spec_serde_roundtrip_all_kinds() {
        let kinds = vec![
            JamStrategyKind::None,
            JamStrategyKind::Saturating,
            JamStrategyKind::PeriodicFront,
            JamStrategyKind::Random { prob: 0.25 },
            JamStrategyKind::ReactiveNull,
            JamStrategyKind::AdaptiveEstimator {
                n: 1024,
                protocol_eps: 0.3,
                band: 2.5,
                initial_u: 0.0,
            },
            JamStrategyKind::Burst { on: 8, off: 4 },
            JamStrategyKind::FrontLoaded { horizon: 1000 },
            JamStrategyKind::Scripted { pattern: vec![true, false, true], repeat: true },
            JamStrategyKind::SweepTargeted { n: 256, band: 3.0 },
            JamStrategyKind::Phased {
                phases: vec![(0, JamStrategyKind::None), (100, JamStrategyKind::Saturating)],
            },
        ];
        for kind in kinds {
            let spec = AdversarySpec::new(Rate::from_ratio(1, 3), 16, kind);
            let json = serde_json::to_string(&spec).expect("serialize");
            let back: AdversarySpec = serde_json::from_str(&json).expect("deserialize");
            assert_eq!(back.eps, spec.eps);
            assert_eq!(back.t_window, spec.t_window);
            assert_eq!(back.kind.name(), spec.kind.name());
            // The rebuilt strategy must be constructible.
            let _ = back.strategy();
            let _ = back.budget();
        }
    }

    #[test]
    fn adaptive_estimator_initial_u_defaults_in_old_payloads() {
        // Payloads written before the initial_u field must still load.
        let json = r#"{"eps":{"num":2147483648},"t_window":8,
            "kind":{"AdaptiveEstimator":{"n":64,"protocol_eps":0.5,"band":3.0}}}"#;
        let spec: AdversarySpec = serde_json::from_str(json).expect("backward compat");
        assert_eq!(spec.kind.name(), "adaptive-estimator");
    }

    #[test]
    fn labels_are_informative() {
        let spec = AdversarySpec::new(Rate::from_f64(0.25), 64, JamStrategyKind::Saturating);
        let label = spec.label();
        assert!(label.contains("saturating"));
        assert!(label.contains("0.250"));
        assert!(label.contains("T=64"));
    }

    #[test]
    fn passive_spec_never_jams() {
        let spec = AdversarySpec::passive();
        let mut strategy = spec.strategy();
        let mut budget = spec.budget();
        let history = jle_radio::ChannelHistory::new(4);
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        for _ in 0..16 {
            assert!(!strategy.decide(&history, &budget, &mut rng));
            budget.skip();
        }
    }
}
