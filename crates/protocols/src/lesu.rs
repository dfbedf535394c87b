//! LESU — Leader Election in Strong-CD with Unknown ε (Algorithm 2).
//!
//! When neither `ε` nor `T` is known, LESU first calibrates a time unit
//! with `Estimation(2)` and then sweeps time-boxed LESK runs over a
//! doubling schedule of candidate ε values:
//!
//! ```text
//! ε_i ← 2^(−i/3)
//! t₀  ← c · 2^(1 + Estimation(2))
//! t_i ← t₀ / (ε_i³ · log₂(1/ε_i))          // = 3 · 2^i · t₀ / i
//! for i ← 1, 2, … :
//!     for j ← 1, 2, …, i :
//!         run LESK(ε_j) for ⌈t_i · i / j⌉ slots   // = ⌈3 · 2^i · t₀ / j⌉
//! ```
//!
//! Each inner run resets LESK's estimate (fresh variables, fresh
//! randomness). Theorem 2.9: for `n ≥ 115` LESU elects a leader w.h.p. in
//! `O(ε⁻³ log log(1/ε) · log n)` slots when `T ≤ log n/(ε³ log(1/ε))`,
//! and `O(max{log log(T/(ε log n)), log(1/ε) log log(1/ε)}·T)` otherwise.
//!
//! The paper fixes the schedule constant only existentially ("let c be
//! such a constant …"); we default to `c = 4` and expose it for the E4
//! ablation.

use crate::estimation::EstimationProtocol;
use crate::lesk::LeskProtocol;
use jle_engine::UniformProtocol;
use jle_radio::ChannelState;

/// Default schedule constant `c` (see module docs).
pub const DEFAULT_SCHEDULE_CONSTANT: f64 = 4.0;

/// The candidate ε of sweep index `j`: `ε_j = 2^{−j/3}`.
#[inline]
pub fn candidate_eps(j: u32) -> f64 {
    (-(j as f64) / 3.0).exp2()
}

/// The time box of inner run `(i, j)` given `t₀`: `⌈3 · 2^i · t₀ / j⌉`.
#[inline]
pub fn inner_budget(t0: f64, i: u32, j: u32) -> u64 {
    let b = 3.0 * (i as f64).exp2() * t0 / j as f64;
    if b >= u64::MAX as f64 {
        u64::MAX
    } else {
        b.ceil().max(1.0) as u64
    }
}

#[derive(Debug, Clone)]
enum Phase {
    Estimating(EstimationProtocol),
    Electing { i: u32, j: u32, budget_left: u64, lesk: LeskProtocol },
}

/// Live LESU state.
#[derive(Debug, Clone)]
pub struct LesuProtocol {
    c: f64,
    t0: Option<f64>,
    phase: Phase,
}

impl LesuProtocol {
    /// LESU with the default schedule constant.
    pub fn new() -> Self {
        Self::with_constant(DEFAULT_SCHEDULE_CONSTANT)
    }

    /// LESU with an explicit schedule constant `c > 0`.
    ///
    /// # Panics
    /// Panics unless `c > 0`.
    pub fn with_constant(c: f64) -> Self {
        assert!(c > 0.0, "schedule constant must be positive");
        LesuProtocol { c, t0: None, phase: Phase::Estimating(EstimationProtocol::paper()) }
    }

    /// The calibrated `t₀`, available once `Estimation` finished.
    pub fn t0(&self) -> Option<f64> {
        self.t0
    }

    /// The current inner run `(i, j, ε_j)`, if in the election phase.
    pub fn current_run(&self) -> Option<(u32, u32, f64)> {
        match &self.phase {
            Phase::Electing { i, j, .. } => Some((*i, *j, candidate_eps(*j))),
            Phase::Estimating(_) => None,
        }
    }

    fn start_run(&mut self, i: u32, j: u32) {
        let t0 = self.t0.expect("t0 set before electing");
        self.phase = Phase::Electing {
            i,
            j,
            budget_left: inner_budget(t0, i, j),
            lesk: LeskProtocol::new(candidate_eps(j)),
        };
    }

    fn advance_schedule(&mut self) {
        let (i, j) = match &self.phase {
            Phase::Electing { i, j, .. } => (*i, *j),
            Phase::Estimating(_) => unreachable!("schedule advances only while electing"),
        };
        if j < i {
            self.start_run(i, j + 1);
        } else {
            self.start_run(i + 1, 1);
        }
    }
}

impl Default for LesuProtocol {
    fn default() -> Self {
        Self::new()
    }
}

impl UniformProtocol for LesuProtocol {
    fn tx_prob(&mut self, slot: u64) -> f64 {
        match &mut self.phase {
            Phase::Estimating(e) => e.tx_prob(slot),
            Phase::Electing { lesk, .. } => lesk.tx_prob(slot),
        }
    }

    fn on_state(&mut self, slot: u64, state: ChannelState) {
        match &mut self.phase {
            Phase::Estimating(e) => {
                e.on_state(slot, state);
                if let Some(round) = e.result() {
                    // t0 = c · 2^(1 + round)
                    self.t0 = Some(self.c * ((round + 1) as f64).exp2());
                    self.start_run(1, 1);
                }
            }
            Phase::Electing { lesk, budget_left, .. } => {
                lesk.on_state(slot, state);
                *budget_left -= 1;
                if *budget_left == 0 {
                    self.advance_schedule();
                }
            }
        }
    }

    fn estimate(&self) -> Option<f64> {
        match &self.phase {
            Phase::Estimating(_) => None,
            Phase::Electing { lesk, .. } => Some(lesk.u()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jle_adversary::{AdversarySpec, JamStrategyKind, Rate};
    use jle_engine::{run_cohort, run_cohort_with, SimConfig};
    use jle_radio::CdModel;

    #[test]
    fn candidate_eps_schedule() {
        assert!((candidate_eps(3) - 0.5).abs() < 1e-12);
        assert!((candidate_eps(6) - 0.25).abs() < 1e-12);
        assert!(candidate_eps(1) < 1.0 && candidate_eps(1) > 0.75);
        // ε_j is decreasing in j.
        for j in 1..30 {
            assert!(candidate_eps(j + 1) < candidate_eps(j));
        }
    }

    #[test]
    fn inner_budget_formula() {
        // t_i · i / j = 3 · 2^i · t0 / j
        assert_eq!(inner_budget(10.0, 1, 1), 60);
        assert_eq!(inner_budget(10.0, 2, 1), 120);
        assert_eq!(inner_budget(10.0, 2, 2), 60);
        assert_eq!(inner_budget(10.0, 3, 2), 120);
        assert!(inner_budget(1e30, 62, 1) == u64::MAX, "saturates instead of overflowing");
    }

    #[test]
    fn schedule_walks_i_then_j() {
        let mut p = LesuProtocol::new();
        p.t0 = Some(1.0 / 3.0); // budgets: ceil(2^i / j)
        p.start_run(1, 1);
        assert_eq!(p.current_run().map(|(i, j, _)| (i, j)), Some((1, 1)));
        // Exhaust (1,1): budget = ceil(3 * 2 * (1/3) / 1) = 2 slots.
        p.on_state(0, ChannelState::Collision);
        p.on_state(1, ChannelState::Collision);
        assert_eq!(p.current_run().map(|(i, j, _)| (i, j)), Some((2, 1)));
        // (2,1): budget = ceil(3 * 4 / 3 / 1) = 4.
        for s in 0..4 {
            p.on_state(s, ChannelState::Collision);
        }
        assert_eq!(p.current_run().map(|(i, j, _)| (i, j)), Some((2, 2)));
        // (2,2): budget = 2.
        p.on_state(0, ChannelState::Collision);
        p.on_state(1, ChannelState::Collision);
        assert_eq!(p.current_run().map(|(i, j, _)| (i, j)), Some((3, 1)));
    }

    #[test]
    fn lesk_resets_between_runs() {
        let mut p = LesuProtocol::new();
        p.t0 = Some(1.0 / 3.0);
        p.start_run(1, 1);
        p.on_state(0, ChannelState::Collision);
        assert!(p.estimate().unwrap() > 0.0, "collision bumped u");
        p.on_state(1, ChannelState::Collision); // run (1,1) ends
        assert_eq!(p.estimate(), Some(0.0), "fresh LESK starts at u = 0");
    }

    #[test]
    fn estimation_result_seeds_t0() {
        // Drive the estimation phase by hand: two Nulls in round 1.
        let mut p = LesuProtocol::with_constant(2.0);
        assert!(p.t0().is_none());
        assert!(p.estimate().is_none());
        p.on_state(0, ChannelState::Null);
        p.on_state(1, ChannelState::Null);
        // round = 1 → t0 = 2 · 2^2 = 8.
        assert_eq!(p.t0(), Some(8.0));
        assert_eq!(p.current_run().map(|(i, j, _)| (i, j)), Some((1, 1)));
    }

    #[test]
    fn elects_without_adversary() {
        let ok = (50..80)
            .map(|seed| {
                let config =
                    SimConfig::new(200, CdModel::Strong).with_seed(seed).with_max_slots(2_000_000);
                run_cohort(&config, &AdversarySpec::passive(), LesuProtocol::new).leader_elected()
            })
            .filter(|&ok| ok)
            .count() as f64
            / 30.0;
        assert_eq!(ok, 1.0);
    }

    #[test]
    fn elects_with_unknown_eps_under_jamming() {
        // The whole point of LESU: the protocol does not know eps = 0.3.
        let spec = AdversarySpec::new(Rate::from_f64(0.3), 16, JamStrategyKind::Saturating);
        let ok = (4000..4020)
            .map(|seed| {
                let config =
                    SimConfig::new(115, CdModel::Strong).with_seed(seed).with_max_slots(5_000_000);
                run_cohort(&config, &spec, LesuProtocol::new).leader_elected()
            })
            .filter(|&ok| ok)
            .count() as f64
            / 20.0;
        assert_eq!(ok, 1.0);
    }

    #[test]
    fn schedule_reaches_small_eps_before_election_under_heavy_jamming() {
        let spec = AdversarySpec::new(Rate::from_ratio(1, 8), 8, JamStrategyKind::Saturating);
        let config = SimConfig::new(115, CdModel::Strong).with_seed(11).with_max_slots(5_000_000);
        let (report, proto) = run_cohort_with(&config, &spec, LesuProtocol::new);
        assert!(report.leader_elected());
        // By election time the sweep should have pushed past eps_1.
        if let Some((i, _, _)) = proto.current_run() {
            assert!(i >= 1);
        }
    }

    #[test]
    #[should_panic(expected = "schedule constant must be positive")]
    fn rejects_non_positive_c() {
        let _ = LesuProtocol::with_constant(0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The inner time boxes follow 3·2^i·t0/j exactly and double
        /// along the diagonal.
        #[test]
        fn budgets_scale(t0 in 1.0f64..10_000.0, i in 1u32..30) {
            for j in 1..=i {
                let b = inner_budget(t0, i, j);
                prop_assert!(b >= 1);
                // b doubles when i increments (same j).
                let b2 = inner_budget(t0, i + 1, j);
                prop_assert!(b2 >= 2 * b - 2, "b={b}, b2={b2}");
                // and shrinks as j grows.
                if j > 1 {
                    prop_assert!(inner_budget(t0, i, j) <= inner_budget(t0, i, j - 1));
                }
            }
        }

        /// Driving LESU through arbitrary non-Single states never panics
        /// and always keeps a well-formed phase.
        #[test]
        fn schedule_never_wedges(
            states in proptest::collection::vec(
                prop_oneof![Just(ChannelState::Null), Just(ChannelState::Collision)], 1..2000),
        ) {
            let mut p = LesuProtocol::new();
            for (slot, &s) in states.iter().enumerate() {
                let _ = p.tx_prob(slot as u64);
                p.on_state(slot as u64, s);
                if let Some((i, j, eps_j)) = p.current_run() {
                    prop_assert!(j >= 1 && j <= i);
                    prop_assert!(eps_j > 0.0 && eps_j < 1.0);
                    prop_assert!(p.t0().is_some());
                }
            }
        }
    }
}
