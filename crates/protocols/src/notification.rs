//! `Notification` — weak-CD leader election from any selection-resolution
//! algorithm (Section 3, Function 4, Lemma 3.1).
//!
//! Under weak-CD the station that transmits the first `Single` does not
//! hear it, so it never learns it won. `Notification` turns any algorithm
//! `A` that *obtains* a first `Single` in `t(n)` slots w.h.p. into a full
//! leader election with only constant-factor overhead, robust against the
//! same `(T, 1−ε)` adversary. It interleaves three exponentially growing
//! interval families C1/C2/C3 (see [`jle_radio::partition`]) and runs a
//! four-stage handshake:
//!
//! 1. everyone runs `A` in C1 (restarting with fresh state and
//!    randomness at each interval boundary) until a `Single` in C1; its
//!    transmitter `l` is the leader-to-be but does not know it — all
//!    *other* stations set `leader ← false` and move on, while `l` keeps
//!    running `A` alone in C1;
//! 2. the others run `A` in C2 until a `Single` in C2; `l`, listening in
//!    C2, hears it and learns `leader = true`;
//! 3. now `l` transmits in every C3 slot while the informed non-leaders
//!    saturate C1 (preventing a premature `Null` there); the adversary
//!    cannot jam an entire interval `C³ᵢ` with `2^i ≥ T`, so a `Single`
//!    eventually appears in C3 and every non-leader terminates;
//! 4. with everyone else gone, C1 falls silent; the first unjammed
//!    `Null` in C1 tells `l` it may terminate as leader.
//!
//! Lemma 3.1 requires `n ≥ 3` (with `n = 2` there is nobody left to keep
//! C1 busy and the C2 winner can strand). Total time is at most `8·t(n)`
//! with probability `≥ 1 − 1/n`.

use jle_engine::{Action, Protocol, Status, UniformProtocol};
use jle_radio::partition::{classify, SlotClass};
use jle_radio::{ChannelState, Observation};
use rand::{Rng, RngCore};

use crate::lesk::LeskProtocol;
use crate::lesu::LesuProtocol;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Running `A` in C1; `leader` still undefined.
    RunA1,
    /// Heard the C1 `Single` (⇒ `leader = false`); running `A` in C2.
    RunA2,
    /// Heard the C2 `Single` with `leader = false`: transmit in every C1
    /// slot until a `Single` in C3, then terminate as non-leader.
    JamC1,
    /// Heard the C2 `Single` with `leader` undefined (⇒ this is `l`,
    /// `leader = true`): transmit in every C3 slot until a `Null` in C1,
    /// then terminate as leader.
    NotifyC3,
}

/// Per-station `Notification` wrapper around a restartable inner
/// selection-resolution algorithm.
pub struct Notification<U, F> {
    factory: F,
    inner: Option<U>,
    /// Steps of the *current* inner execution (resets at every restart).
    local_step: u64,
    phase: Phase,
    status: Status,
}

impl<U, F> Notification<U, F>
where
    U: UniformProtocol,
    F: Fn() -> U,
{
    /// Wrap the inner algorithm built by `factory`. The factory is called
    /// afresh at every interval boundary ("revert all variables … and
    /// perform new random choices").
    pub fn new(factory: F) -> Self {
        Notification {
            factory,
            inner: None,
            local_step: 0,
            phase: Phase::RunA1,
            status: Status::Running,
        }
    }

    fn restart_inner(&mut self) {
        self.inner = Some((self.factory)());
        self.local_step = 0;
    }

    fn inner_update(&mut self, state: ChannelState) {
        if state != ChannelState::Single {
            if let Some(inner) = self.inner.as_mut() {
                inner.on_state(self.local_step, state);
            }
        }
        self.local_step += 1;
    }
}

/// LEWK: `Notification` over LESK(ε) — weak-CD election with known ε
/// (Theorem 3.2).
pub fn lewk(eps: f64) -> Notification<LeskProtocol, impl Fn() -> LeskProtocol> {
    Notification::new(move || LeskProtocol::new(eps))
}

/// LEWU: `Notification` over LESU — weak-CD election with no global
/// knowledge at all (Theorem 3.3).
pub fn lewu() -> Notification<LesuProtocol, impl Fn() -> LesuProtocol> {
    Notification::new(LesuProtocol::new)
}

impl<U, F> Protocol for Notification<U, F>
where
    U: UniformProtocol + Send,
    F: Fn() -> U + Send,
{
    fn act(&mut self, slot: u64, rng: &mut dyn RngCore) -> Action {
        if self.status.terminal() {
            return Action::Listen;
        }
        let Some(interval) = classify(slot) else {
            return Action::Listen; // padding slots 0..=2
        };
        match (self.phase, interval.class()) {
            (Phase::RunA1, SlotClass::C1) | (Phase::RunA2, SlotClass::C2) => {
                if interval.is_interval_start() || self.inner.is_none() {
                    self.restart_inner();
                }
                let p = self
                    .inner
                    .as_mut()
                    .expect("inner restarted above")
                    .tx_prob(self.local_step)
                    .clamp(0.0, 1.0);
                if p > 0.0 && rng.gen_bool(p) {
                    Action::Transmit
                } else {
                    Action::Listen
                }
            }
            (Phase::JamC1, SlotClass::C1) => Action::Transmit,
            (Phase::NotifyC3, SlotClass::C3) => Action::Transmit,
            _ => Action::Listen,
        }
    }

    fn feedback(&mut self, slot: u64, transmitted: bool, obs: Observation) {
        if self.status.terminal() {
            return;
        }
        let Some(interval) = classify(slot) else {
            return;
        };
        let heard_single = obs.heard_single() && !transmitted;
        match (self.phase, interval.class()) {
            (Phase::RunA1, SlotClass::C1) => {
                if heard_single {
                    // Someone else's Single in C1: leader ← false, stop A
                    // in C1 and prepare to run A in C2.
                    self.phase = Phase::RunA2;
                    self.inner = None;
                } else {
                    self.inner_update(obs.effective_state());
                }
            }
            (Phase::RunA1, SlotClass::C2) if heard_single => {
                // A Single in C2 while our leader flag is still
                // undefined: we are `l`, the C1 winner.
                self.phase = Phase::NotifyC3;
                self.inner = None;
            }
            (Phase::RunA2, SlotClass::C2) => {
                if heard_single {
                    // leader = false and the C2 Single arrived: keep C1
                    // busy until the leader's C3 notification lands.
                    self.phase = Phase::JamC1;
                    self.inner = None;
                } else {
                    self.inner_update(obs.effective_state());
                }
            }
            (Phase::RunA2, SlotClass::C3) | (Phase::JamC1, SlotClass::C3) if heard_single => {
                // The leader's C3 Single: we know the election is
                // over and may terminate. (RunA2 can reach this when
                // it was itself the C2 transmitter and missed the C2
                // Single.)
                self.status = Status::NonLeader;
            }
            (Phase::NotifyC3, SlotClass::C1)
                if !transmitted && obs.effective_state() == ChannelState::Null =>
            {
                // C1 fell silent: everyone else has terminated.
                self.status = Status::Leader;
            }
            _ => {}
        }
    }

    fn status(&self) -> Status {
        self.status
    }

    fn estimate(&self) -> Option<f64> {
        self.inner.as_ref().and_then(|i| i.estimate())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jle_adversary::{AdversarySpec, JamStrategyKind, Rate};
    use jle_engine::{run_fast_exact, SimConfig, StopRule};
    use jle_radio::CdModel;

    fn weak_config(n: u64, seed: u64, max_slots: u64) -> SimConfig {
        SimConfig::new(n, CdModel::Weak)
            .with_seed(seed)
            .with_max_slots(max_slots)
            .with_stop(StopRule::AllTerminated)
    }

    #[test]
    fn elects_exactly_one_leader_without_adversary() {
        let ok = (10..35)
            .map(|seed| {
                let config = weak_config(16, seed, 1_000_000);
                let r = run_fast_exact(&config, &AdversarySpec::passive(), |_| Box::new(lewk(0.5)));
                r.all_terminated && r.leaders.len() == 1
            })
            .filter(|&ok| ok)
            .count() as f64
            / 25.0;
        assert_eq!(ok, 1.0);
    }

    #[test]
    fn leader_is_the_first_c1_single_transmitter() {
        let config = weak_config(8, 42, 1_000_000);
        let r = run_fast_exact(&config, &AdversarySpec::passive(), |_| Box::new(lewk(0.5)));
        assert!(r.all_terminated);
        // The winner recorded by the engine is the first clean Single's
        // transmitter, which must be in C1 and must be the final leader.
        assert_eq!(r.leaders, vec![r.winner.unwrap()]);
    }

    #[test]
    fn survives_saturating_jammer() {
        let eps = 0.5;
        let spec = AdversarySpec::new(Rate::from_f64(eps), 16, JamStrategyKind::Saturating);
        let ok = (70..85)
            .map(|seed| {
                let config = weak_config(12, seed, 2_000_000);
                let r = run_fast_exact(&config, &spec, |_| Box::new(lewk(eps)));
                r.all_terminated && r.leaders.len() == 1
            })
            .filter(|&ok| ok)
            .count() as f64
            / 15.0;
        assert_eq!(ok, 1.0);
    }

    #[test]
    fn survives_reactive_jammer() {
        let spec = AdversarySpec::new(Rate::from_f64(0.5), 32, JamStrategyKind::ReactiveNull);
        let ok = (300..310)
            .map(|seed| {
                let config = weak_config(12, seed, 2_000_000);
                let r = run_fast_exact(&config, &spec, |_| Box::new(lewk(0.5)));
                r.all_terminated && r.leaders.len() == 1
            })
            .filter(|&ok| ok)
            .count() as f64
            / 10.0;
        assert_eq!(ok, 1.0);
    }

    #[test]
    fn lewu_elects_with_no_knowledge() {
        let spec = AdversarySpec::new(Rate::from_f64(0.4), 8, JamStrategyKind::Saturating);
        let ok = (900..908)
            .map(|seed| {
                let config = weak_config(10, seed, 5_000_000);
                let r = run_fast_exact(&config, &spec, |_| Box::new(lewu()));
                r.all_terminated && r.leaders.len() == 1
            })
            .filter(|&ok| ok)
            .count() as f64
            / 8.0;
        assert_eq!(ok, 1.0);
    }

    #[test]
    fn minimum_population_three() {
        // Lemma 3.1 assumes n >= 3; verify it holds right at the boundary.
        let ok = (5000..5020)
            .map(|seed| {
                let config = weak_config(3, seed, 2_000_000);
                let r = run_fast_exact(&config, &AdversarySpec::passive(), |_| Box::new(lewk(0.5)));
                r.all_terminated && r.leaders.len() == 1
            })
            .filter(|&ok| ok)
            .count() as f64
            / 20.0;
        assert_eq!(ok, 1.0);
    }

    #[test]
    fn never_two_leaders_even_when_capped() {
        // Even on truncated runs the safety property (at most one leader)
        // must hold.
        for seed in 0..40 {
            let config = weak_config(6, seed, 5_000); // tight cap
            let r = run_fast_exact(&config, &AdversarySpec::passive(), |_| Box::new(lewk(0.5)));
            assert!(r.leaders.len() <= 1, "seed {seed} produced {:?}", r.leaders);
        }
    }

    /// White-box walk through the four-stage handshake with a scripted
    /// channel, from the perspective of each role.
    #[test]
    fn scripted_handshake_roles() {
        use jle_engine::Action;
        use jle_radio::partition::interval_start;
        use jle_radio::{ChannelState, Observation};
        use rand::{rngs::SmallRng, SeedableRng};

        let mut rng = SmallRng::seed_from_u64(1);
        let single = Observation::State(ChannelState::Single);
        let null = Observation::State(ChannelState::Null);

        // Use level-4 intervals: C^4_1 starts at 45, C^4_2 at 61, C^4_3 at 77.
        let c1 = interval_start(4, 1);
        let c2 = interval_start(4, 2);
        let c3 = interval_start(4, 3);

        // --- Station r: hears the C1 single, then the C2 single --------
        let mut r = lewk(0.5);
        assert_eq!(r.status(), Status::Running);
        // Hears someone else's Single in C1 → leader=false, stop A in C1.
        r.act(c1, &mut rng);
        r.feedback(c1, false, single);
        // Now r must not run A in C1 anymore but run it in C2.
        // (In C1 it only listens.)
        for s in c1 + 1..c1 + 4 {
            assert_eq!(r.act(s, &mut rng), Action::Listen, "stopped in C1");
        }
        // Hears the C2 single → JamC1: transmit in *every* C1 slot.
        r.act(c2, &mut rng);
        r.feedback(c2, false, single);
        let next_c1 = interval_start(5, 1);
        for s in next_c1..next_c1 + 4 {
            assert_eq!(r.act(s, &mut rng), Action::Transmit, "must saturate C1");
        }
        // Hears the Single in C3 → terminates as non-leader.
        let next_c3 = interval_start(5, 3);
        r.act(next_c3, &mut rng);
        r.feedback(next_c3, false, single);
        assert_eq!(r.status(), Status::NonLeader);

        // --- Station l: transmitted the C1 single (does not hear it),
        //     then hears the C2 single → leader ------------------------
        let mut l = lewk(0.5);
        l.act(c1, &mut rng);
        // Weak-CD transmitter: assumed collision, stays in A1.
        l.feedback(c1, true, Observation::TxAssumedCollision);
        assert_eq!(l.status(), Status::Running);
        // Hears the C2 single while its leader flag is undefined → NotifyC3.
        l.act(c2, &mut rng);
        l.feedback(c2, false, single);
        // Must transmit every C3 slot…
        for s in c3..c3 + 4 {
            assert_eq!(l.act(s, &mut rng), Action::Transmit, "leader notifies in C3");
        }
        // …and not terminate on a C1 Null before it has notified? It may:
        // termination condition is *any* Null in C1 after leader=true.
        // Feed a Collision first (jam-saturated C1): no termination.
        let nc1 = interval_start(5, 1);
        l.act(nc1, &mut rng);
        l.feedback(nc1, false, Observation::State(ChannelState::Collision));
        assert_eq!(l.status(), Status::Running);
        // A clean Null in C1 ends it: leader elected.
        l.act(nc1 + 1, &mut rng);
        l.feedback(nc1 + 1, false, null);
        assert_eq!(l.status(), Status::Leader);

        // --- Station s: transmitted the C2 single (does not hear it),
        //     terminates on the C3 single ------------------------------
        let mut s2 = lewk(0.5);
        s2.act(c1, &mut rng);
        s2.feedback(c1, false, single); // heard C1 single → RunA2
        s2.act(c2, &mut rng);
        s2.feedback(c2, true, Observation::TxAssumedCollision); // its own C2 single
        assert_eq!(s2.status(), Status::Running, "s does not know it transmitted the single");
        // It keeps running A in C2 but must terminate on the C3 single.
        s2.act(c3, &mut rng);
        s2.feedback(c3, false, single);
        assert_eq!(s2.status(), Status::NonLeader);
    }

    #[test]
    fn padding_slots_are_idle() {
        use jle_engine::Action;
        use rand::{rngs::SmallRng, SeedableRng};
        let mut st = lewk(0.5);
        let mut rng = SmallRng::seed_from_u64(2);
        for slot in 0..3u64 {
            assert_eq!(st.act(slot, &mut rng), Action::Listen);
        }
    }

    #[test]
    fn inner_restarts_at_interval_boundaries() {
        use jle_radio::partition::interval_start;
        use jle_radio::{ChannelState, Observation};
        use rand::{rngs::SmallRng, SeedableRng};
        let mut st = lewk(0.5);
        let mut rng = SmallRng::seed_from_u64(3);
        // Run through C^3_1 (slots 21..28) feeding collisions: u grows.
        let c31 = interval_start(3, 1);
        for s in c31..c31 + 8 {
            st.act(s, &mut rng);
            st.feedback(s, false, Observation::State(ChannelState::Collision));
        }
        let u_end = st.estimate().unwrap();
        assert!(u_end > 0.0, "collisions must raise the inner estimate");
        // First slot of C^4_1: fresh inner instance, estimate reset.
        let c41 = interval_start(4, 1);
        st.act(c41, &mut rng);
        assert_eq!(st.estimate(), Some(0.0), "restart must revert all variables");
    }

    #[test]
    fn weak_cd_overhead_is_constant_factor() {
        // Lemma 3.1: Notification costs at most 8× the inner algorithm's
        // selection time. Compare medians over seeds.
        let n = 32u64;
        let weak: Vec<f64> = (1234..1254)
            .map(|seed| {
                let config = weak_config(n, seed, 2_000_000);
                let r = run_fast_exact(&config, &AdversarySpec::passive(), |_| Box::new(lewk(0.5)));
                assert!(r.all_terminated);
                r.slots as f64
            })
            .collect::<Vec<f64>>();
        let strong: Vec<f64> = (1234..1254)
            .map(|seed| {
                let config =
                    SimConfig::new(n, CdModel::Strong).with_seed(seed).with_max_slots(2_000_000);
                let r = jle_engine::run_cohort(&config, &AdversarySpec::passive(), || {
                    LeskProtocol::new(0.5)
                });
                r.slots as f64
            })
            .collect::<Vec<f64>>();
        let med = |mut v: Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let ratio = med(weak) / med(strong);
        // Lemma 3.1's 8x is against the w.h.p. selection bound t(n), not
        // the median, and the doubling intervals add discretization slack
        // (the run must reach an interval long enough for A to finish
        // within it); experiment E6 reports the precise measured ratios.
        // Here we only pin down "constant factor, not asymptotic blowup".
        assert!(ratio <= 40.0, "weak/strong median ratio {ratio}");
        assert!(ratio >= 1.0, "weak cannot beat strong");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use jle_radio::{ChannelState, NoCdState};
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, SeedableRng};

    fn arb_observation() -> impl Strategy<Value = Observation> {
        prop_oneof![
            Just(Observation::State(ChannelState::Null)),
            Just(Observation::State(ChannelState::Single)),
            Just(Observation::State(ChannelState::Collision)),
            Just(Observation::NoCd(NoCdState::Single)),
            Just(Observation::NoCd(NoCdState::NoSingle)),
            Just(Observation::TxAssumedCollision),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Feeding a Notification station *arbitrary* observation
        /// sequences never panics, never elects it leader without the
        /// full C2-single → C1-null path, and terminal status is sticky.
        #[test]
        fn survives_arbitrary_observations(
            seed in any::<u64>(),
            obs in proptest::collection::vec(arb_observation(), 1..400),
        ) {
            let mut st = lewk(0.5);
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut was_terminal = false;
            for (slot, &o) in obs.iter().enumerate() {
                let slot = slot as u64;
                let action = st.act(slot, &mut rng);
                // The engine would never deliver a listener observation
                // to a transmitter; respect that contract.
                let transmitted = action == jle_engine::Action::Transmit;
                let o = if transmitted { Observation::TxAssumedCollision } else { o };
                st.feedback(slot, transmitted, o);
                if was_terminal {
                    prop_assert!(st.status().terminal(), "terminal status must be sticky");
                }
                was_terminal = st.status().terminal();
            }
        }

        /// A station that never hears a Single can never terminate.
        #[test]
        fn no_single_no_termination(
            seed in any::<u64>(),
            states in proptest::collection::vec(
                prop_oneof![Just(ChannelState::Null), Just(ChannelState::Collision)], 1..400),
        ) {
            let mut st = lewk(0.5);
            let mut rng = SmallRng::seed_from_u64(seed);
            for (slot, &s) in states.iter().enumerate() {
                let slot = slot as u64;
                let transmitted = st.act(slot, &mut rng) == jle_engine::Action::Transmit;
                let o = if transmitted {
                    Observation::TxAssumedCollision
                } else {
                    Observation::State(s)
                };
                st.feedback(slot, transmitted, o);
                prop_assert_eq!(st.status(), Status::Running);
            }
        }
    }
}
