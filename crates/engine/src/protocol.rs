//! Station-side protocol interfaces.
//!
//! Two levels of abstraction:
//!
//! * [`Protocol`] — a fully general per-station state machine, driven by
//!   the per-station simulator ([`crate::fast`]). Needed for protocols whose
//!   stations play *different roles* (the paper's `Notification`
//!   transformation, where the C1 winner diverges from the rest).
//! * [`UniformProtocol`] — the paper's *uniform algorithm* class
//!   (Section 1.1: "each station transmits with the same probability,
//!   … the probability may depend on the history of the channel").
//!   Because all stations share one state, the cohort simulator
//!   ([`crate::cohort`]) tracks a single copy and samples the number of
//!   transmitters binomially — O(1) work per slot regardless of `n`.
//!
//! Any `UniformProtocol` can be run per-station through the
//! [`PerStation`] adapter, which is how the per-station engine cross-validates
//! the cohort engine (experiment E15).

use jle_radio::{ChannelState, Observation};
use rand::{Rng, RngCore};

/// What one station does in one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Transmit on the shared channel.
    Transmit,
    /// Sense (listen to) the channel.
    Listen,
    /// Power down for the slot: no transmission, no observation, no
    /// energy spent. The paper's model has every non-transmitter listen;
    /// `Sleep` exists for the energy-aware extension (E23, following the
    /// authors' energy-efficiency line of work, their ref [13]) and is
    /// only meaningful on the exact engine.
    Sleep,
}

/// Election status of one station.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Still participating.
    Running,
    /// Terminated knowing it is the leader.
    Leader,
    /// Terminated knowing it is not the leader.
    NonLeader,
}

impl Status {
    /// Whether the station has terminated.
    #[inline]
    pub fn terminal(self) -> bool {
        !matches!(self, Status::Running)
    }
}

/// A per-station protocol state machine.
///
/// The exact simulator calls [`Protocol::act`] for every running station,
/// resolves the slot, then calls [`Protocol::feedback`] with the
/// station-specific [`Observation`] (which already encodes the CD model:
/// a weak-CD transmitter receives [`Observation::TxAssumedCollision`]).
pub trait Protocol: Send {
    /// Decide the action for the slot about to be played.
    fn act(&mut self, slot: u64, rng: &mut dyn RngCore) -> Action;

    /// Receive the end-of-slot observation. `transmitted` repeats whether
    /// this station transmitted (it also follows from the observation
    /// under weak-CD, but not under strong-CD).
    fn feedback(&mut self, slot: u64, transmitted: bool, obs: Observation);

    /// Current election status.
    fn status(&self) -> Status;

    /// Whether the station finished its computation without terminating
    /// as `Leader`/`NonLeader` (e.g. an `Estimation` station that has its
    /// answer). Mirrors [`UniformProtocol::finished`]: the exact engine
    /// stops once some station reports `finished()` and every station is
    /// either terminal or finished. Defaults to `false`, which preserves
    /// run-to-the-cap behavior for election protocols.
    fn finished(&self) -> bool {
        false
    }

    /// Optional protocol-internal scalar (LESK's estimate `u`) for
    /// trajectory traces.
    fn estimate(&self) -> Option<f64> {
        None
    }

    /// Current protocol-internal state as a `(label, scalar)` pair for
    /// replay timelines ([`crate::StateProbe`]): a static state label of
    /// the protocol's choosing plus an optional scalar (LESK returns its
    /// estimate `u`, a lease protocol its epoch). Sampled after feedback,
    /// only when an observer opted in via
    /// [`crate::SlotObserver::wants_probes`] — the default path costs
    /// nothing. Must not mutate state or draw randomness.
    fn state_probe(&self) -> Option<(&'static str, Option<f64>)> {
        None
    }

    /// Wake hint for the active-set backend: the next slot this station
    /// wants [`Protocol::act`] called, given that it just returned
    /// [`Action::Sleep`] for `slot`. Only consulted by
    /// [`crate::FastExactStations`]; the legacy exact backend calls `act`
    /// every slot regardless.
    ///
    /// The default (`slot + 1`, wake every slot) is always correct.
    /// Implementations returning a later slot `w` promise that for every
    /// slot `t` in `(slot, w)` the station would have returned
    /// [`Action::Sleep`] *without consuming randomness and without
    /// changing state* — i.e. skipping those `act` calls is unobservable.
    /// Return [`u64::MAX`] for "never again" (a permanently withdrawn
    /// station). Violating the promise skews simulation results (the
    /// station misses slots it would have played) but is memory-safe.
    fn wake_hint(&self, slot: u64) -> u64 {
        slot + 1
    }
}

/// A uniform protocol: one shared state, one transmission probability per
/// slot, identical updates at every station.
///
/// The state update receives the *listener-observed* channel state. This
/// is faithful for every CD model the engine runs it under:
///
/// * strong-CD — everyone sees the true state anyway;
/// * weak-CD — a transmitter assumes `Collision`; in any slot with a
///   transmitter the true listener state is `Single` or `Collision`, and
///   the cohort engine stops at the first clean `Single`, so in every
///   *continuing* slot the transmitter's assumed `Collision` equals the
///   listeners' observation and the cohort stays lockstep;
/// * no-CD — the engine collapses `Null` to `Collision` before calling
///   [`UniformProtocol::on_state`] (listeners cannot tell them apart).
pub trait UniformProtocol: Send {
    /// Per-member transmission probability for the coming slot, in `[0,1]`.
    fn tx_prob(&mut self, slot: u64) -> f64;

    /// Shared state update with the (listener-view) channel state of the
    /// slot just played. Not called for the run-ending clean `Single`.
    fn on_state(&mut self, slot: u64, state: ChannelState);

    /// Whether the protocol has given up / finished without a `Single`
    /// (e.g. `Estimation` returning its round). The engine stops when
    /// this turns `true`.
    fn finished(&self) -> bool {
        false
    }

    /// Optional protocol-internal scalar (LESK's `u`) for traces.
    fn estimate(&self) -> Option<f64> {
        None
    }

    /// Current state as a `(label, scalar)` pair for replay timelines;
    /// mirrors [`Protocol::state_probe`] (which [`PerStation`] forwards
    /// here while the station is running).
    fn state_probe(&self) -> Option<(&'static str, Option<f64>)> {
        None
    }
}

/// Adapter running one private copy of a [`UniformProtocol`] as a
/// per-station [`Protocol`].
///
/// Termination semantics follow the paper's selection-resolution reading:
/// on hearing a clean `Single` a listener knows the election resolved and
/// becomes [`Status::NonLeader`]; a transmitter that *observes its own*
/// `Single` (strong-CD) becomes [`Status::Leader`]. A weak-CD transmitter
/// learns nothing and keeps running — exactly the gap `Notification`
/// closes.
#[derive(Debug, Clone)]
pub struct PerStation<U> {
    inner: U,
    status: Status,
}

impl<U: UniformProtocol> PerStation<U> {
    /// Wrap a uniform protocol state.
    pub fn new(inner: U) -> Self {
        PerStation { inner, status: Status::Running }
    }

    /// Access the wrapped protocol.
    pub fn inner(&self) -> &U {
        &self.inner
    }
}

impl<U: UniformProtocol + Send> Protocol for PerStation<U> {
    fn act(&mut self, slot: u64, rng: &mut dyn RngCore) -> Action {
        let p = self.inner.tx_prob(slot).clamp(0.0, 1.0);
        if p > 0.0 && rng.gen_bool(p) {
            Action::Transmit
        } else {
            Action::Listen
        }
    }

    fn feedback(&mut self, slot: u64, transmitted: bool, obs: Observation) {
        match obs {
            Observation::State(ChannelState::Single) => {
                if transmitted {
                    // Strong-CD: the transmitter sees its own Single.
                    self.status = Status::Leader;
                } else {
                    self.status = Status::NonLeader;
                }
            }
            Observation::State(state) => self.inner.on_state(slot, state),
            Observation::NoCd(nocd) => {
                if obs.heard_single() {
                    self.status = Status::NonLeader;
                } else {
                    let _ = nocd;
                    self.inner.on_state(slot, ChannelState::Collision);
                }
            }
            Observation::TxAssumedCollision => self.inner.on_state(slot, ChannelState::Collision),
        }
    }

    fn status(&self) -> Status {
        self.status
    }

    fn finished(&self) -> bool {
        self.inner.finished()
    }

    fn estimate(&self) -> Option<f64> {
        self.inner.estimate()
    }

    fn state_probe(&self) -> Option<(&'static str, Option<f64>)> {
        // A terminated station's state is its verdict; while running the
        // wrapped uniform protocol speaks for itself.
        match self.status {
            Status::Leader => Some(("leader", None)),
            Status::NonLeader => Some(("non_leader", None)),
            Status::Running => self.inner.state_probe(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, SeedableRng};

    /// Transmits with fixed probability, counts states.
    #[derive(Debug, Clone, Default)]
    struct FixedProb {
        p: f64,
        nulls: u32,
        collisions: u32,
    }

    impl UniformProtocol for FixedProb {
        fn tx_prob(&mut self, _: u64) -> f64 {
            self.p
        }
        fn on_state(&mut self, _: u64, state: ChannelState) {
            match state {
                ChannelState::Null => self.nulls += 1,
                ChannelState::Collision => self.collisions += 1,
                ChannelState::Single => unreachable!("engine handles Single"),
            }
        }
    }

    #[test]
    fn act_respects_probability_extremes() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut never = PerStation::new(FixedProb { p: 0.0, ..Default::default() });
        let mut always = PerStation::new(FixedProb { p: 1.0, ..Default::default() });
        for slot in 0..64 {
            assert_eq!(never.act(slot, &mut rng), Action::Listen);
            assert_eq!(always.act(slot, &mut rng), Action::Transmit);
        }
    }

    #[test]
    fn strong_cd_winner_becomes_leader() {
        let mut st = PerStation::new(FixedProb { p: 1.0, ..Default::default() });
        st.feedback(0, true, Observation::State(ChannelState::Single));
        assert_eq!(st.status(), Status::Leader);
    }

    #[test]
    fn listener_hearing_single_becomes_nonleader() {
        let mut st = PerStation::new(FixedProb { p: 0.0, ..Default::default() });
        st.feedback(0, false, Observation::State(ChannelState::Single));
        assert_eq!(st.status(), Status::NonLeader);
    }

    #[test]
    fn weak_cd_winner_keeps_running() {
        let mut st = PerStation::new(FixedProb { p: 1.0, ..Default::default() });
        st.feedback(0, true, Observation::TxAssumedCollision);
        assert_eq!(st.status(), Status::Running);
        assert_eq!(st.inner().collisions, 1, "assumed Collision must reach the state");
    }

    #[test]
    fn null_and_collision_reach_inner_state() {
        let mut st = PerStation::new(FixedProb { p: 0.5, ..Default::default() });
        st.feedback(0, false, Observation::State(ChannelState::Null));
        st.feedback(1, false, Observation::State(ChannelState::Collision));
        assert_eq!((st.inner().nulls, st.inner().collisions), (1, 1));
        assert_eq!(st.status(), Status::Running);
    }

    #[test]
    fn no_cd_null_collapses_to_collision() {
        use jle_radio::NoCdState;
        let mut st = PerStation::new(FixedProb { p: 0.5, ..Default::default() });
        st.feedback(0, false, Observation::NoCd(NoCdState::NoSingle));
        assert_eq!(st.inner().collisions, 1);
        st.feedback(1, false, Observation::NoCd(NoCdState::Single));
        assert_eq!(st.status(), Status::NonLeader);
    }

    #[test]
    fn status_terminal() {
        assert!(!Status::Running.terminal());
        assert!(Status::Leader.terminal());
        assert!(Status::NonLeader.terminal());
    }
}
