//! Leader leases with re-election: keeping *one* leader alive in an
//! open world.
//!
//! The paper's protocols stop the moment a leader emerges. Once stations
//! can churn (join, leave, rejoin — see `jle_engine::churn`), a one-shot
//! election is not enough: the elected leader may depart, and the cohort
//! must notice and converge back to exactly one leader. [`LeaseProtocol`]
//! wraps any election protocol with the standard lease discipline:
//!
//! * **Leading** — the winner transmits a *lease beacon* every
//!   `beacon_period` slots (on the phase it won in) and verifies each
//!   beacon via strong-CD feedback: its own clean `Single` refreshes the
//!   lease in the shared [`LeaderLedger`]. `miss_tolerance` consecutive
//!   failed beacons (collisions with a rival leader's beacons, or heavy
//!   jamming) make it step down and re-enter election. Hearing a *rival's*
//!   clean beacon on a listen slot makes it abdicate immediately — the
//!   deterministic tie-breaker that resolves split brain without drawing
//!   randomness in `feedback`.
//! * **Following** — non-leaders run missed-beacon loss detection: a
//!   silence watchdog counting slots without any clean `Single`. When it
//!   fires, the station re-enters election; the timeout doubles after
//!   each firing (the same exponential-backoff discipline as
//!   [`Supervisor`]), so a cohort that keeps failing to elect under heavy
//!   jamming does not thrash.
//! * **Electing** — delegates to a fresh inner election instance (by
//!   default a [`Supervisor`]-wrapped LESK station, reusing its wedged-
//!   election watchdog). The inner station terminating as `Leader` or
//!   `NonLeader` moves this wrapper to Leading/Following; the wrapper
//!   itself always reports `Status::Running`, because open-world runs
//!   never terminate (`StopRule::Horizon`).
//!
//! Every re-election is recorded as a [`ReElectionRecord`] (and counted
//! on the ledger), ready for the flight recorder's `lease_lost` anomaly
//! kind.
//!
//! Beacon verification needs strong CD: only a strong-CD transmitter
//! observes the true channel state of its own slot. Under weak CD a
//! leader would assume every beacon collided and resign after
//! `miss_tolerance` periods, forever — run leases on
//! [`CdModel::Strong`](jle_radio::CdModel::Strong).

use crate::extensions::supervisor::{RestartFactory, Supervisor};
use jle_engine::{Action, LeaderLedger, Protocol, Status};
use jle_radio::cd::Observation;
use rand::RngCore;
use std::sync::Arc;

/// Lease timing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseConfig {
    /// The leader transmits a beacon every `beacon_period` slots.
    pub beacon_period: u64,
    /// Consecutive failed beacons before the leader steps down and
    /// re-enters election.
    pub miss_tolerance: u32,
    /// Follower watchdog: slots without hearing any clean `Single`
    /// before re-entering election (initial value; doubles after each
    /// firing). Choose it comfortably above
    /// `beacon_period * miss_tolerance`, and build the shared
    /// [`LeaderLedger`] with a TTL of the same order so a departed
    /// leader's belief lapses on the lease timescale.
    pub lease_timeout: u64,
}

impl LeaseConfig {
    /// Sanity-checked constructor.
    ///
    /// # Panics
    /// Panics if any parameter is zero.
    pub fn new(beacon_period: u64, miss_tolerance: u32, lease_timeout: u64) -> Self {
        assert!(beacon_period > 0, "beacon period must be positive");
        assert!(miss_tolerance > 0, "miss tolerance must be positive");
        assert!(lease_timeout > 0, "lease timeout must be positive");
        LeaseConfig { beacon_period, miss_tolerance, lease_timeout }
    }
}

/// Why a station re-entered election.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseLossCause {
    /// A follower's missed-beacon watchdog fired: no clean `Single` for a
    /// whole lease timeout.
    Silence,
    /// A leader failed `miss_tolerance` consecutive beacons and stepped
    /// down.
    BeaconContention,
}

/// One lease loss (re-election entry), as a re-election sink receives
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReElectionRecord {
    /// Slot whose feedback triggered the re-election.
    pub slot: u64,
    /// The station re-entering election.
    pub station: u64,
    /// What was lost (see [`LeaseLossCause`]).
    pub cause: LeaseLossCause,
    /// Zero-based index of this re-election on this station.
    pub reelection_index: u64,
}

/// Shared sink receiving every [`ReElectionRecord`] as it happens — wire
/// one across all stations of a trial to attribute lease losses.
pub type ReElectionSink = Arc<dyn Fn(&ReElectionRecord) + Send + Sync>;

enum Role {
    Electing(Box<dyn Protocol>),
    Leading { phase: u64, misses: u32 },
    Following { silence: u64 },
}

impl std::fmt::Debug for Role {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Role::Electing(_) => f.write_str("Electing"),
            Role::Leading { phase, misses } => {
                f.debug_struct("Leading").field("phase", phase).field("misses", misses).finish()
            }
            Role::Following { silence } => {
                f.debug_struct("Following").field("silence", silence).finish()
            }
        }
    }
}

/// The lease wrapper (see module docs).
pub struct LeaseProtocol {
    station: u64,
    config: LeaseConfig,
    ledger: Arc<LeaderLedger>,
    factory: RestartFactory,
    role: Role,
    /// Current follower watchdog timeout (doubles per Silence firing).
    follower_timeout: u64,
    reelections: u64,
    log: Vec<ReElectionRecord>,
    sink: Option<ReElectionSink>,
}

impl LeaseProtocol {
    /// Station `station` running the election built by `factory` under
    /// the lease discipline, with beliefs registered on `ledger`.
    pub fn new(
        station: u64,
        config: LeaseConfig,
        ledger: Arc<LeaderLedger>,
        mut factory: RestartFactory,
    ) -> Self {
        let inner = factory();
        LeaseProtocol {
            station,
            config,
            ledger,
            factory,
            role: Role::Electing(inner),
            follower_timeout: config.lease_timeout,
            reelections: 0,
            log: Vec::new(),
            sink: None,
        }
    }

    /// Convenience: lease over a [`Supervisor`]-wrapped strong-CD LESK
    /// station (the wedged-election watchdog guards each election
    /// attempt, the lease guards the reign).
    pub fn over_supervised_lesk(
        station: u64,
        eps: f64,
        watchdog_window: u64,
        config: LeaseConfig,
        ledger: Arc<LeaderLedger>,
    ) -> Self {
        LeaseProtocol::new(
            station,
            config,
            ledger,
            Box::new(move || Box::new(Supervisor::over_lesk(eps, watchdog_window))),
        )
    }

    /// Builder: forward every [`ReElectionRecord`] to `sink` as it
    /// happens (in addition to keeping it in [`LeaseProtocol::log`]).
    pub fn with_reelection_sink(mut self, sink: ReElectionSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Whether this station currently believes it is the leader.
    pub fn is_leading(&self) -> bool {
        matches!(self.role, Role::Leading { .. })
    }

    /// Re-elections entered by this station so far.
    pub fn reelections(&self) -> u64 {
        self.reelections
    }

    /// Every lease loss so far, in order.
    pub fn log(&self) -> &[ReElectionRecord] {
        &self.log
    }

    fn reelect(&mut self, slot: u64, cause: LeaseLossCause) {
        let record = ReElectionRecord {
            slot,
            station: self.station,
            cause,
            reelection_index: self.reelections,
        };
        if let Some(sink) = &self.sink {
            sink(&record);
        }
        self.log.push(record);
        self.reelections += 1;
        self.ledger.renounce(self.station);
        self.ledger.note_reelection();
        self.role = Role::Electing((self.factory)());
    }

    fn become_leading(&mut self, slot: u64) {
        // Beacon on the phase of the *next* slot, so the fresh leader
        // announces its reign immediately.
        let phase = (slot + 1) % self.config.beacon_period;
        self.ledger.assert_leader(self.station, slot);
        self.role = Role::Leading { phase, misses: 0 };
    }
}

impl std::fmt::Debug for LeaseProtocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LeaseProtocol")
            .field("station", &self.station)
            .field("role", &self.role)
            .field("reelections", &self.reelections)
            .finish_non_exhaustive()
    }
}

impl Protocol for LeaseProtocol {
    fn act(&mut self, slot: u64, rng: &mut dyn RngCore) -> Action {
        match &mut self.role {
            Role::Electing(inner) => inner.act(slot, rng),
            Role::Leading { phase, .. } => {
                if slot % self.config.beacon_period == *phase {
                    Action::Transmit
                } else {
                    Action::Listen
                }
            }
            Role::Following { .. } => Action::Listen,
        }
    }

    fn feedback(&mut self, slot: u64, transmitted: bool, obs: Observation) {
        match &mut self.role {
            Role::Electing(inner) => {
                inner.feedback(slot, transmitted, obs);
                match inner.status() {
                    Status::Leader => self.become_leading(slot),
                    Status::NonLeader => self.role = Role::Following { silence: 0 },
                    _ => {}
                }
            }
            Role::Leading { misses, .. } => {
                if transmitted {
                    // Beacon slot: strong CD lets the leader verify its
                    // own Single.
                    if obs.heard_single() {
                        *misses = 0;
                        self.ledger.assert_leader(self.station, slot);
                    } else {
                        *misses += 1;
                        if *misses >= self.config.miss_tolerance {
                            self.reelect(slot, LeaseLossCause::BeaconContention);
                        }
                    }
                } else if obs.heard_single() {
                    // A rival leader's clean beacon: abdicate. This is the
                    // deterministic split-brain resolver — beacons on
                    // different phases are heard by the other believer,
                    // and exactly one side steps down per heard beacon.
                    self.ledger.renounce(self.station);
                    self.role = Role::Following { silence: 0 };
                }
            }
            Role::Following { silence } => {
                if obs.heard_single() {
                    *silence = 0;
                } else {
                    *silence += 1;
                    if *silence >= self.follower_timeout {
                        // Back the watchdog off (Supervisor's discipline):
                        // repeated failed elections must not thrash.
                        self.follower_timeout = self.follower_timeout.saturating_mul(2);
                        self.reelect(slot, LeaseLossCause::Silence);
                    }
                }
            }
        }
    }

    fn status(&self) -> Status {
        // Never terminal: open-world stations keep running to the
        // horizon. Leadership belief lives in the ledger, not in the
        // engine's terminal-status machinery (which would put the station
        // to sleep forever).
        Status::Running
    }

    fn finished(&self) -> bool {
        false
    }

    fn estimate(&self) -> Option<f64> {
        match &self.role {
            Role::Electing(inner) => inner.estimate(),
            _ => None,
        }
    }

    fn state_probe(&self) -> Option<(&'static str, Option<f64>)> {
        match &self.role {
            Role::Electing(inner) => {
                Some(inner.state_probe().unwrap_or(("electing", inner.estimate())))
            }
            Role::Leading { misses, .. } => Some(("leading", Some(f64::from(*misses)))),
            Role::Following { silence } => Some(("following", Some(*silence as f64))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jle_engine::PerStation;
    use jle_engine::UniformProtocol;
    use jle_radio::ChannelState;
    use rand::{rngs::SmallRng, SeedableRng};

    #[derive(Debug, Clone)]
    struct Fixed(f64);
    impl UniformProtocol for Fixed {
        fn tx_prob(&mut self, _: u64) -> f64 {
            self.0
        }
        fn on_state(&mut self, _: u64, _: ChannelState) {}
    }

    fn lease(station: u64, p: f64, ledger: &Arc<LeaderLedger>) -> LeaseProtocol {
        LeaseProtocol::new(
            station,
            LeaseConfig::new(4, 2, 16),
            Arc::clone(ledger),
            Box::new(move || Box::new(PerStation::new(Fixed(p)))),
        )
    }

    fn single() -> Observation {
        Observation::State(ChannelState::Single)
    }

    fn null() -> Observation {
        Observation::State(ChannelState::Null)
    }

    #[test]
    fn winner_starts_beaconing_and_refreshes_the_lease() {
        let ledger = LeaderLedger::new(16);
        let mut p = lease(3, 1.0, &ledger);
        let mut rng = SmallRng::seed_from_u64(1);
        // Electing, always-transmit: first slot is its own clean Single.
        assert_eq!(p.act(0, &mut rng), Action::Transmit);
        p.feedback(0, true, single());
        assert!(p.is_leading());
        assert_eq!(ledger.live_believers(0), vec![3]);
        assert_eq!(p.status(), Status::Running, "lease stations never terminate");
        // Beacon phase is (0 + 1) % 4 = 1: listen on non-phase slots,
        // transmit on the phase.
        assert_eq!(p.act(1, &mut rng), Action::Transmit);
        p.feedback(1, true, single());
        assert_eq!(p.act(2, &mut rng), Action::Listen);
        p.feedback(2, false, null());
        assert_eq!(p.act(5, &mut rng), Action::Transmit, "next period, same phase");
        p.feedback(5, true, single());
        assert_eq!(ledger.live_believers(5), vec![3]);
        assert_eq!(p.reelections(), 0);
    }

    #[test]
    fn leader_steps_down_after_missed_beacons() {
        let ledger = LeaderLedger::new(16);
        let mut p = lease(0, 1.0, &ledger);
        p.feedback(0, true, single());
        assert!(p.is_leading());
        // Two consecutive beacons jammed (observed as Collision).
        p.feedback(1, true, Observation::State(ChannelState::Collision));
        assert!(p.is_leading(), "one miss is tolerated");
        p.feedback(5, true, Observation::State(ChannelState::Collision));
        assert!(!p.is_leading(), "miss_tolerance = 2 reached");
        assert_eq!(p.reelections(), 1);
        assert_eq!(p.log()[0].cause, LeaseLossCause::BeaconContention);
        assert_eq!(ledger.live_count(5), 0, "belief renounced");
        assert_eq!(ledger.reelections(), 1);
    }

    #[test]
    fn leader_abdicates_on_a_rival_beacon() {
        let ledger = LeaderLedger::new(16);
        let mut p = lease(0, 1.0, &ledger);
        p.feedback(0, true, single());
        assert!(p.is_leading());
        // A clean Single heard on a listen slot: someone else's beacon.
        p.feedback(2, false, single());
        assert!(!p.is_leading());
        assert_eq!(p.reelections(), 0, "abdication is not a re-election");
        assert_eq!(ledger.live_count(2), 0);
    }

    #[test]
    fn follower_watchdog_fires_and_backs_off() {
        let ledger = LeaderLedger::new(16);
        let mut p = lease(1, 0.0, &ledger);
        // Hear someone else win: Electing → Following.
        p.feedback(0, false, single());
        assert!(!p.is_leading());
        // 16 silent slots: the lease timeout fires.
        for slot in 1..=16 {
            p.feedback(slot, false, null());
        }
        assert_eq!(p.reelections(), 1);
        assert_eq!(p.log()[0].cause, LeaseLossCause::Silence);
        assert_eq!(p.follower_timeout, 32, "watchdog backed off");
        assert_eq!(ledger.reelections(), 1);
    }

    #[test]
    fn beacons_keep_the_follower_watchdog_quiet() {
        let ledger = LeaderLedger::new(16);
        let mut p = lease(1, 0.0, &ledger);
        p.feedback(0, false, single());
        // A beacon every 4th slot forever: never re-elects.
        for slot in 1..200u64 {
            let obs = if slot % 4 == 0 { single() } else { null() };
            p.feedback(slot, false, obs);
        }
        assert_eq!(p.reelections(), 0);
    }

    #[test]
    fn reelection_sink_sees_records() {
        use std::sync::Mutex;
        let ledger = LeaderLedger::new(16);
        let seen: Arc<Mutex<Vec<ReElectionRecord>>> = Arc::new(Mutex::new(Vec::new()));
        let sink: ReElectionSink = {
            let seen = Arc::clone(&seen);
            Arc::new(move |r| seen.lock().unwrap().push(*r))
        };
        let mut p = lease(5, 0.0, &ledger).with_reelection_sink(sink);
        p.feedback(0, false, single());
        for slot in 1..=16 {
            p.feedback(slot, false, null());
        }
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].station, 5);
        assert_eq!(seen[0].cause, LeaseLossCause::Silence);
    }

    #[test]
    fn two_leaders_on_different_phases_resolve_by_abdication() {
        // Split brain by hand: stations 0 and 1 both believe they lead,
        // with beacon phases 1 and 3. When 1 hears 0's clean beacon, it
        // abdicates; 0 never hears a rival and keeps the lease.
        let ledger = LeaderLedger::new(64);
        let mut a = lease(0, 1.0, &ledger);
        let mut b = lease(1, 1.0, &ledger);
        a.feedback(0, true, single()); // phase 1
        b.feedback(2, true, single()); // phase 3
        assert_eq!(ledger.live_count(2), 2, "split brain");
        // Slot 5: a's beacon (phase 1), clean. b listens and hears it.
        a.feedback(5, true, single());
        b.feedback(5, false, single());
        assert!(a.is_leading());
        assert!(!b.is_leading());
        assert_eq!(ledger.live_believers(5), vec![0], "resolved to one believer");
    }

    #[test]
    #[should_panic(expected = "beacon period must be positive")]
    fn rejects_zero_beacon_period() {
        let _ = LeaseConfig::new(0, 1, 1);
    }
}
