//! Restart-with-backoff supervision: graceful degradation for elections
//! whose stations live beyond the paper's perfect-station model.
//!
//! The paper's protocols assume every station runs flawlessly forever.
//! [`Supervisor`] wraps any per-station [`Protocol`] with a *silence
//! watchdog*: if no unjammed `Single` has been observed for a whole
//! watchdog window, the inner election is presumed wedged (crashed
//! peers, missed wakeups, corrupted estimates — see
//! `jle_engine::faults`) and is restarted from fresh state, with the
//! window doubling each restart (exponential backoff, so a merely *slow*
//! election is eventually left alone).
//!
//! Two properties matter and are tested:
//!
//! * **Transparency** — until the first watchdog expiry the wrapper
//!   delegates `act` verbatim (same RNG draws, same actions), so a
//!   supervised run is slot-for-slot identical to a bare run that
//!   resolves within the first window. Supervision is free insurance for
//!   healthy elections.
//! * **Safety** — the supervisor never fabricates an observation and
//!   never restarts a terminated station: a heard `Single` still
//!   terminates the inner protocol, so validity is untouched and the
//!   adversary's budget accounting is unaffected.

use crate::lesk::LeskProtocol;
use jle_engine::{PerStation, Protocol, Status};
use jle_radio::cd::Observation;
use jle_telemetry::{Counter, MetricRegistry};
use rand::RngCore;
use std::sync::Arc;

/// Factory building a fresh inner election instance on each (re)start.
pub type RestartFactory = Box<dyn FnMut() -> Box<dyn Protocol> + Send>;

/// Shared sink receiving every [`RestartRecord`] as it happens — wire one
/// across all stations of a trial to attribute restarts in a run log or
/// flight recorder.
pub type RestartSink = Arc<dyn Fn(&RestartRecord) + Send + Sync>;

/// Doublings after which further backoff is classified as
/// [`RestartCause::Cap`]: the watchdog has grown `2^10` times past its
/// initial window, so restarting is no longer plausibly productive and
/// the run is presumed headed for the slot cap. Classification only —
/// the supervisor still restarts (behaviour is unchanged).
pub const BACKOFF_CAP_DOUBLINGS: u32 = 10;

/// Why a [`Supervisor`] watchdog fired, classified from what the station
/// itself observed during the silent window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartCause {
    /// The silent window saw channel activity (collisions, jammed slots,
    /// or this station's own transmissions): the election is live but
    /// not resolving — wedged by contention or jamming.
    Wedged,
    /// The silent window was entirely `Null` and this station never
    /// transmitted: the network went dark mid-election, consistent with
    /// crashed or asleep peers (including a crashed would-be leader).
    Crashed,
    /// The watchdog had already backed off [`BACKOFF_CAP_DOUBLINGS`]
    /// times: restarts stopped being productive and the run is presumed
    /// headed for the slot cap.
    Cap,
}

/// One watchdog firing, as a restart sink receives it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartRecord {
    /// Slot whose feedback fired the watchdog.
    pub slot: u64,
    /// Classified cause (see [`RestartCause`]).
    pub cause: RestartCause,
    /// The window that expired (pre-backoff).
    pub window: u64,
    /// Consecutive silent slots when the watchdog fired (== `window`).
    pub silence: u64,
    /// Zero-based index of this restart on this station.
    pub restart_index: u32,
}

/// The supervisor's `jle-metrics-v1` counter family: restarts by
/// classified cause, so experiment runs can attribute restarts straight
/// from a metrics snapshot instead of parsing flight-recorder artifacts.
///
/// Wire it with [`SupervisorMetrics::restart_sink`]:
///
/// ```
/// use jle_protocols::extensions::{Supervisor, SupervisorMetrics};
/// use jle_telemetry::MetricRegistry;
///
/// let registry = MetricRegistry::new();
/// let metrics = SupervisorMetrics::register(&registry);
/// let sup = Supervisor::over_lesk(0.5, 1024).with_restart_sink(metrics.restart_sink());
/// # let _ = sup;
/// ```
#[derive(Debug, Clone)]
pub struct SupervisorMetrics {
    /// `jle_supervisor_restarts_wedged_total` — [`RestartCause::Wedged`].
    pub wedged_total: Counter,
    /// `jle_supervisor_restarts_crashed_total` — [`RestartCause::Crashed`].
    pub crashed_total: Counter,
    /// `jle_supervisor_restarts_cap_total` — [`RestartCause::Cap`].
    pub cap_total: Counter,
}

impl SupervisorMetrics {
    /// Register (or fetch) the family on `registry`.
    pub fn register(registry: &MetricRegistry) -> Self {
        SupervisorMetrics {
            wedged_total: registry.counter(
                "jle_supervisor_restarts_wedged_total",
                "supervisor restarts classified as wedged (busy channel, no resolution)",
            ),
            crashed_total: registry.counter(
                "jle_supervisor_restarts_crashed_total",
                "supervisor restarts classified as crashed (dark network)",
            ),
            cap_total: registry.counter(
                "jle_supervisor_restarts_cap_total",
                "supervisor restarts past the backoff cap",
            ),
        }
    }

    /// Bump the counter for one classified restart.
    pub fn count(&self, cause: RestartCause) {
        match cause {
            RestartCause::Wedged => self.wedged_total.inc(),
            RestartCause::Crashed => self.crashed_total.inc(),
            RestartCause::Cap => self.cap_total.inc(),
        }
    }

    /// Restarts counted so far, across all causes.
    pub fn total(&self) -> u64 {
        self.wedged_total.get() + self.crashed_total.get() + self.cap_total.get()
    }

    /// A [`RestartSink`] that feeds these counters; composable with any
    /// additional sink the caller keeps.
    pub fn restart_sink(&self) -> RestartSink {
        let metrics = self.clone();
        Arc::new(move |r| metrics.count(r.cause))
    }
}

/// A per-station restart supervisor (see module docs).
pub struct Supervisor {
    factory: RestartFactory,
    inner: Box<dyn Protocol>,
    initial_window: u64,
    window: u64,
    silence: u64,
    restarts: u32,
    /// Whether the current silent window saw any channel activity.
    busy_in_window: bool,
    restart_log: Vec<RestartRecord>,
    sink: Option<RestartSink>,
}

impl Supervisor {
    /// Supervise the election built by `factory`, restarting it whenever
    /// `watchdog_window` consecutive observed slots pass without an
    /// unjammed `Single`; the window doubles after each restart.
    ///
    /// # Panics
    /// Panics if `watchdog_window` is zero.
    pub fn new(watchdog_window: u64, mut factory: RestartFactory) -> Self {
        assert!(watchdog_window > 0, "watchdog window must be positive");
        let inner = factory();
        Supervisor {
            factory,
            inner,
            initial_window: watchdog_window,
            window: watchdog_window,
            silence: 0,
            restarts: 0,
            busy_in_window: false,
            restart_log: Vec::new(),
            sink: None,
        }
    }

    /// Builder: forward every [`RestartRecord`] to `sink` as it happens
    /// (in addition to keeping it in [`Supervisor::restart_log`]). The
    /// sink is shared (`Arc`), so one sink can aggregate restarts across
    /// all stations of a trial.
    pub fn with_restart_sink(mut self, sink: RestartSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Convenience: a supervised strong-CD LESK station.
    pub fn over_lesk(eps: f64, watchdog_window: u64) -> Self {
        Supervisor::new(
            watchdog_window,
            Box::new(move || Box::new(PerStation::new(LeskProtocol::new(eps)))),
        )
    }

    /// Number of restarts performed so far.
    pub fn restarts(&self) -> u32 {
        self.restarts
    }

    /// The current (possibly backed-off) watchdog window.
    pub fn current_window(&self) -> u64 {
        self.window
    }

    /// The window the supervisor was created with.
    pub fn initial_window(&self) -> u64 {
        self.initial_window
    }

    /// Consecutive observed slots without an unjammed `Single`.
    pub fn silence(&self) -> u64 {
        self.silence
    }

    /// Every watchdog firing so far, in order, with its classified cause.
    pub fn restart_log(&self) -> &[RestartRecord] {
        &self.restart_log
    }

    fn classify(&self) -> RestartCause {
        if self.restarts >= BACKOFF_CAP_DOUBLINGS {
            RestartCause::Cap
        } else if self.busy_in_window {
            RestartCause::Wedged
        } else {
            RestartCause::Crashed
        }
    }
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
            .field("window", &self.window)
            .field("silence", &self.silence)
            .field("restarts", &self.restarts)
            .finish_non_exhaustive()
    }
}

impl Protocol for Supervisor {
    fn act(&mut self, slot: u64, rng: &mut dyn RngCore) -> jle_engine::Action {
        self.inner.act(slot, rng)
    }

    fn feedback(&mut self, slot: u64, transmitted: bool, obs: Observation) {
        let heard = obs.heard_single();
        let busy = transmitted || !matches!(obs.effective_state(), jle_radio::ChannelState::Null);
        self.inner.feedback(slot, transmitted, obs);
        if heard {
            self.silence = 0;
            self.busy_in_window = false;
            return;
        }
        self.silence += 1;
        self.busy_in_window |= busy;
        // A finished station (an Estimation-style probe that has its
        // answer) is quiet by design, not wedged — never restart it.
        if self.silence >= self.window && !self.inner.status().terminal() && !self.inner.finished()
        {
            // Presumed wedged: re-run the election from fresh state and
            // back the watchdog off so a slow-but-live election is not
            // restarted forever.
            let record = RestartRecord {
                slot,
                cause: self.classify(),
                window: self.window,
                silence: self.silence,
                restart_index: self.restarts,
            };
            if let Some(sink) = &self.sink {
                sink(&record);
            }
            self.restart_log.push(record);
            self.inner = (self.factory)();
            self.silence = 0;
            self.busy_in_window = false;
            self.window = self.window.saturating_mul(2);
            self.restarts += 1;
        }
    }

    fn status(&self) -> Status {
        self.inner.status()
    }

    fn finished(&self) -> bool {
        self.inner.finished()
    }

    fn estimate(&self) -> Option<f64> {
        self.inner.estimate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jle_adversary::AdversarySpec;
    use jle_engine::{run_fast_exact, SimConfig, UniformProtocol};
    use jle_radio::{CdModel, ChannelState};

    #[derive(Debug, Clone)]
    struct Fixed(f64);
    impl UniformProtocol for Fixed {
        fn tx_prob(&mut self, _: u64) -> f64 {
            self.0
        }
        fn on_state(&mut self, _: u64, _: ChannelState) {}
    }

    fn null_obs() -> Observation {
        Observation::State(ChannelState::Null)
    }

    #[test]
    fn watchdog_restarts_after_silence_and_backs_off() {
        let mut sup = Supervisor::new(4, Box::new(|| Box::new(PerStation::new(Fixed(0.0)))));
        for slot in 0..3 {
            sup.feedback(slot, false, null_obs());
        }
        assert_eq!(sup.restarts(), 0);
        sup.feedback(3, false, null_obs());
        assert_eq!(sup.restarts(), 1, "4 silent slots fire the watchdog");
        assert_eq!(sup.current_window(), 8, "window doubles");
        assert_eq!(sup.silence(), 0);
        for slot in 4..12 {
            sup.feedback(slot, false, null_obs());
        }
        assert_eq!(sup.restarts(), 2);
        assert_eq!(sup.current_window(), 16);
    }

    #[test]
    fn heard_single_resets_the_watchdog() {
        let mut sup = Supervisor::new(4, Box::new(|| Box::new(PerStation::new(Fixed(0.0)))));
        sup.feedback(0, false, null_obs());
        sup.feedback(1, false, null_obs());
        sup.feedback(2, false, Observation::State(ChannelState::Single));
        // The Single terminated the inner station (NonLeader) and reset
        // the silence counter; no restart can follow.
        assert_eq!(sup.silence(), 0);
        assert_eq!(sup.status(), Status::NonLeader);
        for slot in 3..100 {
            sup.feedback(slot, false, null_obs());
        }
        assert_eq!(sup.restarts(), 0, "terminated stations are never restarted");
    }

    #[test]
    fn restart_resets_inner_state() {
        // Inner LESK: drive u up with collisions, fire the watchdog, and
        // check the estimate came back to 0 (fresh instance).
        let mut sup = Supervisor::over_lesk(0.5, 8);
        for slot in 0..7 {
            sup.feedback(slot, false, Observation::State(ChannelState::Collision));
        }
        assert!(sup.estimate().unwrap() > 0.0);
        sup.feedback(7, false, Observation::State(ChannelState::Collision));
        assert_eq!(sup.restarts(), 1);
        assert_eq!(sup.estimate(), Some(0.0), "restart loses the estimate");
    }

    #[test]
    fn transparent_until_first_expiry() {
        // A supervised election that resolves within the first watchdog
        // window is slot-for-slot identical to the bare run.
        let config = SimConfig::new(8, CdModel::Strong).with_seed(21).with_max_slots(50_000);
        let adv = AdversarySpec::passive();
        let bare =
            run_fast_exact(&config, &adv, |_| Box::new(PerStation::new(LeskProtocol::new(0.5))));
        let supervised =
            run_fast_exact(&config, &adv, |_| Box::new(Supervisor::over_lesk(0.5, 1 << 20)));
        assert_eq!(bare.resolved_at, supervised.resolved_at);
        assert_eq!(bare.winner, supervised.winner);
        assert_eq!(bare.counts, supervised.counts);
        assert_eq!(bare.energy, supervised.energy);
    }

    #[test]
    #[should_panic(expected = "watchdog window must be positive")]
    fn rejects_zero_window() {
        let _ = Supervisor::new(0, Box::new(|| Box::new(PerStation::new(Fixed(0.0)))));
    }

    #[test]
    fn restart_causes_are_classified_and_logged() {
        let mut sup = Supervisor::new(4, Box::new(|| Box::new(PerStation::new(Fixed(0.0)))));
        // First window: all-Null silence, station never transmitted.
        for slot in 0..4 {
            sup.feedback(slot, false, null_obs());
        }
        // Second window (now 8 slots): collisions — a live but blocked
        // election.
        for slot in 4..12 {
            sup.feedback(slot, false, Observation::State(ChannelState::Collision));
        }
        let log = sup.restart_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].cause, RestartCause::Crashed, "dark network reads as crashed peers");
        assert_eq!((log[0].slot, log[0].window, log[0].restart_index), (3, 4, 0));
        assert_eq!(log[1].cause, RestartCause::Wedged, "busy channel reads as wedged");
        assert_eq!((log[1].slot, log[1].window, log[1].restart_index), (11, 8, 1));
    }

    #[test]
    fn own_transmission_marks_the_window_busy() {
        let mut sup = Supervisor::new(4, Box::new(|| Box::new(PerStation::new(Fixed(0.0)))));
        sup.feedback(0, true, null_obs());
        for slot in 1..4 {
            sup.feedback(slot, false, null_obs());
        }
        assert_eq!(sup.restart_log()[0].cause, RestartCause::Wedged);
    }

    #[test]
    fn deep_backoff_is_classified_as_cap() {
        let mut sup = Supervisor::new(1, Box::new(|| Box::new(PerStation::new(Fixed(0.0)))));
        let mut slot = 0u64;
        while sup.restarts() <= BACKOFF_CAP_DOUBLINGS {
            sup.feedback(slot, false, null_obs());
            slot += 1;
        }
        let log = sup.restart_log();
        let last = log.last().unwrap();
        assert_eq!(last.restart_index, BACKOFF_CAP_DOUBLINGS);
        assert_eq!(last.cause, RestartCause::Cap, "past the backoff cap");
        assert_eq!(log[log.len() - 2].cause, RestartCause::Crashed, "one earlier is still normal");
    }

    #[test]
    fn metrics_sink_attributes_restarts_by_cause() {
        let registry = MetricRegistry::new();
        let metrics = SupervisorMetrics::register(&registry);
        let mut sup = Supervisor::new(4, Box::new(|| Box::new(PerStation::new(Fixed(0.0)))))
            .with_restart_sink(metrics.restart_sink());
        // Window 1 (4 slots): dark network → crashed.
        for slot in 0..4 {
            sup.feedback(slot, false, null_obs());
        }
        // Window 2 (8 slots): collisions → wedged.
        for slot in 4..12 {
            sup.feedback(slot, false, Observation::State(ChannelState::Collision));
        }
        assert_eq!(metrics.crashed_total.get(), 1);
        assert_eq!(metrics.wedged_total.get(), 1);
        assert_eq!(metrics.cap_total.get(), 0);
        assert_eq!(metrics.total(), 2);
    }

    #[test]
    fn restart_sink_sees_records_across_stations() {
        use std::sync::Mutex;
        let seen: Arc<Mutex<Vec<RestartRecord>>> = Arc::new(Mutex::new(Vec::new()));
        let sink: RestartSink = {
            let seen = Arc::clone(&seen);
            Arc::new(move |r| seen.lock().unwrap().push(*r))
        };
        let mut a = Supervisor::new(2, Box::new(|| Box::new(PerStation::new(Fixed(0.0)))))
            .with_restart_sink(Arc::clone(&sink));
        let mut b = Supervisor::new(2, Box::new(|| Box::new(PerStation::new(Fixed(0.0)))))
            .with_restart_sink(sink);
        for slot in 0..2 {
            a.feedback(slot, false, null_obs());
            b.feedback(slot, false, null_obs());
        }
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 2, "one restart per station reached the shared sink");
        assert!(seen.iter().all(|r| r.cause == RestartCause::Crashed));
    }
}
