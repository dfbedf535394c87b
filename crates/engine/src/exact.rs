//! The exact per-station backend.
//!
//! Faithful to the model slot by slot: the adversary commits its jam
//! decision first (it never sees current-slot actions), every running
//! station then draws its action *in station-index order*, the ground
//! truth is resolved, and each station receives its CD-model-specific
//! observation. Cost is O(n) per slot — use [`crate::cohort`] for uniform
//! protocols at large `n`.
//!
//! The slot loop itself lives in [`crate::core::SimCore`];
//! [`ExactStations`] supplies the per-station action/feedback semantics
//! and [`run_exact`] is a thin shim.

use crate::config::SimConfig;
use crate::core::{SimCore, SlotActions, SlotFlags, StationSet};
use crate::observer::StateProbe;
use crate::protocol::{Action, Protocol, Status};
use crate::report::RunReport;
use jle_adversary::AdversarySpec;
use jle_radio::{cd, SlotTruth};
use rand::rngs::SmallRng;

/// The per-station [`StationSet`] backend: a vector of independent
/// [`Protocol`] state machines plus the word-packed per-slot
/// `transmitted`/`asleep` bookkeeping ([`SlotFlags`]) the feedback phase
/// needs.
pub struct ExactStations {
    stations: Vec<Box<dyn Protocol>>,
    flags: SlotFlags,
}

impl ExactStations {
    /// Build a fresh station set; `factory(i)` builds station `i`.
    pub fn new(config: &SimConfig, factory: impl FnMut(u64) -> Box<dyn Protocol>) -> Self {
        let stations: Vec<Box<dyn Protocol>> = (0..config.n).map(factory).collect();
        let n = stations.len();
        ExactStations { stations, flags: SlotFlags::new(n) }
    }

    /// The stations, for post-run inspection.
    pub fn stations(&self) -> &[Box<dyn Protocol>] {
        &self.stations
    }
}

impl std::fmt::Debug for ExactStations {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExactStations").field("n", &self.stations.len()).finish_non_exhaustive()
    }
}

impl StationSet for ExactStations {
    fn finished(&self) -> bool {
        // Guarded by `any`: protocols that never implement `finished()`
        // (the default) keep the historical behavior of running until a
        // stop rule or the cap. When some station *does* finish (an
        // `Estimation`-style protocol returning its answer), the run ends
        // once every station has either terminated or finished — the
        // cohort engine's semantics, now honored per-station.
        self.stations.iter().any(|s| s.finished())
            && self.stations.iter().all(|s| s.status().terminal() || s.finished())
    }

    fn all_terminated(&self) -> bool {
        self.stations.iter().all(|s| s.status().terminal())
    }

    fn act(&mut self, slot: u64, _config: &SimConfig, rng: &mut SmallRng) -> SlotActions {
        let mut actions = SlotActions::default();
        self.flags.begin_slot(); // one memset instead of 2n bool stores
        for (i, st) in self.stations.iter_mut().enumerate() {
            if st.status().terminal() {
                self.flags.set_asleep(i); // terminated stations observe nothing
                continue;
            }
            match st.act(slot, rng) {
                Action::Transmit => {
                    self.flags.set_transmitted(i);
                    actions.record_transmitter(i as u64);
                }
                Action::Listen => actions.listeners += 1,
                Action::Sleep => self.flags.set_asleep(i),
            }
        }
        actions
    }

    fn pick_winner(
        &mut self,
        actions: &SlotActions,
        _config: &SimConfig,
        _rng: &mut SmallRng,
    ) -> Option<u64> {
        // The exact engine knows the identity: no randomness drawn.
        actions.lone_transmitter
    }

    fn feedback(&mut self, slot: u64, truth: &SlotTruth, config: &SimConfig) {
        // Sleeping and terminated stations observe nothing.
        for (i, st) in self.stations.iter_mut().enumerate() {
            let transmitted = self.flags.transmitted(i);
            if self.flags.asleep(i) && !transmitted {
                continue;
            }
            let obs = cd::observe(config.cd, transmitted, truth);
            st.feedback(slot, transmitted, obs);
        }
    }

    fn estimate(&self) -> Option<f64> {
        self.stations.iter().find(|s| !s.status().terminal()).and_then(|s| s.estimate())
    }

    fn collect_probes(&self, out: &mut Vec<StateProbe>) {
        for (i, st) in self.stations.iter().enumerate() {
            if let Some((state, value)) = st.state_probe() {
                out.push(StateProbe { station: i as u64, state, value });
            }
        }
    }

    fn finalize(&mut self, _config: &SimConfig, report: &mut RunReport) {
        report.leaders = self
            .stations
            .iter()
            .enumerate()
            .filter(|(_, s)| s.status() == Status::Leader)
            .map(|(i, _)| i as u64)
            .collect();
    }
}

/// Run one simulation with a fresh station set from `factory`.
///
/// `factory(i)` builds the protocol instance of station `i`; protocols
/// needing distinct roles can inspect `i`, while symmetric protocols
/// ignore it.
pub fn run_exact(
    config: &SimConfig,
    adversary: &AdversarySpec,
    factory: impl FnMut(u64) -> Box<dyn Protocol>,
) -> RunReport {
    let mut stations = ExactStations::new(config, factory);
    SimCore::new(config, adversary).run(&mut stations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StopRule;
    use crate::protocol::{PerStation, UniformProtocol};
    use jle_adversary::{JamStrategyKind, Rate};
    use jle_radio::{CdModel, ChannelState};

    /// Uniform protocol transmitting with fixed probability forever.
    #[derive(Debug, Clone)]
    struct Fixed(f64);
    impl UniformProtocol for Fixed {
        fn tx_prob(&mut self, _: u64) -> f64 {
            self.0
        }
        fn on_state(&mut self, _: u64, _: ChannelState) {}
    }

    fn passive() -> AdversarySpec {
        AdversarySpec::passive()
    }

    #[test]
    fn single_station_wins_immediately_strong_cd() {
        let config = SimConfig::new(1, CdModel::Strong).with_seed(3).with_max_slots(10);
        let report = run_exact(&config, &passive(), |_| Box::new(PerStation::new(Fixed(1.0))));
        assert_eq!(report.resolved_at, Some(0));
        assert_eq!(report.winner, Some(0));
        assert_eq!(report.leaders, vec![0]);
        assert!(report.leader_elected());
        assert!(!report.timed_out);
    }

    #[test]
    fn two_always_transmitters_never_resolve() {
        let config = SimConfig::new(2, CdModel::Strong).with_seed(3).with_max_slots(50);
        let report = run_exact(&config, &passive(), |_| Box::new(PerStation::new(Fixed(1.0))));
        assert!(report.timed_out);
        assert_eq!(report.resolved_at, None);
        assert_eq!(report.counts.collisions, 50);
        assert_eq!(report.energy.transmissions, 100);
    }

    #[test]
    fn coin_flip_eventually_resolves() {
        let config = SimConfig::new(2, CdModel::Strong).with_seed(5).with_max_slots(10_000);
        let report = run_exact(&config, &passive(), |_| Box::new(PerStation::new(Fixed(0.5))));
        assert!(report.leader_elected());
        let w = report.winner.unwrap();
        assert_eq!(report.leaders, vec![w]);
    }

    #[test]
    fn weak_cd_winner_does_not_learn() {
        // Under weak-CD the winner keeps Running: no station ends Leader.
        let config = SimConfig::new(2, CdModel::Weak).with_seed(5).with_max_slots(10_000);
        let report = run_exact(&config, &passive(), |_| Box::new(PerStation::new(Fixed(0.5))));
        assert!(report.resolved_at.is_some());
        assert!(report.leaders.is_empty());
        // Selection still counts as "elected" under FirstCleanSingle: the
        // clean Single happened.
        assert!(report.leader_elected());
    }

    #[test]
    fn deterministic_given_seed() {
        let config = SimConfig::new(8, CdModel::Strong).with_seed(11).with_max_slots(100_000);
        let a = run_exact(&config, &passive(), |_| Box::new(PerStation::new(Fixed(0.25))));
        let b = run_exact(&config, &passive(), |_| Box::new(PerStation::new(Fixed(0.25))));
        assert_eq!(a.resolved_at, b.resolved_at);
        assert_eq!(a.winner, b.winner);
        assert_eq!(a.counts, b.counts);
    }

    #[test]
    fn jamming_suppresses_singles() {
        // eps=1/2, T=2: adversary can jam every other slot. A lone
        // always-transmitter resolves only in an unjammed slot.
        let spec = AdversarySpec::new(Rate::from_f64(0.5), 2, JamStrategyKind::Saturating);
        let config = SimConfig::new(1, CdModel::Strong).with_seed(1).with_max_slots(10);
        let report = run_exact(&config, &spec, |_| Box::new(PerStation::new(Fixed(1.0))));
        // Slot 0 is jammed (budget allows one of the first two), slot 1
        // cannot be, so resolution happens at slot 1.
        assert_eq!(report.resolved_at, Some(1));
        assert_eq!(report.counts.jammed, 1);
    }

    #[test]
    fn trace_recording_includes_estimates() {
        #[derive(Debug, Clone)]
        struct WithEstimate(f64);
        impl UniformProtocol for WithEstimate {
            fn tx_prob(&mut self, _: u64) -> f64 {
                0.0
            }
            fn on_state(&mut self, _: u64, _: ChannelState) {
                self.0 += 1.0;
            }
            fn estimate(&self) -> Option<f64> {
                Some(self.0)
            }
        }
        let config =
            SimConfig::new(3, CdModel::Strong).with_seed(1).with_max_slots(5).with_trace(true);
        let report =
            run_exact(&config, &passive(), |_| Box::new(PerStation::new(WithEstimate(0.0))));
        let trace = report.trace.expect("trace requested");
        assert_eq!(trace.len(), 5);
        assert_eq!(trace.estimates.len(), 5);
        assert_eq!(trace.estimates, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn all_terminated_stop_rule_reports_leaders() {
        let config = SimConfig::new(1, CdModel::Strong)
            .with_seed(3)
            .with_max_slots(10)
            .with_stop(StopRule::AllTerminated);
        let report = run_exact(&config, &passive(), |_| Box::new(PerStation::new(Fixed(1.0))));
        assert!(report.all_terminated);
        assert!(!report.timed_out);
        assert_eq!(report.leaders, vec![0]);
    }
}
