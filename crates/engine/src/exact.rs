//! Unit tests of the single-hop shared-stream law — the `exact` arm the
//! lens still replays: every station is polled every slot and drawn from
//! the engine's one sequential stream in index order. That law runs as the
//! multi-hop backend's [`RngDiscipline::Shared`] mode on
//! [`Topology::Complete`], which the `exact_*` golden fixtures pin byte
//! for byte; these tests pin its single-hop semantics directly.

#[cfg(test)]
mod tests {
    use crate::config::{SimConfig, StopRule};
    use crate::multihop::{run_multihop_std, RngDiscipline};
    use crate::protocol::{PerStation, Protocol, UniformProtocol};
    use crate::report::RunReport;
    use jle_adversary::{AdversarySpec, JamStrategyKind, Rate};
    use jle_radio::{CdModel, ChannelState, Topology};

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

    /// One single-hop run on the shared stream.
    fn run_shared(
        config: &SimConfig,
        adversary: &AdversarySpec,
        factory: impl FnMut(u64) -> Box<dyn Protocol>,
    ) -> RunReport {
        run_multihop_std(config, adversary, &Topology::Complete, RngDiscipline::Shared, factory)
    }

    #[test]
    fn single_station_wins_immediately_strong_cd() {
        let config = SimConfig::new(1, CdModel::Strong).with_seed(3).with_max_slots(10);
        let report = run_shared(&config, &passive(), |_| Box::new(PerStation::new(Fixed(1.0))));
        assert_eq!(report.resolved_at, Some(0));
        assert_eq!(report.winner, Some(0));
        assert_eq!(report.leaders, vec![0]);
        assert!(report.leader_elected());
        assert!(!report.timed_out);
    }

    #[test]
    fn two_always_transmitters_never_resolve() {
        let config = SimConfig::new(2, CdModel::Strong).with_seed(3).with_max_slots(50);
        let report = run_shared(&config, &passive(), |_| Box::new(PerStation::new(Fixed(1.0))));
        assert!(report.timed_out);
        assert_eq!(report.resolved_at, None);
        assert_eq!(report.counts.collisions, 50);
        assert_eq!(report.energy.transmissions, 100);
    }

    #[test]
    fn coin_flip_eventually_resolves() {
        let config = SimConfig::new(2, CdModel::Strong).with_seed(5).with_max_slots(10_000);
        let report = run_shared(&config, &passive(), |_| Box::new(PerStation::new(Fixed(0.5))));
        assert!(report.leader_elected());
        let w = report.winner.unwrap();
        assert_eq!(report.leaders, vec![w]);
    }

    #[test]
    fn weak_cd_winner_does_not_learn() {
        // Under weak-CD the winner keeps Running: no station ends Leader.
        let config = SimConfig::new(2, CdModel::Weak).with_seed(5).with_max_slots(10_000);
        let report = run_shared(&config, &passive(), |_| Box::new(PerStation::new(Fixed(0.5))));
        assert!(report.resolved_at.is_some());
        assert!(report.leaders.is_empty());
        // Selection still counts as "elected" under FirstCleanSingle: the
        // clean Single happened.
        assert!(report.leader_elected());
    }

    #[test]
    fn deterministic_given_seed() {
        let config = SimConfig::new(8, CdModel::Strong).with_seed(11).with_max_slots(100_000);
        let a = run_shared(&config, &passive(), |_| Box::new(PerStation::new(Fixed(0.25))));
        let b = run_shared(&config, &passive(), |_| Box::new(PerStation::new(Fixed(0.25))));
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
        let report = run_shared(&config, &spec, |_| Box::new(PerStation::new(Fixed(1.0))));
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
            run_shared(&config, &passive(), |_| Box::new(PerStation::new(WithEstimate(0.0))));
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
        let report = run_shared(&config, &passive(), |_| Box::new(PerStation::new(Fixed(1.0))));
        assert!(report.all_terminated);
        assert!(!report.timed_out);
        assert_eq!(report.leaders, vec![0]);
    }
}
