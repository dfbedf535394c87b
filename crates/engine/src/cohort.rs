//! The cohort backend: O(1) work per slot for uniform protocols.
//!
//! The paper's protocols are *uniform* (Section 1.1): every station
//! transmits with the same, history-determined probability. All stations
//! therefore share one state, and the number of transmitters in a slot is
//! `Binomial(n, p)` — the backend tracks a single protocol copy and
//! samples the transmitter count directly, making per-slot cost
//! independent of `n`. This is what lets experiments sweep to `n = 2^20`
//! and beyond.
//!
//! **Lockstep invariant.** Under weak-CD a transmitter's feedback is an
//! assumed `Collision` while listeners see the true state; the two
//! disagree only in an *unjammed Single* slot — which ends the run — so
//! the single shared state remains exact for every continuing slot (see
//! `DESIGN.md` §4). Under strong-CD everyone sees the truth. Under no-CD
//! the engine collapses `Null` to `Collision` (listeners cannot tell) and
//! the same argument applies.
//!
//! The slot loop lives in [`crate::core::SimCore`]; [`CohortStations`]
//! supplies the binomial sampling and shared-state feedback, and the
//! `run_cohort*` functions are thin shims. The oracle negative control is
//! the same backend driven by [`SimCore::oracle`]'s action-observing
//! jammer.

use crate::config::{SimConfig, StopRule};
use crate::core::{SimCore, SlotActions, StationSet};
use crate::protocol::UniformProtocol;
use crate::report::RunReport;
use jle_adversary::AdversarySpec;
use jle_radio::{CdModel, ChannelState, SlotTruth};
use rand::{rngs::SmallRng, Rng};
use rand_distr::{Binomial, Distribution};

/// Sample the number of transmitters among `n` stations each transmitting
/// independently with probability `p`.
///
/// Out-of-range `p` is clamped to `[0, 1]` (protocols may feed `1 + δ`
/// from float error), but NaN is rejected loudly: it survives `clamp`
/// (which propagates NaN) and would otherwise surface as an opaque
/// `Binomial` construction panic deep in a sweep.
///
/// # Panics
/// Panics if `p` is NaN.
#[inline]
pub fn sample_transmitters(n: u64, p: f64, rng: &mut SmallRng) -> u64 {
    assert!(!p.is_nan(), "transmission probability must not be NaN");
    let p = p.clamp(0.0, 1.0);
    if p == 0.0 || n == 0 {
        return 0;
    }
    if p == 1.0 {
        return n;
    }
    // rand_distr's Binomial (inversion / BTPE) is exact for all regimes.
    Binomial::new(n, p).expect("p validated").sample(rng)
}

/// The uniform-protocol [`StationSet`] backend: one shared protocol state,
/// binomial transmitter counts, and a uniformly drawn winner on the
/// resolving `Single` (the stations are symmetric, so the lone transmitter
/// is uniform among them).
#[derive(Debug)]
pub struct CohortStations<U> {
    proto: U,
    claim_leader: bool,
}

impl<U: UniformProtocol> CohortStations<U> {
    /// Wrap a uniform protocol state.
    pub fn new(proto: U) -> Self {
        CohortStations { proto, claim_leader: true }
    }

    /// Like [`CohortStations::new`], but the resolving transmitter never
    /// claims leadership in the report — used for the oracle negative
    /// control, which measures suppression, not elections.
    pub fn without_leader_claim(proto: U) -> Self {
        CohortStations { proto, claim_leader: false }
    }

    /// Recover the wrapped protocol state after the run.
    pub fn into_inner(self) -> U {
        self.proto
    }
}

impl<U: UniformProtocol> StationSet for CohortStations<U> {
    fn finished(&self) -> bool {
        self.proto.finished()
    }

    /// The shared state tracks no termination, so under
    /// [`StopRule::AllTerminated`] a cohort run plays to the cap (the
    /// lens refuses that pairing).
    fn all_terminated(&self) -> bool {
        false
    }

    fn act(&mut self, slot: u64, config: &SimConfig, rng: &mut SmallRng) -> SlotActions {
        let p = self.proto.tx_prob(slot);
        let k = sample_transmitters(config.n, p, rng);
        SlotActions { transmitters: k, listeners: config.n - k, lone_transmitter: None }
    }

    fn pick_winner(
        &mut self,
        _actions: &SlotActions,
        config: &SimConfig,
        rng: &mut SmallRng,
    ) -> Option<u64> {
        // The winner is uniform among the n symmetric stations.
        Some(rng.gen_range(0..config.n))
    }

    fn feedback(&mut self, slot: u64, truth: &SlotTruth, config: &SimConfig) {
        let ends_run = config.stop == StopRule::FirstCleanSingle;
        if truth.is_clean_single() && ends_run {
            // The run ends on this slot; the shared state never hears it.
            return;
        }
        let state = match (config.cd, truth.observed()) {
            (CdModel::NoCd, ChannelState::Null) => ChannelState::Collision,
            (_, s) => s,
        };
        debug_assert!(state != ChannelState::Single || !ends_run, "clean Single already handled");
        self.proto.on_state(slot, state);
    }

    fn estimate(&self) -> Option<f64> {
        self.proto.estimate()
    }

    fn finalize(&mut self, config: &SimConfig, report: &mut RunReport) {
        if let Some(w) = report.winner {
            if self.claim_leader && config.cd == CdModel::Strong {
                // Strong-CD: the resolving transmitter saw its own Single.
                report.leaders = vec![w];
                report.all_terminated = true;
            }
        }
        // The cohort verdict under every stop rule: timed out only when
        // the run hit the cap with neither a resolution nor a finished
        // protocol (a `Horizon` run past its first `Single` included).
        report.timed_out = report.resolved_at.is_none()
            && !self.proto.finished()
            && report.slots == config.max_slots;
        report.cap_hit = report.timed_out;
    }
}

/// Run a uniform protocol on the cohort engine.
///
/// Measures selection resolution: the run ends at the first unjammed
/// `Single` (or when the protocol [`UniformProtocol::finished`]s, or at
/// `max_slots`). Under strong-CD the resolving transmitter knows it won,
/// so the report also carries a leader; under weak-CD leader *knowledge*
/// requires the `Notification` wrapper, which runs on the exact engine.
pub fn run_cohort<U: UniformProtocol>(
    config: &SimConfig,
    adversary: &AdversarySpec,
    factory: impl FnOnce() -> U,
) -> RunReport {
    run_cohort_with(config, adversary, factory).0
}

/// Like [`run_cohort`], but also hands back the final protocol state —
/// needed to read out protocol-internal results such as `Estimation`'s
/// returned round.
pub fn run_cohort_with<U: UniformProtocol>(
    config: &SimConfig,
    adversary: &AdversarySpec,
    factory: impl FnOnce() -> U,
) -> (RunReport, U) {
    let mut stations = CohortStations::new(factory());
    let report = SimCore::new(config, adversary).run(&mut stations);
    (report, stations.into_inner())
}

/// **Negative control — deliberately violates the model.** Run a uniform
/// protocol against an *oracle* jammer that decides **after** seeing the
/// current slot's transmitter count, jamming exactly the would-be
/// `Single`s (budget permitting).
///
/// The paper's adversary must commit "before it knows the actions of the
/// nodes in the current slot" (Section 1.1). This function shows why that
/// clause is load-bearing: an action-observing jammer with any
/// non-trivial budget suppresses every `Single` it can afford, and since
/// `Single`s are rare (≤ one expected per `e` slots at the optimum), a
/// `(T, 1−ε)` budget with `⌊(1−ε)T⌋ ≥ 1` suffices to block elections
/// essentially forever. Experiment E18 quantifies this.
pub fn run_cohort_against_oracle<U: UniformProtocol>(
    config: &SimConfig,
    eps: jle_adversary::Rate,
    t_window: u64,
    factory: impl FnOnce() -> U,
) -> RunReport {
    let mut stations = CohortStations::without_leader_claim(factory());
    SimCore::oracle(config, eps, t_window).run(&mut stations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jle_adversary::{JamStrategyKind, Rate};

    #[derive(Debug, Clone)]
    struct Fixed(f64);
    impl UniformProtocol for Fixed {
        fn tx_prob(&mut self, _: u64) -> f64 {
            self.0
        }
        fn on_state(&mut self, _: u64, _: ChannelState) {}
    }

    #[test]
    fn oracle_jammer_blocks_elections() {
        // The negative control: with the commit-first rule removed, a
        // (T=16, 1-eps=0.95) oracle suppresses essentially every Single —
        // a Single leaks only when 16 consecutive slots all carry one
        // (prob ≈ 0.38^16 ≈ 2e-7 per window). The same budget under the
        // fair commit-first rule cannot stop the election at all.
        let eps = Rate::from_f64(0.05);
        let config = SimConfig::new(16, CdModel::Strong).with_seed(4).with_max_slots(20_000);
        let report = run_cohort_against_oracle(&config, eps, 16, || Fixed(1.0 / 16.0));
        assert!(report.timed_out, "oracle must block the election");
        assert_eq!(report.counts.singles, 0);
        // Sanity: the same protocol under the *fair* saturating adversary
        // with the same budget elects easily.
        let spec = AdversarySpec::new(eps, 16, JamStrategyKind::Saturating);
        let fair = run_cohort(&config, &spec, || Fixed(1.0 / 16.0));
        assert!(fair.leader_elected());
    }

    #[test]
    fn oracle_never_claims_a_leader() {
        // Even when a Single leaks through the oracle's budget, the
        // negative control records the resolution but no leader claim.
        let config = SimConfig::new(1, CdModel::Strong).with_seed(2).with_max_slots(100);
        let report = run_cohort_against_oracle(&config, Rate::from_f64(0.95), 16, || Fixed(1.0));
        assert!(report.resolved_at.is_some());
        assert!(report.leaders.is_empty(), "oracle runs never claim leadership");
        assert!(!report.all_terminated);
    }

    #[test]
    fn continue_past_singles_keeps_running() {
        let config = SimConfig::new(1, CdModel::Strong)
            .with_seed(1)
            .with_max_slots(50)
            .with_stop(StopRule::Horizon);
        // A lone always-transmitter: every unjammed slot is a Single.
        let report = run_cohort(&config, &AdversarySpec::passive(), || Fixed(1.0));
        assert_eq!(report.slots, 50, "must run to the cap");
        assert_eq!(report.resolved_at, Some(0), "first single still recorded");
        assert_eq!(report.counts.singles, 50);
        assert!(!report.timed_out, "a resolved run is not a timeout");
    }

    #[test]
    fn binomial_sampler_sanity() {
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(7);
        assert_eq!(sample_transmitters(100, 0.0, &mut rng), 0);
        assert_eq!(sample_transmitters(100, 1.0, &mut rng), 100);
        assert_eq!(sample_transmitters(0, 0.5, &mut rng), 0);
        let total: u64 = (0..2000).map(|_| sample_transmitters(100, 0.3, &mut rng)).sum();
        let mean = total as f64 / 2000.0;
        assert!((mean - 30.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn sampler_clamps_out_of_range_probabilities() {
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(8);
        assert_eq!(sample_transmitters(100, -0.5, &mut rng), 0, "negative p clamps to 0");
        assert_eq!(sample_transmitters(100, 1.5, &mut rng), 100, "p > 1 clamps to 1");
        assert_eq!(sample_transmitters(0, f64::INFINITY, &mut rng), 0, "n = 0 after clamp");
    }

    #[test]
    #[should_panic(expected = "transmission probability must not be NaN")]
    fn sampler_rejects_nan_probability() {
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(9);
        let _ = sample_transmitters(100, f64::NAN, &mut rng);
    }

    #[test]
    #[should_panic(expected = "transmission probability must not be NaN")]
    fn sampler_rejects_nan_even_for_zero_stations() {
        use rand::SeedableRng;
        // The NaN check runs before any n-based early-out: a poisoned
        // probability is a bug wherever it appears.
        let mut rng = SmallRng::seed_from_u64(10);
        let _ = sample_transmitters(0, f64::NAN, &mut rng);
    }

    #[test]
    fn lone_station_resolves_at_zero() {
        let config = SimConfig::new(1, CdModel::Strong).with_seed(1).with_max_slots(10);
        let report = run_cohort(&config, &AdversarySpec::passive(), || Fixed(1.0));
        assert_eq!(report.resolved_at, Some(0));
        assert_eq!(report.winner, Some(0));
        assert_eq!(report.leaders, vec![0]);
    }

    #[test]
    fn saturated_channel_times_out() {
        let config = SimConfig::new(5, CdModel::Strong).with_seed(1).with_max_slots(20);
        let report = run_cohort(&config, &AdversarySpec::passive(), || Fixed(1.0));
        assert!(report.timed_out);
        assert_eq!(report.counts.collisions, 20);
    }

    #[test]
    fn weak_cd_resolution_reports_no_leader() {
        let config = SimConfig::new(4, CdModel::Weak).with_seed(2).with_max_slots(100_000);
        let report = run_cohort(&config, &AdversarySpec::passive(), || Fixed(0.25));
        assert!(report.resolved_at.is_some());
        assert!(report.leaders.is_empty());
        assert!(!report.all_terminated);
    }

    #[test]
    fn deterministic_given_seed() {
        let config = SimConfig::new(64, CdModel::Strong).with_seed(33).with_max_slots(100_000);
        let spec = AdversarySpec::new(Rate::from_f64(0.5), 8, JamStrategyKind::Saturating);
        let a = run_cohort(&config, &spec, || Fixed(1.0 / 64.0));
        let b = run_cohort(&config, &spec, || Fixed(1.0 / 64.0));
        assert_eq!(a.resolved_at, b.resolved_at);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.winner, b.winner);
    }

    #[test]
    fn finished_protocol_stops_engine() {
        #[derive(Debug)]
        struct CountDown(u32);
        impl UniformProtocol for CountDown {
            fn tx_prob(&mut self, _: u64) -> f64 {
                0.0
            }
            fn on_state(&mut self, _: u64, _: ChannelState) {
                self.0 -= 1;
            }
            fn finished(&self) -> bool {
                self.0 == 0
            }
        }
        let config = SimConfig::new(3, CdModel::Strong).with_seed(1).with_max_slots(100);
        let report = run_cohort(&config, &AdversarySpec::passive(), || CountDown(7));
        assert_eq!(report.slots, 7);
        assert!(!report.timed_out);
        assert_eq!(report.resolved_at, None);
    }

    #[test]
    fn jam_fraction_tracks_budget() {
        let spec = AdversarySpec::new(Rate::from_ratio(1, 4), 16, JamStrategyKind::Saturating);
        let config = SimConfig::new(2, CdModel::Strong).with_seed(9).with_max_slots(4000);
        let report = run_cohort(&config, &spec, || Fixed(1.0)); // never resolves
        let frac = report.jam_fraction();
        assert!(frac > 0.6 && frac <= 0.75 + 1e-9, "frac {frac}");
    }

    #[test]
    fn no_cd_null_becomes_collision_for_protocol() {
        #[derive(Debug)]
        struct PanicOnNull;
        impl UniformProtocol for PanicOnNull {
            fn tx_prob(&mut self, _: u64) -> f64 {
                0.0
            }
            fn on_state(&mut self, _: u64, s: ChannelState) {
                assert_ne!(s, ChannelState::Null, "no-CD must never surface Null");
            }
        }
        let config = SimConfig::new(3, CdModel::NoCd).with_seed(1).with_max_slots(50);
        let _ = run_cohort(&config, &AdversarySpec::passive(), || PanicOnNull);
    }
}

#[cfg(test)]
mod noise_tests {
    use super::*;
    use jle_adversary::AdversarySpec;
    use jle_radio::CdModel;

    #[derive(Debug, Clone)]
    struct Silent;
    impl UniformProtocol for Silent {
        fn tx_prob(&mut self, _: u64) -> f64 {
            0.0
        }
        fn on_state(&mut self, _: u64, _: ChannelState) {}
    }

    #[derive(Debug, Clone)]
    struct Fixed(f64);
    impl UniformProtocol for Fixed {
        fn tx_prob(&mut self, _: u64) -> f64 {
            self.0
        }
        fn on_state(&mut self, _: u64, _: ChannelState) {}
    }

    #[test]
    fn noise_corrupts_at_the_configured_rate() {
        let config =
            SimConfig::new(4, CdModel::Strong).with_seed(5).with_max_slots(20_000).with_noise(0.25);
        let r = run_cohort(&config, &AdversarySpec::passive(), || Silent);
        let frac = r.noise_slots as f64 / r.slots as f64;
        assert!((frac - 0.25).abs() < 0.02, "noise fraction {frac}");
        // Noise reads as Collision; silent stations otherwise yield Nulls.
        assert_eq!(r.counts.collisions, r.noise_slots);
        assert_eq!(r.counts.jammed, r.noise_slots);
        assert_eq!(r.counts.singles, 0);
    }

    #[test]
    fn zero_noise_does_not_consume_randomness() {
        // Adding the noise feature must not perturb noise-free runs.
        let base = SimConfig::new(16, CdModel::Strong).with_seed(9).with_max_slots(100_000);
        let a = run_cohort(&base, &AdversarySpec::passive(), || Fixed(0.1));
        let b = run_cohort(&base.clone().with_noise(0.0), &AdversarySpec::passive(), || Fixed(0.1));
        assert_eq!(a.resolved_at, b.resolved_at);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.noise_slots, 0);
    }

    #[test]
    fn noise_destroys_singles_like_jamming() {
        // A lone always-transmitter under heavy noise: only noise-free
        // slots can resolve.
        let config =
            SimConfig::new(1, CdModel::Strong).with_seed(3).with_max_slots(1_000).with_noise(0.9);
        let r = run_cohort(&config, &AdversarySpec::passive(), || Fixed(1.0));
        assert!(r.leader_elected());
        assert!(r.resolved_at.unwrap() > 0 || r.noise_slots == 0);
    }
}
