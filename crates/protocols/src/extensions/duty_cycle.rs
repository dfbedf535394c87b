//! Duty-cycled LESK — the energy/latency trade-off (extension).
//!
//! The paper measures time, not energy, but its authors study
//! energy-efficient election elsewhere (their ref [13]). This extension
//! duty-cycles LESK: a station is awake only in slots
//! `slot ≡ phase (mod period)` and sleeps otherwise (no listening cost,
//! no observation). Staggered phases partition the network into `period`
//! interleaved sub-networks of `n/period` stations, each running LESK on
//! its own slot comb with a *personal* estimate (stations no longer share
//! a history, so this is not a uniform protocol — per-station engine only).
//!
//! Expected behaviour (measured in E23): per-station listening energy
//! drops by ≈ `period×`, while the election slows because (a) each
//! sub-network updates its estimate only every `period` slots and (b) the
//! first `Single` now needs one sub-network of size `n/period` to
//! resolve. Jam-robustness is inherited: each comb sees a `(T/period,
//! 1−ε)`-ish projection of the jamming pattern, and the asymmetric update
//! rule applies unchanged.

use crate::lesk::LeskProtocol;
use jle_engine::{Action, PerStation, Protocol, Status};
use jle_radio::Observation;
use rand::RngCore;

/// Duty-cycled LESK station.
pub struct DutyCycledLesk {
    inner: PerStation<LeskProtocol>,
    period: u64,
    phase: u64,
}

impl DutyCycledLesk {
    /// Awake in slots `≡ phase (mod period)`; `period = 1` is plain LESK.
    ///
    /// # Panics
    /// Panics if `period == 0`.
    pub fn new(eps: f64, period: u64, phase: u64) -> Self {
        assert!(period >= 1, "period must be positive");
        DutyCycledLesk {
            inner: PerStation::new(LeskProtocol::new(eps)),
            period,
            phase: phase % period,
        }
    }

    /// Whether the station is awake in the given slot.
    #[inline]
    pub fn awake(&self, slot: u64) -> bool {
        slot % self.period == self.phase
    }
}

impl Protocol for DutyCycledLesk {
    fn act(&mut self, slot: u64, rng: &mut dyn RngCore) -> Action {
        if self.awake(slot) {
            self.inner.act(slot, rng)
        } else {
            Action::Sleep
        }
    }

    fn feedback(&mut self, slot: u64, transmitted: bool, obs: Observation) {
        // The engine only delivers feedback for slots we participated in.
        debug_assert!(self.awake(slot) || transmitted);
        self.inner.feedback(slot, transmitted, obs);
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

    fn wake_hint(&self, slot: u64) -> u64 {
        // Next on-phase slot strictly after `slot`. Off-phase acts draw
        // no randomness and touch no state, so the active-set backend can
        // skip straight to it — this is what turns a period-`p` network
        // into an O(n/p)-per-slot simulation.
        let next = slot + 1;
        let rem = next % self.period;
        next + (self.phase + self.period - rem) % self.period
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jle_adversary::{AdversarySpec, JamStrategyKind, Rate};
    use jle_engine::{run_fast_exact, SimConfig};
    use jle_radio::CdModel;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn sleeps_off_phase() {
        let mut st = DutyCycledLesk::new(0.5, 4, 1);
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(st.act(0, &mut rng), Action::Sleep);
        assert_ne!(st.act(1, &mut rng), Action::Sleep);
        assert_eq!(st.act(2, &mut rng), Action::Sleep);
        assert_eq!(st.act(3, &mut rng), Action::Sleep);
        assert_ne!(st.act(5, &mut rng), Action::Sleep);
    }

    #[test]
    fn wake_hint_names_the_next_on_phase_slot() {
        let st = DutyCycledLesk::new(0.5, 4, 1);
        assert_eq!(st.wake_hint(0), 1);
        assert_eq!(st.wake_hint(1), 5);
        assert_eq!(st.wake_hint(2), 5);
        assert_eq!(st.wake_hint(4), 5);
        assert_eq!(st.wake_hint(5), 9);
        let plain = DutyCycledLesk::new(0.5, 1, 0);
        for slot in 0..8 {
            assert_eq!(plain.wake_hint(slot), slot + 1, "period 1 wakes every slot");
        }
        // Contract check: every slot in (slot, hint) really is Sleep.
        let mut probe = DutyCycledLesk::new(0.5, 16, 11);
        let mut rng = SmallRng::seed_from_u64(2);
        for slot in 0..64u64 {
            let hint = probe.wake_hint(slot);
            for t in slot + 1..hint {
                assert_eq!(probe.act(t, &mut rng), Action::Sleep, "slot {slot} hint {hint} t {t}");
            }
            assert_ne!(probe.act(hint, &mut rng), Action::Sleep, "hint slot must be on-phase");
        }
    }

    #[test]
    fn fast_backend_matches_legacy_engine_on_duty_cycle() {
        // Same protocol through the fast backend and the legacy
        // shared-stream discipline (multi-hop `Shared` on the complete
        // graph): not bit-identical (different streams), but both must
        // elect, and the fast backend must see the duty-cycled listen
        // savings too.
        use jle_engine::{run_multihop_std, RngDiscipline};
        let config = SimConfig::new(64, CdModel::Strong).with_seed(14).with_max_slots(1_000_000);
        let legacy = run_multihop_std(
            &config,
            &AdversarySpec::passive(),
            &jle_radio::Topology::Complete,
            RngDiscipline::Shared,
            |i| Box::new(DutyCycledLesk::new(0.5, 4, i)),
        );
        let fast = run_fast_exact(&config, &AdversarySpec::passive(), |i| {
            Box::new(DutyCycledLesk::new(0.5, 4, i))
        });
        assert!(legacy.leader_elected() && fast.leader_elected());
        let rate = |r: &jle_engine::RunReport| r.energy.listens as f64 / r.slots as f64;
        assert!(rate(&fast) < 64.0 / 2.0, "fast backend keeps the duty-cycle savings");
        assert!((rate(&fast) - rate(&legacy)).abs() < 8.0, "similar listen rates across backends");
    }

    #[test]
    fn period_one_is_plain_lesk() {
        let st = DutyCycledLesk::new(0.5, 1, 7);
        for slot in 0..10 {
            assert!(st.awake(slot));
        }
    }

    #[test]
    fn elects_with_duty_cycling() {
        let n = 64u64;
        let ok = (33..43)
            .map(|seed| {
                let config =
                    SimConfig::new(n, CdModel::Strong).with_seed(seed).with_max_slots(1_000_000);
                let r = run_fast_exact(&config, &AdversarySpec::passive(), |i| {
                    Box::new(DutyCycledLesk::new(0.5, 4, i))
                });
                r.leader_elected()
            })
            .filter(|&ok| ok)
            .count() as f64
            / 10.0;
        assert_eq!(ok, 1.0);
    }

    #[test]
    fn saves_listening_energy() {
        let n = 64u64;
        let run = |period: u64| {
            let config = SimConfig::new(n, CdModel::Strong).with_seed(5).with_max_slots(1_000_000);
            run_fast_exact(&config, &AdversarySpec::passive(), move |i| {
                Box::new(DutyCycledLesk::new(0.5, period, i))
            })
        };
        let full = run(1);
        let cycled = run(8);
        assert!(full.leader_elected() && cycled.leader_elected());
        // Listening per slot drops by ~the duty factor.
        let rate_full = full.energy.listens as f64 / full.slots as f64;
        let rate_cycled = cycled.energy.listens as f64 / cycled.slots as f64;
        assert!(
            rate_cycled < rate_full / 4.0,
            "listen rates: full {rate_full}, cycled {rate_cycled}"
        );
    }

    #[test]
    fn survives_jamming() {
        let spec = AdversarySpec::new(Rate::from_f64(0.5), 16, JamStrategyKind::Saturating);
        let config = SimConfig::new(48, CdModel::Strong).with_seed(9).with_max_slots(2_000_000);
        let r = run_fast_exact(&config, &spec, |i| Box::new(DutyCycledLesk::new(0.5, 4, i)));
        assert!(r.leader_elected());
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn rejects_zero_period() {
        let _ = DutyCycledLesk::new(0.5, 0, 0);
    }
}
