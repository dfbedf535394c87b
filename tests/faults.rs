//! End-to-end properties of the fault-injection subsystem and the
//! restart supervisor (experiment E24's substrate).
//!
//! * An empty (or all-benign) [`FaultPlan`] is *invisible*: the faulty
//!   runner reproduces the pristine exact-engine run bit for bit.
//! * Supervision never helps the adversary: a supervisor-wrapped LESK
//!   run — even with a watchdog small enough to fire restarts — stays
//!   inside the `(T, 1−ε)` jamming allowance on every window, verified
//!   against the full trace by an independent referee.

use jamming_leader_election::prelude::*;
use proptest::prelude::*;

/// Brute-force window referee: no window of length ≥ `t` may contain
/// more jams than the `(T, 1−ε)` allowance grants it.
fn assert_budget_respected(jams: &[bool], eps: Rate, t: u64) {
    let prefix: Vec<u64> = std::iter::once(0)
        .chain(jams.iter().scan(0u64, |acc, &j| {
            *acc += j as u64;
            Some(*acc)
        }))
        .collect();
    let n = jams.len();
    for s in 0..n {
        for e in (s + t as usize - 1).min(n)..n {
            let w = (e - s + 1) as u64;
            if w < t {
                continue;
            }
            let count = prefix[e + 1] - prefix[s];
            assert!(
                count <= eps.allowance(w),
                "window [{s},{e}] has {count} jams > allowance {}",
                eps.allowance(w)
            );
        }
    }
}

fn assert_reports_identical(a: &RunReport, b: &RunReport, ctx: &str) {
    assert_eq!(a.slots, b.slots, "slots differ: {ctx}");
    assert_eq!(a.resolved_at, b.resolved_at, "resolved_at differs: {ctx}");
    assert_eq!(a.winner, b.winner, "winner differs: {ctx}");
    assert_eq!(a.leaders, b.leaders, "leaders differ: {ctx}");
    assert_eq!(a.counts, b.counts, "slot counts differ: {ctx}");
    assert_eq!(a.energy, b.energy, "energy differs: {ctx}");
    assert_eq!(a.timed_out, b.timed_out, "timed_out differs: {ctx}");
    assert_eq!(a.cap_hit, b.cap_hit, "cap_hit differs: {ctx}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The faulty runner with an empty plan is slot-for-slot identical to
    /// the pristine exact engine, for any (n, seed, jammer on/off).
    #[test]
    fn empty_fault_plan_is_invisible(
        n in 1u64..48,
        seed in any::<u64>(),
        jammed in any::<bool>(),
    ) {
        let adv = if jammed {
            AdversarySpec::new(Rate::from_f64(0.5), 16, JamStrategyKind::Saturating)
        } else {
            AdversarySpec::passive()
        };
        let config = SimConfig::new(n, CdModel::Strong)
            .with_seed(seed)
            .with_max_slots(200_000);
        let pristine = run_fast_exact(&config, &adv, |_| {
            Box::new(PerStation::new(LeskProtocol::new(0.5)))
        });
        let faulty = run_fast_exact_faulty(&config, &adv, &FaultPlan::empty(), |_| {
            Box::new(PerStation::new(LeskProtocol::new(0.5)))
        });
        assert_reports_identical(&pristine, &faulty, &format!("n={n} seed={seed}"));
        prop_assert!(!faulty.leader_crashed);
        prop_assert_eq!(faulty.outcome(), pristine.outcome());
    }

    /// Benign plan entries (scheduled but no-op faults) are invisible too
    /// — wrapping in `FaultyStation` must not perturb the RNG stream.
    #[test]
    fn benign_fault_entries_are_invisible(
        n in 2u64..32,
        seed in any::<u64>(),
    ) {
        let adv = AdversarySpec::new(Rate::from_f64(0.5), 16, JamStrategyKind::Saturating);
        let config = SimConfig::new(n, CdModel::Strong)
            .with_seed(seed)
            .with_max_slots(200_000);
        let mut plan = FaultPlan::new(seed);
        for i in 0..n {
            plan = plan.with_station(i, StationFaults::none());
        }
        let pristine = run_fast_exact(&config, &adv, |_| {
            Box::new(PerStation::new(LeskProtocol::new(0.5)))
        });
        let faulty = run_fast_exact_faulty(&config, &adv, &plan, |_| {
            Box::new(PerStation::new(LeskProtocol::new(0.5)))
        });
        assert_reports_identical(&pristine, &faulty, &format!("n={n} seed={seed}"));
    }

    /// A supervised election never drives the adversary past its
    /// `(T, 1−ε)` budget: every window of the trace stays within the
    /// allowance, even when the tiny watchdog fires real restarts.
    #[test]
    fn supervised_lesk_stays_within_jamming_budget(
        n in 2u64..24,
        seed in any::<u64>(),
    ) {
        let eps = Rate::from_f64(0.5);
        let t = 16u64;
        let adv = AdversarySpec::new(eps, t, JamStrategyKind::Saturating);
        let config = SimConfig::new(n, CdModel::Strong)
            .with_seed(seed)
            .with_max_slots(50_000)
            .with_trace(true);
        // Watchdog 32 is far below typical election times, so restarts
        // genuinely occur in most drawn runs.
        let r = run_fast_exact(&config, &adv, |_| Box::new(Supervisor::over_lesk(0.5, 32)));
        prop_assert!(r.leader_elected(), "n={n} seed={seed}");
        let jams: Vec<bool> =
            r.trace.as_ref().unwrap().iter().map(|p| p.jammed()).collect();
        assert_budget_respected(&jams, eps, t);
    }

    /// Supervision with a sane (large) watchdog is transparent: the
    /// supervised run equals the bare run on every observable.
    #[test]
    fn supervision_is_transparent_for_healthy_elections(
        n in 2u64..32,
        seed in any::<u64>(),
    ) {
        let adv = AdversarySpec::new(Rate::from_f64(0.5), 16, JamStrategyKind::Saturating);
        let config = SimConfig::new(n, CdModel::Strong)
            .with_seed(seed)
            .with_max_slots(200_000);
        let bare = run_fast_exact(&config, &adv, |_| {
            Box::new(PerStation::new(LeskProtocol::new(0.5)))
        });
        let supervised =
            run_fast_exact(&config, &adv, |_| Box::new(Supervisor::over_lesk(0.5, 1 << 20)));
        assert_reports_identical(&bare, &supervised, &format!("n={n} seed={seed}"));
    }
}

#[test]
fn crash_wipeout_is_classified_not_crashed() {
    // Every station crashes at slot 0: the run must hit the cap and be
    // classified DeadlineExceeded — never a panic, never a bogus winner.
    let mut plan = FaultPlan::new(9);
    for i in 0..8 {
        plan = plan.with_station(i, StationFaults::none().crash(0));
    }
    let config = SimConfig::new(8, CdModel::Strong).with_seed(9).with_max_slots(500);
    let r = run_fast_exact_faulty(&config, &AdversarySpec::passive(), &plan, |_| {
        Box::new(PerStation::new(LeskProtocol::new(0.5)))
    });
    assert_eq!(r.outcome(), Outcome::DeadlineExceeded);
    assert!(r.cap_hit);
    assert_eq!(r.winner, None);
    assert_eq!(r.energy.total(), 0, "crashed stations spend no energy");
}
