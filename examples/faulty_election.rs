//! Leader election with imperfect stations: crashes, late wakeups, and
//! sensing errors injected on top of a saturating jammer, with a
//! restart supervisor wrapped around every station.
//!
//! ```text
//! cargo run --release --example faulty_election
//! ```

use jamming_leader_election::prelude::*;

fn main() {
    let n = 24;
    let eps = 0.5;
    let adversary = AdversarySpec::new(Rate::from_f64(eps), 32, JamStrategyKind::Saturating);
    let config = SimConfig::new(n, CdModel::Strong).with_seed(7).with_max_slots(100_000);

    // A seed-driven fault plan: ~25% of stations crash somewhere in the
    // first 1024 slots, everyone wakes staggered, and every station
    // flips 2% of its Null/Collision sensings.
    let plan = FaultPlan::new(42)
        .with_random_crashes(n, 0.25, 1_024)
        .with_staggered_wakeups(n, 256)
        .with_sensing_flips(n, 0.02);
    println!("fault plan covers {} of {n} stations", plan.len());

    // Bare LESK under the same faults vs the supervised wrapper
    // (watchdog 4096 slots, doubling after each restart).
    let bare = run_fast_exact_faulty(&config, &adversary, &plan, move |_| {
        Box::new(PerStation::new(LeskProtocol::new(eps)))
    });
    let supervised = run_fast_exact_faulty(&config, &adversary, &plan, move |_| {
        Box::new(Supervisor::over_lesk(eps, 4_096))
    });

    for (label, report) in [("bare", &bare), ("supervised", &supervised)] {
        println!(
            "{label:>10}: outcome {:?} after {} slots (winner {:?}, jammed {}, leader crashed: {})",
            report.outcome(),
            report.slots,
            report.winner,
            report.counts.jammed,
            report.leader_crashed,
        );
    }

    // The degradation taxonomy, spelled out.
    for o in Outcome::ALL {
        println!("  taxonomy: {:<18} -> {}", format!("{o:?}"), o.label());
    }
}
