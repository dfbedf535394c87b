//! Full weak-CD leader election (LEWK) under adversarial jamming.
//!
//! Under weak-CD a transmitter cannot hear its own Single — the winner
//! doesn't know it won. The paper's `Notification` transformation fixes
//! this with the C1/C2/C3 interval handshake; this example runs it on the
//! exact per-station engine against three adversaries and shows that
//! every station terminates with exactly one leader.
//!
//! ```text
//! cargo run --release --example jammed_election
//! ```

use jamming_leader_election::prelude::*;

fn main() {
    let n = 24;
    let eps = 0.5;
    let t_window = 16;

    let adversaries = vec![
        AdversarySpec::passive(),
        AdversarySpec::new(Rate::from_f64(eps), t_window, JamStrategyKind::Saturating),
        AdversarySpec::new(Rate::from_f64(eps), t_window, JamStrategyKind::ReactiveNull),
        AdversarySpec::new(
            Rate::from_f64(eps),
            t_window,
            JamStrategyKind::Burst { on: t_window, off: t_window },
        ),
    ];

    println!("LEWK: weak-CD leader election, n = {n}, eps = {eps}, T = {t_window}\n");
    println!("{:<42} {:>10} {:>8} {:>8}  outcome", "adversary", "slots", "jammed", "singles");
    for adv in adversaries {
        let config = SimConfig::new(n, CdModel::Weak)
            .with_seed(7)
            .with_max_slots(10_000_000)
            .with_stop(StopRule::AllTerminated);
        let report = run_fast_exact(&config, &adv, |_| Box::new(lewk(eps)));
        assert!(report.all_terminated, "all stations must terminate");
        assert_eq!(report.leaders.len(), 1, "exactly one leader");
        println!(
            "{:<42} {:>10} {:>8} {:>8}  station #{} leads; first C1-single by #{}",
            adv.label(),
            report.slots,
            report.counts.jammed,
            report.counts.singles,
            report.leaders[0],
            report.winner.unwrap(),
        );
    }
    println!(
        "\nThe handshake: C1-single picks the leader (it doesn't know) → C2-single tells it → \
         it saturates C3 until everyone heard → C1 falls silent and it terminates."
    );
}
