//! The paper's §4 building-block claim, realized: k-selection and
//! network-size approximation from the same LESK dynamics, both under
//! jamming.
//!
//! ```text
//! cargo run --release --example building_blocks
//! ```

use jamming_leader_election::prelude::*;
use jamming_leader_election::protocols::{run_k_selection, SizeApproxProtocol};

fn main() {
    let eps = 0.5;
    let adversary = AdversarySpec::new(Rate::from_f64(eps), 16, JamStrategyKind::Saturating);

    // ---- k-selection: 10 leaders out of 4096 stations -----------------
    let n = 4096u64;
    let k = 10u64;
    let config = SimConfig::new(n, CdModel::Strong).with_seed(41).with_max_slots(1_000_000);
    let r = run_k_selection(&config, &adversary, k, eps);
    assert!(r.completed);
    println!("k-selection: {k} leaders among {n} stations, saturating jammer");
    println!("  election slots : {:?}", r.election_slots);
    println!("  gaps           : {:?}", r.gaps());
    println!(
        "  -> first leader pays the O(log n) climb ({} slots); the other {} cost {} slots total\n",
        r.gaps()[0],
        k - 1,
        r.slots - r.election_slots[0] - 1,
    );

    // ---- size approximation -------------------------------------------
    println!("size approximation: 2^u-bar after a fixed horizon (same dynamics, no stopping)");
    println!("{:>10} {:>14} {:>10}", "true n", "estimate", "ratio");
    for k in [6u32, 10, 14, 18] {
        let n = 1u64 << k;
        let horizon = 400 + 40 * k as u64;
        let config = SimConfig::new(n, CdModel::Strong)
            .with_seed(17)
            .with_max_slots(horizon + 10)
            .with_stop(StopRule::Horizon);
        let (_, proto) =
            run_cohort_with(&config, &adversary, || SizeApproxProtocol::new(eps, horizon));
        let est = proto.estimate_n();
        println!("{:>10} {:>14.0} {:>10.3}", n, est, est / n as f64);
    }
    println!("\nBoth blocks inherit LESK's jamming robustness: jams read as busy slots and");
    println!("are paid for by the asymmetric (-1 on Null, +eps/8 on Collision) update rule.");
}
