//! E13 — energy accounting (the paper's Section 1.3 remark).
//!
//! The paper does not analyze energy but "expects the energetic
//! efficiency … to be similar to the leader election from [3]". We
//! measure transmissions per station and total listening cost for every
//! protocol, with and without jamming.

use crate::common::{saturating, ExpContext, ExperimentResult};
use jle_adversary::AdversarySpec;
use jle_analysis::{fmt, Table};
use jle_lens::{EngineKind, LensSpec};
use jle_protocols::{ArssMacProtocol, ProtoParams};
use jle_radio::CdModel;

fn energy_cells(
    ctx: &ExpContext,
    point: &str,
    proto: ProtoParams,
    n: u64,
    adv: &AdversarySpec,
    trials: u64,
    seed: u64,
) -> (f64, f64, f64) {
    let spec = LensSpec::new(EngineKind::Cohort, proto, n, CdModel::Strong, adv.clone(), 5_000_000);
    let rows: Vec<(f64, f64, f64)> = ctx.spec_trials("e13", point, &spec, seed, trials, |r| {
        (r.tx_per_station(n), r.energy.listens as f64 / n as f64, r.slots as f64)
    });
    let m = |f: &dyn Fn(&(f64, f64, f64)) -> f64| {
        let mut v: Vec<f64> = rows.iter().map(f).collect();
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    (m(&|r| r.0), m(&|r| r.1), m(&|r| r.2))
}

/// Run E13.
pub fn run(ctx: &ExpContext) -> ExperimentResult {
    let quick = ctx.quick;
    let mut result = ExperimentResult::new(
        "e13",
        "energy: transmissions and listening per station",
        "Section 1.3 (energy expected similar to [3]; measured, not optimized)",
    );
    let ns: Vec<u64> = if quick { vec![256] } else { vec![64, 256, 1024, 4096] };
    let trials = if quick { 10 } else { 40 };

    for (name, adv) in
        [("none", AdversarySpec::passive()), ("saturating eps=0.5 T=32", saturating(0.5, 32))]
    {
        let mut table = Table::new([
            "n",
            "LESK tx/station",
            "LESU tx/station",
            "ARSS tx/station",
            "backoff tx/station",
            "Willard tx/station",
            "LESK listens/station",
        ]);
        for (i, &n) in ns.iter().enumerate() {
            let gamma = ArssMacProtocol::recommended_gamma(n, 32);
            let cells = |proto: ProtoParams, seed| {
                let point = format!("{}/{name}/n={n}", proto.label());
                energy_cells(ctx, &point, proto, n, &adv, trials, seed + i as u64)
            };
            let lesk = cells(ProtoParams::lesk(0.5), 130_000);
            let lesu = cells(ProtoParams::Lesu, 131_000);
            let arss = cells(ProtoParams::Arss { gamma }, 132_000);
            let back = cells(ProtoParams::Backoff, 133_000);
            let will = cells(ProtoParams::Willard, 134_000);
            table.push_row([
                n.to_string(),
                fmt(lesk.0),
                fmt(lesu.0),
                fmt(arss.0),
                fmt(back.0),
                fmt(will.0),
                fmt(lesk.1),
            ]);
        }
        result.add_table(&format!("median energy ({name})"), table);
    }
    result.note(
        "per-station transmission counts stay O(1)-ish for LESK (each station transmits \
         ~p·slots ≈ slots/n times); listening dominates the energy budget, growing with the \
         election time — consistent with the paper's expectation of [3]-like efficiency"
            .to_string(),
    );
    result
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_run_is_consistent() {
        let r = super::run(&crate::common::ExpContext::ephemeral(true));
        assert_eq!(r.tables.len(), 2);
        assert!(!r.notes.is_empty());
    }
}
