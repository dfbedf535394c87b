//! E18 — negative control: the commit-first rule is load-bearing.
//!
//! The model (Section 1.1) forces the adversary to decide on jamming
//! *before* seeing the stations' actions in the slot. This experiment
//! removes that rule: an "oracle" jammer sees the transmitter count and
//! jams exactly the would-be `Single`s. Result: with the very same
//! `(T, 1−ε)` budget under which LESK elects in `O(log n)` slots, the
//! oracle blocks elections essentially forever — no protocol could do
//! better, since the oracle only ever spends budget on actual `Single`s.

use crate::common::{saturating, ExpContext, ExperimentResult};
use jle_adversary::Rate;
use jle_analysis::{fmt, Table};
use jle_engine::{run_cohort_against_oracle, SimConfig};
use jle_lens::{EngineKind, LensSpec};
use jle_protocols::{LeskProtocol, ProtoParams};
use jle_radio::CdModel;

/// Run E18.
pub fn run(ctx: &ExpContext) -> ExperimentResult {
    let quick = ctx.quick;
    let mut result = ExperimentResult::new(
        "e18",
        "negative control: action-observing (oracle) jammer vs the fair model",
        "Section 1.1: 'it has to make a jamming decision before it knows the actions'",
    );
    let n = 256u64;
    let trials = if quick { 10 } else { 40 };
    let cap = 200_000u64;
    let eps_grid: Vec<f64> = if quick { vec![0.2] } else { vec![0.05, 0.1, 0.2, 0.3] };

    let mut table = Table::new([
        "eps",
        "fair jammer: success rate",
        "fair: median slots",
        "oracle jammer: success rate",
        "oracle: singles suppressed (median)",
    ]);
    for (i, &eps) in eps_grid.iter().enumerate() {
        let t = 32u64;
        let seed0 = 180_000 + i as u64 * 11;
        let adv = saturating(eps, t);
        let spec =
            LensSpec::new(EngineKind::Cohort, ProtoParams::lesk(eps), n, CdModel::Strong, adv, cap);
        let fair: Vec<(bool, f64)> =
            ctx.spec_trials("e18", &format!("fair/eps={eps}"), &spec, seed0, trials, |r| {
                (r.leader_elected(), r.slots as f64)
            });
        let oracle: Vec<(bool, f64)> = ctx.run_trials(
            "e18",
            &format!("oracle/eps={eps}"),
            serde_json::json!({
                "kind": "oracle_control_oracle",
                "n": n,
                "eps": eps,
                "t": t,
                "max_slots": cap,
            }),
            seed0,
            trials,
            |seed| {
                let config = SimConfig::new(n, CdModel::Strong).with_seed(seed).with_max_slots(cap);
                let r = run_cohort_against_oracle(&config, Rate::from_f64(eps), t, || {
                    LeskProtocol::new(eps)
                });
                // Every jam of the oracle is a suppressed Single.
                (r.leader_elected(), r.counts.jammed as f64)
            },
        );
        let rate = |v: &[(bool, f64)]| v.iter().filter(|x| x.0).count() as f64 / v.len() as f64;
        let med = |v: &[(bool, f64)]| {
            let mut xs: Vec<f64> = v.iter().map(|x| x.1).collect();
            xs.sort_by(f64::total_cmp);
            xs[xs.len() / 2]
        };
        table.push_row([
            format!("{eps:.2}"),
            format!("{:.2}", rate(&fair)),
            fmt(med(&fair)),
            format!("{:.2}", rate(&oracle)),
            fmt(med(&oracle)),
        ]);
    }
    result.add_table(&format!("fair vs oracle (n={n}, cap {cap} slots)"), table);
    result.note(
        "with identical budgets the fair (commit-first) jammer cannot stop LESK, while the \
         action-observing oracle suppresses every affordable Single and blocks the election \
         for the entire cap — the model's commit-before-actions clause is exactly what makes \
         fast robust election possible"
            .to_string(),
    );
    result
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_run_is_consistent() {
        let r = super::run(&crate::common::ExpContext::ephemeral(true));
        assert_eq!(r.tables.len(), 1);
        assert!(!r.notes.is_empty());
    }
}
