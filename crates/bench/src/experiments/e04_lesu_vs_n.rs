//! E4 — LESU runtime vs `n` with *hidden* ε (Theorem 2.9 case 1), plus
//! the schedule-constant ablation.
//!
//! LESU does not know ε; the adversary uses ε ∈ {1/2, 1/4, 1/8}. Theorem
//! 2.9 bounds LESU by `O(ε⁻³ loglog(1/ε) · log n)`. Two distinct exit
//! paths exist and we report them separately:
//!
//! * **Estimation exit** — Lemma 2.8's "obtains Single": the doubling
//!   probe sweeps its transmission probability through `≈ 1/n` and very
//!   often lucks into a `Single` within `O(log n)` slots, ending the
//!   election before any LESK run starts. Under light jamming this is
//!   the dominant (and fastest) path — LESU then *beats* even the
//!   ε-aware LESK.
//! * **Sweep exit** — the run survives `Estimation` and is resolved by a
//!   time-boxed LESK(ε_j) run; this is the path the theorem's bound
//!   prices.

use crate::common::{median, saturating, ExpContext, ExperimentResult};
use jle_adversary::AdversarySpec;
use jle_analysis::{fmt, Table};
use jle_engine::{run_cohort_with, SimConfig};
use jle_protocols::{math, ElectionParams, LesuProtocol, ProtoParams};
use jle_radio::CdModel;
use serde::Serialize;

struct LesuStats {
    slots: Vec<f64>,
    est_exits: u64,
    sweep_slots: Vec<f64>,
}

fn lesu_runs(
    ctx: &ExpContext,
    point: &str,
    n: u64,
    adv: &AdversarySpec,
    trials: u64,
    base_seed: u64,
    c: f64,
) -> LesuStats {
    let params = serde_json::json!({
        "kind": "lesu_runs",
        "n": n,
        "adv": adv.to_json_value(),
        "c": c,
        "max_slots": 500_000_000u64,
    });
    let rows: Vec<(f64, bool)> = ctx.run_trials("e4", point, params, base_seed, trials, |seed| {
        let config = SimConfig::new(n, CdModel::Strong).with_seed(seed).with_max_slots(500_000_000);
        let (report, proto) = run_cohort_with(&config, adv, move || LesuProtocol::with_constant(c));
        assert!(report.leader_elected(), "LESU timeout at n={n}");
        (report.slots as f64, proto.current_run().is_none())
    });
    LesuStats {
        slots: rows.iter().map(|r| r.0).collect(),
        est_exits: rows.iter().filter(|r| r.1).count() as u64,
        sweep_slots: rows.iter().filter(|r| !r.1).map(|r| r.0).collect(),
    }
}

/// Run E4.
pub fn run(ctx: &ExpContext) -> ExperimentResult {
    let quick = ctx.quick;
    let mut result = ExperimentResult::new(
        "e4",
        "LESU vs n with unknown eps: exit paths, theorem envelope, c ablation",
        "Theorem 2.9 case 1 + Lemma 2.8's 'obtains Single' early exit",
    );
    let t_window = 16u64;
    let eps_grid: Vec<f64> = if quick { vec![0.5] } else { vec![0.5, 0.25, 0.125] };
    let exps: Vec<u32> = if quick { vec![7, 10] } else { vec![7, 9, 11, 13, 15] };
    let trials = if quick { 10 } else { 60 };

    let mut table = Table::new([
        "hidden eps",
        "n",
        "LESU median",
        "estimation-exit fraction",
        "sweep-exit median",
        "LESK median (knows eps)",
        "theorem envelope",
    ]);
    for (ei, &eps) in eps_grid.iter().enumerate() {
        for &k in &exps {
            let n = 1u64 << k;
            let adv = saturating(eps, t_window);
            let stats = lesu_runs(
                ctx,
                &format!("lesu/eps={eps}/n={n}"),
                n,
                &adv,
                trials,
                40_000 + (ei * 100 + k as usize) as u64,
                4.0,
            );
            let unit = ElectionParams::cohort(
                ProtoParams::lesk(eps),
                n,
                CdModel::Strong,
                adv,
                500_000_000,
            );
            let (lesk, to1) = ctx.election_slots(
                "e4",
                &format!("lesk/eps={eps}/n={n}"),
                &unit,
                trials,
                41_000 + (ei * 100 + k as usize) as u64,
            );
            assert_eq!(to1, 0);
            table.push_row([
                format!("{eps:.3}"),
                n.to_string(),
                fmt(median(&stats.slots)),
                format!("{:.2}", stats.est_exits as f64 / trials as f64),
                if stats.sweep_slots.is_empty() {
                    "-".into()
                } else {
                    fmt(median(&stats.sweep_slots))
                },
                fmt(median(&lesk)),
                fmt(math::lesu_runtime_shape(n, eps, t_window)),
            ]);
        }
    }
    result.add_table("LESU vs n", table);

    // Schedule-constant ablation at n = 1024, hidden eps = 1/8 (heavy
    // jamming suppresses most estimation exits, so the sweep — where c
    // matters — is actually exercised).
    let mut ablation = Table::new(["c", "median slots", "p90 slots", "estimation-exit fraction"]);
    let cs: Vec<f64> = if quick { vec![4.0] } else { vec![1.0, 2.0, 4.0, 8.0, 16.0] };
    for (i, &c) in cs.iter().enumerate() {
        let stats = lesu_runs(
            ctx,
            &format!("ablation/c={c}"),
            1024,
            &saturating(0.125, t_window),
            trials,
            42_000 + i as u64,
            c,
        );
        let s = jle_analysis::Summary::of(&stats.slots).unwrap();
        ablation.push_row([
            c.to_string(),
            fmt(s.median),
            fmt(s.p90),
            format!("{:.2}", stats.est_exits as f64 / trials as f64),
        ]);
    }
    result.add_table("schedule-constant ablation (hidden eps=1/8)", ablation);

    result.note(
        "LESU's unconditional medians sit far below the Theorem 2.9 envelope — in most trials \
         Estimation's probability sweep passes through ≈1/n and 'obtains a Single' \
         (Lemma 2.8's early exit), electing in O(log n) slots before any LESK run starts; \
         LESU can therefore beat the eps-aware LESK outright"
            .to_string(),
    );
    result.note(
        "sweep-exit medians grow cleanly with log n and stay within a small constant of the \
         (constant-free) Theorem 2.9 shape; the c ablation moves medians and tails by only a \
         few percent — consistent with the paper leaving c existential"
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
        assert_eq!(r.notes.len(), 2);
    }
}
