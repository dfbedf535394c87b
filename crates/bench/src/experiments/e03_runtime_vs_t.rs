//! E3 — LESK runtime vs `T` (the `max{T, ·}` transition of Theorem 2.6).
//!
//! Fixed `n = 1024`, `ε = 1/2`; sweep the adversary window `T`. For small
//! `T` the `log n/(ε³ log(1/ε))` term dominates and the runtime is flat;
//! once `T` crosses it the runtime must grow like `Θ(T)` — the adversary
//! can black out almost-`T`-long stretches. We drive it with the burst
//! jammer (`on = T`, `off = T`) and the periodic-front jammer.

use crate::common::{median, ExpContext, ExperimentResult};
use jle_adversary::{AdversarySpec, JamStrategyKind, Rate};
use jle_analysis::{fmt, linear_fit, Figure, Series, Table};
use jle_protocols::{math, ElectionParams, ProtoParams};
use jle_radio::CdModel;

/// Run E3.
pub fn run(ctx: &ExpContext) -> ExperimentResult {
    let quick = ctx.quick;
    let mut result = ExperimentResult::new(
        "e3",
        "LESK runtime vs adversary window T",
        "Theorem 2.6: the max{T, log n/(eps^3 log 1/eps)} crossover",
    );
    let n = 1024u64;
    let eps = 0.5;
    let t_grid: Vec<u64> = if quick {
        vec![16, 1 << 10, 1 << 14]
    } else {
        vec![16, 64, 256, 1 << 10, 1 << 12, 1 << 14, 1 << 16]
    };
    let trials = if quick { 10 } else { 60 };

    let mut table = Table::new([
        "T",
        "median slots (burst)",
        "median slots (periodic-front)",
        "theory shape",
        "burst/theory",
    ]);
    let mut big_t_pts = Vec::new();
    let mut s_burst = Series::new("burst jammer");
    let mut s_shape = Series::new("theory shape max{T, log-term}");
    for (idx, &t) in t_grid.iter().enumerate() {
        let burst =
            AdversarySpec::new(Rate::from_f64(eps), t, JamStrategyKind::Burst { on: t, off: t });
        let periodic = AdversarySpec::new(Rate::from_f64(eps), t, JamStrategyKind::PeriodicFront);
        let unit = |adv| {
            ElectionParams::cohort(ProtoParams::lesk(eps), n, CdModel::Strong, adv, 200_000_000)
        };
        let (bs, b_to) = ctx.election_slots(
            "e3",
            &format!("burst/T={t}"),
            &unit(burst),
            trials,
            31_000 + idx as u64,
        );
        let (ps, p_to) = ctx.election_slots(
            "e3",
            &format!("periodic/T={t}"),
            &unit(periodic),
            trials,
            32_000 + idx as u64,
        );
        assert_eq!(b_to + p_to, 0, "no timeouts expected in E3 at T={t}");
        let shape = math::lesk_runtime_shape(n, eps, t);
        let bmed = median(&bs);
        s_burst.push(t as f64, bmed);
        s_shape.push(t as f64, shape);
        if t >= 1 << 12 {
            big_t_pts.push((t as f64, bmed));
        }
        table.push_row([t.to_string(), fmt(bmed), fmt(median(&ps)), fmt(shape), fmt(bmed / shape)]);
    }
    result.add_table("runtime vs T", table);
    result.add_figure(
        Figure::new(
            "LESK election time vs adversary window T (n = 1024, eps = 1/2)",
            "T (log2 axis)",
            "median slots (log2 axis)",
        )
        .log_x()
        .log_y()
        .with_series(s_burst)
        .with_series(s_shape),
    );

    if big_t_pts.len() >= 2 {
        if let Some(fit) = linear_fit(&big_t_pts) {
            result.note(format!(
                "large-T regime: slots ≈ {} + {}·T (R² = {:.4}) — linear in T as \
                 max{{T, ·}} requires",
                fmt(fit.intercept),
                fmt(fit.slope),
                fit.r_squared
            ));
        }
    }
    result.note(
        "small-T medians are flat (the log-term dominates); the crossover sits where \
         T ≈ log n/(eps^3 log(1/eps))"
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
