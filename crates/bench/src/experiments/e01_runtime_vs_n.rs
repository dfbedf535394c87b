//! E1 — LESK runtime vs `n` (Theorem 2.6, the headline `O(log n)`).
//!
//! Sweep `n` over powers of two at constant `ε = 1/2`, `T = 32`, under no
//! jamming and under the saturating jammer. Theorem 2.6 predicts slots
//! linear in `log₂ n`; we report medians and the least-squares fit of
//! `median_slots ~ a + b·log₂ n`.

use crate::common::{median, saturating, ExpContext, ExperimentResult};
use jle_adversary::AdversarySpec;
use jle_analysis::{fmt, log2_fit, Figure, Series, Summary, Table};
use jle_protocols::{ElectionParams, ProtoParams};
use jle_radio::CdModel;

/// Run E1. `quick` trims the sweep for smoke testing.
pub fn run(ctx: &ExpContext) -> ExperimentResult {
    let quick = ctx.quick;
    let mut result = ExperimentResult::new(
        "e1",
        "LESK runtime vs n (constant eps)",
        "Theorem 2.6: O(log n) slots for constant eps and T = O(log n)",
    );
    let eps = 0.5;
    let t_window = 32;
    let exps: Vec<u32> = if quick { vec![4, 8, 12] } else { vec![4, 6, 8, 10, 12, 14, 16, 18, 20] };
    let trials = if quick { 20 } else { 200 };

    let mut table = Table::new([
        "n",
        "log2(n)",
        "median (no jam)",
        "mean (no jam)",
        "median (saturating)",
        "median 95% CI (saturating)",
        "jam/clean ratio",
    ]);
    let mut clean_pts = Vec::new();
    let mut jam_pts = Vec::new();
    for &k in &exps {
        let n = 1u64 << k;
        let unit = |adv| {
            ElectionParams::cohort(ProtoParams::lesk(eps), n, CdModel::Strong, adv, 10_000_000)
        };
        let (clean, t0) = ctx.election_slots(
            "e1",
            &format!("clean/n={n}"),
            &unit(AdversarySpec::passive()),
            trials,
            1000 + k as u64,
        );
        let (jam, t1) = ctx.election_slots(
            "e1",
            &format!("saturating/n={n}"),
            &unit(saturating(eps, t_window)),
            trials,
            2000 + k as u64,
        );
        assert_eq!(t0 + t1, 0, "no timeouts expected in E1");
        let (sc, sj) = (Summary::of(&clean).unwrap(), Summary::of(&jam).unwrap());
        let ci = jle_analysis::median_ci(&jam, 0.95, 42 + k as u64).unwrap();
        clean_pts.push((n as f64, median(&clean)));
        jam_pts.push((n as f64, median(&jam)));
        table.push_row([
            n.to_string(),
            k.to_string(),
            fmt(sc.median),
            fmt(sc.mean),
            fmt(sj.median),
            format!("[{}, {}]", fmt(ci.lo), fmt(ci.hi)),
            fmt(sj.median / sc.median),
        ]);
    }
    result.add_table("runtime vs n", table);
    let mut s_clean = Series::new("no jam");
    let mut s_jam = Series::new("saturating jammer");
    for &(x, y) in &clean_pts {
        s_clean.push(x, y);
    }
    for &(x, y) in &jam_pts {
        s_jam.push(x, y);
    }
    result.add_figure(
        Figure::new("LESK election time vs n (eps = 1/2, T = 32)", "n (log2 axis)", "median slots")
            .log_x()
            .with_series(s_clean)
            .with_series(s_jam),
    );

    let mut fits = Table::new(["series", "slope (slots per log2 n)", "intercept", "R^2"]);
    for (name, pts) in [("no jam", &clean_pts), ("saturating", &jam_pts)] {
        if let Some(fit) = log2_fit(pts) {
            fits.push_row([
                name.to_string(),
                fmt(fit.slope),
                fmt(fit.intercept),
                format!("{:.4}", fit.r_squared),
            ]);
            result.note(format!(
                "{name}: slots ≈ {} + {}·log2(n), R² = {:.4} — consistent with Θ(log n)",
                fmt(fit.intercept),
                fmt(fit.slope),
                fit.r_squared
            ));
        }
    }
    result.add_table("log-fit", fits);
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
