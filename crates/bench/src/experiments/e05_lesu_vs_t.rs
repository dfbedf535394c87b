//! E5 — LESU under very large `T` (Theorem 2.9 case 2: `O(T loglog T)`)
//! versus the prior art's `O(T log T)` (ARSS'14).
//!
//! Constant hidden ε = 1/2, `n = 256`, `T ≫ log n`, burst jammer that
//! blacks out `T`-long stretches. The paper's improvement over [3] in
//! this regime is the `log T → loglog T` factor; we report
//! `slots / T` against both `loglog T` and `log T` growth curves.

use crate::common::{median, ExpContext, ExperimentResult};
use jle_adversary::{AdversarySpec, JamStrategyKind, Rate};
use jle_analysis::{fmt, Table};
use jle_protocols::{ElectionParams, ProtoParams};
use jle_radio::CdModel;

/// Run E5.
pub fn run(ctx: &ExpContext) -> ExperimentResult {
    let quick = ctx.quick;
    let mut result = ExperimentResult::new(
        "e5",
        "LESU vs large T; loglog T overhead vs the O(T log T) prior art",
        "Theorem 2.9 case 2 + Section 1.3 (improves O(T log T) of [3] to O(T loglog T))",
    );
    let n = 256u64;
    let eps = 0.5;
    let t_grid: Vec<u64> = if quick {
        vec![1 << 10, 1 << 13]
    } else {
        vec![1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18]
    };
    let trials = if quick { 8 } else { 25 };

    let mut table =
        Table::new(["T", "median slots", "slots/T", "loglog T", "log T", "(slots/T)/loglog T"]);
    let mut normalized = Vec::new();
    for (i, &t) in t_grid.iter().enumerate() {
        let adv =
            AdversarySpec::new(Rate::from_f64(eps), t, JamStrategyKind::Burst { on: t, off: t });
        let unit =
            ElectionParams::cohort(ProtoParams::Lesu, n, CdModel::Strong, adv, 2_000_000_000);
        let (slots, to) =
            ctx.election_slots("e5", &format!("burst/T={t}"), &unit, trials, 50_000 + i as u64);
        assert_eq!(to, 0, "no timeouts expected in E5 at T={t}");
        let med = median(&slots);
        let per_t = med / t as f64;
        let loglog = (t as f64).log2().log2();
        let log = (t as f64).log2();
        normalized.push(per_t / loglog);
        table.push_row([
            t.to_string(),
            fmt(med),
            fmt(per_t),
            fmt(loglog),
            fmt(log),
            fmt(per_t / loglog),
        ]);
    }
    result.add_table("large-T scaling", table);

    let spread = normalized.iter().cloned().fold(f64::MIN, f64::max)
        / normalized.iter().cloned().fold(f64::MAX, f64::min);
    result.note(format!(
        "(slots/T)/loglog T varies only {spread:.2}x across the sweep — consistent with \
         O(T loglog T); an O(T log T) algorithm would show this ratio growing by \
         log(T_max)/log(T_min) ≈ {:.1}x",
        (*t_grid.last().unwrap() as f64).log2() / (t_grid[0] as f64).log2()
    ));
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
