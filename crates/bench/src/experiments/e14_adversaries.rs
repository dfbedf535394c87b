//! E14 — adversary-strategy ablation against LESK.
//!
//! Same `(T, 1−ε)` budget, different spending policies. The model claim
//! (Section 1.1) is robustness against *any* adaptive strategy; this
//! experiment shows which strategies actually hurt and that none escapes
//! the Theorem 2.6 envelope. Expected ordering: protocol-aware adaptive ≥
//! oblivious saturating ≥ shaped oblivious ≥ random ≥ none.

use crate::common::{median, ExpContext, ExperimentResult};
use jle_adversary::{AdversarySpec, JamStrategyKind, Rate};
use jle_analysis::{fmt, Table};
use jle_lens::{EngineKind, LensSpec};
use jle_protocols::{math, ProtoParams};
use jle_radio::CdModel;

/// Run E14.
pub fn run(ctx: &ExpContext) -> ExperimentResult {
    let quick = ctx.quick;
    let mut result = ExperimentResult::new(
        "e14",
        "adversary ablation: where should a (T,1-eps) jammer spend its budget?",
        "Section 1.1 (adaptive adversary model), Theorem 2.6 (robust against all)",
    );
    let n = 1024u64;
    let eps = 0.3;
    let t = 64u64;
    let trials = if quick { 10 } else { 80 };
    let rate = Rate::from_f64(eps);

    // Two starting regimes: cold start (the protocol as written — the
    // u-climb dominates and shrugs off jamming) and warm start (u seeded
    // at log2 n — the in-band regime where jamming actually bites). The
    // adaptive attacker's mirror is seeded to match the regime.
    let log2n = (n as f64).log2();
    let mut warm_rows: Vec<(String, f64)> = Vec::new();
    for (regime, warm) in [("cold start (u=0)", false), ("warm start (u=log2 n)", true)] {
        let strategies: Vec<(&str, JamStrategyKind)> = vec![
            ("none", JamStrategyKind::None),
            ("random p=0.7", JamStrategyKind::Random { prob: 0.7 }),
            ("burst (T on / T off)", JamStrategyKind::Burst { on: t, off: t }),
            ("periodic-front", JamStrategyKind::PeriodicFront),
            ("front-loaded 20k", JamStrategyKind::FrontLoaded { horizon: 20_000 }),
            ("reactive-null", JamStrategyKind::ReactiveNull),
            ("saturating", JamStrategyKind::Saturating),
            (
                "adaptive-estimator",
                JamStrategyKind::AdaptiveEstimator {
                    n,
                    protocol_eps: eps,
                    band: 3.0,
                    initial_u: if warm { log2n } else { 0.0 },
                },
            ),
        ];
        let mut table = Table::new([
            "strategy",
            "median slots",
            "slowdown vs none",
            "jam fraction",
            "within Thm 2.6 envelope",
        ]);
        let mut base = None;
        let envelope = 100.0 * math::lesk_runtime_shape(n, eps, t);
        for (i, (name, kind)) in strategies.iter().enumerate() {
            let u0 = warm.then_some(log2n);
            let spec = LensSpec::new(
                EngineKind::Cohort,
                ProtoParams::Lesk { eps, u0, divisor: None },
                n,
                CdModel::Strong,
                AdversarySpec::new(rate, t, kind.clone()),
                100_000_000,
            );
            let reports: Vec<(f64, f64)> = ctx.spec_trials(
                "e14",
                &format!("{}/{name}", if warm { "warm" } else { "cold" }),
                &spec,
                140_000 + i as u64 * 7 + warm as u64 * 999,
                trials,
                |r| {
                    assert!(r.leader_elected(), "LESK must elect under {name}");
                    (r.slots as f64, r.jam_fraction())
                },
            );
            let slots: Vec<f64> = reports.iter().map(|r| r.0).collect();
            let fracs: Vec<f64> = reports.iter().map(|r| r.1).collect();
            let med = median(&slots);
            if base.is_none() {
                base = Some(med);
            }
            if warm {
                warm_rows.push((name.to_string(), med / base.unwrap()));
            }
            table.push_row([
                name.to_string(),
                fmt(med),
                fmt(med / base.unwrap()),
                format!("{:.3}", median(&fracs)),
                (med <= envelope).to_string(),
            ]);
        }
        result.add_table(&format!("LESK (n={n}, eps={eps}, T={t}) — {regime}"), table);
    }
    let worst = warm_rows.iter().max_by(|a, b| a.1.total_cmp(&b.1)).cloned().unwrap_or_default();
    result.note(
        "cold start: all slowdowns are ≤ ~1.1x — the as-written protocol spends its time \
         climbing u, and jamming only *accelerates* the climb (a jammed slot is a collision, \
         worth +eps/8, exactly like the unjammed collisions that dominate below the band)"
            .to_string(),
    );
    result.note(format!(
        "warm start exposes the real damage: in-band, unjammed slots fire Singles at a \
         constant rate, so a jammer that owns 1−eps = {:.0}% of slots multiplies the wait \
         accordingly; the strongest strategy is '{}' at {:.1}x — and even it stays inside the \
         Theorem 2.6 envelope",
        (1.0 - eps) * 100.0,
        worst.0,
        worst.1
    ));
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
