//! E9 — "with high probability" verification.
//!
//! Theorem 2.6 claims success probability ≥ 1 − 1/n^β within
//! `t = O(max{T, log n/(ε³ log 1/ε)})` slots. For a *fixed* budget
//! multiplier `K` the failure rate must decay with `n` (the theorem's
//! constant is uniform in `n`). We sweep `K` from razor-thin to
//! comfortable and report the full failure matrix; the tight budgets
//! show a genuinely decaying curve, the comfortable ones sit at zero.

use crate::common::{saturating, ExpContext, ExperimentResult};
use jle_analysis::{Figure, Series, Table};
use jle_lens::{EngineKind, LensSpec};
use jle_protocols::{math, ProtoParams};
use jle_radio::CdModel;

/// Budget multipliers swept (times the Theorem 2.6 shape).
pub const BUDGET_KS: [f64; 4] = [2.0, 2.5, 3.0, 5.0];

/// Monte-Carlo allowance of the "non-increasing in n" verdict: a step up
/// in n may raise a failure rate by at most this much.
const RISE_TOLERANCE: f64 = 0.01;

/// Run E9.
pub fn run(ctx: &ExpContext) -> ExperimentResult {
    let quick = ctx.quick;
    let mut result = ExperimentResult::new(
        "e9",
        "failure probability vs n across time budgets",
        "Theorem 2.6: success with probability >= 1 - 1/n^beta",
    );
    let eps = 0.5;
    let t_window = 32u64;
    let ns: Vec<u64> = if quick { vec![64, 256] } else { vec![64, 256, 1024, 4096, 16_384] };
    let trials: u64 = if quick { 400 } else { 4000 };

    let mut table = Table::new([
        "n",
        "shape(n)",
        "K=2.0 fail rate",
        "K=2.5 fail rate",
        "K=3.0 fail rate",
        "K=5.0 fail rate",
        "1/n",
    ]);
    // failure_rates[ki] holds the per-n curve for budget K = BUDGET_KS[ki].
    let mut failure_rates: Vec<Vec<f64>> = vec![Vec::new(); BUDGET_KS.len()];
    for (i, &n) in ns.iter().enumerate() {
        let shape = math::lesk_runtime_shape(n, eps, t_window);
        let adv = saturating(eps, t_window);
        let mut cells = vec![n.to_string(), jle_analysis::fmt(shape)];
        for (ki, &k) in BUDGET_KS.iter().enumerate() {
            let budget = (k * shape).ceil() as u64;
            let spec = LensSpec::new(
                EngineKind::Cohort,
                ProtoParams::lesk(eps),
                n,
                CdModel::Strong,
                adv.clone(),
                budget,
            );
            let seed = 90_000 + i as u64 * 17 + ki as u64 * 7919;
            let failures: u64 = ctx
                .spec_trials("e9", &format!("n={n}/K={k}"), &spec, seed, trials, |r| {
                    r.timed_out as u64
                })
                .into_iter()
                .sum();
            let rate = failures as f64 / trials as f64;
            failure_rates[ki].push(rate);
            cells.push(format!("{rate:.4}"));
        }
        cells.push(format!("{:.5}", 1.0 / n as f64));
        table.push_row(cells);
    }
    result.add_table(
        &format!("failure rate within K·shape(n), {trials} trials/cell (saturating jammer)"),
        table,
    );
    let mut fig =
        Figure::new("LESK failure rate vs n across time budgets", "n (log2 axis)", "failure rate")
            .log_x();
    for (ki, &k) in BUDGET_KS.iter().enumerate() {
        let mut s = Series::new(format!("K = {k}"));
        for (&n, &rate) in ns.iter().zip(&failure_rates[ki]) {
            s.push(n as f64, rate);
        }
        fig = fig.with_series(s);
    }
    let mut envelope = Series::new("1/n");
    for &n in &ns {
        envelope.push(n as f64, 1.0 / n as f64);
    }
    result.add_figure(fig.with_series(envelope));

    let rises = rises(&ns, &failure_rates);
    let verdict = if rises.is_empty() {
        "for every budget multiplier the failure rate is non-increasing in n — a fixed \
         multiple of the Theorem 2.6 shape suffices w.h.p. uniformly in n"
            .to_string()
    } else {
        format!("the failure rate is NOT non-increasing in n: {}", rises.join("; "))
    };
    let k5 = failure_rates[BUDGET_KS.len() - 1].iter().copied().fold(0.0, f64::max);
    let k5 = if k5 == 0.0 {
        format!("at K = 5 failures vanish entirely at {trials} trials per cell")
    } else {
        format!("at K = 5 the failure rate peaks at {k5:.4}")
    };
    result.note(format!(
        "{verdict} (each step up in n may raise a rate by at most {RISE_TOLERANCE}); {k5}"
    ));
    result
}

/// The decay claim, checked: every step up in n on which a `curves[k]`
/// failure rate (budget `BUDGET_KS[k]`) rises by more than
/// [`RISE_TOLERANCE`], described.
fn rises(ns: &[u64], curves: &[Vec<f64>]) -> Vec<String> {
    BUDGET_KS
        .iter()
        .zip(curves)
        .flat_map(|(k, curve)| {
            ns.windows(2).zip(curve.windows(2)).filter(|(_, r)| r[1] > r[0] + RISE_TOLERANCE).map(
                move |(n, r)| {
                    format!(
                        "K = {k:.1} rises {:.4} -> {:.4} from n = {} to {}",
                        r[0], r[1], n[0], n[1]
                    )
                },
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_step_in_n_is_checked() {
        let ns = [64, 256, 1024, 4096];
        // A rise between the middle points, with the last rate below the
        // first: comparing only the end points would pass this curve.
        let curves =
            vec![vec![0.0735, 0.0870, 0.0840, 0.0700], vec![0.0118, 0.0047, 0.0030, 0.0032]];
        assert_eq!(
            super::rises(&ns, &curves),
            ["K = 2.0 rises 0.0735 -> 0.0870 from n = 64 to 256"]
        );
        let flat = vec![vec![0.05, 0.059, 0.06, 0.069]];
        assert!(super::rises(&ns, &flat).is_empty(), "rises within the tolerance pass");
    }

    #[test]
    fn quick_run_is_consistent() {
        let r = super::run(&crate::common::ExpContext::ephemeral(true));
        assert_eq!(r.tables.len(), 1);
        assert!(!r.notes.is_empty());
    }
}
