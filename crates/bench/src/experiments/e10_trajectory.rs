//! E10 — the estimate trajectory: `u` as a biased random walk around
//! `log₂ n` (Section 2.2's analysis picture).
//!
//! Record full traces of LESK's `u` under different adversaries and
//! measure (a) the hitting time of the paper's *regular band*
//! `[u₀ − log₂(2 ln a), u₀ + ½ log₂ a + 1]` and (b) the fraction of
//! post-hit slots spent inside it. The saturating jammer shifts `u`
//! upward inside the band but cannot expel it — that is the mechanism
//! behind Theorem 2.6.

use crate::common::{saturating, ExpContext, ExperimentResult};
use jle_adversary::AdversarySpec;
use jle_analysis::{fmt, Figure, Series, Table};
use jle_engine::{SlotActions, SlotObserver};
use jle_lens::{EngineKind, LensSpec};
use jle_protocols::ProtoParams;
use jle_radio::{CdModel, SlotTruth};

/// The estimate `u` at the start of every slot of a run.
#[derive(Default)]
struct Trajectory(Vec<f64>);

impl SlotObserver for Trajectory {
    fn wants_estimate(&self) -> bool {
        true
    }

    fn on_slot(&mut self, _: u64, _: &SlotTruth, _: &SlotActions, estimate: Option<f64>) {
        self.0.push(estimate.expect("LESK exposes its estimate"));
    }
}

/// The paper's regular band for estimate `u` given `n` and `eps`.
pub fn regular_band(n: u64, eps: f64) -> (f64, f64) {
    let u0 = (n.max(2) as f64).log2();
    let a = 8.0 / eps;
    (u0 - (2.0 * a.ln()).log2(), u0 + 0.5 * a.log2() + 1.0)
}

/// Run E10.
pub fn run(ctx: &ExpContext) -> ExperimentResult {
    let quick = ctx.quick;
    let mut result = ExperimentResult::new(
        "e10",
        "estimate trajectory: u walks into and stays in the regular band",
        "Section 2.2 (biased random walk; regular-slot band of Lemma 2.4)",
    );
    let eps = 0.5;
    let ns: Vec<u64> = if quick { vec![256] } else { vec![256, 16_384] };
    let trials = if quick { 10 } else { 40 };

    let mut table = Table::new([
        "n",
        "adversary",
        "median hit slot (u enters band)",
        "in-band fraction after hit",
        "median u at election",
        "u0 = log2 n",
    ]);
    let mut fig = Figure::new("LESK estimate trajectory u(t) (single runs)", "slot", "estimate u");
    for &n in &ns {
        let (lo, hi) = regular_band(n, eps);
        for (name, adv) in [("none", AdversarySpec::passive()), ("saturating", saturating(eps, 32))]
        {
            let spec = LensSpec::new(
                EngineKind::Cohort,
                ProtoParams::lesk(eps),
                n,
                CdModel::Strong,
                adv,
                10_000_000,
            );
            let rows: Vec<(f64, f64, f64)> = ctx.spec_trials_observed(
                "e10",
                &format!("{name}/n={n}"),
                &spec,
                100_000 + n,
                trials,
                |_| Trajectory::default(),
                |r, Trajectory(estimates)| {
                    assert!(r.leader_elected());
                    let hit = estimates
                        .iter()
                        .position(|&u| u >= lo && u <= hi)
                        .unwrap_or(estimates.len());
                    let after = &estimates[hit..];
                    let in_band = if after.is_empty() {
                        0.0
                    } else {
                        after.iter().filter(|&&u| u >= lo && u <= hi).count() as f64
                            / after.len() as f64
                    };
                    (hit as f64, in_band, *estimates.last().unwrap())
                },
            );
            let hits: Vec<f64> = rows.iter().map(|r| r.0).collect();
            let fracs: Vec<f64> = rows.iter().map(|r| r.1).collect();
            let finals: Vec<f64> = rows.iter().map(|r| r.2).collect();
            table.push_row([
                n.to_string(),
                name.to_string(),
                fmt(jle_analysis::percentile(&hits, 0.5)),
                format!("{:.3}", jle_analysis::percentile(&fracs, 0.5)),
                fmt(jle_analysis::percentile(&finals, 0.5)),
                fmt((n as f64).log2()),
            ]);
            // One representative trajectory per configuration for the
            // figure: the unit's first trial.
            let mut trajectory = Trajectory::default();
            spec.run_observed(100_000 + n, &mut [&mut trajectory]).expect("a valid spec");
            let estimates = trajectory.0;
            let mut series = Series::new(format!("n={n}, {name}"));
            let stride = (estimates.len() / 120).max(1);
            for (i, &u) in estimates.iter().enumerate() {
                if i % stride == 0 || i + 1 == estimates.len() {
                    series.push(i as f64, u);
                }
            }
            fig = fig.with_series(series);
        }
    }
    result.add_table("trajectory summary", table);
    result.add_figure(fig);
    result.note(
        "u reaches the regular band in O(log n / eps) slots and then dwells there almost \
         permanently, jammed or not; the election fires from inside the band — exactly the \
         random-walk picture of Section 2.2"
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

    #[test]
    fn band_contains_u0() {
        let (lo, hi) = super::regular_band(1024, 0.5);
        assert!(lo < 10.0 && 10.0 < hi);
    }
}
