//! E26 — multi-hop cluster elections: topology × jamming sweep.
//!
//! The paper's model is a single shared channel. E26 runs the same
//! election machinery over interference *graphs*
//! ([`jle_radio::Topology`]): each node perceives its own closed
//! neighborhood's channel, clusters elect leaders concurrently with
//! [`ClusterElection`] (LESK per cluster), and an inter-cluster
//! notification/merge layer floods claimed-leader ids until the whole
//! network agrees on one network-wide leader — the minimum claimant.
//!
//! Two scenario families from the topology layer:
//!
//! * **dense-linear** (`dense_linear(k, m)`): a chain of `k` clique
//!   clusters of `m` stations bridged by gateway edges — concurrent
//!   elections with pairwise gateway interference and a `k`-hop flood
//!   diameter.
//! * **core-tail** (`core_tail(c, t)`): a `c`-clique cluster with a
//!   `t`-node path hanging off it, each tail node a singleton cluster —
//!   a dense election next to a sparse flooding spine.
//!
//! Claims measured: (1) *convergence* — every arm (topology × CD model ×
//! jamming) ends with all clusters resolved and every station agreeing
//! on the same network leader, who is the only station terminating with
//! `Status::Leader`; (2) *jamming pricing* — convergence slots grow as ε
//! shrinks, mirroring the single-channel Theorem 2.6 shape; (3)
//! *interference accounting* — cross-cluster interference events (an
//! unjammed local collision with at most one own-cluster transmitter)
//! track gateway count, quantifying what concurrent neighbors cost.
//!
//! The topology descriptor string is part of every arm's parameter tree,
//! so the orchestrator's content-addressed cache can never serve a
//! result across topologies.

use crate::common::{median, saturating, ExpContext, ExperimentResult, Unobserved};
use jle_adversary::AdversarySpec;
use jle_analysis::{fmt, Figure, Series, Table};
use jle_engine::{RunReport, TrialOutcome};
use jle_lens::{EngineKind, LensSpec, Stop};
use jle_protocols::ProtoParams;
use jle_radio::{CdModel, Topology};

const T_WINDOW: u64 = 32;
/// Spread-phase quiet horizon: must exceed the announce flood time
/// across the widest scenario (the full dense-linear chain), see
/// `ClusterElection::with_quiet_target`.
const QUIET: u64 = 1_024;

/// The scenarios' topology descriptors ([`Topology::parse`]), each with
/// natural clusters.
fn scenarios(quick: bool) -> [&'static str; 2] {
    if quick {
        ["dense-linear:3,4", "core-tail:4,3"]
    } else {
        ["dense-linear:8,6", "core-tail:8,8"]
    }
}

/// Measured statistics of one arm.
struct ArmStats {
    /// Fraction of runs ending with every cluster resolved, network-wide
    /// agreement, and exactly the network leader terminating as Leader.
    converged: f64,
    med_converged_at: f64,
    med_last_cluster: f64,
    mean_cross_cluster: f64,
    panics: u64,
}

/// Run one arm's trials, each caught so a panicking trial is counted,
/// not fatal.
fn run_arm(
    ctx: &ExpContext,
    spec: &LensSpec,
    trials: u64,
    base_seed: u64,
    point: &str,
) -> ArmStats {
    let outcomes = ctx.spec_trials_caught(
        "e26",
        point,
        spec,
        base_seed,
        trials,
        |_| Unobserved,
        |run, _| run.report,
    );
    let panics = outcomes.iter().filter(|o| o.is_panicked()).count() as u64;
    let reports: Vec<&RunReport> = outcomes.iter().filter_map(TrialOutcome::as_ok).collect();
    let done = reports.len().max(1) as f64;
    let is_converged = |r: &RunReport| {
        r.multihop.as_ref().is_some_and(|mh| {
            mh.all_clusters_resolved()
                && mh.converged_at.is_some()
                && mh.network_leader.is_some()
                && r.leaders == mh.network_leader.into_iter().collect::<Vec<_>>()
        })
    };
    let collect = |f: &dyn Fn(&RunReport) -> Option<u64>| {
        reports.iter().filter_map(|r| f(r)).map(|v| v as f64).collect::<Vec<f64>>()
    };
    let conv = collect(&|r| r.multihop.as_ref().and_then(|m| m.converged_at));
    let last = collect(&|r| r.multihop.as_ref().and_then(|m| m.last_cluster_resolution()));
    ArmStats {
        converged: reports.iter().filter(|r| is_converged(r)).count() as f64 / done,
        med_converged_at: if conv.is_empty() { f64::NAN } else { median(&conv) },
        med_last_cluster: if last.is_empty() { f64::NAN } else { median(&last) },
        mean_cross_cluster: reports
            .iter()
            .map(|r| r.multihop.as_ref().map_or(0, |m| m.cross_cluster_interference) as f64)
            .sum::<f64>()
            / done,
        panics,
    }
}

/// Run E26.
pub fn run(ctx: &ExpContext) -> ExperimentResult {
    let quick = ctx.quick;
    let mut result = ExperimentResult::new(
        "e26",
        "multi-hop cluster elections: topology x jamming sweep",
        "beyond the model (single shared channel generalized to interference graphs)",
    );
    let trials = if quick { 8 } else { 40 };
    let horizon: u64 = if quick { 100_000 } else { 400_000 };
    let eps = 0.4;

    // Adversary sweep: none, and saturating jammers at two ε levels. The
    // jam flag is global (every neighborhood is hit at once), the
    // worst case for concurrent elections.
    let advs: Vec<(&str, AdversarySpec)> = if quick {
        vec![("none", AdversarySpec::passive()), ("sat eps=0.4", saturating(0.4, T_WINDOW))]
    } else {
        vec![
            ("none", AdversarySpec::passive()),
            ("sat eps=0.6", saturating(0.6, T_WINDOW)),
            ("sat eps=0.4", saturating(0.4, T_WINDOW)),
        ]
    };
    let cds = [CdModel::Strong, CdModel::Weak];

    let mut all_converged = true;
    let mut fig = Figure::new(
        "network convergence vs jamming",
        "adversary arm index (0 = none, rising jam rate)",
        "median slots to network-wide agreement",
    );
    for (si, topology) in scenarios(quick).into_iter().enumerate() {
        let name = topology.split(':').next().unwrap_or(topology);
        let (topo, clusters) = Topology::parse(topology).expect("a valid descriptor");
        let n = clusters.map_or(0, |c| c.len() as u64);
        let mut table = Table::new([
            "cd",
            "adversary",
            "converged",
            "median convergence slot",
            "median last cluster resolution",
            "cross-cluster events/run",
            "panicked trials",
        ]);
        for (ci, &cd) in cds.iter().enumerate() {
            let mut series = Series::new(format!("{name} ({cd:?})"));
            for (ai, (adv_name, adv)) in advs.iter().enumerate() {
                // The descriptor is part of the spec, so it salts the
                // unit's key: cached arms never alias across graphs.
                let proto = ProtoParams::Cluster { eps, quiet: Some(QUIET) };
                let mut spec =
                    LensSpec::new(EngineKind::Multihop, proto, n, cd, adv.clone(), horizon);
                spec.stop = Stop::AllTerminated;
                spec.topology = Some(topology.into());
                let a = run_arm(
                    ctx,
                    &spec,
                    trials,
                    260_000 + (si * 100 + ci * 10 + ai) as u64 * 101,
                    &format!("{name}/{cd:?}/{adv_name}"),
                );
                all_converged &= a.converged == 1.0 && a.panics == 0;
                series.push(ai as f64, a.med_converged_at);
                table.push_row([
                    format!("{cd:?}"),
                    adv_name.to_string(),
                    format!("{:.2}", a.converged),
                    fmt(a.med_converged_at),
                    fmt(a.med_last_cluster),
                    format!("{:.0}", a.mean_cross_cluster),
                    format!("{}", a.panics),
                ]);
            }
            fig = fig.with_series(series);
        }
        result.add_table(
            &format!(
                "{} — {} (n={}, eps={eps}, quiet horizon {QUIET}, \
                 stop: all stations terminated)",
                name,
                topo.descriptor(),
                n,
            ),
            table,
        );
    }
    result.add_figure(fig);
    result.note(format!(
        "single-network-leader convergence (every run: all clusters resolved, every \
         station agreeing on the minimum claimant, exactly one Leader status): {}",
        if all_converged { "HELD" } else { "VIOLATED" }
    ));
    result.note(
        "the topology descriptor is part of each arm's cache key, so cached sweeps \
         never alias across interference graphs"
            .to_string(),
    );
    result.note(
        "cross-cluster interference counts unjammed local collisions with at most one \
         own-cluster transmitter: the slots a cluster would have resolved sooner \
         without its neighbors"
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
        assert_eq!(r.figures.len(), 1);
        assert!(
            r.notes.iter().any(|n| n.contains("HELD")),
            "multi-hop convergence must hold: {:?}",
            r.notes
        );
    }
}
