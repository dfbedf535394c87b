//! The seeded reference sweep: a fixed list of work units whose shape
//! never changes and whose base seeds come from the command-line seed.
//!
//! Four unit families, sized so each carries a comparable share of
//! engine time on a cold run (see `NOTES.md`):
//!
//! * `cohort` — `cohort_election` units (LESK at ε ∈ {0.5, 0.1}, LESU;
//!   n = 2⁴ … 2²⁰; passive and saturating jammers), the E1/E2/E4/E9
//!   shape, run per trial through `build_trial_fn`;
//! * `batch` — `exact_election` units run through `build_batch_fn`, the
//!   sweepd / `--engine batch` path;
//! * `fast_exact` — `exact_election` units run per trial through
//!   `build_trial_fn`, the `--engine fast-exact` path;
//! * `multihop` — E26-shaped cluster elections over
//!   `Topology::dense_linear(8, 6)` and `Topology::core_tail(8, 8)`.
//!
//! The seed only moves base seeds, so every seed asks for the same
//! amount of work while no two seeds share a fingerprint.

use jle_adversary::{AdversarySpec, JamStrategyKind, Rate};
use jle_orchestrator::WorkSpec;
use jle_radio::{CdModel, Topology};
use serde::{Serialize, Value};

/// Experiment id stamped on every generated spec.
pub const EXPERIMENT: &str = "sweepbench";

/// Adversary window `T` of every jammed arm.
const T_WINDOW: u64 = 32;
/// Protocol ε of the multi-hop cluster elections (as in E26).
pub const CLUSTER_EPS: f64 = 0.4;
/// Spread-phase quiet horizon of the cluster elections (as in E26).
pub const CLUSTER_QUIET: u64 = 1_024;

/// Which engine path a unit runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Family {
    Cohort,
    Batch,
    FastExact,
    Multihop,
}

impl Family {
    pub const ALL: [Family; 4] =
        [Family::Cohort, Family::Batch, Family::FastExact, Family::Multihop];

    /// Metric-name fragment (`engine.<label>.busy_s`).
    pub fn label(self) -> &'static str {
        match self {
            Family::Cohort => "cohort",
            Family::Batch => "batch",
            Family::FastExact => "fast_exact",
            Family::Multihop => "multihop",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// One generated unit: the spec handed to the program plus what the
/// benchmark needs to check its output.
#[derive(Debug, Clone)]
pub struct Unit {
    pub family: Family,
    pub spec: WorkSpec,
    pub trials: u64,
    pub max_slots: u64,
    /// Whether the unit's adversary jams; the table step bootstraps a
    /// median CI for jammed units, as E1 does for its jammed arm.
    pub jammed: bool,
}

/// Replicas of every election arm: each replica is its own unit (own
/// point, own base seed), as an experiment's repeated sweep points are.
const REPLICAS: u64 = 4;

// Trial counts and arms are sized so that, on a 2-core box, each family
// takes about a quarter of a cold pass's engine time (see NOTES.md).
// LESK at ε = 0.1 runs fewer trials per unit than ε = 0.5 and LESU so
// that all cohort units cost about the same: the median unit latency
// then sits inside that dense group, not on the edge between two.
const COHORT_TRIALS: u64 = 224;
const COHORT_TRIALS_EPS_0_1: u64 = 96;
const COHORT_MAX_SLOTS: u64 = 200_000;
const BATCH_TRIALS: u64 = 64;
const FAST_TRIALS: u64 = 24;
const EXACT_MAX_SLOTS: u64 = 50_000;
/// The multi-hop arms run once: one trial costs about as much as a
/// hundred cohort trials.
const MULTIHOP_TRIALS: u64 = 3;
const MULTIHOP_HORIZON: u64 = 400_000;

/// Trials of one fresh `exact_election` unit in the sweepd loop.
const FRESH_TRIALS: u64 = 64;
const FRESH_N: u64 = 256;

fn saturating(eps: f64) -> AdversarySpec {
    AdversarySpec::new(Rate::from_f64(eps), T_WINDOW, JamStrategyKind::Saturating)
}

fn election_params(kind: &str, proto: Value, n: u64, adv: &AdversarySpec, max: u64) -> Value {
    serde_json::json!({
        "kind": kind,
        "n": n,
        "cd": CdModel::Strong,
        "adv": adv.to_json_value(),
        "max_slots": max,
        "proto": proto,
    })
}

/// SplitMix64 finalizer of `(seed, index)`, 63 bits: the base seed of
/// unit `index` under `seed`, and the sweepd loop's draws.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z =
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ index.wrapping_add(0x2545_F491_4F6C_DD1D);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    // Keep headroom so `base_seed + trial` never wraps.
    (z ^ (z >> 31)) >> 1
}

/// A multi-hop scenario of the E26 shape.
pub struct Scenario {
    pub name: &'static str,
    pub topology: Topology,
    pub clusters: Vec<u32>,
}

/// The two E26 scenarios, indexed by the `scenario` field of a
/// multi-hop unit's parameter tree.
pub fn scenarios() -> [Scenario; 2] {
    let (dense, dense_clusters) = Topology::dense_linear(8, 6);
    let (core, core_clusters) = Topology::core_tail(8, 8);
    [
        Scenario { name: "dense-linear", topology: dense, clusters: dense_clusters },
        Scenario { name: "core-tail", topology: core, clusters: core_clusters },
    ]
}

fn cluster_params(scenario: &Scenario, cd: CdModel, adv: &AdversarySpec) -> Value {
    serde_json::json!({
        "kind": "cluster_election",
        "topology": scenario.topology.descriptor(),
        "n": scenario.clusters.len(),
        "clusters": scenario.clusters.iter().copied().max().map_or(0, |m| m + 1),
        "cd": format!("{cd:?}"),
        "adv": adv.to_json_value(),
        "horizon": MULTIHOP_HORIZON,
        "proto": { "proto": "cluster-election/lesk", "eps": CLUSTER_EPS, "quiet": CLUSTER_QUIET },
    })
}

/// One arm before replication.
struct Arm {
    family: Family,
    point: String,
    params: Value,
    trials: u64,
    max_slots: u64,
    replicas: u64,
    jammed: bool,
}

fn arms() -> Vec<Arm> {
    let mut out = Vec::new();
    let lesk = |eps: f64| serde_json::json!({"proto": "lesk", "eps": eps});
    let lesu = || serde_json::json!({"proto": "lesu"});
    let advs = |eps: f64| [("passive", AdversarySpec::passive()), ("sat", saturating(eps))];

    let cohort_protos = [
        ("lesk0.5", lesk(0.5), 0.5, COHORT_TRIALS),
        ("lesk0.1", lesk(0.1), 0.1, COHORT_TRIALS_EPS_0_1),
        ("lesu", lesu(), 0.5, COHORT_TRIALS),
    ];
    for (name, proto, eps, trials) in &cohort_protos {
        for log_n in [4u32, 8, 12, 16, 20] {
            for (adv_name, adv) in advs(*eps) {
                out.push(Arm {
                    family: Family::Cohort,
                    point: format!("cohort/{name}/{adv_name}/n=2^{log_n}"),
                    params: election_params(
                        "cohort_election",
                        proto.clone(),
                        1 << log_n,
                        &adv,
                        COHORT_MAX_SLOTS,
                    ),
                    trials: *trials,
                    max_slots: COHORT_MAX_SLOTS,
                    replicas: REPLICAS,
                    jammed: !matches!(adv.kind, JamStrategyKind::None),
                });
            }
        }
    }

    let exact_protos = [("lesk0.5", lesk(0.5), 0.5), ("lesu", lesu(), 0.5)];
    for (family, ns, trials) in [
        (Family::Batch, &[64u64, 256, 1024][..], BATCH_TRIALS),
        (Family::FastExact, &[16, 64][..], FAST_TRIALS),
    ] {
        for (name, proto, eps) in &exact_protos {
            for &n in ns {
                for (adv_name, adv) in advs(*eps) {
                    out.push(Arm {
                        family,
                        point: format!("{}/{name}/{adv_name}/n={n}", family.label()),
                        params: election_params(
                            "exact_election",
                            proto.clone(),
                            n,
                            &adv,
                            EXACT_MAX_SLOTS,
                        ),
                        trials,
                        max_slots: EXACT_MAX_SLOTS,
                        replicas: REPLICAS,
                        jammed: !matches!(adv.kind, JamStrategyKind::None),
                    });
                }
            }
        }
    }

    for scenario in &scenarios() {
        for cd in [CdModel::Strong, CdModel::Weak] {
            for (adv_name, adv) in [("none", AdversarySpec::passive()), ("sat0.6", saturating(0.6))]
            {
                out.push(Arm {
                    family: Family::Multihop,
                    point: format!("multihop/{}/{cd:?}/{adv_name}", scenario.name),
                    params: cluster_params(scenario, cd, &adv),
                    trials: MULTIHOP_TRIALS,
                    max_slots: MULTIHOP_HORIZON,
                    replicas: 1,
                    jammed: !matches!(adv.kind, JamStrategyKind::None),
                });
            }
        }
    }
    out
}

/// The reference sweep under `seed`: every arm, replicated.
pub fn reference_sweep(seed: u64) -> Vec<Unit> {
    let mut units = Vec::new();
    let arms = arms();
    for replica in 0..REPLICAS {
        for arm in arms.iter().filter(|a| replica < a.replicas) {
            let index = units.len() as u64;
            let point = format!("{}/r{replica}", arm.point);
            let spec = WorkSpec::new(EXPERIMENT, point, arm.params.clone(), mix(seed, index));
            units.push(Unit {
                jammed: arm.jammed,
                family: arm.family,
                spec,
                trials: arm.trials,
                max_slots: arm.max_slots,
            });
        }
    }
    units
}

/// `count` fresh `exact_election` units for the sweepd loop: one arm,
/// distinct base seeds, disjoint from [`reference_sweep`] under the
/// same seed.
pub fn fresh_units(seed: u64, count: usize) -> Vec<Unit> {
    let params = election_params(
        "exact_election",
        serde_json::json!({"proto": "lesk", "eps": 0.5}),
        FRESH_N,
        &saturating(0.5),
        EXACT_MAX_SLOTS,
    );
    (0..count as u64)
        .map(|i| Unit {
            family: Family::Batch,
            spec: WorkSpec::new(
                EXPERIMENT,
                format!("fresh/lesk0.5/sat/n={FRESH_N}/{i}"),
                params.clone(),
                mix(seed, (1 << 40) + i),
            ),
            trials: FRESH_TRIALS,
            max_slots: EXACT_MAX_SLOTS,
            jammed: true,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn fingerprints(units: &[Unit]) -> Vec<String> {
        units.iter().map(|u| crate::exec::cache_key(&u.spec).hex().to_string()).collect()
    }

    #[test]
    fn same_seed_gives_identical_specs_and_fingerprints() {
        let (a, b) = (reference_sweep(7), reference_sweep(7));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.spec, y.spec);
            assert_eq!((x.family, x.trials, x.max_slots), (y.family, y.trials, y.max_slots));
        }
        assert_eq!(fingerprints(&a), fingerprints(&b));
    }

    #[test]
    fn different_seeds_give_disjoint_fingerprints() {
        let mut seen = HashSet::new();
        for seed in 0..6u64 {
            let mut units = reference_sweep(seed);
            units.extend(fresh_units(seed, 64));
            for fp in fingerprints(&units) {
                assert!(seen.insert(fp), "fingerprint shared between seeds or units (seed {seed})");
            }
        }
    }

    #[test]
    fn the_shape_does_not_depend_on_the_seed() {
        let (a, b) = (reference_sweep(1), reference_sweep(2));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((&x.spec.point, &x.spec.params), (&y.spec.point, &y.spec.params));
            assert_ne!(x.spec.base_seed, y.spec.base_seed);
        }
    }

    #[test]
    fn every_family_is_present_and_supported_where_sweepd_serves_it() {
        let units = reference_sweep(3);
        for family in Family::ALL {
            assert!(units.iter().any(|u| u.family == family), "{family:?} missing");
        }
        for u in &units {
            let supported = jle_sweepd::is_supported(&u.spec.params);
            assert_eq!(supported, u.family != Family::Multihop, "{}", u.spec.point);
        }
    }
}
