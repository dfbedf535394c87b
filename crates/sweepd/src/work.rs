//! Server-side work-kind registry: parameter tree → trial closure.
//!
//! A submitted [`jle_orchestrator::WorkSpec`] carries only data; the
//! closure that actually runs a trial must be reconstructed here from
//! `spec.params`. The contract with the cache is absolute — the
//! reconstructed closure must be **bit-identical in behaviour** to the
//! one the bench CLIs run locally for the same tree, because both sides
//! address the same [`jle_orchestrator::ResultStore`] entries.
//!
//! That is why parsing is deliberately strict: a parameter tree with an
//! unknown key (e.g. an experiment's private warm-start knob riding in
//! `proto`) is rejected as [`WorkError::Unsupported`] instead of being
//! ignored. Ignoring it would compute *something* under a fingerprint
//! that promises something else — silent cache poisoning. Clients fall
//! back to local computation for unsupported trees.

use jle_adversary::AdversarySpec;
use jle_engine::{
    run_batch_uniform, run_cohort, run_fast_exact, PerStation, Protocol, RunReport, SimConfig,
};
use jle_protocols::{BackoffProtocol, LeskProtocol, LesuProtocol, WillardProtocol};
use jle_radio::CdModel;
use serde::{Deserialize, Value};

/// A reconstructed per-trial closure: seed → report.
pub type TrialFn = Box<dyn Fn(u64) -> RunReport + Send + Sync>;

/// A reconstructed batch closure: seed slice → one report per seed, in
/// seed order, each bit-identical to what the [`TrialFn`] for the same
/// tree returns for that seed — the contract that lets batch-computed
/// chunks share cache entries with per-trial ones.
pub type BatchFn = Box<dyn Fn(&[u64]) -> Vec<RunReport> + Send + Sync>;

/// Why a parameter tree could not be turned into runnable work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkError {
    /// The tree is well-formed but names work this server cannot
    /// faithfully reconstruct (unknown kind, unknown protocol, or an
    /// unrecognized key that may change behaviour). Clients should
    /// compute locally.
    Unsupported(String),
    /// The tree is malformed (missing/ill-typed required fields).
    Invalid(String),
}

impl std::fmt::Display for WorkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkError::Unsupported(msg) => write!(f, "unsupported work: {msg}"),
            WorkError::Invalid(msg) => write!(f, "invalid work: {msg}"),
        }
    }
}

impl std::error::Error for WorkError {}

fn keys_of(v: &Value) -> Vec<&str> {
    v.as_map().map(|m| m.iter().map(|(k, _)| k.as_str()).collect()).unwrap_or_default()
}

fn check_keys(v: &Value, what: &str, allowed: &[&str]) -> Result<(), WorkError> {
    for k in keys_of(v) {
        if !allowed.contains(&k) {
            return Err(WorkError::Unsupported(format!(
                "{what}: unrecognized key `{k}` (server cannot guarantee faithful reconstruction)"
            )));
        }
    }
    Ok(())
}

fn req_u64(v: &Value, k: &str, what: &str) -> Result<u64, WorkError> {
    v.get(k)
        .and_then(Value::as_u64)
        .ok_or_else(|| WorkError::Invalid(format!("{what}: missing u64 `{k}`")))
}

fn req_f64(v: &Value, k: &str, what: &str) -> Result<f64, WorkError> {
    v.get(k)
        .and_then(Value::as_f64)
        .ok_or_else(|| WorkError::Invalid(format!("{what}: missing f64 `{k}`")))
}

/// The uniform election protocols both election kinds share; the small
/// closed set keeps reconstruction honest (anything else is
/// [`WorkError::Unsupported`]).
#[derive(Debug, Clone, Copy)]
enum ElectionProto {
    Lesk(f64),
    Lesu,
    Backoff,
    Willard,
}

/// The common election parameter tree: fields `n`, `cd`, `adv`,
/// `max_slots`, and a `proto` subtree naming one uniform protocol.
fn parse_election(
    params: &Value,
    what: &str,
) -> Result<(SimConfig, AdversarySpec, ElectionProto), WorkError> {
    check_keys(params, what, &["kind", "n", "cd", "adv", "max_slots", "proto"])?;

    let n = req_u64(params, "n", what)?;
    let max_slots = req_u64(params, "max_slots", what)?;
    let cd_value =
        params.get("cd").ok_or_else(|| WorkError::Invalid(format!("{what}: missing `cd`")))?;
    let cd = CdModel::from_json_value(cd_value)
        .map_err(|e| WorkError::Invalid(format!("{what}: bad `cd`: {e}")))?;
    let adv_value =
        params.get("adv").ok_or_else(|| WorkError::Invalid(format!("{what}: missing `adv`")))?;
    let adv = AdversarySpec::from_json_value(adv_value)
        .map_err(|e| WorkError::Invalid(format!("{what}: bad `adv`: {e}")))?;
    let proto = params
        .get("proto")
        .ok_or_else(|| WorkError::Invalid(format!("{what}: missing `proto`")))?;
    let name = proto
        .get("proto")
        .and_then(Value::as_str)
        .ok_or_else(|| WorkError::Invalid("proto: missing string `proto`".into()))?;
    let proto = match name {
        "lesk" => {
            check_keys(proto, "proto:lesk", &["proto", "eps"])?;
            ElectionProto::Lesk(req_f64(proto, "eps", "proto:lesk")?)
        }
        "lesu" => {
            check_keys(proto, "proto:lesu", &["proto"])?;
            ElectionProto::Lesu
        }
        "backoff" => {
            check_keys(proto, "proto:backoff", &["proto"])?;
            ElectionProto::Backoff
        }
        "willard" => {
            check_keys(proto, "proto:willard", &["proto"])?;
            ElectionProto::Willard
        }
        other => {
            return Err(WorkError::Unsupported(format!("unknown election protocol `{other}`")))
        }
    };
    Ok((SimConfig::new(n, cd).with_max_slots(max_slots), adv, proto))
}

fn station_factory(proto: ElectionProto) -> impl Fn(u64) -> Box<dyn Protocol> {
    move |_| match proto {
        ElectionProto::Lesk(eps) => Box::new(PerStation::new(LeskProtocol::new(eps))),
        ElectionProto::Lesu => Box::new(PerStation::new(LesuProtocol::new())),
        ElectionProto::Backoff => Box::new(PerStation::new(BackoffProtocol::new())),
        ElectionProto::Willard => Box::new(PerStation::new(WillardProtocol::new())),
    }
}

/// Turn a submitted parameter tree into a runnable trial closure.
///
/// Supported kinds, both over the election parameter tree (`n`, `cd`,
/// `adv`, `max_slots`, `proto`):
///
/// * `kind == "cohort_election"` — the O(1)-per-slot cohort engine, as
///   produced by `jle_bench::election_params`.
/// * `kind == "exact_election"` — the same protocol run per-station
///   through the fast-exact engine ([`run_fast_exact`] over
///   [`PerStation`]); eligible for batched execution via
///   [`build_batch_fn`].
///
/// The `proto` subtree names one of the uniform protocols:
///
/// * `{"proto": "lesk", "eps": ε}` — [`LeskProtocol::new`]
/// * `{"proto": "lesu"}` — [`LesuProtocol::new`]
/// * `{"proto": "backoff"}` — [`BackoffProtocol::new`]
/// * `{"proto": "willard"}` — [`WillardProtocol::new`]
///
/// Any extra key anywhere in the tree is [`WorkError::Unsupported`].
pub fn build_trial_fn(params: &Value) -> Result<TrialFn, WorkError> {
    let kind = params
        .get("kind")
        .and_then(Value::as_str)
        .ok_or_else(|| WorkError::Invalid("params: missing string `kind`".into()))?;
    match kind {
        "cohort_election" => {
            let (config, adv, proto) = parse_election(params, "cohort_election")?;
            Ok(match proto {
                ElectionProto::Lesk(eps) => Box::new(move |seed| {
                    run_cohort(&config.clone().with_seed(seed), &adv, || LeskProtocol::new(eps))
                }),
                ElectionProto::Lesu => Box::new(move |seed| {
                    run_cohort(&config.clone().with_seed(seed), &adv, LesuProtocol::new)
                }),
                ElectionProto::Backoff => Box::new(move |seed| {
                    run_cohort(&config.clone().with_seed(seed), &adv, BackoffProtocol::new)
                }),
                ElectionProto::Willard => Box::new(move |seed| {
                    run_cohort(&config.clone().with_seed(seed), &adv, WillardProtocol::new)
                }),
            })
        }
        "exact_election" => {
            let (config, adv, proto) = parse_election(params, "exact_election")?;
            Ok(Box::new(move |seed| {
                run_fast_exact(&config.clone().with_seed(seed), &adv, station_factory(proto))
            }))
        }
        other => Err(WorkError::Unsupported(format!("unknown work kind `{other}`"))),
    }
}

/// Turn a parameter tree into a batch closure, when the kind has a
/// batch backend whose per-trial output is bit-identical to its
/// [`TrialFn`].
///
/// Only `kind == "exact_election"` qualifies today: its per-trial path is
/// the fast-exact engine, and `jle_engine::run_batch_uniform` is
/// bit-identical to it, so batched chunks and per-trial chunks address
/// the same cache entries. `cohort_election` is deliberately refused —
/// cohort bits are *not* fast-exact bits, and routing them through the
/// batch backend would cache different results under the same
/// fingerprint (silent poisoning).
pub fn build_batch_fn(params: &Value) -> Result<BatchFn, WorkError> {
    let kind = params
        .get("kind")
        .and_then(Value::as_str)
        .ok_or_else(|| WorkError::Invalid("params: missing string `kind`".into()))?;
    match kind {
        "exact_election" => {
            let (config, adv, proto) = parse_election(params, "exact_election")?;
            Ok(match proto {
                ElectionProto::Lesk(eps) => Box::new(move |seeds: &[u64]| {
                    run_batch_uniform(&config, &adv, seeds, || LeskProtocol::new(eps))
                }),
                ElectionProto::Lesu => Box::new(move |seeds: &[u64]| {
                    run_batch_uniform(&config, &adv, seeds, LesuProtocol::new)
                }),
                ElectionProto::Backoff => Box::new(move |seeds: &[u64]| {
                    run_batch_uniform(&config, &adv, seeds, BackoffProtocol::new)
                }),
                ElectionProto::Willard => Box::new(move |seeds: &[u64]| {
                    run_batch_uniform(&config, &adv, seeds, WillardProtocol::new)
                }),
            })
        }
        "cohort_election" => Err(WorkError::Unsupported(
            "cohort_election has no batch backend: cohort bits are not fast-exact bits, and \
             aliasing them would poison the shared cache"
                .into(),
        )),
        other => Err(WorkError::Unsupported(format!("unknown work kind `{other}`"))),
    }
}

/// The orchestrator engine-mode tag under which a tree's results are
/// cached. `exact_election` results live under the `fast-exact` salt —
/// whether computed per-trial or batched, the bits are the fast-exact
/// engine's, so both routes share warm caches with fast-exact sweeps.
/// Everything else stays on the default salt, leaving existing cohort
/// caches untouched.
pub fn engine_mode_of(params: &Value) -> &'static str {
    match params.get("kind").and_then(Value::as_str) {
        Some("exact_election") => "fast-exact",
        _ => "exact",
    }
}

/// Whether a parameter tree names work this server type can execute —
/// the client-side routing predicate behind the bench CLIs' `--server`
/// mode (supported trees go to the service, the rest run locally).
pub fn is_supported(params: &Value) -> bool {
    build_trial_fn(params).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Serialize;
    use serde_json::json;

    fn params(proto: Value) -> Value {
        json!({
            "kind": "cohort_election",
            "n": 32u64,
            "cd": CdModel::Strong.to_json_value(),
            "adv": AdversarySpec::passive().to_json_value(),
            "max_slots": 100_000u64,
            "proto": proto,
        })
    }

    #[test]
    fn reconstructed_closure_matches_direct_run_bit_for_bit() {
        let f = build_trial_fn(&params(json!({"proto": "lesk", "eps": 0.5f64}))).unwrap();
        for seed in [1u64, 7, 99] {
            let direct = run_cohort(
                &SimConfig::new(32, CdModel::Strong).with_seed(seed).with_max_slots(100_000),
                &AdversarySpec::passive(),
                || LeskProtocol::new(0.5),
            );
            assert_eq!(
                serde_json::to_string(&f(seed)).unwrap(),
                serde_json::to_string(&direct).unwrap(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn all_uniform_protocols_are_supported() {
        for proto in [
            json!({"proto": "lesk", "eps": 0.3f64}),
            json!({"proto": "lesu"}),
            json!({"proto": "backoff"}),
            json!({"proto": "willard"}),
        ] {
            let p = params(proto.clone());
            assert!(is_supported(&p), "{proto:?}");
            let f = build_trial_fn(&p).unwrap();
            let report = f(5);
            assert!(report.slots > 0);
        }
    }

    #[test]
    fn unknown_keys_are_unsupported_not_ignored() {
        // A warm-start knob the server does not know must not be
        // silently dropped — that would poison the shared cache.
        let p = params(json!({"proto": "lesk", "eps": 0.5f64, "u0": 6u64}));
        assert!(matches!(build_trial_fn(&p), Err(WorkError::Unsupported(_))));
        let mut top = params(json!({"proto": "lesu"}));
        if let Value::Map(m) = &mut top {
            m.push(("faults".into(), json!({"crash": 1u64})));
        }
        assert!(matches!(build_trial_fn(&top), Err(WorkError::Unsupported(_))));
    }

    fn exact_params(proto: Value) -> Value {
        json!({
            "kind": "exact_election",
            "n": 12u64,
            "cd": CdModel::Strong.to_json_value(),
            "adv": AdversarySpec::passive().to_json_value(),
            "max_slots": 4_000u64,
            "proto": proto,
        })
    }

    #[test]
    fn exact_election_batch_is_bit_identical_to_its_trial_fn() {
        // The routing contract: for every supported protocol, the batch
        // closure's per-seed reports equal the per-trial closure's — this
        // is what makes sharing cache entries between the two safe.
        for proto in [
            json!({"proto": "lesk", "eps": 0.3f64}),
            json!({"proto": "lesu"}),
            json!({"proto": "backoff"}),
            json!({"proto": "willard"}),
        ] {
            let p = exact_params(proto.clone());
            assert!(is_supported(&p), "{proto:?}");
            let trial_fn = build_trial_fn(&p).unwrap();
            let batch_fn = build_batch_fn(&p).unwrap();
            let seeds = [3u64, 41, 77, 500];
            let batched = batch_fn(&seeds);
            assert_eq!(batched.len(), seeds.len());
            for (seed, got) in seeds.iter().zip(batched.iter()) {
                assert_eq!(
                    serde_json::to_string(got).unwrap(),
                    serde_json::to_string(&trial_fn(*seed)).unwrap(),
                    "{proto:?} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn exact_election_batch_matches_trial_fn_across_mask_words() {
        // The traffic the uniform batch kernel serves: LESK and LESU at
        // n = 256, where almost every slot draws per station at 0 < p < 1.
        // K = 1, 63, 64, 65 and 129 put the last trial on either side of
        // every mask-word boundary.
        let sat = AdversarySpec::new(
            jle_adversary::Rate::from_f64(0.5),
            32,
            jle_adversary::JamStrategyKind::Saturating,
        );
        let seeds: Vec<u64> = (0..129u64).map(|t| 0x5EED_0000 + 7 * t).collect();
        for proto in [json!({"proto": "lesk", "eps": 0.5f64}), json!({"proto": "lesu"})] {
            for adv in [AdversarySpec::passive(), sat.clone()] {
                let p = json!({
                    "kind": "exact_election",
                    "n": 256u64,
                    "cd": CdModel::Strong.to_json_value(),
                    "adv": adv.to_json_value(),
                    "max_slots": 50_000u64,
                    "proto": proto.clone(),
                });
                let trial_fn = build_trial_fn(&p).unwrap();
                let batch_fn = build_batch_fn(&p).unwrap();
                let solo: Vec<RunReport> = seeds.iter().map(|&s| trial_fn(s)).collect();
                for k in [1usize, 63, 64, 65, 129] {
                    let batched = batch_fn(&seeds[..k]);
                    assert_eq!(batched.len(), k);
                    for (trial, (got, want)) in batched.iter().zip(&solo).enumerate() {
                        assert_eq!(got, want, "{proto:?} {:?} K={k} trial {trial}", adv.kind);
                    }
                }
            }
        }
    }

    #[test]
    fn cohort_units_never_route_through_the_batch_backend() {
        // Cohort bits are not fast-exact bits; offering them a batch
        // path would cache wrong results under the cohort fingerprint.
        let p = params(json!({"proto": "lesu"}));
        assert!(matches!(build_batch_fn(&p), Err(WorkError::Unsupported(_))));
        assert_eq!(engine_mode_of(&p), "exact", "cohort caches keep their existing salt");
        assert_eq!(engine_mode_of(&exact_params(json!({"proto": "lesu"}))), "fast-exact");
    }

    #[test]
    fn exact_election_rejects_unknown_keys_like_cohort_does() {
        let p = exact_params(json!({"proto": "lesk", "eps": 0.5f64, "u0": 6u64}));
        assert!(matches!(build_trial_fn(&p), Err(WorkError::Unsupported(_))));
        assert!(matches!(build_batch_fn(&p), Err(WorkError::Unsupported(_))));
    }

    #[test]
    fn malformed_trees_are_invalid() {
        assert!(matches!(
            build_trial_fn(&json!({"kind": "cohort_election"})),
            Err(WorkError::Invalid(_))
        ));
        assert!(matches!(
            build_trial_fn(&json!({"kind": "estimation"})),
            Err(WorkError::Unsupported(_))
        ));
        assert!(matches!(
            build_trial_fn(&params(json!({"proto": "arss"}))),
            Err(WorkError::Unsupported(_))
        ));
    }
}
