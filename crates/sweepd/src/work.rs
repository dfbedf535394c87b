//! Server-side work-kind registry: parameter tree → trial closure.
//!
//! A submitted [`jle_orchestrator::WorkSpec`] carries only data; the
//! closure that actually runs a trial must be reconstructed here from
//! `spec.params`. The contract with the cache is absolute — the
//! reconstructed closure must be **bit-identical in behaviour** to the
//! one the bench CLIs run locally for the same tree, because both sides
//! address the same [`jle_orchestrator::ResultStore`] entries.
//!
//! The tree decodes through the one typed election spec,
//! [`ElectionParams`], which the lens replays and the builders write
//! too. Decoding is deliberately strict: a parameter tree with an unknown
//! key (e.g. an experiment's private warm-start knob riding in `proto`),
//! kind or protocol is rejected as [`WorkError::Unsupported`] instead of
//! being ignored. Ignoring it would compute *something* under a
//! fingerprint that promises something else — silent cache poisoning.
//! Clients fall back to local computation for unsupported trees.

use jle_engine::{run_batch_uniform, RunReport};
use jle_protocols::{with_uniform_proto, ElectionKind, ElectionParams};
use serde::Value;

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

/// Decode a parameter tree into the election it names.
///
/// Supported kinds, both over the election tree (`n`, `cd`, `adv`,
/// `max_slots`, `proto`):
///
/// * `kind == "cohort_election"` — the O(1)-per-slot cohort engine, as
///   the experiments' cohort units ([`ElectionParams::cohort`]) write it.
/// * `kind == "exact_election"` — the same protocol run per-station
///   through the fast-exact engine ([`jle_engine::run_fast_exact`]);
///   eligible for batched execution via [`batch_fn`].
///
/// The `proto` subtree names one of the uniform protocols:
///
/// * `{"proto": "lesk", "eps": ε}` — `LeskProtocol::new`
/// * `{"proto": "lesu"}` — `LesuProtocol::new`
/// * `{"proto": "backoff"}` — `BackoffProtocol::new`
/// * `{"proto": "willard"}` — `WillardProtocol::new`
///
/// Any extra key anywhere in the tree, any other kind or protocol, and
/// the shapes only the experiments run (ARSS, LESK's `u0` and `divisor`;
/// [`jle_protocols::ProtoParams::portable`]) are
/// [`WorkError::Unsupported`]; a missing or ill-typed field is
/// [`WorkError::Invalid`].
pub fn decode(params: &Value) -> Result<ElectionParams, WorkError> {
    ElectionParams::decode(params).map_err(|e| {
        if e.is_unknown() {
            WorkError::Unsupported(e.to_string())
        } else {
            WorkError::Invalid(e.to_string())
        }
    })
}

/// The per-trial closure of a decoded election: [`ElectionParams::run`].
pub fn trial_fn(election: &ElectionParams) -> TrialFn {
    let election = election.clone();
    Box::new(move |seed| election.run(seed))
}

/// The batch closure of a decoded election, when its kind has a batch
/// backend whose per-trial output is bit-identical to its [`TrialFn`].
///
/// Only `exact_election` qualifies today: its per-trial path is the
/// fast-exact engine, and `jle_engine::run_batch_uniform` is
/// bit-identical to it, so batched chunks and per-trial chunks address
/// the same cache entries. `cohort_election` is deliberately refused —
/// cohort bits are *not* fast-exact bits, and routing them through the
/// batch backend would cache different results under the same
/// fingerprint (silent poisoning).
pub fn batch_fn(election: &ElectionParams) -> Result<BatchFn, WorkError> {
    match election.kind {
        ElectionKind::Exact => {
            let (config, adv) = (election.config(), election.adv.clone());
            Ok(with_uniform_proto!(election.proto, make => Box::new(
                move |seeds: &[u64]| run_batch_uniform(&config, &adv, seeds, make)
            )))
        }
        ElectionKind::Cohort => Err(WorkError::Unsupported(
            "cohort_election has no batch backend: cohort bits are not fast-exact bits, and \
             aliasing them would poison the shared cache"
                .into(),
        )),
    }
}

/// The orchestrator engine-mode tag under which an election's results
/// are cached. `exact_election` results live under the `fast-exact` salt —
/// whether computed per-trial or batched, the bits are the fast-exact
/// engine's, so both routes share warm caches with fast-exact sweeps.
/// Cohort elections stay on the default salt, leaving existing cohort
/// caches untouched.
pub fn engine_mode(election: &ElectionParams) -> &'static str {
    match election.kind {
        ElectionKind::Exact => "fast-exact",
        ElectionKind::Cohort => "exact",
    }
}

/// Turn a submitted parameter tree into a runnable trial closure
/// ([`decode`], then [`trial_fn`]).
pub fn build_trial_fn(params: &Value) -> Result<TrialFn, WorkError> {
    decode(params).map(|election| trial_fn(&election))
}

/// Turn a parameter tree into a batch closure ([`decode`], then
/// [`batch_fn`]).
pub fn build_batch_fn(params: &Value) -> Result<BatchFn, WorkError> {
    batch_fn(&decode(params)?)
}

/// [`engine_mode`] of a parameter tree, read from its `kind` alone:
/// anything but an `exact_election` stays on the default salt.
pub fn engine_mode_of(params: &Value) -> &'static str {
    match params.get("kind").and_then(Value::as_str) {
        Some("exact_election") => "fast-exact",
        _ => "exact",
    }
}

/// Whether a parameter tree names work this server type can execute.
pub fn is_supported(params: &Value) -> bool {
    decode(params).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use jle_adversary::AdversarySpec;
    use jle_engine::{run_cohort, SimConfig};
    use jle_protocols::LeskProtocol;
    use jle_radio::CdModel;
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
        // Nor the other shapes only the experiments run.
        for proto in [
            json!({"proto": "lesk", "eps": 0.5f64, "divisor": 2.0f64}),
            json!({"proto": "arss", "gamma": 0.25f64}),
        ] {
            let p = params(proto.clone());
            assert!(matches!(build_trial_fn(&p), Err(WorkError::Unsupported(_))), "{proto:?}");
            assert!(!is_supported(&p), "{proto:?}");
        }
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
        for proto in [
            json!({"proto": "lesk", "eps": 0.5f64, "u0": 6u64}),
            json!({"proto": "lesk", "eps": 0.5f64, "divisor": 2.0f64}),
            json!({"proto": "arss", "gamma": 0.25f64}),
        ] {
            let p = exact_params(proto.clone());
            assert!(matches!(build_trial_fn(&p), Err(WorkError::Unsupported(_))), "{proto:?}");
            assert!(matches!(build_batch_fn(&p), Err(WorkError::Unsupported(_))), "{proto:?}");
        }
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

    #[test]
    fn zero_stations_are_invalid() {
        // An election needs a station; a zero count must be refused at
        // decode, not panic a worker inside the engine.
        let lesu = json!({"proto": "lesu"});
        for mut p in [params(lesu.clone()), exact_params(lesu.clone())] {
            if let Value::Map(m) = &mut p {
                m.retain(|(k, _)| k != "n");
                m.push(("n".into(), Value::U64(0)));
            }
            let invalid = WorkError::Invalid(jle_protocols::params::ZERO_STATIONS.to_string());
            assert_eq!(decode(&p).err(), Some(invalid));
            assert!(!is_supported(&p));
            assert!(matches!(build_trial_fn(&p), Err(WorkError::Invalid(_))));
            assert!(matches!(build_batch_fn(&p), Err(WorkError::Invalid(_))));
        }
    }

    #[test]
    fn out_of_range_protocol_parameters_are_invalid() {
        // Refused at decode with the protocol's range, not panicked on by
        // a worker inside the constructor.
        for p in [
            params(json!({"proto": "lesk", "eps": 2.0f64})),
            exact_params(json!({"proto": "lesk", "eps": -1.0f64})),
        ] {
            match decode(&p) {
                Err(WorkError::Invalid(msg)) => assert!(msg.contains("`eps`"), "{msg}"),
                other => panic!("expected invalid work, got {other:?}"),
            }
            assert!(!is_supported(&p));
            assert!(matches!(build_trial_fn(&p), Err(WorkError::Invalid(_))));
        }
    }

    #[test]
    fn unknown_keys_inside_adv_are_unsupported() {
        // The adversary's budget and every strategy's parameters are
        // strict too: a knob the server does not know is never dropped.
        let mut adv = AdversarySpec::passive().to_json_value();
        if let Value::Map(m) = &mut adv {
            m.push(("future_knob".into(), json!(7u64)));
        }
        let mut p = params(json!({"proto": "lesu"}));
        if let Value::Map(m) = &mut p {
            m.retain(|(k, _)| k != "adv");
            m.push(("adv".into(), adv));
        }
        assert!(matches!(build_trial_fn(&p), Err(WorkError::Unsupported(_))));
        assert!(!is_supported(&p));
        let random = json!({"eps": {"num": 2147483648u64}, "t_window": 8u64,
            "kind": {"Random": {"prob": 0.5f64, "seed_knob": 1u64}}});
        let mut p = exact_params(json!({"proto": "lesu"}));
        if let Value::Map(m) = &mut p {
            m.retain(|(k, _)| k != "adv");
            m.push(("adv".into(), random));
        }
        assert!(matches!(build_batch_fn(&p), Err(WorkError::Unsupported(_))));
    }

    #[test]
    fn a_payload_on_a_unit_jammer_is_invalid() {
        // `{"None": payload}` is not the passive jammer: the payload is
        // ill-typed, so the submission is `Invalid`, not an unknown key.
        let adv = json!({"eps": {"num": 2147483648u64}, "t_window": 8u64,
            "kind": {"None": {"future_knob": 7u64}}});
        let mut p = params(json!({"proto": "lesu"}));
        if let Value::Map(m) = &mut p {
            m.retain(|(k, _)| k != "adv");
            m.push(("adv".into(), adv));
        }
        assert!(matches!(build_trial_fn(&p), Err(WorkError::Invalid(_))));
        assert!(!is_supported(&p));
        // `{"None": null}` is the passive jammer.
        let adv = json!({"eps": {"num": 2147483648u64}, "t_window": 8u64, "kind": {"None": null}});
        if let Value::Map(m) = &mut p {
            m.retain(|(k, _)| k != "adv");
            m.push(("adv".into(), adv));
        }
        assert!(build_trial_fn(&p).is_ok());
    }

    #[test]
    fn typed_trees_keep_their_cache_keys() {
        // Canonical JSON and fingerprints recorded from the hand-built
        // `json!` trees the bench CLIs submitted before the typed spec:
        // the typed value must address the same store entries.
        use jle_adversary::{JamStrategyKind, Rate};
        use jle_orchestrator::{canonical_json, engine_salt, Fingerprint, WorkSpec};
        use jle_protocols::{ElectionKind, ProtoParams};
        let cohort = ElectionParams {
            kind: ElectionKind::Cohort,
            n: 64,
            cd: CdModel::Strong,
            adv: AdversarySpec::new(Rate::from_f64(0.5), 32, JamStrategyKind::Saturating),
            max_slots: 100_000,
            proto: ProtoParams::lesk(0.5),
        };
        let exact = ElectionParams {
            kind: ElectionKind::Exact,
            n: 256,
            cd: CdModel::Weak,
            adv: AdversarySpec::passive(),
            max_slots: 50_000,
            proto: ProtoParams::Lesu,
        };
        let pinned = [
            (
                cohort,
                r#"{"base_seed":11,"experiment":"e2","params":{"adv":{"eps":{"num":2147483648},"kind":"Saturating","t_window":32},"cd":"Strong","kind":"cohort_election","max_slots":100000,"n":64,"proto":{"eps":0.5,"proto":"lesk"}},"point":"n=64"}"#,
                "2d3bbcaf8c75ebf591d378bec7713fdb024d77aed4a860c85d56a70a9d3f74cb",
            ),
            (
                exact,
                r#"{"base_seed":11,"experiment":"e2","params":{"adv":{"eps":{"num":2147483648},"kind":"None","t_window":1},"cd":"Weak","kind":"exact_election","max_slots":50000,"n":256,"proto":{"proto":"lesu"}},"point":"n=64"}"#,
                "6263fb9d2f2f368b294da7c0ae5c3763eb6c7d24b4b78634dd8fce1125546237",
            ),
        ];
        for (election, canon, hex) in pinned {
            let spec = WorkSpec::new("e2", "n=64", election.to_json_value(), 11);
            assert_eq!(canonical_json(&spec.to_value()), canon);
            let salt = engine_salt(jle_orchestrator::DEFAULT_CODE_SALT, engine_mode(&election));
            let fp = Fingerprint::of(&spec, &salt, std::any::type_name::<RunReport>());
            assert_eq!(fp.hex(), hex);
            assert_eq!(engine_mode_of(&spec.params), engine_mode(&election));
        }
    }
}
