//! Flight-record → replay round-trips across every backend, plus
//! backend-vs-backend diff identities and the committed fixture guard.
//!
//! These pin the replay half of the observability contract: freezing a
//! run into a flight artifact and re-deriving it from `(spec, seed)`
//! reproduces the recorded slot events bit-for-bit — on the cohort,
//! exact (the shared-stream discipline), fast-exact, faulty (fault *and*
//! churn plans), and multi-hop engines — and `diff` reproduces the
//! engines' known bit-identity pairs.

use jle_adversary::{AdversarySpec, JamStrategyKind, Rate};
use jle_engine::{ChurnPlan, FaultPlan, RngDiscipline, StationFaults};
use jle_lens::{diff, divergence, record, replay, Divergence, EngineKind, LensSpec, SpecError};
use jle_radio::CdModel;
use jle_telemetry::FlightRecord;
use serde::{Deserialize, Serialize, Value};
use serde_json::json;

fn sat_adv() -> Value {
    AdversarySpec::new(Rate::from_f64(0.5), 64, JamStrategyKind::Saturating).to_json_value()
}

fn run_params(engine: &str) -> Value {
    json!({
        "kind": "election_run",
        "engine": engine,
        "n": 8u64,
        "cd": CdModel::Strong.to_json_value(),
        "adv": sat_adv(),
        "max_slots": 20_000u64,
        "proto": {"proto": "lesk", "eps": 0.5f64},
    })
}

/// Record, serialize the artifact through JSON (as the CLI does), parse
/// it back, replay from the embedded spec, and demand bit-exactness.
fn assert_roundtrip(params: &Value, seed: u64) {
    let spec = LensSpec::from_params(params).expect("spec parses");
    let (rec, outcome) = record(&spec, seed, 64).expect("record runs");
    assert!(outcome.slots_seen > 0, "run played no slots");
    let text = serde_json::to_string_pretty(&rec).expect("artifact serializes");
    let rec = FlightRecord::from_json_value(
        &serde_json::from_str::<Value>(&text).expect("artifact re-parses"),
    )
    .expect("artifact deserializes");
    let respec =
        LensSpec::from_params(rec.replay_spec.as_ref().expect("spec embedded")).expect("re-parses");
    let capture = respec.max_slots.min(jle_lens::MAX_CAPTURE as u64) as usize;
    let out = replay(&respec, rec.seed, capture, true).expect("replay runs");
    assert_eq!(
        divergence(&rec, &out),
        Divergence::None,
        "replay must reproduce the recorded events bit-exactly"
    );
}

#[test]
fn cohort_roundtrip() {
    let params = json!({
        "kind": "cohort_election",
        "n": 32u64,
        "cd": CdModel::Strong.to_json_value(),
        "adv": sat_adv(),
        "max_slots": 100_000u64,
        "proto": {"proto": "lesk", "eps": 0.5f64},
    });
    assert_roundtrip(&params, 7);
}

#[test]
fn exact_roundtrip() {
    assert_roundtrip(&run_params("exact"), 7);
}

#[test]
fn fast_exact_roundtrip() {
    assert_roundtrip(&run_params("fast-exact"), 11);
}

#[test]
fn faulty_roundtrip() {
    // A crash-with-recovery plan routes the run onto FastFaultyStations.
    let plan = FaultPlan::new(3)
        .with_station(0, StationFaults::none().crash_with_recovery(40, 400))
        .with_station(3, StationFaults::none().crash(25));
    let mut params = run_params("fast-exact");
    if let Value::Map(m) = &mut params {
        m.push(("faults".into(), plan.to_json_value()));
        m.push(("stop".into(), Value::Str("all-terminated".into())));
    }
    assert_roundtrip(&params, 13);

    // The shared-stream `exact` engine has no faulty backend: the same
    // plan there is refused, never replayed without its faults.
    let mut exact = params.clone();
    if let Value::Map(m) = &mut exact {
        m.retain(|(k, _)| k != "engine");
        m.push(("engine".into(), Value::Str("exact".into())));
    }
    assert!(matches!(LensSpec::from_params(&exact), Err(SpecError::Invalid(_))));
}

#[test]
fn churn_roundtrip_on_fast_faulty() {
    // A churn plan lowers onto FastFaultyStations via overlay().
    let churn = ChurnPlan::new(5).with_staggered_joins(8, 0.5, 200);
    let mut params = run_params("fast-exact");
    if let Value::Map(m) = &mut params {
        m.push(("churn".into(), churn.to_json_value()));
    }
    assert_roundtrip(&params, 17);
}

#[test]
fn multihop_cluster_roundtrip() {
    let params = json!({
        "kind": "election_run",
        "engine": "multihop",
        "n": 6u64,
        "cd": CdModel::Strong.to_json_value(),
        "adv": sat_adv(),
        "max_slots": 50_000u64,
        "stop": "all-terminated",
        "proto": {"proto": "cluster", "eps": 0.5f64},
        "topology": "dense-linear:3,2",
        "discipline": "counter",
    });
    assert_roundtrip(&params, 23);
}

#[test]
fn tampered_artifact_is_flagged_at_the_exact_slot() {
    let spec = LensSpec::from_params(&run_params("exact")).unwrap();
    let (mut rec, _) = record(&spec, 7, 64).unwrap();
    let mid = rec.events.len() / 2;
    rec.events[mid].transmitters += 1;
    let out = replay(&spec, 7, spec.max_slots as usize, false).unwrap();
    match divergence(&rec, &out) {
        Divergence::SlotMismatch { recorded, replayed } => {
            assert_eq!(recorded.slot, replayed.slot);
            assert_eq!(recorded.slot, rec.events[mid].slot);
        }
        other => panic!("expected SlotMismatch, got {other:?}"),
    }
}

#[test]
fn diff_reproduces_the_engine_identity_pairs() {
    // exact ≡ multihop(Complete, Shared); fast-exact ≡ multihop(Complete,
    // Counter) — the identities the topology identity suite pins against
    // the golden fixtures, here rediscovered externally through the diff
    // path.
    let exact = LensSpec::from_params(&run_params("exact")).unwrap();
    let mh_shared = exact.with_engine(EngineKind::Multihop, RngDiscipline::Shared).unwrap();
    let report = diff(&exact, &mh_shared, 7).unwrap();
    assert!(report.agree(), "exact vs multihop/shared diverged: {report:?}");
    assert!(report.compared > 0);

    let fast = LensSpec::from_params(&run_params("fast-exact")).unwrap();
    let mh_counter = fast.with_engine(EngineKind::Multihop, RngDiscipline::Counter).unwrap();
    let report = diff(&fast, &mh_counter, 7).unwrap();
    assert!(report.agree(), "fast-exact vs multihop/counter diverged: {report:?}");
}

#[test]
fn diff_localizes_genuine_backend_divergence() {
    // exact and fast-exact draw randomness in different disciplines, so
    // under a saturating jammer they part ways at some concrete slot;
    // diff must report a well-formed first divergence, never a panic.
    let exact = LensSpec::from_params(&run_params("exact")).unwrap();
    let fast = exact.with_engine(EngineKind::FastExact, RngDiscipline::Shared).unwrap();
    let report = diff(&exact, &fast, 7).unwrap();
    if let Some((a, b)) = report.first_divergence {
        assert_eq!(a.slot, b.slot);
        assert!(a != b);
    }
}

#[test]
fn batch_produced_trials_replay_bit_exactly_via_fast_exact() {
    // The cache round-trip the aliased engine salt promises: trials the
    // batched uniform backend computed for an `exact_election` tree (as
    // sweepd's batch closure runs them, and caches them under the
    // fast-exact fingerprint) re-derive bit-identically through the
    // lens's replay of that same tree — full RunReport equality.
    use jle_engine::run_batch_uniform;
    use jle_protocols::{with_uniform_proto, ElectionParams};

    let params = json!({
        "kind": "exact_election",
        "n": 8u64,
        "cd": CdModel::Strong.to_json_value(),
        "adv": sat_adv(),
        "max_slots": 20_000u64,
        "proto": {"proto": "lesk", "eps": 0.5f64},
    });
    let spec = LensSpec::from_params(&params).expect("exact_election spec parses");
    assert_eq!(spec.engine, EngineKind::FastExact);

    let election = ElectionParams::decode(&params).expect("tree decodes");
    let (config, adv) = (election.config(), election.adv.clone());
    let seeds: Vec<u64> = (0..70).map(|t| 1000 + t).collect(); // K % 64 != 0
    let batched = with_uniform_proto!(election.proto, make => {
        run_batch_uniform(&config, &adv, &seeds, make)
    });
    assert_eq!(batched.len(), seeds.len());

    for (seed, report) in seeds.iter().zip(&batched) {
        let out = replay(&spec, *seed, 16, false).expect("replay runs");
        assert_eq!(
            &out.report, report,
            "batch-produced trial at seed {seed} must replay bit-exactly via fast-exact"
        );
    }
}

#[test]
fn sweepd_exact_election_tree_parses_onto_fast_exact() {
    // The cache trees sweepd fingerprints for `exact_election` work —
    // whether it executed them per-trial or batched — replay on the
    // fast-exact path, and unknown keys are refused, never ignored.
    let params = json!({
        "kind": "exact_election",
        "n": 12u64,
        "cd": CdModel::Strong.to_json_value(),
        "adv": sat_adv(),
        "max_slots": 4_000u64,
        "proto": {"proto": "willard"},
    });
    let spec = LensSpec::from_params(&params).expect("exact_election parses");
    assert_eq!(spec.engine, EngineKind::FastExact);
    assert_roundtrip(&params, 29);

    let mut poisoned = params.clone();
    if let Value::Map(m) = &mut poisoned {
        m.push(("batch_width".into(), Value::U64(64)));
    }
    assert!(
        LensSpec::from_params(&poisoned).is_err(),
        "unknown exact_election keys must be refused"
    );
}

#[test]
fn unknown_adversary_keys_are_refused() {
    // The adversary subtree is as strict as the rest of the tree: a knob
    // inside `adv` (or inside a strategy's parameters) the lens does not
    // know would replay some other jammer.
    let mut adv = sat_adv();
    if let Value::Map(m) = &mut adv {
        m.push(("future_knob".into(), Value::U64(7)));
    }
    let random = json!({"eps": {"num": 2147483648u64}, "t_window": 64u64,
        "kind": {"Random": {"prob": 0.5f64, "future_knob": 7u64}}});
    for bad_adv in [adv, random] {
        for mut params in [run_params("exact"), run_params("cohort")] {
            if let Value::Map(m) = &mut params {
                m.retain(|(k, _)| k != "adv");
                m.push(("adv".into(), bad_adv.clone()));
            }
            let err = LensSpec::from_params(&params).expect_err("unknown adv key must be refused");
            assert!(matches!(err, SpecError::Unsupported(_)), "{err}");
        }
    }
}

#[test]
fn fast_exact_engine_refuses_topology() {
    // Descriptive refusal, not a panic: fast-exact is single-channel.
    let mut params = run_params("fast-exact");
    if let Value::Map(m) = &mut params {
        m.push(("topology".into(), Value::Str("dense-linear:4,2".into())));
    }
    let err = LensSpec::from_params(&params).expect_err("topology on fast-exact must fail");
    assert!(err.to_string().contains("topology"), "unexpected error: {err}");
}

#[test]
fn batch_engine_label_is_refused_as_unsupported() {
    // `batch` is not an engine: a tree naming it (external input) is
    // refused as unsupported, not replayed on some other path.
    let err = LensSpec::from_params(&run_params("batch")).expect_err("batch engine must fail");
    assert!(matches!(err, SpecError::Unsupported(_)), "{err}");
}

#[test]
fn committed_fixture_still_replays_bit_exactly() {
    // The fixture was recorded once and committed; any engine change
    // that shifts RNG consumption or slot accounting will break this.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/flight-snapshot-exact-seed7.json");
    let text = std::fs::read_to_string(path).expect("fixture present");
    let rec = FlightRecord::from_json_value(&serde_json::from_str::<Value>(&text).unwrap())
        .expect("fixture parses");
    let spec = LensSpec::from_params(rec.replay_spec.as_ref().expect("fixture embeds its spec"))
        .expect("fixture spec parses");
    let out = replay(&spec, rec.seed, spec.max_slots as usize, true).expect("replay runs");
    assert_eq!(divergence(&rec, &out), Divergence::None);
}
