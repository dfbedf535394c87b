//! The `jle-lens` binary end to end: the committed flight fixture replays
//! bit-exactly from the command line, stored supervised and lease units
//! replay by fingerprint, out-of-range protocol parameters are refused as
//! invalid specs instead of panicking, and a reader that closes the pipe
//! early ends a replay quietly.

use jle_adversary::{AdversarySpec, JamStrategyKind, Rate};
use jle_engine::{catch_trial, RunReport, TrialOutcome};
use jle_lens::{ChurnRecipe, EngineKind, FaultRecipe, Lease, LensSpec, Stop};
use jle_orchestrator::{Orchestrator, WorkSpec};
use jle_protocols::ProtoParams;
use jle_radio::CdModel;
use serde::Serialize;
use std::process::{Command, Output, Stdio};

fn lens(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_jle-lens")).args(args).output().expect("jle-lens runs")
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("jle-lens-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn committed_flight_fixture_replays_without_divergence() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/flight-snapshot-exact-seed7.json");
    let out = lens(&["replay", "--flight", fixture]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.lines().any(|l| l == "divergence: none"), "{stdout}");
}

/// `jle-lens replay … | head -2`: the reader is gone before the first
/// line is written, and the replay stops with exit 0 instead of a
/// broken-pipe panic.
#[test]
fn replay_into_a_closed_pipe_exits_quietly() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/flight-snapshot-exact-seed7.json");
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_jle-lens"))
        .args(["replay", "--flight", fixture])
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("jle-lens runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// A supervised unit under per-seed fault plans and a churned lease unit,
/// stored as caught trials the way the experiments store them: the lens
/// reads each unit's `spec.json` and re-derives every stored trial's
/// slot count.
#[test]
fn stored_supervised_and_lease_units_replay_by_fingerprint() {
    let dir = scratch("store");
    let orch = Orchestrator::with_cache_dir(&dir).unwrap();
    let adv = AdversarySpec::new(Rate::from_f64(0.5), 32, JamStrategyKind::Saturating);
    let spec = |n, max_slots| {
        LensSpec::new(
            EngineKind::FastExact,
            ProtoParams::lesk(0.5),
            n,
            CdModel::Strong,
            adv.clone(),
            max_slots,
        )
    };
    let mut supervised = spec(24, 60_000);
    supervised.fault_recipe = Some(FaultRecipe { crash_prob: 0.3, stagger: 2_048 });
    supervised.watchdog = Some(64);
    let mut leased = spec(16, 4_096);
    leased.stop = Stop::Horizon;
    leased.churn_recipe = Some(ChurnRecipe {
        join_prob: 0.4,
        join_window: 512,
        leave_prob: 0.4,
        leave_window: 1_024,
        rejoin_after: 512,
    });
    leased.lease = Some(Lease { beacon: 8, miss_tolerance: 10, timeout: 512 });
    for (spec, point) in [(supervised, "stagger=2048/sup"), (leased, "lease/churn=0.4")] {
        spec.validate().unwrap();
        let work = WorkSpec::new("eT", point, spec.to_params(), 900);
        let stored: Vec<TrialOutcome<RunReport>> =
            orch.run_trials(&work, 3, |seed| catch_trial(|| spec.run(seed).unwrap()));
        let hex = orch.fingerprint_hex::<TrialOutcome<RunReport>>(&work);
        for (trial, outcome) in stored.iter().enumerate() {
            let trial = trial.to_string();
            let out = lens(&[
                "replay",
                "--fingerprint",
                &hex,
                "--trial",
                &trial,
                "--cache-dir",
                dir.to_str().unwrap(),
                "--timeline",
                "0",
            ]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert_eq!(
                out.status.code(),
                Some(0),
                "{point}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let slots = format!(" slots={} ", outcome.as_ok().expect("no trial panics").slots);
            assert!(stdout.contains(&slots), "{point} trial {trial}: want{slots}in {stdout}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn out_of_range_protocol_parameters_are_invalid_specs() {
    let dir = scratch("params");
    std::fs::create_dir_all(&dir).unwrap();
    let adv = AdversarySpec::passive().to_json_value();
    let trees = [
        serde_json::json!({
            "kind": "election_run", "engine": "fast-exact", "n": 8u64, "cd": "Strong",
            "adv": adv.clone(), "max_slots": 1000u64, "proto": {"proto": "lesk", "eps": 2.0f64},
        }),
        serde_json::json!({
            "kind": "cohort_election", "n": 8u64, "cd": "Strong", "adv": adv,
            "max_slots": 1000u64, "proto": {"proto": "lesk", "eps": -1.0f64},
        }),
    ];
    for (i, tree) in trees.iter().enumerate() {
        let path = dir.join(format!("tree{i}.json"));
        std::fs::write(&path, serde_json::to_string(tree).unwrap()).unwrap();
        let out = lens(&["replay", "--params", path.to_str().unwrap(), "--seed", "1"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{tree:?}: {stderr}");
        assert!(stderr.contains("invalid spec") && stderr.contains("`eps`"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
