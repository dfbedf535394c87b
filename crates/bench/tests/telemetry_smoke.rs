//! End-to-end smoke test for the experiments CLI's telemetry exports:
//! `--metrics-out` must produce a schema-valid versioned snapshot (plus
//! Prometheus text exposition), `--trace-out` a well-formed Chrome
//! `trace_event` document, and `--flight-recorder` parseable postmortem
//! artifacts. This is the CI telemetry-smoke entry point — it shells out
//! to the real binary, so flag parsing and exit-time export paths are
//! covered, not just the library APIs. Key strings are also checked on
//! the raw file text before any parsing, so a regression in the vendored
//! JSON parser cannot hide a schema change.

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

fn workdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("jle-telemetry-smoke-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn read_text(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn parse_json(path: &Path, text: &str) -> Value {
    serde_json::from_str(text)
        .unwrap_or_else(|e| panic!("{} is not valid JSON: {e:?}", path.display()))
}

fn read_json(path: &Path) -> Value {
    parse_json(path, &read_text(path))
}

/// Assert that `text` (the raw bytes of `path`) contains `needle`.
fn assert_raw_contains(path: &Path, text: &str, needle: &str) {
    assert!(text.contains(needle), "{} lacks {needle}", path.display());
}

#[test]
fn cli_exports_are_schema_valid() {
    let dir = workdir("cli");
    let metrics = dir.join("metrics.jsonl");
    let trace = dir.join("trace.json");
    let flight = dir.join("flight");

    let status = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .current_dir(&dir)
        .args([
            "--quick",
            "--no-cache",
            "--no-progress",
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
            "--flight-recorder",
            flight.to_str().unwrap(),
            "e24",
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("experiments binary runs");
    assert!(status.success(), "experiments e24 must exit 0");

    // Metrics snapshot: one JSONL line, versioned schema, both counter
    // families present with plausible totals.
    let text = read_text(&metrics);
    for needle in [
        r#""schema":"jle-metrics-v1""#,
        r#""jle_orchestrator_executed_trials""#,
        r#""jle_engine_slots_total""#,
    ] {
        assert_raw_contains(&metrics, &text, needle);
    }
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1, "one snapshot appended per run");
    let snap: Value = serde_json::from_str(lines[0]).unwrap();
    assert_eq!(snap.get("schema").and_then(Value::as_str), Some("jle-metrics-v1"));
    let samples = snap.get("metrics").and_then(Value::as_seq).expect("metrics array");
    let find = |name: &str| {
        samples
            .iter()
            .find(|s| s.get("name").and_then(Value::as_str) == Some(name))
            .unwrap_or_else(|| panic!("metric {name} missing from snapshot"))
    };
    let executed = find("jle_orchestrator_executed_trials");
    assert_eq!(executed.get("type").and_then(Value::as_str), Some("counter"));
    assert!(executed.get("value").and_then(Value::as_u64).unwrap() > 0);
    let slots = find("jle_engine_slots_total");
    assert!(slots.get("value").and_then(Value::as_u64).unwrap() > 0, "engine metrics wired");
    let hist = find("jle_engine_election_slots");
    assert_eq!(hist.get("type").and_then(Value::as_str), Some("histogram"));
    assert!(hist.get("buckets").and_then(Value::as_seq).is_some(), "histogram has buckets");

    // Prometheus exposition next to the snapshot.
    let prom = std::fs::read_to_string(format!("{}.prom", metrics.display())).unwrap();
    assert!(prom.contains("# TYPE jle_orchestrator_executed_trials counter"), "{prom}");
    assert!(prom.contains("# TYPE jle_engine_election_slots histogram"), "{prom}");

    // Chrome trace: well-formed, complete events with the CLI's run and
    // experiment spans plus the orchestrator's unit/chunk spans.
    let trace_text = read_text(&trace);
    for needle in [r#""traceEvents""#, r#""ph":"X""#] {
        assert_raw_contains(&trace, &trace_text, needle);
    }
    let doc = parse_json(&trace, &trace_text);
    let events = doc.get("traceEvents").and_then(Value::as_seq).expect("traceEvents");
    assert!(!events.is_empty());
    for e in events {
        assert_eq!(e.get("ph").and_then(Value::as_str), Some("X"), "complete events only");
        assert!(e.get("ts").and_then(Value::as_u64).is_some());
        assert!(e.get("dur").and_then(Value::as_u64).is_some());
    }
    let names: Vec<&str> =
        events.iter().filter_map(|e| e.get("name").and_then(Value::as_str)).collect();
    assert!(names.contains(&"run"), "CLI run span present: {names:?}");
    assert!(names.contains(&"experiment:e24"), "experiment span present: {names:?}");
    assert!(names.iter().any(|n| n.starts_with("unit:e24/")), "unit spans present");
    assert!(names.iter().any(|n| n.starts_with("chunk:")), "chunk spans present");

    // Flight recorder: e24's aggressive-watchdog arm fires restarts, so
    // artifacts must exist, parse, and carry seed + fingerprint.
    let mut artifacts: Vec<PathBuf> =
        std::fs::read_dir(&flight).unwrap().map(|e| e.unwrap().path()).collect();
    artifacts.sort();
    assert!(!artifacts.is_empty(), "anomalous trials must leave postmortems");
    let is_restart = |path: &PathBuf| {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        name.starts_with("flight-")
            && name.contains("-supervisor_restart-")
            && name.ends_with(".json")
    };
    assert!(
        artifacts.iter().any(is_restart),
        "a flight-*-supervisor_restart-*.json artifact must exist: {artifacts:?}"
    );
    for path in &artifacts {
        let record = read_json(path);
        assert_eq!(record.get("schema").and_then(Value::as_str), Some("jle-flight-v1"));
        assert!(record.get("seed").and_then(Value::as_u64).is_some());
        assert!(record.get("fingerprint").and_then(Value::as_str).is_some());
        assert!(record.get("replay").and_then(Value::as_str).is_some());
        assert!(record.get("events").and_then(Value::as_seq).is_some());
    }

    let _ = std::fs::remove_dir_all(&dir);
}
