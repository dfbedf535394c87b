//! End-to-end smoke test of the open-world stack (DESIGN.md §13) through
//! the real binaries: one quick E25 run must write its results,
//! split-brain metrics into the `jle-metrics-v1` snapshot and lease-loss
//! postmortems into the flight recorder, and a lease-mode `simulate` run
//! must report its split-brain block and outcome. Needles are checked on
//! the raw file text, so a regression in the vendored JSON parser cannot
//! hide a schema change.

use std::path::{Path, PathBuf};
use std::process::Command;

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jle-churn-smoke-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn read_text(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

#[test]
fn e25_quick_run_exports_split_brain_metrics_and_lease_postmortems() {
    let dir = workdir("e25");
    let status = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .current_dir(&dir)
        .args(["--quick", "--no-cache", "--no-progress"])
        .args(["--metrics-out", "metrics.jsonl", "--flight-recorder", "flight", "e25"])
        .stdout(std::process::Stdio::null())
        .status()
        .expect("experiments runs");
    assert!(status.success(), "experiments e25 must exit 0");

    let md = read_text(&dir.join("results/e25.md"));
    assert!(!md.is_empty(), "results/e25.md is empty");
    assert!(md.contains("converged"), "results/e25.md lacks `converged`");

    let metrics = read_text(&dir.join("metrics.jsonl"));
    for name in [
        r#""jle_engine_split_brain_windows_total""#,
        r#""jle_engine_split_brain_slots_total""#,
        r#""jle_engine_reelections_total""#,
    ] {
        assert!(metrics.contains(name), "metrics.jsonl lacks {name}");
    }

    // Lease losses leave structured postmortems; unresolved splits would
    // dump flight-*-split_brain-*.json the same way.
    let names: Vec<String> = std::fs::read_dir(dir.join("flight"))
        .expect("flight dir written")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        names.iter().any(|n| {
            n.starts_with("flight-") && n.contains("-lease_lost-") && n.ends_with(".json")
        }),
        "no flight-*-lease_lost-*.json artifact among {names:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lease_mode_simulate_reports_split_brain_and_outcome() {
    let out = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(["--n", "16", "--max-slots", "12288", "--lease-beacon", "8"])
        .args(["--churn-join-prob", "0.4", "--churn-leave-prob", "0.4"])
        .args(["--churn-rejoin-after", "1024", "--seed", "7"])
        .output()
        .expect("simulate runs");
    assert!(out.status.success(), "simulate failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 report");
    for needle in [r#""split_brain""#, r#""outcome""#] {
        assert!(stdout.contains(needle), "lease report lacks {needle}: {stdout}");
    }
}
