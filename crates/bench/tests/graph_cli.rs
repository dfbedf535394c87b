//! The multi-hop layer through the real binaries (DESIGN.md §15): a
//! graph-mode `simulate` run reports every cluster resolved and one
//! network leader, an oversized `--topology` is refused before any graph
//! is built, and the E26 experiment's quick run writes its convergence
//! note and both scenario tables.

use serde::Value;
use std::process::Command;

#[test]
fn graph_mode_simulate_elects_per_cluster_and_one_network_leader() {
    let out = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(["--topology", "dense-linear:3,4", "--protocol", "cluster"])
        .args(["--adversary", "saturating", "--adv-eps", "0.5", "--cd", "strong"])
        .args(["--seed", "7", "--max-slots", "200000"])
        .output()
        .expect("simulate runs");
    assert!(out.status.success(), "simulate failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 report");
    let report: Value = serde_json::from_str(&stdout).expect("simulate prints JSON");
    let multihop = report.get("multihop").expect("graph runs report a multihop section");
    assert_eq!(multihop.get("all_clusters_resolved"), Some(&Value::Bool(true)));
    assert!(multihop.get("network_leader").and_then(Value::as_u64).is_some(), "{multihop:?}");
    assert_eq!(multihop.get("topology").and_then(Value::as_str), Some("dense-linear(k=3,m=4)"));
    assert_eq!(report.get("config").and_then(|c| c.get("n")).and_then(Value::as_u64), Some(12));
}

#[test]
fn oversized_unit_disk_is_refused_up_front() {
    let out = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(["--topology", "unit-disk:16385,0.5,1"])
        .output()
        .expect("simulate runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("N must be in 1..=16384"), "{stderr}");
}

#[test]
fn e26_quick_run_writes_convergence_note_and_scenario_tables() {
    let dir = std::env::temp_dir().join(format!("jle-graph-cli-e26-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let status = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .current_dir(&dir)
        .args(["--quick", "--no-cache", "--no-progress", "e26"])
        .stdout(std::process::Stdio::null())
        .status()
        .expect("experiments runs");
    assert!(status.success(), "experiments e26 must exit 0");
    let md = std::fs::read_to_string(dir.join("results/e26.md")).expect("results/e26.md written");
    for needle in ["HELD", "dense-linear", "core-tail"] {
        assert!(md.contains(needle), "results/e26.md lacks `{needle}`");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
