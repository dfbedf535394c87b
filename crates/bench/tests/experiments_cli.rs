//! The `experiments` command line through the real binary: there is no
//! backend knob to turn (one per-station engine runs every per-station
//! experiment), a warm pass over a filled cache reproduces the cached
//! tables byte for byte and executes nothing, and `--server` serves
//! exactly the units sweepd can reconstruct, whatever its worker count.

use jle_sweepd::{Endpoint, ServerConfig, SweepServer};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn workdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("jle-experiments-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn engine_flag_is_refused_as_unknown() {
    for engine in ["fast-exact", "exact", "batch"] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["--no-cache", "--engine", engine, "list"])
            .output()
            .expect("experiments runs");
        assert_eq!(out.status.code(), Some(2), "--engine {engine}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("error: unknown flag --engine"), "{stderr}");
    }
}

/// Run `experiments --quick --cache-dir cache e15` in `dir`.
fn e15_pass(dir: &Path) {
    let status = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .current_dir(dir)
        .args(["--quick", "--no-progress", "--cache-dir", "cache", "e15"])
        .stdout(std::process::Stdio::null())
        .status()
        .expect("experiments runs");
    assert!(status.success(), "experiments e15 must exit 0");
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// E15's agreement table (part a, served from the store on a warm pass)
/// and its identity table (part c) must come back byte-identical from a
/// fully cached second pass; its throughput table (part b) is timed live
/// and is deliberately not compared.
#[test]
fn e15_warm_pass_reproduces_the_cached_tables() {
    let dir = workdir("e15");
    e15_pass(&dir);
    let tables = ["results/e15_0.csv", "results/e15_2.csv"];
    let cold: Vec<String> = tables.iter().map(|t| read(&dir.join(t))).collect();
    assert!(cold[0].contains("agreement"), "{}", cold[0]);
    assert!(cold[1].contains("identity"), "{}", cold[1]);
    e15_pass(&dir);
    for (table, before) in tables.iter().zip(&cold) {
        assert_eq!(&read(&dir.join(table)), before, "{table} changed on the warm pass");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `run_summary` stats of the last line of the event log at `path`.
fn run_summary(path: &Path) -> Value {
    let text = read(path);
    let last = text.lines().last().expect("the log has a line");
    let line: Value = serde_json::from_str(last).expect("the last log line parses");
    assert_eq!(line.get("ev").and_then(Value::as_str), Some("run_summary"), "{last}");
    line.get("stats").cloned().expect("the summary carries stats")
}

/// E2's tables: `e2.md` and every `e2*.csv`, by name.
fn e2_tables(dir: &Path) -> Vec<(String, String)> {
    let mut tables: Vec<(String, String)> = std::fs::read_dir(dir.join("results"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name == "e2.md" || name.starts_with("e2") && name.ends_with(".csv"))
        .map(|name| (name.clone(), read(&dir.join("results").join(name))))
        .collect();
    tables.sort();
    tables
}

/// Two cached passes of E2 quick: the second is served whole from the
/// store (its run summary reports no executed trial and no chunk miss)
/// and rewrites every table byte for byte.
#[test]
fn a_second_cached_pass_is_all_hits_and_byte_identical() {
    let dir = workdir("cache-rerun");
    let pass = |log: &str| {
        let status = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .current_dir(&dir)
            .args(["--quick", "--cache-dir", "cache", "--log", log, "e2"])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .expect("experiments runs");
        assert!(status.success(), "experiments e2 ({log}) must exit 0");
        (e2_tables(&dir), run_summary(&dir.join(log)))
    };
    let (first, cold) = pass("run1.jsonl");
    let names: Vec<&str> = first.iter().map(|(name, _)| name.as_str()).collect();
    assert!(names.contains(&"e2.md") && names.iter().any(|n| n.ends_with(".csv")), "{names:?}");
    let stat = |stats: &Value, name: &str| stats.get(name).and_then(Value::as_u64).unwrap();
    assert!(stat(&cold, "executed_trials") > 0, "the first pass computes");
    let (second, warm) = pass("run2.jsonl");
    assert_eq!(second, first, "the cached pass rewrites the tables byte for byte");
    assert_eq!(stat(&warm, "executed_trials"), 0, "every trial is served from the store");
    assert_eq!(stat(&warm, "chunk_misses"), 0);
    assert_eq!(stat(&warm, "cached_trials"), stat(&cold, "planned_trials"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Run `experiments --quick --no-cache --no-progress <extra> e2` in `dir`.
fn e2_pass(dir: &Path, extra: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .current_dir(dir)
        .args(["--quick", "--no-cache", "--no-progress"])
        .args(extra)
        .arg("e2")
        .output()
        .expect("experiments runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    out
}

/// The `point` of every unit a store under `root` holds.
fn stored_points(root: &Path) -> Vec<String> {
    let mut points = Vec::new();
    for shard in std::fs::read_dir(root).unwrap() {
        for unit in std::fs::read_dir(shard.unwrap().path()).unwrap() {
            let spec: Value = serde_json::from_str(&read(&unit.unwrap().path().join("spec.json")))
                .expect("spec.json parses");
            points.push(spec.get("point").and_then(Value::as_str).unwrap().to_string());
        }
    }
    points.sort();
    points
}

/// E2 quick through an in-process sweepd: its cold-start `lesk{eps}`
/// units are served, its warm-start (`u0`) units run locally without a
/// fallback warning, and the tables equal a purely local run's. With two
/// workers the lone client's units borrow the idle worker's thread; the
/// bytes are the same.
#[test]
fn server_serves_portable_units_and_leaves_local_only_ones_local() {
    let local = workdir("e2-local");
    e2_pass(&local, &[]);
    for workers in [1, 2] {
        let cache = workdir(&format!("server-cache-{workers}"));
        let config =
            ServerConfig { cache_dir: Some(cache.clone()), workers, ..ServerConfig::default() };
        let server = SweepServer::bind(&Endpoint::Tcp("127.0.0.1:0".into()), config).unwrap();
        let endpoint = format!("tcp:{}", server.tcp_addr().unwrap());
        let handle = server.spawn();

        let routed = workdir(&format!("e2-routed-{workers}"));
        let out = e2_pass(&routed, &["--server", &endpoint, "--log", "run.jsonl"]);
        let threads = handle.registry().histogram("jle_sweepd_job_threads", "");
        let (jobs, widths) = (threads.count(), threads.sum());
        handle.shutdown().unwrap();
        assert_eq!(jobs, 3, "{workers} workers: one job per cold unit");
        assert_eq!(
            widths > jobs,
            workers > 1,
            "{workers} workers: {widths} threads for {jobs} jobs"
        );

        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("computing locally"), "{workers} workers: {stderr}");
        for table in ["results/e2.md", "results/e2_0.csv", "results/e2_1.csv"] {
            let (got, want) = (read(&routed.join(table)), read(&local.join(table)));
            assert_eq!(got, want, "{workers} workers: {table}");
        }
        let cold = ["cold/eps=0.2", "cold/eps=0.5", "cold/eps=0.8"];
        assert_eq!(stored_points(&cache), cold, "{workers} workers: the server ran the cold units");
        let mut ran_here: Vec<String> = read(&routed.join("run.jsonl"))
            .lines()
            .map(|line| serde_json::from_str::<Value>(line).expect("log line parses"))
            .filter(|ev| ev.get("ev").and_then(Value::as_str) == Some("unit_started"))
            .map(|ev| ev.get("point").and_then(Value::as_str).unwrap().to_string())
            .collect();
        ran_here.sort();
        assert_eq!(ran_here, ["warm/eps=0.2", "warm/eps=0.5", "warm/eps=0.8"], "{workers} workers");
        for dir in [cache, routed] {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let _ = std::fs::remove_dir_all(&local);
}
