//! The daemon through its real binary.
//!
//! `a_sigkilled_daemon_resumes_from_its_store` is the daemon half of the
//! store's crash check: a `jle-sweepd` SIGKILLed mid-unit, once its first
//! chunk file has landed, restarts on the same store, serves the chunks
//! the killed run left from the store, and answers the resubmitted unit
//! with the bytes an ephemeral run gives.

use jle_adversary::{AdversarySpec, JamStrategyKind, Rate};
use jle_orchestrator::WorkSpec;
use jle_radio::CdModel;
use jle_sweepd::{Endpoint, ServerConfig, SweepClient, SweepOutcome, SweepServer};
use serde::Serialize;
use serde_json::json;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jle-sweepd-daemon-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Four 32-trial chunks of a never-resolving election (LESU, weak
/// collision detection, a near-total saturating jammer): every trial runs
/// to the slot cap, so the chunks land one by one, well apart.
const TRIALS: u64 = 128;

fn slow_spec() -> WorkSpec {
    let jam = AdversarySpec::new(Rate::from_f64(1e-9), 1024, JamStrategyKind::Saturating);
    let params = json!({
        "kind": "cohort_election",
        "n": 1024u64,
        "cd": CdModel::Weak.to_json_value(),
        "adv": jam.to_json_value(),
        "max_slots": 50_000u64,
        "proto": {"proto": "lesu"},
    });
    WorkSpec::new("svc", "crash", params, 2024)
}

/// `jle-sweepd --listen 127.0.0.1:0 --cache-dir <cache> --workers 1`.
fn daemon(cache: &Path) -> Child {
    Command::new(env!("CARGO_BIN_EXE_jle-sweepd"))
        .args(["--listen", "127.0.0.1:0", "--workers", "1", "--cache-dir"])
        .arg(cache)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("jle-sweepd starts")
}

/// The endpoint the daemon's `listening on` line names, and the rest of
/// its stderr (kept open so the daemon never writes into a closed pipe).
fn listening(daemon: &mut Child) -> (Endpoint, BufReader<ChildStderr>) {
    let mut stderr = BufReader::new(daemon.stderr.take().expect("piped stderr"));
    let mut line = String::new();
    loop {
        line.clear();
        assert!(stderr.read_line(&mut line).unwrap() > 0, "jle-sweepd exited before listening");
        if let Some((_, addr)) = line.trim().split_once("listening on tcp:") {
            return (Endpoint::Tcp(addr.to_string()), stderr);
        }
    }
}

/// Chunk files in the store (`<cache>/<aa>/<key>/t*.json`).
fn chunk_count(cache: &Path) -> usize {
    let read = |d: &Path| std::fs::read_dir(d).into_iter().flatten().flatten();
    read(cache)
        .flat_map(|shard| read(&shard.path()).collect::<Vec<_>>())
        .flat_map(|unit| read(&unit.path()).collect::<Vec<_>>())
        .filter(|f| {
            let name = f.file_name();
            let name = name.to_string_lossy();
            name.starts_with('t') && name.ends_with(".json")
        })
        .count()
}

fn run(endpoint: &Endpoint) -> SweepOutcome {
    let mut client = SweepClient::connect(endpoint).unwrap();
    client.submit_and_wait(&slow_spec(), TRIALS, 8, |_| {}).unwrap()
}

#[test]
fn a_sigkilled_daemon_resumes_from_its_store() {
    let cache = tmp_dir("crash");
    let mut child = daemon(&cache);
    let (endpoint, _stderr) = listening(&mut child);
    let mut client = SweepClient::connect(&endpoint).unwrap();
    let accepted = client.submit(&slow_spec(), TRIALS).unwrap();
    assert!(!accepted.dedup);
    let deadline = Instant::now() + Duration::from_secs(120);
    while chunk_count(&cache) == 0 {
        assert!(Instant::now() < deadline, "no chunk landed");
        std::thread::sleep(Duration::from_millis(1));
    }
    child.kill().unwrap();
    child.wait().unwrap();
    let left = chunk_count(&cache);
    assert!(left < (TRIALS / 32) as usize, "the kill landed after the unit was done");

    let mut child = daemon(&cache);
    let (endpoint, _stderr) = listening(&mut child);
    let resumed = run(&endpoint);
    child.kill().unwrap();
    child.wait().unwrap();
    assert_eq!(resumed.executed_trials + resumed.cached_trials, TRIALS);
    assert!(
        resumed.cached_trials >= 32,
        "the landed chunks were recomputed: {} cached, {} executed",
        resumed.cached_trials,
        resumed.executed_trials
    );

    let config = ServerConfig { workers: 1, mc_jobs: 2, ..ServerConfig::default() };
    let server = SweepServer::bind(&Endpoint::Tcp("127.0.0.1:0".into()), config).unwrap();
    let ephemeral = Endpoint::Tcp(server.tcp_addr().unwrap().to_string());
    let handle = server.spawn();
    let want = run(&ephemeral);
    handle.shutdown().unwrap();
    assert_eq!(want.executed_trials, TRIALS);
    assert_eq!(resumed.key, want.key);
    assert!(resumed.results.get() == want.results.get(), "resumed bytes differ");
    let _ = std::fs::remove_dir_all(cache);
}
