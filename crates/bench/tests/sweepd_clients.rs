//! `simulate --server` clients against an in-process `SweepServer`.
//!
//! Two concurrent, identical clients coalesce onto one computation, print
//! the same bytes, and the Prometheus scrape on the service port says so.
//! The unit is deliberately slow (LESU with weak collision detection
//! under a near-total saturating jammer never resolves, so every trial
//! burns the whole slot cap): the job is still in flight when the second
//! client submits, so that client must attach to it rather than recompute.
//!
//! One traced client (`--trace-out`) exports a Chrome trace that passes
//! the lens's structural checker with the client, service, orchestrator
//! and engine spans under one trace id, and the service exports the
//! per-stage latency histograms the trace is cross-checked against.

use jle_sweepd::{Endpoint, ServerConfig, SweepServer};
use serde::Value;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};

const SIMULATE: [&str; 18] = [
    "--n",
    "256",
    "--protocol",
    "lesu",
    "--cd",
    "weak",
    "--adversary",
    "saturating",
    "--adv-eps",
    "0.000000001",
    "--t-window",
    "1024",
    "--max-slots",
    "200000",
    "--trials",
    "256",
    "--seed",
    "42",
];

#[test]
fn two_identical_clients_share_one_computation() {
    let cache = std::env::temp_dir().join(format!("jle-sweepd-clients-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    let config = ServerConfig {
        cache_dir: Some(cache.clone()),
        workers: 1,
        mc_jobs: 2,
        ..Default::default()
    };
    let server = SweepServer::bind(&Endpoint::Tcp("127.0.0.1:0".into()), config).unwrap();
    let addr = server.tcp_addr().unwrap();
    let handle = server.spawn();

    let client = || {
        Command::new(env!("CARGO_BIN_EXE_simulate"))
            .args(SIMULATE)
            .args(["--server", &format!("tcp:{addr}")])
            .stdout(Stdio::piped())
            .spawn()
            .expect("simulate runs")
    };
    let (a, b) = (client(), client());
    let (a, b) = (a.wait_with_output().unwrap(), b.wait_with_output().unwrap());
    assert!(a.status.success() && b.status.success(), "{:?} {:?}", a.status, b.status);
    assert!(!a.stdout.is_empty() && a.stdout == b.stdout, "the two reports differ");

    let mut scrape = String::new();
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    raw.read_to_string(&mut scrape).unwrap();
    for line in [
        "# TYPE jle_sweepd_submissions_total counter",
        "# TYPE jle_sweepd_dedup_hits_total counter",
        // One dedup hit: the pair shared ONE computation.
        "jle_sweepd_dedup_hits_total 1",
        "jle_sweepd_jobs_completed_total 1",
    ] {
        assert!(scrape.lines().any(|l| l == line), "no `{line}` in\n{scrape}");
    }
    assert!(scrape.contains("jle_orchestrator_executed_trials"), "{scrape}");
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(cache);
}

#[test]
fn one_trace_id_across_client_sweepd_orchestrator_and_engine() {
    let dir = std::env::temp_dir().join(format!("jle-sweepd-traced-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let config =
        ServerConfig { cache_dir: Some(dir.join("cache")), workers: 2, ..Default::default() };
    let server = SweepServer::bind(&Endpoint::Tcp("127.0.0.1:0".into()), config).unwrap();
    let addr = server.tcp_addr().unwrap();
    let handle = server.spawn();

    // Cold, the unit runs as a job; warm, the store answers it at
    // admission. Both traces carry the server's side of the work.
    let traced_run = |name: &str| {
        let trace = dir.join(name);
        let out = Command::new(env!("CARGO_BIN_EXE_simulate"))
            .args(["--n", "64", "--protocol", "lesk", "--cd", "strong", "--adversary"])
            .args(["saturating", "--adv-eps", "0.5", "--max-slots", "200000", "--trials", "8"])
            .args(["--seed", "3", "--server", &format!("tcp:{addr}"), "--trace-out"])
            .arg(&trace)
            .output()
            .expect("simulate runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let text = std::fs::read_to_string(&trace).expect("trace written");
        let doc: Value = serde_json::from_str(&text).expect("trace parses");
        let report = jle_lens::check_chrome_trace(&doc, 2_000).expect("a Chrome trace");
        assert!(report.ok() && report.events > 0, "{name}: {:?}", report.violations);
        (out.stdout, report)
    };
    let (cold_stdout, cold) = traced_run("trace.json");
    assert!(cold.categories.len() >= 4, "{:?}", cold.categories);
    for cat in ["client", "sweepd", "orchestrator", "engine"] {
        assert!(cold.categories.iter().any(|c| c == cat), "no `{cat}` span: {cold:?}");
    }
    let (warm_stdout, warm) = traced_run("trace-warm.json");
    assert_eq!(warm_stdout, cold_stdout, "the served answer reports the same run");
    for cat in ["client", "sweepd", "orchestrator"] {
        assert!(warm.categories.iter().any(|c| c == cat), "no warm `{cat}` span: {warm:?}");
    }
    let unit_cache_hits = handle.registry().counter("jle_sweepd_unit_cache_hits_total", "").get();
    assert_eq!(unit_cache_hits, 1, "the warm run is answered from the store");

    let mut scrape = String::new();
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    raw.read_to_string(&mut scrape).unwrap();
    for stage in ["queue_wait", "execute", "deliver"] {
        let line = format!("# TYPE jle_sweepd_{stage}_us histogram");
        assert!(scrape.lines().any(|l| l == line), "no `{line}` in\n{scrape}");
    }
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(dir);
}
