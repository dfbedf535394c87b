//! `sweep-soak` — load harness for the sweep service.
//!
//! Fires thousands of concurrent submissions with deliberately
//! overlapping fingerprints (a small distinct-spec pool shared by many
//! clients), then reports the dedup ratio, the warm-cache hit ratio,
//! and p50/p99 submission-to-first-event latency. Exits non-zero if any
//! submission drops a frame (no terminal answer, or a short payload);
//! `tests/daemon.rs` runs a 200-submission soak and holds it to that.
//!
//! ```text
//! sweep-soak --in-process --submissions 1000 --clients 16
//! sweep-soak --server tcp:127.0.0.1:7677 --submissions 200
//! ```

use jle_adversary::AdversarySpec;
use jle_orchestrator::WorkSpec;
use jle_radio::CdModel;
use jle_sweepd::client::{snapshot_counter, ClientError, SweepClient};
use jle_sweepd::{Endpoint, ServerConfig, SweepServer};
use serde::{Serialize, Value};
use serde_json::json;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

const USAGE: &str = "\
sweep-soak: load/soak harness for jle-sweepd

USAGE:
  sweep-soak (--in-process | --server ENDPOINT) [OPTIONS]

OPTIONS:
  --in-process        Spawn a private server on 127.0.0.1:0 with a temp cache
  --server ENDPOINT   Target an already-running service (tcp:ADDR | unix:PATH)
  --submissions N     Total submissions to fire (default: 1000)
  --clients C         Concurrent client connections (default: 16)
  --distinct K        Distinct fingerprints in the spec pool (default: 24)
  --trials T          Trials per unit (default: 8)
  --n N               Cohort size per trial (default: 64)
  --max-slots M       Per-trial slot cap (default: 100000)
  --workers W         In-process server worker threads (default: 4)
  --report PATH       Write the JSON report here
  -h, --help          This text
";

fn fail(msg: &str) -> ! {
    eprintln!("sweep-soak: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

#[derive(Default)]
struct Tally {
    ok: u64,
    dedup: u64,
    cache_served: u64,
    rejected_retries: u64,
    dropped: u64,
    first_event_ms: Vec<f64>,
    result_ms: Vec<f64>,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut server_endpoint: Option<Endpoint> = None;
    let mut in_process = false;
    let mut submissions: u64 = 1000;
    let mut clients: u64 = 16;
    let mut distinct: u64 = 24;
    let mut trials: u64 = 8;
    let mut n: u64 = 64;
    let mut max_slots: u64 = 100_000;
    let mut workers: usize = 4;
    let mut report_path: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().map(String::as_str).unwrap_or_else(|| fail(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--in-process" => in_process = true,
            "--server" => {
                server_endpoint =
                    Some(Endpoint::parse(value("--server")).unwrap_or_else(|e| fail(&e)))
            }
            "--submissions" => {
                submissions =
                    value("--submissions").parse().unwrap_or_else(|_| fail("bad --submissions"))
            }
            "--clients" => {
                clients = value("--clients").parse().unwrap_or_else(|_| fail("bad --clients"))
            }
            "--distinct" => {
                distinct = value("--distinct").parse().unwrap_or_else(|_| fail("bad --distinct"))
            }
            "--trials" => {
                trials = value("--trials").parse().unwrap_or_else(|_| fail("bad --trials"))
            }
            "--n" => n = value("--n").parse().unwrap_or_else(|_| fail("bad --n")),
            "--max-slots" => {
                max_slots = value("--max-slots").parse().unwrap_or_else(|_| fail("bad --max-slots"))
            }
            "--workers" => {
                workers = value("--workers").parse().unwrap_or_else(|_| fail("bad --workers"))
            }
            "--report" => report_path = Some(PathBuf::from(value("--report"))),
            "-h" | "--help" => {
                print!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown argument `{other}`")),
        }
    }
    if clients == 0 || distinct == 0 || submissions == 0 {
        fail("--submissions, --clients and --distinct must be ≥ 1");
    }

    // Spin up (or target) the service.
    let mut temp_cache: Option<PathBuf> = None;
    let (endpoint, handle) = if in_process {
        let cache = std::env::temp_dir().join(format!("jle-sweepd-soak-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache);
        let config = ServerConfig {
            cache_dir: Some(cache.clone()),
            workers,
            max_queue: 256,
            client_share: 64,
            ..ServerConfig::default()
        };
        temp_cache = Some(cache);
        let server = SweepServer::bind(&Endpoint::Tcp("127.0.0.1:0".into()), config)
            .unwrap_or_else(|e| fail(&format!("cannot bind in-process server: {e}")));
        let addr = server.tcp_addr().expect("tcp bind");
        (Endpoint::Tcp(addr.to_string()), Some(server.spawn()))
    } else {
        let Some(ep) = server_endpoint else { fail("one of --in-process or --server is required") };
        (ep, None)
    };

    // The spec pool: `distinct` small LESK units; many submissions per
    // fingerprint → high in-flight overlap early, warm-cache hits late.
    let specs: Vec<WorkSpec> = (0..distinct)
        .map(|k| {
            WorkSpec::new(
                "soak",
                format!("lesk/clean/k={k}"),
                json!({
                    "kind": "cohort_election",
                    "n": n,
                    "cd": CdModel::Strong.to_json_value(),
                    "adv": AdversarySpec::passive().to_json_value(),
                    "max_slots": max_slots,
                    "proto": {"proto": "lesk", "eps": 0.5f64},
                }),
                10_000 + k * 1_000,
            )
        })
        .collect();

    eprintln!(
        "sweep-soak: {submissions} submissions × {clients} clients over {distinct} fingerprints → {endpoint}"
    );
    let tally = Mutex::new(Tally::default());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let specs = &specs;
            let tally = &tally;
            let endpoint = endpoint.clone();
            let lo = submissions * c / clients;
            let hi = submissions * (c + 1) / clients;
            scope.spawn(move || {
                let mut client = match SweepClient::connect(&endpoint) {
                    Ok(cl) => cl,
                    Err(e) => {
                        eprintln!("sweep-soak: client {c}: connect failed: {e}");
                        tally.lock().unwrap().dropped += hi - lo;
                        return;
                    }
                };
                let _ = client.set_read_timeout(Some(Duration::from_secs(120)));
                for i in lo..hi {
                    // Deterministic, interleaved pool walk: concurrent
                    // clients keep colliding on the same fingerprints.
                    let spec = &specs[((i * 7 + c * 3) % distinct) as usize];
                    let sub_started = Instant::now();
                    let mut retries = 0u64;
                    let submission = loop {
                        match client.submit(spec, trials) {
                            Ok(s) => break Ok(s),
                            Err(ClientError::Rejected { retry_after_ms, .. }) => {
                                retries += 1;
                                std::thread::sleep(Duration::from_millis(
                                    retry_after_ms.clamp(5, 1_000),
                                ));
                            }
                            Err(e) => break Err(e),
                        }
                    };
                    let mut first_event: Option<f64> = None;
                    let outcome = submission.and_then(|s| {
                        client
                            .wait(&s, |_| {
                                first_event.get_or_insert_with(|| {
                                    sub_started.elapsed().as_secs_f64() * 1e3
                                });
                            })
                            .map(|o| (s, o))
                    });
                    let mut t = tally.lock().unwrap();
                    t.rejected_retries += retries;
                    match outcome {
                        Ok((s, o)) => {
                            let result_ms = sub_started.elapsed().as_secs_f64() * 1e3;
                            // A payload that does not decode counts as
                            // dropped, like a short one.
                            let len = o.reports().map_or(0, |r| r.len()) as u64;
                            if len != trials {
                                eprintln!(
                                    "sweep-soak: short payload for {}: {len}/{trials}",
                                    s.key
                                );
                                t.dropped += 1;
                                continue;
                            }
                            t.ok += 1;
                            if s.dedup {
                                t.dedup += 1;
                            }
                            if o.executed_trials == 0 {
                                t.cache_served += 1;
                            }
                            t.first_event_ms.push(first_event.unwrap_or(result_ms));
                            t.result_ms.push(result_ms);
                        }
                        Err(e) => {
                            eprintln!("sweep-soak: client {c} submission {i} lost: {e}");
                            t.dropped += 1;
                        }
                    }
                }
            });
        }
    });
    let wall_secs = started.elapsed().as_secs_f64();

    // Server-side counters for the dedup/cache story.
    let server_metrics: Option<Value> = SweepClient::connect(&endpoint)
        .ok()
        .and_then(|mut c| c.metrics().ok())
        .map(|(server, _)| server);
    let counter =
        |name: &str| server_metrics.as_ref().and_then(|s| snapshot_counter(s, name)).unwrap_or(0);
    let srv_submissions = counter("jle_sweepd_submissions_total");
    let srv_dedup = counter("jle_sweepd_dedup_hits_total");
    let srv_cache_hits = counter("jle_sweepd_unit_cache_hits_total");
    let srv_completed = counter("jle_sweepd_jobs_completed_total");
    let srv_executed_trials = counter("jle_orchestrator_executed_trials");
    let srv_cached_trials = counter("jle_orchestrator_cached_trials");

    if let Some(h) = handle {
        if let Ok(mut c) = SweepClient::connect(&endpoint) {
            let _ = c.shutdown();
        }
        let _ = h.shutdown();
    }
    if let Some(cache) = temp_cache {
        let _ = std::fs::remove_dir_all(cache);
    }

    let mut t = tally.into_inner().unwrap();
    t.first_event_ms.sort_by(f64::total_cmp);
    t.result_ms.sort_by(f64::total_cmp);
    let dedup_ratio = t.dedup as f64 / submissions as f64;
    let cache_ratio = t.cache_served as f64 / submissions as f64;
    let report = json!({
        "schema": "jle-sweep-soak-v1",
        "endpoint": endpoint.to_string(),
        "submissions": submissions,
        "clients": clients,
        "distinct_fingerprints": distinct,
        "trials_per_unit": trials,
        "n": n,
        "ok": t.ok,
        "dropped_frames": t.dropped,
        "rejected_retries": t.rejected_retries,
        "client_dedup_submissions": t.dedup,
        "client_cache_served": t.cache_served,
        "dedup_ratio": dedup_ratio,
        "cache_hit_ratio": cache_ratio,
        "first_event_ms": {
            "p50": percentile(&t.first_event_ms, 0.50),
            "p90": percentile(&t.first_event_ms, 0.90),
            "p99": percentile(&t.first_event_ms, 0.99),
        },
        "result_ms": {
            "p50": percentile(&t.result_ms, 0.50),
            "p90": percentile(&t.result_ms, 0.90),
            "p99": percentile(&t.result_ms, 0.99),
        },
        "wall_secs": wall_secs,
        "throughput_per_sec": t.ok as f64 / wall_secs.max(1e-9),
        "server": {
            "submissions": srv_submissions,
            "dedup_hits": srv_dedup,
            "unit_cache_hits": srv_cache_hits,
            "jobs_completed": srv_completed,
            "executed_trials": srv_executed_trials,
            "cached_trials": srv_cached_trials,
        },
    });
    let rendered = serde_json::to_string_pretty(&report).expect("report rendering");
    if let Some(path) = &report_path {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            let _ = std::fs::create_dir_all(parent);
        }
        std::fs::write(path, format!("{rendered}\n"))
            .unwrap_or_else(|e| fail(&format!("cannot write report: {e}")));
        eprintln!("sweep-soak: report written to {}", path.display());
    }
    println!("{rendered}");
    eprintln!(
        "sweep-soak: {}/{} ok, {} dropped, dedup {:.1}%, cache-served {:.1}%, p99 first-event {:.1} ms, {:.1}s wall",
        t.ok,
        submissions,
        t.dropped,
        100.0 * dedup_ratio,
        100.0 * cache_ratio,
        percentile(&t.first_event_ms, 0.99),
        wall_secs,
    );
    if t.dropped > 0 || t.ok != submissions {
        eprintln!("sweep-soak: FAIL — dropped frames detected");
        std::process::exit(1);
    }
}
