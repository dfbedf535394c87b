//! End-to-end service tests over real sockets.
//!
//! The load-bearing one is `two_concurrent_clients_dedup_into_one_computation`
//! (PR acceptance): with a single worker pinned behind a long blocker
//! job, two clients submitting the same `WorkSpec` are both guaranteed
//! to be admitted while the job is still in flight, so the second MUST
//! coalesce (dedup counter = 1) and both MUST receive byte-identical
//! result payloads from the single computation.

use jle_adversary::{AdversarySpec, JamStrategyKind, Rate};
use jle_engine::{run_cohort, RunReport, SimConfig};
use jle_orchestrator::{canonicalize, Fingerprint, ResultStore, WorkSpec, DEFAULT_CODE_SALT};
use jle_protocols::LeskProtocol;
use jle_radio::CdModel;
use jle_sweepd::client::{snapshot_counter, SweepClient};
use jle_sweepd::{ClientError, Endpoint, ServerConfig, ServerHandle, SweepServer};
use serde::Serialize;
use serde_json::json;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jle-sweepd-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A tcp server on an ephemeral port with a private cache.
fn start(tag: &str, tweak: impl FnOnce(&mut ServerConfig)) -> (ServerHandle, Endpoint, PathBuf) {
    let cache = tmp_dir(tag);
    let mut config = ServerConfig {
        cache_dir: Some(cache.clone()),
        workers: 1,
        max_queue: 64,
        client_share: 8,
        ..ServerConfig::default()
    };
    tweak(&mut config);
    let server = SweepServer::bind(&Endpoint::Tcp("127.0.0.1:0".into()), config).unwrap();
    let addr = server.tcp_addr().unwrap();
    let handle = server.spawn();
    (handle, Endpoint::Tcp(addr.to_string()), cache)
}

fn counter(handle: &ServerHandle, name: &str) -> u64 {
    handle.registry().counter(name, "").get()
}

fn wait_until(timeout: Duration, mut f: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < timeout {
        if f() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    f()
}

fn election_params(n: u64, max_slots: u64, adv: &AdversarySpec, eps: f64) -> serde::Value {
    json!({
        "kind": "cohort_election",
        "n": n,
        "cd": CdModel::Strong.to_json_value(),
        "adv": adv.to_json_value(),
        "max_slots": max_slots,
        "proto": {"proto": "lesk", "eps": eps},
    })
}

/// Trials of this unit cost ~32 × 100k slots: LESU under a saturating
/// near-total jammer with weak collision detection never resolves, so
/// every trial burns the whole slot cap. That pins a single worker for
/// long enough (hundreds of ms) that anything submitted right after is
/// guaranteed to still be in flight.
const BLOCKER_TRIALS: u64 = 32;

fn blocker_spec() -> WorkSpec {
    let jam = AdversarySpec::new(Rate::from_f64(1e-9), 1024, JamStrategyKind::Saturating);
    let params = json!({
        "kind": "cohort_election",
        "n": 1024u64,
        "cd": CdModel::Weak.to_json_value(),
        "adv": jam.to_json_value(),
        "max_slots": 100_000u64,
        "proto": {"proto": "lesu"},
    });
    WorkSpec::new("svc", "blocker", params, 77)
}

fn quick_spec(point: &str, base_seed: u64) -> WorkSpec {
    WorkSpec::new(
        "svc",
        point,
        election_params(32, 50_000, &AdversarySpec::passive(), 0.5),
        base_seed,
    )
}

#[test]
fn two_concurrent_clients_dedup_into_one_computation() {
    let (handle, endpoint, cache) = start("dedup", |_| {});
    let mut blocker_client = SweepClient::connect(&endpoint).unwrap();
    let mut a = SweepClient::connect(&endpoint).unwrap();
    let mut b = SweepClient::connect(&endpoint).unwrap();

    // Pin the single worker, then race two identical submissions in.
    let blocker = blocker_client.submit(&blocker_spec(), BLOCKER_TRIALS).unwrap();
    assert!(!blocker.dedup);

    let spec = quick_spec("shared", 1234);
    let trials = 16;
    let sub_a = a.submit(&spec, trials).unwrap();
    let sub_b = b.submit(&spec, trials).unwrap();
    assert!(!sub_a.dedup, "first submission computes");
    assert!(sub_b.dedup, "second identical submission must coalesce");
    assert_eq!(sub_a.key, sub_b.key, "same spec, same fingerprint");

    let out_a = a.wait(&sub_a, |_| {}).unwrap();
    let out_b = b.wait(&sub_b, |_| {}).unwrap();

    // Byte-identical payloads from the one computation.
    let bytes_a = serde_json::to_string(&out_a.results).unwrap();
    let bytes_b = serde_json::to_string(&out_b.results).unwrap();
    assert_eq!(bytes_a, bytes_b, "both subscribers see the same bytes");
    assert_eq!(out_a.reports().unwrap().len(), trials as usize);

    // Exactly one dedup hit, and the unit was executed exactly once:
    // orchestrator-executed trials cover the blocker + ONE copy of the
    // shared unit.
    assert_eq!(counter(&handle, "jle_sweepd_dedup_hits_total"), 1);
    let _ = blocker_client.wait(&blocker, |_| {}).unwrap();
    assert!(wait_until(Duration::from_secs(10), || {
        counter(&handle, "jle_sweepd_jobs_completed_total") == 2
    }));
    assert_eq!(counter(&handle, "jle_orchestrator_executed_trials"), BLOCKER_TRIALS + trials);

    // And the server's answer matches a local run bit-for-bit.
    let local: Vec<RunReport> = (0..trials)
        .map(|i| {
            let config =
                SimConfig::new(32, CdModel::Strong).with_seed(1234 + i).with_max_slots(50_000);
            run_cohort(&config, &AdversarySpec::passive(), || LeskProtocol::new(0.5))
        })
        .collect();
    let local_bytes = serde_json::to_string(&serde::Value::Seq(
        local.iter().map(|r| r.to_json_value()).collect(),
    ))
    .unwrap();
    assert_eq!(bytes_a, local_bytes, "server and local runs agree bit-for-bit");

    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(cache);
}

#[test]
fn full_queue_rejects_with_retry_after() {
    let (handle, endpoint, cache) = start("queue-full", |c| {
        c.max_queue = 2;
        c.client_share = 64;
    });
    let mut client = SweepClient::connect(&endpoint).unwrap();
    let blocker = client.submit(&blocker_spec(), BLOCKER_TRIALS).unwrap();
    // Let the single worker pick the blocker up so the queue is empty...
    assert!(wait_until(Duration::from_secs(5), || {
        handle.registry().gauge("jle_sweepd_active_jobs", "").get() >= 1.0
    }));
    // ...then fill the bounded queue and overflow it.
    client.submit(&quick_spec("q0", 1), 4).unwrap();
    client.submit(&quick_spec("q1", 2), 4).unwrap();
    let err = client.submit(&quick_spec("q2", 3), 4).unwrap_err();
    match err {
        ClientError::Rejected { reason, retry_after_ms } => {
            assert!(retry_after_ms > 0, "backpressure must carry a retry hint");
            assert!(reason.contains("queue full"), "{reason}");
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
    assert_eq!(counter(&handle, "jle_sweepd_rejected_queue_full_total"), 1);
    let _ = client.wait(&blocker, |_| {});
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(cache);
}

#[test]
fn fair_share_caps_one_client() {
    let (handle, endpoint, cache) = start("fair-share", |c| {
        c.client_share = 2;
    });
    let mut client = SweepClient::connect(&endpoint).unwrap();
    client.submit(&blocker_spec(), BLOCKER_TRIALS).unwrap();
    client.submit(&quick_spec("f0", 1), 4).unwrap();
    let err = client.submit(&quick_spec("f1", 2), 4).unwrap_err();
    match err {
        ClientError::Rejected { reason, .. } => {
            assert!(reason.contains("fair share"), "{reason}");
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
    assert_eq!(counter(&handle, "jle_sweepd_rejected_fair_share_total"), 1);
    // A different client still gets in: the cap is per client, not global.
    let mut other = SweepClient::connect(&endpoint).unwrap();
    other.submit(&quick_spec("f2", 3), 4).unwrap();
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(cache);
}

#[test]
fn cancel_withdraws_interest_and_stops_orphaned_work() {
    let (handle, endpoint, cache) = start("cancel", |_| {});
    let mut client = SweepClient::connect(&endpoint).unwrap();
    let blocker = client.submit(&blocker_spec(), BLOCKER_TRIALS).unwrap();
    let queued = client.submit(&quick_spec("doomed", 9), 8).unwrap();
    client.cancel(&queued.key).unwrap();
    // The queued job has no subscriber left; the worker discards it at
    // the cancellation pre-check instead of computing it.
    let _ = client.wait(&blocker, |_| {}).unwrap();
    assert!(wait_until(Duration::from_secs(10), || {
        counter(&handle, "jle_sweepd_jobs_cancelled_total") == 1
    }));
    assert_eq!(counter(&handle, "jle_sweepd_jobs_completed_total"), 1, "blocker only");
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(cache);
}

#[test]
fn warm_resubmit_is_a_unit_cache_hit() {
    let (handle, endpoint, cache) = start("warm", |_| {});
    let mut client = SweepClient::connect(&endpoint).unwrap();
    let spec = quick_spec("warm", 55);
    let cold = client.submit_and_wait(&spec, 8, 8, |_| {}).unwrap();
    assert_eq!(cold.executed_trials, 8);
    assert_eq!(cold.cached_trials, 0);

    let warm = client.submit_and_wait(&spec, 8, 8, |_| {}).unwrap();
    assert_eq!(warm.executed_trials, 0, "warm resubmit must execute nothing");
    assert_eq!(warm.cached_trials, 8);
    assert_eq!(
        serde_json::to_string(&cold.results).unwrap(),
        serde_json::to_string(&warm.results).unwrap(),
        "cache replay is byte-identical"
    );
    assert_eq!(counter(&handle, "jle_sweepd_unit_cache_hits_total"), 1);
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(cache);
}

/// Frame keys name store entries: an `exact_election` unit is stored
/// under the `+engine=fast-exact` salt, and its `accepted`/`result` key
/// must be that entry's fingerprint, resolvable through the store's spec
/// index. Cohort keys stay on the plain salt.
#[test]
fn frame_keys_resolve_to_store_entries() {
    let (handle, endpoint, cache) = start("frame-key", |_| {});
    let mut client = SweepClient::connect(&endpoint).unwrap();
    let exact = WorkSpec::new(
        "svc",
        "exact-key",
        json!({
            "kind": "exact_election",
            "n": 16u64,
            "cd": CdModel::Strong.to_json_value(),
            "adv": AdversarySpec::passive().to_json_value(),
            "max_slots": 4_000u64,
            "proto": {"proto": "lesk", "eps": 0.5f64},
        }),
        21,
    );
    let cohort = quick_spec("cohort-key", 22);
    let store = ResultStore::open(&cache).unwrap();
    for (spec, salt) in [
        (&exact, format!("{DEFAULT_CODE_SALT}+engine=fast-exact")),
        (&cohort, DEFAULT_CODE_SALT.to_string()),
    ] {
        let out = client.submit_and_wait(spec, 4, 8, |_| {}).unwrap();
        let want = Fingerprint::of(spec, &salt, std::any::type_name::<RunReport>());
        assert_eq!(out.key, want.hex(), "{}: frame key names the store entry", spec.point);
        let (full, stored) = store.load_spec_info(&out.key).expect("frame key resolves");
        assert_eq!(full, out.key);
        assert_eq!(stored, canonicalize(&spec.to_value()));
        assert!(store.load_chunk::<RunReport>(&want, 0, 4).is_some());
    }
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(cache);
}

#[test]
fn unsupported_work_is_refused_not_guessed() {
    let (handle, endpoint, cache) = start("unsupported", |_| {});
    let mut client = SweepClient::connect(&endpoint).unwrap();
    // A warm-start knob the server does not know: refusing it is what
    // protects the shared cache from a wrong reconstruction.
    let mut params = election_params(32, 50_000, &AdversarySpec::passive(), 0.5);
    if let serde::Value::Map(m) = &mut params {
        let proto = m.iter_mut().find(|(k, _)| k == "proto").unwrap();
        if let serde::Value::Map(p) = &mut proto.1 {
            p.push(("u0".into(), serde::Value::U64(6)));
        }
    }
    let err = client.submit(&WorkSpec::new("svc", "u0", params, 5), 4).unwrap_err();
    assert!(matches!(err, ClientError::Unsupported(_)), "{err:?}");
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(cache);
}

#[test]
fn metrics_frame_and_http_scrape_expose_the_registry() {
    let (handle, endpoint, cache) = start("metrics", |_| {});
    let mut client = SweepClient::connect(&endpoint).unwrap();
    client.submit_and_wait(&quick_spec("m", 3), 4, 8, |_| {}).unwrap();

    let (server, conn) = client.metrics().unwrap();
    assert_eq!(snapshot_counter(&server, "jle_sweepd_submissions_total"), Some(1));
    assert_eq!(snapshot_counter(&server, "jle_sweepd_jobs_completed_total"), Some(1));
    assert_eq!(snapshot_counter(&conn, "jle_sweepd_client_submissions_total"), Some(1));
    assert_eq!(snapshot_counter(&conn, "jle_sweepd_client_results_total"), Some(1));

    // HTTP-ish scrape on the same socket.
    let Endpoint::Tcp(addr) = &endpoint else { unreachable!() };
    let mut raw = std::net::TcpStream::connect(addr.as_str()).unwrap();
    use std::io::{Read, Write};
    raw.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut response = String::new();
    raw.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.0 200 OK"), "{response}");
    assert!(response.contains("# TYPE jle_sweepd_submissions_total counter"), "{response}");
    assert!(response.contains("jle_sweepd_submissions_total 1"), "{response}");
    assert!(response.contains("jle_orchestrator_executed_trials"), "{response}");

    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(cache);
}

#[cfg(unix)]
#[test]
fn unix_socket_round_trip() {
    let dir = tmp_dir("unix");
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("sweepd.sock");
    let server = SweepServer::bind(
        &Endpoint::Unix(sock.clone()),
        ServerConfig { workers: 1, ..ServerConfig::default() },
    )
    .unwrap();
    let handle = server.spawn();
    let mut client = SweepClient::connect(&Endpoint::Unix(sock.clone())).unwrap();
    assert_eq!(client.server_info().proto, jle_sweepd::PROTOCOL_VERSION);
    let out = client.submit_and_wait(&quick_spec("ux", 2), 4, 8, |_| {}).unwrap();
    assert_eq!(out.reports().unwrap().len(), 4);
    handle.shutdown().unwrap();
    assert!(!sock.exists(), "socket file is cleaned up on exit");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn oversized_frame_gets_an_error_and_a_closed_socket() {
    use jle_sweepd::server::MAX_FRAME_BYTES;
    use jle_sweepd::{ClientFrame, ServerFrame};
    use std::io::{BufRead, BufReader, Write};
    let (handle, endpoint, cache) = start("oversized", |_| {});
    let Endpoint::Tcp(addr) = &endpoint else { unreachable!() };
    let raw = std::net::TcpStream::connect(addr.as_str()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    // 2 MiB without a newline. The daemon stops reading at the cap, so the
    // write may end in a reset; only what comes back matters.
    let mut flood = raw.try_clone().unwrap();
    let writer = std::thread::spawn(move || {
        let _ = flood.write_all(&vec![b'x'; 2 * MAX_FRAME_BYTES]);
    });
    let mut reader = BufReader::new(raw);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    match ServerFrame::parse(line.trim()).unwrap() {
        ServerFrame::Error { reason, .. } => assert!(reason.contains("exceeds"), "{reason}"),
        other => panic!("expected an error frame, got {other:?}"),
    }
    line.clear();
    let closed = matches!(reader.read_line(&mut line), Ok(0) | Err(_));
    assert!(closed, "the connection is closed after the error, got {line:?}");
    writer.join().unwrap();

    // A line right at the cap is still read as a frame: it earns a parse
    // error and the connection stays open for the next one.
    let mut at_cap = std::net::TcpStream::connect(addr.as_str()).unwrap();
    at_cap.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut bytes = vec![b'x'; MAX_FRAME_BYTES];
    bytes.push(b'\n');
    bytes.extend_from_slice(ClientFrame::Hello { id: 5 }.to_line().as_bytes());
    bytes.push(b'\n');
    at_cap.write_all(&bytes).unwrap();
    let mut reader = BufReader::new(at_cap);
    line.clear();
    reader.read_line(&mut line).unwrap();
    match ServerFrame::parse(line.trim()).unwrap() {
        ServerFrame::Error { reason, .. } => assert!(reason.starts_with("bad frame"), "{reason}"),
        other => panic!("expected a parse error, got {other:?}"),
    }
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(matches!(ServerFrame::parse(line.trim()).unwrap(), ServerFrame::Hello { id: 5, .. }));

    // The daemon itself is unharmed: another client still gets its result.
    let mut client = SweepClient::connect(&endpoint).unwrap();
    let out = client.submit_and_wait(&quick_spec("after-flood", 9), 4, 8, |_| {}).unwrap();
    assert_eq!(out.reports().unwrap().len(), 4);
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(cache);
}

#[test]
fn deeply_nested_frame_gets_an_error_and_the_daemon_keeps_serving() {
    use jle_sweepd::ServerFrame;
    use std::io::{BufRead, BufReader, Write};
    let (handle, endpoint, cache) = start("nested", |_| {});
    let Endpoint::Tcp(addr) = &endpoint else { unreachable!() };
    // 10,000 nested arrays: far below the frame cap, far above the
    // parser's nesting cap. Without the cap this overflows the
    // connection thread's stack and aborts the whole daemon.
    let mut bomb = std::net::TcpStream::connect(addr.as_str()).unwrap();
    bomb.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut bytes = vec![b'['; 10_000];
    bytes.push(b'\n');
    bomb.write_all(&bytes).unwrap();
    let mut reader = BufReader::new(bomb);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    match ServerFrame::parse(line.trim()).unwrap() {
        ServerFrame::Error { reason, .. } => {
            assert!(reason.contains("nesting deeper than 128 at byte 128"), "{reason}")
        }
        other => panic!("expected an error frame, got {other:?}"),
    }

    // A second client on the same daemon still gets its result.
    let mut client = SweepClient::connect(&endpoint).unwrap();
    let out = client.submit_and_wait(&quick_spec("after-bomb", 11), 4, 8, |_| {}).unwrap();
    assert_eq!(out.reports().unwrap().len(), 4);
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(cache);
}
