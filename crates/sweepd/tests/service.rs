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
    assert_eq!(counter(&handle, "jle_sweepd_store_recalls_total"), 2, "the dedup probed nothing");
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
    let stored = quick_spec("stored", 4);
    let cold = client.submit_and_wait(&stored, 4, 8, |_| {}).unwrap();
    assert_eq!(cold.executed_trials, 4);
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
    // A unit the store holds whole needs no queue slot: it is answered
    // at admission while the queue is still full.
    let warm = client.submit(&stored, 4).expect("a stored unit is not refused");
    assert!(!warm.dedup);
    let warm = client.wait(&warm, |_| {}).unwrap();
    assert_eq!((warm.executed_trials, warm.cached_trials), (0, 4));
    assert_eq!(
        serde_json::to_string(&cold.results).unwrap(),
        serde_json::to_string(&warm.results).unwrap(),
        "the served answer has the cold run's bytes"
    );
    assert_eq!(handle.registry().gauge("jle_sweepd_queue_depth", "").get(), 2.0);
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
    assert_eq!(counter(&handle, "jle_sweepd_store_recalls_total"), 2, "one probe per submission");
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(cache);
}

/// A stored unit with a damaged shard is not served at admission: the
/// probe deletes the shard, and the queued job recomputes that chunk
/// alone, with the cold run's bytes, and writes it back.
#[test]
fn a_truncated_shard_is_recomputed_not_served() {
    let (handle, endpoint, cache) = start("truncated", |c| c.chunk_size = 4);
    let mut client = SweepClient::connect(&endpoint).unwrap();
    let spec = quick_spec("truncated", 66);
    let cold = client.submit_and_wait(&spec, 8, 8, |_| {}).unwrap();
    assert_eq!(cold.executed_trials, 8);

    let key = Fingerprint::of(&spec, DEFAULT_CODE_SALT, std::any::type_name::<RunReport>());
    let store = ResultStore::open(&cache).unwrap();
    let shard = store.chunk_path(&key, 4, 8);
    let bytes = std::fs::read(&shard).unwrap();
    std::fs::write(&shard, &bytes[..bytes.len() / 2]).unwrap();

    let again = client.submit_and_wait(&spec, 8, 8, |_| {}).unwrap();
    assert_eq!((again.executed_trials, again.cached_trials), (4, 4));
    assert_eq!(
        serde_json::to_string(&cold.results).unwrap(),
        serde_json::to_string(&again.results).unwrap(),
        "the recomputed chunk has the cold run's bytes"
    );
    assert_eq!(std::fs::read(&shard).unwrap(), bytes, "the shard is rewritten whole");
    assert_eq!(counter(&handle, "jle_sweepd_unit_cache_hits_total"), 0);
    assert_eq!(counter(&handle, "jle_sweepd_jobs_completed_total"), 2);
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
    // Nor the other shapes only the experiments run.
    for proto in [
        json!({"proto": "lesk", "eps": 0.5f64, "divisor": 2.0f64}),
        json!({"proto": "arss", "gamma": 0.25f64}),
    ] {
        let mut params = election_params(32, 50_000, &AdversarySpec::passive(), 0.5);
        if let serde::Value::Map(m) = &mut params {
            m.retain(|(k, _)| k != "proto");
            m.push(("proto".into(), proto.clone()));
        }
        let err = client.submit(&WorkSpec::new("svc", "local-only", params, 5), 4).unwrap_err();
        assert!(matches!(err, ClientError::Unsupported(_)), "{proto:?}: {err:?}");
    }
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(cache);
}

#[test]
fn out_of_range_parameters_are_refused_at_submit() {
    let (handle, endpoint, cache) = start("out-of-range", |_| {});
    let mut client = SweepClient::connect(&endpoint).unwrap();
    // An eps LESK's constructor would panic on is refused at decode, with
    // an error frame, before any worker runs it.
    for eps in [2.0, -1.0] {
        let params = election_params(32, 50_000, &AdversarySpec::passive(), eps);
        let err = client.submit(&WorkSpec::new("svc", "eps", params, 5), 4).unwrap_err();
        match err {
            ClientError::Protocol(reason) => {
                assert!(reason.starts_with("invalid work") && reason.contains("`eps`"), "{reason}")
            }
            other => panic!("eps={eps}: expected an error frame, got {other:?}"),
        }
    }
    // The connection still serves.
    client.submit_and_wait(&quick_spec("after", 3), 4, 8, |_| {}).unwrap();
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

#[test]
fn a_hostile_trial_count_gets_an_error_and_the_daemon_keeps_serving() {
    use jle_sweepd::ServerFrame;
    use std::io::{BufRead, BufReader, Write};
    let (handle, endpoint, cache) = start("hostile-trials", |_| {});
    let Endpoint::Tcp(addr) = &endpoint else { unreachable!() };
    // 2^60 trials: laying out the unit's chunk list at admission would
    // ask for 2^59 bytes and abort the whole daemon.
    let mut hostile = std::net::TcpStream::connect(addr.as_str()).unwrap();
    hostile.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let line = submit_lines([(1, &quick_spec("hostile", 13), 4)]);
    let line = String::from_utf8(line)
        .unwrap()
        .replace(r#""trials":4"#, r#""trials":1152921504606846976"#);
    assert!(line.contains("1152921504606846976"), "{line}");
    hostile.write_all(line.as_bytes()).unwrap();
    let mut reader = BufReader::new(hostile);
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    match ServerFrame::parse(reply.trim()).unwrap() {
        ServerFrame::Error { reason, .. } => {
            assert!(reason.contains("`trials` must be ≤ 1048576"), "{reason}")
        }
        other => panic!("expected an error frame, got {other:?}"),
    }

    // The daemon is unharmed: another client still gets its result.
    let mut client = SweepClient::connect(&endpoint).unwrap();
    let out = client.submit_and_wait(&quick_spec("after-hostile", 13), 4, 8, |_| {}).unwrap();
    assert_eq!(out.reports().unwrap().len(), 4);
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(cache);
}

/// The soak: 16 clients send 200 submissions over 12 distinct 4-trial
/// units to a 4-worker daemon, walking the spec pool interleaved so that
/// concurrent clients keep colliding on fingerprints (in-flight dedup
/// early, store hits late), and retry on `rejected`. Every submission
/// ends with all its reports, and every answer for one key carries the
/// same bytes.
#[test]
fn the_mini_soak_drops_no_frame() {
    const SUBMISSIONS: u64 = 200;
    const CLIENTS: u64 = 16;
    const DISTINCT: u64 = 12;
    const TRIALS: u64 = 4;
    let (handle, endpoint, cache) = start("soak", |c| {
        c.workers = 4;
        c.max_queue = 256;
        c.client_share = 64;
    });
    let params = election_params(64, 100_000, &AdversarySpec::passive(), 0.5);
    let specs: Vec<WorkSpec> = (0..DISTINCT)
        .map(|k| {
            WorkSpec::new("soak", format!("lesk/clean/k={k}"), params.clone(), 10_000 + k * 1_000)
        })
        .collect();
    let answers = std::sync::Mutex::new(std::collections::BTreeMap::<String, Vec<String>>::new());
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (specs, answers, endpoint) = (&specs, &answers, &endpoint);
            scope.spawn(move || {
                let mut client = SweepClient::connect(endpoint).unwrap();
                client.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
                for i in SUBMISSIONS * c / CLIENTS..SUBMISSIONS * (c + 1) / CLIENTS {
                    let spec = &specs[((i * 7 + c * 3) % DISTINCT) as usize];
                    let submission = loop {
                        match client.submit(spec, TRIALS) {
                            Err(ClientError::Rejected { retry_after_ms, .. }) => {
                                std::thread::sleep(Duration::from_millis(
                                    retry_after_ms.clamp(5, 1_000),
                                ))
                            }
                            other => break other.expect("submission answered"),
                        }
                    };
                    let out = client.wait(&submission, |_| {}).expect("result arrives");
                    assert_eq!(out.reports().unwrap().len(), TRIALS as usize, "{}", submission.key);
                    let text = out.results.get().to_string();
                    answers.lock().unwrap().entry(submission.key).or_default().push(text);
                }
            });
        }
    });
    let answers = answers.into_inner().unwrap();
    assert_eq!(answers.len(), DISTINCT as usize);
    assert_eq!(answers.values().map(Vec::len).sum::<usize>(), SUBMISSIONS as usize);
    for (key, texts) in &answers {
        assert!(texts.iter().all(|t| *t == texts[0]), "the answers for {key} differ");
    }
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(cache);
}

/// A cancel that leaves a queued job with no subscriber takes it out of
/// the dedup table at once: the next identical submission computes
/// afresh instead of attaching to the cancelled job and being answered
/// `cancelled` itself.
#[test]
fn a_cancelled_queued_unit_does_not_swallow_the_next_submission() {
    let (handle, endpoint, cache) = start("orphan", |_| {});
    let mut blocker_client = SweepClient::connect(&endpoint).unwrap();
    let mut a = SweepClient::connect(&endpoint).unwrap();
    let mut b = SweepClient::connect(&endpoint).unwrap();
    let blocker = blocker_client.submit(&blocker_spec(), BLOCKER_TRIALS).unwrap();

    let spec = quick_spec("orphan", 4321);
    let sub_a = a.submit(&spec, 8).unwrap();
    a.cancel(&sub_a.key).unwrap();
    let sub_b = b.submit(&spec, 8).unwrap();
    let out = b.wait(&sub_b, |_| {}).expect("B gets its result");
    assert_eq!(out.reports().unwrap().len(), 8);
    assert!(!sub_b.dedup, "B must not attach to A's cancelled job");

    let _ = blocker_client.wait(&blocker, |_| {}).unwrap();
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(cache);
}

/// Two workers, one thread each: the blocker, picked up alone, computes
/// on both workers' threads. A distinct unit submitted meanwhile takes
/// the borrowed thread back at admission and is answered with the bytes
/// of a run on a one-worker daemon.
#[test]
fn a_distinct_unit_submitted_during_a_widened_job_is_answered() {
    let (handle, endpoint, cache) = start("widened", |c| {
        c.workers = 2;
        c.mc_jobs = 1;
    });
    let mut blocker_client = SweepClient::connect(&endpoint).unwrap();
    let mut client = SweepClient::connect(&endpoint).unwrap();
    let blocker = blocker_client.submit(&blocker_spec(), BLOCKER_TRIALS).unwrap();
    assert!(wait_until(Duration::from_secs(5), || {
        handle.registry().gauge("jle_sweepd_active_jobs", "").get() >= 1.0
    }));
    let threads = |h: &ServerHandle| {
        let hist = h.registry().histogram("jle_sweepd_job_threads", "");
        (hist.count(), hist.sum())
    };
    assert_eq!(threads(&handle), (1, 2), "the lone blocker borrows the idle worker's thread");

    let spec = quick_spec("behind-widened", 808);
    let queued = client.submit(&spec, 8).unwrap();
    assert!(!queued.dedup);
    assert_eq!(counter(&handle, "jle_sweepd_threads_reclaimed_total"), 1, "given back at once");
    let out = client.wait(&queued, |_| {}).expect("the queued unit is answered");
    assert_eq!((out.executed_trials, out.cached_trials), (8, 0));
    let _ = blocker_client.wait(&blocker, |_| {}).unwrap();
    assert_eq!(threads(&handle).0, 2);
    handle.shutdown().unwrap();

    let (narrow, narrow_endpoint, narrow_cache) = start("widened-narrow", |_| {});
    let mut client = SweepClient::connect(&narrow_endpoint).unwrap();
    let want = client.submit_and_wait(&spec, 8, 8, |_| {}).unwrap();
    assert_eq!(threads(&narrow), (1, 1), "one worker lends nothing");
    narrow.shutdown().unwrap();
    assert!(out.results.get() == want.results.get(), "the widened daemon's bytes differ");
    let _ = std::fs::remove_dir_all(cache);
    let _ = std::fs::remove_dir_all(narrow_cache);
}

/// A raw connection: the client side of the wire with nothing in between,
/// so a test sees every frame in the order the daemon wrote it.
struct Raw {
    reader: std::io::BufReader<std::net::TcpStream>,
    line: String,
}

impl Raw {
    fn connect(endpoint: &Endpoint) -> (Raw, std::net::TcpStream) {
        let Endpoint::Tcp(addr) = endpoint else { unreachable!() };
        let stream = std::net::TcpStream::connect(addr.as_str()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        let write_half = stream.try_clone().unwrap();
        (Raw { reader: std::io::BufReader::new(stream), line: String::new() }, write_half)
    }

    fn next(&mut self) -> jle_sweepd::ServerFrame {
        use std::io::BufRead;
        self.line.clear();
        let n = self.reader.read_line(&mut self.line).unwrap();
        assert!(n > 0, "the daemon closed the connection");
        jle_sweepd::ServerFrame::parse(self.line.trim_end()).unwrap()
    }
}

/// `submit` lines for `(id, spec, trials)`, newline-terminated, as one
/// buffer.
fn submit_lines<'a>(subs: impl IntoIterator<Item = (u64, &'a WorkSpec, u64)>) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (id, spec, trials) in subs {
        let frame = jle_sweepd::ClientFrame::Submit { id, spec: spec.clone(), trials, trace: None };
        bytes.extend_from_slice(frame.to_line().as_bytes());
        bytes.push(b'\n');
    }
    bytes
}

/// One connection runs a job whose `progress` frames the writer thread
/// writes while the reader writes the answers to served hits and to 200
/// tiny queued units, whose `result`s the writer writes too. Every frame
/// of every request must arrive in the order the core decided it: each
/// served `accepted` with its `result` right behind it, and no `progress`
/// or `result` ahead of its `accepted`.
#[test]
fn frames_leave_in_decision_order_across_reader_and_writer() {
    use jle_sweepd::ServerFrame;
    use std::io::Write;
    const SERVED: u64 = 40;
    const TINY: u64 = 200;
    let (handle, endpoint, cache) = start("order", |c| {
        c.workers = 2;
        c.mc_jobs = 1;
        c.chunk_size = 1;
        c.progress_every = Duration::ZERO;
        c.max_queue = 256;
        c.client_share = 256;
    });
    let (mut raw, mut write_half) = Raw::connect(&endpoint);
    let stored = quick_spec("order-stored", 31);
    write_half.write_all(&submit_lines([(1, &stored, 4)])).unwrap();
    let stored_bytes = loop {
        if let ServerFrame::Result { id: 1, results, .. } = raw.next() {
            break results;
        }
    };

    // Start the long job and wait for its first progress frame, so the
    // writer thread is streaming while the reader answers.
    write_half.write_all(&submit_lines([(2, &blocker_spec(), 8)])).unwrap();
    let mut frames = Vec::new();
    while !matches!(frames.last(), Some(ServerFrame::Progress { id: 2, .. })) {
        frames.push(raw.next());
    }
    let tiny: Vec<WorkSpec> =
        (0..TINY).map(|i| quick_spec(&format!("tiny-{i}"), 5_000 + i)).collect();
    let mut subs: Vec<(u64, &WorkSpec, u64)> = Vec::new();
    for i in 0..TINY {
        subs.push((1_000 + i, &tiny[i as usize], 1));
        if i % 5 == 0 {
            subs.push((100 + i / 5, &stored, 4));
        }
    }
    assert_eq!(subs.len() as u64, TINY + SERVED);
    let bytes = submit_lines(subs);
    let writer = std::thread::spawn(move || write_half.write_all(&bytes).unwrap());
    let mut pending = TINY + SERVED + 1;
    while pending > 0 {
        let frame = raw.next();
        if matches!(frame, ServerFrame::Result { .. }) {
            pending -= 1;
        }
        frames.push(frame);
    }
    writer.join().unwrap();

    let mut accepted = std::collections::BTreeSet::new();
    for (at, frame) in frames.iter().enumerate() {
        match frame {
            ServerFrame::Accepted { id, .. } => assert!(accepted.insert(*id), "second accepted"),
            ServerFrame::Progress { id, .. } | ServerFrame::Result { id, .. } => {
                assert!(accepted.contains(id), "frame {at} of request {id} before its accepted")
            }
            other => panic!("unexpected frame {other:?}"),
        }
        let served = (100..100 + SERVED).contains(&frame.id());
        if let (ServerFrame::Accepted { id, .. }, true) = (frame, served) {
            match frames.get(at + 1) {
                Some(ServerFrame::Result { id: next, executed_trials: 0, results, .. })
                    if next == id =>
                {
                    assert_eq!(results.get(), stored_bytes.get(), "served bytes differ")
                }
                other => panic!("served request {id}: accepted followed by {other:?}"),
            }
        }
    }
    let results = |ids: std::ops::Range<u64>| {
        frames
            .iter()
            .filter(|f| matches!(f, ServerFrame::Result { .. }) && ids.contains(&f.id()))
            .count() as u64
    };
    assert_eq!(results(100..100 + SERVED), SERVED);
    assert_eq!(results(1_000..1_000 + TINY), TINY);
    assert_eq!(results(2..3), 1);
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(cache);
}

/// A client that submits and never reads fills its socket, and the
/// daemon stops reading its requests instead of queueing its answers in
/// memory; another client is served meanwhile. Once the first client
/// reads, every answer arrives whole, in request order.
#[test]
fn a_client_that_stops_reading_stalls_only_itself() {
    use jle_sweepd::ServerFrame;
    use std::io::Write;
    const SUBMITS: u64 = 256;
    const TRIALS: u64 = 224;
    let (handle, endpoint, cache) = start("stalled", |_| {});
    let mut other = SweepClient::connect(&endpoint).unwrap();
    other.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let spec = quick_spec("stalled", 77);
    let cold = other.submit_and_wait(&spec, TRIALS, 8, |_| {}).unwrap();
    assert_eq!(cold.executed_trials, TRIALS);
    let submissions = || counter(&handle, "jle_sweepd_submissions_total");
    let before = submissions();

    let (mut raw, mut write_half) = Raw::connect(&endpoint);
    let bytes = submit_lines((1..=SUBMITS).map(|id| (id, &spec, TRIALS)));
    let writer = std::thread::spawn(move || {
        write_half.write_all(&bytes).unwrap();
        write_half
    });
    // The count settles once the daemon's write to the silent client
    // blocks, well before every answer is out.
    let mut last = (submissions(), Instant::now());
    while last.1.elapsed() < Duration::from_secs(2) {
        std::thread::sleep(Duration::from_millis(50));
        let now = submissions();
        if now != last.0 {
            last = (now, Instant::now());
        }
    }
    let stalled = last.0 - before;
    assert!(stalled > 0 && stalled < SUBMITS, "{stalled} of {SUBMITS} submissions read");

    // The other client is not held up.
    for _ in 0..4 {
        let started = Instant::now();
        let warm = other.submit_and_wait(&spec, TRIALS, 8, |_| {}).unwrap();
        assert!(started.elapsed() < Duration::from_secs(10));
        assert_eq!(warm.executed_trials, 0);
        assert!(warm.results.get() == cold.results.get(), "served bytes differ");
    }
    assert_eq!(submissions(), before + stalled + 4, "the silent client advanced");

    // Reading drains everything, in request order, byte-identical.
    for id in 1..=SUBMITS {
        match raw.next() {
            ServerFrame::Accepted { id: got, dedup: false, .. } if got == id => {}
            other => panic!("request {id}: expected accepted, got {other:?}"),
        }
        match raw.next() {
            ServerFrame::Result { id: got, executed_trials: 0, results, .. } if got == id => {
                assert!(results.get() == cold.results.get(), "request {id}: bytes differ")
            }
            other => panic!("request {id}: expected its result, got {other:?}"),
        }
    }
    assert_eq!(submissions(), before + SUBMITS + 4);
    drop(writer.join().unwrap());
    drop(raw);
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(cache);
}
