//! `sweepd_mixed`: a closed loop of client connections against an
//! in-process `jle-sweepd`.
//!
//! Each connection waits for every reply before sending the next
//! submission, as `experiments --server` does. About 95% of submissions
//! repeat a warm pool that set-up fills (admission → store → deliver);
//! every twentieth is a fresh `exact_election` unit that all connections
//! submit together (a barrier lines them up), so one submission executes
//! it batched and the others land on in-flight dedup. `latency_p50_ms`
//! therefore reads the hit path and `latency_p99_ms` the execute path.

use crate::exec::{self, Orchestrators};
use crate::fold;
use crate::metrics::Metrics;
use crate::pctl;
use crate::spec::{self, Family, Unit};
use crate::sys;
use crate::Run;
use jle_engine::RunReport;
use jle_orchestrator::ResultStore;
use jle_sweepd::client::ClientError;
use jle_sweepd::{Endpoint, ServerConfig, ServerHandle, SweepClient, SweepServer};
use jle_telemetry::metrics::SampleValue;
use jle_telemetry::{MetricsSnapshot, SpanRecorder};
use serde::Value;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Nominal submissions per second of the whole loop on a 2-core box;
/// with `--seconds` it fixes the loop length (see `COLD_PASS_S`).
const NOMINAL_RATE: f64 = 350.0;
/// One submission in `FRESH_EVERY` is a fresh unit.
const FRESH_EVERY: usize = 20;
/// Backpressure retries before a submission counts as refused.
const MAX_RETRIES: u32 = 32;
/// Pool replies compared byte for byte: one in `DIGEST_EVERY` (fresh
/// replies always). Digesting every reply would add client work that
/// `experiments --server` does not do.
const DIGEST_EVERY: usize = 16;

/// A running daemon with its store.
struct Daemon {
    handle: ServerHandle,
    endpoint: Endpoint,
    store: ResultStore,
}

fn start(run: &Run, dir: &std::path::Path) -> Daemon {
    let config = ServerConfig {
        cache_dir: Some(dir.to_path_buf()),
        workers: run.workers,
        mc_jobs: 1,
        ..ServerConfig::default()
    };
    let server =
        SweepServer::bind(&Endpoint::Tcp("127.0.0.1:0".into()), config).expect("bind the daemon");
    let addr = server.tcp_addr().expect("tcp address");
    let store = ResultStore::open(dir).expect("open the daemon's store");
    Daemon { handle: server.spawn(), endpoint: Endpoint::Tcp(addr.to_string()), store }
}

/// What one submission came back with.
struct Reply {
    unit: usize,
    latency_ms: f64,
    first_event_ms: f64,
    dedup: bool,
    executed_trials: u64,
    /// Report digest, for the replies the loop compares.
    digest: Option<String>,
    /// Reports of the replies that executed their unit.
    executed: Option<Vec<RunReport>>,
}

/// Submit with backpressure retries, then wait for the result frame.
fn submit(
    client: &mut SweepClient,
    unit: &Unit,
) -> Result<(f64, bool, jle_sweepd::SweepOutcome), String> {
    let started = Instant::now();
    let mut attempt = 0;
    let submission = loop {
        match client.submit(&unit.spec, unit.trials) {
            Ok(s) => break s,
            Err(ClientError::Rejected { retry_after_ms, .. }) if attempt < MAX_RETRIES => {
                attempt += 1;
                std::thread::sleep(Duration::from_millis(retry_after_ms.clamp(10, 2_000)));
            }
            Err(e) => return Err(format!("{}: {e}", unit.spec.point)),
        }
    };
    let first_event_ms = started.elapsed().as_secs_f64() * 1e3;
    let outcome =
        client.wait(&submission, |_| {}).map_err(|e| format!("{}: {e}", unit.spec.point))?;
    Ok((first_event_ms, submission.dedup, outcome))
}

/// Check one result against its unit. The client decodes every reply,
/// as `experiments --server` does.
fn reply(
    unit_index: usize,
    unit: &Unit,
    started: Instant,
    got: (f64, bool, jle_sweepd::SweepOutcome),
    want_digest: bool,
) -> Result<Reply, String> {
    let latency_ms = started.elapsed().as_secs_f64() * 1e3;
    let (first_event_ms, dedup, outcome) = got;
    let reports = outcome.reports().map_err(|e| format!("{}: {e}", unit.spec.point))?;
    exec::check_unit(unit, &reports)?;
    let executed = outcome.executed_trials > 0 && !dedup;
    Ok(Reply {
        unit: unit_index,
        latency_ms,
        first_event_ms,
        dedup,
        executed_trials: outcome.executed_trials,
        digest: want_digest.then(|| exec::digest(&reports)),
        executed: executed.then_some(reports),
    })
}

/// Drive `units[schedule[c][i]]` from connection `c`, closed loop. Fresh
/// submissions (`fresh[c][i]`) wait at a barrier for every connection.
/// Fresh replies, and every `digest_every`-th other one, are digested.
fn closed_loop(
    clients: &mut [SweepClient],
    units: &[Unit],
    schedule: &[Vec<usize>],
    fresh: &[Vec<bool>],
    digest_every: usize,
) -> (f64, f64, Vec<Vec<Result<Reply, String>>>) {
    let barrier = Barrier::new(clients.len());
    let (cpu0, wall0) = (sys::cpu_seconds(), Instant::now());
    let replies = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let tracer = client.tracer().clone();
                    let mut out = Vec::with_capacity(schedule[c].len());
                    for (i, &u) in schedule[c].iter().enumerate() {
                        if fresh[c][i] {
                            barrier.wait();
                        }
                        let _span = tracer.span("bench", "submission");
                        let started = Instant::now();
                        let want_digest = fresh[c][i] || i % digest_every == 0;
                        let got = submit(client, &units[u])
                            .and_then(|g| reply(u, &units[u], started, g, want_digest));
                        out.push(got);
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect::<Vec<_>>()
    });
    (wall0.elapsed().as_secs_f64(), sys::cpu_seconds() - cpu0, replies)
}

fn counter(s: &MetricsSnapshot, name: &str) -> u64 {
    s.metrics
        .iter()
        .find(|m| m.name == name)
        .and_then(|m| match &m.sample {
            SampleValue::Counter(v) => Some(*v),
            _ => None,
        })
        .unwrap_or(0)
}

fn buckets(s: &MetricsSnapshot, name: &str) -> Vec<u64> {
    s.metrics
        .iter()
        .find(|m| m.name == name)
        .and_then(|m| match &m.sample {
            SampleValue::Histogram { buckets, .. } => Some(buckets.clone()),
            _ => None,
        })
        .unwrap_or_default()
}

/// The loop's schedule for `connections` connections of `per_conn`
/// submissions: pool units drawn by a seeded generator, and fresh unit
/// `j` at position `j·FRESH_EVERY + FRESH_EVERY/2` of every connection.
fn schedule(
    seed: u64,
    connections: usize,
    per_conn: usize,
    pool: usize,
    fresh_base: usize,
) -> (Vec<Vec<usize>>, Vec<Vec<bool>>) {
    let mut units = vec![Vec::with_capacity(per_conn); connections];
    let mut fresh = vec![Vec::with_capacity(per_conn); connections];
    for c in 0..connections {
        let stream = seed ^ (c as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F);
        for i in 0..per_conn {
            let is_fresh = i % FRESH_EVERY == FRESH_EVERY / 2;
            units[c].push(if is_fresh {
                fresh_base + i / FRESH_EVERY
            } else {
                (spec::mix(stream, i as u64) % pool as u64) as usize
            });
            fresh[c].push(is_fresh);
        }
    }
    (units, fresh)
}

/// Set-up: start a daemon on a fresh store and fill the warm pool
/// through the connections. Returns the daemon, its clients and each
/// pool unit's report digest.
fn setup(run: &mut Run, units: &[Unit], pool: usize) -> (Daemon, Vec<SweepClient>, Vec<String>) {
    let daemon = start(run, &run.dir(&format!("daemon-{}", run.setup_round)));
    let mut clients: Vec<SweepClient> = (0..run.connections)
        .map(|_| SweepClient::connect(&daemon.endpoint).expect("connect to the daemon"))
        .collect();
    let n = run.connections;
    let schedule: Vec<Vec<usize>> = (0..n).map(|c| (c..pool).step_by(n).collect()).collect();
    let fresh: Vec<Vec<bool>> = schedule.iter().map(|s| vec![false; s.len()]).collect();
    let (_, _, replies) = closed_loop(&mut clients, units, &schedule, &fresh, 1);
    let mut digests = vec![String::new(); pool];
    for r in replies.into_iter().flatten() {
        run.attempted += 1;
        match r {
            Ok(r) => digests[r.unit] = r.digest.unwrap_or_default(),
            Err(e) => run.fail(e),
        }
    }
    (daemon, clients, digests)
}

fn stop(daemon: Daemon, clients: Vec<SweepClient>) {
    drop(clients);
    daemon.handle.shutdown().expect("daemon shutdown");
}

/// Results of one measured loop.
struct Loop {
    wall_s: f64,
    cpu_s: f64,
    replies: Vec<Reply>,
    before: MetricsSnapshot,
    after: MetricsSnapshot,
    /// Distinct units submitted.
    submitted: Vec<usize>,
}

fn measure(
    run: &mut Run,
    daemon: &Daemon,
    clients: &mut [SweepClient],
    units: &[Unit],
    digests: &mut [String],
    plan: &(Vec<Vec<usize>>, Vec<Vec<bool>>),
) -> Loop {
    let registry = daemon.handle.registry();
    let before = registry.snapshot();
    let (wall_s, cpu_s, replies) = closed_loop(clients, units, &plan.0, &plan.1, DIGEST_EVERY);
    let after = registry.snapshot();
    let mut ok = Vec::new();
    for r in replies.into_iter().flatten() {
        run.attempted += 1;
        match r {
            // Every reply for a key must carry the bytes the first one
            // (or the set-up fill) carried.
            Ok(r) => match &r.digest {
                Some(d) if digests[r.unit].is_empty() => {
                    digests[r.unit] = d.clone();
                    ok.push(r);
                }
                Some(d) if *d != digests[r.unit] => run.fail(format!(
                    "{}: reply differs from an earlier reply",
                    units[r.unit].spec.point
                )),
                _ => ok.push(r),
            },
            Err(e) => run.fail(e),
        }
    }
    // Local and service runs address the same fingerprints: every unit
    // the loop submitted is stored under its local cache key.
    let mut submitted: Vec<usize> = plan.0.iter().flatten().copied().collect();
    submitted.sort_unstable();
    submitted.dedup();
    for &u in &submitted {
        let unit = &units[u];
        let key = exec::cache_key(&unit.spec);
        let end = unit.trials.min(jle_orchestrator::DEFAULT_CHUNK_SIZE);
        if !daemon.store.chunk_path(&key, 0, end).is_file() {
            run.fail(format!("{}: not stored under its local fingerprint", unit.spec.point));
        }
    }
    Loop { wall_s, cpu_s, replies: ok, before, after, submitted }
}

/// Local results for a sample of submitted units — fresh units re-run
/// per trial through `build_trial_fn`, pool units through a local
/// orchestrator — must match the daemon's bytes.
fn check_against_local(
    run: &mut Run,
    units: &[Unit],
    digests: &[String],
    pool: usize,
    fresh: std::ops::Range<usize>,
) {
    let mut sample: Vec<usize> =
        Family::ALL.iter().filter_map(|f| (0..pool).find(|&i| units[i].family == *f)).collect();
    sample.extend(fresh.take(3));
    let scratch = ResultStore::open(run.dir("local-check")).expect("open the local check store");
    let orchs = Orchestrators::new(&scratch, 1, &SpanRecorder::disabled());
    for i in sample {
        run.attempted += 1;
        let unit = &units[i];
        let local = if i < pool {
            exec::prepare(vec![unit.clone()]).map(|p| exec::run_unit(&orchs, &p[0], None, 0))
        } else {
            exec::per_trial_reference(unit)
        };
        match local {
            Ok(_) if digests[i].is_empty() => {
                run.fail(format!("{}: no daemon reply to compare", unit.spec.point));
            }
            Ok(reports) if exec::digest(&reports) == digests[i] => {}
            Ok(_) => run.fail(format!("{}: daemon bytes differ from local", unit.spec.point)),
            Err(e) => run.fail(e),
        }
    }
}

fn hist_p50(l: &Loop, name: &str) -> f64 {
    let (b, a) = (buckets(&l.before, name), buckets(&l.after, name));
    let delta: Vec<u64> =
        a.iter().enumerate().map(|(i, v)| v - b.get(i).copied().unwrap_or(0)).collect();
    pctl::histogram_median(&delta).unwrap_or(0.0)
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    run: &mut Run,
    m: &mut Metrics,
    l: &Loop,
    daemon: &Daemon,
    recorders: &[SpanRecorder],
    windows: &[(u64, u64)],
    units: &[Unit],
    baseline_s: f64,
) {
    let d = |name: &str| (counter(&l.after, name) - counter(&l.before, name)) as f64;
    let submissions = d("jle_sweepd_submissions_total");
    m.set("sweepd.submissions", submissions);
    m.set("sweepd.dedup_hits", d("jle_sweepd_dedup_hits_total"));
    m.set("sweepd.unit_cache_hits", d("jle_sweepd_unit_cache_hits_total"));
    m.set(
        "sweepd.jobs_executed",
        d("jle_sweepd_jobs_completed_total") - d("jle_sweepd_unit_cache_hits_total"),
    );
    m.set(
        "sweepd.rejected",
        d("jle_sweepd_rejected_queue_full_total") + d("jle_sweepd_rejected_fair_share_total"),
    );
    m.set("sweepd.jobs_failed", d("jle_sweepd_jobs_failed_total"));
    let replies = l.replies.len().max(1) as f64;
    m.set(
        "sweepd.cache_served_ratio",
        l.replies.iter().filter(|r| r.executed_trials == 0).count() as f64 / replies,
    );
    m.set("sweepd.dedup_ratio", l.replies.iter().filter(|r| r.dedup).count() as f64 / replies);
    for (metric, hist) in [
        ("sweepd.queue_wait_us.p50", "jle_sweepd_queue_wait_us"),
        ("sweepd.execute_us.p50", "jle_sweepd_execute_us"),
        ("sweepd.deliver_us.p50", "jle_sweepd_deliver_us"),
        ("sweepd.dedup_shortcircuit_us.p50", "jle_sweepd_dedup_shortcircuit_us"),
    ] {
        m.set(metric, hist_p50(l, hist));
    }
    let first: Vec<f64> = l.replies.iter().map(|r| r.first_event_ms).collect();
    if let Ok(p) = pctl::percentile(&first, 0.5) {
        m.set("client.first_event_ms.p50", p.value);
    }

    m.set("orchestrator.units", d("jle_orchestrator_units"));
    m.set("orchestrator.chunk_hits", d("jle_orchestrator_chunk_hits"));
    m.set("orchestrator.chunk_misses", d("jle_orchestrator_chunk_misses"));
    m.set("orchestrator.executed_trials", d("jle_orchestrator_executed_trials"));
    m.set("orchestrator.cached_trials", d("jle_orchestrator_cached_trials"));
    m.set("orchestrator.fanout_threads", d("jle_orchestrator_chunk_misses"));

    // Engine work the daemon did, from the replies that executed it and
    // from the engine spans it returned with them.
    let (mut trials, mut slots, mut resolved, mut cap, mut jammed, mut coll) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for reports in l.replies.iter().filter_map(|r| r.executed.as_ref()) {
        for rep in reports {
            trials += 1;
            slots += rep.slots;
            resolved += u64::from(exec::resolved(rep));
            cap += u64::from(rep.cap_hit);
            jammed += rep.counts.jammed;
            coll += rep.counts.collisions - rep.counts.jammed;
        }
    }
    m.set("engine.batch.trials", trials as f64);
    m.set("engine.batch.slots", slots as f64);
    m.set("engine.resolved_ratio", resolved as f64 / trials.max(1) as f64);
    m.set("engine.cap_hits", cap as f64);
    m.set("adversary.jammed_slots", jammed as f64);
    m.set("radio.collision_slots", coll as f64);

    let mut table: Option<fold::Table> = None;
    let (mut batch_us, mut batch_calls, mut cohort_us, mut spans) = (0u64, 0u64, 0u64, 0usize);
    for (rec, &(from, to)) in recorders.iter().zip(windows) {
        let events = rec.export_events();
        spans += rec.len();
        // A deduped subscriber receives the executing job's spans too;
        // count engine time once, on the connection whose trace ran it.
        let own = rec.trace().map(|c| format!("{:016x}", c.trace_id));
        for e in events.as_seq().map_or(&[][..], |s| s) {
            let trace = e.get("args").and_then(|a| a.get("trace")).and_then(Value::as_str);
            if e.get("cat").and_then(Value::as_str) != Some("engine") || trace != own.as_deref() {
                continue;
            }
            let dur = e.get("dur").and_then(Value::as_u64).unwrap_or(0);
            match e.get("name").and_then(Value::as_str) {
                Some(n) if n.starts_with("batch:") => {
                    batch_us += dur;
                    batch_calls += 1;
                }
                Some(_) => cohort_us += dur,
                None => {}
            }
        }
        let t = fold::fold(&events, from, to);
        table = Some(match table {
            Some(acc) => acc.merge(&t),
            None => t,
        });
    }
    m.set("engine.batch.busy_s", batch_us as f64 * 1e-6);
    m.set("engine.cohort.busy_s", cohort_us as f64 * 1e-6);
    m.set("engine.batch.mean_width", trials as f64 / batch_calls.max(1) as f64);
    let table = table.expect("at least one connection");
    run.record_fold(m, &table);
    m.set("telemetry.trace_overhead", l.wall_s / baseline_s - 1.0);
    m.set("telemetry.spans", spans as f64);
    run.write_trace(&recorders[0], &table);

    // Fingerprinting and the store, measured directly over the units
    // this loop submitted.
    let orchs = Orchestrators::new(&daemon.store, 1, &SpanRecorder::disabled());
    let started = Instant::now();
    for &i in &l.submitted {
        std::hint::black_box(orchs.fingerprint(&units[i].spec));
    }
    m.set("orchestrator.fingerprint_s", started.elapsed().as_secs_f64());
    let chunk_set: Vec<&Unit> = l.submitted.iter().map(|&i| &units[i]).collect();
    run.probe_store(m, &daemon.store, &chunk_set);
}

pub fn sweepd_mixed(run: &mut Run, m: &mut Metrics) {
    let per_conn =
        ((run.seconds * NOMINAL_RATE) as usize / run.connections).max(1_000 / run.connections + 1);
    let fresh_per_loop = per_conn.div_ceil(FRESH_EVERY);
    // The pool is every sweepd-supported unit of the reference sweep;
    // fresh units follow it, two loops' worth.
    let mut units: Vec<Unit> = spec::reference_sweep(run.seed)
        .into_iter()
        .filter(|u| u.family != Family::Multihop)
        .collect();
    let pool = units.len();
    units.extend(spec::fresh_units(run.seed, 2 * fresh_per_loop));

    let mut kept = None;
    for round in 0..if run.traced { 1 } else { crate::SETUP_ROUNDS } {
        run.setup_round = round;
        let started = Instant::now();
        let (daemon, clients, digests) = setup(run, &units, pool);
        run.record_setup(started);
        if let Some((old_daemon, old_clients, _)) = kept.replace((daemon, clients, digests)) {
            stop(old_daemon, old_clients);
        }
    }
    let (daemon, mut clients, pool_digests) = kept.expect("set-up ran");
    let mut digests = pool_digests;
    digests.resize(units.len(), String::new());

    let plan = schedule(run.seed, run.connections, per_conn, pool, pool);
    let measured = measure(run, &daemon, &mut clients, &units, &mut digests, &plan);
    check_against_local(run, &units, &digests, pool, pool..pool + fresh_per_loop);

    if run.traced {
        for c in clients.iter_mut() {
            c.enable_tracing();
        }
        let recorders: Vec<SpanRecorder> = clients.iter().map(|c| c.tracer().clone()).collect();
        let plan = schedule(run.seed ^ 1, run.connections, per_conn, pool, pool + fresh_per_loop);
        let from: Vec<u64> = recorders.iter().map(SpanRecorder::now_us).collect();
        let traced = measure(run, &daemon, &mut clients, &units, &mut digests, &plan);
        let windows: Vec<(u64, u64)> =
            recorders.iter().zip(from).map(|(r, f)| (f, r.now_us())).collect();
        per_layer(run, m, &traced, &daemon, &recorders, &windows, &units, measured.wall_s);
    } else {
        let n = measured.replies.len() as f64;
        m.set("sweep_s", measured.wall_s);
        m.set("cpu_s", measured.cpu_s);
        m.set("submissions_per_s", n / measured.wall_s);
        let latencies: Vec<f64> = measured.replies.iter().map(|r| r.latency_ms).collect();
        run.latency(m, &latencies);
    }
    stop(daemon, clients);
}
