//! Criterion: per-slot simulation cost — cohort (n-independent) vs the
//! per-station fast-exact backend (O(awake) per slot). Counterpart of
//! experiment E15(b). Every arm builds
//! its stations and buffers fresh for each run, as the experiments, the
//! orchestrator and `jle-sweepd` do.
//!
//! `warm_path` times the two non-engine layers a warm re-run spends its
//! time in: the bootstrap median CI and the store's chunk decode, plus
//! the JSON tokenizer on its own (`validate_reports`).
//! `sweepd_frames` times the deliver layer of a `jle-sweepd` cache hit:
//! rendering one result frame and parsing it back into reports, and the
//! whole served round trip over loopback through an in-process daemon.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use jle_adversary::{AdversarySpec, JamStrategyKind, Rate};
use jle_analysis::median_ci;
use jle_engine::{
    run_batch_uniform, run_cohort, run_fast_exact, CohortStations, EngineMetrics, PerStation,
    RunReport, SimConfig, SimCore, TelemetryObserver, UniformProtocol,
};
use jle_orchestrator::{Fingerprint, ResultStore, WorkSpec, DEFAULT_CODE_SALT};
use jle_protocols::{ElectionKind, ElectionParams, LeskProtocol, ProtoParams};
use jle_radio::{CdModel, ChannelState};
use jle_sweepd::{Endpoint, ServerConfig, ServerFrame, SweepClient, SweepOutcome, SweepServer};
use jle_telemetry::MetricRegistry;
use serde::Serialize;
use serde_json::value::{to_raw_value, RawValue};
use std::hint::black_box;
use std::sync::Arc;

/// Never-resolving workload: every station always transmits.
#[derive(Debug, Clone)]
struct AlwaysCollide;
impl UniformProtocol for AlwaysCollide {
    fn tx_prob(&mut self, _: u64) -> f64 {
        1.0
    }
    fn on_state(&mut self, _: u64, _: ChannelState) {}
}

fn sat() -> AdversarySpec {
    AdversarySpec::new(Rate::from_f64(0.5), 64, JamStrategyKind::Saturating)
}

fn bench_cohort(c: &mut Criterion) {
    let mut group = c.benchmark_group("cohort_slots");
    const SLOTS: u64 = 50_000;
    group.throughput(Throughput::Elements(SLOTS));
    for k in [10u32, 16, 20] {
        let n = 1u64 << k;
        group.bench_with_input(BenchmarkId::new("fresh", n), &n, |b, &n| {
            let adv = sat();
            b.iter(|| {
                let config = SimConfig::new(n, CdModel::Strong).with_seed(7).with_max_slots(SLOTS);
                black_box(run_cohort(&config, &adv, || AlwaysCollide))
            })
        });
    }
    group.finish();
}

fn bench_exact_short(c: &mut Criterion) {
    // Election-scale runs: a jammed election resolves in tens of slots,
    // so Monte-Carlo loops run *short* simulations back to back and
    // per-run setup — n station boxes allocated, initialized, and dropped,
    // plus the wake calendar and history ring — is a real fraction of the
    // work. `fast_exact/1024` is gated by `bench_gate`, and it is the
    // single-trial baseline the batched backend is measured against (see
    // `batch_throughput` below and the `batch_speedup` gate arm).
    let mut group = c.benchmark_group("exact_short_runs");
    const SLOTS: u64 = 16;
    group.sample_size(30);
    group.throughput(Throughput::Elements(SLOTS));
    for k in [8u32, 10] {
        let n = 1u64 << k;
        group.bench_with_input(BenchmarkId::new("fast_exact", n), &n, |b, &n| {
            let adv = sat();
            b.iter(|| {
                let config = SimConfig::new(n, CdModel::Strong).with_seed(7).with_max_slots(SLOTS);
                black_box(run_fast_exact(&config, &adv, |_| {
                    Box::new(PerStation::new(AlwaysCollide))
                }))
            })
        });
    }
    group.finish();
}

fn bench_batch_throughput(c: &mut Criterion) {
    // The batched backend vs the same K trials run one at a time through
    // the fast-exact backend, in two regimes. Throughput is in trials.
    //
    // * `per_trial` / `batch`: `AlwaysCollide` keeps every trial alive
    //   for the full slot budget on the degenerate `p == 1.0` word path,
    //   so both arms do K × SLOTS slots of work and the ratio is pure
    //   backend overhead. No per-station draw runs here; the acceptance
    //   bar (>= 10x) is gated by `bench_gate`'s fixed batch_speedup
    //   floor and recorded in results/BENCH.json.
    // * `lesk_per_trial` / `lesk_batch`: LESK (ε = 0.5) at n = 256 under
    //   saturating jamming, run to resolution — the shape of a sweepd
    //   fresh `exact_election` unit. Nearly every slot has 0 < p < 1, so
    //   this pair times the batch backend's per-station draw kernel.
    let mut group = c.benchmark_group("batch_throughput");
    const SLOTS: u64 = 16;
    const TRIALS: u64 = 256;
    group.sample_size(30);
    group.throughput(Throughput::Elements(TRIALS));
    let seeds: Vec<u64> = (0..TRIALS).map(|t| 7 + t).collect();
    for k in [8u32, 10] {
        let n = 1u64 << k;
        group.bench_with_input(BenchmarkId::new("per_trial", n), &n, |b, &n| {
            let adv = sat();
            b.iter(|| {
                for &seed in &seeds {
                    let config =
                        SimConfig::new(n, CdModel::Strong).with_seed(seed).with_max_slots(SLOTS);
                    black_box(run_fast_exact(&config, &adv, |_| {
                        Box::new(PerStation::new(AlwaysCollide))
                    }));
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("batch", n), &n, |b, &n| {
            let adv = sat();
            b.iter(|| {
                let config = SimConfig::new(n, CdModel::Strong).with_max_slots(SLOTS);
                black_box(run_batch_uniform(&config, &adv, &seeds, || AlwaysCollide))
            })
        });
    }
    const LESK_MAX_SLOTS: u64 = 50_000;
    let n = 256u64;
    group.bench_with_input(BenchmarkId::new("lesk_per_trial", n), &n, |b, &n| {
        let adv = sat();
        b.iter(|| {
            for &seed in &seeds {
                let config = SimConfig::new(n, CdModel::Strong)
                    .with_seed(seed)
                    .with_max_slots(LESK_MAX_SLOTS);
                black_box(run_fast_exact(&config, &adv, |_| {
                    Box::new(PerStation::new(LeskProtocol::new(0.5)))
                }));
            }
        })
    });
    group.bench_with_input(BenchmarkId::new("lesk_batch", n), &n, |b, &n| {
        let adv = sat();
        b.iter(|| {
            let config = SimConfig::new(n, CdModel::Strong).with_max_slots(LESK_MAX_SLOTS);
            black_box(run_batch_uniform(&config, &adv, &seeds, || LeskProtocol::new(0.5)))
        })
    });
    group.finish();
}

/// Sleep-heavy, never-resolving workload for the fast backend: awake one
/// slot in `period` (always transmitting — 1024 awake stations collide
/// forever, so runs always walk the full slot budget), asleep otherwise,
/// with an honest `wake_hint`. The active-set backend touches only the
/// awake `n/period` stations per slot.
#[derive(Debug)]
struct DutySleeper {
    period: u64,
    phase: u64,
}

impl jle_engine::Protocol for DutySleeper {
    fn act(&mut self, slot: u64, _: &mut dyn rand::RngCore) -> jle_engine::Action {
        if slot % self.period == self.phase {
            jle_engine::Action::Transmit
        } else {
            jle_engine::Action::Sleep
        }
    }
    fn feedback(&mut self, _: u64, _: bool, _: jle_radio::Observation) {}
    fn status(&self) -> jle_engine::Status {
        jle_engine::Status::Running
    }
    fn wake_hint(&self, slot: u64) -> u64 {
        let next = slot + 1;
        next + (self.phase + self.period - next % self.period) % self.period
    }
}

fn bench_fast_exact(c: &mut Criterion) {
    // The active-set backend on a duty-cycled (sleep-heavy) network; the
    // recorded figures in results/BENCH.json track the trajectory.
    let mut group = c.benchmark_group("fast_exact");
    const SLOTS: u64 = 256;
    const PERIOD: u64 = 64;
    group.throughput(Throughput::Elements(SLOTS));
    let factory = |i: u64| {
        Box::new(DutySleeper { period: PERIOD, phase: i % PERIOD }) as Box<dyn jle_engine::Protocol>
    };
    {
        let n = 1u64 << 16;
        group.bench_with_input(BenchmarkId::new("fast", n), &n, |b, &n| {
            let adv = sat();
            b.iter(|| {
                let config = SimConfig::new(n, CdModel::Strong).with_seed(7).with_max_slots(SLOTS);
                black_box(run_fast_exact(&config, &adv, factory))
            })
        });
    }
    // Million-station arm: a backend stepping every station every slot
    // would do ~64x the work here.
    let n = 1u64 << 20;
    group.bench_with_input(BenchmarkId::new("fast", n), &n, |b, &n| {
        let adv = sat();
        b.iter(|| {
            let config = SimConfig::new(n, CdModel::Strong).with_seed(7).with_max_slots(SLOTS);
            black_box(run_fast_exact(&config, &adv, factory))
        })
    });
    group.finish();
}

fn bench_telemetry(c: &mut Criterion) {
    // A/B for the telemetry tax on the hot loop, same machine, same
    // binary. `disabled` is the default path every Monte-Carlo trial
    // takes (no observer attached — the per-slot cost is an iteration
    // over an empty observer list), and is the arm held to the <2%
    // regression budget against the pre-telemetry baseline in
    // results/BENCH.json. `enabled` attaches the full stack — slot ring,
    // engine metric counters, per-slot channel-state tallies — and is
    // expected to cost real time on this cheapest-possible workload
    // (~20 ns/slot); it is recorded to keep the enabled tax honest, not
    // held to the 2% budget.
    let mut group = c.benchmark_group("telemetry_cohort");
    const SLOTS: u64 = 50_000;
    const N: u64 = 1 << 16;
    group.throughput(Throughput::Elements(SLOTS));
    group.bench_function(BenchmarkId::new("disabled", N), |b| {
        let adv = sat();
        b.iter(|| {
            let config = SimConfig::new(N, CdModel::Strong).with_seed(7).with_max_slots(SLOTS);
            black_box(run_cohort(&config, &adv, || AlwaysCollide))
        })
    });
    group.bench_function(BenchmarkId::new("enabled", N), |b| {
        let adv = sat();
        let registry = MetricRegistry::new();
        let metrics = EngineMetrics::register(&registry);
        b.iter(|| {
            let config = SimConfig::new(N, CdModel::Strong).with_seed(7).with_max_slots(SLOTS);
            let mut obs = TelemetryObserver::new(&config).with_metrics(metrics.clone());
            let mut stations = CohortStations::new(AlwaysCollide);
            black_box(SimCore::new(&config, &adv).observe(&mut obs).run(&mut stations))
        })
    });
    group.finish();
}

fn bench_warm_path(c: &mut Criterion) {
    // The two layers a warm re-run spends its time in, below the
    // end-to-end `sweep_warm` number: the bootstrap median CI every
    // jammed unit reports (n = trials per unit in the reference sweep),
    // and decoding one 32-trial chunk of real reports from the store.
    let mut group = c.benchmark_group("warm_path");
    for n in [24usize, 96, 224] {
        // Slot counts as election runtimes look: small integers, many ties.
        let xs: Vec<f64> = (0..n as u64).map(|i| (20 + (i * 7919) % 37) as f64).collect();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("median_ci", n), &xs, |b, xs| {
            b.iter(|| black_box(median_ci(black_box(xs), 0.95, 7)))
        });
    }
    const TRIALS: u64 = 32;
    let dir = std::env::temp_dir().join(format!("jle-bench-warm-path-{}", std::process::id()));
    let store = ResultStore::open(&dir).expect("open the bench store");
    let spec = WorkSpec::new("bench", "warm_path", serde_json::json!({"n": 1024u64}), 0);
    let key = Fingerprint::of(&spec, DEFAULT_CODE_SALT, std::any::type_name::<RunReport>());
    let reports: Vec<RunReport> = (0..TRIALS)
        .map(|seed| {
            let config = SimConfig::new(1024, CdModel::Strong).with_seed(seed).with_max_slots(4096);
            run_cohort(&config, &sat(), || LeskProtocol::new(0.5))
        })
        .collect();
    store.write_chunk(&key, 0, TRIALS, &reports).expect("write the bench chunk");
    group.throughput(Throughput::Elements(TRIALS));
    group.bench_function(BenchmarkId::new("load_chunk", TRIALS), |b| {
        b.iter(|| black_box(store.load_chunk::<RunReport>(&key, 0, TRIALS).expect("intact chunk")))
    });
    // Decoding alone, on one 224-trial report array: the reader `from_str`
    // takes.
    const DECODE_TRIALS: u64 = 224;
    let reports: Vec<RunReport> = (0..DECODE_TRIALS)
        .map(|seed| {
            let config = SimConfig::new(1024, CdModel::Strong).with_seed(seed).with_max_slots(4096);
            run_cohort(&config, &sat(), || LeskProtocol::new(0.5))
        })
        .collect();
    let text = serde_json::to_string(&reports).expect("render the reports");
    group.throughput(Throughput::Elements(DECODE_TRIALS));
    group.bench_function(BenchmarkId::new("decode_reports", DECODE_TRIALS), |b| {
        b.iter(|| black_box(serde_json::from_str::<Vec<RunReport>>(black_box(&text)).unwrap()))
    });
    // The same reports with every object's keys in reverse order: the
    // derived reader guesses each next key in declaration order, so here
    // every guess misses and each key goes by its name.
    let mut shuffled = reports.to_json_value();
    reverse_keys(&mut shuffled);
    let shuffled = serde_json::to_string(&shuffled).expect("render the shuffled reports");
    group.bench_function(BenchmarkId::new("decode_reports_shuffled", DECODE_TRIALS), |b| {
        b.iter(|| black_box(serde_json::from_str::<Vec<RunReport>>(black_box(&shuffled)).unwrap()))
    });
    // Validating the same array into a `RawValue`, as a client checks a
    // result frame's payload: the tokenizer alone, no report is built.
    group.bench_function(BenchmarkId::new("validate_reports", DECODE_TRIALS), |b| {
        b.iter(|| black_box(serde_json::from_str::<Box<RawValue>>(black_box(&text)).unwrap()))
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reverse the order of the keys of every object in `v`.
fn reverse_keys(v: &mut serde::Value) {
    match v {
        serde::Value::Map(m) => {
            m.reverse();
            m.iter_mut().for_each(|(_, x)| reverse_keys(x));
        }
        serde::Value::Seq(xs) => xs.iter_mut().for_each(reverse_keys),
        _ => {}
    }
}

fn bench_sweepd_frames(c: &mut Criterion) {
    // The deliver layer below the end-to-end `sweepd_mixed` number: one
    // `result` frame of a 224-trial unit (the reference sweep's cohort
    // size), its payload written as the worker writes it, the frame
    // rendered as the daemon sends it, and parsed back into reports as the
    // client does.
    const TRIALS: u64 = 224;
    let reports: Vec<RunReport> = (0..TRIALS)
        .map(|seed| {
            let config = SimConfig::new(1024, CdModel::Strong).with_seed(seed).with_max_slots(4096);
            run_cohort(&config, &sat(), || LeskProtocol::new(0.5))
        })
        .collect();
    let frame = ServerFrame::Result {
        id: 1,
        key: "ab".repeat(32),
        trials: TRIALS,
        executed_trials: 0,
        cached_trials: TRIALS,
        wall_secs: 0.001,
        results: to_raw_value(&reports).expect("render the reports").into(),
        spans: None,
    };
    let line = frame.to_line();
    let mut group = c.benchmark_group("sweepd_frames");
    group.throughput(Throughput::Elements(TRIALS));
    group.bench_function(BenchmarkId::new("render_reports", TRIALS), |b| {
        b.iter(|| black_box(to_raw_value(black_box(&reports)).expect("render the reports")))
    });
    group.throughput(Throughput::Bytes(line.len() as u64));
    group.bench_function(BenchmarkId::new("to_line", TRIALS), |b| {
        b.iter(|| black_box(black_box(&frame).to_line()))
    });
    group.bench_function(BenchmarkId::new("parse", TRIALS), |b| {
        b.iter(|| black_box(ServerFrame::parse(black_box(&line)).expect("valid frame")))
    });
    group.bench_function(BenchmarkId::new("parse_reports", TRIALS), |b| {
        b.iter(|| {
            let ServerFrame::Result {
                key, executed_trials, cached_trials, wall_secs, results, ..
            } = ServerFrame::parse(black_box(&line)).expect("valid frame")
            else {
                unreachable!("a result frame")
            };
            let results = Box::new(Arc::try_unwrap(results).expect("sole owner"));
            let outcome = SweepOutcome { key, executed_trials, cached_trials, wall_secs, results };
            black_box(outcome.reports().expect("valid reports"))
        })
    });
    // The same unit answered by a daemon from its store, as one warm
    // `sweepd_mixed` submission sees it: submit to parsed `result`, with
    // the recall, the render, both socket hops and the client's parse.
    // What this adds to `render_reports` + `parse` is the service's own
    // cost: the chunk decode, thread wake-ups and the socket.
    let dir = std::env::temp_dir().join(format!("jle-bench-served-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServerConfig { cache_dir: Some(dir.clone()), workers: 1, ..Default::default() };
    let server = SweepServer::bind(&Endpoint::Tcp("127.0.0.1:0".into()), config).expect("bind");
    let endpoint = Endpoint::Tcp(server.tcp_addr().expect("tcp endpoint").to_string());
    let handle = server.spawn();
    let election = ElectionParams {
        kind: ElectionKind::Cohort,
        n: 1024,
        cd: CdModel::Strong,
        adv: sat(),
        max_slots: 4096,
        proto: ProtoParams::lesk(0.5),
    };
    let spec = WorkSpec::new("bench", "served_round_trip", election.to_json_value(), 0);
    let mut client = SweepClient::connect(&endpoint).expect("connect");
    let cold = client.submit_and_wait(&spec, TRIALS, 8, |_| {}).expect("cold run");
    assert_eq!(cold.executed_trials, TRIALS);
    group.throughput(Throughput::Elements(TRIALS));
    group.bench_function(BenchmarkId::new("served_round_trip", TRIALS), |b| {
        b.iter(|| {
            let warm = client.submit_and_wait(&spec, TRIALS, 8, |_| {}).expect("served hit");
            debug_assert_eq!(warm.executed_trials, 0);
            black_box(warm)
        })
    });
    group.finish();
    drop(client);
    handle.shutdown().expect("daemon shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_cohort, bench_exact_short, bench_batch_throughput,
        bench_fast_exact, bench_telemetry, bench_warm_path, bench_sweepd_frames
}
criterion_main!(benches);
