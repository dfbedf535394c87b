//! Criterion: per-slot simulation cost — cohort (n-independent) vs exact
//! (O(n) per slot). Counterpart of experiment E15(b).
//!
//! Each engine is measured twice: `fresh` allocates every run (the plain
//! `run_*` shims), `arena` reuses one [`SimArena`] across iterations
//! (`run_*_in`). The arena must be no slower on the cohort engine (it has
//! almost nothing to reuse) and faster on the exact engine, whose per-run
//! station/buffer allocations the arena amortizes away.
//!
//! `warm_path` times the two non-engine layers a warm re-run spends its
//! time in: the bootstrap median CI and the store's chunk decode.
//! `sweepd_frames` times the deliver layer of a `jle-sweepd` cache hit:
//! rendering one result frame and parsing it back into reports.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use jle_adversary::{AdversarySpec, JamStrategyKind, Rate};
use jle_analysis::median_ci;
use jle_engine::{
    run_batch_uniform, run_cohort, run_cohort_in, run_exact, run_exact_in, run_fast_exact,
    run_fast_exact_in, CohortStations, EngineMetrics, PerStation, RunReport, SimArena, SimConfig,
    SimCore, TelemetryObserver, UniformProtocol,
};
use jle_orchestrator::{Fingerprint, ResultStore, WorkSpec, DEFAULT_CODE_SALT};
use jle_protocols::LeskProtocol;
use jle_radio::{CdModel, ChannelState};
use jle_sweepd::{ServerFrame, SweepOutcome};
use jle_telemetry::MetricRegistry;
use serde::Serialize;
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
    fn reset(&mut self) -> bool {
        true // stateless: the arena can recycle the station boxes
    }
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
        group.bench_with_input(BenchmarkId::new("arena", n), &n, |b, &n| {
            let adv = sat();
            let mut arena = SimArena::new();
            b.iter(|| {
                let config = SimConfig::new(n, CdModel::Strong).with_seed(7).with_max_slots(SLOTS);
                black_box(run_cohort_in(&config, &adv, || AlwaysCollide, &mut arena))
            })
        });
    }
    group.finish();
}

fn bench_exact(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_slots");
    const SLOTS: u64 = 2_000;
    group.throughput(Throughput::Elements(SLOTS));
    for k in [6u32, 8, 10] {
        let n = 1u64 << k;
        group.bench_with_input(BenchmarkId::new("fresh", n), &n, |b, &n| {
            let adv = sat();
            b.iter(|| {
                let config = SimConfig::new(n, CdModel::Strong).with_seed(7).with_max_slots(SLOTS);
                black_box(run_exact(&config, &adv, |_| Box::new(PerStation::new(AlwaysCollide))))
            })
        });
        group.bench_with_input(BenchmarkId::new("arena", n), &n, |b, &n| {
            let adv = sat();
            let mut arena = SimArena::new();
            b.iter(|| {
                let config = SimConfig::new(n, CdModel::Strong).with_seed(7).with_max_slots(SLOTS);
                black_box(run_exact_in(
                    &config,
                    &adv,
                    |_| Box::new(PerStation::new(AlwaysCollide)),
                    &mut arena,
                ))
            })
        });
    }
    group.finish();
}

fn bench_exact_short(c: &mut Criterion) {
    // Election-scale runs: a jammed election resolves in tens of slots,
    // so Monte-Carlo loops run *short* exact simulations back to back and
    // per-run setup — n station boxes allocated, initialized, and dropped,
    // plus the flag buffers and history ring — is a real fraction of the
    // work. This is the regime the arena exists for: `AlwaysCollide` is
    // resettable, so the arena arm recycles every station box in place
    // (allocation-free steady state). The long-run groups above only have
    // to show the arena is never slower.
    let mut group = c.benchmark_group("exact_short_runs");
    const SLOTS: u64 = 16;
    group.sample_size(30);
    group.throughput(Throughput::Elements(SLOTS));
    for k in [8u32, 10] {
        let n = 1u64 << k;
        group.bench_with_input(BenchmarkId::new("fresh", n), &n, |b, &n| {
            let adv = sat();
            b.iter(|| {
                let config = SimConfig::new(n, CdModel::Strong).with_seed(7).with_max_slots(SLOTS);
                black_box(run_exact(&config, &adv, |_| Box::new(PerStation::new(AlwaysCollide))))
            })
        });
        group.bench_with_input(BenchmarkId::new("arena", n), &n, |b, &n| {
            let adv = sat();
            let mut arena = SimArena::new();
            b.iter(|| {
                let config = SimConfig::new(n, CdModel::Strong).with_seed(7).with_max_slots(SLOTS);
                black_box(run_exact_in(
                    &config,
                    &adv,
                    |_| Box::new(PerStation::new(AlwaysCollide)),
                    &mut arena,
                ))
            })
        });
        // The bitset fast path on the same short-run workload: the
        // single-trial baseline the batched backend is measured against
        // (see `batch_throughput` below and the `batch_speedup` gate arm).
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
    // The batched-backend tentpole measurement: K election-scale trials
    // per call, SoA lockstep, vs the same K trials run one at a time
    // through the fast-exact backend. `AlwaysCollide` keeps every trial
    // alive for the full slot budget (uniform never-resolving workload,
    // the degenerate p == 1.0 word path), so both arms do K × SLOTS slots
    // of work and the ratio is pure backend overhead. Throughput is in
    // trials; the acceptance bar (>= 10x at election scale) is gated by
    // `bench_gate --batch-speedup-threshold` and recorded in
    // results/BENCH.json.
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
    group.finish();
}

/// Sleep-heavy, never-resolving workload for the fast backend: awake one
/// slot in `period` (always transmitting — 1024 awake stations collide
/// forever, so runs always walk the full slot budget), asleep otherwise,
/// with an honest `wake_hint`. The legacy backend still steps all `n`
/// stations every slot; the active-set backend touches only the awake
/// `n/period`.
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
    // The tentpole measurement: legacy O(n)-per-slot backend vs the
    // active-set backend on a duty-cycled (sleep-heavy) network. The
    // acceptance bar is fast >= 5x legacy at n = 65536 with period 64;
    // the recorded figures in results/BENCH.json track the trajectory.
    let mut group = c.benchmark_group("fast_exact");
    const SLOTS: u64 = 256;
    const PERIOD: u64 = 64;
    group.throughput(Throughput::Elements(SLOTS));
    let factory = |i: u64| {
        Box::new(DutySleeper { period: PERIOD, phase: i % PERIOD }) as Box<dyn jle_engine::Protocol>
    };
    {
        let n = 1u64 << 16;
        group.bench_with_input(BenchmarkId::new("exact", n), &n, |b, &n| {
            let adv = sat();
            b.iter(|| {
                let config = SimConfig::new(n, CdModel::Strong).with_seed(7).with_max_slots(SLOTS);
                black_box(run_exact(&config, &adv, factory))
            })
        });
        group.bench_with_input(BenchmarkId::new("fast", n), &n, |b, &n| {
            let adv = sat();
            b.iter(|| {
                let config = SimConfig::new(n, CdModel::Strong).with_seed(7).with_max_slots(SLOTS);
                black_box(run_fast_exact(&config, &adv, factory))
            })
        });
        group.bench_with_input(BenchmarkId::new("fast_arena", n), &n, |b, &n| {
            let adv = sat();
            let mut arena = SimArena::new();
            b.iter(|| {
                let config = SimConfig::new(n, CdModel::Strong).with_seed(7).with_max_slots(SLOTS);
                black_box(run_fast_exact_in(&config, &adv, factory, &mut arena))
            })
        });
    }
    // Million-station arm: fast backend only — the legacy backend at this
    // scale is the problem the backend exists to solve (~100x the work).
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
    // Decoding alone, both ways, on one 224-trial report array: the pull
    // path `from_str` takes, and the `Value` tree it replaced.
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
    group.bench_function(BenchmarkId::new("decode_reports_tree", DECODE_TRIALS), |b| {
        b.iter(|| {
            let tree: serde::Value = serde_json::from_str(black_box(&text)).unwrap();
            black_box(<Vec<RunReport> as serde::Deserialize>::from_json_value(&tree).unwrap())
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_sweepd_frames(c: &mut Criterion) {
    // The deliver layer below the end-to-end `sweepd_mixed` number: one
    // `result` frame of a 224-trial unit (the reference sweep's cohort
    // size), rendered as the daemon sends it and parsed back into
    // reports as the client does.
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
        results: Arc::new(serde::Value::Seq(
            reports.iter().map(Serialize::to_json_value).collect(),
        )),
        spans: None,
    };
    let line = frame.to_line();
    let mut group = c.benchmark_group("sweepd_frames");
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
            let results = Arc::try_unwrap(results).expect("sole owner");
            let outcome = SweepOutcome { key, executed_trials, cached_trials, wall_secs, results };
            black_box(outcome.reports().expect("valid reports"))
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_cohort, bench_exact, bench_exact_short, bench_batch_throughput,
        bench_fast_exact, bench_telemetry, bench_warm_path, bench_sweepd_frames
}
criterion_main!(benches);
