//! Criterion: what the orchestrator costs on top of a raw parallel sweep.
//!
//! Three arms over the identical workload (a small LESK election sweep):
//!
//! * **direct** — a rayon sweep over the seeds, no fingerprinting, no
//!   store;
//! * **cold** — orchestrator with a fresh cache dir every iteration
//!   (fingerprint + simulate + atomic chunk writes);
//! * **warm** — orchestrator against a fully populated cache (fingerprint
//!   + shard reads, zero trials executed).
//!
//! The interesting numbers are the cold-vs-direct gap (write overhead,
//! should be small relative to simulation) and the warm arm's absolute
//! time (how cheap a fully cached re-run is).

use criterion::{criterion_group, criterion_main, Criterion};
use jle_adversary::{AdversarySpec, JamStrategyKind, Rate};
use jle_engine::{run_cohort, RunReport, SimConfig};
use jle_orchestrator::{Orchestrator, WorkSpec};
use jle_protocols::LeskProtocol;
use jle_radio::CdModel;
use rayon::prelude::*;
use std::hint::black_box;

const N: u64 = 64;
const EPS: f64 = 0.5;
const TRIALS: u64 = 64;
const BASE_SEED: u64 = 4_242;

fn adv() -> AdversarySpec {
    AdversarySpec::new(Rate::from_f64(EPS), 32, JamStrategyKind::Saturating)
}

fn trial(seed: u64) -> RunReport {
    let config = SimConfig::new(N, CdModel::Strong).with_seed(seed).with_max_slots(100_000);
    run_cohort(&config, &adv(), || LeskProtocol::new(EPS))
}

fn spec() -> WorkSpec {
    WorkSpec::new(
        "bench",
        "overhead",
        serde_json::json!({"kind": "bench_overhead", "n": N, "eps": EPS}),
        BASE_SEED,
    )
}

fn bench_direct(c: &mut Criterion) {
    c.bench_function("orchestrator_overhead/direct_parallel", |b| {
        b.iter(|| {
            let seeds = BASE_SEED..BASE_SEED + TRIALS;
            black_box(seeds.into_par_iter().map(trial).collect::<Vec<_>>())
        })
    });
}

fn bench_cold(c: &mut Criterion) {
    // The vendored criterion shim has no `iter_with_setup`, so the fresh
    // cache dir is prepared inside the timed closure; clearing a tiny
    // directory is noise next to 64 simulated elections.
    let dir = std::env::temp_dir().join(format!("jle-bench-cold-{}", std::process::id()));
    c.bench_function("orchestrator_overhead/cold_cache", |b| {
        b.iter(|| {
            let _ = std::fs::remove_dir_all(&dir);
            let orch = Orchestrator::with_cache_dir(&dir).expect("cache dir");
            black_box(orch.run_trials::<RunReport, _>(&spec(), TRIALS, trial))
        })
    });
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_warm(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("jle-bench-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let orch = Orchestrator::with_cache_dir(&dir).expect("cache dir");
    // Populate once; every timed iteration is then a pure cache hit.
    orch.run_trials::<RunReport, _>(&spec(), TRIALS, trial);
    c.bench_function("orchestrator_overhead/warm_cache", |b| {
        b.iter(|| black_box(orch.run_trials::<RunReport, _>(&spec(), TRIALS, trial)))
    });
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_direct, bench_cold, bench_warm
}
criterion_main!(benches);
