//! End-to-end cache semantics at the experiment level (ISSUE acceptance):
//!
//! * a re-run of a completed experiment executes **zero** trials and
//!   reproduces byte-identical markdown and CSV;
//! * a sweep killed mid-flight (chunk-budget hook) and resumed with the
//!   `Resume` policy is bit-identical to an uninterrupted run.

use jle_bench::common::saturating;
use jle_bench::experiments::e06_weak_cd::{weak_row, weak_spec};
use jle_bench::experiments::run_by_id;
use jle_bench::ExpContext;
use jle_lens::LensSpec;
use jle_orchestrator::{CachePolicy, Orchestrator, ResultStore, WorkSpec};
use jle_protocols::ProtoParams;
use serde::Deserialize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jle-bench-cache-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn ctx_with(dir: &PathBuf, policy: CachePolicy) -> ExpContext {
    let orch = Orchestrator::with_cache_dir(dir).expect("cache dir").policy(policy);
    ExpContext::new(true, Arc::new(orch))
}

/// Render every artifact the CLI would write, for byte comparison.
fn artifacts(r: &jle_bench::ExperimentResult) -> Vec<String> {
    let mut out = vec![r.to_markdown()];
    out.extend(r.tables.iter().map(|(_, t)| t.to_csv()));
    out
}

#[test]
fn warm_rerun_executes_zero_trials_and_is_byte_identical() {
    let dir = tmp_dir("warm");

    let cold = ctx_with(&dir, CachePolicy::Complete);
    let r1 = run_by_id("e2", &cold).expect("e2 exists");
    let s1 = cold.orchestrator().stats_snapshot();
    assert!(s1.executed_trials > 0, "cold run must simulate");
    assert_eq!(s1.cached_trials, 0, "cold run starts from an empty store");

    let warm = ctx_with(&dir, CachePolicy::Complete);
    let r2 = run_by_id("e2", &warm).expect("e2 exists");
    let s2 = warm.orchestrator().stats_snapshot();
    assert_eq!(s2.executed_trials, 0, "warm re-run must execute zero trials: {s2:?}");
    assert_eq!(s2.cached_trials, s2.planned_trials, "every trial served from the store");
    assert_eq!(artifacts(&r1), artifacts(&r2), "cached replay must be byte-identical");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_sweep_resumes_bit_identically() {
    // Uninterrupted reference run, no cache involved.
    let reference = run_by_id("e22", &ExpContext::ephemeral(true)).expect("e22 exists");

    // Kill the sweep mid-flight: the chunk budget lets one chunk land
    // in the store, then aborts the run the way a SIGKILL would (minus
    // the torn file, which the atomic rename rules out anyway).
    let dir = tmp_dir("resume");
    let killed = {
        let orch = Orchestrator::with_cache_dir(&dir).expect("cache dir").chunk_budget(1);
        ExpContext::new(true, Arc::new(orch))
    };
    let death = catch_unwind(AssertUnwindSafe(|| run_by_id("e22", &killed)));
    assert!(death.is_err(), "the chunk budget must abort the sweep mid-flight");
    let partial = killed.orchestrator().stats_snapshot();
    assert!(partial.executed_trials > 0, "some chunks must have completed before the kill");

    // Resume against the same store: partial chunks are reused, the rest
    // is recomputed, and the tables match the uninterrupted run exactly.
    let resumed_ctx = ctx_with(&dir, CachePolicy::Resume);
    let resumed = run_by_id("e22", &resumed_ctx).expect("e22 exists");
    let s = resumed_ctx.orchestrator().stats_snapshot();
    assert!(s.cached_trials > 0, "resume must reuse the pre-kill chunks: {s:?}");
    assert!(s.executed_trials < s.planned_trials, "resume must not recompute everything: {s:?}");
    assert_eq!(
        artifacts(&reference),
        artifacts(&resumed),
        "resumed run must be bit-identical to the uninterrupted run"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A spec unit replays from the store alone, which is what `jle-lens
/// replay --fingerprint` runs: E6's LEWK weak-CD unit, written to disk,
/// records a `spec.json` whose params parse back into a spec, and that
/// spec re-derives every stored trial at `base_seed + k`.
#[test]
fn a_stored_spec_unit_replays_from_its_spec_json() {
    let dir = tmp_dir("replay");
    let spec = weak_spec(ProtoParams::Lewk { eps: 0.5 }, 16, &saturating(0.5, 16), 30_000_000);
    let (point, base_seed, trials) = ("lewk/saturating/n=16", 60_002, 12);
    let cold = ctx_with(&dir, CachePolicy::Complete);
    cold.spec_trials("e6", point, &spec, base_seed, trials, weak_row);

    let warm = ctx_with(&dir, CachePolicy::Complete);
    let stored = warm.spec_trials("e6", point, &spec, base_seed, trials, weak_row);
    assert_eq!(warm.orchestrator().stats_snapshot().executed_trials, 0, "served from disk");

    let work = WorkSpec::new("e6", point, spec.to_params(), base_seed);
    let hex = warm.orchestrator().fingerprint_hex::<(u64, bool, u64)>(&work);
    let (_, recorded) = ResultStore::open(&dir).unwrap().load_spec_info(&hex).expect("spec.json");
    let recorded = WorkSpec::from_json_value(&recorded).expect("a work spec");
    assert_eq!(recorded.base_seed, base_seed);
    let replayed = LensSpec::from_params(&recorded.params).expect("the params parse as a spec");
    for (k, trial) in stored.iter().enumerate() {
        let report = replayed.run(recorded.base_seed + k as u64).expect("the spec runs");
        assert_eq!(&weak_row(report), trial, "trial {k}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
