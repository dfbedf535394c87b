//! Property tests for the scheduler's one-fan-out-per-unit execution.
//!
//! Every case runs a unit through the per-trial or the batched entry
//! point with `jobs` ∈ {1, 2, 3}, a random chunk size, Resume over
//! randomly pre-filled chunks, and optionally a cancel fired after a
//! random `ChunkFinished` or a chunk budget. Whatever the schedule, the
//! results must equal a direct serial run, every chunk file must be
//! byte-identical to a `jobs = 1` run's, chunks must be committed in range
//! order, and no temp file may be left behind.

use jle_orchestrator::{
    CachePolicy, CancelToken, Event, Fingerprint, Interrupted, Orchestrator, Reporter, ResultStore,
    WorkSpec, DEFAULT_CODE_SALT,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A deterministic trial whose cost varies with the seed, so pieces
/// finish out of order on several workers.
fn trial(seed: u64) -> u64 {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for _ in 0..(seed % 5) * 300 {
        x = x.rotate_left(7) ^ x.wrapping_mul(6364136223846793005);
    }
    std::hint::black_box(x)
}

fn scratch(tag: &str) -> PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("jle-sched-props-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Records each `ChunkFinished` range and fires `cancel` after the
/// `cancel_after`-th one.
struct Recorder {
    chunks: Arc<Mutex<Vec<(u64, u64)>>>,
    cancel: Option<(u64, CancelToken)>,
}

impl Reporter for Recorder {
    fn report(&self, event: &Event<'_>) {
        if let Event::ChunkFinished { start, end, .. } = *event {
            let mut chunks = self.chunks.lock().unwrap();
            chunks.push((start, end));
            if let Some((after, token)) = &self.cancel {
                if chunks.len() as u64 == *after {
                    token.cancel();
                }
            }
        }
    }
}

#[derive(Debug, Clone)]
struct Case {
    trials: u64,
    chunk: u64,
    jobs: usize,
    batched: bool,
    /// Bit `i` set: chunk `i` is in the store before the run.
    prefilled: u64,
    /// Fire the cancel token after this many `ChunkFinished` events.
    cancel_after: Option<u64>,
    budget: Option<u64>,
    base_seed: u64,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        (0u64..100, prop_oneof![Just(1u64), Just(3u64), Just(7u64), Just(8u64), Just(32u64)]),
        (1usize..4, any::<bool>(), any::<u64>()),
        ((0u64..4, 0u64..6), (0u64..4, 0u64..1 << 40)),
    )
        .prop_map(
            |((trials, chunk), (jobs, batched, prefilled), ((interrupt, at), (budget, seed)))| {
                Case {
                    trials,
                    chunk,
                    jobs,
                    batched,
                    prefilled,
                    cancel_after: (interrupt == 1).then_some(at + 1),
                    budget: (interrupt == 2).then_some(budget),
                    base_seed: seed,
                }
            },
        )
}

fn ranges(trials: u64, chunk: u64) -> Vec<(u64, u64)> {
    (0..trials).step_by(chunk as usize).map(|s| (s, (s + chunk).min(trials))).collect()
}

fn spec(base_seed: u64) -> WorkSpec {
    WorkSpec::new("props", "unit", serde_json::json!({"kind": "sched-props"}), base_seed)
}

/// Run the unit with `orch` on the case's entry point; batched runs also
/// record the seed batches they were handed.
fn run(
    orch: &Orchestrator,
    case: &Case,
    batches: &Mutex<Vec<Vec<u64>>>,
) -> Result<Vec<u64>, Interrupted> {
    let spec = spec(case.base_seed);
    if case.batched {
        orch.try_run_trials_batched(&spec, case.trials, |seeds| {
            batches.lock().unwrap().push(seeds.to_vec());
            seeds.iter().map(|&s| trial(s)).collect()
        })
    } else {
        orch.try_run_trials(&spec, case.trials, trial)
    }
}

/// The chunk files of a unit directory, by name.
fn chunk_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let Ok(entries) = std::fs::read_dir(dir) else { return BTreeMap::new() };
    entries
        .map(|e| e.unwrap())
        .map(|e| (e.file_name().to_string_lossy().into_owned(), std::fs::read(e.path()).unwrap()))
        .filter(|(name, _)| name != "spec.json")
        .collect()
}

fn check(case: &Case) -> Result<(), String> {
    let reference: Vec<u64> = (case.base_seed..case.base_seed + case.trials).map(trial).collect();
    let chunks = ranges(case.trials, case.chunk);
    let key = Fingerprint::of(&spec(case.base_seed), DEFAULT_CODE_SALT, "u64");

    // The jobs = 1 run every chunk file is compared against.
    let golden_store = ResultStore::open(scratch("golden")).unwrap();
    let golden = Orchestrator::with_store(golden_store.clone()).chunk_size(case.chunk).jobs(1);
    let got = run(&golden, case, &Mutex::new(Vec::new())).map_err(|e| e.to_string())?;
    prop_assert_eq!(&got, &reference, "jobs = 1 run");
    let golden_files = chunk_files(&golden_store.unit_dir(&key));
    prop_assert_eq!(golden_files.len(), chunks.len());

    let store = ResultStore::open(scratch("case")).unwrap();
    let mut prefilled_trials = 0;
    for (i, &(s, e)) in chunks.iter().enumerate() {
        if i < 64 && case.prefilled >> i & 1 == 1 {
            store.write_chunk(&key, s, e, &reference[s as usize..e as usize]).unwrap();
            prefilled_trials += e - s;
        }
    }
    let missing: Vec<(u64, u64)> = chunks
        .iter()
        .enumerate()
        .filter(|&(i, _)| i >= 64 || case.prefilled >> i & 1 == 0)
        .map(|(_, &r)| r)
        .collect();

    let token = CancelToken::new();
    let finished = Arc::new(Mutex::new(Vec::new()));
    let mut orch = Orchestrator::with_store(store.clone())
        .policy(CachePolicy::Resume)
        .chunk_size(case.chunk)
        .jobs(case.jobs)
        .cancel_token(token.clone())
        .reporter(Recorder {
            chunks: Arc::clone(&finished),
            cancel: case.cancel_after.map(|k| (k, token.clone())),
        });
    if let Some(budget) = case.budget {
        orch = orch.chunk_budget(budget);
    }
    let batches = Mutex::new(Vec::new());
    let outcome = run(&orch, case, &batches);

    // Chunks are committed in range order: exactly a prefix of the
    // missing ones.
    let committed = finished.lock().unwrap().clone();
    prop_assert_eq!(&committed[..], &missing[..committed.len()], "commit order");
    let committed_trials: u64 = committed.iter().map(|(s, e)| e - s).sum();
    prop_assert_eq!(orch.stats_snapshot().executed_trials, committed_trials);

    let stop = case.cancel_after.map_or(missing.len(), |k| missing.len().min(k as usize));
    let stop = case.budget.map_or(stop, |b| stop.min(b as usize));
    prop_assert_eq!(committed.len(), stop, "chunks committed before the stop");
    let completed_trials = prefilled_trials + committed_trials;
    match outcome {
        Ok(results) => {
            prop_assert_eq!(committed.len(), missing.len());
            prop_assert_eq!(&results, &reference, "results");
        }
        Err(Interrupted::Cancelled { completed_trials: c }) => {
            prop_assert!(case.cancel_after.is_some_and(|k| (k as usize) < missing.len()));
            prop_assert_eq!(c, completed_trials);
        }
        Err(Interrupted::ChunkBudgetExhausted { completed_trials: c }) => {
            prop_assert!(case.budget.is_some_and(|b| (b as usize) < missing.len()));
            prop_assert_eq!(c, completed_trials);
        }
    }

    // A batched piece is a whole chunk when at least `jobs` chunks run,
    // and ceil(len / jobs) of one otherwise.
    let runnable = case.budget.map_or(missing.len(), |b| missing.len().min(b as usize));
    for seeds in batches.lock().unwrap().iter() {
        let first = seeds[0] - case.base_seed;
        let &(s, e) = chunks.iter().find(|&&(s, e)| s <= first && first < e).unwrap();
        let width = if runnable < case.jobs { (e - s).div_ceil(case.jobs as u64) } else { e - s };
        prop_assert!(first + seeds.len() as u64 <= e, "a batch stays inside its chunk");
        prop_assert_eq!((first - s) % width, 0, "batches start on width boundaries");
        prop_assert_eq!(seeds.len() as u64, width.min(e - first), "batch width");
    }

    // Every chunk on disk is byte-identical to the jobs = 1 run's, and
    // none is a leftover temp file.
    let files = chunk_files(&store.unit_dir(&key));
    for (name, bytes) in &files {
        prop_assert!(!name.starts_with(".tmp-"), "leftover temp file {}", name);
        prop_assert!(golden_files.get(name) == Some(bytes), "chunk {} differs from jobs = 1", name);
    }
    prop_assert_eq!(files.len(), chunks.len() - missing.len() + committed.len(), "chunk files");

    // An interrupted unit resumes to the full, identical result.
    if committed.len() < missing.len() {
        let resumed = Orchestrator::with_store(store.clone())
            .policy(CachePolicy::Resume)
            .chunk_size(case.chunk)
            .jobs(case.jobs);
        let results = run(&resumed, case, &Mutex::new(Vec::new())).map_err(|e| e.to_string())?;
        prop_assert_eq!(&results, &reference, "resumed results");
        prop_assert_eq!(resumed.stats_snapshot().cached_trials, completed_trials);
        prop_assert_eq!(chunk_files(&store.unit_dir(&key)), golden_files.clone());
    }

    let _ = std::fs::remove_dir_all(store.root());
    let _ = std::fs::remove_dir_all(golden_store.root());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn any_schedule_matches_monte_carlo_and_the_single_job_bytes(case in arb_case()) {
        check(&case)?;
    }
}
