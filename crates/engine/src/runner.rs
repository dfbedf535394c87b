//! Rayon-parallel Monte-Carlo runner.
//!
//! Every "with high probability" statement in the paper is validated by
//! repetition: [`MonteCarlo`] runs a seeded closure over a trial range in
//! parallel and hands the per-trial results to `jle-analysis`. Trials are
//! seeded deterministically (`base_seed + trial_index`) so every
//! experiment in `EXPERIMENTS.md` is exactly reproducible regardless of
//! the thread schedule.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, OnceLock};

/// Process-wide cache of explicitly sized worker pools, one per width.
///
/// Building a rayon pool is not free (under real rayon it spawns OS
/// threads), and [`MonteCarlo::run`] used to rebuild one on *every* call
/// when `jobs` was set — pure overhead for orchestrator shards that run
/// thousands of small sweeps at a fixed width. Pools carry no
/// sweep-specific state, so one per width can serve the whole process;
/// they are leaked intentionally (a handful of widths over a process
/// lifetime, reclaimed at exit).
fn sized_pool(jobs: usize) -> &'static rayon::ThreadPool {
    static POOLS: OnceLock<Mutex<HashMap<usize, &'static rayon::ThreadPool>>> = OnceLock::new();
    let mut pools =
        POOLS.get_or_init(|| Mutex::new(HashMap::new())).lock().expect("pool cache poisoned");
    pools.entry(jobs).or_insert_with(|| {
        Box::leak(Box::new(
            rayon::ThreadPoolBuilder::new().num_threads(jobs).build().expect("sized thread pool"),
        ))
    })
}

/// The result of one trial under [`MonteCarlo::run_caught`]. Serialized
/// externally tagged: `{"Ok": ...}` / `{"Panicked": "msg"}`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrialOutcome<R> {
    /// The trial completed normally.
    Ok(R),
    /// The trial panicked; the payload is rendered to a string. The panic
    /// was caught *inside* the trial closure, so the rest of the sweep is
    /// unaffected.
    Panicked(String),
}

impl<R> TrialOutcome<R> {
    /// The result, if the trial completed.
    pub fn ok(self) -> Option<R> {
        match self {
            TrialOutcome::Ok(r) => Some(r),
            TrialOutcome::Panicked(_) => None,
        }
    }

    /// A reference to the result, if the trial completed.
    pub fn as_ok(&self) -> Option<&R> {
        match self {
            TrialOutcome::Ok(r) => Some(r),
            TrialOutcome::Panicked(_) => None,
        }
    }

    /// Whether the trial panicked.
    pub fn is_panicked(&self) -> bool {
        matches!(self, TrialOutcome::Panicked(_))
    }

    /// The panic message, if the trial panicked.
    pub fn panic_message(&self) -> Option<&str> {
        match self {
            TrialOutcome::Ok(_) => None,
            TrialOutcome::Panicked(m) => Some(m),
        }
    }
}

/// Number of panicked trials in a [`MonteCarlo::run_caught`] result.
pub fn panic_count<R>(outcomes: &[TrialOutcome<R>]) -> u64 {
    outcomes.iter().filter(|o| o.is_panicked()).count() as u64
}

/// Run one trial closure with panic isolation: a panic is caught and
/// rendered as [`TrialOutcome::Panicked`] instead of unwinding into the
/// caller. This is the single-trial building block under
/// [`MonteCarlo::run_caught`], exposed so schedulers that drive their own
/// trial loops get identical isolation semantics.
pub fn catch_trial<R>(f: impl FnOnce() -> R) -> TrialOutcome<R> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => TrialOutcome::Ok(r),
        Err(payload) => TrialOutcome::Panicked(panic_payload_message(payload)),
    }
}

fn panic_payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// A deterministic, parallel Monte-Carlo driver.
///
/// # Examples
///
/// ```
/// use jle_engine::MonteCarlo;
///
/// let mc = MonteCarlo::new(100, 7);
/// // Results come back in trial order regardless of thread scheduling.
/// let doubled = mc.run(|seed| seed * 2);
/// assert_eq!(doubled[0], 14);
/// assert_eq!(mc.success_rate(|seed| seed % 2 == 0), 0.5);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MonteCarlo {
    /// Number of independent trials.
    pub trials: u64,
    /// Seed of trial 0; trial `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Explicit worker-thread count; `None` uses all available
    /// parallelism. Set with [`MonteCarlo::with_jobs`].
    pub jobs: Option<usize>,
}

impl MonteCarlo {
    /// Create a driver.
    pub fn new(trials: u64, base_seed: u64) -> Self {
        MonteCarlo { trials, base_seed, jobs: None }
    }

    /// Run on an explicitly sized thread pool of `jobs` workers instead of
    /// the global default (`jobs = 0` restores the default). Trial order
    /// and seeding are unaffected — only the fan-out width changes.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = if jobs == 0 { None } else { Some(jobs) };
        self
    }

    /// The number of worker threads [`MonteCarlo::run`] will fan out to.
    pub fn effective_jobs(&self) -> usize {
        self.jobs.unwrap_or_else(rayon::current_num_threads).max(1)
    }

    /// Run `f(seed)` for every trial in parallel; results are returned in
    /// trial order.
    pub fn run<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(u64) -> R + Sync,
    {
        let body = || (0..self.trials).into_par_iter().map(|i| f(self.base_seed + i)).collect();
        match self.jobs {
            Some(j) => sized_pool(j).install(body),
            None => body(),
        }
    }

    /// Run trials in contiguous seed batches of `width`, in parallel over
    /// batches: `f` receives the seed slice of one batch and must return
    /// one result per seed, in seed order. Trial `i` still has seed
    /// `base_seed + i` and results come back in trial order, so a batch
    /// backend whose per-trial output is bit-identical to the per-trial
    /// engine (see [`crate::batch`]) is a drop-in replacement for
    /// [`MonteCarlo::run`] — same results, one slot-loop pass per batch
    /// instead of one per trial.
    ///
    /// # Panics
    /// Panics if `width` is zero or `f` returns a result count different
    /// from its seed count.
    pub fn run_batched<R, F>(&self, width: u64, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&[u64]) -> Vec<R> + Sync,
    {
        assert!(width > 0, "batch width must be positive");
        let batches = self.trials.div_ceil(width);
        let body = || {
            (0..batches)
                .into_par_iter()
                .map(|b| {
                    let start = self.base_seed + b * width;
                    let len = width.min(self.trials - b * width);
                    let seeds: Vec<u64> = (start..start + len).collect();
                    let out = f(&seeds);
                    assert_eq!(
                        out.len(),
                        seeds.len(),
                        "batch closure must return one result per seed"
                    );
                    out
                })
                .collect::<Vec<Vec<R>>>()
        };
        let nested = match self.jobs {
            Some(j) => sized_pool(j).install(body),
            None => body(),
        };
        nested.into_iter().flatten().collect()
    }

    /// Like [`MonteCarlo::run`], but a panicking trial is isolated: the
    /// panic is caught inside the per-trial closure (before it can reach
    /// a worker-thread join) and recorded as [`TrialOutcome::Panicked`],
    /// so one poisoned seed cannot take down a million-trial sweep.
    ///
    /// The standard panic hook still runs (expect one stderr line per
    /// caught panic); results stay in trial order.
    pub fn run_caught<R, F>(&self, f: F) -> Vec<TrialOutcome<R>>
    where
        R: Send,
        F: Fn(u64) -> R + Sync,
    {
        self.run(|seed| match catch_unwind(AssertUnwindSafe(|| f(seed))) {
            Ok(r) => TrialOutcome::Ok(r),
            Err(payload) => TrialOutcome::Panicked(panic_payload_message(payload)),
        })
    }

    /// Run and keep only a projected scalar per trial.
    pub fn collect_f64<F>(&self, f: F) -> Vec<f64>
    where
        F: Fn(u64) -> f64 + Sync,
    {
        self.run(f)
    }

    /// Fraction of trials for which the predicate holds.
    pub fn success_rate<F>(&self, f: F) -> f64
    where
        F: Fn(u64) -> bool + Sync,
    {
        if self.trials == 0 {
            return 0.0;
        }
        let ok: u64 = self.run(|s| f(s) as u64).into_iter().sum();
        ok as f64 / self.trials as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    #[test]
    fn results_in_trial_order_and_deterministic() {
        let mc = MonteCarlo::new(64, 100);
        let a = mc.run(|seed| seed * 2);
        let b = mc.run(|seed| seed * 2);
        assert_eq!(a, b);
        assert_eq!(a[0], 200);
        assert_eq!(a[63], (100 + 63) * 2);
    }

    #[test]
    fn run_batched_matches_run_in_trial_order() {
        let mc = MonteCarlo::new(100, 7);
        let per_trial = mc.run(|seed| seed.wrapping_mul(3));
        // 100 trials over width-32 batches: three full batches plus a
        // ragged tail of 4.
        let batched = mc.run_batched(32, |seeds| {
            assert!(seeds.len() == 32 || seeds.len() == 4, "ragged tail only");
            seeds.iter().map(|s| s.wrapping_mul(3)).collect()
        });
        assert_eq!(per_trial, batched);
        // Width larger than the sweep: one batch.
        let one = mc.run_batched(1000, |seeds| {
            assert_eq!(seeds.len(), 100);
            seeds.iter().map(|s| s.wrapping_mul(3)).collect()
        });
        assert_eq!(per_trial, one);
        assert!(MonteCarlo::new(0, 0).run_batched(8, |_| Vec::<u64>::new()).is_empty());
    }

    #[test]
    #[should_panic(expected = "one result per seed")]
    fn run_batched_rejects_miscounted_batches() {
        MonteCarlo::new(8, 0).run_batched(4, |_| vec![0u64; 3]);
    }

    #[test]
    fn success_rate_counts() {
        let mc = MonteCarlo::new(100, 0);
        let rate = mc.success_rate(|seed| seed % 4 == 0);
        assert!((rate - 0.25).abs() < 1e-12);
        assert_eq!(MonteCarlo::new(0, 0).success_rate(|_| true), 0.0);
    }

    #[test]
    fn panicking_trial_is_isolated() {
        // A deliberately panicking trial closure: the sweep must complete,
        // the panic must be counted, and every other trial must succeed.
        let mc = MonteCarlo::new(32, 0);
        let outcomes = mc.run_caught(|seed| {
            assert!(seed != 13, "poisoned seed");
            seed * 3
        });
        assert_eq!(outcomes.len(), 32);
        assert_eq!(panic_count(&outcomes), 1);
        assert!(outcomes[13].is_panicked());
        assert!(outcomes[13].panic_message().unwrap().contains("poisoned seed"));
        assert_eq!(outcomes[12].as_ok(), Some(&36));
        let ok: Vec<u64> = outcomes.into_iter().filter_map(TrialOutcome::ok).collect();
        assert_eq!(ok.len(), 31);
    }

    #[test]
    fn run_caught_without_panics_matches_run() {
        let mc = MonteCarlo::new(16, 5);
        let plain = mc.run(|s| s + 1);
        let caught: Vec<u64> =
            mc.run_caught(|s| s + 1).into_iter().filter_map(TrialOutcome::ok).collect();
        assert_eq!(plain, caught);
    }

    #[test]
    fn explicit_jobs_change_width_not_results() {
        let wide = MonteCarlo::new(128, 9);
        let narrow = MonteCarlo::new(128, 9).with_jobs(1);
        assert_eq!(narrow.effective_jobs(), 1);
        assert_eq!(MonteCarlo::new(1, 0).with_jobs(0).jobs, None);
        let a = wide.run(|seed| seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let b = narrow.run(|seed| seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        assert_eq!(a, b);
    }

    #[test]
    fn sized_pools_are_built_once_per_width() {
        let a = sized_pool(3);
        let b = sized_pool(3);
        assert!(std::ptr::eq(a, b), "same width must reuse the cached pool");
        assert_eq!(a.current_num_threads(), 3);
        let c = sized_pool(5);
        assert!(!std::ptr::eq(a, c), "distinct widths get distinct pools");
        assert_eq!(c.current_num_threads(), 5);
    }

    #[test]
    fn trial_outcome_serde_roundtrip() {
        use serde::{Deserialize, Serialize};
        let ok: TrialOutcome<u64> = TrialOutcome::Ok(17);
        let bad: TrialOutcome<u64> = TrialOutcome::Panicked("boom".into());
        for o in [ok, bad] {
            let v = o.to_json_value();
            assert_eq!(TrialOutcome::<u64>::from_json_value(&v).unwrap(), o);
        }
        assert!(TrialOutcome::<u64>::from_json_value(&serde::Value::Null).is_err());
        // The externally tagged form cached results are stored in.
        let tagged = |tag: &str, v: serde::Value| serde::Value::Map(vec![(tag.to_string(), v)]);
        assert_eq!(TrialOutcome::Ok(17u64).to_json_value(), tagged("Ok", serde::Value::U64(17)));
        assert_eq!(
            TrialOutcome::<u64>::Panicked("boom".into()).to_json_value(),
            tagged("Panicked", serde::Value::Str("boom".into()))
        );
    }

    #[test]
    fn catch_trial_matches_run_caught() {
        assert_eq!(catch_trial(|| 5u64), TrialOutcome::Ok(5));
        let p = catch_trial(|| -> u64 { panic!("kaboom") });
        assert_eq!(p.panic_message(), Some("kaboom"));
    }

    #[test]
    fn non_string_payloads_are_rendered() {
        let mc = MonteCarlo::new(1, 0);
        let outcomes = mc.run_caught(|_| -> u64 { std::panic::panic_any(42i32) });
        assert_eq!(outcomes[0].panic_message(), Some("<non-string panic payload>"));
    }

    #[test]
    fn parallel_rng_streams_are_independent() {
        let mc = MonteCarlo::new(256, 7);
        let xs = mc.collect_f64(|seed| SmallRng::seed_from_u64(seed).gen::<f64>());
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 0.5).abs() < 0.08, "mean {mean}");
        // No two adjacent seeds collide.
        assert!(xs.windows(2).all(|w| w[0] != w[1]));
    }
}
