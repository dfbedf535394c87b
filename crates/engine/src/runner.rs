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
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The result of one trial under [`catch_trial`]. Serialized
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

/// Run one trial closure with panic isolation: a panic is caught and
/// rendered as [`TrialOutcome::Panicked`] instead of unwinding into the
/// caller, so one poisoned seed cannot take down a million-trial sweep.
/// Schedulers that drive their own trial loops wrap each trial in it.
/// The standard panic hook still runs (expect one stderr line per caught
/// panic).
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

/// The number of worker threads a parallel sweep started on this thread
/// fans out to (rayon's width).
pub fn worker_threads() -> usize {
    rayon::current_num_threads()
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
}

impl MonteCarlo {
    /// Create a driver.
    pub fn new(trials: u64, base_seed: u64) -> Self {
        MonteCarlo { trials, base_seed }
    }

    /// Run `f(seed)` for every trial in parallel; results are returned in
    /// trial order.
    pub fn run<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(u64) -> R + Sync,
    {
        (0..self.trials).into_par_iter().map(|i| f(self.base_seed + i)).collect()
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
    fn success_rate_counts() {
        let mc = MonteCarlo::new(100, 0);
        let rate = mc.success_rate(|seed| seed % 4 == 0);
        assert!((rate - 0.25).abs() < 1e-12);
        assert_eq!(MonteCarlo::new(0, 0).success_rate(|_| true), 0.0);
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
    fn panicking_trial_is_isolated() {
        // A poisoned seed in a parallel sweep: only its own trial panics,
        // and every other trial keeps its result, in trial order.
        let outcomes = MonteCarlo::new(32, 0).run(|seed| {
            catch_trial(|| {
                assert!(seed != 13, "poisoned seed");
                seed * 3
            })
        });
        assert_eq!(outcomes.len(), 32);
        assert_eq!(outcomes.iter().filter(|o| o.is_panicked()).count(), 1);
        assert!(outcomes[13].panic_message().unwrap().contains("poisoned seed"));
        assert_eq!(outcomes[12].as_ok(), Some(&36));
        let ok: Vec<u64> = outcomes.into_iter().filter_map(TrialOutcome::ok).collect();
        assert_eq!(ok.len(), 31);
    }

    #[test]
    fn catch_trial_matches_run_caught() {
        // `catch_trial` keeps the per-trial contract of the removed
        // `MonteCarlo::run_caught`: `Ok` for a normal trial, the panic's
        // message for a panicking one.
        assert_eq!(catch_trial(|| 5u64), TrialOutcome::Ok(5));
        let p = catch_trial(|| -> u64 { panic!("kaboom") });
        assert_eq!(p.panic_message(), Some("kaboom"));
    }

    #[test]
    fn non_string_payloads_are_rendered() {
        let outcome = catch_trial(|| -> u64 { std::panic::panic_any(42i32) });
        assert_eq!(outcome.panic_message(), Some("<non-string panic payload>"));
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
