//! Per-trial panic isolation for Monte-Carlo sweeps.
//!
//! Every "with high probability" statement in the paper is validated by
//! repetition, and the orchestrator's scheduler runs those repetitions:
//! trials are seeded deterministically (`base_seed + trial_index`), so
//! every experiment in `EXPERIMENTS.md` is exactly reproducible
//! regardless of the thread schedule. This module supplies what each
//! trial needs around it: [`catch_trial`] and its [`TrialOutcome`], and
//! [`worker_threads`].

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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use rayon::prelude::*;

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
        let outcomes: Vec<TrialOutcome<u64>> = (0..32u64)
            .into_par_iter()
            .map(|seed| {
                catch_trial(|| {
                    assert!(seed != 13, "poisoned seed");
                    seed * 3
                })
            })
            .collect();
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
        let xs: Vec<f64> = (7..263u64)
            .into_par_iter()
            .map(|seed| SmallRng::seed_from_u64(seed).gen::<f64>())
            .collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 0.5).abs() < 0.08, "mean {mean}");
        // No two adjacent seeds collide.
        assert!(xs.windows(2).all(|w| w[0] != w[1]));
    }
}
