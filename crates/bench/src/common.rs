//! Shared helpers for the reproduction experiments.
//!
//! An experiment's election unit is one [`LensSpec`] plus a projection of
//! its reports ([`ExpContext::spec_trials`]): the spec is the unit's cache
//! key and what its stations run, so a stored unit replays from its
//! `spec.json`. Units that are not spec elections (estimation windows,
//! k-selection, the oracle jammer, per-seed fault and churn plans) key a
//! closure of their own ([`ExpContext::run_trials`]).

use jle_adversary::{AdversarySpec, JamStrategyKind, Rate};
use jle_analysis::{Figure, Summary, Table};
use jle_engine::{RunReport, SlotCost, SlotObserver};
use jle_lens::LensSpec;
use jle_orchestrator::{Orchestrator, WorkSpec};
use jle_protocols::ElectionParams;
use jle_sweepd::SweepClient;
use jle_telemetry::FlightRecorder;
use serde::{Deserialize, Serialize, Value};
use std::sync::{Arc, Mutex};

/// The outcome of one experiment: named tables plus free-form notes, all
/// renderable to markdown and CSV.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// Experiment id, e.g. `"e1"`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// Which paper claim this validates.
    pub paper_ref: String,
    /// Named tables (name → table).
    pub tables: Vec<(String, Table)>,
    /// Figures rendered to `results/<id>_<k>.svg` by the CLI.
    #[serde(skip)]
    pub figures: Vec<Figure>,
    /// Conclusions / measured headline numbers.
    pub notes: Vec<String>,
}

impl ExperimentResult {
    /// Create an empty result shell.
    pub fn new(id: &str, title: &str, paper_ref: &str) -> Self {
        ExperimentResult {
            id: id.into(),
            title: title.into(),
            paper_ref: paper_ref.into(),
            ..Default::default()
        }
    }

    /// Append a table.
    pub fn add_table(&mut self, name: &str, table: Table) {
        self.tables.push((name.into(), table));
    }

    /// Append a figure (emitted as SVG by the experiments CLI).
    pub fn add_figure(&mut self, figure: Figure) {
        self.figures.push(figure);
    }

    /// Append a note.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Render the whole result as markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!(
            "## {} — {}\n\n*Validates: {}*\n\n",
            self.id.to_uppercase(),
            self.title,
            self.paper_ref
        );
        for (name, table) in &self.tables {
            out.push_str(&format!("### {name}\n\n{}\n", table.to_markdown()));
        }
        if !self.notes.is_empty() {
            out.push_str("### Findings\n\n");
            for n in &self.notes {
                out.push_str(&format!("- {n}\n"));
            }
        }
        out
    }
}

/// A saturating `(T, 1−ε)` adversary spec.
pub fn saturating(eps: f64, t_window: u64) -> AdversarySpec {
    AdversarySpec::new(Rate::from_f64(eps), t_window, JamStrategyKind::Saturating)
}

/// The backend the per-station units keyed by a `json!` tree run on
/// ([`jle_engine::run_fast_exact`]'s faulty/churn shims), named in the
/// unit's cache params (a spec names its own engine): results the retired shared-stream engine
/// stored under an otherwise identical tree are keyed apart and
/// recomputed, never served.
pub const PER_STATION_ENGINE: &str = "fast-exact";

/// Everything an experiment needs at run time: the `--quick` flag plus the
/// orchestrator all Monte-Carlo work is submitted through, which makes
/// every sweep cacheable, resumable, and visible to telemetry.
#[derive(Clone)]
pub struct ExpContext {
    /// Trim sweeps and trial counts for smoke testing.
    pub quick: bool,
    orch: Arc<Orchestrator>,
    flight: Option<Arc<FlightRecorder>>,
    server: Option<Arc<Mutex<SweepClient>>>,
}

impl ExpContext {
    /// A context submitting work through `orch`.
    pub fn new(quick: bool, orch: Arc<Orchestrator>) -> Self {
        ExpContext { quick, orch, flight: None, server: None }
    }

    /// A context with no cache and no reporters — unit tests and doc
    /// examples.
    pub fn ephemeral(quick: bool) -> Self {
        Self::new(quick, Arc::new(Orchestrator::ephemeral()))
    }

    /// Builder: dump flight-recorder postmortems (anomalous runs, caught
    /// panics, supervisor restarts) into `recorder`'s directory. Only
    /// *executed* trials can dump — cache-served trials never re-run, so
    /// a warm sweep produces no artifacts.
    pub fn with_flight_recorder(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.flight = Some(recorder);
        self
    }

    /// The flight recorder, if one is attached.
    pub fn flight_recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.flight.as_ref()
    }

    /// Builder: route cohort-election units through a resident
    /// `jle-sweepd` service instead of the in-process orchestrator.
    ///
    /// Units with a local-only protocol shape
    /// ([`jle_protocols::ProtoParams::portable`]) run locally, and so does
    /// anything the server rejects or fails, so experiments behave
    /// identically with or without a server (the cache keys agree, so the
    /// two paths even share a store).
    pub fn with_server(mut self, client: SweepClient) -> Self {
        self.server = Some(Arc::new(Mutex::new(client)));
        self
    }

    /// Try to run a cohort-election unit on the attached server.
    /// `None` means "not routed" (no server, a local-only protocol, or a
    /// server-side error) and the caller must compute locally.
    fn server_reports(
        &self,
        unit: &ElectionParams,
        spec: &WorkSpec,
        trials: u64,
    ) -> Option<Vec<RunReport>> {
        let server = self.server.as_ref()?;
        unit.proto.portable().ok()?;
        let mut client = server.lock().expect("sweepd client lock");
        match client.run_reports(spec, trials) {
            Ok(reports) => Some(reports),
            Err(e) => {
                eprintln!(
                    "warning: sweepd {}/{}: {e}; computing locally",
                    spec.experiment, spec.point
                );
                None
            }
        }
    }

    /// The underlying orchestrator (for telemetry and stats).
    pub fn orchestrator(&self) -> &Orchestrator {
        &self.orch
    }

    /// Submit `trials` seeded trials as one cacheable work unit.
    ///
    /// `params` must describe everything `f`'s behaviour depends on apart
    /// from the per-trial seed (`base_seed + index`); see
    /// [`jle_orchestrator::WorkSpec`]. The `quick` flag is deliberately
    /// *not* part of the key — a quick run computes a prefix of the full
    /// run's trial range for the same unit.
    pub fn run_trials<R, F>(
        &self,
        experiment: &str,
        point: &str,
        params: Value,
        base_seed: u64,
        trials: u64,
        f: F,
    ) -> Vec<R>
    where
        R: Send + Serialize + Deserialize + SlotCost,
        F: Fn(u64) -> R + Sync,
    {
        let spec = WorkSpec::new(experiment, point, params, base_seed);
        self.orch.run_trials(&spec, trials, f)
    }

    /// Submit `trials` trials of `spec` as one cacheable unit keyed by
    /// [`LensSpec::to_params`]: trial `i` is `spec.run(base_seed + i)`,
    /// stored as `project` of its report. Panics if `spec` is invalid.
    pub fn spec_trials<R, F>(
        &self,
        experiment: &str,
        point: &str,
        spec: &LensSpec,
        base_seed: u64,
        trials: u64,
        project: F,
    ) -> Vec<R>
    where
        R: Send + Serialize + Deserialize + SlotCost,
        F: Fn(RunReport) -> R + Sync,
    {
        self.spec_unit(experiment, point, spec, base_seed, trials, |seed| {
            let report = spec.run(seed).expect("a validated spec runs");
            (report.slots, project(report))
        })
    }

    /// [`ExpContext::spec_trials`] with a fresh `observer()` attached to
    /// every run ([`LensSpec::run_observed`]); `project` reads both.
    #[allow(clippy::too_many_arguments)]
    pub fn spec_trials_observed<O, R, F>(
        &self,
        experiment: &str,
        point: &str,
        spec: &LensSpec,
        base_seed: u64,
        trials: u64,
        observer: impl Fn() -> O + Sync,
        project: F,
    ) -> Vec<R>
    where
        O: SlotObserver,
        R: Send + Serialize + Deserialize + SlotCost,
        F: Fn(RunReport, O) -> R + Sync,
    {
        self.spec_unit(experiment, point, spec, base_seed, trials, |seed| {
            let mut obs = observer();
            let report = spec.run_observed(seed, Some(&mut obs)).expect("a validated spec runs");
            (report.slots, project(report, obs))
        })
    }

    /// Both `spec_trials` forms: `trial` maps a seed to the slots it ran
    /// and the result kept. A chunk's commit credits the kept results'
    /// [`SlotCost`], so the slots a projection drops are credited here.
    fn spec_unit<R>(
        &self,
        experiment: &str,
        point: &str,
        spec: &LensSpec,
        base_seed: u64,
        trials: u64,
        trial: impl Fn(u64) -> (u64, R) + Sync,
    ) -> Vec<R>
    where
        R: Send + Serialize + Deserialize + SlotCost,
    {
        spec.validate().unwrap_or_else(|e| panic!("{experiment}/{point}: {e}"));
        let work = WorkSpec::new(experiment, point, spec.to_params(), base_seed);
        let dropped = &self.orch.stats().simulated_slots;
        self.orch.run_trials(&work, trials, |seed| {
            let (slots, kept) = trial(seed);
            dropped.add(slots.saturating_sub(kept.simulated_slots()));
            kept
        })
    }

    /// Run `trials` elections of the cohort unit `unit` and return the
    /// per-trial slot counts (timeouts are reported as `max_slots`, plus
    /// the timeout count): [`ExpContext::spec_trials`] with the identity
    /// projection, keyed by the unit's own `cohort_election` tree, or the
    /// same unit served by an attached sweepd.
    pub fn election_slots(
        &self,
        experiment: &str,
        point: &str,
        unit: &ElectionParams,
        trials: u64,
        base_seed: u64,
    ) -> (Vec<f64>, u64) {
        let spec = LensSpec::from(unit.clone());
        let work = WorkSpec::new(experiment, point, spec.to_params(), base_seed);
        let reports: Vec<RunReport> =
            self.server_reports(unit, &work, trials).unwrap_or_else(|| {
                self.spec_trials(experiment, point, &spec, base_seed, trials, |r| r)
            });
        let timeouts = reports.iter().filter(|r| r.timed_out).count() as u64;
        (reports.iter().map(|r| r.slots as f64).collect(), timeouts)
    }
}

/// Convenience: median of a sample (panics on empty).
pub fn median(xs: &[f64]) -> f64 {
    jle_analysis::percentile(xs, 0.5)
}

/// Render a [`Summary`] into `(median, mean, p90)` strings for tables.
pub fn summary_cells(s: &Summary) -> (String, String, String) {
    (jle_analysis::fmt(s.median), jle_analysis::fmt(s.mean), jle_analysis::fmt(s.p90))
}

#[cfg(test)]
mod tests {
    use super::*;
    use jle_protocols::ProtoParams;
    use jle_radio::CdModel;

    #[test]
    fn experiment_result_renders() {
        let mut r = ExperimentResult::new("e0", "smoke", "none");
        let mut t = Table::new(["a"]);
        t.push_row(["1"]);
        r.add_table("main", t);
        r.note("works");
        let md = r.to_markdown();
        assert!(md.contains("## E0 — smoke"));
        assert!(md.contains("### main"));
        assert!(md.contains("- works"));
    }

    #[test]
    fn election_slots_smoke() {
        let ctx = ExpContext::ephemeral(true);
        let unit = ElectionParams::cohort(
            ProtoParams::lesk(0.5),
            64,
            CdModel::Strong,
            AdversarySpec::passive(),
            100_000,
        );
        let (slots, timeouts) = ctx.election_slots("e0", "smoke", &unit, 10, 1);
        assert_eq!(slots.len(), 10);
        assert_eq!(timeouts, 0);
        assert!(median(&slots) > 0.0);
    }
}
