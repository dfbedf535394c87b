//! Shared helpers for the reproduction experiments.
//!
//! An experiment's election unit is one [`LensSpec`] plus a projection of
//! its runs ([`ExpContext::spec_trials`] and its observed and caught
//! forms): the spec is the unit's cache key and what its stations run,
//! fault and churn plans drawn per seed, supervisors and leases included,
//! so a stored unit replays from its `spec.json`. Units that are not
//! spec elections (estimation windows, k-selection, the oracle jammer)
//! key a closure of their own ([`ExpContext::run_trials`]).

use jle_adversary::{AdversarySpec, JamStrategyKind, Rate};
use jle_analysis::{Figure, Summary, Table};
use jle_engine::{
    catch_trial, EngineMetrics, RunReport, SlotActions, SlotCost, SlotObserver, TelemetryObserver,
    TrialOutcome,
};
use jle_lens::{LensSpec, Run, SpecError};
use jle_orchestrator::{Orchestrator, WorkSpec};
use jle_protocols::{ElectionParams, LeaseLossCause, RestartCause};
use jle_radio::SlotTruth;
use jle_sweepd::SweepClient;
use jle_telemetry::{AnomalyKind, FlightRecorder};
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
        R: Send + Serialize + Deserialize,
        F: Fn(RunReport) -> R + Sync,
    {
        self.spec_unit::<Uncaught, _, _>(
            experiment,
            point,
            spec,
            base_seed,
            trials,
            |_| Unobserved,
            |run, _| project(run.report),
        )
    }

    /// [`ExpContext::spec_trials`] with `observer(seed)` attached to each
    /// run ([`LensSpec::run_observed`]); `project` reads both.
    #[allow(clippy::too_many_arguments)]
    pub fn spec_trials_observed<O, R, F>(
        &self,
        experiment: &str,
        point: &str,
        spec: &LensSpec,
        base_seed: u64,
        trials: u64,
        observer: impl Fn(u64) -> O + Sync,
        project: F,
    ) -> Vec<R>
    where
        O: SlotObserver,
        R: Send + Serialize + Deserialize,
        F: Fn(RunReport, O) -> R + Sync,
    {
        self.spec_unit::<Uncaught, _, _>(
            experiment,
            point,
            spec,
            base_seed,
            trials,
            observer,
            |run, obs| project(run.report, obs),
        )
    }

    /// [`ExpContext::spec_trials_observed`] with every trial isolated by
    /// [`catch_trial`]: a panicking trial is stored as
    /// [`TrialOutcome::Panicked`], counted rather than fatal, and
    /// `project` reads the whole [`Run`] (supervisor restarts and lease
    /// losses included). Pass `|_| Unobserved` to attach nothing.
    #[allow(clippy::too_many_arguments)]
    pub fn spec_trials_caught<O, R, F>(
        &self,
        experiment: &str,
        point: &str,
        spec: &LensSpec,
        base_seed: u64,
        trials: u64,
        observer: impl Fn(u64) -> O + Sync,
        project: F,
    ) -> Vec<TrialOutcome<R>>
    where
        O: SlotObserver,
        R: Send + Serialize + Deserialize,
        F: Fn(Run, O) -> R + Sync,
    {
        self.spec_unit::<Caught, _, _>(
            experiment, point, spec, base_seed, trials, observer, project,
        )
    }

    /// The one body of every spec form. Trial `seed` is
    /// [`LensSpec::run_observed`] at `seed` with `observer(seed)` attached
    /// (then the flight recorder's observer, when one is attached:
    /// [`Flight::run`]), projected by `project`, all under [`catch_trial`].
    /// A panic leaves a postmortem, and `K` stores the outcome or resumes
    /// the panic. The scheduler credits each trial with the slots its run
    /// played, whatever the projection keeps.
    #[allow(clippy::too_many_arguments)]
    fn spec_unit<K: Keep<R>, O: SlotObserver, R>(
        &self,
        experiment: &str,
        point: &str,
        spec: &LensSpec,
        base_seed: u64,
        trials: u64,
        observer: impl Fn(u64) -> O + Sync,
        project: impl Fn(Run, O) -> R + Sync,
    ) -> Vec<K::Stored> {
        spec.validate().unwrap_or_else(|e| panic!("{experiment}/{point}: {e}"));
        let work = WorkSpec::new(experiment, point, spec.to_params(), base_seed);
        let flight = self.flight.as_ref().map(|recorder| Flight {
            recorder,
            metrics: EngineMetrics::register(self.orch.stats().registry()),
            fingerprint: self.orch.fingerprint_hex::<K::Stored>(&work),
            experiment,
            point,
        });
        self.orch.run_trials_costed(&work, trials, |seed| {
            let mut slots = 0;
            let outcome = catch_trial(|| {
                let mut obs = observer(seed);
                let run = match &flight {
                    None => spec.run_observed(seed, &mut [&mut obs]),
                    Some(flight) => flight.run(spec, seed, &mut obs),
                };
                let run = run.expect("a validated spec runs");
                slots = run.report.slots;
                project(run, obs)
            });
            if let (Some(flight), Some(msg)) = (&flight, outcome.panic_message()) {
                let fingerprint = Some(flight.fingerprint.as_str());
                let _ = jle_engine::telemetry::dump_panic(flight.recorder, seed, fingerprint, msg);
            }
            (K::keep(outcome), slots)
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

/// The observer of a spec form that attaches none.
pub struct Unobserved;

impl SlotObserver for Unobserved {
    fn on_slot(&mut self, _: u64, _: &SlotTruth, _: &SlotActions, _: Option<f64>) {}
}

/// How a spec form stores a trial's caught outcome.
trait Keep<R> {
    /// The stored result type (part of the unit's cache key).
    type Stored: Send + Serialize + Deserialize;
    /// The stored result of `outcome`.
    fn keep(outcome: TrialOutcome<R>) -> Self::Stored;
}

/// [`ExpContext::spec_trials_caught`]: the outcome itself, a panic included.
struct Caught;

impl<R: Send + Serialize + Deserialize> Keep<R> for Caught {
    type Stored = TrialOutcome<R>;
    fn keep(outcome: TrialOutcome<R>) -> TrialOutcome<R> {
        outcome
    }
}

/// The uncaught forms: the trial's own result, or its panic resumed on
/// the scheduler's thread.
struct Uncaught;

impl<R: Send + Serialize + Deserialize> Keep<R> for Uncaught {
    type Stored = R;
    fn keep(outcome: TrialOutcome<R>) -> R {
        match outcome {
            TrialOutcome::Ok(result) => result,
            TrialOutcome::Panicked(msg) => std::panic::resume_unwind(Box::new(msg)),
        }
    }
}

/// A spec unit's flight-recorder wiring: executed trials run under a
/// [`TelemetryObserver`] stamped with the unit's cache fingerprint, so
/// anomalous runs, supervisor restarts, lease losses and caught panics
/// leave replayable postmortems.
struct Flight<'a> {
    recorder: &'a Arc<FlightRecorder>,
    metrics: EngineMetrics,
    fingerprint: String,
    experiment: &'a str,
    point: &'a str,
}

impl Flight<'_> {
    /// `spec`'s run at `seed` with the telemetry observer and `observer`
    /// attached, its restarts and lease losses dumped as anomalies.
    fn run(
        &self,
        spec: &LensSpec,
        seed: u64,
        observer: &mut dyn SlotObserver,
    ) -> Result<Run, SpecError> {
        let mut telemetry = TelemetryObserver::new(&spec.config(seed))
            .with_flight_recorder(Arc::clone(self.recorder))
            .with_context("experiment", self.experiment)
            .with_context("point", self.point)
            .with_metrics(self.metrics.clone())
            .with_fingerprint(self.fingerprint.clone());
        let run = spec.run_observed(seed, &mut [observer, &mut telemetry])?;
        if let Some(first) = run.restarts.first() {
            let count = |c: RestartCause| run.restarts.iter().filter(|r| r.cause == c).count();
            telemetry.dump_anomaly(
                AnomalyKind::SupervisorRestart,
                format!(
                    "{} supervisor restart(s): {} wedged, {} crashed, {} cap; first at slot {} \
                     (window {})",
                    run.restarts.len(),
                    count(RestartCause::Wedged),
                    count(RestartCause::Crashed),
                    count(RestartCause::Cap),
                    first.slot,
                    first.window,
                ),
            );
        }
        if let Some(first) = run.lease_losses.first() {
            let count =
                |c: LeaseLossCause| run.lease_losses.iter().filter(|r| r.cause == c).count();
            telemetry.dump_anomaly(
                AnomalyKind::LeaseLost,
                format!(
                    "{} lease loss(es): {} silence, {} beacon contention; first at slot {} \
                     (station {})",
                    run.lease_losses.len(),
                    count(LeaseLossCause::Silence),
                    count(LeaseLossCause::BeaconContention),
                    first.slot,
                    first.station,
                ),
            );
        }
        Ok(run)
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
    use jle_lens::EngineKind;
    use jle_orchestrator::{Event, Reporter};
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

    /// A projection that keeps no slots still leaves each chunk event with
    /// the slots its runs played, and the events add up to the
    /// orchestrator's simulated-slot counter.
    #[test]
    fn projected_units_log_the_slots_they_ran() {
        struct Chunks(Arc<Mutex<Vec<u64>>>);
        impl Reporter for Chunks {
            fn report(&self, event: &Event<'_>) {
                if let Event::ChunkFinished { slots, .. } = event {
                    self.0.lock().unwrap().push(*slots);
                }
            }
        }
        let chunks = Arc::new(Mutex::new(Vec::new()));
        let orch = Orchestrator::ephemeral().chunk_size(4).reporter(Chunks(Arc::clone(&chunks)));
        let ctx = ExpContext::new(true, Arc::new(orch));
        let spec = LensSpec::new(
            EngineKind::Cohort,
            ProtoParams::lesk(0.5),
            64,
            CdModel::Strong,
            AdversarySpec::passive(),
            100_000,
        );
        let elected = ctx.spec_trials("e0", "projected", &spec, 1, 10, |r| r.leader_elected());
        assert_eq!(elected, vec![true; 10]);
        let chunks = chunks.lock().unwrap();
        assert_eq!(chunks.len(), 3, "chunks of 4, 4 and 2 trials");
        assert!(chunks.iter().all(|&slots| slots > 0), "{chunks:?}");
        let simulated = ctx.orchestrator().stats_snapshot().simulated_slots;
        assert_eq!(chunks.iter().sum::<u64>(), simulated);
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
