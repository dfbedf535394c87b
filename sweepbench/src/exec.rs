//! Running generated units through the program's public entry points,
//! and the outside-in accounting of what the engine did.
//!
//! Every closure handed to the orchestrator is reconstructed from the
//! unit's parameter tree alone — `jle_sweepd::work` for the election
//! kinds, and the E26 recipe for the multi-hop arm — so the program sees
//! nothing but the generated specs.

use crate::spec::{scenarios, Family, Scenario, Unit, CLUSTER_EPS, CLUSTER_QUIET};
use jle_adversary::AdversarySpec;
use jle_engine::{run_multihop, RunReport, SimConfig, StopRule};
use jle_orchestrator::{Fingerprint, Orchestrator, ResultStore, WorkSpec, DEFAULT_CODE_SALT};
use jle_protocols::ClusterElection;
use jle_radio::CdModel;
use jle_sweepd::work::{build_batch_fn, build_trial_fn, engine_mode_of, BatchFn, TrialFn};
use jle_telemetry::{MetricRegistry, SpanRecorder};
use serde::{Deserialize, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The closure behind one unit: per trial (cohort, fast-exact and the
/// multi-hop arm) or per seed batch.
pub enum Engine {
    Trial(TrialFn),
    Batch(BatchFn),
}

/// A unit with its closure built.
pub struct Prepared {
    pub unit: Unit,
    pub engine: Engine,
}

fn multihop_fn(params: &Value, scenarios: &Arc<[Scenario; 2]>) -> Result<Engine, String> {
    let descriptor = params.get("topology").and_then(Value::as_str).ok_or("missing topology")?;
    let index = scenarios
        .iter()
        .position(|s| s.topology.descriptor() == descriptor)
        .ok_or_else(|| format!("unknown topology {descriptor}"))?;
    let cd = match params.get("cd").and_then(Value::as_str) {
        Some("Strong") => CdModel::Strong,
        Some("Weak") => CdModel::Weak,
        other => return Err(format!("unknown cd {other:?}")),
    };
    let adv = AdversarySpec::from_json_value(params.get("adv").ok_or("missing adv")?)
        .map_err(|e| format!("bad adv: {e}"))?;
    let horizon = params.get("horizon").and_then(Value::as_u64).ok_or("missing horizon")?;
    let proto = params.get("proto").ok_or("missing proto")?;
    let eps = proto.get("eps").and_then(Value::as_f64).ok_or("missing eps")?;
    let quiet = proto.get("quiet").and_then(Value::as_u64).ok_or("missing quiet")?;
    if eps != CLUSTER_EPS || quiet != CLUSTER_QUIET {
        return Err("cluster election parameters differ from the E26 recipe".into());
    }
    let scenarios = Arc::clone(scenarios);
    Ok(Engine::Trial(Box::new(move |seed| {
        let sc = &scenarios[index];
        let config = SimConfig::new(sc.clusters.len() as u64, cd)
            .with_seed(seed)
            .with_max_slots(horizon)
            .with_stop(StopRule::AllTerminated);
        run_multihop(&config, &adv, &sc.topology, Some(&sc.clusters), |i| {
            Box::new(ClusterElection::for_assignment(i, &sc.clusters, eps).with_quiet_target(quiet))
        })
    })))
}

/// Build every unit's closure from its parameter tree.
pub fn prepare(units: Vec<Unit>) -> Result<Vec<Prepared>, String> {
    let scenarios = Arc::new(scenarios());
    units
        .into_iter()
        .map(|unit| {
            let params = &unit.spec.params;
            let engine = match unit.family {
                Family::Cohort | Family::FastExact => {
                    Engine::Trial(build_trial_fn(params).map_err(|e| e.to_string())?)
                }
                Family::Batch => Engine::Batch(build_batch_fn(params).map_err(|e| e.to_string())?),
                Family::Multihop => multihop_fn(params, &scenarios)?,
            };
            Ok(Prepared { unit, engine })
        })
        .collect()
}

/// Outside-in engine accounting, filled only on traced runs: every
/// closure call is timed and its reports are tallied.
#[derive(Default)]
pub struct Probe {
    pub recorder: SpanRecorder,
    busy_ns: [AtomicU64; 4],
    calls: [AtomicU64; 4],
    trials: [AtomicU64; 4],
    slots: [AtomicU64; 4],
    resolved: AtomicU64,
    cap_hits: AtomicU64,
    jammed: AtomicU64,
    collisions: AtomicU64,
}

/// A copy of a [`Probe`]'s tallies.
#[derive(Debug, Clone, Default)]
pub struct EngineTally {
    pub busy_s: [f64; 4],
    pub calls: [u64; 4],
    pub trials: [u64; 4],
    pub slots: [u64; 4],
    pub resolved: u64,
    pub cap_hits: u64,
    pub jammed: u64,
    pub collisions: u64,
}

impl Probe {
    pub fn new(recorder: SpanRecorder) -> Self {
        Probe { recorder, ..Probe::default() }
    }

    fn record(&self, family: Family, started: Instant, reports: &[RunReport]) {
        let i = family.index();
        self.busy_ns[i].fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls[i].fetch_add(1, Ordering::Relaxed);
        self.trials[i].fetch_add(reports.len() as u64, Ordering::Relaxed);
        for r in reports {
            self.slots[i].fetch_add(r.slots, Ordering::Relaxed);
            self.resolved.fetch_add(u64::from(resolved(r)), Ordering::Relaxed);
            self.cap_hits.fetch_add(u64::from(r.cap_hit), Ordering::Relaxed);
            self.jammed.fetch_add(r.counts.jammed, Ordering::Relaxed);
            self.collisions.fetch_add(r.counts.collisions - r.counts.jammed, Ordering::Relaxed);
        }
    }

    pub fn tally(&self) -> EngineTally {
        let get = |a: &[AtomicU64; 4]| a.each_ref().map(|x| x.load(Ordering::Relaxed));
        EngineTally {
            busy_s: get(&self.busy_ns).map(|ns| ns as f64 * 1e-9),
            calls: get(&self.calls),
            trials: get(&self.trials),
            slots: get(&self.slots),
            resolved: self.resolved.load(Ordering::Relaxed),
            cap_hits: self.cap_hits.load(Ordering::Relaxed),
            jammed: self.jammed.load(Ordering::Relaxed),
            collisions: self.collisions.load(Ordering::Relaxed),
        }
    }
}

/// Whether a trial produced a leader: a clean single for the election
/// kinds, network-wide agreement for the multi-hop arm.
pub fn resolved(r: &RunReport) -> bool {
    match &r.multihop {
        Some(mh) => mh.network_leader.is_some(),
        None => r.resolved_at.is_some(),
    }
}

/// The output check every report must pass: a resolved trial has
/// exactly one winner, and no run outlives its slot cap.
pub fn check_report(r: &RunReport, max_slots: u64) -> Result<(), String> {
    if r.slots > max_slots {
        return Err(format!("{} slots exceed the cap {max_slots}", r.slots));
    }
    if r.leaders.len() > 1 {
        return Err(format!("{} leaders", r.leaders.len()));
    }
    match &r.multihop {
        Some(mh) => {
            if let Some(leader) = mh.network_leader {
                if r.leaders != [leader] || !mh.all_clusters_resolved() {
                    return Err(format!("network leader {leader} but leaders {:?}", r.leaders));
                }
            }
        }
        None => {
            if r.resolved_at.is_some() && r.winner.is_none() {
                return Err("resolved without a winner".into());
            }
        }
    }
    Ok(())
}

/// Check a unit's reports: count and per-report checks.
pub fn check_unit(unit: &Unit, reports: &[RunReport]) -> Result<(), String> {
    if reports.len() as u64 != unit.trials {
        return Err(format!(
            "{}: {} reports for {} trials",
            unit.spec.point,
            reports.len(),
            unit.trials
        ));
    }
    for (i, r) in reports.iter().enumerate() {
        check_report(r, unit.max_slots)
            .map_err(|e| format!("{} trial {i}: {e}", unit.spec.point))?;
    }
    Ok(())
}

/// SHA-256 of a unit's reports as the store serializes them.
pub fn digest(reports: &[RunReport]) -> String {
    let text = serde_json::to_string(&reports.to_vec()).expect("report serialization");
    jle_orchestrator::sha256::sha256_hex(text.as_bytes())
}

/// The cache key an orchestrator derives for `spec`: the code salt,
/// tagged with the engine mode as `Orchestrator::engine_mode` does.
pub fn cache_key(spec: &WorkSpec) -> Fingerprint {
    let salt = match engine_mode_of(&spec.params) {
        "exact" => DEFAULT_CODE_SALT.to_string(),
        mode => format!("{DEFAULT_CODE_SALT}+engine={mode}"),
    };
    Fingerprint::of(spec, &salt, std::any::type_name::<RunReport>())
}

/// The two orchestrators a sweep needs — one per cache salt — over one
/// store and one counter registry.
pub struct Orchestrators {
    exact: Orchestrator,
    fast_exact: Orchestrator,
}

impl Orchestrators {
    pub fn new(store: &ResultStore, jobs: usize, tracer: &SpanRecorder) -> Self {
        let registry = MetricRegistry::new();
        let make = |mode: &str| {
            Orchestrator::with_store(store.clone())
                .jobs(jobs)
                .engine_mode(mode)
                .metrics_registry(&registry)
                .tracer(tracer.clone())
        };
        Orchestrators { exact: make("exact"), fast_exact: make("fast-exact") }
    }

    /// The orchestrator whose salt `spec` is cached under.
    pub fn for_spec(&self, spec: &WorkSpec) -> &Orchestrator {
        match engine_mode_of(&spec.params) {
            "fast-exact" => &self.fast_exact,
            _ => &self.exact,
        }
    }

    pub fn fingerprint(&self, spec: &WorkSpec) -> String {
        self.for_spec(spec).fingerprint_hex::<RunReport>(spec)
    }

    /// Counters shared by both orchestrators.
    pub fn stats(&self) -> jle_orchestrator::StatsSnapshot {
        self.exact.stats_snapshot()
    }
}

/// Run one unit through `run_trials` / `run_trials_batched`. With a
/// probe, every closure call is timed and spanned under `parent`.
pub fn run_unit(
    orchs: &Orchestrators,
    p: &Prepared,
    probe: Option<&Probe>,
    parent: u64,
) -> Vec<RunReport> {
    let orch = orchs.for_spec(&p.unit.spec);
    let (spec, trials, family) = (&p.unit.spec, p.unit.trials, p.unit.family);
    let timed = |probe: &Probe, run: &dyn Fn() -> Vec<RunReport>| {
        let _span = probe.recorder.child_span("engine", family.label(), parent);
        let started = Instant::now();
        let reports = run();
        probe.record(family, started, &reports);
        reports
    };
    match (&p.engine, probe) {
        (Engine::Batch(f), None) => orch.run_trials_batched(spec, trials, |seeds| f(seeds)),
        (Engine::Batch(f), Some(probe)) => {
            orch.run_trials_batched(spec, trials, |seeds| timed(probe, &|| f(seeds)))
        }
        (Engine::Trial(f), None) => orch.run_trials(spec, trials, f),
        (Engine::Trial(f), Some(probe)) => {
            orch.run_trials(spec, trials, |seed| timed(probe, &|| vec![f(seed)]).remove(0))
        }
    }
}

/// Re-run a unit per trial through `build_trial_fn`, outside the
/// orchestrator — the reference a batched unit must match bit for bit.
pub fn per_trial_reference(unit: &Unit) -> Result<Vec<RunReport>, String> {
    let f = build_trial_fn(&unit.spec.params).map_err(|e| e.to_string())?;
    Ok((0..unit.trials).map(|i| f(unit.spec.base_seed + i)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::reference_sweep;
    use jle_orchestrator::canonicalize;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sweepbench-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn cache_key_is_the_orchestrators_fingerprint() {
        let store = ResultStore::open(scratch("keys")).unwrap();
        let orchs = Orchestrators::new(&store, 1, &SpanRecorder::disabled());
        for unit in reference_sweep(9) {
            assert_eq!(
                cache_key(&unit.spec).hex(),
                orchs.fingerprint(&unit.spec),
                "{}",
                unit.spec.point
            );
        }
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn report_checks_catch_missing_winners_and_overruns() {
        let ok =
            RunReport { slots: 10, resolved_at: Some(9), winner: Some(3), ..RunReport::default() };
        assert!(check_report(&ok, 10).is_ok());
        assert!(check_report(&RunReport { winner: None, ..ok.clone() }, 10).is_err());
        assert!(check_report(&ok, 9).is_err());
        assert!(check_report(&RunReport { leaders: vec![1, 2], ..ok.clone() }, 10).is_err());
    }

    #[test]
    fn the_program_receives_only_the_generated_specs() {
        // One unit of every family, as generated, run through the
        // orchestrators: the store must then hold exactly those units,
        // each under its cache key and with its generated spec.
        let units = reference_sweep(4);
        let picked: Vec<Unit> = Family::ALL
            .iter()
            .map(|f| {
                units.iter().filter(|u| u.family == *f).min_by_key(|u| u.trials).unwrap().clone()
            })
            .collect();
        let store = ResultStore::open(scratch("specs")).unwrap();
        let orchs = Orchestrators::new(&store, 2, &SpanRecorder::disabled());
        for p in prepare(picked.clone()).unwrap() {
            let reports = run_unit(&orchs, &p, None, 0);
            check_unit(&p.unit, &reports).unwrap();
        }
        let mut stored = Vec::new();
        for shard in std::fs::read_dir(store.root()).unwrap() {
            for unit in std::fs::read_dir(shard.unwrap().path()).unwrap() {
                stored.push(unit.unwrap().file_name().to_string_lossy().into_owned());
            }
        }
        let mut expected: Vec<String> =
            picked.iter().map(|u| cache_key(&u.spec).hex().to_string()).collect();
        stored.sort();
        expected.sort();
        assert_eq!(stored, expected);
        for u in &picked {
            let (_, spec) = store.load_spec_info(cache_key(&u.spec).hex()).unwrap();
            assert_eq!(spec, canonicalize(&u.spec.to_value()), "{}", u.spec.point);
        }
        let _ = std::fs::remove_dir_all(store.root());
    }
}
