//! The local workloads: `sweep_cold` and `sweep_warm`.
//!
//! Both drive the reference sweep through `Orchestrator::run_trials` /
//! `run_trials_batched` and run the experiments' table step
//! (`Summary` + `median_ci`) over each unit's slot counts. They differ
//! only in what the store holds when a pass starts.

use crate::exec::{self, Orchestrators, Prepared, Probe};
use crate::fold;
use crate::metrics::Metrics;
use crate::spec::Family;
use crate::sys;
use crate::{median, Run};
use jle_engine::RunReport;
use jle_orchestrator::{ResultStore, StatsSnapshot};
use jle_telemetry::SpanRecorder;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

/// One pass over the reference sweep.
pub struct Pass {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Wall time of each `run_trials*` call, ms.
    pub unit_ms: Vec<f64>,
    /// Each unit's reports, or why it failed.
    pub outcomes: Vec<Result<Vec<RunReport>, String>>,
    /// Orchestrator counters moved by each unit.
    pub unit_stats: Vec<StatsSnapshot>,
    pub stats: StatsSnapshot,
    pub analysis_s: f64,
    pub analysis_calls: u64,
    pub fingerprint_s: f64,
    /// `[from, to)` of the pass on the probe's recorder clock.
    pub window_us: (u64, u64),
}

fn delta(after: StatsSnapshot, before: StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        planned_trials: after.planned_trials - before.planned_trials,
        executed_trials: after.executed_trials - before.executed_trials,
        cached_trials: after.cached_trials - before.cached_trials,
        chunk_hits: after.chunk_hits - before.chunk_hits,
        chunk_misses: after.chunk_misses - before.chunk_misses,
        simulated_slots: after.simulated_slots - before.simulated_slots,
        live_slots: after.live_slots - before.live_slots,
        units: after.units - before.units,
    }
}

/// Run every unit once through `orchs`, then the table step on its slot
/// counts: `Summary` for every unit, a bootstrap median CI for jammed
/// ones (E1's table). With a probe, spans wrap each call and engine closures are
/// timed.
pub fn run_pass(prepared: &[Prepared], orchs: &Orchestrators, probe: Option<&Probe>) -> Pass {
    let recorder = probe.map_or_else(SpanRecorder::disabled, |p| p.recorder.clone());
    let from_us = recorder.now_us();
    let (cpu0, wall0) = (sys::cpu_seconds(), Instant::now());
    let mut pass = Pass {
        wall_s: 0.0,
        cpu_s: 0.0,
        unit_ms: Vec::with_capacity(prepared.len()),
        outcomes: Vec::with_capacity(prepared.len()),
        unit_stats: Vec::with_capacity(prepared.len()),
        stats: StatsSnapshot::default(),
        analysis_s: 0.0,
        analysis_calls: 0,
        fingerprint_s: 0.0,
        window_us: (0, 0),
    };
    for p in prepared {
        if probe.is_some() {
            let _span = recorder.span("orchestrator", "fingerprint");
            let started = Instant::now();
            std::hint::black_box(orchs.fingerprint(&p.unit.spec));
            pass.fingerprint_s += started.elapsed().as_secs_f64();
        }
        let before = orchs.stats();
        let unit_span = recorder.span("bench", format!("unit:{}", p.unit.spec.point));
        let started = Instant::now();
        let outcome =
            catch_unwind(AssertUnwindSafe(|| exec::run_unit(orchs, p, probe, unit_span.id())))
                .map_err(|_| format!("{}: panicked", p.unit.spec.point));
        pass.unit_ms.push(started.elapsed().as_secs_f64() * 1e3);
        drop(unit_span);
        pass.unit_stats.push(delta(orchs.stats(), before));
        if let Ok(reports) = &outcome {
            let _span = recorder.span("analysis", "summary");
            let started = Instant::now();
            let slots: Vec<f64> = reports.iter().map(|r| r.slots as f64).collect();
            std::hint::black_box(jle_analysis::Summary::of(&slots));
            if p.unit.jammed {
                std::hint::black_box(jle_analysis::median_ci(&slots, 0.95, p.unit.spec.base_seed));
            }
            pass.analysis_s += started.elapsed().as_secs_f64();
            pass.analysis_calls += 1;
        }
        pass.outcomes.push(outcome);
    }
    pass.wall_s = wall0.elapsed().as_secs_f64();
    pass.cpu_s = sys::cpu_seconds() - cpu0;
    pass.window_us = (from_us, recorder.now_us());
    pass.stats = orchs.stats();
    pass
}

/// Per-unit output checks of one pass against the reference digests
/// (none when `reference` is empty). Returns the pass's digests;
/// failures are counted on `run`.
fn check_pass(
    run: &mut Run,
    prepared: &[Prepared],
    pass: &Pass,
    reference: &[String],
    unit_ok: impl Fn(&StatsSnapshot) -> Result<(), String>,
) -> Vec<String> {
    let mut digests = Vec::with_capacity(prepared.len());
    for (i, p) in prepared.iter().enumerate() {
        run.attempted += 1;
        let checked = pass.outcomes[i].as_ref().map_err(Clone::clone).and_then(|reports| {
            exec::check_unit(&p.unit, reports)?;
            unit_ok(&pass.unit_stats[i]).map_err(|e| format!("{}: {e}", p.unit.spec.point))?;
            let d = exec::digest(reports);
            match reference.get(i) {
                Some(want) if *want != d => {
                    Err(format!("{}: report digest differs from the reference", p.unit.spec.point))
                }
                _ => Ok(d),
            }
        });
        match checked {
            Ok(d) => digests.push(d),
            Err(e) => {
                run.fail(e);
                digests.push(String::new());
            }
        }
    }
    digests
}

fn cold_unit_ok(s: &StatsSnapshot) -> Result<(), String> {
    match s.chunk_hits {
        0 => Ok(()),
        hits => Err(format!("{hits} chunk hits on a cold store")),
    }
}

fn warm_unit_ok(s: &StatsSnapshot) -> Result<(), String> {
    if s.executed_trials != 0 || s.chunk_misses != 0 {
        return Err(format!(
            "warm pass executed {} trials over {} chunk misses",
            s.executed_trials, s.chunk_misses
        ));
    }
    Ok(())
}

/// One pass over `store`, empty (a cold pass, or the sweep_warm fill)
/// or filled (a warm pass).
fn pass_over(run: &Run, prepared: &[Prepared], store: &ResultStore, probe: Option<&Probe>) -> Pass {
    let tracer = probe.map_or_else(SpanRecorder::disabled, |p| p.recorder.clone());
    let orchs = Orchestrators::new(store, run.jobs, &tracer);
    run_pass(prepared, &orchs, probe)
}

fn open(dir: &Path) -> ResultStore {
    ResultStore::open(dir).expect("open a scratch store")
}

/// End-to-end metrics of a set of measured passes.
fn end_to_end(m: &mut Metrics, run: &mut Run, passes: &[Pass]) {
    let wall: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let sweep_s = median(&wall);
    m.set("sweep_s", sweep_s);
    m.set("cpu_s", passes.iter().map(|p| p.cpu_s).sum::<f64>() / passes.len() as f64);
    let units: usize = passes.iter().map(|p| p.unit_ms.len()).sum::<usize>() / passes.len();
    m.set("submissions_per_s", units as f64 / sweep_s);
    let latencies: Vec<f64> = passes.iter().flat_map(|p| p.unit_ms.iter().copied()).collect();
    run.latency(m, &latencies);
}

/// Per-layer metrics of one traced pass.
fn per_layer(m: &mut Metrics, run: &Run, pass: &Pass, probe: &Probe, baseline_s: f64) {
    let t = probe.tally();
    for f in Family::ALL {
        let i = f.index();
        m.set(&format!("engine.{}.busy_s", f.label()), t.busy_s[i]);
        m.set(&format!("engine.{}.trials", f.label()), t.trials[i] as f64);
        m.set(&format!("engine.{}.slots", f.label()), t.slots[i] as f64);
    }
    let b = Family::Batch.index();
    m.set("engine.batch.mean_width", t.trials[b] as f64 / t.calls[b].max(1) as f64);
    let trials: u64 = t.trials.iter().sum();
    m.set("engine.resolved_ratio", t.resolved as f64 / trials.max(1) as f64);
    m.set("engine.cap_hits", t.cap_hits as f64);
    m.set("adversary.jammed_slots", t.jammed as f64);
    m.set("radio.collision_slots", t.collisions as f64);

    let s = pass.stats;
    m.set("orchestrator.fingerprint_s", pass.fingerprint_s);
    m.set("orchestrator.units", s.units as f64);
    m.set("orchestrator.chunk_hits", s.chunk_hits as f64);
    m.set("orchestrator.chunk_misses", s.chunk_misses as f64);
    m.set("orchestrator.executed_trials", s.executed_trials as f64);
    m.set("orchestrator.cached_trials", s.cached_trials as f64);
    m.set("orchestrator.fanout_threads", (s.chunk_misses * run.jobs as u64) as f64);
    m.set("analysis.busy_s", pass.analysis_s);
    m.set("analysis.calls", pass.analysis_calls as f64);

    let events = probe.recorder.export_events();
    let table = fold::fold(&events, pass.window_us.0, pass.window_us.1);
    run.record_fold(m, &table);
    m.set("telemetry.trace_overhead", pass.wall_s / baseline_s - 1.0);
    m.set("telemetry.spans", probe.recorder.len() as f64);
    run.write_trace(&probe.recorder, &table);
}

/// `sweep_cold`: the reference sweep, each pass into an empty store,
/// `jobs` = nproc. The engine does nearly all the work.
pub fn sweep_cold(run: &mut Run, m: &mut Metrics) {
    let prepared = run.setup_local(|run, prepared| {
        // Lazy set-up (page faults, allocator growth, first thread
        // spawns): one unit of every family into a throwaway store.
        let store = open(&run.dir(&format!("warmup-{}", run.setup_round)));
        let orchs = Orchestrators::new(&store, run.jobs, &SpanRecorder::disabled());
        for family in Family::ALL {
            if let Some(p) = prepared.iter().find(|p| p.unit.family == family) {
                exec::run_unit(&orchs, p, None, 0);
            }
        }
    });
    let passes = run.passes(crate::COLD_PASS_S, prepared.len());
    let mut measured = Vec::new();
    let mut reference = Vec::new();
    let mut store = None;
    for k in 0..passes {
        let empty = open(&run.dir(&format!("cold-{k}")));
        let mut pass = pass_over(run, &prepared, &empty, None);
        let digests = check_pass(run, &prepared, &pass, &reference, cold_unit_ok);
        if reference.is_empty() {
            reference = digests;
            // A sample of batched units re-run per trial must match bit
            // for bit.
            run.check_batched_sample(&prepared, &pass);
        }
        // Reports are checked; keeping them would grow the peak RSS
        // with the pass count.
        pass.outcomes = Vec::new();
        measured.push(pass);
        store = Some(empty);
    }
    // The last pass's store, read back warm, must give the same reports.
    let warm = pass_over(run, &prepared, &store.expect("at least one pass"), None);
    check_pass(run, &prepared, &warm, &reference, warm_unit_ok);
    drop(warm);

    if run.traced {
        let baseline_s = median(&measured.iter().map(|p| p.wall_s).collect::<Vec<_>>());
        let probe = Probe::new(SpanRecorder::new());
        let store = open(&run.dir("cold-traced"));
        let pass = pass_over(run, &prepared, &store, Some(&probe));
        check_pass(run, &prepared, &pass, &reference, cold_unit_ok);
        per_layer(m, run, &pass, &probe, baseline_s);
        run.probe_store(m, &store, &prepared.iter().map(|p| &p.unit).collect::<Vec<_>>());
    } else {
        end_to_end(m, run, &measured);
    }
}

/// `sweep_warm`: the same specs against a store filled in set-up; a
/// fixed number of full passes that execute nothing.
pub fn sweep_warm(run: &mut Run, m: &mut Metrics) {
    let mut fill: Option<(Pass, ResultStore)> = None;
    let prepared = run.setup_local(|run, prepared| {
        let store = open(&run.dir(&format!("fill-{}", run.setup_round)));
        fill = Some((pass_over(run, prepared, &store, None), store));
    });
    let (fill, store) = fill.expect("set-up fills the store");
    let reference = check_pass(run, &prepared, &fill, &[], cold_unit_ok);
    drop(fill);
    let passes = run.passes(crate::WARM_PASS_S, prepared.len());
    let mut measured = Vec::new();
    for _ in 0..passes {
        let mut pass = pass_over(run, &prepared, &store, None);
        check_pass(run, &prepared, &pass, &reference, warm_unit_ok);
        pass.outcomes = Vec::new();
        measured.push(pass);
    }
    if run.traced {
        let baseline_s = median(&measured.iter().map(|p| p.wall_s).collect::<Vec<_>>());
        let probe = Probe::new(SpanRecorder::new());
        let pass = pass_over(run, &prepared, &store, Some(&probe));
        check_pass(run, &prepared, &pass, &reference, warm_unit_ok);
        per_layer(m, run, &pass, &probe, baseline_s);
        run.probe_store(m, &store, &prepared.iter().map(|p| &p.unit).collect::<Vec<_>>());
    } else {
        end_to_end(m, run, &measured);
    }
}
