//! E24 — fault injection and restart supervision: elections beyond the
//! paper's perfect-station model.
//!
//! The theorems assume every station boots at slot 0 and runs flawlessly
//! forever. E24 drops that assumption: stations crash (state loss), wake
//! up late, and mis-sense the channel (`Null`/`Collision` flips), all on
//! top of the usual saturating `(T, 1−ε)` jammer. Runs go through
//! [`jle_engine::run_fast_exact_faulty`] and are classified by the
//! [`Outcome`] degradation taxonomy; a supervised arm wraps each station
//! in [`Supervisor`] (silence watchdog + restart with exponential
//! backoff) and is coupled to the bare arm — identical seeds and
//! identical [`FaultPlan`]s — so any difference is the supervisor's
//! doing. Every trial is a self-contained cacheable unit: it is caught
//! individually via [`jle_engine::catch_trial`] and carries its own
//! supervisor-respawn count, so a cached replay reproduces restart
//! statistics without re-simulating.
//!
//! What the sweep can and cannot show, honestly: LESK's one-sided-error
//! rule makes it self-stabilizing (silence drives the estimate down, so
//! it cannot wedge), and under the first-clean-single stop rule the
//! failure modes that remain — the would-be winner being crashed at the
//! end of the horizon, or a near-total wipeout running into the cap —
//! are decided by the fault plan, which both arms share. The measurable
//! claims are therefore (1) *supervision is free insurance*: with a sane
//! watchdog the supervised arm is slot-for-slot identical to the bare
//! arm, so its validity is never lower; and (2) *the backoff rescues
//! over-aggressive watchdogs*: a window far below the election time
//! fires restarts, yet doubling grows it past the election time and
//! validity is retained at the price of extra slots.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::common::{median, saturating, ExpContext, ExperimentResult, PER_STATION_ENGINE};
use jle_adversary::AdversarySpec;
use jle_analysis::{fmt, Figure, Series, Table};
use jle_engine::{
    catch_trial, run_fast_exact_faulty, FastFaultyStations, FaultPlan, Outcome, PerStation,
    Protocol, RunReport, SimConfig, SimCore, TelemetryObserver, TrialOutcome,
};
use jle_orchestrator::WorkSpec;
use jle_protocols::{
    LeskProtocol, LesuProtocol, RestartCause, RestartRecord, RestartSink, Supervisor,
};
use jle_radio::CdModel;
use jle_telemetry::AnomalyKind;
use serde::{Serialize, Value};

const N: u64 = 24;
const EPS: f64 = 0.5;
const T_WINDOW: u64 = 32;
/// Default watchdog: far above the typical election time at n = 24, so
/// supervision stays transparent unless the election is truly wedged.
const WATCHDOG: u64 = 16_384;
/// Crashes land uniformly in this window.
const CRASH_WINDOW: u64 = 2_048;
/// Sensing-flip probability used in the "churn" plans.
const FLIP: f64 = 0.02;
/// Salt so the fault plan's streams are decoupled from the engine seed.
const PLAN_SALT: u64 = 0xFA17;

/// Measured statistics of one (protocol, fault-plan) arm.
struct ArmStats {
    valid: f64,
    leader_crashed: f64,
    deadline: f64,
    med_slots: f64,
    /// Mean supervisor restarts per run; `None` for unsupervised arms.
    mean_restarts: Option<f64>,
    panics: u64,
}

impl ArmStats {
    fn restarts_cell(&self) -> String {
        match self.mean_restarts {
            Some(r) => format!("{r:.2}"),
            None => "-".into(),
        }
    }
}

/// The canonical parameter tree of one faulty-election arm: the fault
/// *plan descriptor* (plans themselves are per-seed, derived from it),
/// the protocol, and the optional supervisor watchdog.
fn arm_params(
    adv: &AdversarySpec,
    cap: u64,
    plan: Value,
    proto: Value,
    watchdog: Option<u64>,
) -> Value {
    serde_json::json!({
        "kind": "faulty_election",
        "engine": PER_STATION_ENGINE,
        "n": N,
        "adv": adv.to_json_value(),
        "max_slots": cap,
        "plan": plan,
        "proto": proto,
        "watchdog": watchdog,
    })
}

/// Run one arm as a cacheable work unit: `trials` coupled runs of the
/// factory built by `mk_factory` under `plan_of(seed)`.
///
/// Each trial builds its *own* respawn counter, hands it to
/// `mk_factory`, and returns `(outcome, spawns)` — since every run
/// spawns exactly `N` initial inners and the e24 plans schedule no
/// recoveries, the per-trial surplus over `N` is exactly the number of
/// supervisor restarts. Keeping the count inside the trial result (not
/// a global side channel) is what lets a cached replay reproduce it.
#[allow(clippy::too_many_arguments)]
fn run_arm<F, G>(
    ctx: &ExpContext,
    point: &str,
    params: Value,
    trials: u64,
    base_seed: u64,
    cap: u64,
    adv: &AdversarySpec,
    plan_of: &(dyn Fn(u64) -> FaultPlan + Sync),
    counted: bool,
    mk_factory: G,
) -> ArmStats
where
    F: Fn(u64) -> Box<dyn Protocol> + Send + Sync + 'static,
    G: Fn(Arc<AtomicU64>, Option<RestartSink>) -> F + Sync,
{
    // With a flight recorder attached, executed trials run with a
    // TelemetryObserver (pure instrumentation, proven to leave the RNG
    // stream untouched), so anomalous runs, caught panics, and
    // supervisor restarts all leave replayable postmortems stamped with
    // this unit's cache fingerprint.
    let recorder = ctx.flight_recorder().cloned();
    let metrics = recorder
        .as_ref()
        .map(|_| jle_engine::EngineMetrics::register(ctx.orchestrator().stats().registry()));
    let fingerprint = recorder.as_ref().map(|_| {
        ctx.orchestrator().fingerprint_hex::<(TrialOutcome<RunReport>, u64)>(&WorkSpec::new(
            "e24",
            point,
            params.clone(),
            base_seed,
        ))
    });
    let outcomes: Vec<(TrialOutcome<RunReport>, u64)> =
        ctx.run_trials("e24", point, params, base_seed, trials, |seed| {
            let spawns = Arc::new(AtomicU64::new(0));
            let restarts: Arc<Mutex<Vec<RestartRecord>>> = Arc::new(Mutex::new(Vec::new()));
            let sink: Option<RestartSink> = recorder.as_ref().map(|_| {
                let log = Arc::clone(&restarts);
                Arc::new(move |r: &RestartRecord| log.lock().expect("restart log").push(*r))
                    as RestartSink
            });
            let factory = mk_factory(Arc::clone(&spawns), sink);
            let out = catch_trial(|| {
                let config = SimConfig::new(N, CdModel::Strong).with_seed(seed).with_max_slots(cap);
                let plan = plan_of(seed);
                match &recorder {
                    None => run_fast_exact_faulty(&config, adv, &plan, factory),
                    Some(rec) => {
                        let mut obs = TelemetryObserver::new(&config)
                            .with_flight_recorder(Arc::clone(rec))
                            .with_context("experiment", "e24")
                            .with_context("point", point);
                        if let Some(m) = &metrics {
                            obs = obs.with_metrics(m.clone());
                        }
                        if let Some(fp) = &fingerprint {
                            obs = obs.with_fingerprint(fp.clone());
                        }
                        let mut stations = FastFaultyStations::new(&config, &plan, factory);
                        let report =
                            SimCore::new(&config, adv).observe(&mut obs).run(&mut stations);
                        let log = restarts.lock().expect("restart log");
                        if !log.is_empty() {
                            obs.dump_anomaly(
                                AnomalyKind::SupervisorRestart,
                                summarize_restarts(&log),
                            );
                        }
                        report
                    }
                }
            });
            if let (Some(rec), Some(msg)) = (&recorder, out.panic_message()) {
                let _ = jle_engine::telemetry::dump_panic(rec, seed, fingerprint.as_deref(), msg);
            }
            (out, spawns.load(Ordering::Relaxed))
        });
    let panics = outcomes.iter().filter(|(o, _)| o.is_panicked()).count() as u64;
    let reports: Vec<&RunReport> = outcomes.iter().filter_map(|(o, _)| o.as_ok()).collect();
    let done = reports.len().max(1) as f64;
    let rate = |o: Outcome| reports.iter().filter(|r| r.outcome() == o).count() as f64 / done;
    let slots: Vec<f64> = reports.iter().map(|r| r.slots as f64).collect();
    let mean_restarts = counted.then(|| {
        let surplus: u64 = outcomes.iter().map(|(_, s)| s.saturating_sub(N)).sum();
        surplus as f64 / trials as f64
    });
    ArmStats {
        valid: rate(Outcome::Elected),
        leader_crashed: rate(Outcome::LeaderCrashed),
        deadline: rate(Outcome::DeadlineExceeded),
        med_slots: if slots.is_empty() { f64::NAN } else { median(&slots) },
        mean_restarts,
        panics,
    }
}

/// One line attributing a trial's supervisor restarts by cause, for the
/// flight-recorder detail field.
fn summarize_restarts(log: &[RestartRecord]) -> String {
    let count = |c: RestartCause| log.iter().filter(|r| r.cause == c).count();
    format!(
        "{} supervisor restart(s): {} wedged, {} crashed, {} cap; first at slot {} (window {})",
        log.len(),
        count(RestartCause::Wedged),
        count(RestartCause::Crashed),
        count(RestartCause::Cap),
        log[0].slot,
        log[0].window,
    )
}

/// A bare LESK station factory (no respawn counting).
fn bare_lesk() -> impl Fn(u64) -> Box<dyn Protocol> + Send + Sync + 'static {
    move |_| Box::new(PerStation::new(LeskProtocol::new(EPS)))
}

/// A supervised LESK factory whose inner respawns bump `counter` and
/// whose restart records (if `sink` is given) feed the flight recorder.
fn supervised_lesk(
    watchdog: u64,
    counter: Arc<AtomicU64>,
    sink: Option<RestartSink>,
) -> impl Fn(u64) -> Box<dyn Protocol> + Send + Sync + 'static {
    move |_| {
        let c = Arc::clone(&counter);
        let sup = Supervisor::new(
            watchdog,
            Box::new(move || {
                c.fetch_add(1, Ordering::Relaxed);
                Box::new(PerStation::new(LeskProtocol::new(EPS)))
            }),
        );
        let sup = match &sink {
            Some(s) => sup.with_restart_sink(Arc::clone(s)),
            None => sup,
        };
        Box::new(sup)
    }
}

/// Run E24.
pub fn run(ctx: &ExpContext) -> ExperimentResult {
    let quick = ctx.quick;
    let mut result = ExperimentResult::new(
        "e24",
        "fault injection + restart supervision: beyond the perfect-station model",
        "outside the formal model (Section 1's station assumptions relaxed)",
    );
    let trials = if quick { 20 } else { 100 };
    let cap = if quick { 60_000 } else { 200_000 };
    let adv = saturating(EPS, T_WINDOW);
    let lesk_proto = serde_json::json!({"proto": "lesk", "eps": EPS});

    // ── Table 1: crash-rate sweep, bare vs supervised LESK ─────────────
    let crash_rates: Vec<f64> =
        if quick { vec![0.0, 0.2, 0.4] } else { vec![0.0, 0.1, 0.2, 0.3, 0.4] };
    let mut t1 = Table::new([
        "crash prob",
        "valid (bare)",
        "valid (sup)",
        "leader-crashed (sup)",
        "deadline (sup)",
        "median slots (bare)",
        "median slots (sup)",
        "restarts/run (sup)",
        "panicked trials",
    ]);
    let mut s_bare = Series::new("bare LESK");
    let mut s_sup = Series::new("supervised LESK");
    let mut dominance_held = true;
    for (i, &crash) in crash_rates.iter().enumerate() {
        let base_seed = 240_000 + i as u64 * 101;
        let plan_of = move |seed: u64| {
            FaultPlan::new(seed ^ PLAN_SALT)
                .with_random_crashes(N, crash, CRASH_WINDOW)
                .with_sensing_flips(N, FLIP)
        };
        let plan_desc = serde_json::json!({
            "crashes": {"prob": crash, "window": CRASH_WINDOW},
            "flips": FLIP,
            "salt": PLAN_SALT,
        });
        let bare = run_arm(
            ctx,
            &format!("crash={crash}/bare"),
            arm_params(&adv, cap, plan_desc.clone(), lesk_proto.clone(), None),
            trials,
            base_seed,
            cap,
            &adv,
            &plan_of,
            false,
            |_, _| bare_lesk(),
        );
        let sup = run_arm(
            ctx,
            &format!("crash={crash}/sup"),
            arm_params(&adv, cap, plan_desc, lesk_proto.clone(), Some(WATCHDOG)),
            trials,
            base_seed,
            cap,
            &adv,
            &plan_of,
            true,
            |c, sink| supervised_lesk(WATCHDOG, c, sink),
        );
        dominance_held &= sup.valid >= bare.valid;
        s_bare.push(crash, bare.valid);
        s_sup.push(crash, sup.valid);
        t1.push_row([
            format!("{crash:.1}"),
            format!("{:.2}", bare.valid),
            format!("{:.2}", sup.valid),
            format!("{:.2}", sup.leader_crashed),
            format!("{:.2}", sup.deadline),
            fmt(bare.med_slots),
            fmt(sup.med_slots),
            sup.restarts_cell(),
            format!("{}", bare.panics + sup.panics),
        ]);
    }
    result.add_table(
        &format!(
            "LESK under station crashes (n={N}, eps={EPS}, saturating T={T_WINDOW}, \
             sensing flips {FLIP}, watchdog {WATCHDOG})"
        ),
        t1,
    );
    result.add_figure(
        Figure::new(
            "validity under station crashes: bare vs supervised LESK",
            "per-station crash probability",
            "valid-election rate",
        )
        .with_series(s_bare)
        .with_series(s_sup),
    );
    result.note(format!(
        "supervised validity >= bare validity at every swept crash rate: {}",
        if dominance_held { "HELD" } else { "VIOLATED" }
    ));

    // ── Table 2: wakeup-stagger sweep ──────────────────────────────────
    let staggers: Vec<u64> = if quick { vec![0, 2_048] } else { vec![0, 256, 2_048, 8_192] };
    let mut t2 = Table::new([
        "max wakeup stagger",
        "valid (bare)",
        "valid (sup)",
        "median slots (bare)",
        "median slots (sup)",
        "restarts/run (sup)",
        "panicked trials",
    ]);
    for (i, &stagger) in staggers.iter().enumerate() {
        let base_seed = 241_000 + i as u64 * 101;
        let plan_of = move |seed: u64| {
            FaultPlan::new(seed ^ PLAN_SALT)
                .with_staggered_wakeups(N, stagger)
                .with_sensing_flips(N, FLIP)
        };
        let plan_desc = serde_json::json!({
            "stagger": stagger,
            "flips": FLIP,
            "salt": PLAN_SALT,
        });
        let bare = run_arm(
            ctx,
            &format!("stagger={stagger}/bare"),
            arm_params(&adv, cap, plan_desc.clone(), lesk_proto.clone(), None),
            trials,
            base_seed,
            cap,
            &adv,
            &plan_of,
            false,
            |_, _| bare_lesk(),
        );
        let sup = run_arm(
            ctx,
            &format!("stagger={stagger}/sup"),
            arm_params(&adv, cap, plan_desc, lesk_proto.clone(), Some(WATCHDOG)),
            trials,
            base_seed,
            cap,
            &adv,
            &plan_of,
            true,
            |c, sink| supervised_lesk(WATCHDOG, c, sink),
        );
        t2.push_row([
            format!("{stagger}"),
            format!("{:.2}", bare.valid),
            format!("{:.2}", sup.valid),
            fmt(bare.med_slots),
            fmt(sup.med_slots),
            sup.restarts_cell(),
            format!("{}", bare.panics + sup.panics),
        ]);
    }
    result.add_table("LESK under staggered wakeups (crashes off, sensing flips on)", t2);
    result.note(
        "staggered wakeups are non-monotone: a mild stagger *speeds elections up* (fewer \
         stations awake at once means less initial contention, so the first clean Single \
         comes sooner), and only a stagger far above the election time slows them by the \
         waiting alone"
            .to_string(),
    );

    // ── Table 3: LESU under fixed churn ────────────────────────────────
    let churn_plan = move |seed: u64| {
        FaultPlan::new(seed ^ PLAN_SALT)
            .with_random_crashes(N, 0.15, CRASH_WINDOW)
            .with_staggered_wakeups(N, 512)
            .with_sensing_flips(N, FLIP)
    };
    let churn_desc = serde_json::json!({
        "crashes": {"prob": 0.15, "window": CRASH_WINDOW},
        "stagger": 512u64,
        "flips": FLIP,
        "salt": PLAN_SALT,
    });
    let lesu_proto = serde_json::json!({"proto": "lesu"});
    let mut t3 = Table::new([
        "arm",
        "valid",
        "leader-crashed",
        "deadline",
        "median slots",
        "restarts/run",
        "panicked trials",
    ]);
    let lesu_bare = run_arm(
        ctx,
        "churn/lesu-bare",
        arm_params(&adv, cap, churn_desc.clone(), lesu_proto.clone(), None),
        trials,
        242_000,
        cap,
        &adv,
        &churn_plan,
        false,
        |_, _| {
            move |_: u64| -> Box<dyn Protocol> { Box::new(PerStation::new(LesuProtocol::new())) }
        },
    );
    let lesu_sup = run_arm(
        ctx,
        "churn/lesu-sup",
        arm_params(&adv, cap, churn_desc, lesu_proto, Some(WATCHDOG)),
        trials,
        242_000,
        cap,
        &adv,
        &churn_plan,
        true,
        |ctr, sink| {
            move |_: u64| -> Box<dyn Protocol> {
                let c = Arc::clone(&ctr);
                let sup = Supervisor::new(
                    WATCHDOG,
                    Box::new(move || {
                        c.fetch_add(1, Ordering::Relaxed);
                        Box::new(PerStation::new(LesuProtocol::new()))
                    }),
                );
                let sup = match &sink {
                    Some(s) => sup.with_restart_sink(Arc::clone(s)),
                    None => sup,
                };
                Box::new(sup)
            }
        },
    );
    for (name, a) in [("LESU bare", &lesu_bare), ("LESU supervised", &lesu_sup)] {
        t3.push_row([
            name.to_string(),
            format!("{:.2}", a.valid),
            format!("{:.2}", a.leader_crashed),
            format!("{:.2}", a.deadline),
            fmt(a.med_slots),
            a.restarts_cell(),
            format!("{}", a.panics),
        ]);
    }
    result.add_table("LESU under churn (crash prob 0.15, stagger 512, sensing flips 0.02)", t3);

    // ── Table 4: watchdog-window stress (LESK, fixed churn) ────────────
    let stress_plan = move |seed: u64| {
        FaultPlan::new(seed ^ PLAN_SALT)
            .with_random_crashes(N, 0.2, CRASH_WINDOW)
            .with_sensing_flips(N, FLIP)
    };
    let stress_desc = serde_json::json!({
        "crashes": {"prob": 0.2, "window": CRASH_WINDOW},
        "flips": FLIP,
        "salt": PLAN_SALT,
    });
    let windows: Vec<u64> = if quick { vec![64, WATCHDOG] } else { vec![64, 1_024, WATCHDOG] };
    let mut t4 = Table::new([
        "watchdog window",
        "valid",
        "leader-crashed",
        "deadline",
        "median slots",
        "restarts/run",
        "panicked trials",
    ]);
    // One shared base seed: every row faces the *same* fault plans and
    // engine seeds, so differences are the watchdog's doing alone.
    let stress_seed = 243_000;
    let stress_bare = run_arm(
        ctx,
        "stress/bare",
        arm_params(&adv, cap, stress_desc.clone(), lesk_proto.clone(), None),
        trials,
        stress_seed,
        cap,
        &adv,
        &stress_plan,
        false,
        |_, _| bare_lesk(),
    );
    t4.push_row([
        "bare (no supervisor)".into(),
        format!("{:.2}", stress_bare.valid),
        format!("{:.2}", stress_bare.leader_crashed),
        format!("{:.2}", stress_bare.deadline),
        fmt(stress_bare.med_slots),
        "-".into(),
        format!("{}", stress_bare.panics),
    ]);
    for &w in &windows {
        let a = run_arm(
            ctx,
            &format!("stress/w={w}"),
            arm_params(&adv, cap, stress_desc.clone(), lesk_proto.clone(), Some(w)),
            trials,
            stress_seed,
            cap,
            &adv,
            &stress_plan,
            true,
            |c, sink| supervised_lesk(w, c, sink),
        );
        t4.push_row([
            format!("{w}"),
            format!("{:.2}", a.valid),
            format!("{:.2}", a.leader_crashed),
            format!("{:.2}", a.deadline),
            fmt(a.med_slots),
            a.restarts_cell(),
            format!("{}", a.panics),
        ]);
    }
    result.add_table(
        "watchdog stress: windows below the election time fire restarts, backoff recovers",
        t4,
    );

    result.note(
        "with the sane watchdog the supervised arm is slot-identical to the bare arm \
         (transparency coupling), so supervision is free insurance; residual failures are \
         plan-decided (winner crashed at end of horizon, or near-total wipeout hitting the \
         cap) and hit both arms equally"
            .to_string(),
    );
    result.note(
        "an over-aggressive watchdog (window 64, far below the election time) fires \
         restarts every window, yet exponential backoff grows it past the election time: \
         elections still complete (no deadline failures), at the cost of extra slots; the \
         restarted dynamics may elect a *different* winner, so which row's winner the plan \
         happens to crash varies, while the winner-crash risk itself stays plan-governed"
            .to_string(),
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use jle_telemetry::{FlightRecord, FlightRecorder};

    #[test]
    fn quick_run_is_consistent() {
        let r = super::run(&crate::common::ExpContext::ephemeral(true));
        assert_eq!(r.tables.len(), 4);
        assert_eq!(r.figures.len(), 1);
        assert!(r.notes.iter().any(|n| n.contains("HELD")), "dominance must hold: {:?}", r.notes);
    }

    /// The flight recorder is pure instrumentation (identical arm stats
    /// with and without it), its postmortems parse, and the documented
    /// replay — re-run the unit's config at the record's seed —
    /// reproduces the recorded trial exactly.
    #[test]
    fn flight_recorder_is_invisible_and_artifacts_replay() {
        let dir = std::env::temp_dir().join(format!("jle-e24-flight-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let recorder = Arc::new(FlightRecorder::new(&dir).unwrap());
        let plain = ExpContext::ephemeral(true);
        let wired = ExpContext::ephemeral(true).with_flight_recorder(Arc::clone(&recorder));

        let adv = saturating(EPS, T_WINDOW);
        let cap = 60_000;
        let watchdog = 64; // aggressive on purpose: restarts must fire
        let plan_of = move |seed: u64| {
            FaultPlan::new(seed ^ PLAN_SALT)
                .with_random_crashes(N, 0.3, CRASH_WINDOW)
                .with_sensing_flips(N, FLIP)
        };
        let params = arm_params(
            &adv,
            cap,
            serde_json::json!({"test": "flight"}),
            serde_json::json!({"proto": "lesk", "eps": EPS}),
            Some(watchdog),
        );
        let run = |ctx: &ExpContext| {
            run_arm(
                ctx,
                "flight/sup",
                params.clone(),
                10,
                9_000,
                cap,
                &adv,
                &plan_of,
                true,
                |c, sink| supervised_lesk(watchdog, c, sink),
            )
        };
        let a = run(&plain);
        let b = run(&wired);
        assert_eq!(a.valid, b.valid, "recorder must not change validity");
        assert_eq!(a.med_slots, b.med_slots, "recorder must not change slot counts");
        assert_eq!(a.mean_restarts, b.mean_restarts, "recorder must not change restarts");
        assert!(recorder.written() > 0, "aggressive watchdog must dump restart postmortems");

        let mut paths: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.file_name().unwrap().to_str().unwrap().contains("supervisor_restart"))
            .collect();
        paths.sort();
        let record: FlightRecord =
            serde_json::from_str(&std::fs::read_to_string(&paths[0]).unwrap()).unwrap();
        assert!(record.fingerprint.is_some(), "stamped with the unit's cache key");
        assert!(record.detail.contains("supervisor restart"), "detail: {}", record.detail);
        assert!(record.context.iter().any(|(k, v)| k == "experiment" && v == "e24"));

        // Replay: same config + recorded seed reproduces the trial.
        let spawns = Arc::new(AtomicU64::new(0));
        let factory = supervised_lesk(watchdog, Arc::clone(&spawns), None);
        let config = SimConfig::new(N, CdModel::Strong).with_seed(record.seed).with_max_slots(cap);
        let report = run_fast_exact_faulty(&config, &adv, &plan_of(record.seed), factory);
        assert_eq!(
            report.slots, record.slots_seen,
            "replay at the recorded seed reproduces the recorded trial"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
