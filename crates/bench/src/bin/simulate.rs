//! Single-scenario simulator CLI — run one election and print a JSON
//! report (for scripting / downstream tooling).
//!
//! ```text
//! simulate --n 1024 --protocol lesk --eps 0.5 --adversary saturating \
//!          --adv-eps 0.5 --t-window 32 --cd strong --seed 7 [--trials 100]
//! ```
//!
//! With `--trials k` the run is repeated over consecutive seeds and the
//! JSON carries summary statistics instead of a single report.
//!
//! Every run is one [`LensSpec`] built from the flags — churn drawn per
//! seed unless `--churn-seed` fixes the plan, lease mode included — so
//! `jle-lens replay --params TREE --seed S` re-derives any of its trials.

use jle_adversary::{AdversarySpec, JamStrategyKind, Rate};
use jle_engine::RunReport;
use jle_lens::{ChurnRecipe, EngineKind, Lease, LensSpec, Stop};
use jle_orchestrator::{Orchestrator, WorkSpec};
use jle_protocols::{ArssMacProtocol, ProtoParams};
use jle_radio::{CdModel, Topology};
use serde::Serialize;
use serde_json::json;

#[derive(Debug, Clone)]
struct Args {
    n: u64,
    protocol: String,
    eps: f64,
    adversary: String,
    adv_eps: f64,
    t_window: u64,
    cd: CdModel,
    seed: u64,
    trials: u64,
    max_slots: u64,
    noise: f64,
    /// Seed of the churn plan (`--churn-*`); without it each trial draws
    /// its plan at `seed ^ 0xC4C4` when any churn probability is set.
    churn_seed: Option<u64>,
    churn_join_prob: f64,
    churn_join_window: u64,
    churn_leave_prob: f64,
    churn_leave_window: u64,
    /// 0 = departures are permanent.
    churn_rejoin_after: u64,
    /// Lease mode (`--lease-beacon`): wrap each station's election in a
    /// leader lease and run to the horizon.
    lease_beacon: Option<u64>,
    lease_miss_tolerance: u32,
    lease_timeout: u64,
    /// Route the run through a resident `jle-sweepd` service
    /// (`tcp:HOST:PORT` or `unix:PATH`). Only plain cohort elections
    /// (no churn, lease, or noise) can be served remotely.
    server: Option<String>,
    /// Write the end-to-end Chrome trace of a `--server` run to this
    /// path (`--trace-out`): client submit spans with the server's
    /// admission/queue/execute/deliver stages, orchestrator chunks, and
    /// engine runs spliced in under one trace id. Written even if the
    /// run panics (truncated but valid). Validate with
    /// `jle-lens trace-check`.
    trace_out: Option<String>,
    /// Interference topology (`--topology`): `complete` (the paper's
    /// single shared channel, the default) or a graph spec —
    /// `dense-linear:K,M`, `core-tail:C,T`, `unit-disk:N,R,SEED`. Graph
    /// runs go through the per-neighborhood multi-hop engine and set
    /// `--n` from the topology.
    topology: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        n: 64,
        protocol: "lesk".into(),
        eps: 0.5,
        adversary: "saturating".into(),
        adv_eps: 0.5,
        t_window: 32,
        cd: CdModel::Strong,
        seed: 0,
        trials: 1,
        max_slots: 10_000_000,
        noise: 0.0,
        churn_seed: None,
        churn_join_prob: 0.0,
        churn_join_window: 1_024,
        churn_leave_prob: 0.0,
        churn_leave_window: 2_048,
        churn_rejoin_after: 0,
        lease_beacon: None,
        lease_miss_tolerance: 10,
        lease_timeout: 512,
        server: None,
        trace_out: None,
        topology: "complete".into(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let key = argv[i].clone();
        let val = argv.get(i + 1).ok_or_else(|| format!("missing value for {key}"))?;
        match key.as_str() {
            "--n" => args.n = val.parse().map_err(|e| format!("--n: {e}"))?,
            "--protocol" => args.protocol = val.clone(),
            "--eps" => args.eps = val.parse().map_err(|e| format!("--eps: {e}"))?,
            "--adversary" => args.adversary = val.clone(),
            "--adv-eps" => args.adv_eps = val.parse().map_err(|e| format!("--adv-eps: {e}"))?,
            "--t-window" => args.t_window = val.parse().map_err(|e| format!("--t-window: {e}"))?,
            "--cd" => {
                args.cd = match val.as_str() {
                    "strong" => CdModel::Strong,
                    "weak" => CdModel::Weak,
                    "none" | "nocd" | "no-cd" => CdModel::NoCd,
                    other => return Err(format!("unknown CD model: {other}")),
                }
            }
            "--seed" => args.seed = val.parse().map_err(|e| format!("--seed: {e}"))?,
            "--trials" => args.trials = val.parse().map_err(|e| format!("--trials: {e}"))?,
            "--max-slots" => {
                args.max_slots = val.parse().map_err(|e| format!("--max-slots: {e}"))?
            }
            "--noise" => args.noise = val.parse().map_err(|e| format!("--noise: {e}"))?,
            "--churn-seed" => {
                args.churn_seed = Some(val.parse().map_err(|e| format!("--churn-seed: {e}"))?)
            }
            "--churn-join-prob" => {
                args.churn_join_prob = val.parse().map_err(|e| format!("--churn-join-prob: {e}"))?
            }
            "--churn-join-window" => {
                args.churn_join_window =
                    val.parse().map_err(|e| format!("--churn-join-window: {e}"))?
            }
            "--churn-leave-prob" => {
                args.churn_leave_prob =
                    val.parse().map_err(|e| format!("--churn-leave-prob: {e}"))?
            }
            "--churn-leave-window" => {
                args.churn_leave_window =
                    val.parse().map_err(|e| format!("--churn-leave-window: {e}"))?
            }
            "--churn-rejoin-after" => {
                args.churn_rejoin_after =
                    val.parse().map_err(|e| format!("--churn-rejoin-after: {e}"))?
            }
            "--lease-beacon" => {
                args.lease_beacon = Some(val.parse().map_err(|e| format!("--lease-beacon: {e}"))?)
            }
            "--lease-miss-tolerance" => {
                args.lease_miss_tolerance =
                    val.parse().map_err(|e| format!("--lease-miss-tolerance: {e}"))?
            }
            "--lease-timeout" => {
                args.lease_timeout = val.parse().map_err(|e| format!("--lease-timeout: {e}"))?
            }
            "--server" => args.server = Some(val.clone()),
            "--trace-out" => args.trace_out = Some(val.clone()),
            "--topology" => args.topology = val.clone(),
            other => return Err(format!("unknown flag: {other}")),
        }
        i += 2;
    }
    Ok(args)
}

fn adversary_spec(args: &Args) -> Result<AdversarySpec, String> {
    let rate = Rate::from_f64(args.adv_eps);
    let kind = match args.adversary.as_str() {
        "none" => return Ok(AdversarySpec::passive()),
        "saturating" => JamStrategyKind::Saturating,
        "periodic" | "periodic-front" => JamStrategyKind::PeriodicFront,
        "random" => JamStrategyKind::Random { prob: 1.0 - args.adv_eps },
        "reactive" | "reactive-null" => JamStrategyKind::ReactiveNull,
        "burst" => JamStrategyKind::Burst { on: args.t_window, off: args.t_window },
        "adaptive" => JamStrategyKind::AdaptiveEstimator {
            n: args.n,
            protocol_eps: args.eps,
            band: 3.0,
            initial_u: 0.0,
        },
        "sweep-targeted" => JamStrategyKind::SweepTargeted { n: args.n, band: 3.0 },
        other => return Err(format!("unknown adversary: {other}")),
    };
    Ok(AdversarySpec::new(rate, args.t_window, kind))
}

impl Args {
    fn wants_churn(&self) -> bool {
        self.churn_seed.is_some() || self.churn_join_prob > 0.0 || self.churn_leave_prob > 0.0
    }

    /// The churn flags as a recipe.
    fn churn_recipe(&self) -> ChurnRecipe {
        ChurnRecipe {
            join_prob: self.churn_join_prob,
            join_window: self.churn_join_window,
            leave_prob: self.churn_leave_prob,
            leave_window: self.churn_leave_window,
            rejoin_after: self.churn_rejoin_after,
        }
    }
}

/// The one protocol-name table: `--protocol` → the protocol, whether
/// churn runs take it, and whether graph topologies do.
fn protocol(args: &Args, adv: &AdversarySpec) -> Result<(ProtoParams, bool, bool), String> {
    let eps = args.eps;
    Ok(match args.protocol.as_str() {
        "lesk" => (ProtoParams::lesk(eps), true, true),
        "lesu" => (ProtoParams::Lesu, true, true),
        "backoff" => (ProtoParams::Backoff, false, true),
        "willard" => (ProtoParams::Willard, false, false),
        "arss" => {
            let gamma = ArssMacProtocol::recommended_gamma(args.n, adv.t_window);
            (ProtoParams::Arss { gamma }, false, false)
        }
        "lewk" => (ProtoParams::Lewk { eps }, true, true),
        "lewu" => (ProtoParams::Lewu, true, true),
        "cluster" => (ProtoParams::Cluster { eps, quiet: None }, false, true),
        other => return Err(format!("unknown protocol: {other}")),
    })
}

/// The flags' run as a validated [`LensSpec`]. Graph topologies run on
/// the multi-hop engine, churn, leases and the per-station protocols on
/// fast-exact, the rest on the cohort engine; lease mode runs to the
/// horizon.
fn spec_for(args: &Args, adv: &AdversarySpec) -> Result<LensSpec, String> {
    let (proto, churn_ok, graph_ok) = protocol(args, adv)?;
    let graph = args.topology != "complete";
    if graph && !graph_ok {
        return Err(format!("graph topologies do not support --protocol {}", args.protocol));
    }
    if graph && (args.noise != 0.0 || args.lease_beacon.is_some()) {
        return Err("--topology graphs are closed-world: no churn, lease, or noise flags".into());
    }
    if args.wants_churn() && !churn_ok {
        return Err(format!("churn runs do not support --protocol {}", args.protocol));
    }
    let per_station = args.wants_churn() || args.lease_beacon.is_some() || proto.per_station();
    let engine = match (graph, per_station) {
        (true, _) => EngineKind::Multihop,
        (false, true) => EngineKind::FastExact,
        (false, false) => EngineKind::Cohort,
    };
    let mut spec = LensSpec::new(engine, proto, args.n, args.cd, adv.clone(), args.max_slots);
    spec.noise = args.noise;
    spec.churn_recipe = args.wants_churn().then(|| args.churn_recipe());
    spec.topology = graph.then(|| args.topology.clone());
    if proto.per_station() {
        spec.stop = Stop::AllTerminated;
    }
    if let Some(beacon) = args.lease_beacon {
        spec.stop = Stop::Horizon;
        spec.lease = Some(Lease {
            beacon,
            miss_tolerance: args.lease_miss_tolerance,
            timeout: args.lease_timeout,
        });
    }
    spec.validate().map_err(|e| e.to_string())?;
    // `--churn-seed` fixes one plan for every trial.
    if let Some(seed) = args.churn_seed {
        spec.churn = spec.churn_recipe.take().map(|recipe| recipe.plan(args.n, seed));
    }
    Ok(spec)
}

/// Run the spec's `cohort_election` on a resident `jle-sweepd` service
/// and return the per-seed reports (`seed`, `seed+1`, … — the same seeds
/// a local Monte-Carlo run uses).
fn run_on_server(args: &Args, spec: &LensSpec, ep: &str) -> Result<Vec<RunReport>, String> {
    let election = spec.election().filter(|e| e.proto.portable().is_ok()).ok_or(
        "--server only supports plain cohort elections \
         (--protocol lesk|lesu|backoff|willard, no churn/lease/noise/topology)",
    )?;
    let endpoint = jle_sweepd::Endpoint::parse(ep).map_err(|e| format!("--server: {e}"))?;
    let mut client = jle_sweepd::SweepClient::connect(&endpoint)
        .map_err(|e| format!("cannot connect to sweepd at {endpoint}: {e}"))?;
    // Flush-on-drop so even a panicking run leaves a valid (truncated)
    // trace document behind.
    let _trace_flush = args.trace_out.as_ref().map(|path| {
        client.enable_tracing();
        client.tracer().flush_on_drop(path)
    });
    let point = format!(
        "{}/n={}/cd={:?}/adv={}/seed={}",
        args.protocol,
        args.n,
        args.cd,
        spec.adv.label(),
        args.seed
    );
    let work =
        jle_orchestrator::WorkSpec::new("simulate", &point, election.to_json_value(), args.seed);
    client.run_reports(&work, args.trials.max(1)).map_err(|e| format!("sweepd {point}: {e}"))
}

/// Print `error: {e}` and exit 2.
fn fail(e: impl std::fmt::Display) -> ! {
    eprintln!("error: {e}");
    std::process::exit(2);
}

fn main() {
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: simulate [--n N] [--protocol lesk|lesu|lewk|lewu|backoff|willard|arss|cluster] \
                 [--eps F] [--adversary none|saturating|periodic|random|reactive|burst|adaptive|sweep-targeted] \
                 [--adv-eps F] [--t-window T] [--cd strong|weak|none] [--seed S] [--trials K] \
                 [--max-slots M] [--noise Q] \
                 [--churn-seed S] [--churn-join-prob F] [--churn-join-window W] \
                 [--churn-leave-prob F] [--churn-leave-window W] [--churn-rejoin-after D] \
                 [--lease-beacon B] [--lease-miss-tolerance K] [--lease-timeout L] \
                 [--server tcp:HOST:PORT|unix:PATH] [--trace-out PATH] \
                 [--topology complete|dense-linear:K,M|core-tail:C,T|unit-disk:N,R,SEED]"
            );
            std::process::exit(2);
        }
    };
    let adv = adversary_spec(&args).unwrap_or_else(|e| fail(e));
    // A graph fixes the population; `--n` is single-channel-only.
    match Topology::parse(&args.topology) {
        Ok((Topology::Graph(g), _)) => args.n = u64::from(g.n()),
        Ok((Topology::Complete, _)) => {}
        Err(e) => fail(format!("--topology: {e}")),
    }
    let args = args;
    if args.trace_out.is_some() && args.server.is_none() {
        fail("--trace-out traces the service path; it needs --server");
    }
    let spec = spec_for(&args, &adv).unwrap_or_else(|e| fail(e));
    let server_reports: Option<Vec<RunReport>> =
        args.server.as_ref().map(|ep| run_on_server(&args, &spec, ep).unwrap_or_else(|e| fail(e)));

    if args.trials <= 1 {
        let one = match &server_reports {
            Some(reports) => Ok(reports[0].clone()),
            None => spec.run(args.seed).map_err(|e| e.to_string()),
        };
        match one {
            Ok(r) => println!(
                "{}",
                serde_json::to_string_pretty(&json!({
                    "config": {
                        "n": args.n, "protocol": args.protocol, "eps": args.eps,
                        "adversary": adv.label(), "cd": format!("{:?}", args.cd),
                        "seed": args.seed, "noise": args.noise,
                        "churn": args.wants_churn(),
                        "lease_beacon": args.lease_beacon,
                        "topology": args.topology,
                    },
                    "slots": r.slots,
                    "outcome": r.outcome().label(),
                    "leader_elected": r.leader_elected(),
                    "resolved_at": r.resolved_at,
                    "winner": r.winner,
                    "leaders": r.leaders,
                    "timed_out": r.timed_out,
                    "split_brain": args.lease_beacon.map(|_| json!({
                        "believers": r.split_brain.believers,
                        "windows": r.split_brain.windows,
                        "split_slots": r.split_brain.split_slots,
                        "longest_split": r.split_brain.longest_split,
                        "max_believers": r.split_brain.max_believers,
                        "reelections": r.split_brain.reelections,
                    })),
                    "multihop": r.multihop.as_ref().map(|m| json!({
                        "topology": m.topology,
                        "components": m.components,
                        "clusters": m.clusters.iter().map(|c| json!({
                            "cluster": c.cluster, "size": c.size,
                            "resolved_at": c.resolved_at, "leader": c.leader,
                        })).collect::<Vec<_>>(),
                        "all_clusters_resolved": m.all_clusters_resolved(),
                        "converged_at": m.converged_at,
                        "network_leader": m.network_leader,
                        "cross_cluster_interference": m.cross_cluster_interference,
                    })),
                    "jam_fraction": r.jam_fraction(),
                    "noise_slots": r.noise_slots,
                    "counts": {
                        "nulls": r.counts.nulls, "singles": r.counts.singles,
                        "collisions": r.counts.collisions, "jammed": r.counts.jammed,
                    },
                    "energy": {
                        "transmissions": r.energy.transmissions,
                        "listens": r.energy.listens,
                        "tx_per_station": r.tx_per_station(args.n),
                    },
                }))
                .expect("json")
            ),
            Err(e) => fail(e),
        }
        return;
    }

    let reports: Vec<RunReport> = server_reports.unwrap_or_else(|| {
        let work = WorkSpec::new("simulate", "trials", spec.to_params(), args.seed);
        Orchestrator::ephemeral()
            .run_trials(&work, args.trials, |seed| spec.run(seed).expect("a validated spec runs"))
    });
    let mut slots = Vec::new();
    let mut successes = 0u64;
    for r in &reports {
        slots.push(r.slots as f64);
        // Open-world (lease) runs never terminate, so "success" is the
        // ledger's verdict; closed-world runs keep the classic election
        // criterion.
        successes += if args.lease_beacon.is_some() {
            (r.outcome() == jle_engine::Outcome::Elected) as u64
        } else {
            r.leader_elected() as u64
        };
    }
    let summary = jle_analysis::Summary::of(&slots).expect("non-empty");
    println!(
        "{}",
        serde_json::to_string_pretty(&json!({
            "config": {
                "n": args.n, "protocol": args.protocol, "eps": args.eps,
                "adversary": adv.label(), "cd": format!("{:?}", args.cd),
                "base_seed": args.seed, "trials": args.trials, "noise": args.noise,
            },
            "success_rate": successes as f64 / args.trials as f64,
            "slots": {
                "mean": summary.mean, "median": summary.median,
                "p90": summary.p90, "p99": summary.p99,
                "min": summary.min, "max": summary.max,
            },
        }))
        .expect("json")
    );
}
