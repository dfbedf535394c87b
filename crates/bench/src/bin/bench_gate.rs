//! Bench-regression gate: re-runs the `engine_throughput` workload shapes
//! with a self-contained best-of-N harness and compares against the
//! latest entry in `results/BENCH.json`, failing on a regression beyond
//! the threshold (default 10%).
//!
//! ```text
//! bench_gate                     # absolute mode: measured vs recorded ns
//! bench_gate --normalize         # relative mode (CI): compare each arm's
//!                                # measured/recorded ratio to the median
//!                                # ratio, absorbing uniform machine-speed
//!                                # differences between the recording box
//!                                # and this one
//! bench_gate --threshold 0.25    # loosen the gate
//! bench_gate --samples 9         # more best-of samples (less noise)
//! ```
//!
//! The harness measures a representative arm per `engine_throughput`
//! group — the cheap slot loop (cohort), the per-station fast-exact
//! backend's election-scale short runs, and its sleep-heavy active-set
//! path — with workloads identical to the Criterion bench, so figures are
//! comparable to the recorded medians. Arms absent from the recorded
//! baseline (new groups mid-trajectory) are reported but never gate; the
//! arms that moved onto fast-exact when the shared-stream engine was
//! retired carry `fast_*` names for that reason, so they are never held
//! to figures recorded on the old backend.
//!
//! Criterion itself is a dev-dependency and benches don't gate; this
//! binary is what CI runs (`--normalize`, release profile).

use jle_adversary::{AdversarySpec, JamStrategyKind, Rate};
use jle_engine::{
    run_batch_uniform, run_cohort, run_fast_exact, Action, ChurnPlan, FastExactStations,
    FastFaultyStations, FaultPlan, LeaderLedger, MultihopStations, PerStation, Protocol, SimConfig,
    SimCore, SlotActions, SlotObserver, SplitBrainObserver, StdMesh, UniformProtocol,
};
use jle_radio::{CdModel, ChannelState, Observation, SlotTruth, Topology};
use jle_telemetry::SpanRecorder;
use std::hint::black_box;
use std::time::Instant;

/// Never-resolving workload: every station always transmits (identical to
/// the Criterion bench's `AlwaysCollide`).
#[derive(Debug, Clone)]
struct AlwaysCollide;
impl UniformProtocol for AlwaysCollide {
    fn tx_prob(&mut self, _: u64) -> f64 {
        1.0
    }
    fn on_state(&mut self, _: u64, _: ChannelState) {}
}

/// The lens's disabled path as an observer: attached but declining
/// probes and estimates, so each slot costs the engine one branch and
/// one virtual call.
struct IdleLens;

impl SlotObserver for IdleLens {
    fn on_slot(
        &mut self,
        _slot: u64,
        _truth: &SlotTruth,
        _actions: &SlotActions,
        _estimate: Option<f64>,
    ) {
    }
}

/// Sleep-heavy never-resolving workload (identical to the Criterion
/// bench's `DutySleeper`): awake one slot in `period`, honest wake hint.
#[derive(Debug)]
struct DutySleeper {
    period: u64,
    phase: u64,
}

impl Protocol for DutySleeper {
    fn act(&mut self, slot: u64, _: &mut dyn rand::RngCore) -> Action {
        if slot % self.period == self.phase {
            Action::Transmit
        } else {
            Action::Sleep
        }
    }
    fn feedback(&mut self, _: u64, _: bool, _: Observation) {}
    fn status(&self) -> jle_engine::Status {
        jle_engine::Status::Running
    }
    fn wake_hint(&self, slot: u64) -> u64 {
        let next = slot + 1;
        next + (self.phase + self.period - next % self.period) % self.period
    }
}

fn sat() -> AdversarySpec {
    AdversarySpec::new(Rate::from_f64(0.5), 64, JamStrategyKind::Saturating)
}

/// The 64-cluster unit-disk workload for the `multihop_throughput` arms:
/// 4096 stations at unit-square positions, partitioned into an 8×8 grid
/// of cells; two stations interfere when they share a cell and are within
/// disk radius (half the cell side). That yields ≥64 interference
/// components of ~64 stations each — the shape per-component sharding is
/// built for — with the grid cell as the cluster assignment.
fn multihop_workload() -> (Topology, Vec<u32>) {
    const N: u64 = 4096;
    const GRID: u32 = 8;
    let positions = jle_radio::unit_disk_positions(N, 7);
    let cell = |&(x, y): &(f64, f64)| {
        let cx = ((x * f64::from(GRID)) as u32).min(GRID - 1);
        let cy = ((y * f64::from(GRID)) as u32).min(GRID - 1);
        cy * GRID + cx
    };
    let clusters: Vec<u32> = positions.iter().map(cell).collect();
    let r = 0.5 / f64::from(GRID);
    let mut edges = Vec::new();
    for i in 0..N as usize {
        for j in (i + 1)..N as usize {
            if clusters[i] == clusters[j] {
                let (dx, dy) = (positions[i].0 - positions[j].0, positions[i].1 - positions[j].1);
                if dx * dx + dy * dy <= r * r {
                    edges.push((i as u64, j as u64));
                }
            }
        }
    }
    let topo = Topology::explicit(N, &edges).expect("grid-cell disk graph");
    (topo, clusters)
}

/// One `multihop_throughput` arm: the 64-cluster unit-disk workload under
/// a saturating jammer, never resolving, with the sharding threshold
/// forced (`usize::MAX` keeps the slot loop serial, `1` forces
/// per-component sharding on).
fn multihop_arm(par_threshold: usize) -> Box<dyn FnMut()> {
    let (topo, clusters) = multihop_workload();
    Box::new(move || {
        let adv = sat();
        let config = SimConfig::new(4096, CdModel::Strong).with_seed(7).with_max_slots(128);
        let mut stations = MultihopStations::new(&config, &topo, |_| {
            Box::new(StdMesh::new(Box::new(PerStation::new(AlwaysCollide))))
        })
        .with_clusters(&clusters)
        .with_parallel_threshold(par_threshold);
        black_box(SimCore::new(&config, &adv).run(&mut stations));
    })
}

/// One measured arm: the Criterion group/arm it mirrors, the per-sample
/// iteration count, and the workload.
struct Arm {
    group: &'static str,
    name: &'static str,
    iters: u32,
    run: Box<dyn FnMut()>,
}

fn arms() -> Vec<Arm> {
    vec![
        Arm {
            group: "cohort_slots",
            name: "fresh/65536",
            iters: 25,
            run: Box::new(|| {
                let adv = sat();
                let config =
                    SimConfig::new(1 << 16, CdModel::Strong).with_seed(7).with_max_slots(50_000);
                black_box(run_cohort(&config, &adv, || AlwaysCollide));
            }),
        },
        Arm {
            group: "exact_short_runs",
            name: "fast_exact/1024",
            iters: 200,
            run: Box::new(|| {
                let adv = sat();
                let config =
                    SimConfig::new(1 << 10, CdModel::Strong).with_seed(7).with_max_slots(16);
                black_box(run_fast_exact(&config, &adv, |_| {
                    Box::new(PerStation::new(AlwaysCollide))
                }));
            }),
        },
        // The dense pristine run (1024 always-awake stations, 2,000
        // slots) measured once: the denominator of the churn and lens
        // same-run gates below.
        Arm {
            group: "fast_exact_slots",
            name: "pristine/1024",
            iters: 5,
            run: Box::new(|| {
                let adv = sat();
                let config =
                    SimConfig::new(1 << 10, CdModel::Strong).with_seed(7).with_max_slots(2_000);
                black_box(run_fast_exact(&config, &adv, |_| {
                    Box::new(PerStation::new(AlwaysCollide))
                }));
            }),
        },
        // The open-world stack's disabled path: the pristine workload
        // through the churn wrapper (empty plan, proven bit-identical)
        // with the split-brain observer attached to an idle ledger. Gated
        // against `fast_exact_slots/pristine/1024` in `main` (same
        // process, same run — no machine-speed normalization needed).
        Arm {
            group: "churn_overhead",
            name: "fast_empty_plan/1024",
            iters: 5,
            run: Box::new(|| {
                let adv = sat();
                let config =
                    SimConfig::new(1 << 10, CdModel::Strong).with_seed(7).with_max_slots(2_000);
                let plan = ChurnPlan::empty().overlay(&FaultPlan::empty());
                let mut split = SplitBrainObserver::new(LeaderLedger::new(512));
                let mut stations = FastFaultyStations::new(&config, &plan, |_: u64| {
                    Box::new(PerStation::new(AlwaysCollide)) as Box<dyn Protocol>
                });
                black_box(SimCore::new(&config, &adv).observe(&mut split).run(&mut stations));
            }),
        },
        // The lens's disabled path: the pristine workload with the
        // replay-era hooks present but idle — an attached observer that
        // declines probes (so the engine takes only the `wants_probes`
        // branch plus one virtual call per slot) inside a span on a
        // *disabled* recorder. Gated against the pristine arm like the
        // churn arm.
        Arm {
            group: "lens_overhead",
            name: "fast_hooks_idle/1024",
            iters: 5,
            run: Box::new(|| {
                let adv = sat();
                let config =
                    SimConfig::new(1 << 10, CdModel::Strong).with_seed(7).with_max_slots(2_000);
                let tracer = SpanRecorder::disabled();
                let _span = tracer.span("engine", "run:seed=7");
                let mut idle = IdleLens;
                let mut stations = FastExactStations::new(&config, |_| {
                    Box::new(PerStation::new(AlwaysCollide)) as Box<dyn Protocol>
                });
                black_box(SimCore::new(&config, &adv).observe(&mut idle).run(&mut stations));
            }),
        },
        // Paired A/B arms for the multi-hop per-neighborhood backend:
        // one 64-cluster unit-disk workload (4096 stations, mean degree
        // ~32, never-resolving), run once with sharding disabled
        // (threshold above the population) and once with per-component
        // rayon sharding forced on. Both arms record against BENCH.json;
        // the pair also makes parallel speedup visible in the printout.
        Arm {
            group: "multihop_throughput",
            name: "serial/4096x64",
            iters: 3,
            run: multihop_arm(usize::MAX),
        },
        Arm {
            group: "multihop_throughput",
            name: "sharded/4096x64",
            iters: 3,
            run: multihop_arm(1),
        },
        // Paired A/B arms for the batched lockstep backend: the same 256
        // election-scale trials (n = 1024, 16 slots, never resolving, the
        // degenerate p == 1.0 word path) run one at a time through the
        // fast-exact backend and as one SoA batch. The pair gates
        // *against each other* in `main`: the batch arm must be at least
        // BATCH_SPEEDUP_FLOOR times faster per trial set.
        Arm {
            group: "batch_speedup",
            name: "per_trial/1024",
            iters: 2,
            run: Box::new(|| {
                let adv = sat();
                for seed in 7..7 + 256u64 {
                    let config =
                        SimConfig::new(1 << 10, CdModel::Strong).with_seed(seed).with_max_slots(16);
                    black_box(run_fast_exact(&config, &adv, |_| {
                        Box::new(PerStation::new(AlwaysCollide))
                    }));
                }
            }),
        },
        Arm {
            group: "batch_speedup",
            name: "batch/1024",
            iters: 20,
            run: Box::new(|| {
                let adv = sat();
                let seeds: Vec<u64> = (7..7 + 256u64).collect();
                let config = SimConfig::new(1 << 10, CdModel::Strong).with_max_slots(16);
                black_box(run_batch_uniform(&config, &adv, &seeds, || AlwaysCollide));
            }),
        },
        Arm {
            group: "fast_exact",
            name: "fast/65536",
            iters: 25,
            run: Box::new(|| {
                let adv = sat();
                let config =
                    SimConfig::new(1 << 16, CdModel::Strong).with_seed(7).with_max_slots(256);
                black_box(run_fast_exact(&config, &adv, |i| {
                    Box::new(DutySleeper { period: 64, phase: i % 64 })
                }));
            }),
        },
    ]
}

/// Best-of-`samples` ns/iter for one arm (one untimed warmup sample).
fn measure(arm: &mut Arm, samples: u32) -> f64 {
    let time_one = |run: &mut dyn FnMut(), iters: u32| {
        let start = Instant::now();
        for _ in 0..iters {
            run();
        }
        start.elapsed().as_nanos() as f64 / iters as f64
    };
    time_one(&mut arm.run, arm.iters.div_ceil(4)); // warmup
    (0..samples).map(|_| time_one(&mut arm.run, arm.iters)).fold(f64::INFINITY, f64::min)
}

/// The recorded `ns_per_iter` for `group`/`arm` in the newest history
/// entry, if present.
fn baseline_ns(latest: &serde_json::Value, group: &str, arm: &str) -> Option<f64> {
    latest.get("groups")?.get(group)?.get("results")?.get(arm)?.get("ns_per_iter")?.as_f64()
}

/// Allowed overhead of the churn wrapper + idle split-brain observer
/// over the pristine fast-exact run (same-process A/B pair).
const CHURN_OVERHEAD_LIMIT: f64 = 0.02;

/// Allowed overhead of the idle lens hooks (attached non-probing
/// observer + disabled span recorder) over the pristine fast-exact run
/// (same-process A/B pair).
const LENS_OVERHEAD_LIMIT: f64 = 0.02;

/// Minimum throughput ratio of the batched backend over the per-trial
/// fast-exact loop on the same 256-trial workload (same-process A/B
/// pair).
const BATCH_SPEEDUP_FLOOR: f64 = 10.0;

/// Latency budget for a warm-cache submission through an in-process
/// `jle-sweepd` service (socket round-trips + scheduling + cache
/// replay), in milliseconds.
const SWEEPD_BUDGET_MS: f64 = 50.0;

struct Cli {
    threshold: f64,
    samples: u32,
    normalize: bool,
    baseline: String,
}

/// Same-run A/B pair for the sweepd service path: one work unit computed
/// once into a shared store, then replayed warm both directly through an
/// `Orchestrator` and through an in-process `jle-sweepd` over TCP
/// loopback. Returns best-of-`samples` ns/iter for (direct, server).
///
/// The pair has no recorded baseline — the direct arm is this machine's
/// own yardstick — so the gate is the absolute [`SWEEPD_BUDGET_MS`]
/// bound on the server arm, not a BENCH.json comparison.
fn measure_sweepd_overhead(samples: u32) -> std::io::Result<(f64, f64)> {
    use jle_engine::SimConfig;
    use jle_orchestrator::{Orchestrator, ResultStore, WorkSpec};
    use jle_protocols::{ElectionKind, ElectionParams, LeskProtocol, ProtoParams};
    use jle_sweepd::{Endpoint, ServerConfig, SweepClient, SweepServer};
    use serde::Serialize;

    let dir = std::env::temp_dir().join(format!("jle-bench-sweepd-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (n, max_slots, trials) = (64u64, 100_000u64, 32u64);
    let election = ElectionParams {
        kind: ElectionKind::Cohort,
        n,
        cd: CdModel::Strong,
        adv: AdversarySpec::passive(),
        max_slots,
        proto: ProtoParams::lesk(0.5),
    };
    let spec = WorkSpec::new("bench_gate", "sweepd_overhead", election.to_json_value(), 424_242);

    let store = ResultStore::open(&dir)?;
    let mut run_direct = || {
        let orch = Orchestrator::with_store(store.clone());
        let reports: Vec<jle_engine::RunReport> = orch.run_trials(&spec, trials, |seed| {
            let config =
                SimConfig::new(n, CdModel::Strong).with_seed(seed).with_max_slots(max_slots);
            run_cohort(&config, &AdversarySpec::passive(), || LeskProtocol::new(0.5))
        });
        black_box(reports);
    };
    let time_one = |run: &mut dyn FnMut(), iters: u32| {
        let start = Instant::now();
        for _ in 0..iters {
            run();
        }
        start.elapsed().as_nanos() as f64 / iters as f64
    };
    time_one(&mut run_direct, 2); // warmup: first call computes the unit
    let direct_ns =
        (0..samples).map(|_| time_one(&mut run_direct, 10)).fold(f64::INFINITY, f64::min);

    let config = ServerConfig { cache_dir: Some(dir.clone()), workers: 1, ..Default::default() };
    let server = SweepServer::bind(&Endpoint::Tcp("127.0.0.1:0".into()), config)
        .map_err(|e| std::io::Error::other(format!("bind sweepd: {e}")))?;
    let addr = server.tcp_addr().expect("tcp endpoint");
    let handle = server.spawn();
    let mut client = SweepClient::connect(&Endpoint::Tcp(addr.to_string()))
        .map_err(|e| std::io::Error::other(format!("connect sweepd: {e}")))?;
    let mut run_server = || {
        black_box(client.run_reports(&spec, trials).expect("sweepd warm submission"));
    };
    time_one(&mut run_server, 2); // warmup
    let server_ns =
        (0..samples).map(|_| time_one(&mut run_server, 10)).fold(f64::INFINITY, f64::min);

    drop(client);
    let _ = handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    Ok((direct_ns, server_ns))
}

/// A same-run gate's bound on the ratio `ns(num) / ns(den)` of its arms.
enum Bound {
    /// The ratio may exceed 1 by at most this fraction.
    Overhead(f64),
    /// The ratio must be at least this factor.
    Speedup(f64),
}

/// Same-run A/B gate over arms `num` and `den` (`group/name` labels):
/// both were measured in this process, so their ratio needs no
/// machine-speed normalization. Prints one verdict line and returns
/// whether the pair holds `bound`; a pair with an unmeasured arm is
/// skipped.
fn same_run_gate(
    rows: &[(String, f64, Option<f64>)],
    label: &str,
    num: &str,
    den: &str,
    bound: Bound,
) -> bool {
    let ns = |want: &str| rows.iter().find(|(label, _, _)| label == want).map(|(_, ns, _)| *ns);
    let (Some(num), Some(den)) = (ns(num), ns(den)) else {
        return true;
    };
    let ratio = num / den;
    let (ok, shown) = match bound {
        Bound::Overhead(limit) => {
            let overhead = ratio - 1.0;
            (
                overhead <= limit,
                format!("{:>+7.1}%   (limit {:.0}%)", overhead * 100.0, limit * 100.0),
            )
        }
        Bound::Speedup(floor) => (ratio >= floor, format!("{ratio:>7.1}x   (floor {floor:.0}x)")),
    };
    println!("{label:<41}{shown}   {}", if ok { "ok" } else { "FAIL" });
    ok
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_gate [--threshold <frac>] [--samples <n>] [--normalize] \
         [--baseline <path>]\n\n\
         Fails (exit 1) when a measured engine_throughput arm regresses more\n\
         than <frac> (default 0.10) against the newest results/BENCH.json\n\
         entry. --normalize gates each arm against the median measured/recorded\n\
         ratio instead of the raw ratio, absorbing uniform machine-speed\n\
         differences (use in CI). Fixed same-run gates ride along: the\n\
         churn_overhead arm gates the disabled open-world stack against the\n\
         pristine fast-exact run (limit 2%), the lens_overhead arm gates the\n\
         idle tracing/probe hooks the same way (limit 2%), the batch_speedup pair\n\
         runs the same 256 election-scale trials per-trial and batched and\n\
         fails unless the batched backend is at least 10x faster, and the\n\
         sweepd_overhead pair submits a warm-cache unit through an in-process\n\
         jle-sweepd and fails when the round-trip exceeds 50 ms."
    );
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> Cli {
    let mut cli = Cli {
        threshold: 0.10,
        samples: 5,
        normalize: false,
        baseline: "results/BENCH.json".into(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("error: {flag} requires a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--threshold" => match value("--threshold").parse::<f64>() {
                Ok(t) if t > 0.0 => cli.threshold = t,
                _ => {
                    eprintln!("error: --threshold expects a positive fraction");
                    std::process::exit(2);
                }
            },
            "--samples" => match value("--samples").parse::<u32>() {
                Ok(n) if n >= 1 => cli.samples = n,
                _ => {
                    eprintln!("error: --samples expects a positive integer");
                    std::process::exit(2);
                }
            },
            "--normalize" => cli.normalize = true,
            "--baseline" => cli.baseline = value("--baseline"),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown argument {other}");
                usage();
            }
        }
    }
    cli
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_args(&args);

    let raw = std::fs::read_to_string(&cli.baseline).unwrap_or_else(|e| {
        eprintln!("error: cannot read baseline {}: {e}", cli.baseline);
        std::process::exit(2);
    });
    let doc: serde_json::Value = serde_json::from_str(&raw).unwrap_or_else(|e| {
        eprintln!("error: {} is not valid JSON: {e}", cli.baseline);
        std::process::exit(2);
    });
    let latest = doc
        .get("history")
        .and_then(|h| h.as_seq())
        .and_then(|entries| entries.first())
        .unwrap_or_else(|| {
            eprintln!("error: {} has no history entries", cli.baseline);
            std::process::exit(2);
        })
        .clone();
    let date = latest.get("date").and_then(|d| d.as_str()).unwrap_or("?");
    eprintln!(
        "bench_gate: measuring {} arms (best of {}) against {} entry dated {date}",
        arms().len(),
        cli.samples,
        cli.baseline,
    );

    // Measure everything first; gate after, so --normalize sees all ratios.
    let mut rows: Vec<(String, f64, Option<f64>)> = Vec::new();
    for mut arm in arms() {
        let label = format!("{}/{}", arm.group, arm.name);
        let ns = measure(&mut arm, cli.samples);
        let base = baseline_ns(&latest, arm.group, arm.name);
        rows.push((label, ns, base));
    }

    let mut ratios: Vec<f64> =
        rows.iter().filter_map(|(_, ns, base)| base.map(|b| ns / b)).collect();
    ratios.sort_by(f64::total_cmp);
    let pivot = if cli.normalize && !ratios.is_empty() {
        ratios[ratios.len() / 2] // median measured/recorded ratio
    } else {
        1.0
    };
    if cli.normalize {
        eprintln!("bench_gate: normalizing by median machine-speed ratio {pivot:.3}");
    }

    let mut failed = false;
    for (label, ns, base) in &rows {
        match base {
            None => println!("{label:<28} {ns:>12.0} ns/iter   (new arm, no baseline — skipped)"),
            Some(b) => {
                let rel = ns / b / pivot - 1.0;
                let verdict = if rel > cli.threshold {
                    failed = true;
                    "FAIL"
                } else {
                    "ok"
                };
                println!(
                    "{label:<28} {ns:>12.0} ns/iter   baseline {b:>12.0}   {rel:>+7.1}%   {verdict}",
                    rel = rel * 100.0
                );
            }
        }
    }

    // Same-run A/B gates. The open-world stack, fully disabled (empty
    // churn plan + idle split-brain observer), and the lens hooks'
    // disabled path (an attached observer that declines probes plus a
    // disabled span recorder) must each be nearly free next to the
    // pristine fast-exact run; the SoA lockstep pass over 256
    // election-scale trials must beat the per-trial fast-exact loop on
    // the same workload.
    const PRISTINE: &str = "fast_exact_slots/pristine/1024";
    let gates = [
        (
            "churn_overhead (disabled path)",
            "churn_overhead/fast_empty_plan/1024",
            PRISTINE,
            Bound::Overhead(CHURN_OVERHEAD_LIMIT),
        ),
        (
            "lens_overhead (disabled path)",
            "lens_overhead/fast_hooks_idle/1024",
            PRISTINE,
            Bound::Overhead(LENS_OVERHEAD_LIMIT),
        ),
        (
            "batch_speedup (256 trials, n=1024)",
            "batch_speedup/per_trial/1024",
            "batch_speedup/batch/1024",
            Bound::Speedup(BATCH_SPEEDUP_FLOOR),
        ),
    ];
    for (label, num, den, bound) in gates {
        failed |= !same_run_gate(&rows, label, num, den, bound);
    }

    // Absolute-budget gate: a warm-cache submission through the resident
    // service (loopback round-trips + admission + scheduling + replay)
    // must land within SWEEPD_BUDGET_MS. The same-run direct arm is
    // printed next to it so the service's markup is visible.
    match measure_sweepd_overhead(cli.samples) {
        Ok((direct_ns, server_ns)) => {
            let server_ms = server_ns / 1e6;
            let verdict = if server_ms > SWEEPD_BUDGET_MS {
                failed = true;
                "FAIL"
            } else {
                "ok"
            };
            println!("sweepd_overhead/direct_warm  {direct_ns:>12.0} ns/iter   (yardstick)");
            println!(
                "sweepd_overhead/server_warm  {server_ns:>12.0} ns/iter   \
                 {server_ms:.2} ms (budget {SWEEPD_BUDGET_MS:.0} ms)   {verdict}"
            );
        }
        Err(e) => {
            eprintln!("bench_gate: sweepd_overhead arm failed to run: {e}");
            failed = true;
        }
    }

    if failed {
        eprintln!(
            "bench_gate: FAIL — at least one arm regressed more than {:.0}% \
             (threshold overridable with --threshold)",
            cli.threshold * 100.0
        );
        std::process::exit(1);
    }
    eprintln!("bench_gate: ok — no arm regressed more than {:.0}%", cli.threshold * 100.0);
}
