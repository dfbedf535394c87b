//! CLI for the reproduction experiments.
//!
//! ```text
//! experiments list               # show all experiment ids and titles
//! experiments e1 e6 ...          # run specific experiments (full scale)
//! experiments all                # run everything
//! experiments --quick all        # trimmed sweeps (smoke test)
//! experiments --resume all       # reuse partial chunks after a kill
//! experiments --force e3         # recompute and overwrite cached results
//! experiments --jobs 4 all       # explicit worker parallelism
//! experiments --log run.jsonl e1 # append a machine-readable run log
//! ```
//!
//! All Monte-Carlo work routes through the `jle-orchestrator` scheduler:
//! every work unit is fingerprinted (experiment, parameters, seed range,
//! code salt) into a content-addressed key and looked up in the on-disk
//! store under `--cache-dir` (default `results/.cache`) before anything
//! simulates. A re-run of a completed experiment therefore executes zero
//! trials and reproduces byte-identical tables; `--resume` additionally
//! reuses partially completed units chunk-by-chunk, and `--force`
//! recomputes everything and overwrites the store.
//!
//! Results are printed as markdown and written to `results/<id>.md` and
//! `results/<id>.csv` (one CSV per table, suffixed when multiple).

use jle_bench::experiments::{run_by_id, ALL_IDS};
use jle_bench::{ExpContext, ExperimentResult};
use jle_orchestrator::{CachePolicy, Event, JsonlReporter, Orchestrator, StderrProgress};
use jle_telemetry::{FlightRecorder, MetricRegistry, SpanRecorder};
use std::fs;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn write_results(result: &ExperimentResult, dir: &Path) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    fs::write(dir.join(format!("{}.md", result.id)), result.to_markdown())?;
    for (i, (name, table)) in result.tables.iter().enumerate() {
        let suffix = if result.tables.len() == 1 { String::new() } else { format!("_{i}") };
        let mut csv = format!("# {name}\n");
        csv.push_str(&table.to_csv());
        fs::write(dir.join(format!("{}{suffix}.csv", result.id)), csv)?;
    }
    for (i, figure) in result.figures.iter().enumerate() {
        if let Some(svg) = figure.to_svg() {
            let suffix = if result.figures.len() == 1 { String::new() } else { format!("_{i}") };
            fs::write(dir.join(format!("{}{suffix}.svg", result.id)), svg)?;
        }
    }
    Ok(())
}

fn usage() -> ! {
    eprintln!(
        "usage: experiments [flags] <id>... | all | list\n\n\
         flags:\n  \
         --quick, -q        trimmed sweeps and trial counts (smoke test)\n  \
         --cache-dir <dir>  result store root (default: results/.cache)\n  \
         --no-cache         run everything in memory, touch no store\n  \
         --resume           reuse partially completed units chunk-by-chunk\n  \
         --force            recompute everything, overwrite the store\n  \
         --jobs <n>         worker threads for trial execution\n  \
         --log <path>       append a JSONL run log (telemetry events)\n  \
         --no-progress      suppress the stderr progress reporter\n  \
         --metrics-out <p>  append a versioned metrics snapshot (JSONL) at exit;\n                     \
         also writes Prometheus text exposition to <p>.prom\n  \
         --trace-out <p>    write a Chrome trace_event JSON profile at exit\n  \
         --flight-recorder <dir>  dump flight-recorder postmortems (anomalies,\n                     \
         caught panics, supervisor restarts) into <dir>\n  \
         --server <ep>      route supported cohort-election units through a\n                     \
         resident jle-sweepd service (tcp:HOST:PORT or unix:PATH);\n                     \
         unsupported units fall back to local execution"
    );
    std::process::exit(2);
}

/// Parsed command line.
struct Cli {
    quick: bool,
    cache_dir: String,
    no_cache: bool,
    resume: bool,
    force: bool,
    jobs: Option<usize>,
    log: Option<String>,
    progress: bool,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    flight_dir: Option<String>,
    server: Option<String>,
    ids: Vec<String>,
}

fn parse_args(args: &[String]) -> Cli {
    let mut cli = Cli {
        quick: false,
        cache_dir: "results/.cache".into(),
        no_cache: false,
        resume: false,
        force: false,
        jobs: None,
        log: None,
        progress: true,
        metrics_out: None,
        trace_out: None,
        flight_dir: None,
        server: None,
        ids: Vec::new(),
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
            "--quick" | "-q" => cli.quick = true,
            "--cache-dir" => cli.cache_dir = value("--cache-dir"),
            "--no-cache" => cli.no_cache = true,
            "--resume" => cli.resume = true,
            "--force" => cli.force = true,
            "--jobs" => {
                let v = value("--jobs");
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => cli.jobs = Some(n),
                    _ => {
                        eprintln!("error: --jobs expects a positive integer, got {v:?}");
                        std::process::exit(2);
                    }
                }
            }
            "--log" => cli.log = Some(value("--log")),
            "--no-progress" => cli.progress = false,
            "--metrics-out" => cli.metrics_out = Some(value("--metrics-out")),
            "--trace-out" => cli.trace_out = Some(value("--trace-out")),
            "--flight-recorder" => cli.flight_dir = Some(value("--flight-recorder")),
            "--server" => cli.server = Some(value("--server")),
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => {
                eprintln!("error: unknown flag {other}");
                usage();
            }
            other => cli.ids.push(other.to_string()),
        }
    }
    if cli.resume && cli.force {
        eprintln!("error: --resume and --force are mutually exclusive");
        std::process::exit(2);
    }
    cli
}

fn build_orchestrator(cli: &Cli, registry: &MetricRegistry, tracer: &SpanRecorder) -> Orchestrator {
    let mut orch = if cli.no_cache {
        Orchestrator::ephemeral()
    } else {
        match Orchestrator::with_cache_dir(&cli.cache_dir) {
            Ok(o) => o,
            Err(e) => {
                eprintln!(
                    "warning: cannot open cache dir {}: {e}; running without a cache",
                    cli.cache_dir
                );
                Orchestrator::ephemeral()
            }
        }
    };
    if cli.resume {
        orch = orch.policy(CachePolicy::Resume);
    }
    if cli.force {
        orch = orch.policy(CachePolicy::Force);
    }
    if let Some(jobs) = cli.jobs {
        orch = orch.jobs(jobs);
    }
    if cli.progress {
        orch = orch.reporter(StderrProgress::new(Duration::from_millis(250)));
    }
    if let Some(path) = &cli.log {
        match JsonlReporter::append(path) {
            Ok(r) => orch = orch.reporter(r),
            Err(e) => eprintln!("warning: cannot open run log {path}: {e}"),
        }
    }
    orch.metrics_registry(registry).tracer(tracer.clone())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_args(&args);

    if cli.ids.is_empty() || cli.ids[0] == "list" {
        eprintln!("usage: experiments [flags] <id>... | all | list (--help for flags)\n");
        eprintln!("available experiments:");
        for id in ALL_IDS {
            let title = match id {
                "e1" => "LESK runtime vs n (Thm 2.6, O(log n))",
                "e2" => "LESK runtime vs eps (Thm 2.6)",
                "e3" => "LESK runtime vs T (Thm 2.6 crossover)",
                "e4" => "LESU vs n, unknown eps + c ablation (Thm 2.9.1)",
                "e5" => "LESU vs large T, loglog T overhead (Thm 2.9.2)",
                "e6" => "weak-CD Notification overhead (Lemma 3.1, Thms 3.2/3.3)",
                "e7" => "baseline shoot-out (Section 1.3)",
                "e8" => "lower-bound adversary (Lemma 2.7)",
                "e9" => "w.h.p. failure rates (Thm 2.6)",
                "e10" => "estimate trajectory (Section 2.2)",
                "e11" => "slot taxonomy (Lemmas 2.2/2.3/2.5)",
                "e12" => "Estimation(2) window (Lemma 2.8)",
                "e13" => "energy accounting (Section 1.3)",
                "e14" => "adversary ablation (Section 1.1)",
                "e15" => "cohort vs exact engine (DESIGN §4)",
                "e16" => "k-selection extension (paper §4)",
                "e17" => "size approximation extension (paper §4)",
                "e18" => "oracle jammer negative control (model §1.1)",
                "e19" => "fair channel use + targeted jamming limit (paper §4)",
                "e20" => "ablation: the eps/8 increment constant (Alg. 1)",
                "e21" => "the no-CD open problem, quantified (paper §4)",
                "e22" => "jamming + environmental noise (beyond the model)",
                "e23" => "duty-cycled LESK: energy vs latency (extension, ref [13])",
                "e24" => "fault injection + restart supervision (beyond the model)",
                "e25" => "open-world elections: churn, leases, split brain (beyond the model)",
                "e26" => "multi-hop cluster elections: topology x jamming (beyond the model)",
                _ => "",
            };
            eprintln!("  {id:<4} {title}");
        }
        std::process::exit(if cli.ids.is_empty() { 2 } else { 0 });
    }

    let selected: Vec<&str> = if cli.ids.iter().any(|i| i == "all") {
        ALL_IDS.to_vec()
    } else {
        cli.ids.iter().map(String::as_str).collect()
    };

    // One registry + tracer for the whole run: the orchestrator's
    // jle_orchestrator_* counters and the CLI's spans land in the same
    // exports.
    let registry = MetricRegistry::new();
    let tracer =
        if cli.trace_out.is_some() { SpanRecorder::new() } else { SpanRecorder::disabled() };
    let orch = Arc::new(build_orchestrator(&cli, &registry, &tracer));
    orch.announce();
    let mut ctx = ExpContext::new(cli.quick, Arc::clone(&orch));
    if let Some(ep) = &cli.server {
        let endpoint = jle_sweepd::Endpoint::parse(ep).unwrap_or_else(|e| {
            eprintln!("error: --server: {e}");
            std::process::exit(2);
        });
        match jle_sweepd::SweepClient::connect(&endpoint) {
            Ok(client) => {
                eprintln!("experiments: routing cohort elections through {endpoint}");
                ctx = ctx.with_server(client);
            }
            Err(e) => {
                eprintln!("error: cannot connect to sweepd at {endpoint}: {e}");
                std::process::exit(2);
            }
        }
    }
    if let Some(dir) = &cli.flight_dir {
        match FlightRecorder::new(dir) {
            Ok(rec) => ctx = ctx.with_flight_recorder(Arc::new(rec)),
            Err(e) => eprintln!("warning: cannot open flight-recorder dir {dir}: {e}"),
        }
    }

    let out_dir = Path::new("results");
    let mut failed = false;
    let run_span = tracer.span("cli", "run");
    for id in selected {
        let start = Instant::now();
        let exp_span = tracer.span("cli", format!("experiment:{id}"));
        orch.emit(&Event::ExperimentStarted { id });
        match run_by_id(id, &ctx) {
            Some(result) => {
                let dt = start.elapsed();
                orch.emit(&Event::ExperimentFinished { id, wall_secs: dt.as_secs_f64() });
                println!("{}", result.to_markdown());
                println!("_completed in {:.1}s_\n", dt.as_secs_f64());
                if let Err(e) = write_results(&result, out_dir) {
                    eprintln!("warning: could not write results for {id}: {e}");
                }
            }
            None => {
                eprintln!("unknown experiment id: {id}");
                failed = true;
            }
        }
        drop(exp_span);
    }
    drop(run_span);
    orch.summarize();
    if let Some(path) = &cli.metrics_out {
        if let Err(e) = registry.write_snapshot_jsonl(path) {
            eprintln!("warning: could not write metrics snapshot {path}: {e}");
        }
        let prom = format!("{path}.prom");
        if let Err(e) = registry.write_prometheus(&prom) {
            eprintln!("warning: could not write Prometheus exposition {prom}: {e}");
        }
    }
    if let Some(path) = &cli.trace_out {
        if let Err(e) = tracer.write_chrome_trace(path) {
            eprintln!("warning: could not write Chrome trace {path}: {e}");
        }
    }
    if failed {
        std::process::exit(1);
    }
}
