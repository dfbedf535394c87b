//! `sweepbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path sweepbench/Cargo.toml -- \
//!     --workload sweep_cold|sweep_warm|sweepd_mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! From the seed it generates the reference sweep (`spec.rs`), drives it
//! through the orchestrator, the engine closures and an in-process
//! `jle-sweepd`, checks the outputs, and prints one JSON result line
//! last: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! of a separate traced run with `--trace 1`. `NOTES.md` says what each
//! workload and metric is for.

mod daemon;
mod exec;
mod fold;
mod local;
mod metrics;
mod pctl;
mod spec;
mod sys;

use exec::Prepared;
use jle_engine::RunReport;
use jle_orchestrator::{ResultStore, DEFAULT_CHUNK_SIZE};
use jle_telemetry::SpanRecorder;
use metrics::Metrics;
use std::path::PathBuf;
use std::time::Instant;

/// Nominal wall time of one pass on a 2-core box; with `--seconds` it
/// fixes how many passes a run makes. Only the pass count depends on
/// it, never on a measurement, so both sides of a comparison do the
/// same work.
const COLD_PASS_S: f64 = 3.0;
const WARM_PASS_S: f64 = 0.5;
/// Set-up is repeated this many times per run and its median reported.
pub const SETUP_ROUNDS: usize = 3;
/// Untraced passes a traced run makes to price tracing against.
const TRACED_BASELINE_PASSES: usize = 3;
/// Batched units re-run per trial as an output check.
const BATCH_SAMPLE: usize = 3;

/// One benchmark run: its arguments, machine context, scratch
/// directories and failure tally.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub cores: usize,
    /// Orchestrator jobs of the local workloads.
    pub jobs: usize,
    /// sweepd `workers × mc_jobs` and client connections.
    pub workers: usize,
    pub connections: usize,
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    pub setup_round: usize,
    work: PathBuf,
    artifacts: PathBuf,
    setup_s: Vec<f64>,
}

impl Run {
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            eprintln!("sweepbench: FAILED: {msg}");
            self.failures.push(msg);
        }
    }

    /// A scratch directory of this run (removed at exit).
    pub fn dir(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }

    /// Passes of `nominal_s` seconds that fill `--seconds`, and never
    /// fewer than a p99 over unit latencies needs.
    pub fn passes(&self, nominal_s: f64, units: usize) -> usize {
        if self.traced {
            return TRACED_BASELINE_PASSES;
        }
        let for_p99 = 1_000_usize.div_ceil(units);
        ((self.seconds / nominal_s).round() as usize).max(for_p99).max(1)
    }

    fn rounds(&self) -> usize {
        if self.traced {
            1
        } else {
            SETUP_ROUNDS
        }
    }

    pub fn record_setup(&mut self, started: Instant) {
        self.setup_s.push(started.elapsed().as_secs_f64());
    }

    /// Set-up of the local workloads, repeated [`SETUP_ROUNDS`] times:
    /// generate the reference sweep, build every closure, then `extra`.
    pub fn setup_local(&mut self, mut extra: impl FnMut(&Run, &[Prepared])) -> Vec<Prepared> {
        let mut prepared = Vec::new();
        for round in 0..self.rounds() {
            self.setup_round = round;
            let started = Instant::now();
            prepared =
                exec::prepare(spec::reference_sweep(self.seed)).expect("generated specs build");
            extra(self, &prepared);
            self.record_setup(started);
        }
        prepared
    }

    /// `latency_p50_ms` / `latency_p99_ms` with their sample counts.
    pub fn latency(&mut self, m: &mut Metrics, samples_ms: &[f64]) {
        for (q, name) in [(0.5, "latency_p50_ms"), (0.99, "latency_p99_ms")] {
            match pctl::percentile(samples_ms, q) {
                Ok(p) => {
                    println!("{name}: {p}");
                    m.set(name, p.value);
                }
                Err(e) => self.fail(format!("{name}: {e}")),
            }
        }
    }

    /// Per-layer self times from a folded trace.
    pub fn record_fold(&self, m: &mut Metrics, table: &fold::Table) {
        let s = |layer: &str| table.self_us(layer) as f64 * 1e-6;
        m.set("orchestrator.self_s", s("orchestrator"));
        for layer in ["bench", "client", "sweepd", "engine", "analysis"] {
            m.set(&format!("trace.{layer}_self_s"), s(layer));
        }
        m.set("trace.unattributed_s", table.unattributed_us as f64 * 1e-6);
    }

    /// Keep the traced run's Chrome trace and its self-time table.
    pub fn write_trace(&self, recorder: &SpanRecorder, table: &fold::Table) {
        let stem = self.artifacts.join(format!("{}-seed{}", self.workload, self.seed));
        let _ = recorder.write_chrome_trace(stem.with_extension("trace.json"));
        let text = format!("{}\n{}", self.context(), table.render());
        let _ = std::fs::write(stem.with_extension("selftime.txt"), &text);
        println!("per-layer self time of the traced measured phase:\n{}", table.render());
    }

    /// Store metrics by direct `load_chunk` / `write_chunk` calls over
    /// the run's own chunk set.
    pub fn probe_store(&self, m: &mut Metrics, store: &ResultStore, units: &[&spec::Unit]) {
        let scratch = ResultStore::open(self.dir("store-probe")).expect("open the probe store");
        let (mut load_s, mut loads, mut bytes_read) = (0.0, 0u64, 0u64);
        let (mut write_s, mut writes, mut bytes_written, mut trials) = (0.0, 0u64, 0u64, 0u64);
        for unit in units {
            let key = exec::cache_key(&unit.spec);
            for start in (0..unit.trials).step_by(DEFAULT_CHUNK_SIZE as usize) {
                let end = (start + DEFAULT_CHUNK_SIZE).min(unit.trials);
                let started = Instant::now();
                let chunk = store.load_chunk::<RunReport>(&key, start, end);
                load_s += started.elapsed().as_secs_f64();
                let Some(chunk) = chunk else { continue };
                loads += 1;
                bytes_read += file_len(&store.chunk_path(&key, start, end));
                let started = Instant::now();
                let written = scratch.write_chunk(&key, start, end, &chunk);
                write_s += started.elapsed().as_secs_f64();
                if written.is_ok() {
                    writes += 1;
                    trials += end - start;
                    bytes_written += file_len(&scratch.chunk_path(&key, start, end));
                }
            }
        }
        m.set("store.load_s", load_s);
        m.set("store.loads", loads as f64);
        m.set("store.bytes_read", bytes_read as f64);
        m.set("store.write_s", write_s);
        m.set("store.writes", writes as f64);
        m.set("store.bytes_written", bytes_written as f64);
        m.set("store.bytes_per_trial", bytes_written as f64 / trials.max(1) as f64);
    }

    /// Re-run a sample of batched units per trial through
    /// `build_trial_fn`; each must match its batched reports bit for
    /// bit.
    pub fn check_batched_sample(&mut self, prepared: &[Prepared], pass: &local::Pass) {
        let batched: Vec<usize> = (0..prepared.len())
            .filter(|&i| prepared[i].unit.family == spec::Family::Batch)
            .collect();
        for k in 0..BATCH_SAMPLE.min(batched.len()) {
            let i = batched[(self.seed as usize + k * 7) % batched.len()];
            let unit = &prepared[i].unit;
            self.attempted += 1;
            let Ok(batched_reports) = &pass.outcomes[i] else { continue };
            match exec::per_trial_reference(unit) {
                Ok(reference) if exec::digest(&reference) == exec::digest(batched_reports) => {}
                Ok(_) => {
                    self.fail(format!("{}: batched reports differ per trial", unit.spec.point))
                }
                Err(e) => self.fail(format!("{}: {e}", unit.spec.point)),
            }
        }
    }

    /// The machine context stamped on every result.
    pub fn context(&self) -> String {
        format!(
            r#"{{"workload": "{}", "seed": {}, "trace": {}, "available_parallelism": {}, "orchestrator_jobs": {}, "sweepd_workers": {}, "sweepd_mc_jobs": 1, "client_connections": {}, "busy_threads": {}, "store_filesystem": "{}", "git_commit": "{}"}}"#,
            self.workload,
            self.seed,
            u8::from(self.traced),
            self.cores,
            self.jobs,
            self.workers,
            self.connections,
            self.busy_threads(),
            sys::filesystem_of(&self.work),
            sys::git_commit(&std::env::current_dir().unwrap_or_default()),
        )
    }

    /// Threads the configuration keeps busy at once.
    pub fn busy_threads(&self) -> usize {
        match self.workload.as_str() {
            "sweepd_mixed" => self.workers,
            _ => self.jobs,
        }
    }
}

fn file_len(path: &std::path::Path) -> u64 {
    std::fs::metadata(path).map_or(0, |md| md.len())
}

/// Median of a sample (0 for an empty one).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => trace = Some(value == "1"),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["sweep_cold", "sweep_warm", "sweepd_mixed"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args { workload, seed: seed.unwrap_or(1), seconds, traced: trace.unwrap_or(false) })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sweepbench: {e}");
            eprintln!(
                "usage: sweepbench --workload sweep_cold|sweep_warm|sweepd_mixed --seed N \
                 --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let cores = sys::available_parallelism();
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let base = std::env::current_dir().expect("working directory").join(target).join("sweepbench");
    let mut run = Run {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        cores,
        jobs: cores,
        workers: cores,
        connections: cores,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        setup_round: 0,
        work: base.join(format!("run-{}", std::process::id())),
        artifacts: base.join("traces"),
        setup_s: Vec::new(),
    };
    if run.busy_threads() > cores || run.connections > cores {
        eprintln!(
            "sweepbench: refusing to run {} busy threads and {} connections on {cores} cores",
            run.busy_threads(),
            run.connections
        );
        std::process::exit(2);
    }
    let _ = std::fs::remove_dir_all(&run.work);
    std::fs::create_dir_all(&run.work).expect("create the run's scratch directory");
    std::fs::create_dir_all(&run.artifacts).expect("create the trace directory");
    println!("context: {}", run.context());

    let mut m = Metrics::default();
    match run.workload.as_str() {
        "sweep_cold" => local::sweep_cold(&mut run, &mut m),
        "sweep_warm" => local::sweep_warm(&mut run, &mut m),
        _ => daemon::sweepd_mixed(&mut run, &mut m),
    }
    if run.traced {
        m.set("machine.busy_threads", run.busy_threads() as f64);
        m.set("machine.cores", run.cores as f64);
    } else {
        m.set("setup_s", median(&run.setup_s));
        m.set("peak_rss_mb", sys::peak_rss_mib());
    }
    let _ = std::fs::remove_dir_all(&run.work);
    for (name, _) in if run.traced { &metrics::PER_LAYER[..] } else { &metrics::END_TO_END[..] } {
        if let Some(v) = m.get(name) {
            println!("{name} = {v}");
        }
    }
    let correct = run.failed == 0;
    println!("{}", m.result_line(run.traced, run.attempted.max(1), run.failed, correct));
}
