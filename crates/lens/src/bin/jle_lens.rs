//! jle-lens CLI: record, replay, diff, and trace-check deterministic runs.
//!
//! ```text
//! jle-lens record --params FILE (--seed S | --trial K) --out PATH [--tail N]
//! jle-lens replay --flight PATH [--params FILE] [--timeline N] [--no-probes]
//!                 [--diff ENGINE[:DISCIPLINE]]
//! jle-lens replay --fingerprint HEX --trial K --cache-dir DIR [...]
//! jle-lens replay --params FILE (--seed S | --trial K) [...]
//! jle-lens trace-check PATH [--min-categories K] [--tolerance-us T]
//! ```
//!
//! `record` re-derives a run and freezes a self-contained flight
//! artifact (spec embedded). `replay` re-derives a recorded trial and
//! checks it bit-exactly against the artifact (`divergence: none` on
//! success — CI greps for that literal), printing an annotated slot
//! timeline with per-station protocol state transitions; `--diff`
//! replays the same trial on a second backend and pinpoints the first
//! diverging slot. `trace-check` validates an exported Chrome trace
//! (one trace id, unique spans, children nested in parents).

use jle_engine::RngDiscipline;
use jle_lens::{
    check_chrome_trace, diff, divergence, record, replay, Divergence, EngineKind, LensSpec,
    ReplayOutcome,
};
use jle_orchestrator::{ResultStore, WorkSpec};
use jle_telemetry::FlightRecord;
use serde::{Deserialize, Value};
use std::io::{self, Write};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  jle-lens record --params FILE (--seed S | --trial K) --out PATH [--tail N]\n  \
         jle-lens replay --flight PATH [--params FILE] [--timeline N] [--no-probes] [--diff ENGINE[:DISC]]\n  \
         jle-lens replay --fingerprint HEX --trial K --cache-dir DIR [--timeline N] [--no-probes] [--diff ...]\n  \
         jle-lens replay --params FILE (--seed S | --trial K) [--timeline N] [--no-probes] [--diff ...]\n  \
         jle-lens trace-check PATH [--min-categories K] [--tolerance-us T]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => return usage(),
    };
    let result = match cmd {
        "record" => cmd_record(rest),
        "replay" => cmd_replay(rest),
        "trace-check" => cmd_trace_check(rest),
        _ => return usage(),
    };
    match result {
        Ok(code) => code,
        // The reader stopped early (`jle-lens replay … | head -2`).
        Err(CliError::Stdout(e)) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(CliError::Stdout(e)) => {
            eprintln!("jle-lens {cmd}: write stdout: {e}");
            ExitCode::from(2)
        }
        Err(CliError::Input(e)) => {
            eprintln!("jle-lens {cmd}: {e}");
            ExitCode::from(2)
        }
    }
}

/// Why a subcommand stopped early.
enum CliError {
    /// Bad flags, files or specs.
    Input(String),
    /// Writing to stdout failed.
    Stdout(io::Error),
}

impl From<String> for CliError {
    fn from(e: String) -> Self {
        CliError::Input(e)
    }
}

impl From<&str> for CliError {
    fn from(e: &str) -> Self {
        CliError::Input(e.to_string())
    }
}

impl From<io::Error> for CliError {
    fn from(e: io::Error) -> Self {
        CliError::Stdout(e)
    }
}

/// Minimal flag cursor over the argument slice.
struct Flags<'a> {
    args: &'a [String],
    i: usize,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Self {
        Flags { args, i: 0 }
    }

    fn next(&mut self) -> Option<&'a str> {
        let v = self.args.get(self.i).map(String::as_str);
        self.i += 1;
        v
    }

    fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        self.next().ok_or_else(|| format!("{flag} needs a value"))
    }
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))
}

/// Parse a params file: either a bare parameter tree (has `kind`) or a
/// result-store `spec.json` (a canonicalized `WorkSpec` with a nested
/// `params`). Returns the tree plus the spec's base seed when present.
fn load_params(path: &str) -> Result<(Value, Option<u64>), String> {
    let v = read_json(path)?;
    if v.get("kind").is_some() {
        return Ok((v, None));
    }
    if v.get("params").is_some() {
        let spec = WorkSpec::from_json_value(&v).map_err(|e| format!("{path}: {e}"))?;
        return Ok((spec.params, Some(spec.base_seed)));
    }
    Err(format!("{path}: neither a params tree (`kind`) nor a work spec (`params`)"))
}

fn parse_spec(params: &Value) -> Result<LensSpec, String> {
    LensSpec::from_params(params).map_err(|e| e.to_string())
}

fn cmd_record(args: &[String]) -> Result<ExitCode, CliError> {
    let mut stdout = io::stdout().lock();
    let mut params_path = None;
    let mut seed = None;
    let mut trial = None;
    let mut out = None;
    let mut tail = 64usize;
    let mut f = Flags::new(args);
    while let Some(flag) = f.next() {
        match flag {
            "--params" => params_path = Some(f.value(flag)?.to_string()),
            "--seed" => seed = Some(f.value(flag)?.parse::<u64>().map_err(|e| e.to_string())?),
            "--trial" => trial = Some(f.value(flag)?.parse::<u64>().map_err(|e| e.to_string())?),
            "--out" => out = Some(f.value(flag)?.to_string()),
            "--tail" => tail = f.value(flag)?.parse::<usize>().map_err(|e| e.to_string())?,
            other => return Err(format!("unknown flag `{other}`").into()),
        }
    }
    let params_path = params_path.ok_or("record needs --params")?;
    let out = out.ok_or("record needs --out")?;
    let (params, base_seed) = load_params(&params_path)?;
    let seed = resolve_seed(seed, trial, base_seed)?;
    let spec = parse_spec(&params)?;
    let (rec, outcome) = record(&spec, seed, tail).map_err(|e| e.to_string())?;
    let json = serde_json::to_string_pretty(&rec).map_err(|e| format!("serialize record: {e}"))?;
    std::fs::write(&out, json + "\n").map_err(|e| format!("write {out}: {e}"))?;
    writeln!(
        stdout,
        "recorded {} slots (kept last {}) of engine={} proto={} seed={} -> {}",
        outcome.slots_seen,
        outcome.events.len(),
        spec.engine.label(),
        spec.proto.label(),
        seed,
        out
    )?;
    Ok(ExitCode::SUCCESS)
}

/// The workspace seeding convention: trial k of a spec runs at
/// `base_seed + k`.
fn resolve_seed(
    seed: Option<u64>,
    trial: Option<u64>,
    base_seed: Option<u64>,
) -> Result<u64, String> {
    match (seed, trial) {
        (Some(s), None) => Ok(s),
        (None, Some(k)) => {
            let base = base_seed.ok_or("--trial needs a work spec carrying `base_seed`")?;
            Ok(base + k)
        }
        (Some(_), Some(_)) => Err("--seed and --trial are mutually exclusive".into()),
        (None, None) => Err("need --seed S or --trial K".into()),
    }
}

fn parse_diff_target(s: &str) -> Result<(EngineKind, RngDiscipline), String> {
    let (engine_name, disc_name) = match s.split_once(':') {
        Some((e, d)) => (e, Some(d)),
        None => (s, None),
    };
    let engine = EngineKind::parse(engine_name)
        .ok_or_else(|| format!("--diff: unknown engine `{engine_name}`"))?;
    let discipline = match disc_name {
        None | Some("shared") => RngDiscipline::Shared,
        Some("counter") => RngDiscipline::Counter,
        Some(other) => return Err(format!("--diff: unknown discipline `{other}`")),
    };
    Ok((engine, discipline))
}

fn cmd_replay(args: &[String]) -> Result<ExitCode, CliError> {
    let mut stdout = io::stdout().lock();
    let mut flight_path = None;
    let mut params_path = None;
    let mut fingerprint = None;
    let mut cache_dir = None;
    let mut seed = None;
    let mut trial = None;
    let mut timeline = 16usize;
    let mut probes = true;
    let mut diff_target = None;
    let mut f = Flags::new(args);
    while let Some(flag) = f.next() {
        match flag {
            "--flight" => flight_path = Some(f.value(flag)?.to_string()),
            "--params" => params_path = Some(f.value(flag)?.to_string()),
            "--fingerprint" => fingerprint = Some(f.value(flag)?.to_string()),
            "--cache-dir" => cache_dir = Some(f.value(flag)?.to_string()),
            "--seed" => seed = Some(f.value(flag)?.parse::<u64>().map_err(|e| e.to_string())?),
            "--trial" => trial = Some(f.value(flag)?.parse::<u64>().map_err(|e| e.to_string())?),
            "--timeline" => {
                timeline = f.value(flag)?.parse::<usize>().map_err(|e| e.to_string())?
            }
            "--no-probes" => probes = false,
            "--diff" => diff_target = Some(parse_diff_target(f.value(flag)?)?),
            other => return Err(format!("unknown flag `{other}`").into()),
        }
    }

    // Resolve (spec, seed, recorded artifact) from one of the sources.
    let mut recorded: Option<FlightRecord> = None;
    let (params, seed) = if let Some(path) = &flight_path {
        let rec =
            FlightRecord::from_json_value(&read_json(path)?).map_err(|e| format!("{path}: {e}"))?;
        let params = match (&params_path, &rec.replay_spec) {
            (Some(p), _) => load_params(p)?.0,
            (None, Some(spec)) => spec.clone(),
            (None, None) => {
                return Err(format!(
                    "{path} embeds no replay spec; pass --params (or --fingerprint/--cache-dir)"
                )
                .into())
            }
        };
        let seed = rec.seed;
        recorded = Some(rec);
        (params, seed)
    } else if let Some(hex) = &fingerprint {
        let dir = cache_dir.ok_or("--fingerprint needs --cache-dir")?;
        let store = ResultStore::open(&dir).map_err(|e| format!("open {dir}: {e}"))?;
        let (full, spec_value) = store
            .load_spec_info(hex)
            .ok_or_else(|| format!("no spec.json under {dir} matches fingerprint {hex}"))?;
        let spec = WorkSpec::from_json_value(&spec_value)
            .map_err(|e| format!("spec.json for {full}: {e}"))?;
        writeln!(stdout, "fingerprint {full}: {}/{}", spec.experiment, spec.point)?;
        (spec.params, resolve_seed(seed, trial, Some(spec.base_seed))?)
    } else if let Some(path) = &params_path {
        let (params, base_seed) = load_params(path)?;
        let seed = resolve_seed(seed, trial, base_seed)?;
        (params, seed)
    } else {
        return Err("need --flight, --fingerprint, or --params".into());
    };

    let spec = parse_spec(&params)?;
    // Capture the whole run when checking against an artifact (so every
    // recorded slot index is addressable), just a tail otherwise.
    let capture = if recorded.is_some() {
        spec.max_slots.min(jle_lens::MAX_CAPTURE as u64) as usize
    } else {
        timeline.max(64)
    };
    let out = replay(&spec, seed, capture, probes).map_err(|e| e.to_string())?;
    print_summary(&mut stdout, &spec, seed, &out)?;
    print_timeline(&mut stdout, &out, timeline)?;

    let mut failed = false;
    if let Some(rec) = &recorded {
        let d = divergence(rec, &out);
        writeln!(stdout, "divergence: {d}")?;
        failed = d != Divergence::None;
    }
    if let Some((engine, discipline)) = diff_target {
        let other = spec.with_engine(engine, discipline).map_err(|e| e.to_string())?;
        let report = diff(&spec, &other, seed).map_err(|e| e.to_string())?;
        match report.first_divergence {
            None if report.agree() => writeln!(
                stdout,
                "diff({} vs {}): backends agree bit-for-bit over {} slots",
                spec.engine.label(),
                other.engine.label(),
                report.compared
            )?,
            None => {
                writeln!(
                    stdout,
                    "diff({} vs {}): common prefix of {} slots agrees, but run lengths differ ({} vs {})",
                    spec.engine.label(),
                    other.engine.label(),
                    report.compared,
                    report.slots_a,
                    report.slots_b
                )?;
                failed = true;
            }
            Some((a, b)) => {
                writeln!(
                    stdout,
                    "diff({} vs {}): first divergence at slot {} — tx={} rx={} jam={} vs tx={} rx={} jam={}",
                    spec.engine.label(),
                    other.engine.label(),
                    a.slot,
                    a.transmitters,
                    a.listeners,
                    a.jammed,
                    b.transmitters,
                    b.listeners,
                    b.jammed
                )?;
                failed = true;
            }
        }
    }
    Ok(if failed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

fn print_summary(
    stdout: &mut impl Write,
    spec: &LensSpec,
    seed: u64,
    out: &ReplayOutcome,
) -> io::Result<()> {
    let r = &out.report;
    writeln!(
        stdout,
        "replay: engine={} proto={} n={} seed={} slots={} winner={} resolved_at={} timed_out={}",
        spec.engine.label(),
        spec.proto.label(),
        spec.n,
        seed,
        out.slots_seen,
        r.winner.map(|w| w.to_string()).unwrap_or_else(|| "-".into()),
        r.resolved_at.map(|s| s.to_string()).unwrap_or_else(|| "-".into()),
        r.timed_out,
    )?;
    writeln!(
        stdout,
        "adversary: jammed {}/{} observed slots, budget spent {:.3}",
        out.jammed_total, out.slots_seen, r.adv_budget_spent
    )
}

fn print_timeline(stdout: &mut impl Write, out: &ReplayOutcome, timeline: usize) -> io::Result<()> {
    if timeline == 0 || out.events.is_empty() {
        return Ok(());
    }
    let start = out.events.len().saturating_sub(timeline);
    writeln!(
        stdout,
        "timeline (last {} of {} captured slots):",
        out.events.len() - start,
        out.events.len()
    )?;
    writeln!(stdout, "  {:>8}  {:>4} {:>4} {:>3}  state transitions", "slot", "tx", "rx", "jam")?;
    for ev in &out.events[start..] {
        let notes: Vec<String> = out
            .transitions
            .iter()
            .filter(|t| t.slot == ev.slot)
            .map(|t| match t.value {
                Some(v) => format!("{}:{}({v:.3})", t.station, t.state),
                None => format!("{}:{}", t.station, t.state),
            })
            .collect();
        writeln!(
            stdout,
            "  {:>8}  {:>4} {:>4} {:>3}  {}",
            ev.slot,
            ev.transmitters,
            ev.listeners,
            if ev.jammed { "*" } else { "." },
            notes.join(" ")
        )?;
    }
    let shown_from = out.events[start].slot;
    let n_transitions = out.transitions.len();
    let earlier = out.transitions.iter().filter(|t| t.slot < shown_from).count();
    if n_transitions > 0 {
        writeln!(
            stdout,
            "state transitions: {} recorded{}{}",
            n_transitions,
            if earlier > 0 {
                format!(" ({earlier} before the shown window)")
            } else {
                String::new()
            },
            if out.transitions_truncated { " [truncated]" } else { "" },
        )?;
    }
    Ok(())
}

fn cmd_trace_check(args: &[String]) -> Result<ExitCode, CliError> {
    let mut stdout = io::stdout().lock();
    let mut path = None;
    let mut min_categories = 0usize;
    let mut tolerance_us = 2_000u64;
    let mut f = Flags::new(args);
    while let Some(flag) = f.next() {
        match flag {
            "--min-categories" => {
                min_categories = f.value(flag)?.parse::<usize>().map_err(|e| e.to_string())?
            }
            "--tolerance-us" => {
                tolerance_us = f.value(flag)?.parse::<u64>().map_err(|e| e.to_string())?
            }
            other if path.is_none() && !other.starts_with("--") => path = Some(other.to_string()),
            other => return Err(format!("unknown flag `{other}`").into()),
        }
    }
    let path = path.ok_or("trace-check needs a trace file path")?;
    let doc = read_json(&path)?;
    let report = check_chrome_trace(&doc, tolerance_us).map_err(|e| format!("{path}: {e}"))?;
    writeln!(
        stdout,
        "trace-check {path}: {} spans, {} categories [{}], {} trace id(s), {} root(s), {} external parent link(s)",
        report.events,
        report.categories.len(),
        report.categories.join(", "),
        report.trace_ids.len(),
        report.roots,
        report.external_parents,
    )?;
    let mut failed = false;
    for v in &report.violations {
        eprintln!("violation: {v}");
        failed = true;
    }
    if report.events == 0 {
        eprintln!("violation: no complete spans in the document");
        failed = true;
    }
    if report.categories.len() < min_categories {
        eprintln!(
            "violation: {} span categories present, need at least {min_categories}",
            report.categories.len()
        );
        failed = true;
    }
    if failed {
        Ok(ExitCode::FAILURE)
    } else {
        writeln!(stdout, "trace-check: ok")?;
        Ok(ExitCode::SUCCESS)
    }
}
