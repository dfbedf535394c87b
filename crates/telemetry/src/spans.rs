//! Span recording with Chrome `trace_event` export.
//!
//! A [`SpanRecorder`] collects completed spans (name, category, start,
//! duration, thread) relative to its own epoch, and renders them as a
//! Chrome trace JSON document (`{"traceEvents":[...]}`, `"ph":"X"`
//! complete events) loadable in `chrome://tracing` or Perfetto.
//!
//! Spans are recorded via RAII guards: [`SpanRecorder::span`] starts the
//! clock, dropping the returned [`SpanGuard`] stops it and appends the
//! event. A disabled recorder ([`SpanRecorder::disabled`]) hands out
//! no-op guards — call sites never need to branch.
//!
//! Three facilities support end-to-end causal tracing (DESIGN.md §16):
//!
//! * **Identity** — every span gets a recorder-unique id and an optional
//!   parent id; a [`TraceContext`] stamped via
//!   [`SpanRecorder::set_trace`] tags every span with a cross-process
//!   trace id, rendered into the Chrome `args` object.
//! * **Crash safety** — spans still open are tracked in a registry;
//!   [`SpanRecorder::to_chrome_trace`] exports them truncated at "now",
//!   and [`SpanRecorder::flush_on_drop`] returns a guard that writes the
//!   trace on drop, *including during panic unwinding*, so a crashed
//!   worker yields a valid (truncated) trace instead of malformed JSON.
//! * **Merging** — [`SpanRecorder::export_events`] /
//!   [`SpanRecorder::import_events`] move spans between recorders in
//!   different processes, remapping span ids and rebasing timestamps so
//!   a client can splice a server's spans under its own submit span.

use crate::trace::TraceContext;
use serde::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

#[derive(Debug, Clone)]
struct SpanEvent {
    name: String,
    cat: String,
    ts_us: u64,
    dur_us: u64,
    tid: u64,
    id: u64,
    parent: u64,
    /// Whether `parent` refers to a span id minted by *another* recorder
    /// (a cross-process [`TraceContext::parent_span`]). Id spaces are
    /// per-recorder, so without this flag an external parent id is
    /// ambiguous with a local one when exporting/importing.
    external_parent: bool,
    trace: u64,
}

#[derive(Debug)]
struct OpenSpan {
    id: u64,
    name: String,
    cat: String,
    started: Instant,
    tid: u64,
    parent: u64,
    external_parent: bool,
}

#[derive(Debug, Default)]
struct RecState {
    events: Vec<SpanEvent>,
    open: Vec<OpenSpan>,
    threads: Vec<ThreadId>,
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    state: Mutex<RecState>,
    next_id: AtomicU64,
    trace_id: AtomicU64,
    parent_span: AtomicU64,
}

/// Shared recorder of completed spans (see the module docs). Clones share
/// the same buffer; recording is a short mutex-guarded push, cheap at
/// run/chunk/trial granularity (attach per-slot instrumentation to the
/// flight ring instead, which is lock-free per trial).
#[derive(Debug, Clone)]
pub struct SpanRecorder {
    inner: Option<Arc<Inner>>,
}

impl SpanRecorder {
    /// An enabled recorder with its epoch at "now".
    pub fn new() -> Self {
        SpanRecorder {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                state: Mutex::new(RecState::default()),
                next_id: AtomicU64::new(1),
                trace_id: AtomicU64::new(0),
                parent_span: AtomicU64::new(0),
            })),
        }
    }

    /// A recorder that drops everything; guards become no-ops.
    pub fn disabled() -> Self {
        SpanRecorder { inner: None }
    }

    /// An enabled recorder pre-stamped with `ctx` (see
    /// [`SpanRecorder::set_trace`]).
    pub fn with_trace(ctx: TraceContext) -> Self {
        let rec = SpanRecorder::new();
        rec.set_trace(ctx);
        rec
    }

    /// Whether this recorder keeps spans.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Number of completed spans recorded so far (open spans excluded).
    pub fn len(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.state.lock().expect("span buffer").events.len(),
            None => 0,
        }
    }

    /// Whether no spans have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of spans currently open (guards alive).
    pub fn open_spans(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.state.lock().expect("span buffer").open.len(),
            None => 0,
        }
    }

    /// Stamp every span recorded from now on with `ctx`: the trace id
    /// tags the span's `args.trace`, and spans without an explicit local
    /// parent attach under `ctx.parent_span` (the remote caller's span).
    /// Clones share the stamp.
    pub fn set_trace(&self, ctx: TraceContext) {
        if let Some(inner) = &self.inner {
            inner.trace_id.store(ctx.trace_id, Ordering::Relaxed);
            inner.parent_span.store(ctx.parent_span, Ordering::Relaxed);
        }
    }

    /// The stamped trace context, if any.
    pub fn trace(&self) -> Option<TraceContext> {
        let inner = self.inner.as_ref()?;
        let trace_id = inner.trace_id.load(Ordering::Relaxed);
        if trace_id == 0 {
            return None;
        }
        Some(TraceContext { trace_id, parent_span: inner.parent_span.load(Ordering::Relaxed) })
    }

    /// Start a span in category `cat` (e.g. `"orchestrator"`); the span
    /// ends when the guard drops. Its parent is the recorder's stamped
    /// cross-process parent (0 when untraced).
    pub fn span(&self, cat: &'static str, name: impl Into<String>) -> SpanGuard {
        let parent = match &self.inner {
            Some(inner) => inner.parent_span.load(Ordering::Relaxed),
            None => 0,
        };
        // The stamped parent was minted by the remote caller's recorder —
        // a different id space than ours.
        self.span_raw(cat, name.into(), parent, parent != 0)
    }

    /// Start a span explicitly nested under `parent` (a live or completed
    /// span id from [`SpanGuard::id`]).
    pub fn child_span(&self, cat: &'static str, name: impl Into<String>, parent: u64) -> SpanGuard {
        self.span_raw(cat, name.into(), parent, false)
    }

    fn span_raw(
        &self,
        cat: &'static str,
        name: String,
        parent: u64,
        external_parent: bool,
    ) -> SpanGuard {
        match &self.inner {
            Some(inner) => {
                let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
                let started = Instant::now();
                {
                    let tid_owner = std::thread::current().id();
                    let mut st = inner.state.lock().expect("span buffer");
                    let tid = Self::tid_of(&mut st, tid_owner);
                    st.open.push(OpenSpan {
                        id,
                        name,
                        cat: cat.to_string(),
                        started,
                        tid,
                        parent,
                        external_parent,
                    });
                }
                SpanGuard { recorder: Some((Arc::clone(inner), id)) }
            }
            None => SpanGuard { recorder: None },
        }
    }

    /// Stable small integer for a thread (Chrome `tid`).
    fn tid_of(st: &mut RecState, id: ThreadId) -> u64 {
        match st.threads.iter().position(|t| *t == id) {
            Some(i) => i as u64,
            None => {
                st.threads.push(id);
                (st.threads.len() - 1) as u64
            }
        }
    }

    fn close(inner: &Inner, id: u64) {
        let trace = inner.trace_id.load(Ordering::Relaxed);
        let mut st = inner.state.lock().expect("span buffer");
        let Some(i) = st.open.iter().position(|o| o.id == id) else { return };
        let o = st.open.swap_remove(i);
        let ts_us = o.started.duration_since(inner.epoch).as_micros() as u64;
        let dur_us = o.started.elapsed().as_micros() as u64;
        st.events.push(SpanEvent {
            name: o.name,
            cat: o.cat,
            ts_us,
            dur_us,
            tid: o.tid,
            id,
            parent: o.parent,
            external_parent: o.external_parent,
            trace,
        });
    }

    /// All events — completed spans plus still-open spans truncated at
    /// "now" — in one snapshot.
    fn snapshot_events(&self) -> Vec<SpanEvent> {
        let Some(inner) = &self.inner else { return Vec::new() };
        let trace = inner.trace_id.load(Ordering::Relaxed);
        let st = inner.state.lock().expect("span buffer");
        let mut out = st.events.clone();
        for o in &st.open {
            out.push(SpanEvent {
                name: o.name.clone(),
                cat: o.cat.clone(),
                ts_us: o.started.duration_since(inner.epoch).as_micros() as u64,
                dur_us: o.started.elapsed().as_micros() as u64,
                tid: o.tid,
                id: o.id,
                parent: o.parent,
                external_parent: o.external_parent,
                trace,
            });
        }
        out
    }

    fn event_to_value(e: &SpanEvent) -> Value {
        let mut args: Vec<(String, Value)> =
            vec![("span".into(), Value::U64(e.id)), ("parent".into(), Value::U64(e.parent))];
        if e.external_parent {
            args.push(("xparent".into(), Value::Bool(true)));
        }
        if e.trace != 0 {
            args.push(("trace".into(), Value::Str(format!("{:016x}", e.trace))));
        }
        Value::Map(vec![
            ("name".into(), Value::Str(e.name.clone())),
            ("cat".into(), Value::Str(e.cat.clone())),
            ("ph".into(), Value::Str("X".into())),
            ("ts".into(), Value::U64(e.ts_us)),
            ("dur".into(), Value::U64(e.dur_us)),
            ("pid".into(), Value::U64(1)),
            ("tid".into(), Value::U64(e.tid)),
            ("args".into(), Value::Map(args)),
        ])
    }

    /// Microseconds elapsed since this recorder's epoch (0 when
    /// disabled) — the clock [`SpanRecorder::import_events`]'s `at_us`
    /// is measured on.
    pub fn now_us(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.epoch.elapsed().as_micros() as u64)
    }

    /// Render all spans as a Chrome trace JSON document. Spans whose
    /// guards are still alive are included truncated at "now", so the
    /// document is valid even mid-crash (see
    /// [`SpanRecorder::flush_on_drop`]).
    pub fn to_chrome_trace(&self) -> String {
        let events: Vec<Value> = self.snapshot_events().iter().map(Self::event_to_value).collect();
        let doc = Value::Map(vec![
            ("traceEvents".into(), Value::Seq(events)),
            ("displayTimeUnit".into(), Value::Str("ms".into())),
        ]);
        serde_json::to_string(&doc).expect("trace serialization")
    }

    /// Write the Chrome trace to `path` (overwriting), creating parent
    /// directories as needed.
    pub fn write_chrome_trace(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_chrome_trace())
    }

    /// A guard that writes the Chrome trace to `path` when dropped —
    /// including during panic unwinding — so whatever recorded up to the
    /// crash survives as a valid, merely truncated, trace document.
    pub fn flush_on_drop(&self, path: impl Into<std::path::PathBuf>) -> FlushGuard {
        FlushGuard { recorder: self.clone(), path: path.into() }
    }

    /// Export every span (completed and open-truncated) as a JSON array
    /// suitable for [`SpanRecorder::import_events`] on another recorder,
    /// possibly in another process. Timestamps stay relative to this
    /// recorder's epoch; the importer rebases them.
    pub fn export_events(&self) -> Value {
        Value::Seq(self.snapshot_events().iter().map(Self::event_to_value).collect())
    }

    /// Import spans exported by [`SpanRecorder::export_events`].
    ///
    /// Timestamps are rebased so the earliest imported span starts at
    /// `at_us` microseconds past this recorder's epoch; imported span ids
    /// are remapped onto this recorder's id space (parent links *within*
    /// the import follow the remap, parent links pointing outside it —
    /// e.g. a remote root attached under one of our spans via
    /// [`TraceContext`] — are kept verbatim). Imported thread ids get a
    /// fresh tid block so remote lanes never merge with local ones.
    /// Returns the number of spans imported.
    pub fn import_events(&self, events: &Value, at_us: u64) -> usize {
        // (name, cat, ts, dur, tid, span id, parent id, xparent, trace)
        type ParsedSpan = (String, String, u64, u64, u64, u64, u64, bool, u64);
        let Some(inner) = &self.inner else { return 0 };
        let Some(seq) = events.as_seq() else { return 0 };
        let parsed: Vec<ParsedSpan> = seq
            .iter()
            .filter_map(|e| {
                let name = e.get("name")?.as_str()?.to_string();
                let cat = e.get("cat")?.as_str()?.to_string();
                let ts = e.get("ts").and_then(Value::as_u64)?;
                let dur = e.get("dur").and_then(Value::as_u64).unwrap_or(0);
                let tid = e.get("tid").and_then(Value::as_u64).unwrap_or(0);
                let args = e.get("args");
                let id = args.and_then(|a| a.get("span")).and_then(Value::as_u64).unwrap_or(0);
                let parent =
                    args.and_then(|a| a.get("parent")).and_then(Value::as_u64).unwrap_or(0);
                let xparent =
                    args.and_then(|a| a.get("xparent")).and_then(Value::as_bool).unwrap_or(false);
                let trace = args
                    .and_then(|a| a.get("trace"))
                    .and_then(Value::as_str)
                    .and_then(|h| u64::from_str_radix(h, 16).ok())
                    .unwrap_or(0);
                Some((name, cat, ts, dur, tid, id, parent, xparent, trace))
            })
            .collect();
        if parsed.is_empty() {
            return 0;
        }
        let min_ts = parsed.iter().map(|p| p.2).min().unwrap_or(0);
        // Fresh local ids for the imported spans; internal parent links
        // follow, external ones survive untouched.
        let id_map: std::collections::HashMap<u64, u64> = parsed
            .iter()
            .filter(|p| p.5 != 0)
            .map(|p| (p.5, inner.next_id.fetch_add(1, Ordering::Relaxed)))
            .collect();
        let mut st = inner.state.lock().expect("span buffer");
        let tid_base = st
            .events
            .iter()
            .map(|e| e.tid + 1)
            .max()
            .unwrap_or(0)
            .max(st.open.iter().map(|o| o.tid + 1).max().unwrap_or(0));
        let count = parsed.len();
        for (name, cat, ts, dur, tid, id, parent, xparent, trace) in parsed {
            // External parents were minted by *this side's* caller — by
            // construction they refer to our id space, so they resolve
            // verbatim (and stop being external here). Internal parents
            // follow the remap.
            let parent = if xparent { parent } else { id_map.get(&parent).copied().unwrap_or(0) };
            st.events.push(SpanEvent {
                name,
                cat,
                ts_us: at_us + (ts - min_ts),
                dur_us: dur,
                tid: tid_base + tid,
                id: id_map.get(&id).copied().unwrap_or(0),
                parent,
                external_parent: false,
                trace,
            });
        }
        count
    }
}

impl Default for SpanRecorder {
    fn default() -> Self {
        SpanRecorder::new()
    }
}

/// RAII guard for an in-flight span; dropping it records the span.
#[derive(Debug)]
pub struct SpanGuard {
    recorder: Option<(Arc<Inner>, u64)>,
}

impl SpanGuard {
    /// This span's recorder-unique id (0 for a disabled recorder) — pass
    /// it to [`SpanRecorder::child_span`] or
    /// [`TraceContext::with_parent`] to nest work under this span.
    pub fn id(&self) -> u64 {
        self.recorder.as_ref().map_or(0, |(_, id)| *id)
    }

    /// End the span without recording it: for work that turned out not
    /// to happen (a probe that missed), so no export ever shows it.
    pub fn discard(mut self) {
        if let Some((inner, id)) = self.recorder.take() {
            inner.state.lock().expect("span buffer").open.retain(|o| o.id != id);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((inner, id)) = self.recorder.take() {
            SpanRecorder::close(&inner, id);
        }
    }
}

/// Writes the Chrome trace on drop — even during panic unwinding (see
/// [`SpanRecorder::flush_on_drop`]).
#[derive(Debug)]
pub struct FlushGuard {
    recorder: SpanRecorder,
    path: std::path::PathBuf,
}

impl Drop for FlushGuard {
    fn drop(&mut self) {
        let _ = self.recorder.write_chrome_trace(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_and_export_chrome_trace() {
        let rec = SpanRecorder::new();
        {
            let _run = rec.span("cli", "run");
            let _unit = rec.span("orchestrator", "unit:e1/p0");
        }
        assert_eq!(rec.len(), 2);
        let text = rec.to_chrome_trace();
        let doc: Value = serde_json::from_str(&text).unwrap();
        let events = doc.get("traceEvents").and_then(Value::as_seq).expect("traceEvents array");
        assert_eq!(events.len(), 2);
        for e in events {
            assert_eq!(e.get("ph").and_then(Value::as_str), Some("X"));
            assert!(e.get("ts").and_then(Value::as_u64).is_some());
            assert!(e.get("dur").and_then(Value::as_u64).is_some());
            assert_eq!(e.get("pid").and_then(Value::as_u64), Some(1));
            assert!(e.get("args").and_then(|a| a.get("span")).and_then(Value::as_u64).unwrap() > 0);
        }
        // Inner span (dropped first) is recorded first.
        assert_eq!(events[0].get("name").and_then(Value::as_str), Some("unit:e1/p0"));
        assert_eq!(events[1].get("name").and_then(Value::as_str), Some("run"));
    }

    #[test]
    fn disabled_recorder_is_a_no_op() {
        let rec = SpanRecorder::disabled();
        assert!(!rec.is_enabled());
        {
            let g = rec.span("cli", "ignored");
            assert_eq!(g.id(), 0);
        }
        assert!(rec.is_empty());
        assert!(rec.trace().is_none());
        let doc: Value = serde_json::from_str(&rec.to_chrome_trace()).unwrap();
        assert_eq!(doc.get("traceEvents").and_then(Value::as_seq).map(<[Value]>::len), Some(0));
    }

    #[test]
    fn threads_get_stable_small_tids() {
        let rec = SpanRecorder::new();
        {
            let _a = rec.span("t", "main-1");
        }
        let rec2 = rec.clone();
        std::thread::spawn(move || {
            let _b = rec2.span("t", "worker");
        })
        .join()
        .unwrap();
        {
            let _c = rec.span("t", "main-2");
        }
        let text = rec.to_chrome_trace();
        let doc: Value = serde_json::from_str(&text).unwrap();
        let events = doc.get("traceEvents").and_then(Value::as_seq).unwrap();
        let tid = |name: &str| {
            events
                .iter()
                .find(|e| e.get("name").and_then(Value::as_str) == Some(name))
                .and_then(|e| e.get("tid"))
                .and_then(Value::as_u64)
                .unwrap()
        };
        assert_eq!(tid("main-1"), tid("main-2"), "same thread, same tid");
        assert_ne!(tid("main-1"), tid("worker"), "different thread, different tid");
    }

    #[test]
    fn a_discarded_span_is_never_exported() {
        let rec = SpanRecorder::new();
        let kept = rec.span("worker", "kept");
        rec.span("worker", "probe").discard();
        assert_eq!(rec.open_spans(), 1);
        drop(kept);
        let trace = rec.to_chrome_trace();
        assert_eq!(rec.len(), 1, "{trace}");
        assert!(trace.contains("kept") && !trace.contains("probe"), "{trace}");
        SpanRecorder::disabled().span("worker", "noop").discard();
    }

    #[test]
    fn open_spans_appear_truncated_in_the_export() {
        let rec = SpanRecorder::new();
        let _open = rec.span("worker", "still-running");
        assert_eq!(rec.len(), 0, "not completed yet");
        assert_eq!(rec.open_spans(), 1);
        let doc: Value = serde_json::from_str(&rec.to_chrome_trace()).unwrap();
        let events = doc.get("traceEvents").and_then(Value::as_seq).unwrap();
        assert_eq!(events.len(), 1, "open span exported truncated");
        assert_eq!(events[0].get("name").and_then(Value::as_str), Some("still-running"));
        assert_eq!(events[0].get("ph").and_then(Value::as_str), Some("X"));
    }

    #[test]
    fn flush_guard_writes_a_valid_trace_during_panic() {
        let path = std::env::temp_dir().join(format!("jle-span-flush-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let rec = SpanRecorder::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _flush = rec.flush_on_drop(&path);
            let _outer = rec.span("worker", "job");
            let _inner = rec.span("engine", "run");
            panic!("worker crashed mid-span");
        }));
        assert!(result.is_err());
        let text = std::fs::read_to_string(&path).expect("trace flushed during unwind");
        let doc: Value = serde_json::from_str(&text).expect("flushed trace is valid JSON");
        let events = doc.get("traceEvents").and_then(Value::as_seq).unwrap();
        // Guards dropped during unwinding, so both spans completed; the
        // point is the file exists and parses even though the scope died.
        assert_eq!(events.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_context_stamps_spans_and_parents() {
        let ctx = TraceContext { trace_id: 0xABCD, parent_span: 0 };
        let rec = SpanRecorder::with_trace(ctx);
        assert_eq!(rec.trace(), Some(ctx));
        let outer = rec.span("client", "submit");
        let outer_id = outer.id();
        {
            let _child = rec.child_span("client", "wait", outer_id);
        }
        drop(outer);
        let doc: Value = serde_json::from_str(&rec.to_chrome_trace()).unwrap();
        let events = doc.get("traceEvents").and_then(Value::as_seq).unwrap();
        for e in events {
            assert_eq!(
                e.get("args").and_then(|a| a.get("trace")).and_then(Value::as_str),
                Some("000000000000abcd")
            );
        }
        let wait = &events[0];
        assert_eq!(wait.get("name").and_then(Value::as_str), Some("wait"));
        assert_eq!(
            wait.get("args").and_then(|a| a.get("parent")).and_then(Value::as_u64),
            Some(outer_id)
        );
    }

    #[test]
    fn export_import_rebases_and_remaps() {
        // "Server" recorder: a root span carrying an external parent (the
        // client's span id, unknown to the server's id space) — stamped
        // via the trace context, exactly as sweepd does.
        let server = SpanRecorder::with_trace(TraceContext { trace_id: 7, parent_span: 12_345 });
        let root = server.span("sweepd", "stage:execute");
        let root_id = root.id();
        {
            let _child = server.child_span("engine", "run:seed=1", root_id);
        }
        drop(root);
        let exported = server.export_events();

        let client = SpanRecorder::new();
        {
            let _submit = client.span("client", "submit");
        }
        let imported = client.import_events(&exported, 500);
        assert_eq!(imported, 2);
        let doc: Value = serde_json::from_str(&client.to_chrome_trace()).unwrap();
        let events = doc.get("traceEvents").and_then(Value::as_seq).unwrap();
        assert_eq!(events.len(), 3);
        let by_name = |n: &str| {
            events.iter().find(|e| e.get("name").and_then(Value::as_str) == Some(n)).unwrap()
        };
        let stage = by_name("stage:execute");
        let run = by_name("run:seed=1");
        // External parent link kept verbatim.
        assert_eq!(
            stage.get("args").and_then(|a| a.get("parent")).and_then(Value::as_u64),
            Some(12_345)
        );
        // Internal parent link remapped alongside its span id.
        assert_eq!(
            run.get("args").and_then(|a| a.get("parent")),
            stage.get("args").and_then(|a| a.get("span")),
        );
        // Rebase: earliest imported span lands at 500µs past the epoch.
        let ts_min = events
            .iter()
            .filter(|e| e.get("cat").and_then(Value::as_str) != Some("client"))
            .filter_map(|e| e.get("ts").and_then(Value::as_u64))
            .min()
            .unwrap();
        assert_eq!(ts_min, 500);
        // Imported spans keep their trace id.
        assert_eq!(
            run.get("args").and_then(|a| a.get("trace")).and_then(Value::as_str),
            Some("0000000000000007")
        );
    }
}
