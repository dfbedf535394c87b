//! The sweep-client library: connect, submit, stream, collect.
//!
//! [`SweepClient`] is a thin synchronous wrapper over one JSONL
//! connection. The bench CLIs' `--server` mode builds on
//! [`SweepClient::run_reports`], which retries through
//! backpressure (`rejected` frames carry a `retry_after_ms` hint),
//! waits out progress frames, and deserializes the terminal `result`
//! payload back into [`RunReport`]s — so a server round-trip is a
//! drop-in replacement for a local [`jle_orchestrator::Orchestrator`]
//! call on the same `WorkSpec`.

use crate::protocol::{
    read_line, ClientFrame, LineRead, ServerFrame, MAX_SERVER_FRAME_BYTES, PROTOCOL_VERSION,
};
use crate::server::{Endpoint, SweepStream};
use jle_engine::RunReport;
use jle_orchestrator::WorkSpec;
use jle_telemetry::{SpanGuard, SpanRecorder, TraceContext};
use serde::Value;
use serde_json::value::RawValue;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::sync::Arc;
use std::time::Duration;

/// Everything that can go wrong on the client side.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server sent something unparsable or out of protocol.
    Protocol(String),
    /// Backpressure: the submission was refused even after retries.
    Rejected {
        /// Server-provided reason.
        reason: String,
        /// Suggested wait before retrying.
        retry_after_ms: u64,
    },
    /// The server cannot run this work kind (compute locally instead).
    Unsupported(String),
    /// The job was cancelled before completion.
    Cancelled {
        /// Trials already checkpointed at cancellation.
        completed_trials: u64,
    },
    /// The job failed server-side.
    Failed(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol: {msg}"),
            ClientError::Rejected { reason, retry_after_ms } => {
                write!(f, "rejected: {reason} (retry after {retry_after_ms} ms)")
            }
            ClientError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
            ClientError::Cancelled { completed_trials } => {
                write!(f, "cancelled after {completed_trials} trials")
            }
            ClientError::Failed(msg) => write!(f, "failed: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// The server's `hello` answer.
#[derive(Debug, Clone)]
pub struct ServerInfo {
    /// Protocol version string (must be [`PROTOCOL_VERSION`]).
    pub proto: String,
    /// Worker pool size.
    pub workers: u64,
    /// Bounded queue length.
    pub max_queue: u64,
    /// Per-client fair share.
    pub client_share: u64,
}

/// A terminal `result` payload.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// The unit's fingerprint key.
    pub key: String,
    /// Trials actually executed server-side (0 = fully cache-served).
    pub executed_trials: u64,
    /// Trials served from the store.
    pub cached_trials: u64,
    /// Submission-to-result wall time measured by the server.
    pub wall_secs: f64,
    /// The JSON array of per-trial results, in trial order, as the raw
    /// text the server sent.
    pub results: Box<RawValue>,
}

impl SweepOutcome {
    /// Decode the payload into typed reports, straight from its text.
    pub fn reports(&self) -> Result<Vec<RunReport>, ClientError> {
        serde_json::from_str(self.results.get())
            .map_err(|e| ClientError::Protocol(format!("bad result payload: {e}")))
    }
}

/// A live submission: the ticket [`SweepClient::wait`] redeems.
#[derive(Debug, Clone)]
pub struct Submission {
    /// Request id the server echoes on every frame of this job.
    pub req_id: u64,
    /// The unit's fingerprint key.
    pub key: String,
    /// Whether the submission coalesced onto an in-flight computation.
    pub dedup: bool,
    /// Queue length at admission.
    pub queue_depth: u64,
}

/// Progress observed while waiting on a submission.
#[derive(Debug, Clone, Copy)]
pub struct ProgressUpdate {
    /// Trials finished so far.
    pub done_trials: u64,
    /// Total trials in the unit.
    pub total_trials: u64,
    /// Executed throughput.
    pub trials_per_sec: f64,
    /// Server's remaining-time estimate.
    pub eta_secs: f64,
}

/// One synchronous JSONL connection to a sweep service.
pub struct SweepClient {
    reader: BufReader<SweepStream>,
    /// The line [`SweepClient::read_frame`] reads into, reused.
    line: Vec<u8>,
    writer: SweepStream,
    info: ServerInfo,
    next_id: u64,
    tracer: SpanRecorder,
    /// Open client-side submit spans, by request id; closed (dropped)
    /// when the request reaches a terminal frame.
    inflight_spans: HashMap<u64, SpanGuard>,
}

impl SweepClient {
    /// Connect and handshake.
    pub fn connect(endpoint: &Endpoint) -> Result<Self, ClientError> {
        let stream = SweepStream::connect(endpoint)?;
        let writer = stream.try_clone()?;
        let mut client = SweepClient {
            reader: BufReader::new(stream),
            line: Vec::new(),
            writer,
            info: ServerInfo { proto: String::new(), workers: 0, max_queue: 0, client_share: 0 },
            next_id: 0,
            tracer: SpanRecorder::disabled(),
            inflight_spans: HashMap::new(),
        };
        let id = client.send(|id| ClientFrame::Hello { id })?;
        match client.read_frame()? {
            ServerFrame::Hello { id: got, proto, workers, max_queue, client_share }
                if got == id =>
            {
                if proto != PROTOCOL_VERSION {
                    return Err(ClientError::Protocol(format!(
                        "server speaks {proto}, client speaks {PROTOCOL_VERSION}"
                    )));
                }
                client.info = ServerInfo { proto, workers, max_queue, client_share };
                Ok(client)
            }
            other => Err(ClientError::Protocol(format!("expected hello, got {other:?}"))),
        }
    }

    /// The server's handshake parameters.
    pub fn server_info(&self) -> &ServerInfo {
        &self.info
    }

    /// Turn on distributed tracing: mints one [`TraceContext`] for this
    /// connection, records a client-cat span around every submission, and
    /// splices the server's per-stage spans (returned on `result` frames)
    /// into [`SweepClient::tracer`], so one Chrome-trace export shows the
    /// full submit→result critical path.
    pub fn enable_tracing(&mut self) {
        if self.tracer.is_enabled() {
            return;
        }
        self.tracer = SpanRecorder::with_trace(TraceContext::mint());
    }

    /// Builder form of [`SweepClient::enable_tracing`].
    pub fn with_tracing(mut self) -> Self {
        self.enable_tracing();
        self
    }

    /// The client-side span recorder (disabled unless
    /// [`SweepClient::enable_tracing`] was called).
    pub fn tracer(&self) -> &SpanRecorder {
        &self.tracer
    }

    /// Bound how long [`SweepClient::wait`] blocks on a silent server.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> Result<(), ClientError> {
        self.reader.get_ref().set_read_timeout(dur)?;
        Ok(())
    }

    /// Write the frame `frame` builds for the next request id; returns
    /// that id.
    fn send(&mut self, frame: impl FnOnce(u64) -> ClientFrame) -> Result<u64, ClientError> {
        self.next_id += 1;
        let id = self.next_id;
        self.writer.write_all(frame(id).to_line().as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        Ok(id)
    }

    fn read_frame(&mut self) -> Result<ServerFrame, ClientError> {
        read_frame_capped(&mut self.reader, &mut self.line, MAX_SERVER_FRAME_BYTES)
    }

    /// Submit one unit; does not wait for the result.
    pub fn submit(&mut self, spec: &WorkSpec, trials: u64) -> Result<Submission, ClientError> {
        let (trace, guard) = if self.tracer.is_enabled() {
            let guard =
                self.tracer.span("client", format!("submit:{}/{}", spec.experiment, spec.point));
            let ctx = self.tracer.trace().map(|c| c.with_parent(guard.id()));
            (ctx, Some(guard))
        } else {
            (None, None)
        };
        let id = self.send(|id| ClientFrame::Submit { id, spec: spec.clone(), trials, trace })?;
        loop {
            match self.read_frame()? {
                ServerFrame::Accepted { id: got, key, dedup, queue_depth, .. } if got == id => {
                    if let Some(guard) = guard {
                        self.inflight_spans.insert(id, guard);
                    }
                    return Ok(Submission { req_id: id, key, dedup, queue_depth });
                }
                ServerFrame::Rejected { id: got, reason, retry_after_ms } if got == id => {
                    return Err(ClientError::Rejected { reason, retry_after_ms });
                }
                ServerFrame::Error { id: got, reason } if got == id => {
                    return Err(if reason.starts_with("unsupported work") {
                        ClientError::Unsupported(reason)
                    } else {
                        ClientError::Protocol(reason)
                    });
                }
                // Frames for other in-flight requests on this connection
                // (progress of an earlier submission) are fine to skip
                // here; `wait` is the consumer that cares.
                _ => continue,
            }
        }
    }

    /// Block until `submission` reaches a terminal frame, feeding
    /// progress updates to `on_progress`.
    pub fn wait(
        &mut self,
        submission: &Submission,
        mut on_progress: impl FnMut(&ProgressUpdate),
    ) -> Result<SweepOutcome, ClientError> {
        loop {
            match self.read_frame()? {
                ServerFrame::Progress {
                    id,
                    done_trials,
                    total_trials,
                    trials_per_sec,
                    eta_secs,
                    ..
                } if id == submission.req_id => {
                    on_progress(&ProgressUpdate {
                        done_trials,
                        total_trials,
                        trials_per_sec,
                        eta_secs,
                    });
                }
                ServerFrame::Result {
                    id,
                    key,
                    executed_trials,
                    cached_trials,
                    wall_secs,
                    results,
                    spans,
                    ..
                } if id == submission.req_id => {
                    if let Some(spans) = spans {
                        self.splice_server_spans(&spans);
                    }
                    self.inflight_spans.remove(&id);
                    return Ok(SweepOutcome {
                        key,
                        executed_trials,
                        cached_trials,
                        wall_secs,
                        // The frame holds the only handle, so this moves
                        // the text out; it clones only if shared.
                        results: Box::new(Arc::unwrap_or_clone(results)),
                    });
                }
                ServerFrame::Cancelled { id, completed_trials, .. } if id == submission.req_id => {
                    self.inflight_spans.remove(&id);
                    return Err(ClientError::Cancelled { completed_trials });
                }
                ServerFrame::Failed { id, reason, .. } if id == submission.req_id => {
                    self.inflight_spans.remove(&id);
                    return Err(ClientError::Failed(reason));
                }
                _ => continue,
            }
        }
    }

    /// Splice server-side span events into the client tracer, rebased so
    /// the server block *ends* now — i.e. it nests inside the client's
    /// still-open submit span instead of trailing past it (server and
    /// client clocks share no epoch; the result frame's arrival is the
    /// one instant both sides witness). The span text becomes a tree only
    /// here, with tracing on.
    fn splice_server_spans(&mut self, spans: &RawValue) {
        if !self.tracer.is_enabled() {
            return;
        }
        let Ok(events) = serde_json::from_str::<Value>(spans.get()) else { return };
        let width = events
            .as_seq()
            .map(|seq| {
                let ts = |e: &Value| e.get("ts").and_then(Value::as_u64);
                let end =
                    |e: &Value| Some(ts(e)? + e.get("dur").and_then(Value::as_u64).unwrap_or(0));
                let min = seq.iter().filter_map(ts).min().unwrap_or(0);
                let max = seq.iter().filter_map(end).max().unwrap_or(min);
                max - min
            })
            .unwrap_or(0);
        let at = self.tracer.now_us().saturating_sub(width);
        self.tracer.import_events(&events, at);
    }

    /// Submit with bounded backpressure retries, then wait.
    pub fn submit_and_wait(
        &mut self,
        spec: &WorkSpec,
        trials: u64,
        max_retries: u32,
        on_progress: impl FnMut(&ProgressUpdate),
    ) -> Result<SweepOutcome, ClientError> {
        let mut attempt = 0u32;
        let submission = loop {
            match self.submit(spec, trials) {
                Ok(s) => break s,
                Err(ClientError::Rejected { reason, retry_after_ms }) => {
                    if attempt >= max_retries {
                        return Err(ClientError::Rejected { reason, retry_after_ms });
                    }
                    attempt += 1;
                    std::thread::sleep(Duration::from_millis(retry_after_ms.clamp(10, 2_000)));
                }
                Err(e) => return Err(e),
            }
        };
        self.wait(&submission, on_progress)
    }

    /// The full round trip: submit (with retries), wait, deserialize.
    pub fn run_reports(
        &mut self,
        spec: &WorkSpec,
        trials: u64,
    ) -> Result<Vec<RunReport>, ClientError> {
        self.submit_and_wait(spec, trials, 32, |_| {})?.reports()
    }

    /// Withdraw interest in an in-flight key.
    pub fn cancel(&mut self, key: &str) -> Result<(), ClientError> {
        let id = self.send(|id| ClientFrame::Cancel { id, key: key.to_string() })?;
        loop {
            match self.read_frame()? {
                ServerFrame::Cancelled { id: got, .. } if got == id => return Ok(()),
                ServerFrame::Error { id: got, reason } if got == id => {
                    return Err(ClientError::Protocol(reason));
                }
                _ => continue,
            }
        }
    }

    /// One-shot job state by key.
    pub fn status(&mut self, key: &str) -> Result<ServerFrame, ClientError> {
        let id = self.send(|id| ClientFrame::Status { id, key: key.to_string() })?;
        loop {
            match self.read_frame()? {
                f @ ServerFrame::Status { .. } if f.id() == id => return Ok(f),
                ServerFrame::Error { id: got, reason } if got == id => {
                    return Err(ClientError::Protocol(reason));
                }
                _ => continue,
            }
        }
    }

    /// Fetch `(server, this-connection)` metric snapshots
    /// (`jle-metrics-v1` JSON values).
    pub fn metrics(&mut self) -> Result<(Value, Value), ClientError> {
        let id = self.send(|id| ClientFrame::Metrics { id })?;
        loop {
            match self.read_frame()? {
                ServerFrame::Metrics { id: got, server, client } if got == id => {
                    return Ok((server, client));
                }
                _ => continue,
            }
        }
    }

    /// Ask the server to drain and exit.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        let id = self.send(|id| ClientFrame::Shutdown { id })?;
        loop {
            match self.read_frame() {
                Ok(ServerFrame::ShuttingDown { id: got }) if got == id => return Ok(()),
                Ok(_) => continue,
                // The server may close the socket right after acking.
                Err(ClientError::Io(_)) | Err(ClientError::Protocol(_)) => return Ok(()),
                Err(e) => return Err(e),
            }
        }
    }
}

/// Read the next non-blank line from `reader` into `buf` (at most `cap`
/// bytes, see [`read_line`]) and parse it as a server frame.
fn read_frame_capped(
    reader: &mut impl BufRead,
    buf: &mut Vec<u8>,
    cap: usize,
) -> Result<ServerFrame, ClientError> {
    loop {
        match read_line(reader, buf, cap)? {
            LineRead::Line => {}
            LineRead::TooLong => {
                return Err(ClientError::Protocol(format!("server frame exceeds {cap} bytes")))
            }
            LineRead::Closed => {
                return Err(ClientError::Protocol("server closed the connection".to_string()))
            }
        }
        let line = std::str::from_utf8(buf)
            .map_err(|e| ClientError::Protocol(format!("server frame is not UTF-8: {e}")))?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        return ServerFrame::parse(trimmed)
            .map_err(|e| ClientError::Protocol(format!("bad server frame: {e}")));
    }
}

/// Lookup a counter value in a `jle-metrics-v1` snapshot JSON value.
pub fn snapshot_counter(snapshot: &Value, name: &str) -> Option<u64> {
    let metrics = snapshot.get("metrics")?.as_seq()?;
    metrics
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_all(input: &str, cap: usize) -> Vec<Result<ServerFrame, String>> {
        let mut reader = input.as_bytes();
        let mut buf = Vec::new();
        let mut out = Vec::new();
        loop {
            match read_frame_capped(&mut reader, &mut buf, cap) {
                Err(ClientError::Protocol(e)) if e == "server closed the connection" => break,
                Err(ClientError::Protocol(e)) if e.contains("exceeds") => {
                    out.push(Err(e));
                    break;
                }
                got => out.push(got.map_err(|e| e.to_string())),
            }
        }
        out
    }

    #[test]
    fn server_lines_are_capped() {
        let hello = ServerFrame::ShuttingDown { id: 3 }.to_line();
        let input = format!("\n{hello}\n  \n{hello}");
        // At the cap, with or without the newline, a line reads; blank
        // lines are skipped.
        let got = read_all(&input, hello.len());
        assert_eq!(got.len(), 2, "{got:?}");
        assert!(got.iter().all(|f| matches!(f, Ok(ServerFrame::ShuttingDown { id: 3 }))));
        // One byte over, it is an error naming the cap, and nothing past
        // the cap is read into the buffer.
        let got = read_all(&input, hello.len() - 1);
        let want = format!("server frame exceeds {} bytes", hello.len() - 1);
        assert_eq!(got, vec![Err(want)]);
        let long = format!("{}\n", "x".repeat(1000));
        let mut buf = Vec::new();
        let err = read_frame_capped(&mut long.as_bytes(), &mut buf, 8).unwrap_err();
        assert!(matches!(err, ClientError::Protocol(ref e) if e.contains("exceeds 8")), "{err}");
        assert_eq!(buf.len(), 9);
    }

    #[test]
    fn bad_lines_are_protocol_errors() {
        let got = read_all("{\"v\":1}\n", MAX_SERVER_FRAME_BYTES);
        assert_eq!(
            got,
            vec![Err("protocol: bad server frame: frame: missing u64 field `id`".into())]
        );
        let mut buf = Vec::new();
        let err = read_frame_capped(&mut &b"\xff\n"[..], &mut buf, 64).unwrap_err();
        assert!(matches!(err, ClientError::Protocol(ref e) if e.contains("UTF-8")), "{err}");
    }
}
