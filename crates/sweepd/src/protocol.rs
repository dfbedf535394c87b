//! The versioned JSONL wire protocol between sweep clients and the
//! service.
//!
//! One frame per line, UTF-8 JSON, newline-terminated. Every frame
//! carries `"v": 1` (the [`PROTOCOL_VERSION`] schema number) and an
//! `"op"` discriminator; client frames carry a client-chosen request id
//! `"id"` that the server echoes in every frame belonging to that
//! request, so a client can multiplex submissions over one connection.
//!
//! Design notes:
//!
//! * **Dedup is visible, not silent**: `accepted.dedup` tells a client
//!   its submission attached to an already-in-flight computation.
//! * **Backpressure is a first-class answer**: a full queue or an
//!   exhausted per-client share yields `rejected` with a non-zero
//!   `retry_after_ms` hint — never a dropped connection.
//! * **Results carry the payload**: `result.results` is the full JSON
//!   array of per-trial reports. The worker writes it to text once per job
//!   ([`serde_json::value::to_raw_value`]) and every subscriber's line
//!   carries that text verbatim, so all subscribers of a deduped
//!   computation receive byte-identical payloads. The client keeps it as
//!   the raw text it received ([`RawValue`]) and decodes it into reports
//!   once.
//! * **One codec per direction**: `to_line` writes each field straight
//!   from its typed value, and both `parse` functions decode a line
//!   through one derived wire struct. No frame goes through a value tree.

use jle_orchestrator::WorkSpec;
use jle_telemetry::TraceContext;
use serde::ser::write_string;
use serde::{Deserialize, Serialize, Value};
use serde_json::value::RawValue;
use std::io::{BufRead, Read};
use std::sync::Arc;

/// Protocol name + schema version, announced in the `hello` frame.
pub const PROTOCOL_VERSION: &str = "jle-sweepd-v1";

/// Numeric schema version stamped into every frame as `"v"`.
pub const SCHEMA: u64 = 1;

/// The longest line a client reads from the server; a longer one is a
/// protocol error, so a broken or hostile server cannot make a client
/// buffer without bound. A `result` line is dominated by its payload, at
/// about 400 bytes per cohort report, and the largest unit meant to go
/// through the service is 2^17 = 131,072 trials: about 52 MB. The cap
/// rounds that up to 64 MiB.
pub const MAX_SERVER_FRAME_BYTES: usize = 64 << 20;

/// The most trials one `submit` may ask for: 2^20 = 1,048,576, eight
/// times the largest unit meant to go through the service. A unit's
/// chunk list is laid out at admission, so an unbounded count would let
/// one frame make the daemon allocate without bound.
pub const MAX_TRIALS: u64 = 1 << 20;

/// Frames a client sends to the server.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientFrame {
    /// Handshake: the client's first frame; the server answers `hello`.
    Hello { id: u64 },
    /// Submit a unit of work: `trials` trials of `spec`. Subscribes the
    /// connection to the job's progress and result. `trace` is an
    /// optional client-minted [`TraceContext`] — when present, the server
    /// records per-stage spans under it and returns them on the `result`
    /// frame. Absent on old clients; ignored by old servers.
    Submit { id: u64, spec: WorkSpec, trials: u64, trace: Option<TraceContext> },
    /// Attach to an in-flight job by fingerprint key without submitting.
    Subscribe { id: u64, key: String },
    /// One-shot state query for an in-flight job.
    Status { id: u64, key: String },
    /// Withdraw this connection's interest in a job; the computation is
    /// cancelled only when no other subscriber remains.
    Cancel { id: u64, key: String },
    /// Request server + per-connection metric snapshots.
    Metrics { id: u64 },
    /// Ask the server to drain and exit.
    Shutdown { id: u64 },
}

/// Frames the server sends to a client.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerFrame {
    /// Handshake answer: protocol version and scheduling limits.
    Hello { id: u64, proto: String, workers: u64, max_queue: u64, client_share: u64 },
    /// The submission was admitted. `dedup` marks attachment to an
    /// already-in-flight identical computation; `queue_depth` is the
    /// queue length after admission.
    Accepted { id: u64, key: String, trials: u64, dedup: bool, queue_depth: u64 },
    /// The submission was refused (bounded queue full, or the client's
    /// fair share is exhausted). Retry after `retry_after_ms`.
    Rejected { id: u64, reason: String, retry_after_ms: u64 },
    /// Throttled progress for a running job this connection subscribes
    /// to.
    Progress {
        id: u64,
        key: String,
        done_trials: u64,
        total_trials: u64,
        slots: u64,
        trials_per_sec: f64,
        eta_secs: f64,
    },
    /// Terminal: the job finished. `results` is the JSON array of
    /// per-trial reports in trial order, as raw text. `spans` carries the
    /// server-side span events of the job (admission → queue → execute →
    /// deliver → per-run engine spans) when the submission carried a trace
    /// context, in [`jle_telemetry::SpanRecorder::export_events`] form.
    Result {
        id: u64,
        key: String,
        trials: u64,
        executed_trials: u64,
        cached_trials: u64,
        wall_secs: f64,
        results: Arc<RawValue>,
        spans: Option<Arc<RawValue>>,
    },
    /// Terminal: the job was cancelled before completion.
    Cancelled { id: u64, key: String, completed_trials: u64 },
    /// Terminal: the job failed (unsupported work kind, worker panic).
    Failed { id: u64, key: String, reason: String },
    /// Answer to `status`.
    Status {
        id: u64,
        key: String,
        state: String,
        done_trials: u64,
        total_trials: u64,
        subscribers: u64,
    },
    /// Answer to `metrics`: the shared server registry and this
    /// connection's private registry, both as `jle-metrics-v1`
    /// snapshots.
    Metrics { id: u64, server: Value, client: Value },
    /// Answer to `shutdown`.
    ShuttingDown { id: u64 },
    /// Protocol-level error (unparsable frame, unknown op, bad spec).
    Error { id: u64, reason: String },
}

/// A frame's line as it is written: `{"v":1,"op":…,"id":…`, one
/// `,"key":value` per field written straight from its typed value, `}`.
struct Line(String);

/// A [`Line`] with one field per named binding, keyed by the binding's
/// name: every wire key is the frame field's own name.
macro_rules! line {
    ($op:literal, $id:expr $(, $field:ident)*) => {
        Line::open($op, *$id, 0)$(.field(stringify!($field), $field))*
    };
}

impl Line {
    /// The header of an `op` frame, with room for `payload` more bytes on
    /// top of any frame's fixed fields.
    fn open(op: &str, id: u64, payload: usize) -> Line {
        // Room for the longest fixed fields (`result`'s, about 220 bytes),
        // the closing brace and the newline the server pushes.
        let mut out = String::with_capacity(256 + payload);
        out.push_str("{\"v\":");
        SCHEMA.write_json(&mut out);
        out.push_str(",\"op\":");
        write_string(op, &mut out);
        out.push_str(",\"id\":");
        id.write_json(&mut out);
        Line(out)
    }

    fn field<T: Serialize + ?Sized>(mut self, key: &str, value: &T) -> Line {
        self.0.push(',');
        write_string(key, &mut self.0);
        self.0.push(':');
        value.write_json(&mut self.0);
        self
    }

    /// A field that stays off the wire when absent.
    fn opt<T: Serialize + ?Sized>(self, key: &str, value: Option<&T>) -> Line {
        match value {
            Some(value) => self.field(key, value),
            None => self,
        }
    }

    fn close(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

impl ClientFrame {
    /// Serialize to one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            ClientFrame::Hello { id } => line!("hello", id),
            ClientFrame::Submit { id, spec, trials, trace } => {
                line!("submit", id, spec, trials).opt("trace", trace.as_ref())
            }
            ClientFrame::Subscribe { id, key } => line!("subscribe", id, key),
            ClientFrame::Status { id, key } => line!("status", id, key),
            ClientFrame::Cancel { id, key } => line!("cancel", id, key),
            ClientFrame::Metrics { id } => line!("metrics", id),
            ClientFrame::Shutdown { id } => line!("shutdown", id),
        }
        .close()
    }

    /// Parse one wire line.
    pub fn parse(line: &str) -> Result<Self, serde::Error> {
        serde_json::from_str::<WireFrame>(line)?.into_client_frame()
    }
}

impl ServerFrame {
    /// The request id this frame echoes.
    pub fn id(&self) -> u64 {
        match *self {
            ServerFrame::Hello { id, .. }
            | ServerFrame::Accepted { id, .. }
            | ServerFrame::Rejected { id, .. }
            | ServerFrame::Progress { id, .. }
            | ServerFrame::Result { id, .. }
            | ServerFrame::Cancelled { id, .. }
            | ServerFrame::Failed { id, .. }
            | ServerFrame::Status { id, .. }
            | ServerFrame::Metrics { id, .. }
            | ServerFrame::ShuttingDown { id }
            | ServerFrame::Error { id, .. } => id,
        }
    }

    /// Serialize to one wire line (no trailing newline). A `result`
    /// payload is written as the raw text it holds.
    pub fn to_line(&self) -> String {
        match self {
            ServerFrame::Hello { id, proto, workers, max_queue, client_share } => {
                line!("hello", id, proto, workers, max_queue, client_share)
            }
            ServerFrame::Accepted { id, key, trials, dedup, queue_depth } => {
                line!("accepted", id, key, trials, dedup, queue_depth)
            }
            ServerFrame::Rejected { id, reason, retry_after_ms } => {
                line!("rejected", id, reason, retry_after_ms)
            }
            ServerFrame::Progress {
                id,
                key,
                done_trials,
                total_trials,
                slots,
                trials_per_sec,
                eta_secs,
            } => line!(
                "progress",
                id,
                key,
                done_trials,
                total_trials,
                slots,
                trials_per_sec,
                eta_secs
            ),
            ServerFrame::Result {
                id,
                key,
                trials,
                executed_trials,
                cached_trials,
                wall_secs,
                results,
                spans,
            } => {
                let (results, spans) = (&**results, spans.as_deref());
                let payload = key.len() + results.get().len() + spans.map_or(0, |s| s.get().len());
                Line::open("result", *id, payload)
                    .field("key", key)
                    .field("trials", trials)
                    .field("executed_trials", executed_trials)
                    .field("cached_trials", cached_trials)
                    .field("wall_secs", wall_secs)
                    .field("results", results)
                    .opt("spans", spans)
            }
            ServerFrame::Cancelled { id, key, completed_trials } => {
                line!("cancelled", id, key, completed_trials)
            }
            ServerFrame::Failed { id, key, reason } => line!("failed", id, key, reason),
            ServerFrame::Status { id, key, state, done_trials, total_trials, subscribers } => {
                line!("status", id, key, state, done_trials, total_trials, subscribers)
            }
            ServerFrame::Metrics { id, server, client } => line!("metrics", id, server, client),
            ServerFrame::ShuttingDown { id } => line!("shutting_down", id),
            ServerFrame::Error { id, reason } => line!("error", id, reason),
        }
        .close()
    }

    /// Parse one wire line. The header fields decode straight from the
    /// text and a `result` payload is kept as the raw text it arrived as.
    pub fn parse(line: &str) -> Result<Self, serde::Error> {
        serde_json::from_str::<WireFrame>(line)?.into_server_frame()
    }
}

/// Every field any frame carries, in either direction, each optional, and
/// the `result` payloads as raw text. Both `parse` functions decode a line
/// into it straight from the text; `into_client_frame` and
/// `into_server_frame` then check the fields the `op` needs. Like
/// [`Value::get`], the first of duplicate keys wins.
#[derive(Deserialize)]
struct WireFrame {
    #[serde(default)]
    v: Option<u64>,
    #[serde(default)]
    op: Option<String>,
    #[serde(default)]
    id: Option<u64>,
    #[serde(default)]
    spec: Option<WorkSpec>,
    #[serde(default)]
    trace: Option<TraceContext>,
    #[serde(default)]
    proto: Option<String>,
    #[serde(default)]
    workers: Option<u64>,
    #[serde(default)]
    max_queue: Option<u64>,
    #[serde(default)]
    client_share: Option<u64>,
    #[serde(default)]
    key: Option<String>,
    #[serde(default)]
    trials: Option<u64>,
    #[serde(default)]
    dedup: Option<bool>,
    #[serde(default)]
    queue_depth: Option<u64>,
    #[serde(default)]
    reason: Option<String>,
    #[serde(default)]
    retry_after_ms: Option<u64>,
    #[serde(default)]
    done_trials: Option<u64>,
    #[serde(default)]
    total_trials: Option<u64>,
    #[serde(default)]
    slots: Option<u64>,
    #[serde(default)]
    trials_per_sec: Option<f64>,
    #[serde(default)]
    eta_secs: Option<f64>,
    #[serde(default)]
    executed_trials: Option<u64>,
    #[serde(default)]
    cached_trials: Option<u64>,
    #[serde(default)]
    wall_secs: Option<f64>,
    #[serde(default)]
    results: Option<Box<RawValue>>,
    #[serde(default)]
    spans: Option<Box<RawValue>>,
    #[serde(default)]
    completed_trials: Option<u64>,
    #[serde(default)]
    state: Option<String>,
    #[serde(default)]
    subscribers: Option<u64>,
    #[serde(default)]
    server: Option<Value>,
    #[serde(default)]
    client: Option<Value>,
}

/// A required field, or `frame: missing {kind} field `{k}``.
fn need<T>(x: Option<T>, kind: &str, k: &str) -> Result<T, serde::Error> {
    x.ok_or_else(|| serde::Error::custom(format!("frame: missing {kind} field `{k}`")))
}

/// A required field, or the error `msg`.
fn need_or<T>(x: Option<T>, msg: &str) -> Result<T, serde::Error> {
    x.ok_or_else(|| serde::Error::custom(msg))
}

impl WireFrame {
    /// The schema check every frame passes first, then its request id and
    /// its `op`.
    fn header(&mut self) -> Result<(u64, String), serde::Error> {
        let v = need(self.v, "u64", "v")?;
        if v != SCHEMA {
            return Err(serde::Error::custom(format!("frame: unsupported schema v{v}")));
        }
        let id = need(self.id, "u64", "id")?;
        Ok((id, need(self.op.take(), "string", "op")?))
    }

    fn into_client_frame(mut self) -> Result<ClientFrame, serde::Error> {
        let (id, op) = self.header()?;
        let key = |x: Option<String>| need(x, "string", "key");
        match op.as_str() {
            "hello" => Ok(ClientFrame::Hello { id }),
            "submit" => {
                let spec = need_or(self.spec, "submit: missing `spec`")?;
                let trials = need(self.trials, "u64", "trials")?;
                if trials == 0 {
                    return Err(serde::Error::custom("submit: `trials` must be ≥ 1"));
                }
                if trials > MAX_TRIALS {
                    return Err(serde::Error::custom(format!(
                        "submit: `trials` must be ≤ {MAX_TRIALS} (got {trials})"
                    )));
                }
                Ok(ClientFrame::Submit { id, spec, trials, trace: self.trace })
            }
            "subscribe" => Ok(ClientFrame::Subscribe { id, key: key(self.key)? }),
            "status" => Ok(ClientFrame::Status { id, key: key(self.key)? }),
            "cancel" => Ok(ClientFrame::Cancel { id, key: key(self.key)? }),
            "metrics" => Ok(ClientFrame::Metrics { id }),
            "shutdown" => Ok(ClientFrame::Shutdown { id }),
            other => Err(serde::Error::custom(format!("unknown client op `{other}`"))),
        }
    }

    fn into_server_frame(mut self) -> Result<ServerFrame, serde::Error> {
        let (id, op) = self.header()?;
        let u = |x: Option<u64>, k: &str| need(x, "u64", k);
        let f = |x: Option<f64>, k: &str| need(x, "f64", k);
        let s = |x: Option<String>, k: &str| need(x, "string", k);
        match op.as_str() {
            "hello" => Ok(ServerFrame::Hello {
                id,
                proto: s(self.proto, "proto")?,
                workers: u(self.workers, "workers")?,
                max_queue: u(self.max_queue, "max_queue")?,
                client_share: u(self.client_share, "client_share")?,
            }),
            "accepted" => Ok(ServerFrame::Accepted {
                id,
                key: s(self.key, "key")?,
                trials: u(self.trials, "trials")?,
                dedup: need_or(self.dedup, "accepted: missing bool `dedup`")?,
                queue_depth: u(self.queue_depth, "queue_depth")?,
            }),
            "rejected" => Ok(ServerFrame::Rejected {
                id,
                reason: s(self.reason, "reason")?,
                retry_after_ms: u(self.retry_after_ms, "retry_after_ms")?,
            }),
            "progress" => Ok(ServerFrame::Progress {
                id,
                key: s(self.key, "key")?,
                done_trials: u(self.done_trials, "done_trials")?,
                total_trials: u(self.total_trials, "total_trials")?,
                slots: u(self.slots, "slots")?,
                trials_per_sec: f(self.trials_per_sec, "trials_per_sec")?,
                eta_secs: f(self.eta_secs, "eta_secs")?,
            }),
            "result" => Ok(ServerFrame::Result {
                id,
                key: s(self.key, "key")?,
                trials: u(self.trials, "trials")?,
                executed_trials: u(self.executed_trials, "executed_trials")?,
                cached_trials: u(self.cached_trials, "cached_trials")?,
                wall_secs: f(self.wall_secs, "wall_secs")?,
                results: need_or(self.results, "result: missing `results`")?.into(),
                spans: self.spans.map(Arc::from),
            }),
            "cancelled" => Ok(ServerFrame::Cancelled {
                id,
                key: s(self.key, "key")?,
                completed_trials: u(self.completed_trials, "completed_trials")?,
            }),
            "failed" => Ok(ServerFrame::Failed {
                id,
                key: s(self.key, "key")?,
                reason: s(self.reason, "reason")?,
            }),
            "status" => Ok(ServerFrame::Status {
                id,
                key: s(self.key, "key")?,
                state: s(self.state, "state")?,
                done_trials: u(self.done_trials, "done_trials")?,
                total_trials: u(self.total_trials, "total_trials")?,
                subscribers: u(self.subscribers, "subscribers")?,
            }),
            "metrics" => Ok(ServerFrame::Metrics {
                id,
                server: need_or(self.server, "metrics: missing `server`")?,
                client: need_or(self.client, "metrics: missing `client`")?,
            }),
            "shutting_down" => Ok(ServerFrame::ShuttingDown { id }),
            "error" => Ok(ServerFrame::Error { id, reason: s(self.reason, "reason")? }),
            other => Err(serde::Error::custom(format!("unknown server op `{other}`"))),
        }
    }
}

/// What [`read_line`] found.
pub(crate) enum LineRead {
    Line,
    TooLong,
    Closed,
}

/// Read the next line from `reader` into `buf`, newline included. Both ends
/// read frames through it, each with its own cap: a line longer than `cap`
/// bytes is read no further than one byte past it, so a broken or hostile
/// peer cannot make the reader buffer without bound.
pub(crate) fn read_line(
    reader: &mut impl BufRead,
    buf: &mut Vec<u8>,
    cap: usize,
) -> std::io::Result<LineRead> {
    buf.clear();
    // One byte past the cap tells an over-long line from one that ends
    // exactly at it.
    Ok(match (&mut *reader).take(cap as u64 + 1).read_until(b'\n', buf)? {
        0 => LineRead::Closed,
        _ if buf.len() > cap && buf.last() != Some(&b'\n') => LineRead::TooLong,
        _ => LineRead::Line,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    /// A payload as the server sends it: the tree written to raw text.
    fn raw(v: Value) -> Arc<RawValue> {
        Arc::from(serde_json::value::to_raw_value(&v).unwrap())
    }

    fn spec() -> WorkSpec {
        WorkSpec::new("e15", "lesk/n=64", json!({"n": 64u64, "eps": 0.5f64}), 42)
    }

    /// Every client frame shape next to the line it is written as. The
    /// lines are pinned: changing one changes the wire.
    fn client_lines() -> Vec<(ClientFrame, &'static str)> {
        let trace = TraceContext { trace_id: 0xdead_beef, parent_span: 3 };
        vec![
            (ClientFrame::Hello { id: 1 }, r#"{"v":1,"op":"hello","id":1}"#),
            (
                ClientFrame::Submit { id: 2, spec: spec(), trials: 8, trace: None },
                r#"{"v":1,"op":"submit","id":2,"spec":{"base_seed":42,"experiment":"e15","params":{"n":64,"eps":0.5},"point":"lesk/n=64"},"trials":8}"#,
            ),
            (
                ClientFrame::Submit { id: 8, spec: spec(), trials: 8, trace: Some(trace) },
                r#"{"v":1,"op":"submit","id":8,"spec":{"base_seed":42,"experiment":"e15","params":{"n":64,"eps":0.5},"point":"lesk/n=64"},"trials":8,"trace":{"trace_id":"00000000deadbeef","parent_span":3}}"#,
            ),
            (
                ClientFrame::Subscribe { id: 3, key: "ab".repeat(32) },
                r#"{"v":1,"op":"subscribe","id":3,"key":"abababababababababababababababababababababababababababababababab"}"#,
            ),
            (
                ClientFrame::Status { id: 4, key: "cd".repeat(32) },
                r#"{"v":1,"op":"status","id":4,"key":"cdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcd"}"#,
            ),
            (
                ClientFrame::Cancel { id: 5, key: "quote\"back\\slash\nctl\u{1}é".into() },
                r#"{"v":1,"op":"cancel","id":5,"key":"quote\"back\\slash\nctl\u0001é"}"#,
            ),
            (ClientFrame::Metrics { id: 6 }, r#"{"v":1,"op":"metrics","id":6}"#),
            (
                ClientFrame::Shutdown { id: u64::MAX },
                r#"{"v":1,"op":"shutdown","id":18446744073709551615}"#,
            ),
        ]
    }

    /// Every server frame shape next to the line it is written as, pinned
    /// like [`client_lines`].
    fn server_lines() -> Vec<(ServerFrame, &'static str)> {
        let results = || raw(json!([json!({"slots": 10u64}), json!({"slots": 12u64})]));
        let nested = json!([
            json!({"slots": 10u64, "energy": {"max": 3u64, "per": [1u64, 2u64]}, "leader": null}),
            json!({"slots": 12u64, "energy": {"max": 0u64, "per": []}, "note": "a\"b\n"}),
        ]);
        let spans = || raw(json!([json!({"name": "execute", "ts": 5u64, "dur": 7u64})]));
        let result = |id, key: &str, wall_secs, results, spans| ServerFrame::Result {
            id,
            key: key.into(),
            trials: 3,
            executed_trials: 1,
            cached_trials: 2,
            wall_secs,
            results,
            spans,
        };
        let progress = |done_trials, trials_per_sec, eta_secs| ServerFrame::Progress {
            id: 3,
            key: "k".into(),
            done_trials,
            total_trials: 64,
            slots: 12345,
            trials_per_sec,
            eta_secs,
        };
        vec![
            (
                ServerFrame::Hello {
                    id: 0,
                    proto: PROTOCOL_VERSION.into(),
                    workers: 4,
                    max_queue: 64,
                    client_share: 8,
                },
                r#"{"v":1,"op":"hello","id":0,"proto":"jle-sweepd-v1","workers":4,"max_queue":64,"client_share":8}"#,
            ),
            (
                ServerFrame::Accepted {
                    id: 1,
                    key: "k".into(),
                    trials: 8,
                    dedup: true,
                    queue_depth: 2,
                },
                r#"{"v":1,"op":"accepted","id":1,"key":"k","trials":8,"dedup":true,"queue_depth":2}"#,
            ),
            (
                ServerFrame::Rejected { id: 2, reason: "queue full".into(), retry_after_ms: 250 },
                r#"{"v":1,"op":"rejected","id":2,"reason":"queue full","retry_after_ms":250}"#,
            ),
            (
                progress(16, 100.5, 0.5),
                r#"{"v":1,"op":"progress","id":3,"key":"k","done_trials":16,"total_trials":64,"slots":12345,"trials_per_sec":100.5,"eta_secs":0.5}"#,
            ),
            (
                progress(64, 1e21, -0.0),
                r#"{"v":1,"op":"progress","id":3,"key":"k","done_trials":64,"total_trials":64,"slots":12345,"trials_per_sec":1000000000000000000000,"eta_secs":-0}"#,
            ),
            (
                result(4, "k", 0.25, results(), None),
                r#"{"v":1,"op":"result","id":4,"key":"k","trials":3,"executed_trials":1,"cached_trials":2,"wall_secs":0.25,"results":[{"slots":10},{"slots":12}]}"#,
            ),
            (
                result(11, "k", 0.25, results(), Some(spans())),
                r#"{"v":1,"op":"result","id":11,"key":"k","trials":3,"executed_trials":1,"cached_trials":2,"wall_secs":0.25,"results":[{"slots":10},{"slots":12}],"spans":[{"name":"execute","ts":5,"dur":7}]}"#,
            ),
            (
                result(12, "quote\"back\\slash\nctl\u{1}é", 1.0, raw(json!([])), None),
                r#"{"v":1,"op":"result","id":12,"key":"quote\"back\\slash\nctl\u0001é","trials":3,"executed_trials":1,"cached_trials":2,"wall_secs":1,"results":[]}"#,
            ),
            (
                result(13, "k", 0.1 + 0.2, raw(json!([])), Some(raw(json!([])))),
                r#"{"v":1,"op":"result","id":13,"key":"k","trials":3,"executed_trials":1,"cached_trials":2,"wall_secs":0.30000000000000004,"results":[],"spans":[]}"#,
            ),
            (
                result(14, "k", 1e-7, raw(nested.clone()), None),
                r#"{"v":1,"op":"result","id":14,"key":"k","trials":3,"executed_trials":1,"cached_trials":2,"wall_secs":0.0000001,"results":[{"slots":10,"energy":{"max":3,"per":[1,2]},"leader":null},{"slots":12,"energy":{"max":0,"per":[]},"note":"a\"b\n"}]}"#,
            ),
            (
                result(u64::MAX, "k", 12345.678, raw(nested), Some(spans())),
                r#"{"v":1,"op":"result","id":18446744073709551615,"key":"k","trials":3,"executed_trials":1,"cached_trials":2,"wall_secs":12345.678,"results":[{"slots":10,"energy":{"max":3,"per":[1,2]},"leader":null},{"slots":12,"energy":{"max":0,"per":[]},"note":"a\"b\n"}],"spans":[{"name":"execute","ts":5,"dur":7}]}"#,
            ),
            (
                ServerFrame::Cancelled { id: 5, key: "k".into(), completed_trials: 32 },
                r#"{"v":1,"op":"cancelled","id":5,"key":"k","completed_trials":32}"#,
            ),
            (
                ServerFrame::Failed { id: 6, key: "k".into(), reason: "unsupported".into() },
                r#"{"v":1,"op":"failed","id":6,"key":"k","reason":"unsupported"}"#,
            ),
            (
                ServerFrame::Status {
                    id: 7,
                    key: "k".into(),
                    state: "running".into(),
                    done_trials: 1,
                    total_trials: 8,
                    subscribers: 3,
                },
                r#"{"v":1,"op":"status","id":7,"key":"k","state":"running","done_trials":1,"total_trials":8,"subscribers":3}"#,
            ),
            (
                ServerFrame::Metrics {
                    id: 8,
                    server: json!({"schema": 1u64, "metrics": [json!({"name": "q", "value": 2.5f64})]}),
                    client: json!({}),
                },
                r#"{"v":1,"op":"metrics","id":8,"server":{"schema":1,"metrics":[{"name":"q","value":2.5}]},"client":{}}"#,
            ),
            (ServerFrame::ShuttingDown { id: 9 }, r#"{"v":1,"op":"shutting_down","id":9}"#),
            (
                ServerFrame::Error { id: 10, reason: "bad frame".into() },
                r#"{"v":1,"op":"error","id":10,"reason":"bad frame"}"#,
            ),
        ]
    }

    #[test]
    fn client_frames_round_trip() {
        for (f, line) in client_lines() {
            assert_eq!(f.to_line(), line);
            assert_eq!(ClientFrame::parse(line).unwrap(), f, "{line}");
        }
    }

    #[test]
    fn server_frames_round_trip() {
        for (f, line) in server_lines() {
            assert_eq!(f.to_line(), line);
            let back = ServerFrame::parse(line).unwrap();
            assert_eq!(back, f, "{line}");
            assert_eq!(back.id(), f.id());
        }
    }

    /// A result frame as one `Value` tree, field by field in wire order,
    /// with its payloads parsed from their raw text; `None` for other ops.
    fn result_tree(f: &ServerFrame) -> Option<Value> {
        let ServerFrame::Result {
            id,
            key,
            trials,
            executed_trials,
            cached_trials,
            wall_secs,
            results,
            spans,
        } = f
        else {
            return None;
        };
        let payload = |r: &RawValue| serde_json::from_str::<Value>(r.get()).unwrap();
        let mut tree = json!({
            "v": 1u64,
            "op": "result",
            "id": *id,
            "key": key,
            "trials": *trials,
            "executed_trials": *executed_trials,
            "cached_trials": *cached_trials,
            "wall_secs": *wall_secs,
            "results": payload(results),
        });
        if let (Value::Map(m), Some(s)) = (&mut tree, spans) {
            m.push(("spans".into(), payload(s)));
        }
        Some(tree)
    }

    #[test]
    fn spliced_result_line_matches_the_generic_serializer() {
        // A result line has its payloads spliced in as raw text; the same
        // frame written as one tree by the generic writer gives the same bytes.
        let mut n = 0;
        for (f, line) in server_lines() {
            let Some(tree) = result_tree(&f) else { continue };
            let oracle = serde_json::to_string(&tree).unwrap();
            assert_eq!(f.to_line(), oracle);
            assert_eq!(oracle, line);
            assert_eq!(ServerFrame::parse(&oracle).unwrap(), f, "{oracle}");
            n += 1;
        }
        assert_eq!(n, 6);
    }

    #[test]
    fn result_parse_takes_null_spans_and_the_first_duplicate() {
        let line = r#"{"v":1,"op":"result","id":4,"key":"k","trials":1,"executed_trials":1,"cached_trials":0,"wall_secs":0.5,"results":[1],"spans":null}"#;
        let want = ServerFrame::Result {
            id: 4,
            key: "k".into(),
            trials: 1,
            executed_trials: 1,
            cached_trials: 0,
            wall_secs: 0.5,
            results: raw(json!([1u64])),
            spans: None,
        };
        assert_eq!(ServerFrame::parse(line).unwrap(), want);
        // Duplicate keys resolve as `Value::get` does: the first wins.
        let dup = line.replace(r#""results":[1]"#, r#""results":[1],"results":[2]"#);
        assert_eq!(ServerFrame::parse(&dup).unwrap(), want);
    }

    #[test]
    fn result_payloads_keep_their_exact_text() {
        // A payload is carried as the text it arrived as, whitespace and
        // number spellings included, and written back verbatim.
        let line = r#"{"v":1,"op":"result","id":4,"key":"k","trials":2,"executed_trials":0,"cached_trials":2,"wall_secs":0.5,"results":[ {"slots": 1.0e1},  {"slots":12} ],"spans":[]}"#;
        let f = ServerFrame::parse(line).unwrap();
        let ServerFrame::Result { results, spans, .. } = &f else { panic!("wrong op") };
        assert_eq!(results.get(), r#"[ {"slots": 1.0e1},  {"slots":12} ]"#);
        assert_eq!(spans.as_deref().map(RawValue::get), Some("[]"));
        assert_eq!(f.to_line(), line);
    }

    #[test]
    fn missing_header_fields_are_named() {
        let cases = [
            (r#"{"op":"hello","id":1}"#, "frame: missing u64 field `v`"),
            (r#"{"v":2,"op":"hello","id":1}"#, "frame: unsupported schema v2"),
            (r#"{"v":1,"op":"hello"}"#, "frame: missing u64 field `id`"),
            (r#"{"v":1,"id":1}"#, "frame: missing string field `op`"),
            (r#"{"v":1,"op":"nope","id":1}"#, "unknown server op `nope`"),
            (r#"{"v":1,"op":"result","id":1,"trials":1}"#, "frame: missing string field `key`"),
            (
                r#"{"v":1,"op":"result","id":1,"key":"k","trials":1,"executed_trials":1,"cached_trials":0,"wall_secs":0.5}"#,
                "result: missing `results`",
            ),
            (
                r#"{"v":1,"op":"progress","id":1,"key":"k","done_trials":1,"total_trials":2,"slots":3,"trials_per_sec":1.5}"#,
                "frame: missing f64 field `eta_secs`",
            ),
            (
                r#"{"v":1,"op":"accepted","id":1,"key":"k","trials":1,"queue_depth":0}"#,
                "accepted: missing bool `dedup`",
            ),
            (r#"{"v":1,"op":"metrics","id":1,"client":{}}"#, "metrics: missing `server`"),
        ];
        for (line, want) in cases {
            assert_eq!(ServerFrame::parse(line).unwrap_err().to_string(), want, "{line}");
        }
    }

    #[test]
    fn deeply_nested_result_payload_is_an_error_not_a_stack_overflow() {
        // 10,000 `[` in `results`: far past the parser's nesting cap, and
        // enough to overflow a 2 MiB stack without it.
        let line = format!(
            r#"{{"v":1,"op":"result","id":4,"key":"k","trials":1,"executed_trials":1,"cached_trials":0,"wall_secs":0.5,"results":{}}}"#,
            "[".repeat(10_000)
        );
        let err = ServerFrame::parse(&line).unwrap_err().to_string();
        assert!(err.starts_with("nesting deeper than 128 at byte"), "{err}");
        let closed = line.replace('}', &format!("{}}}", "]".repeat(10_000)));
        let err = ServerFrame::parse(&closed).unwrap_err().to_string();
        assert!(err.starts_with("nesting deeper than 128 at byte"), "{err}");
    }

    #[test]
    fn schema_violations_are_rejected() {
        let spec = r#""spec":{"base_seed":42,"experiment":"e15","params":{"n":64},"point":"p"}"#;
        let submit = |rest: &str| format!(r#"{{"v":1,"op":"submit","id":1,{spec}{rest}}}"#);
        let deep = "[".repeat(10_000);
        let cases = [
            (r#"{"op":"hello","id":1}"#.to_string(), "frame: missing u64 field `v`"),
            (r#"{"v":2,"op":"hello","id":1}"#.to_string(), "frame: unsupported schema v2"),
            (r#"{"v":1,"op":"hello"}"#.to_string(), "frame: missing u64 field `id`"),
            (r#"{"v":1,"id":1}"#.to_string(), "frame: missing string field `op`"),
            (r#"{"v":1,"op":"nope","id":1}"#.to_string(), "unknown client op `nope`"),
            (r#"{"v":1,"op":"submit","id":1,"trials":2}"#.to_string(), "submit: missing `spec`"),
            (submit(r#","trials":0"#), "submit: `trials` must be ≥ 1"),
            (submit(r#","trials":1048577"#), "submit: `trials` must be ≤ 1048576 (got 1048577)"),
            (
                submit(r#","trials":1152921504606846976"#),
                "submit: `trials` must be ≤ 1048576 (got 1152921504606846976)",
            ),
            (submit(""), "frame: missing u64 field `trials`"),
            (
                submit(r#","trials":2,"trace":{"trace_id":"xyz"}"#),
                "trace_id is not a hex u64: \"xyz\"",
            ),
            (
                r#"{"v":1,"op":"submit","id":1,"spec":{"base_seed":42,"params":{},"point":"p"},"trials":2}"#
                    .to_string(),
                "missing field `experiment` while deserializing WorkSpec",
            ),
            (r#"{"v":1,"op":"subscribe","id":1}"#.to_string(), "frame: missing string field `key`"),
            ("not json".to_string(), "unexpected character at byte 0"),
            (deep, "nesting deeper than 128 at byte 128"),
            // A header field of the wrong type is reported as the type
            // error it is.
            (r#"{"v":"1","op":"hello","id":1}"#.to_string(), "expected unsigned integer, found string"),
            (r#"{"v":1,"op":"hello","id":-1}"#.to_string(), "expected unsigned integer, found number"),
        ];
        for (line, want) in cases {
            assert_eq!(ClientFrame::parse(&line).unwrap_err().to_string(), want, "{line:.80}");
        }
        let most = submit(r#","trials":1048576"#);
        assert!(matches!(
            ClientFrame::parse(&most),
            Ok(ClientFrame::Submit { trials: MAX_TRIALS, .. })
        ));
        let traced = submit(r#","trials":2,"trace":null"#);
        assert!(matches!(ClientFrame::parse(&traced), Ok(ClientFrame::Submit { trace: None, .. })));
    }

    #[test]
    fn absent_trace_and_spans_stay_off_the_wire() {
        // Old-client compatibility: a traceless submit serializes without
        // the `trace` key at all, and a spanless result without `spans`.
        let f = ClientFrame::Submit { id: 2, spec: spec(), trials: 8, trace: None };
        assert!(!f.to_line().contains("trace"), "got {}", f.to_line());
        let f = ServerFrame::Result {
            id: 4,
            key: "k".into(),
            trials: 1,
            executed_trials: 1,
            cached_trials: 0,
            wall_secs: 0.1,
            results: raw(json!([])),
            spans: None,
        };
        assert!(!f.to_line().contains("spans"), "got {}", f.to_line());
    }

    #[test]
    fn submitted_spec_survives_the_wire_exactly() {
        // The fingerprint of the spec a client submits must equal the
        // fingerprint the server computes after parsing — otherwise
        // client and server would cache the same work under different
        // keys.
        use jle_orchestrator::{Fingerprint, DEFAULT_CODE_SALT};
        let f = ClientFrame::Submit { id: 1, spec: spec(), trials: 4, trace: None };
        let back = ClientFrame::parse(&f.to_line()).unwrap();
        let ClientFrame::Submit { spec: parsed, .. } = back else { panic!("wrong op") };
        let a = Fingerprint::of(&spec(), DEFAULT_CODE_SALT, "ty");
        let b = Fingerprint::of(&parsed, DEFAULT_CODE_SALT, "ty");
        assert_eq!(a, b);
    }
}
