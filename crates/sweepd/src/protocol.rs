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
//!   splices that text, so all subscribers of a deduped computation
//!   receive byte-identical payloads. The client keeps the payload as the
//!   raw text it received ([`RawValue`]) and decodes it into reports once:
//!   typed values are written to text once and decoded from text once,
//!   with no value tree on either side.

use jle_orchestrator::WorkSpec;
use jle_telemetry::TraceContext;
use serde::{Deserialize, Serialize, Value};
use serde_json::value::RawValue;
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

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn frame(op: &str, id: u64, mut rest: Vec<(&str, Value)>) -> Value {
    let mut entries =
        vec![("v", Value::U64(SCHEMA)), ("op", Value::Str(op.to_string())), ("id", Value::U64(id))];
    entries.append(&mut rest);
    map(entries)
}

fn get_u64(v: &Value, k: &str) -> Result<u64, serde::Error> {
    v.get(k)
        .and_then(Value::as_u64)
        .ok_or_else(|| serde::Error::custom(format!("frame: missing u64 field `{k}`")))
}

fn get_str(v: &Value, k: &str) -> Result<String, serde::Error> {
    v.get(k)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| serde::Error::custom(format!("frame: missing string field `{k}`")))
}

fn check_schema(v: &Value) -> Result<(), serde::Error> {
    match get_u64(v, "v")? {
        SCHEMA => Ok(()),
        other => Err(serde::Error::custom(format!("frame: unsupported schema v{other}"))),
    }
}

impl ClientFrame {
    /// The request id this frame carries.
    pub fn id(&self) -> u64 {
        match *self {
            ClientFrame::Hello { id }
            | ClientFrame::Submit { id, .. }
            | ClientFrame::Subscribe { id, .. }
            | ClientFrame::Status { id, .. }
            | ClientFrame::Cancel { id, .. }
            | ClientFrame::Metrics { id }
            | ClientFrame::Shutdown { id } => id,
        }
    }

    /// Serialize to one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).expect("frame serialization")
    }

    /// Parse one wire line.
    pub fn parse(line: &str) -> Result<Self, serde::Error> {
        serde_json::from_str(line)
    }
}

impl Serialize for ClientFrame {
    fn to_json_value(&self) -> Value {
        match self {
            ClientFrame::Hello { id } => frame("hello", *id, vec![]),
            ClientFrame::Submit { id, spec, trials, trace } => {
                let mut rest =
                    vec![("spec", spec.to_json_value()), ("trials", Value::U64(*trials))];
                if let Some(ctx) = trace {
                    rest.push(("trace", ctx.to_json_value()));
                }
                frame("submit", *id, rest)
            }
            ClientFrame::Subscribe { id, key } => {
                frame("subscribe", *id, vec![("key", Value::Str(key.clone()))])
            }
            ClientFrame::Status { id, key } => {
                frame("status", *id, vec![("key", Value::Str(key.clone()))])
            }
            ClientFrame::Cancel { id, key } => {
                frame("cancel", *id, vec![("key", Value::Str(key.clone()))])
            }
            ClientFrame::Metrics { id } => frame("metrics", *id, vec![]),
            ClientFrame::Shutdown { id } => frame("shutdown", *id, vec![]),
        }
    }
}

impl Deserialize for ClientFrame {
    fn from_json_value(v: &Value) -> Result<Self, serde::Error> {
        check_schema(v)?;
        let id = get_u64(v, "id")?;
        match get_str(v, "op")?.as_str() {
            "hello" => Ok(ClientFrame::Hello { id }),
            "submit" => {
                let spec_value =
                    v.get("spec").ok_or_else(|| serde::Error::custom("submit: missing `spec`"))?;
                let spec = WorkSpec::from_json_value(spec_value)?;
                let trials = get_u64(v, "trials")?;
                if trials == 0 {
                    return Err(serde::Error::custom("submit: `trials` must be ≥ 1"));
                }
                let trace = match v.get("trace") {
                    None | Some(Value::Null) => None,
                    Some(t) => Some(TraceContext::from_json_value(t)?),
                };
                Ok(ClientFrame::Submit { id, spec, trials, trace })
            }
            "subscribe" => Ok(ClientFrame::Subscribe { id, key: get_str(v, "key")? }),
            "status" => Ok(ClientFrame::Status { id, key: get_str(v, "key")? }),
            "cancel" => Ok(ClientFrame::Cancel { id, key: get_str(v, "key")? }),
            "metrics" => Ok(ClientFrame::Metrics { id }),
            "shutdown" => Ok(ClientFrame::Shutdown { id }),
            other => Err(serde::Error::custom(format!("unknown client op `{other}`"))),
        }
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
    /// frame writes its header and splices the payload text behind it;
    /// the bytes are the generic serializer's.
    pub fn to_line(&self) -> String {
        match self {
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
                const RESULTS: &str = ",\"results\":";
                const SPANS: &str = ",\"spans\":";
                let header = frame(
                    "result",
                    *id,
                    vec![
                        ("key", Value::Str(key.clone())),
                        ("trials", Value::U64(*trials)),
                        ("executed_trials", Value::U64(*executed_trials)),
                        ("cached_trials", Value::U64(*cached_trials)),
                        ("wall_secs", Value::F64(*wall_secs)),
                    ],
                );
                let header = serde_json::to_string(&header).expect("frame serialization");
                // The header is a non-empty object: drop its closing brace.
                let open = &header[..header.len() - 1];
                let (results, spans) = (results.get(), spans.as_deref().map(RawValue::get));
                let spans_len = spans.map_or(0, |s| SPANS.len() + s.len());
                // Room for the closing brace and the newline the server
                // pushes.
                let mut line = String::with_capacity(
                    open.len() + RESULTS.len() + results.len() + spans_len + 2,
                );
                line.push_str(open);
                line.push_str(RESULTS);
                line.push_str(results);
                if let Some(spans) = spans {
                    line.push_str(SPANS);
                    line.push_str(spans);
                }
                line.push('}');
                line
            }
            _ => serde_json::to_string(self).expect("frame serialization"),
        }
    }

    /// Parse one wire line. The header fields decode straight from the
    /// text and a `result` payload is kept as the raw text it arrived as.
    pub fn parse(line: &str) -> Result<Self, serde::Error> {
        serde_json::from_str::<WireFrame>(line)?.into_frame()
    }
}

impl Serialize for ServerFrame {
    fn to_json_value(&self) -> Value {
        match self {
            ServerFrame::Hello { id, proto, workers, max_queue, client_share } => frame(
                "hello",
                *id,
                vec![
                    ("proto", Value::Str(proto.clone())),
                    ("workers", Value::U64(*workers)),
                    ("max_queue", Value::U64(*max_queue)),
                    ("client_share", Value::U64(*client_share)),
                ],
            ),
            ServerFrame::Accepted { id, key, trials, dedup, queue_depth } => frame(
                "accepted",
                *id,
                vec![
                    ("key", Value::Str(key.clone())),
                    ("trials", Value::U64(*trials)),
                    ("dedup", Value::Bool(*dedup)),
                    ("queue_depth", Value::U64(*queue_depth)),
                ],
            ),
            ServerFrame::Rejected { id, reason, retry_after_ms } => frame(
                "rejected",
                *id,
                vec![
                    ("reason", Value::Str(reason.clone())),
                    ("retry_after_ms", Value::U64(*retry_after_ms)),
                ],
            ),
            ServerFrame::Progress {
                id,
                key,
                done_trials,
                total_trials,
                slots,
                trials_per_sec,
                eta_secs,
            } => frame(
                "progress",
                *id,
                vec![
                    ("key", Value::Str(key.clone())),
                    ("done_trials", Value::U64(*done_trials)),
                    ("total_trials", Value::U64(*total_trials)),
                    ("slots", Value::U64(*slots)),
                    ("trials_per_sec", Value::F64(*trials_per_sec)),
                    ("eta_secs", Value::F64(*eta_secs)),
                ],
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
                let mut rest = vec![
                    ("key", Value::Str(key.clone())),
                    ("trials", Value::U64(*trials)),
                    ("executed_trials", Value::U64(*executed_trials)),
                    ("cached_trials", Value::U64(*cached_trials)),
                    ("wall_secs", Value::F64(*wall_secs)),
                    ("results", results.to_json_value()),
                ];
                if let Some(spans) = spans {
                    rest.push(("spans", spans.to_json_value()));
                }
                frame("result", *id, rest)
            }
            ServerFrame::Cancelled { id, key, completed_trials } => frame(
                "cancelled",
                *id,
                vec![
                    ("key", Value::Str(key.clone())),
                    ("completed_trials", Value::U64(*completed_trials)),
                ],
            ),
            ServerFrame::Failed { id, key, reason } => frame(
                "failed",
                *id,
                vec![("key", Value::Str(key.clone())), ("reason", Value::Str(reason.clone()))],
            ),
            ServerFrame::Status { id, key, state, done_trials, total_trials, subscribers } => {
                frame(
                    "status",
                    *id,
                    vec![
                        ("key", Value::Str(key.clone())),
                        ("state", Value::Str(state.clone())),
                        ("done_trials", Value::U64(*done_trials)),
                        ("total_trials", Value::U64(*total_trials)),
                        ("subscribers", Value::U64(*subscribers)),
                    ],
                )
            }
            ServerFrame::Metrics { id, server, client } => {
                frame("metrics", *id, vec![("server", server.clone()), ("client", client.clone())])
            }
            ServerFrame::ShuttingDown { id } => frame("shutting_down", *id, vec![]),
            ServerFrame::Error { id, reason } => {
                frame("error", *id, vec![("reason", Value::Str(reason.clone()))])
            }
        }
    }
}

/// Every header field any server frame carries, each optional, and the
/// payloads as raw text. [`ServerFrame::parse`] decodes a line into it
/// straight from the text, and the tree path converts a parsed tree into
/// it; [`WireFrame::into_frame`] then checks the fields the `op` needs.
/// Like [`Value::get`], the first of duplicate keys wins.
#[derive(Deserialize)]
struct WireFrame {
    #[serde(default)]
    v: Option<u64>,
    #[serde(default)]
    op: Option<String>,
    #[serde(default)]
    id: Option<u64>,
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

/// A required header field, or `frame: missing {kind} field `{k}``.
fn need<T>(x: Option<T>, kind: &str, k: &str) -> Result<T, serde::Error> {
    x.ok_or_else(|| serde::Error::custom(format!("frame: missing {kind} field `{k}`")))
}

impl WireFrame {
    fn into_frame(self) -> Result<ServerFrame, serde::Error> {
        match need(self.v, "u64", "v")? {
            SCHEMA => {}
            other => {
                return Err(serde::Error::custom(format!("frame: unsupported schema v{other}")))
            }
        }
        let id = need(self.id, "u64", "id")?;
        let u = |x: Option<u64>, k: &str| need(x, "u64", k);
        let f = |x: Option<f64>, k: &str| need(x, "f64", k);
        let s = |x: Option<String>, k: &str| need(x, "string", k);
        match need(self.op, "string", "op")?.as_str() {
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
                dedup: self
                    .dedup
                    .ok_or_else(|| serde::Error::custom("accepted: missing bool `dedup`"))?,
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
                results: self
                    .results
                    .map(Arc::from)
                    .ok_or_else(|| serde::Error::custom("result: missing `results`"))?,
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
                server: self
                    .server
                    .ok_or_else(|| serde::Error::custom("metrics: missing `server`"))?,
                client: self
                    .client
                    .ok_or_else(|| serde::Error::custom("metrics: missing `client`"))?,
            }),
            "shutting_down" => Ok(ServerFrame::ShuttingDown { id }),
            "error" => Ok(ServerFrame::Error { id, reason: s(self.reason, "reason")? }),
            other => Err(serde::Error::custom(format!("unknown server op `{other}`"))),
        }
    }
}

impl Deserialize for ServerFrame {
    fn from_json_value(v: &Value) -> Result<Self, serde::Error> {
        WireFrame::from_json_value(v)?.into_frame()
    }
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

    #[test]
    fn client_frames_round_trip() {
        let frames = [
            ClientFrame::Hello { id: 1 },
            ClientFrame::Submit { id: 2, spec: spec(), trials: 8, trace: None },
            ClientFrame::Submit {
                id: 8,
                spec: spec(),
                trials: 8,
                trace: Some(TraceContext { trace_id: 0xdead_beef, parent_span: 3 }),
            },
            ClientFrame::Subscribe { id: 3, key: "ab".repeat(32) },
            ClientFrame::Status { id: 4, key: "cd".repeat(32) },
            ClientFrame::Cancel { id: 5, key: "ef".repeat(32) },
            ClientFrame::Metrics { id: 6 },
            ClientFrame::Shutdown { id: 7 },
        ];
        for f in frames {
            let line = f.to_line();
            assert!(!line.contains('\n'), "one frame per line: {line}");
            let back = ClientFrame::parse(&line).unwrap();
            assert_eq!(f, back, "{line}");
            assert_eq!(f.id(), back.id());
        }
    }

    #[test]
    fn server_frames_round_trip() {
        let frames = [
            ServerFrame::Hello {
                id: 0,
                proto: PROTOCOL_VERSION.into(),
                workers: 4,
                max_queue: 64,
                client_share: 8,
            },
            ServerFrame::Accepted {
                id: 1,
                key: "k".into(),
                trials: 8,
                dedup: true,
                queue_depth: 2,
            },
            ServerFrame::Rejected { id: 2, reason: "queue full".into(), retry_after_ms: 250 },
            ServerFrame::Progress {
                id: 3,
                key: "k".into(),
                done_trials: 16,
                total_trials: 64,
                slots: 12345,
                trials_per_sec: 100.5,
                eta_secs: 0.5,
            },
            ServerFrame::Result {
                id: 4,
                key: "k".into(),
                trials: 2,
                executed_trials: 2,
                cached_trials: 0,
                wall_secs: 0.25,
                results: raw(json!([json!({"slots": 10u64}), json!({"slots": 12u64})])),
                spans: None,
            },
            ServerFrame::Result {
                id: 11,
                key: "k".into(),
                trials: 2,
                executed_trials: 2,
                cached_trials: 0,
                wall_secs: 0.25,
                results: raw(json!([json!({"slots": 10u64}), json!({"slots": 12u64})])),
                spans: Some(raw(json!([json!({"name": "execute", "ts": 5u64})]))),
            },
            ServerFrame::Cancelled { id: 5, key: "k".into(), completed_trials: 32 },
            ServerFrame::Failed { id: 6, key: "k".into(), reason: "unsupported".into() },
            ServerFrame::Status {
                id: 7,
                key: "k".into(),
                state: "running".into(),
                done_trials: 1,
                total_trials: 8,
                subscribers: 3,
            },
            ServerFrame::Metrics { id: 8, server: json!({"schema": 1u64}), client: json!({}) },
            ServerFrame::ShuttingDown { id: 9 },
            ServerFrame::Error { id: 10, reason: "bad frame".into() },
        ];
        for f in frames {
            let line = f.to_line();
            assert!(!line.contains('\n'), "one frame per line: {line}");
            assert_eq!(line, serde_json::to_string(&f.to_json_value()).unwrap());
            let back = ServerFrame::parse(&line).unwrap();
            assert_eq!(f, back, "{line}");
        }
    }

    fn result_frame(
        key: &str,
        wall_secs: f64,
        results: serde::Value,
        spans: Option<serde::Value>,
    ) -> ServerFrame {
        ServerFrame::Result {
            id: 12,
            key: key.into(),
            trials: 3,
            executed_trials: 1,
            cached_trials: 2,
            wall_secs,
            results: raw(results),
            spans: spans.map(raw),
        }
    }

    /// Result frames covering every shape the spliced renderer meets.
    fn result_frames() -> Vec<ServerFrame> {
        let nested = json!([
            json!({"slots": 10u64, "energy": {"max": 3u64, "per": [1u64, 2u64]}, "leader": null}),
            json!({"slots": 12u64, "energy": {"max": 0u64, "per": []}, "note": "a\"b\n"}),
        ]);
        let spans = json!([json!({"name": "execute", "ts": 5u64, "dur": 7u64})]);
        vec![
            result_frame("k", 0.25, json!([json!({"slots": 10u64})]), None),
            result_frame("k", 0.25, json!([json!({"slots": 10u64})]), Some(spans.clone())),
            result_frame("quote\"back\\slash\nctl\u{1}é", 1.0, json!([]), None),
            result_frame("k", 0.1 + 0.2, json!([]), Some(json!([]))),
            result_frame("k", 1e-7, nested.clone(), None),
            result_frame("k", 12345.678, nested, Some(spans)),
        ]
    }

    #[test]
    fn spliced_result_line_matches_the_generic_serializer() {
        for f in result_frames() {
            let oracle = serde_json::to_string(&f.to_json_value()).unwrap();
            assert_eq!(f.to_line(), oracle);
            assert_eq!(ServerFrame::parse(&oracle).unwrap(), f, "{oracle}");
        }
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
        let tree: serde::Value = serde_json::from_str(&dup).unwrap();
        assert_eq!(tree.get("results"), Some(&json!([1u64])));
        assert_eq!(ServerFrame::parse(&dup).unwrap(), want);
        assert_eq!(ServerFrame::from_json_value(&tree).unwrap(), want);
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
    fn missing_header_fields_are_named_on_both_paths() {
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
            let tree: Value = serde_json::from_str(line).unwrap();
            assert_eq!(ServerFrame::from_json_value(&tree).unwrap_err().to_string(), want);
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
        assert!(ClientFrame::parse(r#"{"op":"hello","id":1}"#).is_err(), "missing v");
        assert!(ClientFrame::parse(r#"{"v":2,"op":"hello","id":1}"#).is_err(), "wrong v");
        assert!(ClientFrame::parse(r#"{"v":1,"op":"nope","id":1}"#).is_err(), "unknown op");
        assert!(ClientFrame::parse("not json").is_err());
        let no_trials = format!(
            r#"{{"v":1,"op":"submit","id":1,"spec":{},"trials":0}}"#,
            serde_json::to_string(&spec().to_value()).unwrap()
        );
        assert!(ClientFrame::parse(&no_trials).is_err(), "zero trials");
        let bad_trace = format!(
            r#"{{"v":1,"op":"submit","id":1,"spec":{},"trials":2,"trace":{{"trace_id":"xyz"}}}}"#,
            serde_json::to_string(&spec().to_value()).unwrap()
        );
        assert!(ClientFrame::parse(&bad_trace).is_err(), "malformed trace context");
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
