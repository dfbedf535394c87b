//! Cross-process trace propagation: a [`TraceContext`] names one causal
//! tree of spans (trace id) and the position a remote child should attach
//! under (parent span id).
//!
//! A client mints one context per logical operation (`TraceContext::mint`
//! derives a process-unique trace id from wall time, pid, and a
//! monotonic counter), stamps its own [`SpanRecorder`](crate::SpanRecorder)
//! with it, and ships the context over the wire as a small JSON object.
//! The server side rebuilds the context, stamps its own recorder, and
//! every span either process records carries the same trace id — so the
//! merged Chrome trace shows one submit→result critical path even though
//! the spans were recorded by different processes on different clocks.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifies one causal span tree across process boundaries.
///
/// On the wire (`TraceWire`): `{"trace_id":"<16 hex digits>","parent_span":N}`.
/// A `trace_id` that is not hex or is zero is refused; an absent
/// `parent_span` reads as 0, so contexts written without it still load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(try_from = "TraceWire", into = "TraceWire")]
pub struct TraceContext {
    /// The trace id shared by every span of the tree (never 0).
    pub trace_id: u64,
    /// The span id of the remote parent the receiver should attach its
    /// root spans under (0 = attach at the trace root).
    pub parent_span: u64,
}

/// Process-wide mint counter: makes contexts minted in the same
/// nanosecond tick distinct.
static MINT_SEQ: AtomicU64 = AtomicU64::new(0);

fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl TraceContext {
    /// Mint a fresh root context (unique trace id, no parent yet).
    pub fn mint() -> Self {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let seq = MINT_SEQ.fetch_add(1, Ordering::Relaxed);
        let raw = mix64(nanos ^ mix64(u64::from(std::process::id()) ^ seq.rotate_left(17)));
        TraceContext { trace_id: raw.max(1), parent_span: 0 }
    }

    /// The same trace, re-rooted under span `parent_span` (what a caller
    /// ships to a callee whose spans should nest under one of its own).
    pub fn with_parent(self, parent_span: u64) -> Self {
        TraceContext { parent_span, ..self }
    }

    /// The trace id as the 16-hex-digit string used in trace exports.
    pub fn trace_hex(&self) -> String {
        format!("{:016x}", self.trace_id)
    }
}

#[derive(Serialize, Deserialize)]
struct TraceWire {
    trace_id: String,
    #[serde(default)]
    parent_span: u64,
}

impl From<TraceContext> for TraceWire {
    fn from(ctx: TraceContext) -> Self {
        TraceWire { trace_id: ctx.trace_hex(), parent_span: ctx.parent_span }
    }
}

impl TryFrom<TraceWire> for TraceContext {
    type Error = String;
    fn try_from(w: TraceWire) -> Result<Self, String> {
        // Only the spelling `trace_hex` writes: 16 lowercase hex digits.
        let canonical = w.trace_id.len() == 16
            && w.trace_id.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b));
        match u64::from_str_radix(&w.trace_id, 16) {
            Ok(0) => Err("trace_id must be non-zero".into()),
            Ok(trace_id) if canonical => Ok(TraceContext { trace_id, parent_span: w.parent_span }),
            Ok(_) => Err(format!("trace_id is not 16 lowercase hex digits: {:?}", w.trace_id)),
            Err(_) => Err(format!("trace_id is not a hex u64: {:?}", w.trace_id)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mint_yields_distinct_nonzero_ids() {
        let a = TraceContext::mint();
        let b = TraceContext::mint();
        assert_ne!(a.trace_id, 0);
        assert_ne!(a.trace_id, b.trace_id, "two mints must not collide");
        assert_eq!(a.parent_span, 0);
    }

    #[test]
    fn serde_roundtrip() {
        let ctx = TraceContext { trace_id: 0xDEAD_BEEF_0123, parent_span: 42 };
        let text = serde_json::to_string(&ctx).unwrap();
        assert!(text.contains("0000deadbeef0123"), "{text}");
        let back: TraceContext = serde_json::from_str(&text).unwrap();
        assert_eq!(back, ctx);
    }

    #[test]
    fn zero_trace_id_is_rejected() {
        let r: Result<TraceContext, _> =
            serde_json::from_str(r#"{"trace_id":"0000000000000000","parent_span":0}"#);
        assert!(r.is_err());
    }

    #[test]
    fn only_sixteen_lowercase_hex_digits_load() {
        for id in ["+dead", "dead", "000000000000DEAD", "+00000000000dead", "00000000000000dead"] {
            let text = format!(r#"{{"trace_id":"{id}"}}"#);
            let err = serde_json::from_str::<TraceContext>(&text).unwrap_err().to_string();
            assert!(err.contains("16 lowercase hex digits"), "{id}: {err}");
        }
        let back: TraceContext =
            serde_json::from_str(r#"{"trace_id":"000000000000dead"}"#).unwrap();
        assert_eq!(back.trace_id, 0xdead);
    }

    #[test]
    fn with_parent_keeps_the_trace() {
        let ctx = TraceContext::mint();
        let child = ctx.with_parent(99);
        assert_eq!(child.trace_id, ctx.trace_id);
        assert_eq!(child.parent_span, 99);
    }
}
