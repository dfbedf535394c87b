//! Metric names, units and the result line.
//!
//! The two lists below are the contract with `BENCHMARK.json` (a test
//! holds them equal): a `--trace 0` run prints exactly the end-to-end
//! metrics, a `--trace 1` run exactly the per-layer ones.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("sweep_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("submissions_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("engine.cohort.busy_s", "s"),
    ("engine.batch.busy_s", "s"),
    ("engine.fast_exact.busy_s", "s"),
    ("engine.multihop.busy_s", "s"),
    ("engine.cohort.trials", "count"),
    ("engine.batch.trials", "count"),
    ("engine.fast_exact.trials", "count"),
    ("engine.multihop.trials", "count"),
    ("engine.cohort.slots", "count"),
    ("engine.batch.slots", "count"),
    ("engine.fast_exact.slots", "count"),
    ("engine.multihop.slots", "count"),
    ("engine.batch.mean_width", "trials/call"),
    ("engine.resolved_ratio", "ratio"),
    ("engine.cap_hits", "count"),
    ("adversary.jammed_slots", "count"),
    ("radio.collision_slots", "count"),
    ("orchestrator.self_s", "s"),
    ("orchestrator.fingerprint_s", "s"),
    ("orchestrator.units", "count"),
    ("orchestrator.chunk_hits", "count"),
    ("orchestrator.chunk_misses", "count"),
    ("orchestrator.executed_trials", "count"),
    ("orchestrator.cached_trials", "count"),
    ("orchestrator.fanout_threads", "count"),
    ("store.load_s", "s"),
    ("store.loads", "count"),
    ("store.bytes_read", "bytes"),
    ("store.write_s", "s"),
    ("store.writes", "count"),
    ("store.bytes_written", "bytes"),
    ("store.bytes_per_trial", "bytes"),
    ("analysis.busy_s", "s"),
    ("analysis.calls", "count"),
    ("sweepd.submissions", "count"),
    ("sweepd.dedup_hits", "count"),
    ("sweepd.unit_cache_hits", "count"),
    ("sweepd.jobs_executed", "count"),
    ("sweepd.rejected", "count"),
    ("sweepd.jobs_failed", "count"),
    ("sweepd.cache_served_ratio", "ratio"),
    ("sweepd.dedup_ratio", "ratio"),
    ("sweepd.queue_wait_us.p50", "us"),
    ("sweepd.execute_us.p50", "us"),
    ("sweepd.deliver_us.p50", "us"),
    ("sweepd.dedup_shortcircuit_us.p50", "us"),
    ("client.first_event_ms.p50", "ms"),
    ("telemetry.trace_overhead", "ratio"),
    ("telemetry.spans", "count"),
    ("trace.bench_self_s", "s"),
    ("trace.client_self_s", "s"),
    ("trace.sweepd_self_s", "s"),
    ("trace.engine_self_s", "s"),
    ("trace.analysis_self_s", "s"),
    ("trace.unattributed_s", "s"),
    ("machine.busy_threads", "count"),
    ("machine.cores", "count"),
];

/// Metric values by name; names outside the two lists are refused.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        let known = END_TO_END.iter().chain(PER_LAYER.iter()).find(|(n, _)| *n == name);
        let (name, _) = known.unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The result line: every metric of the chosen list, each with its
    /// unit. A metric the run did not set reads 0.
    pub fn result_line(&self, traced: bool, attempted: u64, failed: u64, correct: bool) -> String {
        let list: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let body: Vec<String> = list
            .iter()
            .map(|(name, unit)| {
                let v = self.get(name).unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!(r#""{name}": {{"value": {}, "unit": "{unit}"}}"#, json_number(v))
            })
            .collect();
        format!(
            r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
            body.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn json_number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_seq)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).expect("string").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let mut m = Metrics::default();
        m.set("sweep_s", 1.25);
        m.set("setup_s", 2.0);
        let line = m.result_line(false, 10, 1, true);
        let doc: Value = serde_json::from_str(&line).unwrap();
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(metrics.as_map().unwrap().len(), END_TO_END.len());
        assert_eq!(metrics.get("sweep_s").unwrap().get("value").unwrap().as_f64(), Some(1.25));
        assert_eq!(doc.get("attempted").unwrap().as_u64(), Some(10));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metrics_are_refused() {
        Metrics::default().set("latency_p999_ms", 1.0);
    }
}
