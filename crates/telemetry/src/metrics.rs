//! Typed metric registry: counters, gauges, and log₂-bucketed histograms
//! with Prometheus text exposition and a versioned JSONL snapshot export.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc` clones
//! over atomics — register once, then update lock-free from any thread.
//! Registration is idempotent: asking for an existing name returns the
//! same underlying metric, so independent subsystems can share a counter
//! by name. Names follow the `jle_<crate>_<name>` convention and must be
//! valid Prometheus metric names (`[a-zA-Z_:][a-zA-Z0-9_:]*`).

use serde::{Deserialize, Error, Serialize, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotonic counter handle (`u64`, relaxed atomics).
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A free-standing counter not attached to any registry (useful in
    /// tests and as a cheap default).
    pub fn detached() -> Self {
        Counter::default()
    }

    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1 to the counter.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins gauge handle (`f64` stored as bits in an atomic).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A free-standing gauge not attached to any registry.
    pub fn detached() -> Self {
        Gauge::default()
    }

    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Number of histogram buckets: one for zero plus one per power of two
/// (bucket `i ≥ 1` covers `[2^(i−1), 2^i − 1]`; bucket 64 tops out at
/// `u64::MAX`).
pub const HISTOGRAM_BUCKETS: usize = 65;

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Log₂-bucketed histogram handle over `u64` observations.
///
/// Bucket 0 holds exact zeros; bucket `i ≥ 1` holds values in
/// `[2^(i−1), 2^i − 1]`, so `u64::MAX` lands in bucket 64. The sum
/// saturates at `u64::MAX` rather than wrapping.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistogramCore>);

/// Bucket index for an observation (see [`Histogram`]).
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (the Prometheus `le` label).
pub fn bucket_upper_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

impl Histogram {
    /// A free-standing histogram not attached to any registry.
    pub fn detached() -> Self {
        Histogram::default()
    }

    /// Record one observation.
    pub fn observe(&self, value: u64) {
        self.0.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        // Saturating add via CAS loop; contention here is negligible (one
        // observation per trial, not per slot).
        let mut cur = self.0.sum.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(value);
            match self.0.sum.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Saturating sum of observations.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts (index = [`bucket_index`]).
    pub fn buckets(&self) -> Vec<u64> {
        self.0.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }
}

#[derive(Debug, Clone)]
enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Handle {
    fn kind(&self) -> &'static str {
        match self {
            Handle::Counter(_) => "counter",
            Handle::Gauge(_) => "gauge",
            Handle::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug)]
struct MetricEntry {
    name: String,
    help: String,
    handle: Handle,
}

/// A named collection of metrics; clones share the same underlying set.
///
/// ```
/// let reg = jle_telemetry::MetricRegistry::new();
/// let trials = reg.counter("jle_demo_trials", "trials executed");
/// trials.add(3);
/// assert!(reg.render_prometheus().contains("jle_demo_trials 3"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricRegistry {
    entries: Arc<Mutex<Vec<MetricEntry>>>,
}

impl MetricRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricRegistry::default()
    }

    fn register(&self, name: &str, help: &str, make: impl FnOnce() -> Handle) -> Handle {
        assert!(valid_metric_name(name), "invalid Prometheus metric name: {name:?}");
        let mut entries = self.entries.lock().expect("metric registry");
        if let Some(e) = entries.iter().find(|e| e.name == name) {
            return e.handle.clone();
        }
        let handle = make();
        entries.push(MetricEntry {
            name: name.to_string(),
            help: help.to_string(),
            handle: handle.clone(),
        });
        handle
    }

    /// Register (or fetch) a counter.
    ///
    /// # Panics
    /// Panics if `name` is not a valid metric name or is already
    /// registered as a different metric type.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        match self.register(name, help, || Handle::Counter(Counter::default())) {
            Handle::Counter(c) => c,
            other => panic!("{name} already registered as a {}", other.kind()),
        }
    }

    /// Register (or fetch) a gauge. Panics like [`MetricRegistry::counter`].
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        match self.register(name, help, || Handle::Gauge(Gauge::default())) {
            Handle::Gauge(g) => g,
            other => panic!("{name} already registered as a {}", other.kind()),
        }
    }

    /// Register (or fetch) a histogram. Panics like
    /// [`MetricRegistry::counter`].
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        match self.register(name, help, || Handle::Histogram(Histogram::default())) {
            Handle::Histogram(h) => h,
            other => panic!("{name} already registered as a {}", other.kind()),
        }
    }

    /// Render every registered metric in Prometheus text exposition
    /// format (version 0.0.4), in registration order.
    pub fn render_prometheus(&self) -> String {
        let entries = self.entries.lock().expect("metric registry");
        let mut out = String::new();
        for e in entries.iter() {
            out.push_str(&format!("# HELP {} {}\n", e.name, escape_help(&e.help)));
            out.push_str(&format!("# TYPE {} {}\n", e.name, e.handle.kind()));
            match &e.handle {
                Handle::Counter(c) => out.push_str(&format!("{} {}\n", e.name, c.get())),
                Handle::Gauge(g) => out.push_str(&format!("{} {}\n", e.name, g.get())),
                Handle::Histogram(h) => {
                    let buckets = h.buckets();
                    let mut cum = 0u64;
                    for (i, b) in buckets.iter().enumerate() {
                        cum += b;
                        out.push_str(&format!(
                            "{}_bucket{{le=\"{}\"}} {}\n",
                            e.name,
                            escape_label(&bucket_upper_bound(i).to_string()),
                            cum
                        ));
                    }
                    out.push_str(&format!("{}_bucket{{le=\"+Inf\"}} {}\n", e.name, h.count()));
                    out.push_str(&format!("{}_sum {}\n", e.name, h.sum()));
                    out.push_str(&format!("{}_count {}\n", e.name, h.count()));
                }
            }
        }
        out
    }

    /// Copy the registry into a serializable, versioned snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let entries = self.entries.lock().expect("metric registry");
        MetricsSnapshot {
            schema: crate::SCHEMA_VERSION,
            metrics: entries
                .iter()
                .map(|e| MetricSample {
                    name: e.name.clone(),
                    help: e.help.clone(),
                    sample: match &e.handle {
                        Handle::Counter(c) => SampleValue::Counter(c.get()),
                        Handle::Gauge(g) => SampleValue::Gauge(g.get()),
                        Handle::Histogram(h) => SampleValue::Histogram {
                            count: h.count(),
                            sum: h.sum(),
                            buckets: h.buckets(),
                        },
                    },
                })
                .collect(),
        }
    }

    /// Append one snapshot line (JSONL) to `path`, creating parent
    /// directories as needed.
    pub fn write_snapshot_jsonl(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        use std::io::Write;
        let path = path.as_ref();
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let line = serde_json::to_string(&self.snapshot())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        writeln!(f, "{line}")
    }

    /// Write the Prometheus exposition to `path` (overwriting).
    pub fn write_prometheus(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.render_prometheus())
    }
}

/// `true` iff `name` matches `[a-zA-Z_:][a-zA-Z0-9_:]*`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Escape a HELP line per the exposition format: backslash and newline.
pub fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escape a label value per the exposition format: backslash, newline,
/// and double quote.
pub fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n").replace('"', "\\\"")
}

/// One metric's value in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram state.
    Histogram {
        /// Observation count.
        count: u64,
        /// Saturating observation sum.
        sum: u64,
        /// Per-bucket counts, index = [`bucket_index`].
        buckets: Vec<u64>,
    },
}

/// One named metric in a [`MetricsSnapshot`].
///
/// Written flat, `name`, `help` and `type` first: `{"name":N,"help":H,
/// "type":"counter","value":V}`, a gauge likewise, a histogram with
/// `count`, `sum` and `buckets` in place of `value`. An absent `help`
/// reads as empty, so snapshots written without it still load.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "SampleWire", into = "SampleWire")]
pub struct MetricSample {
    /// Metric name (`jle_<crate>_<name>`).
    pub name: String,
    /// Help text.
    pub help: String,
    /// The value.
    pub sample: SampleValue,
}

/// A point-in-time, versioned copy of a [`MetricRegistry`] — the payload
/// of the `--metrics-out` JSONL export, written
/// `{"schema":"jle-metrics-vN","metrics":[...]}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "SnapshotWire", into = "SnapshotWire")]
pub struct MetricsSnapshot {
    /// Snapshot schema version ([`crate::SCHEMA_VERSION`]).
    pub schema: u32,
    /// All registered metrics, in registration order.
    pub metrics: Vec<MetricSample>,
}

/// [`MetricSample`] as written: the value's fields flattened after its
/// `type`.
#[derive(Default, Serialize, Deserialize)]
struct SampleWire {
    name: String,
    #[serde(default)]
    help: String,
    #[serde(rename = "type")]
    kind: String,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    value: Option<Value>,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    count: Option<u64>,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    sum: Option<u64>,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    buckets: Option<Vec<u64>>,
}

impl From<MetricSample> for SampleWire {
    fn from(m: MetricSample) -> Self {
        let (kind, wire) = match m.sample {
            SampleValue::Counter(v) => {
                ("counter", SampleWire { value: Some(Value::U64(v)), ..Default::default() })
            }
            SampleValue::Gauge(v) => {
                ("gauge", SampleWire { value: Some(Value::F64(v)), ..Default::default() })
            }
            SampleValue::Histogram { count, sum, buckets } => {
                let (count, sum, buckets) = (Some(count), Some(sum), Some(buckets));
                ("histogram", SampleWire { count, sum, buckets, ..Default::default() })
            }
        };
        SampleWire { name: m.name, help: m.help, kind: kind.into(), ..wire }
    }
}

impl TryFrom<SampleWire> for MetricSample {
    type Error = Error;
    fn try_from(w: SampleWire) -> Result<Self, Error> {
        let missing = |field| Error::missing_field("MetricSample", field);
        let value = || w.value.ok_or_else(|| missing("value"));
        let sample = match w.kind.as_str() {
            "counter" => SampleValue::Counter(u64::from_json_value(&value()?)?),
            "gauge" => SampleValue::Gauge(f64::from_json_value(&value()?)?),
            "histogram" => SampleValue::Histogram {
                count: w.count.ok_or_else(|| missing("count"))?,
                sum: w.sum.ok_or_else(|| missing("sum"))?,
                buckets: w.buckets.ok_or_else(|| missing("buckets"))?,
            },
            other => return Err(Error::custom(format!("unknown metric type {other:?}"))),
        };
        Ok(MetricSample { name: w.name, help: w.help, sample })
    }
}

/// [`MetricsSnapshot`] as written: the schema version as a tag.
#[derive(Serialize, Deserialize)]
struct SnapshotWire {
    schema: String,
    metrics: Vec<MetricSample>,
}

impl From<MetricsSnapshot> for SnapshotWire {
    fn from(s: MetricsSnapshot) -> Self {
        SnapshotWire { schema: format!("jle-metrics-v{}", s.schema), metrics: s.metrics }
    }
}

impl TryFrom<SnapshotWire> for MetricsSnapshot {
    type Error = Error;
    fn try_from(w: SnapshotWire) -> Result<Self, Error> {
        let schema = crate::schema_version(&w.schema, "jle-metrics-v")
            .ok_or_else(|| Error::custom(format!("unrecognized snapshot schema {:?}", w.schema)))?;
        Ok(MetricsSnapshot { schema, metrics: w.metrics })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip_values() {
        let reg = MetricRegistry::new();
        let c = reg.counter("jle_test_trials", "trials");
        let g = reg.gauge("jle_test_fraction", "fraction");
        c.add(41);
        c.inc();
        g.set(0.25);
        assert_eq!(c.get(), 42);
        assert_eq!(g.get(), 0.25);
        // Idempotent registration returns the same handle.
        let c2 = reg.counter("jle_test_trials", "trials");
        c2.inc();
        assert_eq!(c.get(), 43);
    }

    #[test]
    fn histogram_bucket_boundaries_including_zero_and_max() {
        // Satellite: bucket edges at 0, powers of two, and u64::MAX.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index((1 << 20) - 1), 20);
        assert_eq!(bucket_index(1 << 20), 21);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(64), u64::MAX);

        let h = Histogram::detached();
        h.observe(0);
        h.observe(1);
        h.observe(u64::MAX);
        h.observe(u64::MAX); // sum saturates instead of wrapping
        let buckets = h.buckets();
        assert_eq!(buckets[0], 1);
        assert_eq!(buckets[1], 1);
        assert_eq!(buckets[64], 2);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), u64::MAX, "sum saturates at u64::MAX");
    }

    #[test]
    fn every_value_lands_in_its_declared_bucket() {
        for i in 0..HISTOGRAM_BUCKETS {
            let hi = bucket_upper_bound(i);
            assert_eq!(bucket_index(hi), i, "upper bound of bucket {i}");
            if i > 0 {
                let lo = bucket_upper_bound(i - 1) + 1;
                assert_eq!(bucket_index(lo), i, "lower bound of bucket {i}");
            }
        }
    }

    #[test]
    fn prometheus_exposition_shape_and_escaping() {
        let reg = MetricRegistry::new();
        let c = reg.counter("jle_test_total", "line one\nline two with back\\slash");
        c.add(7);
        let h = reg.histogram("jle_test_slots", "slots");
        h.observe(0);
        h.observe(5);
        let text = reg.render_prometheus();
        assert!(text.contains("# HELP jle_test_total line one\\nline two with back\\\\slash"));
        assert!(text.contains("# TYPE jle_test_total counter"));
        assert!(text.contains("jle_test_total 7"));
        assert!(text.contains("# TYPE jle_test_slots histogram"));
        assert!(text.contains("jle_test_slots_bucket{le=\"0\"} 1"));
        // 5 lands in bucket [4,7]; cumulative over le="7" is 2.
        assert!(text.contains("jle_test_slots_bucket{le=\"7\"} 2"));
        assert!(text.contains("jle_test_slots_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("jle_test_slots_sum 5"));
        assert!(text.contains("jle_test_slots_count 2"));
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn metric_names_are_validated() {
        assert!(valid_metric_name("jle_engine_slots_total"));
        assert!(valid_metric_name("_x:y"));
        assert!(!valid_metric_name("9starts_with_digit"));
        assert!(!valid_metric_name("has-dash"));
        assert!(!valid_metric_name(""));
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn kind_mismatch_panics() {
        let reg = MetricRegistry::new();
        let _ = reg.counter("jle_test_x", "x");
        let _ = reg.gauge("jle_test_x", "x");
    }

    #[test]
    fn snapshot_serde_roundtrip() {
        let reg = MetricRegistry::new();
        reg.counter("jle_test_a", "a").add(3);
        reg.gauge("jle_test_b", "b").set(0.5);
        let h = reg.histogram("jle_test_c", "c");
        h.observe(9);
        h.observe(0);
        let snap = reg.snapshot();
        let text = serde_json::to_string(&snap).unwrap();
        assert!(text.contains("\"jle-metrics-v1\""));
        let back: MetricsSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn snapshot_rejects_unknown_schema() {
        let bad = r#"{"schema":"something-else","metrics":[]}"#;
        assert!(serde_json::from_str::<MetricsSnapshot>(bad).is_err());
        // Only the spelling the writer produces: `n.to_string()`.
        for tag in ["jle-metrics-v001", "jle-metrics-v+1", "jle-metrics-v01"] {
            let bad = format!(r#"{{"schema":"{tag}","metrics":[]}}"#);
            let err = serde_json::from_str::<MetricsSnapshot>(&bad).unwrap_err().to_string();
            assert!(err.contains("unrecognized snapshot schema"), "{tag}: {err}");
        }
        let good = r#"{"schema":"jle-metrics-v1","metrics":[]}"#;
        assert!(serde_json::from_str::<MetricsSnapshot>(good).is_ok());
    }
}
