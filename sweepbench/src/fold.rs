//! Fold a Chrome trace into a per-layer self-time table.
//!
//! Span categories name layers, ordered from the outermost caller to the
//! innermost callee ([`LAYERS`]). A layer's self time is the wall time,
//! inside a window, during which it is the deepest layer with a span
//! open: its spans' time minus the part that spans of deeper layers
//! cover. Spans of one layer on several threads count once, so the rows
//! plus the unattributed remainder (window time with no span open) add
//! up to the window exactly.

use serde::Value;

/// Layers from caller to callee. Categories not listed here fold in
/// after them, in order of first appearance.
pub const LAYERS: [&str; 6] = ["bench", "client", "sweepd", "orchestrator", "engine", "analysis"];

/// One row of the table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub layer: String,
    pub self_us: u64,
    pub spans: usize,
}

/// The folded table for one window.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    pub window_us: u64,
    pub rows: Vec<Row>,
    /// Window time with no span open at all.
    pub unattributed_us: u64,
}

impl Table {
    pub fn self_us(&self, layer: &str) -> u64 {
        self.rows.iter().find(|r| r.layer == layer).map_or(0, |r| r.self_us)
    }

    /// Sum of two tables over disjoint windows (e.g. one per client
    /// connection, each on its own clock).
    pub fn merge(mut self, other: &Table) -> Table {
        self.window_us += other.window_us;
        self.unattributed_us += other.unattributed_us;
        for row in &other.rows {
            match self.rows.iter_mut().find(|r| r.layer == row.layer) {
                Some(mine) => {
                    mine.self_us += row.self_us;
                    mine.spans += row.spans;
                }
                None => self.rows.push(row.clone()),
            }
        }
        self
    }

    pub fn render(&self) -> String {
        let ms = |us: u64| us as f64 / 1e3;
        let share = |us: u64| 100.0 * us as f64 / self.window_us.max(1) as f64;
        let mut out = format!("{:<14} {:>12} {:>7} {:>9}\n", "layer", "self_ms", "share%", "spans");
        for r in &self.rows {
            out += &format!(
                "{:<14} {:>12.3} {:>7.2} {:>9}\n",
                r.layer,
                ms(r.self_us),
                share(r.self_us),
                r.spans
            );
        }
        out += &format!(
            "{:<14} {:>12.3} {:>7.2}\n{:<14} {:>12.3}\n",
            "unattributed",
            ms(self.unattributed_us),
            share(self.unattributed_us),
            "window",
            ms(self.window_us)
        );
        out
    }
}

/// Fold `events` (a Chrome `traceEvents` array, or a document holding
/// one) over the window `[from_us, to_us)`.
pub fn fold(events: &Value, from_us: u64, to_us: u64) -> Table {
    let seq = events.get("traceEvents").unwrap_or(events).as_seq().map_or(&[][..], |s| s);
    let mut layers: Vec<String> = LAYERS.iter().map(|s| s.to_string()).collect();
    let mut spans = vec![0usize; layers.len()];
    // (time, +1/-1, layer depth)
    let mut edges: Vec<(u64, i64, usize)> = Vec::new();
    for e in seq {
        let (Some(cat), Some(ts)) =
            (e.get("cat").and_then(Value::as_str), e.get("ts").and_then(Value::as_u64))
        else {
            continue;
        };
        let end = ts + e.get("dur").and_then(Value::as_u64).unwrap_or(0);
        let (start, end) = (ts.max(from_us), end.min(to_us));
        if start >= end {
            continue;
        }
        let depth = match layers.iter().position(|l| l == cat) {
            Some(d) => d,
            None => {
                layers.push(cat.to_string());
                spans.push(0);
                layers.len() - 1
            }
        };
        spans[depth] += 1;
        edges.push((start, 1, depth));
        edges.push((end, -1, depth));
    }
    edges.sort_unstable();
    let mut open = vec![0i64; layers.len()];
    let mut self_us = vec![0u64; layers.len()];
    let mut unattributed_us = 0;
    let mut at = from_us;
    for (t, delta, depth) in edges {
        let width = t - at;
        match open.iter().rposition(|&n| n > 0) {
            Some(d) => self_us[d] += width,
            None => unattributed_us += width,
        }
        open[depth] += delta;
        at = t;
    }
    unattributed_us += to_us.saturating_sub(at);
    let rows = layers
        .into_iter()
        .zip(self_us.into_iter().zip(spans))
        .map(|(layer, (self_us, spans))| Row { layer, self_us, spans })
        .collect();
    Table { window_us: to_us.saturating_sub(from_us), rows, unattributed_us }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(cat: &str, ts: u64, dur: u64, tid: u64) -> String {
        format!(
            r#"{{"name":"x","cat":"{cat}","ph":"X","ts":{ts},"dur":{dur},"pid":1,"tid":{tid}}}"#
        )
    }

    fn trace(spans: &[String]) -> Value {
        serde_json::from_str(&format!(r#"{{"traceEvents":[{}]}}"#, spans.join(","))).unwrap()
    }

    #[test]
    fn hand_built_trace_folds_into_self_times() {
        // bench [0,100) calls the orchestrator [10,90), whose chunk runs
        // two engine closures on worker threads, [20,40) and [30,60);
        // the analysis step follows at [92,98). The window is [0,110).
        let doc = trace(&[
            span("bench", 0, 100, 0),
            span("orchestrator", 10, 80, 0),
            span("engine", 20, 20, 1),
            span("engine", 30, 30, 2),
            span("analysis", 92, 6, 0),
        ]);
        let t = fold(&doc, 0, 110);
        assert_eq!(t.self_us("engine"), 40, "overlapping engine spans count once");
        assert_eq!(t.self_us("orchestrator"), 40);
        assert_eq!(t.self_us("analysis"), 6);
        assert_eq!(t.self_us("bench"), 14);
        assert_eq!(t.unattributed_us, 10);
        let total: u64 = t.rows.iter().map(|r| r.self_us).sum::<u64>() + t.unattributed_us;
        assert_eq!(total, t.window_us);
        assert_eq!(t.rows.iter().find(|r| r.layer == "engine").unwrap().spans, 2);
    }

    #[test]
    fn spans_are_clipped_to_the_window_and_unknown_layers_fold_last() {
        let doc = trace(&[span("bench", 0, 50, 0), span("store", 40, 30, 0)]);
        let t = fold(&doc, 20, 60);
        assert_eq!(t.window_us, 40);
        assert_eq!(t.self_us("bench"), 20);
        assert_eq!(t.self_us("store"), 20);
        assert_eq!(t.unattributed_us, 0);
        assert_eq!(t.rows.last().unwrap().layer, "store");
    }

    #[test]
    fn merged_tables_add_windows_and_rows() {
        let a = fold(&trace(&[span("client", 0, 10, 0)]), 0, 20);
        let b = fold(&trace(&[span("client", 5, 10, 0), span("sweepd", 6, 4, 1)]), 0, 20);
        let m = a.merge(&b);
        assert_eq!((m.window_us, m.self_us("client"), m.self_us("sweepd")), (40, 16, 4));
        assert_eq!(m.unattributed_us, 20);
    }
}
