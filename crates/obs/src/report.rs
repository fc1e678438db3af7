//! Snapshot aggregation and exporters.
//!
//! [`Snapshot`] is what [`take`](crate::take) drains out of the recorder:
//! the raw closed-span events plus the metric registry. Two exporters
//! consume it:
//!
//! * [`Snapshot::chrome_trace_json`] — a `chrome://tracing` /
//!   [Perfetto](https://ui.perfetto.dev) *trace event* file, one complete
//!   (`"ph": "X"`) event per span, with worker threads on separate `tid`
//!   lanes and span fields as `args`;
//! * [`Snapshot::summary`] → [`Summary::render`] — the human-readable
//!   aggregate tree `llamp run --metrics` prints: spans grouped by call
//!   path with counts, totals and numeric-field sums (maxima for the
//!   `rows`/`cols` shape fields), followed by the counters, gauges and
//!   histogram means and quantiles.

use crate::hist::{Histogram, HistogramSummary};
use crate::FieldValue;
use std::collections::BTreeMap;

/// One closed span, as recorded.
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// `/`-joined chain of span names from the thread's root span down to
    /// this one (e.g. `exec.job/scenario/lp.solve`).
    pub path: String,
    /// The span's own name (the last path segment).
    pub name: &'static str,
    /// Recorder-assigned thread lane.
    pub tid: u32,
    /// Start, nanoseconds since the recorder epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Structured fields attached while the span was open.
    pub fields: Vec<(&'static str, FieldValue)>,
}

/// Everything the recorder collected between `enable` and `take`.
#[derive(Debug, Default)]
pub struct Snapshot {
    /// Closed spans (grouped by thread, in per-thread close order).
    pub events: Vec<SpanEvent>,
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges.
    pub gauges: BTreeMap<String, f64>,
    /// Value distributions.
    pub hists: BTreeMap<String, Histogram>,
}

/// One row of the aggregated span tree: every recorded span with the same
/// call path, collapsed.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanAgg {
    /// The shared call path (`/`-joined names).
    pub path: String,
    /// Nesting depth (number of `/` separators).
    pub depth: usize,
    /// Spans collapsed into this row.
    pub count: u64,
    /// Summed duration (ns).
    pub total_ns: u64,
    /// Shortest instance (ns).
    pub min_ns: u64,
    /// Longest instance (ns).
    pub max_ns: u64,
    /// Numeric fields, summed across instances — except the shape
    /// fields `rows` and `cols`, which keep their largest value.
    pub fields: Vec<(String, f64)>,
    /// String fields, last value wins.
    pub labels: Vec<(String, String)>,
}

/// The aggregate form of a [`Snapshot`]: what sidecar files store and the
/// tree renderer prints. Raw events are dropped (the Chrome trace is the
/// event-level export).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    /// Span rows, sorted by path (parents precede children).
    pub spans: Vec<SpanAgg>,
    /// Counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram summaries, sorted by name.
    pub hists: Vec<(String, HistogramSummary)>,
}

impl Snapshot {
    /// Collapse the snapshot into its aggregate [`Summary`].
    pub fn summary(&self) -> Summary {
        let mut rows: BTreeMap<&str, SpanAgg> = BTreeMap::new();
        for e in &self.events {
            let row = rows.entry(e.path.as_str()).or_insert_with(|| SpanAgg {
                path: e.path.clone(),
                depth: e.path.matches('/').count(),
                count: 0,
                total_ns: 0,
                min_ns: u64::MAX,
                max_ns: 0,
                fields: Vec::new(),
                labels: Vec::new(),
            });
            row.count += 1;
            row.total_ns += e.dur_ns;
            row.min_ns = row.min_ns.min(e.dur_ns);
            row.max_ns = row.max_ns.max(e.dur_ns);
            for (k, v) in &e.fields {
                match v {
                    FieldValue::U64(n) => add_field(&mut row.fields, k, *n as f64),
                    FieldValue::F64(x) => add_field(&mut row.fields, k, *x),
                    FieldValue::Str(s) => set_label(&mut row.labels, k, s),
                }
            }
        }
        Summary {
            spans: rows.into_values().collect(),
            counters: self.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            gauges: self.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            hists: self
                .hists
                .iter()
                .map(|(k, h)| (k.clone(), h.summary()))
                .collect(),
        }
    }

    /// Export as a Chrome *trace event* JSON document (load in
    /// `chrome://tracing` or Perfetto). Timestamps/durations are
    /// microseconds, as the format requires.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (i, e) in self.events.iter().enumerate() {
            out.push_str(&format!(
                "  {{\"name\": {}, \"cat\": \"llamp\", \"ph\": \"X\", \"pid\": 1, \
                 \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}",
                json_str(e.name),
                e.tid,
                e.start_ns as f64 / 1e3,
                e.dur_ns as f64 / 1e3,
            ));
            if !e.fields.is_empty() {
                out.push_str(", \"args\": {");
                for (j, (k, v)) in e.fields.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&json_str(k));
                    out.push_str(": ");
                    match v {
                        FieldValue::U64(n) => out.push_str(&n.to_string()),
                        FieldValue::F64(x) => out.push_str(&json_f64(*x)),
                        FieldValue::Str(s) => out.push_str(&json_str(s)),
                    }
                }
                out.push('}');
            }
            out.push('}');
            if i + 1 != self.events.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]}\n");
        out
    }
}

/// Shape fields: a model's size, not an amount of work, so a row keeps
/// the largest instance's value (68 solves of one 137k-row model report
/// `rows=137616`, not their sum).
const MAX_FIELDS: [&str; 2] = ["rows", "cols"];

fn add_field(fields: &mut Vec<(String, f64)>, key: &str, v: f64) {
    match fields.iter_mut().find(|(k, _)| k == key) {
        Some((_, slot)) if MAX_FIELDS.contains(&key) => *slot = slot.max(v),
        Some((_, slot)) => *slot += v,
        None => fields.push((key.to_string(), v)),
    }
}

fn set_label(labels: &mut Vec<(String, String)>, key: &str, v: &str) {
    match labels.iter_mut().find(|(k, _)| k == key) {
        Some((_, slot)) => {
            if slot != v {
                *slot = v.to_string();
            }
        }
        None => labels.push((key.to_string(), v.to_string())),
    }
}

/// JSON string literal with the escapes the trace format needs.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Finite floats print shortest-round-trip; non-finite become null (JSON
/// has no inf/NaN).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

/// Render a nanosecond quantity right-aligned in 10 columns.
fn ns_cell(ns: u64) -> String {
    format!("{:>10}", fmt_ns(ns))
}

/// Human duration: picks ns/µs/ms/s.
fn fmt_ns(ns: u64) -> String {
    let v = ns as f64;
    if v >= 1e9 {
        format!("{:.2} s", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2} ms", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.2} µs", v / 1e3)
    } else {
        format!("{ns} ns")
    }
}

impl Summary {
    /// True when nothing was recorded at all.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.counters.is_empty()
            && self.gauges.is_empty()
            && self.hists.is_empty()
    }

    /// The human-readable metrics block (`llamp run --metrics`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.spans.is_empty() {
            out.push_str(&format!(
                "{:<44} {:>7} {:>10} {:>10} {:>10}\n",
                "span", "count", "total", "mean", "max"
            ));
            for s in &self.spans {
                let name = s.path.rsplit('/').next().unwrap_or(&s.path);
                let mean = s.total_ns / s.count.max(1);
                out.push_str(&format!(
                    "{:<44} {:>7} {} {} {}\n",
                    format!("{}{}", "  ".repeat(s.depth), name),
                    s.count,
                    ns_cell(s.total_ns),
                    ns_cell(mean),
                    ns_cell(s.max_ns),
                ));
                let mut annotations: Vec<String> =
                    s.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
                annotations.extend(s.fields.iter().map(|(k, v)| {
                    if v.fract() == 0.0 && v.abs() < 1e15 {
                        format!("{k}={}", *v as i64)
                    } else {
                        format!("{k}={v:.3e}")
                    }
                }));
                if !annotations.is_empty() {
                    out.push_str(&format!(
                        "{}• {}\n",
                        "  ".repeat(s.depth + 1),
                        annotations.join(", ")
                    ));
                }
            }
        }
        if !self.counters.is_empty() {
            out.push_str(&format!("{:<44} {:>7}\n", "counter", "value"));
            for (k, v) in &self.counters {
                out.push_str(&format!("{k:<44} {v:>7}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str(&format!("{:<44} {:>7}\n", "gauge", "value"));
            for (k, v) in &self.gauges {
                out.push_str(&format!("{k:<44} {v:>7.3}\n"));
            }
        }
        if !self.hists.is_empty() {
            out.push_str(&format!(
                "{:<34} {:>7} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                "histogram", "count", "mean", "p50", "p90", "p99", "max"
            ));
            for (k, h) in &self.hists {
                // Durations carry the `_ns` suffix; anything else counts.
                let ns = k.ends_with("_ns");
                let cell = |v: u64| if ns { ns_cell(v) } else { format!("{v:>10}") };
                // The mean is exact (sum / count); the quantiles are
                // bucket floors, 14–25% apart.
                let mean = if ns {
                    ns_cell(h.mean().round() as u64)
                } else {
                    format!("{:>10.2}", h.mean())
                };
                out.push_str(&format!(
                    "{:<34} {:>7} {} {} {} {} {}\n",
                    k,
                    h.count,
                    mean,
                    cell(h.p50),
                    cell(h.p90),
                    cell(h.p99),
                    cell(h.max),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(path: &str, dur: u64, fields: Vec<(&'static str, FieldValue)>) -> SpanEvent {
        SpanEvent {
            path: path.to_string(),
            name: "x",
            tid: 1,
            start_ns: 0,
            dur_ns: dur,
            fields,
        }
    }

    #[test]
    fn summary_groups_by_path_and_sums_fields() {
        let snap = Snapshot {
            events: vec![
                event("a", 10, vec![("n", FieldValue::U64(2))]),
                event("a", 30, vec![("n", FieldValue::U64(3))]),
                event("a/b", 5, vec![]),
            ],
            ..Default::default()
        };
        let s = snap.summary();
        assert_eq!(s.spans.len(), 2);
        let a = &s.spans[0];
        assert_eq!((a.path.as_str(), a.count, a.total_ns), ("a", 2, 40));
        assert_eq!(a.min_ns, 10);
        assert_eq!(a.max_ns, 30);
        assert_eq!(a.fields, vec![("n".to_string(), 5.0)]);
        assert_eq!(s.spans[1].depth, 1);
    }

    #[test]
    fn shape_fields_aggregate_as_max() {
        // Three solves of one 100-row model and one 40-row model: `rows`
        // and `cols` report the largest model, effort fields the total.
        let solve = |rows: u64, iters: u64| {
            event(
                "lp.solve",
                1,
                vec![
                    ("rows", FieldValue::U64(rows)),
                    ("cols", FieldValue::U64(rows + 2)),
                    ("iterations", FieldValue::U64(iters)),
                ],
            )
        };
        let snap = Snapshot {
            events: vec![solve(100, 1), solve(40, 3), solve(100, 1), solve(100, 2)],
            ..Default::default()
        };
        let s = snap.summary();
        let field = |k: &str| s.spans[0].fields.iter().find(|(n, _)| n == k).unwrap().1;
        assert_eq!(field("rows"), 100.0);
        assert_eq!(field("cols"), 102.0);
        assert_eq!(field("iterations"), 7.0);
        assert!(s.render().contains("rows=100, cols=102, iterations=7"));
    }

    #[test]
    fn count_histograms_render_without_units() {
        let mut steps = Histogram::new();
        steps.record(3);
        let mut times = Histogram::new();
        times.record(3);
        let snap = Snapshot {
            hists: [
                ("lp.zone_steps".to_string(), steps),
                ("lp.zone_ns".to_string(), times),
            ]
            .into_iter()
            .collect(),
            ..Default::default()
        };
        let text = snap.summary().render();
        let line = |name: &str| {
            text.lines()
                .find(|l| l.starts_with(name))
                .unwrap()
                .to_string()
        };
        assert!(!line("lp.zone_steps").contains("ns"), "{text}");
        assert!(line("lp.zone_ns").contains("3 ns"), "{text}");
    }

    #[test]
    fn histogram_means_are_exact_between_buckets() {
        // 1000, 1100 and 1300 ns fall in buckets floored at 896, 1024 and
        // 1280 ns; their mean, 1133 ns, is no bucket value. Step counts
        // 1, 2 and 4 average 2.33.
        let mut times = Histogram::new();
        let mut steps = Histogram::new();
        for (t, n) in [(1000, 1), (1100, 2), (1300, 4)] {
            times.record(t);
            steps.record(n);
        }
        let snap = Snapshot {
            hists: [
                ("lp.zone_ns".to_string(), times),
                ("lp.zone_steps".to_string(), steps),
            ]
            .into_iter()
            .collect(),
            ..Default::default()
        };
        let text = snap.summary().render();
        let cells = |name: &str| -> Vec<String> {
            let line = text.lines().find(|l| l.starts_with(name)).unwrap();
            line.split("  ")
                .map(str::trim)
                .filter(|c| !c.is_empty())
                .map(String::from)
                .collect()
        };
        let header = cells("histogram");
        assert_eq!(header[..3], ["histogram", "count", "mean"], "{text}");
        assert_eq!(
            cells("lp.zone_ns")[1..4],
            ["3", "1.13 µs", "1.02 µs"],
            "{text}"
        );
        assert_eq!(cells("lp.zone_steps")[1..4], ["3", "2.33", "2"], "{text}");
    }

    #[test]
    fn chrome_trace_escapes_and_structures() {
        let snap = Snapshot {
            events: vec![event(
                "a",
                1500,
                vec![("k\"ey", FieldValue::Str("v\\1".into()))],
            )],
            ..Default::default()
        };
        let json = snap.chrome_trace_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\\\"ey"));
        assert!(json.contains("v\\\\1"));
        assert!(json.contains("\"dur\": 1.500"));
    }

    #[test]
    fn render_is_stable_for_empty_summary() {
        assert!(Summary::default().render().is_empty());
        assert!(Summary::default().is_empty());
    }
}
