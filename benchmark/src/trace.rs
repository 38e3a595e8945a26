//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls into
//! each layer — no span is added inside any crate. They are kept in memory
//! and written once, with the result file, when the run ends.

use std::time::Instant;

use xrlflow::graph::JsonValue;

use crate::stats::percentile_or_zero;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// `layer.call`, the layer being the crate name.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request or round index: spans of one operation share it.
    pub op_id: u64,
}

impl SpanRecord {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A single-threaded span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<SpanId>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, op_id: u64) -> SpanId {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.open.push(id);
        let start_ns = self.now_ns();
        self.spans.push(SpanRecord { name, start_ns, end_ns: start_ns, parent, op_id });
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end_ns = end_ns;
    }

    /// Records a span around `call`, under the innermost open span.
    pub fn time<T>(&mut self, name: &'static str, op_id: u64, call: impl FnOnce() -> T) -> T {
        let id = self.begin(name, op_id);
        let result = call();
        self.end(id);
        result
    }

    /// Records a span around `call` as a *replayed* child of `parent`: a
    /// nested part of the parent's work, executed again on the same input
    /// right after the parent closed, because this benchmark may not put a
    /// span inside a crate. It lies outside the parent's interval; the
    /// parent's self time is its duration minus its replayed children's.
    pub fn replay<T>(&mut self, parent: SpanId, name: &'static str, call: impl FnOnce() -> T) -> T {
        let op_id = self.spans[parent].op_id;
        let start_ns = self.now_ns();
        let result = call();
        let end_ns = self.now_ns();
        self.spans.push(SpanRecord { name, start_ns, end_ns, parent: Some(parent), op_id });
        result
    }

    /// Duration of span `id` in nanoseconds.
    pub fn ns(&self, id: SpanId) -> u64 {
        self.spans[id].ns()
    }

    /// For every span, the total duration of its children, nested or
    /// replayed (one pass over the recording).
    pub fn children_ns(&self) -> Vec<u64> {
        let mut totals = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                totals[parent] += span.ns();
            }
        }
        totals
    }

    /// Self time of every span called `name`: its duration minus its
    /// children's, in nanoseconds.
    pub fn self_ns(&self, name: &str) -> Vec<f64> {
        let children = self.children_ns();
        self.ids(name).into_iter().map(|id| self.spans[id].ns().saturating_sub(children[id]) as f64).collect()
    }

    /// Ids of every span called `name`, in recording order.
    pub fn ids(&self, name: &str) -> Vec<SpanId> {
        (0..self.spans.len()).filter(|&id| self.spans[id].name == name).collect()
    }

    /// Durations (ns) of every span called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.ns() as f64).collect()
    }

    /// Median duration of the spans called `name`, in units of `per_unit_ns`
    /// nanoseconds (1e3 for µs, 1e6 for ms); `0.0` when none was recorded —
    /// a layer this workload never calls.
    pub fn p50(&self, name: &str, per_unit_ns: f64) -> f64 {
        percentile_or_zero(&self.durations_ns(name), 0.5) / per_unit_ns
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// The spans as a JSON document: a header naming the columns, then one
    /// row per span.
    pub fn to_json_value(&self) -> JsonValue {
        let columns = ["name", "start_ns", "end_ns", "parent", "op_id"];
        let rows = self
            .spans
            .iter()
            .map(|s| {
                JsonValue::Array(vec![
                    JsonValue::String(s.name.to_string()),
                    JsonValue::Number(s.start_ns as f64),
                    JsonValue::Number(s.end_ns as f64),
                    s.parent.map_or(JsonValue::Null, |p| JsonValue::Number(p as f64)),
                    JsonValue::Number(s.op_id as f64),
                ])
            })
            .collect();
        JsonValue::Object(vec![
            (
                "columns".to_string(),
                JsonValue::Array(columns.iter().map(|c| JsonValue::String(c.to_string())).collect()),
            ),
            ("rows".to_string(), JsonValue::Array(rows)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut tracer = Tracer::new();
        let parent = tracer.begin("serve.request", 3);
        let busy = |ms: u64| std::thread::sleep(std::time::Duration::from_millis(ms));
        tracer.time("graph.import", 3, || busy(2));
        tracer.time("graph.hash", 3, || busy(2));
        busy(3);
        tracer.end(parent);

        assert_eq!(tracer.spans().len(), 3);
        assert_eq!(tracer.spans()[1].parent, Some(parent));
        assert_eq!(tracer.spans()[2].parent, Some(parent));
        assert_eq!(tracer.spans()[0].parent, None);
        assert!(tracer.spans().iter().all(|s| s.op_id == 3));
        let children = tracer.ns(1) + tracer.ns(2);
        assert_eq!(tracer.self_ns("serve.request"), vec![(tracer.ns(parent) - children) as f64]);
        assert!(tracer.self_ns("serve.request")[0] >= 3_000_000.0);
        // A replayed child runs after its parent closed and still counts
        // against the parent's self time.
        tracer.replay(parent, "graph.validate", || busy(1));
        assert_eq!(tracer.spans()[3].parent, Some(parent));
        assert_eq!(tracer.spans()[3].op_id, 3);
        assert!(tracer.spans()[3].start_ns >= tracer.spans()[parent].end_ns);
        assert_eq!(tracer.children_ns()[parent], children + tracer.ns(3));
        assert_eq!(tracer.ids("graph.validate"), vec![3]);
        assert_eq!(tracer.ids("graph.import"), vec![1]);
        assert!(tracer.p50("graph.import", 1e3) >= 2_000.0);
        assert_eq!(tracer.p50("never.called", 1e3), 0.0);
        let json = tracer.to_json_value().to_json();
        assert!(json.contains("\"graph.hash\""));
    }
}
