//! What a workload run hands back to `main`: named metrics, the failure
//! ledger and free-form details for the result file.

use xrlflow::graph::JsonValue;

use crate::stats::SliceEstimate;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// The unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations (requests or training rounds) attempted.
    pub attempted: u64,
    /// Operations that errored, returned non-200 or failed a correctness check.
    pub failed: u64,
    /// Run-level correctness checks that failed (ledger identities, the
    /// shadow pipeline diverging, a layer that measured nothing).
    pub violations: Vec<String>,
    /// The metrics of this run: end-to-end ones untraced, per-layer traced.
    pub metrics: Vec<Metric>,
    /// Context written to the result file next to the metrics.
    pub details: Vec<(String, JsonValue)>,
    /// The spans of a traced run, written once at exit.
    pub spans: Option<JsonValue>,
}

impl Outcome {
    /// `true` when no operation failed and every run-level check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    /// Records a run-level check, keeping the message when it failed.
    pub fn check(&mut self, holds: bool, message: impl FnOnce() -> String) {
        if !holds {
            self.violations.push(message());
        }
    }

    /// Records a detail for the result file.
    pub fn detail(&mut self, key: &str, value: JsonValue) {
        self.details.push((key.to_string(), value));
    }

    /// Records a median-of-slices metric plus the run's own spread (every
    /// slice's value, with their minimum and maximum) as a detail.
    pub fn sliced(&mut self, name: &'static str, estimate: SliceEstimate, unit: &'static str) {
        self.metric(name, estimate.median, unit);
        self.detail(
            &format!("{name}.slices"),
            object(vec![
                ("min", number(estimate.min)),
                ("max", number(estimate.max)),
                ("values", JsonValue::Array(estimate.per_slice.into_iter().map(number).collect())),
            ]),
        );
    }
}

/// A JSON object from `(key, value)` pairs.
pub fn object(pairs: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// A JSON number.
pub fn number(value: f64) -> JsonValue {
    JsonValue::Number(value)
}

/// A JSON string.
pub fn string(value: impl Into<String>) -> JsonValue {
    JsonValue::String(value.into())
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cumulative `(steal, total)` CPU ticks of the machine from `/proc/stat`.
fn cpu_ticks() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<f64> =
        stat.lines().next().unwrap_or("").split_whitespace().skip(1).filter_map(|t| t.parse().ok()).collect();
    (ticks.get(7).copied().unwrap_or(0.0), ticks.iter().take(8).sum())
}

/// Measures how much of the machine's CPU time the hypervisor gave to other
/// guests over a window. The end-to-end times are CPU time, which stolen
/// time does not enter (see [`crate::machine`]); the share is written to the
/// result file so that a reader sees what the wall-clock figures next to
/// them went through.
pub struct StealMeter {
    before: (f64, f64),
}

impl StealMeter {
    /// Starts the window.
    pub fn start() -> Self {
        Self { before: cpu_ticks() }
    }

    /// Share of the window's CPU ticks that were stolen.
    pub fn share(&self) -> f64 {
        let (steal, total) = cpu_ticks();
        (steal - self.before.0) / (total - self.before.1).max(1.0)
    }
}
