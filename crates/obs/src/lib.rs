//! # xrlflow-obs
//!
//! Zero-overhead telemetry for the X-RLflow stack: atomic counters, gauges
//! and fixed-bucket log-scale histograms, RAII span timers, a process-wide
//! [`Registry`] with cheap pre-registered handles, and a structured JSON
//! snapshot built on the same hand-rolled [`JsonValue`] writer the graph
//! interchange and the serving cache use.
//!
//! Two rules govern every instrumented path (see "Telemetry dataflow" in
//! ROADMAP.md):
//!
//! 1. **Recording is allocation-free in steady state.** Handles are resolved
//!    once (a `OnceLock` per call site, via the [`counter!`], [`gauge!`],
//!    [`histogram!`] and [`span!`] macros) and every record is a handful of
//!    relaxed atomic operations — no per-event heap traffic, enforced by a
//!    counting-allocator test in this crate.
//! 2. **Telemetry is bit-transparent.** Metrics observe; they never touch an
//!    RNG stream, a merge order or an f32 result. Enabling or disabling the
//!    registry ([`set_enabled`]) must not change a single learned number —
//!    the rollout engine's differential suites run with the registry active
//!    to enforce this.
//!
//! ## Quickstart
//!
//! ```
//! use xrlflow_obs as obs;
//!
//! // Handles resolve once per call site and are then a pointer deref.
//! obs::counter!("demo/requests").inc();
//! obs::gauge!("demo/queue_depth").set(3.0);
//! obs::histogram!("demo/latency").record(1_500); // ns
//! {
//!     let _span = obs::span!("demo/phase"); // records elapsed ns on drop
//! }
//!
//! let snapshot = obs::Registry::global().snapshot();
//! assert!(snapshot.counter("demo/requests").unwrap() >= 1);
//! let json = snapshot.to_json(); // {"format": "xrlflow-metrics", ...}
//! assert!(json.contains("demo/latency"));
//! ```
//!
//! Metric names are `/`-separated static paths (`"serve/requests"`,
//! `"rollout/collect"`). The registry leaks one small allocation per
//! *distinct* name — the set of metrics in a process is fixed and tiny, and
//! leaking is what makes handles `&'static` (copyable, lock-free, cheap to
//! stash in a `OnceLock` at the call site).

#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use xrlflow_graph::JsonValue;

/// The `"format"` marker identifying a metrics snapshot document.
pub const METRICS_JSON_FORMAT: &str = "xrlflow-metrics";

/// The snapshot schema version this build writes.
pub const METRICS_JSON_VERSION: u64 = 1;

/// Number of log-scale buckets in a [`Histogram`] (powers of two; bucket `i`
/// holds values `v` with `2^(i-1) <= v < 2^i`, bucket 0 holds zero).
pub const HISTOGRAM_BUCKETS: usize = 64;

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether telemetry recording is active (default: `true`).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Globally enables or disables telemetry recording.
///
/// Disabling turns every record into one relaxed atomic load and stops span
/// timers from reading the clock. It exists for overhead measurement
/// (`bench_obs` compares instrumented vs uninstrumented hot loops) and must
/// never change programme behaviour — instrumented code is bit-transparent
/// either way.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// A monotonically increasing event counter over one relaxed atomic.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets the count to zero (snapshots are cumulative otherwise).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A last-value-wins instantaneous measurement (an `f64` stored as bits in
/// one relaxed atomic).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Creates a gauge at `0.0`.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Stores a new value.
    #[inline]
    pub fn set(&self, value: f64) {
        if enabled() {
            self.0.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// The most recently stored value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Resets the gauge to `0.0`.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A fixed-bucket log-scale histogram over atomics: 64 power-of-two buckets
/// plus total count and sum, all relaxed.
///
/// Designed for nanosecond timings (a 64-bucket log2 scale spans 1 ns to
/// centuries) but any `u64` works. Recording is two-to-three relaxed
/// `fetch_add`s — no locks, no allocation, wait-free.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Self { buckets: [ZERO; HISTOGRAM_BUCKETS], count: AtomicU64::new(0), sum: AtomicU64::new(0) }
    }

    /// The bucket index of a value: 0 for 0, else `⌈log2(v+1)⌉` clamped to
    /// the last bucket — so bucket `i ≥ 1` covers `2^(i-1) <= v < 2^i`.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()).min(HISTOGRAM_BUCKETS as u32 - 1) as usize
    }

    /// The exclusive upper bound of bucket `index` (`2^index`; the last
    /// bucket is unbounded and reports `u64::MAX`).
    pub fn bucket_upper_bound(index: usize) -> u64 {
        if index + 1 >= HISTOGRAM_BUCKETS {
            u64::MAX
        } else {
            1u64 << index
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        if enabled() {
            self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
            self.count.fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(value, Ordering::Relaxed);
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values (nanoseconds, for span histograms).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean observed value, or `0.0` when empty.
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }

    /// The upper bound of the bucket containing the `q`-quantile
    /// (`0.0 <= q <= 1.0`), or 0 when empty. Log-scale buckets make this an
    /// upper estimate within 2× of the true quantile — the right resolution
    /// for latency monitoring.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_upper_bound(i);
            }
        }
        u64::MAX
    }

    /// The non-empty buckets as `(upper_bound, count)` pairs, in value order.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let count = b.load(Ordering::Relaxed);
                (count > 0).then(|| (Self::bucket_upper_bound(i), count))
            })
            .collect()
    }

    /// Clears every bucket and the count/sum.
    pub fn reset(&self) {
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }
}

/// An RAII timer: records the elapsed nanoseconds into a [`Histogram`] when
/// dropped. When telemetry is disabled at construction the clock is never
/// read and the drop is a no-op.
#[derive(Debug)]
#[must_use = "a span records on drop; binding it to `_` drops it immediately"]
pub struct Span {
    histogram: &'static Histogram,
    start: Option<Instant>,
}

impl Span {
    /// Starts a span over a histogram handle.
    #[inline]
    pub fn start(histogram: &'static Histogram) -> Self {
        Self { histogram, start: enabled().then(Instant::now) }
    }

    /// Ends the span early, recording now instead of at scope exit.
    pub fn finish(self) {}

    /// Ends the span without recording anything — for work that turned out
    /// not to be the thing the histogram measures (a rejected request).
    pub fn cancel(mut self) {
        self.start = None;
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.histogram.record(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
    }
}

/// One kind of metric store inside the registry.
#[derive(Debug, Default)]
struct Table<T: 'static> {
    entries: Mutex<Vec<(String, &'static T)>>,
}

impl<T: Default> Table<T> {
    /// Get-or-register: the first lookup of a name leaks one `T` (making the
    /// handle `&'static`), later lookups return the same handle.
    fn get_or_register(&self, name: &str) -> &'static T {
        let mut entries = self.entries.lock().expect("metric registry poisoned");
        if let Some((_, handle)) = entries.iter().find(|(n, _)| n == name) {
            return handle;
        }
        let handle: &'static T = Box::leak(Box::default());
        entries.push((name.to_string(), handle));
        handle
    }

    fn sorted(&self) -> Vec<(String, &'static T)> {
        let mut entries = self.entries.lock().expect("metric registry poisoned").clone();
        entries.sort_by(|(a, _), (b, _)| a.cmp(b));
        entries
    }
}

/// The process-wide metric registry: named counters, gauges and histograms.
///
/// Registration (the *first* lookup of a name) takes a short lock and leaks
/// one allocation; every later lookup through the [`counter!`]-family macros
/// is a `OnceLock` load. Recording through a resolved handle never touches
/// the registry at all.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Table<Counter>,
    gauges: Table<Gauge>,
    histograms: Table<Histogram>,
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

impl Registry {
    /// The process-wide registry every instrumented crate records into.
    pub fn global() -> &'static Registry {
        GLOBAL.get_or_init(Registry::default)
    }

    /// Resolves (registering on first use) a counter handle.
    pub fn counter(&self, name: &str) -> &'static Counter {
        self.counters.get_or_register(name)
    }

    /// Resolves (registering on first use) a gauge handle.
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        self.gauges.get_or_register(name)
    }

    /// Resolves (registering on first use) a histogram handle.
    pub fn histogram(&self, name: &str) -> &'static Histogram {
        self.histograms.get_or_register(name)
    }

    /// A point-in-time copy of every registered metric, names sorted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.sorted().into_iter().map(|(n, c)| (n, c.get())).collect(),
            gauges: self.gauges.sorted().into_iter().map(|(n, g)| (n, g.get())).collect(),
            histograms: self
                .histograms
                .sorted()
                .into_iter()
                .map(|(n, h)| (n, HistogramSnapshot::from_histogram(h)))
                .collect(),
        }
    }

    /// Zeroes every registered metric (handles stay valid). For tests and
    /// benches that want per-phase readings out of the cumulative registry.
    pub fn reset(&self) {
        for (_, c) in self.counters.sorted() {
            c.reset();
        }
        for (_, g) in self.gauges.sorted() {
            g.reset();
        }
        for (_, h) in self.histograms.sorted() {
            h.reset();
        }
    }
}

/// A point-in-time copy of one histogram's state.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observed values (ns for span histograms).
    pub sum: u64,
    /// Upper bound of the median bucket.
    pub p50: u64,
    /// Upper bound of the 90th-percentile bucket.
    pub p90: u64,
    /// Upper bound of the 99th-percentile bucket.
    pub p99: u64,
    /// Non-empty `(upper_bound, count)` buckets in value order.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    fn from_histogram(h: &Histogram) -> Self {
        Self {
            count: h.count(),
            sum: h.sum(),
            p50: h.quantile_upper_bound(0.50),
            p90: h.quantile_upper_bound(0.90),
            p99: h.quantile_upper_bound(0.99),
            buckets: h.nonzero_buckets(),
        }
    }

    /// Mean observed value, or `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A point-in-time copy of the whole registry, ready for JSON export.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name, sorted.
    pub counters: Vec<(String, u64)>,
    /// Gauge values by name, sorted.
    pub gauges: Vec<(String, f64)>,
    /// Histogram states by name, sorted.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Builds the snapshot as a [`JsonValue`] document — the same generic
    /// document model the graph interchange and the serving cache use.
    ///
    /// Counts and bucket bounds are JSON numbers (f64): counts stay far
    /// below 2^53 in practice, and bucket upper bounds are exact powers of
    /// two, which f64 represents exactly.
    pub fn to_json_value(&self) -> JsonValue {
        let counters =
            self.counters.iter().map(|(n, v)| (n.clone(), JsonValue::Number(*v as f64))).collect::<Vec<_>>();
        let gauges = self.gauges.iter().map(|(n, v)| (n.clone(), JsonValue::Number(*v))).collect::<Vec<_>>();
        let histograms = self
            .histograms
            .iter()
            .map(|(n, h)| {
                let buckets = h
                    .buckets
                    .iter()
                    .map(|(upper, count)| {
                        JsonValue::Array(vec![
                            JsonValue::Number(*upper as f64),
                            JsonValue::Number(*count as f64),
                        ])
                    })
                    .collect();
                (
                    n.clone(),
                    JsonValue::Object(vec![
                        ("count".to_string(), JsonValue::Number(h.count as f64)),
                        ("sum".to_string(), JsonValue::Number(h.sum as f64)),
                        ("mean".to_string(), JsonValue::Number(h.mean())),
                        ("p50".to_string(), JsonValue::Number(h.p50 as f64)),
                        ("p90".to_string(), JsonValue::Number(h.p90 as f64)),
                        ("p99".to_string(), JsonValue::Number(h.p99 as f64)),
                        ("buckets".to_string(), JsonValue::Array(buckets)),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        JsonValue::Object(vec![
            ("format".to_string(), JsonValue::String(METRICS_JSON_FORMAT.to_string())),
            ("version".to_string(), JsonValue::Number(METRICS_JSON_VERSION as f64)),
            ("counters".to_string(), JsonValue::Object(counters)),
            ("gauges".to_string(), JsonValue::Object(gauges)),
            ("histograms".to_string(), JsonValue::Object(histograms)),
        ])
    }

    /// Serialises the snapshot as a JSON string.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_json()
    }

    /// Writes the snapshot to a file atomically (temp file → fsync →
    /// rename), creating parent directories. A crash mid-save never leaves
    /// a torn document under the final name.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating directories or writing.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        xrlflow_tensor::atomic_write(path, self.to_json())
    }
}

/// Resolves a `&'static Counter` from the global registry, caching the
/// handle in a per-call-site `OnceLock` — steady-state cost is one atomic
/// load plus the record itself, with zero allocation.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Counter> = ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::Registry::global().counter($name))
    }};
}

/// Resolves a `&'static Gauge` from the global registry (see [`counter!`]).
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Gauge> = ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::Registry::global().gauge($name))
    }};
}

/// Resolves a `&'static Histogram` from the global registry (see
/// [`counter!`]).
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Histogram> = ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::Registry::global().histogram($name))
    }};
}

/// Starts an RAII [`Span`] over a named histogram: elapsed nanoseconds are
/// recorded when the returned guard drops.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::Span::start($crate::histogram!($name))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests that flip the global enabled flag, and tests that assert on what
    /// they recorded, serialise on this lock so recording cannot be disabled
    /// under a concurrently running test.
    static ENABLED_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn counter_and_gauge_record_and_reset() {
        let _guard = ENABLED_LOCK.lock().unwrap();
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);

        let g = Gauge::new();
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
        g.set(-1.0);
        assert_eq!(g.get(), -1.0);
        g.reset();
        assert_eq!(g.get(), 0.0);
    }

    #[test]
    fn histogram_buckets_are_log_scale_and_quantiles_bound_the_data() {
        let _guard = ENABLED_LOCK.lock().unwrap();
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(Histogram::bucket_upper_bound(1), 2);
        assert_eq!(Histogram::bucket_upper_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);

        let h = Histogram::new();
        for v in [100u64, 200, 400, 800, 100_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 101_500);
        assert!((h.mean() - 20_300.0).abs() < 1e-9);
        // The p50 bucket bound must cover the median (400 -> bucket (256, 512]).
        assert_eq!(h.quantile_upper_bound(0.5), 512);
        // p99 lands in the top value's bucket (100_000 -> (65536, 131072]).
        assert_eq!(h.quantile_upper_bound(0.99), 131_072);
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets.iter().map(|(_, c)| c).sum::<u64>(), 5);
        assert!(buckets.windows(2).all(|w| w[0].0 < w[1].0), "buckets must be in value order");

        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_upper_bound(0.5), 0);
    }

    #[test]
    fn span_records_elapsed_time() {
        let _guard = ENABLED_LOCK.lock().unwrap();
        let h: &'static Histogram = Box::leak(Box::default());
        {
            let _span = Span::start(h);
            std::hint::black_box(1 + 1);
        }
        assert_eq!(h.count(), 1, "dropping a span must record one observation");
        Span::start(h).finish();
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn disabled_telemetry_records_nothing() {
        let _guard = ENABLED_LOCK.lock().unwrap();
        let c = Counter::new();
        let g = Gauge::new();
        let h = Histogram::new();
        set_enabled(false);
        c.inc();
        g.set(9.0);
        h.record(42);
        let span = Span::start(&*Box::leak::<'static>(Box::new(Histogram::new())));
        assert!(span.start.is_none(), "disabled spans must not read the clock");
        drop(span);
        set_enabled(true);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0.0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn registry_handles_are_stable_and_macros_cache_them() {
        let a = Registry::global().counter("obs_test/stable");
        let b = Registry::global().counter("obs_test/stable");
        assert!(std::ptr::eq(a, b), "same name must resolve to the same handle");
        let m1 = counter!("obs_test/macro");
        let m2 = counter!("obs_test/macro");
        assert!(std::ptr::eq(m1, m2));
    }

    #[test]
    fn snapshot_json_contains_every_metric_kind() {
        let _guard = ENABLED_LOCK.lock().unwrap();
        counter!("obs_test/json_counter").add(7);
        gauge!("obs_test/json_gauge").set(0.5);
        histogram!("obs_test/json_hist").record(1000);
        let snapshot = Registry::global().snapshot();
        assert!(snapshot.counter("obs_test/json_counter").unwrap() >= 7);
        assert_eq!(snapshot.gauge("obs_test/json_gauge"), Some(0.5));
        assert!(snapshot.histogram("obs_test/json_hist").unwrap().count >= 1);
        assert!(snapshot.histogram("obs_test/missing").is_none());

        // The JSON document round-trips through the shared JsonValue parser.
        let json = snapshot.to_json();
        let parsed = JsonValue::parse(&json).expect("snapshot JSON must parse");
        assert_eq!(parsed.get("format").and_then(JsonValue::as_str), Some(METRICS_JSON_FORMAT));
        assert_eq!(parsed.get("version").and_then(JsonValue::as_f64), Some(METRICS_JSON_VERSION as f64));
        let counters = parsed.get("counters").expect("counters object");
        assert!(counters.get("obs_test/json_counter").and_then(JsonValue::as_f64).unwrap() >= 7.0);
        let hist = parsed.get("histograms").and_then(|h| h.get("obs_test/json_hist")).expect("histogram");
        assert!(hist.get("count").and_then(JsonValue::as_f64).unwrap() >= 1.0);
        assert!(hist.get("buckets").and_then(JsonValue::as_array).is_some());
    }

    #[test]
    fn snapshot_names_are_sorted() {
        counter!("obs_test/z_last").inc();
        counter!("obs_test/a_first").inc();
        let snapshot = Registry::global().snapshot();
        let names: Vec<&str> = snapshot.counters.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "snapshot must list metrics in sorted name order");
    }

    #[test]
    fn snapshot_save_writes_parseable_json() {
        counter!("obs_test/saved").inc();
        let path = std::env::temp_dir().join("xrlflow_obs_test/metrics.json");
        Registry::global().snapshot().save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(JsonValue::parse(&text).is_ok());
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}
