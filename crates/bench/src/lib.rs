//! # xrlflow-bench
//!
//! The benchmark harness regenerating every table and figure of the paper's
//! evaluation. Each table/figure has a dedicated binary (`table1`, `table2`,
//! `table3`, `fig4`, `fig5`, `fig6`, `fig7`, `fig8`, `table4`) that prints
//! the same rows/series the paper reports. The micro-benchmarks under
//! `benches/` are plain `harness = false` timing binaries (no Criterion):
//! they time the substrates (tensor kernels, rewrite engine, cost model,
//! GNN, e-graph, optimisers, rollout, PPO update, serving, telemetry).
//!
//! All binaries honour these environment variables:
//!
//! * `XRLFLOW_SCALE` — `bench` (default) or `paper`, selecting the model-zoo
//!   depth preset;
//! * `XRLFLOW_EPISODES` — RL training episodes per model for the figures that
//!   train an agent (default: a CPU-friendly handful);
//! * `XRLFLOW_ITERS` — timed iterations per micro-benchmark (the CI
//!   `bench-smoke` job sets a tiny value);
//! * `XRLFLOW_BENCH_JSON` — when set, a path the binary writes its recorded
//!   results to as JSON (uploaded as a CI artifact to track the perf
//!   trajectory per PR).
//!
//! [`oracle`] holds the serial oracles of the rollout engine and the
//! data-parallel update, which the differential tests of `xrlflow-core` and
//! `xrlflow-rollout` compare the supervised pool against.

pub mod fixtures;
pub mod oracle;

use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use xrlflow_graph::models::ModelScale;
use xrlflow_graph::JsonValue;

/// One recorded measurement: a metric name, its value and the value's unit
/// (`"ns/iter"` for timings, `"x"` for speedup ratios).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Metric name, e.g. `"policy_evaluation/batched/BERT"`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit of the value.
    pub unit: &'static str,
}

/// Every result reported so far in this process, in report order. Collected
/// so benchmark binaries can emit a machine-readable JSON artifact (the CI
/// `bench-smoke` job uploads it to track the perf trajectory per PR).
static RESULTS: Mutex<Vec<BenchRecord>> = Mutex::new(Vec::new());

fn record(name: &str, value: f64, unit: &'static str) {
    RESULTS.lock().expect("bench result lock").push(BenchRecord { name: name.to_string(), value, unit });
}

/// Times `f` over `iters` iterations after `warmup` warmup runs and returns
/// the mean wall-clock nanoseconds per iteration. The dependency-free
/// replacement for the Criterion harness (the build environment has no
/// crates.io access); benches are plain `harness = false` binaries built on
/// this.
pub fn time_ns<R>(warmup: usize, iters: usize, mut f: impl FnMut() -> R) -> f64 {
    assert!(iters > 0, "iters must be positive");
    for _ in 0..warmup {
        black_box(f());
    }
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// [`time_ns`] for work that consumes a fresh input per run: `setup` builds
/// the input outside the timed region (a graph nothing has hashed yet), only
/// `f` is timed.
pub fn time_with_setup_ns<I, R>(
    warmup: usize,
    iters: usize,
    mut setup: impl FnMut() -> I,
    mut f: impl FnMut(&I) -> R,
) -> f64 {
    assert!(iters > 0, "iters must be positive");
    let mut timed = std::time::Duration::ZERO;
    for iter in 0..warmup + iters {
        let input = black_box(setup());
        let start = Instant::now();
        let result = black_box(f(&input));
        if iter >= warmup {
            timed += start.elapsed();
        }
        drop((result, input));
    }
    timed.as_nanos() as f64 / iters as f64
}

/// Prints one benchmark result line in the harness's standard format and
/// records it for [`write_results_json`].
pub fn report(name: &str, ns_per_iter: f64) {
    if ns_per_iter >= 1e6 {
        println!("{name:<44} {:>12.3} ms/iter", ns_per_iter / 1e6);
    } else if ns_per_iter >= 1e3 {
        println!("{name:<44} {:>12.3} µs/iter", ns_per_iter / 1e3);
    } else {
        println!("{name:<44} {:>12.1} ns/iter", ns_per_iter);
    }
    record(name, ns_per_iter, "ns/iter");
}

/// Prints a speedup ratio (e.g. serial over batched time) and records it for
/// [`write_results_json`].
pub fn report_ratio(name: &str, ratio: f64) {
    println!("{name:<44} {ratio:>11.2}x");
    record(name, ratio, "x");
}

/// Prints a throughput value in events per second (e.g. rollout
/// episodes/sec) and records it for [`write_results_json`] with unit
/// `"eps/s"`.
pub fn report_rate(name: &str, per_sec: f64) {
    println!("{name:<44} {per_sec:>11.2} eps/s");
    record(name, per_sec, "eps/s");
}

/// Writes every result reported so far as a JSON document:
/// `{"bench": <name>, "results": [{"name", "value", "unit"}, ...]}`, through
/// the workspace's one JSON writer ([`JsonValue::to_json`], which renders a
/// non-finite value as `null`).
///
/// # Errors
///
/// Returns any I/O error from creating parent directories or writing.
pub fn write_results_json(bench: &str, path: &Path) -> std::io::Result<()> {
    let string = |s: &str| JsonValue::String(s.to_string());
    let results = RESULTS
        .lock()
        .expect("bench result lock")
        .iter()
        .map(|r| {
            JsonValue::Object(vec![
                ("name".to_string(), string(&r.name)),
                ("value".to_string(), JsonValue::Number(r.value)),
                ("unit".to_string(), string(r.unit)),
            ])
        })
        .collect();
    let document = JsonValue::Object(vec![
        ("bench".to_string(), string(bench)),
        ("results".to_string(), JsonValue::Array(results)),
    ]);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    // Atomic so an interrupted benchmark run cannot leave a torn JSON file
    // for the CI diff gate to choke on.
    xrlflow_tensor::atomic_write(path, document.to_json() + "\n")
}

/// Called at the end of every benchmark binary: when `XRLFLOW_BENCH_JSON` is
/// set, writes the recorded results there (the CI `bench-smoke` job uploads
/// the file as a workflow artifact and diffs it against the committed
/// `BENCH_<bench>.json` baseline).
///
/// This is the **single** producer of the benchmark JSON schema; the
/// consumer side is [`parse_results_json`] / [`diff_reports`], so the
/// binaries, the committed baselines and the CI diff gate can never drift
/// apart on format.
pub fn finish(bench: &str) {
    if let Ok(path) = std::env::var("XRLFLOW_BENCH_JSON") {
        match write_results_json(bench, Path::new(&path)) {
            Ok(()) => println!("\nwrote benchmark JSON to {path}"),
            Err(e) => eprintln!("failed to write benchmark JSON to {path}: {e}"),
        }
    }
}

/// One metric parsed back from a benchmark JSON document.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedRecord {
    /// Metric name, e.g. `"policy_evaluation/batched/BERT"`.
    pub name: String,
    /// Measured value; `None` when the binary recorded a non-finite value.
    pub value: Option<f64>,
    /// Unit string (`"ns/iter"`, `"x"`, `"eps/s"`).
    pub unit: String,
}

/// A benchmark JSON document parsed back into memory — the read side of the
/// schema [`write_results_json`] produces.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// The benchmark binary's name.
    pub bench: String,
    /// Every recorded metric, in report order.
    pub results: Vec<ParsedRecord>,
}

/// Parses a benchmark JSON document produced by [`write_results_json`].
///
/// Syntax is [`JsonValue::parse`]'s (arbitrary whitespace and key order,
/// trailing content rejected); on top of it only the schema's own shape is
/// accepted.
///
/// # Errors
///
/// Returns a description of the first syntax or schema violation.
pub fn parse_results_json(text: &str) -> Result<BenchReport, String> {
    let document = JsonValue::parse(text)?;
    let (mut bench, mut results) = (None, None);
    for (key, value) in document.as_object().ok_or("expected a JSON object")? {
        match key.as_str() {
            "bench" => bench = Some(value.as_str().ok_or("\"bench\" must be a string")?.to_string()),
            "results" => {
                let items = value.as_array().ok_or("\"results\" must be an array")?;
                results = Some(items.iter().map(parse_record).collect::<Result<Vec<_>, _>>()?);
            }
            other => return Err(format!("unknown key {other:?}")),
        }
    }
    Ok(BenchReport {
        bench: bench.ok_or("missing \"bench\" key")?,
        results: results.ok_or("missing \"results\" key")?,
    })
}

/// One `{"name", "value", "unit"}` entry of the results array.
fn parse_record(record: &JsonValue) -> Result<ParsedRecord, String> {
    let (mut name, mut value, mut unit) = (None, None, None);
    for (key, field) in record.as_object().ok_or("a result must be an object")? {
        let string =
            || field.as_str().map(str::to_string).ok_or_else(|| format!("result {key:?} must be a string"));
        match key.as_str() {
            "name" => name = Some(string()?),
            "unit" => unit = Some(string()?),
            "value" => {
                value = Some(match field {
                    JsonValue::Null => None,
                    other => Some(other.as_f64().ok_or("result \"value\" must be a number or null")?),
                })
            }
            other => return Err(format!("unknown result key {other:?}")),
        }
    }
    Ok(ParsedRecord {
        name: name.ok_or("result missing \"name\"")?,
        value: value.ok_or("result missing \"value\"")?,
        unit: unit.ok_or("result missing \"unit\"")?,
    })
}

/// Verdict of one metric's baseline comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrendStatus {
    /// Within the regression threshold (or not judgeable: null/zero values).
    Ok,
    /// Worse than the baseline by more than the threshold factor.
    Regressed,
    /// Present in the baseline but absent from the fresh run — the binary
    /// dropped or renamed a metric without regenerating the baseline.
    MissingInCurrent,
    /// Present in both but with different units — the values are
    /// incommensurate, so no trend can be computed; regenerate the baseline.
    UnitChanged,
    /// Present only in the fresh run (a newly added metric; informational).
    NewInCurrent,
}

/// One row of a baseline-vs-current trend comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricTrend {
    /// Metric name.
    pub name: String,
    /// Unit string (drives the comparison direction).
    pub unit: String,
    /// Baseline value, when the metric exists in the baseline.
    pub baseline: Option<f64>,
    /// Fresh value, when the metric exists in the current run.
    pub current: Option<f64>,
    /// Direction-normalised regression factor: how many times *worse* the
    /// current value is than the baseline (`> 1` is worse, `< 1` is better,
    /// regardless of whether the unit is higher- or lower-is-better).
    pub factor: Option<f64>,
    /// The comparison verdict.
    pub status: TrendStatus,
}

/// `true` for units where a larger value is an improvement (`"x"` ratios,
/// `"eps/s"` throughput); timings (`"ns/iter"`) are lower-is-better.
pub fn higher_is_better(unit: &str) -> bool {
    matches!(unit, "x" | "eps/s")
}

/// Compares a fresh benchmark report against its committed baseline.
///
/// Shared-runner numbers are noisy, so the comparison is a *trend line with
/// a catastrophe gate*: a metric only counts as [`TrendStatus::Regressed`]
/// when it is worse than the baseline by more than `threshold` (the CI gate
/// uses 3×). Metrics that vanished from the current run are flagged
/// [`TrendStatus::MissingInCurrent`] (regenerate the baseline when renaming
/// metrics); new metrics are informational. Rows follow baseline order, then
/// any new metrics in current-run order.
pub fn diff_reports(baseline: &BenchReport, current: &BenchReport, threshold: f64) -> Vec<MetricTrend> {
    let mut trends = Vec::new();
    for base in &baseline.results {
        let fresh = current.results.iter().find(|r| r.name == base.name);
        let Some(fresh) = fresh else {
            trends.push(MetricTrend {
                name: base.name.clone(),
                unit: base.unit.clone(),
                baseline: base.value,
                current: None,
                factor: None,
                status: TrendStatus::MissingInCurrent,
            });
            continue;
        };
        if fresh.unit != base.unit {
            // Incommensurate values: comparing them with the baseline's
            // direction would read a unit change as a huge regression (or
            // mask a real one).
            trends.push(MetricTrend {
                name: base.name.clone(),
                unit: format!("{} -> {}", base.unit, fresh.unit),
                baseline: base.value,
                current: fresh.value,
                factor: None,
                status: TrendStatus::UnitChanged,
            });
            continue;
        }
        let factor = match (base.value, fresh.value) {
            (Some(b), Some(c)) if b > 0.0 && c > 0.0 => {
                Some(if higher_is_better(&base.unit) { b / c } else { c / b })
            }
            _ => None,
        };
        let status = match (base.value, fresh.value, factor) {
            // A real baseline measurement that became non-finite (recorded
            // as null) is a broken metric, not an unjudgeable one.
            (Some(_), None, _) => TrendStatus::Regressed,
            (_, _, Some(f)) if f > threshold => TrendStatus::Regressed,
            _ => TrendStatus::Ok,
        };
        trends.push(MetricTrend {
            name: base.name.clone(),
            unit: base.unit.clone(),
            baseline: base.value,
            current: fresh.value,
            factor,
            status,
        });
    }
    for fresh in &current.results {
        if !baseline.results.iter().any(|r| r.name == fresh.name) {
            trends.push(MetricTrend {
                name: fresh.name.clone(),
                unit: fresh.unit.clone(),
                baseline: None,
                current: fresh.value,
                factor: None,
                status: TrendStatus::NewInCurrent,
            });
        }
    }
    trends
}

/// `true` when no trend row fails the gate (no gross regression, no metric
/// silently dropped).
pub fn trends_pass(trends: &[MetricTrend]) -> bool {
    trends.iter().all(|t| {
        !matches!(t.status, TrendStatus::Regressed | TrendStatus::MissingInCurrent | TrendStatus::UnitChanged)
    })
}

/// Renders the trend comparison as a GitHub-flavoured Markdown table
/// (written to the CI job summary by the `bench_diff` tool).
pub fn render_trend_markdown(bench: &str, trends: &[MetricTrend], threshold: f64) -> String {
    let fmt_value = |v: Option<f64>| v.map_or_else(|| "—".to_string(), |v| format!("{v:.4}"));
    let mut out = format!(
        "### Bench trend: `{bench}` (gate: >{threshold:.0}× regression)\n\n\
         | metric | unit | baseline | current | trend | status |\n\
         |---|---|---:|---:|---:|---|\n"
    );
    for t in trends {
        let trend = t.factor.map_or_else(
            || "—".to_string(),
            |f| {
                if (f - 1.0).abs() < 0.005 {
                    "≈1.00×".to_string()
                } else if f > 1.0 {
                    format!("{f:.2}× worse")
                } else {
                    format!("{:.2}× better", 1.0 / f)
                }
            },
        );
        let status = match t.status {
            TrendStatus::Ok => "ok",
            TrendStatus::Regressed => "**REGRESSED**",
            TrendStatus::MissingInCurrent => "**MISSING** (regenerate baseline?)",
            TrendStatus::UnitChanged => "**UNIT CHANGED** (regenerate baseline)",
            TrendStatus::NewInCurrent => "new",
        };
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} | {} |\n",
            t.name,
            t.unit,
            fmt_value(t.baseline),
            fmt_value(t.current),
            trend,
            status
        ));
    }
    out
}

/// Reads the model-scale preset from `XRLFLOW_SCALE` (default: bench).
pub fn scale_from_env() -> ModelScale {
    match std::env::var("XRLFLOW_SCALE").as_deref() {
        Ok("paper") | Ok("Paper") | Ok("PAPER") => ModelScale::Paper,
        _ => ModelScale::Bench,
    }
}

/// Reads a `usize` configuration knob from the environment, falling back to
/// `default` when the variable is unset or unparsable.
pub fn env_usize(var: &str, default: usize) -> usize {
    std::env::var(var).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Reads the per-model training-episode budget from `XRLFLOW_EPISODES`.
pub fn episodes_from_env(default: usize) -> usize {
    env_usize("XRLFLOW_EPISODES", default)
}

/// Reads the timed-iteration budget for micro-benchmarks from
/// `XRLFLOW_ITERS` (the CI smoke job sets a tiny value).
pub fn iters_from_env(default: usize) -> usize {
    env_usize("XRLFLOW_ITERS", default).max(1)
}

/// Formats a simple aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(c.len())))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&render_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Renders a rule-application heatmap (rule name x workload counts) as text,
/// in the style of Figure 5.
pub fn render_heatmap(counts: &HashMap<String, HashMap<&'static str, usize>>) -> String {
    // Collect the union of rules applied at least once, as the paper does.
    let mut rules: Vec<&'static str> = counts
        .values()
        .flat_map(|per_rule| per_rule.keys().copied())
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    rules.sort_unstable();
    let headers: Vec<&str> = std::iter::once("DNN").chain(rules.iter().copied()).collect();
    let mut workloads: Vec<&String> = counts.keys().collect();
    workloads.sort();
    let rows: Vec<Vec<String>> = workloads
        .into_iter()
        .map(|w| {
            let per_rule = &counts[w];
            std::iter::once(w.clone())
                .chain(
                    rules
                        .iter()
                        .map(|r| per_rule.get(r).map(|c| c.to_string()).unwrap_or_else(|| "-".to_string())),
                )
                .collect()
        })
        .collect();
    render_table(&headers, &rows)
}

/// Mean and sample standard deviation (divided by `n − 1`) of a slice; the
/// spread of fewer than two values is zero.
pub fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.len() < 2 {
        return (values.first().copied().unwrap_or(0.0), 0.0);
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (values.len() - 1) as f64;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_table_aligns_columns() {
        let t = render_table(
            &["DNN", "Speedup"],
            &[vec!["BERT".into(), "8.3%".into()], vec!["InceptionV3".into(), "4.1%".into()]],
        );
        assert!(t.contains("BERT"));
        assert!(t.contains("InceptionV3"));
        assert!(t.lines().count() >= 4);
    }

    #[test]
    fn mean_std_of_constant_is_zero_std() {
        let (m, s) = mean_std(&[2.0, 2.0, 2.0]);
        assert_eq!(m, 2.0);
        assert_eq!(s, 0.0);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
        assert_eq!(mean_std(&[3.5]), (3.5, 0.0));
        // The sample spread divides by n − 1: √(5/3), not the population √1.25.
        let (m, s) = mean_std(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m, 2.5);
        assert!((s - 1.2910).abs() < 1e-4, "sample std of [1, 2, 3, 4] is {s}");
    }

    #[test]
    fn heatmap_renders_union_of_rules() {
        let mut counts = HashMap::new();
        let mut bert = HashMap::new();
        bert.insert("fuse-matmul-bias", 3usize);
        counts.insert("BERT".to_string(), bert);
        let mut incep = HashMap::new();
        incep.insert("fuse-conv-relu", 5usize);
        counts.insert("InceptionV3".to_string(), incep);
        let rendered = render_heatmap(&counts);
        assert!(rendered.contains("fuse-matmul-bias"));
        assert!(rendered.contains("fuse-conv-relu"));
        assert!(rendered.contains("-"));
    }

    #[test]
    fn env_defaults() {
        assert_eq!(env_usize("XRLFLOW_NO_SUCH_VAR", 17), 17);
        // iters_from_env reads ambient XRLFLOW_ITERS (which a developer
        // reproducing the CI smoke environment may have set); it must always
        // return a usable iteration count.
        assert!(iters_from_env(20) >= 1);
    }

    #[test]
    fn parse_results_json_round_trips_the_writer_schema() {
        report("roundtrip/timing", 987.25);
        report_ratio("roundtrip/speedup", 4.5);
        report_rate("roundtrip/rate", 12.0);
        report("roundtrip/a\"b\\c\there", 1.0);
        report_ratio("roundtrip/non_finite", f64::NAN);
        let path = std::env::temp_dir().join("xrlflow_bench_parse_test/results.json");
        write_results_json("bench_roundtrip", &path).unwrap();
        let written = std::fs::read_to_string(&path).unwrap();
        assert!(written.contains("roundtrip/a\\\"b\\\\c\\u0009here"), "special characters are escaped");
        let parsed = parse_results_json(&written).unwrap();
        assert_eq!(parsed.bench, "bench_roundtrip");
        assert!(parsed.results.iter().any(|r| r.name == "roundtrip/a\"b\\c\there"));
        let find = |name: &str| parsed.results.iter().find(|r| r.name == name).unwrap().clone();
        assert_eq!(
            find("roundtrip/timing"),
            ParsedRecord { name: "roundtrip/timing".into(), value: Some(987.25), unit: "ns/iter".into() }
        );
        assert_eq!(find("roundtrip/speedup").value, Some(4.5));
        assert_eq!(find("roundtrip/rate").unit, "eps/s");
        assert_eq!(find("roundtrip/non_finite").value, None, "a non-finite value is written as null");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn parse_results_json_handles_escapes_null_and_rejects_garbage() {
        let parsed = parse_results_json(
            "{\"bench\": \"b\", \"results\": [{\"name\": \"a\\\"b\\u0009\", \"value\": null, \"unit\": \"x\"}]}",
        )
        .unwrap();
        assert_eq!(parsed.results[0].name, "a\"b\t");
        assert_eq!(parsed.results[0].value, None);
        assert!(parse_results_json("not json").is_err());
        assert!(parse_results_json("{\"bench\": \"b\"}").is_err(), "missing results must be rejected");
        assert!(
            parse_results_json("{\"bench\": \"b\", \"results\": []} extra").is_err(),
            "trailing content must be rejected"
        );
    }

    fn record_with(name: &str, value: Option<f64>, unit: &str) -> ParsedRecord {
        ParsedRecord { name: name.into(), value, unit: unit.into() }
    }

    #[test]
    fn diff_reports_gates_on_gross_regressions_only() {
        let baseline = BenchReport {
            bench: "b".into(),
            results: vec![
                record_with("timing", Some(100.0), "ns/iter"),
                record_with("rate", Some(10.0), "eps/s"),
                record_with("ratio", Some(2.0), "x"),
            ],
        };
        // Noise-level wobble passes; only >3x counts.
        let noisy = BenchReport {
            bench: "b".into(),
            results: vec![
                record_with("timing", Some(250.0), "ns/iter"), // 2.5x slower: noise
                record_with("rate", Some(4.0), "eps/s"),       // 2.5x slower: noise
                record_with("ratio", Some(5.0), "x"),          // better
            ],
        };
        let trends = diff_reports(&baseline, &noisy, 3.0);
        assert!(trends_pass(&trends));
        assert!(trends.iter().all(|t| t.status == TrendStatus::Ok));

        let regressed = BenchReport {
            bench: "b".into(),
            results: vec![
                record_with("timing", Some(500.0), "ns/iter"), // 5x slower: gate
                record_with("rate", Some(2.0), "eps/s"),       // 5x slower: gate
                record_with("ratio", Some(2.1), "x"),
            ],
        };
        let trends = diff_reports(&baseline, &regressed, 3.0);
        assert!(!trends_pass(&trends));
        assert_eq!(trends[0].status, TrendStatus::Regressed);
        assert_eq!(trends[1].status, TrendStatus::Regressed, "lower eps/s must regress");
        assert_eq!(trends[2].status, TrendStatus::Ok);
        assert!((trends[0].factor.unwrap() - 5.0).abs() < 1e-9);
        assert!((trends[1].factor.unwrap() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn diff_reports_flags_missing_and_new_metrics() {
        let baseline =
            BenchReport { bench: "b".into(), results: vec![record_with("old", Some(1.0), "ns/iter")] };
        let current =
            BenchReport { bench: "b".into(), results: vec![record_with("new", Some(1.0), "ns/iter")] };
        let trends = diff_reports(&baseline, &current, 3.0);
        assert_eq!(trends.len(), 2);
        assert_eq!(trends[0].status, TrendStatus::MissingInCurrent);
        assert_eq!(trends[1].status, TrendStatus::NewInCurrent);
        assert!(!trends_pass(&trends), "a silently dropped metric must fail the gate");
        // A finite baseline degrading to null (non-finite measurement) is a
        // broken metric and must fail the gate...
        let nulls = BenchReport { bench: "b".into(), results: vec![record_with("old", None, "ns/iter")] };
        let trends = diff_reports(&baseline, &nulls, 3.0);
        assert_eq!(trends[0].status, TrendStatus::Regressed);
        assert_eq!(trends[0].factor, None);
        assert!(!trends_pass(&trends));
        // ...while a null-to-null metric stays unjudgeable.
        let null_base = BenchReport { bench: "b".into(), results: vec![record_with("old", None, "ns/iter")] };
        let trends = diff_reports(&null_base, &nulls, 3.0);
        assert_eq!(trends[0].status, TrendStatus::Ok);
        // A same-named metric with a different unit is incommensurate: no
        // factor, and the gate fails until the baseline is regenerated.
        let changed =
            BenchReport { bench: "b".into(), results: vec![record_with("old", Some(1e9), "eps/s")] };
        let trends = diff_reports(&baseline, &changed, 3.0);
        assert_eq!(trends[0].status, TrendStatus::UnitChanged);
        assert_eq!(trends[0].factor, None);
        assert!(!trends_pass(&trends));
    }

    #[test]
    fn trend_markdown_renders_every_row() {
        let baseline =
            BenchReport { bench: "b".into(), results: vec![record_with("m", Some(100.0), "ns/iter")] };
        let current =
            BenchReport { bench: "b".into(), results: vec![record_with("m", Some(450.0), "ns/iter")] };
        let trends = diff_reports(&baseline, &current, 3.0);
        let md = render_trend_markdown("bench_x", &trends, 3.0);
        assert!(md.contains("`bench_x`"));
        assert!(md.contains("| `m` |"));
        assert!(md.contains("REGRESSED"));
        assert!(md.contains("4.50× worse"));
    }

    #[test]
    fn report_records_and_write_results_json_emits_them() {
        report("json_test/timing", 1234.5);
        report_ratio("json_test/speedup", 2.5);
        let path = std::env::temp_dir().join("xrlflow_bench_json_test/results.json");
        write_results_json("bench_lib_test", &path).unwrap();
        let written = std::fs::read_to_string(&path).unwrap();
        assert!(written.starts_with("{\"bench\": \"bench_lib_test\""));
        assert!(
            written.contains("{\"name\": \"json_test/timing\", \"value\": 1234.5, \"unit\": \"ns/iter\"}")
        );
        assert!(written.contains("{\"name\": \"json_test/speedup\", \"value\": 2.5, \"unit\": \"x\"}"));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}
