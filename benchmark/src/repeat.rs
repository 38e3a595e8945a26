//! `--all` and `--repeat-check`: one child process per workload run.
//!
//! A workload runs in a process of its own so that its peak memory, its
//! telemetry registry and its caches are its own.

use std::process::{Command, ExitCode};

use xrlflow::graph::JsonValue;

use crate::train::results_dir;
use crate::workload::Workload;

/// Runs one workload in a child process (its output goes straight to ours)
/// and returns whether it exited with success.
fn run_child(workload: Workload, seed: u64, seconds: f64, trace: bool) -> bool {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let status = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .status();
    matches!(status, Ok(status) if status.success())
}

/// `--all`: every workload, one after the other.
pub fn run_all(seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let mut all_ok = true;
    for workload in Workload::ALL {
        all_ok &= run_child(workload, seed, seconds, trace);
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
struct Declared {
    name: String,
    bound: f64,
}

/// Reads the declared end-to-end metrics and their bounds.
fn declared_metrics() -> Result<Vec<Declared>, String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_declared(&text)
}

fn parse_declared(text: &str) -> Result<Vec<Declared>, String> {
    let document = JsonValue::parse(text)?;
    let metrics = document.get("end_to_end").and_then(JsonValue::as_array).ok_or("no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            Ok(Declared {
                name: m.get("name").and_then(JsonValue::as_str).ok_or("metric without a name")?.to_string(),
                bound: m.get("bound").and_then(JsonValue::as_f64).ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// What `--repeat-check` needs from one finished run's result file.
#[derive(Debug, Clone, PartialEq)]
struct RunResult {
    correct: bool,
    failed: f64,
    metrics: Vec<(String, f64)>,
    params_digest: Option<String>,
}

fn read_result(workload: Workload) -> Result<RunResult, String> {
    let path = results_dir().join(format!("{}.json", workload.name()));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let document = JsonValue::parse(&text)?;
    let metrics = document
        .get("metrics")
        .and_then(JsonValue::as_object)
        .ok_or("result without metrics")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(RunResult {
        correct: document.get("correct").and_then(JsonValue::as_bool).unwrap_or(false),
        failed: document.get("failed").and_then(JsonValue::as_f64).unwrap_or(f64::NAN),
        metrics,
        params_digest: document
            .get("details")
            .and_then(|d| d.get("params_digest"))
            .and_then(JsonValue::as_str)
            .map(str::to_string),
    })
}

/// Relative distance of two readings of one metric, as a share of the first.
fn relative_gap(first: f64, second: f64) -> f64 {
    ((second - first) / first).abs()
}

/// `--repeat-check`: every workload twice at the same seed. Each pair of
/// end-to-end readings must agree within the metric's bound, the quality
/// metric and the trained parameters must be identical, nothing may fail.
pub fn repeat_check(seed: u64, seconds: f64) -> ExitCode {
    let declared = match declared_metrics() {
        Ok(declared) => declared,
        Err(e) => {
            eprintln!("cannot read the declared bounds: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut breaches = Vec::new();
    let mut table = vec![format!(
        "{:<13} {:<22} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "first", "second", "gap", "bound"
    )];
    for workload in Workload::ALL {
        let mut runs = Vec::new();
        for attempt in 1..=2 {
            let exited_ok = run_child(workload, seed, seconds, false);
            match read_result(workload) {
                Ok(result) if exited_ok && result.correct && result.failed == 0.0 => runs.push(result),
                Ok(_) => {
                    breaches.push(format!("{} run {attempt}: failed operations or checks", workload.name()))
                }
                Err(e) => breaches.push(format!("{} run {attempt}: {e}", workload.name())),
            }
        }
        let [first, second] = runs.as_slice() else { continue };
        for metric in &declared {
            let reading =
                |run: &RunResult| run.metrics.iter().find(|(n, _)| *n == metric.name).map(|(_, v)| *v);
            let (Some(a), Some(b)) = (reading(first), reading(second)) else {
                breaches.push(format!("{} {}: not reported", workload.name(), metric.name));
                continue;
            };
            let gap = relative_gap(a, b);
            // The quality metric is deterministic at a fixed seed: any gap
            // at all means the two runs did different work.
            let holds = if metric.name == "optimized_latency_pct" { a == b } else { gap <= metric.bound };
            table.push(format!(
                "{:<13} {:<22} {:>14.4} {:>14.4} {:>7.2}% {:>5.0}%  {}",
                workload.name(),
                metric.name,
                a,
                b,
                gap * 100.0,
                metric.bound * 100.0,
                if holds { "ok" } else { "BREACH" }
            ));
            if !holds {
                breaches.push(format!("{} {}: {a} vs {b}", workload.name(), metric.name));
            }
        }
        if first.params_digest != second.params_digest {
            breaches.push(format!(
                "{} params_digest: {:?} vs {:?}",
                workload.name(),
                first.params_digest,
                second.params_digest
            ));
        }
    }
    println!("{}", table.join("\n"));
    for breach in &breaches {
        println!("BREACH {breach}");
    }
    if breaches.is_empty() {
        println!("repeat-check: every pair within its bound");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_bounds_are_read_from_the_benchmark_file() {
        let declared = parse_declared(
            r#"{"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
                               {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        assert_eq!(declared.len(), 2);
        assert_eq!(declared[0], Declared { name: "setup_s".to_string(), bound: 0.25 });
        assert!(parse_declared("{}").is_err());
        assert!(parse_declared(r#"{"end_to_end": [{"name": "x"}]}"#).is_err());
    }

    #[test]
    fn the_committed_benchmark_file_declares_what_the_binary_reports() {
        let names: Vec<String> = declared_metrics().unwrap().into_iter().map(|d| d.name).collect();
        for reported in [
            "setup_s",
            "latency_p50_ms",
            "latency_tail_ms",
            "throughput_per_s",
            "optimized_latency_pct",
            "peak_rss_mb",
        ] {
            assert!(names.iter().any(|n| n == reported), "{reported} is not declared");
        }
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn gaps_are_relative_to_the_first_reading() {
        assert!((relative_gap(100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((relative_gap(100.0, 95.0) - 0.05).abs() < 1e-12);
    }
}
