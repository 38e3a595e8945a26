//! `xrlflow-benchmark`: the end-to-end serve/train benchmark of the xrlflow
//! workspace, with a per-layer ledger from a separate traced run.
//!
//! ```text
//! xrlflow-benchmark --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1>]
//! xrlflow-benchmark --all --seed <u64> [--seconds <n>] [--trace <0|1>]
//! xrlflow-benchmark --repeat-check [--seed <u64>] [--seconds <n>]
//! ```
//!
//! One process runs one workload. Every metric is printed as
//! `workload metric value unit`, the run is written to
//! `benchmark/results/<workload>[.trace].json`, and the last line of the
//! standard output is the result object the driver reads. The exit code is
//! non-zero when any operation or check failed.

mod client;
mod ledger;
mod machine;
mod repeat;
mod report;
mod serve;
mod shadow;
mod stats;
mod trace;
mod train;
mod train_trace;
mod workload;

use std::process::ExitCode;

use xrlflow::graph::JsonValue;

use report::{number, object, string, Outcome};
use workload::Workload;

/// Seconds a run measures for when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 16.0;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<Workload>,
    all: bool,
    repeat_check: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        all: false,
        repeat_check: false,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| args.get(i + 1).ok_or_else(|| format!("{} needs a value", args[i]));
        match args[i].as_str() {
            "--workload" => {
                let name = value(i)?;
                parsed.workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?);
                i += 1;
            }
            "--seed" => {
                parsed.seed = value(i)?.parse().map_err(|_| "--seed takes a whole number".to_string())?;
                i += 1;
            }
            "--seconds" => {
                parsed.seconds = value(i)?.parse().map_err(|_| "--seconds takes a number".to_string())?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                i += 1;
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    parsed.trace = false;
                    i += 1;
                }
                Some("1") => {
                    parsed.trace = true;
                    i += 1;
                }
                // A bare `--trace` switches tracing on.
                Some(next) if next.starts_with("--") => parsed.trace = true,
                None => parsed.trace = true,
                Some(other) => return Err(format!("--trace takes 0 or 1, got {other:?}")),
            },
            "--all" => parsed.all = true,
            "--repeat-check" => parsed.repeat_check = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    let modes =
        usize::from(parsed.workload.is_some()) + usize::from(parsed.all) + usize::from(parsed.repeat_check);
    if modes != 1 {
        return Err("give exactly one of --workload <name>, --all, --repeat-check".to_string());
    }
    Ok(parsed)
}

/// Removes every `XRLFLOW_*` variable (worker counts, retry budgets,
/// checkpoint, cache and HTTP knobs) so the numbers never depend on the
/// caller's shell; the binary sets each of those explicitly. Returns what
/// it found, for the result file.
fn scrub_environment() -> Vec<(String, String)> {
    let found: Vec<(String, String)> =
        std::env::vars().filter(|(key, _)| key.starts_with("XRLFLOW_")).collect();
    for (key, _) in &found {
        std::env::remove_var(key);
    }
    found
}

/// The commit of the checkout the benchmark runs in, read from `.git`
/// without spawning a process; `"unknown"` outside a git checkout.
fn git_head() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |path: std::path::PathBuf| std::fs::read_to_string(path).ok().map(|s| s.trim().to_string());
    match read(git.join("HEAD")) {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(reference) => read(git.join(reference)).unwrap_or(head.clone()),
            None => head,
        },
        None => "unknown".to_string(),
    }
}

/// The run's metrics as `{name: {value, unit}}`.
fn metrics_json(outcome: &Outcome) -> JsonValue {
    let metric = |m: &report::Metric| object(vec![("value", number(m.value)), ("unit", string(m.unit))]);
    JsonValue::Object(outcome.metrics.iter().map(|m| (m.name.to_string(), metric(m))).collect())
}

/// The driver-facing result object: the last line of standard output.
fn result_line(outcome: &Outcome) -> String {
    object(vec![
        ("correct", JsonValue::Bool(outcome.correct())),
        ("attempted", number(outcome.attempted as f64)),
        ("failed", number(outcome.failed as f64)),
        ("metrics", metrics_json(outcome)),
    ])
    .to_json()
}

/// Runs one workload in this process.
fn run_workload(workload: Workload, args: &Args, scrubbed: &[(String, String)]) -> ExitCode {
    // Before any other thread exists: they all inherit the one CPU.
    let mut machine = machine::Machine::claim();
    let outcome = match (workload.is_serve(), args.trace) {
        (true, false) => serve::run(workload, args.seed, args.seconds, &mut machine),
        (true, true) => shadow::run(workload, args.seed, args.seconds, &mut machine),
        (false, false) => train::run(workload, args.seed, args.seconds, &mut machine),
        (false, true) => train_trace::run(workload, args.seed, args.seconds, &mut machine),
    };

    for metric in &outcome.metrics {
        println!("{} {} {} {}", workload.name(), metric.name, metric.value, metric.unit);
    }
    let failed_share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "{} failed_share {failed_share} ratio ({} of {})",
        workload.name(),
        outcome.failed,
        outcome.attempted
    );
    for violation in &outcome.violations {
        eprintln!("{} FAILED CHECK: {violation}", workload.name());
    }

    let mut document = vec![
        ("workload", string(workload.name())),
        ("seed", number(args.seed as f64)),
        ("seconds", number(args.seconds)),
        ("trace", JsonValue::Bool(args.trace)),
        ("correct", JsonValue::Bool(outcome.correct())),
        ("attempted", number(outcome.attempted as f64)),
        ("failed", number(outcome.failed as f64)),
        ("violations", JsonValue::Array(outcome.violations.iter().map(string).collect())),
        ("metrics", metrics_json(&outcome)),
        ("details", JsonValue::Object(outcome.details.clone())),
        ("git_head", string(git_head())),
        ("nproc", number(machine.cpus as f64)),
        (
            "scrubbed_environment",
            JsonValue::Object(scrubbed.iter().map(|(k, v)| (k.clone(), string(v.clone()))).collect()),
        ),
    ];
    if let Some(spans) = outcome.spans.clone() {
        document.push(("spans", spans));
    }
    let suffix = if args.trace { ".trace" } else { "" };
    let path = train::results_dir().join(format!("{}{suffix}.json", workload.name()));
    let written = std::fs::create_dir_all(train::results_dir())
        .and_then(|()| std::fs::write(&path, object(document).to_json()));
    if let Err(e) = written {
        eprintln!("could not write {}: {e}", path.display());
    }

    println!("{}", result_line(&outcome));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let scrubbed = scrub_environment();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            eprintln!(
                "usage: xrlflow-benchmark (--workload <name> | --all | --repeat-check) \
                 [--seed <u64>] [--seconds <n>] [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    if args.repeat_check {
        return repeat::repeat_check(args.seed, args.seconds);
    }
    if args.all {
        return repeat::run_all(args.seed, args.seconds, args.trace);
    }
    run_workload(args.workload.expect("checked by parse_args"), &args, &scrubbed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn driver_command_line_parses() {
        let parsed = args("--workload serve_mixed --seed 7 --seconds 16 --trace 1").unwrap();
        assert_eq!(parsed.workload, Some(Workload::ServeMixed));
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (7, 16.0, true));
        assert!(!args("--workload train_zoo --seed 7 --seconds 3 --trace 0").unwrap().trace);
    }

    #[test]
    fn bare_trace_and_modes() {
        assert!(args("--all --seed 1 --trace").unwrap().trace);
        assert!(args("--all --trace --seed 1").unwrap().trace);
        assert!(args("--repeat-check").unwrap().repeat_check);
        assert!(args("--all --workload serve_cold").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload nope").is_err());
        assert!(args("--workload serve_cold --trace 2").is_err());
        assert!(args("--workload serve_cold --seconds 0").is_err());
    }
}
