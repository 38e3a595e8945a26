//! Telemetry overhead benchmark: per-record cost of each metric primitive
//! (ns/op) and the end-to-end overhead of an instrumented rollout versus the
//! same rollout with telemetry disabled.
//!
//! The headline metric is `obs/rollout/uninstrumented_over_instrumented`:
//! wall-clock of a telemetry-disabled collection divided by the same
//! collection with the registry active. A healthy build sits at ~1.0x
//! (the "<2% overhead" contract from ROADMAP.md's telemetry rules); if
//! instrumentation ever gets expensive the ratio drops and the direction-
//! aware CI gate flags it.
//!
//! Knobs: `XRLFLOW_ITERS` (timed repetitions), `XRLFLOW_MAX_CANDIDATES`
//! (action-space bound), `XRLFLOW_OBS_EPISODES` (episodes per timed rollout
//! batch), `XRLFLOW_BENCH_JSON` (result artifact path).

use xrlflow_bench::{env_usize, finish, iters_from_env, report, report_ratio, time_ns};
use xrlflow_core::{XrlflowAgent, XrlflowConfig};
use xrlflow_cost::DeviceProfile;
use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
use xrlflow_rewrite::RuleSet;
use xrlflow_rollout::{collect_parallel, EnvSpec};

/// Records per timed batch for the primitive micro-benchmarks — large
/// enough that loop overhead and the timer read vanish in the average.
const RECORDS: usize = 100_000;

fn main() {
    let iters = iters_from_env(3);
    let episodes = env_usize("XRLFLOW_OBS_EPISODES", 2);

    println!("== telemetry record cost ({RECORDS} records/batch) ==\n");

    let counter = xrlflow_obs::counter!("bench_obs/counter");
    let ns = time_ns(1, iters, || {
        for _ in 0..RECORDS {
            counter.inc();
        }
        counter.get()
    });
    report("obs/record/counter_inc", ns / RECORDS as f64);

    let gauge = xrlflow_obs::gauge!("bench_obs/gauge");
    let ns = time_ns(1, iters, || {
        for i in 0..RECORDS {
            gauge.set(i as f64);
        }
        gauge.get()
    });
    report("obs/record/gauge_set", ns / RECORDS as f64);

    let histogram = xrlflow_obs::histogram!("bench_obs/histogram");
    let ns = time_ns(1, iters, || {
        for i in 0..RECORDS {
            histogram.record(i as u64);
        }
        histogram.count()
    });
    report("obs/record/histogram_record", ns / RECORDS as f64);

    let ns = time_ns(1, iters, || {
        for _ in 0..RECORDS {
            let _span = xrlflow_obs::span!("bench_obs/span");
        }
        xrlflow_obs::histogram!("bench_obs/span").count()
    });
    report("obs/record/span_start_drop", ns / RECORDS as f64);

    // End-to-end: the instrumented rollout hot loop (spans, busy accounting,
    // memo + candidate counters all live) vs the identical loop with the
    // global enabled flag off. Identical seeds, bit-identical episodes —
    // the only difference is whether records land. The per-batch cost is
    // milliseconds while the true instrumentation delta is microseconds, so
    // two separately-timed blocks would drown in scheduler noise; instead
    // the modes are interleaved batch-by-batch and each mode reports its
    // best (minimum) batch time, which is robust to one-sided noise spikes.
    println!("\n== instrumented vs uninstrumented rollout ({episodes} episodes/batch) ==\n");
    let mut config = XrlflowConfig::bench();
    config.env.max_candidates = env_usize("XRLFLOW_MAX_CANDIDATES", config.env.max_candidates);
    let graph = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
    let spec = EnvSpec::new(graph, RuleSet::standard(), DeviceProfile::gtx1080(), config.env.clone());
    let snapshot = XrlflowAgent::new(&config, 0).snapshot();

    let collect = || {
        collect_parallel(&config, &snapshot, &spec, 0, episodes, 7, 1)
            .expect("snapshot matches the agent architecture")
            .buffer
            .len()
    };
    // Warm both paths before timing.
    std::hint::black_box(collect());
    xrlflow_obs::set_enabled(false);
    std::hint::black_box(collect());
    xrlflow_obs::set_enabled(true);

    let pairs = iters.max(1) * 4;
    let mut instrumented_ns = f64::INFINITY;
    let mut uninstrumented_ns = f64::INFINITY;
    for _ in 0..pairs {
        let start = std::time::Instant::now();
        std::hint::black_box(collect());
        instrumented_ns = instrumented_ns.min(start.elapsed().as_nanos() as f64);

        xrlflow_obs::set_enabled(false);
        let start = std::time::Instant::now();
        std::hint::black_box(collect());
        uninstrumented_ns = uninstrumented_ns.min(start.elapsed().as_nanos() as f64);
        xrlflow_obs::set_enabled(true);
    }

    report("obs/rollout/instrumented", instrumented_ns);
    report("obs/rollout/uninstrumented", uninstrumented_ns);
    report_ratio("obs/rollout/uninstrumented_over_instrumented", uninstrumented_ns / instrumented_ns);
    let overhead_percent = (instrumented_ns / uninstrumented_ns - 1.0) * 100.0;
    println!("  (instrumentation overhead: {overhead_percent:+.2}% — contract: < 2%)");

    finish("bench_obs");
}
