//! Parallel rollout engine benchmark: episode-collection throughput
//! (episodes/sec) at 1 vs N workers on SqueezeNet and BERT.
//!
//! Every worker count replays the identical per-episode seed schedule
//! against one agent that `collect_parallel` builds from the snapshot per
//! call and lends to all its workers, so all configurations collect
//! bit-identical transitions — the only thing that varies is wall-clock
//! time. The speedup therefore measures pure engine scaling and is bounded
//! by the hardware: expect ~1x on a single-core container and ~min(W, cores)
//! on real multi-core machines (the CI `bench-smoke` runners have several
//! cores). The engine never starts more threads than the process may use
//! CPUs, so an `Nw` leg runs `min(N, cores)` threads; each leg prints that
//! count next to its rate.
//!
//! Knobs: `XRLFLOW_ITERS` (timed repetitions), `XRLFLOW_MAX_CANDIDATES`
//! (action-space bound), `XRLFLOW_ROLLOUT_EPISODES` (episodes per timed
//! batch), `XRLFLOW_BENCH_JSON` (result artifact path).

use xrlflow_bench::{env_usize, finish, iters_from_env, report_rate, report_ratio, time_ns};
use xrlflow_core::{XrlflowAgent, XrlflowConfig};
use xrlflow_cost::DeviceProfile;
use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
use xrlflow_rewrite::RuleSet;
use xrlflow_rollout::{collect_parallel, EnvSpec};

fn main() {
    let iters = iters_from_env(3);
    let episodes = env_usize("XRLFLOW_ROLLOUT_EPISODES", 8);
    let worker_counts = [1usize, 2, 4];

    let mut config = XrlflowConfig::bench();
    config.env.max_candidates = env_usize("XRLFLOW_MAX_CANDIDATES", config.env.max_candidates);

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("== rollout collection throughput ({episodes} episodes/batch, {cores} cores available) ==\n");

    for kind in [ModelKind::SqueezeNet, ModelKind::Bert] {
        let graph = build_model(kind, ModelScale::Bench).unwrap();
        let spec = EnvSpec::new(graph, RuleSet::standard(), DeviceProfile::gtx1080(), config.env.clone());
        let agent = XrlflowAgent::new(&config, 0);
        let snapshot = agent.snapshot();
        println!("-- {}", kind.name());

        let mut eps_per_sec = Vec::new();
        for &workers in &worker_counts {
            let ns = time_ns(1, iters, || {
                collect_parallel(&config, &snapshot, &spec, 0, episodes, 7, workers)
                    .expect("snapshot matches the agent architecture")
                    .buffer
                    .len()
            });
            let rate = episodes as f64 / (ns / 1e9);
            report_rate(&format!("rollout/episodes_per_sec/{}w/{}", workers, kind.name()), rate);
            println!("  ({workers}w: threads started = {})", workers.min(cores));
            eps_per_sec.push(rate);
        }
        report_ratio(
            &format!("rollout/speedup_4w_vs_1w/{}", kind.name()),
            eps_per_sec[eps_per_sec.len() - 1] / eps_per_sec[0],
        );
        println!();
    }

    finish("bench_rollout");
}
