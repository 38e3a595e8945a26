//! Multi-model curriculum rollout benchmark: episode-collection throughput
//! across a model-zoo curriculum, per model (one thread, the live agent) and
//! for the sharded whole at 1/2/4 workers.
//!
//! The whole-curriculum legs replay the identical `(spec, episode)` seed
//! schedule against one agent that `collect_curriculum_parallel` builds from
//! the snapshot per call and lends to all its workers, so all worker counts
//! collect bit-identical transitions — the only thing that varies is
//! wall-clock time. Per-model rates show which zoo entries dominate a
//! curriculum round; the whole-curriculum rates show how well
//! `(spec, episode)` sharding turns cores into throughput (hardware-bound,
//! ~min(W, cores)). The engine never starts more threads than the process
//! may use CPUs, so an `Nw` leg runs `min(N, cores)` threads; each leg prints
//! that count next to its rate.
//!
//! Knobs: `XRLFLOW_ITERS` (timed repetitions), `XRLFLOW_MAX_CANDIDATES`
//! (action-space bound), `XRLFLOW_CURRICULUM_EPISODES` (episodes per spec
//! per timed batch), `XRLFLOW_BENCH_JSON` (result artifact path).

use xrlflow_bench::oracle::collect_curriculum_serial;
use xrlflow_bench::{env_usize, finish, iters_from_env, report_rate, report_ratio, time_ns};
use xrlflow_core::{XrlflowAgent, XrlflowConfig};
use xrlflow_cost::DeviceProfile;
use xrlflow_graph::models::{ModelKind, ModelScale};
use xrlflow_rollout::{collect_curriculum_parallel, Curriculum};

fn main() {
    let iters = iters_from_env(3);
    let episodes_per_spec = env_usize("XRLFLOW_CURRICULUM_EPISODES", 4);
    let worker_counts = [1usize, 2, 4];
    let kinds = [ModelKind::SqueezeNet, ModelKind::ResNet18, ModelKind::Bert];

    let mut config = XrlflowConfig::bench();
    config.env.max_candidates = env_usize("XRLFLOW_MAX_CANDIDATES", config.env.max_candidates);

    let curriculum =
        Curriculum::from_model_zoo(&kinds, ModelScale::Bench, DeviceProfile::gtx1080(), config.env.clone())
            .expect("model zoo builds");
    let agent = XrlflowAgent::new(&config, 0);
    let snapshot = agent.snapshot();

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "== curriculum collection throughput ({} models x {episodes_per_spec} episodes/batch, {cores} cores) ==\n",
        curriculum.len()
    );

    // Per-model episodes/sec: a one-entry curriculum isolates each zoo
    // entry's collection cost. Timed on one thread against the live agent
    // (`xrlflow_bench::oracle`'s serial collector, the same episode loop the
    // pool runs) so no per-call agent build or pool contaminates the number
    // — the per-model rate is about the model, not the pool.
    for entry in curriculum.entries() {
        let single = Curriculum::new().with_entry(entry.name.clone(), entry.spec.clone());
        let ns = time_ns(1, iters, || {
            collect_curriculum_serial(&agent, &single, 0, episodes_per_spec, 7).buffer.len()
        });
        let rate = episodes_per_spec as f64 / (ns / 1e9);
        report_rate(&format!("curriculum/episodes_per_sec/{}", entry.name), rate);
    }
    println!();

    // Whole-curriculum rates: (spec, episode) items sharded across the pool.
    let total_episodes = curriculum.len() * episodes_per_spec;
    let mut eps_per_sec = Vec::new();
    for &workers in &worker_counts {
        let ns = time_ns(1, iters, || {
            collect_curriculum_parallel(&config, &snapshot, &curriculum, 0, episodes_per_spec, 7, workers)
                .expect("snapshot matches the agent architecture")
                .buffer
                .len()
        });
        let rate = total_episodes as f64 / (ns / 1e9);
        report_rate(&format!("curriculum/episodes_per_sec/{workers}w/all"), rate);
        println!("  ({workers}w: threads started = {})", workers.min(cores));
        eps_per_sec.push(rate);
    }
    report_ratio("curriculum/speedup_4w_vs_1w", eps_per_sec[eps_per_sec.len() - 1] / eps_per_sec[0]);

    finish("bench_curriculum");
}
