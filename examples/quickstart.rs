//! Quickstart: train ONE X-RLflow agent across a model-zoo curriculum with
//! the parallel rollout engine, evaluate its generalisation on a held-out
//! model it never saw during training, export the policy to a params file,
//! and optimise a graph with the reloaded policy.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! Knobs (all optional):
//! * `XRLFLOW_WORKERS=N` — worker count bounding both phases (parallel
//!   episode collection and the data-parallel PPO update; never more threads
//!   than the CPUs the process may use); any value produces bit-identical
//!   training, only wall-clock time changes.
//! * `XRLFLOW_QUICKSTART_EPISODES=N` — training episodes per curriculum
//!   model (default 4; the CI `quickstart-smoke` job sets a tiny value).
//! * `XRLFLOW_METRICS_JSON=path` — write the end-of-run telemetry snapshot
//!   (every counter, gauge and span histogram the run recorded) as a
//!   metrics JSON document to `path`.
//! * `XRLFLOW_CHECKPOINT_DIR=dir` — write durable `TrainState` checkpoints
//!   (parameters + optimiser state + schedule position) after each training
//!   round; the example then proves the newest one resumes bit-identically.

use std::collections::BTreeMap;

use xrlflow::core::{XrlflowAgent, XrlflowConfig};
use xrlflow::cost::DeviceProfile;
use xrlflow::graph::models::{ModelKind, ModelScale};
use xrlflow::rollout::{evaluate_curriculum, Curriculum, ParallelTrainer, XrlflowSystem};
use xrlflow::serve::OptimizeService;
use xrlflow::tensor::ParamSnapshot;

fn env_usize(var: &str, default: usize) -> usize {
    std::env::var(var).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn main() {
    // 1. Build a curriculum from the model zoo (structure + shapes only) and
    //    hold the last model out: the agent trains on N-1 models and is then
    //    evaluated on the one it never saw — the generalisation the paper's
    //    per-DNN agents cannot attempt.
    let config = XrlflowConfig::bench();
    let kinds = [ModelKind::SqueezeNet, ModelKind::Bert, ModelKind::ResNet18];
    let full =
        Curriculum::from_model_zoo(&kinds, ModelScale::Bench, DeviceProfile::gtx1080(), config.env.clone())
            .expect("model zoo builds");
    let (train_curriculum, held_out) = full.hold_out(full.len() - 1);
    println!("curriculum: train on {:?}, hold out {:?}", train_curriculum.names(), held_out.name);

    // 2. Create the single shared agent and the parallel trainer. Workers
    //    borrow this agent and collect seed-keyed (spec, episode) work items,
    //    so the worker count never changes a learned number.
    let mut agent = XrlflowAgent::new(&config, 42);
    let mut trainer = ParallelTrainer::new(config.clone(), 42);
    println!("agent has {} parameters; {} rollout workers", agent.num_parameters(), trainer.num_workers());

    // 3. Train across the curriculum, watching the collect/update split per
    //    PPO round (each round merges every model's episodes and normalises
    //    advantages per model, so big graphs don't drown small ones).
    let episodes_per_model = env_usize("XRLFLOW_QUICKSTART_EPISODES", 4);
    let report = trainer
        .train_curriculum(&mut agent, &train_curriculum, episodes_per_model)
        .expect("agent matches trainer config");
    for (i, (update, timing)) in report.updates.iter().zip(&report.timings).enumerate() {
        // The carried share is the policy steps that read the observed
        // graph's encoder rows from the step before: every step but each
        // episode's first. Lower means episodes are being encoded cold.
        let policy_steps = timing.carried_steps + timing.cold_steps;
        println!(
            "update {i}: collect {:7.1} ms (sim {:6.1} ms, candgen {:6.1} ms across workers; {:3.0}% of {} policy steps carried) | update {:7.1} ms ({}w) | mean episode reward {:+.3}",
            timing.collect_ms,
            timing.sim_ms,
            timing.candidate_gen_ms,
            100.0 * timing.carried_steps as f64 / policy_steps.max(1) as f64,
            policy_steps,
            timing.update_ms,
            timing.update_workers,
            update.mean_episode_reward
        );
    }
    for breakdown in &report.per_model {
        println!(
            "trained on {:>12}: {} episodes | mean reward {:+.3} | mean latency reduction {:+.2}%",
            breakdown.name,
            breakdown.episodes,
            breakdown.mean_reward,
            breakdown.mean_latency_reduction_percent
        );
    }

    // 4. Generalisation: evaluate the shared policy greedily on every model,
    //    including the held-out one it never trained on.
    println!("\ngeneralisation (greedy policy, no further training):");
    for eval in evaluate_curriculum(&agent, &full) {
        let marker = if eval.name == held_out.name { "  <- held out" } else { "" };
        println!(
            "  {:>12}: {:.3} ms -> {:.3} ms ({:+.1}% speedup, {} rewrites){marker}",
            eval.name,
            eval.stats.initial_latency_ms,
            eval.stats.final_latency_ms,
            eval.speedup_percent(),
            eval.stats.steps,
        );
    }

    // 5. Export the trained policy — a params file is the deployable
    //    artefact (what the serving layer loads and `/admin/swap` accepts);
    //    it carries no optimiser state, so it is not a training checkpoint.
    let policy = std::env::temp_dir().join("xrlflow-quickstart").join("agent.snap");
    agent.snapshot().save(&policy).expect("policy file writes");
    println!("\nexported {} parameters to {}", agent.num_parameters(), policy.display());

    // 5b. Durable exact-resume: when `XRLFLOW_CHECKPOINT_DIR` is set, the
    //     training above also wrote versioned `TrainState` checkpoints —
    //     parameters, Adam moments and the episode-schedule position, each
    //     written atomically. Prove the newest one resumes: a fresh trainer
    //     and agent restored from it match the live agent bit for bit.
    if let Some(dir) = trainer.checkpointing().map(|c| c.dir.clone()) {
        let mut resumed_trainer = ParallelTrainer::new(config.clone(), 0);
        let mut resumed_agent = XrlflowAgent::new(&config, 0);
        let resumed_at = resumed_trainer
            .resume_from_latest(&mut resumed_agent, &dir)
            .expect("train state scans and loads")
            .expect("training above wrote at least one train state");
        assert_eq!(
            resumed_agent.snapshot().to_bytes(),
            agent.snapshot().to_bytes(),
            "resumed parameters must match the live agent bit for bit"
        );
        println!(
            "durable resume: restored TrainState at episode {resumed_at} from {} — parameters bit-identical",
            dir.display()
        );
    }

    // 6. Reload the policy file into a fresh system and optimise the
    //    held-out model's graph with the restored policy acting greedily.
    let graph = held_out.spec.graph.as_ref();
    let mut system = XrlflowSystem::new(config, 0);
    let restored = ParamSnapshot::load(&policy).expect("policy file reads");
    system.agent_mut().store.load_snapshot(&restored).expect("policy matches the architecture");
    let result = system.optimize(graph);
    println!(
        "optimised {}: {} -> {} nodes, latency {:.3} ms -> {:.3} ms ({:+.1}% speedup) in {:.2}s",
        held_out.name,
        graph.num_nodes(),
        result.graph.num_nodes(),
        result.stats.initial_latency_ms,
        result.stats.final_latency_ms,
        result.stats.speedup_percent(),
        result.optimisation_time_s,
    );
    // Counted per rule and sorted by name, so two runs with one seed print
    // the same bytes.
    let mut rules_applied = BTreeMap::new();
    for &rule in &result.stats.applied_rules {
        *rules_applied.entry(rule).or_insert(0) += 1;
    }
    println!("rules applied: {rules_applied:?}");

    // 7. Serve the trained policy: one cold request (runs the policy) and
    //    one repeat (answered from the result cache), so the run trace below
    //    includes serve request-latency buckets and cache counters.
    let snapshot = agent.snapshot();
    let service = OptimizeService::from_snapshot(system.config(), &snapshot).expect("service builds");
    let cold = service.optimize(graph).expect("serve request succeeds");
    let warm = service.optimize(graph).expect("repeat serve request succeeds");
    let stats = service.stats();
    println!(
        "\nserved {} twice: cold {:.3} ms -> {:.3} ms, warm cache_hit={} | {} requests = {} hits + {} policy runs",
        held_out.name,
        cold.initial_latency_ms,
        cold.final_latency_ms,
        warm.cache_hit,
        stats.requests,
        stats.cache_hits,
        stats.policy_invocations,
    );

    // 8. Export the whole run's telemetry — per-phase spans, worker
    //    utilisation, simulator measurements, serve latency histograms — as
    //    one structured JSON trace.
    let metrics = xrlflow::obs::Registry::global().snapshot();
    println!(
        "telemetry: {} episodes collected | worker utilization {:.0}% | {} simulator measurements",
        metrics.counter("rollout/episodes").unwrap_or(0),
        metrics.gauge("rollout/worker_utilization").unwrap_or(0.0) * 100.0,
        metrics.histogram("cost/simulator/measure").map_or(0, |h| h.count),
    );
    if let Ok(path) = std::env::var("XRLFLOW_METRICS_JSON") {
        metrics.save(&path).expect("metrics snapshot writes");
        println!("metrics snapshot written to {path}");
    }
}
