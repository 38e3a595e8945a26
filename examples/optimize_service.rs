//! Optimisation-as-a-service walkthrough: stand up an `OptimizeService`
//! from a policy snapshot, submit graphs as JSON (the wire format a network
//! front end would receive), watch repeat requests hit the result cache,
//! then persist the cache and prove a "restarted" service stays warm.
//!
//! Run with: `cargo run --release --example optimize_service`
//!
//! Knobs (all optional):
//! * `XRLFLOW_SERVICE_EPISODES=N` — training episodes before the policy is
//!   snapshotted (default 2; 0 serves an untrained policy).

use xrlflow::core::XrlflowConfig;
use xrlflow::graph::models::{build_model, ModelKind, ModelScale};
use xrlflow::rollout::XrlflowSystem;
use xrlflow::serve::OptimizeService;
use xrlflow::XrlflowError;

fn env_usize(var: &str, default: usize) -> usize {
    std::env::var(var).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn main() -> Result<(), XrlflowError> {
    // 1. Produce a policy snapshot. In production this comes from a long
    //    curriculum run's checkpoint; a couple of episodes keep the example
    //    quick while exercising the same train -> snapshot -> serve path.
    let config = XrlflowConfig {
        training_episodes: env_usize("XRLFLOW_SERVICE_EPISODES", 2).max(1),
        ..XrlflowConfig::paper()
    };
    config.validate()?;
    let mut system = XrlflowSystem::new(config.clone(), 42);
    let train_graph = build_model(ModelKind::SqueezeNet, ModelScale::Bench)?;
    system.train_on(&train_graph, config.training_episodes).expect("training run");
    let snapshot = system.agent().snapshot();

    // 2. Stand the service up on the frozen snapshot. The replica is
    //    read-only: serving never mutates the policy.
    let service = OptimizeService::from_snapshot(&config, &snapshot)?;
    println!("service up: {} GAT layers, heads {:?}\n", config.encoder.num_gat_layers, config.head_dims);

    // 3. Clients ship graphs as JSON. The importer fully validates every
    //    document — malformed input is a typed error, never a panic.
    let err = service.optimize_json("{\"format\": \"not-a-graph\"}").unwrap_err();
    println!("malformed request rejected: {err}\n");

    for kind in [ModelKind::SqueezeNet, ModelKind::Bert] {
        let request_body = build_model(kind, ModelScale::Bench)?.to_json();
        let response = service.optimize_json(&request_body)?;
        println!(
            "{:<22} {:>7.3} ms -> {:>7.3} ms  ({:+.1}%, {} substitutions, cache_hit={})",
            kind.name(),
            response.initial_latency_ms,
            response.final_latency_ms,
            response.speedup_percent(),
            response.steps,
            response.cache_hit,
        );

        // The same graph again — structurally identical, so the canonical
        // hash matches and the answer comes from the cache.
        let again = service.optimize_json(&request_body)?;
        assert!(again.cache_hit);
        println!("{:<22} repeat request answered from cache", kind.name());
    }
    let stats = service.stats();
    println!(
        "\n{} requests, {} cache hits, {} policy episodes",
        stats.requests, stats.cache_hits, stats.policy_invocations
    );

    // 4. Persist the cache and reload it into a fresh service instance —
    //    the restart story: no policy episode is spent re-answering graphs
    //    the old process already optimised.
    let cache_path = std::env::temp_dir().join("xrlflow-optimize-service-cache.json");
    service.save_cache(&cache_path)?;
    let restarted = OptimizeService::from_snapshot(&config, &snapshot)?;
    restarted.load_cache(&cache_path)?;
    std::fs::remove_file(&cache_path).ok();

    let replay = restarted.optimize(&build_model(ModelKind::Bert, ModelScale::Bench)?)?;
    assert!(replay.cache_hit);
    assert_eq!(restarted.stats().policy_invocations, 0);
    println!(
        "restarted service answered BERT from the persisted cache ({} entries) without the policy",
        restarted.cache_len()
    );
    Ok(())
}
