//! Deployment-time optimisation with a (trained) agent: the greedy
//! policy-inference loop and its result type.
//!
//! [`greedy_optimize`] holds one [`PolicyEpisode`](crate::PolicyEpisode) for
//! the episode, exactly as the rollout collector does. It carries the chosen
//! candidate's encoder rows from each step to the next, so every step after
//! the first encodes the patches' dirty rows instead of the graph. The
//! evaluator writes into the caller's [`EpisodeScratch`] (the tape and the
//! encoder's buffers), which outlives the call: the serving layer keeps one
//! spare per concurrent miss and lends it to the next miss, which refills
//! that storage instead of growing its own. No decision depends on what the
//! scratch held before — an episode's first step is always cold.

use std::sync::Arc;
use std::time::Instant;

use xrlflow_env::{Environment, EpisodeStats};
use xrlflow_graph::Graph;

use crate::agent::{EpisodeScratch, XrlflowAgent};

/// Result of optimising one graph with X-RLflow.
#[derive(Debug, Clone)]
pub struct XrlflowResult {
    /// The optimised graph: the last observation's, shared with the
    /// environment.
    pub graph: Arc<Graph>,
    /// The episode's own summary — initial and final latency, the number of
    /// substitutions and the rules applied, in order (Figure 5's data).
    pub stats: EpisodeStats,
    /// Wall-clock optimisation (inference) time in seconds — Figure 6.
    pub optimisation_time_s: f64,
}

/// Runs one greedy optimisation episode of `agent` against `env` and
/// collects the deployment-path metrics.
///
/// This is the policy-inference loop shared by `xrlflow-rollout`'s
/// `XrlflowSystem::optimize` and the serving layer, which drives it with a
/// read-only snapshot replica of a trained agent
/// (`XrlflowAgent::from_snapshot`) over a shared environment — the agent is
/// only read, so one replica can serve many sequential requests. Every step
/// takes the most probable action, so the episode draws no randomness: the
/// result is a function of the parameters and the environment alone.
/// Decisions are bit-identical to calling `XrlflowAgent::act` (a fresh tape,
/// the whole graph encoded) per step, whatever `scratch` held before. The
/// episode stops at the No-Op without stepping it.
pub fn greedy_optimize(
    agent: &XrlflowAgent,
    env: &mut Environment,
    scratch: &mut EpisodeScratch,
) -> XrlflowResult {
    let start = Instant::now();
    let mut obs = env.reset(0);
    let mut policy = agent.episode(scratch);
    while obs.num_candidates() > 0 {
        let decision = policy.act(&obs, None);
        if decision.action == obs.noop_action() {
            break;
        }
        let result = env.step(&obs, decision.action);
        obs = result.observation;
        if result.done {
            break;
        }
    }
    XrlflowResult {
        graph: obs.graph,
        stats: env.episode_stats(),
        optimisation_time_s: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::XrlflowConfig;
    use xrlflow_cost::{DeviceProfile, InferenceSimulator};
    use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
    use xrlflow_rewrite::RuleSet;
    use xrlflow_tensor::XorShiftRng;

    #[test]
    fn untrained_agent_still_produces_valid_optimised_graphs() {
        let config = XrlflowConfig::smoke_test();
        let graph = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
        let mut env = Environment::new(
            graph,
            RuleSet::standard(),
            InferenceSimulator::new(DeviceProfile::gtx1080()),
            config.env.clone(),
        );
        let agent = XrlflowAgent::new(&config, 0);
        let result = greedy_optimize(&agent, &mut env, &mut EpisodeScratch::default());
        assert!(result.graph.validate().is_ok());
        assert!(
            std::ptr::eq(&*result.graph, env.current_graph()),
            "the result shares the environment's graph"
        );
        assert!(result.stats.initial_latency_ms > 0.0);
        assert!(result.stats.final_latency_ms > 0.0);
        assert!(result.optimisation_time_s >= 0.0);
        assert_eq!(result.stats.steps, result.stats.applied_rules.len());
    }

    #[test]
    fn tape_reuse_is_bit_transparent_on_the_serve_path() {
        // greedy_optimize recycles one tape across the episode; a reference
        // loop that evaluates every step on a fresh tape (`agent.act`) must
        // walk the same trajectory to the same graph.
        let config = XrlflowConfig::smoke_test();
        // Seed 1's untrained policy runs each episode to the smoke-test step
        // limit, so every tape is recycled several times.
        let agent = XrlflowAgent::new(&config, 1);
        for kind in [ModelKind::SqueezeNet, ModelKind::Bert, ModelKind::InceptionV3] {
            let environment = || {
                Environment::new(
                    build_model(kind, ModelScale::Bench).unwrap(),
                    RuleSet::standard(),
                    InferenceSimulator::new(DeviceProfile::gtx1080()),
                    config.env.clone(),
                )
            };
            let result = greedy_optimize(&agent, &mut environment(), &mut EpisodeScratch::default());

            let mut env = environment();
            let mut rng = XorShiftRng::new(3);
            let mut obs = env.reset(0);
            let mut applied_rules = Vec::new();
            while obs.num_candidates() > 0 {
                let decision = agent.act(&obs, &mut rng, true);
                if decision.action == obs.noop_action() {
                    break;
                }
                applied_rules.push(obs.candidates[decision.action].rule_name);
                let step = env.step(&obs, decision.action);
                if step.done {
                    break;
                }
                obs = step.observation;
            }
            let stats = env.episode_stats();

            let steps = applied_rules.len();
            assert!(steps > 1, "{kind}: the seeded agent must take several steps for a tape to be recycled");
            assert_eq!(result.stats.steps, steps, "{kind}: steps");
            assert_eq!(result.graph.canonical_hash(), env.current_graph().canonical_hash(), "{kind}: graph");
            assert_eq!(result.stats.initial_latency_ms, stats.initial_latency_ms, "{kind}: initial latency");
            assert_eq!(result.stats.final_latency_ms, stats.final_latency_ms, "{kind}: final latency");
            assert_eq!(result.stats.applied_rules, applied_rules, "{kind}: rules applied");
        }
    }
}
