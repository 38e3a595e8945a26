//! Deployment-time optimisation with a (trained) agent: the greedy
//! policy-inference loop and its result type.
//!
//! [`greedy_optimize`] holds one [`PolicyEpisode`](crate::PolicyEpisode) for
//! the episode, exactly as the rollout collector does. It owns the scratch
//! tape and carries the chosen candidate's encoder rows from each step to
//! the next, so every step after the first encodes the patches' dirty rows
//! instead of the graph. The evaluator is dropped with the episode — nothing
//! outlives the call, so nothing is retained between serve requests.

use std::collections::HashMap;
use std::time::Instant;

use xrlflow_env::Environment;
use xrlflow_graph::Graph;
use xrlflow_tensor::XorShiftRng;

use crate::agent::XrlflowAgent;

/// Result of optimising one graph with X-RLflow.
#[derive(Debug, Clone)]
pub struct XrlflowResult {
    /// The optimised graph.
    pub graph: Graph,
    /// Simulated end-to-end latency of the initial graph (ms).
    pub initial_latency_ms: f64,
    /// Simulated end-to-end latency of the optimised graph (ms).
    pub final_latency_ms: f64,
    /// Number of substitutions applied.
    pub steps: usize,
    /// How many times each rewrite rule was applied (Figure 5 heatmap data).
    pub rule_applications: HashMap<&'static str, usize>,
    /// Wall-clock optimisation (inference) time in seconds — Figure 6.
    pub optimisation_time_s: f64,
}

impl XrlflowResult {
    /// End-to-end speedup in percent.
    pub fn speedup_percent(&self) -> f64 {
        if self.final_latency_ms == 0.0 {
            0.0
        } else {
            (self.initial_latency_ms / self.final_latency_ms - 1.0) * 100.0
        }
    }
}

/// Runs one greedy optimisation episode of `agent` against `env` and
/// collects the deployment-path metrics.
///
/// This is the policy-inference loop shared by `xrlflow-rollout`'s
/// `XrlflowSystem::optimize` and the serving layer, which drives it with a
/// read-only snapshot replica of a trained agent
/// (`XrlflowAgent::from_snapshot`) over a shared environment — the agent is
/// only read, so one replica can serve many sequential requests. Decisions
/// are bit-identical to calling `XrlflowAgent::act` (a fresh tape, the whole
/// graph encoded) per step.
pub fn greedy_optimize(agent: &XrlflowAgent, env: &mut Environment, rng: &mut XorShiftRng) -> XrlflowResult {
    let start = Instant::now();
    let mut obs = env.reset(0);
    let mut rule_applications: HashMap<&'static str, usize> = HashMap::new();
    let mut steps = 0;
    let mut policy = agent.episode();
    loop {
        if obs.num_candidates() == 0 {
            break;
        }
        let decision = policy.act(&obs, rng, true);
        if decision.action == obs.noop_action() {
            break;
        }
        let rule = obs.candidates[decision.action].rule_name;
        let result = env.step(&obs, decision.action);
        *rule_applications.entry(rule).or_insert(0) += 1;
        steps += 1;
        if result.done {
            break;
        }
        obs = result.observation;
    }
    let stats = env.episode_stats();
    XrlflowResult {
        graph: env.current_graph().clone(),
        initial_latency_ms: stats.initial_latency_ms,
        final_latency_ms: stats.final_latency_ms,
        steps,
        rule_applications,
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
        let result = greedy_optimize(&agent, &mut env, &mut XorShiftRng::new(0));
        assert!(result.graph.validate().is_ok());
        assert!(result.initial_latency_ms > 0.0);
        assert!(result.final_latency_ms > 0.0);
        assert!(result.optimisation_time_s >= 0.0);
        assert_eq!(result.steps, result.rule_applications.values().sum::<usize>());
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
            let result = greedy_optimize(&agent, &mut environment(), &mut XorShiftRng::new(3));

            let mut env = environment();
            let mut rng = XorShiftRng::new(3);
            let mut obs = env.reset(0);
            let mut rule_applications: HashMap<&'static str, usize> = HashMap::new();
            let mut steps = 0;
            while obs.num_candidates() > 0 {
                let decision = agent.act(&obs, &mut rng, true);
                if decision.action == obs.noop_action() {
                    break;
                }
                *rule_applications.entry(obs.candidates[decision.action].rule_name).or_insert(0) += 1;
                steps += 1;
                let step = env.step(&obs, decision.action);
                if step.done {
                    break;
                }
                obs = step.observation;
            }
            let stats = env.episode_stats();

            assert!(steps > 1, "{kind}: the seeded agent must take several steps for a tape to be recycled");
            assert_eq!(result.steps, steps, "{kind}: steps");
            assert_eq!(result.graph.canonical_hash(), env.current_graph().canonical_hash(), "{kind}: graph");
            assert_eq!(result.initial_latency_ms, stats.initial_latency_ms, "{kind}: initial latency");
            assert_eq!(result.final_latency_ms, stats.final_latency_ms, "{kind}: final latency");
            assert_eq!(result.rule_applications, rule_applications, "{kind}: rule applications");
        }
    }
}
