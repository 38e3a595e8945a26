//! The PPO update's recycled tape is a fresh tape, bit for bit, across the
//! model zoo.
//!
//! A tape keeps its buffers from one pass to the next and refills them in
//! place, so what an earlier pass left behind must never reach a later one.
//! One tape and one gradient buffer run `transition_grad_into` over the
//! transitions of an episode on each of the 8 zoo kinds in turn — the passes
//! grow and shrink with the graphs — and every transition's loss statistics
//! and gradients must equal those of a fresh tape and buffer. The transitions
//! are collected on the bench encoder shape by the episode evaluator (itself
//! one recycled tape, carrying from step to step), so they hold cold
//! observations (after a reset) and carried ones (after a step), and half of
//! them get a behaviour log-probability shifted by one nat, which puts the
//! PPO clip to work; the other half re-evaluate to their own log-probability,
//! a ratio of one.

use xrlflow_core::{
    collect_episode_with_rng, transition_grad_into, EpisodeScratch, TransitionLossStats, XrlflowAgent,
    XrlflowConfig,
};
use xrlflow_cost::{DeviceProfile, InferenceSimulator};
use xrlflow_env::{EnvConfig, Environment};
use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
use xrlflow_rewrite::RuleSet;
use xrlflow_rl::RolloutBuffer;
use xrlflow_tensor::{GradBuffer, Tape, XorShiftRng};

fn stats_bits(stats: &TransitionLossStats) -> ([u32; 4], bool) {
    let values = [stats.policy_loss, stats.value_loss, stats.entropy, stats.predicted_value];
    (values.map(f32::to_bits), stats.clipped)
}

#[test]
fn a_recycled_update_tape_matches_a_fresh_one_across_the_zoo() {
    let bench = XrlflowConfig::bench();
    let config = XrlflowConfig { env: EnvConfig { max_steps: 4, ..bench.env.clone() }, ..bench };
    let agent = XrlflowAgent::new(&config, 21);
    let kinds = ModelKind::EVALUATED.iter().copied().chain([ModelKind::ResNet18]);
    let mut buffer = RolloutBuffer::new();
    for (episode, kind) in kinds.enumerate() {
        let graph = build_model(kind, ModelScale::Bench).unwrap();
        let simulator = InferenceSimulator::new(DeviceProfile::gtx1080());
        let mut env = Environment::new(graph, RuleSet::standard(), simulator, config.env.clone());
        let mut rng = XorShiftRng::new(100 + episode as u64);
        collect_episode_with_rng(
            &agent,
            &mut env,
            &mut rng,
            &mut buffer,
            episode as u64,
            &mut EpisodeScratch::default(),
        );
    }
    let transitions = buffer.transitions();
    assert!(transitions.len() > 8, "some of the 8 episodes step, so some observations are carried ones");
    let nodes: Vec<usize> = transitions.iter().map(|t| t.observation.features.num_nodes).collect();
    assert!(
        (1..nodes.len() - 1)
            .any(|i| nodes[i] < nodes[i - 1] && nodes[i + 1..].iter().any(|&n| n > nodes[i - 1])),
        "the passes shrink and grow again: {nodes:?}"
    );

    let (mut tape, mut grads) = (Tape::new(), GradBuffer::zeros_like(&agent.store));
    let mut clipped = [0usize; 2];
    for (i, transition) in transitions.iter().enumerate() {
        let mut transition = transition.clone();
        let shifted = i % 2 == 1;
        if shifted {
            transition.log_prob += 1.0;
        }
        let (advantage, ret) = (if i % 3 == 0 { -0.5 } else { 1.25 }, 0.1 * i as f32);
        let inv = 0.125;
        let recycled = transition_grad_into(
            &agent,
            &transition,
            advantage,
            ret,
            &config.ppo,
            inv,
            &mut tape,
            &mut grads,
        );
        let (mut fresh_tape, mut fresh_grads) = (Tape::new(), GradBuffer::zeros_like(&agent.store));
        let fresh = transition_grad_into(
            &agent,
            &transition,
            advantage,
            ret,
            &config.ppo,
            inv,
            &mut fresh_tape,
            &mut fresh_grads,
        );
        let context = format!("transition {i} ({} nodes, log-probability shifted: {shifted})", nodes[i]);
        assert_eq!(stats_bits(&recycled), stats_bits(&fresh), "{context}: loss statistics");
        assert!(fresh_grads.norm().is_finite(), "{context}: a finite gradient");
        assert_eq!(grads, fresh_grads, "{context}: gradients");
        assert_eq!(grads.norm().to_bits(), fresh_grads.norm().to_bits(), "{context}: gradient norm bits");
        assert_eq!(
            recycled.clipped, shifted,
            "{context}: the clip is active exactly when the ratio is not one"
        );
        clipped[usize::from(recycled.clipped)] += 1;
    }
    assert!(clipped.iter().all(|&n| n > 0), "clip active and inactive: {clipped:?}");
}
