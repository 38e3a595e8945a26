//! The episode evaluator carries, and nobody can tell.
//!
//! [`PolicyEpisode`](xrlflow_core::PolicyEpisode) reads the observed graph's
//! encoder rows from the step before whenever `Environment::step` made the
//! observation from the previously observed graph and chosen candidate
//! (`Observation::follows`). Two contracts:
//!
//! 1. **Bit transparency.** Every decision — action, log-probability, value,
//!    every probability — equals `XrlflowAgent::act` (a fresh tape, the whole
//!    graph encoded) along greedy and sampled trajectories on all 8 zoo
//!    kinds, at the `smoke_test()` and `bench()` encoder shapes.
//! 2. **Fallbacks are cold, never wrong.** A step carries only in that one
//!    situation; anything else — another environment, a reset, an equal graph
//!    in another allocation, the same base graph stepped with another patch
//!    at the same action index, an empty candidate list, a No-Op — is a cold
//!    step, with the same decisions.
//!
//! Which of the two a step was is read from the `core/policy_steps_carried`
//! and `core/policy_steps_cold` counters, so this file is the counters' test
//! as well. It is an integration test for that reason: the registry is
//! process-global, and here only these tests — serialised on a lock — step a
//! policy.

use std::sync::{Arc, Mutex, MutexGuard};

use xrlflow_core::{AgentDecision, PolicyEpisode, XrlflowAgent, XrlflowConfig};
use xrlflow_cost::{DeviceProfile, InferenceSimulator};
use xrlflow_env::{EnvConfig, Environment, Observation};
use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
use xrlflow_graph::{Graph, OpAttributes, OpKind, TensorShape};
use xrlflow_rewrite::RuleSet;
use xrlflow_tensor::XorShiftRng;

static COUNTERS: Mutex<()> = Mutex::new(());

fn counters_lock() -> MutexGuard<'static, ()> {
    COUNTERS.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// `(carried, cold)` policy steps counted so far in this process.
fn steps_counted() -> (u64, u64) {
    (
        xrlflow_obs::counter!("core/policy_steps_carried").get(),
        xrlflow_obs::counter!("core/policy_steps_cold").get(),
    )
}

fn environment(graph: Graph, env: &EnvConfig) -> Environment {
    Environment::new(
        graph,
        RuleSet::standard(),
        InferenceSimulator::new(DeviceProfile::gtx1080()),
        env.clone(),
    )
}

fn zoo_environment(kind: ModelKind, env: &EnvConfig) -> Environment {
    environment(build_model(kind, ModelScale::Bench).unwrap(), env)
}

fn assert_same_decision(got: &AgentDecision, expected: &AgentDecision, context: &str) {
    assert_eq!(got.action, expected.action, "{context}: action");
    assert_eq!(got.log_prob.to_bits(), expected.log_prob.to_bits(), "{context}: log-probability bits");
    assert_eq!(got.value.to_bits(), expected.value.to_bits(), "{context}: value bits");
    let bits = |decision: &AgentDecision| -> Vec<u32> {
        decision.distribution.probs().iter().map(|p| p.to_bits()).collect()
    };
    assert_eq!(bits(got), bits(expected), "{context}: probability bits");
}

/// One step of `policy` checked against `agent.act` on a fresh tape with an
/// identically seeded generator; returns the decision and whether the step
/// carried.
fn checked_step(
    agent: &XrlflowAgent,
    policy: &mut PolicyEpisode<'_>,
    observation: &Observation,
    seed: u64,
    greedy: bool,
    context: &str,
) -> (AgentDecision, bool) {
    let before = steps_counted();
    let decision = policy.act(observation, (!greedy).then_some(&mut XorShiftRng::new(seed)));
    let after = steps_counted();
    let expected = agent.act(observation, &mut XorShiftRng::new(seed), greedy);
    assert_eq!(steps_counted(), after, "{context}: `act` is not an episode step and must not be counted");
    assert_same_decision(&decision, &expected, context);
    let (carried, cold) = (after.0 - before.0, after.1 - before.1);
    assert_eq!(carried + cold, 1, "{context}: one step, one count");
    (decision, carried == 1)
}

#[test]
fn episode_decisions_equal_act_bit_for_bit_on_every_zoo_kind() {
    let _guard = counters_lock();
    let kinds: Vec<ModelKind> = ModelKind::EVALUATED.iter().copied().chain([ModelKind::ResNet18]).collect();
    assert_eq!(kinds.len(), 8);
    for (shape, config) in [("smoke", XrlflowConfig::smoke_test()), ("bench", XrlflowConfig::bench())] {
        let agent = XrlflowAgent::new(&config, 1);
        let mut carried_steps = 0;
        for &kind in &kinds {
            for greedy in [true, false] {
                let mut env = zoo_environment(kind, &config.env);
                let mut obs = env.reset(0);
                let mut policy = agent.episode();
                let mut step = 0u64;
                loop {
                    let context = format!("{shape} shapes, {kind}, greedy {greedy}, step {step}");
                    let (decision, carried) =
                        checked_step(&agent, &mut policy, &obs, 40 + step, greedy, &context);
                    assert_eq!(carried, step > 0, "{context}: every step after the first carries");
                    carried_steps += usize::from(carried);
                    let result = env.step(&obs, decision.action);
                    if result.done {
                        break;
                    }
                    obs = result.observation;
                    step += 1;
                }
            }
        }
        // The trajectories must actually walk: an untrained policy that took
        // the No-Op everywhere would make the comparison vacuous.
        let floor = 4 * config.env.max_steps;
        assert!(carried_steps >= floor, "{shape} shapes: only {carried_steps} carried steps (< {floor})");
    }
}

#[test]
fn act_with_tape_on_a_reused_tape_equals_act() {
    // The one-step forms stay what they were: `act_with_tape` recycles the
    // caller's tape, encodes the whole graph and decides like `act` — and
    // neither is an episode step.
    let _guard = counters_lock();
    let config = XrlflowConfig::smoke_test();
    let agent = XrlflowAgent::new(&config, 1);
    let mut env = zoo_environment(ModelKind::Bert, &config.env);
    let mut obs = env.reset(0);
    let mut tape = xrlflow_tensor::Tape::new();
    let before = steps_counted();
    for step in 0..config.env.max_steps as u64 {
        let decision = agent.act_with_tape(&mut tape, &obs, &mut XorShiftRng::new(step), false);
        let expected = agent.act(&obs, &mut XorShiftRng::new(step), false);
        assert_same_decision(&decision, &expected, &format!("step {step}"));
        let result = env.step(&obs, decision.action);
        if result.done {
            break;
        }
        obs = result.observation;
    }
    assert_eq!(steps_counted(), before);
}

/// `x · w → relu`: one fusion applies, and nothing after it.
fn one_rewrite_graph() -> Graph {
    let mut g = Graph::new();
    let x = g.add_input(TensorShape::new(vec![1, 64]));
    let w = g.add_weight(TensorShape::new(vec![64, 32]));
    let mm = g.add_node(OpKind::MatMul, OpAttributes::default(), vec![x.into(), w.into()]).unwrap();
    let relu = g.add_node(OpKind::Relu, OpAttributes::default(), vec![mm.into()]).unwrap();
    g.mark_output(relu.into());
    g
}

#[test]
fn fallbacks_are_cold_and_never_wrong() {
    let _guard = counters_lock();
    let config = XrlflowConfig::smoke_test();
    let env_config = EnvConfig { max_steps: 6, ..config.env.clone() };
    let agent = XrlflowAgent::new(&config, 5);
    let mut policy = agent.episode();
    let step = |policy: &mut PolicyEpisode<'_>, observation: &Observation, context: &str| {
        checked_step(&agent, policy, observation, 9, true, context)
    };
    // A candidate the untrained policy is sure to find: the greedy decision
    // on SqueezeNet's first observation (asserted not to be the No-Op).
    let mut env = zoo_environment(ModelKind::SqueezeNet, &env_config);
    let first = env.reset(0);
    let (decision, carried) = step(&mut policy, &first, "first step");
    assert!(!carried, "there is nothing to carry into a first step");
    assert_ne!(decision.action, first.noop_action(), "the test needs a rewriting first decision");
    let action = decision.action;

    // The successor carries — the one situation that does.
    let second = env.step(&first, action).observation;
    assert!(step(&mut policy, &second, "successor").1);

    // An observation from another environment, mid-episode.
    let mut other = zoo_environment(ModelKind::Bert, &env_config);
    assert!(!step(&mut policy, &other.reset(0), "another environment").1);

    // The same environment after `reset`: the first graph again, not the
    // chosen candidate.
    let (decision, _) = step(&mut policy, &second, "back to the episode");
    let _ = env.step(&second, decision.action);
    let again = env.reset(0);
    assert!(!step(&mut policy, &again, "after reset").1);

    // The chosen candidate materialised apart from its memo: an equal graph
    // in another allocation is not the graph whose rows were gathered.
    let (decision, _) = step(&mut policy, &again, "before a foreign materialisation");
    let foreign = again.candidates[decision.action].materialize(&again.graph).unwrap();
    let mut foreign_env = environment(foreign, &env_config);
    assert!(!step(&mut policy, &foreign_env.reset(0), "foreign materialisation").1);

    // No candidates at all, carried: the successor observation with K = 0
    // computes no row …
    let mut tiny = environment(one_rewrite_graph(), &env_config);
    let only = tiny.reset(0);
    assert_eq!(only.num_candidates(), 1);
    let rewrite_seed = (0..200u64)
        .find(|&seed| agent.act(&only, &mut XorShiftRng::new(seed), false).action == 0)
        .expect("some seed samples the one rewrite out of two actions");
    let mut short = agent.episode();
    let (decision, _) = checked_step(&agent, &mut short, &only, rewrite_seed, false, "the one rewrite");
    assert_eq!(decision.action, 0);
    let last = tiny.step(&only, 0).observation;
    assert_eq!(last.num_candidates(), 0, "the fused graph has no further rewrite");
    assert!(step(&mut short, &last, "K = 0, carried").1);
    // … and cold (a first observation nothing applies to).
    let mut fused = environment(last.graph.as_ref().clone(), &env_config);
    let (decision, carried) = step(&mut policy, &fused.reset(0), "K = 0, cold");
    assert!(!carried);
    assert_eq!(decision.action, only.noop_action());

    // An episode ending on the No-Op leaves nothing armed: whatever the same
    // evaluator is shown next is a cold step.
    let mut policy = agent.episode();
    let start = env.reset(0);
    let noop_seed = (0..200u64)
        .find(|&seed| agent.act(&start, &mut XorShiftRng::new(seed), false).action == start.noop_action())
        .expect("some seed samples the No-Op out of nine actions");
    let (decision, _) = checked_step(&agent, &mut policy, &start, noop_seed, false, "sampled No-Op");
    assert_eq!(decision.action, start.noop_action());
    assert!(!step(&mut policy, &second, "after a No-Op").1);
    assert!(!step(&mut policy, &start, "a new episode on the same evaluator").1);
}

#[test]
fn the_carry_check_names_the_patch_not_the_action_index() {
    // Two environments over one shared graph, the second reading the
    // standard table in reverse order: their reset observations share the
    // graph `Arc`, and one action index names two different patches. A
    // check on the base graph and the action index alone would carry here.
    let _guard = counters_lock();
    let config = XrlflowConfig::smoke_test();
    let agent = XrlflowAgent::new(&config, 5);
    let graph = Arc::new(build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap());
    let simulator = Arc::new(InferenceSimulator::new(DeviceProfile::gtx1080()));
    let mut reversed = xrlflow_rewrite::rules::standard_rules();
    reversed.reverse();
    let over = |rules: RuleSet| {
        Environment::from_shared(
            Arc::clone(&graph),
            Arc::new(rules),
            Arc::clone(&simulator),
            config.env.clone(),
        )
    };
    let (mut forward, mut backward) = (over(RuleSet::standard()), over(RuleSet::new(reversed)));
    let (ours, theirs) = (forward.reset(0), backward.reset(0));
    assert!(Arc::ptr_eq(&ours.graph, &theirs.graph), "one shared base graph");

    let mut policy = agent.episode();
    let (decision, _) = checked_step(&agent, &mut policy, &ours, 9, true, "first step");
    let action = decision.action;
    assert!(
        action < ours.num_candidates().min(theirs.num_candidates()),
        "the test needs a rewriting decision"
    );
    assert_ne!(
        ours.candidates[action].patch(),
        theirs.candidates[action].patch(),
        "the index names another patch"
    );

    let next = backward.step(&theirs, action).observation;
    assert!(next.follows(&theirs.graph, &theirs.candidates[action]));
    assert!(!checked_step(&agent, &mut policy, &next, 9, true, "same base and index, another patch").1);
}
