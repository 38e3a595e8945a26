//! A rewrite step carries its candidates and its features, and nobody can
//! tell.
//!
//! When a step's observation is of the environment's current graph, the
//! environment re-matches, re-builds and re-hashes only the sites the chosen
//! patch touched ([`SiteLists::advance`]); on every step it derives the next
//! graph's features from the stepped-from observation's and the chosen
//! candidate's delta ([`GraphFeatures::successor`]) and each offered
//! candidate's delta against them. At every step of greedy and sampled
//! episodes on all 8 zoo kinds (both encoder shapes), on the rule-zoo graph,
//! the sparse-delta bases and three hand-built graphs where the chosen patch
//! changes what a pattern-local re-match would miss:
//!
//! * the candidate list equals `RuleSet::generate_candidates` on the
//!   materialised graph — rule id, name, patch, structural hash and order —
//!   at the environment's cap, and a mirror of the carried site lists
//!   equals it at a cap of 32 and uncapped;
//! * the observation's features equal `GraphFeatures::from_graph` of its
//!   graph, index included, and its deltas, one per candidate, equal
//!   `GraphFeatures::delta_from_base_and_patch` against those — what the
//!   agent, the episode evaluator and the PPO update read instead of
//!   featurising; `policy_episode.rs` shows the evaluator's decisions equal
//!   `XrlflowAgent::act`'s;
//! * every transition `collect_episode_with_rng` stores carries exactly
//!   those values.
//!
//! Every fallback is cold for candidate generation and still right: a first
//! step, a reset, another environment's observation, a stale observation of
//! the same environment; a No-Op and an invalid action observe the current
//! graph with no candidates. The `rewrite/candgen_*`, `gnn/features_carried`
//! and `core/policy_steps_*` counters say which kind each step was; the
//! registry is process-global, so the tests here serialise on a lock.

use std::sync::{Arc, Mutex, MutexGuard};

use xrlflow_bench::fixtures::{rule_zoo_graph, sparse_delta_cases};
use xrlflow_core::{collect_episode_with_rng, EpisodeScratch, XrlflowAgent, XrlflowConfig};
use xrlflow_cost::{DeviceProfile, InferenceSimulator};
use xrlflow_env::{EnvConfig, Environment, Observation};
use xrlflow_gnn::GraphFeatures;
use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
use xrlflow_graph::{Graph, OpAttributes, OpKind, Padding, TensorShape};
use xrlflow_rewrite::{Candidate, RuleSet, SiteLists};
use xrlflow_rl::RolloutBuffer;
use xrlflow_tensor::XorShiftRng;

static COUNTERS: Mutex<()> = Mutex::new(());

fn counters_lock() -> MutexGuard<'static, ()> {
    COUNTERS.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// `(candgen_cold, candgen_carried, features_carried, policy_steps_carried)`.
fn counted() -> [u64; 4] {
    ["rewrite/candgen_cold", "rewrite/candgen_carried", "gnn/features_carried", "core/policy_steps_carried"]
        .map(|name| xrlflow_obs::Registry::global().counter(name).get())
}

fn since(before: [u64; 4]) -> [u64; 4] {
    let now = counted();
    [0, 1, 2, 3].map(|i| now[i] - before[i])
}

fn environment(graph: Graph, env: &EnvConfig) -> Environment {
    Environment::new(
        graph,
        RuleSet::standard(),
        InferenceSimulator::new(DeviceProfile::gtx1080()),
        env.clone(),
    )
}

fn assert_same_candidates(got: &[Candidate], expected: &[Candidate], context: &str) {
    assert_eq!(got.len(), expected.len(), "{context}: candidate count");
    for (i, (got, expected)) in got.iter().zip(expected).enumerate() {
        assert_eq!(
            (got.rule_id, got.rule_name, got.hash),
            (expected.rule_id, expected.rule_name, expected.hash),
            "{context}: candidate {i}"
        );
        assert_eq!(got.patch(), expected.patch(), "{context}: candidate {i}'s patch");
    }
}

/// Checks what an observation carries for the policy network against the
/// cold forms: its graph's features from scratch, and each candidate's delta
/// against them.
fn assert_cold_features(observation: &Observation, context: &str) {
    let graph = &observation.graph;
    let features = GraphFeatures::from_graph(graph);
    assert!(*observation.features == features, "{context}: the observation's features");
    assert_eq!(observation.deltas.len(), observation.candidates.len(), "{context}: one delta per candidate");
    for (i, (delta, candidate)) in observation.deltas.iter().zip(&observation.candidates).enumerate() {
        let cold = GraphFeatures::delta_from_base_and_patch(graph, &features, candidate.patch());
        assert!(*delta == cold, "{context}: candidate {i}'s delta");
    }
}

/// What the tests carry beside the environment: the site lists, uncapped.
struct Mirror {
    rules: RuleSet,
    sites: SiteLists,
}

impl Mirror {
    fn new(graph: &Graph) -> Self {
        let rules = RuleSet::standard();
        let sites = SiteLists::new(&rules, graph);
        Self { rules, sites }
    }

    /// Checks an observation against the cold forms.
    fn check(&self, observation: &Observation, cap: usize, context: &str) {
        let graph = &observation.graph;
        let cold = |cap| self.rules.generate_candidates(graph, cap);
        assert_same_candidates(&observation.candidates, &cold(cap), &format!("{context}, environment"));
        for cap in [32, usize::MAX] {
            let carried = self.sites.candidates(&self.rules, graph, cap);
            assert_same_candidates(&carried, &cold(cap), &format!("{context}, site lists at cap {cap}"));
        }
        assert_cold_features(observation, context);
    }

    /// Follows `observation` to `next`, the observation of the graph one of
    /// its candidates materialised into.
    fn advance(&mut self, observation: &Observation, next: &Observation) {
        self.sites.advance(&self.rules, &observation.graph, &next.graph);
    }
}

#[test]
fn carried_steps_equal_cold_ones_on_every_zoo_kind() {
    let _guard = counters_lock();
    let kinds: Vec<ModelKind> = ModelKind::EVALUATED.iter().copied().chain([ModelKind::ResNet18]).collect();
    assert_eq!(kinds.len(), 8);
    let mut carried_steps = 0;
    for (shape, config) in [("smoke", XrlflowConfig::smoke_test()), ("bench", XrlflowConfig::bench())] {
        let agent = XrlflowAgent::new(&config, 3);
        let cap = config.env.max_candidates;
        for &kind in &kinds {
            for greedy in [true, false] {
                let mut env = environment(build_model(kind, ModelScale::Bench).unwrap(), &config.env);
                let mut obs = env.reset(0);
                let mut mirror = Mirror::new(&obs.graph);
                let mut scratch = EpisodeScratch::default();
                let mut policy = agent.episode(&mut scratch);
                for step in 0u64.. {
                    let context = format!("{shape} shapes, {kind}, greedy {greedy}, step {step}");
                    mirror.check(&obs, cap, &context);
                    let mut rng = XorShiftRng::new(70 + step);
                    let action = policy.act(&obs, (!greedy).then_some(&mut rng)).action;
                    let result = env.step(&obs, action);
                    if result.done {
                        // The terminal observation's candidates are the
                        // last generation's or none at all.
                        assert_cold_features(&result.observation, &format!("{context}, terminal"));
                        break;
                    }
                    mirror.advance(&obs, &result.observation);
                    obs = result.observation;
                    carried_steps += 1;
                }
            }
        }
    }
    assert!(carried_steps >= 100, "the episodes must walk: only {carried_steps} carried steps");
}

/// `(x·W2) → relu → tanh → (·W)` beside `(v·W) → relu → (·W2) → sigmoid`:
/// merging the two matmuls over `W2` puts `q` upstream of `p`, which is
/// three hops from the patch.
fn dependence_graph() -> Graph {
    let shape = |d: &[usize]| TensorShape::new(d.to_vec());
    let mm = |g: &mut Graph, a, b| g.add_node(OpKind::MatMul, OpAttributes::default(), vec![a, b]).unwrap();
    let unary = |g: &mut Graph, op, x| g.add_node(op, OpAttributes::default(), vec![x]).unwrap();
    let mut g = Graph::new();
    let (x, v) = (g.add_input(shape(&[4, 8])), g.add_input(shape(&[4, 8])));
    let (w, w2) = (g.add_weight(shape(&[8, 8])), g.add_weight(shape(&[8, 8])));
    let q = mm(&mut g, v.into(), w.into());
    let qq = unary(&mut g, OpKind::Relu, q.into());
    let c = mm(&mut g, qq.into(), w2.into());
    let cc = unary(&mut g, OpKind::Sigmoid, c.into());
    let a = mm(&mut g, x.into(), w2.into());
    let u1 = unary(&mut g, OpKind::Relu, a.into());
    let u2 = unary(&mut g, OpKind::Tanh, u1.into());
    let p = mm(&mut g, u2.into(), w.into());
    for out in [cc, p] {
        g.mark_output(out.into());
    }
    g
}

/// Two convolutions whose batch norms have one reader and two: fusing the
/// batch norm away makes the first convolution's relu a site and leaves the
/// second convolution without a sole consumer. The first batch norm also
/// reads a matmul that a relu reads too: the fusion drops that operand,
/// which leaves the relu the matmul's sole consumer — a site anchored one
/// hop from the footprint, found only through the dropped operand's
/// producer.
fn sole_consumer_graph() -> Graph {
    let shape = |d: &[usize]| TensorShape::new(d.to_vec());
    let unary = |g: &mut Graph, op, x| g.add_node(op, OpAttributes::default(), vec![x]).unwrap();
    let mut g = Graph::new();
    let img = g.add_input(shape(&[1, 3, 8, 8]));
    let (s, ws) = (g.add_input(shape(&[8, 4])), g.add_weight(shape(&[4, 1])));
    let scale = g.add_node(OpKind::MatMul, OpAttributes::default(), vec![s.into(), ws.into()]).unwrap();
    let scale_reader = unary(&mut g, OpKind::Relu, scale.into());
    g.mark_output(scale_reader.into());
    let attrs = OpAttributes::conv2d([3, 3], [1, 1], Padding::Same, 1);
    for (readers, operands) in [(&[OpKind::Relu][..], &[scale][..]), (&[OpKind::Relu, OpKind::Sigmoid], &[])]
    {
        let w = g.add_weight(shape(&[8, 3, 3, 3]));
        let conv = g.add_node(OpKind::Conv2d, attrs.clone(), vec![img.into(), w.into()]).unwrap();
        let inputs = std::iter::once(conv).chain(operands.iter().copied()).map(Into::into).collect();
        let bn = g.add_node(OpKind::BatchNorm, OpAttributes::default(), inputs).unwrap();
        for &op in readers {
            let out = unary(&mut g, op, bn.into());
            g.mark_output(out.into());
        }
    }
    g
}

/// `z·K1` beside `z·W2`, with `K1 = tanh(relu(BN(BN(W1), s)))` for an input
/// `s`: fusing the batch-norm pair drops `s`, which makes `K1` foldable three
/// hops downstream and the two matmuls a merge site.
fn foldable_graph() -> Graph {
    let shape = |d: &[usize]| TensorShape::new(d.to_vec());
    let unary = |g: &mut Graph, op, x| g.add_node(op, OpAttributes::default(), vec![x]).unwrap();
    let mut g = Graph::new();
    let (z, s) = (g.add_input(shape(&[4, 8])), g.add_input(shape(&[8, 8])));
    let (w1, w2) = (g.add_weight(shape(&[8, 8])), g.add_weight(shape(&[8, 8])));
    let bn1 = unary(&mut g, OpKind::BatchNorm, w1.into());
    let bn2 = g.add_node(OpKind::BatchNorm, OpAttributes::default(), vec![bn1.into(), s.into()]).unwrap();
    let relu = unary(&mut g, OpKind::Relu, bn2.into());
    let k1 = unary(&mut g, OpKind::Tanh, relu.into());
    for k in [k1, w2] {
        let out = g.add_node(OpKind::MatMul, OpAttributes::default(), vec![z.into(), k.into()]).unwrap();
        g.mark_output(out.into());
    }
    g
}

fn count_rule(observation: &Observation, rule: &str) -> usize {
    observation.candidates.iter().filter(|c| c.rule_name == rule).count()
}

/// Steps `graph`'s environment once with the first (or the last) candidate
/// of `rule`; returns the observations before and after, both checked.
fn step_with(graph: Graph, rule: &str, last: bool) -> (Observation, Observation) {
    let env_config = EnvConfig { max_steps: 10, max_candidates: 32, ..EnvConfig::default() };
    let mut env = environment(graph, &env_config);
    let first = env.reset(0);
    let mut mirror = Mirror::new(&first.graph);
    mirror.check(&first, 32, &format!("{rule}, before"));
    let offered: Vec<usize> =
        first.candidates.iter().enumerate().filter(|(_, c)| c.rule_name == rule).map(|(at, _)| at).collect();
    let action = *if last { offered.last() } else { offered.first() }.expect("the graph offers the rule");
    let next = env.step(&first, action).observation;
    mirror.advance(&first, &next);
    mirror.check(&next, 32, &format!("{rule}, after"));
    (first, next)
}

#[test]
fn patches_that_change_what_a_local_re_match_misses_are_carried_right() {
    let _guard = counters_lock();
    // A merge elsewhere makes a sibling pair dependent: merging `a` and `c`
    // puts `q` upstream of `p`.
    let (before, after) = step_with(dependence_graph(), "merge-matmul-shared-rhs", true);
    assert_eq!(count_rule(&before, "merge-matmul-shared-rhs"), 2, "both pairs merge before");
    assert_eq!(count_rule(&after, "merge-matmul-shared-rhs"), 0, "the other pair is dependent after");

    // A fusion changes a producer's sole-consumer status: the convolution
    // whose batch norm had one reader gains a sole relu reader, the one
    // whose batch norm had two gains two readers.
    let (before, after) = step_with(sole_consumer_graph(), "fuse-conv-batchnorm", false);
    assert_eq!(count_rule(&before, "fuse-conv-relu") + count_rule(&before, "fuse-matmul-relu"), 0);
    assert_eq!(count_rule(&after, "fuse-conv-relu"), 1, "the one-reader convolution fuses its relu next");
    assert_eq!(
        count_rule(&after, "fuse-matmul-relu"),
        1,
        "the dropped operand's producer has one reader left"
    );
    let (_, after) = step_with(sole_consumer_graph(), "fuse-conv-batchnorm", true);
    assert_eq!(count_rule(&after, "fuse-conv-relu") + count_rule(&after, "fuse-conv-sigmoid"), 0);

    // A rewrite changes foldability three hops downstream.
    let (before, after) = step_with(foldable_graph(), "fuse-double-batchnorm", false);
    assert_eq!(count_rule(&before, "merge-matmul-shared-lhs"), 0, "K1 depends on an input before");
    assert_eq!(count_rule(&after, "merge-matmul-shared-lhs"), 1, "K1 is foldable after");
}

#[test]
fn carried_steps_equal_cold_ones_on_the_hand_built_graphs() {
    let _guard = counters_lock();
    let mut graphs = vec![
        ("rule-zoo".to_string(), rule_zoo_graph()),
        ("dependence".to_string(), dependence_graph()),
        ("sole consumer".to_string(), sole_consumer_graph()),
        ("foldable".to_string(), foldable_graph()),
    ];
    graphs.extend(sparse_delta_cases().into_iter().map(|case| (case.name.to_string(), case.graph)));
    let env_config = EnvConfig { max_steps: 25, max_candidates: 32, ..EnvConfig::default() };
    let mut steps = 0;
    for (name, graph) in graphs {
        for trajectory in 0..4usize {
            let mut env = environment(graph.clone(), &env_config);
            let mut obs = env.reset(0);
            let mut mirror = Mirror::new(&obs.graph);
            for step in 0.. {
                mirror.check(&obs, 32, &format!("{name}, trajectory {trajectory}, step {step}"));
                if obs.candidates.is_empty() {
                    break;
                }
                let action = (step * (2 * trajectory + 1) + trajectory) % obs.candidates.len();
                let result = env.step(&obs, action);
                if result.done {
                    break;
                }
                mirror.advance(&obs, &result.observation);
                obs = result.observation;
                steps += 1;
            }
        }
    }
    assert!(steps >= 40, "the hand-built graphs must offer steps, got {steps}");
}

#[test]
fn counters_name_every_step_and_fallbacks_are_cold_and_right() {
    let _guard = counters_lock();
    let config = XrlflowConfig::bench();
    let cap = config.env.max_candidates;
    let cold = |obs: &Observation, context: &str| {
        let expected = RuleSet::standard().generate_candidates(&obs.graph, cap);
        assert_same_candidates(&obs.candidates, &expected, context);
        assert_cold_features(obs, context);
    };

    // A sampled episode: one cold generation at the reset, one carried per
    // environment step, features derived on every environment step, and
    // every policy step after the first carried.
    let agent = XrlflowAgent::new(&config, 2);
    let mut env = environment(build_model(ModelKind::InceptionV3, ModelScale::Bench).unwrap(), &config.env);
    let before = counted();
    let mut obs = env.reset(0);
    assert_eq!(since(before), [1, 0, 0, 0], "a reset generates cold and derives nothing");
    let mut scratch = EpisodeScratch::default();
    let mut policy = agent.episode(&mut scratch);
    let (mut env_steps, mut policy_steps) = (0, 0);
    for step in 0.. {
        let action = policy.act(&obs, Some(&mut XorShiftRng::new(step))).action;
        policy_steps += 1;
        let result = env.step(&obs, action);
        env_steps += u64::from(action != obs.noop_action());
        if result.done {
            break;
        }
        obs = result.observation;
    }
    let [resets, carried, features, policy_carried] = since(before);
    assert!(env_steps >= 5, "the episode must walk, took {env_steps} steps");
    assert_eq!((resets, carried), (1, env_steps), "one cold generation per reset, one carried per step");
    assert_eq!(features, env_steps, "every environment step derives its features");
    assert_eq!(policy_carried, policy_steps - 1, "every policy step but the first carries");

    // A reset is cold, and right.
    let before = counted();
    let first = env.reset(0);
    cold(&first, "after a reset");
    assert_eq!(since(before)[..3], [1, 0, 0]);

    // A step from the current graph carries.
    let before = counted();
    let second = env.step(&first, 0).observation;
    cold(&second, "a carried step");
    assert_eq!(since(before)[..3], [0, 1, 1]);

    // A stale observation of the same environment: its graph is no longer
    // the current one, its features and delta still make the next ones.
    let before = counted();
    let stale = env.step(&first, 1).observation;
    cold(&stale, "a stale observation");
    assert_eq!(since(before)[..3], [1, 0, 1], "a stale observation generates cold");
    assert!(stale.follows(&first.graph, &first.candidates[1]));
    let applied = first.candidates[1].materialize(&first.graph).unwrap();
    assert_eq!(stale.graph.canonical_hash(), applied.canonical_hash());

    // Another environment's observation.
    let mut other = environment(build_model(ModelKind::Bert, ModelScale::Bench).unwrap(), &config.env);
    let theirs = other.reset(0);
    let before = counted();
    let adopted = env.step(&theirs, 0).observation;
    cold(&adopted, "another environment's observation");
    assert_eq!(since(before)[..3], [1, 0, 1], "another environment's observation generates cold");

    // And the step after a cold one carries again.
    let before = counted();
    let next = env.step(&adopted, 0).observation;
    cold(&next, "carried after a cold step");
    assert_eq!(since(before)[..3], [0, 1, 1]);

    // A No-Op and an invalid action end the episode on the current graph,
    // with no candidate to offer and nothing derived.
    for (action, name) in [(next.noop_action(), "a No-Op"), (next.num_candidates(), "an invalid action")] {
        let before = counted();
        let terminal = env.step(&next, action);
        assert!(terminal.done, "{name} ends the episode");
        assert!(terminal.observation.candidates.is_empty(), "{name} offers no candidate");
        assert_cold_features(&terminal.observation, name);
        assert!(Arc::ptr_eq(&terminal.observation.graph, &next.graph), "{name} observes the current graph");
        assert_eq!(since(before)[..3], [0, 0, 0], "{name} generates and derives nothing");
    }
}

#[test]
fn collected_transitions_carry_their_observations_features_and_deltas() {
    let _guard = counters_lock();
    let config = XrlflowConfig::bench();
    let agent = XrlflowAgent::new(&config, 5);
    let mut transitions = 0;
    for kind in [ModelKind::Bert, ModelKind::SqueezeNet, ModelKind::ResNet18] {
        let mut env = environment(build_model(kind, ModelScale::Bench).unwrap(), &config.env);
        let mut buffer = RolloutBuffer::new();
        for seed in 0..2 {
            collect_episode_with_rng(
                &agent,
                &mut env,
                &mut XorShiftRng::new(seed),
                &mut buffer,
                seed,
                &mut EpisodeScratch::default(),
            );
        }
        for (i, transition) in buffer.transitions().iter().enumerate() {
            assert_cold_features(&transition.observation, &format!("{kind}, transition {i}"));
        }
        transitions += buffer.len();
    }
    assert!(transitions >= 20, "the episodes must walk, stored {transitions} transitions");
}
