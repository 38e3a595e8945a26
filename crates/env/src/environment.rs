//! The graph-transformation environment (Section 3.3.1 of the paper).
//!
//! The environment wraps the substitution engine behind the usual
//! `reset()` / `step()` interface: the observation is the current graph plus
//! every candidate produced by one rule application; the action selects a
//! candidate (or No-Op to terminate); the reward follows Eq. 2, using the
//! simulated end-to-end latency measured every `feedback_frequency` steps
//! and a small exploration constant in between.
//!
//! An observation also carries what the policy network reads of it — the
//! graph's GNN features and one sparse feature delta per candidate — derived
//! here, once, where the step that made the graph is known: a reset's graph
//! is featurised whole ([`GraphFeatures::from_graph`], once per environment:
//! the initial graph never changes), a stepped-to graph's features are the
//! stepped-from observation's taken through the chosen candidate's delta
//! ([`GraphFeatures::successor`]), and each offered candidate's delta is
//! [`GraphFeatures::delta_from_base_and_patch`] against them. The agent, an
//! episode's policy steps and every PPO re-evaluation of a stored transition
//! read those values and featurise nothing.

use std::sync::Arc;

use xrlflow_cost::InferenceSimulator;
use xrlflow_gnn::{CandidateDelta, GraphFeatures};
use xrlflow_graph::Graph;
use xrlflow_rewrite::{Candidate, RuleSet, SiteLists};

/// Constant reward granted on steps without a latency measurement: the
/// paper's 0.1, which encourages continued exploration (Section 3.3.3).
pub const EXPLORATION_BONUS: f32 = 0.1;

/// Reward-shaping and termination configuration (defaults follow Table 4).
#[derive(Debug, Clone)]
pub struct EnvConfig {
    /// Maximum number of substitutions per episode.
    pub max_steps: usize,
    /// Maximum number of candidates exposed per step (the padded action
    /// space size; the paper pads to a large constant).
    pub max_candidates: usize,
    /// End-to-end latency is measured every `N` steps (Table 4: 5).
    pub feedback_frequency: usize,
}

impl Default for EnvConfig {
    fn default() -> Self {
        Self { max_steps: 50, max_candidates: 64, feedback_frequency: 5 }
    }
}

/// What the agent observes at each step: the current graph (structurally
/// shared, not deep-copied) and every candidate substitution as a patch,
/// plus the padded-action validity mask — and what the policy network reads
/// of them: the graph's features and one sparse delta per candidate (see the
/// module docs).
///
/// Cloning an observation (e.g. into a rollout buffer) is cheap: the graph,
/// the features and the deltas are behind [`Arc`]s and each candidate shares
/// its patch. A stored observation keeps its features and deltas, so
/// re-evaluating it in the PPO update derives nothing. Candidates stay
/// patches through policy evaluation — the encoder reads their deltas — so
/// only the candidate [`Environment::step`] takes ever becomes a full graph.
#[derive(Debug, Clone)]
pub struct Observation {
    /// The current computation graph.
    pub graph: Arc<Graph>,
    /// The candidate transformations reachable by one substitution.
    pub candidates: Vec<Candidate>,
    /// Validity mask over the padded action space
    /// (`max_candidates + 1` entries; the last entry is the always-valid No-Op).
    pub action_mask: Vec<bool>,
    /// `graph`'s GNN features, equal to [`GraphFeatures::from_graph`] of it.
    pub features: Arc<GraphFeatures>,
    /// One sparse delta per candidate, in candidate order: candidate `i`'s
    /// [`GraphFeatures::delta_from_base_and_patch`] against `features`.
    pub deltas: Arc<[CandidateDelta]>,
    /// The observed graph the step that made `graph` started from, and the
    /// candidate it applied (`None` after a reset, a No-Op or an invalid
    /// action). Holding both keeps their addresses from being reused.
    step: Option<(Arc<Graph>, Candidate)>,
}

impl Observation {
    /// Index of the No-Op action in the padded action space.
    pub fn noop_action(&self) -> usize {
        self.action_mask.len() - 1
    }

    /// Number of real candidates.
    pub fn num_candidates(&self) -> usize {
        self.candidates.len()
    }

    /// `true` when [`Environment::step`] made this observation by applying
    /// `chosen` to `base` — the very allocations, compared by address, so an
    /// equal graph or an equal patch elsewhere never counts. When it holds,
    /// the observed graph is `base` with `chosen`'s patch applied.
    pub fn follows(&self, base: &Arc<Graph>, chosen: &Candidate) -> bool {
        self.step.as_ref().is_some_and(|(from, applied)| {
            Arc::ptr_eq(from, base) && std::ptr::eq(applied.patch(), chosen.patch())
        })
    }
}

/// Result of one environment step.
#[derive(Debug, Clone)]
pub struct StepResult {
    /// The next observation (present even on terminal steps, for bootstrapping).
    pub observation: Observation,
    /// The reward for the action just taken.
    pub reward: f32,
    /// Whether the episode has terminated.
    pub done: bool,
}

/// Summary of a finished episode.
#[derive(Debug, Clone)]
pub struct EpisodeStats {
    /// Total shaped reward collected.
    pub total_reward: f32,
    /// Number of substitutions applied.
    pub steps: usize,
    /// Latency of the initial graph (ms).
    pub initial_latency_ms: f64,
    /// Latency of the final graph (ms).
    pub final_latency_ms: f64,
    /// Names of the rules applied, in order.
    pub applied_rules: Vec<&'static str>,
}

impl EpisodeStats {
    /// End-to-end speedup of the final graph over the initial graph in percent.
    pub fn speedup_percent(&self) -> f64 {
        if self.final_latency_ms == 0.0 {
            0.0
        } else {
            (self.initial_latency_ms / self.final_latency_ms - 1.0) * 100.0
        }
    }
}

/// The tensor-graph transformation environment.
///
/// The initial graph, the rule set and the latency simulator are held behind
/// [`Arc`]s so parallel rollout workers can build per-worker environments
/// over one shared model-zoo entry, one rule library and one simulator — see
/// [`Environment::from_shared`]. All three are immutable: a measurement is a
/// function of the graph and the seed alone.
///
/// The simulator runs at [`Environment::reset`] (the initial graph) and at
/// the [`Environment::step`]s that [`EnvConfig::feedback_frequency`] and
/// termination pick, never at construction.
#[derive(Debug)]
pub struct Environment {
    initial_graph: Arc<Graph>,
    rules: Arc<RuleSet>,
    simulator: Arc<InferenceSimulator>,
    config: EnvConfig,

    /// `initial_graph`'s features: every reset observes them.
    initial_features: Arc<GraphFeatures>,

    current: Arc<Graph>,
    /// `current`'s features.
    features: Arc<GraphFeatures>,
    /// Every rule's sites in `current` (`None` until the first
    /// observation), carried from step to step.
    sites: Option<SiteLists>,
    step_count: usize,
    initial_latency_ms: f64,
    last_measured_latency_ms: f64,
    total_reward: f32,
    applied_rules: Vec<&'static str>,
    measure_seed: u64,
}

impl Environment {
    /// Creates an environment for optimising `graph`.
    pub fn new(graph: Graph, rules: RuleSet, simulator: InferenceSimulator, config: EnvConfig) -> Self {
        Self::from_shared(Arc::new(graph), Arc::new(rules), Arc::new(simulator), config)
    }

    /// Creates an environment over shared components: the initial graph
    /// (e.g. a model-zoo entry), the rule set and the latency simulator.
    ///
    /// This is the constructor the parallel rollout engine uses — `W`
    /// workers build `W` environments over the *same* three `Arc`s, so
    /// nothing graph- or rule-sized is duplicated per worker. It measures
    /// nothing: the initial graph's latency is taken by
    /// [`Environment::reset`], which every episode starts with.
    pub fn from_shared(
        graph: Arc<Graph>,
        rules: Arc<RuleSet>,
        simulator: Arc<InferenceSimulator>,
        config: EnvConfig,
    ) -> Self {
        let initial_features = Arc::new(GraphFeatures::from_graph(&graph));
        Self {
            current: Arc::clone(&graph),
            features: Arc::clone(&initial_features),
            sites: None,
            initial_features,
            initial_graph: graph,
            rules,
            simulator,
            config,
            step_count: 0,
            initial_latency_ms: 0.0,
            last_measured_latency_ms: 0.0,
            total_reward: 0.0,
            applied_rules: Vec::new(),
            measure_seed: 0,
        }
    }

    /// The environment configuration.
    pub fn config(&self) -> &EnvConfig {
        &self.config
    }

    /// The graph currently being optimised.
    pub fn current_graph(&self) -> &Graph {
        &self.current
    }

    /// The size of the padded action space (`max_candidates` + No-Op).
    pub fn action_space(&self) -> usize {
        self.config.max_candidates + 1
    }

    /// Resets the transformation process and returns the first observation.
    pub fn reset(&mut self, seed: u64) -> Observation {
        self.current = Arc::clone(&self.initial_graph);
        self.features = Arc::clone(&self.initial_features);
        self.step_count = 0;
        self.total_reward = 0.0;
        self.applied_rules.clear();
        self.measure_seed = seed;
        self.initial_latency_ms = self.simulator.measure_ms(&self.current, seed);
        self.last_measured_latency_ms = self.initial_latency_ms;
        self.observe(None)
    }

    /// The observation of the current graph, over its features
    /// (`self.features`). With `base`, the graph the current one was stepped
    /// from, whose sites `self.sites` still holds, candidate generation is
    /// carried: only what the step's patch touched is re-matched and
    /// re-built. Without, every rule is matched cold. Both give
    /// [`RuleSet::generate_candidates`]'s list; `rewrite/candgen_carried` and
    /// `rewrite/candgen_cold` count which it was. Each candidate's delta is
    /// derived against the features.
    fn observe(&mut self, base: Option<&Graph>) -> Observation {
        let sites = match (base, self.sites.take()) {
            (Some(base), Some(mut sites)) => {
                xrlflow_obs::counter!("rewrite/candgen_carried").inc();
                sites.advance(&self.rules, base, &self.current);
                sites
            }
            _ => {
                xrlflow_obs::counter!("rewrite/candgen_cold").inc();
                SiteLists::new(&self.rules, &self.current)
            }
        };
        let candidates = sites.candidates(&self.rules, &self.current, self.config.max_candidates);
        self.sites = Some(sites);
        let deltas = candidates
            .iter()
            .map(|c| GraphFeatures::delta_from_base_and_patch(&self.current, &self.features, c.patch()))
            .collect();
        // Valid actions: one per candidate, plus the always-valid No-Op slot.
        let mut action_mask = vec![false; self.action_space()];
        action_mask[..candidates.len()].fill(true);
        let noop = self.action_space() - 1;
        action_mask[noop] = true;
        Observation {
            graph: Arc::clone(&self.current),
            candidates,
            action_mask,
            features: Arc::clone(&self.features),
            deltas,
            step: None,
        }
    }

    /// The observation returned alongside a terminal [`StepResult`] whose
    /// candidates nobody will ever act on: the full match scan and patch
    /// construction of [`Environment::observe`] are skipped, and the mask
    /// keeps its padded length with only the No-Op slot valid.
    fn terminal_observation(&self) -> Observation {
        let mut action_mask = vec![false; self.action_space()];
        let noop = self.action_space() - 1;
        action_mask[noop] = true;
        Observation {
            graph: Arc::clone(&self.current),
            candidates: Vec::new(),
            action_mask,
            features: Arc::clone(&self.features),
            deltas: Arc::new([]),
            step: None,
        }
    }

    /// Applies an action. `action` indexes the padded action space: indices
    /// below the candidate count select a candidate, the final index is the
    /// No-Op termination action. Anything else is masked out of the agent's
    /// action distribution; taken anyway, it ends the episode with reward 0.
    /// Rewards are relative to the initial graph's latency, which
    /// [`Environment::reset`] measures: an episode starts there.
    pub fn step(&mut self, observation: &Observation, action: usize) -> StepResult {
        let noop = observation.noop_action();
        let num_candidates = observation.candidates.len();

        if action != noop && action >= num_candidates {
            return StepResult { observation: self.terminal_observation(), reward: 0.0, done: true };
        }

        // No-Op: terminate, measuring the final graph.
        if action == noop || num_candidates == 0 {
            let reward = self.measurement_reward();
            self.total_reward += reward;
            return StepResult { observation: self.terminal_observation(), reward, done: true };
        }

        // Apply the selected candidate's patch. The encoder reads candidates
        // as deltas and never materialises them, so this is the one point
        // where a chosen candidate's graph is built; unchosen candidates are
        // dropped without ever becoming graphs. The next observation records
        // the base and the candidate it came from (`Observation::follows`),
        // and its features are the observation's taken through the chosen
        // delta — whichever environment's observation it is. When the
        // observation is of the current graph, the sites the patch left
        // alone carry over to the next one.
        let candidate = &observation.candidates[action];
        let carried = Arc::ptr_eq(&observation.graph, &self.current);
        self.current = Arc::new(
            candidate
                .materialize(&observation.graph)
                .expect("candidate patch was validated against its base graph at build time"),
        );
        self.features = Arc::new(observation.features.successor(&observation.deltas[action], &self.current));
        xrlflow_obs::counter!("gnn/features_carried").inc();
        self.applied_rules.push(candidate.rule_name);
        self.step_count += 1;

        let mut next = self.observe(carried.then_some(&*observation.graph));
        next.step = Some((Arc::clone(&observation.graph), candidate.clone()));
        let done = self.step_count >= self.config.max_steps || next.candidates.is_empty();

        // Reward: measure end-to-end latency every N steps and on termination,
        // otherwise grant the exploration bonus (Section 3.3.3).
        let measure_now = done || self.step_count.is_multiple_of(self.config.feedback_frequency);
        let reward = if measure_now { self.measurement_reward() } else { EXPLORATION_BONUS };
        self.total_reward += reward;
        StepResult { observation: next, reward, done }
    }

    /// Equation 2: `(RT_{t-1} - RT_t) / RT_0 * 100`, where `RT_{t-1}` is the
    /// latency at the previous measurement point.
    fn measurement_reward(&mut self) -> f32 {
        self.measure_seed = self.measure_seed.wrapping_add(1);
        let latency = self.simulator.measure_ms(&self.current, self.measure_seed);
        let reward = ((self.last_measured_latency_ms - latency) / self.initial_latency_ms * 100.0) as f32;
        self.last_measured_latency_ms = latency;
        reward
    }

    /// Statistics of the episode so far (or of the finished episode).
    pub fn episode_stats(&self) -> EpisodeStats {
        EpisodeStats {
            total_reward: self.total_reward,
            steps: self.step_count,
            initial_latency_ms: self.initial_latency_ms,
            final_latency_ms: self.last_measured_latency_ms,
            applied_rules: self.applied_rules.clone(),
        }
    }

    /// The paper's Table 3 "complexity" metric: the average number of
    /// candidates per step along a random-rollout trajectory of the given
    /// length.
    pub fn measure_complexity(&mut self, rollout_steps: usize, seed: u64) -> f64 {
        let mut obs = self.reset(seed);
        let mut counts = Vec::new();
        for i in 0..rollout_steps {
            counts.push(obs.num_candidates());
            if obs.num_candidates() == 0 {
                break;
            }
            // Follow a deterministic pseudo-random candidate to sample the space.
            let action = (seed as usize + i * 7919) % obs.num_candidates();
            let result = self.step(&obs, action);
            if result.done {
                break;
            }
            obs = result.observation;
        }
        let _ = self.reset(seed);
        if counts.is_empty() {
            0.0
        } else {
            counts.iter().sum::<usize>() as f64 / counts.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrlflow_cost::DeviceProfile;
    use xrlflow_graph::models::{build_model, ModelKind, ModelScale};

    fn make_env(kind: ModelKind) -> Environment {
        let graph = build_model(kind, ModelScale::Bench).unwrap();
        Environment::new(
            graph,
            RuleSet::standard(),
            InferenceSimulator::new(DeviceProfile::gtx1080()),
            EnvConfig { max_steps: 10, ..EnvConfig::default() },
        )
    }

    #[test]
    fn reset_produces_candidates_and_valid_mask() {
        let mut env = make_env(ModelKind::SqueezeNet);
        let obs = env.reset(0);
        assert!(obs.num_candidates() > 0, "SqueezeNet must have rewrite opportunities");
        assert_eq!(obs.action_mask.len(), env.action_space());
        // Mask matches the candidate count plus the No-Op.
        let valid = obs.action_mask.iter().filter(|&&m| m).count();
        assert_eq!(valid, obs.num_candidates().min(env.config().max_candidates) + 1);
        assert!(obs.action_mask[obs.noop_action()]);
    }

    #[test]
    fn noop_terminates_immediately() {
        let mut env = make_env(ModelKind::SqueezeNet);
        let obs = env.reset(0);
        let result = env.step(&obs, obs.noop_action());
        assert!(result.done);
        assert_eq!(env.episode_stats().steps, 0);
    }

    #[test]
    fn applying_candidates_changes_the_graph_and_collects_reward() {
        let mut env = make_env(ModelKind::SqueezeNet);
        let mut obs = env.reset(1);
        let before_hash = env.current_graph().canonical_hash();
        let mut total_reward = 0.0;
        let mut steps = 0;
        loop {
            if obs.num_candidates() == 0 {
                break;
            }
            let result = env.step(&obs.clone(), 0);
            total_reward += result.reward;
            steps += 1;
            if result.done {
                break;
            }
            obs = result.observation;
        }
        assert!(steps > 0);
        assert_ne!(env.current_graph().canonical_hash(), before_hash);
        let stats = env.episode_stats();
        assert_eq!(stats.steps, steps.min(env.config().max_steps));
        assert!((stats.total_reward - total_reward).abs() < 1e-4);
    }

    #[test]
    fn exploration_bonus_between_measurements() {
        let mut env = make_env(ModelKind::SqueezeNet);
        let obs = env.reset(2);
        // First step is not a measurement step (N = 5) and not terminal, so the
        // reward must be exactly the exploration bonus.
        let result = env.step(&obs, 0);
        if !result.done {
            assert!((result.reward - EXPLORATION_BONUS).abs() < 1e-6);
        }
    }

    #[test]
    fn terminal_results_carry_an_empty_candidate_observation() {
        // Nobody acts on a terminal step's observation, so the environment
        // must not pay a full match scan to build its candidates: the
        // bootstrap observation keeps the padded mask shape with only the
        // No-Op slot valid and no candidates.
        let mut env = make_env(ModelKind::SqueezeNet);
        let obs = env.reset(0);
        let result = env.step(&obs, obs.noop_action());
        assert!(result.done);
        let term = result.observation;
        assert_eq!(term.num_candidates(), 0);
        assert_eq!(term.action_mask.len(), env.action_space());
        assert!(term.action_mask[term.noop_action()]);
        assert_eq!(term.action_mask.iter().filter(|&&m| m).count(), 1, "only No-Op stays valid");
    }

    #[test]
    fn invalid_action_terminates_with_zero_reward() {
        let mut env = make_env(ModelKind::SqueezeNet);
        let obs = env.reset(0);
        let invalid = obs.num_candidates() + 1; // inside padding, beyond candidates
        assert!(invalid < obs.noop_action());
        let result = env.step(&obs, invalid);
        assert!(result.done);
        assert_eq!(result.reward.to_bits(), 0.0f32.to_bits());
        assert_eq!(env.episode_stats().total_reward.to_bits(), 0.0f32.to_bits());
        assert_eq!(env.episode_stats().steps, 0);
    }

    #[test]
    fn an_observation_follows_exactly_the_step_that_made_it() {
        let mut env = make_env(ModelKind::SqueezeNet);
        let first = env.reset(0);
        assert!(first.num_candidates() > 1);
        let chosen = &first.candidates[0];
        let second = env.step(&first, 0).observation;
        assert!(second.follows(&first.graph, chosen));
        assert_eq!(second.graph.canonical_hash(), chosen.materialize(&first.graph).unwrap().canonical_hash());
        // Another candidate, an equal base in another allocation, an equal
        // patch in another candidate: none of them made it.
        assert!(!second.follows(&first.graph, &first.candidates[1]));
        assert!(!second.follows(&Arc::new(first.graph.as_ref().clone()), chosen));
        let regenerated = RuleSet::standard().generate_candidates(&first.graph, 1);
        assert_eq!(regenerated[0].patch(), chosen.patch());
        assert!(!second.follows(&first.graph, &regenerated[0]));
        // A stale observation's step records its base.
        let stale = env.step(&first, 1).observation;
        assert!(stale.follows(&first.graph, &first.candidates[1]));
        // A reset, a No-Op and an invalid action record nothing.
        let again = env.reset(0);
        assert!(!again.follows(&first.graph, chosen));
        for action in [again.noop_action(), again.num_candidates()] {
            let terminal = env.step(&again, action).observation;
            assert!(!terminal.follows(&again.graph, &again.candidates[0]), "action {action}");
        }
    }

    #[test]
    fn speedup_reported_for_improving_trajectory() {
        let mut env = make_env(ModelKind::SqueezeNet);
        let mut obs = env.reset(3);
        for _ in 0..10 {
            if obs.num_candidates() == 0 {
                break;
            }
            // Always take the first candidate (fusions come first in the rule set).
            let result = env.step(&obs.clone(), 0);
            if result.done {
                break;
            }
            obs = result.observation;
        }
        let stats = env.episode_stats();
        assert!(stats.final_latency_ms > 0.0);
        // Applying fusion-family rules should not slow the model down.
        assert!(stats.speedup_percent() > -5.0);
    }

    #[test]
    fn complexity_metric_is_positive_for_eval_models() {
        let mut env = make_env(ModelKind::Bert);
        let complexity = env.measure_complexity(5, 0);
        assert!(complexity > 1.0, "BERT complexity should be non-trivial, got {complexity}");
    }

    #[test]
    fn reset_is_reproducible() {
        let mut env = make_env(ModelKind::SqueezeNet);
        let a = env.reset(7);
        let b = env.reset(7);
        assert_eq!(a.graph.canonical_hash(), b.graph.canonical_hash());
        assert_eq!(a.num_candidates(), b.num_candidates());
    }
}
