//! The X-RLflow agent: GNN encoder plus policy and value heads
//! (Figure 3 of the paper).
//!
//! The encoder embeds the current graph and every candidate; the policy head
//! scores each candidate against the current graph (plus a dedicated No-Op
//! score) to form a masked categorical distribution over the padded action
//! space, and the value head estimates the state value from the current
//! graph's embedding.
//!
//! Policy evaluation is **delta-aware and batched**, and it reads what the
//! observation carries: the environment featurised the current graph once
//! and made every candidate a *sparse* delta against those features
//! (`GraphFeatures::delta_from_base_and_patch` — work proportional to the
//! candidate's patch, no candidate graph and no dense candidate features on
//! the inference path), so neither an action nor a PPO re-evaluation
//! derives anything. The current graph plus all `K` candidates run through
//! the GAT stack in one batched pass ([`GnnEncoder::encode_candidates`])
//! that re-computes only each patch's dirty region per layer instead of
//! `K + 1` serial full-graph tapes. The policy head then scores all `K + 1`
//! pairs in a single stacked forward, so the `[1, K + 1]` logit row is
//! assembled in one op. Only the action the environment actually takes
//! materialises a graph, inside `Environment::step`.
//!
//! **Multi-step inference goes through [`PolicyEpisode`]** — the rollout
//! collector, `greedy_optimize` and `evaluate_curriculum` each hold one for
//! the episode. It borrows an [`EpisodeScratch`]: the scratch [`Tape`] and,
//! because the graph observed at step `t + 1` *is* the candidate chosen at
//! step `t`, the encoder rows of that candidate gathered off step `t`'s tape
//! ([`xrlflow_gnn::EncoderEpisode`]): a successor step encodes the patches'
//! dirty rows only, never the graph. The agent is the plan and the scratch
//! the state: the scratch outlives the episode, so the next episode lent it
//! refills the storage earlier ones grew instead of growing its own. There
//! is no caller protocol and no knob: a step carries exactly when
//! `Environment::step` made the observation from the previous step's
//! observed graph and chosen candidate (`Observation::follows`); a first
//! step, another environment, a reset — anything else is a cold step
//! through the same code, bit-identical either way. The evaluator borrows the agent for its lifetime, so "carried rows
//! are only valid under the parameters that produced them" is a compile-time
//! fact. [`XrlflowAgent::act`] and [`XrlflowAgent::act_with_tape`] are the
//! one-step forms (always cold); [`XrlflowAgent::evaluate`] — the PPO update
//! — differentiates through the base rows and never carries.

use std::sync::Arc;

use xrlflow_env::Observation;
use xrlflow_gnn::{CandidateDelta, EncoderEpisode, GnnEncoder, GraphFeatures};
use xrlflow_graph::Graph;
use xrlflow_rewrite::Candidate;
use xrlflow_rl::MaskedCategorical;
use xrlflow_tensor::{Mlp, ParamSnapshot, ParamStore, SnapshotError, Tape, Tensor, VarId, XorShiftRng};

use crate::config::XrlflowConfig;

/// Differentiable outputs of one policy evaluation, used by the PPO update.
#[derive(Debug, Clone, Copy)]
pub struct PolicyEvaluation {
    /// Log-probability of the chosen action.
    pub log_prob: VarId,
    /// Entropy of the action distribution.
    pub entropy: VarId,
    /// State-value estimate.
    pub value: VarId,
}

/// The decision the agent took for one observation (inference path).
#[derive(Debug, Clone)]
pub struct AgentDecision {
    /// Index into the padded action space.
    pub action: usize,
    /// Log-probability of the action under the current policy.
    pub log_prob: f32,
    /// Value estimate of the observation.
    pub value: f32,
    /// The full masked distribution (useful for analysis).
    pub distribution: MaskedCategorical,
}

/// The X-RLflow actor-critic agent.
#[derive(Debug)]
pub struct XrlflowAgent {
    /// Persistent parameter storage for every learnable component.
    pub store: ParamStore,
    encoder: GnnEncoder,
    policy_head: Mlp,
    value_head: Mlp,
}

impl XrlflowAgent {
    /// Creates an agent with freshly initialised parameters.
    pub fn new(config: &XrlflowConfig, seed: u64) -> Self {
        let mut store = ParamStore::new();
        let mut rng = XorShiftRng::new(seed);
        let encoder = GnnEncoder::new(&mut store, config.encoder, &mut rng);
        let hidden = config.encoder.hidden_dim;
        let mut policy_dims = vec![2 * hidden];
        policy_dims.extend_from_slice(&config.head_dims);
        policy_dims.push(1);
        let policy_head = Mlp::new(&mut store, "policy_head", &policy_dims, &mut rng);
        let mut value_dims = vec![hidden];
        value_dims.extend_from_slice(&config.head_dims);
        value_dims.push(1);
        let value_head = Mlp::new(&mut store, "value_head", &value_dims, &mut rng);
        Self { store, encoder, policy_head, value_head }
    }

    /// Builds an agent with the architecture of `config` whose parameters
    /// are loaded from `snapshot` — how a policy file becomes a policy:
    /// `xrlflow-serve` builds the one agent its worker pool shares this way,
    /// and so do the rollout crate's two snapshot-taking collectors
    /// (`collect_parallel`, `collect_curriculum_parallel`). Training never
    /// calls it: rollout workers borrow the live agent.
    ///
    /// The replica is bit-identical to the agent the snapshot was captured
    /// from: construction seeds fresh parameters (seed 0) and then
    /// overwrites every value, and the forward pass depends only on values
    /// and architecture. Optimiser state is *not* part of a snapshot.
    ///
    /// # Errors
    ///
    /// Returns the [`SnapshotError`] describing the first name/shape/count
    /// mismatch when the snapshot was captured under a different
    /// architecture configuration.
    pub fn from_snapshot(config: &XrlflowConfig, snapshot: &ParamSnapshot) -> Result<Self, SnapshotError> {
        let mut agent = Self::new(config, 0);
        agent.store.load_snapshot(snapshot)?;
        Ok(agent)
    }

    /// Captures a named-tensor snapshot of every parameter's current value
    /// (see [`XrlflowAgent::from_snapshot`] and `ParamSnapshot::save`).
    pub fn snapshot(&self) -> ParamSnapshot {
        self.store.snapshot()
    }

    /// Number of scalar parameters in the agent.
    pub fn num_parameters(&self) -> usize {
        self.store.num_scalars()
    }

    /// The graph encoder.
    pub fn encoder(&self) -> &GnnEncoder {
        &self.encoder
    }

    /// Builds the differentiable logits (one per valid action: candidates in
    /// order followed by No-Op) and the value estimate for an observation.
    ///
    /// One batched evaluation of the observation's features and candidate
    /// deltas (no candidate is materialised, no clean row copied, nothing
    /// featurised): the current graph and all `K` candidates are encoded in
    /// one delta-aware batched pass, and the policy head scores every pair
    /// in one stacked forward ([`XrlflowAgent::score`]).
    fn forward(&self, tape: &mut Tape, observation: &Observation) -> (VarId, VarId) {
        // Row 0: the current graph; rows 1..=K: the candidates. Clean rows
        // of every candidate are shared with the current graph's encoding;
        // only each patch's dirty region is re-computed per GAT layer.
        let (features, deltas) = (&observation.features, &observation.deltas);
        let embeddings = self.encoder.encode_candidates(tape, &self.store, features, deltas);
        self.score(tape, embeddings, deltas.len())
    }

    /// The heads over a `[1 + K, hidden]` embedding matrix: the policy head
    /// scores every `[current ‖ candidate]` pair (plus the
    /// `[current ‖ current]` No-Op pair) in a single stacked forward,
    /// yielding the `[1, K + 1]` logit row in one transpose, and the value
    /// head reads the current graph's embedding.
    fn score(&self, tape: &mut Tape, embeddings: VarId, num_candidates: usize) -> (VarId, VarId) {
        // Pair row i scores candidate i against the current graph; the last
        // row is the No-Op pair (the current graph against itself).
        let left = tape.gather_rows(embeddings, &vec![0; num_candidates + 1]);
        let mut right_rows: Vec<usize> = (1..=num_candidates).collect();
        right_rows.push(0);
        let right = tape.gather_rows(embeddings, &right_rows);
        let pairs = tape.concat_cols(left, right);
        let scores = self.policy_head.forward(tape, &self.store, pairs);
        let logits = tape.transpose(scores);

        let current_emb = tape.gather_rows(embeddings, &[0]);
        let value = self.value_head.forward(tape, &self.store, current_emb);
        (logits, value)
    }

    /// Inference-only policy evaluation: the per-valid-action logits
    /// (candidates in order, then No-Op) and the value estimate.
    ///
    /// This is the batched + delta-aware path [`XrlflowAgent::act`] uses,
    /// exposed for benchmarks and for the differential test against the
    /// test-only serial oracle `policy_logits_serial` at the end of this
    /// module.
    pub fn policy_logits_batched(&self, observation: &Observation) -> (Vec<f32>, f32) {
        let mut tape = Tape::new();
        let (logits_var, value_var) = self.forward(&mut tape, observation);
        (tape.value(logits_var).data().to_vec(), tape.value(value_var).item())
    }

    /// Chooses an action for an observation.
    ///
    /// With `greedy = true` the most probable action is returned
    /// (deployment) and `rng` is left untouched; otherwise the action is
    /// sampled from `rng` (training). This is the one-step form on a fresh
    /// tape; a loop over an episode's steps holds a [`PolicyEpisode`]
    /// ([`XrlflowAgent::episode`]) instead.
    pub fn act(&self, observation: &Observation, rng: &mut XorShiftRng, greedy: bool) -> AgentDecision {
        let mut tape = Tape::new();
        let (logits, value) = self.forward(&mut tape, observation);
        decide(&tape, logits, value, observation, (!greedy).then_some(rng))
    }

    /// [`XrlflowAgent::act`] on a caller-owned scratch tape, which is
    /// [recycled](Tape::recycle) before use. Decisions are bit-identical to
    /// [`XrlflowAgent::act`]; every call encodes the whole graph, which is
    /// why an episode's loop does not call this (see [`PolicyEpisode`]).
    pub fn act_with_tape(
        &self,
        tape: &mut Tape,
        observation: &Observation,
        rng: &mut XorShiftRng,
        greedy: bool,
    ) -> AgentDecision {
        tape.recycle();
        let (logits, value) = self.forward(tape, observation);
        decide(tape, logits, value, observation, (!greedy).then_some(rng))
    }

    /// An evaluator for the steps of one episode under this agent's current
    /// parameters, on `scratch` — what every multi-step inference loop holds
    /// instead of a bare [`Tape`]. Nothing is carried into its first step,
    /// whatever episode used `scratch` before, so that step is cold.
    pub fn episode<'a>(&'a self, scratch: &'a mut EpisodeScratch) -> PolicyEpisode<'a> {
        scratch.encoder.restart();
        PolicyEpisode { agent: self, scratch, chosen: None }
    }

    /// Differentiable evaluation of a stored transition for the PPO update:
    /// returns the log-probability of `action`, the policy entropy and the
    /// value estimate, all as tape variables.
    ///
    /// # Panics
    ///
    /// Panics if `action` is invalid for the observation.
    pub fn evaluate(&self, tape: &mut Tape, observation: &Observation, action: usize) -> PolicyEvaluation {
        let (logits, value) = self.forward(tape, observation);
        let log_probs = tape.log_softmax(logits);
        let num_candidates = observation.candidates.len();
        let index = if action == observation.noop_action() {
            num_candidates
        } else {
            assert!(action < num_candidates, "action {action} is invalid for this observation");
            action
        };
        let log_prob = tape.pick(log_probs, index);
        // entropy = -sum(p * log p) over the valid actions.
        let probs = tape.exp(log_probs);
        let p_logp = tape.mul(probs, log_probs);
        let neg_entropy = tape.sum_all(p_logp);
        let entropy = tape.neg(neg_entropy);
        // The value head outputs [1, 1]; reduce to a scalar.
        let value = tape.pick(value, 0);
        PolicyEvaluation { log_prob, entropy, value }
    }

    /// Embeds a graph with the current encoder parameters (used by analysis
    /// tooling and tests): the `[1, hidden]` row of the encoder pass with no
    /// candidates.
    pub fn embed_graph(&self, graph: &Graph) -> Tensor {
        let mut tape = Tape::new();
        let features = GraphFeatures::from_graph(graph);
        let embedding = self.encoder.encode_candidates(&mut tape, &self.store, &features, &[]);
        tape.value(embedding).clone()
    }
}

/// Turns the per-valid-action logits on `tape` into a decision: scatters them
/// into the padded action space, then takes the most probable action
/// (`rng` is `None`) or samples one from `rng`.
fn decide(
    tape: &Tape,
    logits: VarId,
    value: VarId,
    observation: &Observation,
    rng: Option<&mut XorShiftRng>,
) -> AgentDecision {
    let logits = tape.value(logits).data();
    let value = tape.value(value).item();
    let padded = observation.action_mask.len();
    let mut padded_logits = vec![0.0f32; padded];
    let num_candidates = observation.candidates.len();
    padded_logits[..num_candidates].copy_from_slice(&logits[..num_candidates]);
    padded_logits[padded - 1] = logits[num_candidates];
    let distribution = MaskedCategorical::new(padded_logits, observation.action_mask.clone());
    let action = match rng {
        Some(rng) => distribution.sample(rng),
        None => distribution.argmax(),
    };
    let log_prob = distribution.log_prob(action);
    AgentDecision { action, log_prob, value, distribution }
}

/// The `core/policy_steps_carried` and `core/policy_steps_cold` counters.
fn policy_step_counters() -> (&'static xrlflow_obs::Counter, &'static xrlflow_obs::Counter) {
    (xrlflow_obs::counter!("core/policy_steps_carried"), xrlflow_obs::counter!("core/policy_steps_cold"))
}

/// Cumulative `(carried, cold)` steps of every [`PolicyEpisode`] in the
/// process, from the global telemetry registry (flat while telemetry is
/// disabled). Read before and after a phase, the difference says what share
/// of its policy steps encoded dirty rows only —
/// [`UpdateTiming::carried_steps`](crate::UpdateTiming::carried_steps) is the
/// collect phase's.
pub fn policy_steps_counted() -> (u64, u64) {
    let (carried, cold) = policy_step_counters();
    (carried.get(), cold.get())
}

/// What the steps of an episode write into: the tape every step recycles,
/// and the encoder's pass scratch and carried rows. A [`PolicyEpisode`]
/// borrows one ([`XrlflowAgent::episode`]); it keeps its storage when the
/// episode ends, so the next episode lent it refills that storage instead of
/// growing its own from empty. Holding one per concurrent episode is the
/// holder's business — the serving leader keeps spares and
/// `evaluate_curriculum` one across its entries, while the rollout
/// collection runs each episode on a fresh one — and a holder whose
/// episode panicked drops the scratch it lent.
#[derive(Debug, Default)]
pub struct EpisodeScratch {
    tape: Tape,
    encoder: EncoderEpisode,
}

/// Policy evaluation for the steps of one episode (see the module docs):
/// the borrowed [`EpisodeScratch`], and what the last decision chose, so
/// that its encoder rows are carried into the next step when that step
/// observes it.
///
/// Decisions are bit-identical to [`XrlflowAgent::act`] on every step —
/// action, log-probability, value and every probability — on a fresh
/// scratch or a reused one. What the evaluator chose is dropped with the
/// episode; what the scratch holds is storage, never a carried row the next
/// episode reads.
#[derive(Debug)]
pub struct PolicyEpisode<'a> {
    agent: &'a XrlflowAgent,
    scratch: &'a mut EpisodeScratch,
    /// What the last decision chose, until the next step finds out whether
    /// it is looking at it.
    chosen: Option<Chosen>,
}

/// The candidate a decision chose, with what gathering its encoder rows off
/// the step's (not yet recycled) tape takes.
#[derive(Debug)]
struct Chosen {
    /// The observed graph and the chosen candidate: a step carries when its
    /// observation follows them.
    graph: Arc<Graph>,
    candidate: Candidate,
    /// The step's candidate deltas and the chosen one's index among them.
    deltas: Arc<[CandidateDelta]>,
    index: usize,
}

impl PolicyEpisode<'_> {
    /// Chooses an action for `observation`, like [`XrlflowAgent::act`]: the
    /// most probable one when `rng` is `None` (deployment, which draws no
    /// randomness), else one sampled from `rng` (training).
    ///
    /// The step *carries* — encodes dirty rows only, reading the observed
    /// graph's rows from the previous step — when `observation` follows the
    /// previous call's observed graph and chosen candidate
    /// ([`Observation::follows`]); otherwise it is a cold step, encoding the
    /// whole graph. `core/policy_steps_carried` and `core/policy_steps_cold`
    /// count which. Either way the features and candidate deltas are the
    /// observation's.
    pub fn act(&mut self, observation: &Observation, rng: Option<&mut XorShiftRng>) -> AgentDecision {
        let (agent, EpisodeScratch { tape, encoder }) = (self.agent, &mut *self.scratch);
        let (carried, cold) = policy_step_counters();
        // The previous step's tape is still whole: this is the moment its
        // chosen candidate's rows are gathered — if they are wanted at all.
        match self.chosen.take().filter(|c| observation.follows(&c.graph, &c.candidate)) {
            Some(chosen) => {
                encoder.advance(tape, &chosen.deltas, chosen.index);
                carried.inc();
            }
            None => cold.inc(),
        }
        tape.recycle();
        let (features, deltas) = (&observation.features, &observation.deltas);
        let embeddings = agent.encoder.encode_step(tape, &agent.store, features, deltas, encoder);
        let (logits, value) = agent.score(tape, embeddings, deltas.len());
        let decision = decide(tape, logits, value, observation, rng);
        self.chosen = observation.candidates.get(decision.action).map(|candidate| Chosen {
            graph: Arc::clone(&observation.graph),
            candidate: candidate.clone(),
            deltas: Arc::clone(deltas),
            index: decision.action,
        });
        decision
    }
}

#[cfg(test)]
impl XrlflowAgent {
    /// The pre-batching reference implementation of policy evaluation:
    /// materialises every candidate graph, featurises it from scratch and
    /// runs one per-graph encoder pass (`encode_candidates` with no deltas)
    /// per graph and one head forward per pair — the differential-testing
    /// oracle for [`XrlflowAgent::policy_logits_batched`].
    fn policy_logits_serial(&self, observation: &Observation) -> (Vec<f32>, f32) {
        use xrlflow_gnn::GraphFeatures;
        let mut tape = Tape::new();
        let current = GraphFeatures::from_graph(&observation.graph);
        let current_emb = self.encoder.encode_candidates(&mut tape, &self.store, &current, &[]);
        let mut logits = Vec::with_capacity(observation.candidates.len() + 1);
        for candidate in &observation.candidates {
            let graph = candidate.materialize(&observation.graph).expect("candidate applies to its base");
            let features = GraphFeatures::from_graph(&graph);
            let emb = self.encoder.encode_candidates(&mut tape, &self.store, &features, &[]);
            let pair = tape.concat_cols(current_emb, emb);
            let score = self.policy_head.forward(&mut tape, &self.store, pair);
            logits.push(tape.value(score).item());
        }
        let self_pair = tape.concat_cols(current_emb, current_emb);
        let noop_score = self.policy_head.forward(&mut tape, &self.store, self_pair);
        logits.push(tape.value(noop_score).item());
        let value = self.value_head.forward(&mut tape, &self.store, current_emb);
        (logits, tape.value(value).item())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrlflow_cost::{DeviceProfile, InferenceSimulator};
    use xrlflow_env::Environment;
    use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
    use xrlflow_rewrite::RuleSet;

    fn observation() -> Observation {
        let graph = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
        let config = XrlflowConfig::smoke_test();
        let mut env = Environment::new(
            graph,
            RuleSet::standard(),
            InferenceSimulator::new(DeviceProfile::gtx1080()),
            config.env.clone(),
        );
        env.reset(0)
    }

    #[test]
    fn act_returns_valid_actions() {
        let agent = XrlflowAgent::new(&XrlflowConfig::smoke_test(), 0);
        let obs = observation();
        let mut rng = XorShiftRng::new(1);
        for _ in 0..10 {
            let decision = agent.act(&obs, &mut rng, false);
            assert!(obs.action_mask[decision.action], "sampled an invalid action");
            assert!(decision.log_prob <= 0.0);
            assert!(decision.value.is_finite());
        }
        let greedy = agent.act(&obs, &mut rng, true);
        assert_eq!(greedy.action, greedy.distribution.argmax());
    }

    #[test]
    fn greedy_act_draws_no_randomness() {
        // What lets every greedy loop (`greedy_optimize`, the serve leader,
        // `evaluate_curriculum`) hold no generator at all.
        let config = XrlflowConfig::smoke_test();
        let agent = XrlflowAgent::new(&config, 4);
        for &kind in ModelKind::EVALUATED.iter().chain(&[ModelKind::ResNet18]) {
            let mut env = Environment::new(
                build_model(kind, ModelScale::Bench).unwrap(),
                RuleSet::standard(),
                InferenceSimulator::new(DeviceProfile::gtx1080()),
                config.env.clone(),
            );
            let obs = env.reset(0);
            let mut rng = XorShiftRng::new(7);
            let untouched = rng.clone();
            let decision = agent.act(&obs, &mut rng, true);
            assert_eq!(
                rng.next_u64(),
                untouched.clone().next_u64(),
                "{kind}: greedy act drew from the generator"
            );
            let other = agent.act(&obs, &mut XorShiftRng::new(8), true);
            assert_eq!(decision.action, other.action, "{kind}: the greedy action depends on the seed");
            assert_eq!(decision.log_prob.to_bits(), other.log_prob.to_bits(), "{kind}: log-probability");
            assert_eq!(decision.value.to_bits(), other.value.to_bits(), "{kind}: value");
            // The comparison can tell: sampling does advance the generator.
            let mut sampled = untouched.clone();
            let _ = agent.act(&obs, &mut sampled, false);
            assert_ne!(sampled.next_u64(), untouched.clone().next_u64(), "{kind}: sampling drew nothing");
        }
    }

    #[test]
    fn evaluate_matches_act_log_prob() {
        let agent = XrlflowAgent::new(&XrlflowConfig::smoke_test(), 3);
        let obs = observation();
        let mut rng = XorShiftRng::new(5);
        let decision = agent.act(&obs, &mut rng, false);
        let mut tape = Tape::new();
        let eval = agent.evaluate(&mut tape, &obs, decision.action);
        let lp = tape.value(eval.log_prob).item();
        assert!(
            (lp - decision.log_prob).abs() < 1e-3,
            "evaluate log-prob {lp} differs from act log-prob {}",
            decision.log_prob
        );
        let entropy = tape.value(eval.entropy).item();
        assert!(entropy >= 0.0);
    }

    #[test]
    fn batched_policy_evaluation_matches_serial_baseline() {
        // The batched + delta-aware path must be bit-identical to the
        // pre-batching serial implementation: same delta features, same
        // per-graph encodings, same stacked policy-head rows.
        let agent = XrlflowAgent::new(&XrlflowConfig::smoke_test(), 11);
        let obs = observation();
        assert!(obs.num_candidates() > 1, "test needs several candidates");
        let (batched, batched_value) = agent.policy_logits_batched(&obs);
        let (serial, serial_value) = agent.policy_logits_serial(&obs);
        assert_eq!(batched, serial, "batched logits diverge from the serial baseline");
        assert_eq!(batched_value, serial_value, "value estimates diverge");
        assert_eq!(batched.len(), obs.num_candidates() + 1);
    }

    #[test]
    fn agent_is_send_and_sync() {
        // The contract the rollout engine's scoped workers and the serving
        // pool rest on: one live agent is read from many threads through
        // `&XrlflowAgent`. An `Rc` or a `Cell` inside the agent must fail to
        // compile here, not as an opaque closure error in `xrlflow-rollout`.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<XrlflowAgent>();
    }

    #[test]
    fn snapshot_replica_is_bit_identical() {
        let config = XrlflowConfig::smoke_test();
        let agent = XrlflowAgent::new(&config, 17);
        let replica = XrlflowAgent::from_snapshot(&config, &agent.snapshot()).unwrap();
        let obs = observation();
        let (logits_a, value_a) = agent.policy_logits_batched(&obs);
        let (logits_b, value_b) = replica.policy_logits_batched(&obs);
        assert_eq!(logits_a, logits_b, "replica logits diverge from the source agent");
        assert_eq!(value_a, value_b);
    }

    #[test]
    fn snapshot_from_different_architecture_is_rejected() {
        let config = XrlflowConfig::smoke_test();
        let agent = XrlflowAgent::new(&config, 0);
        let mut wider = config.clone();
        wider.encoder.hidden_dim *= 2;
        assert!(XrlflowAgent::from_snapshot(&wider, &agent.snapshot()).is_err());
    }

    #[test]
    fn agent_has_a_reasonable_parameter_count() {
        let agent = XrlflowAgent::new(&XrlflowConfig::smoke_test(), 0);
        assert!(agent.num_parameters() > 1000);
        let paper_agent = XrlflowAgent::new(&XrlflowConfig::paper(), 0);
        assert!(paper_agent.num_parameters() > agent.num_parameters());
    }

    #[test]
    fn embeddings_distinguish_models() {
        let agent = XrlflowAgent::new(&XrlflowConfig::smoke_test(), 0);
        let a = agent.embed_graph(&build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap());
        let b = agent.embed_graph(&build_model(ModelKind::Bert, ModelScale::Bench).unwrap());
        let diff: f32 = a.data().iter().zip(b.data()).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1e-4);
    }
}
