//! The PPO update (Section 3.3.4, Equations 3–5).
//!
//! Given the rollouts of one round, the trainer computes generalised
//! advantages and then performs several epochs of mini-batch updates of the
//! combined objective `J = L_clip + c1 * L_value + c2 * L_entropy`,
//! back-propagating through the policy head, value head and GNN encoder in
//! one pass (the paper's "end-to-end" training). The collect → update →
//! checkpoint cadence of Algorithm 1 is not here: the one round loop lives in
//! `xrlflow-rollout` (`ParallelTrainer`), which drives this update and
//! [`collect_episode_with_rng`].
//!
//! Each stored transition is re-evaluated with the batched + delta-aware
//! policy path ([`XrlflowAgent::evaluate`]): the observation's graph and all
//! of its candidates run through the encoder as one delta-aware batch on the
//! update tape (clean candidate rows share the current graph's sub-tree, so
//! their gradient contributions route through it), instead of `K + 1` serial
//! encoder tapes per transition. The stored observation carries its
//! features and candidate deltas, derived once by the environment, so a
//! re-evaluation derives nothing.
//!
//! The update's canonical gradient semantics are **per transition, in
//! transition-index order**: every transition of a minibatch back-propagates
//! its scaled loss into its own zero-initialised [`GradBuffer`]
//! ([`transition_grad_into`]), and the buffers are merged in minibatch-position
//! order; the merged buffer is clipped in place and the optimiser steps the
//! store from it. Because each contribution starts from zeros and the merge order
//! is fixed, the same merged gradient falls out no matter which thread
//! evaluated which transition — the property the data-parallel update engine
//! in `xrlflow-rollout` builds on ([`Trainer::update`] accepts the
//! evaluator; the serial oracle the differential tests compare it against,
//! `minibatch_grads_serial`, lives in `xrlflow_bench::oracle`).

use xrlflow_env::{Environment, Observation};
use xrlflow_rl::{
    explained_variance, PpoHyperParams, RolloutBuffer, TrainingStats, Transition, CLIP_EPSILON,
    ENTROPY_COEFFICIENT, LEARNING_RATE, MAX_GRAD_NORM, VALUE_LOSS_COEFFICIENT,
};
use xrlflow_tensor::{splitmix64, Adam, GradBuffer, SnapshotError, Tape, Tensor, XorShiftRng};

use crate::agent::{EpisodeScratch, XrlflowAgent};
use crate::config::XrlflowConfig;
use crate::fault::WorkerFault;
use crate::train_state::TrainState;

/// Wall-clock breakdown of one collect-then-update round, so the speedup
/// from parallel episode collection and the parallel PPO update is
/// observable in training reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct UpdateTiming {
    /// Milliseconds spent collecting the episodes consumed by this update.
    pub collect_ms: f64,
    /// Milliseconds of the collect phase spent inside the latency
    /// simulator's `measure_ms` (summed across worker threads, so this can
    /// exceed the wall-clock `collect_ms` under parallel collection).
    /// Attributed from the telemetry registry; `0` while telemetry is
    /// disabled.
    pub sim_ms: f64,
    /// Milliseconds of the collect phase spent generating rewrite
    /// candidates (summed across worker threads, like
    /// [`UpdateTiming::sim_ms`]). `0` while telemetry is disabled.
    pub candidate_gen_ms: f64,
    /// Policy steps of the collect phase that read the observed graph's
    /// encoder rows from the step before (see [`crate::PolicyEpisode`]) —
    /// every step of an episode but its first, when nothing is wrong. From
    /// the telemetry registry, like [`UpdateTiming::sim_ms`].
    pub carried_steps: u64,
    /// Policy steps of the collect phase that encoded the whole graph.
    pub cold_steps: u64,
    /// Milliseconds spent in the PPO update itself.
    pub update_ms: f64,
    /// The update phase's configured worker count — the bound both phases
    /// were given (`XrlflowConfig::effective_num_workers` when driven by
    /// `ParallelTrainer`), not the threads started: the rollout engine
    /// starts at most as many threads as the process may use CPUs.
    pub update_workers: usize,
}

/// Cumulative (simulator-measure, candidate-generation) span time in
/// nanoseconds from the global telemetry registry. Training loops read this
/// before and after a collect phase and attribute the delta to
/// [`UpdateTiming::sim_ms`] / [`UpdateTiming::candidate_gen_ms`]. The sums
/// aggregate across threads (span histograms are process-wide atomics), and
/// stay flat while telemetry is disabled.
pub fn collect_phase_breakdown_ns() -> (u64, u64) {
    (
        xrlflow_obs::histogram!("cost/simulator/measure").sum(),
        xrlflow_obs::histogram!("rewrite/generate_candidates").sum(),
    )
}

/// Per-model aggregate of a multi-model (curriculum) training run: how one
/// model-zoo entry fared across every episode it contributed to the shared
/// agent's updates.
#[derive(Debug, Clone)]
pub struct ModelBreakdown {
    /// The curriculum entry's name (e.g. `"SqueezeNet"`).
    pub name: String,
    /// Episodes this model contributed.
    pub episodes: usize,
    /// Mean shaped reward per episode.
    pub mean_reward: f64,
    /// Mean end-to-end latency reduction over the model's episodes, in
    /// percent of the initial latency (positive = faster final graph).
    pub mean_latency_reduction_percent: f64,
    /// Mean final-graph latency (ms) over the model's episodes.
    pub mean_final_latency_ms: f64,
}

impl ModelBreakdown {
    /// Aggregates episode statistics for one named model.
    pub fn from_episodes(name: impl Into<String>, episodes: &[xrlflow_env::EpisodeStats]) -> Self {
        let n = episodes.len().max(1) as f64;
        let mean_reward = episodes.iter().map(|e| e.total_reward as f64).sum::<f64>() / n;
        let mean_latency_reduction_percent = episodes
            .iter()
            .map(|e| {
                if e.initial_latency_ms == 0.0 {
                    0.0
                } else {
                    (e.initial_latency_ms - e.final_latency_ms) / e.initial_latency_ms * 100.0
                }
            })
            .sum::<f64>()
            / n;
        let mean_final_latency_ms = episodes.iter().map(|e| e.final_latency_ms).sum::<f64>() / n;
        Self {
            name: name.into(),
            episodes: episodes.len(),
            mean_reward,
            mean_latency_reduction_percent,
            mean_final_latency_ms,
        }
    }
}

/// Report of a full training run.
#[derive(Debug, Clone, Default)]
pub struct TrainReport {
    /// Per-episode statistics, in collection order.
    pub episodes: Vec<xrlflow_env::EpisodeStats>,
    /// Statistics of every PPO update performed.
    pub updates: Vec<TrainingStats>,
    /// Wall-clock collection/update split per entry of
    /// [`TrainReport::updates`].
    pub timings: Vec<UpdateTiming>,
    /// Per-model reward/latency-reduction breakdowns, one entry per
    /// curriculum model in curriculum order. Empty for single-model runs.
    pub per_model: Vec<ModelBreakdown>,
}

/// The canonical episode-collection loop: resets `env` with `reset_seed`,
/// samples actions from `rng` until the episode terminates, and pushes every
/// transition into `buffer`.
///
/// This single function is the stepping loop of every collector — the
/// supervised pool in `xrlflow-rollout` and the serial oracles in
/// `xrlflow_bench::oracle` alike, each feeding it a fresh
/// per-episode-seeded RNG — so all paths record identical transitions by
/// construction. The policy steps write into `scratch`, whose earlier
/// contents change no transition (see [`EpisodeScratch`]).
pub fn collect_episode_with_rng(
    agent: &XrlflowAgent,
    env: &mut Environment,
    rng: &mut XorShiftRng,
    buffer: &mut RolloutBuffer<Observation>,
    reset_seed: u64,
    scratch: &mut EpisodeScratch,
) -> xrlflow_env::EpisodeStats {
    let mut obs = env.reset(reset_seed);
    // One evaluator for the whole episode: every step recycles its tape and
    // reads the observed graph's encoder rows from the step before
    // (bit-identical decisions, see `PolicyEpisode`).
    let mut policy = agent.episode(scratch);
    loop {
        let decision = policy.act(&obs, Some(rng));
        let result = env.step(&obs, decision.action);
        buffer.push(Transition {
            observation: obs,
            action: decision.action,
            log_prob: decision.log_prob,
            value: decision.value,
            reward: result.reward,
            done: result.done,
            action_mask: result.observation.action_mask.clone(),
        });
        if result.done {
            break;
        }
        obs = result.observation;
    }
    env.episode_stats()
}

/// The deterministic minibatch-shuffle seed of `epoch` within update
/// `update`.
///
/// Both inputs are folded through SplitMix64 mixes (the same construction as
/// the rollout engine's `curriculum_rng_seed`), so no two `(update, epoch)`
/// pairs share a shuffle order. The naive `update_counter + epoch` scheme
/// this replaces collided across consecutive updates: the counter advanced
/// by `epochs_per_update` per update, so update `u`'s epoch `e` and update
/// `u + 1`'s epoch `e - epochs_per_update` reused the same seed.
pub fn minibatch_shuffle_seed(update: u64, epoch: u64) -> u64 {
    splitmix64(splitmix64(update) ^ epoch.wrapping_mul(0xD6E8_FEB8_6659_FD93))
}

/// Scalar diagnostics of one transition's loss evaluation, recorded in
/// minibatch-position order by every update path (serial or parallel) so
/// [`TrainingStats`] are independent of how the evaluation was sharded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransitionLossStats {
    /// The clipped surrogate policy loss (Eq. 3), unscaled.
    pub policy_loss: f32,
    /// The squared-error value loss (Eq. 4), unscaled.
    pub value_loss: f32,
    /// Entropy of the action distribution at this observation.
    pub entropy: f32,
    /// The value head's prediction for this observation.
    pub predicted_value: f32,
    /// Whether the PPO probability ratio left the `[1-ε, 1+ε]` trust
    /// region, i.e. the clip in Eq. 3 was active for this transition. The
    /// fraction of clipped transitions per update is the standard check
    /// that the policy is not stepping too far per update.
    pub clipped: bool,
}

/// Everything a minibatch gradient evaluator needs: the stored transitions,
/// the shuffled index batch, the precomputed advantages/returns and the PPO
/// hyper-parameters. Borrowed views only — evaluators never mutate the
/// buffer or the agent.
#[derive(Debug, Clone, Copy)]
pub struct MinibatchContext<'a> {
    /// Every stored transition of the update's rollout buffer.
    pub transitions: &'a [Transition<Observation>],
    /// The transition indices of this minibatch, in shuffled order.
    pub batch: &'a [usize],
    /// Normalised GAE advantages, indexed like `transitions`.
    pub advantages: &'a [f32],
    /// Value targets, indexed like `transitions`.
    pub returns: &'a [f32],
    /// The update's PPO hyper-parameters.
    pub ppo: PpoHyperParams,
}

/// The result of evaluating one minibatch: the per-transition gradient
/// contributions merged in minibatch-position order, plus each transition's
/// scalar loss diagnostics in the same order.
#[derive(Debug, Clone)]
pub struct MinibatchGrads {
    /// The merged gradient of the minibatch's mean loss.
    pub grads: GradBuffer,
    /// Per-transition diagnostics, aligned with `MinibatchContext::batch`.
    pub stats: Vec<TransitionLossStats>,
}

/// Back-propagates one transition's scaled PPO loss
/// (`(L_clip + c1 * L_vf + c2 * L_entropy) * inv`, Eqs. 3–5) into
/// caller-owned scratch: the tape is [recycled](Tape::recycle) and the buffer
/// [zero-filled](GradBuffer::zero_fill) before use — indistinguishable from
/// fresh ones — so an update loop that evaluates many transitions reuses one
/// tape and one gradient buffer per slot instead of re-allocating both per
/// transition.
///
/// This single function is the unit of work of **every** update path: the
/// serial oracle (`xrlflow_bench::oracle::minibatch_grads_serial`) calls it
/// transition by transition, and the data-parallel engine in
/// `xrlflow-rollout` calls it from worker threads that borrow the same
/// agent — so the two paths produce bit-identical per-transition gradients
/// by construction, and only the merge order (fixed: minibatch position)
/// decides the final bits.
///
/// `_ppo` is not read: `c1`, `c2` and `epsilon` are the constants
/// [`VALUE_LOSS_COEFFICIENT`], [`ENTROPY_COEFFICIENT`] and [`CLIP_EPSILON`].
/// The parameter stays while the end-to-end benchmark, which calls this
/// function, still passes it.
#[allow(clippy::too_many_arguments)]
pub fn transition_grad_into(
    agent: &XrlflowAgent,
    transition: &Transition<Observation>,
    advantage: f32,
    ret: f32,
    _ppo: &PpoHyperParams,
    inv: f32,
    tape: &mut Tape,
    grads: &mut GradBuffer,
) -> TransitionLossStats {
    tape.recycle();
    grads.zero_fill();
    let eval = agent.evaluate(tape, &transition.observation, transition.action);

    // Policy (clip) loss, Eq. 3.
    let old_log_prob = tape.constant(Tensor::scalar(transition.log_prob));
    let log_ratio = tape.sub(eval.log_prob, old_log_prob);
    let ratio = tape.exp(log_ratio);
    let adv = tape.constant(Tensor::scalar(advantage));
    let surrogate1 = tape.mul(ratio, adv);
    let (low, high) = (1.0 - CLIP_EPSILON, 1.0 + CLIP_EPSILON);
    let clipped = tape.clamp(ratio, low, high);
    let surrogate2 = tape.mul(clipped, adv);
    let surrogate = tape.minimum(surrogate1, surrogate2);
    let policy_loss = tape.neg(surrogate);

    // Value loss, Eq. 4.
    let target = tape.constant(Tensor::scalar(ret));
    let diff = tape.sub(eval.value, target);
    let value_loss = tape.mul(diff, diff);

    // Entropy bonus (maximise entropy => subtract it).
    let neg_entropy = tape.neg(eval.entropy);

    // J = L_clip + c1 * L_vf + c2 * L_entropy, Eq. 5, scaled by the
    // minibatch mean factor so merged contributions sum to the mean loss
    // gradient.
    let value_term = tape.scale(value_loss, VALUE_LOSS_COEFFICIENT);
    let entropy_term = tape.scale(neg_entropy, ENTROPY_COEFFICIENT);
    let partial = tape.add(policy_loss, value_term);
    let sample_loss = tape.add(partial, entropy_term);
    let sample_loss = tape.scale(sample_loss, inv);

    tape.backward_into(sample_loss, grads);
    // A pure read of the already-computed ratio: recording whether the clip
    // was active changes no tape node and no gradient bit.
    let ratio_value = tape.value(ratio).item();
    TransitionLossStats {
        policy_loss: tape.value(policy_loss).item(),
        value_loss: tape.value(value_loss).item(),
        entropy: tape.value(eval.entropy).item(),
        predicted_value: tape.value(eval.value).item(),
        clipped: ratio_value < low || ratio_value > high,
    }
}

/// The PPO update state of one training run: the Adam optimiser, the update
/// counter that seeds the minibatch shuffles, and the run's base seed.
#[derive(Debug)]
pub struct Trainer {
    config: XrlflowConfig,
    optimizer: Adam,
    base_seed: u64,
    update_counter: u64,
}

impl Trainer {
    /// Creates a trainer for a run whose episode seed schedule derives from
    /// `seed`.
    pub fn new(config: XrlflowConfig, seed: u64) -> Self {
        let optimizer = Adam::new(LEARNING_RATE);
        Self { config, optimizer, base_seed: seed, update_counter: 0 }
    }

    /// The configuration in use.
    pub fn config(&self) -> &XrlflowConfig {
        &self.config
    }

    /// The run's base seed: the `seed` given to [`Trainer::new`], or the one
    /// adopted from a [`TrainState`] by [`Trainer::restore_train_state`].
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// Performs one PPO update over a merged multi-model buffer.
    ///
    /// Advantages are normalised *per segment* (one segment per curriculum
    /// model, in merge order; an empty slice is one segment over the whole
    /// buffer), so a large graph's long high-variance episodes don't
    /// dominate the gradient of smaller models sharing the update.
    ///
    /// `minibatch_grads` is the minibatch gradient evaluator: the
    /// data-parallel engine in `xrlflow-rollout`, or the serial oracle
    /// `xrlflow_bench::oracle::minibatch_grads_serial` that the differential
    /// tests drive. Everything that *steps the optimiser* stays here,
    /// on the calling thread: per minibatch the evaluator produces the
    /// merged per-transition gradient (in minibatch-position order) and
    /// per-transition diagnostics, and this function clips that gradient
    /// (recording its pre-clip norm) and steps the store from it. An
    /// evaluator is therefore free to shard the re-evaluations across worker
    /// threads — as long as it merges buffers by position (never completion
    /// order) the update is bit-identical to the serial oracle.
    ///
    /// The reported `grad_norm` is the **mean** pre-clip gradient norm
    /// across all minibatches of the update.
    ///
    /// # Errors
    ///
    /// Propagates the first [`WorkerFault`] the evaluator reports (a work
    /// item that exhausted its retry budget in a supervised pool). The
    /// update stops immediately; because earlier minibatches may already
    /// have stepped the optimiser, the agent's state after an error is
    /// unspecified — recover by resuming from the last durable
    /// `TrainState` checkpoint.
    ///
    /// # Panics
    ///
    /// Panics when `segments` do not partition the buffer in order.
    pub fn update(
        &mut self,
        agent: &mut XrlflowAgent,
        buffer: &mut RolloutBuffer<Observation>,
        segments: &[std::ops::Range<usize>],
        minibatch_grads: &mut dyn FnMut(
            &XrlflowAgent,
            &MinibatchContext,
        ) -> Result<MinibatchGrads, WorkerFault>,
    ) -> Result<TrainingStats, WorkerFault> {
        let _span = xrlflow_obs::span!("core/ppo_update");
        let ppo = self.config.ppo;
        buffer.compute_advantages_segmented(ppo.gamma, ppo.gae_lambda, segments);
        let advantages = buffer.advantages().to_vec();
        let returns = buffer.returns().to_vec();

        let mut policy_losses = Vec::new();
        let mut value_losses = Vec::new();
        let mut entropies = Vec::new();
        let mut grad_norms = Vec::new();
        let mut predicted_values = Vec::new();
        let mut clipped_evals = 0usize;

        self.update_counter += 1;
        for epoch in 0..ppo.epochs_per_update {
            let seed = minibatch_shuffle_seed(self.update_counter, epoch as u64);
            let batches = buffer.minibatch_indices(ppo.batch_size, seed);
            for batch in batches {
                if batch.is_empty() {
                    continue;
                }
                let ctx = MinibatchContext {
                    transitions: buffer.transitions(),
                    batch: &batch,
                    advantages: &advantages,
                    returns: &returns,
                    ppo,
                };
                let MinibatchGrads { mut grads, stats: per_transition } = minibatch_grads(agent, &ctx)?;
                assert_eq!(
                    per_transition.len(),
                    batch.len(),
                    "the evaluator must return one stats entry per transition"
                );
                for (stats, &i) in per_transition.iter().zip(&batch) {
                    policy_losses.push(stats.policy_loss);
                    value_losses.push(stats.value_loss);
                    entropies.push(stats.entropy);
                    clipped_evals += stats.clipped as usize;
                    if epoch == 0 {
                        predicted_values.push((i, stats.predicted_value));
                    }
                }
                grad_norms.push(grads.clip_norm(MAX_GRAD_NORM));
                self.optimizer.step(&mut agent.store, &grads);
            }
        }

        let mean = |v: &[f32]| if v.is_empty() { 0.0 } else { v.iter().sum::<f32>() / v.len() as f32 };
        let mut preds = vec![0.0f32; returns.len()];
        for (i, v) in predicted_values {
            preds[i] = v;
        }
        let stats = TrainingStats {
            policy_loss: mean(&policy_losses),
            value_loss: mean(&value_losses),
            entropy: mean(&entropies),
            mean_episode_reward: mean(&buffer.episode_rewards()),
            explained_variance: explained_variance(&preds, &returns),
            grad_norm: mean(&grad_norms),
            clip_fraction: if policy_losses.is_empty() {
                0.0
            } else {
                clipped_evals as f32 / policy_losses.len() as f32
            },
            transitions: buffer.len(),
        };
        // Export the update's diagnostic series to the telemetry registry —
        // pure reads of already-computed statistics, bit-transparent.
        xrlflow_obs::counter!("core/updates").inc();
        xrlflow_obs::counter!("core/update_transitions").add(stats.transitions as u64);
        xrlflow_obs::gauge!("core/policy_loss").set(stats.policy_loss as f64);
        xrlflow_obs::gauge!("core/value_loss").set(stats.value_loss as f64);
        xrlflow_obs::gauge!("core/entropy").set(stats.entropy as f64);
        xrlflow_obs::gauge!("core/grad_norm").set(stats.grad_norm as f64);
        xrlflow_obs::gauge!("core/clip_fraction").set(stats.clip_fraction as f64);
        xrlflow_obs::gauge!("core/explained_variance").set(stats.explained_variance as f64);
        buffer.clear();
        Ok(stats)
    }

    /// Number of PPO updates performed so far. The counter seeds the
    /// minibatch shuffle schedule ([`minibatch_shuffle_seed`]), so it is
    /// part of the exact-resume state.
    pub fn update_counter(&self) -> u64 {
        self.update_counter
    }

    /// Captures the complete training state for exact resume: parameters,
    /// Adam moments and step counter, the update counter, and the rollout
    /// engine's seed-schedule position (`next_episode` under `base_seed` —
    /// the round loop passes [`Trainer::base_seed`]).
    ///
    /// A trainer restored from this state ([`Trainer::restore_train_state`])
    /// continues training **bit-identically** to one that was never
    /// interrupted.
    pub fn train_state(&self, agent: &XrlflowAgent, next_episode: u64, base_seed: u64) -> TrainState {
        let (adam_first, adam_second) = self.optimizer.moments(&agent.store);
        TrainState {
            params: agent.store.snapshot(),
            adam_first,
            adam_second,
            adam_steps: self.optimizer.steps() as u64,
            update_counter: self.update_counter,
            next_episode,
            base_seed,
        }
    }

    /// Restores trainer and agent from a [`TrainState`], adopting the
    /// state's base seed as the run's.
    ///
    /// Adoption is all-or-nothing: the moment sections are validated
    /// against the parameter section and the parameters against the live
    /// store *before* anything is written, so a failed restore leaves the
    /// agent, the optimiser, the base seed and the update counter
    /// untouched. The caller owns the schedule position
    /// (`state.next_episode`) — the round loop consumes it.
    ///
    /// # Errors
    ///
    /// Returns the [`SnapshotError`] naming the first mismatch between the
    /// checkpoint and the agent's architecture.
    pub fn restore_train_state(
        &mut self,
        agent: &mut XrlflowAgent,
        state: &TrainState,
    ) -> Result<(), SnapshotError> {
        // A hand-built state may not have mirrored sections; files already
        // passed this in `TrainState::from_bytes`. With the sections proven
        // congruent, a successful params load guarantees the moment load
        // cannot fail — no window for partial adoption remains.
        state.params.compatible_with(&state.adam_first)?;
        state.params.compatible_with(&state.adam_second)?;
        agent.store.load_snapshot(&state.params)?;
        self.optimizer.load_moments(&agent.store, &state.adam_first, &state.adam_second)?;
        self.optimizer.set_steps(state.adam_steps as usize);
        self.update_counter = state.update_counter;
        self.base_seed = state.base_seed;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrlflow_cost::{DeviceProfile, InferenceSimulator};
    use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
    use xrlflow_rewrite::RuleSet;
    use xrlflow_tensor::ParamSnapshot;

    fn make_env(config: &XrlflowConfig) -> Environment {
        let graph = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
        Environment::new(
            graph,
            RuleSet::standard(),
            InferenceSimulator::new(DeviceProfile::gtx1080()),
            config.env.clone(),
        )
    }

    #[test]
    fn collect_episode_fills_buffer_with_consistent_transitions() {
        let config = XrlflowConfig::smoke_test();
        let agent = XrlflowAgent::new(&config, 1);
        let mut env = make_env(&config);
        let mut rng = XorShiftRng::new(3);
        let mut buffer = RolloutBuffer::new();
        let stats = collect_episode_with_rng(
            &agent,
            &mut env,
            &mut rng,
            &mut buffer,
            0,
            &mut EpisodeScratch::default(),
        );
        assert!(!buffer.is_empty());
        assert!(buffer.transitions().last().unwrap().done);
        assert!(stats.final_latency_ms > 0.0);
        for t in buffer.transitions() {
            assert!(t.action_mask.len() > 1);
            assert!(t.log_prob <= 0.0);
        }
    }

    #[test]
    fn minibatch_shuffle_seeds_do_not_collide_across_updates_and_epochs() {
        // The replaced `update_counter + epoch` scheme collided between
        // consecutive updates (the counter advanced by epochs_per_update);
        // the SplitMix64 mix must keep every (update, epoch) pair distinct.
        let mut seeds = std::collections::HashSet::new();
        for update in 1..=32u64 {
            for epoch in 0..8u64 {
                seeds.insert(minibatch_shuffle_seed(update, epoch));
            }
        }
        assert_eq!(seeds.len(), 32 * 8, "(update, epoch) pairs must map to distinct shuffle seeds");
        assert_eq!(minibatch_shuffle_seed(3, 1), minibatch_shuffle_seed(3, 1));
    }

    #[test]
    fn checkpoint_round_trip_restores_the_policy() {
        let config = XrlflowConfig::smoke_test();
        let agent = XrlflowAgent::new(&config, 21);
        let path = std::env::temp_dir().join("xrlflow_trainer_ckpt_test/agent.snap");
        agent.snapshot().save(&path).unwrap();

        let mut restored = XrlflowAgent::new(&config, 99);
        let probe = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
        assert_ne!(agent.embed_graph(&probe).data(), restored.embed_graph(&probe).data());
        restored.store.load_snapshot(&ParamSnapshot::load(&path).unwrap()).unwrap();
        assert_eq!(
            agent.embed_graph(&probe).data(),
            restored.embed_graph(&probe).data(),
            "restored agent must be bit-identical to the checkpointed one"
        );
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn checkpoint_mismatch_fails_gracefully() {
        let config = XrlflowConfig::smoke_test();
        let path = std::env::temp_dir().join("xrlflow_trainer_ckpt_mismatch/agent.snap");
        XrlflowAgent::new(&config, 0).snapshot().save(&path).unwrap();

        let mut wider = config.clone();
        wider.encoder.hidden_dim *= 2;
        let mut victim = XrlflowAgent::new(&wider, 1);
        let probe = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
        let before = victim.embed_graph(&probe);
        let err = victim.store.load_snapshot(&ParamSnapshot::load(&path).unwrap()).unwrap_err();
        assert!(!err.to_string().is_empty());
        // The failed load must leave the agent untouched.
        assert_eq!(victim.embed_graph(&probe).data(), before.data());
        // A missing file is an error, not a panic.
        assert!(ParamSnapshot::load(path.parent().unwrap().join("missing.snap")).is_err());
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}
