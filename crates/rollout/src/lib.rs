//! # xrlflow-rollout
//!
//! Parallel execution engine for the X-RLflow PPO loop (paper §3.3,
//! Algorithm 1): the two phases of a round that fan out — episode collection
//! ([`collect_parallel`], [`collect_curriculum_parallel`]) and the PPO
//! update's per-transition re-evaluations ([`update_parallel`]) — turn
//! multi-core hardware into throughput without changing a single learned
//! number.
//!
//! **Every fan-out phase is one call to the private `supervise::run_items`
//! engine** — the only place in this crate that spawns threads, catches
//! panics, retries or meters a pool, so these contracts are enforced once:
//!
//! * **Sharding and ordered merge.** Work items are numbered `0..n`; a phase
//!   starts `W = min(workers, usable CPUs, n)` threads — the worker count is
//!   an upper bound, never more threads than the process may use CPUs —
//!   and thread `w` takes items `w, w + W, …`. Results are handed to the
//!   phase's merge **by item index**, never completion order. One thread
//!   runs inline on the calling thread — no spawn — and hands each result
//!   over as soon as every earlier item has succeeded.
//! * **Supervision.** Every item runs under `catch_unwind` with the
//!   `xrlflow_core::fault` injection hook at its top. A panicking item is
//!   retried on the calling thread, in item order, up to 2 extra attempts;
//!   only budget exhaustion surfaces — as the typed
//!   [`RolloutError::WorkerFault`], the one way a phase can fail, never a
//!   process abort (`rollout/worker_panics`, `rollout/item_retries`).
//! * **Metering.** Every pooled run, collect or update, records the
//!   `rollout/worker_busy` span and feeds `rollout/worker_busy_ns`,
//!   `rollout/worker_wall_ns` and the `rollout/worker_utilization` gauge;
//!   inline runs and a disabled registry record nothing.
//!
//! What the phases add on top is *what an item is*, under a strict
//! determinism contract:
//!
//! * **An agent is borrowed, never broadcast.** Every worker of a phase reads
//!   the trainer's live agent through one shared `&XrlflowAgent` (parameters
//!   are `Arc<Tensor>`, every policy method takes `&self`, the engine's
//!   threads are scoped); a thread's own state is scratch — environments, a
//!   `Tape` — never parameters. The optimiser steps on the trainer thread
//!   *between* phases: `&mut agent` there, `&agent` inside a phase, so the
//!   borrow checker states the rule. A [`ParamSnapshot`] is the on-disk
//!   deployable policy and the input of the two public collectors (each
//!   builds one agent from it and lends that out) — not a per-round copy.
//! * **Shared immutable world.** Threads build their environments from
//!   [`EnvSpec`]s — the same `Arc<Graph>` model-zoo entry, `Arc<RuleSet>` and
//!   `Arc<InferenceSimulator>` (whose memoised measurement cache is
//!   internally synchronised and seed-deterministic regardless of cache
//!   state).
//! * **Item-keyed seed schedules.** A collection item is a descriptor
//!   `(env slot, episode, rng seed, fault id)`. Episode `e` always resets
//!   its environment with seed `e` and samples actions from a fresh
//!   `XorShiftRng` seeded by [`episode_rng_seed`] (single spec) or
//!   [`curriculum_rng_seed`] (spec-major curriculum) — the two schedules are
//!   data fed to one collector, and no seed depends on which thread runs the
//!   item. That is also what makes a retried item bit-identical to a
//!   first-attempt success.
//!
//! Together these make the pooled phases at any worker count — and under any
//! number of recovered faults — bit-identical to the retained,
//! supervision-free serial oracles [`collect_serial`],
//! [`collect_curriculum_serial`] and `xrlflow_core::minibatch_grads_serial`,
//! asserted by differential tests in the same spirit as
//! `policy_logits_serial`.
//!
//! **[`ParallelTrainer`] is the one train loop of the workspace**: its
//! private `run_rounds` is the only code that knows the collect → update →
//! checkpoint cadence, behind [`ParallelTrainer::train`] (one spec),
//! [`ParallelTrainer::train_curriculum`] (many) and the [`XrlflowSystem`]
//! facade the paper's figures use. It additionally writes durable
//! exact-resume [`TrainState`] checkpoints ([`CheckpointConfig`]) so a killed
//! run continues bit-identically.
//!
//! **Rule: new phases call `run_items`; never hand-roll a scoped-thread pool
//! or an unwind catcher next to it.** Key all randomness to the item index
//! and the fault, resume and telemetry contracts come for free.
//!
//! ## Quickstart
//!
//! Train one agent on one DNN and optimise it greedily (the paper's set-up):
//!
//! ```
//! use xrlflow_core::XrlflowConfig;
//! use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
//! use xrlflow_rollout::XrlflowSystem;
//!
//! let graph = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
//! let mut system = XrlflowSystem::new(XrlflowConfig::smoke_test(), 0);
//! let (report, result) = system.train_and_optimize(&graph, 2).unwrap();
//! println!(
//!     "trained for {} episodes; optimised graph runs at {:.3} ms ({:+.1}% speedup)",
//!     report.episodes.len(),
//!     result.final_latency_ms,
//!     result.speedup_percent(),
//! );
//! ```
//!
//! One collection round on the pool, by hand:
//!
//! ```
//! use xrlflow_core::{XrlflowAgent, XrlflowConfig};
//! use xrlflow_cost::DeviceProfile;
//! use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
//! use xrlflow_rewrite::RuleSet;
//! use xrlflow_rollout::{collect_parallel, EnvSpec};
//!
//! let config = XrlflowConfig::smoke_test();
//! let graph = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
//! let spec = EnvSpec::new(graph, RuleSet::standard(), DeviceProfile::gtx1080(), config.env.clone());
//! let agent = XrlflowAgent::new(&config, 0);
//! let rollouts = collect_parallel(&config, &agent.snapshot(), &spec, 0, 2, 7, 2).unwrap();
//! assert_eq!(rollouts.episodes.len(), 2);
//! assert!(!rollouts.buffer.is_empty());
//! ```

#![warn(missing_docs)]

mod curriculum;
mod error;
mod supervise;
mod system;
mod update;

pub use curriculum::{
    collect_curriculum_parallel, collect_curriculum_serial, curriculum_fault_item, curriculum_rng_seed,
    evaluate_curriculum, Curriculum, CurriculumEntry, CurriculumEpisode, CurriculumRollouts, ModelEvaluation,
};
pub use error::RolloutError;
pub use system::{run_generalization, GeneralizationPoint, GeneralizationReport, XrlflowSystem};
pub use update::{minibatch_grads_parallel, update_parallel};

use std::ops::Range;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use xrlflow_core::fault::{FaultPhase, WorkerFault};
use xrlflow_core::{
    collect_episode_with_rng, collect_phase_breakdown_ns, latest_train_state, policy_steps_counted,
    prune_train_states, train_state_path, ModelBreakdown, TrainReport, TrainState, Trainer, UpdateTiming,
    XrlflowAgent, XrlflowConfig,
};
use xrlflow_cost::{DeviceProfile, InferenceSimulator};
use xrlflow_env::{EnvConfig, Environment, EpisodeStats, Observation};
use xrlflow_graph::Graph;
use xrlflow_rewrite::RuleSet;
use xrlflow_rl::RolloutBuffer;
use xrlflow_tensor::{ParamSnapshot, SnapshotError, XorShiftRng};

/// Everything a worker needs to build its own [`Environment`]: the initial
/// graph (one shared model-zoo entry), the rule library, the latency
/// simulator and the environment configuration.
///
/// All three heavyweight components sit behind [`Arc`]s, so building one
/// environment per worker duplicates nothing graph- or rule-sized, and
/// latency measurements memoised by one worker are reused by all.
#[derive(Debug, Clone)]
pub struct EnvSpec {
    /// The graph to optimise (shared, never mutated).
    pub graph: Arc<Graph>,
    /// The rewrite-rule library (stateless, shared).
    pub rules: Arc<RuleSet>,
    /// The end-to-end latency simulator (shared; its measurement memo is
    /// internally synchronised and deterministic per seed).
    pub simulator: Arc<InferenceSimulator>,
    /// Reward-shaping and termination configuration.
    pub env: EnvConfig,
}

impl EnvSpec {
    /// Creates a spec from owned components.
    pub fn new(graph: Graph, rules: RuleSet, profile: DeviceProfile, env: EnvConfig) -> Self {
        Self {
            graph: Arc::new(graph),
            rules: Arc::new(rules),
            simulator: Arc::new(InferenceSimulator::new(profile)),
            env,
        }
    }

    /// Builds a fresh environment over the shared components.
    pub fn build_env(&self) -> Environment {
        Environment::from_shared(
            Arc::clone(&self.graph),
            Arc::clone(&self.rules),
            Arc::clone(&self.simulator),
            self.env.clone(),
        )
    }
}

/// The merged result of collecting a batch of episodes: one rollout buffer
/// holding every transition in episode order, plus per-episode statistics in
/// the same order.
#[derive(Debug, Clone, Default)]
pub struct CollectedRollouts {
    /// Transitions of all episodes, concatenated in episode-index order.
    pub buffer: RolloutBuffer<Observation>,
    /// Per-episode statistics, indexed by episode order.
    pub episodes: Vec<EpisodeStats>,
}

// The SplitMix64 finaliser decorrelating seeds from structured indices now
// lives in `xrlflow_tensor` (the trainer's minibatch-shuffle seed uses the
// same mix); re-imported here for the episode/curriculum seed schedules.
pub(crate) use xrlflow_tensor::splitmix64;

/// The deterministic seed of episode `episode`'s action-sampling RNG.
///
/// Part of the determinism contract: every path that collects episode `e`
/// under base seed `b` — serial or any worker of any pool size — derives its
/// `XorShiftRng` from this value.
pub fn episode_rng_seed(base_seed: u64, episode: u64) -> u64 {
    splitmix64(base_seed ^ episode.wrapping_mul(0xA24B_AED4_963E_E407))
}

/// The retained serial collection path: episodes `first_episode ..
/// first_episode + num_episodes` collected one after another in the calling
/// thread, against the live agent — episode `e` resets the environment with
/// seed `e` and samples actions from a fresh RNG seeded by
/// [`episode_rng_seed`].
///
/// This is the differential-testing oracle for [`collect_parallel`] (same
/// spirit as `policy_logits_serial`) — deliberately free of the supervised
/// pool's catch/retry machinery, so the differential suites compare the
/// fault-tolerant engine against a path that cannot mask a panic.
pub fn collect_serial(
    agent: &XrlflowAgent,
    spec: &EnvSpec,
    first_episode: u64,
    num_episodes: usize,
    base_seed: u64,
) -> CollectedRollouts {
    let mut env = spec.build_env();
    let mut out = CollectedRollouts::default();
    for episode in first_episode..first_episode + num_episodes as u64 {
        let mut rng = XorShiftRng::new(episode_rng_seed(base_seed, episode));
        let stats = collect_episode_with_rng(agent, &mut env, &mut rng, &mut out.buffer, episode);
        out.episodes.push(stats);
    }
    out
}

/// One collection work item: which environment slot it runs in, the episode
/// index (also the environment reset seed), the seed of its action-sampling
/// RNG and the id the fault-injection hook (and a `WorkerFault`) knows it by.
struct CollectItem {
    slot: usize,
    episode: u64,
    rng_seed: u64,
    fault_item: u64,
}

/// A collection round's work, as data: the phase it reports faults under and
/// its items in merge order. Items must be slot-major (every slot's items
/// contiguous, slots ascending) so each slot's transitions form one segment.
struct Schedule {
    phase: FaultPhase,
    items: Vec<CollectItem>,
}

/// The single-spec schedule: episodes `first_episode .. first_episode +
/// num_episodes` in slot 0, seeded by [`episode_rng_seed`], reported under
/// [`FaultPhase::Collect`] with the episode index as fault id.
fn episode_schedule(first_episode: u64, num_episodes: usize, base_seed: u64) -> Schedule {
    let items = (first_episode..first_episode + num_episodes as u64)
        .map(|episode| CollectItem {
            slot: 0,
            episode,
            rng_seed: episode_rng_seed(base_seed, episode),
            fault_item: episode,
        })
        .collect();
    Schedule { phase: FaultPhase::Collect, items }
}

/// One merged collection round: every transition in item order, each
/// episode's `(slot, episode, stats)` in the same order, and the transition
/// range of each slot (one per spec, partitioning the buffer) — the per-spec
/// advantage-normalisation segments of the PPO update.
#[derive(Default)]
struct Round {
    buffer: RolloutBuffer<Observation>,
    episodes: Vec<(usize, u64, EpisodeStats)>,
    segments: Vec<Range<usize>>,
}

/// The one collector behind [`collect_parallel`],
/// [`collect_curriculum_parallel`] and [`ParallelTrainer`]: runs `schedule`
/// over `specs` (indexed by item slot) on the supervised engine and appends
/// each episode's buffer to the round as the engine delivers it, in item
/// order. Every thread borrows `agent`; a thread's state is one lazily built
/// environment per spec it touches.
fn collect_round(
    agent: &XrlflowAgent,
    specs: &[&EnvSpec],
    schedule: &Schedule,
    num_workers: usize,
) -> Result<Round, WorkerFault> {
    // Closes the segments of every slot below `slot`: each starts where the
    // one before it ended.
    fn close_segments(round: &mut Round, slot: usize) {
        while round.segments.len() < slot {
            let start = round.segments.last().map_or(0, |segment| segment.end);
            round.segments.push(start..round.buffer.len());
        }
    }
    let items = &schedule.items;
    let mut round = Round::default();
    supervise::run_items(
        schedule.phase,
        items.len(),
        num_workers,
        |index| items[index].fault_item,
        || specs.iter().map(|_| None).collect::<Vec<Option<Environment>>>(),
        |envs, index| {
            let item = &items[index];
            // reset() makes reuse across episodes bit-identical to a fresh
            // environment.
            let env = envs[item.slot].get_or_insert_with(|| specs[item.slot].build_env());
            let mut buffer = RolloutBuffer::new();
            let mut rng = XorShiftRng::new(item.rng_seed);
            let stats = collect_episode_with_rng(agent, env, &mut rng, &mut buffer, item.episode);
            (buffer, stats)
        },
        |index, (mut buffer, stats)| {
            let item = &items[index];
            debug_assert!(item.slot >= round.segments.len(), "schedules must be slot-major");
            close_segments(&mut round, item.slot);
            round.buffer.append(&mut buffer);
            round.episodes.push((item.slot, item.episode, stats));
        },
    )?;
    close_segments(&mut round, specs.len());
    Ok(round)
}

/// Collects episodes `first_episode .. first_episode + num_episodes` with a
/// supervised pool of up to `num_workers` threads (never more than the CPUs
/// the process may use).
///
/// Builds **one** read-only agent from `snapshot`
/// ([`XrlflowAgent::from_snapshot`]; its forward pass is bit-identical to the
/// agent the snapshot was captured from) and lends it to every worker; each
/// worker builds its own environment from `spec` and round-robins over the
/// episode indices assigned to it (`episode % num_workers == worker`).
/// Results are merged **by episode index**, so the output is
/// transition-for-transition bit-identical to [`collect_serial`] over the
/// same range and base seed, for any worker count — one worker runs the same
/// supervised path inline.
///
/// Supervised by the crate's one engine (see the crate docs): a panicking
/// episode is retried with identical seeds, hence identical transitions.
///
/// # Errors
///
/// * [`RolloutError::Snapshot`] when `snapshot` does not match the
///   architecture described by `config`.
/// * [`RolloutError::WorkerFault`] when an episode kept panicking past the
///   retry budget (2 extra attempts).
pub fn collect_parallel(
    config: &XrlflowConfig,
    snapshot: &ParamSnapshot,
    spec: &EnvSpec,
    first_episode: u64,
    num_episodes: usize,
    base_seed: u64,
    num_workers: usize,
) -> Result<CollectedRollouts, RolloutError> {
    let agent = XrlflowAgent::from_snapshot(config, snapshot)?;
    let schedule = episode_schedule(first_episode, num_episodes, base_seed);
    let round = collect_round(&agent, &[spec], &schedule, num_workers)?;
    Ok(CollectedRollouts {
        buffer: round.buffer,
        episodes: round.episodes.into_iter().map(|(_, _, stats)| stats).collect(),
    })
}

/// Durable-checkpoint policy for [`ParallelTrainer`]: where to write
/// versioned [`TrainState`]s, how often (in update rounds), and how many to
/// retain.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory the `state-<episode>.xrlftrst` files are written into
    /// (created on first write).
    pub dir: PathBuf,
    /// Write a checkpoint every this many update rounds, counted from the
    /// start of the run (so resuming does not shift the cadence); the final
    /// round of a run always checkpoints. Clamp to ≥ 1 via
    /// [`CheckpointConfig::every`].
    pub every: usize,
    /// Keep the newest `keep_last` states, pruning older ones after each
    /// write. Clamp to ≥ 1 via [`CheckpointConfig::keep_last`].
    pub keep_last: usize,
}

impl CheckpointConfig {
    /// A policy checkpointing after every update round into `dir`, retaining
    /// the newest 3 states.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into(), every: 1, keep_last: 3 }
    }

    /// Builder: checkpoint every `every` update rounds (clamped to ≥ 1).
    #[must_use]
    pub fn every(mut self, every: usize) -> Self {
        self.every = every.max(1);
        self
    }

    /// Builder: retain the newest `keep_last` states (clamped to ≥ 1).
    #[must_use]
    pub fn keep_last(mut self, keep_last: usize) -> Self {
        self.keep_last = keep_last.max(1);
        self
    }

    /// Reads the policy from the environment: enabled iff
    /// `XRLFLOW_CHECKPOINT_DIR` is set and non-empty, with
    /// `XRLFLOW_CHECKPOINT_EVERY` (default 1) and `XRLFLOW_CHECKPOINT_KEEP`
    /// (default 3) tuning cadence and retention. Zero or unparseable values
    /// fall back to the defaults, matching the leniency of `XRLFLOW_WORKERS`.
    pub fn from_env() -> Option<Self> {
        let dir = std::env::var("XRLFLOW_CHECKPOINT_DIR").ok()?;
        if dir.trim().is_empty() {
            return None;
        }
        let knob = |var: &str| -> Option<usize> {
            std::env::var(var).ok().and_then(|v| v.trim().parse().ok()).filter(|&n| n > 0)
        };
        let mut config = Self::new(dir);
        if let Some(every) = knob("XRLFLOW_CHECKPOINT_EVERY") {
            config.every = every;
        }
        if let Some(keep_last) = knob("XRLFLOW_CHECKPOINT_KEEP") {
            config.keep_last = keep_last;
        }
        Some(config)
    }
}

/// A PPO trainer whose collection **and update** phases run on the worker
/// pool.
///
/// The one place in the workspace that knows the collect → update →
/// checkpoint cadence of Algorithm 1. Wraps the PPO update state
/// ([`Trainer`]): episodes are collected by the pool and merged in episode
/// order, and each PPO minibatch's transition re-evaluations are sharded
/// across the same worker count with an index-ordered gradient merge
/// ([`minibatch_grads_parallel`]). Both phases are bit-identical to their
/// serial oracles, so the worker count changes wall-clock time only, never a
/// learned number.
///
/// With a [`CheckpointConfig`] installed (explicitly or via
/// `XRLFLOW_CHECKPOINT_DIR`), the trainer writes a durable [`TrainState`]
/// after every `every`-th update round — parameters, Adam moments, step and
/// update counters, base seed and the episode schedule position, written
/// atomically — and [`ParallelTrainer::resume_from`] continues a killed run
/// bit-identically to one that never stopped.
#[derive(Debug)]
pub struct ParallelTrainer {
    trainer: Trainer,
    num_workers: usize,
    checkpointing: Option<CheckpointConfig>,
    resume_episode: u64,
}

impl ParallelTrainer {
    /// Creates a parallel trainer; the worker count comes from
    /// [`XrlflowConfig::effective_num_workers`] (the `num_workers` field,
    /// overridable via `XRLFLOW_WORKERS`), and checkpointing is enabled when
    /// `XRLFLOW_CHECKPOINT_DIR` is set ([`CheckpointConfig::from_env`]).
    pub fn new(config: XrlflowConfig, seed: u64) -> Self {
        let num_workers = config.effective_num_workers();
        Self {
            trainer: Trainer::new(config, seed),
            num_workers,
            checkpointing: CheckpointConfig::from_env(),
            resume_episode: 0,
        }
    }

    /// Installs (or, with `None`, disables) the durable-checkpoint policy.
    pub fn set_checkpointing(&mut self, checkpointing: Option<CheckpointConfig>) {
        self.checkpointing = checkpointing;
    }

    /// The active durable-checkpoint policy, if any.
    pub fn checkpointing(&self) -> Option<&CheckpointConfig> {
        self.checkpointing.as_ref()
    }

    /// Restores trainer and agent to a durable [`TrainState`]: parameters,
    /// Adam moments and step count, the update counter (which drives the
    /// minibatch shuffle schedule), the run's base seed and the episode
    /// schedule position. The next [`ParallelTrainer::train`] or
    /// [`ParallelTrainer::train_curriculum`] call continues collecting at
    /// `state.next_episode` — bit-identical to a run that never stopped.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] when the state does not match the agent's
    /// architecture; neither trainer nor agent is modified on error.
    pub fn resume_from(&mut self, agent: &mut XrlflowAgent, state: &TrainState) -> Result<(), SnapshotError> {
        self.trainer.restore_train_state(agent, state)?;
        self.resume_episode = state.next_episode;
        Ok(())
    }

    /// [`ParallelTrainer::resume_from`] the newest [`TrainState`] in `dir`.
    /// Returns the resumed schedule position, or `None` when the directory
    /// holds no state (including when it does not exist) — the caller then
    /// starts fresh.
    ///
    /// # Errors
    ///
    /// * [`RolloutError::Checkpoint`] when the directory cannot be scanned.
    /// * [`RolloutError::Snapshot`] when the newest state is corrupt or does
    ///   not match the agent's architecture.
    pub fn resume_from_latest(
        &mut self,
        agent: &mut XrlflowAgent,
        dir: impl AsRef<std::path::Path>,
    ) -> Result<Option<u64>, RolloutError> {
        let Some(path) = latest_train_state(dir.as_ref()).map_err(RolloutError::Checkpoint)? else {
            return Ok(None);
        };
        let state = TrainState::load(&path)?;
        self.resume_from(agent, &state)?;
        Ok(Some(state.next_episode))
    }

    /// The episode-schedule position the next training run starts from
    /// (non-zero only after [`ParallelTrainer::resume_from`]).
    pub fn resume_episode(&self) -> u64 {
        self.resume_episode
    }

    /// The configured rollout worker count: an upper bound on the threads
    /// a phase starts (never more than the process may use CPUs).
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// Overrides the worker count (normally sized by
    /// [`XrlflowConfig::effective_num_workers`] at construction). Any value
    /// collects bit-identical episodes; only wall-clock time changes.
    pub fn set_num_workers(&mut self, num_workers: usize) {
        self.num_workers = num_workers.max(1);
    }

    /// The wrapped PPO update state (optimiser, update counter, base seed,
    /// [`Trainer::train_state`]).
    pub fn trainer(&self) -> &Trainer {
        &self.trainer
    }

    /// Runs the full training loop: collect `update_frequency` episodes
    /// across the supervised worker pool (every worker borrows `agent`),
    /// merge in episode order, update, repeat until `episodes` episodes have
    /// been collected. After a [`ParallelTrainer::resume_from`], collection
    /// continues at the restored schedule position instead of episode 0
    /// (`episodes` still names the run's total).
    ///
    /// With the same seed this produces bit-identical episodes, updates and
    /// final parameters for any worker count; [`TrainReport::timings`]
    /// records the wall-clock collection/update split per round so the
    /// parallel speedup is observable.
    ///
    /// The architecture is the agent's: the trainer's configuration supplies
    /// the PPO hyper-parameters and the round size, never a shape.
    ///
    /// # Errors
    ///
    /// * [`RolloutError::WorkerFault`] when a work item kept panicking past
    ///   the retry budget.
    /// * [`RolloutError::Checkpoint`] when a durable checkpoint write fails.
    pub fn train(
        &mut self,
        agent: &mut XrlflowAgent,
        spec: &EnvSpec,
        episodes: usize,
    ) -> Result<TrainReport, RolloutError> {
        Ok(self.run_rounds(agent, &[spec], episodes, episode_schedule)?.0)
    }

    /// Runs the multi-model curriculum training loop: per PPO round, collect
    /// `min(update_frequency, remaining)` episodes **for every curriculum
    /// model** across the worker pool (work items sharded spec-then-episode,
    /// merged in item order), then drive one shared update over the merged
    /// multi-model buffer with advantages normalised per spec — so a large
    /// graph's episodes don't dominate the gradient of the small models
    /// sharing the agent. Repeats until every model has contributed
    /// `episodes_per_spec` episodes.
    ///
    /// With the same seed this produces bit-identical episodes, updates and
    /// final parameters for any worker count. The returned report carries
    /// the usual episode/update/timing series plus
    /// [`TrainReport::per_model`] breakdowns, one per curriculum entry in
    /// curriculum order. After a [`ParallelTrainer::resume_from`], rounds
    /// continue at the restored per-spec schedule position.
    ///
    /// # Errors
    ///
    /// * [`RolloutError::WorkerFault`] when a work item kept panicking past
    ///   the retry budget.
    /// * [`RolloutError::Checkpoint`] when a durable checkpoint write fails.
    pub fn train_curriculum(
        &mut self,
        agent: &mut XrlflowAgent,
        curriculum: &Curriculum,
        episodes_per_spec: usize,
    ) -> Result<TrainReport, RolloutError> {
        if curriculum.is_empty() || episodes_per_spec == 0 {
            return Ok(TrainReport::default());
        }
        let specs = curriculum.specs();
        let (mut report, per_spec) =
            self.run_rounds(agent, &specs, episodes_per_spec, |first, batch, base_seed| {
                curriculum::curriculum_schedule(specs.len(), first, batch, base_seed)
            })?;
        report.per_model = curriculum
            .entries()
            .iter()
            .zip(&per_spec)
            .map(|(entry, stats)| ModelBreakdown::from_episodes(entry.name.clone(), stats))
            .collect();
        Ok(report)
    }

    /// The PPO round loop shared by [`ParallelTrainer::train`] and
    /// [`ParallelTrainer::train_curriculum`], which differ only in `specs`
    /// and the `schedule(first_episode, batch, base_seed)` they feed it: size
    /// each batch by the update frequency, collect the batch's schedule
    /// against the live agent through [`collect_round`], drive one
    /// update over the merged buffer with the round's segments through
    /// [`update_parallel`] (bit-identical to the serial path at every worker
    /// count), record the wall-clock collect/update split with the update's
    /// worker count, and — when a checkpoint policy is installed — write a
    /// durable [`TrainState`] after every `every`-th round of the run
    /// (counted from episode 0, so a resumed run keeps the uninterrupted
    /// run's cadence) and after the final one.
    /// Starts at the resumed schedule position, if any. Returns the report
    /// plus every episode's stats grouped by spec, in `specs` order.
    fn run_rounds(
        &mut self,
        agent: &mut XrlflowAgent,
        specs: &[&EnvSpec],
        episodes: usize,
        schedule: impl Fn(u64, usize, u64) -> Schedule,
    ) -> Result<(TrainReport, Vec<Vec<EpisodeStats>>), RolloutError> {
        let mut report = TrainReport::default();
        let mut per_spec = vec![Vec::new(); specs.len()];
        let num_workers = self.num_workers.max(1);
        let frequency = self.trainer.config().ppo.update_frequency.max(1);
        let mut next_episode = (std::mem::take(&mut self.resume_episode) as usize).min(episodes);
        while next_episode < episodes {
            let batch = frequency.min(episodes - next_episode);
            let (sim_before_ns, candgen_before_ns) = collect_phase_breakdown_ns();
            let (carried_before, cold_before) = policy_steps_counted();
            let collect_start = Instant::now();
            let mut round = {
                let _span = xrlflow_obs::span!("rollout/collect");
                let schedule = schedule(next_episode as u64, batch, self.trainer.base_seed());
                collect_round(agent, specs, &schedule, num_workers)?
            };
            let collect_ms = collect_start.elapsed().as_secs_f64() * 1e3;
            let (sim_after_ns, candgen_after_ns) = collect_phase_breakdown_ns();
            let (carried_after, cold_after) = policy_steps_counted();
            xrlflow_obs::counter!("rollout/episodes").add(round.episodes.len() as u64);
            for (spec, _, stats) in round.episodes {
                per_spec[spec].push(stats.clone());
                report.episodes.push(stats);
            }
            let update_start = Instant::now();
            let stats = {
                let _span = xrlflow_obs::span!("rollout/update");
                update_parallel(&mut self.trainer, agent, &mut round.buffer, &round.segments, num_workers)?
            };
            report.updates.push(stats);
            let update_ms = update_start.elapsed().as_secs_f64() * 1e3;
            report.timings.push(UpdateTiming {
                collect_ms,
                sim_ms: sim_after_ns.saturating_sub(sim_before_ns) as f64 / 1e6,
                candidate_gen_ms: candgen_after_ns.saturating_sub(candgen_before_ns) as f64 / 1e6,
                carried_steps: carried_after.saturating_sub(carried_before),
                cold_steps: cold_after.saturating_sub(cold_before),
                update_ms,
                update_workers: num_workers,
            });
            next_episode += batch;
            if let Some(checkpoint) = &self.checkpointing {
                // The round's index in the *run*, not in this call: a resumed
                // run checkpoints at the same episodes as an uninterrupted one.
                let round = next_episode / frequency;
                if round.is_multiple_of(checkpoint.every.max(1)) || next_episode >= episodes {
                    self.write_train_state(agent, next_episode as u64, checkpoint)?;
                }
            }
        }
        Ok((report, per_spec))
    }

    /// Writes one durable [`TrainState`] checkpoint (atomically — crash-safe
    /// by construction) and applies the retention policy.
    fn write_train_state(
        &self,
        agent: &XrlflowAgent,
        next_episode: u64,
        checkpoint: &CheckpointConfig,
    ) -> Result<(), RolloutError> {
        let _span = xrlflow_obs::span!("rollout/checkpoint");
        let state = self.trainer.train_state(agent, next_episode, self.trainer.base_seed());
        state.save(train_state_path(&checkpoint.dir, next_episode)).map_err(RolloutError::Checkpoint)?;
        prune_train_states(&checkpoint.dir, checkpoint.keep_last).map_err(RolloutError::Checkpoint)?;
        xrlflow_obs::counter!("train/checkpoints_written").inc();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrlflow_graph::models::{build_model, ModelKind, ModelScale};

    fn smoke_spec(config: &XrlflowConfig) -> EnvSpec {
        let graph = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
        EnvSpec::new(graph, RuleSet::standard(), DeviceProfile::gtx1080(), config.env.clone())
    }

    fn assert_transitions_identical(
        a: &RolloutBuffer<Observation>,
        b: &RolloutBuffer<Observation>,
        label: &str,
    ) {
        assert_eq!(a.len(), b.len(), "{label}: transition counts differ");
        for (i, (ta, tb)) in a.transitions().iter().zip(b.transitions()).enumerate() {
            assert_eq!(ta.action, tb.action, "{label}: action differs at transition {i}");
            assert_eq!(
                ta.log_prob.to_bits(),
                tb.log_prob.to_bits(),
                "{label}: log-prob differs at transition {i}"
            );
            assert_eq!(ta.value.to_bits(), tb.value.to_bits(), "{label}: value differs at transition {i}");
            assert_eq!(ta.reward.to_bits(), tb.reward.to_bits(), "{label}: reward differs at transition {i}");
            assert_eq!(ta.done, tb.done, "{label}: done flag differs at transition {i}");
            assert_eq!(ta.action_mask, tb.action_mask, "{label}: action mask differs at transition {i}");
            assert_eq!(
                ta.observation.graph.canonical_hash(),
                tb.observation.graph.canonical_hash(),
                "{label}: observation graph differs at transition {i}"
            );
        }
    }

    #[test]
    fn parallel_collection_is_bit_identical_to_serial_for_1_2_4_workers() {
        // The tentpole determinism contract: W workers with the same
        // episode-seed schedule produce transition-for-transition the same
        // rollouts as the serial path, merged in episode order.
        let config = XrlflowConfig::smoke_test();
        let spec = smoke_spec(&config);
        let agent = XrlflowAgent::new(&config, 5);
        let snapshot = agent.snapshot();
        let episodes = 4;
        let base_seed = 99;

        let serial = collect_serial(&agent, &spec, 0, episodes, base_seed);
        assert_eq!(serial.episodes.len(), episodes);

        for workers in [1usize, 2, 4] {
            let parallel =
                collect_parallel(&config, &snapshot, &spec, 0, episodes, base_seed, workers).unwrap();
            let label = format!("{workers} workers");
            assert_transitions_identical(&serial.buffer, &parallel.buffer, &label);
            assert_eq!(serial.episodes.len(), parallel.episodes.len(), "{label}: episode counts differ");
            for (ea, eb) in serial.episodes.iter().zip(&parallel.episodes) {
                assert_eq!(ea.total_reward.to_bits(), eb.total_reward.to_bits(), "{label}: reward differs");
                assert_eq!(ea.steps, eb.steps, "{label}: step counts differ");
                assert_eq!(ea.applied_rules, eb.applied_rules, "{label}: applied rules differ");
                assert_eq!(
                    ea.final_latency_ms.to_bits(),
                    eb.final_latency_ms.to_bits(),
                    "{label}: final latency differs"
                );
            }
        }
    }

    #[test]
    fn parallel_collection_feeds_bit_identical_ppo_updates() {
        // Running the identical update path over serially- and
        // parallel-collected buffers must produce the same TrainingStats —
        // the "no learned number changes" half of the contract.
        let config = XrlflowConfig::smoke_test();
        let spec = smoke_spec(&config);
        let agent = XrlflowAgent::new(&config, 5);
        let episodes = 3;

        let serial = collect_serial(&agent, &spec, 0, episodes, 42);
        let parallel = collect_parallel(&config, &agent.snapshot(), &spec, 0, episodes, 42, 2).unwrap();

        let mut stats = Vec::new();
        for rollouts in [serial, parallel] {
            let mut trainer = Trainer::new(config.clone(), 7);
            let mut update_agent = XrlflowAgent::new(&config, 5);
            let mut buffer = rollouts.buffer;
            stats.push(
                trainer
                    .update(&mut update_agent, &mut buffer, &[], &mut |agent, ctx| {
                        Ok(xrlflow_core::minibatch_grads_serial(agent, ctx))
                    })
                    .unwrap(),
            );
        }
        assert_eq!(stats[0], stats[1], "TrainingStats diverge between serial and parallel collection");
    }

    #[test]
    fn parallel_trainer_matches_serial_trainer_bit_for_bit() {
        // End to end: same seed, same episode schedule, 1-worker vs
        // 2-worker ParallelTrainer runs land on identical parameters.
        let config = XrlflowConfig::smoke_test();
        let spec = smoke_spec(&config);
        let probe = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
        let mut embeddings = Vec::new();
        for workers in [1usize, 2] {
            let mut cfg = config.clone();
            cfg.num_workers = workers;
            // Guard against an ambient XRLFLOW_WORKERS override skewing the
            // comparison.
            let mut trainer = ParallelTrainer::new(cfg.clone(), 11);
            trainer.num_workers = workers;
            let mut agent = XrlflowAgent::new(&cfg, 3);
            let report = trainer.train(&mut agent, &spec, 2).unwrap();
            assert_eq!(report.episodes.len(), 2);
            assert!(!report.updates.is_empty());
            assert_eq!(report.timings.len(), report.updates.len());
            assert!(
                report.timings.iter().all(|t| t.update_workers == workers),
                "timings must record the update phase's worker count"
            );
            embeddings.push(agent.embed_graph(&probe));
        }
        assert_eq!(
            embeddings[0].data(),
            embeddings[1].data(),
            "trained parameters diverge between worker counts"
        );
    }

    #[test]
    fn worker_count_is_clamped_to_episode_count() {
        let config = XrlflowConfig::smoke_test();
        let spec = smoke_spec(&config);
        let agent = XrlflowAgent::new(&config, 1);
        // More workers than episodes must not spawn idle threads or panic.
        let rollouts = collect_parallel(&config, &agent.snapshot(), &spec, 0, 2, 0, 16).unwrap();
        assert_eq!(rollouts.episodes.len(), 2);
        // Zero episodes is the degenerate clamp: nothing to shard, nothing
        // collected, at any worker count.
        for workers in [1usize, 16] {
            let empty = collect_parallel(&config, &agent.snapshot(), &spec, 3, 0, 0, workers).unwrap();
            assert!(empty.episodes.is_empty() && empty.buffer.is_empty(), "{workers} workers");
        }
    }

    #[test]
    fn snapshot_architecture_mismatch_is_reported() {
        let config = XrlflowConfig::smoke_test();
        let spec = smoke_spec(&config);
        let mut wider = config.clone();
        wider.encoder.hidden_dim *= 2;
        let snapshot = XrlflowAgent::new(&wider, 0).snapshot();
        assert!(collect_parallel(&config, &snapshot, &spec, 0, 2, 0, 2).is_err());
    }

    #[test]
    fn episode_rng_seeds_are_stable_and_distinct() {
        assert_eq!(episode_rng_seed(7, 3), episode_rng_seed(7, 3));
        let seeds: std::collections::HashSet<u64> = (0..64).map(|e| episode_rng_seed(123, e)).collect();
        assert_eq!(seeds.len(), 64, "adjacent episodes must get decorrelated RNG seeds");
    }
}
