//! Multi-model curriculum training: one shared agent, the whole model zoo.
//!
//! The paper trains one agent per DNN; its stated promise — a GNN policy
//! that generalises across computation graphs — needs the opposite: a single
//! agent whose rollouts span many models. A [`Curriculum`] is an ordered
//! list of named [`EnvSpec`]s (one per model-zoo entry, each with its own
//! `Arc<Graph>` / `Arc<RuleSet>` / `Arc<InferenceSimulator>`); the worker
//! pool shards `(spec, episode)` work items across threads and the PPO
//! trainer consumes the merged multi-model buffer.
//!
//! The rollout determinism contract extends to the curriculum, and a
//! single-model run is its one-entry case (same collector, same schedule):
//!
//! * **`(spec, episode)` seed schedule.** Episode `e` of spec `s` always
//!   resets its environment with seed `e` (so per-model numbers stay
//!   comparable) and samples actions from a fresh `XorShiftRng` seeded by
//!   [`curriculum_rng_seed`]`(base, s, e)` — a SplitMix64 mix of the run's
//!   base seed and the spec index, so two specs never share an action
//!   stream. The seed depends only on `(base, s, e)`, never on which worker
//!   runs the item.
//! * **Spec-then-episode sharding and merge.** Work items are flattened in
//!   spec-major order (`item = spec * episodes_per_spec + episode_offset`),
//!   workers take items round-robin (`item % W`), and the merge is ordered
//!   by item index — never completion order. Each spec's transitions are
//!   therefore one contiguous segment of the merged buffer
//!   ([`CurriculumRollouts::spec_ranges`]).
//! * **Per-spec advantage normalisation.** The trainer normalises
//!   advantages within each spec's segment
//!   (`Trainer::update`), so a large graph's long
//!   high-variance episodes don't drown the gradient signal of the small
//!   models sharing the update.
//!
//! Hence [`collect_curriculum_parallel`] at any worker count is
//! transition-for-transition bit-identical to the serial oracle
//! `xrlflow_bench::oracle::collect_curriculum_serial` (differential-tested
//! in `tests/serial_oracles.rs`), and `ParallelTrainer::train_curriculum`
//! lands on bit-identical parameters for any worker count (tested below).

use std::ops::Range;

use xrlflow_core::{EpisodeScratch, XrlflowAgent, XrlflowConfig};
use xrlflow_cost::DeviceProfile;
use xrlflow_env::{EnvConfig, EpisodeStats, Observation};
use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
use xrlflow_graph::GraphError;
use xrlflow_rewrite::RuleSet;
use xrlflow_rl::RolloutBuffer;
use xrlflow_tensor::ParamSnapshot;

use crate::{splitmix64, EnvSpec, RolloutError};

/// One named model of a curriculum: a display name (usually the model-zoo
/// name) plus the shared-component environment spec built from it.
#[derive(Debug, Clone)]
pub struct CurriculumEntry {
    /// Human-readable name, e.g. `"SqueezeNet"`.
    pub name: String,
    /// The environment spec workers build their environments from.
    pub spec: EnvSpec,
}

/// An ordered set of models a single shared agent trains across.
///
/// Entries are cheap to clone and to split ([`Curriculum::hold_out`]): every
/// heavyweight component of an [`EnvSpec`] sits behind an `Arc`.
#[derive(Debug, Clone, Default)]
pub struct Curriculum {
    entries: Vec<CurriculumEntry>,
}

impl Curriculum {
    /// Creates an empty curriculum.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a named spec.
    pub fn push(&mut self, name: impl Into<String>, spec: EnvSpec) {
        self.entries.push(CurriculumEntry { name: name.into(), spec });
    }

    /// Builder-style [`Curriculum::push`].
    #[must_use]
    pub fn with_entry(mut self, name: impl Into<String>, spec: EnvSpec) -> Self {
        self.push(name, spec);
        self
    }

    /// Builds a curriculum straight from the model zoo: one entry per kind,
    /// each with its own graph and latency simulator over the given device
    /// profile, all sharing the standard rule set semantics (each spec gets
    /// its own `Arc<RuleSet>`; rules are stateless).
    ///
    /// # Errors
    ///
    /// Propagates graph-construction failures from the model builders.
    pub fn from_model_zoo(
        kinds: &[ModelKind],
        scale: ModelScale,
        profile: DeviceProfile,
        env: EnvConfig,
    ) -> Result<Self, GraphError> {
        let mut curriculum = Self::new();
        for &kind in kinds {
            let graph = build_model(kind, scale)?;
            let spec = EnvSpec::new(graph, RuleSet::standard(), profile.clone(), env.clone());
            curriculum.push(kind.name(), spec);
        }
        Ok(curriculum)
    }

    /// The entries, in curriculum order.
    pub fn entries(&self) -> &[CurriculumEntry] {
        &self.entries
    }

    /// Number of models.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when the curriculum holds no models.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry names, in curriculum order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.name.as_str()).collect()
    }

    /// The entry specs, in curriculum order — the collector's slot table.
    pub(crate) fn specs(&self) -> Vec<&EnvSpec> {
        self.entries.iter().map(|e| &e.spec).collect()
    }

    /// Splits off entry `index` for a train-on-N-1 / evaluate-on-held-out
    /// generalisation run: returns the remaining curriculum (order
    /// preserved) and the held-out entry.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds.
    pub fn hold_out(&self, index: usize) -> (Curriculum, CurriculumEntry) {
        assert!(index < self.entries.len(), "hold-out index {index} out of bounds");
        let mut rest = self.clone();
        let held_out = rest.entries.remove(index);
        (rest, held_out)
    }
}

/// The deterministic action-RNG seed of episode `episode` of spec `spec`.
///
/// The determinism contract of every collection, one spec or many: every
/// path that collects this `(spec, episode)` work item under base seed
/// `base_seed` — the serial oracle or any worker of any pool size — derives
/// its `XorShiftRng` from this value. The spec index and then the episode
/// index are folded in through SplitMix64 mixes, so no two specs share an
/// action stream and adjacent episodes are decorrelated.
pub fn curriculum_rng_seed(base_seed: u64, spec: usize, episode: u64) -> u64 {
    let spec_base = splitmix64(base_seed ^ (spec as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
    splitmix64(spec_base ^ episode.wrapping_mul(0xA24B_AED4_963E_E407))
}

/// The fault-injection work-item id of episode `episode` of spec `spec` —
/// what a [`xrlflow_core::fault::FaultPlan`] targets in the
/// [`FaultPhase::Collect`](xrlflow_core::fault::FaultPhase::Collect) phase,
/// and what a `RolloutError::WorkerFault` reports back.
///
/// The round-local flattened item index is ambiguous across rounds (item 0
/// means a different episode every round), so the id packs the globally
/// unique `(spec, episode)` pair instead: `spec << 32 | episode`. For spec 0
/// — every single-spec run — that is the episode index itself.
pub fn curriculum_fault_item(spec: usize, episode: u64) -> u64 {
    ((spec as u64) << 32) | (episode & 0xFFFF_FFFF)
}

/// One collected episode of a curriculum round: which spec it belongs to,
/// its episode index, and the usual per-episode statistics.
#[derive(Debug, Clone)]
pub struct CurriculumEpisode {
    /// Index into the curriculum's entries.
    pub spec: usize,
    /// The episode index (also the environment reset seed).
    pub episode: u64,
    /// Statistics of the finished episode.
    pub stats: EpisodeStats,
}

/// The merged result of one curriculum collection round.
///
/// Transitions are ordered spec-then-episode (the flattened work-item
/// order), so each spec's contribution is one contiguous range of the
/// buffer — exactly what per-spec advantage normalisation consumes.
#[derive(Debug, Clone, Default)]
pub struct CurriculumRollouts {
    /// Every transition of the round, in spec-then-episode order.
    pub buffer: RolloutBuffer<Observation>,
    /// Per-episode records, in the same order.
    pub episodes: Vec<CurriculumEpisode>,
    /// The transition range of each spec in [`CurriculumRollouts::buffer`],
    /// one entry per curriculum model, in curriculum order. The ranges
    /// partition the buffer.
    pub spec_ranges: Vec<Range<usize>>,
}

/// Collects one curriculum round — `episodes_per_spec` episodes for every
/// spec — with a supervised pool of up to `num_workers` threads (never more
/// than the CPUs the process may use) sharded across the flattened
/// `(spec, episode)` work items.
///
/// Builds **one** read-only agent from `snapshot`
/// ([`XrlflowAgent::from_snapshot`]) and lends it to every worker; each
/// worker builds one environment per spec it touches (lazily, over the
/// spec's shared `Arc`s), then round-robins over the item indices assigned
/// to it (`item % W`). Results are merged **by item index**
/// (spec-then-episode), so the output is transition-for-transition
/// bit-identical to the serial oracle
/// `xrlflow_bench::oracle::collect_curriculum_serial` over the same range
/// and base seed, for any worker count — one worker runs the same
/// supervised path inline.
///
/// Supervised by the crate's one engine (see the crate docs): a panicking
/// item is retried with identical seeds, hence identical transitions.
///
/// # Errors
///
/// * [`RolloutError::Snapshot`] when `snapshot` does not match the
///   architecture described by `config`.
/// * [`RolloutError::WorkerFault`] when an item kept panicking past the
///   retry budget (2 extra attempts); the reported item id is
///   [`curriculum_fault_item`]`(spec, episode)`.
pub fn collect_curriculum_parallel(
    config: &XrlflowConfig,
    snapshot: &ParamSnapshot,
    curriculum: &Curriculum,
    first_episode: u64,
    episodes_per_spec: usize,
    base_seed: u64,
    num_workers: usize,
) -> Result<CurriculumRollouts, RolloutError> {
    let agent = XrlflowAgent::from_snapshot(config, snapshot)?;
    let round = crate::collect_round(
        &agent,
        &curriculum.specs(),
        first_episode,
        episodes_per_spec,
        base_seed,
        num_workers,
    )?;
    Ok(CurriculumRollouts {
        buffer: round.buffer,
        episodes: round
            .episodes
            .into_iter()
            .map(|(spec, episode, stats)| CurriculumEpisode { spec, episode, stats })
            .collect(),
        spec_ranges: round.segments,
    })
}

/// Per-model result of greedily evaluating an agent on one curriculum entry.
#[derive(Debug, Clone)]
pub struct ModelEvaluation {
    /// The curriculum entry's name.
    pub name: String,
    /// Statistics of the greedy episode.
    pub stats: EpisodeStats,
}

impl ModelEvaluation {
    /// End-to-end speedup of the optimised graph, in percent.
    pub fn speedup_percent(&self) -> f64 {
        self.stats.speedup_percent()
    }
}

/// Evaluates a (trained) agent across every model of a curriculum: one
/// greedy episode per entry, each reset with seed 0 (as `greedy_optimize`
/// resets), stepping the final No-Op.
///
/// This is the measurement half of a train-on-N-1 / evaluate-on-held-out
/// generalisation run: train a shared agent with
/// `ParallelTrainer::train_curriculum` on a curriculum missing one model
/// ([`Curriculum::hold_out`]), then evaluate it — without any further
/// training — on a curriculum containing the held-out model. Greedy action
/// selection draws no randomness, so the result is deterministic in
/// `(agent parameters, curriculum)`. One [`EpisodeScratch`] serves every
/// entry's episode in turn.
pub fn evaluate_curriculum(agent: &XrlflowAgent, curriculum: &Curriculum) -> Vec<ModelEvaluation> {
    let mut scratch = EpisodeScratch::default();
    curriculum
        .entries()
        .iter()
        .map(|entry| {
            let mut env = entry.spec.build_env();
            let mut obs = env.reset(0);
            let mut policy = agent.episode(&mut scratch);
            loop {
                let decision = policy.act(&obs, None);
                let result = env.step(&obs, decision.action);
                if result.done {
                    break;
                }
                obs = result.observation;
            }
            ModelEvaluation { name: entry.name.clone(), stats: env.episode_stats() }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParallelTrainer;
    use xrlflow_graph::models::{build_model, ModelKind, ModelScale};

    fn zoo_curriculum(config: &XrlflowConfig, kinds: &[ModelKind]) -> Curriculum {
        Curriculum::from_model_zoo(kinds, ModelScale::Bench, DeviceProfile::gtx1080(), config.env.clone())
            .unwrap()
    }

    fn smoke_curriculum(config: &XrlflowConfig) -> Curriculum {
        zoo_curriculum(config, &[ModelKind::SqueezeNet, ModelKind::Bert])
    }

    #[test]
    fn curriculum_seeds_differ_across_specs_and_episodes() {
        let mut seeds = std::collections::HashSet::new();
        for spec in 0..8 {
            for episode in 0..8 {
                seeds.insert(curriculum_rng_seed(42, spec, episode));
            }
        }
        assert_eq!(seeds.len(), 64, "(spec, episode) pairs must get decorrelated RNG seeds");
        assert_eq!(curriculum_rng_seed(42, 3, 5), curriculum_rng_seed(42, 3, 5));
        // A single-spec run's episodes (spec 0) are decorrelated too.
        let single: std::collections::HashSet<u64> =
            (0..64).map(|e| curriculum_rng_seed(123, 0, e)).collect();
        assert_eq!(single.len(), 64, "adjacent episodes must get decorrelated RNG seeds");
    }

    #[test]
    fn curriculum_trainer_lands_on_bit_identical_parameters_for_any_worker_count() {
        // End to end: a multi-model ParallelTrainer run is bit-identical
        // across worker counts — merged buffers, per-spec normalisation and
        // the update path all preserve the contract.
        let config = XrlflowConfig::smoke_test();
        let curriculum = smoke_curriculum(&config);
        let probe = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
        let mut embeddings = Vec::new();
        let mut reports = Vec::new();
        for workers in [1usize, 2, 4] {
            let mut cfg = config.clone();
            cfg.num_workers = workers;
            let mut trainer = ParallelTrainer::new(cfg.clone(), 11);
            trainer.set_num_workers(workers);
            let mut agent = XrlflowAgent::new(&cfg, 3);
            let report = trainer.train_curriculum(&mut agent, &curriculum, 2).unwrap();
            assert_eq!(report.episodes.len(), curriculum.len() * 2);
            assert!(!report.updates.is_empty());
            embeddings.push(agent.embed_graph(&probe));
            reports.push(report);
        }
        for (i, emb) in embeddings.iter().enumerate().skip(1) {
            assert_eq!(
                embeddings[0].data(),
                emb.data(),
                "trained parameters diverge between 1 worker and run {i}"
            );
        }
        // The per-model breakdown is identical too (it derives from the
        // deterministic episodes).
        for report in &reports {
            assert_eq!(report.per_model.len(), 2);
            assert_eq!(report.per_model[0].name, "SqueezeNet");
            assert_eq!(report.per_model[1].name, "BERT");
            for breakdown in &report.per_model {
                assert_eq!(breakdown.episodes, 2);
                assert!(breakdown.mean_reward.is_finite());
                assert!(breakdown.mean_final_latency_ms > 0.0);
            }
        }
    }

    #[test]
    fn held_out_generalisation_run_evaluates_the_unseen_model() {
        // Train on N-1 models, evaluate on all N: the held-out model is
        // optimised by a policy that never saw it during training.
        let config = XrlflowConfig::smoke_test();
        let full = zoo_curriculum(&config, &[ModelKind::SqueezeNet, ModelKind::Bert]);
        let (train, held_out) = full.hold_out(1);
        assert_eq!(train.len(), 1);
        assert_eq!(held_out.name, "BERT");

        let mut trainer = ParallelTrainer::new(config.clone(), 7);
        let mut agent = XrlflowAgent::new(&config, 1);
        trainer.train_curriculum(&mut agent, &train, 2).unwrap();

        let evals = evaluate_curriculum(&agent, &full);
        assert_eq!(evals.len(), 2);
        for eval in &evals {
            assert!(eval.stats.final_latency_ms > 0.0, "{} produced no latency", eval.name);
            assert!(eval.speedup_percent().is_finite());
        }
        // Determinism: greedy evaluation is reproducible.
        let again = evaluate_curriculum(&agent, &full);
        for (a, b) in evals.iter().zip(&again) {
            assert_eq!(a.stats.total_reward.to_bits(), b.stats.total_reward.to_bits());
            assert_eq!(a.stats.applied_rules, b.stats.applied_rules);
        }
    }

    #[test]
    fn worker_count_is_clamped_to_the_item_count() {
        let config = XrlflowConfig::smoke_test();
        let curriculum = smoke_curriculum(&config);
        let agent = XrlflowAgent::new(&config, 1);
        let rollouts =
            collect_curriculum_parallel(&config, &agent.snapshot(), &curriculum, 0, 1, 0, 64).unwrap();
        assert_eq!(rollouts.episodes.len(), 2);
        // Zero work is the degenerate clamp: no episodes per spec, or no
        // specs at all, yields empty rollouts with one (empty) range per spec.
        for (curriculum, episodes_per_spec) in [(&curriculum, 0), (&Curriculum::new(), 2)] {
            for workers in [1usize, 64] {
                let empty = collect_curriculum_parallel(
                    &config,
                    &agent.snapshot(),
                    curriculum,
                    0,
                    episodes_per_spec,
                    0,
                    workers,
                )
                .unwrap();
                assert!(empty.episodes.is_empty() && empty.buffer.is_empty());
                assert_eq!(empty.spec_ranges.len(), curriculum.len());
                assert!(empty.spec_ranges.iter().all(|range| range.is_empty()));
            }
        }
    }

    #[test]
    fn snapshot_architecture_mismatch_is_reported() {
        let config = XrlflowConfig::smoke_test();
        let curriculum = smoke_curriculum(&config);
        let mut wider = config.clone();
        wider.encoder.hidden_dim *= 2;
        let snapshot = XrlflowAgent::new(&wider, 0).snapshot();
        assert!(collect_curriculum_parallel(&config, &snapshot, &curriculum, 0, 1, 0, 2).is_err());
    }

    #[test]
    fn the_architecture_is_the_agents_not_the_trainers() {
        // The trainer's config supplies PPO hyper-parameters and the round
        // size; workers borrow the agent as it is, so an agent of another
        // architecture trains — identically at every worker count.
        let config = XrlflowConfig::smoke_test();
        let curriculum = smoke_curriculum(&config);
        let mut other = config.clone();
        other.encoder.hidden_dim *= 2;
        other.head_dims = vec![24];
        let probe = build_model(ModelKind::Bert, ModelScale::Bench).unwrap();
        let untrained = XrlflowAgent::new(&other, 3).embed_graph(&probe);
        let mut embeddings = Vec::new();
        for workers in [1usize, 2] {
            let mut trainer = ParallelTrainer::new(config.clone(), 11);
            trainer.set_num_workers(workers);
            let mut agent = XrlflowAgent::new(&other, 3);
            trainer.train_curriculum(&mut agent, &curriculum, 2).unwrap();
            embeddings.push(agent.embed_graph(&probe));
        }
        assert_eq!(embeddings[0].data(), embeddings[1].data(), "worker counts diverge");
        assert_ne!(embeddings[0].data(), untrained.data(), "training changed no parameter");
    }

    #[test]
    fn mid_curriculum_checkpoint_resumes_bit_identically_across_worker_counts() {
        // Checkpoint after the first curriculum round, then resume from the
        // checkpoint with different worker counts: the resumed runs must
        // land on bit-identical parameters (the checkpoint is a faithful
        // mid-curriculum cut, and resumption preserves the determinism
        // contract).
        let config = XrlflowConfig::smoke_test();
        let curriculum = smoke_curriculum(&config);
        let probe = build_model(ModelKind::Bert, ModelScale::Bench).unwrap();

        let mut trainer = ParallelTrainer::new(config.clone(), 13);
        let mut agent = XrlflowAgent::new(&config, 4);
        // One update round (update_frequency = 2 episodes per spec).
        trainer.train_curriculum(&mut agent, &curriculum, 2).unwrap();
        let path = std::env::temp_dir().join("xrlflow_curriculum_ckpt/mid.snap");
        agent.snapshot().save(&path).unwrap();

        // The checkpoint round-trips bit-identically under the curriculum.
        let mut restored = XrlflowAgent::new(&config, 77);
        restored.store.load_snapshot(&ParamSnapshot::load(&path).unwrap()).unwrap();
        assert_eq!(agent.embed_graph(&probe).data(), restored.embed_graph(&probe).data());

        // Resuming the curriculum from the checkpoint is worker-count
        // independent: both resumed runs continue with fresh optimiser state
        // over the same parameters and the same (spec, episode) schedule.
        let mut embeddings = Vec::new();
        for workers in [1usize, 2] {
            let mut resumed = XrlflowAgent::new(&config, 0);
            let mut resumed_trainer = ParallelTrainer::new(config.clone(), 29);
            resumed_trainer.set_num_workers(workers);
            resumed.store.load_snapshot(&ParamSnapshot::load(&path).unwrap()).unwrap();
            resumed_trainer.train_curriculum(&mut resumed, &curriculum, 2).unwrap();
            embeddings.push(resumed.embed_graph(&probe));
        }
        assert_eq!(
            embeddings[0].data(),
            embeddings[1].data(),
            "resumed curriculum runs diverge between worker counts"
        );
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn checkpoint_from_a_different_architecture_fails_with_a_named_tensor_mismatch() {
        // A checkpoint captured under a different agent architecture (e.g. a
        // curriculum deployment that widened the encoder) must fail cleanly,
        // name the offending tensor, and leave the agent untouched.
        let config = XrlflowConfig::smoke_test();
        let mut wider = config.clone();
        wider.encoder.hidden_dim *= 2;
        let path = std::env::temp_dir().join("xrlflow_curriculum_ckpt_mismatch/wider.snap");
        XrlflowAgent::new(&wider, 0).snapshot().save(&path).unwrap();

        let mut victim = XrlflowAgent::new(&config, 9);
        let probe = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
        let before = victim.embed_graph(&probe);
        let err = victim.store.load_snapshot(&ParamSnapshot::load(&path).unwrap()).unwrap_err();
        let message = err.to_string();
        assert!(
            message.contains("parameter") && message.contains('"'),
            "mismatch error must name the offending tensor, got: {message}"
        );
        assert_eq!(victim.embed_graph(&probe).data(), before.data(), "failed load must not write");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn empty_curriculum_trains_vacuously() {
        let config = XrlflowConfig::smoke_test();
        let mut trainer = ParallelTrainer::new(config.clone(), 0);
        let mut agent = XrlflowAgent::new(&config, 0);
        let report = trainer.train_curriculum(&mut agent, &Curriculum::new(), 3).unwrap();
        assert!(report.episodes.is_empty());
        assert!(report.updates.is_empty());
        assert!(report.per_model.is_empty());
    }
}
