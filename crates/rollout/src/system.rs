//! The `XrlflowSystem` facade — agent + round loop + greedy optimiser behind
//! `train_on` / `optimize` — and the tensor-shape generalisation protocol
//! built on it (Figure 7 of the paper).
//!
//! Training goes through [`ParallelTrainer::train`] like every other caller,
//! so the paper's figures run on the supervised pool (`XRLFLOW_WORKERS`,
//! retry on worker panics) under the one differential-tested seed schedule:
//! training on one graph is training on a one-entry curriculum, and lands on
//! the parameters `train_curriculum` would over that curriculum.
//!
//! The generalisation protocol: X-RLflow is trained against one fixed input
//! tensor shape and then reused, without retraining, on the same
//! architecture instantiated with different input shapes (e.g. InceptionV3
//! at 225/250/299-pixel inputs or DALL-E at different sequence lengths). The
//! graph *structure* is unchanged, so the GNN policy transfers.

use xrlflow_core::{
    greedy_optimize, EpisodeScratch, TrainReport, XrlflowAgent, XrlflowConfig, XrlflowResult,
};
use xrlflow_cost::DeviceProfile;
use xrlflow_graph::models::{ModelConfig, ModelKind, ModelScale};
use xrlflow_graph::Graph;
use xrlflow_rewrite::RuleSet;

use crate::{EnvSpec, ParallelTrainer, RolloutError};

/// The complete X-RLflow system: an agent, the round loop that trains it and
/// the pieces needed to build environments on demand.
#[derive(Debug)]
pub struct XrlflowSystem {
    agent: XrlflowAgent,
    trainer: ParallelTrainer,
}

impl XrlflowSystem {
    /// Creates a system with freshly initialised agent parameters.
    ///
    /// No checkpoint policy is installed — not even the ambient
    /// `XRLFLOW_CHECKPOINT_DIR` one, so several systems in one process never
    /// write into the same directory. Install one through
    /// [`XrlflowSystem::trainer_mut`].
    pub fn new(config: XrlflowConfig, seed: u64) -> Self {
        let agent = XrlflowAgent::new(&config, seed);
        let mut trainer = ParallelTrainer::new(config, seed.wrapping_add(1));
        trainer.set_checkpointing(None);
        Self { agent, trainer }
    }

    /// The configuration in use.
    pub fn config(&self) -> &XrlflowConfig {
        self.trainer.trainer().config()
    }

    /// The underlying agent.
    pub fn agent(&self) -> &XrlflowAgent {
        &self.agent
    }

    /// Mutable access to the underlying agent, e.g. to load a trained policy
    /// before [`XrlflowSystem::optimize`] (the agent must keep the
    /// architecture described by the system's configuration).
    pub fn agent_mut(&mut self) -> &mut XrlflowAgent {
        &mut self.agent
    }

    /// The round loop behind [`XrlflowSystem::train_on`], e.g. to set the
    /// worker count or install a checkpoint policy.
    pub fn trainer_mut(&mut self) -> &mut ParallelTrainer {
        &mut self.trainer
    }

    /// The environment spec of `graph` under the standard rule set, the
    /// GTX 1080 profile and the system's environment configuration.
    fn spec(&self, graph: &Graph) -> EnvSpec {
        EnvSpec::new(graph.clone(), RuleSet::standard(), DeviceProfile::gtx1080(), self.config().env.clone())
    }

    /// Trains the agent on a single graph for the given number of episodes
    /// (the paper trains one agent per DNN): [`ParallelTrainer::train`] over
    /// the graph's [`EnvSpec`].
    ///
    /// Every call is a new run from episode 0 of the same seed schedule — the
    /// agent and optimiser keep what they learned, the episode seeds repeat.
    ///
    /// # Errors
    ///
    /// See [`ParallelTrainer::train`].
    pub fn train_on(&mut self, graph: &Graph, episodes: usize) -> Result<TrainReport, RolloutError> {
        let spec = self.spec(graph);
        self.trainer.train(&mut self.agent, &spec, episodes)
    }

    /// Optimises a graph with the current policy acting greedily (the
    /// deployment path: one forward pass per transformation step, no
    /// randomness drawn).
    pub fn optimize(&self, graph: &Graph) -> XrlflowResult {
        let mut env = self.spec(graph).build_env();
        greedy_optimize(&self.agent, &mut env, &mut EpisodeScratch::default())
    }

    /// Trains on a graph and then optimises it greedily — the end-to-end
    /// workflow of Figure 4.
    ///
    /// # Errors
    ///
    /// See [`ParallelTrainer::train`].
    pub fn train_and_optimize(
        &mut self,
        graph: &Graph,
        episodes: usize,
    ) -> Result<(TrainReport, XrlflowResult), RolloutError> {
        let report = self.train_on(graph, episodes)?;
        Ok((report, self.optimize(graph)))
    }
}

/// Result of evaluating a trained agent on one input shape.
#[derive(Debug, Clone)]
pub struct GeneralizationPoint {
    /// The input size (image side length or sequence length).
    pub input_size: usize,
    /// Whether this is the shape the agent was trained on.
    pub trained_on: bool,
    /// The optimisation result at this shape.
    pub result: XrlflowResult,
}

/// Report of a tensor-shape generalisation experiment.
#[derive(Debug, Clone)]
pub struct GeneralizationReport {
    /// The architecture evaluated.
    pub kind: ModelKind,
    /// One entry per evaluated input size.
    pub points: Vec<GeneralizationPoint>,
}

impl GeneralizationReport {
    /// Speedup (percent) at the training shape.
    pub fn trained_speedup(&self) -> f64 {
        self.points.iter().find(|p| p.trained_on).map(|p| p.result.stats.speedup_percent()).unwrap_or(0.0)
    }

    /// Mean speedup (percent) over the unseen shapes.
    pub fn unseen_mean_speedup(&self) -> f64 {
        let unseen: Vec<f64> =
            self.points.iter().filter(|p| !p.trained_on).map(|p| p.result.stats.speedup_percent()).collect();
        if unseen.is_empty() {
            0.0
        } else {
            unseen.iter().sum::<f64>() / unseen.len() as f64
        }
    }
}

/// Trains an agent on `kind` at `train_size` for `episodes` episodes, then
/// evaluates it (without any further training) on every size in
/// `eval_sizes`.
///
/// # Errors
///
/// Propagates graph-construction errors for invalid input sizes
/// (`GraphError`) and training failures ([`RolloutError`]).
pub fn run_generalization(
    system: &mut XrlflowSystem,
    kind: ModelKind,
    scale: ModelScale,
    train_size: usize,
    eval_sizes: &[usize],
    episodes: usize,
) -> Result<GeneralizationReport, Box<dyn std::error::Error + Send + Sync>> {
    let train_graph = ModelConfig::new(kind, scale).with_input_size(train_size).build()?;
    system.train_on(&train_graph, episodes)?;

    let mut points = Vec::new();
    for &size in eval_sizes {
        let graph = ModelConfig::new(kind, scale).with_input_size(size).build()?;
        let result = system.optimize(&graph);
        points.push(GeneralizationPoint { input_size: size, trained_on: size == train_size, result });
    }
    Ok(GeneralizationReport { kind, points })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrlflow_graph::models::build_model;

    fn squeezenet() -> Graph {
        build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap()
    }

    fn param_bits(agent: &XrlflowAgent) -> Vec<u8> {
        agent.snapshot().to_bytes()
    }

    #[test]
    fn train_on_is_parallel_trainer_train_bit_for_bit_at_1_and_2_workers() {
        let config = XrlflowConfig::smoke_test();
        let graph = squeezenet();
        let (seed, episodes) = (7, 2);
        for workers in [1usize, 2] {
            let mut system = XrlflowSystem::new(config.clone(), seed);
            system.trainer_mut().set_num_workers(workers);
            let report = system.train_on(&graph, episodes).unwrap();

            // The same agent seed, trainer seed and spec, by hand.
            let mut agent = XrlflowAgent::new(&config, seed);
            let mut trainer = ParallelTrainer::new(config.clone(), seed.wrapping_add(1));
            trainer.set_num_workers(workers);
            trainer.set_checkpointing(None);
            let spec = EnvSpec::new(
                graph.clone(),
                RuleSet::standard(),
                DeviceProfile::gtx1080(),
                config.env.clone(),
            );
            let direct = trainer.train(&mut agent, &spec, episodes).unwrap();

            assert_eq!(report.episodes.len(), direct.episodes.len());
            assert_eq!(report.updates, direct.updates, "{workers} workers: update statistics differ");
            assert!(
                param_bits(system.agent()) == param_bits(&agent),
                "{workers} workers: the facade and ParallelTrainer::train land on different parameters"
            );
        }
    }

    #[test]
    fn short_training_run_completes_and_updates_parameters() {
        let config = XrlflowConfig::smoke_test();
        let graph = squeezenet();
        let mut system = XrlflowSystem::new(config.clone(), 0);
        let embedding_before = system.agent().embed_graph(&graph);

        let report = system.train_on(&graph, 2).unwrap();

        assert_eq!(report.episodes.len(), 2);
        assert!(!report.updates.is_empty());
        assert_eq!(report.timings.len(), report.updates.len());
        for timing in &report.timings {
            assert!(timing.collect_ms > 0.0, "episode collection takes measurable time");
            assert!(timing.update_ms > 0.0, "the PPO update takes measurable time");
        }
        for update in &report.updates {
            assert!(update.transitions > 0);
            assert!(update.entropy.is_finite());
            assert!(update.policy_loss.is_finite());
            assert!(update.value_loss.is_finite());
        }
        // The PPO update must actually have moved the parameters.
        let embedding_after = system.agent().embed_graph(&graph);
        let drift: f32 =
            embedding_before.data().iter().zip(embedding_after.data()).map(|(a, b)| (a - b).abs()).sum();
        assert!(drift > 1e-7, "training did not change the encoder parameters");
    }

    #[test]
    fn a_second_train_on_is_a_new_run_from_episode_zero() {
        let graph = squeezenet();
        let mut system = XrlflowSystem::new(XrlflowConfig::smoke_test(), 1);
        let first = system.train_on(&graph, 2).unwrap();
        // `episodes` names a run's total: were the second call a continuation
        // of the first, it would find its 2 episodes already collected.
        let second = system.train_on(&graph, 2).unwrap();
        assert_eq!(first.episodes.len(), 2);
        assert_eq!(second.episodes.len(), 2);
        assert_eq!(system.trainer_mut().trainer().update_counter(), 2, "one update per run");
    }

    #[test]
    fn train_and_optimize_workflow() {
        let graph = squeezenet();
        let mut system = XrlflowSystem::new(XrlflowConfig::smoke_test(), 1);
        let (report, result) = system.train_and_optimize(&graph, 2).unwrap();
        assert_eq!(report.episodes.len(), 2);
        assert!(result.graph.validate().is_ok());
    }

    #[test]
    fn system_exposes_config_agent_and_a_policy_free_trainer() {
        let mut system = XrlflowSystem::new(XrlflowConfig::smoke_test(), 2);
        assert_eq!(system.config().encoder.hidden_dim, 16);
        assert!(system.agent().num_parameters() > 0);
        assert!(system.trainer_mut().checkpointing().is_none());
    }

    #[test]
    fn generalization_across_bert_sequence_lengths() {
        let mut system = XrlflowSystem::new(XrlflowConfig::smoke_test(), 0);
        let report =
            run_generalization(&mut system, ModelKind::Bert, ModelScale::Bench, 64, &[32, 64, 96], 2)
                .unwrap();
        assert_eq!(report.points.len(), 3);
        assert_eq!(report.points.iter().filter(|p| p.trained_on).count(), 1);
        for p in &report.points {
            assert!(p.result.graph.validate().is_ok(), "size {} produced an invalid graph", p.input_size);
        }
        // The report helpers are well-defined even for an untrained-ish agent.
        let _ = report.trained_speedup();
        let _ = report.unseen_mean_speedup();
    }
}
