//! # xrlflow-core
//!
//! The X-RLflow learner: the actor-critic agent (GNN encoder + policy and
//! value heads), the PPO update, the exact-resume [`TrainState`] and the
//! deployment-time greedy optimiser, as described in Sections 3.3–3.4 of the
//! MLSys 2023 paper. The collect → update → checkpoint round loop that
//! drives them — and the `XrlflowSystem` facade over it — live in
//! `xrlflow-rollout`.
//!
//! ## Quickstart
//!
//! ```
//! use xrlflow_core::{greedy_optimize, EpisodeScratch, XrlflowAgent, XrlflowConfig};
//! use xrlflow_cost::{DeviceProfile, InferenceSimulator};
//! use xrlflow_env::Environment;
//! use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
//! use xrlflow_rewrite::RuleSet;
//!
//! let config = XrlflowConfig::smoke_test();
//! let graph = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
//! let simulator = InferenceSimulator::new(DeviceProfile::gtx1080());
//! let mut env = Environment::new(graph, RuleSet::standard(), simulator, config.env.clone());
//! // An untrained policy still rewrites to a valid graph; load a trained one
//! // with `agent.store.load_snapshot(&ParamSnapshot::load(path)?)`.
//! let agent = XrlflowAgent::new(&config, 0);
//! // Greedy inference takes the most probable action: no generator to seed.
//! // A loop over many graphs keeps one scratch and lends it to each episode.
//! let mut scratch = EpisodeScratch::default();
//! let result = greedy_optimize(&agent, &mut env, &mut scratch);
//! println!(
//!     "optimised graph runs at {:.3} ms ({:+.1}% speedup) after rules {:?}",
//!     result.stats.final_latency_ms,
//!     result.stats.speedup_percent(),
//!     result.stats.applied_rules,
//! );
//! ```

#![warn(missing_docs)]

mod agent;
mod config;
pub mod fault;
mod optimizer;
mod train_state;
mod trainer;

pub use agent::{
    policy_steps_counted, AgentDecision, EpisodeScratch, PolicyEpisode, PolicyEvaluation, XrlflowAgent,
};
pub use config::{ConfigError, HyperParameterTable, XrlflowConfig};
pub use optimizer::{greedy_optimize, XrlflowResult};
pub use train_state::{
    latest_train_state, prune_train_states, train_state_path, TrainState, TRAIN_STATE_EXTENSION,
};
pub use trainer::{
    collect_episode_with_rng, collect_phase_breakdown_ns, minibatch_shuffle_seed, transition_grad_into,
    MinibatchContext, MinibatchGrads, ModelBreakdown, TrainReport, Trainer, TransitionLossStats,
    UpdateTiming,
};
