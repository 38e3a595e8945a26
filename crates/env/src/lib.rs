//! # xrlflow-env
//!
//! The Gym-style tensor-graph transformation environment of X-RLflow:
//! `reset()`/`step()` over subgraph-substitution candidates, with the
//! paper's sparse end-to-end-latency reward (Eq. 2), exploration bonus and
//! invalid-action handling.
//!
//! ## Quickstart
//!
//! ```
//! use xrlflow_cost::{DeviceProfile, InferenceSimulator};
//! use xrlflow_env::{EnvConfig, Environment};
//! use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
//! use xrlflow_rewrite::RuleSet;
//!
//! let graph = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
//! let mut env = Environment::new(
//!     graph,
//!     RuleSet::standard(),
//!     InferenceSimulator::new(DeviceProfile::gtx1080()),
//!     EnvConfig::default(),
//! );
//! let obs = env.reset(0);
//! assert!(obs.num_candidates() > 0);
//! ```

#![warn(missing_docs)]

mod environment;

pub use environment::{
    EnvConfig, Environment, EpisodeStats, Observation, StepResult, Termination, EXPLORATION_BONUS,
};
