//! # xrlflow
//!
//! Umbrella crate for the X-RLflow reproduction (MLSys 2023): tensor graph
//! superoptimisation with graph reinforcement learning.
//!
//! This crate re-exports every subsystem so examples and downstream users
//! can depend on a single crate:
//!
//! * [`graph`] — the dataflow-graph IR and the model zoo,
//! * [`rewrite`] — TASO-style rewrite rules and candidate generation,
//! * [`cost`] — the per-operator cost model and the end-to-end latency simulator,
//! * [`taso`] — greedy / backtracking / PET baselines,
//! * [`egraph`] — the equality-saturation (Tensat) baseline,
//! * [`tensor`], [`gnn`], [`rl`] — the learning stack,
//! * [`mod@env`] — the Gym-style graph-transformation environment,
//! * [`core`] — the X-RLflow agent, PPO update, exact-resume train state
//!   and greedy optimiser,
//! * [`rollout`] — the one train loop (`ParallelTrainer`: multi-worker
//!   episode collection and PPO update, every worker borrowing the live
//!   agent) and the `XrlflowSystem` facade over it,
//! * [`serve`] — optimisation-as-a-service: JSON graph ingestion, a
//!   persistent result cache and snapshot-replica policy serving,
//! * [`obs`] — zero-overhead telemetry: the process-wide metrics registry,
//!   RAII phase spans and structured JSON run traces every phase above
//!   records into.
//!
//! Fallible APIs across the stack surface their failures through
//! [`XrlflowError`], the umbrella error type.
//!
//! ## Paper-to-code map
//!
//! Where each piece of the source paper (X-RLflow, MLSys 2023) lives in
//! this tree:
//!
//! | Paper | Code |
//! |---|---|
//! | Figure 3 policy network — GAT encoder over the operator graph feeding actor/critic heads | `crates/gnn/src/encoder.rs` (message passing) + `crates/gnn/src/featurize.rs` (node features); assembled into the agent in `crates/core/src/agent.rs` (`XrlflowAgent`) |
//! | §3 environment — graph transformation as an MDP: states are graphs, actions are rewrite-rule applications, episodes end on no-op | `crates/env/src/environment.rs` ([`mod@env`]'s `Environment`) over the rewrite-candidate generator in [`rewrite`] |
//! | §3.3 cost model and reward — per-operator latency summed over the graph, reward shaped by relative improvement | `crates/cost/src/model.rs` (`CostModel`) and the end-to-end `InferenceSimulator` in [`cost`]; reward shaping in the environment's `step` |
//! | §3 PPO training with GAE | `crates/rl/src/ppo.rs`, `gae.rs`, `buffer.rs` ([`rl`]) the PPO update in `crates/core/src/trainer.rs`, driven by Algorithm 1's collect → update round loop in `crates/rollout/src/lib.rs` (`ParallelTrainer`) |
//! | §4 evaluation baselines — TASO greedy/backtracking, equality saturation | [`taso`] and [`egraph`] |
//! | §1 deployment: offline optimisation amortised across inference — the trained policy served behind a result cache | [`serve`] (`OptimizeService` + the HTTP front end; see `docs/OPERATIONS.md`) |
//!
//! ## Quickstart
//!
//! ```
//! use xrlflow::core::XrlflowConfig;
//! use xrlflow::graph::models::{build_model, ModelKind, ModelScale};
//! use xrlflow::rollout::XrlflowSystem;
//!
//! let graph = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
//! let mut system = XrlflowSystem::new(XrlflowConfig::smoke_test(), 42);
//! let report = system.train_on(&graph, 2).unwrap();
//! assert!(report.episodes.len() == 2);
//! ```

pub use xrlflow_core as core;
pub use xrlflow_cost as cost;
pub use xrlflow_egraph as egraph;
pub use xrlflow_env as env;
pub use xrlflow_gnn as gnn;
pub use xrlflow_graph as graph;
pub use xrlflow_obs as obs;
pub use xrlflow_rewrite as rewrite;
pub use xrlflow_rl as rl;
pub use xrlflow_rollout as rollout;
pub use xrlflow_serve as serve;
pub use xrlflow_taso as taso;
pub use xrlflow_tensor as tensor;

use std::fmt;

/// The umbrella error: every typed failure the public API can produce,
/// unified so applications can `?` across subsystem boundaries.
///
/// # Examples
///
/// ```
/// use xrlflow::graph::Graph;
/// use xrlflow::XrlflowError;
///
/// fn import(text: &str) -> Result<Graph, XrlflowError> {
///     Ok(Graph::from_json(text)?)
/// }
///
/// let err = import("{\"format\": \"bogus\"}").unwrap_err();
/// assert!(matches!(err, XrlflowError::Graph(_)));
/// assert!(err.to_string().contains("graph"));
/// ```
#[derive(Debug)]
pub enum XrlflowError {
    /// A graph failed construction, validation or JSON import.
    Graph(graph::GraphError),
    /// A parameter snapshot could not be read or did not match the model.
    Snapshot(tensor::SnapshotError),
    /// The equality-saturation baseline failed.
    EGraph(egraph::EGraphError),
    /// A configuration was rejected by `XrlflowConfig::validate`.
    Config(core::ConfigError),
    /// The optimisation service rejected a request or cache snapshot.
    Serve(serve::ServeError),
}

impl fmt::Display for XrlflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XrlflowError::Graph(e) => write!(f, "graph error: {e}"),
            XrlflowError::Snapshot(e) => write!(f, "snapshot error: {e}"),
            XrlflowError::EGraph(e) => write!(f, "e-graph error: {e}"),
            XrlflowError::Config(e) => write!(f, "config error: {e}"),
            XrlflowError::Serve(e) => write!(f, "serve error: {e}"),
        }
    }
}

impl std::error::Error for XrlflowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            XrlflowError::Graph(e) => Some(e),
            XrlflowError::Snapshot(e) => Some(e),
            XrlflowError::EGraph(e) => Some(e),
            XrlflowError::Config(e) => Some(e),
            XrlflowError::Serve(e) => Some(e),
        }
    }
}

impl From<graph::GraphError> for XrlflowError {
    fn from(e: graph::GraphError) -> Self {
        XrlflowError::Graph(e)
    }
}

impl From<tensor::SnapshotError> for XrlflowError {
    fn from(e: tensor::SnapshotError) -> Self {
        XrlflowError::Snapshot(e)
    }
}

impl From<egraph::EGraphError> for XrlflowError {
    fn from(e: egraph::EGraphError) -> Self {
        XrlflowError::EGraph(e)
    }
}

impl From<core::ConfigError> for XrlflowError {
    fn from(e: core::ConfigError) -> Self {
        XrlflowError::Config(e)
    }
}

impl From<serve::ServeError> for XrlflowError {
    fn from(e: serve::ServeError) -> Self {
        XrlflowError::Serve(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn every_subsystem_error_converts_and_chains() {
        let graph_err: XrlflowError = graph::Graph::from_json("nope").unwrap_err().into();
        assert!(matches!(graph_err, XrlflowError::Graph(_)));
        assert!(graph_err.source().is_some());

        let snap_err: XrlflowError = tensor::ParamSnapshot::from_bytes(&[0, 1, 2]).unwrap_err().into();
        assert!(matches!(snap_err, XrlflowError::Snapshot(_)));
        assert!(snap_err.to_string().contains("snapshot"));

        let zero_workers = core::XrlflowConfig { num_workers: 0, ..core::XrlflowConfig::paper() };
        let cfg_err: XrlflowError = zero_workers.validate().unwrap_err().into();
        assert!(matches!(cfg_err, XrlflowError::Config(_)));
        assert!(cfg_err.to_string().contains("num_workers"));

        let serve_err: XrlflowError = serve::ResultCache::from_json("nope").unwrap_err().into();
        assert!(matches!(serve_err, XrlflowError::Serve(_)));
        assert!(serve_err.source().is_some());
    }

    #[test]
    fn question_mark_crosses_subsystem_boundaries() {
        fn pipeline(text: &str) -> Result<u64, XrlflowError> {
            let graph = graph::Graph::from_json(text)?;
            let config = core::XrlflowConfig::paper();
            config.validate()?;
            Ok(graph.canonical_hash())
        }
        assert!(pipeline("{}").is_err());
    }
}
