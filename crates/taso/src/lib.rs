//! # xrlflow-taso
//!
//! The cost-model-driven baselines the paper compares against: TASO's greedy
//! and backtracking substitution engines, and a PET-style partially
//! equivalent optimiser used in the Table 2 motivation experiment.
//!
//! ## Quickstart
//!
//! ```
//! use xrlflow_cost::{CostModel, DeviceProfile};
//! use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
//! use xrlflow_rewrite::RuleSet;
//! use xrlflow_taso::{GreedyOptimizer, SearchConfig};
//!
//! let graph = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
//! let optimizer = GreedyOptimizer::new(
//!     RuleSet::standard(),
//!     CostModel::new(DeviceProfile::gtx1080()),
//!     SearchConfig::default(),
//! );
//! let result = optimizer.optimize(&graph);
//! println!("TASO: cost model {:.3} -> {:.3} ms", result.initial_cost_ms, result.final_cost_ms);
//! ```

#![warn(missing_docs)]

mod pet;
mod search;

pub use pet::{ElementwiseBlindCostModel, PetOptimizer, PARTIALLY_EQUIVALENT_CONV};
pub use search::{BacktrackingOptimizer, GreedyOptimizer, OptimizationResult, SearchConfig};
