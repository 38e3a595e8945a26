//! # xrlflow-egraph
//!
//! A from-scratch e-graph and equality-saturation optimiser reproducing the
//! Tensat baseline the paper compares X-RLflow against (Figure 8).
//!
//! ## Quickstart
//!
//! ```
//! use xrlflow_cost::DeviceProfile;
//! use xrlflow_egraph::TensatOptimizer;
//! use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
//!
//! let graph = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
//! let tensat = TensatOptimizer::new(DeviceProfile::gtx1080());
//! let result = tensat.optimize(&graph).unwrap();
//! println!("extracted graph with {} nodes from {} e-nodes", result.graph.num_nodes(), result.num_nodes);
//! ```

#![warn(missing_docs)]

mod egraph;
mod tensat;

pub use egraph::{ClassId, EClass, EGraph, EGraphError, ENode};
pub use tensat::{TensatOptimizer, TensatResult};
