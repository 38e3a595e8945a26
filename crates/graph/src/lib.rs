//! # xrlflow-graph
//!
//! The tensor dataflow-graph intermediate representation used by the
//! X-RLflow reproduction: operator vocabulary, tensor shapes, shape
//! inference, the [`Graph`] DAG itself and a model zoo with builders for
//! every DNN in the paper's evaluation.
//!
//! Graphs cross process boundaries in the versioned JSON interchange
//! format of the [`json`] module, specified field-by-field in
//! [`docs/FORMATS.md`](https://github.com/xrlflow/xrlflow/blob/main/docs/FORMATS.md)
//! alongside the repository's other wire formats.
//!
//! ## Quickstart
//!
//! ```
//! use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
//!
//! let bert = build_model(ModelKind::Bert, ModelScale::Bench).unwrap();
//! assert!(bert.validate().is_ok());
//! println!("BERT has {} operator nodes", bert.num_nodes());
//! ```

#![warn(missing_docs)]

mod graph;
mod infer;
pub mod json;
pub mod models;
mod op;
mod patch;
mod shape;

pub use graph::{Graph, GraphError, Node, NodeId, StructureIndex, TensorRef};
pub use infer::infer_output_shapes;
pub use json::JsonValue;
pub use op::{FusedActivation, OpAttributes, OpKind, Padding};
pub use patch::{GraphPatch, PatchBuilder, PatchNode, PatchNodeId, PatchRef};
pub use shape::TensorShape;
