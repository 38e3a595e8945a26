//! # xrlflow-gnn
//!
//! Graph featurisation and the graph-embedding network of X-RLflow: a node
//! update layer, `k` graph-attention (GAT) layers and a global readout,
//! exactly as in Section 3.4 of the paper, built on the `xrlflow-tensor`
//! autodiff tape.
//!
//! ## Quickstart
//!
//! ```
//! use xrlflow_gnn::{EncoderConfig, GnnEncoder, GraphFeatures};
//! use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
//! use xrlflow_tensor::{ParamStore, Tape, XorShiftRng};
//!
//! let graph = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
//! let mut store = ParamStore::new();
//! let mut rng = XorShiftRng::new(0);
//! let encoder = GnnEncoder::new(&mut store, EncoderConfig::default(), &mut rng);
//! let features = GraphFeatures::from_graph(&graph);
//! // One graph is the pass with no candidate deltas.
//! let mut tape = Tape::new();
//! let embedding = encoder.encode_candidates(&mut tape, &store, &features, &[]);
//! assert_eq!(tape.value(embedding).shape(), &[1, 64]);
//! ```

#![warn(missing_docs)]

mod encoder;
mod featurize;

pub use encoder::{EncoderConfig, EncoderEpisode, GnnEncoder};
pub use featurize::{CandidateDelta, GraphFeatures, EDGE_NORMALISER};

#[cfg(test)]
mod test_support;
