//! # xrlflow-cost
//!
//! Cost modelling and end-to-end latency simulation for the X-RLflow
//! reproduction.
//!
//! The original system measures operator runtimes and end-to-end latency on
//! an NVIDIA GTX 1080; this crate substitutes an analytical roofline
//! simulator (see `DESIGN.md` for the substitution rationale). It exposes
//! two signals with an intentional, deterministic discrepancy between them:
//!
//! * [`CostModel`] — the TASO-style sum of per-operator costs, and
//! * [`InferenceSimulator`] — the simulated end-to-end inference latency
//!   (launch overhead, kernel-selection effects, constant folding and a
//!   fixed 1 % seeded measurement noise).
//!
//! ## Quickstart
//!
//! ```
//! use xrlflow_cost::{CostModel, DeviceProfile, InferenceSimulator, discrepancy};
//! use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
//!
//! let g = build_model(ModelKind::Bert, ModelScale::Bench).unwrap();
//! let cm = CostModel::new(DeviceProfile::gtx1080());
//! let sim = InferenceSimulator::new(DeviceProfile::gtx1080());
//! let row = discrepancy("BERT", &g, &cm, &sim);
//! println!("cost model {:.3} ms vs end-to-end {:.3} ms ({:.1}% apart)",
//!          row.cost_model_ms, row.e2e_ms, row.diff_percent());
//! ```

#![warn(missing_docs)]

mod model;
mod profile;

pub use model::{discrepancy, CostModel, Discrepancy, InferenceSimulator};
pub use profile::{kernel_perturbation, node_compute_us, node_flops, node_memory_bytes, DeviceProfile};
