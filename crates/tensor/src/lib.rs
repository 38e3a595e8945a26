//! # xrlflow-tensor
//!
//! Dense tensors, a dynamic reverse-mode autodiff tape, neural-network
//! building blocks and deterministic random number generation for the
//! X-RLflow reproduction.
//!
//! The X-RLflow agent (MLSys 2023) encodes a *changing* dataflow graph at
//! every environment step, so its computation graph cannot be compiled
//! ahead of time. This crate therefore provides a per-forward-pass [`Tape`]:
//! operations append nodes over parameters imported from a persistent
//! [`ParamStore`] (values only), [`Tape::backward_into`] accumulates their
//! gradients into a [`GradBuffer`], and [`Adam`] (which owns its moments)
//! steps the store from that buffer — mirroring the JAX/jraph stack used by
//! the paper with a pure-Rust, dependency-free implementation.
//!
//! ## Quickstart
//!
//! ```
//! use xrlflow_tensor::{Adam, Activation, Mlp, ParamStore, Tape, Tensor, XorShiftRng};
//!
//! let mut store = ParamStore::new();
//! let mut rng = XorShiftRng::new(0);
//! let mlp = Mlp::new(&mut store, "head", &[4, 8, 1], &mut rng);
//! let mut tape = Tape::new();
//! let x = tape.constant(Tensor::ones(&[2, 4]));
//! let y = mlp.forward(&mut tape, &store, x);
//! assert_eq!(tape.value(y).shape(), &[2, 1]);
//! # let _ = Activation::Relu;
//! # let _ = Adam::new(1e-3);
//! ```

#![warn(missing_docs)]

mod fsio;
mod nn;
mod rng;
mod snapshot;
mod tape;
mod tensor;

pub use fsio::{atomic_write, is_atomic_temp_file};
pub use nn::{xavier_uniform, Linear, Mlp};
pub use rng::{splitmix64, XorShiftRng};
pub use snapshot::{ParamSnapshot, SnapshotError};
pub use tape::{Activation, Adam, GradBuffer, ParamId, ParamStore, RowRun, Tape, VarId};
pub use tensor::Tensor;
