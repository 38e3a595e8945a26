//! # xrlflow-rl
//!
//! Reinforcement-learning machinery for X-RLflow: masked categorical
//! distributions, generalised advantage estimation (GAE), rollout storage
//! and the PPO hyper-parameters (the loss of Equations 3–5 is built on the
//! tape in `xrlflow-core`).
//!
//! The neural policy itself lives in `xrlflow-core` (it needs the GNN
//! encoder); this crate provides the algorithm-side pieces, which are pure
//! functions over `f32` values and are therefore easy to test exhaustively.
//!
//! ## Quickstart
//!
//! ```
//! use xrlflow_rl::{gae, MaskedCategorical};
//! use xrlflow_tensor::XorShiftRng;
//!
//! let dist = MaskedCategorical::new(vec![0.1, 2.0, -1.0], vec![true, true, false]);
//! let mut rng = XorShiftRng::new(7);
//! let action = dist.sample(&mut rng);
//! assert!(action < 2, "masked action must never be sampled");
//! let (advantages, returns) = gae(&[1.0, 0.1, 0.1], &[0.5, 0.4, 0.3], &[false, false, true], 0.0, 0.99, 0.95);
//! assert_eq!(advantages.len(), 3);
//! assert_eq!(returns.len(), 3);
//! ```

#![warn(missing_docs)]

mod buffer;
mod categorical;
mod gae;
mod ppo;

pub use buffer::{RolloutBuffer, Transition};
pub use categorical::MaskedCategorical;
pub use gae::{discounted_returns, gae};
pub use ppo::{explained_variance, PpoHyperParams, TrainingStats};
