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
//! ## Fixed hyper-parameters
//!
//! The PPO settings no preset varies are constants rather than fields of
//! [`PpoHyperParams`]:
//!
//! | Constant | Value | Source |
//! |---|---|---|
//! | [`LEARNING_RATE`] | 5e-4 | the paper's Table 4 |
//! | [`VALUE_LOSS_COEFFICIENT`] | 0.5 | `c1` of Eq. 5, Table 4 |
//! | [`ENTROPY_COEFFICIENT`] | 0.01 | `c2` of Eq. 5, Table 4 |
//! | [`CLIP_EPSILON`] | 0.2 | `epsilon` of Eq. 3, PPO's (Schulman et al., 2017) |
//! | [`MAX_GRAD_NORM`] | 0.5 | the global gradient-norm clip of common PPO implementations |
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
pub use gae::gae;
pub use ppo::{
    explained_variance, PpoHyperParams, TrainingStats, CLIP_EPSILON, ENTROPY_COEFFICIENT, LEARNING_RATE,
    MAX_GRAD_NORM, VALUE_LOSS_COEFFICIENT,
};
