//! # xrlflow-rewrite
//!
//! Graph rewrite rules, subgraph matching and candidate generation — the
//! TASO-style substitution engine that X-RLflow's environment (and the
//! baseline optimisers) are built on.
//!
//! At each optimisation step, [`RuleSet::generate_candidates`] pattern
//! matches every rule against the current graph and returns one transformed
//! candidate graph per application site; the search strategy (RL agent,
//! greedy search, backtracking search) then picks one.
//!
//! ## Quickstart
//!
//! ```
//! use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
//! use xrlflow_rewrite::RuleSet;
//!
//! let graph = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
//! let rules = RuleSet::standard();
//! let candidates = rules.generate_candidates(&graph, 64);
//! println!("{} candidate transformations available", candidates.len());
//! ```

#![warn(missing_docs)]

mod matcher;
mod rule;
pub mod rules;

pub use matcher::{
    consumers_of, find_chains, find_siblings_sharing_input, has_single_consumer, is_parameter,
};
pub use rule::{Candidate, Materialization, RewriteRule, RuleId, RuleMatch, RuleSet};
