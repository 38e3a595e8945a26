//! # xrlflow-rewrite
//!
//! Graph rewrite rules, subgraph matching and candidate generation — the
//! TASO-style substitution engine that X-RLflow's environment (and the
//! baseline optimisers) are built on.
//!
//! Every rule is a [`Substitution`] — a source pattern, a target template
//! and the map between them — in one table ([`rules::STANDARD`]). At each
//! optimisation step every entry is matched against the current graph by
//! one walk ([`SiteLists::new`]), which gives one candidate patch per
//! application site; the search strategy (RL agent, greedy search,
//! backtracking search) then picks one. The environment keeps the site
//! lists and re-matches only what each step's patch touched
//! ([`SiteLists::advance`]); [`RuleSet::generate_candidates`] reads the
//! candidates off a cold build at once.
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
mod sites;
mod substitution;

pub use matcher::{find_siblings_sharing_input, is_parameter};
pub use rule::{Candidate, RuleId, RuleMatch, RuleSet};
pub use sites::SiteLists;
pub use substitution::{input, Attrs, Axis, Emit, NodeTest, Pattern, Slot, Substitution, Target, Tensor};
