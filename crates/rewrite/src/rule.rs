//! Rule sets and patch-based candidate generation.
//!
//! At every optimisation step the environment matches every active table
//! entry ([`Substitution`]) against the current graph and produces one *candidate* per match —
//! but unlike TASO's substitution engine (and the first version of this
//! crate), a candidate is a [`GraphPatch`] *delta*, not a transformed copy of
//! the whole graph. Generating the full candidate set is the hot path of the
//! RL loop (it runs at every environment step), so it must not allocate a
//! graph per candidate: a candidate is its patch, and only the few a search
//! strategy actually inspects — or the one the environment's `step` takes —
//! become graphs, through [`Candidate::materialize`].

use std::sync::Arc;

use xrlflow_graph::{Graph, GraphError, GraphPatch, NodeId};

use crate::sites::SiteLists;
use crate::substitution::Substitution;

/// Identifier of a rewrite rule within a [`RuleSet`] (stable across runs;
/// used for the Figure 5 rule-application heatmap).
pub type RuleId = usize;

/// A single located application site of a rule in a specific graph.
///
/// `nodes` are the nodes the rule's source pattern bound, in the pattern's
/// binding order (see [`crate::Pattern`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleMatch {
    /// Nodes participating in the match, in binding order.
    pub nodes: Vec<NodeId>,
}

impl RuleMatch {
    /// Creates a match over the given nodes.
    pub fn new(nodes: Vec<NodeId>) -> Self {
        Self { nodes }
    }
}

/// A candidate transformation: one rule applied at one site, represented as a
/// patch against the graph it was generated from.
///
/// The transformed graph is built only when asked for, by
/// [`Candidate::materialize`]; the agent featurises the patch instead.
/// Cloning a candidate (e.g. into a rollout buffer) shares the patch.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Shared with the step's site lists, which carry it to the next step
    /// when the chosen rewrite leaves its site alone.
    patch: Arc<GraphPatch>,
    /// Which rule produced it.
    pub rule_id: RuleId,
    /// The rule's name.
    pub rule_name: &'static str,
    /// Structural hash of the patch (used for deduplication; see
    /// [`GraphPatch::structural_hash`]).
    pub hash: u64,
    /// [`Graph::id_bound`] of the generation-time base graph — an O(1)
    /// fingerprint used by debug assertions to catch callers materialising
    /// against the wrong base.
    base_id_bound: usize,
}

impl Candidate {
    /// Wraps a patch produced by `rule_id` against `base` into a candidate.
    pub fn new(patch: GraphPatch, rule_id: RuleId, rule_name: &'static str, base: &Graph) -> Self {
        let hash = patch.structural_hash();
        Self::shared(Arc::new(patch), hash, rule_id, rule_name, base)
    }

    /// A candidate over an already hashed, shared patch.
    pub(crate) fn shared(
        patch: Arc<GraphPatch>,
        hash: u64,
        rule_id: RuleId,
        rule_name: &'static str,
        base: &Graph,
    ) -> Self {
        Self { patch, rule_id, rule_name, hash, base_id_bound: base.id_bound() }
    }

    /// The patch this candidate applies.
    pub fn patch(&self) -> &GraphPatch {
        &self.patch
    }

    /// The transformed graph: `base` with this candidate's patch applied.
    /// `base` must be the graph the candidate was generated from. Debug
    /// builds assert that against a base fingerprint, and that the result is
    /// a valid graph; the differential and property tests run every rule
    /// through here.
    ///
    /// # Errors
    ///
    /// Returns an error when the patch does not apply to `base` — patches are
    /// shape-checked at construction time, so this indicates `base` is not
    /// the generation-time graph.
    pub fn materialize(&self, base: &Graph) -> Result<Graph, GraphError> {
        debug_assert_eq!(
            base.id_bound(),
            self.base_id_bound,
            "candidate for rule {} materialised against a different base graph",
            self.rule_name
        );
        let graph = base.apply_patch(&self.patch)?;
        debug_assert!(
            graph.validate().is_ok(),
            "rule {} produced an invalid graph (patches must only reference upstream tensors)",
            self.rule_name
        );
        Ok(graph)
    }
}

/// A collection of rewrite rules applied together.
pub struct RuleSet {
    rules: Vec<Substitution>,
}

impl std::fmt::Debug for RuleSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuleSet").field("rules", &self.rule_names()).finish()
    }
}

impl RuleSet {
    /// Creates a rule set from explicit table entries.
    pub fn new(rules: Vec<Substitution>) -> Self {
        Self { rules }
    }

    /// The standard rule library (fusion, parallel-operator merging and
    /// algebraic simplification families; see `crate::rules`).
    pub fn standard() -> Self {
        Self::new(crate::rules::standard_rules())
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Returns `true` when the set contains no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The table entries, indexed by [`RuleId`].
    pub(crate) fn rules(&self) -> &[Substitution] {
        &self.rules
    }

    /// Rule names indexed by [`RuleId`].
    pub fn rule_names(&self) -> Vec<&'static str> {
        self.rules.iter().map(|r| r.name()).collect()
    }

    /// Returns the name of a rule.
    pub fn rule_name(&self, id: RuleId) -> &'static str {
        self.rules[id].name()
    }

    /// Generates every deduplicated candidate obtainable by applying one
    /// rule at one site of `graph` — **without materialising any of them**:
    /// the candidates of a cold [`SiteLists`] build, the one walk of the
    /// rules over a graph.
    ///
    /// Each candidate is a patch. Shape consistency is checked by the patch
    /// builder; full graph validity (acyclicity in particular) relies on the
    /// rule convention that patches only reference tensors upstream of the
    /// rewired ones, enforced by debug assertions on materialisation and the
    /// per-rule differential tests. Syntactic no-op patches are dropped and
    /// duplicates are eliminated by patch structural hash — a deliberately
    /// weaker filter than the eager pipeline's result-graph hash (two
    /// distinct patches that materialise to the same graph both survive),
    /// traded for never touching a full graph here. `max_candidates` bounds
    /// the output (the paper pads the action space to a fixed constant
    /// anyway). An environment keeps the [`SiteLists`] instead, to carry
    /// them to the next step.
    pub fn generate_candidates(&self, graph: &Graph, max_candidates: usize) -> Vec<Candidate> {
        SiteLists::new(self, graph).candidates(self, graph, max_candidates)
    }
}

impl Default for RuleSet {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
impl RuleSet {
    /// The pre-patch reference pipeline: generates candidates by eagerly
    /// materialising, validating and canonically hashing a full graph per
    /// application site, deduplicating by the *result* graph's canonical
    /// hash — the differential-testing oracle for
    /// [`RuleSet::generate_candidates`].
    fn generate_candidates_eager(&self, graph: &Graph, max_candidates: usize) -> Vec<(Candidate, Graph)> {
        let original_hash = graph.canonical_hash();
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        'outer: for (rule_id, rule) in self.rules.iter().enumerate() {
            for site in rule.find_matches(graph) {
                let Ok(materialized) = rule.build_patch(graph, &site).and_then(|p| graph.apply_patch(&p))
                else {
                    continue;
                };
                if materialized.validate().is_err() {
                    continue;
                }
                let hash = materialized.canonical_hash();
                if hash == original_hash || !seen.insert(hash) {
                    continue;
                }
                let patch = rule.build_patch(graph, &site).expect("apply succeeded for this site");
                out.push((Candidate::new(patch, rule_id, rule.name(), graph), materialized));
                if out.len() >= max_candidates {
                    break 'outer;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use xrlflow_graph::models::{build_model, ModelKind, ModelScale};

    #[test]
    fn standard_ruleset_is_nonempty() {
        let rs = RuleSet::standard();
        assert!(rs.len() >= 12, "expected a substantive rule library, got {}", rs.len());
        assert!(!rs.is_empty());
        let names = rs.rule_names();
        assert_eq!(names.len(), rs.len());
        // Names must be unique.
        let unique: HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    fn candidates_are_valid_and_deduplicated() {
        let g = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
        let rs = RuleSet::standard();
        let candidates = rs.generate_candidates(&g, 64);
        assert!(!candidates.is_empty(), "expected rewrite opportunities in SqueezeNet");
        let mut hashes = HashSet::new();
        for c in &candidates {
            let out = c.materialize(&g).unwrap();
            assert!(out.validate().is_ok(), "candidate from {} is invalid", c.rule_name);
            assert!(hashes.insert(c.hash), "duplicate candidate from {}", c.rule_name);
            assert_ne!(out.canonical_hash(), g.canonical_hash(), "candidate from {} is a no-op", c.rule_name);
        }
    }

    #[test]
    fn patch_and_eager_pipelines_agree() {
        let g = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
        let rs = RuleSet::standard();
        let lazy = rs.generate_candidates(&g, usize::MAX);
        let eager = rs.generate_candidates_eager(&g, usize::MAX);
        // The eager pipeline dedups by result-graph hash, which can only
        // collapse candidates the patch pipeline keeps apart.
        assert!(eager.len() <= lazy.len());
        let eager_hashes: HashSet<u64> = eager.iter().map(|(_, g)| g.canonical_hash()).collect();
        let lazy_hashes: HashSet<u64> =
            lazy.iter().map(|c| c.materialize(&g).unwrap().canonical_hash()).collect();
        assert_eq!(eager_hashes, lazy_hashes, "pipelines reach different graph sets");
    }

    #[test]
    fn candidate_limit_respected() {
        let g = build_model(ModelKind::InceptionV3, ModelScale::Bench).unwrap();
        let rs = RuleSet::standard();
        let candidates = rs.generate_candidates(&g, 5);
        assert!(candidates.len() <= 5);
    }
}
