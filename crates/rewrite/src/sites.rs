//! Candidate generation carried from one rewrite step to the next.
//!
//! An episode rewrites one subgraph per step, so the graph observed at step
//! `t + 1` is step `t`'s graph with one patch applied — and every site the
//! patch could not have changed was already matched, built and hashed one
//! step ago. [`SiteLists`] keeps each rule's full, uncapped list of
//! productive sites (the ones whose patch builds and is no no-op) with their
//! patches and structural hashes, and [`SiteLists::advance`] brings it to the
//! next graph:
//!
//! * The *footprint* is every node id whose slot the two graphs do not share
//!   ([`Graph::changed_since`]: the patch's added, rewired and dying nodes),
//!   plus the nodes of graph outputs that moved. The *touched* nodes are the
//!   footprint, its producers before and after, and its consumers after.
//!   Consumers are read off the next graph's memoised structure index
//!   ([`Graph::consumers_of`]), as is "single consumer" for the matcher: the
//!   lists keep no consumer index of their own.
//! * A site of a local pattern ([`Pattern::is_local`]) is carried when none
//!   of its bound nodes is touched: its nodes, their inputs, what produces
//!   those and the producer's distinct consumers are then as they were, and
//!   they are all a site's match, guard and patch read — and `apply_patch`
//!   keeps `NodeId`s while a patch names tensors, not their consumers. Each
//!   such rule is re-matched on the anchors within its pattern's depth of the
//!   touched nodes (the touched nodes and their consumers), and the new sites
//!   are spliced into the carried ones in anchor-id order.
//! * Sibling patterns, whose guards read beyond the pattern (dataflow
//!   dependence, foldability), are re-matched over the whole graph every
//!   step: every pair is paired and guarded again, from reader lists (the
//!   nodes of the pattern's kind by the tensor they read) that only change
//!   at footprint nodes and are carried too. A site found again whose nodes
//!   are untouched keeps its patch and hash.
//!
//! Deduplication by structural hash and the candidate cap then run over the
//! full ordered list ([`SiteLists::candidates`]).
//!
//! [`SiteLists::new`] matches every rule over the whole graph, and it is the
//! one such walk ([`match_whole`]): [`RuleSet::generate_candidates`] is a
//! cold build read off at once, and [`Substitution::find_matches`] is the
//! walk for one rule. The carried lists are tested against the cold build at
//! every step of the zoo's episodes.

use std::collections::HashSet;
use std::sync::Arc;

use xrlflow_graph::{Graph, GraphPatch, NodeId, OpKind, TensorRef};

use crate::matcher::{reader_key, readers_of, sibling_pairs};
use crate::rule::{Candidate, RuleMatch, RuleSet};
use crate::substitution::{Pattern, Substitution};

/// One productive site of one rule in the graph the lists describe.
#[derive(Debug)]
struct Site {
    /// Where the matcher emits it: `(alternative, anchor, position)`, the
    /// position being a chain's input slot, or the second node of a sibling
    /// pattern. Ascending within a rule.
    key: (u32, NodeId, u32),
    nodes: RuleMatch,
    patch: Arc<GraphPatch>,
    hash: u64,
}

impl Site {
    /// The site at `nodes`, when its patch builds and is no no-op.
    fn build(rule: &Substitution, graph: &Graph, key: (u32, NodeId, u32), nodes: RuleMatch) -> Option<Self> {
        let patch = rule.build_patch(graph, &nodes).ok().filter(|patch| !patch.is_noop())?;
        let hash = patch.structural_hash();
        Some(Self { key, nodes, patch: Arc::new(patch), hash })
    }
}

/// Every rule's productive sites in one graph, with their patches and
/// structural hashes — what a rewrite step carries to the next (see the
/// module docs). Built cold by [`SiteLists::new`], brought to a successor
/// graph by [`SiteLists::advance`].
#[derive(Debug)]
pub struct SiteLists {
    /// Per rule id, its sites in match order.
    rules: Vec<Vec<Site>>,
    readers: Vec<Readers>,
}

impl SiteLists {
    /// Matches every rule of `rules` over the whole of `graph` and builds
    /// every site's patch — no cap, so that a later step can carry any of
    /// them.
    pub fn new(rules: &RuleSet, graph: &Graph) -> Self {
        let _span = xrlflow_obs::span!("rewrite/generate_candidates");
        let readers = Readers::of(rules.rules(), graph);
        let rules = rules
            .rules()
            .iter()
            .map(|rule| {
                let mut sites = Vec::new();
                match_whole(rule, graph, &readers, &mut |key, nodes| {
                    sites.extend(Site::build(rule, graph, key, nodes))
                });
                sites
            })
            .collect();
        Self { rules, readers }
    }

    /// Brings the lists from `base` — the graph they describe — to `next`,
    /// re-matching and re-building only what the difference between the two
    /// can have changed (see the module docs). Exact for any pair of graphs;
    /// cheap when `next` is one `apply_patch` from `base`.
    pub fn advance(&mut self, rules: &RuleSet, base: &Graph, next: &Graph) {
        let _span = xrlflow_obs::span!("rewrite/generate_candidates");
        let mut footprint = next.changed_since(base);
        let (before, after) = (base.outputs(), next.outputs());
        if before != after {
            if before.len() == after.len() {
                let moved = before.iter().zip(after).filter(|(b, a)| b != a);
                footprint.extend(moved.flat_map(|(b, a)| [b.node, a.node]));
            } else {
                footprint.extend(before.iter().chain(after).map(|r| r.node));
            }
            footprint.sort_unstable();
            footprint.dedup();
        }

        let mut touched = footprint.clone();
        for &id in &footprint {
            for node in [base.node(id), next.node(id)].into_iter().flatten() {
                touched.extend(node.inputs.iter().map(|r| r.node));
            }
            touched.extend_from_slice(next.consumers_of(id));
        }
        touched.sort_unstable();
        touched.dedup();
        // A local site is found from its anchor, and binds at most the
        // anchor and what the anchor reads: the sites a touched node is in
        // are anchored at it or at one of its consumers.
        let mut anchors = touched.clone();
        for &id in &touched {
            anchors.extend_from_slice(next.consumers_of(id));
        }
        anchors.sort_unstable();
        anchors.dedup();
        let is_touched = |id: &NodeId| touched.binary_search(id).is_ok();

        for readers in &mut self.readers {
            readers.advance(next, &footprint);
        }
        let live: Vec<_> = anchors.iter().filter_map(|&id| Some((id, next.node(id).ok()?))).collect();
        let readers = &self.readers;
        for (rule, sites) in rules.rules().iter().zip(&mut self.rules) {
            if rule.source.iter().all(|pattern| pattern.is_local()) {
                let mut fresh = Vec::new();
                for (alternative, pattern) in (0u32..).zip(rule.source) {
                    for &(anchor, node) in &live {
                        rule.sites_at(
                            next,
                            pattern,
                            anchor,
                            node,
                            &mut |p| sole(next, p),
                            &mut |position, nodes| {
                                fresh.extend(Site::build(rule, next, (alternative, anchor, position), nodes))
                            },
                        );
                    }
                }
                sites.retain(|site| anchors.binary_search(&site.key.1).is_err());
                if !fresh.is_empty() {
                    // Carried and fresh sites have distinct anchors: the
                    // keys are unique and give the matcher's order.
                    sites.extend(fresh);
                    sites.sort_unstable_by_key(|site| site.key);
                }
                debug_assert!(
                    sites.iter().all(|site| anchors.binary_search(&site.key.1).is_ok()
                        || !site.nodes.nodes.iter().any(is_touched)),
                    "{}: a carried site binds a touched node",
                    rule.name
                );
            } else {
                let mut carried = std::mem::take(sites).into_iter().peekable();
                match_whole(rule, next, readers, &mut |key, nodes| {
                    while carried.next_if(|site| site.key < key).is_some() {}
                    let clean = !nodes.nodes.iter().any(is_touched);
                    match carried.next_if(|site| clean && site.key == key) {
                        Some(site) => sites.push(site),
                        None => sites.extend(Site::build(rule, next, key, nodes)),
                    }
                });
            }
        }
    }

    /// The candidates of the graph the lists describe: every rule's sites in
    /// rule-id and match order, deduplicated by structural hash and cut at
    /// `max_candidates`. Every candidate is unmaterialised, over `graph`, and
    /// shares its patch with the lists.
    pub fn candidates(&self, rules: &RuleSet, graph: &Graph, max_candidates: usize) -> Vec<Candidate> {
        let mut seen: HashSet<u64> = HashSet::new();
        let mut out = Vec::new();
        'outer: for (rule_id, sites) in self.rules.iter().enumerate() {
            for site in sites {
                if !seen.insert(site.hash) {
                    continue;
                }
                out.push(Candidate::shared(
                    Arc::clone(&site.patch),
                    site.hash,
                    rule_id,
                    rules.rule_name(rule_id),
                    graph,
                ));
                if out.len() >= max_candidates {
                    break 'outer;
                }
            }
        }
        xrlflow_obs::counter!("rewrite/candidates").add(out.len() as u64);
        out
    }
}

/// Every site of `rule` in `graph`, in match order ([`match_whole`] over
/// lists made for this walk alone).
pub(crate) fn sites_of(rule: &Substitution, graph: &Graph) -> Vec<RuleMatch> {
    let readers = Readers::of(std::slice::from_ref(rule), graph);
    let mut out = Vec::new();
    match_whole(rule, graph, &readers, &mut |_, nodes| out.push(nodes));
    out
}

/// Every site of `rule` in `graph` with its key, in match order: local
/// alternatives anchor by anchor, sibling ones as the sibling matcher emits
/// them (keyed by their two nodes, ascending). The one walk of a rule over a
/// whole graph.
fn match_whole(
    rule: &Substitution,
    graph: &Graph,
    readers: &[Readers],
    emit: &mut impl FnMut((u32, NodeId, u32), RuleMatch),
) {
    for (alternative, pattern) in (0u32..).zip(rule.source) {
        match pattern.pairing() {
            None => {
                for (id, node) in graph.iter() {
                    rule.sites_at(
                        graph,
                        pattern,
                        id,
                        node,
                        &mut |p| sole(graph, p),
                        &mut |position, nodes| emit((alternative, id, position), nodes),
                    );
                }
            }
            Some((op, slot)) => {
                let readers =
                    readers.iter().find(|r| (r.op, r.slot) == (op, slot)).expect("every pairing is kept");
                for nodes in rule.sibling_sites(graph, pattern, sibling_pairs(&readers.list)) {
                    emit((alternative, nodes.nodes[0], nodes.nodes[1].index() as u32), nodes);
                }
            }
        }
    }
}

/// The nodes of one kind with the tensor they read through one input slot,
/// sorted by tensor, then node — what a sibling pattern pairs nodes by —
/// kept up to date across [`SiteLists::advance`]: a node's entry only
/// changes when the node is in the footprint.
#[derive(Debug)]
struct Readers {
    op: OpKind,
    slot: usize,
    list: Vec<(TensorRef, NodeId)>,
}

impl Readers {
    /// The reader list of every pairing the sibling patterns of `rules`
    /// name, each once.
    fn of(rules: &[Substitution], graph: &Graph) -> Vec<Self> {
        let mut readers: Vec<Self> = Vec::new();
        for (op, slot) in rules.iter().flat_map(|rule| rule.source).filter_map(Pattern::pairing) {
            if !readers.iter().any(|r| (r.op, r.slot) == (op, slot)) {
                readers.push(Self { op, slot, list: readers_of(graph, op, slot) });
            }
        }
        readers
    }

    fn advance(&mut self, next: &Graph, footprint: &[NodeId]) {
        self.list.retain(|(_, id)| footprint.binary_search(id).is_err());
        for &id in footprint {
            let Ok(node) = next.node(id) else { continue };
            if let (true, Some(&input)) = (node.op == self.op, node.inputs.get(self.slot)) {
                let entry = (input, id);
                let at = self.list.partition_point(|e| reader_key(e) < reader_key(&entry));
                self.list.insert(at, entry);
            }
        }
    }
}

/// `id` is read by exactly one distinct node and is no graph output.
fn sole(graph: &Graph, id: NodeId) -> bool {
    graph.consumers_of(id).len() == 1 && !graph.outputs().iter().any(|r| r.node == id)
}
