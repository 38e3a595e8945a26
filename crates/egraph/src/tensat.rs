//! The Tensat baseline: equality saturation over the e-graph followed by
//! cost-based extraction.
//!
//! Tensat applies rewrite rules *non-destructively*: every rule application
//! adds e-nodes and unions e-classes, so the e-graph represents many
//! equivalent graphs at once. Saturation is bounded by a node limit and an
//! iteration limit (the paper notes the e-graph is never truly saturated in
//! practice), after which the cheapest graph under a per-node cost model is
//! extracted. Because extraction needs per-node costs, Tensat cannot use
//! end-to-end latency as its signal — one of the motivations for X-RLflow.
//!
//! The rewrites are the tree-shaped entries of the rule table every other
//! optimiser reads ([`STANDARD`]): an e-match binds an e-node and, for a
//! chain, one e-node of one child class; the entry's own matcher and patch
//! builder then run on that binding written out as a few-node graph, and
//! the patch's nodes become e-nodes. "Single consumer" holds there by
//! construction: it only guards destructive rewriting, which an e-graph
//! never does.

use std::time::Instant;

use xrlflow_cost::{node_compute_us, DeviceProfile};
use xrlflow_graph::{Graph, GraphPatch, NodeId, OpAttributes, OpKind, PatchRef, TensorRef, TensorShape};
use xrlflow_rewrite::rules::STANDARD;
use xrlflow_rewrite::{Pattern, Slot, Substitution};

use crate::egraph::{ClassId, EGraph, EGraphError, ENode};

/// Bounds of one equality-saturation run.
struct Limits {
    /// Maximum number of e-nodes before saturation stops.
    nodes: usize,
    /// Maximum number of saturation iterations.
    iterations: usize,
    /// Maximum rewrites per entry and iteration that add more than one
    /// e-node (re-association's intermediate product), Tensat's `k` for its
    /// growth-prone multi-pattern rules.
    multi_pattern: usize,
}

/// Tensat's bounds: the paper's 10,000-e-node cap, 10 iterations and
/// Tensat's default `k = 1`.
const LIMITS: Limits = Limits { nodes: 10_000, iterations: 10, multi_pattern: 1 };

/// Result of a Tensat optimisation run.
#[derive(Debug, Clone)]
pub struct TensatResult {
    /// The extracted graph.
    pub graph: Graph,
    /// Whether the e-graph saturated before hitting a limit.
    pub saturated: bool,
    /// Number of saturation iterations performed.
    pub iterations: usize,
    /// Final number of e-classes.
    pub num_classes: usize,
    /// Final number of e-nodes.
    pub num_nodes: usize,
    /// Wall-clock optimisation time in seconds.
    pub optimisation_time_s: f64,
}

/// The Tensat-style equality-saturation optimiser.
#[derive(Debug, Clone, Default)]
pub struct TensatOptimizer {
    profile: DeviceProfile,
}

impl TensatOptimizer {
    /// Creates an optimiser that extracts under the given device profile.
    pub fn new(profile: DeviceProfile) -> Self {
        Self { profile }
    }

    /// Runs equality saturation and extraction on a graph.
    ///
    /// # Errors
    ///
    /// Returns [`EGraphError::Unsupported`] when the graph contains operators
    /// the e-graph representation cannot express (Tensat's conversion filter).
    pub fn optimize(&self, graph: &Graph) -> Result<TensatResult, EGraphError> {
        self.saturate(graph, LIMITS)
    }

    fn saturate(&self, graph: &Graph, limits: Limits) -> Result<TensatResult, EGraphError> {
        let start = Instant::now();
        let mut eg = EGraph::from_graph(graph)?;
        let mut saturated = false;
        let mut iterations = 0;

        for _ in 0..limits.iterations {
            iterations += 1;
            let changed = apply_rewrites(&mut eg, limits.multi_pattern);
            eg.rebuild();
            if !changed {
                saturated = true;
                break;
            }
            if eg.num_nodes() > limits.nodes {
                break;
            }
        }

        let profile = self.profile.clone();
        let extracted = eg.extract(|node, child_shapes, out_shape| {
            enode_cost_us(node, child_shapes, out_shape, &profile)
        })?;
        Ok(TensatResult {
            num_classes: eg.num_classes(),
            num_nodes: eg.num_nodes(),
            graph: extracted,
            saturated,
            iterations,
            optimisation_time_s: start.elapsed().as_secs_f64(),
        })
    }
}

/// Applies one round of every tree-shaped table entry to the e-graph,
/// collecting an entry's rewrites before adding any of them. Of an entry's
/// rewrites that add more than one e-node, at most `multi_pattern_limit`
/// may change the e-graph per round; one whose e-nodes and union already
/// exist changes nothing and does not count. Returns whether the e-graph
/// changed.
fn apply_rewrites(eg: &mut EGraph, multi_pattern_limit: usize) -> bool {
    let mut changed = false;
    for rule in STANDARD.iter().filter(|r| r.is_tree()) {
        let mut rewrites: Vec<Rewrite> = Vec::new();
        for (class, eclass) in eg.iter_classes() {
            for node in &eclass.nodes {
                rewrites.extend(ematch(eg, rule, class, node));
            }
        }
        let mut growth = 0;
        for rewrite in rewrites {
            let grows = rewrite.added.len() > 1;
            if grows && growth == multi_pattern_limit {
                continue;
            }
            let applied = rewrite.apply(eg);
            growth += usize::from(grows && applied);
            changed |= applied;
        }
    }
    changed
}

/// An operand of a rewrite's new e-nodes: an existing class or an earlier
/// new e-node.
#[derive(Debug, Clone, Copy)]
enum Operand {
    Class(ClassId),
    Added(usize),
}

/// One entry applied at one e-match: the e-nodes to add and what the
/// matched class is equal to.
#[derive(Debug)]
struct Rewrite {
    class: ClassId,
    added: Vec<(OpKind, OpAttributes, Vec<Operand>, TensorShape)>,
    with: Operand,
}

impl Rewrite {
    /// Adds the e-nodes and the union; returns whether the e-graph changed.
    fn apply(self, eg: &mut EGraph) -> bool {
        let slots = eg.slots();
        let mut ids: Vec<ClassId> = Vec::with_capacity(self.added.len());
        let resolve = |ids: &[ClassId], operand| match operand {
            Operand::Class(c) => c,
            Operand::Added(i) => ids[i],
        };
        for (op, attrs, operands, shape) in self.added {
            let children = operands.into_iter().map(|o| resolve(&ids, o)).collect();
            ids.push(eg.add(ENode { op, attrs, children, source_shape: None, source_id: None }, shape));
        }
        let with = resolve(&ids, self.with);
        eg.union(self.class, with).1 || eg.slots() != slots
    }
}

/// The rewrites `rule` offers with `node` (of `class`) as the pattern's
/// anchor: for a chain, once per child slot the pattern admits and per
/// e-node of that child class the producer test accepts.
fn ematch(eg: &EGraph, rule: &Substitution, class: ClassId, node: &ENode) -> Vec<Rewrite> {
    let mut out = Vec::new();
    for pattern in rule.source {
        let expansions: Vec<Option<(usize, &ENode)>> = match *pattern {
            Pattern::Node(test) if test.ops.contains(&node.op) => vec![None],
            Pattern::Chain { producer, consumer, slot, .. } if consumer.ops.contains(&node.op) => {
                let slots = match slot {
                    Slot::Any => 0..node.children.len(),
                    Slot::At(k) => k..(k + 1).min(node.children.len()),
                };
                slots
                    .flat_map(|s| {
                        let inner = &eg.class(node.children[s]).nodes;
                        inner.iter().filter(move |n| producer.ops.contains(&n.op)).map(move |n| Some((s, n)))
                    })
                    .collect()
            }
            _ => continue,
        };
        for expansion in expansions {
            let Some(site) = Site::new(eg, class, node, expansion) else { continue };
            let bound: Vec<NodeId> = site.inner.into_iter().chain([site.anchor]).collect();
            for m in rule.find_matches(&site.graph).into_iter().filter(|m| m.nodes == bound) {
                let Ok(patch) = rule.build_patch(&site.graph, &m) else { continue };
                out.extend(site.rewrite(class, &patch));
            }
        }
    }
    out
}

/// An e-match written out as a graph: one source per operand class (a
/// weight when the class holds a parameter), the bound e-nodes, the anchor
/// the only output.
struct Site {
    graph: Graph,
    /// Every node with its class, in id order.
    nodes: Vec<(NodeId, ClassId)>,
    inner: Option<NodeId>,
    anchor: NodeId,
}

impl Site {
    fn new(eg: &EGraph, class: ClassId, node: &ENode, expansion: Option<(usize, &ENode)>) -> Option<Self> {
        let mut nodes: Vec<(NodeId, ClassId)> = Vec::new();
        let mut graph = Graph::new();
        let operand = |graph: &mut Graph, nodes: &mut Vec<(NodeId, ClassId)>, child: ClassId| {
            let child = eg.find(child);
            if let Some(&(id, _)) = nodes.iter().find(|&&(_, c)| c == child) {
                return TensorRef::new(id);
            }
            let eclass = eg.class(child);
            let id = if eclass.nodes.iter().any(|n| matches!(n.op, OpKind::Weight | OpKind::Constant)) {
                graph.add_weight(eclass.shape.clone())
            } else {
                graph.add_input(eclass.shape.clone())
            };
            nodes.push((id, child));
            TensorRef::new(id)
        };
        // Each bound e-node, written out, must compute its class's shape.
        let has_shape = |graph: &Graph, id, class| {
            graph.tensor_shape(TensorRef::new(id)).ok() == Some(&eg.class(class).shape)
        };
        let mut inner_id = None;
        if let Some((slot, inner)) = expansion {
            let inputs = inner.children.iter().map(|&c| operand(&mut graph, &mut nodes, c)).collect();
            let id = graph.add_node(inner.op, inner.attrs.clone(), inputs).ok()?;
            let inner_class = eg.find(node.children[slot]);
            has_shape(&graph, id, inner_class).then_some(())?;
            nodes.push((id, inner_class));
            inner_id = Some((slot, id));
        }
        let mut inputs = Vec::with_capacity(node.children.len());
        for (slot, &c) in node.children.iter().enumerate() {
            inputs.push(match inner_id {
                Some((s, id)) if s == slot => TensorRef::new(id),
                _ => operand(&mut graph, &mut nodes, c),
            });
        }
        let anchor = graph.add_node(node.op, node.attrs.clone(), inputs).ok()?;
        nodes.push((anchor, class));
        graph.mark_output(TensorRef::new(anchor));
        has_shape(&graph, anchor, class).then_some(Site {
            graph,
            nodes,
            inner: inner_id.map(|(_, id)| id),
            anchor,
        })
    }

    /// The patch in e-graph terms, when it replaces the anchor alone with
    /// single-output operators.
    fn rewrite(&self, class: ClassId, patch: &GraphPatch) -> Option<Rewrite> {
        let operand = |r: PatchRef| match r {
            PatchRef::Base(t) if t.port == 0 => Some(Operand::Class(self.nodes[t.node.index()].1)),
            PatchRef::New { node, port: 0 } => Some(Operand::Added(node)),
            _ => None,
        };
        let [(from, to)] = patch.rewires() else { return None };
        if *from != TensorRef::new(self.anchor) {
            return None;
        }
        let mut added = Vec::with_capacity(patch.added_nodes().len());
        for n in patch.added_nodes() {
            if n.op.is_source() || n.outputs.len() != 1 {
                return None;
            }
            let operands = n.inputs.iter().map(|&r| operand(r)).collect::<Option<Vec<_>>>()?;
            added.push((n.op, n.attrs.clone(), operands, n.outputs[0].clone()));
        }
        Some(Rewrite { class, added, with: operand(*to)? })
    }
}

/// Per-e-node cost in microseconds, computed by materialising the operator in
/// a throwaway graph and reusing the analytical cost model.
fn enode_cost_us(
    node: &ENode,
    child_shapes: &[TensorShape],
    _out_shape: &TensorShape,
    profile: &DeviceProfile,
) -> f64 {
    if node.op.is_source() {
        return 0.0;
    }
    let mut g = Graph::new();
    let inputs: Vec<TensorRef> =
        child_shapes.iter().map(|s| TensorRef::new(g.add_input(s.clone()))).collect();
    match g.add_node(node.op, node.attrs.clone(), inputs) {
        Ok(id) => node_compute_us(&g, id, profile),
        // Unrepresentable combinations are heavily penalised so extraction
        // never chooses them.
        Err(_) => 1e12,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrlflow_cost::{CostModel, InferenceSimulator};
    use xrlflow_graph::models::{build_model, ModelKind, ModelScale};

    #[test]
    fn tensat_reduces_cost_on_conv_nets() {
        let g = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
        let tensat = TensatOptimizer::new(DeviceProfile::gtx1080());
        let result = tensat.optimize(&g).unwrap();
        assert!(result.graph.validate().is_ok());
        let cm = CostModel::new(DeviceProfile::gtx1080());
        assert!(
            cm.graph_cost_ms(&result.graph) <= cm.graph_cost_ms(&g),
            "Tensat must not regress the cost model"
        );
        // Fusion should have removed stand-alone activations or normalisations.
        assert!(result.graph.num_nodes() < g.num_nodes());
    }

    #[test]
    fn tensat_improves_e2e_latency_on_bert() {
        let g = build_model(ModelKind::Bert, ModelScale::Bench).unwrap();
        let tensat = TensatOptimizer::new(DeviceProfile::gtx1080());
        let result = tensat.optimize(&g).unwrap();
        assert!(result.graph.validate().is_ok());
        let sim = InferenceSimulator::new(DeviceProfile::gtx1080());
        assert!(sim.measure_ms(&result.graph, 0) < sim.measure_ms(&g, 0));
    }

    #[test]
    fn saturation_applies_the_rule_table_entries_the_environment_reads() {
        // A reshape pair and a double batch norm: rewrites Tensat only
        // gained by e-matching the table every other optimiser reads.
        let mut g = Graph::new();
        let x = g.add_input(TensorShape::new(vec![2, 3, 4]));
        let r1 = g.add_node(OpKind::Reshape, OpAttributes::reshape(vec![6, 4]), vec![x.into()]).unwrap();
        let r2 = g.add_node(OpKind::Reshape, OpAttributes::reshape(vec![24]), vec![r1.into()]).unwrap();
        g.mark_output(r2.into());
        let y = g.add_input(TensorShape::new(vec![1, 8, 4, 4]));
        let b1 = g.add_node(OpKind::BatchNorm, OpAttributes::default(), vec![y.into()]).unwrap();
        let b2 = g.add_node(OpKind::BatchNorm, OpAttributes::default(), vec![b1.into()]).unwrap();
        g.mark_output(b2.into());
        let result = TensatOptimizer::new(DeviceProfile::gtx1080()).optimize(&g).unwrap();
        assert!(result.graph.validate().is_ok());
        assert_eq!(result.graph.count_op(OpKind::Reshape), 1);
        assert_eq!(result.graph.count_op(OpKind::BatchNorm), 1);
    }

    #[test]
    fn the_multi_pattern_limit_counts_only_rewrites_that_change_the_e_graph() {
        // n independent `(A·B)·C` chains over weights: re-association adds
        // `B·C` (a new class) and `A·(B·C)` (into the chain's class) per
        // chain. With k = 1, one chain per iteration — a re-association
        // already in the e-graph must not spend the iteration's k.
        for chains in 1..=3 {
            let mut g = Graph::new();
            for _ in 0..chains {
                let a = g.add_input(TensorShape::new(vec![4, 8]));
                let b = g.add_weight(TensorShape::new(vec![8, 16]));
                let c = g.add_weight(TensorShape::new(vec![16, 2]));
                let ab =
                    g.add_node(OpKind::MatMul, OpAttributes::default(), vec![a.into(), b.into()]).unwrap();
                let abc =
                    g.add_node(OpKind::MatMul, OpAttributes::default(), vec![ab.into(), c.into()]).unwrap();
                g.mark_output(abc.into());
            }
            let before = EGraph::from_graph(&g).unwrap();
            let result = TensatOptimizer::new(DeviceProfile::gtx1080()).optimize(&g).unwrap();
            assert!(result.saturated, "{chains} chains");
            assert_eq!(result.num_nodes, before.num_nodes() + 2 * chains, "{chains} chains: e-nodes");
            assert_eq!(result.num_classes, before.num_classes() + chains, "{chains} chains: e-classes");
            assert!(result.graph.validate().is_ok());
        }
    }

    #[test]
    fn saturation_respects_iteration_limit() {
        let g = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
        let tensat = TensatOptimizer::new(DeviceProfile::gtx1080());
        let result = tensat.saturate(&g, Limits { iterations: 1, ..LIMITS }).unwrap();
        assert_eq!(result.iterations, 1);
    }

    #[test]
    fn node_limit_stops_growth() {
        let g = build_model(ModelKind::Bert, ModelScale::Bench).unwrap();
        let tensat = TensatOptimizer::new(DeviceProfile::gtx1080());
        // Must terminate promptly and still produce a valid graph.
        let result = tensat.saturate(&g, Limits { nodes: 10, iterations: 50, multi_pattern: 8 }).unwrap();
        assert!(result.graph.validate().is_ok());
        assert!(result.iterations < 50);
    }

    #[test]
    fn enode_cost_is_zero_for_sources_and_positive_for_compute() {
        let profile = DeviceProfile::gtx1080();
        let source = ENode {
            op: OpKind::Weight,
            attrs: OpAttributes::default(),
            children: vec![],
            source_shape: Some(TensorShape::new(vec![64, 64])),
            source_id: Some(0),
        };
        assert_eq!(enode_cost_us(&source, &[], &TensorShape::new(vec![64, 64]), &profile), 0.0);
        let mm = ENode {
            op: OpKind::MatMul,
            attrs: OpAttributes::default(),
            children: vec![ClassId(0), ClassId(1)],
            source_shape: None,
            source_id: None,
        };
        let cost = enode_cost_us(
            &mm,
            &[TensorShape::new(vec![64, 64]), TensorShape::new(vec![64, 64])],
            &TensorShape::new(vec![64, 64]),
            &profile,
        );
        assert!(cost > 0.0);
    }
}
