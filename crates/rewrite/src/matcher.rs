//! Small structural-matching helpers shared by the rewrite rules.
//!
//! TASO's generated rules are source/target graph pairs applied through a
//! generic subgraph matcher; this reproduction expresses each rule family
//! directly in Rust and uses these helpers to locate the structural motifs
//! (operator chains, sibling operators sharing an input, ...) the rules
//! rewrite.

use std::cell::OnceCell;
use std::collections::HashSet;

use xrlflow_graph::{Graph, NodeId, OpKind, TensorRef};

/// Returns the consumers of *any output port* of a node.
pub fn consumers_of(graph: &Graph, id: NodeId) -> Vec<NodeId> {
    graph.consumers(id).into_iter().map(|(c, _)| c).collect()
}

/// Returns `true` when the node's outputs are consumed by exactly one node
/// and the node is not a graph output (so it can be safely absorbed into a
/// fused operator).
pub fn has_single_consumer(graph: &Graph, id: NodeId) -> bool {
    let mut consumers = consumers_of(graph, id);
    consumers.sort_unstable();
    consumers.dedup();
    consumers.len() == 1 && !graph.outputs().iter().any(|r| r.node == id)
}

/// Finds all two-node chains `first -> second` where `second` is the sole
/// consumer of `first`. Returns `(first, second)` pairs.
///
/// The sole-consumer test is [`has_single_consumer`]'s, answered from one
/// count of every node's distinct consumers — made when the first chain
/// turns up, so a graph without the motif is never scanned — instead of one
/// whole-graph scan per chain.
pub fn find_chains(graph: &Graph, first: OpKind, second: OpKind) -> Vec<(NodeId, NodeId)> {
    let mut out = Vec::new();
    let mut consumers: Option<Vec<u32>> = None;
    for (id, node) in graph.iter() {
        if node.op != second {
            continue;
        }
        for input in &node.inputs {
            let Ok(producer) = graph.node(input.node) else { continue };
            if producer.op != first {
                continue;
            }
            let consumers = consumers.get_or_insert_with(|| distinct_consumer_counts(graph));
            if consumers[input.node.index()] == 1 && !graph.outputs().iter().any(|r| r.node == input.node) {
                out.push((input.node, id));
            }
        }
    }
    out
}

/// How many distinct nodes consume each node, indexed by `NodeId::index()`.
fn distinct_consumer_counts(graph: &Graph) -> Vec<u32> {
    let ids = graph.iter().last().map_or(0, |(id, _)| id.index() + 1);
    let mut counts = vec![0u32; ids];
    for (_, node) in graph.iter() {
        for (slot, input) in node.inputs.iter().enumerate() {
            // A consumer reading one producer through several slots is one consumer.
            if !node.inputs[..slot].iter().any(|earlier| earlier.node == input.node) {
                counts[input.node.index()] += 1;
            }
        }
    }
    counts
}

/// Finds unordered pairs of distinct nodes of kind `op` that consume the same
/// tensor as their `slot`-th input. Returns `(shared_input, left, right)`.
pub fn find_siblings_sharing_input(
    graph: &Graph,
    op: OpKind,
    slot: usize,
) -> Vec<(TensorRef, NodeId, NodeId)> {
    let mut by_input: std::collections::HashMap<TensorRef, Vec<NodeId>> = Default::default();
    for (id, node) in graph.iter() {
        if node.op == op {
            if let Some(r) = node.inputs.get(slot) {
                by_input.entry(*r).or_default().push(id);
            }
        }
    }
    let mut out = Vec::new();
    for (input, mut ids) in by_input {
        ids.sort_unstable();
        for i in 0..ids.len() {
            for j in i + 1..ids.len() {
                out.push((input, ids[i], ids[j]));
            }
        }
    }
    out.sort_by_key(|(_, a, b)| (*a, *b));
    out
}

/// Returns `true` when `node`'s output depends, transitively through
/// dataflow inputs, on `ancestor` (or is `ancestor` itself).
pub fn depends_on(graph: &Graph, node: NodeId, ancestor: NodeId) -> bool {
    let mut visited: std::collections::HashSet<NodeId> = Default::default();
    let mut stack = vec![node];
    while let Some(id) = stack.pop() {
        if id == ancestor {
            return true;
        }
        if !visited.insert(id) {
            continue;
        }
        if let Ok(n) = graph.node(id) {
            stack.extend(n.inputs.iter().map(|r| r.node));
        }
    }
    false
}

/// Returns `true` when the given tensor is produced by a weight or constant
/// node (i.e. it is known before inference).
pub fn is_parameter(graph: &Graph, r: TensorRef) -> bool {
    graph.node(r.node).map(|n| matches!(n.op, OpKind::Weight | OpKind::Constant)).unwrap_or(false)
}

/// Answers "does this tensor not depend on any graph input?" for the tensors
/// of one graph — either a weight/constant itself or an operator over
/// weights/constants (e.g. a padded or concatenated weight produced by an
/// earlier rewrite).
///
/// `Graph::foldable_nodes` is a whole-graph topological sort, so the set is
/// computed at most once per matcher call, and only when a tensor that is
/// not a parameter itself is asked about.
pub(crate) struct ConstantDerived<'g> {
    graph: &'g Graph,
    foldable: OnceCell<HashSet<NodeId>>,
}

impl<'g> ConstantDerived<'g> {
    pub(crate) fn of(graph: &'g Graph) -> Self {
        Self { graph, foldable: OnceCell::new() }
    }

    pub(crate) fn contains(&self, r: TensorRef) -> bool {
        is_parameter(self.graph, r)
            || self.foldable.get_or_init(|| self.graph.foldable_nodes()).contains(&r.node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrlflow_graph::{OpAttributes, TensorShape};

    fn shape(d: &[usize]) -> TensorShape {
        TensorShape::new(d.to_vec())
    }

    #[test]
    fn chains_require_single_consumer() {
        let mut g = Graph::new();
        let x = g.add_input(shape(&[1, 8]));
        let w = g.add_weight(shape(&[8, 8]));
        let mm = g.add_node(OpKind::MatMul, OpAttributes::default(), vec![x.into(), w.into()]).unwrap();
        let relu = g.add_node(OpKind::Relu, OpAttributes::default(), vec![mm.into()]).unwrap();
        g.mark_output(relu.into());
        assert_eq!(find_chains(&g, OpKind::MatMul, OpKind::Relu), vec![(mm, relu)]);

        // Add a second consumer of the matmul: the chain is no longer fusible.
        let tanh = g.add_node(OpKind::Tanh, OpAttributes::default(), vec![mm.into()]).unwrap();
        g.mark_output(tanh.into());
        assert!(find_chains(&g, OpKind::MatMul, OpKind::Relu).is_empty());
    }

    #[test]
    fn siblings_sharing_input_found() {
        let mut g = Graph::new();
        let x = g.add_input(shape(&[1, 8]));
        let w1 = g.add_weight(shape(&[8, 4]));
        let w2 = g.add_weight(shape(&[8, 4]));
        let a = g.add_node(OpKind::MatMul, OpAttributes::default(), vec![x.into(), w1.into()]).unwrap();
        let b = g.add_node(OpKind::MatMul, OpAttributes::default(), vec![x.into(), w2.into()]).unwrap();
        g.mark_output(a.into());
        g.mark_output(b.into());
        let sib = find_siblings_sharing_input(&g, OpKind::MatMul, 0);
        assert_eq!(sib.len(), 1);
        assert_eq!(sib[0].0, TensorRef::from(x));
    }

    #[test]
    fn parameter_detection() {
        let mut g = Graph::new();
        let x = g.add_input(shape(&[1, 8]));
        let w = g.add_weight(shape(&[8]));
        let c = g.add_constant(shape(&[8]));
        assert!(!is_parameter(&g, x.into()));
        assert!(is_parameter(&g, w.into()));
        assert!(is_parameter(&g, c.into()));
    }

    #[test]
    fn graph_output_is_not_single_consumer() {
        let mut g = Graph::new();
        let x = g.add_input(shape(&[1, 8]));
        let relu = g.add_node(OpKind::Relu, OpAttributes::default(), vec![x.into()]).unwrap();
        let tanh = g.add_node(OpKind::Tanh, OpAttributes::default(), vec![relu.into()]).unwrap();
        g.mark_output(relu.into());
        g.mark_output(tanh.into());
        // relu feeds tanh but is also a graph output, so it cannot be fused away.
        assert!(!has_single_consumer(&g, relu));
    }
}
