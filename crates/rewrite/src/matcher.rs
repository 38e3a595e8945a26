//! Small structural-matching helpers the substitution table's matcher and
//! guards share: sibling operators reading one tensor, dataflow dependence,
//! and "is this tensor known before inference".

use xrlflow_graph::{Graph, NodeId, OpKind, TensorRef};

/// Finds unordered pairs of distinct nodes of kind `op` that consume the same
/// tensor as their `slot`-th input. Returns `(shared_input, left, right)`.
pub fn find_siblings_sharing_input(
    graph: &Graph,
    op: OpKind,
    slot: usize,
) -> Vec<(TensorRef, NodeId, NodeId)> {
    sibling_pairs(&readers_of(graph, op, slot))
}

/// Every node of kind `op` with the tensor it reads through input `slot`,
/// sorted by [`reader_key`]: readers of one tensor end up adjacent and
/// ascending, with no map keyed by tensor.
pub(crate) fn readers_of(graph: &Graph, op: OpKind, slot: usize) -> Vec<(TensorRef, NodeId)> {
    let mut readers: Vec<(TensorRef, NodeId)> = graph
        .iter()
        .filter(|(_, node)| node.op == op)
        .filter_map(|(id, node)| Some((*node.inputs.get(slot)?, id)))
        .collect();
    readers.sort_unstable_by_key(reader_key);
    readers
}

/// The order of a reader list: by tensor read, then by reader.
pub(crate) fn reader_key(&(input, id): &(TensorRef, NodeId)) -> (NodeId, usize, NodeId) {
    (input.node, input.port, id)
}

/// The sibling pairs of a sorted reader list, `(shared_input, left, right)`
/// with `left < right`, pairs ascending.
pub(crate) fn sibling_pairs(readers: &[(TensorRef, NodeId)]) -> Vec<(TensorRef, NodeId, NodeId)> {
    let mut out = Vec::new();
    for group in readers.chunk_by(|a, b| a.0 == b.0) {
        for (i, &(input, left)) in group.iter().enumerate() {
            out.extend(group[i + 1..].iter().map(|&(_, right)| (input, left, right)));
        }
    }
    // A node reads one tensor through `slot`, so `(left, right)` names its
    // pair: the order below is total, whatever order the groups came in.
    out.sort_unstable_by_key(|&(_, left, right)| (left, right));
    out
}

/// Returns `true` when `node`'s output depends, transitively through
/// dataflow inputs, on `ancestor` (or is `ancestor` itself).
///
/// The walk does not go past what `ancestor` itself reads: in a DAG nothing
/// upstream of `ancestor` depends on it. Two siblings reading one tensor are
/// therefore told apart without walking everything above that tensor.
pub fn depends_on(graph: &Graph, node: NodeId, ancestor: NodeId) -> bool {
    let upstream = graph.node(ancestor).map_or(&[][..], |n| &n.inputs[..]);
    let mut visited = vec![false; graph.id_bound()];
    let mut stack = vec![node];
    while let Some(id) = stack.pop() {
        if id == ancestor {
            return true;
        }
        // A missing node has no inputs to follow.
        let Ok(n) = graph.node(id) else { continue };
        if !std::mem::replace(&mut visited[id.index()], true) && !upstream.iter().any(|r| r.node == id) {
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

/// "Does this tensor not depend on any graph input?" — either a
/// weight/constant itself or an operator over weights/constants (e.g. a
/// padded or concatenated weight produced by an earlier rewrite). Answered
/// from the graph's memoised structure index, so a matcher may ask per site.
pub(crate) fn is_constant_derived(graph: &Graph, r: TensorRef) -> bool {
    is_parameter(graph, r) || graph.is_foldable(r.node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrlflow_graph::{OpAttributes, TensorShape};

    fn shape(d: &[usize]) -> TensorShape {
        TensorShape::new(d.to_vec())
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

    /// The map-keyed grouping `find_siblings_sharing_input` used to do.
    fn siblings_grouping_by_map(graph: &Graph, op: OpKind, slot: usize) -> Vec<(TensorRef, NodeId, NodeId)> {
        let mut by_input: std::collections::HashMap<TensorRef, Vec<NodeId>> = Default::default();
        for (id, node) in graph.iter().filter(|(_, node)| node.op == op) {
            if let Some(r) = node.inputs.get(slot) {
                by_input.entry(*r).or_default().push(id);
            }
        }
        let mut out = Vec::new();
        for (input, ids) in by_input {
            for i in 0..ids.len() {
                out.extend(ids[i + 1..].iter().map(|&right| (input, ids[i], right)));
            }
        }
        out.sort_by_key(|(_, a, b)| (*a, *b));
        out
    }

    #[test]
    fn sibling_pairs_come_in_one_order_however_they_are_grouped() {
        use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
        let mut pairs = 0;
        for kind in [ModelKind::InceptionV3, ModelKind::SqueezeNet, ModelKind::Bert, ModelKind::Vit] {
            let g = build_model(kind, ModelScale::Bench).unwrap();
            for (op, slot) in
                [(OpKind::Conv2d, 0), (OpKind::MatMul, 0), (OpKind::MatMul, 1), (OpKind::Add, 1)]
            {
                let found = find_siblings_sharing_input(&g, op, slot);
                // Strictly ascending `(left, right)`: the final sort's key is
                // unique per pair, so it alone fixes the order.
                assert!(
                    found.windows(2).all(|w| (w[0].1, w[0].2) < (w[1].1, w[1].2)),
                    "{kind}: {op} slot {slot}"
                );
                assert!(found.iter().all(|&(input, a, b)| {
                    a < b && [a, b].iter().all(|&id| g.node(id).unwrap().inputs[slot] == input)
                }));
                assert_eq!(found, siblings_grouping_by_map(&g, op, slot), "{kind}: {op} slot {slot}");
                pairs += found.len();
            }
        }
        assert!(pairs > 20, "the zoo has siblings to pair, got {pairs}");
    }

    #[test]
    fn dependence_follows_inputs_and_survives_missing_nodes() {
        let mut g = Graph::new();
        let x = g.add_input(shape(&[1, 8]));
        let a = g.add_node(OpKind::Relu, OpAttributes::default(), vec![x.into()]).unwrap();
        let b = g.add_node(OpKind::Tanh, OpAttributes::default(), vec![a.into()]).unwrap();
        let c = g.add_node(OpKind::Add, OpAttributes::default(), vec![a.into(), b.into()]).unwrap();
        let side = g.add_node(OpKind::Gelu, OpAttributes::default(), vec![x.into()]).unwrap();
        g.mark_output(c.into());
        assert!(depends_on(&g, c, x) && depends_on(&g, c, a) && depends_on(&g, b, a) && depends_on(&g, a, a));
        assert!(!depends_on(&g, a, b) && !depends_on(&g, c, side) && !depends_on(&g, side, c));
        // `side` is unreachable from the output: dead-node elimination
        // leaves a hole the walk must step over.
        g.eliminate_dead_nodes();
        assert!(!depends_on(&g, c, side) && !depends_on(&g, side, x) && depends_on(&g, c, x));
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
}
