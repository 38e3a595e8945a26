//! A from-scratch e-graph (equivalence graph) for tensor expressions.
//!
//! Tensat represents many equivalent tensor graphs compactly in an e-graph
//! (built on the `egg` library) and extracts the cheapest one with a
//! per-node cost model. This module provides the same machinery:
//! hash-consed e-nodes, a union-find over e-classes, congruence maintenance
//! (`rebuild`) and cost-based extraction back into a [`Graph`].
//!
//! Like Tensat, the conversion is restricted to single-output operators; a
//! graph containing multi-output operators (e.g. `Split`) is rejected, which
//! mirrors Tensat's own representation filtering.

use std::collections::HashMap;

use xrlflow_graph::{Graph, GraphError, NodeId, OpAttributes, OpKind, TensorRef, TensorShape};

/// Identifier of an e-class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub usize);

/// An e-node: an operator applied to e-class children.
#[derive(Debug, Clone, PartialEq)]
pub struct ENode {
    /// The operator kind.
    pub op: OpKind,
    /// Operator attributes.
    pub attrs: OpAttributes,
    /// Child e-classes (operands).
    pub children: Vec<ClassId>,
    /// Shape of the source tensor for `Input`/`Weight`/`Constant` nodes.
    pub source_shape: Option<TensorShape>,
    /// Identity of the source node in the original graph, so that distinct
    /// inputs/weights with identical shapes are not conflated.
    pub source_id: Option<u32>,
}

impl ENode {
    fn key(&self) -> String {
        format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}",
            self.op, self.attrs, self.children, self.source_shape, self.source_id
        )
    }
}

/// One equivalence class of e-nodes, all computing the same tensor.
#[derive(Debug, Clone)]
pub struct EClass {
    /// The e-nodes in this class.
    pub nodes: Vec<ENode>,
    /// The shape of the tensor this class computes.
    pub shape: TensorShape,
}

/// Errors produced while building or extracting an e-graph.
#[derive(Debug, Clone, PartialEq)]
pub enum EGraphError {
    /// The input graph contains an operator the e-graph representation does
    /// not support (multi-output operators, exactly like Tensat's filter).
    Unsupported(OpKind),
    /// The e-graph grew beyond its configured node limit before saturating.
    NodeLimit(usize),
    /// An error occurred while reconstructing the extracted graph.
    Reconstruction(GraphError),
    /// The input graph was malformed.
    Graph(GraphError),
}

impl std::fmt::Display for EGraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EGraphError::Unsupported(op) => write!(f, "operator {op} is not representable in the e-graph"),
            EGraphError::NodeLimit(n) => write!(f, "e-graph exceeded the node limit of {n}"),
            EGraphError::Reconstruction(e) => write!(f, "failed to reconstruct extracted graph: {e}"),
            EGraphError::Graph(e) => write!(f, "invalid input graph: {e}"),
        }
    }
}

impl std::error::Error for EGraphError {}

impl From<GraphError> for EGraphError {
    fn from(e: GraphError) -> Self {
        EGraphError::Graph(e)
    }
}

/// A hash-consed e-graph over tensor operators.
#[derive(Debug, Default)]
pub struct EGraph {
    classes: Vec<EClass>,
    parents: Vec<usize>,
    memo: HashMap<String, ClassId>,
    /// Maps original-graph tensors to e-classes (filled by [`EGraph::from_graph`]).
    pub roots: Vec<ClassId>,
}

impl EGraph {
    /// Creates an empty e-graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of e-classes (after canonicalisation some may be unioned).
    pub fn num_classes(&self) -> usize {
        (0..self.classes.len()).filter(|&i| self.find_index(i) == i).count()
    }

    /// Class slots ever allocated, merged ones included: grows exactly when
    /// [`EGraph::add`] creates an e-node the e-graph lacked.
    pub(crate) fn slots(&self) -> usize {
        self.classes.len()
    }

    /// Total number of e-nodes across canonical classes.
    pub fn num_nodes(&self) -> usize {
        (0..self.classes.len())
            .filter(|&i| self.find_index(i) == i)
            .map(|i| self.classes[i].nodes.len())
            .sum()
    }

    fn find_index(&self, mut i: usize) -> usize {
        while self.parents[i] != i {
            i = self.parents[i];
        }
        i
    }

    /// Canonical representative of an e-class.
    pub fn find(&self, id: ClassId) -> ClassId {
        ClassId(self.find_index(id.0))
    }

    /// The canonical e-class data for an id.
    pub fn class(&self, id: ClassId) -> &EClass {
        &self.classes[self.find(id).0]
    }

    fn canonicalize(&self, node: &ENode) -> ENode {
        let mut n = node.clone();
        for c in &mut n.children {
            *c = self.find(*c);
        }
        n
    }

    /// Adds an e-node, returning the e-class that contains it (an existing
    /// class when an identical e-node is already present).
    pub fn add(&mut self, node: ENode, shape: TensorShape) -> ClassId {
        let node = self.canonicalize(&node);
        let key = node.key();
        if let Some(&id) = self.memo.get(&key) {
            return self.find(id);
        }
        let id = ClassId(self.classes.len());
        self.classes.push(EClass { nodes: vec![node], shape });
        self.parents.push(id.0);
        self.memo.insert(key, id);
        id
    }

    /// Merges two e-classes, asserting they compute tensors of the same shape.
    ///
    /// Returns the canonical id of the merged class and whether anything
    /// changed.
    pub fn union(&mut self, a: ClassId, b: ClassId) -> (ClassId, bool) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return (ra, false);
        }
        assert_eq!(
            self.classes[ra.0].shape, self.classes[rb.0].shape,
            "cannot union e-classes of different shapes"
        );
        // Union by keeping the smaller id as the representative.
        let (keep, merge) = if ra.0 < rb.0 { (ra, rb) } else { (rb, ra) };
        self.parents[merge.0] = keep.0;
        let moved = std::mem::take(&mut self.classes[merge.0].nodes);
        self.classes[keep.0].nodes.extend(moved);
        (keep, true)
    }

    /// Restores congruence after unions: re-canonicalises every e-node and
    /// merges classes that now contain identical e-nodes.
    pub fn rebuild(&mut self) {
        loop {
            let mut changed = false;
            let mut memo: HashMap<String, ClassId> = HashMap::new();
            let mut pending: Vec<(ClassId, ClassId)> = Vec::new();
            for i in 0..self.classes.len() {
                if self.find_index(i) != i {
                    continue;
                }
                let canon_nodes: Vec<ENode> =
                    self.classes[i].nodes.iter().map(|n| self.canonicalize(n)).collect();
                for n in &canon_nodes {
                    let key = n.key();
                    match memo.get(&key) {
                        Some(&other) if self.find(other) != ClassId(i) => {
                            pending.push((other, ClassId(i)));
                        }
                        None => {
                            memo.insert(key, ClassId(i));
                        }
                        _ => {}
                    }
                }
                self.classes[i].nodes = canon_nodes;
                self.classes[i].nodes.sort_by_key(|n| n.key());
                self.classes[i].nodes.dedup();
            }
            for (a, b) in pending {
                let (_, did) = self.union(a, b);
                changed |= did;
            }
            self.memo = memo.into_iter().map(|(k, v)| (k, self.find(v))).collect();
            if !changed {
                break;
            }
        }
    }

    /// Iterates over canonical classes.
    pub fn iter_classes(&self) -> impl Iterator<Item = (ClassId, &EClass)> {
        (0..self.classes.len())
            .filter(move |&i| self.find_index(i) == i)
            .map(move |i| (ClassId(i), &self.classes[i]))
    }

    /// Builds an e-graph from a dataflow graph.
    ///
    /// # Errors
    ///
    /// Returns [`EGraphError::Unsupported`] for graphs containing
    /// multi-output operators.
    pub fn from_graph(graph: &Graph) -> Result<Self, EGraphError> {
        let mut eg = Self::new();
        let order = graph.topo_order()?;
        let mut class_of: HashMap<NodeId, ClassId> = HashMap::new();
        for id in order {
            let node = graph.node(id)?;
            if node.outputs.len() != 1 {
                return Err(EGraphError::Unsupported(node.op));
            }
            let shape = node.outputs[0].clone();
            let enode = if node.op.is_source() {
                ENode {
                    op: node.op,
                    attrs: node.attrs.clone(),
                    children: Vec::new(),
                    source_shape: Some(shape.clone()),
                    source_id: Some(id.index() as u32),
                }
            } else {
                let mut children = Vec::with_capacity(node.inputs.len());
                for r in &node.inputs {
                    if r.port != 0 {
                        return Err(EGraphError::Unsupported(node.op));
                    }
                    children.push(*class_of.get(&r.node).expect("topological order guarantees parents"));
                }
                ENode {
                    op: node.op,
                    attrs: node.attrs.clone(),
                    children,
                    source_shape: None,
                    source_id: None,
                }
            };
            let cid = eg.add(enode, shape);
            class_of.insert(id, cid);
        }
        eg.roots = graph.outputs().iter().map(|r| eg.find(class_of[&r.node])).collect();
        Ok(eg)
    }

    /// Extracts the cheapest representative graph using a per-node cost
    /// function `cost(op, attrs, input shapes, output shape) -> cost`.
    ///
    /// # Errors
    ///
    /// Returns an error if reconstruction fails (which indicates an
    /// inconsistent e-graph).
    pub fn extract<F>(&self, mut node_cost: F) -> Result<Graph, EGraphError>
    where
        F: FnMut(&ENode, &[TensorShape], &TensorShape) -> f64,
    {
        // Bottom-up cost computation over canonical classes.
        let canon: Vec<ClassId> = self.iter_classes().map(|(id, _)| id).collect();
        let mut best_cost: HashMap<ClassId, f64> = HashMap::new();
        let mut best_node: HashMap<ClassId, ENode> = HashMap::new();

        let mut changed = true;
        while changed {
            changed = false;
            for &cid in &canon {
                let class = &self.classes[cid.0];
                for node in &class.nodes {
                    let child_shapes: Vec<TensorShape> =
                        node.children.iter().map(|c| self.class(*c).shape.clone()).collect();
                    let children_cost: Option<f64> = node
                        .children
                        .iter()
                        .map(|c| best_cost.get(&self.find(*c)).copied())
                        .sum::<Option<f64>>();
                    let Some(children_cost) = children_cost else { continue };
                    let total = children_cost + node_cost(node, &child_shapes, &class.shape);
                    if best_cost.get(&cid).map(|&c| total < c).unwrap_or(true) {
                        best_cost.insert(cid, total);
                        best_node.insert(cid, node.clone());
                        changed = true;
                    }
                }
            }
        }

        // Reconstruct a graph from the chosen representatives.
        let mut g = Graph::new();
        let mut built: HashMap<ClassId, NodeId> = HashMap::new();
        let mut stack: Vec<ClassId> = self.roots.iter().map(|r| self.find(*r)).collect();
        // Emit in dependency order via an explicit DFS with a visitation stack.
        while let Some(&cid) = stack.last() {
            if built.contains_key(&cid) {
                stack.pop();
                continue;
            }
            let node = best_node.get(&cid).ok_or(EGraphError::NodeLimit(self.num_nodes()))?;
            let missing: Vec<ClassId> =
                node.children.iter().map(|c| self.find(*c)).filter(|c| !built.contains_key(c)).collect();
            if !missing.is_empty() {
                stack.extend(missing);
                continue;
            }
            stack.pop();
            let new_id = if node.op.is_source() {
                let shape = node.source_shape.clone().expect("source e-node retains its shape");
                match node.op {
                    OpKind::Input => g.add_input(shape),
                    OpKind::Weight => g.add_weight(shape),
                    _ => g.add_constant(shape),
                }
            } else {
                let inputs: Vec<TensorRef> =
                    node.children.iter().map(|c| TensorRef::new(built[&self.find(*c)])).collect();
                g.add_node(node.op, node.attrs.clone(), inputs).map_err(EGraphError::Reconstruction)?
            };
            built.insert(cid, new_id);
        }
        for root in &self.roots {
            g.mark_output(TensorRef::new(built[&self.find(*root)]));
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrlflow_graph::OpAttributes;

    fn shape(d: &[usize]) -> TensorShape {
        TensorShape::new(d.to_vec())
    }

    fn mlp_graph() -> Graph {
        let mut g = Graph::new();
        let x = g.add_input(shape(&[1, 64]));
        let w1 = g.add_weight(shape(&[64, 32]));
        let mm = g.add_node(OpKind::MatMul, OpAttributes::default(), vec![x.into(), w1.into()]).unwrap();
        let relu = g.add_node(OpKind::Relu, OpAttributes::default(), vec![mm.into()]).unwrap();
        g.mark_output(relu.into());
        g
    }

    #[test]
    fn round_trip_without_rewrites_preserves_structure() {
        let g = mlp_graph();
        let eg = EGraph::from_graph(&g).unwrap();
        assert_eq!(eg.num_classes(), g.num_nodes());
        let out = eg.extract(|_, _, _| 1.0).unwrap();
        assert!(out.validate().is_ok());
        assert_eq!(out.num_nodes(), g.num_nodes());
        assert_eq!(out.count_op(OpKind::MatMul), 1);
        assert_eq!(out.count_op(OpKind::Relu), 1);
    }

    #[test]
    fn hashcons_deduplicates_identical_nodes() {
        let mut eg = EGraph::new();
        let a = eg.add(
            ENode {
                op: OpKind::Input,
                attrs: OpAttributes::default(),
                children: vec![],
                source_shape: Some(shape(&[1, 4])),
                source_id: Some(0),
            },
            shape(&[1, 4]),
        );
        let b = eg.add(
            ENode {
                op: OpKind::Input,
                attrs: OpAttributes::default(),
                children: vec![],
                source_shape: Some(shape(&[1, 4])),
                source_id: Some(0),
            },
            shape(&[1, 4]),
        );
        assert_eq!(a, b);
        assert_eq!(eg.num_classes(), 1);
    }

    #[test]
    fn union_and_rebuild_maintain_congruence() {
        // Two "different" leaves x and y; Relu(x) and Relu(y) differ until we
        // union x with y, after which rebuild must merge the Relu classes.
        let mut eg = EGraph::new();
        let leaf = |eg: &mut EGraph, id: u32| {
            eg.add(
                ENode {
                    op: OpKind::Input,
                    attrs: OpAttributes::default(),
                    children: vec![],
                    source_shape: Some(shape(&[1, 4])),
                    source_id: Some(id),
                },
                shape(&[1, 4]),
            )
        };
        let x = leaf(&mut eg, 0);
        let y = leaf(&mut eg, 1);
        let relu = |eg: &mut EGraph, c: ClassId| {
            eg.add(
                ENode {
                    op: OpKind::Relu,
                    attrs: OpAttributes::default(),
                    children: vec![c],
                    source_shape: None,
                    source_id: None,
                },
                shape(&[1, 4]),
            )
        };
        let rx = relu(&mut eg, x);
        let ry = relu(&mut eg, y);
        assert_ne!(eg.find(rx), eg.find(ry));
        eg.union(x, y);
        eg.rebuild();
        assert_eq!(eg.find(rx), eg.find(ry));
    }

    #[test]
    fn multi_output_graphs_are_rejected() {
        let mut g = Graph::new();
        let x = g.add_input(shape(&[1, 8, 4, 4]));
        let split =
            g.add_node(OpKind::Split, xrlflow_graph::OpAttributes::split(1, 2), vec![x.into()]).unwrap();
        let a =
            g.add_node(OpKind::Relu, OpAttributes::default(), vec![TensorRef::with_port(split, 0)]).unwrap();
        g.mark_output(a.into());
        assert!(matches!(EGraph::from_graph(&g), Err(EGraphError::Unsupported(OpKind::Split))));
    }

    #[test]
    fn extraction_picks_cheaper_alternative() {
        // Build Relu(x) and union its class with Identity(x); extraction with
        // a cost that penalises Relu must pick Identity.
        let g = mlp_graph();
        let mut eg = EGraph::from_graph(&g).unwrap();
        // Find the Relu class and the MatMul class.
        let relu_class =
            eg.iter_classes().find(|(_, c)| c.nodes.iter().any(|n| n.op == OpKind::Relu)).unwrap().0;
        let matmul_class =
            eg.iter_classes().find(|(_, c)| c.nodes.iter().any(|n| n.op == OpKind::MatMul)).unwrap().0;
        let out_shape = eg.class(relu_class).shape.clone();
        let identity = ENode {
            op: OpKind::Identity,
            attrs: OpAttributes::default(),
            children: vec![matmul_class],
            source_shape: None,
            source_id: None,
        };
        let id_class = eg.add(identity, out_shape);
        eg.union(relu_class, id_class);
        eg.rebuild();
        let extracted = eg.extract(|n, _, _| if n.op == OpKind::Relu { 100.0 } else { 1.0 }).unwrap();
        assert_eq!(extracted.count_op(OpKind::Relu), 0);
        assert_eq!(extracted.count_op(OpKind::Identity), 1);
    }
}
