//! Delta-based graph rewrites: [`GraphPatch`] and [`PatchBuilder`].
//!
//! A rewrite of a large graph only ever touches a handful of nodes, yet the
//! original candidate pipeline materialised a full [`Graph`] clone per
//! candidate. A [`GraphPatch`] instead records the *delta* — nodes added and
//! consumer rewires — against a fixed base graph; the full graph is only
//! materialised (via [`Graph::apply_patch`]) for the candidates a search
//! strategy actually commits to or inspects.
//!
//! Patches are constructed through [`PatchBuilder`], which runs shape
//! inference and shape-compatibility checks *at build time*. A successfully
//! built patch therefore carries pre-inferred output shapes for every added
//! node, and applying it never re-runs inference — application is a straight
//! splice plus dead-node elimination.
//!
//! ```
//! use xrlflow_graph::{Graph, OpAttributes, OpKind, PatchBuilder, TensorShape};
//!
//! let mut g = Graph::new();
//! let x = g.add_input(TensorShape::new(vec![1, 8]));
//! let id = g.add_node(OpKind::Identity, OpAttributes::default(), vec![x.into()]).unwrap();
//! let relu = g.add_node(OpKind::Relu, OpAttributes::default(), vec![id.into()]).unwrap();
//! g.mark_output(relu.into());
//!
//! // Bypass the Identity node as a delta: one rewire, zero added nodes.
//! let mut b = PatchBuilder::new(&g);
//! b.replace_all_uses(id.into(), x).unwrap();
//! let patch = b.finish();
//! let rewritten = g.apply_patch(&patch).unwrap();
//! assert_eq!(rewritten.num_nodes(), 2);
//! assert!(rewritten.validate().is_ok());
//! ```

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use crate::graph::{Graph, GraphError, NodeId, TensorRef};
use crate::infer::infer_output_shapes;
use crate::op::{OpAttributes, OpKind};
use crate::shape::TensorShape;

/// Identifier of a node *added by a patch* (index into the patch's added-node
/// list, assigned by [`PatchBuilder::add_node`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PatchNodeId(pub(crate) usize);

impl PatchNodeId {
    /// A reference to a specific output port of this added node.
    pub fn out(self, port: usize) -> PatchRef {
        PatchRef::New { node: self.0, port }
    }
}

impl From<PatchNodeId> for PatchRef {
    fn from(id: PatchNodeId) -> Self {
        id.out(0)
    }
}

/// A tensor reference usable inside a patch: either an existing tensor of the
/// base graph, or an output of a node the patch itself adds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatchRef {
    /// A tensor that already exists in the base graph.
    Base(TensorRef),
    /// Output `port` of the `node`-th node added by the patch.
    New {
        /// Index into the patch's added-node list.
        node: usize,
        /// Output port of the added node.
        port: usize,
    },
}

impl From<TensorRef> for PatchRef {
    fn from(r: TensorRef) -> Self {
        PatchRef::Base(r)
    }
}

impl From<NodeId> for PatchRef {
    fn from(id: NodeId) -> Self {
        PatchRef::Base(TensorRef::new(id))
    }
}

impl PatchRef {
    /// Resolves this reference to a concrete [`TensorRef`] given the node ids
    /// assigned to the patch's added nodes during application.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidPatchRef`] when the reference points past
    /// the added-node list.
    pub fn resolve(self, new_ids: &[NodeId]) -> Result<TensorRef, GraphError> {
        match self {
            PatchRef::Base(r) => Ok(r),
            PatchRef::New { node, port } => new_ids
                .get(node)
                .map(|&id| TensorRef::with_port(id, port))
                .ok_or(GraphError::InvalidPatchRef { node, port }),
        }
    }
}

/// A node added by a patch, with its output shapes already inferred against
/// the base graph at patch-construction time.
#[derive(Debug, Clone, PartialEq)]
pub struct PatchNode {
    /// The operator kind.
    pub op: OpKind,
    /// The operator attributes.
    pub attrs: OpAttributes,
    /// Inputs, referencing base tensors or earlier added nodes.
    pub inputs: Vec<PatchRef>,
    /// Pre-inferred output shapes.
    pub outputs: Vec<TensorShape>,
}

/// A delta against a fixed base [`Graph`]: nodes to add and consumer rewires
/// to perform. Produced by [`PatchBuilder`], consumed by
/// [`Graph::apply_patch`].
///
/// Application order is: splice all added nodes, perform the rewires in
/// recorded order, then eliminate nodes made unreachable by the rewires.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GraphPatch {
    pub(crate) added: Vec<PatchNode>,
    pub(crate) rewires: Vec<(TensorRef, PatchRef)>,
}

impl GraphPatch {
    /// The nodes this patch adds, in splice order.
    pub fn added_nodes(&self) -> &[PatchNode] {
        &self.added
    }

    /// The `(from, to)` consumer rewires, in application order.
    pub fn rewires(&self) -> &[(TensorRef, PatchRef)] {
        &self.rewires
    }

    /// `true` when applying this patch provably leaves the graph unchanged:
    /// nothing is added and every rewire maps a tensor to itself.
    pub fn is_noop(&self) -> bool {
        self.added.is_empty()
            && self.rewires.iter().all(|(from, to)| matches!(to, PatchRef::Base(r) if r == from))
    }

    /// A structural hash of the patch. Two identical patches against the same
    /// base graph produce identical graphs, so this hash is used to
    /// deduplicate rewrite candidates without materialising them.
    pub fn structural_hash(&self) -> u64 {
        let mut hasher = DefaultHasher::new();
        self.added.len().hash(&mut hasher);
        for node in &self.added {
            node.op.hash(&mut hasher);
            node.attrs.hash(&mut hasher);
            node.inputs.hash(&mut hasher);
            for s in &node.outputs {
                s.hash(&mut hasher);
            }
        }
        self.rewires.len().hash(&mut hasher);
        for (from, to) in &self.rewires {
            from.hash(&mut hasher);
            to.hash(&mut hasher);
        }
        hasher.finish()
    }
}

/// Builds a [`GraphPatch`] against a base graph, mirroring the mutating
/// [`Graph`] API (`add_node`, `add_constant`, `replace_all_uses`) but
/// recording deltas instead of touching a clone.
///
/// Shape inference runs eagerly, so rules can query the shapes of nodes they
/// have just added (e.g. to pick a split axis), and a finished patch is
/// guaranteed shape-consistent with its base graph.
#[derive(Debug)]
pub struct PatchBuilder<'g> {
    graph: &'g Graph,
    patch: GraphPatch,
}

impl<'g> PatchBuilder<'g> {
    /// Starts an empty patch against `graph`.
    pub fn new(graph: &'g Graph) -> Self {
        Self { graph, patch: GraphPatch::default() }
    }

    /// The base graph this patch is being built against.
    pub fn base(&self) -> &Graph {
        self.graph
    }

    /// The shape of a patch tensor reference (base or added).
    ///
    /// # Errors
    ///
    /// Returns an error when the reference does not resolve.
    pub fn shape(&self, r: PatchRef) -> Result<&TensorShape, GraphError> {
        match r {
            PatchRef::Base(base) => self.graph.tensor_shape(base),
            PatchRef::New { node, port } => self
                .patch
                .added
                .get(node)
                .and_then(|n| n.outputs.get(port))
                .ok_or(GraphError::InvalidPatchRef { node, port }),
        }
    }

    /// Adds an operator node to the patch, running shape inference on its
    /// (base or added) inputs.
    ///
    /// # Errors
    ///
    /// Returns an error if any input reference is invalid or shape inference
    /// fails.
    pub fn add_node(
        &mut self,
        op: OpKind,
        attrs: OpAttributes,
        inputs: Vec<PatchRef>,
    ) -> Result<PatchNodeId, GraphError> {
        let mut in_shapes = Vec::with_capacity(inputs.len());
        for r in &inputs {
            in_shapes.push(self.shape(*r)?.clone());
        }
        let outputs = infer_output_shapes(op, &attrs, &in_shapes)?;
        self.patch.added.push(PatchNode { op, attrs, inputs, outputs });
        Ok(PatchNodeId(self.patch.added.len() - 1))
    }

    /// Adds a constant source node with the given shape to the patch.
    pub fn add_constant(&mut self, shape: TensorShape) -> PatchNodeId {
        self.patch.added.push(PatchNode {
            op: OpKind::Constant,
            attrs: OpAttributes::default(),
            inputs: Vec::new(),
            outputs: vec![shape],
        });
        PatchNodeId(self.patch.added.len() - 1)
    }

    /// Records that every consumer of `from` (and every graph output reading
    /// it) must be rewired to read `to` instead.
    ///
    /// # Errors
    ///
    /// Returns an error if either reference is invalid or their shapes differ
    /// (rewiring would corrupt downstream shapes).
    pub fn replace_all_uses(&mut self, from: TensorRef, to: impl Into<PatchRef>) -> Result<(), GraphError> {
        let to = to.into();
        let from_shape = self.graph.tensor_shape(from)?;
        let to_shape = self.shape(to)?;
        if from_shape != to_shape {
            return Err(GraphError::Shape {
                op: self.graph.node(from.node)?.op,
                message: format!("cannot replace tensor of shape {from_shape} with {to_shape}"),
            });
        }
        self.patch.rewires.push((from, to));
        Ok(())
    }

    /// Finalises the patch.
    pub fn finish(self) -> GraphPatch {
        self.patch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(d: &[usize]) -> TensorShape {
        TensorShape::new(d.to_vec())
    }

    fn relu_chain() -> (Graph, NodeId, NodeId, NodeId) {
        let mut g = Graph::new();
        let x = g.add_input(shape(&[1, 16]));
        let id = g.add_node(OpKind::Identity, OpAttributes::default(), vec![x.into()]).unwrap();
        let relu = g.add_node(OpKind::Relu, OpAttributes::default(), vec![id.into()]).unwrap();
        g.mark_output(relu.into());
        (g, x, id, relu)
    }

    #[test]
    fn rewire_only_patch_applies_and_dce_runs() {
        let (g, x, id, _) = relu_chain();
        let mut b = PatchBuilder::new(&g);
        b.replace_all_uses(id.into(), x).unwrap();
        let patch = b.finish();
        assert!(!patch.is_noop());
        assert_eq!(patch.added_nodes().len(), 0);
        assert_eq!(patch.rewires().len(), 1);

        let out = g.apply_patch(&patch).unwrap();
        assert_eq!(out.num_nodes(), 2, "Identity node must be eliminated");
        assert!(out.validate().is_ok());
        // The base graph is untouched.
        assert_eq!(g.num_nodes(), 3);
    }

    #[test]
    fn added_nodes_carry_preinferred_shapes() {
        let (g, x, _, relu) = relu_chain();
        let mut b = PatchBuilder::new(&g);
        let tanh = b.add_node(OpKind::Tanh, OpAttributes::default(), vec![x.into()]).unwrap();
        assert_eq!(b.shape(tanh.into()).unwrap().dims(), &[1, 16]);
        b.replace_all_uses(relu.into(), tanh).unwrap();
        let patch = b.finish();
        assert_eq!(patch.added_nodes().len(), 1);
        assert_eq!(patch.added_nodes()[0].outputs[0].dims(), &[1, 16]);

        let out = g.apply_patch(&patch).unwrap();
        assert!(out.validate().is_ok());
        assert_eq!(out.count_op(OpKind::Tanh), 1);
        assert_eq!(out.count_op(OpKind::Relu), 0);
    }

    #[test]
    fn chained_added_nodes_can_reference_each_other() {
        let (g, x, _, relu) = relu_chain();
        let mut b = PatchBuilder::new(&g);
        let a = b.add_node(OpKind::Tanh, OpAttributes::default(), vec![x.into()]).unwrap();
        let c = b.add_node(OpKind::Sigmoid, OpAttributes::default(), vec![a.into()]).unwrap();
        b.replace_all_uses(relu.into(), c).unwrap();
        let out = g.apply_patch(&b.finish()).unwrap();
        assert!(out.validate().is_ok());
        assert_eq!(out.count_op(OpKind::Tanh), 1);
        assert_eq!(out.count_op(OpKind::Sigmoid), 1);
    }

    #[test]
    fn shape_mismatch_rejected_at_build_time() {
        let mut g = Graph::new();
        let a = g.add_input(shape(&[1, 8]));
        let b_in = g.add_input(shape(&[1, 16]));
        let relu = g.add_node(OpKind::Relu, OpAttributes::default(), vec![a.into()]).unwrap();
        g.mark_output(relu.into());
        let mut b = PatchBuilder::new(&g);
        assert!(b.replace_all_uses(a.into(), b_in).is_err());
    }

    #[test]
    fn noop_patch_detected() {
        let (g, x, _, _) = relu_chain();
        let mut b = PatchBuilder::new(&g);
        b.replace_all_uses(x.into(), TensorRef::new(x)).unwrap();
        assert!(b.finish().is_noop());
        assert!(GraphPatch::default().is_noop());
    }

    #[test]
    fn structural_hash_distinguishes_patches() {
        let (g, x, id, relu) = relu_chain();
        let mut b1 = PatchBuilder::new(&g);
        b1.replace_all_uses(id.into(), x).unwrap();
        let p1 = b1.finish();

        let mut b2 = PatchBuilder::new(&g);
        let tanh = b2.add_node(OpKind::Tanh, OpAttributes::default(), vec![x.into()]).unwrap();
        b2.replace_all_uses(relu.into(), tanh).unwrap();
        let p2 = b2.finish();

        assert_ne!(p1.structural_hash(), p2.structural_hash());
        // Hash is deterministic.
        assert_eq!(p1.structural_hash(), p1.clone().structural_hash());
    }

    #[test]
    fn invalid_patch_ref_is_an_error() {
        let (g, x, _, _) = relu_chain();
        let b = PatchBuilder::new(&g);
        assert!(matches!(
            b.shape(PatchRef::New { node: 0, port: 0 }),
            Err(GraphError::InvalidPatchRef { .. })
        ));
        let mut b = PatchBuilder::new(&g);
        let t = b.add_node(OpKind::Tanh, OpAttributes::default(), vec![x.into()]).unwrap();
        assert!(b.shape(t.out(3)).is_err());
    }
}
