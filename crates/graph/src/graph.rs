//! The dataflow-graph intermediate representation.
//!
//! Nodes are tensor operators, edges carry tensors between them — the same
//! representation TASO and X-RLflow operate on. The graph owns shape
//! inference (performed when a node is added) so that every edge always has
//! a concrete [`TensorShape`], which downstream components (cost model,
//! rewrite matcher, GNN featuriser) rely on.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

use crate::infer::infer_output_shapes;
use crate::op::{OpAttributes, OpKind};
use crate::shape::TensorShape;

/// Identifier of a node within a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The raw index of this node id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A reference to one output tensor of a node (node id + output port).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TensorRef {
    /// The producing node.
    pub node: NodeId,
    /// Which of the producing node's outputs this refers to.
    pub port: usize,
}

impl TensorRef {
    /// A reference to output port 0 of a node.
    pub fn new(node: NodeId) -> Self {
        Self { node, port: 0 }
    }

    /// A reference to a specific output port of a node.
    pub fn with_port(node: NodeId, port: usize) -> Self {
        Self { node, port }
    }
}

impl From<NodeId> for TensorRef {
    fn from(node: NodeId) -> Self {
        TensorRef::new(node)
    }
}

/// A single operator node in the graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// The operator kind.
    pub op: OpKind,
    /// The operator attributes.
    pub attrs: OpAttributes,
    /// The input tensors, in operator-defined order.
    pub inputs: Vec<TensorRef>,
    /// The shapes of this node's output tensors.
    pub outputs: Vec<TensorShape>,
    /// Optional human-readable name (used by the model zoo).
    pub name: Option<String>,
}

/// Errors produced while building or transforming graphs.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// The operator received the wrong number of inputs.
    Arity {
        /// The operator kind.
        op: OpKind,
        /// Minimum number of inputs accepted.
        expected_min: usize,
        /// Maximum number of inputs accepted.
        expected_max: usize,
        /// Number of inputs actually supplied.
        got: usize,
    },
    /// The input shapes are incompatible with the operator.
    Shape {
        /// The operator kind.
        op: OpKind,
        /// Explanation of the mismatch.
        message: String,
    },
    /// A referenced node does not exist (or has been removed).
    InvalidNode(NodeId),
    /// A referenced output port does not exist on the producing node.
    InvalidPort(TensorRef),
    /// The graph contains a cycle.
    Cycle,
    /// A patch referenced an added node or output port that does not exist.
    InvalidPatchRef {
        /// Index of the added node within the patch.
        node: usize,
        /// Output port referenced.
        port: usize,
    },
    /// A serialised graph document is malformed or violates the interchange
    /// schema (bad JSON syntax, wrong format marker, unsupported version,
    /// missing or ill-typed keys).
    Parse(String),
    /// A serialised graph named an operator kind this build does not know.
    UnknownOp(String),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::Arity { op, expected_min, expected_max, got } => {
                if expected_max == &usize::MAX {
                    write!(f, "{op} expects at least {expected_min} inputs, got {got}")
                } else {
                    write!(f, "{op} expects {expected_min}..={expected_max} inputs, got {got}")
                }
            }
            GraphError::Shape { op, message } => write!(f, "shape error in {op}: {message}"),
            GraphError::InvalidNode(id) => write!(f, "invalid node reference {:?}", id),
            GraphError::InvalidPort(r) => write!(f, "invalid output port {} of {:?}", r.port, r.node),
            GraphError::Cycle => write!(f, "graph contains a cycle"),
            GraphError::InvalidPatchRef { node, port } => {
                write!(f, "invalid patch reference: added node {node}, port {port}")
            }
            GraphError::Parse(message) => write!(f, "malformed graph document: {message}"),
            GraphError::UnknownOp(name) => write!(f, "unknown operator {name:?}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A tensor dataflow graph (directed acyclic graph of operators).
///
/// # Examples
///
/// Building the dense layer `y = relu(w·x + b)` from the paper's Figure 1:
///
/// ```
/// use xrlflow_graph::{Graph, OpAttributes, OpKind, TensorShape};
///
/// let mut g = Graph::new();
/// let x = g.add_input(TensorShape::new(vec![1, 64]));
/// let w = g.add_weight(TensorShape::new(vec![64, 32]));
/// let b = g.add_weight(TensorShape::new(vec![1, 32]));
/// let mm = g.add_node(OpKind::MatMul, OpAttributes::default(), vec![x.into(), w.into()]).unwrap();
/// let add = g.add_node(OpKind::Add, OpAttributes::default(), vec![mm.into(), b.into()]).unwrap();
/// let y = g.add_node(OpKind::Relu, OpAttributes::default(), vec![add.into()]).unwrap();
/// g.mark_output(y.into());
/// assert_eq!(g.num_nodes(), 6);
/// assert!(g.validate().is_ok());
/// ```
///
/// # Sharing and the structure index
///
/// Node slots hold `Arc<Node>`, so cloning a graph — and
/// [`Graph::apply_patch`], which starts from a clone — copies one pointer
/// per node; a rewire copies exactly the nodes whose inputs it changes.
/// Graphs one rewrite apart therefore share every node the rewrite left
/// alone.
///
/// Structural questions ([`Graph::topo_order`], [`Graph::canonical_hash`],
/// [`Graph::validate`]'s acyclicity, [`Graph::is_foldable`],
/// [`Graph::num_nodes`]) are answered from one lazily built index over dense
/// `NodeId`-indexed vectors. The index is memoised per graph, shared by
/// clones and forgotten by the one private accessor through which every
/// `&mut self` method reaches the nodes or the outputs.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    nodes: Vec<Option<Arc<Node>>>,
    outputs: Vec<TensorRef>,
    index: OnceLock<Arc<StructureIndex>>,
}

/// What a graph's structure answers without another pass over it; see
/// [`Graph`]. Built in one Kahn sort.
#[derive(Debug)]
struct StructureIndex {
    /// Number of live nodes.
    live: usize,
    /// The topological order, `None` when the graph is cyclic or holds a
    /// dangling reference.
    order: Option<Vec<NodeId>>,
    /// Per `NodeId::index()`: whether the node is independent of every
    /// `Input` (all `false` without an order).
    foldable: Vec<bool>,
    /// The canonical hash, computed on first request: most graphs an episode
    /// steps through are never measured or cached, so never hashed.
    hash: OnceLock<u64>,
}

impl StructureIndex {
    /// Kahn's algorithm in the order the map-based sort it replaced produced
    /// (which [`Graph::canonical_hash`] and with it every cache key and
    /// simulated latency depends on): a node's in-degree is the number of its
    /// *distinct* producers; the queue starts with the zero-in-degree ids
    /// ascending and is FIFO; a finished node releases its consumers in
    /// ascending id order. A reference to a missing node is never released,
    /// so a dangling graph reads as cyclic.
    fn build(nodes: &[Option<Arc<Node>>]) -> Self {
        /// The index of every producer `node` reads, once each.
        fn distinct_producers(node: &Node) -> impl Iterator<Item = usize> + '_ {
            let inputs = &node.inputs;
            let repeats = move |at: usize| inputs[..at].iter().any(|earlier| earlier.node == inputs[at].node);
            (0..inputs.len()).filter(move |&at| !repeats(at)).map(move |at| inputs[at].node.index())
        }
        let slots = nodes.len();
        let is_live = |id: usize| matches!(nodes.get(id), Some(Some(_)));
        // Each producer's consumers as one block of `consumers`: count,
        // prefix-sum, fill. `block_end[p]` is where p's block starts until
        // the fill has advanced it to where the block ends.
        let mut in_degree = vec![0u32; slots];
        let mut block_end = vec![0u32; slots + 1];
        let mut live = 0;
        for (id, node) in nodes.iter().enumerate() {
            let Some(node) = node else { continue };
            live += 1;
            for producer in distinct_producers(node) {
                in_degree[id] += 1;
                if is_live(producer) {
                    block_end[producer + 1] += 1;
                }
            }
        }
        for id in 0..slots {
            block_end[id + 1] += block_end[id];
        }
        let mut consumers = vec![0u32; block_end[slots] as usize];
        for (id, node) in nodes.iter().enumerate() {
            let Some(node) = node else { continue };
            for producer in distinct_producers(node) {
                if is_live(producer) {
                    consumers[block_end[producer] as usize] = id as u32;
                    block_end[producer] += 1;
                }
            }
        }

        // `order` doubles as the FIFO queue: `head` is its read position.
        let mut order: Vec<NodeId> = Vec::with_capacity(live);
        order.extend((0..slots).filter(|&id| is_live(id) && in_degree[id] == 0).map(|id| NodeId(id as u32)));
        let mut head = 0;
        while let Some(&id) = order.get(head) {
            head += 1;
            let block_start = if id.index() == 0 { 0 } else { block_end[id.index() - 1] };
            for &consumer in &consumers[block_start as usize..block_end[id.index()] as usize] {
                in_degree[consumer as usize] -= 1;
                if in_degree[consumer as usize] == 0 {
                    order.push(NodeId(consumer));
                }
            }
        }

        let mut foldable = vec![false; slots];
        if order.len() != live {
            return Self { live, order: None, foldable, hash: OnceLock::new() };
        }
        for &id in &order {
            let node = nodes[id.index()].as_deref().expect("the order holds live nodes");
            foldable[id.index()] = match node.op {
                OpKind::Input => false,
                OpKind::Weight | OpKind::Constant => true,
                _ => node.inputs.iter().all(|r| foldable[r.node.index()]),
            };
        }
        Self { live, order: Some(order), foldable, hash: OnceLock::new() }
    }
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a graph input (activation source) with the given shape.
    pub fn add_input(&mut self, shape: TensorShape) -> NodeId {
        self.push_source(OpKind::Input, shape)
    }

    /// Adds a trainable weight source with the given shape.
    pub fn add_weight(&mut self, shape: TensorShape) -> NodeId {
        self.push_source(OpKind::Weight, shape)
    }

    /// Adds a constant source with the given shape.
    pub fn add_constant(&mut self, shape: TensorShape) -> NodeId {
        self.push_source(OpKind::Constant, shape)
    }

    fn push_source(&mut self, op: OpKind, shape: TensorShape) -> NodeId {
        self.push_node(Node {
            op,
            attrs: OpAttributes::default(),
            inputs: Vec::new(),
            outputs: vec![shape],
            name: None,
        })
    }

    /// The node slots and the outputs, for writing — the one way a `&mut
    /// self` method reaches either, because it is what forgets the memoised
    /// [`StructureIndex`].
    fn parts_mut(&mut self) -> (&mut Vec<Option<Arc<Node>>>, &mut Vec<TensorRef>) {
        self.index.take();
        (&mut self.nodes, &mut self.outputs)
    }

    fn push_node(&mut self, node: Node) -> NodeId {
        let (nodes, _) = self.parts_mut();
        nodes.push(Some(Arc::new(node)));
        NodeId((nodes.len() - 1) as u32)
    }

    fn index(&self) -> &StructureIndex {
        self.index.get_or_init(|| Arc::new(StructureIndex::build(&self.nodes)))
    }

    /// Adds an operator node, running shape inference on its inputs.
    ///
    /// # Errors
    ///
    /// Returns an error if any input reference is invalid or shape inference
    /// fails.
    pub fn add_node(
        &mut self,
        op: OpKind,
        attrs: OpAttributes,
        inputs: Vec<TensorRef>,
    ) -> Result<NodeId, GraphError> {
        self.add_inferred(op, attrs, inputs, None)
    }

    fn add_inferred(
        &mut self,
        op: OpKind,
        attrs: OpAttributes,
        inputs: Vec<TensorRef>,
        name: Option<String>,
    ) -> Result<NodeId, GraphError> {
        let mut in_shapes = Vec::with_capacity(inputs.len());
        for r in &inputs {
            in_shapes.push(self.tensor_shape(*r)?.clone());
        }
        let outputs = infer_output_shapes(op, &attrs, &in_shapes)?;
        Ok(self.push_node(Node { op, attrs, inputs, outputs, name }))
    }

    /// Adds an operator node with a human-readable name.
    ///
    /// # Errors
    ///
    /// Same as [`Graph::add_node`].
    pub fn add_named_node(
        &mut self,
        name: &str,
        op: OpKind,
        attrs: OpAttributes,
        inputs: Vec<TensorRef>,
    ) -> Result<NodeId, GraphError> {
        self.add_inferred(op, attrs, inputs, Some(name.to_string()))
    }

    /// Marks a tensor as a graph output.
    pub fn mark_output(&mut self, r: TensorRef) {
        if !self.outputs.contains(&r) {
            self.parts_mut().1.push(r);
        }
    }

    /// Marks a tensor as a graph output after checking that it resolves —
    /// the fallible variant for references from untrusted input.
    ///
    /// # Errors
    ///
    /// Returns an error when the node or port does not exist.
    pub fn try_mark_output(&mut self, r: TensorRef) -> Result<(), GraphError> {
        self.tensor_shape(r)?;
        self.mark_output(r);
        Ok(())
    }

    /// Assembles a graph directly from node storage and output references —
    /// used by the JSON importer, which validates the result afterwards.
    pub(crate) fn from_raw_parts(nodes: Vec<Option<Node>>, outputs: Vec<TensorRef>) -> Self {
        let nodes = nodes.into_iter().map(|node| node.map(Arc::new)).collect();
        Self { nodes, outputs, index: OnceLock::new() }
    }

    /// The graph outputs.
    pub fn outputs(&self) -> &[TensorRef] {
        &self.outputs
    }

    /// Looks up a node.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidNode`] if the node does not exist.
    pub fn node(&self, id: NodeId) -> Result<&Node, GraphError> {
        self.nodes.get(id.index()).and_then(|n| n.as_deref()).ok_or(GraphError::InvalidNode(id))
    }

    /// Returns the shape of a tensor reference.
    ///
    /// # Errors
    ///
    /// Returns an error when the node or port is invalid.
    pub fn tensor_shape(&self, r: TensorRef) -> Result<&TensorShape, GraphError> {
        let node = self.node(r.node)?;
        node.outputs.get(r.port).ok_or(GraphError::InvalidPort(r))
    }

    /// Iterates over `(NodeId, &Node)` pairs of live nodes.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes.iter().enumerate().filter_map(|(i, n)| n.as_deref().map(|n| (NodeId(i as u32), n)))
    }

    /// Number of live nodes.
    pub fn num_nodes(&self) -> usize {
        self.index().live
    }

    /// One past the largest [`NodeId::index`] this graph has ever assigned —
    /// the length of a vector holding one entry per node id.
    pub fn id_bound(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges (total input references of live nodes).
    pub fn num_edges(&self) -> usize {
        self.iter().map(|(_, n)| n.inputs.len()).sum()
    }

    /// Number of live nodes of a given operator kind.
    pub fn count_op(&self, op: OpKind) -> usize {
        self.iter().filter(|(_, n)| n.op == op).count()
    }

    /// Returns `(consumer, input_slot)` pairs for every use of the given node.
    pub fn consumers(&self, id: NodeId) -> Vec<(NodeId, usize)> {
        let mut out = Vec::new();
        for (cid, node) in self.iter() {
            for (slot, r) in node.inputs.iter().enumerate() {
                if r.node == id {
                    out.push((cid, slot));
                }
            }
        }
        out
    }

    /// Returns a topological ordering of live nodes.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Cycle`] if the graph is cyclic.
    pub fn topo_order(&self) -> Result<Vec<NodeId>, GraphError> {
        self.index().order.clone().ok_or(GraphError::Cycle)
    }

    /// Validates the whole graph: all references resolve, shapes agree with
    /// shape inference, and the graph is acyclic.
    ///
    /// # Errors
    ///
    /// Returns the first structural or shape error found.
    pub fn validate(&self) -> Result<(), GraphError> {
        for (_, node) in self.iter() {
            if node.op.is_source() {
                continue;
            }
            let mut in_shapes = Vec::with_capacity(node.inputs.len());
            for r in &node.inputs {
                in_shapes.push(self.tensor_shape(*r)?.clone());
            }
            let inferred = infer_output_shapes(node.op, &node.attrs, &in_shapes)?;
            if inferred != node.outputs {
                return Err(GraphError::Shape {
                    op: node.op,
                    message: format!(
                        "stored outputs {:?} disagree with inferred {:?}",
                        node.outputs, inferred
                    ),
                });
            }
        }
        for r in &self.outputs {
            self.tensor_shape(*r)?;
        }
        match self.index().order {
            Some(_) => Ok(()),
            None => Err(GraphError::Cycle),
        }
    }

    /// Rewires every consumer of `from` (and graph outputs) to read `to`
    /// instead.
    ///
    /// # Errors
    ///
    /// Returns an error if `to` is invalid or the shapes of `from` and `to`
    /// differ (rewiring would corrupt downstream shapes).
    pub fn replace_all_uses(&mut self, from: TensorRef, to: TensorRef) -> Result<(), GraphError> {
        let from_shape = self.tensor_shape(from)?;
        let to_shape = self.tensor_shape(to)?;
        if from_shape != to_shape {
            let message = format!("cannot replace tensor of shape {from_shape} with {to_shape}");
            return Err(GraphError::Shape { op: self.node(to.node)?.op, message });
        }
        let (nodes, outputs) = self.parts_mut();
        // Copy-on-write: only a node that reads `from` is made this graph's
        // own; every other slot keeps sharing its node.
        for node in nodes.iter_mut().flatten().filter(|node| node.inputs.contains(&from)) {
            for r in &mut Arc::make_mut(node).inputs {
                if *r == from {
                    *r = to;
                }
            }
        }
        for r in outputs {
            if *r == from {
                *r = to;
            }
        }
        Ok(())
    }

    /// [`Graph::apply_patch`]'s work, done on `self`. **On error the graph
    /// is left partially modified** (spliced nodes and already-applied
    /// rewires are not rolled back) and must be discarded.
    fn apply_patch_in_place(&mut self, patch: &crate::GraphPatch) -> Result<(), GraphError> {
        let mut new_ids: Vec<NodeId> = Vec::with_capacity(patch.added.len());
        for pn in &patch.added {
            let mut inputs = Vec::with_capacity(pn.inputs.len());
            for r in &pn.inputs {
                let resolved = r.resolve(&new_ids)?;
                // The producing tensor must exist in this graph.
                self.tensor_shape(resolved)?;
                inputs.push(resolved);
            }
            new_ids.push(self.push_node(Node {
                op: pn.op,
                attrs: pn.attrs.clone(),
                inputs,
                outputs: pn.outputs.clone(),
                name: None,
            }));
        }
        for (from, to) in &patch.rewires {
            let to = to.resolve(&new_ids)?;
            self.replace_all_uses(*from, to)?;
        }
        self.eliminate_dead_nodes();
        Ok(())
    }

    /// Applies a [`crate::GraphPatch`], returning the transformed graph and
    /// leaving `self` untouched: splices the patch's added nodes (reusing
    /// their pre-inferred output shapes — no shape inference is re-run),
    /// performs the recorded consumer rewires in order, then eliminates nodes
    /// the rewires made unreachable.
    ///
    /// The patch must have been built (via [`crate::PatchBuilder`]) against a
    /// graph structurally identical to `self`.
    ///
    /// # Errors
    ///
    /// Returns an error when a patch reference does not resolve against this
    /// graph or a rewire is shape-incompatible — both indicate the patch was
    /// built against a different base graph.
    pub fn apply_patch(&self, patch: &crate::GraphPatch) -> Result<Graph, GraphError> {
        // One pointer per node, with room for the patch's own; the index is
        // the result's to build.
        let mut nodes = Vec::with_capacity(self.nodes.len() + patch.added.len());
        nodes.extend_from_slice(&self.nodes);
        let mut out = Graph { nodes, outputs: self.outputs.clone(), index: OnceLock::new() };
        out.apply_patch_in_place(patch)?;
        Ok(out)
    }

    /// Removes every node that is not reachable (backwards) from a graph
    /// output. Returns the number of nodes removed.
    pub fn eliminate_dead_nodes(&mut self) -> usize {
        let mut live = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = Vec::with_capacity(self.nodes.len());
        stack.extend(self.outputs.iter().map(|r| r.node));
        while let Some(id) = stack.pop() {
            let Some(Some(node)) = self.nodes.get(id.index()) else { continue };
            if std::mem::replace(&mut live[id.index()], true) {
                continue;
            }
            stack.extend(node.inputs.iter().map(|r| r.node));
        }
        let mut removed = 0;
        for (slot, live) in self.parts_mut().0.iter_mut().zip(live) {
            if slot.is_some() && !live {
                *slot = None;
                removed += 1;
            }
        }
        removed
    }

    /// Returns the set of nodes whose outputs do not depend on any `Input`
    /// node — these can be pre-computed before inference (constant folding),
    /// which the end-to-end latency simulator exploits but the per-operator
    /// cost model does not (reproducing the paper's ViT observation). Empty
    /// for a cyclic graph. Hot paths ask [`Graph::is_foldable`] per node
    /// instead of building the set.
    pub fn foldable_nodes(&self) -> HashSet<NodeId> {
        self.iter().map(|(id, _)| id).filter(|&id| self.is_foldable(id)).collect()
    }

    /// Whether `id` is a live node of [`Graph::foldable_nodes`] — answered
    /// from the memoised structure index.
    pub fn is_foldable(&self, id: NodeId) -> bool {
        self.index().foldable.get(id.index()).is_some_and(|&foldable| foldable)
    }

    /// A canonical structural hash of the graph: two graphs that are equal
    /// up to node-id renumbering hash to the same value (`0` for a cyclic
    /// graph). Used to deduplicate rewrite candidates and to key the
    /// measurement memo and the serving cache. Computed once per graph and
    /// shared with its clones.
    pub fn canonical_hash(&self) -> u64 {
        let index = self.index();
        *index.hash.get_or_init(|| index.order.as_deref().map_or(0, |order| self.hash_in(order)))
    }

    /// The hash of the graph renumbered in `order`. The byte stream fed to
    /// the hasher is part of the persisted-cache and golden-bits contract.
    fn hash_in(&self, order: &[NodeId]) -> u64 {
        let mut renumber = vec![0usize; self.nodes.len()];
        for (position, id) in order.iter().enumerate() {
            renumber[id.index()] = position;
        }
        let mut hasher = DefaultHasher::new();
        for id in order {
            let node = self.node(*id).expect("topo order only contains live nodes");
            node.op.hash(&mut hasher);
            node.attrs.hash(&mut hasher);
            for r in &node.inputs {
                renumber[r.node.index()].hash(&mut hasher);
                r.port.hash(&mut hasher);
            }
            for s in &node.outputs {
                s.hash(&mut hasher);
            }
        }
        let mut outs: Vec<(usize, usize)> =
            self.outputs.iter().map(|r| (renumber[r.node.index()], r.port)).collect();
        outs.sort_unstable();
        outs.hash(&mut hasher);
        hasher.finish()
    }

    /// Compacts node storage, renumbering all node ids. Returns the mapping
    /// from old to new ids.
    pub fn compact(&mut self) -> HashMap<NodeId, NodeId> {
        let mut mapping = HashMap::new();
        let (nodes, outputs) = self.parts_mut();
        let live = std::mem::take(nodes).into_iter().enumerate().filter_map(|(i, node)| Some((i, node?)));
        for (i, node) in live {
            mapping.insert(NodeId(i as u32), NodeId(nodes.len() as u32));
            nodes.push(Some(node));
        }
        let moved = |r: &TensorRef| mapping[&r.node] != r.node;
        for node in nodes.iter_mut().flatten().filter(|node| node.inputs.iter().any(moved)) {
            for r in &mut Arc::make_mut(node).inputs {
                r.node = mapping[&r.node];
            }
        }
        for r in outputs {
            r.node = mapping[&r.node];
        }
        mapping
    }
}

/// The map-based passes the structure index replaced, word for word: the
/// oracle the index's tests compare against.
#[cfg(test)]
mod reference {
    use super::*;
    use std::collections::VecDeque;

    pub(super) fn topo_order(g: &Graph) -> Result<Vec<NodeId>, GraphError> {
        let mut in_degree: HashMap<NodeId, usize> = HashMap::new();
        let mut dependents: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        for (id, node) in g.iter() {
            let unique_deps: HashSet<NodeId> = node.inputs.iter().map(|r| r.node).collect();
            in_degree.insert(id, unique_deps.len());
            for dep in unique_deps {
                dependents.entry(dep).or_default().push(id);
            }
        }
        let mut queue_vec: Vec<NodeId> =
            in_degree.iter().filter(|(_, &d)| d == 0).map(|(&id, _)| id).collect();
        queue_vec.sort();
        let mut queue: VecDeque<NodeId> = queue_vec.into();
        let mut sorted: Vec<NodeId> = Vec::with_capacity(in_degree.len());
        while let Some(id) = queue.pop_front() {
            sorted.push(id);
            if let Some(deps) = dependents.get(&id) {
                for &d in deps {
                    let e = in_degree.get_mut(&d).expect("dependent must have an in-degree");
                    *e -= 1;
                    if *e == 0 {
                        queue.push_back(d);
                    }
                }
            }
        }
        if sorted.len() != g.iter().count() {
            return Err(GraphError::Cycle);
        }
        Ok(sorted)
    }

    pub(super) fn foldable_nodes(g: &Graph) -> HashSet<NodeId> {
        let Ok(order) = topo_order(g) else { return HashSet::new() };
        let mut foldable: HashSet<NodeId> = HashSet::new();
        for id in order {
            let Ok(node) = g.node(id) else { continue };
            let is_foldable = match node.op {
                OpKind::Input => false,
                OpKind::Weight | OpKind::Constant => true,
                _ => node.inputs.iter().all(|r| foldable.contains(&r.node)),
            };
            if is_foldable {
                foldable.insert(id);
            }
        }
        foldable
    }

    pub(super) fn canonical_hash(g: &Graph) -> u64 {
        let Ok(order) = topo_order(g) else { return 0 };
        let renumber: HashMap<NodeId, usize> = order.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        let mut hasher = DefaultHasher::new();
        for id in &order {
            let node = g.node(*id).expect("topo order only contains live nodes");
            node.op.hash(&mut hasher);
            node.attrs.hash(&mut hasher);
            for r in &node.inputs {
                renumber[&r.node].hash(&mut hasher);
                r.port.hash(&mut hasher);
            }
            for s in &node.outputs {
                s.hash(&mut hasher);
            }
        }
        let mut outs: Vec<(usize, usize)> = g.outputs().iter().map(|r| (renumber[&r.node], r.port)).collect();
        outs.sort_unstable();
        outs.hash(&mut hasher);
        hasher.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{build_model, ModelKind, ModelScale};
    use crate::op::Padding;
    use crate::patch::PatchBuilder;

    fn shape(d: &[usize]) -> TensorShape {
        TensorShape::new(d.to_vec())
    }

    fn small_mlp() -> (Graph, NodeId) {
        let mut g = Graph::new();
        let x = g.add_input(shape(&[1, 64]));
        let w1 = g.add_weight(shape(&[64, 128]));
        let w2 = g.add_weight(shape(&[128, 10]));
        let h = g.add_node(OpKind::MatMul, OpAttributes::default(), vec![x.into(), w1.into()]).unwrap();
        let r = g.add_node(OpKind::Relu, OpAttributes::default(), vec![h.into()]).unwrap();
        let y = g.add_node(OpKind::MatMul, OpAttributes::default(), vec![r.into(), w2.into()]).unwrap();
        g.mark_output(y.into());
        (g, y)
    }

    #[test]
    fn build_and_validate_mlp() {
        let (g, y) = small_mlp();
        assert_eq!(g.num_nodes(), 6);
        assert_eq!(g.num_edges(), 5);
        assert!(g.validate().is_ok());
        assert_eq!(g.tensor_shape(y.into()).unwrap().dims(), &[1, 10]);
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let (g, _) = small_mlp();
        let order = g.topo_order().unwrap();
        let pos: HashMap<NodeId, usize> = order.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        for (id, node) in g.iter() {
            for r in &node.inputs {
                assert!(pos[&r.node] < pos[&id], "input must precede consumer");
            }
        }
    }

    #[test]
    fn consumers_found() {
        let (g, _) = small_mlp();
        let x = NodeId(0);
        let consumers = g.consumers(x);
        assert_eq!(consumers.len(), 1);
        assert_eq!(g.node(consumers[0].0).unwrap().op, OpKind::MatMul);
    }

    #[test]
    fn replace_uses_and_dead_code_elimination() {
        let mut g = Graph::new();
        let x = g.add_input(shape(&[1, 8]));
        let id1 = g.add_node(OpKind::Identity, OpAttributes::default(), vec![x.into()]).unwrap();
        let relu = g.add_node(OpKind::Relu, OpAttributes::default(), vec![id1.into()]).unwrap();
        g.mark_output(relu.into());

        // Bypass the Identity node.
        g.replace_all_uses(id1.into(), x.into()).unwrap();
        assert_eq!(g.consumers(id1).len(), 0);
        let removed = g.eliminate_dead_nodes();
        assert_eq!(removed, 1);
        assert_eq!(g.num_nodes(), 2);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn replace_uses_rejects_shape_mismatch() {
        let mut g = Graph::new();
        let a = g.add_input(shape(&[1, 8]));
        let b = g.add_input(shape(&[1, 16]));
        let r = g.add_node(OpKind::Relu, OpAttributes::default(), vec![a.into()]).unwrap();
        g.mark_output(r.into());
        assert!(g.replace_all_uses(a.into(), b.into()).is_err());
    }

    #[test]
    fn canonical_hash_invariant_to_insertion_order() {
        let (g1, _) = small_mlp();
        // Build the same network with sources created in a different order.
        let mut g2 = Graph::new();
        let w2 = g2.add_weight(shape(&[128, 10]));
        let w1 = g2.add_weight(shape(&[64, 128]));
        let x = g2.add_input(shape(&[1, 64]));
        let h = g2.add_node(OpKind::MatMul, OpAttributes::default(), vec![x.into(), w1.into()]).unwrap();
        let r = g2.add_node(OpKind::Relu, OpAttributes::default(), vec![h.into()]).unwrap();
        let y = g2.add_node(OpKind::MatMul, OpAttributes::default(), vec![r.into(), w2.into()]).unwrap();
        g2.mark_output(y.into());
        // Hashes may legitimately differ here because the topological order
        // of sources differs; compacting both and comparing the structural
        // dump is the stable check.
        assert_eq!(g1.num_nodes(), g2.num_nodes());
        assert_eq!(g1.num_edges(), g2.num_edges());
        // A graph is always equal to its own clone.
        assert_eq!(g1.canonical_hash(), g1.clone().canonical_hash());
    }

    #[test]
    fn canonical_hash_differs_for_different_graphs() {
        let (g1, _) = small_mlp();
        let mut g2 = g1.clone();
        let last = g2.outputs()[0];
        let relu = g2.add_node(OpKind::Relu, OpAttributes::default(), vec![last]).unwrap();
        g2.parts_mut().1.clear();
        g2.mark_output(relu.into());
        assert_ne!(g1.canonical_hash(), g2.canonical_hash());
    }

    #[test]
    fn foldable_nodes_exclude_input_dependent() {
        let mut g = Graph::new();
        let x = g.add_input(shape(&[1, 4]));
        let w = g.add_weight(shape(&[4, 4]));
        let w2 = g.add_weight(shape(&[4, 4]));
        // w * w2 is foldable, x * w is not.
        let fold = g.add_node(OpKind::MatMul, OpAttributes::default(), vec![w.into(), w2.into()]).unwrap();
        let live = g.add_node(OpKind::MatMul, OpAttributes::default(), vec![x.into(), fold.into()]).unwrap();
        g.mark_output(live.into());
        let foldable = g.foldable_nodes();
        assert!(foldable.contains(&fold));
        assert!(foldable.contains(&w));
        assert!(!foldable.contains(&live));
        assert!(!foldable.contains(&x));
    }

    #[test]
    fn compact_renumbers_and_preserves_structure() {
        let mut g = Graph::new();
        let x = g.add_input(shape(&[1, 8]));
        let dead = g.add_input(shape(&[1, 8]));
        let r = g.add_node(OpKind::Relu, OpAttributes::default(), vec![x.into()]).unwrap();
        g.mark_output(r.into());
        let _ = dead;
        g.eliminate_dead_nodes();
        let hash_before = g.canonical_hash();
        let mapping = g.compact();
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(mapping.len(), 2);
        assert!(g.validate().is_ok());
        assert_eq!(g.canonical_hash(), hash_before);
    }

    #[test]
    fn conv_graph_with_pooling_validates() {
        let mut g = Graph::new();
        let x = g.add_input(shape(&[1, 3, 32, 32]));
        let w = g.add_weight(shape(&[16, 3, 3, 3]));
        let conv = g
            .add_node(
                OpKind::Conv2d,
                OpAttributes::conv2d([3, 3], [1, 1], Padding::Same, 1),
                vec![x.into(), w.into()],
            )
            .unwrap();
        let relu = g.add_node(OpKind::Relu, OpAttributes::default(), vec![conv.into()]).unwrap();
        let pool = g
            .add_node(
                OpKind::MaxPool2d,
                OpAttributes::pool([2, 2], [2, 2], Padding::Valid),
                vec![relu.into()],
            )
            .unwrap();
        g.mark_output(pool.into());
        assert!(g.validate().is_ok());
        assert_eq!(g.tensor_shape(pool.into()).unwrap().dims(), &[1, 16, 16, 16]);
    }

    #[test]
    fn split_has_multiple_ports() {
        let mut g = Graph::new();
        let x = g.add_input(shape(&[1, 8, 4, 4]));
        let split = g.add_node(OpKind::Split, OpAttributes::split(1, 2), vec![x.into()]).unwrap();
        let a =
            g.add_node(OpKind::Relu, OpAttributes::default(), vec![TensorRef::with_port(split, 0)]).unwrap();
        let b =
            g.add_node(OpKind::Relu, OpAttributes::default(), vec![TensorRef::with_port(split, 1)]).unwrap();
        g.mark_output(a.into());
        g.mark_output(b.into());
        assert!(g.validate().is_ok());
        assert_eq!(g.tensor_shape(TensorRef::with_port(split, 1)).unwrap().dims(), &[1, 4, 4, 4]);
        // Port 2 does not exist.
        assert!(g.tensor_shape(TensorRef::with_port(split, 2)).is_err());
    }

    #[test]
    fn named_nodes() {
        let mut g = Graph::new();
        let x = g.add_input(shape(&[1, 4]));
        let id =
            g.add_named_node("layer0.relu", OpKind::Relu, OpAttributes::default(), vec![x.into()]).unwrap();
        assert_eq!(g.node(id).unwrap().name.as_deref(), Some("layer0.relu"));
    }

    /// The default zoo graphs with their canonical hashes as recorded on the
    /// parent commit (map-based sort, deep-cloned nodes): cache keys,
    /// persisted cache snapshots and every simulated latency's noise draw
    /// hang on these values.
    const ZOO: [(ModelKind, u64); 8] = [
        (ModelKind::InceptionV3, 0x144586816972AF0C),
        (ModelKind::SqueezeNet, 0xCCCB5AC5E57D7FD5),
        (ModelKind::ResNext50, 0x17A51D4A2B84510A),
        (ModelKind::ResNet18, 0x741BA0524E65493F),
        (ModelKind::Bert, 0xD221C5445AA6AD16),
        (ModelKind::DallE, 0xC2C6D6A70A47772F),
        (ModelKind::TransformerTransducer, 0x14E0D84F9E3898C7),
        (ModelKind::Vit, 0xA3284EA006B8C580),
    ];

    /// Everything the structure index answers, against the map-based oracle.
    fn assert_index_matches_reference(g: &Graph, context: &str) {
        assert_eq!(g.topo_order(), reference::topo_order(g), "{context}: topo_order");
        assert_eq!(g.canonical_hash(), reference::canonical_hash(g), "{context}: canonical_hash");
        let foldable = reference::foldable_nodes(g);
        assert_eq!(g.foldable_nodes(), foldable, "{context}: foldable_nodes");
        for id in (0..g.id_bound() + 2).map(|i| NodeId(i as u32)) {
            assert_eq!(g.is_foldable(id), foldable.contains(&id), "{context}: is_foldable({id:?})");
        }
        assert_eq!(g.num_nodes(), g.iter().count(), "{context}: num_nodes");
        assert_eq!(g.validate().is_err(), reference::topo_order(g).is_err(), "{context}: validate");
    }

    /// Hand-built rewrites of `g` that leave removed slots behind: every
    /// shape-preserving unary node bypassed, and replaced by an added node.
    fn unary_rewrites(g: &Graph) -> Vec<crate::GraphPatch> {
        let mut patches = Vec::new();
        for (id, node) in g.iter() {
            if !matches!(
                node.op,
                OpKind::Identity | OpKind::Relu | OpKind::Tanh | OpKind::Sigmoid | OpKind::Gelu
            ) {
                continue;
            }
            let mut bypass = PatchBuilder::new(g);
            bypass.replace_all_uses(id.into(), node.inputs[0]).unwrap();
            patches.push(bypass.finish());
            let mut replace = PatchBuilder::new(g);
            let other = if node.op == OpKind::Gelu { OpKind::Tanh } else { OpKind::Gelu };
            let added =
                replace.add_node(other, OpAttributes::default(), vec![node.inputs[0].into()]).unwrap();
            replace.replace_all_uses(id.into(), added).unwrap();
            patches.push(replace.finish());
        }
        patches
    }

    #[test]
    fn zoo_canonical_hashes_are_the_parents() {
        for (kind, recorded) in ZOO {
            let g = build_model(kind, ModelScale::Bench).unwrap();
            assert_eq!(g.canonical_hash(), recorded, "{kind}: {:#018X}", g.canonical_hash());
        }
    }

    #[test]
    fn structure_index_matches_the_map_based_passes_over_the_zoo_and_its_rewrites() {
        let mut rewrites = 0;
        for (kind, _) in ZOO {
            let g = build_model(kind, ModelScale::Bench).unwrap();
            assert_index_matches_reference(&g, kind.name());
            // One rewrite deep, then a chain of them so holes pile up.
            let patches = unary_rewrites(&g);
            for (i, patch) in patches.iter().enumerate() {
                let out = g.apply_patch(patch).unwrap();
                assert_index_matches_reference(&out, &format!("{kind}, rewrite {i}"));
                rewrites += 1;
            }
            let mut chained = g.clone();
            for step in 0..6 {
                let Some(patch) = unary_rewrites(&chained).into_iter().nth(step) else { break };
                chained = chained.apply_patch(&patch).unwrap();
                assert!(chained.id_bound() > chained.num_nodes(), "{kind}: the chain leaves removed slots");
                assert_index_matches_reference(&chained, &format!("{kind}, chain step {step}"));
            }
        }
        assert!(rewrites > 100, "the zoo must offer unary nodes to rewrite, got {rewrites}");
    }

    fn raw_node(op: OpKind, inputs: &[u32]) -> Option<Node> {
        Some(Node {
            op,
            attrs: OpAttributes::default(),
            inputs: inputs.iter().map(|&i| TensorRef::new(NodeId(i))).collect(),
            outputs: vec![shape(&[1, 4])],
            name: None,
        })
    }

    #[test]
    fn cyclic_and_dangling_raw_graphs_have_no_order_hash_zero_and_nothing_foldable() {
        let cases = [
            (
                "two-node cycle",
                vec![
                    raw_node(OpKind::Weight, &[]),
                    raw_node(OpKind::Add, &[0, 2]),
                    raw_node(OpKind::Relu, &[1]),
                ],
            ),
            ("self loop", vec![raw_node(OpKind::Weight, &[]), raw_node(OpKind::Add, &[0, 1])]),
            (
                "reference to a removed slot",
                vec![raw_node(OpKind::Weight, &[]), None, raw_node(OpKind::Add, &[0, 1])],
            ),
            (
                "reference past the last slot",
                vec![raw_node(OpKind::Weight, &[]), raw_node(OpKind::Add, &[0, 7])],
            ),
        ];
        for (name, nodes) in cases {
            let last = NodeId(nodes.len() as u32 - 1);
            let g = Graph::from_raw_parts(nodes, vec![TensorRef::new(last)]);
            assert_eq!(g.topo_order(), Err(GraphError::Cycle), "{name}");
            assert_eq!(g.canonical_hash(), 0, "{name}");
            assert!(g.foldable_nodes().is_empty(), "{name}");
            assert!(!g.is_foldable(NodeId(0)), "{name}: not even the weight");
            assert!(g.validate().is_err(), "{name}");
            assert_index_matches_reference(&g, name);
        }
        // The same nodes wired forwards are fine — and repeated producers
        // count once towards the in-degree.
        let g = Graph::from_raw_parts(
            vec![
                raw_node(OpKind::Weight, &[]),
                None,
                raw_node(OpKind::Add, &[0, 0]),
                raw_node(OpKind::Add, &[2, 0]),
            ],
            vec![TensorRef::new(NodeId(3))],
        );
        assert_eq!(g.topo_order(), Ok(vec![NodeId(0), NodeId(2), NodeId(3)]));
        assert_eq!(g.foldable_nodes().len(), 3);
        assert_index_matches_reference(&g, "forward raw graph");
    }

    /// The same slots and outputs in a graph that has memoised nothing.
    fn rebuilt(g: &Graph) -> Graph {
        let nodes = (0..g.id_bound()).map(|i| g.node(NodeId(i as u32)).ok().cloned()).collect();
        Graph::from_raw_parts(nodes, g.outputs().to_vec())
    }

    #[test]
    fn every_mutation_forgets_the_memoised_index() {
        // (name, set-up run before anything is memoised, the mutation).
        type Mutation = (&'static str, fn(&mut Graph), fn(&mut Graph));
        let nothing: fn(&mut Graph) = |_| {};
        let spare_weight: fn(&mut Graph) = |g| {
            g.add_weight(shape(&[2, 2]));
        };
        let mutations: [Mutation; 11] = [
            ("add_input", nothing, |g| {
                g.add_input(shape(&[1, 4]));
            }),
            ("add_weight", nothing, |g| {
                g.add_weight(shape(&[1, 4]));
            }),
            ("add_constant", nothing, |g| {
                g.add_constant(shape(&[1, 4]));
            }),
            ("add_node", nothing, |g| {
                let out = g.outputs()[0];
                g.add_node(OpKind::Tanh, OpAttributes::default(), vec![out]).unwrap();
            }),
            ("add_named_node", nothing, |g| {
                let out = g.outputs()[0];
                g.add_named_node("tail", OpKind::Tanh, OpAttributes::default(), vec![out]).unwrap();
            }),
            ("mark_output", nothing, |g| g.mark_output(NodeId(3).into())),
            ("try_mark_output", nothing, |g| g.try_mark_output(NodeId(4).into()).unwrap()),
            ("replace_all_uses", nothing, |g| {
                g.replace_all_uses(NodeId(4).into(), NodeId(3).into()).unwrap()
            }),
            ("apply_patch_in_place", nothing, |g| {
                let mut b = PatchBuilder::new(g);
                b.replace_all_uses(NodeId(4).into(), NodeId(3)).unwrap();
                let patch = b.finish();
                g.apply_patch_in_place(&patch).unwrap();
            }),
            ("eliminate_dead_nodes", spare_weight, |g| assert_eq!(g.eliminate_dead_nodes(), 1)),
            (
                "compact",
                |g| {
                    g.replace_all_uses(NodeId(4).into(), NodeId(3).into()).unwrap();
                    g.eliminate_dead_nodes();
                },
                |g| {
                    g.compact();
                },
            ),
        ];
        for (name, prepare, mutate) in mutations {
            // x, w1, w2, matmul(3), relu(4), matmul(5): the relu keeps its
            // input's shape, so it can be bypassed.
            let (mut g, _) = small_mlp();
            prepare(&mut g);
            let before = (g.canonical_hash(), g.topo_order(), g.num_nodes(), g.foldable_nodes());
            let shared = g.clone();
            mutate(&mut g);
            let fresh = rebuilt(&g);
            assert_eq!(g.canonical_hash(), fresh.canonical_hash(), "{name}: canonical_hash");
            assert_eq!(g.topo_order(), fresh.topo_order(), "{name}: topo_order");
            assert_eq!(g.num_nodes(), fresh.num_nodes(), "{name}: num_nodes");
            assert_eq!(g.foldable_nodes(), fresh.foldable_nodes(), "{name}: foldable_nodes");
            assert_index_matches_reference(&g, name);
            let after = (g.canonical_hash(), g.topo_order(), g.num_nodes(), g.foldable_nodes());
            assert_ne!(before, after, "{name}: the mutation must be visible");
            // A clone taken before the mutation keeps the answers it shared.
            let kept =
                (shared.canonical_hash(), shared.topo_order(), shared.num_nodes(), shared.foldable_nodes());
            assert_eq!(kept, before, "{name}: a clone is not mutated");
        }
    }

    #[test]
    fn a_clone_shares_the_memoised_hash() {
        let g = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
        let clone = g.clone();
        g.num_nodes();
        let twin = g.clone();
        assert!(clone.index.get().is_none(), "cloned before anything was asked");
        let index = Arc::clone(twin.index.get().expect("cloned after the index was built"));
        assert!(index.hash.get().is_none());
        g.canonical_hash();
        assert_eq!(index.hash.get(), Some(&g.canonical_hash()), "one index, hashed once for both");
        assert_eq!(clone.canonical_hash(), g.canonical_hash());
    }

    #[test]
    fn apply_patch_shares_every_node_it_does_not_rewire_and_leaves_the_base_untouched() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Graph>();

        let base = build_model(ModelKind::InceptionV3, ModelScale::Bench).unwrap();
        let witness = (base.to_json(), base.canonical_hash());
        let slots: Vec<_> = base.nodes.iter().map(|n| n.as_ref().map(Arc::as_ptr)).collect();
        let mut rewired_total = 0;
        for patch in unary_rewrites(&base) {
            let out = base.apply_patch(&patch).unwrap();
            let froms: Vec<TensorRef> = patch.rewires().iter().map(|(from, _)| *from).collect();
            for (id, node) in base.iter() {
                let reads_a_rewired_tensor = node.inputs.iter().any(|r| froms.contains(r));
                match out.nodes[id.index()].as_ref() {
                    // Dead-node elimination took it.
                    None => {}
                    Some(theirs) if reads_a_rewired_tensor => {
                        assert!(
                            !std::ptr::eq(Arc::as_ptr(theirs), node),
                            "{id:?}: a rewired node is the result's own"
                        );
                        rewired_total += 1;
                    }
                    Some(theirs) => assert!(std::ptr::eq(Arc::as_ptr(theirs), node), "{id:?} must be shared"),
                }
            }
            assert!(out.validate().is_ok());
        }
        assert!(rewired_total > 0);
        assert_eq!((base.to_json(), base.canonical_hash()), witness, "the base graph changed");
        let after: Vec<_> = base.nodes.iter().map(|n| n.as_ref().map(Arc::as_ptr)).collect();
        assert_eq!(slots, after, "the base's slots moved");
        // With every result dropped the base is the sole owner again.
        assert!(base.nodes.iter().flatten().all(|n| Arc::strong_count(n) == 1));
    }
}
