//! Conversion of dataflow graphs into GNN inputs.
//!
//! Following the paper (Section 3.3.2): node attributes are a one-hot
//! encoding of the operator kind (~40 operators); edge attributes are the
//! tensor shape padded to rank 4 and normalised by the constant `M = 4096`
//! (Table 4); the global attribute is initialised to zero and updated by a
//! learnable layer.
//!
//! There is one featuriser, [`GraphFeatures::from_graph`], and it runs once
//! per observation. It stores exactly what the node update reads of a row —
//! the operator index (the hot bit of the one-hot) and the row's incoming
//! edge attributes already summed — plus the edge list the attention layers
//! read, the row ↔ node id map and a handle to the graph's own memoised
//! structure index ([`Graph::structure`]), which answers consumers and
//! reachability. No dense one-hot matrix and no per-edge attribute exists: a
//! pass hands the node update each row's attribute sum and op index, and the
//! update looks up the op's weight row. The row map and the graph's index
//! are what make a rewrite candidate cheap:
//!
//! * [`GraphFeatures::delta_from_base_and_patch`] turns a candidate's
//!   [`GraphPatch`] into a **sparse** [`CandidateDelta`] — the base rows that
//!   die, the surviving rows whose incoming sources change, and the live rows
//!   the patch adds — in time and memory proportional to the patch's
//!   footprint, never to the size of the graph. Dead-node elimination is
//!   replayed as a reference-count cascade started at the rewired tensors'
//!   producers, not as a whole-graph reachability.
//!   [`crate::GnnEncoder::encode_candidates`] consumes the sparse delta
//!   directly; no candidate graph and no dense per-candidate features exist
//!   on the policy path.
//! * `GraphFeatures::from_base_and_patch`, test-only at the end of this
//!   module, takes a sparse delta to whole candidate features through
//!   [`GraphFeatures::successor`] — the derivation a carried policy step
//!   makes for the chosen candidate. The differential tests compare it bit
//!   for bit, index included, with `from_graph(apply_patch(..))` for every
//!   rule and site.

use std::ops::Range;
use std::sync::Arc;

use xrlflow_graph::{Graph, GraphPatch, Node, NodeId, OpKind, PatchRef, StructureIndex, TensorShape};

/// The edge-attribute normalisation constant `M` from Table 4.
pub const EDGE_NORMALISER: f32 = 4096.0;

/// "No row" in [`GraphIndex::row_of_id`].
const NO_ROW: u32 = u32::MAX;

/// Width of a node-update input row: `[Σ edge attributes ‖ one-hot]`.
pub(crate) const NODE_INPUT_WIDTH: usize = 4 + OpKind::ALL.len();

/// A tensor shape as a normalised edge attribute (`padded4() / M`).
fn edge_attribute(shape: &TensorShape) -> [f32; 4] {
    shape.padded4().map(|v| v / EDGE_NORMALISER)
}

/// What the node update (Eq. 6) reads of one row: its operator index and
/// the sum of its edge block's normalised attributes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeInput {
    /// Operator index (the hot bit of the row's one-hot).
    pub(crate) op: u32,
    /// The row's edge attributes summed in block order — dataflow inputs in
    /// input order, then the self-loop — starting from `0.0`.
    pub(crate) incoming: [f32; 4],
}

/// Bit for bit: equal features must feed the encoder the same bits.
impl PartialEq for NodeInput {
    fn eq(&self, other: &Self) -> bool {
        self.op == other.op && self.incoming.map(f32::to_bits) == other.incoming.map(f32::to_bits)
    }
}

impl NodeInput {
    /// A row of operator `op` with no edge summed yet.
    fn new(op: OpKind) -> Self {
        Self { op: op.index() as u32, incoming: [0.0; 4] }
    }

    /// Adds the attribute of an edge carrying a `shape` tensor to the sum;
    /// called in block order.
    fn add_edge(&mut self, shape: &TensorShape) {
        for (acc, v) in self.incoming.iter_mut().zip(edge_attribute(shape)) {
            *acc += v;
        }
    }

    /// What the node-update layer reads of some inputs, in order — base
    /// rows and added rows alike — appended to `incoming` and `ops`: the
    /// summed incoming edge attributes (4 per row) and each row's operator
    /// index, the hot column of its one-hot, which
    /// [`xrlflow_tensor::Tape::matmul_lookup`] reads instead of a
    /// `[rows, NODE_INPUT_WIDTH]` `[incoming ‖ one-hot]` matrix.
    pub(crate) fn columns<'a>(
        inputs: impl IntoIterator<Item = &'a NodeInput>,
        incoming: &mut Vec<f32>,
        ops: &mut Vec<usize>,
    ) {
        for input in inputs {
            incoming.extend_from_slice(&input.incoming);
            ops.push(input.op as usize);
        }
    }
}

/// A dataflow graph converted to GNN inputs: per row what the node update
/// reads, and the edge list (dataflow edges plus one self-loop per node)
/// the attention layers pass messages along.
///
/// Two features are equal when every field is, the index included and the
/// attribute sums bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphFeatures {
    /// Per row, its operator index and summed incoming edge attributes.
    pub(crate) node_inputs: Vec<NodeInput>,
    /// Source node index of each edge (producer).
    pub edge_src: Vec<u32>,
    /// Number of nodes.
    pub num_nodes: usize,
    /// Start of each node row's contiguous edge block (its incoming dataflow
    /// edges in input order, then its self-loop); length `num_nodes + 1`.
    /// An edge's destination (consumer) is the row whose block holds it
    /// ([`GraphFeatures::edge_dsts`]).
    pub edge_offsets: Vec<u32>,
    /// The row map and the graph's structure index, which sparse candidate
    /// deltas are computed and consumed against. Filled by
    /// [`GraphFeatures::from_graph`] and [`GraphFeatures::successor`].
    index: GraphIndex,
}

/// What [`GraphFeatures::from_graph`] records about the graph's structure,
/// once per observation, so that per-candidate work can be proportional to
/// the candidate's patch: the row map, two `u32` per row or node id, and a
/// handle to the graph's own memoised [`StructureIndex`], which answers
/// consumers and reachability by node id.
#[derive(Debug, Clone, PartialEq)]
struct GraphIndex {
    /// Row → node id (ascending, the row order of the features).
    node_ids: Vec<NodeId>,
    /// `NodeId::index()` → row; [`NO_ROW`] for id holes left by dead-node
    /// elimination.
    row_of_id: Vec<u32>,
    /// The featurised graph's structure index, shared with the graph.
    structure: Arc<StructureIndex>,
}

impl GraphIndex {
    /// The rows `node_ids` of `graph`, over its structure index.
    fn new(graph: &Graph, node_ids: Vec<NodeId>) -> Self {
        let mut index = Self { node_ids, row_of_id: Vec::new(), structure: Arc::clone(graph.structure()) };
        index.map_rows();
        index
    }

    /// Fills `row_of_id` from `node_ids`.
    fn map_rows(&mut self) {
        self.row_of_id = vec![NO_ROW; self.node_ids.last().map_or(0, |id| id.index() + 1)];
        for (row, id) in self.node_ids.iter().enumerate() {
            self.row_of_id[id.index()] = row as u32;
        }
    }

    fn row_of(&self, id: NodeId) -> u32 {
        let row = self.row_of_id[id.index()];
        debug_assert_ne!(row, NO_ROW, "node id is not a row of the base features");
        row
    }

    /// The distinct rows consuming `row`, ascending.
    fn consumers(&self, row: u32) -> impl Iterator<Item = u32> + '_ {
        let consumers = self.structure.consumers_of(self.node_ids[row as usize]);
        consumers.iter().map(|&id| self.row_of_id[id.index()])
    }

    /// The rows no graph output reaches, ascending: `Graph::validate`
    /// accepts unreachable nodes, dead-node elimination removes them from
    /// every candidate.
    fn unreachable(&self) -> impl Iterator<Item = u32> + '_ {
        self.structure.unreachable().iter().map(|&id| self.row_of_id[id.index()])
    }

    fn is_reachable(&self, row: u32) -> bool {
        self.structure.unreachable().binary_search(&self.node_ids[row as usize]).is_err()
    }

    /// How many references keep `row` alive: input slots of reachable
    /// consumers plus graph outputs. Zero exactly for the rows no graph
    /// output reaches.
    fn uses(&self, graph: &Graph, row: u32) -> u32 {
        let id = self.node_ids[row as usize];
        let mut uses = graph.outputs().iter().filter(|output| output.node == id).count();
        for consumer in self.consumers(row).filter(|&consumer| self.is_reachable(consumer)) {
            uses += self.node(graph, consumer).inputs.iter().filter(|input| input.node == id).count();
        }
        uses as u32
    }

    fn node<'g>(&self, graph: &'g Graph, row: u32) -> &'g Node {
        graph.node(self.node_ids[row as usize]).expect("every row of the base features is a live base node")
    }
}

/// A node of a patched graph before materialisation: a row of the base
/// features or the `i`-th node added by the patch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PatchedNode {
    Base(u32),
    New(usize),
}

/// Applies the patch's consumer rewires, in recorded order, to a tensor
/// reference — exactly what `Graph::apply_patch` does to every input slot and
/// graph output when the candidate is materialised. Rewire sources are always
/// base tensors, so references to added nodes are never rewired further.
fn resolve_through_rewires(patch: &GraphPatch, mut r: PatchRef) -> PatchRef {
    for (from, to) in patch.rewires() {
        if r == PatchRef::Base(*from) {
            r = *to;
        }
    }
    r
}

/// Dead-node elimination of a patched graph, replayed as reference counting
/// against the base graph's use counts, each worked out when the replay first
/// touches its row.
///
/// The base is a DAG whose rows are alive exactly when their use count is
/// positive, so the patched graph's liveness follows from the references the
/// rewires move: every reference a rewired tensor loses is *gained* by the
/// tensor it now resolves to (which can bring an added node, or a base row
/// unreachable in the base, to life together with the references *it* holds)
/// and *lost* by its old producer (which dies when its count reaches zero and
/// releases its own references in turn). All gains are applied before any
/// loss, so no row dies transiently; the counts are exact once both have
/// run. Only the rows the cascade touches are ever looked at.
struct PatchLiveness<'a> {
    base: &'a Graph,
    index: &'a GraphIndex,
    patch: &'a GraphPatch,
    /// Reference count of each touched base row, sorted by row: its use
    /// count in the base plus the net change.
    base_uses: Vec<(u32, i64)>,
    /// Reference counts of the patch's added nodes.
    added_uses: Vec<u32>,
    /// Base rows that came alive or died along the way (a row can do both).
    flipped: Vec<u32>,
    /// Base rows found with an input slot that resolves differently: the
    /// reachable consumers of the rewired tensors, and rows that came alive.
    /// Unsorted, may repeat, may include rows that died since.
    rewired: Vec<u32>,
    worklist: Vec<PatchedNode>,
}

impl<'a> PatchLiveness<'a> {
    fn replay(base: &'a Graph, index: &'a GraphIndex, patch: &'a GraphPatch) -> Self {
        let mut this = Self {
            base,
            index,
            patch,
            base_uses: Vec::new(),
            added_uses: vec![0; patch.added_nodes().len()],
            flipped: Vec::new(),
            rewired: Vec::new(),
            worklist: Vec::new(),
        };
        // (old producer, new producer, references moved) per rewired tensor.
        let mut moves: Vec<(u32, PatchedNode, i64)> = Vec::new();
        let rewires = patch.rewires();
        for (i, (from, _)) in rewires.iter().enumerate() {
            let to = resolve_through_rewires(patch, PatchRef::Base(*from));
            if to == PatchRef::Base(*from) || rewires[..i].iter().any(|(earlier, _)| earlier == from) {
                continue;
            }
            let from_row = index.row_of(from.node);
            let mut moved = base.outputs().iter().filter(|&&output| output == *from).count();
            // A consumer unreachable in the base holds no counted reference.
            for consumer in index.consumers(from_row).filter(|&consumer| index.is_reachable(consumer)) {
                let slots = index.node(base, consumer).inputs.iter().filter(|&&input| input == *from).count();
                if slots > 0 {
                    this.rewired.push(consumer);
                    moved += slots;
                }
            }
            if moved > 0 {
                moves.push((from_row, this.node_of(to), moved as i64));
            }
        }
        for &(_, to, moved) in &moves {
            this.shift(to, moved);
        }
        for &(from_row, _, moved) in &moves {
            this.shift(PatchedNode::Base(from_row), -moved);
        }
        this
    }

    fn node_of(&self, tensor: PatchRef) -> PatchedNode {
        match tensor {
            PatchRef::Base(t) => PatchedNode::Base(self.index.row_of(t.node)),
            PatchRef::New { node, .. } => PatchedNode::New(node),
        }
    }

    /// Pushes the producers `node`'s input slots resolve to in the patched
    /// graph onto the worklist; returns whether any base slot re-resolved.
    fn push_resolved_inputs(&mut self, node: PatchedNode) -> bool {
        let mut rewired = false;
        match node {
            PatchedNode::Base(row) => {
                for &input in &self.index.node(self.base, row).inputs {
                    let resolved = resolve_through_rewires(self.patch, PatchRef::Base(input));
                    rewired |= resolved != PatchRef::Base(input);
                    self.worklist.push(self.node_of(resolved));
                }
            }
            PatchedNode::New(i) => {
                for &input in &self.patch.added_nodes()[i].inputs {
                    let resolved = resolve_through_rewires(self.patch, input);
                    self.worklist.push(self.node_of(resolved));
                }
            }
        }
        rewired
    }

    /// Adds `change` to a node's reference count; returns the count before
    /// and after.
    fn adjust(&mut self, node: PatchedNode, change: i64) -> (i64, i64) {
        match node {
            PatchedNode::Base(row) => {
                let at = match self.base_uses.binary_search_by_key(&row, |&(r, _)| r) {
                    Ok(at) => at,
                    Err(at) => {
                        self.base_uses.insert(at, (row, i64::from(self.index.uses(self.base, row))));
                        at
                    }
                };
                let before = self.base_uses[at].1;
                self.base_uses[at].1 += change;
                (before, before + change)
            }
            PatchedNode::New(i) => {
                let before = i64::from(self.added_uses[i]);
                self.added_uses[i] =
                    u32::try_from(before + change).expect("reference counts never go negative");
                (before, before + change)
            }
        }
    }

    /// Moves `change` references onto (`> 0`) or off (`< 0`) a node, then
    /// cascades one reference at a time through every node that came alive
    /// or died because of it.
    fn shift(&mut self, node: PatchedNode, change: i64) {
        self.count(node, change);
        while let Some(node) = self.worklist.pop() {
            self.count(node, change.signum());
        }
    }

    /// Applies one reference-count change. A node whose count leaves zero —
    /// an added node, or a base row unreachable in the base — takes a
    /// reference on everything it reads in the patched graph; a node whose
    /// count reaches zero releases them.
    fn count(&mut self, node: PatchedNode, change: i64) {
        let (before, after) = self.adjust(node, change);
        debug_assert!(after >= 0, "released a reference that was never counted");
        if before == 0 || after == 0 {
            let rewired = self.push_resolved_inputs(node);
            if let PatchedNode::Base(row) = node {
                self.flipped.push(row);
                if rewired {
                    self.rewired.push(row);
                }
            }
        }
    }

    fn base_row_is_live(&self, row: u32) -> bool {
        match self.base_uses.binary_search_by_key(&row, |&(r, _)| r) {
            Ok(at) => self.base_uses[at].1 > 0,
            Err(_) => self.index.is_reachable(row),
        }
    }
}

/// Where an incoming edge of a candidate row comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Source {
    /// A surviving row of the base features.
    Base(u32),
    /// The `i`-th *live* row the patch adds ([`CandidateDelta::added`]).
    Added(u32),
}

/// A surviving base row whose incoming sources differ from the base's.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RewiredRow {
    /// The base row.
    pub(crate) row: u32,
    /// Its whole edge block's sources in block order (dataflow edges in
    /// input order, then the self-loop): a range of
    /// [`CandidateDelta::sources`] ([`span`]). Its node input is the base
    /// row's — a rewire preserves the tensor's shape by construction.
    pub(crate) sources: Range<u32>,
}

/// A live row the patch adds.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AddedRow {
    /// What the node update reads of the row.
    pub(crate) input: NodeInput,
    /// Its edge block's sources (dataflow edges in input order, then the
    /// self-loop): a range of [`CandidateDelta::sources`] ([`span`]).
    pub(crate) edges: Range<u32>,
}

/// A rewrite candidate as the **difference** from the base graph's features,
/// produced by [`GraphFeatures::delta_from_base_and_patch`] and consumed by
/// [`crate::GnnEncoder::encode_candidates`].
///
/// The candidate's rows are the base rows minus `removed` (ascending), then
/// the `added` rows in patch order — the row order of featurising the
/// materialised candidate. A surviving base row that is not `rewired` carries
/// the identical local computation as in the base (same one-hot, same
/// incoming edge attributes, same sources), so everything the encoder
/// computed for the base row holds for it until a dirty neighbour reaches it.
/// Size is proportional to the patch's footprint (added nodes + rewired
/// consumers + dying nodes), not to the graph.
///
/// Two deltas are equal when every field is, the added rows' attribute sums
/// bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateDelta {
    /// Base rows absent from the candidate, ascending: the rows the patch's
    /// rewires leave unreachable, and every row already unreachable in the
    /// base that the patch does not bring to life.
    pub(crate) removed: Box<[u32]>,
    /// Surviving base rows with re-resolved sources, ascending.
    pub(crate) rewired: Box<[RewiredRow]>,
    /// The patch's live added rows, in patch order.
    pub(crate) added: Box<[AddedRow]>,
    /// The edge-block sources of the rewired rows, then of the added rows,
    /// in their order. A rollout buffer holds every stored observation's
    /// deltas, so they are four lists, each boxed to its length.
    pub(crate) sources: Box<[Source]>,
}

/// A delta row's range of its source list, as a slice range.
pub(crate) fn span(range: &Range<u32>) -> Range<usize> {
    range.start as usize..range.end as usize
}

impl GraphFeatures {
    /// Number of edges (including self-loops).
    pub fn num_edges(&self) -> usize {
        self.edge_src.len()
    }

    /// Each edge's destination row, in edge order: the row whose block in
    /// [`GraphFeatures::edge_offsets`] holds it.
    pub fn edge_dsts(&self) -> impl Iterator<Item = usize> + '_ {
        self.edge_offsets
            .windows(2)
            .enumerate()
            .flat_map(|(row, block)| std::iter::repeat_n(row, (block[1] - block[0]) as usize))
    }

    /// Extracts features from a graph — per row its operator index and
    /// summed incoming edge attributes, and the edge list — and records the
    /// row ↔ node id map and a handle to the graph's structure index that
    /// [`GraphFeatures::delta_from_base_and_patch`] and
    /// [`crate::GnnEncoder::encode_candidates`] work against.
    ///
    /// Self-loop edges (carrying the node's own output shape) are added so
    /// that every node participates in message passing even when it has no
    /// incoming dataflow edge.
    pub fn from_graph(graph: &Graph) -> Self {
        let mut node_ids: Vec<NodeId> = Vec::new();
        let mut max_edges = 0;
        for (id, node) in graph.iter() {
            node_ids.push(id);
            max_edges += node.inputs.len() + 1;
        }
        let num_nodes = node_ids.len();
        let index = GraphIndex::new(graph, node_ids);

        let mut node_inputs = Vec::with_capacity(num_nodes);
        let mut edge_src = Vec::with_capacity(max_edges);
        let mut edge_offsets = Vec::with_capacity(num_nodes + 1);
        for (row, (_, node)) in graph.iter().enumerate() {
            edge_offsets.push(edge_src.len() as u32);
            let mut node_input = NodeInput::new(node.op);
            // Dataflow edges: producer -> this node, attributed with the
            // producer tensor's shape.
            for input in &node.inputs {
                if let Ok(shape) = graph.tensor_shape(*input) {
                    edge_src.push(index.row_of_id[input.node.index()]);
                    node_input.add_edge(shape);
                }
            }
            // Self-loop with the node's own (first) output shape.
            if let Some(shape) = node.outputs.first() {
                edge_src.push(row as u32);
                node_input.add_edge(shape);
            }
            node_inputs.push(node_input);
        }
        edge_offsets.push(edge_src.len() as u32);
        Self { node_inputs, edge_src, num_nodes, edge_offsets, index }
    }

    /// The sparse difference between the base graph's features and the
    /// features of the graph `patch` produces — what
    /// [`crate::GnnEncoder::encode_candidates`] consumes.
    ///
    /// Work and memory are proportional to the patch's footprint (added
    /// nodes, rewired consumers, dying nodes), not to the graph: the rewired
    /// tensors' consumers come from the consumer index, dead-node elimination
    /// is a reference-count cascade from the rewired tensors' producers
    /// (`PatchLiveness`), sources are re-resolved through the rewires in
    /// recorded order, and no clean row is copied or even visited.
    ///
    /// `base_features` must be `GraphFeatures::from_graph(base)`, and `patch`
    /// must have been built against `base`.
    pub fn delta_from_base_and_patch(
        base: &Graph,
        base_features: &GraphFeatures,
        patch: &GraphPatch,
    ) -> CandidateDelta {
        let index = &base_features.index;
        debug_assert_eq!(index.node_ids.len(), base.num_nodes(), "base_features must match the base graph");
        let added_nodes = patch.added_nodes();
        let mut liveness = PatchLiveness::replay(base, index, patch);

        // Rows that leave: died in the cascade, or never reachable and not
        // brought to life.
        let mut removed = std::mem::take(&mut liveness.flipped);
        removed.extend(index.unreachable());
        removed.sort_unstable();
        removed.dedup();
        removed.retain(|&row| !liveness.base_row_is_live(row));

        // Position of each added node among the live added rows.
        let mut live_position = vec![NO_ROW; added_nodes.len()];
        let mut live_added = 0u32;
        for (i, position) in live_position.iter_mut().enumerate() {
            if liveness.added_uses[i] > 0 {
                *position = live_added;
                live_added += 1;
            }
        }
        let source_of = |tensor: PatchRef| match tensor {
            PatchRef::Base(t) => Source::Base(index.row_of(t.node)),
            PatchRef::New { node, .. } => {
                debug_assert_ne!(live_position[node], NO_ROW, "a live row reads a dead added node");
                Source::Added(live_position[node])
            }
        };

        let mut rewired_rows = std::mem::take(&mut liveness.rewired);
        rewired_rows.sort_unstable();
        rewired_rows.dedup();
        rewired_rows.retain(|&row| liveness.base_row_is_live(row));
        // A row's block holds at most one source per input slot plus its
        // self-loop: sized once, the list is boxed without a copy when every
        // slot has a shape.
        let live_added_nodes = || added_nodes.iter().zip(&live_position).filter(|&(_, &at)| at != NO_ROW);
        let bound = rewired_rows.iter().map(|&row| index.node(base, row).inputs.len() + 1).sum::<usize>()
            + live_added_nodes().map(|(node, _)| node.inputs.len() + 1).sum::<usize>();
        let mut rewired = Vec::with_capacity(rewired_rows.len());
        let mut sources = Vec::with_capacity(bound);
        for row in rewired_rows {
            let node = index.node(base, row);
            let start = sources.len() as u32;
            for input in &node.inputs {
                if base.tensor_shape(*input).is_ok() {
                    sources.push(source_of(resolve_through_rewires(patch, PatchRef::Base(*input))));
                }
            }
            if !node.outputs.is_empty() {
                sources.push(Source::Base(row));
            }
            rewired.push(RewiredRow { row, sources: start..sources.len() as u32 });
        }

        // The shape of a patched tensor, for featurising added-node edges.
        let shape_of = |tensor: PatchRef| -> Option<&TensorShape> {
            match tensor {
                PatchRef::Base(r) => base.tensor_shape(r).ok(),
                PatchRef::New { node, port } => added_nodes.get(node).and_then(|n| n.outputs.get(port)),
            }
        };
        let mut added = Vec::with_capacity(live_added as usize);
        for (i, node) in added_nodes.iter().enumerate() {
            if live_position[i] == NO_ROW {
                continue;
            }
            let start = sources.len() as u32;
            let mut node_input = NodeInput::new(node.op);
            for &input in &node.inputs {
                let resolved = resolve_through_rewires(patch, input);
                if let Some(shape) = shape_of(resolved) {
                    sources.push(source_of(resolved));
                    node_input.add_edge(shape);
                }
            }
            if let Some(shape) = node.outputs.first() {
                sources.push(Source::Added(live_position[i]));
                node_input.add_edge(shape);
            }
            added.push(AddedRow { input: node_input, edges: start..sources.len() as u32 });
        }
        CandidateDelta {
            removed: removed.into(),
            rewired: rewired.into(),
            added: added.into(),
            sources: sources.into(),
        }
    }

    /// The features of `graph`, the candidate `delta` describes once
    /// materialised — equal to [`GraphFeatures::from_graph`] of it, index
    /// included — derived from these features (its base's) and the delta
    /// instead of from the graph: the runs of rows the patch left alone are
    /// copied with their edge blocks, renumbered past the removed rows, and
    /// the rewired and added rows come from the delta. Of `graph` it reads
    /// the ids of the added rows (its last live ids) and its structure
    /// index, which it shares.
    ///
    /// `delta` must be `delta_from_base_and_patch(base, self, patch)` and
    /// `graph` must be `base` with `patch` applied.
    pub fn successor(&self, delta: &CandidateDelta, graph: &Graph) -> Self {
        let n = self.num_nodes;
        let survivors = n - delta.removed.len();
        let num_nodes = survivors + delta.added.len();
        // Base row -> successor row (`NO_ROW` for a removed row).
        let mut new_row: Vec<u32> = Vec::with_capacity(n);
        let mut from = 0;
        for (shift, &gone) in delta.removed.iter().enumerate() {
            new_row.extend((from..gone as usize).map(|row| (row - shift) as u32));
            new_row.push(NO_ROW);
            from = gone as usize + 1;
        }
        new_row.extend((from..n).map(|row| (row - delta.removed.len()) as u32));
        let row_of = |source: Source| match source {
            Source::Base(row) => new_row[row as usize],
            Source::Added(i) => (survivors + i as usize) as u32,
        };

        let mut out = Self {
            node_inputs: Vec::with_capacity(num_nodes),
            edge_src: Vec::with_capacity(self.edge_src.len() + delta.sources.len()),
            num_nodes,
            edge_offsets: Vec::with_capacity(num_nodes + 1),
            index: GraphIndex::new(graph, Vec::with_capacity(num_nodes)),
        };
        // Surviving base rows `from..to`, none rewired: copied as one run.
        let copy_run = |out: &mut Self, from: usize, to: usize| {
            if from >= to {
                return;
            }
            let edge_shift = self.edge_offsets[from] - out.edge_src.len() as u32;
            let block = self.edge_offsets[from] as usize..self.edge_offsets[to] as usize;
            out.node_inputs.extend_from_slice(&self.node_inputs[from..to]);
            out.index.node_ids.extend_from_slice(&self.index.node_ids[from..to]);
            out.edge_offsets.extend(self.edge_offsets[from..to].iter().map(|&at| at - edge_shift));
            out.edge_src.extend(self.edge_src[block].iter().map(|&src| new_row[src as usize]));
        };
        let mut next = 0;
        let mut removed = delta.removed.iter().peekable();
        let mut rewired = delta.rewired.iter().peekable();
        // The next row that is not copied as it was: removed or rewired.
        while let Some(row) =
            [removed.peek().map(|&&gone| gone), rewired.peek().map(|r| r.row)].into_iter().flatten().min()
        {
            copy_run(&mut out, next, row as usize);
            if removed.next_if(|&&gone| gone == row).is_none() {
                let r = rewired.next().expect("a row that is not removed is rewired");
                out.edge_offsets.push(out.edge_src.len() as u32);
                out.node_inputs.push(self.node_inputs[row as usize]);
                out.index.node_ids.push(self.index.node_ids[row as usize]);
                let sources = &delta.sources[span(&r.sources)];
                out.edge_src.extend(sources.iter().map(|&source| row_of(source)));
            }
            next = row as usize + 1;
        }
        copy_run(&mut out, next, n);
        // The patch's nodes took the graph's highest ids, in patch order.
        let node_ids = &mut out.index.node_ids;
        node_ids.extend(graph.iter().rev().take(delta.added.len()).map(|(id, _)| id));
        node_ids[survivors..].reverse();
        for added in &delta.added {
            out.edge_offsets.push(out.edge_src.len() as u32);
            out.node_inputs.push(added.input);
            let sources = &delta.sources[span(&added.edges)];
            out.edge_src.extend(sources.iter().map(|&source| row_of(source)));
        }
        out.edge_offsets.push(out.edge_src.len() as u32);
        out.index.map_rows();
        out
    }

    /// The distinct rows consuming `row`, ascending.
    pub(crate) fn consumers(&self, row: u32) -> impl Iterator<Item = u32> + '_ {
        self.index.consumers(row)
    }
}

#[cfg(test)]
impl GraphFeatures {
    /// The features of the graph a [`GraphPatch`] produces, derived from
    /// the *base* graph's features: the sparse [`CandidateDelta`] taken to
    /// its [`GraphFeatures::successor`], the derivation a carried policy step
    /// makes.
    ///
    /// Bit-identical to [`GraphFeatures::from_graph`] on the materialised
    /// candidate — row order, edge order, op indices, attribute-sum bits and
    /// index — which the per-rule differential tests assert.
    ///
    /// `base_features` must be `GraphFeatures::from_graph(base)`, and `patch`
    /// must have been built against `base`.
    fn from_base_and_patch(base: &Graph, base_features: &GraphFeatures, patch: &GraphPatch) -> Self {
        let delta = Self::delta_from_base_and_patch(base, base_features, patch);
        base_features.successor(&delta, &base.apply_patch(patch).expect("the patch was built against `base`"))
    }
}

#[cfg(test)]
use xrlflow_tensor::Tensor;

#[cfg(test)]
impl NodeInput {
    /// The node-update layer's dense `[rows, NODE_INPUT_WIDTH]` input
    /// matrix: one `[incoming ‖ one-hot]` row per input, in order — the
    /// oracle of [`NodeInput::columns`] and the lookup, which the serial
    /// encoder multiplies.
    pub(crate) fn matrix<'a>(inputs: impl IntoIterator<Item = &'a NodeInput>, rows: usize) -> Tensor {
        let mut data = Vec::with_capacity(rows * NODE_INPUT_WIDTH);
        for input in inputs {
            data.extend_from_slice(&input.incoming);
            let one_hot = data.len();
            data.resize(one_hot + OpKind::count(), 0.0);
            data[one_hot + input.op as usize] = 1.0;
        }
        Tensor::from_vec(data, &[rows, NODE_INPUT_WIDTH])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{assert_features_identical, rule_zoo_graph, sparse_delta_cases};
    use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
    use xrlflow_graph::OpAttributes;
    use xrlflow_rewrite::{rules::standard_rules, RuleSet};

    fn small_graph() -> Graph {
        let mut g = Graph::new();
        let x = g.add_input(TensorShape::new(vec![1, 64]));
        let w = g.add_weight(TensorShape::new(vec![64, 32]));
        let mm = g.add_node(OpKind::MatMul, OpAttributes::default(), vec![x.into(), w.into()]).unwrap();
        let relu = g.add_node(OpKind::Relu, OpAttributes::default(), vec![mm.into()]).unwrap();
        g.mark_output(relu.into());
        g
    }

    #[test]
    fn node_inputs_are_the_op_index_and_the_block_order_attribute_sum() {
        // Per row, against the graph itself: the op index, and the f32 sum
        // of the inputs' shape attributes in input order, then the node's
        // first output shape's — bit for bit.
        let mut workloads: Vec<(String, Graph)> = ModelKind::EVALUATED
            .iter()
            .chain(&[ModelKind::ResNet18])
            .map(|&kind| (kind.to_string(), build_model(kind, ModelScale::Bench).unwrap()))
            .collect();
        workloads.push(("rule-zoo".to_string(), rule_zoo_graph()));
        assert_eq!(workloads.len(), 9, "the 8 zoo kinds and the rule zoo");
        for (name, g) in &workloads {
            let f = GraphFeatures::from_graph(g);
            assert_eq!(f.node_inputs.len(), g.num_nodes(), "{name}: one input per row");
            for (row, (_, node)) in g.iter().enumerate() {
                let input = &f.node_inputs[row];
                assert_eq!(input.op as usize, node.op.index(), "{name}: row {row}'s op index");
                let shapes = node.inputs.iter().filter_map(|&t| g.tensor_shape(t).ok());
                let mut expected = [0.0f32; 4];
                for shape in shapes.chain(node.outputs.first()) {
                    let attribute = edge_attribute(shape);
                    assert!(attribute.iter().all(|v| v.is_finite() && *v >= 0.0), "{name}: {attribute:?}");
                    for (acc, v) in expected.iter_mut().zip(attribute) {
                        *acc += v;
                    }
                }
                assert_eq!(
                    input.incoming.map(f32::to_bits),
                    expected.map(f32::to_bits),
                    "{name}: row {row}'s summed edge attributes"
                );
            }
        }
        // The x -> mm edge carries shape [1, 64] => padded [0,0,1,64] / 4096.
        assert_eq!(edge_attribute(&TensorShape::new(vec![1, 64])), [0.0, 0.0, 1.0, 64.0].map(|v| v / 4096.0));
    }

    #[test]
    fn edges_include_dataflow_and_self_loops() {
        let g = small_graph();
        let f = GraphFeatures::from_graph(&g);
        // 3 dataflow edges (x->mm, w->mm, mm->relu) + 4 self loops.
        assert_eq!(f.num_edges(), 7);
        assert_eq!(f.edge_dsts().count(), f.num_edges());
        for (&s, d) in f.edge_src.iter().zip(f.edge_dsts()) {
            assert!((s as usize) < f.num_nodes && d < f.num_nodes);
        }
    }

    #[test]
    fn edge_offsets_delimit_per_node_blocks() {
        let g = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
        let f = GraphFeatures::from_graph(&g);
        assert_eq!(f.edge_offsets.len(), f.num_nodes + 1);
        assert_eq!(*f.edge_offsets.last().unwrap() as usize, f.num_edges());
        let dsts: Vec<usize> = f.edge_dsts().collect();
        for row in 0..f.num_nodes {
            let block = f.edge_offsets[row] as usize..f.edge_offsets[row + 1] as usize;
            for (e, &dst) in dsts[block.clone()].iter().enumerate() {
                assert_eq!(dst, row, "edge {} not grouped under its destination row", block.start + e);
            }
        }
    }

    #[test]
    fn delta_features_match_materialised_features_for_every_rule() {
        // The per-rule differential property (mirroring the patch-vs-eager
        // test in xrlflow-rewrite): for every rule and application site on
        // the evaluated workloads, featurising via base features + patch must
        // be bit-identical to featurising the materialised candidate.
        let mut covered = std::collections::BTreeSet::new();
        let mut sites_checked = 0usize;
        let mut workloads: Vec<(String, Graph)> =
            [ModelKind::SqueezeNet, ModelKind::Bert, ModelKind::InceptionV3]
                .into_iter()
                .map(|kind| (kind.to_string(), build_model(kind, ModelScale::Bench).unwrap()))
                .collect();
        workloads.push(("rule-zoo".to_string(), rule_zoo_graph()));
        for (name, g) in &workloads {
            let base_features = GraphFeatures::from_graph(g);
            for rule in standard_rules() {
                for site in rule.find_matches(g) {
                    let Ok(patch) = rule.build_patch(g, &site) else { continue };
                    let delta = GraphFeatures::from_base_and_patch(g, &base_features, &patch);
                    let eager = GraphFeatures::from_graph(&g.apply_patch(&patch).unwrap());
                    assert_features_identical(&delta, &eager, &format!("{name}/{}", rule.name()));
                    covered.insert(rule.name());
                    sites_checked += 1;
                }
            }
        }
        assert!(sites_checked >= 20, "expected many application sites, got {sites_checked}");
        // Every rule of the default rule set must be exercised somewhere.
        let all: std::collections::BTreeSet<_> = standard_rules().iter().map(|r| r.name()).collect();
        let missing: Vec<_> = all.difference(&covered).collect();
        assert!(missing.is_empty(), "rules never exercised by the differential test: {missing:?}");
    }

    #[test]
    fn delta_features_match_along_a_trajectory() {
        // Deeper property: keep applying candidates (so the base graph has
        // id holes from dead-node elimination) and re-check the differential
        // at every step.
        let mut g = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
        let rules = RuleSet::standard();
        for step in 0..5 {
            let base_features = GraphFeatures::from_graph(&g);
            let candidates = rules.generate_candidates(&g, 16);
            if candidates.is_empty() {
                break;
            }
            for (i, c) in candidates.iter().enumerate() {
                let delta = GraphFeatures::from_base_and_patch(&g, &base_features, c.patch());
                let eager = GraphFeatures::from_graph(&c.materialize(&g).unwrap());
                assert_features_identical(&delta, &eager, &format!("step {step}, candidate {i}"));
            }
            let chosen = &candidates[step % candidates.len()];
            g = chosen.materialize(&g).unwrap();
        }
    }

    #[test]
    fn successor_features_equal_from_graph_along_trajectories() {
        // Every candidate of every step, derived and featurised apart,
        // index included; the chosen one's derived features are the next
        // step's base.
        let rules = RuleSet::standard();
        let mut graphs: Vec<(String, Graph)> = ModelKind::EVALUATED
            .iter()
            .chain(&[ModelKind::ResNet18])
            .map(|&kind| (kind.to_string(), build_model(kind, ModelScale::Bench).unwrap()))
            .collect();
        graphs.push(("rule-zoo".to_string(), rule_zoo_graph()));
        let mut checked = 0;
        for (name, graph) in graphs {
            let mut graph = std::sync::Arc::new(graph);
            let mut features = GraphFeatures::from_graph(&graph);
            for step in 0..8 {
                let candidates = rules.generate_candidates(&graph, usize::MAX);
                if candidates.is_empty() {
                    break;
                }
                let mut successors: Vec<_> = candidates
                    .iter()
                    .map(|c| {
                        let delta = GraphFeatures::delta_from_base_and_patch(&graph, &features, c.patch());
                        let next = std::sync::Arc::new(c.materialize(&graph).unwrap());
                        let derived = features.successor(&delta, &next);
                        assert!(
                            derived == GraphFeatures::from_graph(&next),
                            "{name}, step {step}, {}",
                            c.rule_name
                        );
                        checked += 1;
                        (next, derived)
                    })
                    .collect();
                (graph, features) = successors.swap_remove((step * 7) % candidates.len());
            }
        }
        assert!(checked > 200, "the zoo offers candidates to derive, got {checked}");
    }

    #[test]
    fn delta_features_match_on_the_patches_a_sparse_delta_can_get_wrong() {
        for case in sparse_delta_cases() {
            let (g, patch) = (&case.graph, &case.patch);
            let base_features = GraphFeatures::from_graph(g);
            let sparse = GraphFeatures::delta_from_base_and_patch(g, &base_features, patch);
            let footprint = (sparse.removed.len(), sparse.rewired.len(), sparse.added.len());
            assert_eq!(footprint, case.footprint, "{}: (removed, rewired, added) rows", case.name);
            let delta = GraphFeatures::from_base_and_patch(g, &base_features, patch);
            let eager = GraphFeatures::from_graph(&g.apply_patch(patch).unwrap());
            assert_features_identical(&delta, &eager, case.name);
        }
    }

    #[test]
    fn sparse_delta_holds_only_the_patch_footprint() {
        // Bypassing one Identity of the rule-zoo graph removes that row and
        // rewires its one consumer; nothing else of the graph is recorded.
        let g = rule_zoo_graph();
        let base_features = GraphFeatures::from_graph(&g);
        let (id, node) = g.iter().find(|(_, n)| n.op == OpKind::Identity).unwrap();
        let mut b = xrlflow_graph::PatchBuilder::new(&g);
        b.replace_all_uses(id.into(), node.inputs[0]).unwrap();
        let delta = GraphFeatures::delta_from_base_and_patch(&g, &base_features, &b.finish());
        assert_eq!(*delta.removed, [base_features.index.row_of(id)]);
        assert_eq!(delta.rewired.len(), 1);
        assert_eq!(delta.sources.len(), 2, "the consumer's one dataflow edge plus its self-loop");
        assert!(delta.added.is_empty());
    }
}
