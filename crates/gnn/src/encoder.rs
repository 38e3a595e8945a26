//! The graph-embedding network (Section 3.4 of the paper).
//!
//! The encoder is one node-update layer (Eq. 6), `k` graph-attention layers
//! (Eq. 7, GAT) and one global-readout layer (Eq. 8), producing a single
//! graph-level embedding used by the policy and value heads.
//!
//! Two entry points share the layer code: [`GnnEncoder::encode`] (one
//! graph, the serial oracle) and [`GnnEncoder::encode_candidates`] — the
//! policy path — which encodes a graph and all of its rewrite candidates
//! from sparse [`CandidateDelta`]s, re-computing per layer only the rows each
//! patch can have changed. Its host-side planning touches the patch's dirty region,
//! not the graph, and builds the layer plan in a fixed order that keeps
//! forward bits and gradient accumulation stable.
//!
//! Both places that move rows along an index list — a GAT layer's
//! attention-weighted aggregate over the edge list and the candidate
//! readout's per-graph sum over gathered rows — are one fused
//! [`Tape::gather_scatter_rows`] each: no `[E, H]` message matrix and no
//! `[(K + 1)·N, H]` gathered-rows matrix exists in the forward or the
//! backward pass, and the per-row summation order is the edge (or gather)
//! list's order either way.

use xrlflow_tensor::{
    xavier_uniform, Activation, Linear, ParamId, ParamStore, Tape, Tensor, VarId, XorShiftRng,
};

use crate::featurize::{CandidateDelta, GraphFeatures, Source};

/// Configuration of the graph encoder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncoderConfig {
    /// Hidden embedding width.
    pub hidden_dim: usize,
    /// Number of GAT message-passing layers (`k` in Table 4, default 5).
    pub num_gat_layers: usize,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        Self { hidden_dim: 64, num_gat_layers: 5 }
    }
}

/// One graph-attention layer (single head), Eq. 7.
///
/// The attention vector `a` of the GAT paper is stored split into its source
/// and destination halves so the edge score `aᵀ [W h_src ‖ W h_dst]` can be
/// computed as `(W h · a_src)_src + (W h · a_dst)_dst` — two `[N, 1]` node
/// projections plus per-edge gathers, instead of materialising an `[E, 2H]`
/// pair matrix per layer.
#[derive(Debug, Clone)]
struct GatLayer {
    /// Node projection `W`.
    proj: Linear,
    /// Source half of the attention vector, `[hidden, 1]`.
    attention_src: ParamId,
    /// Destination half of the attention vector, `[hidden, 1]`.
    attention_dst: ParamId,
}

impl GatLayer {
    fn new(store: &mut ParamStore, name: &str, hidden: usize, rng: &mut XorShiftRng) -> Self {
        let proj = Linear::new(store, &format!("{name}.proj"), hidden, hidden, Activation::Linear, rng);
        let attention_src = store.register(&format!("{name}.attention_src"), xavier_uniform(hidden, 1, rng));
        let attention_dst = store.register(&format!("{name}.attention_dst"), xavier_uniform(hidden, 1, rng));
        Self { proj, attention_src, attention_dst }
    }

    /// Runs message passing: `h'_i = relu(sum_j alpha_ij W h_j)`, with
    /// attention coefficients normalised over each destination node's
    /// incoming edges.
    ///
    /// Works unchanged on a block-diagonal batch: edges never cross graph
    /// boundaries, so gathering, attention normalisation (grouped by
    /// destination node) and aggregation are all per-graph operations.
    fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        h: VarId,
        edge_src: &[usize],
        edge_dst: &[usize],
        num_nodes: usize,
    ) -> VarId {
        self.forward_plan(tape, store, h, edge_src, edge_dst, edge_dst, num_nodes)
    }

    /// The general form of [`GatLayer::forward`] used by delta-aware
    /// evaluation: the rows of `h` an edge reads (`edge_src_rows` /
    /// `edge_dst_rows`) are decoupled from the output row the edge
    /// aggregates into (`edge_dst_slots`, over `out_rows` output rows), so a
    /// layer can compute only a dirty subset of nodes while reading
    /// neighbour embeddings shared with the base graph.
    #[allow(clippy::too_many_arguments)]
    fn forward_plan(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        h: VarId,
        edge_src_rows: &[usize],
        edge_dst_rows: &[usize],
        edge_dst_slots: &[usize],
        out_rows: usize,
    ) -> VarId {
        let wh = self.proj.forward(tape, store, h);
        // Per-node attention contributions, gathered per edge — equivalent
        // to scoring [W h_src ‖ W h_dst] against the full attention vector.
        let a_src = tape.param(store, self.attention_src);
        let a_dst = tape.param(store, self.attention_dst);
        let node_src_score = tape.matmul(wh, a_src);
        let node_dst_score = tape.matmul(wh, a_dst);
        let edge_src_score = tape.gather_rows(node_src_score, edge_src_rows);
        let edge_dst_score = tape.gather_rows(node_dst_score, edge_dst_rows);
        let scores = tape.add(edge_src_score, edge_dst_score);
        let scores = tape.leaky_relu(scores, 0.2);
        let alpha = tape.segment_softmax(scores, edge_dst_slots, out_rows);
        // Σ_j alpha_ij · W h_j as one fused gather–scale–scatter over the
        // edge list: no `[E, H]` message matrix in either direction.
        let aggregated = tape.gather_scatter_rows(wh, Some(alpha), edge_src_rows, edge_dst_slots, out_rows);
        tape.relu(aggregated)
    }
}

/// [`dirty_region`]'s scratch value for a row no dirty neighbour has reached.
const CLEAN: u32 = u32::MAX;
/// [`dirty_region`]'s scratch value for a row the candidate removes.
const REMOVED: u32 = u32::MAX - 1;
/// "Not dirty" in [`GnnEncoder::encode_candidates`]' base-row → slot scratch.
const NO_SLOT: usize = usize::MAX;

/// The surviving base rows of one candidate that a `layers`-deep GAT stack
/// must re-compute, ascending by row, each with the first layer whose output
/// for it differs from the base row's.
///
/// A rewired row's incoming sources differ, so it is dirty from layer 0; a
/// row reading a row dirty after layer `l - 1` is dirty from layer `l`. In
/// the candidate those readers are the dirty row's base consumers that
/// survive: a consumer rewired *away* from it is dirty already, and so is
/// every rewired or added row newly reading it. Added rows are dirty from
/// the node update on and are not listed.
///
/// `level` is a per-base-row scratch, all [`CLEAN`] on entry and on return;
/// the walk visits only the region and the delta's removed rows.
fn dirty_region(
    current: &GraphFeatures,
    delta: &CandidateDelta,
    layers: usize,
    level: &mut [u32],
) -> Vec<(u32, u32)> {
    if layers == 0 {
        return Vec::new();
    }
    for &row in &delta.removed {
        level[row as usize] = REMOVED;
    }
    let mut rows: Vec<u32> = delta.rewired.iter().map(|r| r.row).collect();
    for &row in &rows {
        level[row as usize] = 0;
    }
    let mut frontier = 0..rows.len();
    for layer in 1..layers as u32 {
        if frontier.is_empty() {
            break;
        }
        let grown_from = rows.len();
        for at in frontier {
            for &consumer in current.consumers(rows[at]) {
                if level[consumer as usize] == CLEAN {
                    level[consumer as usize] = layer;
                    rows.push(consumer);
                }
            }
        }
        frontier = grown_from..rows.len();
    }
    let mut region: Vec<(u32, u32)> = rows.iter().map(|&row| (row, level[row as usize])).collect();
    region.sort_unstable();
    for &row in rows.iter().chain(&delta.removed) {
        level[row as usize] = CLEAN;
    }
    region
}

/// One GAT layer's inputs to `GatLayer::forward_plan` over the compact
/// `[rows(current) + dirty]` block; the buffers are reused across layers.
#[derive(Default)]
struct LayerPlan {
    edge_src_rows: Vec<usize>,
    edge_dst_rows: Vec<usize>,
    edge_dst_slots: Vec<usize>,
    out_rows: usize,
}

impl LayerPlan {
    /// Starts a layer's plan with the current graph's own rows and edges.
    fn restart(&mut self, current: &GraphFeatures) {
        self.out_rows = current.num_nodes;
        self.edge_src_rows.clear();
        self.edge_src_rows.extend_from_slice(&current.edge_src);
        self.edge_dst_rows.clear();
        self.edge_dst_rows.extend_from_slice(&current.edge_dst);
        self.edge_dst_slots.clear();
        self.edge_dst_slots.extend_from_slice(&current.edge_dst);
    }

    /// Appends one output row: its edge block reads `sources` and the row's
    /// own `dst_row`, all rows of the previous layer's block.
    fn push_row(&mut self, dst_row: usize, sources: impl Iterator<Item = usize>) {
        let before = self.edge_src_rows.len();
        self.edge_src_rows.extend(sources);
        let edges = self.edge_src_rows.len() - before;
        self.edge_dst_rows.extend(std::iter::repeat_n(dst_row, edges));
        self.edge_dst_slots.extend(std::iter::repeat_n(self.out_rows, edges));
        self.out_rows += 1;
    }
}

/// The graph encoder: node update, `k` GAT layers, global readout.
#[derive(Debug, Clone)]
pub struct GnnEncoder {
    config: EncoderConfig,
    node_update: Linear,
    gat_layers: Vec<GatLayer>,
    global_update: Linear,
}

impl GnnEncoder {
    /// Creates an encoder, registering its parameters in `store`.
    pub fn new(store: &mut ParamStore, config: EncoderConfig, rng: &mut XorShiftRng) -> Self {
        let in_dim = GraphFeatures::node_feature_dim() + 4;
        let node_update =
            Linear::new(store, "encoder.node_update", in_dim, config.hidden_dim, Activation::Relu, rng);
        let gat_layers = (0..config.num_gat_layers)
            .map(|i| GatLayer::new(store, &format!("encoder.gat{i}"), config.hidden_dim, rng))
            .collect();
        // Global readout consumes [sum of node embeddings || global attribute],
        // where the global attribute is initialised to zero (paper Section 3.3.2).
        let global_update = Linear::new(
            store,
            "encoder.global_update",
            2 * config.hidden_dim,
            config.hidden_dim,
            Activation::Tanh,
            rng,
        );
        Self { config, node_update, gat_layers, global_update }
    }

    /// The encoder configuration.
    pub fn config(&self) -> &EncoderConfig {
        &self.config
    }

    /// Output embedding width.
    pub fn embedding_dim(&self) -> usize {
        self.config.hidden_dim
    }

    /// Encodes a featurised graph into a `[1, hidden_dim]` embedding on the
    /// given tape.
    ///
    /// This is the serial reference path; the agent's per-step policy
    /// evaluation uses [`GnnEncoder::encode_candidates`], which embeds the
    /// graph and all of its rewrite candidates in one forward pass and is
    /// bit-identical per graph.
    pub fn encode(&self, tape: &mut Tape, store: &ParamStore, features: &GraphFeatures) -> VarId {
        // Eq. 6: update node attributes from incoming edge attributes.
        let edge_feats = tape.constant_copied(&features.edge_features);
        let incoming = tape.scatter_add_rows(edge_feats, &features.edge_dst, features.num_nodes);
        let node_feats = tape.constant_copied(&features.node_features);
        let combined = tape.concat_cols(incoming, node_feats);
        let mut h = self.node_update.forward(tape, store, combined);

        // Eq. 7: k rounds of graph attention.
        for layer in &self.gat_layers {
            h = layer.forward(tape, store, h, &features.edge_src, &features.edge_dst, features.num_nodes);
        }

        // Eq. 8: global readout over all node embeddings plus the (zero)
        // initial global attribute.
        let summed = tape.sum_rows(h);
        let global0 = tape.zeros(&[1, self.config.hidden_dim]);
        let readout_in = tape.concat_cols(summed, global0);
        self.global_update.forward(tape, store, readout_in)
    }

    /// Delta-aware batched policy evaluation: encodes the current graph and
    /// all of its rewrite candidates in one pass, returning a
    /// `[1 + num_candidates, hidden_dim]` embedding matrix (the current
    /// graph's embedding in row 0, candidates in order after it).
    ///
    /// Each candidate arrives as a sparse [`CandidateDelta`] and is consumed
    /// as one: per message-passing layer only the candidate rows inside the
    /// patch's grown *dirty region* are re-computed; every other row provably
    /// carries the identical computation tree (same one-hot, same incoming
    /// edge attributes, same neighbour identities) and is *reused* from the
    /// current graph's rows. Dirtiness is structural, not value-based, so the
    /// reuse holds for any parameter values: results are bit-identical to
    /// serially encoding each materialised candidate, and gradients of a
    /// downstream loss are exactly those of the full computation (clean rows
    /// simply route their contributions through the shared sub-tree).
    ///
    /// The dirty region starts at the added rows (dirty from the node update
    /// on), takes in the delta's rewired rows at the first GAT layer and then
    /// grows one hop per layer through the current graph's consumer index,
    /// skipping the delta's removed rows. Host work per candidate is
    /// proportional to that region — there is no per-candidate pass over the
    /// graph's rows or edges except the readout's gather list.
    ///
    /// **Plan order.** The layer maths runs through the same GAT-layer code
    /// as [`GnnEncoder::encode`] on a compact `[rows(current) + dirty]`
    /// block, and the order of that block is an invariant: after the current
    /// graph's own rows and edges come the candidates in order; within a
    /// candidate its dirty rows ascending in candidate row order (surviving
    /// base rows ascending, then added rows in patch order); within a row
    /// its edge block in input order, then the self-loop. The readout gathers
    /// every candidate's rows in candidate row order. Same order, same
    /// forward bits *and* the same gradient accumulation order — which is
    /// what keeps a training run's parameters bit-stable across changes to
    /// how the plan is built.
    pub fn encode_candidates(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        current: &GraphFeatures,
        deltas: &[CandidateDelta],
    ) -> VarId {
        let n = current.num_nodes;
        let in_dim = GraphFeatures::node_feature_dim() + 4;

        // Node-update inputs for the unique rows: the current graph's rows
        // followed by every candidate's added rows (`[incoming ‖ one-hot]`,
        // accumulated exactly like the serial scatter-add path). Only added
        // rows have inputs differing from a base row's, so they are the
        // dirty region going into the first GAT layer; `first_slot[k]` is
        // where candidate k's dirty rows start in the compact block.
        let mut first_slot: Vec<usize> = Vec::with_capacity(deltas.len());
        let mut rows = n;
        for delta in deltas {
            first_slot.push(rows);
            rows += delta.added.len();
        }
        let mut input_data: Vec<f32> = Vec::with_capacity(rows * in_dim);
        for row in 0..n {
            current.push_node_input_row(row, &mut input_data);
        }
        for delta in deltas {
            delta.push_added_input_rows(&mut input_data);
        }
        let inputs = tape.constant(Tensor::from_vec(input_data, &[rows, in_dim]));
        let mut h = self.node_update.forward(tape, store, inputs);

        // Each candidate's dirty base rows over the whole stack, found once.
        let mut level = vec![CLEAN; n];
        let regions: Vec<Vec<(u32, u32)>> = deltas
            .iter()
            .map(|delta| dirty_region(current, delta, self.gat_layers.len(), &mut level))
            .collect();

        // Per-layer scratch, allocated once and reused across the GAT stack
        // (the layer loop is the encoder's hot loop — see the tensor hot-path
        // rules in ROADMAP.md). `slot_of` maps a base row to its compact row
        // in the previous layer's block, for the one candidate being planned.
        let mut slot_of: Vec<usize> = vec![NO_SLOT; n];
        let mut plan = LayerPlan::default();

        for (layer_index, layer) in self.gat_layers.iter().enumerate() {
            // The layer's edge plan: the current graph's full edge list, then
            // every edge into a dirty destination. Clean neighbours read the
            // current graph's rows (their embeddings are identical), dirty
            // neighbours read their compact slots.
            plan.restart(current);
            for ((delta, region), first_slot) in deltas.iter().zip(&regions).zip(&mut first_slot) {
                // Rows dirty before this layer sit in the previous block from
                // `first_slot` on, in candidate row order.
                let was_dirty = |level: u32| (level as usize) < layer_index;
                let mut previous_added = *first_slot;
                for &(row, level) in region {
                    if was_dirty(level) {
                        slot_of[row as usize] = previous_added;
                        previous_added += 1;
                    }
                }
                *first_slot = plan.out_rows;
                let row_in = |source: Source| match source {
                    Source::Base(row) if slot_of[row as usize] == NO_SLOT => row as usize,
                    Source::Base(row) => slot_of[row as usize],
                    Source::Added(i) => previous_added + i as usize,
                };

                let mut rewired = delta.rewired.iter().peekable();
                for &(row, level) in region {
                    let rewired = rewired.next_if(|r| r.row == row);
                    if level as usize > layer_index {
                        continue;
                    }
                    let dst_row = row_in(Source::Base(row));
                    match rewired {
                        Some(r) => {
                            let sources = &delta.rewired_sources[r.sources.clone()];
                            plan.push_row(dst_row, sources.iter().map(|&s| row_in(s)));
                        }
                        None => {
                            let block =
                                current.edge_offsets[row as usize]..current.edge_offsets[row as usize + 1];
                            let sources = &current.edge_src[block];
                            plan.push_row(dst_row, sources.iter().map(|&s| row_in(Source::Base(s as u32))));
                        }
                    }
                }
                for (i, added) in delta.added.iter().enumerate() {
                    let edges = &delta.added_edges[added.edges.clone()];
                    plan.push_row(previous_added + i, edges.iter().map(|&(s, _)| row_in(s)));
                }
                for &(row, level) in region {
                    if was_dirty(level) {
                        slot_of[row as usize] = NO_SLOT;
                    }
                }
            }
            h = layer.forward_plan(
                tape,
                store,
                h,
                &plan.edge_src_rows,
                &plan.edge_dst_rows,
                &plan.edge_dst_slots,
                plan.out_rows,
            );
        }

        // Per-graph readout: sum every graph's rows (clean candidate rows
        // from the current graph's block) in row order, reproducing the
        // serial row-order accumulation bit for bit — as one fused
        // gather–scatter, so the `[(K + 1)·N, H]` matrix of gathered rows is
        // never materialised. Runs of clean surviving rows are appended as
        // ranges between the removed and dirty rows.
        let mut gather: Vec<usize> = (0..n).collect();
        let mut segments: Vec<usize> = vec![0; n];
        let mut exceptions: Vec<(u32, Option<usize>)> = Vec::new();
        for (k, ((delta, region), &first_slot)) in deltas.iter().zip(&regions).zip(&first_slot).enumerate() {
            exceptions.clear();
            exceptions.extend(delta.removed.iter().map(|&row| (row, None)));
            exceptions.extend(region.iter().enumerate().map(|(at, &(row, _))| (row, Some(first_slot + at))));
            exceptions.sort_unstable_by_key(|&(row, _)| row);
            let before = gather.len();
            let mut next = 0;
            for &(row, slot) in &exceptions {
                gather.extend(next..row as usize);
                gather.extend(slot);
                next = row as usize + 1;
            }
            gather.extend(next..n);
            gather.extend((0..delta.added.len()).map(|i| first_slot + region.len() + i));
            segments.extend(std::iter::repeat_n(k + 1, gather.len() - before));
        }
        let summed = tape.gather_scatter_rows(h, None, &gather, &segments, deltas.len() + 1);
        let global0 = tape.zeros(&[deltas.len() + 1, self.config.hidden_dim]);
        let readout_in = tape.concat_cols(summed, global0);
        self.global_update.forward(tape, store, readout_in)
    }

    /// Convenience: encodes a graph without keeping the tape (inference
    /// only), returning the raw embedding values.
    pub fn encode_value(&self, store: &ParamStore, features: &GraphFeatures) -> Tensor {
        let mut tape = Tape::new();
        let z = self.encode(&mut tape, store, features);
        tape.value(z).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{rule_zoo_graph, sparse_delta_cases};
    use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
    use xrlflow_graph::{Graph, GraphPatch, OpAttributes, OpKind, TensorShape};
    use xrlflow_tensor::Adam;

    fn tiny_config() -> EncoderConfig {
        EncoderConfig { hidden_dim: 16, num_gat_layers: 2 }
    }

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
    fn encoding_has_expected_shape() {
        let mut store = ParamStore::new();
        let mut rng = XorShiftRng::new(0);
        let encoder = GnnEncoder::new(&mut store, tiny_config(), &mut rng);
        let features = GraphFeatures::from_graph(&small_graph());
        let emb = encoder.encode_value(&store, &features);
        assert_eq!(emb.shape(), &[1, 16]);
        assert!(emb.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn different_graphs_get_different_embeddings() {
        let mut store = ParamStore::new();
        let mut rng = XorShiftRng::new(1);
        let encoder = GnnEncoder::new(&mut store, tiny_config(), &mut rng);
        let a = encoder.encode_value(&store, &GraphFeatures::from_graph(&small_graph()));
        let bert = build_model(ModelKind::Bert, ModelScale::Bench).unwrap();
        let b = encoder.encode_value(&store, &GraphFeatures::from_graph(&bert));
        let diff: f32 = a.data().iter().zip(b.data()).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1e-4, "embeddings should distinguish graphs");
    }

    #[test]
    fn encoder_is_deterministic() {
        let mut store = ParamStore::new();
        let mut rng = XorShiftRng::new(2);
        let encoder = GnnEncoder::new(&mut store, tiny_config(), &mut rng);
        let features = GraphFeatures::from_graph(&small_graph());
        assert_eq!(encoder.encode_value(&store, &features), encoder.encode_value(&store, &features));
    }

    /// Encodes `g` and `patches` through `encode_candidates` and checks every
    /// row against serially encoding the materialised graph from scratch.
    fn assert_candidate_encoding_matches_serial(
        encoder: &GnnEncoder,
        store: &ParamStore,
        context: &str,
        g: &Graph,
        patches: &[(&GraphPatch, &str)],
    ) {
        let current = GraphFeatures::from_graph(g);
        let deltas: Vec<_> = patches
            .iter()
            .map(|(patch, _)| GraphFeatures::delta_from_base_and_patch(g, &current, patch))
            .collect();
        let mut tape = Tape::new();
        let z = encoder.encode_candidates(&mut tape, store, &current, &deltas);
        let embeddings = tape.value(z).clone();
        assert_eq!(embeddings.shape(), &[patches.len() + 1, encoder.embedding_dim()]);
        let serial_current = encoder.encode_value(store, &current);
        assert_eq!(embeddings.row(0), serial_current.data(), "{context}: current-graph embedding");
        for (i, (patch, rule_name)) in patches.iter().enumerate() {
            let materialised = g.apply_patch(patch).unwrap();
            let serial = encoder.encode_value(store, &GraphFeatures::from_graph(&materialised));
            assert_eq!(
                embeddings.row(i + 1),
                serial.data(),
                "{context}: candidate {i} ({rule_name}) embedding diverges from the serial encode",
            );
        }
    }

    #[test]
    fn delta_aware_candidate_encoding_matches_serial_per_candidate() {
        // encode_candidates reuses clean rows across the batch; every
        // embedding must still be bit-identical to serially encoding the
        // materialised candidate from scratch.
        use xrlflow_rewrite::RuleSet;
        let mut store = ParamStore::new();
        let mut rng = XorShiftRng::new(7);
        let encoder = GnnEncoder::new(&mut store, tiny_config(), &mut rng);
        let rules = RuleSet::standard();
        let mut workloads: Vec<(String, Graph, usize)> =
            [(ModelKind::SqueezeNet, 16), (ModelKind::Bert, 16), (ModelKind::InceptionV3, 32)]
                .into_iter()
                .map(|(kind, k)| (kind.to_string(), build_model(kind, ModelScale::Bench).unwrap(), k))
                .collect();
        workloads.push(("rule-zoo".to_string(), rule_zoo_graph(), 32));
        for (name, g, max_candidates) in &workloads {
            let candidates = rules.generate_candidates(g, *max_candidates);
            assert!(!candidates.is_empty());
            let patches: Vec<_> = candidates.iter().map(|c| (c.patch(), c.rule_name)).collect();
            assert_candidate_encoding_matches_serial(&encoder, &store, name, g, &patches);
        }

        // Along a trajectory the base graph has id holes left by dead-node
        // elimination.
        let mut g = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
        for step in 0..6 {
            let candidates = rules.generate_candidates(&g, 16);
            assert!(!candidates.is_empty(), "the trajectory ran out of candidates at step {step}");
            let patches: Vec<_> = candidates.iter().map(|c| (c.patch(), c.rule_name)).collect();
            assert_candidate_encoding_matches_serial(&encoder, &store, &format!("step {step}"), &g, &patches);
            g = candidates[step % candidates.len()].materialize(&g).unwrap();
        }
    }

    #[test]
    fn delta_aware_candidate_encoding_matches_serial_on_the_patches_a_sparse_delta_can_get_wrong() {
        // A deeper stack than the graphs are long, so every dirty region
        // grows until it runs out of consumers.
        let mut store = ParamStore::new();
        let mut rng = XorShiftRng::new(9);
        let encoder =
            GnnEncoder::new(&mut store, EncoderConfig { hidden_dim: 16, num_gat_layers: 4 }, &mut rng);
        for case in sparse_delta_cases() {
            let patches = [(&case.patch, case.name)];
            assert_candidate_encoding_matches_serial(&encoder, &store, case.name, &case.graph, &patches);
        }
    }

    #[test]
    fn delta_aware_candidate_encoding_gradients_flow() {
        use xrlflow_rewrite::RuleSet;
        let mut store = ParamStore::new();
        let mut rng = XorShiftRng::new(8);
        let encoder = GnnEncoder::new(&mut store, tiny_config(), &mut rng);
        let g = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
        let current = GraphFeatures::from_graph(&g);
        let candidates = RuleSet::standard().generate_candidates(&g, 4);
        let deltas: Vec<_> = candidates
            .iter()
            .map(|c| GraphFeatures::delta_from_base_and_patch(&g, &current, c.patch()))
            .collect();
        let mut tape = Tape::new();
        let z = encoder.encode_candidates(&mut tape, &store, &current, &deltas);
        let sq = tape.mul(z, z);
        let loss = tape.sum_all(sq);
        store.zero_grad();
        tape.backward(loss, &mut store);
        assert!(store.grad_norm() > 0.0, "no gradient reached the encoder through encode_candidates");
    }

    #[test]
    fn gradients_flow_through_the_whole_encoder() {
        // Train the encoder to push the embedding's first component towards a
        // target: all layers must receive gradients for the loss to drop.
        let mut store = ParamStore::new();
        let mut rng = XorShiftRng::new(3);
        let encoder = GnnEncoder::new(&mut store, tiny_config(), &mut rng);
        let features = GraphFeatures::from_graph(&small_graph());
        let mut adam = Adam::new(0.01);
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..30 {
            let mut tape = Tape::new();
            let z = encoder.encode(&mut tape, &store, &features);
            let first = tape.pick(z, 0);
            let target = tape.constant(Tensor::scalar(0.75));
            let diff = tape.sub(first, target);
            let loss = tape.mul(diff, diff);
            last_loss = tape.value(loss).item();
            if first_loss.is_none() {
                first_loss = Some(last_loss);
            }
            store.zero_grad();
            tape.backward(loss, &mut store);
            adam.step(&mut store);
        }
        assert!(last_loss < first_loss.unwrap(), "loss did not decrease: {last_loss}");
    }

    #[test]
    fn parameter_count_scales_with_layers() {
        let mut store_small = ParamStore::new();
        let mut rng = XorShiftRng::new(4);
        let _ =
            GnnEncoder::new(&mut store_small, EncoderConfig { hidden_dim: 16, num_gat_layers: 1 }, &mut rng);
        let mut store_large = ParamStore::new();
        let mut rng = XorShiftRng::new(4);
        let _ =
            GnnEncoder::new(&mut store_large, EncoderConfig { hidden_dim: 16, num_gat_layers: 5 }, &mut rng);
        assert!(store_large.num_scalars() > store_small.num_scalars());
    }
}
