//! The graph-embedding network (Section 3.4 of the paper).
//!
//! The encoder is one node-update layer (Eq. 6), `k` graph-attention layers
//! (Eq. 7, GAT) and one global-readout layer (Eq. 8), producing a single
//! graph-level embedding used by the policy and value heads.
//!
//! [`GnnEncoder::encode`] embeds one graph and is the serial oracle. The
//! policy path is **one** delta-aware pass with two entry points: it encodes a
//! graph and all of its rewrite candidates from sparse [`CandidateDelta`]s,
//! re-computing per layer only the rows each patch can have changed. Its
//! host-side planning touches the patch's dirty region, not the graph, and
//! builds the layer plan in a fixed order that keeps forward bits and
//! gradient accumulation stable. The pass's only branch is where a *base*
//! row's values come from:
//!
//! * [`GnnEncoder::encode_candidates`] **computes** them on the tape. This is
//!   the differentiable form — the PPO update back-propagates through the
//!   base rows — and what a cold policy step runs.
//! * [`GnnEncoder::encode_step`] may **read** them from an
//!   [`EncoderEpisode`]. An episode rewrites one subgraph at a time, so the
//!   graph observed at step `t + 1` *is* the candidate chosen at step `t`,
//!   and everything the encoder would compute for its rows already sat on
//!   step `t`'s tape: a clean row's values in the base block, a dirty row's in
//!   the chosen candidate's compact block. [`EncoderEpisode::advance`] gathers
//!   them — per GAT layer the projected rows `W·h` and the two attention-score
//!   columns, plus the final hidden rows the readout sums — into the carried
//!   state, in the candidate's row order, which is the row order
//!   [`GraphFeatures::from_graph`] gives the materialised candidate. The next
//!   step then runs the node update on added rows only, projects per layer
//!   only the previous block's dirty rows, plans only the edges into dirty
//!   rows and reads every clean neighbour from the carried block: a policy
//!   step costs the patches' dirty rows, not the graph. Carried rows are
//!   constants, valid only under the parameters that produced them; the
//!   update never carries.
//!
//! A GAT layer's attention-weighted aggregate over the edge list is one fused
//! [`Tape::gather_scatter_rows`]: no `[E, H]` message matrix exists in the
//! forward or the backward pass. The candidate readout — a per-graph sum of
//! rows — is one [`Tape::sum_row_runs`] over *runs* of rows: a candidate is
//! its base graph's rows between a handful of exceptions, so it is described
//! in `O(exceptions)`, never by a list of its `N` rows, and its sum resumes
//! from the base graph's running sum at the first exception instead of
//! re-adding the prefix the two share. Both keep the serial encoder's
//! summation order, row for row.

use xrlflow_tensor::{
    xavier_uniform, Activation, Linear, ParamId, ParamStore, RowRun, Tape, Tensor, VarId, XorShiftRng,
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

/// Everything a GAT layer's edges read of their end rows, as three row-aligned
/// blocks: the projection `W·h` and the two attention-score columns. Each row
/// is a function of that row's `h` alone, so blocks computed apart can be
/// stacked — which is all an episode has to carry of a clean row per layer.
#[derive(Debug, Clone, Copy)]
struct LayerRows {
    wh: VarId,
    src_score: VarId,
    dst_score: VarId,
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
    fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        h: VarId,
        edge_src: &[usize],
        edge_dst: &[usize],
        num_nodes: usize,
    ) -> VarId {
        let rows = self.project(tape, store, h);
        self.attend(tape, rows, edge_src, edge_dst, edge_dst, num_nodes)
    }

    /// The per-row half of the layer: `W·h` and the per-node attention
    /// contributions — equivalent to scoring `[W h_src ‖ W h_dst]` against
    /// the full attention vector once gathered per edge.
    fn project(&self, tape: &mut Tape, store: &ParamStore, h: VarId) -> LayerRows {
        let wh = self.proj.forward(tape, store, h);
        let a_src = tape.param(store, self.attention_src);
        let a_dst = tape.param(store, self.attention_dst);
        let src_score = tape.matmul(wh, a_src);
        let dst_score = tape.matmul(wh, a_dst);
        LayerRows { wh, src_score, dst_score }
    }

    /// The per-edge half of the layer, in the general form delta-aware
    /// evaluation needs: the rows of `rows` an edge reads (`edge_src_rows` /
    /// `edge_dst_rows`) are decoupled from the output row the edge
    /// aggregates into (`edge_dst_slots`, over `out_rows` output rows), so a
    /// layer can compute only a dirty subset of nodes while reading
    /// neighbour rows shared with the base graph.
    fn attend(
        &self,
        tape: &mut Tape,
        rows: LayerRows,
        edge_src_rows: &[usize],
        edge_dst_rows: &[usize],
        edge_dst_slots: &[usize],
        out_rows: usize,
    ) -> VarId {
        let edge_src_score = tape.gather_rows(rows.src_score, edge_src_rows);
        let edge_dst_score = tape.gather_rows(rows.dst_score, edge_dst_rows);
        let scores = tape.add(edge_src_score, edge_dst_score);
        let scores = tape.activate(scores, Activation::LeakyRelu);
        let alpha = tape.segment_softmax(scores, edge_dst_slots, out_rows);
        // Σ_j alpha_ij · W h_j as one fused gather–scale–scatter over the
        // edge list: no `[E, H]` message matrix in either direction.
        let aggregated = tape.gather_scatter_rows(rows.wh, alpha, edge_src_rows, edge_dst_slots, out_rows);
        tape.activate(aggregated, Activation::Relu)
    }
}

/// [`dirty_region`]'s scratch value for a row no dirty neighbour has reached.
const CLEAN: u32 = u32::MAX;
/// [`dirty_region`]'s scratch value for a row the candidate removes.
const REMOVED: u32 = u32::MAX - 1;
/// "Not dirty" in the delta-aware pass's base-row → slot scratch.
const NO_SLOT: usize = usize::MAX;

/// Appends to `region` the surviving base rows of one candidate that a
/// `layers`-deep GAT stack must re-compute, ascending by row, each with the
/// first layer whose output for it differs from the base row's.
///
/// A rewired row's incoming sources differ, so it is dirty from layer 0; a
/// row reading a row dirty after layer `l - 1` is dirty from layer `l`. In
/// the candidate those readers are the dirty row's base consumers that
/// survive: a consumer rewired *away* from it is dirty already, and so is
/// every rewired or added row newly reading it. Added rows are dirty from
/// the node update on and are not listed.
///
/// `level` is a per-base-row scratch, all [`CLEAN`] on entry and on return;
/// the walk visits only the region and the delta's removed rows. `rows` is
/// scratch for the walk's visiting order.
fn dirty_region(
    current: &GraphFeatures,
    delta: &CandidateDelta,
    layers: usize,
    level: &mut [u32],
    rows: &mut Vec<u32>,
    region: &mut Vec<(u32, u32)>,
) {
    if layers == 0 {
        return;
    }
    for &row in &delta.removed {
        level[row as usize] = REMOVED;
    }
    rows.clear();
    rows.extend(delta.rewired.iter().map(|r| r.row));
    for &row in rows.iter() {
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
    let start = region.len();
    region.extend(rows.iter().map(|&row| (row, level[row as usize])));
    region[start..].sort_unstable();
    for &row in rows.iter().chain(&delta.removed) {
        level[row as usize] = CLEAN;
    }
}

/// One GAT layer's inputs to `GatLayer::attend`. Rows are numbered as in the
/// compact `[rows(current) ‖ dirty]` block whether or not the pass computes
/// the base block itself; the buffers are reused across layers.
#[derive(Debug, Default)]
struct LayerPlan {
    edge_src_rows: Vec<usize>,
    edge_dst_rows: Vec<usize>,
    edge_dst_slots: Vec<usize>,
    /// The next output row's number in the `[rows(current) ‖ dirty]` block.
    out_rows: usize,
    /// The number of the first row the layer computes: `0` when the base
    /// block is computed, `rows(current)` when it is carried.
    first_computed: usize,
}

impl LayerPlan {
    /// Starts a layer's plan: with the current graph's own rows and edges
    /// when the pass computes the base block, empty when it carries it.
    fn restart(&mut self, current: &GraphFeatures, base_carried: bool) {
        self.out_rows = current.num_nodes;
        self.edge_src_rows.clear();
        self.edge_dst_rows.clear();
        self.edge_dst_slots.clear();
        if base_carried {
            self.first_computed = current.num_nodes;
        } else {
            self.first_computed = 0;
            self.edge_src_rows.extend_from_slice(&current.edge_src);
            self.edge_dst_rows.extend_from_slice(&current.edge_dst);
            self.edge_dst_slots.extend_from_slice(&current.edge_dst);
        }
    }

    /// Appends one output row: its edge block reads `sources` and the row's
    /// own `dst_row`, all rows of the previous layer's block.
    fn push_row(&mut self, dst_row: usize, sources: impl Iterator<Item = usize>) {
        let before = self.edge_src_rows.len();
        self.edge_src_rows.extend(sources);
        let edges = self.edge_src_rows.len() - before;
        self.edge_dst_rows.extend(std::iter::repeat_n(dst_row, edges));
        self.edge_dst_slots.extend(std::iter::repeat_n(self.out_rows - self.first_computed, edges));
        self.out_rows += 1;
    }

    /// How many rows the layer computes.
    fn computed_rows(&self) -> usize {
        self.out_rows - self.first_computed
    }
}

/// The host-side scratch of one delta-aware pass, and what the pass leaves
/// behind for [`EncoderEpisode::advance`]. An episode keeps one across its
/// steps so no vector is re-allocated per step;
/// [`GnnEncoder::encode_candidates`] uses a fresh one per call.
#[derive(Debug, Default)]
struct PassScratch {
    /// Per candidate, where its dirty rows start in the block being read.
    first_slot: Vec<usize>,
    /// `first_slot` as it stood going into each GAT layer and, last, into the
    /// readout: `(layers + 1) × K`. A row dirty from level `ℓ` sits in a
    /// candidate's block only from layer `ℓ + 1`'s input on, so where a
    /// candidate's rows are has to be recorded per layer.
    input_slots: Vec<usize>,
    /// [`dirty_region`]'s per-base-row level scratch.
    level: Vec<u32>,
    /// [`dirty_region`]'s visiting order.
    visited: Vec<u32>,
    /// Base row → its compact row in the previous block, for the one
    /// candidate being planned; [`NO_SLOT`] otherwise.
    slot_of: Vec<usize>,
    /// Every candidate's dirty region, back to back.
    regions: Vec<(u32, u32)>,
    /// Where each candidate's region ends in `regions`.
    region_ends: Vec<usize>,
    plan: LayerPlan,
    /// The readout's runs: each graph's rows over `[rows(current) ‖ dirty]`.
    runs: Vec<RowRun>,
    exceptions: Vec<(u32, Option<usize>)>,
    /// The rows each GAT layer read, over `[rows(current) ‖ dirty]`.
    layer_rows: Vec<LayerRows>,
    /// The rows the readout summed, over `[rows(current) ‖ dirty]`.
    hidden: Option<VarId>,
    /// `rows(current)` of the pass.
    base_rows: usize,
}

/// One candidate's slice of [`PassScratch::regions`].
fn region_of<'a>(regions: &'a [(u32, u32)], ends: &[usize], candidate: usize) -> &'a [(u32, u32)] {
    let start = if candidate == 0 { 0 } else { ends[candidate - 1] };
    &regions[start..ends[candidate]]
}

/// One GAT layer's [`LayerRows`] of a graph's rows, as plain values.
#[derive(Debug, Default)]
struct CarriedLayer {
    wh: Vec<f32>,
    src_score: Vec<f32>,
    dst_score: Vec<f32>,
}

/// Everything the delta-aware pass reads of a graph's own rows:
/// `(layers + 1)·N·H + 2·layers·N` floats.
#[derive(Debug, Default)]
struct CarriedRows {
    rows: usize,
    layers: Vec<CarriedLayer>,
    /// The last GAT layer's output, `[rows, hidden]`.
    hidden: Vec<f32>,
}

/// A constant leaf holding `prefix` followed by the rows of `suffix`.
fn constant_in_front(tape: &mut Tape, prefix: &[f32], suffix: Option<VarId>, cols: usize) -> VarId {
    let suffix_len = suffix.map_or(0, |suffix| tape.value(suffix).numel());
    let mut data = Vec::with_capacity(prefix.len() + suffix_len);
    data.extend_from_slice(prefix);
    if let Some(suffix) = suffix {
        data.extend_from_slice(tape.value(suffix).data());
    }
    let rows = data.len() / cols;
    tape.constant(Tensor::from_vec(data, &[rows, cols]))
}

/// Replaces `out` with the chosen candidate's rows of `source` — a
/// `[rows(current) ‖ dirty]` block the pass read — in candidate row order:
/// surviving base rows ascending, each from the candidate's own block if it
/// was dirty there (`level < dirty_below`, in order from `first_slot`) and
/// from the base block otherwise, then the added rows.
fn gather_candidate_rows(
    out: &mut Vec<f32>,
    source: &Tensor,
    base_rows: usize,
    delta: &CandidateDelta,
    region: &[(u32, u32)],
    dirty_below: u32,
    first_slot: usize,
) {
    let cols = source.cols();
    let rows = |from: usize, to: usize| &source.data()[from * cols..to * cols];
    let mut removed = delta.removed.iter().map(|&row| row as usize).peekable();
    // Base rows `from..to` minus the removed ones: runs of clean rows move
    // as one copy each.
    let mut extend_surviving = |out: &mut Vec<f32>, mut from: usize, to: usize| {
        while let Some(gone) = removed.next_if(|&gone| gone < to) {
            out.extend_from_slice(rows(from, gone));
            from = gone + 1;
        }
        out.extend_from_slice(rows(from, to));
    };
    out.clear();
    let mut slot = first_slot;
    let mut next = 0;
    for &(row, level) in region {
        if level < dirty_below {
            extend_surviving(out, next, row as usize);
            out.extend_from_slice(rows(slot, slot + 1));
            slot += 1;
            next = row as usize + 1;
        }
    }
    extend_surviving(out, next, base_rows);
    out.extend_from_slice(rows(slot, slot + delta.added.len()));
}

/// The encoder's state across the steps of one rewriting episode: the
/// host-side scratch of the delta-aware pass and the **carried rows** — what
/// the pass reads of the observed graph's own rows, gathered off the previous
/// step's tape instead of being re-computed (see the module docs).
///
/// The protocol: [`EncoderEpisode::advance`] gathers a candidate of the last
/// [`GnnEncoder::encode_step`] off its tape, and the *next* `encode_step`
/// reads those rows — once. Advancing is for the owner to do when, and only
/// when, the next observation really is that candidate (`xrlflow-core`'s
/// episode evaluator compares graph pointers and gathers just before the
/// step); a step nothing was advanced for runs cold through the same code.
///
/// Carried rows are values, not tape variables: they are only valid under
/// the parameters that produced them, and nothing back-propagates through
/// them. One set of buffers is owned here and reused from step to step — a
/// pass copies what it reads of them onto the tape, so `advance` gathers
/// the next rows over the previous ones — and dies with the episode.
#[derive(Debug, Default)]
pub struct EncoderEpisode {
    scratch: PassScratch,
    /// The chosen candidate's rows after [`EncoderEpisode::advance`].
    carried: CarriedRows,
    /// Whether `carried` was gathered for the next step (as opposed to
    /// already read by an earlier one).
    advanced: bool,
}

impl EncoderEpisode {
    /// An episode with nothing carried: its first step is cold.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gathers the rows of candidate `chosen` off `tape` into the carried
    /// state for the next [`GnnEncoder::encode_step`] to read. `tape` (not
    /// yet recycled) and `deltas` must be those of the last `encode_step`.
    /// Pure copying — `O(N·H·layers)`, no arithmetic.
    ///
    /// # Panics
    ///
    /// Panics when `deltas` is not as long as the last step's candidate list
    /// or `chosen` is out of range.
    pub fn advance(&mut self, tape: &Tape, deltas: &[CandidateDelta], chosen: usize) {
        let scratch = &self.scratch;
        let num_candidates = scratch.first_slot.len();
        assert_eq!(deltas.len(), num_candidates, "advance needs the deltas of the last encode_step");
        let (delta, region) = (&deltas[chosen], region_of(&scratch.regions, &scratch.region_ends, chosen));
        let hidden = scratch.hidden.expect("advance follows an encode_step");
        let layers = scratch.layer_rows.len();

        // Every source is on the tape (a carried pass stacked its copies of
        // the old rows there), so the new rows overwrite the old in place.
        let next = &mut self.carried;
        next.rows = scratch.base_rows - delta.removed.len() + delta.added.len();
        next.layers.resize_with(layers, CarriedLayer::default);
        let gather = |out: &mut Vec<f32>, source: VarId, layer: usize| {
            let first_slot = scratch.input_slots[layer * num_candidates + chosen];
            let source = tape.value(source);
            gather_candidate_rows(out, source, scratch.base_rows, delta, region, layer as u32, first_slot);
        };
        for (layer, (rows, out)) in scratch.layer_rows.iter().zip(&mut next.layers).enumerate() {
            gather(&mut out.wh, rows.wh, layer);
            gather(&mut out.src_score, rows.src_score, layer);
            gather(&mut out.dst_score, rows.dst_score, layer);
        }
        gather(&mut next.hidden, hidden, layers);
        self.advanced = true;
    }

    /// Records the readout sum of the last [`GnnEncoder::encode_step`] once
    /// more on its (not yet recycled) `tape` — the per-graph row sums on
    /// their own, which is what `bench_gnn` times.
    ///
    /// # Panics
    ///
    /// Panics when no `encode_step` has run on this episode.
    pub fn readout_again(&self, tape: &mut Tape) -> VarId {
        let hidden = self.scratch.hidden.expect("the readout follows an encode_step");
        tape.sum_row_runs(hidden, &self.scratch.runs, self.scratch.first_slot.len() + 1)
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

    /// Encodes a featurised graph into a `[1, hidden_dim]` embedding on the
    /// given tape.
    ///
    /// This is the serial reference path; the agent's per-step policy
    /// evaluation uses [`GnnEncoder::encode_candidates`], which embeds the
    /// graph and all of its rewrite candidates in one forward pass and is
    /// bit-identical per graph.
    pub fn encode(&self, tape: &mut Tape, store: &ParamStore, features: &GraphFeatures) -> VarId {
        // Eq. 6: update node attributes from incoming edge attributes.
        let edge_feats = tape.constant(features.edge_features.clone());
        let incoming = tape.scatter_add_rows(edge_feats, &features.edge_dst, features.num_nodes);
        let node_feats = tape.constant(features.node_features.clone());
        let combined = tape.concat_cols(incoming, node_feats);
        let mut h = self.node_update.forward(tape, store, combined);

        // Eq. 7: k rounds of graph attention.
        for layer in &self.gat_layers {
            h = layer.forward(tape, store, h, &features.edge_src, &features.edge_dst, features.num_nodes);
        }

        // Eq. 8: global readout over all node embeddings plus the (zero)
        // initial global attribute.
        let summed = tape.sum_rows(h);
        let global0 = tape.constant(Tensor::zeros(&[1, self.config.hidden_dim]));
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
    /// graph's rows or edges, the readout's run list included.
    ///
    /// **Plan order.** The layer maths runs through the same GAT-layer code
    /// as [`GnnEncoder::encode`] on a compact `[rows(current) ‖ dirty]`
    /// block, and the order of that block is an invariant: after the current
    /// graph's own rows and edges come the candidates in order; within a
    /// candidate its dirty rows ascending in candidate row order (surviving
    /// base rows ascending, then added rows in patch order); within a row
    /// its edge block in input order, then the self-loop. The readout sums
    /// every candidate's rows in candidate row order. Same order, same
    /// forward bits *and* the same gradient accumulation order — which is
    /// what keeps a training run's parameters bit-stable across changes to
    /// how the plan is built.
    ///
    /// The current graph's rows are computed on the tape here, so a loss
    /// differentiates through them; an episode's inference steps go through
    /// [`GnnEncoder::encode_step`], which runs this same pass but may read
    /// those rows from the previous step.
    pub fn encode_candidates(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        current: &GraphFeatures,
        deltas: &[CandidateDelta],
    ) -> VarId {
        self.encode_deltas(tape, store, current, deltas, None, &mut PassScratch::default())
    }

    /// [`GnnEncoder::encode_candidates`] for one step of an episode —
    /// inference only, bit-identical embeddings.
    ///
    /// After an [`EncoderEpisode::advance`], `current` must be the features
    /// of the candidate advanced to: the pass then reads that graph's rows
    /// from the episode's carried state as constants and computes dirty rows
    /// only — the node update runs on added rows, each GAT layer projects the
    /// previous block's dirty rows and plans the edges into dirty rows, and
    /// the readout sums over `[carried ‖ dirty]` with the same run list. The
    /// rows are read once; a step nothing was advanced for (a first step,
    /// another graph) is cold: the very pass `encode_candidates` runs, on the
    /// episode's scratch.
    ///
    /// # Panics
    ///
    /// Panics when `current` does not have the row count of the candidate
    /// that was advanced to.
    pub fn encode_step(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        current: &GraphFeatures,
        deltas: &[CandidateDelta],
        episode: &mut EncoderEpisode,
    ) -> VarId {
        let carried = std::mem::take(&mut episode.advanced).then_some(&episode.carried);
        self.encode_deltas(tape, store, current, deltas, carried, &mut episode.scratch)
    }

    /// The delta-aware pass behind [`GnnEncoder::encode_candidates`] (base
    /// rows computed: `carried` is `None`) and [`GnnEncoder::encode_step`]
    /// (base rows read from `carried`).
    ///
    /// Rows are numbered the same either way — the current graph's rows
    /// `0..n`, then the dirty rows — so the plan and the readout's runs do not
    /// know the difference; what differs is which of those rows this tape
    /// computes. Computed, the hidden block holds all of them. Carried, it
    /// holds the dirty rows alone (`None` when there is none — an empty
    /// tensor never reaches a kernel), and each layer stacks its projection
    /// under the carried base block before the edges read it.
    fn encode_deltas(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        current: &GraphFeatures,
        deltas: &[CandidateDelta],
        carried: Option<&CarriedRows>,
        scratch: &mut PassScratch,
    ) -> VarId {
        let n = current.num_nodes;
        let hidden = self.config.hidden_dim;
        let in_dim = GraphFeatures::node_feature_dim() + 4;
        if let Some(carried) = carried {
            assert_eq!(carried.rows, n, "the carried rows are not those of the observed graph");
            assert_eq!(carried.layers.len(), self.gat_layers.len(), "carried under another encoder");
        }
        // A cold pass always computes the base block; a carried one computes
        // dirty rows, of which there may be none.
        let computes = |rows: usize| carried.is_none() || rows > 0;
        let PassScratch {
            first_slot,
            input_slots,
            level,
            visited,
            slot_of,
            regions,
            region_ends,
            plan,
            runs,
            exceptions,
            layer_rows,
            hidden: hidden_rows,
            base_rows,
        } = scratch;
        *base_rows = n;

        // Node-update inputs for the rows that have none yet: the current
        // graph's rows unless they are carried, then every candidate's added
        // rows (`[incoming ‖ one-hot]`, accumulated exactly like the serial
        // scatter-add path). Only added rows have inputs differing from a
        // base row's, so they are the dirty region going into the first GAT
        // layer; `first_slot[k]` is where candidate k's dirty rows start in
        // the compact block.
        first_slot.clear();
        let mut rows = n;
        for delta in deltas {
            first_slot.push(rows);
            rows += delta.added.len();
        }
        let input_rows = if carried.is_some() { rows - n } else { rows };
        let mut block = computes(input_rows).then(|| {
            let mut input_data = Vec::with_capacity(input_rows * in_dim);
            if carried.is_none() {
                for row in 0..n {
                    current.push_node_input_row(row, &mut input_data);
                }
            }
            for delta in deltas {
                delta.push_added_input_rows(&mut input_data);
            }
            let inputs = tape.constant(Tensor::from_vec(input_data, &[input_rows, in_dim]));
            self.node_update.forward(tape, store, inputs)
        });

        // Each candidate's dirty base rows over the whole stack, found once.
        level.clear();
        level.resize(n, CLEAN);
        regions.clear();
        region_ends.clear();
        for delta in deltas {
            dirty_region(current, delta, self.gat_layers.len(), level, visited, regions);
            region_ends.push(regions.len());
        }

        // `slot_of` maps a base row to its compact row in the previous
        // layer's block, for the one candidate being planned. It and the plan
        // are reused across the GAT stack (the layer loop is the encoder's
        // hot loop — see the tensor hot-path rules in ROADMAP.md).
        slot_of.clear();
        slot_of.resize(n, NO_SLOT);
        input_slots.clear();
        layer_rows.clear();

        for (layer_index, layer) in self.gat_layers.iter().enumerate() {
            input_slots.extend_from_slice(first_slot);
            // The layer's edge plan: the current graph's full edge list
            // unless its rows are carried, then every edge into a dirty
            // destination. Clean neighbours read the current graph's rows
            // (their embeddings are identical), dirty neighbours read their
            // compact slots.
            plan.restart(current, carried.is_some());
            for (k, (delta, first_slot)) in deltas.iter().zip(first_slot.iter_mut()).enumerate() {
                let region = region_of(regions, region_ends, k);
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

            let projected = block.map(|h| layer.project(tape, store, h));
            let rows = match carried {
                None => projected.expect("a cold pass computes the base block"),
                Some(carried) => {
                    let base = &carried.layers[layer_index];
                    LayerRows {
                        wh: constant_in_front(tape, &base.wh, projected.map(|p| p.wh), hidden),
                        src_score: constant_in_front(
                            tape,
                            &base.src_score,
                            projected.map(|p| p.src_score),
                            1,
                        ),
                        dst_score: constant_in_front(
                            tape,
                            &base.dst_score,
                            projected.map(|p| p.dst_score),
                            1,
                        ),
                    }
                }
            };
            layer_rows.push(rows);
            block = computes(plan.computed_rows()).then(|| {
                layer.attend(
                    tape,
                    rows,
                    &plan.edge_src_rows,
                    &plan.edge_dst_rows,
                    &plan.edge_dst_slots,
                    plan.computed_rows(),
                )
            });
        }
        input_slots.extend_from_slice(first_slot);
        let h = match carried {
            None => block.expect("a cold pass computes the base block"),
            Some(carried) => constant_in_front(tape, &carried.hidden, block, hidden),
        };
        *hidden_rows = Some(h);

        // Per-graph readout: sum every graph's rows (clean candidate rows
        // from the current graph's block) in row order, reproducing the
        // serial row-order accumulation bit for bit. A candidate's rows are
        // the current graph's between its exceptions — removed rows, and
        // dirty rows read from the candidate's own slots — then its added
        // rows: a few runs, built without visiting a clean row. Its first
        // run is a prefix of the current graph's, which is where
        // `sum_row_runs` resumes its sum from.
        runs.clear();
        let mut push_run = |start: usize, len: usize, segment: usize| {
            if len > 0 {
                runs.push(RowRun { start, len, segment });
            }
        };
        push_run(0, n, 0);
        for (k, (delta, &first_slot)) in deltas.iter().zip(first_slot.iter()).enumerate() {
            let region = region_of(regions, region_ends, k);
            exceptions.clear();
            exceptions.extend(delta.removed.iter().map(|&row| (row, None)));
            exceptions.extend(region.iter().enumerate().map(|(at, &(row, _))| (row, Some(first_slot + at))));
            exceptions.sort_unstable_by_key(|&(row, _)| row);
            let mut next = 0;
            for &(row, slot) in exceptions.iter() {
                push_run(next, row as usize - next, k + 1);
                if let Some(slot) = slot {
                    push_run(slot, 1, k + 1);
                }
                next = row as usize + 1;
            }
            push_run(next, n - next, k + 1);
            push_run(first_slot + region.len(), delta.added.len(), k + 1);
        }
        let summed = tape.sum_row_runs(h, runs, deltas.len() + 1);
        let global0 = tape.constant(Tensor::zeros(&[deltas.len() + 1, self.config.hidden_dim]));
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
    use xrlflow_tensor::{Adam, GradBuffer};

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
        assert_eq!(embeddings.shape(), &[patches.len() + 1, encoder.config().hidden_dim]);
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

    /// One step of an episode through `encode_step`, checked row for row
    /// against `encode_candidates` on a fresh tape. Returns the deltas for
    /// `EncoderEpisode::advance`.
    fn assert_step_matches_computed(
        encoder: &GnnEncoder,
        store: &ParamStore,
        context: &str,
        g: &Graph,
        patches: &[&GraphPatch],
        (tape, episode): (&mut Tape, &mut EncoderEpisode),
    ) -> Vec<CandidateDelta> {
        let current = GraphFeatures::from_graph(g);
        let deltas: Vec<_> = patches
            .iter()
            .map(|patch| GraphFeatures::delta_from_base_and_patch(g, &current, patch))
            .collect();
        tape.recycle();
        let z = encoder.encode_step(tape, store, &current, &deltas, episode);
        let mut reference = Tape::new();
        let expected = encoder.encode_candidates(&mut reference, store, &current, &deltas);
        assert_eq!(tape.value(z), reference.value(expected), "{context}: step embeddings diverge");
        deltas
    }

    #[test]
    fn carried_encoding_matches_computed_along_trajectories() {
        // Every step after the first reads the observed graph's rows from the
        // previous step instead of computing them; the embeddings must not
        // know. A stack deeper than the rule-zoo chains are long (and, for
        // the edges of the per-layer bookkeeping, one layer and none),
        // several ways of choosing, and SqueezeNet for a graph with branches.
        use xrlflow_rewrite::RuleSet;
        let rules = RuleSet::standard();
        let squeezenet = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
        for (name, start, max_candidates, num_gat_layers) in [
            ("rule-zoo", rule_zoo_graph(), 32, 4),
            ("rule-zoo", rule_zoo_graph(), 32, 1),
            ("rule-zoo", rule_zoo_graph(), 32, 0),
            ("SqueezeNet", squeezenet, 16, 4),
        ] {
            let mut store = ParamStore::new();
            let mut rng = XorShiftRng::new(21);
            let encoder =
                GnnEncoder::new(&mut store, EncoderConfig { hidden_dim: 16, num_gat_layers }, &mut rng);
            for stride in [1usize, 3, 7] {
                let (mut tape, mut episode) = (Tape::new(), EncoderEpisode::new());
                let mut g = start.clone();
                let mut carried_steps = 0;
                for step in 0..12 {
                    let candidates = rules.generate_candidates(&g, max_candidates);
                    let patches: Vec<_> = candidates.iter().map(|c| c.patch()).collect();
                    let context = format!("{name}, {num_gat_layers} layers, stride {stride}, step {step}");
                    let scratch = (&mut tape, &mut episode);
                    let deltas =
                        assert_step_matches_computed(&encoder, &store, &context, &g, &patches, scratch);
                    carried_steps += usize::from(step > 0);
                    if candidates.is_empty() {
                        break;
                    }
                    let chosen = (step * stride) % candidates.len();
                    episode.advance(&tape, &deltas, chosen);
                    g = candidates[chosen].materialize(&g).unwrap();
                }
                assert!(carried_steps >= 5, "{name}: the trajectory must be long enough to carry");
            }
        }
    }

    /// Hand-built second-step patches for any graph: every shape-preserving
    /// unary node is bypassed (no added row) and, separately, replaced by a
    /// new node reading its input (its consumers are rewired onto an added
    /// row).
    fn unary_rewrites(g: &Graph) -> Vec<GraphPatch> {
        use xrlflow_graph::PatchBuilder;
        let mut patches = Vec::new();
        for (id, node) in g.iter() {
            let unary = [OpKind::Identity, OpKind::Relu, OpKind::Tanh, OpKind::Sigmoid, OpKind::Gelu];
            if !unary.contains(&node.op) {
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
    fn carried_encoding_matches_computed_on_the_patches_a_sparse_delta_can_get_wrong() {
        // Two advances deep from every hand-built case: the case's patch
        // (revived unreachable rows, chained rewires, dead added nodes, …),
        // then each unary rewrite of the result, then a step on that — with a
        // stack deeper than the graphs are long, so every row's dirty level
        // is exercised by the gather.
        let mut store = ParamStore::new();
        let mut rng = XorShiftRng::new(22);
        let encoder =
            GnnEncoder::new(&mut store, EncoderConfig { hidden_dim: 16, num_gat_layers: 4 }, &mut rng);
        let mut second_steps = 0;
        for case in sparse_delta_cases() {
            let first = case.graph.apply_patch(&case.patch).unwrap();
            let rewrites = unary_rewrites(&first);
            let second_patches: Vec<_> = rewrites.iter().collect();
            // `usize::MAX` stands for "stop after the second step".
            for chosen in (0..second_patches.len()).chain([usize::MAX]) {
                let (mut tape, mut episode) = (Tape::new(), EncoderEpisode::new());
                let name = case.name;
                let deltas = assert_step_matches_computed(
                    &encoder,
                    &store,
                    name,
                    &case.graph,
                    &[&case.patch],
                    (&mut tape, &mut episode),
                );
                episode.advance(&tape, &deltas, 0);
                let context = format!("{name}, second step");
                let scratch = (&mut tape, &mut episode);
                let deltas = assert_step_matches_computed(
                    &encoder,
                    &store,
                    &context,
                    &first,
                    &second_patches,
                    scratch,
                );
                if chosen == usize::MAX {
                    continue;
                }
                episode.advance(&tape, &deltas, chosen);
                let second = first.apply_patch(second_patches[chosen]).unwrap();
                let rewrites = unary_rewrites(&second);
                let third_patches: Vec<_> = rewrites.iter().collect();
                let context = format!("{name}, third step after rewrite {chosen}");
                let scratch = (&mut tape, &mut episode);
                assert_step_matches_computed(&encoder, &store, &context, &second, &third_patches, scratch);
                second_steps += 1;
            }
        }
        assert!(second_steps >= 10, "the cases must leave unary nodes to rewrite, got {second_steps}");
    }

    #[test]
    fn a_carry_is_read_once_and_a_step_nothing_was_advanced_for_is_cold() {
        use xrlflow_rewrite::RuleSet;
        let mut store = ParamStore::new();
        let mut rng = XorShiftRng::new(23);
        let encoder = GnnEncoder::new(&mut store, tiny_config(), &mut rng);
        let rules = RuleSet::standard();
        let g = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
        let (mut tape, mut episode) = (Tape::new(), EncoderEpisode::new());
        let step = |g: &Graph, tape: &mut Tape, episode: &mut EncoderEpisode, context: &str| {
            let candidates = rules.generate_candidates(g, 8);
            let patches: Vec<_> = candidates.iter().map(|c| c.patch()).collect();
            let deltas =
                assert_step_matches_computed(&encoder, &store, context, g, &patches, (tape, episode));
            (candidates, deltas)
        };
        // The node update's rows tell the two kinds of step apart.
        let computes_base_rows =
            |tape: &Tape, g: &Graph| tape.matmul_shapes().next().unwrap()[0] >= g.num_nodes();

        let (candidates, deltas) = step(&g, &mut tape, &mut episode, "first step");
        assert!(computes_base_rows(&tape, &g));
        episode.advance(&tape, &deltas, 0);
        let next = candidates[0].materialize(&g).unwrap();
        step(&next, &mut tape, &mut episode, "advanced");
        assert!(!computes_base_rows(&tape, &next), "the step after an advance reads its base rows");
        step(&next, &mut tape, &mut episode, "the same graph again");
        assert!(computes_base_rows(&tape, &next), "the rows were read once; nothing was advanced since");
    }

    #[test]
    fn a_carried_step_multiplies_dirty_rows_only() {
        // The counting pin: on a carried InceptionV3 step at K = 32 the rows
        // entering the node update and every GAT projection are the cold
        // pass's minus the whole base block — no base row is re-computed.
        use xrlflow_rewrite::RuleSet;
        let mut store = ParamStore::new();
        let mut rng = XorShiftRng::new(24);
        let config = EncoderConfig { hidden_dim: 32, num_gat_layers: 3 };
        let encoder = GnnEncoder::new(&mut store, config, &mut rng);
        let rules = RuleSet::standard();
        let g = build_model(ModelKind::InceptionV3, ModelScale::Bench).unwrap();
        let (mut tape, mut episode) = (Tape::new(), EncoderEpisode::new());
        let candidates = rules.generate_candidates(&g, 32);
        let patches: Vec<_> = candidates.iter().map(|c| c.patch()).collect();
        let scratch = (&mut tape, &mut episode);
        let deltas = assert_step_matches_computed(&encoder, &store, "first step", &g, &patches, scratch);
        episode.advance(&tape, &deltas, 5);
        let next = candidates[5].materialize(&g).unwrap();

        let current = GraphFeatures::from_graph(&next);
        let candidates = rules.generate_candidates(&next, 32);
        assert_eq!(candidates.len(), 32);
        let deltas: Vec<_> = candidates
            .iter()
            .map(|c| GraphFeatures::delta_from_base_and_patch(&next, &current, c.patch()))
            .collect();
        let mut cold_tape = Tape::new();
        encoder.encode_candidates(&mut cold_tape, &store, &current, &deltas);
        tape.recycle();
        encoder.encode_step(&mut tape, &store, &current, &deltas, &mut episode);

        let cold: Vec<_> = cold_tape.matmul_shapes().collect();
        let carried: Vec<_> = tape.matmul_shapes().collect();
        // Node update, three products per GAT layer, the global update.
        assert_eq!(cold.len(), 1 + 3 * config.num_gat_layers + 1);
        assert_eq!(carried.len(), cold.len());
        let n = current.num_nodes;
        let (readout, per_row) = cold.split_last().unwrap();
        for (at, (cold, carried)) in per_row.iter().zip(&carried).enumerate() {
            assert!(cold[0] > n, "product {at}: the cold pass multiplies base and dirty rows");
            assert_eq!(
                carried[0],
                cold[0] - n,
                "product {at}: a carried step multiplies the dirty rows alone"
            );
            assert!(carried[0] < n / 2, "product {at}: InceptionV3's dirty rows are a fraction of the graph");
            assert_eq!(carried[1..], cold[1..]);
        }
        assert_eq!(carried.last().unwrap(), readout, "the readout is one row per graph either way");
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
        let mut grads = GradBuffer::zeros_like(&store);
        tape.backward_into(loss, &mut grads);
        assert!(grads.norm() > 0.0, "no gradient reached the encoder through encode_candidates");
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
        let mut grads = GradBuffer::zeros_like(&store);
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
            grads.zero_fill();
            tape.backward_into(loss, &mut grads);
            adam.step(&mut store, &grads);
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
