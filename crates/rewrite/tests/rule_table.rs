//! The hand-written rules the substitution table replaced, kept as its
//! oracle: every rule's own matcher and patch builder, as they were when
//! each rule was a `RewriteRule` impl, with "single consumer" answered by a
//! whole-graph scan per site. The table must give the same candidate lists
//! — rule id, name, patch, structural hash and order, at the 32-candidate
//! cap and uncapped — and the same match counts, on every graph of the zoo
//! trajectories, the rule-zoo graph and the sparse-delta bases, for the
//! standard rule set and for PET's.

use xrlflow_bench::fixtures::{rule_zoo_graph, sparse_delta_cases, zoo_trajectories};
use xrlflow_graph::{
    FusedActivation, Graph, GraphError, GraphPatch, NodeId, OpAttributes, OpKind, Padding, PatchBuilder,
    TensorRef,
};
use xrlflow_rewrite::rules::STANDARD;
use xrlflow_rewrite::{find_siblings_sharing_input, is_parameter, Candidate, RuleSet};
use xrlflow_taso::PARTIALLY_EQUIVALENT_CONV;

/// A hand-written rule: locate every site, describe the rewrite at one.
trait RewriteRule {
    fn name(&self) -> &'static str;
    fn find_matches(&self, graph: &Graph) -> Vec<RuleMatch>;
    fn build_patch(&self, graph: &Graph, site: &RuleMatch) -> Result<GraphPatch, GraphError>;
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct RuleMatch {
    nodes: Vec<NodeId>,
}

impl RuleMatch {
    fn new(nodes: Vec<NodeId>) -> Self {
        Self { nodes }
    }

    fn expect_nodes<const N: usize>(&self) -> [NodeId; N] {
        self.nodes.as_slice().try_into().expect("a rule applies only the matches it produced")
    }
}

/// The standard rules, in rule-id order.
fn standard_rules() -> Vec<Box<dyn RewriteRule>> {
    vec![
        Box::new(FuseActivation::new("fuse-conv-relu", OpKind::Conv2d, OpKind::Relu)),
        Box::new(FuseActivation::new("fuse-conv-sigmoid", OpKind::Conv2d, OpKind::Sigmoid)),
        Box::new(FuseActivation::new("fuse-matmul-relu", OpKind::MatMul, OpKind::Relu)),
        Box::new(FuseActivation::new("fuse-matmul-gelu", OpKind::MatMul, OpKind::Gelu)),
        Box::new(FuseActivation::new("fuse-matmul-tanh", OpKind::MatMul, OpKind::Tanh)),
        Box::new(FuseActivation::new("fuse-matmul-sigmoid", OpKind::MatMul, OpKind::Sigmoid)),
        Box::new(FuseConvBatchNorm),
        Box::new(FuseBiasAdd::new("fuse-matmul-bias", OpKind::MatMul)),
        Box::new(FuseBiasAdd::new("fuse-conv-bias", OpKind::Conv2d)),
        Box::new(FuseDoubleBatchNorm),
        Box::new(MergeMatMulSharedLhs),
        Box::new(MergeMatMulSharedRhs),
        Box::new(MergeConvSharedInput),
        Box::new(EnlargeConvKernel),
        Box::new(EliminatePassThrough),
        Box::new(EliminateTransposePair),
        Box::new(MergeReshapePair),
        Box::new(EliminateSplitConcat),
        Box::new(EliminateSqueezePair),
        Box::new(ReassociateMatMul::right_to_left()),
        Box::new(ReassociateMatMul::left_to_right()),
    ]
}

fn pet_rules() -> Vec<Box<dyn RewriteRule>> {
    let mut rules = standard_rules();
    rules.push(Box::new(PartiallyEquivalentConv));
    rules
}

/// `RuleSet::generate_candidates` over hand-written rules.
fn generate_candidates(
    rules: &[Box<dyn RewriteRule>],
    graph: &Graph,
    max_candidates: usize,
) -> Vec<Candidate> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    'outer: for (rule_id, rule) in rules.iter().enumerate() {
        for site in rule.find_matches(graph) {
            let Ok(patch) = rule.build_patch(graph, &site) else { continue };
            if patch.is_noop() {
                continue;
            }
            let candidate = Candidate::new(patch, rule_id, rule.name(), graph);
            if !seen.insert(candidate.hash) {
                continue;
            }
            out.push(candidate);
            if out.len() >= max_candidates {
                break 'outer;
            }
        }
    }
    out
}

/// `true` when the node's outputs are read by exactly one node and the node
/// is no graph output — one whole-graph scan per question.
fn has_single_consumer(graph: &Graph, id: NodeId) -> bool {
    let mut consumers: Vec<NodeId> = graph
        .iter()
        .filter(|(_, node)| node.inputs.iter().any(|r| r.node == id))
        .map(|(consumer, _)| consumer)
        .collect();
    consumers.dedup();
    consumers.len() == 1 && !graph.outputs().iter().any(|r| r.node == id)
}

/// Every chain `first -> second` with `second` the sole consumer of `first`.
fn find_chains(graph: &Graph, first: OpKind, second: OpKind) -> Vec<(NodeId, NodeId)> {
    let mut out = Vec::new();
    for (id, node) in graph.iter().filter(|(_, node)| node.op == second) {
        for input in &node.inputs {
            let Ok(producer) = graph.node(input.node) else { continue };
            if producer.op == first && has_single_consumer(graph, input.node) {
                out.push((input.node, id));
            }
        }
    }
    out
}

fn depends_on(graph: &Graph, node: NodeId, ancestor: NodeId) -> bool {
    let mut visited = vec![false; graph.id_bound()];
    let mut stack = vec![node];
    while let Some(id) = stack.pop() {
        if id == ancestor {
            return true;
        }
        let Ok(n) = graph.node(id) else { continue };
        if !std::mem::replace(&mut visited[id.index()], true) {
            stack.extend(n.inputs.iter().map(|r| r.node));
        }
    }
    false
}

fn is_constant_derived(graph: &Graph, r: TensorRef) -> bool {
    is_parameter(graph, r) || graph.is_foldable(r.node)
}

// Fusion family.

fn activation_of(op: OpKind) -> Option<FusedActivation> {
    match op {
        OpKind::Relu => Some(FusedActivation::Relu),
        OpKind::Sigmoid => Some(FusedActivation::Sigmoid),
        OpKind::Tanh => Some(FusedActivation::Tanh),
        OpKind::Gelu => Some(FusedActivation::Gelu),
        _ => None,
    }
}

/// Fuses `producer -> activation` into a single operator with a fused
/// epilogue, where `producer` is a convolution or matrix multiplication.
#[derive(Debug, Clone)]
struct FuseActivation {
    name: &'static str,
    producer: OpKind,
    activation: OpKind,
}

impl FuseActivation {
    /// Creates a fusion rule for the given producer/activation pair.
    ///
    /// # Panics
    ///
    /// Panics if `activation` is not a fusible activation.
    fn new(name: &'static str, producer: OpKind, activation: OpKind) -> Self {
        assert!(activation_of(activation).is_some(), "{activation} is not fusible");
        Self { name, producer, activation }
    }
}

impl RewriteRule for FuseActivation {
    fn name(&self) -> &'static str {
        self.name
    }

    fn find_matches(&self, graph: &Graph) -> Vec<RuleMatch> {
        find_chains(graph, self.producer, self.activation)
            .into_iter()
            .filter(|(p, _)| graph.node(*p).map(|n| n.attrs.fused_activation.is_none()).unwrap_or(false))
            .map(|(p, a)| RuleMatch::new(vec![p, a]))
            .collect()
    }

    fn build_patch(&self, graph: &Graph, site: &RuleMatch) -> Result<GraphPatch, GraphError> {
        let [producer_id, act_id] = site.expect_nodes();
        let producer = graph.node(producer_id)?;
        let act = activation_of(self.activation).expect("checked in constructor");
        let mut b = PatchBuilder::new(graph);
        let fused = b.add_node(
            producer.op,
            producer.attrs.clone().with_fused_activation(act),
            producer.inputs.iter().map(|&r| r.into()).collect(),
        )?;
        b.replace_all_uses(TensorRef::new(act_id), fused)?;
        Ok(b.finish())
    }
}

/// Folds a `BatchNorm` into the preceding convolution (the normalisation's
/// affine transform is absorbed into the convolution weights).
#[derive(Debug, Clone, Default)]
struct FuseConvBatchNorm;

impl RewriteRule for FuseConvBatchNorm {
    fn name(&self) -> &'static str {
        "fuse-conv-batchnorm"
    }

    fn find_matches(&self, graph: &Graph) -> Vec<RuleMatch> {
        find_chains(graph, OpKind::Conv2d, OpKind::BatchNorm)
            .into_iter()
            .map(|(c, b)| RuleMatch::new(vec![c, b]))
            .collect()
    }

    fn build_patch(&self, graph: &Graph, site: &RuleMatch) -> Result<GraphPatch, GraphError> {
        let [conv_id, bn_id] = site.expect_nodes();
        let mut b = PatchBuilder::new(graph);
        b.replace_all_uses(TensorRef::new(bn_id), TensorRef::new(conv_id))?;
        Ok(b.finish())
    }
}

/// Folds a bias `Add` (one operand produced by a convolution or matrix
/// multiplication, the other a weight/constant) into the producer's epilogue.
#[derive(Debug, Clone)]
struct FuseBiasAdd {
    name: &'static str,
    producer: OpKind,
}

impl FuseBiasAdd {
    /// Creates a bias-fusion rule for the given producer kind.
    fn new(name: &'static str, producer: OpKind) -> Self {
        Self { name, producer }
    }
}

impl RewriteRule for FuseBiasAdd {
    fn name(&self) -> &'static str {
        self.name
    }

    fn find_matches(&self, graph: &Graph) -> Vec<RuleMatch> {
        let mut out = Vec::new();
        for (id, node) in graph.iter() {
            if node.op != OpKind::Add || node.inputs.len() != 2 {
                continue;
            }
            for (producer_slot, bias_slot) in [(0, 1), (1, 0)] {
                let producer_ref = node.inputs[producer_slot];
                let bias_ref = node.inputs[bias_slot];
                let Ok(producer) = graph.node(producer_ref.node) else { continue };
                if producer.op != self.producer
                    || !is_parameter(graph, bias_ref)
                    || !has_single_consumer(graph, producer_ref.node)
                {
                    continue;
                }
                // The fused result must keep the producer's output shape
                // (i.e. the bias must broadcast, not expand).
                let add_shape = graph.tensor_shape(TensorRef::new(id));
                let prod_shape = graph.tensor_shape(producer_ref);
                if let (Ok(a), Ok(p)) = (add_shape, prod_shape) {
                    if a == p {
                        out.push(RuleMatch::new(vec![producer_ref.node, id]));
                        break;
                    }
                }
            }
        }
        out
    }

    fn build_patch(&self, graph: &Graph, site: &RuleMatch) -> Result<GraphPatch, GraphError> {
        let [producer_id, add_id] = site.expect_nodes();
        let mut b = PatchBuilder::new(graph);
        b.replace_all_uses(TensorRef::new(add_id), TensorRef::new(producer_id))?;
        Ok(b.finish())
    }
}

// Algebraic and layout family.

/// Removes pass-through operators (`Identity`, inference-time `Dropout`,
/// same-type `Cast`).
#[derive(Debug, Clone, Default)]
struct EliminatePassThrough;

impl RewriteRule for EliminatePassThrough {
    fn name(&self) -> &'static str {
        "eliminate-pass-through"
    }

    fn find_matches(&self, graph: &Graph) -> Vec<RuleMatch> {
        graph
            .iter()
            .filter(|(_, n)| matches!(n.op, OpKind::Identity | OpKind::Dropout | OpKind::Cast))
            .map(|(id, _)| RuleMatch::new(vec![id]))
            .collect()
    }

    fn build_patch(&self, graph: &Graph, site: &RuleMatch) -> Result<GraphPatch, GraphError> {
        let [id] = site.expect_nodes();
        let input = graph.node(id)?.inputs[0];
        let mut b = PatchBuilder::new(graph);
        b.replace_all_uses(TensorRef::new(id), input)?;
        Ok(b.finish())
    }
}

/// Cancels a pair of consecutive `Transpose` operators whose composition is
/// the identity permutation.
#[derive(Debug, Clone, Default)]
struct EliminateTransposePair;

impl RewriteRule for EliminateTransposePair {
    fn name(&self) -> &'static str {
        "eliminate-transpose-pair"
    }

    fn find_matches(&self, graph: &Graph) -> Vec<RuleMatch> {
        find_chains(graph, OpKind::Transpose, OpKind::Transpose)
            .into_iter()
            .filter(|(first, second)| {
                let (Ok(a), Ok(b)) = (graph.node(*first), graph.node(*second)) else { return false };
                let (Some(pa), Some(pb)) = (&a.attrs.perm, &b.attrs.perm) else { return false };
                if pa.len() != pb.len() {
                    return false;
                }
                // Composition pb ∘ pa must be the identity.
                (0..pa.len()).all(|i| pa[pb[i]] == i)
            })
            .map(|(a, b)| RuleMatch::new(vec![a, b]))
            .collect()
    }

    fn build_patch(&self, graph: &Graph, site: &RuleMatch) -> Result<GraphPatch, GraphError> {
        let [first, second] = site.expect_nodes();
        let original = graph.node(first)?.inputs[0];
        let mut b = PatchBuilder::new(graph);
        b.replace_all_uses(TensorRef::new(second), original)?;
        Ok(b.finish())
    }
}

/// Collapses two consecutive `Reshape` operators into one (or removes them
/// entirely when the final shape equals the original).
#[derive(Debug, Clone, Default)]
struct MergeReshapePair;

impl RewriteRule for MergeReshapePair {
    fn name(&self) -> &'static str {
        "merge-reshape-pair"
    }

    fn find_matches(&self, graph: &Graph) -> Vec<RuleMatch> {
        find_chains(graph, OpKind::Reshape, OpKind::Reshape)
            .into_iter()
            .map(|(a, b)| RuleMatch::new(vec![a, b]))
            .collect()
    }

    fn build_patch(&self, graph: &Graph, site: &RuleMatch) -> Result<GraphPatch, GraphError> {
        let [first, second] = site.expect_nodes();
        let original = graph.node(first)?.inputs[0];
        let final_shape = graph.tensor_shape(TensorRef::new(second))?.clone();
        let mut b = PatchBuilder::new(graph);
        if graph.tensor_shape(original)? == &final_shape {
            b.replace_all_uses(TensorRef::new(second), original)?;
        } else {
            let merged = b.add_node(
                OpKind::Reshape,
                OpAttributes::reshape(final_shape.dims().to_vec()),
                vec![original.into()],
            )?;
            b.replace_all_uses(TensorRef::new(second), merged)?;
        }
        Ok(b.finish())
    }
}

/// Cancels `Concat(Split(x))` when the concat reads every split output in
/// order along the same axis.
#[derive(Debug, Clone, Default)]
struct EliminateSplitConcat;

impl RewriteRule for EliminateSplitConcat {
    fn name(&self) -> &'static str {
        "eliminate-split-concat"
    }

    fn find_matches(&self, graph: &Graph) -> Vec<RuleMatch> {
        let mut out = Vec::new();
        for (concat_id, concat) in graph.iter() {
            if concat.op != OpKind::Concat {
                continue;
            }
            let Some(first) = concat.inputs.first() else { continue };
            let split_id = first.node;
            let Ok(split) = graph.node(split_id) else { continue };
            if split.op != OpKind::Split
                || split.attrs.axis != concat.attrs.axis
                || concat.inputs.len() != split.outputs.len()
            {
                continue;
            }
            let in_order = concat.inputs.iter().enumerate().all(|(i, r)| r.node == split_id && r.port == i);
            if in_order {
                out.push(RuleMatch::new(vec![split_id, concat_id]));
            }
        }
        out
    }

    fn build_patch(&self, graph: &Graph, site: &RuleMatch) -> Result<GraphPatch, GraphError> {
        let [split_id, concat_id] = site.expect_nodes();
        let original = graph.node(split_id)?.inputs[0];
        let mut b = PatchBuilder::new(graph);
        b.replace_all_uses(TensorRef::new(concat_id), original)?;
        Ok(b.finish())
    }
}

/// Cancels `Unsqueeze(Squeeze(x))` and `Squeeze(Unsqueeze(x))` pairs that
/// restore the original shape.
#[derive(Debug, Clone, Default)]
struct EliminateSqueezePair;

impl RewriteRule for EliminateSqueezePair {
    fn name(&self) -> &'static str {
        "eliminate-squeeze-pair"
    }

    fn find_matches(&self, graph: &Graph) -> Vec<RuleMatch> {
        let mut out: Vec<RuleMatch> = find_chains(graph, OpKind::Squeeze, OpKind::Unsqueeze)
            .into_iter()
            .chain(find_chains(graph, OpKind::Unsqueeze, OpKind::Squeeze))
            .filter(|(first, second)| {
                let original = graph.node(*first).ok().map(|n| n.inputs[0]);
                match original {
                    Some(orig) => {
                        graph.tensor_shape(orig).ok() == graph.tensor_shape(TensorRef::new(*second)).ok()
                    }
                    None => false,
                }
            })
            .map(|(a, b)| RuleMatch::new(vec![a, b]))
            .collect();
        out.dedup();
        out
    }

    fn build_patch(&self, graph: &Graph, site: &RuleMatch) -> Result<GraphPatch, GraphError> {
        let [first, second] = site.expect_nodes();
        let original = graph.node(first)?.inputs[0];
        let mut b = PatchBuilder::new(graph);
        b.replace_all_uses(TensorRef::new(second), original)?;
        Ok(b.finish())
    }
}

/// Removes the second of two consecutive `BatchNorm` operators (their affine
/// transforms compose into one).
#[derive(Debug, Clone, Default)]
struct FuseDoubleBatchNorm;

impl RewriteRule for FuseDoubleBatchNorm {
    fn name(&self) -> &'static str {
        "fuse-double-batchnorm"
    }

    fn find_matches(&self, graph: &Graph) -> Vec<RuleMatch> {
        find_chains(graph, OpKind::BatchNorm, OpKind::BatchNorm)
            .into_iter()
            .map(|(a, b)| RuleMatch::new(vec![a, b]))
            .collect()
    }

    fn build_patch(&self, graph: &Graph, site: &RuleMatch) -> Result<GraphPatch, GraphError> {
        let [first, second] = site.expect_nodes();
        let mut b = PatchBuilder::new(graph);
        b.replace_all_uses(TensorRef::new(second), TensorRef::new(first))?;
        Ok(b.finish())
    }
}

/// Re-associates a matrix-multiplication chain.
///
/// `RightToLeft` turns `(A·B)·C` into `A·(B·C)`; `LeftToRight` is the
/// inverse. Re-association changes the floating-point work and, when `B` and
/// `C` are both weights, creates a constant-foldable product — another
/// multi-step opportunity only visible to a planner.
#[derive(Debug, Clone)]
struct ReassociateMatMul {
    name: &'static str,
    right_to_left: bool,
}

impl ReassociateMatMul {
    /// `(A·B)·C -> A·(B·C)`.
    fn right_to_left() -> Self {
        Self { name: "matmul-reassociate-right", right_to_left: true }
    }

    /// `A·(B·C) -> (A·B)·C`.
    fn left_to_right() -> Self {
        Self { name: "matmul-reassociate-left", right_to_left: false }
    }
}

impl RewriteRule for ReassociateMatMul {
    fn name(&self) -> &'static str {
        self.name
    }

    fn find_matches(&self, graph: &Graph) -> Vec<RuleMatch> {
        let inner_slot = if self.right_to_left { 0 } else { 1 };
        let mut out = Vec::new();
        for (outer_id, outer) in graph.iter() {
            if outer.op != OpKind::MatMul || outer.attrs.fused_activation.is_some() {
                continue;
            }
            let Some(inner_ref) = outer.inputs.get(inner_slot) else { continue };
            let Ok(inner) = graph.node(inner_ref.node) else { continue };
            if inner.op != OpKind::MatMul
                || inner.attrs.fused_activation.is_some()
                || !has_single_consumer(graph, inner_ref.node)
            {
                continue;
            }
            // Only re-associate when the two "free" operands are rank-2, so
            // the re-associated product is well-formed.
            let ok_ranks = if self.right_to_left {
                // (A·B)·C: B and C must be rank-2.
                rank_of(graph, inner.inputs[1]) == Some(2) && rank_of(graph, outer.inputs[1]) == Some(2)
            } else {
                // A·(B·C): A and B must be rank-2.
                rank_of(graph, outer.inputs[0]) == Some(2) && rank_of(graph, inner.inputs[0]) == Some(2)
            };
            if ok_ranks {
                out.push(RuleMatch::new(vec![inner_ref.node, outer_id]));
            }
        }
        out
    }

    fn build_patch(&self, graph: &Graph, site: &RuleMatch) -> Result<GraphPatch, GraphError> {
        let [inner_id, outer_id] = site.expect_nodes();
        let inner = graph.node(inner_id)?;
        let outer = graph.node(outer_id)?;
        let mut pb = PatchBuilder::new(graph);
        let new_outer = if self.right_to_left {
            // (A·B)·C -> A·(B·C)
            let a = inner.inputs[0];
            let b = inner.inputs[1];
            let c = outer.inputs[1];
            let bc = pb.add_node(OpKind::MatMul, OpAttributes::default(), vec![b.into(), c.into()])?;
            pb.add_node(OpKind::MatMul, OpAttributes::default(), vec![a.into(), bc.into()])?
        } else {
            // A·(B·C) -> (A·B)·C
            let a = outer.inputs[0];
            let b = inner.inputs[0];
            let c = inner.inputs[1];
            let ab = pb.add_node(OpKind::MatMul, OpAttributes::default(), vec![a.into(), b.into()])?;
            pb.add_node(OpKind::MatMul, OpAttributes::default(), vec![ab.into(), c.into()])?
        };
        pb.replace_all_uses(TensorRef::new(outer_id), new_outer)?;
        Ok(pb.finish())
    }
}

fn rank_of(graph: &Graph, r: TensorRef) -> Option<usize> {
    graph.tensor_shape(r).ok().map(|s| s.rank())
}

// Parallel-operator merging family.

/// Merges two `MatMul` nodes that share their left operand into one `MatMul`
/// over column-concatenated weights, followed by a `Split`.
#[derive(Debug, Clone, Default)]
struct MergeMatMulSharedLhs;

impl RewriteRule for MergeMatMulSharedLhs {
    fn name(&self) -> &'static str {
        "merge-matmul-shared-lhs"
    }

    fn find_matches(&self, graph: &Graph) -> Vec<RuleMatch> {
        find_siblings_sharing_input(graph, OpKind::MatMul, 0)
            .into_iter()
            .filter(|(_, a, b)| mergeable_matmuls(graph, *a, *b))
            .map(|(_, a, b)| RuleMatch::new(vec![a, b]))
            .collect()
    }

    fn build_patch(&self, graph: &Graph, site: &RuleMatch) -> Result<GraphPatch, GraphError> {
        let [a_id, b_id] = site.expect_nodes();
        let a = graph.node(a_id)?;
        let b = graph.node(b_id)?;
        let lhs = a.inputs[0];
        let (wa, wb) = (a.inputs[1], b.inputs[1]);
        let mut pb = PatchBuilder::new(graph);

        // Concatenate the two weights along their output (column) axis.
        let w_rank = graph.tensor_shape(wa)?.rank();
        let concat =
            pb.add_node(OpKind::Concat, OpAttributes::with_axis(w_rank - 1), vec![wa.into(), wb.into()])?;
        let merged = pb.add_node(OpKind::MatMul, a.attrs.clone(), vec![lhs.into(), concat.into()])?;
        let out_rank = pb.shape(merged.into())?.rank();
        let split = pb.add_node(OpKind::Split, OpAttributes::split(out_rank - 1, 2), vec![merged.into()])?;
        pb.replace_all_uses(TensorRef::new(a_id), split.out(0))?;
        pb.replace_all_uses(TensorRef::new(b_id), split.out(1))?;
        Ok(pb.finish())
    }
}

/// Merges two `MatMul` nodes that share their right operand (the weight) into
/// one `MatMul` over row-concatenated activations, followed by a `Split`.
#[derive(Debug, Clone, Default)]
struct MergeMatMulSharedRhs;

impl RewriteRule for MergeMatMulSharedRhs {
    fn name(&self) -> &'static str {
        "merge-matmul-shared-rhs"
    }

    fn find_matches(&self, graph: &Graph) -> Vec<RuleMatch> {
        find_siblings_sharing_input(graph, OpKind::MatMul, 1)
            .into_iter()
            .filter(|(shared, a, b)| {
                is_parameter(graph, *shared)
                    && same_shape_inputs(graph, *a, *b, 0)
                    && same_attrs(graph, *a, *b)
                    && independent_siblings(graph, *a, *b)
            })
            .map(|(_, a, b)| RuleMatch::new(vec![a, b]))
            .collect()
    }

    fn build_patch(&self, graph: &Graph, site: &RuleMatch) -> Result<GraphPatch, GraphError> {
        let [a_id, b_id] = site.expect_nodes();
        let a = graph.node(a_id)?;
        let b = graph.node(b_id)?;
        let weight = a.inputs[1];
        let (xa, xb) = (a.inputs[0], b.inputs[0]);
        let mut pb = PatchBuilder::new(graph);

        let x_rank = graph.tensor_shape(xa)?.rank();
        let row_axis = x_rank - 2;
        let concat =
            pb.add_node(OpKind::Concat, OpAttributes::with_axis(row_axis), vec![xa.into(), xb.into()])?;
        let merged = pb.add_node(OpKind::MatMul, a.attrs.clone(), vec![concat.into(), weight.into()])?;
        let out_rank = pb.shape(merged.into())?.rank();
        let split = pb.add_node(OpKind::Split, OpAttributes::split(out_rank - 2, 2), vec![merged.into()])?;
        pb.replace_all_uses(TensorRef::new(a_id), split.out(0))?;
        pb.replace_all_uses(TensorRef::new(b_id), split.out(1))?;
        Ok(pb.finish())
    }
}

/// Merges two convolutions that read the same input tensor and have identical
/// geometry into one convolution over output-channel-concatenated weights,
/// followed by a channel `Split`.
#[derive(Debug, Clone, Default)]
struct MergeConvSharedInput;

impl RewriteRule for MergeConvSharedInput {
    fn name(&self) -> &'static str {
        "merge-conv-shared-input"
    }

    fn find_matches(&self, graph: &Graph) -> Vec<RuleMatch> {
        find_siblings_sharing_input(graph, OpKind::Conv2d, 0)
            .into_iter()
            .filter(|(_, a, b)| mergeable_convs(graph, *a, *b))
            .map(|(_, a, b)| RuleMatch::new(vec![a, b]))
            .collect()
    }

    fn build_patch(&self, graph: &Graph, site: &RuleMatch) -> Result<GraphPatch, GraphError> {
        let [a_id, b_id] = site.expect_nodes();
        let a = graph.node(a_id)?;
        let b = graph.node(b_id)?;
        let input = a.inputs[0];
        let (wa, wb) = (a.inputs[1], b.inputs[1]);
        let mut pb = PatchBuilder::new(graph);

        let concat = pb.add_node(OpKind::Concat, OpAttributes::with_axis(0), vec![wa.into(), wb.into()])?;
        let merged = pb.add_node(OpKind::Conv2d, a.attrs.clone(), vec![input.into(), concat.into()])?;
        let split = pb.add_node(OpKind::Split, OpAttributes::split(1, 2), vec![merged.into()])?;
        pb.replace_all_uses(TensorRef::new(a_id), split.out(0))?;
        pb.replace_all_uses(TensorRef::new(b_id), split.out(1))?;
        Ok(pb.finish())
    }
}

/// Enlarges a 1x1 convolution to a 3x3 convolution by zero-padding its
/// weights, whenever a sibling 3x3 convolution reads the same input. On its
/// own this *increases* compute, but it unlocks
/// [`MergeConvSharedInput`] at the next step — the canonical example of a
/// substitution sequence that requires tolerating a temporary loss, which
/// greedy search cannot do.
#[derive(Debug, Clone, Default)]
struct EnlargeConvKernel;

impl RewriteRule for EnlargeConvKernel {
    fn name(&self) -> &'static str {
        "enlarge-conv-kernel"
    }

    fn find_matches(&self, graph: &Graph) -> Vec<RuleMatch> {
        let mut out = Vec::new();
        for (_, small, other) in find_siblings_sharing_input(graph, OpKind::Conv2d, 0) {
            for (cand, sibling) in [(small, other), (other, small)] {
                let (Ok(c), Ok(s)) = (graph.node(cand), graph.node(sibling)) else { continue };
                let is_1x1 = c.attrs.kernel == Some([1, 1]);
                let sibling_3x3 = s.attrs.kernel == Some([3, 3]);
                let same_stride = c.attrs.stride == Some([1, 1]) && s.attrs.stride == Some([1, 1]);
                let same_padding = c.attrs.padding == Padding::Same && s.attrs.padding == Padding::Same;
                let ungrouped = c.attrs.groups <= 1 && s.attrs.groups <= 1;
                if is_1x1
                    && sibling_3x3
                    && same_stride
                    && same_padding
                    && ungrouped
                    && is_parameter(graph, c.inputs[1])
                {
                    out.push(RuleMatch::new(vec![cand]));
                }
            }
        }
        out.sort_by_key(|m| m.nodes.clone());
        out.dedup();
        out
    }

    fn build_patch(&self, graph: &Graph, site: &RuleMatch) -> Result<GraphPatch, GraphError> {
        let [conv_id] = site.expect_nodes();
        let conv = graph.node(conv_id)?;
        let weight = conv.inputs[1];
        let w_shape = graph.tensor_shape(weight)?;
        let padded_dims = vec![w_shape.dim(0), w_shape.dim(1), 3, 3];
        let mut pb = PatchBuilder::new(graph);
        let pad = pb.add_node(
            OpKind::Pad,
            OpAttributes { target_shape: Some(padded_dims), ..Default::default() },
            vec![weight.into()],
        )?;
        let mut attrs = conv.attrs.clone();
        attrs.kernel = Some([3, 3]);
        let enlarged = pb.add_node(OpKind::Conv2d, attrs, vec![conv.inputs[0].into(), pad.into()])?;
        pb.replace_all_uses(TensorRef::new(conv_id), enlarged)?;
        Ok(pb.finish())
    }
}

/// `true` when neither sibling's output depends on the other — merging two
/// dataflow-dependent nodes would rewire one into a cycle through the merged
/// kernel (the eager pipeline caught this via `validate()`; the patch
/// pipeline must reject the match up front).
fn independent_siblings(graph: &Graph, a: NodeId, b: NodeId) -> bool {
    !depends_on(graph, a, b) && !depends_on(graph, b, a)
}

fn same_attrs(graph: &Graph, a: NodeId, b: NodeId) -> bool {
    match (graph.node(a), graph.node(b)) {
        (Ok(na), Ok(nb)) => na.attrs == nb.attrs,
        _ => false,
    }
}

fn same_shape_inputs(graph: &Graph, a: NodeId, b: NodeId, slot: usize) -> bool {
    let sa = graph.node(a).ok().and_then(|n| n.inputs.get(slot).copied());
    let sb = graph.node(b).ok().and_then(|n| n.inputs.get(slot).copied());
    match (sa, sb) {
        (Some(ra), Some(rb)) => match (graph.tensor_shape(ra), graph.tensor_shape(rb)) {
            (Ok(x), Ok(y)) => x == y,
            _ => false,
        },
        _ => false,
    }
}

// Both predicates run once per sibling pair, so they test what is local to
// the pair first and what walks the graph (dependence) last. The conjunction is what decides; its order only decides the cost.

fn mergeable_matmuls(graph: &Graph, a: NodeId, b: NodeId) -> bool {
    let (Ok(na), Ok(nb)) = (graph.node(a), graph.node(b)) else { return false };
    na.attrs == nb.attrs
        && na.inputs.len() == 2
        && nb.inputs.len() == 2
        && same_shape_inputs(graph, a, b, 1)
        && graph.tensor_shape(na.inputs[1]).map(|s| s.rank() == 2).unwrap_or(false)
        && is_constant_derived(graph, na.inputs[1])
        && is_constant_derived(graph, nb.inputs[1])
        && independent_siblings(graph, a, b)
}

fn mergeable_convs(graph: &Graph, a: NodeId, b: NodeId) -> bool {
    let (Ok(na), Ok(nb)) = (graph.node(a), graph.node(b)) else { return false };
    na.attrs == nb.attrs
        && na.attrs.groups <= 1
        && same_shape_inputs(graph, a, b, 1)
        && is_constant_derived(graph, na.inputs[1])
        && is_constant_derived(graph, nb.inputs[1])
        && independent_siblings(graph, a, b)
}

// PET.

/// A partially equivalent transformation: a plain (ungrouped) 3x3 stride-1
/// convolution over an even spatial grid is computed over a half-resolution
/// slice and padded back, followed by a correction `Add`.
///
/// The transformed convolution performs a quarter of the work; the
/// correction kernels are element-wise and therefore invisible to PET's
/// cost model, but they are *not* free at inference time — which is why
/// PET's advantage is shape- and architecture-dependent.
#[derive(Debug, Clone, Default)]
struct PartiallyEquivalentConv;

impl RewriteRule for PartiallyEquivalentConv {
    fn name(&self) -> &'static str {
        "pet-partial-conv"
    }

    fn find_matches(&self, graph: &Graph) -> Vec<RuleMatch> {
        graph
            .iter()
            .filter(|(_, n)| {
                n.op == OpKind::Conv2d
                    && n.attrs.groups <= 1
                    && n.attrs.kernel == Some([3, 3])
                    && n.attrs.stride == Some([1, 1])
                    && n.attrs.padding == Padding::Same
                    && n.attrs.fused_activation.is_none()
                    && n.inputs.len() == 2
                    && is_parameter(graph, n.inputs[1])
                    && n.outputs[0].rank() == 4
                    && n.outputs[0].dim(2) % 2 == 0
                    && n.outputs[0].dim(3) % 2 == 0
                    && n.outputs[0].dim(2) >= 8
            })
            .map(|(id, _)| RuleMatch::new(vec![id]))
            .collect()
    }

    fn build_patch(&self, graph: &Graph, site: &RuleMatch) -> Result<GraphPatch, GraphError> {
        let [conv_id] = site.expect_nodes();
        let conv = graph.node(conv_id)?;
        let input_ref = conv.inputs[0];
        let weight_ref = conv.inputs[1];
        let in_shape = graph.tensor_shape(input_ref)?;
        let out_shape = conv.outputs[0].clone();
        let mut pb = PatchBuilder::new(graph);

        // Slice the input to half resolution, convolve, pad back and correct.
        let half_in = vec![in_shape.dim(0), in_shape.dim(1), in_shape.dim(2) / 2, in_shape.dim(3) / 2];
        let slice = pb.add_node(
            OpKind::Slice,
            OpAttributes { target_shape: Some(half_in), ..Default::default() },
            vec![input_ref.into()],
        )?;
        let small_conv =
            pb.add_node(OpKind::Conv2d, conv.attrs.clone(), vec![slice.into(), weight_ref.into()])?;
        let pad = pb.add_node(
            OpKind::Pad,
            OpAttributes { target_shape: Some(out_shape.dims().to_vec()), ..Default::default() },
            vec![small_conv.into()],
        )?;
        // Correction kernels: element-wise operators restoring the missing
        // output region (structurally modelled as a multiply-add against
        // correction constants).
        let correction = pb.add_constant(out_shape.clone());
        let corrected =
            pb.add_node(OpKind::Mul, OpAttributes::default(), vec![pad.into(), correction.into()])?;
        let residual = pb.add_constant(out_shape);
        let fixed =
            pb.add_node(OpKind::Add, OpAttributes::default(), vec![corrected.into(), residual.into()])?;
        pb.replace_all_uses(TensorRef::new(conv_id), fixed)?;
        Ok(pb.finish())
    }
}

/// The table and the oracle give the same candidates and match counts on
/// `graph`, for the standard rule set and for PET's. Returns the number of
/// candidates compared.
fn assert_table_matches_oracle(name: &str, graph: &Graph) -> usize {
    let table = [RuleSet::standard(), xrlflow_taso::PetOptimizer::rules()];
    let oracle = [standard_rules(), pet_rules()];
    let mut compared = 0;
    for (table, oracle) in table.iter().zip(&oracle) {
        for cap in [32, usize::MAX] {
            let ours = table.generate_candidates(graph, cap);
            let theirs = generate_candidates(oracle, graph, cap);
            let key = |c: &Candidate| (c.rule_id, c.rule_name, c.patch().clone(), c.hash);
            let ours: Vec<_> = ours.iter().map(key).collect();
            let theirs: Vec<_> = theirs.iter().map(key).collect();
            assert!(ours == theirs, "{name}, {} rules, cap {cap}: candidate lists differ", oracle.len());
            compared += ours.len();
        }
        let oracle_count: usize = oracle.iter().map(|r| r.find_matches(graph).len()).sum();
        // The table's entries: the standard ones, then PET's where it is used.
        let entries: Vec<_> =
            STANDARD.iter().chain([&PARTIALLY_EQUIVALENT_CONV]).take(oracle.len()).collect();
        assert_eq!(entries.iter().map(|e| e.name()).collect::<Vec<_>>(), table.rule_names());
        let count: usize = entries.iter().map(|e| e.find_matches(graph).len()).sum();
        assert_eq!(count, oracle_count, "{name}, {} rules: raw matches", oracle.len());
    }
    compared
}

#[test]
fn table_matches_the_hand_written_rules_along_zoo_trajectories() {
    let trajectories = zoo_trajectories();
    let compared: usize = trajectories.iter().map(|(name, g)| assert_table_matches_oracle(name, g)).sum();
    assert!(
        trajectories.len() > 500 && compared > 10_000,
        "{} graphs, {compared} candidates",
        trajectories.len()
    );
}

/// Re-association sites whose rank tests the rule-zoo graph cannot tell
/// apart: a rank-3 `C` under `A·(B·C)` and a rank-3 `A` under `(A·B)·C`.
fn reassociation_ranks_graph() -> Graph {
    let mut g = Graph::new();
    let matmul = |g: &mut Graph, a: NodeId, b: NodeId| {
        g.add_node(OpKind::MatMul, OpAttributes::default(), vec![a.into(), b.into()]).unwrap()
    };
    let shape = |d: &[usize]| xrlflow_graph::TensorShape::new(d.to_vec());
    let (a, b, c) =
        (g.add_input(shape(&[8, 16])), g.add_weight(shape(&[16, 32])), g.add_weight(shape(&[2, 32, 4])));
    let bc = matmul(&mut g, b, c);
    let a_bc = matmul(&mut g, a, bc);
    g.mark_output(a_bc.into());
    let (a, b, c) =
        (g.add_input(shape(&[2, 8, 16])), g.add_weight(shape(&[16, 32])), g.add_weight(shape(&[32, 4])));
    let ab = matmul(&mut g, a, b);
    let ab_c = matmul(&mut g, ab, c);
    g.mark_output(ab_c.into());
    g
}

#[test]
fn table_matches_the_hand_written_rules_on_the_rule_zoo_and_sparse_delta_bases() {
    let mut graphs = vec![
        ("rule-zoo".to_string(), rule_zoo_graph()),
        ("re-association ranks".to_string(), reassociation_ranks_graph()),
    ];
    graphs.extend(sparse_delta_cases().into_iter().map(|case| (case.name.to_string(), case.graph)));
    for (name, g) in &graphs {
        assert_table_matches_oracle(name, g);
    }
    // The comparison is not vacuous: on the rule-zoo graph and the zoo
    // models together, every hand-written rule finds a site.
    let mut corpus: Vec<Graph> = graphs.into_iter().map(|(_, g)| g).collect();
    corpus.extend(zoo_trajectories().into_iter().map(|(_, g)| g));
    for rule in pet_rules() {
        assert!(corpus.iter().any(|g| !rule.find_matches(g).is_empty()), "{} never matches", rule.name());
    }
}
