//! Parallel-operator merging rules.
//!
//! These capture TASO's highest-impact substitutions: two convolutions or
//! matrix multiplications that read the same tensor can be executed as one
//! larger kernel over concatenated weights, followed by a split. The weight
//! concatenation is constant-foldable, so the end-to-end latency improves by
//! more than the per-operator cost model predicts — which is exactly the
//! signal X-RLflow can learn to exploit and greedy cost-model search cannot.

use xrlflow_graph::{Graph, GraphError, GraphPatch, NodeId, OpAttributes, OpKind, PatchBuilder, TensorRef};

use crate::matcher::{depends_on, find_siblings_sharing_input, is_constant_derived, is_parameter};
use crate::rule::{RewriteRule, RuleMatch};

/// Merges two `MatMul` nodes that share their left operand into one `MatMul`
/// over column-concatenated weights, followed by a `Split`.
#[derive(Debug, Clone, Default)]
pub struct MergeMatMulSharedLhs;

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
pub struct MergeMatMulSharedRhs;

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
pub struct MergeConvSharedInput;

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
pub struct EnlargeConvKernel;

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
                let same_padding = c.attrs.padding == xrlflow_graph::Padding::Same
                    && s.attrs.padding == xrlflow_graph::Padding::Same;
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

#[cfg(test)]
mod tests {
    use super::*;
    use xrlflow_graph::{Padding, TensorShape};

    fn shape(d: &[usize]) -> TensorShape {
        TensorShape::new(d.to_vec())
    }

    fn qkv_graph() -> Graph {
        // Three projections of the same input, as in multi-head attention.
        let mut g = Graph::new();
        let x = g.add_input(shape(&[1, 16, 64]));
        for _ in 0..3 {
            let w = g.add_weight(shape(&[64, 64]));
            let mm = g.add_node(OpKind::MatMul, OpAttributes::default(), vec![x.into(), w.into()]).unwrap();
            let relu = g.add_node(OpKind::Relu, OpAttributes::default(), vec![mm.into()]).unwrap();
            g.mark_output(relu.into());
        }
        g
    }

    #[test]
    fn merge_matmul_shared_lhs_qkv() {
        let g = qkv_graph();
        let rule = MergeMatMulSharedLhs;
        let matches = rule.find_matches(&g);
        // Three projections -> three unordered pairs.
        assert_eq!(matches.len(), 3);
        let out = rule.apply(&g, &matches[0]).unwrap();
        assert!(out.validate().is_ok());
        // Two matmuls replaced by one merged matmul (plus the untouched third).
        assert_eq!(out.count_op(OpKind::MatMul), 2);
        assert_eq!(out.count_op(OpKind::Split), 1);
        assert_eq!(out.count_op(OpKind::Concat), 1);
        // The weight concat must be constant-foldable.
        let foldable = out.foldable_nodes();
        let concat_id = out.iter().find(|(_, n)| n.op == OpKind::Concat).unwrap().0;
        assert!(foldable.contains(&concat_id));
    }

    #[test]
    fn merge_conv_shared_input() {
        let mut g = Graph::new();
        let x = g.add_input(shape(&[1, 32, 28, 28]));
        let mut outs = Vec::new();
        for _ in 0..2 {
            let w = g.add_weight(shape(&[64, 32, 3, 3]));
            let conv = g
                .add_node(
                    OpKind::Conv2d,
                    OpAttributes::conv2d([3, 3], [1, 1], Padding::Same, 1),
                    vec![x.into(), w.into()],
                )
                .unwrap();
            outs.push(conv);
            g.mark_output(conv.into());
        }
        let rule = MergeConvSharedInput;
        let matches = rule.find_matches(&g);
        assert_eq!(matches.len(), 1);
        let out = rule.apply(&g, &matches[0]).unwrap();
        assert!(out.validate().is_ok());
        assert_eq!(out.count_op(OpKind::Conv2d), 1);
        assert_eq!(out.count_op(OpKind::Split), 1);
        // The merged conv produces 128 channels before the split.
        let conv = out.iter().find(|(_, n)| n.op == OpKind::Conv2d).unwrap();
        assert_eq!(conv.1.outputs[0].dims(), &[1, 128, 28, 28]);
    }

    #[test]
    fn convs_with_different_geometry_do_not_merge() {
        let mut g = Graph::new();
        let x = g.add_input(shape(&[1, 32, 28, 28]));
        let w1 = g.add_weight(shape(&[64, 32, 3, 3]));
        let w2 = g.add_weight(shape(&[64, 32, 1, 1]));
        let c1 = g
            .add_node(
                OpKind::Conv2d,
                OpAttributes::conv2d([3, 3], [1, 1], Padding::Same, 1),
                vec![x.into(), w1.into()],
            )
            .unwrap();
        let c2 = g
            .add_node(
                OpKind::Conv2d,
                OpAttributes::conv2d([1, 1], [1, 1], Padding::Same, 1),
                vec![x.into(), w2.into()],
            )
            .unwrap();
        g.mark_output(c1.into());
        g.mark_output(c2.into());
        assert!(MergeConvSharedInput.find_matches(&g).is_empty());
        // ... but the 1x1 can be enlarged to 3x3, unlocking the merge next step.
        let enlarge = EnlargeConvKernel;
        let matches = enlarge.find_matches(&g);
        assert_eq!(matches.len(), 1);
        let out = enlarge.apply(&g, &matches[0]).unwrap();
        assert!(out.validate().is_ok());
        assert_eq!(MergeConvSharedInput.find_matches(&out).len(), 1);
    }

    #[test]
    fn weight_tied_dependent_matmuls_do_not_merge() {
        // a = MatMul(x, w); b = MatMul(Relu(a), w): the two matmuls share
        // their weight but b depends on a, so merging would rewire a into a
        // cycle through the merged kernel. The match must be rejected.
        let mut g = Graph::new();
        let x = g.add_input(shape(&[8, 64]));
        let w = g.add_weight(shape(&[64, 64]));
        let a = g.add_node(OpKind::MatMul, OpAttributes::default(), vec![x.into(), w.into()]).unwrap();
        let relu = g.add_node(OpKind::Relu, OpAttributes::default(), vec![a.into()]).unwrap();
        let b = g.add_node(OpKind::MatMul, OpAttributes::default(), vec![relu.into(), w.into()]).unwrap();
        g.mark_output(b.into());
        assert!(MergeMatMulSharedRhs.find_matches(&g).is_empty());
        // And the full pipeline never surfaces an invalid candidate on it.
        let rules = crate::RuleSet::standard();
        for c in rules.generate_candidates(&g, 32) {
            let out = c.materialize(&g).unwrap();
            assert!(out.validate().is_ok(), "invalid candidate from {}", c.rule_name);
        }
    }

    #[test]
    fn merge_matmul_shared_rhs() {
        let mut g = Graph::new();
        let a = g.add_input(shape(&[8, 64]));
        let b = g.add_input(shape(&[8, 64]));
        let w = g.add_weight(shape(&[64, 32]));
        let ma = g.add_node(OpKind::MatMul, OpAttributes::default(), vec![a.into(), w.into()]).unwrap();
        let mb = g.add_node(OpKind::MatMul, OpAttributes::default(), vec![b.into(), w.into()]).unwrap();
        g.mark_output(ma.into());
        g.mark_output(mb.into());
        let rule = MergeMatMulSharedRhs;
        let matches = rule.find_matches(&g);
        assert_eq!(matches.len(), 1);
        let out = rule.apply(&g, &matches[0]).unwrap();
        assert!(out.validate().is_ok());
        assert_eq!(out.count_op(OpKind::MatMul), 1);
        assert_eq!(out.count_op(OpKind::Concat), 1);
    }

    /// The parent's `find_chains`: `has_single_consumer` — a whole-graph
    /// scan — per chain.
    fn chains_scanning_per_chain(g: &Graph, first: OpKind, second: OpKind) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        for (id, node) in g.iter() {
            for input in node.inputs.iter().filter(|_| node.op == second) {
                let Ok(producer) = g.node(input.node) else { continue };
                if producer.op == first && crate::matcher::has_single_consumer(g, input.node) {
                    out.push((input.node, id));
                }
            }
        }
        out
    }

    /// The parent's sibling-pair predicates: `Graph::foldable_nodes` — a
    /// whole-graph topological sort — per weight, before the cheap tests.
    fn mergeable_sorting_per_weight(g: &Graph, op: OpKind, a: NodeId, b: NodeId) -> bool {
        let constant = |r: TensorRef| is_parameter(g, r) || g.foldable_nodes().contains(&r.node);
        let (na, nb) = (g.node(a).unwrap(), g.node(b).unwrap());
        let shared = na.attrs == nb.attrs
            && constant(na.inputs[1])
            && constant(nb.inputs[1])
            && same_shape_inputs(g, a, b, 1)
            && independent_siblings(g, a, b);
        match op {
            OpKind::MatMul => {
                shared
                    && na.inputs.len() == 2
                    && nb.inputs.len() == 2
                    && g.tensor_shape(na.inputs[1]).map(|s| s.rank() == 2).unwrap_or(false)
            }
            _ => shared && na.attrs.groups <= 1,
        }
    }

    #[test]
    fn rewritten_matchers_find_the_sites_their_per_site_forms_found_along_zoo_trajectories() {
        // A candidate list is a function of every rule's `find_matches`, and
        // the only matchers this crate ever rewrote for speed are
        // `find_chains` and the two sibling-merge predicates: wherever they
        // return what the per-site forms above return — same sites, same
        // order — the candidate lists (rule id, patch hash, order) are the
        // parent's. Checked on every graph of five fixed trajectories per
        // zoo kind, which reach merged (concatenated, hence foldable but not
        // parameter) weights and fused producers.
        use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
        let rules = crate::RuleSet::standard();
        let chain_motifs = [
            (OpKind::Conv2d, OpKind::Relu),
            (OpKind::Conv2d, OpKind::Sigmoid),
            (OpKind::MatMul, OpKind::Relu),
            (OpKind::MatMul, OpKind::Gelu),
            (OpKind::MatMul, OpKind::Tanh),
            (OpKind::MatMul, OpKind::Sigmoid),
            (OpKind::Conv2d, OpKind::BatchNorm),
            (OpKind::BatchNorm, OpKind::BatchNorm),
            (OpKind::Transpose, OpKind::Transpose),
            (OpKind::Reshape, OpKind::Reshape),
            (OpKind::Squeeze, OpKind::Unsqueeze),
            (OpKind::Unsqueeze, OpKind::Squeeze),
        ];
        let (mut graphs, mut chains, mut merges, mut derived_weights) = (0, 0, 0, 0);
        for &kind in ModelKind::EVALUATED.iter().chain(&[ModelKind::ResNet18]) {
            for trajectory in 0..5usize {
                let mut g = build_model(kind, ModelScale::Bench).unwrap();
                for step in 0..25 {
                    graphs += 1;
                    for (first, second) in chain_motifs {
                        let found = crate::matcher::find_chains(&g, first, second);
                        assert_eq!(
                            found,
                            chains_scanning_per_chain(&g, first, second),
                            "{kind}: {first} → {second}"
                        );
                        chains += found.len();
                    }
                    let merge_rules: [(&dyn RewriteRule, OpKind); 2] =
                        [(&MergeMatMulSharedLhs, OpKind::MatMul), (&MergeConvSharedInput, OpKind::Conv2d)];
                    for (rule, op) in merge_rules {
                        let expected: Vec<RuleMatch> = find_siblings_sharing_input(&g, op, 0)
                            .into_iter()
                            .filter(|(_, a, b)| mergeable_sorting_per_weight(&g, op, *a, *b))
                            .map(|(_, a, b)| RuleMatch::new(vec![a, b]))
                            .collect();
                        let found = rule.find_matches(&g);
                        assert_eq!(
                            found,
                            expected,
                            "{kind}, trajectory {trajectory}, step {step}: {}",
                            rule.name()
                        );
                        merges += found.len();
                        derived_weights += found
                            .iter()
                            .filter(|site| !is_parameter(&g, g.node(site.nodes[0]).unwrap().inputs[1]))
                            .count();
                    }
                    let candidates = rules.generate_candidates(&g, 32);
                    if candidates.is_empty() {
                        break;
                    }
                    let chosen = (step * (2 * trajectory + 1) + trajectory) % candidates.len();
                    g = candidates[chosen].materialize(&g).unwrap();
                }
            }
        }
        assert!(
            graphs > 500 && chains > 1000 && merges > 1000,
            "{graphs} graphs, {chains} chains, {merges} merges"
        );
        assert!(derived_weights > 0, "no trajectory reached a merge over an already merged weight");
    }
}
