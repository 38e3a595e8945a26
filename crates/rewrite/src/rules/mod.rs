//! The rewrite-rule library: one table of [`Substitution`]s.
//!
//! TASO generates ~150 rules by enumerating operator combinations; this
//! reproduction states the rule *families* those generated rules fall into
//! (operator fusion, parallel-operator merging, algebraic and layout
//! simplification, kernel enlargement and re-association) as the entries of
//! one table, which X-RLflow's environment, the TASO and PET searches and the
//! Tensat e-graph all read (see the ROADMAP's "Architecture" section). The
//! named functions below are what an entry's template cannot state.
//!
//! The fusions absorb an element-wise epilogue (activation, bias add, batch
//! normalisation) into the producing convolution or matrix multiplication,
//! which removes a kernel launch and a round trip through memory. The merges
//! run two convolutions or matrix multiplications that read one tensor as
//! one larger kernel over concatenated weights, followed by a split; the
//! weight concatenation is constant-foldable, so end-to-end latency improves
//! by more than the per-operator cost model predicts. `enlarge-conv-kernel`
//! zero-pads a 1x1 convolution to 3x3 when a 3x3 sibling reads the same
//! input: on its own it *increases* compute, but it unlocks
//! `merge-conv-shared-input` at the next step — a sequence greedy search
//! cannot take. Re-association changes the floating-point work and, when
//! `B` and `C` are both weights, creates a constant-foldable product.

use xrlflow_graph::{Graph, GraphError, NodeId, OpAttributes, OpKind, Padding, PatchBuilder, TensorRef};

use crate::matcher::{depends_on, is_constant_derived, is_parameter};
use crate::substitution::{input, Attrs, Axis, Emit, NodeTest, Pattern, Slot, Substitution, Target, Tensor};
use xrlflow_graph::FusedActivation as Act;
use OpKind::*;
use Tensor::{Bound, Input, Inputs, New};

const fn op(ops: &'static [OpKind]) -> NodeTest {
    NodeTest { ops, unfused: false }
}

const fn unfused(ops: &'static [OpKind]) -> NodeTest {
    NodeTest { ops, unfused: true }
}

/// `producer -> consumer`, the consumer being the producer's only reader.
const fn chain(producer: NodeTest, consumer: NodeTest) -> Pattern {
    Pattern::Chain { producer, consumer, slot: Slot::Any, sole: true }
}

/// Every reader of a chain's consumer reads its producer instead.
const TO_PRODUCER: Target = Target::Template { emit: &[], replace: &[(1, Bound(0))] };

/// Every reader of a chain's consumer reads the producer's first input instead.
const TO_PRODUCER_INPUT: Target = Target::Template { emit: &[], replace: &[(1, Input(0, 0))] };

/// `act(producer(x))` -> the producer over its own inputs with `act` fused.
macro_rules! fuse_activation {
    ($name:literal, $producer:ident, $act:ident) => {
        Substitution {
            name: $name,
            source: &[chain(unfused(&[$producer]), op(&[$act]))],
            guard: None,
            target: Target::Template {
                emit: &[Emit::node($producer, Attrs::Fused(0, Act::$act), &[Inputs(0)])],
                replace: &[(1, New(0, 0))],
            },
        }
    };
}

/// The standard rule library, in [`crate::RuleId`] order.
pub const STANDARD: [Substitution; 21] = [
    // Fusion family: `act(producer(x)) -> producer_act(x)`.
    fuse_activation!("fuse-conv-relu", Conv2d, Relu),
    fuse_activation!("fuse-conv-sigmoid", Conv2d, Sigmoid),
    fuse_activation!("fuse-matmul-relu", MatMul, Relu),
    fuse_activation!("fuse-matmul-gelu", MatMul, Gelu),
    fuse_activation!("fuse-matmul-tanh", MatMul, Tanh),
    fuse_activation!("fuse-matmul-sigmoid", MatMul, Sigmoid),
    // `BatchNorm(Conv2d(x)) -> Conv2d(x)`: the batch norm's operands are
    // dropped, not folded (ROADMAP item 15).
    Substitution {
        name: "fuse-conv-batchnorm",
        source: &[chain(op(&[Conv2d]), op(&[BatchNorm]))],
        guard: None,
        target: TO_PRODUCER,
    },
    // `Add(producer(x), b) -> producer(x)` for a parameter `b` that only
    // broadcasts: the bias is dropped, not folded (ROADMAP item 15).
    Substitution {
        name: "fuse-matmul-bias",
        source: &[chain(op(&[MatMul]), op(&[Add]))],
        guard: Some(bias_add),
        target: TO_PRODUCER,
    },
    Substitution {
        name: "fuse-conv-bias",
        source: &[chain(op(&[Conv2d]), op(&[Add]))],
        guard: Some(bias_add),
        target: TO_PRODUCER,
    },
    // `BatchNorm(BatchNorm(x)) -> BatchNorm(x)`: the affine transforms compose.
    Substitution {
        name: "fuse-double-batchnorm",
        source: &[chain(op(&[BatchNorm]), op(&[BatchNorm]))],
        guard: None,
        target: TO_PRODUCER,
    },
    // Parallel-operator merging family: `a = op(x, wa), b = op(x, wb)` ->
    // `split(op(x, concat(wa, wb)))`.
    Substitution {
        name: "merge-matmul-shared-lhs",
        source: &[Pattern::Siblings { op: MatMul, slot: 0 }],
        guard: Some(mergeable_matmuls),
        target: Target::Template {
            emit: &[
                Emit::node(Concat, Attrs::Concat(Axis::FromEnd(Input(0, 1), 1)), &[Input(0, 1), Input(1, 1)]),
                Emit::node(MatMul, Attrs::Of(0), &[Input(0, 0), New(0, 0)]),
                Emit::node(Split, Attrs::SplitTwo(Axis::FromEnd(New(1, 0), 1)), &[New(1, 0)]),
            ],
            replace: &[(0, New(2, 0)), (1, New(2, 1))],
        },
    },
    // `a = x·w, b = y·w` -> `split(concat(x, y)·w)` along the rows.
    Substitution {
        name: "merge-matmul-shared-rhs",
        source: &[Pattern::Siblings { op: MatMul, slot: 1 }],
        guard: Some(mergeable_by_shared_weight),
        target: Target::Template {
            emit: &[
                Emit::node(Concat, Attrs::Concat(Axis::FromEnd(Input(0, 0), 2)), &[Input(0, 0), Input(1, 0)]),
                Emit::node(MatMul, Attrs::Of(0), &[New(0, 0), Input(0, 1)]),
                Emit::node(Split, Attrs::SplitTwo(Axis::FromEnd(New(1, 0), 2)), &[New(1, 0)]),
            ],
            replace: &[(0, New(2, 0)), (1, New(2, 1))],
        },
    },
    Substitution {
        name: "merge-conv-shared-input",
        source: &[Pattern::Siblings { op: Conv2d, slot: 0 }],
        guard: Some(mergeable_convs),
        target: Target::Template {
            emit: &[
                Emit::node(Concat, Attrs::Concat(Axis::At(0)), &[Input(0, 1), Input(1, 1)]),
                Emit::node(Conv2d, Attrs::Of(0), &[Input(0, 0), New(0, 0)]),
                Emit::node(Split, Attrs::SplitTwo(Axis::At(1)), &[New(1, 0)]),
            ],
            replace: &[(0, New(2, 0)), (1, New(2, 1))],
        },
    },
    Substitution {
        name: "enlarge-conv-kernel",
        source: &[Pattern::WithSibling { op: Conv2d, slot: 0 }],
        guard: Some(enlargeable),
        target: Target::Template {
            emit: &[
                Emit::node(Pad, Attrs::Fn(weight_padded_to_3x3), &[Input(0, 1)]),
                Emit::node(Conv2d, Attrs::Fn(kernel_3x3), &[Input(0, 0), New(0, 0)]),
            ],
            replace: &[(0, New(1, 0))],
        },
    },
    // Algebraic / layout family.
    Substitution {
        name: "eliminate-pass-through",
        source: &[Pattern::Node(op(&[Identity, Dropout, Cast]))],
        guard: None,
        target: Target::Template { emit: &[], replace: &[(0, Input(0, 0))] },
    },
    Substitution {
        name: "eliminate-transpose-pair",
        source: &[chain(op(&[Transpose]), op(&[Transpose]))],
        guard: Some(inverse_permutations),
        target: TO_PRODUCER_INPUT,
    },
    Substitution {
        name: "merge-reshape-pair",
        source: &[chain(op(&[Reshape]), op(&[Reshape]))],
        guard: None,
        target: Target::Build(collapse_reshapes),
    },
    // `Concat(Split(x))` reading every split output in order along one axis.
    Substitution {
        name: "eliminate-split-concat",
        source: &[Pattern::Chain {
            producer: op(&[Split]),
            consumer: op(&[Concat]),
            slot: Slot::At(0),
            sole: false,
        }],
        guard: Some(split_concat_round_trip),
        target: TO_PRODUCER_INPUT,
    },
    Substitution {
        name: "eliminate-squeeze-pair",
        source: &[chain(op(&[Squeeze]), op(&[Unsqueeze])), chain(op(&[Unsqueeze]), op(&[Squeeze]))],
        guard: Some(restores_shape),
        target: TO_PRODUCER_INPUT,
    },
    // `(A·B)·C -> A·(B·C)`.
    Substitution {
        name: "matmul-reassociate-right",
        source: &[Pattern::Chain {
            producer: unfused(&[MatMul]),
            consumer: unfused(&[MatMul]),
            slot: Slot::At(0),
            sole: true,
        }],
        guard: Some(reassociable_right),
        target: Target::Template {
            emit: &[
                Emit::node(MatMul, Attrs::Default, &[Input(0, 1), Input(1, 1)]),
                Emit::node(MatMul, Attrs::Default, &[Input(0, 0), New(0, 0)]),
            ],
            replace: &[(1, New(1, 0))],
        },
    },
    // `A·(B·C) -> (A·B)·C`.
    Substitution {
        name: "matmul-reassociate-left",
        source: &[Pattern::Chain {
            producer: unfused(&[MatMul]),
            consumer: unfused(&[MatMul]),
            slot: Slot::At(1),
            sole: true,
        }],
        guard: Some(reassociable_left),
        target: Target::Template {
            emit: &[
                Emit::node(MatMul, Attrs::Default, &[Input(1, 0), Input(0, 0)]),
                Emit::node(MatMul, Attrs::Default, &[New(0, 0), Input(0, 1)]),
            ],
            replace: &[(1, New(1, 0))],
        },
    },
];

/// The standard rule library used by every optimiser in this repository
/// (X-RLflow's environment, the TASO baseline and — restricted to tree-shaped
/// entries — the Tensat baseline).
pub fn standard_rules() -> Vec<Substitution> {
    STANDARD.to_vec()
}

/// Input `slot` of node `id` is a rank-2 tensor.
fn rank2(graph: &Graph, id: NodeId, slot: usize) -> bool {
    input(graph, id, slot).and_then(|r| graph.tensor_shape(r).map(|s| s.rank() == 2)).unwrap_or(false)
}

/// `[(A·B), ((A·B)·C)]`: `B` and `C` are rank-2, so `B·C` is well-formed.
fn reassociable_right(graph: &Graph, nodes: &[NodeId]) -> bool {
    rank2(graph, nodes[0], 1) && rank2(graph, nodes[1], 1)
}

/// `[(B·C), A·(B·C)]`: `A` and `B` are rank-2, so `A·B` is well-formed.
fn reassociable_left(graph: &Graph, nodes: &[NodeId]) -> bool {
    rank2(graph, nodes[1], 0) && rank2(graph, nodes[0], 0)
}

/// `[producer, add]`: the add's other operand is a parameter, and the sum
/// keeps the producer's shape (the bias broadcasts, it does not expand).
fn bias_add(graph: &Graph, nodes: &[NodeId]) -> bool {
    let (producer, add) = (nodes[0], nodes[1]);
    let Ok(node) = graph.node(add) else { return false };
    let bias = node.inputs.iter().find(|r| r.node != producer);
    node.inputs.len() == 2
        && bias.is_some_and(|&b| is_parameter(graph, b))
        && graph.tensor_shape(TensorRef::new(add)).ok() == graph.tensor_shape(TensorRef::new(producer)).ok()
}

/// `[first, second]` transposes compose to the identity.
fn inverse_permutations(graph: &Graph, nodes: &[NodeId]) -> bool {
    let (Ok(a), Ok(b)) = (graph.node(nodes[0]), graph.node(nodes[1])) else { return false };
    let (Some(pa), Some(pb)) = (&a.attrs.perm, &b.attrs.perm) else { return false };
    pa.len() == pb.len() && (0..pa.len()).all(|i| pa[pb[i]] == i)
}

/// `[first, second]`: the pair gives back its input's shape.
fn restores_shape(graph: &Graph, nodes: &[NodeId]) -> bool {
    let Ok(original) = input(graph, nodes[0], 0) else { return false };
    graph.tensor_shape(original).ok() == graph.tensor_shape(TensorRef::new(nodes[1])).ok()
}

/// `[split, concat]`: the concat reads every split output in order, along
/// the split's axis.
fn split_concat_round_trip(graph: &Graph, nodes: &[NodeId]) -> bool {
    let (Ok(split), Ok(concat)) = (graph.node(nodes[0]), graph.node(nodes[1])) else { return false };
    split.attrs.axis == concat.attrs.axis
        && concat.inputs.len() == split.outputs.len()
        && concat.inputs.iter().enumerate().all(|(i, r)| r.node == nodes[0] && r.port == i)
}

/// `[first, second]` reshapes become one reshape, or none when the pair
/// gives back its input's shape.
fn collapse_reshapes(b: &mut PatchBuilder<'_>, nodes: &[NodeId]) -> Result<(), GraphError> {
    let graph = b.base();
    let original = input(graph, nodes[0], 0)?;
    let second = TensorRef::new(nodes[1]);
    let final_shape = graph.tensor_shape(second)?.clone();
    if graph.tensor_shape(original)? == &final_shape {
        b.replace_all_uses(second, original)
    } else {
        let merged =
            b.add_node(Reshape, OpAttributes::reshape(final_shape.dims().to_vec()), vec![original.into()])?;
        b.replace_all_uses(second, merged)
    }
}

/// `true` when neither sibling's output depends on the other — merging two
/// dataflow-dependent nodes would rewire one into a cycle through the merged
/// kernel.
fn independent(graph: &Graph, a: NodeId, b: NodeId) -> bool {
    !depends_on(graph, a, b) && !depends_on(graph, b, a)
}

fn same_input_shape(graph: &Graph, a: NodeId, b: NodeId, slot: usize) -> bool {
    match (input(graph, a, slot), input(graph, b, slot)) {
        (Ok(ra), Ok(rb)) => {
            matches!((graph.tensor_shape(ra), graph.tensor_shape(rb)), (Ok(x), Ok(y)) if x == y)
        }
        _ => false,
    }
}

// The merge guards run once per sibling pair, so they test what is local to
// the pair first and what walks the graph (dependence) last. The conjunction
// is what decides; its order only decides the cost.

/// `[a, b]` matmuls sharing their left operand, over constant rank-2 weights.
fn mergeable_matmuls(graph: &Graph, nodes: &[NodeId]) -> bool {
    let (a, b) = (nodes[0], nodes[1]);
    let (Ok(na), Ok(nb)) = (graph.node(a), graph.node(b)) else { return false };
    na.attrs == nb.attrs
        && na.inputs.len() == 2
        && nb.inputs.len() == 2
        && same_input_shape(graph, a, b, 1)
        && graph.tensor_shape(na.inputs[1]).map(|s| s.rank() == 2).unwrap_or(false)
        && is_constant_derived(graph, na.inputs[1])
        && is_constant_derived(graph, nb.inputs[1])
        && independent(graph, a, b)
}

/// `[a, b]` matmuls sharing a parameter right operand.
fn mergeable_by_shared_weight(graph: &Graph, nodes: &[NodeId]) -> bool {
    let (a, b) = (nodes[0], nodes[1]);
    let (Ok(na), Ok(nb)) = (graph.node(a), graph.node(b)) else { return false };
    is_parameter(graph, na.inputs[1])
        && same_input_shape(graph, a, b, 0)
        && na.attrs == nb.attrs
        && independent(graph, a, b)
}

/// `[a, b]` ungrouped convolutions of one geometry over constant weights.
fn mergeable_convs(graph: &Graph, nodes: &[NodeId]) -> bool {
    let (a, b) = (nodes[0], nodes[1]);
    let (Ok(na), Ok(nb)) = (graph.node(a), graph.node(b)) else { return false };
    na.attrs == nb.attrs
        && na.attrs.groups <= 1
        && same_input_shape(graph, a, b, 1)
        && is_constant_derived(graph, na.inputs[1])
        && is_constant_derived(graph, nb.inputs[1])
        && independent(graph, a, b)
}

/// `[conv, sibling]`: a plain 1x1 convolution over a parameter weight and
/// a plain 3x3 one.
fn enlargeable(graph: &Graph, nodes: &[NodeId]) -> bool {
    let plain = |attrs: &OpAttributes, kernel| {
        attrs.kernel == Some(kernel)
            && attrs.stride == Some([1, 1])
            && attrs.padding == Padding::Same
            && attrs.groups <= 1
    };
    let (Ok(conv), Ok(sibling)) = (graph.node(nodes[0]), graph.node(nodes[1])) else { return false };
    plain(&conv.attrs, [1, 1])
        && plain(&sibling.attrs, [3, 3])
        && input(graph, nodes[0], 1).is_ok_and(|w| is_parameter(graph, w))
}

fn weight_padded_to_3x3(b: &PatchBuilder<'_>, nodes: &[NodeId]) -> Result<OpAttributes, GraphError> {
    let graph = b.base();
    let w = graph.tensor_shape(input(graph, nodes[0], 1)?)?;
    Ok(OpAttributes { target_shape: Some(vec![w.dim(0), w.dim(1), 3, 3]), ..Default::default() })
}

fn kernel_3x3(b: &PatchBuilder<'_>, nodes: &[NodeId]) -> Result<OpAttributes, GraphError> {
    Ok(OpAttributes { kernel: Some([3, 3]), ..b.base().node(nodes[0])?.attrs.clone() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::RuleMatch;
    use xrlflow_graph::{FusedActivation, TensorShape};

    fn entry(name: &str) -> Substitution {
        *STANDARD.iter().find(|s| s.name == name).expect("a standard rule")
    }

    fn apply(rule: &Substitution, graph: &Graph, site: &RuleMatch) -> Result<Graph, GraphError> {
        graph.apply_patch(&rule.build_patch(graph, site)?)
    }

    fn shape(d: &[usize]) -> TensorShape {
        TensorShape::new(d.to_vec())
    }

    #[test]
    fn standard_rule_names_are_unique() {
        let rules = standard_rules();
        let mut names: Vec<&str> = rules.iter().map(|r| r.name()).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
        assert!(before >= 20, "expected at least 20 rules, got {before}");
    }

    #[test]
    fn chains_require_a_sole_consumer_that_is_no_graph_output() {
        let rule = entry("fuse-matmul-relu");
        let mut g = Graph::new();
        let x = g.add_input(shape(&[1, 8]));
        let w = g.add_weight(shape(&[8, 8]));
        let mm = g.add_node(MatMul, OpAttributes::default(), vec![x.into(), w.into()]).unwrap();
        let relu = g.add_node(Relu, OpAttributes::default(), vec![mm.into()]).unwrap();
        g.mark_output(relu.into());
        assert_eq!(rule.find_matches(&g), vec![RuleMatch::new(vec![mm, relu])]);

        // The matmul is a graph output too: it cannot be fused away.
        let mut as_output = g.clone();
        as_output.mark_output(mm.into());
        assert!(rule.find_matches(&as_output).is_empty());

        // A second consumer of the matmul: the chain is no longer fusible.
        let tanh = g.add_node(Tanh, OpAttributes::default(), vec![mm.into()]).unwrap();
        g.mark_output(tanh.into());
        assert!(rule.find_matches(&g).is_empty());
    }

    fn conv_relu_graph() -> Graph {
        let mut g = Graph::new();
        let x = g.add_input(TensorShape::new(vec![1, 8, 16, 16]));
        let w = g.add_weight(TensorShape::new(vec![16, 8, 3, 3]));
        let conv = g
            .add_node(
                OpKind::Conv2d,
                OpAttributes::conv2d([3, 3], [1, 1], Padding::Same, 1),
                vec![x.into(), w.into()],
            )
            .unwrap();
        let relu = g.add_node(OpKind::Relu, OpAttributes::default(), vec![conv.into()]).unwrap();
        g.mark_output(relu.into());
        g
    }

    #[test]
    fn fuse_conv_relu_removes_a_node() {
        let g = conv_relu_graph();
        let rule = entry("fuse-conv-relu");
        let matches = rule.find_matches(&g);
        assert_eq!(matches.len(), 1);
        let out = apply(&rule, &g, &matches[0]).unwrap();
        assert!(out.validate().is_ok());
        assert_eq!(out.count_op(OpKind::Relu), 0);
        let fused = out.iter().find(|(_, n)| n.op == OpKind::Conv2d).expect("conv must survive");
        assert_eq!(fused.1.attrs.fused_activation, Some(FusedActivation::Relu));
        // Already-fused convolutions must not match again.
        assert!(rule.find_matches(&out).is_empty());
    }

    #[test]
    fn fuse_bias_add_for_matmul() {
        let mut g = Graph::new();
        let x = g.add_input(TensorShape::new(vec![4, 32]));
        let w = g.add_weight(TensorShape::new(vec![32, 16]));
        let b = g.add_weight(TensorShape::new(vec![16]));
        let mm = g.add_node(OpKind::MatMul, OpAttributes::default(), vec![x.into(), w.into()]).unwrap();
        let add = g.add_node(OpKind::Add, OpAttributes::default(), vec![mm.into(), b.into()]).unwrap();
        g.mark_output(add.into());

        let rule = entry("fuse-matmul-bias");
        let matches = rule.find_matches(&g);
        assert_eq!(matches.len(), 1);
        let out = apply(&rule, &g, &matches[0]).unwrap();
        assert!(out.validate().is_ok());
        assert_eq!(out.count_op(OpKind::Add), 0);
        assert_eq!(out.num_nodes(), 3);
    }

    #[test]
    fn bias_add_between_two_activations_does_not_match() {
        let mut g = Graph::new();
        let x = g.add_input(TensorShape::new(vec![4, 16]));
        let y = g.add_input(TensorShape::new(vec![4, 16]));
        let add = g.add_node(OpKind::Add, OpAttributes::default(), vec![x.into(), y.into()]).unwrap();
        g.mark_output(add.into());
        let rule = entry("fuse-matmul-bias");
        assert!(rule.find_matches(&g).is_empty());
    }

    #[test]
    fn fuse_conv_batchnorm() {
        let mut g = Graph::new();
        let x = g.add_input(TensorShape::new(vec![1, 8, 16, 16]));
        let w = g.add_weight(TensorShape::new(vec![16, 8, 1, 1]));
        let conv = g
            .add_node(
                OpKind::Conv2d,
                OpAttributes::conv2d([1, 1], [1, 1], Padding::Same, 1),
                vec![x.into(), w.into()],
            )
            .unwrap();
        let scale = g.add_weight(TensorShape::new(vec![16, 1, 1]));
        let bn =
            g.add_node(OpKind::BatchNorm, OpAttributes::default(), vec![conv.into(), scale.into()]).unwrap();
        g.mark_output(bn.into());

        let rule = entry("fuse-conv-batchnorm");
        let matches = rule.find_matches(&g);
        assert_eq!(matches.len(), 1);
        let out = apply(&rule, &g, &matches[0]).unwrap();
        assert!(out.validate().is_ok());
        assert_eq!(out.count_op(OpKind::BatchNorm), 0);
        assert_eq!(out.count_op(OpKind::Conv2d), 1);
    }

    #[test]
    fn eliminate_identity_chain() {
        let mut g = Graph::new();
        let x = g.add_input(shape(&[1, 8]));
        let id = g.add_node(OpKind::Identity, OpAttributes::default(), vec![x.into()]).unwrap();
        let drop = g.add_node(OpKind::Dropout, OpAttributes::default(), vec![id.into()]).unwrap();
        let relu = g.add_node(OpKind::Relu, OpAttributes::default(), vec![drop.into()]).unwrap();
        g.mark_output(relu.into());

        let rule = entry("eliminate-pass-through");
        assert_eq!(rule.find_matches(&g).len(), 2);
        let out = apply(&rule, &g, &rule.find_matches(&g)[0]).unwrap();
        assert!(out.validate().is_ok());
        assert_eq!(out.num_nodes(), 3);
    }

    #[test]
    fn transpose_pair_cancels_only_when_inverse() {
        let mut g = Graph::new();
        let x = g.add_input(shape(&[2, 3, 4]));
        let t1 =
            g.add_node(OpKind::Transpose, OpAttributes::transpose(vec![1, 2, 0]), vec![x.into()]).unwrap();
        let t2 =
            g.add_node(OpKind::Transpose, OpAttributes::transpose(vec![2, 0, 1]), vec![t1.into()]).unwrap();
        g.mark_output(t2.into());
        let rule = entry("eliminate-transpose-pair");
        let matches = rule.find_matches(&g);
        assert_eq!(matches.len(), 1);
        let out = apply(&rule, &g, &matches[0]).unwrap();
        assert!(out.validate().is_ok());
        assert_eq!(out.count_op(OpKind::Transpose), 0);

        // A non-inverse pair must not match.
        let mut g2 = Graph::new();
        let x = g2.add_input(shape(&[2, 3, 4]));
        let t1 =
            g2.add_node(OpKind::Transpose, OpAttributes::transpose(vec![1, 2, 0]), vec![x.into()]).unwrap();
        let t2 =
            g2.add_node(OpKind::Transpose, OpAttributes::transpose(vec![1, 2, 0]), vec![t1.into()]).unwrap();
        g2.mark_output(t2.into());
        assert!(rule.find_matches(&g2).is_empty());
    }

    #[test]
    fn reshape_pair_merges() {
        let mut g = Graph::new();
        let x = g.add_input(shape(&[2, 3, 4]));
        let r1 = g.add_node(OpKind::Reshape, OpAttributes::reshape(vec![6, 4]), vec![x.into()]).unwrap();
        let r2 = g.add_node(OpKind::Reshape, OpAttributes::reshape(vec![24]), vec![r1.into()]).unwrap();
        g.mark_output(r2.into());
        let rule = entry("merge-reshape-pair");
        let matches = rule.find_matches(&g);
        assert_eq!(matches.len(), 1);
        let out = apply(&rule, &g, &matches[0]).unwrap();
        assert!(out.validate().is_ok());
        assert_eq!(out.count_op(OpKind::Reshape), 1);
    }

    #[test]
    fn split_concat_round_trip_eliminated() {
        let mut g = Graph::new();
        let x = g.add_input(shape(&[1, 8, 4, 4]));
        let split = g.add_node(OpKind::Split, OpAttributes::split(1, 2), vec![x.into()]).unwrap();
        let cat = g
            .add_node(
                OpKind::Concat,
                OpAttributes::with_axis(1),
                vec![TensorRef::with_port(split, 0), TensorRef::with_port(split, 1)],
            )
            .unwrap();
        let relu = g.add_node(OpKind::Relu, OpAttributes::default(), vec![cat.into()]).unwrap();
        g.mark_output(relu.into());
        let rule = entry("eliminate-split-concat");
        let matches = rule.find_matches(&g);
        assert_eq!(matches.len(), 1);
        let out = apply(&rule, &g, &matches[0]).unwrap();
        assert!(out.validate().is_ok());
        assert_eq!(out.count_op(OpKind::Split), 0);
        assert_eq!(out.count_op(OpKind::Concat), 0);
    }

    #[test]
    fn reassociation_round_trip() {
        let mut g = Graph::new();
        let a = g.add_input(shape(&[8, 16]));
        let b = g.add_weight(shape(&[16, 32]));
        let c = g.add_weight(shape(&[32, 4]));
        let ab = g.add_node(OpKind::MatMul, OpAttributes::default(), vec![a.into(), b.into()]).unwrap();
        let abc = g.add_node(OpKind::MatMul, OpAttributes::default(), vec![ab.into(), c.into()]).unwrap();
        g.mark_output(abc.into());

        let right = entry("matmul-reassociate-right");
        let matches = right.find_matches(&g);
        assert_eq!(matches.len(), 1);
        let out = apply(&right, &g, &matches[0]).unwrap();
        assert!(out.validate().is_ok());
        // B·C is now weight-only, hence constant-foldable.
        let foldable = out.foldable_nodes();
        let inner = out
            .iter()
            .find(|(_, n)| {
                n.op == OpKind::MatMul && n.inputs.iter().all(|r| out.node(r.node).unwrap().op.is_source())
            })
            .unwrap();
        assert!(foldable.contains(&inner.0));

        // And the inverse direction applies to the result.
        let left = entry("matmul-reassociate-left");
        assert_eq!(left.find_matches(&out).len(), 1);
    }

    #[test]
    fn squeeze_pair_eliminated() {
        let mut g = Graph::new();
        let x = g.add_input(shape(&[2, 1, 4]));
        let s = g.add_node(OpKind::Squeeze, OpAttributes::with_axis(1), vec![x.into()]).unwrap();
        let u = g.add_node(OpKind::Unsqueeze, OpAttributes::with_axis(1), vec![s.into()]).unwrap();
        let relu = g.add_node(OpKind::Relu, OpAttributes::default(), vec![u.into()]).unwrap();
        g.mark_output(relu.into());
        let rule = entry("eliminate-squeeze-pair");
        let matches = rule.find_matches(&g);
        assert_eq!(matches.len(), 1);
        let out = apply(&rule, &g, &matches[0]).unwrap();
        assert!(out.validate().is_ok());
        assert_eq!(out.count_op(OpKind::Squeeze), 0);
        assert_eq!(out.count_op(OpKind::Unsqueeze), 0);
    }

    #[test]
    fn double_batchnorm_fused() {
        let mut g = Graph::new();
        let x = g.add_input(shape(&[1, 8, 4, 4]));
        let b1 = g.add_node(OpKind::BatchNorm, OpAttributes::default(), vec![x.into()]).unwrap();
        let b2 = g.add_node(OpKind::BatchNorm, OpAttributes::default(), vec![b1.into()]).unwrap();
        g.mark_output(b2.into());
        let rule = entry("fuse-double-batchnorm");
        let matches = rule.find_matches(&g);
        assert_eq!(matches.len(), 1);
        let out = apply(&rule, &g, &matches[0]).unwrap();
        assert!(out.validate().is_ok());
        assert_eq!(out.count_op(OpKind::BatchNorm), 1);
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
        let rule = entry("merge-matmul-shared-lhs");
        let matches = rule.find_matches(&g);
        // Three projections -> three unordered pairs.
        assert_eq!(matches.len(), 3);
        let out = apply(&rule, &g, &matches[0]).unwrap();
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
        let rule = entry("merge-conv-shared-input");
        let matches = rule.find_matches(&g);
        assert_eq!(matches.len(), 1);
        let out = apply(&rule, &g, &matches[0]).unwrap();
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
        assert!(entry("merge-conv-shared-input").find_matches(&g).is_empty());
        // ... but the 1x1 can be enlarged to 3x3, unlocking the merge next step.
        let enlarge = entry("enlarge-conv-kernel");
        let matches = enlarge.find_matches(&g);
        assert_eq!(matches.len(), 1);
        let out = apply(&enlarge, &g, &matches[0]).unwrap();
        assert!(out.validate().is_ok());
        assert_eq!(entry("merge-conv-shared-input").find_matches(&out).len(), 1);
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
        assert!(entry("merge-matmul-shared-rhs").find_matches(&g).is_empty());
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
        let rule = entry("merge-matmul-shared-rhs");
        let matches = rule.find_matches(&g);
        assert_eq!(matches.len(), 1);
        let out = apply(&rule, &g, &matches[0]).unwrap();
        assert!(out.validate().is_ok());
        assert_eq!(out.count_op(OpKind::MatMul), 1);
        assert_eq!(out.count_op(OpKind::Concat), 1);
    }
}
