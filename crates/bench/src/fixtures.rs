//! Hand-built graphs the differential tests of several crates share.
//!
//! The rewrite table, the featuriser and the encoder are each checked on the
//! same graphs: the zoo models, [`rule_zoo_graph`] (where the rules that
//! fire on no zoo model fire) and the bases of [`sparse_delta_cases`]. They
//! live here, in the crate every test can reach as a dev-dependency, so
//! there is one copy of each. Nothing on the training or serving path calls
//! them.

use xrlflow_graph::{Graph, GraphPatch, OpAttributes, OpKind, PatchBuilder, TensorRef, TensorShape};

/// A synthetic graph triggering the rule families the model zoo does not
/// exercise (pass-through/pair eliminations, matmul/conv epilogue
/// fusions, re-association, shared-weight merging), so a differential
/// test over it covers every rule of the default rule set.
pub fn rule_zoo_graph() -> Graph {
    use xrlflow_graph::Padding;
    let mut g = Graph::new();
    let shape = |d: &[usize]| TensorShape::new(d.to_vec());
    let unary = |g: &mut Graph, op, attrs, input: TensorRef| -> TensorRef {
        g.add_node(op, attrs, vec![input]).unwrap().into()
    };

    // Identity + squeeze/unsqueeze + transpose-pair + reshape-pair chain.
    let x = g.add_input(shape(&[2, 1, 4]));
    let id = unary(&mut g, OpKind::Identity, OpAttributes::default(), x.into());
    let s = unary(&mut g, OpKind::Squeeze, OpAttributes::with_axis(1), id);
    let u = unary(&mut g, OpKind::Unsqueeze, OpAttributes::with_axis(1), s);
    let t1 = unary(&mut g, OpKind::Transpose, OpAttributes::transpose(vec![1, 2, 0]), u);
    let t2 = unary(&mut g, OpKind::Transpose, OpAttributes::transpose(vec![2, 0, 1]), t1);
    let r1 = unary(&mut g, OpKind::Reshape, OpAttributes::reshape(vec![2, 4]), t2);
    let r2 = unary(&mut g, OpKind::Reshape, OpAttributes::reshape(vec![4, 2]), r1);
    g.mark_output(r2);

    // Split–concat round trip.
    let y = g.add_input(shape(&[1, 8, 4, 4]));
    let split = g.add_node(OpKind::Split, OpAttributes::split(1, 2), vec![y.into()]).unwrap();
    let cat = g
        .add_node(
            OpKind::Concat,
            OpAttributes::with_axis(1),
            vec![TensorRef::with_port(split, 0), TensorRef::with_port(split, 1)],
        )
        .unwrap();
    g.mark_output(cat.into());

    // MatMul epilogue fusions, one per fused activation.
    for act in [OpKind::Relu, OpKind::Sigmoid, OpKind::Tanh, OpKind::Gelu] {
        let a = g.add_input(shape(&[4, 16]));
        let w = g.add_weight(shape(&[16, 8]));
        let mm = g.add_node(OpKind::MatMul, OpAttributes::default(), vec![a.into(), w.into()]).unwrap();
        let out = unary(&mut g, act, OpAttributes::default(), mm.into());
        g.mark_output(out);
    }

    // Conv epilogues: sigmoid fusion, bias-add fusion, double batch-norm.
    let img = g.add_input(shape(&[1, 3, 8, 8]));
    let wc1 = g.add_weight(shape(&[16, 3, 3, 3]));
    let conv_attrs = OpAttributes::conv2d([3, 3], [1, 1], Padding::Same, 1);
    let c1 = g.add_node(OpKind::Conv2d, conv_attrs.clone(), vec![img.into(), wc1.into()]).unwrap();
    let sig = unary(&mut g, OpKind::Sigmoid, OpAttributes::default(), c1.into());
    g.mark_output(sig);
    let wc2 = g.add_weight(shape(&[16, 3, 3, 3]));
    let c2 = g.add_node(OpKind::Conv2d, conv_attrs, vec![img.into(), wc2.into()]).unwrap();
    let bias = g.add_weight(shape(&[1, 16, 1, 1]));
    let biased = g.add_node(OpKind::Add, OpAttributes::default(), vec![c2.into(), bias.into()]).unwrap();
    g.mark_output(biased.into());
    let bn_in = g.add_input(shape(&[1, 8, 4, 4]));
    let bn1 = unary(&mut g, OpKind::BatchNorm, OpAttributes::default(), bn_in.into());
    let bn2 = unary(&mut g, OpKind::BatchNorm, OpAttributes::default(), bn1);
    g.mark_output(bn2);

    // MatMul re-association, both directions.
    let a = g.add_input(shape(&[8, 16]));
    let b = g.add_weight(shape(&[16, 32]));
    let c = g.add_weight(shape(&[32, 4]));
    let ab = g.add_node(OpKind::MatMul, OpAttributes::default(), vec![a.into(), b.into()]).unwrap();
    let abc = g.add_node(OpKind::MatMul, OpAttributes::default(), vec![ab.into(), c.into()]).unwrap();
    g.mark_output(abc.into());
    let bc = g.add_node(OpKind::MatMul, OpAttributes::default(), vec![b.into(), c.into()]).unwrap();
    let a2 = g.add_input(shape(&[8, 16]));
    let abc2 = g.add_node(OpKind::MatMul, OpAttributes::default(), vec![a2.into(), bc.into()]).unwrap();
    g.mark_output(abc2.into());

    // Two MatMuls sharing their weight (right operand).
    let w_shared = g.add_weight(shape(&[16, 8]));
    let in1 = g.add_input(shape(&[4, 16]));
    let in2 = g.add_input(shape(&[4, 16]));
    let m1 = g.add_node(OpKind::MatMul, OpAttributes::default(), vec![in1.into(), w_shared.into()]).unwrap();
    let m2 = g.add_node(OpKind::MatMul, OpAttributes::default(), vec![in2.into(), w_shared.into()]).unwrap();
    g.mark_output(m1.into());
    g.mark_output(m2.into());

    assert!(g.validate().is_ok());
    g
}

/// A hand-built base graph and patch, with the footprint its sparse delta
/// must have.
pub struct SparseDeltaCase {
    pub name: &'static str,
    pub graph: Graph,
    pub patch: GraphPatch,
    /// `(removed base rows, rewired rows, live added rows)`.
    pub footprint: (usize, usize, usize),
}

/// The shapes of patch a sparse delta can get wrong — each exercises one
/// decision of the reference-count replay that no rule of the standard set
/// is guaranteed to hit on the zoo graphs.
pub fn sparse_delta_cases() -> Vec<SparseDeltaCase> {
    let shape = |d: &[usize]| TensorShape::new(d.to_vec());
    let unary = |g: &mut Graph, op, input: TensorRef| -> TensorRef {
        g.add_node(op, OpAttributes::default(), vec![input]).unwrap().into()
    };
    let mut cases = Vec::new();
    let mut case =
        |name, graph, patch, footprint| cases.push(SparseDeltaCase { name, graph, patch, footprint });

    // Unreachable nodes in the base (`Graph::validate` accepts them): a
    // single one that reads the node the patch bypasses — its reference must
    // not keep that node alive — and a two-node chain. None of them is a row
    // of any candidate.
    {
        let mut g = Graph::new();
        let x: TensorRef = g.add_input(shape(&[1, 16])).into();
        let id = unary(&mut g, OpKind::Identity, x);
        let relu = unary(&mut g, OpKind::Relu, id);
        g.mark_output(relu);
        let _lone = unary(&mut g, OpKind::Tanh, id);
        let chain = unary(&mut g, OpKind::Sigmoid, x);
        let _chain_end = unary(&mut g, OpKind::Relu, chain);
        let mut b = PatchBuilder::new(&g);
        b.replace_all_uses(id, x).unwrap();
        let patch = b.finish();
        case("unreachable base nodes", g, patch, (4, 1, 0));
    }

    // A rewire that targets a node unreachable in the base brings it (and
    // what it reads) to life.
    {
        let mut g = Graph::new();
        let x: TensorRef = g.add_input(shape(&[1, 16])).into();
        let a = unary(&mut g, OpKind::Relu, x);
        let out = unary(&mut g, OpKind::Tanh, a);
        g.mark_output(out);
        let w: TensorRef = g.add_weight(shape(&[1, 16])).into();
        let dormant: TensorRef = g.add_node(OpKind::Add, OpAttributes::default(), vec![x, w]).unwrap().into();
        let mut b = PatchBuilder::new(&g);
        b.replace_all_uses(a, dormant).unwrap();
        let patch = b.finish();
        case("rewire onto an unreachable node", g, patch, (1, 1, 0));
    }

    // Chained rewires: `a -> b` then `b -> c` sends both tensors' readers to
    // `c`, and both producers die.
    {
        let mut g = Graph::new();
        let x: TensorRef = g.add_input(shape(&[1, 16])).into();
        let a = unary(&mut g, OpKind::Relu, x);
        let b_ = unary(&mut g, OpKind::Tanh, x);
        let c = unary(&mut g, OpKind::Sigmoid, x);
        let reads_a = unary(&mut g, OpKind::Identity, a);
        let reads_b = unary(&mut g, OpKind::Identity, b_);
        let reads_c = unary(&mut g, OpKind::Identity, c);
        for out in [reads_a, reads_b, reads_c] {
            g.mark_output(out);
        }
        let mut b = PatchBuilder::new(&g);
        b.replace_all_uses(a, b_).unwrap();
        b.replace_all_uses(b_, c).unwrap();
        let patch = b.finish();
        case("chained rewires", g, patch, (2, 2, 0));
    }

    // Added nodes that are dead once the rewires ran: one nothing ever
    // references, one that only replaces a tensor nobody reads (the unread
    // port of a Split).
    {
        let mut g = Graph::new();
        let y: TensorRef = g.add_input(shape(&[1, 8, 4, 4])).into();
        let split = g.add_node(OpKind::Split, OpAttributes::split(1, 2), vec![y]).unwrap();
        let half = unary(&mut g, OpKind::Relu, TensorRef::with_port(split, 0));
        g.mark_output(half);
        let mut b = PatchBuilder::new(&g);
        let read_port = TensorRef::with_port(split, 0);
        let _unreferenced =
            b.add_node(OpKind::Tanh, OpAttributes::default(), vec![read_port.into()]).unwrap();
        let live = b.add_node(OpKind::Sigmoid, OpAttributes::default(), vec![read_port.into()]).unwrap();
        let for_unread_port =
            b.add_node(OpKind::Tanh, OpAttributes::default(), vec![read_port.into()]).unwrap();
        b.replace_all_uses(TensorRef::with_port(split, 1), for_unread_port).unwrap();
        b.replace_all_uses(half, live).unwrap();
        let patch = b.finish();
        case("dead added nodes", g, patch, (1, 0, 1));
    }

    // A rewired tensor whose only use is a graph output.
    {
        let mut g = Graph::new();
        let x: TensorRef = g.add_input(shape(&[1, 16])).into();
        let a = unary(&mut g, OpKind::Relu, x);
        g.mark_output(a);
        let mut b = PatchBuilder::new(&g);
        let replacement = b.add_node(OpKind::Tanh, OpAttributes::default(), vec![x.into()]).unwrap();
        b.replace_all_uses(a, replacement).unwrap();
        let patch = b.finish();
        case("rewired graph output", g, patch, (1, 0, 1));
    }

    // A multi-output producer with one port rewired and the other still
    // consumed survives; with both rewired it dies.
    for both in [false, true] {
        let mut g = Graph::new();
        let y: TensorRef = g.add_input(shape(&[1, 8, 4, 4])).into();
        let z: TensorRef = g.add_input(shape(&[1, 4, 4, 4])).into();
        let split = g.add_node(OpKind::Split, OpAttributes::split(1, 2), vec![y]).unwrap();
        let first = unary(&mut g, OpKind::Relu, TensorRef::with_port(split, 0));
        let second = unary(&mut g, OpKind::Relu, TensorRef::with_port(split, 1));
        let third = unary(&mut g, OpKind::Relu, z);
        for out in [first, second, third] {
            g.mark_output(out);
        }
        let mut b = PatchBuilder::new(&g);
        b.replace_all_uses(TensorRef::with_port(split, 0), z).unwrap();
        if both {
            b.replace_all_uses(TensorRef::with_port(split, 1), z).unwrap();
        }
        let patch = b.finish();
        if both {
            case("split, both ports rewired", g, patch, (2, 2, 0));
        } else {
            case("split, one port rewired", g, patch, (0, 1, 0));
        }
    }

    // One producer feeding two input slots of the same consumer: both
    // references move.
    {
        let mut g = Graph::new();
        let x: TensorRef = g.add_input(shape(&[1, 16])).into();
        let a = unary(&mut g, OpKind::Relu, x);
        let other = unary(&mut g, OpKind::Tanh, x);
        let twice: TensorRef = g.add_node(OpKind::Add, OpAttributes::default(), vec![a, a]).unwrap().into();
        g.mark_output(twice);
        g.mark_output(other);
        let mut b = PatchBuilder::new(&g);
        b.replace_all_uses(a, other).unwrap();
        let patch = b.finish();
        case("two slots of one consumer", g, patch, (1, 1, 0));
    }

    // A rewired consumer that itself dies: `c` is rewired off `a`, then
    // everything reading `c` is rewired away, so `c` must end up removed —
    // not rewired — and release the reference the first rewire gave it.
    {
        let mut g = Graph::new();
        let x: TensorRef = g.add_input(shape(&[1, 16])).into();
        let a = unary(&mut g, OpKind::Relu, x);
        let c = unary(&mut g, OpKind::Tanh, a);
        let d = unary(&mut g, OpKind::Sigmoid, c);
        g.mark_output(d);
        let mut b = PatchBuilder::new(&g);
        let replacement = b.add_node(OpKind::Gelu, OpAttributes::default(), vec![x.into()]).unwrap();
        b.replace_all_uses(a, replacement).unwrap();
        b.replace_all_uses(c, x).unwrap();
        let patch = b.finish();
        case("rewired consumer dies", g, patch, (2, 1, 0));
    }

    for case in &cases {
        assert!(case.graph.validate().is_ok(), "{}: the base graph must be a valid request body", case.name);
    }
    cases
}

/// Every graph along five fixed rewrite trajectories per zoo kind
/// (`ModelKind::EVALUATED` plus ResNet-18, up to 25 steps each), named
/// `"<kind>, trajectory <t>, step <s>"`. Step `s` of trajectory `t` takes
/// candidate `(s·(2t + 1) + t) mod K` of the standard rule set's first 32,
/// so the walks reach merged (concatenated, hence foldable but not
/// parameter) weights and fused producers.
pub fn zoo_trajectories() -> Vec<(String, Graph)> {
    use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
    let rules = xrlflow_rewrite::RuleSet::standard();
    let mut out = Vec::new();
    for &kind in ModelKind::EVALUATED.iter().chain(&[ModelKind::ResNet18]) {
        for trajectory in 0..5usize {
            let mut g = build_model(kind, ModelScale::Bench).expect("zoo models build");
            for step in 0..25 {
                let candidates = rules.generate_candidates(&g, 32);
                out.push((format!("{kind}, trajectory {trajectory}, step {step}"), g.clone()));
                if candidates.is_empty() {
                    break;
                }
                let chosen = (step * (2 * trajectory + 1) + trajectory) % candidates.len();
                g = candidates[chosen].materialize(&g).expect("a candidate applies to its base");
            }
        }
    }
    out
}
