//! Shared fixtures of the featuriser's and the encoder's differential
//! tests: both levels check the same graphs and patches.

use xrlflow_graph::{Graph, TensorRef};

use crate::featurize::GraphFeatures;

pub(crate) use xrlflow_bench::fixtures::{rule_zoo_graph, sparse_delta_cases};

pub(crate) fn assert_features_identical(delta: &GraphFeatures, eager: &GraphFeatures, context: &str) {
    assert_eq!(delta.num_nodes, eager.num_nodes, "{context}: node count");
    assert_eq!(delta.edge_src, eager.edge_src, "{context}: edge sources");
    assert_eq!(delta.edge_offsets, eager.edge_offsets, "{context}: edge offsets");
    // Bit-identical attribute sums, not approximately equal ones.
    let inputs = |f: &GraphFeatures| {
        f.node_inputs.iter().map(|input| (input.op, input.incoming.map(f32::to_bits))).collect::<Vec<_>>()
    };
    assert_eq!(inputs(delta), inputs(eager), "{context}: node inputs");
    // Every other field is compared above: what is left is the index.
    assert!(delta == eager, "{context}: index");
}

/// The rule-zoo graph's hash as recorded on the commit before graphs shared
/// their nodes and memoised their structure (the model zoo's are pinned in
/// `xrlflow-graph`), and the one consistency check that needs rules: every
/// candidate of every zoo graph, materialised, answers structural questions
/// like a graph freshly built from its own JSON, shares every node the patch
/// did not rewire with its base, and leaves the base as it was.
#[test]
fn shared_node_graphs_hash_like_rebuilt_ones_across_every_zoo_candidate() {
    use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
    use xrlflow_rewrite::RuleSet;

    assert_eq!(rule_zoo_graph().canonical_hash(), 0x8551_E656_C1CB_3928);

    let rules = RuleSet::standard();
    let mut graphs = vec![("rule-zoo".to_string(), rule_zoo_graph())];
    for &kind in ModelKind::EVALUATED.iter().chain(&[ModelKind::ResNet18]) {
        graphs.push((kind.to_string(), build_model(kind, ModelScale::Bench).unwrap()));
    }
    let mut materialised = 0;
    for (name, base) in &graphs {
        let before = (base.canonical_hash(), base.to_json());
        for candidate in rules.generate_candidates(base, usize::MAX) {
            let context = format!("{name}, {}", candidate.rule_name);
            let out = candidate.materialize(base).unwrap();
            let rebuilt = Graph::from_json(&out.to_json()).expect("a candidate graph round-trips");
            assert_eq!(out.canonical_hash(), rebuilt.canonical_hash(), "{context}: canonical_hash");
            assert_eq!(out.num_nodes(), rebuilt.num_nodes(), "{context}: num_nodes");
            assert_eq!(out.foldable_nodes().len(), rebuilt.foldable_nodes().len(), "{context}: foldable");
            let order = out.topo_order().expect("a candidate graph is acyclic");
            assert_eq!(order.len(), out.num_nodes(), "{context}: topo_order");
            let froms: Vec<TensorRef> = candidate.patch().rewires().iter().map(|(from, _)| *from).collect();
            for (id, node) in base.iter() {
                let Ok(theirs) = out.node(id) else { continue };
                let rewired = node.inputs.iter().any(|r| froms.contains(r));
                assert_eq!(std::ptr::eq(theirs, node), !rewired, "{context}: {id:?} shared iff not rewired");
            }
            materialised += 1;
        }
        assert_eq!((base.canonical_hash(), base.to_json()), before, "{name}: the base changed");
    }
    assert!(materialised > 150, "the zoo offers candidates to materialise, got {materialised}");
}
