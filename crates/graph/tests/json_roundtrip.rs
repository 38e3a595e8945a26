//! Round-trip and differential tests for the JSON interchange format over
//! the whole model zoo, plus negative tests proving malformed documents
//! surface as typed [`GraphError`]s and never panics.
//!
//! The byte forms ([`Graph::from_json`], [`Graph::to_json`]) are held to the
//! tree forms ([`Graph::from_json_value`], [`Graph::to_json_value`]): the
//! same documents are accepted, rejected with the same error variant, and
//! written to the same bytes.

use std::mem::discriminant;

use xrlflow_graph::models::{build_model, ModelConfig, ModelKind, ModelScale};
use xrlflow_graph::{
    FusedActivation, Graph, GraphError, JsonValue, OpAttributes, OpKind, Padding, TensorRef, TensorShape,
};

const ALL_MODELS: &[ModelKind] = &[
    ModelKind::InceptionV3,
    ModelKind::SqueezeNet,
    ModelKind::ResNext50,
    ModelKind::ResNet18,
    ModelKind::Bert,
    ModelKind::DallE,
    ModelKind::TransformerTransducer,
    ModelKind::Vit,
];

/// Every zoo kind at three input sizes that build.
fn zoo_corpus() -> Vec<(String, Graph)> {
    let mut corpus = Vec::new();
    for &kind in ALL_MODELS {
        let d = kind.default_input_size();
        let graphs: Vec<(String, Graph)> = [d, d / 2, d + 1, 2 * d, d - 1]
            .into_iter()
            .filter_map(|size| {
                let graph = ModelConfig::new(kind, ModelScale::Bench).with_input_size(size).build().ok()?;
                Some((format!("{kind:?}@{size}"), graph))
            })
            .take(3)
            .collect();
        assert_eq!(graphs.len(), 3, "{kind:?}: fewer than three input sizes build");
        corpus.extend(graphs);
    }
    corpus
}

/// A small document that uses every part of the format: every attribute
/// key, names that need escapes, a non-zero port, several graph outputs and
/// a hole in node storage (export compacts it).
fn kitchen_sink() -> Graph {
    let shape = |dims: &[usize]| TensorShape::new(dims.to_vec());
    let mut g = Graph::new();
    let x = g.add_input(shape(&[1, 3, 8, 8]));
    let w = g.add_weight(shape(&[4, 3, 3, 3]));
    let conv_attrs =
        OpAttributes::conv2d([3, 3], [1, 1], Padding::Same, 1).with_fused_activation(FusedActivation::Relu);
    let conv =
        g.add_named_node("conv \"stem\" \\ 1", OpKind::Conv2d, conv_attrs, vec![x.into(), w.into()]).unwrap();
    let dead = g.add_node(OpKind::Identity, OpAttributes::default(), vec![conv.into()]).unwrap();
    let pool = g
        .add_named_node(
            "pool\n\té😀\u{1}",
            OpKind::MaxPool2d,
            OpAttributes::pool([2, 2], [2, 2], Padding::Valid),
            vec![dead.into()],
        )
        .unwrap();
    let split = g.add_node(OpKind::Split, OpAttributes::split(1, 2), vec![pool.into()]).unwrap();
    let flat = g
        .add_node(OpKind::Reshape, OpAttributes::reshape(vec![1, 32]), vec![TensorRef::with_port(split, 1)])
        .unwrap();
    let t = g.add_node(OpKind::Transpose, OpAttributes::transpose(vec![1, 0]), vec![flat.into()]).unwrap();
    let norm_attrs = OpAttributes { axis: Some(1), epsilon: 1e-5, folded: true, ..OpAttributes::default() };
    let norm = g.add_node(OpKind::LayerNorm, norm_attrs, vec![t.into()]).unwrap();
    let gw = g.add_weight(shape(&[1, 16]));
    let grouped = OpAttributes { groups: 2, ..OpAttributes::default() };
    let mm = g.add_node(OpKind::MatMul, grouped, vec![norm.into(), gw.into()]).unwrap();
    g.mark_output(mm.into());
    g.mark_output(split.into());
    g.replace_all_uses(dead.into(), conv.into()).unwrap();
    assert_eq!(g.eliminate_dead_nodes(), 1);
    g
}

fn verdict(result: &Result<Graph, GraphError>) -> String {
    match result {
        Ok(graph) => format!("Ok({} nodes)", graph.num_nodes()),
        Err(e) => format!("Err({e:?})"),
    }
}

/// `Graph::from_json(text)` against the tree reader: the same verdict, the
/// same error variant, and on success the same graph. Returns the verdict.
fn readers_agree(label: &str, text: &str) -> Result<Graph, GraphError> {
    let direct = Graph::from_json(text);
    let tree = JsonValue::parse(text).map_err(GraphError::Parse).and_then(|v| Graph::from_json_value(&v));
    match (&direct, &tree) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.to_json(), b.to_json(), "{label}: the readers built different graphs");
            assert_eq!(a.canonical_hash(), b.canonical_hash(), "{label}: canonical hashes differ");
        }
        (Err(a), Err(b)) => {
            assert_eq!(discriminant(a), discriminant(b), "{label}: direct {a:?} vs tree {b:?}")
        }
        _ => panic!("{label}: direct {} vs tree {}", verdict(&direct), verdict(&tree)),
    }
    direct
}

/// The byte writer against the tree writer, and the exact round trip.
fn assert_exact_round_trip(label: &str, graph: &Graph) {
    let text = graph.to_json();
    assert_eq!(text, graph.to_json_value().to_json(), "{label}: the writers disagree");
    assert_eq!(text.capacity(), text.len(), "{label}: the exported string carries slack");
    let back = readers_agree(label, &text).unwrap_or_else(|e| panic!("{label} failed to re-import: {e}"));
    assert_eq!(back.canonical_hash(), graph.canonical_hash(), "{label}: canonical hash changed");
    assert_eq!(back.num_nodes(), graph.num_nodes(), "{label}: node count changed");
    assert_eq!(back.num_edges(), graph.num_edges(), "{label}: edge count changed");
    // Export renumbers the live nodes densely, as `compact` does.
    let mut dense = graph.clone();
    dense.compact();
    assert_eq!(back.outputs(), dense.outputs(), "{label}: output refs changed");
    // A second trip through text is byte-identical (the format is a
    // stable cache key, not just semantically faithful).
    assert_eq!(back.to_json(), text, "{label}: export not stable under round trip");
}

#[test]
fn every_zoo_model_round_trips_exactly() {
    for (label, graph) in zoo_corpus() {
        assert_exact_round_trip(&label, &graph);
    }
    assert_exact_round_trip("kitchen sink", &kitchen_sink());
}

#[test]
fn paper_scale_model_round_trips() {
    // Paper-scale graphs keep the big-graph path honest without making the
    // suite slow.
    for kind in [ModelKind::SqueezeNet, ModelKind::Bert] {
        let graph = build_model(kind, ModelScale::Paper).unwrap();
        assert_exact_round_trip(&format!("{kind:?}@paper"), &graph);
    }
}

#[test]
fn truncations_of_a_real_model_never_panic() {
    // Every prefix of the kitchen-sink document, and a spread of a real
    // model's: rejected, with the tree reader's error variant.
    let text = kitchen_sink().to_json();
    for cut in (0..text.len()).filter(|&cut| text.is_char_boundary(cut)) {
        if readers_agree(&format!("prefix of {cut} bytes"), &text[..cut]).is_ok() {
            panic!("truncation at {cut} unexpectedly imported");
        }
    }
    let text = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap().to_json();
    let step = (text.len() / 64).max(1);
    for cut in (0..text.len()).step_by(step) {
        if readers_agree(&format!("SqueezeNet prefix of {cut} bytes"), &text[..cut]).is_ok() {
            panic!("truncation at {cut} unexpectedly imported");
        }
    }
}

#[test]
fn wrong_version_is_a_typed_error() {
    let text = build_model(ModelKind::Bert, ModelScale::Bench).unwrap().to_json();
    let bumped = text.replacen("\"version\": 1", "\"version\": 2", 1);
    match readers_agree("version 2", &bumped) {
        Err(GraphError::Parse(message)) => assert!(message.contains("version"), "got {message:?}"),
        other => panic!("expected parse error, got {}", verdict(&other)),
    }
}

#[test]
fn corrupted_documents_are_typed_errors() {
    let docs = [
        // Unknown operator name.
        r#"{"format": "xrlflow-graph", "version": 1, "nodes": [
            {"op": "Nope", "outputs": [[1]]}], "outputs": [[0, 0]]}"#,
        // Dangling input reference.
        r#"{"format": "xrlflow-graph", "version": 1, "nodes": [
            {"op": "Relu", "inputs": [[5, 0]], "outputs": [[1]]}], "outputs": [[0, 0]]}"#,
        // Two-node cycle.
        r#"{"format": "xrlflow-graph", "version": 1, "nodes": [
            {"op": "Relu", "inputs": [[1, 0]], "outputs": [[1]]},
            {"op": "Relu", "inputs": [[0, 0]], "outputs": [[1]]}], "outputs": [[1, 0]]}"#,
        // Stored shape disagreeing with inference.
        r#"{"format": "xrlflow-graph", "version": 1, "nodes": [
            {"op": "Input", "outputs": [[1, 8]]},
            {"op": "Relu", "inputs": [[0, 0]], "outputs": [[1, 9]]}], "outputs": [[1, 0]]}"#,
        // Dangling graph output.
        r#"{"format": "xrlflow-graph", "version": 1, "nodes": [
            {"op": "Input", "outputs": [[1, 8]]}], "outputs": [[4, 0]]}"#,
        // Negative node index.
        r#"{"format": "xrlflow-graph", "version": 1, "nodes": [
            {"op": "Input", "outputs": [[1, 8]]},
            {"op": "Relu", "inputs": [[-1, 0]], "outputs": [[1, 8]]}], "outputs": [[1, 0]]}"#,
        // Shape product overflowing usize.
        r#"{"format": "xrlflow-graph", "version": 1, "nodes": [
            {"op": "Input", "outputs": [[4000000000, 4000000000, 4000000000]]}], "outputs": [[0, 0]]}"#,
        // Transpose attribute that is not a permutation.
        r#"{"format": "xrlflow-graph", "version": 1, "nodes": [
            {"op": "Input", "outputs": [[2, 3]]},
            {"op": "Transpose", "inputs": [[0, 0]], "attrs": {"perm": [1, 1]},
             "outputs": [[3, 2]]}], "outputs": [[1, 0]]}"#,
        // Conv with zero stride (division-by-zero hazard).
        r#"{"format": "xrlflow-graph", "version": 1, "nodes": [
            {"op": "Input", "outputs": [[1, 3, 8, 8]]},
            {"op": "Weight", "outputs": [[4, 3, 3, 3]]},
            {"op": "Conv2d", "inputs": [[0, 0], [1, 0]],
             "attrs": {"kernel": [3, 3], "stride": [0, 0]}, "outputs": [[1, 4, 8, 8]]}],
            "outputs": [[2, 0]]}"#,
        // An op string whose closing quote is broken swallows the rest of
        // the node: a syntax error, not an unknown operator.
        r#"{"format": "xrlflow-graph", "version": 1, "nodes": [
            {"op": "Input#, "outputs": [[1, 8]]}], "outputs": [[0, 0]]}"#,
        // Ref pairs and dims of the wrong length or type.
        r#"{"format": "xrlflow-graph", "version": 1, "nodes": [
            {"op": "Input", "outputs": [[1, 8]]},
            {"op": "Relu", "inputs": [[0, 0, 0]], "outputs": [[1, 8]]}], "outputs": [[1, 0]]}"#,
        r#"{"format": "xrlflow-graph", "version": 1, "nodes": [
            {"op": "Input", "outputs": [[1, "8"]]}], "outputs": [[0, 0]]}"#,
        r#"{"format": "xrlflow-graph", "version": 1, "nodes": [
            {"op": "Input", "outputs": [[1, 8]]}], "outputs": [[0]]}"#,
        // A missing key.
        r#"{"format": "xrlflow-graph", "version": 1, "nodes": [
            {"op": "Input"}], "outputs": [[0, 0]]}"#,
        r#"{"format": "xrlflow-graph", "version": 1, "nodes": []}"#,
    ];
    for (i, doc) in docs.iter().enumerate() {
        if readers_agree(&format!("corrupted document {i}"), doc).is_ok() {
            panic!("corrupted document {i} unexpectedly imported");
        }
    }
    // The broken quote is reported as the syntax error it is.
    assert!(matches!(Graph::from_json(docs[9]), Err(GraphError::Parse(_))));
}

#[test]
fn bit_flips_in_a_real_document_never_panic() {
    // Fuzz-lite: every single-byte ±1 corruption of the kitchen-sink
    // document, and a spread of a real model's, either re-imports (the byte
    // was in a name or a dimension) or fails with the tree reader's error
    // variant — never panics. Deterministic, no RNG.
    let flips = |text: &str, step: usize| {
        let bytes = text.as_bytes();
        for pos in (0..bytes.len()).step_by(step) {
            for delta in [1u8, 255] {
                let mut corrupted = bytes.to_vec();
                corrupted[pos] = corrupted[pos].wrapping_add(delta);
                if let Ok(s) = String::from_utf8(corrupted) {
                    let _ = readers_agree(&format!("byte {pos} + {delta}"), &s);
                }
            }
        }
    };
    flips(&kitchen_sink().to_json(), 1);
    let text = build_model(ModelKind::Vit, ModelScale::Bench).unwrap().to_json();
    flips(&text, 7);
}

/// Rotates the key order of every object `depth` levels down (0: the
/// document, 2: the nodes, 3: their attrs) by `by` places.
fn rotate_keys(value: &mut JsonValue, depth: usize, by: usize) {
    match value {
        JsonValue::Object(pairs) => {
            if depth == 0 {
                let len = pairs.len();
                pairs.rotate_left(by % len);
            }
            for (_, v) in pairs.iter_mut() {
                rotate_keys(v, depth.wrapping_sub(1), by);
            }
        }
        JsonValue::Array(items) if depth > 0 => {
            for v in items.iter_mut() {
                rotate_keys(v, depth - 1, by);
            }
        }
        _ => {}
    }
}

#[test]
fn key_order_is_free_at_every_level() {
    let graph = kitchen_sink();
    let canonical = graph.to_json();
    let tree = graph.to_json_value();
    let import = |label: &str, doc: &JsonValue| {
        let back = readers_agree(label, &doc.to_json()).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(back.to_json(), canonical, "{label}: key order changed the graph");
    };
    // Every order of the four top-level keys.
    let JsonValue::Object(pairs) = &tree else { panic!("a document is an object") };
    for a in 0..4 {
        for b in (0..4).filter(|&b| b != a) {
            for c in (0..4).filter(|&c| c != a && c != b) {
                let d = 6 - a - b - c;
                let order = [a, b, c, d].map(|k| pairs[k].clone());
                import(&format!("top-level order {a}{b}{c}{d}"), &JsonValue::Object(order.to_vec()));
            }
        }
    }
    // Every rotation of the node and attrs keys, and their reversals.
    for depth in [2, 3] {
        for by in 0..5 {
            let mut doc = tree.clone();
            rotate_keys(&mut doc, depth, by);
            import(&format!("keys {depth} levels down rotated by {by}"), &doc);
        }
    }
}

#[test]
fn duplicate_keys_are_parse_errors_at_every_level() {
    let tree = kitchen_sink().to_json_value();
    for depth in [0, 2, 3] {
        let mut doc = tree.clone();
        duplicate_first_key(&mut doc, depth);
        let text = doc.to_json();
        let label = format!("duplicate key {depth} levels down");
        assert!(matches!(readers_agree(&label, &text), Err(GraphError::Parse(_))), "{label}");
    }
}

/// Repeats the first key of the first object `depth` levels down that has one.
fn duplicate_first_key(value: &mut JsonValue, depth: usize) -> bool {
    match value {
        JsonValue::Object(pairs) if depth == 0 && !pairs.is_empty() => {
            pairs.push(pairs[0].clone());
            true
        }
        JsonValue::Object(pairs) if depth > 0 => {
            pairs.iter_mut().any(|(_, v)| duplicate_first_key(v, depth - 1))
        }
        JsonValue::Array(items) if depth > 0 => items.iter_mut().any(|v| duplicate_first_key(v, depth - 1)),
        _ => false,
    }
}

#[test]
fn names_with_escapes_round_trip() {
    let graph = kitchen_sink();
    let back = Graph::from_json(&graph.to_json()).unwrap();
    let names = |g: &Graph| g.iter().filter_map(|(_, n)| n.name.clone()).collect::<Vec<_>>();
    assert_eq!(names(&back), vec!["conv \"stem\" \\ 1".to_string(), "pool\n\té😀\u{1}".to_string()]);
    assert_eq!(names(&back), names(&graph));

    // Escapes a JSON encoder may write where the writer writes raw
    // characters: `\/`, `é` and the surrogate pair Python's
    // `json.dumps` writes for a non-BMP character.
    let doc = |name: &str| {
        format!(
            "{{\"format\": \"xrlflow-graph\", \"version\": 1, \"nodes\": [\
             {{\"op\": \"Input\", \"name\": \"{name}\", \"outputs\": [[1, 8]]}}], \"outputs\": [[0, 0]]}}"
        )
    };
    let imported = readers_agree("escaped name", &doc(r"a\/\u00e9\ud83d\ude00\n")).unwrap();
    assert_eq!(names(&imported), vec!["a/é😀\n".to_string()]);
    for bad in [r"\ud83d", r"\ude00", r"\ude00\ud83d", r"\ud83dx", r"\ud83d\u0041", r"\u+041", r"\u004"] {
        match readers_agree(bad, &doc(bad)) {
            Err(GraphError::Parse(_)) => {}
            other => panic!("{bad}: expected a parse error, got {}", verdict(&other)),
        }
    }
}
