//! The JSON interchange as a caller outside the crate sees it: the byte
//! forms ([`Graph::from_json`], [`Graph::to_json`]) round-trip the model zoo
//! exactly, and the tree forms ([`Graph::from_json_value`],
//! [`Graph::to_json_value`]) are shims over them.
//!
//! The differential tests that hold the byte reader and writer to the tree
//! codec they replaced are unit tests of `xrlflow_graph::json`, beside that
//! oracle, which is test code and so not visible here.

use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
use xrlflow_graph::{Graph, JsonValue};

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

#[test]
fn the_tree_forms_are_the_byte_forms() {
    for &kind in ALL_MODELS {
        let graph = build_model(kind, ModelScale::Bench).unwrap();
        let text = graph.to_json();
        let tree = graph.to_json_value();
        assert_eq!(tree, JsonValue::parse(&text).unwrap(), "{kind:?}: to_json_value is not the parse");
        assert_eq!(tree.to_json(), text, "{kind:?}: the tree does not write the byte form's bytes");
        for back in [Graph::from_json(&text).unwrap(), Graph::from_json_value(&tree).unwrap()] {
            assert_eq!(back.canonical_hash(), graph.canonical_hash(), "{kind:?}: canonical hash changed");
            assert_eq!(back.to_json(), text, "{kind:?}: export not stable under round trip");
        }
    }
}

#[test]
fn the_tree_reader_rejects_what_the_byte_reader_rejects() {
    let text = build_model(ModelKind::Bert, ModelScale::Bench).unwrap().to_json();
    let docs = [
        text.replacen("\"version\": 1", "\"version\": 2", 1),
        text.replacen("\"MatMul\"", "\"QuantumMul\"", 1),
        text.replacen("\"nodes\"", "\"nodez\"", 1),
    ];
    for doc in &docs {
        let direct = Graph::from_json(doc).unwrap_err();
        let tree = Graph::from_json_value(&JsonValue::parse(doc).unwrap()).unwrap_err();
        assert_eq!(format!("{tree:?}"), format!("{direct:?}"), "the shim and the byte reader disagree");
    }
}
