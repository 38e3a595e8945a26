//! Operand conservation, pinned as debt: a rewrite may restructure how its
//! operands are combined, but every `Input`, `Weight` and `Constant` that
//! reached a graph output before the patch must still reach one after it.
//!
//! Three entries drop an operand today — a batch norm's or a bias add's
//! parameters vanish with the node instead of folding into the producer
//! (ROADMAP item 15). They are listed below, and each must still violate the
//! check somewhere, so the list cannot go stale: fixing an entry fails this
//! test until the entry leaves the list.

use std::collections::BTreeSet;

use xrlflow_bench::fixtures::{rule_zoo_graph, zoo_trajectories};
use xrlflow_graph::{Graph, NodeId};
use xrlflow_rewrite::rules::standard_rules;
use xrlflow_taso::PARTIALLY_EQUIVALENT_CONV;

/// The entries whose patch leaves a source operand unreachable today.
const DROP_AN_OPERAND: [&str; 3] = ["fuse-conv-batchnorm", "fuse-matmul-bias", "fuse-conv-bias"];

/// The source nodes (inputs, weights, constants) some graph output reads.
fn reached_sources(graph: &Graph) -> BTreeSet<NodeId> {
    let mut seen = vec![false; graph.id_bound()];
    let mut stack: Vec<NodeId> = graph.outputs().iter().map(|r| r.node).collect();
    let mut sources = BTreeSet::new();
    while let Some(id) = stack.pop() {
        let Ok(node) = graph.node(id) else { continue };
        if std::mem::replace(&mut seen[id.index()], true) {
            continue;
        }
        if node.op.is_source() {
            sources.insert(id);
        }
        stack.extend(node.inputs.iter().map(|r| r.node));
    }
    sources
}

#[test]
fn every_entry_but_the_listed_keeps_every_operand_reachable() {
    let mut graphs = zoo_trajectories();
    graphs.push(("rule-zoo".to_string(), rule_zoo_graph()));
    // PET's rule set is the standard table plus its own entry.
    let mut rules = standard_rules();
    rules.push(PARTIALLY_EQUIVALENT_CONV);
    let mut violators = BTreeSet::new();
    let mut sites = 0;
    for (name, graph) in &graphs {
        let before = reached_sources(graph);
        for rule in &rules {
            for site in rule.find_matches(graph) {
                let Ok(patch) = rule.build_patch(graph, &site) else { continue };
                let after = graph.apply_patch(&patch).expect("a built patch applies to its base");
                sites += 1;
                let lost: Vec<NodeId> = before.difference(&reached_sources(&after)).copied().collect();
                if !lost.is_empty() {
                    assert!(
                        DROP_AN_OPERAND.contains(&rule.name()),
                        "{name}: {} at {:?} leaves {lost:?} unreachable",
                        rule.name(),
                        site.nodes
                    );
                    violators.insert(rule.name());
                }
            }
        }
    }
    assert!(sites > 10_000, "expected the trajectories to offer many sites, got {sites}");
    assert_eq!(violators, BTreeSet::from(DROP_AN_OPERAND), "a listed entry no longer drops an operand");
}
