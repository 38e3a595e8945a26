//! The graph's memoised structure index against brute force, on every graph
//! the candidate-generation and featuriser suites walk: the zoo
//! trajectories, the rule-zoo graph and the sparse-delta bases (which hold
//! unreachable nodes, and a rewire onto one) with their patches applied. The
//! matcher's "single consumer", the carried site lists' touched set and the
//! featuriser's reference-count replay all read these two answers.

use std::collections::{BTreeSet, HashSet};

use xrlflow_bench::fixtures::{rule_zoo_graph, sparse_delta_cases, zoo_trajectories};
use xrlflow_graph::{Graph, NodeId};

/// A scan of every node for the ones reading `id`: distinct, ascending.
fn consumers_by_scan(g: &Graph, id: NodeId) -> Vec<NodeId> {
    if g.node(id).is_err() {
        return Vec::new();
    }
    g.iter().filter(|(_, node)| node.inputs.iter().any(|r| r.node == id)).map(|(c, _)| c).collect()
}

/// A depth-first walk from the outputs: the live nodes it never reaches,
/// ascending.
fn unreachable_by_walk(g: &Graph) -> Vec<NodeId> {
    let mut reached = HashSet::new();
    let mut stack: Vec<NodeId> = g.outputs().iter().map(|r| r.node).collect();
    while let Some(id) = stack.pop() {
        if let Ok(node) = g.node(id) {
            if reached.insert(id) {
                stack.extend(node.inputs.iter().map(|r| r.node));
            }
        }
    }
    g.iter().map(|(id, _)| id).filter(|id| !reached.contains(id)).collect()
}

#[test]
fn the_structure_index_answers_consumers_and_reachability_like_brute_force() {
    let mut graphs = zoo_trajectories();
    graphs.push(("rule-zoo".to_string(), rule_zoo_graph()));
    for case in sparse_delta_cases() {
        let patched = case.graph.apply_patch(&case.patch).expect("the case's patch applies");
        graphs.push((format!("{} (patched)", case.name), patched));
        graphs.push((case.name.to_string(), case.graph));
    }
    // Every id live in some graph: in another graph it can be live, removed
    // (a trajectory's earlier step held it) or past the last slot.
    let ids: BTreeSet<NodeId> = graphs.iter().flat_map(|(_, g)| g.iter().map(|(id, _)| id)).collect();
    let (mut dead, mut out_of_range, mut unreachable) = (0, 0, 0);
    for (name, g) in &graphs {
        for &id in ids.iter().take_while(|id| id.index() < g.id_bound() + 8) {
            assert_eq!(g.consumers_of(id), consumers_by_scan(g, id), "{name}: consumers of {id:?}");
            assert_eq!(g.structure().consumers_of(id), g.consumers_of(id), "{name}: the shared handle");
            match (g.node(id).is_err(), id.index() < g.id_bound()) {
                (true, true) => dead += 1,
                (true, false) => out_of_range += 1,
                (false, _) => {}
            }
        }
        assert_eq!(g.unreachable_nodes(), unreachable_by_walk(g), "{name}: unreachable nodes");
        unreachable += g.unreachable_nodes().len();
    }
    assert!(graphs.len() > 500, "the trajectories walk the zoo, got {} graphs", graphs.len());
    assert!(dead > 0 && out_of_range > 0, "removed ({dead}) and out-of-range ({out_of_range}) ids are asked");
    assert!(unreachable > 0, "the sparse-delta bases hold unreachable nodes");
}
