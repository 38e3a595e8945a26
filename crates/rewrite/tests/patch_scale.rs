//! Pins how `Graph::apply_patch` *scales*, not how fast it is.
//!
//! A counting `#[global_allocator]` counts the allocations and adds up the
//! bytes requested while each of InceptionV3's 32 first-observation
//! candidates is materialised. Node slots hold `Arc<Node>`, so a rewrite
//! step copies one pointer per node and materialises only the patch's added
//! nodes and the nodes its rewires touch: a handful of allocations and, past
//! the per-slot bookkeeping, bytes proportional to the patch — where a
//! deep-cloning `apply_patch` asks for about five allocations per node
//! (≈ 1 000 on this graph). This file holds exactly one test so no
//! concurrent test thread can touch the counters mid-measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
use xrlflow_rewrite::RuleSet;

/// Counts every allocation and adds up every byte requested through the
/// global allocator (growing a buffer counts its new size); frees are not
/// subtracted.
struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        BYTES.fetch_add(layout.size(), Ordering::SeqCst);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        BYTES.fetch_add(new_size, Ordering::SeqCst);
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn counted<T>(work: impl FnOnce() -> T) -> (usize, usize, T) {
    let before = (ALLOCATIONS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));
    let result = work();
    (ALLOCATIONS.load(Ordering::SeqCst) - before.0, BYTES.load(Ordering::SeqCst) - before.1, result)
}

/// Per node slot: the `Arc` pointer copied into the result (8 bytes), the
/// dead-node elimination's reachability flag (1) and its stack slot (4).
const PER_SLOT_BYTES: usize = 8 + 1 + 4;
/// What a node the result owns may cost beyond its slot, as a multiple of
/// the base graph's mean node size (its deep clone's bytes over its nodes).
const OWN_NODE_FACTOR: usize = 2;
/// Fixed allocations of one `apply_patch`: the slot vector, the outputs, the
/// added-node ids, the reachability flags and the stack.
const FIXED_ALLOCATIONS: usize = 5;
/// Allocations a node the result owns may cost: the `Arc`, its inputs, its
/// output-shape list and each shape's dimensions, its attribute vectors.
const PER_OWN_NODE_ALLOCATIONS: usize = 5;

#[test]
fn apply_patch_allocates_the_slot_vector_plus_the_patch_not_the_graph() {
    let rules = RuleSet::standard();
    let mut graph = build_model(ModelKind::InceptionV3, ModelScale::Bench).unwrap();
    // A deep copy of every node, the yardstick for "a node's bytes".
    let (deep_allocations, deep_bytes, _) =
        counted(|| graph.iter().map(|(_, node)| std::sync::Arc::new(node.clone())).collect::<Vec<_>>());
    let mean_node_bytes = deep_bytes / graph.num_nodes();
    assert!(deep_allocations > 3 * graph.num_nodes(), "a deep copy allocates per node: {deep_allocations}");

    // Every candidate of the first observation (rewire-only fusions), then
    // of a few steps along a trajectory that reaches merges, which add nodes.
    let (mut most_allocations, mut most_bytes, mut most_added) = (0, 0, 0);
    for step in 0..8 {
        let candidates = rules.generate_candidates(&graph, usize::MAX);
        assert!(candidates.len() >= 32, "InceptionV3 fills the candidate budget at step {step}");
        let slots = graph.id_bound();
        for candidate in &candidates {
            let patch = candidate.patch();
            let froms: Vec<_> = patch.rewires().iter().map(|(from, _)| *from).collect();
            let rewired = graph.iter().filter(|(_, n)| n.inputs.iter().any(|r| froms.contains(r))).count();
            let own_nodes = patch.added_nodes().len() + rewired;

            let (allocations, bytes, out) = counted(|| graph.apply_patch(patch).unwrap());
            assert!(out.validate().is_ok());
            let allowed_allocations = FIXED_ALLOCATIONS + PER_OWN_NODE_ALLOCATIONS * own_nodes;
            assert!(
                allocations <= allowed_allocations,
                "step {step}, {}: {allocations} allocations for {own_nodes} own nodes (allowed \
                 {allowed_allocations}; a deep clone makes {deep_allocations})",
                candidate.rule_name
            );
            let allowed_bytes = PER_SLOT_BYTES * (slots + patch.added_nodes().len())
                + 8 * graph.outputs().len()
                + OWN_NODE_FACTOR * mean_node_bytes * own_nodes;
            assert!(
                bytes <= allowed_bytes,
                "step {step}, {}: {bytes} bytes for {own_nodes} own nodes over {slots} slots (allowed \
                 {allowed_bytes}; a deep clone asks for {deep_bytes})",
                candidate.rule_name
            );
            most_allocations = most_allocations.max(allocations);
            most_bytes = most_bytes.max(bytes);
            most_added = most_added.max(patch.added_nodes().len());
        }
        graph = candidates[(step * 11) % candidates.len()].materialize(&graph).unwrap();
    }
    println!(
        "InceptionV3: at most {most_allocations} allocations / {most_bytes} bytes per apply_patch; a deep copy \
         of its nodes is {deep_allocations} allocations / {deep_bytes} bytes"
    );
    assert!(most_added >= 3, "the trajectory must reach a patch that adds nodes");
    assert!(most_allocations * 10 < deep_allocations);
}
