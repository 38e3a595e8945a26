//! Pins how candidate deltas and the featuriser *scale*, not how fast they
//! are.
//!
//! A counting `#[global_allocator]` adds up the bytes requested while
//! InceptionV3's first observation is featurised and while all 32 of its
//! candidate deltas are computed. A sparse delta holds the patch's footprint,
//! so together they must ask for less memory than two featurisations of the
//! graph at the parent commit — a featuriser that copied the base rows per
//! candidate would ask for more than 32 of them. The featuriser itself
//! stores per row the op index and the summed edge attributes, not a dense
//! one-hot row and a per-edge attribute tensor, so it must ask for at most a
//! pinned fraction of what the parent's did. The features read consumers and
//! reachability off the graph's memoised structure index, so `from_graph`
//! is measured on a graph that has built none, building it included:
//!
//! | tree                                                    | `from_graph` | 32 deltas |
//! |---------------------------------------------------------|--------------|-----------|
//! | parent (`2512620`, dense one-hot and edge tensors)      | 73 700       | 14 848    |
//! | op index + summed attributes per row, own consumer CSR  | 27 380       | 14 848    |
//! | this tree (the graph's index, its build counted)        | 16 668       | 12 544    |
//!
//! This file holds exactly one test so no concurrent test thread can touch
//! the counter mid-measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use xrlflow_gnn::GraphFeatures;
use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
use xrlflow_rewrite::RuleSet;

/// Adds up every byte requested through the global allocator (growing a
/// buffer counts its new size); frees are not subtracted.
struct CountingAllocator;

static BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Ordering::SeqCst);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size, Ordering::SeqCst);
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn bytes_requested<T>(work: impl FnOnce() -> T) -> (usize, T) {
    let before = BYTES.load(Ordering::SeqCst);
    let result = work();
    (BYTES.load(Ordering::SeqCst) - before, result)
}

/// What `from_graph` requested for InceptionV3 at the parent commit, when
/// it built the dense `[N, 41]` one-hot and `[E, 4]` edge tensors (measured
/// with this file on that tree).
const PARENT_FROM_GRAPH_BYTES: usize = 73_700;
/// The pinned fraction: this tree's `from_graph` asks for at most half.
const FROM_GRAPH_BYTES_CEILING: usize = PARENT_FROM_GRAPH_BYTES / 2;

#[test]
fn candidate_deltas_allocate_by_patch_footprint_not_by_graph_size() {
    let graph = build_model(ModelKind::InceptionV3, ModelScale::Bench).unwrap();
    let candidates = RuleSet::standard().generate_candidates(&graph, 32);
    assert_eq!(candidates.len(), 32, "InceptionV3's first observation fills the candidate budget");

    // Every `&mut self` method forgets the memoised index, and a zoo graph
    // has no dead node to eliminate.
    let mut unindexed = graph.clone();
    assert_eq!(unindexed.eliminate_dead_nodes(), 0);
    let (features_bytes, features) = bytes_requested(|| GraphFeatures::from_graph(&unindexed));
    let (delta_bytes, deltas) = bytes_requested(|| {
        candidates
            .iter()
            .map(|c| GraphFeatures::delta_from_base_and_patch(&graph, &features, c.patch()))
            .collect::<Vec<_>>()
    });
    assert_eq!(deltas.len(), 32);
    println!(
        "from_graph requested {features_bytes} bytes (parent: {PARENT_FROM_GRAPH_BYTES}), 32 deltas {delta_bytes}"
    );
    assert!(
        delta_bytes < 2 * PARENT_FROM_GRAPH_BYTES,
        "32 candidate deltas requested {delta_bytes} bytes; the parent's from_graph of the graph is \
         {PARENT_FROM_GRAPH_BYTES}"
    );
    assert!(
        features_bytes <= FROM_GRAPH_BYTES_CEILING,
        "from_graph requested {features_bytes} bytes; the pinned ceiling is {FROM_GRAPH_BYTES_CEILING} \
         (half the parent's {PARENT_FROM_GRAPH_BYTES})"
    );
}
