//! Pins how candidate deltas *scale*, not how fast they are.
//!
//! A counting `#[global_allocator]` adds up the bytes requested while all 32
//! candidate deltas of InceptionV3's first observation are computed. A sparse
//! delta holds the patch's footprint, so together they must ask for less
//! memory than two dense `GraphFeatures` of that graph — a featuriser that
//! copied the base rows per candidate would ask for more than 32 of them.
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

#[test]
fn candidate_deltas_allocate_by_patch_footprint_not_by_graph_size() {
    let graph = build_model(ModelKind::InceptionV3, ModelScale::Bench).unwrap();
    let candidates = RuleSet::standard().generate_candidates(&graph, 32);
    assert_eq!(candidates.len(), 32, "InceptionV3's first observation fills the candidate budget");

    let (dense_bytes, features) = bytes_requested(|| GraphFeatures::from_graph(&graph));
    let (delta_bytes, deltas) = bytes_requested(|| {
        candidates
            .iter()
            .map(|c| GraphFeatures::delta_from_base_and_patch(&graph, &features, c.patch()))
            .collect::<Vec<_>>()
    });
    assert_eq!(deltas.len(), 32);
    assert!(
        delta_bytes < 2 * dense_bytes,
        "32 candidate deltas requested {delta_bytes} bytes; one dense GraphFeatures of the graph is {dense_bytes}"
    );
}
