//! Pins what the backward pass *asks the allocator for*, not how fast it is.
//!
//! A counting `#[global_allocator]` (the `delta_scale.rs` harness) measures
//! one BERT transition's `Tape::backward_into` through `encode_candidates` at
//! the bench encoder size. The reverse walk moves gradient buffers and transforms them in
//! place instead of cloning one per forwarded contribution, never
//! differentiates a constant, and the fused gather–scale–scatter ops drop
//! three `[E, H]` intermediates per GAT layer and the `[(K + 1)·N, H]`
//! readout matrix — so it must request a pinned factor less memory than the
//! clone-per-contribution walk it replaced:
//!
//! | tree                         | bytes requested by `backward_into` |
//! |------------------------------|------------------------------------|
//! | parent (PR 15, `ba687f3`)    | 2 154 224                          |
//! | this tree (PR 16)            |   341 720 (6.3× fewer)             |
//!
//! The test pins a factor of 4, leaving room for the index lists to change
//! with the rule set but none for a clone per contribution to come back.
//! This file holds exactly one test so no concurrent test thread can touch
//! the counter mid-measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use xrlflow_gnn::{EncoderConfig, GnnEncoder, GraphFeatures};
use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
use xrlflow_rewrite::RuleSet;
use xrlflow_tensor::{GradBuffer, ParamStore, Tape, XorShiftRng};

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

/// `(bytes requested, result)` of `work`.
fn requested<T>(work: impl FnOnce() -> T) -> (usize, T) {
    let bytes = BYTES.load(Ordering::SeqCst);
    let result = work();
    (BYTES.load(Ordering::SeqCst) - bytes, result)
}

/// What `backward_into` requested for this exact transition at the parent
/// commit (measured with this file on that tree).
const PARENT_BYTES: usize = 2_154_224;
/// The pinned factor: this tree must stay below a quarter of the parent.
const CHANGE_BYTES_CEILING: usize = PARENT_BYTES / 4;

#[test]
fn backward_requests_a_pinned_factor_fewer_bytes() {
    let mut store = ParamStore::new();
    let mut rng = XorShiftRng::new(0);
    let config = EncoderConfig { hidden_dim: 32, num_gat_layers: 3 };
    let encoder = GnnEncoder::new(&mut store, config, &mut rng);
    let graph = build_model(ModelKind::Bert, ModelScale::Bench).unwrap();
    let features = GraphFeatures::from_graph(&graph);
    let candidates = RuleSet::standard().generate_candidates(&graph, 32);
    assert!(!candidates.is_empty());
    let deltas: Vec<_> = candidates
        .iter()
        .map(|c| GraphFeatures::delta_from_base_and_patch(&graph, &features, c.patch()))
        .collect();

    // One transition: the current graph and every candidate embedded in one
    // pass, a scalar loss over all embeddings, one backward into a buffer.
    let mut tape = Tape::new();
    let z = encoder.encode_candidates(&mut tape, &store, &features, &deltas);
    let sq = tape.mul(z, z);
    let loss = tape.sum_all(sq);
    let mut grads = GradBuffer::zeros_like(&store);
    let (backward_bytes, ()) = requested(|| tape.backward_into(loss, &mut grads));
    assert!(grads.norm() > 0.0, "the backward pass must reach the encoder's parameters");
    println!("backward_into requested {backward_bytes} bytes (parent: {PARENT_BYTES})");
    assert!(
        backward_bytes < CHANGE_BYTES_CEILING,
        "one BERT transition's backward_into requested {backward_bytes} bytes; the pinned ceiling is \
         {CHANGE_BYTES_CEILING} (a quarter of the parent's {PARENT_BYTES})"
    );
}
