//! Pins what an episode's policy steps *ask the allocator for* once the
//! encoder carries, not how fast they are.
//!
//! A counting `#[global_allocator]` (the `delta_scale.rs` harness) measures
//! the encoder's share of steps 3..25 of an InceptionV3 episode at the bench
//! encoder size and K = 32: `Tape::recycle` + `GnnEncoder::encode_step` +
//! `EncoderEpisode::advance`, with candidate generation and featurisation
//! outside the measured region. Two things are pinned:
//!
//! * **Bytes.** The node-update input and the `[carried ‖ dirty]` blocks are
//!   built in the tape's pooled storage, the host-side plan lives in the
//!   episode, and the carried rows are gathered over the previous ones — so the 22 steps
//!   together may request no more than one step's dirty hidden block
//!   ([`DIRTY_BLOCKS`]; buffers only grow when a later step is larger than
//!   every earlier one). The loop this replaces built a fresh `[rows, 49]`
//!   input and a dozen plan and gather vectors on *every* step:
//!
//!   | steps 3..25 of this episode                          | bytes requested |
//!   |------------------------------------------------------|-----------------|
//!   | parent (PR 17, `317238a`), `encode_candidates`/step  | 12 718 540      |
//!   | this tree, `encode_step` + `advance`                 |         64      |
//!
//! * **Pool size.** The buffers the tape retains do not grow with the step
//!   count: a fresh `Vec` handed to `Tape::constant` every step is adopted
//!   by `recycle` and never handed out again — one more retained buffer per
//!   step, the bug this file exists for.
//!
//! This file holds exactly one test so no concurrent test thread can touch
//! the counter mid-measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use xrlflow_gnn::{EncoderConfig, EncoderEpisode, GnnEncoder, GraphFeatures};
use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
use xrlflow_rewrite::RuleSet;
use xrlflow_tensor::{ParamStore, Tape, XorShiftRng};

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

/// The episode's length: `XrlflowConfig::bench()`'s step limit.
const STEPS: usize = 25;
/// The first step that counts: steps 0..3 warm the pool and the scratch up.
const WARM_UP: usize = 3;
/// How many dirty hidden blocks' worth of bytes (one is ≈ 12.5 KB) steps
/// 3..25 may request in total.
const DIRTY_BLOCKS: usize = 1;

#[test]
fn a_carried_episode_requests_a_few_dirty_blocks_and_the_pool_does_not_grow_per_step() {
    let mut store = ParamStore::new();
    let mut rng = XorShiftRng::new(0);
    let config = EncoderConfig { hidden_dim: 32, num_gat_layers: 3 };
    let encoder = GnnEncoder::new(&mut store, config, &mut rng);
    let rules = RuleSet::standard();
    let mut graph = build_model(ModelKind::InceptionV3, ModelScale::Bench).unwrap();

    let (mut tape, mut episode) = (Tape::new(), EncoderEpisode::new());
    let mut counted_bytes = 0;
    let mut largest_dirty_block = 0;
    let mut pool_after_warm_up = 0;
    for step in 0..STEPS {
        let candidates = rules.generate_candidates(&graph, 32);
        assert!(!candidates.is_empty(), "InceptionV3 ran out of candidates at step {step}");
        let current = GraphFeatures::from_graph(&graph);
        let deltas: Vec<_> = candidates
            .iter()
            .map(|c| GraphFeatures::delta_from_base_and_patch(&graph, &current, c.patch()))
            .collect();
        let chosen = (step * 5) % candidates.len();
        let (bytes, ()) = bytes_requested(|| {
            tape.recycle();
            encoder.encode_step(&mut tape, &store, &current, &deltas, &mut episode);
            episode.advance(&tape, &deltas, chosen);
        });
        if step > 0 {
            // The last GAT layer's projection multiplies exactly the dirty rows.
            let dirty_rows =
                tape.matmul_shapes().filter(|shape| shape[2] == config.hidden_dim).nth(3).unwrap()[0];
            assert!(dirty_rows < current.num_nodes, "step {step} did not carry");
            largest_dirty_block = largest_dirty_block.max(dirty_rows * config.hidden_dim * 4);
        }
        if step >= WARM_UP {
            counted_bytes += bytes;
        }
        if step + 1 == WARM_UP {
            tape.recycle();
            pool_after_warm_up = tape.pooled_buffers();
        }
        graph = candidates[chosen].materialize(&graph).unwrap();
    }
    tape.recycle();
    let pool_at_the_end = tape.pooled_buffers();

    println!(
        "steps {WARM_UP}..{STEPS} requested {counted_bytes} bytes; one dirty block is {largest_dirty_block}; \
         the pool holds {pool_after_warm_up} buffers after warm-up, {pool_at_the_end} at the end"
    );
    assert!(
        counted_bytes <= DIRTY_BLOCKS * largest_dirty_block,
        "steps {WARM_UP}..{STEPS} requested {counted_bytes} bytes, more than {DIRTY_BLOCKS} dirty blocks of \
         {largest_dirty_block}"
    );
    // One retained buffer more per step would be `STEPS - WARM_UP` = 22.
    assert!(
        pool_at_the_end <= pool_after_warm_up + (STEPS - WARM_UP) / 4,
        "the tape's pool grew from {pool_after_warm_up} to {pool_at_the_end} buffers over {} steps",
        STEPS - WARM_UP
    );
}
