//! Pins what an episode's policy steps *keep* from one step to the next, not
//! how fast they are.
//!
//! A counting `#[global_allocator]` tracks live bytes — allocated minus
//! freed — across the encoder's share of steps 3..25 of an InceptionV3
//! episode at the bench encoder size and K = 32: `GnnEncoder::encode_step` +
//! `EncoderEpisode::advance` + `Tape::recycle`, with candidate generation and
//! featurisation outside the measured region. What the region allocates and
//! does not free is held by the tape (its node list) or the episode (the
//! carried rows and the pass's scratch), so the running sum of its live bytes
//! is what those two retain between steps.
//!
//! `recycle` hands a step's values back to the storage each node position
//! keeps for the next step's node there, the carried rows are gathered over
//! the previous ones and the scratch is reused, so what the tape and the
//! episode retain may not grow with the step count: over steps 3..25 it may
//! grow by at most one step's dirty hidden block ([`DIRTY_BLOCKS`]; buffers
//! only grow when a later step is larger than every earlier one). On this
//! episode it grows by 32 bytes. Keeping one buffer per step — a tape that
//! adopts every constant's `Vec` into a pool it never hands back, say — grows
//! it by 22 buffers.
//!
//! The test also checks that every step after the first carried. This file
//! holds exactly one test so no concurrent test thread can touch the counter
//! mid-measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use xrlflow_gnn::{EncoderConfig, EncoderEpisode, GnnEncoder, GraphFeatures};
use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
use xrlflow_rewrite::RuleSet;
use xrlflow_tensor::{ParamStore, Tape, XorShiftRng};

/// Tracks the bytes currently allocated through the global allocator.
struct CountingAllocator;

static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::SeqCst);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::SeqCst);
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as isize - layout.size() as isize, Ordering::SeqCst);
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// The episode's length: `XrlflowConfig::bench()`'s step limit.
const STEPS: usize = 25;
/// The first step that counts: steps 0..3 warm the scratch up.
const WARM_UP: usize = 3;
/// How many dirty hidden blocks (one is ≈ 12.5 KB) what the tape and the
/// episode retain may grow by over steps 3..25.
const DIRTY_BLOCKS: isize = 1;

#[test]
fn what_a_carried_episode_retains_does_not_grow_with_its_steps() {
    let mut store = ParamStore::new();
    let mut rng = XorShiftRng::new(0);
    let config = EncoderConfig { hidden_dim: 32, num_gat_layers: 3 };
    let encoder = GnnEncoder::new(&mut store, config, &mut rng);
    let rules = RuleSet::standard();
    let mut graph = build_model(ModelKind::InceptionV3, ModelScale::Bench).unwrap();

    let (mut tape, mut episode) = (Tape::new(), EncoderEpisode::new());
    // Live bytes the tape and the episode gained since warm-up.
    let mut retained = 0isize;
    let mut most_retained = 0isize;
    let mut largest_dirty_block = 0isize;
    for step in 0..STEPS {
        let candidates = rules.generate_candidates(&graph, 32);
        assert!(!candidates.is_empty(), "InceptionV3 ran out of candidates at step {step}");
        let current = GraphFeatures::from_graph(&graph);
        let deltas: Vec<_> = candidates
            .iter()
            .map(|c| GraphFeatures::delta_from_base_and_patch(&graph, &current, c.patch()))
            .collect();
        let chosen = (step * 5) % candidates.len();

        let before = LIVE.load(Ordering::SeqCst);
        encoder.encode_step(&mut tape, &store, &current, &deltas, &mut episode);
        episode.advance(&tape, &deltas, chosen);
        // The last GAT layer's projection multiplies exactly the dirty rows.
        let dirty_rows =
            tape.matmul_shapes().filter(|shape| shape[2] == config.hidden_dim).nth(3).unwrap()[0];
        tape.recycle();
        let gained = LIVE.load(Ordering::SeqCst) - before;

        if step > 0 {
            assert!(dirty_rows < current.num_nodes, "step {step} did not carry");
            largest_dirty_block = largest_dirty_block.max((dirty_rows * config.hidden_dim * 4) as isize);
        }
        if step >= WARM_UP {
            retained += gained;
            most_retained = most_retained.max(retained);
        }
        graph = candidates[chosen].materialize(&graph).unwrap();
    }

    println!(
        "over steps {WARM_UP}..{STEPS} the tape and the episode retained at most {most_retained} live bytes more \
         than after warm-up; one dirty block is {largest_dirty_block}"
    );
    assert!(
        most_retained <= DIRTY_BLOCKS * largest_dirty_block,
        "the tape and the episode grew by {most_retained} live bytes over steps {WARM_UP}..{STEPS}, more than \
         {DIRTY_BLOCKS} dirty blocks of {largest_dirty_block}"
    );
}
