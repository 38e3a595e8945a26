//! Pins what one observation *carries* for the policy network, in live
//! bytes, not how fast it is built.
//!
//! Since an observation carries its graph's features and one sparse delta
//! per candidate, a rollout buffer holds them for every stored transition
//! until the update has re-evaluated it: what they weigh is what a training
//! round's buffer grows by. A counting `#[global_allocator]` tracks live
//! bytes — allocated minus freed — and the test measures what dropping the
//! features and the deltas of a BERT observation at a candidate cap of 32
//! frees once the observation is their only owner, and what the graph's
//! structure index, which the features share, keeps live.
//!
//! The features hold per row an op index and an attribute sum, the `u32`
//! edge sources and block offsets (an edge's destination is its block's
//! row) and the row ↔ node id map; the graph's index holds every node's
//! distinct consumers and its unreachable nodes; a delta holds the footprint
//! of its patch in four lists, each boxed to its length. On the bench-scale
//! BERT graph (109 nodes, 18 candidates after one step) that is 8 552 bytes:
//! 4 496 of features and 1 072 of the index (51 per node together), and
//! 2 984 of deltas (166 per candidate). The pins,
//! [`FEATURE_BYTES_PER_NODE`] and [`DELTA_BYTES_PER_CANDIDATE`], are those
//! figures plus about a tenth: `usize` edge lists, a stored destination
//! list, a second consumer index, a dense `[N, 45]` `f32` input matrix (180
//! bytes per node on its own) or a delta that copies the graph's rows breaks
//! them. This file holds exactly one test so no concurrent test thread can
//! touch the counter mid-measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use xrlflow_cost::{DeviceProfile, InferenceSimulator};
use xrlflow_env::{EnvConfig, Environment, Observation};
use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
use xrlflow_graph::Graph;
use xrlflow_rewrite::RuleSet;

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

/// What the features and the graph's structure index may weigh together per
/// node of the graph.
const FEATURE_BYTES_PER_NODE: isize = 56;
/// What a candidate's delta may weigh on average.
const DELTA_BYTES_PER_CANDIDATE: isize = 184;

/// Live bytes freed by dropping `value`.
fn freed_by<T>(value: T) -> isize {
    let before = LIVE.load(Ordering::SeqCst);
    drop(value);
    before - LIVE.load(Ordering::SeqCst)
}

#[test]
fn a_bert_observation_carries_its_features_and_deltas_in_a_few_kilobytes() {
    let graph = build_model(ModelKind::Bert, ModelScale::Bench).unwrap();
    let nodes = graph.num_nodes() as isize;
    let config = EnvConfig { max_candidates: 32, ..EnvConfig::default() };
    let simulator = InferenceSimulator::new(DeviceProfile::gtx1080());
    let mut env = Environment::new(graph, RuleSet::standard(), simulator, config);
    let first = env.reset(0);
    // A stepped-to observation: its features were derived, not featurised.
    let observation = env.step(&first, 0).observation;
    drop((env, first));
    let candidates = observation.candidates.len();
    assert!(candidates > 1, "BERT offers candidates, got {candidates}");

    let Observation { graph, features, deltas, .. } = observation;
    // The features share the graph's structure index, which the graph keeps
    // as long as it lives: weighed as what building it again keeps live, on
    // a copy that has memoised nothing (every `&mut self` method forgets the
    // index, and a stepped-to graph has no dead node to eliminate).
    let mut unindexed = Graph::clone(&graph);
    assert_eq!(unindexed.eliminate_dead_nodes(), 0);
    let before = LIVE.load(Ordering::SeqCst);
    unindexed.structure();
    let index_bytes = LIVE.load(Ordering::SeqCst) - before;
    let feature_bytes = freed_by(features);
    let delta_bytes = freed_by(deltas);
    println!(
        "a BERT observation ({nodes} nodes, {candidates} candidates) carries {} bytes: {feature_bytes} of \
         features, {index_bytes} of the graph's index, {delta_bytes} of deltas",
        feature_bytes + index_bytes + delta_bytes
    );
    let indexed_features = feature_bytes + index_bytes;
    assert!(
        indexed_features <= FEATURE_BYTES_PER_NODE * nodes,
        "the features of {nodes} nodes and their graph's index weigh {indexed_features} bytes, more than \
         {FEATURE_BYTES_PER_NODE} per node"
    );
    assert!(
        delta_bytes <= DELTA_BYTES_PER_CANDIDATE * candidates as isize,
        "{candidates} deltas weigh {delta_bytes} bytes, more than {DELTA_BYTES_PER_CANDIDATE} each"
    );
}
