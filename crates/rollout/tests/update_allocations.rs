//! Pins what the PPO update *asks the allocator for* once it is warm, not how
//! fast it is.
//!
//! A counting `#[global_allocator]` counts every allocation (and growth) of
//! at least [`LARGE`] bytes — the sizes glibc's per-thread cache does not
//! serve — while the update re-evaluates BERT and SqueezeNet transitions at
//! the bench configuration. A recycled tape refills the buffers its previous
//! pass kept (op outputs, index lists, backward contributions, kernel
//! scratch), and the update hands each per-transition gradient buffer back
//! after merging it, so once every transition has run once:
//!
//! * one `transition_grad_into` on the recycled tape requests no large
//!   allocation, and
//! * inside one `minibatch_grads_parallel` call at one worker, no position
//!   after the first does (the first warms the call's fresh tape and its one
//!   gradient buffer up; the batch opens with BERT's first observation and
//!   holds only transitions no larger than it).
//!
//! Before a recycled tape kept its storage, a warm `transition_grad_into`
//! here requested 102 allocations of at least 1 KiB (664 031 bytes in all),
//! and positions 1..18 of the minibatch 1 898. This file holds exactly one
//! test so no concurrent test thread can touch the counters
//! mid-measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use xrlflow_bench::oracle::collect_curriculum_serial;
use xrlflow_core::{transition_grad_into, MinibatchContext, XrlflowAgent, XrlflowConfig};
use xrlflow_cost::DeviceProfile;
use xrlflow_env::EnvConfig;
use xrlflow_graph::models::{ModelKind, ModelScale};
use xrlflow_rollout::{minibatch_grads_parallel, Curriculum};
use xrlflow_tensor::{GradBuffer, Tape};

/// The smallest allocation counted as large: glibc's per-thread cache serves
/// requests up to 1032 bytes.
const LARGE: usize = 1024;

/// Counts allocations of at least [`LARGE`] bytes (growing a buffer to such
/// a size counts as one), and every allocation and byte requested.
struct CountingAllocator;

static LARGE_ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

fn count(size: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
    BYTES.fetch_add(size, Ordering::SeqCst);
    if size >= LARGE {
        LARGE_ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// `[large allocations, allocations, bytes]` requested by `work`, and its
/// result.
fn requested<T>(work: impl FnOnce() -> T) -> ([usize; 3], T) {
    let read = || [&LARGE_ALLOCATIONS, &ALLOCATIONS, &BYTES].map(|counter| counter.load(Ordering::SeqCst));
    let before = read();
    let result = work();
    let after = read();
    (std::array::from_fn(|i| after[i] - before[i]), result)
}

#[test]
fn a_warm_update_requests_no_large_allocation() {
    let bench = XrlflowConfig::bench();
    let config = XrlflowConfig { env: EnvConfig { max_steps: 6, ..bench.env.clone() }, ..bench };
    let curriculum = Curriculum::from_model_zoo(
        &[ModelKind::Bert, ModelKind::SqueezeNet],
        ModelScale::Bench,
        DeviceProfile::gtx1080(),
        config.env.clone(),
    )
    .unwrap();
    let agent = XrlflowAgent::new(&config, 3);
    let rollouts = collect_curriculum_serial(&agent, &curriculum, 0, 2, 11);
    let transitions = rollouts.buffer.transitions();
    assert!(rollouts.spec_ranges.iter().all(|range| !range.is_empty()), "both models collected transitions");
    let advantages: Vec<f32> = (0..transitions.len()).map(|i| if i % 2 == 0 { 0.75 } else { -1.5 }).collect();
    let returns: Vec<f32> = (0..transitions.len()).map(|i| 0.25 * i as f32).collect();
    let inv = 1.0 / transitions.len() as f32;

    // One recycled tape and one buffer, warmed on every transition once.
    let (mut tape, mut grads) = (Tape::new(), GradBuffer::zeros_like(&agent.store));
    let grad_into = |i: usize, tape: &mut Tape, grads: &mut GradBuffer| {
        transition_grad_into(
            &agent,
            &transitions[i],
            advantages[i],
            returns[i],
            &config.ppo,
            inv,
            tape,
            grads,
        )
    };
    for i in 0..transitions.len() {
        grad_into(i, &mut tape, &mut grads);
    }
    let per_transition: Vec<[usize; 3]> =
        (0..transitions.len()).map(|i| requested(|| grad_into(i, &mut tape, &mut grads)).0).collect();
    let total = |k: usize| per_transition.iter().map(|counts| counts[k]).sum::<usize>();
    println!(
        "a warm transition_grad_into requested on average {} allocations ({} of at least {LARGE} bytes) and {} \
         bytes over {} transitions",
        total(1) / transitions.len(),
        total(0) / transitions.len(),
        total(2) / transitions.len(),
        transitions.len()
    );
    for (i, counts) in per_transition.iter().enumerate() {
        assert_eq!(
            counts[0], 0,
            "transition {i}: a warm transition_grad_into requested {} allocations of at least {LARGE} bytes",
            counts[0]
        );
    }

    // One minibatch at one worker: BERT's first observation, then every
    // transition no larger than it in nodes, edges and candidates — the
    // SqueezeNet ones and the rest of its episode, whose rewrites shrink the
    // graph. What positions 1.. request is what the whole batch requests
    // minus what the first position alone does.
    let size = |i: usize| {
        let observation = &transitions[i].observation;
        [observation.features.num_nodes, observation.features.edge_src.len(), observation.deltas.len()]
    };
    let first = size(0);
    let batch: Vec<usize> =
        (0..transitions.len()).filter(|&i| (0..3).all(|k| size(i)[k] <= first[k])).collect();
    assert!(
        batch.iter().any(|&i| rollouts.spec_ranges[1].contains(&i)) && batch.len() >= 8,
        "the batch holds BERT and SqueezeNet transitions: {batch:?}"
    );
    let minibatch = |batch: &[usize]| {
        let ctx = MinibatchContext {
            transitions,
            batch,
            advantages: &advantages,
            returns: &returns,
            ppo: config.ppo,
        };
        requested(|| minibatch_grads_parallel(&agent, &ctx, 1).unwrap()).0
    };
    let (first, whole) = (minibatch(&batch[..1]), minibatch(&batch));
    println!(
        "minibatch_grads_parallel at 1 worker: the first position requested {} large allocations, the whole \
         batch of {} {}",
        first[0],
        batch.len(),
        whole[0]
    );
    assert_eq!(
        whole[0] - first[0],
        0,
        "positions 1..{} of one minibatch requested {} allocations of at least {LARGE} bytes",
        batch.len(),
        whole[0] - first[0]
    );
}
