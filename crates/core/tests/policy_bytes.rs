//! A deployable policy is its values.
//!
//! A counting `#[global_allocator]` adds up the bytes requested while an
//! agent is built at `XrlflowConfig::bench()`. A `ParamStore` holds names and
//! values and nothing else — gradients live in a `GradBuffer`, optimiser
//! state in `Adam` — so a fresh agent asks for little more than its parameter
//! values, and an agent built from a snapshot for those plus the loaded copy.
//! A store that also kept a gradient and two Adam moments per parameter would
//! ask for about four and five times the values. This file holds exactly one
//! test so no concurrent test thread can touch the counter mid-measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use xrlflow_core::{XrlflowAgent, XrlflowConfig};

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
fn an_agent_asks_for_its_parameter_values_and_little_else() {
    let config = XrlflowConfig::bench();
    let (new_bytes, agent) = bytes_requested(|| XrlflowAgent::new(&config, 3));
    let value_bytes = agent.num_parameters() * std::mem::size_of::<f32>();
    let snapshot = agent.snapshot();
    let (loaded_bytes, loaded) = bytes_requested(|| XrlflowAgent::from_snapshot(&config, &snapshot).unwrap());
    assert_eq!(loaded.num_parameters(), agent.num_parameters());

    let ratio = |bytes: usize| bytes as f64 / value_bytes as f64;
    assert!(
        ratio(new_bytes) <= 1.25,
        "XrlflowAgent::new requested {new_bytes} bytes, {:.2}× its {value_bytes} bytes of parameter values",
        ratio(new_bytes)
    );
    assert!(
        ratio(loaded_bytes) <= 2.25,
        "XrlflowAgent::from_snapshot requested {loaded_bytes} bytes, {:.2}× its {value_bytes} bytes of parameter \
         values (the initial values plus the loaded copy is 2×)",
        ratio(loaded_bytes)
    );
}
