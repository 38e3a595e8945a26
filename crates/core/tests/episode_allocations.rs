//! Pins what an episode's policy steps *ask the allocator for* once their
//! scratch is warm, not how fast they are.
//!
//! A counting `#[global_allocator]` (the one `xrlflow-rollout`'s
//! `update_allocations.rs` uses) counts every allocation (and growth) of at
//! least [`LARGE`] bytes — the sizes glibc's per-thread cache does not serve
//! — around each `PolicyEpisode::act` of greedy and sampled episodes on
//! SqueezeNet, BERT and InceptionV3 at the bench configuration; the
//! environment's steps run outside the counted regions. Every episode
//! borrows one `EpisodeScratch`: its tape refills the buffers earlier passes
//! kept at each node position, and the encoder's pass scratch and carried
//! rows are refilled in place. So once each episode has run on the scratch
//! once, running it again requests no large allocation in any act.
//!
//! The test also prints what each episode's acts request on a fresh scratch,
//! which is what every episode requested before a scratch outlived its
//! episode: 98 (SqueezeNet), 115 (BERT) and 133 (InceptionV3) allocations of
//! at least 1 KiB per greedy episode, 0.59, 1.17 and 2.37 MB in all, where
//! the warm acts request none and 3, 20 and 46 KB. This file holds exactly
//! one test so no concurrent test thread can touch the counters
//! mid-measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use xrlflow_core::{EpisodeScratch, XrlflowAgent, XrlflowConfig};
use xrlflow_cost::{DeviceProfile, InferenceSimulator};
use xrlflow_env::Environment;
use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
use xrlflow_rewrite::RuleSet;
use xrlflow_tensor::XorShiftRng;

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

/// One episode of `agent` on `scratch` — greedy, or sampled from a generator
/// seeded with `seed` — stepped to its end as the collector steps it.
/// Returns what each act requested.
fn episode_acts(
    agent: &XrlflowAgent,
    scratch: &mut EpisodeScratch,
    env: &mut Environment,
    sampled: Option<u64>,
) -> Vec<[usize; 3]> {
    let mut rng = sampled.map(XorShiftRng::new);
    let mut policy = agent.episode(scratch);
    let mut obs = env.reset(0);
    let mut acts = Vec::new();
    loop {
        let (counts, decision) = requested(|| policy.act(&obs, rng.as_mut()));
        acts.push(counts);
        let result = env.step(&obs, decision.action);
        if result.done {
            return acts;
        }
        obs = result.observation;
    }
}

#[test]
fn a_warm_episode_scratch_keeps_every_act_out_of_malloc() {
    let config = XrlflowConfig::bench();
    let agent = XrlflowAgent::new(&config, 7);
    let mut envs: Vec<(ModelKind, Environment)> =
        [ModelKind::SqueezeNet, ModelKind::Bert, ModelKind::InceptionV3]
            .into_iter()
            .map(|kind| {
                let env = Environment::new(
                    build_model(kind, ModelScale::Bench).unwrap(),
                    RuleSet::standard(),
                    InferenceSimulator::new(DeviceProfile::gtx1080()),
                    config.env.clone(),
                );
                (kind, env)
            })
            .collect();
    let episodes = [("greedy", None), ("sampled", Some(11))];
    let mut scratch = EpisodeScratch::default();
    // Every episode once, on the one scratch: what a fresh scratch requests.
    let mut cold = [0usize; 3];
    for (_, env) in &mut envs {
        for &(_, sampled) in &episodes {
            for counts in episode_acts(&agent, &mut scratch, env, sampled) {
                (0..3).for_each(|k| cold[k] += counts[k]);
            }
        }
    }
    println!(
        "growing the scratch over all six episodes requested {} allocations ({} of at least {LARGE} bytes) and \
         {} bytes in the acts",
        cold[1], cold[0], cold[2]
    );
    assert!(cold[0] > 0, "a fresh scratch grows its buffers: the counter must see that");

    // The same episodes again, each on a fresh scratch and on the warm one.
    let report = |acts: &[[usize; 3]], context: &str| {
        let total = |k: usize| acts.iter().map(|counts| counts[k]).sum::<usize>();
        println!(
            "{context}, {} acts: {} allocations ({} of at least {LARGE} bytes) and {} bytes",
            acts.len(),
            total(1),
            total(0),
            total(2)
        );
    };
    for (kind, env) in &mut envs {
        for &(mode, sampled) in &episodes {
            report(
                &episode_acts(&agent, &mut EpisodeScratch::default(), env, sampled),
                &format!("{kind} {mode}, fresh"),
            );
            let acts = episode_acts(&agent, &mut scratch, env, sampled);
            report(&acts, &format!("{kind} {mode}, warm"));
            assert!(acts.len() > 1, "{kind} {mode}: the episode must step");
            for (step, counts) in acts.iter().enumerate() {
                assert_eq!(
                    counts[0], 0,
                    "{kind} {mode}, step {step}: a warm act requested {} allocations of at least {LARGE} bytes",
                    counts[0]
                );
            }
        }
    }
}
