//! Data-parallel PPO update: transition re-evaluations sharded across the
//! worker pool with a deterministic, index-ordered gradient merge.
//!
//! Each transition's loss subtree is independent until the final mean, so the
//! minibatch gradient is a *sum of per-transition contributions*;
//! `xrlflow-core` defines the canonical update exactly that way
//! (`transition_grad_into` into a zero-filled `GradBuffer` per transition,
//! merged in minibatch-position order), and this module computes the same
//! contributions through the supervised engine (`supervise::run_items` — one
//! work item per minibatch position) under the PR 3 rules:
//!
//! * **Workers borrow the live agent.** Inside a [`minibatch_grads_parallel`]
//!   call every thread reads the same `&XrlflowAgent` (parameters are
//!   `Arc<Tensor>`, every policy method takes `&self`); each position
//!   borrows a recycled `Tape` from the update's scratch, which keeps the
//!   tapes warm across minibatches. The optimiser steps only on the trainer
//!   thread, *between* calls — `&mut agent` there, `&agent` inside a phase,
//!   so the borrow checker enforces what a per-minibatch copy used to.
//! * **Position-based sharding.** Minibatch positions round-robin across
//!   workers (`position % W`, the engine's item sharding) — a pure function
//!   of the batch and the worker count, never of timing.
//! * **Index-ordered merge.** Workers hand back one zero-initialised
//!   [`GradBuffer`](xrlflow_tensor::GradBuffer) per transition; the trainer
//!   thread merges each as the engine delivers it — **by minibatch
//!   position**, never completion order — and returns the merged buffer to
//!   the scratch, which the next position refills. On one thread a
//!   buffer lands before the next position starts, so one buffer serves
//!   the whole minibatch. The trainer thread then clips and steps:
//!   everything that mutates parameters stays on it.
//!
//! Together these make the parallel update at any worker count bit-identical
//! (f32 bit equality of post-update parameters and `TrainingStats`) to the
//! serial oracle `xrlflow_bench::oracle::minibatch_grads_serial` —
//! differential-tested in `tests/serial_oracles.rs`.

use std::ops::Range;
use std::sync::{Mutex, PoisonError};

use xrlflow_core::fault::{FaultPhase, WorkerFault};
use xrlflow_core::{transition_grad_into, MinibatchContext, MinibatchGrads, Trainer, XrlflowAgent};
use xrlflow_env::Observation;
use xrlflow_rl::{RolloutBuffer, TrainingStats};
use xrlflow_tensor::{GradBuffer, Tape};

use crate::supervise::run_items;
use crate::RolloutError;

/// What the update's transition re-evaluations reuse from one to the next:
/// recycled tapes, each lent to one transition at a time and handed back
/// after it, and per-transition gradient buffers, lent to a transition and
/// handed back once merged. A tape whose transition panicked is dropped,
/// never handed back. Held across a whole update (and, by the
/// `ParallelTrainer`, across its rounds), so once warm a re-evaluation
/// refills storage instead of allocating it; it holds at most one tape and
/// a few buffers per worker.
#[derive(Debug, Default)]
pub(crate) struct UpdateScratch {
    tapes: Mutex<Vec<Tape>>,
    grads: Mutex<Vec<GradBuffer>>,
}

/// Takes a spare, if there is one.
fn lend<T>(spares: &Mutex<Vec<T>>) -> Option<T> {
    spares.lock().unwrap_or_else(PoisonError::into_inner).pop()
}

/// Returns a spare.
fn hand_back<T>(spares: &Mutex<Vec<T>>, spare: T) {
    spares.lock().unwrap_or_else(PoisonError::into_inner).push(spare);
}

/// Evaluates one minibatch's per-transition gradients on a supervised pool
/// of up to `num_workers` threads and merges them in minibatch-position
/// order.
///
/// Every worker borrows `agent` and walks its round-robin position shard
/// through `xrlflow_core::transition_grad_into` on a recycled tape, into a
/// spare gradient buffer (a fresh one when none is spare; the call
/// zero-fills it either way). The engine delivers the per-position
/// `(GradBuffer, stats)` pairs in position order and each is merged on
/// arrival, then handed back to the spares, so the output is
/// bit-identical to the serial oracle
/// `xrlflow_bench::oracle::minibatch_grads_serial` over the same context,
/// for any worker count — one effective thread runs the same supervised
/// loop inline.
///
/// Supervised by the crate's one engine (see the crate docs): a panicking
/// transition is retried against the same agent, hence bit-identically.
///
/// # Errors
///
/// A [`WorkerFault`] when a transition kept panicking past the retry budget
/// (2 extra attempts); the reported item id is the minibatch position.
pub fn minibatch_grads_parallel(
    agent: &XrlflowAgent,
    ctx: &MinibatchContext,
    num_workers: usize,
) -> Result<MinibatchGrads, WorkerFault> {
    minibatch_grads_with(agent, ctx, num_workers, &UpdateScratch::default())
}

/// [`minibatch_grads_parallel`] on tapes and buffers lent by `scratch`.
fn minibatch_grads_with(
    agent: &XrlflowAgent,
    ctx: &MinibatchContext,
    num_workers: usize,
    scratch: &UpdateScratch,
) -> Result<MinibatchGrads, WorkerFault> {
    let inv = 1.0 / ctx.batch.len() as f32;
    let mut grads = GradBuffer::zeros_like(&agent.store);
    let mut stats = Vec::with_capacity(ctx.batch.len());
    run_items(
        FaultPhase::Update,
        ctx.batch.len(),
        num_workers,
        |position| position as u64,
        // A worker holds nothing between positions: each borrows a tape and
        // a buffer from the scratch. The per-position buffers stay separate
        // because the merge is by minibatch position.
        || (),
        |(), position| {
            let index = ctx.batch[position];
            let mut tape = lend(&scratch.tapes).unwrap_or_default();
            let mut grads = lend(&scratch.grads).unwrap_or_else(|| GradBuffer::zeros_like(&agent.store));
            let stats = transition_grad_into(
                agent,
                &ctx.transitions[index],
                ctx.advantages[index],
                ctx.returns[index],
                &ctx.ppo,
                inv,
                &mut tape,
                &mut grads,
            );
            hand_back(&scratch.tapes, tape);
            (grads, stats)
        },
        // The engine delivers in minibatch-position order, never completion
        // order — the update half of the determinism contract. Inline, each
        // buffer is merged (and handed back) as soon as it lands.
        |_, (buffer, transition_stats)| {
            grads.merge(&buffer);
            hand_back(&scratch.grads, buffer);
            stats.push(transition_stats);
        },
    )?;
    Ok(MinibatchGrads { grads, stats })
}

/// One PPO update with every minibatch's transition re-evaluations sharded
/// across `num_workers` threads: `Trainer::update` driven by
/// [`minibatch_grads_parallel`], every minibatch borrowing tapes and
/// gradient buffers from one scratch for the whole update.
///
/// The clip + optimiser step stay on the calling thread, and the result —
/// post-update parameters, optimiser state and [`TrainingStats`] — is
/// bit-identical to `Trainer::update` over the serial oracle
/// `xrlflow_bench::oracle::minibatch_grads_serial` for any worker count.
///
/// # Errors
///
/// [`RolloutError::WorkerFault`] when a transition kept panicking past the
/// retry budget. Earlier minibatches may already have stepped the optimiser,
/// so the agent's state after this error is unspecified — recover by
/// resuming from the last durable `TrainState` checkpoint.
pub fn update_parallel(
    trainer: &mut Trainer,
    agent: &mut XrlflowAgent,
    buffer: &mut RolloutBuffer<Observation>,
    segments: &[Range<usize>],
    num_workers: usize,
) -> Result<TrainingStats, RolloutError> {
    update_with(trainer, agent, buffer, segments, num_workers, &UpdateScratch::default())
}

/// [`update_parallel`] on tapes and buffers lent by `scratch`.
pub(crate) fn update_with(
    trainer: &mut Trainer,
    agent: &mut XrlflowAgent,
    buffer: &mut RolloutBuffer<Observation>,
    segments: &[Range<usize>],
    num_workers: usize,
    scratch: &UpdateScratch,
) -> Result<TrainingStats, RolloutError> {
    trainer
        .update(agent, buffer, segments, &mut |agent, ctx| {
            minibatch_grads_with(agent, ctx, num_workers, scratch)
        })
        .map_err(RolloutError::WorkerFault)
}
