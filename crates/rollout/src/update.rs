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
//!   `Arc<Tensor>`, every policy method takes `&self`); a thread's own state
//!   is one recycled `Tape`. The optimiser steps only on the trainer thread,
//!   *between* calls — `&mut agent` there, `&agent` inside a phase, so the
//!   borrow checker enforces what a per-minibatch copy used to.
//! * **Position-based sharding.** Minibatch positions round-robin across
//!   workers (`position % W`, the engine's item sharding) — a pure function
//!   of the batch and the worker count, never of timing.
//! * **Index-ordered merge.** Workers hand back one zero-initialised
//!   [`GradBuffer`](xrlflow_tensor::GradBuffer) per transition; the trainer
//!   thread merges each as the engine delivers it — **by minibatch
//!   position**, never completion order; on one thread as soon as it lands,
//!   so one transition's buffer is live at a time — then clips and steps:
//!   everything that mutates parameters stays on the trainer thread.
//!
//! Together these make the parallel update at any worker count bit-identical
//! (f32 bit equality of post-update parameters and `TrainingStats`) to the
//! serial oracle `xrlflow_bench::oracle::minibatch_grads_serial` —
//! differential-tested in `tests/serial_oracles.rs`.

use std::ops::Range;

use xrlflow_core::fault::{FaultPhase, WorkerFault};
use xrlflow_core::{transition_grad_into, MinibatchContext, MinibatchGrads, Trainer, XrlflowAgent};
use xrlflow_env::Observation;
use xrlflow_rl::{RolloutBuffer, TrainingStats};
use xrlflow_tensor::{GradBuffer, Tape};

use crate::supervise::run_items;
use crate::RolloutError;

/// Evaluates one minibatch's per-transition gradients on a supervised pool
/// of up to `num_workers` threads and merges them in minibatch-position
/// order.
///
/// Every worker borrows `agent` and walks its round-robin position shard
/// through `xrlflow_core::transition_grad_into` on its own recycled tape.
/// The engine delivers the per-position `(GradBuffer, stats)` pairs in
/// position order and each is merged on arrival, so the output is
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
    let inv = 1.0 / ctx.batch.len() as f32;
    let mut grads = GradBuffer::zeros_like(&agent.store);
    let mut stats = Vec::with_capacity(ctx.batch.len());
    run_items(
        FaultPhase::Update,
        ctx.batch.len(),
        num_workers,
        |position| position as u64,
        // One recycled tape per thread for its whole shard; the
        // per-position buffers stay separate because the merge is by
        // minibatch position.
        Tape::new,
        |tape, position| {
            let index = ctx.batch[position];
            let mut grads = GradBuffer::zeros_like(&agent.store);
            let stats = transition_grad_into(
                agent,
                &ctx.transitions[index],
                ctx.advantages[index],
                ctx.returns[index],
                &ctx.ppo,
                inv,
                tape,
                &mut grads,
            );
            (grads, stats)
        },
        // The engine delivers in minibatch-position order, never completion
        // order — the update half of the determinism contract. Inline, each
        // buffer is merged (and dropped) as soon as it lands.
        |_, (buffer, transition_stats)| {
            grads.merge(&buffer);
            stats.push(transition_stats);
        },
    )?;
    Ok(MinibatchGrads { grads, stats })
}

/// One PPO update with every minibatch's transition re-evaluations sharded
/// across `num_workers` threads: `Trainer::update` driven by
/// [`minibatch_grads_parallel`].
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
    trainer
        .update(agent, buffer, segments, &mut |agent, ctx| minibatch_grads_parallel(agent, ctx, num_workers))
        .map_err(RolloutError::WorkerFault)
}
