//! The serial oracles of the rollout engine and the data-parallel update.
//!
//! Each function here is the supervision-free, single-threaded form of a
//! phase that `xrlflow-rollout` runs on its supervised pool, written against
//! public API only. The differential suites in `xrlflow-core` and
//! `xrlflow-rollout` assert that the pool at every worker count — and under
//! any number of recovered faults — is bit-identical to these. They are
//! deliberately free of the pool's catch/retry machinery, so the comparison
//! is against a path that cannot mask a panic. Nothing on the training or
//! serving path calls them.
//!
//! They share every kernel with the paths they check: an episode is
//! [`collect_episode_with_rng`] under the same seed schedule, a transition's
//! gradient is [`transition_grad_into`], so only the sharding and the
//! supervision differ.

use xrlflow_core::{
    collect_episode_with_rng, transition_grad_into, EpisodeScratch, MinibatchContext, MinibatchGrads,
    XrlflowAgent,
};
use xrlflow_rollout::{curriculum_rng_seed, Curriculum, CurriculumEpisode, CurriculumRollouts};
use xrlflow_tensor::{GradBuffer, Tape, XorShiftRng};

/// Serial curriculum collection: for each spec in curriculum order, episodes
/// `first_episode .. first_episode + episodes_per_spec` collected one after
/// another against the live agent, seeded by [`curriculum_rng_seed`], each
/// on a fresh [`EpisodeScratch`] (the collectors it checks lend kept ones).
///
/// The oracle of `xrlflow_rollout::collect_curriculum_parallel`, which is
/// transition-for-transition bit-identical to this over the same range and
/// base seed, for any worker count — and, over a one-entry curriculum, of
/// `xrlflow_rollout::collect_parallel` on that entry's spec.
pub fn collect_curriculum_serial(
    agent: &XrlflowAgent,
    curriculum: &Curriculum,
    first_episode: u64,
    episodes_per_spec: usize,
    base_seed: u64,
) -> CurriculumRollouts {
    let mut out = CurriculumRollouts::default();
    for (spec, entry) in curriculum.entries().iter().enumerate() {
        let start = out.buffer.len();
        let mut env = entry.spec.build_env();
        for episode in first_episode..first_episode + episodes_per_spec as u64 {
            let mut rng = XorShiftRng::new(curriculum_rng_seed(base_seed, spec, episode));
            let scratch = &mut EpisodeScratch::default();
            let stats =
                collect_episode_with_rng(agent, &mut env, &mut rng, &mut out.buffer, episode, scratch);
            out.episodes.push(CurriculumEpisode { spec, episode, stats });
        }
        out.spec_ranges.push(start..out.buffer.len());
    }
    out
}

/// The serial minibatch evaluator: every transition of the batch
/// back-propagated on the calling thread via [`transition_grad_into`], merged
/// in minibatch-position order.
///
/// The oracle of `xrlflow_rollout::minibatch_grads_parallel`: sharding the
/// same batch across any number of workers and merging per-position buffers
/// in position order reproduces this function's output bit for bit.
pub fn minibatch_grads_serial(agent: &XrlflowAgent, ctx: &MinibatchContext) -> MinibatchGrads {
    let inv = 1.0 / ctx.batch.len() as f32;
    let mut merged = GradBuffer::zeros_like(&agent.store);
    let mut stats = Vec::with_capacity(ctx.batch.len());
    // One scratch tape and one per-transition buffer for the whole batch:
    // each contribution recycles them (starting from zeros, like a fresh
    // buffer) before it is merged in minibatch-position order.
    let mut tape = Tape::new();
    let mut scratch = GradBuffer::zeros_like(&agent.store);
    for &i in ctx.batch {
        let transition_stats = transition_grad_into(
            agent,
            &ctx.transitions[i],
            ctx.advantages[i],
            ctx.returns[i],
            &ctx.ppo,
            inv,
            &mut tape,
            &mut scratch,
        );
        merged.merge(&scratch);
        stats.push(transition_stats);
    }
    MinibatchGrads { grads: merged, stats }
}
