//! The traced run of the train layers.
//!
//! The rounds are driven from here, call by call, through the public
//! `collect_curriculum_parallel`/`collect_parallel` + `update_parallel` +
//! `Trainer::train_state`/`TrainState::save` — the sequence
//! `ParallelTrainer` runs internally — with a span around each call. The
//! parameters after a fixed number of rounds must equal those the real
//! trainer reaches, or the traced loop no longer mirrors it.

use std::path::{Path, PathBuf};
use std::time::Instant;

use xrlflow::core::{
    prune_train_states, train_state_path, transition_grad_into, Trainer, XrlflowAgent, XrlflowConfig,
};
use xrlflow::rl::{RolloutBuffer, Transition};
use xrlflow::rollout::{collect_curriculum_parallel, collect_parallel, update_parallel, RolloutError};
use xrlflow::tensor::{GradBuffer, ParamSnapshot, Tape, XorShiftRng};

use crate::ledger::{replay, traced_episode, Ledger, World};
use crate::machine::Machine;
use crate::report::{number, Outcome};
use crate::serve::{
    bench_config, zoo_curriculum, Served, POLICY_EPISODES_PER_MODEL, POLICY_SEED, TRAIN_WORKERS,
};
use crate::shadow::serve_probe;
use crate::stats::{mean, percentile_or_zero};
use crate::train::{self, snapshot_digest, Target, CHECKPOINT_ROUNDS};
use crate::workload::Workload;

/// Transitions of each round whose re-evaluation is replayed.
const SAMPLED_TRANSITIONS: usize = 6;
/// Rounds of the real trainer's run the traced rounds are compared with.
const REFERENCE_ROUNDS: usize = CHECKPOINT_ROUNDS;
/// Share of a traced train run's seconds spent on the rounds; the rest goes
/// to the reference run and the serve probe.
const ROUNDS_SHARE: f64 = 0.6;

/// When the traced rounds stop.
pub enum Stop {
    /// After exactly this many rounds; the last one checkpoints, as the
    /// last round of a `train`/`train_curriculum` call does.
    Rounds(usize),
    /// When the seconds are up, but not before this many rounds.
    Seconds(f64, usize),
}

/// What to train, how, and what the result must equal.
pub struct RoundsPlan<'a> {
    /// The pinned configuration.
    pub config: XrlflowConfig,
    /// The models trained on.
    pub target: Target,
    /// Trainer, agent and seed-schedule seed.
    pub seed: u64,
    /// Worker threads of collect and update.
    pub workers: usize,
    /// Checkpoint directory and the round period of writes; `None` for a
    /// workload that does not checkpoint.
    pub checkpoints: Option<(&'a PathBuf, usize)>,
    /// Where a lone checkpoint write is timed when `checkpoints` is `None`.
    pub scratch_dir: PathBuf,
    /// When to stop.
    pub stop: Stop,
    /// `(rounds, digest)`: the parameters after `rounds` rounds as the real
    /// trainer produced them.
    pub reference: (usize, u64),
}

impl RoundsPlan<'_> {
    /// The training that produced `served`'s policy, round for round.
    pub fn served_policy(served: &Served) -> RoundsPlan<'static> {
        let rounds = POLICY_EPISODES_PER_MODEL / served.config.ppo.update_frequency;
        RoundsPlan {
            config: served.config.clone(),
            target: Target::Zoo(zoo_curriculum(&served.config)),
            seed: POLICY_SEED,
            workers: TRAIN_WORKERS,
            checkpoints: None,
            scratch_dir: train::scratch_dir("policy"),
            stop: Stop::Rounds(rounds),
            reference: (rounds, snapshot_digest(&served.snapshot)),
        }
    }
}

/// Writes one exact-resume checkpoint the way `ParallelTrainer` does.
fn write_checkpoint(
    trainer: &Trainer,
    agent: &XrlflowAgent,
    next_episode: usize,
    seed: u64,
    dir: &Path,
    keep: usize,
) -> std::io::Result<()> {
    let state = trainer.train_state(agent, next_episode as u64, seed);
    state.save(train_state_path(dir, next_episode as u64))?;
    prune_train_states(dir, keep).map(|_| ())
}

/// Drives the planned rounds with a span around every call, replays the
/// nested parts after each round, emits the train-layer metrics and returns
/// the trained parameters.
pub fn trace_rounds(ledger: &mut Ledger, plan: RoundsPlan) -> ParamSnapshot {
    let Ledger { outcome, tracer, counts } = ledger;
    let RoundsPlan { config, target, seed, workers, checkpoints, scratch_dir, stop, reference } = plan;
    let frequency = config.ppo.update_frequency;
    let mut trainer = Trainer::new(config.clone(), seed);
    let mut agent = XrlflowAgent::new(&config, seed);
    let mut tape = Tape::new();
    let mut grads = GradBuffer::zeros_like(&agent.store);
    let mut episode_rng = XorShiftRng::new(seed ^ 0x7EACE);
    let mut transitions_per_round = Vec::new();
    let mut backward_us = Vec::new();
    let mut accounted = Vec::new();
    let start = Instant::now();
    let mut round = 0usize;

    let done = |round: usize| match stop {
        Stop::Rounds(rounds) => round >= rounds,
        Stop::Seconds(seconds, at_least) => round >= at_least && start.elapsed().as_secs_f64() >= seconds,
    };
    while !done(round) {
        let op = round as u64;
        let first_episode = (round * frequency) as u64;
        outcome.attempted += 1;

        let round_span = tracer.begin("rollout.round", op);
        let collect = tracer.begin("rollout.collect", op);
        let snapshot = agent.snapshot();
        let collected: Result<_, RolloutError> = match &target {
            Target::Zoo(curriculum) => collect_curriculum_parallel(
                &config,
                &snapshot,
                curriculum,
                first_episode,
                frequency,
                seed,
                workers,
            )
            .map(|r| (r.buffer, r.spec_ranges)),
            Target::Single(spec) => {
                collect_parallel(&config, &snapshot, spec, first_episode, frequency, seed, workers)
                    .map(|r| (r.buffer, Vec::new()))
            }
        };
        tracer.end(collect);
        let (mut buffer, segments) = match collected {
            Ok(collected) => collected,
            Err(e) => {
                tracer.end(round_span);
                outcome.failed += 1;
                outcome.violations.push(format!("traced round {round}: collect: {e}"));
                break;
            }
        };

        // The update clears the buffer: keep what the replays need. An
        // observation-free copy is enough for the advantage computation.
        let sample = tracer.begin("trace.sample", op);
        let transitions = buffer.transitions();
        transitions_per_round.push(transitions.len() as f64);
        let stride = (transitions.len() / SAMPLED_TRANSITIONS).max(1);
        let sampled: Vec<(usize, Transition<_>)> = transitions
            .iter()
            .enumerate()
            .step_by(stride)
            .take(SAMPLED_TRANSITIONS)
            .map(|(i, t)| (i, t.clone()))
            .collect();
        let mut bare = RolloutBuffer::new();
        for t in transitions {
            bare.push(Transition {
                observation: (),
                action: t.action,
                log_prob: t.log_prob,
                value: t.value,
                reward: t.reward,
                done: t.done,
                action_mask: t.action_mask.clone(),
            });
        }
        tracer.end(sample);

        let update = tracer.begin("rollout.update", op);
        let updated = update_parallel(&mut trainer, &mut agent, &mut buffer, &segments, workers);
        tracer.end(update);
        if let Err(e) = updated {
            tracer.end(round_span);
            outcome.failed += 1;
            outcome.violations.push(format!("traced round {round}: update: {e}"));
            break;
        }
        round += 1;

        // `ParallelTrainer` checkpoints every `period` rounds and after the
        // last round of a call.
        let last = matches!(stop, Stop::Rounds(rounds) if round == rounds);
        let mut children_ns = tracer.ns(collect) + tracer.ns(update);
        if let Some((dir, period)) = checkpoints {
            if round.is_multiple_of(period) || last {
                let checkpoint = tracer.begin("rollout.checkpoint", op);
                let written = write_checkpoint(&trainer, &agent, round * frequency, seed, dir, 2);
                tracer.end(checkpoint);
                children_ns += tracer.ns(checkpoint);
                outcome.check(written.is_ok(), || format!("traced round {round}: checkpoint: {written:?}"));
            }
        }
        tracer.end(round_span);
        accounted.push(children_ns as f64 / tracer.ns(round_span) as f64);
        if round == reference.0 {
            counts.mirror(snapshot_digest(&agent.snapshot()) == reference.1);
        }

        // Replays: the nested parts of the round, on the data it used.
        tracer.replay(collect, "rollout.snapshot", || {
            XrlflowAgent::from_snapshot(&config, &agent.snapshot()).expect("an agent's own snapshot loads")
        });
        tracer.replay(update, "rl.gae", || {
            bare.compute_advantages_segmented(config.ppo.gamma, config.ppo.gae_lambda, &segments);
        });
        let inv = 1.0 / config.ppo.batch_size as f32;
        for (i, transition) in &sampled {
            let (advantage, ret) = (bare.advantages()[*i], bare.returns()[*i]);
            let evaluate_start = tracer.spans().len();
            tracer.replay(update, "core.evaluate", || {
                tape.recycle();
                agent.evaluate(&mut tape, &transition.observation, transition.action)
            });
            tracer.replay(update, "core.transition_grad", || {
                transition_grad_into(
                    &agent,
                    transition,
                    advantage,
                    ret,
                    &config.ppo,
                    inv,
                    &mut tape,
                    &mut grads,
                )
            });
            let evaluate_ns = tracer.ns(evaluate_start);
            backward_us.push(tracer.ns(evaluate_start + 1).saturating_sub(evaluate_ns) as f64 / 1e3);
        }

        // One sampled episode on one of the round's models, for the
        // per-step layers (candidates, features, encoder, simulator, …).
        let spec = match &target {
            Target::Zoo(curriculum) => &curriculum.entries()[round % curriculum.len()].spec,
            Target::Single(spec) => spec,
        };
        let world = World { agent: &agent, rules: &spec.rules, simulator: &spec.simulator, config: &config };
        let (_, trail) =
            traced_episode(tracer, &world, spec.graph.clone(), &mut episode_rng, false, op, u64::MAX - op);
        replay(tracer, &world, trail, counts);
    }

    if checkpoints.is_none() {
        // A workload that never checkpoints still puts the cost of one
        // write on the ledger, outside any round.
        let written = tracer.time("rollout.checkpoint", u64::MAX, || {
            write_checkpoint(&trainer, &agent, round * frequency, seed, &scratch_dir, 1)
        });
        outcome.check(written.is_ok(), || format!("checkpoint probe: {written:?}"));
    }
    let _ = std::fs::remove_dir_all(&scratch_dir);
    outcome.check(round >= reference.0, || {
        format!("only {round} traced rounds; the reference needs {}", reference.0)
    });

    let retries = xrlflow::obs::counter!("rollout/item_retries").get();
    outcome.check(retries == 0, || format!("{retries} rollout work items were retried"));
    let p50 = |values: &[f64]| percentile_or_zero(values, 0.5);
    outcome.metric("core.evaluate_us", tracer.p50("core.evaluate", 1e3), "us");
    outcome.metric("core.transition_grad_us", tracer.p50("core.transition_grad", 1e3), "us");
    outcome.metric("tensor.backward_us", p50(&backward_us), "us");
    outcome.metric("rl.gae_us", tracer.p50("rl.gae", 1e3), "us");
    outcome.metric("rl.transitions_per_round", mean(&transitions_per_round), "count");
    outcome.metric("rollout.collect_ms", tracer.p50("rollout.collect", 1e6), "ms");
    outcome.metric("rollout.update_ms", tracer.p50("rollout.update", 1e6), "ms");
    outcome.metric("rollout.checkpoint_ms", tracer.p50("rollout.checkpoint", 1e6), "ms");
    outcome.metric("rollout.snapshot_us", tracer.p50("rollout.snapshot", 1e3), "us");
    outcome.metric(
        "rollout.worker_utilization",
        xrlflow::obs::gauge!("rollout/worker_utilization").get(),
        "ratio",
    );
    outcome.metric("rollout.item_retries", retries as f64, "count");
    outcome.metric("rollout.round_accounted_share", p50(&accounted), "ratio");
    outcome.detail("traced_rounds", number(round as f64));
    agent.snapshot()
}

/// The traced run of a train workload: the per-layer metrics.
pub fn run(workload: Workload, seed: u64, seconds: f64, machine: &mut Machine) -> Outcome {
    let mut training = train::set_up(workload, seed);
    let mut ledger = Ledger::default();

    // The reference: the real trainer's parameters after one call of
    // `REFERENCE_ROUNDS` rounds, which ends on a checkpoint.
    let reference = match training.train_rounds(0, REFERENCE_ROUNDS, machine) {
        Ok(_) => (REFERENCE_ROUNDS, training.params_digest()),
        Err(e) => {
            ledger.outcome.attempted = 1;
            ledger.outcome.failed = 1;
            ledger.outcome.violations.push(format!("reference run: {e}"));
            return ledger.outcome;
        }
    };
    let plan = RoundsPlan {
        config: training.config.clone(),
        target: training.target.clone(),
        seed,
        workers: training.workers,
        checkpoints: training.checkpoints.is_some().then_some((&training.checkpoint_dir, CHECKPOINT_ROUNDS)),
        scratch_dir: train::scratch_dir("probe"),
        stop: Stop::Seconds(seconds * ROUNDS_SHARE, REFERENCE_ROUNDS),
        reference,
    };
    let snapshot = trace_rounds(&mut ledger, plan);

    serve_probe(&mut ledger, machine, seed, bench_config(), snapshot);
    ledger.finish(&training.config, machine)
}
