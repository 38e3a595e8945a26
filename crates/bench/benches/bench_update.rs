//! Data-parallel PPO update benchmark: wall-clock per update round (one full
//! pass of clip-objective re-evaluation, gradient merge and optimiser steps
//! over a fixed rollout buffer), serial oracle vs 1/2/4 update workers, on
//! SqueezeNet and BERT.
//!
//! Every worker count re-evaluates the identical transitions against the
//! one borrowed agent and merges per-transition gradient buffers in
//! minibatch-position order, so all configurations land on bit-identical
//! parameters — the only thing that varies is wall-clock time. The speedup
//! is hardware-bound like the rollout engine's: expect ~1x on a single-core
//! container and ~min(W, cores) on real multi-core machines. The engine
//! never starts more threads than the process may use CPUs, so an `Nw` leg
//! runs `min(N, cores)` threads; each leg prints that count next to its time.
//!
//! Per model it also splits one transition's gradient into its forward and
//! backward halves (`update/transition/{forward_us,backward_us}`), so the
//! backward : forward ratio is tracked.
//!
//! Knobs: `XRLFLOW_ITERS` (timed repetitions), `XRLFLOW_MAX_CANDIDATES`
//! (action-space bound), `XRLFLOW_UPDATE_EPISODES` (episodes collected into
//! the timed buffer), `XRLFLOW_BENCH_JSON` (result artifact path).

use std::time::{Duration, Instant};

use xrlflow_bench::{env_usize, finish, iters_from_env, report, report_ratio, time_ns};
use xrlflow_core::{minibatch_grads_serial, Trainer, XrlflowAgent, XrlflowConfig};
use xrlflow_cost::DeviceProfile;
use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
use xrlflow_rewrite::RuleSet;
use xrlflow_rollout::{collect_serial, update_parallel, EnvSpec};
use xrlflow_tensor::{GradBuffer, Tape};

fn main() {
    let iters = iters_from_env(3);
    let episodes = env_usize("XRLFLOW_UPDATE_EPISODES", 4);
    let worker_counts = [1usize, 2, 4];

    let mut config = XrlflowConfig::bench();
    config.env.max_candidates = env_usize("XRLFLOW_MAX_CANDIDATES", config.env.max_candidates);

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("== PPO update wall-clock per round ({episodes}-episode buffer, {cores} cores available) ==\n");

    for kind in [ModelKind::SqueezeNet, ModelKind::Bert] {
        let graph = build_model(kind, ModelScale::Bench).unwrap();
        let spec = EnvSpec::new(graph, RuleSet::standard(), DeviceProfile::gtx1080(), config.env.clone());
        let agent = XrlflowAgent::new(&config, 0);
        let snapshot = agent.snapshot();
        let rollouts = collect_serial(&agent, &spec, 0, episodes, 7);
        println!("-- {} ({} transitions/round)", kind.name(), rollouts.buffer.len());

        // The update consumes the buffer and advances agent + optimiser, so
        // every timed round rebuilds all three from the shared template; the
        // rebuild cost is identical across variants.
        let serial_ns = time_ns(1, iters, || {
            let mut trainer = Trainer::new(config.clone(), 7);
            let mut agent = XrlflowAgent::from_snapshot(&config, &snapshot).unwrap();
            let mut buffer = rollouts.buffer.clone();
            trainer
                .update(&mut agent, &mut buffer, &[], &mut |agent, ctx| {
                    Ok(minibatch_grads_serial(agent, ctx))
                })
                .expect("the serial evaluator never faults")
                .transitions
        });
        report(&format!("update/ms_per_round/serial/{}", kind.name()), serial_ns);

        let mut parallel_ns = Vec::new();
        for &workers in &worker_counts {
            let ns = time_ns(1, iters, || {
                let mut trainer = Trainer::new(config.clone(), 7);
                let mut agent = XrlflowAgent::from_snapshot(&config, &snapshot).unwrap();
                let mut buffer = rollouts.buffer.clone();
                update_parallel(&mut trainer, &mut agent, &mut buffer, &[], workers)
                    .expect("no work item exhausts its retries")
                    .transitions
            });
            report(&format!("update/ms_per_round/{}w/{}", workers, kind.name()), ns);
            println!("  ({workers}w: threads started = {})", workers.min(cores));
            parallel_ns.push(ns);
        }
        report_ratio(
            &format!("update/speedup_4w_vs_serial/{}", kind.name()),
            serial_ns / parallel_ns[parallel_ns.len() - 1],
        );

        // Where one transition's gradient goes: the recorded forward pass
        // (recycle + policy evaluation) against the reverse walk, averaged
        // over the buffer's transitions on one recycled tape — the two halves
        // of `core.transition_grad_us`. The loss reaches every head.
        let mut tape = Tape::new();
        let mut grads = GradBuffer::zeros_like(&agent.store);
        let (mut forward, mut backward) = (Duration::ZERO, Duration::ZERO);
        for pass in 0..=iters {
            for transition in rollouts.buffer.transitions() {
                let start = Instant::now();
                tape.recycle();
                let eval = agent.evaluate(&mut tape, &transition.observation, transition.action);
                let partial = tape.add(eval.log_prob, eval.value);
                let loss = tape.add(partial, eval.entropy);
                let recorded = Instant::now();
                grads.zero_fill();
                tape.backward_into(loss, &mut grads);
                // Pass 0 warms the caches.
                if pass > 0 {
                    forward += recorded - start;
                    backward += recorded.elapsed();
                }
            }
        }
        let evaluations = (iters * rollouts.buffer.len()) as f64;
        let (forward_ns, backward_ns) =
            (forward.as_nanos() as f64 / evaluations, backward.as_nanos() as f64 / evaluations);
        report(&format!("update/transition/forward_us/{}", kind.name()), forward_ns);
        report(&format!("update/transition/backward_us/{}", kind.name()), backward_ns);
        println!("{:<44} {:>11.2}", "  backward : forward", backward_ns / forward_ns);
        println!();
    }

    finish("bench_update");
}
