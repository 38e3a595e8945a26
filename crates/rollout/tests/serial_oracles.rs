//! The supervised pool against the serial oracles of `xrlflow_bench::oracle`:
//! episode collection (one spec — the one-entry curriculum — and a
//! curriculum) and the data-parallel PPO update are bit-identical to their
//! supervision-free serial forms at 1, 2 and 4 workers. An integration test because the oracles live in
//! `xrlflow-bench`, which depends on this crate.

use std::ops::Range;

use xrlflow_bench::oracle::{collect_curriculum_serial, minibatch_grads_serial};
use xrlflow_core::{Trainer, XrlflowAgent, XrlflowConfig};
use xrlflow_cost::DeviceProfile;
use xrlflow_env::Observation;
use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
use xrlflow_rewrite::RuleSet;
use xrlflow_rl::{RolloutBuffer, TrainingStats};
use xrlflow_rollout::{
    collect_curriculum_parallel, collect_parallel, update_parallel, Curriculum, CurriculumRollouts, EnvSpec,
};

fn smoke_spec(config: &XrlflowConfig) -> EnvSpec {
    let graph = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
    EnvSpec::new(graph, RuleSet::standard(), DeviceProfile::gtx1080(), config.env.clone())
}

/// The one-entry curriculum a single spec's serial oracle collects over.
fn one_entry(spec: &EnvSpec) -> Curriculum {
    Curriculum::new().with_entry("SqueezeNet", spec.clone())
}

fn smoke_curriculum(config: &XrlflowConfig) -> Curriculum {
    Curriculum::from_model_zoo(
        &[ModelKind::SqueezeNet, ModelKind::Bert],
        ModelScale::Bench,
        DeviceProfile::gtx1080(),
        config.env.clone(),
    )
    .unwrap()
}

fn assert_transitions_identical(a: &RolloutBuffer<Observation>, b: &RolloutBuffer<Observation>, label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: transition counts differ");
    for (i, (ta, tb)) in a.transitions().iter().zip(b.transitions()).enumerate() {
        assert_eq!(ta.action, tb.action, "{label}: action differs at transition {i}");
        assert_eq!(
            ta.log_prob.to_bits(),
            tb.log_prob.to_bits(),
            "{label}: log-prob differs at transition {i}"
        );
        assert_eq!(ta.value.to_bits(), tb.value.to_bits(), "{label}: value differs at transition {i}");
        assert_eq!(ta.reward.to_bits(), tb.reward.to_bits(), "{label}: reward differs at transition {i}");
        assert_eq!(ta.done, tb.done, "{label}: done flag differs at transition {i}");
        assert_eq!(ta.action_mask, tb.action_mask, "{label}: action mask differs at transition {i}");
        assert_eq!(
            ta.observation.graph.canonical_hash(),
            tb.observation.graph.canonical_hash(),
            "{label}: observation graph differs at transition {i}"
        );
    }
}

fn assert_rollouts_identical(a: &CurriculumRollouts, b: &CurriculumRollouts, label: &str) {
    assert_eq!(a.buffer.len(), b.buffer.len(), "{label}: transition counts differ");
    for (i, (ta, tb)) in a.buffer.transitions().iter().zip(b.buffer.transitions()).enumerate() {
        assert_eq!(ta.action, tb.action, "{label}: action differs at transition {i}");
        assert_eq!(
            ta.log_prob.to_bits(),
            tb.log_prob.to_bits(),
            "{label}: log-prob differs at transition {i}"
        );
        assert_eq!(ta.value.to_bits(), tb.value.to_bits(), "{label}: value differs at transition {i}");
        assert_eq!(ta.reward.to_bits(), tb.reward.to_bits(), "{label}: reward differs at transition {i}");
        assert_eq!(ta.done, tb.done, "{label}: done flag differs at transition {i}");
        assert_eq!(
            ta.observation.graph.canonical_hash(),
            tb.observation.graph.canonical_hash(),
            "{label}: observation graph differs at transition {i}"
        );
    }
    assert_eq!(a.spec_ranges, b.spec_ranges, "{label}: spec ranges differ");
    assert_eq!(a.episodes.len(), b.episodes.len(), "{label}: episode counts differ");
    for (ea, eb) in a.episodes.iter().zip(&b.episodes) {
        assert_eq!(ea.spec, eb.spec, "{label}: spec assignment differs");
        assert_eq!(ea.episode, eb.episode, "{label}: episode index differs");
        assert_eq!(
            ea.stats.total_reward.to_bits(),
            eb.stats.total_reward.to_bits(),
            "{label}: episode reward differs"
        );
        assert_eq!(ea.stats.applied_rules, eb.stats.applied_rules, "{label}: applied rules differ");
    }
}

/// Runs one update over a clone of `buffer` with fresh, identically
/// seeded trainer and agent, returning the stats and a probe embedding
/// of the post-update parameters.
fn run_update(
    config: &XrlflowConfig,
    buffer: &RolloutBuffer<Observation>,
    segments: &[Range<usize>],
    workers: Option<usize>,
) -> (TrainingStats, Vec<f32>) {
    let mut trainer = Trainer::new(config.clone(), 7);
    let mut agent = XrlflowAgent::new(config, 5);
    let mut buffer = buffer.clone();
    let stats = match workers {
        None => trainer
            .update(&mut agent, &mut buffer, segments, &mut |agent, ctx| {
                Ok(minibatch_grads_serial(agent, ctx))
            })
            .unwrap(),
        Some(w) => update_parallel(&mut trainer, &mut agent, &mut buffer, segments, w).unwrap(),
    };
    let probe = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
    (stats, agent.embed_graph(&probe).data().to_vec())
}

#[test]
fn parallel_collection_is_bit_identical_to_serial_for_1_2_4_workers() {
    // The tentpole determinism contract: W workers with the same
    // episode-seed schedule produce transition-for-transition the same
    // rollouts as the serial path, merged in episode order.
    let config = XrlflowConfig::smoke_test();
    let spec = smoke_spec(&config);
    let agent = XrlflowAgent::new(&config, 5);
    let snapshot = agent.snapshot();
    let episodes = 4;
    let base_seed = 99;

    let serial = collect_curriculum_serial(&agent, &one_entry(&spec), 0, episodes, base_seed);
    assert_eq!(serial.episodes.len(), episodes);

    for workers in [1usize, 2, 4] {
        let parallel = collect_parallel(&config, &snapshot, &spec, 0, episodes, base_seed, workers).unwrap();
        let label = format!("{workers} workers");
        assert_transitions_identical(&serial.buffer, &parallel.buffer, &label);
        assert_eq!(serial.episodes.len(), parallel.episodes.len(), "{label}: episode counts differ");
        for (ea, eb) in serial.episodes.iter().map(|e| &e.stats).zip(&parallel.episodes) {
            assert_eq!(ea.total_reward.to_bits(), eb.total_reward.to_bits(), "{label}: reward differs");
            assert_eq!(ea.steps, eb.steps, "{label}: step counts differ");
            assert_eq!(ea.applied_rules, eb.applied_rules, "{label}: applied rules differ");
            assert_eq!(
                ea.final_latency_ms.to_bits(),
                eb.final_latency_ms.to_bits(),
                "{label}: final latency differs"
            );
        }
    }
}

#[test]
fn parallel_collection_feeds_bit_identical_ppo_updates() {
    // Running the identical update path over serially- and
    // parallel-collected buffers must produce the same TrainingStats —
    // the "no learned number changes" half of the contract.
    let config = XrlflowConfig::smoke_test();
    let spec = smoke_spec(&config);
    let agent = XrlflowAgent::new(&config, 5);
    let episodes = 3;

    let serial = collect_curriculum_serial(&agent, &one_entry(&spec), 0, episodes, 42);
    let parallel = collect_parallel(&config, &agent.snapshot(), &spec, 0, episodes, 42, 2).unwrap();

    let mut stats = Vec::new();
    for mut buffer in [serial.buffer, parallel.buffer] {
        let mut trainer = Trainer::new(config.clone(), 7);
        let mut update_agent = XrlflowAgent::new(&config, 5);
        stats.push(
            trainer
                .update(&mut update_agent, &mut buffer, &[], &mut |agent, ctx| {
                    Ok(minibatch_grads_serial(agent, ctx))
                })
                .unwrap(),
        );
    }
    assert_eq!(stats[0], stats[1], "TrainingStats diverge between serial and parallel collection");
}

#[test]
fn curriculum_parallel_collection_is_bit_identical_to_serial_for_1_2_4_workers() {
    // The tentpole determinism contract, extended to (spec, episode):
    // any worker count replays the same seed schedule and merges
    // spec-then-episode, so the rollouts are bit-identical to the
    // serial curriculum oracle.
    let config = XrlflowConfig::smoke_test();
    let curriculum = smoke_curriculum(&config);
    let agent = XrlflowAgent::new(&config, 5);
    let snapshot = agent.snapshot();
    let episodes_per_spec = 2;
    let base_seed = 99;

    let serial = collect_curriculum_serial(&agent, &curriculum, 0, episodes_per_spec, base_seed);
    assert_eq!(serial.episodes.len(), curriculum.len() * episodes_per_spec);

    for workers in [1usize, 2, 4] {
        let parallel = collect_curriculum_parallel(
            &config,
            &snapshot,
            &curriculum,
            0,
            episodes_per_spec,
            base_seed,
            workers,
        )
        .unwrap();
        assert_rollouts_identical(&serial, &parallel, &format!("{workers} workers"));
    }
}

#[test]
fn spec_ranges_partition_the_merged_buffer_in_spec_order() {
    let config = XrlflowConfig::smoke_test();
    let curriculum = smoke_curriculum(&config);
    let agent = XrlflowAgent::new(&config, 3);
    let rollouts = collect_curriculum_serial(&agent, &curriculum, 0, 2, 7);

    assert_eq!(rollouts.spec_ranges.len(), curriculum.len());
    let mut covered = 0;
    for range in &rollouts.spec_ranges {
        assert_eq!(range.start, covered, "spec ranges must be contiguous");
        assert!(range.end > range.start, "every spec collected at least one transition");
        covered = range.end;
    }
    assert_eq!(covered, rollouts.buffer.len(), "spec ranges must cover the whole buffer");
    // Episodes are ordered spec-then-episode.
    let order: Vec<(usize, u64)> = rollouts.episodes.iter().map(|e| (e.spec, e.episode)).collect();
    assert_eq!(order, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
}

#[test]
fn parallel_update_is_bit_identical_to_serial_for_1_2_4_workers() {
    // The tentpole determinism contract, update half: sharding the
    // minibatch re-evaluations across any worker count and merging by
    // position lands on the serial oracle's exact parameters and stats.
    let config = XrlflowConfig::smoke_test();
    let spec = smoke_spec(&config);
    let agent = XrlflowAgent::new(&config, 5);
    let rollouts = collect_curriculum_serial(&agent, &one_entry(&spec), 0, 3, 42);

    let (serial_stats, serial_params) = run_update(&config, &rollouts.buffer, &[], None);
    for workers in [1usize, 2, 4] {
        let (stats, params) = run_update(&config, &rollouts.buffer, &[], Some(workers));
        assert_eq!(serial_stats, stats, "{workers}-worker TrainingStats diverge from the serial oracle");
        let bits_equal = serial_params.iter().zip(&params).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(bits_equal, "{workers}-worker post-update parameters diverge from the serial oracle");
    }
}

#[test]
fn parallel_update_is_bit_identical_on_curriculum_buffers() {
    // Same contract over a merged multi-model buffer with per-spec
    // advantage-normalisation segments.
    let config = XrlflowConfig::smoke_test();
    let curriculum = smoke_curriculum(&config);
    let agent = XrlflowAgent::new(&config, 5);
    let rollouts = collect_curriculum_serial(&agent, &curriculum, 0, 2, 42);

    let (serial_stats, serial_params) = run_update(&config, &rollouts.buffer, &rollouts.spec_ranges, None);
    for workers in [1usize, 2, 4] {
        let (stats, params) = run_update(&config, &rollouts.buffer, &rollouts.spec_ranges, Some(workers));
        assert_eq!(serial_stats, stats, "{workers}-worker curriculum TrainingStats diverge");
        let bits_equal = serial_params.iter().zip(&params).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(bits_equal, "{workers}-worker curriculum post-update parameters diverge");
    }
}

#[test]
fn update_worker_count_is_clamped_to_the_batch() {
    let config = XrlflowConfig::smoke_test();
    let spec = smoke_spec(&config);
    let agent = XrlflowAgent::new(&config, 5);
    let rollouts = collect_curriculum_serial(&agent, &one_entry(&spec), 0, 2, 0);
    // Far more workers than transitions per minibatch must not spawn
    // idle threads or panic, and must still match the oracle.
    let (serial_stats, serial_params) = run_update(&config, &rollouts.buffer, &[], None);
    let (stats, params) = run_update(&config, &rollouts.buffer, &[], Some(64));
    assert_eq!(serial_stats, stats);
    assert_eq!(
        serial_params.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
        params.iter().map(|p| p.to_bits()).collect::<Vec<_>>()
    );
}
