//! A single-spec run is the one-entry curriculum: `ParallelTrainer::train`
//! and `collect_parallel` run the same collector over the same
//! `(spec, episode)` seed schedule as `train_curriculum` and
//! `collect_curriculum_parallel` over a curriculum holding only that spec,
//! so the two land on the same bytes at every worker count.

use xrlflow_core::{XrlflowAgent, XrlflowConfig};
use xrlflow_cost::DeviceProfile;
use xrlflow_env::EpisodeStats;
use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
use xrlflow_rewrite::RuleSet;
use xrlflow_rollout::{collect_curriculum_parallel, collect_parallel, Curriculum, EnvSpec, ParallelTrainer};

fn smoke_spec(config: &XrlflowConfig) -> EnvSpec {
    let graph = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
    EnvSpec::new(graph, RuleSet::standard(), DeviceProfile::gtx1080(), config.env.clone())
}

/// Every field of an episode's statistics, floats as bits.
fn stats_bits(stats: &EpisodeStats) -> (u32, usize, u64, u64, Vec<&'static str>) {
    (
        stats.total_reward.to_bits(),
        stats.steps,
        stats.initial_latency_ms.to_bits(),
        stats.final_latency_ms.to_bits(),
        stats.applied_rules.clone(),
    )
}

fn trainer(config: &XrlflowConfig, workers: usize) -> ParallelTrainer {
    let mut trainer = ParallelTrainer::new(config.clone(), 11);
    trainer.set_num_workers(workers);
    trainer.set_checkpointing(None);
    trainer
}

#[test]
fn train_is_train_curriculum_over_a_one_entry_curriculum() {
    let config = XrlflowConfig::smoke_test();
    let spec = smoke_spec(&config);
    let curriculum = Curriculum::new().with_entry("SqueezeNet", spec.clone());
    // update_frequency = 2: two rounds, so the second round collects with
    // parameters the first update moved.
    let episodes = 4;
    for workers in [1usize, 2] {
        let mut single = XrlflowAgent::new(&config, 3);
        let single_report = trainer(&config, workers).train(&mut single, &spec, episodes).unwrap();
        let mut one_entry = XrlflowAgent::new(&config, 3);
        let curriculum_report =
            trainer(&config, workers).train_curriculum(&mut one_entry, &curriculum, episodes).unwrap();

        let label = format!("{workers} workers");
        assert_eq!(
            single.snapshot().to_bytes(),
            one_entry.snapshot().to_bytes(),
            "{label}: trained parameters differ"
        );
        assert_eq!(single_report.episodes.len(), episodes, "{label}");
        assert_eq!(
            single_report.episodes.iter().map(stats_bits).collect::<Vec<_>>(),
            curriculum_report.episodes.iter().map(stats_bits).collect::<Vec<_>>(),
            "{label}: episode statistics differ"
        );
        assert_eq!(single_report.updates, curriculum_report.updates, "{label}: update statistics differ");
    }
}

#[test]
fn collect_parallel_is_a_one_entry_collect_curriculum_parallel() {
    let config = XrlflowConfig::smoke_test();
    let spec = smoke_spec(&config);
    let curriculum = Curriculum::new().with_entry("SqueezeNet", spec.clone());
    let snapshot = XrlflowAgent::new(&config, 5).snapshot();
    let (first_episode, episodes, base_seed) = (3, 3, 99);
    for workers in [1usize, 2] {
        let single =
            collect_parallel(&config, &snapshot, &spec, first_episode, episodes, base_seed, workers).unwrap();
        let one_entry = collect_curriculum_parallel(
            &config,
            &snapshot,
            &curriculum,
            first_episode,
            episodes,
            base_seed,
            workers,
        )
        .unwrap();

        let label = format!("{workers} workers");
        assert_eq!(single.buffer.len(), one_entry.buffer.len(), "{label}: transition counts differ");
        assert_eq!(one_entry.spec_ranges, vec![0..single.buffer.len()], "{label}: one segment");
        for (i, (a, b)) in single.buffer.transitions().iter().zip(one_entry.buffer.transitions()).enumerate()
        {
            assert_eq!(a.action, b.action, "{label}: action differs at transition {i}");
            assert_eq!(a.log_prob.to_bits(), b.log_prob.to_bits(), "{label}: log-prob differs at {i}");
            assert_eq!(a.value.to_bits(), b.value.to_bits(), "{label}: value differs at {i}");
            assert_eq!(a.reward.to_bits(), b.reward.to_bits(), "{label}: reward differs at {i}");
            assert_eq!(a.done, b.done, "{label}: done flag differs at {i}");
            assert_eq!(a.action_mask, b.action_mask, "{label}: action mask differs at {i}");
            assert_eq!(
                a.observation.graph.canonical_hash(),
                b.observation.graph.canonical_hash(),
                "{label}: observation graph differs at {i}"
            );
        }
        assert_eq!(
            one_entry.episodes.iter().map(|e| (e.spec, e.episode)).collect::<Vec<_>>(),
            vec![(0, 3), (0, 4), (0, 5)],
            "{label}: item order"
        );
        assert_eq!(
            single.episodes.iter().map(stats_bits).collect::<Vec<_>>(),
            one_entry.episodes.iter().map(|e| stats_bits(&e.stats)).collect::<Vec<_>>(),
            "{label}: episode statistics differ"
        );
    }
}
