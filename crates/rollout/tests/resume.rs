//! Durable exact-resume suites: kill-between-rounds resume, checkpoint
//! bit-transparency, crash-during-save safety, and cadence/retention.
//!
//! "Kill after round k" is simulated by running a fully checkpointed
//! reference run and resuming a *fresh* trainer + agent from the round-k
//! state file — because states are written atomically, that file is exactly
//! what a process killed between rounds k and k+1 leaves behind.

use std::path::PathBuf;

use xrlflow_core::{latest_train_state, train_state_path, TrainState, XrlflowAgent, XrlflowConfig};
use xrlflow_cost::DeviceProfile;
use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
use xrlflow_graph::Graph;
use xrlflow_rewrite::RuleSet;
use xrlflow_rollout::{CheckpointConfig, Curriculum, EnvSpec, ParallelTrainer, RolloutError};

fn smoke_spec(config: &XrlflowConfig) -> EnvSpec {
    let graph = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
    EnvSpec::new(graph, RuleSet::standard(), DeviceProfile::gtx1080(), config.env.clone())
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

fn probe() -> Graph {
    build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xrlflow_resume_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn assert_bits_equal(a: &[f32], b: &[f32], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: embedding lengths differ");
    let equal = a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
    assert!(equal, "{label}: parameters diverge");
}

#[test]
fn kill_after_round_k_resume_is_bit_identical_across_worker_counts() {
    let config = XrlflowConfig::smoke_test();
    let spec = smoke_spec(&config);
    let probe = probe();
    let dir = temp_dir("single");
    // update_frequency = 2, so 4 episodes means two rounds with states
    // written at next_episode 2 and 4.
    let episodes = 4;

    let mut trainer = ParallelTrainer::new(config.clone(), 11);
    trainer.set_num_workers(2);
    trainer.set_checkpointing(Some(CheckpointConfig::new(&dir)));
    let mut agent = XrlflowAgent::new(&config, 3);
    trainer.train(&mut agent, &spec, episodes).unwrap();
    let full_run = agent.embed_graph(&probe).data().to_vec();

    let mid = TrainState::load(train_state_path(&dir, 2)).unwrap();
    assert_eq!(mid.next_episode, 2);

    for workers in [1usize, 2, 4] {
        // Seeds 0 and 77 are deliberately wrong: resume must overwrite both
        // the schedule seed and the parameters from the state file.
        let mut resumed_trainer = ParallelTrainer::new(config.clone(), 0);
        resumed_trainer.set_num_workers(workers);
        resumed_trainer.set_checkpointing(None);
        let mut resumed = XrlflowAgent::new(&config, 77);
        resumed_trainer.resume_from(&mut resumed, &mid).unwrap();
        assert_eq!(resumed_trainer.resume_episode(), 2);
        resumed_trainer.train(&mut resumed, &spec, episodes).unwrap();
        assert_bits_equal(
            &full_run,
            resumed.embed_graph(&probe).data(),
            &format!("{workers}-worker resume after kill between rounds"),
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mid_curriculum_kill_and_resume_is_bit_identical() {
    let config = XrlflowConfig::smoke_test();
    let curriculum = smoke_curriculum(&config);
    let probe = probe();
    let dir = temp_dir("curriculum");
    // 4 episodes per spec → the first round's state lands mid-curriculum
    // (inside spec 0's episode schedule).
    let episodes_per_spec = 4;

    let mut trainer = ParallelTrainer::new(config.clone(), 11);
    trainer.set_num_workers(2);
    trainer.set_checkpointing(Some(CheckpointConfig::new(&dir)));
    let mut agent = XrlflowAgent::new(&config, 3);
    trainer.train_curriculum(&mut agent, &curriculum, episodes_per_spec).unwrap();
    let full_run = agent.embed_graph(&probe).data().to_vec();

    let mid = TrainState::load(train_state_path(&dir, 2)).unwrap();
    assert_eq!(mid.next_episode, 2);

    for workers in [1usize, 2] {
        let mut resumed_trainer = ParallelTrainer::new(config.clone(), 0);
        resumed_trainer.set_num_workers(workers);
        resumed_trainer.set_checkpointing(None);
        let mut resumed = XrlflowAgent::new(&config, 77);
        resumed_trainer.resume_from(&mut resumed, &mid).unwrap();
        resumed_trainer.train_curriculum(&mut resumed, &curriculum, episodes_per_spec).unwrap();
        assert_bits_equal(
            &full_run,
            resumed.embed_graph(&probe).data(),
            &format!("{workers}-worker mid-curriculum resume"),
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpointing_is_bit_transparent_and_honours_cadence_and_retention() {
    let config = XrlflowConfig::smoke_test();
    let spec = smoke_spec(&config);
    let probe = probe();
    let dir = temp_dir("cadence");
    // 6 episodes → rounds end at next_episode 2, 4 and 6. With every(2) the
    // checkpoints land at rounds 2 (episode 4) and — final round, always
    // written — 3 (episode 6); keep_last(2) retains both.
    let episodes = 6;

    let run = |checkpointing: Option<CheckpointConfig>| {
        let mut trainer = ParallelTrainer::new(config.clone(), 11);
        trainer.set_num_workers(2);
        trainer.set_checkpointing(checkpointing);
        let mut agent = XrlflowAgent::new(&config, 3);
        trainer.train(&mut agent, &spec, episodes).unwrap();
        agent.embed_graph(&probe).data().to_vec()
    };

    let plain = run(None);
    let checkpointed = run(Some(CheckpointConfig::new(&dir).every(2).keep_last(2)));
    assert_bits_equal(&plain, &checkpointed, "checkpointing must be bit-transparent");

    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(
        names,
        vec!["state-00000004.xrlftrst".to_string(), "state-00000006.xrlftrst".to_string()],
        "every(2) + keep_last(2) over three rounds"
    );
    assert_eq!(latest_train_state(&dir).unwrap(), Some(train_state_path(&dir, 6)));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_resumed_run_checkpoints_at_the_same_episodes_as_an_uninterrupted_one() {
    let config = XrlflowConfig::smoke_test();
    let spec = smoke_spec(&config);
    let (full_dir, killed_dir, resumed_dir) =
        (temp_dir("cadence_full"), temp_dir("cadence_killed"), temp_dir("cadence_resumed"));
    // Three rounds (next_episode 2, 4, 6) under every(2): the uninterrupted
    // run writes after run-round 2 and after the final round.
    let episodes = 6;
    let states = |dir: &PathBuf| {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    };
    let trainer_into = |seed: u64, dir: &PathBuf, every: usize| {
        let mut trainer = ParallelTrainer::new(config.clone(), seed);
        trainer.set_num_workers(2);
        trainer.set_checkpointing(Some(CheckpointConfig::new(dir).every(every).keep_last(8)));
        trainer
    };

    let mut agent = XrlflowAgent::new(&config, 3);
    trainer_into(11, &full_dir, 2).train(&mut agent, &spec, episodes).unwrap();

    // Killed after round 1, resumed with the same every(2) policy: rounds 2
    // and 3 of the *run* must checkpoint exactly as above.
    let mut killed = XrlflowAgent::new(&config, 3);
    trainer_into(11, &killed_dir, 1).train(&mut killed, &spec, 2).unwrap();
    let mid = TrainState::load(train_state_path(&killed_dir, 2)).unwrap();
    let mut resumed_trainer = trainer_into(0, &resumed_dir, 2);
    let mut resumed = XrlflowAgent::new(&config, 77);
    resumed_trainer.resume_from(&mut resumed, &mid).unwrap();
    resumed_trainer.train(&mut resumed, &spec, episodes).unwrap();

    assert_eq!(states(&full_dir), vec!["state-00000004.xrlftrst", "state-00000006.xrlftrst"]);
    assert_eq!(states(&resumed_dir), states(&full_dir), "resuming must not shift the checkpoint cadence");
    assert_eq!(
        std::fs::read(train_state_path(&resumed_dir, 4)).unwrap(),
        std::fs::read(train_state_path(&full_dir, 4)).unwrap(),
        "the resumed run's mid-run state is the uninterrupted run's, byte for byte"
    );

    for dir in [full_dir, killed_dir, resumed_dir] {
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn crash_mid_save_debris_does_not_mask_the_previous_checkpoint() {
    let config = XrlflowConfig::smoke_test();
    let spec = smoke_spec(&config);
    let dir = temp_dir("debris");

    let mut trainer = ParallelTrainer::new(config.clone(), 11);
    trainer.set_num_workers(2);
    trainer.set_checkpointing(Some(CheckpointConfig::new(&dir)));
    let mut agent = XrlflowAgent::new(&config, 3);
    trainer.train(&mut agent, &spec, 2).unwrap();

    // A crash mid-save leaves only the staging temp file behind — the
    // atomic-write protocol never exposes a partial state under its final
    // name. The scanner must skip the debris and find the real state.
    std::fs::write(dir.join(".state-00000004.xrlftrst.4242.7.tmp"), b"partial write").unwrap();

    let mut fresh_trainer = ParallelTrainer::new(config.clone(), 0);
    fresh_trainer.set_checkpointing(None);
    let mut fresh = XrlflowAgent::new(&config, 77);
    let resumed = fresh_trainer.resume_from_latest(&mut fresh, &dir).unwrap();
    assert_eq!(resumed, Some(2), "the intact round-1 state must win over crash debris");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_newest_checkpoint_is_a_typed_error_not_a_panic() {
    let config = XrlflowConfig::smoke_test();
    let spec = smoke_spec(&config);
    let probe = probe();
    let dir = temp_dir("corrupt");

    let mut trainer = ParallelTrainer::new(config.clone(), 11);
    trainer.set_num_workers(2);
    trainer.set_checkpointing(Some(CheckpointConfig::new(&dir)));
    let mut agent = XrlflowAgent::new(&config, 3);
    trainer.train(&mut agent, &spec, 2).unwrap();

    // A newer state that is complete under its final name but corrupt (e.g.
    // bit rot) must surface as a typed error, and the agent being resumed
    // must be left untouched.
    let good = std::fs::read(train_state_path(&dir, 2)).unwrap();
    std::fs::write(train_state_path(&dir, 4), &good[..good.len() / 2]).unwrap();

    let mut fresh_trainer = ParallelTrainer::new(config.clone(), 0);
    fresh_trainer.set_checkpointing(None);
    let mut fresh = XrlflowAgent::new(&config, 77);
    let before = fresh.embed_graph(&probe).data().to_vec();
    let err = fresh_trainer.resume_from_latest(&mut fresh, &dir).unwrap_err();
    assert!(
        matches!(err, RolloutError::Snapshot(_)),
        "truncated state must load as a typed snapshot error, got: {err}"
    );
    assert_bits_equal(&before, fresh.embed_graph(&probe).data(), "failed resume must not write");
    assert_eq!(fresh_trainer.resume_episode(), 0, "failed resume must not move the schedule");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_from_latest_on_an_empty_or_missing_directory_starts_fresh() {
    let config = XrlflowConfig::smoke_test();
    let dir = temp_dir("empty");

    let mut trainer = ParallelTrainer::new(config.clone(), 11);
    trainer.set_checkpointing(None);
    let mut agent = XrlflowAgent::new(&config, 3);
    assert_eq!(trainer.resume_from_latest(&mut agent, &dir).unwrap(), None);
    assert_eq!(trainer.resume_episode(), 0);
}
