//! The PPO update driven by the serial minibatch oracle,
//! `xrlflow_bench::oracle::minibatch_grads_serial`: the reported gradient
//! norm, exact resume from a `TrainState` taken before the first update, and
//! run-to-run determinism. An integration test because the oracle lives in
//! `xrlflow-bench`, which depends on this crate.

use xrlflow_bench::oracle::minibatch_grads_serial;
use xrlflow_core::{
    collect_episode_with_rng, EpisodeScratch, TrainState, Trainer, XrlflowAgent, XrlflowConfig,
};
use xrlflow_cost::{DeviceProfile, InferenceSimulator};
use xrlflow_env::{Environment, Observation};
use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
use xrlflow_rewrite::RuleSet;
use xrlflow_rl::{RolloutBuffer, TrainingStats};
use xrlflow_tensor::{ParamSnapshot, Tensor, XorShiftRng};

fn make_env(config: &XrlflowConfig) -> Environment {
    let graph = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
    Environment::new(
        graph,
        RuleSet::standard(),
        InferenceSimulator::new(DeviceProfile::gtx1080()),
        config.env.clone(),
    )
}

/// One update over the whole buffer through the serial oracle.
fn serial_update(
    trainer: &mut Trainer,
    agent: &mut XrlflowAgent,
    buffer: &mut RolloutBuffer<Observation>,
) -> TrainingStats {
    trainer
        .update(agent, buffer, &[], &mut |agent, ctx| Ok(minibatch_grads_serial(agent, ctx)))
        .expect("the serial evaluator never faults")
}

/// Collects enough transitions for several minibatches per epoch.
fn filled_buffer(
    config: &XrlflowConfig,
    agent: &XrlflowAgent,
    episodes: usize,
) -> RolloutBuffer<Observation> {
    let mut env = make_env(config);
    let mut rng = XorShiftRng::new(3);
    let mut buffer = RolloutBuffer::new();
    for episode in 0..episodes {
        collect_episode_with_rng(
            agent,
            &mut env,
            &mut rng,
            &mut buffer,
            episode as u64,
            &mut EpisodeScratch::default(),
        );
    }
    buffer
}

#[test]
fn grad_norm_is_the_mean_across_all_minibatches() {
    let mut config = XrlflowConfig::smoke_test();
    config.ppo.batch_size = 2; // force several minibatches per epoch
    config.ppo.epochs_per_update = 2;
    let mut agent = XrlflowAgent::new(&config, 8);
    let mut buffer = filled_buffer(&config, &agent, 2);
    assert!(buffer.len() >= 4, "need at least two minibatches");

    // Shadow run: wrap the serial evaluator to record each minibatch's
    // pre-clip merged-gradient norm (the norm the trainer's in-place clip
    // returns).
    let mut norms = Vec::new();
    let mut trainer = Trainer::new(config.clone(), 7);
    let stats = trainer
        .update(&mut agent, &mut buffer, &[], &mut |agent, ctx| {
            let out = minibatch_grads_serial(agent, ctx);
            norms.push(out.grads.norm());
            Ok(out)
        })
        .expect("the wrapped serial evaluator never faults");

    assert!(norms.len() >= 2, "the update must have run several minibatches, got {}", norms.len());
    let mean = norms.iter().sum::<f32>() / norms.len() as f32;
    assert_eq!(
        stats.grad_norm,
        mean,
        "grad_norm must be the mean across all {} minibatches, not the last one ({})",
        norms.len(),
        norms.last().unwrap()
    );
    assert_ne!(stats.grad_norm, *norms.last().unwrap(), "minibatch norms should differ in this run");
}

/// Before the first update the optimiser has not sized its moments yet.
/// A `TrainState` taken then still carries zero moments named like the
/// store — the bytes the format always had — and a run resumed from it
/// continues bit-identically.
#[test]
fn a_train_state_before_the_first_update_has_zero_moments_and_resumes_exactly() {
    let config = XrlflowConfig::smoke_test();
    let mut agent = XrlflowAgent::new(&config, 8);
    let mut trainer = Trainer::new(config.clone(), 7);
    let state = trainer.train_state(&agent, 0, trainer.base_seed());

    let params = agent.snapshot();
    let zeros = ParamSnapshot::new(
        params.entries().iter().map(|(name, value)| (name.clone(), Tensor::zeros(value.shape()))).collect(),
    );
    let written_with_moments_in_the_store = TrainState {
        params,
        adam_first: zeros.clone(),
        adam_second: zeros,
        adam_steps: 0,
        update_counter: 0,
        next_episode: 0,
        base_seed: 7,
    };
    assert_eq!(state.to_bytes(), written_with_moments_in_the_store.to_bytes());

    let mut resumed_agent = XrlflowAgent::new(&config, 99);
    let mut resumed = Trainer::new(config.clone(), 1);
    resumed
        .restore_train_state(&mut resumed_agent, &TrainState::from_bytes(&state.to_bytes()).unwrap())
        .unwrap();
    for _ in 0..2 {
        let mut buffer = filled_buffer(&config, &agent, 1);
        let mut resumed_buffer = filled_buffer(&config, &resumed_agent, 1);
        assert_eq!(
            serial_update(&mut trainer, &mut agent, &mut buffer),
            serial_update(&mut resumed, &mut resumed_agent, &mut resumed_buffer)
        );
    }
    assert_eq!(
        trainer.train_state(&agent, 2, 7).to_bytes(),
        resumed.train_state(&resumed_agent, 2, 7).to_bytes(),
        "the resumed run must land on the same parameters and moments, bit for bit"
    );
}

#[test]
fn serial_minibatch_evaluator_matches_the_default_update_path() {
    // Two identically seeded updates through the serial oracle must
    // land on identical parameters and stats.
    let config = XrlflowConfig::smoke_test();
    let probe = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
    let mut results = Vec::new();
    for _ in 0..2 {
        let mut agent = XrlflowAgent::new(&config, 8);
        let mut buffer = filled_buffer(&config, &agent, 2);
        let mut trainer = Trainer::new(config.clone(), 7);
        let stats = serial_update(&mut trainer, &mut agent, &mut buffer);
        results.push((stats, agent.embed_graph(&probe)));
    }
    assert_eq!(results[0].0, results[1].0);
    assert_eq!(results[0].1.data(), results[1].1.data());
}
