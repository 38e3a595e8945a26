//! Pins where an environment runs the latency simulator, and that a shared
//! simulator carries nothing from one measurement to the next.
//!
//! The reward of Eq. 2 needs the initial graph's latency and one latency per
//! measurement point, so an episode pays one simulation at `reset` and one
//! per step on the `feedback_frequency` schedule and at termination —
//! construction pays none. The count is read from the global registry's
//! `cost/simulator/measure` histogram, which every `measure_ms` records
//! into; the tests of this binary serialise on [`LOCK`] so no other
//! measurement lands in it mid-count.

use std::sync::{Arc, Mutex};

use xrlflow_cost::{DeviceProfile, InferenceSimulator};
use xrlflow_env::{EnvConfig, Environment, EpisodeStats};
use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
use xrlflow_rewrite::RuleSet;

static LOCK: Mutex<()> = Mutex::new(());

const FEEDBACK: usize = 3;
const MAX_STEPS: usize = 7;

fn measurements() -> u64 {
    xrlflow_obs::histogram!("cost/simulator/measure").count()
}

fn environment(kind: ModelKind, simulator: &Arc<InferenceSimulator>) -> Environment {
    Environment::from_shared(
        Arc::new(build_model(kind, ModelScale::Bench).unwrap()),
        Arc::new(RuleSet::standard()),
        Arc::clone(simulator),
        EnvConfig { max_steps: MAX_STEPS, feedback_frequency: FEEDBACK, ..EnvConfig::default() },
    )
}

fn simulator() -> Arc<InferenceSimulator> {
    Arc::new(InferenceSimulator::new(DeviceProfile::gtx1080()))
}

/// Takes the first candidate until the episode ends; the reward bits of
/// every step.
fn episode(env: &mut Environment, seed: u64) -> Vec<u32> {
    let mut observation = env.reset(seed);
    let mut rewards = Vec::new();
    loop {
        let result = env.step(&observation, 0);
        rewards.push(result.reward.to_bits());
        if result.done {
            return rewards;
        }
        observation = result.observation;
    }
}

fn stats_bits(stats: &EpisodeStats) -> (u32, usize, u64, u64, Vec<&'static str>) {
    let EpisodeStats { total_reward, steps, initial_latency_ms, final_latency_ms, applied_rules } = stats;
    (
        total_reward.to_bits(),
        *steps,
        initial_latency_ms.to_bits(),
        final_latency_ms.to_bits(),
        applied_rules.clone(),
    )
}

#[test]
fn an_environment_measures_at_reset_and_on_the_step_schedule_only() {
    let _guard = LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let simulator = simulator();

    let before = measurements();
    let mut env = environment(ModelKind::Bert, &simulator);
    assert_eq!(measurements(), before, "construction measures nothing");

    let mut observation = env.reset(0);
    let mut expected = before + 1;
    assert_eq!(measurements(), expected, "reset measures the initial graph once");
    let mut applied = 0;
    loop {
        assert!(observation.num_candidates() > 0, "the test needs a rewriting step");
        let result = env.step(&observation, 0);
        applied += 1;
        if result.done || applied % FEEDBACK == 0 {
            expected += 1;
        }
        assert_eq!(measurements(), expected, "step {applied}");
        if result.done {
            break;
        }
        observation = result.observation;
    }
    assert_eq!(applied, MAX_STEPS, "the episode ends on its step budget");

    // A No-Op measures the final graph; an invalid action measures nothing.
    let observation = env.reset(1);
    expected += 1;
    assert_eq!(measurements(), expected, "a second reset measures once more");
    env.step(&observation, observation.noop_action());
    expected += 1;
    assert_eq!(measurements(), expected, "a No-Op measures the final graph");
    let observation = env.reset(2);
    expected += 1;
    env.step(&observation, observation.num_candidates());
    assert_eq!(measurements(), expected, "an invalid action measures nothing");
}

#[test]
fn a_shared_simulator_measures_as_a_fresh_one() {
    let _guard = LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let shared = simulator();
    let mut other = environment(ModelKind::InceptionV3, &shared);
    let mut on_shared = environment(ModelKind::SqueezeNet, &shared);
    let mut on_fresh = environment(ModelKind::SqueezeNet, &simulator());

    episode(&mut other, 5);
    for seed in [0, 9] {
        assert_eq!(episode(&mut on_shared, seed), episode(&mut on_fresh, seed), "seed {seed}");
        assert_eq!(
            stats_bits(&on_shared.episode_stats()),
            stats_bits(&on_fresh.episode_stats()),
            "seed {seed}"
        );
    }
}
