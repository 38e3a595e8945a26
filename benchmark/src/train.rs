//! The `train_*` workloads: the real training entry points, called one round
//! at a time until the time is up, each call timed from outside.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use xrlflow::core::{TrainReport, XrlflowAgent, XrlflowConfig};
use xrlflow::cost::DeviceProfile;
use xrlflow::env::EpisodeStats;
use xrlflow::graph::models::ModelKind;
use xrlflow::graph::JsonValue;
use xrlflow::rewrite::RuleSet;
use xrlflow::rollout::{CheckpointConfig, Curriculum, EnvSpec, ParallelTrainer, RolloutError};
use xrlflow::tensor::ParamSnapshot;

use crate::machine::Machine;
use crate::report::{number, peak_rss_mb, Outcome, StealMeter};
use crate::serve::{
    bench_config, timed_set_up, zoo_curriculum, POLICY_SEED, PROBE_BURST, SET_UP_SENSITIVITY, TRAIN_WORKERS,
};
use crate::stats::{latency_summary, mean, median, median_slice, rate, Timed};
use crate::workload::{zoo_graph, Workload};

/// `train_zoo` writes a checkpoint every this many rounds. The trainer also
/// writes one at the end of every call, so a call that does not end on a
/// multiple of this runs with checkpointing off: however the rounds are cut
/// into calls, the checkpoints are those of one uninterrupted run.
pub const CHECKPOINT_ROUNDS: usize = 16;
/// A train set-up is short (about 0.4 s), so it runs more often than a
/// serve set-up for its median to settle.
const SETUP_REPEATS: usize = 5;
/// Throw-away rounds a train set-up trains: enough that the set-up outlasts
/// the box's second-scale speed swings (a lone round read 0.05–0.28 s).
const WARM_UP_ROUNDS: usize = 4;
/// `train_zoo` keeps this many checkpoints.
const CHECKPOINTS_KEPT: usize = 2;
/// Rounds whose episodes define `optimized_latency_pct`: the second half of
/// the first `QUALITY_ROUNDS` rounds — a fixed window every run completes,
/// so the quality number is identical at a fixed seed on any machine.
const QUALITY_ROUNDS: usize = 32;

/// What a `train_*` workload trains on.
#[derive(Clone)]
pub enum Target {
    /// `train_curriculum` over SqueezeNet + BERT + ResNet-18.
    Zoo(Curriculum),
    /// `train` on BERT alone — the paper's one-agent-per-DNN set-up.
    Single(EnvSpec),
}

impl Target {
    /// Environment specs trained on per round.
    pub fn num_specs(&self) -> usize {
        match self {
            Target::Zoo(curriculum) => curriculum.len(),
            Target::Single(_) => 1,
        }
    }
}

/// Everything set-up produces for a train workload.
pub struct Training {
    /// The pinned configuration.
    pub config: XrlflowConfig,
    /// The trainer, configured explicitly (workers, checkpoint policy).
    pub trainer: ParallelTrainer,
    /// The agent being trained.
    pub agent: XrlflowAgent,
    /// The models trained on.
    pub target: Target,
    /// Worker threads in use.
    pub workers: usize,
    /// The trainer/agent seed (`--seed`).
    pub seed: u64,
    /// The workload's checkpoint policy (`train_zoo` has one).
    pub checkpoints: Option<CheckpointConfig>,
    /// Where checkpoints go; removed on drop.
    pub checkpoint_dir: PathBuf,
}

impl Drop for Training {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.checkpoint_dir);
    }
}

/// The benchmark's results directory, inside its own package.
pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// A directory of this process's own under the results directory.
pub fn scratch_dir(label: &str) -> PathBuf {
    static NEXT_DIR: AtomicUsize = AtomicUsize::new(0);
    results_dir().join(format!("{label}-{}-{}", std::process::id(), NEXT_DIR.fetch_add(1, Ordering::Relaxed)))
}

/// One full set-up: build the models, the trainer and the agent with every
/// knob set explicitly, then train throw-away rounds on the same specs so
/// the simulator memos are filled and lazy set-up is done before timing.
pub fn set_up(workload: Workload, seed: u64) -> Training {
    let config = bench_config();
    let checkpoint_dir = scratch_dir("checkpoints");
    let (target, workers, checkpointing) = match workload {
        Workload::TrainZoo => (Target::Zoo(zoo_curriculum(&config)), TRAIN_WORKERS, true),
        Workload::TrainSingle => {
            let spec = EnvSpec::new(
                zoo_graph(ModelKind::Bert),
                RuleSet::standard(),
                DeviceProfile::gtx1080(),
                config.env.clone(),
            );
            (Target::Single(spec), 1, false)
        }
        _ => panic!("{} is not a train workload", workload.name()),
    };
    let build = |seed: u64, checkpointing: Option<CheckpointConfig>| {
        let mut trainer = ParallelTrainer::new(config.clone(), seed);
        trainer.set_num_workers(workers);
        trainer.set_checkpointing(checkpointing);
        (trainer, XrlflowAgent::new(&config, seed))
    };
    // The warm-up agent has a seed of its own, so set-up does the same work
    // whatever `--seed` is.
    let (mut warm_trainer, mut warm_agent) = build(POLICY_SEED, None);
    train_to(&mut warm_trainer, &mut warm_agent, &target, WARM_UP_ROUNDS * config.ppo.update_frequency)
        .expect("warm-up rounds failed during set-up");
    let checkpoints = checkpointing.then(|| {
        CheckpointConfig::new(checkpoint_dir.clone()).every(CHECKPOINT_ROUNDS).keep_last(CHECKPOINTS_KEPT)
    });
    let (trainer, agent) = build(seed, None);
    Training { config, trainer, agent, target, workers, seed, checkpoints, checkpoint_dir }
}

/// Trains up to `episodes_per_spec` through the workload's entry point.
fn train_to(
    trainer: &mut ParallelTrainer,
    agent: &mut XrlflowAgent,
    target: &Target,
    episodes_per_spec: usize,
) -> Result<TrainReport, RolloutError> {
    match target {
        Target::Zoo(curriculum) => trainer.train_curriculum(agent, curriculum, episodes_per_spec),
        Target::Single(spec) => trainer.train(agent, spec, episodes_per_spec),
    }
}

impl Training {
    /// Episodes per spec in one round (the PPO update frequency).
    pub fn episodes_per_round(&self) -> usize {
        self.config.ppo.update_frequency
    }

    /// Points the trainer at episode `next_episode` of its seed schedule by
    /// the public exact-resume path, so consecutive calls form one
    /// continuous run.
    pub fn resume_at(&mut self, next_episode: usize) {
        let state = self.trainer.trainer().train_state(&self.agent, next_episode as u64, self.seed);
        self.trainer
            .resume_from(&mut self.agent, &state)
            .expect("a state resumes the agent it was taken from");
    }

    /// Trains rounds `first_round..first_round + rounds` in one call into
    /// the trainer and returns its report with the call's timing. Calls in
    /// round order form one continuous run.
    pub fn train_rounds(
        &mut self,
        first_round: usize,
        rounds: usize,
        machine: &Machine,
    ) -> Result<(TrainReport, Timed), RolloutError> {
        let per_round = self.episodes_per_round();
        if first_round > 0 {
            self.resume_at(first_round * per_round);
        }
        let end_round = first_round + rounds;
        let due = end_round.is_multiple_of(CHECKPOINT_ROUNDS);
        self.trainer.set_checkpointing(self.checkpoints.clone().filter(|_| due));
        let start = machine.now();
        let report = train_to(&mut self.trainer, &mut self.agent, &self.target, end_round * per_round)?;
        Ok((report, machine.since(start)))
    }

    /// Hash of the trained parameters — equal across same-seed runs that
    /// trained the same number of rounds.
    pub fn params_digest(&self) -> u64 {
        snapshot_digest(&self.agent.snapshot())
    }
}

/// Hash of a parameter snapshot's serialized bytes.
pub fn snapshot_digest(snapshot: &ParamSnapshot) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    std::hash::Hash::hash(&snapshot.to_bytes(), &mut hasher);
    std::hash::Hasher::finish(&hasher)
}

/// `true` when the episode's latencies are latencies.
fn episode_is_sane(episode: &EpisodeStats) -> bool {
    let sane = |ms: f64| ms.is_finite() && ms > 0.0;
    sane(episode.initial_latency_ms) && sane(episode.final_latency_ms) && episode.total_reward.is_finite()
}

/// Mean latency of the episodes' final graphs as a percentage of their
/// initial graphs'.
fn latency_pct(episodes: &[EpisodeStats]) -> f64 {
    let ratios: Vec<f64> = episodes.iter().map(|e| e.final_latency_ms / e.initial_latency_ms).collect();
    100.0 * mean(&ratios)
}

/// The untraced run of a train workload: the end-to-end metrics.
pub fn run(workload: Workload, seed: u64, seconds: f64, machine: &mut Machine) -> Outcome {
    let (mut training, set_ups) = timed_set_up(machine, SETUP_REPEATS, || set_up(workload, seed));
    let episodes_per_round = training.episodes_per_round() * training.target.num_specs();

    let mut outcome = Outcome::default();
    // The operation of a train workload is one transition — one environment
    // step collected and trained on, the usual unit of RL training cost. How
    // many transitions a round holds depends on how long the seed's policy
    // lets its episodes run, so whole rounds or episodes are not comparable
    // across seeds; their cost per transition is. The trainer is called one
    // round at a time (through the public exact-resume path the calls form
    // one continuous run), so that each round is timed from outside on the
    // CPU clock, checkpoint write included, and the machine can be probed
    // between rounds.
    let mut rounds: Vec<(Timed, usize)> = Vec::new();
    let mut quality_episodes: Vec<EpisodeStats> = Vec::new();
    let mut digest_at_quality = None;
    let window_start = machine.now();
    let deadline_ns = window_start.wall_ns + (seconds * 1e9) as u64;
    let steal = StealMeter::start();
    machine.probe(PROBE_BURST);
    while machine.now().wall_ns < deadline_ns || rounds.len() < QUALITY_ROUNDS {
        let round = rounds.len();
        outcome.attempted += 1;
        let (report, call) = match training.train_rounds(round, 1, machine) {
            Ok(result) => result,
            Err(e) => {
                outcome.failed += 1;
                outcome.violations.push(format!("round {round}: {e}"));
                break;
            }
        };
        machine.probe(PROBE_BURST);
        let sane = report.timings.len() == 1
            && report.updates.len() == 1
            && report.episodes.len() == episodes_per_round
            && report.episodes.iter().all(episode_is_sane)
            && report.updates[0].policy_loss.is_finite()
            && report.updates[0].value_loss.is_finite()
            && report.updates[0].transitions > 0
            && report.timings[0].update_workers == training.workers;
        if !sane {
            outcome.failed += 1;
            outcome.violations.push(format!(
                "round {round}: {} rounds and {} episodes reported, non-finite statistics or wrong worker count",
                report.timings.len(),
                report.episodes.len()
            ));
            break;
        }
        if (QUALITY_ROUNDS / 2..QUALITY_ROUNDS).contains(&round) {
            quality_episodes.extend_from_slice(&report.episodes);
        }
        rounds.push((call, report.updates[0].transitions));
        if rounds.len() == QUALITY_ROUNDS {
            // A fixed amount of work on any machine: the parameters to
            // compare and the memory it took.
            digest_at_quality = Some((training.params_digest(), peak_rss_mb()));
        }
    }
    let (steal_share, window) = (steal.share(), machine.since(window_start));

    let retries = xrlflow::obs::Registry::global().snapshot().counter("rollout/item_retries").unwrap_or(0);
    outcome.check(retries == 0, || format!("{retries} rollout work items were retried"));
    let Some((digest, peak_rss)) = digest_at_quality else {
        outcome.violations.push("the quality window did not complete".to_string());
        return outcome;
    };

    let sensitivity = workload.machine_sensitivity();
    let work: Vec<(f64, f64)> = rounds
        .iter()
        .map(|&(call, transitions)| (transitions as f64, machine.at_reference_speed(call, sensitivity)))
        .collect();
    let transition_ms: Vec<f64> =
        work.iter().map(|&(transitions, seconds)| seconds * 1e3 / transitions).collect();
    let set_up_s: Vec<f64> =
        set_ups.iter().map(|&set_up| machine.at_reference_speed(set_up, SET_UP_SENSITIVITY)).collect();
    let (p50_ms, tail_ms) = latency_summary(&transition_ms, workload.tail_quantile());
    outcome.sliced("setup_s", median_slice(&set_up_s), "s");
    outcome.sliced("latency_p50_ms", p50_ms, "ms");
    outcome.sliced("latency_tail_ms", tail_ms, "ms");
    outcome.sliced("throughput_per_s", rate(&work), "1/s");
    outcome.metric("optimized_latency_pct", latency_pct(&quality_episodes), "%");
    outcome.metric("peak_rss_mb", peak_rss, "MiB");
    let wall_ms: Vec<f64> =
        rounds.iter().map(|(call, transitions)| call.wall_ms() / *transitions as f64).collect();
    outcome.detail("wall_clock_p50_ms", number(median(&wall_ms)));
    outcome.detail("steal_share", number(steal_share));
    outcome.detail("latency_samples", number(transition_ms.len() as f64));
    outcome.detail("params_digest", JsonValue::String(format!("{digest:016x}")));
    machine.describe(window, &mut outcome);
    outcome
}
