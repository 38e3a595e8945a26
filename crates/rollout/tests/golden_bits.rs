//! Golden learned-bits guard: a fixed tiny training run must land on the
//! exact parameter bytes it landed on before the backward pass was rebuilt.
//!
//! The differential suites prove "every worker count agrees with the serial
//! oracle" — but oracle and subject share the tape, so a change to the
//! reverse walk, a fused op or a matmul kernel moves both together and every
//! one of those suites stays green. This test pins the bits themselves: the
//! digest below was recorded at the commit *before* PR 16 touched
//! `xrlflow-tensor` (`XrlflowConfig::smoke_test()`, curriculum SqueezeNet +
//! BERT, 4 episodes per model = 2 PPO rounds, agent and trainer seed 7), so
//! any change to per-element arithmetic or accumulation order anywhere in the
//! forward pass, the backward pass, the PPO update or Adam fails it.
//!
//! A change that moves learned bits *on purpose* re-records the constant and
//! says so in CHANGES.md. (The digest also depends on the platform's
//! `f32::exp`/`tanh`; it was recorded on x86-64 Linux, the CI target.)

use xrlflow_core::{XrlflowAgent, XrlflowConfig};
use xrlflow_cost::DeviceProfile;
use xrlflow_graph::models::{ModelKind, ModelScale};
use xrlflow_rollout::{Curriculum, ParallelTrainer};

/// FNV-1a over the snapshot bytes of the trained agent (a self-contained
/// hash: `DefaultHasher` is not stable across toolchains).
const GOLDEN_SNAPSHOT_DIGEST: u64 = 0x1c4a_dceb_5ecd_518e;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |hash, &b| (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

fn trained_snapshot_digest(workers: usize) -> u64 {
    let config = XrlflowConfig::smoke_test();
    let curriculum = Curriculum::from_model_zoo(
        &[ModelKind::SqueezeNet, ModelKind::Bert],
        ModelScale::Bench,
        DeviceProfile::gtx1080(),
        config.env.clone(),
    )
    .unwrap();
    let mut agent = XrlflowAgent::new(&config, 7);
    let mut trainer = ParallelTrainer::new(config, 7);
    trainer.set_num_workers(workers);
    trainer.set_checkpointing(None);
    let report = trainer.train_curriculum(&mut agent, &curriculum, 4).unwrap();
    assert_eq!(report.updates.len(), 2, "the golden run is two PPO rounds");
    fnv1a(&agent.snapshot().to_bytes())
}

#[test]
fn two_round_curriculum_run_lands_on_the_golden_parameter_bytes() {
    for workers in [1usize, 2] {
        let digest = trained_snapshot_digest(workers);
        assert_eq!(
            digest, GOLDEN_SNAPSHOT_DIGEST,
            "{workers}-worker run: learned bits moved (got {digest:#018x}, golden {GOLDEN_SNAPSHOT_DIGEST:#018x})"
        );
    }
}
