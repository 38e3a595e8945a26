//! Fault-injection differential suites for the supervised worker pools.
//!
//! Every test serialises on the fault-plan install lock (fault-free
//! baselines install an *empty* plan, which arms nothing but still takes the
//! lock), so scheduled faults can never leak between concurrently running
//! tests. The core claims under test:
//!
//! * a run with injected panics in any phase — collect (one spec or a
//!   curriculum), parallel update — retries deterministically and lands
//!   **bit-identical** to a fault-free run, at 1, 2 and 4 workers;
//! * a work item that keeps panicking past the retry budget surfaces as the
//!   typed `RolloutError::WorkerFault`, never a process abort;
//! * every injected fault is counted (`rollout/worker_panics`,
//!   `rollout/item_retries`).

use xrlflow_bench::oracle::collect_curriculum_serial;
use xrlflow_core::fault::{pending_faults, FaultPhase, FaultPlan};
use xrlflow_core::{Trainer, XrlflowAgent, XrlflowConfig};
use xrlflow_cost::DeviceProfile;
use xrlflow_env::Observation;
use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
use xrlflow_graph::Graph;
use xrlflow_rewrite::RuleSet;
use xrlflow_rl::RolloutBuffer;
use xrlflow_rollout::{
    collect_curriculum_parallel, collect_parallel, curriculum_fault_item, update_parallel, Curriculum,
    EnvSpec, ParallelTrainer, RolloutError,
};

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

/// The one-entry curriculum a single spec's serial oracle collects over.
fn one_entry(spec: &EnvSpec) -> Curriculum {
    Curriculum::new().with_entry("SqueezeNet", spec.clone())
}

fn probe() -> Graph {
    build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap()
}

fn assert_buffers_identical(a: &RolloutBuffer<Observation>, b: &RolloutBuffer<Observation>, label: &str) {
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
    }
}

#[test]
fn collect_faults_retry_bit_identically_at_1_2_4_workers() {
    let config = XrlflowConfig::smoke_test();
    let spec = smoke_spec(&config);
    let agent = XrlflowAgent::new(&config, 5);
    let snapshot = agent.snapshot();

    let baseline = {
        let _quiet = FaultPlan::new().install();
        collect_curriculum_serial(&agent, &one_entry(&spec), 0, 4, 99)
    };

    for workers in [1usize, 2, 4] {
        // Episode 1 fails once, episode 3 fails twice — both inside the
        // default retry budget of 2.
        let guard = FaultPlan::new()
            .panic_on(FaultPhase::Collect, 1, 0)
            .panic_on(FaultPhase::Collect, 3, 0)
            .panic_on(FaultPhase::Collect, 3, 1)
            .install();
        let collected = collect_parallel(&config, &snapshot, &spec, 0, 4, 99, workers).unwrap();
        assert_eq!(pending_faults(), 0, "{workers} workers: every scheduled fault must fire");
        drop(guard);

        let label = format!("{workers} workers under collect faults");
        assert_buffers_identical(&baseline.buffer, &collected.buffer, &label);
        assert_eq!(baseline.episodes.len(), collected.episodes.len(), "{label}: episode counts differ");
        for (ea, eb) in baseline.episodes.iter().map(|e| &e.stats).zip(&collected.episodes) {
            assert_eq!(ea.total_reward.to_bits(), eb.total_reward.to_bits(), "{label}: reward differs");
            assert_eq!(ea.applied_rules, eb.applied_rules, "{label}: applied rules differ");
        }
    }
}

#[test]
fn curriculum_faults_retry_bit_identically_at_1_2_4_workers() {
    let config = XrlflowConfig::smoke_test();
    let curriculum = smoke_curriculum(&config);
    let agent = XrlflowAgent::new(&config, 5);
    let snapshot = agent.snapshot();

    let baseline = {
        let _quiet = FaultPlan::new().install();
        collect_curriculum_serial(&agent, &curriculum, 0, 2, 99)
    };

    for workers in [1usize, 2, 4] {
        let guard = FaultPlan::new()
            .panic_on(FaultPhase::Collect, curriculum_fault_item(0, 1), 0)
            .panic_on(FaultPhase::Collect, curriculum_fault_item(1, 0), 0)
            .install();
        let collected =
            collect_curriculum_parallel(&config, &snapshot, &curriculum, 0, 2, 99, workers).unwrap();
        assert_eq!(pending_faults(), 0, "{workers} workers: every scheduled fault must fire");
        drop(guard);

        let label = format!("{workers} workers under curriculum faults");
        assert_buffers_identical(&baseline.buffer, &collected.buffer, &label);
        assert_eq!(baseline.spec_ranges, collected.spec_ranges, "{label}: spec ranges differ");
        for (ea, eb) in baseline.episodes.iter().zip(&collected.episodes) {
            assert_eq!((ea.spec, ea.episode), (eb.spec, eb.episode), "{label}: item order differs");
            assert_eq!(
                ea.stats.total_reward.to_bits(),
                eb.stats.total_reward.to_bits(),
                "{label}: reward differs"
            );
        }
    }
}

#[test]
fn update_faults_retry_bit_identically_at_1_2_4_workers() {
    let config = XrlflowConfig::smoke_test();
    let spec = smoke_spec(&config);
    let agent = XrlflowAgent::new(&config, 5);
    let rollouts = {
        let _quiet = FaultPlan::new().install();
        collect_curriculum_serial(&agent, &one_entry(&spec), 0, 3, 42)
    };
    let probe = probe();

    // One update with fresh, identically seeded trainer + agent per run.
    let run_update = |workers: usize, plan: FaultPlan| {
        let guard = plan.install();
        let mut trainer = Trainer::new(config.clone(), 7);
        let mut update_agent = XrlflowAgent::new(&config, 5);
        let mut buffer = rollouts.buffer.clone();
        let stats = update_parallel(&mut trainer, &mut update_agent, &mut buffer, &[], workers).unwrap();
        assert_eq!(pending_faults(), 0, "{workers} workers: every scheduled fault must fire");
        drop(guard);
        (stats, update_agent.embed_graph(&probe).data().to_vec())
    };

    let (baseline_stats, baseline_params) = run_update(2, FaultPlan::new());
    for workers in [1usize, 2, 4] {
        // Minibatch position 0 fails twice, position 2 once.
        let plan = FaultPlan::new()
            .panic_on(FaultPhase::Update, 0, 0)
            .panic_on(FaultPhase::Update, 0, 1)
            .panic_on(FaultPhase::Update, 2, 0);
        let (stats, params) = run_update(workers, plan);
        assert_eq!(baseline_stats, stats, "{workers}-worker TrainingStats diverge under update faults");
        let bits_equal = baseline_params.iter().zip(&params).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(bits_equal, "{workers}-worker post-update parameters diverge under update faults");
    }
}

#[test]
fn end_to_end_training_with_faults_in_every_phase_is_bit_identical() {
    let config = XrlflowConfig::smoke_test();
    let spec = smoke_spec(&config);
    let curriculum = smoke_curriculum(&config);
    let probe = probe();

    let train_single = |workers: usize| {
        let mut trainer = ParallelTrainer::new(config.clone(), 11);
        trainer.set_num_workers(workers);
        trainer.set_checkpointing(None);
        let mut agent = XrlflowAgent::new(&config, 3);
        trainer.train(&mut agent, &spec, 4).unwrap();
        agent.embed_graph(&probe).data().to_vec()
    };
    let train_multi = |workers: usize| {
        let mut trainer = ParallelTrainer::new(config.clone(), 11);
        trainer.set_num_workers(workers);
        trainer.set_checkpointing(None);
        let mut agent = XrlflowAgent::new(&config, 3);
        trainer.train_curriculum(&mut agent, &curriculum, 2).unwrap();
        agent.embed_graph(&probe).data().to_vec()
    };

    let (single_baseline, multi_baseline) = {
        let _quiet = FaultPlan::new().install();
        (train_single(2), train_multi(2))
    };

    for workers in [1usize, 2, 4] {
        let guard =
            FaultPlan::new().panic_on(FaultPhase::Collect, 1, 0).panic_on(FaultPhase::Update, 0, 0).install();
        let params = train_single(workers);
        assert_eq!(pending_faults(), 0, "{workers} workers: every scheduled fault must fire");
        drop(guard);
        let bits_equal = single_baseline.iter().zip(&params).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(bits_equal, "{workers}-worker faulty single-model run diverges from fault-free run");

        let guard = FaultPlan::new()
            .panic_on(FaultPhase::Collect, curriculum_fault_item(1, 1), 0)
            .panic_on(FaultPhase::Update, 1, 0)
            .install();
        let params = train_multi(workers);
        assert_eq!(pending_faults(), 0, "{workers} workers: every scheduled curriculum fault fires");
        drop(guard);
        let bits_equal = multi_baseline.iter().zip(&params).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(bits_equal, "{workers}-worker faulty curriculum run diverges from fault-free run");
    }
}

#[test]
fn exhausted_retry_budget_is_a_typed_worker_fault() {
    let config = XrlflowConfig::smoke_test();
    let spec = smoke_spec(&config);
    let agent = XrlflowAgent::new(&config, 5);
    let snapshot = agent.snapshot();

    // Default budget is 2 retries → attempts 0, 1, 2 all panic → exhausted.
    let guard = FaultPlan::new().exhaust_budget_on(FaultPhase::Collect, 2, 2).install();
    let err = collect_parallel(&config, &snapshot, &spec, 0, 4, 99, 2).unwrap_err();
    assert_eq!(pending_faults(), 0, "all scheduled attempts must have fired");
    drop(guard);

    match err {
        RolloutError::WorkerFault(fault) => {
            assert_eq!(fault.phase, FaultPhase::Collect);
            assert_eq!(fault.item, 2);
            assert_eq!(fault.attempts, 3, "budget 2 = 3 total executions");
            assert!(
                fault.payload.contains("injected fault"),
                "the panic payload text must survive verbatim, got: {}",
                fault.payload
            );
        }
        other => panic!("expected RolloutError::WorkerFault, got: {other}"),
    }
}

#[test]
fn exhausted_budget_in_the_update_phase_stops_training_with_a_typed_error() {
    let config = XrlflowConfig::smoke_test();
    let spec = smoke_spec(&config);

    let guard = FaultPlan::new().exhaust_budget_on(FaultPhase::Update, 0, 2).install();
    let mut trainer = ParallelTrainer::new(config.clone(), 11);
    trainer.set_num_workers(2);
    trainer.set_checkpointing(None);
    let mut agent = XrlflowAgent::new(&config, 3);
    let err = trainer.train(&mut agent, &spec, 2).unwrap_err();
    drop(guard);

    match err {
        RolloutError::WorkerFault(fault) => {
            assert_eq!(fault.phase, FaultPhase::Update);
            assert_eq!(fault.item, 0);
            assert_eq!(fault.attempts, 3);
        }
        other => panic!("expected RolloutError::WorkerFault, got: {other}"),
    }
}

#[test]
fn injected_faults_are_counted() {
    let config = XrlflowConfig::smoke_test();
    let spec = smoke_spec(&config);
    let agent = XrlflowAgent::new(&config, 5);
    let snapshot = agent.snapshot();

    // Episode 0 fails twice (2 panics, 2 retries), episode 1 once (1 + 1).
    let guard = FaultPlan::new()
        .panic_on(FaultPhase::Collect, 0, 0)
        .panic_on(FaultPhase::Collect, 0, 1)
        .panic_on(FaultPhase::Collect, 1, 0)
        .install();
    xrlflow_obs::set_enabled(true);
    let panics_before = xrlflow_obs::counter!("rollout/worker_panics").get();
    let retries_before = xrlflow_obs::counter!("rollout/item_retries").get();
    collect_parallel(&config, &snapshot, &spec, 0, 2, 7, 2).unwrap();
    let panics = xrlflow_obs::counter!("rollout/worker_panics").get() - panics_before;
    let retries = xrlflow_obs::counter!("rollout/item_retries").get() - retries_before;
    xrlflow_obs::set_enabled(false);
    drop(guard);

    assert_eq!(panics, 3, "each caught panic increments rollout/worker_panics");
    assert_eq!(retries, 3, "each re-execution increments rollout/item_retries");
}
