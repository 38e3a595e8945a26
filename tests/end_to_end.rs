//! Cross-crate integration tests: the full pipeline from model zoo through
//! rewrite engine, cost model, baselines and the X-RLflow system.

use xrlflow::core::XrlflowConfig;
use xrlflow::cost::{discrepancy, CostModel, DeviceProfile, InferenceSimulator};
use xrlflow::egraph::TensatOptimizer;
use xrlflow::graph::models::{build_model, ModelKind, ModelScale};
use xrlflow::rewrite::RuleSet;
use xrlflow::rollout::XrlflowSystem;
use xrlflow::taso::{BacktrackingOptimizer, GreedyOptimizer, SearchConfig};

fn profile() -> DeviceProfile {
    DeviceProfile::gtx1080()
}

#[test]
fn every_evaluated_model_has_rewrite_opportunities() {
    let rules = RuleSet::standard();
    for &kind in ModelKind::EVALUATED {
        let graph = build_model(kind, ModelScale::Bench).unwrap();
        let candidates = rules.generate_candidates(&graph, 64);
        assert!(!candidates.is_empty(), "{kind} has no rewrite candidates");
        for c in &candidates {
            assert!(c.graph(&graph).validate().is_ok(), "{kind}: candidate from {} invalid", c.rule_name);
        }
    }
}

#[test]
fn taso_improves_cost_model_and_preserves_validity_on_all_models() {
    for &kind in ModelKind::EVALUATED {
        let graph = build_model(kind, ModelScale::Bench).unwrap();
        let optimizer = GreedyOptimizer::new(
            RuleSet::standard(),
            CostModel::new(profile()),
            SearchConfig { budget: 20, max_candidates: 32 },
        );
        let result = optimizer.optimize(&graph);
        assert!(result.graph.validate().is_ok(), "{kind}: TASO output invalid");
        assert!(
            result.final_cost_ms <= result.initial_cost_ms + 1e-9,
            "{kind}: TASO regressed the cost model"
        );
    }
}

#[test]
fn cost_model_discrepancy_motivation_holds() {
    // Table 1's motivation: the cost model and the end-to-end latency differ.
    let cm = CostModel::new(profile());
    let sim = InferenceSimulator::new(profile());
    let mut any_discrepancy = false;
    for kind in [ModelKind::SqueezeNet, ModelKind::Bert, ModelKind::ResNext50] {
        let graph = build_model(kind, ModelScale::Bench).unwrap();
        let d = discrepancy(kind.name(), &graph, &cm, &sim);
        if d.diff_percent() > 3.0 {
            any_discrepancy = true;
        }
    }
    assert!(any_discrepancy, "expected a visible cost-model / E2E discrepancy");
}

#[test]
fn tensat_and_taso_both_beat_the_unoptimised_graph_on_squeezenet() {
    let graph = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
    let sim = InferenceSimulator::new(profile());
    let before = sim.measure_ms(&graph, 0);

    let taso = BacktrackingOptimizer::new(
        RuleSet::standard(),
        CostModel::new(profile()),
        SearchConfig { budget: 40, max_candidates: 32 },
    );
    let taso_after = sim.measure_ms(&taso.optimize(&graph).graph, 0);

    let tensat = TensatOptimizer::new(profile());
    let tensat_after = sim.measure_ms(&tensat.optimize(&graph).unwrap().graph, 0);

    assert!(taso_after < before, "TASO should reduce simulated latency");
    assert!(tensat_after < before, "Tensat should reduce simulated latency");
}

#[test]
fn xrlflow_full_pipeline_on_squeezenet() {
    let graph = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
    let mut system = XrlflowSystem::new(XrlflowConfig::smoke_test(), 0);
    let (report, result) = system.train_and_optimize(&graph, 2).unwrap();
    assert_eq!(report.episodes.len(), 2);
    assert!(!report.updates.is_empty());
    assert!(result.graph.validate().is_ok());
    assert!(result.stats.final_latency_ms > 0.0);
    // The optimised graph must still compute the same outputs structurally:
    // same number of graph outputs with the same shapes.
    assert_eq!(result.graph.outputs().len(), graph.outputs().len());
    for (a, b) in result.graph.outputs().iter().zip(graph.outputs()) {
        assert_eq!(
            result.graph.tensor_shape(*a).unwrap(),
            graph.tensor_shape(*b).unwrap(),
            "output shape changed during optimisation"
        );
    }
}

#[test]
fn rewrites_preserve_output_shapes_along_random_trajectories() {
    // Property-style integration check: follow arbitrary candidate choices
    // and verify the graph stays valid with unchanged output shapes.
    let rules = RuleSet::standard();
    for &kind in &[ModelKind::SqueezeNet, ModelKind::Bert] {
        let original = build_model(kind, ModelScale::Bench).unwrap();
        let original_shapes: Vec<_> =
            original.outputs().iter().map(|r| original.tensor_shape(*r).unwrap().clone()).collect();
        let mut current = original.clone();
        for step in 0..6 {
            let candidates = rules.generate_candidates(&current, 32);
            if candidates.is_empty() {
                break;
            }
            let pick = (step * 13 + 5) % candidates.len();
            current = candidates[pick].materialize(&current).unwrap();
            assert!(current.validate().is_ok(), "{kind}: invalid graph at step {step}");
            let shapes: Vec<_> =
                current.outputs().iter().map(|r| current.tensor_shape(*r).unwrap().clone()).collect();
            assert_eq!(shapes, original_shapes, "{kind}: output shapes changed at step {step}");
        }
    }
}

#[test]
fn curriculum_generalisation_pipeline_spans_the_model_zoo() {
    // The multi-model workload end to end at the umbrella-crate level: one
    // shared agent trains across a curriculum of zoo models (parallel
    // collection, per-model advantage normalisation), is evaluated greedily
    // on a held-out model it never saw, and every produced graph stays
    // valid.
    use xrlflow::core::XrlflowAgent;
    use xrlflow::rollout::{evaluate_curriculum, Curriculum, ParallelTrainer};

    let config = XrlflowConfig::smoke_test();
    let full = Curriculum::from_model_zoo(
        &[ModelKind::SqueezeNet, ModelKind::ResNet18, ModelKind::Bert],
        ModelScale::Bench,
        profile(),
        config.env.clone(),
    )
    .unwrap();
    let (train, held_out) = full.hold_out(2);
    assert_eq!(held_out.name, "BERT");

    let mut agent = XrlflowAgent::new(&config, 5);
    let mut trainer = ParallelTrainer::new(config.clone(), 5);
    let report = trainer.train_curriculum(&mut agent, &train, 2).unwrap();
    assert_eq!(report.episodes.len(), train.len() * 2);
    assert_eq!(report.per_model.len(), train.len());
    for breakdown in &report.per_model {
        assert_eq!(breakdown.episodes, 2);
        assert!(breakdown.mean_reward.is_finite());
    }

    let evals = evaluate_curriculum(&agent, &full);
    assert_eq!(evals.len(), full.len());
    let names: Vec<&str> = evals.iter().map(|e| e.name.as_str()).collect();
    assert!(names.contains(&"BERT"), "held-out model must be evaluated");
    for eval in &evals {
        assert!(eval.stats.final_latency_ms > 0.0, "{}: no latency measured", eval.name);
        assert!(eval.speedup_percent().is_finite(), "{}: bad speedup", eval.name);
    }
}
