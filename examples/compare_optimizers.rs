//! Compares every optimiser in the repository — TASO greedy, TASO
//! backtracking, Tensat (equality saturation), PET-style and X-RLflow — on
//! the same workload, reporting cost-model and end-to-end improvements.
//!
//! Run with: `cargo run --release --example compare_optimizers [model]`
//! where `model` is one of: squeezenet, bert, inceptionv3, resnext50.

use xrlflow::core::XrlflowConfig;
use xrlflow::cost::{CostModel, DeviceProfile, InferenceSimulator};
use xrlflow::egraph::{TensatConfig, TensatOptimizer};
use xrlflow::graph::models::{build_model, ModelKind, ModelScale};
use xrlflow::rewrite::RuleSet;
use xrlflow::rollout::XrlflowSystem;
use xrlflow::taso::{BacktrackingOptimizer, GreedyOptimizer, PetOptimizer, SearchConfig};

fn main() {
    let model = std::env::args().nth(1).unwrap_or_else(|| "squeezenet".to_string());
    let kind = match model.to_lowercase().as_str() {
        "bert" => ModelKind::Bert,
        "inceptionv3" => ModelKind::InceptionV3,
        "resnext50" => ModelKind::ResNext50,
        _ => ModelKind::SqueezeNet,
    };
    let graph = build_model(kind, ModelScale::Bench).expect("model builds");
    let sim = InferenceSimulator::new(DeviceProfile::gtx1080());
    let cm = CostModel::new(DeviceProfile::gtx1080());
    let before_e2e = sim.measure_ms(&graph, 0);
    println!("workload: {kind} ({} nodes), unoptimised latency {before_e2e:.3} ms\n", graph.num_nodes());

    let config = SearchConfig { budget: 40, max_candidates: 48, alpha: 1.05 };
    let report = |name: &str, optimised: &xrlflow::graph::Graph, seconds: f64| {
        let e2e = sim.measure_ms(optimised, 0);
        println!(
            "{name:<20} e2e {e2e:.3} ms ({:+.2}%)   cost-model {:.3} ms   search {seconds:.2}s",
            (before_e2e / e2e - 1.0) * 100.0,
            cm.graph_cost_ms(optimised),
        );
    };

    let greedy =
        GreedyOptimizer::new(RuleSet::standard(), CostModel::new(DeviceProfile::gtx1080()), config.clone());
    let r = greedy.optimize(&graph);
    report("TASO (greedy)", &r.graph, r.optimisation_time_s);

    let backtracking = BacktrackingOptimizer::new(
        RuleSet::standard(),
        CostModel::new(DeviceProfile::gtx1080()),
        config.clone(),
    );
    let r = backtracking.optimize(&graph);
    report("TASO (backtracking)", &r.graph, r.optimisation_time_s);

    let pet = PetOptimizer::new(DeviceProfile::gtx1080(), config);
    let r = pet.optimize(&graph);
    report("PET-style", &r.graph, r.optimisation_time_s);

    match TensatOptimizer::new(TensatConfig::default(), DeviceProfile::gtx1080()).optimize(&graph) {
        Ok(r) => report("Tensat (e-graph)", &r.graph, r.optimisation_time_s),
        Err(e) => println!("Tensat (e-graph)     unsupported graph: {e}"),
    }

    let mut system = XrlflowSystem::new(XrlflowConfig::bench(), 1);
    let (_train, r) = system.train_and_optimize(&graph, 4).expect("training run");
    report("X-RLflow", &r.graph, r.optimisation_time_s);
}
