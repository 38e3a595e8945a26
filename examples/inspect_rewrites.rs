//! Explores the substitution engine directly: lists the candidates available
//! on a BERT attention block and shows how the cost model and the end-to-end
//! simulator rank them differently (the paper's core motivation).
//!
//! Run with: `cargo run --release --example inspect_rewrites`

use xrlflow::cost::{CostModel, DeviceProfile, InferenceSimulator};
use xrlflow::graph::models::{build_model, ModelKind, ModelScale};
use xrlflow::rewrite::RuleSet;

fn main() {
    let graph = build_model(ModelKind::Bert, ModelScale::Bench).expect("model builds");
    let rules = RuleSet::standard();
    let cm = CostModel::new(DeviceProfile::gtx1080());
    let sim = InferenceSimulator::new(DeviceProfile::gtx1080());

    let base_cost = cm.graph_cost_ms(&graph);
    let base_e2e = sim.measure_ms(&graph, 0);
    println!("BERT: cost-model {base_cost:.3} ms, end-to-end {base_e2e:.3} ms");
    println!("{} rewrite rules active\n", rules.len());

    let candidates = rules.generate_candidates(&graph, 64);
    println!("{} one-step candidates; per-candidate effect:", candidates.len());
    println!("{:<28} {:>12} {:>12}", "rule", "Δcost (ms)", "ΔE2E (ms)");
    for c in candidates.iter().take(20) {
        let transformed = c.materialize(&graph).expect("a candidate applies to its base");
        let d_cost = cm.graph_cost_ms(&transformed) - base_cost;
        let d_e2e = sim.measure_ms(&transformed, 0) - base_e2e;
        println!("{:<28} {:>12.4} {:>12.4}", c.rule_name, d_cost, d_e2e);
    }
    println!("\nNote how some candidates look neutral to the cost model but improve (or hurt)");
    println!("the end-to-end latency — the discrepancy X-RLflow exploits via its reward signal.");
}
