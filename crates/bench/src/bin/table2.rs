//! Table 2: PET-style partially equivalent transformation vs TASO on
//! ResNet-18 and ResNeXt-50 (optimised end-to-end latency, ms).

use xrlflow_bench::{render_table, scale_from_env};
use xrlflow_cost::{DeviceProfile, InferenceSimulator};
use xrlflow_graph::models::{build_model, ModelKind};
use xrlflow_taso::{PetOptimizer, SearchConfig};

fn main() {
    let scale = scale_from_env();
    let simulator = InferenceSimulator::new(DeviceProfile::gtx1080());
    let config = SearchConfig { budget: 40, max_candidates: 48 };
    let mut rows = Vec::new();
    for kind in [ModelKind::ResNet18, ModelKind::ResNext50] {
        let graph = build_model(kind, scale).expect("model builds");
        let pet = PetOptimizer::new(DeviceProfile::gtx1080(), config.clone());
        let pet_result = pet.optimize(&graph);
        let taso_result = pet.taso_counterpart().optimize(&graph);
        rows.push(vec![
            kind.name().to_string(),
            format!("{:.4}", simulator.measure_ms(&pet_result.graph, 0)),
            format!("{:.4}", simulator.measure_ms(&taso_result.graph, 0)),
            format!("{}", pet_result.steps),
            format!("{}", taso_result.steps),
        ]);
    }
    println!("Table 2: PET vs TASO optimised end-to-end latency (scale = {:?})\n", scale);
    println!("{}", render_table(&["DNN", "PET (ms)", "TASO (ms)", "PET steps", "TASO steps"], &rows));
}
