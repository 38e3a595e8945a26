//! Figure 8: end-to-end speedup of X-RLflow vs Tensat (equality saturation)
//! on BERT, InceptionV3, SqueezeNet and ResNeXt-50.

use xrlflow_bench::{episodes_from_env, render_table, scale_from_env};
use xrlflow_core::XrlflowConfig;
use xrlflow_cost::{DeviceProfile, InferenceSimulator};
use xrlflow_egraph::{TensatConfig, TensatOptimizer};
use xrlflow_graph::models::{build_model, ModelKind};
use xrlflow_rollout::XrlflowSystem;

fn main() {
    let scale = scale_from_env();
    let episodes = episodes_from_env(6);
    let sim = InferenceSimulator::new(DeviceProfile::gtx1080());
    let workloads = [ModelKind::Bert, ModelKind::InceptionV3, ModelKind::SqueezeNet, ModelKind::ResNext50];
    let mut rows = Vec::new();
    for kind in workloads {
        let graph = build_model(kind, scale).expect("model builds");
        let before = sim.measure_ms(&graph, 0);

        let tensat = TensatOptimizer::new(TensatConfig::default(), DeviceProfile::gtx1080());
        let tensat_speedup = match tensat.optimize(&graph) {
            Ok(result) => (before / sim.measure_ms(&result.graph, 0) - 1.0) * 100.0,
            Err(e) => {
                eprintln!("[fig8] {kind}: Tensat conversion failed ({e}); reporting 0%");
                0.0
            }
        };

        let mut system = XrlflowSystem::new(XrlflowConfig::bench(), 23);
        let (_report, xrl) = system.train_and_optimize(&graph, episodes).expect("training run");
        let xrl_speedup = (before / sim.measure_ms(&xrl.graph, 0) - 1.0) * 100.0;

        eprintln!("[fig8] {kind}: Tensat {tensat_speedup:.2}% vs X-RLflow {xrl_speedup:.2}%");
        rows.push(vec![kind.name().to_string(), format!("{tensat_speedup:.2}"), format!("{xrl_speedup:.2}")]);
    }
    println!(
        "Figure 8: end-to-end speedup (%) of Tensat vs X-RLflow (scale = {:?}, {} episodes/model)\n",
        scale, episodes
    );
    println!("{}", render_table(&["DNN", "Tensat speedup (%)", "X-RLflow speedup (%)"], &rows));
}
