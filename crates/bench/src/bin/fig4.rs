//! Figure 4: end-to-end inference speedup of TASO vs X-RLflow over the seven
//! evaluated DNNs (mean ± std over five measurements).

use xrlflow_bench::{episodes_from_env, mean_std, render_table, scale_from_env};
use xrlflow_core::XrlflowConfig;
use xrlflow_cost::{CostModel, DeviceProfile, InferenceSimulator};
use xrlflow_graph::models::{build_model, ModelKind};
use xrlflow_rewrite::RuleSet;
use xrlflow_rollout::XrlflowSystem;
use xrlflow_taso::{BacktrackingOptimizer, SearchConfig};

fn speedups(
    sim: &InferenceSimulator,
    before: &xrlflow_graph::Graph,
    after: &xrlflow_graph::Graph,
) -> (f64, f64) {
    let samples: Vec<f64> = (0..5)
        .map(|i| {
            let b = sim.measure_ms(before, i);
            let a = sim.measure_ms(after, i);
            (b / a - 1.0) * 100.0
        })
        .collect();
    mean_std(&samples)
}

fn main() {
    let scale = scale_from_env();
    let episodes = episodes_from_env(6);
    let sim = InferenceSimulator::new(DeviceProfile::gtx1080());
    let mut rows = Vec::new();
    for &kind in ModelKind::EVALUATED {
        let graph = build_model(kind, scale).expect("model builds");

        // TASO baseline (backtracking search over the cost model).
        let taso = BacktrackingOptimizer::new(
            RuleSet::standard(),
            CostModel::new(DeviceProfile::gtx1080()),
            SearchConfig { budget: 60, max_candidates: 48 },
        );
        let taso_result = taso.optimize(&graph);
        let (taso_mean, taso_std) = speedups(&sim, &graph, &taso_result.graph);

        // X-RLflow: train briefly on the target graph, then optimise greedily.
        let mut system = XrlflowSystem::new(XrlflowConfig::bench(), 42);
        let (_report, xrl_result) = system.train_and_optimize(&graph, episodes).expect("training run");
        let (xrl_mean, xrl_std) = speedups(&sim, &graph, &xrl_result.graph);

        eprintln!("[fig4] {kind}: TASO {taso_mean:.2}% vs X-RLflow {xrl_mean:.2}%");
        rows.push(vec![
            kind.name().to_string(),
            format!("{taso_mean:.2} ± {taso_std:.2}"),
            format!("{xrl_mean:.2} ± {xrl_std:.2}"),
        ]);
    }
    println!(
        "Figure 4: end-to-end speedup (%) of TASO vs X-RLflow (scale = {:?}, {} episodes/model)\n",
        scale, episodes
    );
    println!("{}", render_table(&["DNN", "TASO speedup (%)", "X-RLflow speedup (%)"], &rows));
}
