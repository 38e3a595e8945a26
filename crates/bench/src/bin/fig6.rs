//! Figure 6: optimisation (search) time of TASO vs X-RLflow.
//! X-RLflow's time excludes agent training, as in the paper.

use xrlflow_bench::{episodes_from_env, render_table, scale_from_env};
use xrlflow_core::XrlflowConfig;
use xrlflow_cost::{CostModel, DeviceProfile};
use xrlflow_graph::models::{build_model, ModelKind};
use xrlflow_rewrite::RuleSet;
use xrlflow_rollout::XrlflowSystem;
use xrlflow_taso::{BacktrackingOptimizer, SearchConfig};

fn main() {
    let scale = scale_from_env();
    let episodes = episodes_from_env(2);
    let mut rows = Vec::new();
    for &kind in ModelKind::EVALUATED {
        let graph = build_model(kind, scale).expect("model builds");
        let taso = BacktrackingOptimizer::new(
            RuleSet::standard(),
            CostModel::new(DeviceProfile::gtx1080()),
            SearchConfig { budget: 60, max_candidates: 48 },
        );
        let taso_result = taso.optimize(&graph);

        let mut system = XrlflowSystem::new(XrlflowConfig::bench(), 3);
        system.train_on(&graph, episodes).expect("training run");
        let xrl_result = system.optimize(&graph);

        eprintln!(
            "[fig6] {kind}: TASO {:.2}s vs X-RLflow {:.2}s",
            taso_result.optimisation_time_s, xrl_result.optimisation_time_s
        );
        rows.push(vec![
            kind.name().to_string(),
            format!("{:.2}", taso_result.optimisation_time_s),
            format!("{:.2}", xrl_result.optimisation_time_s),
        ]);
    }
    println!("Figure 6: optimisation time in seconds (scale = {:?})\n", scale);
    println!("{}", render_table(&["DNN", "TASO (s)", "X-RLflow (s)"], &rows));
}
