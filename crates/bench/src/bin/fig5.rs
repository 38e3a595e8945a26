//! Figure 5: heatmap of rewrite rules applied by X-RLflow on each DNN.

use std::collections::HashMap;

use xrlflow_bench::{episodes_from_env, render_heatmap, scale_from_env};
use xrlflow_core::XrlflowConfig;
use xrlflow_graph::models::{build_model, ModelKind};
use xrlflow_rollout::XrlflowSystem;

fn main() {
    let scale = scale_from_env();
    let episodes = episodes_from_env(2);
    let mut counts: HashMap<String, HashMap<&'static str, usize>> = HashMap::new();
    for &kind in ModelKind::EVALUATED {
        let graph = build_model(kind, scale).expect("model builds");
        let mut system = XrlflowSystem::new(XrlflowConfig::bench(), 7);
        let (_report, result) = system.train_and_optimize(&graph, episodes).expect("training run");
        eprintln!("[fig5] {kind}: {} substitutions", result.stats.steps);
        let per_rule = counts.entry(kind.name().to_string()).or_default();
        for &rule in &result.stats.applied_rules {
            *per_rule.entry(rule).or_insert(0) += 1;
        }
    }
    println!(
        "Figure 5: rewrite rules applied by X-RLflow (scale = {:?}, {} episodes/model)\n",
        scale, episodes
    );
    println!("{}", render_heatmap(&counts));
}
