//! Figure 7: generalisation to unseen tensor shapes. An agent trained on one
//! input shape of DALL-E / InceptionV3 is reused, without retraining, on
//! other input shapes.

use xrlflow_bench::{episodes_from_env, render_table, scale_from_env};
use xrlflow_core::XrlflowConfig;
use xrlflow_graph::models::ModelKind;
use xrlflow_rollout::{run_generalization, XrlflowSystem};

fn main() {
    let scale = scale_from_env();
    let episodes = episodes_from_env(4);
    let experiments: [(ModelKind, usize, Vec<usize>); 2] =
        [(ModelKind::DallE, 64, vec![32, 48, 64, 96]), (ModelKind::InceptionV3, 299, vec![225, 250, 299])];
    let mut rows = Vec::new();
    for (kind, train_size, eval_sizes) in experiments {
        let mut system = XrlflowSystem::new(XrlflowConfig::bench(), 11);
        let report = run_generalization(&mut system, kind, scale, train_size, &eval_sizes, episodes)
            .expect("generalisation run");
        for p in &report.points {
            let marker = if p.trained_on { "*" } else { " " };
            eprintln!("[fig7] {kind}-{}{marker}: {:.2}%", p.input_size, p.result.stats.speedup_percent());
            rows.push(vec![
                format!("{}-{}{}", kind.name(), p.input_size, marker),
                format!("{:.2}", p.result.stats.speedup_percent()),
                format!("{:.3}", p.result.stats.final_latency_ms),
            ]);
        }
    }
    println!(
        "Figure 7: generalisation to unseen tensor shapes ('*' marks the trained shape; scale = {:?})\n",
        scale
    );
    println!("{}", render_table(&["DNN-shape", "Speedup (%)", "Latency (ms)"], &rows));
}
