//! Reproduces the Figure 7 protocol on a small scale: train X-RLflow on BERT
//! at one sequence length, then reuse the trained policy on other sequence
//! lengths without retraining.
//!
//! Run with: `cargo run --release --example shape_generalization`

use xrlflow::core::XrlflowConfig;
use xrlflow::graph::models::{ModelKind, ModelScale};
use xrlflow::rollout::{run_generalization, XrlflowSystem};

fn main() {
    let mut system = XrlflowSystem::new(XrlflowConfig::bench(), 5);
    let report = run_generalization(
        &mut system,
        ModelKind::Bert,
        ModelScale::Bench,
        /* train on sequence length */ 64,
        /* evaluate on */ &[32, 64, 128],
        /* training episodes */ 4,
    )
    .expect("generalisation run");

    println!("agent trained on BERT-64, evaluated without retraining:");
    for p in &report.points {
        let marker = if p.trained_on { " (trained shape)" } else { "" };
        println!(
            "  BERT-{:<4} speedup {:+.2}%  latency {:.3} ms  {} substitutions{marker}",
            p.input_size,
            p.result.stats.speedup_percent(),
            p.result.stats.final_latency_ms,
            p.result.stats.steps,
        );
    }
    println!(
        "\ntrained-shape speedup {:.2}%, mean unseen-shape speedup {:.2}%",
        report.trained_speedup(),
        report.unseen_mean_speedup()
    );
}
