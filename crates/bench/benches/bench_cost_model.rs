//! Micro-benchmarks for the cost model and the end-to-end latency simulator
//! (these run once per candidate / every N steps respectively, so their
//! throughput bounds the whole optimisation loop).

use xrlflow_bench::{finish, report, time_ns};
use xrlflow_cost::{CostModel, DeviceProfile, InferenceSimulator};
use xrlflow_graph::models::{build_model, ModelKind, ModelScale};

fn main() {
    let cm = CostModel::new(DeviceProfile::gtx1080());
    println!("== cost model ==");
    for kind in [ModelKind::SqueezeNet, ModelKind::Bert] {
        let graph = build_model(kind, ModelScale::Bench).unwrap();
        report(&format!("cost_model/{}", kind.name()), time_ns(3, 50, || cm.graph_cost_ms(&graph)));
    }

    println!("\n== end-to-end simulator ==");
    let sim = InferenceSimulator::new(DeviceProfile::gtx1080());
    for kind in [ModelKind::SqueezeNet, ModelKind::Bert] {
        let graph = build_model(kind, ModelScale::Bench).unwrap();
        report(&format!("e2e_simulator/{}", kind.name()), time_ns(3, 50, || sim.measure_ms(&graph, 0)));
    }

    finish("bench_cost_model");
}
