//! Micro-benchmarks for the e-graph substrate: conversion, saturation and
//! extraction (the Tensat baseline's inner loop).

use xrlflow_bench::{finish, report, time_ns};
use xrlflow_cost::DeviceProfile;
use xrlflow_egraph::{EGraph, TensatOptimizer};
use xrlflow_graph::models::{build_model, ModelKind, ModelScale};

fn main() {
    let graph = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
    report(
        "egraph_from_graph/squeezenet",
        time_ns(3, 20, || EGraph::from_graph(&graph).unwrap().num_classes()),
    );

    let tensat = TensatOptimizer::new(DeviceProfile::gtx1080());
    report(
        "tensat/saturate_and_extract/squeezenet",
        time_ns(2, 10, || tensat.optimize(&graph).unwrap().graph.num_nodes()),
    );

    finish("bench_egraph");
}
