//! Micro-benchmarks for the substitution engine: candidate generation
//! throughput (matching included) on the evaluated workloads.
//!
//! Candidate generation is timed on the shipped patch-based pipeline: one
//! [`xrlflow_rewrite::Candidate`] carries a small delta, and no candidate
//! graph is materialised — cold (`patch`: every rule matched over the whole
//! graph) and carried to the next step (`carried`: only what the chosen
//! patch touched re-matched, re-built and re-hashed). Then come the
//! graph-layer costs of one rewrite step: materialising a candidate,
//! applying its patch, hashing the result and measuring it.

use std::cell::RefCell;

use xrlflow_bench::{finish, iters_from_env, report, time_ns, time_with_setup_ns};
use xrlflow_cost::{DeviceProfile, InferenceSimulator};
use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
use xrlflow_rewrite::{RuleSet, SiteLists};

fn main() {
    let rules = RuleSet::standard();
    let iters = iters_from_env(20);

    println!("== candidate generation (patch-based) ==");
    for kind in [ModelKind::SqueezeNet, ModelKind::Bert, ModelKind::InceptionV3] {
        let graph = build_model(kind, ModelScale::Bench).unwrap();
        let patch_ns = time_ns(3, iters, || rules.generate_candidates(&graph, 64).len());
        report(&format!("candidate_generation/patch/{}", kind.name()), patch_ns);
    }

    // One carried step after the first: the first graph's site lists
    // brought to its first candidate's materialisation, then deduplicated
    // and cut (what `Environment::step` runs instead of the cold build
    // above).
    println!("\n== candidate generation (carried) ==");
    for kind in [ModelKind::SqueezeNet, ModelKind::Bert, ModelKind::InceptionV3] {
        let graph = build_model(kind, ModelScale::Bench).unwrap();
        let next = rules.generate_candidates(&graph, 64)[0].materialize(&graph).unwrap();
        let carried_ns = time_with_setup_ns(
            3,
            iters,
            || RefCell::new(SiteLists::new(&rules, &graph)),
            |sites| {
                let mut sites = sites.borrow_mut();
                sites.advance(&rules, &graph, &next);
                sites.candidates(&rules, &next, 64).len()
            },
        );
        report(&format!("candidate_generation/carried/{}", kind.name()), carried_ns);
    }

    println!("\n== single-candidate materialisation ==");
    let graph = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
    let candidates = rules.generate_candidates(&graph, 64);
    if let Some(c) = candidates.first() {
        report(
            "materialize_one_candidate/squeezenet",
            time_ns(3, iters.max(50), || c.materialize(&graph).unwrap().num_nodes()),
        );
    }

    // What one environment step asks of the graph layer: apply the chosen
    // patch (node slots are shared, only rewired nodes are copied), hash the
    // result, which keys the measurement's noise draw (`first`: nothing
    // memoised yet; `memo`: the graph's index already holds it) and, every
    // few steps, simulate it (`measure_miss`: hash + simulation of a freshly
    // stepped graph).
    println!("\n== one rewrite step's graph-layer work ==");
    let iters = iters.max(50);
    let simulator = InferenceSimulator::new(DeviceProfile::gtx1080());
    for kind in [ModelKind::SqueezeNet, ModelKind::Bert, ModelKind::InceptionV3] {
        let graph = build_model(kind, ModelScale::Bench).unwrap();
        let candidates = rules.generate_candidates(&graph, 64);
        let patch = candidates.first().expect("every zoo graph has a candidate").patch();
        let stepped = || graph.apply_patch(patch).unwrap();
        report(&format!("graph/apply_patch/{}", kind.name()), time_ns(3, iters, stepped));
        report(
            &format!("graph/canonical_hash/first/{}", kind.name()),
            time_with_setup_ns(3, iters, stepped, |g| g.canonical_hash()),
        );
        let hashed = stepped();
        hashed.canonical_hash();
        report(
            &format!("graph/canonical_hash/memo/{}", kind.name()),
            time_ns(3, iters, || hashed.canonical_hash()),
        );
        report(
            &format!("cost/measure_miss/{}", kind.name()),
            time_with_setup_ns(3, iters, stepped, |g| simulator.measure_ms(g, 0)),
        );
    }

    finish("bench_rewrite");
}
