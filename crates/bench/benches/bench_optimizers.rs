//! Benchmarks comparing whole-optimiser runs (TASO greedy, TASO
//! backtracking, Tensat, one X-RLflow policy rollout) on a common workload.
//! These are the per-figure building blocks; the table/figure binaries in
//! `src/bin` print the paper-formatted results.

use xrlflow_bench::{finish, report, time_ns};
use xrlflow_core::XrlflowConfig;
use xrlflow_cost::{CostModel, DeviceProfile};
use xrlflow_egraph::TensatOptimizer;
use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
use xrlflow_rewrite::RuleSet;
use xrlflow_rollout::XrlflowSystem;
use xrlflow_taso::{BacktrackingOptimizer, GreedyOptimizer, SearchConfig};

fn workload() -> xrlflow_graph::Graph {
    build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap()
}

fn main() {
    let graph = workload();
    report(
        "optimizers/taso_greedy/squeezenet",
        time_ns(1, 5, || {
            let opt = GreedyOptimizer::new(
                RuleSet::standard(),
                CostModel::new(DeviceProfile::gtx1080()),
                SearchConfig { budget: 20, max_candidates: 32 },
            );
            opt.optimize(&graph).steps
        }),
    );
    report(
        "optimizers/taso_backtracking/squeezenet",
        time_ns(1, 5, || {
            let opt = BacktrackingOptimizer::new(
                RuleSet::standard(),
                CostModel::new(DeviceProfile::gtx1080()),
                SearchConfig { budget: 30, max_candidates: 32 },
            );
            opt.optimize(&graph).steps
        }),
    );
    report(
        "optimizers/tensat/squeezenet",
        time_ns(1, 5, || {
            let opt = TensatOptimizer::new(DeviceProfile::gtx1080());
            opt.optimize(&graph).unwrap().graph.num_nodes()
        }),
    );
    report(
        "optimizers/xrlflow_policy_rollout/squeezenet",
        time_ns(0, 3, || {
            let mut system = XrlflowSystem::new(XrlflowConfig::smoke_test(), 0);
            system.optimize(&graph).steps
        }),
    );

    finish("bench_optimizers");
}
