//! Cost-based substitution search: TASO's greedy and backtracking engines.
//!
//! TASO ranks every candidate with its per-operator cost model and greedily
//! takes the best one; its backtracking variant also enqueues candidates
//! whose cost is within a factor `ALPHA` (1.05) of the best seen so far and
//! explores them under an iteration budget. Both engines optimise the *cost
//! model*, not end-to-end latency — which is exactly the behaviour X-RLflow
//! improves on.

use std::collections::{BinaryHeap, HashSet};
use std::time::Instant;

use xrlflow_cost::CostModel;
use xrlflow_graph::Graph;
use xrlflow_rewrite::RuleSet;

/// Result of running a substitution search.
#[derive(Debug, Clone)]
pub struct OptimizationResult {
    /// The optimised graph.
    pub graph: Graph,
    /// Cost-model estimate of the initial graph (ms).
    pub initial_cost_ms: f64,
    /// Cost-model estimate of the optimised graph (ms).
    pub final_cost_ms: f64,
    /// Number of substitutions applied along the chosen trajectory.
    pub steps: usize,
    /// The rules applied along the chosen trajectory, in order (one per
    /// step); the Figure 5 heatmap for the baseline counts them.
    pub applied_rules: Vec<&'static str>,
    /// Number of candidate graphs evaluated in total.
    pub candidates_evaluated: usize,
    /// Wall-clock optimisation time in seconds.
    pub optimisation_time_s: f64,
}

impl OptimizationResult {
    /// Relative cost-model improvement in percent.
    pub fn improvement_percent(&self) -> f64 {
        if self.initial_cost_ms == 0.0 {
            0.0
        } else {
            (self.initial_cost_ms - self.final_cost_ms) / self.initial_cost_ms * 100.0
        }
    }
}

/// Backtracking relaxation: candidates with cost below `ALPHA * best_cost`
/// are kept on the queue (TASO's 1.05).
const ALPHA: f64 = 1.05;

/// Configuration shared by the greedy and backtracking engines.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Maximum number of substitution steps (greedy) or queue pops
    /// (backtracking).
    pub budget: usize,
    /// Maximum number of candidates generated per step.
    pub max_candidates: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self { budget: 100, max_candidates: 64 }
    }
}

/// TASO-style greedy substitution engine: at every step, apply the candidate
/// with the lowest cost-model estimate, stopping when no candidate improves
/// on the current graph.
#[derive(Debug)]
pub struct GreedyOptimizer {
    rules: RuleSet,
    cost_model: CostModel,
    config: SearchConfig,
}

impl GreedyOptimizer {
    /// Creates a greedy optimiser.
    pub fn new(rules: RuleSet, cost_model: CostModel, config: SearchConfig) -> Self {
        Self { rules, cost_model, config }
    }

    /// Runs the search from `graph`.
    pub fn optimize(&self, graph: &Graph) -> OptimizationResult {
        greedy_search(&self.rules, &self.config, graph, |g| self.cost_model.graph_cost_ms(g))
    }
}

/// The greedy loop of TASO and PET: at every step, apply the candidate with
/// the lowest `cost`, stopping when no candidate improves on the current
/// graph or the budget is spent. The result's cost fields are `cost`'s.
pub(crate) fn greedy_search(
    rules: &RuleSet,
    config: &SearchConfig,
    graph: &Graph,
    cost: impl Fn(&Graph) -> f64,
) -> OptimizationResult {
    let start = Instant::now();
    let initial_cost_ms = cost(graph);
    let mut current = graph.clone();
    let mut current_cost = initial_cost_ms;
    let mut applied_rules: Vec<&'static str> = Vec::new();
    let mut candidates_evaluated = 0;

    for _ in 0..config.budget {
        let candidates = rules.generate_candidates(&current, config.max_candidates);
        candidates_evaluated += candidates.len();
        let best = candidates
            .into_iter()
            .filter_map(|c| {
                let graph = c.materialize(&current).ok()?;
                let cost = cost(&graph);
                Some((c, graph, cost))
            })
            .min_by(|a, b| a.2.total_cmp(&b.2));
        match best {
            Some((candidate, graph, cost)) if cost < current_cost => {
                applied_rules.push(candidate.rule_name);
                current = graph;
                current_cost = cost;
            }
            _ => break,
        }
    }

    OptimizationResult {
        final_cost_ms: current_cost,
        graph: current,
        initial_cost_ms,
        steps: applied_rules.len(),
        applied_rules,
        candidates_evaluated,
        optimisation_time_s: start.elapsed().as_secs_f64(),
    }
}

#[derive(Debug)]
struct QueueEntry {
    cost: f64,
    order: usize,
    graph: Graph,
    rules: Vec<&'static str>,
}

impl PartialEq for QueueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cost == other.cost && self.order == other.order
    }
}
impl Eq for QueueEntry {}
impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; we want the lowest cost first.
        other.cost.total_cmp(&self.cost).then(other.order.cmp(&self.order))
    }
}

/// TASO's backtracking search: a best-first queue of graphs whose cost is
/// within a factor `ALPHA` of the best cost seen so far, explored under a budget.
#[derive(Debug)]
pub struct BacktrackingOptimizer {
    rules: RuleSet,
    cost_model: CostModel,
    config: SearchConfig,
}

impl BacktrackingOptimizer {
    /// Creates a backtracking optimiser (TASO's default engine).
    pub fn new(rules: RuleSet, cost_model: CostModel, config: SearchConfig) -> Self {
        Self { rules, cost_model, config }
    }

    /// Runs the search from `graph`.
    pub fn optimize(&self, graph: &Graph) -> OptimizationResult {
        let start = Instant::now();
        let initial_cost_ms = self.cost_model.graph_cost_ms(graph);
        let mut best_graph = graph.clone();
        let mut best_cost = initial_cost_ms;
        let mut best_rules: Vec<&'static str> = Vec::new();

        let mut queue = BinaryHeap::new();
        let mut seen: HashSet<u64> = HashSet::new();
        let mut order = 0;
        seen.insert(graph.canonical_hash());
        queue.push(QueueEntry { cost: initial_cost_ms, order, graph: graph.clone(), rules: Vec::new() });

        let mut pops = 0;
        let mut candidates_evaluated = 0;
        while let Some(entry) = queue.pop() {
            pops += 1;
            if pops > self.config.budget {
                break;
            }
            if entry.cost < best_cost {
                best_cost = entry.cost;
                best_graph = entry.graph.clone();
                best_rules = entry.rules.clone();
            }
            if entry.cost > ALPHA * best_cost {
                continue;
            }
            for candidate in self.rules.generate_candidates(&entry.graph, self.config.max_candidates) {
                candidates_evaluated += 1;
                let Ok(graph) = candidate.materialize(&entry.graph) else { continue };
                if !seen.insert(graph.canonical_hash()) {
                    continue;
                }
                let cost = self.cost_model.graph_cost_ms(&graph);
                if cost > ALPHA * best_cost {
                    continue;
                }
                order += 1;
                let mut rules = entry.rules.clone();
                rules.push(candidate.rule_name);
                queue.push(QueueEntry { cost, order, graph, rules });
            }
        }

        OptimizationResult {
            graph: best_graph,
            initial_cost_ms,
            final_cost_ms: best_cost,
            steps: best_rules.len(),
            applied_rules: best_rules,
            candidates_evaluated,
            optimisation_time_s: start.elapsed().as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrlflow_cost::DeviceProfile;
    use xrlflow_graph::models::{build_model, ModelKind, ModelScale};

    fn greedy() -> GreedyOptimizer {
        GreedyOptimizer::new(
            RuleSet::standard(),
            CostModel::new(DeviceProfile::gtx1080()),
            SearchConfig { budget: 30, max_candidates: 32 },
        )
    }

    #[test]
    fn greedy_never_increases_cost_model() {
        let g = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
        let result = greedy().optimize(&g);
        assert!(result.final_cost_ms <= result.initial_cost_ms);
        assert!(result.graph.validate().is_ok());
        assert!(result.steps > 0, "expected at least one substitution on SqueezeNet");
        assert!(result.improvement_percent() >= 0.0);
    }

    #[test]
    fn greedy_applies_fusion_rules_on_conv_nets() {
        let g = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
        let result = greedy().optimize(&g);
        assert!(
            result.applied_rules.iter().any(|r| r.starts_with("fuse-conv")),
            "expected conv fusions, applied: {:?}",
            result.applied_rules
        );
    }

    #[test]
    fn backtracking_at_least_matches_greedy() {
        let g = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
        let greedy_result = greedy().optimize(&g);
        let backtracking = BacktrackingOptimizer::new(
            RuleSet::standard(),
            CostModel::new(DeviceProfile::gtx1080()),
            SearchConfig { budget: 60, max_candidates: 32 },
        );
        let bt_result = backtracking.optimize(&g);
        assert!(bt_result.graph.validate().is_ok());
        // Backtracking explores a superset of greedy's frontier under a large
        // enough budget, so it should not do worse by more than noise.
        assert!(bt_result.final_cost_ms <= greedy_result.final_cost_ms * 1.01);
    }

    #[test]
    fn budget_of_zero_is_a_no_op() {
        let g = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
        let opt = GreedyOptimizer::new(
            RuleSet::standard(),
            CostModel::new(DeviceProfile::gtx1080()),
            SearchConfig { budget: 0, max_candidates: 32 },
        );
        let result = opt.optimize(&g);
        assert_eq!(result.steps, 0);
        assert_eq!(result.graph.canonical_hash(), g.canonical_hash());
    }

    #[test]
    fn transformer_graphs_are_optimised_too() {
        let g = build_model(ModelKind::Bert, ModelScale::Bench).unwrap();
        let result = greedy().optimize(&g);
        assert!(result.graph.validate().is_ok());
        assert!(result.steps > 0, "expected substitutions on BERT");
    }
}
