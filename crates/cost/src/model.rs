//! The TASO-style per-operator cost model and the end-to-end inference
//! latency simulator.
//!
//! The paper's central motivation (Section 2.4, Table 1) is that the *sum of
//! per-operator costs* — the signal TASO and Tensat optimise — deviates from
//! the *end-to-end inference latency* by 5–24%, because the cost model
//! cannot see kernel-launch overhead, kernel-selection effects, fusion or
//! constant folding. This module provides both signals:
//!
//! * [`CostModel`] — sums per-operator compute estimates (what TASO ranks
//!   candidates with).
//! * [`InferenceSimulator`] — "runs" the graph: skips constant-foldable
//!   nodes, adds launch overhead per launched kernel, applies deterministic
//!   per-kernel perturbations and optional measurement noise (what X-RLflow
//!   uses as its sparse reward signal).

use std::collections::HashMap;
use std::sync::Mutex;

use xrlflow_graph::{Graph, Node, NodeId, OpKind};

use crate::profile::{kernel_perturbation, node_compute_us, DeviceProfile};

/// The TASO-style cost model: the estimated cost of a graph is the sum of
/// its operators' estimated runtimes.
#[derive(Debug, Clone, Default)]
pub struct CostModel {
    profile: DeviceProfile,
}

impl CostModel {
    /// Creates a cost model for a device profile.
    pub fn new(profile: DeviceProfile) -> Self {
        Self { profile }
    }

    /// The device profile in use.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Estimated runtime of a single node in milliseconds.
    pub fn node_cost_ms(&self, graph: &Graph, id: NodeId) -> f64 {
        node_compute_us(graph, id, &self.profile) / 1000.0
    }

    /// Estimated runtime of the whole graph in milliseconds: the sum of all
    /// operator costs, with no launch overhead, no constant folding and no
    /// kernel-selection effects (exactly the assumption the paper criticises).
    pub fn graph_cost_ms(&self, graph: &Graph) -> f64 {
        graph.iter().map(|(id, _)| self.node_cost_ms(graph, id)).sum()
    }
}

/// Configuration of the end-to-end latency simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulatorConfig {
    /// Apply constant folding: nodes with no dependence on graph inputs are
    /// pre-computed and excluded from inference latency.
    pub constant_folding: bool,
    /// Add fixed per-kernel launch overhead.
    pub launch_overhead: bool,
    /// Apply the deterministic per-kernel perturbation.
    pub kernel_effects: bool,
    /// Standard deviation of multiplicative measurement noise (0 disables).
    pub noise_std: f64,
}

impl Default for SimulatorConfig {
    fn default() -> Self {
        Self { constant_folding: true, launch_overhead: true, kernel_effects: true, noise_std: 0.01 }
    }
}

/// Simulates running end-to-end inference on a graph and reports its latency.
///
/// # Examples
///
/// ```
/// use xrlflow_cost::{DeviceProfile, InferenceSimulator};
/// use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
///
/// let g = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
/// let sim = InferenceSimulator::new(DeviceProfile::gtx1080());
/// let latency = sim.measure_ms(&g, 0);
/// assert!(latency > 0.0);
/// ```
#[derive(Debug, Default)]
pub struct InferenceSimulator {
    profile: DeviceProfile,
    config: SimulatorConfig,
    /// Memo of the deterministic (pre-noise) latency keyed by the graph's
    /// canonical hash: repeated measurements of structurally identical graphs
    /// — ubiquitous in RL training, where every episode re-measures the same
    /// initial graph and trajectories revisit the same rewrites — skip the
    /// full simulation. Measurement noise is applied per call on top of the
    /// memoised base, preserving the seeded-noise protocol.
    cache: Mutex<HashMap<u64, f64>>,
}

/// Cloning a simulator carries the memoised measurements along.
impl Clone for InferenceSimulator {
    fn clone(&self) -> Self {
        Self {
            profile: self.profile.clone(),
            config: self.config,
            cache: Mutex::new(self.cache.lock().expect("simulator cache poisoned").clone()),
        }
    }
}

/// Bound on memoised entries; the cache is cleared when it would grow past
/// this (graph sets per optimisation run are far smaller in practice).
const MEASUREMENT_CACHE_CAP: usize = 8192;

impl InferenceSimulator {
    /// Creates a simulator with the default configuration.
    pub fn new(profile: DeviceProfile) -> Self {
        Self { profile, config: SimulatorConfig::default(), cache: Mutex::new(HashMap::new()) }
    }

    /// Creates a simulator with an explicit configuration.
    pub fn with_config(profile: DeviceProfile, config: SimulatorConfig) -> Self {
        Self { profile, config, cache: Mutex::new(HashMap::new()) }
    }

    /// The device profile in use.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// The simulator configuration.
    pub fn config(&self) -> &SimulatorConfig {
        &self.config
    }

    /// Simulated end-to-end latency of one inference pass, in milliseconds.
    ///
    /// `seed` controls the measurement-noise draw so repeated measurements
    /// (the paper reports mean ± std over 5 runs) differ slightly; the
    /// underlying deterministic latency is identical for identical graphs.
    pub fn measure_ms(&self, graph: &Graph, seed: u64) -> f64 {
        let _span = xrlflow_obs::span!("cost/simulator/measure");
        let key = graph.canonical_hash();
        let cached = self.cache.lock().expect("simulator cache poisoned").get(&key).copied();
        let base_ms = match cached {
            Some(ms) => {
                xrlflow_obs::counter!("cost/simulator/memo_hit").inc();
                ms
            }
            None => {
                xrlflow_obs::counter!("cost/simulator/memo_miss").inc();
                // Simulate outside the critical section so concurrent
                // callers are never blocked behind a cold measurement (a
                // racing duplicate simulation is deterministic and cheap).
                let ms = self.simulate_ms(graph);
                let mut cache = self.cache.lock().expect("simulator cache poisoned");
                if cache.len() >= MEASUREMENT_CACHE_CAP {
                    cache.clear();
                }
                cache.insert(key, ms);
                ms
            }
        };
        let hits = xrlflow_obs::counter!("cost/simulator/memo_hit").get();
        let misses = xrlflow_obs::counter!("cost/simulator/memo_miss").get();
        if hits + misses > 0 {
            xrlflow_obs::gauge!("cost/simulator/memo_hit_ratio").set(hits as f64 / (hits + misses) as f64);
        }
        let mut ms = base_ms;
        if self.config.noise_std > 0.0 {
            ms *= 1.0 + self.config.noise_std * hash_noise(key, seed);
        }
        ms
    }

    /// Number of distinct graphs whose deterministic latency is memoised.
    pub fn cached_measurements(&self) -> usize {
        self.cache.lock().expect("simulator cache poisoned").len()
    }

    /// The uncached deterministic simulation (no measurement noise).
    fn simulate_ms(&self, graph: &Graph) -> f64 {
        let mut total_us = 0.0;
        for (id, node) in graph.iter() {
            if !self.launches(graph, id, node) {
                continue;
            }
            let mut us = node_compute_us(graph, id, &self.profile);
            if self.config.kernel_effects {
                us *= kernel_perturbation(&self.profile, node);
            }
            if self.config.launch_overhead {
                us += self.profile.kernel_launch_us;
            }
            total_us += us;
        }
        total_us / 1000.0
    }

    /// Mean and standard deviation of latency over `repeats` measurements
    /// (mirrors the paper's protocol of five repetitions per data point).
    pub fn measure_repeated_ms(&self, graph: &Graph, repeats: usize, base_seed: u64) -> (f64, f64) {
        assert!(repeats > 0, "repeats must be positive");
        let samples: Vec<f64> =
            (0..repeats).map(|i| self.measure_ms(graph, base_seed.wrapping_add(i as u64))).collect();
        let mean = samples.iter().sum::<f64>() / repeats as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / repeats as f64;
        (mean, var.sqrt())
    }

    /// Number of kernels actually launched (non-source, non-folded nodes).
    pub fn launched_kernels(&self, graph: &Graph) -> usize {
        graph.iter().filter(|(id, node)| self.launches(graph, *id, node)).count()
    }

    /// Whether a node runs as a kernel at inference time: sources never do,
    /// and constant folding pre-computes what no graph input reaches
    /// (answered from the graph's memoised structure index).
    fn launches(&self, graph: &Graph, id: NodeId, node: &Node) -> bool {
        let folded = self.config.constant_folding && graph.is_foldable(id);
        !(node.op.is_source() || folded)
    }
}

/// Standard-normal-ish noise in `[-3, 3]` derived from the graph's canonical
/// hash and a seed (sum of uniform draws, Irwin–Hall approximation).
fn hash_noise(graph_hash: u64, seed: u64) -> f64 {
    let mut state = graph_hash ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut sum = 0.0;
    for _ in 0..12 {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let u = (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f64 / (1u64 << 24) as f64;
        sum += u;
    }
    sum - 6.0
}

/// One row of the paper's Table 1: cost-model estimate vs end-to-end latency.
#[derive(Debug, Clone, PartialEq)]
pub struct Discrepancy {
    /// Name of the workload.
    pub name: String,
    /// Cost-model estimate in milliseconds.
    pub cost_model_ms: f64,
    /// Simulated end-to-end latency in milliseconds.
    pub e2e_ms: f64,
}

impl Discrepancy {
    /// Relative difference in percent, `|e2e - cost| / e2e * 100`.
    pub fn diff_percent(&self) -> f64 {
        if self.e2e_ms == 0.0 {
            0.0
        } else {
            (self.e2e_ms - self.cost_model_ms).abs() / self.e2e_ms * 100.0
        }
    }
}

/// Computes the Table 1 discrepancy between the cost model and the simulator
/// for a named graph.
pub fn discrepancy(
    name: &str,
    graph: &Graph,
    cost_model: &CostModel,
    simulator: &InferenceSimulator,
) -> Discrepancy {
    Discrepancy {
        name: name.to_string(),
        cost_model_ms: cost_model.graph_cost_ms(graph),
        e2e_ms: simulator.measure_ms(graph, 0),
    }
}

/// Counts how many operators of each kind contribute to a graph's cost
/// (useful for reports and for the Figure 5 analysis).
pub fn cost_breakdown(graph: &Graph, cost_model: &CostModel) -> Vec<(OpKind, f64)> {
    let mut per_kind: std::collections::BTreeMap<OpKind, f64> = Default::default();
    for (id, node) in graph.iter() {
        if node.op.is_source() {
            continue;
        }
        *per_kind.entry(node.op).or_insert(0.0) += cost_model.node_cost_ms(graph, id);
    }
    per_kind.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
    use xrlflow_graph::{OpAttributes, TensorShape};

    fn simulator() -> InferenceSimulator {
        InferenceSimulator::new(DeviceProfile::gtx1080())
    }

    #[test]
    fn e2e_exceeds_cost_model_due_to_launch_overhead() {
        let g = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
        let cm = CostModel::new(DeviceProfile::gtx1080());
        let sim = simulator();
        let d = discrepancy("SqueezeNet", &g, &cm, &sim);
        assert!(d.cost_model_ms > 0.0);
        assert!(d.e2e_ms > 0.0);
        assert!(d.diff_percent() > 1.0, "expected a visible discrepancy, got {}", d.diff_percent());
    }

    #[test]
    fn discrepancy_in_papers_range_for_eval_models() {
        // Table 1 reports 5-24%; we only require the discrepancy to be
        // non-trivial and bounded.
        let cm = CostModel::new(DeviceProfile::gtx1080());
        let sim = simulator();
        for kind in [ModelKind::Bert, ModelKind::InceptionV3, ModelKind::SqueezeNet] {
            let g = build_model(kind, ModelScale::Bench).unwrap();
            let d = discrepancy(kind.name(), &g, &cm, &sim);
            assert!(
                d.diff_percent() > 1.0 && d.diff_percent() < 95.0,
                "{kind}: discrepancy {}% out of plausible range",
                d.diff_percent()
            );
        }
    }

    #[test]
    fn constant_folding_reduces_latency() {
        // A graph with a weight-only subgraph should get faster when folding
        // is enabled (but its cost-model estimate is oblivious).
        let mut g = Graph::new();
        let x = g.add_input(TensorShape::new(vec![1, 256]));
        let w1 = g.add_weight(TensorShape::new(vec![256, 256]));
        let w2 = g.add_weight(TensorShape::new(vec![256, 256]));
        // Foldable chain: w1 x w2.
        let fold = g.add_node(OpKind::MatMul, OpAttributes::default(), vec![w1.into(), w2.into()]).unwrap();
        let live = g.add_node(OpKind::MatMul, OpAttributes::default(), vec![x.into(), fold.into()]).unwrap();
        g.mark_output(live.into());

        let with_folding = simulator();
        let without_folding = InferenceSimulator::with_config(
            DeviceProfile::gtx1080(),
            SimulatorConfig { constant_folding: false, ..SimulatorConfig::default() },
        );
        assert!(with_folding.measure_ms(&g, 0) < without_folding.measure_ms(&g, 0));
        assert_eq!(with_folding.launched_kernels(&g), 1);
        assert_eq!(without_folding.launched_kernels(&g), 2);
    }

    #[test]
    fn repeated_measurements_have_small_spread() {
        let g = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
        let sim = simulator();
        let (mean, std) = sim.measure_repeated_ms(&g, 5, 42);
        assert!(mean > 0.0);
        assert!(std / mean < 0.1, "noise too large: {std} vs {mean}");
    }

    #[test]
    fn identical_graphs_measure_identically() {
        let g = build_model(ModelKind::Bert, ModelScale::Bench).unwrap();
        let sim = simulator();
        assert_eq!(sim.measure_ms(&g, 7), sim.measure_ms(&g.clone(), 7));
    }

    #[test]
    fn memoization_hits_for_identical_graphs_and_matches_uncached() {
        let g = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
        let sim = simulator();
        let first = sim.measure_ms(&g, 3);
        assert_eq!(sim.cached_measurements(), 1);
        // Structurally identical clone: served from the memo, same value.
        let second = sim.measure_ms(&g.clone(), 3);
        assert_eq!(sim.cached_measurements(), 1, "clone must hit the memo");
        assert_eq!(first, second);
        // The memoised value agrees with a cold simulator.
        let cold = simulator();
        assert_eq!(cold.measure_ms(&g, 3), first);
        // Different seeds draw fresh noise on top of the same memoised base.
        assert_ne!(sim.measure_ms(&g, 4), first);
        assert_eq!(sim.cached_measurements(), 1);
    }

    #[test]
    fn memoization_invalidates_on_graph_change() {
        let g = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
        let sim = simulator();
        let before = sim.measure_ms(&g, 0);
        // Change the graph: a memoised entry for the old hash must not leak.
        let mut changed = g.clone();
        let out = changed.outputs()[0];
        let relu = changed.add_node(OpKind::Relu, OpAttributes::default(), vec![out]).unwrap();
        changed.mark_output(relu.into());
        let after = sim.measure_ms(&changed, 0);
        assert_eq!(sim.cached_measurements(), 2, "changed graph must get its own entry");
        assert_ne!(before, after);
        assert_eq!(
            after,
            simulator().measure_ms(&changed, 0),
            "memo must not corrupt the changed measurement"
        );
    }

    #[test]
    fn cloned_simulator_keeps_the_memo_warm() {
        let g = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
        let sim = simulator();
        let v = sim.measure_ms(&g, 1);
        let cloned = sim.clone();
        assert_eq!(cloned.cached_measurements(), 1);
        assert_eq!(cloned.measure_ms(&g, 1), v);
    }

    #[test]
    fn cost_breakdown_sums_to_graph_cost() {
        let g = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
        let cm = CostModel::new(DeviceProfile::gtx1080());
        let breakdown = cost_breakdown(&g, &cm);
        let total: f64 = breakdown.iter().map(|(_, c)| c).sum();
        assert!((total - cm.graph_cost_ms(&g)).abs() < 1e-9);
        assert!(breakdown.iter().any(|(k, _)| *k == OpKind::Conv2d));
    }

    #[test]
    fn fewer_kernels_is_faster_all_else_equal() {
        // Removing an elementwise op (e.g. by fusing it) must reduce simulated latency.
        let mut g1 = Graph::new();
        let x = g1.add_input(TensorShape::new(vec![1, 1024]));
        let w = g1.add_weight(TensorShape::new(vec![1024, 1024]));
        let mm = g1.add_node(OpKind::MatMul, OpAttributes::default(), vec![x.into(), w.into()]).unwrap();
        let relu = g1.add_node(OpKind::Relu, OpAttributes::default(), vec![mm.into()]).unwrap();
        g1.mark_output(relu.into());

        let mut g2 = Graph::new();
        let x = g2.add_input(TensorShape::new(vec![1, 1024]));
        let w = g2.add_weight(TensorShape::new(vec![1024, 1024]));
        let mm = g2.add_node(OpKind::MatMul, OpAttributes::default(), vec![x.into(), w.into()]).unwrap();
        g2.mark_output(mm.into());

        let sim = simulator();
        assert!(sim.measure_ms(&g2, 0) < sim.measure_ms(&g1, 0));
    }
}
