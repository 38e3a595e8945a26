//! The Tensat baseline: equality saturation over the e-graph followed by
//! cost-based extraction.
//!
//! Tensat applies rewrite rules *non-destructively*: every rule application
//! adds e-nodes and unions e-classes, so the e-graph represents many
//! equivalent graphs at once. Saturation is bounded by a node limit and an
//! iteration limit (the paper notes the e-graph is never truly saturated in
//! practice), after which the cheapest graph under a per-node cost model is
//! extracted. Because extraction needs per-node costs, Tensat cannot use
//! end-to-end latency as its signal — one of the motivations for X-RLflow.

use std::time::Instant;

use xrlflow_cost::{node_compute_us, DeviceProfile};
use xrlflow_graph::{FusedActivation, Graph, OpAttributes, OpKind, TensorRef, TensorShape};

use crate::egraph::{ClassId, EGraph, EGraphError, ENode};

/// Bounds of one equality-saturation run.
struct Limits {
    /// Maximum number of e-nodes before saturation stops.
    nodes: usize,
    /// Maximum number of saturation iterations.
    iterations: usize,
    /// Maximum applications of the "multi-pattern" growth rules
    /// (re-association) per iteration, Tensat's `k`.
    multi_pattern: usize,
}

/// Tensat's bounds: the paper's 10,000-e-node cap, 10 iterations and
/// Tensat's default `k = 1`.
const LIMITS: Limits = Limits { nodes: 10_000, iterations: 10, multi_pattern: 1 };

/// Result of a Tensat optimisation run.
#[derive(Debug, Clone)]
pub struct TensatResult {
    /// The extracted graph.
    pub graph: Graph,
    /// Whether the e-graph saturated before hitting a limit.
    pub saturated: bool,
    /// Number of saturation iterations performed.
    pub iterations: usize,
    /// Final number of e-classes.
    pub num_classes: usize,
    /// Final number of e-nodes.
    pub num_nodes: usize,
    /// Wall-clock optimisation time in seconds.
    pub optimisation_time_s: f64,
}

/// The Tensat-style equality-saturation optimiser.
#[derive(Debug, Clone, Default)]
pub struct TensatOptimizer {
    profile: DeviceProfile,
}

impl TensatOptimizer {
    /// Creates an optimiser that extracts under the given device profile.
    pub fn new(profile: DeviceProfile) -> Self {
        Self { profile }
    }

    /// Runs equality saturation and extraction on a graph.
    ///
    /// # Errors
    ///
    /// Returns [`EGraphError::Unsupported`] when the graph contains operators
    /// the e-graph representation cannot express (Tensat's conversion filter).
    pub fn optimize(&self, graph: &Graph) -> Result<TensatResult, EGraphError> {
        self.saturate(graph, LIMITS)
    }

    fn saturate(&self, graph: &Graph, limits: Limits) -> Result<TensatResult, EGraphError> {
        let start = Instant::now();
        let mut eg = EGraph::from_graph(graph)?;
        let mut saturated = false;
        let mut iterations = 0;

        for _ in 0..limits.iterations {
            iterations += 1;
            let changed = apply_rewrites(&mut eg, limits.multi_pattern);
            eg.rebuild();
            if !changed {
                saturated = true;
                break;
            }
            if eg.num_nodes() > limits.nodes {
                break;
            }
        }

        let profile = self.profile.clone();
        let extracted = eg.extract(|node, child_shapes, out_shape| {
            enode_cost_us(node, child_shapes, out_shape, &profile)
        })?;
        Ok(TensatResult {
            num_classes: eg.num_classes(),
            num_nodes: eg.num_nodes(),
            graph: extracted,
            saturated,
            iterations,
            optimisation_time_s: start.elapsed().as_secs_f64(),
        })
    }
}

/// Applies one round of every rewrite to the e-graph, re-associating at most
/// `multi_pattern_limit` times. Returns whether the e-graph changed.
fn apply_rewrites(eg: &mut EGraph, multi_pattern_limit: usize) -> bool {
    let mut changed = false;
    changed |= fuse_activation(eg, OpKind::Conv2d);
    changed |= fuse_activation(eg, OpKind::MatMul);
    changed |= fuse_conv_batchnorm(eg);
    changed |= fuse_bias_add(eg);
    changed |= eliminate_pass_through(eg);
    changed |= eliminate_transpose_pair(eg);
    changed |= reassociate_matmul(eg, multi_pattern_limit);
    changed
}

/// Per-e-node cost in microseconds, computed by materialising the operator in
/// a throwaway graph and reusing the analytical cost model.
fn enode_cost_us(
    node: &ENode,
    child_shapes: &[TensorShape],
    _out_shape: &TensorShape,
    profile: &DeviceProfile,
) -> f64 {
    if node.op.is_source() {
        return 0.0;
    }
    let mut g = Graph::new();
    let inputs: Vec<TensorRef> =
        child_shapes.iter().map(|s| TensorRef::new(g.add_input(s.clone()))).collect();
    match g.add_node(node.op, node.attrs.clone(), inputs) {
        Ok(id) => node_compute_us(&g, id, profile),
        // Unrepresentable combinations are heavily penalised so extraction
        // never chooses them.
        Err(_) => 1e12,
    }
}

fn fusable_activation(op: OpKind) -> Option<FusedActivation> {
    match op {
        OpKind::Relu => Some(FusedActivation::Relu),
        OpKind::Sigmoid => Some(FusedActivation::Sigmoid),
        OpKind::Tanh => Some(FusedActivation::Tanh),
        OpKind::Gelu => Some(FusedActivation::Gelu),
        _ => None,
    }
}

/// `act(producer(x)) == producer_with_fused_act(x)`.
fn fuse_activation(eg: &mut EGraph, producer: OpKind) -> bool {
    let mut additions: Vec<(ENode, TensorShape, ClassId)> = Vec::new();
    for (cid, class) in eg.iter_classes() {
        for node in &class.nodes {
            let Some(act) = fusable_activation(node.op) else { continue };
            let Some(&child) = node.children.first() else { continue };
            for inner in &eg.class(child).nodes {
                if inner.op == producer && inner.attrs.fused_activation.is_none() {
                    let fused = ENode {
                        op: inner.op,
                        attrs: inner.attrs.clone().with_fused_activation(act),
                        children: inner.children.clone(),
                        source_shape: None,
                        source_id: None,
                    };
                    additions.push((fused, class.shape.clone(), cid));
                }
            }
        }
    }
    apply_additions(eg, additions)
}

/// `BatchNorm(Conv(x)) == Conv'(x)` (folding the affine transform).
fn fuse_conv_batchnorm(eg: &mut EGraph) -> bool {
    let mut unions: Vec<(ClassId, ClassId)> = Vec::new();
    for (cid, class) in eg.iter_classes() {
        for node in &class.nodes {
            if node.op != OpKind::BatchNorm {
                continue;
            }
            let Some(&child) = node.children.first() else { continue };
            if eg.class(child).shape != class.shape {
                continue;
            }
            if eg.class(child).nodes.iter().any(|n| n.op == OpKind::Conv2d) {
                unions.push((cid, child));
            }
        }
    }
    apply_unions(eg, unions)
}

/// `Add(MatMul(x, w), bias) == MatMul'(x, w)` when `bias` is a parameter and
/// broadcasting does not change the shape.
fn fuse_bias_add(eg: &mut EGraph) -> bool {
    let mut unions: Vec<(ClassId, ClassId)> = Vec::new();
    for (cid, class) in eg.iter_classes() {
        for node in &class.nodes {
            if node.op != OpKind::Add || node.children.len() != 2 {
                continue;
            }
            for (main, bias) in [(0, 1), (1, 0)] {
                let main_class = node.children[main];
                let bias_class = node.children[bias];
                let main_is_compute = eg
                    .class(main_class)
                    .nodes
                    .iter()
                    .any(|n| matches!(n.op, OpKind::MatMul | OpKind::Conv2d));
                let bias_is_param = eg
                    .class(bias_class)
                    .nodes
                    .iter()
                    .any(|n| matches!(n.op, OpKind::Weight | OpKind::Constant));
                if main_is_compute && bias_is_param && eg.class(main_class).shape == class.shape {
                    unions.push((cid, main_class));
                }
            }
        }
    }
    apply_unions(eg, unions)
}

/// `Identity(x) == x`, `Dropout(x) == x` (inference).
fn eliminate_pass_through(eg: &mut EGraph) -> bool {
    let mut unions: Vec<(ClassId, ClassId)> = Vec::new();
    for (cid, class) in eg.iter_classes() {
        for node in &class.nodes {
            if matches!(node.op, OpKind::Identity | OpKind::Dropout | OpKind::Cast) {
                if let Some(&child) = node.children.first() {
                    if eg.class(child).shape == class.shape {
                        unions.push((cid, child));
                    }
                }
            }
        }
    }
    apply_unions(eg, unions)
}

/// `Transpose_q(Transpose_p(x)) == x` when `q ∘ p` is the identity.
fn eliminate_transpose_pair(eg: &mut EGraph) -> bool {
    let mut unions: Vec<(ClassId, ClassId)> = Vec::new();
    for (cid, class) in eg.iter_classes() {
        for node in &class.nodes {
            if node.op != OpKind::Transpose {
                continue;
            }
            let Some(ref q) = node.attrs.perm else { continue };
            let Some(&child) = node.children.first() else { continue };
            for inner in &eg.class(child).nodes {
                if inner.op != OpKind::Transpose {
                    continue;
                }
                let Some(ref p) = inner.attrs.perm else { continue };
                if p.len() == q.len() && (0..p.len()).all(|i| p[q[i]] == i) {
                    let Some(&grandchild) = inner.children.first() else { continue };
                    if eg.class(grandchild).shape == class.shape {
                        unions.push((cid, grandchild));
                    }
                }
            }
        }
    }
    apply_unions(eg, unions)
}

/// `(A·B)·C == A·(B·C)` — Tensat's growth-prone "multi-pattern" rule, limited
/// to `limit` applications per saturation iteration.
fn reassociate_matmul(eg: &mut EGraph, limit: usize) -> bool {
    let mut additions: Vec<(ENode, ENode, TensorShape, TensorShape, ClassId)> = Vec::new();
    'outer: for (cid, class) in eg.iter_classes() {
        for node in &class.nodes {
            if node.op != OpKind::MatMul || node.attrs.fused_activation.is_some() {
                continue;
            }
            if node.children.len() != 2 {
                continue;
            }
            let (ab_class, c_class) = (node.children[0], node.children[1]);
            if eg.class(c_class).shape.rank() != 2 {
                continue;
            }
            for inner in &eg.class(ab_class).nodes {
                if inner.op != OpKind::MatMul
                    || inner.attrs.fused_activation.is_some()
                    || inner.children.len() != 2
                {
                    continue;
                }
                let (a_class, b_class) = (inner.children[0], inner.children[1]);
                let b_shape = eg.class(b_class).shape.clone();
                let c_shape = eg.class(c_class).shape.clone();
                if b_shape.rank() != 2 {
                    continue;
                }
                // B·C has shape [b_rows, c_cols].
                let bc_shape = TensorShape::new(vec![b_shape.dim(0), c_shape.dim(1)]);
                let bc = ENode {
                    op: OpKind::MatMul,
                    attrs: OpAttributes::default(),
                    children: vec![b_class, c_class],
                    source_shape: None,
                    source_id: None,
                };
                let outer_shape = class.shape.clone();
                let a_bc = ENode {
                    op: OpKind::MatMul,
                    attrs: OpAttributes::default(),
                    children: vec![a_class, ClassId(usize::MAX)], // patched after bc is added
                    source_shape: None,
                    source_id: None,
                };
                additions.push((bc, a_bc, bc_shape, outer_shape, cid));
                if additions.len() >= limit {
                    break 'outer;
                }
            }
        }
    }
    let mut changed = false;
    for (bc, mut a_bc, bc_shape, outer_shape, target) in additions {
        let bc_class = eg.add(bc, bc_shape);
        a_bc.children[1] = bc_class;
        let new_class = eg.add(a_bc, outer_shape);
        let (_, did) = eg.union(target, new_class);
        changed |= did;
    }
    changed
}

fn apply_additions(eg: &mut EGraph, additions: Vec<(ENode, TensorShape, ClassId)>) -> bool {
    let mut changed = false;
    for (node, shape, target) in additions {
        let new_class = eg.add(node, shape);
        let (_, did) = eg.union(target, new_class);
        changed |= did;
    }
    changed
}

fn apply_unions(eg: &mut EGraph, unions: Vec<(ClassId, ClassId)>) -> bool {
    let mut changed = false;
    for (a, b) in unions {
        let (_, did) = eg.union(a, b);
        changed |= did;
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrlflow_cost::{CostModel, InferenceSimulator};
    use xrlflow_graph::models::{build_model, ModelKind, ModelScale};

    #[test]
    fn tensat_reduces_cost_on_conv_nets() {
        let g = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
        let tensat = TensatOptimizer::new(DeviceProfile::gtx1080());
        let result = tensat.optimize(&g).unwrap();
        assert!(result.graph.validate().is_ok());
        let cm = CostModel::new(DeviceProfile::gtx1080());
        assert!(
            cm.graph_cost_ms(&result.graph) <= cm.graph_cost_ms(&g),
            "Tensat must not regress the cost model"
        );
        // Fusion should have removed stand-alone activations or normalisations.
        assert!(result.graph.num_nodes() < g.num_nodes());
    }

    #[test]
    fn tensat_improves_e2e_latency_on_bert() {
        let g = build_model(ModelKind::Bert, ModelScale::Bench).unwrap();
        let tensat = TensatOptimizer::new(DeviceProfile::gtx1080());
        let result = tensat.optimize(&g).unwrap();
        assert!(result.graph.validate().is_ok());
        let sim = InferenceSimulator::new(DeviceProfile::gtx1080());
        assert!(sim.measure_ms(&result.graph, 0) < sim.measure_ms(&g, 0));
    }

    #[test]
    fn saturation_respects_iteration_limit() {
        let g = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
        let tensat = TensatOptimizer::new(DeviceProfile::gtx1080());
        let result = tensat.saturate(&g, Limits { iterations: 1, ..LIMITS }).unwrap();
        assert_eq!(result.iterations, 1);
    }

    #[test]
    fn node_limit_stops_growth() {
        let g = build_model(ModelKind::Bert, ModelScale::Bench).unwrap();
        let tensat = TensatOptimizer::new(DeviceProfile::gtx1080());
        // Must terminate promptly and still produce a valid graph.
        let result = tensat.saturate(&g, Limits { nodes: 10, iterations: 50, multi_pattern: 8 }).unwrap();
        assert!(result.graph.validate().is_ok());
        assert!(result.iterations < 50);
    }

    #[test]
    fn enode_cost_is_zero_for_sources_and_positive_for_compute() {
        let profile = DeviceProfile::gtx1080();
        let source = ENode {
            op: OpKind::Weight,
            attrs: OpAttributes::default(),
            children: vec![],
            source_shape: Some(TensorShape::new(vec![64, 64])),
            source_id: Some(0),
        };
        assert_eq!(enode_cost_us(&source, &[], &TensorShape::new(vec![64, 64]), &profile), 0.0);
        let mm = ENode {
            op: OpKind::MatMul,
            attrs: OpAttributes::default(),
            children: vec![ClassId(0), ClassId(1)],
            source_shape: None,
            source_id: None,
        };
        let cost = enode_cost_us(
            &mm,
            &[TensorShape::new(vec![64, 64]), TensorShape::new(vec![64, 64])],
            &TensorShape::new(vec![64, 64]),
            &profile,
        );
        assert!(cost > 0.0);
    }
}
