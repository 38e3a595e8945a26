//! A PET-style baseline: partially equivalent transformations with
//! correction kernels, searched greedily under a cost model that ignores
//! element-wise operators.
//!
//! PET (Wang et al., OSDI 2021) relaxes TASO's full-equivalence requirement:
//! a substitution may compute only part of the output (e.g. over a reshaped
//! batch or a sub-window), with automatically generated correction kernels
//! restoring equivalence. The paper's Table 2 observes two behaviours this
//! module reproduces:
//!
//! * PET's benefit is very sensitive to operator shapes — its
//!   partially-equivalent transforms apply to plain convolutions
//!   (ResNet-18) but not to grouped convolutions (ResNeXt-50);
//! * PET ignores element-wise operator runtime in its cost model, so its
//!   ranking can be over-optimistic about the cost of the correction
//!   kernels it introduces.

use xrlflow_cost::{CostModel, DeviceProfile};
use xrlflow_graph::{Graph, GraphError, NodeId, OpAttributes, OpKind, Padding, PatchBuilder};
use xrlflow_rewrite::{
    input, is_parameter, Attrs, Emit, NodeTest, Pattern, RuleSet, Substitution, Target, Tensor::*,
};

use crate::search::{greedy_search, GreedyOptimizer, OptimizationResult, SearchConfig};

/// A partially equivalent transformation: a plain (ungrouped) 3x3 stride-1
/// convolution over an even spatial grid is computed over a half-resolution
/// slice and padded back, followed by a correction `Add`.
///
/// The transformed convolution performs a quarter of the work; the
/// correction kernels (structurally a multiply-add against correction
/// constants) are element-wise and therefore invisible to PET's cost model,
/// but they are *not* free at inference time — which is why PET's advantage
/// is shape- and architecture-dependent.
pub const PARTIALLY_EQUIVALENT_CONV: Substitution = Substitution {
    name: "pet-partial-conv",
    source: &[Pattern::Node(NodeTest { ops: &[OpKind::Conv2d], unfused: true })],
    guard: Some(plain_even_3x3_conv),
    target: Target::Template {
        emit: &[
            Emit::node(OpKind::Slice, Attrs::Fn(half_resolution), &[Input(0, 0)]),
            Emit::node(OpKind::Conv2d, Attrs::Of(0), &[New(0, 0), Input(0, 1)]),
            Emit::node(OpKind::Pad, Attrs::Fn(full_resolution), &[New(1, 0)]),
            Emit::ConstantLike(Bound(0)),
            Emit::node(OpKind::Mul, Attrs::Default, &[New(2, 0), New(3, 0)]),
            Emit::ConstantLike(Bound(0)),
            Emit::node(OpKind::Add, Attrs::Default, &[New(4, 0), New(5, 0)]),
        ],
        replace: &[(0, New(6, 0))],
    },
};

/// `[conv]` is an ungrouped 3x3 stride-1 convolution over a parameter weight
/// whose output grid is even and at least 8 rows high.
fn plain_even_3x3_conv(graph: &Graph, nodes: &[NodeId]) -> bool {
    let Ok(n) = graph.node(nodes[0]) else { return false };
    n.attrs.groups <= 1
        && n.attrs.kernel == Some([3, 3])
        && n.attrs.stride == Some([1, 1])
        && n.attrs.padding == Padding::Same
        && n.inputs.len() == 2
        && is_parameter(graph, n.inputs[1])
        && n.outputs[0].rank() == 4
        && n.outputs[0].dim(2) % 2 == 0
        && n.outputs[0].dim(3) % 2 == 0
        && n.outputs[0].dim(2) >= 8
}

/// The convolution's input at half its spatial resolution.
fn half_resolution(b: &PatchBuilder<'_>, nodes: &[NodeId]) -> Result<OpAttributes, GraphError> {
    let graph = b.base();
    let x = graph.tensor_shape(input(graph, nodes[0], 0)?)?;
    let half = vec![x.dim(0), x.dim(1), x.dim(2) / 2, x.dim(3) / 2];
    Ok(OpAttributes { target_shape: Some(half), ..Default::default() })
}

/// The convolution's own output shape.
fn full_resolution(b: &PatchBuilder<'_>, nodes: &[NodeId]) -> Result<OpAttributes, GraphError> {
    let out = b.base().node(nodes[0])?.outputs[0].dims().to_vec();
    Ok(OpAttributes { target_shape: Some(out), ..Default::default() })
}

/// A cost model in PET's style: identical to the TASO cost model except that
/// element-wise operators are assumed to be free.
#[derive(Debug, Clone, Default)]
pub struct ElementwiseBlindCostModel {
    inner: CostModel,
}

impl ElementwiseBlindCostModel {
    /// Creates the cost model for a device profile.
    pub fn new(profile: DeviceProfile) -> Self {
        Self { inner: CostModel::new(profile) }
    }

    /// Estimated graph cost in milliseconds, ignoring element-wise operators.
    pub fn graph_cost_ms(&self, graph: &Graph) -> f64 {
        graph
            .iter()
            .filter(|(_, n)| !n.op.is_elementwise())
            .map(|(id, _)| self.inner.node_cost_ms(graph, id))
            .sum()
    }

    /// Estimated cost of one node (zero for element-wise operators).
    pub fn node_cost_ms(&self, graph: &Graph, id: NodeId) -> f64 {
        match graph.node(id) {
            Ok(n) if n.op.is_elementwise() => 0.0,
            Ok(_) => self.inner.node_cost_ms(graph, id),
            Err(_) => 0.0,
        }
    }
}

/// The PET-style optimiser: greedy search over the standard rules plus the
/// partially equivalent convolution transform, ranked by the
/// element-wise-blind cost model.
#[derive(Debug)]
pub struct PetOptimizer {
    profile: DeviceProfile,
    config: SearchConfig,
}

impl PetOptimizer {
    /// Creates a PET-style optimiser.
    pub fn new(profile: DeviceProfile, config: SearchConfig) -> Self {
        Self { profile, config }
    }

    /// The rule set used by PET: every standard rule plus the partially
    /// equivalent convolution transform.
    pub fn rules() -> RuleSet {
        let mut rules = xrlflow_rewrite::rules::standard_rules();
        rules.push(PARTIALLY_EQUIVALENT_CONV);
        RuleSet::new(rules)
    }

    /// Runs TASO's greedy search under the element-wise-blind cost model.
    /// The returned result's cost fields are computed with the *full* cost
    /// model so they are comparable with other optimisers.
    pub fn optimize(&self, graph: &Graph) -> OptimizationResult {
        let blind = ElementwiseBlindCostModel::new(self.profile.clone());
        let result = greedy_search(&Self::rules(), &self.config, graph, |g| blind.graph_cost_ms(g));
        let full = CostModel::new(self.profile.clone());
        OptimizationResult {
            initial_cost_ms: full.graph_cost_ms(graph),
            final_cost_ms: full.graph_cost_ms(&result.graph),
            ..result
        }
    }

    /// A TASO greedy optimiser with the same budget, for side-by-side
    /// comparisons (Table 2).
    pub fn taso_counterpart(&self) -> GreedyOptimizer {
        GreedyOptimizer::new(RuleSet::standard(), CostModel::new(self.profile.clone()), self.config.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrlflow_graph::models::{build_model, ModelKind, ModelScale};

    #[test]
    fn partial_conv_matches_plain_but_not_grouped_convs() {
        let resnet = build_model(ModelKind::ResNet18, ModelScale::Bench).unwrap();
        let resnext = build_model(ModelKind::ResNext50, ModelScale::Bench).unwrap();
        let rule = PARTIALLY_EQUIVALENT_CONV;
        let plain = rule.find_matches(&resnet).len();
        assert!(plain > 0, "expected partially-equivalent opportunities in ResNet-18");
        // ResNeXt's 3x3 convolutions are grouped and therefore unsupported.
        let grouped_3x3: Vec<_> = rule
            .find_matches(&resnext)
            .iter()
            .filter(|m| resnext.node(m.nodes[0]).unwrap().attrs.groups > 1)
            .cloned()
            .collect();
        assert!(grouped_3x3.is_empty());
    }

    #[test]
    fn partial_conv_apply_is_valid_and_cheaper_under_blind_model() {
        let g = build_model(ModelKind::ResNet18, ModelScale::Bench).unwrap();
        let rule = PARTIALLY_EQUIVALENT_CONV;
        let matches = rule.find_matches(&g);
        let out = g.apply_patch(&rule.build_patch(&g, &matches[0]).unwrap()).unwrap();
        assert!(out.validate().is_ok());
        let blind = ElementwiseBlindCostModel::new(DeviceProfile::gtx1080());
        assert!(blind.graph_cost_ms(&out) < blind.graph_cost_ms(&g));
    }

    #[test]
    fn blind_cost_model_ignores_elementwise() {
        let g = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
        let blind = ElementwiseBlindCostModel::new(DeviceProfile::gtx1080());
        let full = CostModel::new(DeviceProfile::gtx1080());
        assert!(blind.graph_cost_ms(&g) < full.graph_cost_ms(&g));
        let relu = g.iter().find(|(_, n)| n.op == OpKind::Relu).unwrap().0;
        assert_eq!(blind.node_cost_ms(&g, relu), 0.0);
    }

    #[test]
    fn pet_optimizer_runs_on_resnet18() {
        let g = build_model(ModelKind::ResNet18, ModelScale::Bench).unwrap();
        let pet =
            PetOptimizer::new(DeviceProfile::gtx1080(), SearchConfig { budget: 15, max_candidates: 32 });
        let result = pet.optimize(&g);
        assert!(result.graph.validate().is_ok());
        assert!(result.steps > 0);
    }
}
