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
use xrlflow_graph::{
    Graph, GraphError, GraphPatch, NodeId, OpAttributes, OpKind, Padding, PatchBuilder, TensorRef,
};
use xrlflow_rewrite::{is_parameter, RewriteRule, RuleMatch, RuleSet};

use crate::search::{greedy_search, GreedyOptimizer, OptimizationResult, SearchConfig};

/// A partially equivalent transformation: a plain (ungrouped) 3x3 stride-1
/// convolution over an even spatial grid is computed over a half-resolution
/// slice and padded back, followed by a correction `Add`.
///
/// The transformed convolution performs a quarter of the work; the
/// correction kernels are element-wise and therefore invisible to PET's
/// cost model, but they are *not* free at inference time — which is why
/// PET's advantage is shape- and architecture-dependent.
#[derive(Debug, Clone, Default)]
pub struct PartiallyEquivalentConv;

impl RewriteRule for PartiallyEquivalentConv {
    fn name(&self) -> &'static str {
        "pet-partial-conv"
    }

    fn find_matches(&self, graph: &Graph) -> Vec<RuleMatch> {
        graph
            .iter()
            .filter(|(_, n)| {
                n.op == OpKind::Conv2d
                    && n.attrs.groups <= 1
                    && n.attrs.kernel == Some([3, 3])
                    && n.attrs.stride == Some([1, 1])
                    && n.attrs.padding == Padding::Same
                    && n.attrs.fused_activation.is_none()
                    && n.inputs.len() == 2
                    && is_parameter(graph, n.inputs[1])
                    && n.outputs[0].rank() == 4
                    && n.outputs[0].dim(2) % 2 == 0
                    && n.outputs[0].dim(3) % 2 == 0
                    && n.outputs[0].dim(2) >= 8
            })
            .map(|(id, _)| RuleMatch::new(vec![id]))
            .collect()
    }

    fn build_patch(&self, graph: &Graph, site: &RuleMatch) -> Result<GraphPatch, GraphError> {
        let [conv_id] = site.expect_nodes();
        let conv = graph.node(conv_id)?;
        let input_ref = conv.inputs[0];
        let weight_ref = conv.inputs[1];
        let in_shape = graph.tensor_shape(input_ref)?;
        let out_shape = conv.outputs[0].clone();
        let mut pb = PatchBuilder::new(graph);

        // Slice the input to half resolution, convolve, pad back and correct.
        let half_in = vec![in_shape.dim(0), in_shape.dim(1), in_shape.dim(2) / 2, in_shape.dim(3) / 2];
        let slice = pb.add_node(
            OpKind::Slice,
            OpAttributes { target_shape: Some(half_in), ..Default::default() },
            vec![input_ref.into()],
        )?;
        let small_conv =
            pb.add_node(OpKind::Conv2d, conv.attrs.clone(), vec![slice.into(), weight_ref.into()])?;
        let pad = pb.add_node(
            OpKind::Pad,
            OpAttributes { target_shape: Some(out_shape.dims().to_vec()), ..Default::default() },
            vec![small_conv.into()],
        )?;
        // Correction kernels: element-wise operators restoring the missing
        // output region (structurally modelled as a multiply-add against
        // correction constants).
        let correction = pb.add_constant(out_shape.clone());
        let corrected =
            pb.add_node(OpKind::Mul, OpAttributes::default(), vec![pad.into(), correction.into()])?;
        let residual = pb.add_constant(out_shape);
        let fixed =
            pb.add_node(OpKind::Add, OpAttributes::default(), vec![corrected.into(), residual.into()])?;
        pb.replace_all_uses(TensorRef::new(conv_id), fixed)?;
        Ok(pb.finish())
    }
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
        rules.push(Box::new(PartiallyEquivalentConv));
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
        let rule = PartiallyEquivalentConv;
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
        let rule = PartiallyEquivalentConv;
        let matches = rule.find_matches(&g);
        let out = rule.apply(&g, &matches[0]).unwrap();
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
