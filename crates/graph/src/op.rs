//! Tensor operator vocabulary.
//!
//! The paper's environment one-hot encodes "around 40 different tensor
//! operators" as node attributes. This module defines that operator set,
//! together with the per-node attributes (kernel sizes, strides, axes, ...)
//! that the rewrite engine and the cost model need.

/// Activation function fused into a compute operator (TASO-style operator
/// fusion keeps the operator kind and records the fused epilogue here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FusedActivation {
    /// Rectified linear unit.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Gaussian error linear unit.
    Gelu,
}

impl FusedActivation {
    /// Lower-case name used by the JSON graph interchange.
    pub fn name(self) -> &'static str {
        match self {
            FusedActivation::Relu => "relu",
            FusedActivation::Sigmoid => "sigmoid",
            FusedActivation::Tanh => "tanh",
            FusedActivation::Gelu => "gelu",
        }
    }

    /// Parses a fused activation from its [`FusedActivation::name`] string.
    pub fn from_name(name: &str) -> Option<FusedActivation> {
        match name {
            "relu" => Some(FusedActivation::Relu),
            "sigmoid" => Some(FusedActivation::Sigmoid),
            "tanh" => Some(FusedActivation::Tanh),
            "gelu" => Some(FusedActivation::Gelu),
            _ => None,
        }
    }
}

/// Padding mode for convolution and pooling operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Padding {
    /// Output spatial size equals input size divided by stride (TF "SAME").
    #[default]
    Same,
    /// No implicit padding (TF "VALID").
    Valid,
}

impl Padding {
    /// Lower-case name used by the JSON graph interchange.
    pub fn name(self) -> &'static str {
        match self {
            Padding::Same => "same",
            Padding::Valid => "valid",
        }
    }

    /// Parses a padding mode from its [`Padding::name`] string.
    pub fn from_name(name: &str) -> Option<Padding> {
        match name {
            "same" => Some(Padding::Same),
            "valid" => Some(Padding::Valid),
            _ => None,
        }
    }
}

/// The operator kinds supported by the graph IR.
///
/// This mirrors the operator set TASO's generator enumerates (convolutions,
/// matrix multiplication, element-wise arithmetic, activations, tensor
/// layout operators) plus the transformer-era operators needed by BERT,
/// ViT, DALL-E and the Transformer-Transducer (layer norm, GELU, softmax,
/// batched matmul, embedding gather).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum OpKind {
    // Graph sources.
    Input,
    Weight,
    Constant,
    // Dense linear algebra.
    MatMul,
    BatchMatMul,
    Conv2d,
    DepthwiseConv2d,
    // Element-wise arithmetic.
    Add,
    Sub,
    Mul,
    Div,
    Pow,
    Sqrt,
    // Activations.
    Relu,
    LeakyRelu,
    Sigmoid,
    Tanh,
    Gelu,
    Erf,
    Softmax,
    // Normalisation.
    BatchNorm,
    LayerNorm,
    // Pooling.
    MaxPool2d,
    AvgPool2d,
    GlobalAvgPool,
    // Reductions.
    ReduceSum,
    ReduceMean,
    // Layout and structure.
    Concat,
    Split,
    Slice,
    Pad,
    Transpose,
    Reshape,
    Flatten,
    Squeeze,
    Unsqueeze,
    // Misc.
    Identity,
    Dropout,
    Cast,
    Gather,
    Embedding,
}

impl OpKind {
    /// All operator kinds, in a fixed order used for one-hot encoding.
    pub const ALL: &'static [OpKind] = &[
        OpKind::Input,
        OpKind::Weight,
        OpKind::Constant,
        OpKind::MatMul,
        OpKind::BatchMatMul,
        OpKind::Conv2d,
        OpKind::DepthwiseConv2d,
        OpKind::Add,
        OpKind::Sub,
        OpKind::Mul,
        OpKind::Div,
        OpKind::Pow,
        OpKind::Sqrt,
        OpKind::Relu,
        OpKind::LeakyRelu,
        OpKind::Sigmoid,
        OpKind::Tanh,
        OpKind::Gelu,
        OpKind::Erf,
        OpKind::Softmax,
        OpKind::BatchNorm,
        OpKind::LayerNorm,
        OpKind::MaxPool2d,
        OpKind::AvgPool2d,
        OpKind::GlobalAvgPool,
        OpKind::ReduceSum,
        OpKind::ReduceMean,
        OpKind::Concat,
        OpKind::Split,
        OpKind::Slice,
        OpKind::Pad,
        OpKind::Transpose,
        OpKind::Reshape,
        OpKind::Flatten,
        OpKind::Squeeze,
        OpKind::Unsqueeze,
        OpKind::Identity,
        OpKind::Dropout,
        OpKind::Cast,
        OpKind::Gather,
        OpKind::Embedding,
    ];

    /// Number of distinct operator kinds (the one-hot encoding width).
    pub fn count() -> usize {
        Self::ALL.len()
    }

    /// Index of this operator in [`OpKind::ALL`] (stable one-hot position).
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&k| k == self).expect("operator missing from OpKind::ALL")
    }

    /// Parses an operator kind from its [`OpKind::name`] string — the
    /// inverse used by the JSON graph interchange.
    pub fn from_name(name: &str) -> Option<OpKind> {
        Self::ALL.iter().copied().find(|op| op.name() == name)
    }

    /// Returns `true` for graph-source operators that carry no computation
    /// (inputs, weights and constants).
    pub fn is_source(self) -> bool {
        matches!(self, OpKind::Input | OpKind::Weight | OpKind::Constant)
    }

    /// Returns `true` for operators whose output does not depend on any
    /// runtime input and can therefore be pre-computed (constant folded)
    /// when all of their operands are weights/constants.
    pub fn is_foldable(self) -> bool {
        !matches!(self, OpKind::Input) && !self.is_source()
    }

    /// Returns `true` for element-wise operators (same output shape as the
    /// broadcast of their inputs, negligible arithmetic intensity).
    pub fn is_elementwise(self) -> bool {
        matches!(
            self,
            OpKind::Add
                | OpKind::Sub
                | OpKind::Mul
                | OpKind::Div
                | OpKind::Pow
                | OpKind::Sqrt
                | OpKind::Relu
                | OpKind::LeakyRelu
                | OpKind::Sigmoid
                | OpKind::Tanh
                | OpKind::Gelu
                | OpKind::Erf
                | OpKind::Identity
                | OpKind::Dropout
                | OpKind::Cast
        )
    }

    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Input => "Input",
            OpKind::Weight => "Weight",
            OpKind::Constant => "Constant",
            OpKind::MatMul => "MatMul",
            OpKind::BatchMatMul => "BatchMatMul",
            OpKind::Conv2d => "Conv2d",
            OpKind::DepthwiseConv2d => "DepthwiseConv2d",
            OpKind::Add => "Add",
            OpKind::Sub => "Sub",
            OpKind::Mul => "Mul",
            OpKind::Div => "Div",
            OpKind::Pow => "Pow",
            OpKind::Sqrt => "Sqrt",
            OpKind::Relu => "Relu",
            OpKind::LeakyRelu => "LeakyRelu",
            OpKind::Sigmoid => "Sigmoid",
            OpKind::Tanh => "Tanh",
            OpKind::Gelu => "Gelu",
            OpKind::Erf => "Erf",
            OpKind::Softmax => "Softmax",
            OpKind::BatchNorm => "BatchNorm",
            OpKind::LayerNorm => "LayerNorm",
            OpKind::MaxPool2d => "MaxPool2d",
            OpKind::AvgPool2d => "AvgPool2d",
            OpKind::GlobalAvgPool => "GlobalAvgPool",
            OpKind::ReduceSum => "ReduceSum",
            OpKind::ReduceMean => "ReduceMean",
            OpKind::Concat => "Concat",
            OpKind::Split => "Split",
            OpKind::Slice => "Slice",
            OpKind::Pad => "Pad",
            OpKind::Transpose => "Transpose",
            OpKind::Reshape => "Reshape",
            OpKind::Flatten => "Flatten",
            OpKind::Squeeze => "Squeeze",
            OpKind::Unsqueeze => "Unsqueeze",
            OpKind::Identity => "Identity",
            OpKind::Dropout => "Dropout",
            OpKind::Cast => "Cast",
            OpKind::Gather => "Gather",
            OpKind::Embedding => "Embedding",
        }
    }
}

impl std::fmt::Display for OpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-node operator attributes.
///
/// Only the fields relevant to a node's [`OpKind`] are meaningful; the rest
/// keep their defaults. The struct is deliberately flat (rather than an enum
/// per operator) so the rewrite pattern matcher can compare attributes
/// field-by-field.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OpAttributes {
    /// Convolution / pooling kernel size `[kh, kw]`.
    pub kernel: Option<[usize; 2]>,
    /// Convolution / pooling stride `[sh, sw]`.
    pub stride: Option<[usize; 2]>,
    /// Padding mode.
    pub padding: Padding,
    /// Number of convolution groups (grouped / ResNeXt-style convolutions).
    pub groups: usize,
    /// Axis for concat / split / softmax / reduction operators.
    pub axis: Option<usize>,
    /// Number of outputs for a `Split` node.
    pub num_splits: usize,
    /// Permutation for `Transpose`.
    pub perm: Option<Vec<usize>>,
    /// Target shape for `Reshape`.
    pub target_shape: Option<Vec<usize>>,
    /// Epsilon for normalisation operators.
    pub epsilon: f32,
    /// Activation fused into this operator's epilogue.
    pub fused_activation: Option<FusedActivation>,
    /// `true` when the rewrite engine has already marked this node as
    /// pre-computable (all transitive inputs are weights/constants).
    pub folded: bool,
}

/// Attributes participate in the graph's structural fingerprints
/// ([`crate::Graph::canonical_hash`], `GraphPatch::structural_hash`), which
/// run in the candidate-generation hot path — so hashing must not allocate.
/// `epsilon` is hashed by bit pattern, consistent with `PartialEq` for the
/// non-NaN constants it holds.
impl std::hash::Hash for OpAttributes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let Self {
            kernel,
            stride,
            padding,
            groups,
            axis,
            num_splits,
            perm,
            target_shape,
            epsilon,
            fused_activation,
            folded,
        } = self;
        kernel.hash(state);
        stride.hash(state);
        padding.hash(state);
        groups.hash(state);
        axis.hash(state);
        num_splits.hash(state);
        perm.hash(state);
        target_shape.hash(state);
        epsilon.to_bits().hash(state);
        fused_activation.hash(state);
        folded.hash(state);
    }
}

impl OpAttributes {
    /// Attributes for a 2-D convolution.
    pub fn conv2d(kernel: [usize; 2], stride: [usize; 2], padding: Padding, groups: usize) -> Self {
        Self { kernel: Some(kernel), stride: Some(stride), padding, groups, ..Default::default() }
    }

    /// Attributes for a pooling operator.
    pub fn pool(kernel: [usize; 2], stride: [usize; 2], padding: Padding) -> Self {
        Self { kernel: Some(kernel), stride: Some(stride), padding, ..Default::default() }
    }

    /// Attributes carrying only an axis (concat, softmax, reductions).
    pub fn with_axis(axis: usize) -> Self {
        Self { axis: Some(axis), ..Default::default() }
    }

    /// Attributes for a `Split` node producing `num_splits` outputs along `axis`.
    pub fn split(axis: usize, num_splits: usize) -> Self {
        Self { axis: Some(axis), num_splits, ..Default::default() }
    }

    /// Attributes for a `Reshape` node.
    pub fn reshape(target: Vec<usize>) -> Self {
        Self { target_shape: Some(target), ..Default::default() }
    }

    /// Attributes for a `Transpose` node.
    pub fn transpose(perm: Vec<usize>) -> Self {
        Self { perm: Some(perm), ..Default::default() }
    }

    /// Returns a copy with the given fused activation.
    pub fn with_fused_activation(mut self, act: FusedActivation) -> Self {
        self.fused_activation = Some(act);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_count_is_about_forty() {
        // The paper states "around 40 different tensor operators".
        let n = OpKind::count();
        assert!((38..=45).contains(&n), "expected ~40 operators, got {n}");
    }

    #[test]
    fn all_indices_are_unique_and_stable() {
        for (i, &op) in OpKind::ALL.iter().enumerate() {
            assert_eq!(op.index(), i);
        }
    }

    #[test]
    fn sources_are_not_elementwise() {
        assert!(OpKind::Input.is_source());
        assert!(OpKind::Weight.is_source());
        assert!(!OpKind::Input.is_elementwise());
        assert!(!OpKind::Input.is_foldable());
        assert!(OpKind::MatMul.is_foldable());
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(OpKind::Conv2d.to_string(), "Conv2d");
        assert_eq!(format!("{}", OpKind::BatchMatMul), "BatchMatMul");
    }

    #[test]
    fn attribute_constructors() {
        let a = OpAttributes::conv2d([3, 3], [1, 1], Padding::Same, 32);
        assert_eq!(a.kernel, Some([3, 3]));
        assert_eq!(a.groups, 32);
        let p = OpAttributes::pool([2, 2], [2, 2], Padding::Valid);
        assert_eq!(p.padding, Padding::Valid);
        let s = OpAttributes::split(1, 2);
        assert_eq!(s.num_splits, 2);
        let f = OpAttributes::default().with_fused_activation(FusedActivation::Relu);
        assert_eq!(f.fused_activation, Some(FusedActivation::Relu));
    }
}
