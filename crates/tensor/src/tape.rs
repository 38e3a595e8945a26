//! Reverse-mode automatic differentiation on a per-forward-pass tape.
//!
//! The X-RLflow agent rebuilds its computation graph on every forward pass
//! (the input dataflow graph changes at every environment step), so the
//! autodiff design is a *dynamic tape*: each call to [`Tape::new`] starts an
//! empty tape, operations append nodes, and [`Tape::backward_into`] walks the
//! tape in reverse accumulating gradients into a [`GradBuffer`].
//!
//! Each piece of state has one home. Parameter values live in the
//! [`ParamStore`] across forward passes (each pass imports them as leaves via
//! [`Tape::param`]); gradients live only in a [`GradBuffer`]; the optimiser's
//! step count and moments live only in [`Adam`], which steps the store from a
//! buffer. A store that is never trained — a served policy — holds its values
//! and nothing else.
//!
//! ## Storage
//!
//! A recycled tape replays the same op sequence, so it keeps its storage by
//! node position: the node recorded at position `i` refills the value
//! buffer position `i` kept from earlier passes (zeroed only where the op
//! accumulates into it), its reverse-walk arm builds its gradient
//! contributions and kernel scratch in buffers position `i` keeps for that,
//! and every index list goes into one per-pass list that [`Tape::recycle`]
//! clears. Taking and handing back a buffer is a move — no search, no pool
//! to grow: a position keeps the largest buffer a pass has needed there
//! (rounded up to a power of two, so a slightly larger pass still fits), and
//! a constant copies its values into that storage instead of lending the
//! tape a `Vec`. Once warm, a pass goes through `malloc` for nothing large.
//!
//! ## The reverse walk
//!
//! Training evaluates one tape per transition, so the walk is as hot as the
//! forward pass. Each node records when it is pushed whether a parameter is
//! reachable through its inputs; the walk computes a gradient contribution
//! only for such nodes (constants are never differentiated), owns each
//! node's incoming gradient and hands it on **by value** — transformed in
//! place where the op is element-wise, moved into an empty slot, added in
//! place (`g[i] + x[i]`) into a filled one, in reverse tape order. None of
//! this changes a bit: what is skipped was computed and dropped before, and
//! every contribution keeps its arithmetic and its place in the order.
//! [`Tape::gather_scatter_rows`] is the one fused index op — gather, per-row
//! scale and scatter-add in a single pass, forward and backward;
//! [`Tape::sum_row_runs`] sums *runs* of consecutive rows per segment without
//! any per-row index at all. There is no mean op: a mean is [`Tape::sum_all`]
//! followed by [`Tape::scale`].

use crate::snapshot::{check_layout, ParamSnapshot, SnapshotError};
use crate::tensor::{cleared, edge_dots, zeroed, Tensor};
use std::ops::Range;
use std::sync::Arc;

/// Identifier of a value on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(usize);

/// Rows `start..start + len` of a matrix, summed into output row `segment`
/// by [`Tape::sum_row_runs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowRun {
    /// The first row of the run.
    pub start: usize,
    /// How many consecutive rows it holds (zero is allowed).
    pub len: usize,
    /// The output row the run is summed into.
    pub segment: usize,
}

/// Persistent storage for trainable parameters: names and values, nothing
/// else (gradients live in a [`GradBuffer`], optimiser state in [`Adam`]).
#[derive(Debug, Clone, Default)]
pub struct ParamStore {
    entries: Vec<ParamEntry>,
}

#[derive(Debug, Clone)]
struct ParamEntry {
    name: String,
    /// `Arc`-backed so [`Tape::param`] imports the tensor as a shared leaf
    /// (one refcount bump) instead of deep-cloning it on every forward pass.
    /// Mutation never writes through a shared `Arc` ([`Adam::step`] writes
    /// in place only while the store is the sole owner), so outstanding tape
    /// leaves keep the value they imported.
    value: Arc<Tensor>,
}

/// Identifier of a parameter in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(usize);

/// A dense gradient accumulator detached from any [`ParamStore`]: one tensor
/// per registered parameter, in registration order.
///
/// This is the unit of the data-parallel PPO update's determinism contract:
/// each transition's loss is back-propagated into its own zero-initialised
/// buffer ([`Tape::backward_into`]) on whatever thread evaluated it, and the
/// trainer merges the buffers **by transition index** ([`GradBuffer::merge`]),
/// clips the merged buffer in place ([`GradBuffer::clip_norm`]) and steps the
/// store from it ([`Adam::step`]). Because every per-transition buffer starts
/// from zeros and the merge order is fixed, the merged gradient is
/// bit-identical no matter how many worker threads produced the pieces.
///
/// # Examples
///
/// ```
/// use xrlflow_tensor::{GradBuffer, ParamStore, Tape, Tensor};
///
/// let mut store = ParamStore::new();
/// let w = store.register("w", Tensor::from_vec(vec![3.0], &[1]));
///
/// // Two independent loss contributions, each into its own buffer.
/// let mut buffers = Vec::new();
/// for scale in [1.0f32, 2.0] {
///     let mut tape = Tape::new();
///     let wv = tape.param(&store, w);
///     let sq = tape.mul(wv, wv);
///     let loss = tape.scale(sq, scale); // d/dw = scale * 2w
///     let mut grads = GradBuffer::zeros_like(&store);
///     tape.backward_into(loss, &mut grads);
///     buffers.push(grads);
/// }
///
/// // Merge in index order.
/// let mut merged = GradBuffer::zeros_like(&store);
/// for buffer in &buffers {
///     merged.merge(buffer);
/// }
/// assert_eq!(merged.grad(w).item(), 6.0 + 12.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GradBuffer {
    grads: Vec<Tensor>,
}

impl GradBuffer {
    /// Creates a zero-filled buffer shaped like every parameter of `store`.
    pub fn zeros_like(store: &ParamStore) -> Self {
        Self { grads: store.entries.iter().map(|e| Tensor::zeros(e.value.shape())).collect() }
    }

    /// Number of parameter slots (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.grads.len()
    }

    /// Returns `true` when the buffer holds no parameter slots.
    pub fn is_empty(&self) -> bool {
        self.grads.is_empty()
    }

    /// The accumulated gradient of one parameter.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.grads[id.0]
    }

    /// Adds `grad` into the parameter's slot (what [`Tape::backward_into`]
    /// does with every parameter-gradient contribution).
    ///
    /// # Panics
    ///
    /// Panics when the shapes mismatch.
    pub fn accumulate(&mut self, id: ParamId, grad: &Tensor) {
        self.grads[id.0].add_assign(grad);
    }

    /// Adds every slot of `other` into this buffer, element-wise, in
    /// parameter-registration order — the ordered-merge primitive of the
    /// data-parallel update. `merge` is deliberately *not* commutative at the
    /// bit level (f32 addition is order-sensitive), so callers must merge
    /// shards in a fixed index order, never completion order.
    ///
    /// # Examples
    ///
    /// ```
    /// use xrlflow_tensor::{GradBuffer, ParamStore, Tensor};
    ///
    /// let mut store = ParamStore::new();
    /// let w = store.register("w", Tensor::from_vec(vec![0.0, 0.0], &[2]));
    /// let mut acc = GradBuffer::zeros_like(&store);
    /// let mut one = GradBuffer::zeros_like(&store);
    /// one.accumulate(w, &Tensor::from_vec(vec![1.0, -2.0], &[2]));
    /// acc.merge(&one);
    /// acc.merge(&one);
    /// assert_eq!(acc.grad(w).data(), &[2.0, -4.0]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics when the buffers hold different parameter counts or shapes.
    pub fn merge(&mut self, other: &GradBuffer) {
        assert_eq!(self.grads.len(), other.grads.len(), "GradBuffer parameter count mismatch");
        for (own, theirs) in self.grads.iter_mut().zip(&other.grads) {
            own.add_assign(theirs);
        }
    }

    /// Global L2 norm of the buffered gradients.
    pub fn norm(&self) -> f32 {
        self.grads.iter().map(Tensor::sq_norm).sum::<f32>().sqrt()
    }

    /// Scales the gradients in place so their global norm does not exceed
    /// `max_norm`, and returns the norm they had before.
    ///
    /// # Examples
    ///
    /// ```
    /// use xrlflow_tensor::{GradBuffer, ParamStore, Tensor};
    ///
    /// let mut store = ParamStore::new();
    /// let w = store.register("w", Tensor::zeros(&[2]));
    /// let mut grads = GradBuffer::zeros_like(&store);
    /// grads.accumulate(w, &Tensor::from_vec(vec![3.0, 4.0], &[2]));
    /// assert_eq!(grads.clip_norm(1.0), 5.0);
    /// assert!((grads.norm() - 1.0).abs() < 1e-6);
    /// ```
    pub fn clip_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.norm();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for g in &mut self.grads {
                scale_in_place(g, scale);
            }
        }
        norm
    }

    /// Resets every slot to zero **in place**, keeping the allocated buffers.
    ///
    /// This is the pooling primitive of the update path: instead of building
    /// a fresh [`GradBuffer::zeros_like`] per transition, callers keep one
    /// buffer per concurrent backward pass, `zero_fill` it and re-accumulate.
    /// A zero-filled buffer is indistinguishable from a freshly constructed
    /// one, so the index-ordered merge stays bit-identical.
    pub fn zero_fill(&mut self) {
        for g in &mut self.grads {
            g.data_mut().fill(0.0);
        }
    }
}

impl ParamStore {
    /// Creates an empty parameter store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new parameter and returns its id.
    pub fn register(&mut self, name: &str, value: Tensor) -> ParamId {
        self.entries.push(ParamEntry { name: name.to_string(), value: Arc::new(value) });
        ParamId(self.entries.len() - 1)
    }

    /// Returns the current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.entries[id.0].value
    }

    fn value_arc(&self, id: ParamId) -> &Arc<Tensor> {
        &self.entries[id.0].value
    }

    /// Returns the name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.entries[id.0].name
    }

    /// Overwrites the value of a parameter (e.g. when loading a checkpoint).
    pub fn set_value(&mut self, id: ParamId, value: Tensor) {
        assert_eq!(
            value.shape(),
            self.entries[id.0].value.shape(),
            "set_value shape mismatch for parameter {}",
            self.entries[id.0].name
        );
        self.entries[id.0].value = Arc::new(value);
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of scalar parameters across all tensors.
    pub fn num_scalars(&self) -> usize {
        self.entries.iter().map(|e| e.value.numel()).sum()
    }

    /// `(name, shape)` of every parameter, in registration order — what a
    /// snapshot must match to be loaded against this store.
    fn layout(&self) -> impl ExactSizeIterator<Item = (&str, &[usize])> {
        self.entries.iter().map(|e| (e.name.as_str(), e.value.shape()))
    }

    /// Captures a [`ParamSnapshot`] of every parameter's current value, in
    /// registration order.
    ///
    /// A snapshot is the value-only copy that goes to disk: the deployable
    /// policy file and the parameter section of a training checkpoint.
    pub fn snapshot(&self) -> ParamSnapshot {
        ParamSnapshot::new(self.entries.iter().map(|e| (e.name.clone(), e.value.as_ref().clone())).collect())
    }

    /// Overwrites every parameter's value from a snapshot captured on a
    /// store with the identical architecture.
    ///
    /// The check is strict — same parameter count, same names in
    /// registration order, same shapes — and nothing is written when any
    /// entry mismatches, so a failed load leaves the store untouched.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::CountMismatch`], [`SnapshotError::NameMismatch`]
    /// or [`SnapshotError::ShapeMismatch`] describing the first difference.
    pub fn load_snapshot(&mut self, snapshot: &ParamSnapshot) -> Result<(), SnapshotError> {
        check_layout(self.layout(), snapshot)?;
        for (own, (_, value)) in self.entries.iter_mut().zip(snapshot.entries()) {
            own.value = Arc::new(value.clone());
        }
        Ok(())
    }
}

/// Adam optimiser over a [`ParamStore`]: the step count and both moment
/// buffers, which are the whole optimiser state.
///
/// The moments are sized from the store on the first [`Adam::step`] (or by
/// [`Adam::load_moments`]); until then [`Adam::moments`] reads them as the
/// zeros they would start from.
///
/// # Examples
///
/// ```
/// use xrlflow_tensor::{Adam, GradBuffer, ParamStore, Tape, Tensor};
///
/// let mut store = ParamStore::new();
/// let w = store.register("w", Tensor::from_vec(vec![2.0], &[1]));
/// let mut adam = Adam::new(0.1);
/// let mut grads = GradBuffer::zeros_like(&store);
/// for _ in 0..200 {
///     let mut tape = Tape::new();
///     let wv = tape.param(&store, w);
///     // minimise (w - 5)^2
///     let target = tape.constant(Tensor::from_vec(vec![5.0], &[1]));
///     let diff = tape.sub(wv, target);
///     let loss = tape.mul(diff, diff);
///     grads.zero_fill();
///     tape.backward_into(loss, &mut grads);
///     adam.step(&mut store, &grads);
/// }
/// assert!((store.value(w).item() - 5.0).abs() < 1e-2);
/// ```
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    t: usize,
    /// First moments, one per parameter in registration order (empty until
    /// sized from the store).
    m: Vec<Tensor>,
    /// Second moments, laid out like `m`.
    v: Vec<Tensor>,
}

impl Adam {
    /// First-moment decay.
    const BETA1: f32 = 0.9;
    /// Second-moment decay.
    const BETA2: f32 = 0.999;
    /// Numerical-stability constant.
    const EPS: f32 = 1e-8;

    /// Creates an Adam optimiser with the given learning rate and the
    /// standard moment decays (0.9, 0.999) and ε (1e-8).
    pub fn new(lr: f32) -> Self {
        Self { lr, t: 0, m: Vec::new(), v: Vec::new() }
    }

    /// Applies one Adam update to `store` from the gradients in `grads`.
    ///
    /// # Panics
    ///
    /// Panics when `grads` or the moments were built for a store with a
    /// different parameter count.
    pub fn step(&mut self, store: &mut ParamStore, grads: &GradBuffer) {
        assert_eq!(store.len(), grads.len(), "Adam::step parameter count mismatch");
        if self.m.is_empty() {
            self.m = GradBuffer::zeros_like(store).grads;
            self.v = GradBuffer::zeros_like(store).grads;
        }
        assert_eq!(store.len(), self.m.len(), "Adam moments were sized for another store");
        self.t += 1;
        let t = self.t as f32;
        let (lr, beta1, beta2, eps) = (self.lr, Self::BETA1, Self::BETA2, Self::EPS);
        let (inv_bc1, inv_bc2) = (1.0 / (1.0 - beta1.powf(t)), 1.0 / (1.0 - beta2.powf(t)));
        let (keep1, keep2) = (1.0 - beta1, 1.0 - beta2);
        let moments = self.m.iter_mut().zip(&mut self.v);
        for ((e, g), (m, v)) in store.entries.iter_mut().zip(&grads.grads).zip(moments) {
            assert_eq!(e.value.shape(), g.shape(), "Adam::step gradient shape mismatch");
            // One pass, in place (the parameter is copied first only while
            // something else still shares it): every element goes through
            // the same f32 operations, in the same order, as the whole-tensor
            // form `m·β1 + g·(1−β1)`, …, `p − (m̂ / (√v̂ + ε))·lr`.
            let params = Arc::make_mut(&mut e.value).data_mut();
            for (((p, &g), m), v) in params.iter_mut().zip(g.data()).zip(m.data_mut()).zip(v.data_mut()) {
                *m = *m * beta1 + g * keep1;
                *v = *v * beta2 + (g * g) * keep2;
                let (m_hat, v_hat) = (*m * inv_bc1, *v * inv_bc2);
                *p -= (m_hat / (v_hat.sqrt() + eps)) * lr;
            }
        }
    }

    /// Number of optimisation steps performed so far.
    pub fn steps(&self) -> usize {
        self.t
    }

    /// Restores the step counter from a checkpoint.
    ///
    /// The counter drives Adam's bias correction, so an exact resume must
    /// restore it together with the moment buffers ([`Adam::load_moments`])
    /// — a resumed run with `t` reset to zero would re-apply the early-step
    /// correction and diverge from the uninterrupted run.
    pub fn set_steps(&mut self, steps: usize) {
        self.t = steps;
    }

    /// Captures the moment buffers as a pair of snapshots — first moments,
    /// then second moments — named and ordered exactly like
    /// [`ParamStore::snapshot`] of the store this optimiser steps (zeros
    /// before the first step).
    ///
    /// Together with the parameter snapshot and [`Adam::steps`] this is the
    /// complete optimiser state: a store and optimiser restored from all
    /// three continue training bit-identically to ones that were never
    /// interrupted, which is what the `TrainState` exact-resume checkpoint
    /// relies on.
    pub fn moments(&self, store: &ParamStore) -> (ParamSnapshot, ParamSnapshot) {
        let zeros;
        let (m, v) = if self.m.is_empty() {
            zeros = GradBuffer::zeros_like(store).grads;
            (&zeros, &zeros)
        } else {
            (&self.m, &self.v)
        };
        assert_eq!(store.len(), m.len(), "Adam moments were sized for another store");
        let named = |moments: &[Tensor]| {
            ParamSnapshot::new(
                store.entries.iter().zip(moments).map(|(e, t)| (e.name.clone(), t.clone())).collect(),
            )
        };
        (named(m), named(v))
    }

    /// Overwrites the moment buffers from snapshots captured by
    /// [`Adam::moments`] against a store with the identical architecture.
    ///
    /// Validation is strict and happens for **both** snapshots before either
    /// is adopted — same count, names and shapes as `store` — so a failed
    /// load leaves the moments untouched. There is no partial adoption:
    /// optimiser state is restored completely or not at all.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::CountMismatch`], [`SnapshotError::NameMismatch`]
    /// or [`SnapshotError::ShapeMismatch`] describing the first difference.
    pub fn load_moments(
        &mut self,
        store: &ParamStore,
        first: &ParamSnapshot,
        second: &ParamSnapshot,
    ) -> Result<(), SnapshotError> {
        check_layout(store.layout(), first)?;
        check_layout(store.layout(), second)?;
        let values = |snapshot: &ParamSnapshot| snapshot.entries().iter().map(|(_, t)| t.clone()).collect();
        self.m = values(first);
        self.v = values(second);
        Ok(())
    }
}

/// The negative-side slope of [`Activation::LeakyRelu`] (the GAT convention).
const LEAKY_SLOPE: f32 = 0.2;

/// An element-wise activation: fused after a bias-add by
/// [`Tape::add_bias_act`], or applied on its own by [`Tape::activate`].
///
/// The backward pass takes each derivative **from the output** `y`, which is
/// exact for every variant: ReLU and leaky ReLU (positive slope) keep the
/// sign of their input — `y > 0 ⇔ x > 0`, NaN included — and the tanh
/// derivative is a function of `y`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Activation {
    /// Identity (no activation).
    #[default]
    Linear,
    /// Rectified linear unit.
    Relu,
    /// Leaky rectified linear unit with slope 0.2 (GAT convention).
    LeakyRelu,
    /// Hyperbolic tangent.
    Tanh,
}

/// Evaluates `$body` with `$f` bound to `$act`'s element-wise function, one
/// arm per variant: the variant is matched once per call, and each arm's
/// loop is compiled for its own function (the ReLU loops vectorise) instead
/// of matching on every element.
macro_rules! with_activation {
    ($act:expr, |$f:ident| $body:expr) => {
        match $act {
            Activation::Linear => {
                let $f = |x: f32| x;
                $body
            }
            Activation::Relu => {
                let $f = |x: f32| x.max(0.0);
                $body
            }
            Activation::LeakyRelu => {
                let $f = |x: f32| if x > 0.0 { x } else { LEAKY_SLOPE * x };
                $body
            }
            Activation::Tanh => {
                let $f = f32::tanh;
                $body
            }
        }
    };
}

impl Activation {
    /// Multiplies the upstream gradient `grad` in place by the derivative at
    /// each element, read from the activation's `output`. The identity
    /// leaves it as it is.
    fn grad_from_output(self, grad: &mut Tensor, output: &Tensor) {
        match self {
            Activation::Linear => {}
            Activation::Relu => grad.zip_assign(output, |g, y| if y > 0.0 { g } else { 0.0 }),
            Activation::LeakyRelu => {
                grad.zip_assign(output, |g, y| if y > 0.0 { g } else { LEAKY_SLOPE * g })
            }
            Activation::Tanh => grad.zip_assign(output, |g, y| g * (1.0 - y * y)),
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Constant,
    Param(ParamId),
    Add(VarId, VarId),
    Sub(VarId, VarId),
    Mul(VarId, VarId),
    AddBiasAct(VarId, VarId, Activation),
    Scale(VarId, f32),
    Neg(VarId),
    MatMul(VarId, VarId),
    /// `[a ‖ one_hot(classes)] · w`, see [`Tape::matmul_lookup`].
    MatMulLookup {
        a: VarId,
        w: VarId,
        classes: Range<usize>,
    },
    Act(VarId, Activation),
    Exp(VarId),
    SumAll(VarId),
    #[cfg(test)]
    SumRows(VarId),
    ConcatCols(VarId, VarId),
    GatherRows(VarId, Range<usize>),
    #[cfg(test)]
    ScatterAddRows(VarId, Range<usize>),
    SegmentSoftmax(VarId, Range<usize>, usize),
    Transpose(VarId),
    /// `out[dst[i]] += a[src[i]] * scale[i]`, see
    /// [`Tape::gather_scatter_rows`].
    GatherScatterRows {
        a: VarId,
        scale: VarId,
        src: Range<usize>,
        dst: Range<usize>,
    },
    /// `out[segment] += a[start..start + len]` per run, see
    /// [`Tape::sum_row_runs`]; the runs flattened to `[start, len, segment]`
    /// triples.
    SumRowRuns(VarId, Range<usize>),
    LogSoftmaxRow(VarId),
    Pick(VarId, usize),
    Clamp(VarId, f32, f32),
    Minimum(VarId, VarId),
}

impl Op {
    /// The tape variables the op reads (leaves read none).
    fn inputs(&self) -> [Option<VarId>; 2] {
        match *self {
            Op::Constant | Op::Param(_) => [None, None],
            Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::AddBiasAct(a, b, _)
            | Op::MatMul(a, b)
            | Op::ConcatCols(a, b)
            | Op::Minimum(a, b) => [Some(a), Some(b)],
            Op::GatherScatterRows { a, scale, .. } => [Some(a), Some(scale)],
            Op::MatMulLookup { a, w, .. } => [Some(a), Some(w)],
            Op::Scale(a, _)
            | Op::Neg(a)
            | Op::Act(a, _)
            | Op::Exp(a)
            | Op::SumAll(a)
            | Op::SumRowRuns(a, _)
            | Op::GatherRows(a, _)
            | Op::SegmentSoftmax(a, _, _)
            | Op::Transpose(a)
            | Op::LogSoftmaxRow(a)
            | Op::Pick(a, _)
            | Op::Clamp(a, _, _) => [Some(a), None],
            #[cfg(test)]
            Op::SumRows(a) | Op::ScatterAddRows(a, _) => [Some(a), None],
        }
    }
}

/// A node's forward value: either a tensor the tape owns (op outputs and
/// constants, in storage the node's position keeps between passes) or a
/// shared reference to a [`ParamStore`] tensor (parameter leaves — imported
/// with one refcount bump instead of a deep clone, and released by
/// [`Tape::recycle`]).
#[derive(Debug, Clone)]
enum Value {
    Owned(Tensor),
    Shared(Arc<Tensor>),
}

impl Value {
    #[inline]
    fn tensor(&self) -> &Tensor {
        match self {
            Value::Owned(t) => t,
            Value::Shared(t) => t,
        }
    }
}

#[derive(Debug, Clone)]
struct Node {
    op: Op,
    value: Value,
    /// Whether a [`Op::Param`] leaf is reachable through the op's inputs —
    /// fixed when the node is recorded. The reverse walk computes and stores
    /// a gradient contribution only for nodes where this holds: the gradient
    /// of a constant, or of anything computed from constants alone, is work
    /// nobody reads.
    needs_grad: bool,
}

#[inline]
fn value_of(nodes: &[Node], id: VarId) -> &Tensor {
    nodes[id.0].value.tensor()
}

/// The reverse-walk buffer slots of a node position: the contributions its
/// arm hands its first and second input, a kernel's scratch, and — at the
/// loss — the seed gradient.
const FIRST: usize = 0;
const SECOND: usize = 1;
const SCRATCH: usize = 2;
const SEED: usize = 3;

/// What one node position keeps between passes: the storage of the value
/// of the node recorded there, and the reverse walk's buffers for that
/// node's arm ([`FIRST`], [`SECOND`], [`SCRATCH`], [`SEED`]). Each buffer is
/// taken when its position needs it and handed back when the pass (or the
/// walk) is done with it.
#[derive(Debug, Default)]
struct Kept {
    value: Vec<f32>,
    walk: [Vec<f32>; 4],
}

/// A gradient on the reverse walk, with the walk buffer its storage came
/// from: `(node position, slot)`, where it goes back to.
#[derive(Debug)]
struct Grad {
    tensor: Tensor,
    home: (usize, usize),
}

/// The reverse walk's state: each node's pending gradient, and the kept
/// buffers every gradient is built in and handed back to.
struct Walk<'t> {
    grads: &'t mut [Option<Grad>],
    kept: &'t mut [Kept],
}

impl Walk<'_> {
    /// Takes walk buffer `slot` of node position `node`.
    fn take(&mut self, node: usize, slot: usize) -> Vec<f32> {
        std::mem::take(&mut self.kept[node].walk[slot])
    }

    /// Hands `buffer` back as walk buffer `slot` of node position `node`.
    fn put(&mut self, node: usize, slot: usize, buffer: Vec<f32>) {
        self.kept[node].walk[slot] = buffer;
    }

    /// A gradient `build` writes into walk buffer `slot` of position `node`.
    fn grad(&mut self, node: usize, slot: usize, build: impl FnOnce(Vec<f32>) -> Tensor) -> Grad {
        Grad { tensor: build(self.take(node, slot)), home: (node, slot) }
    }

    /// Hands a gradient's storage back to the buffer it was built in.
    fn hand_back(&mut self, grad: Grad) {
        self.put(grad.home.0, grad.home.1, grad.tensor.into_data());
    }

    /// Adds one gradient contribution to a node's slot: the first is moved
    /// in, later ones are added element-wise in place (`g[i] + x[i]`) and
    /// their storage handed back.
    fn accumulate(&mut self, id: VarId, contribution: Grad) {
        match &mut self.grads[id.0] {
            Some(g) => g.tensor.add_assign(&contribution.tensor),
            slot @ None => {
                *slot = Some(contribution);
                return;
            }
        }
        self.hand_back(contribution);
    }
}

/// A `[1]` tensor holding `value`, in `data`'s storage.
fn scalar_in(mut data: Vec<f32>, value: f32) -> Tensor {
    cleared(&mut data, 1).push(value);
    Tensor::from_vec(data, &[1])
}

/// Dynamic autodiff tape.
///
/// Every method that takes `VarId` arguments appends a new node recording the
/// operation and its forward value; [`Tape::backward_into`] later replays the
/// tape in reverse to accumulate parameter gradients.
///
/// **Storage.** A tape keeps its buffers from one pass to the next, by node
/// position: the node recorded at position `i` writes its value into the
/// buffer position `i` kept from earlier passes, refilled in place and
/// zeroed only where the op accumulates, and its arm of the reverse walk
/// builds its gradient contributions and kernel scratch in buffers position
/// `i` keeps for that; index lists share one list per pass. A buffer too
/// small for the pass is replaced by one rounded up to a power of two.
/// Because a recycled tape replays the same op sequence (only the shapes
/// follow the graph), a warm pass allocates nothing large: the update's
/// transition re-evaluations and an episode's policy steps stay out of
/// `malloc`. What a tape retains is, per node position, the largest buffer
/// a pass has needed there, rounded up — for passes of one op sequence
/// whose shapes grow together, at most twice the storage of its largest
/// pass — until the tape is dropped. A constant copies its values into that
/// storage; a tape never adopts a caller's `Vec`.
#[derive(Debug, Default)]
pub struct Tape {
    nodes: Vec<Node>,
    /// Per node position, what it keeps between passes; at least as long
    /// as any pass has been.
    kept: Vec<Kept>,
    /// Every index list the pass's ops recorded, back to back (an op holds
    /// the range of its own); cleared, not freed, by [`Tape::recycle`].
    indices: Vec<usize>,
    /// The reverse walk's pending gradient per node, kept for its capacity.
    grads: Vec<Option<Grad>>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` when no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Returns the forward value of a variable.
    pub fn value(&self, id: VarId) -> &Tensor {
        value_of(&self.nodes, id)
    }

    /// Clears the tape for the next forward pass: every node's value and
    /// index list goes back to the storage its position keeps for the next
    /// pass's node there, parameter leaves drop their reference, and the
    /// node list keeps its capacity.
    ///
    /// Recycling is semantically identical to dropping the tape and calling
    /// [`Tape::new`] — every op overwrites or zeroes what it reuses, so no
    /// value of an earlier pass reaches a later one — but a recycled tape's
    /// next pass reuses this one's storage (see [`Tape`]). Shared parameter
    /// leaves just drop their refcount; the [`ParamStore`] is untouched.
    ///
    /// # Examples
    ///
    /// ```
    /// use xrlflow_tensor::{Activation, Tape, Tensor};
    ///
    /// let mut tape = Tape::new();
    /// for _ in 0..3 {
    ///     tape.recycle(); // a no-op on the first pass
    ///     let x = tape.constant(Tensor::ones(&[4, 4]));
    ///     let y = tape.activate(x, Activation::Relu);
    ///     assert_eq!(tape.value(y).shape(), &[4, 4]);
    /// }
    /// ```
    pub fn recycle(&mut self) {
        for (node, kept) in self.nodes.drain(..).zip(&mut self.kept) {
            if let Value::Owned(value) = node.value {
                kept.value = value.into_data();
            }
        }
        self.indices.clear();
    }

    /// The storage of the position the next node is recorded at.
    fn next_kept(&mut self) -> &mut Kept {
        let at = self.nodes.len();
        if self.kept.len() <= at {
            self.kept.resize_with(at + 1, Kept::default);
        }
        &mut self.kept[at]
    }

    /// The value buffer of the next node's position, taken to be refilled.
    fn next_value(&mut self) -> Vec<f32> {
        std::mem::take(&mut self.next_kept().value)
    }

    /// Records an op's index list after the pass's others, returning where
    /// it sits.
    fn record_indices(&mut self, list: impl IntoIterator<Item = usize>) -> Range<usize> {
        let start = self.indices.len();
        self.indices.extend(list);
        start..self.indices.len()
    }

    fn push(&mut self, op: Op, value: Tensor) -> VarId {
        let needs_grad = op.inputs().iter().flatten().any(|input| self.nodes[input.0].needs_grad);
        self.nodes.push(Node { op, value: Value::Owned(value), needs_grad });
        VarId(self.nodes.len() - 1)
    }

    /// Adds a constant (non-trainable) leaf holding a copy of `value`'s
    /// elements.
    pub fn constant(&mut self, value: Tensor) -> VarId {
        self.constant_with(value.shape(), |_, data| data.extend_from_slice(value.data()))
    }

    /// Adds a constant leaf of shape `shape` whose elements `fill` pushes
    /// into the (empty) storage the tape keeps for it, reading the tape as
    /// it stands if it needs to — how a caller builds a constant without a
    /// `Vec` of its own.
    ///
    /// # Examples
    ///
    /// ```
    /// use xrlflow_tensor::{Tape, Tensor};
    ///
    /// let mut tape = Tape::new();
    /// let x = tape.constant(Tensor::from_vec(vec![1.0, 2.0], &[1, 2]));
    /// // `[0, 0]` stacked over `x`'s row.
    /// let stacked = tape.constant_with(&[2, 2], |tape, data| {
    ///     data.extend_from_slice(&[0.0, 0.0]);
    ///     data.extend_from_slice(tape.value(x).data());
    /// });
    /// assert_eq!(tape.value(stacked).data(), &[0.0, 0.0, 1.0, 2.0]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics when `fill` pushes other than `shape`'s number of elements.
    pub fn constant_with(&mut self, shape: &[usize], fill: impl FnOnce(&Tape, &mut Vec<f32>)) -> VarId {
        let mut data = self.next_value();
        cleared(&mut data, shape.iter().product());
        fill(self, &mut data);
        self.push(Op::Constant, Tensor::from_vec(data, shape))
    }

    /// `[m, k, n]` of every matrix product recorded since the last
    /// [`Tape::recycle`], in tape order — how a test counts the rows a pass
    /// actually multiplied. A [`Tape::matmul_lookup`] counts as the dense
    /// product it stands for, `[m, rows of w, n]`.
    pub fn matmul_shapes(&self) -> impl Iterator<Item = [usize; 3]> + '_ {
        self.nodes.iter().filter_map(|node| match node.op {
            Op::MatMul(a, b) | Op::MatMulLookup { a, w: b, .. } => {
                let (a, b) = (value_of(&self.nodes, a), value_of(&self.nodes, b));
                Some([a.shape()[0], b.shape()[0], b.shape()[1]])
            }
            _ => None,
        })
    }

    /// Imports a parameter from the store as a trainable leaf. The tensor is
    /// shared, not cloned: the leaf holds an `Arc` reference to the store's
    /// current value.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> VarId {
        let value = Arc::clone(store.value_arc(id));
        self.nodes.push(Node { op: Op::Param(id), value: Value::Shared(value), needs_grad: true });
        VarId(self.nodes.len() - 1)
    }

    /// Records an element-wise binary op.
    fn binary_zip(&mut self, op: Op, a: VarId, b: VarId, f: impl Fn(f32, f32) -> f32) -> VarId {
        let data = self.next_value();
        let t = value_of(&self.nodes, a).zip_into(value_of(&self.nodes, b), f, data);
        self.push(op, t)
    }

    /// Records an element-wise unary op.
    fn unary_map(&mut self, op: Op, a: VarId, f: impl Fn(f32) -> f32) -> VarId {
        let data = self.next_value();
        let t = value_of(&self.nodes, a).map_into(f, data);
        self.push(op, t)
    }

    /// Element-wise addition of two variables with identical shapes.
    pub fn add(&mut self, a: VarId, b: VarId) -> VarId {
        self.binary_zip(Op::Add(a, b), a, b, |x, y| x + y)
    }

    /// Element-wise subtraction.
    pub fn sub(&mut self, a: VarId, b: VarId) -> VarId {
        self.binary_zip(Op::Sub(a, b), a, b, |x, y| x - y)
    }

    /// Element-wise multiplication.
    pub fn mul(&mut self, a: VarId, b: VarId) -> VarId {
        self.binary_zip(Op::Mul(a, b), a, b, |x, y| x * y)
    }

    /// Adds a rank-1 bias of size `n` to every row of a `[m, n]` matrix and
    /// applies `act` element-wise in the same pass.
    ///
    /// The per-element arithmetic is exactly `act(a[r][c] + bias[c])` — the
    /// same sequence of operations a plain bias-add ([`Activation::Linear`])
    /// followed by [`Tape::activate`] performs — so fusing changes no bits,
    /// it only removes one full intermediate materialisation per dense layer.
    pub fn add_bias_act(&mut self, a: VarId, bias: VarId, act: Activation) -> VarId {
        let mut data = self.next_value();
        let av = value_of(&self.nodes, a);
        let bv = value_of(&self.nodes, bias);
        let (rows, cols) = (av.rows(), av.cols());
        assert_eq!(bv.numel(), cols, "bias size must equal number of columns");
        let out = cleared(&mut data, rows * cols);
        with_activation!(act, |f| {
            for r in 0..rows {
                let a_row = &av.data()[r * cols..(r + 1) * cols];
                out.extend(a_row.iter().zip(bv.data()).map(|(&x, &b)| f(x + b)));
            }
        });
        let t = Tensor::from_vec(data, &[rows, cols]);
        self.push(Op::AddBiasAct(a, bias, act), t)
    }

    /// Multiplies every element by a constant.
    pub fn scale(&mut self, a: VarId, s: f32) -> VarId {
        self.unary_map(Op::Scale(a, s), a, |x| x * s)
    }

    /// Negates every element.
    pub fn neg(&mut self, a: VarId) -> VarId {
        self.unary_map(Op::Neg(a), a, |x| -x)
    }

    /// Matrix multiplication of rank-2 variables (the tiled
    /// [`Tensor::matmul`] kernel).
    pub fn matmul(&mut self, a: VarId, b: VarId) -> VarId {
        let data = self.next_value();
        let t = value_of(&self.nodes, a).matmul_into(value_of(&self.nodes, b), data);
        self.push(Op::MatMul(a, b), t)
    }

    /// `[a ‖ one_hot(classes)] · w` without the one-hot — a dense layer
    /// over per-row attributes and a class, such as the GNN's node update
    /// (attributes the row's summed edge attributes, the class its operator).
    /// `a` is `[m, k]` and needs no gradient (an input, as the node update's
    /// attributes are), `classes` holds one class per row, `w` is
    /// `[k + c, n]`; row `i` of the `[m, n]` result is `a[i] · w[..k]`
    /// through the [`Tensor::matmul`] kernel, then plus row
    /// `k + classes[i]` of `w`. The backward pass computes `w`'s attribute
    /// rows as `aᵀ · G` and adds each row of `G` into its class's weight
    /// row, rows ascending; no `[m, k + c]` one-hot is built, multiplied or
    /// transposed either way.
    ///
    /// **Bits.** For finite `w` (forward) and a finite output gradient
    /// (backward) the value and `w`'s gradient are bit-identical to
    /// [`Tape::matmul`] of the dense `[a ‖ one_hot]` constant: the one-hot's
    /// `1 · x` term is exact, and each `0 · x` term adds `±0` to a running
    /// sum that starts at `+0.0` and so is never `-0.0`.
    ///
    /// **Non-finite values.** As in an embedding lookup, a row never reads
    /// the weight rows of classes it is not, and a class's weight-row
    /// gradient reads only its own rows' gradients: an `inf` or NaN in row
    /// `k + j` of `w` reaches the output rows of class `j` alone, where the
    /// dense product's `0 · inf = NaN` reaches every row (and likewise for a
    /// non-finite gradient row). The attribute columns are the plain
    /// product, with its IEEE semantics.
    ///
    /// # Panics
    ///
    /// Panics when `a` needs a gradient (it reaches a parameter), `a` or
    /// `w` is not rank-2, `classes` is not one per row of `a`, or a class
    /// has no weight row.
    pub fn matmul_lookup(&mut self, a: VarId, classes: &[usize], w: VarId) -> VarId {
        assert!(!self.nodes[a.0].needs_grad, "matmul_lookup's attributes must need no gradient");
        let list = self.record_indices(classes.iter().copied());
        let data = self.next_value();
        let t = value_of(&self.nodes, a).matmul_lookup(classes, value_of(&self.nodes, w), data);
        self.push(Op::MatMulLookup { a, w, classes: list }, t)
    }

    /// Applies `act` element-wise.
    pub fn activate(&mut self, a: VarId, act: Activation) -> VarId {
        with_activation!(act, |f| self.unary_map(Op::Act(a, act), a, f))
    }

    /// Element-wise exponential.
    pub fn exp(&mut self, a: VarId) -> VarId {
        self.unary_map(Op::Exp(a), a, f32::exp)
    }

    /// Sum of all elements, producing a scalar.
    pub fn sum_all(&mut self, a: VarId) -> VarId {
        let data = self.next_value();
        let v = value_of(&self.nodes, a).sum();
        self.push(Op::SumAll(a), scalar_in(data, v))
    }

    /// Concatenates two matrices with equal row counts along the column axis.
    pub fn concat_cols(&mut self, a: VarId, b: VarId) -> VarId {
        let data = self.next_value();
        let t = Tensor::concat_cols_into(&[value_of(&self.nodes, a), value_of(&self.nodes, b)], data);
        self.push(Op::ConcatCols(a, b), t)
    }

    /// Gathers rows of a matrix by index (rows may repeat).
    pub fn gather_rows(&mut self, a: VarId, indices: &[usize]) -> VarId {
        let list = self.record_indices(indices.iter().copied());
        let mut data = self.next_value();
        let av = value_of(&self.nodes, a);
        let cols = av.cols();
        let out = cleared(&mut data, indices.len() * cols);
        for &idx in indices {
            out.extend_from_slice(&av.data()[idx * cols..(idx + 1) * cols]);
        }
        let t = Tensor::from_vec(data, &[indices.len(), cols]);
        self.push(Op::GatherRows(a, list), t)
    }

    /// Transposes a rank-2 variable, turning `[m, n]` into `[n, m]` (used to
    /// reshape a batched `[K, 1]` score column into a `[1, K]` logit row).
    pub fn transpose(&mut self, a: VarId) -> VarId {
        let data = self.next_value();
        let t = value_of(&self.nodes, a).transpose_into(data);
        self.push(Op::Transpose(a), t)
    }

    /// Softmax over segments of a `[k, 1]` column vector: entries sharing the
    /// same segment id are normalised together. Used for GAT attention
    /// coefficients grouped by destination node.
    pub fn segment_softmax(&mut self, a: VarId, segments: &[usize], num_segments: usize) -> VarId {
        let list = self.record_indices(segments.iter().copied());
        let mut data = self.next_value();
        // The per-segment maxima and sums, `[max ‖ sum]`, in the position's
        // walk scratch (which the forward pass does not otherwise use).
        let mut scratch = std::mem::take(&mut self.next_kept().walk[SCRATCH]);
        cleared(&mut scratch, 2 * num_segments).resize(num_segments, f32::NEG_INFINITY);
        scratch.resize(2 * num_segments, 0.0);
        let (seg_max, seg_sum) = scratch.split_at_mut(num_segments);

        let av = value_of(&self.nodes, a);
        assert_eq!(av.cols(), 1, "segment_softmax expects a column vector");
        assert_eq!(av.rows(), segments.len(), "segment length mismatch");
        let out = cleared(&mut data, segments.len());
        for (i, &s) in segments.iter().enumerate() {
            seg_max[s] = seg_max[s].max(av.data()[i]);
        }
        for (i, &s) in segments.iter().enumerate() {
            let e = (av.data()[i] - seg_max[s]).exp();
            out.push(e);
            seg_sum[s] += e;
        }
        for (x, &s) in out.iter_mut().zip(segments) {
            *x /= seg_sum[s].max(1e-12);
        }
        let t = Tensor::from_vec(data, av.shape());
        self.next_kept().walk[SCRATCH] = scratch;
        self.push(Op::SegmentSoftmax(a, list, num_segments), t)
    }

    /// Fused gather–scale–scatter: `out[dst[i]] += a[src[i]] * scale[i]` for
    /// `i` ascending, over a zero-initialised `[out_rows, cols]` output.
    /// `scale` is a `[k, 1]` column with one weight per index pair.
    ///
    /// Forward value and input gradients are bit-identical to the unfused
    /// chain `gather_rows(a, src)` → per-row product with `scale` →
    /// `scatter_add_rows(·, dst, out_rows)`: the same products, summed into
    /// each output row in the same `i` order — only the `[k, cols]`
    /// intermediates (three forward, as many again backward) are never
    /// materialised. The GAT aggregate `Σ_j α_ij · W h_j` is this op
    /// (`src`/`dst` an edge list, `scale` the attention column).
    ///
    /// # Examples
    ///
    /// ```
    /// use xrlflow_tensor::{Tape, Tensor};
    ///
    /// let mut tape = Tape::new();
    /// let h = tape.constant(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
    /// let alpha = tape.constant(Tensor::from_vec(vec![0.5, 2.0, 1.0], &[3, 1]));
    /// // Three edges 0→0, 1→0, 1→1 weighted by alpha.
    /// let out = tape.gather_scatter_rows(h, alpha, &[0, 1, 1], &[0, 0, 1], 2);
    /// assert_eq!(tape.value(out).data(), &[6.5, 9.0, 3.0, 4.0]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics when `src` and `dst` differ in length, an index is out of
    /// bounds, or `scale` is not a `[src.len(), 1]` column.
    pub fn gather_scatter_rows(
        &mut self,
        a: VarId,
        scale: VarId,
        src: &[usize],
        dst: &[usize],
        out_rows: usize,
    ) -> VarId {
        assert_eq!(src.len(), dst.len(), "gather_scatter_rows index length mismatch");
        for &d in dst {
            assert!(d < out_rows, "scatter index {} out of bounds ({})", d, out_rows);
        }
        let (src_list, dst_list) =
            (self.record_indices(src.iter().copied()), self.record_indices(dst.iter().copied()));
        let mut data = self.next_value();
        let sv = value_of(&self.nodes, scale);
        assert_eq!(sv.cols(), 1, "gather_scatter_rows expects a column of scales");
        assert_eq!(sv.rows(), src.len(), "row mismatch");
        let av = value_of(&self.nodes, a);
        let cols = av.cols();
        add_rows_along(zeroed(&mut data, out_rows * cols), av.data(), cols, src, dst, sv.data());
        let t = Tensor::from_vec(data, &[out_rows, cols]);
        self.push(Op::GatherScatterRows { a, scale, src: src_list, dst: dst_list }, t)
    }

    /// Per-segment row sums over *runs* of consecutive rows: output row
    /// `run.segment` is `0.0 + Σ a[row]` over the rows of that segment's
    /// runs, taken in list order and ascending within a run — one running
    /// sum per column, so bit-identical to `scatter_add_rows(gather_rows(a,
    /// rows), segments, out_rows)` over the expanded index lists, and (for a
    /// single run over every row) to `sum_rows`. A segment without
    /// rows stays zero. Segments must not decrease along `runs`.
    ///
    /// Nothing is indexed per row: the cost of describing the sum is the
    /// number of runs. A run is summed with its segment's running sum held
    /// in registers; and a segment whose first run is a prefix `(0, r)` of
    /// the list's first run `(0, n)` *resumes* from that run's running sum
    /// as it stood after `r` rows — the identical sequence of additions, so
    /// the identical bits — instead of re-adding the prefix. That is the
    /// candidate readout: every candidate graph keeps the base graph's rows
    /// up to its first rewritten row. The backward pass walks the same runs
    /// in the same order, adding the segment's gradient row into each row of
    /// the run.
    ///
    /// # Examples
    ///
    /// ```
    /// use xrlflow_tensor::{RowRun, Tape, Tensor};
    ///
    /// let mut tape = Tape::new();
    /// let h = tape.constant(Tensor::from_vec(vec![1.0, 2.0, 4.0, 8.0], &[4, 1]));
    /// let run = |start, len, segment| RowRun { start, len, segment };
    /// // Segment 0 sums every row; segment 1 rows 0..2 and row 3.
    /// let out = tape.sum_row_runs(h, &[run(0, 4, 0), run(0, 2, 1), run(3, 1, 1)], 2);
    /// assert_eq!(tape.value(out).data(), &[15.0, 11.0]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics when a run reaches past the last row of `a`, a segment is not
    /// below `out_rows`, or the segments decrease.
    pub fn sum_row_runs(&mut self, a: VarId, runs: &[RowRun], out_rows: usize) -> VarId {
        // Only the reverse walk reads the recorded runs, and it never visits
        // a sum of constants (an episode's carried rows): record none there.
        let records = if self.nodes[a.0].needs_grad { runs } else { &[] };
        let flat = self.record_indices(records.iter().flat_map(|run| [run.start, run.len, run.segment]));
        let mut data = self.next_value();
        let av = value_of(&self.nodes, a);
        let (rows, cols) = (av.rows(), av.cols());
        let mut last_segment = 0;
        for run in runs {
            assert!(run.start + run.len <= rows, "run {run:?} reaches past the {rows} rows");
            assert!(run.segment < out_rows, "segment {} out of bounds ({out_rows})", run.segment);
            assert!(run.segment >= last_segment, "segments must not decrease along the runs");
            last_segment = run.segment;
        }
        let out = zeroed(&mut data, out_rows * cols);
        let av = av.data();
        let rows_of = |start: usize, len: usize| &av[start * cols..(start + len) * cols];

        // The trunk is the list's first run when it starts at row 0; a later
        // segment resumes from it when its own first run is a prefix of it.
        let trunk_len = runs.first().filter(|trunk| trunk.start == 0).map(|trunk| trunk.len);
        let resumes = |at: usize| {
            at > 0
                && runs[at].segment != runs[at - 1].segment
                && runs[at].start == 0
                && trunk_len.is_some_and(|trunk_len| runs[at].len <= trunk_len)
        };
        let summed_along_the_trunk = |at: usize| resumes(at) || (at == 0 && trunk_len.is_some());
        if let Some(trunk_len) = trunk_len {
            // Resuming runs by length: the trunk is summed once, and its
            // running sum copied out as it passes each of those lengths.
            let mut resuming: Vec<usize> = (0..runs.len()).filter(|&at| resumes(at)).collect();
            resuming.sort_unstable_by_key(|&at| runs[at].len);
            let trunk = runs[0].segment * cols;
            let mut summed = 0;
            for &at in &resuming {
                let run = runs[at];
                sum_rows_into(&mut out[trunk..trunk + cols], rows_of(summed, run.len - summed), cols);
                summed = run.len;
                out.copy_within(trunk..trunk + cols, run.segment * cols);
            }
            sum_rows_into(&mut out[trunk..trunk + cols], rows_of(summed, trunk_len - summed), cols);
        }
        for (at, run) in runs.iter().enumerate() {
            if !summed_along_the_trunk(at) {
                let segment = run.segment * cols;
                sum_rows_into(&mut out[segment..segment + cols], rows_of(run.start, run.len), cols);
            }
        }
        let t = Tensor::from_vec(data, &[out_rows, cols]);
        self.push(Op::SumRowRuns(a, flat), t)
    }

    /// Log-softmax over the flattened elements of a variable (treated as one
    /// categorical distribution).
    pub fn log_softmax(&mut self, a: VarId) -> VarId {
        let data = self.next_value();
        let av = value_of(&self.nodes, a);
        let max = av.max();
        // One pass for the exp-sum, one for the shifted outputs.
        let sum: f32 = av.data().iter().map(|&x| (x - max).exp()).sum();
        let log_sum = sum.ln() + max;
        let t = av.map_into(|x| x - log_sum, data);
        self.push(Op::LogSoftmaxRow(a), t)
    }

    /// Picks a single element by flat index, producing a scalar.
    pub fn pick(&mut self, a: VarId, index: usize) -> VarId {
        let data = self.next_value();
        let v = value_of(&self.nodes, a).data()[index];
        self.push(Op::Pick(a, index), scalar_in(data, v))
    }

    /// Clamps every element to `[lo, hi]`; gradients are zero outside the range.
    pub fn clamp(&mut self, a: VarId, lo: f32, hi: f32) -> VarId {
        self.unary_map(Op::Clamp(a, lo, hi), a, |x| x.clamp(lo, hi))
    }

    /// Element-wise minimum of two variables.
    pub fn minimum(&mut self, a: VarId, b: VarId) -> VarId {
        self.binary_zip(Op::Minimum(a, b), a, b, f32::min)
    }

    /// Runs reverse-mode differentiation from `loss` (a scalar) and adds
    /// every parameter's gradient contribution into its slot of `out`, in
    /// reverse tape order.
    ///
    /// The tape reads the store it imported parameters from and never
    /// writes it, so a worker evaluating its transition shard on a private
    /// tape over the shared, borrowed store back-propagates into its own
    /// buffer — the worker-side primitive of the data-parallel PPO update.
    /// The walk builds every gradient in buffers the tape keeps (see
    /// [`Tape`]) and hands each back when it is done with it, so a walk may
    /// be repeated on the same pass.
    ///
    /// Three rules keep the walk cheap without moving a bit (ROADMAP tensor
    /// rule 5):
    ///
    /// * **Only what reaches a parameter is differentiated.** A contribution
    ///   is computed and stored only for an input with `needs_grad`; what
    ///   the walk skips is exactly what the full walk computed and dropped.
    /// * **Contributions are moved or added in place.** A node's incoming
    ///   gradient is owned by its arm, which transforms the buffer in place
    ///   where the op is element-wise and hands it on by value; a slot's
    ///   first contribution is a move, later ones `g[i] + x[i]` in place, in
    ///   the order the reverse walk produces them. Only an op forwarding one
    ///   gradient to two differentiable inputs (`Add`, `Sub`) copies.
    /// * **Per-element arithmetic and accumulation order are those of the
    ///   naive walk**, so parameter gradients are bit-identical to it.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a single-element variable, or when `out` was
    /// built for a different architecture.
    pub fn backward_into(&mut self, loss: VarId, out: &mut GradBuffer) {
        assert_eq!(self.value(loss).numel(), 1, "backward requires a scalar loss");
        if !self.nodes[loss.0].needs_grad {
            return;
        }
        let Tape { nodes, kept, indices, grads } = self;
        let (nodes, indices) = (&nodes[..], &indices[..]);
        let needs = |id: VarId| nodes[id.0].needs_grad;
        grads.clear();
        grads.resize_with(loss.0 + 1, || None);
        let mut walk = Walk { grads, kept };
        let seed = walk.grad(loss.0, SEED, |data| scalar_in(data, 1.0));
        walk.grads[loss.0] = Some(seed);

        for i in (0..=loss.0).rev() {
            let mut upstream = match walk.grads[i].take() {
                Some(g) => g,
                None => continue,
            };
            let node = &nodes[i];
            match &node.op {
                Op::Constant => walk.hand_back(upstream),
                Op::Param(pid) => {
                    out.accumulate(*pid, &upstream.tensor);
                    walk.hand_back(upstream);
                }
                Op::Add(a, b) => {
                    if needs(*a) && needs(*b) {
                        let copy = walk.grad(i, FIRST, |data| upstream.tensor.map_into(|g| g, data));
                        walk.accumulate(*a, copy);
                        walk.accumulate(*b, upstream);
                    } else {
                        walk.accumulate(if needs(*a) { *a } else { *b }, upstream);
                    }
                }
                Op::Sub(a, b) => {
                    if !needs(*b) {
                        walk.accumulate(*a, upstream);
                    } else {
                        if needs(*a) {
                            let copy = walk.grad(i, FIRST, |data| upstream.tensor.map_into(|g| g, data));
                            walk.accumulate(*a, copy);
                        }
                        scale_in_place(&mut upstream.tensor, -1.0);
                        walk.accumulate(*b, upstream);
                    }
                }
                Op::Mul(a, b) => {
                    let (av, bv) = (value_of(nodes, *a), value_of(nodes, *b));
                    if needs(*a) && needs(*b) {
                        let ga = walk.grad(i, FIRST, |data| upstream.tensor.zip_into(bv, |g, y| g * y, data));
                        upstream.tensor.zip_assign(av, |g, x| g * x);
                        walk.accumulate(*a, ga);
                        walk.accumulate(*b, upstream);
                    } else if needs(*a) {
                        upstream.tensor.zip_assign(bv, |g, y| g * y);
                        walk.accumulate(*a, upstream);
                    } else {
                        upstream.tensor.zip_assign(av, |g, x| g * x);
                        walk.accumulate(*b, upstream);
                    }
                }
                Op::AddBiasAct(a, bias, act) => {
                    // The gradient at the pre-activation sum, derived from
                    // the output (exact for every `Activation` — see its
                    // rustdoc); the rest is the plain bias-add backward, the
                    // same arithmetic in the same order as the unfused pair.
                    act.grad_from_output(&mut upstream.tensor, node.value.tensor());
                    // It flows to `a` unchanged and column-sums into the bias.
                    let gb = needs(*bias).then(|| {
                        let bias = value_of(nodes, *bias);
                        walk.grad(i, SECOND, |data| column_sums(&upstream.tensor, bias, data))
                    });
                    if needs(*a) {
                        walk.accumulate(*a, upstream);
                    } else {
                        walk.hand_back(upstream);
                    }
                    if let Some(gb) = gb {
                        walk.accumulate(*bias, gb);
                    }
                }
                Op::Scale(a, s) => {
                    scale_in_place(&mut upstream.tensor, *s);
                    walk.accumulate(*a, upstream);
                }
                Op::Neg(a) => {
                    scale_in_place(&mut upstream.tensor, -1.0);
                    walk.accumulate(*a, upstream);
                }
                Op::MatMul(a, b) => {
                    let (av, bv) = (value_of(nodes, *a), value_of(nodes, *b));
                    // Transposed-operand kernels: bit-identical to
                    // `grad × bvᵀ` / `avᵀ × grad` with materialised
                    // transposes, without building either transpose (`bvᵀ`
                    // is packed into the position's scratch). A constant `a`
                    // skips `grad × bvᵀ`.
                    let ga = needs(*a).then(|| {
                        let mut packed = walk.take(i, SCRATCH);
                        let ga = walk.grad(i, FIRST, |data| {
                            upstream.tensor.matmul_transposed_rhs_into(bv, data, &mut packed)
                        });
                        walk.put(i, SCRATCH, packed);
                        ga
                    });
                    let gb = needs(*b).then(|| {
                        walk.grad(i, SECOND, |data| av.matmul_transposed_lhs_into(&upstream.tensor, data))
                    });
                    walk.hand_back(upstream);
                    if let Some(ga) = ga {
                        walk.accumulate(*a, ga);
                    }
                    if let Some(gb) = gb {
                        walk.accumulate(*b, gb);
                    }
                }
                Op::MatMulLookup { a, w, classes } => {
                    // `a` needs no gradient (`Tape::matmul_lookup` checks).
                    let (av, wv) = (value_of(nodes, *a), value_of(nodes, *w));
                    if needs(*w) {
                        let classes = &indices[classes.clone()];
                        let gw = walk.grad(i, SECOND, |data| {
                            av.matmul_lookup_weight_grad(classes, wv, &upstream.tensor, data)
                        });
                        walk.accumulate(*w, gw);
                    }
                    walk.hand_back(upstream);
                }
                Op::Act(a, act) => {
                    act.grad_from_output(&mut upstream.tensor, node.value.tensor());
                    walk.accumulate(*a, upstream);
                }
                Op::Exp(a) => {
                    upstream.tensor.zip_assign(node.value.tensor(), |g, y| g * y);
                    walk.accumulate(*a, upstream);
                }
                Op::SumAll(a) => {
                    let (av, g) = (value_of(nodes, *a), upstream.tensor.item());
                    let ga = walk.grad(i, FIRST, |mut data| {
                        cleared(&mut data, av.numel()).resize(av.numel(), g);
                        Tensor::from_vec(data, av.shape())
                    });
                    walk.hand_back(upstream);
                    walk.accumulate(*a, ga);
                }
                #[cfg(test)]
                Op::SumRows(a) => {
                    let av = value_of(nodes, *a);
                    let (rows, cols) = (av.rows(), av.cols());
                    let ga = walk.grad(i, FIRST, |mut data| {
                        let ga = cleared(&mut data, rows * cols);
                        for _ in 0..rows {
                            ga.extend_from_slice(upstream.tensor.data());
                        }
                        Tensor::from_vec(data, &[rows, cols])
                    });
                    walk.hand_back(upstream);
                    walk.accumulate(*a, ga);
                }
                Op::ConcatCols(a, b) => {
                    let av = value_of(nodes, *a);
                    let (rows, ca, cb) = (av.rows(), av.cols(), value_of(nodes, *b).cols());
                    let g = upstream.tensor.data();
                    // The columns `from..to` of every `[ca + cb]`-wide row.
                    let split = |from: usize, to: usize, mut part: Vec<f32>| {
                        let out = cleared(&mut part, rows * (to - from));
                        for r in 0..rows {
                            out.extend_from_slice(&g[r * (ca + cb) + from..r * (ca + cb) + to]);
                        }
                        Tensor::from_vec(part, &[rows, to - from])
                    };
                    let ga = needs(*a).then(|| walk.grad(i, FIRST, |data| split(0, ca, data)));
                    let gb = needs(*b).then(|| walk.grad(i, SECOND, |data| split(ca, ca + cb, data)));
                    walk.hand_back(upstream);
                    if let Some(ga) = ga {
                        walk.accumulate(*a, ga);
                    }
                    if let Some(gb) = gb {
                        walk.accumulate(*b, gb);
                    }
                }
                Op::GatherRows(a, list) => {
                    let av = value_of(nodes, *a);
                    let (rows, cols) = (av.rows(), av.cols());
                    let ga = walk.grad(i, FIRST, |mut data| {
                        let ga = zeroed(&mut data, rows * cols);
                        for (row, &idx) in indices[list.clone()].iter().enumerate() {
                            let g_row = &upstream.tensor.data()[row * cols..(row + 1) * cols];
                            for (o, &g) in ga[idx * cols..(idx + 1) * cols].iter_mut().zip(g_row) {
                                *o += g;
                            }
                        }
                        Tensor::from_vec(data, &[rows, cols])
                    });
                    walk.hand_back(upstream);
                    walk.accumulate(*a, ga);
                }
                #[cfg(test)]
                Op::ScatterAddRows(a, list) => {
                    let cols = value_of(nodes, *a).cols();
                    let indices = &indices[list.clone()];
                    let ga = walk.grad(i, FIRST, |mut data| {
                        let ga = cleared(&mut data, indices.len() * cols);
                        for &idx in indices {
                            ga.extend_from_slice(&upstream.tensor.data()[idx * cols..(idx + 1) * cols]);
                        }
                        Tensor::from_vec(data, &[indices.len(), cols])
                    });
                    walk.hand_back(upstream);
                    walk.accumulate(*a, ga);
                }
                Op::Transpose(a) => {
                    let (r, c) = (upstream.tensor.rows(), upstream.tensor.cols());
                    if r == 1 || c == 1 {
                        // A vector transpose permutes nothing: move the owned
                        // gradient buffer under the flipped shape instead of
                        // running a strided copy (the policy head's
                        // `[K + 1, 1]` → `[1, K + 1]` logit transpose hits
                        // this on every transition evaluation).
                        let Grad { tensor, home } = upstream;
                        walk.accumulate(*a, Grad { tensor: tensor.into_reshape(&[c, r]), home });
                    } else {
                        let ga = walk.grad(i, FIRST, |data| upstream.tensor.transpose_into(data));
                        walk.hand_back(upstream);
                        walk.accumulate(*a, ga);
                    }
                }
                Op::SegmentSoftmax(a, segments, num_segments) => {
                    let (y, segments) = (node.value.tensor().data(), &indices[segments.clone()]);
                    // dL/dx_i = y_i * (g_i - sum_{j in seg(i)} g_j y_j)
                    let mut seg_dot = walk.take(i, SCRATCH);
                    let dots = zeroed(&mut seg_dot, *num_segments);
                    for ((&g, &yv), &s) in upstream.tensor.data().iter().zip(y).zip(segments) {
                        dots[s] += g * yv;
                    }
                    for ((g, &yv), &s) in upstream.tensor.data_mut().iter_mut().zip(y).zip(segments) {
                        *g = yv * (*g - dots[s]);
                    }
                    walk.put(i, SCRATCH, seg_dot);
                    walk.accumulate(*a, upstream);
                }
                Op::GatherScatterRows { a, scale, src, dst } => {
                    // The three unfused arms in one pass over the index
                    // pairs: the scatter's backward reads row `dst[i]` of the
                    // gradient, the product's backward dots it with
                    // `a[src[i]]` for the scale and scales it for the row,
                    // the gather's backward adds that into row `src[i]` — in
                    // `i` order, as the gather's own loop did.
                    let (src, dst) = (&indices[src.clone()], &indices[dst.clone()]);
                    let av = value_of(nodes, *a);
                    let (rows, cols) = (av.rows(), av.cols());
                    let g = upstream.tensor.data();
                    let scales = value_of(nodes, *scale).data();
                    if needs(*scale) {
                        let gscale = walk.grad(i, SECOND, |mut data| {
                            edge_dots(g, av.data(), cols, dst, src, &mut data);
                            Tensor::from_vec(data, &[src.len(), 1])
                        });
                        walk.accumulate(*scale, gscale);
                    }
                    if needs(*a) {
                        let ga = walk.grad(i, FIRST, |mut data| {
                            add_rows_along(zeroed(&mut data, rows * cols), g, cols, dst, src, scales);
                            Tensor::from_vec(data, &[rows, cols])
                        });
                        walk.accumulate(*a, ga);
                    }
                    walk.hand_back(upstream);
                }
                Op::SumRowRuns(a, runs) => {
                    // Every row of a run receives its segment's gradient
                    // row; runs in list order, rows ascending — the order the
                    // expanded gather's backward added them in.
                    let av = value_of(nodes, *a);
                    let (rows, cols) = (av.rows(), av.cols());
                    let ga = walk.grad(i, FIRST, |mut data| {
                        let ga = zeroed(&mut data, rows * cols);
                        for run in indices[runs.clone()].chunks_exact(3) {
                            let (start, len, segment) = (run[0], run[1], run[2]);
                            let g_row = &upstream.tensor.data()[segment * cols..(segment + 1) * cols];
                            for row in ga[start * cols..(start + len) * cols].chunks_exact_mut(cols) {
                                for (o, &g) in row.iter_mut().zip(g_row) {
                                    *o += g;
                                }
                            }
                        }
                        Tensor::from_vec(data, &[rows, cols])
                    });
                    walk.hand_back(upstream);
                    walk.accumulate(*a, ga);
                }
                Op::LogSoftmaxRow(a) => {
                    // y = x - logsumexp(x); dx = g - softmax(x) * sum(g)
                    let g_sum: f32 = upstream.tensor.data().iter().sum();
                    upstream.tensor.zip_assign(node.value.tensor(), |g, yv| g - yv.exp() * g_sum);
                    walk.accumulate(*a, upstream);
                }
                Op::Pick(a, index) => {
                    let (av, g) = (value_of(nodes, *a), upstream.tensor.item());
                    let ga = walk.grad(i, FIRST, |mut data| {
                        zeroed(&mut data, av.numel())[*index] = g;
                        Tensor::from_vec(data, av.shape())
                    });
                    walk.hand_back(upstream);
                    walk.accumulate(*a, ga);
                }
                Op::Clamp(a, lo, hi) => {
                    let (lo, hi) = (*lo, *hi);
                    upstream
                        .tensor
                        .zip_assign(value_of(nodes, *a), |g, x| if x > lo && x < hi { g } else { 0.0 });
                    walk.accumulate(*a, upstream);
                }
                Op::Minimum(a, b) => {
                    let (av, bv) = (value_of(nodes, *a), value_of(nodes, *b));
                    let ga = walk.grad(i, FIRST, |mut data| {
                        let pairs = av.data().iter().zip(bv.data());
                        cleared(&mut data, av.numel()).extend(
                            upstream
                                .tensor
                                .data()
                                .iter()
                                .zip(pairs)
                                .map(|(&g, (&x, &y))| if x <= y { g } else { 0.0 }),
                        );
                        Tensor::from_vec(data, av.shape())
                    });
                    if needs(*b) {
                        upstream.tensor.zip_assign(&ga.tensor, |g, ga| g - ga);
                    }
                    if needs(*a) {
                        walk.accumulate(*a, ga);
                    } else {
                        walk.hand_back(ga);
                    }
                    if needs(*b) {
                        walk.accumulate(*b, upstream);
                    } else {
                        walk.hand_back(upstream);
                    }
                }
            }
        }
    }
}

/// `out[write[i]] += from[read[i]] * scales[i]` over `cols`-wide rows, for
/// `i` ascending: the forward pass of [`Tape::gather_scatter_rows`]
/// (`read = src`, `write = dst`) and, with the index lists swapped and the
/// upstream gradient as `from`, the row half of its backward pass.
fn add_rows_along(
    out: &mut [f32],
    from: &[f32],
    cols: usize,
    read: &[usize],
    write: &[usize],
    scales: &[f32],
) {
    for ((&r, &w), &scale) in read.iter().zip(write).zip(scales) {
        let out_row = &mut out[w * cols..(w + 1) * cols];
        let from_row = &from[r * cols..(r + 1) * cols];
        for (o, &x) in out_row.iter_mut().zip(from_row) {
            *o += x * scale;
        }
    }
}

/// `sum[c] += rows[0][c] + rows[1][c] + …` for every column: one running sum
/// per column, rows ascending — the arithmetic of adding the rows into `sum`
/// one after the other. Columns go [`SUM_LANES`] at a time with the running
/// sums in a local array, so a run of rows costs one load per element and no
/// store until its end.
fn sum_rows_into(sum: &mut [f32], rows: &[f32], cols: usize) {
    const SUM_LANES: usize = 32;
    let mut from = 0;
    while from + SUM_LANES <= cols {
        let lanes = &mut sum[from..from + SUM_LANES];
        let mut running = [0.0f32; SUM_LANES];
        running.copy_from_slice(lanes);
        for row in rows.chunks_exact(cols) {
            for (r, &x) in running.iter_mut().zip(&row[from..from + SUM_LANES]) {
                *r += x;
            }
        }
        lanes.copy_from_slice(&running);
        from += SUM_LANES;
    }
    if from < cols {
        for row in rows.chunks_exact(cols) {
            for (s, &x) in sum[from..].iter_mut().zip(&row[from..]) {
                *s += x;
            }
        }
    }
}

/// In-place `x * s` — the arithmetic of [`Tensor::scale`].
fn scale_in_place(t: &mut Tensor, s: f32) {
    for x in t.data_mut() {
        *x *= s;
    }
}

/// The bias gradient of a bias-add: the rows of `grad` summed in row order
/// into a tensor shaped like `bias`, in `sums`' storage.
fn column_sums(grad: &Tensor, bias: &Tensor, mut sums: Vec<f32>) -> Tensor {
    let out = zeroed(&mut sums, bias.numel());
    for row in grad.data().chunks_exact(bias.numel()) {
        for (sum, &g) in out.iter_mut().zip(row) {
            *sum += g;
        }
    }
    Tensor::from_vec(sums, bias.shape())
}

/// The unfused forms of the shipped row reductions, kept as the chain
/// oracles the tests compare [`Tape::gather_scatter_rows`] and
/// [`Tape::sum_row_runs`] against: no shipped code sums rows without runs or
/// scatters without the fused gather.
#[cfg(test)]
impl Tape {
    /// Sums over the row axis, producing a `[1, cols]` matrix.
    pub fn sum_rows(&mut self, a: VarId) -> VarId {
        let mut data = self.next_value();
        let av = value_of(&self.nodes, a);
        let (rows, cols) = (av.rows(), av.cols());
        sum_rows_into(zeroed(&mut data, cols), &av.data()[..rows * cols], cols);
        let t = Tensor::from_vec(data, &[1, cols]);
        self.push(Op::SumRows(a), t)
    }

    /// Scatter-adds rows of a `[k, cols]` matrix into an `[out_rows, cols]`
    /// matrix according to `indices` (length `k`).
    pub fn scatter_add_rows(&mut self, a: VarId, indices: &[usize], out_rows: usize) -> VarId {
        let list = self.record_indices(indices.iter().copied());
        let mut data = self.next_value();
        let av = value_of(&self.nodes, a);
        let cols = av.cols();
        assert_eq!(av.rows(), indices.len(), "scatter_add_rows index length mismatch");
        let out = zeroed(&mut data, out_rows * cols);
        for (i, &idx) in indices.iter().enumerate() {
            assert!(idx < out_rows, "scatter index {} out of bounds ({})", idx, out_rows);
            let src = &av.data()[i * cols..(i + 1) * cols];
            for (o, &x) in out[idx * cols..(idx + 1) * cols].iter_mut().zip(src) {
                *o += x;
            }
        }
        let t = Tensor::from_vec(data, &[out_rows, cols]);
        self.push(Op::ScatterAddRows(a, list), t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::XorShiftRng;

    /// Numerically checks the gradient of a scalar function of one parameter.
    fn check_gradient(
        build: impl Fn(&mut Tape, &ParamStore, ParamId) -> VarId,
        initial: Tensor,
        tolerance: f32,
    ) {
        let mut store = ParamStore::new();
        let pid = store.register("p", initial.clone());

        let mut tape = Tape::new();
        let x = tape.param(&store, pid);
        let loss = build(&mut tape, &store, pid);
        let _ = x;
        let mut grads = GradBuffer::zeros_like(&store);
        tape.backward_into(loss, &mut grads);
        let analytic = grads.grad(pid).clone();

        let eps = 1e-3;
        for i in 0..initial.numel() {
            let mut plus = initial.clone();
            plus.data_mut()[i] += eps;
            let mut minus = initial.clone();
            minus.data_mut()[i] -= eps;

            let eval = |t: &Tensor| -> f32 {
                let mut s = ParamStore::new();
                let pid = s.register("p", t.clone());
                let mut tape = Tape::new();
                let loss = build(&mut tape, &s, pid);
                tape.value(loss).item()
            };
            let numeric = (eval(&plus) - eval(&minus)) / (2.0 * eps);
            let a = analytic.data()[i];
            assert!(
                (a - numeric).abs() < tolerance * numeric.abs().max(1.0),
                "gradient mismatch at {}: analytic={}, numeric={}",
                i,
                a,
                numeric
            );
        }
    }

    /// One Adam-driven training step on a tiny store, used by the
    /// exact-resume tests below.
    fn adam_step_on(store: &mut ParamStore, adam: &mut Adam, pid: ParamId, grad: f32) {
        let mut grads = GradBuffer::zeros_like(store);
        grads.accumulate(pid, &Tensor::from_vec(vec![grad], &[1]));
        adam.step(store, &grads);
    }

    /// The whole-tensor form of [`Adam::step`] (nine temporaries per
    /// parameter): the oracle the in-place pass is swept against.
    fn adam_step_composed(adam: &mut Adam, store: &mut ParamStore, grads: &GradBuffer) {
        if adam.m.is_empty() {
            adam.m = GradBuffer::zeros_like(store).grads;
            adam.v = GradBuffer::zeros_like(store).grads;
        }
        adam.t += 1;
        let t = adam.t as f32;
        let bc1 = 1.0 - Adam::BETA1.powf(t);
        let bc2 = 1.0 - Adam::BETA2.powf(t);
        let moments = adam.m.iter_mut().zip(&mut adam.v);
        for ((e, g), (m, v)) in store.entries.iter_mut().zip(&grads.grads).zip(moments) {
            *m = m.scale(Adam::BETA1).add(&g.scale(1.0 - Adam::BETA1));
            *v = v.scale(Adam::BETA2).add(&g.mul(g).scale(1.0 - Adam::BETA2));
            let m_hat = m.scale(1.0 / bc1);
            let v_hat = v.scale(1.0 / bc2);
            let update = m_hat.zip(&v_hat, |m, v| m / (v.sqrt() + Adam::EPS)).scale(adam.lr);
            e.value = Arc::new(e.value.sub(&update));
        }
    }

    #[test]
    fn adam_step_matches_the_composed_form_bit_for_bit() {
        let subnormal = f32::from_bits(0x0000_0400);
        let specials =
            [0.0, -0.0, subnormal, -subnormal, f32::from_bits(1), f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        let mut rng = XorShiftRng::new(17);
        let mut store = ParamStore::new();
        let ids = [store.register("w", Tensor::zeros(&[6, 8])), store.register("b", Tensor::zeros(&[8]))];
        for id in ids {
            let numel = store.value(id).numel();
            let data =
                (0..numel).map(|i| if i % 5 == 0 { subnormal } else { rng.uniform(-2.0, 2.0) }).collect();
            store.set_value(id, Tensor::from_vec(data, store.value(id).shape()));
        }
        let mut oracle_store = store.clone();
        let (mut adam, mut oracle) = (Adam::new(0.01), Adam::new(0.01));
        // Bit for bit, except that a NaN need only be NaN: Rust leaves its
        // sign and payload unspecified.
        let bits = |t: &Tensor| {
            t.data().iter().map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() }).collect::<Vec<_>>()
        };
        for step in 0..12 {
            // Specials land on a different element each step, so some
            // elements see ±inf or NaN after ±0 or a subnormal and vice versa.
            let mut grads = GradBuffer::zeros_like(&store);
            for id in ids {
                let numel = store.value(id).numel();
                let data = (0..numel)
                    .map(|i| match (i + 3 * step) % 11 {
                        k if k < specials.len() => specials[k],
                        _ => rng.uniform(-1.0, 1.0) * 10f32.powi((i % 7) as i32 - 3),
                    })
                    .collect();
                grads.accumulate(id, &Tensor::from_vec(data, store.value(id).shape()));
            }
            adam.step(&mut store, &grads);
            adam_step_composed(&mut oracle, &mut oracle_store, &grads);
            for (e, o) in store.entries.iter().zip(&oracle_store.entries) {
                assert_eq!(bits(&e.value), bits(&o.value), "step {step}: parameter {} differs", e.name);
            }
            for (a, b) in adam.m.iter().chain(&adam.v).zip(oracle.m.iter().chain(&oracle.v)) {
                assert_eq!(bits(a), bits(b), "step {step}: moments differ");
            }
        }
        assert!(
            store.entries.iter().any(|e| e.value.data().iter().any(|x| x.is_nan())),
            "the sweep reached NaN"
        );
    }

    #[test]
    fn adam_step_leaves_a_shared_parameter_to_its_other_owner() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let shared = Arc::clone(store.value_arc(w));
        let mut grads = GradBuffer::zeros_like(&store);
        grads.accumulate(w, &Tensor::from_vec(vec![0.5, -0.5], &[2]));
        Adam::new(0.1).step(&mut store, &grads);
        assert_eq!(shared.data(), [1.0, 2.0], "the other owner still reads the old value");
        assert_ne!(store.value(w).data(), [1.0, 2.0], "the store reads the stepped value");
    }

    #[test]
    fn adam_moments_round_trip_resumes_bit_identically() {
        let mut store = ParamStore::new();
        let mut adam = Adam::new(0.1);
        let pid = store.register("w", Tensor::from_vec(vec![1.0], &[1]));
        adam_step_on(&mut store, &mut adam, pid, 0.5);
        adam_step_on(&mut store, &mut adam, pid, -0.25);

        // Capture the complete optimiser state mid-run.
        let params = store.snapshot();
        let (m, v) = adam.moments(&store);
        let steps = adam.steps();

        // Continue the original run two more steps.
        adam_step_on(&mut store, &mut adam, pid, 0.125);
        adam_step_on(&mut store, &mut adam, pid, 0.0625);
        let uninterrupted = store.value(pid).data().to_vec();

        // Restore into a fresh store and replay the same two steps.
        let mut resumed = ParamStore::new();
        let mut resumed_adam = Adam::new(0.1);
        let rid = resumed.register("w", Tensor::from_vec(vec![0.0], &[1]));
        resumed.load_snapshot(&params).unwrap();
        resumed_adam.load_moments(&resumed, &m, &v).unwrap();
        resumed_adam.set_steps(steps);
        adam_step_on(&mut resumed, &mut resumed_adam, rid, 0.125);
        adam_step_on(&mut resumed, &mut resumed_adam, rid, 0.0625);

        assert_eq!(
            uninterrupted.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            resumed.value(rid).data().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            "resumed Adam state must continue bit-identically"
        );
    }

    #[test]
    fn load_moments_is_all_or_nothing() {
        let mut store = ParamStore::new();
        let mut adam = Adam::new(0.1);
        let pid = store.register("w", Tensor::from_vec(vec![1.0], &[1]));
        adam_step_on(&mut store, &mut adam, pid, 0.5);
        let (good_m, good_v) = adam.moments(&store);

        // Second moments from a different architecture: nothing may be
        // adopted, not even the (valid) first moments.
        let bad_v = ParamSnapshot::new(vec![("w".into(), Tensor::zeros(&[2]))]);
        let before = adam.moments(&store);
        assert!(matches!(
            adam.load_moments(&store, &good_m, &bad_v),
            Err(SnapshotError::ShapeMismatch { .. })
        ));
        assert_eq!(adam.moments(&store), before);

        // Wrong name errors too.
        let bad_name = ParamSnapshot::new(vec![("b".into(), Tensor::zeros(&[1]))]);
        assert!(matches!(
            adam.load_moments(&store, &bad_name, &good_v),
            Err(SnapshotError::NameMismatch { .. })
        ));
        // Wrong count errors.
        let empty = ParamSnapshot::new(vec![]);
        assert!(matches!(
            adam.load_moments(&store, &empty, &good_v),
            Err(SnapshotError::CountMismatch { .. })
        ));
    }

    #[test]
    fn grad_of_square() {
        check_gradient(
            |tape, store, pid| {
                let x = tape.param(store, pid);
                let y = tape.mul(x, x);
                tape.sum_all(y)
            },
            Tensor::from_vec(vec![2.0, -3.0], &[2]),
            1e-2,
        );
    }

    #[test]
    fn grad_of_matmul_chain() {
        check_gradient(
            |tape, store, pid| {
                let w = tape.param(store, pid);
                let x = tape.constant(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]));
                let y = tape.matmul(x, w);
                let z = tape.activate(y, Activation::Relu);
                tape.sum_all(z)
            },
            Tensor::from_vec(vec![0.5, -0.5, 1.0, 0.3, -1.0, 0.7], &[3, 2]),
            1e-2,
        );
    }

    #[test]
    fn grad_of_tanh_leaky_relu_exp() {
        check_gradient(
            |tape, store, pid| {
                let x = tape.param(store, pid);
                let t = tape.activate(x, Activation::Tanh);
                let s = tape.activate(t, Activation::LeakyRelu);
                let e = tape.exp(s);
                tape.sum_all(e)
            },
            Tensor::from_vec(vec![0.2, -0.7, 1.5], &[3]),
            1e-2,
        );
    }

    #[test]
    fn grad_of_log_softmax_pick() {
        check_gradient(
            |tape, store, pid| {
                let x = tape.param(store, pid);
                let ls = tape.log_softmax(x);
                tape.pick(ls, 1)
            },
            Tensor::from_vec(vec![0.1, 0.9, -0.3, 0.4], &[1, 4]),
            1e-2,
        );
    }

    #[test]
    fn grad_of_gather_scatter() {
        check_gradient(
            |tape, store, pid| {
                let x = tape.param(store, pid);
                let g = tape.gather_rows(x, &[0, 1, 1, 2]);
                let s = tape.scatter_add_rows(g, &[0, 0, 1, 1], 2);
                let sq = tape.mul(s, s);
                tape.sum_all(sq)
            },
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]),
            1e-2,
        );
    }

    #[test]
    fn grad_of_segment_softmax() {
        check_gradient(
            |tape, store, pid| {
                let x = tape.param(store, pid);
                let sm = tape.segment_softmax(x, &[0, 0, 1, 1, 1], 2);
                let w = tape.constant(Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.5], &[5, 1]));
                let y = tape.mul(sm, w);
                tape.sum_all(y)
            },
            Tensor::from_vec(vec![0.3, -0.2, 0.9, 0.1, -0.5], &[5, 1]),
            1e-2,
        );
    }

    #[test]
    fn grad_of_bias_and_concat() {
        check_gradient(
            |tape, store, pid| {
                let x = tape.param(store, pid);
                let b = tape.constant(Tensor::from_vec(vec![0.5, -0.5], &[2]));
                let y = tape.add_bias_act(x, b, Activation::Linear);
                let z = tape.concat_cols(x, y);
                let s = tape.mul(z, z);
                tape.sum_all(s)
            },
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]),
            1e-2,
        );
    }

    const ACTIVATIONS: [Activation; 4] =
        [Activation::Linear, Activation::Relu, Activation::LeakyRelu, Activation::Tanh];

    #[test]
    fn grad_of_fused_bias_activations() {
        for act in ACTIVATIONS {
            check_gradient(
                |tape, store, pid| {
                    let x = tape.param(store, pid);
                    let b = tape.constant(Tensor::from_vec(vec![0.4, -0.3], &[2]));
                    let y = tape.add_bias_act(x, b, act);
                    let sq = tape.mul(y, y);
                    tape.sum_all(sq)
                },
                Tensor::from_vec(vec![0.7, -1.2, 0.5, 2.0], &[2, 2]),
                1e-2,
            );
        }
    }

    /// The derivative the standalone activation ops took from their *input*
    /// before `Op::Act` took it from the output.
    fn grad_from_input(act: Activation, g: f32, x: f32) -> f32 {
        match act {
            Activation::Linear => g,
            Activation::Relu => {
                if x > 0.0 {
                    g
                } else {
                    0.0
                }
            }
            Activation::LeakyRelu => {
                if x > 0.0 {
                    g
                } else {
                    LEAKY_SLOPE * g
                }
            }
            Activation::Tanh => {
                let y = x.tanh();
                g * (1.0 - y * y)
            }
        }
    }

    /// The per-element reference for the activation ops: one `match` on the
    /// variant for every element.
    fn apply_per_element(act: Activation, x: f32) -> f32 {
        match act {
            Activation::Linear => x,
            Activation::Relu => x.max(0.0),
            Activation::LeakyRelu => {
                if x > 0.0 {
                    x
                } else {
                    LEAKY_SLOPE * x
                }
            }
            Activation::Tanh => x.tanh(),
        }
    }

    /// Bit equality, except that a NaN only has to meet a NaN: Rust leaves
    /// the sign and payload of a NaN *result* unspecified, and an optimised
    /// build may commute a product of two NaNs, so two compiled copies of
    /// one formula can disagree on them.
    fn same_bits(got: f32, want: f32) -> bool {
        got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
    }

    /// Choosing the activation once per call moves no bit: for every
    /// variant, `add_bias_act` is `act(x + b)` and `activate` is `act(x)`
    /// per element, over ±0, subnormals, ±inf and NaN in both `x` and the
    /// bias (every other element of each; ordinary values between), at a
    /// `[7, 33]` shape that no vector width divides.
    #[test]
    fn act_forward_per_call_matches_the_per_element_reference() {
        let subnormal = f32::from_bits(1);
        let specials = [
            0.0,
            -0.0,
            subnormal,
            -subnormal,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::MAX,
            f32::MIN,
            0.5,
            -0.75,
            20.0,
            -20.0,
        ];
        let (rows, cols) = (7, 33);
        // An odd row length alternates which of `x` and the bias is special
        // from row to row, so special meets special, special meets ordinary
        // and ordinary meets ordinary.
        let value = |i: usize, special: bool| {
            if special {
                specials[(i / 2) % specials.len()]
            } else {
                (i as f32 * 0.37).sin() * 3.0
            }
        };
        let x: Vec<f32> = (0..rows * cols).map(|i| value(i, i % 2 == 0)).collect();
        let bias: Vec<f32> = (0..cols).map(|c| value(c, c % 2 == 1)).collect();
        for act in ACTIVATIONS {
            let mut tape = Tape::new();
            let xv = tape.constant(Tensor::from_vec(x.clone(), &[rows, cols]));
            let bv = tape.constant(Tensor::from_vec(bias.clone(), &[cols]));
            let fused = tape.add_bias_act(xv, bv, act);
            let alone = tape.activate(xv, act);
            for (i, &xi) in x.iter().enumerate() {
                let b = bias[i % cols];
                let (got, want) = (tape.value(fused).data()[i], apply_per_element(act, xi + b));
                assert!(
                    same_bits(got, want),
                    "{act:?} add_bias_act at x = {xi:e}, b = {b:e}: {got:e}, want {want:e}"
                );
                let (got, want) = (tape.value(alone).data()[i], apply_per_element(act, xi));
                assert!(same_bits(got, want), "{act:?} activate at x = {xi:e}: {got:e}, want {want:e}");
            }
        }
    }

    /// Taking the derivative from the output moves no bit against taking it
    /// from the input, over ±0, subnormals, ±inf and NaN: every input meets
    /// every upstream gradient, for every non-linear variant.
    #[test]
    fn act_backward_from_the_output_matches_the_input_based_derivative() {
        let subnormal = f32::from_bits(1);
        let inputs = [
            0.0,
            -0.0,
            subnormal,
            -subnormal,
            f32::MIN_POSITIVE / 3.0,
            -f32::MIN_POSITIVE / 3.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            1e-30,
            -1e-30,
            0.5,
            -0.75,
            3.0,
            -3.0,
            20.0,
            -20.0,
            100.0,
            -100.0,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
        ];
        let upstream = [1.0, -2.5, 0.0, -0.0, subnormal, 1e30, f32::INFINITY, f32::NAN];
        let (x, g): (Vec<f32>, Vec<f32>) =
            inputs.iter().flat_map(|&x| upstream.iter().map(move |&g| (x, g))).unzip();
        let n = x.len();
        for act in &ACTIVATIONS[1..] {
            let mut tape = Tape::new();
            let xv = tape.constant(Tensor::from_vec(x.clone(), &[n]));
            let y = tape.activate(xv, *act);
            let mut grad = Tensor::from_vec(g.clone(), &[n]);
            act.grad_from_output(&mut grad, tape.value(y));
            for i in 0..n {
                let (got, want) = (grad.data()[i], grad_from_input(*act, g[i], x[i]));
                assert!(
                    same_bits(got, want),
                    "{act:?} at x = {:e}, g = {:e}: {got:e} from the output, {want:e} from the input",
                    x[i],
                    g[i]
                );
            }

            // The tape's reverse walk applies the same derivative: through
            // `Σ act(x) ⊙ g` the parameter receives `0.0 + (1.0·g)·act'(x)`.
            let mut store = ParamStore::new();
            let pid = store.register("x", Tensor::from_vec(x.clone(), &[n]));
            let mut tape = Tape::new();
            let xv = tape.param(&store, pid);
            let y = tape.activate(xv, *act);
            let (_, grads) =
                value_and_weighted_grads(&mut tape, y, &Tensor::from_vec(g.clone(), &[n]), &store);
            for i in 0..n {
                let (got, want) = (grads.grad(pid).data()[i], 0.0 + grad_from_input(*act, 1.0 * g[i], x[i]));
                assert!(same_bits(got, want), "{act:?} on the tape at {i}: {got:e}, expected {want:e}");
            }
        }
    }

    /// The parameters of [`recycled_pass`].
    struct PassParams {
        store: ParamStore,
        /// `[4, 6]`, `[6]`, `[6, 6]`, `[3 + 5, 6]`, `[6, 1]`, `[12, 1]`, `[12, 3]`.
        ids: [ParamId; 7],
    }

    fn pass_params() -> PassParams {
        let mut rng = XorShiftRng::new(0x2EC7);
        let mut store = ParamStore::new();
        let shapes: [&[usize]; 7] = [&[4, 6], &[6], &[6, 6], &[8, 6], &[6, 1], &[12, 1], &[12, 3]];
        let ids = shapes.map(|shape| store.register("p", random_tensor(&mut rng, shape).scale(0.5)));
        PassParams { store, ids }
    }

    /// One forward and backward pass through every tape op and every
    /// backward arm, at `rows` graph rows (`2 · rows` edges): each matrix
    /// product form forward (tile, dot) and backward (`Aᵀ·G` tile and axpy,
    /// `G·Bᵀ` tile, outer product and dot), both transposes, an input
    /// gradient shared by several readers. With `plant`, the inputs hold NaN
    /// and ±inf — which every later pass's buffers must overwrite. Returns
    /// the bits of every recorded value and of the parameter gradients, each
    /// NaN as one canonical NaN (Rust leaves a NaN's sign and payload
    /// unspecified).
    fn recycled_pass(tape: &mut Tape, params: &PassParams, rows: usize, plant: bool) -> Vec<u32> {
        let [w, b, square, lookup, column, wide, head] = params.ids.map(|id| tape.param(&params.store, id));
        let mut rng = XorShiftRng::new(rows as u64);
        let mut x = random_tensor(&mut rng, &[rows, 4]);
        if plant {
            let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
            for (i, special) in specials.into_iter().enumerate() {
                x.data_mut()[5 * i + 1] = special;
            }
        }
        let x = tape.constant(x);
        let attributes = tape.constant_with(&[rows, 3], |_, data| {
            data.extend((0..3 * rows).map(|i| if plant && i == 2 { f32::NAN } else { (i % 7) as f32 * 0.25 }))
        });
        let classes: Vec<usize> = (0..rows).map(|r| (3 * r + 1) % 5).collect();
        let src: Vec<usize> = (0..2 * rows).map(|e| (5 * e + 2) % rows).collect();
        let dst: Vec<usize> = (0..2 * rows).map(|e| e % rows).collect();

        let h = tape.matmul(x, w);
        let h = tape.add_bias_act(h, b, Activation::Relu);
        let h = tape.matmul(h, square);
        let l = tape.matmul_lookup(attributes, &classes, lookup);
        let sum = tape.add(h, l);
        let difference = tape.sub(h, l);
        let product = tape.mul(sum, difference);
        let t = tape.activate(product, Activation::Tanh);
        let t = tape.scale(t, 0.5);
        let e = tape.exp(t);
        let n = tape.neg(e);
        let n = tape.add_bias_act(n, b, Activation::LeakyRelu);

        let score = tape.matmul(h, column);
        let edge_scores = tape.gather_rows(score, &dst);
        let edge_scores = tape.activate(edge_scores, Activation::LeakyRelu);
        let alpha = tape.segment_softmax(edge_scores, &dst, rows);
        let aggregated = tape.gather_scatter_rows(sum, alpha, &src, &dst, rows);
        let joined = tape.concat_cols(aggregated, n);
        let transposed = tape.transpose(joined);
        let joined = tape.transpose(transposed);
        let runs =
            [RowRun { start: 0, len: rows, segment: 0 }, RowRun { start: 0, len: rows / 2, segment: 1 }];
        let pooled = tape.sum_row_runs(joined, &runs, 2);
        let scattered = tape.scatter_add_rows(pooled, &[1, 0], 3);
        let summed = tape.sum_rows(scattered);
        let first = tape.gather_rows(pooled, &[0]);
        let logits = tape.matmul(first, head);
        let scores = tape.matmul(pooled, wide);
        let scores = tape.transpose(scores);
        let log_probs = tape.log_softmax(scores);
        let picked = tape.pick(log_probs, 1);
        let clamped = tape.clamp(picked, -0.5, 0.5);
        let smaller = tape.minimum(picked, clamped);
        let terms = [tape.sum_all(logits), tape.sum_all(summed), smaller];
        let loss = tape.add(terms[0], terms[1]);
        let loss = tape.add(loss, terms[2]);

        let mut grads = GradBuffer::zeros_like(&params.store);
        tape.backward_into(loss, &mut grads);
        let canonical = |x: &f32| if x.is_nan() { u32::MAX } else { x.to_bits() };
        let values = (0..tape.len())
            .flat_map(|i| tape.value(VarId(i)).data().iter().map(canonical).collect::<Vec<_>>());
        let gradients =
            params.ids.iter().flat_map(|&id| grads.grad(id).data().iter().map(canonical).collect::<Vec<_>>());
        values.chain(gradients).collect()
    }

    /// A recycled tape must reproduce the exact bits of a fresh tape:
    /// nothing of an earlier pass may leak into the next one. One tape runs
    /// a pass with NaN and ±inf in its inputs, then a smaller one, a larger
    /// one, a smaller one again — every op refilling storage an earlier,
    /// differently sized pass kept (growing it where the pass is larger) —
    /// and each pass's values and gradients equal a fresh tape's.
    #[test]
    fn recycled_tape_is_bit_identical_to_fresh() {
        let params = pass_params();
        let mut recycled = Tape::new();
        for (rows, plant) in [(12, true), (5, false), (16, false), (4, false), (12, false)] {
            recycled.recycle();
            let got = recycled_pass(&mut recycled, &params, rows, plant);
            let want = recycled_pass(&mut Tape::new(), &params, rows, plant);
            assert_eq!(got, want, "{rows} rows (planted specials: {plant}) on a recycled tape");
            if plant {
                assert!(got.contains(&u32::MAX), "the planted specials reach the values");
            }
        }
        // A walk hands every buffer back: a second walk of the same pass
        // finds them and reproduces the first.
        let mut tape = Tape::new();
        let once = recycled_pass(&mut tape, &params, 7, false);
        let loss = VarId(tape.len() - 1);
        let mut grads = GradBuffer::zeros_like(&params.store);
        tape.backward_into(loss, &mut grads);
        let canonical = |x: &f32| if x.is_nan() { u32::MAX } else { x.to_bits() };
        let again: Vec<u32> = params
            .ids
            .iter()
            .flat_map(|&id| grads.grad(id).data().iter().map(canonical).collect::<Vec<_>>())
            .collect();
        assert_eq!(again, once[once.len() - again.len()..], "a second walk of one pass");
    }

    #[test]
    fn zero_filled_buffer_matches_fresh_buffer() {
        let (store, w, _, mut tape, loss) = grad_buffer_fixture();
        let mut fresh = GradBuffer::zeros_like(&store);
        tape.backward_into(loss, &mut fresh);

        let mut reused = GradBuffer::zeros_like(&store);
        tape.backward_into(loss, &mut reused); // dirty it
        reused.zero_fill();
        tape.backward_into(loss, &mut reused);
        assert_eq!(fresh, reused);
        assert_eq!(fresh.grad(w).data(), reused.grad(w).data());
    }

    #[test]
    fn grad_of_minimum_clamp() {
        check_gradient(
            |tape, store, pid| {
                let x = tape.param(store, pid);
                let c = tape.constant(Tensor::from_vec(vec![0.5, 0.5, 0.5], &[3]));
                let m = tape.minimum(x, c);
                let cl = tape.clamp(m, -0.4, 0.45);
                tape.sum_all(cl)
            },
            Tensor::from_vec(vec![0.2, 0.7, -0.6], &[3]),
            1e-2,
        );
    }

    #[test]
    fn grad_of_gather_scatter_rows() {
        // With respect to the rows: repeated sources and destinations, an
        // unused source row and an empty output row.
        check_gradient(
            |tape, store, pid| {
                let x = tape.param(store, pid);
                let scale = tape.constant(Tensor::from_vec(vec![2.0, -1.0, 0.5, 1.5], &[4, 1]));
                let y = tape.gather_scatter_rows(x, scale, &[0, 2, 2, 0], &[1, 1, 3, 0], 4);
                let sq = tape.mul(y, y);
                tape.sum_all(sq)
            },
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]),
            1e-2,
        );
        // With respect to the scale column.
        check_gradient(
            |tape, store, pid| {
                let scale = tape.param(store, pid);
                let x = tape.constant(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]));
                let y = tape.gather_scatter_rows(x, scale, &[0, 2, 2, 0], &[1, 1, 3, 0], 4);
                let sq = tape.mul(y, y);
                tape.sum_all(sq)
            },
            Tensor::from_vec(vec![2.0, -1.0, 0.5, 1.5], &[4, 1]),
            1e-2,
        );
    }

    fn random_tensor(rng: &mut XorShiftRng, shape: &[usize]) -> Tensor {
        Tensor::from_vec((0..shape.iter().product()).map(|_| rng.uniform(-2.0, 2.0)).collect(), shape)
    }

    /// `out`'s value and the parameter gradients of `Σ out ⊙ weights`: every
    /// output element weighted differently, so gradient rows differ and the
    /// order they are accumulated in shows.
    fn value_and_weighted_grads(
        tape: &mut Tape,
        out: VarId,
        weights: &Tensor,
        store: &ParamStore,
    ) -> (Tensor, GradBuffer) {
        let w = tape.constant(weights.clone());
        let weighted = tape.mul(out, w);
        let loss = tape.sum_all(weighted);
        let mut grads = GradBuffer::zeros_like(store);
        tape.backward_into(loss, &mut grads);
        (tape.value(out).clone(), grads)
    }

    fn assert_bits_eq(got: &Tensor, want: &Tensor, context: &str) {
        assert_eq!(got.shape(), want.shape(), "{context}: shape");
        for (i, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{context}: element {i} is {x:e}, expected {y:e}");
        }
    }

    /// The fused gather–scale–scatter must match the chain it replaced to the
    /// bit — forward value and both input gradients — on random inputs whose
    /// index lists repeat sources and destinations, leave a source row
    /// unused and an output row empty. The per-row product of the unfused
    /// chain is written with surviving ops: the scale column times a row of
    /// ones is the scale broadcast over the columns (`0.0 + s · 1.0`), an
    /// element-wise `mul` the product, and the matmul's backward the
    /// ascending-column dot `Σ_c (g·x)·1.0`.
    #[test]
    fn fused_gather_scatter_is_bit_identical_to_unfused() {
        let mut rng = XorShiftRng::new(0x6A7_5CA7);
        for trial in 0..20 {
            let (a_rows, cols, out_rows) = (2 + rng.gen_range(6), 1 + rng.gen_range(7), 3 + rng.gen_range(5));
            let pairs = 1 + rng.gen_range(24);
            // Row 0 of `a` is never read and output row 0 never written.
            let src: Vec<usize> = (0..pairs).map(|_| 1 + rng.gen_range(a_rows - 1)).collect();
            let dst: Vec<usize> = (0..pairs).map(|_| 1 + rng.gen_range(out_rows - 1)).collect();
            let mut store = ParamStore::new();
            let a = store.register("a", random_tensor(&mut rng, &[a_rows, cols]));
            let scale = store.register("scale", random_tensor(&mut rng, &[pairs, 1]));
            let weights = random_tensor(&mut rng, &[out_rows, cols]);

            let context = format!("trial {trial}");
            let finish = |tape: &mut Tape, out: VarId| value_and_weighted_grads(tape, out, &weights, &store);

            let mut fused = Tape::new();
            let av = fused.param(&store, a);
            let sv = fused.param(&store, scale);
            let out = fused.gather_scatter_rows(av, sv, &src, &dst, out_rows);
            let (fused_value, fused_grads) = finish(&mut fused, out);

            let mut unfused = Tape::new();
            let av = unfused.param(&store, a);
            let rows = unfused.gather_rows(av, &src);
            let sv = unfused.param(&store, scale);
            let ones = unfused.constant(Tensor::ones(&[1, cols]));
            let broadcast = unfused.matmul(sv, ones);
            let rows = unfused.mul(rows, broadcast);
            let out = unfused.scatter_add_rows(rows, &dst, out_rows);
            let (value, grads) = finish(&mut unfused, out);

            assert_bits_eq(&fused_value, &value, &format!("{context}: forward"));
            assert!(fused_value.data()[..cols].iter().all(|&x| x == 0.0), "{context}: empty output row");
            assert_bits_eq(fused_grads.grad(a), grads.grad(a), &format!("{context}: gradient of the rows"));
            assert!(grads.grad(a).data()[..cols].iter().all(|&x| x == 0.0), "{context}: unused row");
            assert_bits_eq(
                fused_grads.grad(scale),
                grads.grad(scale),
                &format!("{context}: gradient of the scale"),
            );
            assert!(fused_grads.grad(scale).sq_norm() > 0.0, "{context}: scale gradient");
        }
    }

    /// The dense oracle of [`Tape::matmul_lookup`]: `[a ‖ one_hot(classes)]`
    /// as a tape variable (`a` joined to a constant one-hot), times `w`.
    fn dense_lookup(tape: &mut Tape, a: VarId, classes: &[usize], w: VarId, num_classes: usize) -> VarId {
        let rows = classes.len();
        let mut one_hot = vec![0.0; rows * num_classes];
        for (row, &class) in classes.iter().enumerate() {
            one_hot[row * num_classes + class] = 1.0;
        }
        let one_hot = tape.constant(Tensor::from_vec(one_hot, &[rows, num_classes]));
        let dense = tape.concat_cols(a, one_hot);
        tape.matmul(dense, w)
    }

    /// The node update's lookup against the dense `[x ‖ one_hot] · W`
    /// product it replaces, bit for bit — forward value and weight gradient
    /// — at the node update's 4 attribute columns and 41 classes: every
    /// class, 1 row and the `KC` chunk edges of the backward's `Aᵀ·G` (63,
    /// 64, 65 and 129 rows), attributes with signed zeros and subnormals,
    /// output widths on the dot, tile and tile-remainder paths, and output
    /// gradients with signed zeros and subnormals.
    #[test]
    fn matmul_lookup_is_the_dense_one_hot_product_bit_for_bit() {
        const K: usize = 4;
        const CLASSES: usize = 41;
        let mut rng = XorShiftRng::new(0x0010_0C0B);
        let odd = [-0.0f32, 0.0, 1e-40, -3e-42, f32::MIN_POSITIVE, 2.5e-39];
        let mut cases: Vec<Vec<usize>> = (0..CLASSES).map(|class| vec![class]).collect();
        for rows in [63usize, 64, 65, 129] {
            cases.push((0..rows).map(|row| (row * 7 + rows) % CLASSES).collect());
            // Few classes, long runs of one: its weight row sums many rows.
            cases.push((0..rows).map(|row| [3, 40, 3, 0][row % 4]).collect());
        }
        for classes in &cases {
            let rows = classes.len();
            for n in [1usize, 32, 33] {
                let context = format!("{rows} rows, n = {n}, classes from {}", classes[0]);
                let mut attributes = random_tensor(&mut rng, &[rows, K]);
                for (at, x) in attributes.data_mut().iter_mut().enumerate() {
                    if at % 3 == 0 {
                        *x = odd[at / 3 % odd.len()];
                    }
                }
                let mut weights = random_tensor(&mut rng, &[rows, n]);
                for (at, x) in weights.data_mut().iter_mut().enumerate().step_by(5) {
                    *x = odd[at % odd.len()];
                }
                let mut store = ParamStore::new();
                let w = store.register("w", random_tensor(&mut rng, &[K + CLASSES, n]));
                let finish =
                    |tape: &mut Tape, out: VarId| value_and_weighted_grads(tape, out, &weights, &store);

                let mut tape = Tape::new();
                let (a, wv) = (tape.constant(attributes.clone()), tape.param(&store, w));
                let out = tape.matmul_lookup(a, classes, wv);
                assert_eq!(tape.matmul_shapes().collect::<Vec<_>>(), [[rows, K + CLASSES, n]]);
                let (value, grads) = finish(&mut tape, out);

                let mut tape = Tape::new();
                let (a, wv) = (tape.constant(attributes), tape.param(&store, w));
                let out = dense_lookup(&mut tape, a, classes, wv, CLASSES);
                let (want, want_grads) = finish(&mut tape, out);

                assert_bits_eq(&value, &want, &format!("{context}: forward"));
                assert_bits_eq(grads.grad(w), want_grads.grad(w), &format!("{context}: weight gradient"));
            }
        }
    }

    #[test]
    #[should_panic(expected = "must need no gradient")]
    fn matmul_lookup_rejects_attributes_that_need_a_gradient() {
        let mut store = ParamStore::new();
        let x = store.register("x", Tensor::zeros(&[2, 1]));
        let w = store.register("w", Tensor::zeros(&[3, 2]));
        let mut tape = Tape::new();
        let (a, wv) = (tape.param(&store, x), tape.param(&store, w));
        tape.matmul_lookup(a, &[0, 1], wv);
    }

    /// What the lookup does with non-finite weights: a row reads its own
    /// class's weight row only, so an `inf` in one class's row reaches that
    /// class's output rows and no other — where the dense product's
    /// `0 · inf = NaN` reaches every row — and likewise a NaN output
    /// gradient reaches only its own class's weight-row gradient.
    #[test]
    fn matmul_lookup_reads_only_the_classes_a_row_is() {
        let mut store = ParamStore::new();
        let mut weights = Tensor::from_vec((0..4 * 3).map(|i| i as f32 * 0.25).collect(), &[4, 3]);
        weights.set(&[2, 1], f32::INFINITY); // class 1's weight row, column 1
        let w = store.register("w", weights);
        let mut tape = Tape::new();
        let a = tape.constant(Tensor::from_vec(vec![1.0, -1.0, 0.5], &[3, 1]));
        let wv = tape.param(&store, w);
        let out = tape.matmul_lookup(a, &[0, 1, 2], wv);
        let value = tape.value(out).clone();
        assert!(value.data().iter().enumerate().all(|(i, x)| x.is_finite() != (i == 4)), "{value:?}");
        let dense = dense_lookup(&mut tape, a, &[0, 1, 2], wv, 3);
        let dense = tape.value(dense).data();
        assert!(dense[1].is_nan() && dense[4] == f32::INFINITY && dense[7].is_nan(), "the dense product");

        let mut gradient = Tensor::ones(&[3, 3]);
        gradient.set(&[2, 0], f32::NAN); // a class-2 row
        let (_, grads) = value_and_weighted_grads(&mut tape, out, &gradient, &store);
        let grad = grads.grad(w);
        let non_finite: Vec<usize> = (0..12).filter(|&i| !grad.data()[i].is_finite()).collect();
        // The attribute row's column 0 reads every output row; class 2's row
        // reads row 2; classes 0 and 1 stay finite.
        assert_eq!(non_finite, [0, 9]);
    }

    /// `runs` as the explicit per-row index lists the readout used to build.
    fn expand_runs(runs: &[RowRun]) -> (Vec<usize>, Vec<usize>) {
        let rows = runs.iter().flat_map(|run| run.start..run.start + run.len).collect();
        let segments = runs.iter().flat_map(|run| std::iter::repeat_n(run.segment, run.len)).collect();
        (rows, segments)
    }

    /// Forward value and input gradient of `sum_row_runs` against the
    /// explicit-index chain `gather_rows` → `scatter_add_rows`, to the bit.
    fn assert_row_runs_match_the_index_chain(a: &Tensor, runs: &[RowRun], out_rows: usize, context: &str) {
        let mut store = ParamStore::new();
        let pid = store.register("a", a.clone());
        let mut rng = XorShiftRng::new(0x5EED ^ runs.len() as u64);
        let weights = random_tensor(&mut rng, &[out_rows, a.cols()]);
        let finish = |tape: &mut Tape, out: VarId| value_and_weighted_grads(tape, out, &weights, &store);
        let mut by_runs = Tape::new();
        let av = by_runs.param(&store, pid);
        let out = by_runs.sum_row_runs(av, runs, out_rows);
        let (value, grads) = finish(&mut by_runs, out);

        let (rows, segments) = expand_runs(runs);
        let mut by_index = Tape::new();
        let av = by_index.param(&store, pid);
        let gathered = by_index.gather_rows(av, &rows);
        let out = by_index.scatter_add_rows(gathered, &segments, out_rows);
        let (expected_value, expected_grads) = finish(&mut by_index, out);

        assert_bits_eq(&value, &expected_value, &format!("{context}: forward"));
        assert_bits_eq(grads.grad(pid), expected_grads.grad(pid), &format!("{context}: gradient"));
    }

    fn run(start: usize, len: usize, segment: usize) -> RowRun {
        RowRun { start, len, segment }
    }

    #[test]
    fn row_runs_match_the_index_chain_on_candidate_shaped_lists() {
        // The readout's shape: segment 0 sums rows 0..n, every later segment
        // keeps a prefix of them, skips or replaces a few, and appends rows
        // past n. Widths straddle the kernel's lane count.
        let mut rng = XorShiftRng::new(0x0520_0521);
        for trial in 0..40 {
            let cols = [1, 5, 31, 32, 33, 64, 70][trial % 7];
            let n = 3 + rng.gen_range(40);
            let extra = rng.gen_range(12);
            let a = random_tensor(&mut rng, &[n + extra, cols]);
            let mut runs = vec![run(0, n, 0)];
            let segments = 1 + rng.gen_range(8);
            for segment in 1..=segments {
                let mut next = 0;
                while next < n {
                    // A clean stretch, then an exception: a skipped row or a
                    // row from past the base block.
                    let stretch = rng.gen_range(n - next + 1);
                    runs.push(run(next, stretch, segment));
                    next += stretch + 1;
                    if extra > 0 && rng.gen_range(2) == 0 {
                        runs.push(run(n + rng.gen_range(extra), 1, segment));
                    }
                }
                if extra > 0 {
                    let from = rng.gen_range(extra);
                    runs.push(run(n + from, extra - from, segment));
                }
            }
            // One segment past the last stays empty.
            assert_row_runs_match_the_index_chain(&a, &runs, segments + 2, &format!("trial {trial}"));
        }
    }

    #[test]
    fn row_runs_match_the_index_chain_on_the_lists_a_resumed_sum_can_get_wrong() {
        let mut rng = XorShiftRng::new(0xED6E);
        let mut a = random_tensor(&mut rng, &[12, 40]);
        // Signed zeros, an infinity and a NaN: a resumed sum must have added
        // exactly what a sum from zero adds (`0.0 + -0.0` is `+0.0`, `inf -
        // inf` is NaN from that row on).
        for (row, value) in [(0, -0.0), (1, 0.0), (4, f32::INFINITY), (6, f32::NEG_INFINITY), (9, f32::NAN)] {
            a.data_mut()[row * 40..row * 40 + 20].fill(value);
        }
        let cases: [(&str, Vec<RowRun>); 9] = [
            (
                "prefixes of every length, out of length order",
                vec![
                    run(0, 8, 0),
                    run(0, 8, 1),
                    run(0, 3, 2),
                    run(9, 2, 2),
                    run(0, 5, 3),
                    run(0, 1, 4),
                    run(0, 7, 5),
                    run(8, 4, 5),
                ],
            ),
            (
                "a first exception at row 0: replaced, or skipped",
                vec![run(0, 8, 0), run(10, 1, 1), run(1, 7, 1), run(1, 7, 2), run(0, 4, 3)],
            ),
            (
                "empty runs, first, in the middle and as a whole segment",
                vec![
                    run(0, 8, 0),
                    run(0, 0, 1),
                    run(2, 3, 1),
                    run(0, 2, 2),
                    run(5, 0, 2),
                    run(6, 2, 2),
                    run(3, 0, 3),
                    run(0, 8, 5),
                ],
            ),
            ("no clean prefix anywhere", vec![run(0, 8, 0), run(8, 4, 1), run(2, 2, 2), run(11, 1, 2)]),
            (
                "a prefix longer than the trunk is summed on its own",
                vec![run(0, 4, 0), run(0, 9, 1), run(0, 4, 2)],
            ),
            (
                "a trunk that is not a prefix of anything: it starts at row 1",
                vec![run(1, 7, 0), run(0, 4, 1), run(1, 3, 2)],
            ),
            (
                "the trunk's segment goes on after the trunk",
                vec![run(0, 6, 0), run(8, 3, 0), run(0, 6, 1), run(0, 2, 2), run(8, 3, 2)],
            ),
            (
                "several segments sharing one row: the gradient's accumulation order",
                vec![
                    run(0, 8, 0),
                    run(0, 8, 1),
                    run(3, 1, 1),
                    run(3, 1, 1),
                    run(0, 4, 2),
                    run(3, 2, 2),
                    run(3, 1, 3),
                ],
            ),
            ("nothing at all", vec![]),
        ];
        for (name, runs) in cases {
            assert_row_runs_match_the_index_chain(&a, &runs, 6, name);
        }

        // One run over every row is `sum_rows`.
        let mut tape = Tape::new();
        let av = tape.constant(a.clone());
        let by_runs = tape.sum_row_runs(av, &[run(0, 12, 0)], 1);
        let summed = tape.sum_rows(av);
        assert_bits_eq(tape.value(by_runs), tape.value(summed), "one run is sum_rows");
    }

    #[test]
    #[should_panic(expected = "segments must not decrease")]
    fn row_runs_reject_decreasing_segments() {
        let mut tape = Tape::new();
        let a = tape.constant(Tensor::ones(&[4, 2]));
        tape.sum_row_runs(a, &[run(0, 2, 1), run(0, 2, 0)], 2);
    }

    #[test]
    #[should_panic(expected = "reaches past")]
    fn row_runs_reject_rows_past_the_end() {
        let mut tape = Tape::new();
        let a = tape.constant(Tensor::ones(&[4, 2]));
        tape.sum_row_runs(a, &[run(3, 2, 0)], 1);
    }

    /// Skipping what does not reach a parameter removes only discarded work:
    /// the parameters' gradients are bit-identical whether the network's
    /// input leaves are constants or extra parameters of the same store
    /// (which makes the walk differentiate everything, as it used to).
    #[test]
    fn parameter_gradients_do_not_depend_on_whether_inputs_are_constants() {
        let mut rng = XorShiftRng::new(0xC0_57A7);
        let mut store = ParamStore::new();
        let w = store.register("w", random_tensor(&mut rng, &[5, 4]));
        let b = store.register("b", random_tensor(&mut rng, &[4]));
        let head = store.register("head", random_tensor(&mut rng, &[7, 1]));
        // One leaf per constant-side position the walk special-cases: a
        // matmul's left operand, a concat side, and a mul/sub/minimum operand.
        let leaves = [
            ("input", random_tensor(&mut rng, &[6, 5])),
            ("extra_cols", random_tensor(&mut rng, &[6, 3])),
            ("gain", random_tensor(&mut rng, &[6, 1])),
            ("target", random_tensor(&mut rng, &[6, 1])),
            ("cap", random_tensor(&mut rng, &[6, 1])),
        ];
        let leaf_ids: Vec<ParamId> =
            leaves.iter().map(|(name, value)| store.register(name, value.clone())).collect();

        let run = |as_params: bool| {
            let mut tape = Tape::new();
            let leaf: Vec<VarId> = leaves
                .iter()
                .zip(&leaf_ids)
                .map(
                    |((_, value), &id)| {
                        if as_params {
                            tape.param(&store, id)
                        } else {
                            tape.constant(value.clone())
                        }
                    },
                )
                .collect();
            let (wv, bv, hv) = (tape.param(&store, w), tape.param(&store, b), tape.param(&store, head));
            let xw = tape.matmul(leaf[0], wv);
            let h = tape.add_bias_act(xw, bv, Activation::Tanh);
            let wide = tape.concat_cols(h, leaf[1]);
            let score = tape.matmul(wide, hv);
            let gained = tape.mul(score, leaf[2]);
            let diff = tape.sub(gained, leaf[3]);
            let capped = tape.minimum(diff, leaf[4]);
            let both = tape.add(capped, gained);
            let loss = tape.sum_all(both);
            let mut grads = GradBuffer::zeros_like(&store);
            tape.backward_into(loss, &mut grads);
            grads
        };
        let (with_constants, with_params) = (run(false), run(true));
        for (name, pid) in [("w", w), ("b", b), ("head", head)] {
            assert!(with_constants.grad(pid).sq_norm() > 0.0, "{name}: no gradient");
            assert_bits_eq(with_constants.grad(pid), with_params.grad(pid), name);
        }
        for &leaf in &leaf_ids {
            assert_eq!(with_constants.grad(leaf).sq_norm(), 0.0, "a constant leaf has no gradient slot");
            assert!(with_params.grad(leaf).sq_norm() > 0.0, "a parameter leaf is differentiated");
        }
    }

    /// Moving contributions instead of cloning them must not reorder them: a
    /// node's slot still takes its consumers' contributions in reverse tape
    /// order. In f32 `(1e8 + -1e8) + 1 = 1` but `(1 + -1e8) + 1e8 = 0`.
    #[test]
    fn shared_subexpressions_accumulate_in_reverse_tape_order() {
        let mut store = ParamStore::new();
        let p = store.register("p", Tensor::from_vec(vec![3.0], &[1]));
        let mut tape = Tape::new();
        let pv = tape.param(&store, p);
        let h = tape.scale(pv, 1.0);
        let first = tape.scale(h, 1.0);
        let second = tape.scale(h, -1e8);
        let third = tape.scale(h, 1e8);
        let partial = tape.add(first, second);
        let loss = tape.add(partial, third);
        let mut grads = GradBuffer::zeros_like(&store);
        tape.backward_into(loss, &mut grads);
        assert_eq!(grads.grad(p).item().to_bits(), 1.0f32.to_bits());

        // Both operands of `mul(x, x)` are one slot: g·x, then + g·x.
        let mut tape = Tape::new();
        let pv = tape.param(&store, p);
        let h = tape.scale(pv, 1.0);
        let sq = tape.mul(h, h);
        let loss = tape.sum_all(sq);
        let mut grads = GradBuffer::zeros_like(&store);
        tape.backward_into(loss, &mut grads);
        assert_eq!(grads.grad(p).item().to_bits(), 6.0f32.to_bits());
    }

    #[test]
    fn grad_of_segment_sum_and_sum_rows() {
        check_gradient(
            |tape, store, pid| {
                let x = tape.param(store, pid);
                let pooled = tape.scatter_add_rows(x, &[0, 0, 1], 2);
                let sq = tape.mul(pooled, pooled);
                tape.sum_all(sq)
            },
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]),
            1e-2,
        );
        check_gradient(
            |tape, store, pid| {
                let x = tape.param(store, pid);
                let pooled = tape.sum_rows(x);
                let sq = tape.mul(pooled, pooled);
                tape.sum_all(sq)
            },
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]),
            1e-2,
        );
    }

    #[test]
    fn grad_of_transpose() {
        check_gradient(
            |tape, store, pid| {
                let x = tape.param(store, pid);
                let t = tape.transpose(x);
                let rhs = tape.constant(Tensor::from_vec(vec![1.0, -2.0, 0.5, 3.0, 1.5, -1.0], &[3, 2]));
                let y = tape.matmul(t, rhs);
                let sq = tape.mul(y, y);
                tape.sum_all(sq)
            },
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]),
            1e-2,
        );
    }

    #[test]
    fn segment_sum_rows_matches_sum_rows_for_one_segment() {
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_vec(vec![1.5, -2.0, 0.25, 4.0, 3.0, -1.0], &[3, 2]));
        let seg = tape.scatter_add_rows(x, &[0, 0, 0], 1);
        let sum = tape.sum_rows(x);
        assert_eq!(tape.value(seg), tape.value(sum));
    }

    #[test]
    fn adam_minimises_quadratic() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::from_vec(vec![10.0, -4.0], &[2]));
        let mut adam = Adam::new(0.2);
        let mut grads = GradBuffer::zeros_like(&store);
        for _ in 0..300 {
            let mut tape = Tape::new();
            let wv = tape.param(&store, w);
            let target = tape.constant(Tensor::from_vec(vec![1.0, 2.0], &[2]));
            let diff = tape.sub(wv, target);
            let sq = tape.mul(diff, diff);
            let loss = tape.sum_all(sq);
            grads.zero_fill();
            tape.backward_into(loss, &mut grads);
            adam.step(&mut store, &grads);
        }
        let v = store.value(w);
        assert!((v.data()[0] - 1.0).abs() < 0.05, "got {:?}", v);
        assert!((v.data()[1] - 2.0).abs() < 0.05, "got {:?}", v);
    }

    #[test]
    fn grad_clipping_bounds_norm() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::from_vec(vec![100.0, 100.0], &[2]));
        let mut tape = Tape::new();
        let wv = tape.param(&store, w);
        let sq = tape.mul(wv, wv);
        let loss = tape.sum_all(sq);
        let mut grads = GradBuffer::zeros_like(&store);
        tape.backward_into(loss, &mut grads);
        let before = grads.norm();
        assert!(before > 10.0);
        assert_eq!(grads.clip_norm(1.0).to_bits(), before.to_bits(), "clip_norm returns the pre-clip norm");
        assert!((grads.norm() - 1.0).abs() < 1e-4);
        // Under the bound nothing is scaled.
        let clipped = grads.clone();
        grads.clip_norm(2.0);
        assert_eq!(grads, clipped);
    }

    #[test]
    fn param_store_bookkeeping() {
        let mut store = ParamStore::new();
        assert!(store.is_empty());
        let a = store.register("a", Tensor::zeros(&[2, 3]));
        let b = store.register("b", Tensor::zeros(&[4]));
        assert_eq!(store.len(), 2);
        assert_eq!(store.num_scalars(), 10);
        assert_eq!(store.name(a), "a");
        assert_eq!(store.name(b), "b");
        store.set_value(b, Tensor::ones(&[4]));
        assert_eq!(store.value(b).sum(), 4.0);
    }

    /// Builds a two-parameter store plus a tape computing a loss touching
    /// both parameters (one of them twice, so accumulation order matters).
    fn grad_buffer_fixture() -> (ParamStore, ParamId, ParamId, Tape, VarId) {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::from_vec(vec![1.5, -2.0], &[2]));
        let b = store.register("b", Tensor::from_vec(vec![0.5], &[1]));
        let mut tape = Tape::new();
        let wv = tape.param(&store, w);
        let wv2 = tape.param(&store, w);
        let bv = tape.param(&store, b);
        let prod = tape.mul(wv, wv2);
        let sum = tape.sum_all(prod);
        let bsq = tape.mul(bv, bv);
        let bloss = tape.sum_all(bsq);
        let loss = tape.add(sum, bloss);
        (store, w, b, tape, loss)
    }

    #[test]
    fn grad_buffer_merge_accumulates_in_order() {
        let (store, w, b, mut tape, loss) = grad_buffer_fixture();
        let mut single = GradBuffer::zeros_like(&store);
        tape.backward_into(loss, &mut single);

        // Merging k copies in index order equals k sequential accumulations
        // of the same contribution.
        let mut acc = GradBuffer::zeros_like(&store);
        let mut expected_w = Tensor::zeros(&[2]);
        let mut expected_b = Tensor::zeros(&[1]);
        for _ in 0..3 {
            acc.merge(&single);
            expected_w = expected_w.add(single.grad(w));
            expected_b = expected_b.add(single.grad(b));
        }
        assert_eq!(acc.grad(w).data(), expected_w.data());
        assert_eq!(acc.grad(b).data(), expected_b.data());
        assert_eq!(acc.len(), store.len());
        assert!(!acc.is_empty());
    }

    #[test]
    #[should_panic(expected = "parameter count mismatch")]
    fn adam_step_rejects_mismatched_buffers() {
        let mut store = ParamStore::new();
        store.register("w", Tensor::zeros(&[2]));
        let other = ParamStore::new();
        let buffer = GradBuffer::zeros_like(&other);
        Adam::new(0.1).step(&mut store, &buffer);
    }

    #[test]
    fn gradients_flow_through_shared_parameter() {
        // The same parameter used twice must accumulate both contributions.
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::from_vec(vec![3.0], &[1]));
        let mut tape = Tape::new();
        let a = tape.param(&store, w);
        let b = tape.param(&store, w);
        let prod = tape.mul(a, b); // w^2 -> grad 2w = 6
        let loss = tape.sum_all(prod);
        let mut grads = GradBuffer::zeros_like(&store);
        tape.backward_into(loss, &mut grads);
        assert!((grads.grad(w).item() - 6.0).abs() < 1e-5);
    }
}
