//! Dense, row-major `f32` tensor used by the autodiff tape and the GNN.
//!
//! The tensor type is intentionally small: the X-RLflow agent only needs
//! rank-1/rank-2 tensors (node-feature matrices, weight matrices, logits),
//! so this module favours clarity and predictable performance over
//! generality.
//!
//! ## Hot-path kernels
//!
//! [`Tensor::matmul`] and its transposed-operand variants
//! ([`Tensor::matmul_transposed_rhs`], [`Tensor::matmul_transposed_lhs`])
//! share slice-level kernels with the tape, so the serial oracles and the
//! parallel paths run the *same* floating-point code. Every kernel
//! accumulates each output element as one running sum over the inner
//! dimension in ascending order — the exact per-element arithmetic of the
//! naive triple loop ([`Tensor::matmul_naive`]) — so tiling changes memory
//! traffic, never bits. The kernels contain no value-dependent branches:
//! `0.0 * inf` and `0.0 * NaN` propagate NaN per IEEE 754 (the previous
//! kernel's zero-skip silently dropped them). The two transposed-operand
//! kernels are the matmul backward pass: `Aᵀ·G` (every weight gradient)
//! blocks its reduction index by four with the running sum held in a
//! register between the four ascending steps and has a column (`n == 1`)
//! axpy form; `G·Bᵀ` is an outer product for `q == 1`, the `n == 1` dot
//! path of [`Tensor::matmul`] for a single row, and otherwise packs `Bᵀ`
//! and runs the row-tiled kernel. Shape picks the form, never the bits.

use std::fmt;

/// Maximum tensor rank supported by the inline shape representation.
pub(crate) const MAX_RANK: usize = 4;

/// Inline fixed-capacity shape: dimensions live in the tensor itself, so
/// constructing a tensor from a pooled data buffer performs zero heap
/// allocations. Unused trailing dims are zeroed, keeping derived equality
/// exact.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct Shape {
    dims: [usize; MAX_RANK],
    rank: u8,
}

impl Shape {
    pub(crate) fn from_dims(dims: &[usize]) -> Self {
        assert!(dims.len() <= MAX_RANK, "tensors support at most rank {MAX_RANK}, got {dims:?}");
        let mut out = [0usize; MAX_RANK];
        out[..dims.len()].copy_from_slice(dims);
        Self { dims: out, rank: dims.len() as u8 }
    }

    pub(crate) fn as_slice(&self) -> &[usize] {
        &self.dims[..self.rank as usize]
    }

    pub(crate) fn numel(&self) -> usize {
        self.as_slice().iter().product()
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// A dense, row-major tensor of `f32` values.
///
/// # Examples
///
/// ```
/// use xrlflow_tensor::Tensor;
///
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// assert_eq!(t.shape(), &[2, 2]);
/// assert_eq!(t.get(&[1, 0]), 3.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, ", data={:?})", self.data)
        } else {
            write!(f, ", data=[{:.4}, {:.4}, ..; {}])", self.data[0], self.data[1], self.data.len())
        }
    }
}

impl Tensor {
    /// Creates a tensor from a flat vector and a shape.
    ///
    /// # Panics
    ///
    /// Panics if the number of elements does not match the product of the
    /// shape dimensions.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        Self::from_shape(data, Shape::from_dims(shape))
    }

    /// Creates a tensor from a flat vector and an inline [`Shape`]. This is
    /// the allocation-free construction path the tape's buffer pool uses:
    /// `data` is typically a recycled buffer and `Shape` is `Copy`.
    pub(crate) fn from_shape(data: Vec<f32>, shape: Shape) -> Self {
        assert_eq!(data.len(), shape.numel(), "data length {} does not match shape {:?}", data.len(), shape);
        Self { shape, data }
    }

    /// The tensor's inline shape (`Copy`, for rebuilding same-shaped tensors
    /// without borrowing issues).
    pub(crate) fn shape_c(&self) -> Shape {
        self.shape
    }

    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        let shape = Shape::from_dims(shape);
        Self { data: vec![0.0; shape.numel()], shape }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        let shape = Shape::from_dims(shape);
        Self { data: vec![1.0; shape.numel()], shape }
    }

    /// Creates a tensor filled with a constant value.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let shape = Shape::from_dims(shape);
        Self { data: vec![value; shape.numel()], shape }
    }

    /// Creates a scalar (rank-0 represented as shape `[1]`) tensor.
    pub fn scalar(value: f32) -> Self {
        Self { shape: Shape::from_dims(&[1]), data: vec![value] }
    }

    /// Returns the shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        self.shape.as_slice()
    }

    /// Returns the total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Returns the number of rows when the tensor is interpreted as a matrix.
    ///
    /// Rank-1 tensors are interpreted as a single row.
    pub fn rows(&self) -> usize {
        match self.shape.rank {
            0 | 1 => 1,
            _ => self.shape.dims[0],
        }
    }

    /// Returns the number of columns when the tensor is interpreted as a matrix.
    pub fn cols(&self) -> usize {
        match self.shape.rank {
            0 => 1,
            1 => self.shape.dims[0],
            _ => self.shape.as_slice()[1..].iter().product(),
        }
    }

    /// Returns a slice of the underlying data in row-major order.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Returns a mutable slice of the underlying data in row-major order.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the underlying data vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns the element at the given multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn get(&self, index: &[usize]) -> f32 {
        self.data[self.flat_index(index)]
    }

    /// Sets the element at the given multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let i = self.flat_index(index);
        self.data[i] = value;
    }

    fn flat_index(&self, index: &[usize]) -> usize {
        let shape = self.shape.as_slice();
        assert_eq!(index.len(), shape.len(), "index rank mismatch");
        let mut flat = 0;
        for (i, (&idx, &dim)) in index.iter().zip(shape.iter()).enumerate() {
            assert!(idx < dim, "index {} out of bounds for dim {} (size {})", idx, i, dim);
            flat = flat * dim + idx;
        }
        flat
    }

    /// Returns the value of a single-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(self.data.len(), 1, "item() requires a single-element tensor");
        self.data[0]
    }

    /// Reshapes the tensor without changing its data, deep-copying the data.
    ///
    /// Prefer [`Tensor::into_reshape`] when the original tensor is no longer
    /// needed — it moves the buffer instead of copying it.
    ///
    /// # Panics
    ///
    /// Panics if the new shape has a different number of elements.
    pub fn reshape(&self, shape: &[usize]) -> Self {
        self.clone().into_reshape(shape)
    }

    /// Consuming reshape: reinterprets the existing buffer under a new shape
    /// with zero copies and zero allocations.
    ///
    /// # Examples
    ///
    /// ```
    /// use xrlflow_tensor::Tensor;
    ///
    /// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
    /// let flat = t.into_reshape(&[4]);
    /// assert_eq!(flat.shape(), &[4]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the new shape has a different number of elements.
    pub fn into_reshape(self, shape: &[usize]) -> Self {
        let shape = Shape::from_dims(shape);
        assert_eq!(shape.numel(), self.data.len(), "reshape numel mismatch");
        Self { shape, data: self.data }
    }

    /// Returns a row of a rank-2 tensor as a slice.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2 or the row is out of bounds.
    pub fn row(&self, r: usize) -> &[f32] {
        assert_eq!(self.shape.rank, 2, "row() requires a rank-2 tensor");
        let c = self.shape.dims[1];
        &self.data[r * c..(r + 1) * c]
    }

    /// Applies a function to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self { shape: self.shape, data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Element-wise addition.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Self {
        self.zip(other, |a, b| a + b)
    }

    /// In-place element-wise addition: `self[i] = self[i] + other[i]`.
    ///
    /// The same arithmetic as [`Tensor::add`] (bit-identical results) with
    /// no allocation — the accumulation primitive of gradient buffers, where
    /// a fresh tensor per parameter per merge would dominate the update's
    /// hot path.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "shape mismatch: {:?} vs {:?}", self.shape, other.shape);
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Element-wise subtraction.
    pub fn sub(&self, other: &Tensor) -> Self {
        self.zip(other, |a, b| a - b)
    }

    /// Element-wise multiplication.
    pub fn mul(&self, other: &Tensor) -> Self {
        self.zip(other, |a, b| a * b)
    }

    /// Element-wise binary operation between tensors of identical shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Self {
        assert_eq!(self.shape, other.shape, "shape mismatch: {:?} vs {:?}", self.shape, other.shape);
        Self {
            shape: self.shape,
            data: self.data.iter().zip(other.data.iter()).map(|(&a, &b)| f(a, b)).collect(),
        }
    }

    /// In-place [`Tensor::zip`]: `self[i] = f(self[i], other[i])` — the same
    /// per-element arithmetic with no allocation. The reverse walk transforms
    /// an incoming gradient buffer with this and forwards the buffer itself.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub(crate) fn zip_assign(&mut self, other: &Tensor, f: impl Fn(f32, f32) -> f32) {
        assert_eq!(self.shape, other.shape, "shape mismatch: {:?} vs {:?}", self.shape, other.shape);
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a = f(*a, b);
        }
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Self {
        self.map(|x| x * s)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Maximum element (negative infinity for empty tensors).
    pub fn max(&self) -> f32 {
        self.data.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Squared L2 norm of the tensor.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    fn matmul_dims(&self, other: &Tensor) -> (usize, usize, usize) {
        assert_eq!(self.shape.rank, 2, "matmul lhs must be rank-2, got {:?}", self.shape);
        assert_eq!(other.shape.rank, 2, "matmul rhs must be rank-2, got {:?}", other.shape);
        let (m, k) = (self.shape.dims[0], self.shape.dims[1]);
        let (k2, n) = (other.shape.dims[0], other.shape.dims[1]);
        assert_eq!(k, k2, "matmul inner dim mismatch: {} vs {}", k, k2);
        (m, k, n)
    }

    /// Matrix multiplication of two rank-2 tensors (`[m, k] x [k, n] -> [m, n]`).
    ///
    /// Runs the register-tiled kernel; results are
    /// bit-identical to [`Tensor::matmul_naive`].
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not rank-2 or the inner dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Self {
        let (m, k, n) = self.matmul_dims(other);
        let mut out = vec![0.0f32; m * n];
        matmul_into(&self.data, &other.data, &mut out, m, k, n);
        Self { shape: Shape::from_dims(&[m, n]), data: out }
    }

    /// The reference matrix multiplication: the plain triple loop, kept as
    /// the differential-testing oracle for the tiled kernels. Unlike the
    /// kernel this used to be, it does **not** skip zero elements of the
    /// left-hand side — `0.0 * inf` and `0.0 * NaN` must produce NaN.
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not rank-2 or the inner dimensions differ.
    pub fn matmul_naive(&self, other: &Tensor) -> Self {
        let (m, k, n) = self.matmul_dims(other);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let a = self.data[i * k + p];
                for j in 0..n {
                    out[i * n + j] += a * other.data[p * n + j];
                }
            }
        }
        Self { shape: Shape::from_dims(&[m, n]), data: out }
    }

    /// `self × otherᵀ` without the caller materialising the transpose:
    /// `self` is `[m, q]`, `other` is `[n, q]`, and the result `[m, n]`
    /// satisfies `out[i][j] = Σ_p self[i][p] * other[j][p]` with `p`
    /// ascending — the exact bits of `self.matmul(&other.transpose())`.
    /// The shape picks the kernel's form (outer product, single-row dot,
    /// or pack-then-tile); the form never changes the bits. The matmul
    /// backward pass's `grad × Bᵀ` product runs through this.
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not rank-2 or the shared inner dimensions
    /// differ.
    pub fn matmul_transposed_rhs(&self, other: &Tensor) -> Self {
        assert_eq!(self.shape.rank, 2, "matmul lhs must be rank-2, got {:?}", self.shape);
        assert_eq!(other.shape.rank, 2, "matmul rhs must be rank-2, got {:?}", other.shape);
        let (m, q) = (self.shape.dims[0], self.shape.dims[1]);
        let (n, q2) = (other.shape.dims[0], other.shape.dims[1]);
        assert_eq!(q, q2, "matmul inner dim mismatch: {} vs {}", q, q2);
        let mut out = vec![0.0f32; m * n];
        matmul_transposed_rhs_into(&self.data, &other.data, &mut out, m, q, n);
        Self { shape: Shape::from_dims(&[m, n]), data: out }
    }

    /// `selfᵀ × other` without materialising the transpose: `self` is
    /// `[m, q]`, `other` is `[m, n]`, and the result `[q, n]` satisfies
    /// `out[i][j] = Σ_p self[p][i] * other[p][j]` with `p` ascending — the
    /// exact bits of `self.transpose().matmul(other)`. The backward pass's
    /// `Aᵀ × grad` product runs through this kernel.
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not rank-2 or the shared row counts differ.
    pub fn matmul_transposed_lhs(&self, other: &Tensor) -> Self {
        assert_eq!(self.shape.rank, 2, "matmul lhs must be rank-2, got {:?}", self.shape);
        assert_eq!(other.shape.rank, 2, "matmul rhs must be rank-2, got {:?}", other.shape);
        let (m, q) = (self.shape.dims[0], self.shape.dims[1]);
        let (m2, n) = (other.shape.dims[0], other.shape.dims[1]);
        assert_eq!(m, m2, "matmul inner dim mismatch: {} vs {}", m, m2);
        let mut out = vec![0.0f32; q * n];
        matmul_transposed_lhs_into(&self.data, &other.data, &mut out, m, q, n);
        Self { shape: Shape::from_dims(&[q, n]), data: out }
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2.
    pub fn transpose(&self) -> Self {
        assert_eq!(self.shape.rank, 2, "transpose requires a rank-2 tensor");
        let (m, n) = (self.shape.dims[0], self.shape.dims[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Self { shape: Shape::from_dims(&[n, m]), data: out }
    }

    /// Concatenates rank-2 tensors along the column axis.
    ///
    /// # Panics
    ///
    /// Panics if the tensors do not share the same number of rows or the
    /// input slice is empty.
    pub fn concat_cols(tensors: &[&Tensor]) -> Self {
        assert!(!tensors.is_empty(), "concat_cols requires at least one tensor");
        let rows = tensors[0].rows();
        for t in tensors {
            assert_eq!(t.rows(), rows, "concat_cols row mismatch");
        }
        let total_cols: usize = tensors.iter().map(|t| t.cols()).sum();
        let mut out = vec![0.0f32; rows * total_cols];
        for r in 0..rows {
            let mut offset = 0;
            for t in tensors {
                let c = t.cols();
                out[r * total_cols + offset..r * total_cols + offset + c]
                    .copy_from_slice(&t.data[r * c..(r + 1) * c]);
                offset += c;
            }
        }
        Self { shape: Shape::from_dims(&[rows, total_cols]), data: out }
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[1])
    }
}

/// Rows processed together by the tiled matmul: each streamed row of `b` is
/// reused across this many output rows, quartering the `b` traffic. The
/// working set of the X-RLflow shapes (`k, n ≤ 256`) fits L1, so register
/// reuse — not cache blocking over `k`/`n` — is the lever that matters here.
const MM_ROW_TILE: usize = 4;

/// Writes `a (m×k) × b (k×n)` into `out` (`m×n`), zeroing `out` first.
///
/// Register-tiled over rows ([`MM_ROW_TILE`] output rows share each streamed
/// row of `b`); each output element is one running sum over `p = 0..k` in
/// ascending order, so the result is bit-identical to the naive triple loop
/// for every tile size. There are no value-dependent branches: IEEE
/// `0.0 * inf = NaN` propagates.
pub(crate) fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    out.fill(0.0);
    if n == 1 {
        // Column RHS (the GAT attention projections): each output is a plain
        // dot product of two contiguous slices.
        for (i, o) in out.iter_mut().enumerate() {
            let a_row = &a[i * k..(i + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in a_row.iter().zip(b.iter()) {
                acc += av * bv;
            }
            *o = acc;
        }
        return;
    }
    let mut row = 0;
    let mut tiles = out.chunks_exact_mut(MM_ROW_TILE * n);
    for tile in &mut tiles {
        let (o0, rest) = tile.split_at_mut(n);
        let (o1, rest) = rest.split_at_mut(n);
        let (o2, o3) = rest.split_at_mut(n);
        let a0 = &a[row * k..(row + 1) * k];
        let a1 = &a[(row + 1) * k..(row + 2) * k];
        let a2 = &a[(row + 2) * k..(row + 3) * k];
        let a3 = &a[(row + 3) * k..(row + 4) * k];
        for p in 0..k {
            let b_row = &b[p * n..(p + 1) * n];
            let (c0, c1, c2, c3) = (a0[p], a1[p], a2[p], a3[p]);
            for j in 0..n {
                o0[j] += c0 * b_row[j];
                o1[j] += c1 * b_row[j];
                o2[j] += c2 * b_row[j];
                o3[j] += c3 * b_row[j];
            }
        }
        row += MM_ROW_TILE;
    }
    for out_row in tiles.into_remainder().chunks_exact_mut(n) {
        let a_row = &a[row * k..(row + 1) * k];
        for (p, &av) in a_row.iter().enumerate() {
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                *o += av * bv;
            }
        }
        row += 1;
    }
}

/// Writes `a (m×q) × bt (n×q)ᵀ` into `out` (`m×n`), zeroing `out` first.
/// Every output element is accumulated over `p = 0..q` ascending with a
/// single running sum — bit-identical to `a.matmul(&bt.transpose())`. The
/// shape picks one of three forms, never the bits: a column `a` (`q == 1`)
/// is an outer product; a single row (`m == 1`) is [`matmul_into`]'s
/// `n == 1` dot path with the operands swapped (a `[1, n]` output has the
/// layout of an `[n, 1]` one); every other shape packs `bt` transposed once
/// and runs [`matmul_into`]'s row-tiled kernel, whose independent
/// per-column sums vectorise where dot-product chains cannot.
pub(crate) fn matmul_transposed_rhs_into(
    a: &[f32],
    bt: &[f32],
    out: &mut [f32],
    m: usize,
    q: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), m * q);
    debug_assert_eq!(bt.len(), n * q);
    debug_assert_eq!(out.len(), m * n);
    if q == 1 {
        // Outer product of two columns (the `[R, 1] × a_srcᵀ` input gradient
        // of a GAT attention projection). `0.0 +` is the dot loop's running
        // sum starting at zero: without it a `-0.0` product would keep its
        // sign where every other path rounds it to `+0.0`.
        for (i, &x) in a.iter().enumerate() {
            for (o, &v) in out[i * n..(i + 1) * n].iter_mut().zip(bt) {
                *o = 0.0 + x * v;
            }
        }
        return;
    }
    if m == 1 {
        matmul_into(bt, a, out, n, q, 1);
        return;
    }
    let mut b = vec![0.0f32; q * n];
    for (j, bt_row) in bt.chunks_exact(q).enumerate() {
        for (p, &v) in bt_row.iter().enumerate() {
            b[p * n + j] = v;
        }
    }
    matmul_into(a, &b, out, m, q, n);
}

/// Reduction rows folded into each pass over `out` by
/// [`matmul_transposed_lhs_into`].
const MM_REDUCE_BLOCK: usize = 4;

/// Writes `at (m×q)ᵀ × b (m×n)` into `out` (`q×n`), zeroing `out` first.
/// Each output element is one running sum over `p = 0..m` ascending —
/// bit-identical to `at.transpose().matmul(&b)` without materialising the
/// transpose, with both operands streamed row-contiguously.
///
/// The reduction index is blocked by [`MM_REDUCE_BLOCK`]: an element's
/// running sum is loaded once, takes its four products in ascending `p`
/// order in a register and is stored once, instead of one load and one store
/// of the whole `[q, n]` output per input row (`m` is the row count of a
/// graph block, `q × n` a weight matrix — every weight gradient of the model
/// has this shape). A column `b` (`n == 1`, the attention-vector gradients)
/// runs as `m` axpys into the `q` sums.
pub(crate) fn matmul_transposed_lhs_into(
    at: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    q: usize,
    n: usize,
) {
    debug_assert_eq!(at.len(), m * q);
    debug_assert_eq!(b.len(), m * n);
    debug_assert_eq!(out.len(), q * n);
    out.fill(0.0);
    if n == 1 {
        for (p, &bv) in b.iter().enumerate() {
            for (o, &av) in out.iter_mut().zip(&at[p * q..(p + 1) * q]) {
                *o += av * bv;
            }
        }
        return;
    }
    let mut p = 0;
    while p + MM_REDUCE_BLOCK <= m {
        let a_rows = &at[p * q..(p + MM_REDUCE_BLOCK) * q];
        let b_rows = &b[p * n..(p + MM_REDUCE_BLOCK) * n];
        let (b0, rest) = b_rows.split_at(n);
        let (b1, rest) = rest.split_at(n);
        let (b2, b3) = rest.split_at(n);
        for i in 0..q {
            let (c0, c1, c2, c3) = (a_rows[i], a_rows[q + i], a_rows[2 * q + i], a_rows[3 * q + i]);
            let out_row = &mut out[i * n..(i + 1) * n];
            for ((((o, &v0), &v1), &v2), &v3) in out_row.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
                let mut sum = *o;
                sum += c0 * v0;
                sum += c1 * v1;
                sum += c2 * v2;
                sum += c3 * v3;
                *o = sum;
            }
        }
        p += MM_REDUCE_BLOCK;
    }
    for p in p..m {
        let a_row = &at[p * q..(p + 1) * q];
        let b_row = &b[p * n..(p + 1) * n];
        for (i, &av) in a_row.iter().enumerate() {
            for (o, &bv) in out[i * n..(i + 1) * n].iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::XorShiftRng;

    #[test]
    fn from_vec_and_get() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.get(&[0, 0]), 1.0);
        assert_eq!(t.get(&[1, 2]), 6.0);
        assert_eq!(t.rows(), 2);
        assert_eq!(t.cols(), 3);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_shape_mismatch_panics() {
        Tensor::from_vec(vec![1.0, 2.0], &[3]);
    }

    #[test]
    fn zeros_ones_full() {
        assert_eq!(Tensor::zeros(&[2, 2]).sum(), 0.0);
        assert_eq!(Tensor::ones(&[2, 2]).sum(), 4.0);
        assert_eq!(Tensor::full(&[3], 2.5).sum(), 7.5);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let eye = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0], &[3, 3]);
        assert_eq!(a.matmul(&eye), a);
    }

    #[test]
    #[should_panic(expected = "inner dim mismatch")]
    fn matmul_dim_mismatch_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        a.matmul(&b);
    }

    #[test]
    fn matmul_propagates_nan_and_inf_through_zero_rows() {
        // Regression for the old kernel's `if a == 0.0 { continue }` skip:
        // IEEE 754 defines 0.0 * inf = NaN and 0.0 * NaN = NaN, so a zero in
        // the LHS must NOT silence a non-finite RHS contribution.
        let a = Tensor::from_vec(vec![0.0, 1.0], &[1, 2]);
        let b = Tensor::from_vec(vec![f32::INFINITY, 1.0], &[2, 1]);
        assert!(a.matmul(&b).item().is_nan(), "0 * inf must poison the dot product with NaN");

        let b_nan = Tensor::from_vec(vec![f32::NAN, 1.0], &[2, 1]);
        assert!(a.matmul(&b_nan).item().is_nan(), "0 * NaN must propagate NaN");

        // The naive reference agrees — it is the semantic oracle, not the
        // buggy historical kernel.
        assert!(a.matmul_naive(&b).item().is_nan());
        assert!(a.matmul_naive(&b_nan).item().is_nan());

        // And a genuinely zero product stays finite.
        let zeros = Tensor::zeros(&[1, 2]);
        let finite = Tensor::from_vec(vec![3.0, 4.0], &[2, 1]);
        assert_eq!(zeros.matmul(&finite).item(), 0.0);
    }

    /// Seeded property sweep: the tiled kernel, the transposed-operand
    /// kernels and the naive reference must agree to the BIT on random
    /// shapes. Absolute bit equality is the right tolerance here because
    /// every kernel accumulates each output element over the inner dimension
    /// in the identical ascending order — tiling only changes memory
    /// traffic, never the sequence of floating-point operations per element.
    #[test]
    fn matmul_kernels_match_naive_bit_for_bit() {
        let mut rng = XorShiftRng::new(0xC0FFEE);
        for trial in 0..50 {
            let m = 1 + (rng.next_u64() % 13) as usize;
            let k = 1 + (rng.next_u64() % 17) as usize;
            let n = 1 + (rng.next_u64() % 11) as usize;
            let a = Tensor::from_vec((0..m * k).map(|_| rng.uniform(-2.0, 2.0)).collect(), &[m, k]);
            let b = Tensor::from_vec((0..k * n).map(|_| rng.uniform(-2.0, 2.0)).collect(), &[k, n]);

            let tiled = a.matmul(&b);
            let naive = a.matmul_naive(&b);
            assert_eq!(tiled.shape(), naive.shape());
            for (i, (x, y)) in tiled.data().iter().zip(naive.data()).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "trial {trial} ({m}x{k}x{n}): tiled[{i}]={x} differs from naive[{i}]={y}"
                );
            }

            // a × bᵀᵀ via the transposed-RHS kernel == a × b.
            let via_rhs = a.matmul_transposed_rhs(&b.transpose());
            assert_eq!(via_rhs, naive, "trial {trial}: matmul_transposed_rhs diverges");

            // aᵀᵀ × b via the transposed-LHS kernel == a × b.
            let via_lhs = a.transpose().matmul_transposed_lhs(&b);
            for (x, y) in via_lhs.data().iter().zip(naive.data()) {
                assert_eq!(x.to_bits(), y.to_bits(), "trial {trial}: matmul_transposed_lhs diverges");
            }
        }
    }

    /// Bit equality, with any NaN equal to any NaN: which operand's payload
    /// a `NaN * NaN` keeps is the compiler's choice of operand order, not a
    /// property of the kernel.
    fn assert_same_bits(got: &Tensor, want: &Tensor, context: &str) {
        assert_eq!(got.shape(), want.shape(), "{context}: shape");
        for (i, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
            assert!(
                x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                "{context}: element {i} is {x:e}, the naive oracle says {y:e}"
            );
        }
    }

    /// The backward kernels over the shapes the model has — every blocking
    /// remainder of the reduction (`m`), the `q == 1` outer-product and
    /// `n == 1` axpy paths, `G·Bᵀ`'s single-row form (`m = 1`) and its packed
    /// form at every other `m`, across the old 16-row strategy boundary
    /// (`m = 15, 16, 17`) — against
    /// `transpose()` + `matmul_naive`, with the operands the special paths
    /// could get wrong planted in: `-0.0` (a lone `-0.0` product must still
    /// round to `+0.0` through the running sum), `inf` next to `0.0`
    /// (`0.0 * inf = NaN`) and NaN.
    #[test]
    fn backward_kernels_match_naive_on_model_shapes_and_non_finite_operands() {
        let mut rng = XorShiftRng::new(0xBAC2_BAC2);
        let special = [-0.0f32, 0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -1.5];
        let mut random = |rows: usize, cols: usize, plant: bool| {
            let mut data: Vec<f32> = (0..rows * cols).map(|_| rng.uniform(-2.0, 2.0)).collect();
            if plant {
                for slot in 0..data.len().min(4) {
                    let at = rng.next_u64() as usize % data.len();
                    data[at] = special[(rng.next_u64() as usize + slot) % special.len()];
                }
            }
            Tensor::from_vec(data, &[rows, cols])
        };
        for m in [1usize, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 109] {
            for q in [1usize, 2, 32, 45, 64] {
                for n in [1usize, 2, 32, 45, 64] {
                    for plant in [false, true] {
                        let context = format!("{m}x{q}x{n}, planted specials: {plant}");
                        // Aᵀ·G: A is [m, q], G is [m, n].
                        let (a, g) = (random(m, q, plant), random(m, n, plant));
                        let lhs = a.matmul_transposed_lhs(&g);
                        assert_same_bits(&lhs, &a.transpose().matmul_naive(&g), &format!("lhs {context}"));
                        // G·Bᵀ: G is [m, q], B is [n, q].
                        let (g, b) = (random(m, q, plant), random(n, q, plant));
                        let rhs = g.matmul_transposed_rhs(&b);
                        assert_same_bits(&rhs, &g.matmul_naive(&b.transpose()), &format!("rhs {context}"));
                    }
                }
            }
        }

        // The signed-zero case by construction: one negative-zero product.
        let x = Tensor::from_vec(vec![-0.0, 2.0], &[2, 1]);
        let v = Tensor::from_vec(vec![3.0, -0.0], &[2, 1]);
        let outer = x.matmul_transposed_rhs(&v);
        assert_same_bits(&outer, &x.matmul_naive(&v.transpose()), "outer product of signed zeros");
        assert_eq!(outer.data()[0].to_bits(), 0.0f32.to_bits(), "-0.0 * 3.0 must round to +0.0");
        let column = Tensor::from_vec(vec![-0.0, 0.0], &[2, 1]);
        let axpy = x.matmul_transposed_lhs(&column);
        assert_same_bits(&axpy, &x.transpose().matmul_naive(&column), "axpy of signed zeros");
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let t = a.transpose();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.get(&[2, 1]), 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]);
        assert_eq!(a.add(&b).data(), &[4.0, 6.0]);
        assert_eq!(a.sub(&b).data(), &[-2.0, -2.0]);
        assert_eq!(a.mul(&b).data(), &[3.0, 8.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]);
        assert_eq!(a.sum(), 2.0);
        assert_eq!(a.max(), 3.0);
        assert_eq!(a.sq_norm(), 14.0);
    }

    #[test]
    fn concat_cols_joins_columns() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0], &[2, 1]);
        let c = Tensor::concat_cols(&[&a, &b]);
        assert_eq!(c.shape(), &[2, 3]);
        assert_eq!(c.row(0), &[1.0, 2.0, 5.0]);
        assert_eq!(c.row(1), &[3.0, 4.0, 6.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = a.reshape(&[4]);
        assert_eq!(b.shape(), &[4]);
        assert_eq!(b.data(), a.data());
    }

    #[test]
    fn into_reshape_moves_the_buffer() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let ptr = a.data().as_ptr();
        let b = a.into_reshape(&[4, 1]);
        assert_eq!(b.shape(), &[4, 1]);
        assert_eq!(b.data(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(b.data().as_ptr(), ptr, "into_reshape must not copy the buffer");
    }

    #[test]
    #[should_panic(expected = "reshape numel mismatch")]
    fn into_reshape_rejects_numel_mismatch() {
        Tensor::from_vec(vec![1.0, 2.0], &[2]).into_reshape(&[3]);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(3.5).item(), 3.5);
    }
}
