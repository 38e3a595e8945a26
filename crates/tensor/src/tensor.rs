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
//! are what the tape's forward and backward ops call, so the serial oracles
//! and the parallel paths run the *same* floating-point code. Every kernel
//! accumulates each output element as one running sum over the inner
//! dimension in ascending order — the exact per-element arithmetic of the
//! naive triple loop (`matmul_naive`, test-only, at the end of this module)
//! — so tiling changes memory traffic, never bits. The kernels contain no
//! value-dependent branches: `0.0 * inf` and `0.0 * NaN` propagate NaN per
//! IEEE 754 (an earlier kernel's zero-skip silently dropped them), and no
//! multiply is fused with its add (that rounds once where the oracle rounds
//! twice).
//!
//! All three products run one register tile: `A·B` for `n ≥ 2`, `G·Bᵀ`
//! with `Bᵀ` packed once, and `Aᵀ·G` for `n ≥ 2` with `A` read in place
//! through its strides. The tile keeps an `MR × NR` block of output sums
//! in registers for a chunk of up to `KC` reduction steps and stores each
//! once per chunk. It is one
//! `#[inline(always)]` body compiled three times — for the build's
//! baseline target and, on x86_64, with AVX2 and with AVX-512 enabled —
//! and each call picks the widest form the CPU has (std caches the answer;
//! a build that already targets an instruction set resolves it at compile
//! time). The forms differ in register width and `MR × NR`, never in bits.
//! Beside the tile, shape picks three
//! small forms: `A·B`'s column (`n == 1`) is one dot product per row,
//! `DOT_LANES` rows interleaved so their running sums are independent
//! chains (`edge_dots`, the same interleave over index pairs, is the tape's
//! gather–scale–scatter scale gradient), `G·Bᵀ` is an outer product for
//! `q == 1` and that dot path with the operands swapped for a single row,
//! and `Aᵀ·G`'s column is `m` axpys.
//! The node update's `[x ‖ one_hot] · W` never builds its one-hot
//! (`matmul_lookup`): the attribute columns run through [`Tensor::matmul`]'s
//! kernel and the hot column is a row lookup, forward and backward.
//!
//! Every kernel writes into a buffer its caller hands it: the tape's
//! `*_into` calls pass the storage a recycled tape kept from its last pass
//! (the products overwrite it whole, the `G·Bᵀ` tile packs `Bᵀ` into kept
//! scratch), and the allocating methods ([`Tensor::matmul`] and the rest)
//! pass a fresh `Vec` to the same code.

use std::fmt;

/// Maximum tensor rank supported by the inline shape representation.
pub(crate) const MAX_RANK: usize = 4;

/// Inline fixed-capacity shape: dimensions live in the tensor itself, so a
/// tensor's only heap allocation is its data. Unused trailing dims are
/// zeroed, keeping derived equality exact.
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
        let shape = Shape::from_dims(shape);
        assert_eq!(data.len(), shape.numel(), "data length {} does not match shape {:?}", data.len(), shape);
        Self { shape, data }
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
        self.map_into(f, Vec::new())
    }

    /// [`Tensor::map`] written into `out`'s storage.
    pub(crate) fn map_into(&self, f: impl Fn(f32) -> f32, mut out: Vec<f32>) -> Self {
        cleared(&mut out, self.data.len()).extend(self.data.iter().map(|&x| f(x)));
        Self { shape: self.shape, data: out }
    }

    /// The tensor's storage, for reuse.
    pub(crate) fn into_data(self) -> Vec<f32> {
        self.data
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
        self.zip_into(other, f, Vec::new())
    }

    /// [`Tensor::zip`] written into `out`'s storage.
    pub(crate) fn zip_into(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32, mut out: Vec<f32>) -> Self {
        assert_eq!(self.shape, other.shape, "shape mismatch: {:?} vs {:?}", self.shape, other.shape);
        cleared(&mut out, self.data.len()).extend(self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)));
        Self { shape: self.shape, data: out }
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
    /// Runs the register tile (a column `other`, `n == 1`, is one dot
    /// product per row); results are bit-identical to the plain triple loop
    /// (`matmul_naive`, this module's test-only oracle).
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not rank-2 or the inner dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Self {
        self.matmul_into(other, Vec::new())
    }

    /// [`Tensor::matmul`] written into `out`'s storage.
    pub(crate) fn matmul_into(&self, other: &Tensor, mut out: Vec<f32>) -> Self {
        let (m, k, n) = self.matmul_dims(other);
        product(&self.data, &other.data, m, k, n, &mut out);
        Self { shape: Shape::from_dims(&[m, n]), data: out }
    }

    /// `[self ‖ one_hot(classes)] · w` without the one-hot: `self` is
    /// `[m, k]`, `w` is `[k + c, n]`, and row `i` of the `[m, n]` result is
    /// `self[i] · w[..k]` — the [`Tensor::matmul`] kernel over `w`'s first
    /// `k` rows — plus row `k + classes[i]` of `w`. For finite `w` those are
    /// the bits of the dense product: its `1 · w` term is exact, and each
    /// `0 · w` term adds `±0` to a running sum that starts at `+0.0` and so
    /// is never `-0.0`. A row never reads the weight rows of the classes it
    /// is not, so unlike the dense product an `inf` or NaN there stays out
    /// of it.
    pub(crate) fn matmul_lookup(&self, classes: &[usize], w: &Tensor, mut data: Vec<f32>) -> Self {
        let (m, k, n, _) = self.lookup_dims(classes, w);
        product(&self.data, &w.data[..k * n], m, k, n, &mut data);
        if n > 0 {
            for (out, &class) in data.chunks_exact_mut(n).zip(classes) {
                let at = (k + class) * n;
                for (o, &x) in out.iter_mut().zip(&w.data[at..at + n]) {
                    *o += x;
                }
            }
        }
        Self { shape: Shape::from_dims(&[m, n]), data }
    }

    /// The `[k + c, n]` weight gradient of [`Tensor::matmul_lookup`] for the
    /// output gradient `grad` (`[m, n]`): rows `..k` are `selfᵀ · grad` (the
    /// [`Tensor::matmul_transposed_lhs`] kernel), row `k + j` is
    /// `0.0 + Σ grad[i]` over the rows `i` of class `j`, ascending — the
    /// dense product's `[self ‖ one_hot]ᵀ · grad` bit for bit when `grad` is
    /// finite, with a class's rows reading only its own rows of `grad`.
    /// Written into `data`'s storage.
    pub(crate) fn matmul_lookup_weight_grad(
        &self,
        classes: &[usize],
        w: &Tensor,
        grad: &Tensor,
        mut data: Vec<f32>,
    ) -> Self {
        let (m, k, n, rows) = self.lookup_dims(classes, w);
        assert_eq!(grad.shape(), &[m, n], "matmul_lookup gradient shape");
        transposed_lhs_product(&self.data, &grad.data, m, k, n, &mut data);
        data.resize(rows * n, 0.0);
        if n > 0 {
            for (g, &class) in grad.data.chunks_exact(n).zip(classes) {
                let at = (k + class) * n;
                for (o, &x) in data[at..at + n].iter_mut().zip(g) {
                    *o += x;
                }
            }
        }
        Self { shape: Shape::from_dims(&[rows, n]), data }
    }

    /// `(m, k, n, rows of w)` of a [`Tensor::matmul_lookup`], checked.
    fn lookup_dims(&self, classes: &[usize], w: &Tensor) -> (usize, usize, usize, usize) {
        assert_eq!(self.shape.rank, 2, "matmul_lookup lhs must be rank-2, got {:?}", self.shape);
        assert_eq!(w.shape.rank, 2, "matmul_lookup weight must be rank-2, got {:?}", w.shape);
        let (m, k) = (self.shape.dims[0], self.shape.dims[1]);
        let (rows, n) = (w.shape.dims[0], w.shape.dims[1]);
        assert_eq!(classes.len(), m, "matmul_lookup needs one class per row");
        assert!(
            classes.iter().all(|&class| k + class < rows),
            "matmul_lookup class out of range: {rows} weight rows, {k} of them attribute rows"
        );
        (m, k, n, rows)
    }

    /// `self × otherᵀ` without the caller materialising the transpose:
    /// `self` is `[m, q]`, `other` is `[n, q]`, and the result `[m, n]`
    /// satisfies `out[i][j] = Σ_p self[i][p] * other[j][p]` with `p`
    /// ascending — the exact bits of `self.matmul(&other.transpose())`.
    /// The matmul backward pass's `grad × Bᵀ` product runs through this.
    /// The shape picks one of three forms, never the bits: a column `self`
    /// (`q == 1`) is an outer product; a single row (`m == 1`) is one dot
    /// product per row of `other` (a `[1, n]` output has the layout of an
    /// `[n, 1]` one); every other shape packs `otherᵀ` once and runs the
    /// register tile, whose independent per-column sums vectorise where
    /// dot-product chains cannot.
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not rank-2 or the shared inner dimensions
    /// differ.
    pub fn matmul_transposed_rhs(&self, other: &Tensor) -> Self {
        self.matmul_transposed_rhs_into(other, Vec::new(), &mut Vec::new())
    }

    /// [`Tensor::matmul_transposed_rhs`] written into `out`'s storage, with
    /// the packed `otherᵀ` in `packed`'s.
    pub(crate) fn matmul_transposed_rhs_into(
        &self,
        other: &Tensor,
        mut out: Vec<f32>,
        packed: &mut Vec<f32>,
    ) -> Self {
        assert_eq!(self.shape.rank, 2, "matmul lhs must be rank-2, got {:?}", self.shape);
        assert_eq!(other.shape.rank, 2, "matmul rhs must be rank-2, got {:?}", other.shape);
        let (m, q) = (self.shape.dims[0], self.shape.dims[1]);
        let (n, q2) = (other.shape.dims[0], other.shape.dims[1]);
        assert_eq!(q, q2, "matmul inner dim mismatch: {} vs {}", q, q2);
        if q == 1 {
            // Outer product of two columns (the `[R, 1] × a_srcᵀ` input
            // gradient of a GAT attention projection). `0.0 +` is the
            // running sum starting at zero: without it a `-0.0` product
            // would keep its sign where every other form rounds it to `+0.0`.
            let out = cleared(&mut out, m * n);
            for &x in &self.data {
                out.extend(other.data.iter().map(|&v| 0.0 + x * v));
            }
        } else if m == 1 {
            dot_rows(&other.data, &self.data, n, q, &mut out);
        } else {
            let a = Lhs { data: &self.data, row_stride: q, col_stride: 1 };
            pack_transposed(&other.data, n, q, packed);
            tile_product(a, packed, m, q, n, &mut out);
        }
        Self { shape: Shape::from_dims(&[m, n]), data: out }
    }

    /// `selfᵀ × other` without materialising the transpose: `self` is
    /// `[m, q]`, `other` is `[m, n]`, and the result `[q, n]` satisfies
    /// `out[i][j] = Σ_p self[p][i] * other[p][j]` with `p` ascending — the
    /// exact bits of `self.transpose().matmul(other)`. The backward pass's
    /// `Aᵀ × grad` product (every weight gradient) runs through this: the
    /// register tile reads `self` in place through its strides, and a
    /// column `other` (`n == 1`, the attention-vector gradients) runs as
    /// `m` axpys into the `q` sums.
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not rank-2 or the shared row counts differ.
    pub fn matmul_transposed_lhs(&self, other: &Tensor) -> Self {
        self.matmul_transposed_lhs_into(other, Vec::new())
    }

    /// [`Tensor::matmul_transposed_lhs`] written into `out`'s storage.
    pub(crate) fn matmul_transposed_lhs_into(&self, other: &Tensor, mut out: Vec<f32>) -> Self {
        assert_eq!(self.shape.rank, 2, "matmul lhs must be rank-2, got {:?}", self.shape);
        assert_eq!(other.shape.rank, 2, "matmul rhs must be rank-2, got {:?}", other.shape);
        let (m, q) = (self.shape.dims[0], self.shape.dims[1]);
        let (m2, n) = (other.shape.dims[0], other.shape.dims[1]);
        assert_eq!(m, m2, "matmul inner dim mismatch: {} vs {}", m, m2);
        transposed_lhs_product(&self.data, &other.data, m, q, n, &mut out);
        Self { shape: Shape::from_dims(&[q, n]), data: out }
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2.
    pub fn transpose(&self) -> Self {
        self.transpose_into(Vec::new())
    }

    /// [`Tensor::transpose`] written into `out`'s storage.
    pub(crate) fn transpose_into(&self, mut out: Vec<f32>) -> Self {
        assert_eq!(self.shape.rank, 2, "transpose requires a rank-2 tensor");
        let (m, n) = (self.shape.dims[0], self.shape.dims[1]);
        pack_transposed(&self.data, m, n, &mut out);
        Self { shape: Shape::from_dims(&[n, m]), data: out }
    }

    /// Concatenates rank-2 tensors along the column axis.
    ///
    /// # Panics
    ///
    /// Panics if the tensors do not share the same number of rows or the
    /// input slice is empty.
    pub fn concat_cols(tensors: &[&Tensor]) -> Self {
        Self::concat_cols_into(tensors, Vec::new())
    }

    /// [`Tensor::concat_cols`] written into `out`'s storage.
    pub(crate) fn concat_cols_into(tensors: &[&Tensor], mut out: Vec<f32>) -> Self {
        assert!(!tensors.is_empty(), "concat_cols requires at least one tensor");
        let rows = tensors[0].rows();
        for t in tensors {
            assert_eq!(t.rows(), rows, "concat_cols row mismatch");
        }
        let total_cols: usize = tensors.iter().map(|t| t.cols()).sum();
        let out_data = cleared(&mut out, rows * total_cols);
        for r in 0..rows {
            for t in tensors {
                let c = t.cols();
                out_data.extend_from_slice(&t.data[r * c..(r + 1) * c]);
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

/// Each form's tile is `MR` output rows — each `b` row a step loads is
/// reused across that many rows' sums — by `NR` output columns. In the
/// baseline and AVX2 forms `NR` is four vector registers and `MR` two, so
/// the sums are eight registers — enough independent additions to keep
/// both floating-point ports busy through the add latency — and a row of
/// `b` plus the broadcast `a` value fit beside them in the sixteen
/// registers without spilling. (On an AVX2 Xeon, against 4 × 8, 4 × 16,
/// 6 × 8 and 1 × 32 blocks among others, 2 × 32 read fastest in the AVX2
/// form and 2 × 16 within a few percent of a 1 × 32 block in the baseline
/// form: a shorter, wider block takes fewer broadcasts and index checks
/// per sum, and the model's `n` is 32 or 64.)
const MR_BASELINE: usize = 2;

/// Output columns of the baseline form's tile: four 4-lane SSE2 registers.
const NR_BASELINE: usize = 16;

/// Output rows of the AVX2 form's tile.
#[cfg(target_arch = "x86_64")]
const MR_AVX2: usize = 2;

/// Output columns of the AVX2 form's tile: four 8-lane registers.
#[cfg(target_arch = "x86_64")]
const NR_AVX2: usize = 32;

/// Output rows of the AVX-512 form's tile: its sums are eight of the
/// thirty-two 16-lane registers, AVX2's budget at twice the width. (On an
/// AVX-512 Xeon 4 × 32 read fastest of the 32-column shapes at the policy
/// head's 5–17-row blocks and within a few percent of 6 × 32 and 8 × 32 at
/// the graph blocks' 100–400 rows; 4 × 64 pads the model's 32 columns to
/// 64 and read ≈ 2× slower there.)
#[cfg(target_arch = "x86_64")]
const MR_AVX512: usize = 4;

/// Output columns of the AVX-512 form's tile: two 16-lane registers.
#[cfg(target_arch = "x86_64")]
const NR_AVX512: usize = 32;

/// Reduction steps a block takes before it stores its sums and the next
/// block takes the same steps. A chunk of both operands' rows at the model's
/// widths (`[64, 32]` twice, 16 KB) stays in L1 across the blocks that
/// reread it, where a whole `Aᵀ·G` reduction over a few hundred graph rows
/// would not.
const KC: usize = 64;

/// The tile's left operand, read in place: element `(i, p)` is
/// `data[i * row_stride + p * col_stride]`. A row-major `[m, k]` matrix is
/// `(k, 1)`; the transpose of a row-major `[k, m]` one is `(1, m)`.
#[derive(Clone, Copy)]
struct Lhs<'a> {
    data: &'a [f32],
    row_stride: usize,
    col_stride: usize,
}

/// Empties `buffer` and makes room for `len` elements without copying what
/// it held: the start of an op that pushes exactly `len` elements. A buffer
/// too small is replaced by one rounded up to a power of two (a recycled
/// tape's buffers, see `Tape`, then absorb passes a little larger than the
/// last).
pub(crate) fn cleared(buffer: &mut Vec<f32>, len: usize) -> &mut Vec<f32> {
    if buffer.capacity() < len {
        *buffer = Vec::with_capacity(len.next_power_of_two());
    } else {
        buffer.clear();
    }
    buffer
}

/// `buffer` as `len` elements for a kernel that writes every one of them:
/// the elements it already held keep their stale values (no fill), only new
/// ones are zeroed; a buffer too small is replaced as in [`cleared`].
pub(crate) fn overwritten(buffer: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buffer.capacity() < len {
        *buffer = Vec::with_capacity(len.next_power_of_two());
    }
    buffer.resize(len, 0.0);
    buffer
}

/// `buffer` as `len` zeros, for an op that accumulates into it.
pub(crate) fn zeroed(buffer: &mut Vec<f32>, len: usize) -> &mut [f32] {
    let zeros = overwritten(buffer, len);
    zeros.fill(0.0);
    zeros
}

/// `a (m×k) · b (k×n)`, both row-major, into `out`: the kernel of
/// [`Tensor::matmul`].
fn product(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut Vec<f32>) {
    if n == 1 {
        dot_rows(a, b, m, k, out);
    } else {
        tile_product(Lhs { data: a, row_stride: k, col_stride: 1 }, b, m, k, n, out);
    }
}

/// `aᵀ (q×m) · g (m×n)` for a row-major `a (m×q)`, into `out`: the kernel of
/// [`Tensor::matmul_transposed_lhs`].
fn transposed_lhs_product(a: &[f32], g: &[f32], m: usize, q: usize, n: usize, out: &mut Vec<f32>) {
    if n == 1 {
        let out = zeroed(out, q);
        for (p, &gv) in g[..m].iter().enumerate() {
            for (o, &av) in out.iter_mut().zip(&a[p * q..(p + 1) * q]) {
                *o += av * gv;
            }
        }
    } else {
        tile_product(Lhs { data: a, row_stride: 1, col_stride: q }, g, q, m, n, out);
    }
}

/// `a (m×k) · b (k×n)`, `b` row-major, through the register tile into
/// `out`, which the tile overwrites whole.
fn tile_product(a: Lhs<'_>, b: &[f32], m: usize, k: usize, n: usize, out: &mut Vec<f32>) {
    let out = overwritten(out, m * n);
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            // SAFETY: the CPU supports AVX-512F, checked on the line above.
            unsafe { tile_avx512(a, b, out, m, k, n) };
            return;
        }
        if is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2, checked on the line above.
            unsafe { tile_avx2(a, b, out, m, k, n) };
            return;
        }
    }
    tile_baseline(a, b, out, m, k, n);
}

/// The tile compiled for the build's baseline target.
fn tile_baseline(a: Lhs<'_>, b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    tile::<MR_BASELINE, NR_BASELINE>(a, b, out, m, k, n);
}

/// The same tile compiled with AVX2 enabled (no FMA: the bits do not move).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn tile_avx2(a: Lhs<'_>, b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    tile::<MR_AVX2, NR_AVX2>(a, b, out, m, k, n);
}

/// The same tile compiled with AVX-512F enabled. AVX-512F CPUs have FMA,
/// but Rust never contracts `a * b + c` into one: the bits do not move.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn tile_avx512(a: Lhs<'_>, b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    tile::<MR_AVX512, NR_AVX512>(a, b, out, m, k, n);
}

/// Writes `a (m×k) · b (k×n)` into every element of `out` (`m×n`), one
/// `MR × NR` block at a time. A block's sums stay in registers for a whole
/// chunk of at most [`KC`] reduction steps; each is one running sum
/// `0.0 + a·b + …` over `p = 0..k` ascending, so the result is
/// bit-identical to the naive triple loop for every tile size, chunk size
/// and compilation. There are no value-dependent branches: IEEE
/// `0.0 * inf = NaN` propagates.
#[inline(always)]
fn tile<const MR: usize, const NR: usize>(
    a: Lhs<'_>,
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if k == 0 {
        // An empty reduction: every sum is its starting `0.0`.
        out.fill(0.0);
        return;
    }
    for p in (0..k).step_by(KC) {
        let steps = KC.min(k - p);
        let (a, b) = (Lhs { data: &a.data[p * a.col_stride..], ..a }, &b[p * n..]);
        let from_row = |i: usize| Lhs { data: &a.data[i * a.row_stride..], ..a };
        let full = m - m % MR;
        for i in (0..full).step_by(MR) {
            tile_rows::<MR, NR>(from_row(i), b, &mut out[i * n..], steps, n, p == 0);
        }
        // A last block of fewer than `MR` rows runs as one-row blocks.
        for i in full..m {
            tile_rows::<1, NR>(from_row(i), b, &mut out[i * n..], steps, n, p == 0);
        }
    }
}

/// One chunk of `R` output rows of [`tile`]: its `R × NR` blocks from the
/// first column to the last.
#[inline(always)]
fn tile_rows<const R: usize, const NR: usize>(
    a: Lhs<'_>,
    b: &[f32],
    out: &mut [f32],
    steps: usize,
    n: usize,
    first: bool,
) {
    for j in (0..n).step_by(NR) {
        let block = Block { cols: NR.min(n - j), steps, n, first };
        tile_block::<R, NR>(a, &b[j..], &mut out[j..], block);
    }
}

/// Where one [`tile_block`] call sits in the product.
#[derive(Clone, Copy)]
struct Block {
    /// Output columns it stores, `≤ NR`.
    cols: usize,
    /// Reduction steps it takes, `≤ KC`.
    steps: usize,
    /// Row stride of `b` and `out`.
    n: usize,
    /// Whether these are the first steps; later chunks resume the sums
    /// the previous chunk stored.
    first: bool,
}

/// One `R × NR` block of [`tile`]: `a`'s first `R` rows times the first
/// `block.cols` columns of `b`'s rows, into `out`'s first `R` rows, over
/// `block.steps` reduction steps. The sums and `b`'s block row are moved
/// by value, never sliced at a run-time length, so they stay in
/// registers; a narrow block pads `b` with zeros into lanes it never
/// stores. Storing a sum and loading it for the next chunk is an exact
/// `f32` round trip, so the running sum continues bit for bit.
#[inline(always)]
fn tile_block<const R: usize, const NR: usize>(a: Lhs<'_>, b: &[f32], out: &mut [f32], block: Block) {
    let Block { cols, steps, n, first } = block;
    let mut sums = [[0.0f32; NR]; R];
    if cols == NR {
        if !first {
            for (r, row) in sums.iter_mut().enumerate() {
                *row = out[r * n..][..NR].try_into().expect("a full block row");
            }
        }
        for p in 0..steps {
            let b_row: [f32; NR] = b[p * n..][..NR].try_into().expect("a full block row");
            tile_step(&mut sums, a, p, b_row);
        }
        for (r, row) in sums.into_iter().enumerate() {
            let dst: &mut [f32; NR] = (&mut out[r * n..][..NR]).try_into().expect("a full block row");
            *dst = row;
        }
    } else {
        let padded = |row: &[f32]| std::array::from_fn(|c| if c < cols { row[c] } else { 0.0 });
        if !first {
            for (r, row) in sums.iter_mut().enumerate() {
                *row = padded(&out[r * n..][..cols]);
            }
        }
        for p in 0..steps {
            tile_step(&mut sums, a, p, padded(&b[p * n..][..cols]));
        }
        for (r, row) in sums.into_iter().enumerate() {
            out[r * n..][..cols].copy_from_slice(&row[..cols]);
        }
    }
}

/// Adds reduction step `p` to every sum of a block.
#[inline(always)]
fn tile_step<const R: usize, const NR: usize>(
    sums: &mut [[f32; NR]; R],
    a: Lhs<'_>,
    p: usize,
    b_row: [f32; NR],
) {
    for (r, row) in sums.iter_mut().enumerate() {
        let x = a.data[r * a.row_stride + p * a.col_stride];
        for (s, v) in row.iter_mut().zip(b_row) {
            *s += x * v;
        }
    }
}

/// Rows (or edges) an interleaved dot product advances together: each keeps
/// its own running sum, so the additions of a step are independent where
/// one row's sum is one dependency chain.
const DOT_LANES: usize = 8;

/// Reduction steps of the lanes' rows an interleaved dot product transposes
/// into a local block at a time, so each step adds one lane-wide vector.
const DOT_STEPS: usize = 8;

/// `DOT_LANES` dot products at once: lane `l` is `0.0 + Σ_p a[l][p] · b[p]`
/// with `p` ascending — the arithmetic of one row's loop, only interleaved
/// with its neighbours'. Every row of `a` is `b.len()` long.
#[inline(always)]
fn dot_lanes(a: [&[f32]; DOT_LANES], b: &[f32]) -> [f32; DOT_LANES] {
    let mut sums = [0.0f32; DOT_LANES];
    let whole = b.len() - b.len() % DOT_STEPS;
    for p in (0..whole).step_by(DOT_STEPS) {
        let mut block = [[0.0f32; DOT_LANES]; DOT_STEPS];
        for (lane, row) in a.iter().enumerate() {
            let steps: &[f32; DOT_STEPS] = row[p..p + DOT_STEPS].try_into().expect("a whole block of steps");
            for (step, &x) in block.iter_mut().zip(steps) {
                step[lane] = x;
            }
        }
        for (step, &bv) in block.iter().zip(&b[p..p + DOT_STEPS]) {
            for (sum, &x) in sums.iter_mut().zip(step) {
                *sum += x * bv;
            }
        }
    }
    for (p, &bv) in b.iter().enumerate().skip(whole) {
        for (sum, row) in sums.iter_mut().zip(&a) {
            *sum += row[p] * bv;
        }
    }
    sums
}

/// `0.0 + Σ_p a[p] · b[p]`, `p` ascending: one lane of an interleaved dot
/// product.
#[inline(always)]
fn dot(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (&av, &bv) in a.iter().zip(b) {
        acc += av * bv;
    }
    acc
}

/// `0.0 + Σ_c g[dst[i]][c] · a[src[i]][c]`, `c` ascending, per index pair
/// `i` over `cols`-wide rows: the scale gradient of
/// `Tape::gather_scatter_rows`. Pairs go [`DOT_LANES`] at a time, each
/// with its own running sum; [`DOT_STEPS`] columns at a time, the lanes'
/// products are transposed into a local block so a column's additions are
/// one lane-wide vector. Written into `out`'s storage.
pub(crate) fn edge_dots(g: &[f32], a: &[f32], cols: usize, dst: &[usize], src: &[usize], out: &mut Vec<f32>) {
    fn row(data: &[f32], r: usize, cols: usize) -> &[f32] {
        &data[r * cols..(r + 1) * cols]
    }
    let out = cleared(out, src.len());
    let full = src.len() - src.len() % DOT_LANES;
    let whole = cols - cols % DOT_STEPS;
    for (dst, src) in dst[..full].chunks_exact(DOT_LANES).zip(src[..full].chunks_exact(DOT_LANES)) {
        let g_rows: [&[f32]; DOT_LANES] = std::array::from_fn(|lane| row(g, dst[lane], cols));
        let a_rows: [&[f32]; DOT_LANES] = std::array::from_fn(|lane| row(a, src[lane], cols));
        let mut sums = [0.0f32; DOT_LANES];
        for c in (0..whole).step_by(DOT_STEPS) {
            let mut products = [[0.0f32; DOT_LANES]; DOT_STEPS];
            for (lane, (g_row, a_row)) in g_rows.iter().zip(&a_rows).enumerate() {
                let g_steps: &[f32; DOT_STEPS] = g_row[c..c + DOT_STEPS].try_into().expect("whole steps");
                let a_steps: &[f32; DOT_STEPS] = a_row[c..c + DOT_STEPS].try_into().expect("whole steps");
                for ((step, &gv), &x) in products.iter_mut().zip(g_steps).zip(a_steps) {
                    step[lane] = gv * x;
                }
            }
            for step in &products {
                for (sum, &product) in sums.iter_mut().zip(step) {
                    *sum += product;
                }
            }
        }
        for c in whole..cols {
            for ((sum, g_row), a_row) in sums.iter_mut().zip(&g_rows).zip(&a_rows) {
                *sum += g_row[c] * a_row[c];
            }
        }
        out.extend_from_slice(&sums);
    }
    out.extend(dst[full..].iter().zip(&src[full..]).map(|(&d, &s)| dot(row(g, d, cols), row(a, s, cols))));
}

/// One dot product per row of `a (m×k)` with the column `b (k)`: the
/// `n == 1` form of [`Tensor::matmul`] and, operands swapped, the `m == 1`
/// form of [`Tensor::matmul_transposed_rhs`]. Rows go [`DOT_LANES`] at a
/// time, the last `m % DOT_LANES` one by one. Written into `out`'s storage.
fn dot_rows(a: &[f32], b: &[f32], m: usize, k: usize, out: &mut Vec<f32>) {
    let b = &b[..k];
    let out = cleared(out, m);
    let full = m - m % DOT_LANES;
    for i in (0..full).step_by(DOT_LANES) {
        out.extend(dot_lanes(std::array::from_fn(|lane| &a[(i + lane) * k..][..k]), b));
    }
    out.extend((full..m).map(|i| dot(&a[i * k..(i + 1) * k], b)));
}

/// The row-major `[q, n]` transpose of the row-major `[n, q]` matrix `bt`,
/// written in order into `out`'s storage: no zero fill beforehand.
fn pack_transposed(bt: &[f32], n: usize, q: usize, out: &mut Vec<f32>) {
    let out = cleared(out, q * n);
    for p in 0..q {
        out.extend(bt.chunks_exact(q).map(|row| row[p]));
    }
}

#[cfg(test)]
impl Tensor {
    /// The reference matrix multiplication: the plain triple loop, the
    /// differential-testing oracle for the tiled kernels. Unlike the kernel
    /// this used to be, it does **not** skip zero elements of the left-hand
    /// side — `0.0 * inf` and `0.0 * NaN` must produce NaN.
    fn matmul_naive(&self, other: &Tensor) -> Self {
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

    /// One compilation of the register tile, as [`tile_product`] calls it.
    type TileForm = fn(Lhs<'_>, &[f32], &mut [f32], usize, usize, usize);

    /// A compiled form of the tile: its name, `MR`, `NR` and entry point.
    type Form = (&'static str, usize, usize, TileForm);

    /// Every compiled form of the tile this CPU can run: the baseline
    /// always, AVX2 and AVX-512 when the CPU has them. Whichever one
    /// `tile_product` dispatches to, the others are still checked bit for
    /// bit.
    fn tile_forms() -> Vec<Form> {
        let mut forms: Vec<Form> = vec![("baseline", MR_BASELINE, NR_BASELINE, tile_baseline)];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                // SAFETY: listed only when the CPU supports AVX2, checked above.
                forms.push(("avx2", MR_AVX2, NR_AVX2, |a, b, out, m, k, n| unsafe {
                    tile_avx2(a, b, out, m, k, n)
                }));
            }
            if is_x86_feature_detected!("avx512f") {
                // SAFETY: listed only when the CPU supports AVX-512F, checked above.
                forms.push(("avx512", MR_AVX512, NR_AVX512, |a, b, out, m, k, n| unsafe {
                    tile_avx512(a, b, out, m, k, n)
                }));
            }
        }
        forms
    }

    /// `a (m×k) · b (k×n)` through one form of the tile, into a buffer
    /// pre-filled with a value no product here yields, so an element the
    /// tile failed to store shows.
    fn through_form(form: TileForm, a: Lhs<'_>, b: &[f32], m: usize, k: usize, n: usize) -> Tensor {
        let mut out = vec![12_345.678f32; m * n];
        form(a, b, &mut out, m, k, n);
        Tensor::from_vec(out, &[m, n])
    }

    const SPECIALS: [f32; 6] = [-0.0, 0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -1.5];

    /// A `[rows, cols]` matrix of uniform values in `[-2, 2)`; with `plant`,
    /// up to four of them replaced by [`SPECIALS`].
    fn random_matrix(rng: &mut XorShiftRng, rows: usize, cols: usize, plant: bool) -> Tensor {
        let mut data: Vec<f32> = (0..rows * cols).map(|_| rng.uniform(-2.0, 2.0)).collect();
        if plant {
            for slot in 0..data.len().min(4) {
                let at = rng.next_u64() as usize % data.len();
                data[at] = SPECIALS[(rng.next_u64() as usize + slot) % SPECIALS.len()];
            }
        }
        Tensor::from_vec(data, &[rows, cols])
    }

    /// Seeded property sweep: the tiled kernel, the transposed-operand
    /// kernels, every compiled form of the tile and the naive reference
    /// must agree to the BIT on random shapes and on every tile edge.
    /// Absolute bit equality is the right tolerance here because every
    /// kernel accumulates each output element over the inner dimension in
    /// the identical ascending order — tiling and the instruction set only
    /// change memory traffic and register width, never the sequence of
    /// floating-point operations per element.
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
            for (form, _, _, tile) in tile_forms() {
                let lhs = Lhs { data: a.data(), row_stride: k, col_stride: 1 };
                let via_form = through_form(tile, lhs, b.data(), m, k, n);
                assert_same_bits(&via_form, &naive, &format!("trial {trial}, {form} tile"));
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

        // Every edge of every form's tile — a row block one short of, equal
        // to and one past its `MR`; a column block one short of, equal to and
        // one past its `NR`, and two blocks and a lone column; an empty and a
        // one-step reduction beside a longer one and one that crosses a `KC`
        // chunk — with signed zeros, ±inf and NaN planted.
        for (form, mr, nr, tile) in tile_forms() {
            for m in [mr - 1, mr, mr + 1] {
                for n in [nr - 1, nr, nr + 1, 2 * nr + 1] {
                    for k in [0usize, 1, 7, KC + 1] {
                        let (a, b) =
                            (random_matrix(&mut rng, m, k, true), random_matrix(&mut rng, k, n, true));
                        let lhs = Lhs { data: a.data(), row_stride: k, col_stride: 1 };
                        let via_form = through_form(tile, lhs, b.data(), m, k, n);
                        assert_same_bits(
                            &via_form,
                            &a.matmul_naive(&b),
                            &format!("{form} tile edge {m}x{k}x{n}"),
                        );
                        assert_same_bits(
                            &a.matmul(&b),
                            &a.matmul_naive(&b),
                            &format!("matmul at {m}x{k}x{n}"),
                        );
                        for stale in stale_buffers(m * n) {
                            assert_same_bits(
                                &a.matmul_into(&b, stale),
                                &a.matmul_naive(&b),
                                &format!("matmul at {m}x{k}x{n} into a recycled buffer"),
                            );
                        }
                    }
                }
            }
        }
    }

    /// Recycled buffers for a `len`-element output: stale NaNs, one longer
    /// than it and one shorter (with room to grow in place).
    fn stale_buffers(len: usize) -> [Vec<f32>; 2] {
        let mut shorter = vec![f32::NAN; len + 8];
        shorter.truncate(len / 2);
        [vec![f32::NAN; len + 3], shorter]
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

    /// The backward kernels over the shapes the model has — `Aᵀ·G`'s tile
    /// and its `n == 1` axpy form, `G·Bᵀ`'s `q == 1` outer product, its
    /// single-row form (`m = 1`) and its packed tile at every other `m`,
    /// with `m` across the old 16-row strategy boundary (`m = 15, 16, 17`)
    /// — and every compiled form of the tile at those shapes and at its
    /// edges, each read the way its product reads it (`A` in place through
    /// strides, `Bᵀ` packed), against `transpose()` + `matmul_naive`, with
    /// the operands the special paths could get wrong planted in: `-0.0` (a
    /// lone `-0.0` product must still round to `+0.0` through the running
    /// sum), `inf` next to `0.0` (`0.0 * inf = NaN`) and NaN. Each product
    /// also runs into a recycled buffer (a tape's kept storage) holding
    /// stale NaNs, longer and shorter than the output: no stale element may
    /// survive.
    #[test]
    fn backward_kernels_match_naive_on_model_shapes_and_non_finite_operands() {
        let mut rng = XorShiftRng::new(0xBAC2_BAC2);
        let forms = tile_forms();
        let mut check = |m: usize, q: usize, n: usize, plant: bool| {
            let context = format!("{m}x{q}x{n}, planted specials: {plant}");
            // Aᵀ·G: A is [m, q], G is [m, n].
            let (a, g) = (random_matrix(&mut rng, m, q, plant), random_matrix(&mut rng, m, n, plant));
            let want = a.transpose().matmul_naive(&g);
            assert_same_bits(&a.matmul_transposed_lhs(&g), &want, &format!("lhs {context}"));
            for stale in stale_buffers(q * n) {
                let into = a.matmul_transposed_lhs_into(&g, stale);
                assert_same_bits(&into, &want, &format!("lhs {context}, into a recycled buffer"));
            }
            for &(form, _, _, tile) in &forms {
                let at = Lhs { data: a.data(), row_stride: 1, col_stride: q };
                let via_form = through_form(tile, at, g.data(), q, m, n);
                assert_same_bits(&via_form, &want, &format!("lhs {context}, {form} tile"));
            }
            // G·Bᵀ: G is [m, q], B is [n, q].
            let (g, b) = (random_matrix(&mut rng, m, q, plant), random_matrix(&mut rng, n, q, plant));
            let want = g.matmul_naive(&b.transpose());
            assert_same_bits(&g.matmul_transposed_rhs(&b), &want, &format!("rhs {context}"));
            for (stale, mut packed) in stale_buffers(m * n).into_iter().zip(stale_buffers(q * n)) {
                let into = g.matmul_transposed_rhs_into(&b, stale, &mut packed);
                assert_same_bits(&into, &want, &format!("rhs {context}, into a recycled buffer"));
            }
            let mut packed = Vec::new();
            pack_transposed(b.data(), n, q, &mut packed);
            for &(form, _, _, tile) in &forms {
                let lhs = Lhs { data: g.data(), row_stride: q, col_stride: 1 };
                let via_form = through_form(tile, lhs, &packed, m, q, n);
                assert_same_bits(&via_form, &want, &format!("rhs {context}, {form} tile"));
            }
        };
        for m in [1usize, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 109] {
            for q in [1usize, 2, 32, 45, 64] {
                for n in [1usize, 2, 32, 45, 64] {
                    for plant in [false, true] {
                        check(m, q, n, plant);
                    }
                }
            }
        }
        // The tile's edges in both products: output rows `MR − 1 ..= MR + 1`
        // of every form (`q` for `Aᵀ·G`, `m` for `G·Bᵀ`) by every column edge
        // of that form, over empty, one-step, longer and chunk-crossing
        // reductions.
        for &(_, mr, nr, _) in &forms {
            for rows in [mr - 1, mr, mr + 1] {
                for n in [nr - 1, nr, nr + 1, 2 * nr + 1] {
                    for inner in [0usize, 1, 7, KC + 1] {
                        check(inner, rows, n, true);
                        check(rows, inner, n, true);
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

    /// The interleaved dot products — `A·B`'s column and `G·Bᵀ`'s single
    /// row (rows against one shared column), and [`edge_dots`] over
    /// arbitrary index pairs (the fused gather–scale–scatter's scale
    /// gradient) — with the row or pair count one short of, equal to and one
    /// past [`DOT_LANES`] and past two blocks, over empty, short, model-width
    /// and chunk-length reductions, with signed zeros, ±inf and NaN planted.
    /// Each kernel has one compilation, so this is every form they have.
    #[test]
    fn dot_kernels_match_one_loop_per_pair_across_the_interleave_width() {
        let mut rng = XorShiftRng::new(0xD07_1A4E);
        for m in [1, DOT_LANES - 1, DOT_LANES, DOT_LANES + 1, 2 * DOT_LANES + 1] {
            for k in [0usize, 1, 7, 32, KC + 1] {
                for plant in [false, true] {
                    let context = format!("{m}x{k}, planted specials: {plant}");
                    let (a, b) = (random_matrix(&mut rng, m, k, plant), random_matrix(&mut rng, k, 1, plant));
                    assert_same_bits(&a.matmul(&b), &a.matmul_naive(&b), &format!("A·B column {context}"));
                    for stale in stale_buffers(m) {
                        let into = a.matmul_into(&b, stale);
                        assert_same_bits(
                            &into,
                            &a.matmul_naive(&b),
                            &format!("A·B column {context}, recycled"),
                        );
                    }
                    let g = random_matrix(&mut rng, 1, k, plant);
                    let want = g.matmul_naive(&a.transpose());
                    assert_same_bits(&g.matmul_transposed_rhs(&a), &want, &format!("G·Bᵀ row {context}"));

                    let (x, y) = (random_matrix(&mut rng, 5, k, plant), random_matrix(&mut rng, 3, k, plant));
                    let pairs: Vec<(usize, usize)> =
                        (0..m).map(|_| (rng.next_u64() as usize % 5, rng.next_u64() as usize % 3)).collect();
                    let (xi, yi): (Vec<usize>, Vec<usize>) = pairs.iter().copied().unzip();
                    let mut got = vec![f32::NAN; m + 2];
                    edge_dots(x.data(), y.data(), k, &xi, &yi, &mut got);
                    let want: Vec<f32> = pairs
                        .iter()
                        .map(|&(xi, yi)| {
                            let mut acc = 0.0f32;
                            for c in 0..k {
                                acc += x.data()[xi * k + c] * y.data()[yi * k + c];
                            }
                            acc
                        })
                        .collect();
                    let (got, want) = (Tensor::from_vec(got, &[m, 1]), Tensor::from_vec(want, &[m, 1]));
                    assert_same_bits(&got, &want, &format!("index pairs {context}"));
                }
            }
        }
        // A lone `-0.0` product in every lane still rounds to `+0.0`.
        let a = Tensor::from_vec(vec![-0.0; DOT_LANES + 1], &[DOT_LANES + 1, 1]);
        let sums = a.matmul(&Tensor::from_vec(vec![3.0], &[1, 1]));
        assert!(sums.data().iter().all(|s| s.to_bits() == 0.0f32.to_bits()), "{sums:?}");
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
