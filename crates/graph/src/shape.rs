//! Tensor shapes carried on graph edges.
//!
//! The paper encodes each edge's tensor shape (padded to rank 4 and
//! normalised by a constant `M = 4096`) as the edge attribute fed to the
//! GNN; [`TensorShape::padded4`] provides exactly that encoding.

use std::fmt;

/// The shape of a tensor flowing along a graph edge.
///
/// # Examples
///
/// ```
/// use xrlflow_graph::TensorShape;
///
/// let s = TensorShape::new(vec![1, 3, 224, 224]);
/// assert_eq!(s.numel(), 1 * 3 * 224 * 224);
/// assert_eq!(s.rank(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TensorShape(Vec<usize>);

impl TensorShape {
    /// Creates a shape from its dimensions.
    pub fn new(dims: Vec<usize>) -> Self {
        Self(dims)
    }

    /// A scalar shape (rank 0).
    pub fn scalar() -> Self {
        Self(Vec::new())
    }

    /// The dimensions of this shape.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (1 for scalars).
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// Total number of elements, or `None` when the product overflows
    /// `usize` — the overflow-safe variant used when validating untrusted
    /// shapes at the graph ingestion boundary.
    pub fn checked_numel(&self) -> Option<usize> {
        self.0.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d))
    }

    /// Size of the given dimension.
    ///
    /// # Panics
    ///
    /// Panics if the dimension is out of range.
    pub fn dim(&self, i: usize) -> usize {
        self.0[i]
    }

    /// The shape padded with leading ones to rank 4, as the paper does for
    /// edge attributes ("for tensors whose rank is less than 4, zeros are
    /// padded to leading dimensions"; we use the dimensions themselves with
    /// leading zero padding).
    pub fn padded4(&self) -> [f32; 4] {
        let mut out = [0.0f32; 4];
        let dims = &self.0;
        let start = 4usize.saturating_sub(dims.len());
        for (i, &d) in dims.iter().rev().enumerate() {
            if 3 >= i {
                out[3 - i] = d as f32;
            }
        }
        let _ = start;
        out
    }

    /// Returns a new shape with the two given axes swapped.
    ///
    /// # Panics
    ///
    /// Panics if either axis is out of range.
    pub fn swap(&self, a: usize, b: usize) -> Self {
        let mut dims = self.0.clone();
        dims.swap(a, b);
        Self(dims)
    }

    /// Returns a new shape permuted by `perm`, or `None` when `perm` is not
    /// a permutation of `0..rank`, so that shape inference can surface an
    /// untrusted `Transpose` attribute as a typed error.
    pub fn try_permute(&self, perm: &[usize]) -> Option<Self> {
        if perm.len() != self.rank() {
            return None;
        }
        let mut seen = vec![false; perm.len()];
        for &p in perm {
            if p >= perm.len() || seen[p] {
                return None;
            }
            seen[p] = true;
        }
        Some(Self(perm.iter().map(|&p| self.0[p]).collect()))
    }

    /// Returns `true` when two shapes are broadcast-compatible in the NumPy
    /// sense (trailing dimensions equal or one of them is 1).
    pub fn broadcast_compatible(&self, other: &TensorShape) -> bool {
        let a = &self.0;
        let b = &other.0;
        let n = a.len().max(b.len());
        for i in 0..n {
            let da = if i < a.len() { a[a.len() - 1 - i] } else { 1 };
            let db = if i < b.len() { b[b.len() - 1 - i] } else { 1 };
            if da != db && da != 1 && db != 1 {
                return false;
            }
        }
        true
    }

    /// Broadcasts two shapes together, returning the result shape.
    ///
    /// Returns `None` if the shapes are not broadcast-compatible.
    pub fn broadcast(&self, other: &TensorShape) -> Option<TensorShape> {
        if !self.broadcast_compatible(other) {
            return None;
        }
        let a = &self.0;
        let b = &other.0;
        let n = a.len().max(b.len());
        let mut out = vec![0usize; n];
        for i in 0..n {
            let da = if i < a.len() { a[a.len() - 1 - i] } else { 1 };
            let db = if i < b.len() { b[b.len() - 1 - i] } else { 1 };
            out[n - 1 - i] = da.max(db);
        }
        Some(TensorShape(out))
    }
}

impl fmt::Display for TensorShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<usize>> for TensorShape {
    fn from(dims: Vec<usize>) -> Self {
        Self(dims)
    }
}

impl From<&[usize]> for TensorShape {
    fn from(dims: &[usize]) -> Self {
        Self(dims.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_rank() {
        let s = TensorShape::new(vec![2, 3, 4]);
        assert_eq!(s.numel(), 24);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.dim(1), 3);
        assert_eq!(TensorShape::scalar().numel(), 1);
    }

    #[test]
    fn padded4_pads_leading() {
        let s = TensorShape::new(vec![64, 128]);
        assert_eq!(s.padded4(), [0.0, 0.0, 64.0, 128.0]);
        let f = TensorShape::new(vec![1, 3, 256, 256]);
        assert_eq!(f.padded4(), [1.0, 3.0, 256.0, 256.0]);
    }

    #[test]
    fn permute_and_swap() {
        let s = TensorShape::new(vec![1, 2, 3, 4]);
        assert_eq!(s.swap(1, 3).dims(), &[1, 4, 3, 2]);
        assert_eq!(s.try_permute(&[0, 2, 1, 3]).unwrap().dims(), &[1, 3, 2, 4]);
    }

    #[test]
    fn try_permute_rejects_bad_perm() {
        let s = TensorShape::new(vec![1, 2]);
        assert_eq!(s.try_permute(&[0, 0]), None);
        assert_eq!(s.try_permute(&[0, 2]), None);
        assert_eq!(s.try_permute(&[0]), None);
    }

    #[test]
    fn broadcasting() {
        let a = TensorShape::new(vec![4, 1, 3]);
        let b = TensorShape::new(vec![2, 3]);
        assert!(a.broadcast_compatible(&b));
        assert_eq!(a.broadcast(&b).unwrap().dims(), &[4, 2, 3]);
        let c = TensorShape::new(vec![5, 3]);
        let d = TensorShape::new(vec![4, 3]);
        assert!(!c.broadcast_compatible(&d));
        assert!(c.broadcast(&d).is_none());
    }

    #[test]
    fn display_formats() {
        assert_eq!(TensorShape::new(vec![1, 3]).to_string(), "[1, 3]");
        assert_eq!(TensorShape::scalar().to_string(), "[]");
    }

    #[test]
    fn conversions() {
        let s: TensorShape = vec![2, 2].into();
        assert_eq!(s.rank(), 2);
        let t: TensorShape = [3usize, 4].as_slice().into();
        assert_eq!(t.numel(), 12);
    }
}
