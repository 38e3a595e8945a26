//! Named-tensor snapshots of a [`ParamStore`](crate::ParamStore).
//!
//! A [`ParamSnapshot`] is an ordered list of `(name, value)` pairs — the
//! trainable parameters of an agent at one instant, without gradients or
//! optimiser state. It is the value-only copy that leaves the process:
//! [`ParamSnapshot::save`] / [`ParamSnapshot::load`] persist it in a small
//! versioned binary format — the deployable policy file a server builds its
//! agent from, and the parameter section of a training checkpoint. Threads
//! inside one process do not need one: they borrow the live store.
//!
//! Loading a snapshot back into a store
//! ([`ParamStore::load_snapshot`](crate::ParamStore::load_snapshot)) is
//! strict: parameter count, names (in registration order) and shapes must
//! all match, and nothing is written on mismatch.

use std::fmt;
use std::path::Path;

use crate::tensor::Tensor;

/// Magic bytes identifying a snapshot file.
const MAGIC: &[u8; 8] = b"XRLFSNAP";
/// Current on-disk format version.
const FORMAT_VERSION: u32 = 1;

/// An immutable named-tensor snapshot of a parameter store.
///
/// # Examples
///
/// ```
/// use xrlflow_tensor::{ParamStore, Tensor};
///
/// let mut store = ParamStore::new();
/// store.register("w", Tensor::from_vec(vec![1.0, 2.0], &[2]));
/// let snapshot = store.snapshot();
/// assert_eq!(snapshot.len(), 1);
/// assert_eq!(snapshot.num_scalars(), 2);
///
/// // A freshly built store with the same architecture adopts the values.
/// let mut replica = ParamStore::new();
/// let id = replica.register("w", Tensor::zeros(&[2]));
/// replica.load_snapshot(&snapshot).unwrap();
/// assert_eq!(replica.value(id).data(), &[1.0, 2.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSnapshot {
    entries: Vec<(String, Tensor)>,
}

impl ParamSnapshot {
    /// Creates a snapshot from explicit `(name, value)` pairs, in store
    /// registration order.
    pub fn new(entries: Vec<(String, Tensor)>) -> Self {
        Self { entries }
    }

    /// The `(name, value)` pairs, in registration order.
    pub fn entries(&self) -> &[(String, Tensor)] {
        &self.entries
    }

    /// Number of parameter tensors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when the snapshot holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of scalar values across all tensors.
    pub fn num_scalars(&self) -> usize {
        self.entries.iter().map(|(_, t)| t.numel()).sum()
    }

    /// Checks that `candidate` could replace this snapshot: same parameter
    /// count, same names in registration order, same shapes.
    ///
    /// This is the validation a deployment performs before hot-swapping a
    /// checkpoint into a live service: vet the candidate against the
    /// currently-serving snapshot *without* constructing an agent, and keep
    /// the old parameters serving when the check fails. It applies exactly
    /// the strictness of
    /// [`ParamStore::load_snapshot`](crate::ParamStore::load_snapshot), so a
    /// candidate that passes here will also load into any store built from
    /// `self`'s architecture.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::CountMismatch`], [`SnapshotError::NameMismatch`]
    /// or [`SnapshotError::ShapeMismatch`] describing the first divergence.
    ///
    /// # Examples
    ///
    /// ```
    /// use xrlflow_tensor::{ParamSnapshot, Tensor};
    ///
    /// let live = ParamSnapshot::new(vec![("w".to_string(), Tensor::zeros(&[2, 3]))]);
    /// let good = ParamSnapshot::new(vec![("w".to_string(), Tensor::ones(&[2, 3]))]);
    /// let bad = ParamSnapshot::new(vec![("w".to_string(), Tensor::ones(&[3, 2]))]);
    /// assert!(live.compatible_with(&good).is_ok());
    /// assert!(live.compatible_with(&bad).is_err());
    /// ```
    pub fn compatible_with(&self, candidate: &ParamSnapshot) -> Result<(), SnapshotError> {
        check_layout(self.entries.iter().map(|(name, value)| (name.as_str(), value.shape())), candidate)
    }

    /// Serialises the snapshot to its on-disk byte representation
    /// (magic, format version, then length-prefixed name / shape / `f32`
    /// little-endian data per tensor).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for (name, value) in &self.entries {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(value.shape().len() as u32).to_le_bytes());
            for &dim in value.shape() {
                out.extend_from_slice(&(dim as u32).to_le_bytes());
            }
            for &v in value.data() {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    /// Parses a snapshot from its on-disk byte representation.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Format`] on bad magic, an unsupported
    /// version, truncation or trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut cursor = Cursor { bytes, pos: 0 };
        let magic = cursor.take(MAGIC.len())?;
        if magic != MAGIC {
            return Err(SnapshotError::Format("bad magic: not a snapshot file".to_string()));
        }
        let version = cursor.u32()?;
        if version != FORMAT_VERSION {
            return Err(SnapshotError::Format(format!(
                "unsupported snapshot format version {version} (expected {FORMAT_VERSION})"
            )));
        }
        let count = cursor.u32()? as usize;
        // Every length field below is untrusted (the file may be truncated or
        // bit-rotted): bound each one against the bytes actually remaining
        // *before* allocating, so corruption yields a Format error rather
        // than a huge allocation or an arithmetic overflow.
        if count > cursor.remaining() / 8 {
            return Err(SnapshotError::Format(format!(
                "entry count {count} exceeds what {} remaining bytes can hold",
                cursor.remaining()
            )));
        }
        let mut entries = Vec::with_capacity(count);
        for i in 0..count {
            let name_len = cursor.u32()? as usize;
            let name = String::from_utf8(cursor.take(name_len)?.to_vec())
                .map_err(|_| SnapshotError::Format(format!("entry {i}: name is not valid UTF-8")))?;
            let ndim = cursor.u32()? as usize;
            if ndim > cursor.remaining() / 4 {
                return Err(SnapshotError::Format(format!(
                    "entry {i}: rank {ndim} exceeds what {} remaining bytes can hold",
                    cursor.remaining()
                )));
            }
            let mut shape = Vec::with_capacity(ndim);
            for _ in 0..ndim {
                shape.push(cursor.u32()? as usize);
            }
            let data_len = shape
                .iter()
                .try_fold(1usize, |acc, &d| acc.checked_mul(d))
                .and_then(|numel| numel.checked_mul(4))
                .ok_or_else(|| {
                    SnapshotError::Format(format!("entry {i}: shape {shape:?} overflows the element count"))
                })?;
            let raw = cursor.take(data_len)?;
            let data: Vec<f32> =
                raw.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect();
            entries.push((name, Tensor::from_vec(data, &shape)));
        }
        if cursor.pos != bytes.len() {
            return Err(SnapshotError::Format(format!(
                "{} trailing bytes after the last entry",
                bytes.len() - cursor.pos
            )));
        }
        Ok(Self { entries })
    }

    /// Writes the snapshot to `path` (creating parent directories).
    ///
    /// The write goes through [`crate::atomic_write`], so a crash mid-save
    /// never truncates a previously saved checkpoint at the same path.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating directories or writing the file.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        crate::fsio::atomic_write(path, self.to_bytes())
    }

    /// Reads a snapshot from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Io`] when the file cannot be read and
    /// [`SnapshotError::Format`] when its contents are not a valid snapshot.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(path.as_ref()).map_err(SnapshotError::Io)?;
        Self::from_bytes(&bytes)
    }
}

/// Checks that `found` has the `(name, shape)` layout `expected` lists: the
/// same count, then per entry in order the same name and the same shape. The
/// one check behind [`ParamSnapshot::compatible_with`],
/// [`ParamStore::load_snapshot`](crate::ParamStore::load_snapshot) and
/// [`Adam::load_moments`](crate::Adam::load_moments).
pub(crate) fn check_layout<'a>(
    expected: impl ExactSizeIterator<Item = (&'a str, &'a [usize])>,
    found: &ParamSnapshot,
) -> Result<(), SnapshotError> {
    if expected.len() != found.entries.len() {
        return Err(SnapshotError::CountMismatch { expected: expected.len(), found: found.entries.len() });
    }
    for (index, ((name, shape), (found_name, value))) in expected.zip(&found.entries).enumerate() {
        if name != found_name.as_str() {
            return Err(SnapshotError::NameMismatch {
                index,
                expected: name.to_string(),
                found: found_name.clone(),
            });
        }
        if shape != value.shape() {
            return Err(SnapshotError::ShapeMismatch {
                name: name.to_string(),
                expected: shape.to_vec(),
                found: value.shape().to_vec(),
            });
        }
    }
    Ok(())
}

/// Byte-slice cursor used by [`ParamSnapshot::from_bytes`].
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if n > self.remaining() {
            return Err(SnapshotError::Format(format!(
                "truncated snapshot: needed {n} bytes at offset {}, file has {}",
                self.pos,
                self.bytes.len()
            )));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
}

/// Errors produced when loading or applying a [`ParamSnapshot`].
#[derive(Debug)]
pub enum SnapshotError {
    /// The snapshot file could not be read.
    Io(std::io::Error),
    /// The bytes are not a valid snapshot (bad magic, version, truncation).
    Format(String),
    /// The snapshot holds a different number of parameters than the store.
    CountMismatch {
        /// Parameters registered in the store.
        expected: usize,
        /// Parameters present in the snapshot.
        found: usize,
    },
    /// A parameter name differs between the store and the snapshot.
    NameMismatch {
        /// Position in registration order.
        index: usize,
        /// Name registered in the store.
        expected: String,
        /// Name found in the snapshot.
        found: String,
    },
    /// A parameter's shape differs between the store and the snapshot.
    ShapeMismatch {
        /// The parameter's name.
        name: String,
        /// Shape registered in the store.
        expected: Vec<usize>,
        /// Shape found in the snapshot.
        found: Vec<usize>,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::Format(msg) => write!(f, "malformed snapshot: {msg}"),
            SnapshotError::CountMismatch { expected, found } => {
                write!(f, "snapshot has {found} parameters, the store expects {expected}")
            }
            SnapshotError::NameMismatch { index, expected, found } => {
                write!(f, "parameter {index} is named {found:?} in the snapshot, {expected:?} in the store")
            }
            SnapshotError::ShapeMismatch { name, expected, found } => {
                write!(f, "parameter {name:?} has shape {found:?} in the snapshot, {expected:?} in the store")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::ParamStore;

    fn sample_store() -> ParamStore {
        let mut store = ParamStore::new();
        store.register("layer.weight", Tensor::from_vec(vec![1.5, -2.0, 0.25, 7.0, 0.0, -0.5], &[2, 3]));
        store.register("layer.bias", Tensor::from_vec(vec![0.1, 0.2, 0.3], &[3]));
        store
    }

    #[test]
    fn byte_round_trip_is_bit_identical() {
        let snapshot = sample_store().snapshot();
        let decoded = ParamSnapshot::from_bytes(&snapshot.to_bytes()).unwrap();
        assert_eq!(decoded, snapshot);
    }

    #[test]
    fn file_round_trip_is_bit_identical() {
        let snapshot = sample_store().snapshot();
        let path = std::env::temp_dir().join("xrlflow_snapshot_test/roundtrip.snap");
        snapshot.save(&path).unwrap();
        let loaded = ParamSnapshot::load(&path).unwrap();
        assert_eq!(loaded, snapshot);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn load_snapshot_restores_values() {
        let store = sample_store();
        let snapshot = store.snapshot();
        let mut replica = ParamStore::new();
        let w = replica.register("layer.weight", Tensor::zeros(&[2, 3]));
        let b = replica.register("layer.bias", Tensor::zeros(&[3]));
        replica.load_snapshot(&snapshot).unwrap();
        assert_eq!(replica.value(w).data(), snapshot.entries()[0].1.data());
        assert_eq!(replica.value(b).data(), &[0.1, 0.2, 0.3]);
    }

    #[test]
    fn compatible_with_mirrors_load_strictness() {
        let live = sample_store().snapshot();

        // A same-architecture snapshot with different values is compatible.
        let mut retrained = ParamStore::new();
        retrained.register("layer.weight", Tensor::ones(&[2, 3]));
        retrained.register("layer.bias", Tensor::ones(&[3]));
        assert!(live.compatible_with(&retrained.snapshot()).is_ok());

        // Count, name and shape divergences report the first mismatch.
        let short = ParamSnapshot::new(vec![live.entries()[0].clone()]);
        assert!(matches!(
            live.compatible_with(&short),
            Err(SnapshotError::CountMismatch { expected: 2, found: 1 })
        ));

        let renamed = ParamSnapshot::new(vec![
            live.entries()[0].clone(),
            ("other.bias".to_string(), Tensor::zeros(&[3])),
        ]);
        assert!(matches!(live.compatible_with(&renamed), Err(SnapshotError::NameMismatch { index: 1, .. })));

        let reshaped = ParamSnapshot::new(vec![
            ("layer.weight".to_string(), Tensor::zeros(&[3, 2])),
            live.entries()[1].clone(),
        ]);
        assert!(matches!(live.compatible_with(&reshaped), Err(SnapshotError::ShapeMismatch { .. })));
    }

    #[test]
    fn mismatches_are_rejected_without_partial_writes() {
        let snapshot = sample_store().snapshot();

        // Count mismatch.
        let mut store = ParamStore::new();
        store.register("layer.weight", Tensor::zeros(&[2, 3]));
        assert!(matches!(
            store.load_snapshot(&snapshot),
            Err(SnapshotError::CountMismatch { expected: 1, found: 2 })
        ));

        // Name mismatch.
        let mut store = ParamStore::new();
        store.register("layer.weight", Tensor::zeros(&[2, 3]));
        let b = store.register("other.bias", Tensor::zeros(&[3]));
        assert!(matches!(store.load_snapshot(&snapshot), Err(SnapshotError::NameMismatch { index: 1, .. })));
        // The matching first parameter must not have been written.
        assert_eq!(store.value(b).data(), &[0.0, 0.0, 0.0]);

        // Shape mismatch.
        let mut store = ParamStore::new();
        store.register("layer.weight", Tensor::zeros(&[3, 2]));
        store.register("layer.bias", Tensor::zeros(&[3]));
        match store.load_snapshot(&snapshot) {
            Err(SnapshotError::ShapeMismatch { name, expected, found }) => {
                assert_eq!(name, "layer.weight");
                assert_eq!(expected, vec![3, 2]);
                assert_eq!(found, vec![2, 3]);
            }
            other => panic!("expected a shape mismatch, got {other:?}"),
        }
    }

    #[test]
    fn malformed_bytes_are_rejected() {
        assert!(matches!(ParamSnapshot::from_bytes(b"not a snapshot"), Err(SnapshotError::Format(_))));
        // Bad version.
        let mut bytes = sample_store().snapshot().to_bytes();
        bytes[8] = 99;
        assert!(matches!(ParamSnapshot::from_bytes(&bytes), Err(SnapshotError::Format(_))));
        // Truncation.
        let bytes = sample_store().snapshot().to_bytes();
        assert!(matches!(
            ParamSnapshot::from_bytes(&bytes[..bytes.len() - 3]),
            Err(SnapshotError::Format(_))
        ));
        // Trailing garbage.
        let mut bytes = sample_store().snapshot().to_bytes();
        bytes.push(0);
        assert!(matches!(ParamSnapshot::from_bytes(&bytes), Err(SnapshotError::Format(_))));
    }

    #[test]
    fn corrupted_length_fields_error_instead_of_allocating() {
        // A flipped entry-count field must not drive Vec::with_capacity into
        // a gigantic allocation (which aborts the process).
        let mut bytes = sample_store().snapshot().to_bytes();
        bytes[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(ParamSnapshot::from_bytes(&bytes), Err(SnapshotError::Format(_))));

        // A corrupted rank field likewise.
        let snapshot = sample_store().snapshot();
        let mut bytes = snapshot.to_bytes();
        let ndim_offset = 16 + 4 + snapshot.entries()[0].0.len();
        bytes[ndim_offset..ndim_offset + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(ParamSnapshot::from_bytes(&bytes), Err(SnapshotError::Format(_))));

        // Dimensions whose product overflows usize must be a Format error,
        // not an arithmetic panic/wrap.
        let huge = u32::MAX;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"XRLFSNAP");
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(b"w");
        bytes.extend_from_slice(&3u32.to_le_bytes());
        for _ in 0..3 {
            bytes.extend_from_slice(&huge.to_le_bytes());
        }
        assert!(matches!(ParamSnapshot::from_bytes(&bytes), Err(SnapshotError::Format(_))));
    }

    #[test]
    fn load_missing_file_is_an_io_error() {
        let err = ParamSnapshot::load("/nonexistent/xrlflow/definitely_missing.snap").unwrap_err();
        assert!(matches!(err, SnapshotError::Io(_)));
        assert!(err.to_string().contains("I/O"));
    }
}
