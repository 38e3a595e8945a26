//! Durable exact-resume checkpoints (`XRLFTRST` format).
//!
//! [`TrainState`] is the only thing this workspace calls a *training
//! checkpoint*. (A bare `ParamSnapshot` file is a deployable policy — what
//! `xrlflow-serve` loads and `/admin/swap` accepts — and carries no optimiser
//! state.) It bundles everything the training loop needs to continue
//! **bit-identically**:
//!
//! * the parameter snapshot,
//! * Adam's first and second moment buffers and step counter,
//! * the PPO update counter (drives the minibatch shuffle schedule),
//! * the RNG schedule position (`next_episode` — per-episode seeds are pure
//!   functions of `base_seed` and the episode index, so the position *is*
//!   the schedule) and the `base_seed` itself.
//!
//! ## Binary format (version 1)
//!
//! ```text
//! magic     8 bytes   b"XRLFTRST"
//! version   u32 LE    1
//! update_counter / next_episode / adam_steps / base_seed   4 × u64 LE
//! params    u32 LE length + XRLFSNAP bytes
//! adam_m    u32 LE length + XRLFSNAP bytes (first moments)
//! adam_v    u32 LE length + XRLFSNAP bytes (second moments)
//! ```
//!
//! Parsing reads through the `XRLFSNAP` parser's bounded reader
//! (`xrlflow_tensor::ByteReader`): every length is bounded
//! against the remaining input before any allocation, trailing bytes are
//! rejected, and the moment sections must name exactly the parameters of the
//! `params` section — corruption surfaces as a typed [`SnapshotError`],
//! never a panic and never a partially adopted optimiser state. Files are
//! written through `atomic_write`, so a crash mid-save leaves the previous
//! checkpoint intact.

use std::path::{Path, PathBuf};

use xrlflow_tensor::{atomic_write, is_atomic_temp_file, ByteReader, ParamSnapshot, SnapshotError};

/// File magic of the train-state format.
const MAGIC: &[u8; 8] = b"XRLFTRST";
/// Current format version.
const FORMAT_VERSION: u32 = 1;
/// File extension used by the checkpoint schedule.
pub const TRAIN_STATE_EXTENSION: &str = "xrlftrst";

/// Complete training state for exact resume. See the module docs for the
/// contract and the binary layout.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainState {
    /// Parameter values at the checkpoint.
    pub params: ParamSnapshot,
    /// Adam first-moment buffers, named like `params`.
    pub adam_first: ParamSnapshot,
    /// Adam second-moment buffers, named like `params`.
    pub adam_second: ParamSnapshot,
    /// Adam step counter (bias correction position).
    pub adam_steps: u64,
    /// PPO updates performed (drives the minibatch shuffle schedule).
    pub update_counter: u64,
    /// Episodes (per spec, for curricula) already trained — the position in
    /// the deterministic per-episode seed schedule where training resumes.
    pub next_episode: u64,
    /// Base seed of the rollout engine's per-episode seed schedule.
    pub base_seed: u64,
}

impl TrainState {
    /// Serialises the state to the versioned binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let params = self.params.to_bytes();
        let first = self.adam_first.to_bytes();
        let second = self.adam_second.to_bytes();
        let mut out = Vec::with_capacity(8 + 4 + 4 * 8 + 3 * 4 + params.len() + first.len() + second.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.update_counter.to_le_bytes());
        out.extend_from_slice(&self.next_episode.to_le_bytes());
        out.extend_from_slice(&self.adam_steps.to_le_bytes());
        out.extend_from_slice(&self.base_seed.to_le_bytes());
        for section in [&params, &first, &second] {
            out.extend_from_slice(
                &u32::try_from(section.len()).expect("snapshot section under 4 GiB").to_le_bytes(),
            );
            out.extend_from_slice(section);
        }
        out
    }

    /// Parses a state written by [`TrainState::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Format`] for a bad magic/version, truncation at any
    /// offset, trailing bytes or an invalid embedded snapshot section;
    /// [`SnapshotError::CountMismatch`] / [`SnapshotError::NameMismatch`] /
    /// [`SnapshotError::ShapeMismatch`] when the moment sections do not
    /// mirror the parameter section. Nothing is adopted on error.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut cursor = ByteReader::new(bytes, "train state");
        let magic = cursor.take(8)?;
        if magic != MAGIC {
            return Err(SnapshotError::Format(format!("bad magic {:02x?}, expected {MAGIC:02x?}", magic)));
        }
        let version = cursor.u32()?;
        if version != FORMAT_VERSION {
            return Err(SnapshotError::Format(format!(
                "unsupported train-state version {version}, expected {FORMAT_VERSION}"
            )));
        }
        let update_counter = cursor.u64()?;
        let next_episode = cursor.u64()?;
        let adam_steps = cursor.u64()?;
        let base_seed = cursor.u64()?;
        let mut sections = Vec::with_capacity(3);
        for name in ["params", "adam_first", "adam_second"] {
            let len = cursor.u32()? as usize;
            let raw = cursor.take(len).map_err(|_| {
                SnapshotError::Format(format!(
                    "truncated {name} section: declared {len} bytes, {} remain",
                    cursor.remaining()
                ))
            })?;
            sections.push(
                ParamSnapshot::from_bytes(raw)
                    .map_err(|e| SnapshotError::Format(format!("invalid {name} section: {e}")))?,
            );
        }
        cursor.finish("section")?;
        let adam_second = sections.pop().expect("three sections parsed");
        let adam_first = sections.pop().expect("three sections parsed");
        let params = sections.pop().expect("three sections parsed");
        // The moment buffers must mirror the parameters exactly; checking
        // here (not at restore time) means a corrupt file can never pass
        // params validation and then fail moment validation half-adopted.
        params.compatible_with(&adam_first)?;
        params.compatible_with(&adam_second)?;
        Ok(Self { params, adam_first, adam_second, adam_steps, update_counter, next_episode, base_seed })
    }

    /// Writes the state to `path` via `atomic_write` (creating parent
    /// directories) — a crash mid-save never truncates a previous file.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the atomic write.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        atomic_write(path, self.to_bytes())
    }

    /// Reads a state from `path`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] when the file cannot be read; the
    /// [`TrainState::from_bytes`] errors for malformed contents.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(path.as_ref()).map_err(SnapshotError::Io)?;
        Self::from_bytes(&bytes)
    }
}

/// The canonical checkpoint file name for a schedule position:
/// `state-{next_episode:08}.xrlftrst` (zero-padded so lexicographic order
/// is numeric order).
pub fn train_state_path(dir: impl AsRef<Path>, next_episode: u64) -> PathBuf {
    dir.as_ref().join(format!("state-{next_episode:08}.{TRAIN_STATE_EXTENSION}"))
}

/// Scans `dir` for schedule checkpoints and returns the one with the
/// highest episode position, ignoring `atomic_write` temp debris and
/// foreign files. `Ok(None)` when the directory is missing or holds no
/// checkpoint.
///
/// # Errors
///
/// Returns any I/O error from reading the directory (a missing directory is
/// not an error).
pub fn latest_train_state(dir: impl AsRef<Path>) -> std::io::Result<Option<PathBuf>> {
    Ok(scan_train_states(dir)?.into_iter().last().map(|(_, path)| path))
}

/// Deletes all but the `keep_last` newest schedule checkpoints in `dir`,
/// returning the number removed. Temp debris and foreign files are never
/// touched.
///
/// # Errors
///
/// Returns any I/O error from reading the directory or deleting a file.
pub fn prune_train_states(dir: impl AsRef<Path>, keep_last: usize) -> std::io::Result<usize> {
    let states = scan_train_states(dir)?;
    let excess = states.len().saturating_sub(keep_last.max(1));
    for (_, path) in &states[..excess] {
        std::fs::remove_file(path)?;
    }
    Ok(excess)
}

/// Schedule checkpoints in `dir`, sorted oldest → newest by episode
/// position.
fn scan_train_states(dir: impl AsRef<Path>) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let entries = match std::fs::read_dir(dir.as_ref()) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut states = Vec::new();
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if is_atomic_temp_file(name) {
            continue;
        }
        let Some(stem) = name
            .strip_prefix("state-")
            .and_then(|rest| rest.strip_suffix(&format!(".{TRAIN_STATE_EXTENSION}")))
        else {
            continue;
        };
        let Ok(position) = stem.parse::<u64>() else { continue };
        states.push((position, entry.path()));
    }
    states.sort();
    Ok(states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrlflow_tensor::Tensor;

    fn sample_state() -> TrainState {
        let params = ParamSnapshot::new(vec![
            ("w".into(), Tensor::from_vec(vec![1.0, -2.0], &[2])),
            ("b".into(), Tensor::from_vec(vec![0.5], &[1])),
        ]);
        let adam_first = ParamSnapshot::new(vec![
            ("w".into(), Tensor::from_vec(vec![0.1, 0.2], &[2])),
            ("b".into(), Tensor::from_vec(vec![-0.3], &[1])),
        ]);
        let adam_second = ParamSnapshot::new(vec![
            ("w".into(), Tensor::from_vec(vec![0.01, 0.02], &[2])),
            ("b".into(), Tensor::from_vec(vec![0.03], &[1])),
        ]);
        TrainState {
            params,
            adam_first,
            adam_second,
            adam_steps: 7,
            update_counter: 5,
            next_episode: 12,
            base_seed: 42,
        }
    }

    #[test]
    fn round_trips_through_bytes() {
        let state = sample_state();
        let decoded = TrainState::from_bytes(&state.to_bytes()).unwrap();
        assert_eq!(decoded, state);
    }

    #[test]
    fn round_trips_through_a_file() {
        let dir = std::env::temp_dir().join(format!("xrlflow-trainstate-{}", std::process::id()));
        let path = train_state_path(&dir, 12);
        let state = sample_state();
        state.save(&path).unwrap();
        assert_eq!(TrainState::load(&path).unwrap(), state);
        assert_eq!(latest_train_state(&dir).unwrap(), Some(path));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_prefix_truncation_is_a_typed_error() {
        let bytes = sample_state().to_bytes();
        for len in 0..bytes.len() {
            let result = TrainState::from_bytes(&bytes[..len]);
            assert!(result.is_err(), "prefix of {len}/{} bytes must not parse", bytes.len());
        }
        assert!(TrainState::from_bytes(&bytes).is_ok());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample_state().to_bytes();
        bytes.push(0);
        assert!(matches!(TrainState::from_bytes(&bytes), Err(SnapshotError::Format(_))));
    }

    #[test]
    fn every_single_byte_corruption_parses_fully_or_errors_and_never_panics() {
        // A flipped byte may land in tensor data (still a structurally valid
        // file) — that must parse completely. A flip in any structural field
        // must surface a typed error. Nothing may panic, and a file whose
        // moment sections no longer mirror the params must be rejected.
        let bytes = sample_state().to_bytes();
        let mut parsed = 0usize;
        let mut rejected = 0usize;
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0xFF;
            let result = std::panic::catch_unwind(|| TrainState::from_bytes(&corrupt))
                .unwrap_or_else(|_| panic!("byte flip at offset {i} caused a panic"));
            match result {
                Ok(_) => parsed += 1,
                Err(_) => rejected += 1,
            }
        }
        assert!(rejected > 0, "structural corruption must be detected");
        assert_eq!(parsed + rejected, bytes.len());
    }

    #[test]
    fn mismatched_moment_sections_are_rejected() {
        let mut state = sample_state();
        state.adam_second = ParamSnapshot::new(vec![
            ("w".into(), Tensor::from_vec(vec![0.01, 0.02], &[2])),
            ("other".into(), Tensor::from_vec(vec![0.03], &[1])),
        ]);
        assert!(matches!(TrainState::from_bytes(&state.to_bytes()), Err(SnapshotError::NameMismatch { .. })));
    }

    #[test]
    fn retention_keeps_the_newest_and_skips_debris() {
        let dir = std::env::temp_dir().join(format!("xrlflow-retention-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let state = sample_state();
        for position in [4u64, 8, 12, 16] {
            state.save(train_state_path(&dir, position)).unwrap();
        }
        // Crashed-writer debris and foreign files must be ignored by both
        // discovery and pruning.
        std::fs::write(dir.join(".state-00000020.xrlftrst.1.2.tmp"), b"partial").unwrap();
        std::fs::write(dir.join("notes.txt"), b"unrelated").unwrap();

        assert_eq!(latest_train_state(&dir).unwrap(), Some(train_state_path(&dir, 16)));
        assert_eq!(prune_train_states(&dir, 2).unwrap(), 2);
        assert!(!train_state_path(&dir, 4).exists());
        assert!(!train_state_path(&dir, 8).exists());
        assert!(train_state_path(&dir, 12).exists());
        assert!(train_state_path(&dir, 16).exists());
        assert!(dir.join("notes.txt").exists());
        assert!(dir.join(".state-00000020.xrlftrst.1.2.tmp").exists());
        // keep_last is clamped to at least one checkpoint.
        assert_eq!(prune_train_states(&dir, 0).unwrap(), 1);
        assert!(train_state_path(&dir, 16).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
