//! The typed failure surface of the parallel training engine.

use std::fmt;

use xrlflow_core::fault::WorkerFault;
use xrlflow_tensor::SnapshotError;

/// Everything that can go wrong inside the parallel training engine.
///
/// The supervised worker pools turn a panicking work item into a queued
/// retry, so a single fault never reaches the caller; only structural
/// problems do — a snapshot (handed to a collector, or read from a checkpoint
/// file) that does not match the architecture, an item that kept panicking
/// past its retry budget, or a failed durable checkpoint write.
#[derive(Debug)]
pub enum RolloutError {
    /// A parameter snapshot did not match the agent architecture it was
    /// loaded into: the `(config, snapshot)` pair given to `collect_parallel`
    /// / `collect_curriculum_parallel`, or a `TrainState` file on resume.
    Snapshot(SnapshotError),
    /// A work item kept panicking until the supervised pool's retry budget
    /// (2 extra attempts) was exhausted. Carries the phase, the work-item id
    /// (numbered as in [`xrlflow_core::fault::FaultSpec`]), the total attempt
    /// count and the final panic payload text.
    WorkerFault(WorkerFault),
    /// Writing or pruning a durable `TrainState` checkpoint failed. Training
    /// stops at the failing round; the previously written checkpoints are
    /// intact (states are written atomically).
    Checkpoint(std::io::Error),
}

impl fmt::Display for RolloutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RolloutError::Snapshot(e) => write!(f, "snapshot error: {e}"),
            RolloutError::WorkerFault(e) => write!(f, "worker fault: {e}"),
            RolloutError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
        }
    }
}

impl std::error::Error for RolloutError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RolloutError::Snapshot(e) => Some(e),
            RolloutError::WorkerFault(e) => Some(e),
            RolloutError::Checkpoint(e) => Some(e),
        }
    }
}

impl From<SnapshotError> for RolloutError {
    fn from(e: SnapshotError) -> Self {
        RolloutError::Snapshot(e)
    }
}

impl From<WorkerFault> for RolloutError {
    fn from(e: WorkerFault) -> Self {
        RolloutError::WorkerFault(e)
    }
}
