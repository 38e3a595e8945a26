//! Deterministic fault injection for robustness tests.
//!
//! Production fault tolerance is only trustworthy if it is exercised, so the
//! supervised worker pools (`xrlflow-rollout`) and the serving layer
//! (`xrlflow-serve`) call [`trip`] at the top of every work item. The hook
//! is compiled in unconditionally — the code under test is the code that
//! ships — but it is **inert** unless a test installs a [`FaultPlan`]: the
//! disarmed fast path is a single relaxed atomic load, cheap enough for the
//! allocation-free hot loops.
//!
//! A plan is a deterministic schedule of one-shot panics ("panic on item `k`
//! at attempt `a` of phase `p`"). Determinism matters: the differential
//! suites assert that a run with injected faults produces **bit-identical**
//! parameters to a fault-free run, which only makes sense when the faults
//! themselves are reproducible.
//!
//! ```
//! use xrlflow_core::fault::{self, FaultPhase, FaultPlan};
//!
//! let guard = FaultPlan::new().panic_on(FaultPhase::Collect, 3, 0).install();
//! let caught = std::panic::catch_unwind(|| fault::trip(FaultPhase::Collect, 3, 0));
//! assert!(caught.is_err(), "armed fault must panic");
//! // One-shot: the same (phase, item, attempt) does not fire twice.
//! fault::trip(FaultPhase::Collect, 3, 0);
//! drop(guard); // disarms and clears the plan
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The phase of the system a scheduled fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPhase {
    /// Episode collection, one spec or a curriculum (`item` is the rollout
    /// engine's `curriculum_fault_item(spec, episode)`: the episode index
    /// for a single spec).
    Collect,
    /// Data-parallel minibatch gradient shards.
    Update,
    /// The greedy optimisation episode run by the serving layer's
    /// single-flight leader (`item` is the request graph's canonical hash).
    Serve,
}

impl std::fmt::Display for FaultPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FaultPhase::Collect => "collect",
            FaultPhase::Update => "update",
            FaultPhase::Serve => "serve",
        })
    }
}

/// One scheduled injected panic: phase, work-item index and the attempt
/// (0 = first execution, 1 = first retry, …) at which it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Phase the fault targets.
    pub phase: FaultPhase,
    /// Work-item id within the phase (packed `(spec, episode)`, minibatch
    /// position or request hash).
    pub item: u64,
    /// Attempt number at which to fire.
    pub attempt: u32,
}

/// A deterministic schedule of injected panics.
///
/// Each entry fires **once**: the first [`trip`] call matching its
/// `(phase, item, attempt)` panics and consumes the entry. To make an item
/// exhaust a retry budget of `n`, schedule entries for attempts `0..=n`.
#[derive(Debug, Default)]
pub struct FaultPlan {
    panics: Vec<FaultSpec>,
}

impl FaultPlan {
    /// Creates an empty plan (installing it arms nothing but still
    /// serialises against other installers).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules a one-shot panic on `item` at `attempt` of `phase`.
    #[must_use]
    pub fn panic_on(mut self, phase: FaultPhase, item: u64, attempt: u32) -> Self {
        self.panics.push(FaultSpec { phase, item, attempt });
        self
    }

    /// Schedules panics on every attempt `0..=budget` of `item`, so the
    /// supervised pool's retry budget of `budget` is exhausted and the
    /// caller observes the typed worker-fault error.
    #[must_use]
    pub fn exhaust_budget_on(mut self, phase: FaultPhase, item: u64, budget: u32) -> Self {
        for attempt in 0..=budget {
            self.panics.push(FaultSpec { phase, item, attempt });
        }
        self
    }

    /// Installs the plan process-wide and arms the [`trip`] hook.
    ///
    /// Installation is exclusive: concurrent installers (tests running in
    /// the same process) are serialised on an internal lock held by the
    /// returned guard, and dropping the guard disarms the hook and clears
    /// the plan. Keep the guard alive for the duration of the faulty run.
    #[must_use]
    pub fn install(self) -> FaultInjectionGuard {
        static INSTALL_LOCK: Mutex<()> = Mutex::new(());
        let lock = INSTALL_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        *plan_slot().lock().unwrap_or_else(PoisonError::into_inner) =
            Some(self.panics.into_iter().map(|spec| (spec, false)).collect());
        ARMED.store(true, Ordering::SeqCst);
        FaultInjectionGuard { _lock: lock }
    }
}

/// A work item that kept panicking until the supervised pool's retry budget
/// was exhausted.
///
/// `item` uses the same numbering as [`FaultSpec::item`] (and therefore
/// [`FaultPlan`]), so the id in an error message can be pasted straight into
/// a reproduction plan. `attempts` counts every execution, including the
/// first (`budget + 1` when the budget is exhausted), and `payload` carries
/// the text of the last panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerFault {
    /// Phase in which the item kept failing.
    pub phase: FaultPhase,
    /// Work-item id, numbered as in [`FaultSpec::item`].
    pub item: u64,
    /// Total executions before giving up (first attempt + retries).
    pub attempts: u32,
    /// Text of the final panic payload.
    pub payload: String,
}

impl std::fmt::Display for WorkerFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} item {} still failing after {} attempts: {}",
            self.phase, self.item, self.attempts, self.payload
        )
    }
}

impl std::error::Error for WorkerFault {}

/// Renders a caught panic payload as text for [`WorkerFault::payload`].
///
/// `&str` and `String` payloads (everything `panic!` produces) are shown
/// verbatim; anything else degrades to a placeholder rather than being lost.
pub fn panic_payload_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(text) = payload.downcast_ref::<&str>() {
        (*text).to_string()
    } else if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Keeps an installed [`FaultPlan`] armed; disarms and clears it on drop.
pub struct FaultInjectionGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for FaultInjectionGuard {
    fn drop(&mut self) {
        ARMED.store(false, Ordering::SeqCst);
        *plan_slot().lock().unwrap_or_else(PoisonError::into_inner) = None;
    }
}

/// Fast-path arm flag: [`trip`] returns immediately when this is `false`,
/// so the hook costs one relaxed load in production.
static ARMED: AtomicBool = AtomicBool::new(false);

/// Installed plan entries, each with a `fired` flag for one-shot semantics.
fn plan_slot() -> &'static Mutex<Option<Vec<(FaultSpec, bool)>>> {
    static PLAN: Mutex<Option<Vec<(FaultSpec, bool)>>> = Mutex::new(None);
    &PLAN
}

/// Fault-injection hook: panics iff an installed [`FaultPlan`] schedules a
/// (not yet fired) panic for this `(phase, item, attempt)`.
///
/// Inert — a single relaxed atomic load — unless a plan is installed. The
/// panic payload is a `String` naming the phase, item and attempt, which the
/// supervised pool surfaces verbatim in `RolloutError::WorkerFault`.
///
/// # Panics
///
/// By design, when an armed plan matches.
pub fn trip(phase: FaultPhase, item: u64, attempt: u32) {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    let fire = {
        let mut slot = plan_slot().lock().unwrap_or_else(PoisonError::into_inner);
        match slot.as_mut() {
            Some(entries) => entries
                .iter_mut()
                .find(|(spec, fired)| {
                    !*fired && spec.phase == phase && spec.item == item && spec.attempt == attempt
                })
                .map(|entry| {
                    entry.1 = true;
                    entry.0
                }),
            None => None,
        }
    };
    if let Some(spec) = fire {
        panic!("injected fault: phase {} item {} attempt {}", spec.phase, spec.item, spec.attempt);
    }
}

/// Number of scheduled faults that have not fired yet (0 when disarmed).
///
/// Tests assert this drops to zero to prove every scheduled fault was
/// actually exercised by the run under test.
pub fn pending_faults() -> usize {
    if !ARMED.load(Ordering::Relaxed) {
        return 0;
    }
    plan_slot()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .as_ref()
        .map_or(0, |entries| entries.iter().filter(|(_, fired)| !fired).count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn disarmed_hook_is_inert() {
        // An empty plan arms nothing, but holding it keeps every other
        // test's plan out of the process-global slot while this one reads.
        let _serial = FaultPlan::new().install();
        trip(FaultPhase::Collect, 0, 0);
        trip(FaultPhase::Update, u64::MAX, u32::MAX);
        assert_eq!(pending_faults(), 0);
    }

    #[test]
    fn armed_faults_fire_once_with_a_descriptive_payload() {
        let guard = FaultPlan::new().panic_on(FaultPhase::Collect, 7, 1).install();
        assert_eq!(pending_faults(), 1);
        // Wrong item / attempt / phase: no fire.
        trip(FaultPhase::Collect, 7, 0);
        trip(FaultPhase::Collect, 6, 1);
        trip(FaultPhase::Update, 7, 1);
        assert_eq!(pending_faults(), 1);

        let payload = catch_unwind(AssertUnwindSafe(|| trip(FaultPhase::Collect, 7, 1)))
            .expect_err("scheduled fault must panic");
        let text = payload.downcast_ref::<String>().expect("payload is a String");
        assert_eq!(text, "injected fault: phase collect item 7 attempt 1");

        // One-shot: consumed.
        assert_eq!(pending_faults(), 0);
        trip(FaultPhase::Collect, 7, 1);
        drop(guard);
        assert_eq!(pending_faults(), 0);
    }

    #[test]
    fn exhaust_budget_schedules_every_attempt() {
        let guard = FaultPlan::new().exhaust_budget_on(FaultPhase::Update, 2, 2).install();
        assert_eq!(pending_faults(), 3);
        for attempt in 0..=2 {
            assert!(catch_unwind(AssertUnwindSafe(|| trip(FaultPhase::Update, 2, attempt))).is_err());
        }
        assert_eq!(pending_faults(), 0);
        drop(guard);
    }
}
