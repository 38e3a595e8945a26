//! The one supervised fan-out engine: every phase that fans work out —
//! episode collection, curriculum collection, the data-parallel PPO update —
//! is one [`run_items`] call. **New phases call [`run_items`]; never hand-roll
//! a scoped-thread pool or an unwind catcher next to it** (CI greps for a
//! second one). The contract callers get:
//!
//! * **Sharding.** The worker count is clamped to the item count. One
//!   effective worker runs every item inline on the calling thread (no
//!   spawn); `W > 1` workers run as scoped threads, worker `w` taking items
//!   `w, w + W, w + 2W, …` in ascending order, metered by [`PoolMeter`].
//! * **State.** Each thread builds its own scratch `S` through `make_state`
//!   (environments, a tape arena …) lazily, before its first item, and
//!   reuses it across its items. Building it cannot fail, and it never holds
//!   an agent: `run` closures borrow the caller's live `&XrlflowAgent`
//!   across the scoped-thread boundary, while everything that mutates
//!   parameters happens on the calling thread *between* `run_items` calls
//!   (`&mut agent` there, `&agent` inside a phase).
//! * **Supervision.** Every attempt trips `fault::trip(phase,
//!   fault_item(item), attempt)` and runs under `catch_unwind`. A panic is
//!   counted (`rollout/worker_panics`), the thread's state is dropped and
//!   rebuilt before its next item (a panic leaves it unspecified), and the
//!   item is left for the supervisor.
//! * **Retry.** Once every item has had its first attempt, the calling
//!   (supervisor) thread re-runs the failed ones in ascending item order, up
//!   to [`RETRY_BUDGET`] extra attempts each (counted in
//!   `rollout/item_retries`). At `W > 1` the supervisor builds its own state
//!   lazily, on the first failure. Exhaustion is the typed [`WorkerFault`] —
//!   the only way a phase can fail.
//! * **Order.** Results come back indexed by item, independent of which
//!   thread ran what or when it finished — so a `run` that is a pure
//!   function of the item index is bit-identical at every worker count and
//!   under any number of recovered faults.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use xrlflow_core::fault::{self, FaultPhase, WorkerFault};

/// Counter of work-item executions that panicked and were caught.
const WORKER_PANICS: &str = "rollout/worker_panics";
/// Counter of re-executions of failed work items.
const ITEM_RETRIES: &str = "rollout/item_retries";

/// The retry budget: how many times a failed work item is re-executed
/// (beyond its first attempt) before the phase gives up with a
/// [`WorkerFault`]. A constant, not a knob: the fault suites pin it.
const RETRY_BUDGET: u32 = 2;

/// Busy/idle accounting for one pooled run: each worker wraps its whole
/// closure in a `rollout/worker_busy` span, and the meter turns the
/// busy-histogram delta plus the pool's wall-clock into the
/// `rollout/worker_busy_ns` / `rollout/worker_wall_ns` counters and the
/// `rollout/worker_utilization` gauge (busy ÷ wall × workers; 1.0 = no
/// worker ever idled waiting for stragglers). Inert while telemetry is
/// disabled — the clock is never read.
struct PoolMeter {
    busy_before_ns: u64,
    start: Option<Instant>,
    num_workers: usize,
}

impl PoolMeter {
    fn start(num_workers: usize) -> Self {
        Self {
            busy_before_ns: xrlflow_obs::histogram!("rollout/worker_busy").sum(),
            start: xrlflow_obs::enabled().then(Instant::now),
            num_workers,
        }
    }

    fn finish(self) {
        let Some(start) = self.start else { return };
        let wall_ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let busy_ns =
            xrlflow_obs::histogram!("rollout/worker_busy").sum().saturating_sub(self.busy_before_ns);
        let pool_ns = wall_ns.saturating_mul(self.num_workers as u64);
        xrlflow_obs::counter!("rollout/worker_busy_ns").add(busy_ns);
        xrlflow_obs::counter!("rollout/worker_wall_ns").add(pool_ns);
        if pool_ns > 0 {
            xrlflow_obs::gauge!("rollout/worker_utilization").set(busy_ns as f64 / pool_ns as f64);
        }
    }
}

/// Runs items `0..num_items` of `phase` on up to `num_workers` supervised
/// threads and returns their results **in item order** (contract: module
/// docs). `fault_item` maps an item index to the id the fault-injection hook
/// and a [`WorkerFault`] report for it; `make_state` builds one thread's
/// private working state; `run` executes one item against that state.
///
/// # Errors
///
/// A [`WorkerFault`] when an item kept panicking past the retry budget.
pub(crate) fn run_items<S, T: Send>(
    phase: FaultPhase,
    num_items: usize,
    num_workers: usize,
    fault_item: impl Fn(usize) -> u64 + Sync,
    make_state: impl Fn() -> S + Sync,
    run: impl Fn(&mut S, usize) -> T + Sync,
) -> Result<Vec<T>, WorkerFault> {
    // Never more workers than items, never fewer than one.
    let num_workers = num_workers.clamp(1, num_items.max(1));

    // One supervised attempt against a thread's (lazily built) state: the
    // item's result, or the text of the panic that interrupted it.
    let attempt_item = |seat: &mut Option<S>, item: usize, attempt: u32| {
        let state = seat.get_or_insert_with(&make_state);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            fault::trip(phase, fault_item(item), attempt);
            run(state, item)
        }));
        outcome.map_err(|payload| {
            xrlflow_obs::counter!(WORKER_PANICS).inc();
            *seat = None;
            fault::panic_payload_text(payload.as_ref())
        })
    };

    // First attempts: shard `w` is items `w, w + W, …`, each attempted once on
    // one thread's seat — the single inline shard on the supervisor's.
    let first_attempts = |seat: &mut Option<S>, worker: usize| {
        (worker..num_items).step_by(num_workers).map(|item| attempt_item(seat, item, 0)).collect::<Vec<_>>()
    };
    let mut supervisor = None;
    let shards = if num_workers <= 1 {
        vec![first_attempts(&mut supervisor, 0)]
    } else {
        let meter = PoolMeter::start(num_workers);
        let first_attempts = &first_attempts;
        let shards = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..num_workers)
                .map(|worker| {
                    scope.spawn(move || {
                        let _busy = xrlflow_obs::span!("rollout/worker_busy");
                        first_attempts(&mut None, worker)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("rollout worker panicked outside a work item"))
                .collect::<Vec<_>>()
        });
        meter.finish();
        shards
    };

    // Merge in item order; retries run here, on the supervisor thread, so
    // they are in ascending item order too.
    let mut shards: Vec<_> = shards.into_iter().map(Vec::into_iter).collect();
    let mut results = Vec::with_capacity(num_items);
    for item in 0..num_items {
        let mut outcome = shards[item % num_workers].next().expect("its shard attempted every item");
        let mut attempts = 1u32;
        let result = loop {
            match outcome {
                Ok(result) => break result,
                Err(payload) if attempts > RETRY_BUDGET => {
                    return Err(WorkerFault { phase, item: fault_item(item), attempts, payload });
                }
                Err(_) => {
                    xrlflow_obs::counter!(ITEM_RETRIES).inc();
                    outcome = attempt_item(&mut supervisor, item, attempts);
                    attempts += 1;
                }
            }
        };
        results.push(result);
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering::SeqCst};
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// The panic/retry counters are process-global, so the tests that panic
    /// on purpose serialise on this lock to read exact deltas.
    fn serialised() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A thread's toy working state; `dirty` is set just before a panic.
    struct ToyState {
        dirty: bool,
    }

    /// A toy workload: item `i` really panics on its first `failures[i]`
    /// executions, then returns `i * 10`. Its fault id is `100 + i`.
    struct Toy {
        failures: Vec<u32>,
        executions: Vec<AtomicU32>,
        builds: AtomicUsize,
        retry_order: Mutex<Vec<usize>>,
        reused_dirty_state: AtomicBool,
    }

    impl Toy {
        fn new(failures: &[u32]) -> Self {
            Self {
                failures: failures.to_vec(),
                executions: failures.iter().map(|_| AtomicU32::new(0)).collect(),
                builds: AtomicUsize::new(0),
                retry_order: Mutex::new(Vec::new()),
                reused_dirty_state: AtomicBool::new(false),
            }
        }

        fn run(&self, num_workers: usize) -> Result<Vec<usize>, WorkerFault> {
            run_items(
                FaultPhase::Update,
                self.failures.len(),
                num_workers,
                |item| 100 + item as u64,
                || {
                    self.builds.fetch_add(1, SeqCst);
                    ToyState { dirty: false }
                },
                |state, item| {
                    if state.dirty {
                        self.reused_dirty_state.store(true, SeqCst);
                    }
                    let execution = self.executions[item].fetch_add(1, SeqCst);
                    if execution > 0 {
                        self.retry_order.lock().unwrap().push(item);
                    }
                    if execution < self.failures[item] {
                        state.dirty = true;
                        panic!("toy failure on item {item}");
                    }
                    item * 10
                },
            )
        }
    }

    #[test]
    fn results_come_back_in_item_order_at_every_worker_count() {
        for workers in [0usize, 1, 2, 4, 16] {
            let toy = Toy::new(&[0; 5]);
            assert_eq!(toy.run(workers).unwrap(), vec![0, 10, 20, 30, 40], "{workers} workers");
            // One state per thread actually used: the worker count is
            // clamped to [1, items].
            assert_eq!(toy.builds.load(SeqCst), workers.clamp(1, 5), "{workers} workers");
        }
        for workers in [0usize, 1, 2, 4, 16] {
            let toy = Toy::new(&[]);
            assert!(toy.run(workers).unwrap().is_empty(), "{workers} workers over zero items");
            // Every thread — the inline supervisor included — seats its
            // state lazily, before its first item: zero items, zero states.
            assert_eq!(toy.builds.load(SeqCst), 0, "{workers} workers over zero items");
        }
    }

    #[test]
    fn a_panicking_item_is_retried_on_a_rebuilt_state_into_its_own_slot() {
        let _guard = serialised();
        for workers in [1usize, 2, 4] {
            let toy = Toy::new(&[0, 0, 1, 0, 0, 0]);
            assert_eq!(toy.run(workers).unwrap(), vec![0, 10, 20, 30, 40, 50], "{workers} workers");
            assert_eq!(toy.executions[2].load(SeqCst), 2, "{workers} workers: one retry");
            assert!(
                !toy.reused_dirty_state.load(SeqCst),
                "{workers} workers: a state that saw a panic must be rebuilt, never reused"
            );
            // Item 4 follows item 2 on the same thread at 1 and 2 workers,
            // so that thread rebuilt once; pooled, the supervisor also built
            // its own (lazily, for the retry).
            let expected_builds = match workers {
                1 => 2,
                2 => 2 + 1 + 1,
                _ => 4 + 1,
            };
            assert_eq!(toy.builds.load(SeqCst), expected_builds, "{workers} workers");
        }
    }

    #[test]
    fn failed_items_are_retried_in_ascending_item_order() {
        let _guard = serialised();
        for workers in [1usize, 2, 4] {
            // Items 5, 1 and 3 fail (3 of them twice); whichever worker
            // reported first, the supervisor works through 1, 3, 3, 5.
            let toy = Toy::new(&[0, 1, 0, 2, 0, 1]);
            assert_eq!(toy.run(workers).unwrap(), vec![0, 10, 20, 30, 40, 50], "{workers} workers");
            assert_eq!(*toy.retry_order.lock().unwrap(), vec![1, 3, 3, 5], "{workers} workers");
        }
    }

    #[test]
    fn an_item_that_always_panics_is_a_typed_worker_fault() {
        let _guard = serialised();
        for workers in [1usize, 3] {
            let toy = Toy::new(&[0, 0, 0, u32::MAX, 0]);
            assert_eq!(
                toy.run(workers).unwrap_err(),
                WorkerFault {
                    phase: FaultPhase::Update,
                    item: 103,
                    attempts: RETRY_BUDGET + 1,
                    payload: "toy failure on item 3".to_string(),
                },
                "{workers} workers"
            );
            assert_eq!(toy.executions[3].load(SeqCst), RETRY_BUDGET + 1, "{workers} workers");
        }
    }

    #[test]
    fn panics_and_retries_are_counted() {
        let _guard = serialised();
        let panics = xrlflow_obs::counter!(WORKER_PANICS);
        let retries = xrlflow_obs::counter!(ITEM_RETRIES);
        for workers in [1usize, 2] {
            let (panics_before, retries_before) = (panics.get(), retries.get());
            // Item 0 fails twice, item 1 once: three caught panics, three
            // re-executions.
            Toy::new(&[2, 1, 0]).run(workers).unwrap();
            assert_eq!(panics.get() - panics_before, 3, "{workers} workers");
            assert_eq!(retries.get() - retries_before, 3, "{workers} workers");

            // Exhaustion: every one of the budget + 1 attempts panicked, and
            // all but the first were retries.
            let (panics_before, retries_before) = (panics.get(), retries.get());
            Toy::new(&[0, u32::MAX]).run(workers).unwrap_err();
            assert_eq!(panics.get() - panics_before, u64::from(RETRY_BUDGET) + 1, "{workers} workers");
            assert_eq!(retries.get() - retries_before, u64::from(RETRY_BUDGET), "{workers} workers");
        }
    }
}
