//! The one supervised fan-out engine: every phase that fans work out —
//! episode collection (one spec or a curriculum), the data-parallel PPO update —
//! is one [`run_items`] call. **New phases call [`run_items`]; never hand-roll
//! a scoped-thread pool or an unwind catcher next to it** (CI greps for a
//! second one). The contract callers get:
//!
//! * **Sharding.** [`run_items`] starts `min(num_workers, usable CPUs,
//!   items)` threads, at least one: the worker count is an upper bound and
//!   the CPUs the process may use (its affinity mask and cgroup quota, read
//!   once per process) the cap, so a one-CPU container never time-slices two
//!   workers. One thread runs every item inline on the calling thread (no
//!   spawn); `W > 1` threads run scoped, thread `w` taking items `w, w + W,
//!   w + 2W, …` in ascending order, metered by [`PoolMeter`]. What `W` is
//!   never changes a result (see **Order**).
//! * **State.** Each thread builds its own scratch `S` through `make_state`
//!   (a collector's environments …) lazily, before its first item, and
//!   reuses it across its items; scratch that outlives one call (the
//!   update's tapes) is lent to an item by the caller instead, and a
//!   panicking item drops what it borrowed. Building it cannot fail, and it never holds
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
//! * **Order.** Results go to the caller's `deliver` callback in item
//!   order, independent of which thread ran what or when it finished — so a
//!   `run` that is a pure function of the item index is bit-identical at
//!   every thread count and under any number of recovered faults. Inline, a
//!   result is delivered as soon as it and every earlier item have succeeded
//!   (a streaming merge keeps one item's result live at a time); a failed
//!   item holds back the results after it until its retry. Pooled, results
//!   are delivered after the join.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
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

/// The CPUs this process may run on — the affinity mask and the cgroup CPU
/// quota both count — read once per process (std re-reads the cgroup files on
/// every call). `None` when the platform cannot tell: then nothing is capped.
fn usable_cpus() -> Option<usize> {
    static CPUS: OnceLock<Option<usize>> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().ok().map(NonZeroUsize::get))
}

/// Runs items `0..num_items` of `phase` on up to `num_workers` supervised
/// threads — never more than [`usable_cpus`] — and hands every result to
/// `deliver` **in item order** (contract: module docs). `fault_item` maps an
/// item index to the id the fault-injection hook and a [`WorkerFault`] report
/// for it; `make_state` builds one thread's private working state; `run`
/// executes one item against that state; `deliver(item, result)` runs on the
/// calling thread.
///
/// # Errors
///
/// A [`WorkerFault`] when an item kept panicking past the retry budget; the
/// items before it have been delivered, none after it.
pub(crate) fn run_items<S, T: Send>(
    phase: FaultPhase,
    num_items: usize,
    num_workers: usize,
    fault_item: impl Fn(usize) -> u64 + Sync,
    make_state: impl Fn() -> S + Sync,
    run: impl Fn(&mut S, usize) -> T + Sync,
    deliver: impl FnMut(usize, T),
) -> Result<(), WorkerFault> {
    let threads = usable_cpus().map_or(num_workers, |cpus| num_workers.min(cpus));
    run_items_on(phase, num_items, threads, fault_item, make_state, run, deliver)
}

/// [`run_items`] on exactly `threads` threads (clamped to `[1, num_items]`),
/// whatever the CPUs.
fn run_items_on<S, T: Send>(
    phase: FaultPhase,
    num_items: usize,
    threads: usize,
    fault_item: impl Fn(usize) -> u64 + Sync,
    make_state: impl Fn() -> S + Sync,
    run: impl Fn(&mut S, usize) -> T + Sync,
    mut deliver: impl FnMut(usize, T),
) -> Result<(), WorkerFault> {
    // Never more threads than items, never fewer than one.
    let threads = threads.clamp(1, num_items.max(1));

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

    // First attempts. The outcomes not delivered yet, in item order, are the
    // tail of `0..num_items` from the first failure on.
    let mut supervisor = None;
    let mut held = Vec::new();
    if threads == 1 {
        // Inline: a result goes out as soon as every earlier item has.
        for item in 0..num_items {
            match attempt_item(&mut supervisor, item, 0) {
                Ok(result) if held.is_empty() => deliver(item, result),
                outcome => held.push(outcome),
            }
        }
    } else {
        // Pooled: shard `w` is items `w, w + W, …`, each attempted once on
        // its own thread's seat; everything is delivered after the join.
        let meter = PoolMeter::start(threads);
        let first_attempts = |worker: usize| {
            let mut seat = None;
            (worker..num_items)
                .step_by(threads)
                .map(|item| attempt_item(&mut seat, item, 0))
                .collect::<Vec<_>>()
        };
        let first_attempts = &first_attempts;
        let shards = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|worker| {
                    scope.spawn(move || {
                        let _busy = xrlflow_obs::span!("rollout/worker_busy");
                        first_attempts(worker)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("rollout worker panicked outside a work item"))
                .collect::<Vec<_>>()
        });
        meter.finish();
        let mut shards: Vec<_> = shards.into_iter().map(Vec::into_iter).collect();
        held = (0..num_items)
            .map(|item| shards[item % threads].next().expect("its shard attempted every item"))
            .collect();
    }

    // Retries run here, on the supervisor thread, in ascending item order,
    // and hold back the results after them until they succeed.
    for (item, mut outcome) in (num_items - held.len()..).zip(held) {
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
        deliver(item, result);
    }
    Ok(())
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

        /// Runs the toy on exactly `threads` threads (whatever the CPUs) and
        /// collects what it delivered, in delivery order.
        fn run(&self, threads: usize) -> Result<Vec<usize>, WorkerFault> {
            let mut delivered = Vec::new();
            run_items_on(
                FaultPhase::Update,
                self.failures.len(),
                threads,
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
                |item, result| {
                    assert_eq!(result, item * 10, "a result is delivered with its own item index");
                    delivered.push(result);
                },
            )
            .map(|()| delivered)
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

    /// What the in-order delivery test records, in the order it happened.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Event {
        Ran(usize),
        Delivered(usize),
    }

    #[test]
    fn results_are_delivered_in_item_order_around_a_retry() {
        use Event::{Delivered, Ran};
        let _guard = serialised();
        for threads in [1usize, 2, 4] {
            // Item 1's first attempt panics; it is retried after every first
            // attempt, and nothing after it is delivered before it.
            let events = Mutex::new(Vec::new());
            let failed_once = AtomicBool::new(false);
            run_items_on(
                FaultPhase::Collect,
                5,
                threads,
                |item| item as u64,
                || (),
                |(), item| {
                    if item == 1 && !failed_once.swap(true, SeqCst) {
                        panic!("first attempt of item 1");
                    }
                    events.lock().unwrap().push(Ran(item));
                    item
                },
                |item, result| {
                    assert_eq!(item, result);
                    events.lock().unwrap().push(Delivered(item));
                },
            )
            .unwrap();
            let mut events = events.into_inner().unwrap();
            let tail = [Ran(1), Delivered(1), Delivered(2), Delivered(3), Delivered(4)];
            if threads == 1 {
                // Inline: item 0 goes out before item 1 runs; 2, 3 and 4
                // wait for item 1's retry.
                assert_eq!(events[..5], [Ran(0), Delivered(0), Ran(2), Ran(3), Ran(4)]);
            } else {
                // Pooled: the first attempts finish (in any order) before
                // the first delivery.
                events[..4].sort_unstable();
                assert_eq!(events[..5], [Ran(0), Ran(2), Ran(3), Ran(4), Delivered(0)], "{threads} threads");
            }
            assert_eq!(events[5..], tail, "{threads} threads");
        }
    }

    #[test]
    fn no_more_threads_run_items_than_the_process_has_cpus() {
        let cap = usable_cpus().unwrap_or(usize::MAX);
        for workers in [1usize, 2, 4, 16] {
            let ran_on = Mutex::new(std::collections::HashSet::new());
            run_items(
                FaultPhase::Collect,
                32,
                workers,
                |item| item as u64,
                || (),
                |(), _| {
                    ran_on.lock().unwrap().insert(std::thread::current().id());
                },
                |_, ()| {},
            )
            .unwrap();
            let ran_on = ran_on.into_inner().unwrap();
            let bound = workers.min(cap);
            assert!(
                !ran_on.is_empty() && ran_on.len() <= bound,
                "{workers} workers ran on {} threads",
                ran_on.len()
            );
            if bound == 1 {
                assert!(ran_on.contains(&std::thread::current().id()), "one thread is the calling thread");
            }
        }
    }
}
