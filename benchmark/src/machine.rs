//! The shared host under the benchmark: one CPU to run on, a clock that
//! stops while the host runs someone else, and a probe of how slow the
//! machine is right now.
//!
//! The virtual machines this benchmark runs on share a host. Three things
//! made runs of the same code read 15–45 % apart there, and none of them is
//! the program:
//!
//! * **Where threads land.** A request crosses three or four threads; when
//!   they sit on different virtual CPUs every hand-over is an inter-processor
//!   wake-up through the hypervisor — 40 % of a warm request, and a different
//!   share on every run. [`pin_to_one_cpu`] keeps the whole process on one
//!   CPU, so a hand-over is a context switch and nothing else.
//! * **Stolen time.** For minutes at a time the host gives 20–40 % of the
//!   virtual CPU to other guests, a few milliseconds at a go; every operation
//!   in flight at such a moment reads that much longer (p95 of a warm request
//!   1.0 ms in one run, 4.1 ms in the next). The scheduler's CPU-time clock
//!   does not advance while the guest is off the CPU, so every duration is
//!   taken as the **CPU time of the process** ([`Machine::now`]). With one
//!   closed-loop client on one CPU the process is running whenever an
//!   operation is in flight, so on a quiet machine CPU time and wall-clock
//!   agree (the result file carries both).
//! * **What the neighbours do.** For tens of seconds at a time the other
//!   guests load the caches the cores share, and everything but pure
//!   arithmetic slows by up to 1.8x — CPU time included. [`Machine::probe`]
//!   times a fixed pseudo-random walk over 4 MiB between operations, all
//!   through the run, and a duration is scaled by the probe's readings
//!   around it to what it would be on a quiet machine
//!   ([`Machine::at_reference_speed`]). How strongly a workload follows the
//!   probe is a property of the workload, fitted once
//!   ([`crate::workload::Workload::machine_sensitivity`]).
//!   Measured over 22–64 runs per workload in quiet and loaded phases: the
//!   runs' medians spread 16–40 % as measured, 6–11 % scaled.

use std::time::Instant;

use crate::report::{number, Outcome};
use crate::stats::{median, Timed};

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    /// Words of a CPU mask: room for 1024 CPUs, the kernel's usual limit.
    const MASK_WORDS: usize = 16;
    /// `CLOCK_PROCESS_CPUTIME_ID`.
    pub const PROCESS_CPU: i32 = 2;
    /// `CLOCK_THREAD_CPUTIME_ID`.
    pub const THREAD_CPU: i32 = 3;

    /// `struct timespec` of 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        seconds: i64,
        nanoseconds: i64,
    }

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    }

    /// Restricts the calling thread to the highest-numbered CPU it may run
    /// on (the lowest one also serves most interrupts).
    pub fn pin_calling_thread() -> Option<usize> {
        let mut allowed = [0u64; MASK_WORDS];
        // SAFETY: `allowed` is a live, writable buffer of exactly the size
        // passed; the kernel writes at most that many bytes into it. Pid 0
        // names the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
            return None;
        }
        let word = allowed.iter().rposition(|&w| w != 0)?;
        let cpu = word * 64 + (63 - allowed[word].leading_zeros() as usize);
        let mut only = [0u64; MASK_WORDS];
        only[word] = 1 << (cpu % 64);
        // SAFETY: `only` is a live buffer of exactly the size passed, and the
        // kernel only reads it.
        (unsafe { sched_setaffinity(0, std::mem::size_of_val(&only), only.as_ptr()) } == 0).then_some(cpu)
    }

    /// Nanoseconds of CPU time on `clock`, or `None` when the kernel has no
    /// such clock.
    pub fn cpu_time_ns(clock: i32) -> Option<u64> {
        let mut time = Timespec { seconds: 0, nanoseconds: 0 };
        // SAFETY: `time` is a live, writable `timespec` laid out as the
        // 64-bit Linux ABI defines it; the kernel writes only into it.
        (unsafe { clock_gettime(clock, &mut time) } == 0)
            .then(|| time.seconds as u64 * 1_000_000_000 + time.nanoseconds as u64)
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod sys {
    pub const PROCESS_CPU: i32 = 0;
    pub const THREAD_CPU: i32 = 0;

    pub fn pin_calling_thread() -> Option<usize> {
        None
    }

    pub fn cpu_time_ns(_clock: i32) -> Option<u64> {
        None
    }
}

/// Pins the calling thread — and every thread it or the program under test
/// spawns from now on, which inherit the mask — to one of the CPUs it may
/// run on. Returns the CPU, or `None` where the platform has no such call
/// (the run then goes unpinned).
pub fn pin_to_one_cpu() -> Option<usize> {
    sys::pin_calling_thread()
}

/// Size of the array the probe walks: 4 MiB of `u64`, twice a core's private
/// cache on the hosts this was written for, so the walk feels whoever else
/// is filling the caches. (A 32 MiB array, or a probe on a thread of its
/// own that woke to a cold cache, tracked request latency half as well.)
const PROBE_WORDS: usize = 1 << 19;
/// Pseudo-random read-modify-writes per probe (about 55 µs on a quiet host).
const PROBE_ACCESSES: u64 = 4000;
/// [`Machine::probe_if_due`] probes when the last probe is this old.
const PROBE_INTERVAL_NS: u64 = 20_000_000;
/// The probe's reading that counts as slowness 1.0: its value on the quiet
/// host the benchmark was written on. Any constant would do — it only fixes
/// the scale of the reported times — as long as it never changes.
pub const REFERENCE_PROBE_NS: f64 = 55_000.0;
/// Readings a slowness is the median of, at least.
const MIN_READINGS: usize = 8;
/// How far beyond an interval's ends its readings are taken from.
const MARGIN_NS: u64 = 100_000_000;

/// One probe: when it ran (wall-clock nanoseconds since the run's epoch)
/// and how much CPU time the fixed walk took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reading {
    /// When the probe started.
    pub at_ns: u64,
    /// How long it took.
    pub probe_ns: u64,
}

/// The probe's readings, in time order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProbeTrace {
    readings: Vec<Reading>,
}

impl ProbeTrace {
    /// Number of readings.
    pub fn len(&self) -> usize {
        self.readings.len()
    }

    /// Median probe reading around `[start_ns, end_ns]`, in nanoseconds: of
    /// the readings within [`MARGIN_NS`] of the interval, widened to the
    /// nearest [`MIN_READINGS`] when there are fewer. `None` without readings.
    pub fn probe_ns(&self, start_ns: u64, end_ns: u64) -> Option<f64> {
        if self.readings.is_empty() {
            return None;
        }
        let mut from = self.readings.partition_point(|r| r.at_ns + MARGIN_NS < start_ns);
        let mut to = self.readings.partition_point(|r| r.at_ns <= end_ns.saturating_add(MARGIN_NS));
        while to - from < MIN_READINGS.min(self.readings.len()) {
            // Widen towards whichever neighbour is nearer in time.
            let before = (from > 0).then(|| start_ns.saturating_sub(self.readings[from - 1].at_ns));
            let after = (to < self.readings.len()).then(|| self.readings[to].at_ns.saturating_sub(end_ns));
            match (before, after) {
                (Some(b), Some(a)) if b <= a => from -= 1,
                (_, Some(_)) => to += 1,
                (Some(_), None) => from -= 1,
                (None, None) => break,
            }
        }
        let window: Vec<f64> = self.readings[from..to].iter().map(|r| r.probe_ns as f64).collect();
        Some(median(&window))
    }

    /// How much slower than the reference the machine was around
    /// `[start_ns, end_ns]`; `1.0` without readings.
    pub fn slowness(&self, start_ns: u64, end_ns: u64) -> f64 {
        self.probe_ns(start_ns, end_ns).map_or(1.0, |ns| ns / REFERENCE_PROBE_NS)
    }
}

/// A moment on both of the run's clocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    /// Wall-clock nanoseconds since the run's epoch.
    pub wall_ns: u64,
    /// CPU time of the process so far, in nanoseconds.
    pub cpu_ns: u64,
}

/// What the benchmark claims of the machine for one workload run: the one
/// CPU, the clocks and the probe.
#[derive(Debug)]
pub struct Machine {
    /// CPUs the process could run on before it pinned itself.
    pub cpus: usize,
    /// The CPU it pinned itself to, if the platform allowed.
    pub pinned_cpu: Option<usize>,
    epoch: Instant,
    memory: Vec<u64>,
    state: u64,
    trace: ProbeTrace,
}

impl Machine {
    /// Pins the process to one CPU and starts the run's clock. Call before
    /// any other thread exists, so that every thread inherits the CPU.
    pub fn claim() -> Self {
        let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
        Self { pinned_cpu: pin_to_one_cpu(), ..Self::unpinned(cpus) }
    }

    fn unpinned(cpus: usize) -> Self {
        Self {
            cpus,
            pinned_cpu: None,
            epoch: Instant::now(),
            memory: vec![1; PROBE_WORDS],
            state: 0x9E37_79B9_7F4A_7C15,
            trace: ProbeTrace::default(),
        }
    }

    fn wall_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Now. Where the platform has no CPU-time clock the wall-clock stands
    /// in for it.
    pub fn now(&self) -> Stamp {
        let wall_ns = self.wall_ns();
        Stamp { wall_ns, cpu_ns: sys::cpu_time_ns(sys::PROCESS_CPU).unwrap_or(wall_ns) }
    }

    /// The operation that started at `start` and ends now.
    pub fn since(&self, start: Stamp) -> Timed {
        let end = self.now();
        Timed { start_ns: start.wall_ns, end_ns: end.wall_ns, cpu_ns: end.cpu_ns - start.cpu_ns }
    }

    /// Takes `count` probe readings: the fixed walk, [`PROBE_ACCESSES`]
    /// read-modify-writes at xorshift positions, timed on this thread's CPU
    /// clock. Call between operations, never inside one.
    pub fn probe(&mut self, count: usize) {
        let mask = self.memory.len() - 1;
        let clock = || sys::cpu_time_ns(sys::THREAD_CPU);
        for _ in 0..count {
            let at_ns = self.wall_ns();
            let (start, wall) = (clock(), Instant::now());
            let mut x = self.state;
            for i in 0..PROBE_ACCESSES {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let slot = &mut self.memory[x as usize & mask];
                *slot = slot.wrapping_add(x ^ i);
            }
            self.state = std::hint::black_box(x);
            let probe_ns = match (start, clock()) {
                (Some(start), Some(end)) => end - start,
                _ => wall.elapsed().as_nanos() as u64,
            };
            self.trace.readings.push(Reading { at_ns, probe_ns: probe_ns.max(1) });
        }
    }

    /// [`Machine::probe`] once, unless the last reading is younger than
    /// [`PROBE_INTERVAL_NS`]: what a loop of short operations calls after
    /// each of them.
    pub fn probe_if_due(&mut self) {
        let due = self.trace.readings.last().is_none_or(|r| self.wall_ns() >= r.at_ns + PROBE_INTERVAL_NS);
        if due {
            self.probe(1);
        }
    }

    /// The duration of `op` in seconds had the machine run at reference
    /// speed all through it: its CPU time over the slowness around it
    /// raised to `sensitivity` — how strongly what was timed follows the
    /// probe (its CPU time grows as the probe's reading to that power).
    pub fn at_reference_speed(&self, op: Timed, sensitivity: f64) -> f64 {
        op.cpu_ns as f64 / 1e9 / self.trace.slowness(op.start_ns, op.end_ns).powf(sensitivity)
    }

    /// The probe's readings so far.
    pub fn trace(&self) -> &ProbeTrace {
        &self.trace
    }

    /// Records in the result file what the run saw of the machine during
    /// its timed `window`: the CPU, the probe, and how much of the window's
    /// wall-clock was CPU time of this process.
    pub fn describe(&self, window: Timed, outcome: &mut Outcome) {
        let wall_ns = (window.end_ns - window.start_ns).max(1);
        outcome.detail("pinned_cpu", self.pinned_cpu.map_or(number(-1.0), |cpu| number(cpu as f64)));
        outcome.detail("probe_readings", number(self.trace.len() as f64));
        outcome.detail("window_slowness", number(self.trace.slowness(window.start_ns, window.end_ns)));
        outcome.detail("window_cpu_share", number(window.cpu_ns as f64 / wall_ns as f64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(readings: &[(u64, u64)]) -> ProbeTrace {
        ProbeTrace {
            readings: readings
                .iter()
                .map(|&(ms, us)| Reading { at_ns: ms * 1_000_000, probe_ns: us * 1000 })
                .collect(),
        }
    }

    const fn ms(t: u64) -> u64 {
        t * 1_000_000
    }

    #[test]
    fn slowness_is_the_median_reading_around_the_interval_over_the_reference() {
        // A reading every 20 ms for 4 s: quiet (55 µs) for 2 s, then loaded (110 µs).
        let readings: Vec<(u64, u64)> = (0..200).map(|i| (i * 20, if i < 100 { 55 } else { 110 })).collect();
        let quiet_then_loaded = trace(&readings);
        assert_eq!(quiet_then_loaded.slowness(ms(500), ms(501)), 1.0);
        assert_eq!(quiet_then_loaded.slowness(ms(3000), ms(3500)), 2.0);
        // An interval across the change takes the median of both sides.
        assert_eq!(quiet_then_loaded.slowness(ms(0), ms(2400)), 1.0);
        assert_eq!(quiet_then_loaded.slowness(ms(1500), ms(3950)), 2.0);
        // One inflated reading (the probe itself was interrupted) changes nothing.
        let mut spiked = readings.clone();
        spiked[25].1 = 900;
        assert_eq!(trace(&spiked).slowness(ms(500), ms(501)), 1.0);
    }

    #[test]
    fn a_sparse_trace_widens_to_its_nearest_readings() {
        // Bursts of four readings between long operations.
        let bursts: Vec<(u64, u64)> = [0u64, 1000, 2000, 3000]
            .iter()
            .flat_map(|&t| (0..4).map(move |i| (t + i, 55 + t / 20)))
            .collect();
        let sparse = trace(&bursts);
        // The operation between the bursts at 1 s and 2 s reads both of them.
        assert_eq!(sparse.probe_ns(ms(1010), ms(1990)), Some(105_000.0));
        // Fewer readings than the minimum: all of them, whatever the interval.
        let few = trace(&[(0, 55), (5000, 55), (10_000, 110)]);
        assert_eq!((few.len(), few.probe_ns(ms(9000), ms(9100))), (3, Some(55_000.0)));
        assert_eq!(ProbeTrace::default().slowness(0, 1), 1.0);
    }

    #[test]
    fn operations_are_timed_in_cpu_time_and_scaled_by_the_probe() {
        let mut machine = Machine::unpinned(0);
        machine.probe(MIN_READINGS);
        assert_eq!(machine.trace().len(), MIN_READINGS);
        let start = machine.now();
        let mut x = 1u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        // Sleeping takes wall-clock, not CPU time.
        std::thread::sleep(std::time::Duration::from_millis(30));
        let op = machine.since(start);
        assert!(op.end_ns - op.start_ns >= 30_000_000);
        assert!(op.cpu_ns > 0);
        let slowness = machine.trace().slowness(op.start_ns, op.end_ns);
        assert!(slowness.is_finite() && slowness > 0.0);
        assert!(
            (machine.at_reference_speed(op, 0.5) - op.cpu_ns as f64 / 1e9 / slowness.sqrt()).abs() < 1e-12
        );
        assert_eq!(machine.at_reference_speed(op, 0.0), op.cpu_ns as f64 / 1e9);
        // A probe that is not due is not taken.
        machine.probe_if_due();
        machine.probe_if_due();
        assert!(machine.trace().len() <= MIN_READINGS + 1);
    }

    #[test]
    fn pinning_leaves_exactly_one_cpu() {
        // On a thread of its own: the mask it sets dies with it.
        let (pinned, parallelism) = std::thread::spawn(|| {
            (pin_to_one_cpu(), std::thread::available_parallelism().map_or(0, |n| n.get()))
        })
        .join()
        .expect("pinning does not panic");
        if pinned.is_some() {
            assert_eq!(parallelism, 1, "available_parallelism follows the affinity mask");
        }
    }
}
