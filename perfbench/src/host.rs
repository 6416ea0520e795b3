//! Host-side instruments: the thread CPU clock, peak resident memory, a
//! counting global allocator with a runtime arm flag, the fixed-work
//! calibration kernel of the noise guard, and the order statistics the
//! report prints.
//!
//! Everything here measures the *host*; simulated time never enters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

#[cfg(target_os = "linux")]
mod sys {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s
    /// of which `ru_maxrss` (kilobytes) is the first.
    #[repr(C)]
    struct Rusage {
        ru_utime: [i64; 2],
        ru_stime: [i64; 2],
        ru_maxrss: i64,
        rest: [i64; 13],
    }

    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    const RUSAGE_SELF: i32 = 0;

    extern "C" {
        fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }

    pub fn thread_cpu_ns() -> Option<u64> {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable `struct timespec` (two
        // 64-bit fields on every 64-bit Linux target) for the duration
        // of the call; clock_gettime writes nothing else.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
    }

    pub fn peak_rss_kb() -> Option<u64> {
        let mut ru = Rusage {
            ru_utime: [0; 2],
            ru_stime: [0; 2],
            ru_maxrss: 0,
            rest: [0; 13],
        };
        // SAFETY: `ru` is a valid, writable buffer with the size and
        // layout of `struct rusage` on 64-bit Linux (144 bytes);
        // getrusage writes only within it.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        (rc == 0).then_some(ru.ru_maxrss as u64)
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn thread_cpu_ns() -> Option<u64> {
        None
    }
    pub fn peak_rss_kb() -> Option<u64> {
        None
    }
}

/// A paired reading of the calling thread's CPU clock and the wall
/// clock. CPU time measures the program; wall time adds whatever the
/// scheduler did to it.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    cpu_ns: Option<u64>,
    wall: Instant,
}

/// CPU and wall seconds between two [`Stamp`]s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Elapsed {
    /// On-CPU seconds of the calling thread (wall seconds where the
    /// host has no per-thread CPU clock).
    pub cpu_s: f64,
    /// Wall-clock seconds.
    pub wall_s: f64,
}

impl Stamp {
    /// Reads both clocks.
    pub fn now() -> Self {
        Stamp {
            cpu_ns: sys::thread_cpu_ns(),
            wall: Instant::now(),
        }
    }

    /// Time since this stamp was taken.
    pub fn elapsed(&self) -> Elapsed {
        let wall_s = self.wall.elapsed().as_secs_f64();
        let cpu_s = match (self.cpu_ns, sys::thread_cpu_ns()) {
            (Some(then), Some(now)) => now.saturating_sub(then) as f64 / 1e9,
            _ => wall_s,
        };
        Elapsed { cpu_s, wall_s }
    }
}

/// Peak resident set size of the process so far, in megabytes (0 where
/// the host does not report it).
pub fn peak_rss_mb() -> f64 {
    sys::peak_rss_kb().map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// The counting allocator: forwards to the system allocator and, while
/// armed, counts calls and bytes. Disarmed it costs one relaxed load per
/// call, so the timed repetitions run with it installed but idle.
pub struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static NET_BYTES: AtomicI64 = AtomicI64::new(0);
static NET_PEAK: AtomicI64 = AtomicI64::new(0);

// The counters publish no other data (they are statistics read after a
// single-threaded pass), so every access is `Relaxed`.
fn note_alloc(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    let net = NET_BYTES.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    NET_PEAK.fetch_max(net, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never touch
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            note_alloc(layout.size());
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ARMED.load(Ordering::Relaxed) {
            NET_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            NET_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
            note_alloc(new_size);
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What the allocator counted between [`arm_allocator`] and
/// [`disarm_allocator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocCounts {
    /// `alloc` + `realloc` calls.
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// High-water mark of (bytes requested − bytes released) since
    /// arming: the heap the armed section added at its worst moment.
    pub peak_net_bytes: u64,
}

/// Zeroes the counters and starts counting.
pub fn arm_allocator() {
    ALLOCS.store(0, Ordering::Relaxed);
    ALLOC_BYTES.store(0, Ordering::Relaxed);
    NET_BYTES.store(0, Ordering::Relaxed);
    NET_PEAK.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
}

/// Stops counting and returns the totals.
pub fn disarm_allocator() -> AllocCounts {
    ARMED.store(false, Ordering::Relaxed);
    allocator_counts()
}

/// The current totals, armed or not.
pub fn allocator_counts() -> AllocCounts {
    AllocCounts {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        peak_net_bytes: NET_PEAK.load(Ordering::Relaxed).max(0) as u64,
    }
}

/// The noise guard's fixed-work kernel: heap churn at the event queue's
/// depth, hash lookups and a small allocation per step — the simulator's
/// own access pattern in miniature. A pure integer loop does not slow
/// down when a neighbour thrashes the shared cache; this does, which is
/// what makes it a usable disturbance probe. Returns CPU milliseconds.
pub fn calibrate() -> f64 {
    const DEPTH: u64 = 8_192;
    const STEPS: u64 = 150_000;
    let start = Stamp::now();
    let mut heap = BinaryHeap::with_capacity(2 * DEPTH as usize);
    let mut table: HashMap<u64, u64> = HashMap::with_capacity(DEPTH as usize);
    let mut x = 88_172_645_463_325_252u64;
    let step = |x: &mut u64| {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    };
    for i in 0..DEPTH {
        let r = step(&mut x);
        heap.push(std::cmp::Reverse((r % 1_000, i)));
        table.insert(i, r);
    }
    let mut sum = 0u64;
    for i in 0..STEPS {
        let std::cmp::Reverse((t, id)) = heap.pop().expect("heap stays at DEPTH");
        let r = step(&mut x);
        sum = sum.wrapping_add(table[&(id % DEPTH)]);
        heap.push(std::cmp::Reverse((t + 1 + r % 1_000, i)));
        let scratch = std::hint::black_box(Box::new([t, id, r]));
        sum = sum.wrapping_add(scratch[1]);
    }
    std::hint::black_box(sum);
    start.elapsed().cpu_s * 1e3
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    (v[(n - 1) / 2] + v[n / 2]) / 2.0
}

/// Smallest element of a non-empty sample.
pub fn minimum(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// First and third quartile by the method Python's
/// `statistics.quantiles(values, n=4)` uses (exclusive), so the numbers
/// printed here are the ones the acceptance check computes. A sample of
/// one is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "quartiles of an empty sample");
    if n == 1 {
        return (v[0], v[0]);
    }
    let at = |k: usize| {
        // Position k·(n+1)/4 in 1-based ranks, clamped into the sample.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics_match_python() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(minimum(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn clocks_advance() {
        let start = Stamp::now();
        let ms = calibrate();
        let took = start.elapsed();
        assert!(ms > 0.0);
        assert!(took.cpu_s > 0.0 && took.wall_s > 0.0);
    }
}
