//! What the benchmark's figures rest on besides the program: the
//! process's CPU clock (Linux), a counting heap allocator, and the
//! host's stolen time.
//!
//! Times are CPU time, not wall time. On a shared virtual machine the
//! hypervisor takes the CPU away in bursts ("steal"), and a thread
//! waiting to be woken waits longer there; neither is the program's
//! work. The kernel leaves stolen time out of a task's CPU time
//! (paravirtual steal accounting), so CPU time repeats where wall time
//! does not.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID`: every thread of the process, ended
/// threads included.
const PROCESS_CPU: i32 = 2;

/// Seconds of CPU time this process has used so far, over all its
/// threads. The engine's worker threads are scoped to each call, and
/// their time stays in the count after they end.
pub fn cpu_s() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the duration of
    // the call, and the clock id is a constant Linux defines.
    let rc = unsafe { clock_gettime(PROCESS_CPU, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// The benchmark binary's allocator: the system allocator, counting
/// the bytes live on the heap and their peak.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Relaxed) + bytes;
    if now > PEAK.load(Relaxed) {
        PEAK.fetch_max(now, Relaxed);
    }
}

// SAFETY: every call is passed on unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters only observe sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        p
    }
}

/// Bytes live on the heap now, MB; also restarts the peak from here.
pub fn reset_peak_heap_mb() -> f64 {
    let now = LIVE.load(Relaxed);
    PEAK.store(now, Relaxed);
    now as f64 / MB
}

/// Peak bytes live on the heap since [`reset_peak_heap_mb`], MB.
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Relaxed) as f64 / MB
}

const MB: f64 = 1024.0 * 1024.0;

/// CPU time of the whole host so far, from `/proc/stat`: `(stolen,
/// total)` clock ticks. Stolen ticks are those the hypervisor gave to
/// other guests while this one had work.
pub fn host_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Words of the calibration table: 16 MiB, far beyond a core's L2
/// and well within a server's shared L3.
const CALIBRATION_WORDS: usize = 1 << 21;
/// Dependent random read-modify-writes of one calibration walk.
const CALIBRATION_STEPS: usize = 512;

/// A fixed loop of the benchmark's own that tells how fast the host
/// runs right now: dependent random read-modify-writes in a table that
/// lives in the shared L3 cache.
///
/// CPU time leaves out stolen time, but not the slower instructions of
/// a busy host: other guests on the same cores and caches slowed the
/// program's CPU time by a fifth and more. On a 2-vCPU Xeon virtual
/// machine (2 MiB L2 per core, 105 MiB shared L3), block by block over
/// several minutes, the program's serve, batch and first-answer times
/// moved with this loop's time (correlation 0.9 and more, in
/// proportion: a log-log slope of 0.9 to 1.2 for serves and batches,
/// 1.4 to 1.8 for first answers) and its probe times less closely
/// (correlation 0.7, slope about 0.9). Dividing by the loop's time cut
/// the block-to-block spread of serves and batches by two to three.
///
/// The loop shares no code or data with the program. A walk right
/// after a serve starts with the serve's lines in the core's caches and
/// TLB, so each run walks once off the clock and times a second walk.
/// The program's own traffic still displaces a little of the table
/// from L3, as any other tenant's does; the loop runs only after every
/// few serves, which keeps its own cache and TLB misses from slowing
/// the program's serves.
pub struct Calibration {
    table: Vec<u64>,
    x: u64,
}

impl Calibration {
    /// A table of fixed pseudo-random words.
    pub fn new() -> Calibration {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let table = (0..CALIBRATION_WORDS)
            .map(|_| {
                x = xorshift(x);
                x
            })
            .collect();
        Calibration { table, x }
    }

    /// CPU seconds of one timed walk, after one untimed walk.
    pub fn run(&mut self) -> f64 {
        self.walk();
        let t = cpu_s();
        self.walk();
        cpu_s() - t
    }

    /// [`CALIBRATION_STEPS`] dependent random read-modify-writes,
    /// continuing the stream `x`.
    fn walk(&mut self) {
        let (mut x, mut acc) = (self.x, 0u64);
        let mask = CALIBRATION_WORDS - 1;
        for _ in 0..CALIBRATION_STEPS {
            x = xorshift(x);
            acc = acc.wrapping_add(self.table[x as usize & mask] ^ (acc >> 3));
            self.table[acc as usize & mask] ^= x;
        }
        self.x = (x ^ std::hint::black_box(acc)) | 1;
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}
