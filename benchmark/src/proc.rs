//! Process-level measurements — CPU time and context switches from
//! `getrusage`, peak resident set and thread count from
//! `/proc/self/status` — and thread placement (`sched_setaffinity`).

/// Cumulative resource usage of the whole process (all threads, including
/// ones that already exited).
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    /// User + system CPU time, microseconds.
    pub cpu_us: u64,
    /// Voluntary + involuntary context switches.
    pub ctx_switches: u64,
}

impl Usage {
    /// Usage accumulated since `earlier`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            cpu_us: self.cpu_us.saturating_sub(earlier.cpu_us),
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
        }
    }
}

/// `struct rusage` as laid out on 64-bit Linux: two `timeval`s followed
/// by fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct RawRusage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

/// A `cpu_set_t`: 1024 CPU bits.
type CpuSet = [u64; 16];

extern "C" {
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the calling thread may run on, ascending; empty if the kernel
/// does not say.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a live, writable buffer of the size passed; pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// Confines the calling thread, and every thread it spawns from now on, to
/// `cpus` (numbers below 1024). Returns whether the kernel accepted; if
/// not, the thread stays where it was allowed before.
pub fn run_on(cpus: &[usize]) -> bool {
    let mut mask: CpuSet = [0; 16];
    for &cpu in cpus {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live buffer of the size passed that the kernel
    // only reads; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) == 0 }
}

/// Reads the process's cumulative CPU time and context-switch count.
///
/// # Panics
///
/// Panics if the kernel rejects the call (it cannot for `RUSAGE_SELF`).
pub fn usage() -> Usage {
    const RUSAGE_SELF: i32 = 0;
    let mut raw = RawRusage::default();
    // SAFETY: `raw` is a live, writable, correctly sized and aligned
    // `struct rusage` for this platform; the kernel only writes into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let micros = |tv: [i64; 2]| (tv[0] as u64) * 1_000_000 + tv[1] as u64;
    Usage {
        cpu_us: micros(raw.utime) + micros(raw.stime),
        // ru_nvcsw and ru_nivcsw are the last two longs.
        ctx_switches: (raw.rest[12] + raw.rest[13]) as u64,
    }
}

fn status_field(name: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set size (`VmHWM`) in MiB.
///
/// # Panics
///
/// Panics if `/proc/self/status` has no `VmHWM` line (not Linux).
pub fn rss_peak_mib() -> f64 {
    status_field("VmHWM").expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

/// Live thread count of the process.
pub fn threads() -> u64 {
    status_field("Threads").unwrap_or(0)
}
