//! Process and host diagnostics: CPU time (`getrusage`), peak resident set
//! (`VmHWM`) and hypervisor steal time (`/proc/stat`). They explain a slow
//! run; they are not what the benchmark optimises.

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

/// `cpu_set_t`: a 1,024-bit CPU mask.
#[repr(C)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CpuSet([u64; 16]);

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

impl CpuSet {
    /// The calling thread's CPU affinity.
    pub fn current() -> Option<CpuSet> {
        let mut set = CpuSet([0; 16]);
        // SAFETY: `set` is a writable `cpu_set_t` of the size passed, and
        // pid 0 names the calling thread; the call writes only inside it.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        (rc == 0).then_some(set)
    }

    /// A mask holding only the highest-numbered CPU of `self`.
    pub fn last_cpu(&self) -> CpuSet {
        let mut one = CpuSet([0; 16]);
        if let Some((w, word)) = self.0.iter().enumerate().rev().find(|(_, &w)| w != 0) {
            one.0[w] = 1u64 << (63 - word.leading_zeros());
        }
        one
    }

    /// Restrict the calling thread (and the threads it spawns later) to
    /// this mask. Returns whether the kernel accepted it.
    pub fn apply(&self) -> bool {
        // SAFETY: `self` is a readable `cpu_set_t` of the size passed, and
        // pid 0 names the calling thread; the call only reads the mask.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), self) == 0 }
    }
}

const RUSAGE_SELF: i32 = 0;

/// User plus system CPU seconds this process (every thread, live or
/// exited) has used so far.
pub fn cpu_seconds() -> f64 {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` with the 64-bit
    // Linux layout declared above, and RUSAGE_SELF is a valid `who`;
    // getrusage writes only inside that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&usage.utime) + secs(&usage.stime)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset this process's peak resident set (`VmHWM`) to its current
/// resident set, so a later [`peak_rss_mb`] covers only what follows.
/// Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", b"5").is_ok()
}

/// Aggregate CPU jiffies from the first line of `/proc/stat`:
/// `(steal, total)`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    /// Read the current counters (zeros when `/proc/stat` is unreadable).
    pub fn now() -> CpuTicks {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
            return CpuTicks::default();
        };
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // guest time is already counted in user, so stop at steal.
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|f| f.parse().ok())
            .collect();
        CpuTicks {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().sum(),
        }
    }

    /// Percentage of all CPU time since `earlier` that the hypervisor
    /// stole from this machine.
    pub fn steal_pct_since(&self, earlier: &CpuTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}
