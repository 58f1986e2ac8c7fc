//! Order statistics, the benchmark's own clock, and the `/proc` readers
//! behind the run-quality diagnostics.

use std::time::{Duration, Instant};

/// A CPU-time clock of the calling thread or of the whole process.
///
/// Neither counts time spent runnable but waiting for a core, and a kernel
/// built with `CONFIG_PARAVIRT_TIME_ACCOUNTING` leaves out time the
/// hypervisor gave other guests (steal), which stretches wall time on a
/// shared host. They still move with how hard other guests use the same
/// core's hyper-threads, caches and memory bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cpu {
    /// `CLOCK_THREAD_CPUTIME_ID`.
    Thread,
    /// `CLOCK_PROCESS_CPUTIME_ID`: every thread of the process.
    Process,
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads the CPU clocks of 64-bit Linux");

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

impl Cpu {
    /// CPU time consumed so far on this clock.
    pub fn now(self) -> Duration {
        let id = match self {
            Cpu::Process => 2, // CLOCK_PROCESS_CPUTIME_ID
            Cpu::Thread => 3,  // CLOCK_THREAD_CPUTIME_ID
        };
        let mut ts = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `ts` is a valid, writable `struct timespec` (the layout
        // the compile_error above pins down) and `id` names a clock every
        // Linux kernel provides.
        let rc = unsafe { clock_gettime(id, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime({id}) failed");
        Duration::new(ts.sec as u64, ts.nsec as u32)
    }

    /// Seconds of CPU time consumed since `earlier` (a reading of
    /// [`Cpu::now`] on the same clock).
    pub fn secs_since(self, earlier: Duration) -> f64 {
        self.now().saturating_sub(earlier).as_secs_f64()
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Milliseconds from `from` to `to` (zero if `to` is earlier).
pub fn ms_between(from: Instant, to: Instant) -> f64 {
    ms(to.saturating_duration_since(from))
}

/// The `q`-quantile (0..=1) of `values`, by linear interpolation between
/// closest ranks. Zero for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Samples strictly above the `q`-quantile's rank: how many samples back a
/// tail percentile.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// The tail of a per-layer distribution: the highest of p99.9, p99 and p90
/// with at least ten samples beyond it, else the maximum.
pub fn layer_tail(values: &[f64]) -> f64 {
    for q in [0.999, 0.99, 0.9] {
        if beyond(values.len(), q) >= 10 {
            return quantile(values, q);
        }
    }
    quantile(values, 1.0)
}

/// Host CPU time counters from the first line of `/proc/stat`, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    /// Time the hypervisor ran other guests while this one wanted the CPU.
    pub steal: f64,
    /// User, system, interrupt and steal time.
    pub busy: f64,
}

impl CpuTimes {
    /// Reads `/proc/stat`; zeros where it is unavailable.
    pub fn now() -> CpuTimes {
        let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(line) = text.lines().find(|l| l.starts_with("cpu ")) else {
            return CpuTimes::default();
        };
        let f: Vec<f64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|x| x.parse().ok())
            .collect();
        let get = |i: usize| f.get(i).copied().unwrap_or(0.0) / 100.0;
        // user nice system idle iowait irq softirq steal
        CpuTimes {
            steal: get(7),
            busy: get(0) + get(1) + get(2) + get(5) + get(6) + get(7),
        }
    }

    /// Counters accrued since `earlier`.
    pub fn since(self, earlier: CpuTimes) -> CpuTimes {
        CpuTimes {
            steal: self.steal - earlier.steal,
            busy: self.busy - earlier.busy,
        }
    }
}

/// A field of `/proc/self/status` in its own unit (kB for memory).
fn status_field(name: &str) -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:") / 1024.0
}

/// Threads currently in this process.
pub fn threads() -> usize {
    status_field("Threads:") as usize
}

/// Sleeps until `due`, returning how late the caller woke, in ms.
pub fn sleep_until(due: Instant) -> f64 {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
    ms_between(due, Instant::now())
}

/// FNV-1a over a byte stream: the digest of delivered outputs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_like_numpy() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn beyond_counts_samples_past_the_rank() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(500, 0.98), 10);
        assert_eq!(beyond(10, 0.9), 1);
    }
}
