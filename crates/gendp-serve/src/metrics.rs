//! Service metrics: a log-linear latency histogram and per-tenant
//! counters.
//!
//! The histogram is the HDR-style log-linear shape: each power-of-two
//! octave of nanoseconds is split into `2^SUB_BITS` linear sub-buckets,
//! giving a bounded relative error (≤ 1/2^SUB_BITS ≈ 6%) at every
//! magnitude from nanoseconds to minutes with a few KiB of memory and
//! O(1) recording — cheap enough to sit on the shard delivery path.

use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-buckets per octave (as a power of two).
const SUB_BITS: u32 = 4;
const SUB_BUCKETS: usize = 1 << SUB_BITS;
/// Octaves covered: 2^40 ns ≈ 18 minutes, far beyond any request.
const OCTAVES: usize = 40;

/// Log-linear histogram of latencies in nanoseconds.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    max_nanos: u64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: vec![0; OCTAVES * SUB_BUCKETS],
            count: 0,
            max_nanos: 0,
        }
    }

    fn bucket_index(nanos: u64) -> usize {
        // Values below one full sub-bucket range land linearly in the
        // first octave.
        if nanos < SUB_BUCKETS as u64 {
            return nanos as usize;
        }
        let octave = 63 - nanos.leading_zeros() as usize; // >= SUB_BITS
        let shift = octave as u32 - SUB_BITS;
        let sub = ((nanos >> shift) as usize) & (SUB_BUCKETS - 1);
        let index = (octave - SUB_BITS as usize + 1) * SUB_BUCKETS + sub;
        index.min(OCTAVES * SUB_BUCKETS - 1)
    }

    fn bucket_upper_bound(index: usize) -> u64 {
        if index < SUB_BUCKETS {
            return index as u64;
        }
        let octave = index / SUB_BUCKETS - 1 + SUB_BITS as usize;
        let sub = (index % SUB_BUCKETS) as u64;
        let shift = octave as u32 - SUB_BITS;
        ((1u64 << octave) | (sub << shift)) + (1u64 << shift) - 1
    }

    /// Records one latency sample.
    pub fn record(&mut self, nanos: u64) {
        self.buckets[Self::bucket_index(nanos)] += 1;
        self.count += 1;
        self.max_nanos = self.max_nanos.max(nanos);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded sample, exact.
    pub fn max_nanos(&self) -> u64 {
        self.max_nanos
    }

    /// The latency at quantile `q` in `[0, 1]`, in nanoseconds (bucket
    /// upper bound, so quantiles never under-report). Returns 0 for an
    /// empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                if i == self.buckets.len() - 1 {
                    // The final bucket absorbs saturated samples; its
                    // nominal bound would under-report them.
                    return self.max_nanos;
                }
                return Self::bucket_upper_bound(i).min(self.max_nanos);
            }
        }
        self.max_nanos
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.max_nanos = self.max_nanos.max(other.max_nanos);
    }
}

/// Per-tenant lifetime counters, atomically updated from admission and
/// shard threads.
#[derive(Debug, Default)]
pub struct TenantCounters {
    /// Submission attempts seen (admitted or not).
    pub submitted: AtomicU64,
    /// Requests admitted into the tenant's queue.
    pub accepted: AtomicU64,
    /// Rejected by the preflight verifier.
    pub rejected_invalid: AtomicU64,
    /// Rejected by the token bucket.
    pub rejected_rate: AtomicU64,
    /// Rejected by the in-flight quota.
    pub rejected_over_quota: AtomicU64,
    /// Rejected by the queued quota (backpressure).
    pub rejected_queue_full: AtomicU64,
    /// Rejected because the certified cycle lower bound cannot meet the
    /// request deadline at the configured shard cycle rate.
    pub rejected_infeasible: AtomicU64,
    /// Delivered successfully.
    pub completed: AtomicU64,
    /// Delivered as a failure (retries exhausted or runtime error).
    pub failed: AtomicU64,
    /// Delivered as `deadline-exceeded`: admitted, but the deadline
    /// passed before the result could be produced.
    pub deadline_expired: AtomicU64,
    /// DP cells of completed work.
    pub cells: AtomicU64,
}

impl TenantCounters {
    /// A plain-value copy for reporting; `rejected_quota` is the sum of
    /// the two quota causes.
    pub fn snapshot(&self) -> TenantCountersSnapshot {
        let rejected_over_quota = self.rejected_over_quota.load(Ordering::Relaxed);
        let rejected_queue_full = self.rejected_queue_full.load(Ordering::Relaxed);
        TenantCountersSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected_invalid: self.rejected_invalid.load(Ordering::Relaxed),
            rejected_rate: self.rejected_rate.load(Ordering::Relaxed),
            rejected_quota: rejected_over_quota + rejected_queue_full,
            rejected_over_quota,
            rejected_queue_full,
            rejected_infeasible: self.rejected_infeasible.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            cells: self.cells.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of [`TenantCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantCountersSnapshot {
    /// Submission attempts seen (admitted or not).
    pub submitted: u64,
    /// Requests admitted into the tenant's queue.
    pub accepted: u64,
    /// Rejected by the preflight verifier.
    pub rejected_invalid: u64,
    /// Rejected by the token bucket.
    pub rejected_rate: u64,
    /// Rejected by the in-flight or queued quota (sum of the two
    /// subdivisions below).
    pub rejected_quota: u64,
    /// Subset of `rejected_quota`: the in-flight quota.
    pub rejected_over_quota: u64,
    /// Subset of `rejected_quota`: the queued quota (backpressure).
    pub rejected_queue_full: u64,
    /// Rejected because the certified cycle lower bound cannot meet the
    /// request deadline at the configured shard cycle rate.
    pub rejected_infeasible: u64,
    /// Delivered successfully.
    pub completed: u64,
    /// Delivered as a failure.
    pub failed: u64,
    /// Delivered as `deadline-exceeded` after admission.
    pub deadline_expired: u64,
    /// DP cells of completed work.
    pub cells: u64,
}

impl TenantCountersSnapshot {
    /// Total rejections across all causes (admission-time only;
    /// post-admission deadline expiries are deliveries, not
    /// rejections, and live in `deadline_expired`).
    pub fn rejected(&self) -> u64 {
        self.rejected_invalid + self.rejected_rate + self.rejected_quota + self.rejected_infeasible
    }

    /// Shed and expired work broken out by stable rejection code — the
    /// same codes the wire protocol reports — so `deadline-exceeded`
    /// vs `over-quota` vs `rate-limited` shedding is distinguishable
    /// in benchmark output.
    pub fn by_code(&self) -> [(&'static str, u64); 6] {
        [
            ("invalid", self.rejected_invalid),
            ("rate-limited", self.rejected_rate),
            ("over-quota", self.rejected_over_quota),
            ("queue-full", self.rejected_queue_full),
            ("deadline-infeasible", self.rejected_infeasible),
            ("deadline-exceeded", self.deadline_expired),
        ]
    }

    /// Requests admitted but not yet delivered one way or the other.
    pub fn outstanding(&self) -> u64 {
        self.accepted - self.completed - self.failed - self.deadline_expired
    }

    /// True when every admitted request has been delivered one way or
    /// the other — completed, failed, or expired — the "zero lost
    /// tasks" invariant.
    pub fn drained(&self) -> bool {
        self.accepted == self.completed + self.failed + self.deadline_expired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_bound_recorded_values() {
        let mut h = LatencyHistogram::new();
        for nanos in [100u64, 1_000, 10_000, 100_000, 1_000_000] {
            h.record(nanos);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.quantile(1.0), 1_000_000);
        // Each quantile's answer is >= the true value and within the
        // histogram's ~6% relative error above it.
        let p50 = h.quantile(0.5);
        assert!((10_000..=10_700).contains(&p50), "p50 = {p50}");
        let p0 = h.quantile(0.0);
        assert!((100..=107).contains(&p0), "p0 = {p0}");
    }

    #[test]
    fn bucket_bounds_cover_the_histogram_range() {
        // The range covers every plausible latency (up to ~2.4 hours);
        // beyond it values saturate into the last bucket.
        for nanos in (0..43).map(|e| 1u64 << e).chain([3, 17, 999, 123_456]) {
            let idx = LatencyHistogram::bucket_index(nanos);
            let hi = LatencyHistogram::bucket_upper_bound(idx);
            assert!(hi >= nanos, "upper bound {hi} < value {nanos}");
        }
        let top = OCTAVES * SUB_BUCKETS - 1;
        assert_eq!(LatencyHistogram::bucket_index(u64::MAX), top);
        // Saturated samples still report exactly via max_nanos.
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn merge_matches_recording_into_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for i in 0..1000u64 {
            let nanos = i * 997 + 13;
            if i % 2 == 0 {
                a.record(nanos);
            } else {
                b.record(nanos);
            }
            whole.record(nanos);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.max_nanos(), whole.max_nanos());
        for q in [0.5, 0.9, 0.99, 0.999] {
            assert_eq!(a.quantile(q), whole.quantile(q));
        }
    }

    #[test]
    fn counters_snapshot_tracks_drained() {
        let c = TenantCounters::default();
        c.accepted.store(5, Ordering::Relaxed);
        c.completed.store(3, Ordering::Relaxed);
        c.failed.store(1, Ordering::Relaxed);
        let snap = c.snapshot();
        assert_eq!(snap.outstanding(), 1);
        assert!(!snap.drained());
        c.completed.store(4, Ordering::Relaxed);
        assert!(c.snapshot().drained());
    }
}
