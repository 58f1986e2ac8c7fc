//! Retry with cycle-budget escalation, and the array-quarantine state
//! machine.
//!
//! The retry side is a per-task loop (bounded attempts; a
//! [`SimError::Timeout`](gendp_dpax::SimError::Timeout) escalates the
//! cycle budget before the next attempt; other failures optionally
//! re-dispatch the task to a different same-class array slot). The
//! quarantine side is per-slot state:
//!
//! ```text
//!            success                      K consecutive failures
//!          ┌─────────┐                   (quarantine_after = K)
//!          ▼         │             ┌────────────────────────────────┐
//!      ╔═══════════════╗ failure   │  other healthy slot in class?  │
//!      ║    Healthy    ║──────────►│  yes ─► ╔═════════════════╗    │
//!      ║ streak reset  ║           │         ║   Quarantined   ║    │
//!      ╚═══════════════╝           │         ║ its tasks go to ║    │
//!          ▲                       │         ║ healthy peers   ║    │
//!          │ streak < K            │         ╚═════════════════╝    │
//!          └───────────────────────┤  no ──► refused (last healthy  │
//!                                  │         slot of its class is   │
//!                                  │         never taken offline)   │
//!                                  └────────────────────────────────┘
//! ```
//!
//! Quarantine lasts for the rest of the batch; [`SlotHealth::reset`]
//! rearms every slot when the next batch starts.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

/// How the device retries failed tasks and retires failing arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RetryPolicy {
    /// Execution attempts per task (1 = fail on the first error). Each
    /// attempt is a full, self-contained re-simulation.
    pub max_attempts: u32,
    /// Cycle-budget multiplier applied per retry of a budget-bound
    /// failure ([`SimError::Timeout`](gendp_dpax::SimError::Timeout)):
    /// attempt `k` runs with `escalation_factor^(k-1)` times the derived
    /// budget. 1 disables escalation.
    pub escalation_factor: u32,
    /// Re-dispatch retries to a different (healthy, not yet tried) array
    /// slot of the task's class, so a fault pinned to one array cannot
    /// fail a task all by itself.
    pub redispatch: bool,
    /// Consecutive failures that take an array slot offline for the rest
    /// of the batch (0 disables quarantine). The last healthy slot of a
    /// class is never quarantined.
    pub quarantine_after: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            escalation_factor: 4,
            redispatch: true,
            quarantine_after: 8,
        }
    }
}

impl RetryPolicy {
    /// Fail tasks on their first error and never quarantine — the
    /// pre-fault-tolerance behaviour, minus the batch abandonment.
    pub fn no_retry() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            escalation_factor: 1,
            redispatch: false,
            quarantine_after: 0,
        }
    }

    /// The budget scale for execution attempt `attempt` (1-based) of a
    /// task whose previous failures were all budget-bound.
    pub fn budget_scale(&self, escalations: u32) -> u64 {
        u64::from(self.escalation_factor.max(1)).saturating_pow(escalations)
    }
}

/// Per-slot health counters driving the quarantine state machine. All
/// transitions are lock-free; racing failure reporters may both observe
/// the pre-quarantine state, which is benign because placement falls back
/// gracefully when a class over-quarantines.
#[derive(Debug, Default)]
pub struct SlotHealth {
    consecutive_failures: AtomicU32,
    failures: AtomicU64,
    quarantined: AtomicBool,
}

impl SlotHealth {
    /// Records a successful execution: the failure streak resets.
    pub fn note_success(&self) {
        self.consecutive_failures.store(0, Ordering::Relaxed);
    }

    /// Records a failed execution and returns the new streak length.
    pub fn note_failure(&self) -> u32 {
        self.failures.fetch_add(1, Ordering::Relaxed);
        self.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The current consecutive-failure streak.
    pub fn streak(&self) -> u32 {
        self.consecutive_failures.load(Ordering::Relaxed)
    }

    /// Total failed executions on this slot over the batch.
    pub fn failure_count(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }

    /// True once the slot has been taken offline for this batch.
    pub fn is_quarantined(&self) -> bool {
        self.quarantined.load(Ordering::Acquire)
    }

    /// Takes the slot offline; returns false if it already was (so the
    /// caller counts each quarantine once).
    pub fn quarantine(&self) -> bool {
        !self.quarantined.swap(true, Ordering::AcqRel)
    }

    /// Rearms the slot for a fresh batch.
    pub fn reset(&self) {
        self.consecutive_failures.store(0, Ordering::Relaxed);
        self.failures.store(0, Ordering::Relaxed);
        self.quarantined.store(false, Ordering::Release);
    }
}

/// A liveness beacon over a caller-supplied clock (nanoseconds from an
/// arbitrary epoch, the convention of the `TokenBucket` admission clocks
/// in `gendp-serve`): workers call [`Heartbeat::beat`] when they make
/// progress, and a monitor asks [`Heartbeat::silent_for`] how long the
/// beacon has been quiet. Lock-free; monotone inputs assumed.
#[derive(Debug, Default)]
pub struct Heartbeat {
    last_nanos: AtomicU64,
}

impl Heartbeat {
    /// A beacon that last beat at `now_nanos` (so a fresh worker is not
    /// born already silent).
    pub fn new(now_nanos: u64) -> Heartbeat {
        Heartbeat {
            last_nanos: AtomicU64::new(now_nanos),
        }
    }

    /// Records progress at `now_nanos`. Racing beats keep the latest
    /// time (stale stores can only make the beacon look quieter, never
    /// livelier than it is).
    pub fn beat(&self, now_nanos: u64) {
        self.last_nanos.fetch_max(now_nanos, Ordering::Release);
    }

    /// The clock value of the most recent beat.
    pub fn last(&self) -> u64 {
        self.last_nanos.load(Ordering::Acquire)
    }

    /// Nanoseconds of silence as of `now_nanos` (zero if a beat raced
    /// ahead of the monitor's clock read).
    pub fn silent_for(&self, now_nanos: u64) -> u64 {
        now_nanos.saturating_sub(self.last())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heartbeat_tracks_latest_beat() {
        let hb = Heartbeat::new(100);
        assert_eq!(hb.silent_for(100), 0);
        assert_eq!(hb.silent_for(350), 250);
        hb.beat(400);
        assert_eq!(hb.last(), 400);
        // A stale beat never rewinds the beacon.
        hb.beat(50);
        assert_eq!(hb.last(), 400);
        assert_eq!(hb.silent_for(1_000), 600);
        // A beat ahead of the monitor's clock reads as zero silence.
        hb.beat(2_000);
        assert_eq!(hb.silent_for(1_500), 0);
    }

    #[test]
    fn default_policy_retries_and_escalates() {
        let p = RetryPolicy::default();
        assert!(p.max_attempts > 1);
        assert_eq!(p.budget_scale(0), 1);
        assert_eq!(p.budget_scale(1), u64::from(p.escalation_factor));
        assert_eq!(
            p.budget_scale(2),
            u64::from(p.escalation_factor) * u64::from(p.escalation_factor)
        );
        let strict = RetryPolicy::no_retry();
        assert_eq!(strict.max_attempts, 1);
        assert_eq!(strict.budget_scale(5), 1);
    }

    #[test]
    fn health_streak_resets_on_success() {
        let h = SlotHealth::default();
        assert_eq!(h.note_failure(), 1);
        assert_eq!(h.note_failure(), 2);
        assert_eq!(h.streak(), 2);
        h.note_success();
        assert_eq!(h.streak(), 0);
        assert_eq!(h.failure_count(), 2);
    }

    #[test]
    fn quarantine_latches_once_until_reset() {
        let h = SlotHealth::default();
        assert!(!h.is_quarantined());
        assert!(h.quarantine());
        assert!(!h.quarantine(), "second quarantine must not double-count");
        assert!(h.is_quarantined());
        h.reset();
        assert!(!h.is_quarantined());
        assert_eq!(h.failure_count(), 0);
    }
}
