//! Retry with cycle-budget escalation, and the array-quarantine state
//! machine.
//!
//! The retry side is a per-task loop (bounded attempts; a
//! [`SimError::Timeout`](gendp_dpax::SimError::Timeout) escalates the
//! cycle budget before the next attempt; other failures re-dispatch the
//! task to a different same-class array slot). The quarantine side is
//! per-slot state:
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

/// How the device retries failed tasks and retires failing arrays. A
/// retry of a budget-bound failure
/// ([`SimError::Timeout`](gendp_dpax::SimError::Timeout)) runs with four
/// times the previous attempt's cycle budget on the same slot; any other
/// retry re-dispatches to a different (healthy, not yet tried) array slot
/// of the task's class, so a fault pinned to one array cannot fail a task
/// all by itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RetryPolicy {
    /// Execution attempts per task (1 = fail on the first error). Each
    /// attempt is a full, self-contained re-simulation.
    pub max_attempts: u32,
    /// Consecutive failures that take an array slot offline for the rest
    /// of the batch (0 disables quarantine). The last healthy slot of a
    /// class is never quarantined.
    pub quarantine_after: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
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
            quarantine_after: 0,
        }
    }
}

/// Cycle-budget multiplier per retry of a budget-bound failure.
const ESCALATION_FACTOR: u64 = 4;

/// The budget scale of an attempt that follows `escalations` budget-bound
/// failures: `ESCALATION_FACTOR^escalations` times the derived budget.
pub(crate) fn budget_scale(escalations: u32) -> u64 {
    ESCALATION_FACTOR.saturating_pow(escalations)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_retries_and_escalates() {
        assert!(RetryPolicy::default().max_attempts > 1);
        assert_eq!(budget_scale(0), 1);
        assert_eq!(budget_scale(1), ESCALATION_FACTOR);
        assert_eq!(budget_scale(2), ESCALATION_FACTOR * ESCALATION_FACTOR);
        assert_eq!(RetryPolicy::no_retry().max_attempts, 1);
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
