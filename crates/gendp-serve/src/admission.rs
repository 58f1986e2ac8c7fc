//! Admission control: the gate every submission passes before it can
//! take a place in its tenant's queue.
//!
//! Checks run cheapest-reject-first and in an order that keeps the QoS
//! accounting honest:
//!
//! 1. **shutdown** — a closing server admits nothing;
//! 2. **preflight** — the task is verified against the same
//!    `gendp-verify` gate the device applies, so a malformed request is
//!    rejected with a diagnostic instead of occupying a slot and
//!    failing later;
//! 3. **queued quota**, then **in-flight quota** — bounded per-tenant
//!    memory; both use optimistic increment-check-undo so concurrent
//!    submitters never overshoot;
//! 4. **rate limit** — the token bucket runs after the quotas, so a
//!    request over quota never spends a token;
//! 5. **deadline feasibility** — when the server has a cycle-rate
//!    budget and the request a deadline, a request whose certified
//!    cycle *lower bound* already exceeds its deadline is rejected up
//!    front instead of being admitted only to expire. The caller's check
//!    runs last because it may prepare the task: a request that a quota
//!    or the rate limit refuses never pays for a prepare. A request it
//!    refuses has spent its token.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use gendp_runtime::Task;

use crate::metrics::{LatencyHistogram, TenantCounters};
use crate::tenant::{TenantConfig, TokenBucket};

/// Why a submission was rejected at admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// No tenant with this name is registered on the server.
    UnknownTenant(String),
    /// The task failed `Task::preflight`; the string is the verifier
    /// report.
    Invalid(String),
    /// The tenant's token bucket is empty.
    RateLimited,
    /// The tenant is at `max_in_flight` admitted-but-undelivered
    /// requests.
    OverQuota,
    /// The tenant's queue is at `max_queued` — the backpressure
    /// signal.
    QueueFull,
    /// The certificate's cycle lower bound already exceeds the request
    /// deadline at the configured shard cycle rate, so the request
    /// provably cannot finish in time. Only raised when
    /// `ServeConfig::cycle_rate` is set and the task certifies.
    DeadlineInfeasible,
    /// The server is shutting down.
    ShuttingDown,
}

impl AdmissionError {
    /// Stable short code for metrics and the wire protocol.
    pub fn code(&self) -> &'static str {
        match self {
            AdmissionError::UnknownTenant(_) => "unknown-tenant",
            AdmissionError::Invalid(_) => "invalid",
            AdmissionError::RateLimited => "rate-limited",
            AdmissionError::OverQuota => "over-quota",
            AdmissionError::QueueFull => "queue-full",
            AdmissionError::DeadlineInfeasible => "deadline-infeasible",
            AdmissionError::ShuttingDown => "shutting-down",
        }
    }
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::UnknownTenant(name) => write!(f, "unknown tenant {name:?}"),
            AdmissionError::Invalid(report) => write!(f, "task failed preflight: {report}"),
            AdmissionError::RateLimited => f.write_str("rate limit exceeded"),
            AdmissionError::OverQuota => f.write_str("in-flight quota exceeded"),
            AdmissionError::QueueFull => f.write_str("tenant queue full"),
            AdmissionError::DeadlineInfeasible => {
                f.write_str("certified cycle floor cannot meet the deadline")
            }
            AdmissionError::ShuttingDown => f.write_str("server is shutting down"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Shared per-tenant service state: the QoS contract plus the live
/// admission accounting, referenced from client handles and shard
/// threads.
#[derive(Debug)]
pub struct TenantState {
    /// The tenant's configured contract.
    pub config: TenantConfig,
    /// Cached `config.effective_weight()`.
    pub effective_weight: u64,
    /// Requests admitted and not yet delivered.
    pub in_flight: AtomicUsize,
    /// Requests waiting in the tenant's queue for a shard to pull them.
    pub queued: AtomicUsize,
    /// Token bucket, present when the contract has a rate limit.
    pub bucket: Option<Mutex<TokenBucket>>,
    /// Lifetime counters.
    pub counters: TenantCounters,
    /// End-to-end latency of delivered requests.
    pub latency: Mutex<LatencyHistogram>,
}

impl TenantState {
    /// Fresh state for a tenant contract.
    pub fn new(config: TenantConfig) -> TenantState {
        TenantState {
            effective_weight: config.effective_weight(),
            bucket: config.rate.map(|r| Mutex::new(TokenBucket::new(r))),
            config,
            in_flight: AtomicUsize::new(0),
            queued: AtomicUsize::new(0),
            counters: TenantCounters::default(),
            latency: Mutex::new(LatencyHistogram::new()),
        }
    }

    /// Runs the full admission gate for one task. On `Ok` the tenant's
    /// `queued` and `in_flight` counts have both been incremented; a
    /// shard decrements `queued` when it pulls the request and
    /// `in_flight` at delivery. On `Err` nothing is held.
    ///
    /// `infeasible` is the caller's deadline-infeasibility check
    /// (certified cycle lower bound exceeds the remaining deadline); it
    /// runs last — after preflight, the quotas and the token bucket — so
    /// only a request that would otherwise be admitted can make it
    /// prepare the task.
    pub fn admit(
        &self,
        task: &Task,
        now_nanos: u64,
        shutting_down: bool,
        infeasible: impl FnOnce() -> bool,
    ) -> Result<(), AdmissionError> {
        self.counters.submitted.fetch_add(1, Ordering::Relaxed);
        if shutting_down {
            return Err(AdmissionError::ShuttingDown);
        }
        let report = task.preflight();
        if report.has_errors() {
            self.counters
                .rejected_invalid
                .fetch_add(1, Ordering::Relaxed);
            return Err(AdmissionError::Invalid(report.to_string()));
        }
        // Optimistic increment, undo on overshoot: never lets a burst of
        // concurrent submitters exceed the quota.
        if self.queued.fetch_add(1, Ordering::AcqRel) >= self.config.max_queued {
            self.queued.fetch_sub(1, Ordering::AcqRel);
            self.counters
                .rejected_queue_full
                .fetch_add(1, Ordering::Relaxed);
            return Err(AdmissionError::QueueFull);
        }
        if self.in_flight.fetch_add(1, Ordering::AcqRel) >= self.config.max_in_flight {
            self.in_flight.fetch_sub(1, Ordering::AcqRel);
            self.queued.fetch_sub(1, Ordering::AcqRel);
            self.counters
                .rejected_over_quota
                .fetch_add(1, Ordering::Relaxed);
            return Err(AdmissionError::OverQuota);
        }
        if let Some(bucket) = &self.bucket {
            let admitted = bucket.lock().expect("bucket lock").try_take(now_nanos);
            if !admitted {
                self.in_flight.fetch_sub(1, Ordering::AcqRel);
                self.queued.fetch_sub(1, Ordering::AcqRel);
                self.counters.rejected_rate.fetch_add(1, Ordering::Relaxed);
                return Err(AdmissionError::RateLimited);
            }
        }
        if infeasible() {
            self.in_flight.fetch_sub(1, Ordering::AcqRel);
            self.queued.fetch_sub(1, Ordering::AcqRel);
            self.counters
                .rejected_infeasible
                .fetch_add(1, Ordering::Relaxed);
            return Err(AdmissionError::DeadlineInfeasible);
        }
        self.counters.accepted.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::RateLimit;
    use gendp_kernels::Scoring;
    use gendp_seq::DnaSeq;

    fn small_task() -> Task {
        Task::bsw_local(
            "ACGTACGT".parse::<DnaSeq>().unwrap(),
            "ACGTTCGT".parse::<DnaSeq>().unwrap(),
            Scoring::bwa_mem(),
        )
    }

    #[test]
    fn admit_holds_quota_and_rejects_at_limits() {
        let state = TenantState::new(TenantConfig::new("t").quotas(2, 2));
        assert_eq!(state.admit(&small_task(), 0, false, || false), Ok(()));
        assert_eq!(state.admit(&small_task(), 0, false, || false), Ok(()));
        assert_eq!(
            state.admit(&small_task(), 0, false, || false),
            Err(AdmissionError::QueueFull)
        );
        // Dispatch frees a queue slot but not the in-flight slot.
        state.queued.fetch_sub(1, Ordering::AcqRel);
        assert_eq!(
            state.admit(&small_task(), 0, false, || false),
            Err(AdmissionError::OverQuota)
        );
        assert_eq!(
            state.queued.load(Ordering::Acquire),
            1,
            "undo restored queued"
        );
        // Delivery frees the in-flight slot too.
        state.in_flight.fetch_sub(1, Ordering::AcqRel);
        assert_eq!(state.admit(&small_task(), 0, false, || false), Ok(()));
        let snap = state.counters.snapshot();
        assert_eq!(snap.accepted, 3);
        assert_eq!(snap.rejected_quota, 2);
    }

    #[test]
    fn invalid_task_rejects_before_consuming_quota_or_tokens() {
        let state = TenantState::new(TenantConfig::new("t").rate(RateLimit {
            requests_per_sec: 1.0,
            burst: 1.0,
        }));
        let bad = Task::bsw_local(DnaSeq::default(), DnaSeq::default(), Scoring::bwa_mem());
        match state.admit(&bad, 0, false, || false) {
            Err(AdmissionError::Invalid(report)) => {
                assert!(report.contains("empty"), "report: {report}");
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
        assert_eq!(state.queued.load(Ordering::Acquire), 0);
        // The single burst token is still there for a valid request.
        assert_eq!(state.admit(&small_task(), 0, false, || false), Ok(()));
    }

    #[test]
    fn rate_limit_rejects_after_burst_and_releases_held_quota() {
        let state = TenantState::new(TenantConfig::new("t").rate(RateLimit {
            requests_per_sec: 2.0,
            burst: 2.0,
        }));
        assert_eq!(state.admit(&small_task(), 0, false, || false), Ok(()));
        assert_eq!(state.admit(&small_task(), 0, false, || false), Ok(()));
        assert_eq!(
            state.admit(&small_task(), 0, false, || false),
            Err(AdmissionError::RateLimited)
        );
        assert_eq!(state.queued.load(Ordering::Acquire), 2, "rejected undo");
        assert_eq!(state.in_flight.load(Ordering::Acquire), 2);
        // Half a second refills one token at 2/s.
        assert_eq!(
            state.admit(&small_task(), 500_000_000, false, || false),
            Ok(())
        );
    }

    #[test]
    fn deadline_gate_runs_last_and_releases_held_quota() {
        let state = TenantState::new(TenantConfig::new("t").rate(RateLimit {
            requests_per_sec: 0.0,
            burst: 1.0,
        }));
        assert_eq!(
            state.admit(&small_task(), 0, false, || true),
            Err(AdmissionError::DeadlineInfeasible)
        );
        assert_eq!(
            state.queued.load(Ordering::Acquire),
            0,
            "undo restored queued"
        );
        assert_eq!(state.in_flight.load(Ordering::Acquire), 0);
        // The infeasible request spent the only token, so the next
        // request is refused by the bucket before the gate can run.
        assert_eq!(
            state.admit(&small_task(), 0, false, || panic!("gate ran")),
            Err(AdmissionError::RateLimited)
        );
    }

    #[test]
    fn shutdown_rejects_everything() {
        let state = TenantState::new(TenantConfig::new("t"));
        assert_eq!(
            state.admit(&small_task(), 0, true, || false),
            Err(AdmissionError::ShuttingDown)
        );
        assert_eq!(state.counters.snapshot().accepted, 0);
    }
}
