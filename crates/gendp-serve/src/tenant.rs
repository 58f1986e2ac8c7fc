//! Tenant identity, QoS configuration, and the token-bucket rate
//! limiter.
//!
//! A tenant is a named traffic source with its own quality-of-service
//! contract: a *priority class* and *weight* controlling its share of
//! device time under contention, an optional *rate limit* shedding
//! excess arrivals before they consume any service resource, and
//! *quotas* bounding how much of the service's memory one tenant can
//! occupy (queued and in-flight requests).

use std::fmt;
use std::time::Duration;

/// Priority class of a tenant's traffic. Classes are *weighted*, not
/// strict: a higher class gets a proportionally larger share of device
/// time under contention ([`Priority::share_multiplier`]), but every
/// class with queued work always makes progress — the scheduler's
/// deficit-round-robin guarantees a saturating `Interactive` tenant can
/// never starve a `Batch` one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Throughput-oriented background work (1× share).
    Batch,
    /// The default class (4× share).
    #[default]
    Normal,
    /// Latency-sensitive traffic (16× share).
    Interactive,
}

impl Priority {
    /// The factor this class multiplies a tenant's weight by when the
    /// scheduler apportions device time.
    pub fn share_multiplier(self) -> u64 {
        match self {
            Priority::Batch => 1,
            Priority::Normal => 4,
            Priority::Interactive => 16,
        }
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Priority::Batch => "batch",
            Priority::Normal => "normal",
            Priority::Interactive => "interactive",
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Token-bucket rate limit: sustained `requests_per_sec` with bursts up
/// to `burst` requests absorbed from a full bucket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimit {
    /// Sustained admission rate, in requests per second.
    pub requests_per_sec: f64,
    /// Bucket capacity: requests admitted back-to-back from a full
    /// bucket before the sustained rate applies.
    pub burst: f64,
}

impl RateLimit {
    /// A limit of `requests_per_sec` with a burst of one second's worth
    /// of traffic (minimum 1).
    pub fn per_sec(requests_per_sec: f64) -> RateLimit {
        RateLimit {
            requests_per_sec,
            burst: requests_per_sec.max(1.0),
        }
    }
}

/// One tenant's service contract.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantConfig {
    /// Tenant name — the submission-side identity, unique per server.
    pub name: String,
    /// Fair-share weight within the tenant's priority class (≥ 1).
    pub weight: u32,
    /// Priority class (a weight multiplier, never a starvation source).
    pub priority: Priority,
    /// Optional token-bucket rate limit; `None` admits at any rate.
    pub rate: Option<RateLimit>,
    /// Maximum requests admitted but not yet delivered (queued plus
    /// executing). Admission rejects above this with
    /// [`AdmissionError::OverQuota`](crate::AdmissionError::OverQuota).
    pub max_in_flight: usize,
    /// Maximum requests waiting in the scheduler's per-tenant queue.
    /// Admission rejects above this with
    /// [`AdmissionError::QueueFull`](crate::AdmissionError::QueueFull) —
    /// the backpressure signal an open-loop client sees.
    pub max_queued: usize,
    /// Default per-request deadline, assigned at admission (the moment
    /// the request is admitted, plus `deadline`). A request past its deadline is
    /// delivered as `deadline-exceeded` instead of occupying a dispatch
    /// slot or returning a stale result; `None` (the default) never
    /// expires work. Per-request overrides via
    /// [`TenantClient::submit_with_deadline`](crate::TenantClient::submit_with_deadline).
    pub deadline: Option<Duration>,
}

impl TenantConfig {
    /// A tenant with default QoS: weight 1, [`Priority::Normal`], no
    /// rate limit, 4096 in flight, 2048 queued.
    pub fn new(name: impl Into<String>) -> TenantConfig {
        TenantConfig {
            name: name.into(),
            weight: 1,
            priority: Priority::default(),
            rate: None,
            max_in_flight: 4096,
            max_queued: 2048,
            deadline: None,
        }
    }

    /// Sets the fair-share weight (≥ 1).
    pub fn weight(mut self, weight: u32) -> TenantConfig {
        self.weight = weight.max(1);
        self
    }

    /// Sets the priority class.
    pub fn priority(mut self, priority: Priority) -> TenantConfig {
        self.priority = priority;
        self
    }

    /// Sets a token-bucket rate limit.
    pub fn rate(mut self, rate: RateLimit) -> TenantConfig {
        self.rate = Some(rate);
        self
    }

    /// Sets the in-flight and queued quotas.
    pub fn quotas(mut self, max_in_flight: usize, max_queued: usize) -> TenantConfig {
        self.max_in_flight = max_in_flight.max(1);
        self.max_queued = max_queued.max(1);
        self
    }

    /// Sets the default per-request deadline.
    pub fn deadline(mut self, deadline: Duration) -> TenantConfig {
        self.deadline = Some(deadline);
        self
    }

    /// The tenant's effective scheduling weight: its configured weight
    /// scaled by its priority class.
    pub fn effective_weight(&self) -> u64 {
        u64::from(self.weight.max(1)) * self.priority.share_multiplier()
    }
}

/// A token bucket over a caller-supplied clock (nanoseconds from an
/// arbitrary epoch), so admission logic stays deterministic in tests
/// while production feeds it `Instant`-derived time.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    tokens: f64,
    rate_per_nano: f64,
    burst: f64,
    last_nanos: u64,
}

impl TokenBucket {
    /// A full bucket for the given limit.
    pub fn new(limit: RateLimit) -> TokenBucket {
        let burst = limit.burst.max(1.0);
        TokenBucket {
            tokens: burst,
            rate_per_nano: limit.requests_per_sec.max(0.0) / 1e9,
            burst,
            last_nanos: 0,
        }
    }

    /// Refills for the elapsed time and takes one token if available.
    /// `now_nanos` must be monotone non-decreasing across calls.
    pub fn try_take(&mut self, now_nanos: u64) -> bool {
        let elapsed = now_nanos.saturating_sub(self.last_nanos);
        self.last_nanos = now_nanos;
        self.tokens = (self.tokens + elapsed as f64 * self.rate_per_nano).min(self.burst);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_multipliers_are_ordered() {
        assert!(Priority::Batch.share_multiplier() < Priority::Normal.share_multiplier());
        assert!(Priority::Normal.share_multiplier() < Priority::Interactive.share_multiplier());
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn effective_weight_combines_weight_and_class() {
        let t = TenantConfig::new("t")
            .weight(3)
            .priority(Priority::Interactive);
        assert_eq!(t.effective_weight(), 48);
        let zero = TenantConfig::new("z").weight(0);
        assert_eq!(zero.weight, 1, "weight clamps to 1");
    }

    #[test]
    fn token_bucket_absorbs_burst_then_enforces_rate() {
        // 10 req/s, burst 2.
        let mut bucket = TokenBucket::new(RateLimit {
            requests_per_sec: 10.0,
            burst: 2.0,
        });
        assert!(bucket.try_take(0));
        assert!(bucket.try_take(0));
        assert!(!bucket.try_take(0), "burst spent");
        // 100 ms refills one token at 10/s.
        assert!(bucket.try_take(100_000_000));
        assert!(!bucket.try_take(100_000_000));
        // A long idle period refills only to the burst cap.
        assert!(bucket.try_take(10_000_000_000));
        assert!(bucket.try_take(10_000_000_000));
        assert!(!bucket.try_take(10_000_000_000));
    }

    #[test]
    fn unlimited_bucket_from_zero_rate_never_refills() {
        let mut bucket = TokenBucket::new(RateLimit {
            requests_per_sec: 0.0,
            burst: 1.0,
        });
        assert!(bucket.try_take(0));
        assert!(!bucket.try_take(u64::MAX));
    }
}
