//! Shard lifecycle: the state machine, health assessment policy, and
//! lifecycle counters behind the server's self-healing shard pool.
//!
//! ```text
//!          first completed batch          crippled streak /
//!   ┌─────────┐      ┌─────────┐      heartbeat silence / kill
//!   │ Joining │─────▶│ Healthy │──────────────┐
//!   └─────────┘      └─────────┘              │
//!        │             ▲     │ quarantine     │
//!        │   recovered │     ▼ above policy   ▼
//!        │           ┌──────────┐         ┌──────┐  replacement:
//!        │           │ Degraded │────────▶│ Dead │──────▶ fresh
//!        │           └──────────┘         └──────┘        Joining
//!        │ retire_shard   │ retire_shard     ▲            shard
//!        ▼                ▼                  │
//!   ┌──────────┐  stops pulling once its     │
//!   │ Draining │─────────────────────────────┘
//!   └──────────┘  in-flight batch delivers
//! ```
//!
//! Each shard thread in `server.rs` drives its own transitions from the
//! device snapshot it reads after every batch; a kill is declared by its
//! caller, and a watchdog thread adds the heartbeat-silence check. This
//! module owns the vocabulary ([`ShardState`]), the pure assessment
//! function ([`assess`]) mapping a device snapshot to a
//! [`HealthSignal`], the thresholds ([`LifecyclePolicy`]), and the
//! counters ([`LifecycleCounters`]). Keeping assessment pure makes the
//! policy unit-testable without spinning up a server.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use gendp_runtime::{ArrayClass, DeviceSnapshot};

/// Where a shard is in its life. States only ever move rightward
/// (`Joining → Healthy ⇄ Degraded → Draining/Dead`); a dead shard never
/// comes back — its replacement is a *new* shard with a new id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum ShardState {
    /// Spawned but yet to complete a batch; pulls work so it can prove
    /// itself.
    Joining = 0,
    /// Serving normally.
    Healthy = 1,
    /// Serving with quarantined slots at or above the policy threshold;
    /// it pulls only when more requests wait than there are healthy or
    /// joining shards to take them.
    Degraded = 2,
    /// Retiring: pulls no new batch; its in-flight batch finishes, then
    /// it is `Dead`.
    Draining = 3,
    /// Out of the pool for good. Kept in stats for post-mortems.
    Dead = 4,
}

impl ShardState {
    /// Stable display name (used in stats output and wire frames).
    pub fn name(self) -> &'static str {
        match self {
            ShardState::Joining => "joining",
            ShardState::Healthy => "healthy",
            ShardState::Degraded => "degraded",
            ShardState::Draining => "draining",
            ShardState::Dead => "dead",
        }
    }

    /// True while the shard may still pull new batches.
    pub fn is_dispatchable(self) -> bool {
        matches!(
            self,
            ShardState::Joining | ShardState::Healthy | ShardState::Degraded
        )
    }

    /// Wire encoding (the discriminant).
    pub fn to_wire(self) -> u8 {
        self as u8
    }

    /// Decodes a wire byte; `None` for unknown values.
    pub fn from_wire(byte: u8) -> Option<ShardState> {
        Some(match byte {
            0 => ShardState::Joining,
            1 => ShardState::Healthy,
            2 => ShardState::Degraded,
            3 => ShardState::Draining,
            4 => ShardState::Dead,
            _ => return None,
        })
    }
}

impl fmt::Display for ShardState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Thresholds of the shard health policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifecyclePolicy {
    /// Percentage of a class's slots that must be quarantined (in the
    /// latest batch) before the shard reads as degraded.
    pub degraded_pct: u32,
    /// Consecutive *new* snapshots reading crippled (a multi-slot class
    /// down to its last healthy slot) before the shard is declared dead.
    /// Slot quarantine resets every batch, so a streak across batches
    /// separates persistent device rot from one unlucky batch.
    pub dead_after_crippled: u32,
    /// Heartbeat silence, with work outstanding, after which the shard
    /// is declared dead (wedged device or lost thread). The watchdog
    /// checks four times per timeout.
    pub heartbeat_timeout: Duration,
}

impl Default for LifecyclePolicy {
    fn default() -> LifecyclePolicy {
        LifecyclePolicy {
            degraded_pct: 25,
            dead_after_crippled: 2,
            heartbeat_timeout: Duration::from_secs(2),
        }
    }
}

/// What one device snapshot says about a shard's health, before the
/// shard folds in its crippled streak.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthSignal {
    /// Quarantine below the degraded threshold in every class.
    Healthy,
    /// Quarantine at or above `degraded_pct` in some class.
    Degraded,
    /// Some multi-slot class is down to its last healthy slot — the
    /// quarantine machine's terminal state for that class.
    Crippled,
}

/// Classifies one snapshot under `policy`. Pure: same snapshot, same
/// answer.
pub fn assess(snapshot: &DeviceSnapshot, policy: &LifecyclePolicy) -> HealthSignal {
    if snapshot.is_crippled() {
        return HealthSignal::Crippled;
    }
    let degraded = [ArrayClass::Int, ArrayClass::Float].into_iter().any(|c| {
        let total = snapshot.total_slots(c);
        total > 0
            && snapshot.quarantined_slots(c) * 100 >= total * policy.degraded_pct as usize
            && snapshot.quarantined_slots(c) > 0
    });
    if degraded {
        HealthSignal::Degraded
    } else {
        HealthSignal::Healthy
    }
}

/// Lifetime lifecycle event counters, updated by the shard threads and
/// the watchdog.
#[derive(Debug, Default)]
pub struct LifecycleCounters {
    /// Shards ever spawned (initial pool + additions + respawns).
    pub spawned: AtomicU64,
    /// Subset of `spawned` that replaced a dead shard.
    pub respawned: AtomicU64,
    /// Shards retired by request (drained and removed).
    pub retired: AtomicU64,
    /// Shards declared dead (kill, crippled, silent).
    pub died: AtomicU64,
}

impl LifecycleCounters {
    /// A plain-value copy for reporting.
    pub fn snapshot(&self) -> LifecycleSnapshot {
        LifecycleSnapshot {
            spawned: self.spawned.load(Ordering::Relaxed),
            respawned: self.respawned.load(Ordering::Relaxed),
            retired: self.retired.load(Ordering::Relaxed),
            died: self.died.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of [`LifecycleCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LifecycleSnapshot {
    /// Shards ever spawned (initial pool + additions + respawns).
    pub spawned: u64,
    /// Subset of `spawned` that replaced a dead shard.
    pub respawned: u64,
    /// Shards retired by request.
    pub retired: u64,
    /// Shards declared dead (kill, crippled, silent).
    pub died: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gendp_runtime::{Device, DeviceConfig};

    fn snapshot(int_arrays: usize) -> DeviceSnapshot {
        Device::new(DeviceConfig {
            int_arrays,
            float_arrays: 1,
            workers: 1,
            ..DeviceConfig::default()
        })
        .snapshot()
    }

    #[test]
    fn state_machine_vocabulary() {
        for state in [
            ShardState::Joining,
            ShardState::Healthy,
            ShardState::Degraded,
            ShardState::Draining,
            ShardState::Dead,
        ] {
            assert_eq!(ShardState::from_wire(state.to_wire()), Some(state));
            assert!(!state.name().is_empty());
        }
        assert_eq!(ShardState::from_wire(250), None);
        assert!(ShardState::Joining.is_dispatchable());
        assert!(ShardState::Degraded.is_dispatchable());
        assert!(!ShardState::Draining.is_dispatchable());
        assert!(!ShardState::Dead.is_dispatchable());
    }

    #[test]
    fn assess_reads_quarantine_levels() {
        let policy = LifecyclePolicy::default();
        // A fresh device: nothing quarantined.
        let snap = snapshot(4);
        assert_eq!(assess(&snap, &policy), HealthSignal::Healthy);

        // One of four int slots quarantined: 25% reaches the default
        // degraded threshold.
        let mut snap = snapshot(4);
        snap.slots[0].quarantined = true;
        assert_eq!(assess(&snap, &policy), HealthSignal::Degraded);

        // Three of four int slots quarantined: the class is down to its
        // last healthy slot — crippled.
        let mut snap = snapshot(4);
        for slot in snap.slots.iter_mut().take(3) {
            slot.quarantined = true;
        }
        assert!(snap.is_crippled());
        assert_eq!(assess(&snap, &policy), HealthSignal::Crippled);

        // A single-slot class can never cripple (nothing to lose), and
        // a permissive threshold tolerates one quarantined slot.
        let lax = LifecyclePolicy {
            degraded_pct: 60,
            ..policy
        };
        let mut snap = snapshot(4);
        snap.slots[0].quarantined = true;
        assert_eq!(assess(&snap, &lax), HealthSignal::Healthy);
    }

    #[test]
    fn lifecycle_counters_snapshot() {
        let counters = LifecycleCounters::default();
        counters.spawned.store(5, Ordering::Relaxed);
        counters.respawned.store(2, Ordering::Relaxed);
        let snap = counters.snapshot();
        assert_eq!(snap.spawned, 5);
        assert_eq!(snap.respawned, 2);
        assert_eq!(snap.died, 0);
    }
}
