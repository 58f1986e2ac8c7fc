//! Deterministic, seed-driven fault injection for chaos-testing the
//! device.
//!
//! Hardware-accelerator runtimes treat per-unit faults as routine: a PE
//! program deadlocks, a run blows its cycle budget, an array slot goes
//! bad. The [`FaultInjector`] lets tests provoke all of those (plus host
//! worker panics) at configurable rates without touching the simulator:
//! the device consults it per execution attempt and fabricates the chosen
//! failure instead of running the task.
//!
//! Decisions are a **pure function of `(seed, task id, attempt)`** — no
//! shared RNG stream — so a fault plan is byte-identical across runs and
//! worker counts. The only placement-dependent knob
//! is [`FaultConfig::broken_slots`], which marks whole array slots as
//! permanently faulty (every attempt executed there fails), the scenario
//! the quarantine state machine exists for.
//!
//! Production paths pay nothing: with
//! [`DeviceConfig::fault`](crate::DeviceConfig::fault) left `None`, the
//! device never computes a single hash.

use gendp_dpax::SimError;

/// Rates are expressed in parts per million of execution attempts.
pub const PPM: u64 = 1_000_000;

/// The fault kinds the injector can provoke.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InjectedFault {
    /// The simulated array reports a deadlock ([`SimError::Deadlock`]).
    Deadlock,
    /// The simulated array exhausts its cycle budget
    /// ([`SimError::Timeout`]).
    Timeout,
    /// The simulated array reports an out-of-range access
    /// ([`SimError::BadAccess`]).
    BadAccess,
    /// The host worker thread panics mid-task.
    Panic,
}

impl InjectedFault {
    /// Materializes the simulator error this fault presents as. `Panic`
    /// has no `SimError` form — the worker really panics (and the device
    /// contains it).
    pub fn sim_error(self, task: usize, attempt: u32) -> Option<SimError> {
        match self {
            InjectedFault::Deadlock => Some(SimError::Deadlock(format!(
                "injected: task {task} attempt {attempt}"
            ))),
            InjectedFault::Timeout => Some(SimError::Timeout { max_cycles: 0 }),
            InjectedFault::BadAccess => Some(SimError::BadAccess(format!(
                "injected: task {task} attempt {attempt}"
            ))),
            InjectedFault::Panic => None,
        }
    }
}

/// Fault-injection plan: per-attempt rates for each fault kind plus a
/// mask of permanently broken array slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultConfig {
    /// Seed of the deterministic fault plan.
    pub seed: u64,
    /// Injected-deadlock rate per execution attempt, in parts per million.
    pub deadlock_ppm: u32,
    /// Injected-timeout rate per execution attempt, in parts per million.
    pub timeout_ppm: u32,
    /// Injected bad-access rate per execution attempt, in parts per
    /// million.
    pub bad_access_ppm: u32,
    /// Worker-panic rate per execution attempt, in parts per million.
    pub panic_ppm: u32,
    /// Bitmask of permanently faulty array slots: every attempt executed
    /// on slot `i` fails with an injected [`SimError::BadAccess`] when bit
    /// `i` is set. Unlike the rate-based faults this depends on placement,
    /// so it is the knob for exercising quarantine, not determinism tests.
    pub broken_slots: u64,
}

impl FaultConfig {
    /// A plan injecting nothing (useful as a base for struct update
    /// syntax).
    pub fn disabled(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            deadlock_ppm: 0,
            timeout_ppm: 0,
            bad_access_ppm: 0,
            panic_ppm: 0,
            broken_slots: 0,
        }
    }

    /// A plan spreading `total_ppm` evenly across all four fault kinds
    /// (the chaos-test default: `uniform(seed, 50_000)` is 5% faults).
    ///
    /// # Panics
    ///
    /// Panics if `total_ppm` exceeds one million.
    pub fn uniform(seed: u64, total_ppm: u32) -> FaultConfig {
        assert!(total_ppm as u64 <= PPM, "rate above 100%");
        let each = total_ppm / 4;
        FaultConfig {
            seed,
            deadlock_ppm: each,
            timeout_ppm: each,
            bad_access_ppm: each,
            panic_ppm: total_ppm - 3 * each,
            broken_slots: 0,
        }
    }

    /// Total injection rate across the rate-based kinds, in parts per
    /// million.
    pub fn total_ppm(&self) -> u64 {
        self.deadlock_ppm as u64
            + self.timeout_ppm as u64
            + self.bad_access_ppm as u64
            + self.panic_ppm as u64
    }

    /// True if bit `slot` of [`broken_slots`](Self::broken_slots) is set.
    pub fn slot_broken(&self, slot: usize) -> bool {
        slot < 64 && self.broken_slots & (1 << slot) != 0
    }
}

/// The injector the device consults per execution attempt. Stateless
/// wrapper over a [`FaultConfig`]: every decision is a pure hash of
/// `(seed, task, attempt)`.
#[derive(Debug, Clone, Copy)]
pub struct FaultInjector {
    config: FaultConfig,
}

/// SplitMix64 finalizer: a high-quality 64-bit mix.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultInjector {
    /// Wraps a plan.
    ///
    /// # Panics
    ///
    /// Panics if the plan's rates sum above one million.
    pub fn new(config: FaultConfig) -> FaultInjector {
        assert!(config.total_ppm() <= PPM, "fault rates sum above 100%");
        FaultInjector { config }
    }

    /// The plan being executed.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// The fault (if any) to inject into attempt `attempt` of task
    /// `task` when executed on array slot `slot`.
    pub fn decide(&self, task: usize, attempt: u32, slot: usize) -> Option<InjectedFault> {
        if self.config.slot_broken(slot) {
            return Some(InjectedFault::BadAccess);
        }
        let rate = self.config.total_ppm();
        if rate == 0 {
            return None;
        }
        let h = splitmix64(
            self.config
                .seed
                .wrapping_mul(0xA24B_AED4_963E_E407)
                .wrapping_add((task as u64).wrapping_mul(0x9FB2_1C65_1E98_DF25))
                .wrapping_add(u64::from(attempt).wrapping_mul(0xD6E8_FEB8_6659_FD93)),
        );
        let roll = h % PPM;
        let mut bound = self.config.deadlock_ppm as u64;
        if roll < bound {
            return Some(InjectedFault::Deadlock);
        }
        bound += self.config.timeout_ppm as u64;
        if roll < bound {
            return Some(InjectedFault::Timeout);
        }
        bound += self.config.bad_access_ppm as u64;
        if roll < bound {
            return Some(InjectedFault::BadAccess);
        }
        bound += self.config.panic_ppm as u64;
        if roll < bound {
            return Some(InjectedFault::Panic);
        }
        None
    }
}

/// Installs a process-wide panic hook that suppresses the default
/// "thread panicked" report for **injected** panics (payloads containing
/// `"injected"`), so chaos tests don't flood stderr; every other panic
/// still prints through the previously installed hook. Idempotent and
/// safe to call from concurrent tests.
pub fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.contains("injected"))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<String>()
                        .map(|s| s.contains("injected"))
                })
                .unwrap_or(false);
            if !injected {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_slot_independent() {
        let injector = FaultInjector::new(FaultConfig::uniform(99, 100_000));
        for task in 0..200 {
            for attempt in 1..4 {
                let a = injector.decide(task, attempt, 0);
                let b = injector.decide(task, attempt, 13);
                assert_eq!(a, b, "task {task} attempt {attempt}");
            }
        }
    }

    #[test]
    fn rate_is_roughly_honored() {
        let injector = FaultInjector::new(FaultConfig::uniform(7, 50_000));
        let hits = (0..20_000)
            .filter(|&t| injector.decide(t, 1, 0).is_some())
            .count();
        // 5% of 20k = 1000; allow generous slack for the hash.
        assert!((700..1300).contains(&hits), "hits={hits}");
    }

    #[test]
    fn all_kinds_occur_and_materialize() {
        let injector = FaultInjector::new(FaultConfig::uniform(3, 400_000));
        let mut seen = std::collections::BTreeSet::new();
        for t in 0..2000 {
            if let Some(f) = injector.decide(t, 1, 0) {
                seen.insert(format!("{f:?}"));
                match f {
                    InjectedFault::Panic => assert!(f.sim_error(t, 1).is_none()),
                    other => assert!(other.sim_error(t, 1).is_some()),
                }
            }
        }
        assert_eq!(seen.len(), 4, "kinds seen: {seen:?}");
    }

    #[test]
    fn broken_slots_override_rates() {
        let injector = FaultInjector::new(FaultConfig {
            broken_slots: 0b101,
            ..FaultConfig::disabled(1)
        });
        assert_eq!(injector.decide(5, 1, 0), Some(InjectedFault::BadAccess));
        assert_eq!(injector.decide(5, 1, 1), None);
        assert_eq!(injector.decide(5, 1, 2), Some(InjectedFault::BadAccess));
        assert!(injector.config().slot_broken(2));
        assert!(!injector.config().slot_broken(64));
    }

    #[test]
    fn zero_rate_injects_nothing() {
        let injector = FaultInjector::new(FaultConfig::disabled(42));
        assert!((0..5000).all(|t| injector.decide(t, 1, 0).is_none()));
        assert_eq!(injector.config().total_ppm(), 0);
    }
}
