//! Poison-recovering locking.
//!
//! A panicking thread poisons any `Mutex` it holds, and the
//! `lock().unwrap()` pattern then re-raises that panic in every other
//! thread touching the lock — so one bad task could take the whole batch
//! down with it. The runtime treats a panic as a per-task failure, not a
//! process failure, so [`lock_unpoisoned`] recovers the guard from a
//! poisoned lock instead.
//!
//! Recovery is sound here because every critical section in this crate
//! maintains its invariants at each single store: a result slot is
//! written whole, and a template whose attempt panicked has already left
//! its cache, so observing a poisoned lock's state is no worse than
//! observing it between two critical sections.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `mutex`, recovering the guard if a panicking holder poisoned it.
pub(crate) fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Mutex;

    #[test]
    fn lock_recovers_after_poison() {
        let m = Mutex::new(7);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _guard = m.lock().unwrap();
            panic!("poison it");
        }));
        assert!(result.is_err());
        assert!(m.is_poisoned());
        assert_eq!(*lock_unpoisoned(&m), 7);
        *lock_unpoisoned(&m) = 8;
        assert_eq!(*lock_unpoisoned(&m), 8);
    }
}
