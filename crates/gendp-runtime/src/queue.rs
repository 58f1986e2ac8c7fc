//! Bounded MPMC submission queue with blocking-push backpressure.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

use crate::sync::{lock_unpoisoned, wait_unpoisoned};

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    high_water: usize,
}

/// A bounded multi-producer multi-consumer queue.
///
/// `push` blocks while the queue is full — that is the device's
/// backpressure: a submitter cannot race ahead of the arrays it feeds.
/// Consumers pop from the front, in push order.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    capacity: usize,
    space: Condvar,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
                high_water: 0,
            }),
            capacity,
            space: Condvar::new(),
        }
    }

    /// Enqueues an item, blocking while the queue is full. Returns the
    /// item back if the queue has been closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut inner = lock_unpoisoned(&self.inner);
        while inner.items.len() >= self.capacity && !inner.closed {
            inner = wait_unpoisoned(&self.space, inner);
        }
        if inner.closed {
            return Err(item);
        }
        inner.items.push_back(item);
        inner.high_water = inner.high_water.max(inner.items.len());
        Ok(())
    }

    /// Dequeues from the front, or `None` if the queue is currently empty.
    pub fn try_pop(&self) -> Option<T> {
        let mut inner = lock_unpoisoned(&self.inner);
        let item = inner.items.pop_front();
        if item.is_some() {
            self.space.notify_one();
        }
        item
    }

    /// Marks the queue closed: pending items drain normally, further
    /// pushes fail, and blocked pushers wake.
    pub fn close(&self) {
        let mut inner = lock_unpoisoned(&self.inner);
        inner.closed = true;
        self.space.notify_all();
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.inner).items.len()
    }

    /// True if currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Highest occupancy ever observed.
    pub fn high_water(&self) -> usize {
        lock_unpoisoned(&self.inner).high_water
    }

    /// True once [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        lock_unpoisoned(&self.inner).closed
    }

    /// Reopens a drained queue for a fresh batch, resetting the
    /// high-water mark. Any leftover items are dropped.
    pub fn reset(&self) {
        let mut inner = lock_unpoisoned(&self.inner);
        inner.items.clear();
        inner.closed = false;
        inner.high_water = 0;
        self.space.notify_all();
    }

    /// Chaos hook: poisons the queue's internal mutex by panicking while
    /// holding it (the panic is caught here; the poison remains). Queue
    /// contents are untouched, and every operation keeps working through
    /// the poison-recovering lock helpers — this exists so fault-injection
    /// tests can prove exactly that.
    pub fn poison(&self) {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _inner = lock_unpoisoned(&self.inner);
            panic!("injected queue poison");
        }));
        debug_assert!(result.is_err());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_and_high_water() {
        let q = BoundedQueue::new(4);
        for i in 0..3 {
            q.push(i).unwrap();
        }
        assert_eq!(q.len(), 3);
        assert_eq!(q.high_water(), 3);
        assert_eq!(q.try_pop(), Some(0));
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.try_pop(), Some(2));
        assert!(q.is_empty());
        assert_eq!(q.high_water(), 3);
    }

    #[test]
    fn push_blocks_until_space_frees() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(0usize).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(1).is_ok())
        };
        // The producer is stuck on the full queue until we pop.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.try_pop(), Some(0));
        assert!(producer.join().unwrap());
        assert_eq!(q.try_pop(), Some(1));
    }

    #[test]
    fn operations_survive_a_poisoned_lock() {
        let q = BoundedQueue::new(4);
        q.push(1u32).unwrap();
        q.poison();
        // Every operation still works: the helpers recover the guard.
        q.push(2).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.high_water(), 2);
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.try_pop(), Some(2));
        assert!(!q.is_closed());
        q.close();
        assert!(q.push(3).is_err());
        q.reset();
        q.push(4).unwrap();
        assert_eq!(q.try_pop(), Some(4));
    }

    #[test]
    fn close_rejects_pushes_and_wakes_blocked() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(0usize).unwrap();
        let blocked = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(1))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(blocked.join().unwrap(), Err(1));
        // Draining still works after close.
        assert_eq!(q.try_pop(), Some(0));
        assert!(q.push(2).is_err());
    }
}
