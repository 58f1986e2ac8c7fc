//! Property tests for the bounded MPMC queue under chaos: concurrent
//! pushers and poppers, with lock poisoning injected mid-run, must never
//! lose or duplicate a task.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use gendp_runtime::{silence_injected_panics, BoundedQueue};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every pushed item is consumed exactly once, no matter how a
    /// producer, two consumers and injected lock poisonings interleave.
    #[test]
    fn no_loss_no_duplication_under_concurrency_and_poison(
        n in 0usize..150,
        capacity in 1usize..8,
        poisons in 0usize..4,
    ) {
        silence_injected_panics();
        let q = Arc::new(BoundedQueue::new(capacity));
        let done = Arc::new(AtomicBool::new(false));

        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                for i in 0..n {
                    q.push(i).expect("queue closed early");
                }
            })
        };
        let chaos = {
            let q = Arc::clone(&q);
            let done = Arc::clone(&done);
            thread::spawn(move || {
                for _ in 0..poisons {
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                    q.poison();
                    thread::yield_now();
                }
            })
        };
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                let done = Arc::clone(&done);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        match q.try_pop() {
                            Some(i) => got.push(i),
                            None if done.load(Ordering::Acquire) && q.is_empty() => break,
                            None => thread::yield_now(),
                        }
                    }
                    got
                })
            })
            .collect();

        producer.join().expect("producer");
        q.close();
        done.store(true, Ordering::Release);
        chaos.join().expect("chaos");
        let mut all: Vec<usize> = Vec::with_capacity(n);
        for c in consumers {
            all.extend(c.join().expect("consumer"));
        }
        all.sort_unstable();
        let expect: Vec<usize> = (0..n).collect();
        prop_assert_eq!(all, expect, "n={} capacity={} poisons={}", n, capacity, poisons);
        prop_assert!(q.is_empty());
        prop_assert!(q.is_closed());
    }

    /// FIFO pop order survives poisoning when there is no concurrency:
    /// poison only breaks the lock, never the contents.
    #[test]
    fn poison_preserves_contents_and_order(
        items in prop::collection::vec(0u32..1000, 0..40),
        poison_at in 0usize..40,
    ) {
        silence_injected_panics();
        let q = BoundedQueue::new(64);
        for (i, item) in items.iter().enumerate() {
            if i == poison_at {
                q.poison();
            }
            q.push(*item).expect("open queue");
        }
        q.poison();
        let mut drained = Vec::new();
        while let Some(item) = q.try_pop() {
            drained.push(item);
        }
        prop_assert_eq!(drained, items);
        prop_assert_eq!(q.len(), 0);
    }
}
