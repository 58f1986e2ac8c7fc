//! Chaos stress tests: a 1000-task mixed batch with ~5% injected faults
//! of every kind (deadlocks, timeouts, bad accesses, worker panics) must
//! drain at every worker count, produce values byte-identical to the
//! fault-free run for every task that completes, and fingerprint
//! identically across placements — fault decisions are a pure function
//! of `(seed, task, attempt)`, never of scheduling.

use gendp::kernels::Scoring;
use gendp::runtime::{
    silence_injected_panics, Device, DeviceConfig, FaultConfig, RetryPolicy, Task, TaskValue,
};
use gendp::seq::DnaSeq;
use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// Environment-tunable batch size so CI can crank the stress up; the
/// default keeps debug-mode test time reasonable.
fn stress_tasks() -> usize {
    std::env::var("GENDP_CHAOS_TASKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000)
}

/// A deterministic mixed batch interleaving four integer-array kernels.
fn mixed_batch(n: usize, seed: u64) -> Vec<Task> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|i| match i % 4 {
            0 => Task::bsw_local(
                DnaSeq::random(8 + i % 6, &mut rng),
                DnaSeq::random(10 + i % 5, &mut rng),
                Scoring::bwa_mem(),
            ),
            1 => Task::dtw(
                (0..6 + i % 5).map(|_| rng.gen_range(0..400)).collect(),
                (0..7 + i % 4).map(|_| rng.gen_range(0..400)).collect(),
            ),
            2 => Task::bsw_global(
                DnaSeq::random(7 + i % 4, &mut rng),
                DnaSeq::random(7 + i % 4, &mut rng),
                Scoring::bwa_mem(),
            ),
            _ => Task::dtw(
                (0..5 + i % 3).map(|_| rng.gen_range(0..200)).collect(),
                (0..5 + i % 6).map(|_| rng.gen_range(0..200)).collect(),
            ),
        })
        .collect()
}

fn device(workers: usize, fault: Option<FaultConfig>) -> Device {
    Device::new(DeviceConfig {
        int_arrays: 8,
        float_arrays: 0,
        workers,
        fault,
        ..DeviceConfig::default()
    })
}

#[test]
fn five_percent_chaos_drains_under_every_policy_and_worker_count() {
    silence_injected_panics();
    let n = stress_tasks();
    let fault = FaultConfig::uniform(2023, 50_000); // 5% of attempts
    let reference: Vec<TaskValue> = device(2, None)
        .run_batch(mixed_batch(n, 51))
        .expect("fault-free reference")
        .into_strict()
        .expect("fault-free runs never fail")
        .results
        .into_iter()
        .map(|r| r.value)
        .collect();

    let mut fingerprints = Vec::new();
    for workers in [1, 2, 8] {
        let outcome = device(workers, Some(fault))
            .run_batch(mixed_batch(n, 51))
            .expect("chaos batch");
        assert_eq!(outcome.results.len(), n, "x{workers}");
        let recovery = outcome.report.recovery;
        assert!(recovery.faults_injected > 0, "x{workers}");
        assert!(recovery.retries > 0, "x{workers}");
        assert!(recovery.panics_contained > 0, "x{workers}");
        // With 5% faults and 3 attempts the expected loss is
        // ~n * 0.05^3; the batch must overwhelmingly survive.
        assert!(
            outcome.completed() >= n - n / 100,
            "x{workers}: only {} of {n} completed",
            outcome.completed()
        );
        // A task that failed spent every allowed attempt doing so.
        let max_attempts = RetryPolicy::default().max_attempts;
        for (id, failure) in outcome.failures() {
            assert_eq!(failure.attempts(), max_attempts, "task {id}");
        }
        // Injection fakes errors, it never corrupts results: every
        // completed task equals the fault-free run byte-for-byte.
        for r in outcome.ok_results() {
            assert_eq!(r.value, reference[r.id], "task {} x{workers}", r.id);
        }
        fingerprints.push((workers, outcome.fingerprint()));
    }
    // The same fault seed replays identically at any worker count.
    let (_, first) = &fingerprints[0];
    for (workers, fp) in &fingerprints {
        assert_eq!(fp, first, "fingerprint diverged at x{workers}");
    }
}

#[test]
fn quarantining_all_but_one_int_array_still_drains_the_batch() {
    let n = 200;
    // Slots 1..8 permanently broken; only slot 0 works.
    let fault = FaultConfig {
        broken_slots: 0b1111_1110,
        ..FaultConfig::disabled(77)
    };
    let reference: Vec<TaskValue> = device(2, None)
        .run_batch(mixed_batch(n, 52))
        .expect("reference")
        .into_strict()
        .expect("clean run")
        .results
        .into_iter()
        .map(|r| r.value)
        .collect();
    let mut dev = Device::new(DeviceConfig {
        int_arrays: 8,
        float_arrays: 0,
        workers: 4,
        retry: RetryPolicy {
            max_attempts: 10,
            quarantine_after: 2,
        },
        fault: Some(fault),
        ..DeviceConfig::default()
    });
    let outcome = dev.run_batch(mixed_batch(n, 52)).expect("chaos batch");
    assert!(
        outcome.is_complete(),
        "{} of {n} tasks failed",
        outcome.failed()
    );
    for r in outcome.ok_results() {
        assert_eq!(r.value, reference[r.id], "task {}", r.id);
    }
    let report = &outcome.report;
    assert_eq!(
        report.arrays.iter().filter(|a| a.quarantined).count(),
        7,
        "every broken slot must go offline"
    );
    assert!(!report.arrays[0].quarantined);
    assert_eq!(report.recovery.quarantined_arrays, 7);
    // Once quarantine converges, the whole batch drains through the
    // single healthy array.
    assert_eq!(report.arrays[0].tasks, n);
}

#[test]
fn disabled_injection_is_byte_identical_to_no_injection() {
    let n = 150;
    let plain = device(3, None)
        .run_batch(mixed_batch(n, 53))
        .expect("plain batch");
    let disabled = device(3, Some(FaultConfig::disabled(99)))
        .run_batch(mixed_batch(n, 53))
        .expect("disabled-injection batch");
    assert!(plain.report.recovery.is_clean());
    assert!(disabled.report.recovery.is_clean());
    assert_eq!(plain.fingerprint(), disabled.fingerprint());
    assert!(plain.is_complete() && disabled.is_complete());
    for r in plain.ok_results() {
        assert_eq!(r.attempts, 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For arbitrary fault seeds, the same plan replays byte-identically
    /// across worker counts on a smaller batch.
    #[test]
    fn fault_plans_replay_identically_across_placements(seed in 0u64..1_000_000) {
        silence_injected_panics();
        let fault = FaultConfig::uniform(seed, 120_000);
        let tasks = 48;
        let fingerprint = |workers: usize| {
            device(workers, Some(fault))
                .run_batch(mixed_batch(tasks, seed ^ 0xABCD))
                .expect("batch")
                .fingerprint()
        };
        let base = fingerprint(1);
        prop_assert_eq!(&fingerprint(2), &base);
        prop_assert_eq!(&fingerprint(8), &base);
    }
}
