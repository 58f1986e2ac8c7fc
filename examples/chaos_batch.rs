//! Chaos batch demo: run a 1000-task mixed batch on the paper-shaped
//! device while deterministically injecting ~5% faults of every kind
//! (deadlocks, timeouts, bad accesses, worker panics), and report how
//! the fault-tolerance layer recovered.
//!
//! ```text
//! cargo run --release --example chaos_batch [seed] [fault_ppm]
//! ```
//!
//! The same seed always produces the same fault plan, retry counts and
//! per-task outcomes, at any worker count.

use gendp::kernels::Scoring;
use gendp::runtime::{silence_injected_panics, Device, DeviceConfig, FaultConfig, Task};
use gendp::seq::DnaSeq;
use rand::{rngs::SmallRng, Rng, SeedableRng};

fn mixed_batch(n: usize, seed: u64) -> Vec<Task> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|i| match i % 3 {
            0 => Task::bsw_local(
                DnaSeq::random(12 + i % 8, &mut rng),
                DnaSeq::random(14 + i % 6, &mut rng),
                Scoring::bwa_mem(),
            ),
            1 => Task::dtw(
                (0..8 + i % 6).map(|_| rng.gen_range(0..400)).collect(),
                (0..9 + i % 5).map(|_| rng.gen_range(0..400)).collect(),
            ),
            _ => Task::bsw_global(
                DnaSeq::random(10 + i % 5, &mut rng),
                DnaSeq::random(10 + i % 5, &mut rng),
                Scoring::bwa_mem(),
            ),
        })
        .collect()
}

fn main() {
    silence_injected_panics();
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(2023);
    let fault_ppm: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(50_000);
    let n = 1000;

    println!("chaos batch: {n} tasks, fault rate {fault_ppm} ppm, seed {seed}");

    let fault = FaultConfig::uniform(seed, fault_ppm);
    let mut device = Device::new(DeviceConfig {
        workers: 8,
        fault: Some(fault),
        ..DeviceConfig::default()
    });
    let outcome = device
        .run_batch(mixed_batch(n, seed))
        .expect("batch is placeable");

    let recovery = outcome.report.recovery;
    println!(
        "completed {}/{} tasks ({} failed for good)",
        outcome.completed(),
        n,
        outcome.failed()
    );
    println!(
        "injected {} faults ({} worker panics contained)",
        recovery.faults_injected, recovery.panics_contained
    );
    println!(
        "retries {} (budget escalations {}, redispatches {}), quarantined arrays {}",
        recovery.retries,
        recovery.budget_escalations,
        recovery.redispatches,
        recovery.quarantined_arrays
    );
    for (id, failure) in outcome.failures() {
        println!("  task {id}: {failure}");
    }

    // Replay the identical fault plan at a different worker count: the
    // outcome fingerprint must not move.
    let mut replay_device = Device::new(DeviceConfig {
        workers: 1,
        fault: Some(fault),
        ..DeviceConfig::default()
    });
    let replay = replay_device
        .run_batch(mixed_batch(n, seed))
        .expect("replay batch");
    assert_eq!(
        outcome.fingerprint(),
        replay.fingerprint(),
        "fault plan must replay identically across worker counts"
    );
    println!("replay at 1 worker: fingerprint identical ({n} tasks)");

    // And a fault-free run of the same batch for contrast.
    let mut clean_device = Device::new(DeviceConfig {
        workers: 8,
        ..DeviceConfig::default()
    });
    let clean = clean_device
        .run_batch(mixed_batch(n, seed))
        .expect("clean batch");
    let agree = outcome
        .ok_results()
        .filter(|r| {
            clean.results[r.id]
                .as_ref()
                .is_ok_and(|c| c.value == r.value)
        })
        .count();
    println!(
        "fault-free contrast: {:.2} GCUPS, {}/{} surviving values identical",
        clean.report.gcups(),
        agree,
        outcome.completed()
    );
    assert_eq!(
        agree,
        outcome.completed(),
        "injection must never corrupt a value"
    );
}
