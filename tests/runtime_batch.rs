//! Device-level batch execution equals sequential pipeline execution:
//! for a mixed batch of BSW and DTW tasks, every worker count must
//! reproduce the sequential scores byte-for-byte and
//! spend the identical number of simulated cycles on each task
//! (placement changes wall-clock, never simulated results).

use gendp::core::{bsw_score, GendpPipeline};
use gendp::dpax::{INT_ARRAYS, PES_PER_ARRAY};
use gendp::kernels::chain::ChainParams;
use gendp::kernels::Scoring;
use gendp::runtime::{BatchAligner, Device, DeviceConfig, Task, TaskValue};
use gendp::seq::{Anchor, DnaSeq, Genome, ShortReadProfile};
use rand::{rngs::SmallRng, Rng, SeedableRng};

fn codes(s: &DnaSeq) -> Vec<i32> {
    s.codes().iter().map(|&c| c as i32).collect()
}

/// A deterministic batch of 100 interleaved BSW and DTW tasks.
fn mixed_batch() -> Vec<Task> {
    let mut rng = SmallRng::seed_from_u64(41);
    (0..100)
        .map(|i| {
            if i % 2 == 0 {
                Task::bsw_local(
                    DnaSeq::random(8 + i % 6, &mut rng),
                    DnaSeq::random(10 + i % 5, &mut rng),
                    Scoring::bwa_mem(),
                )
            } else {
                Task::dtw(
                    (0..6 + i % 5).map(|_| rng.gen_range(0..400)).collect(),
                    (0..7 + i % 4).map(|_| rng.gen_range(0..400)).collect(),
                )
            }
        })
        .collect()
}

/// Runs the batch sequentially through `GendpPipeline`, one task at a
/// time on one array, and returns (value, simulated cycles) per task.
fn sequential_reference(tasks: &[Task]) -> Vec<(TaskValue, u64)> {
    tasks
        .iter()
        .map(|task| match task {
            Task::Bsw {
                query,
                target,
                scoring,
                ..
            } => {
                let out = GendpPipeline::bsw(scoring)
                    .run(&codes(target), &codes(query), 4)
                    .expect("sequential bsw");
                (TaskValue::Score(bsw_score(&out)), out.stats.cycles)
            }
            Task::Dtw { xs, ys } => {
                let out = GendpPipeline::dtw().run(xs, ys, 4).expect("sequential dtw");
                let d = *out.last_row["d"].last().expect("corner") as i64;
                (TaskValue::Distance(d), out.stats.cycles)
            }
            other => unreachable!("unexpected task in batch: {other:?}"),
        })
        .collect()
}

#[test]
fn batch_equals_sequential_under_every_policy_and_worker_count() {
    let reference = sequential_reference(&mixed_batch());
    for workers in [1, 2, 8] {
        let mut device = Device::new(DeviceConfig {
            int_arrays: 8,
            float_arrays: 0,
            workers,
            ..DeviceConfig::default()
        });
        let batch = device
            .run_batch(mixed_batch())
            .expect("batch run")
            .into_strict()
            .expect("no task failures");
        assert_eq!(batch.results.len(), reference.len());
        for (r, (value, cycles)) in batch.results.iter().zip(&reference) {
            assert_eq!(&r.value, value, "task {} value at x{workers}", r.id);
            assert_eq!(
                r.stats.cycles, *cycles,
                "task {} cycles at x{workers}",
                r.id
            );
        }
        // Total simulated work is placement-independent too.
        let total: u64 = batch.results.iter().map(|r| r.stats.cycles).sum();
        let expect: u64 = reference.iter().map(|(_, c)| c).sum();
        assert_eq!(total, expect, "x{workers}");
        assert_eq!(batch.report.tasks(), reference.len());
        // No fault injection, no failures: the zero-fault fast path
        // must report pristine recovery counters.
        assert!(
            batch.report.recovery.is_clean(),
            "x{workers}: {:?}",
            batch.report.recovery
        );
    }
}

#[test]
fn preflight_rejects_invalid_tasks_and_the_rest_complete() {
    use gendp::dpax::SimError;
    use gendp::runtime::TaskFailure;

    let mut tasks = mixed_batch();
    tasks.truncate(6);
    // An empty DTW signal can never execute; preflight verification must
    // reject it before it reaches an array.
    tasks.insert(3, Task::dtw(vec![], (0..5).collect()));
    // Nor can a chaining window of no PEs, or one wider than the integer
    // arrays concatenated: the device would build an array that wide.
    tasks.insert(0, chain_window(0));
    tasks.push(chain_window(INT_ARRAYS * PES_PER_ARRAY + 1));
    let mut device = Device::new(DeviceConfig {
        int_arrays: 2,
        float_arrays: 0,
        workers: 2,
        ..DeviceConfig::default()
    });
    let outcome = device.run_batch(tasks).expect("batch run");
    assert_eq!(outcome.completed(), 6);
    assert_eq!(outcome.failed(), 3);
    for rejected in [0, 4, 8] {
        match &outcome.results[rejected] {
            Err(TaskFailure::Sim {
                error: SimError::Verify(report),
                attempts,
            }) => {
                // Rejected up front: zero execution attempts were spent.
                assert_eq!(*attempts, 0, "task {rejected}");
                assert!(report.has_errors(), "task {rejected}");
            }
            other => panic!("task {rejected}: expected a verify rejection, got {other:?}"),
        }
    }
    // The rejections are counted, so the recovery report is not clean.
    assert_eq!(outcome.report.recovery.tasks_failed, 3);
}

/// A two-anchor chaining task over a window of `n_prev` previous anchors.
fn chain_window(n_prev: usize) -> Task {
    let anchor = |rpos| Anchor {
        rpos,
        qpos: rpos - 2,
        span: 15,
    };
    Task::Chain {
        anchors: vec![anchor(10), anchor(40)],
        params: ChainParams {
            n_prev,
            ..ChainParams::minimap2(15.0)
        },
    }
}

#[test]
fn device_report_agrees_with_core_tile_scheduling() {
    let mut device = Device::new(DeviceConfig {
        int_arrays: 4,
        float_arrays: 0,
        workers: 2,
        ..DeviceConfig::default()
    });
    let batch = device
        .run_batch(mixed_batch())
        .expect("batch run")
        .into_strict()
        .expect("no task failures");
    let tile = batch.report.tile_report();
    // The runtime's tile view is built by the same constructor
    // `schedule_tile` uses, so the derived metrics are consistent.
    assert_eq!(tile.tasks, 100);
    assert_eq!(tile.makespan_cycles, batch.report.makespan_cycles());
    assert_eq!(tile.total_cells, batch.report.total_cells());
    assert!(tile.balance() > 0.0 && tile.balance() <= 1.0);
    assert!(batch.report.gcups() > 0.0);
    // Round-robin placement keeps every array busy on 100 tasks.
    assert!(batch.report.arrays.iter().all(|a| a.tasks > 0));
}

#[test]
fn fault_free_device_report_prints_deterministically() {
    // Placement is a function of each task's position in its class, so
    // without faults two devices print the same report whatever order
    // their workers claim the tasks in.
    let report = || {
        let mut device = Device::new(DeviceConfig {
            int_arrays: 4,
            float_arrays: 0,
            workers: 2,
            ..DeviceConfig::default()
        });
        let outcome = device.run_batch(mixed_batch()).expect("batch run");
        assert!(outcome.is_complete());
        outcome.report.to_string()
    };
    assert_eq!(report(), report());
}

#[test]
fn batch_aligner_matches_per_read_pipeline() {
    let mut rng = SmallRng::seed_from_u64(43);
    let genome = Genome::random(600, &mut rng);
    let profile = ShortReadProfile {
        len: 20,
        ..ShortReadProfile::illumina()
    };
    let reads = profile.sample(&genome, 16, &mut rng);
    let aligner = BatchAligner::new(
        genome.clone(),
        Scoring::bwa_mem(),
        DeviceConfig {
            int_arrays: 4,
            float_arrays: 0,
            workers: 4,
            ..DeviceConfig::default()
        },
    );
    let aligned = aligner.align(&reads).expect("batch alignment");
    let scoring = Scoring::bwa_mem();
    for (read, got) in reads.iter().zip(&aligned.scores) {
        let want = read.seq.len() + 8;
        let start = read.true_pos.min(genome.len().saturating_sub(want));
        let window = genome.window(start, want.min(genome.len() - start));
        let out = GendpPipeline::bsw(&scoring)
            .run(&codes(&window), &codes(&read.seq), 4)
            .expect("sequential");
        assert_eq!(*got, bsw_score(&out));
    }
}
