//! The device's per-worker template caches: a kept template serves a
//! same-shape task exactly as a one-shot `Task::execute_configured` would,
//! every distinct shape gets its own template, the counters follow the
//! batches, and the resident control instructions never exceed the bound.

use gendp::core::{AccelConfig, GendpPipeline};
use gendp::dpax::TierPolicy;
use gendp::kernels::bellman_ford::Graph;
use gendp::kernels::chain::ChainParams;
use gendp::kernels::pairhmm::PairHmmParams;
use gendp::kernels::poa::Poa;
use gendp::kernels::{AlignMode, Scoring};
use gendp::runtime::{
    silence_injected_panics, Device, DeviceConfig, FaultConfig, RetryPolicy, Task, TaskFailure,
    TemplateStats, TEMPLATE_BUDGET,
};
use gendp::seq::{Anchor, DnaSeq};
use rand::{rngs::SmallRng, Rng, SeedableRng};

const N_PES: usize = 4;

fn seq(rng: &mut SmallRng, len: usize) -> DnaSeq {
    DnaSeq::random(len, rng)
}

fn signal(rng: &mut SmallRng, len: usize) -> Vec<i32> {
    (0..len).map(|_| rng.gen_range(0..200)).collect()
}

fn anchors(rng: &mut SmallRng, count: usize) -> Vec<Anchor> {
    let mut rpos = 0;
    (0..count)
        .map(|_| {
            rpos += rng.gen_range(5..40);
            Anchor {
                rpos,
                qpos: rpos - rng.gen_range(0..5),
                span: 15,
            }
        })
        .collect()
}

/// Shape families, each a distinct template. Several share dimensions
/// and differ only in a parameter the programs or their compute constants
/// depend on: BSW scoring and mode, the semi-global query length (the
/// transposed table), PairHMM transitions, and a chaining parameter
/// other than the window.
const FAMILIES: usize = 15;

fn family_task(rng: &mut SmallRng, family: usize) -> Task {
    let bsw = |rng: &mut SmallRng, q, t, scoring, mode| Task::Bsw {
        query: seq(rng, q),
        target: seq(rng, t),
        scoring,
        mode,
    };
    let hmm = |rng: &mut SmallRng, params| Task::PairHmm {
        read: seq(rng, 6),
        haplotype: seq(rng, 8),
        qual: 30,
        scale: 1024,
        params,
    };
    let chain = |rng: &mut SmallRng, params| Task::Chain {
        anchors: anchors(rng, 9),
        params,
    };
    let window = ChainParams {
        n_prev: 4,
        ..ChainParams::minimap2(15.0)
    };
    let affine = Scoring::bwa_mem();
    match family {
        0 => bsw(rng, 9, 7, affine, AlignMode::Local),
        1 => bsw(
            rng,
            9,
            7,
            Scoring {
                matches: 2,
                ..affine
            },
            AlignMode::Local,
        ),
        2 => bsw(rng, 9, 7, affine, AlignMode::Global),
        3 => bsw(rng, 9, 7, affine, AlignMode::SemiGlobal),
        4 => bsw(rng, 7, 9, affine, AlignMode::SemiGlobal),
        5 => Task::bsw_simd((0..4).map(|_| (seq(rng, 6), seq(rng, 6))).collect(), affine),
        6 => hmm(rng, PairHmmParams::gatk()),
        7 => hmm(
            rng,
            PairHmmParams {
                gap_open: 1e-3,
                ..PairHmmParams::gatk()
            },
        ),
        8 => Task::PairHmmFloat {
            read: seq(rng, 5),
            haplotype: seq(rng, 7),
            qual: 30,
            params: PairHmmParams::gatk(),
        },
        9 => Task::dtw(signal(rng, 6), signal(rng, 7)),
        10 => Task::DtwBanded {
            xs: signal(rng, 8),
            ys: signal(rng, 10),
            width: 4,
        },
        11 => chain(rng, window),
        12 => chain(
            rng,
            ChainParams {
                max_dist: 60,
                ..window
            },
        ),
        // Programs that follow the graph: never templated.
        13 => {
            let mut graph = Poa::new();
            graph.add_sequence(&seq(rng, 8), &Scoring::racon());
            Task::Poa {
                graph,
                probe: seq(rng, 8),
                scoring: Scoring::racon(),
            }
        }
        _ => {
            let mut graph = Graph::new(6);
            for v in 0..5 {
                graph.add_edge(v, v + 1, rng.gen_range(1..9));
            }
            Task::BellmanFord {
                graph,
                source: 0,
                rounds: 3,
            }
        }
    }
}

/// Families with a template (all but POA and Bellman-Ford).
const TEMPLATED: usize = FAMILIES - 2;

/// `per_family` tasks of every family, interleaved, fresh content each.
fn stream(seed: u64, per_family: usize) -> Vec<Task> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..per_family * FAMILIES)
        .map(|i| family_task(&mut rng, i % FAMILIES))
        .collect()
}

fn device(workers: usize, tiers: TierPolicy) -> Device {
    Device::new(DeviceConfig {
        int_arrays: 8,
        float_arrays: 1,
        pes_per_array: N_PES,
        workers,
        tiers,
        ..DeviceConfig::default()
    })
}

#[test]
fn same_shape_streams_match_one_shot_on_every_tier_and_worker_count() {
    for tiers in [
        TierPolicy::decoded(),
        TierPolicy::functional(),
        TierPolicy::interpreted(),
    ] {
        let cfg = AccelConfig::new().tiers(tiers);
        let batches = [stream(1, 2), stream(2, 3)];
        let reference: Vec<Vec<_>> = batches
            .iter()
            .map(|tasks| {
                tasks
                    .iter()
                    .map(|t| t.execute_configured(N_PES, cfg).expect("one-shot run"))
                    .collect()
            })
            .collect();
        for workers in [1, 2, 8] {
            let mut device = device(workers, tiers);
            for (tasks, want) in batches.iter().zip(&reference) {
                let run = device
                    .run_batch(tasks.clone())
                    .expect("batch")
                    .into_strict()
                    .expect("every task completes");
                for (i, (got, (value, stats))) in run.results.iter().zip(want).enumerate() {
                    let at = format!("{tiers:?}, {workers} workers, task {i}");
                    assert_eq!(&got.value, value, "{at}");
                    assert_eq!(&got.stats, stats, "{at}");
                }
            }
            let t = device.snapshot().templates;
            assert_eq!(
                t.hits + t.misses,
                (5 * TEMPLATED) as u64,
                "every templated task is a hit or a miss ({tiers:?}, {workers} workers)"
            );
            if workers == 1 {
                // One worker sees every task: one template per shape.
                assert_eq!(t.misses, TEMPLATED as u64, "{tiers:?}");
                assert_eq!(t.evictions, 0);
            }
        }
    }
}

/// The control instructions a local-BSW template keeps resident.
fn bsw_insts(query: usize, target: usize) -> u64 {
    let (rows, cols) = (vec![0; target], vec![0; query]);
    GendpPipeline::bsw(&Scoring::bwa_mem())
        .prepare(&rows, &cols, N_PES)
        .control_len() as u64
}

#[test]
fn template_counters_follow_a_known_batch_sequence() {
    let mut rng = SmallRng::seed_from_u64(5);
    let mut bsw = |q, t| Task::bsw_local(seq(&mut rng, q), seq(&mut rng, t), Scoring::bwa_mem());
    let first = vec![bsw(10, 12), bsw(10, 12), bsw(8, 8)];
    let second = vec![bsw(8, 8), bsw(10, 12), bsw(12, 10)];
    let mut device = device(1, TierPolicy::default());
    assert_eq!(device.snapshot().templates, TemplateStats::default());

    let outcome = device.run_batch(first).expect("batch");
    assert!(outcome.is_complete());
    assert_eq!(
        device.snapshot().templates,
        TemplateStats {
            hits: 1,
            misses: 2,
            evictions: 0,
            resident_insts: bsw_insts(10, 12) + bsw_insts(8, 8),
        }
    );

    // Templates outlive the batch that made them.
    let outcome = device.run_batch(second).expect("batch");
    assert!(outcome.is_complete());
    assert_eq!(
        device.snapshot().templates,
        TemplateStats {
            hits: 3,
            misses: 3,
            evictions: 0,
            resident_insts: bsw_insts(10, 12) + bsw_insts(8, 8) + bsw_insts(12, 10),
        }
    );
}

#[test]
fn distinct_large_shapes_never_exceed_the_bound() {
    for workers in [1, 2] {
        let mut device = Device::new(DeviceConfig {
            int_arrays: 2,
            float_arrays: 0,
            pes_per_array: N_PES,
            workers,
            tiers: TierPolicy::functional(),
            ..DeviceConfig::default()
        });
        let mut rng = SmallRng::seed_from_u64(6);
        for k in 0..6 {
            let task = Task::bsw_local(
                seq(&mut rng, 96),
                seq(&mut rng, 90 + 4 * k),
                Scoring::bwa_mem(),
            );
            let outcome = device.run_batch(vec![task.clone(), task]).expect("batch");
            assert!(outcome.is_complete());
            let t = device.snapshot().templates;
            assert!(
                t.resident_insts <= TEMPLATE_BUDGET as u64,
                "{} resident instructions exceed the bound ({workers} workers)",
                t.resident_insts
            );
        }
        let t = device.snapshot().templates;
        assert!(t.evictions > 0, "six ~110k-instruction shapes must evict");
        if workers == 1 {
            assert_eq!(
                t.hits, 6,
                "each batch's second task reuses the first's template"
            );
        }
    }
}

#[test]
fn timeout_retries_hit_the_template_and_still_match() {
    let fault = FaultConfig {
        timeout_ppm: 300_000,
        ..FaultConfig::disabled(12)
    };
    let mut device = Device::new(DeviceConfig {
        int_arrays: 2,
        float_arrays: 1,
        pes_per_array: N_PES,
        workers: 1,
        retry: RetryPolicy {
            max_attempts: 12,
            ..RetryPolicy::default()
        },
        fault: Some(fault),
        ..DeviceConfig::default()
    });
    let tasks = stream(3, 3);
    let outcome = device.run_batch(tasks.clone()).expect("batch");
    assert!(outcome.is_complete(), "{} failed", outcome.failed());
    assert!(outcome.report.recovery.budget_escalations > 0);
    for (got, task) in outcome.ok_results().zip(&tasks) {
        let (value, stats) = task.execute(N_PES).expect("one-shot run");
        assert_eq!(got.value, value);
        assert_eq!(got.stats, stats);
    }
    assert!(device.snapshot().templates.hits > 0);
}

#[test]
fn a_template_whose_attempt_panicked_is_not_reused() {
    silence_injected_panics();
    let params = ChainParams {
        n_prev: 4,
        ..ChainParams::minimap2(15.0)
    };
    let mut rng = SmallRng::seed_from_u64(8);
    let sorted = |rng: &mut SmallRng| Task::Chain {
        anchors: anchors(rng, 9),
        params,
    };
    let mut reversed = anchors(&mut rng, 9);
    reversed.reverse();
    // Same shape as the others, but binding unsorted anchors panics.
    let unsorted = Task::Chain {
        anchors: reversed,
        params,
    };
    let tasks = vec![sorted(&mut rng), unsorted, sorted(&mut rng)];
    let mut device = Device::new(DeviceConfig {
        int_arrays: 1,
        float_arrays: 0,
        pes_per_array: N_PES,
        workers: 1,
        retry: RetryPolicy::no_retry(),
        ..DeviceConfig::default()
    });
    let outcome = device.run_batch(tasks.clone()).expect("batch");
    assert!(matches!(
        outcome.results[1],
        Err(TaskFailure::Panicked { .. })
    ));
    for i in [0, 2] {
        let got = outcome.results[i].as_ref().expect("sorted anchors run");
        assert_eq!(got.value, tasks[i].execute(N_PES).expect("one-shot").0);
    }
    let t = device.snapshot().templates;
    assert_eq!((t.hits, t.misses), (1, 2), "the third task prepares afresh");
}
