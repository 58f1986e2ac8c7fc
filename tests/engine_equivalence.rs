//! Execution-tier equivalence sweep: for every shipped kernel, the
//! pre-decoded execution engine, the instruction-level interpreter and —
//! where it engages — the functional fast-path tier must be
//! **bit-identical** on functional outputs and agree on every
//! [`RunStats`](gendp::dpax::RunStats) counter (cycles, instruction
//! counts, port/FIFO/SPM traffic). A functional request simulates its
//! first execution and reports that run's statistics for every later one,
//! across a rebind to other content of the same shape too.
//!
//! Task shapes mirror `verify_sweep.rs` so the equivalence evidence
//! covers exactly the program set the verifier acceptance contract
//! covers. Tier selection goes exclusively through
//! [`TierPolicy`](gendp::dpax::TierPolicy); the resolution test at the
//! bottom pins which tier a request runs and the provenance it stamps.

use gendp::core::{pack_halves, pack_lanes, GendpPipeline, Wavefront2d};
use gendp::dpax::{Tier, TierPolicy};
use gendp::kernels::bellman_ford::random_roadmap;
use gendp::kernels::chain::ChainParams;
use gendp::kernels::pairhmm::PairHmmParams;
use gendp::kernels::poa::Poa;
use gendp::kernels::{GapModel, Scoring};
use gendp::seq::{DnaSeq, MutationProfile};
use gendp::{AccelConfig, Accelerator, TaskOutput};
use gendp_core::{BandSpec, BellmanFordTask, ChainTask, PoaTask, WavefrontTask};
use rand::{rngs::SmallRng, Rng, SeedableRng};

fn codes(s: &DnaSeq) -> Vec<i32> {
    s.codes().iter().map(|&c| c as i32).collect()
}

fn convex_scoring() -> Scoring {
    Scoring {
        matches: 1,
        mismatch: 4,
        gap: GapModel::Convex {
            open1: 4,
            extend1: 2,
            open2: 14,
            extend2: 1,
        },
    }
}

fn with_tiers<A: Accelerator>(accel: A, tiers: TierPolicy) -> A {
    accel.configure(AccelConfig::new().tiers(tiers))
}

/// Runs one task on every execution tier through the unified
/// [`Accelerator`] lifecycle and asserts bit-identical outputs and
/// statistics: decoded vs. interpreted, then a functional request vs. the
/// prepared decoded reference — its first run simulated, later runs on
/// the functional tier when the driver lowers one — and finally the same
/// prepared task bound to `other`, of the same shape where the driver's
/// programs depend on the shape alone.
fn assert_tiers_agree<A, F>(
    name: &str,
    build: F,
    task: &A::Task<'_>,
    other: &A::Task<'_>,
    expect_functional: bool,
) where
    A: Accelerator,
    A::Output: std::fmt::Debug + PartialEq,
    F: Fn() -> A,
{
    let decoded = with_tiers(build(), TierPolicy::decoded())
        .run_task(task)
        .unwrap_or_else(|e| panic!("{name} (decoded): {e}"));
    let interpreted = with_tiers(build(), TierPolicy::interpreted())
        .run_task(task)
        .unwrap_or_else(|e| panic!("{name} (interpreted): {e}"));
    assert_eq!(decoded, interpreted, "{name}: functional outputs diverge");
    assert_eq!(
        decoded.stats(),
        interpreted.stats(),
        "{name}: statistics diverge"
    );
    assert_eq!(
        decoded.stats().tier,
        Tier::Decoded,
        "{name}: decoded provenance"
    );
    assert_eq!(
        interpreted.stats().tier,
        Tier::Interpreted,
        "{name}: interpreted provenance"
    );

    // Prepared decoded reference: the output words the functional tier
    // must reproduce bit-exactly.
    let mut reference = Accelerator::prepare(&with_tiers(build(), TierPolicy::default()), task);
    let ref_stats = reference
        .execute()
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let ref_out = reference.output().to_vec();

    // A fresh functional request simulates first. Drivers without a
    // functional lowering keep running decoded.
    let accel = with_tiers(build(), TierPolicy::functional());
    let mut func = Accelerator::prepare(&accel, task);
    let later = if expect_functional {
        Tier::Functional
    } else {
        Tier::Decoded
    };
    for (run, tier) in [(0, Tier::Decoded), (1, later), (2, later)] {
        let stats = func
            .execute()
            .unwrap_or_else(|e| panic!("{name} (functional request): {e}"));
        assert_eq!(stats.tier, tier, "{name}: provenance of run {run}");
        // Equality covers every field but the tier.
        assert_eq!(stats, ref_stats, "{name}: statistics of run {run} diverge");
        assert_eq!(
            func.output(),
            &ref_out[..],
            "{name}: output words of run {run} diverge from decoded"
        );
    }
    assert_eq!(func.resolved_tier(), later, "{name}: resolved tier");

    // Rebound to other content of the same shape: the kept statistics
    // still hold, and the output follows the new content.
    let expect = with_tiers(build(), TierPolicy::decoded())
        .run_task(other)
        .unwrap_or_else(|e| panic!("{name} (decoded, other): {e}"));
    accel.bind(&mut func, other);
    for _ in 0..2 {
        let stats = func
            .execute()
            .unwrap_or_else(|e| panic!("{name} (functional request, other): {e}"));
        assert_eq!(stats.tier, later, "{name}: provenance after bind");
        let rebound = accel.parse(other, &func, stats);
        // Outputs and statistics: the kept statistics must equal a
        // simulation of the other content.
        assert_eq!(rebound, expect, "{name}: rebound run diverges from decoded");
    }
}

fn wavefront_case(name: &str, build: impl Fn() -> Wavefront2d, rows: &[i32], cols: &[i32]) {
    banded_case(name, build, rows, cols, None);
}

/// One table, rebound to the same shape with rows and columns reversed.
fn banded_case(
    name: &str,
    build: impl Fn() -> Wavefront2d,
    rows: &[i32],
    cols: &[i32],
    band: Option<BandSpec>,
) {
    let task = |rows, cols| WavefrontTask {
        rows,
        cols,
        n_pes: 4,
        band,
    };
    let reversed = |xs: &[i32]| xs.iter().rev().copied().collect::<Vec<_>>();
    let (rows2, cols2) = (reversed(rows), reversed(cols));
    assert_tiers_agree(name, build, &task(rows, cols), &task(&rows2, &cols2), true);
}

/// Every wavefront kernel (BSW family, PairHMM, DTW, LCS): decoded ==
/// interpreted == functional, outputs and stats.
#[test]
fn wavefront_kernels_tier_equivalent() {
    let mut rng = SmallRng::seed_from_u64(71);
    let scoring = Scoring::bwa_mem();
    let t = DnaSeq::random(24, &mut rng);
    let q = MutationProfile::illumina().apply(&t.window(2, 18), &mut rng);
    let (rows, cols) = (codes(&t), codes(&q));

    wavefront_case("bsw", || GendpPipeline::bsw(&scoring), &rows, &cols);
    wavefront_case(
        "bsw_global",
        || GendpPipeline::bsw_global(&scoring),
        &rows,
        &cols,
    );
    wavefront_case(
        "bsw_semiglobal",
        || GendpPipeline::bsw_semiglobal(&scoring, cols.len()),
        &rows,
        &cols,
    );
    wavefront_case(
        "bsw_convex",
        || GendpPipeline::bsw_convex(&convex_scoring()),
        &rows,
        &cols,
    );
    wavefront_case(
        "pairhmm",
        || GendpPipeline::pairhmm(&PairHmmParams::gatk(), 30, 1024, rows.len()),
        &rows,
        &cols,
    );
    wavefront_case(
        "pairhmm_float",
        || GendpPipeline::pairhmm_float(&PairHmmParams::gatk(), 30, rows.len()),
        &rows,
        &cols,
    );
    wavefront_case("lcs", GendpPipeline::lcs, &rows, &cols);

    let xs: Vec<i32> = (0..15).map(|_| rng.gen_range(0..200)).collect();
    let ys: Vec<i32> = (0..12).map(|_| rng.gen_range(0..200)).collect();
    wavefront_case("dtw", GendpPipeline::dtw, &xs, &ys);
    let band = BandSpec {
        width: 5,
        sentinel: 1 << 20,
    };
    let build = || GendpPipeline::dtw_banded(xs.len());
    banded_case("dtw_banded", build, &ys, &xs, Some(band));

    let lanes: Vec<Vec<u8>> = (0..4)
        .map(|_| DnaSeq::random(16, &mut rng).codes())
        .collect();
    let rows8 = pack_lanes([&lanes[0], &lanes[1], &lanes[2], &lanes[3]]);
    let cols8 = pack_lanes([&lanes[1], &lanes[2], &lanes[3], &lanes[0]]);
    wavefront_case(
        "bsw_simd",
        || GendpPipeline::bsw_simd(&scoring),
        &rows8,
        &cols8,
    );
    let h0: Vec<i16> = lanes[0].iter().map(|&c| c as i16).collect();
    let h1: Vec<i16> = lanes[1].iter().map(|&c| c as i16).collect();
    let rows16 = pack_halves([&h0, &h1]);
    let cols16 = pack_halves([&h1, &h0]);
    wavefront_case(
        "bsw_simd16",
        || GendpPipeline::bsw_simd16(&scoring),
        &rows16,
        &cols16,
    );
}

/// Chain, POA and Bellman-Ford: decoded == interpreted on their own
/// drivers (FIFO broadcast, graph-structured flow, scratchpad
/// residency). These patterns have no functional lowering yet, so a
/// functional request runs decoded, bit-identically.
#[test]
fn chain_poa_bellman_ford_tier_equivalent() {
    let mut rng = SmallRng::seed_from_u64(72);
    let n_pes = 8;
    let params = ChainParams {
        n_prev: n_pes,
        ..ChainParams::minimap2(15.0)
    };
    // Sorted synthetic anchors, the shape `verify_sweep` sizes for.
    let mut anchors = || -> Vec<gendp::seq::Anchor> {
        let mut pos = 0;
        let mut anchors: Vec<_> = (0..30)
            .map(|_| {
                pos += rng.gen_range(1..6);
                gendp::seq::Anchor {
                    qpos: pos,
                    rpos: pos + rng.gen_range(0..3),
                    span: 15,
                }
            })
            .collect();
        anchors.sort();
        anchors
    };
    let (a, b) = (anchors(), anchors());
    let chain_task = |anchors| ChainTask { anchors, n_pes };
    assert_tiers_agree(
        "chain",
        || GendpPipeline::chain(params),
        &chain_task(&a),
        &chain_task(&b),
        false,
    );

    // POA and Bellman-Ford programs follow the graph, so `bind` prepares
    // afresh; the rebound task may have any shape.
    let truth = DnaSeq::random(30, &mut rng);
    let mut poa = Poa::new();
    poa.add_sequence(&truth, &Scoring::racon());
    poa.add_sequence(
        &MutationProfile::nanopore().apply(&truth, &mut rng),
        &Scoring::racon(),
    );
    let probes = [(); 2].map(|_| MutationProfile::nanopore().apply(&truth, &mut rng));
    let poa_task = |seq| PoaTask {
        graph: &poa,
        seq,
        n_pes: 4,
    };
    assert_tiers_agree(
        "poa",
        || GendpPipeline::poa(Scoring::racon()),
        &poa_task(&probes[0]),
        &poa_task(&probes[1]),
        false,
    );

    let g = random_roadmap(20, 2, 5, &mut rng);
    let bf_task = |source| BellmanFordTask {
        graph: &g,
        source,
        rounds: g.vertex_count() - 1,
    };
    assert_tiers_agree(
        "bellman_ford",
        GendpPipeline::bellman_ford,
        &bf_task(0),
        &bf_task(1),
        false,
    );
}

/// Tier resolution: each request runs the tier it names where that tier
/// can run, a functional request without a lowering runs decoded, and
/// every run stamps the tier that actually executed.
#[test]
fn tier_policy_resolution_and_provenance() {
    let scoring = Scoring::bwa_mem();
    let mut rng = SmallRng::seed_from_u64(73);
    let t = DnaSeq::random(16, &mut rng);
    let q = DnaSeq::random(12, &mut rng);
    let (rows, cols) = (codes(&t), codes(&q));
    let task = WavefrontTask {
        rows: &rows,
        cols: &cols,
        n_pes: 4,
        band: None,
    };

    // Functional requested on a wavefront kernel: the first run
    // simulates, then the tier engages and reports that run's statistics.
    let accel = with_tiers(GendpPipeline::bsw(&scoring), TierPolicy::functional());
    let mut prep = Accelerator::prepare(&accel, &task);
    assert_eq!(prep.resolved_tier(), Tier::Decoded);
    let first = prep.execute().expect("first execution");
    assert_eq!(first.tier, Tier::Decoded);
    assert_eq!(prep.resolved_tier(), Tier::Functional);
    let stats = prep.execute().expect("functional execution");
    assert_eq!(stats.tier, Tier::Functional);
    assert_eq!(
        stats, first,
        "functional runs report the simulated statistics"
    );

    // The default requests, and runs, the decoded tier.
    let mut prep = Accelerator::prepare(
        &with_tiers(GendpPipeline::bsw(&scoring), TierPolicy::default()),
        &task,
    );
    let stats = prep.execute().expect("decoded execution");
    assert_eq!(prep.resolved_tier(), Tier::Decoded);
    assert_eq!(stats.tier, Tier::Decoded);

    // Interpreted is honoured as requested.
    let accel = with_tiers(GendpPipeline::bsw(&scoring), TierPolicy::interpreted());
    let mut prep = Accelerator::prepare(&accel, &task);
    let stats = prep.execute().expect("interpreted execution");
    assert_eq!(prep.resolved_tier(), Tier::Interpreted);
    assert_eq!(stats.tier, Tier::Interpreted);

    // Functional on a driver with no functional lowering runs decoded and
    // says so.
    let chain_params = ChainParams::minimap2(15.0);
    let anchors = [gendp::seq::Anchor {
        qpos: 5,
        rpos: 6,
        span: 15,
    }];
    let chain_task = ChainTask {
        anchors: &anchors,
        n_pes: 4,
    };
    let accel = with_tiers(GendpPipeline::chain(chain_params), TierPolicy::functional());
    let mut prep = Accelerator::prepare(&accel, &chain_task);
    assert_eq!(prep.resolved_tier(), Tier::Decoded);
    let stats = prep
        .execute()
        .expect("functional request on chain runs decoded");
    assert_eq!(stats.tier, Tier::Decoded);
}
