//! Content independence, the property the device template caches rely
//! on: two tasks of the same shape — same driver configuration, table
//! dimensions, array width and band — get identical control programs on
//! every PE and identical certificates, their runs report identical
//! statistics, and binding one task's content into the other's prepared
//! task reproduces that task's own run. The functional tier, run on the
//! same random shapes, reproduces each decoded run word for word.

use gendp::core::{
    pack_halves, pack_lanes, AccelConfig, Accelerator, BandSpec, ChainTask, GendpPipeline,
    PreparedTask, Wavefront2d, WavefrontTask,
};
use gendp::dpax::{Tier, TierPolicy};
use gendp::kernels::chain::ChainParams;
use gendp::kernels::pairhmm::PairHmmParams;
use gendp::kernels::{GapModel, Scoring};
use gendp::seq::Anchor;
use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// Every wavefront constructor of `GendpPipeline`, built for a table with
/// `n` columns (the semi-global, PairHMM and banded-DTW drivers take it).
fn wavefront_drivers(n: usize) -> Vec<(&'static str, Wavefront2d)> {
    let affine = Scoring::bwa_mem();
    let convex = Scoring {
        gap: GapModel::Convex {
            open1: 4,
            extend1: 2,
            open2: 13,
            extend2: 1,
        },
        ..affine
    };
    let hmm = PairHmmParams::gatk();
    vec![
        ("bsw", GendpPipeline::bsw(&affine)),
        ("bsw-global", GendpPipeline::bsw_global(&affine)),
        ("bsw-semiglobal", GendpPipeline::bsw_semiglobal(&affine, n)),
        ("bsw-convex", GendpPipeline::bsw_convex(&convex)),
        ("bsw-simd", GendpPipeline::bsw_simd(&affine)),
        ("bsw-simd16", GendpPipeline::bsw_simd16(&affine)),
        ("pairhmm", GendpPipeline::pairhmm(&hmm, 30, 256, n)),
        ("pairhmm-f32", GendpPipeline::pairhmm_float(&hmm, 30, n)),
        ("dtw", GendpPipeline::dtw()),
        ("lcs", GendpPipeline::lcs()),
    ]
}

/// Row or column content for one driver: base codes, SIMD-packed codes
/// (four 8-bit or two 16-bit lanes), or DTW samples.
fn content(kind: &str, len: usize, rng: &mut SmallRng) -> Vec<i32> {
    let codes = |rng: &mut SmallRng| -> Vec<u8> { (0..len).map(|_| rng.gen_range(0..4)).collect() };
    match kind {
        "bsw-simd" => {
            let lanes: Vec<Vec<u8>> = (0..4).map(|_| codes(rng)).collect();
            pack_lanes([&lanes[0], &lanes[1], &lanes[2], &lanes[3]])
        }
        "bsw-simd16" => {
            let halves: Vec<Vec<i16>> = (0..2)
                .map(|_| codes(rng).into_iter().map(i16::from).collect())
                .collect();
            pack_halves([&halves[0], &halves[1]])
        }
        "dtw" | "dtw-banded" => (0..len).map(|_| rng.gen_range(0..1000)).collect(),
        _ => codes(rng).into_iter().map(i32::from).collect(),
    }
}

/// Content of the same shape that differs from `xs` in every position.
fn other(xs: &[i32]) -> Vec<i32> {
    xs.iter().map(|&x| (x + 1) % 4 + (x & !3)).collect()
}

/// Asserts the two prepared tasks share their programs, certificate and
/// run statistics, and that binding `b` into `a` reproduces `b`'s own
/// execution. Then runs `functional`, the same driver configured for the
/// functional tier, on both contents: its first run simulates, its later
/// runs are on `later`, and every run gives the decoded run's output
/// words and statistics (all but the tier).
fn check_same_shape<A: Accelerator>(
    label: &str,
    accel: &A,
    functional: &A,
    later: Tier,
    a: &A::Task<'_>,
    b: &A::Task<'_>,
) -> Result<(), TestCaseError> {
    let mut prep_a: PreparedTask = accel.prepare(a);
    let mut prep_b = accel.prepare(b);
    let programs_a: Vec<_> = prep_a.control_programs().cloned().collect();
    let programs_b: Vec<_> = prep_b.control_programs().cloned().collect();
    prop_assert_eq!(programs_a.len(), programs_b.len());
    for (pe, (pa, pb)) in programs_a.iter().zip(&programs_b).enumerate() {
        prop_assert!(
            pa == pb,
            "{}: PE {} programs differ between contents",
            label,
            pe
        );
    }
    prop_assert!(
        prep_a.certificate().is_some(),
        "{}: programs certify",
        label
    );
    prop_assert_eq!(prep_a.certificate(), prep_b.certificate(), "{}", label);

    // Statistics are a fact of the shape: the functional tier reports a
    // shape's first simulated run for every later task of it.
    let own_a = prep_a.execute().expect("own run of a");
    let out_a = prep_a.output().to_vec();
    let own = prep_b.execute().expect("own run");
    prop_assert_eq!(&own_a, &own, "{}: same-shape stats differ", label);
    accel.bind(&mut prep_a, b);
    let bound = prep_a.execute().expect("bound run");
    prop_assert_eq!(&own, &bound, "{}: bound stats differ", label);
    prop_assert_eq!(
        prep_b.output(),
        prep_a.output(),
        "{}: bound output differs",
        label
    );

    let mut func = functional.prepare(a);
    let runs = [
        (Tier::Decoded, &own_a, &out_a[..]),
        (later, &own_a, &out_a[..]),
        (later, &own, prep_b.output()),
    ];
    for (run, (tier, stats, words)) in runs.into_iter().enumerate() {
        if run == 2 {
            functional.bind(&mut func, b);
        }
        let got = func.execute().expect("functional request");
        prop_assert_eq!(got.tier, tier, "{}: tier of run {}", label, run);
        // Equality covers every field but the tier.
        prop_assert_eq!(&got, stats, "{}: stats of run {} differ", label, run);
        prop_assert_eq!(
            func.output(),
            words,
            "{}: words of run {} differ",
            label,
            run
        );
    }
    Ok(())
}

/// `accel` configured for the functional tier.
fn functional<A: Accelerator>(accel: A) -> A {
    accel.configure(AccelConfig::new().tiers(TierPolicy::functional()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every 2-D wavefront constructor, full tables.
    #[test]
    fn wavefront_programs_depend_only_on_shape(
        m in 1usize..12,
        n in 1usize..12,
        n_pes in 1usize..6,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let drivers = wavefront_drivers(n).into_iter().zip(wavefront_drivers(n));
        for ((kind, accel), (_, func)) in drivers {
            let rows = content(kind, m, &mut rng);
            let cols = content(kind, n, &mut rng);
            let (rows2, cols2) = (other(&rows), other(&cols));
            let task = |rows, cols| WavefrontTask { rows, cols, n_pes, band: None };
            let (a, b) = (task(&rows, &cols), task(&rows2, &cols2));
            check_same_shape(kind, &accel, &functional(func), Tier::Functional, &a, &b)?;
        }
    }

    /// Banded DTW: row characters and the band's column windows.
    #[test]
    fn banded_programs_depend_only_on_shape(
        m in 1usize..14,
        width in 1usize..7,
        offset in 0usize..7,
        n_pes in 1usize..6,
        seed in any::<u64>(),
    ) {
        let n = m + offset % width;
        let mut rng = SmallRng::seed_from_u64(seed);
        let accel = GendpPipeline::dtw_banded(n);
        let func = functional(GendpPipeline::dtw_banded(n));
        let rows = content("dtw-banded", m, &mut rng);
        let cols = content("dtw-banded", n, &mut rng);
        let (rows2, cols2) = (other(&rows), other(&cols));
        let band = Some(BandSpec { width, sentinel: 1 << 20 });
        let task = |rows, cols| WavefrontTask { rows, cols, n_pes, band };
        let (a, b) = (task(&rows, &cols), task(&rows2, &cols2));
        check_same_shape("dtw-banded", &accel, &func, Tier::Functional, &a, &b)?;
    }

    /// Chaining: the anchors stream in; the programs see only their count.
    #[test]
    fn chain_programs_depend_only_on_shape(
        count in 1usize..24,
        n_pes in 1usize..8,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut anchors = || {
            let mut rpos = 0;
            (0..count)
                .map(|_| {
                    rpos += rng.gen_range(1..60);
                    Anchor { rpos, qpos: rpos - rng.gen_range(0..8), span: 15 }
                })
                .collect::<Vec<_>>()
        };
        let (a, b) = (anchors(), anchors());
        let params = ChainParams { n_prev: n_pes, ..ChainParams::minimap2(15.0) };
        // Chaining has no functional lowering: a functional request runs
        // decoded throughout.
        check_same_shape(
            "chain",
            &GendpPipeline::chain(params),
            &functional(GendpPipeline::chain(params)),
            Tier::Decoded,
            &ChainTask { anchors: &a, n_pes },
            &ChainTask { anchors: &b, n_pes },
        )?;
    }
}
