//! Content independence, the property the device template caches rely
//! on: two tasks of the same shape — same driver configuration, table
//! dimensions, array width and band — get identical control programs on
//! every PE and identical certificates, and binding one task's content
//! into the other's prepared task reproduces the first task's own run.

use gendp::core::{
    pack_halves, pack_lanes, Accelerator, BandSpec, ChainTask, GendpPipeline, PreparedTask,
    Wavefront2d, WavefrontTask,
};
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

/// Asserts the two prepared tasks share their programs and certificate,
/// and that binding `b` into `a` reproduces `b`'s own execution.
fn check_same_shape<A: Accelerator>(
    label: &str,
    accel: &A,
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

    let own = prep_b.execute().expect("own run");
    accel.bind(&mut prep_a, b);
    let bound = prep_a.execute().expect("bound run");
    prop_assert_eq!(&own, &bound, "{}: bound stats differ", label);
    prop_assert_eq!(
        prep_b.output(),
        prep_a.output(),
        "{}: bound output differs",
        label
    );
    Ok(())
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
        for (kind, accel) in wavefront_drivers(n) {
            let rows = content(kind, m, &mut rng);
            let cols = content(kind, n, &mut rng);
            let (rows2, cols2) = (other(&rows), other(&cols));
            let task = |rows, cols| WavefrontTask { rows, cols, n_pes, band: None };
            check_same_shape(kind, &accel, &task(&rows, &cols), &task(&rows2, &cols2))?;
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
        let rows = content("dtw-banded", m, &mut rng);
        let cols = content("dtw-banded", n, &mut rng);
        let (rows2, cols2) = (other(&rows), other(&cols));
        let band = Some(BandSpec { width, sentinel: 1 << 20 });
        let task = |rows, cols| WavefrontTask { rows, cols, n_pes, band };
        check_same_shape("dtw-banded", &accel, &task(&rows, &cols), &task(&rows2, &cols2))?;
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
        let accel = GendpPipeline::chain(ChainParams { n_prev: n_pes, ..ChainParams::minimap2(15.0) });
        check_same_shape(
            "chain",
            &accel,
            &ChainTask { anchors: &a, n_pes },
            &ChainTask { anchors: &b, n_pes },
        )?;
    }
}
