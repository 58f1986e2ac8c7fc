//! Alignment-mode coverage (paper §7.6.3): the accelerator supports
//! local, global and semi-global string matching with linear, affine and
//! convex gap scoring. Each mode runs end-to-end against its reference.

use gendp::core::{bsw_score, bsw_semiglobal_score, GendpPipeline};
use gendp::kernels::{align, bsw_i32, AlignMode, GapModel, Scoring};
use gendp::seq::{DnaSeq, Genome, MutationProfile};
use rand::{rngs::SmallRng, Rng, SeedableRng};

fn codes(s: &DnaSeq) -> Vec<i32> {
    s.codes().iter().map(|&c| c as i32).collect()
}

#[test]
fn global_mode_matches_reference() {
    let mut rng = SmallRng::seed_from_u64(301);
    let scoring = Scoring::bwa_mem();
    let accel = GendpPipeline::bsw_global(&scoring);
    for _ in 0..6 {
        let g = Genome::random(100, &mut rng);
        let t = g.window(0, rng.gen_range(4..30));
        let q = MutationProfile::pacbio().apply(&g.window(0, rng.gen_range(4..30)), &mut rng);
        if q.is_empty() {
            continue;
        }
        let out = accel.run(&codes(&t), &codes(&q), 4).expect("simulation");
        let got = *out.last_row["h"].last().expect("corner cell");
        let expect = bsw_i32(&q, &t, &scoring, 1000, AlignMode::Global);
        assert_eq!(got, expect.score, "q={q} t={t}");
    }
}

#[test]
fn global_mode_various_array_sizes() {
    let mut rng = SmallRng::seed_from_u64(302);
    let scoring = Scoring::bwa_mem();
    let t = DnaSeq::random(11, &mut rng);
    let q = DnaSeq::random(9, &mut rng);
    let expect = bsw_i32(&q, &t, &scoring, 1000, AlignMode::Global);
    for n_pes in [1, 2, 4, 8] {
        let accel = GendpPipeline::bsw_global(&scoring);
        let out = accel
            .run(&codes(&t), &codes(&q), n_pes)
            .expect("simulation");
        assert_eq!(
            *out.last_row["h"].last().unwrap(),
            expect.score,
            "n_pes {n_pes}"
        );
    }
}

#[test]
fn semiglobal_mode_matches_reference() {
    let mut rng = SmallRng::seed_from_u64(303);
    let scoring = Scoring::bwa_mem();
    for _ in 0..6 {
        let g = Genome::random(100, &mut rng);
        let t = g.window(0, rng.gen_range(6..40));
        let q = g.window(rng.gen_range(0..10), rng.gen_range(4..20));
        let accel = GendpPipeline::bsw_semiglobal(&scoring, q.len());
        let out = accel.run(&codes(&t), &codes(&q), 4).expect("simulation");
        let expect = bsw_i32(&q, &t, &scoring, 1000, AlignMode::SemiGlobal);
        assert_eq!(bsw_semiglobal_score(&out), expect.score, "q={q} t={t}");
    }
    // Unrelated pairs: the best overlap is often the empty one, scored 0
    // at the last row's column-0 border.
    for _ in 0..24 {
        let t = DnaSeq::random(rng.gen_range(16..32), &mut rng);
        let q = DnaSeq::random(rng.gen_range(16..32), &mut rng);
        let accel = GendpPipeline::bsw_semiglobal(&scoring, q.len());
        let out = accel.run(&codes(&t), &codes(&q), 4).expect("simulation");
        let expect = bsw_i32(&q, &t, &scoring, 1000, AlignMode::SemiGlobal);
        assert_eq!(bsw_semiglobal_score(&out), expect.score, "q={q} t={t}");
    }
}

#[test]
fn semiglobal_overlap_is_free_where_global_pays() {
    // Query matches a prefix of a much longer target.
    let scoring = Scoring::bwa_mem();
    let q: DnaSeq = "ACGTAC".parse().unwrap();
    let t: DnaSeq = "ACGTACTTTTTTTTTTTT".parse().unwrap();
    let semi_accel = GendpPipeline::bsw_semiglobal(&scoring, q.len());
    let semi = semi_accel.run(&codes(&t), &codes(&q), 4).expect("semi");
    let global_accel = GendpPipeline::bsw_global(&scoring);
    let global = global_accel.run(&codes(&t), &codes(&q), 4).expect("global");
    assert_eq!(bsw_semiglobal_score(&semi), 6);
    assert!(*global.last_row["h"].last().unwrap() < 6);
}

#[test]
fn convex_mode_matches_reference() {
    let mut rng = SmallRng::seed_from_u64(304);
    let convex = Scoring {
        matches: 1,
        mismatch: 4,
        gap: GapModel::Convex {
            open1: 4,
            extend1: 2,
            open2: 14,
            extend2: 1,
        },
    };
    let accel = GendpPipeline::bsw_convex(&convex);
    for _ in 0..6 {
        let g = Genome::random(100, &mut rng);
        let t = g.window(0, rng.gen_range(6..30));
        let q = MutationProfile::pacbio().apply(&g.window(0, rng.gen_range(6..30)), &mut rng);
        if q.is_empty() {
            continue;
        }
        let out = accel.run(&codes(&t), &codes(&q), 4).expect("simulation");
        let expect = align(&q, &t, &convex, AlignMode::Local);
        assert_eq!(bsw_score(&out), expect.score, "q={q} t={t}");
    }
}

#[test]
fn convex_accelerator_bridges_long_gaps_better_than_affine() {
    // A 20-base insertion: the convex second piece caps the cost.
    let convex = Scoring {
        matches: 1,
        mismatch: 4,
        gap: GapModel::Convex {
            open1: 4,
            extend1: 2,
            open2: 14,
            extend2: 1,
        },
    };
    let affine = Scoring {
        matches: 1,
        mismatch: 4,
        gap: GapModel::Affine { open: 4, extend: 2 },
    };
    // 40-base flanks: bridging the 20-base gap gains 80 matches at a cost
    // of 34 (convex: 14 + 20*1) or 44 (affine: 4 + 20*2); only the convex
    // bridge beats keeping a single 40-match flank.
    let mut q_text = "ACGT".repeat(20);
    let t_text = q_text.clone();
    q_text.insert_str(40, &"T".repeat(20));
    let q: DnaSeq = q_text.parse().unwrap();
    let t: DnaSeq = t_text.parse().unwrap();

    let cx = GendpPipeline::bsw_convex(&convex);
    let out_cx = cx.run(&codes(&t), &codes(&q), 4).expect("convex");
    let af = GendpPipeline::bsw(&affine);
    let out_af = af.run(&codes(&t), &codes(&q), 4).expect("affine");
    assert!(
        bsw_score(&out_cx) > bsw_score(&out_af),
        "convex {} vs affine {}",
        bsw_score(&out_cx),
        bsw_score(&out_af)
    );
}

#[test]
fn simd16_two_tasks_match_reference() {
    use gendp::core::{bsw_simd16_scores, pack_halves, GendpPipeline};
    use gendp::kernels::bsw_i16;
    let mut rng = SmallRng::seed_from_u64(305);
    let scoring = Scoring::bwa_mem();
    let accel = GendpPipeline::bsw_simd16(&scoring);
    let tasks: Vec<(DnaSeq, DnaSeq)> = (0..2)
        .map(|_| (DnaSeq::random(30, &mut rng), DnaSeq::random(26, &mut rng)))
        .collect();
    let q0: Vec<i16> = tasks[0].0.codes().iter().map(|&c| c as i16).collect();
    let q1: Vec<i16> = tasks[1].0.codes().iter().map(|&c| c as i16).collect();
    let t0: Vec<i16> = tasks[0].1.codes().iter().map(|&c| c as i16).collect();
    let t1: Vec<i16> = tasks[1].1.codes().iter().map(|&c| c as i16).collect();
    let cols = pack_halves([&q0, &q1]);
    let rows = pack_halves([&t0, &t1]);
    let out = accel.run(&rows, &cols, 4).expect("simulation");
    let scores = bsw_simd16_scores(&out);
    for (half, (q, t)) in tasks.iter().enumerate() {
        let expect = bsw_i16(q, t, &scoring, 1000);
        assert_eq!(scores[half] as i32, expect.score, "half {half}");
    }
}

#[test]
fn simd16_handles_scores_beyond_8_bit() {
    use gendp::core::{bsw_simd16_scores, pack_halves, GendpPipeline};
    use gendp::kernels::bsw_i16;
    let mut rng = SmallRng::seed_from_u64(306);
    let scoring = Scoring::bwa_mem();
    // A 200-base near-perfect alignment scores ~200 > 127.
    let t = DnaSeq::random(200, &mut rng);
    let q = MutationProfile::illumina().apply(&t, &mut rng);
    let q = q.window(0, q.len().min(200));
    let qc: Vec<i16> = q.codes().iter().map(|&c| c as i16).collect();
    let tc: Vec<i16> = t.codes().iter().map(|&c| c as i16).collect();
    let cols = pack_halves([&qc, &qc]);
    let rows = pack_halves([&tc, &tc]);
    let accel = GendpPipeline::bsw_simd16(&scoring);
    let out = accel.run(&rows, &cols, 4).expect("simulation");
    let scores = bsw_simd16_scores(&out);
    let expect = bsw_i16(&q, &t, &scoring, 1000);
    assert!(
        expect.score > 127,
        "score {} must exceed 8-bit",
        expect.score
    );
    assert_eq!(scores[0] as i32, expect.score);
    assert_eq!(scores[1] as i32, expect.score);
}

#[test]
fn banded_dtw_on_dpax_matches_reference() {
    use gendp::core::{dtw_banded_distance, GendpPipeline};
    use gendp::kernels::dtw::dtw_band_asymmetric;
    let mut rng = SmallRng::seed_from_u64(307);
    const SENTINEL: i32 = 1 << 20;
    let mut checked = 0;
    while checked < 5 {
        let m = rng.gen_range(6..30i64);
        let width = rng.gen_range(3..12usize);
        // The corner must lie inside the band: 0 <= n - m < width.
        let n = m + rng.gen_range(0..width as i64);
        let xs: Vec<i32> = (0..m).map(|_| rng.gen_range(0..500)).collect();
        let ys: Vec<i32> = (0..n).map(|_| rng.gen_range(0..500)).collect();
        let expect = dtw_band_asymmetric(&xs, &ys, 0, width as i64 - 1);
        let accel = GendpPipeline::dtw_banded(ys.len());
        let out = accel
            .run_banded(&xs, &ys, width, SENTINEL, 4)
            .expect("simulation");
        let got = dtw_banded_distance(&out, xs.len()) as i64;
        assert_eq!(got, expect.distance, "m={m} n={n} w={width}");
        // The banded run computes exactly width cells per row.
        assert_eq!(out.stats.cells(), (m as u64) * (width as u64));
        checked += 1;
    }
}

#[test]
fn banded_dtw_costs_fewer_cells_than_full() {
    use gendp::core::{dtw_banded_distance, GendpPipeline};
    let xs: Vec<i32> = (0..40).collect();
    let ys: Vec<i32> = (0..40).collect();
    let banded = GendpPipeline::dtw_banded(40)
        .run_banded(&xs, &ys, 6, 1 << 20, 4)
        .expect("banded");
    let full = GendpPipeline::dtw().run(&xs, &ys, 4).expect("full");
    assert!(banded.stats.cells() < full.stats.cells());
    // The identical-signal path is on the diagonal: both find 0.
    assert_eq!(dtw_banded_distance(&banded, 40), 0);
    assert_eq!(*full.last_row["d"].last().unwrap(), 0);
}

#[test]
fn linear_gap_alignment_on_dpax_via_poa_chain_graph() {
    // A chain-shaped POA graph *is* a linear-gap pairwise aligner: this
    // covers the paper's "linear" scoring mode end to end on the
    // accelerator (§7.6.3), checked against the generic aligner.
    use gendp::kernels::poa::Poa;
    let mut rng = SmallRng::seed_from_u64(308);
    for _ in 0..4 {
        let t = DnaSeq::random(rng.gen_range(5..25), &mut rng);
        let q = DnaSeq::random(rng.gen_range(5..25), &mut rng);
        let mut poa = Poa::new();
        poa.add_sequence(&t, &Scoring::racon());
        let accel = GendpPipeline::poa(Scoring::racon());
        let run = accel.run(&poa, &q, 4).expect("simulation");
        // The POA reference on a chain graph equals global linear-gap
        // alignment of q against t.
        let expect = align(&q, &t, &Scoring::racon(), AlignMode::Global);
        assert_eq!(run.score, expect.score, "q={q} t={t}");
    }
}
