//! The central correctness contract of the reproduction: every kernel's
//! DPAx simulation reproduces the reference software kernel exactly
//! (DESIGN.md §3).

use gendp::core::{bsw_score, bsw_simd_scores, pack_lanes, pairhmm_loglik, GendpPipeline};
use gendp::kernels::chain::{chain_reordered, ChainParams};
use gendp::kernels::dfgs::pairhmm_luts;
use gendp::kernels::pairhmm::{forward_f64, forward_log_fixed, PairHmmParams};
use gendp::kernels::poa::Poa;
use gendp::kernels::{bsw_i32, bsw_i8, AlignMode, Scoring};
use gendp::seq::{extract_anchors, DnaSeq, Genome, KmerIndex, MutationProfile};
use rand::{rngs::SmallRng, Rng, SeedableRng};

fn codes(s: &DnaSeq) -> Vec<i32> {
    s.codes().iter().map(|&c| c as i32).collect()
}

#[test]
fn bsw_i32_end_to_end() {
    let mut rng = SmallRng::seed_from_u64(101);
    let scoring = Scoring::bwa_mem();
    let accel = GendpPipeline::bsw(&scoring);
    for _ in 0..5 {
        let g = Genome::random(200, &mut rng);
        let t = g.window(0, rng.gen_range(20..60));
        let q = MutationProfile::pacbio().apply(&g.window(5, rng.gen_range(20..50)), &mut rng);
        let out = accel.run(&codes(&t), &codes(&q), 4).expect("simulation");
        let expect = bsw_i32(&q, &t, &scoring, 10_000, AlignMode::Local);
        assert_eq!(bsw_score(&out), expect.score, "q={q} t={t}");
        assert_eq!(out.stats.cells(), (t.len() * q.len()) as u64);
    }
}

#[test]
fn bsw_simd_end_to_end() {
    let mut rng = SmallRng::seed_from_u64(102);
    let scoring = Scoring::bwa_mem();
    let accel = GendpPipeline::bsw_simd(&scoring);
    let tasks: Vec<(DnaSeq, DnaSeq)> = (0..4)
        .map(|_| (DnaSeq::random(16, &mut rng), DnaSeq::random(20, &mut rng)))
        .collect();
    let qs: Vec<Vec<u8>> = tasks.iter().map(|(q, _)| q.codes()).collect();
    let ts: Vec<Vec<u8>> = tasks.iter().map(|(_, t)| t.codes()).collect();
    let cols = pack_lanes([&qs[0], &qs[1], &qs[2], &qs[3]]);
    let rows = pack_lanes([&ts[0], &ts[1], &ts[2], &ts[3]]);
    let out = accel.run(&rows, &cols, 4).expect("simulation");
    let scores = bsw_simd_scores(&out);
    for (lane, (q, t)) in tasks.iter().enumerate() {
        assert_eq!(
            scores[lane] as i32,
            bsw_i8(q, t, &scoring, 1000).score,
            "lane {lane}"
        );
    }
}

#[test]
fn pairhmm_end_to_end_and_tracks_float() {
    let mut rng = SmallRng::seed_from_u64(103);
    let params = PairHmmParams::gatk();
    let (qual, scale) = (30u8, 1024);
    let g = Genome::random(500, &mut rng);
    let hap = g.window(10, 24);
    let read = MutationProfile::illumina().apply(&g.window(14, 12), &mut rng);
    let read = read.window(0, read.len().min(12));
    let accel = GendpPipeline::pairhmm(&params, qual, scale, hap.len());
    let out = accel
        .run(&codes(&read), &codes(&hap), 4)
        .expect("simulation");
    let got = pairhmm_loglik(&out, &pairhmm_luts(qual, scale));
    let quals = vec![qual; read.len()];
    // Bit-exact vs the fixed-point reference...
    assert_eq!(got, forward_log_fixed(&read, &quals, &hap, &params, scale));
    // ...which tracks the floating-point forward algorithm.
    let f = forward_f64(&read, &quals, &hap, &params);
    assert!(
        (got as f64 / scale as f64 - f).abs() < 0.5,
        "fixed {} vs float {f}",
        got as f64 / scale as f64
    );
}

#[test]
fn poa_end_to_end() {
    let mut rng = SmallRng::seed_from_u64(104);
    let truth = DnaSeq::random(30, &mut rng);
    let mut poa = Poa::new();
    poa.add_sequence(&truth, &Scoring::racon());
    for _ in 0..3 {
        poa.add_sequence(
            &MutationProfile::nanopore().apply(&truth, &mut rng),
            &Scoring::racon(),
        );
    }
    let probe = MutationProfile::nanopore().apply(&truth, &mut rng);
    let accel = GendpPipeline::poa(Scoring::racon());
    let run = accel.run(&poa, &probe, 4).expect("simulation");
    assert_eq!(run.score, poa.align(&probe, &Scoring::racon()).score);
}

#[test]
fn chain_end_to_end() {
    let mut rng = SmallRng::seed_from_u64(105);
    let g = Genome::random(10_000, &mut rng);
    let read = MutationProfile::pacbio().apply(&g.window(3_000, 1_000), &mut rng);
    let idx = KmerIndex::build(g.seq(), 14);
    let anchors = extract_anchors(&idx, &read);
    assert!(anchors.len() > 30);
    let n_pes = 8;
    let params = ChainParams {
        n_prev: n_pes,
        ..ChainParams::minimap2(14.0)
    };
    let accel = GendpPipeline::chain(params);
    let run = accel.run(&anchors, n_pes).expect("simulation");
    assert_eq!(run.scores, chain_reordered(&anchors, &params).scores);
}

#[test]
fn dtw_bellman_ford_lcs_end_to_end() {
    let mut rng = SmallRng::seed_from_u64(106);
    // DTW.
    let xs: Vec<i32> = (0..15).map(|_| rng.gen_range(0..200)).collect();
    let ys: Vec<i32> = (0..12).map(|_| rng.gen_range(0..200)).collect();
    let out = GendpPipeline::dtw().run(&xs, &ys, 4).expect("dtw");
    assert_eq!(
        *out.last_row["d"].last().unwrap() as i64,
        gendp::kernels::dtw::dtw(&xs, &ys).distance
    );
    // Bellman-Ford.
    let g = gendp::kernels::bellman_ford::random_roadmap(30, 3, 6, &mut rng);
    let run = GendpPipeline::bellman_ford()
        .run(&g, 0, g.vertex_count() - 1)
        .expect("bf");
    let expect = gendp::kernels::bellman_ford::bellman_ford(&g, 0);
    for (got, want) in run.dist.iter().zip(&expect.dist) {
        match want {
            Some(v) => assert_eq!(*got, *v as i32),
            None => assert_eq!(*got, gendp::core::spm1d::INF),
        }
    }
    // LCS.
    let a: Vec<i32> = (0..14).map(|_| rng.gen_range(0..4)).collect();
    let b: Vec<i32> = (0..17).map(|_| rng.gen_range(0..4)).collect();
    let out = GendpPipeline::lcs().run(&a, &b, 4).expect("lcs");
    assert_eq!(
        *out.last_row["c"].last().unwrap(),
        gendp::kernels::lcs::lcs(&a, &b).length as i32
    );
}

#[test]
fn pairhmm_float_on_fp_array_is_bit_exact() {
    use gendp::core::pairhmm_float_lik;
    use gendp::kernels::pairhmm::forward_f32;
    let mut rng = SmallRng::seed_from_u64(107);
    let params = PairHmmParams::gatk();
    let qual = 30u8;
    for round in 0..3 {
        let g = Genome::random(300, &mut rng);
        let hap = g.window(3, 18);
        let read = g.window(5, 10);
        let accel = GendpPipeline::pairhmm_float(&params, qual, hap.len());
        let out = accel
            .run(&codes(&read), &codes(&hap), 4)
            .expect("simulation");
        let got = pairhmm_float_lik(&out);
        let quals = vec![qual; read.len()];
        let expect = forward_f32(&read, &quals, &hap, &params);
        assert_eq!(got.to_bits(), expect.to_bits(), "round {round}");
        // And the single-precision path tracks the f64 forward.
        let f = gendp::kernels::pairhmm::forward_f64(&read, &quals, &hap, &params);
        assert!(((got as f64).ln() - f).abs() < 1e-3);
    }
    // Random unrelated pairs at varied qualities: every mismatch reads the
    // mismatch prior, so its rounding must agree on both sides.
    for round in 0..40 {
        let read = DnaSeq::random(16, &mut rng);
        let hap = DnaSeq::random(24, &mut rng);
        let qual = rng.gen_range(10..=40u8);
        let accel = GendpPipeline::pairhmm_float(&params, qual, hap.len());
        let out = accel
            .run(&codes(&read), &codes(&hap), 4)
            .expect("simulation");
        let expect = forward_f32(&read, &vec![qual; read.len()], &hap, &params);
        assert_eq!(
            pairhmm_float_lik(&out).to_bits(),
            expect.to_bits(),
            "unrelated pair {round} at Q{qual}"
        );
    }
}

#[test]
fn poa_with_long_range_bridge_edges() {
    // A read with a long internal deletion creates a bridge edge spanning
    // many rows — the long-range dependency pattern of paper Fig. 2c. The
    // live-set streaming must carry the bridged row's values across every
    // intermediate row.
    let mut rng = SmallRng::seed_from_u64(108);
    let backbone = DnaSeq::random(60, &mut rng);
    let mut cut: Vec<gendp::seq::Base> = backbone.bases()[..20].to_vec();
    cut.extend_from_slice(&backbone.bases()[45..]);
    let deleted = DnaSeq::from(cut);

    let mut poa = Poa::new();
    poa.add_sequence(&backbone, &Scoring::racon());
    poa.add_sequence(&deleted, &Scoring::racon());
    // Confirm a long-range edge exists (distance > 4 rows).
    let order = poa.topological_order();
    let mut rank = vec![0usize; poa.node_count()];
    for (k, &v) in order.iter().enumerate() {
        rank[v] = k;
    }
    let mut max_dist = 0usize;
    for &v in &order {
        for &(u, _) in poa.preds(v) {
            max_dist = max_dist.max(rank[v] - rank[u]);
        }
    }
    assert!(max_dist > 4, "expected a long-range edge, got {max_dist}");

    let accel = GendpPipeline::poa(Scoring::racon());
    for probe in [
        backbone.clone(),
        deleted.clone(),
        MutationProfile::nanopore().apply(&backbone, &mut rng),
    ] {
        for n_pes in [1, 4] {
            let run = accel.run(&poa, &probe, n_pes).expect("simulation");
            assert_eq!(
                run.score,
                poa.align(&probe, &Scoring::racon()).score,
                "n_pes {n_pes}"
            );
        }
    }
}

#[test]
fn bellman_ford_with_negative_weights_on_dpax() {
    use gendp::kernels::bellman_ford::{bellman_ford, Graph};
    let mut g = Graph::new(6);
    g.add_edge(0, 1, 10);
    g.add_edge(0, 2, 3);
    g.add_edge(2, 1, -5);
    g.add_edge(1, 3, 2);
    g.add_edge(2, 3, 8);
    g.add_edge(3, 4, -1);
    g.add_edge(4, 5, 4);
    let accel = GendpPipeline::bellman_ford();
    let run = accel.run(&g, 0, 5).expect("simulation");
    let expect = bellman_ford(&g, 0);
    for (got, want) in run.dist.iter().zip(&expect.dist) {
        assert_eq!(*got, want.unwrap() as i32);
    }
    // Spot-check the relaxation through the negative edge: 0->2->1 = -2.
    assert_eq!(run.dist[1], -2);
}
