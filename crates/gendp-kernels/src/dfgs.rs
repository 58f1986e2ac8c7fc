//! Objective-function data-flow graphs: one per kernel, consumed by DPMap
//! (paper Fig. 3: "the intra-cell data-flow graph for the objective
//! function is mapped to compute units").
//!
//! Each builder returns a [`gendp_dfg::Dfg`] whose external inputs are the
//! per-cell values the control thread stages into the register file, and
//! whose named outputs are the new cell values. Unit tests pin every DFG's
//! semantics to the corresponding scalar kernel's inner loop, and
//! `gendp-core` relies on that equivalence when it runs the mapped
//! programs on the DPAx simulator.

use gendp_dfg::Dfg;
use gendp_isa::{ComputeOp, Luts};

use crate::chain::ChainParams;
use crate::pairhmm::{priors_f32, PairHmmParams, LOG_NEG_INF};
use crate::scoring::{GapModel, Scoring};

/// The BSW cell (paper Fig. 2a): affine-gap banded Smith-Waterman with the
/// packed running-maximum trick (`(score << 16) | column`) that the ISA's
/// 16-bit shifts exist for.
///
/// External inputs: `x`, `y` (base codes), `h_diag`, `h_up`, `e_up`,
/// `h_left`, `f_left`, `j` (column index), `best` (running packed max).
/// Outputs: `e`, `f`, `h`, `best`.
///
/// # Panics
///
/// Panics if the gap model is not affine.
pub fn bsw_dfg(scoring: &Scoring) -> Dfg {
    let (open, extend) = match scoring.gap {
        GapModel::Affine { open, extend } => (open, extend),
        _ => panic!("BSW uses the affine gap model"),
    };
    let mut g = Dfg::new("bsw");
    let x = g.ext("x");
    let y = g.ext("y");
    let h_diag = g.ext("h_diag");
    let h_up = g.ext("h_up");
    let e_up = g.ext("e_up");
    let h_left = g.ext("h_left");
    let f_left = g.ext("f_left");
    let j = g.ext("j");
    let best = g.ext("best");
    let gapo = g.imm(open);
    let gape = g.imm(extend);
    let zero = g.imm(0);

    let s = g.match_score(x, y);
    let diag = g.add(h_diag, s);
    let eo = g.sub(h_up, gapo);
    let e1 = g.max(e_up, eo);
    let e = g.sub(e1, gape);
    let fo = g.sub(h_left, gapo);
    let f1 = g.max(f_left, fo);
    let f = g.sub(f1, gape);
    let m0 = g.max(diag, zero);
    let ef = g.max(e, f);
    let h = g.max(m0, ef);
    // Packed running maximum: (h << 16) + j, then max against the carry.
    let hs = g.node(ComputeOp::Shl16, &[h]);
    let hp = g.add(hs, j);
    let best_new = g.max(best, hp);
    g.set_output("e", e);
    g.set_output("f", f);
    g.set_output("h", h);
    g.set_output("best", best_new);
    g
}

/// The lookup tables the BSW DFG expects (its match-score table).
pub fn bsw_luts(scoring: &Scoring) -> Luts {
    Luts::with_scores(scoring.matches, -scoring.mismatch)
}

/// The SIMD (4 x 8-bit) BSW cell: four independent alignments occupy the
/// four lanes (paper §4.2: "four DP tables are mapped to four SIMD
/// lanes"). The packed-argmax trick is replaced by a per-lane running
/// score maximum, matching [`crate::bsw_i8`].
///
/// External inputs and outputs as [`bsw_dfg`] minus `j`; `best` carries the
/// per-lane maximum score.
///
/// # Panics
///
/// Panics if the gap model is not affine.
pub fn bsw_simd_dfg(scoring: &Scoring) -> Dfg {
    let (open, extend) = match scoring.gap {
        GapModel::Affine { open, extend } => (open, extend),
        _ => panic!("BSW uses the affine gap model"),
    };
    // Immediates must carry the value in every 8-bit lane.
    let lanes = |v: i32| -> i32 {
        assert!((0..=127).contains(&v), "SIMD immediate out of lane range");
        i32::from_le_bytes([v as u8; 4])
    };
    let mut g = Dfg::new("bsw-simd");
    let x = g.ext("x");
    let y = g.ext("y");
    let h_diag = g.ext("h_diag");
    let h_up = g.ext("h_up");
    let e_up = g.ext("e_up");
    let h_left = g.ext("h_left");
    let f_left = g.ext("f_left");
    let best = g.ext("best");
    let gapo = g.imm(lanes(open));
    let gape = g.imm(lanes(extend));
    let zero = g.imm(0);

    let s = g.match_score(x, y);
    let diag = g.add(h_diag, s);
    let eo = g.sub(h_up, gapo);
    let e1 = g.max(e_up, eo);
    let e = g.sub(e1, gape);
    let fo = g.sub(h_left, gapo);
    let f1 = g.max(f_left, fo);
    let f = g.sub(f1, gape);
    let m0 = g.max(diag, zero);
    let ef = g.max(e, f);
    let h = g.max(m0, ef);
    let best_new = g.max(best, h);
    g.set_output("e", e);
    g.set_output("f", f);
    g.set_output("h", h);
    g.set_output("best", best_new);
    g
}

/// The 16-bit 2-lane SIMD BSW cell (paper §7.6.4): two alignments share
/// the word's halves, for sequences whose scores exceed the 8-bit range.
///
/// External inputs and outputs as [`bsw_simd_dfg`].
///
/// # Panics
///
/// Panics if the gap model is not affine.
pub fn bsw_simd16_dfg(scoring: &Scoring) -> Dfg {
    let (open, extend) = match scoring.gap {
        GapModel::Affine { open, extend } => (open, extend),
        _ => panic!("BSW uses the affine gap model"),
    };
    // Immediates carry the value in both 16-bit halves.
    let halves = |v: i32| -> i32 {
        assert!((0..=32767).contains(&v), "SIMD16 immediate out of range");
        gendp_isa::Word::from_halves([v as i16; 2]).as_i32()
    };
    let mut g = Dfg::new("bsw-simd16");
    let x = g.ext("x");
    let y = g.ext("y");
    let h_diag = g.ext("h_diag");
    let h_up = g.ext("h_up");
    let e_up = g.ext("e_up");
    let h_left = g.ext("h_left");
    let f_left = g.ext("f_left");
    let best = g.ext("best");
    let gapo = g.imm(halves(open));
    let gape = g.imm(halves(extend));
    let zero = g.imm(0);

    let s = g.match_score(x, y);
    let diag = g.add(h_diag, s);
    let eo = g.sub(h_up, gapo);
    let e1 = g.max(e_up, eo);
    let e = g.sub(e1, gape);
    let fo = g.sub(h_left, gapo);
    let f1 = g.max(f_left, fo);
    let f = g.sub(f1, gape);
    let m0 = g.max(diag, zero);
    let ef = g.max(e, f);
    let h = g.max(m0, ef);
    let best_new = g.max(best, h);
    g.set_output("e", e);
    g.set_output("f", f);
    g.set_output("h", h);
    g.set_output("best", best_new);
    g
}

/// The global (Needleman-Wunsch) BSW cell: as [`bsw_dfg`] without the
/// local clamp and argmax tracking — the score is read from the table
/// corner (paper §7.6.3: global alignment support).
///
/// External inputs: `x`, `y`, `h_diag`, `h_up`, `e_up`, `h_left`,
/// `f_left`. Outputs: `e`, `f`, `h`.
///
/// # Panics
///
/// Panics if the gap model is not affine.
pub fn bsw_global_dfg(scoring: &Scoring) -> Dfg {
    let (open, extend) = match scoring.gap {
        GapModel::Affine { open, extend } => (open, extend),
        _ => panic!("BSW uses the affine gap model"),
    };
    let mut g = Dfg::new("bsw-global");
    let x = g.ext("x");
    let y = g.ext("y");
    let h_diag = g.ext("h_diag");
    let h_up = g.ext("h_up");
    let e_up = g.ext("e_up");
    let h_left = g.ext("h_left");
    let f_left = g.ext("f_left");
    let gapo = g.imm(open);
    let gape = g.imm(extend);

    let s = g.match_score(x, y);
    let diag = g.add(h_diag, s);
    let eo = g.sub(h_up, gapo);
    let e1 = g.max(e_up, eo);
    let e = g.sub(e1, gape);
    let fo = g.sub(h_left, gapo);
    let f1 = g.max(f_left, fo);
    let f = g.sub(f1, gape);
    let ef = g.max(e, f);
    let h = g.max(diag, ef);
    g.set_output("e", e);
    g.set_output("f", f);
    g.set_output("h", h);
    g
}

/// The semi-global (overlap) BSW cell for a query of length `n`: free
/// leading/trailing gaps, with a running maximum updated only in the last
/// column (tracked with a conditional select on the column index).
///
/// External inputs as [`bsw_global_dfg`] plus `j` (1-based column) and
/// `best`. Outputs: `e`, `f`, `h`, `best`.
///
/// # Panics
///
/// Panics if the gap model is not affine or `n` is zero.
pub fn bsw_semiglobal_dfg(scoring: &Scoring, n: usize) -> Dfg {
    assert!(n > 0, "query length must be positive");
    let (open, extend) = match scoring.gap {
        GapModel::Affine { open, extend } => (open, extend),
        _ => panic!("BSW uses the affine gap model"),
    };
    let mut g = Dfg::new("bsw-semiglobal");
    let x = g.ext("x");
    let y = g.ext("y");
    let h_diag = g.ext("h_diag");
    let h_up = g.ext("h_up");
    let e_up = g.ext("e_up");
    let h_left = g.ext("h_left");
    let f_left = g.ext("f_left");
    let j = g.ext("j");
    let best = g.ext("best");
    let gapo = g.imm(open);
    let gape = g.imm(extend);
    let last_col = g.imm(n as i32);

    let s = g.match_score(x, y);
    let diag = g.add(h_diag, s);
    let eo = g.sub(h_up, gapo);
    let e1 = g.max(e_up, eo);
    let e = g.sub(e1, gape);
    let fo = g.sub(h_left, gapo);
    let f1 = g.max(f_left, fo);
    let f = g.sub(f1, gape);
    let ef = g.max(e, f);
    let h = g.max(diag, ef);
    // best' = (j == n) ? max(best, h) : best
    let cand = g.max(best, h);
    let best_new = g.select_eq(j, last_col, cand, best);
    g.set_output("e", e);
    g.set_output("f", f);
    g.set_output("h", h);
    g.set_output("best", best_new);
    g
}

/// The convex-gap (dual-affine) BSW cell (paper §7.6.3: "linear, affine,
/// and convex scoring modes"): two E/F matrix pairs, one per affine piece,
/// local mode with argmax tracking as [`bsw_dfg`].
///
/// External inputs: `x`, `y`, `h_diag`, `h_up`, `e1_up`, `e2_up`,
/// `h_left`, `f1_left`, `f2_left`, `j`, `best`. Outputs: `e1`, `e2`,
/// `f1`, `f2`, `h`, `best`.
///
/// # Panics
///
/// Panics if the gap model is not convex.
pub fn bsw_convex_dfg(scoring: &Scoring) -> Dfg {
    let (o1, x1, o2, x2) = match scoring.gap {
        GapModel::Convex {
            open1,
            extend1,
            open2,
            extend2,
        } => (open1, extend1, open2, extend2),
        _ => panic!("convex cell needs the convex gap model"),
    };
    let mut g = Dfg::new("bsw-convex");
    let x = g.ext("x");
    let y = g.ext("y");
    let h_diag = g.ext("h_diag");
    let h_up = g.ext("h_up");
    let e1_up = g.ext("e1_up");
    let e2_up = g.ext("e2_up");
    let h_left = g.ext("h_left");
    let f1_left = g.ext("f1_left");
    let f2_left = g.ext("f2_left");
    let j = g.ext("j");
    let best = g.ext("best");
    let zero = g.imm(0);

    let s = g.match_score(x, y);
    let diag = g.add(h_diag, s);
    let piece = |g: &mut Dfg, up_or_left, h_src, o: i32, e: i32| {
        let go = g.imm(o);
        let ge = g.imm(e);
        let opened = g.sub(h_src, go);
        let m = g.max(up_or_left, opened);
        g.sub(m, ge)
    };
    let e1 = piece(&mut g, e1_up, h_up, o1, x1);
    let e2 = piece(&mut g, e2_up, h_up, o2, x2);
    let f1 = piece(&mut g, f1_left, h_left, o1, x1);
    let f2 = piece(&mut g, f2_left, h_left, o2, x2);
    let e = g.max(e1, e2);
    let f = g.max(f1, f2);
    let ef = g.max(e, f);
    let m0 = g.max(diag, zero);
    let h = g.max(m0, ef);
    let hs = g.node(ComputeOp::Shl16, &[h]);
    let hp = g.add(hs, j);
    let best_new = g.max(best, hp);
    g.set_output("e1", e1);
    g.set_output("e2", e2);
    g.set_output("f1", f1);
    g.set_output("f2", f2);
    g.set_output("h", h);
    g.set_output("best", best_new);
    g
}

/// The log-domain PairHMM cell (paper Fig. 2b, executed in scaled
/// fixed-point on the integer PE arrays; §7.2).
///
/// External inputs: `x`, `y`, `m_diag`, `i_diag`, `d_diag`, `m_up`, `i_up`,
/// `m_left`, `d_left`. Outputs: `m`, `i`, `d`. Transition log-probabilities
/// are immediates; the emission prior is the score table.
///
/// # Panics
///
/// Panics if `scale` is not positive.
pub fn pairhmm_log_dfg(params: &PairHmmParams, scale: i32) -> Dfg {
    assert!(scale > 0, "scale must be positive");
    let l = |p: f64| -> i32 {
        if p <= 0.0 {
            LOG_NEG_INF
        } else {
            (p.ln() * scale as f64).round() as i32
        }
    };
    let d = params.gap_open;
    let e = params.gap_ext;
    let mut g = Dfg::new("pairhmm-log");
    let x = g.ext("x");
    let y = g.ext("y");
    let m_diag = g.ext("m_diag");
    let i_diag = g.ext("i_diag");
    let d_diag = g.ext("d_diag");
    let m_up = g.ext("m_up");
    let i_up = g.ext("i_up");
    let m_left = g.ext("m_left");
    let d_left = g.ext("d_left");
    let tmm = g.imm(l(1.0 - 2.0 * d));
    let tmi = g.imm(l(d));
    let tmd = g.imm(l(d));
    let tii = g.imm(l(e));
    let tim = g.imm(l(1.0 - e));
    let tdd = g.imm(l(e));
    let tdm = g.imm(l(1.0 - e));

    // logsum2(a, b) = max(a,b) + lut(|a-b|), matching pairhmm::logsum2.
    let logsum = |g: &mut Dfg, a, b| {
        let diff = g.sub(a, b);
        let zero = g.imm(0);
        let nd = g.sub(zero, diff);
        let dd = g.max(diff, nd);
        let hi = g.max(a, b);
        let corr = g.log_sum(dd);
        g.add(hi, corr)
    };

    let prior = g.match_score(x, y);
    let am = g.add(tmm, m_diag);
    let bm = g.add(tim, i_diag);
    let cm = g.add(tdm, d_diag);
    let ab = logsum(&mut g, am, bm);
    let abc = logsum(&mut g, ab, cm);
    let m = g.add(prior, abc);

    let ai = g.add(tmi, m_up);
    let bi = g.add(tii, i_up);
    let i = logsum(&mut g, ai, bi);

    let ad = g.add(tmd, m_left);
    let bd = g.add(tdd, d_left);
    let dout = logsum(&mut g, ad, bd);

    g.set_output("m", m);
    g.set_output("i", i);
    g.set_output("d", dout);
    g
}

/// The lookup tables the log-domain PairHMM DFG expects: scaled log
/// emission priors in the score table and the log-sum scale.
pub fn pairhmm_luts(qual: u8, scale: i32) -> Luts {
    let eps = 10f64.powf(-(qual as f64) / 10.0);
    let l = |p: f64| (p.ln() * scale as f64).round() as i32;
    Luts::with_scores(l(1.0 - eps), l(eps / 3.0)).with_logsum_scale(scale)
}

/// The probability-domain PairHMM cell for the floating-point PE array
/// (paper Fig. 4's FP array; §7.6.4: "DPAx has both integer and
/// floating-point PEs"). Transition probabilities are `f32` immediates;
/// the emission prior is the score table in `f32`.
///
/// External inputs and outputs as [`pairhmm_log_dfg`]; all values are
/// IEEE-754 singles carried in raw words.
pub fn pairhmm_float_dfg(params: &PairHmmParams) -> Dfg {
    let d = params.gap_open;
    let e = params.gap_ext;
    let mut g = Dfg::new("pairhmm-float");
    let x = g.ext("x");
    let y = g.ext("y");
    let m_diag = g.ext("m_diag");
    let i_diag = g.ext("i_diag");
    let d_diag = g.ext("d_diag");
    let m_up = g.ext("m_up");
    let i_up = g.ext("i_up");
    let m_left = g.ext("m_left");
    let d_left = g.ext("d_left");
    let tmm = g.imm_f32((1.0 - 2.0 * d) as f32);
    let tmi = g.imm_f32(d as f32);
    let tmd = g.imm_f32(d as f32);
    let tii = g.imm_f32(e as f32);
    let tim = g.imm_f32((1.0 - e) as f32);
    let tdd = g.imm_f32(e as f32);
    let tdm = g.imm_f32((1.0 - e) as f32);

    let prior = g.match_score(x, y);
    let am = g.mul(tmm, m_diag);
    let bm = g.mul(tim, i_diag);
    let cm = g.mul(tdm, d_diag);
    let ab = g.add(am, bm);
    let abc = g.add(ab, cm);
    let m = g.mul(prior, abc);

    let ai = g.mul(tmi, m_up);
    let bi = g.mul(tii, i_up);
    let i = g.add(ai, bi);

    let ad = g.mul(tmd, m_left);
    let bd = g.mul(tdd, d_left);
    let dout = g.add(ad, bd);

    g.set_output("m", m);
    g.set_output("i", i);
    g.set_output("d", dout);
    g
}

/// The lookup tables the floating-point PairHMM DFG expects: `f32`
/// emission priors in the score table.
pub fn pairhmm_float_luts(qual: u8) -> Luts {
    let (prior_eq, prior_ne) = priors_f32(qual);
    Luts::with_scores_f32(prior_eq, prior_ne)
}

/// The POA cell for a node with two predecessors (paper Fig. 2c), with the
/// traceback-direction output that makes POA's downstream move data so
/// costly (§7.2: "8-byte outputs ... for each cell").
///
/// External inputs: `vb` (node base), `y`, `h_p1_left`, `h_p1`,
/// `h_p2_left`, `h_p2`, `h_left`. Outputs: `h`, `dir`
/// (0 = diag pred 1, 1 = up pred 1, 2 = diag pred 2, 3 = up pred 2,
/// 4 = left).
///
/// # Panics
///
/// Panics if the gap model is not linear.
pub fn poa_dfg(scoring: &Scoring) -> Dfg {
    let gap = match scoring.gap {
        GapModel::Linear { extend } => extend,
        _ => panic!("POA uses the linear gap model"),
    };
    let mut g = Dfg::new("poa");
    let vb = g.ext("vb");
    let y = g.ext("y");
    let h_p1_left = g.ext("h_p1_left");
    let h_p1 = g.ext("h_p1");
    let h_p2_left = g.ext("h_p2_left");
    let h_p2 = g.ext("h_p2");
    let h_left = g.ext("h_left");
    let gp = g.imm(gap);

    let s = g.match_score(vb, y);
    let c1m = g.add(h_p1_left, s);
    let c1d = g.sub(h_p1, gp);
    let c2m = g.add(h_p2_left, s);
    let c2d = g.sub(h_p2, gp);
    let cl = g.sub(h_left, gp);

    let dir0 = g.imm(0);
    let m1 = g.max(c1m, c1d);
    let d1 = g.select_gt(c1d, c1m, g.imm(1), dir0);
    let m2 = g.max(m1, c2m);
    let d2 = g.select_gt(c2m, m1, g.imm(2), d1);
    let m3 = g.max(m2, c2d);
    let d3 = g.select_gt(c2d, m2, g.imm(3), d2);
    let h = g.max(m3, cl);
    let dir = g.select_gt(cl, m3, g.imm(4), d3);
    g.set_output("h", h);
    g.set_output("dir", dir);
    g
}

/// The Chain per-pair update (paper Fig. 2d): scores the link `i -> j`
/// with the minimap2 gap cost and folds it into anchor `j`'s running best.
///
/// External inputs: `qi`, `ri`, `qj`, `rj`, `spanj`, `fi`, `fj`, `idx_i`,
/// `pj`. Outputs: `fj` (updated score) and `pj` (updated parent index).
pub fn chain_dfg(params: &ChainParams) -> Dfg {
    let mut g = Dfg::new("chain");
    let qi = g.ext("qi");
    let ri = g.ext("ri");
    let qj = g.ext("qj");
    let rj = g.ext("rj");
    let spanj = g.ext("spanj");
    let fi = g.ext("fi");
    let fj = g.ext("fj");
    let idx_i = g.ext("idx_i");
    let pj = g.ext("pj");
    let zero = g.imm(0);
    let neg = g.imm(crate::chain::CHAIN_NEG);
    let maxd = g.imm(params.max_dist);
    let bw = g.imm(params.bandwidth);
    let scale = g.imm(params.gap_scale_q16());

    let dq = g.sub(qj, qi);
    let dr = g.sub(rj, ri);
    let d = g.sub(dq, dr);
    let nd = g.sub(zero, d);
    let dd = g.max(d, nd);
    let dg = g.min(dq, dr);
    let alpha = g.min(dg, spanj);
    let lin_raw = g.mul(dd, scale);
    let lin = g.node(ComputeOp::Shr16, &[lin_raw]);
    let log = g.log2_half(dd);
    let gap = g.add(lin, log);
    let a_minus_gap = g.sub(alpha, gap);
    let sc0 = g.add(fi, a_minus_gap);
    // Validity selects, in the same order as chain::link_score.
    let v1 = g.select_gt(dq, zero, sc0, neg);
    let v2 = g.select_gt(dr, zero, v1, neg);
    let v3 = g.select_gt(dq, maxd, neg, v2);
    let v4 = g.select_gt(dr, maxd, neg, v3);
    let sc = g.select_gt(dd, bw, neg, v4);
    let f_new = g.max(fj, sc);
    let p_new = g.select_gt(sc, fj, idx_i, pj);
    g.set_output("fj", f_new);
    g.set_output("pj", p_new);
    g
}

/// The DTW cell (paper §7.6.5): absolute difference plus the minimum of
/// the three neighbors.
///
/// External inputs: `x`, `y`, `d_up`, `d_left`, `d_diag`. Output: `d`.
pub fn dtw_dfg() -> Dfg {
    let mut g = Dfg::new("dtw");
    let x = g.ext("x");
    let y = g.ext("y");
    let d_up = g.ext("d_up");
    let d_left = g.ext("d_left");
    let d_diag = g.ext("d_diag");
    let zero = g.imm(0);
    let d = g.sub(x, y);
    let nd = g.sub(zero, d);
    let cost = g.max(d, nd);
    let m1 = g.min(d_up, d_left);
    let m2 = g.min(m1, d_diag);
    let out = g.add(cost, m2);
    g.set_output("d", out);
    g
}

/// The banded DTW cell (paper §7.6.2: static active regions): the DTW
/// update plus corner capture — `best` takes the cell value exactly at the
/// target corner column, so the result survives the band's diagonal sweep.
///
/// External inputs: the [`dtw_dfg`] set plus `j` (1-based column) and
/// `best`. Outputs: `d`, `best`. `n` is the corner column to capture.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn dtw_banded_dfg(n: usize) -> Dfg {
    assert!(n > 0, "corner column must be positive");
    let mut g = Dfg::new("dtw-banded");
    let x = g.ext("x");
    let y = g.ext("y");
    let d_up = g.ext("d_up");
    let d_left = g.ext("d_left");
    let d_diag = g.ext("d_diag");
    let j = g.ext("j");
    let best = g.ext("best");
    let zero = g.imm(0);
    let corner = g.imm(n as i32);
    let d = g.sub(x, y);
    let nd = g.sub(zero, d);
    let cost = g.max(d, nd);
    let m1 = g.min(d_up, d_left);
    let m2 = g.min(m1, d_diag);
    let out = g.add(cost, m2);
    let best_new = g.select_eq(j, corner, out, best);
    g.set_output("d", out);
    g.set_output("best", best_new);
    g
}

/// The Bellman-Ford edge relaxation (paper §7.6.5), with parent tracking.
///
/// External inputs: `d_u`, `w`, `d_v`, `u_idx`, `p_v`. Outputs: `d`
/// (relaxed distance), `p` (updated parent).
pub fn bellman_ford_dfg() -> Dfg {
    let mut g = Dfg::new("bellman-ford");
    let d_u = g.ext("d_u");
    let w = g.ext("w");
    let d_v = g.ext("d_v");
    let u_idx = g.ext("u_idx");
    let p_v = g.ext("p_v");
    let cand = g.add(d_u, w);
    let d = g.min(d_v, cand);
    let p = g.select_gt(d_v, cand, u_idx, p_v);
    g.set_output("d", d);
    g.set_output("p", p);
    g
}

/// The LCS cell (paper Eq. 1).
///
/// External inputs: `x`, `y`, `c_diag`, `c_up`, `c_left`. Output: `c`.
pub fn lcs_dfg() -> Dfg {
    let mut g = Dfg::new("lcs");
    let x = g.ext("x");
    let y = g.ext("y");
    let c_diag = g.ext("c_diag");
    let c_up = g.ext("c_up");
    let c_left = g.ext("c_left");
    let one = g.imm(1);
    let inc = g.add(c_diag, one);
    let m = g.max(c_up, c_left);
    let c = g.select_eq(x, y, inc, m);
    g.set_output("c", c);
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use gendp_isa::Mode;
    use gendp_seq::Anchor;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    #[test]
    fn bsw_dfg_matches_kernel_cell() {
        let scoring = Scoring::bwa_mem();
        let g = bsw_dfg(&scoring);
        let luts = bsw_luts(&scoring);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..200 {
            let x = rng.gen_range(0..4);
            let y = rng.gen_range(0..4);
            let h_diag = rng.gen_range(-50..200);
            let h_up = rng.gen_range(-50..200);
            let e_up = rng.gen_range(-50..200);
            let h_left = rng.gen_range(-50..200);
            let f_left = rng.gen_range(-50..200);
            let j = rng.gen_range(0..60);
            let best = rng.gen_range(0..(100 << 16));
            let out = g
                .eval_i32(
                    &[
                        ("x", x),
                        ("y", y),
                        ("h_diag", h_diag),
                        ("h_up", h_up),
                        ("e_up", e_up),
                        ("h_left", h_left),
                        ("f_left", f_left),
                        ("j", j),
                        ("best", best),
                    ],
                    Mode::Int32,
                    &luts,
                )
                .unwrap();
            // Scalar reference: the bsw_i32 inner loop.
            let sub = scoring.substitution(x as u8, y as u8);
            let e = (e_up.max(h_up - 6)) - 1;
            let f = (f_left.max(h_left - 6)) - 1;
            let h = (h_diag + sub).max(e).max(f).max(0);
            assert_eq!(out["e"], e);
            assert_eq!(out["f"], f);
            assert_eq!(out["h"], h);
            assert_eq!(out["best"], best.max((h << 16) + j));
        }
    }

    #[test]
    fn pairhmm_dfg_matches_log_fixed_cell() {
        let params = PairHmmParams::gatk();
        let scale = 1024;
        let g = pairhmm_log_dfg(&params, scale);
        let luts = pairhmm_luts(30, scale);
        let l = |p: f64| (p.ln() * scale as f64).round() as i32;
        let d = params.gap_open;
        let e = params.gap_ext;
        let (tmm, tmi, tii, tim, tdd, tdm) =
            (l(1.0 - 2.0 * d), l(d), l(e), l(1.0 - e), l(e), l(1.0 - e));
        let tmd = tmi;
        let logsum = |a: i32, b: i32| -> i32 {
            let diff = a.wrapping_sub(b);
            let dd = diff.max(0i32.wrapping_sub(diff));
            a.max(b).wrapping_add(luts.logsum_correction(dd))
        };
        let eps = 10f64.powf(-3.0);
        let prior_eq = l(1.0 - eps);
        let prior_ne = l(eps / 3.0);
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..200 {
            let x = rng.gen_range(0..4);
            let y = rng.gen_range(0..4);
            let vals: Vec<i32> = (0..7)
                .map(|_| {
                    if rng.gen_bool(0.2) {
                        LOG_NEG_INF
                    } else {
                        rng.gen_range(-80_000..0)
                    }
                })
                .collect();
            let out = g
                .eval_i32(
                    &[
                        ("x", x),
                        ("y", y),
                        ("m_diag", vals[0]),
                        ("i_diag", vals[1]),
                        ("d_diag", vals[2]),
                        ("m_up", vals[3]),
                        ("i_up", vals[4]),
                        ("m_left", vals[5]),
                        ("d_left", vals[6]),
                    ],
                    Mode::Int32,
                    &luts,
                )
                .unwrap();
            let prior = if x == y { prior_eq } else { prior_ne };
            let m = prior.wrapping_add(logsum(
                logsum(tmm.wrapping_add(vals[0]), tim.wrapping_add(vals[1])),
                tdm.wrapping_add(vals[2]),
            ));
            let i = logsum(tmi.wrapping_add(vals[3]), tii.wrapping_add(vals[4]));
            let dd = logsum(tmd.wrapping_add(vals[5]), tdd.wrapping_add(vals[6]));
            assert_eq!(out["m"], m);
            assert_eq!(out["i"], i);
            assert_eq!(out["d"], dd);
        }
    }

    #[test]
    fn poa_dfg_matches_two_pred_cell() {
        let scoring = Scoring::racon();
        let g = poa_dfg(&scoring);
        let luts = Luts::with_scores(scoring.matches, -scoring.mismatch);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..200 {
            let vb = rng.gen_range(0..4);
            let y = rng.gen_range(0..4);
            let vals: Vec<i32> = (0..5).map(|_| rng.gen_range(-500..500)).collect();
            let out = g
                .eval_i32(
                    &[
                        ("vb", vb),
                        ("y", y),
                        ("h_p1_left", vals[0]),
                        ("h_p1", vals[1]),
                        ("h_p2_left", vals[2]),
                        ("h_p2", vals[3]),
                        ("h_left", vals[4]),
                    ],
                    Mode::Int32,
                    &luts,
                )
                .unwrap();
            let s = scoring.substitution(vb as u8, y as u8);
            let gap = 4;
            let c1m = vals[0] + s;
            let c1d = vals[1] - gap;
            let c2m = vals[2] + s;
            let c2d = vals[3] - gap;
            let cl = vals[4] - gap;
            let h = c1m.max(c1d).max(c2m).max(c2d).max(cl);
            assert_eq!(out["h"], h);
            // The direction must point at a candidate achieving h.
            let cands = [c1m, c1d, c2m, c2d, cl];
            // dir encoding: 0=c1m,1=c1d,2=c2m,3=c2d,4=cl.
            assert_eq!(cands[out["dir"] as usize], h, "dir {}", out["dir"]);
        }
    }

    #[test]
    fn chain_dfg_matches_link_score() {
        let params = ChainParams::minimap2(13.0);
        let g = chain_dfg(&params);
        let luts = Luts::default();
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..300 {
            let ai = Anchor {
                rpos: rng.gen_range(0..10_000),
                qpos: rng.gen_range(0..10_000),
                span: 13,
            };
            let aj = Anchor {
                rpos: ai.rpos + rng.gen_range(-100..2_000),
                qpos: ai.qpos + rng.gen_range(-100..2_000),
                span: 13,
            };
            let fi = rng.gen_range(0..500);
            let fj = rng.gen_range(0..500);
            let (idx_i, pj) = (7, -1);
            let out = g
                .eval_i32(
                    &[
                        ("qi", ai.qpos),
                        ("ri", ai.rpos),
                        ("qj", aj.qpos),
                        ("rj", aj.rpos),
                        ("spanj", aj.span),
                        ("fi", fi),
                        ("fj", fj),
                        ("idx_i", idx_i),
                        ("pj", pj),
                    ],
                    Mode::Int32,
                    &luts,
                )
                .unwrap();
            let sc = crate::chain::link_score(&ai, fi, &aj, &params);
            assert_eq!(out["fj"], fj.max(sc));
            assert_eq!(out["pj"], if sc > fj { idx_i } else { pj });
        }
    }

    #[test]
    fn dtw_dfg_matches_cell() {
        let g = dtw_dfg();
        let luts = Luts::default();
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..200 {
            let x = rng.gen_range(-1000..1000);
            let y = rng.gen_range(-1000..1000);
            let up = rng.gen_range(0..100_000);
            let left = rng.gen_range(0..100_000);
            let diag = rng.gen_range(0..100_000);
            let out = g
                .eval_i32(
                    &[
                        ("x", x),
                        ("y", y),
                        ("d_up", up),
                        ("d_left", left),
                        ("d_diag", diag),
                    ],
                    Mode::Int32,
                    &luts,
                )
                .unwrap();
            assert_eq!(out["d"], (x - y).abs() + up.min(left).min(diag));
        }
    }

    #[test]
    fn bellman_ford_dfg_matches_relaxation() {
        let g = bellman_ford_dfg();
        let luts = Luts::default();
        let mut rng = SmallRng::seed_from_u64(6);
        for _ in 0..200 {
            let d_u = rng.gen_range(0..1_000_000);
            let w = rng.gen_range(1..100);
            let d_v = rng.gen_range(0..1_000_000);
            let out = g
                .eval_i32(
                    &[
                        ("d_u", d_u),
                        ("w", w),
                        ("d_v", d_v),
                        ("u_idx", 3),
                        ("p_v", 9),
                    ],
                    Mode::Int32,
                    &luts,
                )
                .unwrap();
            assert_eq!(out["d"], d_v.min(d_u + w));
            assert_eq!(out["p"], if d_v > d_u + w { 3 } else { 9 });
        }
    }

    #[test]
    fn lcs_dfg_matches_equation_1() {
        let g = lcs_dfg();
        let luts = Luts::default();
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..200 {
            let x = rng.gen_range(0..4);
            let y = rng.gen_range(0..4);
            let c_diag = rng.gen_range(0..100);
            let c_up = rng.gen_range(0..100);
            let c_left = rng.gen_range(0..100);
            let out = g
                .eval_i32(
                    &[
                        ("x", x),
                        ("y", y),
                        ("c_diag", c_diag),
                        ("c_up", c_up),
                        ("c_left", c_left),
                    ],
                    Mode::Int32,
                    &luts,
                )
                .unwrap();
            let expect = if x == y { c_diag + 1 } else { c_up.max(c_left) };
            assert_eq!(out["c"], expect);
        }
    }

    #[test]
    fn all_dfgs_are_mappable() {
        // Every kernel DFG must survive the full DPMap pipeline — this is
        // checked end-to-end in gendp-core; here we pin validity and size.
        let dfgs = [
            bsw_dfg(&Scoring::bwa_mem()),
            pairhmm_log_dfg(&PairHmmParams::gatk(), 1024),
            poa_dfg(&Scoring::racon()),
            chain_dfg(&ChainParams::minimap2(13.0)),
            dtw_dfg(),
            bellman_ford_dfg(),
            lcs_dfg(),
        ];
        for g in &dfgs {
            let report = gendp_verify::Verifier::default().verify_dfg(g);
            assert!(report.is_clean(), "{}: {report:?}", g.name());
            assert!(g.len() >= 3, "{} suspiciously small", g.name());
            assert!(g.outputs().count() >= 1);
        }
    }
}
