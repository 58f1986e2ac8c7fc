//! Pairwise Hidden Markov Model (paper §2.3): the GATK HaplotypeCaller
//! read-likelihood kernel, in three flavors:
//!
//! * [`forward_f64`] — the floating-point forward algorithm (the CPU/GPU
//!   baseline arithmetic);
//! * [`forward_log_fixed`] — the log-domain fixed-point approximation GenDP
//!   executes on the integer PE arrays (paper §7.2: "the pruned-based
//!   implementation using logarithm and fixed point numbers"), built on the
//!   same Log_sum LUT semantics as the accelerator
//!   ([`gendp_isa::Luts::logsum_correction`]);
//! * [`forward_pruned`] — the pruning-based scan of Wu et al. that skips
//!   cells far below the running maximum (97.7% of the workload runs in
//!   this scan phase, §6).

use gendp_isa::Luts;
use gendp_seq::DnaSeq;

/// HMM transition parameters (GATK-style, constant per read batch).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairHmmParams {
    /// Gap-open probability δ (M→I and M→D).
    pub gap_open: f64,
    /// Gap-extension probability ε (I→I and D→D).
    pub gap_ext: f64,
}

impl PairHmmParams {
    /// GATK's default-ish transitions (δ = 10^-4.5, ε = 0.1).
    pub fn gatk() -> Self {
        PairHmmParams {
            gap_open: 10f64.powf(-4.5),
            gap_ext: 0.1,
        }
    }

    fn transitions(&self) -> Transitions {
        let d = self.gap_open;
        let e = self.gap_ext;
        Transitions {
            mm: 1.0 - 2.0 * d,
            mi: d,
            md: d,
            ii: e,
            im: 1.0 - e,
            dd: e,
            dm: 1.0 - e,
        }
    }
}

impl Default for PairHmmParams {
    fn default() -> Self {
        Self::gatk()
    }
}

#[derive(Debug, Clone, Copy)]
struct Transitions {
    mm: f64,
    mi: f64,
    md: f64,
    ii: f64,
    im: f64,
    dd: f64,
    dm: f64,
}

fn base_error(qual: u8) -> f64 {
    gendp_seq::phred::error_probability(qual)
}

/// Natural-log likelihood `ln P(read | haplotype)` via the full
/// floating-point forward algorithm.
///
/// # Panics
///
/// Panics if `quals.len() != read.len()` or either sequence is empty.
pub fn forward_f64(read: &DnaSeq, quals: &[u8], haplotype: &DnaSeq, params: &PairHmmParams) -> f64 {
    assert_eq!(read.len(), quals.len(), "one quality per read base");
    assert!(!read.is_empty() && !haplotype.is_empty(), "empty input");
    let t = params.transitions();
    let m = read.len();
    let n = haplotype.len();
    let mut fm = vec![vec![0f64; n + 1]; m + 1];
    let mut fi = vec![vec![0f64; n + 1]; m + 1];
    let mut fd = vec![vec![0f64; n + 1]; m + 1];
    // Free start anywhere along the haplotype (GATK convention).
    fd[0].fill(1.0 / n as f64);
    for i in 1..=m {
        let eps = base_error(quals[i - 1]);
        for j in 1..=n {
            let prior = if read[i - 1] == haplotype[j - 1] {
                1.0 - eps
            } else {
                eps / 3.0
            };
            fm[i][j] = prior
                * (t.mm * fm[i - 1][j - 1] + t.im * fi[i - 1][j - 1] + t.dm * fd[i - 1][j - 1]);
            fi[i][j] = t.mi * fm[i - 1][j] + t.ii * fi[i - 1][j];
            fd[i][j] = t.md * fm[i][j - 1] + t.dd * fd[i][j - 1];
        }
    }
    let total: f64 = (0..=n).map(|j| fm[m][j] + fi[m][j]).sum();
    total.ln()
}

/// Sentinel for `ln 0` in the scaled log domain. Chosen so that sums and
/// differences of two log-domain values never overflow `i32` (the
/// accelerator datapath has no sentinel handling — `ln 0` is just a very
/// negative number that log-sum corrections cannot lift).
pub const LOG_NEG_INF: i32 = -(1 << 28);

/// Log-domain "multiply": plain wrapping addition, exactly the
/// accelerator's `add` (values are bounded so it never actually wraps).
fn ladd(a: i32, b: i32) -> i32 {
    a.wrapping_add(b)
}

/// Log-domain "add": `max(a,b) + lut(|a-b|)`, built from the same five
/// operations (`sub`, `sub`, `max`, `max`, `logsum`, `add`) the DFG uses,
/// so the fixed-point kernel and the mapped compute program agree bit for
/// bit.
fn logsum2(a: i32, b: i32, luts: &Luts) -> i32 {
    let d = a.wrapping_sub(b);
    let nd = 0i32.wrapping_sub(d);
    let dd = d.max(nd);
    let hi = a.max(b);
    hi.wrapping_add(luts.logsum_correction(dd))
}

fn to_log(p: f64, scale: i32) -> i32 {
    if p <= 0.0 {
        LOG_NEG_INF
    } else {
        (p.ln() * scale as f64).round() as i32
    }
}

/// Natural-log likelihood computed entirely in scaled fixed-point log
/// space with the accelerator's Log_sum lookup table — the arithmetic the
/// integer PE arrays execute. Returns `scale * ln P`, comparable against
/// [`forward_f64`] after dividing by `scale`.
///
/// # Panics
///
/// Panics if `quals.len() != read.len()`, either sequence is empty, or
/// `scale` is not positive.
pub fn forward_log_fixed(
    read: &DnaSeq,
    quals: &[u8],
    haplotype: &DnaSeq,
    params: &PairHmmParams,
    scale: i32,
) -> i32 {
    assert_eq!(read.len(), quals.len(), "one quality per read base");
    assert!(!read.is_empty() && !haplotype.is_empty(), "empty input");
    assert!(scale > 0, "scale must be positive");
    let luts = Luts::default().with_logsum_scale(scale);
    let t = params.transitions();
    let l = |p: f64| to_log(p, scale);
    let (tmm, tmi, tmd, tii, tim, tdd, tdm) = (
        l(t.mm),
        l(t.mi),
        l(t.md),
        l(t.ii),
        l(t.im),
        l(t.dd),
        l(t.dm),
    );
    let m = read.len();
    let n = haplotype.len();
    let mut fm = vec![vec![LOG_NEG_INF; n + 1]; m + 1];
    let mut fi = vec![vec![LOG_NEG_INF; n + 1]; m + 1];
    let mut fd = vec![vec![LOG_NEG_INF; n + 1]; m + 1];
    fd[0].fill(l(1.0 / n as f64));
    for i in 1..=m {
        let eps = base_error(quals[i - 1]);
        let prior_eq = l(1.0 - eps);
        let prior_ne = l(eps / 3.0);
        for j in 1..=n {
            let prior = if read[i - 1] == haplotype[j - 1] {
                prior_eq
            } else {
                prior_ne
            };
            let a = ladd(tmm, fm[i - 1][j - 1]);
            let b = ladd(tim, fi[i - 1][j - 1]);
            let c = ladd(tdm, fd[i - 1][j - 1]);
            fm[i][j] = ladd(prior, logsum2(logsum2(a, b, &luts), c, &luts));
            fi[i][j] = logsum2(ladd(tmi, fm[i - 1][j]), ladd(tii, fi[i - 1][j]), &luts);
            fd[i][j] = logsum2(ladd(tmd, fm[i][j - 1]), ladd(tdd, fd[i][j - 1]), &luts);
        }
    }
    let mut total = LOG_NEG_INF;
    for j in 0..=n {
        total = logsum2(total, logsum2(fm[m][j], fi[m][j], &luts), &luts);
    }
    total
}

/// The single-precision emission priors `(match, mismatch)` of a base at
/// Phred quality `qual`: `1 - eps` and `eps / 3`, each rounded to f32 once
/// from f64, the more accurate constant. The FP array's lookup tables
/// ([`crate::dfgs::pairhmm_float_luts`]) and [`forward_f32`] both take
/// their priors from here, so their results agree bit for bit.
pub fn priors_f32(qual: u8) -> (f32, f32) {
    let eps = base_error(qual);
    ((1.0 - eps) as f32, (eps / 3.0) as f32)
}

/// Likelihood `P(read | haplotype)` via a single-precision forward pass
/// whose per-cell operation order mirrors the FP-array DFG
/// ([`crate::dfgs::pairhmm_float_dfg`]) exactly, so the accelerator's
/// floating-point results are bit-identical to this reference.
///
/// Single precision underflows for long reads (which is why production
/// PairHMM implementations scale or switch to f64); intended for the
/// FP-array validation path on small tables.
///
/// # Panics
///
/// Panics if `quals.len() != read.len()` or either sequence is empty.
pub fn forward_f32(read: &DnaSeq, quals: &[u8], haplotype: &DnaSeq, params: &PairHmmParams) -> f32 {
    assert_eq!(read.len(), quals.len(), "one quality per read base");
    assert!(!read.is_empty() && !haplotype.is_empty(), "empty input");
    let t = params.transitions();
    let (tmm, tmi, tmd, tii, tim, tdd, tdm) = (
        t.mm as f32,
        t.mi as f32,
        t.md as f32,
        t.ii as f32,
        t.im as f32,
        t.dd as f32,
        t.dm as f32,
    );
    let m = read.len();
    let n = haplotype.len();
    let mut fm = vec![vec![0f32; n + 1]; m + 1];
    let mut fi = vec![vec![0f32; n + 1]; m + 1];
    let mut fd = vec![vec![0f32; n + 1]; m + 1];
    fd[0].fill(1.0f32 / n as f32);
    for i in 1..=m {
        let (prior_eq, prior_ne) = priors_f32(quals[i - 1]);
        for j in 1..=n {
            let prior = if read[i - 1] == haplotype[j - 1] {
                prior_eq
            } else {
                prior_ne
            };
            // Operation order mirrors the DFG: three products, left-to-
            // right sums, then the prior product.
            let am = tmm * fm[i - 1][j - 1];
            let bm = tim * fi[i - 1][j - 1];
            let cm = tdm * fd[i - 1][j - 1];
            fm[i][j] = prior * ((am + bm) + cm);
            fi[i][j] = tmi * fm[i - 1][j] + tii * fi[i - 1][j];
            fd[i][j] = tmd * fm[i][j - 1] + tdd * fd[i][j - 1];
        }
    }
    let mut total = 0f32;
    for j in 0..=n {
        total += fm[m][j] + fi[m][j];
    }
    total
}

/// Statistics of a pruned forward pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PruneStats {
    /// All cells of the rectangular table.
    pub cells_total: u64,
    /// Cells actually evaluated by the scan.
    pub cells_active: u64,
}

impl PruneStats {
    /// Fraction of cells the scan evaluated.
    pub fn active_fraction(&self) -> f64 {
        if self.cells_total == 0 {
            return 0.0;
        }
        self.cells_active as f64 / self.cells_total as f64
    }
}

/// Pruning-based forward scan (Wu et al. \[77\]): per row, only the column
/// interval whose mass is within `threshold` (relative) of the running row
/// maximum is evaluated; everything outside is treated as zero.
///
/// Returns the (approximate) `ln P` and the pruning statistics. With the
/// default threshold the likelihood matches [`forward_f64`] to well under
/// 0.1%.
///
/// # Panics
///
/// Panics if `quals.len() != read.len()`, either sequence is empty, or
/// `threshold` is not in `(0, 1)`.
pub fn forward_pruned(
    read: &DnaSeq,
    quals: &[u8],
    haplotype: &DnaSeq,
    params: &PairHmmParams,
    threshold: f64,
) -> (f64, PruneStats) {
    assert_eq!(read.len(), quals.len(), "one quality per read base");
    assert!(!read.is_empty() && !haplotype.is_empty(), "empty input");
    assert!(threshold > 0.0 && threshold < 1.0, "threshold in (0,1)");
    let t = params.transitions();
    let m = read.len();
    let n = haplotype.len();
    let mut fm = vec![vec![0f64; n + 1]; m + 1];
    let mut fi = vec![vec![0f64; n + 1]; m + 1];
    let mut fd = vec![vec![0f64; n + 1]; m + 1];
    fd[0].fill(1.0 / n as f64);
    let (mut lo, mut hi) = (1usize, n);
    let mut active = 0u64;
    for i in 1..=m {
        let eps = base_error(quals[i - 1]);
        let mut row_max = 0f64;
        for j in lo..=hi {
            let prior = if read[i - 1] == haplotype[j - 1] {
                1.0 - eps
            } else {
                eps / 3.0
            };
            fm[i][j] = prior
                * (t.mm * fm[i - 1][j - 1] + t.im * fi[i - 1][j - 1] + t.dm * fd[i - 1][j - 1]);
            fi[i][j] = t.mi * fm[i - 1][j] + t.ii * fi[i - 1][j];
            fd[i][j] = t.md * fm[i][j - 1] + t.dd * fd[i][j - 1];
            row_max = row_max.max(fm[i][j]).max(fi[i][j]).max(fd[i][j]);
            active += 1;
        }
        // Shrink the active window for the next row: cells whose three
        // states all fall below threshold * row_max cannot recover.
        let cut = row_max * threshold;
        let mut new_lo = lo;
        while new_lo < hi && fm[i][new_lo] < cut && fi[i][new_lo] < cut && fd[i][new_lo] < cut {
            new_lo += 1;
        }
        let mut new_hi = hi;
        while new_hi > new_lo && fm[i][new_hi] < cut && fi[i][new_hi] < cut && fd[i][new_hi] < cut {
            new_hi -= 1;
        }
        lo = new_lo;
        hi = (new_hi + 1).min(n); // allow one column of growth rightwards
    }
    let total: f64 = (0..=n).map(|j| fm[m][j] + fi[m][j]).sum();
    (
        total.ln(),
        PruneStats {
            cells_total: (m as u64) * (n as u64),
            cells_active: active,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gendp_seq::{Genome, HaplotypeProfile};
    use rand::{rngs::SmallRng, SeedableRng};

    fn sample_pair(seed: u64) -> (DnaSeq, Vec<u8>, DnaSeq) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = Genome::random(2_000, &mut rng);
        let p = HaplotypeProfile::gatk_like()
            .sample(&g, 1, &mut rng)
            .remove(0);
        (p.read.seq.clone(), p.read.quals.clone(), p.haplotype)
    }

    #[test]
    fn likelihood_is_negative_and_finite() {
        let (r, q, h) = sample_pair(1);
        let ll = forward_f64(&r, &q, &h, &PairHmmParams::gatk());
        assert!(ll.is_finite());
        assert!(ll < 0.0);
    }

    #[test]
    fn matching_read_outscores_random_read() {
        let mut rng = SmallRng::seed_from_u64(2);
        let (r, q, h) = sample_pair(2);
        let random_read = DnaSeq::random(r.len(), &mut rng);
        let p = PairHmmParams::gatk();
        let ll_true = forward_f64(&r, &q, &h, &p);
        let ll_rand = forward_f64(&random_read, &q, &h, &p);
        assert!(
            ll_true > ll_rand + 10.0,
            "true {ll_true} vs random {ll_rand}"
        );
    }

    #[test]
    fn log_fixed_tracks_f64() {
        let p = PairHmmParams::gatk();
        for seed in 3..9 {
            let (r, q, h) = sample_pair(seed);
            let ll = forward_f64(&r, &q, &h, &p);
            let scale = 1024;
            let fx = forward_log_fixed(&r, &q, &h, &p, scale);
            let fx_ln = fx as f64 / scale as f64;
            let err = (fx_ln - ll).abs();
            assert!(
                err < 0.5,
                "seed {seed}: f64 {ll} vs fixed {fx_ln} (err {err})"
            );
        }
    }

    #[test]
    fn larger_scale_is_more_accurate() {
        let p = PairHmmParams::gatk();
        let (r, q, h) = sample_pair(10);
        let ll = forward_f64(&r, &q, &h, &p);
        let err_small = (forward_log_fixed(&r, &q, &h, &p, 64) as f64 / 64.0 - ll).abs();
        let err_large = (forward_log_fixed(&r, &q, &h, &p, 4096) as f64 / 4096.0 - ll).abs();
        assert!(err_large <= err_small + 0.05, "{err_small} -> {err_large}");
    }

    #[test]
    fn f32_forward_tracks_f64() {
        let p = PairHmmParams::gatk();
        for seed in 30..34 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let g = Genome::random(200, &mut rng);
            let hap = g.window(0, 20);
            let read = g.window(2, 12);
            let quals = vec![30u8; read.len()];
            let f64v = forward_f64(&read, &quals, &hap, &p);
            let f32v = forward_f32(&read, &quals, &hap, &p);
            assert!(f32v > 0.0, "underflow at this size would be a bug");
            let rel = ((f32v as f64).ln() - f64v).abs();
            assert!(rel < 1e-3, "seed {seed}: {rel}");
        }
    }

    #[test]
    fn pruning_preserves_likelihood_and_skips_cells() {
        let p = PairHmmParams::gatk();
        let mut skipped_any = false;
        for seed in 11..17 {
            let (r, q, h) = sample_pair(seed);
            let full = forward_f64(&r, &q, &h, &p);
            let (pruned, stats) = forward_pruned(&r, &q, &h, &p, 1e-12);
            let rel = ((pruned - full) / full).abs();
            assert!(rel < 1e-3, "seed {seed}: {full} vs {pruned}");
            assert!(stats.cells_active <= stats.cells_total);
            if stats.cells_active < stats.cells_total {
                skipped_any = true;
            }
        }
        assert!(skipped_any, "pruning never skipped a cell");
    }

    #[test]
    fn prune_stats_fraction() {
        let s = PruneStats {
            cells_total: 100,
            cells_active: 40,
        };
        assert_eq!(s.active_fraction(), 0.4);
        assert_eq!(
            PruneStats {
                cells_total: 0,
                cells_active: 0
            }
            .active_fraction(),
            0.0
        );
    }

    #[test]
    #[should_panic(expected = "one quality per read base")]
    fn mismatched_quals_panic() {
        let (r, _, h) = sample_pair(20);
        forward_f64(&r, &[30], &h, &PairHmmParams::gatk());
    }
}
