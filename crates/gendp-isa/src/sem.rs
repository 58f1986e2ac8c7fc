//! Execution semantics of the compute operations.
//!
//! Both the DFG reference evaluator (`gendp-dfg`) and the DPAx simulator
//! (`gendp-dpax`) apply operations through [`apply`], so functional results
//! agree by construction.

use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

use crate::compute::ComputeOp;
use crate::word::{Mode, Word};

/// Configuration of the per-PE lookup tables (paper Table 4: Match Score,
/// Log2 LUT, Log_sum LUT).
///
/// The score table implements `scoretable(a, b)`: `eq` when the two inputs
/// compare equal, `ne` otherwise. In BSW/POA these are the match/mismatch
/// scores; in the log-domain PairHMM they are the scaled log emission priors
/// `ln(1-3ε)` and `ln(ε)`.
///
/// The Log_sum LUT serves the log-domain PairHMM at a fixed-point scale
/// `S` ([`with_logsum_scale`](Self::with_logsum_scale)): values represent
/// `S · ln(p)` and the table holds the log-sum-exp correction
/// `round(S · ln(1 + e^(−d/S)))`. Like the hardware, it is a lookup table:
/// every `Luts` of one scale shares one table, filled once per process.
#[derive(Clone)]
pub struct Luts {
    /// Score-table output when the operands are equal.
    pub score_eq: Word,
    /// Score-table output when the operands differ.
    pub score_ne: Word,
    /// Fixed-point scale of the log-domain representation.
    logsum_scale: i32,
    /// The Log_sum table for `logsum_scale` up to its first zero, or
    /// `None` above [`LOGSUM_TABLE_MAX_SCALE`].
    logsum: Option<Arc<[i32]>>,
}

/// The largest scale that gets a Log_sum table. A table holds about
/// `S · ln(2S)` words (1,597 at the default 256, 36,909 here); the scale
/// can arrive from the wire, so larger ones compute the correction on
/// every lookup.
const LOGSUM_TABLE_MAX_SCALE: i32 = 4096;

/// Tables kept for distinct scales; a further scale evicts the oldest.
const LOGSUM_TABLES: usize = 8;

impl Default for Luts {
    fn default() -> Self {
        // Neutral alignment scores: +1 match, -1 mismatch, unit log scale.
        Luts {
            score_eq: Word::from_i32(1),
            score_ne: Word::from_i32(-1),
            logsum_scale: 256,
            logsum: logsum_table(256),
        }
    }
}

impl PartialEq for Luts {
    fn eq(&self, other: &Self) -> bool {
        // The table is a function of the scale.
        (self.score_eq, self.score_ne, self.logsum_scale)
            == (other.score_eq, other.score_ne, other.logsum_scale)
    }
}

impl fmt::Debug for Luts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Luts")
            .field("score_eq", &self.score_eq)
            .field("score_ne", &self.score_ne)
            .field("logsum_scale", &self.logsum_scale)
            .finish_non_exhaustive()
    }
}

impl Luts {
    /// Builds a score table for integer match/mismatch scores.
    pub fn with_scores(eq: i32, ne: i32) -> Self {
        Luts {
            score_eq: Word::from_i32(eq),
            score_ne: Word::from_i32(ne),
            ..Luts::default()
        }
    }

    /// Builds a score table holding `f32` values (FP PE array).
    pub fn with_scores_f32(eq: f32, ne: f32) -> Self {
        Luts {
            score_eq: Word::from_f32(eq),
            score_ne: Word::from_f32(ne),
            ..Luts::default()
        }
    }

    /// The same tables with the Log_sum LUT at fixed-point scale `scale`.
    pub fn with_logsum_scale(self, scale: i32) -> Self {
        Luts {
            logsum_scale: scale,
            logsum: logsum_table(scale),
            ..self
        }
    }

    /// The fixed-point scale of the log-domain representation.
    pub fn logsum_scale(&self) -> i32 {
        self.logsum_scale
    }

    /// The log-sum-exp correction `round(S · ln(1 + e^(−d/S)))` for a
    /// non-negative scaled difference `d` (clamped at 0 for negative input).
    pub fn logsum_correction(&self, d: i32) -> i32 {
        match &self.logsum {
            // The correction falls with `d`, so it is 0 past the table.
            Some(table) => table.get(d.max(0) as usize).copied().unwrap_or(0),
            None => logsum_exact(self.logsum_scale, d),
        }
    }
}

/// The Log_sum correction, computed.
fn logsum_exact(scale: i32, d: i32) -> i32 {
    let s = scale as f64;
    let d = d.max(0) as f64;
    (s * (1.0 + (-d / s).exp()).ln()).round() as i32
}

/// The shared Log_sum table of `scale`, filled on first use; `None` for a
/// scale that gets none.
fn logsum_table(scale: i32) -> Option<Arc<[i32]>> {
    static TABLES: Mutex<Vec<(i32, Arc<[i32]>)>> = Mutex::new(Vec::new());
    if !(1..=LOGSUM_TABLE_MAX_SCALE).contains(&scale) {
        return None;
    }
    let find = |tables: &[(i32, Arc<[i32]>)]| {
        let found = tables.iter().find(|(s, _)| *s == scale);
        found.map(|(_, table)| Arc::clone(table))
    };
    if let Some(table) = find(&TABLES.lock().unwrap_or_else(PoisonError::into_inner)) {
        return Some(table);
    }
    // Filled outside the lock, so a fill never stalls other lookups; a
    // racing fill of the same scale is identical, and the first stored
    // wins.
    let table: Arc<[i32]> = (0..)
        .map(|d| logsum_exact(scale, d))
        .take_while(|&c| c != 0)
        .collect();
    let mut tables = TABLES.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(stored) = find(&tables) {
        return Some(stored);
    }
    if tables.len() == LOGSUM_TABLES {
        tables.remove(0);
    }
    tables.push((scale, Arc::clone(&table)));
    Some(table)
}

/// Integer log2 lookup: `floor(log2(x)) >> 1` as in the minimap2 chaining
/// gap cost (`0.5 * log2(dd)` truncated to an integer); zero for `x <= 1`.
pub fn ilog2_half(x: i32) -> i32 {
    if x <= 1 {
        0
    } else {
        (31 - x.leading_zeros() as i32) >> 1
    }
}

fn sat8(v: i32) -> i8 {
    v.clamp(i8::MIN as i32, i8::MAX as i32) as i8
}

fn sat16(v: i32) -> i16 {
    v.clamp(i16::MIN as i32, i16::MAX as i32) as i16
}

#[inline(always)]
pub(crate) fn apply_i16(op: ComputeOp, ins: &[i16], luts: &Luts) -> i16 {
    match op {
        ComputeOp::Add => sat16(ins[0] as i32 + ins[1] as i32),
        ComputeOp::Sub => sat16(ins[0] as i32 - ins[1] as i32),
        ComputeOp::Mul => sat16(ins[0] as i32 * ins[1] as i32),
        ComputeOp::Carry => i16::from((ins[0] as u16 as u32 + ins[1] as u16 as u32) > 0xffff),
        ComputeOp::Borrow => i16::from(ins[0] < ins[1]),
        ComputeOp::Max => ins[0].max(ins[1]),
        ComputeOp::Min => ins[0].min(ins[1]),
        ComputeOp::Copy => ins[0],
        ComputeOp::MatchScore => {
            if ins[0] == ins[1] {
                sat16(luts.score_eq.as_i32())
            } else {
                sat16(luts.score_ne.as_i32())
            }
        }
        ComputeOp::Log2Lut => sat16(ilog2_half(ins[0] as i32)),
        ComputeOp::LogSumLut => sat16(luts.logsum_correction(ins[0] as i32)),
        ComputeOp::SelectGt => {
            if ins[0] > ins[1] {
                ins[2]
            } else {
                ins[3]
            }
        }
        ComputeOp::SelectEq => {
            if ins[0] == ins[1] {
                ins[2]
            } else {
                ins[3]
            }
        }
        // Whole-word shifts are not lane operations; handled by the caller.
        ComputeOp::Shl16 | ComputeOp::Shr16 => 0,
        ComputeOp::Nop | ComputeOp::Halt => 0,
    }
}

#[inline]
pub(crate) fn apply_i32(op: ComputeOp, ins: &[i32], luts: &Luts) -> i32 {
    match op {
        ComputeOp::Add => ins[0].wrapping_add(ins[1]),
        ComputeOp::Sub => ins[0].wrapping_sub(ins[1]),
        ComputeOp::Mul => ins[0].wrapping_mul(ins[1]),
        ComputeOp::Carry => (((ins[0] as u32 as u64) + (ins[1] as u32 as u64)) >> 32) as i32,
        ComputeOp::Borrow => i32::from(ins[0] < ins[1]),
        ComputeOp::Max => ins[0].max(ins[1]),
        ComputeOp::Min => ins[0].min(ins[1]),
        ComputeOp::Shl16 => ins[0] << 16,
        ComputeOp::Shr16 => ins[0] >> 16,
        ComputeOp::Copy => ins[0],
        ComputeOp::MatchScore => {
            if ins[0] == ins[1] {
                luts.score_eq.as_i32()
            } else {
                luts.score_ne.as_i32()
            }
        }
        ComputeOp::Log2Lut => ilog2_half(ins[0]),
        ComputeOp::LogSumLut => luts.logsum_correction(ins[0]),
        ComputeOp::SelectGt => {
            if ins[0] > ins[1] {
                ins[2]
            } else {
                ins[3]
            }
        }
        ComputeOp::SelectEq => {
            if ins[0] == ins[1] {
                ins[2]
            } else {
                ins[3]
            }
        }
        ComputeOp::Nop | ComputeOp::Halt => 0,
    }
}

#[inline(always)]
pub(crate) fn apply_i8(op: ComputeOp, ins: &[i8], luts: &Luts) -> i8 {
    match op {
        ComputeOp::Add => sat8(ins[0] as i32 + ins[1] as i32),
        ComputeOp::Sub => sat8(ins[0] as i32 - ins[1] as i32),
        ComputeOp::Mul => sat8(ins[0] as i32 * ins[1] as i32),
        ComputeOp::Carry => i8::from((ins[0] as u8 as u16 + ins[1] as u8 as u16) > 0xff),
        ComputeOp::Borrow => i8::from(ins[0] < ins[1]),
        ComputeOp::Max => ins[0].max(ins[1]),
        ComputeOp::Min => ins[0].min(ins[1]),
        ComputeOp::Copy => ins[0],
        ComputeOp::MatchScore => {
            if ins[0] == ins[1] {
                sat8(luts.score_eq.as_i32())
            } else {
                sat8(luts.score_ne.as_i32())
            }
        }
        ComputeOp::Log2Lut => sat8(ilog2_half(ins[0] as i32)),
        ComputeOp::LogSumLut => sat8(luts.logsum_correction(ins[0] as i32)),
        ComputeOp::SelectGt => {
            if ins[0] > ins[1] {
                ins[2]
            } else {
                ins[3]
            }
        }
        ComputeOp::SelectEq => {
            if ins[0] == ins[1] {
                ins[2]
            } else {
                ins[3]
            }
        }
        // Whole-word shifts are not lane operations; handled by the caller.
        ComputeOp::Shl16 | ComputeOp::Shr16 => 0,
        ComputeOp::Nop | ComputeOp::Halt => 0,
    }
}

#[inline(always)]
pub(crate) fn apply_f32(op: ComputeOp, ins: &[Word], luts: &Luts) -> f32 {
    let f = |i: usize| ins[i].as_f32();
    match op {
        ComputeOp::Add => f(0) + f(1),
        ComputeOp::Sub => f(0) - f(1),
        ComputeOp::Mul => f(0) * f(1),
        ComputeOp::Carry => 0.0,
        ComputeOp::Borrow => f32::from(u8::from(f(0) < f(1))),
        ComputeOp::Max => f(0).max(f(1)),
        ComputeOp::Min => f(0).min(f(1)),
        ComputeOp::Shl16 => f(0) * 65536.0,
        ComputeOp::Shr16 => f(0) / 65536.0,
        ComputeOp::Copy => f(0),
        // Bases are carried as small integers even on the FP array, so the
        // score-table comparison is on the raw bits.
        ComputeOp::MatchScore => {
            if ins[0] == ins[1] {
                luts.score_eq.as_f32()
            } else {
                luts.score_ne.as_f32()
            }
        }
        ComputeOp::Log2Lut => f(0).log2() * 0.5,
        ComputeOp::LogSumLut => (1.0 + (-f(0)).exp()).ln(),
        ComputeOp::SelectGt => {
            if f(0) > f(1) {
                f(2)
            } else {
                f(3)
            }
        }
        ComputeOp::SelectEq => {
            if ins[0] == ins[1] {
                f(2)
            } else {
                f(3)
            }
        }
        ComputeOp::Nop | ComputeOp::Halt => 0.0,
    }
}

/// Applies one compute operation to its inputs under the given arithmetic
/// mode and lookup-table configuration.
///
/// # Panics
///
/// Panics if fewer inputs are supplied than [`ComputeOp::arity`] requires.
///
/// ```
/// use gendp_isa::{apply, ComputeOp, Luts, Mode, Word};
///
/// let luts = Luts::default();
/// let w = apply(ComputeOp::Max, Mode::Int32, &[Word::from_i32(3), Word::from_i32(9)], &luts);
/// assert_eq!(w.as_i32(), 9);
/// ```
pub fn apply(op: ComputeOp, mode: Mode, ins: &[Word], luts: &Luts) -> Word {
    assert!(
        ins.len() >= op.arity(),
        "{op} needs {} inputs, got {}",
        op.arity(),
        ins.len()
    );
    // ALU steps run once per compute slot per cycle: the input conversions
    // stay on the stack (no op reads more than MAX_INS inputs), keeping
    // the simulation loop allocation-free.
    const MAX_INS: usize = 8;
    let n = ins.len().min(MAX_INS);
    match mode {
        Mode::Int32 => {
            let mut iv = [0i32; MAX_INS];
            for (slot, w) in iv.iter_mut().zip(ins) {
                *slot = w.as_i32();
            }
            Word::from_i32(apply_i32(op, &iv[..n], luts))
        }
        Mode::Int8x4 => {
            if matches!(op, ComputeOp::Shl16 | ComputeOp::Shr16) {
                // Whole-word shift even in SIMD mode.
                let v = ins[0].as_i32();
                return Word::from_i32(if op == ComputeOp::Shl16 {
                    v << 16
                } else {
                    v >> 16
                });
            }
            let mut lanes = [[0i8; 4]; MAX_INS];
            for (slot, w) in lanes.iter_mut().zip(ins) {
                *slot = w.as_lanes();
            }
            let mut out = [0i8; 4];
            for (lane, slot) in out.iter_mut().enumerate() {
                let mut lv = [0i8; MAX_INS];
                for (s, l) in lv.iter_mut().zip(&lanes[..n]) {
                    *s = l[lane];
                }
                *slot = apply_i8(op, &lv[..n], luts);
            }
            Word::from_lanes(out)
        }
        Mode::Int16x2 => {
            if matches!(op, ComputeOp::Shl16 | ComputeOp::Shr16) {
                let v = ins[0].as_i32();
                return Word::from_i32(if op == ComputeOp::Shl16 {
                    v << 16
                } else {
                    v >> 16
                });
            }
            let mut halves = [[0i16; 2]; MAX_INS];
            for (slot, w) in halves.iter_mut().zip(ins) {
                *slot = w.as_halves();
            }
            let mut out = [0i16; 2];
            for (lane, slot) in out.iter_mut().enumerate() {
                let mut lv = [0i16; MAX_INS];
                for (s, h) in lv.iter_mut().zip(&halves[..n]) {
                    *s = h[lane];
                }
                *slot = apply_i16(op, &lv[..n], luts);
            }
            Word::from_halves(out)
        }
        Mode::Float32 => Word::from_f32(apply_f32(op, ins, luts)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(v: i32) -> Word {
        Word::from_i32(v)
    }

    #[test]
    fn int32_arithmetic() {
        let l = Luts::default();
        let ap = |op, ins: &[i32]| {
            apply(
                op,
                Mode::Int32,
                &ins.iter().map(|&v| w(v)).collect::<Vec<_>>(),
                &l,
            )
            .as_i32()
        };
        assert_eq!(ap(ComputeOp::Add, &[2, 3]), 5);
        assert_eq!(ap(ComputeOp::Sub, &[2, 3]), -1);
        assert_eq!(ap(ComputeOp::Mul, &[-4, 3]), -12);
        assert_eq!(ap(ComputeOp::Max, &[2, 3]), 3);
        assert_eq!(ap(ComputeOp::Min, &[2, 3]), 2);
        assert_eq!(ap(ComputeOp::Borrow, &[2, 3]), 1);
        assert_eq!(ap(ComputeOp::Borrow, &[3, 3]), 0);
        assert_eq!(ap(ComputeOp::Shl16, &[1]), 1 << 16);
        assert_eq!(ap(ComputeOp::Shr16, &[-(1 << 16)]), -1);
        assert_eq!(ap(ComputeOp::Copy, &[42]), 42);
        assert_eq!(ap(ComputeOp::SelectGt, &[5, 3, 10, 20]), 10);
        assert_eq!(ap(ComputeOp::SelectGt, &[3, 5, 10, 20]), 20);
        assert_eq!(ap(ComputeOp::SelectEq, &[5, 5, 10, 20]), 10);
        assert_eq!(ap(ComputeOp::SelectEq, &[5, 6, 10, 20]), 20);
    }

    #[test]
    fn int32_overflow_wraps() {
        let l = Luts::default();
        let r = apply(ComputeOp::Add, Mode::Int32, &[w(i32::MAX), w(1)], &l);
        assert_eq!(r.as_i32(), i32::MIN);
    }

    #[test]
    fn carry_semantics() {
        let l = Luts::default();
        let r = apply(ComputeOp::Carry, Mode::Int32, &[w(-1), w(1)], &l);
        assert_eq!(r.as_i32(), 1, "0xffffffff + 1 carries");
        let r = apply(ComputeOp::Carry, Mode::Int32, &[w(1), w(2)], &l);
        assert_eq!(r.as_i32(), 0);
    }

    #[test]
    fn match_score_table() {
        let l = Luts::with_scores(2, -3);
        let m = apply(ComputeOp::MatchScore, Mode::Int32, &[w(1), w(1)], &l);
        assert_eq!(m.as_i32(), 2);
        let x = apply(ComputeOp::MatchScore, Mode::Int32, &[w(1), w(2)], &l);
        assert_eq!(x.as_i32(), -3);
    }

    #[test]
    fn ilog2_half_matches_minimap2_term() {
        assert_eq!(ilog2_half(0), 0);
        assert_eq!(ilog2_half(1), 0);
        assert_eq!(ilog2_half(2), 0); // floor(log2(2))>>1 = 0
        assert_eq!(ilog2_half(4), 1);
        assert_eq!(ilog2_half(1024), 5);
        for x in 2..5000 {
            let expect = ((x as f64).log2().floor() as i32) >> 1;
            assert_eq!(ilog2_half(x), expect, "x={x}");
        }
    }

    #[test]
    fn logsum_correction_approximates_log1pexp() {
        let l = Luts::default(); // S = 256
                                 // d = 0: ln(2) * 256 ≈ 177
        assert_eq!(l.logsum_correction(0), 177);
        // Large d: correction tends to 0.
        assert_eq!(l.logsum_correction(10_000), 0);
        // Negative input clamps to d = 0.
        assert_eq!(l.logsum_correction(-5), l.logsum_correction(0));
    }

    #[test]
    fn logsum_tables_equal_the_computed_correction() {
        for scale in [1, 2, 3, 100, 256, 1000, 1024, LOGSUM_TABLE_MAX_SCALE] {
            let l = Luts::default().with_logsum_scale(scale);
            let len = l.logsum.as_ref().expect("a tabulated scale").len() as i32;
            for d in (-64..len + 4 * scale).chain([i32::MIN, -1 << 20, 1 << 20, i32::MAX]) {
                assert_eq!(
                    l.logsum_correction(d),
                    logsum_exact(scale, d),
                    "scale {scale}, d {d}"
                );
            }
        }
        // One table per scale, shared.
        let (a, b) = (Luts::with_scores(2, -3), Luts::default());
        assert!(Arc::ptr_eq(
            a.logsum.as_ref().unwrap(),
            b.logsum.as_ref().unwrap()
        ));
        // Scales past the cap, and those that make no table, compute.
        for scale in [LOGSUM_TABLE_MAX_SCALE + 1, i32::MAX, 0, -5] {
            let l = Luts::default().with_logsum_scale(scale);
            assert!(l.logsum.is_none(), "scale {scale}");
            assert_eq!(l.logsum_scale(), scale);
            for d in [i32::MIN, -3, 0, 1, 999, i32::MAX] {
                assert_eq!(l.logsum_correction(d), logsum_exact(scale, d));
            }
        }
    }

    #[test]
    fn simd_lanes_saturate_independently() {
        let l = Luts::default();
        let a = Word::from_lanes([120, -120, 1, 2]);
        let b = Word::from_lanes([30, -30, 1, 2]);
        let r = apply(ComputeOp::Add, Mode::Int8x4, &[a, b], &l);
        assert_eq!(r.as_lanes(), [127, -128, 2, 4]);
        let m = apply(ComputeOp::Max, Mode::Int8x4, &[a, b], &l);
        assert_eq!(m.as_lanes(), [120, -30, 1, 2]);
    }

    #[test]
    fn simd_match_score_per_lane() {
        let l = Luts::with_scores(1, -4);
        let a = Word::from_lanes([0, 1, 2, 3]);
        let b = Word::from_lanes([0, 2, 2, 0]);
        let r = apply(ComputeOp::MatchScore, Mode::Int8x4, &[a, b], &l);
        assert_eq!(r.as_lanes(), [1, -4, 1, -4]);
    }

    #[test]
    fn simd16_halves_saturate_independently() {
        let l = Luts::default();
        let a = Word::from_halves([32000, -32000]);
        let b = Word::from_halves([1000, -1000]);
        let r = apply(ComputeOp::Add, Mode::Int16x2, &[a, b], &l);
        assert_eq!(r.as_halves(), [32767, -32768]);
        let m = apply(ComputeOp::Max, Mode::Int16x2, &[a, b], &l);
        assert_eq!(m.as_halves(), [32000, -1000]);
    }

    #[test]
    fn simd16_match_score_per_half() {
        let l = Luts::with_scores(2, -5);
        let a = Word::from_halves([3, 1]);
        let b = Word::from_halves([3, 2]);
        let r = apply(ComputeOp::MatchScore, Mode::Int16x2, &[a, b], &l);
        assert_eq!(r.as_halves(), [2, -5]);
    }

    #[test]
    fn float_mode() {
        let l = Luts::with_scores_f32(0.9, 0.1);
        let a = Word::from_f32(2.0);
        let b = Word::from_f32(3.0);
        let ap = |op| apply(op, Mode::Float32, &[a, b], &l).as_f32();
        assert_eq!(ap(ComputeOp::Add), 5.0);
        assert_eq!(ap(ComputeOp::Mul), 6.0);
        assert_eq!(ap(ComputeOp::Max), 3.0);
        let m = apply(
            ComputeOp::MatchScore,
            Mode::Float32,
            &[Word::from_i32(2), Word::from_i32(2)],
            &l,
        );
        assert_eq!(m.as_f32(), 0.9);
    }

    #[test]
    #[should_panic(expected = "needs 2 inputs")]
    fn too_few_inputs_panics() {
        apply(ComputeOp::Add, Mode::Int32, &[Word::ZERO], &Luts::default());
    }
}
