//! Lane-parallel evaluation of compute programs: one compute activation
//! for several register files at once.
//!
//! The PEs of one array own consecutive rows, so at any moment their
//! cells lie on one anti-diagonal of the table and do not depend on each
//! other (paper §3, Fig. 5). [`eval_lanes`] evaluates a compute program
//! for [`LANES`] such register files side by side: the files are kept as
//! a structure of arrays, one `[Word; LANES]` per register slot, and each
//! VLIW word is evaluated once for all of them.
//!
//! Each ALU op is matched once per slot; the matched arm then applies the
//! scalar step the other evaluators use — the `i32` step of
//! [`eval_cell`](crate::eval_cell) and the per-lane, per-half or float
//! semantics of [`apply`](crate::apply) — to every lane, with the op fixed,
//! so the step's own match folds away and the loop runs over a width known
//! at compile time. Lane `l` of every result is therefore the word
//! [`eval_cell`](crate::eval_cell) would compute on register file `l`.
//!
//! Only the `active` lanes are written: on some steps of a sweep a PE has
//! no cell to compute (before its first row, after its last, or between
//! the rows of a table narrower than the array), and its file must stay
//! as it is.

use crate::decoded::{DecodedComputeProgram, DecodedCu, DecodedOperand, DecodedVliw};
use crate::functional::apply2_i32;
use crate::sem::{apply_f32, apply_i16, apply_i32, apply_i8, Luts};
use crate::word::{Mode, Word};
use crate::ComputeOp;

/// Register files [`eval_lanes`] evaluates at once.
pub const LANES: usize = 4;

/// One register slot of [`LANES`] register files: lane `l` is file `l`'s
/// word.
pub type LaneWords = [Word; LANES];

/// Which of [`LANES`] register files an evaluation writes.
pub type Lanes = [bool; LANES];

const ZERO: LaneWords = [Word::ZERO; LANES];

/// Expands `$body` once per listed compute op (every op by default) with
/// the constant `$k` bound to that op, so a scalar step called with `$k`
/// folds to the op's arm; any other op binds `$k` at run time.
macro_rules! fold_op {
    ($op:expr, $k:ident => $body:expr) => {
        fold_op!($op, $k => $body; Add Sub Mul Carry Borrow Max Min Shl16 Shr16 Copy
            MatchScore Log2Lut LogSumLut SelectGt SelectEq Nop Halt)
    };
    ($op:expr, $k:ident => $body:expr; $($name:ident)*) => {
        match $op {
            $(ComputeOp::$name => {
                #[allow(non_upper_case_globals)]
                const $k: ComputeOp = ComputeOp::$name;
                $body
            })*
            #[allow(unreachable_patterns)]
            $k => $body,
        }
    };
}

/// `[f(x[0]), f(x[1]), …]` over a fixed width, as a plain loop the
/// compiler unrolls and vectorizes.
#[inline(always)]
fn map<T: Copy + Default, U: Copy + Default, const N: usize>(
    x: [T; N],
    f: impl Fn(T) -> U,
) -> [U; N] {
    let mut out = [U::default(); N];
    for i in 0..N {
        out[i] = f(x[i]);
    }
    out
}

/// Zips two fixed-width arrays through `f`.
#[inline(always)]
fn map2<T: Copy + Default, U: Copy + Default, const N: usize>(
    a: [T; N],
    b: [T; N],
    f: impl Fn(T, T) -> U,
) -> [U; N] {
    let mut out = [U::default(); N];
    for i in 0..N {
        out[i] = f(a[i], b[i]);
    }
    out
}

/// Zips four fixed-width arrays through `f`.
#[inline(always)]
fn map4<T: Copy + Default, U: Copy + Default, const N: usize>(
    [a, b, c, d]: [[T; N]; 4],
    f: impl Fn([T; 4]) -> U,
) -> [U; N] {
    let mut out = [U::default(); N];
    for i in 0..N {
        out[i] = f([a[i], b[i], c[i], d[i]]);
    }
    out
}

/// One arithmetic mode's ALU step over a lane vector.
trait LaneAlu {
    /// A ≤2-input op; unary ops ignore `b`.
    fn alu2(op: ComputeOp, a: LaneWords, b: LaneWords, luts: &Luts) -> LaneWords;
    /// A 4-input op (the selects).
    fn alu4(op: ComputeOp, ins: [LaneWords; 4], luts: &Luts) -> LaneWords;
}

/// Scalar [`Mode::Int32`]: the `i32` step of [`eval_cell`](crate::eval_cell).
struct Int32;

fn ints(w: LaneWords) -> [i32; LANES] {
    map(w, Word::as_i32)
}

fn from_ints(v: [i32; LANES]) -> LaneWords {
    map(v, Word::from_i32)
}

impl LaneAlu for Int32 {
    #[inline(always)]
    fn alu2(op: ComputeOp, a: LaneWords, b: LaneWords, luts: &Luts) -> LaneWords {
        let (a, b) = (ints(a), ints(b));
        from_ints(fold_op!(op, k => map2(a, b, |x, y| apply2_i32(k, x, y, luts))))
    }

    #[inline(always)]
    fn alu4(op: ComputeOp, ins: [LaneWords; 4], luts: &Luts) -> LaneWords {
        let ins = ins.map(ints);
        from_ints(fold_op!(op, k => map4(ins, |x| apply_i32(k, &x, luts)); SelectGt SelectEq))
    }
}

/// The whole-word shifts, which stay 32-bit in the SIMD modes.
fn is_shift(op: ComputeOp) -> bool {
    matches!(op, ComputeOp::Shl16 | ComputeOp::Shr16)
}

/// [`Mode::Int8x4`]: the lanes' 16 bytes side by side, each through the
/// 8-bit step of [`apply`](crate::apply).
struct Int8x4;

#[inline(always)]
fn bytes(w: LaneWords) -> [i8; 4 * LANES] {
    let mut out = [0; 4 * LANES];
    for i in 0..4 * LANES {
        out[i] = (w[i / 4].0 >> (8 * (i % 4))) as u8 as i8;
    }
    out
}

#[inline(always)]
fn from_bytes(b: [i8; 4 * LANES]) -> LaneWords {
    let mut out = ZERO;
    for i in 0..4 * LANES {
        out[i / 4].0 |= u32::from(b[i] as u8) << (8 * (i % 4));
    }
    out
}

impl LaneAlu for Int8x4 {
    #[inline(always)]
    fn alu2(op: ComputeOp, a: LaneWords, b: LaneWords, luts: &Luts) -> LaneWords {
        if is_shift(op) {
            return Int32::alu2(op, a, b, luts);
        }
        let (a, b) = (bytes(a), bytes(b));
        from_bytes(fold_op!(op, k => map2(a, b, |x, y| apply_i8(k, &[x, y], luts))))
    }

    #[inline(always)]
    fn alu4(op: ComputeOp, ins: [LaneWords; 4], luts: &Luts) -> LaneWords {
        let ins = ins.map(bytes);
        from_bytes(fold_op!(op, k => map4(ins, |x| apply_i8(k, &x, luts)); SelectGt SelectEq))
    }
}

/// [`Mode::Int16x2`]: the lanes' 8 halves side by side, each through the
/// 16-bit step of [`apply`](crate::apply).
struct Int16x2;

#[inline(always)]
fn halves(w: LaneWords) -> [i16; 2 * LANES] {
    let mut out = [0; 2 * LANES];
    for i in 0..2 * LANES {
        out[i] = (w[i / 2].0 >> (16 * (i % 2))) as u16 as i16;
    }
    out
}

#[inline(always)]
fn from_halves(h: [i16; 2 * LANES]) -> LaneWords {
    let mut out = ZERO;
    for i in 0..2 * LANES {
        out[i / 2].0 |= u32::from(h[i] as u16) << (16 * (i % 2));
    }
    out
}

impl LaneAlu for Int16x2 {
    #[inline(always)]
    fn alu2(op: ComputeOp, a: LaneWords, b: LaneWords, luts: &Luts) -> LaneWords {
        if is_shift(op) {
            return Int32::alu2(op, a, b, luts);
        }
        let (a, b) = (halves(a), halves(b));
        from_halves(fold_op!(op, k => map2(a, b, |x, y| apply_i16(k, &[x, y], luts))))
    }

    #[inline(always)]
    fn alu4(op: ComputeOp, ins: [LaneWords; 4], luts: &Luts) -> LaneWords {
        let ins = ins.map(halves);
        from_halves(fold_op!(op, k => map4(ins, |x| apply_i16(k, &x, luts)); SelectGt SelectEq))
    }
}

/// [`Mode::Float32`]: the float step of [`apply`](crate::apply).
struct Float32;

impl LaneAlu for Float32 {
    #[inline(always)]
    fn alu2(op: ComputeOp, a: LaneWords, b: LaneWords, luts: &Luts) -> LaneWords {
        fold_op!(op, k => map2(a, b, |x, y| Word::from_f32(apply_f32(k, &[x, y], luts))))
    }

    #[inline(always)]
    fn alu4(op: ComputeOp, ins: [LaneWords; 4], luts: &Luts) -> LaneWords {
        fold_op!(op, k => map4(ins, |x| Word::from_f32(apply_f32(k, &x, luts))); SelectGt SelectEq)
    }
}

#[inline(always)]
fn operand(rfs: &[LaneWords], o: DecodedOperand) -> LaneWords {
    match o {
        DecodedOperand::Reg(r) => rfs[r as usize],
        DecodedOperand::Imm(w) => [w; LANES],
    }
}

/// Operand `k` of an ALU that consumes `n`, or zero past its arity.
#[inline(always)]
fn arg(rfs: &[LaneWords], ops: &[DecodedOperand], n: u8, k: usize) -> LaneWords {
    if usize::from(n) > k {
        operand(rfs, ops[k])
    } else {
        ZERO
    }
}

/// Evaluates one compute-unit slot against the pre-write register files,
/// returning its `(dest, values)` write (`None` for a `nop` slot). Only
/// the operands an ALU's arity consumes are read, as in
/// [`eval_cell`](crate::eval_cell).
#[inline(always)]
fn eval_slot<M: LaneAlu>(
    slot: &DecodedCu,
    luts: &Luts,
    rfs: &[LaneWords],
) -> Option<(u16, LaneWords)> {
    match slot {
        DecodedCu::Nop => None,
        DecodedCu::Mul { a, b, dest } => {
            let (a, b) = (operand(rfs, *a), operand(rfs, *b));
            Some((*dest, M::alu2(ComputeOp::Mul, a, b, luts)))
        }
        DecodedCu::Tree(t) => {
            let (w, wn) = (&t.wide_ins, t.wide_n);
            let a_out = match (t.wide_op, wn) {
                (ComputeOp::Nop, _) => ZERO,
                (op, 4) => {
                    let ins = [0, 1, 2, 3].map(|k| arg(rfs, w, wn, k));
                    M::alu4(op, ins, luts)
                }
                (op, _) => M::alu2(op, arg(rfs, w, wn, 0), arg(rfs, w, wn, 1), luts),
            };
            let (nw, nn) = (&t.narrow_ins, t.narrow_n);
            let b_out = match t.narrow_op {
                ComputeOp::Nop => ZERO,
                op => M::alu2(op, arg(rfs, nw, nn, 0), arg(rfs, nw, nn, 1), luts),
            };
            Some((t.dest, M::alu2(t.root_op, a_out, b_out, luts)))
        }
    }
}

/// Writes `v` into the lanes `mask` selects (every lane when `FULL`),
/// leaving the others as they are.
#[inline(always)]
fn store<const FULL: bool>(dst: &mut LaneWords, v: LaneWords, mask: &Lanes) {
    if FULL {
        *dst = v;
        return;
    }
    for l in 0..LANES {
        if mask[l] {
            dst[l] = v[l];
        }
    }
}

fn eval_words<M: LaneAlu, const FULL: bool>(
    words: &[DecodedVliw],
    luts: &Luts,
    rfs: &mut [LaneWords],
    mask: &Lanes,
) {
    for inst in words {
        // Reads before writes within a word: a dual-issue word buffers
        // both writes, a single-slot word commits its one write directly.
        let [s0, s1] = &inst.slots;
        let w0 = eval_slot::<M>(s0, luts, rfs);
        if matches!(s1, DecodedCu::Nop) {
            if let Some((d, v)) = w0 {
                store::<FULL>(&mut rfs[d as usize], v, mask);
            }
            continue;
        }
        let w1 = eval_slot::<M>(s1, luts, rfs);
        for (d, v) in [w0, w1].into_iter().flatten() {
            store::<FULL>(&mut rfs[d as usize], v, mask);
        }
    }
}

/// [`eval_words`] for one mode, with the all-lanes store when every lane
/// is active.
fn eval_mode<M: LaneAlu>(
    words: &[DecodedVliw],
    luts: &Luts,
    rfs: &mut [LaneWords],
    active: &Lanes,
) {
    if *active == [true; LANES] {
        eval_words::<M, true>(words, luts, rfs, active);
    } else {
        eval_words::<M, false>(words, luts, rfs, active);
    }
}

/// Runs one full compute activation of `program` for each `active` lane
/// of `rfs`, the register files kept slot by slot (lane `l` of `rfs[s]`
/// is slot `s` of file `l`). Each active lane ends as
/// [`eval_cell`](crate::eval_cell) would leave its file; the other lanes
/// are not written.
///
/// # Panics
///
/// Panics if the program names a register slot past `rfs` (as
/// [`eval_cell`](crate::eval_cell) does).
pub fn eval_lanes(
    program: &DecodedComputeProgram,
    mode: Mode,
    luts: &Luts,
    rfs: &mut [LaneWords],
    active: &Lanes,
) {
    let words = program.words();
    match mode {
        Mode::Int32 => eval_mode::<Int32>(words, luts, rfs, active),
        Mode::Int8x4 => eval_mode::<Int8x4>(words, luts, rfs, active),
        Mode::Int16x2 => eval_mode::<Int16x2>(words, luts, rfs, active),
        Mode::Float32 => eval_mode::<Float32>(words, luts, rfs, active),
    }
}

#[cfg(test)]
mod tests {
    use std::array;

    use super::*;
    use crate::apply;

    /// The packed 8-bit step against [`apply`], on every pair of byte
    /// values, for every two-input op: 16 pairs a call, one per byte of
    /// the four lanes.
    #[test]
    fn int8x4_step_matches_apply_on_every_byte_pair() {
        let luts = Luts::with_scores(3, -2);
        let word = |b: &[u8]| Word(u32::from_le_bytes([b[0], b[1], b[2], b[3]]));
        for op in ComputeOp::ALL.into_iter().filter(|op| op.arity() == 2) {
            for x in 0..=u8::MAX {
                for y0 in (0..=u8::MAX).step_by(4 * LANES) {
                    let ys: Vec<u8> = (y0..=y0 + (4 * LANES - 1) as u8).collect();
                    let a: LaneWords = [word(&[x; 4]); LANES];
                    let b: LaneWords = array::from_fn(|l| word(&ys[4 * l..4 * l + 4]));
                    let got = Int8x4::alu2(op, a, b, &luts);
                    for l in 0..LANES {
                        let want = apply(op, Mode::Int8x4, &[a[l], b[l]], &luts);
                        assert_eq!(got[l], want, "{op} on {x} and {:?}", &ys[4 * l..4 * l + 4]);
                    }
                }
            }
        }
    }
}
