//! Functional evaluation of compute programs: the arithmetic of one DP
//! cell, without the simulator.
//!
//! The interpreted engine in `gendp-dpax` charges every VLIW word a
//! cycle, tracks program counters and interlocks, and threads statistics
//! through each step. Neither the functional tier nor the decoded engine
//! needs that: a kernel's compute program is a straight-line sequence of
//! VLIW words whose only architectural effect is a set of register-file
//! writes, so evaluating a cell is just running every word once over a
//! register file slice.
//!
//! [`eval_cell`] is that evaluation, bit-identical to one full
//! compute-thread activation (`set cu 0` through program end) of the
//! interpreted engine; [`eval_activation`] starts the same evaluation at
//! any pc, and the decoded engine runs every `set cu` through it. Within
//! each VLIW word all operand reads happen before any write commits, `Nop`
//! first-level ALUs contribute zero to the root, and all arithmetic goes
//! through the same [`apply`] semantics the interpreter uses.
//!
//! Callers are expected to run programs whose register slots lie inside
//! the file: `gendp-verify` proves it before a driver lowers functionally,
//! and the decoded engine checks [`DecodedComputeProgram::regs_within`]
//! when a program is loaded. An out-of-range slot panics via normal slice
//! indexing rather than reproducing the simulator's `BadAccess` error.

use crate::decoded::{DecodedComputeProgram, DecodedCu, DecodedOperand, DecodedVliw};
use crate::sem::{apply, apply_i32, Luts};
use crate::word::{Mode, Word};
use crate::ComputeOp;

#[inline]
fn operand(rf: &[Word], o: DecodedOperand) -> Word {
    match o {
        DecodedOperand::Reg(r) => rf[r as usize],
        DecodedOperand::Imm(w) => w,
    }
}

#[inline]
fn eval_vliw(inst: &DecodedVliw, mode: Mode, luts: &Luts, rf: &mut [Word]) {
    // Reads before writes within the word, exactly like the simulators'
    // compute step. Each slot writes at most one register.
    let mut writes = [(0u16, Word::ZERO); crate::CU_PER_PE];
    let mut n_writes = 0usize;
    for slot in &inst.slots {
        match slot {
            DecodedCu::Nop => {}
            DecodedCu::Mul { a, b, dest } => {
                let av = operand(rf, *a);
                let bv = operand(rf, *b);
                writes[n_writes] = (*dest, apply(ComputeOp::Mul, mode, &[av, bv], luts));
                n_writes += 1;
            }
            DecodedCu::Tree(t) => {
                let wn = t.wide_n as usize;
                let mut wide = [Word::ZERO; 4];
                for (k, o) in t.wide_ins[..wn].iter().enumerate() {
                    wide[k] = operand(rf, *o);
                }
                let a_out = if t.wide_op == ComputeOp::Nop {
                    Word::ZERO
                } else {
                    apply(t.wide_op, mode, &wide[..wn], luts)
                };
                let nn = t.narrow_n as usize;
                let mut narrow = [Word::ZERO; 2];
                for (k, o) in t.narrow_ins[..nn].iter().enumerate() {
                    narrow[k] = operand(rf, *o);
                }
                let b_out = if t.narrow_op == ComputeOp::Nop {
                    Word::ZERO
                } else {
                    apply(t.narrow_op, mode, &narrow[..nn], luts)
                };
                writes[n_writes] = (t.dest, apply(t.root_op, mode, &[a_out, b_out], luts));
                n_writes += 1;
            }
        }
    }
    for &(d, w) in &writes[..n_writes] {
        rf[d as usize] = w;
    }
}

/// Reads one operand as a scalar.
#[inline]
fn operand_i32(rf: &[Word], o: DecodedOperand) -> i32 {
    match o {
        DecodedOperand::Reg(r) => rf[r as usize].as_i32(),
        DecodedOperand::Imm(w) => w.as_i32(),
    }
}

/// [`apply_i32`] for the ≤2-input case, on scalars: no operand slice to
/// build, no bounds checks to re-prove. Unary ops ignore `b`. The 4-ary
/// selects route back through the slice path so a malformed program
/// (arity exceeding the supplied inputs) panics exactly like the generic
/// evaluation would.
#[inline]
pub(crate) fn apply2_i32(op: ComputeOp, a: i32, b: i32, luts: &Luts) -> i32 {
    match op {
        ComputeOp::Add => a.wrapping_add(b),
        ComputeOp::Sub => a.wrapping_sub(b),
        ComputeOp::Mul => a.wrapping_mul(b),
        ComputeOp::Carry => (((a as u32 as u64) + (b as u32 as u64)) >> 32) as i32,
        ComputeOp::Borrow => i32::from(a < b),
        ComputeOp::Max => a.max(b),
        ComputeOp::Min => a.min(b),
        ComputeOp::Shl16 => a << 16,
        ComputeOp::Shr16 => a >> 16,
        ComputeOp::Copy => a,
        ComputeOp::MatchScore => {
            if a == b {
                luts.score_eq.as_i32()
            } else {
                luts.score_ne.as_i32()
            }
        }
        ComputeOp::Log2Lut => crate::sem::ilog2_half(a),
        ComputeOp::LogSumLut => luts.logsum_correction(a),
        ComputeOp::SelectGt | ComputeOp::SelectEq => apply_i32(op, &[a, b], luts),
        ComputeOp::Nop | ComputeOp::Halt => 0,
    }
}

/// Evaluates one compute-unit slot against the pre-write register file,
/// returning its `(dest, value)` write (`None` for a `nop` slot).
#[inline(always)]
fn eval_slot_i32(slot: &DecodedCu, luts: &Luts, rf: &[Word]) -> Option<(u16, i32)> {
    match slot {
        DecodedCu::Nop => None,
        DecodedCu::Mul { a, b, dest } => {
            let av = operand_i32(rf, *a);
            let bv = operand_i32(rf, *b);
            Some((*dest, av.wrapping_mul(bv)))
        }
        DecodedCu::Tree(t) => {
            let a_out = match (t.wide_op, t.wide_n) {
                (ComputeOp::Nop, _) => 0,
                (op, 1) => apply2_i32(op, operand_i32(rf, t.wide_ins[0]), 0, luts),
                (op, 2) => apply2_i32(
                    op,
                    operand_i32(rf, t.wide_ins[0]),
                    operand_i32(rf, t.wide_ins[1]),
                    luts,
                ),
                (op, wn) => {
                    let wn = wn as usize;
                    let mut wide = [0i32; 4];
                    for (k, o) in t.wide_ins[..wn].iter().enumerate() {
                        wide[k] = operand_i32(rf, *o);
                    }
                    apply_i32(op, &wide[..wn], luts)
                }
            };
            let b_out = match (t.narrow_op, t.narrow_n) {
                (ComputeOp::Nop, _) => 0,
                (op, 1) => apply2_i32(op, operand_i32(rf, t.narrow_ins[0]), 0, luts),
                (op, _) => apply2_i32(
                    op,
                    operand_i32(rf, t.narrow_ins[0]),
                    operand_i32(rf, t.narrow_ins[1]),
                    luts,
                ),
            };
            Some((t.dest, apply2_i32(t.root_op, a_out, b_out, luts)))
        }
    }
}

/// [`eval_vliw`] specialized to scalar [`Mode::Int32`] arithmetic: the
/// operands go straight to the `i32` ALU step, skipping the per-`apply`
/// mode dispatch, arity assertion and word-array conversions the generic
/// path pays three times per reduction tree, and ≤2-input ALUs (every op
/// except the 4-ary selects) evaluate on scalars without an operand
/// slice. A word with one active slot commits its write directly — the
/// slot's reads all happen before its single write by construction — so
/// only genuinely dual-issue words pay the read-before-write buffering.
/// `Word::from_i32` / `Word::as_i32` are free casts, so the results are
/// bit-identical to the generic evaluation by construction.
#[inline]
fn eval_vliw_i32(inst: &DecodedVliw, luts: &Luts, rf: &mut [Word]) {
    let [s0, s1] = &inst.slots;
    if matches!(s1, DecodedCu::Nop) {
        if let Some((d, w)) = eval_slot_i32(s0, luts, rf) {
            rf[d as usize] = Word::from_i32(w);
        }
        return;
    }
    let w0 = eval_slot_i32(s0, luts, rf);
    let w1 = eval_slot_i32(s1, luts, rf);
    if let Some((d, w)) = w0 {
        rf[d as usize] = Word::from_i32(w);
    }
    if let Some((d, w)) = w1 {
        rf[d as usize] = Word::from_i32(w);
    }
}

/// Runs one full compute-thread activation over `rf`: every VLIW word of
/// `program`, in order, with read-before-write semantics inside each word.
/// Bit-identical to the simulated engines' `set cu 0` → halt sequence.
/// Scalar [`Mode::Int32`] programs take the specialized ALU path; the
/// SIMD modes evaluate through the same [`apply`] the simulators use.
#[inline]
pub fn eval_cell(program: &DecodedComputeProgram, mode: Mode, luts: &Luts, rf: &mut [Word]) {
    eval_words(program.words(), mode, luts, rf);
}

/// Runs the compute activation a `set cu <pc>` starts: the words from `pc`
/// to the end of `program`, exactly as [`eval_cell`] runs them from 0.
///
/// # Panics
///
/// Panics if `pc` lies past the end of the program.
#[inline]
pub fn eval_activation(
    program: &DecodedComputeProgram,
    pc: usize,
    mode: Mode,
    luts: &Luts,
    rf: &mut [Word],
) {
    eval_words(&program.words()[pc..], mode, luts, rf);
}

#[inline]
fn eval_words(words: &[DecodedVliw], mode: Mode, luts: &Luts, rf: &mut [Word]) {
    if mode == Mode::Int32 {
        for inst in words {
            eval_vliw_i32(inst, luts, rf);
        }
        return;
    }
    for inst in words {
        eval_vliw(inst, mode, luts, rf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::{CuInst, Operand, TreeSlots, VliwInst};
    use crate::ComputeProgram;

    fn w(v: i32) -> Word {
        Word::from_i32(v)
    }

    #[test]
    fn straight_line_program_matches_hand_evaluation() {
        // rf[2] = rf[0] * rf[1]; rf[3] = max(rf[2], 10) in one word each.
        let mut p = ComputeProgram::new();
        p.push(VliwInst::single(CuInst::Mul {
            a: Operand::Reg(0),
            b: Operand::Reg(1),
            dest: 2,
        }));
        p.push(VliwInst::single(CuInst::Tree(TreeSlots {
            wide_op: ComputeOp::Max,
            wide_ins: [
                Operand::Reg(2),
                Operand::Imm(10),
                Operand::Imm(0),
                Operand::Imm(0),
            ],
            narrow_op: ComputeOp::Nop,
            narrow_ins: [Operand::Imm(0), Operand::Imm(0)],
            root_op: ComputeOp::Max,
            dest: 3,
        })));
        p.finish();
        let d = DecodedComputeProgram::decode(&p);
        let luts = Luts::default();
        let mut rf = vec![w(0); 8];
        rf[0] = w(6);
        rf[1] = w(7);
        eval_cell(&d, Mode::Int32, &luts, &mut rf);
        assert_eq!(rf[2], w(42));
        assert_eq!(rf[3], w(42));
        rf[0] = w(-1);
        eval_cell(&d, Mode::Int32, &luts, &mut rf);
        assert_eq!(rf[2], w(-7));
        assert_eq!(rf[3], w(10), "max against the 10 immediate");
    }

    #[test]
    fn reads_happen_before_writes_within_a_word() {
        // Both slots of one word read rf[0] and rf[1] and then swap them;
        // with read-before-write the swap is clean.
        let copy = |src: u16, dest: u16| {
            CuInst::Tree(TreeSlots {
                wide_op: ComputeOp::Copy,
                wide_ins: [
                    Operand::Reg(src),
                    Operand::Imm(0),
                    Operand::Imm(0),
                    Operand::Imm(0),
                ],
                narrow_op: ComputeOp::Nop,
                narrow_ins: [Operand::Imm(0), Operand::Imm(0)],
                root_op: ComputeOp::Max,
                dest,
            })
        };
        let mut p = ComputeProgram::new();
        p.push(VliwInst::pair(copy(0, 1), copy(1, 0)));
        p.finish();
        let d = DecodedComputeProgram::decode(&p);
        let mut rf = vec![w(11), w(22)];
        eval_cell(&d, Mode::Int32, &luts_zero(), &mut rf);
        assert_eq!(rf, vec![w(22), w(11)]);
    }

    fn luts_zero() -> Luts {
        Luts::default()
    }
}
