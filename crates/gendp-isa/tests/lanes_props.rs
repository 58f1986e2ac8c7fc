//! Property test: the lane evaluator computes, in every active lane, what
//! `eval_cell` computes on that lane's register file alone, and leaves
//! every other lane untouched — for random compute programs in all four
//! arithmetic modes.

use gendp_isa::{
    eval_cell, eval_lanes, ComputeOp, ComputeProgram, CuInst, DecodedComputeProgram, LaneWords,
    Lanes, Luts, Mode, Operand, TreeSlots, VliwInst, Word, LANES,
};
use proptest::prelude::*;

/// Register-file slots of the drawn programs: few, so operands often
/// read what earlier words wrote.
const SLOTS: u16 = 10;

/// Every op, `Nop` and `Halt` included.
const EVERY_OP: [ComputeOp; 17] = [
    ComputeOp::Add,
    ComputeOp::Sub,
    ComputeOp::Mul,
    ComputeOp::Carry,
    ComputeOp::Borrow,
    ComputeOp::Max,
    ComputeOp::Min,
    ComputeOp::Shl16,
    ComputeOp::Shr16,
    ComputeOp::Copy,
    ComputeOp::MatchScore,
    ComputeOp::Log2Lut,
    ComputeOp::LogSumLut,
    ComputeOp::SelectGt,
    ComputeOp::SelectEq,
    ComputeOp::Nop,
    ComputeOp::Halt,
];

/// Any op the 4-input ALU runs.
fn wide_op() -> impl Strategy<Value = ComputeOp> {
    (0..EVERY_OP.len()).prop_map(|i| EVERY_OP[i])
}

/// Any op of at most two inputs: what the 2-input and root ALUs run.
fn narrow_op() -> impl Strategy<Value = ComputeOp> {
    wide_op().prop_map(|op| if op.arity() > 2 { ComputeOp::Max } else { op })
}

fn operand() -> impl Strategy<Value = Operand> {
    prop_oneof![
        (0..SLOTS).prop_map(Operand::Reg),
        any::<i32>().prop_map(Operand::Imm),
        (-8i32..8).prop_map(Operand::Imm),
    ]
}

fn slot() -> impl Strategy<Value = CuInst> {
    prop_oneof![
        Just(CuInst::Nop),
        (operand(), operand(), 0..SLOTS).prop_map(|(a, b, dest)| CuInst::Mul { a, b, dest }),
        (
            wide_op(),
            prop::array::uniform4(operand()),
            narrow_op(),
            prop::array::uniform2(operand()),
            narrow_op(),
            0..SLOTS,
        )
            .prop_map(
                |(wide_op, wide_ins, narrow_op, narrow_ins, root_op, dest)| {
                    CuInst::Tree(TreeSlots {
                        wide_op,
                        wide_ins,
                        narrow_op,
                        narrow_ins,
                        root_op,
                        dest,
                    })
                }
            ),
    ]
}

/// The register a slot writes, if any.
fn dest(slot: &CuInst) -> Option<u16> {
    match slot {
        CuInst::Nop => None,
        CuInst::Mul { dest, .. } => Some(*dest),
        CuInst::Tree(t) => Some(t.dest),
    }
}

/// Makes `slot`'s first operand a read of `reg`.
fn read_from(slot: &mut CuInst, reg: u16) {
    match slot {
        CuInst::Nop => {}
        CuInst::Mul { a, .. } => *a = Operand::Reg(reg),
        CuInst::Tree(t) => {
            t.wide_ins[0] = Operand::Reg(reg);
            t.narrow_ins[0] = Operand::Reg(reg);
        }
    }
}

/// One VLIW word: one slot, or two; a dual-issue word's second slot may
/// read the first slot's destination, which it must see unwritten.
fn word() -> impl Strategy<Value = VliwInst> {
    (slot(), slot(), 0u8..3).prop_map(|(first, mut second, form)| match form {
        0 => VliwInst::single(first),
        1 => VliwInst::pair(first, second),
        _ => {
            if let Some(reg) = dest(&first) {
                read_from(&mut second, reg);
            }
            VliwInst::pair(first, second)
        }
    })
}

/// Which lanes run: all of them (the sweep's usual step) or any subset.
fn active_lanes() -> impl Strategy<Value = Lanes> {
    prop_oneof![
        Just([true; LANES]),
        prop::collection::vec(any::<bool>(), LANES).prop_map(|on| std::array::from_fn(|l| on[l])),
    ]
}

fn mode() -> impl Strategy<Value = Mode> {
    prop_oneof![
        Just(Mode::Int32),
        Just(Mode::Int8x4),
        Just(Mode::Int16x2),
        Just(Mode::Float32),
    ]
}

/// A NaN's payload is not an arithmetic result (two evaluations of one
/// float op need not agree on it), so float runs draw words that are not
/// NaN: clearing the top exponent bit leaves a finite float.
fn finite(mode: Mode, bits: u32) -> u32 {
    if mode == Mode::Float32 && f32::from_bits(bits).is_nan() {
        bits & !(1 << 30)
    } else {
        bits
    }
}

/// The word as compared: under [`Mode::Float32`] every NaN (an invalid
/// op's result, say `inf - inf`) is one NaN, for the same reason.
fn compared(mode: Mode, w: Word) -> Word {
    if mode == Mode::Float32 && w.as_f32().is_nan() {
        Word::from_f32(f32::NAN)
    } else {
        w
    }
}

/// [`finite`] on every immediate of `slot`.
fn finite_imms(mode: Mode, slot: &mut CuInst) {
    let operands: Vec<&mut Operand> = match slot {
        CuInst::Nop => Vec::new(),
        CuInst::Mul { a, b, .. } => vec![a, b],
        CuInst::Tree(t) => t.wide_ins.iter_mut().chain(&mut t.narrow_ins).collect(),
    };
    for o in operands {
        if let Operand::Imm(v) = o {
            *v = finite(mode, *v as u32) as i32;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn each_lane_equals_eval_cell_on_its_own_file(
        mode in mode(),
        words in prop::collection::vec(word(), 1..8),
        bits in prop::collection::vec(any::<u32>(), LANES * SLOTS as usize),
        active in active_lanes(),
        scores in (-6i32..7, -6i32..7, 1i32..2000),
    ) {
        let mut program = ComputeProgram::new();
        for mut w in words {
            for slot in &mut w.slots {
                finite_imms(mode, slot);
            }
            program.push(w);
        }
        program.finish();
        let program = DecodedComputeProgram::decode(&program);
        let (eq, ne, scale) = scores;
        let luts = match mode {
            Mode::Float32 => Luts::with_scores_f32(eq as f32 / 4.0, ne as f32 / 4.0),
            _ => Luts::with_scores(eq, ne),
        }
        .with_logsum_scale(scale);

        // File l is lane l: slot s of file l at files[l][s].
        let files: Vec<Vec<Word>> = bits
            .chunks(SLOTS as usize)
            .map(|f| f.iter().map(|&b| Word(finite(mode, b))).collect())
            .collect();
        let mut lanes: Vec<LaneWords> = (0..SLOTS as usize)
            .map(|s| std::array::from_fn(|l| files[l][s]))
            .collect();
        eval_lanes(&program, mode, &luts, &mut lanes, &active);

        for (l, file) in files.iter().enumerate() {
            let mut want = file.clone();
            if active[l] {
                eval_cell(&program, mode, &luts, &mut want);
            }
            let want: Vec<Word> = want.into_iter().map(|w| compared(mode, w)).collect();
            let got: Vec<Word> = lanes.iter().map(|slot| compared(mode, slot[l])).collect();
            prop_assert_eq!(
                &got,
                &want,
                "lane {} of {:?} under {}",
                l,
                active,
                mode
            );
        }
    }
}
