//! Random control-program recipes shared by the property tests and the
//! control analysis's unit tests: instruction soup from selector
//! bundles, and the clean kernel loop that mutations start from.

use gendp_isa::{AddrReg, BranchCond, ControlInst, ControlProgram, Loc, SetTarget, Space};
use proptest::prelude::*;

const SPACES: [Space; 8] = [
    Space::Rf,
    Space::Spm,
    Space::In,
    Space::Out,
    Space::Fifo,
    Space::InBuf,
    Space::OutBuf,
    Space::Areg,
];

pub const CONDS: [BranchCond; 4] = [
    BranchCond::Eq,
    BranchCond::Ne,
    BranchCond::Ge,
    BranchCond::Lt,
];

/// Selector bundle for one random control instruction.
pub type InstSel = (u8, u8, u8, i32, i16, u8, u8, u16, u16);

fn loc_from(space_sel: u8, shape: u8, addr: u16, off: i16) -> Loc {
    let space = SPACES[space_sel as usize % SPACES.len()];
    if !space.is_addressed() {
        Loc::port(space)
    } else if shape.is_multiple_of(2) {
        Loc::direct(space, addr % 4096)
    } else {
        Loc::indirect(space, (addr % 24) as u8, off % 64)
    }
}

pub fn inst_from(sel: InstSel) -> ControlInst {
    let (op, a, b, imm32, off, s1, s2, ad1, ad2) = sel;
    let (ra, rb) = (AddrReg(a % 24), AddrReg(b % 24));
    match op % 8 {
        0 => ControlInst::Add {
            rd: ra,
            rs1: rb,
            rs2: AddrReg((a ^ b) % 24),
        },
        1 => ControlInst::Addi {
            rd: ra,
            rs1: rb,
            imm: imm32,
        },
        2 => ControlInst::Li {
            dest: loc_from(s1, a, ad1, off),
            imm: imm32,
        },
        3 => ControlInst::Mv {
            dest: loc_from(s1, a, ad1, off),
            src: loc_from(s2, b, ad2, off.wrapping_add(1)),
        },
        4 => ControlInst::Branch {
            cond: CONDS[a as usize % CONDS.len()],
            rs1: ra,
            rs2: rb,
            offset: off % 64,
        },
        5 => ControlInst::Set {
            target: if a % 2 == 0 {
                SetTarget::Compute
            } else {
                SetTarget::Pe(b % 8)
            },
            pc: ad1 % 64,
        },
        6 => ControlInst::Nop,
        _ => ControlInst::Halt,
    }
}

pub fn inst_sel() -> impl Strategy<Value = InstSel> {
    (
        (any::<u8>(), any::<u8>(), any::<u8>()),
        (-10_000i32..10_000, any::<i16>()),
        (any::<u8>(), any::<u8>(), any::<u16>(), any::<u16>()),
    )
        .prop_map(|((op, a, b), (imm, off), (s1, s2, ad1, ad2))| {
            (op, a, b, imm, off, s1, s2, ad1, ad2)
        })
}

/// The clean seed loop every mutation starts from (same shape as the
/// generated kernel programs: init, stream, store, loop).
pub fn seed_program() -> Vec<ControlInst> {
    let text = "li a[0] 0\nli a[1] 8\nmv rf[0] in\nmv spm[a0+0] rf[0]\nmv out rf[0]\n\
                addi a0 a0 1\nblt a0 a1 -4\nhalt";
    let p: ControlProgram = text.parse().expect("seed parses");
    p.iter().copied().collect()
}
