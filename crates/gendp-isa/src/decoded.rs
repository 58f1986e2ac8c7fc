//! Pre-decoded program forms for the simulation hot path.
//!
//! The assembly-level [`ControlProgram`]/[`ComputeProgram`] types are the
//! *architectural* encoding: compact, parseable, display-stable. Executing
//! them directly forces the simulator to re-match on the encoding every
//! cycle — resolving [`Loc`] spaces, recomputing branch targets, converting
//! immediates and walking operand arity tables millions of times for values
//! that never change after load.
//!
//! This module is the one-time lowering pass that removes all of that from
//! the hot path. [`DecodedControlProgram::decode`] and
//! [`DecodedComputeProgram::decode`] run once when a program is loaded into
//! an array and produce dense structs with:
//!
//! * operand spaces resolved into flat enum variants (no nested
//!   space/addressing match),
//! * branch targets pre-computed as absolute program counters,
//! * immediates pre-converted to datapath [`Word`]s,
//! * operand arities pre-counted, and per start pc the counters a compute
//!   activation adds ([`ActivationCost`]) summed, with the highest
//!   register the compute program names.
//!
//! Decoding is total and infallible: instruction forms that the simulator
//! rejects *at execution time* (for example `set pe`, or a move targeting a
//! buffer space) lower to [`DecodedCtrlInst::Interp`]. A decoded run that
//! reaches one is replayed on the interpreted engine, which keeps error
//! behavior — including its exact timing — identical to it: a program
//! whose bad instruction is never reached still runs to completion.

use crate::compute::{ComputeOp, CuInst, Operand, VliwInst, CU_PER_PE};
use crate::control::{BranchCond, ControlInst, SetTarget};
use crate::loc::{Addr, Loc, Space};
use crate::program::{ComputeProgram, ControlProgram};
use crate::word::Word;

/// A data location with its space and addressing mode resolved into a
/// single flat variant. Ports carry no address; indirect forms keep the
/// original register/offset so the engine can reconstruct the assembly
/// [`Loc`] for error messages.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub enum DecodedLoc {
    /// `rf[n]`
    RfDirect(u16),
    /// `rf[aN+k]`
    RfIndirect { areg: u8, offset: i16 },
    /// `spm[n]`
    SpmDirect(u16),
    /// `spm[aN+k]`
    SpmIndirect { areg: u8, offset: i16 },
    /// `a[n]`
    AregDirect(u16),
    /// `a[aN+k]`
    AregIndirect { areg: u8, offset: i16 },
    /// The `in` port.
    In,
    /// The `out` port.
    Out,
    /// The loop FIFO.
    Fifo,
}

impl DecodedLoc {
    /// Reconstructs the assembly-level location (used only on cold error
    /// paths, so diagnostics match the interpreted engine byte for byte).
    pub fn to_loc(self) -> Loc {
        match self {
            DecodedLoc::RfDirect(a) => Loc::direct(Space::Rf, a),
            DecodedLoc::RfIndirect { areg, offset } => Loc::indirect(Space::Rf, areg, offset),
            DecodedLoc::SpmDirect(a) => Loc::direct(Space::Spm, a),
            DecodedLoc::SpmIndirect { areg, offset } => Loc::indirect(Space::Spm, areg, offset),
            DecodedLoc::AregDirect(a) => Loc::direct(Space::Areg, a),
            DecodedLoc::AregIndirect { areg, offset } => Loc::indirect(Space::Areg, areg, offset),
            DecodedLoc::In => Loc::port(Space::In),
            DecodedLoc::Out => Loc::port(Space::Out),
            DecodedLoc::Fifo => Loc::port(Space::Fifo),
        }
    }

    /// Decodes a location; `None` for the array-buffer spaces the PE engine
    /// cannot touch (those instructions fall back to [the interpreter's
    /// error path](DecodedCtrlInst::Interp)).
    fn decode(loc: Loc) -> Option<Self> {
        Some(match (loc.space(), loc.addr()) {
            (Space::Rf, Addr::Direct(a)) => DecodedLoc::RfDirect(a),
            (Space::Rf, Addr::Indirect { areg, offset }) => DecodedLoc::RfIndirect { areg, offset },
            (Space::Spm, Addr::Direct(a)) => DecodedLoc::SpmDirect(a),
            (Space::Spm, Addr::Indirect { areg, offset }) => {
                DecodedLoc::SpmIndirect { areg, offset }
            }
            (Space::Areg, Addr::Direct(a)) => DecodedLoc::AregDirect(a),
            (Space::Areg, Addr::Indirect { areg, offset }) => {
                DecodedLoc::AregIndirect { areg, offset }
            }
            (Space::In, _) => DecodedLoc::In,
            (Space::Out, _) => DecodedLoc::Out,
            (Space::Fifo, _) => DecodedLoc::Fifo,
            (Space::InBuf | Space::OutBuf, _) => return None,
            // Addressed spaces always carry an address (`Loc` constructors
            // enforce it); a stray `Addr::None` falls back to the interpreter.
            (Space::Rf | Space::Spm | Space::Areg, Addr::None) => return None,
        })
    }
}

/// One pre-decoded control instruction.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub enum DecodedCtrlInst {
    /// `nop`
    Nop,
    /// `halt`
    Halt,
    /// `add rd rs1 rs2` on the address registers.
    Add { rd: u8, rs1: u8, rs2: u8 },
    /// `addi rd rs1 #imm` on the address registers.
    Addi { rd: u8, rs1: u8, imm: i32 },
    /// Conditional branch with its **absolute** target pre-computed from
    /// the instruction's pc and relative offset. A negative target is kept
    /// (not rejected at decode) so the out-of-range error still fires only
    /// when the branch is actually taken, as in the interpreter.
    Branch {
        cond: BranchCond,
        rs1: u8,
        rs2: u8,
        target: i32,
    },
    /// `set cu <pc>`.
    SetCompute { pc: u16 },
    /// `li` with the immediate pre-converted to a datapath word.
    Li { dest: DecodedLoc, word: Word },
    /// `mv` with both locations resolved.
    Mv { dest: DecodedLoc, src: DecodedLoc },
    /// Leave the *original* instruction at this pc to the interpreter.
    /// Used for forms whose only defined behavior is a runtime error
    /// (`set pe`, buffer-space moves); the run that reaches one replays on
    /// the interpreted engine, keeping diagnostics and error timing
    /// identical across engines.
    Interp,
}

/// A control program lowered for execution (one decoded instruction per
/// source instruction, same indexing).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DecodedControlProgram {
    insts: Vec<DecodedCtrlInst>,
}

impl DecodedControlProgram {
    /// Lowers a control program. Infallible; see the module docs for how
    /// erroring instruction forms are represented.
    pub fn decode(program: &ControlProgram) -> Self {
        let insts = program
            .iter()
            .enumerate()
            .map(|(pc, inst)| Self::decode_inst(pc, *inst))
            .collect();
        DecodedControlProgram { insts }
    }

    fn decode_inst(pc: usize, inst: ControlInst) -> DecodedCtrlInst {
        match inst {
            ControlInst::Nop => DecodedCtrlInst::Nop,
            ControlInst::Halt => DecodedCtrlInst::Halt,
            ControlInst::Add { rd, rs1, rs2 } => DecodedCtrlInst::Add {
                rd: rd.0,
                rs1: rs1.0,
                rs2: rs2.0,
            },
            ControlInst::Addi { rd, rs1, imm } => DecodedCtrlInst::Addi {
                rd: rd.0,
                rs1: rs1.0,
                imm,
            },
            ControlInst::Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => DecodedCtrlInst::Branch {
                cond,
                rs1: rs1.0,
                rs2: rs2.0,
                target: i32::try_from(pc as i64 + i64::from(offset))
                    .expect("control programs stay below 2^31 instructions"),
            },
            ControlInst::Set {
                target: SetTarget::Compute,
                pc,
            } => DecodedCtrlInst::SetCompute { pc },
            ControlInst::Set {
                target: SetTarget::Pe(_),
                ..
            } => DecodedCtrlInst::Interp,
            ControlInst::Li { dest, imm } => match DecodedLoc::decode(dest) {
                // Writing the input port is a runtime error; interpret.
                Some(DecodedLoc::In) | None => DecodedCtrlInst::Interp,
                Some(dest) => DecodedCtrlInst::Li {
                    dest,
                    word: Word::from_i32(imm),
                },
            },
            ControlInst::Mv { dest, src } => {
                match (DecodedLoc::decode(dest), DecodedLoc::decode(src)) {
                    // Reading `out` / writing `in` (and any buffer-space
                    // operand) only ever produces an error; interpret.
                    (Some(DecodedLoc::In) | None, _) | (_, Some(DecodedLoc::Out) | None) => {
                        DecodedCtrlInst::Interp
                    }
                    (Some(dest), Some(src)) => DecodedCtrlInst::Mv { dest, src },
                }
            }
        }
    }

    /// The decoded instruction at `pc`, if in range.
    #[inline]
    pub fn get(&self, pc: usize) -> Option<&DecodedCtrlInst> {
        self.insts.get(pc)
    }

    /// Number of instructions (equal to the source program's).
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }
}

impl From<&ControlProgram> for DecodedControlProgram {
    fn from(p: &ControlProgram) -> Self {
        Self::decode(p)
    }
}

/// A compute operand with immediates pre-converted to datapath words.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub enum DecodedOperand {
    /// Register-file read.
    Reg(u16),
    /// Pre-converted constant.
    Imm(Word),
}

impl DecodedOperand {
    fn decode(o: Operand) -> Self {
        match o {
            Operand::Reg(r) => DecodedOperand::Reg(r),
            Operand::Imm(v) => DecodedOperand::Imm(Word::from_i32(v)),
        }
    }
}

/// A 2-level ALU reduction tree with operand arities pre-counted, so the
/// engine slices the input arrays without consulting
/// [`ComputeOp::arity`] per cycle.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub struct DecodedTree {
    /// Operation on the 4-input first-level ALU.
    pub wide_op: ComputeOp,
    /// `wide_op.arity()`.
    pub wide_n: u8,
    /// Inputs of the wide ALU (first `wide_n` used).
    pub wide_ins: [DecodedOperand; 4],
    /// Operation on the 2-input first-level ALU.
    pub narrow_op: ComputeOp,
    /// `narrow_op.arity()`.
    pub narrow_n: u8,
    /// Inputs of the narrow ALU (first `narrow_n` used).
    pub narrow_ins: [DecodedOperand; 2],
    /// Operation on the root ALU.
    pub root_op: ComputeOp,
    /// Register-file destination of the root output.
    pub dest: u16,
}

/// One pre-decoded compute-unit slot.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub enum DecodedCu {
    /// Idle slot.
    Nop,
    /// The dedicated multiplier.
    Mul {
        a: DecodedOperand,
        b: DecodedOperand,
        dest: u16,
    },
    /// The ALU reduction tree.
    Tree(DecodedTree),
}

impl DecodedCu {
    fn decode(cu: &CuInst) -> Self {
        match cu {
            CuInst::Nop => DecodedCu::Nop,
            CuInst::Mul { a, b, dest } => DecodedCu::Mul {
                a: DecodedOperand::decode(*a),
                b: DecodedOperand::decode(*b),
                dest: *dest,
            },
            CuInst::Tree(t) => DecodedCu::Tree(DecodedTree {
                wide_op: t.wide_op,
                wide_n: t.wide_op.arity() as u8,
                wide_ins: t.wide_ins.map(DecodedOperand::decode),
                narrow_op: t.narrow_op,
                narrow_n: t.narrow_op.arity() as u8,
                narrow_ins: t.narrow_ins.map(DecodedOperand::decode),
                root_op: t.root_op,
                dest: t.dest,
            }),
        }
    }
}

/// One pre-decoded VLIW word.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub struct DecodedVliw {
    /// The two compute-unit slots.
    pub slots: [DecodedCu; CU_PER_PE],
}

impl DecodedVliw {
    fn decode(inst: &VliwInst) -> Self {
        DecodedVliw {
            slots: [
                DecodedCu::decode(&inst.slots[0]),
                DecodedCu::decode(&inst.slots[1]),
            ],
        }
    }
}

/// What one compute-thread activation adds to the PE's counters: the
/// words from its start pc to the end of the program, one per cycle.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Default)]
pub struct ActivationCost {
    /// VLIW words issued, which is also the cycles the activation runs.
    pub words: u64,
    /// Non-idle compute-unit slots over those words.
    pub active_slots: u64,
    /// Register-file reads and writes over those words.
    pub rf_accesses: u64,
}

/// A compute program lowered for execution.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DecodedComputeProgram {
    insts: Vec<DecodedVliw>,
    /// `suffix[pc]` is the cost of an activation started at `pc`.
    suffix: Vec<ActivationCost>,
    /// Highest register-file slot any word reads or writes.
    max_reg: Option<u16>,
}

impl DecodedComputeProgram {
    /// Lowers a compute program. Infallible.
    pub fn decode(program: &ComputeProgram) -> Self {
        let mut suffix = vec![ActivationCost::default(); program.len()];
        let mut tail = ActivationCost::default();
        for (cost, inst) in suffix.iter_mut().zip(program.iter()).rev() {
            tail.words += 1;
            tail.active_slots += inst.active_slots() as u64;
            tail.rf_accesses += inst.rf_accesses() as u64;
            *cost = tail;
        }
        let max_reg = program
            .iter()
            .flat_map(|inst| &inst.slots)
            .filter_map(slot_max_reg)
            .max();
        DecodedComputeProgram {
            insts: program.iter().map(DecodedVliw::decode).collect(),
            suffix,
            max_reg,
        }
    }

    /// The decoded word at `pc`, if in range.
    #[inline]
    pub fn get(&self, pc: usize) -> Option<&DecodedVliw> {
        self.insts.get(pc)
    }

    /// All decoded words in program order (straight-line evaluation).
    #[inline]
    pub fn words(&self) -> &[DecodedVliw] {
        &self.insts
    }

    /// The cost of an activation started at `pc` (`set cu <pc>`), summed
    /// once at decode.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is not a word of the program.
    #[inline]
    pub fn activation(&self, pc: usize) -> ActivationCost {
        self.suffix[pc]
    }

    /// True if every register-file slot the program reads or writes lies
    /// below `rf_slots`, so no activation can address past the file.
    pub fn regs_within(&self, rf_slots: usize) -> bool {
        self.max_reg.is_none_or(|r| usize::from(r) < rf_slots)
    }

    /// Number of VLIW words (equal to the source program's).
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }
}

/// The highest register-file slot one compute-unit slot reads (the
/// operands its ALUs consume) or writes.
fn slot_max_reg(slot: &CuInst) -> Option<u16> {
    let reg = |o: &Operand| match *o {
        Operand::Reg(r) => Some(r),
        Operand::Imm(_) => None,
    };
    match slot {
        CuInst::Nop => None,
        CuInst::Mul { a, b, dest } => [reg(a), reg(b), Some(*dest)].into_iter().flatten().max(),
        CuInst::Tree(t) => t
            .wide_ins
            .iter()
            .take(t.wide_op.arity())
            .chain(t.narrow_ins.iter().take(t.narrow_op.arity()))
            .filter_map(reg)
            .chain([t.dest])
            .max(),
    }
}

impl From<&ComputeProgram> for DecodedComputeProgram {
    fn from(p: &ComputeProgram) -> Self {
        Self::decode(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::TreeSlots;
    use crate::control::AddrReg;

    #[test]
    fn branch_targets_become_absolute() {
        let p: ControlProgram = "li a[0] 0\naddi a0 a0 1\nblt a0 a1 -1\nhalt"
            .parse()
            .unwrap();
        let d = DecodedControlProgram::decode(&p);
        assert_eq!(d.len(), 4);
        match d.get(2) {
            Some(&DecodedCtrlInst::Branch { target, .. }) => assert_eq!(target, 1),
            other => panic!("expected branch, got {other:?}"),
        }
    }

    #[test]
    fn negative_branch_target_survives_decode() {
        let p: ControlProgram = "beq a0 a0 -5".parse().unwrap();
        let d = DecodedControlProgram::decode(&p);
        match d.get(0) {
            Some(&DecodedCtrlInst::Branch { target, .. }) => assert_eq!(target, -5),
            other => panic!("expected branch, got {other:?}"),
        }
    }

    #[test]
    fn immediates_preconverted_and_spaces_resolved() {
        let p: ControlProgram = "li rf[3] -7\nmv spm[a1+2] rf[3]\nmv out in"
            .parse()
            .unwrap();
        let d = DecodedControlProgram::decode(&p);
        assert_eq!(
            d.get(0),
            Some(&DecodedCtrlInst::Li {
                dest: DecodedLoc::RfDirect(3),
                word: Word::from_i32(-7),
            })
        );
        assert_eq!(
            d.get(1),
            Some(&DecodedCtrlInst::Mv {
                dest: DecodedLoc::SpmIndirect { areg: 1, offset: 2 },
                src: DecodedLoc::RfDirect(3),
            })
        );
        assert_eq!(
            d.get(2),
            Some(&DecodedCtrlInst::Mv {
                dest: DecodedLoc::Out,
                src: DecodedLoc::In,
            })
        );
    }

    #[test]
    fn erroring_forms_lower_to_interp() {
        let mut p = ControlProgram::new();
        p.push(ControlInst::Set {
            target: SetTarget::Pe(1),
            pc: 0,
        });
        p.push(ControlInst::Mv {
            dest: Loc::port(Space::In),
            src: Loc::rf(0),
        });
        p.push(ControlInst::Mv {
            dest: Loc::rf(0),
            src: Loc::port(Space::Out),
        });
        p.push(ControlInst::Mv {
            dest: Loc::direct(Space::OutBuf, 0),
            src: Loc::rf(0),
        });
        p.push(ControlInst::Li {
            dest: Loc::direct(Space::InBuf, 0),
            imm: 1,
        });
        let d = DecodedControlProgram::decode(&p);
        for pc in 0..d.len() {
            assert_eq!(d.get(pc), Some(&DecodedCtrlInst::Interp), "pc {pc}");
        }
    }

    #[test]
    fn decoded_loc_round_trips_for_diagnostics() {
        for loc in [
            Loc::rf(7),
            Loc::indirect(Space::Spm, 3, -2),
            Loc::areg(1),
            Loc::port(Space::In),
            Loc::port(Space::Out),
            Loc::port(Space::Fifo),
        ] {
            let d = DecodedLoc::decode(loc).unwrap();
            assert_eq!(d.to_loc(), loc);
        }
        assert_eq!(DecodedLoc::decode(Loc::direct(Space::InBuf, 0)), None);
    }

    #[test]
    fn compute_decode_precounts_stats() {
        let mut p = ComputeProgram::new();
        let tree = CuInst::Tree(TreeSlots {
            wide_op: ComputeOp::SelectGt,
            wide_ins: [
                Operand::Reg(0),
                Operand::Reg(1),
                Operand::Reg(2),
                Operand::Imm(4),
            ],
            narrow_op: ComputeOp::Copy,
            narrow_ins: [Operand::Reg(3), Operand::Imm(0)],
            root_op: ComputeOp::Max,
            dest: 4,
        });
        let mul = CuInst::Mul {
            a: Operand::Reg(5),
            b: Operand::Imm(3),
            dest: 6,
        };
        let src = VliwInst::pair(tree, mul);
        p.push(src);
        p.finish();
        let d = DecodedComputeProgram::decode(&p);
        let w = d.get(0).unwrap();
        let cost = d.activation(0);
        assert_eq!(cost.rf_accesses as usize, src.rf_accesses());
        assert_eq!(cost.active_slots as usize, src.active_slots());
        assert_eq!(cost.words, 1);
        match &w.slots[0] {
            DecodedCu::Tree(t) => {
                assert_eq!(t.wide_n, 4);
                assert_eq!(t.narrow_n, 1);
                assert_eq!(t.wide_ins[3], DecodedOperand::Imm(Word::from_i32(4)));
            }
            other => panic!("expected tree, got {other:?}"),
        }
        assert!(d.regs_within(7) && !d.regs_within(6), "mul writes r6");
    }

    #[test]
    fn add_keeps_register_indices() {
        let mut p = ControlProgram::new();
        p.push(ControlInst::Add {
            rd: AddrReg(1),
            rs1: AddrReg(2),
            rs2: AddrReg(3),
        });
        let d = DecodedControlProgram::decode(&p);
        assert_eq!(
            d.get(0),
            Some(&DecodedCtrlInst::Add {
                rd: 1,
                rs1: 2,
                rs2: 3
            })
        );
    }
}
