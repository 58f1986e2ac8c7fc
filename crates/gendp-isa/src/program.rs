use std::fmt;

use crate::compute::VliwInst;
use crate::control::ControlInst;
use crate::error::ParseInstError;

/// A control-thread program: a flat sequence of [`ControlInst`]s executed
/// from index 0 until `halt` (or a branch loop).
///
/// ```
/// use gendp_isa::ControlProgram;
///
/// let p: ControlProgram = "li a[0] 4\naddi a0 a0 -1\nbne a0 a1 -1\nhalt"
///     .parse()
///     .unwrap();
/// assert_eq!(p.len(), 4);
/// assert_eq!(p, p.to_string().parse().unwrap());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ControlProgram {
    insts: Vec<ControlInst>,
}

impl ControlProgram {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an instruction, returning its index.
    pub fn push(&mut self, inst: ControlInst) -> usize {
        self.insts.push(inst);
        self.insts.len() - 1
    }

    /// The instruction at `pc`, if in range.
    pub fn get(&self, pc: usize) -> Option<&ControlInst> {
        self.insts.get(pc)
    }

    /// Replaces the instruction at `pc` (used to patch branch offsets).
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    pub fn patch(&mut self, pc: usize, inst: ControlInst) {
        self.insts[pc] = inst;
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Releases spare capacity, for programs kept loaded long after
    /// generation.
    pub fn shrink_to_fit(&mut self) {
        self.insts.shrink_to_fit();
    }

    /// True if the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Iterates over the instructions in order.
    pub fn iter(&self) -> std::slice::Iter<'_, ControlInst> {
        self.insts.iter()
    }
}

impl FromIterator<ControlInst> for ControlProgram {
    fn from_iter<T: IntoIterator<Item = ControlInst>>(iter: T) -> Self {
        ControlProgram {
            insts: iter.into_iter().collect(),
        }
    }
}

impl Extend<ControlInst> for ControlProgram {
    fn extend<T: IntoIterator<Item = ControlInst>>(&mut self, iter: T) {
        self.insts.extend(iter);
    }
}

impl fmt::Display for ControlProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for inst in &self.insts {
            writeln!(f, "{inst}")?;
        }
        Ok(())
    }
}

impl std::str::FromStr for ControlProgram {
    type Err = ParseInstError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        s.lines()
            .map(|l| match l.find(';') {
                Some(i) => &l[..i],
                None => l,
            })
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .map(str::parse)
            .collect::<Result<Vec<_>, _>>()
            .map(|insts| ControlProgram { insts })
    }
}

/// A compute-thread program: a flat sequence of 2-way VLIW instructions.
///
/// The control thread starts execution at a given program counter via
/// `set cu <pc>`; the compute thread runs until it reaches a `Halt`
/// (conventionally an all-`Halt` VLIW word appended by
/// [`ComputeProgram::finish`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ComputeProgram {
    insts: Vec<VliwInst>,
    halted: bool,
}

impl ComputeProgram {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a VLIW instruction, returning its index.
    ///
    /// # Panics
    ///
    /// Panics if the program was already [`finish`](Self::finish)ed.
    pub fn push(&mut self, inst: VliwInst) -> usize {
        assert!(!self.halted, "cannot push after finish()");
        self.insts.push(inst);
        self.insts.len() - 1
    }

    /// Marks the end of the per-cell routine: the compute thread will stop
    /// after the last pushed instruction and report done to the control
    /// thread.
    pub fn finish(&mut self) {
        self.halted = true;
    }

    /// The instruction at `pc`, if in range.
    pub fn get(&self, pc: usize) -> Option<&VliwInst> {
        self.insts.get(pc)
    }

    /// Number of VLIW instructions (compute cycles per invocation).
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Iterates over the instructions in order.
    pub fn iter(&self) -> std::slice::Iter<'_, VliwInst> {
        self.insts.iter()
    }

    /// Total active compute-unit slots across the program.
    pub fn active_slots(&self) -> usize {
        self.insts.iter().map(VliwInst::active_slots).sum()
    }

    /// VLIW slot utilization: active slots over issued slots (paper
    /// Table 11).
    pub fn vliw_utilization(&self) -> f64 {
        if self.insts.is_empty() {
            return 0.0;
        }
        self.active_slots() as f64 / (self.insts.len() * crate::compute::CU_PER_PE) as f64
    }
}

impl FromIterator<VliwInst> for ComputeProgram {
    fn from_iter<T: IntoIterator<Item = VliwInst>>(iter: T) -> Self {
        ComputeProgram {
            insts: iter.into_iter().collect(),
            halted: false,
        }
    }
}

impl fmt::Display for ComputeProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, inst) in self.insts.iter().enumerate() {
            writeln!(f, "{i:3}: {inst}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::{CuInst, Operand};
    use crate::control::ControlInst;

    #[test]
    fn control_program_round_trip() {
        let text =
            "li a[0] 10\nmv rf[1] in\nset cu 0\nmv out rf[2]\naddi a0 a0 -1\nbne a0 a1 -4\nhalt\n";
        let p: ControlProgram = text.parse().unwrap();
        assert_eq!(p.len(), 7);
        assert_eq!(p.to_string().parse::<ControlProgram>().unwrap(), p);
    }

    #[test]
    fn control_program_skips_comments_and_blanks() {
        let p: ControlProgram = "; setup\nli a[0] 1\n\nhalt ; end".parse().unwrap();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn control_program_patch() {
        let mut p = ControlProgram::new();
        let i = p.push(ControlInst::Nop);
        p.patch(i, ControlInst::Halt);
        assert_eq!(p.get(i), Some(&ControlInst::Halt));
    }

    #[test]
    fn compute_program_stats() {
        let mut p = ComputeProgram::new();
        p.push(VliwInst::pair(
            CuInst::Mul {
                a: Operand::Reg(0),
                b: Operand::Reg(1),
                dest: 2,
            },
            CuInst::Mul {
                a: Operand::Reg(3),
                b: Operand::Reg(4),
                dest: 5,
            },
        ));
        p.push(VliwInst::single(CuInst::Mul {
            a: Operand::Reg(2),
            b: Operand::Reg(5),
            dest: 6,
        }));
        p.finish();
        assert_eq!(p.len(), 2);
        assert_eq!(p.active_slots(), 3);
        assert!((p.vliw_utilization() - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "after finish")]
    fn compute_program_push_after_finish_panics() {
        let mut p = ComputeProgram::new();
        p.finish();
        p.push(VliwInst::NOP);
    }

    #[test]
    fn empty_programs() {
        assert!(ControlProgram::new().is_empty());
        let p = ComputeProgram::new();
        assert!(p.is_empty());
        assert_eq!(p.vliw_utilization(), 0.0);
    }
}

#[cfg(test)]
mod extra_tests {
    use super::*;
    use crate::compute::{ComputeOp, CuInst, Operand, TreeSlots, VliwInst};

    #[test]
    fn compute_program_display_lists_every_cycle() {
        let mut p = ComputeProgram::new();
        p.push(VliwInst::single(CuInst::Tree(TreeSlots {
            wide_op: ComputeOp::MatchScore,
            wide_ins: [
                Operand::Reg(0),
                Operand::Reg(1),
                Operand::Imm(0),
                Operand::Imm(0),
            ],
            narrow_op: ComputeOp::Nop,
            narrow_ins: [Operand::Imm(0); 2],
            root_op: ComputeOp::Copy,
            dest: 2,
        })));
        p.push(VliwInst::NOP);
        p.finish();
        let text = p.to_string();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("mscore"));
        assert!(text.contains("-> r2"));
    }

    #[test]
    fn control_program_collects_and_extends() {
        let mut p: ControlProgram = [ControlInst::Nop, ControlInst::Halt].into_iter().collect();
        p.extend([ControlInst::Nop]);
        assert_eq!(p.len(), 3);
        assert_eq!(p.iter().count(), 3);
    }
}
