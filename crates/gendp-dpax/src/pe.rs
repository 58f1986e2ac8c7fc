//! One processing element: a control thread and a compute thread sharing a
//! register file (paper §4.2, Fig. 6).
//!
//! The PE executes through one of two engines, chosen by the configured
//! tier: the **decoded** engine (every tier but
//! [`Tier::Interpreted`](crate::Tier::Interpreted)) runs pre-lowered
//! [`DecodedControlProgram`]/[`DecodedComputeProgram`] forms with no
//! per-cycle allocation and no re-matching on the assembly encoding, while
//! the **interpreted** reference engine executes [`ControlProgram`]/
//! [`ComputeProgram`] directly. Both bounds-check every access and are
//! cycle- and statistics-exact with respect to each other (covered by the
//! engine-equivalence suite); instruction forms the decoder cannot
//! represent fall back to the interpreter per instruction, so even error
//! diagnostics and their timing match.

use std::sync::Arc;

use gendp_isa::{
    apply, Addr, ComputeOp, ComputeProgram, ControlInst, ControlProgram, CuInst,
    DecodedComputeProgram, DecodedControlProgram, DecodedCtrlInst, DecodedCu, DecodedLoc,
    DecodedOperand, DecodedVliw, Loc, Mode, Operand, SetTarget, Space, Word, CU_PER_PE,
};

use crate::config::{PeArrayConfig, Tier};
use crate::error::SimError;
use crate::stats::PeStats;

/// Snapshot of the PE's external connections at the start of a control
/// step. The array builds it, the PE decides what it can do this cycle.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExtView {
    /// Word waiting on the input port, if any.
    pub in_avail: Option<Word>,
    /// Whether the output port can accept a word this cycle.
    pub out_free: bool,
    /// Word at the FIFO head (first PE only).
    pub fifo_front: Option<Word>,
    /// Whether the FIFO can accept a push (last PE only).
    pub fifo_has_space: bool,
    /// True for the first PE in the chain (may pop the FIFO).
    pub may_pop_fifo: bool,
    /// True for the last PE in the chain (may push the FIFO).
    pub may_push_fifo: bool,
}

/// External side effects of one control step, committed by the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct ExtEffect {
    pub consumed_in: bool,
    pub popped_fifo: bool,
    pub wrote_out: Option<Word>,
    pub pushed_fifo: Option<Word>,
}

/// What the control thread did this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Progress {
    Advanced,
    Stalled,
    Halted,
}

pub(crate) struct Pe {
    rf: Vec<Word>,
    spm: Vec<Word>,
    aregs: Vec<i32>,
    mode: Mode,
    luts: gendp_isa::Luts,
    ctrl: Arc<ControlProgram>,
    dctrl: Arc<DecodedControlProgram>,
    ctrl_pc: usize,
    halted: bool,
    compute: Arc<ComputeProgram>,
    dcompute: Arc<DecodedComputeProgram>,
    compute_pc: Option<usize>,
    /// Runs the interpreted reference engine instead of the decoded one.
    interpreted: bool,
    index: usize,
    pub stats: PeStats,
}

/// Resolved source value plus its external cost.
enum ReadOutcome {
    Value(Word),
    Stall,
}

impl Pe {
    pub fn new(cfg: &PeArrayConfig, index: usize) -> Self {
        Pe {
            rf: vec![Word::ZERO; cfg.rf_slots],
            spm: vec![Word::ZERO; cfg.spm_words],
            aregs: vec![0; cfg.aregs],
            mode: cfg.mode,
            luts: cfg.luts.clone(),
            ctrl: Arc::new(ControlProgram::new()),
            dctrl: Arc::new(DecodedControlProgram::default()),
            ctrl_pc: 0,
            halted: true, // no program loaded yet
            compute: Arc::new(ComputeProgram::new()),
            dcompute: Arc::new(DecodedComputeProgram::default()),
            compute_pc: None,
            interpreted: cfg.tiers == Tier::Interpreted,
            index,
            stats: PeStats::default(),
        }
    }

    /// Loads a control program together with its pre-decoded form. The
    /// array decodes once per program and shares both `Arc`s.
    pub fn load_control(
        &mut self,
        program: Arc<ControlProgram>,
        decoded: Arc<DecodedControlProgram>,
    ) {
        debug_assert_eq!(program.len(), decoded.len(), "decoded form out of sync");
        self.halted = program.is_empty();
        self.ctrl = program;
        self.dctrl = decoded;
        self.ctrl_pc = 0;
    }

    /// Resets all architectural state — registers, scratchpad, address
    /// registers, program counters and statistics — while keeping the
    /// loaded (already-decoded) programs, restoring the state a fresh PE
    /// has right after [`load_control`](Self::load_control) /
    /// [`load_compute`](Self::load_compute).
    pub fn reset(&mut self) {
        self.rf.fill(Word::ZERO);
        self.spm.fill(Word::ZERO);
        self.aregs.fill(0);
        self.ctrl_pc = 0;
        self.halted = self.ctrl.is_empty();
        self.compute_pc = None;
        self.stats = PeStats::default();
    }

    /// Writes `words` into the scratchpad from address 0, the way the host
    /// fills the data buffers before a run: no cycle, no statistic.
    ///
    /// # Panics
    ///
    /// Panics if `words` is longer than the scratchpad.
    pub fn stage_spm(&mut self, words: &[Word]) {
        self.spm[..words.len()].copy_from_slice(words);
    }

    /// Loads a compute program together with its pre-decoded form.
    pub fn load_compute(
        &mut self,
        program: Arc<ComputeProgram>,
        decoded: Arc<DecodedComputeProgram>,
    ) {
        debug_assert_eq!(program.len(), decoded.len(), "decoded form out of sync");
        self.compute = program;
        self.dcompute = decoded;
        self.compute_pc = None;
    }

    /// The loaded control program.
    pub fn control_program(&self) -> &ControlProgram {
        &self.ctrl
    }

    /// The loaded compute program.
    pub fn compute_program(&self) -> &ComputeProgram {
        &self.compute
    }

    pub fn is_halted(&self) -> bool {
        self.halted && self.compute_pc.is_none()
    }

    pub fn compute_busy(&self) -> bool {
        self.compute_pc.is_some()
    }

    /// The control PC and instruction text about to execute (trace hook).
    pub fn ctrl_peek(&self) -> Option<(usize, String)> {
        if self.halted {
            return None;
        }
        self.ctrl
            .get(self.ctrl_pc)
            .map(|i| (self.ctrl_pc, i.to_string()))
    }

    /// The compute PC about to execute (trace hook).
    pub fn compute_peek(&self) -> Option<usize> {
        self.compute_pc
    }

    /// Direct register-file access for test setup and result inspection.
    #[cfg(test)]
    pub fn rf(&self) -> &[Word] {
        &self.rf
    }

    fn areg(&self, r: gendp_isa::AddrReg) -> Result<i32, SimError> {
        self.aregs
            .get(r.0 as usize)
            .copied()
            .ok_or_else(|| SimError::BadAccess(format!("pe{}: areg {r}", self.index)))
    }

    /// Decoded-path address-register read (same diagnostics as
    /// [`Self::areg`]).
    fn areg_at(&self, r: u8) -> Result<i32, SimError> {
        self.aregs
            .get(r as usize)
            .copied()
            .ok_or_else(|| SimError::BadAccess(format!("pe{}: areg a{r}", self.index)))
    }

    fn resolve(&self, loc: Loc) -> Result<usize, SimError> {
        let v = match loc.addr() {
            Addr::Direct(a) => a as i64,
            Addr::Indirect { areg, offset } => {
                let base = self.aregs.get(areg as usize).copied().ok_or_else(|| {
                    SimError::BadAccess(format!("pe{}: areg a{areg}", self.index))
                })?;
                base as i64 + offset as i64
            }
            Addr::None => 0,
        };
        if v < 0 {
            return Err(SimError::BadAccess(format!(
                "pe{}: negative address {v} for {loc}",
                self.index
            )));
        }
        Ok(v as usize)
    }

    /// Decoded-path indirect resolution; reconstructs the assembly `Loc`
    /// only on the cold error path.
    fn dresolve(&self, areg: u8, offset: i16, space: Space) -> Result<usize, SimError> {
        let base = self.areg_at(areg)?;
        let v = base as i64 + offset as i64;
        if v < 0 {
            return Err(SimError::BadAccess(format!(
                "pe{}: negative address {v} for {}",
                self.index,
                Loc::indirect(space, areg, offset)
            )));
        }
        Ok(v as usize)
    }

    fn bound<T>(&self, mem: &[T], idx: usize, what: &str) -> Result<(), SimError> {
        if idx >= mem.len() {
            return Err(SimError::BadAccess(format!(
                "pe{}: {what}[{idx}] out of range (size {})",
                self.index,
                mem.len()
            )));
        }
        Ok(())
    }

    /// Attempts to read `loc` given the external view. Does not commit
    /// external consumption — the caller does after the write side is known
    /// to succeed.
    fn try_read(&self, loc: Loc, ext: &ExtView) -> Result<ReadOutcome, SimError> {
        match loc.space() {
            Space::Rf => {
                if self.compute_busy() {
                    return Ok(ReadOutcome::Stall); // RF interlock
                }
                let i = self.resolve(loc)?;
                self.bound(&self.rf, i, "rf")?;
                Ok(ReadOutcome::Value(self.rf[i]))
            }
            Space::Spm => {
                let i = self.resolve(loc)?;
                self.bound(&self.spm, i, "spm")?;
                Ok(ReadOutcome::Value(self.spm[i]))
            }
            Space::Areg => {
                let i = self.resolve(loc)?;
                self.bound(&self.aregs, i, "areg")?;
                Ok(ReadOutcome::Value(Word::from_i32(self.aregs[i])))
            }
            Space::In => match ext.in_avail {
                Some(w) => Ok(ReadOutcome::Value(w)),
                None => Ok(ReadOutcome::Stall),
            },
            Space::Fifo => {
                if !ext.may_pop_fifo {
                    return Err(SimError::BadAccess(format!(
                        "pe{}: only the first PE reads the FIFO",
                        self.index
                    )));
                }
                match ext.fifo_front {
                    Some(w) => Ok(ReadOutcome::Value(w)),
                    None => Ok(ReadOutcome::Stall),
                }
            }
            Space::Out | Space::InBuf | Space::OutBuf => Err(SimError::BadAccess(format!(
                "pe{}: cannot read {loc}",
                self.index
            ))),
        }
    }

    /// Decoded-path read: one flat match, no space/addressing re-dispatch.
    fn dtry_read(&self, loc: DecodedLoc, ext: &ExtView) -> Result<ReadOutcome, SimError> {
        match loc {
            DecodedLoc::RfDirect(i) => {
                let i = usize::from(i);
                if self.compute_busy() {
                    return Ok(ReadOutcome::Stall); // RF interlock
                }
                self.bound(&self.rf, i, "rf")?;
                Ok(ReadOutcome::Value(self.rf[i]))
            }
            DecodedLoc::RfIndirect { areg, offset } => {
                if self.compute_busy() {
                    return Ok(ReadOutcome::Stall);
                }
                let i = self.dresolve(areg, offset, Space::Rf)?;
                self.bound(&self.rf, i, "rf")?;
                Ok(ReadOutcome::Value(self.rf[i]))
            }
            DecodedLoc::SpmDirect(i) => {
                let i = usize::from(i);
                self.bound(&self.spm, i, "spm")?;
                Ok(ReadOutcome::Value(self.spm[i]))
            }
            DecodedLoc::SpmIndirect { areg, offset } => {
                let i = self.dresolve(areg, offset, Space::Spm)?;
                self.bound(&self.spm, i, "spm")?;
                Ok(ReadOutcome::Value(self.spm[i]))
            }
            DecodedLoc::AregDirect(i) => {
                let i = usize::from(i);
                self.bound(&self.aregs, i, "areg")?;
                Ok(ReadOutcome::Value(Word::from_i32(self.aregs[i])))
            }
            DecodedLoc::AregIndirect { areg, offset } => {
                let i = self.dresolve(areg, offset, Space::Areg)?;
                self.bound(&self.aregs, i, "areg")?;
                Ok(ReadOutcome::Value(Word::from_i32(self.aregs[i])))
            }
            DecodedLoc::In => match ext.in_avail {
                Some(w) => Ok(ReadOutcome::Value(w)),
                None => Ok(ReadOutcome::Stall),
            },
            DecodedLoc::Fifo => {
                if !ext.may_pop_fifo {
                    return Err(SimError::BadAccess(format!(
                        "pe{}: only the first PE reads the FIFO",
                        self.index
                    )));
                }
                match ext.fifo_front {
                    Some(w) => Ok(ReadOutcome::Value(w)),
                    None => Ok(ReadOutcome::Stall),
                }
            }
            DecodedLoc::Out => unreachable!("decode rejects `out` as a source"),
        }
    }

    /// Whether a write to `loc` can proceed this cycle (stall check only).
    fn write_ready(&self, loc: Loc, ext: &ExtView) -> Result<bool, SimError> {
        match loc.space() {
            Space::Rf => Ok(!self.compute_busy()),
            Space::Spm | Space::Areg => Ok(true),
            Space::Out => Ok(ext.out_free),
            Space::Fifo => {
                if !ext.may_push_fifo {
                    return Err(SimError::BadAccess(format!(
                        "pe{}: only the last PE writes the FIFO",
                        self.index
                    )));
                }
                Ok(ext.fifo_has_space)
            }
            Space::In | Space::InBuf | Space::OutBuf => Err(SimError::BadAccess(format!(
                "pe{}: cannot write {loc}",
                self.index
            ))),
        }
    }

    /// Decoded-path stall check.
    fn dwrite_ready(&self, loc: DecodedLoc, ext: &ExtView) -> Result<bool, SimError> {
        match loc {
            DecodedLoc::RfDirect(_) | DecodedLoc::RfIndirect { .. } => Ok(!self.compute_busy()),
            DecodedLoc::SpmDirect(_)
            | DecodedLoc::SpmIndirect { .. }
            | DecodedLoc::AregDirect(_)
            | DecodedLoc::AregIndirect { .. } => Ok(true),
            DecodedLoc::Out => Ok(ext.out_free),
            DecodedLoc::Fifo => {
                if !ext.may_push_fifo {
                    return Err(SimError::BadAccess(format!(
                        "pe{}: only the last PE writes the FIFO",
                        self.index
                    )));
                }
                Ok(ext.fifo_has_space)
            }
            DecodedLoc::In => unreachable!("decode rejects `in` as a destination"),
        }
    }

    /// Commits a write, returning any external effect.
    fn commit_write(&mut self, loc: Loc, w: Word) -> Result<ExtEffect, SimError> {
        let mut eff = ExtEffect::default();
        match loc.space() {
            Space::Rf => {
                let i = self.resolve(loc)?;
                self.bound(&self.rf, i, "rf")?;
                self.rf[i] = w;
            }
            Space::Spm => {
                let i = self.resolve(loc)?;
                self.bound(&self.spm, i, "spm")?;
                self.spm[i] = w;
                self.stats.spm_accesses += 1;
            }
            Space::Areg => {
                let i = self.resolve(loc)?;
                self.bound(&self.aregs, i, "areg")?;
                self.aregs[i] = w.as_i32();
            }
            Space::Out => {
                eff.wrote_out = Some(w);
                self.stats.port_moves += 1;
            }
            Space::Fifo => {
                eff.pushed_fifo = Some(w);
            }
            Space::In | Space::InBuf | Space::OutBuf => unreachable!("checked in write_ready"),
        }
        Ok(eff)
    }

    /// Decoded-path write commit.
    fn dcommit_write(&mut self, loc: DecodedLoc, w: Word) -> Result<ExtEffect, SimError> {
        let mut eff = ExtEffect::default();
        match loc {
            DecodedLoc::RfDirect(i) => {
                let i = usize::from(i);
                self.bound(&self.rf, i, "rf")?;
                self.rf[i] = w;
            }
            DecodedLoc::RfIndirect { areg, offset } => {
                let i = self.dresolve(areg, offset, Space::Rf)?;
                self.bound(&self.rf, i, "rf")?;
                self.rf[i] = w;
            }
            DecodedLoc::SpmDirect(i) => {
                let i = usize::from(i);
                self.bound(&self.spm, i, "spm")?;
                self.spm[i] = w;
                self.stats.spm_accesses += 1;
            }
            DecodedLoc::SpmIndirect { areg, offset } => {
                let i = self.dresolve(areg, offset, Space::Spm)?;
                self.bound(&self.spm, i, "spm")?;
                self.spm[i] = w;
                self.stats.spm_accesses += 1;
            }
            DecodedLoc::AregDirect(i) => {
                let i = usize::from(i);
                self.bound(&self.aregs, i, "areg")?;
                self.aregs[i] = w.as_i32();
            }
            DecodedLoc::AregIndirect { areg, offset } => {
                let i = self.dresolve(areg, offset, Space::Areg)?;
                self.bound(&self.aregs, i, "areg")?;
                self.aregs[i] = w.as_i32();
            }
            DecodedLoc::Out => {
                eff.wrote_out = Some(w);
                self.stats.port_moves += 1;
            }
            DecodedLoc::Fifo => {
                eff.pushed_fifo = Some(w);
            }
            DecodedLoc::In => unreachable!("checked in dwrite_ready"),
        }
        Ok(eff)
    }

    /// Executes (at most) one control instruction.
    pub fn step_ctrl(&mut self, ext: &ExtView) -> Result<(Progress, ExtEffect), SimError> {
        if self.halted {
            return Ok((Progress::Halted, ExtEffect::default()));
        }
        if self.interpreted {
            self.step_ctrl_interp(ext)
        } else {
            self.step_ctrl_decoded(ext)
        }
    }

    fn step_ctrl_interp(&mut self, ext: &ExtView) -> Result<(Progress, ExtEffect), SimError> {
        let inst = match self.ctrl.get(self.ctrl_pc) {
            Some(i) => *i,
            None => {
                self.halted = true;
                return Ok((Progress::Halted, ExtEffect::default()));
            }
        };
        self.exec_ctrl_interp(inst, ext)
    }

    /// Executes one assembly-level control instruction (the interpreted
    /// engine's body; also the decoded engine's per-instruction fallback).
    fn exec_ctrl_interp(
        &mut self,
        inst: ControlInst,
        ext: &ExtView,
    ) -> Result<(Progress, ExtEffect), SimError> {
        let mut eff = ExtEffect::default();
        match inst {
            ControlInst::Nop => {}
            ControlInst::Halt => {
                self.halted = true;
                self.stats.ctrl_insts += 1;
                return Ok((Progress::Halted, eff));
            }
            ControlInst::Add { rd, rs1, rs2 } => {
                let v = self.areg(rs1)?.wrapping_add(self.areg(rs2)?);
                let i = rd.0 as usize;
                self.bound(&self.aregs, i, "areg")?;
                self.aregs[i] = v;
            }
            ControlInst::Addi { rd, rs1, imm } => {
                let v = self.areg(rs1)?.wrapping_add(imm);
                let i = rd.0 as usize;
                self.bound(&self.aregs, i, "areg")?;
                self.aregs[i] = v;
            }
            ControlInst::Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => {
                self.stats.ctrl_insts += 1;
                if cond.eval(self.areg(rs1)?, self.areg(rs2)?) {
                    let target = self.ctrl_pc as i64 + offset as i64;
                    if target < 0 {
                        return Err(SimError::BadAccess(format!(
                            "pe{}: branch to negative pc {target}",
                            self.index
                        )));
                    }
                    self.ctrl_pc = target as usize;
                } else {
                    self.ctrl_pc += 1;
                }
                return Ok((Progress::Advanced, eff));
            }
            ControlInst::Li { dest, imm } => {
                if !self.write_ready(dest, ext)? {
                    self.stats.ctrl_stalls += 1;
                    return Ok((Progress::Stalled, eff));
                }
                eff = self.commit_write(dest, Word::from_i32(imm))?;
            }
            ControlInst::Mv { dest, src } => {
                let value = match self.try_read(src, ext)? {
                    ReadOutcome::Stall => {
                        self.stats.ctrl_stalls += 1;
                        return Ok((Progress::Stalled, eff));
                    }
                    ReadOutcome::Value(w) => w,
                };
                if !self.write_ready(dest, ext)? {
                    self.stats.ctrl_stalls += 1;
                    return Ok((Progress::Stalled, eff));
                }
                // Both sides ready: commit the read's external cost.
                match src.space() {
                    Space::In => {
                        eff.consumed_in = true;
                        self.stats.port_moves += 1;
                    }
                    Space::Fifo => eff.popped_fifo = true,
                    Space::Spm => self.stats.spm_accesses += 1,
                    _ => {}
                }
                let weff = self.commit_write(dest, value)?;
                eff.wrote_out = weff.wrote_out;
                eff.pushed_fifo = weff.pushed_fifo;
            }
            ControlInst::Set { target, pc } => match target {
                SetTarget::Compute => {
                    if self.compute_busy() {
                        self.stats.ctrl_stalls += 1;
                        return Ok((Progress::Stalled, eff));
                    }
                    if pc as usize >= self.compute.len() && !self.compute.is_empty() {
                        return Err(SimError::BadAccess(format!(
                            "pe{}: set cu {pc} beyond compute program (len {})",
                            self.index,
                            self.compute.len()
                        )));
                    }
                    if self.compute.is_empty() {
                        return Err(SimError::BadAccess(format!(
                            "pe{}: set cu with no compute program loaded",
                            self.index
                        )));
                    }
                    self.compute_pc = Some(pc as usize);
                    self.stats.cells += 1;
                }
                SetTarget::Pe(_) => {
                    return Err(SimError::BadAccess(format!(
                        "pe{}: `set pe` is an array-level instruction",
                        self.index
                    )));
                }
            },
        }
        self.stats.ctrl_insts += 1;
        self.ctrl_pc += 1;
        Ok((Progress::Advanced, eff))
    }

    /// The decoded engine's control step: same semantics and statistics as
    /// [`Self::exec_ctrl_interp`], without re-decoding the encoding.
    fn step_ctrl_decoded(&mut self, ext: &ExtView) -> Result<(Progress, ExtEffect), SimError> {
        let inst = match self.dctrl.get(self.ctrl_pc) {
            Some(i) => *i,
            None => {
                self.halted = true;
                return Ok((Progress::Halted, ExtEffect::default()));
            }
        };
        let mut eff = ExtEffect::default();
        match inst {
            DecodedCtrlInst::Nop => {}
            DecodedCtrlInst::Halt => {
                self.halted = true;
                self.stats.ctrl_insts += 1;
                return Ok((Progress::Halted, eff));
            }
            DecodedCtrlInst::Add { rd, rs1, rs2 } => {
                let v = self.areg_at(rs1)?.wrapping_add(self.areg_at(rs2)?);
                let i = rd as usize;
                self.bound(&self.aregs, i, "areg")?;
                self.aregs[i] = v;
            }
            DecodedCtrlInst::Addi { rd, rs1, imm } => {
                let v = self.areg_at(rs1)?.wrapping_add(imm);
                let i = rd as usize;
                self.bound(&self.aregs, i, "areg")?;
                self.aregs[i] = v;
            }
            DecodedCtrlInst::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                self.stats.ctrl_insts += 1;
                if cond.eval(self.areg_at(rs1)?, self.areg_at(rs2)?) {
                    if target < 0 {
                        return Err(SimError::BadAccess(format!(
                            "pe{}: branch to negative pc {target}",
                            self.index
                        )));
                    }
                    self.ctrl_pc = target as usize;
                } else {
                    self.ctrl_pc += 1;
                }
                return Ok((Progress::Advanced, eff));
            }
            DecodedCtrlInst::Li { dest, word } => {
                if !self.dwrite_ready(dest, ext)? {
                    self.stats.ctrl_stalls += 1;
                    return Ok((Progress::Stalled, eff));
                }
                eff = self.dcommit_write(dest, word)?;
            }
            DecodedCtrlInst::Mv { dest, src } => {
                let value = match self.dtry_read(src, ext)? {
                    ReadOutcome::Stall => {
                        self.stats.ctrl_stalls += 1;
                        return Ok((Progress::Stalled, eff));
                    }
                    ReadOutcome::Value(w) => w,
                };
                if !self.dwrite_ready(dest, ext)? {
                    self.stats.ctrl_stalls += 1;
                    return Ok((Progress::Stalled, eff));
                }
                // Both sides ready: commit the read's external cost.
                match src {
                    DecodedLoc::In => {
                        eff.consumed_in = true;
                        self.stats.port_moves += 1;
                    }
                    DecodedLoc::Fifo => eff.popped_fifo = true,
                    DecodedLoc::SpmDirect(_) | DecodedLoc::SpmIndirect { .. } => {
                        self.stats.spm_accesses += 1
                    }
                    _ => {}
                }
                let weff = self.dcommit_write(dest, value)?;
                eff.wrote_out = weff.wrote_out;
                eff.pushed_fifo = weff.pushed_fifo;
            }
            DecodedCtrlInst::SetCompute { pc } => {
                if self.compute_busy() {
                    self.stats.ctrl_stalls += 1;
                    return Ok((Progress::Stalled, eff));
                }
                if usize::from(pc) >= self.compute.len() && !self.compute.is_empty() {
                    return Err(SimError::BadAccess(format!(
                        "pe{}: set cu {pc} beyond compute program (len {})",
                        self.index,
                        self.compute.len()
                    )));
                }
                if self.compute.is_empty() {
                    return Err(SimError::BadAccess(format!(
                        "pe{}: set cu with no compute program loaded",
                        self.index
                    )));
                }
                self.compute_pc = Some(usize::from(pc));
                self.stats.cells += 1;
            }
            DecodedCtrlInst::Interp => {
                let orig = *self
                    .ctrl
                    .get(self.ctrl_pc)
                    .expect("decoded program indexes its source");
                return self.exec_ctrl_interp(orig, ext);
            }
        }
        self.stats.ctrl_insts += 1;
        self.ctrl_pc += 1;
        Ok((Progress::Advanced, eff))
    }

    /// Executes one VLIW compute instruction if the compute thread runs.
    /// Returns true if an instruction was issued.
    pub fn step_compute(&mut self) -> Result<bool, SimError> {
        if self.interpreted {
            self.step_compute_interp()
        } else {
            self.step_compute_decoded()
        }
    }

    fn step_compute_interp(&mut self) -> Result<bool, SimError> {
        let pc = match self.compute_pc {
            Some(pc) => pc,
            None => return Ok(false),
        };
        let inst = *self.compute.get(pc).unwrap_or(&gendp_isa::VliwInst::NOP);
        // Reads before writes within the cycle.
        let mut writes: Vec<(u16, Word)> = Vec::new();
        for slot in &inst.slots {
            match slot {
                CuInst::Nop => {}
                CuInst::Mul { a, b, dest } => {
                    let av = self.operand(*a)?;
                    let bv = self.operand(*b)?;
                    let r = apply(ComputeOp::Mul, self.mode, &[av, bv], &self.luts);
                    writes.push((*dest, r));
                }
                CuInst::Tree(t) => {
                    let mut wide_ins = Vec::with_capacity(4);
                    for o in &t.wide_ins[..t.wide_op.arity()] {
                        wide_ins.push(self.operand(*o)?);
                    }
                    let a_out = if t.wide_op == ComputeOp::Nop {
                        Word::ZERO
                    } else {
                        apply(t.wide_op, self.mode, &wide_ins, &self.luts)
                    };
                    let mut narrow_ins = Vec::with_capacity(2);
                    for o in &t.narrow_ins[..t.narrow_op.arity()] {
                        narrow_ins.push(self.operand(*o)?);
                    }
                    let b_out = if t.narrow_op == ComputeOp::Nop {
                        Word::ZERO
                    } else {
                        apply(t.narrow_op, self.mode, &narrow_ins, &self.luts)
                    };
                    let r = apply(t.root_op, self.mode, &[a_out, b_out], &self.luts);
                    writes.push((t.dest, r));
                }
            }
        }
        self.stats.rf_accesses += inst.rf_accesses() as u64;
        for (d, w) in writes {
            let i = d as usize;
            self.bound(&self.rf, i, "rf")?;
            self.rf[i] = w;
        }
        self.stats.vliw_issued += 1;
        self.stats.cu_slots_active += inst.active_slots() as u64;
        let next = pc + 1;
        self.compute_pc = if next >= self.compute.len() {
            None
        } else {
            Some(next)
        };
        Ok(true)
    }

    /// The decoded engine's compute step: alloc-free (the write set and
    /// ALU input scratch live on the stack), with per-instruction
    /// statistics read from the decoded word instead of recounted.
    fn step_compute_decoded(&mut self) -> Result<bool, SimError> {
        let pc = match self.compute_pc {
            Some(pc) => pc,
            None => return Ok(false),
        };
        // Reads before writes within the cycle. Each VLIW slot writes at
        // most one word, so the write set is a fixed stack array.
        let mut writes = [(0u16, Word::ZERO); CU_PER_PE];
        let mut n_writes = 0usize;
        let inst = self.dcompute.get(pc).unwrap_or(&DecodedVliw::NOP);
        for slot in &inst.slots {
            match slot {
                DecodedCu::Nop => {}
                DecodedCu::Mul { a, b, dest } => {
                    let av = self.doperand(*a)?;
                    let bv = self.doperand(*b)?;
                    let r = apply(ComputeOp::Mul, self.mode, &[av, bv], &self.luts);
                    writes[n_writes] = (*dest, r);
                    n_writes += 1;
                }
                DecodedCu::Tree(t) => {
                    let wn = t.wide_n as usize;
                    let mut wide = [Word::ZERO; 4];
                    for (k, o) in t.wide_ins[..wn].iter().enumerate() {
                        wide[k] = self.doperand(*o)?;
                    }
                    let a_out = if t.wide_op == ComputeOp::Nop {
                        Word::ZERO
                    } else {
                        apply(t.wide_op, self.mode, &wide[..wn], &self.luts)
                    };
                    let nn = t.narrow_n as usize;
                    let mut narrow = [Word::ZERO; 2];
                    for (k, o) in t.narrow_ins[..nn].iter().enumerate() {
                        narrow[k] = self.doperand(*o)?;
                    }
                    let b_out = if t.narrow_op == ComputeOp::Nop {
                        Word::ZERO
                    } else {
                        apply(t.narrow_op, self.mode, &narrow[..nn], &self.luts)
                    };
                    let r = apply(t.root_op, self.mode, &[a_out, b_out], &self.luts);
                    writes[n_writes] = (t.dest, r);
                    n_writes += 1;
                }
            }
        }
        let (rf_accesses, active_slots) = (inst.rf_accesses, inst.active_slots);
        self.stats.rf_accesses += rf_accesses as u64;
        for &(d, w) in &writes[..n_writes] {
            let i = d as usize;
            self.bound(&self.rf, i, "rf")?;
            self.rf[i] = w;
        }
        self.stats.vliw_issued += 1;
        self.stats.cu_slots_active += active_slots as u64;
        let next = pc + 1;
        self.compute_pc = if next >= self.dcompute.len() {
            None
        } else {
            Some(next)
        };
        Ok(true)
    }

    fn operand(&self, o: Operand) -> Result<Word, SimError> {
        match o {
            Operand::Reg(r) => {
                let i = r as usize;
                self.bound(&self.rf, i, "rf")?;
                Ok(self.rf[i])
            }
            Operand::Imm(v) => Ok(Word::from_i32(v)),
        }
    }

    fn doperand(&self, o: DecodedOperand) -> Result<Word, SimError> {
        match o {
            DecodedOperand::Reg(r) => {
                let i = r as usize;
                self.bound(&self.rf, i, "rf")?;
                Ok(self.rf[i])
            }
            DecodedOperand::Imm(w) => Ok(w),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gendp_isa::{TreeSlots, VliwInst};

    fn idle_ext() -> ExtView {
        ExtView {
            in_avail: None,
            out_free: true,
            fifo_front: None,
            fifo_has_space: true,
            may_pop_fifo: true,
            may_push_fifo: true,
        }
    }

    fn load_ctrl(pe: &mut Pe, prog: ControlProgram) {
        let decoded = Arc::new(DecodedControlProgram::decode(&prog));
        pe.load_control(Arc::new(prog), decoded);
    }

    fn load_comp(pe: &mut Pe, prog: ComputeProgram) {
        let decoded = Arc::new(DecodedComputeProgram::decode(&prog));
        pe.load_compute(Arc::new(prog), decoded);
    }

    /// Both per-cycle engines: the decoded one and its interpreted
    /// reference.
    const ENGINES: [Tier; 2] = [Tier::Decoded, Tier::Interpreted];

    fn pe_with_engine(prog: &str, tier: Tier) -> Pe {
        let mut pe = Pe::new(&PeArrayConfig::with_pes(1).tiers(tier), 0);
        load_ctrl(&mut pe, prog.parse().unwrap());
        pe
    }

    fn pe_with(prog: &str) -> Pe {
        pe_with_engine(prog, Tier::Decoded)
    }

    fn run_to_halt(pe: &mut Pe, ext: &ExtView) {
        for _ in 0..1000 {
            let (p, _) = pe.step_ctrl(ext).unwrap();
            if p == Progress::Halted {
                return;
            }
        }
        panic!("pe did not halt");
    }

    #[test]
    fn li_and_mv_between_rf_and_spm() {
        for engine in ENGINES {
            let mut pe = pe_with_engine(
                "li rf[3] 42\nmv spm[7] rf[3]\nmv rf[4] spm[7]\nhalt",
                engine,
            );
            run_to_halt(&mut pe, &idle_ext());
            assert_eq!(pe.rf()[4].as_i32(), 42);
            assert_eq!(pe.stats.spm_accesses, 2);
            assert_eq!(pe.stats.ctrl_insts, 4);
        }
    }

    #[test]
    fn areg_loop_counts() {
        for engine in ENGINES {
            let mut pe = pe_with_engine(
                "li a[0] 0\nli a[1] 5\naddi a0 a0 1\nblt a0 a1 -1\nmv rf[0] a[0]\nhalt",
                engine,
            );
            run_to_halt(&mut pe, &idle_ext());
            assert_eq!(pe.rf()[0].as_i32(), 5);
        }
    }

    #[test]
    fn mv_from_empty_in_port_stalls() {
        let mut pe = pe_with("mv rf[0] in\nhalt");
        let mut ext = idle_ext();
        let (p, _) = pe.step_ctrl(&ext).unwrap();
        assert_eq!(p, Progress::Stalled);
        assert_eq!(pe.stats.ctrl_stalls, 1);
        ext.in_avail = Some(Word::from_i32(9));
        let (p, eff) = pe.step_ctrl(&ext).unwrap();
        assert_eq!(p, Progress::Advanced);
        assert!(eff.consumed_in);
        assert_eq!(pe.rf()[0].as_i32(), 9);
    }

    #[test]
    fn mv_to_busy_out_port_stalls() {
        let mut pe = pe_with("li rf[0] 7\nmv out rf[0]\nhalt");
        let mut ext = idle_ext();
        ext.out_free = false;
        pe.step_ctrl(&ext).unwrap(); // li
        let (p, _) = pe.step_ctrl(&ext).unwrap();
        assert_eq!(p, Progress::Stalled);
        ext.out_free = true;
        let (p, eff) = pe.step_ctrl(&ext).unwrap();
        assert_eq!(p, Progress::Advanced);
        assert_eq!(eff.wrote_out, Some(Word::from_i32(7)));
    }

    fn add_compute_program() -> ComputeProgram {
        let mut prog = ComputeProgram::new();
        prog.push(VliwInst::single(CuInst::Tree(TreeSlots {
            wide_op: ComputeOp::Add,
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
        prog.push(VliwInst::NOP);
        prog.finish();
        prog
    }

    #[test]
    fn set_runs_compute_and_interlocks_rf() {
        for engine in ENGINES {
            let mut pe = pe_with_engine(
                "li rf[0] 20\nli rf[1] 22\nset cu 0\nmv rf[3] rf[2]\nhalt",
                engine,
            );
            load_comp(&mut pe, add_compute_program());
            let ext = idle_ext();
            // li, li, set.
            for _ in 0..3 {
                pe.step_ctrl(&ext).unwrap();
            }
            assert!(pe.compute_busy());
            // mv rf[3] rf[2] must stall while compute runs (RF interlock).
            let (p, _) = pe.step_ctrl(&ext).unwrap();
            assert_eq!(p, Progress::Stalled);
            pe.step_compute().unwrap();
            let (p, _) = pe.step_ctrl(&ext).unwrap();
            assert_eq!(p, Progress::Stalled, "still one VLIW left");
            pe.step_compute().unwrap();
            assert!(!pe.compute_busy());
            let (p, _) = pe.step_ctrl(&ext).unwrap();
            assert_eq!(p, Progress::Advanced);
            assert_eq!(pe.rf()[3].as_i32(), 42);
            assert_eq!(pe.stats.cells, 1);
            assert_eq!(pe.stats.vliw_issued, 2);
        }
    }

    #[test]
    fn set_without_program_is_an_error() {
        for engine in ENGINES {
            let mut pe = pe_with_engine("set cu 0\nhalt", engine);
            let err = pe.step_ctrl(&idle_ext()).unwrap_err();
            assert!(matches!(err, SimError::BadAccess(_)));
        }
    }

    #[test]
    fn rf_out_of_range_is_an_error() {
        for engine in ENGINES {
            let mut pe = pe_with_engine("li rf[9999] 1\nhalt", engine);
            let err = pe.step_ctrl(&idle_ext()).unwrap_err();
            assert!(err.to_string().contains("rf"));
        }
    }

    #[test]
    fn halted_pe_reports_halted() {
        let mut pe = pe_with("halt");
        let (p, _) = pe.step_ctrl(&idle_ext()).unwrap();
        assert_eq!(p, Progress::Halted);
        assert!(pe.is_halted());
        let (p, _) = pe.step_ctrl(&idle_ext()).unwrap();
        assert_eq!(p, Progress::Halted);
    }

    #[test]
    fn indirect_addressing_walks_spm() {
        for engine in ENGINES {
            let mut pe = pe_with_engine(
                "li a[0] 0\nli a[1] 4\nli spm[a0] 5\naddi a0 a0 1\nblt a0 a1 -2\n\
                 li a[0] 0\nmv rf[a0+1] spm[a0]\nhalt",
                engine,
            );
            run_to_halt(&mut pe, &idle_ext());
            assert_eq!(pe.rf()[1].as_i32(), 5);
        }
    }

    #[test]
    fn engines_report_identical_errors() {
        // `set pe` and buffer moves decode to the interpreter fallback; both
        // engines must produce byte-identical diagnostics.
        for prog in ["set pe1 0\nhalt", "mv rf[0] out\nhalt", "mv in rf[0]\nhalt"] {
            let mut a = pe_with_engine(prog, Tier::Decoded);
            let mut b = pe_with_engine(prog, Tier::Interpreted);
            let ea = a.step_ctrl(&idle_ext()).unwrap_err();
            let eb = b.step_ctrl(&idle_ext()).unwrap_err();
            assert_eq!(ea.to_string(), eb.to_string(), "program {prog:?}");
        }
    }

    #[test]
    fn engines_match_on_a_looping_program() {
        let prog = "li a[0] 0\nli a[1] 6\nli spm[a0] 3\nmv rf[a0] spm[a0]\n\
                    addi a0 a0 1\nblt a0 a1 -3\nmv out rf[2]\nhalt";
        let mut a = pe_with_engine(prog, Tier::Decoded);
        let mut b = pe_with_engine(prog, Tier::Interpreted);
        let ext = idle_ext();
        loop {
            let ra = a.step_ctrl(&ext).unwrap();
            let rb = b.step_ctrl(&ext).unwrap();
            assert_eq!(ra, rb);
            if ra.0 == Progress::Halted {
                break;
            }
        }
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.rf(), b.rf());
    }
}
