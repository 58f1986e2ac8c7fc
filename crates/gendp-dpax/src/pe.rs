//! One processing element: a control thread and a compute thread sharing a
//! register file (paper §4.2, Fig. 6).
//!
//! A PE runs under one of two engines, chosen by the array's tier:
//!
//! * The **interpreted** reference engine executes the assembly-level
//!   [`ControlProgram`]/[`ComputeProgram`] one cycle at a time.
//!   [`Pe::step_ctrl`] issues at most one control instruction against an
//!   [`ExtView`] of the neighbours and [`Pe::step_compute`] at most one
//!   VLIW word; the array's per-cycle loop drives both.
//! * The **decoded** engine runs the pre-lowered [`DecodedControlProgram`]
//!   ahead on the PE's own clock ([`Pe::advance`]). Each control
//!   instruction issues at its *ready cycle*: the latest of the cycle after
//!   the previous issue and the cycles of the events it waits for (the RF
//!   interlock, a neighbour's word or free latch, a FIFO word or free
//!   slot), which the [`Timeline`] records. A `set cu` evaluates its whole
//!   compute activation at once with [`eval_activation`] and marks the RF
//!   busy until the activation's last cycle. The PE stops when it needs an
//!   event no neighbour has produced yet. Whatever it cannot finish exactly
//!   — any error, or an event past the cycle budget — ends the run in a
//!   [`Replay`] on the reference engine, so diagnostics, their timing and
//!   the statistics of a failed run are the reference's by construction.
//!
//! Both engines are cycle- and statistics-exact with respect to each other
//! (covered by the engine-equivalence suites); see [`crate::events`] for
//! the ready-cycle rules and why they are exact.

use std::sync::Arc;

use gendp_isa::{
    apply, eval_activation, Addr, ComputeOp, ComputeProgram, ControlInst, ControlProgram, CuInst,
    DecodedComputeProgram, DecodedControlProgram, DecodedCtrlInst, DecodedLoc, Loc, Mode, Operand,
    SetTarget, Space, Word,
};

use crate::config::PeArrayConfig;
use crate::error::SimError;
use crate::events::{Replay, Timeline};
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
    /// Every register slot the loaded compute program names lies inside
    /// the RF, so the decoded engine may evaluate its activations.
    compute_in_rf: bool,
    compute_pc: Option<usize>,
    index: usize,
    /// Decoded engine: the first cycle the control thread may issue its
    /// next instruction (one past its last issue or halt).
    clock: u64,
    /// Decoded engine: the first cycle the RF is free of the running
    /// compute activation (one past its last word).
    rf_free: u64,
    pub stats: PeStats,
}

/// A PE's architectural state, saved before a decoded run so that a run
/// the event engine cannot finish replays from it.
pub(crate) struct PeSave {
    rf: Vec<Word>,
    spm: Vec<Word>,
    aregs: Vec<i32>,
    ctrl_pc: usize,
    halted: bool,
    compute_pc: Option<usize>,
    stats: PeStats,
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
            compute_in_rf: true,
            compute_pc: None,
            index,
            clock: 0,
            rf_free: 0,
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

    /// Loads a compute program together with its pre-decoded form, and
    /// checks once that its register slots lie inside the RF.
    pub fn load_compute(
        &mut self,
        program: Arc<ComputeProgram>,
        decoded: Arc<DecodedComputeProgram>,
    ) {
        debug_assert_eq!(program.len(), decoded.len(), "decoded form out of sync");
        self.compute_in_rf = decoded.regs_within(self.rf.len());
        self.compute = program;
        self.dcompute = decoded;
        self.compute_pc = None;
    }

    /// A copy of the architectural state.
    pub fn save(&self) -> PeSave {
        PeSave {
            rf: self.rf.clone(),
            spm: self.spm.clone(),
            aregs: self.aregs.clone(),
            ctrl_pc: self.ctrl_pc,
            halted: self.halted,
            compute_pc: self.compute_pc,
            stats: self.stats,
        }
    }

    /// Returns to the state [`save`](Self::save) copied.
    pub fn restore(&mut self, saved: PeSave) {
        self.rf = saved.rf;
        self.spm = saved.spm;
        self.aregs = saved.aregs;
        self.ctrl_pc = saved.ctrl_pc;
        self.halted = saved.halted;
        self.compute_pc = saved.compute_pc;
        self.stats = saved.stats;
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

    /// Reference engine: executes (at most) one control instruction.
    pub fn step_ctrl(&mut self, ext: &ExtView) -> Result<(Progress, ExtEffect), SimError> {
        if self.halted {
            return Ok((Progress::Halted, ExtEffect::default()));
        }
        let inst = match self.ctrl.get(self.ctrl_pc) {
            Some(i) => *i,
            None => {
                self.halted = true;
                return Ok((Progress::Halted, ExtEffect::default()));
            }
        };
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

    /// Reference engine: executes one VLIW compute instruction if the
    /// compute thread runs. Returns true if an instruction was issued.
    pub fn step_compute(&mut self) -> Result<bool, SimError> {
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

    /// Decoded engine: puts the PE on the run's starting cycle. A compute
    /// activation still in flight (a run resumed after a timeout) is
    /// evaluated now; its remaining words run from `start` on.
    pub fn start(&mut self, start: u64, tl: &Timeline<'_>) -> Result<(), Replay> {
        self.clock = start;
        self.rf_free = start;
        match self.compute_pc.take() {
            Some(pc) => self.activate(pc, start, tl),
            None => Ok(()),
        }
    }

    /// Decoded engine: one past the last cycle the PE was active, once its
    /// control thread has halted.
    pub fn finish(&self) -> u64 {
        self.clock.max(self.rf_free)
    }

    /// Decoded engine: runs the control thread ahead on its own clock
    /// until it halts or needs an event its neighbours have not produced
    /// yet. Returns whether it issued or halted at all.
    ///
    /// # Errors
    ///
    /// [`Replay`] on anything the reference engine reports as an error,
    /// and on any event at or past the run's cycle budget.
    pub fn advance(&mut self, tl: &mut Timeline<'_>) -> Result<bool, Replay> {
        let mut moved = false;
        while !self.halted {
            let r = self.clock;
            let Some(&inst) = self.dctrl.get(self.ctrl_pc) else {
                // Running off the end halts the thread in its next cycle.
                tl.within_budget(r + 1)?;
                self.halted = true;
                self.clock = r + 1;
                return Ok(true);
            };
            let at = match inst {
                DecodedCtrlInst::Nop => {
                    self.ctrl_pc += 1;
                    r
                }
                DecodedCtrlInst::Halt => {
                    self.halted = true;
                    r
                }
                DecodedCtrlInst::Add { rd, rs1, rs2 } => {
                    let v = self.areg_at(rs1)?.wrapping_add(self.areg_at(rs2)?);
                    *self.aregs.get_mut(usize::from(rd)).ok_or(Replay)? = v;
                    self.ctrl_pc += 1;
                    r
                }
                DecodedCtrlInst::Addi { rd, rs1, imm } => {
                    let v = self.areg_at(rs1)?.wrapping_add(imm);
                    *self.aregs.get_mut(usize::from(rd)).ok_or(Replay)? = v;
                    self.ctrl_pc += 1;
                    r
                }
                DecodedCtrlInst::Branch {
                    cond,
                    rs1,
                    rs2,
                    target,
                } => {
                    if cond.eval(self.areg_at(rs1)?, self.areg_at(rs2)?) {
                        self.ctrl_pc = usize::try_from(target).map_err(|_| Replay)?;
                    } else {
                        self.ctrl_pc += 1;
                    }
                    r
                }
                DecodedCtrlInst::Li { dest, word } => {
                    let Some(ready) = self.dest_ready(dest, tl)? else {
                        break;
                    };
                    let at = r.max(ready);
                    self.write(dest, word, at, tl)?;
                    self.ctrl_pc += 1;
                    at
                }
                DecodedCtrlInst::Mv { dest, src } => {
                    let (Some(a), Some(b)) = (self.src_ready(src, tl)?, self.dest_ready(dest, tl)?)
                    else {
                        break;
                    };
                    let at = r.max(a).max(b);
                    let w = self.read(src, at, tl)?;
                    self.write(dest, w, at, tl)?;
                    self.ctrl_pc += 1;
                    at
                }
                DecodedCtrlInst::SetCompute { pc } => {
                    let at = r.max(self.rf_free);
                    self.activate(usize::from(pc), at, tl)?;
                    self.stats.cells += 1;
                    self.ctrl_pc += 1;
                    at
                }
                // Every form the decoder leaves to the interpreter is an
                // error at run time.
                DecodedCtrlInst::Interp => return Err(Replay),
            };
            tl.within_budget(at + 1)?;
            self.stats.ctrl_insts += 1;
            self.stats.ctrl_stalls += at - r;
            self.clock = at + 1;
            moved = true;
        }
        Ok(moved)
    }

    /// Starts the compute activation `set cu <pc>` issued at `at`: evaluates
    /// all its words now and holds the RF until the last one has run.
    fn activate(&mut self, pc: usize, at: u64, tl: &Timeline<'_>) -> Result<(), Replay> {
        if pc >= self.dcompute.len() || !self.compute_in_rf {
            return Err(Replay);
        }
        let cost = self.dcompute.activation(pc);
        let done = at + cost.words;
        tl.within_budget(done)?;
        eval_activation(&self.dcompute, pc, self.mode, &self.luts, &mut self.rf);
        self.stats.vliw_issued += cost.words;
        self.stats.cu_slots_active += cost.active_slots;
        self.stats.rf_accesses += cost.rf_accesses;
        self.rf_free = done;
        Ok(())
    }

    fn areg_at(&self, r: u8) -> Result<i32, Replay> {
        self.aregs.get(usize::from(r)).copied().ok_or(Replay)
    }

    /// The address `a<areg> + offset` names.
    fn indirect(&self, areg: u8, offset: i16) -> Result<usize, Replay> {
        usize::try_from(i64::from(self.areg_at(areg)?) + i64::from(offset)).map_err(|_| Replay)
    }

    /// The first cycle `src` can be read, or `None` while a neighbour has
    /// yet to produce it.
    fn src_ready(&self, src: DecodedLoc, tl: &Timeline<'_>) -> Result<Option<u64>, Replay> {
        Ok(match src {
            DecodedLoc::RfDirect(_) | DecodedLoc::RfIndirect { .. } => Some(self.rf_free),
            DecodedLoc::In => tl.in_ready(self.index),
            DecodedLoc::Fifo => tl.pop_ready(self.index)?,
            _ => Some(0),
        })
    }

    /// The first cycle `dest` can be written, or `None` while a neighbour
    /// has yet to free it.
    fn dest_ready(&self, dest: DecodedLoc, tl: &Timeline<'_>) -> Result<Option<u64>, Replay> {
        Ok(match dest {
            DecodedLoc::RfDirect(_) | DecodedLoc::RfIndirect { .. } => Some(self.rf_free),
            DecodedLoc::Out => tl.out_ready(self.index),
            DecodedLoc::Fifo => tl.push_ready(self.index)?,
            _ => Some(0),
        })
    }

    /// Reads `src` in cycle `at`, taking a port or FIFO word.
    fn read(&mut self, src: DecodedLoc, at: u64, tl: &mut Timeline<'_>) -> Result<Word, Replay> {
        let word = match src {
            DecodedLoc::RfDirect(i) => self.rf.get(usize::from(i)),
            DecodedLoc::RfIndirect { areg, offset } => self.rf.get(self.indirect(areg, offset)?),
            DecodedLoc::SpmDirect(i) => {
                self.stats.spm_accesses += 1;
                self.spm.get(usize::from(i))
            }
            DecodedLoc::SpmIndirect { areg, offset } => {
                self.stats.spm_accesses += 1;
                self.spm.get(self.indirect(areg, offset)?)
            }
            DecodedLoc::AregDirect(i) => {
                return self.areg_word(usize::from(i));
            }
            DecodedLoc::AregIndirect { areg, offset } => {
                return self.areg_word(self.indirect(areg, offset)?);
            }
            DecodedLoc::In => {
                self.stats.port_moves += 1;
                return Ok(tl.take_in(self.index, at));
            }
            DecodedLoc::Fifo => return Ok(tl.pop(self.index, at)),
            DecodedLoc::Out => unreachable!("decode rejects `out` as a source"),
        };
        word.copied().ok_or(Replay)
    }

    fn areg_word(&self, i: usize) -> Result<Word, Replay> {
        self.aregs.get(i).map(|&v| Word::from_i32(v)).ok_or(Replay)
    }

    /// Writes `w` to `dest` in cycle `at`, filling a port or FIFO slot.
    fn write(
        &mut self,
        dest: DecodedLoc,
        w: Word,
        at: u64,
        tl: &mut Timeline<'_>,
    ) -> Result<(), Replay> {
        let slot = match dest {
            DecodedLoc::RfDirect(i) => self.rf.get_mut(usize::from(i)),
            DecodedLoc::RfIndirect { areg, offset } => {
                let i = self.indirect(areg, offset)?;
                self.rf.get_mut(i)
            }
            DecodedLoc::SpmDirect(i) => {
                self.stats.spm_accesses += 1;
                self.spm.get_mut(usize::from(i))
            }
            DecodedLoc::SpmIndirect { areg, offset } => {
                self.stats.spm_accesses += 1;
                let i = self.indirect(areg, offset)?;
                self.spm.get_mut(i)
            }
            DecodedLoc::AregDirect(i) => {
                *self.aregs.get_mut(usize::from(i)).ok_or(Replay)? = w.as_i32();
                return Ok(());
            }
            DecodedLoc::AregIndirect { areg, offset } => {
                let i = self.indirect(areg, offset)?;
                *self.aregs.get_mut(i).ok_or(Replay)? = w.as_i32();
                return Ok(());
            }
            DecodedLoc::Out => {
                self.stats.port_moves += 1;
                tl.put_out(self.index, at, w);
                return Ok(());
            }
            DecodedLoc::Fifo => {
                tl.push(at, w);
                return Ok(());
            }
            DecodedLoc::In => unreachable!("decode rejects `in` as a destination"),
        };
        *slot.ok_or(Replay)? = w;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PeArray, RunStats, Tier};
    use gendp_isa::{TreeSlots, VliwInst};

    /// Both engines: the decoded event engine and its interpreted
    /// reference.
    const ENGINES: [Tier; 2] = [Tier::Decoded, Tier::Interpreted];

    /// Runs one control program per PE (and `compute` in every PE) on
    /// both engines, asserts that they agree on the outcome, the
    /// statistics, the output and every register file, and returns the
    /// decoded array with its outcome.
    fn run_both(
        progs: &[&str],
        compute: Option<ComputeProgram>,
    ) -> (PeArray, Result<RunStats, SimError>) {
        let [(dec, dec_outcome), (int, int_outcome)] = ENGINES.map(|tier| {
            let cfg = PeArrayConfig::with_pes(progs.len()).no_verify().tiers(tier);
            let mut a = PeArray::new(cfg);
            for (k, prog) in progs.iter().enumerate() {
                a.load_pe_control(k, prog.parse::<ControlProgram>().unwrap());
            }
            if let Some(c) = compute.clone() {
                a.load_compute_all(c);
            }
            let outcome = a.run(1000);
            (a, outcome)
        });
        assert_eq!(dec_outcome, int_outcome, "engines disagree on {progs:?}");
        assert_eq!(dec.stats(), int.stats());
        assert_eq!(dec.output(), int.output());
        for k in 0..progs.len() {
            assert_eq!(dec.pe(k).rf(), int.pe(k).rf());
        }
        (dec, dec_outcome)
    }

    #[test]
    fn li_and_mv_between_rf_and_spm() {
        let (a, outcome) = run_both(
            &["li rf[3] 42\nmv spm[7] rf[3]\nmv rf[4] spm[7]\nhalt"],
            None,
        );
        let stats = outcome.unwrap();
        assert_eq!(a.pe(0).rf()[4].as_i32(), 42);
        assert_eq!(stats.per_pe[0].spm_accesses, 2);
        assert_eq!(stats.per_pe[0].ctrl_insts, 4);
    }

    #[test]
    fn areg_loop_counts() {
        let (a, outcome) = run_both(
            &["li a[0] 0\nli a[1] 5\naddi a0 a0 1\nblt a0 a1 -1\nmv rf[0] a[0]\nhalt"],
            None,
        );
        outcome.unwrap();
        assert_eq!(a.pe(0).rf()[0].as_i32(), 5);
    }

    #[test]
    fn mv_from_empty_in_port_stalls() {
        // PE0 fills PE1's port in cycle 1: PE1's `mv rf[0] in` stalls in
        // cycle 0 and takes the word in cycle 1 (same-cycle forwarding).
        let (a, outcome) = run_both(&["nop\nli out 9\nhalt", "mv rf[0] in\nhalt"], None);
        let stats = outcome.unwrap();
        assert_eq!(stats.per_pe[1].ctrl_stalls, 1);
        assert_eq!(stats.per_pe[1].port_moves, 1, "the word was consumed");
        assert_eq!(a.pe(1).rf()[0].as_i32(), 9);
    }

    #[test]
    fn mv_to_busy_out_port_stalls() {
        // PE1 takes its first word in cycle 3, so PE0's second write finds
        // the latch full in cycles 2 and 3 and issues in cycle 4.
        let (a, outcome) = run_both(
            &[
                "li out 5\nli rf[0] 7\nmv out rf[0]\nhalt",
                "nop\nnop\nnop\nmv out in\nmv out in\nhalt",
            ],
            None,
        );
        let stats = outcome.unwrap();
        assert_eq!(stats.per_pe[0].ctrl_stalls, 2);
        assert_eq!(a.output(), [5, 7].map(Word::from_i32));
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
        let (a, outcome) = run_both(
            &["li rf[0] 20\nli rf[1] 22\nset cu 0\nmv rf[3] rf[2]\nhalt"],
            Some(add_compute_program()),
        );
        let stats = outcome.unwrap();
        // The two-word activation runs in cycles 2 and 3: the RF move
        // stalls on the interlock in cycle 3 and issues in cycle 4.
        assert_eq!(stats.per_pe[0].ctrl_stalls, 1);
        assert_eq!(stats.cycles, 6);
        assert_eq!(a.pe(0).rf()[3].as_i32(), 42);
        assert_eq!(stats.per_pe[0].cells, 1);
        assert_eq!(stats.per_pe[0].vliw_issued, 2);
    }

    #[test]
    fn set_without_program_is_an_error() {
        let (_, outcome) = run_both(&["set cu 0\nhalt"], None);
        assert!(matches!(outcome.unwrap_err(), SimError::BadAccess(_)));
    }

    #[test]
    fn rf_out_of_range_is_an_error() {
        let (_, outcome) = run_both(&["li rf[9999] 1\nhalt"], None);
        assert!(outcome.unwrap_err().to_string().contains("rf"));
    }

    #[test]
    fn halted_pe_reports_halted() {
        let (mut a, outcome) = run_both(&["halt"], None);
        let stats = outcome.unwrap();
        assert_eq!(stats.cycles, 1);
        assert_eq!(stats.per_pe[0].ctrl_insts, 1);
        assert!(a.pe(0).is_halted());
        // A halted array stays halted: running it again changes nothing.
        assert_eq!(a.run(1000).unwrap(), stats);
    }

    #[test]
    fn indirect_addressing_walks_spm() {
        let (a, outcome) = run_both(
            &[
                "li a[0] 0\nli a[1] 4\nli spm[a0] 5\naddi a0 a0 1\nblt a0 a1 -2\n\
               li a[0] 0\nmv rf[a0+1] spm[a0]\nhalt",
            ],
            None,
        );
        outcome.unwrap();
        assert_eq!(a.pe(0).rf()[1].as_i32(), 5);
    }

    #[test]
    fn engines_report_identical_errors() {
        // `set pe` and buffer moves decode to the interpreter fallback;
        // both engines must produce byte-identical diagnostics.
        for prog in ["set pe1 0\nhalt", "mv rf[0] out\nhalt", "mv in rf[0]\nhalt"] {
            let (_, outcome) = run_both(&[prog], None);
            assert!(outcome.is_err(), "program {prog:?}");
        }
    }

    #[test]
    fn engines_match_on_a_looping_program() {
        let (a, outcome) = run_both(
            &["li a[0] 0\nli a[1] 6\nli spm[a0] 3\nmv rf[a0] spm[a0]\n\
               addi a0 a0 1\nblt a0 a1 -3\nmv out rf[2]\nhalt"],
            None,
        );
        outcome.unwrap();
        assert_eq!(a.output(), [Word::from_i32(3)]);
    }
}
