//! Dataflow analysis of control-thread programs.
//!
//! The analysis is an abstract-interpretation fixpoint over the program's
//! basic blocks. A block starts at a *leader* — pc 0, an in-range branch
//! target or a branch fall-through — and runs up to the next leader; a
//! branch always ends one (its fall-through is a leader), and a `halt`
//! ends the walk early. Every other instruction can only be reached from
//! the one before it, so abstract states are stored, joined and widened
//! only at leaders, and each block is walked with one state updated in
//! place. The abstract state tracks, per path:
//!
//! * which address registers **must** have been written (intersection at
//!   joins — a read outside this set is a use-before-def on some path),
//! * an [`Interval`] per address register, so indirect scratchpad /
//!   register-file accesses can be bounds-checked symbolically,
//! * interval counts of FIFO pushes and pops, for balance checking.
//!
//! Loops terminate the fixpoint through standard widening at their heads,
//! which are leaders. After the fixpoint, one reporting pass walks every
//! reachable block again from its converged entry state and emits
//! diagnostics.

use gendp_isa::{Addr, AddrReg, BranchCond, ControlInst, ControlProgram, Loc, SetTarget, Space};

use crate::contract::PeContract;
use crate::diag::{DiagLoc, Diagnostic, Report, Rule};
use crate::interval::{BoundsVerdict, Interval};

/// How many joins a program point absorbs before widening kicks in.
const WIDEN_AFTER: u32 = 8;

/// Address registers the abstract state tracks (one `init` bit each);
/// higher ones read as unknown and are never flagged as uninitialized.
const TRACKED_AREGS: usize = 128;

/// The abstract state at one program point.
#[derive(Debug, Clone, PartialEq, Eq)]
struct AState {
    /// Must-init bitmask over the tracked address registers.
    init: u128,
    /// Value interval per address register.
    vals: Vec<Interval>,
    /// FIFO words pushed so far along this path.
    pushes: Interval,
    /// FIFO words popped so far along this path.
    pops: Interval,
    /// Active control-thread cycles along this path: one per retired
    /// instruction (including `halt`), plus one for the silent-halt
    /// discovery cycle when the pc runs off the program end.
    cycles: Interval,
    /// Compute-unit steps triggered along this path (each `set cu t`
    /// contributes `compute_len - t` steps, when the length is known).
    compute: Interval,
    /// `set cu` executions along this path — one DP cell each.
    cu_sets: Interval,
}

impl AState {
    fn entry(aregs: usize) -> Self {
        AState {
            init: 0,
            vals: vec![Interval::TOP; aregs.min(TRACKED_AREGS)],
            pushes: Interval::exact(0),
            pops: Interval::exact(0),
            cycles: Interval::exact(0),
            compute: Interval::exact(0),
            cu_sets: Interval::exact(0),
        }
    }

    /// Joins `flow` into `self` in place, widening the join against the
    /// old state when `widen` is set. Returns whether `self` changed.
    fn absorb(&mut self, flow: &AState, widen: bool) -> bool {
        let merge = |old: &mut Interval, new: Interval| {
            let mut joined = old.join(new);
            if widen {
                joined = old.widen(joined);
            }
            let changed = joined != *old;
            *old = joined;
            changed
        };
        let init = self.init & flow.init;
        let mut changed = init != self.init;
        self.init = init;
        for (old, new) in self.vals.iter_mut().zip(&flow.vals) {
            changed |= merge(old, *new);
        }
        changed |= merge(&mut self.pushes, flow.pushes);
        changed |= merge(&mut self.pops, flow.pops);
        changed |= merge(&mut self.cycles, flow.cycles);
        changed |= merge(&mut self.compute, flow.compute);
        changed |= merge(&mut self.cu_sets, flow.cu_sets);
        changed
    }
}

/// Statically counted FIFO traffic of one program, when every path agrees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FifoTraffic {
    /// Pushes over all exits (exact iff `lo == hi`).
    pub pushes: Interval,
    /// Pops over all exits.
    pub pops: Interval,
}

impl FifoTraffic {
    /// Exact push count, when all paths push the same number of words.
    pub fn exact_pushes(&self) -> Option<i64> {
        (self.pushes.lo == self.pushes.hi).then_some(self.pushes.lo)
    }

    /// Exact pop count.
    pub fn exact_pops(&self) -> Option<i64> {
        (self.pops.lo == self.pops.hi).then_some(self.pops.lo)
    }
}

/// The analyzer for one control program under one contract.
pub(crate) struct ControlAnalysis<'a> {
    contract: &'a PeContract,
    /// PE position in the chain, when known (fifo discipline needs it).
    pe: Option<usize>,
    /// PEs in the array the program will be loaded into.
    n_pes: usize,
    /// Length of the compute program `set cu` targets, when known.
    compute_len: Option<usize>,
}

/// Cycle-model summary over all reachable exits of one program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ExitSummary {
    /// Active control-thread cycles (retired instructions plus the
    /// silent-halt discovery cycle on fall-off-the-end paths).
    pub issue: Interval,
    /// Compute-unit steps triggered (`set cu` targets to program end).
    pub compute: Interval,
    /// `set cu` executions — one DP cell each.
    pub cu_sets: Interval,
}

/// Bounds proofs and address footprints collected during the reporting
/// pass, the raw material of a [`crate::Certificate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CertScan {
    /// Every checked address (direct and indirect, all sized spaces)
    /// resolved to an interval provably inside its space.
    pub all_in_bounds: bool,
    /// Hull of register-file addresses accessed by the control thread.
    pub rf: Option<Interval>,
    /// Hull of scratchpad addresses accessed by the control thread.
    pub spm: Option<Interval>,
}

impl Default for CertScan {
    fn default() -> Self {
        CertScan {
            all_in_bounds: true,
            rf: None,
            spm: None,
        }
    }
}

impl CertScan {
    fn record(&mut self, space: Space, addr: Interval, in_bounds: bool) {
        if !in_bounds {
            self.all_in_bounds = false;
        }
        let slot = match space {
            Space::Rf => &mut self.rf,
            Space::Spm => &mut self.spm,
            _ => return,
        };
        *slot = Some(match *slot {
            Some(prev) => prev.join(addr),
            None => addr,
        });
    }
}

/// Result of analyzing one program.
pub(crate) struct ControlOutcome {
    pub report: Report,
    /// FIFO traffic over all reachable exits; `None` when no exit is
    /// reachable (the program can only loop forever).
    pub fifo: Option<FifoTraffic>,
    /// Cycle-model summary over all reachable exits; `None` like `fifo`.
    pub exit: Option<ExitSummary>,
    /// Bounds proofs and footprints from the reporting pass.
    pub scan: CertScan,
}

/// Where control goes after one instruction.
enum Flow {
    /// On to `pc + 1`.
    Next,
    /// The thread halts.
    Halt,
    /// A branch: its fall-through and taken edges, in that order; `None`
    /// for an edge the condition rules out or a target before the start.
    Branch([Option<Edge>; 2]),
}

/// One CFG edge, with interval refinements the branch condition implies
/// on that edge (e.g. on the taken edge of `blt a0 a1`, `a0 < a1`).
struct Edge {
    target: usize,
    refine: Refine,
}

/// Per-register refinements of one edge: at most one per branch operand.
type Refine = [Option<(usize, Interval)>; 2];

/// Block leaders in ascending order: pc 0, every in-range branch target
/// and every branch fall-through. Any other instruction can only be
/// reached by falling through from the one before it.
fn block_leaders(program: &ControlProgram) -> Vec<usize> {
    let len = program.len();
    let mut leaders = vec![0];
    for (pc, inst) in program.iter().enumerate() {
        if let ControlInst::Branch { offset, .. } = inst {
            let target = pc as i64 + *offset as i64;
            if (0..len as i64).contains(&target) {
                leaders.push(target as usize);
            }
            if pc + 1 < len {
                leaders.push(pc + 1);
            }
        }
    }
    leaders.sort_unstable();
    leaders.dedup();
    leaders
}

impl<'a> ControlAnalysis<'a> {
    pub fn new(
        contract: &'a PeContract,
        pe: Option<usize>,
        n_pes: usize,
        compute_len: Option<usize>,
    ) -> Self {
        ControlAnalysis {
            contract,
            pe,
            n_pes,
            compute_len,
        }
    }

    /// Runs the fixpoint and the reporting pass.
    pub fn run(&self, program: &ControlProgram) -> ControlOutcome {
        self.run_blocks(program, &block_leaders(program))
    }

    /// Runs the fixpoint and the reporting pass over the blocks `leaders`
    /// delimits. They must ascend from pc 0 and include every in-range
    /// branch target and fall-through; [`block_leaders`] is the smallest
    /// such set, and the unit tests pass every pc to get the
    /// per-instruction fixpoint.
    fn run_blocks(&self, program: &ControlProgram, leaders: &[usize]) -> ControlOutcome {
        let len = program.len();
        if len == 0 {
            // An empty program is a PE that starts halted — legal (idle
            // PEs in a short chain are loaded with nothing). It costs
            // zero cycles: the array sees it halted before the first step.
            return ControlOutcome {
                report: Report::new(),
                fifo: Some(FifoTraffic {
                    pushes: Interval::exact(0),
                    pops: Interval::exact(0),
                }),
                exit: Some(ExitSummary {
                    issue: Interval::exact(0),
                    compute: Interval::exact(0),
                    cu_sets: Interval::exact(0),
                }),
                scan: CertScan::default(),
            };
        }

        // Entry states and join counts, indexed like `leaders`.
        let mut entry: Vec<Option<AState>> = vec![None; leaders.len()];
        let mut joins = vec![0u32; leaders.len()];
        let mut work = vec![0usize];
        let mut st = AState::entry(self.contract.aregs);
        let mut flow = st.clone();
        entry[0] = Some(st.clone());
        let mut exit_state: Option<AState> = None;

        while let Some(block) = work.pop() {
            st.clone_from(entry[block].as_ref().expect("worklist blocks have states"));
            let (last, out) = self.walk(program, leaders, block, &mut st, None, None);
            let edges = match out {
                Flow::Halt => {
                    absorb_exit(&mut exit_state, &st);
                    continue;
                }
                Flow::Next => [
                    Some(Edge {
                        target: last + 1,
                        refine: [None; 2],
                    }),
                    None,
                ],
                Flow::Branch(edges) => edges,
            };
            for edge in edges.into_iter().flatten() {
                flow.clone_from(&st);
                if edge.target >= len {
                    // Running past the end halts the thread silently; the
                    // discovery cycle still counts in the simulator.
                    flow.cycles = flow.cycles.add_const(1);
                    absorb_exit(&mut exit_state, &flow);
                    continue;
                }
                for (idx, iv) in edge.refine.into_iter().flatten() {
                    if let Some(slot) = flow.vals.get_mut(idx) {
                        *slot = iv;
                    }
                }
                let s = leaders
                    .binary_search(&edge.target)
                    .expect("in-range edge targets are leaders");
                match &mut entry[s] {
                    None => {
                        entry[s] = Some(flow.clone());
                        work.push(s);
                    }
                    Some(old) => {
                        if old.absorb(&flow, joins[s] >= WIDEN_AFTER) {
                            joins[s] += 1;
                            work.push(s);
                        }
                    }
                }
            }
        }

        // Reporting pass over the converged entry states, which doubles
        // as the certificate scan (footprints, bounds proofs).
        let mut report = Report::new();
        let mut scan = CertScan::default();
        for (block, state) in entry.iter().enumerate() {
            if let Some(state) = state {
                st.clone_from(state);
                self.walk(
                    program,
                    leaders,
                    block,
                    &mut st,
                    Some(&mut report),
                    Some(&mut scan),
                );
            }
        }

        let (fifo, exit) = match exit_state {
            Some(st) => (
                Some(FifoTraffic {
                    pushes: st.pushes,
                    pops: st.pops,
                }),
                Some(ExitSummary {
                    issue: st.cycles,
                    compute: st.compute,
                    cu_sets: st.cu_sets,
                }),
            ),
            None => (None, None),
        };
        ControlOutcome {
            report,
            fifo,
            exit,
            scan,
        }
    }

    /// Walks block `block` forward from the state in `st`, updating it in
    /// place, and stops after a branch, a `halt` or the instruction before
    /// the next leader. Returns that last pc and its flow. With a `sink`,
    /// also emits each instruction's diagnostics (the reporting pass).
    fn walk(
        &self,
        program: &ControlProgram,
        leaders: &[usize],
        block: usize,
        st: &mut AState,
        mut sink: Option<&mut Report>,
        mut cert: Option<&mut CertScan>,
    ) -> (usize, Flow) {
        let len = program.len();
        let end = leaders.get(block + 1).copied().unwrap_or(len);
        let mut pc = leaders[block];
        loop {
            let inst = program.get(pc).expect("pc in range");
            let out = self.transfer(pc, len, inst, st, sink.as_deref_mut(), cert.as_deref_mut());
            if let Some(report) = sink.as_deref_mut() {
                self.check_loop_termination(pc, inst, program, report);
            }
            if !matches!(out, Flow::Next) || pc + 1 == end {
                return (pc, out);
            }
            pc += 1;
        }
    }

    fn loc(&self, pc: usize) -> DiagLoc {
        DiagLoc::Ctrl { pe: self.pe, pc }
    }

    /// Space size for address bounds, `None` for spaces whose use is
    /// already illegal at PE level (checked separately).
    fn space_size(&self, space: Space) -> Option<usize> {
        match space {
            Space::Rf => Some(self.contract.rf_slots),
            Space::Spm => Some(self.contract.spm_words),
            Space::Areg => Some(self.contract.aregs),
            _ => None,
        }
    }

    fn read_areg(
        &self,
        reg: AddrReg,
        state: &AState,
        pc: usize,
        sink: &mut Option<&mut Report>,
    ) -> Interval {
        let i = reg.0 as usize;
        if i >= self.contract.aregs {
            if let Some(report) = sink {
                report.push(Diagnostic::new(
                    Rule::AddrBounds,
                    self.loc(pc),
                    format!(
                        "a{i} is out of bounds for {} address registers",
                        self.contract.aregs
                    ),
                ));
            }
            return Interval::TOP;
        }
        if i < TRACKED_AREGS && state.init & (1 << i) == 0 {
            if let Some(report) = sink {
                report.push(
                    Diagnostic::new(
                        Rule::DefBeforeUse,
                        self.loc(pc),
                        format!("a{i} is read before any write reaches this instruction"),
                    )
                    .suggest(format!("initialize it first, e.g. `li a[{i}] 0`")),
                );
            }
        }
        state.vals.get(i).copied().unwrap_or(Interval::TOP)
    }

    fn write_areg(&self, idx: usize, value: Interval, state: &mut AState) {
        if idx < self.contract.aregs && idx < TRACKED_AREGS {
            state.init |= 1 << idx;
            if let Some(slot) = state.vals.get_mut(idx) {
                *slot = value;
            }
        }
    }

    /// Checks the destination register of `add`/`addi`, which writes the
    /// areg file directly rather than through a `Loc`.
    fn check_areg_dest(&self, reg: AddrReg, pc: usize, sink: &mut Option<&mut Report>) {
        let i = reg.0 as usize;
        if i >= self.contract.aregs {
            if let Some(report) = sink {
                report.push(Diagnostic::new(
                    Rule::AddrBounds,
                    self.loc(pc),
                    format!(
                        "a{i} is out of bounds for {} address registers",
                        self.contract.aregs
                    ),
                ));
            }
        }
    }

    /// Checks a direct or indirect address against its space, emitting
    /// addr-bounds diagnostics; reads the base register of indirect forms.
    /// With a `cert` scan, also records the access footprint and whether
    /// the address is provably in bounds.
    fn check_addr(
        &self,
        loc: &Loc,
        state: &AState,
        pc: usize,
        sink: &mut Option<&mut Report>,
        cert: &mut Option<&mut CertScan>,
    ) {
        let Some(size) = self.space_size(loc.space()) else {
            return;
        };
        match loc.addr() {
            Addr::Direct(d) => {
                let in_bounds = (d as usize) < size;
                if let Some(scan) = cert.as_deref_mut() {
                    scan.record(loc.space(), Interval::exact(d as i64), in_bounds);
                }
                if !in_bounds {
                    if let Some(report) = sink {
                        report.push(Diagnostic::new(
                            Rule::AddrBounds,
                            self.loc(pc),
                            format!(
                                "{} index {d} is out of bounds for {size} words",
                                loc.space()
                            ),
                        ));
                    }
                }
            }
            Addr::Indirect { areg, offset } => {
                let base = self.read_areg(AddrReg(areg), state, pc, sink);
                let addr = base.add_const(offset as i64);
                let verdict = addr.bounds_check(size);
                if let Some(scan) = cert.as_deref_mut() {
                    scan.record(loc.space(), addr, verdict == BoundsVerdict::In);
                }
                if let Some(report) = sink {
                    match verdict {
                        BoundsVerdict::AlwaysOut => report.push(Diagnostic::new(
                            Rule::AddrBounds,
                            self.loc(pc),
                            format!(
                                "{}[a{areg}{offset:+}] resolves to [{}, {}], always outside \
                                 the {size}-word space",
                                loc.space(),
                                addr.lo,
                                addr.hi
                            ),
                        )),
                        BoundsVerdict::MayBeOut => report.push(
                            Diagnostic::new(
                                Rule::AddrBounds,
                                self.loc(pc),
                                format!(
                                    "{}[a{areg}{offset:+}] may resolve outside the \
                                     {size}-word space (range [{}, {}])",
                                    loc.space(),
                                    addr.lo,
                                    addr.hi
                                ),
                            )
                            .warning(),
                        ),
                        BoundsVerdict::In | BoundsVerdict::Unknown => {}
                    }
                }
            }
            Addr::None => {}
        }
    }

    /// Models reading `loc`: legality, addressing, FIFO pops. Returns the
    /// value interval when it is statically known (areg sources).
    fn read_loc(
        &self,
        loc: &Loc,
        state: &mut AState,
        pc: usize,
        sink: &mut Option<&mut Report>,
        cert: &mut Option<&mut CertScan>,
    ) -> Interval {
        match loc.space() {
            Space::Rf | Space::Spm => {
                self.check_addr(loc, state, pc, sink, cert);
                Interval::TOP
            }
            Space::Areg => {
                self.check_addr(loc, state, pc, sink, cert);
                match loc.addr() {
                    Addr::Direct(d) => self.read_areg(AddrReg(d as u8), state, pc, sink),
                    _ => Interval::TOP,
                }
            }
            Space::In => Interval::TOP,
            Space::Out => {
                if let Some(report) = sink {
                    report.push(Diagnostic::new(
                        Rule::SpaceLegality,
                        self.loc(pc),
                        "the out port is write-only from a PE",
                    ));
                }
                Interval::TOP
            }
            Space::Fifo => {
                state.pops = state.pops.add_const(1);
                if let (Some(pe), Some(report)) = (self.pe, sink.as_deref_mut()) {
                    if !self.contract.fifo_broadcast && pe != 0 {
                        report.push(
                            Diagnostic::new(
                                Rule::FifoDiscipline,
                                self.loc(pc),
                                format!("pe{pe} pops the FIFO, but only pe0 may (no broadcast)"),
                            )
                            .suggest("enable fifo_broadcast or move the pop to pe0"),
                        );
                    }
                }
                Interval::TOP
            }
            Space::InBuf | Space::OutBuf => {
                if let Some(report) = sink {
                    report.push(Diagnostic::new(
                        Rule::SpaceLegality,
                        self.loc(pc),
                        format!(
                            "{} is an array-level buffer, not PE-accessible",
                            loc.space()
                        ),
                    ));
                }
                Interval::TOP
            }
        }
    }

    /// Models writing `loc`: legality, addressing, FIFO pushes. Returns
    /// the destination areg index when `loc` names one directly.
    fn write_loc(
        &self,
        loc: &Loc,
        state: &mut AState,
        pc: usize,
        sink: &mut Option<&mut Report>,
        cert: &mut Option<&mut CertScan>,
    ) -> Option<usize> {
        match loc.space() {
            Space::Rf | Space::Spm => {
                self.check_addr(loc, state, pc, sink, cert);
                None
            }
            Space::Areg => {
                self.check_addr(loc, state, pc, sink, cert);
                match loc.addr() {
                    Addr::Direct(d) => Some(d as usize),
                    Addr::Indirect { .. } => {
                        // Writing through an unknown areg index clobbers
                        // any tracked value.
                        for v in &mut state.vals {
                            *v = Interval::TOP;
                        }
                        None
                    }
                    Addr::None => None,
                }
            }
            Space::In => {
                if let Some(report) = sink {
                    report.push(Diagnostic::new(
                        Rule::SpaceLegality,
                        self.loc(pc),
                        "the in port is read-only from a PE",
                    ));
                }
                None
            }
            Space::Out => None,
            Space::Fifo => {
                state.pushes = state.pushes.add_const(1);
                if let (Some(pe), Some(report)) = (self.pe, sink.as_deref_mut()) {
                    if pe + 1 != self.n_pes {
                        report.push(
                            Diagnostic::new(
                                Rule::FifoDiscipline,
                                self.loc(pc),
                                format!(
                                    "pe{pe} pushes the FIFO, but only the last PE (pe{}) may",
                                    self.n_pes.saturating_sub(1)
                                ),
                            )
                            .suggest("route intermediate values through the out port instead"),
                        );
                    }
                }
                None
            }
            Space::InBuf | Space::OutBuf => {
                if let Some(report) = sink {
                    report.push(Diagnostic::new(
                        Rule::SpaceLegality,
                        self.loc(pc),
                        format!(
                            "{} is an array-level buffer, not PE-accessible",
                            loc.space()
                        ),
                    ));
                }
                None
            }
        }
    }

    /// The transfer function: mutates `state` across `inst` and returns
    /// where control goes next. With a `sink`, also emits the
    /// instruction's diagnostics (the reporting pass).
    fn transfer(
        &self,
        pc: usize,
        len: usize,
        inst: &ControlInst,
        state: &mut AState,
        mut sink: Option<&mut Report>,
        mut cert: Option<&mut CertScan>,
    ) -> Flow {
        // Every retired instruction (including `halt`) occupies one
        // issue cycle.
        state.cycles = state.cycles.add_const(1);
        let cert = &mut cert;
        match inst {
            ControlInst::Nop => Flow::Next,
            ControlInst::Halt => Flow::Halt,
            ControlInst::Add { rd, rs1, rs2 } => {
                let a = self.read_areg(*rs1, state, pc, &mut sink);
                let b = self.read_areg(*rs2, state, pc, &mut sink);
                self.check_areg_dest(*rd, pc, &mut sink);
                self.write_areg(rd.0 as usize, a + b, state);
                Flow::Next
            }
            ControlInst::Addi { rd, rs1, imm } => {
                let a = self.read_areg(*rs1, state, pc, &mut sink);
                self.check_areg_dest(*rd, pc, &mut sink);
                self.write_areg(rd.0 as usize, a.add_const(*imm as i64), state);
                Flow::Next
            }
            ControlInst::Li { dest, imm } => {
                if let Some(idx) = self.write_loc(dest, state, pc, &mut sink, cert) {
                    self.write_areg(idx, Interval::exact(*imm as i64), state);
                }
                Flow::Next
            }
            ControlInst::Mv { dest, src } => {
                let value = self.read_loc(src, state, pc, &mut sink, cert);
                if let Some(idx) = self.write_loc(dest, state, pc, &mut sink, cert) {
                    self.write_areg(idx, value, state);
                }
                Flow::Next
            }
            ControlInst::Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => {
                let a = self.read_areg(*rs1, state, pc, &mut sink);
                let b = self.read_areg(*rs2, state, pc, &mut sink);
                let target = pc as i64 + *offset as i64;
                // Fall through (branch not taken), plus the taken edge,
                // each refined by what the condition implies on it; an
                // edge whose refinement is empty cannot be taken and is
                // pruned. Edges past the program end become exits in
                // `run_blocks` (the control thread halts silently when the
                // pc runs off the program), matching the simulator.
                let fall = self
                    .refine_edge(negate(*cond), *rs1, *rs2, a, b)
                    .map(|refine| Edge {
                        target: pc + 1,
                        refine,
                    });
                let taken = if target < 0 {
                    if let Some(report) = sink.as_deref_mut() {
                        report.push(Diagnostic::new(
                            Rule::BranchTarget,
                            self.loc(pc),
                            format!("branch target {target} is before the program start"),
                        ));
                    }
                    None
                } else {
                    if target > len as i64 {
                        if let Some(report) = sink.as_deref_mut() {
                            report.push(
                                Diagnostic::new(
                                    Rule::BranchTarget,
                                    self.loc(pc),
                                    format!(
                                        "branch target {target} is past the program end \
                                         (length {len}); the thread would halt silently"
                                    ),
                                )
                                .warning(),
                            );
                        }
                    }
                    self.refine_edge(*cond, *rs1, *rs2, a, b)
                        .map(|refine| Edge {
                            target: target as usize,
                            refine,
                        })
                };
                Flow::Branch([fall, taken])
            }
            ControlInst::Set { target, pc: tpc } => {
                if let SetTarget::Compute = target {
                    // One DP cell; the compute unit then steps from the
                    // target to the program end.
                    state.cu_sets = state.cu_sets.add_const(1);
                    if let Some(clen) = self.compute_len {
                        let steps = clen.saturating_sub(*tpc as usize) as i64;
                        state.compute = state.compute.add_const(steps);
                    }
                }
                if let Some(report) = sink {
                    match target {
                        SetTarget::Compute => {
                            if let Some(clen) = self.compute_len {
                                if clen == 0 {
                                    report.push(Diagnostic::new(
                                        Rule::BranchTarget,
                                        self.loc(pc),
                                        "set cu issued but the compute program is empty",
                                    ));
                                } else if *tpc as usize >= clen {
                                    report.push(Diagnostic::new(
                                        Rule::BranchTarget,
                                        self.loc(pc),
                                        format!(
                                            "set cu {tpc} targets past the compute program \
                                             (length {clen})"
                                        ),
                                    ));
                                }
                            }
                        }
                        SetTarget::Pe(i) => {
                            report.push(Diagnostic::new(
                                Rule::SpaceLegality,
                                self.loc(pc),
                                format!("set pe{i} is only legal at array level, not in a PE"),
                            ));
                        }
                    }
                }
                Flow::Next
            }
        }
    }

    /// What a branch condition holding between `rs1` and `rs2` implies
    /// about their intervals. Returns the refinements to apply on that
    /// edge, or `None` if the condition cannot hold (the edge is dead).
    fn refine_edge(
        &self,
        cond: BranchCond,
        rs1: AddrReg,
        rs2: AddrReg,
        a: Interval,
        b: Interval,
    ) -> Option<Refine> {
        let (r1, r2) = (rs1.0 as usize, rs2.0 as usize);
        if r1 == r2 {
            // A register always equals itself: `lt`/`ne` edges are dead,
            // `eq`/`ge` edges always taken but learn nothing.
            return match cond {
                BranchCond::Lt | BranchCond::Ne => None,
                BranchCond::Eq | BranchCond::Ge => Some([None; 2]),
            };
        }
        let (a2, b2) = match cond {
            BranchCond::Ne => return Some([None; 2]),
            BranchCond::Eq => {
                let m = Interval {
                    lo: a.lo.max(b.lo),
                    hi: a.hi.min(b.hi),
                };
                (m, m)
            }
            BranchCond::Lt => (
                // a < b: cap a below b's max, raise b above a's min
                // (infinite bounds constrain nothing).
                Interval {
                    lo: a.lo,
                    hi: if b.hi == i64::MAX {
                        a.hi
                    } else {
                        a.hi.min(b.hi - 1)
                    },
                },
                Interval {
                    lo: if a.lo == i64::MIN {
                        b.lo
                    } else {
                        b.lo.max(a.lo + 1)
                    },
                    hi: b.hi,
                },
            ),
            BranchCond::Ge => (
                Interval {
                    lo: if b.lo == i64::MIN {
                        a.lo
                    } else {
                        a.lo.max(b.lo)
                    },
                    hi: a.hi,
                },
                Interval {
                    lo: b.lo,
                    hi: if a.hi == i64::MAX {
                        b.hi
                    } else {
                        b.hi.min(a.hi)
                    },
                },
            ),
        };
        if a2.lo > a2.hi || b2.lo > b2.hi {
            return None;
        }
        let aregs = self.contract.aregs;
        Some([
            (r1 < aregs).then_some((r1, a2)),
            (r2 < aregs).then_some((r2, b2)),
        ])
    }

    /// Backward branches whose operand registers are never written inside
    /// the loop body cannot make progress toward termination.
    fn check_loop_termination(
        &self,
        pc: usize,
        inst: &ControlInst,
        program: &ControlProgram,
        report: &mut Report,
    ) {
        let ControlInst::Branch {
            rs1, rs2, offset, ..
        } = inst
        else {
            return;
        };
        if *offset >= 0 {
            return;
        }
        let target = pc as i64 + *offset as i64;
        if target < 0 {
            return; // branch-target already fired
        }
        let body = target as usize..=pc;
        let counter_written = body.clone().any(|i| {
            program
                .get(i)
                .is_some_and(|b| writes_areg(b, rs1.0) || writes_areg(b, rs2.0))
        });
        if !counter_written {
            report.push(
                Diagnostic::new(
                    Rule::LoopTermination,
                    self.loc(pc),
                    format!(
                        "loop over [{}, {pc}] branches on a{} and a{}, but neither changes \
                         in the body",
                        target, rs1.0, rs2.0
                    ),
                )
                .suggest("step the loop counter inside the body, e.g. `addi`"),
            );
        }
    }
}

/// Joins the state at one reachable exit into the summary over all exits.
fn absorb_exit(exits: &mut Option<AState>, st: &AState) {
    match exits {
        Some(prev) => {
            prev.absorb(st, false);
        }
        None => *exits = Some(st.clone()),
    }
}

/// The condition that holds on the fall-through edge of a branch.
fn negate(cond: BranchCond) -> BranchCond {
    match cond {
        BranchCond::Eq => BranchCond::Ne,
        BranchCond::Ne => BranchCond::Eq,
        BranchCond::Ge => BranchCond::Lt,
        BranchCond::Lt => BranchCond::Ge,
    }
}

/// True if `inst` may write address register `reg`.
fn writes_areg(inst: &ControlInst, reg: u8) -> bool {
    match inst {
        ControlInst::Add { rd, .. } | ControlInst::Addi { rd, .. } => rd.0 == reg,
        ControlInst::Li { dest, .. } | ControlInst::Mv { dest, .. } => {
            dest.space() == Space::Areg
                && match dest.addr() {
                    Addr::Direct(d) => d as u8 == reg,
                    // An indirect areg write could hit any register.
                    Addr::Indirect { .. } => true,
                    Addr::None => false,
                }
        }
        _ => false,
    }
}

#[cfg(test)]
#[path = "../tests/programs/mod.rs"]
mod programs;

#[cfg(test)]
mod tests {
    use super::programs::{inst_from, inst_sel, seed_program, CONDS};
    use super::*;
    use proptest::prelude::*;

    /// Runs `program` block by block and again with every pc a leader of
    /// its own — the per-instruction fixpoint, which keeps, joins and
    /// widens a state at every program point — and asserts that both
    /// give the same report, FIFO traffic, exit summary and scan.
    fn assert_blocks_match_per_pc(analysis: &ControlAnalysis, program: &ControlProgram) {
        let blocks = analysis.run(program);
        let every_pc: Vec<usize> = (0..program.len()).collect();
        let per_pc = analysis.run_blocks(program, &every_pc);
        assert_eq!(blocks.report, per_pc.report, "report of\n{program}");
        assert_eq!(blocks.fifo, per_pc.fifo, "fifo traffic of\n{program}");
        assert_eq!(blocks.exit, per_pc.exit, "exit summary of\n{program}");
        assert_eq!(blocks.scan, per_pc.scan, "scan of\n{program}");
    }

    /// Contract and array position the analysis runs under: address
    /// registers (past the 128 the state tracks, too), FIFO broadcast,
    /// PE position in a chain, and compute program length.
    type Setting = (u8, bool, Option<(usize, usize)>, Option<usize>);

    fn setting() -> impl Strategy<Value = Setting> {
        (
            any::<u8>(),
            any::<bool>(),
            (any::<bool>(), 1usize..6, 0usize..6),
            (any::<bool>(), 0usize..70),
        )
            .prop_map(|(aregs, broadcast, (known, n, p), (has_len, clen))| {
                (
                    aregs,
                    broadcast,
                    known.then_some((p % n, n)),
                    has_len.then_some(clen),
                )
            })
    }

    fn check(setting: Setting, program: &ControlProgram) {
        let (aregs, broadcast, position, compute_len) = setting;
        let mut contract = PeContract::new();
        contract.aregs = [4, 8, 16, 24, 200][aregs as usize % 5];
        contract.fifo_broadcast = broadcast;
        let (pe, n_pes) = match position {
            Some((pe, n)) => (Some(pe), n),
            None => (None, contract.n_pes),
        };
        let analysis = ControlAnalysis::new(&contract, pe, n_pes, compute_len);
        assert_blocks_match_per_pc(&analysis, program);
    }

    type LoopSel = (u8, u8, i32, i32, i32, u8);

    fn loop_sel() -> impl Strategy<Value = LoopSel> {
        (
            (any::<u8>(), any::<u8>(), any::<u8>()),
            (-50i32..50, 0i32..40, -2i32..4),
        )
            .prop_map(|((counter, bound, cond), (start, trip, step))| {
                (counter, bound, start, trip, step, cond)
            })
    }

    /// A counted loop around `body`: `li` the counter and its bound, the
    /// body, a step, and a backward branch to the body.
    fn counted_loop(
        (counter, bound, start, trip, step, cond): LoopSel,
        body: Vec<ControlInst>,
    ) -> Vec<ControlInst> {
        let (c, b) = (counter % 24, bound % 24);
        let offset = -(body.len() as i16 + 1);
        let mut insts = vec![
            ControlInst::Li {
                dest: Loc::direct(Space::Areg, c as u16),
                imm: start,
            },
            ControlInst::Li {
                dest: Loc::direct(Space::Areg, b as u16),
                imm: start + trip,
            },
        ];
        insts.extend(body);
        insts.push(ControlInst::Addi {
            rd: AddrReg(c),
            rs1: AddrReg(c),
            imm: step,
        });
        insts.push(ControlInst::Branch {
            cond: CONDS[cond as usize % CONDS.len()],
            rs1: AddrReg(c),
            rs2: AddrReg(b),
            offset,
        });
        insts
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary instruction soup, backward branches included.
        #[test]
        fn random_programs_match_per_pc_fixpoint(
            sels in prop::collection::vec(inst_sel(), 0..40),
            setting in setting(),
        ) {
            let program: ControlProgram = sels.into_iter().map(inst_from).collect();
            check(setting, &program);
        }

        /// Single-point mutations and swaps of a known-good kernel loop.
        #[test]
        fn mutated_seed_loops_match_per_pc_fixpoint(
            idx in 0usize..8,
            sel in inst_sel(),
            swap in any::<bool>(),
            setting in setting(),
        ) {
            let mut insts = seed_program();
            if swap {
                let j = (idx + 1) % insts.len();
                insts.swap(idx, j);
            } else {
                let k = idx % insts.len();
                insts[k] = inst_from(sel);
            }
            let program: ControlProgram = insts.into_iter().collect();
            check(setting, &program);
        }

        /// Straight-line runs and counted loops, nested one deep, whose
        /// loop heads absorb enough joins to widen.
        #[test]
        fn counted_loops_match_per_pc_fixpoint(
            prefix in prop::collection::vec(inst_sel(), 0..6),
            outer in loop_sel(),
            inner in loop_sel(),
            body in prop::collection::vec(inst_sel(), 0..6),
            tail in prop::collection::vec(inst_sel(), 0..6),
            setting in setting(),
        ) {
            let mut outer_body = counted_loop(inner, body.into_iter().map(inst_from).collect());
            outer_body.extend(tail.into_iter().map(inst_from));
            let mut insts: Vec<ControlInst> = prefix.into_iter().map(inst_from).collect();
            insts.extend(counted_loop(outer, outer_body));
            insts.push(ControlInst::Halt);
            let program: ControlProgram = insts.into_iter().collect();
            check(setting, &program);
        }
    }

    #[test]
    fn example_fixtures_match_per_pc_fixpoint() {
        let fixtures = [
            include_str!("../../../examples/programs/allowed_spm_oob.gdp"),
            include_str!("../../../examples/programs/broken_branch_target.gdp"),
            include_str!("../../../examples/programs/broken_fifo_imbalance.gdp"),
            include_str!("../../../examples/programs/broken_spm_oob.gdp"),
            include_str!("../../../examples/programs/clean.gdp"),
            include_str!("../../../examples/programs/warn_def_before_use.gdp"),
        ];
        let contract = PeContract::new();
        for source in fixtures {
            let program: ControlProgram = source.parse().expect("fixture parses");
            for pe in [None, Some(0), Some(3)] {
                for compute_len in [None, Some(0), Some(12)] {
                    let analysis = ControlAnalysis::new(&contract, pe, 4, compute_len);
                    assert_blocks_match_per_pc(&analysis, &program);
                }
            }
        }
    }

    #[test]
    fn leaders_are_entry_branch_targets_and_fall_throughs() {
        let program: ControlProgram = "li a[0] 0\nli a[1] 3\nmv rf[0] in\naddi a0 a0 1\n\
                                       blt a0 a1 -2\nbeq a0 a1 9\nhalt"
            .parse()
            .expect("parses");
        // pc 2 is the loop head, 5 and 6 fall-throughs; the target of
        // `beq` (pc 14) is past the end and leads no block.
        assert_eq!(block_leaders(&program), vec![0, 2, 5, 6]);
        let straight: ControlProgram = "li a[0] 0\nmv rf[0] in\nmv out rf[0]\nhalt"
            .parse()
            .expect("parses");
        assert_eq!(block_leaders(&straight), vec![0]);
    }
}
