//! Counted cell loops for generated control programs. The paper's control
//! programs are loops over address-register induction variables (§4.4);
//! this module lays out a run of DP cells as one.
//!
//! A cell is `B(k-1)`, the moves that forward or collect the previous
//! cell's outputs, then `A(k)`, the moves that load its inputs, then
//! `set cu`. For the `compute_len - 1` cycles after `set cu` — the
//! *compute shadow* — the next move that touches the register file stalls
//! on the interlock. Loop control touches only address registers, so it
//! retires inside the shadow instead of costing cycles:
//!
//! * the first `peel` cells load immediates and carry the loop set-up in
//!   their shadows: `li` of the induction register, of the bound when it
//!   changes, and of any accumulator;
//! * the loop body covers `u` cells, with its `addi`s and the closing
//!   `blt` spread over their shadows, where `u = ⌈loop control / shadow⌉`;
//! * the cells past the loop stay straight-line.
//!
//! Every loop-control instruction takes a cycle in which the straight-line
//! program stalled, so the rolled program keeps its timing to the cycle. A
//! run that cannot roll that way (no shadow, a loop of less than one
//! iteration, or per-cell values that a multi-cell body cannot step) is
//! emitted straight-line.

use gendp_isa::{AddrReg, BranchCond, ControlInst, ControlProgram, Loc, Space};

/// The induction register: it holds `first + k` while cell `k` of a loop
/// iteration loads, until the iteration's `addi` advances it by `u`.
pub(crate) const INDUCTION: u8 = 0;

/// The loop bound register (`blt a0 a1`).
const BOUND: u8 = 1;

/// The first accumulator register.
const FIRST_ACC: u8 = 2;

/// Address registers of the arrays the generated programs load into.
const AREGS: usize = 16;

/// How a cell addresses its per-cell values.
#[derive(Debug, Clone, Copy)]
pub(crate) enum At {
    /// A straight-line cell: values are immediates, addresses direct.
    Imm,
    /// A looped cell: the induction register holds `j` while it loads, and
    /// accumulator `i` ([`acc`]) holds the cell's value of `accs[i]`.
    Reg {
        /// The induction register's value.
        j: i32,
    },
}

/// The register of accumulator `i`.
pub(crate) fn acc(i: usize) -> Loc {
    Loc::areg(u16::from(FIRST_ACC) + i as u16)
}

/// One run of cells.
#[derive(Debug)]
pub(crate) struct Run {
    /// Cells in the run.
    pub cells: usize,
    /// Cells from here on stay straight-line after the loop; 0 keeps the
    /// whole run straight-line.
    pub looped: usize,
    /// The induction register's value at cell 0; it steps by one per cell.
    pub first: i32,
    /// Per-cell values the looped cells read from accumulators: the value
    /// at cell 0 and the step per cell.
    pub accs: Vec<(i32, i32)>,
    /// Whether looped cells read the induction register's value, not only
    /// addresses relative to it. Such a loop, like one with accumulators,
    /// must step once per cell (`u = 1`).
    pub reads_index: bool,
}

impl Run {
    /// The peel count and cells per iteration, or `None` when the run is
    /// emitted straight-line. `bound` is the bound register's value left
    /// by an earlier run of the program.
    fn layout(&self, shadow: usize, bound: Option<i32>) -> Option<(usize, usize)> {
        if shadow == 0 || FIRST_ACC as usize + self.accs.len() > AREGS {
            return None;
        }
        // Loop control: one `addi` per stepped register and the `blt`.
        let u = (2 + self.accs.len()).div_ceil(shadow);
        if u > 1 && (self.reads_index || !self.accs.is_empty()) {
            return None;
        }
        // Peel until the loop covers whole iterations and the peeled
        // shadows hold the set-up.
        let setup = 1 + usize::from(bound != Some(self.bound())) + self.accs.len();
        let mut peel = u + self.looped.saturating_sub(u) % u;
        while peel * shadow < setup {
            peel += u;
        }
        (peel + u <= self.looped).then_some((peel, u))
    }

    /// The induction register's value once the loop is done.
    fn bound(&self) -> i32 {
        self.first + self.looped as i32
    }
}

/// Emits `run` into `prog` for a compute program of `compute_len` words:
/// `load(prog, k, at)` emits A(k) and `store(prog, k)` emits B(k). `bound`
/// carries the bound register's value from run to run of one program.
pub(crate) fn emit(
    prog: &mut ControlProgram,
    compute_len: usize,
    run: &Run,
    bound: &mut Option<i32>,
    mut load: impl FnMut(&mut ControlProgram, usize, At),
    mut store: impl FnMut(&mut ControlProgram, usize),
) {
    let shadow = compute_len.saturating_sub(1);
    let mut cell = |prog: &mut ControlProgram, k: usize, at: At| {
        if k > 0 {
            store(prog, k - 1);
        }
        load(prog, k, at);
        prog.push(ControlInst::set_compute(0));
    };
    let Some((peel, u)) = run.layout(shadow, *bound) else {
        for k in 0..run.cells {
            cell(prog, k, At::Imm);
        }
        store(prog, run.cells - 1);
        return;
    };

    let li = |reg: u8, imm: i32| ControlInst::Li {
        dest: Loc::areg(reg.into()),
        imm,
    };
    let addi = |reg: u8, imm: i32| ControlInst::Addi {
        rd: AddrReg(reg),
        rs1: AddrReg(reg),
        imm,
    };
    let mut setup = vec![li(INDUCTION, run.first + peel as i32)];
    if *bound != Some(run.bound()) {
        setup.push(li(BOUND, run.bound()));
        *bound = Some(run.bound());
    }
    let mut control = vec![addi(INDUCTION, u as i32)];
    for (i, &(at0, step)) in run.accs.iter().enumerate() {
        let reg = FIRST_ACC + i as u8;
        setup.push(li(reg, at0 + step * peel as i32));
        control.push(addi(reg, step));
    }

    let mut setup = setup.into_iter();
    for k in 0..peel {
        cell(prog, k, At::Imm);
        prog.extend(setup.by_ref().take(shadow));
    }
    debug_assert!(setup.next().is_none(), "the peeled shadows hold the set-up");

    // The body: one cell per shadow, each shadow filled with the next
    // loop-control instructions, the last of which is the back edge.
    let head = prog.len();
    let mut j = run.first + peel as i32;
    let mut control = control.into_iter();
    for i in 0..u {
        cell(prog, peel + i, At::Reg { j });
        let take = if i + 1 == u { shadow - 1 } else { shadow };
        prog.extend(control.by_ref().take(take));
        if i == 0 {
            j += u as i32;
        }
    }
    debug_assert!(
        control.next().is_none(),
        "the body's shadows hold the loop control"
    );
    let offset = head as i64 - prog.len() as i64;
    prog.push(ControlInst::Branch {
        cond: BranchCond::Lt,
        rs1: AddrReg(INDUCTION),
        rs2: AddrReg(BOUND),
        offset: i16::try_from(offset).expect("a loop body spans fewer than 2^15 instructions"),
    });

    for k in run.looped..run.cells {
        cell(prog, k, At::Imm);
    }
    store(prog, run.cells - 1);
}

/// Scratchpad word `addr` for a cell at `at`: direct for a straight-line
/// cell, relative to the induction register in the loop.
pub(crate) fn spm(addr: usize, at: At) -> Loc {
    match at {
        At::Imm => Loc::spm(addr as u16),
        At::Reg { j } => Loc::indirect(
            Space::Spm,
            INDUCTION,
            i16::try_from(addr as i64 - i64::from(j))
                .expect("the caller keeps loop offsets in 16 bits"),
        ),
    }
}
