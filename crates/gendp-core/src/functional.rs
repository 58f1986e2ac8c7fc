//! The functional execution tier for 2-D wavefront kernels: batched
//! row-sweep evaluation of the kernel semantics, no per-cycle simulation.
//!
//! # Why this is bit-identical to the simulator
//!
//! The control programs [`Wavefront2d`](crate::Wavefront2d) generates are
//! fully unrolled and deterministic: the only inter-PE communication is
//! the forwarded stream tuple (column character + streamed outputs), which
//! travels strictly row `i` → row `i+1` in FIFO order through blocking
//! ports. Stall timing can therefore never change *which* value a cell
//! reads — only *when* — so executing the rows in global row order (each
//! PE's rows in increasing order, with that PE's register file persisting
//! across its rows) commits exactly the same register-file values, cell
//! evaluations and output words as the concurrent systolic execution.
//!
//! The sweep mirrors the generated program move for move: row prologue
//! (the row character the program reads from the PE's scratchpad,
//! left/carry initializers, stream landing preload), then
//! per cell — column character in, diagonal reads *before* landing
//! updates, landing updates, optional column index, one compute
//! activation ([`gendp_isa::eval_cell`], the same arithmetic the
//! simulated engines run), last-row collects or stream forwarding, left
//! updates — and finally the per-PE drains in chain order. Forwarded
//! column characters are taken from the post-compute register file (not
//! assumed from the input), so a kernel whose compute program overwrites
//! the column-character slot still streams identically.
//!
//! # Cycle reporting
//!
//! Nothing is simulated, so cycles come from the certificate's analytic
//! model: `cycle_exact` when the model proves exactness, otherwise the
//! proven `cycle_bound` with [`RunStats::cycles_estimated`] set (wavefront
//! programs touch ports and FIFOs, so they are never stall-free and
//! `cycle_exact` is `None` in practice).

use gendp_dpax::{PeStats, RunStats, Tier};
use gendp_isa::{eval_cell, eval_cell_certified, DecodedComputeProgram, Luts, Mode, Word};
use gendp_verify::Certificate;

use crate::wavefront2d::Border;

/// One streamed value of the plan: where it lands, where the compute
/// program writes it, and its borders.
#[derive(Debug, Clone)]
pub(crate) struct PlanStream {
    pub landing: usize,
    pub out: usize,
    pub row0: Border,
    pub col0: Border,
}

/// A diagonal role: copy the landing of stream `src` (still holding the
/// `(i-1, j-1)` value) into ext slot `ext` before the landings advance.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlanDiag {
    pub ext: usize,
    /// Index into [`FunctionalPlan::streams`].
    pub src: usize,
}

/// A left/carry role: ext slot, producing output slot, column-0 border,
/// and whether it re-initializes every row (left) or once per PE (carry).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlanLeft {
    pub ext: usize,
    pub out: usize,
    pub col0: Border,
    pub per_row: bool,
}

/// A kernel's roles resolved to register-file slots: what its control
/// programs are generated from, and what the functional sweep reads.
#[derive(Debug, Clone)]
pub(crate) struct RoleSlots {
    pub row_char: usize,
    pub col_char: usize,
    pub streams: Vec<PlanStream>,
    pub diags: Vec<PlanDiag>,
    pub lefts: Vec<PlanLeft>,
    pub col_index: Option<usize>,
    pub collects: Vec<usize>,
    pub drains: Vec<usize>,
}

/// Reusable execution buffers, kept across [`FunctionalPlan::execute`]
/// replays so the hot loop allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    /// Per-PE register files, flattened (`n_pes * rf_slots`).
    rfs: Vec<Word>,
    /// Previous row's forwarded tuples, flattened per stream.
    prev: Vec<Word>,
    /// Current row's forwarded tuples.
    cur: Vec<Word>,
    /// Output words in simulator order: last-row collects, then drains.
    out: Vec<Word>,
    /// Cells computed per PE.
    cells: Vec<u64>,
}

/// A wavefront task lowered for functional execution: role slots
/// resolved, compute program pre-decoded, per-cell statistic weights
/// pre-summed. Built with the prepared task of a shape when the tier
/// policy requests [`Tier::Functional`]; `Wavefront2d::bind` sets its
/// rows and columns.
#[derive(Debug)]
pub struct FunctionalPlan {
    pub(crate) program: DecodedComputeProgram,
    pub(crate) mode: Mode,
    pub(crate) luts: Luts,
    pub(crate) rf_slots: usize,
    pub(crate) n_pes: usize,
    pub(crate) rows: Vec<i32>,
    /// Streamed tasks: the column characters. Banded tasks: the padded
    /// column sequence indexed by `row + k`.
    pub(crate) cols: Vec<i32>,
    /// `Some(width)` for banded tasks.
    pub(crate) band: Option<usize>,
    pub(crate) roles: RoleSlots,
    /// Per-activation `(vliw_issued, cu_slots_active, rf_accesses)`.
    pub(crate) weights: (u64, u64, u64),
    pub(crate) ws: Workspace,
}

impl FunctionalPlan {
    /// Output words of the last execution, in the simulator's order
    /// (last-row collects cycling the collect names, then per-PE drains
    /// cycling the drain names, first PE first).
    pub fn output(&self) -> &[Word] {
        &self.ws.out
    }

    /// Runs the task functionally and reports statistics with analytic
    /// cycles from `cert` (see the module docs). Infallible: the sweep
    /// has no ports to deadlock, no budget to exhaust, and runs only
    /// statically verified programs.
    pub fn execute(&mut self, cert: Option<&Certificate>) -> RunStats {
        let mut ws = std::mem::take(&mut self.ws);
        ws.rfs.clear();
        ws.rfs.resize(self.n_pes * self.rf_slots, Word::ZERO);
        ws.out.clear();
        ws.cells.clear();
        ws.cells.resize(self.n_pes, 0);
        // A safe certificate entitles the sweep to the unchecked
        // register-file access path, exactly like the decoded engine's
        // certified mode (the functional tier only engages with one; the
        // checked path keeps `execute` total for direct callers).
        let certified = cert.is_some_and(|c| c.safe());
        match (self.band, certified) {
            (None, true) => self.sweep_streamed(&mut ws, eval_cell_certified),
            (None, false) => self.sweep_streamed(&mut ws, eval_cell),
            (Some(width), true) => self.sweep_banded(&mut ws, width, eval_cell_certified),
            (Some(width), false) => self.sweep_banded(&mut ws, width, eval_cell),
        }
        // Drains: PE p relays its upstreams' drains then appends its own,
        // so the sink sees them in chain order.
        let active = self.n_pes.min(self.rows.len());
        for p in 0..active {
            let rf = &ws.rfs[p * self.rf_slots..(p + 1) * self.rf_slots];
            for &slot in &self.roles.drains {
                ws.out.push(rf[slot]);
            }
        }
        let stats = self.stats(&ws.cells, cert);
        self.ws = ws;
        stats
    }

    /// The full-table sweep, mirroring `Wavefront2d::pe_program`.
    /// `eval` is one of [`eval_cell`]/[`eval_cell_certified`] — passed as
    /// a function item so each access path monomorphizes and inlines.
    fn sweep_streamed(
        &self,
        ws: &mut Workspace,
        eval: impl Fn(&DecodedComputeProgram, Mode, &Luts, &mut [Word]),
    ) {
        let m = self.rows.len();
        let n = self.cols.len();
        let ns = self.roles.streams.len();
        // Tuple layout: [column characters; n][stream 0; n][stream 1; n]…
        ws.prev.clear();
        ws.prev.extend(self.cols.iter().map(|&c| Word::from_i32(c)));
        ws.prev.resize((1 + ns) * n, Word::ZERO);
        ws.cur.clear();
        ws.cur.resize((1 + ns) * n, Word::ZERO);

        for r in 0..m {
            let p = r % self.n_pes;
            let rf = &mut ws.rfs[p * self.rf_slots..(p + 1) * self.rf_slots];
            let last = r + 1 == m;

            // Row prologue.
            rf[self.roles.row_char] = Word::from_i32(self.rows[r]);
            for l in &self.roles.lefts {
                if l.per_row || r == p {
                    rf[l.ext] = Word::from_i32(l.col0.at(r));
                }
            }
            for s in &self.roles.streams {
                rf[s.landing] = Word::from_i32(if r == 0 {
                    s.row0.at(0)
                } else {
                    s.col0.at(r - 1)
                });
            }

            for c in 1..=n {
                let idx = c - 1;
                rf[self.roles.col_char] = ws.prev[idx];
                // Diagonal reads before the landings advance.
                for d in &self.roles.diags {
                    rf[d.ext] = rf[self.roles.streams[d.src].landing];
                }
                for (v, s) in self.roles.streams.iter().enumerate() {
                    rf[s.landing] = if r == 0 {
                        Word::from_i32(s.row0.at(c))
                    } else {
                        ws.prev[(1 + v) * n + idx]
                    };
                }
                if let Some(j) = self.roles.col_index {
                    rf[j] = Word::from_i32(c as i32);
                }
                eval(&self.program, self.mode, &self.luts, rf);
                ws.cells[p] += 1;
                if last {
                    for &slot in &self.roles.collects {
                        ws.out.push(rf[slot]);
                    }
                } else {
                    // Forward the *post-compute* column character, exactly
                    // like the generated `mv out rf[col_char]`.
                    ws.cur[idx] = rf[self.roles.col_char];
                    for (v, s) in self.roles.streams.iter().enumerate() {
                        ws.cur[(1 + v) * n + idx] = rf[s.out];
                    }
                }
                for l in &self.roles.lefts {
                    rf[l.ext] = rf[l.out];
                }
            }
            if !last {
                std::mem::swap(&mut ws.prev, &mut ws.cur);
            }
        }
    }

    /// The banded sweep, mirroring `Wavefront2d::pe_program_banded`:
    /// row `r` computes `width` cells starting at its own diagonal, column
    /// characters read from the padded sequence (the window the program
    /// reads from its scratchpad), streams shifted one tuple (the previous
    /// row's first tuple is this row's preload).
    fn sweep_banded(
        &self,
        ws: &mut Workspace,
        width: usize,
        eval: impl Fn(&DecodedComputeProgram, Mode, &Luts, &mut [Word]),
    ) {
        let m = self.rows.len();
        let ns = self.roles.streams.len();
        ws.prev.clear();
        ws.prev.resize(ns * width, Word::ZERO);
        ws.cur.clear();
        ws.cur.resize(ns * width, Word::ZERO);

        for r in 0..m {
            let p = r % self.n_pes;
            let rf = &mut ws.rfs[p * self.rf_slots..(p + 1) * self.rf_slots];
            let last = r + 1 == m;

            rf[self.roles.row_char] = Word::from_i32(self.rows[r]);
            for l in &self.roles.lefts {
                if l.per_row || r == p {
                    rf[l.ext] = Word::from_i32(l.col0.at(r));
                }
            }
            for (v, s) in self.roles.streams.iter().enumerate() {
                rf[s.landing] = if r == 0 {
                    Word::from_i32(s.row0.at(0))
                } else {
                    ws.prev[v * width]
                };
            }

            for k in 0..width {
                rf[self.roles.col_char] = Word::from_i32(self.cols[r + k]);
                for d in &self.roles.diags {
                    rf[d.ext] = rf[self.roles.streams[d.src].landing];
                }
                // The up value: next tuple, except the last cell of the
                // row, whose up-neighbor sits outside the band.
                for (v, s) in self.roles.streams.iter().enumerate() {
                    rf[s.landing] = if k + 1 == width {
                        Word::from_i32(s.row0.at(r + k + 1))
                    } else if r == 0 {
                        Word::from_i32(s.row0.at(k + 1))
                    } else {
                        ws.prev[v * width + k + 1]
                    };
                }
                if let Some(j) = self.roles.col_index {
                    rf[j] = Word::from_i32((r + k + 1) as i32);
                }
                eval(&self.program, self.mode, &self.luts, rf);
                ws.cells[p] += 1;
                if !last {
                    for (v, s) in self.roles.streams.iter().enumerate() {
                        ws.cur[v * width + k] = rf[s.out];
                    }
                }
                for l in &self.roles.lefts {
                    rf[l.ext] = rf[l.out];
                }
            }
            if !last {
                std::mem::swap(&mut ws.prev, &mut ws.cur);
            }
        }
    }

    /// Builds the run statistics: per-PE cell counts from the sweep,
    /// compute-side counters from the pre-summed per-activation weights,
    /// cycles from the certificate's analytic model. Control-thread and
    /// FIFO counters are zero — nothing was simulated.
    fn stats(&self, cells: &[u64], cert: Option<&Certificate>) -> RunStats {
        let (cycles, estimated) = match cert {
            Some(c) => match (c.cycle_exact(), c.cycle_bound()) {
                (Some(exact), _) => (exact, false),
                (None, Some(bound)) => (bound, true),
                (None, None) => (c.cycle_floor(), true),
            },
            None => (0, true),
        };
        let (w_vliw, w_slots, w_rf) = self.weights;
        RunStats {
            cycles,
            fifo_pushes: 0,
            fifo_pops: 0,
            fifo_high_water: 0,
            per_pe: cells
                .iter()
                .map(|&cells| PeStats {
                    cells,
                    vliw_issued: cells * w_vliw,
                    cu_slots_active: cells * w_slots,
                    rf_accesses: cells * w_rf,
                    ..PeStats::default()
                })
                .collect(),
            tier: Tier::Functional,
            cycles_estimated: estimated,
        }
    }
}
