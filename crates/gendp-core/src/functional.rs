//! The functional execution tier for 2-D wavefront kernels: the kernel
//! semantics evaluated along the table's anti-diagonals, one lane per PE,
//! with no per-cycle simulation.
//!
//! # Sweep order
//!
//! Rows go to PEs round-robin, so PE `p` owns rows `p`, `p + n_pes`, …
//! The sweep runs the table the way the array does: each block of
//! `n_pes` rows along its anti-diagonals, PE `p` on cell `t - p` of its
//! row on the block's step `t` (banded: `t - 2p`), and each PE on to its
//! next row once it has finished the last one and the array's last PE has
//! forwarded the row above (`Schedule`). The cells of one step depend on
//! nothing computed in that step, so one compute activation serves all of
//! them: the PEs' register files are kept as lanes of a structure of
//! arrays and [`gendp_isa::eval_lanes`] evaluates each VLIW word once for
//! every PE of the step, [`LANES`] at a time. Stream forwarding becomes a
//! lane shift: PE `p` reads on step `t` what PE `p - 1` forwarded on step
//! `t - 1`. A banded cell reads the previous row's *next* tuple, hence the
//! two-step skew there. PE 0 reads the row buffer, which holds the tuples
//! the array's last PE forwarded from the row above (row 0's borders for
//! the first block). A PE with no cell on a step (before its first row,
//! after its last, or between the rows of a table narrower than the
//! array) keeps its register file as it is.
//!
//! # Why this is bit-identical to the simulator
//!
//! The control programs [`Wavefront2d`](crate::Wavefront2d) generates are
//! deterministic — their counted column loops have fixed trip counts, and
//! each iteration moves exactly the words a straight-line cell would — and
//! the only inter-PE communication is the forwarded stream tuple (column
//! character + streamed outputs), which travels strictly row `i` → row
//! `i+1` in FIFO order through blocking ports. The array is a Kahn
//! process network (module `events` of `gendp-dpax`): stall timing can
//! never change *which* value a cell reads, only *when*. The sweep keeps
//! the two facts that argument rests on. Each PE's register file sees its
//! own rows in increasing order and each row's cells in column order,
//! persisting across them; and every value a cell reads comes from the
//! producer the program names: the same column (banded: the next tuple)
//! of the row above, through a lane shift within a block and the row
//! buffer across blocks. The schedule's period keeps the row buffer
//! exact: PE 0 reads a tuple at least one step after the last PE wrote it
//! and no later than the step the last PE overwrites it with the next
//! block's. So the sweep commits exactly the register-file values, cell
//! evaluations and output words of the concurrent systolic execution, in
//! whichever order the PEs interleave.
//!
//! Per PE, the sweep mirrors the generated program move for move: row
//! prologue (the row character the program reads from the PE's
//! scratchpad, left/carry initializers, stream landing preload), then per
//! cell — column character in, diagonal reads *before* landing updates,
//! landing updates, optional column index, one compute activation (lane
//! `p` of [`gendp_isa::eval_lanes`], which computes exactly what
//! [`gendp_isa::eval_cell`] and the simulated engines compute on PE `p`'s
//! file), last-row collects or stream forwarding, left updates — and
//! finally the per-PE drains in chain order. Forwarded column characters
//! are taken from the post-compute register file (not assumed from the
//! input), so a kernel whose compute program overwrites the
//! column-character slot still streams identically.
//!
//! # Statistics
//!
//! Nothing is simulated, so the sweep counts nothing. A prepared task's
//! statistics depend on its shape alone, so
//! [`PreparedTask`](crate::PreparedTask) runs its first execution
//! simulated and hands out that run's statistics for every functional
//! execution after it.

use std::array;

use gendp_isa::{eval_lanes, DecodedComputeProgram, LaneWords, Lanes, Luts, Mode, Word, LANES};

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

/// The PEs' register files as lanes of [`eval_lanes`]: PEs `k * LANES`
/// onwards form chunk `k`, `slots` lane vectors, so PE `p`'s slot `s` is
/// lane `p % LANES` of `words[(p / LANES) * slots + s]`.
#[derive(Debug, Default)]
struct RegisterFiles {
    words: Vec<LaneWords>,
    slots: usize,
}

impl RegisterFiles {
    /// Zeroed files for `n_pes` PEs of `slots` words each.
    fn reset(&mut self, n_pes: usize, slots: usize) {
        self.slots = slots;
        self.words.clear();
        self.words
            .resize(n_pes.div_ceil(LANES) * slots, [Word::ZERO; LANES]);
    }

    fn get(&self, p: usize, slot: usize) -> Word {
        self.words[p / LANES * self.slots + slot][p % LANES]
    }

    /// The files of chunk `k`.
    fn chunk(&mut self, k: usize) -> &mut [LaneWords] {
        &mut self.words[k * self.slots..(k + 1) * self.slots]
    }
}

/// When the sweep runs each cell: PE `p` computes cell `k` of its `b`-th
/// row (row `b * n_pes + p`) on step `b * period + skew * p + k`. A row
/// trails the row above by `skew` steps, and a PE starts its next row once
/// it has finished its last one and the array's last PE has forwarded the
/// row above: `period` is the longer of a row's cells and `skew * n_pes`.
#[derive(Debug, Clone, Copy)]
struct Schedule {
    n_pes: usize,
    rows: usize,
    cells: usize,
    skew: usize,
    period: usize,
}

impl Schedule {
    fn new(n_pes: usize, rows: usize, cells: usize, skew: usize) -> Self {
        Schedule {
            n_pes,
            rows,
            cells,
            skew,
            period: cells.max(skew * n_pes),
        }
    }

    /// Steps until the last row's last cell.
    fn len(&self) -> usize {
        let last = self.rows - 1;
        last / self.n_pes * self.period + self.skew * (last % self.n_pes) + self.cells
    }

    /// The chunks with a PE on a cell at step `t`, downstream first, so
    /// that each chunk reads what its upstream chunk forwarded on the last
    /// step before that chunk overwrites it.
    fn steps(self, t: usize) -> impl Iterator<Item = Step> {
        let (b0, k0) = (t / self.period, t % self.period);
        (0..self.n_pes.div_ceil(LANES)).rev().filter_map(move |k| {
            let mut step = Step {
                k,
                base: k * LANES,
                on: [false; LANES],
                row: [0; LANES],
                cell: [0; LANES],
            };
            for l in 0..LANES.min(self.n_pes - step.base) {
                let p = step.base + l;
                // PE 0's row block and cell, `skew * p` steps back.
                let lag = self.skew * p;
                let (b, cell) = match k0.checked_sub(lag) {
                    Some(cell) => (b0, cell),
                    None if b0 > 0 => (b0 - 1, k0 + self.period - lag),
                    None => continue,
                };
                let row = b * self.n_pes + p;
                if cell < self.cells && row < self.rows {
                    (step.on[l], step.row[l], step.cell[l]) = (true, row, cell);
                }
            }
            step.on.contains(&true).then_some(step)
        })
    }
}

/// The PEs of one chunk on one step: lane `l` is PE `base + l`, and where
/// `on[l]` is set it computes cell `cell[l]` of row `row[l]`.
struct Step {
    k: usize,
    base: usize,
    on: Lanes,
    row: [usize; LANES],
    cell: [usize; LANES],
}

impl Step {
    /// Writes `v` into the lanes of `dst` that compute a cell.
    #[inline]
    fn put(&self, dst: &mut LaneWords, v: LaneWords) {
        for ((d, v), on) in dst.iter_mut().zip(v).zip(self.on) {
            if on {
                *d = v;
            }
        }
    }

    /// One word per lane: `f(row, cell)` where the lane computes a cell.
    #[inline]
    fn per_cell(&self, f: impl Fn(usize, usize) -> i32) -> LaneWords {
        array::from_fn(|l| match self.on[l] {
            true => Word::from_i32(f(self.row[l], self.cell[l])),
            false => Word::ZERO,
        })
    }

    /// The lanes computing a cell, with their rows and cells.
    fn cells(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        (0..LANES)
            .filter(|&l| self.on[l])
            .map(|l| (l, self.row[l], self.cell[l]))
    }
}

/// `src` shifted one lane downstream, lane 0 taking `carry`: what each PE
/// of a chunk reads from its upstream neighbour on an anti-diagonal.
#[inline]
fn shift(carry: Word, src: &LaneWords) -> LaneWords {
    let mut out = [carry; LANES];
    out[1..].copy_from_slice(&src[..LANES - 1]);
    out
}

/// Reusable execution buffers, kept across [`FunctionalPlan::execute`]
/// replays so the hot loop allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    rfs: RegisterFiles,
    /// What each chunk's PEs forwarded on the last step: forwarded value
    /// `v` of chunk `k` at `fwd[k * values + v]`.
    fwd: Vec<LaneWords>,
    /// The row buffer: the tuples the array's last PE forwarded from its
    /// last row (before that, row 0's borders), value `v` of tuple `k` at
    /// `row[v * tuples + k]`.
    row: Vec<Word>,
    /// Banded: the tuple each PE's upstream forwarded from the first cell
    /// of its row, the PE's preload, value `v` of PE `p` at
    /// `first[p * values + v]`.
    first: Vec<Word>,
    /// Output words in simulator order: last-row collects, then drains.
    out: Vec<Word>,
}

/// A wavefront task lowered for functional execution: role slots
/// resolved, compute program pre-decoded. Built with the prepared task of
/// a shape when the configuration requests
/// [`Tier::Functional`](gendp_dpax::Tier::Functional);
/// `Wavefront2d::bind` sets its rows and columns.
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
    pub(crate) ws: Workspace,
}

impl FunctionalPlan {
    /// Output words of the last execution, in the simulator's order
    /// (last-row collects cycling the collect names, then per-PE drains
    /// cycling the drain names, first PE first).
    pub fn output(&self) -> &[Word] {
        &self.ws.out
    }

    /// Runs the task functionally, leaving its words in
    /// [`output`](Self::output). Infallible: the sweep has no ports to
    /// deadlock, no budget to exhaust, and runs only statically verified
    /// programs.
    pub fn execute(&mut self) {
        let mut ws = std::mem::take(&mut self.ws);
        ws.rfs.reset(self.n_pes, self.rf_slots);
        ws.out.clear();
        match self.band {
            None => self.sweep_streamed(&mut ws),
            Some(width) => self.sweep_banded(&mut ws, width),
        }
        // Drains: PE p relays its upstreams' drains then appends its own,
        // so the sink sees them in chain order.
        for p in 0..self.n_pes.min(self.rows.len()) {
            for &slot in &self.roles.drains {
                ws.out.push(ws.rfs.get(p, slot));
            }
        }
        self.ws = ws;
    }

    /// The prologue of row `r` on lane `l`, PE `p`, that reads nothing
    /// upstream: its row character and its left/carry initializers.
    fn row_prologue(&self, files: &mut [LaneWords], l: usize, r: usize, p: usize) {
        files[self.roles.row_char][l] = Word::from_i32(self.rows[r]);
        for left in &self.roles.lefts {
            if left.per_row || r == p {
                files[left.ext][l] = Word::from_i32(left.col0.at(r));
            }
        }
    }

    /// One compute activation on the PEs of `step`, leaving in `fwd` the
    /// values each forwards (the `outs` slots, read straight after it).
    fn compute(
        &self,
        files: &mut [LaneWords],
        fwd: &mut [LaneWords],
        outs: impl Iterator<Item = usize>,
        step: &Step,
    ) {
        eval_lanes(&self.program, self.mode, &self.luts, files, &step.on);
        for (f, slot) in fwd.iter_mut().zip(outs) {
            *f = files[slot];
        }
    }

    /// The diagonal reads that open a cell, before the landings advance.
    fn read_diags(&self, files: &mut [LaneWords], step: &Step) {
        for d in &self.roles.diags {
            let v = files[self.roles.streams[d.src].landing];
            step.put(&mut files[d.ext], v);
        }
    }

    /// The left/carry updates that close a cell.
    fn update_lefts(&self, files: &mut [LaneWords], step: &Step) {
        for l in &self.roles.lefts {
            let v = files[l.out];
            step.put(&mut files[l.ext], v);
        }
    }

    /// The full-table sweep, mirroring `Wavefront2d::pe_program`: PE `p`
    /// computes column `k + 1` of a row `p` steps after PE 0 computes it
    /// in the block's first row. A forwarded tuple reaches the next PE one
    /// step later, at the same column.
    fn sweep_streamed(&self, ws: &mut Workspace) {
        let (m, n, np) = (self.rows.len(), self.cols.len(), self.n_pes);
        let roles = &self.roles;
        let Workspace {
            rfs, fwd, row, out, ..
        } = ws;
        // Forwarded values: the column character, then each stream.
        let values = 1 + roles.streams.len();
        let slot_out = |v: usize| match v {
            0 => roles.col_char,
            v => roles.streams[v - 1].out,
        };
        // Row 0 reads the task's columns and its row-0 borders.
        row.clear();
        row.extend(self.cols.iter().map(|&c| Word::from_i32(c)));
        for s in &roles.streams {
            row.extend((1..=n).map(|c| Word::from_i32(s.row0.at(c))));
        }
        fwd.clear();
        fwd.resize(np.div_ceil(LANES) * values, [Word::ZERO; LANES]);

        let schedule = Schedule::new(np, m, n, 1);
        for t in 0..schedule.len() {
            for step in schedule.steps(t) {
                let files = rfs.chunk(step.k);
                for (l, r, _) in step.cells().filter(|&(_, _, c)| c == 0) {
                    self.row_prologue(files, l, r, step.base + l);
                    for s in &roles.streams {
                        let landing = if r == 0 {
                            s.row0.at(0)
                        } else {
                            s.col0.at(r - 1)
                        };
                        files[s.landing][l] = Word::from_i32(landing);
                    }
                }
                // Loads: PE 0 reads the row buffer, every other PE what
                // its upstream forwarded on the last step.
                let tuple = |v: usize| {
                    let carry = match step.k {
                        0 => row[v * n + step.cell[0]],
                        k => fwd[(k - 1) * values + v][LANES - 1],
                    };
                    shift(carry, &fwd[step.k * values + v])
                };
                step.put(&mut files[roles.col_char], tuple(0));
                self.read_diags(files, &step);
                for (v, s) in roles.streams.iter().enumerate() {
                    step.put(&mut files[s.landing], tuple(1 + v));
                }
                if let Some(j) = roles.col_index {
                    step.put(&mut files[j], step.per_cell(|_, c| c as i32 + 1));
                }
                let fwd = &mut fwd[step.k * values..(step.k + 1) * values];
                // Forward the *post-compute* column character, exactly
                // like the generated `mv out rf[col_char]`.
                self.compute(files, fwd, (0..values).map(slot_out), &step);
                // The last row collects; the array's last PE hands its
                // tuples to the next block's first through the row buffer.
                for (l, r, c) in step.cells() {
                    if r + 1 == m {
                        out.extend(roles.collects.iter().map(|&slot| files[slot][l]));
                    } else if step.base + l + 1 == np {
                        for (v, f) in fwd.iter().enumerate() {
                            row[v * n + c] = f[l];
                        }
                    }
                }
                self.update_lefts(files, &step);
            }
        }
    }

    /// The banded sweep, mirroring `Wavefront2d::pe_program_banded`: row
    /// `r` computes `width` cells starting at its own diagonal, column
    /// characters read from the padded sequence (the window the program
    /// reads from its scratchpad), streams shifted one tuple (the previous
    /// row's first tuple is this row's preload). A cell reads the previous
    /// row's *next* tuple, so PE `p` runs two steps behind its upstream.
    fn sweep_banded(&self, ws: &mut Workspace, width: usize) {
        let (m, np) = (self.rows.len(), self.n_pes);
        let roles = &self.roles;
        let Workspace {
            rfs,
            fwd,
            row,
            first,
            ..
        } = ws;
        let values = roles.streams.len();
        // Row 0 reads its row-0 borders.
        row.clear();
        for s in &roles.streams {
            row.extend((0..width).map(|k| Word::from_i32(s.row0.at(k))));
        }
        first.clear();
        first.resize(np * values, Word::ZERO);
        fwd.clear();
        fwd.resize(np.div_ceil(LANES) * values, [Word::ZERO; LANES]);

        let schedule = Schedule::new(np, m, width, 2);
        for t in 0..schedule.len() {
            for step in schedule.steps(t) {
                let files = rfs.chunk(step.k);
                for (l, r, _) in step.cells().filter(|&(_, _, k)| k == 0) {
                    let p = step.base + l;
                    self.row_prologue(files, l, r, p);
                    for (v, s) in roles.streams.iter().enumerate() {
                        files[s.landing][l] = match p {
                            0 => row[v * width],
                            p => first[p * values + v],
                        };
                    }
                }
                // Cell k of row r reads column r + k.
                let chars = step.per_cell(|r, k| self.cols[r + k]);
                step.put(&mut files[roles.col_char], chars);
                self.read_diags(files, &step);
                // The up value: the next tuple, or past the band a border.
                for (v, s) in roles.streams.iter().enumerate() {
                    let carry = match step.k {
                        0 if step.cell[0] + 1 < width => row[v * width + step.cell[0] + 1],
                        0 => Word::ZERO,
                        k => fwd[(k - 1) * values + v][LANES - 1],
                    };
                    let mut up = shift(carry, &fwd[step.k * values + v]);
                    for (l, r, k) in step.cells() {
                        if k + 1 == width {
                            up[l] = Word::from_i32(s.row0.at(r + width));
                        }
                    }
                    step.put(&mut files[s.landing], up);
                }
                if let Some(j) = roles.col_index {
                    step.put(&mut files[j], step.per_cell(|r, k| (r + k + 1) as i32));
                }
                let fwd = &mut fwd[step.k * values..(step.k + 1) * values];
                let outs = roles.streams.iter().map(|s| s.out);
                self.compute(files, fwd, outs, &step);
                // A row's first tuple is its downstream's preload; the
                // array's last PE hands its tuples to the next block's
                // first through the row buffer.
                for (l, _, k) in step.cells() {
                    let p = step.base + l;
                    for (v, f) in fwd.iter().enumerate() {
                        if k == 0 && p + 1 < np {
                            first[(p + 1) * values + v] = f[l];
                        }
                        if p + 1 == np {
                            row[v * width + k] = f[l];
                        }
                    }
                }
                self.update_lefts(files, &step);
            }
        }
    }
}
