//! Control-program generation for 2-D wavefront kernels (paper Fig. 5(a,b)):
//! BSW, PairHMM, DTW, LCS.
//!
//! Rows of the DP table are assigned to PEs round-robin. Each PE reads its
//! rows' characters from its scratchpad, where the host stages them like
//! the input data buffer, while column characters and boundary values
//! stream through the systolic chain. The FIFO carries the boundary between
//! row groups (last PE of group `g` → first PE of group `g+1`). Programs
//! are generated per task *shape* — rows, columns, PE count and band — and
//! never contain a sequence character: [`Accelerator::bind`] stages a
//! task's content into a prepared task of its shape. Each row a PE owns is
//! a prologue and one counted column loop whose control retires in the
//! compute shadow (module `counted`), so a program holds O(rows / PEs)
//! instructions and runs exactly as many cycles as the straight-line code
//! it replaces.

use std::collections::BTreeMap;

use gendp_dfg::Dfg;
use gendp_dpax::{PeArray, PeArrayConfig, RunStats, SimError, Tier, TierPolicy};

use crate::accel::{Accelerator, BandSpec, PreparedTask, WavefrontTask};
use crate::counted::{self, At};
use crate::functional::{FunctionalPlan, PlanDiag, PlanLeft, PlanStream, RoleSlots};
use gendp_dpmap::{map_dfg, Mapping};
use gendp_isa::{ControlInst, ControlProgram, Loc, Luts, Mode, Space, Word};

/// A boundary-value rule, evaluated per column (row-0 borders) or per row
/// (column-0 borders).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Border {
    /// The same value everywhere.
    Const(i32),
    /// `base + step * k`.
    Linear {
        /// Value at `k = 0`.
        base: i32,
        /// Increment per step.
        step: i32,
    },
    /// One value at `k = 0`, another for `k > 0` (e.g. DTW's origin).
    FirstThenConst {
        /// Value at `k = 0`.
        first: i32,
        /// Value for `k > 0`.
        rest: i32,
    },
    /// One value at `k = 0`, then `base + step * k` (e.g. the global-mode
    /// gap border `0, -(o+e), -(o+2e), ...`).
    FirstThenLinear {
        /// Value at `k = 0`.
        first: i32,
        /// Linear base for `k > 0`.
        base: i32,
        /// Linear step for `k > 0`.
        step: i32,
    },
}

impl Border {
    /// `(base, step)` with `at(k) = base + step * k` for every `k >= 1`,
    /// when the border changes along that range.
    fn linear_tail(self) -> Option<(i32, i32)> {
        match self {
            Border::Linear { base, step } | Border::FirstThenLinear { base, step, .. }
                if step != 0 =>
            {
                Some((base, step))
            }
            _ => None,
        }
    }

    /// The border value at index `k`.
    pub fn at(self, k: usize) -> i32 {
        match self {
            Border::Const(v) => v,
            Border::Linear { base, step } => base + step * k as i32,
            Border::FirstThenConst { first, rest } => {
                if k == 0 {
                    first
                } else {
                    rest
                }
            }
            Border::FirstThenLinear { first, base, step } => {
                if k == 0 {
                    first
                } else {
                    base + step * k as i32
                }
            }
        }
    }
}

#[derive(Debug, Clone)]
struct UpRole {
    ext: String,
    src: String,
}

#[derive(Debug, Clone)]
struct LeftRole {
    ext: String,
    src: String,
    col0: Border,
    /// True: re-initialize at every row start (a true left neighbor).
    /// False: initialize once per PE (a running reduction carried across
    /// all the PE's rows, e.g. BSW's packed maximum).
    per_row: bool,
}

/// A configured 2-D wavefront kernel, ready to generate per-task programs
/// and run them on the DPAx simulator.
#[derive(Debug)]
pub struct Wavefront2d {
    mapping: Mapping,
    mode: Mode,
    luts: Luts,
    row_char: String,
    col_char: String,
    streamed: Vec<String>,
    up: Vec<UpRole>,
    diag: Vec<UpRole>,
    left: Vec<LeftRole>,
    row0: BTreeMap<String, Border>,
    col0: BTreeMap<String, Border>,
    col_index: Option<String>,
    collect: Vec<String>,
    drain: Vec<String>,
    /// Every role resolved to its register-file slots by
    /// [`finish`](Self::finish); `None` before it runs.
    roles: Option<RoleSlots>,
    rf_slots: usize,
    /// Multiplier on the internally derived cycle budget (retry
    /// escalation); never changes results, only the [`SimError::Timeout`]
    /// cutoff.
    budget_scale: u64,
    /// The requested execution tier. A functional request lowers the task
    /// to a [`FunctionalPlan`] at `prepare` time; it runs decoded when the
    /// certificate is not `safe()`.
    tiers: TierPolicy,
}

/// Functional results of one accelerator task.
#[derive(Debug, Clone, PartialEq)]
pub struct Wavefront2dOutput {
    /// Per collected output name: the last row's values, one per column.
    pub last_row: BTreeMap<String, Vec<i32>>,
    /// Per drained ext name: one final value per PE.
    pub drained: BTreeMap<String, Vec<i32>>,
    /// Simulator statistics.
    pub stats: RunStats,
}

impl Wavefront2d {
    /// Maps the objective function and prepares an empty role
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if the DFG is invalid (see [`map_dfg`]).
    pub fn new(dfg: &Dfg, mode: Mode, luts: Luts, row_char: &str, col_char: &str) -> Self {
        let mapping = map_dfg(dfg);
        assert!(
            mapping.layout.ext_slot(row_char).is_some(),
            "row char ext `{row_char}` missing"
        );
        assert!(
            mapping.layout.ext_slot(col_char).is_some(),
            "col char ext `{col_char}` missing"
        );
        let rf_slots = mapping.layout.slot_count() as usize;
        Wavefront2d {
            mapping,
            mode,
            luts,
            row_char: row_char.to_string(),
            col_char: col_char.to_string(),
            streamed: Vec::new(),
            up: Vec::new(),
            diag: Vec::new(),
            left: Vec::new(),
            row0: BTreeMap::new(),
            col0: BTreeMap::new(),
            col_index: None,
            collect: Vec::new(),
            drain: Vec::new(),
            roles: None,
            rf_slots,
            budget_scale: 1,
            tiers: TierPolicy::default(),
        }
    }

    /// Scales the internally derived cycle budget by `scale` (retry
    /// escalation after a [`SimError::Timeout`]). The budget is only a
    /// cutoff: a run that completes produces identical results and cycle
    /// counts at any scale.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is zero.
    pub fn budget_scale(mut self, scale: u64) -> Self {
        assert!(scale > 0, "budget scale must be positive");
        self.budget_scale = scale;
        self
    }

    /// Sets the requested execution tier (all tiers produce bit-identical
    /// outputs and statistics; a functional request simulates a prepared
    /// task's first execution).
    pub fn tiers(mut self, tiers: TierPolicy) -> Self {
        self.tiers = tiers;
        self
    }

    fn ext_slot(&self, name: &str) -> u16 {
        self.mapping
            .layout
            .ext_slot(name)
            .unwrap_or_else(|| panic!("unknown ext `{name}`"))
    }

    fn out_slot(&self, name: &str) -> u16 {
        self.mapping
            .layout
            .output_slot(name)
            .unwrap_or_else(|| panic!("unknown output `{name}`"))
    }

    /// Declares a streamed value: output `src` of row `i` is consumed by
    /// row `i+1`. `row0` gives the virtual row-0 border per column; `col0`
    /// the column-0 value per row (for the diagonal preload).
    pub fn stream(&mut self, src: &str, row0: Border, col0: Border) -> &mut Self {
        let _ = self.out_slot(src);
        assert!(
            !self.streamed.contains(&src.to_string()),
            "`{src}` streamed twice"
        );
        self.streamed.push(src.to_string());
        self.row0.insert(src.to_string(), row0);
        self.col0.insert(src.to_string(), col0);
        self
    }

    /// Wires ext `ext` to the streamed value `src` at the cell above
    /// (`(i-1, j)`).
    pub fn up(&mut self, ext: &str, src: &str) -> &mut Self {
        let _ = self.ext_slot(ext);
        assert!(
            self.streamed.contains(&src.to_string()),
            "`{src}` not streamed"
        );
        self.up.push(UpRole {
            ext: ext.to_string(),
            src: src.to_string(),
        });
        self
    }

    /// Wires ext `ext` to the streamed value `src` at the diagonal cell
    /// (`(i-1, j-1)`).
    pub fn diag(&mut self, ext: &str, src: &str) -> &mut Self {
        let _ = self.ext_slot(ext);
        assert!(
            self.streamed.contains(&src.to_string()),
            "`{src}` not streamed"
        );
        self.diag.push(UpRole {
            ext: ext.to_string(),
            src: src.to_string(),
        });
        self
    }

    /// Wires ext `ext` to the output `src` of the previous cell in the same
    /// row (`(i, j-1)`), initialized at column 0 by `col0` (per row).
    pub fn left(&mut self, ext: &str, src: &str, col0: Border) -> &mut Self {
        let _ = self.ext_slot(ext);
        let _ = self.out_slot(src);
        self.left.push(LeftRole {
            ext: ext.to_string(),
            src: src.to_string(),
            col0,
            per_row: true,
        });
        self
    }

    /// Wires ext `ext` to the output `src` of the previous cell like
    /// [`left`](Self::left), but initializes it only once per PE: the value
    /// is a running reduction carried across all the PE's rows (e.g. BSW's
    /// packed score maximum), recovered at the end with
    /// [`drain`](Self::drain).
    pub fn carry(&mut self, ext: &str, src: &str, init: i32) -> &mut Self {
        let _ = self.ext_slot(ext);
        let _ = self.out_slot(src);
        self.left.push(LeftRole {
            ext: ext.to_string(),
            src: src.to_string(),
            col0: Border::Const(init),
            per_row: false,
        });
        self
    }

    /// Wires ext `ext` to the 1-based column index.
    pub fn col_index(&mut self, ext: &str) -> &mut Self {
        let _ = self.ext_slot(ext);
        self.col_index = Some(ext.to_string());
        self
    }

    /// Collects output `name` from every cell of the last row.
    pub fn collect_last_row(&mut self, name: &str) -> &mut Self {
        let _ = self.out_slot(name);
        self.collect.push(name.to_string());
        self
    }

    /// Drains ext `name`'s final per-PE value at the end of the run (used
    /// for running reductions carried as left roles, e.g. BSW's packed
    /// maximum).
    pub fn drain(&mut self, name: &str) -> &mut Self {
        let _ = self.ext_slot(name);
        self.drain.push(name.to_string());
        self
    }

    /// Finishes role configuration: resolves every role to its
    /// register-file slots, once, for program generation and the
    /// functional tier. A streamed value lands in the ext slot of its last
    /// up-role, or in a fresh slot past the mapping's layout when it has
    /// none. Call it after the last role and before generating programs.
    pub fn finish(&mut self) -> &mut Self {
        let mut next = self.mapping.layout.slot_count() as usize;
        let streams = self
            .streamed
            .iter()
            .map(|v| {
                let landing = match self.up.iter().rev().find(|u| u.src == *v) {
                    Some(u) => self.ext_slot(&u.ext) as usize,
                    None => {
                        next += 1;
                        next - 1
                    }
                };
                PlanStream {
                    landing,
                    out: self.out_slot(v) as usize,
                    row0: self.row0[v],
                    col0: self.col0[v],
                }
            })
            .collect();
        let diags = self
            .diag
            .iter()
            .map(|d| PlanDiag {
                ext: self.ext_slot(&d.ext) as usize,
                src: self
                    .streamed
                    .iter()
                    .position(|s| *s == d.src)
                    .expect("diag sources are streamed"),
            })
            .collect();
        let lefts = self
            .left
            .iter()
            .map(|l| PlanLeft {
                ext: self.ext_slot(&l.ext) as usize,
                out: self.out_slot(&l.src) as usize,
                col0: l.col0,
                per_row: l.per_row,
            })
            .collect();
        self.roles = Some(RoleSlots {
            row_char: self.ext_slot(&self.row_char) as usize,
            col_char: self.ext_slot(&self.col_char) as usize,
            streams,
            diags,
            lefts,
            col_index: self.col_index.as_ref().map(|j| self.ext_slot(j) as usize),
            collects: self
                .collect
                .iter()
                .map(|c| self.out_slot(c) as usize)
                .collect(),
            drains: self
                .drain
                .iter()
                .map(|d| self.ext_slot(d) as usize)
                .collect(),
        });
        self.rf_slots = next;
        self
    }

    /// The slot table [`finish`](Self::finish) resolved.
    fn roles(&self) -> &RoleSlots {
        self.roles
            .as_ref()
            .expect("Wavefront2d::finish resolves roles before programs are generated")
    }

    /// The DPMap result for the objective function.
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// Generates the control program of PE `p` of `n_pes` for an `m`-row,
    /// `n`-column table. The program depends only on the shape: PE `p`
    /// reads the character of its `t`-th own row (row `p + t * n_pes`)
    /// from `spm[t]`, which [`bind`](Self::bind) stages. Each row is a
    /// prologue and one counted column loop ([`counted`]); the column
    /// index is the induction register and row-0 linear borders come from
    /// accumulators.
    ///
    /// With a band width, row `i` computes columns `i..i+width` of a
    /// column sequence padded with sentinel characters (paper §7.6.2:
    /// static active regions), so every row has the same cell count and
    /// the streams stay balanced with a one-tuple shift. Column characters
    /// differ row to row inside the band, so each PE reads them from its
    /// scratchpad: padded column `i + k` sits at `spm[rows_per_pe + i + k]`,
    /// past the row characters. The last cell of a banded row, whose up
    /// neighbour lies outside the band, stays out of the loop.
    fn pe_program(
        &self,
        p: usize,
        n_pes: usize,
        m: usize,
        n: usize,
        band: Option<usize>,
    ) -> ControlProgram {
        let roles = self.roles();
        assert!(
            band.is_none() || roles.collects.is_empty() && roles.diags.len() <= roles.streams.len(),
            "banded mode drains per-PE state only"
        );
        let compute_len = self.mapping.program.len();
        let window = m.div_ceil(n_pes);
        let cells = band.unwrap_or(n);
        let mut prog = ControlProgram::new();
        let mut bound = None;

        for row in (p..m).step_by(n_pes) {
            let src = if row > 0 && p == 0 {
                Loc::port(Space::Fifo)
            } else {
                Loc::port(Space::In)
            };
            let last_row = row == m - 1;
            // Forward destination for the next row's stream.
            let fwd = if p == n_pes - 1 && !last_row {
                Loc::port(Space::Fifo)
            } else {
                Loc::port(Space::Out)
            };

            // Row prologue. A banded row's first diagonal is the previous
            // row's first tuple (the band shift); row 0 preloads borders.
            prog.push(ControlInst::mv(rf(roles.row_char), spm(row / n_pes)));
            for l in &roles.lefts {
                if l.per_row || row == p {
                    prog.push(li(rf(l.ext), l.col0.at(row)));
                }
            }
            for s in &roles.streams {
                prog.push(match (row, band) {
                    (0, _) => li(rf(s.landing), s.row0.at(0)),
                    (_, Some(_)) => ControlInst::mv(rf(s.landing), src),
                    (_, None) => li(rf(s.landing), s.col0.at(row - 1)),
                });
            }

            // Row 0's linear borders step in accumulators.
            let mut accs = Vec::new();
            let acc_of: Vec<Option<usize>> = roles
                .streams
                .iter()
                .map(|s| {
                    let (base, step) = s.row0.linear_tail().filter(|_| row == 0)?;
                    accs.push((base + step, step));
                    Some(accs.len() - 1)
                })
                .collect();
            let run = counted::Run {
                cells,
                // The band window is read relative to the induction
                // register, whose offset must fit 16 bits.
                looped: match band {
                    None => cells,
                    Some(_) if window <= i16::MAX as usize => cells - 1,
                    Some(_) => 0,
                },
                // The column index of cell 0.
                first: (band.map_or(0, |_| row) + 1) as i32,
                accs,
                reads_index: roles.col_index.is_some(),
            };
            let load = |prog: &mut ControlProgram, k: usize, at: At| {
                let col = match band {
                    None => src,
                    Some(_) => counted::spm(window + row + k, at),
                };
                prog.push(ControlInst::mv(rf(roles.col_char), col));
                // Diagonal shifts read landings before they are updated.
                for d in &roles.diags {
                    prog.push(ControlInst::mv(rf(d.ext), rf(roles.streams[d.src].landing)));
                }
                // The up values: the next streamed tuple, or a border.
                for (s, acc) in roles.streams.iter().zip(&acc_of) {
                    prog.push(if band == Some(k + 1) {
                        li(rf(s.landing), s.row0.at(row + k + 1))
                    } else if row > 0 {
                        ControlInst::mv(rf(s.landing), src)
                    } else if let (At::Reg { .. }, Some(i)) = (at, acc) {
                        ControlInst::mv(rf(s.landing), counted::acc(*i))
                    } else {
                        li(rf(s.landing), s.row0.at(k + 1))
                    });
                }
                if let Some(j) = roles.col_index {
                    prog.push(match at {
                        At::Imm => li(rf(j), run.first + k as i32),
                        At::Reg { .. } => {
                            ControlInst::mv(rf(j), Loc::areg(counted::INDUCTION.into()))
                        }
                    });
                }
            };
            let store = |prog: &mut ControlProgram, _k: usize| {
                if last_row {
                    for &slot in &roles.collects {
                        prog.push(ControlInst::mv(Loc::port(Space::Out), rf(slot)));
                    }
                } else {
                    if band.is_none() {
                        prog.push(ControlInst::mv(fwd, rf(roles.col_char)));
                    }
                    for s in &roles.streams {
                        prog.push(ControlInst::mv(fwd, rf(s.out)));
                    }
                }
                for l in &roles.lefts {
                    prog.push(ControlInst::mv(rf(l.ext), rf(l.out)));
                }
            };
            counted::emit(&mut prog, compute_len, &run, &mut bound, load, store);
        }

        // Relay the last row's collected words if they pass through us.
        if p > (m - 1) % n_pes {
            for _ in 0..(n * roles.collects.len()) {
                prog.push(ControlInst::mv(Loc::port(Space::Out), Loc::port(Space::In)));
            }
        }
        self.push_drains(&mut prog, p, n_pes, m);
        prog
    }

    /// Appends the per-PE drains and the final `halt`: PE `p` forwards its
    /// upstreams' drains, then appends its own; PEs without rows still
    /// relay the drains of active upstreams.
    fn push_drains(&self, prog: &mut ControlProgram, p: usize, n_pes: usize, m: usize) {
        let drains = &self.roles().drains;
        let active_pes = n_pes.min(m);
        for _ in 0..(p.min(active_pes) * drains.len()) {
            prog.push(ControlInst::mv(Loc::port(Space::Out), Loc::port(Space::In)));
        }
        if p < active_pes {
            for &slot in drains {
                prog.push(ControlInst::mv(Loc::port(Space::Out), rf(slot)));
            }
        }
        prog.push(ControlInst::Halt);
    }

    /// Runs one *banded* task (paper §7.6.2): row `i` computes `width`
    /// cells starting at its own diagonal. Columns are padded with
    /// `sentinel` characters so every row computes the same cell count;
    /// results are read from the drained per-PE reductions.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty, `width` is zero, or the configuration
    /// collects last-row values (banded mode supports drains only).
    pub fn run_banded(
        &self,
        rows: &[i32],
        cols: &[i32],
        width: usize,
        sentinel: i32,
        n_pes: usize,
    ) -> Result<Wavefront2dOutput, SimError> {
        self.run_task(&WavefrontTask {
            rows,
            cols,
            n_pes,
            band: Some(BandSpec { width, sentinel }),
        })
    }

    /// Generates (without running) the per-PE control programs for a task,
    /// e.g. to inspect, disassemble or size them (the instruction-buffer
    /// footprint of paper Table 7). The programs depend only on the table
    /// shape, never on the characters in `rows` and `cols`.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is empty.
    pub fn generate_programs(
        &self,
        rows: &[i32],
        cols: &[i32],
        n_pes: usize,
    ) -> Vec<ControlProgram> {
        assert!(!rows.is_empty() && !cols.is_empty(), "empty table");
        (0..n_pes)
            .map(|p| self.pe_program(p, n_pes, rows.len(), cols.len(), None))
            .collect()
    }

    /// Statically verifies the control and compute programs generated for
    /// one streamed task shape, without running them.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is empty.
    pub fn verify(&self, rows: &[i32], cols: &[i32], n_pes: usize) -> gendp_verify::Report {
        assert!(!rows.is_empty() && !cols.is_empty(), "empty table");
        self.build_array(rows.len(), cols.len(), None, n_pes)
            .verify_programs()
    }

    /// Statically verifies the programs generated for one *banded* task
    /// shape (see [`Self::run_banded`]), without running them.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty or `width` is zero.
    pub fn verify_banded(
        &self,
        rows: &[i32],
        cols: &[i32],
        width: usize,
        _sentinel: i32,
        n_pes: usize,
    ) -> gendp_verify::Report {
        assert!(!rows.is_empty() && !cols.is_empty(), "empty table");
        assert!(width > 0, "band width must be positive");
        self.build_array(rows.len(), cols.len(), Some(width), n_pes)
            .verify_programs()
    }

    /// Builds the loaded array for an `m`×`n` table, banded when `band`
    /// gives a width (shared by `prepare` and `verify`). The programs
    /// depend on the shape alone; [`bind`](Self::bind) stages the content.
    fn build_array(&self, m: usize, n: usize, band: Option<usize>, n_pes: usize) -> PeArray {
        let mut cfg = PeArrayConfig::with_pes(n_pes)
            .mode(self.mode)
            .luts(self.luts.clone())
            .tiers(self.tiers);
        cfg.rf_slots = self.rf_slots.max(cfg.rf_slots);
        let tuples = band.unwrap_or(n);
        cfg.fifo_capacity = ((self.streamed.len() + 2) * (tuples + 2)).max(cfg.fifo_capacity);
        // Row characters, then (banded) the padded column window.
        let staged = m.div_ceil(n_pes) + band.map_or(0, |width| m + width - 1);
        assert!(
            staged <= 1 << 16,
            "{staged} scratchpad words exceed the 16-bit address space"
        );
        cfg.spm_words = cfg.spm_words.max(staged);
        let mut array = PeArray::new(cfg);
        for p in 0..n_pes {
            let mut program = self.pe_program(p, n_pes, m, n, band);
            // A prepared task may stay loaded as a template.
            program.shrink_to_fit();
            array.load_pe_control(p, program);
        }
        array.load_compute_all(self.mapping.program.clone());
        array
    }

    /// Builds the prepared task for one table shape: programs generated,
    /// decoded, loaded and certified, the cycle budget derived and, when
    /// the configuration requests [`Tier::Functional`], the shape lowered to
    /// a [`FunctionalPlan`]. Nothing of any task's content is in it yet;
    /// [`bind`](Self::bind) puts it there.
    pub(crate) fn template(
        &self,
        m: usize,
        n: usize,
        band: Option<usize>,
        n_pes: usize,
    ) -> PreparedTask {
        let array = self.build_array(m, n, band, n_pes);
        let budget = (m as u64 + n_pes as u64)
            * (band.unwrap_or(n) as u64 + 4)
            * (self.mapping.program.len() as u64 + self.streamed.len() as u64 * 2 + 12)
            * 4
            + 10_000;
        let plan = (self.tiers == Tier::Functional).then(|| FunctionalPlan {
            program: (&self.mapping.program).into(),
            mode: self.mode,
            luts: self.luts.clone(),
            // The plan's per-PE register files must match the array's.
            rf_slots: array.config().rf_slots,
            n_pes,
            rows: Vec::new(),
            cols: Vec::new(),
            band,
            roles: self.roles().clone(),
            ws: Default::default(),
        });
        let mut prep = PreparedTask::new(array, budget, plan);
        prep.set_budget_scale(self.budget_scale);
        prep
    }

    /// Binds one task's content into `prep`, a task this driver prepared
    /// for the same shape (rows, columns, PE count, band width): each PE's
    /// row characters — and, banded, the padded column window — become
    /// its scratchpad image, an unbanded column sequence becomes the
    /// input stream, and the functional plan takes both. Programs, their
    /// decoded forms and the certificate are untouched.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is empty.
    pub(crate) fn bind(&self, prep: &mut PreparedTask, task: &WavefrontTask<'_>) {
        let WavefrontTask {
            rows, cols, band, ..
        } = *task;
        assert!(!rows.is_empty() && !cols.is_empty(), "empty table");
        let n_pes = prep.n_pes();
        let m = rows.len();
        let word = |&x: &i32| Word::from_i32(x);
        // Banded: the column sequence padded with sentinels past its end.
        let padded: Vec<i32> = band.map_or_else(Vec::new, |b| {
            let mut padded = cols.to_vec();
            padded.resize(cols.len().max(m + b.width) + 1, b.sentinel);
            padded
        });
        prep.spm.resize_with(n_pes, Vec::new);
        for (p, image) in prep.spm.iter_mut().enumerate() {
            image.clear();
            image.extend(rows.iter().skip(p).step_by(n_pes).map(word));
            if let Some(b) = band {
                image.resize(m.div_ceil(n_pes), Word::ZERO);
                image.extend(padded[..m + b.width - 1].iter().map(word));
            }
        }
        prep.inputs.clear();
        if band.is_none() {
            prep.inputs.extend(cols.iter().map(word));
        }
        if let Some(plan) = prep.plan.as_mut() {
            plan.rows.clear();
            plan.rows.extend_from_slice(rows);
            plan.cols.clear();
            plan.cols
                .extend_from_slice(if band.is_some() { &padded } else { cols });
        }
    }

    /// Binds one streamed task to a loaded array — programs generated,
    /// lowered and loaded, content staged, budget derived — for repeated
    /// [`PreparedTask::execute`] replays. [`run`](Self::run) is
    /// `prepare` + one execute + output parsing. When the configuration
    /// requests [`Tier::Functional`], the task is additionally lowered to
    /// a [`FunctionalPlan`] and `execute` skips the simulator entirely.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is empty.
    pub fn prepare(&self, rows: &[i32], cols: &[i32], n_pes: usize) -> PreparedTask {
        Accelerator::prepare(
            self,
            &WavefrontTask {
                rows,
                cols,
                n_pes,
                band: None,
            },
        )
    }

    /// Binds one banded task to a loaded array (row characters and the
    /// band's column window are staged in the scratchpads, so no input
    /// stream is fed). [`run_banded`](Self::run_banded) is
    /// `prepare_banded` + one execute + output parsing.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty or `width` is zero.
    pub fn prepare_banded(
        &self,
        rows: &[i32],
        cols: &[i32],
        width: usize,
        sentinel: i32,
        n_pes: usize,
    ) -> PreparedTask {
        Accelerator::prepare(
            self,
            &WavefrontTask {
                rows,
                cols,
                n_pes,
                band: Some(BandSpec { width, sentinel }),
            },
        )
    }

    /// Parses the output words of one execution: last-row collects, then
    /// per-PE drains.
    pub(crate) fn parse_output(
        &self,
        n: usize,
        active_pes: usize,
        out: &[Word],
        stats: RunStats,
    ) -> Wavefront2dOutput {
        let n_collect = n * self.collect.len();
        let mut last_row: BTreeMap<String, Vec<i32>> = self
            .collect
            .iter()
            .map(|c| (c.clone(), Vec::with_capacity(n)))
            .collect();
        for (k, w) in out.iter().take(n_collect).enumerate() {
            let name = &self.collect[k % self.collect.len()];
            last_row
                .get_mut(name)
                .expect("collect name")
                .push(w.as_i32());
        }
        let mut drained: BTreeMap<String, Vec<i32>> = self
            .drain
            .iter()
            .map(|d| (d.clone(), Vec::with_capacity(active_pes)))
            .collect();
        for (k, w) in out.iter().skip(n_collect).enumerate() {
            let name = &self.drain[k % self.drain.len()];
            drained.get_mut(name).expect("drain name").push(w.as_i32());
        }
        Wavefront2dOutput {
            last_row,
            drained,
            stats,
        }
    }

    /// Runs one task on a `n_pes`-PE array; returns functional outputs and
    /// statistics.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors (deadlock, timeout, bad access).
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is empty.
    pub fn run(
        &self,
        rows: &[i32],
        cols: &[i32],
        n_pes: usize,
    ) -> Result<Wavefront2dOutput, SimError> {
        self.run_task(&WavefrontTask {
            rows,
            cols,
            n_pes,
            band: None,
        })
    }
}

/// An immediate load.
fn li(dest: Loc, imm: i32) -> ControlInst {
    ControlInst::Li { dest, imm }
}

/// A direct register-file location.
fn rf(slot: usize) -> Loc {
    Loc::rf(slot as u16)
}

/// A direct scratchpad location (`build_array` sized the scratchpad, and
/// checked the address space, for every address a program reads).
fn spm(addr: usize) -> Loc {
    Loc::spm(addr as u16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gendp_kernels::dfgs::{bsw_dfg, bsw_luts, dtw_dfg, lcs_dfg};
    use gendp_kernels::dtw::dtw;
    use gendp_kernels::lcs::lcs;
    use gendp_kernels::{bsw_i32, AlignMode, Scoring};
    use gendp_seq::DnaSeq;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    const NEG: i32 = i32::MIN / 4;

    fn bsw_wavefront() -> Wavefront2d {
        let scoring = Scoring::bwa_mem();
        let dfg = bsw_dfg(&scoring);
        let mut w = Wavefront2d::new(&dfg, Mode::Int32, bsw_luts(&scoring), "x", "y");
        w.stream("h", Border::Const(0), Border::Const(0))
            .stream("e", Border::Const(NEG), Border::Const(NEG))
            .up("h_up", "h")
            .up("e_up", "e")
            .diag("h_diag", "h")
            .left("h_left", "h", Border::Const(0))
            .left("f_left", "f", Border::Const(NEG))
            .carry("best", "best", 0)
            .col_index("j")
            .collect_last_row("h")
            .drain("best")
            .finish();
        w
    }

    fn run_bsw_on_dpax(q: &DnaSeq, t: &DnaSeq, n_pes: usize) -> (i32, Wavefront2dOutput) {
        let w = bsw_wavefront();
        let rows: Vec<i32> = t.codes().iter().map(|&c| c as i32).collect();
        let cols: Vec<i32> = q.codes().iter().map(|&c| c as i32).collect();
        let out = w.run(&rows, &cols, n_pes).expect("simulation");
        let best = out.drained["best"]
            .iter()
            .copied()
            .max()
            .expect("per-PE bests");
        (best >> 16, out)
    }

    #[test]
    fn bsw_on_dpax_matches_reference_small() {
        let q: DnaSeq = "ACGTACGTAC".parse().unwrap();
        let t: DnaSeq = "ACGTTCGTAC".parse().unwrap();
        let (score, out) = run_bsw_on_dpax(&q, &t, 4);
        let expect = bsw_i32(&q, &t, &Scoring::bwa_mem(), 1000, AlignMode::Local);
        assert_eq!(score, expect.score);
        assert_eq!(out.stats.cells(), 100);
        assert_eq!(out.last_row["h"].len(), 10);
    }

    #[test]
    fn bsw_on_dpax_matches_reference_random() {
        let mut rng = SmallRng::seed_from_u64(11);
        for round in 0..6 {
            let tl = rng.gen_range(5..40);
            let ql = rng.gen_range(5..40);
            let t = DnaSeq::random(tl, &mut rng);
            let q = DnaSeq::random(ql, &mut rng);
            let (score, _) = run_bsw_on_dpax(&q, &t, 4);
            let expect = bsw_i32(&q, &t, &Scoring::bwa_mem(), 1000, AlignMode::Local);
            assert_eq!(score, expect.score, "round {round}: q={q} t={t}");
        }
    }

    #[test]
    fn bsw_works_on_other_array_sizes() {
        let mut rng = SmallRng::seed_from_u64(12);
        let t = DnaSeq::random(13, &mut rng);
        let q = DnaSeq::random(9, &mut rng);
        let expect = bsw_i32(&q, &t, &Scoring::bwa_mem(), 1000, AlignMode::Local);
        for n_pes in [1, 2, 3, 4, 8] {
            let (score, _) = run_bsw_on_dpax(&q, &t, n_pes);
            assert_eq!(score, expect.score, "n_pes {n_pes}");
        }
    }

    #[test]
    fn bsw_fewer_rows_than_pes() {
        let mut rng = SmallRng::seed_from_u64(13);
        let t = DnaSeq::random(2, &mut rng);
        let q = DnaSeq::random(7, &mut rng);
        let expect = bsw_i32(&q, &t, &Scoring::bwa_mem(), 1000, AlignMode::Local);
        let (score, _) = run_bsw_on_dpax(&q, &t, 4);
        assert_eq!(score, expect.score);
    }

    #[test]
    fn dtw_on_dpax_matches_reference() {
        const INF: i32 = 1 << 28;
        let dfg = dtw_dfg();
        let mut w = Wavefront2d::new(&dfg, Mode::Int32, Luts::default(), "x", "y");
        w.stream(
            "d",
            Border::FirstThenConst {
                first: 0,
                rest: INF,
            },
            Border::Const(INF),
        )
        .up("d_up", "d")
        .diag("d_diag", "d")
        .left("d_left", "d", Border::Const(INF))
        .collect_last_row("d")
        .finish();
        let mut rng = SmallRng::seed_from_u64(14);
        for _ in 0..4 {
            let xs: Vec<i32> = (0..rng.gen_range(4..20))
                .map(|_| rng.gen_range(0..100))
                .collect();
            let ys: Vec<i32> = (0..rng.gen_range(4..20))
                .map(|_| rng.gen_range(0..100))
                .collect();
            let out = w.run(&xs, &ys, 4).expect("simulation");
            let got = *out.last_row["d"].last().expect("corner cell") as i64;
            let expect = dtw(&xs, &ys).distance;
            assert_eq!(got, expect, "x={xs:?} y={ys:?}");
        }
    }

    #[test]
    fn lcs_on_dpax_matches_reference() {
        let dfg = lcs_dfg();
        let mut w = Wavefront2d::new(&dfg, Mode::Int32, Luts::default(), "x", "y");
        w.stream("c", Border::Const(0), Border::Const(0))
            .up("c_up", "c")
            .diag("c_diag", "c")
            .left("c_left", "c", Border::Const(0))
            .collect_last_row("c")
            .finish();
        let mut rng = SmallRng::seed_from_u64(15);
        for _ in 0..4 {
            let xs: Vec<i32> = (0..rng.gen_range(3..25))
                .map(|_| rng.gen_range(0..4))
                .collect();
            let ys: Vec<i32> = (0..rng.gen_range(3..25))
                .map(|_| rng.gen_range(0..4))
                .collect();
            let out = w.run(&xs, &ys, 4).expect("simulation");
            let got = *out.last_row["c"].last().expect("corner");
            let expect = lcs(&xs, &ys).length as i32;
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn stats_count_every_cell_once() {
        let w = bsw_wavefront();
        let out = w.run(&[0, 1, 2, 3, 0, 1, 2], &[0, 1, 2, 3, 3], 4).unwrap();
        assert_eq!(out.stats.cells(), 35);
        assert!(out.stats.cycles > 35);
        assert!(out.stats.vliw_utilization() > 0.0);
    }

    #[test]
    fn border_rules() {
        assert_eq!(Border::Const(5).at(0), 5);
        assert_eq!(Border::Const(5).at(9), 5);
        assert_eq!(Border::Linear { base: 2, step: -3 }.at(0), 2);
        assert_eq!(Border::Linear { base: 2, step: -3 }.at(4), -10);
        assert_eq!(Border::FirstThenConst { first: 0, rest: 7 }.at(0), 0);
        assert_eq!(Border::FirstThenConst { first: 0, rest: 7 }.at(1), 7);
    }
}
