//! The assembled GenDP framework: one constructor per evaluated kernel
//! (paper Fig. 3), with helpers to interpret accelerator outputs and to
//! convert simulated rates into the paper's throughput metrics.

use gendp_dpax::{RunStats, CLOCK_HZ, INT_ARRAYS};
use gendp_isa::{Luts, Mode};
use gendp_kernels::chain::ChainParams;
use gendp_kernels::dfgs;
use gendp_kernels::pairhmm::{PairHmmParams, LOG_NEG_INF};
use gendp_kernels::scoring::Scoring;

use crate::graph2d::PoaAccelerator;
use crate::linear1d::ChainAccelerator;
use crate::spm1d::BellmanFordAccelerator;
use crate::wavefront2d::{Border, Wavefront2d, Wavefront2dOutput};

/// Performance summary of an accelerator run, in the paper's units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceleratorRun {
    /// DP cells computed (SIMD lanes count once here; scale externally).
    pub cells: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Control instructions retired.
    pub ctrl_insts: u64,
    /// Compute VLIW instructions issued.
    pub vliw_insts: u64,
    /// Measured VLIW slot utilization.
    pub vliw_utilization: f64,
}

impl AcceleratorRun {
    /// Summarizes simulator statistics.
    pub fn from_stats(stats: &RunStats) -> Self {
        AcceleratorRun {
            cells: stats.cells(),
            cycles: stats.cycles,
            ctrl_insts: stats.ctrl_insts(),
            vliw_insts: stats.vliw_issued(),
            vliw_utilization: stats.vliw_utilization(),
        }
    }

    /// Cells per cycle on the simulated array.
    pub fn cells_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.cells as f64 / self.cycles as f64
    }

    /// Raw accelerator throughput in GCUPS: the simulated rate, scaled by
    /// the number of identical units running independent tasks and a SIMD
    /// lane factor, at the DPAx clock (paper §7.2: 2 GHz).
    pub fn gcups(&self, units: usize, simd_lanes: usize) -> f64 {
        self.cells_per_cycle() * CLOCK_HZ * units as f64 * simd_lanes as f64 / 1e9
    }

    /// Instructions (control + compute) per cell (paper Fig. 10(d)'s
    /// denominator on the GenDP side uses compute instructions; both are
    /// exposed).
    pub fn insts_per_cell(&self) -> f64 {
        if self.cells == 0 {
            return 0.0;
        }
        (self.ctrl_insts + self.vliw_insts) as f64 / self.cells as f64
    }

    /// Compute (VLIW) instructions per cell.
    pub fn vliw_per_cell(&self) -> f64 {
        if self.cells == 0 {
            return 0.0;
        }
        self.vliw_insts as f64 / self.cells as f64
    }
}

/// Whole-tile scheduling report: a batch of independent array tasks
/// placed onto the tile's parallel arrays (paper Fig. 4: 16 integer
/// arrays working on independent tasks).
#[derive(Debug, Clone, PartialEq)]
pub struct TileReport {
    /// Tasks scheduled.
    pub tasks: usize,
    /// Cycles each array is busy, longest first.
    pub per_array_cycles: Vec<u64>,
    /// The tile's makespan: the busiest array's cycle count.
    pub makespan_cycles: u64,
    /// Total cells across all tasks.
    pub total_cells: u64,
}

impl TileReport {
    /// Builds the report from raw per-array busy-cycle loads (in any
    /// order), the scheduled task count, and the total cells.
    ///
    /// This is the single constructor shared by [`schedule_tile`] (post-hoc
    /// LPT placement of pre-collected stats) and the `gendp-runtime`
    /// device's utilization report (live placement by its dispatch
    /// policies), so the two layers agree by construction on how makespan,
    /// balance and throughput are derived.
    ///
    /// # Panics
    ///
    /// Panics if `per_array_cycles` is empty.
    pub fn from_array_loads(
        tasks: usize,
        mut per_array_cycles: Vec<u64>,
        total_cells: u64,
    ) -> TileReport {
        assert!(
            !per_array_cycles.is_empty(),
            "a tile needs at least one array"
        );
        per_array_cycles.sort_unstable_by(|a, b| b.cmp(a));
        TileReport {
            tasks,
            makespan_cycles: per_array_cycles[0],
            per_array_cycles,
            total_cells,
        }
    }

    /// Average array occupancy over the makespan (1.0 = perfectly
    /// balanced).
    pub fn balance(&self) -> f64 {
        if self.makespan_cycles == 0 || self.per_array_cycles.is_empty() {
            return 0.0;
        }
        let busy: u64 = self.per_array_cycles.iter().sum();
        busy as f64 / (self.makespan_cycles * self.per_array_cycles.len() as u64) as f64
    }

    /// Tile throughput in GCUPS at the DPAx clock, given the SIMD lane
    /// factor of the kernel configuration.
    pub fn gcups(&self, simd_lanes: usize) -> f64 {
        if self.makespan_cycles == 0 {
            return 0.0;
        }
        self.total_cells as f64 * simd_lanes as f64 / self.makespan_cycles as f64 * CLOCK_HZ / 1e9
    }
}

/// Schedules independent per-task simulator results onto `units` parallel
/// arrays with the longest-processing-time greedy rule and reports the
/// tile-level makespan and throughput.
///
/// # Panics
///
/// Panics if `units` is zero.
pub fn schedule_tile(task_stats: &[RunStats], units: usize) -> TileReport {
    assert!(units > 0, "a tile needs at least one array");
    let mut durations: Vec<u64> = task_stats.iter().map(|s| s.cycles).collect();
    durations.sort_unstable_by(|a, b| b.cmp(a));
    let mut arrays = vec![0u64; units];
    for d in durations {
        // Place on the least-loaded array.
        let k = arrays
            .iter()
            .enumerate()
            .min_by_key(|(_, &c)| c)
            .map(|(k, _)| k)
            .expect("units > 0");
        arrays[k] += d;
    }
    TileReport::from_array_loads(
        task_stats.len(),
        arrays,
        task_stats.iter().map(RunStats::cells).sum(),
    )
}

/// Factory for fully configured kernel accelerators.
#[derive(Debug)]
pub struct GendpPipeline;

const NEG: i32 = i32::MIN / 4;

/// Per-lane `-infinity` used by the 8-bit SIMD configuration, replicated
/// into all four lanes (matches `bsw_i8`'s `NEG8 = -64`).
pub const NEG_SIMD: i32 = i32::from_le_bytes([0xC0; 4]);

impl GendpPipeline {
    /// The 32-bit BSW accelerator (with packed argmax, paper Fig. 2a).
    ///
    /// Interpret results with [`bsw_score`].
    pub fn bsw(scoring: &Scoring) -> Wavefront2d {
        let dfg = dfgs::bsw_dfg(scoring);
        let mut w = Wavefront2d::new(&dfg, Mode::Int32, dfgs::bsw_luts(scoring), "x", "y");
        w.stream("h", Border::Const(0), Border::Const(0))
            .stream("e", Border::Const(NEG), Border::Const(NEG))
            .up("h_up", "h")
            .up("e_up", "e")
            .diag("h_diag", "h")
            .left("h_left", "h", Border::Const(0))
            .left("f_left", "f", Border::Const(NEG))
            .carry("best", "best", 0)
            .col_index("j")
            .drain("best")
            .finish();
        w
    }

    /// The 8-bit 4-lane SIMD BSW accelerator (paper §4.2): four alignment
    /// tasks ride the four lanes of every word; characters must be packed
    /// with [`pack_lanes`].
    ///
    /// Interpret results with [`bsw_simd_scores`].
    pub fn bsw_simd(scoring: &Scoring) -> Wavefront2d {
        let dfg = dfgs::bsw_simd_dfg(scoring);
        let mut w = Wavefront2d::new(&dfg, Mode::Int8x4, dfgs::bsw_luts(scoring), "x", "y");
        w.stream("h", Border::Const(0), Border::Const(0))
            .stream("e", Border::Const(NEG_SIMD), Border::Const(NEG_SIMD))
            .up("h_up", "h")
            .up("e_up", "e")
            .diag("h_diag", "h")
            .left("h_left", "h", Border::Const(0))
            .left("f_left", "f", Border::Const(NEG_SIMD))
            .carry("best", "best", 0)
            .drain("best")
            .finish();
        w
    }

    /// The 16-bit 2-lane SIMD BSW accelerator (paper §7.6.4): two
    /// alignment tasks ride the two halves of every word. Pack characters
    /// with [`pack_halves`]; interpret results with [`bsw_simd16_scores`].
    pub fn bsw_simd16(scoring: &Scoring) -> Wavefront2d {
        let neg16 = gendp_isa::Word::from_halves([-16384i16; 2]).as_i32();
        let dfg = dfgs::bsw_simd16_dfg(scoring);
        let mut w = Wavefront2d::new(&dfg, Mode::Int16x2, dfgs::bsw_luts(scoring), "x", "y");
        w.stream("h", Border::Const(0), Border::Const(0))
            .stream("e", Border::Const(neg16), Border::Const(neg16))
            .up("h_up", "h")
            .up("e_up", "e")
            .diag("h_diag", "h")
            .left("h_left", "h", Border::Const(0))
            .left("f_left", "f", Border::Const(neg16))
            .carry("best", "best", 0)
            .drain("best")
            .finish();
        w
    }

    /// The global (Needleman-Wunsch) BSW accelerator (paper §7.6.3). The
    /// score is the last element of the collected last row.
    ///
    /// # Panics
    ///
    /// Panics if the gap model is not affine.
    pub fn bsw_global(scoring: &Scoring) -> Wavefront2d {
        let (open, extend) = match scoring.gap {
            gendp_kernels::GapModel::Affine { open, extend } => (open, extend),
            _ => panic!("BSW uses the affine gap model"),
        };
        let dfg = dfgs::bsw_global_dfg(scoring);
        let mut w = Wavefront2d::new(&dfg, Mode::Int32, dfgs::bsw_luts(scoring), "x", "y");
        let col_border = Border::Linear {
            base: -(open + extend),
            step: -extend,
        };
        w.stream(
            "h",
            Border::FirstThenLinear {
                first: 0,
                base: -open,
                step: -extend,
            },
            col_border,
        )
        .stream("e", Border::Const(NEG), Border::Const(NEG))
        .up("h_up", "h")
        .up("e_up", "e")
        .diag("h_diag", "h")
        .left("h_left", "h", col_border)
        .left("f_left", "f", Border::Const(NEG))
        .collect_last_row("h")
        .finish();
        w
    }

    /// The semi-global (overlap) BSW accelerator for queries of length `n`
    /// (paper §7.6.3). Interpret results with [`bsw_semiglobal_score`].
    ///
    /// # Panics
    ///
    /// Panics if the gap model is not affine or `n` is zero.
    pub fn bsw_semiglobal(scoring: &Scoring, n: usize) -> Wavefront2d {
        let dfg = dfgs::bsw_semiglobal_dfg(scoring, n);
        let mut w = Wavefront2d::new(&dfg, Mode::Int32, dfgs::bsw_luts(scoring), "x", "y");
        w.stream("h", Border::Const(0), Border::Const(0))
            .stream("e", Border::Const(NEG), Border::Const(NEG))
            .up("h_up", "h")
            .up("e_up", "e")
            .diag("h_diag", "h")
            .left("h_left", "h", Border::Const(0))
            .left("f_left", "f", Border::Const(NEG))
            .carry("best", "best", NEG)
            .col_index("j")
            .collect_last_row("h")
            .drain("best")
            .finish();
        w
    }

    /// The convex-gap (dual-affine) local BSW accelerator (paper §7.6.3).
    /// Interpret results with [`bsw_score`].
    ///
    /// # Panics
    ///
    /// Panics if the gap model is not convex.
    pub fn bsw_convex(scoring: &Scoring) -> Wavefront2d {
        let dfg = dfgs::bsw_convex_dfg(scoring);
        let mut w = Wavefront2d::new(&dfg, Mode::Int32, dfgs::bsw_luts(scoring), "x", "y");
        w.stream("h", Border::Const(0), Border::Const(0))
            .stream("e1", Border::Const(NEG), Border::Const(NEG))
            .stream("e2", Border::Const(NEG), Border::Const(NEG))
            .up("h_up", "h")
            .up("e1_up", "e1")
            .up("e2_up", "e2")
            .diag("h_diag", "h")
            .left("h_left", "h", Border::Const(0))
            .left("f1_left", "f1", Border::Const(NEG))
            .left("f2_left", "f2", Border::Const(NEG))
            .carry("best", "best", 0)
            .col_index("j")
            .drain("best")
            .finish();
        w
    }

    /// The log-domain fixed-point PairHMM accelerator (paper §7.2), for
    /// reads of constant base quality `qual` at fixed-point scale `scale`.
    ///
    /// Interpret results with [`pairhmm_loglik`].
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    pub fn pairhmm(params: &PairHmmParams, qual: u8, scale: i32, hap_len: usize) -> Wavefront2d {
        assert!(scale > 0, "scale must be positive");
        let dfg = dfgs::pairhmm_log_dfg(params, scale);
        let luts = dfgs::pairhmm_luts(qual, scale);
        let init = ((1.0 / hap_len as f64).ln() * scale as f64).round() as i32;
        let mut w = Wavefront2d::new(&dfg, Mode::Int32, luts, "x", "y");
        w.stream("m", Border::Const(LOG_NEG_INF), Border::Const(LOG_NEG_INF))
            .stream("i", Border::Const(LOG_NEG_INF), Border::Const(LOG_NEG_INF))
            .stream("d", Border::Const(init), Border::Const(LOG_NEG_INF))
            .up("m_up", "m")
            .up("i_up", "i")
            .diag("m_diag", "m")
            .diag("i_diag", "i")
            .diag("d_diag", "d")
            .left("m_left", "m", Border::Const(LOG_NEG_INF))
            .left("d_left", "d", Border::Const(LOG_NEG_INF))
            .collect_last_row("m")
            .collect_last_row("i")
            .finish();
        w
    }

    /// The probability-domain PairHMM accelerator on the floating-point PE
    /// array (paper Fig. 4; §7.6.4). Interpret results with
    /// [`pairhmm_float_lik`]. Borders carry `f32` bit patterns.
    ///
    /// # Panics
    ///
    /// Panics if `hap_len` is zero.
    pub fn pairhmm_float(params: &PairHmmParams, qual: u8, hap_len: usize) -> Wavefront2d {
        assert!(hap_len > 0, "haplotype length must be positive");
        let dfg = dfgs::pairhmm_float_dfg(params);
        let luts = dfgs::pairhmm_float_luts(qual);
        let zero = 0i32; // 0.0f32 and integer zero share a bit pattern
        let init = gendp_isa::Word::from_f32(1.0 / hap_len as f32).as_i32();
        let mut w = Wavefront2d::new(&dfg, Mode::Float32, luts, "x", "y");
        w.stream("m", Border::Const(zero), Border::Const(zero))
            .stream("i", Border::Const(zero), Border::Const(zero))
            .stream("d", Border::Const(init), Border::Const(zero))
            .up("m_up", "m")
            .up("i_up", "i")
            .diag("m_diag", "m")
            .diag("i_diag", "i")
            .diag("d_diag", "d")
            .left("m_left", "m", Border::Const(zero))
            .left("d_left", "d", Border::Const(zero))
            .collect_last_row("m")
            .collect_last_row("i")
            .finish();
        w
    }

    /// The DTW accelerator (paper §7.6.5).
    pub fn dtw() -> Wavefront2d {
        const INF: i32 = 1 << 28;
        let dfg = dfgs::dtw_dfg();
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
        w
    }

    /// The banded DTW accelerator (paper §7.6.2): row `i` computes `width`
    /// cells from its own diagonal; run with
    /// [`Wavefront2d::run_banded`] and read the corner with
    /// [`dtw_banded_distance`].
    ///
    /// # Panics
    ///
    /// Panics if `n_cols` is zero.
    pub fn dtw_banded(n_cols: usize) -> Wavefront2d {
        const INF: i32 = 1 << 28;
        let dfg = dfgs::dtw_banded_dfg(n_cols);
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
        .carry("best", "best", INF)
        .col_index("j")
        .drain("best")
        .finish();
        w
    }

    /// The LCS accelerator (paper §2.2 example).
    pub fn lcs() -> Wavefront2d {
        let dfg = dfgs::lcs_dfg();
        let mut w = Wavefront2d::new(&dfg, Mode::Int32, Luts::default(), "x", "y");
        w.stream("c", Border::Const(0), Border::Const(0))
            .up("c_up", "c")
            .diag("c_diag", "c")
            .left("c_left", "c", Border::Const(0))
            .collect_last_row("c")
            .finish();
        w
    }

    /// The chaining accelerator (paper Fig. 5(c,d)).
    pub fn chain(params: ChainParams) -> ChainAccelerator {
        ChainAccelerator::new(params)
    }

    /// The POA accelerator (paper Fig. 2c).
    ///
    /// # Panics
    ///
    /// Panics if the scoring's gap model is not linear.
    pub fn poa(scoring: Scoring) -> PoaAccelerator {
        PoaAccelerator::new(scoring)
    }

    /// The Bellman-Ford accelerator (paper §7.6.5).
    pub fn bellman_ford() -> BellmanFordAccelerator {
        BellmanFordAccelerator::new()
    }

    /// The number of parallel integer arrays in one DPAx tile.
    pub fn int_arrays() -> usize {
        INT_ARRAYS
    }
}

/// Extracts the local-alignment score from a 32-bit BSW run.
///
/// # Panics
///
/// Panics if the run drained no `best` values.
pub fn bsw_score(out: &Wavefront2dOutput) -> i32 {
    out.drained["best"]
        .iter()
        .copied()
        .max()
        .expect("per-PE packed maxima")
        >> 16
}

/// Extracts the corner distance from a banded DTW run: the drained value
/// of the PE that owns the last row. The corner must lie inside the band
/// (`0 <= n_cols - n_rows < width`); outside it the banded distance is
/// undefined (the full-band reference reports infinity there).
///
/// # Panics
///
/// Panics if the run drained nothing.
pub fn dtw_banded_distance(out: &Wavefront2dOutput, n_rows: usize) -> i32 {
    let drains = &out.drained["best"];
    drains[(n_rows - 1) % drains.len()]
}

/// Extracts the overlap-alignment score from a semi-global BSW run: the
/// best of the last column (drained running maxima) and the last row,
/// whose column-0 border `h[m][0] = 0` (the empty overlap) is not among
/// the collected cells.
///
/// # Panics
///
/// Panics if the run collected/drained nothing.
pub fn bsw_semiglobal_score(out: &Wavefront2dOutput) -> i32 {
    let col_best = out.drained["best"].iter().copied().max().expect("drains");
    let row_best = out.last_row["h"].iter().copied().max().expect("last row");
    col_best.max(row_best).max(0)
}

/// Extracts the four per-lane scores from an 8-bit SIMD BSW run.
///
/// # Panics
///
/// Panics if the run drained no `best` values.
pub fn bsw_simd_scores(out: &Wavefront2dOutput) -> [i8; 4] {
    let mut best = [i8::MIN; 4];
    for &packed in &out.drained["best"] {
        let lanes = gendp_isa::Word::from_i32(packed).as_lanes();
        for (b, l) in best.iter_mut().zip(lanes) {
            *b = (*b).max(l);
        }
    }
    best
}

/// Extracts the two per-half scores from a 16-bit SIMD BSW run.
///
/// # Panics
///
/// Panics if the run drained no `best` values.
pub fn bsw_simd16_scores(out: &Wavefront2dOutput) -> [i16; 2] {
    let mut best = [i16::MIN; 2];
    for &packed in &out.drained["best"] {
        let halves = gendp_isa::Word::from_i32(packed).as_halves();
        for (b, h) in best.iter_mut().zip(halves) {
            *b = (*b).max(h);
        }
    }
    best
}

/// Packs two per-half 16-bit streams into SIMD words (half 0 = task 0).
/// Streams shorter than the longest are padded with zeros.
pub fn pack_halves(streams: [&[i16]; 2]) -> Vec<i32> {
    let n = streams.iter().map(|s| s.len()).max().unwrap_or(0);
    (0..n)
        .map(|i| {
            let h = streams.map(|s| s.get(i).copied().unwrap_or(0));
            gendp_isa::Word::from_halves(h).as_i32()
        })
        .collect()
}

/// Packs four per-lane byte streams into SIMD words (lane 0 = task 0).
/// Streams shorter than the longest are padded with zeros.
pub fn pack_lanes(streams: [&[u8]; 4]) -> Vec<i32> {
    let n = streams.iter().map(|s| s.len()).max().unwrap_or(0);
    (0..n)
        .map(|i| {
            let b = streams.map(|s| s.get(i).copied().unwrap_or(0));
            i32::from_le_bytes(b)
        })
        .collect()
}

/// Folds a floating-point PairHMM run's collected last row into the
/// likelihood, in the same summation order as
/// [`gendp_kernels::pairhmm::forward_f32`].
///
/// # Panics
///
/// Panics if the run collected no `m`/`i` rows.
pub fn pairhmm_float_lik(out: &Wavefront2dOutput) -> f32 {
    let m = &out.last_row["m"];
    let i = &out.last_row["i"];
    assert_eq!(m.len(), i.len(), "m/i rows must align");
    // Column 0 of the last row contributes 0 + 0.
    let mut total = 0f32;
    for (mv, iv) in m.iter().zip(i) {
        let mf = gendp_isa::Word::from_i32(*mv).as_f32();
        let fi = gendp_isa::Word::from_i32(*iv).as_f32();
        total += mf + fi;
    }
    total
}

/// Folds a PairHMM run's collected last row into the scaled log
/// likelihood, replicating `forward_log_fixed`'s final reduction exactly.
///
/// # Panics
///
/// Panics if the run collected no `m`/`i` rows.
pub fn pairhmm_loglik(out: &Wavefront2dOutput, luts: &Luts) -> i32 {
    let logsum = |a: i32, b: i32| -> i32 {
        let d = a.wrapping_sub(b);
        let dd = d.max(0i32.wrapping_sub(d));
        a.max(b).wrapping_add(luts.logsum_correction(dd))
    };
    let m = &out.last_row["m"];
    let i = &out.last_row["i"];
    assert_eq!(m.len(), i.len(), "m/i rows must align");
    // Column 0 of the last row is a border cell (both states -inf).
    let mut total = logsum(LOG_NEG_INF, logsum(LOG_NEG_INF, LOG_NEG_INF));
    for (mv, iv) in m.iter().zip(i) {
        total = logsum(total, logsum(*mv, *iv));
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use gendp_kernels::bsw_i8;
    use gendp_kernels::pairhmm::forward_log_fixed;
    use gendp_seq::{DnaSeq, Genome, HaplotypeProfile};
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    #[test]
    fn pairhmm_on_dpax_matches_fixed_point_reference() {
        let params = PairHmmParams::gatk();
        let scale = 1024;
        let qual = 30u8;
        let mut rng = SmallRng::seed_from_u64(51);
        for round in 0..3 {
            let g = Genome::random(400, &mut rng);
            let pair = HaplotypeProfile {
                min_hap_len: 12,
                max_hap_len: 20,
                ..HaplotypeProfile::gatk_like()
            }
            .sample(&g, 1, &mut rng)
            .remove(0);
            let read = pair.read.seq.window(0, pair.read.seq.len().min(10));
            let hap = &pair.haplotype;
            let w = GendpPipeline::pairhmm(&params, qual, scale, hap.len());
            let rows: Vec<i32> = read.codes().iter().map(|&c| c as i32).collect();
            let cols: Vec<i32> = hap.codes().iter().map(|&c| c as i32).collect();
            let out = w.run(&rows, &cols, 4).expect("simulation");
            let got = pairhmm_loglik(&out, &dfgs::pairhmm_luts(qual, scale));
            let quals = vec![qual; read.len()];
            let expect = forward_log_fixed(&read, &quals, hap, &params, scale);
            assert_eq!(got, expect, "round {round}");
            assert_eq!(out.stats.cells(), (read.len() * hap.len()) as u64);
        }
    }

    #[test]
    fn simd_bsw_runs_four_tasks_at_once() {
        let mut rng = SmallRng::seed_from_u64(52);
        let scoring = Scoring::bwa_mem();
        // Four random task pairs, padded to common lengths.
        let tlen = 12;
        let qlen = 10;
        let tasks: Vec<(DnaSeq, DnaSeq)> = (0..4)
            .map(|_| {
                (
                    DnaSeq::random(qlen, &mut rng),
                    DnaSeq::random(tlen, &mut rng),
                )
            })
            .collect();
        let q_streams: Vec<Vec<u8>> = tasks.iter().map(|(q, _)| q.codes()).collect();
        let t_streams: Vec<Vec<u8>> = tasks.iter().map(|(_, t)| t.codes()).collect();
        let cols = pack_lanes([&q_streams[0], &q_streams[1], &q_streams[2], &q_streams[3]]);
        let rows = pack_lanes([&t_streams[0], &t_streams[1], &t_streams[2], &t_streams[3]]);
        let w = GendpPipeline::bsw_simd(&scoring);
        let out = w.run(&rows, &cols, 4).expect("simulation");
        let scores = bsw_simd_scores(&out);
        for (lane, (q, t)) in tasks.iter().enumerate() {
            let expect = bsw_i8(q, t, &scoring, 1000);
            assert_eq!(scores[lane] as i32, expect.score, "lane {lane}");
        }
        // One SIMD run covers four tables' worth of cells.
        assert_eq!(out.stats.cells(), (tlen * qlen) as u64);
    }

    #[test]
    fn accelerator_run_arithmetic() {
        let run = AcceleratorRun {
            cells: 1000,
            cycles: 2000,
            ctrl_insts: 8000,
            vliw_insts: 6000,
            vliw_utilization: 0.5,
        };
        assert_eq!(run.cells_per_cycle(), 0.5);
        // 0.5 cells/cycle * 2 GHz * 16 arrays * 1 lane = 16 GCUPS.
        assert!((run.gcups(16, 1) - 16.0).abs() < 1e-9);
        assert_eq!(run.insts_per_cell(), 14.0);
        assert_eq!(run.vliw_per_cell(), 6.0);
    }

    #[test]
    fn pack_lanes_layout() {
        let packed = pack_lanes([&[1, 2], &[3], &[4, 5], &[6, 7]]);
        assert_eq!(packed.len(), 2);
        assert_eq!(packed[0].to_le_bytes(), [1, 3, 4, 6]);
        assert_eq!(packed[1].to_le_bytes(), [2, 0, 5, 7]);
    }

    #[test]
    fn dtw_and_lcs_factories_run() {
        let mut rng = SmallRng::seed_from_u64(53);
        let xs: Vec<i32> = (0..8).map(|_| rng.gen_range(0..50)).collect();
        let ys: Vec<i32> = (0..9).map(|_| rng.gen_range(0..50)).collect();
        let out = GendpPipeline::dtw().run(&xs, &ys, 4).expect("dtw");
        assert_eq!(
            *out.last_row["d"].last().unwrap() as i64,
            gendp_kernels::dtw::dtw(&xs, &ys).distance
        );
        let a: Vec<i32> = (0..10).map(|_| rng.gen_range(0..4)).collect();
        let b: Vec<i32> = (0..11).map(|_| rng.gen_range(0..4)).collect();
        let out = GendpPipeline::lcs().run(&a, &b, 4).expect("lcs");
        assert_eq!(
            *out.last_row["c"].last().unwrap(),
            gendp_kernels::lcs::lcs(&a, &b).length as i32
        );
    }
}
