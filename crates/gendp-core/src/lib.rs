//! # gendp-core
//!
//! The GenDP framework (paper Fig. 3): given a DP kernel's *inter-cell
//! dependency pattern* and *intra-cell objective function*, configure the
//! DPAx accelerator, generate control and compute programs, run the
//! cycle-level simulation and return functional results plus performance
//! statistics.
//!
//! * The objective function is a [`gendp_dfg::Dfg`]; DPMap
//!   ([`gendp_dpmap::map_dfg`]) turns it into the per-cell VLIW compute
//!   program and register-file layout.
//! * The dependency pattern picks a control-program generator:
//!   [`wavefront2d`] for 2-D tables (BSW, PairHMM, DTW, LCS),
//!   [`linear1d`] for the 1-D chaining table, [`graph2d`] for
//!   graph-structured POA, and [`spm1d`] for scratchpad-resident
//!   Bellman-Ford relaxation.
//! * Control programs are generated per task *shape* (the paper writes
//!   them by hand, §4.4). A 2-D wavefront program runs one counted column
//!   loop per row its PE owns, and chaining one anchor loop after its
//!   warm-up; the loop control retires in the compute shadow, so the
//!   programs keep the cycle counts of straight-line code while growing
//!   with rows per PE rather than with cells. POA and Bellman-Ford stay
//!   straight-line. The 2-D wavefront and chaining programs never depend
//!   on sequence content, which the host stages in the input stream and
//!   the scratchpads, so one prepared program set serves every task of
//!   its shape ([`Accelerator::bind`]).
//!
//! The end-to-end correctness contract, enforced by this crate's tests and
//! the workspace integration tests: **every kernel's DPAx simulation
//! reproduces the reference software kernel's scores exactly** (bit-exact
//! integer results; the log-domain PairHMM matches its fixed-point
//! reference bit-exactly, which in turn tracks the floating-point forward
//! algorithm).

#![forbid(unsafe_code)]

pub mod accel;
mod counted;
pub mod functional;
pub mod graph2d;
pub mod linear1d;
pub mod pipeline;
pub mod spm1d;
pub mod wavefront2d;

pub use accel::{
    AccelConfig, Accelerator, BandSpec, BellmanFordTask, ChainTask, PoaTask, PreparedTask,
    TaskOutput, WavefrontTask,
};
pub use functional::FunctionalPlan;
pub use pipeline::{
    bsw_score, bsw_semiglobal_score, bsw_simd16_scores, bsw_simd_scores, dtw_banded_distance,
    pack_halves, pack_lanes, pairhmm_float_lik, pairhmm_loglik, schedule_tile, AcceleratorRun,
    GendpPipeline, TileReport, NEG_SIMD,
};
pub use wavefront2d::{Border, Wavefront2d, Wavefront2dOutput};
