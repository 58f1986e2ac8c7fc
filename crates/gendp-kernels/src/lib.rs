//! # gendp-kernels
//!
//! Reference software implementations of the dynamic-programming kernels
//! the GenDP paper evaluates (§2.3), plus the two broader-field kernels of
//! §7.6.5, plus the objective-function data-flow graphs that GenDP maps
//! onto the DPAx accelerator.
//!
//! | Kernel | Pipeline role | Module |
//! |---|---|---|
//! | Banded Smith-Waterman (BSW) | short-read alignment | [`bsw`] |
//! | Pairwise Hidden Markov Model | variant calling | [`pairhmm`] |
//! | Partial Order Alignment (POA) | assembly polishing | [`poa`] |
//! | Chain | long-read overlap / mapping | [`chain`] |
//! | Dynamic Time Warping | speech/signal matching | [`dtw`] |
//! | Bellman-Ford | robotic motion planning | [`bellman_ford`] |
//! | Longest Common Subsequence | background example (§2.2) | [`lcs`] |
//!
//! The scalar implementations double as the *CPU baseline* algorithms in
//! the benchmark harness, and as ground truth for validating the DPAx
//! simulator (every kernel's accelerator run must reproduce these scores
//! exactly, or within fixed-point tolerance for the log-domain PairHMM).
//!
//! The [`dfgs`] module holds one DFG builder per kernel; unit tests pin the
//! DFG semantics to the scalar inner loops cell by cell.

#![forbid(unsafe_code)]

pub mod align;
pub mod bellman_ford;
pub mod bsw;
pub mod chain;
pub mod cigar;
pub mod dfgs;
pub mod dtw;
pub mod info;
pub mod lcs;
pub mod pairhmm;
pub mod poa;
pub mod scoring;

pub use align::{align, AlignResult};
pub use bsw::{bsw_i16, bsw_i32, bsw_i8, BswResult};
pub use cigar::{align_traceback, Alignment, Cigar, CigarOp};
pub use info::{DependencyPattern, KernelInfo, Precision, KERNELS};
pub use scoring::{AlignMode, GapModel, Scoring};
