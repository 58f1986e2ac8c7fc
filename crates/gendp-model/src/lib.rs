//! # gendp-model
//!
//! Analytic models and recorded baselines for the GenDP evaluation
//! (paper §6–§7).
//!
//! The paper's evaluation combines a cycle-accurate simulation (our
//! `gendp-dpax`) with Synopsys synthesis results, process-scaling
//! equations, DRAM power estimation and published baseline measurements.
//! This crate holds everything that is *not* simulation:
//!
//! * [`area`] / [`power`] — the DPAx component area/power breakdown
//!   (Tables 7 and 8), seeded with the paper's published 28 nm numbers;
//! * [`scaling`] — Stillmaker-style 28 nm → 7 nm process scaling;
//! * [`dram`] — the DDR4 bandwidth/energy model standing in for
//!   Ramulator + DRAMPower;
//! * [`baselines`] — the paper's recorded CPU/GPU/ASIC measurements
//!   (Tables 13–15) as typed constants, next to which the harness prints
//!   our measured numbers;
//! * [`softbrain`] / [`tia`] — the SoftBrain and TIA mapping models
//!   (Tables 9 and 10);
//! * [`scalar_isa`] — a RISC-like lowering of kernel DFGs that reproduces
//!   the instructions-per-cell comparison of Fig. 10(d);
//! * [`throughput`] — MCUPS / GCUPS / per-area / per-watt arithmetic;
//! * [`scalability`] — the DRAM-bandwidth tile-scaling model (Table 12).

#![forbid(unsafe_code)]

pub mod area;
pub mod baselines;
pub mod dram;
pub mod power;
pub mod scalability;
pub mod scalar_isa;
pub mod scaling;
pub mod softbrain;
pub mod throughput;
pub mod tia;

pub use area::{AreaBreakdown, Component};
pub use baselines::{Kernel, PaperBaselines, PAPER};
pub use throughput::Throughput;
