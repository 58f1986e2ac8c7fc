//! # GenDP
//!
//! A from-scratch Rust reproduction of **GenDP: A Framework of Dynamic
//! Programming Acceleration for Genome Sequencing Analysis** (Gu et al.,
//! ISCA 2023): a programmable dynamic-programming accelerator (DPAx), the
//! DPMap compiler that maps DP objective functions onto it, cycle-level
//! simulation, the genomics DP kernels it is evaluated on, and the models
//! and baselines needed to regenerate every table and figure of the
//! paper's evaluation.
//!
//! ## Layers
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`isa`] | `gendp-isa` | control + VLIW compute instruction sets, ALU/LUT semantics |
//! | [`dfg`] | `gendp-dfg` | data-flow graphs of objective functions |
//! | [`dpmap`] | `gendp-dpmap` | the DPMap partitioning algorithm and code generator |
//! | [`dpax`] | `gendp-dpax` | the cycle-level DPAx simulator |
//! | [`kernels`] | `gendp-kernels` | reference software kernels (BSW, PairHMM, POA, Chain, DTW, Bellman-Ford, LCS) and their DFGs |
//! | [`verify`] | `gendp-verify` | static verifier: typed diagnostics over programs and DFGs |
//! | [`seq`] | `gendp-seq` | synthetic genomics workload generators |
//! | [`model`] | `gendp-model` | area/power/scaling models and the paper's recorded baselines |
//! | [`core`] | `gendp-core` | the assembled framework: per-pattern control codegen and the end-to-end pipeline |
//! | [`runtime`] | `gendp-runtime` | device-level batch execution: multi-array dispatch, worker threads, utilization reports |
//! | [`serve`] | `gendp-serve` | multi-tenant alignment service: QoS scheduling, admission control, device shards, framed wire protocol |
//!
//! ## Quick start
//!
//! Align a query to a target on the simulated accelerator and check the
//! score against the software kernel:
//!
//! ```
//! use gendp::core::{bsw_score, GendpPipeline};
//! use gendp::kernels::{bsw_i32, AlignMode, Scoring};
//! use gendp::seq::DnaSeq;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let query: DnaSeq = "ACGTACGTAC".parse()?;
//! let target: DnaSeq = "ACGTTCGTAC".parse()?;
//! let scoring = Scoring::bwa_mem();
//!
//! let accel = GendpPipeline::bsw(&scoring);
//! let rows: Vec<i32> = target.codes().iter().map(|&c| c as i32).collect();
//! let cols: Vec<i32> = query.codes().iter().map(|&c| c as i32).collect();
//! let out = accel.run(&rows, &cols, 4)?;
//!
//! let reference = bsw_i32(&query, &target, &scoring, 1000, AlignMode::Local);
//! assert_eq!(bsw_score(&out), reference.score);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use gendp_core as core;
pub use gendp_core::{AccelConfig, Accelerator, PreparedTask, TaskOutput};
pub use gendp_dfg as dfg;
pub use gendp_dpax as dpax;
pub use gendp_dpmap as dpmap;
pub use gendp_isa as isa;
pub use gendp_kernels as kernels;
pub use gendp_model as model;
pub use gendp_runtime as runtime;
pub use gendp_seq as seq;
pub use gendp_serve as serve;
pub use gendp_verify as verify;
