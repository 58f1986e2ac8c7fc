//! # gendp-isa
//!
//! The instruction set architecture of the DPAx accelerator from the GenDP
//! framework (Gu et al., *GenDP: A Framework of Dynamic Programming
//! Acceleration for Genome Sequencing Analysis*, ISCA 2023).
//!
//! DPAx decouples **control** and **compute**:
//!
//! * The *control ISA* ([`ControlInst`], paper Table 3) manages data movement
//!   between the register file, scratchpad memory, neighbor ports, FIFO and
//!   data buffers, plus loop iteration and the start of subsidiary
//!   components.
//! * The *compute ISA* ([`VliwInst`], paper Table 4) is a 2-way VLIW over two
//!   compute units per processing element. Each compute unit is a 2-level
//!   ALU reduction tree (one 4-input first-level ALU, one 2-input first-level
//!   ALU, and a 2-input root ALU) plus a separate multiplier.
//!
//! Both instruction kinds have a stable textual assembly form
//! ([`std::fmt::Display`]) and a parser ([`str::parse`]), with round-trip
//! guarantees covered by tests.
//!
//! ```
//! use gendp_isa::{ControlInst, Loc, Space};
//!
//! let inst: ControlInst = "mv rf[255] in".parse().unwrap();
//! assert_eq!(inst, ControlInst::Mv {
//!     dest: Loc::direct(Space::Rf, 255),
//!     src: Loc::port(Space::In),
//! });
//! assert_eq!(inst, inst.to_string().parse().unwrap());
//! ```

#![forbid(unsafe_code)]

mod compute;
mod control;
mod decoded;
mod error;
mod functional;
mod lanes;
mod loc;
mod program;
mod sem;
mod word;

pub use compute::{ComputeOp, CuInst, Operand, TreeSlots, VliwInst, CU_PER_PE, TREE_ALUS};
pub use control::{AddrReg, BranchCond, ControlInst, SetTarget};
pub use decoded::{
    ActivationCost, DecodedComputeProgram, DecodedControlProgram, DecodedCtrlInst, DecodedCu,
    DecodedLoc, DecodedOperand, DecodedTree, DecodedVliw,
};
pub use error::ParseInstError;
pub use functional::{eval_activation, eval_cell};
pub use lanes::{eval_lanes, LaneWords, Lanes, LANES};
pub use loc::{Addr, Loc, Space};
pub use program::{ComputeProgram, ControlProgram};
pub use sem::{apply, ilog2_half, Luts};
pub use word::{Mode, Word};
