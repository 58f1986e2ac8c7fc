//! # gendp-dpax
//!
//! Cycle-level simulator of the **DPAx** dynamic-programming accelerator
//! (paper §3–§4).
//!
//! The simulated unit is a [`PeArray`]: a 1-D systolic array of processing
//! elements with a FIFO connecting the last and first PE, an input stream
//! feeding the first PE and an output sink fed by the last PE. Each PE runs
//! a *control* thread (a [`gendp_isa::ControlProgram`]: data movement
//! between register file, scratchpad, neighbor ports and FIFO, loops,
//! compute-thread launches) and a *compute* thread (a
//! [`gendp_isa::ComputeProgram`]: 2-way VLIW over two compute units, each a
//! 2-level ALU reduction tree plus a multiplier).
//!
//! Timing model (one cycle per control instruction and per VLIW
//! instruction, blocking ports, bounded FIFO, register-file interlock while
//! the compute thread runs) and functional model (via [`gendp_isa::apply`])
//! are both exact with respect to the ISA semantics; kernel results are
//! validated against the reference software kernels in `gendp-kernels`.
//! The default decoded tier computes that timing event by event instead of
//! stepping every cycle (the ready-cycle rules of the `events` module);
//! the interpreted tier steps every cycle and is the reference it is
//! tested against.
//!
//! The full accelerator has 16 integer PE arrays and one floating-point PE
//! array ([`INT_ARRAYS`], [`PES_PER_ARRAY`]); arrays work on independent
//! tasks, so throughput scales linearly in array count (see `gendp-core`).
//!
//! ```
//! use gendp_dpax::{PeArray, PeArrayConfig};
//! use gendp_isa::Word;
//!
//! // One PE copies three input words to the output through an
//! // areg-driven loop.
//! let mut array = PeArray::new(PeArrayConfig::with_pes(1));
//! let pe0: gendp_isa::ControlProgram = "
//!     li a[0] 0
//!     li a[1] 3
//!     mv rf[0] in
//!     mv out rf[0]
//!     addi a0 a0 1
//!     blt a0 a1 -3
//!     halt
//! ".parse().unwrap();
//! array.load_pe_control(0, pe0);
//! array.feed_input([1, 2, 3].map(Word::from_i32));
//! let stats = array.run(1000).unwrap();
//! assert_eq!(array.output(), [1, 2, 3].map(Word::from_i32));
//! assert!(stats.cycles > 0);
//! ```

#![forbid(unsafe_code)]

mod array;
mod config;
mod error;
mod events;
mod pe;
mod stats;

pub use array::PeArray;
pub use config::{PeArrayConfig, Tier, TierPolicy};
pub use error::{Retryability, SimError};
pub use stats::{PeStats, RunStats};

/// Integer PE arrays in the full DPAx accelerator (paper Fig. 4).
pub const INT_ARRAYS: usize = 16;

/// PEs per array (paper Fig. 4).
pub const PES_PER_ARRAY: usize = 4;

/// Clock frequency DPAx is expected to run at (paper §7.2: 2 GHz).
pub const CLOCK_HZ: f64 = 2.0e9;
