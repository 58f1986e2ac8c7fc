//! # gendp-dfg
//!
//! Data-flow graph (DFG) representation of dynamic-programming objective
//! functions for the GenDP framework (paper §5: "The DP objective function
//! is represented as a data-flow graph").
//!
//! A [`Dfg`] is a directed acyclic graph whose nodes are compute operators
//! ([`gendp_isa::ComputeOp`]) and whose operands are either results of other
//! nodes, named *external inputs* (values the control thread places in the
//! register file: neighbor cell results, sequence characters, constants kept
//! in registers), or immediate constants.
//!
//! The graph is built through a fluent API and is acyclic by construction;
//! nodes are stored in topological (construction) order.
//!
//! ```
//! use gendp_dfg::Dfg;
//! use gendp_isa::{Luts, Mode};
//!
//! // score = max(diag + match(x, y), 0)
//! let mut g = Dfg::new("toy");
//! let x = g.ext("x");
//! let y = g.ext("y");
//! let diag = g.ext("diag");
//! let s = g.match_score(x, y);
//! let sum = g.add(diag, s);
//! let zero = g.imm(0);
//! let h = g.max(sum, zero);
//! g.set_output("h", h);
//!
//! let out = g
//!     .eval_i32(&[("x", 1), ("y", 1), ("diag", 5)], Mode::Int32, &Luts::default())
//!     .unwrap();
//! assert_eq!(out["h"], 6);
//! ```

#![forbid(unsafe_code)]

mod dot;
mod eval;
mod graph;

pub use dot::to_dot;
pub use eval::EvalError;
pub use graph::{Dfg, Input, NodeId};
