//! # gendp-dpmap
//!
//! The **DPMap** graph-partitioning algorithm of the GenDP framework
//! (paper §5): maps the data-flow graph of a DP objective function onto the
//! compute units of a DPAx processing element.
//!
//! DPMap removes edges from the DFG in three phases until every connected
//! component fits one compute unit (a 2-level ALU reduction tree or the
//! dedicated multiplier):
//!
//! 1. **Partitioning** (Algorithm 1) isolates multiplications and 4-input /
//!    lookup operations, replicating multi-consumer lookup nodes whose
//!    children are commutative.
//! 2. **Seeding** (Algorithm 2) selects nodes with two parents as roots of
//!    the 2-level tree and detaches multi-consumer nodes.
//! 3. **Refinement** (Algorithm 3) pairs the remaining chains two by two.
//!
//! The resulting subgraphs are scheduled into 2-way VLIW compute
//! instructions ([`Mapping::program`]) with an automatic register-file
//! layout ([`Mapping::layout`]), and mapping statistics matching the
//! paper's Table 2 / Table 11 metrics ([`MapStats`]).
//!
//! ```
//! use gendp_dfg::Dfg;
//! use gendp_dpmap::map_dfg;
//!
//! let mut g = Dfg::new("toy");
//! let x = g.ext("x");
//! let y = g.ext("y");
//! let s = g.match_score(x, y);
//! let d = g.ext("diag");
//! let sum = g.add(d, s);
//! let zero = g.imm(0);
//! let h = g.max(sum, zero);
//! g.set_output("h", h);
//!
//! let mapping = map_dfg(&g);
//! assert!(mapping.program.len() >= 1);
//! assert!(mapping.layout.output_slot("h").is_some());
//! ```

#![forbid(unsafe_code)]

mod codegen;
mod phases;
mod stats;
mod subgraph;
mod work;

pub use codegen::{Mapping, RfLayout};
pub use phases::{partitioning, refinement, seeding};
pub use stats::{analyze_tree_depth, MapStats};
pub use subgraph::{extract, Subgraph, SubgraphShape};
pub use work::{WorkGraph, WorkIn};

use gendp_dfg::Dfg;
use gendp_verify::{Report, Verifier};

/// Runs the full DPMap pipeline on a DFG: the three partitioning phases,
/// subgraph extraction, register allocation and VLIW scheduling.
///
/// The DFG is linted with [`gendp_verify::Verifier::verify_dfg`] first;
/// error diagnostics (arity mismatches, ordering violations, missing
/// outputs) are returned as the full typed [`Report`]. Graphs built
/// through the `gendp-dfg` builder API always pass.
///
/// # Panics
///
/// Panics if the *emitted* compute program fails static verification
/// against the PE contract — that is a code-generation bug, not a
/// property of the input graph.
pub fn try_map_dfg(dfg: &Dfg) -> Result<Mapping, Report> {
    let report = Verifier::default().verify_dfg(dfg);
    if report.has_errors() {
        return Err(report);
    }
    let mut wg = WorkGraph::from_dfg(dfg);
    partitioning(&mut wg);
    seeding(&mut wg);
    refinement(&mut wg);
    let subgraphs = subgraph::extract(&mut wg);
    let mapping = codegen::generate(dfg, &wg, &subgraphs);
    let self_check = Verifier::default().verify_compute(&mapping.program);
    assert!(
        !self_check.has_errors(),
        "codegen emitted a program that fails verification (this is a \
         gendp-dpmap bug):\n{self_check}"
    );
    Ok(mapping)
}

/// Like [`try_map_dfg`], panicking with the rendered diagnostics instead
/// of returning them.
///
/// # Panics
///
/// Panics if the DFG has error-severity lints (see
/// [`gendp_verify::Verifier::verify_dfg`]) or codegen emits a program
/// that fails verification.
pub fn map_dfg(dfg: &Dfg) -> Mapping {
    match try_map_dfg(dfg) {
        Ok(mapping) => mapping,
        Err(report) => panic!("invalid DFG:\n{report}"),
    }
}
