//! # gendp-bench
//!
//! The experiment harness reproducing every table and figure of the GenDP
//! paper's evaluation (see DESIGN.md §5 for the experiment index and
//! EXPERIMENTS.md for recorded results).
//!
//! Each `table*` / `fig*` function renders one artifact as text, printing
//! the paper's published numbers next to what this reproduction measures
//! (cycle-level simulation for GenDP, host measurements of the Rust
//! reference kernels for the CPU side, recorded constants for closed
//! systems — DESIGN.md §4).
//!
//! Run them through the `experiments` binary, e.g.
//! `cargo run --release -p gendp-bench --bin experiments -- table2`, or
//! all at once with the `all` id. `--quick` selects a reduced workload
//! (the default workloads are sized for release builds).

#![forbid(unsafe_code)]

pub mod measure;
pub mod tables;

/// Workload scale selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Reduced workloads for smoke tests and debug builds.
    pub quick: bool,
}

impl Scale {
    /// Parses `--quick` from the process arguments.
    pub fn from_args() -> Self {
        Scale {
            quick: std::env::args().any(|a| a == "--quick"),
        }
    }

    /// The full (release-sized) scale.
    pub fn full() -> Self {
        Scale { quick: false }
    }

    /// The reduced scale.
    pub fn quick() -> Self {
        Scale { quick: true }
    }

    /// Picks between the full and quick variant of a parameter.
    pub fn pick<T>(&self, full: T, quick: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }
}
