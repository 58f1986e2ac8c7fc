//! Safety and cost certificates produced by the array verifier.
//!
//! [`Verifier::certify_array`](crate::Verifier::certify_array) runs the
//! same abstract-interpretation fixpoint as
//! [`verify_array`](crate::Verifier::verify_array) but keeps the proofs
//! instead of throwing them away:
//!
//! * **bounds proofs** — every register-file / scratchpad / address-register
//!   access resolved to an interval definitely inside its space, per PE;
//! * **a cycle floor** — per-PE active-cycle intervals from the fixpoint
//!   (one cycle per retired control instruction), whose largest lower end
//!   no successful run can undercut;
//! * **FIFO traffic bounds** — per-PE push intervals, aggregated into a
//!   peak-occupancy bound.
//!
//! Consumers: `gendp-core` runs a task on the functional tier only when
//! its programs certify safe, and `gendp-serve`'s opt-in deadline gate
//! rejects a request whose cycle floor cannot meet its deadline.
//! Reported cycles always come from a simulation (the functional tier
//! reuses its shape's first simulated run), never from this model.
//!
//! # Soundness of the cycle floor
//!
//! A PE's control thread retires at most one instruction per cycle while
//! it is live, and a successful run ends only once every PE has halted,
//! so for any successful run
//!
//! ```text
//! cycles  >=  max over PEs of issue.lo
//! ```

use crate::interval::Interval;

/// What the fixpoint proved about one control/compute program pair at
/// its chain position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PeCertificate {
    /// Active control-thread cycles: one per retired instruction
    /// (including `halt`), plus one for the silent-halt discovery cycle
    /// when the pc runs off the program end. `Interval::TOP` when no exit
    /// is reachable.
    pub issue: Interval,
    /// `set cu` executions along any exiting path — one DP cell each.
    pub cu_sets: Interval,
    /// FIFO words pushed over all exits.
    pub pushes: Interval,
    /// Every control-thread address (direct and indirect, all spaces)
    /// resolved to an interval provably inside its space.
    pub bounds_proven: bool,
    /// Some exit (halt or running off the end) is reachable; `false`
    /// means every path loops forever.
    pub terminates: bool,
}

/// A machine-checkable summary of what static analysis proved about a
/// loaded PE array: address-safety, a cycle floor, DP-cell cost, and FIFO
/// traffic. Produced by
/// [`Verifier::certify_array`](crate::Verifier::certify_array).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    cycle_floor: u64,
    cost_cells: Option<u64>,
    cells_exact: bool,
    fifo_peak: Option<u64>,
    safe: bool,
}

impl Certificate {
    /// Aggregates per-PE proofs into the whole-array certificate.
    /// `clean` is whether the *unfiltered* report was error-free —
    /// `allow`-suppressed errors must not launder a program into safety.
    pub(crate) fn assemble(per_pe: &[PeCertificate], clean: bool) -> Certificate {
        let safe = clean && per_pe.iter().all(|p| p.bounds_proven);
        let all_terminate = per_pe.iter().all(|p| p.terminates);

        let cycle_floor = per_pe
            .iter()
            .map(|p| p.issue.lo.max(0) as u64)
            .max()
            .unwrap_or(0);

        let cost_cells =
            (all_terminate && per_pe.iter().all(|p| p.cu_sets.hi < i64::MAX)).then(|| {
                per_pe.iter().fold(0u64, |acc, p| {
                    acc.saturating_add(p.cu_sets.hi.max(0) as u64)
                })
            });
        let cells_exact =
            cost_cells.is_some() && per_pe.iter().all(|p| p.cu_sets.lo == p.cu_sets.hi);

        let fifo_peak =
            (all_terminate && per_pe.iter().all(|p| p.pushes.hi < i64::MAX)).then(|| {
                per_pe
                    .iter()
                    .fold(0u64, |acc, p| acc.saturating_add(p.pushes.hi.max(0) as u64))
            });

        Certificate {
            cycle_floor,
            cost_cells,
            cells_exact,
            fifo_peak,
            safe,
        }
    }

    /// Proven lower bound on whole-array cycles: no successful run
    /// finishes in fewer. The scheduler's deadline-infeasibility gate.
    pub fn cycle_floor(&self) -> u64 {
        self.cycle_floor
    }

    /// Certified DP-cell count (total `set cu` executions across the
    /// array): the upper bound, or `None` when unbounded.
    pub fn cost_cells(&self) -> Option<u64> {
        self.cost_cells
    }

    /// True when [`cost_cells`](Self::cost_cells) is exact on every path.
    pub fn cells_exact(&self) -> bool {
        self.cells_exact
    }

    /// Upper bound on FIFO words ever resident (total pushes), or `None`
    /// when unbounded.
    pub fn fifo_peak(&self) -> Option<u64> {
        self.fifo_peak
    }

    /// True when every access of every PE is proven in bounds and the
    /// unfiltered report had no errors: the functional tier may run these
    /// programs.
    pub fn safe(&self) -> bool {
        self.safe
    }
}
