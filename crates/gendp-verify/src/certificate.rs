//! Safety and cost certificates produced by the array verifier.
//!
//! [`Verifier::certify_array`](crate::Verifier::certify_array) runs the
//! same abstract-interpretation fixpoint as
//! [`verify_array`](crate::Verifier::verify_array) but keeps the proofs
//! instead of throwing them away:
//!
//! * **bounds proofs** — every register-file / scratchpad / address-register
//!   access resolved to an interval definitely inside its space, per PE,
//!   with the accessed footprint recorded;
//! * **a static cycle model** — per-PE active-cycle intervals from the
//!   fixpoint (one cycle per retired control instruction, plus the compute
//!   steps each `set cu` triggers), aggregated into a whole-array floor,
//!   upper bound, and — for stall-free programs — an exact count;
//! * **FIFO traffic bounds** — per-PE push/pop intervals, aggregated into
//!   a peak-occupancy bound.
//!
//! Consumers: `gendp-core` runs a task on the functional tier only when
//! its programs certify safe and reports that tier's cycles from the
//! cycle model, and `gendp-serve` costs and admits requests by certified
//! DP-cell counts and cycle bounds instead of a heuristic estimate.
//!
//! # Soundness of the cycle model
//!
//! The simulator counts one array cycle per iteration of its step loop and
//! errors with a deadlock unless every counted cycle — except possibly the
//! final all-halt cycle — sees at least one progress event (a control
//! instruction advancing or a compute step). A PE contributes at most
//! `issue` control retirements and `compute` compute steps, so for any
//! successful run
//!
//! ```text
//! cycles  <=  1 + sum over PEs of (issue.hi + compute.hi)
//! ```
//!
//! and, since a PE retires at most one control instruction per cycle while
//! it is live,
//!
//! ```text
//! cycles  >=  max over PEs of issue.lo
//! ```
//!
//! When every PE is *stall-free* — no port, FIFO, or `set cu` instruction,
//! so nothing can ever block and the compute unit never runs — each PE
//! retires exactly one instruction per cycle and the array runs for
//! exactly `max over PEs of issue` cycles, which the certificate reports
//! as [`Certificate::cycle_exact`]. Loops survived only by widening leave
//! `issue.hi` at infinity and the upper bound becomes `None`.

use gendp_isa::{ComputeProgram, ControlInst, ControlProgram, CuInst, Loc, Operand, Space};

use crate::interval::Interval;

/// The per-PE slice of a [`Certificate`]: what the fixpoint proved about
/// one control/compute program pair at its chain position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeCertificate {
    /// Active control-thread cycles: one per retired instruction
    /// (including `halt`), plus one for the silent-halt discovery cycle
    /// when the pc runs off the program end. `Interval::TOP` when no exit
    /// is reachable.
    pub issue: Interval,
    /// Compute-unit steps triggered along any exiting path (each
    /// `set cu t` contributes `compute_len - t` steps).
    pub compute: Interval,
    /// `set cu` executions along any exiting path — one DP cell each.
    pub cu_sets: Interval,
    /// FIFO words pushed over all exits.
    pub pushes: Interval,
    /// FIFO words popped over all exits.
    pub pops: Interval,
    /// Hull of register-file addresses the PE accesses (control thread
    /// plus compute operands); `None` when the RF is never touched.
    pub rf_footprint: Option<Interval>,
    /// Hull of scratchpad addresses the PE accesses.
    pub spm_footprint: Option<Interval>,
    /// Every control-thread address (direct and indirect, all spaces)
    /// resolved to an interval provably inside its space.
    pub bounds_proven: bool,
    /// Some exit (halt or running off the end) is reachable; `false`
    /// means every path loops forever.
    pub terminates: bool,
    /// The program contains no port, FIFO, or `set cu` instruction, so no
    /// cycle can stall and the per-PE cycle count is exact.
    pub stall_free: bool,
}

/// A machine-checkable summary of what static analysis proved about a
/// loaded PE array: address-safety, cycle bounds, DP-cell cost, and FIFO
/// traffic. Produced by
/// [`Verifier::certify_array`](crate::Verifier::certify_array).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    per_pe: Vec<PeCertificate>,
    cycle_floor: u64,
    cycle_bound: Option<u64>,
    cycle_exact: Option<u64>,
    cost_cells: Option<u64>,
    cells_exact: bool,
    fifo_peak: Option<u64>,
    safe: bool,
}

impl Certificate {
    /// Aggregates per-PE proofs into the whole-array certificate.
    /// `clean` is whether the *unfiltered* report was error-free —
    /// `allow`-suppressed errors must not launder a program into safety.
    pub(crate) fn assemble(per_pe: Vec<PeCertificate>, clean: bool) -> Certificate {
        let safe = clean && per_pe.iter().all(|p| p.bounds_proven);
        let all_terminate = per_pe.iter().all(|p| p.terminates);

        let cycle_floor = per_pe
            .iter()
            .map(|p| p.issue.lo.max(0) as u64)
            .max()
            .unwrap_or(0);

        let cycle_exact = (all_terminate
            && per_pe
                .iter()
                .all(|p| p.stall_free && p.issue.lo == p.issue.hi))
        .then(|| {
            per_pe
                .iter()
                .map(|p| p.issue.lo.max(0) as u64)
                .max()
                .unwrap_or(0)
        });

        let cycle_bound = match cycle_exact {
            Some(exact) => Some(exact),
            None if all_terminate
                && per_pe
                    .iter()
                    .all(|p| p.issue.hi < i64::MAX && p.compute.hi < i64::MAX) =>
            {
                Some(per_pe.iter().fold(1u64, |acc, p| {
                    acc.saturating_add(p.issue.hi.max(0) as u64)
                        .saturating_add(p.compute.hi.max(0) as u64)
                }))
            }
            None => None,
        };

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
            per_pe,
            cycle_floor,
            cycle_bound,
            cycle_exact,
            cost_cells,
            cells_exact,
            fifo_peak,
            safe,
        }
    }

    /// The per-PE proofs, in chain order.
    pub fn per_pe(&self) -> &[PeCertificate] {
        &self.per_pe
    }

    /// Proven lower bound on whole-array cycles: no successful run
    /// finishes in fewer. The scheduler's deadline-infeasibility gate.
    pub fn cycle_floor(&self) -> u64 {
        self.cycle_floor
    }

    /// Proven upper bound on whole-array cycles of any successful run, or
    /// `None` when widening (a loop) or an unreachable exit left a bound
    /// at infinity.
    pub fn cycle_bound(&self) -> Option<u64> {
        self.cycle_bound
    }

    /// The exact whole-array cycle count, when every PE is stall-free and
    /// its issue count is a single value. `None` does not mean the bounds
    /// are wrong — only that the model cannot promise exactness.
    pub fn cycle_exact(&self) -> Option<u64> {
        self.cycle_exact
    }

    /// Certified DP-cell count (total `set cu` executions across the
    /// array): the upper bound, or `None` when unbounded. This is the
    /// cost the serve scheduler charges instead of its heuristic
    /// estimate.
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

/// True when no instruction can ever stall or start the compute unit: no
/// port or FIFO access and no `set cu`. Such a program retires exactly
/// one instruction per cycle.
pub(crate) fn is_stall_free(program: &ControlProgram) -> bool {
    fn loc_free(loc: &Loc) -> bool {
        matches!(loc.space(), Space::Rf | Space::Spm | Space::Areg)
    }
    program.iter().all(|inst| match inst {
        ControlInst::Nop
        | ControlInst::Halt
        | ControlInst::Add { .. }
        | ControlInst::Addi { .. }
        | ControlInst::Branch { .. } => true,
        ControlInst::Set { .. } => false,
        ControlInst::Li { dest, .. } => loc_free(dest),
        ControlInst::Mv { dest, src } => loc_free(dest) && loc_free(src),
    })
}

/// Hull of register-file slots the compute program reads or writes.
pub(crate) fn compute_rf_hull(program: &ComputeProgram) -> Option<Interval> {
    let mut hull: Option<Interval> = None;
    let mut touch = |r: u16| {
        let iv = Interval::exact(r as i64);
        hull = Some(match hull {
            Some(prev) => prev.join(iv),
            None => iv,
        });
    };
    for inst in program.iter() {
        for slot in &inst.slots {
            match slot {
                CuInst::Nop => {}
                CuInst::Mul { a, b, dest } => {
                    for op in [a, b] {
                        if let Operand::Reg(r) = op {
                            touch(*r);
                        }
                    }
                    touch(*dest);
                }
                CuInst::Tree(tree) => {
                    for r in tree.reg_reads() {
                        touch(r);
                    }
                    touch(tree.dest);
                }
            }
        }
    }
    hull
}
