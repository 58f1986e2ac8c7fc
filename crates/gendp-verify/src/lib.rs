//! # gendp-verify
//!
//! A static verifier for GenDP ISA programs and data-flow graphs.
//!
//! GenDP's programmability (paper §4.4: decoupled control ISA plus 2-way
//! VLIW compute ISA) means DPMap-generated and hand-written PE programs
//! can read registers nothing wrote, overrun the scratchpad, unbalance the
//! inter-PE FIFO, or double-write a VLIW slot — and without this crate the
//! only way to find out was to run the cycle-level simulator and watch it
//! fault. `gendp-verify` proves a program respects the PE contract
//! *before* any cycle is simulated:
//!
//! * a typed [`Diagnostic`] model — [`Rule`] registry, [`Severity`],
//!   instruction-level [`DiagLoc`]s, suggested fixes, and `allow`-style
//!   per-rule suppression on the [`Verifier`];
//! * dataflow analyses over [`ControlProgram`]s built on an
//!   abstract-interpretation fixpoint across the control-flow graph:
//!   def-before-use on address registers, symbolic interval bounds for
//!   indirect scratchpad / register-file addresses, FIFO push/pop balance
//!   along all control paths, branch-target validity, and a
//!   decreasing-counter loop-termination lint;
//! * structural VLIW checks over [`ComputeProgram`]s: slot write
//!   conflicts, tree-slot operator legality, register-file bounds, and
//!   SIMD lane-width consistency with the array [`Mode`](gendp_isa::Mode);
//! * DFG lints replacing the stringly `Dfg::validate`: arity and
//!   topological-order violations, missing or absent outputs, unreachable
//!   nodes, and multiplier-pressure feasibility for DPMap.
//!
//! The verifier is wired end-to-end: `gendp-dpmap` refuses invalid DFGs
//! with a typed [`Report`] and hard-errors if its own codegen emits a
//! program that fails verification; `gendp-dpax` gates every simulation
//! behind a pre-run verify pass (opt out with `PeArrayConfig::verify =
//! false`); `gendp-runtime` rejects failing tasks before they consume
//! queue slots; and the `gendp-verify` CLI lints program files with
//! rustc-style rendered diagnostics.
//!
//! ```
//! use gendp_isa::ControlProgram;
//! use gendp_verify::{Rule, Verifier};
//!
//! let program: ControlProgram = "
//!     li a[0] 0
//!     li a[1] 3
//!     mv rf[0] in
//!     mv out rf[0]
//!     addi a0 a0 1
//!     blt a0 a1 -3
//!     halt
//! ".parse().unwrap();
//! assert!(Verifier::default().verify_control(&program).is_clean());
//!
//! let broken: ControlProgram = "mv rf[9999] in\nhalt".parse().unwrap();
//! let report = Verifier::default().verify_control(&broken);
//! assert_eq!(report.of_rule(Rule::AddrBounds).count(), 1);
//! ```

mod certificate;
mod compute;
mod contract;
mod control;
mod dfg;
mod diag;
mod interval;
mod render;

pub use certificate::{Certificate, PeCertificate};
pub use contract::PeContract;
pub use diag::{DiagLoc, Diagnostic, Report, Rule, Severity};
pub use interval::{BoundsVerdict, Interval};
pub use render::render_source_diagnostics;

use std::collections::BTreeSet;

use gendp_isa::{Addr, ComputeProgram, ControlInst, ControlProgram, CuInst, Space};

use crate::control::ControlAnalysis;

/// The static analyzer: a [`PeContract`] plus suppressed rules.
///
/// All `verify_*` methods are pure and deterministic: the same input
/// yields the same [`Report`], in the same order.
#[derive(Debug, Clone, Default)]
pub struct Verifier {
    contract: PeContract,
    allowed: BTreeSet<Rule>,
}

impl Verifier {
    /// A verifier for the given hardware contract.
    pub fn new(contract: PeContract) -> Self {
        Verifier {
            contract,
            allowed: BTreeSet::new(),
        }
    }

    /// Suppresses one rule (`#[allow]`-style), returning `self`.
    pub fn allow(mut self, rule: Rule) -> Self {
        self.allowed.insert(rule);
        self
    }

    /// The contract programs are checked against.
    pub fn contract(&self) -> &PeContract {
        &self.contract
    }

    fn filtered(&self, report: Report) -> Report {
        if self.allowed.is_empty() {
            return report;
        }
        let mut out = Report::new();
        for diag in report.diagnostics() {
            if !self.allowed.contains(&diag.rule) {
                out.push(diag.clone());
            }
        }
        out
    }

    /// Verifies one control program with unknown array position: all
    /// dataflow rules, minus position-dependent FIFO discipline. A
    /// program that both pushes and pops the FIFO is assumed to loop onto
    /// itself and must balance.
    pub fn verify_control(&self, program: &ControlProgram) -> Report {
        let analysis = ControlAnalysis::new(&self.contract, None, self.contract.n_pes, None);
        let outcome = analysis.run(program);
        let mut report = outcome.report;
        if program.is_empty() {
            report.push(
                Diagnostic::new(
                    Rule::EmptyInput,
                    DiagLoc::Program,
                    "the control program has no instructions; the PE halts immediately",
                )
                .warning()
                .suggest("write at least one instruction, or drop the program"),
            );
        }
        if let Some(fifo) = outcome.fifo {
            if let (Some(pushes), Some(pops)) = (fifo.exact_pushes(), fifo.exact_pops()) {
                if pushes > 0 && pops > 0 && pushes != pops {
                    report.push(
                        Diagnostic::new(
                            Rule::FifoBalance,
                            DiagLoc::Program,
                            format!(
                                "program pushes {pushes} FIFO words but pops {pops}; \
                                 leftovers deadlock the next consumer"
                            ),
                        )
                        .suggest("make every pushed word get popped exactly once"),
                    );
                }
            }
        }
        self.filtered(report)
    }

    /// Verifies one compute program structurally against the contract.
    pub fn verify_compute(&self, program: &ComputeProgram) -> Report {
        self.filtered(compute::check_compute(&self.contract, program))
    }

    /// Verifies the control and compute programs of the PE at position
    /// `pe` in a chain of [`PeContract::n_pes`]: everything
    /// [`verify_control`](Self::verify_control) checks plus FIFO position
    /// discipline, `set cu` target validity, and a joint register-file
    /// def-before-use check across both threads.
    pub fn verify_pe(
        &self,
        pe: usize,
        control: &ControlProgram,
        compute: &ComputeProgram,
    ) -> Report {
        let analysis = ControlAnalysis::new(
            &self.contract,
            Some(pe),
            self.contract.n_pes,
            Some(compute.len()),
        );
        let mut report = analysis.run(control).report;
        report.merge(compute::check_compute(&self.contract, compute));
        report.merge(joint_rf_check(self.contract.rf_slots, control, compute));
        self.filtered(report)
    }

    /// Verifies a whole array: each `(control, compute)` pair at its
    /// position (`units.len()` is the chain length, overriding the
    /// contract's `n_pes` for position checks), shared compute programs
    /// only once, plus array-wide FIFO push/pop balance.
    pub fn verify_array(&self, units: &[(&ControlProgram, &ComputeProgram)]) -> Report {
        self.certify_array(units).0
    }

    /// Like [`verify_array`](Self::verify_array), but keeps the proofs:
    /// returns the report together with a [`Certificate`] carrying
    /// per-space bounds proofs and footprints, a static cycle model
    /// (floor, upper bound, and exact count where the model permits),
    /// certified DP-cell cost, and FIFO traffic bounds.
    ///
    /// The certificate's [`safe`](Certificate::safe) flag is computed
    /// from the *unfiltered* report — `allow`-suppressed errors never
    /// certify a program as safe.
    pub fn certify_array(
        &self,
        units: &[(&ControlProgram, &ComputeProgram)],
    ) -> (Report, Certificate) {
        let n = units.len();
        let mut positional = Verifier {
            contract: self.contract.clone(),
            allowed: self.allowed.clone(),
        };
        positional.contract.n_pes = n;

        let mut report = Report::new();
        let mut total_pushes = Some(0i64);
        let mut total_pops = Some(0i64);
        let mut per_pe_pops: Vec<Option<i64>> = Vec::with_capacity(n);
        let mut computes_seen: Vec<&ComputeProgram> = Vec::new();
        let mut per_pe_cert: Vec<PeCertificate> = Vec::with_capacity(n);

        for (pe, (control, compute)) in units.iter().enumerate() {
            let analysis =
                ControlAnalysis::new(&positional.contract, Some(pe), n, Some(compute.len()));
            let outcome = analysis.run(control);
            report.merge(outcome.report);
            match outcome.fifo {
                Some(fifo) => {
                    total_pushes = total_pushes.zip(fifo.exact_pushes()).map(|(a, b)| a + b);
                    total_pops = total_pops.zip(fifo.exact_pops()).map(|(a, b)| a + b);
                    per_pe_pops.push(fifo.exact_pops());
                }
                None => {
                    total_pushes = None;
                    total_pops = None;
                    per_pe_pops.push(None);
                }
            }
            if !computes_seen.contains(compute) {
                computes_seen.push(compute);
                report.merge(compute::check_compute(&positional.contract, compute));
            }
            report.merge(joint_rf_check(
                positional.contract.rf_slots,
                control,
                compute,
            ));

            let rf_footprint = match (outcome.scan.rf, certificate::compute_rf_hull(compute)) {
                (Some(a), Some(b)) => Some(a.join(b)),
                (a, b) => a.or(b),
            };
            per_pe_cert.push(PeCertificate {
                issue: outcome.exit.map_or(Interval::TOP, |e| e.issue),
                compute: outcome.exit.map_or(Interval::TOP, |e| e.compute),
                cu_sets: outcome.exit.map_or(Interval::TOP, |e| e.cu_sets),
                pushes: outcome.fifo.map_or(Interval::TOP, |f| f.pushes),
                pops: outcome.fifo.map_or(Interval::TOP, |f| f.pops),
                rf_footprint,
                spm_footprint: outcome.scan.spm,
                bounds_proven: outcome.scan.all_in_bounds,
                terminates: outcome.exit.is_some(),
                stall_free: certificate::is_stall_free(control),
            });
        }

        if self.contract.fifo_broadcast {
            // Broadcast mode: every push is delivered to every PE's skid
            // queue, so pops do not drain a shared count. Each PE may pop
            // each pushed word at most once; popping more than was ever
            // pushed is a guaranteed deadlock.
            if let Some(pushes) = total_pushes {
                for (pe, pops) in per_pe_pops.iter().enumerate() {
                    if let Some(pops) = pops {
                        if *pops > pushes {
                            report.push(
                                Diagnostic::new(
                                    Rule::FifoBalance,
                                    DiagLoc::Program,
                                    format!(
                                        "pe{pe} pops {pops} FIFO words but only {pushes} \
                                         are ever pushed (broadcast mode); the extra pops \
                                         deadlock"
                                    ),
                                )
                                .suggest("pop at most once per broadcast word"),
                            );
                        }
                    }
                }
            }
        } else if let (Some(pushes), Some(pops)) = (total_pushes, total_pops) {
            if pushes != pops {
                report.push(
                    Diagnostic::new(
                        Rule::FifoBalance,
                        DiagLoc::Program,
                        format!(
                            "the array pushes {pushes} FIFO words but pops {pops} across \
                             all PEs; the mismatch deadlocks or leaks words"
                        ),
                    )
                    .suggest("balance pushes by the last PE against pops by the first"),
                );
            }
        }
        // Safety is judged on the unfiltered report: `allow` hides
        // diagnostics from the caller, never from the certificate.
        let cert = Certificate::assemble(per_pe_cert, !report.has_errors());
        (self.filtered(report), cert)
    }

    /// Lints a data-flow graph (the typed replacement of
    /// `Dfg::validate`).
    pub fn verify_dfg(&self, dfg: &gendp_dfg::Dfg) -> Report {
        self.filtered(dfg::check_dfg(dfg))
    }
}

/// Register-file def-before-use across both threads of one PE: a compute
/// read of a slot that neither the control program (direct writes) nor
/// the compute program itself ever writes can only observe the reset
/// value. Skipped entirely when the control program writes the register
/// file through an address register, since any slot might be the target.
fn joint_rf_check(rf_slots: usize, control: &ControlProgram, compute: &ComputeProgram) -> Report {
    let mut report = Report::new();
    // Slots written by either thread.
    let mut written = SlotSet::new(rf_slots);
    for inst in control.iter() {
        let dest = match inst {
            ControlInst::Li { dest, .. } | ControlInst::Mv { dest, .. } => dest,
            _ => continue,
        };
        if dest.space() == Space::Rf {
            match dest.addr() {
                Addr::Direct(d) => {
                    written.insert(d);
                }
                Addr::Indirect { .. } => return report, // any slot may be written
                Addr::None => {}
            }
        }
    }
    for inst in compute.iter() {
        for slot in &inst.slots {
            match slot {
                CuInst::Mul { dest, .. } => {
                    written.insert(*dest);
                }
                CuInst::Tree(tree) => {
                    written.insert(tree.dest);
                }
                CuInst::Nop => {}
            }
        }
    }
    let mut flagged = SlotSet::new(rf_slots);
    for (pc, inst) in compute.iter().enumerate() {
        for (slot_idx, slot) in inst.slots.iter().enumerate() {
            let mut check = |r: u16| {
                if !written.contains(r) && flagged.insert(r) {
                    report.push(
                        Diagnostic::new(
                            Rule::DefBeforeUse,
                            DiagLoc::Compute {
                                pc,
                                slot: Some(slot_idx),
                            },
                            format!(
                                "r{r} is read but never written by this PE's control or \
                                 compute program"
                            ),
                        )
                        .suggest("load the slot from the control thread or a prior cycle"),
                    );
                }
            };
            match slot {
                CuInst::Nop => {}
                CuInst::Mul { a, b, .. } => {
                    for op in [a, b] {
                        if let gendp_isa::Operand::Reg(r) = op {
                            check(*r);
                        }
                    }
                }
                CuInst::Tree(tree) => tree.reg_reads().for_each(check),
            }
        }
    }
    report
}

/// A set of register-file slots, one bit per slot.
struct SlotSet(Vec<u64>);

impl SlotSet {
    /// An empty set sized for `slots` slots; it grows for slots past them.
    fn new(slots: usize) -> Self {
        SlotSet(vec![0; slots.div_ceil(64)])
    }

    fn contains(&self, slot: u16) -> bool {
        self.0
            .get(slot as usize / 64)
            .is_some_and(|word| word >> (slot % 64) & 1 == 1)
    }

    /// Adds `slot`; returns whether it was absent.
    fn insert(&mut self, slot: u16) -> bool {
        let word = slot as usize / 64;
        if word >= self.0.len() {
            self.0.resize(word + 1, 0);
        }
        let bit = 1u64 << (slot % 64);
        let absent = self.0[word] & bit == 0;
        self.0[word] |= bit;
        absent
    }
}
