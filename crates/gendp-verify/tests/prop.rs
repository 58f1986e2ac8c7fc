//! Property tests: the verifier is *total* (it never panics, whatever
//! garbage it is fed) and *deterministic* (the same program always gets
//! the byte-identical report). Programs are grown from random recipes and
//! by mutating a known-good kernel loop — the adversarial inputs a
//! compiler bug or a hand-written kernel typo would produce.

use gendp_isa::{
    ComputeOp, ComputeProgram, ControlProgram, CuInst, Mode, Operand, TreeSlots, VliwInst,
};
use gendp_verify::{PeContract, Rule, Verifier};
use proptest::prelude::*;

mod programs;

use programs::{inst_from, inst_sel, seed_program, InstSel};

fn program_from(sels: &[InstSel]) -> ControlProgram {
    sels.iter().copied().map(inst_from).collect()
}

fn compute_from(raw: &[(u8, u16, u16, i32, u16)]) -> ComputeProgram {
    const OPS: [ComputeOp; 6] = [
        ComputeOp::Add,
        ComputeOp::Sub,
        ComputeOp::Mul,
        ComputeOp::Max,
        ComputeOp::MatchScore,
        ComputeOp::Nop,
    ];
    let mut p = ComputeProgram::new();
    for &(sel, a, b, imm, dest) in raw {
        let op = OPS[sel as usize % OPS.len()];
        let slot = if sel % 3 == 0 {
            CuInst::Mul {
                a: Operand::Reg(a % 512),
                b: Operand::Imm(imm),
                dest: dest % 512,
            }
        } else {
            CuInst::Tree(TreeSlots {
                wide_op: op,
                wide_ins: [
                    Operand::Reg(a % 512),
                    Operand::Imm(imm),
                    Operand::Reg(b % 512),
                    Operand::Imm(0),
                ],
                narrow_op: if sel % 2 == 0 {
                    ComputeOp::Nop
                } else {
                    ComputeOp::Max
                },
                narrow_ins: [Operand::Reg(b % 512), Operand::Imm(imm)],
                root_op: ComputeOp::Add,
                dest: dest % 512,
            })
        };
        if sel % 4 == 0 {
            p.push(VliwInst::pair(slot, CuInst::Nop));
        } else {
            p.push(VliwInst::single(slot));
        }
    }
    p.finish();
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary instruction soup: the verifier terminates without
    /// panicking and two runs agree exactly.
    #[test]
    fn random_control_programs_never_panic(sels in prop::collection::vec(inst_sel(), 0..40)) {
        let p = program_from(&sels);
        let r1 = Verifier::default().verify_control(&p);
        let r2 = Verifier::default().verify_control(&p);
        prop_assert_eq!(r1, r2);
    }

    /// Single-point mutations of a known-good kernel loop: still total,
    /// still deterministic, and never *more* broken than one mutation can
    /// explain (the clean seed itself stays clean).
    #[test]
    fn mutated_seed_programs_never_panic(
        idx in 0usize..8,
        sel in inst_sel(),
        swap in any::<bool>(),
    ) {
        let mut insts = seed_program();
        if swap {
            let j = (idx + 1) % insts.len();
            insts.swap(idx, j);
        } else {
            let k = idx % insts.len();
            insts[k] = inst_from(sel);
        }
        let p: ControlProgram = insts.into_iter().collect();
        let r1 = Verifier::default().verify_control(&p);
        let r2 = Verifier::default().verify_control(&p);
        prop_assert_eq!(r1, r2);
    }

    /// Random VLIW programs under every SIMD mode: total and
    /// deterministic.
    #[test]
    fn random_compute_programs_never_panic(
        raw in prop::collection::vec((any::<u8>(), any::<u16>(), any::<u16>(), any::<i32>(), any::<u16>()), 0..24),
        mode_sel in 0u8..4,
    ) {
        let mode = [Mode::Int32, Mode::Int16x2, Mode::Int8x4, Mode::Float32][mode_sel as usize];
        let p = compute_from(&raw);
        let v = Verifier::new(PeContract::new().mode(mode));
        let r1 = v.verify_compute(&p);
        let r2 = v.verify_compute(&p);
        prop_assert_eq!(r1, r2);
    }

    /// Suppressing a rule removes exactly that rule's diagnostics and
    /// nothing else.
    #[test]
    fn allow_removes_exactly_that_rule(
        sels in prop::collection::vec(inst_sel(), 0..30),
        rule_sel in 0usize..Rule::ALL.len(),
    ) {
        let p = program_from(&sels);
        let rule = Rule::ALL[rule_sel];
        let full = Verifier::default().verify_control(&p);
        let filtered = Verifier::default().allow(rule).verify_control(&p);
        prop_assert_eq!(filtered.of_rule(rule).count(), 0);
        prop_assert_eq!(
            filtered.diagnostics().len(),
            full.diagnostics().len() - full.of_rule(rule).count()
        );
    }

    /// Joint PE verification (control + compute sharing one RF) is total
    /// and deterministic too.
    #[test]
    fn random_pe_pairs_never_panic(
        sels in prop::collection::vec(inst_sel(), 0..20),
        raw in prop::collection::vec((any::<u8>(), any::<u16>(), any::<u16>(), any::<i32>(), any::<u16>()), 0..12),
    ) {
        let control = program_from(&sels);
        let compute = compute_from(&raw);
        let r1 = Verifier::default().verify_pe(0, &control, &compute);
        let r2 = Verifier::default().verify_pe(0, &control, &compute);
        prop_assert_eq!(r1, r2);
    }
}

#[test]
fn seed_program_is_clean() {
    let p: ControlProgram = seed_program().into_iter().collect();
    assert!(Verifier::default().verify_control(&p).is_clean());
}
