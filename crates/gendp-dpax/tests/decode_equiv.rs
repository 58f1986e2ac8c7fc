//! Property: for **random valid programs** — not just the shipped
//! kernels — the execution tiers are indistinguishable: same output
//! words, same statistics, and on erroring or non-terminating programs
//! the *same* error at the *same* cycle. Programs are drawn over the
//! full control ISA (direct and indirect addressing across RF/SPM/areg
//! spaces, ports, FIFO, branches, compute launches) plus random 2-way
//! VLIW compute programs, including out-of-bounds addresses, so the
//! comparison exercises the dynamic error paths as well as the happy
//! path. A second property pins the functional tier's cell evaluator to
//! the simulators: for random *in-bounds* compute programs, one
//! simulated compute activation commits exactly the register file
//! [`eval_cell`] computes, which is the arithmetic bit-identity the
//! batched wavefront sweep in `gendp-core` is built on. Tier selection
//! goes through [`TierPolicy`]; what a raw array runs for each request is
//! covered by the resolution test at the bottom.

use gendp_dpax::{PeArray, PeArrayConfig, Tier, TierPolicy};
use gendp_isa::{
    eval_cell, AddrReg, BranchCond, ComputeOp, ComputeProgram, ControlInst, ControlProgram, CuInst,
    DecodedComputeProgram, Loc, Luts, Mode, Operand, Space, TreeSlots, VliwInst, Word,
};
use proptest::prelude::*;

/// Small machine so random addresses hit bounds often enough to matter.
const RF_SLOTS: usize = 8;
const SPM_WORDS: usize = 8;
const AREGS: usize = 4;
const FIFO_CAP: usize = 4;
const BUDGET: u64 = 300;

fn areg() -> impl Strategy<Value = AddrReg> {
    // One register beyond the configured file, to exercise the areg
    // bound-check diagnostics identically on both engines.
    (0..=AREGS as u8).prop_map(AddrReg)
}

fn data_loc() -> impl Strategy<Value = Loc> {
    let space = prop_oneof![Just(Space::Rf), Just(Space::Spm), Just(Space::Areg)];
    // Direct addresses may run one past the end; indirect offsets swing
    // negative. Both must produce the interpreter's exact diagnostics.
    (space, 0..=8u16, areg(), -2..=2i16, any::<bool>()).prop_map(
        |(space, addr, reg, offset, indirect)| {
            if indirect {
                Loc::indirect(space, reg.0, offset)
            } else {
                Loc::direct(space, addr)
            }
        },
    )
}

fn loc_or_port() -> impl Strategy<Value = Loc> {
    // The vendored proptest has no branch weights; repeating the data-loc
    // arm biases toward plain moves so programs make some progress.
    prop_oneof![
        data_loc(),
        data_loc(),
        data_loc(),
        data_loc(),
        Just(Loc::port(Space::In)),
        Just(Loc::port(Space::Out)),
        Just(Loc::port(Space::Fifo)),
    ]
}

fn ctrl_inst() -> impl Strategy<Value = ControlInst> {
    prop_oneof![
        (data_loc(), -8..=100i32).prop_map(|(dest, imm)| ControlInst::Li { dest, imm }),
        (loc_or_port(), loc_or_port()).prop_map(|(dest, src)| ControlInst::Mv { dest, src }),
        (areg(), areg(), areg()).prop_map(|(rd, rs1, rs2)| ControlInst::Add { rd, rs1, rs2 }),
        (areg(), areg(), -2..=4i32).prop_map(|(rd, rs1, imm)| ControlInst::Addi { rd, rs1, imm }),
        (
            prop_oneof![
                Just(BranchCond::Eq),
                Just(BranchCond::Ne),
                Just(BranchCond::Ge),
                Just(BranchCond::Lt)
            ],
            areg(),
            areg(),
            -3..=4i16
        )
            .prop_map(|(cond, rs1, rs2, offset)| ControlInst::Branch {
                cond,
                rs1,
                rs2,
                offset
            }),
        (0..=4u16).prop_map(ControlInst::set_compute),
        Just(ControlInst::Nop),
        Just(ControlInst::Halt),
    ]
}

fn operand() -> impl Strategy<Value = Operand> {
    prop_oneof![
        (0..=RF_SLOTS as u16).prop_map(Operand::Reg),
        (-4..=20i32).prop_map(Operand::Imm),
    ]
}

fn alu_op() -> impl Strategy<Value = ComputeOp> {
    prop_oneof![
        Just(ComputeOp::Add),
        Just(ComputeOp::Sub),
        Just(ComputeOp::Max),
        Just(ComputeOp::Min),
        Just(ComputeOp::Nop),
    ]
}

fn cu_inst() -> impl Strategy<Value = CuInst> {
    let mul = (operand(), operand(), 0..=RF_SLOTS as u16).prop_map(|(a, b, dest)| CuInst::Mul {
        a,
        b,
        dest,
    });
    let tree = (
        alu_op(),
        proptest::array::uniform4(operand()),
        alu_op(),
        proptest::array::uniform2(operand()),
        prop_oneof![
            Just(ComputeOp::Add),
            Just(ComputeOp::Max),
            Just(ComputeOp::Copy)
        ],
        0..=RF_SLOTS as u16,
    )
        .prop_map(
            |(wide_op, wide_ins, narrow_op, narrow_ins, root_op, dest)| {
                CuInst::Tree(TreeSlots {
                    wide_op,
                    wide_ins,
                    narrow_op,
                    narrow_ins,
                    root_op,
                    dest,
                })
            },
        );
    prop_oneof![Just(CuInst::Nop), mul, tree]
}

fn compute_program() -> impl Strategy<Value = ComputeProgram> {
    proptest::collection::vec((cu_inst(), cu_inst()), 0..4).prop_map(|insts| {
        let mut prog = ComputeProgram::new();
        for (a, b) in insts {
            prog.push(VliwInst::pair(a, b));
        }
        prog
    })
}

fn control_program() -> impl Strategy<Value = ControlProgram> {
    proptest::collection::vec(ctrl_inst(), 1..14).prop_map(|insts| {
        let mut prog = ControlProgram::new();
        for inst in insts {
            prog.push(inst);
        }
        prog.push(ControlInst::Halt);
        prog
    })
}

fn run_tier(
    tiers: TierPolicy,
    ctrl: &ControlProgram,
    compute: &ComputeProgram,
) -> (
    Result<gendp_dpax::RunStats, gendp_dpax::SimError>,
    Vec<Word>,
) {
    let mut cfg = PeArrayConfig::with_pes(1).no_verify().tiers(tiers);
    cfg.rf_slots = RF_SLOTS;
    cfg.spm_words = SPM_WORDS;
    cfg.aregs = AREGS;
    cfg.fifo_capacity = FIFO_CAP;
    let mut array = PeArray::new(cfg);
    array.load_pe_control(0, ctrl.clone());
    array.load_pe_compute(0, compute.clone());
    array.feed_input([3, 1, 4, 1].map(Word::from_i32));
    let outcome = array.run(BUDGET);
    let output = array.output().to_vec();
    (outcome, output)
}

/// An operand that stays inside the register file — the functional cell
/// evaluator is only defined over in-bounds programs (out-of-bounds
/// accesses are the simulators' dynamic-diagnostic territory, covered by
/// the random-program property above).
fn valid_operand() -> impl Strategy<Value = Operand> {
    prop_oneof![
        (0..RF_SLOTS as u16).prop_map(Operand::Reg),
        (-4..=20i32).prop_map(Operand::Imm),
    ]
}

fn valid_cu_inst() -> impl Strategy<Value = CuInst> {
    let mul = (valid_operand(), valid_operand(), 0..RF_SLOTS as u16)
        .prop_map(|(a, b, dest)| CuInst::Mul { a, b, dest });
    let tree = (
        alu_op(),
        proptest::array::uniform4(valid_operand()),
        alu_op(),
        proptest::array::uniform2(valid_operand()),
        prop_oneof![
            Just(ComputeOp::Add),
            Just(ComputeOp::Max),
            Just(ComputeOp::Copy)
        ],
        0..RF_SLOTS as u16,
    )
        .prop_map(
            |(wide_op, wide_ins, narrow_op, narrow_ins, root_op, dest)| {
                CuInst::Tree(TreeSlots {
                    wide_op,
                    wide_ins,
                    narrow_op,
                    narrow_ins,
                    root_op,
                    dest,
                })
            },
        );
    prop_oneof![Just(CuInst::Nop), mul, tree]
}

fn valid_compute_program() -> impl Strategy<Value = ComputeProgram> {
    proptest::collection::vec((valid_cu_inst(), valid_cu_inst()), 1..4).prop_map(|insts| {
        let mut prog = ComputeProgram::new();
        for (a, b) in insts {
            prog.push(VliwInst::pair(a, b));
        }
        prog.finish();
        prog
    })
}

/// A control program that stages `vals` into the register file, runs one
/// compute activation, and streams the whole register file out (the RF
/// reads stall until the compute thread retires, so the output is the
/// post-activation file).
fn activation_program(vals: &[i32]) -> ControlProgram {
    let mut prog = ControlProgram::new();
    for (i, &v) in vals.iter().enumerate() {
        prog.push(ControlInst::Li {
            dest: Loc::direct(Space::Rf, i as u16),
            imm: v,
        });
    }
    prog.push(ControlInst::set_compute(0));
    for i in 0..vals.len() {
        prog.push(ControlInst::Mv {
            dest: Loc::port(Space::Out),
            src: Loc::direct(Space::Rf, i as u16),
        });
    }
    prog.push(ControlInst::Halt);
    prog
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Decode → execute == interpret, for arbitrary programs: identical
    /// run outcome (stats on success, the same error otherwise) and
    /// identical output stream.
    #[test]
    fn random_programs_decode_equivalent(
        ctrl in control_program(),
        compute in compute_program(),
    ) {
        let (decoded, out_decoded) = run_tier(TierPolicy::decoded(), &ctrl, &compute);
        let (interpreted, out_interpreted) =
            run_tier(TierPolicy::interpreted(), &ctrl, &compute);
        prop_assert_eq!(decoded, interpreted, "run outcomes diverge for:\n{}", ctrl);
        prop_assert_eq!(out_decoded, out_interpreted, "outputs diverge for:\n{}", ctrl);
    }

    /// Three-way bit-identity at the activation level: for random
    /// in-bounds compute programs over random register files, the
    /// interpreted engine, the decoded engine and the functional cell
    /// evaluator commit exactly the same register file.
    #[test]
    fn compute_activation_matches_functional_eval(
        compute in valid_compute_program(),
        vals in proptest::collection::vec(-50..=100i32, RF_SLOTS),
    ) {
        let ctrl = activation_program(&vals);
        let (decoded, out_decoded) = run_tier(TierPolicy::decoded(), &ctrl, &compute);
        let (interpreted, out_interpreted) =
            run_tier(TierPolicy::interpreted(), &ctrl, &compute);
        prop_assert!(decoded.is_ok(), "staged activation failed: {:?}", decoded);
        prop_assert_eq!(decoded, interpreted);
        prop_assert_eq!(&out_decoded, &out_interpreted);

        let program = DecodedComputeProgram::decode(&compute);
        let luts = Luts::default();
        let mut rf: Vec<Word> = vals.iter().map(|&v| Word::from_i32(v)).collect();
        eval_cell(&program, Mode::Int32, &luts, &mut rf);
        prop_assert_eq!(&rf, &out_decoded, "functional evaluator diverges for:\n{}", &compute);
    }
}

/// Tier resolution at the raw-array level: a PE array has no functional
/// lowering (that exists only for prepared wavefront tasks in
/// `gendp-core`), so a functional request resolves down to decoded, while
/// the decoded and interpreted requests run as asked — each with the tier
/// that ran recorded in the run's provenance.
#[test]
fn tier_requests_resolve_down_the_chain() {
    let run = |tiers: TierPolicy| {
        let mut prog = ControlProgram::new();
        prog.push(ControlInst::Li {
            dest: Loc::direct(Space::Rf, 0),
            imm: 7,
        });
        prog.push(ControlInst::Mv {
            dest: Loc::port(Space::Out),
            src: Loc::direct(Space::Rf, 0),
        });
        prog.push(ControlInst::Halt);
        let cfg = PeArrayConfig::with_pes(1).no_verify().tiers(tiers);
        let mut array = PeArray::new(cfg);
        array.load_pe_control(0, prog);
        let stats = array.run(BUDGET).expect("every tier request runs");
        assert_eq!(array.resolved_tier(), stats.tier);
        assert_eq!(array.output(), [Word::from_i32(7)]);
        stats.tier
    };
    assert_eq!(run(TierPolicy::functional()), Tier::Decoded);
    assert_eq!(run(TierPolicy::decoded()), Tier::Decoded);
    assert_eq!(run(TierPolicy::interpreted()), Tier::Interpreted);
}
