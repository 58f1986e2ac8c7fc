//! Property: for **random valid programs** — not just the shipped
//! kernels — the execution tiers are indistinguishable: same output
//! words, same statistics, and on erroring or non-terminating programs
//! the *same* error at the *same* cycle with the same statistics left
//! behind. Arrays of one to four PEs run a random control program each,
//! drawn over the full control ISA (direct and indirect addressing across
//! RF/SPM/areg spaces, ports, FIFO, branches, compute launches at random
//! pcs), over random 2-way VLIW compute programs, in both FIFO modes with
//! a FIFO of one to three words so that pushes block, fed a random input
//! stream and cut off by a random cycle budget. Out-of-bounds addresses,
//! deadlocks and runaway loops exercise the dynamic error paths as well as
//! the happy path, and a run cut off by its budget is resumed without a
//! reset. A second property pins the functional tier's cell evaluator to
//! the simulators: for random *in-bounds* compute programs, one simulated
//! compute activation commits exactly the register file [`eval_cell`]
//! computes, which is the arithmetic bit-identity the batched wavefront
//! sweep in `gendp-core` is built on. Tier selection goes through
//! [`TierPolicy`]; what a raw array runs for each request is covered by
//! the resolution test at the bottom.

use gendp_dpax::{PeArray, PeArrayConfig, SimError, Tier, TierPolicy};
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
/// Most PEs in a random array.
const MAX_PES: usize = 4;

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

/// A move source that can be read (no `out`).
fn src_loc() -> impl Strategy<Value = Loc> {
    prop_oneof![
        data_loc(),
        data_loc(),
        Just(Loc::port(Space::In)),
        Just(Loc::port(Space::Fifo)),
    ]
}

/// A move destination that can be written (no `in`).
fn dest_loc() -> impl Strategy<Value = Loc> {
    prop_oneof![
        data_loc(),
        data_loc(),
        Just(Loc::port(Space::Out)),
        Just(Loc::port(Space::Fifo)),
    ]
}

fn ctrl_inst() -> impl Strategy<Value = ControlInst> {
    prop_oneof![
        (dest_loc(), -8..=100i32).prop_map(|(dest, imm)| ControlInst::Li { dest, imm }),
        (loc_or_port(), loc_or_port()).prop_map(|(dest, src)| ControlInst::Mv { dest, src }),
        (dest_loc(), src_loc()).prop_map(|(dest, src)| ControlInst::Mv { dest, src }),
        (dest_loc(), src_loc()).prop_map(|(dest, src)| ControlInst::Mv { dest, src }),
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

/// One random array: a control program per PE, the compute program every
/// PE shares, the FIFO mode and capacity, the input stream and the cycle
/// budget of the first run.
#[derive(Debug, Clone)]
struct ArrayCase {
    ctrl: Vec<ControlProgram>,
    compute: ComputeProgram,
    fifo_broadcast: bool,
    fifo_capacity: usize,
    input: Vec<i32>,
    budget: u64,
}

/// An address register inside the file.
fn areg_in() -> impl Strategy<Value = AddrReg> {
    (0..AREGS as u8).prop_map(AddrReg)
}

/// A data location that is mostly in bounds: direct addresses inside the
/// smallest space, indirect ones through small offsets (out of bounds only
/// once an address register has picked up a large value).
fn data_loc_in() -> impl Strategy<Value = Loc> {
    let space = prop_oneof![Just(Space::Rf), Just(Space::Spm), Just(Space::Areg)];
    (space, 0..AREGS as u16, areg_in(), 0..=1i16, 0..4u8).prop_map(
        |(space, addr, reg, offset, pick)| {
            if pick == 0 {
                Loc::indirect(space, reg.0, offset)
            } else {
                Loc::direct(space, addr)
            }
        },
    )
}

/// Straight-line filler for a network program: data moves, address
/// arithmetic, forward branches and compute launches at random pcs.
fn filler_inst() -> impl Strategy<Value = ControlInst> {
    prop_oneof![
        (data_loc_in(), 0..=3i32).prop_map(|(dest, imm)| ControlInst::Li { dest, imm }),
        (data_loc_in(), data_loc_in()).prop_map(|(dest, src)| ControlInst::Mv { dest, src }),
        (areg_in(), areg_in(), -1..=2i32).prop_map(|(rd, rs1, imm)| ControlInst::Addi {
            rd,
            rs1,
            imm
        }),
        (areg_in(), areg_in(), 1..=3i16).prop_map(|(rs1, rs2, offset)| ControlInst::Branch {
            cond: BranchCond::Lt,
            rs1,
            rs2,
            offset
        }),
        (0..=2u16).prop_map(ControlInst::set_compute),
        Just(ControlInst::Nop),
    ]
}

fn mv(dest: Loc, src: Loc) -> ControlInst {
    ControlInst::Mv { dest, src }
}

/// A move that crosses a PE boundary: a port read or write, a FIFO pop or
/// push, or a mix.
fn traffic_inst() -> impl Strategy<Value = ControlInst> {
    let (input, out, fifo) = (
        Loc::port(Space::In),
        Loc::port(Space::Out),
        Loc::port(Space::Fifo),
    );
    // Port traffic twice as likely as FIFO traffic: FIFO traffic closes a
    // ring that random orders deadlock more often.
    prop_oneof![
        data_loc_in().prop_map(move |dest| mv(dest, input)),
        data_loc_in().prop_map(move |dest| mv(dest, input)),
        Just(mv(out, input)),
        Just(mv(out, input)),
        data_loc_in().prop_map(move |src| mv(out, src)),
        data_loc_in().prop_map(move |src| mv(out, src)),
        (-8..=100i32).prop_map(move |imm| ControlInst::Li { dest: out, imm }),
        data_loc_in().prop_map(move |dest| mv(dest, fifo)),
        data_loc_in().prop_map(move |src| mv(fifo, src)),
        (-8..=100i32).prop_map(move |imm| ControlInst::Li { dest: fifo, imm }),
        Just(mv(out, fifo)),
        Just(mv(fifo, input)),
        Just(mv(fifo, fifo)),
    ]
}

/// Words an instruction moves across PE boundaries: `[in, out, pop, push]`.
fn traffic(inst: &ControlInst) -> [usize; 4] {
    let (dest, src) = match *inst {
        ControlInst::Mv { dest, src } => (dest.space(), Some(src.space())),
        ControlInst::Li { dest, .. } => (dest.space(), None),
        _ => return [0; 4],
    };
    [
        usize::from(src == Some(Space::In)),
        usize::from(dest == Space::Out),
        usize::from(src == Some(Space::Fifo)),
        usize::from(dest == Space::Fifo),
    ]
}

/// Random arrays: unconstrained programs, whose runs mostly fail, and
/// balanced networks over an in-bounds compute program, whose runs mostly
/// complete with words queueing on every port and the FIFO.
fn array_case() -> impl Strategy<Value = ArrayCase> {
    let raw = (
        (1..=MAX_PES).prop_flat_map(|n| proptest::collection::vec(control_program(), n)),
        compute_program(),
    );
    let network = || {
        (
            (1..=MAX_PES).prop_flat_map(|n| {
                proptest::collection::vec(
                    (
                        proptest::collection::vec((any::<u8>(), filler_inst()), 0..8),
                        proptest::collection::vec((any::<u8>(), traffic_inst()), 0..7),
                    ),
                    n,
                )
            }),
            proptest::collection::vec((valid_cu_inst(), valid_cu_inst()), 2..5),
        )
            .prop_map(|(parts, words)| {
                let mut compute = ComputeProgram::new();
                for (a, b) in words {
                    compute.push(VliwInst::pair(a, b));
                }
                compute.finish();
                (Some(parts), Vec::new(), compute)
            })
    };
    (
        prop_oneof![
            raw.prop_map(|(ctrl, compute)| (None, ctrl, compute)),
            network(),
            network(),
        ],
        any::<bool>(),
        1..=3usize,
        proptest::collection::vec(-4..=40i32, 0..8),
        4..=BUDGET,
    )
        .prop_map(
            |((parts, ctrl, compute), fifo_broadcast, fifo_capacity, mut input, budget)| {
                let ctrl = match parts {
                    Some(parts) => balanced_network(parts, fifo_broadcast, &mut input),
                    None => ctrl,
                };
                ArrayCase {
                    ctrl,
                    compute,
                    fifo_broadcast,
                    fifo_capacity,
                    input,
                    budget,
                }
            },
        )
}

/// Instructions keyed for a random interleaving.
type Keyed = Vec<(u8, ControlInst)>;

/// Builds one program per PE from its filler and its traffic, each keyed
/// for a random interleaving. Traffic a PE may not make turns into port
/// traffic (a FIFO pop off the popping PEs reads `in`, a FIFO push off the
/// last PE writes `out`); then every port, the input stream and the FIFO
/// are balanced by moves appended before the final `halt`, so that every
/// word written is taken.
fn balanced_network(
    parts: Vec<(Keyed, Keyed)>,
    broadcast: bool,
    input: &mut Vec<i32>,
) -> Vec<ControlProgram> {
    let n = parts.len();
    let port = Loc::port;
    let mut progs: Vec<Vec<ControlInst>> = Vec::new();
    let mut counts = vec![[0usize; 4]; n];
    for (k, (filler, mut moves)) in parts.into_iter().enumerate() {
        let may_pop = broadcast || k == 0;
        for (_, inst) in &mut moves {
            if let ControlInst::Mv { dest, src } = inst {
                if src.space() == Space::Fifo && !may_pop {
                    *src = port(Space::In);
                }
                if dest.space() == Space::Fifo && k + 1 < n {
                    *dest = port(Space::Out);
                }
            }
            if let ControlInst::Li { dest, .. } = inst {
                if dest.space() == Space::Fifo && k + 1 < n {
                    *dest = port(Space::Out);
                }
            }
            for (c, t) in counts[k].iter_mut().zip(traffic(inst)) {
                *c += t;
            }
        }
        let mut keyed: Vec<_> = filler.into_iter().chain(moves).collect();
        keyed.sort_by_key(|&(key, _)| key);
        progs.push(keyed.into_iter().map(|(_, inst)| inst).collect());
    }
    let take = mv(Loc::rf(0), port(Space::In));
    let give = ControlInst::Li {
        dest: port(Space::Out),
        imm: 1,
    };
    // The input stream feeds PE 0; port k + 1 carries PE k's writes.
    while input.len() < counts[0][0] {
        input.push(input.len() as i32);
    }
    for k in 0..n.saturating_sub(1) {
        let (written, taken) = (counts[k][1], counts[k + 1][0]);
        progs[k + 1].extend(std::iter::repeat_n(take, written.saturating_sub(taken)));
        progs[k].extend(std::iter::repeat_n(give, taken.saturating_sub(written)));
    }
    // Every popping PE pops each word the last PE pushes.
    let poppers = if broadcast { n } else { 1 };
    let pushes = counts[n - 1][3];
    let target = counts[..poppers]
        .iter()
        .map(|c| c[2])
        .fold(pushes, usize::max);
    let pop = mv(Loc::rf(1), port(Space::Fifo));
    let push = ControlInst::Li {
        dest: port(Space::Fifo),
        imm: 2,
    };
    progs[n - 1].extend(std::iter::repeat_n(push, target - pushes));
    for k in 0..poppers {
        progs[k].extend(std::iter::repeat_n(pop, target - counts[k][2]));
    }
    progs
        .into_iter()
        .map(|insts| {
            let mut prog = ControlProgram::new();
            for inst in insts {
                prog.push(inst);
            }
            prog.push(ControlInst::Halt);
            prog
        })
        .collect()
}

fn load_case(tiers: TierPolicy, case: &ArrayCase) -> PeArray {
    let mut cfg = PeArrayConfig::with_pes(case.ctrl.len())
        .no_verify()
        .tiers(tiers);
    cfg.rf_slots = RF_SLOTS;
    cfg.spm_words = SPM_WORDS;
    cfg.aregs = AREGS;
    cfg.fifo_capacity = case.fifo_capacity;
    cfg.fifo_broadcast = case.fifo_broadcast;
    let mut array = PeArray::new(cfg);
    for (k, ctrl) in case.ctrl.iter().enumerate() {
        array.load_pe_control(k, ctrl.clone());
    }
    array.load_compute_all(case.compute.clone());
    array.feed_input(case.input.iter().map(|&v| Word::from_i32(v)));
    array
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
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Decode → execute == interpret, for arbitrary arrays of programs:
    /// identical run outcome (stats on success, the same error otherwise),
    /// identical statistics left behind and identical output stream —
    /// again after a run cut off by its budget resumes without a reset.
    #[test]
    fn random_programs_decode_equivalent(case in array_case()) {
        let mut decoded = load_case(TierPolicy::decoded(), &case);
        let mut interpreted = load_case(TierPolicy::interpreted(), &case);
        let mut budget = case.budget;
        for _ in 0..2 {
            let outcome = decoded.run(budget);
            prop_assert_eq!(
                &outcome,
                &interpreted.run(budget),
                "run outcomes diverge for {:?}",
                &case
            );
            prop_assert_eq!(decoded.stats(), interpreted.stats(), "stats diverge for {:?}", &case);
            prop_assert_eq!(decoded.output(), interpreted.output(), "outputs diverge for {:?}", &case);
            if !matches!(outcome, Err(SimError::Timeout { .. })) {
                break;
            }
            budget += BUDGET;
        }
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
        let case = ArrayCase {
            ctrl: vec![activation_program(&vals)],
            compute: compute.clone(),
            fifo_broadcast: false,
            fifo_capacity: FIFO_CAP,
            input: Vec::new(),
            budget: BUDGET,
        };
        let mut decoded = load_case(TierPolicy::decoded(), &case);
        let mut interpreted = load_case(TierPolicy::interpreted(), &case);
        let outcome = decoded.run(BUDGET);
        prop_assert!(outcome.is_ok(), "staged activation failed: {:?}", outcome);
        prop_assert_eq!(outcome, interpreted.run(BUDGET));
        prop_assert_eq!(decoded.output(), interpreted.output());

        let program = DecodedComputeProgram::decode(&compute);
        let luts = Luts::default();
        let mut rf: Vec<Word> = vals.iter().map(|&v| Word::from_i32(v)).collect();
        eval_cell(&program, Mode::Int32, &luts, &mut rf);
        prop_assert_eq!(&rf[..], decoded.output(), "functional evaluator diverges for:\n{}", &compute);
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
