//! Certificate soundness: the static certificate `gendp-verify` attaches
//! to every prepared task must be an over-approximation the simulator
//! never escapes, on every shipped kernel and on proptest-generated
//! programs.
//!
//! For each kernel the suite checks, against an actual simulation:
//!
//! * **cycles** — `cycle_floor ≤ simulated`, with equality on
//!   straight-line programs that cannot stall;
//! * **cost** — `cost_cells ≥ stats.cells()`, with equality when the
//!   certificate claims the count is exact;
//! * **FIFO** — the observed high-water mark never exceeds the certified
//!   peak;
//! * **safety** — every kernel certifies `safe()` (the functional tier's
//!   gate), and the default decoded engine's output words are
//!   bit-identical to the interpreter's.

use gendp::core::{GendpPipeline, Wavefront2d};
use gendp::dpax::{PeArray, PeArrayConfig, Tier, TierPolicy};
use gendp::isa::{ControlProgram, Word};
use gendp::kernels::bellman_ford::random_roadmap;
use gendp::kernels::chain::ChainParams;
use gendp::kernels::pairhmm::PairHmmParams;
use gendp::kernels::poa::Poa;
use gendp::kernels::Scoring;
use gendp::seq::{DnaSeq, MutationProfile};
use gendp::{AccelConfig, Accelerator};
use gendp_core::{BandSpec, BellmanFordTask, ChainTask, PoaTask, WavefrontTask};
use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};

fn codes(s: &DnaSeq) -> Vec<i32> {
    s.codes().iter().map(|&c| c as i32).collect()
}

/// Prepares one task, reads its certificate, executes on the default
/// (decoded) tier, and checks every certified bound against the run.
/// Returns the output words for the cross-engine comparison.
fn assert_certificate_sound<A, F>(name: &str, build: F, task: &A::Task<'_>) -> Vec<Word>
where
    A: Accelerator,
    F: Fn() -> A,
{
    let mut prepared = build()
        .configure(AccelConfig::new().tiers(TierPolicy::default()))
        .prepare(task);
    let cert = prepared
        .certificate()
        .unwrap_or_else(|| panic!("{name}: no certificate"))
        .clone();
    assert!(cert.safe(), "{name}: kernel programs must certify safe");
    let stats = prepared.execute().unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(stats.tier, Tier::Decoded, "{name}: the default tier");

    assert!(
        cert.cycle_floor() <= stats.cycles,
        "{name}: certified floor {} exceeds simulated cycles {}",
        cert.cycle_floor(),
        stats.cycles
    );
    let cost = cert
        .cost_cells()
        .unwrap_or_else(|| panic!("{name}: kernel cost must be bounded"));
    if cert.cells_exact() {
        assert_eq!(
            cost,
            stats.cells(),
            "{name}: certificate promised an exact cell count"
        );
    } else {
        assert!(
            cost >= stats.cells(),
            "{name}: certified cost {cost} under-counts simulated cells {}",
            stats.cells()
        );
    }
    if let Some(peak) = cert.fifo_peak() {
        assert!(
            stats.fifo_high_water as u64 <= peak,
            "{name}: FIFO high water {} exceeds certified peak {peak}",
            stats.fifo_high_water
        );
    }

    let decoded = prepared.output().to_vec();

    // The interpreter is the semantic reference; the decoded engine must
    // be bit-identical to it.
    let mut reference = build()
        .configure(AccelConfig::new().tiers(TierPolicy::interpreted()))
        .prepare(task);
    let stats = reference
        .execute()
        .unwrap_or_else(|e| panic!("{name} (interpreted): {e}"));
    assert_eq!(
        stats.tier,
        Tier::Interpreted,
        "{name}: interpreted provenance"
    );
    assert_eq!(
        decoded,
        reference.output(),
        "{name}: decoded output diverges from the interpreter"
    );
    decoded
}

fn wavefront_case(name: &str, build: impl Fn() -> Wavefront2d, rows: &[i32], cols: &[i32]) {
    let task = WavefrontTask {
        rows,
        cols,
        n_pes: 4,
        band: None,
    };
    assert_certificate_sound(name, build, &task);
}

/// The six shipped kernels of the paper's evaluation: BSW, PairHMM,
/// DTW (banded), chaining, POA and Bellman-Ford, each certified and
/// simulated.
#[test]
fn certificates_are_sound_on_all_six_kernels() {
    let mut rng = SmallRng::seed_from_u64(97);
    let scoring = Scoring::bwa_mem();

    // 1. BSW (local alignment).
    let t = DnaSeq::random(24, &mut rng);
    let q = MutationProfile::illumina().apply(&t.window(2, 18), &mut rng);
    let (rows, cols) = (codes(&t), codes(&q));
    wavefront_case("bsw", || GendpPipeline::bsw(&scoring), &rows, &cols);

    // 2. PairHMM (fixed-point forward).
    wavefront_case(
        "pairhmm",
        || GendpPipeline::pairhmm(&PairHmmParams::gatk(), 30, 1024, rows.len()),
        &rows,
        &cols,
    );

    // 3. DTW, full and banded.
    let xs: Vec<i32> = (0..15).map(|_| rng.gen_range(0..200)).collect();
    let ys: Vec<i32> = (0..12).map(|_| rng.gen_range(0..200)).collect();
    wavefront_case("dtw", GendpPipeline::dtw, &xs, &ys);
    let banded = WavefrontTask {
        rows: &ys,
        cols: &xs,
        n_pes: 4,
        band: Some(BandSpec {
            width: 5,
            sentinel: 1 << 20,
        }),
    };
    assert_certificate_sound(
        "dtw_banded",
        || GendpPipeline::dtw_banded(xs.len()),
        &banded,
    );

    // 4. Chaining.
    let n_pes = 8;
    let params = ChainParams {
        n_prev: n_pes,
        ..ChainParams::minimap2(15.0)
    };
    let mut anchors: Vec<gendp::seq::Anchor> = {
        let mut pos = 0;
        (0..30)
            .map(|_| {
                pos += rng.gen_range(1..6);
                gendp::seq::Anchor {
                    qpos: pos,
                    rpos: pos + rng.gen_range(0..3),
                    span: 15,
                }
            })
            .collect()
    };
    anchors.sort();
    let chain_task = ChainTask {
        anchors: &anchors,
        n_pes,
    };
    assert_certificate_sound("chain", || GendpPipeline::chain(params), &chain_task);

    // 5. POA.
    let truth = DnaSeq::random(30, &mut rng);
    let mut poa = Poa::new();
    poa.add_sequence(&truth, &Scoring::racon());
    poa.add_sequence(
        &MutationProfile::nanopore().apply(&truth, &mut rng),
        &Scoring::racon(),
    );
    let probe = MutationProfile::nanopore().apply(&truth, &mut rng);
    let poa_task = PoaTask {
        graph: &poa,
        seq: &probe,
        n_pes: 4,
    };
    assert_certificate_sound("poa", || GendpPipeline::poa(Scoring::racon()), &poa_task);

    // 6. Bellman-Ford.
    let g = random_roadmap(20, 2, 5, &mut rng);
    let bf_task = BellmanFordTask {
        graph: &g,
        source: 0,
        rounds: g.vertex_count() - 1,
    };
    assert_certificate_sound("bellman_ford", GendpPipeline::bellman_ford, &bf_task);
}

/// Re-executing must keep the certificate stable, and every replay must
/// stay above its floor with the first run's statistics (reset() keeps
/// the verification result, so replays exercise the cached gate).
#[test]
fn certificate_survives_replay() {
    let mut rng = SmallRng::seed_from_u64(98);
    let t = DnaSeq::random(20, &mut rng);
    let q = DnaSeq::random(16, &mut rng);
    let (rows, cols) = (codes(&t), codes(&q));
    let task = WavefrontTask {
        rows: &rows,
        cols: &cols,
        n_pes: 4,
        band: None,
    };
    let accel = GendpPipeline::bsw(&Scoring::bwa_mem());
    let mut prepared = Accelerator::prepare(&accel, &task);
    let cert = prepared.certificate().expect("certificate").clone();
    let first = prepared.execute().expect("first run");
    for _ in 0..3 {
        let stats = prepared.execute().expect("replay");
        assert!(cert.cycle_floor() <= stats.cycles);
        assert_eq!(stats, first, "a replay repeats the first run's statistics");
        assert_eq!(
            prepared.certificate(),
            Some(&cert),
            "replay keeps the certificate"
        );
    }
}

/// Renders a straight-line control program: `li`/`addi` address
/// arithmetic and `mv` traffic between rf and spm, all in bounds, no
/// branches, no FIFO/port traffic — the stall-free fragment where the
/// certified floor is the *exact* cycle count.
fn straight_line_program(steps: &[(u8, u8, i16)]) -> ControlProgram {
    let mut text = String::from("li a[0] 0\nli a[1] 1\n");
    for &(kind, reg, imm) in steps {
        let reg = reg % 2; // a0 or a1, both initialized above
        let imm = (imm % 64).abs(); // spm offsets stay well inside 1024 words
        match kind % 3 {
            0 => text.push_str(&format!("addi a{reg} a{reg} {}\n", imm % 8)),
            1 => text.push_str(&format!("mv spm[{imm}] a[{reg}]\n")),
            _ => text.push_str(&format!("mv a[{reg}] spm[{imm}]\n")),
        }
    }
    text.push_str("halt");
    text.parse().expect("fixture parses")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary in-bounds straight-line programs: nothing can stall, so
    /// the PE retires one instruction per cycle and the simulator must
    /// land exactly on the certified floor, on both engines.
    #[test]
    fn straight_line_programs_certify_exact_cycles(
        steps in prop::collection::vec((0u8..3, 0u8..2, 0i16..64), 0..24),
    ) {
        let program = straight_line_program(&steps);
        for tiers in [TierPolicy::default(), TierPolicy::interpreted()] {
            let mut array = PeArray::new(PeArrayConfig::with_pes(1).tiers(tiers));
            array.load_pe_control(0, program.clone());
            let stats = array.run(100_000).expect("straight line runs");
            let cert = array.certificate().expect("verified run").clone();
            prop_assert!(cert.safe(), "straight-line program must certify");
            prop_assert_eq!(
                cert.cycle_floor(),
                stats.cycles,
                "stall-free straight-line programs run exactly their floor"
            );
            prop_assert_eq!(stats.tier, tiers);
        }
    }

    /// Programs with data-dependent loops still get a sound (if not
    /// exact) floor: floor ≤ simulated.
    #[test]
    fn bounded_loops_stay_inside_certified_bounds(
        trip in 1i32..12,
        body in prop::collection::vec((0u8..3, 0u8..2, 0i16..64), 0..6),
    ) {
        let mut text = format!("li a[0] 0\nli a[1] {trip}\n");
        for &(kind, reg, imm) in &body {
            let reg = reg % 2;
            let imm = (imm % 64).abs();
            // Only a2/a3 and spm traffic in the body: the loop counter
            // a0 advances solely through the addi below.
            match kind % 3 {
                0 => text.push_str(&format!("mv spm[{imm}] a[{reg}]\n")),
                1 => text.push_str(&format!("mv a[2] spm[{imm}]\n")),
                _ => text.push_str(&format!("mv a[3] spm[{imm}]\n")),
            }
        }
        // The branch offset is relative to the blt itself; the loop head
        // is the first body instruction (pc 2).
        text.push_str(&format!("addi a0 a0 1\nblt a0 a1 -{}\nhalt", body.len() + 1));
        let program: ControlProgram = text.parse().expect("fixture parses");

        let mut array = PeArray::new(PeArrayConfig::with_pes(1));
        array.load_pe_control(0, program);
        let stats = array.run(1_000_000).expect("loop runs");
        let cert = array.certificate().expect("verified run").clone();
        prop_assert!(
            cert.cycle_floor() <= stats.cycles,
            "certified floor {} > simulated {}", cert.cycle_floor(), stats.cycles
        );
    }
}
