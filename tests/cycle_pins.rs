//! Timing pins: the simulated statistics of every 2-D wavefront
//! constructor, banded DTW, chaining, POA and Bellman-Ford over a grid of
//! shapes and array widths, checked against tables recorded from the fully
//! unrolled control programs. Loop-rolled programs must reproduce those
//! programs' timing exactly: loop control retires inside the compute
//! shadow, where the unrolled programs stalled on the register-file
//! interlock, so every counter below, and each PE's busy cycles
//! (`ctrl_insts + ctrl_stalls`), stays the same. The certificates stay
//! exact on the rolled programs.

use gendp::core::{pack_halves, pack_lanes, GendpPipeline, PreparedTask, Wavefront2d};
use gendp::dpax::RunStats;
use gendp::kernels::bellman_ford::Graph;
use gendp::kernels::chain::ChainParams;
use gendp::kernels::pairhmm::PairHmmParams;
use gendp::kernels::poa::Poa;
use gendp::kernels::{GapModel, Scoring};
use gendp::seq::{Anchor, DnaSeq};

/// Every wavefront constructor of `GendpPipeline`, built for a table with
/// `n` columns.
fn wavefront_drivers(n: usize) -> Vec<(&'static str, Wavefront2d)> {
    let affine = Scoring::bwa_mem();
    let convex = Scoring {
        gap: GapModel::Convex {
            open1: 4,
            extend1: 2,
            open2: 13,
            extend2: 1,
        },
        ..affine
    };
    let hmm = PairHmmParams::gatk();
    vec![
        ("bsw", GendpPipeline::bsw(&affine)),
        ("bsw-global", GendpPipeline::bsw_global(&affine)),
        ("bsw-semiglobal", GendpPipeline::bsw_semiglobal(&affine, n)),
        ("bsw-convex", GendpPipeline::bsw_convex(&convex)),
        ("bsw-simd", GendpPipeline::bsw_simd(&affine)),
        ("bsw-simd16", GendpPipeline::bsw_simd16(&affine)),
        ("pairhmm", GendpPipeline::pairhmm(&hmm, 30, 256, n)),
        ("pairhmm-f32", GendpPipeline::pairhmm_float(&hmm, 30, n)),
        ("dtw", GendpPipeline::dtw()),
        ("lcs", GendpPipeline::lcs()),
    ]
}

/// Deterministic content of one row or column: base codes, SIMD-packed
/// codes or DTW samples. Statistics depend on the shape alone; the
/// content only has to be valid.
fn content(kind: &str, len: usize, salt: usize) -> Vec<i32> {
    let codes: Vec<u8> = (0..len).map(|i| ((i * 7 + salt) % 4) as u8).collect();
    match kind {
        "bsw-simd" => pack_lanes([&codes, &codes, &codes, &codes]),
        "bsw-simd16" => {
            let half: Vec<i16> = codes.iter().map(|&c| i16::from(c)).collect();
            pack_halves([&half, &half])
        }
        "dtw" | "dtw-banded" => (0..len).map(|i| ((i * 37 + salt) % 1000) as i32).collect(),
        _ => codes.into_iter().map(i32::from).collect(),
    }
}

/// Table shapes `(rows, columns)`: one row, one column, fewer rows than
/// PEs, a small square-ish table, and tables with a side of 64.
const SHAPES: [(usize, usize); 6] = [(1, 9), (7, 1), (2, 7), (7, 5), (13, 64), (64, 3)];

/// Array widths.
const PES: [usize; 3] = [1, 3, 4];

/// Banded DTW `(rows, band width)`.
const BANDS: [(usize, usize); 5] = [(1, 4), (6, 1), (2, 5), (9, 2), (11, 64)];

/// Chaining anchor counts.
const ANCHORS: [usize; 4] = [1, 2, 5, 70];

/// One recorded run: kernel, rows (anchors for chaining), columns (band
/// width for banded DTW, 0 for chaining), PEs; then cycles, cells,
/// VLIW issues, active CU slots, RF accesses, port moves, SPM accesses,
/// FIFO pushes, pops and high water; then each PE's busy cycles.
type Pin = (&'static str, usize, usize, usize, [u64; 10], &'static [u64]);

fn counters(stats: &RunStats) -> ([u64; 10], Vec<u64>) {
    let sum = |f: fn(&gendp::dpax::PeStats) -> u64| stats.per_pe.iter().map(f).sum::<u64>();
    (
        [
            stats.cycles,
            stats.cells(),
            sum(|p| p.vliw_issued),
            sum(|p| p.cu_slots_active),
            sum(|p| p.rf_accesses),
            sum(|p| p.port_moves),
            sum(|p| p.spm_accesses),
            stats.fifo_pushes,
            stats.fifo_pops,
            stats.fifo_high_water as u64,
        ],
        stats
            .per_pe
            .iter()
            .map(|p| p.ctrl_insts + p.ctrl_stalls)
            .collect(),
    )
}

/// Executes one prepared task and checks that its certificate stays as
/// precise on loop-rolled programs as on straight-line ones: safe, an
/// exact cell count, exact FIFO pushes, and a cycle floor equal to the
/// busiest PE's retired instructions.
fn run(label: &str, mut prepared: PreparedTask) -> RunStats {
    let stats = prepared.execute().expect("simulation");
    let cert = prepared.certificate().expect("certified");
    assert!(cert.safe(), "{label}: certifies safe");
    assert!(cert.cells_exact(), "{label}: exact cell count");
    assert_eq!(cert.cost_cells(), Some(stats.cells()), "{label}: cost");
    assert_eq!(cert.fifo_peak(), Some(stats.fifo_pushes), "{label}: pushes");
    let issued = stats.per_pe.iter().map(|p| p.ctrl_insts).max();
    assert_eq!(Some(cert.cycle_floor()), issued, "{label}: cycle floor");
    stats
}

/// Runs the whole grid, in table order.
fn measure() -> Vec<(String, usize, usize, usize, RunStats)> {
    let mut runs = Vec::new();
    for (m, n) in SHAPES {
        for (kind, accel) in wavefront_drivers(n) {
            let (rows, cols) = (content(kind, m, 1), content(kind, n, 2));
            for n_pes in PES {
                let label = format!("{kind} {m}x{n} on {n_pes} PEs");
                let stats = run(&label, accel.prepare(&rows, &cols, n_pes));
                runs.push((kind.to_string(), m, n, n_pes, stats));
            }
        }
    }
    for (m, width) in BANDS {
        let n = m + 2;
        let accel = GendpPipeline::dtw_banded(n);
        let (rows, cols) = (content("dtw-banded", m, 1), content("dtw-banded", n, 2));
        for n_pes in PES {
            let label = format!("dtw-banded {m}x{width} on {n_pes} PEs");
            let prepared = accel.prepare_banded(&rows, &cols, width, 1 << 20, n_pes);
            runs.push((
                "dtw-banded".to_string(),
                m,
                width,
                n_pes,
                run(&label, prepared),
            ));
        }
    }
    for count in ANCHORS {
        let anchors: Vec<Anchor> = (0..count as i32)
            .map(|i| Anchor {
                rpos: 100 + 23 * i,
                qpos: 50 + 19 * i,
                span: 15,
            })
            .collect();
        for n_pes in PES {
            let accel = GendpPipeline::chain(ChainParams {
                n_prev: n_pes,
                ..ChainParams::minimap2(15.0)
            });
            let label = format!("chain of {count} on {n_pes} PEs");
            let stats = run(&label, accel.prepare(&anchors, n_pes));
            runs.push(("chain".to_string(), count, 0, n_pes, stats));
        }
    }
    runs
}

/// Checks measured runs against a pin table, in table order.
fn check(runs: &[(String, usize, usize, usize, RunStats)], pins: &[Pin]) {
    assert_eq!(runs.len(), pins.len(), "grid and table disagree");
    for ((kind, m, n, n_pes, stats), pin) in runs.iter().zip(pins) {
        let label = format!("{kind} {m}x{n} on {n_pes} PEs");
        assert_eq!(
            (kind.as_str(), *m, *n, *n_pes),
            (pin.0, pin.1, pin.2, pin.3),
            "table order"
        );
        let (totals, busy) = counters(stats);
        assert_eq!(totals, pin.4, "{label}: counters");
        assert_eq!(busy, pin.5, "{label}: per-PE ctrl_insts + ctrl_stalls");
    }
}

#[test]
fn rolled_programs_keep_the_unrolled_timing() {
    check(&measure(), PINS);
}

/// POA graphs: single-read chains of 1 and 24 nodes, and a graph fused
/// from reads with substitutions, an insertion, a deletion and a changed
/// last base, whose branch points join three and four predecessors.
fn poa_graphs() -> Vec<(&'static str, Poa)> {
    let graph = |reads: &[&str]| {
        let mut poa = Poa::new();
        for read in reads {
            poa.add_sequence(&read.parse().expect("bases"), &Scoring::racon());
        }
        poa
    };
    let branched = graph(&[
        "ACGTTGCAAGTCCATGACGTAGCTAGGATC",
        "ACGTTGCAAGACCATGACGTAGCTAGGATC",
        "ACGTTGCAAGGCCATGACGTAGCTAGGATC",
        "ACGTTGCAAGCCCATGACGTTAGCTAGGATC",
        "ACGTTGCAAGTCCATGACGAGCTAGGATC",
        "ACGTTGCTAGTCCATGACGTAGCTAGGAT",
        "ACGTTGCAAGTCCATGACGTAGCTAGGATT",
    ]);
    let most_preds = (0..branched.node_count())
        .map(|v| branched.preds(v).len())
        .max();
    assert!(
        most_preds > Some(2),
        "a row folds more than two predecessors"
    );
    vec![
        ("poa-chain", graph(&["G"])),
        ("poa-chain", graph(&["ACGTTGCAAGTCCATGACGTAGCT"])),
        ("poa-branched", branched),
    ]
}

/// POA probe lengths.
const PROBES: [usize; 3] = [1, 2, 24];

/// Bellman-Ford graphs with 1, 2 and 24 edges.
fn bf_graphs() -> Vec<Graph> {
    let mut one = Graph::new(2);
    one.add_edge(0, 1, 3);
    let mut two = Graph::new(3);
    two.add_edge(0, 1, 4);
    two.add_edge(1, 2, -2);
    let mut many = Graph::new(12);
    for v in 0..12 {
        many.add_edge(v, (v + 1) % 12, 1 + (v % 5) as i64);
        many.add_edge(v, (v * 5 + 3) % 12, 2 + (v % 7) as i64);
    }
    vec![one, two, many]
}

/// Bellman-Ford relaxation rounds.
const ROUNDS: [usize; 3] = [1, 2, 5];

/// Runs the POA and Bellman-Ford grids, in table order: POA pins are
/// (graph, nodes, probe length, PEs), Bellman-Ford pins (edges, rounds, 1).
fn measure_graphs() -> Vec<(String, usize, usize, usize, RunStats)> {
    let mut runs = Vec::new();
    let poa = GendpPipeline::poa(Scoring::racon());
    for (kind, graph) in poa_graphs() {
        for len in PROBES {
            let probe: DnaSeq = (0..len)
                .map(|i| ['A', 'C', 'G', 'T'][(i * 7 + 1) % 4])
                .collect::<String>()
                .parse()
                .expect("bases");
            let nodes = graph.node_count();
            for n_pes in PES {
                let label = format!("{kind} {nodes}x{len} on {n_pes} PEs");
                let stats = run(&label, poa.prepare(&graph, &probe, n_pes));
                runs.push((kind.to_string(), nodes, len, n_pes, stats));
            }
        }
    }
    let bf = GendpPipeline::bellman_ford();
    for graph in bf_graphs() {
        for rounds in ROUNDS {
            let edges = graph.edge_count();
            let label = format!("bellman-ford {edges} edges x {rounds} rounds");
            let stats = run(&label, bf.prepare(&graph, 0, rounds));
            runs.push(("bellman-ford".to_string(), edges, rounds, 1, stats));
        }
    }
    runs
}

#[test]
fn rolled_graph_programs_keep_the_unrolled_timing() {
    check(&measure_graphs(), GRAPH_PINS);
}

#[test]
fn a_large_bsw_program_fits_the_instruction_buffer() {
    let (rows, cols) = (content("bsw", 100, 1), content("bsw", 96, 2));
    let prepared = GendpPipeline::bsw(&Scoring::bwa_mem()).prepare(&rows, &cols, 4);
    for (pe, program) in prepared.control_programs().enumerate() {
        assert!(
            program.len() <= 1_000,
            "PE {pe} loads {} control instructions",
            program.len()
        );
    }
}

#[test]
fn a_serve_sized_poa_program_fits_the_instruction_buffer() {
    // 24 nodes by 24 bases on 4 PEs: 6,317 control instructions
    // straight-line.
    let (_, graph) = &poa_graphs()[1];
    let probe: DnaSeq = "TTGACCGATAGGCTAACGTCAGTA".parse().expect("bases");
    let prepared = GendpPipeline::poa(Scoring::racon()).prepare(graph, &probe, 4);
    assert!(
        prepared.control_len() <= 1_000,
        "loads {} control instructions",
        prepared.control_len()
    );
}

#[test]
fn a_bellman_ford_program_does_not_grow_with_rounds() {
    let graph = &bf_graphs()[2];
    let bf = GendpPipeline::bellman_ford();
    let len = |rounds| bf.prepare(graph, 0, rounds).control_len();
    assert_eq!(len(2), len(60));
}

/// Recorded from the fully unrolled control programs.
#[rustfmt::skip]
const PINS: &[Pin] = &[
    ("bsw", 1, 9, 1, [143, 9, 63, 81, 234, 10, 1, 0, 0, 0], &[143]),
    ("bsw", 1, 9, 3, [143, 9, 63, 81, 234, 14, 1, 0, 0, 0], &[143, 143, 143]),
    ("bsw", 1, 9, 4, [143, 9, 63, 81, 234, 16, 1, 0, 0, 0], &[143, 143, 143, 143]),
    ("bsw-global", 1, 9, 1, [114, 9, 45, 63, 180, 18, 1, 0, 0, 0], &[114]),
    ("bsw-global", 1, 9, 3, [114, 9, 45, 63, 180, 54, 1, 0, 0, 0], &[114, 112, 112]),
    ("bsw-global", 1, 9, 4, [114, 9, 45, 63, 180, 72, 1, 0, 0, 0], &[114, 112, 112, 112]),
    ("bsw-semiglobal", 1, 9, 1, [152, 9, 63, 81, 243, 19, 1, 0, 0, 0], &[152]),
    ("bsw-semiglobal", 1, 9, 3, [152, 9, 63, 81, 243, 59, 1, 0, 0, 0], &[152, 152, 152]),
    ("bsw-semiglobal", 1, 9, 4, [152, 9, 63, 81, 243, 79, 1, 0, 0, 0], &[152, 152, 152, 152]),
    ("bsw-convex", 1, 9, 1, [181, 9, 81, 126, 360, 10, 1, 0, 0, 0], &[181]),
    ("bsw-convex", 1, 9, 3, [181, 9, 81, 126, 360, 14, 1, 0, 0, 0], &[181, 181, 181]),
    ("bsw-convex", 1, 9, 4, [181, 9, 81, 126, 360, 16, 1, 0, 0, 0], &[181, 181, 181, 181]),
    ("bsw-simd", 1, 9, 1, [125, 9, 54, 72, 207, 10, 1, 0, 0, 0], &[125]),
    ("bsw-simd", 1, 9, 3, [125, 9, 54, 72, 207, 14, 1, 0, 0, 0], &[125, 125, 125]),
    ("bsw-simd", 1, 9, 4, [125, 9, 54, 72, 207, 16, 1, 0, 0, 0], &[125, 125, 125, 125]),
    ("bsw-simd16", 1, 9, 1, [125, 9, 54, 72, 207, 10, 1, 0, 0, 0], &[125]),
    ("bsw-simd16", 1, 9, 3, [125, 9, 54, 72, 207, 14, 1, 0, 0, 0], &[125, 125, 125]),
    ("bsw-simd16", 1, 9, 4, [125, 9, 54, 72, 207, 16, 1, 0, 0, 0], &[125, 125, 125, 125]),
    ("pairhmm", 1, 9, 1, [214, 9, 108, 180, 522, 27, 1, 0, 0, 0], &[214]),
    ("pairhmm", 1, 9, 3, [214, 9, 108, 180, 522, 99, 1, 0, 0, 0], &[214, 212, 212]),
    ("pairhmm", 1, 9, 4, [214, 9, 108, 180, 522, 135, 1, 0, 0, 0], &[214, 212, 212, 212]),
    ("pairhmm-f32", 1, 9, 1, [169, 9, 63, 108, 270, 27, 1, 0, 0, 0], &[169]),
    ("pairhmm-f32", 1, 9, 3, [169, 9, 63, 108, 270, 99, 1, 0, 0, 0], &[169, 167, 167]),
    ("pairhmm-f32", 1, 9, 4, [169, 9, 63, 108, 270, 135, 1, 0, 0, 0], &[169, 167, 167, 167]),
    ("dtw", 1, 9, 1, [76, 9, 27, 36, 117, 18, 1, 0, 0, 0], &[76]),
    ("dtw", 1, 9, 3, [76, 9, 27, 36, 117, 54, 1, 0, 0, 0], &[76, 75, 75]),
    ("dtw", 1, 9, 4, [76, 9, 27, 36, 117, 72, 1, 0, 0, 0], &[76, 75, 75, 75]),
    ("lcs", 1, 9, 1, [67, 9, 18, 27, 90, 18, 1, 0, 0, 0], &[67]),
    ("lcs", 1, 9, 3, [67, 9, 18, 27, 90, 54, 1, 0, 0, 0], &[67, 66, 66]),
    ("lcs", 1, 9, 4, [67, 9, 18, 27, 90, 72, 1, 0, 0, 0], &[67, 66, 66, 66]),
    ("bsw", 7, 1, 1, [161, 7, 49, 63, 182, 2, 7, 18, 18, 3], &[161]),
    ("bsw", 7, 1, 3, [99, 7, 49, 63, 182, 34, 7, 6, 6, 2], &[97, 98, 99]),
    ("bsw", 7, 1, 4, [99, 7, 49, 63, 182, 47, 7, 3, 3, 2], &[76, 97, 98, 99]),
    ("bsw-global", 7, 1, 1, [132, 7, 35, 49, 140, 2, 7, 18, 18, 3], &[132]),
    ("bsw-global", 7, 1, 3, [74, 7, 35, 49, 140, 30, 7, 6, 6, 2], &[74, 72, 72]),
    ("bsw-global", 7, 1, 4, [73, 7, 35, 49, 140, 34, 7, 3, 3, 2], &[58, 67, 73, 71]),
    ("bsw-semiglobal", 7, 1, 1, [162, 7, 49, 63, 189, 3, 7, 18, 18, 3], &[162]),
    ("bsw-semiglobal", 7, 1, 3, [100, 7, 49, 63, 189, 39, 7, 6, 6, 2], &[98, 99, 100]),
    ("bsw-semiglobal", 7, 1, 4, [100, 7, 49, 63, 189, 50, 7, 3, 3, 2], &[76, 98, 99, 100]),
    ("bsw-convex", 7, 1, 1, [209, 7, 63, 98, 280, 2, 7, 24, 24, 4], &[209]),
    ("bsw-convex", 7, 1, 3, [123, 7, 63, 98, 280, 42, 7, 8, 8, 2], &[121, 122, 123]),
    ("bsw-convex", 7, 1, 4, [123, 7, 63, 98, 280, 57, 7, 4, 4, 2], &[95, 121, 122, 123]),
    ("bsw-simd", 7, 1, 1, [147, 7, 42, 56, 161, 2, 7, 18, 18, 3], &[147]),
    ("bsw-simd", 7, 1, 3, [85, 7, 42, 56, 161, 34, 7, 6, 6, 2], &[83, 84, 85]),
    ("bsw-simd", 7, 1, 4, [85, 7, 42, 56, 161, 47, 7, 3, 3, 2], &[66, 83, 84, 85]),
    ("bsw-simd16", 7, 1, 1, [147, 7, 42, 56, 161, 2, 7, 18, 18, 3], &[147]),
    ("bsw-simd16", 7, 1, 3, [85, 7, 42, 56, 161, 34, 7, 6, 6, 2], &[83, 84, 85]),
    ("bsw-simd16", 7, 1, 4, [85, 7, 42, 56, 161, 47, 7, 3, 3, 2], &[66, 83, 84, 85]),
    ("pairhmm", 7, 1, 1, [216, 7, 84, 140, 406, 3, 7, 24, 24, 4], &[216]),
    ("pairhmm", 7, 1, 3, [146, 7, 84, 140, 406, 43, 7, 8, 8, 3], &[146, 144, 144]),
    ("pairhmm", 7, 1, 4, [145, 7, 84, 140, 406, 47, 7, 4, 4, 3], &[112, 131, 145, 143]),
    ("pairhmm-f32", 7, 1, 1, [181, 7, 49, 84, 210, 3, 7, 24, 24, 4], &[181]),
    ("pairhmm-f32", 7, 1, 3, [111, 7, 49, 84, 210, 43, 7, 8, 8, 3], &[111, 109, 109]),
    ("pairhmm-f32", 7, 1, 4, [110, 7, 49, 84, 210, 47, 7, 4, 4, 3], &[87, 101, 110, 108]),
    ("dtw", 7, 1, 1, [84, 7, 21, 28, 91, 2, 7, 12, 12, 2], &[84]),
    ("dtw", 7, 1, 3, [50, 7, 21, 28, 91, 22, 7, 4, 4, 1], &[50, 49, 49]),
    ("dtw", 7, 1, 4, [49, 7, 21, 28, 91, 24, 7, 2, 2, 1], &[38, 44, 49, 48]),
    ("lcs", 7, 1, 1, [77, 7, 14, 21, 70, 2, 7, 12, 12, 2], &[77]),
    ("lcs", 7, 1, 3, [43, 7, 14, 21, 70, 22, 7, 4, 4, 1], &[43, 42, 42]),
    ("lcs", 7, 1, 4, [42, 7, 14, 21, 70, 24, 7, 2, 2, 1], &[33, 38, 42, 41]),
    ("bsw", 2, 7, 1, [244, 14, 98, 126, 364, 8, 2, 21, 21, 21], &[244]),
    ("bsw", 2, 7, 3, [150, 14, 98, 126, 364, 57, 2, 0, 0, 0], &[141, 150, 150]),
    ("bsw", 2, 7, 4, [150, 14, 98, 126, 364, 61, 2, 0, 0, 0], &[141, 150, 150, 150]),
    ("bsw-global", 2, 7, 1, [193, 14, 70, 98, 280, 14, 2, 21, 21, 21], &[193]),
    ("bsw-global", 2, 7, 3, [117, 14, 70, 98, 280, 70, 2, 0, 0, 0], &[111, 117, 115]),
    ("bsw-global", 2, 7, 4, [117, 14, 70, 98, 280, 84, 2, 0, 0, 0], &[111, 117, 115, 115]),
    ("bsw-semiglobal", 2, 7, 1, [251, 14, 98, 126, 378, 15, 2, 21, 21, 21], &[251]),
    ("bsw-semiglobal", 2, 7, 3, [151, 14, 98, 126, 378, 78, 2, 0, 0, 0], &[141, 151, 151]),
    ("bsw-semiglobal", 2, 7, 4, [151, 14, 98, 126, 378, 96, 2, 0, 0, 0], &[141, 151, 151, 151]),
    ("bsw-convex", 2, 7, 1, [311, 14, 126, 196, 560, 8, 2, 28, 28, 28], &[311]),
    ("bsw-convex", 2, 7, 3, [189, 14, 126, 196, 560, 71, 2, 0, 0, 0], &[178, 189, 189]),
    ("bsw-convex", 2, 7, 4, [189, 14, 126, 196, 560, 75, 2, 0, 0, 0], &[178, 189, 189, 189]),
    ("bsw-simd", 2, 7, 1, [216, 14, 84, 112, 322, 8, 2, 21, 21, 21], &[216]),
    ("bsw-simd", 2, 7, 3, [134, 14, 84, 112, 322, 57, 2, 0, 0, 0], &[127, 134, 134]),
    ("bsw-simd", 2, 7, 4, [134, 14, 84, 112, 322, 61, 2, 0, 0, 0], &[127, 134, 134, 134]),
    ("bsw-simd16", 2, 7, 1, [216, 14, 84, 112, 322, 8, 2, 21, 21, 21], &[216]),
    ("bsw-simd16", 2, 7, 3, [134, 14, 84, 112, 322, 57, 2, 0, 0, 0], &[127, 134, 134]),
    ("bsw-simd16", 2, 7, 4, [134, 14, 84, 112, 322, 61, 2, 0, 0, 0], &[127, 134, 134, 134]),
    ("pairhmm", 2, 7, 1, [349, 14, 168, 280, 812, 21, 2, 28, 28, 28], &[349]),
    ("pairhmm", 2, 7, 3, [217, 14, 168, 280, 812, 105, 2, 0, 0, 0], &[203, 217, 215]),
    ("pairhmm", 2, 7, 4, [217, 14, 168, 280, 812, 133, 2, 0, 0, 0], &[203, 217, 215, 215]),
    ("pairhmm-f32", 2, 7, 1, [279, 14, 98, 168, 420, 21, 2, 28, 28, 28], &[279]),
    ("pairhmm-f32", 2, 7, 3, [177, 14, 98, 168, 420, 105, 2, 0, 0, 0], &[168, 177, 175]),
    ("pairhmm-f32", 2, 7, 4, [177, 14, 98, 168, 420, 133, 2, 0, 0, 0], &[168, 177, 175, 175]),
    ("dtw", 2, 7, 1, [126, 14, 42, 56, 182, 14, 2, 14, 14, 14], &[126]),
    ("dtw", 2, 7, 3, [72, 14, 42, 56, 182, 56, 2, 0, 0, 0], &[67, 72, 71]),
    ("dtw", 2, 7, 4, [72, 14, 42, 56, 182, 70, 2, 0, 0, 0], &[67, 72, 71, 71]),
    ("lcs", 2, 7, 1, [112, 14, 28, 42, 140, 14, 2, 14, 14, 14], &[112]),
    ("lcs", 2, 7, 3, [64, 14, 28, 42, 140, 56, 2, 0, 0, 0], &[60, 64, 63]),
    ("lcs", 2, 7, 4, [64, 14, 28, 42, 140, 70, 2, 0, 0, 0], &[60, 64, 63, 63]),
    ("bsw", 7, 5, 1, [653, 35, 245, 315, 910, 6, 7, 90, 90, 15], &[653]),
    ("bsw", 7, 5, 3, [285, 35, 245, 315, 910, 134, 7, 30, 30, 12], &[283, 284, 285]),
    ("bsw", 7, 5, 4, [226, 35, 245, 315, 910, 171, 7, 15, 15, 9], &[203, 224, 225, 226]),
    ("bsw-global", 7, 5, 1, [516, 35, 175, 245, 700, 10, 7, 90, 90, 15], &[516]),
    ("bsw-global", 7, 5, 3, [226, 35, 175, 245, 700, 150, 7, 30, 30, 12], &[226, 224, 224]),
    ("bsw-global", 7, 5, 4, [176, 35, 175, 245, 700, 170, 7, 15, 15, 9], &[161, 170, 176, 174]),
    ("bsw-semiglobal", 7, 5, 1, [658, 35, 245, 315, 945, 11, 7, 90, 90, 15], &[658]),
    ("bsw-semiglobal", 7, 5, 3, [290, 35, 245, 315, 945, 159, 7, 30, 30, 12], &[288, 289, 290]),
    ("bsw-semiglobal", 7, 5, 4, [227, 35, 245, 315, 945, 186, 7, 15, 15, 9], &[203, 225, 226, 227]),
    ("bsw-convex", 7, 5, 1, [837, 35, 315, 490, 1400, 6, 7, 120, 120, 20], &[837]),
    ("bsw-convex", 7, 5, 3, [361, 35, 315, 490, 1400, 174, 7, 40, 40, 16], &[359, 360, 361]),
    ("bsw-convex", 7, 5, 4, [285, 35, 315, 490, 1400, 221, 7, 20, 20, 12], &[257, 283, 284, 285]),
    ("bsw-simd", 7, 5, 1, [583, 35, 210, 280, 805, 6, 7, 90, 90, 15], &[583]),
    ("bsw-simd", 7, 5, 3, [255, 35, 210, 280, 805, 134, 7, 30, 30, 12], &[253, 254, 255]),
    ("bsw-simd", 7, 5, 4, [202, 35, 210, 280, 805, 171, 7, 15, 15, 9], &[183, 200, 201, 202]),
    ("bsw-simd16", 7, 5, 1, [583, 35, 210, 280, 805, 6, 7, 90, 90, 15], &[583]),
    ("bsw-simd16", 7, 5, 3, [255, 35, 210, 280, 805, 134, 7, 30, 30, 12], &[253, 254, 255]),
    ("bsw-simd16", 7, 5, 4, [202, 35, 210, 280, 805, 171, 7, 15, 15, 9], &[183, 200, 201, 202]),
    ("pairhmm", 7, 5, 1, [908, 35, 420, 700, 2030, 15, 7, 120, 120, 20], &[908]),
    ("pairhmm", 7, 5, 3, [414, 35, 420, 700, 2030, 215, 7, 40, 40, 16], &[414, 412, 412]),
    ("pairhmm", 7, 5, 4, [326, 35, 420, 700, 2030, 235, 7, 20, 20, 12], &[293, 312, 326, 324]),
    ("pairhmm-f32", 7, 5, 1, [733, 35, 245, 420, 1050, 15, 7, 120, 120, 20], &[733]),
    ("pairhmm-f32", 7, 5, 3, [339, 35, 245, 420, 1050, 215, 7, 40, 40, 16], &[339, 337, 337]),
    ("pairhmm-f32", 7, 5, 4, [266, 35, 245, 420, 1050, 235, 7, 20, 20, 12], &[243, 257, 266, 264]),
    ("dtw", 7, 5, 1, [332, 35, 105, 140, 455, 10, 7, 60, 60, 10], &[332]),
    ("dtw", 7, 5, 3, [140, 35, 105, 140, 455, 110, 7, 20, 20, 8], &[140, 139, 139]),
    ("dtw", 7, 5, 4, [108, 35, 105, 140, 455, 120, 7, 10, 10, 6], &[97, 103, 108, 107]),
    ("lcs", 7, 5, 1, [297, 35, 70, 105, 350, 10, 7, 60, 60, 10], &[297]),
    ("lcs", 7, 5, 3, [125, 35, 70, 105, 350, 110, 7, 20, 20, 8], &[125, 124, 124]),
    ("lcs", 7, 5, 4, [96, 35, 70, 105, 350, 120, 7, 10, 10, 6], &[87, 92, 96, 95]),
    ("bsw", 13, 64, 1, [14852, 832, 5824, 7488, 21632, 65, 13, 2304, 2304, 192], &[14852]),
    ("bsw", 13, 64, 3, [5854, 832, 5824, 7488, 21632, 3145, 13, 768, 768, 189], &[5852, 5853, 5854]),
    ("bsw", 13, 64, 4, [4634, 832, 5824, 7488, 21632, 3536, 13, 576, 576, 186], &[4631, 4632, 4633, 4634]),
    ("bsw-global", 13, 64, 1, [11586, 832, 4160, 5824, 16640, 128, 13, 2304, 2304, 192], &[11586]),
    ("bsw-global", 13, 64, 3, [4634, 832, 4160, 5824, 16640, 3456, 13, 768, 768, 189], &[4634, 4632, 4632]),
    ("bsw-global", 13, 64, 4, [3669, 832, 4160, 5824, 16640, 3968, 13, 576, 576, 186], &[3669, 3667, 3667, 3667]),
    ("bsw-semiglobal", 13, 64, 1, [14916, 832, 5824, 7488, 22464, 129, 13, 2304, 2304, 192], &[14916]),
    ("bsw-semiglobal", 13, 64, 3, [5918, 832, 5824, 7488, 22464, 3465, 13, 768, 768, 189], &[5916, 5917, 5918]),
    ("bsw-semiglobal", 13, 64, 4, [4698, 832, 5824, 7488, 22464, 3984, 13, 576, 576, 186], &[4695, 4696, 4697, 4698]),
    ("bsw-convex", 13, 64, 1, [18974, 832, 7488, 11648, 33280, 65, 13, 3072, 3072, 256], &[18974]),
    ("bsw-convex", 13, 64, 3, [7400, 832, 7488, 11648, 33280, 4169, 13, 1024, 1024, 252], &[7398, 7399, 7400]),
    ("bsw-convex", 13, 64, 4, [5858, 832, 7488, 11648, 33280, 4688, 13, 768, 768, 248], &[5855, 5856, 5857, 5858]),
    ("bsw-simd", 13, 64, 1, [13188, 832, 4992, 6656, 19136, 65, 13, 2304, 2304, 192], &[13188]),
    ("bsw-simd", 13, 64, 3, [5214, 832, 4992, 6656, 19136, 3145, 13, 768, 768, 189], &[5212, 5213, 5214]),
    ("bsw-simd", 13, 64, 4, [4122, 832, 4992, 6656, 19136, 3536, 13, 576, 576, 186], &[4119, 4120, 4121, 4122]),
    ("bsw-simd16", 13, 64, 1, [13188, 832, 4992, 6656, 19136, 65, 13, 2304, 2304, 192], &[13188]),
    ("bsw-simd16", 13, 64, 3, [5214, 832, 4992, 6656, 19136, 3145, 13, 768, 768, 189], &[5212, 5213, 5214]),
    ("bsw-simd16", 13, 64, 4, [4122, 832, 4992, 6656, 19136, 3536, 13, 576, 576, 186], &[4119, 4120, 4121, 4122]),
    ("pairhmm", 13, 64, 1, [20751, 832, 9984, 16640, 48256, 192, 13, 3072, 3072, 256], &[20751]),
    ("pairhmm", 13, 64, 3, [8671, 832, 9984, 16640, 48256, 4800, 13, 1024, 1024, 252], &[8671, 8669, 8669]),
    ("pairhmm", 13, 64, 4, [6881, 832, 9984, 16640, 48256, 5568, 13, 768, 768, 248], &[6881, 6879, 6879, 6879]),
    ("pairhmm-f32", 13, 64, 1, [16591, 832, 5824, 9984, 24960, 192, 13, 3072, 3072, 256], &[16591]),
    ("pairhmm-f32", 13, 64, 3, [7071, 832, 5824, 9984, 24960, 4800, 13, 1024, 1024, 252], &[7071, 7069, 7069]),
    ("pairhmm-f32", 13, 64, 4, [5596, 832, 5824, 9984, 24960, 5568, 13, 768, 768, 248], &[5596, 5594, 5594, 5594]),
    ("dtw", 13, 64, 1, [7464, 832, 2496, 3328, 10816, 128, 13, 1536, 1536, 128], &[7464]),
    ("dtw", 13, 64, 3, [2832, 832, 2496, 3328, 10816, 2432, 13, 512, 512, 126], &[2832, 2831, 2831]),
    ("dtw", 13, 64, 4, [2253, 832, 2496, 3328, 10816, 2816, 13, 384, 384, 124], &[2253, 2252, 2252, 2252]),
    ("lcs", 13, 64, 1, [6632, 832, 1664, 2496, 8320, 128, 13, 1536, 1536, 128], &[6632]),
    ("lcs", 13, 64, 3, [2512, 832, 1664, 2496, 8320, 2432, 13, 512, 512, 126], &[2512, 2511, 2511]),
    ("lcs", 13, 64, 4, [1997, 832, 1664, 2496, 8320, 2816, 13, 384, 384, 124], &[1997, 1996, 1996, 1996]),
    ("bsw", 64, 3, 1, [3770, 192, 1344, 1728, 4992, 4, 64, 567, 567, 9], &[3770]),
    ("bsw", 64, 3, 3, [1357, 192, 1344, 1728, 4992, 768, 64, 189, 189, 6], &[1355, 1356, 1357]),
    ("bsw", 64, 3, 4, [1030, 192, 1344, 1728, 4992, 883, 64, 135, 135, 3], &[995, 1020, 1029, 1030]),
    ("bsw-global", 64, 3, 1, [3003, 192, 960, 1344, 3840, 6, 64, 567, 567, 9], &[3003]),
    ("bsw-global", 64, 3, 3, [1092, 192, 960, 1344, 3840, 774, 64, 189, 189, 6], &[1092, 1090, 1090]),
    ("bsw-global", 64, 3, 4, [825, 192, 960, 1344, 3840, 870, 64, 135, 135, 3], &[801, 810, 819, 825]),
    ("bsw-semiglobal", 64, 3, 1, [3773, 192, 1344, 1728, 5184, 7, 64, 567, 567, 9], &[3773]),
    ("bsw-semiglobal", 64, 3, 3, [1360, 192, 1344, 1728, 5184, 783, 64, 189, 189, 6], &[1358, 1359, 1360]),
    ("bsw-semiglobal", 64, 3, 4, [1031, 192, 1344, 1728, 5184, 886, 64, 135, 135, 3], &[995, 1020, 1030, 1031]),
    ("bsw-convex", 64, 3, 1, [4855, 192, 1728, 2688, 7680, 4, 64, 756, 756, 12], &[4855]),
    ("bsw-convex", 64, 3, 3, [1728, 192, 1728, 2688, 7680, 1020, 64, 252, 252, 8], &[1726, 1727, 1728]),
    ("bsw-convex", 64, 3, 4, [1310, 192, 1728, 2688, 7680, 1171, 64, 180, 180, 4], &[1267, 1298, 1309, 1310]),
    ("bsw-simd", 64, 3, 1, [3386, 192, 1152, 1536, 4416, 4, 64, 567, 567, 9], &[3386]),
    ("bsw-simd", 64, 3, 3, [1225, 192, 1152, 1536, 4416, 768, 64, 189, 189, 6], &[1223, 1224, 1225]),
    ("bsw-simd", 64, 3, 4, [928, 192, 1152, 1536, 4416, 883, 64, 135, 135, 3], &[899, 920, 927, 928]),
    ("bsw-simd16", 64, 3, 1, [3386, 192, 1152, 1536, 4416, 4, 64, 567, 567, 9], &[3386]),
    ("bsw-simd16", 64, 3, 3, [1225, 192, 1152, 1536, 4416, 768, 64, 189, 189, 6], &[1223, 1224, 1225]),
    ("bsw-simd16", 64, 3, 4, [928, 192, 1152, 1536, 4416, 883, 64, 135, 135, 3], &[899, 920, 927, 928]),
    ("pairhmm", 64, 3, 1, [5179, 192, 2304, 3840, 11136, 9, 64, 756, 756, 12], &[5179]),
    ("pairhmm", 64, 3, 3, [1966, 192, 2304, 3840, 11136, 1041, 64, 252, 252, 8], &[1966, 1964, 1964]),
    ("pairhmm", 64, 3, 4, [1493, 192, 2304, 3840, 11136, 1161, 64, 180, 180, 4], &[1441, 1460, 1479, 1493]),
    ("pairhmm-f32", 64, 3, 1, [4219, 192, 1344, 2304, 5760, 9, 64, 756, 756, 12], &[4219]),
    ("pairhmm-f32", 64, 3, 3, [1636, 192, 1344, 2304, 5760, 1041, 64, 252, 252, 8], &[1636, 1634, 1634]),
    ("pairhmm-f32", 64, 3, 4, [1238, 192, 1344, 2304, 5760, 1161, 64, 180, 180, 4], &[1201, 1215, 1229, 1238]),
    ("dtw", 64, 3, 1, [1918, 192, 576, 768, 2496, 6, 64, 378, 378, 6], &[1918]),
    ("dtw", 64, 3, 3, [658, 192, 576, 768, 2496, 522, 64, 126, 126, 4], &[658, 657, 657]),
    ("dtw", 64, 3, 4, [498, 192, 576, 768, 2496, 582, 64, 90, 90, 2], &[481, 487, 493, 498]),
    ("lcs", 64, 3, 1, [1726, 192, 384, 576, 1920, 6, 64, 378, 378, 6], &[1726]),
    ("lcs", 64, 3, 3, [592, 192, 384, 576, 1920, 522, 64, 126, 126, 4], &[592, 591, 591]),
    ("lcs", 64, 3, 4, [447, 192, 384, 576, 1920, 582, 64, 90, 90, 2], &[433, 438, 443, 447]),
    ("dtw-banded", 1, 4, 1, [46, 4, 16, 20, 68, 1, 5, 0, 0, 0], &[46]),
    ("dtw-banded", 1, 4, 3, [46, 4, 16, 20, 68, 5, 5, 0, 0, 0], &[46, 46, 46]),
    ("dtw-banded", 1, 4, 4, [46, 4, 16, 20, 68, 7, 5, 0, 0, 0], &[46, 46, 46, 46]),
    ("dtw-banded", 6, 1, 1, [86, 6, 24, 30, 102, 1, 12, 5, 5, 1], &[86]),
    ("dtw-banded", 6, 1, 3, [64, 6, 24, 30, 102, 17, 12, 1, 1, 1], &[45, 63, 64]),
    ("dtw-banded", 6, 1, 4, [65, 6, 24, 30, 102, 24, 12, 1, 1, 1], &[54, 63, 64, 65]),
    ("dtw-banded", 2, 5, 1, [114, 10, 40, 50, 170, 1, 12, 5, 5, 5], &[114]),
    ("dtw-banded", 2, 5, 3, [77, 10, 40, 50, 170, 18, 12, 0, 0, 0], &[61, 77, 77]),
    ("dtw-banded", 2, 5, 4, [77, 10, 40, 50, 170, 22, 12, 0, 0, 0], &[61, 77, 77, 77]),
    ("dtw-banded", 9, 2, 1, [226, 18, 72, 90, 306, 1, 27, 16, 16, 2], &[226]),
    ("dtw-banded", 9, 2, 3, [166, 18, 72, 90, 306, 33, 27, 4, 4, 1], &[132, 165, 166]),
    ("dtw-banded", 9, 2, 4, [167, 18, 72, 90, 306, 40, 27, 4, 4, 1], &[164, 165, 166, 167]),
    ("dtw-banded", 11, 64, 1, [7716, 704, 2816, 3520, 11968, 1, 715, 640, 640, 64], &[7716]),
    ("dtw-banded", 11, 64, 3, [2848, 704, 2816, 3520, 11968, 905, 715, 192, 192, 61], &[2831, 2847, 2848]),
    ("dtw-banded", 11, 64, 4, [2159, 704, 2816, 3520, 11968, 1040, 715, 128, 128, 59], &[2124, 2157, 2158, 2159]),
    ("chain", 1, 0, 1, [26, 1, 12, 15, 49, 5, 0, 3, 0, 3], &[26]),
    ("chain", 1, 0, 3, [58, 3, 36, 45, 147, 21, 0, 3, 0, 3], &[26, 42, 58]),
    ("chain", 1, 0, 4, [74, 4, 48, 60, 196, 29, 0, 3, 0, 3], &[26, 42, 58, 74]),
    ("chain", 2, 0, 1, [49, 2, 24, 30, 98, 10, 0, 6, 3, 3], &[49]),
    ("chain", 2, 0, 3, [81, 6, 72, 90, 294, 42, 0, 6, 3, 6], &[49, 65, 81]),
    ("chain", 2, 0, 4, [97, 8, 96, 120, 392, 58, 0, 6, 3, 6], &[49, 65, 81, 97]),
    ("chain", 5, 0, 1, [118, 5, 60, 75, 245, 25, 0, 15, 12, 3], &[118]),
    ("chain", 5, 0, 3, [150, 15, 180, 225, 735, 105, 0, 15, 27, 9], &[118, 134, 150]),
    ("chain", 5, 0, 4, [166, 20, 240, 300, 980, 145, 0, 15, 30, 12], &[118, 134, 150, 166]),
    ("chain", 70, 0, 1, [1613, 70, 840, 1050, 3430, 350, 0, 210, 207, 3], &[1613]),
    ("chain", 70, 0, 3, [1645, 210, 2520, 3150, 10290, 1470, 0, 210, 612, 9], &[1613, 1629, 1645]),
    ("chain", 70, 0, 4, [1661, 280, 3360, 4200, 13720, 2030, 0, 210, 810, 12], &[1613, 1629, 1645, 1661]),
];

/// Recorded from the straight-line POA and Bellman-Ford programs.
#[rustfmt::skip]
const GRAPH_PINS: &[Pin] = &[
    ("poa-chain", 1, 1, 1, [18, 1, 7, 14, 43, 2, 2, 0, 0, 0], &[18]),
    ("poa-chain", 1, 1, 3, [18, 1, 7, 14, 43, 6, 2, 0, 0, 0], &[18, 18, 18]),
    ("poa-chain", 1, 1, 4, [18, 1, 7, 14, 43, 8, 2, 0, 0, 0], &[18, 18, 18, 18]),
    ("poa-chain", 1, 2, 1, [31, 2, 14, 28, 86, 3, 2, 0, 0, 0], &[31]),
    ("poa-chain", 1, 2, 3, [31, 2, 14, 28, 86, 7, 2, 0, 0, 0], &[31, 31, 31]),
    ("poa-chain", 1, 2, 4, [31, 2, 14, 28, 86, 9, 2, 0, 0, 0], &[31, 31, 31, 31]),
    ("poa-chain", 1, 24, 1, [317, 24, 168, 336, 1032, 25, 2, 0, 0, 0], &[317]),
    ("poa-chain", 1, 24, 3, [317, 24, 168, 336, 1032, 29, 2, 0, 0, 0], &[317, 317, 317]),
    ("poa-chain", 1, 24, 4, [317, 24, 168, 336, 1032, 31, 2, 0, 0, 0], &[317, 317, 317, 317]),
    ("poa-chain", 24, 1, 1, [478, 24, 168, 336, 1032, 2, 2, 46, 46, 2], &[478]),
    ("poa-chain", 24, 1, 3, [347, 24, 168, 336, 1032, 66, 2, 14, 14, 1], &[319, 333, 347]),
    ("poa-chain", 24, 1, 4, [345, 24, 168, 336, 1032, 74, 2, 10, 10, 1], &[303, 317, 331, 345]),
    ("poa-chain", 24, 2, 1, [882, 48, 336, 672, 2064, 3, 2, 92, 92, 4], &[882]),
    ("poa-chain", 24, 2, 3, [364, 48, 336, 672, 2064, 131, 2, 28, 28, 1], &[336, 350, 364]),
    ("poa-chain", 24, 2, 4, [362, 48, 336, 672, 2064, 147, 2, 20, 20, 1], &[320, 334, 348, 362]),
    ("poa-chain", 24, 24, 1, [9770, 576, 4032, 8064, 24768, 25, 2, 1104, 1104, 48], &[9770]),
    ("poa-chain", 24, 24, 3, [3314, 576, 4032, 8064, 24768, 1561, 2, 336, 336, 44], &[3286, 3300, 3314]),
    ("poa-chain", 24, 24, 4, [2506, 576, 4032, 8064, 24768, 1753, 2, 240, 240, 42], &[2464, 2478, 2492, 2506]),
    ("poa-branched", 36, 1, 1, [804, 38, 266, 532, 1634, 3, 4, 84, 84, 5], &[804]),
    ("poa-branched", 36, 1, 3, [576, 38, 266, 532, 1634, 117, 4, 28, 28, 3], &[547, 563, 576]),
    ("poa-branched", 36, 1, 4, [573, 38, 266, 532, 1634, 135, 4, 19, 19, 2], &[530, 544, 560, 573]),
    ("poa-branched", 36, 2, 1, [1482, 76, 532, 1064, 3268, 4, 4, 168, 168, 10], &[1482]),
    ("poa-branched", 36, 2, 3, [627, 76, 532, 1064, 3268, 230, 4, 56, 56, 5], &[598, 614, 627]),
    ("poa-branched", 36, 2, 4, [610, 76, 532, 1064, 3268, 266, 4, 38, 38, 3], &[567, 581, 597, 610]),
    ("poa-branched", 36, 24, 1, [16398, 912, 6384, 12768, 39216, 26, 4, 2016, 2016, 120], &[16398]),
    ("poa-branched", 36, 24, 3, [6254, 912, 6384, 12768, 39216, 2716, 4, 672, 672, 115], &[6225, 6241, 6254]),
    ("poa-branched", 36, 24, 4, [4807, 912, 6384, 12768, 39216, 3148, 4, 456, 456, 66], &[4764, 4778, 4794, 4807]),
    ("bellman-ford", 1, 1, 1, [13, 1, 2, 3, 11, 2, 7, 0, 0, 0], &[13]),
    ("bellman-ford", 1, 2, 1, [19, 2, 4, 6, 22, 2, 10, 0, 0, 0], &[19]),
    ("bellman-ford", 1, 5, 1, [37, 5, 10, 15, 55, 2, 19, 0, 0, 0], &[37]),
    ("bellman-ford", 2, 1, 1, [21, 2, 4, 6, 22, 3, 12, 0, 0, 0], &[21]),
    ("bellman-ford", 2, 2, 1, [33, 4, 8, 12, 44, 3, 18, 0, 0, 0], &[33]),
    ("bellman-ford", 2, 5, 1, [69, 10, 20, 30, 110, 3, 36, 0, 0, 0], &[69]),
    ("bellman-ford", 24, 1, 1, [171, 24, 48, 72, 264, 12, 96, 0, 0, 0], &[171]),
    ("bellman-ford", 24, 2, 1, [315, 48, 96, 144, 528, 12, 168, 0, 0, 0], &[315]),
    ("bellman-ford", 24, 5, 1, [747, 120, 240, 360, 1320, 12, 384, 0, 0, 0], &[747]),
];
