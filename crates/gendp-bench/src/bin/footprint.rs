//! Program-footprint artifact: control and compute program sizes per
//! kernel configuration, against the paper's 208 KB instruction-buffer
//! budget (Table 7). Control instructions are sized at 4 bytes, VLIW
//! compute words at 16 bytes (2 CUs x 3 opcodes + 6 operand fields).
use gendp::core::GendpPipeline;
use gendp::isa::ControlProgram;
use gendp::kernels::bellman_ford::{random_roadmap, Graph};
use gendp::kernels::pairhmm::PairHmmParams;
use gendp::kernels::poa::Poa;
use gendp::kernels::Scoring;
use gendp::seq::{DnaSeq, MutationProfile};
use rand::{rngs::SmallRng, SeedableRng};

/// The largest program of one task and its estimated bytes per PE.
fn per_pe<'a>(programs: impl Iterator<Item = &'a ControlProgram>, vliw: usize) -> (usize, usize) {
    let ctrl_max = programs.map(ControlProgram::len).max().unwrap_or(0);
    (ctrl_max, ctrl_max * 4 + vliw * 16)
}

fn main() {
    println!("Instruction footprint per kernel configuration");
    println!("kernel    | VLIW words | ctrl insts/PE (100x60 task) | est. bytes/PE");
    let rows: Vec<i32> = (0..60).map(|i| i % 4).collect();
    let cols: Vec<i32> = (0..100).map(|i| (i * 7) % 4).collect();
    let configs = [
        ("BSW", GendpPipeline::bsw(&Scoring::bwa_mem())),
        (
            "PairHMM",
            GendpPipeline::pairhmm(&PairHmmParams::gatk(), 30, 1024, cols.len()),
        ),
        ("DTW", GendpPipeline::dtw()),
        ("LCS", GendpPipeline::lcs()),
    ];
    for (name, accel) in configs {
        let programs = accel.generate_programs(&rows, &cols, 4);
        let vliw = accel.mapping().program.len();
        let (ctrl_max, bytes) = per_pe(programs.iter(), vliw);
        println!(
            "{name:9} | {vliw:10} | {ctrl_max:27} | {bytes:10} ({:.1} KB)",
            bytes as f64 / 1024.0
        );
    }
    println!(
        "(paper: 208 KB of instruction buffers across the tile = ~3 KB/PE;\n\
         each row a PE owns is one counted column loop, so a program grows\n\
         with rows per PE — 15 here — not with cells)"
    );

    println!();
    println!("Graph kernels: programs follow the graph, generated per task");
    println!(
        "{:54} | PEs | VLIW words | ctrl insts/PE | est. bytes/PE",
        "task"
    );
    let mut rng = SmallRng::seed_from_u64(7);
    let poa = GendpPipeline::poa(Scoring::racon());
    let poa_vliw = poa.mapping().program.len();
    // The serve benchmark's POA: one 24-base read, a 24-base probe.
    let mut chain = Poa::new();
    chain.add_sequence(&DnaSeq::random(24, &mut rng), &Scoring::racon());
    // A polishing window: a 40-base truth fused with four noisy reads.
    let truth = DnaSeq::random(40, &mut rng);
    let mut window = Poa::new();
    window.add_sequence(&truth, &Scoring::racon());
    for _ in 0..4 {
        let read = MutationProfile::nanopore().apply(&truth, &mut rng);
        window.add_sequence(&read, &Scoring::racon());
    }
    let probe = MutationProfile::nanopore().apply(&truth, &mut rng);
    let poa_rows = [
        (
            "POA: 24 nodes x 24 bases".to_string(),
            &chain,
            DnaSeq::random(24, &mut rng),
        ),
        (
            format!(
                "POA: window of {} nodes x {} bases",
                window.node_count(),
                probe.len()
            ),
            &window,
            probe,
        ),
    ];
    for (name, graph, probe) in &poa_rows {
        let prepared = poa.prepare(graph, probe, 4);
        let (ctrl_max, bytes) = per_pe(prepared.control_programs(), poa_vliw);
        print_graph_row(name, 4, poa_vliw, ctrl_max, bytes);
    }
    let bf = GendpPipeline::bellman_ford();
    let bf_vliw = bf.mapping().program.len();
    // The serve benchmark's Bellman-Ford: a 14-vertex path with shortcuts.
    let mut path = Graph::new(14);
    for v in 0..13 {
        path.add_edge(v, v + 1, 3);
        path.add_edge(v, (v * 5 + 3) % 14, 7);
    }
    let roadmap = random_roadmap(40, 3, 8, &mut rng);
    let bf_rows = [
        (
            format!(
                "Bellman-Ford: 14 vertices, {} edges x 4 rounds",
                path.edge_count()
            ),
            &path,
            4,
        ),
        (
            format!(
                "Bellman-Ford: 40-vertex roadmap, {} edges x 39 rounds",
                roadmap.edge_count()
            ),
            &roadmap,
            39,
        ),
    ];
    for (name, graph, rounds) in &bf_rows {
        let prepared = bf.prepare(graph, 0, *rounds);
        let (ctrl_max, bytes) = per_pe(prepared.control_programs(), bf_vliw);
        print_graph_row(name, 1, bf_vliw, ctrl_max, bytes);
    }
    println!(
        "(each POA row is a prologue and one counted column loop, except the\n\
         rows of nodes with more than two predecessors, which stay\n\
         straight-line; Bellman-Ford loops over passes of its edge list, so\n\
         its program grows with edges, not with rounds)"
    );
}

fn print_graph_row(name: &str, pes: usize, vliw: usize, ctrl_max: usize, bytes: usize) {
    println!(
        "{name:54} | {pes:3} | {vliw:10} | {ctrl_max:13} | {bytes:7} ({:.1} KB)",
        bytes as f64 / 1024.0
    );
}
