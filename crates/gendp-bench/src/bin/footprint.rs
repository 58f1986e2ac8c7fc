//! Program-footprint artifact: control and compute program sizes per
//! kernel configuration, against the paper's 208 KB instruction-buffer
//! budget (Table 7). Control instructions are sized at 4 bytes, VLIW
//! compute words at 16 bytes (2 CUs x 3 opcodes + 6 operand fields).
use gendp::core::GendpPipeline;
use gendp::kernels::pairhmm::PairHmmParams;
use gendp::kernels::Scoring;

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
        let ctrl_max = programs.iter().map(|p| p.len()).max().unwrap_or(0);
        let vliw = accel.mapping().program.len();
        let bytes = ctrl_max * 4 + vliw * 16;
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
}
