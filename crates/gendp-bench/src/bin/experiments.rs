//! Prints the paper's tables and figures (DESIGN.md §5 indexes them):
//!
//! ```text
//! cargo run --release -p gendp-bench --bin experiments -- <id>... [--quick]
//! ```
//!
//! `all` prints every artifact in the order EXPERIMENTS.md records them,
//! and `--quick` shrinks the workloads. An unknown id prints the known ids
//! and exits non-zero before anything runs.

use gendp_bench::measure::{measure_all, KernelMeasurement};
use gendp_bench::{tables, Scale};

/// Every artifact id, in the order `all` prints them.
const IDS: [&str; 20] = [
    "table1", "table2", "table6", "table7", "table8", "table9", "table10", "table11", "table12",
    "table13", "table14", "table15", "fig10a", "fig10b", "fig10c", "fig10d", "fig11", "pruning",
    "deprange", "table16",
];

/// The simulator measurements several artifacts share, taken on first use.
fn measured(ms: &mut Option<[KernelMeasurement; 4]>, scale: Scale) -> &[KernelMeasurement; 4] {
    ms.get_or_insert_with(|| measure_all(scale))
}

/// Renders the artifact `id`, which is one of [`IDS`].
fn render(id: &str, scale: Scale, ms: &mut Option<[KernelMeasurement; 4]>) -> String {
    match id {
        "table1" => tables::table1(),
        "table2" => tables::table2(),
        "table6" => tables::table6(scale),
        "table7" => tables::table7(),
        "table8" => tables::table8(),
        "table9" => tables::table9(),
        "table10" => tables::table10(),
        "table11" => tables::table11(measured(ms, scale)),
        "table12" => tables::table12(measured(ms, scale)),
        "table13" => tables::table13(measured(ms, scale)),
        "table14" => tables::table14(),
        "table15" => tables::table15(measured(ms, scale)),
        "fig10a" => tables::fig10a(measured(ms, scale)),
        "fig10b" => tables::fig10b(measured(ms, scale)),
        "fig10c" => tables::fig10c(measured(ms, scale)),
        "fig10d" => tables::fig10d(),
        "fig11" => tables::fig11(scale),
        "pruning" => tables::pruning_fraction(scale),
        "deprange" => tables::dependency_range(scale),
        "table16" => tables::table16(scale),
        _ => unreachable!("ids are checked against IDS before rendering"),
    }
}

fn main() {
    let scale = Scale::from_args();
    let ids: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--quick")
        .collect();
    let unknown: Vec<&str> = ids
        .iter()
        .map(String::as_str)
        .filter(|id| *id != "all" && !IDS.contains(id))
        .collect();
    if ids.is_empty() || !unknown.is_empty() {
        if !unknown.is_empty() {
            eprintln!("unknown experiment id: {}", unknown.join(", "));
        }
        eprintln!("usage: experiments <id>... [--quick]");
        eprintln!("ids: all {}", IDS.join(" "));
        std::process::exit(2);
    }
    let mut ms = None;
    for id in &ids {
        let run = if id == "all" {
            IDS.to_vec()
        } else {
            vec![id.as_str()]
        };
        for id in run {
            println!("{}", render(id, scale, &mut ms));
        }
    }
}
