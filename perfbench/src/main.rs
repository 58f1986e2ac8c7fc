//! The gendp benchmark: runs one workload through the public API and
//! prints its end-to-end metrics (untraced) or per-layer metrics (traced)
//! as one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <reads-repeat|tables-distinct|serve-mixed> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Inputs come only from `--seed`. Every delivery is compared against a
//! software reference; any mismatch sets `"correct": false` and the exit
//! code to 1. `perfbench/BENCHMARK.md` documents the workloads and
//! metrics.

mod gen;
mod measure;
mod report;
mod serve;
mod stages;
mod tables;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use measure::{Cpu, CpuTimes};
use report::Outcome;
use trace::Tracer;

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["reads-repeat", "tables-distinct", "serve-mixed"];

/// One invocation's settings.
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phases.
    pub seconds: u64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Zero of every span timestamp.
    pub epoch: Instant,
}

fn parse() -> Result<Run, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let pos = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(pos + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let number = |flag: &str, v: String| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
    let seed = number("--seed", get("--seed")?)?;
    let seconds = number("--seconds", get("--seconds")?)?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Run {
        workload,
        seed,
        seconds,
        trace,
        epoch: Instant::now(),
    })
}

/// Adds the tracing overhead to a traced run's metrics, prints the
/// per-layer span summary and writes the spans under `perfbench/out/`.
///
/// Tracing adds only the span recording itself to the traced run's wall
/// time, so the overhead is the spans recorded in the timed phases times
/// the measured cost of recording one.
pub fn finish_trace(run: &Run, out: &mut Outcome, tr: Tracer, spans_timed: usize, requests: usize) {
    let per_span = trace::span_cost_ms();
    out.set("trace.spans", spans_timed as f64);
    out.set(
        "trace.overhead_ms",
        per_span * spans_timed as f64 / requests.max(1) as f64,
    );
    out.note(format!(
        "tracing: {spans_timed} spans in the timed phases at {:.1} ns each",
        per_span * 1e6
    ));
    out.note("span summary: name count total_ms self_ms");
    for (name, (count, total, own)) in tr.summary() {
        out.note(format!("  {name} {count} {total:.3} {own:.3}"));
    }
    let path = std::path::Path::new("perfbench/out")
        .join(format!("trace-{}-seed{}.jsonl", run.workload, run.seed));
    match tr.write_jsonl(&path) {
        Ok(()) => out.note(format!("spans written to {}", path.display())),
        Err(e) => out.note(format!("could not write {}: {e}", path.display())),
    }
}

fn main() -> ExitCode {
    let run = match parse() {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let cpu0 = CpuTimes::now();
    let own0 = Cpu::Process.now();
    let wall = Instant::now();
    let mut out = match run.workload.as_str() {
        "tables-distinct" => tables::run(&run),
        "reads-repeat" => serve::run(&serve::reads_repeat(), &run),
        _ => serve::run(&serve::serve_mixed(), &run),
    };
    out.set("ok_frac", out.ok as f64 / out.attempted.max(1) as f64);
    out.set("peak_rss_mb", measure::peak_rss_mb());
    let cpu = CpuTimes::now().since(cpu0);
    out.note(format!(
        "host: steal {:.2} s of {:.2} s busy CPU ({:.1}%); this process {:.2} s CPU over {:.1} s wall; {} CPUs",
        cpu.steal,
        cpu.busy,
        100.0 * cpu.steal / cpu.busy.max(1e-9),
        Cpu::Process.secs_since(own0),
        wall.elapsed().as_secs_f64(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    let wanted: Vec<(String, &str)> = if run.trace {
        report::per_layer()
    } else {
        report::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    if out.print(&wanted) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    /// (name, unit) of every metric object in one section of
    /// `BENCHMARK.json`, in file order.
    fn metrics_in(section: &str) -> Vec<(String, String)> {
        let mut out = Vec::new();
        let mut name = None;
        for line in section.lines().map(str::trim) {
            let value = |key: &str| {
                line.strip_prefix(&format!("\"{key}\": \""))
                    .map(|rest| rest.trim_end_matches(',').trim_end_matches('"').to_string())
            };
            if let Some(n) = value("name") {
                name = Some(n);
            } else if let (Some(u), Some(n)) = (value("unit"), name.take()) {
                out.push((n, u));
            }
        }
        out
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let (e2e, layer) = text.split_once("\"per_layer\"").expect("per_layer section");
        let owned = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
            v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        let e2e_want = super::report::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        assert_eq!(metrics_in(e2e), owned(e2e_want));
        assert_eq!(metrics_in(layer), owned(super::report::per_layer()));
    }
}
