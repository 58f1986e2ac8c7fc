//! Metric sets, delivery checks and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use gendp::runtime::{KernelKind, TaskValue};

use crate::measure::{layer_tail, median, Fnv};
use crate::stages::Staged;

/// Every task kind a workload sends, in the order per-kind metrics are
/// listed. FP PairHMM is in none (see `gen::MIX`).
pub const KINDS: [KernelKind; 8] = [
    KernelKind::Bsw,
    KernelKind::BswSimd,
    KernelKind::PairHmm,
    KernelKind::Dtw,
    KernelKind::DtwBanded,
    KernelKind::Chain,
    KernelKind::Poa,
    KernelKind::BellmanFord,
];

/// End-to-end metrics, printed by untraced runs.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("host_cells_per_s", "cells/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("interactive_tail_ms", "ms"),
    ("ok_frac", "fraction"),
    ("peak_rss_mb", "MiB"),
    ("sim_cells_per_cycle", "cells/cycle"),
];

/// Per-layer metrics, printed by traced runs: (name, unit).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("dpmap.build_ms", "ms"),
        ("codegen.ms", "ms"),
        ("codegen.insts_per_cell", "count"),
        ("decode.ms", "ms"),
        ("prepare.ms", "ms"),
        ("verify.ms", "ms"),
        ("execute.ms", "ms"),
        ("execute.cells_per_s", "cells/s"),
        ("execute.functional_frac", "fraction"),
        ("task.overhead_ms", "ms"),
        ("price.ms", "ms"),
        ("device.overhead_ms", "ms"),
        ("wire.encode_us", "us"),
        ("wire.decode_us", "us"),
        ("wire.bytes_per_request", "bytes"),
        ("wall.latency_ms.p50", "ms"),
        ("wall.latency_ms.tail", "ms"),
        ("serve.submit_ms.p50", "ms"),
        ("serve.submit_ms.tail", "ms"),
        ("serve.wait_ms", "ms"),
        ("serve.batch_tasks", "count"),
        ("sim.cycles_per_task", "cycles"),
        ("sim.cells_per_cycle", "cells/cycle"),
        ("stages.accounted_frac", "fraction"),
        ("trace.overhead_ms", "ms"),
        ("trace.spans", "count"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for kind in KINDS {
        let k = kind.name();
        out.push((format!("serve.submit_ms.p50.{k}"), "ms"));
        out.push((format!("serve.submit_ms.tail.{k}"), "ms"));
        out.push((format!("sim.cycles_per_task.{k}"), "cycles"));
        out.push((format!("sim.cells_per_cycle.{k}"), "cells/cycle"));
    }
    out
}

/// One delivered (or failed) request of a timed phase.
#[derive(Debug, Clone)]
pub struct Done {
    /// Request id.
    pub id: u64,
    /// Sending tenant.
    pub tenant: usize,
    /// Task kind.
    pub kind: KernelKind,
    /// When the request was due (open loop) or sent (closed loop).
    pub due: Instant,
    /// When the benchmark held the result.
    pub delivered: Instant,
    /// The delivered value, `None` for a rejection or failure.
    pub value: Option<TaskValue>,
    /// True when the value equals the reference and the reported cells
    /// (where the delivery carries them) equal the expected cells.
    pub ok: bool,
    /// DP cells of the task.
    pub cells: u64,
    /// Simulated cycles reported with the delivery.
    pub cycles: u64,
    /// Host time of the submit call, ms (serve workloads).
    pub submit_ms: f64,
    /// CPU time of the request, ms: the thread's for a one-shot call, the
    /// process's from submit to delivery in the sequential serve phase;
    /// 0 where it is not measured.
    pub cpu_ms: f64,
}

impl Done {
    /// Due time to delivery, ms.
    pub fn latency_ms(&self) -> f64 {
        crate::measure::ms_between(self.due, self.delivered)
    }
}

/// Digest of (id, value, cells, cycles) over `set`, sorted by id, and
/// Σcells ÷ Σcycles over the same set. Both repeat exactly for a seed.
pub fn digest(set: &[&Done]) -> (u64, f64) {
    let mut sorted: Vec<&&Done> = set.iter().collect();
    sorted.sort_by_key(|d| d.id);
    let mut h = Fnv::default();
    let (mut cells, mut cycles) = (0u64, 0u64);
    for d in sorted {
        h.write(format!("{} {:?} {} {}\n", d.id, d.value, d.cells, d.cycles).as_bytes());
        cells += d.cells;
        cycles += d.cycles;
    }
    (h.finish(), cells as f64 / cycles.max(1) as f64)
}

/// A run's result: counts, metrics and the diagnostics printed before it.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests sent, warm-ups included.
    pub attempted: u64,
    /// Requests whose delivery matched its reference.
    pub ok: u64,
    /// False once any check failed.
    pub correct: bool,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Run-quality diagnostics and digests, one line each.
    pub notes: Vec<String>,
}

impl Outcome {
    /// An outcome with no checks failed yet.
    pub fn new() -> Outcome {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    /// Records a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Records a diagnostic line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts a checked request.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if ok {
            self.ok += 1;
        } else {
            self.correct = false;
        }
    }

    /// Per-layer metrics from the stage replay (`replay`), the timed
    /// phases' deliveries (`done`) and the digest set (`sim_set`).
    pub fn layer_metrics(&mut self, replay: &[Staged], done: &[Done], sim_set: &[&Done]) {
        let col = |f: &dyn Fn(&Staged) -> Option<f64>| -> Vec<f64> {
            replay.iter().filter_map(f).collect()
        };
        self.set("dpmap.build_ms", median(&col(&|s| Some(s.build_ms))));
        self.set("codegen.ms", median(&col(&|s| s.codegen.map(|c| c.0))));
        self.set("decode.ms", median(&col(&|s| s.codegen.map(|c| c.1))));
        self.set("verify.ms", median(&col(&|s| s.verify_ms())));
        let (insts, gen_cells) = replay
            .iter()
            .filter_map(|s| s.codegen.map(|c| (c.2, s.stats.cells())))
            .fold((0u64, 0u64), |a, b| (a.0 + b.0, a.1 + b.1));
        self.set(
            "codegen.insts_per_cell",
            insts as f64 / gen_cells.max(1) as f64,
        );
        self.set("prepare.ms", median(&col(&|s| Some(s.prepare_ms))));
        self.set("execute.ms", median(&col(&|s| Some(s.execute_ms))));
        let exec_ms: f64 = replay.iter().map(|s| s.execute_ms).sum();
        let exec_cells: u64 = replay.iter().map(|s| s.stats.cells()).sum();
        self.set(
            "execute.cells_per_s",
            exec_cells as f64 / (exec_ms / 1e3).max(1e-9),
        );
        let functional = replay.iter().filter(|s| s.functional()).count();
        self.set(
            "execute.functional_frac",
            functional as f64 / replay.len().max(1) as f64,
        );
        self.set("task.overhead_ms", median(&col(&|s| Some(s.overhead_ms()))));
        self.set("price.ms", median(&col(&|s| Some(s.price_ms))));
        self.set(
            "device.overhead_ms",
            median(&col(&|s| Some(s.device_ms - s.oneshot_ms))),
        );
        self.set("wire.encode_us", median(&col(&|s| Some(s.encode_us))));
        self.set("wire.decode_us", median(&col(&|s| Some(s.decode_us))));
        let bytes: usize = replay.iter().map(|s| s.wire_bytes).sum();
        self.set(
            "wire.bytes_per_request",
            bytes as f64 / replay.len().max(1) as f64,
        );
        // Stage spans against the one-shot call they split up.
        let stages: f64 = replay
            .iter()
            .map(|s| s.build_ms + s.prepare_ms + s.execute_ms)
            .sum();
        let oneshot: f64 = replay.iter().map(|s| s.oneshot_ms).sum();
        self.set("stages.accounted_frac", stages / oneshot.max(1e-9));
        for s in replay {
            self.count(s.correct);
            if !s.correct {
                self.note(format!("replay mismatch on request {}", s.id));
            }
        }

        let submits: Vec<f64> = done
            .iter()
            .filter(|d| d.submit_ms > 0.0)
            .map(|d| d.submit_ms)
            .collect();
        self.set("serve.submit_ms.p50", median(&submits));
        self.set("serve.submit_ms.tail", layer_tail(&submits));
        let (_, cpc) = digest(sim_set);
        let cycles: u64 = sim_set.iter().map(|d| d.cycles).sum();
        self.set("sim.cells_per_cycle", cpc);
        self.set(
            "sim.cycles_per_task",
            cycles as f64 / sim_set.len().max(1) as f64,
        );
        for kind in KINDS {
            let k = kind.name();
            let of_kind: Vec<f64> = done
                .iter()
                .filter(|d| d.kind == kind && d.submit_ms > 0.0)
                .map(|d| d.submit_ms)
                .collect();
            self.set(format!("serve.submit_ms.p50.{k}"), median(&of_kind));
            self.set(format!("serve.submit_ms.tail.{k}"), layer_tail(&of_kind));
            let set: Vec<&Done> = sim_set.iter().copied().filter(|d| d.kind == kind).collect();
            let (_, cpc) = if set.is_empty() {
                (0, 0.0)
            } else {
                digest(&set)
            };
            let cycles: u64 = set.iter().map(|d| d.cycles).sum();
            self.set(format!("sim.cells_per_cycle.{k}"), cpc);
            self.set(
                format!("sim.cycles_per_task.{k}"),
                cycles as f64 / set.len().max(1) as f64,
            );
        }
    }

    /// Prints the diagnostics, then the result line with exactly the
    /// metrics `wanted` names (a missing one is a bug and fails the run).
    pub fn print(mut self, wanted: &[(String, &'static str)]) -> bool {
        let mut body = String::new();
        for (i, (name, unit)) in wanted.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                other => {
                    self.correct = false;
                    self.notes
                        .push(format!("metric {name} missing or not finite: {other:?}"));
                    0.0
                }
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                body,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        for line in &self.notes {
            println!("# {line}");
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.correct,
            self.attempted,
            self.attempted - self.ok
        );
        self.correct
    }
}
