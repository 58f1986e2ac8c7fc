//! Replays requests through the program's stage calls, one public call per
//! layer, after the timed phases of a traced run.
//!
//! `Task::execute` builds a DPMap pipeline, prepares it (control codegen,
//! decode, verify+certify, array load), executes it and parses the output,
//! all inside one call. Here the same work is split across the public
//! stage entry points — `GendpPipeline::<kernel>()`,
//! `Wavefront2d::generate_programs`, `DecodedControlProgram::decode`,
//! `Accelerator::prepare` and `PreparedTask::execute` — so each layer gets
//! its own span. Serving-side layers are timed the same way: pricing
//! (`Task::certified_cost`), one-task `Device::run_batch`, and the wire
//! codec.

use std::hint::black_box;
use std::time::Duration;

use gendp::core::{
    pack_lanes, AccelConfig, Accelerator, BandSpec, BellmanFordTask, ChainTask, GendpPipeline,
    PoaTask, Wavefront2d, WavefrontTask,
};
use gendp::dpax::{RunStats, Tier, TierPolicy};
use gendp::isa::{ControlProgram, DecodedControlProgram};
use gendp::kernels::AlignMode;
use gendp::runtime::{Device, DeviceConfig, Task, DTW_BAND_SENTINEL};
use gendp::serve::{Request, Response, WireOutcome};

use crate::gen::Req;
use crate::measure::Cpu;
use crate::trace::Tracer;

/// Process CPU milliseconds since `since`, a reading of the same clock.
/// No server is alive during the replay, so this counts only the stage's
/// own work (with the worker threads `Device::run_batch` starts), and,
/// like the end-to-end times, none of the host's steal.
fn cpu_ms(since: Duration) -> f64 {
    Cpu::Process.secs_since(since) * 1e3
}

/// Microseconds per wire-codec repetition.
fn per_rep_us(total: Duration) -> f64 {
    total.as_secs_f64() * 1e6 / f64::from(WIRE_REPS)
}

/// CPU time of each stage for one replayed request.
#[derive(Debug, Clone)]
pub struct Staged {
    /// Request id.
    pub id: u64,
    /// `GendpPipeline::<kernel>()`.
    pub build_ms: f64,
    /// Control codegen and decode (ms, ms) and control instructions
    /// generated; 2-D unbanded wavefronts only, the one pattern whose
    /// codegen is a public call.
    pub codegen: Option<(f64, f64, u64)>,
    /// `Accelerator::prepare`.
    pub prepare_ms: f64,
    /// `PreparedTask::execute`.
    pub execute_ms: f64,
    /// Statistics of that execution.
    pub stats: RunStats,
    /// The same task through one `Task::execute_configured` call.
    pub oneshot_ms: f64,
    /// `Task::certified_cost`.
    pub price_ms: f64,
    /// `Device::run_batch` of the task alone.
    pub device_ms: f64,
    /// Mean `Request::encode` + `Response::encode` time, µs.
    pub encode_us: f64,
    /// Mean `Request::decode` + `Response::decode` time, µs.
    pub decode_us: f64,
    /// Request plus response payload bytes.
    pub wire_bytes: usize,
    /// Every value the replay produced equals the reference, and the
    /// execution computed the expected cells.
    pub correct: bool,
}

impl Staged {
    /// Verify+certify time: prepare minus codegen and decode (it includes
    /// the array load). `None` where codegen is not separately callable.
    pub fn verify_ms(&self) -> Option<f64> {
        self.codegen.map(|(c, d, _)| self.prepare_ms - c - d)
    }

    /// What `Task::execute` spends outside build, prepare and execute:
    /// lowering the task and parsing the output.
    pub fn overhead_ms(&self) -> f64 {
        self.oneshot_ms - self.build_ms - self.prepare_ms - self.execute_ms
    }

    /// True when the execution ran on the functional tier.
    pub fn functional(&self) -> bool {
        self.stats.tier == Tier::Functional
    }
}

/// Build, prepare and execute times of one accelerator run.
struct Core {
    build_ms: f64,
    codegen: Option<(f64, f64, u64)>,
    prepare_ms: f64,
    execute_ms: f64,
    stats: Option<RunStats>,
}

/// Generates a task's control programs on a built accelerator.
type Codegen<'a, A> = &'a dyn Fn(&A) -> Vec<ControlProgram>;

/// Times each stage of one accelerator run. `codegen`, when given,
/// regenerates and decodes the control programs on their own first.
fn staged<'t, A: Accelerator>(
    build: impl FnOnce() -> A,
    task: &A::Task<'t>,
    codegen: Option<Codegen<'_, A>>,
    cfg: AccelConfig,
    tr: &mut Tracer,
    rid: u64,
) -> Core {
    let open = tr.begin("dpmap.build", rid);
    let t = Cpu::Process.now();
    let accel = build();
    let build_ms = cpu_ms(t);
    tr.end(open);

    let codegen = codegen.map(|generate| {
        let open = tr.begin("codegen", rid);
        let t = Cpu::Process.now();
        let programs = generate(&accel);
        let codegen_ms = cpu_ms(t);
        tr.end(open);
        let open = tr.begin("decode", rid);
        let t = Cpu::Process.now();
        let decoded: Vec<DecodedControlProgram> =
            programs.iter().map(DecodedControlProgram::decode).collect();
        let decode_ms = cpu_ms(t);
        tr.end(open);
        black_box(decoded);
        let insts = programs.iter().map(|p| p.len() as u64).sum();
        (codegen_ms, decode_ms, insts)
    });

    let accel = accel.configure(cfg);
    let open = tr.begin("prepare", rid);
    let t = Cpu::Process.now();
    let mut prep = accel.prepare(task);
    let prepare_ms = cpu_ms(t);
    tr.end(open);

    let open = tr.begin("execute", rid);
    let t = Cpu::Process.now();
    let stats = prep.execute().ok();
    let execute_ms = cpu_ms(t);
    tr.end(open);
    black_box(prep.output());
    Core {
        build_ms,
        codegen,
        prepare_ms,
        execute_ms,
        stats,
    }
}

fn codes(s: &gendp::seq::DnaSeq) -> Vec<i32> {
    s.codes().iter().map(|&c| i32::from(c)).collect()
}

/// Lowers `task` the way `Task::execute` does and times its stages.
fn lower_and_stage(task: &Task, n_pes: usize, cfg: AccelConfig, tr: &mut Tracer, rid: u64) -> Core {
    // Unbanded 2-D wavefronts: the generic stage path plus public codegen.
    let wavefront =
        |build: &dyn Fn() -> Wavefront2d, rows: &[i32], cols: &[i32], tr: &mut Tracer| {
            let task = WavefrontTask {
                rows,
                cols,
                n_pes,
                band: None,
            };
            let generate = |a: &Wavefront2d| a.generate_programs(rows, cols, n_pes);
            staged(build, &task, Some(&generate), cfg, tr, rid)
        };
    match task {
        Task::Bsw {
            query,
            target,
            scoring,
            mode,
        } => {
            let (rows, cols) = (codes(target), codes(query));
            let build = || match mode {
                AlignMode::Local => GendpPipeline::bsw(scoring),
                AlignMode::Global => GendpPipeline::bsw_global(scoring),
                AlignMode::SemiGlobal => GendpPipeline::bsw_semiglobal(scoring, query.len()),
            };
            wavefront(&build, &rows, &cols, tr)
        }
        Task::BswSimd { pairs, scoring } => {
            let qs: Vec<Vec<u8>> = pairs.iter().map(|(q, _)| q.codes()).collect();
            let ts: Vec<Vec<u8>> = pairs.iter().map(|(_, t)| t.codes()).collect();
            let cols = pack_lanes([&qs[0], &qs[1], &qs[2], &qs[3]]);
            let rows = pack_lanes([&ts[0], &ts[1], &ts[2], &ts[3]]);
            wavefront(&|| GendpPipeline::bsw_simd(scoring), &rows, &cols, tr)
        }
        Task::PairHmm {
            read,
            haplotype,
            qual,
            scale,
            params,
        } => {
            let build = || GendpPipeline::pairhmm(params, *qual, *scale, haplotype.len());
            wavefront(&build, &codes(read), &codes(haplotype), tr)
        }
        Task::PairHmmFloat {
            read,
            haplotype,
            qual,
            params,
        } => {
            let build = || GendpPipeline::pairhmm_float(params, *qual, haplotype.len());
            wavefront(&build, &codes(read), &codes(haplotype), tr)
        }
        Task::Dtw { xs, ys } => wavefront(&GendpPipeline::dtw, xs, ys, tr),
        Task::DtwBanded { xs, ys, width } => {
            let task = WavefrontTask {
                rows: xs,
                cols: ys,
                n_pes,
                band: Some(BandSpec {
                    width: *width,
                    sentinel: DTW_BAND_SENTINEL,
                }),
            };
            staged(
                || GendpPipeline::dtw_banded(ys.len()),
                &task,
                None,
                cfg,
                tr,
                rid,
            )
        }
        Task::Chain { anchors, params } => {
            let task = ChainTask {
                anchors,
                n_pes: params.n_prev,
            };
            staged(|| GendpPipeline::chain(*params), &task, None, cfg, tr, rid)
        }
        Task::Poa {
            graph,
            probe,
            scoring,
        } => {
            let task = PoaTask {
                graph,
                seq: probe,
                n_pes,
            };
            staged(|| GendpPipeline::poa(*scoring), &task, None, cfg, tr, rid)
        }
        Task::BellmanFord {
            graph,
            source,
            rounds,
        } => {
            let task = BellmanFordTask {
                graph,
                source: *source,
                rounds: *rounds,
            };
            staged(GendpPipeline::bellman_ford, &task, None, cfg, tr, rid)
        }
    }
}

/// Wire codec round trips averaged per call, to resolve sub-µs work.
const WIRE_REPS: u32 = 20;

/// Replays `reqs` through every stage under `tiers`, on the device shape
/// the serve workloads use (one worker, default arrays).
pub fn replay(reqs: &[Req], tiers: TierPolicy, tr: &mut Tracer) -> Vec<Staged> {
    let device_config = DeviceConfig {
        workers: 1,
        tiers,
        ..DeviceConfig::default()
    };
    let n_pes = device_config.pes_per_array;
    let cfg = AccelConfig::new().tiers(tiers);
    let mut device = Device::new(device_config);
    reqs.iter()
        .map(|req| {
            let rid = req.id;
            // One untimed run first, so every timed call below sees the
            // same warm allocator and caches.
            black_box(req.task.execute_configured(n_pes, cfg).ok());
            let open = tr.begin("replay", rid);
            let core = lower_and_stage(&req.task, n_pes, cfg, tr, rid);

            let o = tr.begin("task.execute", rid);
            let t = Cpu::Process.now();
            let oneshot = req.task.execute_configured(n_pes, cfg);
            let oneshot_ms = cpu_ms(t);
            tr.end(o);

            let o = tr.begin("price", rid);
            let t = Cpu::Process.now();
            black_box(req.task.certified_cost(n_pes));
            let price_ms = cpu_ms(t);
            tr.end(o);

            let o = tr.begin("device.run_batch", rid);
            let t = Cpu::Process.now();
            let batch = device.run_batch(vec![req.task.clone()]);
            let device_ms = cpu_ms(t);
            tr.end(o);
            let device_value = batch
                .ok()
                .and_then(|b| b.results.into_iter().next())
                .and_then(Result::ok)
                .map(|r| r.value);

            let executed = core.stats.is_some();
            let stats = core.stats.unwrap_or_default();
            let request = Request::Submit {
                id: rid,
                tenant: "replay".into(),
                task: req.task.clone(),
            };
            let response = Response {
                id: rid,
                outcome: WireOutcome::Ok {
                    value: req.expect.clone(),
                    cycles: stats.cycles,
                    attempts: 1,
                },
            };
            let o = tr.begin("wire.encode", rid);
            let t = Cpu::Process.now();
            let mut encoded = (Vec::new(), Vec::new());
            for _ in 0..WIRE_REPS {
                encoded = (black_box(&request).encode(), black_box(&response).encode());
            }
            let encode_end = Cpu::Process.now();
            tr.end(o);
            let o = tr.begin("wire.decode", rid);
            let mut decoded_ok = true;
            for _ in 0..WIRE_REPS {
                let back = (Request::decode(&encoded.0), Response::decode(&encoded.1));
                decoded_ok &= matches!(back, (Ok(_), Ok(ref r)) if *r == response);
            }
            let decode_end = Cpu::Process.now();
            tr.end(o);
            tr.end(open);

            let correct = executed
                && stats.cells() == req.cells
                && oneshot
                    .as_ref()
                    .is_ok_and(|(v, s)| *v == req.expect && s.cycles == stats.cycles)
                && device_value.as_ref() == Some(&req.expect)
                && decoded_ok;
            Staged {
                id: rid,
                build_ms: core.build_ms,
                codegen: core.codegen,
                prepare_ms: core.prepare_ms,
                execute_ms: core.execute_ms,
                stats,
                oneshot_ms,
                price_ms,
                device_ms,
                encode_us: per_rep_us(encode_end.saturating_sub(t)),
                decode_us: per_rep_us(decode_end.saturating_sub(encode_end)),
                wire_bytes: encoded.0.len() + encoded.1.len(),
                correct,
            }
        })
        .collect()
}
