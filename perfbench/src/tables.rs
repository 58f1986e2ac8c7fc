//! `tables-distinct`: one-shot `Task::execute` in a closed loop on one
//! thread, every task a table shape no earlier task had.
//!
//! `Task::execute` runs on the calling thread, so its time is timed on the
//! thread's CPU clock: on a shared host that clock does not count the
//! time other guests held the core, which wall time does.

use std::time::{Duration, Instant};

use gendp::dpax::TierPolicy;
use gendp::runtime::DeviceConfig;

use crate::gen::{self, Req};
use crate::measure::{beyond, median, ms_between, quantile, Cpu};
use crate::report::{digest, Done, Outcome};
use crate::trace::Tracer;
use crate::Run;

/// Fixed tail percentile. A 45 s run on a 2-vCPU Xeon host makes 650–1,000
/// calls, 32–50 beyond it; it keeps ten beyond down to 200 calls.
const TAIL_Q: f64 = 0.95;
/// The first requests, always executed even past `--seconds`: the digest
/// and `sim_cells_per_cycle` cover exactly these.
const DIGEST_SET: usize = 64;
/// Requests generated; the loop ends early if a fast build exhausts them.
const POOL: usize = 3000;
/// Requests replayed stage by stage in a traced run: the loop's first
/// ones, so the replay can be checked against their time in the loop.
const REPLAY: usize = 16;
/// Set-ups per run; `setup_s` is the median of their CPU times.
const SETUP_REPS: usize = 21;

/// Runs the workload.
pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::new();
    let n_pes = DeviceConfig::default().pes_per_array;
    let reqs = gen::table_requests(run.seed, POOL);
    // Warm-up shapes lie below the workload's range and differ per set-up,
    // so no set-up warms a shape the loop will see or an earlier set-up saw.
    let mut rng = gen::rng(run.seed, 2);
    let warmups: Vec<Vec<Req>> = (0..SETUP_REPS)
        .map(|rep| {
            (0..gen::TABLE_KINDS)
                .map(|k| {
                    let task = gen::table_task(&mut rng, k, 40 + rep, 48);
                    Req::new(u64::MAX - (rep * gen::TABLE_KINDS + k) as u64, 0, task)
                })
                .collect()
        })
        .collect();

    let mut setups = Vec::new();
    for rep in &warmups {
        let started = Cpu::Thread.now();
        let results: Vec<_> = rep.iter().map(|w| w.task.execute(n_pes)).collect();
        setups.push(Cpu::Thread.secs_since(started));
        for (w, r) in rep.iter().zip(results) {
            out.count(r.is_ok_and(|(v, s)| v == w.expect && s.cells() == w.cells));
        }
    }
    out.set("setup_s", median(&setups));

    let mut tr = Tracer::new(run.epoch, run.trace);
    let mut done: Vec<Done> = Vec::new();
    let start = Instant::now();
    let end = start + Duration::from_secs(run.seconds);
    for req in &reqs {
        if done.len() >= DIGEST_SET && Instant::now() >= end {
            break;
        }
        let open = tr.begin("task.execute", req.id);
        let t = Instant::now();
        let cpu = Cpu::Thread.now();
        let result = req.task.execute(n_pes);
        let cpu_ms = Cpu::Thread.secs_since(cpu) * 1e3;
        let delivered = Instant::now();
        tr.end(open);
        let (value, cycles, ok) = match result {
            Ok((v, s)) => {
                let ok = v == req.expect && s.cells() == req.cells;
                (Some(v), s.cycles, ok)
            }
            Err(e) => {
                out.note(format!("request {} failed: {e}", req.id));
                (None, 0, false)
            }
        };
        out.count(ok);
        done.push(Done {
            id: req.id,
            tenant: 0,
            kind: req.task.kernel(),
            due: t,
            delivered,
            value,
            ok,
            cells: req.cells,
            cycles,
            submit_ms: 0.0,
            cpu_ms,
        });
    }
    let stop = Instant::now();
    if done.len() == reqs.len() {
        out.note("input pool exhausted before --seconds elapsed");
    }

    let lat: Vec<f64> = done.iter().map(|d| d.cpu_ms).collect();
    let wall: Vec<f64> = done.iter().map(Done::latency_ms).collect();
    out.set("wall.latency_ms.p50", median(&wall));
    out.set("wall.latency_ms.tail", quantile(&wall, TAIL_Q));
    let cells: u64 = done.iter().map(|d| d.cells).sum();
    let cpu_ms: f64 = lat.iter().sum();
    out.set("host_cells_per_s", cells as f64 / (cpu_ms / 1e3).max(1e-9));
    out.set("latency_p50_ms", median(&lat));
    out.set("latency_tail_ms", quantile(&lat, TAIL_Q));
    // One class of traffic: its tail is the workload's tail.
    out.set("interactive_tail_ms", quantile(&lat, TAIL_Q));
    out.note(format!(
        "latency tail = p{} of {} one-shot calls ({} beyond)",
        TAIL_Q * 100.0,
        lat.len(),
        beyond(lat.len(), TAIL_Q)
    ));
    let sim_set: Vec<&Done> = done
        .iter()
        .filter(|d| (d.id as usize) < DIGEST_SET)
        .collect();
    let (hash, cpc) = digest(&sim_set);
    out.set("sim_cells_per_cycle", cpc);
    out.note(format!(
        "digest {hash:016x} over {} requests",
        sim_set.len()
    ));
    out.note(format!(
        "loop: {} tasks, mean {:.0} cells, in {:.2} s wall and {:.2} s CPU",
        done.len(),
        cells as f64 / done.len().max(1) as f64,
        ms_between(start, stop) / 1e3,
        cpu_ms / 1e3
    ));

    if run.trace {
        let spans_timed = tr.len();
        let staged = crate::stages::replay(&reqs[..REPLAY], TierPolicy::default(), &mut tr);
        out.layer_metrics(&staged, &done, &sim_set);
        out.set("serve.wait_ms", 0.0);
        out.set("serve.batch_tasks", 0.0);
        // The stage spans against one-shot calls of the same tasks, timed
        // next to them; and those calls against the same tasks' latency in
        // the loop, to show the replay is representative.
        let accounted = out.metrics["stages.accounted_frac"];
        let oneshot_ms: f64 = staged.iter().map(|s| s.oneshot_ms).sum();
        let loop_ms: f64 = done[..REPLAY].iter().map(|d| d.cpu_ms).sum();
        out.note(format!(
            "stage spans account for {:.1}% of the one-shot latency of the same {REPLAY} tasks \
             (tolerance 90-110%): {}; those one-shot calls took {:.1}% of the loop's time for them",
            accounted * 100.0,
            if (0.9..=1.1).contains(&accounted) {
                "yes"
            } else {
                "NO"
            },
            100.0 * oneshot_ms / loop_ms
        ));
        crate::finish_trace(run, &mut out, tr, spans_timed, done.len());
    }
    out
}
