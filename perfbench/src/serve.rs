//! `reads-repeat` and `serve-mixed`: request traffic to an in-process
//! `Server` with one shard of one device worker.
//!
//! Each run starts the server several times to time set-up, and drives
//! the middle one through three phases from one submitting and one
//! receiving thread:
//!
//! 1. capacity: a closed loop with a fixed number of requests outstanding;
//! 2. sequential: a closed loop with one request outstanding, so each
//!    request's CPU time (every thread of the process, from submit to
//!    delivery) is its own;
//! 3. open loop: Poisson arrivals at fixed rates, each request timed on
//!    the benchmark's wall clock from the moment it was due.
//!
//! The end-to-end metrics come from the CPU clocks of phases 1 and 2,
//! which a shared host's steal does not move; the open loop's wall-clock
//! latencies are diagnostics and per-layer metrics.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use gendp::dpax::TierPolicy;
use gendp::runtime::{DeviceConfig, TaskValue};
use gendp::serve::{
    duplex, PipeReader, PipeWriter, Priority, ServeConfig, Server, TenantClient, TenantConfig,
    Ticket, WireClient, WireOutcome,
};
use rand::rngs::SmallRng;

use crate::gen::{self, Req, MIX};
use crate::measure::{beyond, median, ms, quantile, sleep_until, threads, Cpu};
use crate::report::{digest, Done, Outcome};
use crate::trace::Tracer;
use crate::Run;

/// Set-ups per run; `setup_s` is the median of their process CPU times.
/// The middle one runs the timed phases, so the others fall before and
/// after them rather than in one stretch of the host's time.
const SETUP_REPS: usize = 21;
/// Share of `--seconds` spent in the capacity phase.
const CAPACITY_SHARE: f64 = 0.4;
/// Share of `--seconds` spent in the sequential phase; the open loop takes
/// the rest.
const SEQUENTIAL_SHARE: f64 = 0.4;
/// Request ids: the open loop's are their index; the closed loops' carry
/// their phase in the bits above [`PHASE_SHIFT`].
const PHASE_SHIFT: u32 = 40;
/// Open-loop requests replayed stage by stage in a traced run.
const REPLAY: usize = 27;
/// Longest a request may stay undelivered after its phase before the run
/// is declared stuck.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// How one serve workload sends its traffic.
pub struct Shape {
    /// Tenants, highest priority first.
    tenants: Vec<TenantConfig>,
    /// Tier policy the server requests.
    tiers: TierPolicy,
    /// Requests go over one in-process wire connection.
    wire: bool,
    /// Closed-loop outstanding requests.
    outstanding: usize,
    /// Open-loop rate per tenant, requests/s.
    rates: Vec<f64>,
    /// Fixed tail percentile of all latencies of a phase.
    tail_q: f64,
    /// Fixed tail percentile of the first tenant's latencies.
    first_tail_q: f64,
    /// Distinct shapes or kinds (one warm-up request each).
    warmups: fn(&mut SmallRng) -> Vec<(usize, gendp::runtime::Task)>,
    /// The `k`-th request of a closed loop: (tenant, task).
    closed: fn(&mut SmallRng, usize) -> (usize, gendp::runtime::Task),
    /// The `i`-th open-loop task of a tenant.
    open: fn(&mut SmallRng, usize, usize) -> gendp::runtime::Task,
}

/// `reads-repeat`: one tenant, default tiers, in-process client.
pub fn reads_repeat() -> Shape {
    Shape {
        tenants: vec![TenantConfig::new("reads")],
        tiers: TierPolicy::default(),
        wire: false,
        outstanding: 8,
        rates: vec![50.0],
        tail_q: 0.95,
        first_tail_q: 0.95,
        warmups: |r| {
            (0..gen::READ_SHAPE_COUNT)
                .map(|s| (0, gen::read_task(r, s)))
                .collect()
        },
        closed: |r, k| (0, gen::read_task(r, k % gen::READ_SHAPE_COUNT)),
        open: |r, _, _| gen::random_read_task(r),
    }
}

/// `serve-mixed`: the three `bench-serve` tenants over the wire, with the
/// functional tier requested.
pub fn serve_mixed() -> Shape {
    let priorities = [Priority::Interactive, Priority::Normal, Priority::Batch];
    Shape {
        tenants: MIX
            .iter()
            .zip(priorities)
            .map(|(t, p)| {
                let c = TenantConfig::new(t.name).priority(p);
                if p == Priority::Interactive {
                    c.weight(2)
                } else {
                    c
                }
            })
            .collect(),
        tiers: TierPolicy::functional(),
        wire: true,
        outstanding: 9,
        rates: vec![30.0; 3],
        tail_q: 0.95,
        first_tail_q: 0.95,
        warmups: |r| {
            MIX.iter()
                .enumerate()
                .flat_map(|(t, m)| (0..m.kinds).map(move |i| (t, i)))
                .map(|(t, i)| (t, MIX[t].task(r, i)))
                .collect()
        },
        closed: |r, k| (k % 3, MIX[k % 3].task(r, k / 3)),
        open: |r, t, i| MIX[t].task(r, i),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Open,
    Capacity,
    Sequential,
}

impl Phase {
    /// The phase a request id belongs to.
    fn of(id: u64) -> Phase {
        match id >> PHASE_SHIFT {
            0 => Phase::Open,
            1 => Phase::Capacity,
            _ => Phase::Sequential,
        }
    }

    /// The id of the phase's `k`-th request.
    fn id(self, k: usize) -> u64 {
        (self as u64) << PHASE_SHIFT | k as u64
    }
}

/// How a request left the submitting thread.
enum Sent {
    Ticket(Ticket),
    Wire(u64),
}

/// Bookkeeping of one submitted request.
#[derive(Debug, Clone, Copy)]
struct Meta {
    phase: Phase,
    idx: usize,
    due: Instant,
    submit_ms: f64,
    /// Process CPU time just before the submit call.
    cpu_sent: Duration,
}

/// One submitted request, handed to the receiving thread.
struct InFlight {
    meta: Meta,
    sent: Result<Sent, String>,
}

/// The submitting side of a session.
enum Submitter<'a> {
    Local(Vec<TenantClient>),
    Wire(WireClient<io::Empty, PipeWriter>, &'a [String]),
}

impl Submitter<'_> {
    fn send(&mut self, req: &Req) -> Result<Sent, String> {
        let task = req.task.clone();
        match self {
            Submitter::Local(clients) => clients[req.tenant]
                .submit(task)
                .map(Sent::Ticket)
                .map_err(|e| e.to_string()),
            Submitter::Wire(client, names) => client
                .submit(&names[req.tenant], task)
                .map(Sent::Wire)
                .map_err(|e| e.to_string()),
        }
    }
}

/// A delivery as the receiving side saw it: value, cycles, and cells when
/// the transport reports them.
type Got = Result<(TaskValue, u64, Option<u64>), String>;

fn got_local(ticket: Ticket) -> Got {
    ticket
        .wait()
        .map(|c| (c.value, c.stats.cycles, Some(c.stats.cells())))
        .map_err(|e| e.to_string())
}

fn got_wire(outcome: WireOutcome) -> Got {
    match outcome {
        WireOutcome::Ok { value, cycles, .. } => Ok((value, cycles, None)),
        other => Err(format!("{other:?}")),
    }
}

fn done(req: &Req, f: &Meta, delivered: Instant, cpu_ms: f64, got: Got) -> Done {
    let (value, cycles, ok) = match got {
        Ok((v, cycles, cells)) => {
            let ok = v == req.expect && cells.is_none_or(|c| c == req.cells);
            (Some(v), cycles, ok)
        }
        Err(_) => (None, 0, false),
    };
    Done {
        id: req.id,
        tenant: req.tenant,
        kind: req.task.kernel(),
        due: f.due,
        delivered,
        value,
        ok,
        cells: req.cells,
        cycles,
        submit_ms: f.submit_ms,
        cpu_ms,
    }
}

/// Files a wire submission under its correlation id; one that never
/// reached the wire resolves at once.
fn file_wire(
    f: InFlight,
    pending: &mut HashMap<u64, Meta>,
    record: &mut impl FnMut(Meta, Instant, Got),
) {
    match f.sent {
        Ok(Sent::Wire(id)) => {
            pending.insert(id, f.meta);
        }
        Ok(Sent::Ticket(_)) => record(
            f.meta,
            Instant::now(),
            Err("ticket on a wire session".into()),
        ),
        Err(e) => record(f.meta, Instant::now(), Err(e)),
    }
}

/// Everything one run sends, generated before set-up.
struct Inputs {
    warmups: Vec<Vec<Req>>,
    capacity: Vec<Req>,
    sequential: Vec<Req>,
    open: Vec<Req>,
    /// Due offsets of `open`, seconds from the phase start.
    open_due: Vec<f64>,
}

impl Inputs {
    /// The request a phase sends `idx`-th; closed loops wrap their pool.
    fn get(&self, phase: Phase, idx: usize) -> &Req {
        let pool = match phase {
            Phase::Open => &self.open,
            Phase::Capacity => &self.capacity,
            Phase::Sequential => &self.sequential,
        };
        &pool[idx % pool.len()]
    }
}

/// About three times as many requests as a 2-vCPU Xeon host completes in
/// `seconds`; the pool wraps if a faster program needs more.
fn closed_pool(shape: &Shape, seed: u64, stream: u64, phase: Phase, seconds: f64) -> Vec<Req> {
    let mut r = gen::rng(seed, stream);
    (0..(seconds * 1000.0) as usize)
        .map(|k| {
            let (t, task) = (shape.closed)(&mut r, k);
            Req::new(phase.id(k), t, task)
        })
        .collect()
}

fn inputs(shape: &Shape, run: &Run) -> Inputs {
    let secs = run.seconds as f64;
    let open_s = secs * (1.0 - CAPACITY_SHARE - SEQUENTIAL_SHARE);
    let mut r = gen::rng(run.seed, 3);
    let warmups = (0..SETUP_REPS)
        .map(|rep| {
            (shape.warmups)(&mut r)
                .into_iter()
                .enumerate()
                .map(|(k, (t, task))| Req::new(u64::MAX - (rep * 64 + k) as u64, t, task))
                .collect()
        })
        .collect();
    let capacity = closed_pool(shape, run.seed, 4, Phase::Capacity, secs * CAPACITY_SHARE);
    let sequential = closed_pool(
        shape,
        run.seed,
        7,
        Phase::Sequential,
        secs * SEQUENTIAL_SHARE,
    );
    let mut r = gen::rng(run.seed, 5);
    let schedule = gen::poisson_schedule(&mut r, &shape.rates, open_s);
    let mut r = gen::rng(run.seed, 6);
    let open = schedule
        .iter()
        .enumerate()
        .map(|(k, &(_, t, i))| Req::new(k as u64, t, (shape.open)(&mut r, t, i)))
        .collect();
    Inputs {
        warmups,
        capacity,
        sequential,
        open,
        open_due: schedule.iter().map(|s| s.0).collect(),
    }
}

/// What the timed phases measured.
struct Measured {
    done: Vec<Done>,
    /// Wall and process CPU seconds of the capacity phase, drain included.
    capacity: (f64, f64),
    /// Wall seconds of the sequential phase.
    sequential_s: f64,
    lateness_ms: Vec<f64>,
    backlog: u64,
    batch_tasks: f64,
    max_threads: usize,
    spans: Tracer,
}

/// Runs a serve workload.
pub fn run(shape: &Shape, run: &Run) -> Outcome {
    let mut out = Outcome::new();
    let inputs = inputs(shape, run);
    let names: Vec<String> = shape.tenants.iter().map(|t| t.name.clone()).collect();
    let config = ServeConfig {
        shards: 1,
        shard_config: DeviceConfig {
            workers: 1,
            tiers: shape.tiers,
            ..DeviceConfig::default()
        },
        ..ServeConfig::default()
    };

    let mut setups = Vec::new();
    let mut measured = None;
    for (rep, warm) in inputs.warmups.iter().enumerate() {
        let timed = rep == SETUP_REPS / 2;
        let started = Cpu::Process.now();
        let mut server = Server::start(config, shape.tenants.clone()).expect("valid server config");
        thread::scope(|s| {
            let (mut submitter, mut receiver, conn) = if shape.wire {
                let ((client_r, client_w), (server_r, server_w)) = duplex();
                let server = &server;
                let conn = s.spawn(move || server.serve_connection(server_r, server_w));
                (
                    Submitter::Wire(WireClient::new(io::empty(), client_w), &names),
                    Some(WireClient::new(client_r, io::sink())),
                    Some(conn),
                )
            } else {
                let clients = names
                    .iter()
                    .map(|n| server.client(n).expect("tenant"))
                    .collect();
                (Submitter::Local(clients), None, None)
            };
            for req in warm {
                let got = match (submitter.send(req), receiver.as_mut()) {
                    (Ok(Sent::Ticket(t)), _) => got_local(t),
                    (Ok(Sent::Wire(_)), Some(rx)) => match rx.recv() {
                        Ok(Some(resp)) => got_wire(resp.outcome),
                        other => Err(format!("{other:?}")),
                    },
                    (Ok(Sent::Wire(_)), None) => unreachable!("wire submitter has a receiver"),
                    (Err(e), _) => Err(e),
                };
                let ok = matches!(&got, Ok((v, _, cells)) if *v == req.expect && cells.is_none_or(|c| c == req.cells));
                out.count(ok);
            }
            setups.push(Cpu::Process.secs_since(started));
            if timed {
                measured = Some(phases(shape, run, &inputs, &server, submitter, receiver));
            } else {
                drop(submitter);
                drop(receiver);
            }
            if let Some(conn) = conn {
                if let Err(e) = conn.join().expect("connection thread") {
                    out.correct = false;
                    out.note(format!("connection ended with {e}"));
                }
            }
        });
        server.shutdown();
    }
    out.set("setup_s", median(&setups));
    let mut measured = measured.expect("the middle set-up ran the phases");

    let mut mismatches: BTreeMap<&str, usize> = BTreeMap::new();
    for d in &measured.done {
        out.count(d.ok);
        if !d.ok {
            let idx = (d.id & ((1 << PHASE_SHIFT) - 1)) as usize;
            let req = inputs.get(Phase::of(d.id), idx);
            if mismatches.get(d.kind.name()).copied().unwrap_or(0) < 2 {
                out.note(format!(
                    "request {} ({:?}) delivered {:?}, reference {:?}",
                    d.id, req.task, d.value, req.expect
                ));
            }
            *mismatches.entry(d.kind.name()).or_default() += 1;
        }
    }
    if !mismatches.is_empty() {
        out.note(format!("mismatches by kind: {mismatches:?}"));
    }
    let in_phase = |phase: Phase| -> Vec<&Done> {
        measured
            .done
            .iter()
            .filter(|d| Phase::of(d.id) == phase)
            .collect()
    };

    let cap = in_phase(Phase::Capacity);
    let cap_cells: u64 = cap.iter().map(|d| d.cells).sum();
    let (wall_s, cpu_s) = measured.capacity;
    out.set("host_cells_per_s", cap_cells as f64 / cpu_s.max(1e-9));
    out.note(format!(
        "capacity: {} requests at {} outstanding in {wall_s:.2} s wall ({:.1} req/s) and {cpu_s:.2} s CPU",
        cap.len(),
        shape.outstanding,
        cap.len() as f64 / wall_s.max(1e-9),
    ));

    let seq = in_phase(Phase::Sequential);
    let cpu: Vec<f64> = seq.iter().map(|d| d.cpu_ms).collect();
    let first: Vec<f64> = seq
        .iter()
        .filter(|d| d.tenant == 0)
        .map(|d| d.cpu_ms)
        .collect();
    out.set("latency_p50_ms", median(&cpu));
    out.set("latency_tail_ms", quantile(&cpu, shape.tail_q));
    out.set("interactive_tail_ms", quantile(&first, shape.first_tail_q));
    out.note(format!(
        "sequential: {} requests in {:.2} s wall; CPU latency tail = p{} of {} ({} beyond); {} tail = p{} of {} ({} beyond)",
        seq.len(),
        measured.sequential_s,
        shape.tail_q * 100.0,
        cpu.len(),
        beyond(cpu.len(), shape.tail_q),
        names[0],
        shape.first_tail_q * 100.0,
        first.len(),
        beyond(first.len(), shape.first_tail_q),
    ));

    let open = in_phase(Phase::Open);
    let lat: Vec<f64> = open.iter().map(|d| d.latency_ms()).collect();
    let first: Vec<f64> = open
        .iter()
        .filter(|d| d.tenant == 0)
        .map(|d| d.latency_ms())
        .collect();
    out.set("wall.latency_ms.p50", median(&lat));
    out.set("wall.latency_ms.tail", quantile(&lat, shape.tail_q));
    let total_rate: f64 = shape.rates.iter().sum();
    out.note(format!(
        "open loop: {total_rate} req/s offered; wall latency p50 {:.3} ms, p{} {:.3} ms of {}; {} p{} {:.3} ms of {}",
        median(&lat),
        shape.tail_q * 100.0,
        quantile(&lat, shape.tail_q),
        lat.len(),
        names[0],
        shape.first_tail_q * 100.0,
        quantile(&first, shape.first_tail_q),
        first.len(),
    ));
    out.note(format!(
        "open loop: generator lateness p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms; backlog at phase end {}",
        median(&measured.lateness_ms),
        quantile(&measured.lateness_ms, 0.99),
        quantile(&measured.lateness_ms, 1.0),
        measured.backlog
    ));
    out.note(format!(
        "load: 1 submitting + 1 receiving thread, {} connection(s), {} threads in process at most",
        usize::from(shape.wire),
        measured.max_threads
    ));
    let (hash, cpc) = digest(&open);
    out.set("sim_cells_per_cycle", cpc);
    out.note(format!("digest {hash:016x} over {} requests", open.len()));

    if run.trace {
        let mut tr = std::mem::replace(&mut measured.spans, Tracer::new(run.epoch, false));
        let spans_timed = tr.len();
        let replay_set: Vec<Req> = inputs.open.iter().take(REPLAY).cloned().collect();
        let staged = crate::stages::replay(&replay_set, shape.tiers, &mut tr);
        out.layer_metrics(&staged, &measured.done, &open);
        let waits: Vec<f64> = staged
            .iter()
            .filter_map(|s| {
                let d = open.iter().find(|d| d.id == s.id)?;
                Some(d.latency_ms() - s.oneshot_ms)
            })
            .collect();
        out.set("serve.wait_ms", median(&waits));
        out.set("serve.batch_tasks", measured.batch_tasks);
        crate::finish_trace(run, &mut out, tr, spans_timed, measured.done.len());
    }
    out
}

/// The timed phases on a started, warmed server: the calling thread
/// submits, one spawned thread receives.
fn phases(
    shape: &Shape,
    run: &Run,
    inputs: &Inputs,
    server: &Server,
    mut submitter: Submitter<'_>,
    receiver: Option<WireClient<PipeReader, io::Sink>>,
) -> Measured {
    let delivered = AtomicU64::new(0);
    let (tx, rx) = mpsc::channel::<InFlight>();
    let (token_tx, token_rx) = mpsc::channel::<()>();
    thread::scope(|s| {
        let delivered = &delivered;
        let receiving = s.spawn(move || {
            let mut tr = Tracer::new(run.epoch, run.trace);
            let mut out = Vec::new();
            let mut record = |meta: Meta, at: Instant, got: Got| {
                // One request is outstanding in the sequential phase, so
                // the process CPU spent since its submit is its own.
                let cpu_ms = if meta.phase == Phase::Sequential {
                    Cpu::Process.secs_since(meta.cpu_sent) * 1e3
                } else {
                    0.0
                };
                let req = inputs.get(meta.phase, meta.idx);
                tr.record("serve.deliver", req.id, meta.due, at);
                out.push(done(req, &meta, at, cpu_ms, got));
                delivered.fetch_add(1, Ordering::AcqRel);
                // The submitter may have finished; nothing waits then.
                let _ = token_tx.send(());
            };
            match receiver {
                None => {
                    for InFlight { meta, sent } in rx {
                        let got = match sent {
                            Ok(Sent::Ticket(t)) => got_local(t),
                            Ok(Sent::Wire(id)) => Err(format!("wire id {id} on a local session")),
                            Err(e) => Err(e),
                        };
                        record(meta, Instant::now(), got);
                    }
                }
                Some(mut client) => {
                    // Responses come in completion order and may overtake
                    // the submitter's note of the request.
                    let mut pending: HashMap<u64, Meta> = HashMap::new();
                    loop {
                        if pending.is_empty() {
                            match rx.recv() {
                                Ok(f) => file_wire(f, &mut pending, &mut record),
                                Err(_) => break,
                            }
                            continue;
                        }
                        let response = client.recv();
                        let at = Instant::now();
                        let Ok(Some(response)) = response else {
                            let why = format!("connection ended: {response:?}");
                            for (_, meta) in pending.drain() {
                                record(meta, at, Err(why.clone()));
                            }
                            for f in rx.iter() {
                                record(f.meta, at, Err(why.clone()));
                            }
                            break;
                        };
                        while !pending.contains_key(&response.id) {
                            match rx.recv() {
                                Ok(f) => file_wire(f, &mut pending, &mut record),
                                Err(_) => break,
                            }
                        }
                        if let Some(meta) = pending.remove(&response.id) {
                            record(meta, at, got_wire(response.outcome));
                        }
                    }
                }
            }
            (out, tr)
        });

        let mut tr = Tracer::new(run.epoch, run.trace);
        let mut max_threads = threads();
        let mut send = |phase: Phase, idx: usize, due: Instant, tr: &mut Tracer| {
            let req = inputs.get(phase, idx);
            let open = tr.begin("serve.submit", req.id);
            let cpu_sent = Cpu::Process.now();
            let t = Instant::now();
            let sent = submitter.send(req);
            let submit_ms = ms(t.elapsed());
            tr.end(open);
            let meta = Meta {
                phase,
                idx,
                due,
                submit_ms,
                cpu_sent,
            };
            tx.send(InFlight { meta, sent })
                .expect("receiving thread is alive");
        };
        let wait_token = || {
            token_rx
                .recv_timeout(DRAIN_TIMEOUT)
                .expect("every request resolves within the drain timeout");
        };
        // A closed loop with `outstanding` requests in flight for `secs`,
        // then drained; returns its wall and process CPU seconds.
        let mut closed_loop = |phase: Phase, outstanding: usize, secs: f64, tr: &mut Tracer| {
            let start = Instant::now();
            let cpu = Cpu::Process.now();
            let end = start + Duration::from_secs_f64(secs);
            for k in 0..outstanding {
                send(phase, k, Instant::now(), tr);
            }
            let (mut next, mut in_flight) = (outstanding, outstanding);
            while in_flight > 0 {
                wait_token();
                in_flight -= 1;
                if Instant::now() < end {
                    send(phase, next, Instant::now(), tr);
                    next += 1;
                    in_flight += 1;
                    if next % 512 == 0 {
                        max_threads = max_threads.max(threads());
                    }
                }
            }
            (start.elapsed().as_secs_f64(), Cpu::Process.secs_since(cpu))
        };

        let secs = run.seconds as f64;
        let before = server.stats();
        let capacity = closed_loop(
            Phase::Capacity,
            shape.outstanding,
            secs * CAPACITY_SHARE,
            &mut tr,
        );
        let after = server.stats();
        let sum = |st: &gendp::serve::ServerStats| {
            st.shards.iter().fold((0u64, 0u64), |a, sh| {
                (a.0 + sh.completed, a.1 + sh.device.batches)
            })
        };
        let (c0, b0) = sum(&before);
        let (c1, b1) = sum(&after);
        let batch_tasks = (c1 - c0) as f64 / (b1 - b0).max(1) as f64;
        let (sequential_s, _) = closed_loop(Phase::Sequential, 1, secs * SEQUENTIAL_SHARE, &mut tr);

        // Open loop: Poisson arrivals at fixed rates, timed from due.
        let open_s = secs * (1.0 - CAPACITY_SHARE - SEQUENTIAL_SHARE);
        let open_start = Instant::now();
        let base = delivered.load(Ordering::Acquire);
        let mut lateness_ms = Vec::with_capacity(inputs.open.len());
        for (k, off) in inputs.open_due.iter().enumerate() {
            let due = open_start + Duration::from_secs_f64(*off);
            lateness_ms.push(sleep_until(due));
            send(Phase::Open, k, due, &mut tr);
            if k % 512 == 0 {
                max_threads = max_threads.max(threads());
            }
        }
        sleep_until(open_start + Duration::from_secs_f64(open_s));
        let backlog = inputs.open.len() as u64 - (delivered.load(Ordering::Acquire) - base);
        while delivered.load(Ordering::Acquire) - base < inputs.open.len() as u64 {
            wait_token();
        }
        drop(tx);
        drop(submitter);
        let (done, recv_tr) = receiving.join().expect("receiving thread");
        tr.absorb(recv_tr);
        Measured {
            done,
            capacity,
            sequential_s,
            lateness_ms,
            backlog,
            batch_tasks,
            max_threads,
            spans: tr,
        }
    })
}
