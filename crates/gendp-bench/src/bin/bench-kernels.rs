//! Hot-path benchmark: the six evaluated kernels (BSW, PairHMM, POA,
//! Chain, DTW, Bellman-Ford) at fixed task sizes, BSW both scalar and in
//! its packed 8-bit SIMD form (`bsw_simd`), each measured across
//! the execution tiers of the unified [`Accelerator`] lifecycle. Tier
//! selection goes exclusively through [`TierPolicy`]; each measured row
//! records the tier the policy *resolved* to, read back from the
//! [`RunStats`](gendp::dpax::RunStats) provenance the run stamps.
//!
//! * **interpreted** (the *before* side): the per-run path the crate had
//!   before the decoded engine — every repetition regenerates, verifies
//!   and interprets the programs (`run_task` under
//!   `TierPolicy::interpreted()`).
//! * **decoded**: the pre-decoded hot path — programs are generated,
//!   lowered and verified once ([`Accelerator::prepare`]), and each
//!   repetition pays only `PreparedTask::execute`, i.e. the event-driven
//!   simulation itself.
//! * **functional** (where the driver lowers one): the batched
//!   wavefront sweep that skips per-cycle simulation entirely. The
//!   prepared task's first execution simulates and keeps its statistics
//!   (untimed, outside the samples); every timed execution after it is
//!   functional and reports those statistics, so its DP cells and cycles
//!   equal the decoded side's (asserted here). Kernels whose dependency
//!   pattern has no functional lowering yet run decoded under a
//!   functional request and emit no functional row.
//!
//! All tiers produce bit-identical functional results and statistics
//! (asserted here and covered by the engine-equivalence and
//! certificate-soundness suites); only the host-side cost differs.
//!
//! Each timed sample runs one side back to back as many times as its
//! warm-up run says fill [`SAMPLE_SECONDS`], and the report gives the
//! best sample's time per execution: a side that executes in
//! microseconds is still timed over milliseconds.
//!
//! Emits `BENCH_kernels.json` (schema `gendp-bench-kernels/v5`) with,
//! per kernel: DP cells, simulated cycles, cells/cycle
//! (machine-independent), and per tier the resolved-tier tag, host wall
//! time per execution, executions per timed sample, host cells/sec and
//! heap allocations per simulated cycle. `speedup` is interpreted-wall /
//! decoded-wall; `functional_speedup` is decoded-wall / functional-wall
//! and `functional_vs_interpreted` is interpreted-wall / functional-wall
//! (both absent when the tier does not engage).
//!
//! Flags:
//! * `--quick` — reduced task sizes, more samples (CI smoke).
//! * `--out <path>` — where to write the JSON (default
//!   `BENCH_kernels.json`).
//! * `--baseline <path>` — compare against a committed baseline and exit
//!   non-zero if any kernel's simulated cells/cycle drifts, its
//!   decoded-vs-interpreted speedup falls below an absolute 1.5x floor,
//!   or the functional tier misses its floors (4.4x over decoded on
//!   the gated kernels, parity with decoded anywhere it engages). The
//!   baseline is read before the report is written, and a report whose
//!   `--out` is the baseline itself is not written: a check never
//!   overwrites the file it checks against.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use gendp::core::{pack_lanes, BellmanFordTask, ChainTask, PoaTask, WavefrontTask};
use gendp::core::{GendpPipeline, Wavefront2d};
use gendp::dpax::{Tier, TierPolicy};
use gendp::kernels::bellman_ford::random_roadmap;
use gendp::kernels::chain::ChainParams;
use gendp::kernels::pairhmm::PairHmmParams;
use gendp::kernels::poa::Poa;
use gendp::kernels::Scoring;
use gendp::seq::{extract_anchors, DnaSeq, Genome, KmerIndex, MutationProfile};
use gendp::{AccelConfig, Accelerator, TaskOutput};
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// Counts every heap allocation, so the report can show the decoded
/// engine's allocation-free runs against the interpreter's per-cycle
/// temporaries.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One tier's host-side measurement of a fixed task. `tier` is the
/// resolved execution tier read back from the run's provenance, not the
/// requested one — the measured row names what actually ran.
struct TierSide {
    tier: Tier,
    /// Best sample's wall time per execution.
    wall_seconds: f64,
    /// Executions per timed sample.
    execs: u32,
    cells_per_sec: f64,
    allocs_per_cycle: f64,
}

/// One kernel's benchmark row.
struct KernelBench {
    name: &'static str,
    cells: u64,
    cycles: u64,
    cells_per_cycle: f64,
    decoded: TierSide,
    interpreted: TierSide,
    /// Present only when the functional tier engages for this kernel.
    functional: Option<TierSide>,
    speedup: f64,
    functional_speedup: Option<f64>,
    functional_vs_interpreted: Option<f64>,
}

/// Wall time one timed sample should cover. Timing a single execution
/// of a microsecond-scale side (the `--quick` dtw functional sweep runs
/// in about 6 µs) puts its min-of-reps ratio at the mercy of timer and
/// scheduler noise; a sample of many back-to-back executions does not.
/// Samples stay short enough that the sides, interleaved sample by
/// sample, all see the same phases of a shared host's speed.
const SAMPLE_SECONDS: f64 = 0.001;

/// One measured side of a kernel: a repeatable runner plus its
/// accumulated timing. All executions are identical by construction;
/// the *minimum* per-execution time over the samples is reported — the
/// sample least perturbed by scheduler noise is the best estimate of the
/// true cost.
struct Runner<'a> {
    run: Box<dyn FnMut() -> (Tier, u64, u64) + 'a>,
    tier: Tier,
    cells: u64,
    cycles: u64,
    /// Executions per timed sample, sized from the warm-up run.
    execs: u32,
    best: f64,
    allocs: u64,
}

impl<'a> Runner<'a> {
    /// Wraps a runner, executing it once as warm-up outside the timed
    /// window (first-touch page faults, lazily initialized LUTs),
    /// recording the invariants every later execution must reproduce and
    /// sizing the samples from the warm-up's wall time.
    fn new(mut run: Box<dyn FnMut() -> (Tier, u64, u64) + 'a>) -> Self {
        let start = Instant::now();
        let (tier, cells, cycles) = run();
        let warm = start.elapsed().as_secs_f64();
        let execs = (SAMPLE_SECONDS / warm.max(1e-9)).ceil().clamp(1.0, 1e6) as u32;
        Runner {
            run,
            tier,
            cells,
            cycles,
            execs,
            best: f64::INFINITY,
            allocs: 0,
        }
    }

    fn side(&self, reps: u32) -> TierSide {
        let execs = u64::from(reps) * u64::from(self.execs);
        TierSide {
            tier: self.tier,
            wall_seconds: self.best,
            execs: self.execs,
            cells_per_sec: if self.best > 0.0 {
                self.cells as f64 / self.best
            } else {
                0.0
            },
            allocs_per_cycle: self.allocs as f64 / (self.cycles as f64 * execs as f64),
        }
    }
}

/// Times every side round-robin — rep 1 of each side, then rep 2 of
/// each, … — instead of finishing one side before starting the next.
/// The report's headline numbers are *ratios between sides*, and
/// sequential timing feeds systematic drift (CPU frequency scaling,
/// background load arriving mid-suite) entirely into one side of a
/// ratio; interleaving spreads it evenly so the min-of-reps ratios
/// converge even on a noisy host.
fn time_interleaved(reps: u32, runners: &mut [Runner]) {
    for _ in 0..reps {
        for r in runners.iter_mut() {
            let allocs_before = ALLOCS.load(Ordering::Relaxed);
            let start = Instant::now();
            for _ in 0..r.execs {
                let again = (r.run)();
                assert_eq!(
                    again,
                    (r.tier, r.cells, r.cycles),
                    "non-deterministic benchmark task"
                );
            }
            let elapsed = start.elapsed().as_secs_f64() / f64::from(r.execs);
            r.allocs += ALLOCS.load(Ordering::Relaxed) - allocs_before;
            r.best = r.best.min(elapsed);
        }
    }
}

/// Benchmarks one accelerator+task across every tier that engages: the
/// prepared decoded hot loop and the functional sweep against the full
/// per-run interpreted path.
fn bench<A, F>(name: &'static str, reps: u32, build: F, task: &A::Task<'_>) -> KernelBench
where
    A: Accelerator,
    F: Fn() -> A,
{
    // Prepare once per side (codegen + lowering, untimed); the timed
    // windows cover only the per-repetition execution.
    // Decoded: the decoded hot loop.
    let accel = build().configure(AccelConfig::new().tiers(TierPolicy::decoded()));
    let mut prep_dec = accel.prepare(task);
    // Functional fast path, where the driver lowers one: its first
    // execution simulates and keeps the statistics later functional
    // executions report. Runs decoded otherwise — detected through the
    // resolved provenance, so this harness stays engine-generic.
    let accel = build().configure(AccelConfig::new().tiers(TierPolicy::functional()));
    let mut prep_fun = accel.prepare(task);
    prep_fun.execute().unwrap_or_else(|e| panic!("{name}: {e}"));
    let fun_engages = prep_fun.resolved_tier() == Tier::Functional;
    // Before: the one-shot path, regenerating and re-verifying per run.
    let accel_int = build().configure(AccelConfig::new().tiers(TierPolicy::interpreted()));

    let mut runners = Vec::new();
    runners.push(Runner::new(Box::new(move || {
        let stats = prep_dec.execute().unwrap_or_else(|e| panic!("{name}: {e}"));
        (stats.tier, stats.cells(), stats.cycles)
    })));
    if fun_engages {
        runners.push(Runner::new(Box::new(move || {
            let stats = prep_fun.execute().unwrap_or_else(|e| panic!("{name}: {e}"));
            (stats.tier, stats.cells(), stats.cycles)
        })));
    }
    runners.push(Runner::new(Box::new(move || {
        let out = accel_int
            .run_task(task)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let stats = out.stats();
        (stats.tier, stats.cells(), stats.cycles)
    })));
    time_interleaved(reps, &mut runners);

    let mut sides = runners.into_iter();
    let decoded_r = sides.next().expect("decoded side");
    let functional_r = fun_engages.then(|| sides.next().expect("functional side"));
    let interpreted_r = sides.next().expect("interpreted side");

    let (cells, cycles) = (decoded_r.cells, decoded_r.cycles);
    assert_eq!(
        (cells, cycles),
        (interpreted_r.cells, interpreted_r.cycles),
        "{name}: tiers disagree on simulated work"
    );
    if let Some(f) = &functional_r {
        assert_eq!(
            (cells, cycles),
            (f.cells, f.cycles),
            "{name}: the functional tier disagrees on simulated work"
        );
    }
    let decoded = decoded_r.side(reps);
    let interpreted = interpreted_r.side(reps);
    let functional = functional_r.map(|f| f.side(reps));
    assert_eq!(decoded.tier, Tier::Decoded, "{name}: decoded provenance");
    assert_eq!(
        interpreted.tier,
        Tier::Interpreted,
        "{name}: interpreted provenance"
    );
    KernelBench {
        name,
        cells,
        cycles,
        cells_per_cycle: cells as f64 / cycles as f64,
        speedup: interpreted.wall_seconds / decoded.wall_seconds,
        functional_speedup: functional
            .as_ref()
            .map(|f| decoded.wall_seconds / f.wall_seconds),
        functional_vs_interpreted: functional
            .as_ref()
            .map(|f| interpreted.wall_seconds / f.wall_seconds),
        decoded,
        interpreted,
        functional,
    }
}

fn codes(s: &DnaSeq) -> Vec<i32> {
    s.codes().iter().map(|&c| c as i32).collect()
}

fn run_suite(quick: bool) -> Vec<KernelBench> {
    // Samples per side: the minimum over many short interleaved samples
    // catches every side in the host's fast phases.
    let reps = if quick { 50 } else { 20 };
    let mut rng = SmallRng::seed_from_u64(2023);
    let mut out = Vec::new();

    // BSW: local alignment of a mutated window against its source.
    let (tn, qn) = if quick { (32, 24) } else { (96, 72) };
    let scoring = Scoring::bwa_mem();
    let t = DnaSeq::random(tn, &mut rng);
    let q = MutationProfile::illumina().apply(&t.window(2, qn), &mut rng);
    let (rows, cols) = (codes(&t), codes(&q));
    let task = WavefrontTask {
        rows: &rows,
        cols: &cols,
        n_pes: 4,
        band: None,
    };
    out.push(bench::<Wavefront2d, _>(
        "bsw",
        reps,
        || GendpPipeline::bsw(&scoring),
        &task,
    ));

    // SIMD BSW: four such alignments in the 8-bit lanes of one Int8x4
    // table. Drawn from their own generator, so the other kernels keep
    // their tasks.
    let mut simd_rng = SmallRng::seed_from_u64(2024);
    let pairs: [(Vec<u8>, Vec<u8>); 4] = std::array::from_fn(|_| {
        let t = DnaSeq::random(tn, &mut simd_rng);
        let q = MutationProfile::illumina().apply(&t.window(2, qn), &mut simd_rng);
        (t.codes(), q.codes())
    });
    let rows = pack_lanes(pairs.each_ref().map(|(t, _)| &t[..]));
    let cols = pack_lanes(pairs.each_ref().map(|(_, q)| &q[..]));
    let task = WavefrontTask {
        rows: &rows,
        cols: &cols,
        n_pes: 4,
        band: None,
    };
    out.push(bench::<Wavefront2d, _>(
        "bsw_simd",
        reps,
        || GendpPipeline::bsw_simd(&scoring),
        &task,
    ));

    // PairHMM: fixed-point log-space forward.
    let (hn, rn) = if quick { (32, 24) } else { (72, 56) };
    let hap = DnaSeq::random(hn, &mut rng);
    let read = MutationProfile::illumina().apply(&hap.window(2, rn), &mut rng);
    let (rows, cols) = (codes(&read), codes(&hap));
    let task = WavefrontTask {
        rows: &rows,
        cols: &cols,
        n_pes: 4,
        band: None,
    };
    out.push(bench::<Wavefront2d, _>(
        "pairhmm",
        reps,
        || GendpPipeline::pairhmm(&PairHmmParams::gatk(), 30, 1024, rows.len()),
        &task,
    ));

    // POA: probe vs a two-sequence graph.
    let truth_len = if quick { 30 } else { 56 };
    let truth = DnaSeq::random(truth_len, &mut rng);
    let mut graph = Poa::new();
    graph.add_sequence(&truth, &Scoring::racon());
    graph.add_sequence(
        &MutationProfile::nanopore().apply(&truth, &mut rng),
        &Scoring::racon(),
    );
    let probe = MutationProfile::nanopore().apply(&truth, &mut rng);
    let task = PoaTask {
        graph: &graph,
        seq: &probe,
        n_pes: 4,
    };
    out.push(bench(
        "poa",
        reps,
        || GendpPipeline::poa(Scoring::racon()),
        &task,
    ));

    // Chain: anchors from a mutated read against an indexed genome.
    let n_pes = 8;
    let params = ChainParams {
        n_prev: n_pes,
        ..ChainParams::minimap2(15.0)
    };
    let genome_len = if quick { 400 } else { 1200 };
    let genome = Genome::random(genome_len, &mut rng);
    let index = KmerIndex::build(genome.seq(), 15);
    let read_src = genome.window(10, if quick { 120 } else { 400 });
    let read = MutationProfile::nanopore().apply(&read_src, &mut rng);
    let anchors = extract_anchors(&index, &read);
    assert!(anchors.len() >= 4, "anchor workload collapsed");
    let task = ChainTask {
        anchors: &anchors,
        n_pes,
    };
    out.push(bench("chain", reps, || GendpPipeline::chain(params), &task));

    // DTW: full table between two signals.
    let (xn, yn) = if quick { (15, 12) } else { (48, 40) };
    let xs: Vec<i32> = (0..xn).map(|_| rng.gen_range(0..200)).collect();
    let ys: Vec<i32> = (0..yn).map(|_| rng.gen_range(0..200)).collect();
    let task = WavefrontTask {
        rows: &xs,
        cols: &ys,
        n_pes: 4,
        band: None,
    };
    out.push(bench::<Wavefront2d, _>(
        "dtw",
        reps,
        GendpPipeline::dtw,
        &task,
    ));

    // Bellman-Ford: full relaxation on a random roadmap.
    let n_vertices = if quick { 20 } else { 48 };
    let graph = random_roadmap(n_vertices, 2, 5, &mut rng);
    let task = BellmanFordTask {
        graph: &graph,
        source: 0,
        rounds: graph.vertex_count() - 1,
    };
    out.push(bench(
        "bellman_ford",
        reps,
        GendpPipeline::bellman_ford,
        &task,
    ));

    out
}

fn render_json(quick: bool, rows: &[KernelBench]) -> String {
    let side = |e: &TierSide| {
        format!(
            "{{ \"tier\": \"{}\", \"wall_seconds\": {:.7}, \"execs_per_sample\": {}, \
             \"cells_per_sec\": {:.1}, \"allocs_per_cycle\": {:.4} }}",
            e.tier, e.wall_seconds, e.execs, e.cells_per_sec, e.allocs_per_cycle
        )
    };
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str("  \"kernels\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let functional = r.functional.as_ref().map_or("null".to_string(), side);
        let ratio = |v: Option<f64>| v.map_or("null".to_string(), |v| format!("{v:.3}"));
        s.push_str(&format!(
            "    {{\n      \"name\": \"{}\",\n      \"cells\": {},\n      \
             \"cycles\": {},\n      \"cells_per_cycle\": {:.6},\n      \
             \"decoded\": {},\n      \"interpreted\": {},\n      \
             \"functional\": {},\n      \"speedup\": {:.3},\n      \
             \"functional_speedup\": {},\n      \
             \"functional_vs_interpreted\": {}\n    }}{}\n",
            r.name,
            r.cells,
            r.cycles,
            r.cells_per_cycle,
            side(&r.decoded),
            side(&r.interpreted),
            functional,
            r.speedup,
            ratio(r.functional_speedup),
            ratio(r.functional_vs_interpreted),
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Extracts `"key": <number>` occurring after the kernel's name tag.
/// Minimal by design: the file is machine-written by this binary.
fn extract_metric(json: &str, kernel: &str, key: &str) -> Option<f64> {
    let tag = format!("\"name\": \"{kernel}\"");
    let at = json.find(&tag)? + tag.len();
    let rest = &json[at..];
    // Stay inside this kernel's object.
    let end = rest.find("\"name\":").unwrap_or(rest.len());
    let scope = &rest[..end];
    let kt = format!("\"{key}\":");
    let ka = scope.find(&kt)? + kt.len();
    let num: String = scope[ka..]
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e')
        .collect();
    num.parse().ok()
}

/// Every kernel must keep at least this decoded-vs-interpreted speedup.
/// Wall-clock ratios swing with host load (the committed baseline was
/// measured at 3.8-6.1x), so the gate is an absolute floor — generous
/// enough for timing noise, tight enough to catch the decoded engine
/// degenerating back to interpreter-level throughput.
const MIN_SPEEDUP: f64 = 1.5;

/// The functional tier must beat the decoded engine by at least this
/// factor on the gated kernels ([`FUNCTIONAL_GATED`]): the decoded engine
/// is what a functional request would run without the tier, so this is
/// the ratio the tier has to earn. Ten quick runs on a 2-vCPU container
/// read bsw at 6.54-6.97x decoded, bsw_simd at 9.56-9.88x and dtw at
/// 5.95-6.40x; the floor sits at three quarters of the lowest reading
/// (dtw), so host load alone does not fail it, while a sweep that lost
/// its lanes (bsw 3.0x, dtw 4.0x on the row-by-row sweep) does.
const MIN_FUNCTIONAL_RATIO: f64 = 4.4;

/// Kernels whose functional speedup is gated at [`MIN_FUNCTIONAL_RATIO`].
/// Everywhere else the tier engages it only has to clear parity (1x).
const FUNCTIONAL_GATED: [&str; 3] = ["bsw", "bsw_simd", "dtw"];

/// Compares the fresh report against a committed baseline. The simulated
/// cells/cycle is deterministic and must match; the host-measured ratios
/// only have to clear their absolute floors.
fn check_baseline(baseline: &str, rows: &[KernelBench]) -> Result<(), String> {
    let mut problems = Vec::new();
    for r in rows {
        if let Some(base_cpc) = extract_metric(baseline, r.name, "cells_per_cycle") {
            let drift = (r.cells_per_cycle - base_cpc).abs() / base_cpc.max(1e-12);
            // The simulated rate only changes when kernels or codegen
            // change; those changes must come with a refreshed baseline.
            if drift > 0.25 {
                problems.push(format!(
                    "{}: cells/cycle {:.6} drifted from baseline {:.6}",
                    r.name, r.cells_per_cycle, base_cpc
                ));
            }
        } else {
            problems.push(format!("{}: missing from baseline", r.name));
        }
        if r.speedup < MIN_SPEEDUP {
            problems.push(format!(
                "{}: decoded-engine speedup {:.2}x below the {MIN_SPEEDUP}x floor",
                r.name, r.speedup
            ));
        }
        let gated = FUNCTIONAL_GATED.contains(&r.name);
        match r.functional_speedup {
            Some(f) if gated && f < MIN_FUNCTIONAL_RATIO => problems.push(format!(
                "{}: functional speedup {:.2}x below the {MIN_FUNCTIONAL_RATIO}x \
                 floor vs decoded",
                r.name, f
            )),
            Some(f) if f < 1.0 => problems.push(format!(
                "{}: functional tier engaged but ran {:.2}x decoded (sub-parity)",
                r.name, f
            )),
            None if gated => problems.push(format!(
                "{}: functional tier did not engage on a gated kernel",
                r.name
            )),
            _ => {}
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The report schema this binary writes and checks baselines against.
const SCHEMA: &str = "gendp-bench-kernels/v5";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_kernels.json".to_string());
    let baseline_path = flag_value(&args, "--baseline");

    // Read the baseline before anything is written, so that a report
    // written to the same path can never be checked against itself.
    let baseline = baseline_path.as_ref().map(|path| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
        // Schema sanity: the baseline must be a bench-kernels report.
        if !text.contains(&format!("\"schema\": \"{SCHEMA}\"")) {
            eprintln!("baseline {path} is not a {SCHEMA} report");
            std::process::exit(2);
        }
        (path, text)
    });

    let rows = run_suite(quick);

    println!(
        "{:<13} {:>9} {:>9} {:>11} {:>13} {:>13} {:>13} {:>8} {:>9} {:>9}",
        "kernel",
        "cells",
        "cycles",
        "cells/cycle",
        "int cells/s",
        "dec cells/s",
        "func cells/s",
        "speedup",
        "func/dec",
        "func/int"
    );
    for r in &rows {
        let fmt_ratio = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.1}x"));
        let func_rate = r
            .functional
            .as_ref()
            .map_or("-".to_string(), |f| format!("{:.0}", f.cells_per_sec));
        println!(
            "{:<13} {:>9} {:>9} {:>11.4} {:>13.0} {:>13.0} {:>13} {:>7.2}x {:>9} {:>9}",
            r.name,
            r.cells,
            r.cycles,
            r.cells_per_cycle,
            r.interpreted.cells_per_sec,
            r.decoded.cells_per_sec,
            func_rate,
            r.speedup,
            fmt_ratio(r.functional_speedup),
            fmt_ratio(r.functional_vs_interpreted),
        );
    }

    let check = baseline
        .as_ref()
        .map(|(path, text)| (path, check_baseline(text, &rows)));
    let same_file = |a: &str, b: &str| match (std::fs::canonicalize(a), std::fs::canonicalize(b)) {
        (Ok(a), Ok(b)) => a == b,
        _ => false,
    };
    if baseline_path
        .as_deref()
        .is_some_and(|b| same_file(b, &out_path))
    {
        println!("\nnot writing {out_path}: it is the baseline being checked");
    } else {
        let json = render_json(quick, &rows);
        std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
        println!("\nwrote {out_path}");
    }

    match check {
        Some((path, Ok(()))) => println!("baseline check vs {path}: ok"),
        Some((path, Err(problems))) => {
            eprintln!("baseline check vs {path} FAILED:\n{problems}");
            std::process::exit(1);
        }
        None => {}
    }
}
