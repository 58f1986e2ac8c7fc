//! The device: array slots, placement, worker threads, batch execution,
//! and the fault-tolerance machinery (retry, quarantine, panic
//! containment).

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread;

use gendp_core::AccelConfig;
use gendp_dpax::{SimError, TierPolicy, INT_ARRAYS, PES_PER_ARRAY};

use crate::fault::{FaultConfig, FaultInjector};
use crate::recovery::{budget_scale, RetryPolicy, SlotHealth};
use crate::report::{ArrayReport, DeviceReport, KernelStats, RecoveryReport};
use crate::sync::lock_unpoisoned;
use crate::task::{ArrayClass, Task, TaskFailure, TaskResult, TaskValue};
use crate::templates::{TemplateCache, TemplateStats, TEMPLATE_BUDGET, TEMPLATE_SLOTS};

/// Device shape and execution parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceConfig {
    /// Integer PE arrays (paper Fig. 4: 16).
    pub int_arrays: usize,
    /// Floating-point PE arrays (paper Fig. 4: 1).
    pub float_arrays: usize,
    /// Processing elements per array (paper: 4).
    pub pes_per_array: usize,
    /// Host worker threads driving the simulated arrays, clamped to
    /// 1..=arrays: the thread calling [`Device::run_batch`] is worker 0
    /// and the batch spawns one more per accepted task beyond the first,
    /// up to `workers - 1`. Wall-clock throughput scales with this;
    /// simulated results never depend on it.
    pub workers: usize,
    /// How failed tasks are retried and failing arrays quarantined.
    pub retry: RetryPolicy,
    /// Deterministic fault injection for chaos testing; `None` (the
    /// default) injects nothing and costs nothing.
    pub fault: Option<FaultConfig>,
    /// Execution-tier selection applied to every task the device runs.
    /// All tiers are bit-identical in outputs and statistics, so results
    /// never depend on this. Under the functional tier each worker
    /// simulates a shape's first task and runs the shape's later tasks
    /// functionally on its kept template, reporting the simulated
    /// statistics.
    pub tiers: TierPolicy,
}

impl DeviceConfig {
    /// This config with its fault plan (if any) reseeded to `seed` —
    /// how a serving layer gives a replacement device an independent
    /// fault stream while keeping every other knob identical.
    pub fn with_fault_seed(mut self, seed: u64) -> DeviceConfig {
        if let Some(fault) = self.fault.as_mut() {
            fault.seed = seed;
        }
        self
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            int_arrays: INT_ARRAYS,
            float_arrays: 1,
            pes_per_array: PES_PER_ARRAY,
            workers: thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8),
            retry: RetryPolicy::default(),
            fault: None,
            tiers: TierPolicy::default(),
        }
    }
}

/// Why a batch (or, through [`BatchOutcome::into_strict`], one of its
/// tasks) failed.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// A task spent every retry attempt and failed for good.
    Task {
        /// Index of the failing task in the submitted batch.
        task: usize,
        /// Why its final attempt failed.
        failure: TaskFailure,
    },
    /// A task needs an array class the device has zero slots of. The
    /// batch is refused before any of its tasks runs.
    NoArray {
        /// Index of the first unplaceable task in the submitted batch.
        task: usize,
        /// The class it needed.
        class: ArrayClass,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Task { task, failure } => {
                write!(f, "task {task} failed: {failure}")
            }
            RuntimeError::NoArray { task, class } => {
                write!(
                    f,
                    "task {task} needs a {} array but the device has none",
                    match class {
                        ArrayClass::Int => "integer",
                        ArrayClass::Float => "floating-point",
                    }
                )
            }
        }
    }
}

impl Error for RuntimeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RuntimeError::Task { failure, .. } => failure
                .sim_error()
                .map(|error| error as &(dyn Error + 'static)),
            RuntimeError::NoArray { .. } => None,
        }
    }
}

/// A fully successful batch: one result per task, every one of them `Ok`.
/// The strict view of a [`BatchOutcome`].
#[must_use]
#[derive(Debug, Clone)]
pub struct BatchRun {
    /// One result per submitted task, in submission order.
    pub results: Vec<TaskResult>,
    /// Utilization of the device over the batch.
    pub report: DeviceReport,
}

/// The outcome of one executed batch: a per-task `Result` in submission
/// order plus the device utilization report. A failed task no longer
/// abandons its batch — every other task still completes and is
/// reported here.
#[must_use = "a batch outcome carries per-task failures that must be checked"]
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// One entry per submitted task, in submission order: the task's
    /// result, or why it failed for good after every allowed retry.
    pub results: Vec<Result<TaskResult, TaskFailure>>,
    /// Utilization and recovery statistics over the batch.
    pub report: DeviceReport,
}

impl BatchOutcome {
    /// Tasks that completed successfully.
    pub fn completed(&self) -> usize {
        self.results.iter().filter(|r| r.is_ok()).count()
    }

    /// Tasks that failed for good.
    pub fn failed(&self) -> usize {
        self.results.len() - self.completed()
    }

    /// True if every task completed.
    pub fn is_complete(&self) -> bool {
        self.results.iter().all(Result::is_ok)
    }

    /// The failed tasks, as `(task index, failure)` pairs.
    pub fn failures(&self) -> impl Iterator<Item = (usize, &TaskFailure)> {
        self.results
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().err().map(|f| (i, f)))
    }

    /// The successful results, in submission order.
    pub fn ok_results(&self) -> impl Iterator<Item = &TaskResult> {
        self.results.iter().filter_map(|r| r.as_ref().ok())
    }

    /// Collapses to the all-or-nothing view: the full [`BatchRun`] if
    /// every task completed, otherwise the first failure as a
    /// [`RuntimeError::Task`].
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed task failure, if any.
    pub fn into_strict(self) -> Result<BatchRun, RuntimeError> {
        let mut results = Vec::with_capacity(self.results.len());
        for (task, r) in self.results.into_iter().enumerate() {
            match r {
                Ok(result) => results.push(result),
                Err(failure) => return Err(RuntimeError::Task { task, failure }),
            }
        }
        Ok(BatchRun {
            results,
            report: self.report,
        })
    }

    /// A placement-independent canonical serialization of the outcome:
    /// one line per task with its id, value (floats as raw bits),
    /// simulated cycles and attempt count — everything deterministic
    /// under rate-based fault injection, and nothing (array, worker)
    /// that depends on placement. Two runs of the same batch with the
    /// same fault seed produce byte-identical fingerprints at any worker
    /// count, as long as [`FaultConfig::broken_slots`] is zero (broken
    /// slots are by design placement-dependent).
    pub fn fingerprint(&self) -> String {
        self.fingerprint_from(0)
    }

    /// [`fingerprint`](Self::fingerprint) with task ids offset by `base`:
    /// the shard-local half of a batch that was split across devices
    /// fingerprints under its *global* ids, so per-shard fingerprints
    /// concatenate into exactly the single-device fingerprint of the
    /// whole batch. Placement independence carries over: how the work was
    /// sharded never shows in the merged string.
    pub fn fingerprint_from(&self, base: usize) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (local, r) in self.results.iter().enumerate() {
            let i = base + local;
            match r {
                Ok(res) => {
                    let value = match &res.value {
                        TaskValue::Score(s) => format!("score:{s}"),
                        TaskValue::SimdScores(v) => format!("simd:{v:?}"),
                        TaskValue::LogLikelihood(v) => format!("loglik:{v}"),
                        TaskValue::Likelihood(v) => format!("lik:{:08x}", v.to_bits()),
                        TaskValue::Distance(d) => format!("dist:{d}"),
                        TaskValue::ChainScores(v) => format!("chain:{v:?}"),
                        TaskValue::Distances(v) => format!("bf:{v:?}"),
                    };
                    writeln!(
                        out,
                        "{i} ok {value} cycles:{} attempts:{}",
                        res.stats.cycles, res.attempts
                    )
                }
                Err(failure) => writeln!(out, "{i} err {failure}"),
            }
            .expect("writing to a String cannot fail");
        }
        out
    }
}

/// Point-in-time observable state of one array slot — what a serving
/// layer needs to make shard-aware placement and health decisions
/// without reaching into the device's internals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotSnapshot {
    /// Slot index on the device.
    pub index: usize,
    /// Integer or floating-point array.
    pub class: ArrayClass,
    /// Failed execution attempts on this slot since the last batch
    /// started ([`SlotHealth`] resets per batch).
    pub failures: u64,
    /// True if the quarantine state machine currently has this slot
    /// offline.
    pub quarantined: bool,
}

/// Point-in-time observable state of a [`Device`]: per-slot health
/// state plus recovery counters accumulated over every batch the device
/// has run ([`RecoveryReport::merge`]d batch by batch). Cheap to take — a
/// few atomic loads per slot — and safe to export from a monitoring or
/// serving layer at any time between batches.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSnapshot {
    /// One entry per array slot, in slot order.
    pub slots: Vec<SlotSnapshot>,
    /// Recovery counters summed over every batch this device has run.
    pub recovery: RecoveryReport,
    /// Batches the device has executed.
    pub batches: u64,
    /// Template-cache counters summed over the device's workers.
    pub templates: TemplateStats,
}

impl DeviceSnapshot {
    /// Slots of `class` currently accepting work (not quarantined).
    pub fn healthy_slots(&self, class: ArrayClass) -> usize {
        self.slots
            .iter()
            .filter(|s| s.class == class && !s.quarantined)
            .count()
    }

    /// Slots of `class` currently quarantined.
    pub fn quarantined_slots(&self, class: ArrayClass) -> usize {
        self.slots
            .iter()
            .filter(|s| s.class == class && s.quarantined)
            .count()
    }

    /// Total slots of `class` on the device, healthy or not.
    pub fn total_slots(&self, class: ArrayClass) -> usize {
        self.slots.iter().filter(|s| s.class == class).count()
    }

    /// True when some array class with more than one slot is down to at
    /// most one healthy slot — the quarantine machine's terminal state,
    /// since the last healthy slot of a class is never taken offline. A
    /// crippled device still limps along on that one slot, but a serving
    /// layer should treat it as a dying fault domain and replace it.
    pub fn is_crippled(&self) -> bool {
        [ArrayClass::Int, ArrayClass::Float].into_iter().any(|c| {
            let total = self.total_slots(c);
            total > 1 && self.healthy_slots(c) <= 1
        })
    }
}

/// One array slot: a simulated PE array. `pending_cells` is the
/// estimated work of the tasks claimed onto the slot and not yet
/// finished, which retry re-dispatch reads as the slot's load; `health`
/// drives the quarantine state machine.
struct ArraySlot {
    index: usize,
    class: ArrayClass,
    pending_cells: AtomicU64,
    health: SlotHealth,
}

/// Batch-scoped recovery counters, updated lock-free by the workers and
/// snapshotted into the [`RecoveryReport`] when the batch completes.
///
/// `touched` flips on the first bump of any counter; a batch where
/// nothing went wrong (the common zero-fault case) snapshots straight to
/// the default report without reading the individual counters.
#[derive(Default)]
struct RecoveryCounters {
    touched: AtomicBool,
    faults_injected: AtomicU64,
    panics_contained: AtomicU64,
    retries: AtomicU64,
    budget_escalations: AtomicU64,
    redispatches: AtomicU64,
    tasks_failed: AtomicU64,
    quarantined_arrays: AtomicU64,
    quarantine_refusals: AtomicU64,
    worker_respawns: AtomicU64,
}

impl RecoveryCounters {
    fn bump_on(&self, counter: &AtomicU64) {
        self.touched.store(true, Ordering::Relaxed);
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> RecoveryReport {
        if !self.touched.load(Ordering::Relaxed) {
            return RecoveryReport::default();
        }
        RecoveryReport {
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
            panics_contained: self.panics_contained.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            budget_escalations: self.budget_escalations.load(Ordering::Relaxed),
            redispatches: self.redispatches.load(Ordering::Relaxed),
            tasks_failed: self.tasks_failed.load(Ordering::Relaxed),
            quarantined_arrays: self.quarantined_arrays.load(Ordering::Relaxed),
            quarantine_refusals: self.quarantine_refusals.load(Ordering::Relaxed),
            worker_respawns: self.worker_respawns.load(Ordering::Relaxed),
        }
    }
}

/// Everything a worker needs to execute tasks: shared for the lifetime
/// of one batch, which the workers drain through the claim cursor `next`.
struct ExecCtx<'a> {
    slots: &'a [ArraySlot],
    config: &'a DeviceConfig,
    injector: Option<FaultInjector>,
    counters: &'a RecoveryCounters,
    /// The accepted tasks in submission order, each with its index in
    /// the batch and its position among the accepted tasks of its class.
    tasks: &'a [(usize, usize, Task)],
    /// Index into `tasks` of the next task to claim. `Relaxed` suffices:
    /// the read-modify-write hands each index out once, the tasks were
    /// shared before the workers started, and results travel through a
    /// lock.
    next: AtomicUsize,
    results: &'a Mutex<Vec<Option<Result<TaskResult, TaskFailure>>>>,
}

/// The simulated DPAx device: integer array slots plus the FP slot,
/// placed round-robin within each array class, and host workers that
/// claim a batch's tasks in submission order and drive the arrays.
///
/// Each submitted [`Task`] runs as one self-contained array simulation,
/// so its score and simulated cycle count are identical regardless of
/// placement or worker count — only wall-clock time and the per-array
/// load distribution change.
///
/// Each worker keeps the prepared tasks it ran as templates, keyed by
/// [`TaskShape`](crate::TaskShape) and kept across batches: a task whose
/// shape a worker has seen binds its content into the kept template and
/// skips program generation, decoding and verification
/// ([`DeviceSnapshot::templates`] counts hits, misses and evictions).
///
/// The device degrades rather than aborts: task failures are retried
/// under the configured [`RetryPolicy`] (with cycle-budget escalation for
/// timeouts and re-dispatch to a different array for everything else),
/// persistently failing array slots are quarantined, worker panics are
/// contained at the task boundary, and the batch always drains — failed
/// tasks surface per-task in the [`BatchOutcome`].
pub struct Device {
    config: DeviceConfig,
    slots: Vec<ArraySlot>,
    /// Recovery counters accumulated across every batch (the per-batch
    /// [`RecoveryReport`]s merged in order), exposed via
    /// [`Device::snapshot`].
    recovery_total: RecoveryReport,
    /// Batches executed so far.
    batches: u64,
    /// One template cache per worker, kept across batches: worker `w`
    /// locks `templates[w]` for the length of each batch.
    templates: Vec<Mutex<TemplateCache>>,
}

impl Device {
    /// Builds a device with the given shape.
    ///
    /// # Panics
    ///
    /// Panics if the config has zero arrays, zero PEs per array, or a
    /// fault plan with rates summing above 100%.
    pub fn new(config: DeviceConfig) -> Device {
        assert!(
            config.int_arrays + config.float_arrays > 0,
            "device needs at least one array"
        );
        assert!(config.pes_per_array > 0, "arrays need at least one PE");
        if let Some(fault) = config.fault {
            // Validate the plan eagerly so a bad config fails at build
            // time, not mid-batch.
            let _ = FaultInjector::new(fault);
        }
        let slots: Vec<_> = (0..config.int_arrays + config.float_arrays)
            .map(|index| ArraySlot {
                index,
                class: if index < config.int_arrays {
                    ArrayClass::Int
                } else {
                    ArrayClass::Float
                },
                pending_cells: AtomicU64::new(0),
                health: SlotHealth::default(),
            })
            .collect();
        let workers = config.workers.clamp(1, slots.len());
        Device {
            config,
            slots,
            recovery_total: RecoveryReport::default(),
            batches: 0,
            templates: (0..workers)
                .map(|_| {
                    let slots = (TEMPLATE_SLOTS / workers).max(1);
                    Mutex::new(TemplateCache::new(TEMPLATE_BUDGET / workers, slots))
                })
                .collect(),
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Observable state of the device: per-slot failure counts and
    /// quarantine status, plus recovery counters accumulated over every
    /// batch run so far. This is the sanctioned way for a serving or
    /// monitoring layer to export device health — no internals, a
    /// handful of atomic loads.
    ///
    /// A snapshot is taken between batches, so it reflects the final
    /// health state of the last batch (quarantine and failure streaks
    /// reset when the *next* batch starts).
    pub fn snapshot(&self) -> DeviceSnapshot {
        DeviceSnapshot {
            slots: self
                .slots
                .iter()
                .map(|s| SlotSnapshot {
                    index: s.index,
                    class: s.class,
                    failures: s.health.failure_count(),
                    quarantined: s.health.is_quarantined(),
                })
                .collect(),
            recovery: self.recovery_total,
            batches: self.batches,
            templates: self
                .templates
                .iter()
                .fold(TemplateStats::default(), |mut sum, c| {
                    sum.absorb(&lock_unpoisoned(c).stats());
                    sum
                }),
        }
    }

    /// Executes a batch of tasks and returns a per-task outcome in
    /// submission order plus the device utilization report.
    ///
    /// The calling thread and up to `workers - 1` scoped helper threads,
    /// one per accepted task beyond the first, claim the tasks in
    /// submission order from one shared cursor. The `q`-th accepted task
    /// of an array class runs on the `(q mod h)`-th of the class's `h`
    /// healthy slots, or of all its slots when none is healthy:
    /// round-robin while nothing is quarantined, and a quarantined
    /// slot's share of the batch moves to its healthy peers.
    ///
    /// Task failures do not abandon the batch: each failed execution is
    /// retried per [`DeviceConfig::retry`], and a task that exhausts its
    /// attempts becomes an `Err` entry in the returned
    /// [`BatchOutcome::results`] while every other task still runs.
    /// Callers that want the old all-or-nothing behaviour chain
    /// [`BatchOutcome::into_strict`].
    ///
    /// Tasks whose inputs fail [`Task::preflight`] verification are
    /// rejected up front: they never reach a worker and appear in the
    /// results as [`SimError::Verify`](gendp_dpax::SimError::Verify)
    /// failures with zero attempts.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::NoArray`] if a task needs an array class
    /// the device has zero slots of — the only structurally unplaceable
    /// case. The check runs before any task does, so a refused batch
    /// leaves the device as it was.
    #[must_use = "the outcome carries per-task failures that must be checked"]
    pub fn run_batch(&mut self, tasks: Vec<Task>) -> Result<BatchOutcome, RuntimeError> {
        let counters = RecoveryCounters::default();
        let mut results = Vec::with_capacity(tasks.len());
        let mut accepted = Vec::with_capacity(tasks.len());
        // Preflight, before anything runs: a task whose inputs can never
        // execute is rejected, and one whose class has no slot refuses
        // the batch. Each accepted task takes its position in its class.
        let mut per_class = [0usize; 2];
        for (id, task) in tasks.into_iter().enumerate() {
            let report = task.preflight();
            if report.has_errors() {
                counters.bump_on(&counters.tasks_failed);
                results.push(Some(Err(TaskFailure::Sim {
                    error: SimError::Verify(report),
                    attempts: 0,
                })));
                continue;
            }
            let class = task.array_class();
            if !self.slots.iter().any(|s| s.class == class) {
                return Err(RuntimeError::NoArray { task: id, class });
            }
            let q = &mut per_class[usize::from(class == ArrayClass::Float)];
            accepted.push((id, *q, task));
            *q += 1;
            results.push(None);
        }
        for slot in &self.slots {
            slot.pending_cells.store(0, Ordering::Relaxed);
            slot.health.reset();
        }
        let results = Mutex::new(results);
        let ctx = ExecCtx {
            slots: &self.slots,
            config: &self.config,
            injector: self.config.fault.map(FaultInjector::new),
            counters: &counters,
            tasks: &accepted,
            next: AtomicUsize::new(0),
            results: &results,
        };
        let (first, helpers) = self
            .templates
            .split_first()
            .expect("a device has at least one worker");
        // A helper beyond the batch's tasks would find none to claim.
        let helpers = &helpers[..helpers.len().min(accepted.len().saturating_sub(1))];
        thread::scope(|scope| {
            for (w, templates) in helpers.iter().enumerate() {
                let ctx = &ctx;
                scope.spawn(move || work(ctx, w + 1, templates));
            }
            work(&ctx, 0, first);
        });

        let results: Vec<Result<TaskResult, TaskFailure>> = results
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .into_iter()
            .map(|r| {
                r.unwrap_or_else(|| {
                    // Only reachable if a worker crashed irrecoverably
                    // mid-task; never abandon the rest of the batch.
                    counters.bump_on(&counters.tasks_failed);
                    Err(TaskFailure::Panicked {
                        message: "task lost to a worker crash".to_string(),
                        attempts: 0,
                    })
                })
            })
            .collect();
        let report = self.build_report(&results, counters.snapshot());
        self.recovery_total.merge(&report.recovery);
        self.batches += 1;
        Ok(BatchOutcome { results, report })
    }

    /// Builds the utilization report from the collected results, the
    /// slots' health statistics, and the recovery counters.
    fn build_report(
        &self,
        results: &[Result<TaskResult, TaskFailure>],
        recovery: RecoveryReport,
    ) -> DeviceReport {
        let mut arrays: Vec<ArrayReport> = self
            .slots
            .iter()
            .map(|s| ArrayReport {
                index: s.index,
                class: s.class,
                tasks: 0,
                failures: s.health.failure_count(),
                quarantined: s.health.is_quarantined(),
                stats: gendp_dpax::RunStats::default(),
            })
            .collect();
        let mut per_kernel: BTreeMap<_, KernelStats> = BTreeMap::new();
        for r in results.iter().filter_map(|r| r.as_ref().ok()) {
            let a = &mut arrays[r.array];
            a.tasks += 1;
            a.stats.absorb(&r.stats);
            let k = per_kernel.entry(r.kernel).or_default();
            k.tasks += 1;
            k.cells += r.stats.cells();
            k.lane_cells += r.stats.cells() * r.kernel.simd_lanes() as u64;
            k.cycles += r.stats.cycles;
        }
        DeviceReport {
            arrays,
            per_kernel,
            workers: self.templates.len(),
            recovery,
        }
    }
}

/// One host worker: claims tasks from the batch's cursor in submission
/// order until none is left, and runs each with the worker's template
/// cache.
fn work(ctx: &ExecCtx<'_>, worker: usize, templates: &Mutex<TemplateCache>) {
    let mut templates = lock_unpoisoned(templates);
    loop {
        // Panic containment's second line of defense: a panic that
        // escapes the per-task catch (it should not) restarts the claim
        // loop instead of unwinding the worker out of the batch.
        match catch_unwind(AssertUnwindSafe(|| {
            while let Some((id, q, task)) = ctx.tasks.get(ctx.next.fetch_add(1, Ordering::Relaxed))
            {
                run_task(ctx, worker, *id, *q, task, &mut templates);
            }
        })) {
            Ok(()) => break,
            Err(_) => ctx.counters.bump_on(&ctx.counters.worker_respawns),
        }
    }
}

/// The slot the `q`-th accepted task of `class` in a batch runs on: the
/// `(q mod h)`-th of the class's `h` healthy slots, or of all of its
/// slots when none is healthy.
fn place(ctx: &ExecCtx<'_>, class: ArrayClass, q: usize) -> usize {
    let of_class = || ctx.slots.iter().filter(move |s| s.class == class);
    let healthy = || of_class().filter(|s| !s.health.is_quarantined());
    let h = healthy().count();
    healthy()
        .nth(q % h.max(1))
        // No slot is healthy, or one was quarantined since the count.
        .or_else(|| of_class().nth(q % of_class().count()))
        .expect("preflight admits only classes the device has slots of")
        .index
}

/// The slot a retry re-dispatches to: the least-loaded healthy slot of
/// `class` not yet tried, falling back to any untried slot, or `None`
/// to stay put.
fn pick_retry_slot(ctx: &ExecCtx<'_>, class: ArrayClass, tried: &[usize]) -> Option<usize> {
    ctx.slots
        .iter()
        .filter(|s| s.class == class && !tried.contains(&s.index) && !s.health.is_quarantined())
        .min_by_key(|s| (s.pending_cells.load(Ordering::Relaxed), s.index))
        .map(|s| s.index)
        .or_else(|| {
            ctx.slots
                .iter()
                .filter(|s| s.class == class && !tried.contains(&s.index))
                .map(|s| s.index)
                .min()
        })
}

/// Records a failed execution on `slot` and runs the quarantine state
/// machine: `quarantine_after` consecutive failures take the slot
/// offline, unless it is the last healthy slot of its class (graceful
/// degradation never goes below one array per class).
fn note_slot_failure(ctx: &ExecCtx<'_>, slot: &ArraySlot) {
    let streak = slot.health.note_failure();
    let threshold = ctx.config.retry.quarantine_after;
    if threshold == 0 || streak < threshold || slot.health.is_quarantined() {
        return;
    }
    let healthy_peers = ctx
        .slots
        .iter()
        .filter(|s| s.class == slot.class && s.index != slot.index && !s.health.is_quarantined())
        .count();
    if healthy_peers == 0 {
        ctx.counters.bump_on(&ctx.counters.quarantine_refusals);
    } else if slot.health.quarantine() {
        ctx.counters.bump_on(&ctx.counters.quarantined_arrays);
    }
}

/// A human-readable rendering of a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One attempt's failure, before it is promoted to a [`TaskFailure`].
enum AttemptFailure {
    Sim(gendp_dpax::SimError),
    Panic(String),
}

/// Executes one claimed task with retry, fault injection, panic
/// containment and quarantine bookkeeping, then records its final
/// outcome. Attempts run on the worker's `templates`: a kept template of
/// the task's shape when there is one.
///
/// `q` is the task's position among the batch's accepted tasks of its
/// class. The first attempt executes on the slot [`place`] picks for it,
/// which carries the task's `pending_cells` estimate until the task
/// finishes; retries may move execution to further slots.
fn run_task(
    ctx: &ExecCtx<'_>,
    worker: usize,
    id: usize,
    q: usize,
    task: &Task,
    templates: &mut TemplateCache,
) {
    let estimate = task.cells_estimate();
    let origin = &ctx.slots[place(ctx, task.array_class(), q)];
    origin.pending_cells.fetch_add(estimate, Ordering::Relaxed);
    let max_attempts = ctx.config.retry.max_attempts.max(1);
    let mut escalations: u32 = 0;
    let mut exec = origin.index;
    let mut tried = vec![exec];
    let mut attempt: u32 = 0;
    let outcome: Result<TaskResult, TaskFailure> = loop {
        attempt += 1;
        if attempt > 1 {
            ctx.counters.bump_on(&ctx.counters.retries);
        }
        let scale = budget_scale(escalations);
        let injected = ctx
            .injector
            .as_ref()
            .and_then(|i| i.decide(id, attempt, exec));
        if injected.is_some() {
            ctx.counters.bump_on(&ctx.counters.faults_injected);
        }
        // The attempt itself: either the injected failure materializes
        // (possibly as a genuine panic, to exercise containment for
        // real), or the task simulates. catch_unwind is the containment
        // boundary — a panicking task is a failed attempt, not a dead
        // worker.
        let executed = catch_unwind(AssertUnwindSafe(|| match injected {
            Some(fault) => match fault.sim_error(id, attempt) {
                Some(error) => Err(error),
                None => panic!("injected panic: task {id} attempt {attempt}"),
            },
            None => templates.run(
                task,
                ctx.config.pes_per_array,
                AccelConfig::new()
                    .budget_scale(scale)
                    .tiers(ctx.config.tiers),
            ),
        }));
        let slot = &ctx.slots[exec];
        let failure = match executed {
            Ok(Ok((value, stats))) => {
                slot.health.note_success();
                break Ok(TaskResult {
                    id,
                    array: exec,
                    worker,
                    kernel: task.kernel(),
                    value,
                    stats,
                    attempts: attempt,
                });
            }
            Ok(Err(error)) => AttemptFailure::Sim(error),
            Err(payload) => {
                ctx.counters.bump_on(&ctx.counters.panics_contained);
                AttemptFailure::Panic(panic_message(payload))
            }
        };
        note_slot_failure(ctx, slot);
        if attempt >= max_attempts {
            ctx.counters.bump_on(&ctx.counters.tasks_failed);
            break Err(match failure {
                AttemptFailure::Sim(error) => TaskFailure::Sim {
                    error,
                    attempts: attempt,
                },
                AttemptFailure::Panic(message) => TaskFailure::Panicked {
                    message,
                    attempts: attempt,
                },
            });
        }
        // Plan the next attempt: a budget-bound failure (timeout) earns
        // a bigger cycle budget on the same slot; anything else re-
        // dispatches to a different slot.
        if matches!(&failure, AttemptFailure::Sim(e) if e.is_budget_bound()) {
            escalations += 1;
            ctx.counters.bump_on(&ctx.counters.budget_escalations);
        } else if let Some(next) = pick_retry_slot(ctx, slot.class, &tried) {
            tried.push(next);
            exec = next;
            ctx.counters.bump_on(&ctx.counters.redispatches);
        }
    };
    lock_unpoisoned(ctx.results)[id] = Some(outcome);
    origin.pending_cells.fetch_sub(estimate, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::silence_injected_panics;
    use gendp_dpax::SimError;
    use gendp_seq::DnaSeq;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    fn small_batch(n: usize, seed: u64) -> Vec<Task> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    Task::bsw_local(
                        DnaSeq::random(10 + i % 5, &mut rng),
                        DnaSeq::random(12 + i % 7, &mut rng),
                        gendp_kernels::Scoring::bwa_mem(),
                    )
                } else {
                    Task::dtw(
                        (0..8 + i % 4).map(|_| rng.gen_range(0..300)).collect(),
                        (0..9 + i % 3).map(|_| rng.gen_range(0..300)).collect(),
                    )
                }
            })
            .collect()
    }

    #[test]
    fn batch_results_keep_submission_order() {
        let mut device = Device::new(DeviceConfig {
            int_arrays: 3,
            float_arrays: 0,
            workers: 2,
            ..DeviceConfig::default()
        });
        let outcome = device.run_batch(small_batch(12, 21)).expect("batch");
        assert!(outcome.is_complete());
        assert!(outcome.report.recovery.is_clean());
        let batch = outcome.into_strict().expect("strict");
        assert_eq!(batch.results.len(), 12);
        for (i, r) in batch.results.iter().enumerate() {
            assert_eq!(r.id, i);
            assert!(r.array < 3);
            assert!(r.stats.cycles > 0);
            assert_eq!(r.attempts, 1);
        }
        assert_eq!(batch.report.tasks(), 12);
        assert!(batch.report.makespan_cycles() > 0);
    }

    #[test]
    fn policies_and_worker_counts_agree_on_values_and_cycles() {
        let reference: Vec<(TaskValue, u64)> = small_batch(10, 22)
            .iter()
            .map(|t| {
                let (v, s) = t.execute(PES_PER_ARRAY).expect("reference");
                (v, s.cycles)
            })
            .collect();
        for workers in [1, 2, 8] {
            let mut device = Device::new(DeviceConfig {
                int_arrays: 4,
                float_arrays: 0,
                workers,
                ..DeviceConfig::default()
            });
            let batch = device
                .run_batch(small_batch(10, 22))
                .expect("batch")
                .into_strict()
                .expect("strict");
            for (r, (v, cycles)) in batch.results.iter().zip(&reference) {
                assert_eq!(&r.value, v, "workers {workers}");
                assert_eq!(r.stats.cycles, *cycles);
            }
        }
    }

    #[test]
    fn missing_float_array_is_reported() {
        let mut device = Device::new(DeviceConfig {
            int_arrays: 2,
            float_arrays: 0,
            workers: 1,
            ..DeviceConfig::default()
        });
        let mut tasks = small_batch(3, 20);
        tasks.push(Task::PairHmmFloat {
            read: "ACGTAC".parse().unwrap(),
            haplotype: "ACGTACGT".parse().unwrap(),
            qual: 30,
            params: gendp_kernels::pairhmm::PairHmmParams::gatk(),
        });
        let err = device.run_batch(tasks).expect_err("no FP array");
        assert_eq!(
            err,
            RuntimeError::NoArray {
                task: 3,
                class: ArrayClass::Float
            }
        );
        assert!(std::error::Error::source(&err).is_none());
        // The batch was refused before anything ran, the integer tasks
        // ahead of the FP task included.
        let snap = device.snapshot();
        assert_eq!(snap.batches, 0);
        assert_eq!(snap.templates.misses, 0);
    }

    #[test]
    fn injected_faults_are_retried_and_values_survive() {
        silence_injected_panics();
        let reference: Vec<TaskValue> = small_batch(40, 24)
            .iter()
            .map(|t| t.execute(PES_PER_ARRAY).expect("reference").0)
            .collect();
        let mut device = Device::new(DeviceConfig {
            int_arrays: 4,
            float_arrays: 0,
            workers: 2,
            retry: RetryPolicy {
                max_attempts: 8,
                ..RetryPolicy::default()
            },
            fault: Some(FaultConfig::uniform(11, 200_000)),
            ..DeviceConfig::default()
        });
        let outcome = device.run_batch(small_batch(40, 24)).expect("batch");
        assert!(outcome.is_complete(), "failures: {:?}", outcome.failed());
        let recovery = outcome.report.recovery;
        assert!(recovery.faults_injected > 0, "{recovery:?}");
        assert!(recovery.retries > 0, "{recovery:?}");
        // Injection fakes errors but never corrupts a run that executes:
        // every value matches the fault-free reference exactly.
        let mut retried = 0;
        for (r, v) in outcome.ok_results().zip(&reference) {
            assert_eq!(&r.value, v);
            if r.attempts > 1 {
                retried += 1;
            }
        }
        assert!(retried > 0, "some task should have needed a retry");
    }

    #[test]
    fn certain_faults_fail_tasks_but_never_the_batch() {
        // 100% injected deadlocks: every attempt of every task fails.
        let fault = FaultConfig {
            deadlock_ppm: 1_000_000,
            ..FaultConfig::disabled(5)
        };
        let mut device = Device::new(DeviceConfig {
            int_arrays: 3,
            float_arrays: 0,
            workers: 2,
            fault: Some(fault),
            ..DeviceConfig::default()
        });
        let outcome = device.run_batch(small_batch(8, 25)).expect("batch");
        assert_eq!(outcome.failed(), 8);
        assert_eq!(outcome.completed(), 0);
        assert_eq!(outcome.report.recovery.tasks_failed, 8);
        let max_attempts = device.config().retry.max_attempts;
        for (_, failure) in outcome.failures() {
            assert_eq!(failure.attempts(), max_attempts);
            assert!(matches!(
                failure,
                TaskFailure::Sim {
                    error: SimError::Deadlock(_),
                    ..
                }
            ));
        }
        // The strict view surfaces the first failure as a RuntimeError
        // whose source() is the simulator error.
        let err = outcome.into_strict().expect_err("strict must fail");
        assert!(matches!(err, RuntimeError::Task { task: 0, .. }));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn no_retry_policy_fails_on_first_error() {
        let fault = FaultConfig {
            bad_access_ppm: 1_000_000,
            ..FaultConfig::disabled(6)
        };
        let mut device = Device::new(DeviceConfig {
            int_arrays: 2,
            float_arrays: 0,
            workers: 1,
            retry: RetryPolicy::no_retry(),
            fault: Some(fault),
            ..DeviceConfig::default()
        });
        let outcome = device.run_batch(small_batch(4, 26)).expect("batch");
        assert_eq!(outcome.completed(), 0);
        assert_eq!(outcome.report.recovery.retries, 0);
        for (_, failure) in outcome.failures() {
            assert_eq!(failure.attempts(), 1);
        }
    }

    #[test]
    fn broken_slots_are_quarantined_and_batch_drains() {
        // Slots 1..4 permanently broken; slot 0 healthy. Every task
        // placed on a broken slot fails there, re-dispatches, and the
        // broken slots go offline after 2 consecutive failures each.
        let fault = FaultConfig {
            broken_slots: 0b1110,
            ..FaultConfig::disabled(7)
        };
        let mut device = Device::new(DeviceConfig {
            int_arrays: 4,
            float_arrays: 0,
            workers: 2,
            retry: RetryPolicy {
                max_attempts: 6,
                quarantine_after: 2,
            },
            fault: Some(fault),
            ..DeviceConfig::default()
        });
        let reference: Vec<TaskValue> = small_batch(60, 27)
            .iter()
            .map(|t| t.execute(PES_PER_ARRAY).expect("reference").0)
            .collect();
        let outcome = device.run_batch(small_batch(60, 27)).expect("batch");
        assert!(
            outcome.is_complete(),
            "every task must survive via redispatch: {} failed",
            outcome.failed()
        );
        for (r, v) in outcome.ok_results().zip(&reference) {
            assert_eq!(&r.value, v);
        }
        let report = &outcome.report;
        assert_eq!(
            report.recovery.quarantined_arrays, 3,
            "{:?}",
            report.recovery
        );
        assert!(!report.arrays[0].quarantined);
        for a in &report.arrays[1..4] {
            assert!(a.quarantined, "array {} must be quarantined", a.index);
            assert!(a.failures >= 2);
        }
        assert!(report.recovery.redispatches > 0);
    }

    #[test]
    fn last_healthy_slot_is_never_quarantined() {
        // Every integer slot broken: tasks cannot succeed, but the
        // quarantine machine must refuse to take the last slot offline
        // and the batch must still drain to per-task failures.
        let fault = FaultConfig {
            broken_slots: 0b11,
            ..FaultConfig::disabled(8)
        };
        let mut device = Device::new(DeviceConfig {
            int_arrays: 2,
            float_arrays: 0,
            workers: 2,
            retry: RetryPolicy {
                max_attempts: 3,
                quarantine_after: 1,
            },
            fault: Some(fault),
            ..DeviceConfig::default()
        });
        let outcome = device.run_batch(small_batch(10, 28)).expect("batch");
        assert_eq!(outcome.completed(), 0);
        let report = &outcome.report;
        let quarantined = report.arrays.iter().filter(|a| a.quarantined).count();
        assert_eq!(quarantined, 1, "exactly one of two slots may go offline");
        assert!(
            report.recovery.quarantine_refusals > 0,
            "{:?}",
            report.recovery
        );
    }

    #[test]
    fn injected_panics_are_contained() {
        silence_injected_panics();
        let fault = FaultConfig {
            panic_ppm: 1_000_000,
            ..FaultConfig::disabled(9)
        };
        let mut device = Device::new(DeviceConfig {
            int_arrays: 2,
            float_arrays: 0,
            workers: 2,
            retry: RetryPolicy {
                max_attempts: 2,
                ..RetryPolicy::default()
            },
            fault: Some(fault),
            ..DeviceConfig::default()
        });
        let outcome = device.run_batch(small_batch(6, 29)).expect("batch");
        assert_eq!(outcome.completed(), 0);
        assert_eq!(
            outcome.report.recovery.panics_contained, 12,
            "2 attempts x 6 tasks"
        );
        for (id, failure) in outcome.failures() {
            match failure {
                TaskFailure::Panicked { message, attempts } => {
                    assert_eq!(*attempts, 2);
                    assert!(message.contains(&format!("task {id}")), "{message}");
                }
                other => panic!("expected a panic failure, got {other}"),
            }
        }
        // The device survives for the next (clean) batch.
        let mut clean = device;
        clean.config.fault = None;
        let outcome = clean.run_batch(small_batch(6, 29)).expect("batch");
        assert!(outcome.is_complete());
    }

    #[test]
    fn snapshot_exposes_health_and_accumulates_recovery() {
        let fault = FaultConfig {
            broken_slots: 0b10,
            ..FaultConfig::disabled(31)
        };
        let mut device = Device::new(DeviceConfig {
            int_arrays: 2,
            float_arrays: 0,
            workers: 1,
            retry: RetryPolicy {
                max_attempts: 4,
                quarantine_after: 1,
            },
            fault: Some(fault),
            ..DeviceConfig::default()
        });
        let fresh = device.snapshot();
        assert_eq!(fresh.batches, 0);
        assert!(fresh.recovery.is_clean());
        assert_eq!(fresh.healthy_slots(ArrayClass::Int), 2);

        let outcome = device.run_batch(small_batch(12, 31)).expect("batch");
        assert!(outcome.is_complete());
        let snap = device.snapshot();
        assert_eq!(snap.batches, 1);
        assert_eq!(snap.slots.len(), 2);
        assert_eq!(snap.quarantined_slots(ArrayClass::Int), 1);
        assert_eq!(snap.healthy_slots(ArrayClass::Int), 1);
        assert!(snap.slots[1].quarantined, "broken slot 1 must be offline");
        assert!(snap.slots[1].failures > 0);
        assert_eq!(snap.recovery, outcome.report.recovery);

        // A second batch accumulates: cumulative counters are the merge
        // of both per-batch reports.
        let outcome2 = device.run_batch(small_batch(8, 32)).expect("batch");
        let snap2 = device.snapshot();
        assert_eq!(snap2.batches, 2);
        assert_eq!(
            snap2.recovery,
            RecoveryReport::merged([&outcome.report.recovery, &outcome2.report.recovery])
        );
    }

    #[test]
    fn merged_shard_fingerprints_are_placement_independent() {
        let n = 24;
        // Reference: the whole batch on one device, one worker.
        let mut single = Device::new(DeviceConfig {
            int_arrays: 4,
            float_arrays: 0,
            workers: 1,
            ..DeviceConfig::default()
        });
        let whole = single
            .run_batch(small_batch(n, 33))
            .expect("batch")
            .fingerprint();

        // The same batch split across two device shards, at several
        // worker counts: each shard fingerprints its half under global
        // ids and the concatenation must be byte-identical to the
        // single-device fingerprint — sharding is just another
        // placement, and placements must not show.
        for workers in [1, 2, 8] {
            let tasks = small_batch(n, 33);
            let cut = n / 2;
            let mut halves: Vec<Vec<Task>> = vec![Vec::new(), Vec::new()];
            for (i, t) in tasks.into_iter().enumerate() {
                halves[usize::from(i >= cut)].push(t);
            }
            let mut merged = String::new();
            let mut recovery = RecoveryReport::default();
            for (shard, half) in halves.into_iter().enumerate() {
                let mut device = Device::new(DeviceConfig {
                    int_arrays: 3,
                    float_arrays: 0,
                    workers,
                    ..DeviceConfig::default()
                });
                let outcome = device.run_batch(half).expect("shard batch");
                merged.push_str(&outcome.fingerprint_from(shard * cut));
                recovery.merge(&outcome.report.recovery);
            }
            assert_eq!(
                merged, whole,
                "sharded fingerprint must match single-device at {workers} workers"
            );
            assert!(recovery.is_clean(), "fault-free shards stay clean");
        }
    }

    #[test]
    fn escalated_budget_rescues_injected_timeouts() {
        let fault = FaultConfig {
            timeout_ppm: 1_000_000,
            ..FaultConfig::disabled(10)
        };
        // Injected timeouts fire on every attempt, so with escalation
        // alone the task still fails — but the escalation counters must
        // show the budget path was taken, and attempts stay on one slot.
        let mut device = Device::new(DeviceConfig {
            int_arrays: 2,
            float_arrays: 0,
            workers: 1,
            retry: RetryPolicy {
                max_attempts: 3,
                ..RetryPolicy::default()
            },
            fault: Some(fault),
            ..DeviceConfig::default()
        });
        let outcome = device.run_batch(small_batch(4, 30)).expect("batch");
        let recovery = outcome.report.recovery;
        assert_eq!(recovery.budget_escalations, 8, "2 escalations x 4 tasks");
        assert_eq!(recovery.redispatches, 0, "timeouts stay on their slot");
        for (_, failure) in outcome.failures() {
            assert!(matches!(
                failure,
                TaskFailure::Sim {
                    error: SimError::Timeout { .. },
                    ..
                }
            ));
        }
    }
}
