//! The device: array slots, submission, worker threads, batch execution,
//! and the fault-tolerance machinery (retry, quarantine, panic
//! containment).

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::Duration;

use gendp_core::AccelConfig;
use gendp_dpax::{SimError, TierPolicy, INT_ARRAYS, PES_PER_ARRAY};

use crate::fault::{FaultConfig, FaultInjector};
use crate::policy::DispatchPolicy;
use crate::queue::BoundedQueue;
use crate::recovery::{RetryPolicy, SlotHealth};
use crate::report::{ArrayReport, DeviceReport, KernelStats, RecoveryReport};
use crate::sync::{lock_unpoisoned, wait_timeout_unpoisoned};
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
    /// Host worker threads driving the simulated arrays. Wall-clock
    /// throughput scales with this; simulated results never depend on it.
    pub workers: usize,
    /// How tasks are routed onto arrays.
    pub policy: DispatchPolicy,
    /// Per-array submission queue bound; a full queue blocks the
    /// submitter (backpressure).
    pub queue_capacity: usize,
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
            policy: DispatchPolicy::default(),
            queue_capacity: 64,
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
    /// A task needs an array class the device has zero slots of.
    NoArray {
        /// Index of the unplaceable task in the submitted batch.
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

impl BatchRun {
    /// The functional values in submission order.
    pub fn values(&self) -> Vec<&TaskValue> {
        self.results.iter().map(|r| &r.value).collect()
    }
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
    /// count and under any dispatch policy, as long as
    /// [`FaultConfig::broken_slots`] is zero (broken slots are by design
    /// placement-dependent).
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
    /// Tasks currently waiting in this slot's submission queue.
    pub queue_depth: usize,
    /// Highest queue occupancy observed since the last batch started.
    pub queue_high_water: usize,
    /// Estimated DP cells queued on this slot and not yet executed.
    pub pending_cells: u64,
    /// Failed execution attempts on this slot since the last batch
    /// started ([`SlotHealth`] resets per batch).
    pub failures: u64,
    /// True if the quarantine state machine currently has this slot
    /// offline.
    pub quarantined: bool,
}

/// Point-in-time observable state of a [`Device`]: per-slot queue and
/// health state plus recovery counters accumulated over every batch the
/// device has run ([`RecoveryReport::merge`]d batch by batch). Cheap to
/// take — a few atomic loads per slot — and safe to export from a
/// monitoring or serving layer at any time between batches.
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

    /// Estimated DP cells queued across all slots.
    pub fn pending_cells(&self) -> u64 {
        self.slots.iter().map(|s| s.pending_cells).sum()
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

/// Generation-counted wakeup for idle workers: bumped on every push and
/// on close, so a worker that found all its queues empty sleeps until
/// new work (or shutdown) can possibly exist instead of polling.
#[derive(Default)]
struct WorkSignal {
    generation: Mutex<u64>,
    ready: Condvar,
}

impl WorkSignal {
    fn current(&self) -> u64 {
        *lock_unpoisoned(&self.generation)
    }

    fn bump(&self) {
        *lock_unpoisoned(&self.generation) += 1;
        self.ready.notify_all();
    }

    /// Blocks until the generation moves past `seen` (with a timeout
    /// safety net against missed wakeups).
    fn wait_past(&self, seen: u64) {
        let mut generation = lock_unpoisoned(&self.generation);
        while *generation == seen {
            let (next, timeout) =
                wait_timeout_unpoisoned(&self.ready, generation, Duration::from_millis(1));
            generation = next;
            if timeout.timed_out() {
                break;
            }
        }
    }
}

/// One array slot: a simulated PE array behind a bounded submission
/// queue. `pending_cells` tracks the estimated outstanding work for the
/// shortest-queue policy; `health` drives the quarantine state machine.
struct ArraySlot {
    index: usize,
    class: ArrayClass,
    queue: BoundedQueue<(usize, Task)>,
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

/// Everything a worker needs to execute tasks: shared, immutable for the
/// lifetime of one batch.
struct ExecCtx<'a> {
    slots: &'a [Arc<ArraySlot>],
    config: &'a DeviceConfig,
    injector: Option<FaultInjector>,
    counters: &'a RecoveryCounters,
    results: &'a Mutex<Vec<Option<Result<TaskResult, TaskFailure>>>>,
    abort: &'a AtomicBool,
}

/// The simulated DPAx device: integer array slots plus the FP slot, a
/// dispatch policy, and a pool of host workers that drive the arrays.
///
/// Each submitted [`Task`] runs as one self-contained array simulation,
/// so its score and simulated cycle count are identical regardless of
/// policy, placement, or worker count — only wall-clock time and the
/// per-array load distribution change.
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
    slots: Vec<Arc<ArraySlot>>,
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
    /// Panics if the config has zero arrays, zero PEs per array, a zero
    /// queue capacity, or a fault plan with rates summing above 100%.
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
            .map(|index| {
                Arc::new(ArraySlot {
                    index,
                    class: if index < config.int_arrays {
                        ArrayClass::Int
                    } else {
                        ArrayClass::Float
                    },
                    queue: BoundedQueue::new(config.queue_capacity),
                    pending_cells: AtomicU64::new(0),
                    health: SlotHealth::default(),
                })
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

    /// A device with the paper's shape (16 integer arrays + 1 FP array)
    /// and the given worker count and policy.
    pub fn paper(workers: usize, policy: DispatchPolicy) -> Device {
        Device::new(DeviceConfig {
            workers,
            policy,
            ..DeviceConfig::default()
        })
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Total array slots (integer + floating-point).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Observable state of the device: per-slot queue depth, pending
    /// work, failure counts and quarantine status, plus recovery counters
    /// accumulated over every batch run so far. This is the sanctioned
    /// way for a serving or monitoring layer to export device health —
    /// no internals, a handful of atomic loads.
    ///
    /// Taken between batches, slot queues are empty and the snapshot
    /// reflects the final health state of the last batch (quarantine and
    /// failure streaks reset when the *next* batch starts).
    pub fn snapshot(&self) -> DeviceSnapshot {
        DeviceSnapshot {
            slots: self
                .slots
                .iter()
                .map(|s| SlotSnapshot {
                    index: s.index,
                    class: s.class,
                    queue_depth: s.queue.len(),
                    queue_high_water: s.queue.high_water(),
                    pending_cells: s.pending_cells.load(Ordering::Relaxed),
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
    /// Submission applies backpressure: the caller-side placement loop
    /// blocks whenever the chosen array's queue is full, so at most
    /// `arrays * queue_capacity` tasks are ever in flight.
    ///
    /// Task failures do not abandon the batch: each failed execution is
    /// retried per [`DeviceConfig::retry`], and a task that exhausts its
    /// attempts becomes an `Err` entry in the returned
    /// [`BatchOutcome::results`] while every other task still runs.
    /// Callers that want the old all-or-nothing behaviour chain
    /// [`BatchOutcome::into_strict`].
    ///
    /// Tasks whose inputs fail [`Task::preflight`] verification are
    /// rejected up front: they never occupy a queue slot or a worker and
    /// appear in the results as
    /// [`SimError::Verify`](gendp_dpax::SimError::Verify) failures with
    /// zero attempts.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::NoArray`] if a task needs an array class
    /// the device has zero slots of — the only structurally unplaceable
    /// case; remaining queued tasks are discarded.
    #[must_use = "the outcome carries per-task failures that must be checked"]
    pub fn run_batch(&mut self, tasks: Vec<Task>) -> Result<BatchOutcome, RuntimeError> {
        let n = tasks.len();
        for slot in &self.slots {
            slot.pending_cells.store(0, Ordering::Relaxed);
            slot.queue.reset();
            slot.health.reset();
        }
        let workers = self.templates.len();
        let results: Mutex<Vec<Option<Result<TaskResult, TaskFailure>>>> =
            Mutex::new((0..n).map(|_| None).collect());
        let first_error: Mutex<Option<RuntimeError>> = Mutex::new(None);
        let abort = AtomicBool::new(false);
        let signal = WorkSignal::default();
        let counters = RecoveryCounters::default();

        // Preflight: tasks whose inputs can never execute are rejected
        // here, before they consume a queue slot or a worker.
        let mut accepted: Vec<(usize, Task)> = Vec::with_capacity(n);
        {
            let mut res = lock_unpoisoned(&results);
            for (id, task) in tasks.into_iter().enumerate() {
                let report = task.preflight();
                if report.has_errors() {
                    counters.bump_on(&counters.tasks_failed);
                    res[id] = Some(Err(TaskFailure::Sim {
                        error: SimError::Verify(report),
                        attempts: 0,
                    }));
                } else {
                    accepted.push((id, task));
                }
            }
        }

        let ctx = ExecCtx {
            slots: &self.slots,
            config: &self.config,
            injector: self.config.fault.map(FaultInjector::new),
            counters: &counters,
            results: &results,
            abort: &abort,
        };

        thread::scope(|scope| {
            for (w, templates) in self.templates.iter().enumerate() {
                let ctx = &ctx;
                let signal = &signal;
                scope.spawn(move || {
                    let mut templates = lock_unpoisoned(templates);
                    loop {
                        // Panic containment's second line of defense: a
                        // panic that escapes the per-task catch (it should
                        // not) respawns the worker loop instead of killing
                        // the thread and stranding its queues.
                        match catch_unwind(AssertUnwindSafe(|| {
                            worker_loop(w, workers, ctx, signal, &mut templates)
                        })) {
                            Ok(()) => break,
                            Err(_) => ctx.counters.bump_on(&ctx.counters.worker_respawns),
                        }
                    }
                });
            }
            self.submit_all(accepted, &first_error, &abort, &signal);
            for slot in &self.slots {
                slot.queue.close();
            }
            signal.bump();
        });

        if let Some(error) = first_error
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            return Err(error);
        }
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
        let report = self.build_report(&results, workers, counters.snapshot());
        self.recovery_total.merge(&report.recovery);
        self.batches += 1;
        Ok(BatchOutcome { results, report })
    }

    /// Places every task onto a slot queue according to the policy,
    /// blocking on full queues. Quarantined slots stop receiving new
    /// placements (unless every slot of the class is quarantined, which
    /// the last-healthy-slot rule makes a transient race at worst).
    fn submit_all(
        &self,
        tasks: Vec<(usize, Task)>,
        first_error: &Mutex<Option<RuntimeError>>,
        abort: &AtomicBool,
        signal: &WorkSignal,
    ) {
        let mut rr = [0usize; 2]; // round-robin cursor per class
        for (id, task) in tasks {
            if abort.load(Ordering::Acquire) {
                break;
            }
            let class = task.array_class();
            let candidates: Vec<&Arc<ArraySlot>> =
                self.slots.iter().filter(|s| s.class == class).collect();
            if candidates.is_empty() {
                let mut err = lock_unpoisoned(first_error);
                if err.is_none() {
                    *err = Some(RuntimeError::NoArray { task: id, class });
                }
                abort.store(true, Ordering::Release);
                break;
            }
            let healthy: Vec<&Arc<ArraySlot>> = candidates
                .iter()
                .copied()
                .filter(|s| !s.health.is_quarantined())
                .collect();
            let pool = if healthy.is_empty() {
                &candidates
            } else {
                &healthy
            };
            let slot = match self.config.policy {
                DispatchPolicy::RoundRobin | DispatchPolicy::WorkStealing => {
                    let cursor = &mut rr[(class == ArrayClass::Float) as usize];
                    let slot = pool[*cursor % pool.len()];
                    *cursor += 1;
                    slot
                }
                DispatchPolicy::ShortestQueue => pool
                    .iter()
                    .min_by_key(|s| (s.pending_cells.load(Ordering::Relaxed), s.index))
                    .expect("candidates non-empty"),
            };
            slot.pending_cells
                .fetch_add(task.cells_estimate(), Ordering::Relaxed);
            if slot.queue.push((id, task)).is_err() {
                // Queues only close early on abort; stop submitting.
                break;
            }
            signal.bump();
        }
    }

    /// Builds the utilization report from the collected results, the
    /// slots' queue and health statistics, and the recovery counters.
    fn build_report(
        &self,
        results: &[Result<TaskResult, TaskFailure>],
        workers: usize,
        recovery: RecoveryReport,
    ) -> DeviceReport {
        let mut arrays: Vec<ArrayReport> = self
            .slots
            .iter()
            .map(|s| ArrayReport {
                index: s.index,
                class: s.class,
                tasks: 0,
                queue_high_water: s.queue.high_water(),
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
            workers,
            policy: self.config.policy,
            recovery,
        }
    }
}

/// One host worker: drains the queues of the slots it owns
/// (`slot.index % workers == w`), executing each task on that slot's
/// simulated array; under work-stealing it also steals from the back of
/// other same-class queues when its own run dry. Work popped from a
/// quarantined slot's queue migrates to a healthy slot of the same class
/// — that is how a quarantined array's backlog gets redistributed.
fn worker_loop(
    w: usize,
    workers: usize,
    ctx: &ExecCtx<'_>,
    signal: &WorkSignal,
    templates: &mut TemplateCache,
) {
    let owned: Vec<&Arc<ArraySlot>> = ctx
        .slots
        .iter()
        .filter(|s| s.index % workers == w)
        .collect();
    let stealing = ctx.config.policy == DispatchPolicy::WorkStealing;
    loop {
        // Snapshot before scanning: a push that lands mid-scan moves the
        // generation, so the wait below returns immediately.
        let seen = signal.current();
        let mut ran = false;
        for slot in &owned {
            if let Some((id, task)) = slot.queue.try_pop() {
                let exec = migration_target(ctx, slot);
                run_task(ctx, slot, exec, w, id, &task, templates);
                ran = true;
            }
        }
        if !ran && stealing {
            'steal: for slot in &owned {
                for victim in ctx.slots {
                    if victim.index == slot.index || victim.class != slot.class {
                        continue;
                    }
                    if let Some((id, task)) = victim.queue.steal() {
                        // The stolen task migrates: it executes on (and is
                        // attributed to) the thief's array. The estimate
                        // stays against the victim, whose queue held it.
                        let exec = migration_target(ctx, slot);
                        run_task(ctx, victim, exec, w, id, &task, templates);
                        ran = true;
                        break 'steal;
                    }
                }
            }
        }
        if !ran {
            let drained = owned
                .iter()
                .all(|s| s.queue.is_closed() && s.queue.is_empty());
            let steal_sources_dry = !stealing
                || ctx
                    .slots
                    .iter()
                    .all(|s| s.queue.is_closed() && s.queue.is_empty());
            if drained && steal_sources_dry {
                break;
            }
            signal.wait_past(seen);
        }
    }
}

/// Where to actually execute work associated with `slot`: the slot
/// itself while it is healthy, otherwise the lowest-indexed healthy slot
/// of the same class (a quarantined slot's backlog drains elsewhere).
fn migration_target(ctx: &ExecCtx<'_>, slot: &ArraySlot) -> usize {
    if !slot.health.is_quarantined() {
        return slot.index;
    }
    ctx.slots
        .iter()
        .filter(|s| s.class == slot.class && !s.health.is_quarantined())
        .map(|s| s.index)
        .min()
        .unwrap_or(slot.index)
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

/// Executes one task with retry, fault injection, panic containment and
/// quarantine bookkeeping, then records its final outcome. Attempts run
/// on the worker's `templates`: a kept template of the task's shape when
/// there is one.
///
/// `origin` is the slot whose queue held the task (its `pending_cells`
/// estimate is released here); `exec_index` is the slot the first attempt
/// executes on (they differ when the task was stolen or migrated off a
/// quarantined slot). Retries may move execution to further slots.
fn run_task(
    ctx: &ExecCtx<'_>,
    origin: &ArraySlot,
    exec_index: usize,
    worker: usize,
    id: usize,
    task: &Task,
    templates: &mut TemplateCache,
) {
    let estimate = task.cells_estimate();
    if ctx.abort.load(Ordering::Acquire) {
        // Drain-and-discard after an unplaceable task aborted the batch.
        origin.pending_cells.fetch_sub(estimate, Ordering::Relaxed);
        return;
    }
    let retry = &ctx.config.retry;
    let max_attempts = retry.max_attempts.max(1);
    let mut escalations: u32 = 0;
    let mut exec = exec_index;
    let mut tried = vec![exec];
    let mut attempt: u32 = 0;
    let outcome: Result<TaskResult, TaskFailure> = loop {
        attempt += 1;
        if attempt > 1 {
            ctx.counters.bump_on(&ctx.counters.retries);
        }
        let scale = retry.budget_scale(escalations);
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
        // dispatches to a different slot when the policy allows it.
        let budget_bound = matches!(&failure, AttemptFailure::Sim(e) if e.is_budget_bound());
        if budget_bound && retry.escalation_factor > 1 {
            escalations += 1;
            ctx.counters.bump_on(&ctx.counters.budget_escalations);
        } else if retry.redispatch {
            if let Some(next) = pick_retry_slot(ctx, slot.class, &tried) {
                tried.push(next);
                exec = next;
                ctx.counters.bump_on(&ctx.counters.redispatches);
            }
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
        for policy in DispatchPolicy::ALL {
            for workers in [1, 3] {
                let mut device = Device::new(DeviceConfig {
                    int_arrays: 4,
                    float_arrays: 0,
                    workers,
                    policy,
                    ..DeviceConfig::default()
                });
                let batch = device
                    .run_batch(small_batch(10, 22))
                    .expect("batch")
                    .into_strict()
                    .expect("strict");
                for (r, (v, cycles)) in batch.results.iter().zip(&reference) {
                    assert_eq!(&r.value, v, "policy {policy:?} workers {workers}");
                    assert_eq!(r.stats.cycles, *cycles);
                }
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
        let task = Task::PairHmmFloat {
            read: "ACGTAC".parse().unwrap(),
            haplotype: "ACGTACGT".parse().unwrap(),
            qual: 30,
            params: gendp_kernels::pairhmm::PairHmmParams::gatk(),
        };
        let err = device.run_batch(vec![task]).expect_err("no FP array");
        assert_eq!(
            err,
            RuntimeError::NoArray {
                task: 0,
                class: ArrayClass::Float
            }
        );
        assert!(std::error::Error::source(&err).is_none());
    }

    #[test]
    fn backpressure_small_queue_still_completes() {
        let mut device = Device::new(DeviceConfig {
            int_arrays: 2,
            float_arrays: 0,
            workers: 2,
            queue_capacity: 1,
            ..DeviceConfig::default()
        });
        let outcome = device.run_batch(small_batch(9, 23)).expect("batch");
        assert_eq!(outcome.results.len(), 9);
        assert!(outcome.is_complete());
        // A capacity-1 queue can never hold more than one task.
        for a in &outcome.report.arrays {
            assert!(a.queue_high_water <= 1);
        }
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
                ..RetryPolicy::default()
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
                ..RetryPolicy::default()
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
                ..RetryPolicy::default()
            },
            fault: Some(fault),
            ..DeviceConfig::default()
        });
        let fresh = device.snapshot();
        assert_eq!(fresh.batches, 0);
        assert!(fresh.recovery.is_clean());
        assert_eq!(fresh.healthy_slots(ArrayClass::Int), 2);
        assert_eq!(fresh.pending_cells(), 0);

        let outcome = device.run_batch(small_batch(12, 31)).expect("batch");
        assert!(outcome.is_complete());
        let snap = device.snapshot();
        assert_eq!(snap.batches, 1);
        assert_eq!(snap.slots.len(), 2);
        assert_eq!(snap.quarantined_slots(ArrayClass::Int), 1);
        assert_eq!(snap.healthy_slots(ArrayClass::Int), 1);
        assert!(snap.slots[1].quarantined, "broken slot 1 must be offline");
        assert!(snap.slots[1].failures > 0);
        assert_eq!(snap.slots[0].queue_depth, 0, "batches drain their queues");
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

        // The same batch split across two device shards, under every
        // policy and several worker counts: each shard fingerprints its
        // half under global ids and the concatenation must be
        // byte-identical to the single-device fingerprint — sharding is
        // just another placement, and placements must not show.
        for policy in DispatchPolicy::ALL {
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
                        policy,
                        ..DeviceConfig::default()
                    });
                    let outcome = device.run_batch(half).expect("shard batch");
                    merged.push_str(&outcome.fingerprint_from(shard * cut));
                    recovery.merge(&outcome.report.recovery);
                }
                assert_eq!(
                    merged, whole,
                    "sharded fingerprint must match single-device under \
                     {policy:?} x {workers} workers"
                );
                assert!(recovery.is_clean(), "fault-free shards stay clean");
            }
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
