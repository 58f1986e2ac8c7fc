//! The alignment server: tenants in, shards out.
//!
//! ```text
//!   TenantClient::submit ──admission──▶ scheduler inbox
//!                                          │ per-tenant queues
//!                                          ▼ deficit round robin
//!                              deadline gate · assembled batch
//!                                          │ pick_shard (state-aware)
//!                      ┌───────────────────┴──────────────────┐
//!                      ▼ bounded shard queue (backpressure)   ▼
//!                shard cell #0                          shard cell #N
//!                thread owns a Device                   ...
//!                (16 int + 1 FP arrays)                       │
//!                      │ run_batch, retries, quarantine       │
//!                      └──────────── deliver ─────────────────┘
//!                            ticket / connection reply
//!                                          ▲
//!                 health monitor ──────────┘
//!                 (heartbeats, quarantine streaks, drain,
//!                  requeue, respawn with fresh fault seed)
//! ```
//!
//! Each *shard* is one simulated DPAx device (the paper's 16 integer +
//! 1 floating-point PE arrays) owned by a dedicated thread — a fault
//! domain with a [`ShardState`] lifecycle. The shard pool is dynamic:
//! [`Server::add_shard`] grows it under load, [`Server::retire_shard`]
//! drains a shard and requeues its undispatched work onto survivors,
//! and the health monitor (run by the scheduler thread between
//! batches) detects crippled or heartbeat-silent shards, declares them
//! [`ShardState::Dead`], reclaims their queues, and — when
//! [`LifecyclePolicy::auto_respawn`] is on — spawns a replacement
//! device with a fresh fault seed.
//!
//! Every admitted request is delivered exactly once: as a
//! [`Completed`] value, a [`ServeError::Failed`] after the device's
//! retry budget, a [`ServeError::DeadlineExceeded`] when its deadline
//! passes before a result exists, or a terminal
//! [`ServeError::Runtime`]/[`Disconnected`]. Tickets never hang, and a
//! dying shard loses nothing: its in-flight batch still delivers (the
//! device call is synchronous on the shard thread), and its queued
//! batches are requeued before anything else is scheduled.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, TryRecvError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use gendp_dpax::RunStats;
use gendp_runtime::{
    ArrayClass, Device, DeviceConfig, DeviceSnapshot, Heartbeat, KernelKind, RecoveryReport,
    RuntimeError, Task, TaskFailure, TaskShape, TaskValue,
};

use crate::admission::{AdmissionError, TenantState};
use crate::lifecycle::{
    assess, HealthSignal, LifecycleCounters, LifecyclePolicy, LifecycleSnapshot, ShardState,
};
use crate::metrics::{LatencyHistogram, TenantCountersSnapshot};
use crate::qos::{Costed, DrrState};
use crate::tenant::{Priority, TenantConfig};

/// Server-level configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Number of device shards (fault domains) at startup. Each owns
    /// one [`Device`] built from `shard_config`; the pool can grow and
    /// shrink afterwards via [`Server::add_shard`] /
    /// [`Server::retire_shard`] and the self-healing monitor.
    pub shards: usize,
    /// Per-shard device configuration. When it carries a
    /// [`FaultConfig`](gendp_runtime::FaultConfig), every spawned shard
    /// (initial, added, or respawned) gets a distinct fault seed so
    /// fault plans differ across fault domains.
    pub shard_config: DeviceConfig,
    /// Maximum requests per assembled batch.
    pub batch_max: usize,
    /// Base DRR quantum, in DP cells per tenant visit.
    pub quantum_cells: u64,
    /// Bound of each shard's dispatch queue, in batches. Small values
    /// keep scheduling decisions late (better fairness and shard
    /// steering); the scheduler waits — backpressure — when every
    /// dispatchable shard's queue is full.
    pub dispatch_queue: usize,
    /// Health-monitor policy: degraded/dead thresholds, heartbeat
    /// timeout, and whether dead shards respawn automatically.
    pub lifecycle: LifecyclePolicy,
    /// Simulated cycles per wall-clock second a shard is assumed to
    /// sustain, used by the deadline-infeasibility admission gate: a
    /// request whose certified cycle lower bound needs more time than
    /// its deadline allows at this rate is rejected with
    /// `deadline-infeasible`. `None` (the default) disables the gate.
    pub cycle_rate: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            shards: 2,
            shard_config: DeviceConfig::default(),
            batch_max: 32,
            quantum_cells: 512,
            dispatch_queue: 2,
            lifecycle: LifecyclePolicy::default(),
            cycle_rate: None,
        }
    }
}

/// A successfully served request.
#[derive(Debug, Clone)]
pub struct Completed {
    /// The kernel's functional output.
    pub value: TaskValue,
    /// Kernel identity.
    pub kernel: KernelKind,
    /// Simulator statistics of the successful run.
    pub stats: RunStats,
    /// Device execution attempts (1 = first try).
    pub attempts: u32,
    /// Id of the shard the task ran on. Shard ids are assigned at
    /// spawn and never reused, so a replacement shard is
    /// distinguishable from the shard it replaced.
    pub shard: usize,
    /// Array slot within the shard.
    pub array: usize,
    /// End-to-end latency, from the start of the submit call (admission
    /// pricing included) to delivery.
    pub latency: Duration,
}

/// Why a served request terminally failed after admission.
#[derive(Debug, Clone)]
pub enum ServeError {
    /// The device exhausted its retry budget on this task.
    Failed(TaskFailure),
    /// The shard's batch failed as a whole (e.g. no array of the
    /// required class exists on any configured shard).
    Runtime(RuntimeError),
    /// The request's deadline passed before a result could be
    /// produced; it was dropped at the dispatch gate, at requeue, or
    /// its late result was suppressed at completion.
    DeadlineExceeded,
    /// The server went away before delivering — only possible for
    /// submissions racing a shutdown.
    Disconnected,
}

impl ServeError {
    /// Stable short code for metrics and the wire protocol.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::Failed(_) => "failed",
            ServeError::Runtime(_) => "runtime",
            ServeError::DeadlineExceeded => "deadline-exceeded",
            ServeError::Disconnected => "disconnected",
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Failed(failure) => write!(f, "task failed on device: {failure:?}"),
            ServeError::Runtime(e) => write!(f, "batch runtime error: {e:?}"),
            ServeError::DeadlineExceeded => f.write_str("deadline exceeded before delivery"),
            ServeError::Disconnected => f.write_str("server disconnected before delivery"),
        }
    }
}

impl std::error::Error for ServeError {}

/// What a ticket resolves to.
pub type Delivery = Result<Completed, ServeError>;

/// Where a delivery goes: a per-request one-shot channel (in-process
/// clients) or a shared tagged channel (one per wire connection).
#[derive(Debug)]
pub(crate) enum Reply {
    Oneshot(mpsc::Sender<Delivery>),
    Tagged {
        tx: mpsc::Sender<(u64, Delivery)>,
        tag: u64,
    },
}

impl Reply {
    fn deliver(self, delivery: Delivery) {
        // A send error means the submitter dropped its receiver — it no
        // longer wants the answer, which is its right.
        match self {
            Reply::Oneshot(tx) => drop(tx.send(delivery)),
            Reply::Tagged { tx, tag } => drop(tx.send((tag, delivery))),
        }
    }
}

/// One admitted request travelling from a client to the scheduler.
pub(crate) struct Submitted {
    pub tenant: usize,
    pub task: Task,
    pub cost: u64,
    pub submitted_at: Instant,
    pub deadline: Option<Instant>,
    pub reply: Reply,
}

/// Request metadata that rides along to the shard.
struct JobMeta {
    tenant: usize,
    submitted_at: Instant,
    deadline: Option<Instant>,
    cost: u64,
    reply: Reply,
}

impl JobMeta {
    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now > d)
    }
}

/// What sits in a tenant's scheduler queue.
struct Pending {
    task: Task,
    meta: JobMeta,
}

/// A batch on its way to one shard.
type DispatchBatch = Vec<(JobMeta, Task)>;

/// Outcome of a blocking pop on a shard queue.
enum Pop {
    Batch(DispatchBatch),
    Closed,
}

struct QueueState {
    batches: VecDeque<DispatchBatch>,
    closed: bool,
}

/// A bounded MPSC-ish dispatch queue (in practice single-producer: only
/// the scheduler pushes). Unlike `mpsc::sync_channel`, it supports
/// *reclaim*: the monitor can close the queue and take back every
/// undispatched batch — the primitive behind drain-and-requeue.
struct ShardQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
    capacity: usize,
}

impl ShardQueue {
    fn new(capacity: usize) -> ShardQueue {
        ShardQueue {
            state: Mutex::new(QueueState {
                batches: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// True when a push would neither block nor bounce.
    fn has_room(&self) -> bool {
        let state = self.state.lock().expect("shard queue lock");
        !state.closed && state.batches.len() < self.capacity
    }

    /// Blocking bounded push; returns the batch on a closed queue so
    /// the caller can requeue it.
    fn push(&self, batch: DispatchBatch) -> Result<(), DispatchBatch> {
        let mut state = self.state.lock().expect("shard queue lock");
        loop {
            if state.closed {
                return Err(batch);
            }
            if state.batches.len() < self.capacity {
                state.batches.push_back(batch);
                self.cv.notify_all();
                return Ok(());
            }
            state = self.cv.wait(state).expect("shard queue lock");
        }
    }

    /// Blocks until a batch arrives or the queue is closed *and*
    /// empty — a closed queue still drains what it holds, so a
    /// graceful shutdown never drops accepted work.
    fn pop(&self) -> Pop {
        let mut state = self.state.lock().expect("shard queue lock");
        loop {
            if let Some(batch) = state.batches.pop_front() {
                self.cv.notify_all();
                return Pop::Batch(batch);
            }
            if state.closed {
                return Pop::Closed;
            }
            state = self.cv.wait(state).expect("shard queue lock");
        }
    }

    /// Closes the queue (push bounces, pop drains then reports closed).
    fn close(&self) {
        let mut state = self.state.lock().expect("shard queue lock");
        state.closed = true;
        self.cv.notify_all();
    }

    /// Closes the queue and takes back every undispatched batch.
    fn reclaim(&self) -> Vec<DispatchBatch> {
        let mut state = self.state.lock().expect("shard queue lock");
        state.closed = true;
        let reclaimed = state.batches.drain(..).collect();
        self.cv.notify_all();
        reclaimed
    }

    fn is_closed(&self) -> bool {
        self.state.lock().expect("shard queue lock").closed
    }
}

/// One live (or once-live) shard: the scheduler-facing half of a shard
/// thread. Dead cells stay in the table so ids stay stable and stats
/// keep their history.
struct ShardCell {
    /// Spawn-ordered id, never reused.
    id: usize,
    queue: ShardQueue,
    state: AtomicU8,
    /// DP cells dispatched to this shard and not yet delivered.
    outstanding_cells: AtomicU64,
    /// Tasks this shard delivered successfully (drives the
    /// `Joining → Healthy` promotion).
    completed: AtomicU64,
    /// Latest device snapshot, refreshed after every batch.
    status: Mutex<DeviceSnapshot>,
    /// Progress beacon: beats when the shard picks up or finishes a
    /// batch.
    beat: Heartbeat,
    /// Consecutive fresh snapshots that read crippled.
    crippled_streak: AtomicU32,
    /// `snapshot.batches` high-water mark of the last assessment, so
    /// streaks count *new* evidence only (slot quarantine resets per
    /// batch).
    last_assessed_batch: AtomicU64,
    /// Chaos hook: the monitor treats the shard as abruptly lost.
    killed: AtomicBool,
}

impl ShardCell {
    fn state(&self) -> ShardState {
        ShardState::from_wire(self.state.load(Ordering::Acquire)).unwrap_or(ShardState::Dead)
    }

    fn set_state(&self, to: ShardState) {
        self.state.store(to.to_wire(), Ordering::Release);
    }

    /// CAS transition; false when the state moved under us.
    fn transition(&self, from: ShardState, to: ShardState) -> bool {
        self.state
            .compare_exchange(
                from.to_wire(),
                to.to_wire(),
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }
}

struct Inner {
    config: ServeConfig,
    tenants: Vec<Arc<TenantState>>,
    by_name: HashMap<String, usize>,
    closed: AtomicBool,
    /// Epoch for the monotone nanosecond clock fed to token buckets
    /// and heartbeats.
    epoch: Instant,
    /// Every shard ever spawned, in id order; dead cells included.
    shards: Mutex<Vec<Arc<ShardCell>>>,
    /// Shard threads awaiting their join at shutdown.
    threads: Mutex<Vec<JoinHandle<()>>>,
    next_shard_id: AtomicUsize,
    /// Next fault seed handed to a spawned device, so replacements get
    /// fault plans distinct from every shard before them.
    next_fault_seed: AtomicU64,
    lifecycle: LifecycleCounters,
    /// Certified cycle floors of the deadline gate, keyed by task shape,
    /// so the gate certifies each distinct shape once instead of running
    /// program generation plus the verifier fixpoint per request. Equal
    /// [`TaskShape`]s generate identical programs and so identical
    /// certificates, and [`Task::certified_cost`] certifies under the
    /// default configuration whatever tier the shards run, so the shape
    /// alone is the key. POA and Bellman-Ford have no shape — their
    /// programs follow the graph — and are certified per request. Empty
    /// unless [`ServeConfig::cycle_rate`] is set.
    floor_cache: Mutex<HashMap<TaskShape, Option<u64>>>,
}

/// Bound on [`Inner::floor_cache`]; a pathological shape churn clears
/// the memo rather than growing without limit.
const FLOOR_CACHE_MAX: usize = 4096;

impl Inner {
    fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Certified cycle floor of one task on this server's array width,
    /// memoized by its [`TaskShape`]; `None` when the task doesn't
    /// certify. The task must have passed preflight: a SIMD task without
    /// four lanes has no shape.
    fn cycle_floor(&self, task: &Task) -> Option<u64> {
        let n_pes = self.config.shard_config.pes_per_array;
        let Some(shape) = task.shape(n_pes) else {
            return task.certified_cost(n_pes).map(|c| c.cycle_floor);
        };
        if let Some(hit) = self.floor_cache.lock().expect("floor cache").get(&shape) {
            return *hit;
        }
        let floor = task.certified_cost(n_pes).map(|c| c.cycle_floor);
        let mut cache = self.floor_cache.lock().expect("floor cache");
        if cache.len() >= FLOOR_CACHE_MAX {
            cache.clear();
        }
        cache.insert(shape, floor);
        floor
    }

    /// The opt-in deadline gate: with a configured
    /// [`ServeConfig::cycle_rate`] and a request deadline, true when the
    /// task's certified cycle floor needs more wall-clock than the
    /// deadline allows, so the request is provably late. Only here does
    /// admission prepare a task, once per [`TaskShape`].
    fn deadline_infeasible(&self, task: &Task, deadline: Option<Duration>) -> bool {
        let (Some(rate), Some(deadline)) = (self.config.cycle_rate.filter(|&r| r > 0), deadline)
        else {
            return false;
        };
        self.cycle_floor(task)
            .is_some_and(|f| f as u128 * 1_000_000_000 > deadline.as_nanos() * rate as u128)
    }

    /// Snapshot of the shard table (cheap: clones the `Arc`s).
    fn shard_cells(&self) -> Vec<Arc<ShardCell>> {
        self.shards.lock().expect("shard table lock").clone()
    }
}

/// Builds and registers one shard: device, cell, thread. Runs on the
/// caller's thread so a panicking `DeviceConfig` fails at the call
/// site, not on a service thread.
fn spawn_shard(inner: &Arc<Inner>, config: DeviceConfig, respawn: bool) -> Result<usize, String> {
    let device = Device::new(config);
    let id = inner.next_shard_id.fetch_add(1, Ordering::AcqRel);
    let cell = Arc::new(ShardCell {
        id,
        queue: ShardQueue::new(inner.config.dispatch_queue),
        state: AtomicU8::new(ShardState::Joining.to_wire()),
        outstanding_cells: AtomicU64::new(0),
        completed: AtomicU64::new(0),
        status: Mutex::new(device.snapshot()),
        beat: Heartbeat::new(inner.now_nanos()),
        crippled_streak: AtomicU32::new(0),
        last_assessed_batch: AtomicU64::new(0),
        killed: AtomicBool::new(false),
    });
    let handle = {
        let cell = Arc::clone(&cell);
        let inner = Arc::clone(inner);
        thread::Builder::new()
            .name(format!("gendp-serve-shard{id}"))
            .spawn(move || shard_loop(cell, device, inner))
            .map_err(|e| format!("failed to spawn shard thread: {e}"))?
    };
    inner.shards.lock().expect("shard table lock").push(cell);
    inner.threads.lock().expect("thread list lock").push(handle);
    inner.lifecycle.spawned.fetch_add(1, Ordering::Relaxed);
    if respawn {
        inner.lifecycle.respawned.fetch_add(1, Ordering::Relaxed);
    }
    Ok(id)
}

/// The next fault seed, distinct from every seed handed out so far.
fn fresh_fault_config(inner: &Inner) -> DeviceConfig {
    let seed = inner.next_fault_seed.fetch_add(1, Ordering::AcqRel);
    inner.config.shard_config.with_fault_seed(seed)
}

/// A running multi-tenant alignment server. Dropping it (or calling
/// [`Server::shutdown`]) stops admission, drains every already-admitted
/// request through the shards, and joins all service threads.
pub struct Server {
    inner: Arc<Inner>,
    submit_tx: mpsc::Sender<Submitted>,
    scheduler: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts a server with the given shard layout and tenant set.
    ///
    /// # Errors
    ///
    /// Rejects a configuration with zero shards, zero tenants, or a
    /// duplicate tenant name.
    pub fn start(config: ServeConfig, tenants: Vec<TenantConfig>) -> Result<Server, String> {
        if config.shards == 0 {
            return Err("server needs at least one shard".into());
        }
        if tenants.is_empty() {
            return Err("server needs at least one tenant".into());
        }
        let mut by_name = HashMap::new();
        for (i, t) in tenants.iter().enumerate() {
            if by_name.insert(t.name.clone(), i).is_some() {
                return Err(format!("duplicate tenant name {:?}", t.name));
            }
        }
        let states: Vec<Arc<TenantState>> = tenants
            .into_iter()
            .map(|t| Arc::new(TenantState::new(t)))
            .collect();

        let base_seed = config.shard_config.fault.map(|f| f.seed).unwrap_or(0);
        let inner = Arc::new(Inner {
            config,
            tenants: states,
            by_name,
            closed: AtomicBool::new(false),
            epoch: Instant::now(),
            shards: Mutex::new(Vec::new()),
            threads: Mutex::new(Vec::new()),
            next_shard_id: AtomicUsize::new(0),
            // Initial shards take seeds base..base+shards (matching the
            // historical per-shard offset); replacements continue from
            // there.
            next_fault_seed: AtomicU64::new(base_seed),
            lifecycle: LifecycleCounters::default(),
            floor_cache: Mutex::new(HashMap::new()),
        });

        // Spawn the initial pool up front so a bad DeviceConfig fails
        // here, not on a service thread.
        for _ in 0..config.shards {
            let shard_config = fresh_fault_config(&inner);
            spawn_shard(&inner, shard_config, false)?;
        }

        let (submit_tx, submit_rx) = mpsc::channel::<Submitted>();
        let scheduler = {
            let inner = Arc::clone(&inner);
            thread::Builder::new()
                .name("gendp-serve-sched".into())
                .spawn(move || scheduler_loop(inner, submit_rx))
                .map_err(|e| format!("failed to spawn scheduler thread: {e}"))?
        };

        Ok(Server {
            inner,
            submit_tx,
            scheduler: Some(scheduler),
        })
    }

    /// A submission handle for the named tenant, or `None` if no such
    /// tenant is registered.
    pub fn client(&self, tenant: &str) -> Option<TenantClient> {
        let index = *self.inner.by_name.get(tenant)?;
        Some(TenantClient {
            inner: Arc::clone(&self.inner),
            tenant: index,
            submit_tx: self.submit_tx.clone(),
        })
    }

    /// Grows the pool by one shard built from the configured
    /// `shard_config` with a fresh fault seed. The shard starts
    /// [`ShardState::Joining`] and begins taking traffic immediately.
    /// Returns the new shard's id.
    ///
    /// # Errors
    ///
    /// Fails when the server is shutting down or the shard thread
    /// cannot be spawned.
    pub fn add_shard(&self) -> Result<usize, String> {
        let config = fresh_fault_config(&self.inner);
        self.add_shard_with(config)
    }

    /// Like [`Server::add_shard`] with an explicit device
    /// configuration (the chaos-testing hook for joining deliberately
    /// broken shards). Panics if `config` is invalid, like
    /// [`Device::new`].
    pub fn add_shard_with(&self, config: DeviceConfig) -> Result<usize, String> {
        if self.inner.closed.load(Ordering::Acquire) {
            return Err("server is shutting down".into());
        }
        spawn_shard(&self.inner, config, false)
    }

    /// Begins retiring the shard: it stops receiving new batches, its
    /// undispatched queue is reclaimed and requeued onto surviving
    /// shards (exactly-once delivery preserved), its in-flight batch
    /// finishes and delivers, and once drained it goes
    /// [`ShardState::Dead`]. Safe under load; returns immediately.
    ///
    /// # Errors
    ///
    /// Fails for an unknown id, a shard already draining or dead, or
    /// when the shard is the last dispatchable one (the pool never
    /// retires itself to zero).
    pub fn retire_shard(&self, id: usize) -> Result<(), String> {
        let shards = self.inner.shards.lock().expect("shard table lock");
        let cell = shards
            .iter()
            .find(|c| c.id == id)
            .ok_or_else(|| format!("no shard with id {id}"))?;
        // Under the table lock, concurrent retirements serialize — the
        // dispatchable count can only be stale in the safe direction
        // (a monitor death would only lower it, and the monitor holds
        // this lock via shard_cells()).
        let dispatchable = shards
            .iter()
            .filter(|c| c.state().is_dispatchable())
            .count();
        let state = cell.state();
        if !state.is_dispatchable() {
            return Err(format!("shard {id} is already {state}"));
        }
        if dispatchable <= 1 {
            return Err(format!(
                "refusing to retire shard {id}: it is the last dispatchable shard"
            ));
        }
        if !cell.transition(state, ShardState::Draining) {
            return Err(format!("shard {id} changed state during retirement"));
        }
        Ok(())
    }

    /// Chaos hook: simulates abrupt shard loss. The monitor declares
    /// the shard dead on its next pass, requeues its undispatched
    /// work, and (policy permitting) respawns a replacement. The
    /// in-flight batch still delivers — the "device" is simulated on
    /// the shard thread, which survives.
    ///
    /// # Errors
    ///
    /// Fails for an unknown id or a shard already dead.
    pub fn kill_shard(&self, id: usize) -> Result<(), String> {
        let shards = self.inner.shards.lock().expect("shard table lock");
        let cell = shards
            .iter()
            .find(|c| c.id == id)
            .ok_or_else(|| format!("no shard with id {id}"))?;
        if cell.state() == ShardState::Dead {
            return Err(format!("shard {id} is already dead"));
        }
        cell.killed.store(true, Ordering::Release);
        Ok(())
    }

    /// Lightweight shard pool status, one frame per shard ever
    /// spawned, in id order — the payload behind the wire protocol's
    /// shard-status probe, also usable directly in-process.
    pub fn shard_status(&self) -> Vec<crate::wire::ShardStatusFrame> {
        self.inner
            .shard_cells()
            .iter()
            .map(|cell| {
                let status = cell.status.lock().expect("status lock");
                let healthy =
                    status.healthy_slots(ArrayClass::Int) + status.healthy_slots(ArrayClass::Float);
                let quarantined = status.quarantined_slots(ArrayClass::Int)
                    + status.quarantined_slots(ArrayClass::Float);
                drop(status);
                crate::wire::ShardStatusFrame {
                    id: cell.id as u64,
                    state: cell.state(),
                    healthy_slots: healthy as u32,
                    quarantined_slots: quarantined as u32,
                    outstanding_cells: cell.outstanding_cells.load(Ordering::Acquire),
                    completed: cell.completed.load(Ordering::Acquire),
                }
            })
            .collect()
    }

    /// Point-in-time service statistics across all tenants and shards
    /// (dead shards included, for post-mortems).
    pub fn stats(&self) -> ServerStats {
        let tenants: Vec<TenantStats> = self
            .inner
            .tenants
            .iter()
            .map(|t| TenantStats {
                name: t.config.name.clone(),
                priority: t.config.priority,
                weight: t.config.weight,
                effective_weight: t.effective_weight,
                counters: t.counters.snapshot(),
                queued: t.queued.load(Ordering::Acquire),
                in_flight: t.in_flight.load(Ordering::Acquire),
                latency: t.latency.lock().expect("latency lock").clone(),
            })
            .collect();
        let shards: Vec<ShardStats> = self
            .inner
            .shard_cells()
            .iter()
            .map(|cell| ShardStats {
                shard: cell.id,
                state: cell.state(),
                outstanding_cells: cell.outstanding_cells.load(Ordering::Acquire),
                completed: cell.completed.load(Ordering::Acquire),
                device: cell.status.lock().expect("status lock").clone(),
            })
            .collect();
        let recovery = RecoveryReport::merged(shards.iter().map(|s| &s.device.recovery));
        let mut totals = TenantCountersSnapshot::default();
        for t in &tenants {
            totals.submitted += t.counters.submitted;
            totals.accepted += t.counters.accepted;
            totals.rejected_invalid += t.counters.rejected_invalid;
            totals.rejected_rate += t.counters.rejected_rate;
            totals.rejected_quota += t.counters.rejected_quota;
            totals.rejected_over_quota += t.counters.rejected_over_quota;
            totals.rejected_queue_full += t.counters.rejected_queue_full;
            totals.rejected_infeasible += t.counters.rejected_infeasible;
            totals.completed += t.counters.completed;
            totals.failed += t.counters.failed;
            totals.deadline_expired += t.counters.deadline_expired;
            totals.cells += t.counters.cells;
        }
        ServerStats {
            tenants,
            shards,
            recovery,
            totals,
            lifecycle: self.inner.lifecycle.snapshot(),
        }
    }

    /// Stops admission, drains every admitted request, and joins all
    /// service threads. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.inner.closed.store(true, Ordering::Release);
        if let Some(handle) = self.scheduler.take() {
            drop(handle.join());
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A tenant-scoped submission handle. Cheap to clone; safe to share
/// across threads.
#[derive(Clone)]
pub struct TenantClient {
    inner: Arc<Inner>,
    tenant: usize,
    submit_tx: mpsc::Sender<Submitted>,
}

impl TenantClient {
    /// Submits one task through admission control, with the tenant's
    /// configured default deadline (if any). On `Ok` the returned
    /// ticket will always resolve — completion, device failure,
    /// deadline expiry, or disconnect — exactly once.
    ///
    /// # Errors
    ///
    /// Any [`AdmissionError`]: preflight rejection, rate limit, quota,
    /// or server shutdown.
    pub fn submit(&self, task: Task) -> Result<Ticket, AdmissionError> {
        let deadline = self.inner.tenants[self.tenant].config.deadline;
        self.submit_inner(task, deadline)
    }

    /// Like [`TenantClient::submit`] with an explicit per-request
    /// deadline overriding the tenant default. The deadline clock
    /// starts at admission.
    pub fn submit_with_deadline(
        &self,
        task: Task,
        deadline: Duration,
    ) -> Result<Ticket, AdmissionError> {
        self.submit_inner(task, Some(deadline))
    }

    /// Admits one task: the admission gate, with the deadline gate run
    /// after preflight. Returns the DRR charge, the task's DP cells —
    /// exact, and worked out without preparing it.
    fn admit(&self, task: &Task, deadline: Option<Duration>) -> Result<u64, AdmissionError> {
        let state = &self.inner.tenants[self.tenant];
        let shutting_down = self.inner.closed.load(Ordering::Acquire);
        state.admit(task, self.inner.now_nanos(), shutting_down, || {
            self.inner.deadline_infeasible(task, deadline)
        })?;
        Ok(task.cells_estimate().max(1))
    }

    fn submit_inner(
        &self,
        task: Task,
        deadline: Option<Duration>,
    ) -> Result<Ticket, AdmissionError> {
        // Latency counts admission; the deadline starts at admission.
        let submitted_at = Instant::now();
        let cost = self.admit(&task, deadline)?;
        let (tx, rx) = mpsc::channel();
        let submitted = Submitted {
            tenant: self.tenant,
            task,
            cost,
            submitted_at,
            deadline: deadline.map(|d| Instant::now() + d),
            reply: Reply::Oneshot(tx),
        };
        self.send_admitted(submitted)?;
        Ok(Ticket { rx })
    }

    /// Forwards an already-admitted request to the scheduler, undoing
    /// the admission hold if the scheduler is gone.
    pub(crate) fn send_admitted(&self, submitted: Submitted) -> Result<(), AdmissionError> {
        let state = &self.inner.tenants[self.tenant];
        if self.submit_tx.send(submitted).is_err() {
            state.queued.fetch_sub(1, Ordering::AcqRel);
            state.in_flight.fetch_sub(1, Ordering::AcqRel);
            state.counters.accepted.fetch_sub(1, Ordering::Relaxed);
            return Err(AdmissionError::ShuttingDown);
        }
        Ok(())
    }

    /// Runs admission for an externally built request (wire path) and
    /// forwards it. The caller supplies the reply route; the tenant's
    /// default deadline applies.
    pub(crate) fn submit_with_reply(&self, task: Task, reply: Reply) -> Result<(), AdmissionError> {
        let submitted_at = Instant::now();
        let deadline = self.inner.tenants[self.tenant].config.deadline;
        let cost = self.admit(&task, deadline)?;
        self.send_admitted(Submitted {
            tenant: self.tenant,
            task,
            cost,
            submitted_at,
            deadline: deadline.map(|d| Instant::now() + d),
            reply,
        })
    }
}

/// A pending reply to one submitted request.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Delivery>,
}

impl Ticket {
    /// Blocks until the request resolves. Never hangs forever: a server
    /// that dies resolves outstanding tickets with
    /// [`ServeError::Disconnected`].
    pub fn wait(self) -> Delivery {
        self.rx.recv().unwrap_or(Err(ServeError::Disconnected))
    }

    /// Like [`Ticket::wait`] with a timeout; `None` means still
    /// pending (the ticket is consumed).
    pub fn wait_timeout(self, timeout: Duration) -> Option<Delivery> {
        match self.rx.recv_timeout(timeout) {
            Ok(delivery) => Some(delivery),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => Some(Err(ServeError::Disconnected)),
        }
    }
}

/// Per-tenant statistics snapshot.
#[derive(Debug, Clone)]
pub struct TenantStats {
    /// Tenant name.
    pub name: String,
    /// Priority class.
    pub priority: Priority,
    /// Configured weight.
    pub weight: u32,
    /// Weight × class multiplier, as scheduled.
    pub effective_weight: u64,
    /// Lifetime counters.
    pub counters: TenantCountersSnapshot,
    /// Requests currently queued in the scheduler.
    pub queued: usize,
    /// Requests admitted and not yet delivered.
    pub in_flight: usize,
    /// End-to-end latency distribution of delivered requests.
    pub latency: LatencyHistogram,
}

/// Per-shard statistics snapshot.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Shard id (spawn-ordered, never reused).
    pub shard: usize,
    /// Lifecycle state.
    pub state: ShardState,
    /// DP cells dispatched and not yet delivered.
    pub outstanding_cells: u64,
    /// Tasks this shard delivered successfully.
    pub completed: u64,
    /// Device health after the shard's most recent batch.
    pub device: DeviceSnapshot,
}

/// Whole-server statistics snapshot.
#[derive(Debug, Clone)]
pub struct ServerStats {
    /// One entry per registered tenant.
    pub tenants: Vec<TenantStats>,
    /// One entry per shard ever spawned, in id order (dead included).
    pub shards: Vec<ShardStats>,
    /// Recovery counters merged across all shards.
    pub recovery: RecoveryReport,
    /// Counters summed across tenants.
    pub totals: TenantCountersSnapshot,
    /// Shard lifecycle event counters.
    pub lifecycle: LifecycleSnapshot,
}

/// Picks a shard for a batch among dispatchable shards with queue
/// room: best lifecycle rank first, then fewest quarantined slots in
/// the classes the batch needs, then least outstanding work.
fn pick_shard(shards: &[Arc<ShardCell>], class_mix: (bool, bool)) -> Option<Arc<ShardCell>> {
    let (wants_int, wants_float) = class_mix;
    shards
        .iter()
        .filter(|cell| cell.state().is_dispatchable() && cell.queue.has_room())
        .min_by_key(|cell| {
            let status = cell.status.lock().expect("status lock");
            let mut quarantined = 0u64;
            if wants_int {
                quarantined += status.quarantined_slots(ArrayClass::Int) as u64;
            }
            if wants_float {
                quarantined += status.quarantined_slots(ArrayClass::Float) as u64;
            }
            drop(status);
            (
                cell.state().dispatch_rank(),
                quarantined,
                cell.outstanding_cells.load(Ordering::Acquire),
            )
        })
        .cloned()
}

/// Delivers a post-admission deadline expiry: the tenant's in-flight
/// hold is released and the ticket resolves `DeadlineExceeded`. The
/// caller has already accounted for the `queued` gauge.
fn expire(inner: &Inner, meta: JobMeta) {
    let tenant = &inner.tenants[meta.tenant];
    tenant.in_flight.fetch_sub(1, Ordering::AcqRel);
    tenant
        .counters
        .deadline_expired
        .fetch_add(1, Ordering::Relaxed);
    meta.reply.deliver(Err(ServeError::DeadlineExceeded));
}

/// Requeues reclaimed batches onto the tenant queues (deadline-gated:
/// expired work resolves immediately instead of riding along).
fn requeue_batches(
    inner: &Inner,
    queues: &mut [VecDeque<Costed<Pending>>],
    batches: Vec<DispatchBatch>,
) {
    let now = Instant::now();
    for batch in batches {
        for (meta, task) in batch {
            if meta.expired(now) {
                expire(inner, meta);
                continue;
            }
            inner.tenants[meta.tenant]
                .queued
                .fetch_add(1, Ordering::AcqRel);
            inner
                .lifecycle
                .requeued_tasks
                .fetch_add(1, Ordering::Relaxed);
            queues[meta.tenant].push_back(Costed::new(meta.cost, Pending { task, meta }));
        }
    }
}

/// Declares a shard dead: reclaims and requeues its undispatched
/// queue, releases its outstanding-cell accounting for that queue, and
/// (policy permitting, outside shutdown) spawns a replacement with a
/// fresh fault seed. The in-flight batch, if any, still delivers from
/// the shard thread.
fn declare_dead(
    inner: &Arc<Inner>,
    queues: &mut [VecDeque<Costed<Pending>>],
    cell: &Arc<ShardCell>,
) {
    let reclaimed = cell.queue.reclaim();
    let reclaimed_cells: u64 = reclaimed
        .iter()
        .flat_map(|batch| batch.iter())
        .map(|(meta, _)| meta.cost)
        .sum();
    cell.outstanding_cells
        .fetch_sub(reclaimed_cells, Ordering::AcqRel);
    cell.set_state(ShardState::Dead);
    inner.lifecycle.died.fetch_add(1, Ordering::Relaxed);
    requeue_batches(inner, queues, reclaimed);
    if inner.config.lifecycle.auto_respawn && !inner.closed.load(Ordering::Acquire) {
        let config = fresh_fault_config(inner);
        // A failed respawn (thread limit) leaves the pool smaller;
        // dispatch keeps working on the survivors.
        drop(spawn_shard(inner, config, true));
    }
}

/// One monitor pass over the shard table: drive lifecycle transitions
/// from kill flags, heartbeats, and quarantine streaks; finish drains;
/// respawn the dead. Runs on the scheduler thread between batches, so
/// every queue mutation here is ordered with dispatch.
fn monitor_shards(inner: &Arc<Inner>, queues: &mut [VecDeque<Costed<Pending>>]) {
    let policy = inner.config.lifecycle;
    for cell in inner.shard_cells() {
        let state = cell.state();
        match state {
            ShardState::Dead => {}
            ShardState::Draining => {
                if !cell.queue.is_closed() {
                    let reclaimed = cell.queue.reclaim();
                    let cells: u64 = reclaimed
                        .iter()
                        .flat_map(|b| b.iter())
                        .map(|(m, _)| m.cost)
                        .sum();
                    cell.outstanding_cells.fetch_sub(cells, Ordering::AcqRel);
                    requeue_batches(inner, queues, reclaimed);
                }
                if cell.outstanding_cells.load(Ordering::Acquire) == 0 {
                    cell.set_state(ShardState::Dead);
                    inner.lifecycle.retired.fetch_add(1, Ordering::Relaxed);
                }
            }
            ShardState::Joining | ShardState::Healthy | ShardState::Degraded => {
                if cell.killed.load(Ordering::Acquire) {
                    declare_dead(inner, queues, &cell);
                    continue;
                }
                let silent = cell.beat.silent_for(inner.now_nanos());
                if cell.outstanding_cells.load(Ordering::Acquire) > 0
                    && silent > policy.heartbeat_timeout.as_nanos() as u64
                {
                    declare_dead(inner, queues, &cell);
                    continue;
                }
                // Assess only snapshots from batches we haven't seen:
                // quarantine resets per batch, so a streak must count
                // fresh evidence, not re-read one bad batch forever.
                let snapshot = cell.status.lock().expect("status lock").clone();
                if snapshot.batches > cell.last_assessed_batch.load(Ordering::Acquire) {
                    cell.last_assessed_batch
                        .store(snapshot.batches, Ordering::Release);
                    match assess(&snapshot, &policy) {
                        HealthSignal::Crippled => {
                            let streak = cell.crippled_streak.fetch_add(1, Ordering::AcqRel) + 1;
                            if streak >= policy.dead_after_crippled {
                                declare_dead(inner, queues, &cell);
                                continue;
                            }
                            cell.transition(state, ShardState::Degraded);
                        }
                        HealthSignal::Degraded => {
                            cell.crippled_streak.store(0, Ordering::Release);
                            cell.transition(state, ShardState::Degraded);
                        }
                        HealthSignal::Healthy => {
                            cell.crippled_streak.store(0, Ordering::Release);
                            if state == ShardState::Degraded {
                                cell.transition(state, ShardState::Healthy);
                            }
                        }
                    }
                }
                // A joining shard that has delivered work is proven.
                if cell.state() == ShardState::Joining && cell.completed.load(Ordering::Acquire) > 0
                {
                    cell.transition(ShardState::Joining, ShardState::Healthy);
                }
            }
        }
    }
}

fn scheduler_loop(inner: Arc<Inner>, submit_rx: Receiver<Submitted>) {
    let tenant_count = inner.tenants.len();
    let weights: Vec<u64> = inner.tenants.iter().map(|t| t.effective_weight).collect();
    let mut queues: Vec<VecDeque<Costed<Pending>>> =
        (0..tenant_count).map(|_| Default::default()).collect();
    let mut drr = DrrState::new(tenant_count, inner.config.quantum_cells);

    let enqueue = |queues: &mut Vec<VecDeque<Costed<Pending>>>, s: Submitted| {
        queues[s.tenant].push_back(Costed::new(
            s.cost,
            Pending {
                task: s.task,
                meta: JobMeta {
                    tenant: s.tenant,
                    submitted_at: s.submitted_at,
                    deadline: s.deadline,
                    cost: s.cost,
                    reply: s.reply,
                },
            },
        ));
    };

    let mut inbox_open = true;
    loop {
        // Drain whatever arrived since the last batch.
        while inbox_open {
            match submit_rx.try_recv() {
                Ok(s) => enqueue(&mut queues, s),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => inbox_open = false,
            }
        }

        // Lifecycle pass: may requeue reclaimed work into `queues`.
        monitor_shards(&inner, &mut queues);

        if queues.iter().all(|q| q.is_empty()) {
            if !inbox_open || inner.closed.load(Ordering::Acquire) {
                break;
            }
            // Idle: block briefly for new work, re-checking `closed`
            // at a 1 ms cadence.
            match submit_rx.recv_timeout(Duration::from_millis(1)) {
                Ok(s) => enqueue(&mut queues, s),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => inbox_open = false,
            }
            continue;
        }

        // Backpressure / outage gate: hold the queued work until some
        // dispatchable shard can take a batch.
        let cells = inner.shard_cells();
        let dispatchable = cells.iter().filter(|c| c.state().is_dispatchable());
        if !dispatchable.clone().any(|c| c.queue.has_room()) {
            if dispatchable.count() == 0 && inner.closed.load(Ordering::Acquire) {
                // Shutting down with nowhere to run: resolve what's
                // left instead of hanging tickets.
                for queue in &mut queues {
                    for costed in queue.drain(..) {
                        let meta = costed.item.meta;
                        let tenant = &inner.tenants[meta.tenant];
                        tenant.queued.fetch_sub(1, Ordering::AcqRel);
                        tenant.in_flight.fetch_sub(1, Ordering::AcqRel);
                        tenant.counters.failed.fetch_add(1, Ordering::Relaxed);
                        meta.reply.deliver(Err(ServeError::Disconnected));
                    }
                }
                break;
            }
            match submit_rx.recv_timeout(Duration::from_millis(1)) {
                Ok(s) => enqueue(&mut queues, s),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => inbox_open = false,
            }
            continue;
        }

        let batch = drr.assemble(&mut queues, &weights, inner.config.batch_max);
        let now = Instant::now();
        let mut wants_int = false;
        let mut wants_float = false;
        let mut cells_cost = 0u64;
        let mut jobs: DispatchBatch = Vec::with_capacity(batch.len());
        for (tenant, costed) in batch {
            inner.tenants[tenant].queued.fetch_sub(1, Ordering::AcqRel);
            // The dispatch-time deadline gate: expired work never
            // occupies a dispatch slot.
            if costed.item.meta.expired(now) {
                expire(&inner, costed.item.meta);
                continue;
            }
            match costed.item.task.array_class() {
                ArrayClass::Int => wants_int = true,
                ArrayClass::Float => wants_float = true,
            }
            cells_cost += costed.cost;
            jobs.push((costed.item.meta, costed.item.task));
        }
        if jobs.is_empty() {
            continue;
        }
        let Some(target) = pick_shard(&cells, (wants_int, wants_float)) else {
            // A retire/kill raced between the room check and here; put
            // the work back and re-run the monitor.
            requeue_batches(&inner, &mut queues, vec![jobs]);
            // requeue_batches re-counts these as lifecycle requeues and
            // re-increments `queued`; both are accurate — the work did
            // bounce off a dying pool.
            continue;
        };
        // Heartbeat silence counts only while work is outstanding: an
        // idle shard has had nothing to beat for, so work reaching it
        // restarts its clock instead of finding it already overdue.
        if target
            .outstanding_cells
            .fetch_add(cells_cost, Ordering::AcqRel)
            == 0
        {
            target.beat.beat(inner.now_nanos());
        }
        // Bounded push: blocks when the shard is `dispatch_queue`
        // batches behind — the backpressure point. Only the monitor
        // (this thread) closes queues of non-dead shards, so a bounce
        // can only come from a shutdown race; requeue and retry.
        if let Err(bounced) = target.queue.push(jobs) {
            target
                .outstanding_cells
                .fetch_sub(cells_cost, Ordering::AcqRel);
            requeue_batches(&inner, &mut queues, vec![bounced]);
        }
    }

    // Shutdown: close every queue (they drain what they hold), then
    // join shard threads. Loop because add_shard may race the close
    // pass; every later-spawned thread still lands in `threads`.
    loop {
        let handles: Vec<JoinHandle<()>> = {
            let mut threads = inner.threads.lock().expect("thread list lock");
            threads.drain(..).collect()
        };
        if handles.is_empty() {
            break;
        }
        for cell in inner.shard_cells() {
            cell.queue.close();
        }
        for handle in handles {
            drop(handle.join());
        }
    }
}

fn shard_loop(cell: Arc<ShardCell>, mut device: Device, inner: Arc<Inner>) {
    while let Pop::Batch(jobs) = cell.queue.pop() {
        cell.beat.beat(inner.now_nanos());
        let batch_cells: u64 = jobs.iter().map(|(m, _)| m.cost).sum();
        let (metas, tasks): (Vec<JobMeta>, Vec<Task>) = jobs.into_iter().unzip();
        match device.run_batch(tasks) {
            Ok(outcome) => {
                let now = Instant::now();
                for (meta, result) in metas.into_iter().zip(outcome.results) {
                    // Completion-time deadline gate: a late result is
                    // suppressed so callers can trust that an `Ok`
                    // arrived inside its deadline.
                    if meta.expired(now) {
                        expire(&inner, meta);
                        continue;
                    }
                    let tenant = &inner.tenants[meta.tenant];
                    tenant.in_flight.fetch_sub(1, Ordering::AcqRel);
                    let latency = meta.submitted_at.elapsed();
                    let delivery = match result {
                        Ok(r) => {
                            tenant.counters.completed.fetch_add(1, Ordering::Relaxed);
                            tenant
                                .counters
                                .cells
                                .fetch_add(meta.cost, Ordering::Relaxed);
                            cell.completed.fetch_add(1, Ordering::AcqRel);
                            let mut hist = tenant.latency.lock().expect("latency lock");
                            hist.record(latency.as_nanos() as u64);
                            drop(hist);
                            Ok(Completed {
                                value: r.value,
                                kernel: r.kernel,
                                stats: r.stats,
                                attempts: r.attempts,
                                shard: cell.id,
                                array: r.array,
                                latency,
                            })
                        }
                        Err(failure) => {
                            tenant.counters.failed.fetch_add(1, Ordering::Relaxed);
                            Err(ServeError::Failed(failure))
                        }
                    };
                    meta.reply.deliver(delivery);
                }
            }
            Err(e) => {
                // Whole-batch refusal (e.g. a class with no array on
                // this device). Every request still gets its answer.
                for meta in metas {
                    let tenant = &inner.tenants[meta.tenant];
                    tenant.in_flight.fetch_sub(1, Ordering::AcqRel);
                    tenant.counters.failed.fetch_add(1, Ordering::Relaxed);
                    meta.reply.deliver(Err(ServeError::Runtime(e.clone())));
                }
            }
        }
        cell.outstanding_cells
            .fetch_sub(batch_cells, Ordering::AcqRel);
        *cell.status.lock().expect("status lock") = device.snapshot();
        cell.beat.beat(inner.now_nanos());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gendp_kernels::bellman_ford::Graph;
    use gendp_kernels::poa::Poa;
    use gendp_kernels::Scoring;
    use gendp_seq::DnaSeq;

    /// Admission charges the closed-form cell count, so without the
    /// deadline gate it prepares nothing and the floor memo stays empty;
    /// with the gate, each shaped request is certified once.
    #[test]
    fn admission_prepares_only_for_the_deadline_gate() {
        let seq = |s: &str| s.parse::<DnaSeq>().expect("bases");
        let mut graph = Poa::new();
        for backbone in ["ACGTTGCAAG", "ACGATGCTAG"] {
            graph.add_sequence(&seq(backbone), &Scoring::racon());
        }
        let mut roads = Graph::new(3);
        roads.add_edge(0, 1, 3);
        roads.add_edge(1, 2, 4);
        let scoring = Scoring::racon();
        let tasks = [
            Task::bsw_local(seq("ACGTACGT"), seq("ACGTTCGTAC"), Scoring::bwa_mem()),
            Task::dtw(vec![3, 1, 4, 1, 5], vec![9, 2, 6]),
            Task::Poa {
                graph,
                probe: seq("ACGTGCAG"),
                scoring,
            },
            Task::BellmanFord {
                graph: roads,
                source: 0,
                rounds: 2,
            },
        ];
        // BSW and DTW have shapes; POA and Bellman-Ford are certified per
        // request.
        for (cycle_rate, memoized) in [(None, 0), (Some(1 << 40), 2)] {
            let config = ServeConfig {
                cycle_rate,
                ..ServeConfig::default()
            };
            let mut server = Server::start(config, vec![TenantConfig::new("t")]).expect("start");
            let client = server.client("t").expect("tenant");
            for task in &tasks {
                let ticket = client.submit_with_deadline(task.clone(), Duration::from_secs(60));
                assert!(ticket.expect("admitted").wait().is_ok());
            }
            let memo = server.inner.floor_cache.lock().expect("floor cache").len();
            assert_eq!(memo, memoized, "cycle rate {cycle_rate:?}");
            server.shutdown();
        }
    }
}
