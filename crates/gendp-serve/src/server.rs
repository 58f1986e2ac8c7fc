//! The alignment server: tenants in, shards out.
//!
//! ```text
//!   TenantClient::submit ──admission──▶ per-tenant queues + DRR state
//!                                       (one lock; wakes the best idle shard)
//!                      ┌───────────────────┴──────────────────┐
//!                      ▼ pull: DRR batch, deadline gate       ▼
//!                shard #0 thread                        shard #N thread
//!                owns a Device                          ...
//!                (16 int + 1 FP arrays)                       │
//!                      │ run_batch, retries, quarantine,      │
//!                      │ own lifecycle from its snapshot      │
//!                      └──────────── deliver ─────────────────┘
//!                            ticket / connection reply
//!
//!                watchdog thread: heartbeat silence → Dead, respawn
//! ```
//!
//! Each *shard* is one simulated DPAx device (the paper's 16 integer +
//! 1 floating-point PE arrays) owned by a dedicated thread — a fault
//! domain with a [`ShardState`] lifecycle. An idle shard pulls its next
//! batch from the tenant queues, so nothing ever waits at a shard: a
//! shard holds at most the batch it is running. Shards take work
//! healthiest first: a degraded shard, or one with more quarantined
//! slots, pulls only when more requests wait than it has healthier
//! peers, each of which takes at least one on its next pull. The shard
//! pool is dynamic: [`Server::add_shard`] grows it under load,
//! [`Server::retire_shard`] makes a shard stop pulling, and after every
//! batch a shard folds its fresh device snapshot into its own state —
//! degraded, recovered, or dead after a crippled streak.
//! [`Server::kill_shard`] declares a shard dead at once, and a watchdog
//! thread declares heartbeat-silent shards dead. Outside shutdown,
//! every unplanned death spawns a replacement device with a fresh fault
//! seed.
//!
//! Every admitted request is delivered exactly once: as a
//! [`Completed`] value, a [`ServeError::Failed`] after the device's
//! retry budget, a [`ServeError::DeadlineExceeded`] when its deadline
//! passes before a result exists, or a terminal
//! [`ServeError::Runtime`]/[`ServeError::Disconnected`]. Tickets never
//! hang, and a dying shard loses nothing: its in-flight batch still
//! delivers (the device call is synchronous on the shard thread), and
//! work it never pulled stays queued for the survivors.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
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
    /// [`Server::retire_shard`] and self-healing.
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
    /// Shard health policy: degraded/dead thresholds and the heartbeat
    /// timeout.
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
    /// produced; it was dropped when a shard pulled it, or its late
    /// result was suppressed at completion.
    DeadlineExceeded,
    /// The server went away before delivering: no shard was left to
    /// run the request at shutdown, or the thread running it was lost.
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

/// What sits in a tenant's queue.
struct Pending {
    task: Task,
    meta: JobMeta,
}

/// Order in which shards take work, lower first: healthy and joining
/// shards before degraded ones, then fewer quarantined slots after the
/// shard's latest batch. Slot quarantine resets every batch, so a shard
/// with rotten slots pays retries on each batch it pulls.
type PullRank = (bool, usize);

/// A shard that still pulls, as the queues see it.
struct Puller {
    cell: Arc<ShardCell>,
    /// Its rank as of its latest pull.
    rank: PullRank,
    /// Waiting for work and not yet woken.
    idle: bool,
}

/// The tenant queues and the DRR state that orders them, behind one
/// lock: submitters push, idle shards pull.
struct Queues {
    tenants: Vec<VecDeque<Costed<Pending>>>,
    drr: DrrState,
    /// Set once by shutdown: nothing more is queued and no shard is
    /// spawned, and shards pull, whatever their rank, until the queues
    /// are empty.
    closed: bool,
    /// Every shard that still pulls, in spawn order. New work wakes the
    /// best-ranked idle one.
    pullers: Vec<Puller>,
}

impl Queues {
    fn queued(&self) -> usize {
        self.tenants.iter().map(VecDeque::len).sum()
    }

    /// Whether a shard of this rank takes the queued work now. Before
    /// shutdown it leaves a backlog no longer than the count of
    /// dispatchable shards ranked ahead of it to those shards, busy or
    /// idle: each takes at least one request when it next pulls.
    fn pulls(&self, rank: PullRank) -> bool {
        let queued = self.queued();
        queued > 0 && (self.closed || queued > self.ranked_ahead(rank))
    }

    /// Marks the best-ranked idle shard woken, if it would pull, and
    /// returns it for the caller to notify.
    fn take_idle(&mut self) -> Option<Arc<ShardCell>> {
        let best = (0..self.pullers.len())
            .filter(|&i| self.pullers[i].idle)
            .min_by_key(|&i| self.pullers[i].rank)?;
        if !self.pulls(self.pullers[best].rank) {
            return None;
        }
        self.pullers[best].idle = false;
        Some(Arc::clone(&self.pullers[best].cell))
    }

    /// Wakes every idle shard to re-read its state, the ranks ahead of
    /// it, or the closed flag.
    fn wake_all(&mut self) {
        for puller in self.pullers.iter_mut().filter(|p| p.idle) {
            puller.idle = false;
            puller.cell.wake.notify_one();
        }
    }

    /// Dispatchable shards, busy or idle, ranked ahead of `rank`.
    fn ranked_ahead(&self, rank: PullRank) -> usize {
        self.pullers
            .iter()
            .filter(|p| p.rank < rank && p.cell.state().is_dispatchable())
            .count()
    }
}

/// One live (or once-live) shard: the shared half of a shard thread.
/// Dead cells stay in the table so ids stay stable and stats keep their
/// history.
struct ShardCell {
    /// Spawn-ordered id, never reused.
    id: usize,
    state: AtomicU8,
    /// DP cells of the batch the shard is running.
    outstanding_cells: AtomicU64,
    /// Tasks this shard delivered successfully (drives the
    /// `Joining → Healthy` promotion).
    completed: AtomicU64,
    /// Latest device snapshot, refreshed after every batch.
    status: Mutex<DeviceSnapshot>,
    /// Progress beacon: beats when the shard pulls or finishes a batch.
    beat: Heartbeat,
    /// Where the shard waits, under the queue lock, while it is idle.
    wake: Condvar,
}

impl ShardCell {
    fn state(&self) -> ShardState {
        ShardState::from_wire(self.state.load(Ordering::Acquire)).unwrap_or(ShardState::Dead)
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
    /// Each tenant's `effective_weight`, in tenant order, for DRR.
    weights: Vec<u64>,
    /// Idle shards wait for work, a retirement, a kill, a death or
    /// shutdown. Whoever changes what they wait on does so under this
    /// lock and marks the shard woken, so a shard between its check and
    /// its wait cannot miss the wake-up.
    queues: Mutex<Queues>,
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

    fn lock_queues(&self) -> MutexGuard<'_, Queues> {
        self.queues.lock().expect("queue lock")
    }

    fn wake_all(&self) {
        self.lock_queues().wake_all();
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

/// Builds and registers one shard: device, cell, thread. Builds the
/// device on the caller's thread so a panicking `DeviceConfig` fails at
/// the call site, not on a service thread. Refuses once shutdown has
/// closed the queues; the check and the registration share the queue
/// lock, so shutdown joins every shard thread that was ever spawned.
fn spawn_shard(inner: &Arc<Inner>, config: DeviceConfig, respawn: bool) -> Result<usize, String> {
    let device = Device::new(config);
    let mut queues = inner.lock_queues();
    if queues.closed {
        return Err("server is shutting down".into());
    }
    let id = inner.next_shard_id.fetch_add(1, Ordering::AcqRel);
    let cell = Arc::new(ShardCell {
        id,
        state: AtomicU8::new(ShardState::Joining.to_wire()),
        outstanding_cells: AtomicU64::new(0),
        completed: AtomicU64::new(0),
        status: Mutex::new(device.snapshot()),
        beat: Heartbeat::new(inner.now_nanos()),
        wake: Condvar::new(),
    });
    let handle = {
        let cell = Arc::clone(&cell);
        let inner = Arc::clone(inner);
        thread::Builder::new()
            .name(format!("gendp-serve-shard{id}"))
            .spawn(move || shard_loop(cell, device, inner))
            .map_err(|e| format!("failed to spawn shard thread: {e}"))?
    };
    queues.pullers.push(Puller {
        cell: Arc::clone(&cell),
        rank: (false, 0),
        idle: false,
    });
    inner.shards.lock().expect("shard table lock").push(cell);
    inner.threads.lock().expect("thread list lock").push(handle);
    drop(queues);
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
    watchdog: Option<JoinHandle<()>>,
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
            weights: states.iter().map(|t| t.effective_weight).collect(),
            queues: Mutex::new(Queues {
                tenants: states.iter().map(|_| VecDeque::new()).collect(),
                drr: DrrState::new(states.len(), config.quantum_cells),
                closed: false,
                pullers: Vec::new(),
            }),
            tenants: states,
            by_name,
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

        let watchdog = {
            let inner = Arc::clone(&inner);
            thread::Builder::new()
                .name("gendp-serve-watchdog".into())
                .spawn(move || watchdog_loop(inner))
                .map_err(|e| format!("failed to spawn watchdog thread: {e}"))?
        };

        Ok(Server {
            inner,
            watchdog: Some(watchdog),
        })
    }

    /// A submission handle for the named tenant, or `None` if no such
    /// tenant is registered.
    pub fn client(&self, tenant: &str) -> Option<TenantClient> {
        let index = *self.inner.by_name.get(tenant)?;
        Some(TenantClient {
            inner: Arc::clone(&self.inner),
            tenant: index,
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
        spawn_shard(&self.inner, config, false)
    }

    /// Begins retiring the shard: it pulls no new batch, its in-flight
    /// batch finishes and delivers, and then it goes
    /// [`ShardState::Dead`]. Work it never pulled stays queued for the
    /// surviving shards. Safe under load; returns immediately.
    ///
    /// # Errors
    ///
    /// Fails for an unknown id, a shard already draining or dead, or
    /// when the shard is the last dispatchable one (the pool never
    /// retires itself to zero).
    pub fn retire_shard(&self, id: usize) -> Result<(), String> {
        {
            let shards = self.inner.shards.lock().expect("shard table lock");
            let cell = shards
                .iter()
                .find(|c| c.id == id)
                .ok_or_else(|| format!("no shard with id {id}"))?;
            // Under the table lock, concurrent retirements serialize. A
            // death racing this count can still leave no dispatchable
            // shard, but outside shutdown every death spawns a
            // replacement.
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
        }
        self.inner.wake_all();
        Ok(())
    }

    /// Chaos hook: simulates abrupt shard loss. The shard is declared
    /// dead at once, so it pulls no more work, and (outside shutdown) a
    /// replacement is spawned. The in-flight batch still delivers — the
    /// "device" is simulated on the shard thread, which survives. A
    /// draining shard finishes its retirement instead.
    ///
    /// # Errors
    ///
    /// Fails for an unknown id or a shard already dead.
    pub fn kill_shard(&self, id: usize) -> Result<(), String> {
        let cell = self
            .inner
            .shard_cells()
            .into_iter()
            .find(|c| c.id == id)
            .ok_or_else(|| format!("no shard with id {id}"))?;
        let mut state = cell.state();
        if state == ShardState::Dead {
            return Err(format!("shard {id} is already dead"));
        }
        while state.is_dispatchable() && !declare_dead(&self.inner, &cell, state) {
            state = cell.state();
        }
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
        let Some(watchdog) = self.watchdog.take() else {
            return;
        };
        {
            let mut queues = self.inner.lock_queues();
            queues.closed = true;
            queues.wake_all();
        }
        watchdog.thread().unpark();
        drop(watchdog.join());
        // Closed queues spawn no shard, so this is every shard thread;
        // each exits once the queues are empty.
        let handles: Vec<JoinHandle<()>> = self
            .inner
            .threads
            .lock()
            .expect("thread list lock")
            .drain(..)
            .collect();
        for handle in handles {
            drop(handle.join());
        }
        // Whatever is still queued had no shard left to run it (every
        // shard died during shutdown): resolve it instead of hanging
        // tickets.
        let mut queues = self.inner.lock_queues();
        for queue in &mut queues.tenants {
            for costed in queue.drain(..) {
                let meta = costed.item.meta;
                let tenant = &self.inner.tenants[meta.tenant];
                tenant.queued.fetch_sub(1, Ordering::AcqRel);
                tenant.in_flight.fetch_sub(1, Ordering::AcqRel);
                tenant.counters.failed.fetch_add(1, Ordering::Relaxed);
                meta.reply.deliver(Err(ServeError::Disconnected));
            }
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

    fn submit_inner(
        &self,
        task: Task,
        deadline: Option<Duration>,
    ) -> Result<Ticket, AdmissionError> {
        let (tx, rx) = mpsc::channel();
        self.enqueue(task, deadline, Reply::Oneshot(tx))?;
        Ok(Ticket { rx })
    }

    /// Runs admission for an externally built request (wire path) and
    /// queues it. The caller supplies the reply route; the tenant's
    /// default deadline applies.
    pub(crate) fn submit_with_reply(&self, task: Task, reply: Reply) -> Result<(), AdmissionError> {
        let deadline = self.inner.tenants[self.tenant].config.deadline;
        self.enqueue(task, deadline, reply)
    }

    /// Admits one task, queues it for the shards and wakes the
    /// best-ranked idle shard. The DRR charge is the task's DP cells —
    /// exact, and worked out without preparing it.
    fn enqueue(
        &self,
        task: Task,
        deadline: Option<Duration>,
        reply: Reply,
    ) -> Result<(), AdmissionError> {
        // Latency counts admission; the deadline starts at admission.
        let submitted_at = Instant::now();
        let state = &self.inner.tenants[self.tenant];
        let shutting_down = self.inner.lock_queues().closed;
        state.admit(&task, self.inner.now_nanos(), shutting_down, || {
            self.inner.deadline_infeasible(&task, deadline)
        })?;
        let cost = task.cells_estimate().max(1);
        let meta = JobMeta {
            tenant: self.tenant,
            submitted_at,
            deadline: deadline.map(|d| Instant::now() + d),
            cost,
            reply,
        };
        let mut queues = self.inner.lock_queues();
        if queues.closed {
            // Shutdown closed the queues after admission: undo the hold.
            drop(queues);
            state.queued.fetch_sub(1, Ordering::AcqRel);
            state.in_flight.fetch_sub(1, Ordering::AcqRel);
            state.counters.accepted.fetch_sub(1, Ordering::Relaxed);
            return Err(AdmissionError::ShuttingDown);
        }
        queues.tenants[self.tenant].push_back(Costed::new(cost, Pending { task, meta }));
        let idle = queues.take_idle();
        drop(queues);
        if let Some(shard) = idle {
            shard.wake.notify_one();
        }
        Ok(())
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
    /// Requests waiting in the tenant's queue for a shard.
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
    /// DP cells of the batch the shard is running.
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

/// Declares a shard dead unless its state moved first, wakes the idle
/// shards that left work to it, and spawns a replacement with a fresh
/// fault seed. A batch the shard is still running delivers from its
/// thread, which then stops pulling. False when the state moved.
fn declare_dead(inner: &Arc<Inner>, cell: &ShardCell, from: ShardState) -> bool {
    if !cell.transition(from, ShardState::Dead) {
        return false;
    }
    inner.lifecycle.died.fetch_add(1, Ordering::Relaxed);
    inner.wake_all();
    // Refused during shutdown; a failed respawn (thread limit) leaves
    // the pool smaller and the survivors keep pulling.
    drop(spawn_shard(inner, fresh_fault_config(inner), true));
    true
}

/// Blocks until this shard's next batch: up to `batch_max` requests in
/// DRR order, overdue ones already expired. `None` once the shard stops
/// pulling — retired (the retirement then completes), declared dead, or
/// shut down with the queues empty. A shard waits while better-ranked
/// shards will take the backlog (`Queues::pulls`).
fn pull(inner: &Inner, cell: &Arc<ShardCell>, quarantined: usize) -> Option<Vec<(JobMeta, Task)>> {
    loop {
        let (batch, next) = {
            let mut guard = inner.lock_queues();
            loop {
                let queues = &mut *guard;
                let me = queues
                    .pullers
                    .iter()
                    .position(|p| Arc::ptr_eq(&p.cell, cell))
                    .expect("spawn registers every shard");
                // Set already when woken, not after a spurious wake-up.
                queues.pullers[me].idle = false;
                let state = cell.state();
                if !state.is_dispatchable() || (queues.closed && queues.queued() == 0) {
                    queues.pullers.remove(me);
                    // Work left to this shard goes to the others.
                    queues.wake_all();
                    if cell.transition(ShardState::Draining, ShardState::Dead) {
                        inner.lifecycle.retired.fetch_add(1, Ordering::Relaxed);
                    }
                    return None;
                }
                let rank = (state == ShardState::Degraded, quarantined);
                queues.pullers[me].rank = rank;
                if queues.pulls(rank) {
                    let batch = queues.drr.assemble(
                        &mut queues.tenants,
                        &inner.weights,
                        inner.config.batch_max,
                    );
                    // Work left over goes to the next idle shard.
                    break (batch, queues.take_idle());
                }
                queues.pullers[me].idle = true;
                guard = cell.wake.wait(guard).expect("queue lock");
            }
        };
        if let Some(shard) = next {
            shard.wake.notify_one();
        }
        // The pull-time deadline gate: expired work never reaches a
        // device.
        let now = Instant::now();
        let mut jobs = Vec::with_capacity(batch.len());
        for (tenant, costed) in batch {
            inner.tenants[tenant].queued.fetch_sub(1, Ordering::AcqRel);
            if costed.item.meta.expired(now) {
                expire(inner, costed.item.meta);
                continue;
            }
            jobs.push((costed.item.meta, costed.item.task));
        }
        if !jobs.is_empty() {
            return Some(jobs);
        }
    }
}

/// Folds the health signal of a fresh device snapshot into the shard's
/// state: a crippled streak reaching policy kills the shard, otherwise
/// it reads degraded or recovers, and a joining shard that has
/// delivered work is proven. Each batch resets slot quarantine, so
/// every snapshot after a batch is new evidence.
fn fold_health(
    inner: &Arc<Inner>,
    cell: &ShardCell,
    signal: HealthSignal,
    crippled_streak: &mut u32,
) {
    let state = cell.state();
    if !state.is_dispatchable() {
        return;
    }
    match signal {
        HealthSignal::Crippled => {
            *crippled_streak += 1;
            if *crippled_streak >= inner.config.lifecycle.dead_after_crippled {
                declare_dead(inner, cell, state);
                return;
            }
            cell.transition(state, ShardState::Degraded);
        }
        HealthSignal::Degraded => {
            *crippled_streak = 0;
            cell.transition(state, ShardState::Degraded);
        }
        HealthSignal::Healthy => {
            *crippled_streak = 0;
            if state == ShardState::Degraded {
                cell.transition(state, ShardState::Healthy);
            }
        }
    }
    if cell.completed.load(Ordering::Acquire) > 0 {
        cell.transition(ShardState::Joining, ShardState::Healthy);
    }
}

/// The heartbeat watchdog, off the request path: declares dead any
/// dispatchable shard that has held a batch for `heartbeat_timeout`
/// without a beat (a wedged device or a lost thread). It checks four
/// times per timeout; shutdown unparks it.
fn watchdog_loop(inner: Arc<Inner>) {
    let timeout = inner.config.lifecycle.heartbeat_timeout;
    while !inner.lock_queues().closed {
        thread::park_timeout(timeout / 4);
        let now = inner.now_nanos();
        for cell in inner.shard_cells() {
            let state = cell.state();
            if state.is_dispatchable()
                && cell.outstanding_cells.load(Ordering::Acquire) > 0
                && cell.beat.silent_for(now) > timeout.as_nanos() as u64
            {
                declare_dead(&inner, &cell, state);
            }
        }
    }
}

fn shard_loop(cell: Arc<ShardCell>, mut device: Device, inner: Arc<Inner>) {
    let mut crippled_streak = 0;
    let mut quarantined = 0;
    while let Some(jobs) = pull(&inner, &cell, quarantined) {
        cell.beat.beat(inner.now_nanos());
        let batch_cells: u64 = jobs.iter().map(|(m, _)| m.cost).sum();
        cell.outstanding_cells.store(batch_cells, Ordering::Release);
        let (metas, tasks): (Vec<JobMeta>, Vec<Task>) = jobs.into_iter().unzip();
        let ran = match device.run_batch(tasks) {
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
                true
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
                false
            }
        };
        cell.outstanding_cells.store(0, Ordering::Release);
        let mut status = cell.status.lock().expect("status lock");
        *status = device.snapshot();
        let signal = assess(&status, &inner.config.lifecycle);
        quarantined =
            status.quarantined_slots(ArrayClass::Int) + status.quarantined_slots(ArrayClass::Float);
        drop(status);
        cell.beat.beat(inner.now_nanos());
        // A refused batch ran nothing, so its snapshot is old evidence.
        if ran {
            fold_health(&inner, &cell, signal, &mut crippled_streak);
        }
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
