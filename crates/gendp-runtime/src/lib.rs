//! # gendp-runtime
//!
//! Device-level batch execution runtime for the DPAx simulator (paper
//! §4.1, §7.2): the full accelerator is 16 integer PE arrays plus one
//! floating-point PE array, all running **independent tasks** in parallel.
//! The lower layers (`gendp-core`, `gendp-dpax`) simulate one task on one
//! array; this crate owns the device: it routes a batch of typed
//! [`Task`]s onto array slots through bounded submission queues with
//! backpressure, drives every simulated array from a pool of host worker
//! threads, and reports per-array / per-kernel utilization.
//!
//! * [`Device`] — N integer array slots plus the FP slot
//!   ([`DeviceConfig`] defaults to the paper's 16 + 1), each with its own
//!   bounded queue.
//! * [`Task`] — one enum variant per evaluated accelerator: the BSW
//!   family (local / global / semi-global / convex / 8-bit SIMD), fixed-
//!   point and floating-point PairHMM, DTW (full and banded), chaining,
//!   POA and Bellman-Ford. Floating-point PairHMM routes to the FP array;
//!   everything else to the integer arrays.
//! * [`DispatchPolicy`] — round-robin, shortest-queue, or work-stealing
//!   placement. Simulated cycles and scores are per-task deterministic
//!   regardless of policy or worker count; only wall-clock and per-array
//!   placement change.
//! * [`DeviceReport`] — queue depth, occupancy, simulated cycles and
//!   GCUPS per array and per kernel; convertible to the tile-scheduling
//!   [`TileReport`](gendp_core::TileReport) of `gendp-core` through the
//!   shared `TileReport::from_array_loads` constructor, so the two layers
//!   agree by construction.
//! * [`BatchAligner`] — end-to-end driver: a reference [`Genome`]
//!   (`gendp-seq`) plus a read set in, alignment scores plus a device
//!   utilization report out.
//!
//! ## Fault tolerance
//!
//! Batches degrade instead of aborting. [`Device::run_batch`] returns a
//! [`BatchOutcome`] with a per-task `Result`: a failing task is retried
//! under the [`RetryPolicy`] in [`DeviceConfig::retry`] (cycle-budget
//! escalation for timeouts, re-dispatch to another array for everything
//! else), arrays that keep failing are quarantined — never below one
//! healthy slot per class — and a panicking task is contained with
//! [`std::panic::catch_unwind`] at the task boundary instead of killing
//! its worker. The [`RecoveryReport`] in every [`DeviceReport`] counts
//! what happened. Deterministic chaos testing drives all of it: a
//! [`FaultConfig`] in [`DeviceConfig::fault`] injects simulator errors
//! and worker panics as a pure function of `(seed, task, attempt)`, so a
//! fault plan replays byte-identically at any worker count
//! ([`BatchOutcome::fingerprint`]).
//!
//! ```
//! use gendp_runtime::{BatchAligner, Device, DeviceConfig, DispatchPolicy, Task};
//! use gendp_kernels::Scoring;
//! use gendp_seq::DnaSeq;
//!
//! # fn main() -> Result<(), gendp_runtime::RuntimeError> {
//! let scoring = Scoring::bwa_mem();
//! let tasks: Vec<Task> = (0..8)
//!     .map(|i| Task::bsw_local(
//!         "ACGTACGTAC".parse::<DnaSeq>().unwrap(),
//!         if i % 2 == 0 { "ACGTTCGTAC" } else { "TTGTACGATT" }.parse().unwrap(),
//!         scoring,
//!     ))
//!     .collect();
//! let mut device = Device::new(DeviceConfig {
//!     int_arrays: 4,
//!     workers: 2,
//!     policy: DispatchPolicy::ShortestQueue,
//!     ..DeviceConfig::default()
//! });
//! let batch = device.run_batch(tasks)?;
//! assert!(batch.is_complete());
//! assert_eq!(batch.results.len(), 8);
//! assert!(batch.report.makespan_cycles() > 0);
//! assert!(batch.report.recovery.is_clean());
//! # Ok(())
//! # }
//! ```

mod batch;
mod device;
mod fault;
mod policy;
mod queue;
mod recovery;
mod report;
mod sync;
mod task;
mod templates;

pub use batch::{BatchAligner, BatchAlignment};
pub use device::{
    BatchOutcome, BatchRun, Device, DeviceConfig, DeviceSnapshot, RuntimeError, SlotSnapshot,
};
pub use fault::{silence_injected_panics, FaultConfig, FaultInjector, InjectedFault, PPM};
pub use policy::DispatchPolicy;
pub use queue::BoundedQueue;
pub use recovery::{Heartbeat, RetryPolicy, SlotHealth};
pub use report::{ArrayReport, DeviceReport, KernelStats, RecoveryReport};
pub use task::{
    ArrayClass, CertifiedCost, KernelKind, Task, TaskFailure, TaskResult, TaskShape, TaskValue,
    DTW_BAND_SENTINEL,
};
pub use templates::{TemplateStats, TEMPLATE_BUDGET, TEMPLATE_SLOTS};
