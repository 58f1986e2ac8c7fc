//! # gendp-serve
//!
//! A long-running, multi-tenant alignment service on top of the
//! [`gendp-runtime`](gendp_runtime) device simulator. Where
//! `gendp-runtime` answers *"run this batch on one device"*,
//! `gendp-serve` answers *"keep serving interleaved request streams
//! from competing clients, fairly, on a pool of devices"* — the shape a
//! DPAx accelerator would actually take inside a sequencing pipeline's
//! serving tier.
//!
//! The pieces, layer by layer:
//!
//! * **Tenants & QoS** ([`TenantConfig`], [`Priority`], [`RateLimit`])
//!   — every request stream belongs to a named tenant with a
//!   fair-share weight, a priority class (a share multiplier, never a
//!   starvation source), token-bucket rate limiting, and queue/in-
//!   flight quotas.
//! * **Admission control** ([`AdmissionError`]) — each submission
//!   passes the same `gendp-verify`-backed preflight gate the device
//!   itself enforces, then quota and rate checks, *before* it can
//!   occupy any service resource.
//! * **Scheduling** ([`DrrState`]) — deficit round robin over
//!   per-tenant queues, costed in DP cells rather than request count,
//!   so tenants share simulated *device time*, not request slots.
//! * **Sharding** ([`ServeConfig`], [`ShardStats`]) — the server runs
//!   N independent device shards (each the paper's 16 integer + 1 FP
//!   PE arrays), each a fault domain with its own quarantine state and
//!   fault plan. An idle shard pulls its next DRR batch from the tenant
//!   queues, so no work waits at a shard; a degraded shard, or one
//!   with more quarantined slots, leaves a small backlog to its
//!   healthier peers.
//! * **Delivery** ([`Ticket`], [`Completed`], [`ServeError`]) — every
//!   admitted request resolves exactly once; tickets never hang.
//! * **Wire protocol** ([`Request`], [`Response`], [`WireClient`]) —
//!   a length-prefixed framed binary protocol over any byte stream:
//!   an OS socket, or the in-process [`pipe`]/[`duplex`] transport.
//!
//! ## Example
//!
//! ```
//! use gendp_kernels::Scoring;
//! use gendp_runtime::{DeviceConfig, Task};
//! use gendp_seq::DnaSeq;
//! use gendp_serve::{Priority, ServeConfig, Server, TenantConfig};
//!
//! let config = ServeConfig {
//!     shards: 2,
//!     shard_config: DeviceConfig {
//!         int_arrays: 4,
//!         workers: 1,
//!         ..DeviceConfig::default()
//!     },
//!     ..ServeConfig::default()
//! };
//! let mut server = Server::start(
//!     config,
//!     vec![
//!         TenantConfig::new("interactive").priority(Priority::Interactive),
//!         TenantConfig::new("batch").priority(Priority::Batch),
//!     ],
//! )
//! .unwrap();
//!
//! let client = server.client("interactive").unwrap();
//! let ticket = client
//!     .submit(Task::bsw_local(
//!         "ACGTACGTAC".parse::<DnaSeq>().unwrap(),
//!         "ACGTTCGTAC".parse::<DnaSeq>().unwrap(),
//!         Scoring::bwa_mem(),
//!     ))
//!     .unwrap();
//! let completed = ticket.wait().unwrap();
//! assert!(matches!(completed.value, gendp_runtime::TaskValue::Score(_)));
//! server.shutdown();
//! assert_eq!(server.stats().totals.completed, 1);
//! ```

#![forbid(unsafe_code)]

mod admission;
mod lifecycle;
mod metrics;
mod qos;
mod server;
mod tenant;
mod transport;
pub mod wire;

pub use admission::{AdmissionError, TenantState};
pub use lifecycle::{
    assess, HealthSignal, LifecycleCounters, LifecyclePolicy, LifecycleSnapshot, ShardState,
};
pub use metrics::{LatencyHistogram, TenantCounters, TenantCountersSnapshot};
pub use qos::{Costed, DrrState};
pub use server::{
    Completed, Delivery, ServeConfig, ServeError, Server, ServerStats, ShardStats, TenantClient,
    TenantStats, Ticket,
};
pub use tenant::{Priority, RateLimit, TenantConfig, TokenBucket};
pub use transport::{duplex, pipe, PipeReader, PipeWriter, WireClient};
pub use wire::{
    Request, Response, ShardStatusFrame, WireError, WireOutcome, MAX_FRAME, WIRE_VERSION,
};
