//! Device utilization reporting: per-array and per-kernel statistics.

use std::collections::BTreeMap;
use std::fmt;

use gendp_core::{AcceleratorRun, TileReport};
use gendp_dpax::{RunStats, CLOCK_HZ};

use crate::task::{ArrayClass, KernelKind};

/// Per-kernel aggregate over a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelStats {
    /// Tasks of this kernel executed.
    pub tasks: usize,
    /// DP cells computed (one per compute invocation).
    pub cells: u64,
    /// Cells scaled by the kernel's SIMD lane factor — the unit GCUPS is
    /// quoted in (paper §7.2).
    pub lane_cells: u64,
    /// Simulated cycles spent in this kernel.
    pub cycles: u64,
}

impl KernelStats {
    /// Folds another aggregate of the same kernel into this one — the
    /// cross-batch / cross-shard accumulation primitive.
    pub fn merge(&mut self, other: &KernelStats) {
        self.tasks += other.tasks;
        self.cells += other.cells;
        self.lane_cells += other.lane_cells;
        self.cycles += other.cycles;
    }
}

/// One array slot's aggregate over a batch.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayReport {
    /// Slot index on the device.
    pub index: usize,
    /// Integer or floating-point array.
    pub class: ArrayClass,
    /// Tasks this array executed.
    pub tasks: usize,
    /// Failed execution attempts on this array over the batch.
    pub failures: u64,
    /// True if the quarantine state machine took this array offline
    /// during the batch (it stopped receiving new placements).
    pub quarantined: bool,
    /// All of this array's runs merged back-to-back
    /// ([`RunStats::absorb`]): `stats.cycles` is the array's busy time.
    pub stats: RunStats,
}

impl ArrayReport {
    /// Simulated cycles this array spent busy.
    pub fn busy_cycles(&self) -> u64 {
        self.stats.cycles
    }
}

/// Fault-tolerance counters for one executed batch. All zeros on a
/// healthy run with injection disabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Faults fabricated by the [`FaultInjector`](crate::FaultInjector)
    /// (all kinds, including panics).
    pub faults_injected: u64,
    /// Worker panics caught at the task boundary (the worker survived).
    pub panics_contained: u64,
    /// Execution attempts beyond each task's first.
    pub retries: u64,
    /// Retries that escalated the cycle budget (timeout recovery).
    pub budget_escalations: u64,
    /// Retries re-dispatched to a different array slot.
    pub redispatches: u64,
    /// Tasks that exhausted every attempt and failed for good.
    pub tasks_failed: u64,
    /// Array slots taken offline by the quarantine state machine.
    pub quarantined_arrays: u64,
    /// Quarantine decisions refused to keep the last healthy slot of a
    /// class online.
    pub quarantine_refusals: u64,
    /// Worker threads respawned after a panic escaped the task boundary.
    pub worker_respawns: u64,
}

impl RecoveryReport {
    /// True if nothing went wrong and nothing was injected.
    pub fn is_clean(&self) -> bool {
        *self == RecoveryReport::default()
    }

    /// Adds another report's counters into this one. A single report
    /// only describes one `run_batch`; merging is how counters aggregate
    /// across batches on one device, or across device shards in a
    /// multi-shard service. Counter addition is commutative and
    /// associative, so the merged totals are independent of shard count,
    /// placement and merge order.
    pub fn merge(&mut self, other: &RecoveryReport) {
        self.faults_injected += other.faults_injected;
        self.panics_contained += other.panics_contained;
        self.retries += other.retries;
        self.budget_escalations += other.budget_escalations;
        self.redispatches += other.redispatches;
        self.tasks_failed += other.tasks_failed;
        self.quarantined_arrays += other.quarantined_arrays;
        self.quarantine_refusals += other.quarantine_refusals;
        self.worker_respawns += other.worker_respawns;
    }

    /// The merged total of many reports.
    pub fn merged<'a>(reports: impl IntoIterator<Item = &'a RecoveryReport>) -> RecoveryReport {
        let mut total = RecoveryReport::default();
        for r in reports {
            total.merge(r);
        }
        total
    }
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected {}  panics contained {}  retries {} (escalated {}, redispatched {})  \
             failed {}  quarantined {} (refused {})  respawns {}",
            self.faults_injected,
            self.panics_contained,
            self.retries,
            self.budget_escalations,
            self.redispatches,
            self.tasks_failed,
            self.quarantined_arrays,
            self.quarantine_refusals,
            self.worker_respawns,
        )
    }
}

/// Utilization report for one executed batch.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceReport {
    /// One entry per array slot, in slot order.
    pub arrays: Vec<ArrayReport>,
    /// Aggregates keyed by kernel.
    pub per_kernel: BTreeMap<KernelKind, KernelStats>,
    /// Host worker threads that drove the arrays.
    pub workers: usize,
    /// Fault-tolerance counters (injection, retries, quarantine).
    pub recovery: RecoveryReport,
}

impl DeviceReport {
    /// Tasks executed across the device.
    pub fn tasks(&self) -> usize {
        self.arrays.iter().map(|a| a.tasks).sum()
    }

    /// DP cells computed across the device (lanes count once).
    pub fn total_cells(&self) -> u64 {
        self.arrays.iter().map(|a| a.stats.cells()).sum()
    }

    /// Lane-scaled cells across the device — the GCUPS numerator.
    pub fn total_lane_cells(&self) -> u64 {
        self.per_kernel.values().map(|k| k.lane_cells).sum()
    }

    /// The batch makespan in simulated cycles: the busiest array's busy
    /// time. Deterministic for a given placement; identical across worker
    /// counts because per-task cycles are placement-independent.
    pub fn makespan_cycles(&self) -> u64 {
        self.arrays
            .iter()
            .map(ArrayReport::busy_cycles)
            .max()
            .unwrap_or(0)
    }

    /// Average occupancy of the arrays over the makespan (1.0 = perfectly
    /// balanced). Idle arrays drag this down.
    pub fn balance(&self) -> f64 {
        self.tile_report().balance()
    }

    /// Device throughput in GCUPS at the DPAx clock: lane-scaled cells
    /// over the makespan.
    pub fn gcups(&self) -> f64 {
        let makespan = self.makespan_cycles();
        if makespan == 0 {
            return 0.0;
        }
        self.total_lane_cells() as f64 / makespan as f64 * CLOCK_HZ / 1e9
    }

    /// The whole batch summarized as one [`AcceleratorRun`], by merging
    /// every array's statistics ([`RunStats::merged`]).
    pub fn aggregate_run(&self) -> AcceleratorRun {
        AcceleratorRun::from_stats(&RunStats::merged(self.arrays.iter().map(|a| &a.stats)))
    }

    /// Folds another device's report into this one, treating the other
    /// device's arrays as additional slots (their indices are offset past
    /// this report's) — the aggregation step a sharded service uses to
    /// present N devices as one. Per-kernel statistics and recovery
    /// counters add field-wise; `workers` sums.
    pub fn merge(&mut self, other: &DeviceReport) {
        let base = self.arrays.len();
        self.arrays.extend(other.arrays.iter().map(|a| ArrayReport {
            index: base + a.index,
            ..a.clone()
        }));
        for (kind, stats) in &other.per_kernel {
            self.per_kernel.entry(*kind).or_default().merge(stats);
        }
        self.workers += other.workers;
        self.recovery.merge(&other.recovery);
    }

    /// This batch's placement expressed as a `gendp-core`
    /// [`TileReport`], through the same [`TileReport::from_array_loads`]
    /// constructor `schedule_tile` uses — so live dispatch and post-hoc
    /// LPT scheduling derive makespan, balance and GCUPS identically.
    pub fn tile_report(&self) -> TileReport {
        TileReport::from_array_loads(
            self.tasks(),
            self.arrays.iter().map(ArrayReport::busy_cycles).collect(),
            self.total_cells(),
        )
    }
}

impl fmt::Display for DeviceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "device: {} tasks on {} arrays, {} workers",
            self.tasks(),
            self.arrays.len(),
            self.workers,
        )?;
        writeln!(
            f,
            "  makespan {} cycles  balance {:.2}  throughput {:.2} GCUPS",
            self.makespan_cycles(),
            self.balance(),
            self.gcups(),
        )?;
        if !self.recovery.is_clean() {
            writeln!(f, "  recovery: {}", self.recovery)?;
        }
        for a in &self.arrays {
            writeln!(
                f,
                "  array {:2} [{}]: {} tasks  busy {} cycles  cells {}{}{}",
                a.index,
                match a.class {
                    ArrayClass::Int => "int",
                    ArrayClass::Float => "fp",
                },
                a.tasks,
                a.busy_cycles(),
                a.stats.cells(),
                if a.failures > 0 {
                    format!("  failures {}", a.failures)
                } else {
                    String::new()
                },
                if a.quarantined { "  QUARANTINED" } else { "" },
            )?;
        }
        for (kind, k) in &self.per_kernel {
            writeln!(
                f,
                "  kernel {:12}: {} tasks  cells {}  lane-cells {}  cycles {}",
                kind.name(),
                k.tasks,
                k.cells,
                k.lane_cells,
                k.cycles,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gendp_dpax::PeStats;

    fn stats(cycles: u64, cells: u64) -> RunStats {
        RunStats {
            cycles,
            per_pe: vec![PeStats {
                cells,
                ..PeStats::default()
            }],
            ..RunStats::default()
        }
    }

    fn report() -> DeviceReport {
        let mut per_kernel = BTreeMap::new();
        per_kernel.insert(
            KernelKind::Bsw,
            KernelStats {
                tasks: 3,
                cells: 70,
                lane_cells: 70,
                cycles: 300,
            },
        );
        DeviceReport {
            arrays: vec![
                ArrayReport {
                    index: 0,
                    class: ArrayClass::Int,
                    tasks: 2,
                    failures: 0,
                    quarantined: false,
                    stats: stats(200, 50),
                },
                ArrayReport {
                    index: 1,
                    class: ArrayClass::Int,
                    tasks: 1,
                    failures: 0,
                    quarantined: false,
                    stats: stats(100, 20),
                },
            ],
            per_kernel,
            workers: 2,
            recovery: RecoveryReport::default(),
        }
    }

    #[test]
    fn derived_metrics_agree_with_tile_report() {
        let r = report();
        assert_eq!(r.tasks(), 3);
        assert_eq!(r.total_cells(), 70);
        assert_eq!(r.makespan_cycles(), 200);
        let tile = r.tile_report();
        assert_eq!(tile.makespan_cycles, 200);
        assert_eq!(tile.per_array_cycles, vec![200, 100]);
        assert_eq!(tile.total_cells, 70);
        assert!((r.balance() - 300.0 / 400.0).abs() < 1e-12);
        assert!((r.gcups() - 70.0 / 200.0 * CLOCK_HZ / 1e9).abs() < 1e-9);
        assert_eq!(r.aggregate_run().cells, 70);
        assert_eq!(r.aggregate_run().cycles, 300);
        assert!(!r.to_string().is_empty());
    }

    #[test]
    fn merged_reports_add_counters_and_reindex_arrays() {
        let mut a = report();
        let b = report();
        a.recovery.retries = 3;
        a.merge(&b);
        assert_eq!(a.arrays.len(), 4);
        // The other shard's slots land after this one's, re-indexed.
        assert_eq!(
            a.arrays.iter().map(|x| x.index).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(a.tasks(), 6);
        assert_eq!(a.total_cells(), 140);
        assert_eq!(a.per_kernel[&KernelKind::Bsw].tasks, 6);
        assert_eq!(a.per_kernel[&KernelKind::Bsw].cells, 140);
        assert_eq!(a.workers, 4);
        assert_eq!(a.recovery.retries, 3);
        // Makespan is the max across all shards' arrays.
        assert_eq!(a.makespan_cycles(), 200);
    }

    #[test]
    fn recovery_merge_is_order_independent() {
        let x = RecoveryReport {
            retries: 2,
            faults_injected: 5,
            ..RecoveryReport::default()
        };
        let y = RecoveryReport {
            retries: 1,
            quarantined_arrays: 1,
            ..RecoveryReport::default()
        };
        let z = RecoveryReport {
            worker_respawns: 4,
            ..RecoveryReport::default()
        };
        let ab = RecoveryReport::merged([&x, &y, &z]);
        let ba = RecoveryReport::merged([&z, &y, &x]);
        assert_eq!(ab, ba);
        assert_eq!(ab.retries, 3);
        assert_eq!(ab.faults_injected, 5);
        assert_eq!(ab.quarantined_arrays, 1);
        assert_eq!(ab.worker_respawns, 4);
        assert!(!ab.is_clean());
    }

    #[test]
    fn recovery_counters_render_only_when_dirty() {
        let mut r = report();
        assert!(r.recovery.is_clean());
        assert!(!r.to_string().contains("recovery:"));
        r.recovery.retries = 2;
        r.recovery.quarantined_arrays = 1;
        r.arrays[1].failures = 3;
        r.arrays[1].quarantined = true;
        assert!(!r.recovery.is_clean());
        let text = r.to_string();
        assert!(text.contains("recovery:"), "{text}");
        assert!(text.contains("QUARANTINED"), "{text}");
        assert!(text.contains("failures 3"), "{text}");
    }
}
