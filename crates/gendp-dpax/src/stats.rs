use std::fmt;

use crate::config::Tier;

/// Per-PE execution counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PeStats {
    /// Control instructions retired.
    pub ctrl_insts: u64,
    /// Cycles the control thread spent stalled (ports, FIFO, RF interlock,
    /// busy compute thread).
    pub ctrl_stalls: u64,
    /// VLIW compute instructions issued.
    pub vliw_issued: u64,
    /// Non-idle compute-unit slots across all issued VLIW instructions.
    pub cu_slots_active: u64,
    /// Compute-thread invocations (`set cu`), i.e. DP cells computed.
    pub cells: u64,
    /// Register-file reads + writes by the compute thread.
    pub rf_accesses: u64,
    /// Words moved through the inter-PE ports (in + out).
    pub port_moves: u64,
    /// Scratchpad reads + writes.
    pub spm_accesses: u64,
}

/// Aggregate result of one [`PeArray::run`](crate::PeArray::run).
///
/// Equality compares the *counters* only — the provenance field
/// [`tier`](Self::tier) describes *how* the run executed, not *what* it
/// computed, and two tiers that agree on every counter are equal runs.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Total simulated cycles until every thread halted. The functional
    /// tier reports the cycles its shape's first (simulated) run took.
    pub cycles: u64,
    /// FIFO pushes (last PE → FIFO).
    pub fifo_pushes: u64,
    /// FIFO pops (FIFO → first PE).
    pub fifo_pops: u64,
    /// Highest FIFO occupancy observed.
    pub fifo_high_water: usize,
    /// Per-PE counters, indexed by position in the chain.
    pub per_pe: Vec<PeStats>,
    /// Which execution tier actually ran (engine provenance). A
    /// functional request that cannot run functionally runs decoded, so
    /// callers read this to learn what they really got.
    pub tier: Tier,
}

impl PartialEq for RunStats {
    fn eq(&self, other: &Self) -> bool {
        self.cycles == other.cycles
            && self.fifo_pushes == other.fifo_pushes
            && self.fifo_pops == other.fifo_pops
            && self.fifo_high_water == other.fifo_high_water
            && self.per_pe == other.per_pe
    }
}

impl Eq for RunStats {}

impl PeStats {
    /// Adds another PE's counters into this one.
    pub fn absorb(&mut self, other: &PeStats) {
        self.ctrl_insts += other.ctrl_insts;
        self.ctrl_stalls += other.ctrl_stalls;
        self.vliw_issued += other.vliw_issued;
        self.cu_slots_active += other.cu_slots_active;
        self.cells += other.cells;
        self.rf_accesses += other.rf_accesses;
        self.port_moves += other.port_moves;
        self.spm_accesses += other.spm_accesses;
    }
}

impl RunStats {
    /// Merges another run's counters into this one, as if the two runs
    /// executed back-to-back on the same array: cycle counts add, per-PE
    /// counters add position-wise, and the FIFO high-water mark is the
    /// maximum of the two. Used by the `gendp-runtime` workers to keep one
    /// aggregate per simulated array across a whole batch.
    ///
    /// Provenance: an empty aggregate adopts the first run's tier and a
    /// mixed-tier aggregate keeps the first tier it saw (the per-run tier
    /// is the meaningful signal).
    pub fn absorb(&mut self, other: &RunStats) {
        if self.per_pe.is_empty() && self.cycles == 0 {
            self.tier = other.tier;
        }
        self.cycles += other.cycles;
        self.fifo_pushes += other.fifo_pushes;
        self.fifo_pops += other.fifo_pops;
        self.fifo_high_water = self.fifo_high_water.max(other.fifo_high_water);
        if self.per_pe.len() < other.per_pe.len() {
            self.per_pe.resize(other.per_pe.len(), PeStats::default());
        }
        for (mine, theirs) in self.per_pe.iter_mut().zip(&other.per_pe) {
            mine.absorb(theirs);
        }
    }

    /// Sums a sequence of runs into one aggregate (see [`absorb`](Self::absorb)).
    pub fn merged<'a>(runs: impl IntoIterator<Item = &'a RunStats>) -> RunStats {
        let mut total = RunStats::default();
        for run in runs {
            total.absorb(run);
        }
        total
    }

    /// DP cells computed across all PEs (compute-thread invocations).
    pub fn cells(&self) -> u64 {
        self.per_pe.iter().map(|p| p.cells).sum()
    }

    /// Cells computed per cycle across the array.
    pub fn cells_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.cells() as f64 / self.cycles as f64
    }

    /// Measured VLIW slot utilization (paper Table 11): active CU slots over
    /// issued slots.
    pub fn vliw_utilization(&self) -> f64 {
        let issued: u64 = self.per_pe.iter().map(|p| p.vliw_issued).sum();
        if issued == 0 {
            return 0.0;
        }
        let active: u64 = self.per_pe.iter().map(|p| p.cu_slots_active).sum();
        active as f64 / (issued * gendp_isa::CU_PER_PE as u64) as f64
    }

    /// Fraction of PE-cycles the control threads spent stalled.
    pub fn ctrl_stall_fraction(&self) -> f64 {
        if self.cycles == 0 || self.per_pe.is_empty() {
            return 0.0;
        }
        let stalls: u64 = self.per_pe.iter().map(|p| p.ctrl_stalls).sum();
        stalls as f64 / (self.cycles * self.per_pe.len() as u64) as f64
    }

    /// Total control instructions retired.
    pub fn ctrl_insts(&self) -> u64 {
        self.per_pe.iter().map(|p| p.ctrl_insts).sum()
    }

    /// Total compute VLIW instructions issued.
    pub fn vliw_issued(&self) -> u64 {
        self.per_pe.iter().map(|p| p.vliw_issued).sum()
    }

    /// Control + compute instructions per computed cell.
    pub fn insts_per_cell(&self) -> f64 {
        let cells = self.cells();
        if cells == 0 {
            return 0.0;
        }
        (self.ctrl_insts() + self.vliw_issued()) as f64 / cells as f64
    }
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cycles {}  cells {}  cells/cycle {:.3}  vliw util {:.1}%  stall {:.1}%",
            self.cycles,
            self.cells(),
            self.cells_per_cycle(),
            100.0 * self.vliw_utilization(),
            100.0 * self.ctrl_stall_fraction(),
        )?;
        for (i, pe) in self.per_pe.iter().enumerate() {
            writeln!(
                f,
                "  pe{i}: ctrl {} (stall {})  vliw {}  cells {}  rf {}  port {}  spm {}",
                pe.ctrl_insts,
                pe.ctrl_stalls,
                pe.vliw_issued,
                pe.cells,
                pe.rf_accesses,
                pe.port_moves,
                pe.spm_accesses
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates() {
        let stats = RunStats {
            cycles: 100,
            per_pe: vec![
                PeStats {
                    ctrl_insts: 50,
                    ctrl_stalls: 10,
                    vliw_issued: 20,
                    cu_slots_active: 30,
                    cells: 5,
                    ..PeStats::default()
                },
                PeStats {
                    ctrl_insts: 40,
                    ctrl_stalls: 30,
                    vliw_issued: 10,
                    cu_slots_active: 10,
                    cells: 3,
                    ..PeStats::default()
                },
            ],
            ..RunStats::default()
        };
        assert_eq!(stats.cells(), 8);
        assert!((stats.cells_per_cycle() - 0.08).abs() < 1e-12);
        assert!((stats.vliw_utilization() - 40.0 / 60.0).abs() < 1e-12);
        assert!((stats.ctrl_stall_fraction() - 0.2).abs() < 1e-12);
        assert_eq!(stats.ctrl_insts(), 90);
        assert!((stats.insts_per_cell() - 120.0 / 8.0).abs() < 1e-12);
        assert!(!stats.to_string().is_empty());
    }

    #[test]
    fn absorb_adds_counters_and_maxes_high_water() {
        let a = RunStats {
            cycles: 100,
            fifo_pushes: 5,
            fifo_pops: 4,
            fifo_high_water: 3,
            per_pe: vec![PeStats {
                ctrl_insts: 10,
                cells: 2,
                ..PeStats::default()
            }],
            ..RunStats::default()
        };
        let b = RunStats {
            cycles: 50,
            fifo_pushes: 1,
            fifo_pops: 1,
            fifo_high_water: 7,
            per_pe: vec![
                PeStats {
                    ctrl_insts: 4,
                    cells: 1,
                    ..PeStats::default()
                },
                PeStats {
                    ctrl_insts: 6,
                    cells: 3,
                    ..PeStats::default()
                },
            ],
            tier: Tier::Functional,
        };
        let total = RunStats::merged([&a, &b]);
        assert_eq!(total.cycles, 150);
        assert_eq!(total.fifo_pushes, 6);
        assert_eq!(total.fifo_high_water, 7);
        assert_eq!(total.per_pe.len(), 2);
        assert_eq!(total.per_pe[0].ctrl_insts, 14);
        assert_eq!(total.per_pe[1].ctrl_insts, 6);
        assert_eq!(total.cells(), 6);
        // Provenance: first run's tier sticks.
        assert_eq!(total.tier, Tier::Decoded);
        assert_eq!(
            RunStats::merged([&b]).tier,
            Tier::Functional,
            "empty aggregate adopts the first run's tier"
        );
    }

    #[test]
    fn equality_ignores_provenance() {
        let a = RunStats {
            cycles: 10,
            ..RunStats::default()
        };
        let b = RunStats {
            cycles: 10,
            tier: Tier::Functional,
            ..RunStats::default()
        };
        assert_eq!(a, b);
        let c = RunStats {
            cycles: 11,
            ..RunStats::default()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn empty_stats_do_not_divide_by_zero() {
        let s = RunStats::default();
        assert_eq!(s.cells_per_cycle(), 0.0);
        assert_eq!(s.vliw_utilization(), 0.0);
        assert_eq!(s.ctrl_stall_fraction(), 0.0);
        assert_eq!(s.insts_per_cell(), 0.0);
    }
}
