//! Bellman-Ford on DPAx (paper §7.6.5): the distance vector lives in a
//! PE's scratchpad memory; edge relaxations stream through the compute
//! unit. Long-range dependencies (an edge's `d_u` living anywhere in the
//! vertex set) are exactly the scratchpad-served access pattern of §3.1;
//! graphs larger than the scratchpad would spill to DRAM (§7.6.1).

use gendp_dpax::{PeArray, PeArrayConfig, RunStats, SimError, TierPolicy};

use crate::accel::{Accelerator, BellmanFordTask, PreparedTask};
use gendp_dpmap::{map_dfg, Mapping};
use gendp_isa::{ControlInst, ControlProgram, Loc, Luts, Mode, Space};
use gendp_kernels::bellman_ford::Graph;
use gendp_kernels::dfgs::bellman_ford_dfg;

/// Distance value standing in for infinity on the 32-bit datapath.
pub const INF: i32 = 1 << 28;

/// A configured Bellman-Ford accelerator (one PE; tasks parallelize across
/// arrays).
#[derive(Debug)]
pub struct BellmanFordAccelerator {
    mapping: Mapping,
    budget_scale: u64,
    /// Execution-tier selection for task runs.
    tiers: TierPolicy,
}

/// Functional result of one shortest-path task on DPAx.
#[derive(Debug, Clone, PartialEq)]
pub struct BellmanFordRun {
    /// Distance per vertex ([`INF`] when unreachable).
    pub dist: Vec<i32>,
    /// Simulator statistics.
    pub stats: RunStats,
}

impl Default for BellmanFordAccelerator {
    fn default() -> Self {
        Self::new()
    }
}

impl BellmanFordAccelerator {
    /// Maps the relaxation objective function.
    pub fn new() -> Self {
        BellmanFordAccelerator {
            mapping: map_dfg(&bellman_ford_dfg()),
            budget_scale: 1,
            tiers: TierPolicy::default(),
        }
    }

    /// Scales the internally derived cycle budget (retry escalation after
    /// a [`SimError::Timeout`]); the budget is only a cutoff, never a
    /// result change.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is zero.
    pub fn budget_scale(mut self, scale: u64) -> Self {
        assert!(scale > 0, "budget scale must be positive");
        self.budget_scale = scale;
        self
    }

    /// Selects the execution-tier policy (certified decoded simulation
    /// with automatic fallback by default; all tiers are bit-identical).
    pub fn tiers(mut self, tiers: TierPolicy) -> Self {
        self.tiers = tiers;
        self
    }

    /// The DPMap result for the relaxation.
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    fn ext(&self, name: &str) -> u16 {
        self.mapping.layout.ext_slot(name).expect("bf ext")
    }

    /// Runs `rounds` relaxation sweeps over the edge list from `source`,
    /// then reads the distance vector back.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    ///
    /// # Panics
    ///
    /// Panics if the graph is empty, the source is out of range, or the
    /// vertex count exceeds the scratchpad.
    pub fn run(
        &self,
        graph: &Graph,
        source: usize,
        rounds: usize,
    ) -> Result<BellmanFordRun, SimError> {
        self.run_task(&BellmanFordTask {
            graph,
            source,
            rounds,
        })
    }

    /// Binds one shortest-path task to a loaded single-PE array for
    /// repeated [`PreparedTask::execute`] replays (the graph is baked into
    /// the relaxation program, so no input stream is staged).
    /// [`run`](Self::run) is `prepare` + one execute + output parsing.
    ///
    /// # Panics
    ///
    /// Same contract as [`Self::run`].
    pub fn prepare(&self, graph: &Graph, source: usize, rounds: usize) -> PreparedTask {
        let n = graph.vertex_count();
        let array = self.build_array(graph, source, rounds);
        let budget = (rounds as u64 * graph.edge_count() as u64 + n as u64)
            * (self.mapping.program.len() as u64 + 8)
            + 10_000;
        let mut prep = PreparedTask::new(array, budget, None);
        prep.set_budget_scale(self.budget_scale);
        prep
    }

    /// Statically verifies the relaxation program generated for a task,
    /// without running it.
    ///
    /// # Panics
    ///
    /// Same contract as [`Self::run`].
    pub fn verify(&self, graph: &Graph, source: usize, rounds: usize) -> gendp_verify::Report {
        self.build_array(graph, source, rounds).verify_programs()
    }

    /// Builds the loaded single-PE array (shared by `run` and `verify`).
    fn build_array(&self, graph: &Graph, source: usize, rounds: usize) -> PeArray {
        let n = graph.vertex_count();
        assert!(n > 0, "empty graph");
        assert!(source < n, "source out of range");
        let mut cfg = PeArrayConfig::with_pes(1)
            .mode(Mode::Int32)
            .luts(Luts::default())
            .tiers(self.tiers);
        cfg.rf_slots = cfg.rf_slots.max(self.mapping.layout.slot_count() as usize);
        assert!(n <= cfg.spm_words, "graph exceeds the scratchpad");

        let (d_u, w, d_v) = (self.ext("d_u"), self.ext("w"), self.ext("d_v"));
        let d_out = self.mapping.layout.output_slot("d").expect("bf output d");

        let mut prog = ControlProgram::new();
        prog.push(ControlInst::Li {
            dest: Loc::rf(self.ext("u_idx")),
            imm: 0,
        });
        prog.push(ControlInst::Li {
            dest: Loc::rf(self.ext("p_v")),
            imm: 0,
        });
        // Initialize the distance vector in the scratchpad.
        for v in 0..n {
            prog.push(ControlInst::Li {
                dest: Loc::spm(v as u16),
                imm: if v == source { 0 } else { INF },
            });
        }
        // Relaxation sweeps.
        for _ in 0..rounds {
            for &(u, v, weight) in graph.edges() {
                prog.push(ControlInst::mv(Loc::rf(d_u), Loc::spm(u as u16)));
                prog.push(ControlInst::mv(Loc::rf(d_v), Loc::spm(v as u16)));
                prog.push(ControlInst::Li {
                    dest: Loc::rf(w),
                    imm: weight as i32,
                });
                prog.push(ControlInst::set_compute(0));
                prog.push(ControlInst::mv(Loc::spm(v as u16), Loc::rf(d_out)));
            }
        }
        // Read the distances back.
        for v in 0..n {
            prog.push(ControlInst::mv(Loc::port(Space::Out), Loc::spm(v as u16)));
        }
        prog.push(ControlInst::Halt);

        let mut array = PeArray::new(cfg);
        array.load_pe_control(0, prog);
        array.load_pe_compute(0, self.mapping.program.clone());
        array
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gendp_kernels::bellman_ford::{bellman_ford, random_roadmap};
    use rand::{rngs::SmallRng, SeedableRng};

    fn check(graph: &Graph, source: usize) {
        let acc = BellmanFordAccelerator::new();
        let rounds = graph.vertex_count().saturating_sub(1).max(1);
        let run = acc.run(graph, source, rounds).expect("simulation");
        let expect = bellman_ford(graph, source);
        let expect_i32: Vec<i32> = expect
            .dist
            .iter()
            .map(|d| d.map(|v| v as i32).unwrap_or(INF))
            .collect();
        assert_eq!(run.dist, expect_i32);
        assert_eq!(
            run.stats.cells(),
            (rounds * graph.edge_count()) as u64,
            "one relaxation per edge per round"
        );
    }

    #[test]
    fn diamond_graph() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1);
        g.add_edge(0, 2, 4);
        g.add_edge(1, 2, 2);
        g.add_edge(1, 3, 6);
        g.add_edge(2, 3, 3);
        check(&g, 0);
    }

    #[test]
    fn unreachable_vertices_stay_at_infinity() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 5);
        let acc = BellmanFordAccelerator::new();
        let run = acc.run(&g, 0, 2).unwrap();
        assert_eq!(run.dist, vec![0, 5, INF]);
    }

    #[test]
    fn random_roadmaps_match_reference() {
        let mut rng = SmallRng::seed_from_u64(31);
        for _ in 0..3 {
            let g = random_roadmap(40, 3, 8, &mut rng);
            check(&g, 0);
        }
    }

    #[test]
    fn negative_edges_without_cycle() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 5);
        g.add_edge(1, 2, -3);
        g.add_edge(0, 2, 4);
        check(&g, 0);
    }

    #[test]
    #[should_panic(expected = "source out of range")]
    fn bad_source_panics() {
        let g = Graph::new(2);
        let _ = BellmanFordAccelerator::new().run(&g, 5, 1);
    }
}
