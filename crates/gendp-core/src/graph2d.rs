//! Control-program generation for graph-structured 2-D kernels (paper
//! Fig. 2c / §3.1): Partial Order Alignment.
//!
//! Graph nodes in topological order become rows; besides the previous
//! row's values, a cell may depend on *earlier* rows (the orange arrows of
//! Fig. 2c). Those long-range values are kept live in the systolic stream:
//! every row forwards the h-vectors of all rows that some later row still
//! needs (the live set), which is exactly the extra data movement the
//! paper blames for POA's memory-bound behaviour on GenDP (§7.2). Rows
//! with more than two predecessors run the two-predecessor compute program
//! repeatedly — the paper's "variable number of block iterations within
//! each cell" (§7.3). End-node scores park in the scratchpad until the
//! final drain.
//!
//! Each row a PE owns is a prologue and one counted column loop whose
//! control retires in the compute shadow, so a program grows with rows
//! per PE, not with cells, and keeps the straight-line program's cycles.
//! The virtual border row's `h(−, j) = −gap·j` values step in
//! accumulator registers. A row of more than two predecessors stays
//! straight-line: it folds its pairs through `a15`, an address register
//! written from the register file, which a counted loop may not write.
//! The programs follow the graph, so they are generated per task.

use gendp_dpax::{PeArray, PeArrayConfig, RunStats, SimError, TierPolicy};

use crate::accel::{Accelerator, PoaTask, PreparedTask};
use crate::counted::{self, At};
use gendp_dpmap::{map_dfg, Mapping};
use gendp_isa::{AddrReg, ControlInst, ControlProgram, Loc, Mode, Space, Word};
use gendp_kernels::dfgs::poa_dfg;
use gendp_kernels::poa::Poa;
use gendp_kernels::scoring::{GapModel, Scoring};
use gendp_seq::DnaSeq;

const NEG: i32 = i32::MIN / 4;

/// A configured POA accelerator for one graph (programs are generated per
/// task; the paper likewise loads per-task dependency information, §7.2).
#[derive(Debug)]
pub struct PoaAccelerator {
    mapping: Mapping,
    scoring: Scoring,
    gap: i32,
    budget_scale: u64,
    /// Execution-tier selection for task runs.
    tiers: TierPolicy,
}

/// Functional result of aligning one sequence to the graph on DPAx.
#[derive(Debug, Clone, PartialEq)]
pub struct PoaRun {
    /// The global alignment score (best end-node score).
    pub score: i32,
    /// Simulator statistics.
    pub stats: RunStats,
}

/// Static per-task structure derived from the graph.
struct RowPlan {
    /// Node id of each row (topological order).
    rows: Vec<usize>,
    /// Predecessor rows (ranks) per row; empty = virtual border row.
    preds: Vec<Vec<usize>>,
    /// Live set after each row: rows whose h-vector must still flow.
    live_after: Vec<Vec<usize>>,
    /// Column-0 value of each row (host-computed border recursion).
    col0: Vec<i32>,
    /// Whether each row is an end node.
    is_end: Vec<bool>,
}

impl PoaAccelerator {
    /// Maps the POA objective function.
    ///
    /// # Panics
    ///
    /// Panics if the scoring's gap model is not linear.
    pub fn new(scoring: Scoring) -> Self {
        let gap = match scoring.gap {
            GapModel::Linear { extend } => extend,
            _ => panic!("POA uses the linear gap model"),
        };
        PoaAccelerator {
            mapping: map_dfg(&poa_dfg(&scoring)),
            scoring,
            gap,
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

    /// Selects the requested execution tier (decoded by default; this
    /// pattern has no functional lowering, so a functional request runs
    /// decoded; all tiers are bit-identical).
    pub fn tiers(mut self, tiers: TierPolicy) -> Self {
        self.tiers = tiers;
        self
    }

    /// The DPMap result for the objective function.
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    fn ext(&self, name: &str) -> u16 {
        self.mapping.layout.ext_slot(name).expect("poa ext")
    }

    fn plan(&self, graph: &Poa) -> RowPlan {
        let rows = graph.topological_order();
        let rank_of = {
            let mut r = vec![0usize; graph.node_count()];
            for (rank, &v) in rows.iter().enumerate() {
                r[v] = rank;
            }
            r
        };
        let preds: Vec<Vec<usize>> = rows
            .iter()
            .map(|&v| {
                let mut p: Vec<usize> = graph.preds(v).iter().map(|&(u, _)| rank_of[u]).collect();
                p.sort_unstable();
                p
            })
            .collect();
        // last_consumer[u] = max rank that still reads row u.
        let mut last_consumer = vec![0usize; rows.len()];
        for (r, ps) in preds.iter().enumerate() {
            for &u in ps {
                last_consumer[u] = last_consumer[u].max(r);
            }
        }
        let live_after: Vec<Vec<usize>> = (0..rows.len())
            .map(|r| (0..=r).filter(|&u| last_consumer[u] > r).collect())
            .collect();
        // Border recursion H[r][0] = max over preds(H[p][0]) - gap, with
        // the virtual border H[-][0] = 0.
        let mut col0 = vec![0i32; rows.len()];
        for r in 0..rows.len() {
            let best = if preds[r].is_empty() {
                0
            } else {
                preds[r].iter().map(|&p| col0[p]).max().expect("preds")
            };
            col0[r] = best - self.gap;
        }
        let is_end = rows.iter().map(|&v| graph.succs(v).is_empty()).collect();
        RowPlan {
            rows,
            preds,
            live_after,
            col0,
            is_end,
        }
    }

    /// Generates PE `p`'s control program: per row, a prologue and one
    /// counted column loop ([`counted`]).
    #[allow(clippy::too_many_arguments)]
    fn pe_program(
        &self,
        p: usize,
        n_pes: usize,
        plan: &RowPlan,
        graph: &Poa,
        n: usize,
        scratch_base: u16,
    ) -> (ControlProgram, usize) {
        let m = plan.rows.len();
        let mut prog = ControlProgram::new();
        let vb = self.ext("vb");
        let y = self.ext("y");
        let p1l = self.ext("h_p1_left");
        let p1 = self.ext("h_p1");
        let p2l = self.ext("h_p2_left");
        let p2 = self.ext("h_p2");
        let hl = self.ext("h_left");
        let h_out = self.mapping.layout.output_slot("h").expect("poa h");
        let last_pe = p == n_pes - 1;
        let li = |dest: u16, imm: i32| ControlInst::Li {
            dest: Loc::rf(dest),
            imm,
        };
        let mv = |dest: u16, src: u16| ControlInst::mv(Loc::rf(dest), Loc::rf(src));

        // Landing slots per live stream element: assigned by position in
        // the (sorted) incoming live set; `cur` holds column j, `prev`
        // column j-1.
        let slot_cur = |idx: usize| scratch_base + 2 * idx as u16;
        let slot_prev = |idx: usize| scratch_base + 2 * idx as u16 + 1;

        let mut saves = 0usize; // end-node scores parked in the SPM
        let mut bound = None;
        for row in (p..m).step_by(n_pes) {
            let incoming: &[usize] = if row == 0 {
                &[]
            } else {
                &plan.live_after[row - 1]
            };
            let in_idx = |u: usize| -> usize {
                incoming
                    .iter()
                    .position(|&x| x == u)
                    .unwrap_or_else(|| panic!("row {row}: pred {u} not live in stream"))
            };
            let src_loc = if row == 0 {
                Loc::port(Space::In) // only the column characters
            } else if p == 0 {
                Loc::port(Space::Fifo)
            } else {
                Loc::port(Space::In)
            };
            let outgoing = &plan.live_after[row];
            let fwd_loc = if last_pe {
                Loc::port(Space::Fifo)
            } else {
                Loc::port(Space::Out)
            };
            let forwards = row + 1 < m;
            let preds = &plan.preds[row];

            // Row prologue.
            prog.push(li(vb, graph.base(plan.rows[row]).code() as i32));
            prog.push(li(hl, plan.col0[row]));
            for &u in incoming {
                prog.push(li(slot_cur(in_idx(u)), plan.col0[u]));
            }

            let run = counted::Run {
                cells: n,
                // A row of more than two predecessors folds its pairs
                // through a15, an address register written from the RF,
                // which a counted loop may not write: it stays
                // straight-line.
                looped: if preds.len() > 2 { 0 } else { n },
                period: 1,
                // The column index of cell 0.
                first: 1,
                // The virtual border row's h(-, j-1) = -gap * (j-1) and
                // h(-, j) = -gap * j step in accumulators.
                accs: if preds.is_empty() {
                    vec![(0, -self.gap), (-self.gap, -self.gap)]
                } else {
                    Vec::new()
                },
                reads_index: false,
            };
            let load = |prog: &mut ControlProgram, k: usize, at: At| {
                // Column character.
                prog.push(ControlInst::mv(Loc::rf(y), src_loc));
                // Shift landings: prev <- cur, cur <- stream.
                for k in 0..incoming.len() {
                    prog.push(mv(slot_prev(k), slot_cur(k)));
                    prog.push(ControlInst::mv(Loc::rf(slot_cur(k)), src_loc));
                }
                // A predecessor's left and up values; a missing one must
                // lose.
                let load_pred = |prog: &mut ControlProgram, ext_l, ext_u, pr: Option<usize>| {
                    if let Some(u) = pr {
                        let k = in_idx(u);
                        prog.push(mv(ext_l, slot_prev(k)));
                        prog.push(mv(ext_u, slot_cur(k)));
                    } else {
                        prog.push(li(ext_l, NEG));
                        prog.push(li(ext_u, NEG));
                    }
                };
                if preds.is_empty() {
                    // Virtual border row: h(-, j) = -gap * j.
                    let c = k as i32 + 1;
                    match at {
                        At::Imm => {
                            prog.push(li(p1l, -self.gap * (c - 1)));
                            prog.push(li(p1, -self.gap * c));
                        }
                        At::Reg { .. } => {
                            prog.push(ControlInst::mv(Loc::rf(p1l), counted::acc(0)));
                            prog.push(ControlInst::mv(Loc::rf(p1), counted::acc(1)));
                        }
                    }
                    load_pred(prog, p2l, p2, None);
                }
                // Predecessor pairs, two per compute invocation; the
                // helper emits the last invocation's `set cu`.
                for (inv, pair) in preds.chunks(2).enumerate() {
                    if inv > 0 {
                        // Fold the previous invocation's h into this one
                        // through the left candidate: cl = h_left - gap,
                        // so stage h_prev + gap.
                        prog.push(ControlInst::set_compute(0));
                        prog.push(ControlInst::mv(Loc::areg(15), Loc::rf(h_out)));
                        prog.push(ControlInst::Addi {
                            rd: AddrReg(15),
                            rs1: AddrReg(15),
                            imm: self.gap,
                        });
                        prog.push(ControlInst::mv(Loc::rf(hl), Loc::areg(15)));
                    }
                    load_pred(prog, p1l, p1, Some(pair[0]));
                    load_pred(prog, p2l, p2, pair.get(1).copied());
                }
            };
            let store = |prog: &mut ControlProgram, _k: usize| {
                // Forward: char, then the outgoing live vectors in order.
                if forwards {
                    prog.push(ControlInst::mv(fwd_loc, Loc::rf(y)));
                    for &u in outgoing {
                        let src = if u == row { h_out } else { slot_cur(in_idx(u)) };
                        prog.push(ControlInst::mv(fwd_loc, Loc::rf(src)));
                    }
                }
                // Left-neighbor update.
                prog.push(mv(hl, h_out));
            };
            counted::emit(
                &mut prog,
                self.mapping.program.len(),
                &run,
                &mut bound,
                load,
                store,
            );
            // Park an end node's final-column score in the scratchpad.
            if plan.is_end[row] {
                prog.push(ControlInst::mv(Loc::spm(saves as u16), Loc::rf(h_out)));
                saves += 1;
            }
        }

        (prog, saves)
    }

    /// Aligns `seq` against `graph` on a `n_pes`-PE array, returning the
    /// global alignment score — bit-identical to
    /// [`gendp_kernels::poa::Poa::align`].
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    ///
    /// # Panics
    ///
    /// Panics if the graph or the sequence is empty.
    pub fn run(&self, graph: &Poa, seq: &DnaSeq, n_pes: usize) -> Result<PoaRun, SimError> {
        self.run_task(&PoaTask { graph, seq, n_pes })
    }

    /// Binds one alignment task to a loaded array for repeated
    /// [`PreparedTask::execute`] replays. [`run`](Self::run) is `prepare`
    /// + one execute + output parsing.
    ///
    /// # Panics
    ///
    /// Panics if the graph or the sequence is empty.
    pub fn prepare(&self, graph: &Poa, seq: &DnaSeq, n_pes: usize) -> PreparedTask {
        assert!(!seq.is_empty(), "empty sequence");
        let n = seq.len();
        let (array, m, max_live) = self.build_array(graph, n, n_pes);
        let inputs = seq
            .codes()
            .iter()
            .map(|&c| Word::from_i32(c as i32))
            .collect();
        let budget = (m + n_pes as u64)
            * (n as u64 + 4)
            * (self.mapping.program.len() as u64 * 3 + 6 * max_live as u64 + 24)
            * 4
            + 10_000;
        let mut prep = PreparedTask::new(array, budget, None);
        prep.inputs = inputs;
        prep.set_budget_scale(self.budget_scale);
        prep
    }

    /// Statically verifies the programs generated to align a
    /// `seq_len`-base sequence against `graph`, without running them.
    ///
    /// # Panics
    ///
    /// Panics if the graph is empty or `seq_len` is zero.
    pub fn verify(&self, graph: &Poa, seq_len: usize, n_pes: usize) -> gendp_verify::Report {
        assert!(seq_len > 0, "empty sequence");
        self.build_array(graph, seq_len, n_pes).0.verify_programs()
    }

    /// Builds the loaded array for one alignment task (shared by `run`
    /// and `verify`); returns it with the row count and the peak live-set
    /// size used for budgeting.
    fn build_array(&self, graph: &Poa, n: usize, n_pes: usize) -> (PeArray, u64, usize) {
        assert!(graph.node_count() > 0, "empty graph");
        let plan = self.plan(graph);
        let max_live = plan
            .live_after
            .iter()
            .map(Vec::len)
            .max()
            .unwrap_or(0)
            .max(1);
        let scratch_base = self.mapping.layout.slot_count();

        let mut cfg = PeArrayConfig::with_pes(n_pes)
            .mode(Mode::Int32)
            .luts(gendp_isa::Luts::with_scores(
                self.scoring.matches,
                -self.scoring.mismatch,
            ))
            .tiers(self.tiers);
        cfg.rf_slots = (scratch_base as usize + 2 * max_live + 2).max(cfg.rf_slots);
        cfg.fifo_capacity = ((max_live + 2) * (n + 2)).max(cfg.fifo_capacity);
        cfg.spm_words = cfg
            .spm_words
            .max(plan.is_end.iter().filter(|&&e| e).count() + 2);
        let mut array = PeArray::new(cfg);

        // Per-PE programs plus the SPM drain epilogue.
        let mut saves_per_pe = Vec::with_capacity(n_pes);
        let mut programs = Vec::with_capacity(n_pes);
        for p in 0..n_pes {
            let (prog, saves) = self.pe_program(p, n_pes, &plan, graph, n, scratch_base);
            programs.push(prog);
            saves_per_pe.push(saves);
        }
        for p in 0..n_pes {
            let upstream: usize = saves_per_pe[..p].iter().sum();
            let prog = &mut programs[p];
            for _ in 0..upstream {
                prog.push(ControlInst::mv(Loc::port(Space::Out), Loc::port(Space::In)));
            }
            for k in 0..saves_per_pe[p] {
                prog.push(ControlInst::mv(Loc::port(Space::Out), Loc::spm(k as u16)));
            }
            prog.push(ControlInst::Halt);
        }
        for (p, prog) in programs.into_iter().enumerate() {
            array.load_pe_control(p, prog);
        }
        array.load_compute_all(self.mapping.program.clone());
        (array, plan.rows.len() as u64, max_live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gendp_seq::{Genome, MutationProfile};
    use rand::{rngs::SmallRng, SeedableRng};

    fn check(graph: &Poa, seq: &DnaSeq, n_pes: usize) {
        let acc = PoaAccelerator::new(Scoring::racon());
        let run = acc.run(graph, seq, n_pes).expect("simulation");
        let expect = graph.align(seq, &Scoring::racon());
        assert_eq!(run.score, expect.score);
        assert!(run.stats.cells() >= (graph.node_count() * seq.len()) as u64);
    }

    #[test]
    fn chain_graph_matches_reference() {
        let mut poa = Poa::new();
        let backbone: DnaSeq = "ACGTTGCAAC".parse().unwrap();
        poa.add_sequence(&backbone, &Scoring::racon());
        check(&poa, &backbone, 4);
        check(&poa, &"ACGTTGCAAC".parse().unwrap(), 2);
        check(&poa, &"ACGATGCAC".parse().unwrap(), 4);
    }

    #[test]
    fn branched_graph_matches_reference() {
        let mut rng = SmallRng::seed_from_u64(41);
        let g = Genome::random(60, &mut rng);
        let truth = g.window(0, 40);
        let mut poa = Poa::new();
        poa.add_sequence(&truth, &Scoring::racon());
        // Noisy reads create mismatch/insertion branches (multi-pred
        // nodes).
        for _ in 0..4 {
            let noisy = MutationProfile::nanopore().apply(&truth, &mut rng);
            poa.add_sequence(&noisy, &Scoring::racon());
        }
        let probe = MutationProfile::nanopore().apply(&truth, &mut rng);
        check(&poa, &probe, 4);
        check(&poa, &truth, 4);
    }

    #[test]
    fn heavily_bubbled_graph_matches_reference() {
        let mut rng = SmallRng::seed_from_u64(42);
        let g = Genome::random(40, &mut rng);
        let truth = g.window(0, 30);
        let mut poa = Poa::new();
        poa.add_sequence(&truth, &Scoring::racon());
        for _ in 0..8 {
            let noisy = MutationProfile::pacbio().apply(&truth, &mut rng);
            poa.add_sequence(&noisy, &Scoring::racon());
        }
        let probe = MutationProfile::pacbio().apply(&truth, &mut rng);
        check(&poa, &probe, 4);
    }

    #[test]
    fn works_on_various_array_sizes() {
        let mut rng = SmallRng::seed_from_u64(43);
        let truth = DnaSeq::random(25, &mut rng);
        let mut poa = Poa::new();
        poa.add_sequence(&truth, &Scoring::racon());
        poa.add_sequence(
            &MutationProfile::nanopore().apply(&truth, &mut rng),
            &Scoring::racon(),
        );
        let probe = MutationProfile::nanopore().apply(&truth, &mut rng);
        for n_pes in [1, 2, 3, 4, 8] {
            check(&poa, &probe, n_pes);
        }
    }
}
