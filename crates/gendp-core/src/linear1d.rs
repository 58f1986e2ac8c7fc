//! Control-program generation for the 1-D chaining table (paper
//! Fig. 5(c,d)): the 16 integer PE arrays concatenate into one large
//! systolic array; anchors stream through it while finalized anchor
//! records return through the FIFO and are broadcast to every PE ("the
//! value of cell #0 is loaded from the FIFO to each PE", §3.1) — the
//! broadcast runs at wire speed while residents advance one PE per update,
//! so each resident meets a different finalized parent at every PE.
//!
//! With an array of `P` PEs this computes exactly the reordered chaining
//! of Guo et al. with window `N = P` (each anchor is updated by its `P`
//! immediate predecessors), which in turn equals the original minimap2
//! recurrence with the same window — validated against
//! [`gendp_kernels::chain::chain_reordered`].

use gendp_dpax::{PeArray, PeArrayConfig, RunStats, SimError, TierPolicy};

use crate::accel::{Accelerator, ChainTask, PreparedTask};
use crate::counted::{self, At};
use gendp_dpmap::{map_dfg, Mapping};
use gendp_isa::{ControlInst, ControlProgram, Loc, Luts, Mode, Space, Word};
use gendp_kernels::chain::ChainParams;
use gendp_kernels::dfgs::chain_dfg;
use gendp_seq::Anchor;

/// A configured chaining accelerator.
#[derive(Debug)]
pub struct ChainAccelerator {
    mapping: Mapping,
    params: ChainParams,
    budget_scale: u64,
    /// Execution-tier selection for task runs.
    tiers: TierPolicy,
}

/// Functional result of one chaining task on DPAx.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainRun {
    /// Final chain score per anchor, in input order.
    pub scores: Vec<i32>,
    /// Simulator statistics.
    pub stats: RunStats,
}

/// The `qi` placed in dummy parent records: far beyond any real position,
/// so every validity select rejects the link.
const DUMMY_POS: i32 = 1 << 28;

impl ChainAccelerator {
    /// Maps the chaining objective function.
    pub fn new(params: ChainParams) -> Self {
        ChainAccelerator {
            mapping: map_dfg(&chain_dfg(&params)),
            params,
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

    /// The chaining parameters (window = the PE count passed to
    /// [`run`](Self::run)).
    pub fn params(&self) -> &ChainParams {
        &self.params
    }

    /// The DPMap result for the objective function.
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    fn ext(&self, name: &str) -> u16 {
        self.mapping.layout.ext_slot(name).expect("chain ext")
    }

    fn pe_program(&self, p: usize, n_pes: usize, n_anchors: usize) -> ControlProgram {
        let mut prog = ControlProgram::new();
        let (qi, ri, fi) = (self.ext("qi"), self.ext("ri"), self.ext("fi"));
        let (qj, rj, spanj, fj) = (
            self.ext("qj"),
            self.ext("rj"),
            self.ext("spanj"),
            self.ext("fj"),
        );
        let fj_out = self
            .mapping
            .layout
            .output_slot("fj")
            .expect("chain output fj");
        let last = p == n_pes - 1;
        let in_loc = Loc::port(Space::In);
        let out_loc = Loc::port(Space::Out);
        // PE k's resident at local iteration i is anchor a_i, and it must
        // be paired with finalized parent a_{i - (n_pes - k)}: the first
        // `n_pes - k` iterations use invalid dummy parents, later ones pop
        // the broadcast FIFO.
        let warmup = n_pes - p;

        // Unused parent-tracking inputs are pinned once.
        prog.push(ControlInst::Li {
            dest: Loc::rf(self.ext("idx_i")),
            imm: 0,
        });
        prog.push(ControlInst::Li {
            dest: Loc::rf(self.ext("pj")),
            imm: 0,
        });

        let send_resident = |prog: &mut ControlProgram| {
            if last {
                // Finalized: (q, r, f) to the FIFO, the score to the output
                // buffer.
                prog.push(ControlInst::mv(Loc::port(Space::Fifo), Loc::rf(qj)));
                prog.push(ControlInst::mv(Loc::port(Space::Fifo), Loc::rf(rj)));
                prog.push(ControlInst::mv(Loc::port(Space::Fifo), Loc::rf(fj_out)));
                prog.push(ControlInst::mv(out_loc, Loc::rf(fj_out)));
            } else {
                prog.push(ControlInst::mv(out_loc, Loc::rf(qj)));
                prog.push(ControlInst::mv(out_loc, Loc::rf(rj)));
                prog.push(ControlInst::mv(out_loc, Loc::rf(spanj)));
                prog.push(ControlInst::mv(out_loc, Loc::rf(fj_out)));
            }
        };

        // (c) take the next resident.
        let take_resident = |prog: &mut ControlProgram| {
            prog.push(ControlInst::mv(Loc::rf(qj), in_loc));
            prog.push(ControlInst::mv(Loc::rf(rj), in_loc));
            prog.push(ControlInst::mv(Loc::rf(spanj), in_loc));
            prog.push(ControlInst::mv(Loc::rf(fj), in_loc));
        };

        for i in 0..n_anchors.min(warmup) {
            // (a) ship the previous resident onward first: the last PE's
            // push is the very record it pops as its next parent.
            if i > 0 {
                send_resident(&mut prog);
            }
            // (b) pipeline warm-up: an invalid dummy parent.
            for (dest, imm) in [(qi, DUMMY_POS), (ri, DUMMY_POS), (fi, 0)] {
                prog.push(ControlInst::Li {
                    dest: Loc::rf(dest),
                    imm,
                });
            }
            take_resident(&mut prog);
            // (d) update it.
            prog.push(ControlInst::set_compute(0));
        }
        // The steady state is one counted loop whose (b) pops the
        // finalized parent record from the broadcast FIFO.
        let steady = n_anchors.saturating_sub(warmup);
        if steady > 0 {
            send_resident(&mut prog);
            let run = counted::Run {
                cells: steady,
                looped: steady,
                period: 1,
                first: 0,
                accs: Vec::new(),
                reads_index: false,
            };
            let load = |prog: &mut ControlProgram, _k: usize, _at: At| {
                for dest in [qi, ri, fi] {
                    prog.push(ControlInst::mv(Loc::rf(dest), Loc::port(Space::Fifo)));
                }
                take_resident(prog);
            };
            let store = |prog: &mut ControlProgram, _k: usize| send_resident(prog);
            counted::emit(
                &mut prog,
                self.mapping.program.len(),
                &run,
                &mut None,
                load,
                store,
            );
        } else if n_anchors > 0 {
            // Flush the final resident.
            send_resident(&mut prog);
        }
        prog.push(ControlInst::Halt);
        prog
    }

    /// Runs one chaining task on a `n_pes`-PE array (the lookahead window
    /// equals `n_pes`; the paper's configuration is 64 = 16 concatenated
    /// 4-PE arrays).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    ///
    /// # Panics
    ///
    /// Panics if `anchors` is empty or unsorted.
    pub fn run(&self, anchors: &[Anchor], n_pes: usize) -> Result<ChainRun, SimError> {
        self.run_task(&ChainTask { anchors, n_pes })
    }

    /// Binds one chaining task to a loaded array for repeated
    /// [`PreparedTask::execute`] replays; [`run`](Self::run) is `prepare`,
    /// one execute and output parsing. The programs depend only on the
    /// anchor count and the PE count; the anchors stream in.
    ///
    /// # Panics
    ///
    /// Panics if `anchors` is empty or unsorted.
    pub fn prepare(&self, anchors: &[Anchor], n_pes: usize) -> PreparedTask {
        assert!(!anchors.is_empty(), "no anchors");
        let array = self.build_array(anchors.len(), n_pes);
        let budget =
            (anchors.len() as u64 + n_pes as u64) * (self.mapping.program.len() as u64 + 24) * 4
                + 10_000;
        let mut prep = PreparedTask::new(array, budget, None);
        prep.set_budget_scale(self.budget_scale);
        self.bind(&mut prep, anchors);
        prep
    }

    /// Binds the anchors of a task into `prep`, prepared for the same
    /// anchor count and PE count: residents enter the input stream as
    /// `(q, r, span, f0 = span)` records.
    ///
    /// # Panics
    ///
    /// Panics if `anchors` is unsorted.
    pub(crate) fn bind(&self, prep: &mut PreparedTask, anchors: &[Anchor]) {
        assert!(
            anchors.windows(2).all(|w| w[0] <= w[1]),
            "anchors must be sorted"
        );
        prep.inputs.clear();
        prep.inputs.extend(
            anchors
                .iter()
                .flat_map(|a| [a.qpos, a.rpos, a.span, a.span])
                .map(Word::from_i32),
        );
    }

    /// Statically verifies the programs generated for an `n_anchors`-anchor
    /// task on a `n_pes`-PE array, without running them.
    pub fn verify(&self, n_anchors: usize, n_pes: usize) -> gendp_verify::Report {
        self.build_array(n_anchors, n_pes).verify_programs()
    }

    /// Builds the loaded array for a task shape (shared by `run` and
    /// `verify`); inputs are fed separately.
    fn build_array(&self, n_anchors: usize, n_pes: usize) -> PeArray {
        let mut cfg = PeArrayConfig::with_pes(n_pes)
            .mode(Mode::Int32)
            .luts(Luts::default())
            .fifo_broadcast()
            .tiers(self.tiers);
        cfg.rf_slots = cfg.rf_slots.max(self.mapping.layout.slot_count() as usize);
        cfg.fifo_capacity = cfg.fifo_capacity.max(3 * (n_pes + 4));
        let mut array = PeArray::new(cfg);
        for p in 0..n_pes {
            // A prepared task may stay loaded as a template.
            let mut program = self.pe_program(p, n_pes, n_anchors);
            program.shrink_to_fit();
            array.load_pe_control(p, program);
        }
        array.load_compute_all(self.mapping.program.clone());
        array
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gendp_kernels::chain::chain_reordered;
    use gendp_seq::{extract_anchors, DnaSeq, Genome, KmerIndex, MutationProfile};
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    fn diagonal_anchors(n: usize, step: i32, span: i32) -> Vec<Anchor> {
        (0..n as i32)
            .map(|i| Anchor {
                rpos: 100 + i * step,
                qpos: 50 + i * step,
                span,
            })
            .collect()
    }

    fn check_against_reference(anchors: &[Anchor], n_pes: usize) {
        let params = ChainParams {
            n_prev: n_pes,
            ..ChainParams::minimap2(15.0)
        };
        let acc = ChainAccelerator::new(params);
        let run = acc.run(anchors, n_pes).expect("simulation");
        let expect = chain_reordered(anchors, &params);
        assert_eq!(run.scores, expect.scores);
        assert_eq!(run.stats.cells(), (anchors.len() * n_pes) as u64);
    }

    #[test]
    fn collinear_anchors_match_reference() {
        check_against_reference(&diagonal_anchors(30, 20, 15), 8);
    }

    #[test]
    fn single_anchor() {
        check_against_reference(&diagonal_anchors(1, 20, 15), 4);
    }

    #[test]
    fn real_read_anchors_match_reference() {
        let mut rng = SmallRng::seed_from_u64(21);
        let g = Genome::random(8_000, &mut rng);
        let read = MutationProfile::pacbio().apply(&g.window(2_000, 1_200), &mut rng);
        let idx = KmerIndex::build(g.seq(), 14);
        let anchors = extract_anchors(&idx, &read);
        assert!(anchors.len() > 50, "got {} anchors", anchors.len());
        check_against_reference(&anchors, 8);
    }

    #[test]
    fn random_anchor_sets_match_reference() {
        let mut rng = SmallRng::seed_from_u64(22);
        for _ in 0..3 {
            let mut anchors: Vec<Anchor> = (0..rng.gen_range(10..60))
                .map(|_| Anchor {
                    rpos: rng.gen_range(0..5_000),
                    qpos: rng.gen_range(0..3_000),
                    span: 15,
                })
                .collect();
            anchors.sort_unstable();
            anchors.dedup();
            check_against_reference(&anchors, 6);
        }
    }

    #[test]
    fn window_is_pe_count() {
        // With fewer PEs than predecessors, distant links are missed
        // exactly as a smaller window would miss them.
        let anchors = diagonal_anchors(20, 20, 15);
        let acc4 = ChainAccelerator::new(ChainParams {
            n_prev: 4,
            ..ChainParams::minimap2(15.0)
        });
        let run = acc4.run(&anchors, 4).unwrap();
        let expect = chain_reordered(
            &anchors,
            &ChainParams {
                n_prev: 4,
                ..ChainParams::minimap2(15.0)
            },
        );
        assert_eq!(run.scores, expect.scores);
    }

    #[test]
    fn junk_dna_never_deadlocks() {
        let mut rng = SmallRng::seed_from_u64(23);
        let r1 = DnaSeq::random(400, &mut rng);
        let idx = KmerIndex::build(&r1, 11);
        let r2 = DnaSeq::random(400, &mut rng);
        let anchors = extract_anchors(&idx, &r2);
        if !anchors.is_empty() {
            check_against_reference(&anchors, 8);
        }
    }
}
