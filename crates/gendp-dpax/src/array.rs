//! The simulated PE array: systolic chain, FIFO, input stream, output sink
//! (paper Fig. 6) and the two engines that run it.
//!
//! [`PeArray::run`] runs the decoded tier on the event-driven engine of
//! [`crate::events`]: every PE runs ahead on its own clock and each
//! control instruction issues at its ready cycle. The interpreted tier runs
//! the per-cycle reference loop, which steps every PE's control thread,
//! first PE to last, then every compute thread, once per cycle. Before a
//! decoded run the array copies its state; a run the event engine cannot
//! finish exactly (any failure, or one that needs more than its cycle
//! budget) is restored from the copy and replayed on the reference loop,
//! so both tiers return the same outputs, statistics and errors.

use std::collections::VecDeque;
use std::sync::Arc;

use gendp_isa::{
    ComputeProgram, ControlProgram, DecodedComputeProgram, DecodedControlProgram, Word,
};

use crate::config::{PeArrayConfig, Tier};
use crate::error::SimError;
use crate::events::{self, Replay};
use crate::pe::{ExtView, Pe, PeSave, Progress};
use crate::stats::RunStats;

/// One DPAx PE array.
///
/// The first PE's input port is fed one word per cycle from the input
/// stream (the array's input data buffer); the last PE's output port drains
/// into the output sink (the output data buffer). The FIFO connects the
/// last PE back to the first (paper §3.1). See the
/// [crate documentation](crate) for a runnable example.
#[derive(Debug)]
pub struct PeArray {
    cfg: PeArrayConfig,
    pes: Vec<Pe>,
    links: Links,
    cycles: u64,
    /// Set once the loaded programs pass static verification; survives
    /// [`reset`](Self::reset) so repeated executions of one loaded array
    /// pay the verifier exactly once. Cleared by every `load_*`.
    verified: bool,
    /// The safety/cost certificate produced by the verification gate;
    /// `None` until the gate has run (or with `no_verify`). Survives
    /// [`reset`](Self::reset); cleared by every `load_*`.
    certificate: Option<gendp_verify::Certificate>,
}

/// Everything that connects the PEs: the input latches, the input stream,
/// the output sink and the FIFO ring with its counters.
#[derive(Debug, Clone, Default)]
pub(crate) struct Links {
    /// `ports[k]` is the input-port latch of PE `k` (one-deep).
    pub ports: Vec<Option<Word>>,
    pub in_stream: VecDeque<Word>,
    pub out_sink: Vec<Word>,
    /// One queue in the default mode (popped by PE 0); one skid queue per
    /// PE in broadcast mode.
    pub fifos: Vec<VecDeque<Word>>,
    pub fifo_pushes: u64,
    pub fifo_pops: u64,
    pub fifo_high_water: usize,
}

// Pe is not Debug; provide a manual impl summarizing state.
impl std::fmt::Debug for Pe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Pe(stats: {:?})", self.stats)
    }
}

impl PeArray {
    /// Creates an idle array; load programs and feed input before running.
    pub fn new(cfg: PeArrayConfig) -> Self {
        assert!(cfg.n_pes > 0, "array needs at least one PE");
        let pes = (0..cfg.n_pes).map(|i| Pe::new(&cfg, i)).collect();
        let n_fifos = if cfg.fifo_broadcast { cfg.n_pes } else { 1 };
        PeArray {
            links: Links {
                ports: vec![None; cfg.n_pes],
                fifos: vec![VecDeque::new(); n_fifos],
                ..Links::default()
            },
            pes,
            cfg,
            cycles: 0,
            verified: false,
            certificate: None,
        }
    }

    /// Resets all dynamic state — per-PE registers, scratchpads, program
    /// counters and statistics, plus the array's ports, FIFOs, input
    /// stream, output sink and cycle counter — while keeping the loaded
    /// programs, their decoded forms and the verification status. One
    /// loaded array can thus execute many tasks without re-paying program
    /// lowering or static verification; this is the amortized hot path
    /// the decoded engine is built around.
    pub fn reset(&mut self) {
        for pe in &mut self.pes {
            pe.reset();
        }
        let links = &mut self.links;
        links.ports.fill(None);
        links.in_stream.clear();
        links.out_sink.clear();
        for fifo in &mut links.fifos {
            fifo.clear();
        }
        links.fifo_pushes = 0;
        links.fifo_pops = 0;
        links.fifo_high_water = 0;
        self.cycles = 0;
    }

    /// The array's configuration.
    pub fn config(&self) -> &PeArrayConfig {
        &self.cfg
    }

    /// Loads the control program of PE `pe`. Accepts an owned program or a
    /// pre-shared `Arc` (no deep copy either way); the program is lowered
    /// to its decoded form once, here.
    ///
    /// # Panics
    ///
    /// Panics if `pe` is out of range.
    pub fn load_pe_control(&mut self, pe: usize, program: impl Into<Arc<ControlProgram>>) {
        let program = program.into();
        let decoded = Arc::new(DecodedControlProgram::decode(&program));
        self.pes[pe].load_control(program, decoded);
        self.invalidate_verification();
    }

    /// Loads the compute program of PE `pe`. Accepts an owned program or a
    /// pre-shared `Arc`; decodes once.
    ///
    /// # Panics
    ///
    /// Panics if `pe` is out of range.
    pub fn load_pe_compute(&mut self, pe: usize, program: impl Into<Arc<ComputeProgram>>) {
        let program = program.into();
        let decoded = Arc::new(DecodedComputeProgram::decode(&program));
        self.pes[pe].load_compute(program, decoded);
        self.invalidate_verification();
    }

    /// Loads the same compute program into every PE (the usual case: all
    /// PEs run the same objective function). The program is decoded once
    /// and `Arc`-shared — loading a 64-PE array no longer deep-clones the
    /// instruction vectors per PE.
    pub fn load_compute_all(&mut self, program: impl Into<Arc<ComputeProgram>>) {
        let program = program.into();
        let decoded = Arc::new(DecodedComputeProgram::decode(&program));
        for pe in &mut self.pes {
            pe.load_compute(Arc::clone(&program), Arc::clone(&decoded));
        }
        self.invalidate_verification();
    }

    /// A program load obsoletes the verification status and its
    /// certificate until the gate runs again.
    fn invalidate_verification(&mut self) {
        self.verified = false;
        self.certificate = None;
    }

    /// Appends words to the input stream feeding the first PE.
    pub fn feed_input(&mut self, words: impl IntoIterator<Item = Word>) {
        self.links.in_stream.extend(words);
    }

    /// Writes `words` into PE `pe`'s scratchpad from address 0, as the host
    /// fills the data buffers: it costs no cycle and no statistic. Like
    /// [`feed_input`](Self::feed_input) it is undone by
    /// [`reset`](Self::reset), so stage after every reset.
    ///
    /// # Panics
    ///
    /// Panics if `pe` is out of range or `words` outgrows the scratchpad.
    pub fn stage_spm(&mut self, pe: usize, words: &[Word]) {
        self.pes[pe].stage_spm(words);
    }

    /// The control program loaded into PE `pe`.
    ///
    /// # Panics
    ///
    /// Panics if `pe` is out of range.
    pub fn control_program(&self, pe: usize) -> &ControlProgram {
        self.pes[pe].control_program()
    }

    /// Words the last PE has written to the output data buffer, in order.
    pub fn output(&self) -> &[Word] {
        &self.links.out_sink
    }

    /// Statically verifies the loaded programs against this array's
    /// configuration. Returns the full report (including warnings); the
    /// pre-run gate in [`run`](Self::run) only rejects on errors.
    pub fn verify_programs(&self) -> gendp_verify::Report {
        self.certify_programs().0
    }

    /// Statically verifies the loaded programs and keeps the proofs: the
    /// returned [`Certificate`](gendp_verify::Certificate) carries the
    /// bounds proofs, the cycle floor, the DP-cell cost and the FIFO bound
    /// the fixpoint established alongside the diagnostics.
    pub fn certify_programs(&self) -> (gendp_verify::Report, gendp_verify::Certificate) {
        let contract = gendp_verify::PeContract {
            n_pes: self.cfg.n_pes,
            rf_slots: self.cfg.rf_slots,
            spm_words: self.cfg.spm_words,
            aregs: self.cfg.aregs,
            fifo_capacity: self.cfg.fifo_capacity,
            fifo_broadcast: self.cfg.fifo_broadcast,
            mode: self.cfg.mode,
        };
        let units: Vec<_> = self
            .pes
            .iter()
            .map(|pe| (pe.control_program(), pe.compute_program()))
            .collect();
        gendp_verify::Verifier::new(contract).certify_array(&units)
    }

    /// Runs the pre-run verification gate now instead of at the first
    /// [`run`](Self::run): verifies and certifies the loaded programs and
    /// keeps the certificate. Idempotent until the next `load_*`.
    ///
    /// # Errors
    ///
    /// [`SimError::Verify`] if the programs fail static verification.
    /// With [`PeArrayConfig::no_verify`] this is a no-op.
    pub fn ensure_verified(&mut self) -> Result<(), SimError> {
        if !self.cfg.verify || self.verified {
            return Ok(());
        }
        let (report, cert) = self.certify_programs();
        if report.has_errors() {
            return Err(SimError::Verify(report));
        }
        self.verified = true;
        self.certificate = Some(cert);
        Ok(())
    }

    /// The certificate produced by the verification gate, once it has
    /// run ([`run`](Self::run) or [`ensure_verified`](Self::ensure_verified)).
    pub fn certificate(&self) -> Option<&gendp_verify::Certificate> {
        self.certificate.as_ref()
    }

    /// The execution tier this array runs under its requested
    /// [`TierPolicy`](crate::TierPolicy). A raw array can only simulate,
    /// so [`Tier::Functional`] never resolves here: a functional request
    /// runs decoded (kernel drivers in `gendp-core` intercept the
    /// functional tier above the array level).
    pub fn resolved_tier(&self) -> Tier {
        match self.cfg.tiers {
            Tier::Interpreted => Tier::Interpreted,
            Tier::Functional | Tier::Decoded => Tier::Decoded,
        }
    }

    /// Runs until every control and compute thread has halted.
    ///
    /// The decoded tier runs the event-driven engine, in which every PE
    /// runs ahead on its own clock; a run it cannot finish exactly — one
    /// that ends in any of the errors below — replays from its starting
    /// state on the interpreted per-cycle loop, so outputs, statistics and
    /// errors are the reference's on every tier.
    ///
    /// # Errors
    ///
    /// [`SimError::Verify`] if the loaded programs fail static
    /// verification (unless [`PeArrayConfig::no_verify`] was set);
    /// [`SimError::Deadlock`] if a cycle passes in which no thread makes
    /// progress; [`SimError::Timeout`] if `max_cycles` elapse first;
    /// [`SimError::BadAccess`] on out-of-range addressing.
    pub fn run(&mut self, max_cycles: u64) -> Result<RunStats, SimError> {
        self.ensure_verified()?;
        if self.resolved_tier() == Tier::Decoded {
            // The state the run starts from, for its replay.
            let pes: Vec<PeSave> = self.pes.iter().map(Pe::save).collect();
            let links = self.links.clone();
            let run = events::run(
                &mut self.pes,
                &mut self.links,
                self.cycles,
                max_cycles,
                self.cfg.fifo_capacity,
            );
            match run {
                Ok(cycles) => {
                    self.cycles = cycles;
                    return Ok(self.stats());
                }
                Err(Replay) => {
                    for (pe, saved) in self.pes.iter_mut().zip(pes) {
                        pe.restore(saved);
                    }
                    self.links = links;
                }
            }
        }
        self.run_cycles(max_cycles)?;
        Ok(self.stats())
    }

    /// The interpreted reference loop: every PE's control thread, then its
    /// compute thread, one cycle at a time.
    fn run_cycles(&mut self, max_cycles: u64) -> Result<(), SimError> {
        let n = self.cfg.n_pes;
        let links = &mut self.links;
        while !self.pes.iter().all(Pe::is_halted) {
            if self.cycles >= max_cycles {
                return Err(SimError::Timeout { max_cycles });
            }
            let mut progressed = false;

            // Input data buffer feeds the first PE's port.
            if links.ports[0].is_none() {
                if let Some(w) = links.in_stream.pop_front() {
                    links.ports[0] = Some(w);
                }
            }

            // Control threads, first PE to last: a word written to the next
            // port this cycle is visible to the next PE in the same cycle
            // (the paper's single-cycle neighbor move, Fig. 8).
            let broadcast = self.cfg.fifo_broadcast;
            for k in 0..n {
                let fifo_idx = if broadcast { k } else { 0 };
                let ext = ExtView {
                    in_avail: links.ports[k],
                    out_free: if k + 1 < n {
                        links.ports[k + 1].is_none()
                    } else {
                        true // output data buffer never back-pressures
                    },
                    fifo_front: if broadcast || k == 0 {
                        links.fifos[fifo_idx].front().copied()
                    } else {
                        None
                    },
                    fifo_has_space: links.fifos.iter().all(|f| f.len() < self.cfg.fifo_capacity),
                    may_pop_fifo: broadcast || k == 0,
                    may_push_fifo: k == n - 1,
                };
                let (progress, eff) = self.pes[k].step_ctrl(&ext)?;
                if progress == Progress::Advanced {
                    progressed = true;
                }
                if eff.consumed_in {
                    links.ports[k] = None;
                }
                if eff.popped_fifo {
                    links.fifos[fifo_idx].pop_front();
                    links.fifo_pops += 1;
                }
                if let Some(w) = eff.wrote_out {
                    if k + 1 < n {
                        debug_assert!(links.ports[k + 1].is_none());
                        links.ports[k + 1] = Some(w);
                    } else {
                        links.out_sink.push(w);
                    }
                }
                if let Some(w) = eff.pushed_fifo {
                    for f in &mut links.fifos {
                        f.push_back(w);
                        links.fifo_high_water = links.fifo_high_water.max(f.len());
                    }
                    links.fifo_pushes += 1;
                }
            }

            // Compute threads.
            for pe in &mut self.pes {
                progressed |= pe.step_compute()?;
            }

            self.cycles += 1;

            // A `halt` retiring is not counted as progress above, so check
            // for completion before diagnosing a deadlock.
            if self.pes.iter().all(Pe::is_halted) {
                break;
            }
            if !progressed {
                let stuck: Vec<String> = (0..n)
                    .filter(|&k| !self.pes[k].is_halted())
                    .map(|k| format!("pe{k}"))
                    .collect();
                return Err(SimError::Deadlock(format!(
                    "cycle {}: no progress; waiting threads: {}",
                    self.cycles,
                    stuck.join(", ")
                )));
            }
        }
        Ok(())
    }

    /// Current statistics snapshot, stamped with the resolved tier.
    pub fn stats(&self) -> RunStats {
        RunStats {
            cycles: self.cycles,
            fifo_pushes: self.links.fifo_pushes,
            fifo_pops: self.links.fifo_pops,
            fifo_high_water: self.links.fifo_high_water,
            per_pe: self.pes.iter().map(|p| p.stats).collect(),
            tier: self.resolved_tier(),
        }
    }

    /// PE `k`, for tests that inspect its registers.
    #[cfg(test)]
    pub(crate) fn pe(&self, k: usize) -> &Pe {
        &self.pes[k]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gendp_isa::{ComputeOp, CuInst, Operand, TreeSlots, VliwInst};

    fn w(v: i32) -> Word {
        Word::from_i32(v)
    }

    #[test]
    fn two_pe_pipeline_passes_data_through() {
        // PE0 forwards each input word to PE1; PE1 writes it out.
        let mut a = PeArray::new(PeArrayConfig::with_pes(2));
        let fwd: ControlProgram =
            "li a[0] 0\nli a[1] 4\nmv out in\naddi a0 a0 1\nblt a0 a1 -2\nhalt"
                .parse()
                .unwrap();
        a.load_pe_control(0, fwd.clone());
        a.load_pe_control(1, fwd);
        a.feed_input([1, 2, 3, 4].map(w));
        let stats = a.run(1000).unwrap();
        assert_eq!(a.output(), [1, 2, 3, 4].map(w));
        assert!(stats.cycles >= 4);
        assert_eq!(stats.per_pe.len(), 2);
    }

    #[test]
    fn reset_replays_with_identical_results_and_verifies_once() {
        let mut a = PeArray::new(PeArrayConfig::with_pes(2));
        let fwd: ControlProgram =
            "li a[0] 0\nli a[1] 4\nmv out in\naddi a0 a0 1\nblt a0 a1 -2\nhalt"
                .parse()
                .unwrap();
        a.load_pe_control(0, fwd.clone());
        a.load_pe_control(1, fwd);
        a.feed_input([1, 2, 3, 4].map(w));
        let first = a.run(1000).unwrap();
        assert!(a.verified, "first run verifies the loaded programs");

        // Reset keeps programs and verification status; the replay is
        // bit- and cycle-identical.
        a.reset();
        assert!(a.verified, "reset keeps the verification status");
        assert_eq!(a.cycles, 0);
        assert!(a.output().is_empty());
        a.feed_input([1, 2, 3, 4].map(w));
        let second = a.run(1000).unwrap();
        assert_eq!(first, second);
        assert_eq!(a.output(), [1, 2, 3, 4].map(w));

        // Loading a new program invalidates the verification status.
        a.load_pe_control(0, "halt".parse::<ControlProgram>().unwrap());
        assert!(!a.verified, "load clears the verification status");
    }

    #[test]
    fn fifo_carries_from_last_to_first() {
        // PE1 pushes inputs to the FIFO; PE0 pops them and writes them out
        // through PE1 (which forwards). Demonstrates the ring.
        let mut a = PeArray::new(PeArrayConfig::with_pes(2));
        // PE0: read 2 words from fifo, send each to out port.
        let pe0: ControlProgram = "mv out fifo\nmv out fifo\nhalt".parse().unwrap();
        // PE1: push 2 seeds into the fifo, then forward 2 words from its
        // in-port to the output buffer.
        let pe1: ControlProgram = "li fifo 7\nli fifo 8\nmv out in\nmv out in\nhalt"
            .parse()
            .unwrap();
        a.load_pe_control(0, pe0);
        a.load_pe_control(1, pe1);
        let stats = a.run(1000).unwrap();
        assert_eq!(a.output(), [7, 8].map(w));
        assert_eq!(stats.fifo_pushes, 2);
        assert_eq!(stats.fifo_pops, 2);
        assert!(stats.fifo_high_water >= 1);
    }

    #[test]
    fn deadlock_is_detected() {
        // PE0 waits for input that never comes.
        let mut a = PeArray::new(PeArrayConfig::with_pes(1));
        a.load_pe_control(0, "mv rf[0] in\nhalt".parse::<ControlProgram>().unwrap());
        let err = a.run(1000).unwrap_err();
        assert!(matches!(err, SimError::Deadlock(_)), "{err}");
        assert!(err.to_string().contains("pe0"));
    }

    #[test]
    fn timeout_is_reported() {
        // Infinite loop.
        let mut a = PeArray::new(PeArrayConfig::with_pes(1));
        a.load_pe_control(
            0,
            "li a[0] 0\nli a[1] 1\nbeq a0 a0 0"
                .parse::<ControlProgram>()
                .unwrap(),
        );
        let err = a.run(50).unwrap_err();
        assert_eq!(err, SimError::Timeout { max_cycles: 50 });
    }

    #[test]
    fn compute_pipeline_on_streamed_data() {
        // PE0 doubles each input via a compute program (x + x) and emits it.
        let mut a = PeArray::new(PeArrayConfig::with_pes(1));
        let ctrl: ControlProgram = "
            li a[0] 0
            li a[1] 3
            mv rf[0] in
            set cu 0
            mv out rf[1]
            addi a0 a0 1
            blt a0 a1 -4
            halt"
            .parse()
            .unwrap();
        let mut comp = ComputeProgram::new();
        comp.push(VliwInst::single(CuInst::Tree(TreeSlots {
            wide_op: ComputeOp::Add,
            wide_ins: [
                Operand::Reg(0),
                Operand::Reg(0),
                Operand::Imm(0),
                Operand::Imm(0),
            ],
            narrow_op: ComputeOp::Nop,
            narrow_ins: [Operand::Imm(0); 2],
            root_op: ComputeOp::Copy,
            dest: 1,
        })));
        comp.finish();
        a.load_pe_control(0, ctrl);
        a.load_pe_compute(0, comp);
        a.feed_input([5, -3, 100].map(w));
        let stats = a.run(1000).unwrap();
        assert_eq!(a.output(), [10, -6, 200].map(w));
        assert_eq!(stats.cells(), 3);
        assert!(stats.vliw_utilization() > 0.0);
        assert!(stats.cells_per_cycle() > 0.0);
    }

    #[test]
    fn back_pressure_stalls_upstream() {
        // PE1 spins forever without consuming its input port; PE0 pushes
        // one word into the port latch and then stalls on the second.
        let mut a = PeArray::new(PeArrayConfig::with_pes(2));
        a.load_pe_control(
            0,
            "mv out in\nmv out in\nhalt"
                .parse::<ControlProgram>()
                .unwrap(),
        );
        a.load_pe_control(
            1,
            "li a[0] 0\nbeq a0 a0 0".parse::<ControlProgram>().unwrap(),
        );
        a.feed_input([1, 2].map(w));
        let err = a.run(100).unwrap_err();
        assert_eq!(err, SimError::Timeout { max_cycles: 100 });
        let stats = a.stats();
        assert!(stats.per_pe[0].ctrl_stalls > 0);
    }

    #[test]
    fn fifo_pop_from_non_first_pe_is_an_error() {
        // no_verify: this exercises the simulator's own dynamic check,
        // which the static gate would otherwise catch first.
        let mut a = PeArray::new(PeArrayConfig::with_pes(2).no_verify());
        a.load_pe_control(0, "halt".parse::<ControlProgram>().unwrap());
        a.load_pe_control(1, "mv rf[0] fifo\nhalt".parse::<ControlProgram>().unwrap());
        let err = a.run(100).unwrap_err();
        assert!(matches!(err, SimError::BadAccess(_)), "{err}");
    }

    #[test]
    fn verify_gate_rejects_bad_program_before_running() {
        let mut a = PeArray::new(PeArrayConfig::with_pes(2));
        a.load_pe_control(0, "halt".parse::<ControlProgram>().unwrap());
        a.load_pe_control(1, "mv rf[0] fifo\nhalt".parse::<ControlProgram>().unwrap());
        let err = a.run(100).unwrap_err();
        let SimError::Verify(report) = &err else {
            panic!("expected Verify, got {err}");
        };
        assert!(report.has_errors());
        assert_eq!(a.stats().cycles, 0, "no cycle may run");
        assert!(err.to_string().contains("verification failed"), "{err}");
    }

    #[test]
    fn load_compute_all_replicates_program() {
        let mut a = PeArray::new(PeArrayConfig::with_pes(3));
        let mut comp = ComputeProgram::new();
        comp.push(VliwInst::NOP);
        comp.finish();
        a.load_compute_all(comp);
        for k in 0..3 {
            a.load_pe_control(k, "set cu 0\nhalt".parse::<ControlProgram>().unwrap());
        }
        let stats = a.run(100).unwrap();
        assert_eq!(stats.cells(), 3);
    }
}

#[cfg(test)]
mod mode_tests {
    use super::*;
    use gendp_isa::{ComputeOp, ComputeProgram, CuInst, Mode, Operand, TreeSlots, VliwInst};

    fn saturating_add_program(dest: u16) -> ComputeProgram {
        let mut p = ComputeProgram::new();
        p.push(VliwInst::single(CuInst::Tree(TreeSlots {
            wide_op: ComputeOp::Add,
            wide_ins: [
                Operand::Reg(0),
                Operand::Reg(1),
                Operand::Imm(0),
                Operand::Imm(0),
            ],
            narrow_op: ComputeOp::Nop,
            narrow_ins: [Operand::Imm(0); 2],
            root_op: ComputeOp::Copy,
            dest,
        })));
        p.finish();
        p
    }

    fn run_one(mode: Mode, a: Word, b: Word) -> Word {
        let mut array = PeArray::new(PeArrayConfig::with_pes(1).mode(mode));
        array.load_pe_control(
            0,
            "mv rf[0] in\nmv rf[1] in\nset cu 0\nmv out rf[2]\nhalt"
                .parse::<ControlProgram>()
                .unwrap(),
        );
        array.load_pe_compute(0, saturating_add_program(2));
        array.feed_input([a, b]);
        array.run(1_000).unwrap();
        array.output()[0]
    }

    #[test]
    fn pe_executes_int16x2_lanes() {
        let a = Word::from_halves([32000, -5]);
        let b = Word::from_halves([2000, 10]);
        let r = run_one(Mode::Int16x2, a, b);
        assert_eq!(r.as_halves(), [32767, 5]);
    }

    #[test]
    fn pe_executes_float32() {
        let r = run_one(Mode::Float32, Word::from_f32(1.25), Word::from_f32(2.5));
        assert_eq!(r.as_f32(), 3.75);
    }

    #[test]
    fn pe_executes_int8x4_lanes() {
        let a = Word::from_lanes([100, -100, 1, 2]);
        let b = Word::from_lanes([100, -100, 3, 4]);
        let r = run_one(Mode::Int8x4, a, b);
        assert_eq!(r.as_lanes(), [127, -128, 4, 6]);
    }
}
