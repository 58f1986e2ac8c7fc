//! The simulated PE array: systolic chain, FIFO, input stream, output sink
//! and the cycle loop (paper Fig. 6).

use std::collections::VecDeque;
use std::sync::Arc;

use gendp_isa::{
    ComputeProgram, ControlProgram, DecodedComputeProgram, DecodedControlProgram, Word,
};

use crate::config::{Engine, PeArrayConfig, Tier};
use crate::error::SimError;
use crate::pe::{ExtView, Pe, Progress};
use crate::stats::RunStats;
use crate::trace::{Trace, TraceEvent};

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
    /// `ports[k]` is the input-port latch of PE `k` (one-deep).
    ports: Vec<Option<Word>>,
    in_stream: VecDeque<Word>,
    out_sink: Vec<Word>,
    /// One queue in the default mode (popped by PE 0); one skid queue per
    /// PE in broadcast mode.
    fifos: Vec<VecDeque<Word>>,
    fifo_pushes: u64,
    fifo_pops: u64,
    fifo_high_water: usize,
    cycles: u64,
    /// Set once the loaded programs pass static verification; survives
    /// [`reset`](Self::reset) so repeated executions of one loaded array
    /// pay the verifier exactly once. Cleared by every `load_*`.
    verified: bool,
    /// The safety/cost certificate produced by the verification gate;
    /// `None` until the gate has run (or with `no_verify`). Survives
    /// [`reset`](Self::reset); cleared by every `load_*`.
    certificate: Option<gendp_verify::Certificate>,
    /// True when the certificate proves every access in bounds, the
    /// engine is [`Engine::Decoded`] and no PE needs the interpreter
    /// fallback: the PEs run the certified-unchecked access path.
    certified: bool,
    trace: Option<Trace>,
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
            ports: vec![None; cfg.n_pes],
            pes,
            in_stream: VecDeque::new(),
            out_sink: Vec::new(),
            fifos: vec![VecDeque::new(); n_fifos],
            fifo_pushes: 0,
            fifo_pops: 0,
            fifo_high_water: 0,
            cfg,
            cycles: 0,
            verified: false,
            certificate: None,
            certified: false,
            trace: None,
        }
    }

    /// Resets all dynamic state — per-PE registers, scratchpads, program
    /// counters and statistics, plus the array's ports, FIFOs, input
    /// stream, output sink, cycle counter and trace buffer — while keeping
    /// the loaded programs, their decoded forms and the verification
    /// status. One loaded array can thus execute many tasks without
    /// re-paying program lowering or static verification; this is the
    /// amortized hot path the decoded engine is built around.
    pub fn reset(&mut self) {
        for pe in &mut self.pes {
            pe.reset();
        }
        self.ports.fill(None);
        self.in_stream.clear();
        self.out_sink.clear();
        for fifo in &mut self.fifos {
            fifo.clear();
        }
        self.fifo_pushes = 0;
        self.fifo_pops = 0;
        self.fifo_high_water = 0;
        self.cycles = 0;
        if let Some(trace) = &mut self.trace {
            trace.clear();
        }
    }

    /// Enables execution tracing with a bounded event buffer.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Trace::with_capacity(capacity));
    }

    /// The recorded trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
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
    /// certificate, so every PE falls back to the checked access path
    /// until the gate runs again.
    fn invalidate_verification(&mut self) {
        self.verified = false;
        self.certified = false;
        self.certificate = None;
        for pe in &mut self.pes {
            pe.set_unchecked(false);
        }
    }

    /// Appends words to the input stream feeding the first PE.
    pub fn feed_input(&mut self, words: impl IntoIterator<Item = Word>) {
        self.in_stream.extend(words);
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
        &self.out_sink
    }

    /// Words still waiting in the input stream.
    pub fn pending_input(&self) -> usize {
        self.in_stream.len()
    }

    /// Statically verifies the loaded programs against this array's
    /// configuration. Returns the full report (including warnings); the
    /// pre-run gate in [`run`](Self::run) only rejects on errors.
    pub fn verify_programs(&self) -> gendp_verify::Report {
        self.certify_programs().0
    }

    /// Statically verifies the loaded programs and keeps the proofs: the
    /// returned [`Certificate`](gendp_verify::Certificate) carries the
    /// bounds proofs, the static cycle model and the FIFO/footprint
    /// bounds the fixpoint established alongside the diagnostics.
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
    /// [`run`](Self::run): verifies and certifies the loaded programs,
    /// and switches the PEs to the certified-unchecked access path when
    /// the certificate allows it. Idempotent until the next `load_*`.
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
        // The unchecked path is legal only when the tier policy admits it,
        // the certificate proves every access in bounds AND the decoded
        // engine can execute every instruction natively (the interpreter
        // fallback re-checks at the assembly level, which is exactly what
        // certification removes).
        self.certified = self.cfg.certify
            && cert.safe()
            && self.cfg.tiers.admits(Tier::DecodedCertified)
            && self.cfg.tiers.sim_engine() == Engine::Decoded
            && self.pes.iter().all(|pe| !pe.decoded_has_interp());
        self.certificate = Some(cert);
        for pe in &mut self.pes {
            pe.set_unchecked(self.certified);
        }
        Ok(())
    }

    /// The certificate produced by the verification gate, once it has
    /// run ([`run`](Self::run) or [`ensure_verified`](Self::ensure_verified)).
    pub fn certificate(&self) -> Option<&gendp_verify::Certificate> {
        self.certificate.as_ref()
    }

    /// True when the array is executing through the certified-unchecked
    /// decoded access path.
    pub fn is_certified(&self) -> bool {
        self.certified
    }

    /// The execution tier this array resolves to under its
    /// [`TierPolicy`](crate::TierPolicy), once verification has run. A raw
    /// array can only simulate, so [`Tier::Functional`] never resolves
    /// here — a functional request degrades along the chain (kernel
    /// drivers in `gendp-core` intercept the functional tier above the
    /// array level).
    pub fn resolved_tier(&self) -> Tier {
        if self.certified {
            Tier::DecodedCertified
        } else if self.cfg.tiers.sim_engine() == Engine::Interpreted {
            Tier::Interpreted
        } else {
            Tier::Decoded
        }
    }

    /// Drops the array back to the bounds-checked access path and keeps
    /// it there (equivalent to [`PeArrayConfig::no_certify`], applied
    /// after construction). Verification and the certificate itself are
    /// untouched; only the execution path downgrade is sticky, so A/B
    /// measurements can run checked and unchecked from the same loaded
    /// programs.
    pub fn force_checked(&mut self) {
        self.cfg.certify = false;
        self.certified = false;
        for pe in &mut self.pes {
            pe.set_unchecked(false);
        }
    }

    /// Runs until every control and compute thread has halted.
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
        let resolved = self.resolved_tier();
        if self.cfg.tiers.is_strict() && resolved != self.cfg.tiers.requested() {
            return Err(SimError::TierUnavailable {
                requested: self.cfg.tiers.requested(),
                available: resolved,
            });
        }
        let n = self.cfg.n_pes;
        while !self.pes.iter().all(Pe::is_halted) {
            if self.cycles >= max_cycles {
                return Err(SimError::Timeout { max_cycles });
            }
            let mut progressed = false;

            // Input data buffer feeds the first PE's port.
            if self.ports[0].is_none() {
                if let Some(w) = self.in_stream.pop_front() {
                    self.ports[0] = Some(w);
                }
            }

            // Control threads, first PE to last: a word written to the next
            // port this cycle is visible to the next PE in the same cycle
            // (the paper's single-cycle neighbor move, Fig. 8).
            let broadcast = self.cfg.fifo_broadcast;
            for k in 0..n {
                let fifo_idx = if broadcast { k } else { 0 };
                let ext = ExtView {
                    in_avail: self.ports[k],
                    out_free: if k + 1 < n {
                        self.ports[k + 1].is_none()
                    } else {
                        true // output data buffer never back-pressures
                    },
                    fifo_front: if broadcast || k == 0 {
                        self.fifos[fifo_idx].front().copied()
                    } else {
                        None
                    },
                    fifo_has_space: self.fifos.iter().all(|f| f.len() < self.cfg.fifo_capacity),
                    may_pop_fifo: broadcast || k == 0,
                    may_push_fifo: k == n - 1,
                };
                let peek = if self.trace.is_some() {
                    self.pes[k].ctrl_peek()
                } else {
                    None
                };
                let (progress, eff) = self.pes[k].step_ctrl(&ext)?;
                if let Some(tr) = &mut self.trace {
                    match (progress, peek) {
                        (Progress::Advanced, Some((pc, text))) => tr.record(TraceEvent::Ctrl {
                            cycle: self.cycles,
                            pe: k,
                            pc,
                            text,
                        }),
                        (Progress::Stalled, Some((pc, _))) => tr.record(TraceEvent::Stall {
                            cycle: self.cycles,
                            pe: k,
                            pc,
                        }),
                        (Progress::Halted, Some(_)) => {
                            tr.record(TraceEvent::Halt {
                                cycle: self.cycles,
                                pe: k,
                            });
                        }
                        _ => {}
                    }
                }
                if progress == Progress::Advanced {
                    progressed = true;
                }
                if eff.consumed_in {
                    self.ports[k] = None;
                }
                if eff.popped_fifo {
                    self.fifos[fifo_idx].pop_front();
                    self.fifo_pops += 1;
                }
                if let Some(w) = eff.wrote_out {
                    if k + 1 < n {
                        debug_assert!(self.ports[k + 1].is_none());
                        self.ports[k + 1] = Some(w);
                    } else {
                        self.out_sink.push(w);
                    }
                }
                if let Some(w) = eff.pushed_fifo {
                    for f in &mut self.fifos {
                        f.push_back(w);
                        self.fifo_high_water = self.fifo_high_water.max(f.len());
                    }
                    self.fifo_pushes += 1;
                }
            }

            // Compute threads.
            for k in 0..n {
                let pc = self.pes[k].compute_peek();
                if self.pes[k].step_compute()? {
                    progressed = true;
                    if let (Some(tr), Some(pc)) = (&mut self.trace, pc) {
                        tr.record(TraceEvent::Compute {
                            cycle: self.cycles,
                            pe: k,
                            pc,
                        });
                    }
                }
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
        Ok(self.stats())
    }

    /// Current statistics snapshot, stamped with the resolved tier.
    /// Simulated cycles are always exact.
    pub fn stats(&self) -> RunStats {
        RunStats {
            cycles: self.cycles,
            fifo_pushes: self.fifo_pushes,
            fifo_pops: self.fifo_pops,
            fifo_high_water: self.fifo_high_water,
            per_pe: self.pes.iter().map(|p| p.stats).collect(),
            tier: self.resolved_tier(),
            cycles_estimated: false,
        }
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
mod trace_tests {
    use super::*;
    use crate::trace::TraceEvent;

    #[test]
    fn trace_records_ctrl_stall_and_halt() {
        let mut a = PeArray::new(PeArrayConfig::with_pes(1));
        a.enable_trace(64);
        a.load_pe_control(0, "mv rf[0] in\nhalt".parse::<ControlProgram>().unwrap());
        a.feed_input([Word::from_i32(5)]);
        a.run(100).unwrap();
        let trace = a.trace().unwrap();
        assert!(trace
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::Ctrl { text, .. } if text.contains("mv rf[0] in"))));
        assert!(trace
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::Halt { .. })));
        assert!(!trace.to_string().is_empty());
    }

    #[test]
    fn trace_is_bounded() {
        let mut a = PeArray::new(PeArrayConfig::with_pes(1));
        a.enable_trace(3);
        let prog: gendp_isa::ControlProgram =
            "li a[0] 0\nli a[1] 100\naddi a0 a0 1\nblt a0 a1 -1\nhalt"
                .parse()
                .unwrap();
        a.load_pe_control(0, prog);
        a.run(10_000).unwrap();
        let trace = a.trace().unwrap();
        assert_eq!(trace.events().len(), 3);
        assert!(trace.dropped() > 0);
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
