//! The unified accelerator front door: every dependency-pattern driver
//! ([`Wavefront2d`], [`ChainAccelerator`], [`PoaAccelerator`],
//! [`BellmanFordAccelerator`]) implements one [`Accelerator`] trait with a
//! common lifecycle — **configure → prepare → bind → execute → parse** —
//! so callers (the `gendp-runtime` device, the benchmark harness) can
//! drive any kernel through one code path.
//!
//! * [`AccelConfig`] carries the driver-independent knobs: the cycle-budget
//!   multiplier and the execution [`TierPolicy`].
//! * A driver's task type (e.g. [`WavefrontTask`]) is a plain borrow of the
//!   per-task inputs, so a batch of tasks can be swept without cloning
//!   sequences.
//! * [`Accelerator::prepare`] builds a [`PreparedTask`] for a task's
//!   *shape* and binds the task's content into it;
//!   [`Accelerator::bind`] rebinds another same-shape task's content into
//!   it, which is how a kept template serves the next task without
//!   regenerating, decoding or re-verifying a single program.
//! * [`TaskOutput`] gives uniform access to the run statistics of any
//!   driver's functional output, and [`Accelerator::report`] summarizes
//!   them into the paper's units ([`AcceleratorRun`]).

use gendp_dpax::{PeArray, RunStats, SimError, Tier, TierPolicy};
use gendp_dpmap::Mapping;
use gendp_isa::{ControlProgram, Word};
use gendp_kernels::bellman_ford::Graph;
use gendp_kernels::poa::Poa;
use gendp_seq::{Anchor, DnaSeq};

use crate::functional::FunctionalPlan;
use crate::graph2d::{PoaAccelerator, PoaRun};
use crate::linear1d::{ChainAccelerator, ChainRun};
use crate::pipeline::AcceleratorRun;
use crate::spm1d::{BellmanFordAccelerator, BellmanFordRun};
use crate::wavefront2d::{Wavefront2d, Wavefront2dOutput};

/// Driver-independent configuration applied by [`Accelerator::configure`]:
/// the retry-escalation budget multiplier and the execution-tier policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccelConfig {
    /// Multiplier on the internally derived cycle budget (a cutoff only;
    /// never a result change). Must be positive.
    pub budget_scale: u64,
    /// Execution-tier selection for task runs.
    pub tiers: TierPolicy,
}

impl Default for AccelConfig {
    fn default() -> Self {
        AccelConfig {
            budget_scale: 1,
            tiers: TierPolicy::default(),
        }
    }
}

impl AccelConfig {
    /// The default configuration (budget scale 1, default tier policy).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the budget multiplier, returning `self` for chaining.
    pub fn budget_scale(mut self, scale: u64) -> Self {
        self.budget_scale = scale;
        self
    }

    /// Sets the execution-tier policy, returning `self` for chaining.
    pub fn tiers(mut self, tiers: TierPolicy) -> Self {
        self.tiers = tiers;
        self
    }
}

/// Uniform access to the simulator statistics of any driver's functional
/// output.
pub trait TaskOutput {
    /// The statistics of the run that produced this output.
    fn stats(&self) -> &RunStats;
}

impl TaskOutput for Wavefront2dOutput {
    fn stats(&self) -> &RunStats {
        &self.stats
    }
}

impl TaskOutput for ChainRun {
    fn stats(&self) -> &RunStats {
        &self.stats
    }
}

impl TaskOutput for PoaRun {
    fn stats(&self) -> &RunStats {
        &self.stats
    }
}

impl TaskOutput for BellmanFordRun {
    fn stats(&self) -> &RunStats {
        &self.stats
    }
}

/// Band restriction of a [`WavefrontTask`] (banded DTW and friends).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BandSpec {
    /// Band width in cells per row.
    pub width: usize,
    /// Sentinel streamed outside the band (must lose every select).
    pub sentinel: i32,
}

/// One 2-D wavefront task: the row/column input streams, the array width,
/// and an optional band.
#[derive(Debug, Clone, Copy)]
pub struct WavefrontTask<'a> {
    /// Per-row values (e.g. target codes).
    pub rows: &'a [i32],
    /// Per-column values (e.g. query codes).
    pub cols: &'a [i32],
    /// PEs in the simulated array.
    pub n_pes: usize,
    /// Banded execution, when set (drain-only configurations).
    pub band: Option<BandSpec>,
}

/// One chaining task: the anchor run and the array width (= window).
#[derive(Debug, Clone, Copy)]
pub struct ChainTask<'a> {
    /// Sorted anchors.
    pub anchors: &'a [Anchor],
    /// PEs in the simulated array (the chaining window).
    pub n_pes: usize,
}

/// One POA task: graph, probe sequence and array width.
#[derive(Debug, Clone, Copy)]
pub struct PoaTask<'a> {
    /// The partial-order graph to align against.
    pub graph: &'a Poa,
    /// The probe sequence.
    pub seq: &'a DnaSeq,
    /// PEs in the simulated array.
    pub n_pes: usize,
}

/// One Bellman-Ford task: graph, source vertex and relaxation rounds.
#[derive(Debug, Clone, Copy)]
pub struct BellmanFordTask<'a> {
    /// The edge-list graph.
    pub graph: &'a Graph,
    /// Source vertex.
    pub source: usize,
    /// Relaxation sweeps to run.
    pub rounds: usize,
}

/// One task bound to a loaded array: control programs generated, lowered
/// to their decoded forms, loaded and certified, content staged, cycle
/// budget derived — all the one-time work of [`Accelerator::run_task`].
/// [`execute`](Self::execute) then replays the task from a clean
/// architectural state as often as wanted, paying only the execution
/// itself.
///
/// The programs of the shape-only drivers ([`Wavefront2d`] and
/// [`ChainAccelerator`]) depend on the task's shape alone; its content —
/// the input stream and each PE's scratchpad image — is staged here
/// separately, written after every reset like the data buffers a host
/// fills. [`Accelerator::bind`] swaps in the content of another task of
/// the same shape, so one prepared task serves a stream of them.
///
/// `run_task` is exactly [`Accelerator::prepare`] + one `execute` +
/// [`Accelerator::parse`], so a prepared execution is bit- and
/// cycle-identical to the one-shot path.
pub struct PreparedTask {
    array: PeArray,
    /// Words fed to the first PE's input port on every execution.
    pub(crate) inputs: Vec<Word>,
    /// Per-PE scratchpad images written after every reset (row characters
    /// and band windows); empty when the programs read none.
    pub(crate) spm: Vec<Vec<Word>>,
    /// Cycle budget at scale 1.
    budget: u64,
    budget_scale: u64,
    /// Functional lowering of the task, present only when the driver built
    /// one (the policy requested [`Tier::Functional`] and the pattern
    /// supports the batched sweep).
    pub(crate) plan: Option<FunctionalPlan>,
    /// Whether the most recent `execute` ran the functional tier (routes
    /// `output()` to the plan's buffer instead of the array's).
    functional_ran: bool,
}

impl PreparedTask {
    /// Wraps a loaded array with no content staged and budget scale 1.
    pub(crate) fn new(mut array: PeArray, budget: u64, plan: Option<FunctionalPlan>) -> Self {
        // Run the verification gate eagerly so the certificate — cycle
        // bounds, certified DP-cell cost, safety — is readable *before*
        // the first execution (schedulers admit on it). A verification
        // failure is deferred: `execute` re-runs the gate and reports it
        // exactly as the one-shot path always has.
        let _ = array.ensure_verified();
        PreparedTask {
            array,
            inputs: Vec::new(),
            spm: Vec::new(),
            budget,
            budget_scale: 1,
            plan,
            functional_ran: false,
        }
    }

    /// PEs in the loaded array.
    pub(crate) fn n_pes(&self) -> usize {
        self.array.config().n_pes
    }

    /// True when `execute` will take the functional fast path: the driver
    /// lowered a plan, the policy requested the functional tier, and the
    /// certificate proved the programs safe.
    fn functional_available(&self) -> bool {
        self.plan.is_some()
            && self.array.config().tiers.requested() == Tier::Functional
            && self.array.certificate().is_some_and(|c| c.safe())
    }

    /// The execution tier `execute` resolves to under the configured
    /// [`TierPolicy`], after fallback.
    pub fn resolved_tier(&self) -> Tier {
        if self.functional_available() {
            Tier::Functional
        } else {
            self.array.resolved_tier()
        }
    }

    /// The safety/cost certificate of the loaded programs, once the
    /// verification gate has run (always, except under `no_verify`).
    pub fn certificate(&self) -> Option<&gendp_verify::Certificate> {
        self.array.certificate()
    }

    /// True when executions run the certified-unchecked decoded access
    /// path (the certificate proved every access in bounds).
    pub fn is_certified(&self) -> bool {
        self.array.is_certified()
    }

    /// The control programs loaded into the array, one per PE.
    pub fn control_programs(&self) -> impl Iterator<Item = &ControlProgram> {
        (0..self.n_pes()).map(|pe| self.array.control_program(pe))
    }

    /// Control instructions resident in the loaded array, summed over its
    /// PEs (the instruction-buffer footprint of paper Table 7).
    pub fn control_len(&self) -> usize {
        self.control_programs().map(ControlProgram::len).sum()
    }

    /// Pins executions to the bounds-checked access path even though the
    /// certificate may allow the unchecked one. The certificate stays
    /// readable; only the path downgrade is sticky. This is how
    /// `bench-kernels` measures checked against certified-unchecked from
    /// the same prepared task. The functional fast path is also disabled —
    /// it has no bounds-checked variant to pin to.
    pub fn force_checked(&mut self) {
        self.plan = None;
        self.array.force_checked();
    }

    /// Executes the task once under the configured [`TierPolicy`].
    ///
    /// On the functional tier this replays the prepared lowering directly
    /// — batched wavefront loops over flat buffers, no per-cycle
    /// simulation — with cycles reported from the certificate's analytic
    /// model. On the simulated tiers it resets the array's architectural
    /// state, stages the scratchpad images, feeds the input stream and
    /// runs to completion.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors ([`SimError`]), exactly as
    /// [`Accelerator::run_task`] does. A strict policy whose requested
    /// tier is unavailable fails with [`SimError::TierUnavailable`].
    pub fn execute(&mut self) -> Result<RunStats, SimError> {
        if self.functional_available() {
            self.functional_ran = true;
            // Disjoint borrows: the certificate lives on the array, the
            // plan's execute mutates only the plan.
            let cert = self.array.certificate();
            let plan = self.plan.as_mut().expect("functional_available checked");
            return Ok(plan.execute(cert));
        }
        let tiers = self.array.config().tiers;
        if tiers.is_strict() && tiers.requested() == Tier::Functional {
            return Err(SimError::TierUnavailable {
                requested: Tier::Functional,
                available: self.array.resolved_tier(),
            });
        }
        self.functional_ran = false;
        self.array.reset();
        for (pe, image) in self.spm.iter().enumerate() {
            self.array.stage_spm(pe, image);
        }
        self.array.feed_input(self.inputs.iter().copied());
        self.array.run(self.budget())
    }

    /// The output words of the most recent [`execute`](Self::execute).
    pub fn output(&self) -> &[Word] {
        if self.functional_ran {
            self.plan.as_ref().expect("functional ran").output()
        } else {
            self.array.output()
        }
    }

    /// The derived cycle budget an execution runs under.
    pub fn budget(&self) -> u64 {
        self.budget.saturating_mul(self.budget_scale)
    }

    /// Multiplies the derived cycle budget by `scale` for the following
    /// executions (retry escalation after a [`SimError::Timeout`]). The
    /// budget is only a cutoff: a run that completes produces identical
    /// results and cycle counts at any scale.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is zero.
    pub fn set_budget_scale(&mut self, scale: u64) {
        assert!(scale > 0, "budget scale must be positive");
        self.budget_scale = scale;
    }
}

/// The common lifecycle of every GenDP dependency-pattern driver:
/// **configure → prepare → bind → execute → parse**.
///
/// Implementations are self-contained per task — running a task mutates no
/// driver state — which is what makes batch runs deterministic under any
/// worker count.
pub trait Accelerator {
    /// The per-task input bundle (a borrow; tasks are cheap to copy).
    type Task<'a>;
    /// The functional output of one task.
    type Output: TaskOutput;

    /// Stable driver name (the dependency pattern it implements).
    fn name(&self) -> &'static str;

    /// Applies driver-independent configuration, returning `self` for
    /// chaining.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.budget_scale` is zero.
    fn configure(self, cfg: AccelConfig) -> Self;

    /// The DPMap result for the objective function (register-file layout
    /// and compute program).
    fn mapping(&self) -> &Mapping;

    /// Statically verifies the programs generated for one task shape,
    /// without running them.
    fn verify_task(&self, task: &Self::Task<'_>) -> gendp_verify::Report;

    /// Prepares one task for repeated [`PreparedTask::execute`] replays
    /// that pay only execution: builds, decodes, loads and certifies the
    /// programs for the task's shape, then [`bind`](Self::bind)s its
    /// content.
    fn prepare(&self, task: &Self::Task<'_>) -> PreparedTask;

    /// Binds `task`'s content into `prep`, which this driver (or one built
    /// and configured identically) prepared for a task of the same shape.
    /// Afterwards `prep` executes exactly as `self.prepare(task)` would.
    /// The shape-only drivers restage inputs and keep the programs,
    /// decoded forms and certificate; a driver whose programs follow the
    /// content (POA, Bellman-Ford: the graph) prepares afresh.
    fn bind(&self, prep: &mut PreparedTask, task: &Self::Task<'_>);

    /// Parses the output of `prep`'s latest execution of `task`, whose
    /// statistics are `stats`.
    fn parse(&self, task: &Self::Task<'_>, prep: &PreparedTask, stats: RunStats) -> Self::Output;

    /// Runs one task: [`prepare`](Self::prepare), one
    /// [`PreparedTask::execute`], [`parse`](Self::parse).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors ([`SimError`]).
    fn run_task(&self, task: &Self::Task<'_>) -> Result<Self::Output, SimError> {
        let mut prep = self.prepare(task);
        let stats = prep.execute()?;
        Ok(self.parse(task, &prep, stats))
    }

    /// Summarizes one task's output in the paper's units.
    fn report(output: &Self::Output) -> AcceleratorRun {
        AcceleratorRun::from_stats(output.stats())
    }
}

impl Accelerator for Wavefront2d {
    type Task<'a> = WavefrontTask<'a>;
    type Output = Wavefront2dOutput;

    fn name(&self) -> &'static str {
        "wavefront2d"
    }

    fn configure(self, cfg: AccelConfig) -> Self {
        self.budget_scale(cfg.budget_scale).tiers(cfg.tiers)
    }

    fn mapping(&self) -> &Mapping {
        Wavefront2d::mapping(self)
    }

    fn verify_task(&self, task: &WavefrontTask<'_>) -> gendp_verify::Report {
        match task.band {
            Some(band) => {
                self.verify_banded(task.rows, task.cols, band.width, band.sentinel, task.n_pes)
            }
            None => self.verify(task.rows, task.cols, task.n_pes),
        }
    }

    fn prepare(&self, task: &WavefrontTask<'_>) -> PreparedTask {
        assert!(
            !task.rows.is_empty() && !task.cols.is_empty(),
            "empty table"
        );
        assert!(
            task.band.is_none_or(|b| b.width > 0),
            "band width must be positive"
        );
        let band = task.band.map(|b| b.width);
        let mut prep = self.template(task.rows.len(), task.cols.len(), band, task.n_pes);
        Wavefront2d::bind(self, &mut prep, task);
        prep
    }

    fn bind(&self, prep: &mut PreparedTask, task: &WavefrontTask<'_>) {
        Wavefront2d::bind(self, prep, task);
    }

    fn parse(
        &self,
        task: &WavefrontTask<'_>,
        prep: &PreparedTask,
        stats: RunStats,
    ) -> Wavefront2dOutput {
        let active_pes = task.n_pes.min(task.rows.len());
        self.parse_output(task.cols.len(), active_pes, prep.output(), stats)
    }
}

impl Accelerator for ChainAccelerator {
    type Task<'a> = ChainTask<'a>;
    type Output = ChainRun;

    fn name(&self) -> &'static str {
        "linear1d"
    }

    fn configure(self, cfg: AccelConfig) -> Self {
        self.budget_scale(cfg.budget_scale).tiers(cfg.tiers)
    }

    fn mapping(&self) -> &Mapping {
        ChainAccelerator::mapping(self)
    }

    fn verify_task(&self, task: &ChainTask<'_>) -> gendp_verify::Report {
        self.verify(task.anchors.len(), task.n_pes)
    }

    fn prepare(&self, task: &ChainTask<'_>) -> PreparedTask {
        ChainAccelerator::prepare(self, task.anchors, task.n_pes)
    }

    fn bind(&self, prep: &mut PreparedTask, task: &ChainTask<'_>) {
        ChainAccelerator::bind(self, prep, task.anchors);
    }

    fn parse(&self, _task: &ChainTask<'_>, prep: &PreparedTask, stats: RunStats) -> ChainRun {
        ChainRun {
            scores: prep.output().iter().map(|w| w.as_i32()).collect(),
            stats,
        }
    }
}

impl Accelerator for PoaAccelerator {
    type Task<'a> = PoaTask<'a>;
    type Output = PoaRun;

    fn name(&self) -> &'static str {
        "graph2d"
    }

    fn configure(self, cfg: AccelConfig) -> Self {
        self.budget_scale(cfg.budget_scale).tiers(cfg.tiers)
    }

    fn mapping(&self) -> &Mapping {
        PoaAccelerator::mapping(self)
    }

    fn verify_task(&self, task: &PoaTask<'_>) -> gendp_verify::Report {
        self.verify(task.graph, task.seq.len(), task.n_pes)
    }

    fn prepare(&self, task: &PoaTask<'_>) -> PreparedTask {
        PoaAccelerator::prepare(self, task.graph, task.seq, task.n_pes)
    }

    fn bind(&self, prep: &mut PreparedTask, task: &PoaTask<'_>) {
        *prep = Accelerator::prepare(self, task);
    }

    fn parse(&self, _task: &PoaTask<'_>, prep: &PreparedTask, stats: RunStats) -> PoaRun {
        let score = prep
            .output()
            .iter()
            .map(|w| w.as_i32())
            .max()
            .expect("at least one end node");
        PoaRun { score, stats }
    }
}

impl Accelerator for BellmanFordAccelerator {
    type Task<'a> = BellmanFordTask<'a>;
    type Output = BellmanFordRun;

    fn name(&self) -> &'static str {
        "spm1d"
    }

    fn configure(self, cfg: AccelConfig) -> Self {
        self.budget_scale(cfg.budget_scale).tiers(cfg.tiers)
    }

    fn mapping(&self) -> &Mapping {
        BellmanFordAccelerator::mapping(self)
    }

    fn verify_task(&self, task: &BellmanFordTask<'_>) -> gendp_verify::Report {
        self.verify(task.graph, task.source, task.rounds)
    }

    fn prepare(&self, task: &BellmanFordTask<'_>) -> PreparedTask {
        BellmanFordAccelerator::prepare(self, task.graph, task.source, task.rounds)
    }

    fn bind(&self, prep: &mut PreparedTask, task: &BellmanFordTask<'_>) {
        *prep = Accelerator::prepare(self, task);
    }

    fn parse(
        &self,
        _task: &BellmanFordTask<'_>,
        prep: &PreparedTask,
        stats: RunStats,
    ) -> BellmanFordRun {
        BellmanFordRun {
            dist: prep.output().iter().map(|x| x.as_i32()).collect(),
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{bsw_score, GendpPipeline};
    use gendp_kernels::{bsw_i32, AlignMode, Scoring};
    use rand::{rngs::SmallRng, SeedableRng};

    fn bsw_inputs() -> (DnaSeq, DnaSeq) {
        let mut rng = SmallRng::seed_from_u64(41);
        let q = DnaSeq::random(12, &mut rng);
        let t = DnaSeq::random(16, &mut rng);
        (q, t)
    }

    #[test]
    fn trait_lifecycle_matches_inherent_calls() {
        let scoring = Scoring::bwa_mem();
        let (q, t) = bsw_inputs();
        let rows: Vec<i32> = t.codes().iter().map(|&c| c as i32).collect();
        let cols: Vec<i32> = q.codes().iter().map(|&c| c as i32).collect();
        let accel = GendpPipeline::bsw(&scoring).configure(AccelConfig::new());
        assert_eq!(Accelerator::name(&accel), "wavefront2d");
        let task = WavefrontTask {
            rows: &rows,
            cols: &cols,
            n_pes: 4,
            band: None,
        };
        assert!(accel.verify_task(&task).is_clean());
        let out = accel.run_task(&task).expect("simulation");
        let expect = bsw_i32(&q, &t, &scoring, 1000, AlignMode::Local);
        assert_eq!(bsw_score(&out), expect.score);
        let report = Wavefront2d::report(&out);
        assert_eq!(report.cells, out.stats().cells());
        assert!(report.cells_per_cycle() > 0.0);
    }

    #[test]
    fn configure_selects_engine_without_changing_results() {
        let scoring = Scoring::bwa_mem();
        let (q, t) = bsw_inputs();
        let rows: Vec<i32> = t.codes().iter().map(|&c| c as i32).collect();
        let cols: Vec<i32> = q.codes().iter().map(|&c| c as i32).collect();
        let task = WavefrontTask {
            rows: &rows,
            cols: &cols,
            n_pes: 4,
            band: None,
        };
        let decoded = GendpPipeline::bsw(&scoring)
            .configure(AccelConfig::new().tiers(TierPolicy::decoded()))
            .run_task(&task)
            .expect("decoded");
        let interp = GendpPipeline::bsw(&scoring)
            .configure(AccelConfig::new().tiers(TierPolicy::interpreted()))
            .run_task(&task)
            .expect("interpreted");
        assert_eq!(decoded.last_row, interp.last_row);
        assert_eq!(decoded.stats, interp.stats);
    }

    #[test]
    fn prepared_execution_replays_bit_identically() {
        let scoring = Scoring::bwa_mem();
        let (q, t) = bsw_inputs();
        let rows: Vec<i32> = t.codes().iter().map(|&c| c as i32).collect();
        let cols: Vec<i32> = q.codes().iter().map(|&c| c as i32).collect();
        let task = WavefrontTask {
            rows: &rows,
            cols: &cols,
            n_pes: 4,
            band: None,
        };
        let accel = GendpPipeline::bsw(&scoring);
        let oneshot = accel.run_task(&task).expect("one-shot run");

        let mut prep = Accelerator::prepare(&accel, &task);
        let first = prep.execute().expect("first execution");
        let first_out: Vec<_> = prep.output().to_vec();
        assert_eq!(&first, oneshot.stats(), "prepared != one-shot stats");

        // A replay starts from a clean architectural state: identical
        // statistics and identical output words.
        let second = prep.execute().expect("replayed execution");
        assert_eq!(first, second, "replay diverged from first execution");
        assert_eq!(first_out, prep.output(), "replay output diverged");
    }

    #[test]
    fn every_driver_reports_through_the_same_trait() {
        let bf = GendpPipeline::bellman_ford();
        assert_eq!(Accelerator::name(&bf), "spm1d");
        let mut graph = Graph::new(3);
        graph.add_edge(0, 1, 5);
        graph.add_edge(1, 2, 2);
        let task = BellmanFordTask {
            graph: &graph,
            source: 0,
            rounds: 2,
        };
        assert!(bf.verify_task(&task).is_clean());
        let run = bf.run_task(&task).expect("simulation");
        assert_eq!(run.dist, vec![0, 5, 7]);
        let report = BellmanFordAccelerator::report(&run);
        assert_eq!(report.cycles, run.stats().cycles);
    }
}
