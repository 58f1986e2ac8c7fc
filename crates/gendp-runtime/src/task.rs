//! Typed device tasks: one enum variant per evaluated accelerator, and
//! their one lowering onto the accelerator drivers ([`Task::lower`]).

use gendp_core::graph2d::PoaRun;
use gendp_core::linear1d::ChainRun;
use gendp_core::spm1d::BellmanFordRun;
use gendp_core::{
    bsw_score, bsw_semiglobal_score, bsw_simd_scores, dtw_banded_distance, pack_lanes,
    pairhmm_float_lik, pairhmm_loglik, AccelConfig, Accelerator, BandSpec, BellmanFordTask,
    ChainTask, GendpPipeline, PoaTask, TaskOutput, Wavefront2d, Wavefront2dOutput, WavefrontTask,
};
use gendp_dpax::{RunStats, SimError};
use gendp_kernels::chain::ChainParams;
use gendp_kernels::dfgs::pairhmm_luts;
use gendp_kernels::pairhmm::PairHmmParams;
use gendp_kernels::poa::Poa;
use gendp_kernels::{bellman_ford::Graph, AlignMode, GapModel, Scoring};
use gendp_seq::{Anchor, DnaSeq};

/// Band sentinel for banded DTW: far above any real banded distance, so
/// out-of-band neighbours never win a `min`.
pub const DTW_BAND_SENTINEL: i32 = 1 << 20;

/// Which physical array class a task occupies (paper Fig. 4: 16 integer
/// PE arrays plus one floating-point array).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrayClass {
    /// One of the integer PE arrays.
    Int,
    /// The single floating-point PE array.
    Float,
}

/// Kernel identity of a task, for per-kernel accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KernelKind {
    /// Banded Smith-Waterman family (local / global / semi-global /
    /// convex), scalar 32-bit.
    Bsw,
    /// 8-bit SIMD BSW: four lane-packed pairs per run.
    BswSimd,
    /// Fixed-point log-space PairHMM forward.
    PairHmm,
    /// Single-precision PairHMM forward (FP array).
    PairHmmFloat,
    /// Full dynamic time warping.
    Dtw,
    /// Banded dynamic time warping.
    DtwBanded,
    /// Minimap2-style anchor chaining.
    Chain,
    /// Partial-order alignment of a probe against a POA graph.
    Poa,
    /// Bellman-Ford relaxation rounds.
    BellmanFord,
}

impl KernelKind {
    /// The array class this kernel runs on.
    pub fn array_class(self) -> ArrayClass {
        match self {
            KernelKind::PairHmmFloat => ArrayClass::Float,
            _ => ArrayClass::Int,
        }
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Bsw => "bsw",
            KernelKind::BswSimd => "bsw-simd",
            KernelKind::PairHmm => "pairhmm",
            KernelKind::PairHmmFloat => "pairhmm-f32",
            KernelKind::Dtw => "dtw",
            KernelKind::DtwBanded => "dtw-banded",
            KernelKind::Chain => "chain",
            KernelKind::Poa => "poa",
            KernelKind::BellmanFord => "bellman-ford",
        }
    }

    /// SIMD lane factor for throughput accounting (paper §7.2: lane cells
    /// count toward GCUPS).
    pub fn simd_lanes(self) -> usize {
        match self {
            KernelKind::BswSimd => 4,
            _ => 1,
        }
    }
}

/// One unit of device work: owned inputs plus a fully specified kernel
/// configuration. Executing a task is self-contained — the cycle-level
/// simulation touches no shared state — which is what makes batch results
/// deterministic under any placement or worker count.
#[derive(Debug, Clone)]
pub enum Task {
    /// Scalar BSW in any alignment mode; convex gap scoring switches to
    /// the two-piece accelerator automatically.
    Bsw {
        /// Query sequence (DP columns).
        query: DnaSeq,
        /// Target sequence (DP rows).
        target: DnaSeq,
        /// Match/mismatch/gap model.
        scoring: Scoring,
        /// Local, global, or semi-global.
        mode: AlignMode,
    },
    /// 8-bit SIMD BSW over exactly four lane-packed (query, target) pairs.
    BswSimd {
        /// The four (query, target) pairs, one per lane.
        pairs: Vec<(DnaSeq, DnaSeq)>,
        /// Shared scoring for all lanes.
        scoring: Scoring,
    },
    /// Fixed-point log-space PairHMM forward.
    PairHmm {
        /// The read (DP rows).
        read: DnaSeq,
        /// The haplotype (DP columns).
        haplotype: DnaSeq,
        /// Uniform per-base Phred quality.
        qual: u8,
        /// Fixed-point scale.
        scale: i32,
        /// Transition probabilities.
        params: PairHmmParams,
    },
    /// Single-precision PairHMM forward, routed to the FP array.
    PairHmmFloat {
        /// The read (DP rows).
        read: DnaSeq,
        /// The haplotype (DP columns).
        haplotype: DnaSeq,
        /// Uniform per-base Phred quality.
        qual: u8,
        /// Transition probabilities.
        params: PairHmmParams,
    },
    /// Full DTW between two integer signals.
    Dtw {
        /// Row signal.
        xs: Vec<i32>,
        /// Column signal.
        ys: Vec<i32>,
    },
    /// Banded DTW with an asymmetric band of the given width.
    DtwBanded {
        /// Row signal.
        xs: Vec<i32>,
        /// Column signal; the corner must lie in the band
        /// (`0 <= ys.len() - xs.len() < width`).
        ys: Vec<i32>,
        /// Band width in cells per row.
        width: usize,
    },
    /// Anchor chaining; the accelerator window equals `params.n_prev`.
    Chain {
        /// Sorted anchors.
        anchors: Vec<Anchor>,
        /// Chaining objective; `n_prev` fixes the PE count.
        params: ChainParams,
    },
    /// Align a probe sequence against a partial-order graph.
    Poa {
        /// The graph to align against.
        graph: Poa,
        /// The probe sequence.
        probe: DnaSeq,
        /// Linear-gap scoring.
        scoring: Scoring,
    },
    /// Bellman-Ford relaxation sweeps from a source vertex.
    BellmanFord {
        /// The edge-list graph.
        graph: Graph,
        /// Source vertex.
        source: usize,
        /// Relaxation rounds to run.
        rounds: usize,
    },
}

/// Functional output of one executed [`Task`].
#[derive(Debug, Clone, PartialEq)]
pub enum TaskValue {
    /// Alignment score (BSW family, any mode).
    Score(i32),
    /// Per-lane 8-bit SIMD scores.
    SimdScores(Vec<i8>),
    /// Fixed-point log-likelihood (PairHMM).
    LogLikelihood(i32),
    /// Single-precision likelihood (FP PairHMM).
    Likelihood(f32),
    /// DTW distance (full or banded).
    Distance(i64),
    /// Per-anchor chain scores, in input order.
    ChainScores(Vec<i32>),
    /// Per-vertex distances (Bellman-Ford).
    Distances(Vec<i32>),
}

/// One completed task: its identity, where it ran, its functional value
/// and its simulator statistics.
#[derive(Debug, Clone)]
pub struct TaskResult {
    /// Index of the task in the submitted batch.
    pub id: usize,
    /// Device array slot the task ran on (the last attempt's slot when
    /// retries re-dispatched it).
    pub array: usize,
    /// Host worker that claimed the task (worker 0 is the thread that
    /// called [`Device::run_batch`](crate::Device::run_batch)).
    pub worker: usize,
    /// Kernel identity.
    pub kernel: KernelKind,
    /// Functional output.
    pub value: TaskValue,
    /// Simulator statistics of this task's (successful) run.
    pub stats: RunStats,
    /// Execution attempts this task took (1 = succeeded first try).
    pub attempts: u32,
}

/// Why one task failed for good: every retry attempt the
/// [`RetryPolicy`](crate::RetryPolicy) allowed was spent. Carried
/// per-task in a [`BatchOutcome`](crate::BatchOutcome) — one failed task
/// no longer abandons its batch.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskFailure {
    /// Every attempt ended in a simulator error; the last one is kept.
    Sim {
        /// The final attempt's error.
        error: SimError,
        /// Attempts spent (= the policy's `max_attempts`).
        attempts: u32,
    },
    /// The final attempt panicked on the host worker; the panic was
    /// contained and the worker kept running.
    Panicked {
        /// The panic payload, when it was a string.
        message: String,
        /// Attempts spent.
        attempts: u32,
    },
}

impl TaskFailure {
    /// Attempts spent before giving up.
    pub fn attempts(&self) -> u32 {
        match self {
            TaskFailure::Sim { attempts, .. } | TaskFailure::Panicked { attempts, .. } => *attempts,
        }
    }

    /// The final simulator error, when the failure was one.
    pub fn sim_error(&self) -> Option<&SimError> {
        match self {
            TaskFailure::Sim { error, .. } => Some(error),
            TaskFailure::Panicked { .. } => None,
        }
    }
}

impl std::fmt::Display for TaskFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskFailure::Sim { error, attempts } => {
                write!(f, "{error} (after {attempts} attempts)")
            }
            TaskFailure::Panicked { message, attempts } => {
                write!(f, "task panicked: {message} (after {attempts} attempts)")
            }
        }
    }
}

fn codes(s: &DnaSeq) -> Vec<i32> {
    s.codes().iter().map(|&c| c as i32).collect()
}

/// Certified cost of one task, distilled from the
/// [`Certificate`](gendp_verify::Certificate) its prepared array carries:
/// what a scheduler may charge and promise without running anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CertifiedCost {
    /// Certified DP-cell count (total `set cu` executions): the proven
    /// upper bound on what the run's `stats.cells()` will report.
    pub cost_cells: u64,
    /// Proven lower bound on simulated cycles: no successful run finishes
    /// in fewer. The deadline-infeasibility gate.
    pub cycle_floor: u64,
}

impl CertifiedCost {
    /// Distills a certificate into scheduler-facing numbers; `None` when
    /// the cell cost is unbounded (widened loops around `set cu`).
    pub fn from_certificate(cert: &gendp_verify::Certificate) -> Option<CertifiedCost> {
        Some(CertifiedCost {
            cost_cells: cert.cost_cells()?,
            cycle_floor: cert.cycle_floor(),
        })
    }
}

impl Task {
    /// A local-alignment BSW task (the read-mapping default).
    pub fn bsw_local(query: DnaSeq, target: DnaSeq, scoring: Scoring) -> Task {
        Task::Bsw {
            query,
            target,
            scoring,
            mode: AlignMode::Local,
        }
    }

    /// A global-alignment BSW task.
    pub fn bsw_global(query: DnaSeq, target: DnaSeq, scoring: Scoring) -> Task {
        Task::Bsw {
            query,
            target,
            scoring,
            mode: AlignMode::Global,
        }
    }

    /// An 8-bit SIMD BSW task over exactly four (query, target) pairs.
    ///
    /// # Panics
    ///
    /// Panics unless exactly four pairs are given.
    pub fn bsw_simd(pairs: Vec<(DnaSeq, DnaSeq)>, scoring: Scoring) -> Task {
        assert_eq!(pairs.len(), 4, "SIMD BSW packs exactly 4 lanes");
        Task::BswSimd { pairs, scoring }
    }

    /// A full-DTW task.
    pub fn dtw(xs: Vec<i32>, ys: Vec<i32>) -> Task {
        Task::Dtw { xs, ys }
    }

    /// Kernel identity of this task.
    pub fn kernel(&self) -> KernelKind {
        match self {
            Task::Bsw { .. } => KernelKind::Bsw,
            Task::BswSimd { .. } => KernelKind::BswSimd,
            Task::PairHmm { .. } => KernelKind::PairHmm,
            Task::PairHmmFloat { .. } => KernelKind::PairHmmFloat,
            Task::Dtw { .. } => KernelKind::Dtw,
            Task::DtwBanded { .. } => KernelKind::DtwBanded,
            Task::Chain { .. } => KernelKind::Chain,
            Task::Poa { .. } => KernelKind::Poa,
            Task::BellmanFord { .. } => KernelKind::BellmanFord,
        }
    }

    /// Array class this task must be placed on.
    pub fn array_class(&self) -> ArrayClass {
        self.kernel().array_class()
    }

    /// The DP cells this task's run computes — its `stats.cells()`, one
    /// compute activation each — worked out from its dimensions without
    /// preparing anything: O(1), and O(nodes) for POA. The device's
    /// per-slot load proxy and the service's admission charge.
    pub fn cells_estimate(&self) -> u64 {
        match self {
            Task::Bsw { query, target, .. } => (query.len() * target.len()) as u64,
            Task::BswSimd { pairs, .. } => {
                let q = pairs.iter().map(|(q, _)| q.len()).max().unwrap_or(0);
                let t = pairs.iter().map(|(_, t)| t.len()).max().unwrap_or(0);
                (q * t) as u64
            }
            Task::PairHmm {
                read, haplotype, ..
            }
            | Task::PairHmmFloat {
                read, haplotype, ..
            } => (read.len() * haplotype.len()) as u64,
            Task::Dtw { xs, ys } => (xs.len() * ys.len()) as u64,
            Task::DtwBanded { xs, width, .. } => (xs.len() * width) as u64,
            Task::Chain { anchors, params } => (anchors.len() * params.n_prev.max(1)) as u64,
            // The code generator folds a node's predecessors in pairs, one
            // compute activation per pair and column.
            Task::Poa { graph, probe, .. } => {
                let rows: usize = (0..graph.node_count())
                    .map(|v| graph.preds(v).len().div_ceil(2).max(1))
                    .sum();
                (rows * probe.len()) as u64
            }
            Task::BellmanFord { graph, rounds, .. } => (graph.edge_count() * rounds) as u64,
        }
    }

    /// Statically validates this task's inputs before dispatch: empty
    /// sequences, zero-width or unsatisfiable DTW bands, wrong SIMD lane
    /// counts and out-of-range graph sources are caught here instead of
    /// deep inside a simulated kernel. A report with errors means the
    /// task can never execute;
    /// [`Device::run_batch`](crate::Device::run_batch) rejects such a
    /// task up front, before any task of its batch runs.
    pub fn preflight(&self) -> gendp_verify::Report {
        use gendp_verify::{DiagLoc, Diagnostic, Report, Rule};
        let mut report = Report::new();
        let mut reject = |message: String| {
            report.push(Diagnostic::new(Rule::EmptyInput, DiagLoc::Program, message));
        };
        match self {
            Task::Bsw { query, target, .. } => {
                if query.is_empty() {
                    reject("bsw query sequence is empty".into());
                }
                if target.is_empty() {
                    reject("bsw target sequence is empty".into());
                }
            }
            Task::BswSimd { pairs, .. } => {
                if pairs.len() != 4 {
                    reject(format!(
                        "simd bsw packs exactly 4 lane pairs, got {}",
                        pairs.len()
                    ));
                }
                for (lane, (q, t)) in pairs.iter().enumerate() {
                    if q.is_empty() || t.is_empty() {
                        reject(format!("simd bsw lane {lane} has an empty sequence"));
                    }
                }
            }
            Task::PairHmm {
                read, haplotype, ..
            }
            | Task::PairHmmFloat {
                read, haplotype, ..
            } => {
                if read.is_empty() {
                    reject("pairhmm read is empty".into());
                }
                if haplotype.is_empty() {
                    reject("pairhmm haplotype is empty".into());
                }
            }
            Task::Dtw { xs, ys } => {
                if xs.is_empty() || ys.is_empty() {
                    reject("dtw signals must be non-empty".into());
                }
            }
            Task::DtwBanded { xs, ys, width } => {
                if xs.is_empty() || ys.is_empty() {
                    reject("banded dtw signals must be non-empty".into());
                }
                if *width == 0 {
                    reject("banded dtw band width is zero".into());
                } else if ys.len() < xs.len() || ys.len() - xs.len() >= *width {
                    reject(format!(
                        "banded dtw corner is outside the band: need \
                         0 <= ys.len() - xs.len() < width, got xs={}, ys={}, width={width}",
                        xs.len(),
                        ys.len()
                    ));
                }
            }
            Task::Chain { anchors, .. } => {
                if anchors.is_empty() {
                    reject("chain task has no anchors".into());
                }
            }
            Task::Poa { graph, probe, .. } => {
                if probe.is_empty() {
                    reject("poa probe sequence is empty".into());
                }
                if graph.node_count() == 0 {
                    reject("poa graph has no nodes".into());
                }
            }
            Task::BellmanFord { graph, source, .. } => {
                if graph.vertex_count() == 0 {
                    reject("bellman-ford graph has no vertices".into());
                } else if *source >= graph.vertex_count() {
                    reject(format!(
                        "bellman-ford source {source} is outside the {}-vertex graph",
                        graph.vertex_count()
                    ));
                }
            }
        }
        report
    }

    /// The shape of this task on an `n_pes`-wide array: everything its
    /// control programs depend on. `None` for POA and Bellman-Ford, whose
    /// programs follow the graph.
    ///
    /// # Panics
    ///
    /// Panics on a task [`preflight`](Self::preflight) rejects for a wrong
    /// SIMD lane count.
    pub fn shape(&self, n_pes: usize) -> Option<TaskShape> {
        struct ShapeOf;
        impl Lowering for ShapeOf {
            type Out = Option<TaskShape>;
            fn visit<A: Accelerator + Send + 'static>(self, l: Lowered<'_, A>) -> Self::Out {
                l.shape
            }
        }
        self.lower(n_pes, ShapeOf)
    }

    /// The certified cost of this task on an `n_pes`-wide array: prepares
    /// the task (program generation + the verify/certify gate, no
    /// simulation) and distills the resulting certificate. `None` when
    /// certification could not bound the cost.
    pub fn certified_cost(&self, n_pes: usize) -> Option<CertifiedCost> {
        struct Price;
        impl Lowering for Price {
            type Out = Option<CertifiedCost>;
            fn visit<A: Accelerator + Send + 'static>(self, l: Lowered<'_, A>) -> Self::Out {
                let prep = (l.build)().configure(AccelConfig::new()).prepare(&l.task);
                CertifiedCost::from_certificate(prep.certificate()?)
            }
        }
        // A shape preflight would reject can't be prepared, let alone
        // certified; keep this method total on arbitrary inputs.
        if self.preflight().has_errors() {
            return None;
        }
        self.lower(n_pes, Price)
    }

    /// Runs this task on one simulated PE array with `n_pes` processing
    /// elements and returns its functional value plus simulator
    /// statistics. Entirely self-contained: results and cycle counts are
    /// identical no matter which array, worker or policy executed it.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors ([`SimError`]).
    pub fn execute(&self, n_pes: usize) -> Result<(TaskValue, RunStats), SimError> {
        self.execute_scaled(n_pes, 1)
    }

    /// [`execute`](Self::execute) with the accelerator's cycle budget
    /// multiplied by `budget_scale` — the retry-escalation entry point
    /// after a [`SimError::Timeout`]. The budget is only a cutoff: any
    /// run that completes returns identical values and cycle counts at
    /// every scale.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors ([`SimError`]).
    ///
    /// # Panics
    ///
    /// Panics if `budget_scale` is zero.
    pub fn execute_scaled(
        &self,
        n_pes: usize,
        budget_scale: u64,
    ) -> Result<(TaskValue, RunStats), SimError> {
        self.execute_configured(n_pes, AccelConfig::new().budget_scale(budget_scale))
    }

    /// [`execute`](Self::execute) with full control over the
    /// driver-independent configuration (cycle-budget multiplier and
    /// execution tiers). Every task variant runs through the unified
    /// [`Accelerator`] lifecycle: the kernel-specific constructor builds
    /// the driver, [`Accelerator::configure`] applies `cfg`, and
    /// [`Accelerator::run_task`] prepares, binds, executes and parses.
    /// Nothing is kept.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors ([`SimError`]).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.budget_scale` is zero.
    pub fn execute_configured(
        &self,
        n_pes: usize,
        cfg: AccelConfig,
    ) -> Result<(TaskValue, RunStats), SimError> {
        struct Execute(AccelConfig);
        impl Lowering for Execute {
            type Out = Result<(TaskValue, RunStats), SimError>;
            fn visit<A: Accelerator + Send + 'static>(self, l: Lowered<'_, A>) -> Self::Out {
                let out = (l.build)().configure(self.0).run_task(&l.task)?;
                Ok(((l.value)(&out), out.stats().clone()))
            }
        }
        self.lower(n_pes, Execute(cfg))
    }

    /// Lowers this task onto its accelerator driver for an `n_pes`-wide
    /// array and hands the result to `visitor`: the one place that maps
    /// each variant to its driver, its driver task, its shape and its
    /// value. The chaining window is physically the PE count — each PE
    /// holds one candidate predecessor — so a chain task fixes its own
    /// array width from its objective.
    ///
    /// # Panics
    ///
    /// Panics if a SIMD task does not pack exactly four lanes.
    pub(crate) fn lower<V: Lowering>(&self, n_pes: usize, visitor: V) -> V::Out {
        let shape = |rows: usize, cols: usize, band: Option<usize>, params: ShapeParams| {
            Some(TaskShape {
                kernel: self.kernel(),
                rows,
                cols,
                n_pes,
                band,
                params,
            })
        };
        let wavefront = |rows, cols, band| WavefrontTask {
            rows,
            cols,
            n_pes,
            band,
        };
        match self {
            Task::Bsw {
                query,
                target,
                scoring,
                mode,
            } => {
                let (rows, cols) = (codes(target), codes(query));
                type Read = dyn Fn(&Wavefront2dOutput) -> TaskValue;
                let local: &Read = &|out| TaskValue::Score(bsw_score(out));
                let (build, value): (&dyn Fn() -> Wavefront2d, &Read) = match (mode, scoring.gap) {
                    (AlignMode::Local, GapModel::Convex { .. }) => {
                        (&|| GendpPipeline::bsw_convex(scoring), local)
                    }
                    (AlignMode::Local, _) => (&|| GendpPipeline::bsw(scoring), local),
                    (AlignMode::Global, _) => (&|| GendpPipeline::bsw_global(scoring), &|out| {
                        TaskValue::Score(*out.last_row["h"].last().expect("corner cell"))
                    }),
                    (AlignMode::SemiGlobal, _) => (
                        &|| GendpPipeline::bsw_semiglobal(scoring, query.len()),
                        &|out| TaskValue::Score(bsw_semiglobal_score(out)),
                    ),
                };
                visitor.visit(Lowered {
                    shape: shape(
                        rows.len(),
                        cols.len(),
                        None,
                        ShapeParams::Bsw {
                            scoring: *scoring,
                            mode: *mode,
                        },
                    ),
                    build,
                    task: wavefront(&rows, &cols, None),
                    value,
                })
            }
            Task::BswSimd { pairs, scoring } => {
                assert_eq!(pairs.len(), 4, "SIMD BSW packs exactly 4 lanes");
                let qs: Vec<Vec<u8>> = pairs.iter().map(|(q, _)| q.codes()).collect();
                let ts: Vec<Vec<u8>> = pairs.iter().map(|(_, t)| t.codes()).collect();
                let cols = pack_lanes([&qs[0], &qs[1], &qs[2], &qs[3]]);
                let rows = pack_lanes([&ts[0], &ts[1], &ts[2], &ts[3]]);
                visitor.visit(Lowered {
                    shape: shape(
                        rows.len(),
                        cols.len(),
                        None,
                        ShapeParams::Bsw {
                            scoring: *scoring,
                            mode: AlignMode::Local,
                        },
                    ),
                    build: &|| GendpPipeline::bsw_simd(scoring),
                    task: wavefront(&rows, &cols, None),
                    value: &|out| TaskValue::SimdScores(bsw_simd_scores(out).to_vec()),
                })
            }
            Task::PairHmm {
                read,
                haplotype,
                qual,
                scale,
                params,
            } => {
                let (rows, cols) = (codes(read), codes(haplotype));
                visitor.visit(Lowered {
                    shape: shape(
                        rows.len(),
                        cols.len(),
                        None,
                        ShapeParams::pairhmm(params, *qual, *scale),
                    ),
                    build: &|| GendpPipeline::pairhmm(params, *qual, *scale, haplotype.len()),
                    task: wavefront(&rows, &cols, None),
                    value: &|out| {
                        TaskValue::LogLikelihood(pairhmm_loglik(out, &pairhmm_luts(*qual, *scale)))
                    },
                })
            }
            Task::PairHmmFloat {
                read,
                haplotype,
                qual,
                params,
            } => {
                let (rows, cols) = (codes(read), codes(haplotype));
                visitor.visit(Lowered {
                    shape: shape(
                        rows.len(),
                        cols.len(),
                        None,
                        ShapeParams::pairhmm(params, *qual, 0),
                    ),
                    build: &|| GendpPipeline::pairhmm_float(params, *qual, haplotype.len()),
                    task: wavefront(&rows, &cols, None),
                    value: &|out| TaskValue::Likelihood(pairhmm_float_lik(out)),
                })
            }
            Task::Dtw { xs, ys } => visitor.visit(Lowered {
                shape: shape(xs.len(), ys.len(), None, ShapeParams::None),
                build: &GendpPipeline::dtw,
                task: wavefront(xs, ys, None),
                value: &|out| {
                    TaskValue::Distance(*out.last_row["d"].last().expect("corner cell") as i64)
                },
            }),
            Task::DtwBanded { xs, ys, width } => visitor.visit(Lowered {
                shape: shape(xs.len(), ys.len(), Some(*width), ShapeParams::None),
                build: &|| GendpPipeline::dtw_banded(ys.len()),
                task: wavefront(
                    xs,
                    ys,
                    Some(BandSpec {
                        width: *width,
                        sentinel: DTW_BAND_SENTINEL,
                    }),
                ),
                value: &|out| TaskValue::Distance(dtw_banded_distance(out, xs.len()) as i64),
            }),
            Task::Chain { anchors, params } => {
                let n_pes = params.n_prev;
                visitor.visit(Lowered {
                    shape: Some(TaskShape {
                        kernel: KernelKind::Chain,
                        rows: anchors.len(),
                        cols: 0,
                        n_pes,
                        band: None,
                        params: ShapeParams::Chain {
                            max_dist: params.max_dist,
                            bandwidth: params.bandwidth,
                            avg_qspan: params.avg_qspan.to_bits(),
                        },
                    }),
                    build: &|| GendpPipeline::chain(*params),
                    task: ChainTask { anchors, n_pes },
                    value: &|run: &ChainRun| TaskValue::ChainScores(run.scores.clone()),
                })
            }
            Task::Poa {
                graph,
                probe,
                scoring,
            } => visitor.visit(Lowered {
                shape: None,
                build: &|| GendpPipeline::poa(*scoring),
                task: PoaTask {
                    graph,
                    seq: probe,
                    n_pes,
                },
                value: &|run: &PoaRun| TaskValue::Score(run.score),
            }),
            Task::BellmanFord {
                graph,
                source,
                rounds,
            } => visitor.visit(Lowered {
                shape: None,
                build: &GendpPipeline::bellman_ford,
                task: BellmanFordTask {
                    graph,
                    source: *source,
                    rounds: *rounds,
                },
                value: &|run: &BellmanFordRun| TaskValue::Distances(run.dist.clone()),
            }),
        }
    }
}

/// Everything about a task that is not content: kernel, table dimensions,
/// array width, band, and the kernel parameters its driver is built from
/// (scoring and mode, PairHMM transitions, quality and scale, every
/// chaining parameter), with floats compared by their bits. Two tasks of
/// equal shape generate identical control programs on every PE and get
/// identical certificates, so a prepared task of one shape serves every
/// task of it ([`Accelerator::bind`]). The device template caches and the
/// service's cost memo both key on it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TaskShape {
    kernel: KernelKind,
    /// DP rows (anchors for chaining; packed lane rows for SIMD).
    rows: usize,
    /// DP columns (0 for chaining).
    cols: usize,
    /// PEs in the array (the window for chaining).
    n_pes: usize,
    /// Band width of a banded table.
    band: Option<usize>,
    params: ShapeParams,
}

impl TaskShape {
    /// The kernel of tasks of this shape.
    pub fn kernel(&self) -> KernelKind {
        self.kernel
    }
}

/// The kernel parameters a driver is built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ShapeParams {
    None,
    Bsw {
        scoring: Scoring,
        mode: AlignMode,
    },
    PairHmm {
        gap_open: u64,
        gap_ext: u64,
        qual: u8,
        scale: i32,
    },
    Chain {
        max_dist: i32,
        bandwidth: i32,
        avg_qspan: u64,
    },
}

impl ShapeParams {
    fn pairhmm(params: &PairHmmParams, qual: u8, scale: i32) -> ShapeParams {
        ShapeParams::PairHmm {
            gap_open: params.gap_open.to_bits(),
            gap_ext: params.gap_ext.to_bits(),
            qual,
            scale,
        }
    }
}

/// One task lowered onto its accelerator driver by [`Task::lower`].
pub(crate) struct Lowered<'t, A: Accelerator> {
    /// What the driver's programs depend on; `None` when they follow the
    /// content.
    pub shape: Option<TaskShape>,
    /// Builds the driver (DPMap and role configuration), unconfigured.
    pub build: &'t dyn Fn() -> A,
    /// The driver's task bundle.
    pub task: A::Task<'t>,
    /// Reads the task's value off the driver's output.
    pub value: &'t dyn Fn(&A::Output) -> TaskValue,
}

/// What to do with a [`Lowered`] task: price it, run it once, or run it
/// on a kept template.
pub(crate) trait Lowering {
    /// The visit's result.
    type Out;
    /// Visits one lowered task.
    fn visit<A: Accelerator + Send + 'static>(self, lowered: Lowered<'_, A>) -> Self::Out;
}

#[cfg(test)]
mod tests {
    use super::*;
    use gendp_kernels::bsw_i32;
    use gendp_seq::MutationProfile;
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    /// A random task of kind `kind` (one of the nine) with small dimensions.
    fn random_task(kind: usize, rng: &mut SmallRng) -> Task {
        let seq = |rng: &mut SmallRng, hi| DnaSeq::random(rng.gen_range(1..hi), rng);
        let ints = |rng: &mut SmallRng, n| (0..n).map(|_| rng.gen_range(0..500)).collect();
        let (read, hap) = (seq(rng, 12), seq(rng, 16));
        let (m, n) = (read.len(), hap.len());
        let params = PairHmmParams::gatk();
        match kind {
            0 => {
                let modes = [AlignMode::Local, AlignMode::Global, AlignMode::SemiGlobal];
                let mode = modes[rng.gen_range(0..3)];
                let scoring = Scoring::bwa_mem();
                Task::Bsw {
                    query: read,
                    target: hap,
                    scoring,
                    mode,
                }
            }
            1 => {
                let pairs = (0..4).map(|_| (seq(rng, 12), seq(rng, 12))).collect();
                Task::bsw_simd(pairs, Scoring::bwa_mem())
            }
            2 => Task::PairHmm {
                read,
                haplotype: hap,
                qual: 30,
                scale: 1024,
                params,
            },
            3 => Task::PairHmmFloat {
                read,
                haplotype: hap,
                qual: 30,
                params,
            },
            4 => Task::dtw(ints(rng, m), ints(rng, n)),
            5 => {
                let width = rng.gen_range(1..6);
                let n = m + rng.gen_range(0..width);
                let ys = ints(rng, n);
                Task::DtwBanded {
                    xs: ints(rng, m),
                    ys,
                    width,
                }
            }
            6 => {
                let mut rpos = 0;
                let mut anchor = |rng: &mut SmallRng| {
                    rpos += rng.gen_range(1..60);
                    Anchor {
                        rpos,
                        qpos: rpos - rng.gen_range(0..8),
                        span: 15,
                    }
                };
                let anchors = (0..n).map(|_| anchor(rng)).collect();
                let n_prev = rng.gen_range(1..8);
                let params = ChainParams {
                    n_prev,
                    ..ChainParams::minimap2(15.0)
                };
                Task::Chain { anchors, params }
            }
            7 => {
                // Several mutated copies, so nodes gain many predecessors.
                let mut graph = Poa::new();
                for _ in 0..rng.gen_range(2..7) {
                    let copy = MutationProfile::nanopore().apply(&hap, rng);
                    graph.add_sequence(&copy, &Scoring::racon());
                }
                Task::Poa {
                    graph,
                    probe: read,
                    scoring: Scoring::racon(),
                }
            }
            _ => {
                let mut graph = Graph::new(m + 1);
                for _ in 0..n {
                    let (u, v) = (rng.gen_range(0..=m), rng.gen_range(0..=m));
                    graph.add_edge(u, v, rng.gen_range(-3..20));
                }
                Task::BellmanFord {
                    graph,
                    source: 0,
                    rounds: rng.gen_range(0..4),
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(144))]

        /// `cells_estimate` is exact: it equals the certificate's cell
        /// cost and the simulated cell count on every task kind.
        #[test]
        fn cells_estimate_is_the_simulated_cell_count(kind in 0usize..9, seed in any::<u64>()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let task = random_task(kind, &mut rng);
            prop_assume!(!task.preflight().has_errors());
            let certified = task.certified_cost(4).expect("small tasks certify");
            let (_, stats) = task.execute(4).expect("simulation");
            prop_assert_eq!(task.cells_estimate(), certified.cost_cells, "{}", task.kernel().name());
            prop_assert_eq!(task.cells_estimate(), stats.cells(), "{}", task.kernel().name());
        }
    }

    #[test]
    fn bsw_task_matches_reference_kernel() {
        let mut rng = SmallRng::seed_from_u64(9);
        let q = DnaSeq::random(14, &mut rng);
        let t = DnaSeq::random(18, &mut rng);
        let scoring = Scoring::bwa_mem();
        let task = Task::bsw_local(q.clone(), t.clone(), scoring);
        let (value, stats) = task.execute(4).expect("simulation");
        let expect = bsw_i32(&q, &t, &scoring, 1000, AlignMode::Local);
        assert_eq!(value, TaskValue::Score(expect.score));
        assert_eq!(stats.cells(), (q.len() * t.len()) as u64);
        assert_eq!(task.cells_estimate(), stats.cells());
    }

    #[test]
    fn execution_is_deterministic_across_repeats() {
        let mut rng = SmallRng::seed_from_u64(11);
        let task = Task::dtw(
            (0..12)
                .map(|_| rand::Rng::gen_range(&mut rng, 0..500))
                .collect(),
            (0..15)
                .map(|_| rand::Rng::gen_range(&mut rng, 0..500))
                .collect(),
        );
        let (v1, s1) = task.execute(4).expect("first");
        let (v2, s2) = task.execute(4).expect("second");
        assert_eq!(v1, v2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn float_pairhmm_routes_to_fp_array() {
        let kind = KernelKind::PairHmmFloat;
        assert_eq!(kind.array_class(), ArrayClass::Float);
        assert_eq!(KernelKind::Bsw.array_class(), ArrayClass::Int);
        assert_eq!(KernelKind::BswSimd.simd_lanes(), 4);
    }
}
