//! Array configuration and execution-tier selection.
//!
//! A configuration requests one of three [`Tier`]s: the functional tier
//! (batched native loops, no simulation), the decoded engine (the default:
//! event-driven simulation of programs lowered once at load through
//! [`gendp_isa::DecodedControlProgram`] and
//! [`gendp_isa::DecodedComputeProgram`]) or the interpreted engine (the
//! per-cycle reference that executes the assembly-level encoding). The two
//! engines are cycle- and statistics-exact with respect to each other, and
//! a decoded run that fails is replayed on the interpreted engine, so both
//! report the same errors. The functional tier engages only above
//! the array, for kernel drivers that lower a task functionally under a
//! `safe()` certificate; everywhere else a functional request runs
//! decoded.

use gendp_isa::{Luts, Mode};

/// An execution tier. Every tier is bit-identical to the others on the
/// outputs of any successful run; [`RunStats::tier`](crate::RunStats::tier)
/// records which tier actually executed.
///
/// A configuration requests one tier (its [`TierPolicy`]). The request is
/// honoured where it can run and otherwise degrades to [`Tier::Decoded`]:
/// the functional tier needs a kernel driver that lowers the task (see
/// `gendp-core`) and a `safe()` certificate, so a raw
/// [`PeArray`](crate::PeArray) or a pattern without a functional lowering
/// runs decoded instead. The decoded and interpreted engines run on every
/// array.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, Default)]
pub enum Tier {
    /// Batched native execution of the kernel semantics, no per-cycle
    /// simulation. It reports the statistics of the prepared task's first
    /// execution, which runs decoded.
    Functional,
    /// Event-driven simulation of pre-decoded programs (the default): each
    /// PE runs ahead on its own clock, with every cycle and counter of the
    /// interpreted engine kept.
    #[default]
    Decoded,
    /// Per-cycle simulation interpreting the assembly-level encoding: the
    /// reference the decoded engine and the functional tier are tested
    /// against.
    Interpreted,
}

impl Tier {
    /// Requests the functional tier (batched native execution).
    pub fn functional() -> Self {
        Tier::Functional
    }

    /// Requests the decoded engine (the default).
    pub fn decoded() -> Self {
        Tier::Decoded
    }

    /// Requests the interpreted reference engine.
    pub fn interpreted() -> Self {
        Tier::Interpreted
    }

    /// Stable lowercase name, used by benchmark schemas and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Functional => "functional",
            Tier::Decoded => "decoded",
            Tier::Interpreted => "interpreted",
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The tier a configuration requests (see [`Tier`] for how a request
/// that cannot run degrades). The default requests [`Tier::Decoded`].
pub type TierPolicy = Tier;

/// Configuration of one simulated PE array.
///
/// Defaults follow the paper's DPAx design point: 4 PEs per array, a
/// register file and scratchpad sized for the four evaluated kernels, and a
/// FIFO deep enough to carry one row of boundary values between row groups.
#[derive(Debug, Clone, PartialEq)]
pub struct PeArrayConfig {
    /// Number of PEs in the systolic chain. 4 for a single array; 64 models
    /// the 16 integer arrays concatenated into one large array for
    /// 1-D-table kernels (paper Fig. 5(d)).
    pub n_pes: usize,
    /// Register-file words per PE.
    pub rf_slots: usize,
    /// Scratchpad words per PE (long-range dependencies, paper §3.1).
    pub spm_words: usize,
    /// FIFO capacity in words (last PE → first PE).
    pub fifo_capacity: usize,
    /// Address registers per decoder.
    pub aregs: usize,
    /// Arithmetic mode of the compute units (integer arrays run `Int32` or
    /// `Int8x4`; the FP array runs `Float32`).
    pub mode: Mode,
    /// Lookup-table configuration (score table, log-sum scale).
    pub luts: Luts,
    /// FIFO broadcast mode (paper Fig. 5(c,d), 1-D kernels): a word pushed
    /// by the last PE is delivered to a per-PE skid queue at *every* PE,
    /// and any PE may read `fifo`. In the default mode only the first PE
    /// reads the FIFO.
    pub fifo_broadcast: bool,
    /// Statically verify the loaded programs (`gendp-verify`) before the
    /// first cycle; error diagnostics abort the run with
    /// [`SimError::Verify`](crate::SimError::Verify). On by default.
    pub verify: bool,
    /// The requested execution tier. A raw `PeArray` only simulates: a
    /// functional request runs decoded here (only kernel drivers in
    /// `gendp-core` lower functionally).
    pub tiers: TierPolicy,
}

impl PeArrayConfig {
    /// The paper's default integer PE array (4 PEs).
    pub fn new() -> Self {
        Self::with_pes(crate::PES_PER_ARRAY)
    }

    /// An array with a custom PE count (e.g. 64 for 1-D kernels).
    pub fn with_pes(n_pes: usize) -> Self {
        PeArrayConfig {
            n_pes,
            rf_slots: 256,
            spm_words: 1024,
            fifo_capacity: 4096,
            aregs: 16,
            mode: Mode::Int32,
            luts: Luts::default(),
            fifo_broadcast: false,
            verify: true,
            tiers: TierPolicy::default(),
        }
    }

    /// Sets the arithmetic mode, returning `self` for chaining.
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the lookup tables, returning `self` for chaining.
    pub fn luts(mut self, luts: Luts) -> Self {
        self.luts = luts;
        self
    }

    /// Enables FIFO broadcast mode (1-D kernels), returning `self`.
    pub fn fifo_broadcast(mut self) -> Self {
        self.fifo_broadcast = true;
        self
    }

    /// Disables the pre-run static verification gate, returning `self`.
    /// Useful when deliberately running ill-formed programs to exercise
    /// the simulator's own dynamic checks.
    pub fn no_verify(mut self) -> Self {
        self.verify = false;
        self
    }

    /// Sets the requested execution tier, returning `self` for chaining.
    pub fn tiers(mut self, tiers: TierPolicy) -> Self {
        self.tiers = tiers;
        self
    }
}

impl Default for PeArrayConfig {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_design_point() {
        let c = PeArrayConfig::new();
        assert_eq!(c.n_pes, 4);
        assert_eq!(c.mode, Mode::Int32);
        assert!(c.fifo_capacity >= 1024);
    }

    #[test]
    fn builder_chaining() {
        let c = PeArrayConfig::with_pes(64)
            .mode(Mode::Int8x4)
            .luts(Luts::with_scores(2, -4));
        assert_eq!(c.n_pes, 64);
        assert_eq!(c.mode, Mode::Int8x4);
        assert_eq!(c.luts.score_eq.as_i32(), 2);
    }

    #[test]
    fn default_requests_the_decoded_tier() {
        let c = PeArrayConfig::new();
        assert_eq!(c.tiers, Tier::Decoded);
        assert_eq!(TierPolicy::default(), Tier::Decoded);
        assert_eq!(c.tiers(TierPolicy::interpreted()).tiers, Tier::Interpreted);
    }

    #[test]
    fn sim_engine_resolution() {
        // A raw array only simulates: functional runs the decoded engine.
        for (requested, runs) in [
            (Tier::Functional, Tier::Decoded),
            (Tier::Decoded, Tier::Decoded),
            (Tier::Interpreted, Tier::Interpreted),
        ] {
            let array = crate::PeArray::new(PeArrayConfig::new().tiers(requested));
            assert_eq!(array.resolved_tier(), runs, "{requested}");
        }
    }

    #[test]
    fn tier_names_are_stable() {
        let tiers = [Tier::Functional, Tier::Decoded, Tier::Interpreted];
        for t in tiers {
            assert_eq!(t.to_string(), t.name());
        }
        assert_eq!(
            tiers.map(Tier::name),
            ["functional", "decoded", "interpreted"]
        );
    }
}
