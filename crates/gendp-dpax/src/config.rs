use gendp_isa::{Luts, Mode};

/// Which execution engine the simulator's per-cycle loop uses.
///
/// The decoded and interpreted engines are cycle- and statistics-exact
/// with respect to each other; the decoded engine is the fast path
/// (programs are lowered once at load via
/// [`gendp_isa::DecodedControlProgram`] /
/// [`gendp_isa::DecodedComputeProgram`]), while the interpreted engine
/// executes the assembly-level encoding directly and is kept as the
/// reference for equivalence testing and benchmarking. The functional
/// engine does not simulate cycles at all: it executes the kernel's
/// semantics as batched native loops and reports cycles from the static
/// certificate's analytic model.
///
/// `Engine` is not how execution is selected: configure a [`TierPolicy`]
/// instead, which adds certification awareness and an automatic fallback
/// chain, and resolves to an engine through [`TierPolicy::sim_engine`].
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// Execute pre-decoded programs (the default fast path).
    #[default]
    Decoded,
    /// Interpret the assembly-level encoding every cycle (reference).
    Interpreted,
    /// Execute the kernel's semantics directly as batched native loops,
    /// skipping per-cycle simulation; cycles are reported from the
    /// certificate's analytic model. Only available through drivers that
    /// can lower their kernel functionally (see `gendp-core`); a raw
    /// [`PeArray`](crate::PeArray) degrades to the decoded engine.
    Functional,
}

/// An execution tier: one rung of the fallback chain
/// `Functional → DecodedCertified → Decoded → Interpreted`.
///
/// Tiers are ordered fastest-first; each is bit-identical to the ones
/// below it on the outputs of any successful run. [`RunStats::tier`]
/// (crate::RunStats::tier) records which tier actually executed.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, Default)]
pub enum Tier {
    /// Batched native execution of the kernel semantics with analytic
    /// cycle reporting (no per-cycle simulation).
    Functional,
    /// Decoded engine on the certified-unchecked access path (requires a
    /// `safe()` certificate and no interpreter-fallback instructions).
    DecodedCertified,
    /// Decoded engine on the bounds-checked access path.
    #[default]
    Decoded,
    /// The interpreted reference engine.
    Interpreted,
}

impl Tier {
    /// The full fallback chain, fastest first.
    pub const CHAIN: [Tier; 4] = [
        Tier::Functional,
        Tier::DecodedCertified,
        Tier::Decoded,
        Tier::Interpreted,
    ];

    /// Stable lowercase name, used by benchmark schemas and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Functional => "functional",
            Tier::DecodedCertified => "decoded_certified",
            Tier::Decoded => "decoded",
            Tier::Interpreted => "interpreted",
        }
    }

    fn rank(self) -> usize {
        match self {
            Tier::Functional => 0,
            Tier::DecodedCertified => 1,
            Tier::Decoded => 2,
            Tier::Interpreted => 3,
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How execution tiers are selected: a requested tier plus whether the
/// runtime may degrade along the chain
/// `Functional → DecodedCertified → Decoded → Interpreted` when the
/// requested tier is unavailable (kernel not functionally lowerable,
/// certificate not `safe()`, …).
///
/// This replaces scattering raw [`Engine`] values through configs. The
/// default policy is [`TierPolicy::decoded_certified`] — the decoded
/// engine, promoted to the certified-unchecked path when the certificate
/// allows — which is exactly the pre-`TierPolicy` default behavior.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub struct TierPolicy {
    requested: Tier,
    fallback: bool,
}

impl TierPolicy {
    /// Requests `tier`, degrading along the chain when unavailable.
    pub fn request(tier: Tier) -> Self {
        TierPolicy {
            requested: tier,
            fallback: true,
        }
    }

    /// Requests the functional tier (batched native execution).
    pub fn functional() -> Self {
        Self::request(Tier::Functional)
    }

    /// Requests the decoded engine with certificate-gated promotion to
    /// the unchecked access path (the default).
    pub fn decoded_certified() -> Self {
        Self::request(Tier::DecodedCertified)
    }

    /// Requests the decoded engine on the always-bounds-checked path.
    pub fn decoded() -> Self {
        Self::request(Tier::Decoded)
    }

    /// Requests the interpreted reference engine.
    pub fn interpreted() -> Self {
        Self::request(Tier::Interpreted)
    }

    /// Disables fallback: execution fails with
    /// [`SimError::TierUnavailable`](crate::SimError::TierUnavailable)
    /// instead of degrading when the requested tier cannot run.
    pub fn strict(mut self) -> Self {
        self.fallback = false;
        self
    }

    /// The tier this policy asks for.
    pub fn requested(&self) -> Tier {
        self.requested
    }

    /// True when the policy refuses to degrade below the requested tier.
    pub fn is_strict(&self) -> bool {
        !self.fallback
    }

    /// The tiers this policy may run, fastest first: the chain suffix
    /// starting at the requested tier, or just the requested tier when
    /// [`strict`](Self::strict).
    pub fn chain(&self) -> &'static [Tier] {
        let from = self.requested.rank();
        if self.fallback {
            &Tier::CHAIN[from..]
        } else {
            &Tier::CHAIN[from..=from]
        }
    }

    /// True when this policy may execute on `tier`.
    pub fn admits(&self, tier: Tier) -> bool {
        self.chain().contains(&tier)
    }

    /// The per-cycle simulation engine backing this policy when the
    /// functional tier does not engage: interpreted only when explicitly
    /// requested, decoded otherwise (a raw array cannot run functionally,
    /// so `Functional` degrades to its decoded fallback here).
    pub fn sim_engine(&self) -> Engine {
        match self.requested {
            Tier::Interpreted => Engine::Interpreted,
            _ => Engine::Decoded,
        }
    }
}

impl Default for TierPolicy {
    fn default() -> Self {
        Self::decoded_certified()
    }
}

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
    /// Let a safe certificate switch the decoded engine onto the
    /// certified-unchecked access path. On by default; turning it off
    /// keeps the bounds-checked path even for certified programs (A/B
    /// measurement, debugging). Redundant with requesting
    /// [`Tier::Decoded`], kept for `force_checked`-style toggling after
    /// construction.
    pub certify: bool,
    /// Execution-tier selection policy. A raw `PeArray` resolves among
    /// the simulated tiers (a functional request degrades to its decoded
    /// fallback here — only kernel drivers in `gendp-core` can lower
    /// functionally).
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
            certify: true,
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

    /// Keeps the bounds-checked access path even when the certificate
    /// would allow the unchecked one, returning `self` for chaining.
    pub fn no_certify(mut self) -> Self {
        self.certify = false;
        self
    }

    /// Sets the execution-tier policy, returning `self` for chaining.
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
    fn default_policy_is_certified_decoded_with_fallback() {
        let c = PeArrayConfig::new();
        assert_eq!(c.tiers.requested(), Tier::DecodedCertified);
        assert!(!c.tiers.is_strict());
        assert_eq!(c.tiers.sim_engine(), Engine::Decoded);
    }

    #[test]
    fn chains_are_suffixes_of_the_full_chain() {
        assert_eq!(TierPolicy::functional().chain(), &Tier::CHAIN[..]);
        assert_eq!(
            TierPolicy::decoded_certified().chain(),
            &[Tier::DecodedCertified, Tier::Decoded, Tier::Interpreted]
        );
        assert_eq!(
            TierPolicy::decoded().chain(),
            &[Tier::Decoded, Tier::Interpreted]
        );
        assert_eq!(TierPolicy::interpreted().chain(), &[Tier::Interpreted]);
        assert_eq!(
            TierPolicy::functional().strict().chain(),
            &[Tier::Functional]
        );
    }

    #[test]
    fn admits_follows_the_chain() {
        let p = TierPolicy::functional();
        assert!(p.admits(Tier::Functional));
        assert!(p.admits(Tier::DecodedCertified));
        assert!(p.admits(Tier::Interpreted));
        let strict = TierPolicy::decoded().strict();
        assert!(strict.admits(Tier::Decoded));
        assert!(!strict.admits(Tier::Interpreted));
        assert!(!strict.admits(Tier::DecodedCertified));
    }

    #[test]
    fn sim_engine_resolution() {
        assert_eq!(TierPolicy::functional().sim_engine(), Engine::Decoded);
        assert_eq!(
            TierPolicy::decoded_certified().sim_engine(),
            Engine::Decoded
        );
        assert_eq!(TierPolicy::decoded().sim_engine(), Engine::Decoded);
        assert_eq!(TierPolicy::interpreted().sim_engine(), Engine::Interpreted);
    }

    #[test]
    fn tier_names_are_stable() {
        for t in Tier::CHAIN {
            assert_eq!(t.to_string(), t.name());
        }
        assert_eq!(Tier::DecodedCertified.name(), "decoded_certified");
    }
}
