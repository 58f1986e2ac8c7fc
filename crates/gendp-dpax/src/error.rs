use std::error::Error;
use std::fmt;

/// Error returned by [`PeArray::run`](crate::PeArray::run).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// No thread made progress for a full cycle while at least one was
    /// still running: the program network is deadlocked (e.g. a PE waiting
    /// on an empty port that nothing will ever fill). The payload describes
    /// the stuck threads.
    Deadlock(String),
    /// The cycle budget was exhausted before every thread halted.
    Timeout {
        /// The budget that was exceeded.
        max_cycles: u64,
    },
    /// A control instruction addressed memory out of range. The payload
    /// names the PE and instruction.
    BadAccess(String),
    /// The loaded programs failed static verification before the first
    /// cycle ran (see `gendp-verify`). The payload carries the full
    /// diagnostic report. Disable with
    /// [`PeArrayConfig::no_verify`](crate::PeArrayConfig::no_verify).
    Verify(gendp_verify::Report),
}

/// How a batch runtime should treat a [`SimError`] when deciding whether
/// (and how) to retry the failed task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Retryability {
    /// The run was cut off by its cycle budget ([`SimError::Timeout`]):
    /// re-running the same computation with a larger budget can succeed.
    EscalateBudget,
    /// The failure is deterministic for this program + input
    /// ([`SimError::Deadlock`], [`SimError::BadAccess`]): re-running the
    /// identical computation fails identically, but re-dispatching to a
    /// different array is sound when the fault may be unit-local (a
    /// corrupted or injected-faulty array slot).
    Redispatch,
}

impl SimError {
    /// Classifies this error for retry handling.
    pub fn retryability(&self) -> Retryability {
        match self {
            SimError::Timeout { .. } => Retryability::EscalateBudget,
            SimError::Deadlock(_) | SimError::BadAccess(_) | SimError::Verify(_) => {
                Retryability::Redispatch
            }
        }
    }

    /// True if a retry with a larger cycle budget can clear this error.
    pub fn is_budget_bound(&self) -> bool {
        self.retryability() == Retryability::EscalateBudget
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock(what) => write!(f, "simulation deadlocked: {what}"),
            SimError::Timeout { max_cycles } => {
                write!(f, "simulation exceeded {max_cycles} cycles")
            }
            SimError::BadAccess(what) => write!(f, "bad memory access: {what}"),
            SimError::Verify(report) => write!(
                f,
                "program verification failed with {} error{}: {}",
                report.error_count(),
                if report.error_count() == 1 { "" } else { "s" },
                report
                    .errors()
                    .next()
                    .map(|d| d.to_string())
                    .unwrap_or_default()
            ),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(SimError::Deadlock("pe0 waiting on in".into())
            .to_string()
            .contains("pe0"));
        assert!(SimError::Timeout { max_cycles: 7 }
            .to_string()
            .contains('7'));
        assert!(SimError::BadAccess("rf[999]".into())
            .to_string()
            .contains("rf"));
    }

    #[test]
    fn retryability_classifies_by_kind() {
        assert_eq!(
            SimError::Timeout { max_cycles: 10 }.retryability(),
            Retryability::EscalateBudget
        );
        assert!(SimError::Timeout { max_cycles: 10 }.is_budget_bound());
        assert_eq!(
            SimError::Deadlock("pe0".into()).retryability(),
            Retryability::Redispatch
        );
        assert_eq!(
            SimError::BadAccess("rf[9]".into()).retryability(),
            Retryability::Redispatch
        );
        assert!(!SimError::Deadlock("pe0".into()).is_budget_bound());
    }
}
