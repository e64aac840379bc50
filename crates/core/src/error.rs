//! Error type for the post-tiling fusion optimizer.

use std::fmt;
use tilefuse_trace::governor::Exhausted;

/// Result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors from the optimizer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Optimizer invariant violated.
    Internal(String),
    /// Caller-supplied structure (group indices, group shapes) is
    /// inconsistent with the program; replaces what used to be index and
    /// slice panics on user-constructed inputs.
    InvalidInput(String),
    /// Underlying IR error.
    Pir(tilefuse_pir::Error),
    /// Underlying scheduler error.
    Scheduler(tilefuse_scheduler::Error),
    /// Underlying schedule-tree error.
    SchedTree(tilefuse_schedtree::Error),
    /// Underlying set/map error.
    Presburger(tilefuse_presburger::Error),
    /// A panic inside the optimize pipeline, caught at the `optimize`
    /// boundary and converted to a value. `phase` is the innermost
    /// governor checkpoint active when the panic unwound (the only
    /// attribution left after span guards drop). A supervisor treats this
    /// as a crashed worker: the input is quarantined, not retried at a
    /// lower rung — panics are deterministic bugs, not resource pressure.
    Panicked {
        /// The innermost governed phase active when the panic started.
        phase: &'static str,
        /// The panic payload's message (best-effort extraction).
        message: String,
    },
}

impl Error {
    /// The governor trip this error carries at any wrapping depth, found
    /// by following the [`source`](std::error::Error::source) chain down
    /// to an [`Exhausted`]. The degradation ladder in [`crate::optimize`]
    /// absorbs exactly these (bar cancellation) and falls back to a
    /// cheaper rung; every other error propagates.
    #[must_use]
    pub fn budget(&self) -> Option<Exhausted> {
        let mut e: &(dyn std::error::Error + 'static) = self;
        loop {
            if let Some(trip) = e.downcast_ref::<Exhausted>() {
                return Some(*trip);
            }
            e = e.source()?;
        }
    }

    /// A synthetic budget-exhaustion error for fault injection (see
    /// [`crate::FaultInjection`]): lets the fuzz oracle force a specific
    /// ladder rung without a real budget race.
    pub(crate) fn injected_budget(phase: &'static str) -> Error {
        Error::Presburger(tilefuse_presburger::Error::BudgetExhausted(Exhausted {
            limit: "fault-injection",
            phase,
        }))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Internal(msg) => write!(f, "optimizer invariant violated: {msg}"),
            Error::InvalidInput(msg) => write!(f, "invalid optimizer input: {msg}"),
            Error::Pir(e) => write!(f, "IR error: {e}"),
            Error::Scheduler(e) => write!(f, "scheduler error: {e}"),
            Error::SchedTree(e) => write!(f, "schedule tree error: {e}"),
            Error::Presburger(e) => write!(f, "set operation failed: {e}"),
            Error::Panicked { phase, message } => {
                write!(f, "panic in optimize (phase {phase}): {message}")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Pir(e) => Some(e),
            Error::Scheduler(e) => Some(e),
            Error::SchedTree(e) => Some(e),
            Error::Presburger(e) => Some(e),
            Error::Internal(_) | Error::InvalidInput(_) | Error::Panicked { .. } => None,
        }
    }
}

impl From<tilefuse_pir::Error> for Error {
    fn from(e: tilefuse_pir::Error) -> Self {
        Error::Pir(e)
    }
}

impl From<tilefuse_scheduler::Error> for Error {
    fn from(e: tilefuse_scheduler::Error) -> Self {
        Error::Scheduler(e)
    }
}

impl From<tilefuse_schedtree::Error> for Error {
    fn from(e: tilefuse_schedtree::Error) -> Self {
        Error::SchedTree(e)
    }
}

impl From<tilefuse_presburger::Error> for Error {
    fn from(e: tilefuse_presburger::Error) -> Self {
        Error::Presburger(e)
    }
}

/// Marks a governed phase and polls the resource budget (a no-op without
/// an installed governor), converting exhaustion into this crate's error.
/// Placed at the existing trace-span boundaries of the optimize pipeline.
pub(crate) fn checkpoint(phase: &'static str) -> Result<()> {
    tilefuse_trace::governor::checkpoint(phase)
        .map_err(|e| Error::Presburger(tilefuse_presburger::Error::from(e)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(Error::Internal("x".into())
            .to_string()
            .contains("invariant"));
        let e = Error::from(tilefuse_presburger::Error::Overflow("mul"));
        assert!(e.to_string().contains("overflow"));
    }

    /// `budget` finds the trip through every wrapping that exists. A
    /// wrapper variant whose `source()` forgot its inner error fails here;
    /// otherwise the ladder would propagate its trips as bugs.
    #[test]
    fn budget_follows_every_wrapping() {
        use tilefuse_pir::Error as PirError;
        use tilefuse_presburger::Error as PbError;
        use tilefuse_schedtree::Error as TreeError;
        use tilefuse_scheduler::Error as SchedError;

        let trip = Exhausted {
            limit: "omega-ops",
            phase: "algo1/extension",
        };
        let pb = || PbError::BudgetExhausted(trip);
        let wrapped = [
            Error::Presburger(pb()),
            Error::Pir(PirError::Presburger(pb())),
            Error::SchedTree(TreeError::Presburger(pb())),
            Error::Scheduler(SchedError::Pir(PirError::Presburger(pb()))),
            Error::Scheduler(SchedError::SchedTree(TreeError::Presburger(pb()))),
            Error::Scheduler(SchedError::Presburger(pb())),
        ];
        for e in &wrapped {
            assert_eq!(e.budget(), Some(trip), "{e:?}");
        }
        let not_trips = [
            Error::Internal("x".into()),
            Error::InvalidInput("y".into()),
            Error::Panicked {
                phase: "optimize/ladder",
                message: "boom".into(),
            },
            Error::Presburger(PbError::Overflow("mul")),
        ];
        for e in &not_trips {
            assert_eq!(e.budget(), None, "{e:?}");
        }
    }
}
