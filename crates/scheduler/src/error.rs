//! Error type for the scheduler.

use std::fmt;

/// Result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors from scheduling and fusion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The heuristic cannot handle this program shape (e.g. the modeled
    /// `hybridfuse` crash on triangular domains, reported as ✗ in the
    /// paper's Table II).
    Unsupported(String),
    /// Internal scheduling invariant violated.
    Internal(String),
    /// A user-constructed [`crate::Group`] is inconsistent (statement id
    /// out of range, `depth` deeper than a member's loop nest or shift
    /// vector, mismatched `shifts`/`coincident` lengths); replaces what
    /// used to be slice-index panics inside tree building.
    MalformedGroup(String),
    /// Underlying IR error.
    Pir(tilefuse_pir::Error),
    /// Underlying schedule-tree error.
    SchedTree(tilefuse_schedtree::Error),
    /// Underlying set/map error.
    Presburger(tilefuse_presburger::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Unsupported(msg) => write!(f, "heuristic cannot handle program: {msg}"),
            Error::Internal(msg) => write!(f, "scheduler invariant violated: {msg}"),
            Error::MalformedGroup(msg) => write!(f, "malformed fusion group: {msg}"),
            Error::Pir(e) => write!(f, "IR error: {e}"),
            Error::SchedTree(e) => write!(f, "schedule tree error: {e}"),
            Error::Presburger(e) => write!(f, "set operation failed: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Pir(e) => Some(e),
            Error::SchedTree(e) => Some(e),
            Error::Presburger(e) => Some(e),
            _ => None,
        }
    }
}

impl From<tilefuse_pir::Error> for Error {
    fn from(e: tilefuse_pir::Error) -> Self {
        Error::Pir(e)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(Error::Unsupported("x".into())
            .to_string()
            .contains("cannot handle"));
        assert!(Error::Internal("y".into())
            .to_string()
            .contains("invariant"));
        assert!(Error::MalformedGroup("z".into())
            .to_string()
            .contains("malformed fusion group"));
        let e = Error::from(tilefuse_presburger::Error::Overflow("mul"));
        assert!(e.to_string().contains("overflow"));
    }
}
