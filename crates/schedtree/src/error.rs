//! Error type for schedule trees.

use std::fmt;

/// Result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors from schedule-tree construction and transformation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Structural problem (bad path, arity mismatch).
    Structure(String),
    /// A node of one kind was found where another was required (typed
    /// accessors like [`crate::Node::as_mark`]); replaces what used to be
    /// a panic in code pattern-matching a node it "knew" the kind of.
    KindMismatch {
        /// The node kind the caller required.
        expected: &'static str,
        /// The kind actually found.
        found: &'static str,
    },
    /// An underlying set/map operation failed.
    Presburger(tilefuse_presburger::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Structure(msg) => write!(f, "schedule tree error: {msg}"),
            Error::KindMismatch { expected, found } => {
                write!(
                    f,
                    "schedule tree error: expected {expected} node, got {found}"
                )
            }
            Error::Presburger(e) => write!(f, "set operation failed: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Presburger(e) => Some(e),
            Error::Structure(_) | Error::KindMismatch { .. } => None,
        }
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
    fn display() {
        assert_eq!(
            Error::Structure("bad path".into()).to_string(),
            "schedule tree error: bad path"
        );
        let p = Error::from(tilefuse_presburger::Error::Overflow("add"));
        assert!(p.to_string().contains("overflow"));
    }
}
