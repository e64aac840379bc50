//! Error type for the presburger crate.

use std::fmt;
use tilefuse_trace::governor::Exhausted;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by set/map construction and algebra.
///
/// All fallible public functions in this crate return [`Error`]; it is
/// `Send + Sync + 'static` so it composes with `Box<dyn Error>` call sites.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Two operands live in incompatible spaces (different parameter lists,
    /// tuple names or arities).
    SpaceMismatch {
        /// Description of the operation that failed.
        op: &'static str,
        /// Rendering of the left-hand space.
        lhs: String,
        /// Rendering of the right-hand space.
        rhs: String,
    },
    /// A dimension index was out of bounds.
    DimOutOfBounds {
        /// The offending index.
        index: usize,
        /// Number of dimensions available.
        len: usize,
    },
    /// Text could not be parsed as a set or map.
    Parse {
        /// Human-readable reason.
        message: String,
        /// Byte offset into the input where parsing failed.
        offset: usize,
    },
    /// An arithmetic operation overflowed `i64`.
    Overflow(&'static str),
    /// The operation requires a map but got a set, or vice versa.
    KindMismatch {
        /// What was expected, e.g. `"map"`.
        expected: &'static str,
    },
    /// An operation requires bounded input (e.g. point scanning) but the
    /// argument is unbounded in some direction.
    Unbounded {
        /// Index of the unbounded dimension.
        dim: usize,
    },
    /// A cooperative resource budget was exhausted (see
    /// [`tilefuse_trace::governor`]). Non-fatal by design: the optimizer's
    /// degradation ladder catches it and falls back to a cheaper rung.
    /// [`source`](std::error::Error::source) returns the [`Exhausted`], so
    /// a wrapper finds it by following the source chain.
    BudgetExhausted(Exhausted),
}

impl From<Exhausted> for Error {
    fn from(e: Exhausted) -> Self {
        Error::BudgetExhausted(e)
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::SpaceMismatch { op, lhs, rhs } => {
                write!(f, "space mismatch in {op}: {lhs} vs {rhs}")
            }
            Error::DimOutOfBounds { index, len } => {
                write!(
                    f,
                    "dimension index {index} out of bounds for {len} dimensions"
                )
            }
            Error::Parse { message, offset } => {
                write!(f, "parse error at offset {offset}: {message}")
            }
            Error::Overflow(op) => write!(f, "integer overflow during {op}"),
            Error::KindMismatch { expected } => {
                write!(f, "operand kind mismatch: expected a {expected}")
            }
            Error::Unbounded { dim } => {
                write!(f, "set is unbounded in dimension {dim}")
            }
            Error::BudgetExhausted(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::BudgetExhausted(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_space_mismatch() {
        let e = Error::SpaceMismatch {
            op: "intersect",
            lhs: "{ S[i] }".into(),
            rhs: "{ T[i] }".into(),
        };
        assert_eq!(
            e.to_string(),
            "space mismatch in intersect: { S[i] } vs { T[i] }"
        );
    }

    #[test]
    fn display_parse() {
        let e = Error::Parse {
            message: "expected ']'".into(),
            offset: 7,
        };
        assert_eq!(e.to_string(), "parse error at offset 7: expected ']'");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<Error>();
    }

    #[test]
    fn display_overflow_and_unbounded() {
        assert_eq!(
            Error::Overflow("mul").to_string(),
            "integer overflow during mul"
        );
        assert_eq!(
            Error::Unbounded { dim: 2 }.to_string(),
            "set is unbounded in dimension 2"
        );
        assert_eq!(
            Error::DimOutOfBounds { index: 4, len: 2 }.to_string(),
            "dimension index 4 out of bounds for 2 dimensions"
        );
        assert_eq!(
            Error::KindMismatch { expected: "map" }.to_string(),
            "operand kind mismatch: expected a map"
        );
    }

    #[test]
    fn budget_exhausted_roundtrip() {
        let trip = Exhausted {
            limit: "deadline",
            phase: "algo1/extension",
        };
        let e = Error::from(trip);
        assert_eq!(e, Error::BudgetExhausted(trip));
        let source = std::error::Error::source(&e).expect("the trip is the source");
        assert_eq!(source.downcast_ref::<Exhausted>(), Some(&trip));
        assert_eq!(
            e.to_string(),
            "budget exhausted (deadline limit) in phase algo1/extension"
        );
        assert!(std::error::Error::source(&Error::Overflow("mul")).is_none());
    }
}
