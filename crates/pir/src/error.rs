//! Error type for the polyhedral IR.

use std::fmt;

/// Result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors from program construction and dependence analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Program construction failed (bad arity, duplicate name, ...).
    Build(String),
    /// An underlying set/map operation failed.
    Presburger(tilefuse_presburger::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Build(msg) => write!(f, "program construction error: {msg}"),
            Error::Presburger(e) => write!(f, "set operation failed: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Presburger(e) => Some(e),
            Error::Build(_) => None,
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
    fn display_and_source() {
        let e = Error::Build("oops".into());
        assert_eq!(e.to_string(), "program construction error: oops");
        assert!(std::error::Error::source(&e).is_none());
        let p = Error::from(tilefuse_presburger::Error::Overflow("mul"));
        assert!(p.to_string().contains("overflow"));
        assert!(std::error::Error::source(&p).is_some());
    }
}
