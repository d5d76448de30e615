//! Errors of the object manager and trigger run-time.

use ode_storage::StorageError;

/// Result alias for ode-core operations.
pub type Result<T> = std::result::Result<T, OdeError>;

/// Errors surfaced by the object manager.
#[derive(Debug)]
pub enum OdeError {
    /// The storage substrate failed (includes lock/transaction errors and
    /// `tabort`, which is carried as [`StorageError::UserAbort`]).
    Storage(StorageError),
    /// A trigger event expression failed to parse.
    Parse(ode_events::ParseError),
    /// A class, trigger, event, or mask name could not be resolved.
    Schema(String),
    /// An object's dynamic class is incompatible with the requested
    /// operation (e.g. activating a trigger of an unrelated class).
    TypeMismatch {
        /// What the operation expected.
        expected: String,
        /// What the object actually is.
        actual: String,
    },
    /// A trigger action failed with an application error message.
    Action(String),
    /// Immediate trigger firings nested deeper than
    /// [`crate::post::MAX_CASCADE_DEPTH`]: an action that (directly or
    /// through other triggers) keeps re-posting the event that fired it.
    /// The statement fails and its transaction must abort.
    CascadeTooDeep {
        /// The limit that was hit.
        depth: usize,
    },
    /// The database file was written in an on-disk layout this version
    /// does not read.
    UnsupportedFormat(String),
}

impl std::fmt::Display for OdeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OdeError::Storage(e) => write!(f, "storage: {e}"),
            OdeError::Parse(e) => write!(f, "event expression: {e}"),
            OdeError::Schema(m) => write!(f, "schema: {m}"),
            OdeError::TypeMismatch { expected, actual } => {
                write!(f, "type mismatch: expected {expected}, object is {actual}")
            }
            OdeError::Action(m) => write!(f, "trigger action failed: {m}"),
            OdeError::CascadeTooDeep { depth } => {
                write!(
                    f,
                    "trigger cascade exceeded {depth} nested immediate firings"
                )
            }
            OdeError::UnsupportedFormat(m) => write!(f, "unsupported database format: {m}"),
        }
    }
}

impl std::error::Error for OdeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OdeError::Storage(e) => Some(e),
            OdeError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for OdeError {
    fn from(e: StorageError) -> Self {
        match e {
            StorageError::UnsupportedFormat(m) => OdeError::UnsupportedFormat(m),
            e => OdeError::Storage(e),
        }
    }
}

impl From<ode_events::ParseError> for OdeError {
    fn from(e: ode_events::ParseError) -> Self {
        OdeError::Parse(e)
    }
}

impl OdeError {
    /// Whether the error means the surrounding transaction has aborted (or
    /// must abort): deadlock victim, failed commit dependency, or `tabort`.
    pub fn is_abort(&self) -> bool {
        matches!(self, OdeError::Storage(e) if e.is_abort())
    }

    /// The `tabort` constructor: a trigger action (or application code)
    /// requests transaction abort with a reason (§4's `tabort;`).
    pub fn tabort(reason: &str) -> OdeError {
        OdeError::Storage(StorageError::UserAbort(reason.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tabort_is_an_abort() {
        assert!(OdeError::tabort("over limit").is_abort());
        assert!(!OdeError::Schema("x".into()).is_abort());
    }

    #[test]
    fn display_includes_cause() {
        let e = OdeError::tabort("over limit");
        assert!(e.to_string().contains("over limit"));
        let e = OdeError::TypeMismatch {
            expected: "CredCard".into(),
            actual: "Person".into(),
        };
        assert!(e.to_string().contains("CredCard"));
        assert!(e.to_string().contains("Person"));
    }
}
