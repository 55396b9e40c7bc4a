//! Error types for the engine.

use std::fmt;

/// Errors produced by job execution.
///
/// `OutOfMemory` is produced by the *simulated* memory model: the in-process
/// computation itself would have succeeded, but the modeled cluster (with its
/// per-worker memory limit) would have failed. This is how the repository
/// reproduces the paper's OOM data points (outer-parallel on large groups,
/// broadcast joins of large InnerScalars, DIQL's fallback).
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A stage's working set exceeded the simulated per-worker memory.
    OutOfMemory {
        /// The operator that failed (for diagnostics).
        operator: String,
        /// Bytes the heaviest worker would have needed.
        needed_bytes: u64,
        /// Bytes available per worker.
        available_bytes: u64,
    },
    /// The plan is invalid (e.g. joining bags from different engines).
    InvalidPlan(String),
    /// The requested feature is unsupported by this execution strategy
    /// (e.g. the DIQL-like baseline rejecting inner control flow).
    Unsupported(String),
    /// Lineage recovery exhausted its budget: the same machine was lost
    /// `attempts` consecutive times at one stage boundary
    /// (`FaultConfig::max_recovery_attempts`), so the job fails instead of
    /// replaying lineage forever.
    RecoveryFailed {
        /// Stage boundary at which recovery kept failing.
        stage: u64,
        /// Machine that kept being lost.
        machine: u64,
        /// Consecutive losses before giving up.
        attempts: u32,
    },
    /// The job was cooperatively cancelled (`Engine::request_cancel`): a
    /// charge site observed the cancellation flag and aborted the program
    /// between simulated stages. Used by the multi-tenant job service
    /// (`docs/SERVICE.md`) for client-initiated cancellation.
    Cancelled,
    /// The engine's simulated clock passed the installed deadline
    /// (`Engine::set_deadline`): the program was aborted at the first charge
    /// site past the limit. Deterministic — the simulated clock does not
    /// depend on host scheduling.
    DeadlineExceeded {
        /// The deadline that was exceeded, in simulated nanoseconds.
        deadline_nanos: u64,
        /// Simulated time at the aborting charge site.
        at_nanos: u64,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::OutOfMemory { operator, needed_bytes, available_bytes } => write!(
                f,
                "simulated OutOfMemory in {operator}: needed {needed_bytes} bytes/worker, \
                 available {available_bytes}"
            ),
            EngineError::InvalidPlan(msg) => write!(f, "invalid plan: {msg}"),
            EngineError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
            EngineError::RecoveryFailed { stage, machine, attempts } => write!(
                f,
                "lineage recovery failed at stage {stage}: machine {machine} lost \
                 {attempts} consecutive times"
            ),
            EngineError::Cancelled => write!(f, "job cancelled"),
            EngineError::DeadlineExceeded { deadline_nanos, at_nanos } => write!(
                f,
                "simulated deadline exceeded: {deadline_nanos} ns deadline, \
                 aborted at {at_nanos} ns"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// Convenience alias used across the engine.
pub type Result<T> = std::result::Result<T, EngineError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = EngineError::OutOfMemory {
            operator: "group_by_key".into(),
            needed_bytes: 100,
            available_bytes: 10,
        };
        let s = e.to_string();
        assert!(s.contains("group_by_key"));
        assert!(s.contains("100"));
        let e2 = EngineError::Unsupported("loops".into());
        assert!(e2.to_string().contains("loops"));
    }
}
