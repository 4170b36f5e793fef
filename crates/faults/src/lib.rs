//! `seuss-faults` — deterministic fault injection for the SEUSS simulation.
//!
//! A [`FaultPlan`] is a time-sorted schedule of typed [`FaultKind`]
//! injections — node crashes, packet-loss windows, memory pressure,
//! straggler cores, snapshot corruption — that the platform layer replays
//! against its compute node at exact virtual instants. Plans are plain
//! data: the same plan against the same seed produces byte-identical
//! trials, because
//!
//! 1. any randomness used while *compiling* a plan (`?`-placed events)
//!    comes from a dedicated [`simcore::stream_seed`] stream
//!    ([`FAULT_PLAN_STREAM`]), never the workload stream; and
//! 2. any randomness used while *executing* a plan (per-packet loss
//!    draws) comes from a second dedicated stream
//!    ([`FAULT_EXEC_STREAM`]) that is only advanced while a loss window
//!    is active — an empty plan draws nothing and perturbs nothing.
//!
//! Resilience lives here too: [`RetryPolicy`] is a deterministic
//! exponential-backoff-with-jitter schedule (jitter is a pure hash of
//! `(seed, request, attempt)` — no shared RNG state), and [`FaultError`]
//! is the typed injection outcome whose [`FaultError::is_transient`]
//! drives the platform's retry decision.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod plan;
pub mod retry;
pub mod spec;

pub use plan::{FaultEvent, FaultKind, FaultPlan};
pub use retry::RetryPolicy;
pub use spec::SpecError;

/// RNG sub-stream used while compiling `?`-placed plan events.
pub const FAULT_PLAN_STREAM: u64 = 0xFA_0171;

/// RNG sub-stream used while executing a plan (per-packet loss draws).
pub const FAULT_EXEC_STREAM: u64 = 0xFA_0172;

/// A typed fault outcome observed by a request or platform operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultError {
    /// The compute node crashed while the operation was in flight.
    NodeCrashed,
    /// The request's packet was dropped by an active loss window.
    PacketDropped,
    /// The operation failed under injected memory pressure.
    MemoryPressure,
    /// A cached snapshot failed its integrity check.
    SnapshotCorrupted,
    /// The trial's retry budget ran out before the operation succeeded.
    RetryBudgetExhausted,
}

impl FaultError {
    /// Whether retrying the operation can succeed. Everything injected is
    /// transient — the node reboots, the loss window closes, pressure
    /// lifts, a corrupted snapshot is re-captured — except budget
    /// exhaustion, which is the retry machinery itself giving up.
    pub fn is_transient(self) -> bool {
        !matches!(self, FaultError::RetryBudgetExhausted)
    }

    /// Stable lowercase tag (used in records and trace output).
    pub fn as_str(self) -> &'static str {
        match self {
            FaultError::NodeCrashed => "node_crashed",
            FaultError::PacketDropped => "packet_dropped",
            FaultError::MemoryPressure => "memory_pressure",
            FaultError::SnapshotCorrupted => "snapshot_corrupted",
            FaultError::RetryBudgetExhausted => "retry_budget_exhausted",
        }
    }
}

impl core::fmt::Display for FaultError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let msg = match self {
            FaultError::NodeCrashed => "compute node crashed mid-operation",
            FaultError::PacketDropped => "packet dropped by injected loss",
            FaultError::MemoryPressure => "injected memory pressure",
            FaultError::SnapshotCorrupted => "snapshot failed integrity check",
            FaultError::RetryBudgetExhausted => "retry budget exhausted",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for FaultError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transience_classification() {
        assert!(FaultError::NodeCrashed.is_transient());
        assert!(FaultError::PacketDropped.is_transient());
        assert!(FaultError::MemoryPressure.is_transient());
        assert!(FaultError::SnapshotCorrupted.is_transient());
        assert!(!FaultError::RetryBudgetExhausted.is_transient());
    }

    #[test]
    fn display_and_tags_are_stable() {
        assert_eq!(FaultError::PacketDropped.as_str(), "packet_dropped");
        assert_eq!(
            FaultError::RetryBudgetExhausted.to_string(),
            "retry budget exhausted"
        );
    }

    #[test]
    fn streams_are_distinct_and_nonzero() {
        assert_ne!(FAULT_PLAN_STREAM, 0);
        assert_ne!(FAULT_EXEC_STREAM, 0);
        assert_ne!(FAULT_PLAN_STREAM, FAULT_EXEC_STREAM);
    }
}
