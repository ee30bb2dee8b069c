//! Unified error type for the BLU pipeline.
//!
//! Library paths in `blu-core` return [`BluError`] instead of
//! panicking: a malformed trace, an impossible measurement plan, or a
//! degenerate inference input must surface as a value the
//! orchestrator can route (typically into PF fallback), never as a
//! process abort — an eNB scheduler that panics on a weird
//! measurement is strictly worse than one that schedules
//! conservatively. Panics remain only in tests and binaries.

use blu_sim::error::SimError;
use std::fmt;

/// Any error the BLU pipeline can produce.
#[derive(Debug, Clone, PartialEq)]
pub enum BluError {
    /// An error bubbled up from the simulation substrate.
    Sim(SimError),
    /// A trace is too short (or otherwise too small) for the
    /// requested operation.
    TraceTooShort {
        /// What was being attempted.
        what: &'static str,
        /// Sub-frames (or samples) the operation needs.
        needed: u64,
        /// Sub-frames (or samples) actually available.
        available: u64,
    },
    /// A trace failed schema validation.
    InvalidTrace(String),
    /// A configuration value is out of range or inconsistent.
    InvalidConfig(String),
    /// A required input collection was empty.
    EmptyInput(&'static str),
    /// Inference could not produce a usable blueprint.
    Inference(String),
    /// A client set is too large for a `2^|w|` pattern enumeration —
    /// the `1 << |w|` table index would overflow `usize`.
    SetTooLarge {
        /// What was being enumerated.
        what: &'static str,
        /// Members in the offending set.
        len: usize,
        /// Largest supported set size.
        max: usize,
    },
    /// An arithmetic operation would overflow its integer type.
    Overflow {
        /// What was being computed.
        what: &'static str,
    },
    /// A worker panicked and the panic was contained at an isolation
    /// boundary (per-cell `catch_unwind` in batch/fleet inference).
    /// Carries the rendered panic payload: non-string payloads are
    /// recorded as the typed
    /// [`NON_STRING_PANIC_PAYLOAD`](crate::runtime::NON_STRING_PANIC_PAYLOAD)
    /// marker, and oversized payloads are truncated to
    /// [`PANIC_MESSAGE_MAX_LEN`](crate::runtime::PANIC_MESSAGE_MAX_LEN)
    /// bytes (see [`panic_message`](crate::runtime::panic_message)).
    Panicked(String),
    /// A checkpoint could not be written or read (I/O or corrupt
    /// serialization).
    Checkpoint(String),
    /// A checkpoint was written by an incompatible snapshot-format
    /// version.
    CheckpointVersion {
        /// Version found in the file.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// A wire-protocol frame was malformed, truncated, oversized, or
    /// carried an undecodable payload. Every byte sequence a client
    /// can send maps to either a decoded message or this variant —
    /// never a panic and never an unbounded read (see
    /// [`runtime::wire`](crate::runtime::wire)).
    Wire(String),
}

impl fmt::Display for BluError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BluError::Sim(e) => write!(f, "simulation error: {e}"),
            BluError::TraceTooShort {
                what,
                needed,
                available,
            } => write!(
                f,
                "trace too short for {what}: need {needed} sub-frames, have {available}"
            ),
            BluError::InvalidTrace(msg) => write!(f, "invalid trace: {msg}"),
            BluError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            BluError::EmptyInput(what) => write!(f, "empty input: {what}"),
            BluError::Inference(msg) => write!(f, "inference failed: {msg}"),
            BluError::SetTooLarge { what, len, max } => write!(
                f,
                "client set too large for {what}: {len} members, at most {max} supported"
            ),
            BluError::Overflow { what } => write!(f, "arithmetic overflow computing {what}"),
            BluError::Panicked(payload) => {
                write!(f, "inference worker panicked (contained): {payload}")
            }
            BluError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
            BluError::CheckpointVersion { found, expected } => write!(
                f,
                "checkpoint format version {found} incompatible with expected {expected}"
            ),
            BluError::Wire(msg) => write!(f, "wire protocol error: {msg}"),
        }
    }
}

impl std::error::Error for BluError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BluError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for BluError {
    fn from(e: SimError) -> Self {
        BluError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = BluError::TraceTooShort {
            what: "measurement phase",
            needed: 100,
            available: 40,
        };
        let s = e.to_string();
        assert!(s.contains("measurement phase") && s.contains("100") && s.contains("40"));
    }

    #[test]
    fn sim_errors_convert_and_chain() {
        let sim = SimError::InvalidProbability {
            what: "q",
            value: 1.5,
        };
        let e: BluError = sim.clone().into();
        assert_eq!(e, BluError::Sim(sim));
        assert!(std::error::Error::source(&e).is_some());
    }
}
