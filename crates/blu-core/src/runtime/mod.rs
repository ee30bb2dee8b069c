//! Resilience runtime: the guarantees that keep blue-printing useful
//! when the environment — or the process — misbehaves.
//!
//! The BLU pipeline (measure → blue-print → speculate) assumes
//! inference finishes, workers don't die, and processes run to
//! completion. None of those hold at deployment scale: unlicensed-band
//! access decisions run under hard per-subframe time budgets, a latent
//! solver bug on one cell must not take down a fleet, and an eNB
//! restart must not discard hours of accumulated measurement evidence.
//! This module supplies the three corresponding mechanisms:
//!
//! * [`deadline`] — anytime inference: a cheap cancellation token
//!   checked at proposal granularity, so a deadline overrun degrades
//!   to a best-so-far blueprint instead of blocking the subframe
//!   clock;
//! * [`breaker`] — per-cell circuit breaking: repeatedly failing
//!   cells are parked in PF fallback behind an exponentially backed
//!   off, jittered retry schedule instead of burning re-measurement
//!   budget on every probation cycle;
//! * [`checkpoint`] — versioned, atomically written snapshots of
//!   orchestrator state, so `blu robust --resume` continues a run
//!   bit-identically after a crash.
//!
//! All three are deterministic by construction (the breaker's jitter
//! draws from a seeded [`blu_sim::rng::DetRng`]; the deadline's
//! step-budget arm never consults a clock), so the repository's
//! differential-testing discipline extends to its failure paths.

pub mod breaker;
pub mod checkpoint;
pub mod deadline;
pub mod lru;
pub mod service;
pub mod supervisor;
pub mod wire;

/// Marker recorded when a panic payload is neither `&str` nor
/// `String` (e.g. `panic_any(42)`): the payload cannot be rendered,
/// but the isolation boundary still reports a typed, grep-able value
/// instead of an empty message.
pub const NON_STRING_PANIC_PAYLOAD: &str = "<non-string panic payload>";

/// Longest rendered panic payload, in bytes. Payloads beyond this are
/// truncated (at a char boundary, with a `…` marker) so a
/// pathological `panic!` cannot bloat fleet reports or checkpoints.
pub const PANIC_MESSAGE_MAX_LEN: usize = 512;

/// Render a `catch_unwind` payload as a human-readable string.
///
/// Panic payloads are almost always `&str` (a literal) or `String`
/// (a `panic!("{…}")` format); anything else is summarized as
/// [`NON_STRING_PANIC_PAYLOAD`] rather than re-thrown so the
/// isolation boundary never loses the error. Oversized payloads are
/// truncated to [`PANIC_MESSAGE_MAX_LEN`] bytes.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let msg = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        NON_STRING_PANIC_PAYLOAD.to_string()
    };
    if msg.len() <= PANIC_MESSAGE_MAX_LEN {
        return msg;
    }
    let mut cut = PANIC_MESSAGE_MAX_LEN;
    while !msg.is_char_boundary(cut) {
        cut -= 1;
    }
    format!("{}… [truncated]", &msg[..cut])
}

pub use breaker::{BreakerConfig, BreakerState, BreakerTransition, CircuitBreaker};
pub use checkpoint::{
    load_robust_checkpoint, save_robust_checkpoint, RobustCheckpoint, CHECKPOINT_VERSION,
};
pub use deadline::{Deadline, DeadlineToken};
pub use lru::{CacheStats, LruCore};
pub use service::{capture_for_spec, snapshot_digest, BluService, ServiceConfig, ServiceHandle};
pub use supervisor::{
    run_supervised_fleet, run_supervised_fleet_with_hook, CellHealth, CellHealthReport,
    CellSupervisor, FailureKind, FleetHealthReport, HealthCause, HealthTransition, NullHook,
    RestartDecision, RestartSource, ShedAction, ShedEvent, SheddingPolicy, SupervisedFleetOutcome,
    SupervisorConfig, SupervisorHook,
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn message_of(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let payload = catch_unwind(f).unwrap_err();
        panic_message(payload.as_ref())
    }

    #[test]
    fn str_and_string_payloads_render_verbatim() {
        assert_eq!(message_of(|| panic!("plain literal")), "plain literal");
        let dynamic = String::from("formatted 42");
        assert_eq!(
            message_of(AssertUnwindSafe(move || panic!("{dynamic}"))),
            "formatted 42"
        );
    }

    #[test]
    fn non_string_payload_gets_typed_marker() {
        assert_eq!(
            message_of(|| std::panic::panic_any(42u32)),
            NON_STRING_PANIC_PAYLOAD
        );
        assert_eq!(
            message_of(|| std::panic::panic_any(vec![1u8, 2, 3])),
            NON_STRING_PANIC_PAYLOAD
        );
    }

    #[test]
    fn oversized_payload_is_truncated_at_char_boundary() {
        // Multi-byte chars positioned across the cut point: the cut
        // must land on a boundary, never mid-codepoint.
        let big = "é".repeat(PANIC_MESSAGE_MAX_LEN); // 2 bytes each
        let msg = message_of(AssertUnwindSafe(move || std::panic::panic_any(big)));
        assert!(msg.len() <= PANIC_MESSAGE_MAX_LEN + "… [truncated]".len());
        assert!(msg.ends_with("… [truncated]"));
        assert!(msg.starts_with('é'));

        let exact = "x".repeat(PANIC_MESSAGE_MAX_LEN);
        let kept = message_of(AssertUnwindSafe({
            let exact = exact.clone();
            move || std::panic::panic_any(exact)
        }));
        assert_eq!(kept, exact, "payloads at the limit pass untouched");
    }
}
