//! Property tests of the fleet supervisor's per-cell health machine.
//!
//! [`CellSupervisor`] is deliberately a pure state machine — no I/O,
//! no clock, no RNG — precisely so these properties can be checked
//! over arbitrary interleavings of watchdog evidence:
//!
//! * every recorded transition is drawn from the machine's legal edge
//!   set (and its `from` chains to the previous `to`);
//! * the restart budget is **monotone**: `restarts_used` never
//!   decreases and never exceeds the configured maximum;
//! * `Quarantined` is **absorbing** within a run: once entered, no
//!   input sequence leaves it or records further transitions;
//! * the watchdog fires a stall on every hard-stalled step and on no
//!   other step.

use blu_core::runtime::supervisor::{
    CellHealth, CellSupervisor, FailureKind, HealthCause, RestartDecision, SupervisorConfig,
};
use proptest::prelude::*;

/// One step of randomized watchdog evidence.
#[derive(Debug, Clone, Copy)]
enum Input {
    Breaker { open: bool },
    Step { hard_stalled: bool },
    Failure(FailureKind),
    RestartComplete,
}

fn input_strategy() -> impl Strategy<Value = Input> {
    // (which arm, breaker-open, hard-stalled, which kind)
    (0u8..4, any::<bool>(), any::<bool>(), 0u8..3).prop_map(|(arm, open, hard_stalled, kind)| {
        match arm {
            0 => Input::Breaker { open },
            1 => Input::Step { hard_stalled },
            2 => Input::Failure(match kind {
                0 => FailureKind::Panic,
                1 => FailureKind::Stall,
                _ => FailureKind::Error,
            }),
            _ => Input::RestartComplete,
        }
    })
}

/// The machine's legal edge set: anything else is a bug.
fn edge_is_legal(from: CellHealth, to: CellHealth, cause: HealthCause) -> bool {
    use CellHealth::*;
    use HealthCause::*;
    matches!(
        (from, to, cause),
        (Healthy, Degraded, BreakerOpen)
            | (Degraded, Healthy, BreakerRecovered)
            | (
                Healthy | Degraded | Restarting,
                Restarting,
                Panic | Stall | Error
            )
            | (Restarting, Healthy, RestartComplete)
            | (
                Healthy | Degraded | Restarting,
                Quarantined,
                RetryBudgetExhausted
            )
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_evidence_never_reaches_an_illegal_state(
        max_restarts in 0u32..5,
        inputs in proptest::collection::vec(input_strategy(), 0..200),
    ) {
        let config = SupervisorConfig {
            max_restarts,
            ..Default::default()
        };
        let mut m = CellSupervisor::new(&config);
        let mut prev_restarts = 0u32;
        let mut quarantined_at: Option<usize> = None;

        for (sf, input) in inputs.iter().enumerate() {
            let before = m.health();
            let transitions_before = m.transitions().len();
            match *input {
                Input::Breaker { open } => m.note_breaker(sf as u64, open),
                Input::Step { hard_stalled } => {
                    let fired = m.note_step(hard_stalled);
                    if hard_stalled {
                        prop_assert_eq!(fired, Some(FailureKind::Stall),
                            "a hard stall must fire immediately");
                    } else {
                        prop_assert_eq!(fired, None, "only a hard stall fires the watchdog");
                    }
                }
                Input::Failure(kind) => {
                    match m.on_failure(sf as u64, kind) {
                        RestartDecision::Restart { attempt } => {
                            prop_assert!(before != CellHealth::Quarantined);
                            prop_assert_eq!(attempt, m.restarts_used());
                            prop_assert_eq!(m.health(), CellHealth::Restarting);
                        }
                        RestartDecision::Quarantine => {
                            prop_assert_eq!(m.health(), CellHealth::Quarantined);
                        }
                    }
                }
                Input::RestartComplete => m.restart_complete(sf as u64),
            }

            // Budget monotonicity, bounded by the configuration.
            prop_assert!(m.restarts_used() >= prev_restarts, "budget went backwards");
            prop_assert!(m.restarts_used() <= max_restarts, "budget overdrawn");
            prev_restarts = m.restarts_used();

            // Quarantine is absorbing: no exit, no further ledger.
            if let Some(at) = quarantined_at {
                prop_assert_eq!(m.health(), CellHealth::Quarantined,
                    "left quarantine entered at input {}", at);
                prop_assert_eq!(m.transitions().len(), transitions_before);
            }
            if m.health() == CellHealth::Quarantined && quarantined_at.is_none() {
                quarantined_at = Some(sf);
            }
        }

        // Every recorded transition is a legal edge, and they chain.
        let transitions = m.transitions();
        for t in transitions {
            prop_assert!(edge_is_legal(t.from, t.to, t.cause),
                "illegal edge {:?} -> {:?} via {:?}", t.from, t.to, t.cause);
        }
        let mut state = CellHealth::Healthy;
        for t in transitions {
            prop_assert_eq!(t.from, state, "transition chain broke");
            state = t.to;
        }
        prop_assert_eq!(state, m.health(), "ledger disagrees with final health");
        let sfs: Vec<u64> = transitions.iter().map(|t| t.at_subframe).collect();
        prop_assert!(sfs.windows(2).all(|w| w[0] <= w[1]), "ledger out of order");
    }
}
