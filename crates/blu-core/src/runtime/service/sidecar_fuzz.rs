//! Fuzz of the sidecar decoders: the batch fleet's [`CellSidecar`]
//! and the daemon's [`ServeSidecar`] wrapper. Random bytes, deep
//! nesting and mutated valid encodings must decode to a typed error
//! or to a value within the supervisor's bounds, and every valid value
//! must round-trip.

use super::*;
use crate::runtime::supervisor::{
    HealthCause, HealthTransition, RestartSource, CELL_SIDECAR_VERSION, MAX_RESTART_WAIT_ROUNDS,
};
use crate::runtime::wire::{MAX_CELL_SECONDS, MAX_CHURN_MILLIHZ};
use proptest::prelude::*;

const HEALTH: [CellHealth; 4] = [
    CellHealth::Healthy,
    CellHealth::Degraded,
    CellHealth::Restarting,
    CellHealth::Quarantined,
];

/// A serve sidecar within the default supervisor's bounds, from raw
/// draws; its `cell` is the batch sidecar under test.
pub(super) fn valid((a, b, c): (u64, u64, u64), events: &[u64]) -> ServeSidecar {
    let sup = SupervisorConfig::default();
    let pick = |e: u64| HEALTH[(e % 4) as usize];
    let sources = [
        RestartSource::DiskCheckpoint,
        RestartSource::MemorySnapshot,
        RestartSource::Fresh,
    ];
    let cell = CellSidecar {
        version: CELL_SIDECAR_VERSION,
        health: pick(a),
        restarts_used: (a >> 8) as u32 % (sup.max_restarts + 1),
        crashes_fired: b % 4,
        crashes_observed: b >> 2,
        backoff_rounds_left: c % (MAX_RESTART_WAIT_ROUNDS + 1),
        shed: c >> 63 == 1,
        shed_rounds: c >> 8,
        finished: b & 1 == 1,
        transitions: events
            .iter()
            .map(|&e| HealthTransition {
                at_subframe: e >> 8,
                from: pick(e),
                to: pick(e >> 2),
                cause: [HealthCause::Panic, HealthCause::BreakerOpen][(e >> 4) as usize % 2],
            })
            .collect(),
        restart_sources: events.iter().map(|&e| sources[(e % 3) as usize]).collect(),
        last_error: (a & 1 == 1).then(|| "stage \"infer\" panicked:\n\té \\ \u{1}".into()),
    };
    let spec = CellSpec {
        seed: a,
        seconds: 1 + c % MAX_CELL_SECONDS,
        priority: (b >> 32) as u32,
        stall_at: (a & 2 == 2).then_some(b >> 3),
        stall_factor: 1 + (c >> 32) as u32 % 16,
        churn_millihz: b % (MAX_CHURN_MILLIHZ + 1),
        stream_window: c % (crate::robust::MAX_STREAM_WINDOW as u64 + 1),
    };
    ServeSidecar { id: b, spec, cell }
}

/// Both decoders over one text: each gives a typed error or a value
/// within bounds that round-trips through its own encoding.
fn check_decoders(text: &str) -> Result<(), TestCaseError> {
    let sup = SupervisorConfig::default();
    if let Ok(cell) = CellSidecar::decode(text, &sup) {
        prop_assert!(cell.check_bounds(&sup).is_ok());
        let again = serde_json::to_string(&cell).unwrap();
        prop_assert_eq!(CellSidecar::decode(&again, &sup), Ok(cell));
    }
    if let Ok(side) = ServeSidecar::decode(text, &sup) {
        prop_assert!(side.cell.check_bounds(&sup).is_ok() && side.spec.validate().is_ok());
        let again = serde_json::to_string(&side).unwrap();
        prop_assert_eq!(ServeSidecar::decode(&again, &sup), Ok(side));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn valid_sidecars_round_trip(
        draws in (any::<u64>(), any::<u64>(), any::<u64>()),
        events in proptest::collection::vec(any::<u64>(), 0..6),
    ) {
        let sup = SupervisorConfig::default();
        let side = valid(draws, &events);
        let pretty = serde_json::to_string_pretty(&side).unwrap();
        prop_assert_eq!(ServeSidecar::decode(&pretty, &sup), Ok(side.clone()));
        let cell = serde_json::to_string(&side.cell).unwrap();
        prop_assert_eq!(CellSidecar::decode(&cell, &sup), Ok(side.cell));
    }

    #[test]
    fn mutated_and_random_bytes_decode_to_a_typed_error_or_a_valid_value(
        draws in (any::<u64>(), any::<u64>(), any::<u64>()),
        edits in proptest::collection::vec((any::<usize>(), any::<u8>(), 0u8..4), 1..6),
        noise in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let side = valid(draws, &[draws.0]);
        for mut bytes in [serde_json::to_vec(&side).unwrap(), serde_json::to_vec(&side.cell).unwrap()] {
            for &(at, byte, kind) in &edits {
                let at = at % (bytes.len() + 1);
                match kind {
                    0 if at < bytes.len() => bytes[at] = byte,
                    1 if at < bytes.len() => drop(bytes.remove(at)),
                    2 => bytes.insert(at, byte),
                    _ => bytes.truncate(at),
                }
            }
            check_decoders(&String::from_utf8_lossy(&bytes))?;
        }
        check_decoders(&String::from_utf8_lossy(&noise))?;
    }
}

#[test]
fn deeply_nested_sidecars_are_typed_errors() {
    let sup = SupervisorConfig::default();
    let deep = "[".repeat(100_000);
    for text in [
        format!("{{\"version\":3,\"transitions\":{deep}"),
        format!("{{\"id\":0,\"cell\":{{\"version\":3,\"restart_sources\":{deep}"),
        deep.clone(),
    ] {
        assert!(CellSidecar::decode(&text, &sup).is_err());
        assert!(ServeSidecar::decode(&text, &sup).is_err());
    }
}
