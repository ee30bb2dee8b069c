//! Fuzz of the checkpoint decoder as every resume runs it:
//! [`load_robust_checkpoint`] followed by [`check_snapshot`] (the
//! unsupervised loop, the supervised batch fleet and the daemon all
//! adopt a snapshot through that pair). Random bytes, deep nesting and
//! mutated valid phased and streaming checkpoints must give a typed
//! error or an in-bounds snapshot that round-trips byte-identically,
//! and a cursor past the trace end must be rejected.

use crate::engine::CellGeometry;
use crate::error::BluError;
use crate::robust::tests::{capture, quick_config, run_steps};
use crate::robust::{check_snapshot, start_cell, RobustSnapshot, StreamingConfig};
use crate::runtime::checkpoint::{load_robust_checkpoint, save_robust_checkpoint};
use blu_sim::faults::FaultScript;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;

/// One cell's geometry and seed, and two valid snapshots of it a few
/// steps in: phased, and streaming (with a window in the file).
struct Fixture {
    geom: CellGeometry,
    seed: u64,
    snaps: [RobustSnapshot; 2],
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let cap = capture(FaultScript::none(), 60, 71);
        let phased = quick_config();
        let mut streaming = quick_config();
        streaming.streaming = Some(StreamingConfig::new(64));
        let snaps = [&phased, &streaming].map(|cfg| {
            let (_, mut snap) = start_cell(&cap, cfg).unwrap();
            assert!(run_steps(&cap, cfg, &mut snap, 3));
            snap
        });
        assert!(snaps[1].stream.is_some() && snaps[0].stream.is_none());
        Fixture {
            geom: CellGeometry::derive(&cap.trace, &phased.blu.emulation),
            seed: phased.seed,
            snaps,
        }
    })
}

/// A file of this test thread's own (proptest cases of one test run
/// in sequence; tests run on parallel threads), removed after each
/// use.
fn scratch_file() -> PathBuf {
    std::env::temp_dir().join(format!(
        "blu-ckpt-fuzz-{}-{:?}.json",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// The bytes `save_robust_checkpoint` writes for `snap`.
fn encode(snap: &RobustSnapshot) -> Vec<u8> {
    let path = scratch_file();
    save_robust_checkpoint(&path, snap).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    bytes
}

/// Load `bytes` as a checkpoint file and guard it as a resume would.
fn adopt(bytes: &[u8]) -> Result<RobustSnapshot, BluError> {
    let path = scratch_file();
    std::fs::write(&path, bytes).unwrap();
    let loaded = load_robust_checkpoint(&path);
    std::fs::remove_file(&path).unwrap();
    let snap = loaded?;
    let fx = fixture();
    check_snapshot(&snap, &fx.geom, fx.seed)?;
    Ok(snap)
}

/// A typed error, or an in-bounds snapshot whose encoding re-adopts
/// and re-encodes to the same bytes.
fn check_adopt(bytes: &[u8]) -> Result<(), TestCaseError> {
    let Ok(snap) = adopt(bytes) else {
        return Ok(());
    };
    let fx = fixture();
    prop_assert_eq!(
        (snap.n_clients, snap.trace_len, snap.config_seed),
        (fx.geom.n as u64, fx.geom.trace_len, fx.seed)
    );
    prop_assert!(snap.cursor <= snap.trace_len);
    let first = encode(&snap);
    let again = adopt(&first).map_err(|e| TestCaseError::fail(e.to_string()))?;
    prop_assert_eq!(encode(&again), first);
    Ok(())
}

#[test]
fn valid_checkpoints_round_trip_byte_identically() {
    for snap in &fixture().snaps {
        let bytes = encode(snap);
        assert_eq!(adopt(&bytes).as_ref(), Ok(snap));
        check_adopt(&bytes).unwrap();
    }
}

#[test]
fn deeply_nested_checkpoints_are_typed_errors() {
    let deep = "[".repeat(100_000);
    for text in [
        format!("{{\"version\":1,\"snapshot\":{{\"est\":{deep}"),
        format!("{{\"version\":1,\"snapshot\":{{\"stream\":{{\"window\":{deep}"),
        deep.clone(),
    ] {
        assert!(adopt(text.as_bytes()).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mutated_guard_fields_are_checked(
        streaming in any::<bool>(),
        field in 0usize..4,
        value in any::<u64>(),
        past_end in 1u64..u64::MAX / 2,
    ) {
        let fx = fixture();
        let mut snap = fx.snaps[usize::from(streaming)].clone();
        match field {
            0 => snap.n_clients = value,
            1 => snap.trace_len = value,
            2 => snap.config_seed = value,
            _ => snap.cursor = value,
        }
        let in_bounds = snap.n_clients == fx.geom.n as u64
            && snap.trace_len == fx.geom.trace_len
            && snap.config_seed == fx.seed
            && snap.cursor <= snap.trace_len;
        prop_assert_eq!(adopt(&encode(&snap)).is_ok(), in_bounds);
        check_adopt(&encode(&snap))?;

        // A cursor past the trace end is always rejected, typed.
        let mut snap = fx.snaps[usize::from(streaming)].clone();
        snap.cursor = snap.trace_len + past_end;
        let rejected = matches!(
            adopt(&encode(&snap)),
            Err(BluError::Checkpoint(msg)) if msg.contains("past the end")
        );
        prop_assert!(rejected);
    }

    #[test]
    fn mutated_and_random_bytes_give_a_typed_error_or_a_valid_snapshot(
        streaming in any::<bool>(),
        edits in proptest::collection::vec((any::<usize>(), any::<u8>(), 0u8..4), 1..6),
        noise in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut bytes = encode(&fixture().snaps[usize::from(streaming)]);
        for &(at, byte, kind) in &edits {
            let at = at % (bytes.len() + 1);
            match kind {
                0 if at < bytes.len() => bytes[at] = byte,
                1 if at < bytes.len() => drop(bytes.remove(at)),
                2 => bytes.insert(at, byte),
                _ => bytes.truncate(at),
            }
        }
        check_adopt(&bytes)?;
        check_adopt(&noise)?;
    }
}
