//! Differential check of the streaming JSON emitter against the
//! pre-streaming writer (`serde_json::oracle`: serialize into a
//! `Value` tree, then render the tree) on every type that crosses a
//! process or disk boundary: cell snapshots (phased and streaming),
//! the checkpoint envelope, the serve sidecar, wire requests and
//! responses, and a captured trace. Digests, checkpoints, sidecars and
//! wire frames are byte-level contracts, so compact and pretty output
//! must agree byte for byte — and `snapshot_digest` must equal the
//! original clone → zero timing → serialize → hash definition.

use super::*;
use crate::engine::StreamState;
use crate::robust::tests::run_steps;
use crate::robust::{start_cell, StreamingConfig};
use crate::runtime::checkpoint::{CheckpointRef, RobustCheckpoint, CHECKPOINT_VERSION};
use blu_sim::clientset::ClientSet;
use proptest::prelude::*;

fn assert_same_bytes<T: Serialize>(what: &str, value: &T) {
    let compact = serde_json::to_string(value).unwrap();
    assert_eq!(
        compact,
        serde_json::oracle::to_string(value),
        "{what}: compact"
    );
    assert_eq!(
        serde_json::to_vec(value).unwrap(),
        compact.as_bytes(),
        "{what}: to_vec"
    );
    let pretty = serde_json::to_string_pretty(value).unwrap();
    assert_eq!(
        pretty,
        serde_json::oracle::to_string_pretty(value),
        "{what}: pretty"
    );
}

/// The digest as first defined: clone, zero the timing, render the
/// `Value` tree, FNV-1a-64 the text.
fn reference_digest(snap: &RobustSnapshot) -> String {
    let mut normalized = snap.clone();
    normalized.inference_micros = 0;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in serde_json::oracle::to_string(&normalized).bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn robust_config(spec: &CellSpec) -> RobustConfig {
    let mut cell = blu_phy::cell::CellConfig::testbed_siso();
    cell.numerology.n_rbs = 10;
    let emulation = crate::emulator::EmulationConfig::new(cell);
    let mut config = RobustConfig::new(crate::orchestrator::BluConfig::new(emulation));
    if spec.stream_window > 0 {
        config.streaming = Some(StreamingConfig::new(spec.stream_window as usize));
    }
    config
}

/// A cell's snapshot after `steps` state-machine arms.
fn run_cell(spec: &CellSpec, steps: usize) -> RobustSnapshot {
    let capture = capture_for_spec(spec).unwrap();
    let config = robust_config(spec);
    let (_, mut snap) = start_cell(&capture, &config).unwrap();
    run_steps(&capture, &config, &mut snap, steps);
    // Nonzero timing, so the digest's zeroing is observable.
    snap.inference_micros = 987_654;
    snap
}

fn phased_and_streaming() -> [(&'static str, RobustSnapshot); 2] {
    let phased = CellSpec::new(7, 10);
    let mut streaming = CellSpec::new(8, 10);
    streaming.churn_millihz = 500;
    streaming.stream_window = 300;
    [
        ("phased", run_cell(&phased, 12)),
        ("streaming", run_cell(&streaming, 24)),
    ]
}

fn status_report(snaps: &[&RobustSnapshot]) -> StatusReport {
    StatusReport {
        version: WIRE_VERSION,
        draining: true,
        max_cells: 64,
        counters: ServiceCounters {
            admissions: 3,
            busy_responses: u64::MAX,
            ..ServiceCounters::default()
        },
        cells: snaps
            .iter()
            .enumerate()
            .map(|(i, snap)| CellStatus {
                cell: i as u64,
                health: CellHealth::Degraded,
                state: snap.state,
                cursor: snap.cursor,
                trace_len: snap.trace_len,
                done: snap.done,
                restarts: 2,
                shed: i == 0,
                shed_rounds: 17,
                priority: 1,
                digest: snapshot_digest(snap),
                window_occupancy: snap
                    .stream
                    .as_ref()
                    .map_or(0, |s| s.window.occupancy() as u64),
                window_capacity: snap
                    .stream
                    .as_ref()
                    .map_or(0, |s| s.window.capacity() as u64),
            })
            .collect(),
    }
}

#[test]
fn boundary_types_stream_the_oracles_bytes() {
    let cells = phased_and_streaming();
    assert!(cells[0].1.stream.is_none() && cells[1].1.stream.is_some());
    assert_same_bytes(
        "trace",
        &capture_for_spec(&CellSpec::new(9, 4)).unwrap().trace,
    );
    for (what, snap) in &cells {
        assert_same_bytes(&format!("{what} snapshot"), snap);
        let owned = RobustCheckpoint {
            version: CHECKPOINT_VERSION,
            snapshot: snap.clone(),
        };
        assert_same_bytes(&format!("{what} checkpoint"), &owned);
        // The borrowing envelope a save writes renders the owned
        // document's bytes.
        assert_same_bytes(&format!("{what} checkpoint ref"), &CheckpointRef(snap));
        assert_eq!(
            serde_json::to_string_pretty(&CheckpointRef(snap)).unwrap(),
            serde_json::to_string_pretty(&owned).unwrap(),
            "{what} checkpoint ref"
        );
        assert_eq!(
            snapshot_digest(snap),
            reference_digest(snap),
            "{what} digest"
        );
    }

    let mut spec = CellSpec::new(u64::MAX, 20);
    spec.stall_at = Some(1_500);
    spec.churn_millihz = 250;
    // Every field set: a restart ledger, an error message with
    // escapes, and a spec with a stall.
    let sidecar = super::sidecar_fuzz::valid((u64::MAX, 3, 9), &[1_500, 77]);
    assert_same_bytes("cell sidecar", &sidecar.cell);
    assert_same_bytes("serve sidecar", &sidecar);

    let requests = [
        Request::Hello { version: 1 },
        Request::AddCell { spec },
        Request::RemoveCell { cell: 5 },
        Request::Step { rounds: 100_000 },
        Request::Status,
        Request::Metrics,
        Request::Snapshot,
        Request::Drain,
        Request::Shutdown,
    ];
    for req in &requests {
        assert_same_bytes(&format!("{req:?}"), req);
    }
    let snaps: Vec<&RobustSnapshot> = cells.iter().map(|c| &c.1).collect();
    let responses = [
        Response::Hello {
            version: 1,
            resumed_cells: 2,
        },
        Response::Done { cell: Some(4) },
        Response::Done { cell: None },
        Response::Busy,
        Response::Rejected {
            reason: "admission budget exhausted".into(),
        },
        Response::Status(status_report(&snaps)),
        Response::Status(status_report(&[])),
        Response::Metrics {
            text: "# TYPE blu_serve_rounds_total counter\nblu_serve_rounds_total 12\n".into(),
        },
        Response::Bye,
        Response::Error {
            message: "wire: \"bad\" frame\r\n".into(),
        },
    ];
    for resp in &responses {
        assert_same_bytes("response", resp);
    }
}

/// A float drawn from the non-finite values, signed zeros, extremes
/// and ordinary magnitudes.
fn float_strategy() -> impl Strategy<Value = f64> {
    (0u8..8, any::<f64>()).prop_map(|(kind, x)| match kind {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => f64::MAX,
        5 => f64::MIN_POSITIVE,
        _ => x,
    })
}

/// A string of quotes, backslashes, control characters, multi-byte
/// UTF-8 and plain text.
fn string_strategy() -> impl Strategy<Value = String> {
    const ALPHABET: [char; 12] = [
        '"', '\\', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{1}', '\u{1f}', '\u{7f}', 'é', 'x',
    ];
    proptest::collection::vec(0..ALPHABET.len(), 0..24)
        .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_windows_and_snapshot_states_stream_the_oracles_bytes(
        n_pick in 0usize..3,
        capacity in 1usize..40,
        subframes in proptest::collection::vec((any::<u128>(), any::<u128>()), 0..60),
        floats in proptest::collection::vec(float_strategy(), 4),
        micros in any::<u64>(),
        quarantined in any::<u64>(),
        text in string_strategy(),
    ) {
        // Up to 128 clients: sets over more than 64 serialize above
        // u64::MAX.
        let n = [5usize, 70, 128][n_pick];
        let mask = ClientSet::all(n).0;
        let mut stream = StreamState::new(n, capacity);
        for &(observed, accessible) in &subframes {
            stream
                .window
                .admit(ClientSet(observed & mask), ClientSet(accessible & mask));
        }
        stream.refines = micros / 3;

        let mut snap = RobustSnapshot::fresh(
            n,
            1_000,
            micros ^ quarantined,
            crate::runtime::breaker::BreakerConfig::default(),
        );
        snap.drift = crate::robust::DriftMonitor::new(0.2, n);
        snap.peak_drift = floats[0];
        snap.pf_avg = Some(floats.clone());
        snap.inference_micros = micros;
        snap.quarantined_constraints = quarantined;
        assert_same_bytes("window", &stream.window);
        assert_same_bytes("phased snapshot", &snap);
        prop_assert_eq!(snapshot_digest(&snap), reference_digest(&snap));
        snap.stream = Some(stream);
        assert_same_bytes("streaming snapshot", &snap);
        prop_assert_eq!(snapshot_digest(&snap), reference_digest(&snap));

        assert_same_bytes("error response", &Response::Error { message: text.clone() });
        assert_same_bytes("text value", &serde_json::json!({ "text": text, "floats": floats }));
    }
}
