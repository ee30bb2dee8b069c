//! Integration tests of the `blu serve` daemon: wire-protocol
//! hardening against a live socket, admission control, bounded-queue
//! backpressure, watermark shedding, and the graceful-drain →
//! crash-safe-resume contract.
//!
//! Everything here drives a real [`BluService`] over real TCP — the
//! same code path `blu ctl` exercises. All but one test use manual
//! cadence, so every fleet advance is an explicit `Step` command; the
//! cadence test checks that a daemon stepping on its own clock ends
//! at the same digests.

use blu_core::orchestrator::BluConfig;
use blu_core::robust::RobustConfig;
use blu_core::runtime::supervisor::{CellHealth, SheddingPolicy};
use blu_core::runtime::wire::{
    read_frame, roundtrip, write_frame, CellSpec, Request, Response, StatusReport,
    DEFAULT_MAX_FRAME, MAX_CELL_SECONDS, MAX_CHURN_MILLIHZ, WIRE_VERSION,
};
use blu_core::runtime::{BluService, ServiceConfig, ServiceHandle};
use blu_core::EmulationConfig;
use blu_phy::cell::CellConfig;
use blu_sim::rng::DetRng;
use rand::RngCore;
use std::io::Write;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn quick_robust() -> RobustConfig {
    let mut cell = CellConfig::testbed_siso();
    cell.numerology.n_rbs = 10;
    RobustConfig::new(BluConfig::new(EmulationConfig::new(cell)))
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("blu-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(dir: &Path, resume: bool, f: impl FnOnce(&mut ServiceConfig)) -> ServiceHandle {
    let mut config = ServiceConfig::new(quick_robust(), dir.to_path_buf());
    config.resume = resume;
    f(&mut config);
    BluService::start(config).expect("daemon starts")
}

fn connect(handle: &ServiceHandle) -> TcpStream {
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    stream
}

fn ask(handle: &ServiceHandle, req: &Request) -> Response {
    let mut stream = connect(handle);
    roundtrip(&mut stream, req, DEFAULT_MAX_FRAME).expect("roundtrip")
}

fn status_of(handle: &ServiceHandle) -> StatusReport {
    match ask(handle, &Request::Status) {
        Response::Status(status) => status,
        other => panic!("expected Status, got {other:?}"),
    }
}

fn add_cell(handle: &ServiceHandle, spec: CellSpec) -> u64 {
    match ask(handle, &Request::AddCell { spec }) {
        Response::Done { cell: Some(id) } => id,
        other => panic!("expected admission, got {other:?}"),
    }
}

fn step(handle: &ServiceHandle, rounds: u64) {
    match ask(handle, &Request::Step { rounds }) {
        Response::Done { .. } => {}
        other => panic!("expected Done, got {other:?}"),
    }
}

fn step_to_completion(handle: &ServiceHandle) -> StatusReport {
    for _ in 0..200 {
        step(handle, 500);
        let status = status_of(handle);
        if !status.cells.is_empty() && status.cells.iter().all(|c| c.done) {
            return status;
        }
    }
    panic!("fleet did not finish");
}

fn digests(status: &StatusReport) -> Vec<(u64, String)> {
    status
        .cells
        .iter()
        .map(|c| (c.cell, c.digest.clone()))
        .collect()
}

// ---------------------------------------------------------------------------
// Wire hardening: every malformed input is a typed reply or a clean
// close, never a hang — and the daemon survives all of it.
// ---------------------------------------------------------------------------

#[test]
fn malformed_wire_input_yields_typed_errors_and_daemon_survives() {
    let dir = scratch_dir("harden");
    let handle = start(&dir, false, |_| {});

    let expect_error_then_close = |bytes: &[u8]| {
        let mut stream = connect(&handle);
        stream.write_all(bytes).expect("write raw bytes");
        // The daemon may also just close the connection instead of
        // answering — fine; what it must never do is hang or crash.
        if let Ok(Some(payload)) = read_frame(&mut stream, DEFAULT_MAX_FRAME) {
            let resp: Response = serde_json::from_slice(&payload).expect("typed reply");
            assert!(
                matches!(resp, Response::Error { ref message } if message.contains("wire")),
                "expected a wire error reply, got {resp:?}"
            );
        }
    };

    // Oversized length prefix (claims ~4 GiB).
    expect_error_then_close(&[0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0]);
    // Zero-length frame.
    expect_error_then_close(&0u32.to_be_bytes());
    // Garbage payload under a valid prefix.
    {
        let mut bytes = 12u32.to_be_bytes().to_vec();
        bytes.extend_from_slice(b"not json :-(");
        expect_error_then_close(&bytes);
    }
    // Mid-prefix disconnect.
    {
        let mut stream = connect(&handle);
        stream.write_all(&[0u8, 1]).unwrap();
        drop(stream);
    }
    // Mid-frame disconnect: prefix promises 64 bytes, 8 arrive.
    {
        let mut stream = connect(&handle);
        stream.write_all(&64u32.to_be_bytes()).unwrap();
        stream.write_all(&[1u8; 8]).unwrap();
        drop(stream);
    }
    // Deterministic fuzz: random byte blobs, raw on the socket.
    let mut rng = DetRng::seed_from_u64(0xF422);
    for _ in 0..32 {
        let len = (rng.next_u32() % 64) as usize + 1;
        let blob: Vec<u8> = (0..len).map(|_| (rng.next_u32() & 0xFF) as u8).collect();
        let mut stream = connect(&handle);
        let _ = stream.write_all(&blob);
        drop(stream);
    }

    // The daemon survived all of it: the handshake still works, cells
    // still admit and step, and the malformed-frame counter moved.
    match ask(
        &handle,
        &Request::Hello {
            version: WIRE_VERSION,
        },
    ) {
        Response::Hello { version, .. } => assert_eq!(version, WIRE_VERSION),
        other => panic!("daemon no longer answers hello: {other:?}"),
    }
    add_cell(&handle, CellSpec::new(3, 10));
    step(&handle, 5);
    let status = status_of(&handle);
    assert_eq!(status.cells.len(), 1);
    assert!(
        status.counters.malformed_frames >= 3,
        "malformed frames must be counted, got {}",
        status.counters.malformed_frames
    );

    // A wrong-version handshake is a typed refusal.
    match ask(&handle, &Request::Hello { version: 999 }) {
        Response::Error { message } => assert!(message.contains("version"), "{message}"),
        other => panic!("expected a version error, got {other:?}"),
    }

    handle.shutdown();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overflowing_cell_duration_is_a_typed_error_and_residents_are_untouched() {
    // `seconds` arrives over the wire and is scaled to microseconds:
    // a count whose product overflows u64 must bounce as a typed
    // error instead of wrapping (release) or killing the engine
    // thread (debug), and must not disturb the cells already resident.
    let dir = scratch_dir("overflow-secs");
    let handle = start(&dir, false, |_| {});
    add_cell(&handle, CellSpec::new(5, 10));
    step(&handle, 50);
    let before = digests(&status_of(&handle));

    match ask(
        &handle,
        &Request::AddCell {
            spec: CellSpec::new(6, u64::MAX),
        },
    ) {
        Response::Error { message } => assert!(message.contains("overflow"), "{message}"),
        other => panic!("expected a typed Error, got {other:?}"),
    }
    let status = status_of(&handle);
    assert_eq!(digests(&status), before);
    assert_eq!(status.counters.admissions, 1);
    // The engine thread is still alive and stepping.
    step(&handle, 1);
    assert_eq!(status_of(&handle).cells.len(), 1);

    handle.shutdown();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

fn sidecars(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter(|e| {
                    e.as_ref()
                        .is_ok_and(|e| e.file_name().to_string_lossy().ends_with(".serve.json"))
                })
                .count()
        })
        .unwrap_or(0)
}

#[test]
fn deeply_nested_frame_is_a_typed_error_and_residents_are_untouched() {
    // 200,000 `[` in a 200 KB frame (under the 1 MiB frame limit):
    // decoding must stop at the parser's nesting limit with a typed
    // reply instead of recursing off the connection thread's stack.
    let dir = scratch_dir("deep-frame");
    let handle = start(&dir, false, |_| {});
    add_cell(&handle, CellSpec::new(5, 10));
    step(&handle, 50);
    let before = digests(&status_of(&handle));

    let mut payload = br#"{"AddCell":{"spec":"#.to_vec();
    payload.extend(std::iter::repeat_n(b'[', 200_000));
    let mut stream = connect(&handle);
    write_frame(&mut stream, &payload, DEFAULT_MAX_FRAME).expect("write deep frame");
    let reply = read_frame(&mut stream, DEFAULT_MAX_FRAME)
        .expect("read reply")
        .expect("the daemon answers the deep frame");
    match serde_json::from_slice::<Response>(&reply).expect("typed reply") {
        Response::Error { message } => {
            assert!(message.contains("recursion limit"), "{message}")
        }
        other => panic!("expected a typed Error, got {other:?}"),
    }
    drop(stream);

    // Still serving, the resident cell unchanged and still stepping.
    let status = status_of(&handle);
    assert_eq!(digests(&status), before);
    assert_eq!(status.counters.admissions, 1);
    step(&handle, 1);
    assert_eq!(status_of(&handle).cells.len(), 1);

    handle.shutdown();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unbounded_stream_window_is_refused_at_admission() {
    // The observation ring is allocated on the cell's first step; a
    // window past the bound must bounce at admission with a typed
    // error, before a sidecar makes it part of the resume roster.
    let dir = scratch_dir("stream-window");
    let handle = start(&dir, false, |_| {});
    add_cell(
        &handle,
        CellSpec {
            stream_window: 2_000,
            churn_millihz: 500,
            ..CellSpec::new(5, 10)
        },
    );
    step(&handle, 50);
    let before = digests(&status_of(&handle));
    assert_eq!(sidecars(&dir), 1);

    for stream_window in [1u64 << 40, u64::MAX] {
        let spec = CellSpec {
            stream_window,
            ..CellSpec::new(6, 10)
        };
        match ask(&handle, &Request::AddCell { spec }) {
            Response::Error { message } => {
                assert!(message.contains("invalid configuration"), "{message}");
                assert!(message.contains("stream_window"), "{message}");
            }
            other => panic!("expected a typed InvalidConfig error, got {other:?}"),
        }
        assert_eq!(sidecars(&dir), 1, "a refused cell writes no sidecar");
        let status = status_of(&handle);
        assert_eq!(digests(&status), before);
        assert_eq!(status.counters.admissions, 1);
    }
    // The engine thread is alive and the resident cell steps on.
    step(&handle, 1);
    assert_eq!(status_of(&handle).cells.len(), 1);

    handle.shutdown();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Admit a well-formed cell, then offer each hostile spec: every one
/// must get a typed `InvalidConfig` error naming `field`, write no
/// sidecar, and leave the resident cell's digest alone.
fn assert_refused_at_admission(tag: &str, hostile: &[CellSpec], field: &str) {
    let dir = scratch_dir(tag);
    let handle = start(&dir, false, |_| {});
    add_cell(&handle, CellSpec::new(5, 10));
    step(&handle, 50);
    let before = digests(&status_of(&handle));
    for spec in hostile {
        match ask(&handle, &Request::AddCell { spec: spec.clone() }) {
            Response::Error { message } => {
                assert!(message.contains("invalid configuration"), "{message}");
                assert!(message.contains(field), "{message}");
            }
            other => panic!("expected a typed InvalidConfig error, got {other:?}"),
        }
        assert_eq!(sidecars(&dir), 1, "a refused cell writes no sidecar");
        let status = status_of(&handle);
        assert_eq!(digests(&status), before);
        assert_eq!(status.counters.admissions, 1);
    }
    step(&handle, 1);
    assert_eq!(status_of(&handle).cells.len(), 1);
    handle.shutdown();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overlong_cell_duration_is_refused_at_admission() {
    // The capture is synthesised on the engine thread at admission:
    // a duration past the bound (but short of overflowing) must bounce
    // before any of it is generated.
    let hostile: Vec<CellSpec> = [MAX_CELL_SECONDS + 1, 1 << 40]
        .into_iter()
        .map(|seconds| CellSpec::new(6, seconds))
        .collect();
    assert_refused_at_admission("long-secs", &hostile, "seconds");
}

#[test]
fn excessive_churn_rate_is_refused_at_admission() {
    let hostile: Vec<CellSpec> = [MAX_CHURN_MILLIHZ + 1, u64::MAX]
        .into_iter()
        .map(|churn_millihz| CellSpec {
            churn_millihz,
            ..CellSpec::new(6, 10)
        })
        .collect();
    assert_refused_at_admission("churn-rate", &hostile, "churn_millihz");
}

#[test]
fn oversized_frame_is_refused_before_allocation() {
    let dir = scratch_dir("bigframe");
    // A deliberately tiny frame limit.
    let handle = start(&dir, false, |c| c.max_frame = 4_096);

    // A 1 MiB prefix against the 4 KiB limit: typed error, socket
    // closed, daemon alive.
    let mut stream = connect(&handle);
    stream.write_all(&(1u32 << 20).to_be_bytes()).unwrap();
    stream.write_all(&[0u8; 128]).unwrap();
    if let Ok(Some(payload)) = read_frame(&mut stream, DEFAULT_MAX_FRAME) {
        let resp: Response = serde_json::from_slice(&payload).unwrap();
        assert!(matches!(resp, Response::Error { .. }), "{resp:?}");
    }
    drop(stream);

    // And a frame the *client* would overflow with is refused by the
    // client-side writer too.
    let mut stream = connect(&handle);
    let huge = vec![0u8; 8_192];
    assert!(write_frame(&mut stream, &huge, 4_096).is_err());

    assert!(status_of(&handle).cells.is_empty());
    handle.shutdown();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Admission control and backpressure
// ---------------------------------------------------------------------------

#[test]
fn admission_budget_rejects_and_drain_closes_admissions() {
    let dir = scratch_dir("admission");
    let handle = start(&dir, false, |c| c.max_cells = 2);

    add_cell(&handle, CellSpec::new(1, 10));
    add_cell(&handle, CellSpec::new(2, 10));
    match ask(
        &handle,
        &Request::AddCell {
            spec: CellSpec::new(3, 10),
        },
    ) {
        Response::Rejected { reason } => assert!(reason.contains("budget"), "{reason}"),
        other => panic!("expected Rejected, got {other:?}"),
    }

    // Removing a cell frees budget.
    match ask(&handle, &Request::RemoveCell { cell: 0 }) {
        Response::Done { cell: Some(0) } => {}
        other => panic!("expected removal, got {other:?}"),
    }
    add_cell(&handle, CellSpec::new(3, 10));

    // Draining closes admissions for good.
    assert!(matches!(
        ask(&handle, &Request::Drain),
        Response::Done { .. }
    ));
    match ask(
        &handle,
        &Request::AddCell {
            spec: CellSpec::new(4, 10),
        },
    ) {
        Response::Rejected { reason } => assert!(reason.contains("drain"), "{reason}"),
        other => panic!("expected Rejected while draining, got {other:?}"),
    }
    let status = status_of(&handle);
    assert!(status.draining);
    assert_eq!(status.counters.rejections, 2);
    assert_eq!(status.counters.admissions, 3);

    handle.shutdown();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn saturated_command_queue_answers_busy() {
    let dir = scratch_dir("busy");
    let handle = start(&dir, false, |c| c.queue_depth = 1);
    add_cell(&handle, CellSpec::new(5, 60));
    add_cell(&handle, CellSpec::new(6, 60));

    // Sixteen barrier-synchronized clients each fire a long Step burst
    // at the 1-deep queue: the engine can hold one in flight plus one
    // queued, so most of the wave must bounce with Busy — and nothing
    // may hang or crash the daemon.
    let addr = handle.addr();
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(16));
    let clients: Vec<_> = (0..16)
        .map(|_| {
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(300)))
                    .unwrap();
                barrier.wait();
                roundtrip(
                    &mut stream,
                    &Request::Step { rounds: 200 },
                    DEFAULT_MAX_FRAME,
                )
                .unwrap()
            })
        })
        .collect();
    let mut busy = 0u64;
    let mut done = 0u64;
    for client in clients {
        match client.join().unwrap() {
            Response::Busy => busy += 1,
            Response::Done { .. } => done += 1,
            other => panic!("unexpected reply under load: {other:?}"),
        }
    }
    assert!(busy > 0, "a saturated queue must answer Busy at least once");
    assert!(done > 0, "accepted commands still complete");
    let status = status_of(&handle);
    assert_eq!(status.counters.busy_responses, busy);

    handle.shutdown();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn watermark_overload_sheds_low_priority_and_readmits() {
    let dir = scratch_dir("shed");
    // One healthy high-priority cell plus one 4×-stalled low-priority
    // cell: pressure 5 exceeds the high watermark, so the stalled cell
    // must be shed to PF and later re-admitted once pressure drops.
    let handle = start(&dir, false, |c| {
        c.supervisor.shedding = Some(SheddingPolicy {
            high_watermark: 3.0,
            low_watermark: 0.5,
            priorities: Vec::new(),
        });
    });
    add_cell(
        &handle,
        CellSpec {
            priority: 1,
            ..CellSpec::new(61, 30)
        },
    );
    add_cell(
        &handle,
        CellSpec {
            priority: 0,
            stall_at: Some(0),
            stall_factor: 4,
            ..CellSpec::new(62, 30)
        },
    );
    let finished = step_to_completion(&handle);
    assert!(finished.counters.shed_events > 0, "overload must shed");
    assert!(
        finished.counters.readmit_events > 0,
        "pressure drop must re-admit"
    );
    assert!(finished.counters.shed_rounds_total > 0);
    let low = finished.cells.iter().find(|c| c.cell == 1).unwrap();
    let high = finished.cells.iter().find(|c| c.cell == 0).unwrap();
    assert!(low.shed_rounds > 0, "low priority takes the shedding");
    assert_eq!(high.shed_rounds, 0, "high priority is protected");
    assert_eq!(high.health, CellHealth::Healthy);

    handle.shutdown();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Graceful drain and crash-safe resume
// ---------------------------------------------------------------------------

#[test]
fn graceful_shutdown_persists_and_resume_is_bit_identical() {
    // Golden: an uninterrupted run of the same two cells.
    let dir_g = scratch_dir("drain-golden");
    let golden = {
        let handle = start(&dir_g, false, |_| {});
        add_cell(&handle, CellSpec::new(71, 15));
        add_cell(&handle, CellSpec::new(72, 15));
        let status = step_to_completion(&handle);
        handle.shutdown();
        handle.wait().unwrap();
        digests(&status)
    };

    // Interrupted: stop mid-run through the signal path (the CLI's
    // SIGINT/SIGTERM handlers raise exactly this flag), while a step
    // burst is in flight on another connection.
    let dir_k = scratch_dir("drain-kill");
    {
        let handle = start(&dir_k, false, |_| {});
        add_cell(&handle, CellSpec::new(71, 15));
        add_cell(&handle, CellSpec::new(72, 15));
        step(&handle, 10);
        let addr = handle.addr();
        let burst = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(300)))
                .unwrap();
            // The reply may be Done (burst interrupted early) or an
            // error if the daemon wins the race and closes first —
            // both are acceptable; hanging is not.
            let _ = roundtrip(
                &mut stream,
                &Request::Step { rounds: 100_000 },
                DEFAULT_MAX_FRAME,
            );
        });
        std::thread::sleep(Duration::from_millis(150));
        handle.shutdown();
        handle.wait().expect("graceful drain exits cleanly");
        burst.join().unwrap();
    }
    // The drain persisted both cells: versioned checkpoint + sidecar.
    for id in 0..2 {
        assert!(dir_k.join(format!("cell-{id}.json")).exists());
        assert!(dir_k.join(format!("cell-{id}.serve.json")).exists());
        blu_core::runtime::load_robust_checkpoint(&dir_k.join(format!("cell-{id}.json")))
            .expect("final checkpoint loads and version-checks");
    }

    // Resume and run to completion: bit-identical to the golden.
    {
        let handle = start(&dir_k, true, |_| {});
        match ask(
            &handle,
            &Request::Hello {
                version: WIRE_VERSION,
            },
        ) {
            Response::Hello { resumed_cells, .. } => assert_eq!(resumed_cells, 2),
            other => panic!("expected hello, got {other:?}"),
        }
        let status = step_to_completion(&handle);
        assert_eq!(digests(&status), golden, "resume must be bit-identical");
        handle.shutdown();
        handle.wait().unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir_g);
    let _ = std::fs::remove_dir_all(&dir_k);
}

#[test]
fn cadence_driven_daemon_matches_a_manually_stepped_one() {
    let specs = [CellSpec::new(81, 5), CellSpec::new(82, 5)];

    // Golden: manual cadence, one large `Step` (a burst stops early
    // once every cell is done).
    let dir_m = scratch_dir("cadence-manual");
    let golden = {
        let handle = start(&dir_m, false, |_| {});
        for spec in &specs {
            add_cell(&handle, spec.clone());
        }
        step(&handle, 100_000);
        let status = status_of(&handle);
        assert!(status.cells.iter().all(|c| c.done), "one burst finishes");
        handle.shutdown();
        handle.wait().unwrap();
        digests(&status)
    };

    // The same cells on a 1 ms cadence, with no `Step` at all: the
    // fleet may start the first cell before the second is admitted,
    // and the digests must not care.
    let dir_c = scratch_dir("cadence-auto");
    let handle = start(&dir_c, false, |c| c.cadence_ms = 1);
    for spec in &specs {
        add_cell(&handle, spec.clone());
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    let status = loop {
        let status = status_of(&handle);
        if status.cells.len() == specs.len() && status.cells.iter().all(|c| c.done) {
            break status;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "cadence never finished the fleet: {status:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.counters.rounds > 0, "the cadence stepped the fleet");
    assert_eq!(digests(&status), golden, "digests are invariant to cadence");
    handle.shutdown();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir_m);
    let _ = std::fs::remove_dir_all(&dir_c);
}

#[test]
fn a_long_step_holds_no_command_hostage() {
    let specs = || [CellSpec::new(91, 600), CellSpec::new(92, 600)];
    let dir_g = scratch_dir("hostage-golden");
    let golden = {
        let handle = start(&dir_g, false, |_| {});
        for spec in specs() {
            add_cell(&handle, spec);
        }
        let status = step_to_completion(&handle);
        handle.shutdown();
        handle.wait().unwrap();
        digests(&status)
    };

    // A Step far longer than the traces, on its own connection.
    let dir_k = scratch_dir("hostage");
    {
        let handle = start(&dir_k, false, |_| {});
        for spec in specs() {
            add_cell(&handle, spec);
        }
        let addr = handle.addr();
        let burst = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(300)))
                .unwrap();
            roundtrip(
                &mut stream,
                &Request::Step {
                    rounds: 1_000_000_000,
                },
                DEFAULT_MAX_FRAME,
            )
            .unwrap()
        });
        let mut monitor = connect(&handle);
        let mut status = || match roundtrip(&mut monitor, &Request::Status, DEFAULT_MAX_FRAME) {
            Ok(Response::Status(status)) => status,
            other => panic!("expected Status, got {other:?}"),
        };
        // Once a round has run, the step is owed: the next Status must
        // answer between its rounds, not after the traces run out.
        let mut polls = 0;
        while status().counters.rounds == 0 {
            polls += 1;
            assert!(polls < 10_000, "the Step never started");
            std::thread::sleep(Duration::from_millis(1));
        }
        let mid = status();
        assert!(
            mid.cells.iter().any(|c| !c.done),
            "Status waited out the whole Step: {} rounds, every cell done",
            mid.counters.rounds
        );

        // Shutdown ends the owed step: Bye here, Done on the step's
        // connection, then a clean drain.
        let mut closer = connect(&handle);
        match roundtrip(&mut closer, &Request::Shutdown, DEFAULT_MAX_FRAME) {
            Ok(Response::Bye) => {}
            other => panic!("expected Bye, got {other:?}"),
        }
        match burst.join().unwrap() {
            Response::Done { cell: None } => {}
            other => panic!("expected the owed Step to answer Done, got {other:?}"),
        }
        handle.wait().expect("graceful drain exits cleanly");
    }

    // The drained fleet resumes to the uninterrupted digests.
    {
        let handle = start(&dir_k, true, |_| {});
        let status = step_to_completion(&handle);
        assert_eq!(digests(&status), golden, "resume must be bit-identical");
        handle.shutdown();
        handle.wait().unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir_g);
    let _ = std::fs::remove_dir_all(&dir_k);
}

#[test]
fn resume_before_first_checkpoint_keeps_the_roster() {
    // Kill the daemon right after admission (no Step at all): the
    // admission-time sidecar must preserve the fleet roster, and the
    // resumed run must equal an uninterrupted one from scratch.
    let dir_g = scratch_dir("roster-golden");
    let golden = {
        let handle = start(&dir_g, false, |_| {});
        add_cell(&handle, CellSpec::new(81, 10));
        let status = step_to_completion(&handle);
        handle.shutdown();
        handle.wait().unwrap();
        digests(&status)
    };

    let dir_k = scratch_dir("roster-kill");
    {
        let handle = start(&dir_k, false, |_| {});
        add_cell(&handle, CellSpec::new(81, 10));
        // Dropping the handle is the hard-abort analogue available
        // in-process: no Step ran, no checkpoint grid was crossed.
        drop(handle);
    }
    {
        let handle = start(&dir_k, true, |_| {});
        let status = step_to_completion(&handle);
        assert_eq!(digests(&status), golden);
        handle.shutdown();
        handle.wait().unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir_g);
    let _ = std::fs::remove_dir_all(&dir_k);
}
