//! Resume refuses sidecar state the supervisor could never have
//! written, in both drivers of a supervised cell.
//!
//! Resume replays one restart-backoff draw per restart used, and a
//! cell waits out its persisted backoff before stepping again. A
//! sidecar claiming `u32::MAX` restarts would cost billions of draws
//! before the fleet starts, and a `u64::MAX` wait would park the cell
//! for good; each must be a typed `BluError::Checkpoint` instead. So
//! must a sidecar of an older format version: version 2 carried the
//! silent-step counter that version 3 dropped.

use blu_core::orchestrator::BluConfig;
use blu_core::robust::{CheckpointPolicy, RobustConfig};
use blu_core::runtime::supervisor::{
    run_supervised_fleet, SupervisorConfig, CELL_SIDECAR_VERSION, MAX_RESTART_WAIT_ROUNDS,
};
use blu_core::runtime::wire::{roundtrip, CellSpec, Request, Response, DEFAULT_MAX_FRAME};
use blu_core::runtime::{capture_for_spec, BluService, ServiceConfig};
use blu_core::{BluError, EmulationConfig};
use blu_phy::cell::CellConfig;
use std::net::TcpStream;
use std::path::{Path, PathBuf};

fn quick_robust() -> RobustConfig {
    let mut cell = CellConfig::testbed_siso();
    cell.numerology.n_rbs = 10;
    RobustConfig::new(BluConfig::new(EmulationConfig::new(cell)))
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("blu-bounds-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Rewrite one integer field of a pretty-printed sidecar.
fn set_field(path: &Path, field: &str, value: u64) {
    let text = std::fs::read_to_string(path).unwrap();
    let key = format!("\"{field}\": ");
    let start = text.find(&key).expect("field present") + key.len();
    let end = start + text[start..].find([',', '\n']).unwrap();
    let edited = format!("{}{value}{}", &text[..start], &text[end..]);
    std::fs::write(path, edited).unwrap();
}

fn expect_checkpoint_error<T>(result: Result<T, BluError>, names: &str) {
    match result {
        Err(BluError::Checkpoint(msg)) => assert!(msg.contains(names), "{msg}"),
        Err(e) => panic!("expected a Checkpoint error naming {names:?}, got {e}"),
        Ok(_) => panic!("a sidecar refused for {names:?} must not resume"),
    }
}

/// The values resume must refuse, each with what the error names:
/// with the default config's bounds, 3 restarts and a longest wait of
/// ⌊16 · 1.1⌋ = 17 rounds; and the previous format version.
fn hostile_fields() -> [(&'static str, u64, &'static str); 5] {
    let sup = SupervisorConfig::default();
    [
        (
            "restarts_used",
            u64::from(sup.max_restarts) + 1,
            "restarts_used",
        ),
        ("restarts_used", u64::from(u32::MAX), "restarts_used"),
        (
            "backoff_rounds_left",
            MAX_RESTART_WAIT_ROUNDS + 1,
            "backoff_rounds_left",
        ),
        ("backoff_rounds_left", u64::MAX, "backoff_rounds_left"),
        ("version", 2, "sidecar has version 2, this build requires 3"),
    ]
}

#[test]
fn batch_resume_refuses_out_of_bounds_sidecars() {
    assert_eq!(MAX_RESTART_WAIT_ROUNDS, 17);
    assert_eq!(CELL_SIDECAR_VERSION, 3);
    let capture = capture_for_spec(&CellSpec::new(21, 10)).unwrap();
    let dir = scratch_dir("batch");
    let config = |resume| {
        let mut config = quick_robust();
        config.checkpoint = Some(CheckpointPolicy {
            dir: dir.clone(),
            every_subframes: 2_000,
            resume,
        });
        config
    };
    let stop_after = |rounds| SupervisorConfig {
        max_rounds: Some(rounds),
        ..SupervisorConfig::default()
    };
    let run = |resume, rounds| {
        run_supervised_fleet(
            std::slice::from_ref(&capture),
            &config(resume),
            &stop_after(rounds),
        )
    };
    let sidecar = dir.join("cell-0.sup.json");
    for (field, value, names) in hostile_fields() {
        let _ = std::fs::remove_dir_all(&dir);
        run(false, 2).unwrap();
        set_field(&sidecar, field, value);
        expect_checkpoint_error(run(true, 1), names);
    }
    // The bound itself is a wait the config can draw: it resumes.
    run(false, 2).unwrap();
    set_field(&sidecar, "backoff_rounds_left", 17);
    run(true, 1).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_resume_refuses_out_of_bounds_sidecars() {
    let dir = scratch_dir("daemon");
    let service = |resume| {
        let mut config = ServiceConfig::new(quick_robust(), dir.clone());
        config.resume = resume;
        BluService::start(config)
    };
    let sidecar = dir.join("cell-0.serve.json");
    for (field, value, names) in hostile_fields() {
        let _ = std::fs::remove_dir_all(&dir);
        let handle = service(false).expect("daemon starts");
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let add = Request::AddCell {
            spec: CellSpec::new(22, 10),
        };
        match roundtrip(&mut stream, &add, DEFAULT_MAX_FRAME).unwrap() {
            Response::Done { cell: Some(0) } => {}
            other => panic!("expected admission, got {other:?}"),
        }
        drop(stream);
        handle.shutdown();
        handle.wait().unwrap();
        set_field(&sidecar, field, value);
        expect_checkpoint_error(service(true), names);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
