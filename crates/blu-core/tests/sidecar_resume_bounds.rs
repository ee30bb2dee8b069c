//! Resume refuses sidecar state the supervisor could never have
//! written, in both drivers of a supervised cell.
//!
//! Resume replays one restart-backoff draw per restart used, and a
//! cell waits out its persisted backoff before stepping again. A
//! sidecar claiming `u32::MAX` restarts would cost billions of draws
//! before the fleet starts, and a `u64::MAX` wait would park the cell
//! for good; each must be a typed `BluError::Checkpoint` instead.

use blu_core::orchestrator::BluConfig;
use blu_core::robust::{CheckpointPolicy, RobustConfig};
use blu_core::runtime::supervisor::{run_supervised_fleet, SupervisorConfig};
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

fn expect_checkpoint_error<T>(result: Result<T, BluError>, field: &str) {
    match result {
        Err(BluError::Checkpoint(msg)) => assert!(msg.contains(field), "{msg}"),
        Err(e) => panic!("expected a Checkpoint error naming {field}, got {e}"),
        Ok(_) => panic!("a sidecar with an out-of-bounds {field} must not resume"),
    }
}

/// The largest values resume must refuse, with the default config's
/// bounds: 3 restarts, and a longest wait of ⌊16 · 1.1⌋ = 17 rounds.
fn hostile_fields() -> [(&'static str, u64); 4] {
    let sup = SupervisorConfig::default();
    [
        ("restarts_used", u64::from(sup.max_restarts) + 1),
        ("restarts_used", u64::from(u32::MAX)),
        ("backoff_rounds_left", sup.backoff.max_wait_rounds() + 1),
        ("backoff_rounds_left", u64::MAX),
    ]
}

#[test]
fn batch_resume_refuses_out_of_bounds_sidecars() {
    assert_eq!(SupervisorConfig::default().backoff.max_wait_rounds(), 17);
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
    for (field, value) in hostile_fields() {
        let _ = std::fs::remove_dir_all(&dir);
        run(false, 2).unwrap();
        set_field(&sidecar, field, value);
        expect_checkpoint_error(run(true, 1), field);
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
    for (field, value) in hostile_fields() {
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
        expect_checkpoint_error(service(true), field);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
