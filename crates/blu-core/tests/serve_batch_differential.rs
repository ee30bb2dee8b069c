//! Differential test of the two drivers of a supervised cell: the
//! `blu serve` daemon and the batch supervised fleet.
//!
//! Each spec runs twice: as a daemon cell admitted over the wire and
//! stepped to completion, and as `capture_for_spec` of the same spec
//! through `run_supervised_fleet` with the same grid checkpoint
//! cadence. The cell's final snapshot digest, its restart count and
//! its final health must agree. The stalled specs fail every measuring
//! step, so the restart ladder and quarantine both run: stalled from
//! the start, every restore comes from memory; stalled on a churn-driven
//! re-measurement, every restore comes from a grid checkpoint on disk.

use blu_core::orchestrator::BluConfig;
use blu_core::robust::{CheckpointPolicy, RobustConfig};
use blu_core::runtime::supervisor::{
    run_supervised_fleet, CellHealth, RestartSource, SupervisorConfig,
};
use blu_core::runtime::wire::{roundtrip, CellSpec, Request, Response, DEFAULT_MAX_FRAME};
use blu_core::runtime::{
    capture_for_spec, load_robust_checkpoint, snapshot_digest, BluService, ServiceConfig,
};
use blu_core::EmulationConfig;
use blu_phy::cell::CellConfig;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

/// Grid checkpoint cadence shared by both drivers.
const EVERY_SUBFRAMES: u64 = 2_000;

fn quick_robust() -> RobustConfig {
    let mut cell = CellConfig::testbed_siso();
    cell.numerology.n_rbs = 10;
    RobustConfig::new(BluConfig::new(EmulationConfig::new(cell)))
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("blu-diff-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// What both drivers must agree on.
#[derive(Debug, PartialEq)]
struct Outcome {
    digest: String,
    restarts: u32,
    health: CellHealth,
}

fn ask(addr: std::net::SocketAddr, req: &Request) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    roundtrip(&mut stream, req, DEFAULT_MAX_FRAME).expect("roundtrip")
}

fn daemon_run(spec: &CellSpec, tag: &str) -> Outcome {
    let dir = scratch_dir(&format!("{tag}-daemon"));
    let mut config = ServiceConfig::new(quick_robust(), dir.clone());
    config.every_subframes = EVERY_SUBFRAMES;
    let handle = BluService::start(config).expect("daemon starts");
    let addr = handle.addr();
    match ask(addr, &Request::AddCell { spec: spec.clone() }) {
        Response::Done { cell: Some(0) } => {}
        other => panic!("expected admission as cell 0, got {other:?}"),
    }
    let mut outcome = None;
    for _ in 0..200 {
        ask(addr, &Request::Step { rounds: 500 });
        let Response::Status(status) = ask(addr, &Request::Status) else {
            panic!("expected Status");
        };
        let cell = &status.cells[0];
        if cell.done {
            outcome = Some(Outcome {
                digest: cell.digest.clone(),
                restarts: cell.restarts,
                health: cell.health,
            });
            break;
        }
    }
    handle.shutdown();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    outcome.expect("daemon cell runs to completion")
}

/// The batch fleet's outcome, and where its restores came from.
fn batch_run(spec: &CellSpec, tag: &str) -> (Outcome, Vec<RestartSource>) {
    let dir = scratch_dir(&format!("{tag}-batch"));
    let mut config = quick_robust();
    config.checkpoint = Some(CheckpointPolicy {
        dir: dir.clone(),
        every_subframes: EVERY_SUBFRAMES,
        resume: false,
    });
    let capture = capture_for_spec(spec).unwrap();
    let out = run_supervised_fleet(
        std::slice::from_ref(&capture),
        &config,
        &SupervisorConfig::default(),
    )
    .unwrap();
    assert!(out.health.completed);
    let snap = load_robust_checkpoint(&dir.join("cell-0.json")).unwrap();
    assert!(snap.done);
    let health = &out.health.cells[0];
    let outcome = Outcome {
        digest: snapshot_digest(&snap),
        restarts: health.restarts,
        health: health.final_health,
    };
    let _ = std::fs::remove_dir_all(&dir);
    (outcome, health.restart_sources.clone())
}

#[test]
fn daemon_and_batch_fleet_step_a_cell_identically() {
    let sup = SupervisorConfig::default();
    let stalled = |seed, stall_at, churn_millihz| CellSpec {
        stall_at: Some(stall_at),
        stall_factor: sup.stall_factor_limit,
        churn_millihz,
        ..CellSpec::new(seed, 20)
    };
    let quarantined = (CellHealth::Quarantined, sup.max_restarts);
    let specs = [
        (
            "phased",
            CellSpec::new(91, 20),
            (CellHealth::Healthy, 0),
            None,
        ),
        (
            "stalled",
            stalled(92, 0, 0),
            quarantined,
            Some(RestartSource::MemorySnapshot),
        ),
        (
            "churn-stalled",
            stalled(95, 10_000, 3_000),
            quarantined,
            Some(RestartSource::DiskCheckpoint),
        ),
    ];
    for (tag, spec, (health, restarts), source) in &specs {
        let daemon = daemon_run(spec, tag);
        let (batch, sources) = batch_run(spec, tag);
        assert_eq!(daemon, batch, "{tag}: daemon and batch fleet diverged");
        assert_eq!(
            (batch.health, batch.restarts),
            (*health, *restarts),
            "{tag}"
        );
        if let Some(source) = source {
            assert!(sources.iter().all(|s| s == source), "{tag}: {sources:?}");
        }
    }
}
