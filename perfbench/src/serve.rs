//! The `serve_*` workloads: an in-process `BluService` driven over
//! loopback through the public wire API, one episode at a time.
//!
//! An episode starts a fresh daemon, admits the episode's cells
//! (set-up), then runs two clients until every trace is done: a
//! closed-loop controller sending `Step{burst}` back to back, and an
//! open-loop monitor sending `Status` on a fixed schedule. The
//! episode ends with a closed-loop `Status` (the final digests), a
//! `Metrics` read and a graceful `Shutdown`; the final checkpoints are
//! then read back with `load_robust_checkpoint`.

use crate::episode::{EpisodeStats, Ops};
use crate::gate::CellRecord;
use crate::openloop::{run_open_loop, Sample, WallClock};
use crate::spans::Tracer;
use crate::sys;
use blu_core::orchestrator::BluConfig;
use blu_core::robust::{RobustConfig, RobustSnapshot};
use blu_core::runtime::checkpoint::load_robust_checkpoint;
use blu_core::runtime::wire::{
    roundtrip, CellSpec, Request, Response, StatusReport, DEFAULT_MAX_FRAME, WIRE_VERSION,
};
use blu_core::runtime::{BluService, ServiceConfig};
use blu_core::EmulationConfig;
use blu_phy::cell::CellConfig;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Resource blocks per cell.
pub const N_RBS: usize = 10;

/// Upper bound on one episode's run phase before it counts as hung.
const RUN_LIMIT: Duration = Duration::from_secs(150);

/// In a traced episode, the controller sends one round of probes
/// (`Hello`, `Step{0}`, closed-loop `Status`) every this many fleet
/// rounds it has stepped.
pub const PROBE_EVERY_ROUNDS: u64 = 16;

/// The robust configuration every serve cell runs under (the `blu
/// serve` defaults with 10 RBs).
pub fn robust_config() -> RobustConfig {
    let mut cell = CellConfig::testbed_siso();
    cell.numerology.n_rbs = N_RBS;
    RobustConfig::new(BluConfig::new(EmulationConfig::new(cell)))
}

/// A daemon configuration rooted at `dir`: the CLI's defaults (manual
/// cadence, 64-cell budget, queue depth 16) except that grid
/// checkpoints are off, so the daemon persists only admission
/// sidecars and each cell's final checkpoint. Every save is fsync'd,
/// and on a disk-backed checkout grid saves every 2000 sub-frames
/// would time the disk, not the daemon.
pub fn service_config(dir: &Path) -> ServiceConfig {
    ServiceConfig {
        every_subframes: 0,
        ..ServiceConfig::new(robust_config(), dir.to_path_buf())
    }
}

/// One wire client: a connection plus its operation ledger.
struct Client {
    stream: TcpStream,
    ops: Ops,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("configuring {addr}: {e}"))?;
        let mut client = Client {
            stream,
            ops: Ops::default(),
        };
        match client.call(&Request::Hello {
            version: WIRE_VERSION,
        }) {
            Some(Response::Hello { .. }) => Ok(client),
            other => Err(format!("handshake with {addr} failed: {other:?}")),
        }
    }

    /// One round trip. `Busy`, `Rejected`, `Error` and wire failures
    /// count as failed operations and yield `None`.
    fn call(&mut self, req: &Request) -> Option<Response> {
        self.ops.attempted += 1;
        match roundtrip(&mut self.stream, req, DEFAULT_MAX_FRAME) {
            Ok(Response::Busy | Response::Rejected { .. } | Response::Error { .. }) | Err(_) => {
                self.ops.failed += 1;
                None
            }
            Ok(resp) => Some(resp),
        }
    }

    fn status(&mut self) -> Option<StatusReport> {
        match self.call(&Request::Status)? {
            Response::Status(report) => Some(report),
            _ => None,
        }
    }
}

/// Round-trip samples of the traced episode's probes, in ms.
#[derive(Debug, Default, Clone)]
pub struct Probes {
    /// `Hello` round trips (answered by the connection handler).
    pub hello_ms: Vec<f64>,
    /// `Step{0}` round trips (queue hop plus engine wake-up).
    pub step0_ms: Vec<f64>,
    /// Closed-loop `Status` round trips.
    pub status_ms: Vec<f64>,
    /// The last `Status` response, for the client-side codec replay.
    pub last_status: Option<Response>,
}

/// Everything one serve episode produced.
#[derive(Debug)]
pub struct ServeEpisode {
    /// Timings, counts and records common to every workload.
    pub stats: EpisodeStats,
    /// The `Metrics` text read after the run phase.
    pub metrics_text: String,
    /// Final snapshot of every cell, in admission order.
    pub snapshots: Vec<RobustSnapshot>,
    /// Probe samples (empty unless traced).
    pub probes: Probes,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run one episode over `specs` with checkpoints under `dir` (which
/// must not exist yet). With `tracer`, the controller also sends probes
/// and every request becomes a span.
pub fn run_episode(
    specs: &[CellSpec],
    dir: &Path,
    burst: u64,
    status_period: Duration,
    mut tracer: Option<&mut Tracer>,
) -> Result<ServeEpisode, String> {
    let t0 = Instant::now();
    let handle =
        BluService::start(service_config(dir)).map_err(|e| format!("starting daemon: {e}"))?;
    let addr = handle.addr();
    let mut ctl = Client::connect(addr)?;
    let mut mon = Client::connect(addr)?;
    for spec in specs {
        match ctl.call(&Request::AddCell { spec: spec.clone() }) {
            Some(Response::Done { cell: Some(_) }) => {}
            other => return Err(format!("AddCell {spec:?} was not admitted: {other:?}")),
        }
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let all_done = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    let n_cells = specs.len();
    let run_start = Instant::now();
    let cpu0 = sys::process_cpu_s();
    let steal0 = sys::host_steal_s();
    let clock = WallClock::from(run_start);
    // The run phase is the parent of every step, probe and open-loop
    // status span of the episode.
    let run_span = tracer
        .as_deref_mut()
        .map(|t| t.enter_at("serve.run", run_start));

    let (steps, probes, monitor) = std::thread::scope(|scope| {
        let monitor = scope.spawn(|| {
            let samples = run_open_loop(
                &clock,
                Duration::ZERO,
                status_period,
                || stop.load(Ordering::SeqCst),
                || match mon.status() {
                    Some(report) => {
                        if report.cells.len() == n_cells && report.cells.iter().all(|c| c.done) {
                            all_done.store(true, Ordering::SeqCst);
                        }
                        true
                    }
                    None => false,
                },
            );
            (samples, mon.ops)
        });

        let mut steps: Vec<(Instant, f64)> = Vec::new();
        let mut probes = Probes::default();
        while !all_done.load(Ordering::SeqCst) && run_start.elapsed() < RUN_LIMIT {
            let sent = Instant::now();
            let ok = ctl.call(&Request::Step { rounds: burst }).is_some();
            let done = Instant::now();
            if let Some(t) = tracer.as_deref_mut() {
                t.record("fleet.step", sent, done);
            }
            if !ok {
                break;
            }
            steps.push((done, ms(done - sent)));
            if let Some(t) = tracer.as_deref_mut() {
                if (steps.len() as u64 * burst).is_multiple_of(PROBE_EVERY_ROUNDS) {
                    probe(&mut ctl, t, &mut probes);
                }
            }
        }
        stop.store(true, Ordering::SeqCst);
        let monitor = monitor
            .join()
            .map_err(|_| "status monitor panicked".to_string());
        (steps, probes, monitor)
    });
    let (status_samples, mon_ops) = monitor?;
    if !all_done.load(Ordering::SeqCst) {
        handle.shutdown();
        let _ = handle.wait();
        return Err("the fleet did not finish its traces (failed Step or run limit)".into());
    }

    let report = ctl
        .status()
        .ok_or_else(|| "final Status failed".to_string())?;
    let rounds = report.counters.rounds;
    let effective = rounds.div_ceil(burst) as usize;
    if effective == 0 || effective > steps.len() {
        return Err(format!(
            "{rounds} rounds stepped but only {} bursts answered",
            steps.len()
        ));
    }
    let run_end = steps[effective - 1].0;
    let run_s = (run_end - run_start).as_secs_f64();
    let cpu_s = sys::process_cpu_s() - cpu0;
    let steal_s = sys::host_steal_s() - steal0;
    let step_ms: Vec<f64> = steps[..effective].iter().map(|s| s.1).collect();
    let status: Vec<Sample> = status_samples
        .into_iter()
        .filter(|s| s.due < run_end - run_start)
        .collect();
    if let Some(t) = tracer {
        for s in &status {
            t.record("service.status_open", run_start + s.due, run_start + s.done);
        }
        if let Some(id) = run_span {
            t.exit_at(id, run_end);
        }
    }

    let metrics_text = match ctl.call(&Request::Metrics) {
        Some(Response::Metrics { text }) => text,
        other => return Err(format!("Metrics failed: {other:?}")),
    };
    match ctl.call(&Request::Shutdown) {
        Some(Response::Bye) => {}
        other => return Err(format!("Shutdown failed: {other:?}")),
    }
    handle
        .wait()
        .map_err(|e| format!("daemon exited with an error: {e}"))?;

    let mut records = Vec::with_capacity(report.cells.len());
    let mut snapshots = Vec::with_capacity(report.cells.len());
    for (i, cell) in report.cells.iter().enumerate() {
        if !cell.done {
            return Err(format!("cell {} is not done", cell.cell));
        }
        let path = dir.join(format!("cell-{}.json", cell.cell));
        let snap = load_robust_checkpoint(&path)
            .map_err(|e| format!("final checkpoint of cell {}: {e}", cell.cell))?;
        records.push(CellRecord {
            episode: 0,
            cell: i,
            digest: cell.digest.clone(),
            ul_mbps: effective_mbps(&snap),
            rbs_scheduled: snap.metrics.rbs_scheduled,
            rbs_utilized: snap.metrics.rbs_utilized,
        });
        snapshots.push(snap);
    }
    let cell_subframes = report.cells.iter().map(|c| c.trace_len).sum();

    let ops = ctl.ops + mon_ops;
    Ok(ServeEpisode {
        stats: EpisodeStats {
            setup_s,
            run_s,
            cell_subframes,
            step_ms,
            status,
            attempted: ops.attempted,
            failed: ops.failed,
            records,
            rounds,
            cpu_s,
            steal_s,
        },
        metrics_text,
        snapshots,
        probes,
    })
}

/// One round of traced probes on the controller connection.
fn probe(ctl: &mut Client, t: &mut Tracer, probes: &mut Probes) {
    let timed = |ctl: &mut Client, req: &Request| {
        let sent = Instant::now();
        let resp = ctl.call(req);
        (resp, sent, Instant::now())
    };
    let (_, a, b) = timed(
        ctl,
        &Request::Hello {
            version: WIRE_VERSION,
        },
    );
    t.record("wire.hello", a, b);
    probes.hello_ms.push(ms(b - a));
    let (_, a, b) = timed(ctl, &Request::Step { rounds: 0 });
    t.record("service.step0", a, b);
    probes.step0_ms.push(ms(b - a));
    let (resp, a, b) = timed(ctl, &Request::Status);
    t.record("service.status_closed", a, b);
    probes.status_ms.push(ms(b - a));
    probes.last_status = resp;
}

/// Effective UL throughput of a cell, Mbit/s of simulated time
/// (delivered bits over every elapsed sub-frame, measurement
/// included — `RobustRunReport::effective_throughput_mbps`).
pub fn effective_mbps(snap: &RobustSnapshot) -> f64 {
    let total = snap.metrics.subframes + snap.measurement_subframes;
    if total == 0 {
        0.0
    } else {
        snap.metrics.bits_delivered / (total as f64 * 1_000.0)
    }
}

/// Value of counter `name` in Prometheus text.
pub fn prom_counter(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let (k, v) = l.split_once(' ')?;
            (k == name).then(|| v.trim().parse().ok())?
        })
        .unwrap_or(0.0)
}
