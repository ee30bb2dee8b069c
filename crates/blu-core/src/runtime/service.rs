//! `blu serve`: a resident fleet daemon over the supervised engine.
//!
//! The batch entry points ([`run_supervised_fleet`](
//! crate::runtime::supervisor::run_supervised_fleet)) shard, join and
//! return — nothing in the repository stayed *up*. [`BluService`] is
//! the long-lived counterpart: it owns a fleet of resident cells,
//! steps them on a fixed sub-frame cadence (or on demand), and takes
//! control commands over the length-prefixed wire protocol of
//! [`super::wire`] on a TCP socket. The robustness surface is the
//! point:
//!
//! * **Framing limits and deadlines** — every connection reads under
//!   a socket deadline and a frame-size ceiling; any malformed input
//!   is answered with a typed error frame and the connection closed,
//!   never a panic, never an unbounded buffer.
//! * **Admission control** — `AddCell` past the configured budget (or
//!   while draining) is `Rejected`; the daemon's resident state is
//!   bounded by construction.
//! * **Backpressure** — control commands land in a *bounded* queue;
//!   when the engine falls behind, clients get `Busy` instead of the
//!   queue growing without bound. Inference overload sheds
//!   lowest-priority cells to PF fallback between watermarks and
//!   re-admits them as pressure drops.
//! * **No command held hostage** — a `Step { rounds }` is work the
//!   engine owes, run one fleet round at a time. Between rounds the
//!   engine answers every command already queued, in arrival order,
//!   so a `Status` waits for one round, not for the whole burst. A
//!   second `Step` is held and nothing more is read until the owed
//!   step replies: the engine holds at most one owed and one held
//!   command beyond `queue_depth`. `Shutdown` ends the owed step
//!   (answered `Done`) before its `Bye`; a cell admitted mid-step
//!   joins the remaining rounds.
//! * **Supervision** — each resident cell is the batch fleet's
//!   supervised cell, stepped by the same fleet round: contained
//!   panics, stalls and step errors restart it through the disk →
//!   memory → fresh ladder under a deterministic capped backoff;
//!   exhausted budgets quarantine to static PF.
//! * **Crash safety** — cells persist grid-aligned checkpoints plus a
//!   `cell-<id>.serve.json` sidecar: the cell's [`CellSpec`] and its
//!   supervision state. Because a spec regenerates its capture
//!   deterministically, a daemon started with `resume` rebuilds the
//!   whole fleet from the checkpoint directory and replays to
//!   bit-identical state — `kill -9` included.
//! * **Graceful drain** — a stop signal (the CLI wires SIGINT/SIGTERM
//!   to it) closes admissions, force-persists every cell, and exits
//!   cleanly.
//!
//! Determinism: a cell's evolution is a pure function of its own step
//! count — invariant to cadence, to which global round it runs in,
//! and to client chatter — so per-cell state digests (wall-clock
//! timing zeroed) compare equal across any interleaving of the same
//! per-cell step sequences. That is the property the kill/resume
//! tests and the CI smoke job assert.

use crate::engine::Untimed;
use crate::error::BluError;
use crate::robust::{RobustConfig, RobustSnapshot};
use crate::runtime::breaker::BreakerState;
use crate::runtime::checkpoint::io_err;
use crate::runtime::panic_message;
use crate::runtime::supervisor::{
    read_sidecar, CellFiles, CellHealth, CellSidecar, FleetMember, NullHook, SupervisedCell,
    SupervisedFleet, SupervisorConfig,
};
use crate::runtime::wire::{
    decode_request, encode_response, read_frame, write_frame, CellSpec, CellStatus, Request,
    Response, ServiceCounters, StatusReport, WIRE_VERSION,
};
use blu_sim::faults::{FaultEvent, FaultKind, FaultScript};
use blu_sim::rng::DetRng;
use blu_sim::time::Micros;
use blu_traces::capture::CaptureConfig;
use blu_traces::faults::{capture_with_faults, FaultyCapture};
use rand::RngCore;
use serde::{Deserialize, Serialize, Value};
use std::borrow::Cow;
use std::fs;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Listen address (`127.0.0.1:0` binds an ephemeral port;
    /// [`ServiceHandle::addr`] reports the actual one).
    pub addr: String,
    /// Checkpoint directory: per-cell snapshots (`cell-<id>.json`)
    /// and serve sidecars (`cell-<id>.serve.json`).
    pub dir: PathBuf,
    /// Probe `dir` at startup and resume every persisted cell.
    pub resume: bool,
    /// Grid-aligned checkpoint cadence in sub-frames (0 = only final
    /// and forced saves).
    pub every_subframes: u64,
    /// Admission budget: resident cells beyond this are `Rejected`.
    pub max_cells: usize,
    /// Bound of the control-command queue; a full queue answers
    /// `Busy`.
    pub queue_depth: usize,
    /// Per-frame payload ceiling, in bytes.
    pub max_frame: usize,
    /// Per-connection socket read deadline, in milliseconds.
    pub read_timeout_ms: u64,
    /// Fleet stepping cadence in milliseconds (0 = manual: the fleet
    /// advances only on `Step` commands — the mode the deterministic
    /// tests drive).
    pub cadence_ms: u64,
    /// The robust loop configuration every resident cell runs under
    /// (its `checkpoint` field is ignored — the daemon owns
    /// persistence).
    pub robust: RobustConfig,
    /// Per-cell supervision and fleet shedding. Shedding priorities
    /// come from each cell's spec, so `shedding.priorities` must be
    /// empty; `max_rounds` is ignored (the daemon runs until stopped).
    pub supervisor: SupervisorConfig,
}

impl ServiceConfig {
    /// Defaults for a daemon rooted at `dir`: localhost ephemeral
    /// port, 64-cell budget, manual cadence, shedding off.
    pub fn new(robust: RobustConfig, dir: PathBuf) -> Self {
        ServiceConfig {
            addr: "127.0.0.1:0".into(),
            dir,
            resume: false,
            every_subframes: 2_000,
            max_cells: 64,
            queue_depth: 16,
            max_frame: crate::runtime::wire::DEFAULT_MAX_FRAME,
            read_timeout_ms: 5_000,
            cadence_ms: 0,
            robust,
            supervisor: SupervisorConfig::default(),
        }
    }

    /// Up-front validation of every knob a wedged daemon would
    /// otherwise discover at 3am.
    pub fn validate(&self) -> Result<(), BluError> {
        self.robust.validate()?;
        self.supervisor.validate(0)?;
        if self.max_cells == 0 {
            return Err(BluError::InvalidConfig(
                "serve max_cells must be > 0".into(),
            ));
        }
        if self.queue_depth == 0 {
            return Err(BluError::InvalidConfig(
                "serve queue_depth must be > 0".into(),
            ));
        }
        if self.max_frame < 1_024 {
            return Err(BluError::InvalidConfig(
                "serve max_frame must be at least 1024 bytes".into(),
            ));
        }
        if self.read_timeout_ms == 0 {
            return Err(BluError::InvalidConfig(
                "serve read_timeout_ms must be > 0".into(),
            ));
        }
        Ok(())
    }
}

/// Synthesize a cell's capture from its spec — the same generator
/// (and the same capture shape) as the chaos harness, so a persisted
/// spec is a complete resume record.
pub fn capture_for_spec(spec: &CellSpec) -> Result<FaultyCapture, BluError> {
    // A duration that overflows microseconds reads as an overflow
    // before the spec's own bounds are checked.
    let duration = Micros::checked_from_secs(spec.seconds).ok_or(BluError::Overflow {
        what: "serve cell duration",
    })?;
    spec.validate()?;
    let cfg = CaptureConfig {
        duration,
        q_range: (0.25, 0.55),
        ..CaptureConfig::testbed_default()
    };
    let mut events = Vec::new();
    if let Some(at) = spec.stall_at {
        events.push(FaultEvent {
            at_subframe: at,
            kind: FaultKind::InferenceStall {
                factor: spec.stall_factor,
            },
        });
    }
    if spec.churn_millihz > 0 {
        // The churn window opens after the first third of the trace —
        // past the initial measurement phase — and runs to the end.
        // Everything derives from the spec, so a persisted spec still
        // regenerates the identical churned capture on resume. The
        // validated duration (1..=MAX_CELL_SECONDS) keeps the window
        // non-empty and its arithmetic in range.
        let total = spec.seconds * 1_000;
        let start = total / 3;
        let mut rng = DetRng::seed_from_u64(spec.seed).derive("serve-churn");
        events.extend(crate::robust::churn_events(
            cfg.n_ues,
            cfg.n_hts,
            start,
            total - start,
            spec.churn_rate_hz(),
            rng.next_u64(),
        )?);
    }
    capture_with_faults(&cfg, &FaultScript::new(events), spec.seed).map_err(BluError::from)
}

/// FNV-1a-64 digest (hex) of a cell snapshot's compact JSON with
/// wall-clock timing (`inference_micros`) written as `0` — the
/// equality the determinism contract actually promises. The JSON is
/// streamed straight into the hasher: no clone of the snapshot
/// ([`Untimed`] writes the timing field as zero) and no intermediate
/// text.
pub fn snapshot_digest(snap: &RobustSnapshot) -> String {
    let mut h = Fnv1a64::default();
    // Hashing cannot fail, and every snapshot field serializes.
    let _ = serde_json::to_writer(&mut h, &Untimed(snap));
    format!("{:016x}", h.0)
}

/// FNV-1a-64 over the bytes written to it.
struct Fnv1a64(u64);

impl Default for Fnv1a64 {
    fn default() -> Self {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }
}

impl std::io::Write for Fnv1a64 {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Resident cells
// ---------------------------------------------------------------------------

/// The daemon's sidecar (`cell-<id>.serve.json`): a cell's
/// [`CellSidecar`] plus the id and spec that regenerate its capture.
/// Written at admission, so the roster survives a kill that beats the
/// cell's first grid checkpoint, and with every checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ServeSidecar {
    id: u64,
    spec: CellSpec,
    cell: CellSidecar,
}

impl ServeSidecar {
    /// Wrap cell `id`'s supervision state with its spec.
    fn framing(id: u64, spec: &CellSpec) -> impl Fn(CellSidecar) -> ServeSidecar + '_ {
        move |cell| ServeSidecar {
            id,
            spec: spec.clone(),
            cell,
        }
    }

    /// Decode and check a serve sidecar: the wrapped cell state's
    /// version and bounds, and the spec's.
    fn decode(text: &str, sup: &SupervisorConfig) -> Result<Self, String> {
        let doc: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let cell = doc.as_map().and_then(|m| serde::field(m, "cell"));
        CellSidecar::check_version(cell.unwrap_or(&Value::Null))?;
        let side: ServeSidecar = serde_json::from_value(&doc).map_err(|e| e.to_string())?;
        side.cell.check_bounds(sup)?;
        side.spec.validate().map_err(|e| e.to_string())?;
        Ok(side)
    }
}

/// One resident cell: its id and spec around the supervised cell that
/// owns its capture and config.
struct ServeCell {
    id: u64,
    spec: CellSpec,
    cell: SupervisedCell<'static>,
}

impl ServeCell {
    /// Admit a fresh cell. Its config is the daemon-wide config with
    /// the spec's streaming window layered on, so phased and streaming
    /// cells coexist in one fleet.
    fn create(id: u64, spec: CellSpec, config: &ServiceConfig) -> Result<Self, BluError> {
        let capture = capture_for_spec(&spec)?;
        let mut robust = config.robust.clone();
        if spec.stream_window > 0 {
            robust.streaming = Some(crate::robust::StreamingConfig::new(
                spec.stream_window as usize,
            ));
        }
        let files = CellFiles {
            checkpoint: config.dir.join(format!("cell-{id}.json")),
            sidecar: config.dir.join(format!("cell-{id}.serve.json")),
            every_subframes: config.every_subframes,
        };
        let cell = SupervisedCell::new(
            Cow::Owned(capture),
            Cow::Owned(robust),
            &config.supervisor,
            DetRng::seed_from_u64(config.robust.seed).derive_indexed("serve-restart-backoff", id),
            spec.priority,
            Some(files),
        )?;
        Ok(ServeCell { id, spec, cell })
    }

    fn status(&self) -> CellStatus {
        let cell = &self.cell;
        let stream = cell.snap.stream.as_ref();
        CellStatus {
            cell: self.id,
            health: cell.sup.health(),
            state: cell.snap.state,
            cursor: cell.snap.cursor,
            trace_len: cell.geom.trace_len,
            done: cell.snap.done,
            restarts: cell.sup.restarts_used(),
            shed: cell.shed,
            shed_rounds: cell.shed_rounds,
            priority: self.spec.priority,
            digest: snapshot_digest(&cell.snap),
            window_occupancy: stream.map_or(0, |s| s.window.occupancy() as u64),
            window_capacity: stream.map_or(0, |s| s.window.capacity() as u64),
        }
    }
}

impl FleetMember<'static> for ServeCell {
    fn cell(&self) -> &SupervisedCell<'static> {
        &self.cell
    }

    fn cell_mut(&mut self) -> &mut SupervisedCell<'static> {
        &mut self.cell
    }

    /// A failed save is recorded on the cell and logged; the daemon
    /// keeps serving.
    fn persist(&mut self, force: bool) -> Result<bool, BluError> {
        let frame = ServeSidecar::framing(self.id, &self.spec);
        Ok(self.cell.persist_framed(force, frame).unwrap_or_else(|e| {
            eprintln!("blu serve: cell {} checkpoint failed: {e}", self.id);
            self.cell.last_error = Some(e.to_string());
            false
        }))
    }
}

// ---------------------------------------------------------------------------
// Engine loop
// ---------------------------------------------------------------------------

/// Counters the connection handlers touch (the engine folds them into
/// [`ServiceCounters`] at report time).
struct Shared {
    busy: AtomicU64,
    malformed: AtomicU64,
    resumed: AtomicU64,
}

struct Envelope {
    req: Request,
    reply: SyncSender<Reply>,
}

/// An engine reply, already encoded on the engine thread. Every heap
/// block a [`Response`] owns (a status report's per-cell digest
/// strings, say) is then allocated and freed by the engine thread
/// alone, and only the frame payload crosses to the connection
/// thread. Freed elsewhere, such small blocks park in the freeing
/// thread's allocator cache (glibc's per-thread tcache) and keep the
/// top of the engine's heap pinned, so its memory is never returned:
/// with several daemons run one after another in one process, the
/// phased benchmark's peak RSS climbed from ~98 MiB to 160–390 MiB.
struct Reply {
    payload: Vec<u8>,
    /// The connection closes after this reply (`Bye`).
    closing: bool,
}

impl Reply {
    fn encode(resp: &Response) -> Reply {
        let payload = encode_response(resp).unwrap_or_else(|e| {
            encode_response(&error_response(&e)).expect("an error response always encodes")
        });
        Reply {
            payload,
            closing: matches!(resp, Response::Bye),
        }
    }
}

struct Engine {
    config: ServiceConfig,
    fleet: SupervisedFleet<ServeCell>,
    next_id: u64,
    draining: bool,
    counters: ServiceCounters,
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
}

impl Engine {
    /// Scan the checkpoint directory and resume every persisted cell,
    /// in id order.
    fn resume_fleet(config: &ServiceConfig) -> Result<Vec<ServeCell>, BluError> {
        let scan_err = |e| io_err("scanning", &config.dir, e);
        let mut ids: Vec<u64> = Vec::new();
        if config.dir.exists() {
            for entry in fs::read_dir(&config.dir).map_err(scan_err)? {
                let name = entry.map_err(scan_err)?.file_name();
                let id = name.to_str().and_then(|name| {
                    let id = name.strip_prefix("cell-")?.strip_suffix(".serve.json")?;
                    id.parse::<u64>().ok()
                });
                ids.extend(id);
            }
        }
        // Cells resume in id order, the order they were admitted in,
        // so shedding breaks ties exactly as before the kill.
        ids.sort_unstable();
        ids.into_iter()
            .map(|id| {
                let path = config.dir.join(format!("cell-{id}.serve.json"));
                let side = read_sidecar(&path, |t| ServeSidecar::decode(t, &config.supervisor))?;
                let mut cell = ServeCell::create(side.id, side.spec, config)?;
                cell.cell.resume(Some(side.cell))?;
                Ok(cell)
            })
            .collect()
    }

    /// One fleet round ([`SupervisedFleet::round`]), folded into the
    /// daemon's counters.
    fn step_round(&mut self) {
        if self.fleet.all_finished() {
            return;
        }
        // `ServeCell::persist` records a failed save instead of
        // returning it, so a round cannot fail.
        if let Ok(tally) = self.fleet.round(&mut NullHook) {
            self.counters.shed_events += tally.sheds;
            self.counters.readmit_events += tally.readmits;
            self.counters.shed_rounds_total += tally.shed_cells;
            self.counters.restarts += tally.restarts;
        }
        self.counters.rounds += 1;
    }

    fn folded_counters(&self) -> ServiceCounters {
        let mut c = self.counters;
        c.busy_responses = self.shared.busy.load(Ordering::Relaxed);
        c.malformed_frames = self.shared.malformed.load(Ordering::Relaxed);
        c.resumed_cells = self.shared.resumed.load(Ordering::Relaxed);
        c.quarantined = self
            .fleet
            .cells
            .iter()
            .filter(|c| c.cell.sup.health() == CellHealth::Quarantined)
            .count() as u64;
        c
    }

    fn status_report(&self) -> StatusReport {
        StatusReport {
            version: WIRE_VERSION,
            draining: self.draining,
            max_cells: self.config.max_cells as u64,
            counters: self.folded_counters(),
            cells: self.fleet.cells.iter().map(ServeCell::status).collect(),
        }
    }

    fn metrics_text(&self) -> String {
        let c = self.folded_counters();
        let snaps = || self.fleet.cells.iter().map(|c| &c.cell.snap);
        let breaker_open = snaps()
            .filter(|snap| snap.breaker.state() == BreakerState::Open)
            .count();
        let mut out = String::new();
        let mut counter = |name: &str, value: u64| {
            out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
        };
        counter("blu_serve_admissions_total", c.admissions);
        counter("blu_serve_rejections_total", c.rejections);
        counter("blu_serve_busy_total", c.busy_responses);
        counter("blu_serve_malformed_frames_total", c.malformed_frames);
        counter("blu_serve_rounds_total", c.rounds);
        counter("blu_serve_shed_events_total", c.shed_events);
        counter("blu_serve_readmit_events_total", c.readmit_events);
        counter("blu_serve_shed_rounds_total", c.shed_rounds_total);
        counter("blu_serve_restarts_total", c.restarts);
        counter("blu_serve_resumed_cells_total", c.resumed_cells);
        if let Some(cache) = &self.config.robust.fleet_cache {
            let s = cache.stats();
            counter("blu_serve_fleet_cache_hits_total", s.hits);
            counter("blu_serve_fleet_cache_delayed_hits_total", s.delayed_hits);
            counter("blu_serve_fleet_cache_misses_total", s.misses);
        }
        let streams = || snaps().filter_map(|snap| snap.stream.as_ref());
        counter(
            "blu_stream_refines_total",
            streams().map(|s| s.refines).sum(),
        );
        counter(
            "blu_stream_refines_installed_total",
            streams().map(|s| s.refines_installed).sum(),
        );
        counter(
            "blu_stream_fallback_remeasure_total",
            streams().map(|s| s.fallback_remeasurements).sum(),
        );
        counter(
            "blu_stream_churn_events_total",
            streams().map(|s| s.churn_events_applied).sum(),
        );
        let mut gauge = |name: &str, value: u64| {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
        };
        gauge("blu_serve_cells", self.fleet.cells.len() as u64);
        gauge("blu_serve_quarantined_cells", c.quarantined);
        gauge("blu_serve_breaker_open_cells", breaker_open as u64);
        gauge("blu_serve_draining", u64::from(self.draining));
        gauge("blu_stream_cells", streams().count() as u64);
        gauge(
            "blu_stream_window_occupancy",
            streams().map(|s| s.window.occupancy() as u64).sum(),
        );
        gauge(
            "blu_stream_window_capacity",
            streams().map(|s| s.window.capacity() as u64).sum(),
        );
        out
    }

    /// Handle one command.
    fn handle(&mut self, req: Request) -> Outcome {
        let resp = match req {
            Request::Hello { version } => hello(version, &self.shared),
            Request::AddCell { spec } => self.admit(spec),
            Request::RemoveCell { cell } => {
                let Some(pos) = self.fleet.cells.iter().position(|c| c.id == cell) else {
                    return Outcome::Reply(Response::Error {
                        message: format!("no resident cell with id {cell}"),
                    });
                };
                // `Vec::remove` keeps the others in id order.
                let _ = self.fleet.cells.remove(pos).persist(true);
                Response::Done { cell: Some(cell) }
            }
            Request::Step { rounds } => return Outcome::Owe(rounds),
            Request::Status => Response::Status(self.status_report()),
            Request::Metrics => Response::Metrics {
                text: self.metrics_text(),
            },
            Request::Snapshot => {
                let _ = self.fleet.persist_all(true, &mut NullHook);
                Response::Done { cell: None }
            }
            Request::Drain => {
                self.draining = true;
                Response::Done { cell: None }
            }
            Request::Shutdown => {
                self.draining = true;
                return Outcome::Shutdown;
            }
        };
        Outcome::Reply(resp)
    }

    /// `AddCell`: admit the cell within the budget, unless draining.
    fn admit(&mut self, spec: CellSpec) -> Response {
        if self.draining {
            self.counters.rejections += 1;
            return Response::Rejected {
                reason: "daemon is draining: admissions are closed".into(),
            };
        }
        if self.fleet.cells.len() >= self.config.max_cells {
            self.counters.rejections += 1;
            return Response::Rejected {
                reason: format!(
                    "admission budget exhausted: {} of {} cells resident",
                    self.fleet.cells.len(),
                    self.config.max_cells
                ),
            };
        }
        let id = self.next_id;
        match ServeCell::create(id, spec, &self.config) {
            Ok(cell) => {
                // The sidecar lands at admission time: the fleet roster
                // must survive a kill -9 that beats the cell's first
                // grid checkpoint.
                let frame = ServeSidecar::framing(id, &cell.spec);
                if let Err(e) = cell.cell.save_sidecar(frame) {
                    eprintln!("blu serve: admission sidecar for cell {id} failed: {e}");
                }
                self.next_id += 1;
                self.counters.admissions += 1;
                self.fleet.cells.push(cell);
                Response::Done { cell: Some(id) }
            }
            Err(e) => error_response(&e),
        }
    }

    /// The daemon main loop: commands drain from the bounded queue,
    /// the fleet steps on cadence (when configured), and a stop
    /// signal or `Shutdown` command triggers the graceful path —
    /// close admissions, force-persist every cell, exit.
    ///
    /// A `Step` is owed work, not a loop inside one command: the
    /// engine runs it one round at a time and, between rounds,
    /// answers every command already queued, in arrival order. A
    /// second `Step` is held, and nothing more is read until the owed
    /// one has replied, so the engine holds at most one owed and one
    /// held command beyond the queue's depth.
    fn run(mut self, rx: Receiver<Envelope>) -> Result<(), BluError> {
        let cadence =
            (self.config.cadence_ms > 0).then(|| Duration::from_millis(self.config.cadence_ms));
        let poll = cadence.unwrap_or(Duration::from_millis(25));
        let mut next_round = Instant::now() + poll;
        let mut owed: Option<OwedStep> = None;
        let mut held: Option<OwedStep> = None;
        // Queue reads since the owed step's last round. The queue is
        // FIFO and holds at most `queue_depth`, so that many reads take
        // every command queued when the round ended, and clients that
        // keep the queue busy cannot starve the step.
        let mut served = 0;
        loop {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            if owed.is_none() {
                owed = held.take();
            }
            let envelope = match (&owed, &held) {
                // A step is owed: take only what is already queued.
                (Some(_), None) if served < self.config.queue_depth => {
                    served += 1;
                    rx.try_recv().ok()
                }
                // A step is held, or this round's reads are spent.
                (Some(_), _) => None,
                // Idle: wait for a command until the next cadence tick.
                (None, _) => {
                    let wait = next_round.saturating_duration_since(Instant::now());
                    match rx.recv_timeout(wait) {
                        Ok(envelope) => Some(envelope),
                        Err(RecvTimeoutError::Timeout) => {
                            if cadence.is_some() {
                                self.step_round();
                            }
                            next_round += poll;
                            // A long round must not trigger a catch-up
                            // burst.
                            let now = Instant::now();
                            if next_round < now {
                                next_round = now + poll;
                            }
                            continue;
                        }
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
            };
            match envelope.map(|e| (self.handle(e.req), e.reply)) {
                Some((Outcome::Reply(resp), reply)) => {
                    let _ = reply.try_send(Reply::encode(&resp));
                }
                Some((Outcome::Owe(rounds), reply)) => {
                    let step = OwedStep { rounds, reply };
                    if owed.is_none() {
                        owed = Some(step);
                    } else {
                        held = Some(step);
                    }
                }
                Some((Outcome::Shutdown, reply)) => {
                    if let Some(step) = owed.take() {
                        step.done();
                    }
                    let _ = reply.try_send(Reply::encode(&Response::Bye));
                    break;
                }
                // Nothing queued: run the owed step's next round, or
                // answer it once its rounds are run or every cell is
                // finished.
                None => {
                    if let Some(mut step) = owed.take() {
                        served = 0;
                        if step.rounds == 0 || self.fleet.all_finished() {
                            step.done();
                        } else {
                            self.step_round();
                            step.rounds -= 1;
                            owed = Some(step);
                        }
                    }
                }
            }
        }
        // A stop signal ends the owed and held steps early.
        owed.into_iter().chain(held).for_each(OwedStep::done);
        self.draining = true;
        let _ = self.fleet.persist_all(true, &mut NullHook);
        self.stop.store(true, Ordering::SeqCst);
        Ok(())
    }
}

/// What the engine does with a command.
enum Outcome {
    /// Answer at once.
    Reply(Response),
    /// Owe this many fleet rounds, answered `Done` when they are run.
    Owe(u64),
    /// End any owed step, answer `Bye`, then drain and exit.
    Shutdown,
}

/// A `Step` the engine owes: the rounds still to run and the
/// connection waiting for its `Done`.
struct OwedStep {
    rounds: u64,
    reply: SyncSender<Reply>,
}

impl OwedStep {
    /// Answer the step: its rounds are run, or a stop signal, a
    /// `Shutdown` or a finished fleet ended it early.
    fn done(self) {
        let _ = self
            .reply
            .try_send(Reply::encode(&Response::Done { cell: None }));
    }
}

// ---------------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------------

fn handle_connection(
    mut stream: TcpStream,
    tx: SyncSender<Envelope>,
    shared: Arc<Shared>,
    max_frame: usize,
    read_timeout: Duration,
) {
    let _ = stream.set_read_timeout(Some(read_timeout));
    let _ = stream.set_nodelay(true);
    loop {
        let payload = match read_frame(&mut stream, max_frame) {
            Ok(Some(payload)) => payload,
            Ok(None) => return,
            Err(e) => {
                shared.malformed.fetch_add(1, Ordering::Relaxed);
                respond(&mut stream, &error_response(&e), max_frame);
                return;
            }
        };
        let req = match decode_request(&payload) {
            Ok(req) => req,
            Err(e) => {
                shared.malformed.fetch_add(1, Ordering::Relaxed);
                respond(&mut stream, &error_response(&e), max_frame);
                return;
            }
        };
        let reply = match req {
            // Hello is answered by the handler itself: the handshake
            // must work even when the engine queue is saturated.
            Request::Hello { version } => Reply::encode(&hello(version, &shared)),
            other => {
                let (reply_tx, reply_rx) = std::sync::mpsc::sync_channel(1);
                match tx.try_send(Envelope {
                    req: other,
                    reply: reply_tx,
                }) {
                    Ok(()) => reply_rx.recv().unwrap_or_else(|_| {
                        Reply::encode(&Response::Error {
                            message: "daemon stopped before replying".into(),
                        })
                    }),
                    Err(TrySendError::Full(_)) => {
                        shared.busy.fetch_add(1, Ordering::Relaxed);
                        Reply::encode(&Response::Busy)
                    }
                    Err(TrySendError::Disconnected(_)) => Reply::encode(&Response::Error {
                        message: "daemon is shutting down".into(),
                    }),
                }
            }
        };
        if write_frame(&mut stream, &reply.payload, max_frame).is_err() || reply.closing {
            return;
        }
    }
}

/// The handshake reply: the daemon's version and resumed-cell count,
/// or a typed refusal of any other protocol version.
fn hello(version: u32, shared: &Shared) -> Response {
    if version == WIRE_VERSION {
        Response::Hello {
            version: WIRE_VERSION,
            resumed_cells: shared.resumed.load(Ordering::Relaxed),
        }
    } else {
        Response::Error {
            message: format!(
                "unsupported protocol version {version}, daemon speaks {WIRE_VERSION}"
            ),
        }
    }
}

fn error_response(e: &BluError) -> Response {
    Response::Error {
        message: e.to_string(),
    }
}

fn respond(stream: &mut TcpStream, resp: &Response, max_frame: usize) {
    let _ = write_frame(stream, &Reply::encode(resp).payload, max_frame);
}

// ---------------------------------------------------------------------------
// Service facade
// ---------------------------------------------------------------------------

/// The resident fleet daemon. [`BluService::start`] binds, resumes
/// (when asked) and spawns the engine and accept threads, returning a
/// [`ServiceHandle`] immediately.
pub struct BluService;

/// Handle to a running daemon.
pub struct ServiceHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    engine: Option<JoinHandle<Result<(), BluError>>>,
    accept: Option<JoinHandle<()>>,
}

impl ServiceHandle {
    /// The address actually bound (resolves `:0` ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request a graceful shutdown (the signal handlers' entry point:
    /// stop admissions → final fleet checkpoint → close).
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// The shared stop flag — hand it to a signal handler.
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Block until the daemon exits; surfaces engine errors.
    pub fn wait(mut self) -> Result<(), BluError> {
        let result = match self.engine.take() {
            Some(handle) => match handle.join() {
                Ok(result) => result,
                Err(p) => Err(BluError::Panicked(panic_message(p.as_ref()))),
            },
            None => Ok(()),
        };
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        result
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.engine.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl BluService {
    /// Validate, bind, resume the persisted fleet (with
    /// [`ServiceConfig::resume`]), and start serving. The returned
    /// handle owns the daemon; dropping it shuts the daemon down.
    pub fn start(config: ServiceConfig) -> Result<ServiceHandle, BluError> {
        config.validate()?;
        fs::create_dir_all(&config.dir)
            .map_err(|e| BluError::Checkpoint(format!("creating {}: {e}", config.dir.display())))?;

        let cells = if config.resume {
            Engine::resume_fleet(&config)?
        } else {
            Vec::new()
        };
        let shared = Arc::new(Shared {
            busy: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
            resumed: AtomicU64::new(cells.len() as u64),
        });
        let next_id = cells.iter().map(|c| c.id + 1).max().unwrap_or(0);
        let counters = ServiceCounters {
            resumed_cells: cells.len() as u64,
            ..ServiceCounters::default()
        };

        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| BluError::Wire(format!("binding {}: {e}", config.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| BluError::Wire(format!("resolving bound address: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| BluError::Wire(format!("configuring listener: {e}")))?;

        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::sync_channel::<Envelope>(config.queue_depth);
        let max_frame = config.max_frame;
        let read_timeout = Duration::from_millis(config.read_timeout_ms);

        let fleet = SupervisedFleet::new(cells, config.supervisor.shedding.clone(), false);
        let engine = Engine {
            config,
            fleet,
            next_id,
            draining: false,
            counters,
            shared: Arc::clone(&shared),
            stop: Arc::clone(&stop),
        };
        let engine_handle = std::thread::Builder::new()
            .name("blu-serve-engine".into())
            .spawn(move || engine.run(rx))
            .map_err(|e| BluError::Wire(format!("spawning engine thread: {e}")))?;

        let accept_stop = Arc::clone(&stop);
        let accept_handle = std::thread::Builder::new()
            .name("blu-serve-accept".into())
            .spawn(move || {
                accept_loop(listener, tx, shared, accept_stop, max_frame, read_timeout);
            })
            .map_err(|e| BluError::Wire(format!("spawning accept thread: {e}")))?;

        Ok(ServiceHandle {
            addr,
            stop,
            engine: Some(engine_handle),
            accept: Some(accept_handle),
        })
    }
}

fn accept_loop(
    listener: TcpListener,
    tx: SyncSender<Envelope>,
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
    max_frame: usize,
    read_timeout: Duration,
) {
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(false);
                let tx = tx.clone();
                let shared = Arc::clone(&shared);
                let _ = std::thread::Builder::new()
                    .name("blu-serve-conn".into())
                    .spawn(move || {
                        handle_connection(stream, tx, shared, max_frame, read_timeout);
                    });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

#[cfg(test)]
mod checkpoint_fuzz;
#[cfg(test)]
mod emitter_differential;
#[cfg(test)]
mod sidecar_fuzz;
