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
//!   lowest-priority cells to PF fallback between watermarks, exactly
//!   like the batch supervisor's ledger, and re-admits them as
//!   pressure drops.
//! * **Supervision** — each resident cell runs the PR 6 health
//!   machine: contained panics, stalls and step errors restart it
//!   through the disk → memory → fresh ladder under the same
//!   deterministic capped backoff; exhausted budgets quarantine to
//!   static PF.
//! * **Crash safety** — cells persist grid-aligned checkpoints plus a
//!   `cell-<id>.serve.json` sidecar carrying the cell's [`CellSpec`]
//!   and supervisor state. Because a spec regenerates its capture
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

use crate::engine::context::CellGeometry;
use crate::engine::{EngineArena, FleetEngine, HeartbeatCounter, Untimed};
use crate::error::BluError;
use crate::robust::{
    step_cell_shed, step_cell_with, OrchestratorState, RobustConfig, RobustSnapshot,
};
use crate::runtime::breaker::BreakerState;
use crate::runtime::checkpoint::{load_robust_checkpoint, save_robust_checkpoint};
use crate::runtime::panic_message;
use crate::runtime::supervisor::{
    CellHealth, CellSupervisor, RestartBackoff, RestartDecision, SupervisorConfig,
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
use serde::{Deserialize, Serialize};
use std::fs;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serve-sidecar format version written and required by this build.
pub const SERVE_SIDECAR_VERSION: u32 = 1;

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
    /// Shed lowest-priority cells while fleet inference pressure
    /// exceeds this ([`f64::INFINITY`] disables shedding).
    pub high_watermark: f64,
    /// Re-admit one shed cell per round once pressure is at or below
    /// this.
    pub low_watermark: f64,
    /// The robust loop configuration every resident cell runs under
    /// (its `checkpoint` field is ignored — the daemon owns
    /// persistence).
    pub robust: RobustConfig,
    /// Per-cell supervision (its `shedding` and `max_rounds` fields
    /// are ignored — the daemon owns both decisions).
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
            high_watermark: f64::INFINITY,
            low_watermark: f64::INFINITY,
            robust,
            supervisor: SupervisorConfig::default(),
        }
    }

    /// Up-front validation of every knob a wedged daemon would
    /// otherwise discover at 3am.
    pub fn validate(&self) -> Result<(), BluError> {
        self.robust.validate()?;
        self.supervisor.backoff.validate()?;
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
        if self.high_watermark.is_nan()
            || self.low_watermark.is_nan()
            || self.high_watermark <= 0.0
            || self.low_watermark < 0.0
            || self.low_watermark > self.high_watermark
        {
            return Err(BluError::InvalidConfig(
                "serve watermarks must satisfy 0 <= low <= high, high > 0".into(),
            ));
        }
        Ok(())
    }
}

/// Synthesize a cell's capture from its spec — the same generator
/// (and the same capture shape) as the chaos harness, so a persisted
/// spec is a complete resume record.
pub fn capture_for_spec(spec: &CellSpec) -> Result<FaultyCapture, BluError> {
    spec.validate()?;
    let duration = Micros::checked_from_secs(spec.seconds).ok_or(BluError::Overflow {
        what: "serve cell duration",
    })?;
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
        // regenerates the identical churned capture on resume.
        let total = spec.seconds.checked_mul(1_000).ok_or(BluError::Overflow {
            what: "serve churn window",
        })?;
        let start = total / 3;
        let duration = total - start;
        if duration > 0 {
            let churn_cfg = blu_sim::churn::ChurnConfig::with_total_rate(
                cfg.n_ues,
                duration,
                spec.churn_rate_hz(),
            );
            let mut rng = DetRng::seed_from_u64(spec.seed).derive("serve-churn");
            let churn = blu_sim::churn::generate_churn(&churn_cfg, cfg.n_hts, rng.next_u64())
                .map_err(BluError::from)?;
            events.extend(crate::robust::compile_churn_script(&churn, start)?.events);
        }
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

/// Serve sidecar persisted next to each cell checkpoint: the spec
/// (capture regeneration) plus supervisor/backoff/shed state.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ServeSidecar {
    version: u32,
    id: u64,
    spec: CellSpec,
    health: CellHealth,
    restarts_used: u32,
    silent_steps: u32,
    backoff_attempts: u32,
    backoff_rounds_left: u64,
    shed: bool,
    shed_rounds: u64,
    finished: bool,
    last_error: Option<String>,
}

/// Result of one cell's parallel step, settled sequentially.
enum StepOutcome {
    Idle,
    Progress {
        more: bool,
        heartbeats: u64,
        hard_stalled: bool,
    },
    Panicked(String),
    Failed(String),
}

/// One resident cell. Unlike the batch supervisor's borrowing cells,
/// a `ServeCell` *owns* its capture — the daemon adds and removes
/// cells at runtime — and steps through the same free functions
/// ([`step_cell_with`]/[`step_cell_shed`]) as the batch path, so both
/// evolve identically.
struct ServeCell {
    id: u64,
    spec: CellSpec,
    /// Effective robust config for this cell: the daemon-wide config
    /// with the spec's streaming window layered on, so phased and
    /// streaming cells coexist in one fleet.
    robust: RobustConfig,
    capture: FaultyCapture,
    geom: CellGeometry,
    snap: RobustSnapshot,
    arena: EngineArena,
    sup: CellSupervisor,
    backoff: RestartBackoff,
    backoff_rounds_left: u64,
    shed: bool,
    shed_rounds: u64,
    last_good: Option<RobustSnapshot>,
    last_error: Option<String>,
    outcome: StepOutcome,
    finished: bool,
    final_saved: bool,
    last_saved: u64,
    ckpt_path: PathBuf,
    sidecar_path: PathBuf,
}

impl ServeCell {
    fn paths(dir: &std::path::Path, id: u64) -> (PathBuf, PathBuf) {
        (
            dir.join(format!("cell-{id}.json")),
            dir.join(format!("cell-{id}.serve.json")),
        )
    }

    fn backoff_rng(config: &ServiceConfig, id: u64) -> DetRng {
        DetRng::seed_from_u64(config.robust.seed).derive_indexed("serve-restart-backoff", id)
    }

    /// Admit a fresh cell.
    fn create(id: u64, spec: CellSpec, config: &ServiceConfig) -> Result<Self, BluError> {
        let capture = capture_for_spec(&spec)?;
        let mut robust = config.robust.clone();
        if spec.stream_window > 0 {
            let streaming = crate::robust::StreamingConfig::new(spec.stream_window as usize);
            streaming.validate()?;
            robust.streaming = Some(streaming);
        }
        let geom = CellGeometry::derive(&capture.trace, &config.robust.blu.emulation);
        let snap = RobustSnapshot::fresh(
            geom.n,
            geom.trace_len,
            config.robust.seed,
            config.robust.drift_alpha,
            config.robust.breaker,
        );
        let (ckpt_path, sidecar_path) = ServeCell::paths(&config.dir, id);
        Ok(ServeCell {
            id,
            spec,
            robust,
            capture,
            geom,
            snap,
            arena: EngineArena::new(),
            sup: CellSupervisor::new(&config.supervisor),
            backoff: RestartBackoff::new(
                config.supervisor.backoff,
                ServeCell::backoff_rng(config, id),
            ),
            backoff_rounds_left: 0,
            shed: false,
            shed_rounds: 0,
            last_good: None,
            last_error: None,
            outcome: StepOutcome::Idle,
            finished: false,
            final_saved: false,
            last_saved: 0,
            ckpt_path,
            sidecar_path,
        })
    }

    /// Rebuild a cell from its persisted sidecar (+ checkpoint, when
    /// one exists — a cell killed before its first grid crossing
    /// resumes fresh, which *is* the uninterrupted behavior).
    fn resume(side: ServeSidecar, config: &ServiceConfig) -> Result<Self, BluError> {
        let mut cell = ServeCell::create(side.id, side.spec.clone(), config)?;
        if cell.ckpt_path.exists() {
            let snap = load_robust_checkpoint(&cell.ckpt_path)?;
            cell.adopt(snap, config)?;
            cell.last_saved = cell.snap.cursor;
        }
        cell.sup.restore_state(
            side.health,
            side.restarts_used,
            side.silent_steps,
            Vec::new(),
        );
        cell.backoff = RestartBackoff::replayed(
            config.supervisor.backoff,
            ServeCell::backoff_rng(config, side.id),
            side.backoff_attempts,
        );
        cell.backoff_rounds_left = side.backoff_rounds_left;
        cell.shed = side.shed;
        cell.shed_rounds = side.shed_rounds;
        cell.finished = side.finished || cell.snap.done;
        cell.final_saved = cell.finished;
        cell.last_error = side.last_error;
        Ok(cell)
    }

    /// Install a restored snapshot, guarding against the wrong
    /// capture or a reconfigured daemon (the same checks as
    /// `RobustDriver::resume`).
    fn adopt(&mut self, snap: RobustSnapshot, config: &ServiceConfig) -> Result<(), BluError> {
        if snap.n_clients != self.geom.n as u64 || snap.trace_len != self.geom.trace_len {
            return Err(BluError::Checkpoint(format!(
                "cell {} snapshot was taken against a different capture \
                 ({} clients / {} sub-frames, spec regenerates {} / {})",
                self.id, snap.n_clients, snap.trace_len, self.geom.n, self.geom.trace_len
            )));
        }
        if snap.config_seed != config.robust.seed {
            return Err(BluError::Checkpoint(format!(
                "cell {} snapshot seed {:#x} does not match configured seed {:#x}",
                self.id, snap.config_seed, config.robust.seed
            )));
        }
        self.snap = snap;
        Ok(())
    }

    fn save_sidecar(&self) -> Result<(), BluError> {
        let side = ServeSidecar {
            version: SERVE_SIDECAR_VERSION,
            id: self.id,
            spec: self.spec.clone(),
            health: self.sup.health(),
            restarts_used: self.sup.restarts_used(),
            silent_steps: self.sup.silent_steps(),
            backoff_attempts: self.backoff.attempts(),
            backoff_rounds_left: self.backoff_rounds_left,
            shed: self.shed,
            shed_rounds: self.shed_rounds,
            finished: self.finished,
            last_error: self.last_error.clone(),
        };
        let path = &self.sidecar_path;
        let json = serde_json::to_string_pretty(&side)
            .map_err(|e| BluError::Checkpoint(format!("serializing {}: {e}", path.display())))?;
        let tmp = path.with_extension("tmp");
        {
            let mut f = fs::File::create(&tmp)
                .map_err(|e| BluError::Checkpoint(format!("creating {}: {e}", tmp.display())))?;
            f.write_all(json.as_bytes())
                .map_err(|e| BluError::Checkpoint(format!("writing {}: {e}", tmp.display())))?;
            f.sync_all()
                .map_err(|e| BluError::Checkpoint(format!("syncing {}: {e}", tmp.display())))?;
        }
        fs::rename(&tmp, path)
            .map_err(|e| BluError::Checkpoint(format!("renaming {}: {e}", path.display())))?;
        Ok(())
    }

    /// Grid-aligned persistence: identical semantics to the batch
    /// supervisor, so the set of on-disk restore points is a pure
    /// function of the cell's step sequence.
    fn persist_with(&mut self, every_subframes: u64, force: bool) -> Result<(), BluError> {
        if self.finished && self.final_saved {
            return Ok(());
        }
        let interval_due = every_subframes > 0
            && self.snap.cursor / every_subframes != self.last_saved / every_subframes;
        if !(interval_due || self.finished || force) {
            return Ok(());
        }
        save_robust_checkpoint(&self.ckpt_path, &self.snap)?;
        self.last_saved = self.snap.cursor;
        self.save_sidecar()?;
        if self.finished {
            self.final_saved = true;
        }
        Ok(())
    }

    /// Sequential pre-round bookkeeping: tick the backoff clock.
    fn pre_round(&mut self) {
        if self.finished || self.backoff_rounds_left == 0 {
            return;
        }
        self.backoff_rounds_left -= 1;
        if self.backoff_rounds_left == 0 {
            self.sup.restart_complete(self.snap.cursor);
        }
    }

    /// This cell's contribution to fleet inference pressure (the
    /// batch supervisor's formula).
    fn current_load(&self) -> f64 {
        if self.finished
            || self.shed
            || self.backoff_rounds_left > 0
            || self.sup.health() == CellHealth::Quarantined
            || self.snap.done
        {
            return 0.0;
        }
        match self.snap.state {
            OrchestratorState::Measuring
            | OrchestratorState::Remeasuring
            | OrchestratorState::Drifting => f64::from(
                self.capture
                    .script
                    .runtime_state_at(self.snap.cursor)
                    .stall_factor,
            ),
            _ => 0.0,
        }
    }

    /// The parallel half of a round: step (or idle) and stash the
    /// outcome. Every panic is caught inside the fleet closure.
    fn parallel_step(&mut self, stall_factor_limit: u32) {
        self.outcome = self.compute_step(stall_factor_limit);
    }

    fn compute_step(&mut self, stall_factor_limit: u32) -> StepOutcome {
        if self.finished || self.backoff_rounds_left > 0 {
            return StepOutcome::Idle;
        }
        if self.sup.health() == CellHealth::Quarantined || self.shed {
            let robust = &self.robust;
            let capture = &self.capture;
            let snap = &mut self.snap;
            let arena = &mut self.arena;
            return match catch_unwind(AssertUnwindSafe(|| {
                step_cell_shed(capture, robust, snap, arena)
            })) {
                Ok(Ok(more)) => StepOutcome::Progress {
                    more,
                    heartbeats: 1,
                    hard_stalled: false,
                },
                Ok(Err(e)) => StepOutcome::Failed(e.to_string()),
                Err(p) => StepOutcome::Panicked(panic_message(p.as_ref())),
            };
        }
        let cursor = self.snap.cursor;
        let measuring = matches!(
            self.snap.state,
            OrchestratorState::Measuring | OrchestratorState::Remeasuring
        );
        let hard_stalled = measuring
            && self.capture.script.runtime_state_at(cursor).stall_factor >= stall_factor_limit;
        // Pre-step state is the in-memory restore point: a failed
        // attempt must be redone, never resumed past.
        self.last_good = Some(self.snap.clone());
        let robust = &self.robust;
        let capture = &self.capture;
        let geom = &self.geom;
        let snap = &mut self.snap;
        let arena = &mut self.arena;
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut beats = HeartbeatCounter::default();
            step_cell_with(capture, robust, geom, snap, arena, &mut beats)
                .map(|more| (more, beats.beats()))
        }));
        match result {
            Ok(Ok((more, heartbeats))) => StepOutcome::Progress {
                more,
                heartbeats,
                hard_stalled,
            },
            Ok(Err(e)) => StepOutcome::Failed(e.to_string()),
            Err(p) => StepOutcome::Panicked(panic_message(p.as_ref())),
        }
    }

    /// The sequential half: drive the health machine from the stashed
    /// outcome. Returns how many restarts this settle consumed.
    fn settle(&mut self, config: &ServiceConfig) -> u64 {
        match std::mem::replace(&mut self.outcome, StepOutcome::Idle) {
            StepOutcome::Idle => 0,
            StepOutcome::Progress {
                more,
                heartbeats,
                hard_stalled,
            } => {
                if !more {
                    self.finished = true;
                    0
                } else if self.sup.health() != CellHealth::Quarantined && !self.shed {
                    let cursor = self.snap.cursor;
                    let open = self.snap.breaker.state() == BreakerState::Open;
                    self.sup.note_breaker(cursor, open);
                    match self.sup.note_step(cursor, heartbeats, hard_stalled) {
                        Some(kind) => self.fail(kind, config),
                        None => 0,
                    }
                } else {
                    0
                }
            }
            StepOutcome::Panicked(msg) => {
                self.last_error = Some(msg);
                self.fail(crate::runtime::supervisor::FailureKind::Panic, config)
            }
            StepOutcome::Failed(msg) => {
                self.last_error = Some(msg);
                self.fail(crate::runtime::supervisor::FailureKind::Error, config)
            }
        }
    }

    fn fail(
        &mut self,
        kind: crate::runtime::supervisor::FailureKind,
        config: &ServiceConfig,
    ) -> u64 {
        let was_quarantined = self.sup.health() == CellHealth::Quarantined;
        let cursor = self.snap.cursor;
        match self.sup.on_failure(cursor, kind) {
            RestartDecision::Restart { .. } => {
                self.restore(config);
                self.backoff_rounds_left = self.backoff.next_wait_rounds();
                1
            }
            RestartDecision::Quarantine => {
                if was_quarantined {
                    self.finished = true;
                } else {
                    self.restore(config);
                }
                0
            }
        }
    }

    /// Disk checkpoint → in-memory known-good → fresh. Never errors.
    fn restore(&mut self, config: &ServiceConfig) {
        if let Ok(snap) = load_robust_checkpoint(&self.ckpt_path) {
            if self.adopt(snap, config).is_ok() {
                return;
            }
        }
        if let Some(good) = self.last_good.clone() {
            self.snap = good;
            return;
        }
        self.snap = RobustSnapshot::fresh(
            self.geom.n,
            self.geom.trace_len,
            config.robust.seed,
            config.robust.drift_alpha,
            config.robust.breaker,
        );
    }

    fn status(&self) -> CellStatus {
        CellStatus {
            cell: self.id,
            health: self.sup.health(),
            state: self.snap.state,
            cursor: self.snap.cursor,
            trace_len: self.geom.trace_len,
            done: self.snap.done,
            restarts: self.sup.restarts_used(),
            shed: self.shed,
            shed_rounds: self.shed_rounds,
            priority: self.spec.priority,
            digest: snapshot_digest(&self.snap),
            window_occupancy: self
                .snap
                .stream
                .as_ref()
                .map_or(0, |s| s.window.occupancy() as u64),
            window_capacity: self
                .snap
                .stream
                .as_ref()
                .map_or(0, |s| s.window.capacity() as u64),
        }
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
    cells: Vec<ServeCell>,
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
        let mut ids: Vec<u64> = Vec::new();
        if config.dir.exists() {
            let entries = fs::read_dir(&config.dir).map_err(|e| {
                BluError::Checkpoint(format!("scanning {}: {e}", config.dir.display()))
            })?;
            for entry in entries {
                let entry = entry.map_err(|e| {
                    BluError::Checkpoint(format!("scanning {}: {e}", config.dir.display()))
                })?;
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                if let Some(id) = name
                    .strip_prefix("cell-")
                    .and_then(|s| s.strip_suffix(".serve.json"))
                    .and_then(|s| s.parse::<u64>().ok())
                {
                    ids.push(id);
                }
            }
        }
        ids.sort_unstable();
        let mut cells = Vec::with_capacity(ids.len());
        for id in ids {
            let path = config.dir.join(format!("cell-{id}.serve.json"));
            let text = fs::read_to_string(&path)
                .map_err(|e| BluError::Checkpoint(format!("reading {}: {e}", path.display())))?;
            let side: ServeSidecar = serde_json::from_str(&text)
                .map_err(|e| BluError::Checkpoint(format!("decoding {}: {e}", path.display())))?;
            if side.version != SERVE_SIDECAR_VERSION {
                return Err(BluError::Checkpoint(format!(
                    "serve sidecar {} has version {}, this build requires {}",
                    path.display(),
                    side.version,
                    SERVE_SIDECAR_VERSION
                )));
            }
            cells.push(ServeCell::resume(side, config)?);
        }
        Ok(cells)
    }

    /// One fleet round: backoff ticks → watermark admission control →
    /// parallel step across the fleet shards → sequential settle and
    /// grid persistence, in cell order.
    fn step_round(&mut self) {
        if self.cells.iter().all(|c| c.finished) {
            return;
        }
        for cell in self.cells.iter_mut() {
            cell.pre_round();
        }
        self.apply_watermarks();
        for cell in self.cells.iter_mut() {
            if cell.shed && !cell.finished {
                cell.shed_rounds += 1;
                self.counters.shed_rounds_total += 1;
            }
        }
        let limit = self.config.supervisor.stall_factor_limit;
        let refs: Vec<&mut ServeCell> = self.cells.iter_mut().collect();
        FleetEngine::run(refs, || (), |_, cell| cell.parallel_step(limit));
        let mut restarts = 0u64;
        for cell in self.cells.iter_mut() {
            restarts += cell.settle(&self.config);
            if let Err(e) = cell.persist_with(self.config.every_subframes, false) {
                cell.last_error = Some(e.to_string());
                eprintln!("blu serve: cell {} checkpoint failed: {e}", cell.id);
            }
        }
        self.counters.restarts += restarts;
        self.counters.rounds += 1;
    }

    /// Watermark backpressure: shed lowest-priority contributing
    /// cells (highest id on ties) while pressure exceeds the high
    /// watermark; re-admit one per round (highest priority, lowest id)
    /// once at or below the low watermark. The ordering rules are the
    /// batch supervisor's, keyed by spec priorities.
    fn apply_watermarks(&mut self) {
        if !self.config.high_watermark.is_finite() {
            return;
        }
        let loads: Vec<f64> = self.cells.iter().map(ServeCell::current_load).collect();
        let mut pressure: f64 = loads.iter().sum();
        let mut newly_shed = vec![false; self.cells.len()];
        while pressure > self.config.high_watermark {
            let mut pick: Option<usize> = None;
            for (i, cell) in self.cells.iter().enumerate() {
                if cell.shed || loads[i] <= 0.0 {
                    continue;
                }
                pick = Some(match pick {
                    None => i,
                    Some(p) => {
                        let (pp, pi) = (self.cells[p].spec.priority, cell.spec.priority);
                        if pi < pp || (pi == pp && cell.id > self.cells[p].id) {
                            i
                        } else {
                            p
                        }
                    }
                });
            }
            let Some(i) = pick else { break };
            self.cells[i].shed = true;
            newly_shed[i] = true;
            pressure -= loads[i];
            self.counters.shed_events += 1;
        }
        if pressure <= self.config.low_watermark {
            let mut pick: Option<usize> = None;
            for (i, cell) in self.cells.iter().enumerate() {
                if !cell.shed || newly_shed[i] || cell.finished {
                    continue;
                }
                pick = Some(match pick {
                    None => i,
                    Some(p) => {
                        let (pp, pi) = (self.cells[p].spec.priority, cell.spec.priority);
                        if pi > pp || (pi == pp && cell.id < self.cells[p].id) {
                            i
                        } else {
                            p
                        }
                    }
                });
            }
            if let Some(i) = pick {
                self.cells[i].shed = false;
                self.counters.readmit_events += 1;
            }
        }
    }

    fn persist_all(&mut self, force: bool) {
        for cell in self.cells.iter_mut() {
            if let Err(e) = cell.persist_with(self.config.every_subframes, force) {
                cell.last_error = Some(e.to_string());
                eprintln!("blu serve: cell {} checkpoint failed: {e}", cell.id);
            }
        }
    }

    fn folded_counters(&self) -> ServiceCounters {
        let mut c = self.counters;
        c.busy_responses = self.shared.busy.load(Ordering::Relaxed);
        c.malformed_frames = self.shared.malformed.load(Ordering::Relaxed);
        c.resumed_cells = self.shared.resumed.load(Ordering::Relaxed);
        c.quarantined = self
            .cells
            .iter()
            .filter(|c| c.sup.health() == CellHealth::Quarantined)
            .count() as u64;
        c
    }

    fn status_report(&self) -> StatusReport {
        StatusReport {
            version: WIRE_VERSION,
            draining: self.draining,
            max_cells: self.config.max_cells as u64,
            counters: self.folded_counters(),
            cells: self.cells.iter().map(ServeCell::status).collect(),
        }
    }

    fn metrics_text(&self) -> String {
        let c = self.folded_counters();
        let breaker_open = self
            .cells
            .iter()
            .filter(|cell| cell.snap.breaker.state() == BreakerState::Open)
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
        let streams = || {
            self.cells
                .iter()
                .filter_map(|cell| cell.snap.stream.as_ref())
        };
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
        gauge("blu_serve_cells", self.cells.len() as u64);
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

    /// Handle one command. Returns `true` when the daemon must shut
    /// down after replying.
    fn handle(&mut self, req: Request) -> (Response, bool) {
        match req {
            Request::Hello { version } => {
                if version == WIRE_VERSION {
                    (
                        Response::Hello {
                            version: WIRE_VERSION,
                            resumed_cells: self.shared.resumed.load(Ordering::Relaxed),
                        },
                        false,
                    )
                } else {
                    (
                        Response::Error {
                            message: format!(
                                "unsupported protocol version {version}, daemon speaks {WIRE_VERSION}"
                            ),
                        },
                        false,
                    )
                }
            }
            Request::AddCell { spec } => {
                if self.draining {
                    self.counters.rejections += 1;
                    return (
                        Response::Rejected {
                            reason: "daemon is draining: admissions are closed".into(),
                        },
                        false,
                    );
                }
                if self.cells.len() >= self.config.max_cells {
                    self.counters.rejections += 1;
                    return (
                        Response::Rejected {
                            reason: format!(
                                "admission budget exhausted: {} of {} cells resident",
                                self.cells.len(),
                                self.config.max_cells
                            ),
                        },
                        false,
                    );
                }
                let id = self.next_id;
                match ServeCell::create(id, spec, &self.config) {
                    Ok(cell) => {
                        // The sidecar lands at admission time: the
                        // fleet roster must survive a kill -9 that
                        // beats the cell's first grid checkpoint.
                        if let Err(e) = cell.save_sidecar() {
                            eprintln!("blu serve: admission sidecar for cell {id} failed: {e}");
                        }
                        self.next_id += 1;
                        self.counters.admissions += 1;
                        self.cells.push(cell);
                        (Response::Done { cell: Some(id) }, false)
                    }
                    Err(e) => (
                        Response::Error {
                            message: e.to_string(),
                        },
                        false,
                    ),
                }
            }
            Request::RemoveCell { cell } => {
                let Some(pos) = self.cells.iter().position(|c| c.id == cell) else {
                    return (
                        Response::Error {
                            message: format!("no resident cell with id {cell}"),
                        },
                        false,
                    );
                };
                let mut removed = self.cells.remove(pos);
                if let Err(e) = removed.persist_with(self.config.every_subframes, true) {
                    eprintln!("blu serve: final checkpoint of removed cell {cell} failed: {e}");
                }
                (Response::Done { cell: Some(cell) }, false)
            }
            Request::Step { rounds } => {
                for _ in 0..rounds {
                    // A stop signal interrupts a long burst: the
                    // graceful path must not wait out a
                    // `step --rounds 100000`.
                    if self.stop.load(Ordering::SeqCst) || self.cells.iter().all(|c| c.finished) {
                        break;
                    }
                    self.step_round();
                }
                (Response::Done { cell: None }, false)
            }
            Request::Status => (Response::Status(self.status_report()), false),
            Request::Metrics => (
                Response::Metrics {
                    text: self.metrics_text(),
                },
                false,
            ),
            Request::Snapshot => {
                self.persist_all(true);
                (Response::Done { cell: None }, false)
            }
            Request::Drain => {
                self.draining = true;
                (Response::Done { cell: None }, false)
            }
            Request::Shutdown => {
                self.draining = true;
                (Response::Bye, true)
            }
        }
    }

    /// The daemon main loop: commands drain from the bounded queue,
    /// the fleet steps on cadence (when configured), and a stop
    /// signal or `Shutdown` command triggers the graceful path —
    /// close admissions, force-persist every cell, exit.
    fn run(mut self, rx: Receiver<Envelope>) -> Result<(), BluError> {
        let cadence =
            (self.config.cadence_ms > 0).then(|| Duration::from_millis(self.config.cadence_ms));
        let poll = cadence.unwrap_or(Duration::from_millis(25));
        let mut next_round = Instant::now() + poll;
        loop {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let wait = next_round.saturating_duration_since(Instant::now());
            match rx.recv_timeout(wait) {
                Ok(envelope) => {
                    let (resp, shutdown) = self.handle(envelope.req);
                    let _ = envelope.reply.try_send(Reply::encode(&resp));
                    if shutdown {
                        break;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    if cadence.is_some() {
                        self.step_round();
                    }
                    next_round += poll;
                    // A long round must not trigger a catch-up burst.
                    let now = Instant::now();
                    if next_round < now {
                        next_round = now + poll;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        self.draining = true;
        self.persist_all(true);
        self.stop.store(true, Ordering::SeqCst);
        Ok(())
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
            Request::Hello { version } => Reply::encode(&if version == WIRE_VERSION {
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
            }),
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

        let engine = Engine {
            config,
            cells,
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
mod emitter_differential;
