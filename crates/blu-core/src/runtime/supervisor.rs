//! Fleet supervision: restart-from-checkpoint, quarantine, and load
//! shedding over the sharded fleet engine.
//!
//! One supervised cell serves both drivers of the fleet: the batch
//! [`run_supervised_fleet`] (chaos storms, `blu robust`) and the
//! `blu serve` daemon. Each steps the same `SupervisedCell`s through
//! the same `SupervisedFleet` round, so a cell's evolution does not
//! depend on which of them runs it.
//!
//! ## Per-cell health machine
//!
//! [`CellSupervisor`] is a pure (no I/O, fully deterministic) state
//! machine driven by watchdog evidence from each supervised step:
//!
//! ```text
//!   Healthy ◄────────────► Degraded        breaker open / recovered
//!      │                      │
//!      │  panic / stall / error
//!      ▼                      ▼
//!   Restarting ───────────► Healthy        restore + backoff elapsed
//!      │     ▲    │
//!      │     └────┘  repeated failure (retry budget left)
//!      │  retry budget exhausted
//!      ▼
//!   Quarantined                            absorbing: static PF
//! ```
//!
//! A failure (contained panic, hard inference stall, or a typed step
//! error) triggers a restart: the cell's state is restored from its
//! latest on-disk checkpoint if one loads cleanly, else from the last
//! known-good in-memory snapshot, else from scratch — and the cell
//! idles through a capped, exponentially backed-off, deterministically
//! jittered number of rounds (the circuit breaker's escalation
//! formula, re-used round-clocked) before stepping again. A cell that
//! exhausts its restart budget is quarantined: it keeps serving
//! traffic as a static PF scheduler (the robust loop's shed arm) so
//! the fleet keeps running, but never re-enters inference.
//!
//! ## Watchdog semantics
//!
//! Liveness is measured with a [`HeartbeatCounter`] tapped into the
//! robust step as its observer: a step that produces zero beats did no engine work
//! and counts as *silent*; [`SupervisorConfig::stall_threshold_steps`]
//! consecutive silent steps fail the cell. A *hard stall* — the
//! scripted inference stall factor at the cell's cursor reaching
//! [`SupervisorConfig::stall_factor_limit`] while the cell is in a
//! measuring state — fails the step immediately: an inference running
//! at ≥ `limit ×` its time budget is indistinguishable from a hang.
//!
//! ## Load shedding
//!
//! With a [`SheddingPolicy`] configured, each round computes a fleet
//! *pressure*: the sum, over cells actively in (or entering)
//! inference, of their scripted stall factor — a healthy inferring
//! cell contributes 1, a cell stalling at 10× contributes 10, cells
//! that are speculating, shed, quarantined or waiting out a backoff
//! contribute 0. Above the high watermark the lowest-priority
//! contributing cells are shed to PF fallback; at or below the low
//! watermark one shed cell is re-admitted per round.
//!
//! ## Determinism and resume
//!
//! Everything here is clocked in rounds and subframes — never wall
//! time — and all randomness (restart jitter) comes from seeded
//! [`DetRng`] streams derived per cell, so a supervised run is a pure
//! function of its inputs. Supervision state persists in a versioned
//! sidecar (`CellSidecar`) next to each cell checkpoint, so killing and
//! restarting the fleet resumes bit-identically.

use crate::engine::{CellGeometry, EngineArena, FleetEngine, HeartbeatCounter};
use crate::error::BluError;
use crate::robust::{
    check_snapshot, start_cell, step_cell_shed, step_cell_with, OrchestratorState, RobustConfig,
    RobustRunReport, RobustSnapshot,
};
use crate::runtime::breaker::BreakerState;
use crate::runtime::checkpoint::{
    io_err, load_robust_checkpoint, save_robust_checkpoint, write_json_atomic,
};
use crate::runtime::panic_message;
use blu_sim::rng::DetRng;
use blu_traces::faults::FaultyCapture;
use serde::{Deserialize, Serialize, Value};
use std::borrow::Cow;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// Sidecar-format version written and required by this build.
pub const CELL_SIDECAR_VERSION: u32 = 2;

/// A supervised cell's health, as seen by the fleet supervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CellHealth {
    /// Stepping normally.
    Healthy,
    /// Stepping, but its circuit breaker is open (inference parked).
    Degraded,
    /// Failed; restored from a snapshot and waiting out its backoff.
    Restarting,
    /// Retry budget exhausted: permanently parked on static PF.
    Quarantined,
}

/// Why a health transition happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HealthCause {
    /// A panic escaped the cell's step and was caught by the
    /// supervisor.
    Panic,
    /// The stall watchdog fired (silent steps or a hard stall).
    Stall,
    /// The step returned a typed [`BluError`].
    Error,
    /// The cell's circuit breaker opened.
    BreakerOpen,
    /// The cell's circuit breaker left the open state.
    BreakerRecovered,
    /// The post-restore backoff elapsed; the cell steps again.
    RestartComplete,
    /// The restart budget ran out; the cell is quarantined.
    RetryBudgetExhausted,
}

/// The failure classes the supervisor reacts to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// A panic escaped the step.
    Panic,
    /// The stall watchdog fired.
    Stall,
    /// The step returned an error.
    Error,
}

impl FailureKind {
    fn cause(self) -> HealthCause {
        match self {
            FailureKind::Panic => HealthCause::Panic,
            FailureKind::Stall => HealthCause::Stall,
            FailureKind::Error => HealthCause::Error,
        }
    }
}

/// One recorded health transition (`at_subframe` is the cell's trace
/// cursor — stable across kill/resume, unlike round numbers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthTransition {
    /// Cell cursor when the transition happened.
    pub at_subframe: u64,
    /// State left.
    pub from: CellHealth,
    /// State entered.
    pub to: CellHealth,
    /// What drove it.
    pub cause: HealthCause,
}

/// Verdict of [`CellSupervisor::on_failure`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartDecision {
    /// Restore from a snapshot and retry (`attempt` counts from 1).
    Restart {
        /// Which restart this is (1-based, monotone per cell).
        attempt: u32,
    },
    /// Budget exhausted (or already quarantined): park on PF forever.
    Quarantine,
}

/// Where a restart's state came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RestartSource {
    /// The latest on-disk checkpoint loaded and validated cleanly.
    DiskCheckpoint,
    /// Disk was absent/torn; the last in-memory known-good snapshot.
    MemorySnapshot,
    /// No snapshot survived; the cell restarted from scratch.
    Fresh,
}

/// The pure per-cell health state machine. Holds no I/O and no
/// references — the fleet loop feeds it watchdog evidence and obeys
/// its decisions, which is what makes it property-testable in
/// isolation.
#[derive(Debug, Clone)]
pub struct CellSupervisor {
    health: CellHealth,
    restarts_used: u32,
    max_restarts: u32,
    silent_steps: u32,
    stall_threshold_steps: u32,
    transitions: Vec<HealthTransition>,
}

impl CellSupervisor {
    /// A healthy supervisor with the config's retry budget and
    /// watchdog threshold.
    pub fn new(config: &SupervisorConfig) -> Self {
        CellSupervisor {
            health: CellHealth::Healthy,
            restarts_used: 0,
            max_restarts: config.max_restarts,
            silent_steps: 0,
            stall_threshold_steps: config.stall_threshold_steps,
            transitions: Vec::new(),
        }
    }

    /// Current health.
    pub fn health(&self) -> CellHealth {
        self.health
    }

    /// Restarts consumed so far (monotone within a run).
    pub fn restarts_used(&self) -> u32 {
        self.restarts_used
    }

    /// All recorded transitions, in order.
    pub fn transitions(&self) -> &[HealthTransition] {
        &self.transitions
    }

    fn transition(&mut self, at_subframe: u64, to: CellHealth, cause: HealthCause) {
        self.transitions.push(HealthTransition {
            at_subframe,
            from: self.health,
            to,
            cause,
        });
        self.health = to;
    }

    /// Feed the cell's breaker position: toggles Healthy ↔ Degraded.
    /// Ignored while Restarting or Quarantined — those states outrank
    /// breaker telemetry.
    pub fn note_breaker(&mut self, at_subframe: u64, open: bool) {
        match (self.health, open) {
            (CellHealth::Healthy, true) => {
                self.transition(at_subframe, CellHealth::Degraded, HealthCause::BreakerOpen);
            }
            (CellHealth::Degraded, false) => {
                self.transition(
                    at_subframe,
                    CellHealth::Healthy,
                    HealthCause::BreakerRecovered,
                );
            }
            _ => {}
        }
    }

    /// Feed one step's watchdog evidence. `heartbeats` is the step's
    /// beat count; `hard_stalled` means the step ran inference at or
    /// beyond the stall-factor limit. Returns the failure the fleet
    /// loop must act on, if any.
    pub fn note_step(
        &mut self,
        _at_subframe: u64,
        heartbeats: u64,
        hard_stalled: bool,
    ) -> Option<FailureKind> {
        if hard_stalled {
            self.silent_steps = 0;
            return Some(FailureKind::Stall);
        }
        if heartbeats == 0 {
            self.silent_steps += 1;
            if self.silent_steps >= self.stall_threshold_steps {
                self.silent_steps = 0;
                return Some(FailureKind::Stall);
            }
        } else {
            self.silent_steps = 0;
        }
        None
    }

    /// Decide what to do about a failure. Quarantined is absorbing;
    /// otherwise the retry budget either grants another restart or
    /// quarantines the cell.
    pub fn on_failure(&mut self, at_subframe: u64, kind: FailureKind) -> RestartDecision {
        if self.health == CellHealth::Quarantined {
            return RestartDecision::Quarantine;
        }
        if self.restarts_used >= self.max_restarts {
            self.transition(
                at_subframe,
                CellHealth::Quarantined,
                HealthCause::RetryBudgetExhausted,
            );
            return RestartDecision::Quarantine;
        }
        self.restarts_used += 1;
        self.silent_steps = 0;
        self.transition(at_subframe, CellHealth::Restarting, kind.cause());
        RestartDecision::Restart {
            attempt: self.restarts_used,
        }
    }

    /// The restored cell's backoff elapsed: Restarting → Healthy.
    pub fn restart_complete(&mut self, at_subframe: u64) {
        if self.health == CellHealth::Restarting {
            self.transition(
                at_subframe,
                CellHealth::Healthy,
                HealthCause::RestartComplete,
            );
        }
    }
}

/// Restart backoff tuning, clocked in fleet rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RestartBackoffConfig {
    /// Rounds idled after the first restart.
    pub base_rounds: u64,
    /// Backoff ceiling, in rounds.
    pub max_rounds: u64,
    /// Jitter as a fraction of the backoff (the breaker's formula:
    /// actual wait is `backoff * (1 ± jitter_frac)`).
    pub jitter_frac: f64,
}

impl Default for RestartBackoffConfig {
    fn default() -> Self {
        RestartBackoffConfig {
            base_rounds: 2,
            max_rounds: 16,
            jitter_frac: 0.1,
        }
    }
}

impl RestartBackoffConfig {
    /// Reject configurations that would wedge the restart schedule.
    pub fn validate(&self) -> Result<(), BluError> {
        if self.base_rounds == 0 {
            return Err(BluError::InvalidConfig(
                "restart backoff base_rounds must be > 0".into(),
            ));
        }
        if self.max_rounds < self.base_rounds {
            return Err(BluError::InvalidConfig(
                "restart backoff max_rounds must be >= base_rounds".into(),
            ));
        }
        if !self.jitter_frac.is_finite() || !(0.0..1.0).contains(&self.jitter_frac) {
            return Err(BluError::InvalidConfig(
                "restart backoff jitter_frac must be finite in [0, 1)".into(),
            ));
        }
        Ok(())
    }

    /// Rounds to idle after restart `attempt` (1-based): the circuit
    /// breaker's escalation formula re-clocked in fleet rounds —
    /// `base * 2^(attempt-1)`, saturating, capped, ±jitter from one
    /// draw of the cell's `rng` stream, at least 1.
    pub(crate) fn wait_rounds(&self, attempt: u32, rng: &mut DetRng) -> u64 {
        let exp = attempt.saturating_sub(1).min(32);
        let backoff = self
            .base_rounds
            .saturating_mul(1u64 << exp)
            .min(self.max_rounds);
        let factor = 1.0 + self.jitter_frac * (2.0 * rng.f64() - 1.0);
        ((backoff as f64 * factor) as u64).max(1)
    }

    /// The longest wait `wait_rounds` can draw: the cap at full
    /// positive jitter.
    pub fn max_wait_rounds(&self) -> u64 {
        (self.max_rounds as f64 * (1.0 + self.jitter_frac)) as u64
    }
}

/// Fleet-wide admission/shedding policy.
#[derive(Debug, Clone, PartialEq)]
pub struct SheddingPolicy {
    /// Shed cells while fleet pressure exceeds this.
    pub high_watermark: f64,
    /// Re-admit (one cell per round) once pressure is at or below
    /// this.
    pub low_watermark: f64,
    /// Per-cell priorities (higher = more important = shed last,
    /// re-admitted first). Empty = all equal; otherwise must have one
    /// entry per cell.
    pub priorities: Vec<u32>,
}

impl SheddingPolicy {
    /// Reject watermarks that could never admit or never shed.
    pub fn validate(&self, n_cells: usize) -> Result<(), BluError> {
        if !self.high_watermark.is_finite()
            || !self.low_watermark.is_finite()
            || self.high_watermark <= 0.0
            || self.low_watermark < 0.0
        {
            return Err(BluError::InvalidConfig(
                "shedding watermarks must be finite and positive".into(),
            ));
        }
        if self.low_watermark > self.high_watermark {
            return Err(BluError::InvalidConfig(
                "shedding low_watermark must not exceed high_watermark".into(),
            ));
        }
        if !self.priorities.is_empty() && self.priorities.len() != n_cells {
            return Err(BluError::InvalidConfig(format!(
                "shedding priorities has {} entries for {} cells",
                self.priorities.len(),
                n_cells
            )));
        }
        Ok(())
    }
}

/// What happened to a shed/readmitted cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedAction {
    /// Demoted to PF fallback under pressure.
    Shed,
    /// Re-admitted to normal stepping.
    Readmit,
}

/// One admission-control decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShedEvent {
    /// Fleet round of the decision.
    pub round: u64,
    /// Cell index.
    pub cell: usize,
    /// Shed or readmit.
    pub action: ShedAction,
    /// Fleet pressure right after the decision took effect.
    pub pressure: f64,
}

/// Supervision tuning.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Restarts granted per cell before quarantine.
    pub max_restarts: u32,
    /// Consecutive zero-heartbeat steps that count as a stall.
    pub stall_threshold_steps: u32,
    /// Scripted inference stall factor at which a measuring step is
    /// treated as hung (hard stall) and failed immediately.
    pub stall_factor_limit: u32,
    /// Post-restore idle schedule.
    pub backoff: RestartBackoffConfig,
    /// Optional admission control (None = never shed).
    pub shedding: Option<SheddingPolicy>,
    /// Stop gracefully after this many rounds, persisting all state
    /// (None = run to completion). The kill half of kill/resume.
    pub max_rounds: Option<u64>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_restarts: 3,
            stall_threshold_steps: 6,
            stall_factor_limit: 8,
            backoff: RestartBackoffConfig::default(),
            shedding: None,
            max_rounds: None,
        }
    }
}

impl SupervisorConfig {
    /// Up-front validation (watchdog, backoff, shedding).
    pub fn validate(&self, n_cells: usize) -> Result<(), BluError> {
        if self.stall_threshold_steps == 0 {
            return Err(BluError::InvalidConfig(
                "supervisor stall_threshold_steps must be > 0".into(),
            ));
        }
        if self.stall_factor_limit < 2 {
            return Err(BluError::InvalidConfig(
                "supervisor stall_factor_limit must be >= 2 (1 is healthy)".into(),
            ));
        }
        self.backoff.validate()?;
        if let Some(shed) = &self.shedding {
            shed.validate(n_cells)?;
        }
        Ok(())
    }
}

/// Hook into the supervised fleet loop — the chaos harness's seam
/// for tearing checkpoints. It defaults to a no-op and runs on the
/// sequential coordinator, never inside the parallel step.
pub trait SupervisorHook {
    /// A cell checkpoint (and its sidecar) was just persisted.
    fn after_checkpoint_save(&mut self, _cell: usize, _path: &Path, _round: u64) {}
}

/// The do-nothing hook.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullHook;

impl SupervisorHook for NullHook {}

/// Per-cell health outcome of a supervised run.
#[derive(Debug, Clone)]
pub struct CellHealthReport {
    /// Health at the end of the run.
    pub final_health: CellHealth,
    /// Restarts consumed.
    pub restarts: u32,
    /// Where each restore's state came from, in order (includes the
    /// consistency restore performed on quarantine entry).
    pub restart_sources: Vec<RestartSource>,
    /// Every health transition, in order.
    pub transitions: Vec<HealthTransition>,
    /// Rounds this cell spent shed to PF fallback.
    pub shed_rounds: u64,
    /// Panics the supervisor caught escaping this cell's steps.
    pub crashes_observed: u64,
    /// Message of the last caught panic or step error, if any
    /// (already bounded by [`panic_message`]).
    pub last_error: Option<String>,
}

/// Fleet-level outcome of a supervised run.
#[derive(Debug, Clone)]
pub struct FleetHealthReport {
    /// Per-cell health, in input order.
    pub cells: Vec<CellHealthReport>,
    /// Every admission-control decision, in order.
    pub shed_events: Vec<ShedEvent>,
    /// Rounds executed.
    pub rounds: u64,
    /// Largest fleet pressure observed (0 when shedding is off).
    pub peak_pressure: f64,
    /// Whether every cell ran its trace to completion (false only
    /// under [`SupervisorConfig::max_rounds`]).
    pub completed: bool,
}

impl FleetHealthReport {
    /// Cells that ended quarantined.
    pub fn quarantined(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.final_health == CellHealth::Quarantined)
            .count()
    }

    /// Total restarts across the fleet.
    pub fn total_restarts(&self) -> u64 {
        self.cells.iter().map(|c| u64::from(c.restarts)).sum()
    }
}

/// Everything a supervised fleet run produces.
#[derive(Debug, Clone)]
pub struct SupervisedFleetOutcome {
    /// Per-cell robust reports, in input order. Always present: a
    /// supervised cell that cannot be healed is quarantined and
    /// reported, never dropped.
    pub reports: Vec<RobustRunReport>,
    /// The fleet health ledger.
    pub health: FleetHealthReport,
}

/// Where a supervised cell persists: its checkpoint, its sidecar and
/// the grid cadence of its saves.
pub(crate) struct CellFiles {
    pub(crate) checkpoint: PathBuf,
    pub(crate) sidecar: PathBuf,
    pub(crate) every_subframes: u64,
}

/// A supervised cell's supervision state, persisted next to each of
/// its checkpoints so kill/resume restores health, retry budget,
/// backoff, shedding and crash-injection progress along with the
/// snapshot. The batch fleet writes it as `cell-<i>.sup.json`; the
/// daemon wraps it with the cell's id and spec in
/// `cell-<id>.serve.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct CellSidecar {
    pub(crate) version: u32,
    pub(crate) health: CellHealth,
    pub(crate) restarts_used: u32,
    pub(crate) silent_steps: u32,
    pub(crate) crashes_fired: u64,
    pub(crate) crashes_observed: u64,
    pub(crate) backoff_rounds_left: u64,
    pub(crate) shed: bool,
    pub(crate) shed_rounds: u64,
    pub(crate) finished: bool,
    pub(crate) transitions: Vec<HealthTransition>,
    pub(crate) restart_sources: Vec<RestartSource>,
    pub(crate) last_error: Option<String>,
}

impl CellSidecar {
    /// Check a sidecar document's `version` before its typed decode,
    /// so a format change reads as one and not as a missing field.
    pub(crate) fn check_version(doc: &Value) -> Result<(), String> {
        match doc
            .as_map()
            .and_then(|m| serde::field(m, "version"))
            .and_then(Value::as_u128)
        {
            Some(v) if v == u128::from(CELL_SIDECAR_VERSION) => Ok(()),
            Some(v) => Err(format!(
                "sidecar has version {v}, this build requires {CELL_SIDECAR_VERSION}"
            )),
            None => Err("sidecar has no integer `version` field".into()),
        }
    }

    /// Reject state `sup` could never have written. Resume replays one
    /// backoff draw per restart, so the restart count is bounded by the
    /// budget; a wait longer than the longest draw would park the cell.
    pub(crate) fn check_bounds(&self, sup: &SupervisorConfig) -> Result<(), String> {
        let within = |field: &str, value: u64, max: u64| {
            if value <= max {
                Ok(())
            } else {
                Err(format!("sidecar {field} {value} exceeds {max}"))
            }
        };
        let silent_max = sup.stall_threshold_steps.saturating_sub(1);
        within(
            "restarts_used",
            self.restarts_used.into(),
            sup.max_restarts.into(),
        )?;
        within("silent_steps", self.silent_steps.into(), silent_max.into())?;
        within(
            "backoff_rounds_left",
            self.backoff_rounds_left,
            sup.backoff.max_wait_rounds(),
        )
    }

    /// Decode and check a batch sidecar (`cell-<i>.sup.json`).
    pub(crate) fn decode(text: &str, sup: &SupervisorConfig) -> Result<Self, String> {
        let doc: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        CellSidecar::check_version(&doc)?;
        let side: CellSidecar = serde_json::from_value(&doc).map_err(|e| e.to_string())?;
        side.check_bounds(sup)?;
        Ok(side)
    }
}

/// Read and decode a sidecar file; every failure is a typed
/// checkpoint error naming the file.
pub(crate) fn read_sidecar<T>(
    path: &Path,
    decode: impl FnOnce(&str) -> Result<T, String>,
) -> Result<T, BluError> {
    let text = fs::read_to_string(path).map_err(|e| io_err("reading", path, e))?;
    decode(&text).map_err(|e| io_err("decoding", path, e))
}

/// Result of one cell's parallel step, settled sequentially.
enum StepOutcome {
    /// Nothing ran (finished, or idling through a backoff).
    Idle,
    /// The step ran to a verdict.
    Progress {
        more: bool,
        heartbeats: u64,
        hard_stalled: bool,
    },
    /// A panic escaped the step and was caught.
    Panicked(String),
    /// The step returned a typed error.
    Failed(String),
}

impl StepOutcome {
    fn of(result: std::thread::Result<Result<(bool, u64), BluError>>, hard_stalled: bool) -> Self {
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
}

/// One supervised cell: the robust loop stepped under the health
/// machine, the restart ladder, backoff, shedding and grid
/// persistence. The batch fleet borrows each cell's capture and
/// config; the daemon owns them, since it admits cells at runtime and
/// layers each spec's streaming window onto its config.
pub(crate) struct SupervisedCell<'a> {
    capture: Cow<'a, FaultyCapture>,
    config: Cow<'a, RobustConfig>,
    pub(crate) geom: CellGeometry,
    pub(crate) snap: RobustSnapshot,
    /// Recycled engine buffers: pure cache, never persisted.
    arena: EngineArena,
    pub(crate) sup: CellSupervisor,
    backoff: RestartBackoffConfig,
    /// Restart jitter: one draw per granted restart.
    backoff_rng: DetRng,
    backoff_rounds_left: u64,
    /// Shedding priority: higher is shed last and re-admitted first.
    priority: u32,
    crash_sfs: Vec<u64>,
    crashes_fired: usize,
    crashes_observed: u64,
    pub(crate) shed: bool,
    pub(crate) shed_rounds: u64,
    restart_sources: Vec<RestartSource>,
    last_good: Option<RobustSnapshot>,
    pub(crate) last_error: Option<String>,
    outcome: StepOutcome,
    pub(crate) finished: bool,
    final_saved: bool,
    pub(crate) files: Option<CellFiles>,
    last_saved: u64,
    stall_factor_limit: u32,
}

impl<'a> SupervisedCell<'a> {
    /// A fresh cell. `backoff_rng` is the caller's labelled stream for
    /// restart jitter.
    pub(crate) fn new(
        capture: Cow<'a, FaultyCapture>,
        config: Cow<'a, RobustConfig>,
        sup: &SupervisorConfig,
        backoff_rng: DetRng,
        priority: u32,
        files: Option<CellFiles>,
    ) -> Result<Self, BluError> {
        let (geom, snap) = start_cell(&capture, &config)?;
        Ok(SupervisedCell {
            crash_sfs: capture.script.crash_subframes(),
            capture,
            config,
            geom,
            snap,
            arena: EngineArena::new(),
            sup: CellSupervisor::new(sup),
            backoff: sup.backoff,
            backoff_rng,
            backoff_rounds_left: 0,
            priority,
            crashes_fired: 0,
            crashes_observed: 0,
            shed: false,
            shed_rounds: 0,
            restart_sources: Vec::new(),
            last_good: None,
            last_error: None,
            outcome: StepOutcome::Idle,
            finished: false,
            final_saved: false,
            files,
            last_saved: 0,
            stall_factor_limit: sup.stall_factor_limit,
        })
    }

    /// Cell `index` of a batch fleet, resumed from its checkpoint and
    /// sidecar when the policy asks for it.
    fn batch(
        index: usize,
        capture: &'a FaultyCapture,
        config: &'a RobustConfig,
        sup: &SupervisorConfig,
    ) -> Result<Self, BluError> {
        let policy = config.checkpoint.as_ref();
        let files = policy.map(|p| CellFiles {
            checkpoint: p.dir.join(format!("cell-{index}.json")),
            sidecar: p.dir.join(format!("cell-{index}.sup.json")),
            every_subframes: p.every_subframes,
        });
        let rng =
            DetRng::seed_from_u64(config.seed).derive_indexed("restart-backoff", index as u64);
        let priority = sup
            .shedding
            .as_ref()
            .and_then(|s| s.priorities.get(index).copied())
            .unwrap_or(0);
        let mut cell = SupervisedCell::new(
            Cow::Borrowed(capture),
            Cow::Borrowed(config),
            sup,
            rng,
            priority,
            files,
        )?;
        if policy.is_some_and(|p| p.resume) {
            let side = match &cell.files {
                Some(f) if f.checkpoint.exists() && f.sidecar.exists() => {
                    Some(read_sidecar(&f.sidecar, |t| CellSidecar::decode(t, sup))?)
                }
                _ => None,
            };
            cell.resume(side)?;
        }
        Ok(cell)
    }

    /// Pick up where a killed run stopped: the on-disk checkpoint if
    /// there is one, then the persisted supervision state. A cell
    /// killed before its first checkpoint resumes fresh, which is what
    /// the uninterrupted run did.
    pub(crate) fn resume(&mut self, side: Option<CellSidecar>) -> Result<(), BluError> {
        let path = self.files.as_ref().map(|f| f.checkpoint.clone());
        if let Some(path) = path.filter(|p| p.exists()) {
            self.adopt_snapshot(load_robust_checkpoint(&path)?)?;
            self.last_saved = self.snap.cursor;
        }
        let Some(side) = side else {
            // A snapshot without a sidecar (say, one the unsupervised
            // loop wrote): crash events strictly behind the cursor must
            // not refire on replay.
            let cursor = self.snap.cursor;
            self.crashes_fired = self.crash_sfs.iter().filter(|s| **s < cursor).count();
            return Ok(());
        };
        // The retry budget and watchdog threshold stay as configured.
        self.sup.health = side.health;
        self.sup.restarts_used = side.restarts_used;
        self.sup.silent_steps = side.silent_steps;
        self.sup.transitions = side.transitions;
        for _ in 0..side.restarts_used {
            self.backoff_rng.f64();
        }
        self.backoff_rounds_left = side.backoff_rounds_left;
        self.crashes_fired = usize::try_from(side.crashes_fired)
            .map_or(self.crash_sfs.len(), |n| n.min(self.crash_sfs.len()));
        self.crashes_observed = side.crashes_observed;
        self.shed = side.shed;
        self.shed_rounds = side.shed_rounds;
        self.finished = side.finished || self.snap.done;
        self.final_saved = self.finished;
        self.restart_sources = side.restart_sources;
        self.last_error = side.last_error;
        Ok(())
    }

    /// Install a restored snapshot behind the capture/seed guard.
    fn adopt_snapshot(&mut self, snap: RobustSnapshot) -> Result<(), BluError> {
        check_snapshot(&snap, &self.geom, self.config.seed)?;
        self.snap = snap;
        Ok(())
    }

    /// The supervision state to persist.
    fn sidecar(&self) -> CellSidecar {
        CellSidecar {
            version: CELL_SIDECAR_VERSION,
            health: self.sup.health(),
            restarts_used: self.sup.restarts_used(),
            silent_steps: self.sup.silent_steps,
            crashes_fired: self.crashes_fired as u64,
            crashes_observed: self.crashes_observed,
            backoff_rounds_left: self.backoff_rounds_left,
            shed: self.shed,
            shed_rounds: self.shed_rounds,
            finished: self.finished,
            transitions: self.sup.transitions().to_vec(),
            restart_sources: self.restart_sources.clone(),
            last_error: self.last_error.clone(),
        }
    }

    /// Sequential pre-round bookkeeping: tick the backoff clock and
    /// complete a pending restart when it elapses.
    fn tick_backoff(&mut self) {
        if self.finished || self.backoff_rounds_left == 0 {
            return;
        }
        self.backoff_rounds_left -= 1;
        if self.backoff_rounds_left == 0 {
            self.sup.restart_complete(self.snap.cursor);
        }
    }

    /// This cell's contribution to fleet pressure (see module docs).
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
    /// outcome for the sequential coordinator. Every panic is caught
    /// here — inside the fleet closure — so a crashing cell can never
    /// abort the shard join.
    fn compute_step(&mut self) {
        self.outcome = if self.finished || self.backoff_rounds_left > 0 {
            StepOutcome::Idle
        } else if self.sup.health() == CellHealth::Quarantined || self.shed {
            // PF-only drain: no inference, guaranteed cursor progress.
            let (capture, config) = (&*self.capture, &*self.config);
            let (snap, arena) = (&mut self.snap, &mut self.arena);
            StepOutcome::of(
                catch_unwind(AssertUnwindSafe(|| {
                    step_cell_shed(capture, config, snap, arena).map(|more| (more, 1))
                })),
                false,
            )
        } else {
            self.guarded_step()
        };
    }

    fn guarded_step(&mut self) -> StepOutcome {
        let cursor = self.snap.cursor;
        // Scripted cell crashes are one-shot: marked fired *before*
        // the panic, so a restore-and-replay does not refire them.
        let inject = self.crashes_fired < self.crash_sfs.len()
            && cursor >= self.crash_sfs[self.crashes_fired];
        if inject {
            self.crashes_fired += 1;
        }
        let measuring = matches!(
            self.snap.state,
            OrchestratorState::Measuring | OrchestratorState::Remeasuring
        );
        let hard_stalled = measuring
            && self.capture.script.runtime_state_at(cursor).stall_factor >= self.stall_factor_limit;
        // The pre-step state is the in-memory restore point: a restart
        // must redo the failed attempt (a panic leaves the snapshot
        // torn; a hard-stalled step must not keep its result), never
        // resume past it.
        self.last_good = Some(self.snap.clone());
        let (capture, config, geom) = (&*self.capture, &*self.config, &self.geom);
        let (snap, arena) = (&mut self.snap, &mut self.arena);
        let result = catch_unwind(AssertUnwindSafe(|| {
            if inject {
                panic!("injected cell crash at subframe {cursor}");
            }
            let mut beats = HeartbeatCounter::default();
            step_cell_with(capture, config, geom, snap, arena, &mut beats)
                .map(|more| (more, beats.beats()))
        }));
        StepOutcome::of(result, hard_stalled)
    }

    /// The sequential half of a round: drive the health machine from
    /// the stashed outcome and perform any restore it decides on.
    fn settle(&mut self) {
        match std::mem::replace(&mut self.outcome, StepOutcome::Idle) {
            StepOutcome::Idle => {}
            StepOutcome::Progress {
                more,
                heartbeats,
                hard_stalled,
            } => {
                if !more {
                    self.finished = true;
                } else if self.sup.health() != CellHealth::Quarantined && !self.shed {
                    let cursor = self.snap.cursor;
                    let open = self.snap.breaker.state() == BreakerState::Open;
                    self.sup.note_breaker(cursor, open);
                    if let Some(kind) = self.sup.note_step(cursor, heartbeats, hard_stalled) {
                        self.fail(kind);
                    }
                }
            }
            StepOutcome::Panicked(msg) => {
                self.crashes_observed = self.crashes_observed.saturating_add(1);
                self.last_error = Some(msg);
                self.fail(FailureKind::Panic);
            }
            StepOutcome::Failed(msg) => {
                self.last_error = Some(msg);
                self.fail(FailureKind::Error);
            }
        }
    }

    fn fail(&mut self, kind: FailureKind) {
        let was_quarantined = self.sup.health() == CellHealth::Quarantined;
        match self.sup.on_failure(self.snap.cursor, kind) {
            RestartDecision::Restart { attempt } => {
                let source = self.restore();
                self.restart_sources.push(source);
                self.backoff_rounds_left = self.backoff.wait_rounds(attempt, &mut self.backoff_rng);
            }
            // A quarantined cell failing its PF drain has no further
            // fallback: freeze it rather than livelock.
            RestartDecision::Quarantine if was_quarantined => self.finished = true,
            RestartDecision::Quarantine => {
                // Entering quarantine: restore once so the PF tail
                // runs from a consistent (not mid-panic) snapshot.
                let source = self.restore();
                self.restart_sources.push(source);
            }
        }
    }

    /// Disk checkpoint first, then the in-memory known-good snapshot,
    /// then from scratch. A torn or version-skewed disk checkpoint
    /// simply falls through — restore never propagates an error.
    fn restore(&mut self) -> RestartSource {
        let disk = self
            .files
            .as_ref()
            .and_then(|f| load_robust_checkpoint(&f.checkpoint).ok());
        if let Some(snap) = disk {
            if self.adopt_snapshot(snap).is_ok() {
                return RestartSource::DiskCheckpoint;
            }
        }
        if let Some(snap) = self.last_good.clone() {
            self.snap = snap;
            return RestartSource::MemorySnapshot;
        }
        let config = &self.config;
        self.snap = RobustSnapshot::fresh(
            self.geom.n,
            self.geom.trace_len,
            config.seed,
            config.drift_alpha,
            config.breaker,
        );
        RestartSource::Fresh
    }

    /// Persist the checkpoint and the sidecar, `frame`d for its file,
    /// if a save is due (always with `force`). `Ok(true)` when a
    /// checkpoint was written.
    pub(crate) fn persist_framed<T: Serialize>(
        &mut self,
        force: bool,
        frame: impl FnOnce(CellSidecar) -> T,
    ) -> Result<bool, BluError> {
        let Some(files) = &self.files else {
            return Ok(false);
        };
        if self.finished && self.final_saved {
            return Ok(false);
        }
        // Grid semantics, not delta-since-last-save: a save fires
        // when the cursor crosses a multiple of `every_subframes`, so
        // the set of on-disk restore points is a pure function of the
        // step sequence — a killed-and-resumed fleet re-creates the
        // exact checkpoints (and therefore the exact restore cursors)
        // of an uninterrupted one.
        let every = files.every_subframes;
        let interval_due = every > 0 && self.snap.cursor / every != self.last_saved / every;
        if !(interval_due || self.finished || force) {
            return Ok(false);
        }
        save_robust_checkpoint(&files.checkpoint, &self.snap)?;
        self.last_saved = self.snap.cursor;
        self.save_sidecar(frame)?;
        if self.finished {
            self.final_saved = true;
        }
        Ok(true)
    }

    /// Write the sidecar, `frame`d for its file, without a checkpoint.
    pub(crate) fn save_sidecar<T: Serialize>(
        &self,
        frame: impl FnOnce(CellSidecar) -> T,
    ) -> Result<(), BluError> {
        match &self.files {
            Some(files) => write_json_atomic(&files.sidecar, &frame(self.sidecar())),
            None => Ok(()),
        }
    }

    fn into_parts(self) -> (RobustRunReport, CellHealthReport) {
        let health = CellHealthReport {
            final_health: self.sup.health(),
            restarts: self.sup.restarts_used(),
            restart_sources: self.restart_sources,
            transitions: self.sup.transitions,
            shed_rounds: self.shed_rounds,
            crashes_observed: self.crashes_observed,
            last_error: self.last_error,
        };
        (RobustRunReport::from_snapshot(self.snap), health)
    }
}

/// A member of a [`SupervisedFleet`]: a supervised cell, plus how its
/// sidecar is framed on disk and what a failed save does. The batch
/// fleet's members are bare cells and abort the run on a failed save;
/// the daemon's carry their id and spec and record the failure.
pub(crate) trait FleetMember<'a>: Send {
    fn cell(&self) -> &SupervisedCell<'a>;
    fn cell_mut(&mut self) -> &mut SupervisedCell<'a>;
    /// [`SupervisedCell::persist_framed`] with this member's sidecar
    /// framing.
    fn persist(&mut self, force: bool) -> Result<bool, BluError>;
}

impl<'a> FleetMember<'a> for SupervisedCell<'a> {
    fn cell(&self) -> &SupervisedCell<'a> {
        self
    }

    fn cell_mut(&mut self) -> &mut SupervisedCell<'a> {
        self
    }

    fn persist(&mut self, force: bool) -> Result<bool, BluError> {
        self.persist_framed(force, |side| side)
    }
}

/// What one fleet round did.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct RoundTally {
    pub(crate) restarts: u64,
    pub(crate) sheds: u64,
    pub(crate) readmits: u64,
    pub(crate) shed_cells: u64,
}

/// A fleet of supervised cells stepped in rounds. The batch fleet runs
/// rounds to completion; the daemon runs one per `Step`.
pub(crate) struct SupervisedFleet<M> {
    pub(crate) cells: Vec<M>,
    shedding: Option<SheddingPolicy>,
    /// Every admission-control decision, when the caller keeps a
    /// ledger (the daemon only counts them).
    shed_events: Option<Vec<ShedEvent>>,
    peak_pressure: f64,
    rounds: u64,
}

impl<'a, M: FleetMember<'a>> SupervisedFleet<M> {
    pub(crate) fn new(cells: Vec<M>, shedding: Option<SheddingPolicy>, keep_ledger: bool) -> Self {
        SupervisedFleet {
            cells,
            shedding,
            shed_events: keep_ledger.then(Vec::new),
            peak_pressure: 0.0,
            rounds: 0,
        }
    }

    pub(crate) fn all_finished(&self) -> bool {
        self.cells.iter().all(|m| m.cell().finished)
    }

    /// One round: backoff ticks → shedding → parallel step across the
    /// [`FleetEngine`] shards → sequential settle, then persistence, in
    /// cell order, so the outcome is identical at any parallelism. A
    /// cell's settle reads only its own files, so settling every cell
    /// before saving any changes no restore.
    pub(crate) fn round(&mut self, hook: &mut dyn SupervisorHook) -> Result<RoundTally, BluError> {
        let mut tally = RoundTally::default();
        for m in self.cells.iter_mut() {
            m.cell_mut().tick_backoff();
        }
        self.apply_shedding(&mut tally);
        for m in self.cells.iter_mut() {
            let cell = m.cell_mut();
            if cell.shed && !cell.finished {
                cell.shed_rounds = cell.shed_rounds.saturating_add(1);
                tally.shed_cells += 1;
            }
        }
        let refs: Vec<&mut M> = self.cells.iter_mut().collect();
        FleetEngine::run(refs, || (), |_, m| m.cell_mut().compute_step());
        for m in self.cells.iter_mut() {
            let cell = m.cell_mut();
            let before = cell.sup.restarts_used();
            cell.settle();
            tally.restarts += u64::from(cell.sup.restarts_used() - before);
        }
        self.persist_all(false, hook)?;
        self.rounds += 1;
        Ok(tally)
    }

    /// Persist every cell whose save is due (with `force`, every cell
    /// not yet saved in its final state), in cell order, telling the
    /// hook where each checkpoint landed.
    pub(crate) fn persist_all(
        &mut self,
        force: bool,
        hook: &mut dyn SupervisorHook,
    ) -> Result<(), BluError> {
        for (i, m) in self.cells.iter_mut().enumerate() {
            if m.persist(force)? {
                if let Some(files) = &m.cell().files {
                    hook.after_checkpoint_save(i, &files.checkpoint, self.rounds);
                }
            }
        }
        Ok(())
    }

    /// Shed the lowest-priority contributing cells (highest index on
    /// ties) while pressure exceeds the high watermark; once at or
    /// below the low watermark, re-admit one shed cell (highest
    /// priority, lowest index).
    fn apply_shedding(&mut self, tally: &mut RoundTally) {
        let Some(policy) = &self.shedding else {
            return;
        };
        let loads: Vec<f64> = self.cells.iter().map(|m| m.cell().current_load()).collect();
        let mut pressure: f64 = loads.iter().sum();
        self.peak_pressure = self.peak_pressure.max(pressure);
        let mut newly_shed = vec![false; self.cells.len()];
        let prio = |i: usize| (self.cells[i].cell().priority, std::cmp::Reverse(i));
        let mut decisions = Vec::new();
        while pressure > policy.high_watermark {
            let Some(i) = (0..loads.len())
                .filter(|&i| !self.cells[i].cell().shed && !newly_shed[i] && loads[i] > 0.0)
                .min_by_key(|&i| prio(i))
            else {
                break;
            };
            newly_shed[i] = true;
            pressure -= loads[i];
            decisions.push((i, ShedAction::Shed, pressure));
        }
        // Cells shed *this* round are not candidates: a shed-and-readmit
        // in one round would be admission-control noise.
        if pressure <= policy.low_watermark {
            if let Some(i) = (0..loads.len())
                .filter(|&i| {
                    let cell = self.cells[i].cell();
                    cell.shed && !newly_shed[i] && !cell.finished
                })
                .max_by_key(|&i| prio(i))
            {
                decisions.push((i, ShedAction::Readmit, pressure));
            }
        }
        for (i, action, pressure) in decisions {
            let shed = action == ShedAction::Shed;
            self.cells[i].cell_mut().shed = shed;
            if shed {
                tally.sheds += 1;
            } else {
                tally.readmits += 1;
            }
            if let Some(ledger) = &mut self.shed_events {
                ledger.push(ShedEvent {
                    round: self.rounds,
                    cell: i,
                    action,
                    pressure,
                });
            }
        }
    }
}

/// Run a supervised fleet with the default (no-op) hook.
///
/// See [`run_supervised_fleet_with_hook`].
pub fn run_supervised_fleet(
    captures: &[FaultyCapture],
    config: &RobustConfig,
    sup: &SupervisorConfig,
) -> Result<SupervisedFleetOutcome, BluError> {
    run_supervised_fleet_with_hook(captures, config, sup, &mut NullHook)
}

/// Run the robust loop over a fleet of captures under supervision:
/// panics, stalls and step errors are healed by restart-from-snapshot
/// under a capped backoff budget, unhealable cells are quarantined to
/// static PF, and (with a [`SheddingPolicy`]) overload sheds
/// lowest-priority cells until pressure drops.
///
/// The fleet advances in rounds: every live cell executes one
/// state-machine step in parallel across the
/// [`FleetEngine`] shards, then a
/// sequential coordinator (in cell order, so the run is deterministic
/// at any parallelism level) settles health transitions, restores
/// failed cells and persists checkpoints with their supervisor
/// sidecars. Unlike [`crate::robust::run_robust_fleet`], the returned
/// reports are always complete — a cell that cannot be healed is
/// quarantined and keeps serving PF until its trace ends.
///
/// This function never panics on cell failures (every step runs
/// inside `catch_unwind`); it returns `Err` only for invalid
/// configuration, unusable captures, or checkpoint I/O failures.
pub fn run_supervised_fleet_with_hook(
    captures: &[FaultyCapture],
    config: &RobustConfig,
    sup: &SupervisorConfig,
    hook: &mut dyn SupervisorHook,
) -> Result<SupervisedFleetOutcome, BluError> {
    sup.validate(captures.len())?;
    config.validate()?;
    let cells = captures
        .iter()
        .enumerate()
        .map(|(i, cap)| SupervisedCell::batch(i, cap, config, sup))
        .collect::<Result<Vec<_>, _>>()?;
    let mut fleet = SupervisedFleet::new(cells, sup.shedding.clone(), true);
    while !fleet.all_finished() && sup.max_rounds.is_none_or(|max| fleet.rounds < max) {
        fleet.round(hook)?;
    }
    let completed = fleet.all_finished();
    // Graceful stop (max_rounds) persists everything so a later run
    // resumes bit-identically; completed cells already saved.
    fleet.persist_all(true, hook)?;
    let (reports, cells) = fleet
        .cells
        .into_iter()
        .map(SupervisedCell::into_parts)
        .unzip();
    Ok(SupervisedFleetOutcome {
        reports,
        health: FleetHealthReport {
            cells,
            shed_events: fleet.shed_events.unwrap_or_default(),
            rounds: fleet.rounds,
            peak_pressure: fleet.peak_pressure,
            completed,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::robust::run_robust_fleet;
    use crate::robust::tests::{assert_reports_identical, capture, quick_config};
    use blu_sim::faults::{FaultEvent, FaultKind, FaultScript};

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("blu-sup-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    // ---- pure state machine ----

    #[test]
    fn breaker_telemetry_toggles_healthy_degraded() {
        let mut m = CellSupervisor::new(&SupervisorConfig::default());
        m.note_breaker(10, false);
        assert_eq!(m.health(), CellHealth::Healthy);
        assert!(m.transitions().is_empty(), "no-change polls record nothing");
        m.note_breaker(20, true);
        assert_eq!(m.health(), CellHealth::Degraded);
        m.note_breaker(30, true);
        assert_eq!(m.transitions().len(), 1, "repeated open is not re-recorded");
        m.note_breaker(40, false);
        assert_eq!(m.health(), CellHealth::Healthy);
        assert_eq!(
            m.transitions()
                .iter()
                .map(|t| (t.from, t.to, t.cause))
                .collect::<Vec<_>>(),
            vec![
                (
                    CellHealth::Healthy,
                    CellHealth::Degraded,
                    HealthCause::BreakerOpen
                ),
                (
                    CellHealth::Degraded,
                    CellHealth::Healthy,
                    HealthCause::BreakerRecovered
                ),
            ]
        );
    }

    #[test]
    fn watchdog_fires_on_silence_and_hard_stall() {
        let cfg = SupervisorConfig {
            stall_threshold_steps: 3,
            ..Default::default()
        };
        let mut m = CellSupervisor::new(&cfg);
        assert_eq!(m.note_step(0, 0, false), None);
        assert_eq!(m.note_step(1, 5, false), None, "beats reset the counter");
        assert_eq!(m.note_step(2, 0, false), None);
        assert_eq!(m.note_step(3, 0, false), None);
        assert_eq!(m.note_step(4, 0, false), Some(FailureKind::Stall));
        // A hard stall fails immediately, regardless of beats.
        assert_eq!(m.note_step(5, 100, true), Some(FailureKind::Stall));
    }

    #[test]
    fn retry_budget_is_monotone_and_quarantine_absorbing() {
        let cfg = SupervisorConfig {
            max_restarts: 2,
            ..Default::default()
        };
        let mut m = CellSupervisor::new(&cfg);
        assert_eq!(
            m.on_failure(100, FailureKind::Panic),
            RestartDecision::Restart { attempt: 1 }
        );
        assert_eq!(m.health(), CellHealth::Restarting);
        m.restart_complete(150);
        assert_eq!(m.health(), CellHealth::Healthy);
        assert_eq!(
            m.on_failure(200, FailureKind::Stall),
            RestartDecision::Restart { attempt: 2 }
        );
        assert_eq!(
            m.on_failure(300, FailureKind::Error),
            RestartDecision::Quarantine
        );
        assert_eq!(m.health(), CellHealth::Quarantined);
        assert_eq!(m.restarts_used(), 2);
        // Absorbing: further failures change nothing, restart_complete
        // cannot resurrect.
        let n = m.transitions().len();
        assert_eq!(
            m.on_failure(400, FailureKind::Panic),
            RestartDecision::Quarantine
        );
        m.restart_complete(500);
        assert_eq!(m.health(), CellHealth::Quarantined);
        assert_eq!(m.transitions().len(), n);
    }

    // ---- backoff ----

    #[test]
    fn backoff_escalates_caps_and_replays_deterministically() {
        let cfg = RestartBackoffConfig::default();
        let rng = DetRng::seed_from_u64(9).derive_indexed("restart-backoff", 0);
        let mut a = rng.clone();
        let waits: Vec<u64> = (1..=8).map(|n| cfg.wait_rounds(n, &mut a)).collect();
        assert!(waits.iter().all(|w| *w >= 1));
        let cap = (cfg.max_rounds as f64 * (1.0 + cfg.jitter_frac)) as u64 + 1;
        assert!(waits.iter().all(|w| *w <= cap), "{waits:?} exceeds cap");
        assert!(waits.iter().all(|w| *w <= cfg.max_wait_rounds()));
        assert!(
            waits[3] > waits[0],
            "backoff must escalate: {:?}",
            &waits[..4]
        );
        // Each wait is one draw: skipping 5 draws reproduces the tail
        // of the stream, which is how resume replays it.
        let mut b = rng;
        for _ in 0..5 {
            b.f64();
        }
        assert_eq!(cfg.wait_rounds(6, &mut b), waits[5]);
        assert_eq!(cfg.wait_rounds(7, &mut b), waits[6]);
    }

    // ---- end to end ----

    #[test]
    fn supervised_clean_fleet_matches_unsupervised() {
        let caps = vec![
            capture(FaultScript::none(), 60, 21),
            capture(FaultScript::none(), 60, 22),
        ];
        let config = quick_config();
        let golden = run_robust_fleet(&caps, &config);
        let out = run_supervised_fleet(&caps, &config, &SupervisorConfig::default()).unwrap();
        assert!(out.health.completed);
        assert_eq!(out.reports.len(), 2);
        for (got, want) in out.reports.iter().zip(&golden) {
            assert_reports_identical(got, want.as_ref().unwrap());
        }
        for cell in &out.health.cells {
            assert_eq!(cell.final_health, CellHealth::Healthy);
            assert_eq!(cell.restarts, 0);
            assert_eq!(cell.crashes_observed, 0);
            assert!(cell.transitions.is_empty());
        }
        assert!(out.health.shed_events.is_empty());
    }

    #[test]
    fn crash_restarts_from_checkpoint_bit_identically() {
        let clean = capture(FaultScript::none(), 60, 31);
        let golden = crate::robust::run_blu_robust(&clean, &quick_config()).unwrap();

        // Same trace seed, but the cell task crashes mid-run. The
        // crash is runtime-only, so the capture itself is identical.
        let crashing = capture(
            FaultScript::new(vec![FaultEvent {
                at_subframe: 30_000,
                kind: FaultKind::CellCrash,
            }]),
            60,
            31,
        );
        let dir = scratch_dir("crash");
        let mut config = quick_config();
        config.checkpoint = Some(crate::robust::CheckpointPolicy {
            dir: dir.clone(),
            every_subframes: 2_000,
            resume: false,
        });
        let out = run_supervised_fleet(
            std::slice::from_ref(&crashing),
            &config,
            &SupervisorConfig::default(),
        )
        .unwrap();
        assert!(out.health.completed);
        let health = &out.health.cells[0];
        assert_eq!(health.crashes_observed, 1);
        assert_eq!(health.restarts, 1);
        assert_eq!(health.restart_sources, vec![RestartSource::DiskCheckpoint]);
        assert_eq!(health.final_health, CellHealth::Healthy);
        assert!(health
            .last_error
            .as_deref()
            .unwrap()
            .contains("injected cell crash"));
        // Restored-and-replayed: the report is bit-identical to the
        // crash-free golden.
        assert_reports_identical(&out.reports[0], &golden);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn persistent_hard_stall_exhausts_budget_and_quarantines() {
        let stalled = capture(
            FaultScript::new(vec![FaultEvent {
                at_subframe: 0,
                kind: FaultKind::InferenceStall { factor: 10 },
            }]),
            60,
            41,
        );
        let sup = SupervisorConfig {
            max_restarts: 2,
            ..Default::default()
        };
        let out =
            run_supervised_fleet(std::slice::from_ref(&stalled), &quick_config(), &sup).unwrap();
        assert!(out.health.completed, "quarantined cells still terminate");
        let health = &out.health.cells[0];
        assert_eq!(health.final_health, CellHealth::Quarantined);
        assert_eq!(health.restarts, 2);
        assert_eq!(out.health.quarantined(), 1);
        // The PF tail served traffic: the report exists and counts
        // fallback TxOPs, with zero speculation.
        assert!(out.reports[0].fallback_txops > 0);
        assert_eq!(out.reports[0].speculative_txops, 0);
    }

    #[test]
    fn kill_and_resume_is_bit_identical() {
        let script = FaultScript::new(vec![FaultEvent {
            at_subframe: 30_000,
            kind: FaultKind::CellCrash,
        }]);
        let cap = capture(script, 60, 51);
        let sup = SupervisorConfig::default();

        let run = |dir: &Path, max_rounds: Option<u64>| {
            let mut config = quick_config();
            config.checkpoint = Some(crate::robust::CheckpointPolicy {
                dir: dir.to_path_buf(),
                every_subframes: 2_000,
                resume: true,
            });
            let sup = SupervisorConfig {
                max_rounds,
                ..sup.clone()
            };
            run_supervised_fleet(std::slice::from_ref(&cap), &config, &sup).unwrap()
        };

        let dir_a = scratch_dir("resume-a");
        let uninterrupted = run(&dir_a, None);
        assert!(uninterrupted.health.completed);

        // Kill after 3 rounds (mid-run), then restart the whole fleet.
        let dir_b = scratch_dir("resume-b");
        let partial = run(&dir_b, Some(3));
        assert!(!partial.health.completed);
        let resumed = run(&dir_b, None);
        assert!(resumed.health.completed);

        assert_reports_identical(&resumed.reports[0], &uninterrupted.reports[0]);
        let a = &uninterrupted.health.cells[0];
        let b = &resumed.health.cells[0];
        assert_eq!(a.final_health, b.final_health);
        assert_eq!(a.transitions, b.transitions);
        assert_eq!(a.restarts, b.restarts);
        assert_eq!(a.restart_sources, b.restart_sources);
        assert_eq!(a.crashes_observed, b.crashes_observed);
        let _ = fs::remove_dir_all(&dir_a);
        let _ = fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn resume_rejects_a_checkpoint_cursor_past_the_trace_end() {
        let caps = vec![capture(FaultScript::none(), 60, 63)];
        let dir = scratch_dir("cursor");
        let mut config = quick_config();
        config.checkpoint = Some(crate::robust::CheckpointPolicy {
            dir: dir.clone(),
            every_subframes: 0,
            resume: true,
        });
        let (_, mut snap) = start_cell(&caps[0], &config).unwrap();
        snap.state = OrchestratorState::Confident;
        snap.cursor = snap.trace_len + 4;
        save_robust_checkpoint(&dir.join("cell-0.json"), &snap).unwrap();
        match run_supervised_fleet(&caps, &config, &SupervisorConfig::default()) {
            Err(BluError::Checkpoint(msg)) => assert!(msg.contains("past the end"), "{msg}"),
            other => panic!(
                "a cursor past the trace end must be rejected, got {:?}",
                other.map(|out| out.health.completed)
            ),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn overload_sheds_lowest_priority_and_readmits() {
        // Cell 1 stalls at 4x from the start: pressure 1 + 4 = 5
        // exceeds the high watermark, and priorities protect cell 0.
        // The stall stays below the hard-stall limit so the watchdog
        // does not fire — this is pure admission control.
        let caps = vec![
            capture(FaultScript::none(), 60, 61),
            capture(
                FaultScript::new(vec![FaultEvent {
                    at_subframe: 0,
                    kind: FaultKind::InferenceStall { factor: 4 },
                }]),
                60,
                62,
            ),
        ];
        let sup = SupervisorConfig {
            shedding: Some(SheddingPolicy {
                high_watermark: 3.0,
                low_watermark: 0.5,
                priorities: vec![1, 0],
            }),
            ..Default::default()
        };
        let out = run_supervised_fleet(&caps, &quick_config(), &sup).unwrap();
        assert!(out.health.completed);
        assert!(out.health.peak_pressure >= 5.0);
        let first = out.health.shed_events.first().expect("overload must shed");
        assert_eq!((first.cell, first.action), (1, ShedAction::Shed));
        assert!(out.health.cells[1].shed_rounds > 0);
        assert_eq!(
            out.health.cells[0].shed_rounds, 0,
            "high priority protected"
        );
        // Once cell 0 leaves measurement the pressure drops and the
        // shed cell is re-admitted.
        assert!(out
            .health
            .shed_events
            .iter()
            .any(|e| e.action == ShedAction::Readmit && e.cell == 1));
        // Shed rounds served PF instead of going dark.
        assert!(out.reports[1].fallback_txops > 0);
    }

    #[test]
    fn config_validation_rejects_bad_knobs() {
        let n = 2;
        for bad in [
            SupervisorConfig {
                stall_threshold_steps: 0,
                ..Default::default()
            },
            SupervisorConfig {
                stall_factor_limit: 1,
                ..Default::default()
            },
            SupervisorConfig {
                backoff: RestartBackoffConfig {
                    base_rounds: 0,
                    ..Default::default()
                },
                ..Default::default()
            },
            SupervisorConfig {
                shedding: Some(SheddingPolicy {
                    high_watermark: 1.0,
                    low_watermark: 2.0,
                    priorities: vec![],
                }),
                ..Default::default()
            },
            SupervisorConfig {
                shedding: Some(SheddingPolicy {
                    high_watermark: 2.0,
                    low_watermark: 1.0,
                    priorities: vec![1],
                }),
                ..Default::default()
            },
        ] {
            assert!(bad.validate(n).is_err(), "{bad:?} should be rejected");
        }
        assert!(SupervisorConfig::default().validate(n).is_ok());
    }
}
