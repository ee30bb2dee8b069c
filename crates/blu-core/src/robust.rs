//! Degraded-mode BLU orchestration: the robust loop that survives a
//! changing, fault-ridden environment — and a failing process.
//!
//! The vanilla orchestrator ([`crate::orchestrator`]) assumes the
//! interference field is stationary for the whole run. This module
//! drops that assumption: it drives the two-phase loop against a
//! [`FaultyCapture`] in which hidden terminals appear, disappear and
//! drift mid-run and the observation path itself lies (pilot
//! misclassification, dropped reports — [`blu_sim::faults`]).
//!
//! The loop is a five-state machine:
//!
//! ```text
//!        ┌───────────── Measuring ◄────────────┐
//!        ▼                                     │ (probation over
//!   [infer verdict]                            │  AND breaker allows)
//!    │confident │degraded/low-confidence       │
//!    ▼          ▼                              │
//! Confident   Fallback ────────────────────────┘
//!    │(drift EWMA over threshold)
//!    ▼
//! Drifting → Remeasuring (shortened phase, estimator decayed, §3.7)
//! ```
//!
//! Every arm is a few plain calls into [`crate::engine::stages`] over
//! the cell's snapshot and arena:
//!
//! * **Measuring / Remeasuring** — measure, then infer: the
//!   Algorithm-1 plan feeds the estimator through the
//!   observation-fault channel, and inference runs guarded (poison
//!   quarantine, stall repetition, panic containment) with its
//!   verdict routed into Confident/Fallback behind the breaker.
//!   Re-measurements are shorter ([`REMEASURE_T_SAMPLES`]) and the
//!   estimator is first *decayed* so fresh post-drift samples
//!   outweigh stale history.
//! * **Confident / Fallback** — transmit, then (while streaming)
//!   refine: the blueprint in force (or its absence) picks the
//!   scheduler, a [`CHECK_INTERVAL_TXOPS`] segment is clipped to the
//!   remaining trace, and the
//!   [`CellEngine`](crate::engine::CellEngine) runs it with the
//!   fault-tap observer feeding estimator and drift monitor per
//!   decoded sub-frame. The *policy* that reads the drift score (or
//!   the probation/breaker countdown) afterwards stays here.
//! * **Drifting** — transitional: decay stale statistics, go
//!   straight into the shortened re-measurement.
//!
//! ## Resilience runtime (see [`crate::runtime`])
//!
//! Every inference call runs guarded at the infer step: scripted
//! runtime faults
//! ([`blu_sim::faults::FaultKind::InferenceStall`], `InferencePanic`,
//! `StatPoison`) stall it, panic it, or corrupt its constraint
//! targets; poisoned targets are quarantined before the solver sees
//! them, and a panic is contained at the call boundary as
//! [`BluError::Panicked`] — it routes to fallback like any other
//! failed inference and never crosses the cell boundary.
//!
//! The whole mutable loop state lives in a serializable
//! [`RobustSnapshot`] (the engine's
//! [`CellSnapshot`](crate::engine::CellSnapshot), re-exported under
//! its historical name); with a [`CheckpointPolicy`] configured, the
//! loop atomically persists it on an interval and at clean shutdown,
//! and a later run can resume **bit-identically** from the snapshot
//! (all RNG streams — observation channel, poison source, breaker
//! jitter — are part of it).
//!
//! PF fairness state is carried across segments by the transmit
//! step, and measurement overhead is charged against throughput in
//! [`RobustRunReport::effective_throughput_mbps`] — the number a
//! deployment would actually see.

use crate::blueprint::infer::InferenceVerdict;
use crate::blueprint::InferenceBackend;
use crate::engine::stages::{infer, measure, refine, transmit};
use crate::engine::{
    CellGeometry, EngineArena, FleetEngine, NullObserver, StreamEvent, StreamState,
    SubframeObserver,
};
use crate::error::BluError;
use crate::measure::measurement_schedule;
use crate::metrics::UplinkMetrics;
use crate::orchestrator::BluConfig;
use crate::runtime::breaker::{BreakerConfig, BreakerPoll, BreakerTransition};
use crate::runtime::checkpoint::{load_robust_checkpoint, save_due, save_robust_checkpoint};
use blu_traces::faults::FaultyCapture;

pub use crate::engine::context::CellSnapshot as RobustSnapshot;
pub use crate::engine::context::{
    CheckpointPolicy, DriftMonitor, OrchestratorState, StateTransition,
};

/// Largest streaming observation window, in sub-frames. The ring is
/// allocated in full on a cell's first step, so an unbounded window
/// taken from a wire `CellSpec` or a flag would abort the process on
/// allocation; 65,536 is 32× the 2,000 the benchmark and CI run.
pub const MAX_STREAM_WINDOW: usize = 65_536;

/// Minimum blue-print confidence (`1 − residual fraction`) to
/// speculate on; below it the loop falls back to PF.
pub const CONFIDENCE_FLOOR: f64 = 0.35;

/// EWMA weight of the drift monitor.
pub const DRIFT_ALPHA: f64 = 0.01;

/// Outcomes the drift monitor must see before its score counts
/// (EWMA warm-up).
pub const MIN_DRIFT_SAMPLES: u64 = 1_000;

/// `T` of the shortened re-measurement phases (§3.7: the estimator
/// stays warm, so far fewer fresh samples suffice).
pub const REMEASURE_T_SAMPLES: u64 = 15;

/// TxOPs per speculative or fallback segment between drift checks.
pub const CHECK_INTERVAL_TXOPS: u64 = 25;

/// TxOPs spent in PF fallback before measurement is retried.
pub const FALLBACK_PROBATION_TXOPS: u64 = 50;

/// Estimator count-retention factor applied before each
/// re-measurement (see
/// [`OutcomeEstimator::decay`](crate::measure::OutcomeEstimator::decay)).
pub const ESTIMATOR_KEEP: f64 = 0.25;

/// Streaming online-inference knobs: with
/// [`RobustConfig::streaming`] set, the Confident arm carries a
/// sliding [`ObservationWindow`](crate::blueprint::ObservationWindow)
/// fed per decoded sub-frame and folds its deltas into the blueprint
/// with budgeted warm-started refines between segments — full §3.7
/// re-measurement is demoted to the drift-monitor fallback arm.
#[derive(Debug, Clone, Copy)]
pub struct StreamingConfig {
    /// Observation-ring capacity, in retained sub-frames.
    pub window: usize,
    /// Step budget of each incremental refine (the anytime deadline
    /// of the streaming arm — refines must never stall a segment
    /// boundary).
    pub refine_deadline_steps: u64,
}

impl StreamingConfig {
    /// Defaults tuned against the testbed-scale scenarios: a window
    /// a few segments deep.
    pub fn new(window: usize) -> Self {
        StreamingConfig {
            window,
            refine_deadline_steps: 400,
        }
    }

    /// Minimum window occupancy before incremental refines start: a
    /// quarter of the window, at least 1 (a thin window
    /// under-determines the constraint system).
    pub fn min_window(&self) -> usize {
        (self.window / 4).max(1)
    }

    /// Validate the knobs.
    pub fn validate(&self) -> Result<(), BluError> {
        if self.window == 0 {
            return Err(BluError::InvalidConfig(
                "streaming window must be positive".into(),
            ));
        }
        if self.window > MAX_STREAM_WINDOW {
            return Err(BluError::InvalidConfig(format!(
                "streaming window must be at most {MAX_STREAM_WINDOW} sub-frames, got {}",
                self.window
            )));
        }
        if self.refine_deadline_steps == 0 {
            return Err(BluError::InvalidConfig(
                "streaming refine deadline must be positive".into(),
            ));
        }
        Ok(())
    }
}

impl Default for StreamingConfig {
    fn default() -> Self {
        StreamingConfig::new(2_000)
    }
}

/// Convert relative churn-event offsets into an absolute-time
/// [`FaultScript`](blu_sim::faults::FaultScript) starting at
/// `start_subframe`. Every conversion is checked: an offset that
/// would push an event past `u64::MAX` is a typed
/// [`BluError::Overflow`], never a silent wrap that would reorder the
/// script (mirroring the `min_subframes` treatment of the deadline
/// layer).
pub fn compile_churn_script(
    events: &[blu_sim::churn::TopologyEvent],
    start_subframe: u64,
) -> Result<blu_sim::faults::FaultScript, BluError> {
    let mut out = Vec::with_capacity(events.len());
    for ev in events {
        let at_subframe =
            start_subframe
                .checked_add(ev.offset_subframes)
                .ok_or(BluError::Overflow {
                    what: "churn event subframe",
                })?;
        out.push(blu_sim::faults::FaultEvent {
            at_subframe,
            kind: ev.kind,
        });
    }
    Ok(blu_sim::faults::FaultScript::new(out))
}

/// Configuration of the robust loop.
#[derive(Debug, Clone)]
pub struct RobustConfig {
    /// The underlying two-phase configuration (cell, `T`, inference).
    pub blu: BluConfig,
    /// Drift-score threshold that triggers re-measurement.
    pub drift_threshold: f64,
    /// Seed of the observation-fault channel RNG (the poison and
    /// breaker-jitter streams are derived from it).
    pub seed: u64,
    /// Inference engine used at every (re-)blue-printing point.
    pub backend: InferenceBackend,
    /// Per-cell circuit breaker gating re-measurement retries after
    /// failed inferences.
    pub breaker: BreakerConfig,
    /// Optional checkpoint/restore policy (None = never persist).
    pub checkpoint: Option<CheckpointPolicy>,
    /// Shared fleet blueprint cache consulted at every
    /// (re-)blue-printing point (`None` = cache off, bit-identical to
    /// the pre-cache loop). One `Arc` is shared by every cell of
    /// `run_robust_fleet` and across supervised restarts, so repeated
    /// topology classes and re-measurement storms are solved once.
    pub fleet_cache: Option<std::sync::Arc<crate::blueprint::FleetBlueprintCache>>,
    /// Streaming online inference (`None` = phased reference path,
    /// bit-identical to the pre-streaming loop): the Confident arm
    /// feeds a sliding observation window and refines the blueprint
    /// incrementally between segments, demoting full §3.7
    /// re-measurement to the drift-monitor fallback arm.
    pub streaming: Option<StreamingConfig>,
}

impl RobustConfig {
    /// Defaults tuned for the testbed-scale scenarios of the paper.
    pub fn new(blu: BluConfig) -> Self {
        RobustConfig {
            blu,
            drift_threshold: 0.35,
            seed: 0xD1F7,
            backend: InferenceBackend::Gradient,
            breaker: BreakerConfig::default(),
            checkpoint: None,
            fleet_cache: None,
            streaming: None,
        }
    }

    /// Up-front validation of every knob that would otherwise fail
    /// deep inside the loop (or silently wedge it).
    pub fn validate(&self) -> Result<(), BluError> {
        self.blu.inference.validate()?;
        if let InferenceBackend::Mcmc { config, .. } = &self.backend {
            config.validate()?;
        }
        self.breaker.validate()?;
        if let Some(streaming) = &self.streaming {
            streaming.validate()?;
        }
        Ok(())
    }
}

/// Everything a robust run produces.
#[derive(Debug, Clone)]
pub struct RobustRunReport {
    /// Merged scheduling-phase metrics (speculative + fallback
    /// segments; measurement sub-frames carry no counted payload).
    pub metrics: UplinkMetrics,
    /// Total sub-frames spent measuring (initial + re-measurements).
    pub measurement_subframes: u64,
    /// Number of re-measurement phases triggered.
    pub n_remeasurements: u32,
    /// TxOPs spent speculating on a blue-print.
    pub speculative_txops: u64,
    /// TxOPs spent in PF fallback.
    pub fallback_txops: u64,
    /// The full state history, in order.
    pub transitions: Vec<StateTransition>,
    /// Verdict of every inference attempt, in order (a contained
    /// panic is recorded as [`InferenceVerdict::Degraded`]).
    pub verdicts: Vec<InferenceVerdict>,
    /// Confidence of the last blue-print in force (0 when none).
    pub final_confidence: f64,
    /// Largest drift score observed across the run.
    pub peak_drift: f64,
    /// Wall-clock microseconds spent inside blueprint inference
    /// across the whole run (initial + every re-measurement).
    /// Timing only — excluded from the determinism contract.
    pub inference_micros: u64,
    /// Circuit-breaker state changes, in order.
    pub breaker_transitions: Vec<BreakerTransition>,
    /// Inference panics contained at the guarded call boundary.
    pub inference_panics: u32,
    /// Inference calls that ran out of their deadline budget
    /// (returned a best-so-far blueprint with `completed = false`).
    pub deadline_misses: u32,
    /// Constraint targets quarantined by
    /// [`ConstraintSystem::sanitize`](crate::blueprint::ConstraintSystem::sanitize)
    /// before inference.
    pub quarantined_constraints: u64,
    /// Incremental streaming refines attempted (0 on phased runs).
    pub stream_refines: u64,
    /// Streaming refines whose blueprint passed the gate and was
    /// installed.
    pub stream_refines_installed: u64,
    /// Full re-measurements scheduled by the demoted drift-monitor
    /// fallback arm while streaming.
    pub stream_fallback_remeasurements: u64,
    /// Churn-driven topology events crossed (and applied) by the
    /// streaming run.
    pub stream_churn_events: u64,
    /// Final observation-window occupancy, in retained sub-frames.
    pub stream_window_occupancy: u64,
}

impl RobustRunReport {
    /// Throughput with measurement overhead charged: delivered bits
    /// over *all* elapsed sub-frames, scheduled or measuring. This is
    /// the honest number for comparing a re-measuring loop against a
    /// never-measuring baseline.
    pub fn effective_throughput_mbps(&self) -> f64 {
        let total = self.metrics.subframes + self.measurement_subframes;
        if total == 0 {
            0.0
        } else {
            self.metrics.bits_delivered / (total as f64 * 1_000.0)
        }
    }

    /// The state the run ended in.
    pub fn final_state(&self) -> OrchestratorState {
        self.transitions
            .last()
            .map(|t| t.state)
            .unwrap_or(OrchestratorState::Measuring)
    }
}

impl RobustRunReport {
    /// Fold a cell's final snapshot into its report.
    pub(crate) fn from_snapshot(snap: RobustSnapshot) -> Self {
        let stream = snap.stream.as_ref();
        RobustRunReport {
            stream_refines: stream.map_or(0, |s| s.refines),
            stream_refines_installed: stream.map_or(0, |s| s.refines_installed),
            stream_fallback_remeasurements: stream.map_or(0, |s| s.fallback_remeasurements),
            stream_churn_events: stream.map_or(0, |s| s.churn_events_applied),
            stream_window_occupancy: stream.map_or(0, |s| s.window.occupancy() as u64),
            metrics: snap.metrics,
            measurement_subframes: snap.measurement_subframes,
            n_remeasurements: snap.n_remeasurements,
            speculative_txops: snap.speculative_txops,
            fallback_txops: snap.fallback_txops,
            transitions: snap.transitions,
            verdicts: snap.verdicts,
            final_confidence: snap
                .blueprint
                .as_ref()
                .map(|r| r.confidence())
                .unwrap_or(0.0),
            peak_drift: snap.peak_drift,
            inference_micros: snap.inference_micros,
            breaker_transitions: snap.breaker.transitions().to_vec(),
            inference_panics: snap.inference_panics,
            deadline_misses: snap.deadline_misses,
            quarantined_constraints: snap.quarantined_constraints,
        }
    }
}

/// The checks every robust cell passes before its first step — a
/// valid trace and config, and an initial measurement phase that fits
/// the trace (later phases that run off the end simply end the run in
/// whatever state it was in) — and the cell's geometry and fresh
/// snapshot.
pub(crate) fn start_cell(
    capture: &FaultyCapture,
    config: &RobustConfig,
) -> Result<(CellGeometry, RobustSnapshot), BluError> {
    capture.trace.validate().map_err(BluError::InvalidTrace)?;
    config.validate()?;
    let geom = CellGeometry::derive(&capture.trace, &config.blu.emulation);
    let plan = measurement_schedule(geom.n, geom.k_max, config.blu.t_samples)?;
    if plan.t_max() > geom.trace_len {
        return Err(BluError::TraceTooShort {
            what: "robust initial measurement phase",
            needed: plan.t_max(),
            available: geom.trace_len,
        });
    }
    let snap = RobustSnapshot::fresh(geom.n, geom.trace_len, config.seed, config.breaker);
    Ok((geom, snap))
}

/// Guard a restored snapshot: it must have been taken against a
/// capture of this geometry and under this seed, and its cursor must
/// lie within the trace (the access trace wraps on replay, so a
/// cursor past its end would transmit forever).
pub(crate) fn check_snapshot(
    snap: &RobustSnapshot,
    geom: &CellGeometry,
    seed: u64,
) -> Result<(), BluError> {
    if snap.n_clients != geom.n as u64 || snap.trace_len != geom.trace_len {
        return Err(BluError::Checkpoint(format!(
            "snapshot was taken against a different capture \
             ({} clients / {} sub-frames, run has {} / {})",
            snap.n_clients, snap.trace_len, geom.n, geom.trace_len
        )));
    }
    if snap.config_seed != seed {
        return Err(BluError::Checkpoint(format!(
            "snapshot seed {:#x} does not match configured seed {:#x}",
            snap.config_seed, seed
        )));
    }
    if snap.cursor > snap.trace_len {
        return Err(BluError::Checkpoint(format!(
            "snapshot cursor {} lies past the end of the {}-sub-frame trace",
            snap.cursor, snap.trace_len
        )));
    }
    Ok(())
}

/// One state-machine step of the robust loop over caller-held
/// storage: every driver of a cell (the unsupervised loop below and
/// the supervised cell of the batch fleet and the daemon) steps
/// through it. Returns `Ok(false)` once the trace is exhausted.
pub(crate) fn step_cell_with(
    capture: &FaultyCapture,
    config: &RobustConfig,
    geom: &CellGeometry,
    snap: &mut RobustSnapshot,
    arena: &mut EngineArena,
    observer: &mut dyn SubframeObserver,
) -> Result<bool, BluError> {
    if snap.done {
        return Ok(false);
    }
    // Streaming runs materialize their window lazily (and exactly
    // once — a resumed snapshot keeps its ring); phased runs never
    // touch the field, keeping their checkpoints byte-identical to
    // the v1 schema.
    if let Some(scfg) = &config.streaming {
        if snap.stream.is_none() {
            snap.stream = Some(StreamState::new(geom.n, scfg.window));
        }
    }
    match snap.state {
        OrchestratorState::Measuring | OrchestratorState::Remeasuring => {
            let t = if snap.state == OrchestratorState::Measuring {
                config.blu.t_samples
            } else {
                REMEASURE_T_SAMPLES
            };
            if !measure(capture, t, geom, snap, observer)? {
                return Ok(false);
            }
            infer(capture, config, snap, arena, observer);
        }
        OrchestratorState::Confident | OrchestratorState::Fallback => {
            let was_confident = snap.state == OrchestratorState::Confident;
            let segment_start = snap.cursor;
            let Some(txops) = transmit(capture, config, geom, snap, arena, true, observer)? else {
                return Ok(false);
            };

            // Post-segment policy: the steps carried the mechanism;
            // the drift gate and the probation/breaker countdown are
            // the robust loop's own decisions.
            if was_confident {
                // Sampled before any streaming refine can reset the
                // monitor: the peak must record what the segment saw.
                snap.peak_drift = snap.peak_drift.max(snap.drift.score());
            }
            if let Some(scfg) = &config.streaming {
                // Streaming bookkeeping: count the churn-driven
                // topology events the segment crossed (the trace
                // already carries their effects; the counters make
                // them observable) and report window occupancy.
                {
                    let stream = snap.stream.as_mut().expect("initialized at step entry");
                    let applied = capture
                        .script
                        .topology_event_subframes()
                        .iter()
                        .filter(|&&sf| sf > segment_start && sf <= snap.cursor)
                        .count() as u64;
                    if applied > 0 {
                        stream.churn_events_applied += applied;
                        observer.on_stream(StreamEvent::ChurnApplied { count: applied });
                    }
                    observer.on_stream(StreamEvent::WindowOccupancy {
                        occupied: stream.window.occupancy() as u64,
                        capacity: stream.window.capacity() as u64,
                    });
                }
                // Incremental refine: fold the window's deltas into
                // the blueprint in force under the anytime deadline.
                // An installed refine resets the drift monitor, so
                // the (demoted) full-re-measurement gate below only
                // fires when streaming cannot keep up.
                let occupancy = snap.stream.as_ref().map_or(0, |s| s.window.occupancy());
                if was_confident && occupancy >= scfg.min_window() {
                    refine(config, scfg.refine_deadline_steps, snap, arena, observer);
                }
            }
            if was_confident {
                if snap.drift.samples() >= MIN_DRIFT_SAMPLES
                    && snap.drift.score() > config.drift_threshold
                {
                    if config.streaming.is_some() {
                        // Demoted §3.7 arm: streaming refines could
                        // not absorb the change — fall back to a full
                        // re-measurement and count it.
                        let stream = snap.stream.as_mut().expect("initialized at step entry");
                        stream.fallback_remeasurements += 1;
                        observer.on_stream(StreamEvent::FallbackRemeasure);
                    }
                    snap.enter(OrchestratorState::Drifting);
                }
            } else {
                snap.probation_left = snap.probation_left.saturating_sub(txops);
                if snap.probation_left == 0 {
                    // Probation over — but a tripped breaker gates
                    // the (expensive) re-measurement retry behind
                    // its backoff: stay in fallback without a
                    // transition until the breaker half-opens.
                    match snap.breaker.poll(snap.cursor) {
                        BreakerPoll::Wait(wait_subframes) => {
                            snap.probation_left = (wait_subframes / geom.per_txop).max(1);
                        }
                        BreakerPoll::Allow => {
                            snap.est.decay(ESTIMATOR_KEEP);
                            snap.n_remeasurements += 1;
                            snap.enter(OrchestratorState::Remeasuring);
                        }
                    }
                }
            }
        }
        OrchestratorState::Drifting => {
            // Transitional: decay stale statistics and go
            // straight into the shortened re-measurement.
            snap.est.decay(ESTIMATOR_KEEP);
            snap.n_remeasurements += 1;
            snap.enter(OrchestratorState::Remeasuring);
        }
    }
    Ok(true)
}

/// Drain one PF-only segment, ignoring the state machine: the arm the
/// supervisor (and the daemon's backpressure controller) runs for
/// quarantined or load-shed cells. No blueprint generation, no
/// inference, no drift/probation policy — just a windowed PF segment
/// through the fault tap, so the cell keeps serving traffic (counted
/// as fallback TxOPs) and the cursor provably advances until the
/// trace is exhausted.
pub(crate) fn step_cell_shed(
    capture: &FaultyCapture,
    config: &RobustConfig,
    snap: &mut RobustSnapshot,
    arena: &mut EngineArena,
) -> Result<bool, BluError> {
    if snap.done {
        return Ok(false);
    }
    let geom = CellGeometry::derive(&capture.trace, &config.blu.emulation);
    // A blueprint may survive in the snapshot, but a shed cell must
    // not speculate on it.
    let ran = transmit(
        capture,
        config,
        &geom,
        snap,
        arena,
        false,
        &mut NullObserver,
    )?;
    Ok(ran.is_some())
}

/// Run the robust loop over a fault-scripted capture until the trace
/// is exhausted.
///
/// Injected faults never panic this function: an inference failure on
/// corrupted statistics surfaces as a [`InferenceVerdict::Degraded`]
/// verdict, an injected (or genuine) inference panic is contained as
/// [`BluError::Panicked`] and both route into PF fallback behind the
/// circuit breaker; a trace too short for even one measurement phase
/// is a typed [`BluError`]. With [`RobustConfig::checkpoint`] set the
/// loop persists (and optionally resumes) its state as cell 0.
pub fn run_blu_robust(
    capture: &FaultyCapture,
    config: &RobustConfig,
) -> Result<RobustRunReport, BluError> {
    run_blu_robust_cell_in(capture, config, 0, &mut EngineArena::new())
}

/// [`run_blu_robust`] as cell `cell` of a fleet, over caller-provided
/// recycled engine buffers. The index names the checkpoint file
/// (`cell-<index>.json`) when a [`CheckpointPolicy`] is configured;
/// the loop runs its transmit segments out of `arena`, so a fleet
/// shard's cells share one allocation pool and steady-state segments
/// allocate nothing per sub-frame.
pub fn run_blu_robust_cell_in(
    capture: &FaultyCapture,
    config: &RobustConfig,
    cell: usize,
    arena: &mut EngineArena,
) -> Result<RobustRunReport, BluError> {
    let (geom, mut snap) = start_cell(capture, config)?;
    let ckpt = config
        .checkpoint
        .as_ref()
        .map(|p| (p, p.dir.join(format!("cell-{cell}.json"))));
    if let Some((policy, path)) = &ckpt {
        if policy.resume && path.exists() {
            snap = load_robust_checkpoint(path)?;
            check_snapshot(&snap, &geom, config.seed)?;
        }
    }
    let mut last_saved = snap.cursor;
    loop {
        let more = step_cell_with(capture, config, &geom, &mut snap, arena, &mut NullObserver)?;
        if let Some((policy, path)) = &ckpt {
            let interval_due = save_due(policy.every_subframes, last_saved, snap.cursor);
            // Clean shutdown always persists, so a later `--resume`
            // returns the completed run instead of recomputing it.
            if interval_due || !more {
                save_robust_checkpoint(path, &snap)?;
                last_saved = snap.cursor;
            }
        }
        if !more {
            break;
        }
    }
    Ok(RobustRunReport::from_snapshot(snap))
}

/// Run the robust loop over a fleet of captures (one per cell) in
/// parallel across the sharded [`FleetEngine`].
///
/// Each cell's run is an independent pure function of its capture and
/// the shared config, and the fleet engine joins shards in spawn
/// order, so the reports come back **in input order** and — apart
/// from the wall-clock [`RobustRunReport::inference_micros`] field —
/// identical to running the cells one after another.
///
/// **Isolation contract:** any panic inside a cell's run is contained
/// inside that cell's closure (the fleet engine would otherwise
/// abort the whole join) and surfaces as that cell's
/// [`BluError::Panicked`]; the other cells' reports are exactly what
/// they would have been without the faulty neighbour.
pub fn run_robust_fleet(
    captures: &[FaultyCapture],
    config: &RobustConfig,
) -> Vec<Result<RobustRunReport, BluError>> {
    let indexed: Vec<(usize, &FaultyCapture)> = captures.iter().enumerate().collect();
    FleetEngine::run_isolated(indexed, EngineArena::new, |arena, (cell, cap)| {
        run_blu_robust_cell_in(cap, config, cell, arena)
    })
    .into_iter()
    .map(|r| r.and_then(|inner| inner))
    .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::runtime::breaker::BreakerState;
    use crate::runtime::checkpoint::{RobustCheckpoint, CHECKPOINT_VERSION};
    use crate::runtime::panic_message;
    use blu_phy::cell::CellConfig;
    use blu_sim::clientset::ClientSet;
    use blu_sim::faults::{FaultEvent, FaultKind, FaultScript};
    use blu_sim::time::Micros;
    use blu_traces::capture::CaptureConfig;
    use blu_traces::faults::capture_with_faults;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    pub(crate) fn capture(script: FaultScript, secs: u64, seed: u64) -> FaultyCapture {
        capture_with_faults(
            &CaptureConfig {
                duration: Micros::from_secs(secs),
                q_range: (0.25, 0.55),
                ..CaptureConfig::testbed_default()
            },
            &script,
            seed,
        )
        .unwrap()
    }

    pub(crate) fn quick_config() -> RobustConfig {
        let mut cell = CellConfig::testbed_siso();
        cell.numerology.n_rbs = 10;
        let emu = crate::emulator::EmulationConfig::new(cell);
        RobustConfig::new(BluConfig::new(emu))
    }

    /// Reports compared field by field, excluding wall-clock timing.
    pub(crate) fn assert_reports_identical(a: &RobustRunReport, b: &RobustRunReport) {
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.transitions, b.transitions);
        assert_eq!(a.verdicts, b.verdicts);
        assert_eq!(a.measurement_subframes, b.measurement_subframes);
        assert_eq!(a.n_remeasurements, b.n_remeasurements);
        assert_eq!(a.speculative_txops, b.speculative_txops);
        assert_eq!(a.fallback_txops, b.fallback_txops);
        assert_eq!(a.final_confidence.to_bits(), b.final_confidence.to_bits());
        assert_eq!(a.peak_drift.to_bits(), b.peak_drift.to_bits());
        assert_eq!(a.breaker_transitions, b.breaker_transitions);
        assert_eq!(a.inference_panics, b.inference_panics);
        assert_eq!(a.deadline_misses, b.deadline_misses);
        assert_eq!(a.quarantined_constraints, b.quarantined_constraints);
        assert_eq!(a.stream_refines, b.stream_refines);
        assert_eq!(a.stream_refines_installed, b.stream_refines_installed);
        assert_eq!(
            a.stream_fallback_remeasurements,
            b.stream_fallback_remeasurements
        );
        assert_eq!(a.stream_churn_events, b.stream_churn_events);
        assert_eq!(a.stream_window_occupancy, b.stream_window_occupancy);
    }

    #[test]
    fn clean_run_stays_confident() {
        let cap = capture(FaultScript::none(), 60, 11);
        let report = run_blu_robust(&cap, &quick_config()).unwrap();
        assert_eq!(report.final_state(), OrchestratorState::Confident);
        assert_eq!(report.n_remeasurements, 0);
        assert_eq!(report.fallback_txops, 0);
        assert!(report.speculative_txops > 0);
        assert!(report.metrics.bits_delivered > 0.0);
        assert!(report.final_confidence > 0.5);
        // The resilience layer is invisible on the clean path.
        assert!(report.breaker_transitions.is_empty());
        assert_eq!(report.inference_panics, 0);
        assert_eq!(report.deadline_misses, 0);
        assert_eq!(report.quarantined_constraints, 0);
    }

    #[test]
    fn appearance_triggers_drift_and_remeasure() {
        // A strong new terminal blankets four clients mid-run.
        let cap = capture(step_change_script(), 90, 12);
        let report = run_blu_robust(&cap, &quick_config()).unwrap();
        assert!(
            report.n_remeasurements >= 1,
            "appearance went undetected: peak drift {}",
            report.peak_drift
        );
        assert!(report.peak_drift > 0.35);
        assert!(report
            .transitions
            .iter()
            .any(|t| t.state == OrchestratorState::Drifting));
        // After re-measuring the loop should have found its footing
        // again rather than dying in fallback.
        assert_eq!(report.final_state(), OrchestratorState::Confident);
    }

    #[test]
    fn clean_run_never_spuriously_remeasures() {
        let cap = capture(FaultScript::none(), 90, 13);
        let report = run_blu_robust(&cap, &quick_config()).unwrap();
        assert_eq!(
            report.n_remeasurements, 0,
            "false drift alarm (peak {})",
            report.peak_drift
        );
    }

    #[test]
    fn misclassification_does_not_panic_and_still_delivers() {
        let script = FaultScript::new(vec![FaultEvent {
            at_subframe: 0,
            kind: FaultKind::MisclassifyRate { rate: 0.05 },
        }]);
        let cap = capture(script, 60, 14);
        let report = run_blu_robust(&cap, &quick_config()).unwrap();
        assert!(report.metrics.bits_delivered > 0.0);
        assert!(!report.verdicts.is_empty());
    }

    #[test]
    fn heavy_observation_faults_route_to_fallback_not_panic() {
        // Half the outcomes flipped and half the reports dropped: the
        // statistics are garbage; the loop must keep scheduling.
        let script = FaultScript::new(vec![
            FaultEvent {
                at_subframe: 0,
                kind: FaultKind::MisclassifyRate { rate: 0.5 },
            },
            FaultEvent {
                at_subframe: 0,
                kind: FaultKind::DropRate { rate: 0.5 },
            },
        ]);
        let cap = capture(script, 60, 15);
        let report = run_blu_robust(&cap, &quick_config()).unwrap();
        assert!(report.metrics.bits_delivered > 0.0);
        // Either the inference survived the noise or fallback ran —
        // both are acceptable; a panic is not.
        assert!(report.fallback_txops > 0 || report.speculative_txops > 0);
    }

    #[test]
    fn deterministic() {
        let script = FaultScript::new(vec![FaultEvent {
            at_subframe: 15_000,
            kind: FaultKind::QDrift { ht: 0, q: 0.9 },
        }]);
        let cap = capture(script, 60, 16);
        let cfg = quick_config();
        let a = run_blu_robust(&cap, &cfg).unwrap();
        let b = run_blu_robust(&cap, &cfg).unwrap();
        assert_reports_identical(&a, &b);
    }

    #[test]
    fn too_short_trace_is_a_typed_error() {
        let cap = capture(FaultScript::none(), 1, 17);
        let mut cfg = quick_config();
        cfg.blu.t_samples = 5_000;
        match run_blu_robust(&cap, &cfg) {
            Err(BluError::TraceTooShort { .. }) => {}
            other => panic!("expected TraceTooShort, got {other:?}"),
        }
    }

    #[test]
    fn effective_throughput_charges_measurement() {
        let cap = capture(FaultScript::none(), 60, 18);
        let report = run_blu_robust(&cap, &quick_config()).unwrap();
        assert!(report.effective_throughput_mbps() <= report.metrics.throughput_mbps());
        assert!(report.effective_throughput_mbps() > 0.0);
    }

    /// Step a cell `steps` arms (to the end with `usize::MAX`);
    /// `false` once the trace is exhausted.
    pub(crate) fn run_steps(
        cap: &FaultyCapture,
        cfg: &RobustConfig,
        snap: &mut RobustSnapshot,
        steps: usize,
    ) -> bool {
        let geom = CellGeometry::derive(&cap.trace, &cfg.blu.emulation);
        let mut arena = EngineArena::new();
        (0..steps)
            .all(|_| step_cell_with(cap, cfg, &geom, snap, &mut arena, &mut NullObserver).unwrap())
    }

    /// Resume the checkpoint `dir/cell-0.json` and run to the end of
    /// the trace.
    fn resume_from(
        cap: &FaultyCapture,
        cfg: &RobustConfig,
        dir: &std::path::Path,
    ) -> RobustRunReport {
        let mut cfg = cfg.clone();
        cfg.checkpoint = Some(CheckpointPolicy {
            dir: dir.to_path_buf(),
            every_subframes: 0,
            resume: true,
        });
        run_blu_robust(cap, &cfg).unwrap()
    }

    /// Sequential reference for [`run_robust_fleet`].
    fn run_robust_fleet_sequential(
        captures: &[FaultyCapture],
        config: &RobustConfig,
    ) -> Vec<Result<RobustRunReport, BluError>> {
        captures
            .iter()
            .enumerate()
            .map(|(cell, cap)| {
                catch_unwind(AssertUnwindSafe(|| {
                    run_blu_robust_cell_in(cap, config, cell, &mut EngineArena::new())
                }))
                .unwrap_or_else(|p| Err(BluError::Panicked(panic_message(p.as_ref()))))
            })
            .collect()
    }

    #[test]
    fn fleet_matches_sequential_reference() {
        let caps: Vec<FaultyCapture> = (0..3)
            .map(|s| capture(FaultScript::none(), 60, 20 + s))
            .collect();
        let cfg = quick_config();
        let par = run_robust_fleet(&caps, &cfg);
        let seq = run_robust_fleet_sequential(&caps, &cfg);
        assert_eq!(par.len(), seq.len());
        for (a, b) in par.iter().zip(&seq) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            // Everything but wall-clock timing must be identical.
            assert_reports_identical(a, b);
        }
    }

    #[test]
    fn mcmc_backend_completes_and_reports_timing() {
        use crate::blueprint::McmcConfig;
        let cap = capture(FaultScript::none(), 60, 19);
        let mut cfg = quick_config();
        cfg.backend = InferenceBackend::Mcmc {
            config: McmcConfig {
                steps: 3_000,
                ..Default::default()
            },
            seed: 7,
        };
        let report = run_blu_robust(&cap, &cfg).unwrap();
        assert!(report.metrics.bits_delivered > 0.0);
        assert!(!report.verdicts.is_empty());
        assert!(report.inference_micros > 0);
    }

    #[test]
    fn degenerate_mcmc_backend_is_rejected_up_front() {
        use crate::blueprint::McmcConfig;
        let cap = capture(FaultScript::none(), 60, 19);
        let mut cfg = quick_config();
        cfg.backend = InferenceBackend::Mcmc {
            config: McmcConfig {
                steps: 0,
                ..Default::default()
            },
            seed: 7,
        };
        assert!(matches!(
            run_blu_robust(&cap, &cfg),
            Err(BluError::InvalidConfig(_))
        ));
    }

    // ------------------------------------------------------------------
    // Resilience runtime: panic isolation, circuit breaking, poison
    // quarantine, checkpoint/restore.
    // ------------------------------------------------------------------

    fn panic_script() -> FaultScript {
        FaultScript::new(vec![FaultEvent {
            at_subframe: 0,
            kind: FaultKind::InferencePanic { active: true },
        }])
    }

    #[test]
    fn injected_panic_is_contained_and_breaker_opens() {
        let cap = capture(panic_script(), 60, 30);
        let report = run_blu_robust(&cap, &quick_config()).unwrap();
        // Every inference attempt panicked, was contained, and routed
        // to PF fallback.
        assert!(report.inference_panics >= 1);
        assert_eq!(report.speculative_txops, 0);
        assert!(report.fallback_txops > 0);
        assert!(report.metrics.bits_delivered > 0.0, "PF kept scheduling");
        assert_eq!(report.final_state(), OrchestratorState::Fallback);
        assert!(report
            .verdicts
            .iter()
            .all(|v| *v == InferenceVerdict::Degraded));
        // Threshold is 2: the second failure must have tripped the
        // breaker open.
        assert!(report
            .breaker_transitions
            .iter()
            .any(|t| t.to == BreakerState::Open));
    }

    #[test]
    fn breaker_backoff_spaces_out_retries() {
        // With vs without the breaker gating retries, the same
        // always-panicking run must attempt fewer inferences.
        let cap = capture(panic_script(), 120, 31);
        let gated = quick_config();
        let mut ungated = quick_config();
        // An effectively-never-tripping breaker reproduces the bare
        // probation cycle.
        ungated.breaker.failure_threshold = u32::MAX;
        let with_breaker = run_blu_robust(&cap, &gated).unwrap();
        let without = run_blu_robust(&cap, &ungated).unwrap();
        assert!(
            with_breaker.verdicts.len() < without.verdicts.len(),
            "breaker must reduce re-measurement probes: {} vs {}",
            with_breaker.verdicts.len(),
            without.verdicts.len()
        );
        assert!(without.breaker_transitions.is_empty());
    }

    #[test]
    fn stat_poison_is_quarantined_not_fatal() {
        let script = FaultScript::new(vec![FaultEvent {
            at_subframe: 0,
            kind: FaultKind::StatPoison { rate: 1.0 },
        }]);
        let cap = capture(script, 60, 32);
        let report = run_blu_robust(&cap, &quick_config()).unwrap();
        assert!(
            report.quarantined_constraints > 0,
            "poisoned targets must be counted"
        );
        assert_eq!(report.inference_panics, 0, "NaNs must never panic");
        assert!(report.metrics.bits_delivered > 0.0);
    }

    #[test]
    fn inference_stall_changes_timing_not_results() {
        let script = FaultScript::new(vec![FaultEvent {
            at_subframe: 0,
            kind: FaultKind::InferenceStall { factor: 3 },
        }]);
        let clean = capture(FaultScript::none(), 60, 33);
        let stalled = capture(script, 60, 33);
        let cfg = quick_config();
        let a = run_blu_robust(&clean, &cfg).unwrap();
        let b = run_blu_robust(&stalled, &cfg).unwrap();
        // The stall repeats a deterministic solve: results identical.
        assert_reports_identical(&a, &b);
    }

    /// The fleet acceptance criterion: 8 cells, 2 of them faulty (one
    /// panicking, one panicking *and* 10× stalled). The fleet must
    /// complete, the healthy six must be byte-identical to a
    /// fault-free run, and the faulty two must sit in PF fallback
    /// behind an open breaker — no panic crosses the batch boundary.
    #[test]
    fn fleet_isolates_faulty_cells() {
        let faulty_script = |stall: bool| {
            let mut events = vec![FaultEvent {
                at_subframe: 0,
                kind: FaultKind::InferencePanic { active: true },
            }];
            if stall {
                events.push(FaultEvent {
                    at_subframe: 0,
                    kind: FaultKind::InferenceStall { factor: 10 },
                });
            }
            FaultScript::new(events)
        };
        let clean_caps: Vec<FaultyCapture> = (0..8)
            .map(|s| capture(FaultScript::none(), 45, 40 + s))
            .collect();
        let faulty_caps: Vec<FaultyCapture> = (0..8)
            .map(|s| {
                let script = match s {
                    2 => faulty_script(false),
                    5 => faulty_script(true),
                    _ => FaultScript::none(),
                };
                capture(script, 45, 40 + s)
            })
            .collect();
        // Runtime faults must not perturb the captured air itself.
        for (a, b) in clean_caps.iter().zip(&faulty_caps) {
            assert_eq!(a.trace.access.len(), b.trace.access.len());
        }
        let cfg = quick_config();
        let clean = run_robust_fleet(&clean_caps, &cfg);
        let mixed = run_robust_fleet(&faulty_caps, &cfg);
        assert_eq!(mixed.len(), 8, "fleet must complete");
        for i in 0..8 {
            let m = mixed[i].as_ref().unwrap();
            if i == 2 || i == 5 {
                assert!(m.inference_panics >= 1, "cell {i} must contain panics");
                assert_eq!(m.speculative_txops, 0);
                assert_eq!(m.final_state(), OrchestratorState::Fallback);
                assert!(
                    m.breaker_transitions
                        .iter()
                        .any(|t| t.to == BreakerState::Open),
                    "cell {i} breaker must have opened"
                );
            } else {
                assert_reports_identical(m, clean[i].as_ref().unwrap());
            }
        }
    }

    #[test]
    fn kill_and_resume_is_bit_identical() {
        let script = FaultScript::new(vec![FaultEvent {
            at_subframe: 20_000,
            kind: FaultKind::HtAppear {
                q: 0.6,
                edges: ClientSet::from_iter([0, 1, 2, 3]),
            },
        }]);
        let cap = capture(script, 90, 50);
        let cfg = quick_config();

        // Uninterrupted reference run.
        let full_report = run_blu_robust(&cap, &cfg).unwrap();

        // "Crash" after a few steps: snapshot, drop the cell, restore
        // from the serialized bytes, continue.
        let (_, mut first) = start_cell(&cap, &cfg).unwrap();
        assert!(run_steps(&cap, &cfg, &mut first, 3));
        let dir = std::env::temp_dir().join(format!("blu-ckpt-resume-{}", std::process::id()));
        let path = dir.join("cell-0.json");
        save_robust_checkpoint(&path, &first).unwrap();
        drop(first);
        let resumed_report = resume_from(&cap, &cfg, &dir);

        assert_reports_identical(&full_report, &resumed_report);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Kill-and-resume pinned against the pre-refactor golden: the
    /// resumed run of the `robust_ht_appear_seed12` scenario must
    /// reproduce the digest recorded by the standalone-loop
    /// implementation in `tests/data/engine_golden_v1.json` — resume
    /// is not merely self-consistent, it is bit-identical to the
    /// pre-engine numbers.
    #[test]
    fn kill_and_resume_matches_pre_refactor_golden() {
        /// Order-sensitive bit-pattern fold (duplicated from the
        /// engine differential test, which cannot reach the
        /// crate-private step function).
        fn fold_bits(xs: &[f64]) -> u64 {
            xs.iter().fold(0x9E37_79B9_7F4A_7C15u64, |h, x| {
                h.rotate_left(7) ^ x.to_bits()
            })
        }
        fn digest_metrics(m: &UplinkMetrics) -> String {
            format!(
                "sf={} sch={} ut={} col={} blk={} fad={} full={} bits={:016x} pc={:016x}",
                m.subframes,
                m.rbs_scheduled,
                m.rbs_utilized,
                m.rbs_collided,
                m.rbs_blocked,
                m.rbs_faded,
                m.fully_utilized_subframes,
                m.bits_delivered.to_bits(),
                fold_bits(&m.bits_per_client),
            )
        }
        fn digest_robust(r: &RobustRunReport) -> String {
            let trans_fold = r.transitions.iter().fold(0u64, |h, t| {
                h.rotate_left(5) ^ t.at_subframe ^ ((t.state as u64) << 56)
            });
            let verdict_fold = r
                .verdicts
                .iter()
                .fold(0u64, |h, v| h.rotate_left(3) ^ (*v as u64 + 1));
            format!(
                "meas={} remeas={} spec={} fb={} trans={}x{:016x} verdicts={}x{:016x} conf={:016x} \
                 drift={:016x} brk={} panics={} ddl={} quar={} metrics=[{}]",
                r.measurement_subframes,
                r.n_remeasurements,
                r.speculative_txops,
                r.fallback_txops,
                r.transitions.len(),
                trans_fold,
                r.verdicts.len(),
                verdict_fold,
                r.final_confidence.to_bits(),
                r.peak_drift.to_bits(),
                r.breaker_transitions.len(),
                r.inference_panics,
                r.deadline_misses,
                r.quarantined_constraints,
                digest_metrics(&r.metrics),
            )
        }

        // The exact scenario pinned as `robust_ht_appear_seed12`.
        let script = FaultScript::new(vec![FaultEvent {
            at_subframe: 20_000,
            kind: FaultKind::HtAppear {
                q: 0.6,
                edges: ClientSet::from_iter([0, 1, 2, 3]),
            },
        }]);
        let cap = capture(script, 90, 12);
        let mut cell = CellConfig::testbed_siso();
        cell.numerology.n_rbs = 10;
        let mut emu = crate::emulator::EmulationConfig::new(cell);
        emu.n_txops = 40;
        let cfg = RobustConfig::new(BluConfig::new(emu));

        // Kill after five steps, resume through serialized bytes.
        let (_, mut first) = start_cell(&cap, &cfg).unwrap();
        assert!(run_steps(&cap, &cfg, &mut first, 5));
        let dir = std::env::temp_dir().join(format!("blu-ckpt-golden-{}", std::process::id()));
        let path = dir.join("cell-0.json");
        save_robust_checkpoint(&path, &first).unwrap();
        drop(first);
        let report = resume_from(&cap, &cfg, &dir);
        std::fs::remove_dir_all(&dir).ok();

        let golden_path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/data/engine_golden_v1.json"
        );
        let golden: std::collections::BTreeMap<String, String> =
            serde_json::from_str(&std::fs::read_to_string(golden_path).unwrap()).unwrap();
        assert_eq!(
            &digest_robust(&report),
            golden.get("robust_ht_appear_seed12").unwrap(),
            "kill-and-resume diverged from the pre-refactor robust run"
        );
    }

    #[test]
    fn checkpointing_run_matches_plain_run_and_resumes_completed() {
        let cap = capture(FaultScript::none(), 60, 51);
        let plain_cfg = quick_config();
        let plain = run_blu_robust(&cap, &plain_cfg).unwrap();

        let dir = std::env::temp_dir().join(format!("blu-ckpt-full-{}", std::process::id()));
        let mut ckpt_cfg = quick_config();
        ckpt_cfg.checkpoint = Some(CheckpointPolicy {
            dir: dir.clone(),
            every_subframes: 5_000,
            resume: false,
        });
        let checkpointed = run_blu_robust(&cap, &ckpt_cfg).unwrap();
        assert_reports_identical(&plain, &checkpointed);
        assert!(dir.join("cell-0.json").exists(), "clean shutdown persists");

        // Resuming the completed run replays nothing and returns the
        // identical report.
        let mut resume_cfg = ckpt_cfg.clone();
        resume_cfg.checkpoint.as_mut().unwrap().resume = true;
        let resumed = run_blu_robust(&cap, &resume_cfg).unwrap();
        assert_reports_identical(&plain, &resumed);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_mismatched_capture_and_seed() {
        let cap = capture(FaultScript::none(), 60, 52);
        let other = capture(FaultScript::none(), 90, 53);
        let cfg = quick_config();
        let (geom, snap) = start_cell(&cap, &cfg).unwrap();
        let (other_geom, _) = start_cell(&other, &cfg).unwrap();

        match check_snapshot(&snap, &other_geom, cfg.seed) {
            Err(BluError::Checkpoint(msg)) => assert!(msg.contains("different capture")),
            Err(e) => panic!("expected Checkpoint error, got {e:?}"),
            Ok(_) => panic!("resume against the wrong capture must fail"),
        }
        let mut reseeded = quick_config();
        reseeded.seed ^= 1;
        match check_snapshot(&snap, &geom, reseeded.seed) {
            Err(BluError::Checkpoint(msg)) => assert!(msg.contains("seed")),
            Err(e) => panic!("expected Checkpoint error, got {e:?}"),
            Ok(_) => panic!("resume with a reseeded config must fail"),
        }
    }

    #[test]
    fn resume_rejects_a_cursor_past_the_trace_end() {
        // `TestbedTrace` access wraps, so a cursor past the end would
        // keep transmitting forever instead of finishing the cell.
        let cap = capture(FaultScript::none(), 60, 54);
        let dir = std::env::temp_dir().join(format!("blu-ckpt-cursor-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = quick_config();
        cfg.checkpoint = Some(CheckpointPolicy {
            dir: dir.clone(),
            every_subframes: 0,
            resume: true,
        });
        let (_, mut snap) = start_cell(&cap, &cfg).unwrap();
        assert!(run_steps(&cap, &cfg, &mut snap, 2));
        snap.state = OrchestratorState::Confident;
        snap.cursor = snap.trace_len + 4;
        save_robust_checkpoint(&dir.join("cell-0.json"), &snap).unwrap();
        match run_blu_robust(&cap, &cfg) {
            Err(BluError::Checkpoint(msg)) => assert!(msg.contains("past the end"), "{msg}"),
            other => panic!("a cursor past the trace end must be rejected, got {other:?}"),
        }
        // A cursor at the end is in bounds: the cell resumes and ends.
        snap.cursor = snap.trace_len;
        save_robust_checkpoint(&dir.join("cell-0.json"), &snap).unwrap();
        let report = run_blu_robust(&cap, &cfg).unwrap();
        assert_eq!(report.speculative_txops, snap.speculative_txops);
        std::fs::remove_dir_all(&dir).ok();
    }

    // ------------------------------------------------------------------
    // What an observer hears from the robust step.
    // ------------------------------------------------------------------

    /// Pins, step by step, the `on_stage` / `on_infer` /
    /// `on_state_change` / `on_stream` events a robust step emits, for
    /// a phased run through drift, a streaming run with refines,
    /// trace-exhausting halts in both arms, and a shed PF step.
    #[test]
    fn observer_event_sequences_are_pinned() {
        use crate::engine::{
            CellGeometry, EngineArena, StageKind, StreamEvent, SubframeObserver, SubframeView,
        };

        /// One step's events, decoded sub-frames folded into a count.
        #[derive(Default)]
        struct Recorder {
            events: Vec<String>,
            subframes: u64,
        }

        impl Recorder {
            fn flush(&mut self) {
                if self.subframes > 0 {
                    self.events.push(format!("subframes {}", self.subframes));
                    self.subframes = 0;
                }
            }

            fn line(mut self, more: bool) -> String {
                self.flush();
                format!("{} | more {more}", self.events.join(", "))
            }
        }

        impl SubframeObserver for Recorder {
            fn on_stage(&mut self, kind: StageKind) {
                self.flush();
                self.events.push(format!("stage {kind:?}"));
            }
            fn on_subframe(&mut self, _view: &SubframeView<'_>) {
                self.subframes += 1;
            }
            fn on_infer(&mut self, verdict: InferenceVerdict, completed: bool) {
                self.flush();
                self.events.push(format!("infer {verdict:?} {completed}"));
            }
            fn on_state_change(&mut self, at_subframe: u64, state: OrchestratorState) {
                self.flush();
                self.events.push(format!("state {state} @{at_subframe}"));
            }
            fn on_stream(&mut self, event: StreamEvent) {
                self.flush();
                self.events.push(format!("stream {event:?}"));
            }
        }

        /// Step to the end of the trace, one line per step.
        fn record(cap: &FaultyCapture, cfg: &RobustConfig) -> (Vec<String>, RobustSnapshot) {
            let (geom, mut snap) = start_cell(cap, cfg).unwrap();
            let mut arena = EngineArena::new();
            let mut lines = Vec::new();
            loop {
                let mut rec = Recorder::default();
                let more =
                    step_cell_with(cap, cfg, &geom, &mut snap, &mut arena, &mut rec).unwrap();
                lines.push(rec.line(more));
                if !more {
                    return (lines, snap);
                }
            }
        }

        fn fnv(lines: &[String]) -> u64 {
            lines
                .iter()
                .flat_map(|l| l.bytes().chain([b'\n']))
                .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
                })
        }

        let cap = capture(step_change_script(), 90, 12);

        // Phased: Measuring → Confident → Drifting → Remeasuring.
        let phased_cfg = quick_config();
        let (phased, end) = record(&cap, &phased_cfg);
        let visited: Vec<_> = end.transitions.iter().map(|t| t.state).collect();
        let drift = visited
            .iter()
            .position(|s| *s == OrchestratorState::Drifting)
            .expect("the step change must trip the drift gate");
        assert_eq!(
            visited[..2],
            [OrchestratorState::Measuring, OrchestratorState::Confident]
        );
        assert_eq!(visited[drift + 1], OrchestratorState::Remeasuring);
        assert!(phased[0].starts_with("stage Measure, stage Infer, infer "));
        assert!(phased[1].starts_with("stage Generate, stage Schedule, stage Transmit, subframes "));
        // The last step finds no room for a segment: it announces
        // Generate and Schedule, then halts.
        assert_eq!(
            phased.last().unwrap(),
            "stage Generate, stage Schedule | more false"
        );

        // Streaming: refines announce Infer after the segment.
        let mut stream_cfg = quick_config();
        stream_cfg.streaming = Some(StreamingConfig::new(1_000));
        let (streamed, _) = record(&cap, &stream_cfg);
        assert!(streamed
            .iter()
            .any(|l| l.contains("stage Infer, infer ") && l.contains("stream Refine")));

        // Halts: a measurement plan that overruns the trace, and a
        // Fallback segment with no room; a done cell emits nothing.
        let geom = CellGeometry::derive(&cap.trace, &phased_cfg.blu.emulation);
        let mut arena = EngineArena::new();
        let mut halts = Vec::new();
        for state in [OrchestratorState::Remeasuring, OrchestratorState::Fallback] {
            let (_, mut snap) = start_cell(&cap, &phased_cfg).unwrap();
            snap.state = state;
            snap.cursor = geom.trace_len - 1;
            for _ in 0..2 {
                let mut rec = Recorder::default();
                let more =
                    step_cell_with(&cap, &phased_cfg, &geom, &mut snap, &mut arena, &mut rec)
                        .unwrap();
                halts.push(rec.line(more));
            }
            assert!(snap.done);
        }
        assert_eq!(
            halts,
            [
                "stage Measure | more false",
                " | more false",
                "stage Generate, stage Schedule | more false",
                " | more false",
            ]
        );

        // Shed: a Confident cell with a blueprint in force drains one
        // PF segment; the step takes no observer and moves no state.
        let (_, mut snap) = start_cell(&cap, &phased_cfg).unwrap();
        assert!(run_steps(&cap, &phased_cfg, &mut snap, 1));
        assert_eq!(snap.state, OrchestratorState::Confident);
        let before = snap.clone();
        assert!(step_cell_shed(&cap, &phased_cfg, &mut snap, &mut arena).unwrap());
        assert_eq!(snap.transitions, before.transitions);
        assert_eq!(snap.verdicts, before.verdicts);
        assert_eq!(snap.speculative_txops, before.speculative_txops);
        assert_eq!(
            (
                snap.cursor - before.cursor,
                snap.fallback_txops - before.fallback_txops
            ),
            (CHECK_INTERVAL_TXOPS * geom.per_txop, CHECK_INTERVAL_TXOPS)
        );

        // Every step's record, pinned whole.
        assert_eq!(
            [
                (phased.len(), fnv(&phased)),
                (streamed.len(), fnv(&streamed))
            ],
            [(908, 0x7c2f_38f7_6b46_7953), (902, 0x7ab2_bc28_c61b_63a4)]
        );
    }

    // ------------------------------------------------------------------
    // Streaming online inference under churn.
    // ------------------------------------------------------------------

    pub(crate) fn step_change_script() -> FaultScript {
        FaultScript::new(vec![FaultEvent {
            at_subframe: 20_000,
            kind: FaultKind::HtAppear {
                q: 0.6,
                edges: ClientSet::from_iter([0, 1, 2, 3]),
            },
        }])
    }

    fn initial_measure_subframes(cfg: &RobustConfig, n: usize) -> u64 {
        measurement_schedule(
            n,
            cfg.blu.emulation.cell.max_ues_per_subframe,
            cfg.blu.t_samples,
        )
        .unwrap()
        .t_max()
    }

    #[test]
    fn streaming_absorbs_step_change_within_half_the_remeasure_budget() {
        let cap = capture(step_change_script(), 90, 12);
        let phased_cfg = quick_config();
        let phased = run_blu_robust(&cap, &phased_cfg).unwrap();
        assert!(
            phased.n_remeasurements >= 1,
            "baseline must pay a full re-measurement for the step change"
        );

        let mut stream_cfg = quick_config();
        stream_cfg.streaming = Some(StreamingConfig::new(1_000));
        let streamed = run_blu_robust(&cap, &stream_cfg).unwrap();
        assert!(streamed.stream_refines > 0, "no incremental refines ran");
        assert!(
            streamed.stream_refines_installed > 0,
            "no refined blueprint ever passed the gate"
        );

        // The acceptance criterion: recovery at least as good as the
        // phased loop's, at no more than half its re-measurement
        // sub-frame budget.
        let n = cap.trace.ground_truth.n_clients;
        let initial = initial_measure_subframes(&phased_cfg, n);
        let phased_extra = phased.measurement_subframes - initial;
        let stream_extra = streamed.measurement_subframes - initial;
        assert!(phased_extra > 0);
        assert!(
            stream_extra * 2 <= phased_extra,
            "streaming re-measured {stream_extra} sub-frames vs phased {phased_extra}"
        );
        assert!(
            streamed.effective_throughput_mbps() >= phased.effective_throughput_mbps(),
            "streaming recovery ({}) fell below the phased loop ({})",
            streamed.effective_throughput_mbps(),
            phased.effective_throughput_mbps()
        );
    }

    #[test]
    fn streaming_is_deterministic_and_resumes_bit_identically() {
        let cap = capture(step_change_script(), 90, 12);
        let mut cfg = quick_config();
        cfg.streaming = Some(StreamingConfig::new(1_000));

        let full_report = run_blu_robust(&cap, &cfg).unwrap();

        // Kill mid-run, persist (the stream state — ring included —
        // rides the checkpoint), resume, and finish identically.
        let (_, mut first) = start_cell(&cap, &cfg).unwrap();
        assert!(run_steps(&cap, &cfg, &mut first, 6));
        assert!(
            first.stream.is_some(),
            "streaming run must materialize stream state"
        );
        let dir = std::env::temp_dir().join(format!("blu-ckpt-stream-{}", std::process::id()));
        let path = dir.join("cell-0.json");
        save_robust_checkpoint(&path, &first).unwrap();
        drop(first);
        let resumed_report = resume_from(&cap, &cfg, &dir);
        std::fs::remove_dir_all(&dir).ok();

        assert_reports_identical(&full_report, &resumed_report);
    }

    /// A 90 s capture under Poisson UE/HT churn from sub-frame 20,000.
    pub(crate) fn churn_capture() -> FaultyCapture {
        use blu_sim::churn::{generate_churn, ChurnConfig};
        let cap_cfg = CaptureConfig {
            duration: Micros::from_secs(90),
            q_range: (0.25, 0.55),
            ..CaptureConfig::testbed_default()
        };
        let churn = ChurnConfig::with_total_rate(cap_cfg.n_ues, 60_000, 0.2);
        let events = generate_churn(&churn, cap_cfg.n_hts, 0xC0FF).unwrap();
        assert!(!events.is_empty(), "expected churn events at this rate");
        let script = compile_churn_script(&events, 20_000).unwrap();
        capture_with_faults(&cap_cfg, &script, 12).unwrap()
    }

    /// [`quick_config`] with a 1,000-sub-frame streaming window.
    pub(crate) fn streaming_config() -> RobustConfig {
        let mut cfg = quick_config();
        cfg.streaming = Some(StreamingConfig::new(1_000));
        cfg
    }

    #[test]
    fn streaming_run_under_poisson_churn_applies_events() {
        let report = run_blu_robust(&churn_capture(), &streaming_config()).unwrap();
        assert!(
            report.stream_churn_events > 0,
            "segments crossed no churn events"
        );
        assert!(report.stream_refines > 0);
        assert!(report.stream_window_occupancy > 0);
        assert!(report.metrics.bits_delivered > 0.0);
    }

    #[test]
    fn streaming_fleet_cache_is_transparent_under_churn() {
        let cap = churn_capture();
        let plain = streaming_config();
        let mut cached = plain.clone();
        cached.fleet_cache = Some(std::sync::Arc::new(
            crate::blueprint::FleetBlueprintCache::new(
                crate::blueprint::DEFAULT_FLEET_CACHE_CAPACITY,
            ),
        ));
        let a = run_blu_robust(&cap, &plain).unwrap();
        let b = run_blu_robust(&cap, &cached).unwrap();
        assert_reports_identical(&a, &b);
    }

    /// Satellite regression: the cache signature is recomputed from
    /// the books actually being solved, so a lookup after churn has
    /// mutated the statistics can never hit the pre-churn entry.
    #[test]
    fn post_churn_cache_lookup_cannot_return_pre_churn_blueprint() {
        use crate::blueprint::{
            ConstraintSystem, FleetBlueprintCache, InferenceConfig, TopologySignature,
        };
        use blu_traces::stats::EmpiricalAccess;

        let n = 4;
        let mut stats = EmpiricalAccess::new(n);
        let all = ClientSet::all(n);
        for _ in 0..200 {
            stats.record(all, ClientSet::from_iter([0, 1, 2]));
            stats.record(all, all);
        }
        let pre = ConstraintSystem::from_measurements(&stats);

        // Churn: a terminal appears and client 3 starts losing access.
        for _ in 0..200 {
            stats.record(all, ClientSet::from_iter([0, 1]));
        }
        let post = ConstraintSystem::from_measurements(&stats);

        let icfg = InferenceConfig::default();
        let backend = InferenceBackend::Gradient;
        let sig_pre = TopologySignature::new(&pre, &icfg, &backend);
        let sig_post = TopologySignature::new(&post, &icfg, &backend);
        assert_ne!(
            sig_pre.key(),
            sig_post.key(),
            "churn-mutated books must re-sign"
        );

        let cache = FleetBlueprintCache::new(8);
        let (_, _) = cache.get_or_solve(&sig_pre, || backend.infer(&pre, &icfg));
        let (_, _) = cache.get_or_solve(&sig_post, || backend.infer(&post, &icfg));
        let stats = cache.stats();
        assert_eq!(
            stats.hits, 0,
            "post-churn lookup must miss the pre-churn entry"
        );
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn streaming_window_is_bounded() {
        assert!(StreamingConfig::new(2_000).validate().is_ok());
        assert!(StreamingConfig::new(MAX_STREAM_WINDOW).validate().is_ok());
        for window in [MAX_STREAM_WINDOW + 1, 1 << 40, usize::MAX] {
            assert!(
                matches!(
                    StreamingConfig::new(window).validate(),
                    Err(BluError::InvalidConfig(_))
                ),
                "window {window} must be refused"
            );
        }
    }

    // ------------------------------------------------------------------
    // Checked churn-offset compilation (relative → absolute time).
    // ------------------------------------------------------------------

    #[test]
    fn churn_offsets_compile_with_checked_arithmetic() {
        use blu_sim::churn::TopologyEvent;
        let ev = |offset| TopologyEvent {
            offset_subframes: offset,
            kind: FaultKind::QDrift { ht: 0, q: 0.5 },
        };

        // u32::MAX-adjacent boundaries stay exact in u64 space.
        let start = u64::from(u32::MAX);
        let script = compile_churn_script(&[ev(u64::from(u32::MAX))], start).unwrap();
        assert_eq!(script.events[0].at_subframe, 2 * start);
        let script = compile_churn_script(&[ev(0)], start + 1).unwrap();
        assert_eq!(script.events[0].at_subframe, start + 1);

        // The exact u64 ceiling is representable...
        let script = compile_churn_script(&[ev(u64::MAX - 5)], 5).unwrap();
        assert_eq!(script.events[0].at_subframe, u64::MAX);
        // ...and one past it is a typed overflow, not a wrap.
        match compile_churn_script(&[ev(u64::MAX - 5)], 6) {
            Err(BluError::Overflow { what }) => assert!(what.contains("churn")),
            other => panic!("expected Overflow, got {other:?}"),
        }
    }

    // ------------------------------------------------------------------
    // Checkpoint format stability.
    // ------------------------------------------------------------------

    /// A deterministic snapshot: the fresh pre-step state contains no
    /// wall-clock fields, so its serialization is a pure function of
    /// the capture and config.
    fn fresh_snapshot() -> RobustSnapshot {
        let cap = capture(FaultScript::none(), 60, 60);
        let cfg = quick_config();
        start_cell(&cap, &cfg).unwrap().1
    }

    #[test]
    fn checkpoint_round_trips_through_disk() {
        let snap = fresh_snapshot();
        let dir = std::env::temp_dir().join(format!("blu-ckpt-rt-{}", std::process::id()));
        let path = dir.join("cell-0.json");
        save_robust_checkpoint(&path, &snap).unwrap();
        let thawed = load_robust_checkpoint(&path).unwrap();
        assert_eq!(thawed, snap);
        // A second save over the same path must stay atomic-valid.
        save_robust_checkpoint(&path, &thawed).unwrap();
        assert_eq!(load_robust_checkpoint(&path).unwrap(), snap);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Golden-file pin: the v1 on-disk schema. If this test fails the
    /// format changed — bump [`CHECKPOINT_VERSION`] (and regenerate
    /// the golden file with `BLU_REGEN_GOLDEN=1 cargo test -p
    /// blu-core checkpoint_golden`) rather than silently breaking old
    /// snapshots. The engine extraction renamed the Rust type to
    /// `CellSnapshot`; serde encodes field names only, so the v1
    /// bytes are untouched — which is exactly what this pin proves.
    #[test]
    fn checkpoint_golden_file_round_trips() {
        let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/checkpoint_v1.json");
        if std::env::var_os("BLU_REGEN_GOLDEN").is_some() {
            let doc = RobustCheckpoint {
                version: CHECKPOINT_VERSION,
                snapshot: fresh_snapshot(),
            };
            let json = serde_json::to_string_pretty(&doc).unwrap();
            std::fs::create_dir_all(std::path::Path::new(golden_path).parent().unwrap()).unwrap();
            std::fs::write(golden_path, json + "\n").unwrap();
        }
        let golden = &std::fs::read_to_string(golden_path).unwrap();
        let snap: RobustSnapshot = {
            let doc: RobustCheckpoint = serde_json::from_str(golden).unwrap();
            assert_eq!(doc.version, CHECKPOINT_VERSION);
            doc.snapshot
        };
        assert_eq!(snap, fresh_snapshot(), "golden snapshot drifted");
        // Re-serializing reproduces the golden bytes exactly.
        let doc = RobustCheckpoint {
            version: CHECKPOINT_VERSION,
            snapshot: snap,
        };
        assert_eq!(
            serde_json::to_string_pretty(&doc).unwrap().trim_end(),
            golden.trim_end(),
            "serialization of the v1 schema changed"
        );
        // So does the borrowing envelope `save_robust_checkpoint`
        // writes.
        assert_eq!(
            serde_json::to_string_pretty(&crate::runtime::checkpoint::CheckpointRef(&doc.snapshot))
                .unwrap()
                .trim_end(),
            golden.trim_end(),
            "the saved envelope diverged from the v1 schema"
        );
    }

    #[test]
    fn version_mismatch_is_rejected_before_decode() {
        let snap = fresh_snapshot();
        let dir = std::env::temp_dir().join(format!("blu-ckpt-ver-{}", std::process::id()));
        let path = dir.join("cell-0.json");
        save_robust_checkpoint(&path, &snap).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let bumped = text.replacen(
            &format!("\"version\": {CHECKPOINT_VERSION}"),
            "\"version\": 999",
            1,
        );
        assert_ne!(text, bumped, "version field must be present to tamper");
        std::fs::write(&path, bumped).unwrap();
        match load_robust_checkpoint(&path) {
            Err(BluError::CheckpointVersion { found, expected }) => {
                assert_eq!(found, 999);
                assert_eq!(expected, CHECKPOINT_VERSION);
            }
            other => panic!("expected CheckpointVersion, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_snapshot_is_a_typed_error_and_tmp_is_ignored() {
        let snap = fresh_snapshot();
        let dir = std::env::temp_dir().join(format!("blu-ckpt-torn-{}", std::process::id()));
        let path = dir.join("cell-0.json");
        save_robust_checkpoint(&path, &snap).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();

        // A crash mid-write under the atomic protocol leaves a torn
        // `.tmp` sibling and the previous complete checkpoint intact.
        std::fs::write(path.with_extension("tmp"), &text[..text.len() / 2]).unwrap();
        assert_eq!(load_robust_checkpoint(&path).unwrap(), snap);

        // A genuinely torn target file (pre-atomic-write crash, disk
        // corruption) must surface as a typed error, not a panic.
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        match load_robust_checkpoint(&path) {
            Err(BluError::Checkpoint(_)) => {}
            other => panic!("expected Checkpoint error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
