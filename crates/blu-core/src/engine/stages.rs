//! The typed stage pipeline: measure → infer → generate → schedule →
//! transmit.
//!
//! Each [`Stage`] reads and writes the shared
//! [`CellContext`]; [`run_pipeline`] drives an ordered slice of
//! stages, announcing each one to the observer and stopping early
//! when a stage [`Halt`](StageFlow::Halt)s (trace exhausted). The
//! **stage ordering contract** is structural: [`StageKind`] derives
//! `Ord` in pipeline order and `run_pipeline` asserts that kinds
//! never decrease, so a composition that would run `Transmit` before
//! `Measure` is rejected at the first call, not silently tolerated.
//!
//! The stages carry *mechanism*; *policy* stays with the caller.
//! `run_blu` composes all five stages once over a fresh snapshot; the
//! robust driver composes `[Measure, Infer]` or `[Generate, Schedule,
//! Transmit]` per state-machine arm and keeps the drift/probation/
//! breaker decisions for itself.

use crate::blueprint::constraints::ConstraintSystem;
use crate::blueprint::fleetcache::FleetCacheEvent;
use crate::blueprint::infer::InferenceVerdict;
use crate::blueprint::InferenceResult;
use crate::engine::cell::{AccessMode, CellEngine};
use crate::engine::context::{
    CellContext, CellSnapshot, OrchestratorState, SchedulerSpec, SegmentPlan,
};
use crate::engine::observer::{StreamEvent, SubframeObserver, SubframeView};
use crate::error::BluError;
use crate::joint::TopologyAccess;
use crate::measure::{measurement_schedule, MeasurementPlan, OutcomeEstimator};
use crate::runtime::panic_message;
use crate::sched::{PfScheduler, SpeculativeScheduler};
use blu_sim::clientset::ClientSet;
use blu_sim::faults::{FaultScript, ObservationChannel};
use blu_sim::time::SubframeIndex;
use blu_traces::schema::TestbedTrace;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The pipeline stages, in their one legal order (`Ord` derives the
/// ordering contract enforced by [`run_pipeline`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StageKind {
    /// Run an Algorithm-1 measurement plan against the trace.
    Measure,
    /// Blue-print a topology from the accumulated statistics.
    Infer,
    /// Decide which scheduler the blueprint (or its absence) earns.
    Generate,
    /// Pick the transmit segment's window within the trace.
    Schedule,
    /// Drive the [`CellEngine`] sub-frame loop over the segment.
    Transmit,
}

/// What a stage tells the pipeline to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageFlow {
    /// Proceed to the next stage.
    Continue,
    /// Stop the pipeline (the trace is exhausted; `snap.done` is
    /// set by the halting stage).
    Halt,
}

/// One typed step of the cell pipeline.
pub trait Stage {
    /// Where this stage sits in the ordering contract.
    fn kind(&self) -> StageKind;
    /// Execute against the shared context.
    fn run(
        &mut self,
        ctx: &mut CellContext<'_, '_>,
        observer: &mut dyn SubframeObserver,
    ) -> Result<StageFlow, BluError>;
}

/// Drive an ordered stage composition over a context. A composition
/// whose stages are not in non-decreasing [`StageKind`] order is
/// rejected with [`BluError::StageInvariant`] at the first offending
/// stage — a typed error rather than a panic, so a fleet running many
/// compositions degrades per cell instead of aborting the join.
pub fn run_pipeline(
    ctx: &mut CellContext<'_, '_>,
    stages: &mut [&mut dyn Stage],
    observer: &mut dyn SubframeObserver,
) -> Result<StageFlow, BluError> {
    let mut prev: Option<StageKind> = None;
    for stage in stages.iter_mut() {
        let kind = stage.kind();
        if let Some(p) = prev {
            if kind < p {
                return Err(BluError::StageInvariant(format!(
                    "stage pipeline out of order: {kind:?} cannot follow {p:?}"
                )));
            }
        }
        prev = Some(kind);
        observer.on_stage(kind);
        if stage.run(ctx, observer)? == StageFlow::Halt {
            return Ok(StageFlow::Halt);
        }
    }
    Ok(StageFlow::Continue)
}

/// Execute one measurement plan against the trace starting at
/// sub-frame `start`, feeding the estimator. With `channel` set, each
/// sub-frame's outcome passes through the observation-fault channel
/// first (misclassification/drops per the script); without it the
/// outcome is recorded directly. This is the **only** measurement
/// loop in the workspace — `run_measurement_phase` and
/// [`MeasureStage`] both execute through it.
pub(crate) fn run_measure_plan(
    trace: &TestbedTrace,
    plan: &MeasurementPlan,
    start: u64,
    est: &mut OutcomeEstimator,
    mut channel: Option<(&mut ObservationChannel, &FaultScript)>,
) {
    for (i, &scheduled) in plan.subframes.iter().enumerate() {
        let sf = start + i as u64;
        let accessible = trace.access.at(SubframeIndex(sf));
        match channel.as_mut() {
            Some((chan, script)) => {
                let obs_state = script.obs_state_at(sf);
                if let Some((obs, acc)) =
                    chan.corrupt(obs_state, scheduled, accessible.intersection(scheduled))
                {
                    est.stats_mut().record(obs, acc);
                }
            }
            None => {
                est.stats_mut()
                    .record(scheduled, accessible.intersection(scheduled));
            }
        }
    }
}

/// How [`MeasureStage`] reacts when the plan does not fit in the
/// remaining trace, and whether outcomes pass the fault channel.
#[derive(Debug, Clone, Copy)]
pub enum MeasureFidelity {
    /// Clean observation path; a plan that overruns the trace is a
    /// typed [`BluError::TraceTooShort`] (the vanilla orchestrator's
    /// contract — wrapped measurement would bias the statistics).
    Strict {
        /// Context string for the error ("measurement phase", …).
        what: &'static str,
    },
    /// Outcomes pass the scripted observation-fault channel; an
    /// overrunning plan simply ends the run (`done`) — there is no
    /// more air to measure anyway.
    FaultChannel,
}

/// Run an Algorithm-1 plan at the snapshot cursor and advance it.
#[derive(Debug, Clone, Copy)]
pub struct MeasureStage {
    /// Samples per client pair (`T`).
    pub t_samples: u64,
    /// Overflow/fault-channel behaviour.
    pub fidelity: MeasureFidelity,
}

impl Stage for MeasureStage {
    fn kind(&self) -> StageKind {
        StageKind::Measure
    }

    fn run(
        &mut self,
        ctx: &mut CellContext<'_, '_>,
        _observer: &mut dyn SubframeObserver,
    ) -> Result<StageFlow, BluError> {
        let plan = measurement_schedule(ctx.geom.n, ctx.geom.k_max, self.t_samples)?;
        if ctx.snap.cursor + plan.t_max() > ctx.geom.trace_len {
            match self.fidelity {
                MeasureFidelity::Strict { what } => {
                    return Err(BluError::TraceTooShort {
                        what,
                        needed: plan.t_max(),
                        available: ctx.geom.trace_len,
                    });
                }
                MeasureFidelity::FaultChannel => {
                    ctx.snap.done = true;
                    return Ok(StageFlow::Halt);
                }
            }
        }
        let cursor = ctx.snap.cursor;
        let CellSnapshot {
            ref mut est,
            ref mut chan,
            ..
        } = *ctx.snap;
        let channel = match self.fidelity {
            MeasureFidelity::Strict { .. } => None,
            MeasureFidelity::FaultChannel => {
                let script = ctx.script.ok_or_else(|| {
                    BluError::StageInvariant(
                        "fault-channel measurement requires a fault script".into(),
                    )
                })?;
                Some((chan, script))
            }
        };
        run_measure_plan(ctx.trace, &plan, cursor, est, channel);
        ctx.snap.cursor += plan.t_max();
        ctx.snap.measurement_subframes += plan.t_max();
        Ok(StageFlow::Continue)
    }
}

/// Run `f` on the solver scratch of the cell's arena, so every solve
/// and refine of the cell recycles one set of buffers; without an
/// arena (a self-contained context) `f` gets empty buffers. Results
/// are identical either way.
fn with_infer_scratch<R>(
    arena: Option<&mut super::hot::EngineArena>,
    f: impl FnOnce(&mut crate::blueprint::InferScratch) -> R,
) -> R {
    match arena {
        Some(arena) => f(&mut arena.infer),
        None => f(&mut crate::blueprint::InferScratch::default()),
    }
}

/// Verdict gating for [`InferStage`]: confidence floor and the
/// fallback probation a failed inference earns.
#[derive(Debug, Clone, Copy)]
pub struct InferGate {
    /// Minimum blueprint confidence (`1 − residual fraction`) to
    /// speculate on.
    pub confidence_floor: f64,
    /// TxOPs of PF fallback a failed inference sentences the cell to.
    pub fallback_probation_txops: u64,
}

/// Blue-print a topology from the snapshot's accumulated statistics.
///
/// Ungated (`gate: None`), the stage runs the backend directly on the
/// measured constraint system and installs the result as the
/// blueprint — the vanilla orchestrator's unconditional path. Gated,
/// it runs under the full resilience guards (scripted poisoning +
/// quarantine, stall repetition, panic containment, breaker
/// bookkeeping) and routes the verdict into
/// Confident/Fallback exactly as the robust loop always has. Both
/// arms solve through [`InferenceBackend::solve`] on the cell arena's
/// scratch, consulting the context's fleet cache when one is attached.
///
/// [`InferenceBackend::solve`]: crate::blueprint::InferenceBackend::solve
#[derive(Debug, Clone, Copy)]
pub struct InferStage {
    /// `Some` enables verdict gating + the resilience guards.
    pub gate: Option<InferGate>,
}

impl InferStage {
    /// Run inference under the resilience guards: scripted poisoning
    /// is injected and quarantined, scripted stalls repeat the solve,
    /// and a panic (scripted or genuine) is contained at this
    /// boundary.
    fn guarded_blueprint(
        &self,
        ctx: &mut CellContext<'_, '_>,
    ) -> Result<(InferenceResult, Vec<FleetCacheEvent>), BluError> {
        let rt = ctx
            .script
            .map(|s| s.runtime_state_at(ctx.snap.cursor))
            .unwrap_or_default();
        let mut sys = ConstraintSystem::from_measurements(ctx.snap.est.stats());
        if rt.poison_rate > 0.0 {
            for t in sys.individual.iter_mut().chain(sys.pair.iter_mut()) {
                if ctx.snap.poison_rng.chance(rt.poison_rate) {
                    *t = f64::NAN;
                }
            }
            for tr in sys.triples.iter_mut() {
                if ctx.snap.poison_rng.chance(rt.poison_rate) {
                    tr.target = f64::NAN;
                }
            }
        }
        ctx.snap.quarantined_constraints += sys.sanitize() as u64;

        let reps = rt.stall_factor.max(1);
        let inject_panic = rt.panic;
        let backend = ctx.backend;
        let icfg = ctx.inference;
        let cache = ctx.fleet_cache;
        let t0 = std::time::Instant::now();
        let outcome = with_infer_scratch(ctx.arena.as_deref_mut(), |scratch| {
            catch_unwind(AssertUnwindSafe(|| {
                if inject_panic {
                    panic!("injected inference panic");
                }
                // The signature is recomputed at every solve from the
                // sanitized system actually being solved — never
                // captured once and reused — so a lookup after
                // churn-mutated statistics can only key on the
                // post-churn books. (Poisoned-then-quarantined cells
                // likewise key on what the solver saw.)
                let mut events = Vec::new();
                let (mut result, event) = backend.solve(&sys, icfg, scratch, cache);
                events.extend(event);
                // A scripted stall models a slow solver by repeating
                // the (deterministic) solve; the last result is
                // returned. Under the cache the repeats are hits on
                // the entry the first solve just published — same
                // result, no extra work.
                for _ in 1..reps {
                    let (again, event) = backend.solve(&sys, icfg, scratch, cache);
                    result = again;
                    events.extend(event);
                }
                (result, events)
            }))
            .map_err(|p| BluError::Panicked(panic_message(p.as_ref())))
        });
        ctx.snap.inference_micros += t0.elapsed().as_micros() as u64;
        outcome
    }
}

impl Stage for InferStage {
    fn kind(&self) -> StageKind {
        StageKind::Infer
    }

    fn run(
        &mut self,
        ctx: &mut CellContext<'_, '_>,
        observer: &mut dyn SubframeObserver,
    ) -> Result<StageFlow, BluError> {
        let Some(gate) = self.gate else {
            // Unconditional path: the measured constraint system goes
            // straight to the backend and the result is the blueprint.
            let sys = ConstraintSystem::from_measurements(ctx.snap.est.stats());
            let (backend, icfg, cache) = (ctx.backend, ctx.inference, ctx.fleet_cache);
            let (result, event) = with_infer_scratch(ctx.arena.as_deref_mut(), |scratch| {
                backend.solve(&sys, icfg, scratch, cache)
            });
            if let Some(event) = event {
                observer.on_fleet_cache(event);
            }
            observer.on_infer(result.verdict, result.completed);
            ctx.snap.blueprint = Some(result);
            return Ok(StageFlow::Continue);
        };
        let usable = match self.guarded_blueprint(ctx) {
            Ok((result, cache_events)) => {
                for event in cache_events {
                    observer.on_fleet_cache(event);
                }
                if !result.completed {
                    ctx.snap.deadline_misses += 1;
                }
                observer.on_infer(result.verdict, result.completed);
                ctx.snap.verdicts.push(result.verdict);
                (result.verdict != InferenceVerdict::Degraded
                    && result.confidence() >= gate.confidence_floor)
                    .then_some(result)
            }
            Err(e) => {
                if matches!(e, BluError::Panicked(_)) {
                    ctx.snap.inference_panics += 1;
                }
                observer.on_infer(InferenceVerdict::Degraded, false);
                ctx.snap.verdicts.push(InferenceVerdict::Degraded);
                None
            }
        };
        if usable.is_some() {
            ctx.snap.breaker.record_success(ctx.snap.cursor);
            ctx.snap.drift.reset();
            ctx.snap.enter(OrchestratorState::Confident);
        } else {
            ctx.snap.breaker.record_failure(ctx.snap.cursor);
            ctx.snap.probation_left = gate.fallback_probation_txops;
            ctx.snap.enter(OrchestratorState::Fallback);
        }
        ctx.snap.blueprint = usable;
        observer.on_state_change(ctx.snap.cursor, ctx.snap.state);
        Ok(StageFlow::Continue)
    }
}

/// Incremental streaming inference: fold the sliding observation
/// window's counters into a warm-started repair of the blueprint in
/// force, between transmit segments, under a bounded step deadline.
///
/// This is the streaming half of the split [`InferStage`]: where the
/// full stage re-measures and solves from scratch (§3.7), this stage
/// reads only the snapshot's [`StreamState`] window — whose counters
/// drift with ground truth as observations age out — and runs a
/// single budgeted repair seeded from the current blueprint. A
/// refined blueprint that passes the confidence gate replaces the one
/// in force and resets the drift monitor; one that fails the gate is
/// discarded and the cell keeps serving the old blueprint, leaving
/// the drift monitor armed as the full-re-measurement fallback. The
/// stage never consults the fleet cache (warm starts are cell-local)
/// and never moves the state machine — streaming refines happen
/// *inside* Confident.
///
/// [`StreamState`]: crate::engine::context::StreamState
#[derive(Debug, Clone, Copy)]
pub struct StreamInferStage {
    /// Confidence floor a refined blueprint must clear to install
    /// (same semantics as [`InferGate::confidence_floor`]).
    pub confidence_floor: f64,
    /// Step budget for the incremental repair (the PR 4 anytime
    /// deadline, in solver steps).
    pub refine_deadline_steps: u64,
}

impl Stage for StreamInferStage {
    fn kind(&self) -> StageKind {
        StageKind::Infer
    }

    fn run(
        &mut self,
        ctx: &mut CellContext<'_, '_>,
        observer: &mut dyn SubframeObserver,
    ) -> Result<StageFlow, BluError> {
        let Some(stream) = ctx.snap.stream.as_ref() else {
            return Err(BluError::StageInvariant(
                "streaming infer requires stream state in the snapshot".into(),
            ));
        };
        if stream.window.is_empty() {
            return Ok(StageFlow::Continue);
        }
        let mut sys = ConstraintSystem::from_measurements(stream.window.stats());
        ctx.snap.quarantined_constraints += sys.sanitize() as u64;
        let start = match &ctx.snap.blueprint {
            Some(result) => {
                crate::blueprint::constraints::TransformedTopology::from_topology(&result.topology)
            }
            None => Default::default(),
        };
        let cfg = crate::blueprint::InferenceConfig {
            deadline: crate::runtime::deadline::Deadline::Steps(self.refine_deadline_steps.max(1)),
            ..*ctx.inference
        };
        let backend = ctx.backend;
        let t0 = std::time::Instant::now();
        let outcome = with_infer_scratch(ctx.arena.as_deref_mut(), |scratch| {
            catch_unwind(AssertUnwindSafe(|| {
                stream_refine(&sys, &cfg, start, backend, scratch)
            }))
        });
        ctx.snap.inference_micros += t0.elapsed().as_micros() as u64;
        let stream = ctx.snap.stream.as_mut().expect("checked above");
        stream.refines += 1;
        match outcome {
            Ok(result) => {
                if !result.completed {
                    ctx.snap.deadline_misses += 1;
                }
                observer.on_infer(result.verdict, result.completed);
                ctx.snap.verdicts.push(result.verdict);
                let installed = result.verdict != InferenceVerdict::Degraded
                    && result.confidence() >= self.confidence_floor;
                if installed {
                    stream.refines_installed += 1;
                    ctx.snap.blueprint = Some(result);
                    ctx.snap.drift.reset();
                }
                observer.on_stream(StreamEvent::Refine { installed });
            }
            Err(_) => {
                // A refine panic is contained at this boundary: the
                // cell keeps serving the blueprint in force and the
                // drift monitor stays armed.
                ctx.snap.inference_panics += 1;
                observer.on_infer(InferenceVerdict::Degraded, false);
                observer.on_stream(StreamEvent::Refine { installed: false });
            }
        }
        Ok(StageFlow::Continue)
    }
}

/// One streaming refine: a warm-started repair from the blueprint in
/// force; when it does not converge (a churn event moved the truth
/// out of the old blueprint's basin), the restart portfolio over the
/// same window statistics, keeping whichever violates less. Solver
/// time only — streaming never spends measurement sub-frames.
fn stream_refine(
    sys: &ConstraintSystem,
    cfg: &crate::blueprint::InferenceConfig,
    start: crate::blueprint::constraints::TransformedTopology,
    backend: &crate::blueprint::InferenceBackend,
    scratch: &mut crate::blueprint::InferScratch,
) -> InferenceResult {
    let mut result = crate::blueprint::infer::refine_topology_with(sys, cfg, start, scratch);
    if result.verdict != InferenceVerdict::Converged {
        let (full, _) = backend.solve(sys, cfg, scratch, None);
        if full.violation < result.violation {
            result = full;
        }
    }
    result
}

/// Decide the scheduler from the blueprint in force: a blueprint
/// earns speculation, its absence earns plain PF.
#[derive(Debug, Clone, Copy, Default)]
pub struct GenerateStage;

impl Stage for GenerateStage {
    fn kind(&self) -> StageKind {
        StageKind::Generate
    }

    fn run(
        &mut self,
        ctx: &mut CellContext<'_, '_>,
        _observer: &mut dyn SubframeObserver,
    ) -> Result<StageFlow, BluError> {
        ctx.spec = if ctx.snap.blueprint.is_some() {
            SchedulerSpec::Speculative
        } else {
            SchedulerSpec::Pf
        };
        Ok(StageFlow::Continue)
    }
}

/// How [`ScheduleStage`] windows the transmit segment.
#[derive(Debug, Clone, Copy)]
pub enum SchedulePolicy {
    /// One segment spanning the configured run
    /// (`emulation.n_txops` TxOPs from `emulation.start_subframe`) —
    /// the vanilla orchestrator's speculative phase.
    FullRun,
    /// Bounded segments from the snapshot cursor, clipped to the
    /// remaining trace; an empty window ends the run.
    Windowed {
        /// Segment length between drift checks.
        check_interval_txops: u64,
    },
}

/// Pick the transmit segment's window within the trace.
#[derive(Debug, Clone, Copy)]
pub struct ScheduleStage {
    /// Windowing policy.
    pub policy: SchedulePolicy,
}

impl Stage for ScheduleStage {
    fn kind(&self) -> StageKind {
        StageKind::Schedule
    }

    fn run(
        &mut self,
        ctx: &mut CellContext<'_, '_>,
        _observer: &mut dyn SubframeObserver,
    ) -> Result<StageFlow, BluError> {
        ctx.segment = match self.policy {
            SchedulePolicy::FullRun => Some(SegmentPlan {
                txops: ctx.emulation.n_txops,
                start_subframe: ctx.emulation.start_subframe,
            }),
            SchedulePolicy::Windowed {
                check_interval_txops,
            } => {
                let room = (ctx.geom.trace_len - ctx.snap.cursor) / ctx.geom.per_txop;
                let txops = check_interval_txops.min(room);
                if txops == 0 {
                    ctx.snap.done = true;
                    return Ok(StageFlow::Halt);
                }
                Some(SegmentPlan {
                    txops,
                    start_subframe: ctx.snap.cursor,
                })
            }
        };
        Ok(StageFlow::Continue)
    }
}

/// What [`TransmitStage`] feeds per decoded sub-frame.
#[derive(Debug, Clone, Copy)]
pub enum TransmitFeed {
    /// Nothing — the segment report is the only output.
    None,
    /// Feed the snapshot's estimator directly with every sub-frame's
    /// pilot-classified observations (the vanilla orchestrator's warm
    /// phase-2 estimator, §3.7).
    Estimator,
    /// Feed estimator **and** drift monitor through the scripted
    /// observation-fault channel (the robust loop's per-subframe
    /// tap).
    FaultTap,
}

/// Drive the [`CellEngine`] over the planned segment with the chosen
/// scheduler, carrying PF state across segments and merging metrics
/// into the snapshot.
#[derive(Debug, Clone, Copy)]
pub struct TransmitStage {
    /// Per-subframe feeding mode.
    pub feed: TransmitFeed,
}

/// The robust loop's per-subframe fault tap, implemented as an
/// engine observer: every decoded UL sub-frame's true CCA outcome is
/// passed through the observation-fault channel, recorded into the
/// estimator, and — when a blueprint is in force — scored against its
/// predicted access probabilities by the drift monitor. Only UL
/// sub-frames are observable (the eNB transmits during DL), which is
/// exactly the set the engine reports.
struct DriftTap<'x> {
    trace: &'x TestbedTrace,
    script: &'x FaultScript,
    chan: &'x mut ObservationChannel,
    est: &'x mut OutcomeEstimator,
    drift: &'x mut crate::engine::context::DriftMonitor,
    blueprint: Option<&'x InferenceResult>,
    /// Streaming ingest: when the run carries stream state, every
    /// surviving observation is also admitted into the sliding
    /// window (retiring the oldest), so the streaming refine always
    /// sees the freshest bounded history.
    window: Option<&'x mut crate::blueprint::ObservationWindow>,
    n: usize,
    inner: &'x mut dyn SubframeObserver,
}

impl SubframeObserver for DriftTap<'_> {
    fn on_stage(&mut self, kind: StageKind) {
        self.inner.on_stage(kind);
    }

    fn on_txop_start(&mut self, txop: u64, grant_sf: SubframeIndex) {
        self.inner.on_txop_start(txop, grant_sf);
    }

    fn on_subframe(&mut self, view: &SubframeView<'_>) {
        let sf = view.sf.0;
        let accessible = self.trace.access.at(view.sf);
        let obs_state = self.script.obs_state_at(sf);
        let all = ClientSet::all(self.n);
        if let Some((obs, acc)) = self.chan.corrupt(obs_state, all, accessible) {
            self.est.stats_mut().record(obs, acc);
            if let Some(window) = self.window.as_mut() {
                window.admit(obs, acc);
            }
            if let Some(result) = self.blueprint {
                for ue in obs.iter() {
                    self.drift
                        .observe(ue, acc.contains(ue), result.topology.p_individual(ue));
                }
            }
        }
        self.inner.on_subframe(view);
    }

    fn on_infer(&mut self, verdict: InferenceVerdict, completed: bool) {
        self.inner.on_infer(verdict, completed);
    }

    fn on_fleet_cache(&mut self, event: crate::blueprint::fleetcache::FleetCacheEvent) {
        self.inner.on_fleet_cache(event);
    }

    fn on_state_change(&mut self, at_subframe: u64, state: OrchestratorState) {
        self.inner.on_state_change(at_subframe, state);
    }

    fn on_stream(&mut self, event: StreamEvent) {
        self.inner.on_stream(event);
    }
}

impl Stage for TransmitStage {
    fn kind(&self) -> StageKind {
        StageKind::Transmit
    }

    fn run(
        &mut self,
        ctx: &mut CellContext<'_, '_>,
        observer: &mut dyn SubframeObserver,
    ) -> Result<StageFlow, BluError> {
        let plan = ctx.segment.ok_or_else(|| {
            BluError::StageInvariant("schedule stage must plan a segment before transmit".into())
        })?;
        if ctx.spec == SchedulerSpec::Speculative && ctx.snap.blueprint.is_none() {
            return Err(BluError::StageInvariant(
                "speculative transmit requires a blueprint in force".into(),
            ));
        }
        let mut engine = CellEngine::with_config(ctx.trace, ctx.emulation)?
            .segment(plan.txops, plan.start_subframe);
        if let Some(arena) = ctx.arena.as_mut() {
            engine.adopt_arena(arena);
        }
        if let Some(avg) = &ctx.snap.pf_avg {
            engine.seed_pf_averages(avg);
        }
        let spec = ctx.spec;
        let report = {
            // Split borrows: the scheduler reads the blueprint while
            // the feed mutates estimator/channel/drift — disjoint
            // snapshot fields.
            let CellSnapshot {
                ref mut est,
                ref mut chan,
                ref mut drift,
                ref blueprint,
                ref mut stream,
                ..
            } = *ctx.snap;
            let run = |engine: &mut CellEngine<'_>,
                       estimator: Option<&mut OutcomeEstimator>,
                       observer: &mut dyn SubframeObserver| {
                match spec {
                    SchedulerSpec::Speculative => {
                        // Checked above: Speculative implies a blueprint.
                        let result = blueprint.as_ref().expect("checked before engine build");
                        let access = TopologyAccess::new(&result.topology);
                        let mut sched = SpeculativeScheduler::new(&access);
                        engine.run_segment(&mut sched, estimator, AccessMode::BackToBack, observer)
                    }
                    SchedulerSpec::Pf => engine.run_segment(
                        &mut PfScheduler,
                        estimator,
                        AccessMode::BackToBack,
                        observer,
                    ),
                }
            };
            match self.feed {
                TransmitFeed::None => run(&mut engine, None, observer),
                TransmitFeed::Estimator => run(&mut engine, Some(est), observer),
                TransmitFeed::FaultTap => {
                    let script = ctx.script.ok_or_else(|| {
                        BluError::StageInvariant(
                            "fault-tap transmit requires a fault script".into(),
                        )
                    })?;
                    let mut tap = DriftTap {
                        trace: ctx.trace,
                        script,
                        chan,
                        est,
                        drift,
                        blueprint: blueprint.as_ref(),
                        window: stream.as_mut().map(|s| &mut s.window),
                        n: ctx.geom.n,
                        inner: observer,
                    };
                    run(&mut engine, None, &mut tap)
                }
            }
        };
        if let Some(arena) = ctx.arena.as_mut() {
            engine.yield_arena(arena);
        }
        ctx.snap.pf_avg = Some(engine.pf_averages().to_vec());
        ctx.snap.metrics.merge(&report.metrics);
        ctx.snap.cursor += plan.txops * ctx.geom.per_txop;
        match spec {
            SchedulerSpec::Speculative => ctx.snap.speculative_txops += plan.txops,
            SchedulerSpec::Pf => ctx.snap.fallback_txops += plan.txops,
        }
        ctx.last_report = Some(report);
        Ok(StageFlow::Continue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blueprint::InferenceConfig;
    use crate::emulator::EmulationConfig;
    use crate::engine::CellSnapshot;
    use crate::runtime::breaker::BreakerConfig;
    use blu_phy::cell::CellConfig;
    use blu_sim::time::Micros;
    use blu_traces::capture::{capture_synthetic, CaptureConfig};
    use blu_traces::schema::TestbedTrace;

    #[test]
    fn stream_refine_is_bit_identical_with_a_reused_scratch() {
        use crate::blueprint::constraints::TransformedTopology;
        use crate::blueprint::{InferScratch, InferenceBackend};
        use crate::runtime::deadline::Deadline;
        use blu_sim::topology::{HiddenTerminal, InterferenceTopology};
        let topo = |n: usize, spec: &[(f64, &[usize])]| InterferenceTopology {
            n_clients: n,
            hts: spec
                .iter()
                .map(|&(q, edges)| HiddenTerminal {
                    q,
                    edges: edges.iter().copied().collect(),
                })
                .collect(),
        };
        // (blueprint in force, current truth) pairs of varying size,
        // so the reused buffers grow and shrink between refines, and
        // under a tight budget some refines fall back to the portfolio.
        let cases = [
            (
                topo(4, &[(0.4, &[0, 1]), (0.3, &[2])]),
                topo(4, &[(0.4, &[0, 1]), (0.55, &[2, 3])]),
            ),
            (
                topo(6, &[(0.2, &[0, 1, 2]), (0.5, &[3, 4]), (0.35, &[5])]),
                topo(6, &[(0.6, &[0, 5]), (0.25, &[1, 2, 3, 4])]),
            ),
            (topo(3, &[(0.5, &[0, 1, 2])]), topo(3, &[(0.5, &[0, 1, 2])])),
            (
                topo(5, &[]),
                topo(5, &[(0.3, &[0, 1]), (0.45, &[2, 3]), (0.6, &[4])]),
            ),
        ];
        let backend = InferenceBackend::default();
        let mut reused = InferScratch::default();
        let mut fallbacks = 0;
        for steps in [1, 200, 2] {
            let cfg = InferenceConfig {
                deadline: Deadline::Steps(steps),
                ..InferenceConfig::default()
            };
            for (in_force, truth) in &cases {
                let sys = ConstraintSystem::from_topology(truth);
                let start = TransformedTopology::from_topology(in_force);
                let warm = stream_refine(&sys, &cfg, start.clone(), &backend, &mut reused);
                let fresh =
                    stream_refine(&sys, &cfg, start, &backend, &mut InferScratch::default());
                assert_eq!(format!("{warm:?}"), format!("{fresh:?}"));
                fallbacks += usize::from(warm.restarts > 1);
            }
        }
        assert!(fallbacks > 0, "no refine fell back to the portfolio");
    }

    #[test]
    fn stage_kinds_order_matches_pipeline() {
        assert!(StageKind::Measure < StageKind::Infer);
        assert!(StageKind::Infer < StageKind::Generate);
        assert!(StageKind::Generate < StageKind::Schedule);
        assert!(StageKind::Schedule < StageKind::Transmit);
    }

    fn quick_trace() -> TestbedTrace {
        capture_synthetic(
            &CaptureConfig {
                duration: Micros::from_secs(10),
                ..CaptureConfig::testbed_default()
            },
            11,
        )
    }

    fn quick_ctx<'t, 's>(
        trace: &'t TestbedTrace,
        emulation: &'t EmulationConfig,
        inference: &'t InferenceConfig,
        backend: &'t crate::blueprint::InferenceBackend,
        snap: &'s mut CellSnapshot,
    ) -> CellContext<'t, 's> {
        CellContext::new(trace, None, emulation, inference, backend, snap)
    }

    #[test]
    fn out_of_order_composition_is_a_typed_error() {
        let trace = quick_trace();
        let emulation = EmulationConfig::new(CellConfig::testbed_siso());
        let inference = InferenceConfig::default();
        let backend = crate::blueprint::InferenceBackend::default();
        let mut snap = CellSnapshot::fresh(
            trace.ground_truth.n_clients,
            trace.access.len() as u64,
            0,
            0.0,
            BreakerConfig::default(),
        );
        let mut ctx = quick_ctx(&trace, &emulation, &inference, &backend, &mut snap);
        // Generate before Measure is out of order; the pipeline must
        // reject it as a value, not an abort.
        let mut generate = GenerateStage;
        let mut measure = MeasureStage {
            t_samples: 5,
            fidelity: MeasureFidelity::Strict { what: "test" },
        };
        let err = run_pipeline(
            &mut ctx,
            &mut [&mut generate, &mut measure],
            &mut crate::engine::NullObserver,
        )
        .expect_err("out-of-order composition must fail");
        assert!(
            matches!(&err, BluError::StageInvariant(msg) if msg.contains("out of order")),
            "{err:?}"
        );
    }

    #[test]
    fn transmit_without_planned_segment_is_a_typed_error() {
        let trace = quick_trace();
        let emulation = EmulationConfig::new(CellConfig::testbed_siso());
        let inference = InferenceConfig::default();
        let backend = crate::blueprint::InferenceBackend::default();
        let mut snap = CellSnapshot::fresh(
            trace.ground_truth.n_clients,
            trace.access.len() as u64,
            0,
            0.0,
            BreakerConfig::default(),
        );
        let mut ctx = quick_ctx(&trace, &emulation, &inference, &backend, &mut snap);
        let mut transmit = TransmitStage {
            feed: TransmitFeed::None,
        };
        let err = run_pipeline(
            &mut ctx,
            &mut [&mut transmit],
            &mut crate::engine::NullObserver,
        )
        .expect_err("transmit with no planned segment must fail");
        assert!(
            matches!(&err, BluError::StageInvariant(msg) if msg.contains("segment")),
            "{err:?}"
        );
    }
}
