//! The robust loop's steps as plain functions, and the vocabulary an
//! observer hears them by.
//!
//! The paper's Fig. 9 loop is a fixed sequence — measure → blue-print
//! → speculate, re-measuring when the drift monitor trips (§3.7) — so
//! it runs as direct calls. `orchestrator::run_blu` calls the
//! measurement phase, one solve and one engine segment. The robust
//! step (`robust::step_cell_with`) calls `measure` then `infer` in
//! the Measuring/Remeasuring arms, and `transmit` then, while
//! streaming, `refine` in the Confident/Fallback arms; a shed cell
//! runs `transmit` alone, told not to speculate. The functions
//! carry *mechanism*; the drift gate, probation and breaker policy
//! stay with the robust step.
//!
//! Each function announces its [`StageKind`]s to the observer before
//! it does any work, so an observer sees one event per stage, in
//! Fig. 9 order.

use crate::blueprint::constraints::{ConstraintSystem, TransformedTopology};
use crate::blueprint::fleetcache::FleetCacheEvent;
use crate::blueprint::infer::InferenceVerdict;
use crate::blueprint::{InferScratch, InferenceBackend, InferenceConfig, InferenceResult};
use crate::engine::cell::{AccessMode, CellEngine};
use crate::engine::context::{CellGeometry, CellSnapshot, DriftMonitor, OrchestratorState};
use crate::engine::hot::EngineArena;
use crate::engine::observer::{StreamEvent, SubframeObserver, SubframeView};
use crate::error::BluError;
use crate::joint::TopologyAccess;
use crate::measure::{measurement_schedule, MeasurementPlan, OutcomeEstimator};
use crate::robust::{
    RobustConfig, CHECK_INTERVAL_TXOPS, CONFIDENCE_FLOOR, FALLBACK_PROBATION_TXOPS,
};
use crate::runtime::deadline::Deadline;
use crate::runtime::panic_message;
use crate::sched::{PfScheduler, SpeculativeScheduler};
use blu_sim::clientset::ClientSet;
use blu_sim::faults::{FaultScript, ObservationChannel};
use blu_sim::time::SubframeIndex;
use blu_traces::faults::FaultyCapture;
use blu_traces::schema::TestbedTrace;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The steps of the Fig. 9 loop, in loop order: the names
/// [`SubframeObserver::on_stage`] reports them by.
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

/// Execute one measurement plan against the trace starting at
/// sub-frame `start`, feeding the estimator. With `channel` set, each
/// sub-frame's outcome passes through the observation-fault channel
/// first (misclassification/drops per the script); without it the
/// outcome is recorded directly. This is the **only** measurement
/// loop in the workspace — `run_measurement_phase` and [`measure`]
/// both execute through it.
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

/// Run a `t_samples` Algorithm-1 plan at the snapshot cursor through
/// the observation-fault channel and advance the cursor. A plan that
/// overruns the trace ends the run (`done`, `Ok(false)`): there is no
/// more air to measure.
pub(crate) fn measure(
    capture: &FaultyCapture,
    t_samples: u64,
    geom: &CellGeometry,
    snap: &mut CellSnapshot,
    observer: &mut dyn SubframeObserver,
) -> Result<bool, BluError> {
    observer.on_stage(StageKind::Measure);
    let plan = measurement_schedule(geom.n, geom.k_max, t_samples)?;
    if snap.cursor + plan.t_max() > geom.trace_len {
        snap.done = true;
        return Ok(false);
    }
    let channel = Some((&mut snap.chan, &capture.script));
    run_measure_plan(&capture.trace, &plan, snap.cursor, &mut snap.est, channel);
    snap.cursor += plan.t_max();
    snap.measurement_subframes += plan.t_max();
    Ok(true)
}

/// Blue-print a topology from the snapshot's statistics under the
/// resilience guards, and route the verdict: a blueprint that is not
/// degraded and clears [`CONFIDENCE_FLOOR`] is installed and the
/// cell enters Confident; anything else (a contained panic included)
/// earns [`FALLBACK_PROBATION_TXOPS`] of PF Fallback and a
/// breaker failure.
pub(crate) fn infer(
    capture: &FaultyCapture,
    config: &RobustConfig,
    snap: &mut CellSnapshot,
    arena: &mut EngineArena,
    observer: &mut dyn SubframeObserver,
) {
    observer.on_stage(StageKind::Infer);
    let usable = match guarded_solve(&capture.script, config, snap, &mut arena.infer) {
        Ok((result, cache_events)) => {
            for event in cache_events {
                observer.on_fleet_cache(event);
            }
            if !result.completed {
                snap.deadline_misses += 1;
            }
            observer.on_infer(result.verdict, result.completed);
            snap.verdicts.push(result.verdict);
            (result.verdict != InferenceVerdict::Degraded
                && result.confidence() >= CONFIDENCE_FLOOR)
                .then_some(result)
        }
        Err(e) => {
            if matches!(e, BluError::Panicked(_)) {
                snap.inference_panics += 1;
            }
            observer.on_infer(InferenceVerdict::Degraded, false);
            snap.verdicts.push(InferenceVerdict::Degraded);
            None
        }
    };
    if usable.is_some() {
        snap.breaker.record_success(snap.cursor);
        snap.drift.reset();
        snap.enter(OrchestratorState::Confident);
    } else {
        snap.breaker.record_failure(snap.cursor);
        snap.probation_left = FALLBACK_PROBATION_TXOPS;
        snap.enter(OrchestratorState::Fallback);
    }
    snap.blueprint = usable;
    observer.on_state_change(snap.cursor, snap.state);
}

/// One solve under the resilience guards: scripted poisoning is
/// injected and quarantined, scripted stalls repeat the solve, and a
/// panic (scripted or genuine) is contained at this boundary. Solves
/// through [`InferenceBackend::solve`] on the cell arena's scratch,
/// consulting the config's fleet cache when one is attached.
fn guarded_solve(
    script: &FaultScript,
    config: &RobustConfig,
    snap: &mut CellSnapshot,
    scratch: &mut InferScratch,
) -> Result<(InferenceResult, Vec<FleetCacheEvent>), BluError> {
    let rt = script.runtime_state_at(snap.cursor);
    let mut sys = ConstraintSystem::from_measurements(snap.est.stats());
    if rt.poison_rate > 0.0 {
        for t in sys.individual.iter_mut().chain(sys.pair.iter_mut()) {
            if snap.poison_rng.chance(rt.poison_rate) {
                *t = f64::NAN;
            }
        }
        for tr in sys.triples.iter_mut() {
            if snap.poison_rng.chance(rt.poison_rate) {
                tr.target = f64::NAN;
            }
        }
    }
    snap.quarantined_constraints += sys.sanitize() as u64;

    let reps = rt.stall_factor.max(1);
    let (backend, icfg) = (&config.backend, &config.blu.inference);
    let cache = config.fleet_cache.as_deref();
    let t0 = std::time::Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if rt.panic {
            panic!("injected inference panic");
        }
        // The signature is recomputed at every solve from the
        // sanitized system actually being solved — never captured
        // once and reused — so a lookup after churn-mutated statistics
        // can only key on the post-churn books. (Poisoned-then-
        // quarantined cells likewise key on what the solver saw.)
        let mut events = Vec::new();
        let (mut result, event) = backend.solve(&sys, icfg, scratch, cache);
        events.extend(event);
        // A scripted stall models a slow solver by repeating the
        // (deterministic) solve; the last result is returned. Under
        // the cache the repeats are hits on the entry the first solve
        // just published — same result, no extra work.
        for _ in 1..reps {
            let (again, event) = backend.solve(&sys, icfg, scratch, cache);
            result = again;
            events.extend(event);
        }
        (result, events)
    }))
    .map_err(|p| BluError::Panicked(panic_message(p.as_ref())));
    snap.inference_micros += t0.elapsed().as_micros() as u64;
    outcome
}

/// Incremental streaming inference: fold the sliding observation
/// window's counters into a warm-started repair of the blueprint in
/// force, under a `deadline_steps` solver budget.
///
/// Where [`infer`] re-solves from the re-measured statistics (§3.7),
/// this reads only the snapshot's
/// [`StreamState`](crate::engine::StreamState) window, whose counters
/// drift with ground truth as observations age out. A refined
/// blueprint that clears [`CONFIDENCE_FLOOR`] replaces the one in
/// force and resets the drift monitor; one that does not is discarded
/// and the drift monitor stays armed as the full-re-measurement
/// fallback. A refine never consults the fleet cache (warm starts are
/// cell-local) and never moves the state machine: streaming refines
/// happen *inside* Confident. Without a window, or with an empty one,
/// there is nothing to refine.
pub(crate) fn refine(
    config: &RobustConfig,
    deadline_steps: u64,
    snap: &mut CellSnapshot,
    arena: &mut EngineArena,
    observer: &mut dyn SubframeObserver,
) {
    observer.on_stage(StageKind::Infer);
    let window = match &snap.stream {
        Some(stream) if !stream.window.is_empty() => &stream.window,
        _ => return,
    };
    let mut sys = ConstraintSystem::from_measurements(window.stats());
    snap.quarantined_constraints += sys.sanitize() as u64;
    let start = match &snap.blueprint {
        Some(result) => TransformedTopology::from_topology(&result.topology),
        None => Default::default(),
    };
    let cfg = InferenceConfig {
        deadline: Deadline::Steps(deadline_steps.max(1)),
        ..config.blu.inference
    };
    let t0 = std::time::Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        stream_refine(&sys, &cfg, start, &config.backend, &mut arena.infer)
    }));
    snap.inference_micros += t0.elapsed().as_micros() as u64;
    let stream = snap.stream.as_mut().expect("checked above");
    stream.refines += 1;
    match outcome {
        Ok(result) => {
            if !result.completed {
                snap.deadline_misses += 1;
            }
            observer.on_infer(result.verdict, result.completed);
            snap.verdicts.push(result.verdict);
            let installed = result.verdict != InferenceVerdict::Degraded
                && result.confidence() >= CONFIDENCE_FLOOR;
            if installed {
                stream.refines_installed += 1;
                snap.blueprint = Some(result);
                snap.drift.reset();
            }
            observer.on_stream(StreamEvent::Refine { installed });
        }
        Err(_) => {
            // A refine panic is contained at this boundary: the cell
            // keeps serving the blueprint in force and the drift
            // monitor stays armed.
            snap.inference_panics += 1;
            observer.on_infer(InferenceVerdict::Degraded, false);
            observer.on_stream(StreamEvent::Refine { installed: false });
        }
    }
}

/// One streaming refine: a warm-started repair from the blueprint in
/// force; when it does not converge (a churn event moved the truth
/// out of the old blueprint's basin), the restart portfolio over the
/// same window statistics, keeping whichever violates less. Solver
/// time only — streaming never spends measurement sub-frames.
fn stream_refine(
    sys: &ConstraintSystem,
    cfg: &InferenceConfig,
    start: TransformedTopology,
    backend: &InferenceBackend,
    scratch: &mut InferScratch,
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

/// Drive one windowed segment of the [`CellEngine`] from the snapshot
/// cursor: [`CHECK_INTERVAL_TXOPS`] TxOPs clipped to the
/// remaining trace, speculating on the blueprint in force when
/// `speculate` is set and one exists, plain PF otherwise. Every
/// decoded sub-frame passes the [`DriftTap`]; PF state is carried
/// across segments and the metrics merge into the snapshot. Returns
/// the TxOPs run, or `None` (and `done`) once the trace has no room
/// for one.
pub(crate) fn transmit(
    capture: &FaultyCapture,
    config: &RobustConfig,
    geom: &CellGeometry,
    snap: &mut CellSnapshot,
    arena: &mut EngineArena,
    speculate: bool,
    observer: &mut dyn SubframeObserver,
) -> Result<Option<u64>, BluError> {
    observer.on_stage(StageKind::Generate);
    observer.on_stage(StageKind::Schedule);
    let room = (geom.trace_len - snap.cursor) / geom.per_txop;
    let txops = CHECK_INTERVAL_TXOPS.min(room);
    if txops == 0 {
        snap.done = true;
        return Ok(None);
    }
    observer.on_stage(StageKind::Transmit);
    let mut engine =
        CellEngine::with_config(&capture.trace, &config.blu.emulation)?.segment(txops, snap.cursor);
    engine.adopt_arena(arena);
    if let Some(avg) = &snap.pf_avg {
        engine.seed_pf_averages(avg);
    }
    // Split borrows: the scheduler reads the blueprint while the tap
    // mutates estimator/channel/drift — disjoint snapshot fields.
    let CellSnapshot {
        ref mut est,
        ref mut chan,
        ref mut drift,
        ref blueprint,
        ref mut stream,
        ..
    } = *snap;
    let mut tap = DriftTap {
        trace: &capture.trace,
        script: &capture.script,
        chan,
        est,
        drift,
        blueprint: blueprint.as_ref(),
        window: stream.as_mut().map(|s| &mut s.window),
        n: geom.n,
        inner: observer,
    };
    let speculated = blueprint.as_ref().filter(|_| speculate);
    let report = match speculated {
        Some(result) => {
            let access = TopologyAccess::new(&result.topology);
            let mut sched = SpeculativeScheduler::new(&access);
            engine.run_segment(&mut sched, None, AccessMode::BackToBack, &mut tap)
        }
        None => engine.run_segment(&mut PfScheduler, None, AccessMode::BackToBack, &mut tap),
    };
    let speculated = speculated.is_some();
    engine.yield_arena(arena);
    snap.pf_avg = Some(engine.pf_averages().to_vec());
    snap.metrics.merge(&report.metrics);
    snap.cursor += txops * geom.per_txop;
    if speculated {
        snap.speculative_txops += txops;
    } else {
        snap.fallback_txops += txops;
    }
    Ok(Some(txops))
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
    drift: &'x mut DriftMonitor,
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

    fn on_fleet_cache(&mut self, event: FleetCacheEvent) {
        self.inner.on_fleet_cache(event);
    }

    fn on_state_change(&mut self, at_subframe: u64, state: OrchestratorState) {
        self.inner.on_state_change(at_subframe, state);
    }

    fn on_stream(&mut self, event: StreamEvent) {
        self.inner.on_stream(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_kinds_order_matches_pipeline() {
        assert!(StageKind::Measure < StageKind::Infer);
        assert!(StageKind::Infer < StageKind::Generate);
        assert!(StageKind::Generate < StageKind::Schedule);
        assert!(StageKind::Schedule < StageKind::Transmit);
    }

    #[test]
    fn stream_refine_is_bit_identical_with_a_reused_scratch() {
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
}
