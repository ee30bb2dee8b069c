//! The state a cell's robust loop runs over.
//!
//! The mutable loop state lives in [`CellSnapshot`] — the
//! engine-level, serializable record of everything that must survive
//! a process restart for a resumed run to be bit-identical. The
//! snapshot (historically `RobustSnapshot`, still re-exported under
//! that name with an unchanged serde layout), the orchestrator state
//! machine, the drift monitor, the circuit breaker, and the
//! checkpoint policy live here; [`CellGeometry`] is the fixed run
//! geometry derived from the trace and the cell config.

use crate::blueprint::infer::InferenceVerdict;
use crate::blueprint::{InferenceResult, ObservationWindow};
use crate::emulator::EmulationConfig;
use crate::measure::OutcomeEstimator;
use crate::metrics::UplinkMetrics;
use crate::robust::DRIFT_ALPHA;
use crate::runtime::breaker::{BreakerConfig, CircuitBreaker};
use blu_sim::faults::ObservationChannel;
use blu_sim::rng::DetRng;
use blu_traces::schema::TestbedTrace;
use serde::{Deserialize, Serialize, Serializer};
use std::path::PathBuf;

/// Where a cell's robust run currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OrchestratorState {
    /// Initial full-length measurement phase.
    Measuring,
    /// Speculating on a blue-print whose drift score is below
    /// threshold.
    Confident,
    /// Drift detected; about to re-measure.
    Drifting,
    /// Shortened re-measurement phase (§3.7).
    Remeasuring,
    /// Blue-print unusable — scheduling with plain PF.
    Fallback,
}

impl std::fmt::Display for OrchestratorState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            OrchestratorState::Measuring => "measuring",
            OrchestratorState::Confident => "confident",
            OrchestratorState::Drifting => "drifting",
            OrchestratorState::Remeasuring => "re-measuring",
            OrchestratorState::Fallback => "fallback",
        })
    }
}

/// Per-client mispredict tracker: an EWMA of the signed difference
/// between each observed CCA outcome (1 = accessed) and the
/// blue-print's predicted access probability. Under a correct
/// blue-print every per-client EWMA hovers around zero; a terminal
/// appearing, disappearing or drifting pulls its victims' EWMAs away
/// in either direction, so the score is the **maximum absolute**
/// per-client deviation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftMonitor {
    alpha: f64,
    dev: Vec<f64>,
    samples: u64,
}

impl DriftMonitor {
    /// New monitor over `n` clients with EWMA weight `alpha`.
    pub fn new(alpha: f64, n: usize) -> Self {
        DriftMonitor {
            alpha: alpha.clamp(0.0, 1.0),
            dev: vec![0.0; n],
            samples: 0,
        }
    }

    /// Feed one observed outcome for client `ue` against the
    /// blue-print's predicted access probability.
    pub fn observe(&mut self, ue: usize, accessed: bool, predicted: f64) {
        if ue >= self.dev.len() {
            return;
        }
        let p = if predicted.is_finite() {
            predicted.clamp(0.0, 1.0)
        } else {
            0.5
        };
        let x = if accessed { 1.0 } else { 0.0 };
        self.dev[ue] += self.alpha * ((x - p) - self.dev[ue]);
        self.samples += 1;
    }

    /// Current drift score: the largest per-client |EWMA| deviation.
    pub fn score(&self) -> f64 {
        self.dev.iter().fold(0.0_f64, |m, d| m.max(d.abs()))
    }

    /// Observations consumed since the last reset.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Forget everything (called after re-blue-printing).
    pub fn reset(&mut self) {
        self.dev.iter_mut().for_each(|d| *d = 0.0);
        self.samples = 0;
    }
}

/// Streaming-pipeline state carried inside the snapshot: the sliding
/// observation window plus the streaming counters the daemon exports
/// as `blu_stream_*`. Only present when the robust loop runs with
/// streaming enabled — phased runs never materialize it, and the
/// snapshot's hand-written serializer omits the field entirely when
/// absent, so streaming-off checkpoints stay byte-identical to the
/// v1 schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamState {
    /// Bounded per-subframe observation ring with incrementally
    /// maintained counters (the streaming ingest path).
    pub window: ObservationWindow,
    /// Incremental refines attempted so far.
    pub refines: u64,
    /// Refines whose blueprint passed the gate and was installed.
    pub refines_installed: u64,
    /// Drift-monitor fallback re-measurements scheduled despite
    /// streaming (the demoted §3.7 arm).
    pub fallback_remeasurements: u64,
    /// Churn-driven topology events applied to the cell's books.
    pub churn_events_applied: u64,
}

impl StreamState {
    /// Fresh streaming state over `n` clients with a window retaining
    /// at most `window_capacity` sub-frames.
    pub fn new(n: usize, window_capacity: usize) -> Self {
        StreamState {
            window: ObservationWindow::new(n, window_capacity),
            refines: 0,
            refines_installed: 0,
            fallback_remeasurements: 0,
            churn_events_applied: 0,
        }
    }
}

/// Where and how often the loop persists its state.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Directory holding the per-cell snapshot files
    /// (`cell-<index>.json`).
    pub dir: PathBuf,
    /// Save whenever the cursor crosses a multiple of this many
    /// sub-frames (0 = only at clean shutdown). Both the unsupervised
    /// loop and the supervised cell use this grid. A final save always
    /// happens when the run completes.
    pub every_subframes: u64,
    /// Resume from an existing snapshot in `dir` if one is present
    /// (a fresh run starts when the file is absent).
    pub resume: bool,
}

/// One state-machine transition, for post-mortem inspection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateTransition {
    /// Trace sub-frame at which the state was entered.
    pub at_subframe: u64,
    /// The state entered.
    pub state: OrchestratorState,
}

/// The complete mutable state of one cell's robust run — everything
/// that must survive a process restart for the resumed run to be
/// bit-identical to an uninterrupted one. Persisted via
/// [`crate::runtime::checkpoint`]; the serde layout is the v1 robust
/// checkpoint schema, unchanged by the engine extraction.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct CellSnapshot {
    /// Clients in the capture (resume-mismatch guard).
    pub n_clients: u64,
    /// Sub-frames in the capture (resume-mismatch guard).
    pub trace_len: u64,
    /// Seed the run started with (resume-mismatch guard: a different
    /// seed means different RNG streams).
    pub config_seed: u64,
    /// Trace cursor, in sub-frames.
    pub cursor: u64,
    /// Current machine state.
    pub state: OrchestratorState,
    /// Whether the run has consumed the trace.
    pub done: bool,
    /// Accumulated access statistics.
    pub est: OutcomeEstimator,
    /// Observation-fault channel (carries its RNG).
    pub chan: ObservationChannel,
    /// RNG stream feeding scripted constraint poisoning.
    pub poison_rng: DetRng,
    /// Drift monitor EWMAs.
    pub drift: DriftMonitor,
    /// Per-cell circuit breaker (state, backoff, jitter RNG,
    /// transition history).
    pub breaker: CircuitBreaker,
    /// Merged scheduling metrics so far.
    pub metrics: UplinkMetrics,
    /// State history so far.
    pub transitions: Vec<StateTransition>,
    /// Inference verdicts so far.
    pub verdicts: Vec<InferenceVerdict>,
    /// Blue-print currently in force.
    pub blueprint: Option<InferenceResult>,
    /// PF average-rate state carried across engine segments.
    pub pf_avg: Option<Vec<f64>>,
    /// Sub-frames spent measuring so far.
    pub measurement_subframes: u64,
    /// Re-measurement phases so far.
    pub n_remeasurements: u32,
    /// TxOPs spent speculating so far.
    pub speculative_txops: u64,
    /// TxOPs spent in PF fallback so far.
    pub fallback_txops: u64,
    /// TxOPs of fallback probation remaining.
    pub probation_left: u64,
    /// Largest drift score seen so far.
    pub peak_drift: f64,
    /// Wall-clock inference time so far (timing only — excluded from
    /// the determinism contract and therefore from snapshot
    /// equality-based determinism tests).
    pub inference_micros: u64,
    /// Contained inference panics so far.
    pub inference_panics: u32,
    /// Deadline-bounded inferences that returned incomplete so far.
    pub deadline_misses: u32,
    /// Constraint targets quarantined so far.
    pub quarantined_constraints: u64,
    /// Streaming-pipeline state (window + counters). `None` on every
    /// phased run; the serializer omits the key entirely when absent
    /// so v1 checkpoints round-trip byte-identically, and the
    /// deserializer tolerates its absence, so v1 files still load.
    pub stream: Option<StreamState>,
}

// Hand-rolled so the `stream` key is *omitted* (not `null`) when the
// run is phased: the v1 checkpoint golden is a byte-level contract
// and the derive would emit `"stream": null` into it. Field order
// matches the declaration order the derive would use.
impl Serialize for CellSnapshot {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.serialize_with_micros(serializer, self.inference_micros)
    }
}

impl CellSnapshot {
    /// The snapshot's fields in declaration order, with
    /// `inference_micros` replaced by the given value.
    fn serialize_with_micros<S: Serializer>(
        &self,
        serializer: S,
        inference_micros: u64,
    ) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let len = 26 + usize::from(self.stream.is_some());
        let mut st = serializer.serialize_struct("CellSnapshot", len)?;
        st.serialize_field("n_clients", &self.n_clients)?;
        st.serialize_field("trace_len", &self.trace_len)?;
        st.serialize_field("config_seed", &self.config_seed)?;
        st.serialize_field("cursor", &self.cursor)?;
        st.serialize_field("state", &self.state)?;
        st.serialize_field("done", &self.done)?;
        st.serialize_field("est", &self.est)?;
        st.serialize_field("chan", &self.chan)?;
        st.serialize_field("poison_rng", &self.poison_rng)?;
        st.serialize_field("drift", &self.drift)?;
        st.serialize_field("breaker", &self.breaker)?;
        st.serialize_field("metrics", &self.metrics)?;
        st.serialize_field("transitions", &self.transitions)?;
        st.serialize_field("verdicts", &self.verdicts)?;
        st.serialize_field("blueprint", &self.blueprint)?;
        st.serialize_field("pf_avg", &self.pf_avg)?;
        st.serialize_field("measurement_subframes", &self.measurement_subframes)?;
        st.serialize_field("n_remeasurements", &self.n_remeasurements)?;
        st.serialize_field("speculative_txops", &self.speculative_txops)?;
        st.serialize_field("fallback_txops", &self.fallback_txops)?;
        st.serialize_field("probation_left", &self.probation_left)?;
        st.serialize_field("peak_drift", &self.peak_drift)?;
        st.serialize_field("inference_micros", &inference_micros)?;
        st.serialize_field("inference_panics", &self.inference_panics)?;
        st.serialize_field("deadline_misses", &self.deadline_misses)?;
        st.serialize_field("quarantined_constraints", &self.quarantined_constraints)?;
        if let Some(stream) = &self.stream {
            st.serialize_field("stream", stream)?;
        }
        st.end()
    }
}

/// A borrowed snapshot that serializes with its wall-clock timing
/// (`inference_micros`) written as `0`, without cloning the snapshot:
/// the form the determinism contract compares (see
/// [`snapshot_digest`](crate::runtime::snapshot_digest)).
pub struct Untimed<'a>(pub &'a CellSnapshot);

impl Serialize for Untimed<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.0.serialize_with_micros(serializer, 0)
    }
}

impl CellSnapshot {
    /// Fresh pre-run state for a cell of `n` clients over a trace of
    /// `trace_len` sub-frames. All RNG streams (observation channel,
    /// poison source, breaker jitter) derive from `seed`.
    pub fn fresh(n: usize, trace_len: u64, seed: u64, breaker: BreakerConfig) -> Self {
        CellSnapshot {
            n_clients: n as u64,
            trace_len,
            config_seed: seed,
            cursor: 0,
            state: OrchestratorState::Measuring,
            done: false,
            est: OutcomeEstimator::new(n),
            chan: ObservationChannel::new(DetRng::seed_from_u64(seed ^ 0x0B5E_7ACE)),
            poison_rng: DetRng::seed_from_u64(seed ^ 0x7015_0A11),
            drift: DriftMonitor::new(DRIFT_ALPHA, n),
            breaker: CircuitBreaker::new(breaker, seed),
            metrics: UplinkMetrics::new(n),
            transitions: vec![StateTransition {
                at_subframe: 0,
                state: OrchestratorState::Measuring,
            }],
            verdicts: Vec::new(),
            blueprint: None,
            pf_avg: None,
            measurement_subframes: 0,
            n_remeasurements: 0,
            speculative_txops: 0,
            fallback_txops: 0,
            probation_left: 0,
            peak_drift: 0.0,
            inference_micros: 0,
            inference_panics: 0,
            deadline_misses: 0,
            quarantined_constraints: 0,
            stream: None,
        }
    }

    /// Enter a state, recording the transition at the current cursor.
    pub fn enter(&mut self, next: OrchestratorState) {
        self.state = next;
        self.transitions.push(StateTransition {
            at_subframe: self.cursor,
            state: next,
        });
    }
}

/// Fixed per-run geometry derived from the trace and the cell config.
#[derive(Debug, Clone, Copy)]
pub struct CellGeometry {
    /// Clients in the trace.
    pub n: usize,
    /// Sub-frames in the trace.
    pub trace_len: u64,
    /// Sub-frames per TxOP (DL + UL).
    pub per_txop: u64,
    /// DL sub-frames per TxOP.
    pub dl: u64,
    /// UL sub-frames per TxOP.
    pub ul: u64,
    /// Measurement-plan `K` (max clients schedulable per sub-frame).
    pub k_max: usize,
}

impl CellGeometry {
    /// Derive the geometry from a trace and the cell config.
    pub fn derive(trace: &TestbedTrace, emulation: &EmulationConfig) -> Self {
        CellGeometry {
            n: trace.ground_truth.n_clients,
            trace_len: trace.access.len() as u64,
            per_txop: emulation.cell.txop.total_subframes(),
            dl: emulation.cell.txop.dl_subframes,
            ul: emulation.cell.txop.ul_subframes,
            k_max: emulation.cell.max_ues_per_subframe,
        }
    }
}
