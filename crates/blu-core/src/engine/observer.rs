//! Zero-cost per-subframe observation hooks.
//!
//! [`SubframeObserver`] is the engine's telemetry seam: every hook
//! has a no-op default body, the engine is generic over the observer
//! type, and the null observer monomorphizes to nothing — callers
//! that do not observe pay nothing. Callers that do observe get a
//! strictly ordered stream of engine events: stage entries, TxOP
//! grants, decoded sub-frames, inference verdicts and state changes.
//!
//! The hooks are deliberately *read-mostly*: an observer may carry
//! mutable state of its own (the robust loop's fault tap feeds an
//! estimator and a drift monitor), but nothing an observer does can
//! change what the engine computes — the engine never reads observer
//! state. That one-way contract is what lets the differential tests
//! pin the engine bit-identical with and without observers attached.

use crate::blueprint::fleetcache::FleetCacheEvent;
use crate::blueprint::infer::InferenceVerdict;
use crate::engine::context::OrchestratorState;
use crate::engine::stages::StageKind;
use blu_phy::outcome::RbObservation;
use blu_sim::time::SubframeIndex;

/// One decoded UL sub-frame, as seen by an observer.
#[derive(Debug)]
pub struct SubframeView<'a> {
    /// Absolute trace sub-frame index.
    pub sf: SubframeIndex,
    /// Per-RB observations of this sub-frame (scheduled RBs only).
    pub observations: &'a [RbObservation],
    /// Bits credited to each client this sub-frame.
    pub delivered: &'a [f64],
}

/// One streaming-pipeline event, fired through
/// [`SubframeObserver::on_stream`] by the streaming arm of the
/// robust orchestrator. The variants mirror the `blu_stream_*`
/// Prometheus counters the daemon exports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StreamEvent {
    /// An incremental refine ran against the observation window.
    /// `installed` is whether its blueprint passed the confidence
    /// gate and replaced the serving blueprint.
    Refine {
        /// Whether the refined blueprint was installed.
        installed: bool,
    },
    /// The drift-monitor fallback arm tripped: a full §3.7
    /// re-measurement was scheduled despite streaming refines.
    FallbackRemeasure,
    /// Churn-driven topology events crossed during the last segment
    /// were applied to the cell's books.
    ChurnApplied {
        /// Topology events applied.
        count: u64,
    },
    /// Window occupancy after the last segment's ingest.
    WindowOccupancy {
        /// Retained sub-frames.
        occupied: u64,
        /// Ring capacity.
        capacity: u64,
    },
}

/// Observer of the engine's per-subframe sequencing. Every hook
/// defaults to a no-op, so implementors override only what they tap.
pub trait SubframeObserver {
    /// A step of the Fig. 9 loop is about to run.
    fn on_stage(&mut self, _kind: StageKind) {}

    /// A TxOP's grant went out (`grant_sf` is the grant sub-frame).
    fn on_txop_start(&mut self, _txop: u64, _grant_sf: SubframeIndex) {}

    /// One UL sub-frame was decoded.
    fn on_subframe(&mut self, _view: &SubframeView<'_>) {}

    /// An inference attempt finished (`completed = false` means the
    /// deadline budget ran out — a best-so-far blueprint).
    fn on_infer(&mut self, _verdict: InferenceVerdict, _completed: bool) {}

    /// The fleet blueprint cache resolved an inference lookup (only
    /// fired when a cache handle is attached to the cell context).
    fn on_fleet_cache(&mut self, _event: FleetCacheEvent) {}

    /// The cell's state machine entered a new state.
    fn on_state_change(&mut self, _at_subframe: u64, _state: OrchestratorState) {}

    /// A streaming-pipeline event (only fired when the robust loop
    /// runs with streaming enabled).
    fn on_stream(&mut self, _event: StreamEvent) {}
}

/// The do-nothing observer: the default for callers that only want
/// the report.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl SubframeObserver for NullObserver {}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Counter {
        stages: usize,
        txops: usize,
        subframes: usize,
    }

    impl SubframeObserver for Counter {
        fn on_stage(&mut self, _kind: StageKind) {
            self.stages += 1;
        }
        fn on_txop_start(&mut self, _txop: u64, _sf: SubframeIndex) {
            self.txops += 1;
        }
        fn on_subframe(&mut self, _view: &SubframeView<'_>) {
            self.subframes += 1;
        }
    }

    #[test]
    fn default_hooks_are_noops() {
        // Compiles and runs: the trait is object-safe and the null
        // observer can be driven through a dyn reference.
        let mut null = NullObserver;
        let obs: &mut dyn SubframeObserver = &mut null;
        obs.on_stage(StageKind::Measure);
        obs.on_txop_start(0, SubframeIndex(0));
    }

    #[test]
    fn custom_observer_receives_events() {
        let mut c = Counter::default();
        c.on_stage(StageKind::Transmit);
        c.on_txop_start(3, SubframeIndex(12));
        assert_eq!((c.stages, c.txops, c.subframes), (1, 1, 0));
    }
}
