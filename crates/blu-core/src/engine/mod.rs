//! The cell engine: one sub-frame loop, and the Fig. 9 loop's steps
//! as plain calls over it.
//!
//! The paper's Fig. 9 loop (measure → blue-print → speculate) used to
//! be implemented three separate times — the emulator's run loops,
//! the two-phase orchestrator, and the robust driver — each
//! re-deriving CCA/pilot/decode/PF sequencing by hand. This module
//! gives them one of each mechanism:
//!
//! * [`CellEngine`] ([`cell`]) owns the per-subframe sequencing —
//!   CCA → grant → pilot classification → ZF decode → PF/estimator
//!   update — for both back-to-back and LBT-contended access
//!   ([`AccessMode`]), streaming every decoded sub-frame to a
//!   [`SubframeObserver`] ([`observer`]; no-op default, zero cost
//!   when unused).
//! * [`stages`] holds the robust loop's steps as plain functions —
//!   measure through the fault channel, gated infer, streaming
//!   refine, windowed transmit — which `robust::step_cell_with` calls
//!   in order per state-machine arm. Each announces its
//!   [`StageKind`] to the observer first; `StageKind` is the
//!   observer's vocabulary, not a pipeline.
//!
//! The mutable loop state lives in [`CellSnapshot`] ([`context`]) —
//! the engine-level, serializable checkpoint (née `RobustSnapshot`,
//! still re-exported under that name with an unchanged on-disk
//! schema). Fleet-scale callers fan cells across [`FleetEngine`]
//! ([`fleet`]), which reproduces the rayon shim's deterministic
//! ordered chunking while adding per-shard scratch reuse.
//!
//! The steps carry *mechanism*; *policy* stays with the caller:
//! `orchestrator::run_blu` is three direct calls (measurement phase,
//! one solve, one speculative segment), while `robust` keeps the
//! drift/probation/breaker decisions for itself.

pub mod cell;
pub mod context;
pub mod fleet;
pub mod hot;
pub mod observer;
pub mod stages;

pub use cell::{AccessMode, CellEngine};
pub use context::{
    CellGeometry, CellSnapshot, CheckpointPolicy, DriftMonitor, OrchestratorState, StateTransition,
    StreamState, Untimed,
};
pub use fleet::FleetEngine;
pub use hot::EngineArena;
pub use observer::{NullObserver, StreamEvent, SubframeObserver, SubframeView};
pub use stages::StageKind;
