//! The staged cell engine: one sub-frame loop, one stage pipeline,
//! every orchestration layer a thin composition.
//!
//! The paper's Fig. 9 loop (measure → blue-print → speculate) used to
//! be implemented three separate times — the emulator's run loops,
//! the two-phase orchestrator, and the robust driver — each
//! re-deriving CCA/pilot/decode/PF sequencing by hand. This module
//! collapses them onto two mechanisms:
//!
//! * [`CellEngine`] ([`cell`]) owns the per-subframe sequencing —
//!   CCA → grant → pilot classification → ZF decode → PF/estimator
//!   update — for both back-to-back and LBT-contended access
//!   ([`AccessMode`]), streaming every decoded sub-frame to a
//!   [`SubframeObserver`] ([`observer`]; no-op default, zero cost
//!   when unused).
//! * [`run_pipeline`] ([`stages`]) drives an ordered composition of
//!   typed stages — [`MeasureStage`] → [`InferStage`] →
//!   [`GenerateStage`] → [`ScheduleStage`] → [`TransmitStage`] —
//!   over a shared [`CellContext`] ([`context`]). The **ordering
//!   contract** is structural: [`StageKind`] derives `Ord` in
//!   pipeline order and `run_pipeline` rejects any composition whose
//!   kinds decrease.
//!
//! The mutable loop state lives in [`CellSnapshot`] — the
//! engine-level, serializable checkpoint (née `RobustSnapshot`, still
//! re-exported under that name with an unchanged on-disk schema), so
//! checkpoint/restore, the circuit breaker and the drift monitor are
//! available to **any** staged composition, not just the robust loop.
//! Fleet-scale callers fan cells across [`FleetEngine`] ([`fleet`]),
//! which reproduces the rayon shim's deterministic ordered chunking
//! while adding per-shard scratch reuse.
//!
//! Stages carry *mechanism*; *policy* stays with the caller:
//! `orchestrator::run_blu` composes all five stages once over a fresh
//! snapshot, while `robust` composes `[Measure, Infer]` or
//! `[Generate, Schedule, Transmit]` per state-machine arm and keeps
//! drift/probation/breaker decisions for itself.

pub mod cell;
pub mod context;
pub mod fleet;
pub mod hot;
pub mod observer;
pub mod stages;

pub use cell::{AccessMode, CellEngine};
pub use context::{
    CellContext, CellGeometry, CellSnapshot, CheckpointPolicy, DriftMonitor, OrchestratorState,
    SchedulerSpec, SegmentPlan, StateTransition, StreamState, Untimed,
};
pub use fleet::FleetEngine;
pub use hot::EngineArena;
pub use observer::{HeartbeatCounter, NullObserver, StreamEvent, SubframeObserver, SubframeView};
pub use stages::{
    run_pipeline, GenerateStage, InferGate, InferStage, MeasureFidelity, MeasureStage,
    SchedulePolicy, ScheduleStage, Stage, StageFlow, StageKind, StreamInferStage, TransmitFeed,
    TransmitStage,
};
