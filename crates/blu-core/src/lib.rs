//! # blu-core — BLU: blue-printing interference for robust LTE uplink
//!
//! The paper's contribution, in four pieces:
//!
//! * [`measure`] — **Algorithm 1**: scheduling measurement sub-frames
//!   so that every client *pair* is jointly observed `T` times with
//!   near-minimal overhead (`⌈C(N,2)/C(K,2)·T⌉` sub-frames), plus the
//!   estimator that turns pilot-classified grant outcomes into
//!   empirical `p(i)`, `p(i,j)`.
//! * [`blueprint`] — **topology inference** (§3.4): log-transform the
//!   measured access probabilities into linear constraints (Eqn. 6)
//!   and repair a candidate hidden-terminal topology by gradient
//!   moves until the constraints are satisfied; multi-point
//!   initialization; an MCMC baseline for comparison; the paper's
//!   exact-edge-set accuracy metric.
//! * [`joint`] — **higher-order joint access distributions** (§3.6):
//!   the recursive topology-conditioning computation of `P(U, V̄)`
//!   (Eqns. 7–9) and an `O(h·2^w)` dynamic program producing the full
//!   access-pattern distribution of a client set — the form the
//!   scheduler consumes.
//! * [`sched`] — the **schedulers**: proportional fair (Eqn. 1), the
//!   access-aware baseline (Eqn. 5), and BLU's speculative scheduler
//!   (Eqns. 3–4) that over-schedules up to `f·M` clients per RB by
//!   expected marginal PF utility under the joint access
//!   distribution. SISO and MU-MIMO.
//!
//! [`engine`] owns the one per-subframe loop (CCA, pilots, ZF
//! decoding, PF averaging) and the staged measure → infer → generate
//! → schedule → transmit pipeline every orchestration layer composes:
//! [`emulator`] replays captured traces through a scheduler,
//! [`orchestrator`] runs the full two-phase BLU loop of Fig. 9
//! (measure → blue-print → speculate), and [`robust`] runs the
//! degraded-mode state machine — all through the same
//! [`engine::CellEngine`].
//!
//! ## End to end, in a dozen lines
//!
//! ```
//! use blu_core::blueprint::{ConstraintSystem, InferScratch, InferenceBackend, InferenceConfig};
//! use blu_sim::rng::DetRng;
//! use blu_sim::topology::InterferenceTopology;
//!
//! // A hidden-terminal field the eNB cannot see…
//! let mut rng = DetRng::seed_from_u64(7);
//! let truth = InterferenceTopology::random(6, 4, (0.2, 0.6), 0.4, &mut rng);
//!
//! // …blue-printed from nothing but pairwise access statistics.
//! // Every solve goes through `InferenceBackend::solve`: the scratch
//! // recycles solver buffers across calls, and an optional fleet
//! // cache (`None` here) shares solves between cells.
//! let constraints = ConstraintSystem::from_topology(&truth);
//! let mut scratch = InferScratch::default();
//! let (result, _) = InferenceBackend::Gradient.solve(
//!     &constraints,
//!     &InferenceConfig::default(),
//!     &mut scratch,
//!     None,
//! );
//! assert!(result.violation < 1e-6);
//! // The inferred blue-print reproduces every client's access odds.
//! for i in 0..6 {
//!     let err = (result.topology.p_individual(i) - truth.p_individual(i)).abs();
//!     assert!(err < 1e-4);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blueprint;
pub mod downlink;
pub mod emulator;
pub mod engine;
pub mod error;
pub mod joint;
pub mod measure;
pub mod metrics;
pub mod orchestrator;
pub mod robust;
pub mod runtime;
pub mod sched;

pub use blueprint::infer::{InferenceConfig, InferenceResult, InferenceVerdict};
pub use emulator::{EmulationConfig, EmulationReport};
pub use engine::{CellEngine, FleetEngine, NullObserver, SubframeObserver};
pub use error::BluError;
pub use joint::AccessDistribution;
pub use orchestrator::{BluConfig, BluRunReport};
pub use robust::{
    compile_churn_script, run_blu_robust, run_robust_fleet, CheckpointPolicy, OrchestratorState,
    RobustConfig, RobustRunReport, RobustSnapshot, StreamingConfig,
};
pub use runtime::supervisor::{
    run_supervised_fleet, run_supervised_fleet_with_hook, CellHealth, CellSupervisor,
    FleetHealthReport, SheddingPolicy, SupervisedFleetOutcome, SupervisorConfig, SupervisorHook,
};
