//! Blue-printing interference: inferring the hidden-terminal topology
//! from pairwise client access measurements (paper §3.4).
//!
//! Pipeline: [`transform`] maps measured probabilities into the
//! log domain where hidden-terminal contributions are additive;
//! [`constraints`] holds the resulting linear constraint system
//! (Eqn. 6); [`residual`] maintains per-constraint residuals
//! incrementally (the shared delta-energy kernel); [`infer`] repairs
//! a candidate topology by gradient moves until the constraints are
//! satisfied, restarting from the [`init`] portfolio of starting
//! topologies; [`accuracy`] scores an inferred topology against
//! ground truth with the paper's strict exact-edge-set metric;
//! [`mcmc`] is the Bayesian (MCMC) baseline the paper compares its
//! deterministic solution against; [`batch`] fans many cells'
//! independent inferences across the worker pool with deterministic
//! ordered reduction.

pub mod accuracy;
pub mod batch;
pub mod constraints;
pub mod fleetcache;
pub mod infer;
pub mod init;
pub mod mcmc;
pub mod residual;
pub mod transform;

pub use accuracy::topology_accuracy;
pub use batch::{infer_batch, infer_batch_sequential};
pub use constraints::ConstraintSystem;
pub use fleetcache::{
    FleetBlueprintCache, FleetCacheEvent, FleetCacheStats, TopologySignature,
    DEFAULT_FLEET_CACHE_CAPACITY,
};
pub use infer::{
    infer_topology, infer_topology_with, refine_topology_with, InferScratch, InferenceConfig,
    InferenceResult,
};
pub use mcmc::{infer_mcmc, infer_mcmc_result, McmcConfig};
pub use residual::{ObservationWindow, ResidualTracker, TrackerBuffers};

/// Which inference engine turns a constraint system into a topology.
///
/// Both backends report through [`InferenceResult`] with the same
/// residual-fraction/verdict semantics, so the orchestration layers
/// (`run_blu`, `robust`) can gate speculation identically regardless
/// of backend.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum InferenceBackend {
    /// The paper's deterministic gradient repair
    /// ([`infer_topology`]) — the default.
    #[default]
    Gradient,
    /// The annealed MCMC chain ([`mcmc::infer_mcmc`]) with its own
    /// configuration and seed.
    Mcmc {
        /// Chain configuration (steps, temperatures, penalty).
        config: McmcConfig,
        /// Chain seed (determinism contract: same seed, same result).
        seed: u64,
    },
}

impl InferenceBackend {
    /// Run this backend on a constraint system from freshly allocated
    /// working memory: the plain reference path, kept as the test
    /// oracle for [`InferenceBackend::solve`] (and as the sequential
    /// batch reference). Production callers use `solve`.
    pub fn infer(&self, sys: &ConstraintSystem, config: &InferenceConfig) -> InferenceResult {
        match self {
            InferenceBackend::Gradient => infer::infer_topology(sys, config),
            InferenceBackend::Mcmc {
                config: mcmc_config,
                seed,
            } => mcmc::infer_mcmc_result(sys, mcmc_config, *seed, config),
        }
    }

    /// Blue-print `sys`: the one production path from a constraint
    /// system to an [`InferenceResult`].
    ///
    /// The gradient backend runs [`infer_topology_with`] on `scratch`,
    /// so a caller that solves repeatedly (a batch shard, a cell's
    /// arena, a perf loop) recycles the tracker and refinement buffers;
    /// the MCMC chain ([`infer_mcmc_result`]) keeps its own state and
    /// ignores `scratch`. With a `cache`, the request is keyed by its
    /// [`TopologySignature`] and solved at most once per signature
    /// across the fleet; the event says how the cache served it.
    /// Bit-identical to
    /// [`InferenceBackend::infer`] with or without scratch reuse or a
    /// cache (pinned by the `solve_matches_oracle` differential test).
    pub fn solve(
        &self,
        sys: &ConstraintSystem,
        config: &InferenceConfig,
        scratch: &mut InferScratch,
        cache: Option<&FleetBlueprintCache>,
    ) -> (InferenceResult, Option<FleetCacheEvent>) {
        let mut run = || match self {
            InferenceBackend::Gradient => infer::infer_topology_with(sys, config, scratch),
            mcmc => mcmc.infer(sys, config),
        };
        match cache {
            None => (run(), None),
            Some(cache) => {
                let sig = TopologySignature::new(sys, config, self);
                let (result, event) = cache.get_or_solve(&sig, run);
                (result, Some(event))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrator::{blueprint_from_measurements_with, run_measurement_phase};
    use crate::runtime::deadline::Deadline;
    use blu_sim::rng::DetRng;
    use blu_sim::time::Micros;
    use blu_sim::topology::InterferenceTopology;
    use blu_traces::capture::{capture_synthetic, CaptureConfig};

    fn assert_same(what: &str, got: &InferenceResult, want: &InferenceResult) {
        assert_eq!(got.topology, want.topology, "{what}: topology");
        assert_eq!(
            got.violation.to_bits(),
            want.violation.to_bits(),
            "{what}: violation"
        );
        assert_eq!(got.iterations, want.iterations, "{what}: iterations");
        assert_eq!(got.verdict, want.verdict, "{what}: verdict");
        assert_eq!(got.completed, want.completed, "{what}: completed");
    }

    /// The named oracle of each backend.
    fn oracle(
        backend: &InferenceBackend,
        sys: &ConstraintSystem,
        config: &InferenceConfig,
    ) -> InferenceResult {
        match backend {
            InferenceBackend::Gradient => infer_topology(sys, config),
            InferenceBackend::Mcmc {
                config: mcmc_config,
                seed,
            } => infer_mcmc_result(sys, mcmc_config, *seed, config),
        }
    }

    /// `solve` on one scratch reused across heterogeneous systems —
    /// exact and measured, 4 to 9 clients (so the scratch rebinds to
    /// new shapes), with and without triples, one repeated — equals
    /// each backend's oracle, with and without the fleet cache, with
    /// and without a step budget that cuts solves short. So do
    /// `blueprint_from_measurements_with` over the measured
    /// estimators and the sharded `infer_batch` over all systems.
    #[test]
    fn solve_matches_oracle() {
        let ests: Vec<crate::measure::OutcomeEstimator> = [6u64, 20, 21]
            .into_iter()
            .map(|seed| {
                let trace = capture_synthetic(
                    &CaptureConfig {
                        duration: Micros::from_secs(60),
                        q_range: (0.25, 0.55),
                        ..CaptureConfig::testbed_default()
                    },
                    seed,
                );
                run_measurement_phase(&trace, 8, 40).unwrap().0
            })
            .collect();
        let mut systems: Vec<ConstraintSystem> = [(5usize, 3usize), (9, 5), (4, 2), (7, 4)]
            .into_iter()
            .enumerate()
            .map(|(c, (n, h))| {
                let mut rng = DetRng::seed_from_u64(700 + c as u64);
                let truth = InterferenceTopology::random(n, h, (0.15, 0.6), 0.4, &mut rng);
                let mut sys = ConstraintSystem::from_topology(&truth);
                if c % 2 == 1 {
                    sys.add_triples_from_topology(&truth, &[(0, 1, 2), (1, 2, 3)]);
                }
                sys
            })
            .collect();
        systems.extend(
            ests.iter()
                .map(|est| ConstraintSystem::from_measurements(est.stats())),
        );
        systems.push(systems[1].clone());

        let backends = [
            InferenceBackend::Gradient,
            InferenceBackend::Mcmc {
                config: McmcConfig {
                    steps: 2_000,
                    ..Default::default()
                },
                seed: 9,
            },
        ];
        let configs = [
            InferenceConfig::default(),
            InferenceConfig {
                deadline: Deadline::Steps(60),
                ..Default::default()
            },
        ];
        let cache = FleetBlueprintCache::new(64);
        let mut scratch = InferScratch::default();
        let mut cut_short = 0;
        for backend in &backends {
            for config in &configs {
                for cached in [None, Some(&cache)] {
                    for (i, sys) in systems.iter().enumerate() {
                        let what = format!(
                            "{backend:?} {:?} cached={} #{i}",
                            config.deadline,
                            cached.is_some()
                        );
                        let want = oracle(backend, sys, config);
                        let (got, event) = backend.solve(sys, config, &mut scratch, cached);
                        assert_same(&what, &got, &want);
                        cut_short += usize::from(!got.completed);
                        match (cached, event) {
                            (None, None) => {}
                            (Some(_), Some(event)) if i + 1 == systems.len() => {
                                assert_eq!(event, FleetCacheEvent::Hit, "{what}: repeat")
                            }
                            (Some(_), Some(event)) => {
                                assert_eq!(event, FleetCacheEvent::Miss, "{what}")
                            }
                            other => panic!("{what}: cache event {other:?}"),
                        }
                    }
                    let batch = infer_batch(&systems, config, backend, cached);
                    for (i, (got, sys)) in batch.iter().zip(&systems).enumerate() {
                        let what = format!("batch {backend:?} {:?} #{i}", config.deadline);
                        assert_same(&what, got.as_ref().unwrap(), &oracle(backend, sys, config));
                    }
                }
                for (i, est) in ests.iter().enumerate() {
                    let sys = ConstraintSystem::from_measurements(est.stats());
                    let got = blueprint_from_measurements_with(est, config, backend, &mut scratch);
                    assert_same(
                        &format!("estimator #{i}"),
                        &got,
                        &oracle(backend, &sys, config),
                    );
                }
            }
        }
        assert!(cut_short > 0, "the step budget must cut some solves short");
    }
}
