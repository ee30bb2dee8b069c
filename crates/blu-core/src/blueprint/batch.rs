//! Sharded multi-cell batch inference with per-cell panic isolation
//! and per-shard scratch reuse.
//!
//! At deployment scale one eNB process blue-prints many cells — and
//! PR-1's degraded-mode orchestration re-triggers inference on every
//! drift event, so re-measurement storms arrive in bursts of
//! independent per-cell problems. This module fans those problems out
//! across the engine's [`FleetEngine`] shards: [`infer_batch`] makes
//! one [`InferenceBackend::solve`] call per cell, optionally through
//! a shared [`FleetBlueprintCache`]. Each shard owns one
//! [`InferScratch`] for its whole chunk of cells, so the gradient
//! path's flat buffers (residual tracker, refinement arrays) are
//! allocated once per shard instead of once per cell — which is also
//! why the batch front end beats the sequential reference even on a
//! single hardware thread.
//!
//! **Isolation contract:** each cell's inference runs under
//! `catch_unwind` *inside* the shard closure (the fleet engine joins
//! shards with `expect`, so a panic that escaped the closure would
//! abort the whole batch); a panicking cell comes back as
//! [`BluError::Panicked`] while every other cell's result is
//! untouched — a panic mid-inference leaves the shard's scratch
//! empty, never corrupt, so subsequent cells on the shard are
//! unaffected. A config rejected by [`InferenceConfig::validate`] is
//! reported uniformly for all cells without spawning any work.
//!
//! **Determinism contract:** each cell's inference is a pure function
//! of its [`ConstraintSystem`] (and the backend's seed); the fleet
//! engine materializes the input, splits it into contiguous chunks,
//! and joins shard threads in spawn order, so
//! [`infer_batch`] returns results **in input order, byte-identical**
//! to the sequential reference [`infer_batch_sequential`] — the
//! fan-out reorders wall-clock execution, the scratch recycles
//! allocations, and the cache shares solves, but none of them ever
//! changes results. The differential tests below pin this.

use crate::blueprint::constraints::ConstraintSystem;
use crate::blueprint::fleetcache::FleetBlueprintCache;
use crate::blueprint::infer::{InferScratch, InferenceConfig, InferenceResult};
use crate::blueprint::InferenceBackend;
use crate::engine::FleetEngine;
use crate::error::BluError;
use crate::runtime::panic_message;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Infer every cell's topology across the fleet shards through
/// [`InferenceBackend::solve`] on the shard's scratch; results in
/// input order, one `Result` per cell. A per-cell panic is contained
/// and surfaces as that cell's [`BluError::Panicked`].
///
/// With a `cache`, repeated topology classes across the batch are
/// solved once and shared: a cell whose signature is already in
/// flight on another shard parks on the entry (a *delayed hit*)
/// instead of duplicating the solve, and every served hit is
/// byte-identical to what the cell's own fresh solve would have
/// produced (see [`fleetcache`](crate::blueprint::fleetcache) for the
/// contract).
pub fn infer_batch(
    systems: &[ConstraintSystem],
    config: &InferenceConfig,
    backend: &InferenceBackend,
    cache: Option<&FleetBlueprintCache>,
) -> Vec<Result<InferenceResult, BluError>> {
    if let Err(e) = config.validate() {
        return systems.iter().map(|_| Err(e.clone())).collect();
    }
    let items: Vec<&ConstraintSystem> = systems.iter().collect();
    FleetEngine::run(items, InferScratch::default, |scratch, sys| {
        catch_unwind(AssertUnwindSafe(|| {
            backend.solve(sys, config, scratch, cache).0
        }))
        .map_err(|payload| BluError::Panicked(panic_message(payload.as_ref())))
    })
}

/// Sequential reference for [`infer_batch`]: the allocating oracle
/// [`InferenceBackend::infer`] mapped over the cells in order, with
/// the same panic containment — kept alive for differential testing
/// and single-thread profiling.
pub fn infer_batch_sequential(
    systems: &[ConstraintSystem],
    config: &InferenceConfig,
    backend: &InferenceBackend,
) -> Vec<Result<InferenceResult, BluError>> {
    if let Err(e) = config.validate() {
        return systems.iter().map(|_| Err(e.clone())).collect();
    }
    systems
        .iter()
        .map(|sys| {
            catch_unwind(AssertUnwindSafe(|| backend.infer(sys, config)))
                .map_err(|payload| BluError::Panicked(panic_message(payload.as_ref())))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blueprint::infer::infer_topology_with;
    use crate::blueprint::mcmc::McmcConfig;
    use blu_sim::rng::DetRng;
    use blu_sim::topology::InterferenceTopology;

    fn systems(n_cells: usize) -> Vec<ConstraintSystem> {
        (0..n_cells)
            .map(|c| {
                let mut rng = DetRng::seed_from_u64(500 + c as u64);
                let t = InterferenceTopology::random(5, 3, (0.15, 0.6), 0.4, &mut rng);
                ConstraintSystem::from_topology(&t)
            })
            .collect()
    }

    /// A constraint system that makes the gradient path panic: `n`
    /// promises 5 clients but the target vectors are empty, so the
    /// first residual lookup indexes out of bounds.
    fn malformed() -> ConstraintSystem {
        ConstraintSystem {
            n: 5,
            individual: Vec::new(),
            pair: Vec::new(),
            triples: Vec::new(),
        }
    }

    #[test]
    fn batch_matches_sequential_gradient() {
        let sys = systems(6);
        let cfg = InferenceConfig::default();
        let par = infer_batch(&sys, &cfg, &InferenceBackend::Gradient, None);
        let seq = infer_batch_sequential(&sys, &cfg, &InferenceBackend::Gradient);
        assert_eq!(par.len(), seq.len());
        for (a, b) in par.iter().zip(&seq) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.topology, b.topology, "topologies must be bit-identical");
            assert_eq!(a.violation.to_bits(), b.violation.to_bits());
            assert_eq!(a.verdict, b.verdict);
        }
    }

    #[test]
    fn batch_matches_sequential_mcmc() {
        let sys = systems(4);
        let cfg = InferenceConfig::default();
        let backend = InferenceBackend::Mcmc {
            config: McmcConfig {
                steps: 2_000,
                ..Default::default()
            },
            seed: 9,
        };
        let par = infer_batch(&sys, &cfg, &backend, None);
        let seq = infer_batch_sequential(&sys, &cfg, &backend);
        for (a, b) in par.iter().zip(&seq) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.topology, b.topology);
            assert_eq!(a.violation.to_bits(), b.violation.to_bits());
        }
    }

    /// One scratch carried across heterogeneous cells (including a
    /// different client count, which forces a buffer rebind to a new
    /// shape) must reproduce the scratch-free path bit for bit.
    #[test]
    fn scratch_reuse_is_bit_identical_across_heterogeneous_cells() {
        let mut sys = systems(4);
        let mut rng = DetRng::seed_from_u64(900);
        let big = InterferenceTopology::random(9, 5, (0.15, 0.6), 0.4, &mut rng);
        sys.push(ConstraintSystem::from_topology(&big));
        let cfg = InferenceConfig::default();
        let mut scratch = InferScratch::default();
        for s in &sys {
            let with = infer_topology_with(s, &cfg, &mut scratch);
            let plain = crate::blueprint::infer::infer_topology(s, &cfg);
            assert_eq!(with.topology, plain.topology);
            assert_eq!(with.violation.to_bits(), plain.violation.to_bits());
            assert_eq!(with.verdict, plain.verdict);
            assert_eq!(with.iterations, plain.iterations);
        }
    }

    /// The cached front end must be byte-identical to the cache-free
    /// batch — including on a workload with repeated topology classes,
    /// where all repeats are served from one solve.
    #[test]
    fn cached_batch_matches_uncached_and_saves_work() {
        let distinct = systems(4);
        // 12 cells, 4 distinct classes, each class repeated 3×.
        let repeated: Vec<ConstraintSystem> = (0..12).map(|i| distinct[i % 4].clone()).collect();
        let cfg = InferenceConfig::default();
        let backend = InferenceBackend::Gradient;
        let cache = FleetBlueprintCache::new(64);
        let cached = infer_batch(&repeated, &cfg, &backend, Some(&cache));
        let plain = infer_batch(&repeated, &cfg, &backend, None);
        for (a, b) in cached.iter().zip(&plain) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.topology, b.topology, "cached result diverged");
            assert_eq!(a.violation.to_bits(), b.violation.to_bits());
            assert_eq!(a.verdict, b.verdict);
            assert_eq!(a.iterations, b.iterations);
        }
        let s = cache.stats();
        assert_eq!(s.misses, 4, "one solve per distinct class");
        assert_eq!(s.hits + s.delayed_hits, 8, "every repeat served from cache");
        assert!(s.work_saved() >= 0.5);
    }

    #[test]
    fn empty_batch_is_fine() {
        let out = infer_batch(
            &[],
            &InferenceConfig::default(),
            &InferenceBackend::Gradient,
            None,
        );
        assert!(out.is_empty());
    }

    /// The acceptance criterion of the resilience PR: a panicking cell
    /// must not cross the batch boundary, and its neighbours' results
    /// must be exactly what they would have been without it.
    #[test]
    fn panicking_cell_is_isolated() {
        let healthy = systems(4);
        let mut mixed = healthy.clone();
        mixed.insert(2, malformed());
        let cfg = InferenceConfig::default();
        let clean = infer_batch(&healthy, &cfg, &InferenceBackend::Gradient, None);
        let out = infer_batch(&mixed, &cfg, &InferenceBackend::Gradient, None);
        assert_eq!(out.len(), 5);
        match &out[2] {
            Err(BluError::Panicked(msg)) => {
                assert!(!msg.is_empty(), "panic payload must be captured");
            }
            other => panic!("expected contained panic, got {other:?}"),
        }
        for (i, j) in [(0usize, 0usize), (1, 1), (3, 2), (4, 3)] {
            let (a, b) = (out[i].as_ref().unwrap(), clean[j].as_ref().unwrap());
            assert_eq!(a.topology, b.topology, "healthy cell {i} was perturbed");
            assert_eq!(a.violation.to_bits(), b.violation.to_bits());
        }
    }

    #[test]
    fn invalid_config_is_reported_for_every_cell() {
        let sys = systems(3);
        let cfg = InferenceConfig {
            max_iters: 0,
            ..Default::default()
        };
        let out = infer_batch(&sys, &cfg, &InferenceBackend::Gradient, None);
        assert_eq!(out.len(), 3);
        for r in &out {
            assert!(matches!(r, Err(BluError::InvalidConfig(_))), "{r:?}");
        }
    }
}
