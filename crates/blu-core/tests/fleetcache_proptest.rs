//! Property tests of the fleet blueprint cache's canonical topology
//! signature and determinism contract:
//!
//! * the signature key (and the canonical bytes behind it) is
//!   invariant under any relabeling of a cell's UEs, across random
//!   geometries and both inference backends;
//! * an un-permuted cache hit returns a result **byte-identical** to
//!   the cell's own fresh solve, across random geometries, seeds and
//!   backends;
//! * distinct systems get distinct keys (no accidental canonical
//!   merging of different geometries).

use blu_core::blueprint::fleetcache::relabel_system;
use blu_core::blueprint::InferenceBackend;
use blu_core::blueprint::{
    ConstraintSystem, FleetBlueprintCache, FleetCacheEvent, InferScratch, InferenceConfig,
    InferenceResult, McmcConfig, TopologySignature,
};
use blu_sim::rng::DetRng;
use blu_sim::topology::InterferenceTopology;
use proptest::prelude::*;

/// A random measured-looking constraint system: random topology of
/// `n` UEs plus a few triple constraints.
fn system(n: usize, seed: u64) -> ConstraintSystem {
    let mut rng = DetRng::seed_from_u64(seed);
    let hts = 1 + (seed % 4) as usize;
    let topo = InterferenceTopology::random(n, hts, (0.15, 0.6), 0.4, &mut rng);
    let mut sys = ConstraintSystem::from_topology(&topo);
    if n >= 4 {
        sys.add_triples_from_topology(&topo, &[(0, 1, 2), (1, 2, 3)]);
    }
    sys
}

/// Shuffle `0..n` into a permutation with a deterministic RNG.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = DetRng::seed_from_u64(seed.wrapping_mul(0x9E3779B97F4A7C15));
    let mut perm: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut perm);
    perm
}

fn backend_of(mcmc: bool, seed: u64) -> InferenceBackend {
    if mcmc {
        InferenceBackend::Mcmc {
            config: McmcConfig {
                steps: 500,
                ..Default::default()
            },
            seed,
        }
    } else {
        InferenceBackend::Gradient
    }
}

fn assert_bit_identical(a: &InferenceResult, b: &InferenceResult) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.topology.n_clients, b.topology.n_clients);
    prop_assert_eq!(a.topology.hts.len(), b.topology.hts.len());
    for (x, y) in a.topology.hts.iter().zip(&b.topology.hts) {
        prop_assert_eq!(x.edges.0, y.edges.0);
        prop_assert_eq!(x.q.to_bits(), y.q.to_bits());
    }
    prop_assert_eq!(a.violation.to_bits(), b.violation.to_bits());
    prop_assert_eq!(a.iterations, b.iterations);
    prop_assert_eq!(a.restarts, b.restarts);
    prop_assert_eq!(a.residual_fraction.to_bits(), b.residual_fraction.to_bits());
    prop_assert_eq!(a.verdict, b.verdict);
    prop_assert_eq!(a.completed, b.completed);
    prop_assert_eq!(a.overshoot, b.overshoot);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Relabeling the UEs of a cell must not change its cache key:
    /// two cells seeing the same geometry under different labels
    /// share one entry.
    #[test]
    fn signature_is_permutation_invariant(
        n in 3usize..10,
        seed in 0u64..1_000,
        perm_seed in 0u64..1_000,
        mcmc in any::<bool>(),
    ) {
        let sys = system(n, seed);
        let perm = permutation(n, perm_seed);
        let relabeled = relabel_system(&sys, &perm);
        let config = InferenceConfig::default();
        let backend = backend_of(mcmc, seed);
        let a = TopologySignature::new(&sys, &config, &backend);
        let b = TopologySignature::new(&relabeled, &config, &backend);
        prop_assert_eq!(a.key(), b.key(), "key changed under relabeling {:?}", perm);
    }

    /// An un-permuted hit — the storm/repeat case the fleet cache
    /// exists for — must be byte-identical to the cell solving fresh.
    #[test]
    fn unpermuted_hits_are_byte_identical_to_fresh_inference(
        n in 3usize..9,
        seed in 0u64..1_000,
        mcmc in any::<bool>(),
    ) {
        let sys = system(n, seed);
        let config = InferenceConfig::default();
        let backend = backend_of(mcmc, seed);
        let fresh = backend.infer(&sys, &config);

        let cache = FleetBlueprintCache::new(8);
        let sig = TopologySignature::new(&sys, &config, &backend);
        let (published, ev) =
            backend.solve(&sys, &config, &mut InferScratch::default(), Some(&cache));
        prop_assert_eq!(ev, Some(FleetCacheEvent::Miss));
        let (hit, ev) = cache.get_or_solve(&sig, || {
            panic!("second lookup of the same signature must not re-solve")
        });
        prop_assert_eq!(ev, FleetCacheEvent::Hit);
        assert_bit_identical(&published, &fresh)?;
        assert_bit_identical(&hit, &fresh)?;
    }

    /// Different geometries must not collide canonically: the
    /// signature separates what the solver would treat differently.
    #[test]
    fn distinct_systems_get_distinct_keys(
        n in 3usize..9,
        seed in 0u64..500,
    ) {
        let a = system(n, seed);
        let b = system(n, seed + 7_919);
        let config = InferenceConfig::default();
        let backend = InferenceBackend::Gradient;
        let ka = TopologySignature::new(&a, &config, &backend).key();
        let kb = TopologySignature::new(&b, &config, &backend).key();
        // Random float targets make accidental canonical equality
        // impossible unless the systems really are equal.
        prop_assert!(ka != kb || a == b);
    }
}
