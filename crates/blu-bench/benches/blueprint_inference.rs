//! Inference fast-path microbenchmarks: the incremental delta-energy
//! MCMC chain vs the clone-and-recompute reference, the
//! [`ResidualTracker`] shift kernel itself, and the parallel batch
//! front end vs its sequential twin.

use blu_core::blueprint::batch::{infer_batch, infer_batch_sequential};
use blu_core::blueprint::mcmc::{infer_mcmc, infer_mcmc_scratch, McmcConfig};
use blu_core::blueprint::{ConstraintSystem, InferenceBackend, InferenceConfig, ResidualTracker};
use blu_sim::rng::DetRng;
use blu_sim::topology::InterferenceTopology;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn system(n: usize, h: usize, seed: u64) -> ConstraintSystem {
    let mut rng = DetRng::seed_from_u64(seed);
    let topo = InterferenceTopology::random(n, h, (0.15, 0.5), 0.35, &mut rng);
    let mut sys = ConstraintSystem::from_topology(&topo);
    sys.add_triples_from_topology(&topo, &[(0, 1, 2), (1, 2, 3)]);
    sys
}

fn bench_mcmc_fast_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("mcmc_fast_path");
    let cfg = McmcConfig {
        steps: 5_000,
        ..Default::default()
    };
    for (name, n, h) in [("testbed_6x4", 6usize, 4usize), ("dense_10x8", 10, 8)] {
        let sys = system(n, h, 42);
        group.bench_function(format!("incremental_{name}"), |b| {
            b.iter(|| black_box(infer_mcmc(black_box(&sys), &cfg, 1)))
        });
        group.bench_function(format!("scratch_{name}"), |b| {
            b.iter(|| black_box(infer_mcmc_scratch(black_box(&sys), &cfg, 1)))
        });
    }
    group.finish();
}

fn bench_residual_kernel(c: &mut Criterion) {
    let sys = system(10, 8, 7);
    let mut tracker = ResidualTracker::new(&sys);
    let edges = blu_sim::clientset::ClientSet::from_iter([0, 2, 3, 7]);
    c.bench_function("residual_shift_kernel", |b| {
        b.iter(|| {
            // Shift up then back down: residuals end where they
            // started, so the iteration is state-neutral.
            black_box(tracker.shift(black_box(edges), 0.25));
            black_box(tracker.shift(black_box(edges), -0.25));
        })
    });
}

fn bench_batch(c: &mut Criterion) {
    let systems: Vec<ConstraintSystem> = (0..8).map(|s| system(8, 6, 100 + s)).collect();
    let cfg = InferenceConfig::default();
    let mut group = c.benchmark_group("batch_inference");
    group.sample_size(10);
    group.bench_function("parallel_8_cells", |b| {
        b.iter(|| {
            black_box(infer_batch(
                black_box(&systems),
                &cfg,
                &InferenceBackend::Gradient,
                None,
            ))
        })
    });
    group.bench_function("sequential_8_cells", |b| {
        b.iter(|| {
            black_box(infer_batch_sequential(
                black_box(&systems),
                &cfg,
                &InferenceBackend::Gradient,
            ))
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_mcmc_fast_path, bench_residual_kernel, bench_batch
}
criterion_main!(benches);
