//! Differential property test of the restart-portfolio fast path:
//! [`infer_topology_with`] (replay of repeated starts, sparse-coverage
//! weight refinement, one scratch reused across every case) must
//! return exactly what the plain reference [`infer_topology`] returns,
//! on noisy constraint systems and under step budgets — including
//! budgets that run out exactly where a repeated start is replayed.

use blu_core::blueprint::constraints::TransformedTopology;
use blu_core::blueprint::init::starting_topologies;
use blu_core::blueprint::{
    infer_topology, infer_topology_with, refine_topology_with, ConstraintSystem, InferScratch,
    InferenceConfig, InferenceResult,
};
use blu_core::runtime::deadline::Deadline;
use blu_sim::rng::DetRng;
use blu_sim::topology::InterferenceTopology;
use proptest::prelude::*;
use std::cell::RefCell;

thread_local! {
    /// One scratch for every case on this thread, so stale records,
    /// coverage rows and tracker buffers from earlier (differently
    /// sized) systems are exercised too.
    static SCRATCH: RefCell<InferScratch> = RefCell::new(InferScratch::default());
}

/// A random topology's exact constraint system with every target
/// perturbed multiplicatively (measured inputs never match a
/// topology exactly), optionally with triple constraints.
fn noisy_system(seed: u64, n: usize, with_triples: bool) -> ConstraintSystem {
    let mut rng = DetRng::seed_from_u64(seed);
    let n_hts = 1 + rng.below(n);
    let truth = InterferenceTopology::random(n, n_hts, (0.15, 0.6), 0.4, &mut rng);
    let mut sys = ConstraintSystem::from_topology(&truth);
    if with_triples && n >= 3 {
        let triples = [(0, 1, 2), (n - 3, n - 2, n - 1)];
        sys.add_triples_from_topology(&truth, &triples);
    }
    let noise = rng.range_f64(0.0, 0.2);
    for t in sys.individual.iter_mut().chain(sys.pair.iter_mut()) {
        *t *= 1.0 + rng.range_f64(-noise, noise);
    }
    for t in sys.triples.iter_mut() {
        t.target *= 1.0 + rng.range_f64(-noise, noise);
    }
    sys
}

fn same_bits(a: &TransformedTopology, b: &TransformedTopology) -> bool {
    a.hts.len() == b.hts.len()
        && a.hts
            .iter()
            .zip(&b.hts)
            .all(|(x, y)| x.edges == y.edges && x.q_t.to_bits() == y.q_t.to_bits())
}

/// Step budgets at which a repeated start's replay exactly fits (the
/// budget ends on its last iteration), plus the budgets one below
/// (the restart must run for real and be cut) and one above. Each
/// restart's iteration count is what a single repair from that start
/// spends, which [`refine_topology_with`] reports.
fn replay_boundaries(sys: &ConstraintSystem, config: &InferenceConfig) -> Vec<u64> {
    let starts = starting_topologies(sys, config.random_restarts);
    let unbounded = InferenceConfig {
        deadline: Deadline::None,
        ..*config
    };
    let mut scratch = InferScratch::default();
    let mut before = 0u64;
    let mut out = Vec::new();
    for (k, start) in starts.iter().enumerate() {
        let iters =
            refine_topology_with(sys, &unbounded, start.clone(), &mut scratch).iterations as u64;
        if starts[..k].iter().any(|s| same_bits(s, start)) {
            let fit = before + iters;
            out.extend([fit.saturating_sub(1).max(1), fit.max(1), fit + 1]);
        }
        before += iters;
    }
    out
}

fn assert_same(fast: &InferenceResult, reference: &InferenceResult) -> Result<(), TestCaseError> {
    prop_assert_eq!(&fast.topology, &reference.topology);
    prop_assert_eq!(fast.violation.to_bits(), reference.violation.to_bits());
    prop_assert_eq!(fast.iterations, reference.iterations);
    prop_assert_eq!(fast.restarts, reference.restarts);
    prop_assert_eq!(fast.completed, reference.completed);
    prop_assert_eq!(fast.verdict, reference.verdict);
    prop_assert_eq!(fast.overshoot, reference.overshoot);
    prop_assert_eq!(
        fast.residual_fraction.to_bits(),
        reference.residual_fraction.to_bits()
    );
    Ok(())
}

fn check(sys: &ConstraintSystem, config: &InferenceConfig) -> Result<(), TestCaseError> {
    let reference = infer_topology(sys, config);
    let fast = SCRATCH.with(|s| infer_topology_with(sys, config, &mut s.borrow_mut()));
    assert_same(&fast, &reference)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn portfolio_replay_matches_reference(
        seed in any::<u64>(),
        n in 3usize..=9,
        with_triples in any::<bool>(),
        random_restarts in 0usize..=6,
        budgets in collection::vec(1u64..=1500, 3),
    ) {
        let sys = noisy_system(seed, n, with_triples);
        let config = InferenceConfig {
            random_restarts,
            ..InferenceConfig::default()
        };
        check(&sys, &config)?;
        let boundaries = replay_boundaries(&sys, &config);
        for b in budgets.into_iter().chain(boundaries) {
            check(&sys, &InferenceConfig { deadline: Deadline::Steps(b), ..config })?;
        }
    }
}

/// The property above only bites if repeated starts occur: on small
/// cells the clique variants coincide, so the portfolio must contain
/// repeats and the boundary budgets must exist.
#[test]
fn small_cells_produce_repeated_starts() {
    let config = InferenceConfig::default();
    let with_repeats = (0..16u64)
        .filter(|&seed| !replay_boundaries(&noisy_system(seed, 4, false), &config).is_empty())
        .count();
    assert!(
        with_repeats >= 8,
        "only {with_repeats} of 16 cells repeat a start"
    );
}
