//! Property-based tests of the fault-injection substrate and the
//! degraded-mode invariants: no adversarial input stream may panic
//! the estimator, corrupt its counting invariants, or push the
//! inference outside probability space.

use blu_core::blueprint::infer::{InferenceConfig, InferenceVerdict};
use blu_core::blueprint::{InferScratch, InferenceBackend};
use blu_core::measure::OutcomeEstimator;
use blu_core::orchestrator::blueprint_from_measurements_with;
use blu_sim::clientset::ClientSet;
use blu_sim::faults::{FaultEvent, FaultKind, FaultScript, ObservationChannel};
use blu_sim::rng::DetRng;
use blu_traces::stats::EmpiricalAccess;
use proptest::prelude::*;

/// Strategy: an adversarial stream of (observed, accessible) set
/// pairs — `accessible` is clipped to `observed` the way the
/// measurement path guarantees, but otherwise arbitrary.
fn arb_stream(n: usize) -> impl Strategy<Value = Vec<(ClientSet, ClientSet)>> {
    collection::vec((0u64..(1 << n), 0u64..(1 << n)), 0..200).prop_map(move |raw| {
        raw.into_iter()
            .map(|(o, a)| {
                let observed = ClientSet(o as u128);
                let accessible = ClientSet(a as u128 & o as u128);
                (observed, accessible)
            })
            .collect()
    })
}

fn stats_invariants_hold(e: &EmpiricalAccess) -> bool {
    let ind = e
        .acc_individual
        .iter()
        .zip(&e.obs_individual)
        .all(|(a, o)| a <= o);
    let pair = e.acc_pair.iter().zip(&e.obs_pair).all(|(a, o)| a <= o);
    let probs = (0..e.n).all(|i| {
        e.p_individual(i).is_none_or(|p| (0.0..=1.0).contains(&p))
            && (i + 1..e.n).all(|j| e.p_pair(i, j).is_none_or(|p| (0.0..=1.0).contains(&p)))
    });
    ind && pair && probs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Adversarial observation streams keep the estimator's counting
    /// invariants (acc ≤ obs, probabilities in [0,1]), and decay at
    /// any factor preserves them.
    #[test]
    fn estimator_invariants_under_adversarial_streams(
        stream in arb_stream(6),
        keep_bits in any::<u64>(),
    ) {
        // Any bit pattern, including NaN and the infinities.
        let keep = f64::from_bits(keep_bits);
        let mut est = OutcomeEstimator::new(6);
        for &(obs, acc) in &stream {
            est.stats_mut().record(obs, acc);
        }
        prop_assert!(stats_invariants_hold(est.stats()));
        est.decay(keep); // clamped internally, even for NaN/∞
        prop_assert!(stats_invariants_hold(est.stats()));
    }

    /// Inference over arbitrary (even mutually inconsistent) measured
    /// statistics always yields probabilities in [0,1], a finite
    /// residual fraction, and a coherent verdict — never a panic.
    #[test]
    fn inference_stays_in_probability_space(stream in arb_stream(5)) {
        let mut est = OutcomeEstimator::new(5);
        for &(obs, acc) in &stream {
            est.stats_mut().record(obs, acc);
        }
        let result = blueprint_from_measurements_with(
            &est,
            &InferenceConfig::default(),
            &InferenceBackend::default(),
            &mut InferScratch::default(),
        );
        for ht in &result.topology.hts {
            prop_assert!((0.0..=1.0).contains(&ht.q), "q = {}", ht.q);
        }
        for i in 0..5 {
            let p = result.topology.p_individual(i);
            prop_assert!((0.0..=1.0).contains(&p), "p({i}) = {p}");
        }
        prop_assert!(result.residual_fraction.is_finite());
        prop_assert!((0.0..=1.0).contains(&result.confidence()));
        prop_assert!(matches!(
            result.verdict,
            InferenceVerdict::Converged | InferenceVerdict::MaxIters | InferenceVerdict::Degraded
        ));
    }

    /// The observation channel never invents observations, never
    /// leaks accessibility outside the observed set, and is a pure
    /// function of its RNG state (deterministic under replay).
    #[test]
    fn observation_channel_is_contained_and_deterministic(
        stream in arb_stream(6),
        misclassify in 0.0f64..1.0,
        drop in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let state = blu_sim::faults::ObsFaultState {
            misclassify_rate: misclassify,
            drop_rate: drop,
        };
        let mut a = ObservationChannel::new(DetRng::seed_from_u64(seed));
        let mut b = ObservationChannel::new(DetRng::seed_from_u64(seed));
        for &(obs, acc) in &stream {
            let out_a = a.corrupt(state, obs, acc);
            let out_b = b.corrupt(state, obs, acc);
            prop_assert_eq!(out_a, out_b);
            if let Some((o, c)) = out_a {
                prop_assert_eq!(o, obs, "observed set must pass through unaltered");
                prop_assert!(c.is_subset_of(obs), "corrupted accessibility leaked outside observed");
            }
        }
    }

    /// Scripted fault schedules are queried, validated, and applied
    /// without panicking for arbitrary event soups; validation
    /// rejects exactly the out-of-range inputs.
    #[test]
    fn fault_scripts_never_panic(
        raw in collection::vec(
            (0u64..50_000, 0u8..6, 0usize..12, any::<u64>(), 0u64..64),
            0..12,
        ),
    ) {
        let events: Vec<FaultEvent> = raw
            .into_iter()
            .map(|(sf, kind, ht, p_bits, bits)| FaultEvent {
                at_subframe: sf,
                kind: {
                    // Any bit pattern for the probability, NaN included.
                    let p = f64::from_bits(p_bits);
                    match kind {
                        0 => FaultKind::HtAppear { q: p, edges: ClientSet(bits as u128) },
                        1 => FaultKind::HtDisappear { ht },
                        2 => FaultKind::QDrift { ht, q: p },
                        3 => FaultKind::EdgeChurn { ht, toggle: ClientSet(bits as u128) },
                        4 => FaultKind::MisclassifyRate { rate: p },
                        _ => FaultKind::DropRate { rate: p },
                    }
                },
            })
            .collect();
        let script = FaultScript::new(events);
        // Querying any scripted or unscripted subframe must not panic
        // regardless of validity.
        let _ = script.topology_event_subframes();
        let _ = script.obs_state_at(0);
        let _ = script.obs_state_at(25_000);
        let _ = script.has_observation_faults();
        let _ = script.n_appearing();
        // Validation itself must be total (Ok or typed error).
        let _ = script.validate(6, 4);
    }
}
