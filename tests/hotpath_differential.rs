//! Differential tests for the scheduler hot-path overhaul: the
//! pruned incremental greedy builder must be **bit-identical** to its
//! exhaustive reference — the overhaul buys speed, never different
//! schedules.

use blu_core::emulator::{EmulationConfig, Emulator};
use blu_core::joint::TopologyAccess;
use blu_core::sched::{MatrixRates, SchedInput, SpeculativeScheduler, UlScheduler};
use blu_sim::rng::DetRng;
use blu_sim::time::Micros;
use blu_sim::topology::InterferenceTopology;
use blu_traces::capture::{capture_synthetic, CaptureConfig};

fn small_trace(seed: u64) -> blu_traces::schema::TestbedTrace {
    capture_synthetic(
        &CaptureConfig {
            duration: Micros::from_secs(12),
            q_range: (0.25, 0.6),
            ..CaptureConfig::testbed_default()
        },
        seed,
    )
}

/// Drive pruned and exhaustive builders through the same coevolving
/// PF stream and require byte-identical schedules every sub-frame.
#[test]
fn pruned_greedy_bit_identical_to_exhaustive_stream() {
    for seed in 0..8u64 {
        let mut rng = DetRng::seed_from_u64(seed);
        let topo = InterferenceTopology::random(9, 7, (0.15, 0.65), 0.4, &mut rng);
        let access = TopologyAccess::new(&topo);
        let mut pruned = SpeculativeScheduler::new(&access);
        let mut exhaustive = SpeculativeScheduler::exhaustive(&access);
        assert!(pruned.pruning_enabled() && !exhaustive.pruning_enabled());

        let n = 9;
        let n_rbs = 12;
        let rates = MatrixRates::build(n, n_rbs, |u, b| {
            500.0 + ((u * 37 + b * 11 + 3) % 17) as f64 * 60.0
        });
        // Each scheduler evolves its own PF averages from its own
        // grants; identical schedules keep the streams locked.
        let mut avg_p = vec![300.0; n];
        let mut avg_e = avg_p.clone();
        for sf in 0..40u64 {
            let m_antennas = 1 + (sf % 2) as usize;
            let input_p = SchedInput {
                n_clients: n,
                n_rbs,
                m_antennas,
                k_max: n,
                max_group: 2 * m_antennas,
                rates: &rates,
                avg_tput: &avg_p,
            };
            let s_p = pruned.schedule(&input_p);
            let input_e = SchedInput {
                avg_tput: &avg_e,
                ..input_p
            };
            let s_e = exhaustive.schedule(&input_e);
            assert_eq!(s_p, s_e, "seed {seed}, sub-frame {sf}");
            assert_eq!(
                serde_json::to_string(&s_p).unwrap(),
                serde_json::to_string(&s_e).unwrap(),
                "seed {seed}, sub-frame {sf}: JSON must match byte for byte"
            );
            for (ue, (ap, ae)) in avg_p.iter_mut().zip(avg_e.iter_mut()).enumerate() {
                let granted: f64 = (0..n_rbs)
                    .filter(|&rb| s_p.clients[rb].contains(ue))
                    .map(|rb| 500.0 + ((ue * 37 + rb * 11 + 3) % 17) as f64 * 60.0)
                    .sum();
                *ap = 0.99 * *ap + 0.01 * granted;
                *ae = 0.99 * *ae + 0.01 * granted;
            }
        }
    }
}

/// Full emulator replays must agree exactly (identical schedules give
/// identical counters, down to the float bits).
#[test]
fn pruned_greedy_bit_identical_through_emulator() {
    for seed in [3u64, 11, 29] {
        let trace = small_trace(seed);
        let access = TopologyAccess::new(&trace.ground_truth);
        let run = |sched: &mut dyn UlScheduler| {
            let mut cfg = EmulationConfig::new(blu_phy::cell::CellConfig::testbed_mumimo2());
            cfg.n_txops = 80;
            Emulator::new(&trace, cfg)
                .expect("emulator setup")
                .run(sched, None)
                .metrics
        };
        let m_pruned = run(&mut SpeculativeScheduler::new(&access));
        let m_exhaustive = run(&mut SpeculativeScheduler::exhaustive(&access));
        assert_eq!(
            serde_json::to_string(&m_pruned).unwrap(),
            serde_json::to_string(&m_exhaustive).unwrap(),
            "seed {seed}"
        );
    }
}
