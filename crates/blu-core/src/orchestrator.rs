//! The full BLU loop (paper Fig. 9): measurement phase → blue-print →
//! speculative phase.
//!
//! Phase 1 schedules measurement sub-frames per Algorithm 1 (clients
//! still carry data, but the schedule is chosen for information, not
//! throughput) and estimates `p(i)`, `p(i,j)` from pilot-classified
//! outcomes. The topology is then blue-printed from those pairwise
//! statistics, and phase 2 runs the speculative scheduler against the
//! inferred blue-print for `L >> t_max` sub-frames. Outcomes observed
//! during phase 2 keep feeding the estimator, which is why subsequent
//! measurement phases are shorter than the first (§3.7).
//!
//! [`run_blu`] is a single composition of the engine's five stages —
//! measure → infer → generate → schedule → transmit — over one fresh
//! [`CellSnapshot`]: the two-phase loop *is* the pipeline, run once.

use crate::blueprint::accuracy::{topology_accuracy, AccuracyReport};
use crate::blueprint::{
    ConstraintSystem, InferScratch, InferenceBackend, InferenceConfig, InferenceResult,
};
use crate::emulator::{EmulationConfig, EmulationReport};
use crate::engine::stages::run_measure_plan;
use crate::engine::{
    AccessMode, CellContext, CellEngine, CellSnapshot, GenerateStage, InferStage, MeasureFidelity,
    MeasureStage, NullObserver, SchedulePolicy, ScheduleStage, TransmitFeed, TransmitStage,
};
use crate::error::BluError;
use crate::joint::TopologyAccess;
use crate::measure::{measurement_schedule, OutcomeEstimator};
use crate::runtime::breaker::BreakerConfig;
use crate::sched::SpeculativeScheduler;
use blu_traces::schema::TestbedTrace;

/// Configuration of a two-phase BLU run.
#[derive(Debug, Clone)]
pub struct BluConfig {
    /// Emulation parameters (cell, TxOPs for the speculative phase).
    pub emulation: EmulationConfig,
    /// Measurement samples per client pair (`T`).
    pub t_samples: u64,
    /// Topology-inference configuration.
    pub inference: InferenceConfig,
}

impl BluConfig {
    /// Paper-flavoured defaults for a cell: `T = 50`.
    pub fn new(emulation: EmulationConfig) -> Self {
        BluConfig {
            emulation,
            t_samples: 50,
            inference: InferenceConfig::default(),
        }
    }
}

/// Everything a BLU run produces.
#[derive(Debug, Clone)]
pub struct BluRunReport {
    /// Sub-frames spent in the measurement phase (`t_max`).
    pub measurement_subframes: u64,
    /// The information-theoretic floor for comparison.
    pub measurement_floor: u64,
    /// The inference outcome.
    pub inference: InferenceResult,
    /// Accuracy of the blue-print against the trace's ground truth.
    pub accuracy: AccuracyReport,
    /// Speculative-phase performance.
    pub speculative: EmulationReport,
}

/// Run the measurement phase against a trace: execute the Algorithm-1
/// plan, reading each scheduled client's CCA outcome from the access
/// trace, and return the estimator plus the sub-frames consumed.
///
/// Errors with [`BluError::TraceTooShort`] when the plan does not fit
/// inside the trace — the access trace wraps on replay, and wrapped
/// measurement would silently re-sample the same prefix, biasing the
/// pairwise statistics the blue-print is built from.
pub fn run_measurement_phase(
    trace: &TestbedTrace,
    k_max: usize,
    t_samples: u64,
) -> Result<(OutcomeEstimator, u64), BluError> {
    let n = trace.ground_truth.n_clients;
    let plan = measurement_schedule(n, k_max, t_samples)?;
    if plan.t_max() > trace.access.len() as u64 {
        return Err(BluError::TraceTooShort {
            what: "measurement phase",
            needed: plan.t_max(),
            available: trace.access.len() as u64,
        });
    }
    let mut est = OutcomeEstimator::new(n);
    // Scheduled clients that pass CCA transmit; the estimator's stats
    // object records observed vs accessed directly (the full-fidelity
    // pilot path is exercised by the engine).
    run_measure_plan(trace, &plan, 0, &mut est, None);
    Ok((est, plan.t_max()))
}

/// Run the measurement phase at **full fidelity**: the Algorithm-1
/// plan is executed through the cell engine (grants, CCA, pilots, ZF
/// decode), and the estimator is fed by the pilot-classified
/// outcomes. One TxOP carries one planned client set over its whole
/// UL burst (grants are per-burst), so the phase consumes
/// `t_max × ul_subframes` UL sub-frames while collecting
/// `burst`-fold samples per plan entry.
pub fn run_measurement_phase_full(
    trace: &TestbedTrace,
    emulation: &EmulationConfig,
    t_samples: u64,
) -> Result<(OutcomeEstimator, u64), BluError> {
    let n = trace.ground_truth.n_clients;
    let plan = measurement_schedule(n, emulation.cell.max_ues_per_subframe.max(2), t_samples)?;
    let per_txop = emulation.cell.txop.dl_subframes + emulation.cell.txop.ul_subframes;
    let needed = emulation.start_subframe + plan.t_max() * per_txop;
    if needed > trace.access.len() as u64 {
        return Err(BluError::TraceTooShort {
            what: "full-fidelity measurement phase",
            needed,
            available: trace.access.len() as u64,
        });
    }
    let mut est = OutcomeEstimator::new(n);
    let mut scheduler = crate::sched::MeasurementScheduler::new(&plan)?;
    let mut engine =
        CellEngine::with_config(trace, emulation)?.segment(plan.t_max(), emulation.start_subframe);
    engine.run_segment(
        &mut scheduler,
        Some(&mut est),
        AccessMode::BackToBack,
        &mut NullObserver,
    );
    Ok((est, plan.t_max() * emulation.cell.txop.ul_subframes))
}

/// Blue-print a topology from measured statistics: one
/// [`InferenceBackend::solve`] over the estimator's constraint
/// system, against caller-provided scratch, so a caller blue-printing
/// repeatedly (an eNB re-measuring between TxOPs, or the perf
/// harnesses timing the pass) recycles the gradient tracker's flat
/// buffers instead of re-allocating them per run.
pub fn blueprint_from_measurements_with(
    est: &OutcomeEstimator,
    config: &InferenceConfig,
    backend: &InferenceBackend,
    scratch: &mut InferScratch,
) -> InferenceResult {
    let sys = ConstraintSystem::from_measurements(est.stats());
    backend.solve(&sys, config, scratch, None).0
}

/// Run the complete two-phase loop on a trace: one pass of the
/// engine's full five-stage pipeline over a fresh snapshot.
pub fn run_blu(trace: &TestbedTrace, config: &BluConfig) -> Result<BluRunReport, BluError> {
    let n = trace.ground_truth.n_clients;
    let k = config.emulation.cell.max_ues_per_subframe;
    let backend = InferenceBackend::default();
    // The vanilla loop has no fault script, drift gate or breaker —
    // the snapshot is just the pipeline's working state.
    let mut snap = CellSnapshot::fresh(
        n,
        trace.access.len() as u64,
        0,
        0.0,
        BreakerConfig::default(),
    );
    let mut ctx = CellContext::new(
        trace,
        None,
        &config.emulation,
        &config.inference,
        &backend,
        &mut snap,
    );
    let mut measure = MeasureStage {
        t_samples: config.t_samples,
        fidelity: MeasureFidelity::Strict {
            what: "measurement phase",
        },
    };
    let mut infer = InferStage { gate: None };
    let mut generate = GenerateStage;
    let mut schedule = ScheduleStage {
        policy: SchedulePolicy::FullRun,
    };
    // Phase-2 outcomes keep feeding the estimator (future phases
    // start warm, §3.7).
    let mut transmit = TransmitStage {
        feed: TransmitFeed::Estimator,
    };
    crate::engine::run_pipeline(
        &mut ctx,
        &mut [
            &mut measure,
            &mut infer,
            &mut generate,
            &mut schedule,
            &mut transmit,
        ],
        &mut NullObserver,
    )?;
    let speculative = ctx
        .last_report
        .take()
        .expect("a full-run pipeline always transmits");
    drop(ctx);
    let inference = snap
        .blueprint
        .take()
        .expect("ungated inference always installs a blueprint");
    let accuracy = topology_accuracy(&trace.ground_truth, &inference.topology);
    let floor = crate::measure::min_subframes(n, k.min(n), config.t_samples)?;
    Ok(BluRunReport {
        measurement_subframes: snap.measurement_subframes,
        measurement_floor: floor,
        inference,
        accuracy,
        speculative,
    })
}

/// §3.7 "Tracking Dynamics": run the two-phase loop over a sequence
/// of environment *epochs* (each a trace with its own topology —
/// clients and interferers move at the tens-of-seconds scale). Each
/// epoch re-measures and re-blue-prints before its speculative phase,
/// which is how BLU stays inside the stationary regime.
pub fn run_blu_adaptive(
    epochs: &[&TestbedTrace],
    config: &BluConfig,
) -> Result<Vec<BluRunReport>, BluError> {
    epochs.iter().map(|t| run_blu(t, config)).collect()
}

/// The non-adaptive strawman for the dynamics experiment: blue-print
/// once on the first epoch, then keep speculating on that stale
/// blue-print as the environment changes underneath.
pub fn run_blu_stale(
    epochs: &[&TestbedTrace],
    config: &BluConfig,
) -> Result<Vec<BluRunReport>, BluError> {
    if epochs.is_empty() {
        return Err(BluError::EmptyInput("epoch list"));
    }
    let k = config.emulation.cell.max_ues_per_subframe;
    let (est, t_max) = run_measurement_phase(epochs[0], k, config.t_samples)?;
    let inference = blueprint_from_measurements_with(
        &est,
        &config.inference,
        &InferenceBackend::default(),
        &mut InferScratch::default(),
    );
    let inferred = inference.topology.clone();
    let floor = crate::measure::min_subframes(
        epochs[0].ground_truth.n_clients,
        k.min(epochs[0].ground_truth.n_clients),
        config.t_samples,
    )?;
    epochs
        .iter()
        .map(|trace| {
            let access = TopologyAccess::new(&inferred);
            let mut scheduler = SpeculativeScheduler::new(&access);
            let mut engine = CellEngine::with_config(trace, &config.emulation)?;
            let speculative = engine.run_segment(
                &mut scheduler,
                None,
                AccessMode::BackToBack,
                &mut NullObserver,
            );
            Ok(BluRunReport {
                measurement_subframes: t_max,
                measurement_floor: floor,
                inference: inference.clone(),
                accuracy: topology_accuracy(&trace.ground_truth, &inferred),
                speculative,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emulator::Emulator;
    use crate::sched::PfScheduler;
    use blu_phy::cell::CellConfig;
    use blu_sim::time::Micros;
    use blu_traces::capture::{capture_synthetic, CaptureConfig};

    fn quick_trace(seed: u64) -> TestbedTrace {
        capture_synthetic(
            &CaptureConfig {
                duration: Micros::from_secs(60),
                q_range: (0.25, 0.55),
                ..CaptureConfig::testbed_default()
            },
            seed,
        )
    }

    fn quick_config(n_txops: u64) -> BluConfig {
        let mut cell = CellConfig::testbed_siso();
        cell.numerology.n_rbs = 10;
        let mut emu = EmulationConfig::new(cell);
        emu.n_txops = n_txops;
        BluConfig::new(emu)
    }

    #[test]
    fn measurement_phase_covers_all_pairs() {
        let trace = quick_trace(1);
        let (est, t_max) = run_measurement_phase(&trace, 8, 30).unwrap();
        assert!(est.stats().min_pair_samples() >= 30);
        assert!(t_max >= 30); // at least T sub-frames
        for i in 0..trace.ground_truth.n_clients {
            let emp = est.stats().p_individual(i).unwrap();
            let truth = trace.ground_truth.p_individual(i);
            assert!((emp - truth).abs() < 0.25, "client {i}: {emp} vs {truth}");
        }
    }

    #[test]
    fn full_loop_runs_and_beats_pf() {
        let trace = quick_trace(2);
        let config = quick_config(150);
        let report = run_blu(&trace, &config).unwrap();
        assert!(report.measurement_subframes >= report.measurement_floor);
        assert!(report.speculative.metrics.bits_delivered > 0.0);

        // Baseline PF on the same trace.
        let mut emu = Emulator::new(&trace, config.emulation.clone()).unwrap();
        let pf = emu.run(&mut PfScheduler, None);
        assert!(
            report.speculative.metrics.rb_utilization() > pf.metrics.rb_utilization(),
            "BLU(inferred) {} vs PF {}",
            report.speculative.metrics.rb_utilization(),
            pf.metrics.rb_utilization()
        );
    }

    #[test]
    fn inference_from_measured_stats_is_reasonable() {
        // With a full measurement phase at T = 200, inference should
        // find most terminals exactly (noisy-input regime of Fig 14).
        let trace = quick_trace(3);
        let (est, _) = run_measurement_phase(&trace, 8, 200).unwrap();
        let result = blueprint_from_measurements_with(
            &est,
            &InferenceConfig::default(),
            &InferenceBackend::default(),
            &mut InferScratch::default(),
        );
        let acc = topology_accuracy(&trace.ground_truth, &result.topology);
        assert!(
            acc.exact_fraction() >= 0.5,
            "accuracy {} ({} of {} HTs, {} inferred)",
            acc.exact_fraction(),
            acc.exact_matches,
            acc.n_truth,
            acc.n_inferred
        );
    }

    #[test]
    fn deterministic_runs() {
        let trace = quick_trace(4);
        let config = quick_config(40);
        let a = run_blu(&trace, &config).unwrap();
        let b = run_blu(&trace, &config).unwrap();
        assert_eq!(a.speculative.metrics, b.speculative.metrics);
        assert_eq!(a.inference.topology, b.inference.topology);
    }

    #[test]
    fn gradient_backend_matches_direct_call() {
        let trace = quick_trace(6);
        let (est, _) = run_measurement_phase(&trace, 8, 40).unwrap();
        let cfg = InferenceConfig::default();
        let sys = ConstraintSystem::from_measurements(est.stats());
        let (a, event) =
            InferenceBackend::default().solve(&sys, &cfg, &mut InferScratch::default(), None);
        let b = crate::blueprint::infer_topology(&sys, &cfg);
        assert!(event.is_none(), "no cache, no cache event");
        assert_eq!(a.topology, b.topology);
        assert_eq!(a.violation.to_bits(), b.violation.to_bits());
        assert_eq!(a.verdict, b.verdict);
    }

    #[test]
    fn scratch_blueprint_matches_plain_across_reuse() {
        // One warm scratch threaded through several estimators must
        // reproduce the allocating path bit-for-bit every time — the
        // contract both perf benches lean on to time the same code.
        let cfg = InferenceConfig::default();
        let backend = InferenceBackend::default();
        let mut scratch = InferScratch::default();
        for s in 0..3 {
            let trace = quick_trace(20 + s);
            let (est, _) = run_measurement_phase(&trace, 8, 40).unwrap();
            let a = blueprint_from_measurements_with(&est, &cfg, &backend, &mut scratch);
            let sys = ConstraintSystem::from_measurements(est.stats());
            let b = crate::blueprint::infer_topology(&sys, &cfg);
            assert_eq!(a.topology, b.topology);
            assert_eq!(a.violation.to_bits(), b.violation.to_bits());
            assert_eq!(a.verdict, b.verdict);
        }
    }

    #[test]
    fn batch_blueprint_matches_sequential_mapping() {
        let cfg = InferenceConfig::default();
        let backend = InferenceBackend::default();
        let ests: Vec<OutcomeEstimator> = (0..4)
            .map(|s| {
                let trace = quick_trace(10 + s);
                run_measurement_phase(&trace, 8, 40).unwrap().0
            })
            .collect();
        let systems: Vec<ConstraintSystem> = ests
            .iter()
            .map(|est| ConstraintSystem::from_measurements(est.stats()))
            .collect();
        let batch = crate::blueprint::batch::infer_batch(&systems, &cfg, &backend, None);
        assert_eq!(batch.len(), ests.len());
        let mut scratch = InferScratch::default();
        for (est, got) in ests.iter().zip(&batch) {
            let got = got.as_ref().unwrap();
            let want = blueprint_from_measurements_with(est, &cfg, &backend, &mut scratch);
            assert_eq!(got.topology, want.topology, "batch must be bit-identical");
            assert_eq!(got.violation.to_bits(), want.violation.to_bits());
            assert_eq!(got.verdict, want.verdict);
        }
    }
}

#[cfg(test)]
mod dynamics_tests {
    use super::*;
    use blu_phy::cell::CellConfig;
    use blu_sim::time::Micros;
    use blu_traces::capture::{capture_synthetic, CaptureConfig};

    fn epoch(seed: u64) -> TestbedTrace {
        capture_synthetic(
            &CaptureConfig {
                duration: Micros::from_secs(30),
                q_range: (0.3, 0.6),
                ..CaptureConfig::testbed_default()
            },
            seed,
        )
    }

    #[test]
    fn adaptive_tracks_topology_change_better_than_stale() {
        // Two very different interference environments back-to-back.
        let a = epoch(31);
        let b = epoch(77);
        let epochs = [&a, &b];
        let mut cell = CellConfig::testbed_siso();
        cell.numerology.n_rbs = 10;
        let mut emu = crate::emulator::EmulationConfig::new(cell);
        emu.n_txops = 150;
        let config = BluConfig::new(emu);

        let adaptive = run_blu_adaptive(&epochs, &config).unwrap();
        let stale = run_blu_stale(&epochs, &config).unwrap();
        assert_eq!(adaptive.len(), 2);
        assert_eq!(stale.len(), 2);

        // On the changed epoch the stale blue-print no longer matches
        // the ground truth; the adaptive one does.
        assert!(
            adaptive[1].accuracy.exact_fraction() > stale[1].accuracy.exact_fraction(),
            "adaptive {} vs stale {}",
            adaptive[1].accuracy.exact_fraction(),
            stale[1].accuracy.exact_fraction()
        );
        // And performance on the changed epoch should not be worse.
        let at = adaptive[1].speculative.metrics.throughput_mbps();
        let st = stale[1].speculative.metrics.throughput_mbps();
        assert!(at >= st * 0.95, "adaptive {at} vs stale {st}");
    }
}

#[cfg(test)]
mod full_fidelity_tests {
    use super::*;
    use blu_phy::cell::CellConfig;
    use blu_sim::time::Micros;
    use blu_traces::capture::{capture_synthetic, CaptureConfig};

    /// The full-fidelity path (engine + pilots) must agree with the
    /// stats-level shortcut on the measured probabilities.
    #[test]
    fn full_fidelity_matches_stats_shortcut() {
        let trace = capture_synthetic(
            &CaptureConfig {
                duration: Micros::from_secs(60),
                q_range: (0.25, 0.55),
                ..CaptureConfig::testbed_default()
            },
            5,
        );
        let mut cell = CellConfig::testbed_siso();
        cell.numerology.n_rbs = 10;
        let emu_cfg = EmulationConfig::new(cell);
        let (full, consumed) = run_measurement_phase_full(&trace, &emu_cfg, 40).unwrap();
        let (quick, _) = run_measurement_phase(&trace, 8, 40).unwrap();
        assert!(consumed > 0);
        assert!(full.stats().min_pair_samples() >= 40);
        for i in 0..trace.ground_truth.n_clients {
            let a = full.stats().p_individual(i).unwrap();
            let b = quick.stats().p_individual(i).unwrap();
            let truth = trace.ground_truth.p_individual(i);
            assert!((a - truth).abs() < 0.2, "full path UE {i}: {a} vs {truth}");
            assert!(
                (a - b).abs() < 0.25,
                "paths disagree for UE {i}: {a} vs {b}"
            );
        }
    }
}
