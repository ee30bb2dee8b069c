//! Shared experiment runners.

use blu_core::blueprint::{topology_accuracy, InferScratch, InferenceBackend, InferenceConfig};
use blu_core::emulator::{EmulationConfig, Emulator};
use blu_core::engine::FleetEngine;
use blu_core::joint::{EmpiricalPatternAccess, TopologyAccess};
use blu_core::metrics::UplinkMetrics;
use blu_core::orchestrator::{blueprint_from_measurements_with, run_measurement_phase};
use blu_core::sched::{AccessAwareScheduler, PfScheduler, SpeculativeScheduler};
use blu_phy::cell::CellConfig;
use blu_traces::schema::TestbedTrace;
use serde::Serialize;

/// Which scheduler variants to evaluate.
#[derive(Debug, Clone)]
pub struct CompareOpts {
    /// Cell configuration.
    pub cell: CellConfig,
    /// TxOPs per run.
    pub n_txops: u64,
    /// Also run BLU with a topology inferred from a measurement
    /// phase (Figs. 16–18 path).
    pub with_inferred: bool,
    /// Also run BLU with joint distributions counted directly from
    /// the trace (Fig. 15's perfect-knowledge path).
    pub with_empirical: bool,
    /// Measurement samples per pair when inferring.
    pub t_samples: u64,
    /// Infer from full-trace access statistics (the paper's Fig-15/16
    /// methodology) instead of an Algorithm-1 measurement phase of
    /// `t_samples` per pair.
    pub infer_from_full_trace: bool,
}

impl CompareOpts {
    /// Defaults for a cell.
    pub fn new(cell: CellConfig, n_txops: u64) -> Self {
        CompareOpts {
            cell,
            n_txops,
            with_inferred: false,
            with_empirical: false,
            t_samples: 50,
            infer_from_full_trace: true,
        }
    }
}

/// Results of running the scheduler suite over one trace.
#[derive(Debug, Clone, Serialize)]
pub struct SchedulerComparison {
    /// Native proportional fair (Eqn. 1).
    pub pf: UplinkMetrics,
    /// Access-aware baseline (Eqn. 5), fed ground-truth `p(i)`.
    pub aa: UplinkMetrics,
    /// BLU speculative with the ground-truth topology.
    pub blu_truth: UplinkMetrics,
    /// BLU with a blue-printed (inferred) topology.
    pub blu_inferred: Option<UplinkMetrics>,
    /// BLU with empirical joint distributions from the full trace.
    pub blu_empirical: Option<UplinkMetrics>,
    /// Exact-edge-set accuracy of the inference used above.
    pub inference_accuracy: Option<f64>,
    /// Measurement sub-frames spent for the inference.
    pub measurement_subframes: Option<u64>,
}

fn emu<'a>(trace: &'a TestbedTrace, cell: &CellConfig, n_txops: u64) -> Emulator<'a> {
    let mut cfg = EmulationConfig::new(cell.clone());
    cfg.n_txops = n_txops;
    Emulator::new(trace, cfg).expect("emulator setup")
}

/// Run PF / AA / BLU(+variants) over a trace.
pub fn compare_schedulers(trace: &TestbedTrace, opts: &CompareOpts) -> SchedulerComparison {
    let n = trace.ground_truth.n_clients;

    let pf = emu(trace, &opts.cell, opts.n_txops)
        .run(&mut PfScheduler, None)
        .metrics;

    let p: Vec<f64> = (0..n).map(|i| trace.ground_truth.p_individual(i)).collect();
    let aa = emu(trace, &opts.cell, opts.n_txops)
        .run(&mut AccessAwareScheduler::new(p), None)
        .metrics;

    let truth_access = TopologyAccess::new(&trace.ground_truth);
    let blu_truth = emu(trace, &opts.cell, opts.n_txops)
        .run(&mut SpeculativeScheduler::new(&truth_access), None)
        .metrics;

    let (blu_inferred, inference_accuracy, measurement_subframes) = if opts.with_inferred {
        let (est, t_max) = if opts.infer_from_full_trace {
            let mut e = blu_core::measure::OutcomeEstimator::new(n);
            *e.stats_mut() = blu_traces::stats::EmpiricalAccess::from_trace(&trace.access);
            (e, trace.access.len() as u64)
        } else {
            run_measurement_phase(trace, opts.cell.max_ues_per_subframe, opts.t_samples)
                .expect("measurement phase")
        };
        let inf = blueprint_from_measurements_with(
            &est,
            &InferenceConfig::default(),
            &InferenceBackend::default(),
            &mut InferScratch::default(),
        );
        let acc = topology_accuracy(&trace.ground_truth, &inf.topology).exact_fraction();
        let access = TopologyAccess::new(&inf.topology);
        let m = emu(trace, &opts.cell, opts.n_txops)
            .run(&mut SpeculativeScheduler::new(&access), None)
            .metrics;
        (Some(m), Some(acc), Some(t_max))
    } else {
        (None, None, None)
    };

    let blu_empirical = if opts.with_empirical {
        let access = EmpiricalPatternAccess::new(&trace.access).expect("non-empty access trace");
        Some(
            emu(trace, &opts.cell, opts.n_txops)
                .run(&mut SpeculativeScheduler::new(&access), None)
                .metrics,
        )
    } else {
        None
    };

    SchedulerComparison {
        pf,
        aa,
        blu_truth,
        blu_inferred,
        blu_empirical,
        inference_accuracy,
        measurement_subframes,
    }
}

/// Fan independent scenario inputs out over the [`FleetEngine`],
/// running `run` on each; results come back **in input order**, so
/// the output is byte-identical to
/// `scenarios.into_iter().map(run).collect()` — the fan-out reorders
/// wall-clock execution, never results.
pub fn fan_out<T, R, F>(scenarios: Vec<T>, run: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    FleetEngine::run(scenarios, || (), |_, x| run(x))
}

/// Build a topology with exactly `hts_per_ue` hidden terminals
/// impacting every UE (the x-axis of Figs. 4a/10–13), drawing each
/// UE's blockers from a pool of `n_hts` terminals.
pub fn topology_with_hts_per_ue(
    n_ues: usize,
    n_hts: usize,
    hts_per_ue: usize,
    q_range: (f64, f64),
    seed: u64,
) -> blu_sim::topology::InterferenceTopology {
    use blu_sim::clientset::ClientSet;
    use blu_sim::rng::DetRng;
    use blu_sim::topology::{HiddenTerminal, InterferenceTopology};
    assert!(hts_per_ue <= n_hts);
    let mut rng = DetRng::seed_from_u64(seed);
    let mut edges = vec![ClientSet::EMPTY; n_hts];
    // Least-loaded assignment (random tie-breaks): hidden terminals
    // are spatially local to specific UEs in the paper's testbed, so
    // edge-sharing only appears once the pool is saturated. This is
    // the "interference diversity" regime BLU exploits.
    for ue in 0..n_ues {
        let mut order: Vec<usize> = (0..n_hts).collect();
        rng.shuffle(&mut order);
        order.sort_by_key(|&k| edges[k].len());
        for &k in order.iter().take(hts_per_ue) {
            edges[k].insert(ue);
        }
    }
    let hts = edges
        .into_iter()
        .filter(|e| !e.is_empty())
        .map(|e| HiddenTerminal {
            q: rng.range_f64(q_range.0, q_range.1),
            edges: e,
        })
        .collect();
    InterferenceTopology {
        n_clients: n_ues,
        hts,
    }
}

/// Build the paper's large emulated deployment (§4.2.1): `n_groups`
/// testbed-scale traces of `ues_per_group` UEs and `hts_per_group`
/// hidden terminals each, spliced into one cell (24 UEs / 36 HTs at
/// the paper's scale = 6 groups × 4 UEs × 6 HTs).
pub fn emulated_large_trace(
    n_groups: usize,
    ues_per_group: usize,
    hts_per_group: usize,
    duration_s: u64,
    seed: u64,
) -> TestbedTrace {
    use blu_sim::time::Micros;
    use blu_traces::capture::{capture_synthetic, CaptureConfig};
    use blu_traces::combine::emulate_large;
    let groups: Vec<TestbedTrace> = (0..n_groups)
        .map(|g| {
            capture_synthetic(
                &CaptureConfig {
                    n_ues: ues_per_group,
                    n_hts: hts_per_group,
                    n_antennas: 4,
                    duration: Micros::from_secs(duration_s),
                    q_range: (0.15, 0.45),
                    edge_prob: 0.35,
                    mean_on_us: 1_500.0,
                    coherence_subframes: 50,
                    snr_range_db: (12.0, 28.0),
                },
                seed.wrapping_mul(1000).wrapping_add(g as u64),
            )
        })
        .collect();
    emulate_large(&groups, &[])
}

#[cfg(test)]
mod tests {
    use super::*;
    use blu_sim::time::Micros;
    use blu_traces::capture::{capture_synthetic, CaptureConfig};

    #[test]
    fn hts_per_ue_construction() {
        let t = topology_with_hts_per_ue(8, 10, 3, (0.2, 0.5), 1);
        for ue in 0..8 {
            let deg = t.hts.iter().filter(|ht| ht.edges.contains(ue)).count();
            assert_eq!(deg, 3, "UE {ue}");
        }
    }

    #[test]
    fn emulated_trace_scale() {
        let t = emulated_large_trace(3, 4, 3, 5, 1);
        assert_eq!(t.ground_truth.n_clients, 12);
        assert_eq!(t.ground_truth.n_hidden(), 9);
        assert_eq!(t.validate(), Ok(()));
    }

    #[test]
    fn full_comparison_runs() {
        let trace = capture_synthetic(
            &CaptureConfig {
                duration: Micros::from_secs(30),
                q_range: (0.3, 0.6),
                ..CaptureConfig::testbed_default()
            },
            1,
        );
        let mut cell = CellConfig::testbed_siso();
        cell.numerology.n_rbs = 10;
        let mut opts = CompareOpts::new(cell, 100);
        opts.with_inferred = true;
        opts.with_empirical = true;
        opts.t_samples = 40;
        let cmp = compare_schedulers(&trace, &opts);
        assert!(cmp.pf.bits_delivered > 0.0);
        assert!(cmp.blu_truth.rb_utilization() >= cmp.pf.rb_utilization());
        assert!(cmp.blu_inferred.is_some());
        assert!(cmp.blu_empirical.is_some());
        let acc = cmp.inference_accuracy.unwrap();
        assert!((0.0..=1.0).contains(&acc));
    }
}
