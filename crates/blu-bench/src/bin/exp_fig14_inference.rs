//! Figure 14 — accuracy of BLU's topology inference.
//!
//! Two trace populations, as in the paper:
//!
//! * **testbed-scale**: 150 small topologies (4–8 UEs, 4–8 hidden
//!   terminals), with access probabilities computed from the full
//!   activity trace (the paper's Fig-14 inputs) plus a sensitivity
//!   variant using only an Algorithm-1 measurement phase at `T = 50`;
//! * **NS3-scale**: 300 random geometric deployments sweeping UEs and
//!   WiFi nodes over {5, 10, 15, 20, 25}.
//!
//! The metric is the paper's strict exact-edge-set match fraction.
//! Paper result: accuracy is 100 % for ≈ 70 % of cases and ≥ 90 % for
//! 90 % of cases; the median stays ≈ 100 % as the topology grows.

use blu_bench::runners::fan_out;
use blu_bench::statsutil::{fraction_at_least, mean, percentile};
use blu_bench::table::save_results_json;
use blu_bench::{ExpArgs, Table};
use blu_core::blueprint::{
    infer_topology, topology_accuracy, ConstraintSystem, InferScratch, InferenceBackend,
    InferenceConfig,
};
use blu_core::orchestrator::{blueprint_from_measurements_with, run_measurement_phase};
use blu_sim::time::Micros;
use blu_traces::capture::{capture_synthetic, CaptureConfig};
use blu_traces::scenario::{generate, ActivityModel, ScenarioConfig};
use blu_traces::schema::TestbedTrace;
use blu_traces::stats::EmpiricalAccess;
use serde::Serialize;

#[derive(Serialize)]
struct Fig14Summary {
    population: String,
    cases: usize,
    frac_exact: f64,
    frac_ge_90: f64,
    median: f64,
    p10: f64,
    mean: f64,
}

/// Paper methodology: access probabilities computed from the full
/// activity trace (§4.2.2 "WiFi activity traces … are used to
/// calculate the channel-access probabilities").
fn accuracy_full_trace(trace: &TestbedTrace) -> f64 {
    let emp = EmpiricalAccess::from_trace(&trace.access);
    let sys = ConstraintSystem::from_measurements(&emp);
    let inf = infer_topology(&sys, &InferenceConfig::default());
    topology_accuracy(&trace.ground_truth, &inf.topology).exact_fraction()
}

/// Sensitivity extension: probabilities from an Algorithm-1
/// measurement phase with only `t_samples` joint samples per pair.
fn accuracy_of(trace: &TestbedTrace, t_samples: u64) -> f64 {
    let (est, _) = run_measurement_phase(trace, 8, t_samples).expect("measurement phase");
    let inf = blueprint_from_measurements_with(
        &est,
        &InferenceConfig::default(),
        &InferenceBackend::default(),
        &mut InferScratch::default(),
    );
    topology_accuracy(&trace.ground_truth, &inf.topology).exact_fraction()
}

fn summarize(name: &str, accs: &[f64]) -> Fig14Summary {
    Fig14Summary {
        population: name.to_string(),
        cases: accs.len(),
        frac_exact: fraction_at_least(accs, 0.999),
        frac_ge_90: fraction_at_least(accs, 0.9),
        median: percentile(accs, 50.0),
        p10: percentile(accs, 10.0),
        mean: mean(accs),
    }
}

fn main() {
    let args = ExpArgs::parse();
    let n_testbed = args.scaled(150, 20) as usize;
    let per_size = args.scaled(12, 2) as usize; // ×25 (5×5 grid) ≈ 300

    // --- testbed-scale population: geometric enterprise floors, as
    // in the paper's 150 testbed topologies (UEs and laptops at
    // varying positions; hidden-terminal edges from the propagation
    // geometry) ---
    let testbed_results: Vec<(f64, f64)> = fan_out((0..n_testbed).collect(), |i| {
        let seed = args.seed + i as u64;
        let mut rng = blu_sim::rng::DetRng::seed_from_u64(seed ^ 0xF16);
        let mut cfg = ScenarioConfig::testbed();
        cfg.n_ues = rng.range_usize(4, 9);
        cfg.n_wifi = rng.range_usize(6, 11);
        cfg.region_m = rng.range_f64(70.0, 100.0);
        cfg.duration = Micros::from_secs(args.scaled(120, 30));
        cfg.activity = ActivityModel::OnOff {
            q_range: (0.15, 0.6),
            mean_on_us: 1_500.0,
        };
        let scen = generate(&cfg, 500 + seed);
        if scen.trace.ground_truth.n_hidden() == 0 {
            return None; // nothing to infer in this draw
        }
        Some((
            accuracy_full_trace(&scen.trace),
            accuracy_of(&scen.trace, 50),
        ))
    })
    .into_iter()
    .flatten()
    .collect();
    let testbed_accs: Vec<f64> = testbed_results.iter().map(|&(a, _)| a).collect();
    let testbed_t50: Vec<f64> = testbed_results.iter().map(|&(_, a)| a).collect();

    // --- stress population: uniformly random (non-geometric) edge
    // structures with HTs ≈ UEs — the skewed regime of §3.5 where
    // pairwise statistics may admit several explanations ---
    let stress_accs: Vec<f64> = fan_out((0..n_testbed).collect(), |i| {
        let seed = args.seed + 7_000 + i as u64;
        let mut rng = blu_sim::rng::DetRng::seed_from_u64(seed ^ 0xF17);
        let cfg = CaptureConfig {
            n_ues: rng.range_usize(4, 9),
            n_hts: rng.range_usize(4, 9),
            n_antennas: 2,
            duration: Micros::from_secs(args.scaled(120, 30)),
            q_range: (0.15, 0.6),
            edge_prob: 0.4,
            mean_on_us: 1_500.0,
            coherence_subframes: 50,
            snr_range_db: (12.0, 28.0),
        };
        let trace = capture_synthetic(&cfg, seed);
        accuracy_full_trace(&trace)
    });

    // --- NS3-scale population: sweep UE and WiFi counts ---
    let sizes = [5usize, 10, 15, 20, 25];
    let mut ns3_jobs = Vec::new();
    for &n_ues in &sizes {
        for &n_wifi in &sizes {
            for rep in 0..per_size {
                ns3_jobs.push((n_ues, n_wifi, rep));
            }
        }
    }
    let ns3_results: Vec<(usize, f64)> = fan_out(ns3_jobs, |(n_ues, n_wifi, rep)| {
        let mut cfg = ScenarioConfig::ns3(n_ues, n_wifi);
        cfg.duration = Micros::from_secs(args.scaled(120, 30));
        let seed = args.seed + (n_ues as u64) * 1_000_003 + (n_wifi as u64) * 10_007 + rep as u64;
        let scen = generate(&cfg, seed);
        (n_ues, accuracy_full_trace(&scen.trace))
    });
    let ns3_accs: Vec<f64> = ns3_results.iter().map(|&(_, a)| a).collect();

    // --- report ---
    let mut table = Table::new(
        "Fig 14: topology-inference accuracy (exact-edge-set metric)",
        &[
            "population",
            "cases",
            "frac 100%",
            "frac >=90%",
            "median",
            "p10",
            "mean",
        ],
    );
    let mut summaries = Vec::new();
    for (name, accs) in [
        ("testbed", &testbed_accs),
        ("ns3", &ns3_accs),
        ("testbed-T50", &testbed_t50),
        ("random-stress", &stress_accs),
    ] {
        let s = summarize(name, accs);
        table.row(vec![
            s.population.clone(),
            s.cases.to_string(),
            format!("{:.2}", s.frac_exact),
            format!("{:.2}", s.frac_ge_90),
            format!("{:.2}", s.median),
            format!("{:.2}", s.p10),
            format!("{:.2}", s.mean),
        ]);
        summaries.push(s);
    }
    table.print();
    println!();

    // Fig 14a: accuracy vs number of UEs (NS3 population).
    let mut table_a = Table::new(
        "Fig 14a: accuracy vs cell size (NS3 population)",
        &["UEs", "cases", "median", "mean"],
    );
    let mut by_size = Vec::new();
    for &n_ues in &sizes {
        let accs: Vec<f64> = ns3_results
            .iter()
            .filter(|&&(u, _)| u == n_ues)
            .map(|&(_, a)| a)
            .collect();
        if accs.is_empty() {
            continue;
        }
        let s = summarize(&format!("{n_ues}ues"), &accs);
        table_a.row(vec![
            n_ues.to_string(),
            s.cases.to_string(),
            format!("{:.2}", s.median),
            format!("{:.2}", s.mean),
        ]);
        by_size.push(s);
    }
    table_a.print();

    save_results_json("fig14_summary", &summaries).expect("write");
    save_results_json("fig14_by_size", &by_size).expect("write");
    save_results_json(
        "fig14_raw",
        &serde_json::json!({ "testbed": testbed_accs, "ns3": ns3_accs }),
    )
    .expect("write");
    println!("\nresults written to results/fig14_*.json");
}
