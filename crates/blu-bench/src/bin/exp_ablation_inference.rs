//! Ablation: topology-inference design choices (paper §3.4).
//!
//! * **gradient repair vs MCMC** — the paper replaced MCMC with a
//!   deterministic repair because MCMC converges only in distribution
//!   and needs sampling before real-time use; we compare accuracy at
//!   matched (and generous) step budgets.
//! * **measurement budget T** — accuracy as a function of the number
//!   of joint samples per pair (Algorithm-1 phase), up to the
//!   full-trace statistics the paper uses for Fig. 14.
//! * **Algorithm 1 vs naive measurement schedules** — round-robin and
//!   random-K schedules need more sub-frames for the same coverage.

use blu_bench::statsutil::mean;
use blu_bench::table::save_results_json;
use blu_bench::{ExpArgs, Table};
use blu_core::blueprint::mcmc::{infer_mcmc, McmcConfig};
use blu_core::blueprint::{
    infer_topology, topology_accuracy, ConstraintSystem, InferScratch, InferenceBackend,
    InferenceConfig,
};
use blu_core::measure::{measurement_schedule, min_subframes};
use blu_core::orchestrator::{blueprint_from_measurements_with, run_measurement_phase};
use blu_sim::clientset::ClientSet;
use blu_sim::rng::DetRng;
use blu_sim::time::Micros;

use blu_traces::stats::{n_pairs, pair_index, EmpiricalAccess};
use serde::Serialize;

#[derive(Serialize)]
struct MethodRow {
    method: String,
    mean_accuracy: f64,
    mean_violation: f64,
    mean_ms: f64,
}

#[derive(Serialize)]
struct BudgetRow {
    t_samples: String,
    mean_accuracy: f64,
}

#[derive(Serialize)]
struct ScheduleRow {
    schedule: String,
    subframes_to_cover: u64,
    floor: u64,
}

/// A geometric enterprise-floor trace (same population as Fig. 14's
/// testbed CDF) — edges from propagation, activity from on/off
/// sources.
fn trace_for(seed: u64, duration_s: u64) -> blu_traces::schema::TestbedTrace {
    use blu_traces::scenario::{generate, ActivityModel, ScenarioConfig};
    let mut cfg = ScenarioConfig::testbed();
    cfg.n_ues = 6;
    cfg.n_wifi = 9;
    cfg.region_m = 85.0;
    cfg.duration = Micros::from_secs(duration_s);
    cfg.activity = ActivityModel::OnOff {
        q_range: (0.2, 0.55),
        mean_on_us: 1_500.0,
    };
    generate(&cfg, seed).trace
}

fn main() {
    let args = ExpArgs::parse();
    let trials = args.scaled(10, 3);

    // ---- gradient vs MCMC ----
    let mut grad = (Vec::new(), Vec::new(), Vec::new());
    let mut mcmc = (Vec::new(), Vec::new(), Vec::new());
    for trial in 0..trials {
        let trace = trace_for(args.seed + trial, args.scaled(60, 15));
        let truth = &trace.ground_truth;
        let sys = ConstraintSystem::from_topology(truth);

        let t0 = std::time::Instant::now();
        let g = infer_topology(&sys, &InferenceConfig::default());
        grad.2.push(t0.elapsed().as_secs_f64() * 1e3);
        grad.0
            .push(topology_accuracy(truth, &g.topology).exact_fraction());
        grad.1.push(g.violation);

        let t0 = std::time::Instant::now();
        let m = infer_mcmc(&sys, &McmcConfig::default(), args.seed + trial);
        mcmc.2.push(t0.elapsed().as_secs_f64() * 1e3);
        mcmc.0
            .push(topology_accuracy(truth, &m.topology).exact_fraction());
        mcmc.1.push(m.violation);
    }
    let mut table = Table::new(
        "Ablation: gradient repair vs MCMC (geometric 6-UE floors, noiseless)",
        &["method", "mean exact acc", "mean violation", "mean ms"],
    );
    let mut method_rows = Vec::new();
    for (name, (acc, viol, ms)) in [("gradient", &grad), ("mcmc-20k", &mcmc)] {
        let row = MethodRow {
            method: name.into(),
            mean_accuracy: mean(acc),
            mean_violation: mean(viol),
            mean_ms: mean(ms),
        };
        table.row(vec![
            row.method.clone(),
            format!("{:.2}", row.mean_accuracy),
            format!("{:.4}", row.mean_violation),
            format!("{:.1}", row.mean_ms),
        ]);
        method_rows.push(row);
    }
    table.print();
    println!();

    // ---- T sweep ----
    let mut table_t = Table::new(
        "Ablation: inference accuracy vs measurement budget T",
        &["T per pair", "mean exact acc"],
    );
    let mut budget_rows = Vec::new();
    let mut scratch = InferScratch::default();
    for &t in &[10u64, 25, 50, 100, 250, 1000] {
        let mut accs = Vec::new();
        for trial in 0..trials {
            let trace = trace_for(args.seed + 100 + trial, args.scaled(60, 15));
            let (est, _) = run_measurement_phase(&trace, 8, t).expect("measurement phase");
            let inf = blueprint_from_measurements_with(
                &est,
                &InferenceConfig::default(),
                &InferenceBackend::default(),
                &mut scratch,
            );
            accs.push(topology_accuracy(&trace.ground_truth, &inf.topology).exact_fraction());
        }
        let row = BudgetRow {
            t_samples: t.to_string(),
            mean_accuracy: mean(&accs),
        };
        table_t.row(vec![
            row.t_samples.clone(),
            format!("{:.2}", row.mean_accuracy),
        ]);
        budget_rows.push(row);
    }
    // Full-trace statistics (the Fig. 14 inputs).
    {
        let mut accs = Vec::new();
        for trial in 0..trials {
            let trace = trace_for(args.seed + 100 + trial, args.scaled(60, 15));
            let emp = EmpiricalAccess::from_trace(&trace.access);
            let sys = ConstraintSystem::from_measurements(&emp);
            let inf = infer_topology(&sys, &InferenceConfig::default());
            accs.push(topology_accuracy(&trace.ground_truth, &inf.topology).exact_fraction());
        }
        let row = BudgetRow {
            t_samples: "full trace".into(),
            mean_accuracy: mean(&accs),
        };
        table_t.row(vec![
            row.t_samples.clone(),
            format!("{:.2}", row.mean_accuracy),
        ]);
        budget_rows.push(row);
    }
    table_t.print();
    println!();

    // ---- Algorithm 1 vs naive schedules ----
    // Coverage cost: sub-frames until every pair has T joint samples.
    let (n, k, t) = (16usize, 6usize, 20u64);
    let floor = min_subframes(n, k, t).expect("floor");

    let alg1 = measurement_schedule(n, k, t).expect("plan").t_max();

    // Shuffled round-robin: each round shuffles the clients and
    // partitions them into ⌈N/K⌉ windows of K. (Plain contiguous
    // round-robin windows never co-schedule cyclically distant pairs
    // at all — the naive baseline has to shuffle to even terminate.)
    let rr = {
        let mut rng = DetRng::seed_from_u64(args.seed ^ 0x55);
        let mut counts = vec![0u64; n_pairs(n)];
        let mut sf = 0u64;
        while counts.iter().any(|&c| c < t) {
            let mut order: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut order);
            for window in order.chunks(k) {
                if window.len() < 2 {
                    continue;
                }
                for (a, &i) in window.iter().enumerate() {
                    for &j in &window[a + 1..] {
                        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
                        counts[pair_index(n, lo, hi)] += 1;
                    }
                }
                sf += 1;
            }
            assert!(sf < 10_000_000);
        }
        sf
    };

    // Random K-subsets.
    let rand = {
        let mut rng = DetRng::seed_from_u64(args.seed);
        let mut counts = vec![0u64; n_pairs(n)];
        let mut sf = 0u64;
        while counts.iter().any(|&c| c < t) {
            let members: ClientSet = rng.choose_indices(n, k).into_iter().collect();
            let mv: Vec<usize> = members.iter().collect();
            for (a, &i) in mv.iter().enumerate() {
                for &j in &mv[a + 1..] {
                    counts[pair_index(n, i, j)] += 1;
                }
            }
            sf += 1;
            assert!(sf < 1_000_000);
        }
        sf
    };

    let mut table_s = Table::new(
        "Ablation: measurement schedules (N=16, K=6, T=20)",
        &["schedule", "sub-frames", "vs floor"],
    );
    let mut sched_rows = Vec::new();
    for (name, sf) in [
        ("Algorithm 1", alg1),
        ("round-robin", rr),
        ("random-K", rand),
    ] {
        let row = ScheduleRow {
            schedule: name.into(),
            subframes_to_cover: sf,
            floor,
        };
        table_s.row(vec![
            row.schedule.clone(),
            sf.to_string(),
            format!("{:.2}x", sf as f64 / floor as f64),
        ]);
        sched_rows.push(row);
    }
    table_s.print();

    save_results_json("ablation_inference_methods", &method_rows).expect("write");
    save_results_json("ablation_inference_budget", &budget_rows).expect("write");
    save_results_json("ablation_measurement_schedules", &sched_rows).expect("write");
    println!("\nresults written to results/ablation_inference_*.json");
}
