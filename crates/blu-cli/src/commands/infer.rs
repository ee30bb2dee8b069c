//! `blu infer` — blue-print the hidden-terminal topology from a trace.

use crate::args::Flags;
use blu_core::blueprint::{
    topology_accuracy, ConstraintSystem, InferScratch, InferenceBackend, InferenceConfig,
    McmcConfig,
};
use blu_core::orchestrator::run_measurement_phase;
use blu_traces::io::load_json;
use blu_traces::stats::EmpiricalAccess;
use std::path::Path;
use std::time::Instant;

const HELP: &str = "blu infer <trace.json> — blue-print the interference topology

OPTIONS:
    --t <samples>     use an Algorithm-1 measurement phase with this many
                      joint samples per pair instead of full-trace stats
    --k <clients>     distinct clients per measurement sub-frame (default 8)
    --restarts <n>    extra random inference restarts (default 6)
    --mcmc-steps <n>  use the annealed MCMC backend with this many
                      proposals instead of gradient repair
    --t-start <f>     MCMC start temperature (default 1.0)
    --t-end <f>       MCMC end temperature (default 0.005)
    --seed <u64>      MCMC chain seed (default 1)";

/// Run the subcommand.
pub fn run(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        args,
        &[
            "t",
            "k",
            "restarts",
            "mcmc-steps",
            "t-start",
            "t-end",
            "seed",
        ],
        &["help"],
    )?;
    if flags.has("help") {
        println!("{HELP}");
        return Ok(());
    }
    let path = flags.positional(0).ok_or("usage: blu infer <trace.json>")?;
    let t = load_json(Path::new(path)).map_err(|e| e.to_string())?;
    t.validate()?;

    let sys = match flags.get("t") {
        Some(_) => {
            let samples: u64 = flags.get_or("t", 50u64)?;
            let k: usize = flags.get_or("k", 8usize)?;
            let (est, t_max) = run_measurement_phase(&t, k, samples).map_err(|e| e.to_string())?;
            println!("measurement phase: {t_max} sub-frames (T = {samples}, K = {k})");
            ConstraintSystem::from_measurements(est.stats())
        }
        None => {
            println!("using full-trace access statistics");
            ConstraintSystem::from_measurements(&EmpiricalAccess::from_trace(&t.access))
        }
    };
    let config = InferenceConfig {
        random_restarts: flags.get_or("restarts", 6usize)?,
        ..Default::default()
    };
    let backend = match flags.get("mcmc-steps") {
        Some(_) => InferenceBackend::Mcmc {
            config: McmcConfig {
                steps: flags.get_or("mcmc-steps", 20_000usize)?,
                t_start: flags.get_or("t-start", 1.0f64)?,
                t_end: flags.get_or("t-end", 0.005f64)?,
                ..Default::default()
            },
            seed: flags.get_or("seed", 1u64)?,
        },
        None => InferenceBackend::Gradient,
    };
    let t0 = Instant::now();
    let (result, _) = backend.solve(&sys, &config, &mut InferScratch::default(), None);
    let latency_ms = t0.elapsed().as_secs_f64() * 1e3;

    println!(
        "\ninferred blue-print ({} repair iterations over {} restarts, residual violation {:.5}, {latency_ms:.2} ms):",
        result.iterations, result.restarts, result.violation
    );
    for (k, ht) in result.topology.hts.iter().enumerate() {
        println!("  HT {k}: q = {:.3}, blocks UEs {}", ht.q, ht.edges);
    }
    let acc = topology_accuracy(&t.ground_truth, &result.topology);
    println!(
        "\nvs ground truth: {} of {} terminals exact ({:.0}%), {} spurious, q MAE {:.3}",
        acc.exact_matches,
        acc.n_truth,
        acc.exact_fraction() * 100.0,
        acc.excess(),
        acc.q_mae
    );
    Ok(())
}
