//! `blu eval` — replay a trace through a scheduler and report.

use crate::args::Flags;
use blu_core::blueprint::{infer_topology, ConstraintSystem, InferenceConfig};
use blu_core::emulator::{EmulationConfig, Emulator};
use blu_core::joint::{EmpiricalPatternAccess, TopologyAccess};
use blu_core::metrics::UplinkMetrics;
use blu_core::sched::{AccessAwareScheduler, PfScheduler, SpeculativeScheduler};
use blu_phy::cell::CellConfig;
use blu_traces::io::load_json;
use blu_traces::stats::EmpiricalAccess;
use std::path::Path;

const HELP: &str = "blu eval <trace.json> — replay through a scheduler

OPTIONS:
    --scheduler <s>   pf | aa | blu | blu-inferred | blu-empirical | all
                      (default all)
    --antennas <m>    eNB antennas (default 1 = SISO)
    --rbs <n>         resource blocks (default 50)
    --txops <n>       TxOPs to run (default 500)
    --k <n>           distinct UEs per sub-frame (default 10)";

fn print_metrics(name: &str, m: &UplinkMetrics) {
    println!(
        "{name:>14}: {:.2} Mbps | RB util {:.1}% | blocked {} collided {} faded {} | Jain {:.3}",
        m.throughput_mbps(),
        100.0 * m.rb_utilization(),
        m.rbs_blocked,
        m.rbs_collided,
        m.rbs_faded,
        m.jain_fairness()
    );
}

/// Run the subcommand.
pub fn run(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        args,
        &["scheduler", "antennas", "k", "rbs", "txops"],
        &["help"],
    )?;
    if flags.has("help") {
        println!("{HELP}");
        return Ok(());
    }
    let path = flags.positional(0).ok_or("usage: blu eval <trace.json>")?;
    let t = load_json(Path::new(path)).map_err(|e| e.to_string())?;
    t.validate()?;

    let scheduler = flags.get("scheduler").unwrap_or("all").to_string();
    let mut cell = CellConfig::testbed_siso();
    cell.m_antennas = flags.get_or("antennas", 1usize)?;
    cell.numerology.n_rbs = flags.get_or("rbs", 50usize)?;
    cell.max_ues_per_subframe = flags.get_or("k", 10usize)?;
    cell.validate().map_err(|e| e.to_string())?;
    if t.csi.n_antennas < cell.m_antennas {
        return Err(format!(
            "trace CSI has {} antennas; --antennas {} requested",
            t.csi.n_antennas, cell.m_antennas
        ));
    }
    let mut cfg = EmulationConfig::new(cell);
    cfg.n_txops = flags.get_or("txops", 500u64)?;

    let n = t.ground_truth.n_clients;
    let want = |s: &str| scheduler == "all" || scheduler == s;

    if want("pf") {
        let m = Emulator::new(&t, cfg.clone())
            .expect("emulator setup")
            .run(&mut PfScheduler, None)
            .metrics;
        print_metrics("PF", &m);
    }
    if want("aa") {
        let p: Vec<f64> = (0..n).map(|i| t.ground_truth.p_individual(i)).collect();
        let m = Emulator::new(&t, cfg.clone())
            .expect("emulator setup")
            .run(&mut AccessAwareScheduler::new(p), None)
            .metrics;
        print_metrics("AA", &m);
    }
    if want("blu") {
        let acc = TopologyAccess::new(&t.ground_truth);
        let m = Emulator::new(&t, cfg.clone())
            .expect("emulator setup")
            .run(&mut SpeculativeScheduler::new(&acc), None)
            .metrics;
        print_metrics("BLU(truth)", &m);
    }
    if want("blu-inferred") {
        let sys = ConstraintSystem::from_measurements(&EmpiricalAccess::from_trace(&t.access));
        let bp = infer_topology(&sys, &InferenceConfig::default()).topology;
        let acc = TopologyAccess::new(&bp);
        let m = Emulator::new(&t, cfg.clone())
            .expect("emulator setup")
            .run(&mut SpeculativeScheduler::new(&acc), None)
            .metrics;
        print_metrics("BLU(inferred)", &m);
    }
    if want("blu-empirical") {
        let acc = EmpiricalPatternAccess::new(&t.access).expect("non-empty access trace");
        let m = Emulator::new(&t, cfg.clone())
            .expect("emulator setup")
            .run(&mut SpeculativeScheduler::new(&acc), None)
            .metrics;
        print_metrics("BLU(empirical)", &m);
    }
    Ok(())
}
