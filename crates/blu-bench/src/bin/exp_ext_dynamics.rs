//! Extension experiment: tracking topology dynamics (paper §3.7).
//!
//! Clients and interferers move at the tens-of-seconds scale; BLU
//! re-measures and re-blue-prints every `L` sub-frames so it always
//! schedules within the stationary regime. We emulate a sequence of
//! environment epochs (each a fresh topology) and compare:
//!
//! * **adaptive** — re-measure + re-infer at every epoch (the paper's
//!   operation);
//! * **stale** — blue-print once and never update;
//! * **PF** — no interference knowledge at all.

use blu_bench::table::save_results_json;
use blu_bench::{ExpArgs, Table};
use blu_core::emulator::{EmulationConfig, Emulator};
use blu_core::orchestrator::{run_blu, run_blu_stale, BluConfig};
use blu_core::sched::PfScheduler;
use blu_phy::cell::CellConfig;
use blu_sim::time::Micros;
use blu_traces::capture::{capture_synthetic, CaptureConfig};
use serde::Serialize;

#[derive(Serialize, Clone)]
struct Row {
    epoch: usize,
    pf_mbps: f64,
    stale_mbps: f64,
    adaptive_mbps: f64,
    stale_accuracy: f64,
    adaptive_accuracy: f64,
    measurement_overhead_pct: f64,
}

fn main() {
    let args = ExpArgs::parse();
    let n_epochs = 4usize;
    let n_txops = args.scaled(600, 120);
    let trials = args.scaled(4, 2);

    let mut table = Table::new(
        "Extension: topology dynamics — adaptive vs stale blue-print",
        &[
            "epoch",
            "PF Mbps",
            "stale Mbps",
            "adaptive Mbps",
            "stale acc",
            "adaptive acc",
            "meas overhead %",
        ],
    );
    let mut acc = vec![
        Row {
            epoch: 0,
            pf_mbps: 0.0,
            stale_mbps: 0.0,
            adaptive_mbps: 0.0,
            stale_accuracy: 0.0,
            adaptive_accuracy: 0.0,
            measurement_overhead_pct: 0.0,
        };
        n_epochs
    ];
    for trial in 0..trials {
        let epochs: Vec<_> = (0..n_epochs)
            .map(|e| {
                capture_synthetic(
                    &CaptureConfig {
                        duration: Micros::from_secs(args.scaled(40, 10)),
                        q_range: (0.3, 0.6),
                        ..CaptureConfig::testbed_default()
                    },
                    args.seed + trial * 1000 + e as u64 * 37,
                )
            })
            .collect();
        let refs: Vec<&_> = epochs.iter().collect();
        let mut cell = CellConfig::testbed_siso();
        cell.numerology.n_rbs = 25;
        let mut emu_cfg = EmulationConfig::new(cell);
        emu_cfg.n_txops = n_txops;
        let config = BluConfig::new(emu_cfg.clone());

        // Adaptive: every epoch re-measures and re-blue-prints.
        let adaptive: Vec<_> = epochs
            .iter()
            .map(|t| run_blu(t, &config).expect("adaptive run"))
            .collect();
        let stale = run_blu_stale(&refs, &config).expect("stale run");
        for (e, trace) in epochs.iter().enumerate() {
            let pf = Emulator::new(trace, emu_cfg.clone())
                .expect("emulator setup")
                .run(&mut PfScheduler, None)
                .metrics;
            acc[e].epoch = e;
            acc[e].pf_mbps += pf.throughput_mbps();
            acc[e].stale_mbps += stale[e].speculative.metrics.throughput_mbps();
            acc[e].adaptive_mbps += adaptive[e].speculative.metrics.throughput_mbps();
            acc[e].stale_accuracy += stale[e].accuracy.exact_fraction();
            acc[e].adaptive_accuracy += adaptive[e].accuracy.exact_fraction();
            // Measurement overhead per epoch: t_max vs the epoch's
            // speculative sub-frames (L).
            let l = adaptive[e].speculative.metrics.subframes as f64;
            acc[e].measurement_overhead_pct +=
                100.0 * adaptive[e].measurement_subframes as f64 / l.max(1.0);
        }
    }
    let t = trials as f64;
    let rows: Vec<Row> = acc
        .into_iter()
        .map(|r| Row {
            epoch: r.epoch,
            pf_mbps: r.pf_mbps / t,
            stale_mbps: r.stale_mbps / t,
            adaptive_mbps: r.adaptive_mbps / t,
            stale_accuracy: r.stale_accuracy / t,
            adaptive_accuracy: r.adaptive_accuracy / t,
            measurement_overhead_pct: r.measurement_overhead_pct / t,
        })
        .collect();
    for r in &rows {
        table.row(vec![
            r.epoch.to_string(),
            format!("{:.2}", r.pf_mbps),
            format!("{:.2}", r.stale_mbps),
            format!("{:.2}", r.adaptive_mbps),
            format!("{:.2}", r.stale_accuracy),
            format!("{:.2}", r.adaptive_accuracy),
            format!("{:.1}", r.measurement_overhead_pct),
        ]);
    }
    table.print();
    println!("\nafter the environment changes (epoch ≥ 1) the stale blue-print's\naccuracy collapses while re-measurement keeps BLU at full gain; the\nper-epoch measurement overhead stays small (t_max << L, §3.7)");
    save_results_json("ext_dynamics", &rows).expect("write");
    println!("results written to results/ext_dynamics.json");
}
