//! `blu inspect` — summarize a trace file.

use crate::args::Flags;
use blu_traces::io::load_json;
use blu_traces::stats::EmpiricalAccess;
use std::path::Path;

const HELP: &str = "blu inspect <trace.json> — summarize a trace

Prints the ground-truth topology, per-terminal airtime, per-UE access
probabilities (measured vs closed-form), SNRs, and trace dimensions.";

/// Run the subcommand.
pub fn run(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[], &["help"])?;
    if flags.has("help") {
        println!("{HELP}");
        return Ok(());
    }
    let path = flags
        .positional(0)
        .ok_or("usage: blu inspect <trace.json>")?;
    let t = load_json(Path::new(path)).map_err(|e| e.to_string())?;
    t.validate()?;

    println!("{}", t.description);
    println!(
        "dimensions: {} UEs × {} sub-frames, {} hidden terminals, {} CSI antennas",
        t.ground_truth.n_clients,
        t.access.len(),
        t.ground_truth.n_hidden(),
        t.csi.n_antennas
    );

    println!("\nhidden terminals:");
    for (k, ht) in t.ground_truth.hts.iter().enumerate() {
        println!(
            "  HT {k}: airtime q = {:.3}, blocks UEs {} (measured {:.3})",
            ht.q,
            ht.edges,
            t.wifi.airtime(k)
        );
    }

    let emp = EmpiricalAccess::from_trace(&t.access);
    println!("\nper-UE access probability (measured / closed-form) and uplink SNR:");
    for i in 0..t.ground_truth.n_clients {
        println!(
            "  UE {i}: p = {:.3} / {:.3}   SNR {:.1} dB",
            emp.p_individual(i).unwrap_or(f64::NAN),
            t.ground_truth.p_individual(i),
            t.mean_snr_db[i]
        );
    }
    Ok(())
}
