//! `blu generate` — produce a geometric scenario trace.

use crate::args::Flags;
use blu_sim::time::Micros;
use blu_traces::io::save_json;
use blu_traces::scenario::{generate, ActivityModel, ScenarioConfig};
use blu_wifi::traffic::TrafficGen;
use std::path::Path;

const HELP: &str = "blu generate — generate a scenario and write its trace as JSON

OPTIONS:
    --out <path>        output file (default trace.json)
    --ues <n>           number of UEs (default 6)
    --wifi <n>          number of WiFi nodes (default 10)
    --region <meters>   square region side (default 80)
    --seconds <s>       trace duration (default 60)
    --antennas <m>      eNB antennas for CSI (default 4)
    --seed <u64>        RNG seed (default 1)
    --dcf               full 802.11 DCF contention (default: on/off sources)
    --q-lo / --q-hi     on/off duty-cycle range (default 0.15 / 0.6)";

/// Run the subcommand.
pub fn run(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        args,
        &[
            "ues", "wifi", "seconds", "seed", "out", "antennas", "q-lo", "q-hi", "region",
        ],
        &["dcf", "help"],
    )?;
    if flags.has("help") {
        println!("{HELP}");
        return Ok(());
    }
    let out = flags.get("out").unwrap_or("trace.json").to_string();
    let mut cfg = ScenarioConfig::testbed();
    cfg.n_ues = flags.get_or("ues", 6usize)?;
    cfg.n_wifi = flags.get_or("wifi", 10usize)?;
    cfg.region_m = flags.get_or("region", 80.0f64)?;
    cfg.duration = Micros::from_secs(flags.get_or("seconds", 60u64)?);
    cfg.n_antennas = flags.get_or("antennas", 4usize)?;
    if flags.has("dcf") {
        cfg.activity = ActivityModel::Dcf;
        cfg.wifi_traffic = TrafficGen::Bursty {
            mean_on_us: 20_000.0,
            mean_off_us: 15_000.0,
            bytes: 1470,
        };
    } else {
        cfg.activity = ActivityModel::OnOff {
            q_range: (
                flags.get_or("q-lo", 0.15f64)?,
                flags.get_or("q-hi", 0.6f64)?,
            ),
            mean_on_us: 1_500.0,
        };
    }
    let seed = flags.get_or("seed", 1u64)?;

    let scenario = generate(&cfg, seed);
    let t = &scenario.trace;
    save_json(t, Path::new(&out)).map_err(|e| e.to_string())?;
    println!("{}", t.description);
    println!(
        "  {} UEs, {} hidden terminals (of {} WiFi nodes), {} sub-frames",
        t.ground_truth.n_clients,
        t.ground_truth.n_hidden(),
        cfg.n_wifi,
        t.access.len()
    );
    println!("wrote {out}");
    Ok(())
}
