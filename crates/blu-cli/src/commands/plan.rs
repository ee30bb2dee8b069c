//! `blu plan` — print an Algorithm-1 measurement plan.

use crate::args::Flags;
use blu_core::measure::{measurement_schedule, min_subframes};

const HELP: &str = "blu plan — print an Algorithm-1 measurement schedule

OPTIONS:
    --clients <n>   clients in the cell (default 20)
    --k <n>         distinct clients per sub-frame (default 8)
    --t <n>         joint samples required per pair (default 50)
    --show <n>      print the first n sub-frame schedules (default 10)";

/// Run the subcommand.
pub fn run(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["clients", "k", "t", "show"], &["help"])?;
    if flags.has("help") {
        println!("{HELP}");
        return Ok(());
    }
    let n: usize = flags.get_or("clients", 20usize)?;
    let k: usize = flags.get_or("k", 8usize)?;
    let t: u64 = flags.get_or("t", 50u64)?;
    let show: usize = flags.get_or("show", 10usize)?;
    if n < 2 || k < 2 {
        return Err("need at least 2 clients and K ≥ 2".into());
    }

    let plan = measurement_schedule(n, k, t).map_err(|e| e.to_string())?;
    let floor = min_subframes(n, k.min(n), t).map_err(|e| e.to_string())?;
    println!(
        "N = {n}, K = {k}, T = {t}: {} measurement sub-frames (floor {floor}, +{:.1}%)",
        plan.t_max(),
        100.0 * (plan.t_max() as f64 / floor as f64 - 1.0)
    );
    println!(
        "pair samples: min {} max {}",
        plan.min_pair_count(),
        plan.pair_counts.iter().max().unwrap()
    );
    println!("\nfirst {} sub-frames:", show.min(plan.subframes.len()));
    for (sf, s) in plan.subframes.iter().take(show).enumerate() {
        println!("  SF {sf:>4}: {s}");
    }
    Ok(())
}
