//! `blu chaos` — compile a deterministic fleet-scale fault storm,
//! run the supervised fleet through it, and check the recovery
//! invariants.
//!
//! The storm is compiled by [`blu_harness::chaos::ChaosPlan`] from a
//! seed and a handful of fractions, so the same command line always
//! reproduces the same faults. The run is scored against a fault-free
//! golden fleet; any violated invariant is printed and the command
//! exits nonzero.
//!
//! ```text
//! blu chaos --cells 6 --seconds 60 --seed 7 \
//!     --crash-frac 0.34 --torn-frac 0.5 --poison-frac 0.05
//! ```

use crate::args::Flags;
use blu_core::blueprint::FleetBlueprintCache;
use blu_core::orchestrator::BluConfig;
use blu_core::robust::{CheckpointPolicy, RobustConfig};
use blu_core::runtime::supervisor::{CellHealth, SupervisorConfig};
use blu_core::EmulationConfig;
use blu_harness::chaos::{
    run_chaos, verify_cache_transparency, verify_invariants, ChaosConfig, ChaosPlan,
};
use blu_phy::cell::CellConfig;
use std::path::PathBuf;

const HELP: &str = "blu chaos — deterministic fault storm against the supervised fleet

STORM SHAPE:
    --cells <n>        fleet size (default 6)
    --seconds <s>      capture duration per cell (default 60)
    --seed <u64>       master seed: cell selection, fault placement
                       and captures all derive from it (default 7)
    --crash-frac <f>   fraction of cells whose task crashes (default 0.34)
    --crashes <n>      crashes per crash-faulted cell (default 1)
    --crash-at <sf>    subframe of the first crash (default 30000)
    --crash-gap <sf>   spacing between a cell's crashes (default 4000)
    --stall-frac <f>   fraction of cells with a correlated inference
                       stall (default 0)
    --stall-factor <n> stall wall-clock multiplier (default 4)
    --poison-frac <f>  fraction of cells with NaN-poisoned
                       observations (default 0.05)
    --poison-rate <f>  per-constraint poison probability (default 0.25)
    --torn-frac <f>    fraction of crash-faulted cells whose
                       checkpoints are torn on every save (default 0.5)
    --churn-rate <hz>  Poisson topology-churn rate per cell (default 0
                       = off; churn alters the captured air, so every
                       cell counts as faulted)
    --churn-at <sf>    subframe the churn window opens (default 20000)

RUNTIME:
    --rbs <n>              resource blocks per cell (default 10)
    --stream-window <sf>   run every cell in streaming mode with this
                           observation-window capacity (0 = phased,
                           the default)
    --checkpoint-dir <dir> where cell checkpoints + supervisor
                           sidecars live (default: a throwaway
                           directory under the system temp dir)
    --checkpoint-every <sf> checkpoint cadence (default 2000)
    --max-restarts <n>     restarts before quarantine (default 3)
    --fleet-cache-capacity <n>  share blue-printing results fleet-wide
                           through the fleet blueprint cache
                           (n entries; 0 = off, the default). The
                           storm then runs twice — cached and
                           uncached — and the two outcomes must be
                           indistinguishable outside wall-clock

Exits nonzero if any recovery invariant is violated (or, with the
fleet cache on, if caching changed any observable outcome).";

/// Run the subcommand.
pub fn run(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        args,
        &[
            "cells",
            "checkpoint-dir",
            "checkpoint-every",
            "churn-at",
            "churn-rate",
            "crash-at",
            "crash-frac",
            "crash-gap",
            "crashes",
            "fleet-cache-capacity",
            "max-restarts",
            "poison-at",
            "poison-frac",
            "poison-rate",
            "rbs",
            "seconds",
            "seed",
            "stall-at",
            "stall-factor",
            "stall-frac",
            "stream-window",
            "torn-frac",
        ],
        &["help"],
    )?;
    if flags.has("help") {
        println!("{HELP}");
        return Ok(());
    }

    let chaos_config = ChaosConfig {
        n_cells: flags.get_or("cells", 6usize)?,
        seconds: flags.get_or("seconds", 60u64)?,
        seed: flags.get_or("seed", 7u64)?,
        crash_fraction: flags.get_or("crash-frac", 0.34f64)?,
        crashes_per_cell: flags.get_or("crashes", 1u32)?,
        crash_start_subframe: flags.get_or("crash-at", 30_000u64)?,
        crash_spacing_subframes: flags.get_or("crash-gap", 4_000u64)?,
        stall_fraction: flags.get_or("stall-frac", 0.0f64)?,
        stall_factor: flags.get_or("stall-factor", 4u32)?,
        stall_at_subframe: flags.get_or("stall-at", 10_000u64)?,
        poison_fraction: flags.get_or("poison-frac", 0.05f64)?,
        poison_rate: flags.get_or("poison-rate", 0.25f64)?,
        poison_at_subframe: flags.get_or("poison-at", 0u64)?,
        torn_fraction: flags.get_or("torn-frac", 0.5f64)?,
        churn_rate_hz: flags.get_or("churn-rate", 0.0f64)?,
        churn_start_subframe: flags.get_or("churn-at", 20_000u64)?,
    };
    let plan = ChaosPlan::compile(chaos_config).map_err(|e| e.to_string())?;
    println!("plan: {}", plan.describe());

    let mut cell = CellConfig::testbed_siso();
    cell.numerology.n_rbs = flags.get_or("rbs", 10usize)?;
    let mut config = RobustConfig::new(BluConfig::new(EmulationConfig::new(cell)));
    if let window @ 1.. = flags.get_or("stream-window", 0usize)? {
        let streaming = blu_core::robust::StreamingConfig::new(window);
        streaming.validate().map_err(|e| e.to_string())?;
        config.streaming = Some(streaming);
    }
    let (dir, throwaway) = match flags.get("checkpoint-dir") {
        Some(d) => (PathBuf::from(d), false),
        None => (
            std::env::temp_dir().join(format!("blu-chaos-{}", std::process::id())),
            true,
        ),
    };
    config.checkpoint = Some(CheckpointPolicy {
        dir: dir.clone(),
        every_subframes: flags.get_or("checkpoint-every", 2_000u64)?,
        resume: false,
    });
    let sup = SupervisorConfig {
        max_restarts: flags.get_or("max-restarts", 3u32)?,
        ..SupervisorConfig::default()
    };

    let fleet_cache = match flags.get_or("fleet-cache-capacity", 0usize)? {
        0 => None,
        cap => {
            let cache = std::sync::Arc::new(FleetBlueprintCache::new(cap));
            config.fleet_cache = Some(std::sync::Arc::clone(&cache));
            Some(cache)
        }
    };

    super::quiet_injected_panics();
    let result = run_chaos(&plan, &config, &sup).map_err(|e| e.to_string())?;

    // With the cache on, replay the identical storm uncached (into a
    // sibling checkpoint dir so the runs cannot collide on disk) and
    // demand the outcomes match outside wall-clock.
    let mut transparency = Vec::new();
    if let Some(cache) = &fleet_cache {
        let mut uncached_config = config.clone();
        uncached_config.fleet_cache = None;
        let uncached_dir = dir.with_file_name(format!(
            "{}-uncached",
            dir.file_name().and_then(|n| n.to_str()).unwrap_or("chaos")
        ));
        if let Some(policy) = &mut uncached_config.checkpoint {
            policy.dir = uncached_dir.clone();
        }
        let uncached = run_chaos(&plan, &uncached_config, &sup).map_err(|e| e.to_string())?;
        let _ = std::fs::remove_dir_all(&uncached_dir);
        transparency = verify_cache_transparency(&result, &uncached);
        let s = cache.stats();
        println!(
            "\nfleet cache: {} hit(s), {} delayed hit(s), {} miss(es), {} bypass(es), \
             {} eviction(s) | work saved: {:.1}%",
            s.hits,
            s.delayed_hits,
            s.misses,
            s.bypasses,
            s.evictions,
            100.0 * s.work_saved()
        );
    }
    if throwaway {
        let _ = std::fs::remove_dir_all(&dir);
    }

    let health = &result.outcome.health;
    println!(
        "\nfleet: {} round(s), {} checkpoint(s) torn, {} restart(s), {} quarantined",
        health.rounds,
        result.tears,
        health.total_restarts(),
        health.quarantined()
    );
    println!("\n cell  faults      health       restarts  crashes  notes");
    for (i, h) in health.cells.iter().enumerate() {
        let mut faults = String::new();
        for (set, tag) in [
            (&plan.crash_cells, 'C'),
            (&plan.stall_cells, 'S'),
            (&plan.poison_cells, 'P'),
            (&plan.torn_cells, 'T'),
        ] {
            faults.push(if set.contains(&i) { tag } else { '-' });
        }
        let notes = if h.restart_sources.is_empty() {
            String::new()
        } else {
            format!("{:?}", h.restart_sources)
        };
        println!(
            "  {i:>3}  {faults:<10}  {:<11}  {:>8}  {:>7}  {notes}",
            format!("{:?}", h.final_health),
            h.restarts,
            h.crashes_observed
        );
    }
    let quarantined: Vec<usize> = health
        .cells
        .iter()
        .enumerate()
        .filter(|(_, h)| h.final_health == CellHealth::Quarantined)
        .map(|(i, _)| i)
        .collect();
    if !quarantined.is_empty() {
        println!("\nquarantined to static PF: {quarantined:?}");
    }

    let mut violations = verify_invariants(&plan, &result);
    violations.extend(transparency);
    if violations.is_empty() {
        if fleet_cache.is_some() {
            println!("\nall recovery invariants held; caching changed no observable outcome");
        } else {
            println!("\nall recovery invariants held");
        }
        Ok(())
    } else {
        println!();
        for v in &violations {
            println!("VIOLATION: {v}");
        }
        Err(format!(
            "{} recovery invariant(s) violated",
            violations.len()
        ))
    }
}
