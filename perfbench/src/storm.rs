//! The `chaos_storm` workload: the batch supervised fleet
//! (`run_supervised_fleet_with_hook`) under a compiled
//! `blu_harness::chaos::ChaosPlan`, with torn checkpoints, a shared
//! fleet blueprint cache and grid checkpoints.
//!
//! The batch fleet has no wire, so its two latency series come from
//! its own surfaces: a *step* is a window of at least
//! `StormShape::step_rounds` supervised rounds (the counterpart of a
//! `Step{R}` burst), timed by a coordinator hook at the rounds in which
//! checkpoints were saved, and a *status* read is an operator loading
//! the latest checkpoint of every non-torn cell from the fleet's
//! checkpoint directory, on a fixed schedule while the fleet runs.

use crate::episode::{EpisodeStats, Ops};
use crate::gate::{fnv64, CellRecord};
use crate::gen::{storm_config, storm_shape};
use crate::openloop::{run_open_loop, Sample, WallClock};
use crate::serve::robust_config;
use crate::spans::Tracer;
use crate::sys;
use blu_core::blueprint::{FleetBlueprintCache, FleetCacheStats};
use blu_core::engine::CellGeometry;
use blu_core::robust::{CheckpointPolicy, RobustConfig, RobustRunReport};
use blu_core::runtime::checkpoint::load_robust_checkpoint;
use blu_core::runtime::supervisor::{
    run_supervised_fleet_with_hook, CellHealthReport, SupervisedFleetOutcome, SupervisorConfig,
    SupervisorHook,
};
use blu_harness::chaos::{verify_invariants, ChaosPlan, ChaosRunResult, TornCheckpointHook};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The torn-checkpoint hook plus a clock on the coordinator: the
/// instant of the first checkpoint save of every round that saved.
struct TimingHook {
    torn: TornCheckpointHook,
    rounds: Vec<(u64, Instant)>,
}

impl SupervisorHook for TimingHook {
    fn after_checkpoint_save(&mut self, cell: usize, path: &Path, round: u64) {
        if self.rounds.last().is_none_or(|&(r, _)| r != round) {
            self.rounds.push((round, Instant::now()));
        }
        self.torn.after_checkpoint_save(cell, path, round);
    }
}

/// Everything one storm episode produced.
#[derive(Debug)]
pub struct StormEpisode {
    /// Timings, counts and records common to every workload.
    pub stats: EpisodeStats,
    /// The compiled storm.
    pub plan: ChaosPlan,
    /// The supervised fleet's outcome.
    pub outcome: SupervisedFleetOutcome,
    /// Checkpoint saves the torn hook corrupted.
    pub tears: u64,
    /// Fleet blueprint cache counters after the run.
    pub cache: FleetCacheStats,
}

/// The robust configuration of the storm: serve's cell, grid
/// checkpoints under `dir`, and a fresh shared fleet cache.
pub fn storm_robust_config(dir: &Path) -> RobustConfig {
    let shape = storm_shape();
    let mut config = robust_config();
    config.checkpoint = Some(CheckpointPolicy {
        dir: dir.to_path_buf(),
        every_subframes: shape.checkpoint_every,
        resume: false,
    });
    config.fleet_cache = Some(Arc::new(FleetBlueprintCache::new(shape.cache_capacity)));
    config
}

/// Run episode `episode` of seed `seed` with checkpoints under `dir`
/// (which must not exist yet).
pub fn run_episode(
    seed: u64,
    episode: usize,
    dir: &Path,
    tracer: Option<&mut Tracer>,
) -> Result<StormEpisode, String> {
    let shape = storm_shape();
    let t0 = Instant::now();
    let plan = ChaosPlan::compile(storm_config(seed, episode)).map_err(|e| e.to_string())?;
    let captures = plan.captures().map_err(|e| e.to_string())?;
    let config = storm_robust_config(dir);
    let setup_s = t0.elapsed().as_secs_f64();

    let n = plan.config.n_cells;
    let readable: Vec<PathBuf> = (0..n)
        .filter(|c| !plan.torn_cells.contains(c))
        .map(|c| dir.join(format!("cell-{c}.json")))
        .collect();
    let sup = SupervisorConfig::default();
    let mut hook = TimingHook {
        torn: TornCheckpointHook::new(&plan.torn_cells, n),
        rounds: Vec::new(),
    };
    let stop = AtomicBool::new(false);
    let period = Duration::from_millis(shape.status_period_ms);
    let run_start = Instant::now();
    let cpu0 = sys::process_cpu_s();
    let steal0 = sys::host_steal_s();
    let clock = WallClock::from(run_start);
    let (outcome, run_end, reads) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| read_checkpoints(&clock, period, &readable, &stop));
        let outcome = run_supervised_fleet_with_hook(&captures, &config, &sup, &mut hook);
        // The run phase ends with the fleet, not when the reader next
        // wakes to see the stop flag.
        let run_end = Instant::now();
        stop.store(true, Ordering::SeqCst);
        (outcome, run_end, reader.join())
    });
    let outcome = outcome.map_err(|e| format!("supervised fleet failed: {e}"))?;
    let (status, ops) = reads.map_err(|_| "checkpoint reader panicked".to_string())?;
    let run_s = (run_end - run_start).as_secs_f64();
    let cpu_s = sys::process_cpu_s() - cpu0;
    let steal_s = sys::host_steal_s() - steal0;

    let steps = step_windows(&hook.rounds, shape.step_rounds);
    let step_ms = steps.iter().map(|s| s.2).collect();
    if let Some(t) = tracer {
        let run_span = t.enter_at("storm.run", run_start);
        for &(start, end, _) in &steps {
            t.record("fleet.step_rounds", start, end);
        }
        for s in &status {
            t.record(
                "checkpoint.status_read",
                run_start + s.due,
                run_start + s.done,
            );
        }
        t.exit_at(run_span, run_end);
    }

    let records = outcome
        .reports
        .iter()
        .zip(&outcome.health.cells)
        .enumerate()
        .map(|(cell, (report, health))| CellRecord {
            episode,
            cell,
            digest: fingerprint(report, health),
            ul_mbps: report.effective_throughput_mbps(),
            rbs_scheduled: report.metrics.rbs_scheduled,
            rbs_utilized: report.metrics.rbs_utilized,
        })
        .collect();
    let cell_subframes = captures
        .iter()
        .map(|c| CellGeometry::derive(&c.trace, &config.blu.emulation).trace_len)
        .sum();
    let cache = config
        .fleet_cache
        .as_ref()
        .map(|c| c.stats())
        .unwrap_or_default();
    Ok(StormEpisode {
        stats: EpisodeStats {
            setup_s,
            run_s,
            cell_subframes,
            step_ms,
            status,
            attempted: ops.attempted,
            failed: ops.failed,
            records,
            rounds: outcome.health.rounds,
            cpu_s,
            steal_s,
        },
        plan,
        tears: hook.torn.tears,
        outcome,
        cache,
    })
}

/// Cut the hook's (round, instant) marks into windows of at least
/// `rounds` rounds; each yields (start, end, ms per `rounds` rounds),
/// the batch fleet's counterpart of a `Step{rounds}` round trip.
fn step_windows(marks: &[(u64, Instant)], rounds: u64) -> Vec<(Instant, Instant, f64)> {
    let mut out = Vec::new();
    let Some(&(mut r0, mut t0)) = marks.first() else {
        return out;
    };
    for &(r, t) in &marks[1..] {
        if r - r0 >= rounds {
            let per_round = (t - t0).as_secs_f64() * 1e3 / (r - r0) as f64;
            out.push((t0, t, per_round * rounds as f64));
            (r0, t0) = (r, t);
        }
    }
    out
}

/// The open-loop status reader: once every readable cell has a
/// checkpoint, load all of them, one fleet status per read, on a fixed
/// schedule. Each file load is one operation.
fn read_checkpoints(
    clock: &WallClock,
    period: Duration,
    paths: &[PathBuf],
    stop: &AtomicBool,
) -> (Vec<Sample>, Ops) {
    use crate::openloop::Clock;
    let mut ops = Ops::default();
    let mut start = Duration::ZERO;
    while !paths.iter().all(|p| p.exists()) {
        if stop.load(Ordering::SeqCst) || paths.is_empty() {
            return (Vec::new(), ops);
        }
        start += period;
        clock.sleep_until(start);
    }
    let samples = run_open_loop(
        clock,
        start,
        period,
        || stop.load(Ordering::SeqCst),
        || {
            let loaded = paths
                .iter()
                .filter(|p| load_robust_checkpoint(p).is_ok())
                .count();
            ops.attempted += paths.len() as u64;
            ops.failed += (paths.len() - loaded) as u64;
            loaded == paths.len()
        },
    );
    (samples, ops)
}

/// Digest of everything a supervised cell must reproduce: its whole
/// report and health ledger by their `Debug` forms, less the two
/// fields that are not deterministic: wall-clock `inference_micros`
/// and `last_error`, whose messages name the run's checkpoint paths.
pub fn fingerprint(r: &RobustRunReport, h: &CellHealthReport) -> String {
    let report = RobustRunReport {
        inference_micros: 0,
        ..r.clone()
    };
    let health = CellHealthReport {
        last_error: None,
        ..h.clone()
    };
    fnv64(&format!("{report:?}|{health:?}"))
}

/// Check the episode against `blu_harness::chaos::verify_invariants`,
/// with fault-free goldens run (untimed, without checkpoints or cache)
/// for the cells the invariants compare: the non-faulted ones. Faulted
/// cells' golden slots hold their own report, which the invariants
/// never read.
pub fn check_invariants(ep: StormEpisode) -> Result<(), Vec<String>> {
    let golden_caps = ep.plan.golden_captures().map_err(|e| vec![e.to_string()])?;
    let clean: Vec<usize> = (0..golden_caps.len())
        .filter(|&c| !ep.plan.faulted[c])
        .collect();
    let clean_caps: Vec<_> = clean.iter().map(|&c| golden_caps[c].clone()).collect();
    let golden_config = robust_config();
    let clean_reports = blu_core::run_robust_fleet(&clean_caps, &golden_config)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| vec![format!("golden fleet failed: {e}")])?;
    let mut goldens = ep.outcome.reports.clone();
    for (&c, report) in clean.iter().zip(clean_reports) {
        goldens[c] = report;
    }
    let result = ChaosRunResult {
        outcome: ep.outcome,
        goldens,
        tears: ep.tears,
    };
    let violations = verify_invariants(&ep.plan, &result);
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_windows_span_at_least_the_burst_and_scale_to_it() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // Saves at rounds 0, 3, 8, 9, 20: windows [0, 8] and [8, 20].
        let marks = [
            (0, at(0)),
            (3, at(30)),
            (8, at(80)),
            (9, at(90)),
            (20, at(320)),
        ];
        let w = step_windows(&marks, 8);
        assert_eq!(w.len(), 2);
        assert_eq!((w[0].0, w[0].1), (at(0), at(80)));
        assert!((w[0].2 - 80.0).abs() < 1e-9);
        // 240 ms over 12 rounds, scaled to 8 rounds.
        assert!((w[1].2 - 160.0).abs() < 1e-9);
        assert!(step_windows(&marks[..1], 8).is_empty());
    }
}
