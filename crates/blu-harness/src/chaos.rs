//! Deterministic chaos harness: fleet-scale fault schedules with
//! checkable recovery invariants.
//!
//! A [`ChaosPlan`] compiles a [`ChaosConfig`] — *what fraction of the
//! fleet crashes, stalls, gets poisoned observations, loses its
//! checkpoints* — into per-cell [`FaultScript`]s, all drawn from
//! seeded [`DetRng`] streams so the same config and seed always
//! produce the same storm. [`run_chaos`] then runs the supervised
//! fleet against the plan (with a [`TornCheckpointHook`] corrupting
//! the chosen cells' checkpoints as fast as they are written) next to
//! an unsupervised fault-free golden fleet, and
//! [`verify_invariants`] checks the recovery contract:
//!
//! * the supervised fleet **terminates** and reports every cell;
//! * non-faulted cells are **byte-identical** to their fault-free
//!   goldens — supervision is invisible where nothing went wrong;
//! * every crash-faulted cell was either restored (from disk or
//!   memory) or quarantined to PF — never silently dropped;
//! * quarantine stays bounded by the faulted-cell count;
//! * zero panics propagate (the run returning at all is the proof;
//!   panics observed on cells that were never scheduled to crash are
//!   flagged).
//!
//! The default fault vocabulary is [`blu_sim::faults::FaultKind`]'s
//! runtime kinds — [`FaultKind::CellCrash`],
//! [`FaultKind::InferenceStall`], [`FaultKind::StatPoison`] — which
//! never alter the captured trace, so golden and chaos runs see
//! identical air. Setting [`ChaosConfig::churn_rate_hz`] adds
//! Poisson *topology churn* (capture-time HT arrivals, departures,
//! duty-cycle drifts and edge flips from [`blu_sim::churn`]) to every
//! cell's script; churned cells' air genuinely differs from the
//! goldens, so every cell counts as faulted and the byte-identity
//! invariant intentionally vacates — the remaining recovery and
//! cache-transparency invariants still apply.

use blu_core::runtime::supervisor::{
    run_supervised_fleet_with_hook, CellHealth, SupervisedFleetOutcome, SupervisorConfig,
    SupervisorHook,
};
use blu_core::{BluError, RobustConfig, RobustRunReport};
use blu_sim::faults::{FaultEvent, FaultKind, FaultScript};
use blu_sim::rng::DetRng;
use blu_sim::time::Micros;
use blu_traces::capture::CaptureConfig;
use blu_traces::faults::{capture_with_faults, FaultyCapture};
use rand::RngCore;
use std::fs;
use std::path::Path;

/// Shape of a chaos storm. All fractions are of the whole fleet and
/// live in `[0, 1]`; a non-zero fraction always afflicts at least one
/// cell.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Fleet size.
    pub n_cells: usize,
    /// Capture length per cell, in seconds.
    pub seconds: u64,
    /// Master seed: cell selection, fault placement and per-cell
    /// capture seeds all derive from it.
    pub seed: u64,
    /// Fraction of cells whose task crashes ([`FaultKind::CellCrash`]).
    pub crash_fraction: f64,
    /// Crashes scheduled per crash-faulted cell.
    pub crashes_per_cell: u32,
    /// Subframe of the first crash.
    pub crash_start_subframe: u64,
    /// Spacing between a cell's successive crashes, in subframes.
    pub crash_spacing_subframes: u64,
    /// Fraction of cells with a correlated inference stall.
    pub stall_fraction: f64,
    /// Stall multiplier ([`FaultKind::InferenceStall`]).
    pub stall_factor: u32,
    /// Subframe at which the stall engages.
    pub stall_at_subframe: u64,
    /// Fraction of cells with poisoned observations.
    pub poison_fraction: f64,
    /// Per-constraint poison probability ([`FaultKind::StatPoison`]).
    pub poison_rate: f64,
    /// Subframe at which poisoning engages.
    pub poison_at_subframe: u64,
    /// Fraction of *crash-faulted* cells whose checkpoints are torn
    /// on every save.
    pub torn_fraction: f64,
    /// Total Poisson topology-churn rate per cell, events per second
    /// (`0.0` disables churn — the default, preserving the runtime-only
    /// fault vocabulary). Non-zero rates schedule capture-time
    /// [`FaultKind::HtAppear`]/[`FaultKind::HtDisappear`]/
    /// [`FaultKind::QDrift`]/[`FaultKind::EdgeChurn`] events on every
    /// cell, so churned cells' traces legitimately diverge from the
    /// fault-free goldens and every cell counts as faulted.
    pub churn_rate_hz: f64,
    /// Subframe at which the churn window opens (churn events land in
    /// `[churn_start_subframe, seconds * 1000)`).
    pub churn_start_subframe: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            n_cells: 6,
            seconds: 60,
            seed: 0xC4A05,
            crash_fraction: 0.34,
            crashes_per_cell: 1,
            crash_start_subframe: 30_000,
            crash_spacing_subframes: 4_000,
            stall_fraction: 0.0,
            stall_factor: 4,
            stall_at_subframe: 10_000,
            poison_fraction: 0.05,
            poison_rate: 0.25,
            poison_at_subframe: 0,
            torn_fraction: 0.5,
            churn_rate_hz: 0.0,
            churn_start_subframe: 20_000,
        }
    }
}

impl ChaosConfig {
    fn validate(&self) -> Result<(), BluError> {
        if self.n_cells == 0 {
            return Err(BluError::InvalidConfig("chaos n_cells must be > 0".into()));
        }
        if self.seconds == 0 {
            return Err(BluError::InvalidConfig("chaos seconds must be > 0".into()));
        }
        for (name, frac) in [
            ("crash_fraction", self.crash_fraction),
            ("stall_fraction", self.stall_fraction),
            ("poison_fraction", self.poison_fraction),
            ("torn_fraction", self.torn_fraction),
            ("poison_rate", self.poison_rate),
        ] {
            if !frac.is_finite() || !(0.0..=1.0).contains(&frac) {
                return Err(BluError::InvalidConfig(format!(
                    "chaos {name} must be finite in [0, 1], got {frac}"
                )));
            }
        }
        if self.crash_fraction > 0.0 && self.crashes_per_cell == 0 {
            return Err(BluError::InvalidConfig(
                "chaos crashes_per_cell must be > 0 when crash_fraction > 0".into(),
            ));
        }
        if self.stall_fraction > 0.0 && self.stall_factor < 2 {
            return Err(BluError::InvalidConfig(
                "chaos stall_factor must be >= 2 to be a fault".into(),
            ));
        }
        if !self.churn_rate_hz.is_finite() || self.churn_rate_hz < 0.0 {
            return Err(BluError::InvalidConfig(format!(
                "chaos churn_rate_hz must be finite and >= 0, got {}",
                self.churn_rate_hz
            )));
        }
        Ok(())
    }
}

/// A compiled storm: per-cell fault scripts plus the membership sets
/// the invariant checks need.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    /// The config this plan was compiled from.
    pub config: ChaosConfig,
    /// One fault script per cell, in cell order.
    pub scripts: Vec<FaultScript>,
    /// Whether each cell has any scheduled fault.
    pub faulted: Vec<bool>,
    /// Cells scheduled to crash, sorted.
    pub crash_cells: Vec<usize>,
    /// Cells scheduled to stall, sorted.
    pub stall_cells: Vec<usize>,
    /// Cells with poisoned observations, sorted.
    pub poison_cells: Vec<usize>,
    /// Cells whose checkpoints are torn on save (subset of
    /// `crash_cells`), sorted.
    pub torn_cells: Vec<usize>,
}

/// `ceil(frac * n)`, clamped to `n` — a non-zero fraction always
/// picks at least one member.
fn afflicted(n: usize, frac: f64) -> usize {
    ((frac * n as f64).ceil() as usize).min(n)
}

impl ChaosPlan {
    /// Compile a config into a plan. Pure and deterministic: the same
    /// config yields the same plan, bit for bit.
    pub fn compile(config: ChaosConfig) -> Result<ChaosPlan, BluError> {
        config.validate()?;
        let n = config.n_cells;
        let rng = DetRng::seed_from_u64(config.seed);

        let pick = |label: &str, frac: f64| -> Vec<usize> {
            let mut cells = rng.derive(label).choose_indices(n, afflicted(n, frac));
            cells.sort_unstable();
            cells
        };
        let crash_cells = pick("chaos-crash-cells", config.crash_fraction);
        let stall_cells = pick("chaos-stall-cells", config.stall_fraction);
        let poison_cells = pick("chaos-poison-cells", config.poison_fraction);
        let torn_cells: Vec<usize> = {
            let k = afflicted(crash_cells.len(), config.torn_fraction);
            let mut picks = rng
                .derive("chaos-torn-cells")
                .choose_indices(crash_cells.len(), k)
                .into_iter()
                .map(|i| crash_cells[i])
                .collect::<Vec<_>>();
            picks.sort_unstable();
            picks
        };

        let mut scripts = vec![FaultScript::none(); n];
        for &cell in &crash_cells {
            let mut events = Vec::with_capacity(config.crashes_per_cell as usize);
            for j in 0..config.crashes_per_cell {
                let offset = u64::from(j)
                    .checked_mul(config.crash_spacing_subframes)
                    .ok_or(BluError::Overflow {
                        what: "chaos crash spacing",
                    })?;
                let at_subframe =
                    config
                        .crash_start_subframe
                        .checked_add(offset)
                        .ok_or(BluError::Overflow {
                            what: "chaos crash schedule",
                        })?;
                events.push(FaultEvent {
                    at_subframe,
                    kind: FaultKind::CellCrash,
                });
            }
            scripts[cell] = merge(&scripts[cell], events);
        }
        for &cell in &stall_cells {
            scripts[cell] = merge(
                &scripts[cell],
                vec![FaultEvent {
                    at_subframe: config.stall_at_subframe,
                    kind: FaultKind::InferenceStall {
                        factor: config.stall_factor,
                    },
                }],
            );
        }
        for &cell in &poison_cells {
            scripts[cell] = merge(
                &scripts[cell],
                vec![FaultEvent {
                    at_subframe: config.poison_at_subframe,
                    kind: FaultKind::StatPoison {
                        rate: config.poison_rate,
                    },
                }],
            );
        }
        if config.churn_rate_hz > 0.0 {
            let cap = CaptureConfig::testbed_default();
            let total = config
                .seconds
                .checked_mul(1_000)
                .ok_or(BluError::Overflow {
                    what: "chaos churn window",
                })?;
            let duration = total.saturating_sub(config.churn_start_subframe);
            if duration > 0 {
                for (cell, script) in scripts.iter_mut().enumerate() {
                    let mut cell_rng = rng.derive_indexed("chaos-churn", cell as u64);
                    let events = blu_core::churn_events(
                        cap.n_ues,
                        cap.n_hts,
                        config.churn_start_subframe,
                        duration,
                        config.churn_rate_hz,
                        cell_rng.next_u64(),
                    )?;
                    *script = merge(script, events);
                }
            }
        }

        let faulted = scripts.iter().map(|s| !s.events.is_empty()).collect();
        Ok(ChaosPlan {
            config,
            scripts,
            faulted,
            crash_cells,
            stall_cells,
            poison_cells,
            torn_cells,
        })
    }

    fn capture_config(&self) -> CaptureConfig {
        CaptureConfig {
            duration: Micros::from_secs(self.config.seconds),
            q_range: (0.25, 0.55),
            ..CaptureConfig::testbed_default()
        }
    }

    fn capture_set(&self, scripts: bool) -> Result<Vec<FaultyCapture>, BluError> {
        let cfg = self.capture_config();
        let none = FaultScript::none();
        (0..self.config.n_cells)
            .map(|i| {
                let script = if scripts { &self.scripts[i] } else { &none };
                capture_with_faults(&cfg, script, self.config.seed.wrapping_add(i as u64))
                    .map_err(BluError::from)
            })
            .collect()
    }

    /// The fleet's captures with the storm's fault scripts attached.
    /// Every scheduled fault is runtime-only, so the underlying
    /// traces equal [`ChaosPlan::golden_captures`] byte for byte.
    pub fn captures(&self) -> Result<Vec<FaultyCapture>, BluError> {
        self.capture_set(true)
    }

    /// The same captures with no faults — the golden inputs.
    pub fn golden_captures(&self) -> Result<Vec<FaultyCapture>, BluError> {
        self.capture_set(false)
    }

    /// One-line human summary for logs and the CLI.
    pub fn describe(&self) -> String {
        let mut line = format!(
            "{} cells x {}s, seed {:#x}: {} crashing ({} torn), {} stalling, {} poisoned",
            self.config.n_cells,
            self.config.seconds,
            self.config.seed,
            self.crash_cells.len(),
            self.torn_cells.len(),
            self.stall_cells.len(),
            self.poison_cells.len(),
        );
        if self.config.churn_rate_hz > 0.0 {
            line.push_str(&format!(
                ", churn {:.2} Hz from sf {}",
                self.config.churn_rate_hz, self.config.churn_start_subframe
            ));
        }
        line
    }
}

fn merge(script: &FaultScript, extra: Vec<FaultEvent>) -> FaultScript {
    let mut events = script.events.clone();
    events.extend(extra);
    FaultScript::new(events)
}

/// A [`SupervisorHook`] that corrupts the chosen cells' checkpoints
/// the moment they are written: the file is truncated to half its
/// bytes, simulating a crash mid-write on a filesystem without the
/// atomic-rename guarantee. Restores on those cells are forced onto
/// the in-memory (or from-scratch) path.
#[derive(Debug)]
pub struct TornCheckpointHook {
    torn: Vec<bool>,
    /// Checkpoint files torn so far.
    pub tears: u64,
}

impl TornCheckpointHook {
    /// Tear every save of the given cells (indices into the fleet).
    pub fn new(torn_cells: &[usize], n_cells: usize) -> Self {
        let mut torn = vec![false; n_cells];
        for &cell in torn_cells {
            if cell < n_cells {
                torn[cell] = true;
            }
        }
        TornCheckpointHook { torn, tears: 0 }
    }
}

impl SupervisorHook for TornCheckpointHook {
    fn after_checkpoint_save(&mut self, cell: usize, path: &Path, _round: u64) {
        if !self.torn.get(cell).copied().unwrap_or(false) {
            return;
        }
        if let Ok(bytes) = fs::read(path) {
            let half = bytes.len() / 2;
            if fs::write(path, &bytes[..half]).is_ok() {
                self.tears += 1;
            }
        }
    }
}

/// Everything one chaos run produces: the supervised outcome under
/// the storm, the fault-free unsupervised goldens, and how many
/// checkpoints were torn along the way.
#[derive(Debug)]
pub struct ChaosRunResult {
    /// Supervised fleet outcome under the compiled storm.
    pub outcome: SupervisedFleetOutcome,
    /// Fault-free golden reports, one per cell.
    pub goldens: Vec<RobustRunReport>,
    /// Checkpoint saves the torn-checkpoint hook corrupted.
    pub tears: u64,
}

/// Run the supervised fleet against the plan's storm (tearing
/// checkpoints per the plan) and the unsupervised golden fleet
/// against the fault-free captures.
///
/// `config.checkpoint` governs the supervised run only; goldens
/// always run without checkpointing so the two runs cannot collide
/// on disk.
pub fn run_chaos(
    plan: &ChaosPlan,
    config: &RobustConfig,
    sup: &SupervisorConfig,
) -> Result<ChaosRunResult, BluError> {
    let golden_caps = plan.golden_captures()?;
    let mut golden_config = config.clone();
    golden_config.checkpoint = None;
    let goldens = blu_core::run_robust_fleet(&golden_caps, &golden_config)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;

    let captures = plan.captures()?;
    let mut hook = TornCheckpointHook::new(&plan.torn_cells, plan.config.n_cells);
    let outcome = run_supervised_fleet_with_hook(&captures, config, sup, &mut hook)?;
    Ok(ChaosRunResult {
        outcome,
        goldens,
        tears: hook.tears,
    })
}

/// Field-by-field report equality, excluding the wall-clock
/// `inference_micros` (floats compared bit-exactly).
pub fn reports_equivalent(a: &RobustRunReport, b: &RobustRunReport) -> bool {
    a.metrics == b.metrics
        && a.transitions == b.transitions
        && a.verdicts == b.verdicts
        && a.measurement_subframes == b.measurement_subframes
        && a.n_remeasurements == b.n_remeasurements
        && a.speculative_txops == b.speculative_txops
        && a.fallback_txops == b.fallback_txops
        && a.final_confidence.to_bits() == b.final_confidence.to_bits()
        && a.peak_drift.to_bits() == b.peak_drift.to_bits()
        && a.breaker_transitions == b.breaker_transitions
        && a.inference_panics == b.inference_panics
        && a.deadline_misses == b.deadline_misses
        && a.quarantined_constraints == b.quarantined_constraints
        && a.stream_refines == b.stream_refines
        && a.stream_refines_installed == b.stream_refines_installed
        && a.stream_fallback_remeasurements == b.stream_fallback_remeasurements
        && a.stream_churn_events == b.stream_churn_events
        && a.stream_window_occupancy == b.stream_window_occupancy
}

/// Check the recovery contract. Returns a human-readable violation
/// list — empty means every invariant held.
pub fn verify_invariants(plan: &ChaosPlan, result: &ChaosRunResult) -> Vec<String> {
    let mut violations = Vec::new();
    let n = plan.config.n_cells;
    let health = &result.outcome.health;

    if !health.completed {
        violations.push("supervised fleet did not run to completion".into());
    }
    if result.outcome.reports.len() != n {
        violations.push(format!(
            "expected {n} reports, got {}",
            result.outcome.reports.len()
        ));
    }
    if health.cells.len() != n {
        violations.push(format!(
            "expected {n} health reports, got {}",
            health.cells.len()
        ));
        return violations;
    }

    for cell in 0..n.min(result.outcome.reports.len()) {
        let report = &result.outcome.reports[cell];
        let cell_health = &health.cells[cell];
        if plan.faulted[cell] {
            // Faulted cells: healed or quarantined, never dropped or
            // stuck mid-restart.
            if !matches!(
                cell_health.final_health,
                CellHealth::Healthy | CellHealth::Degraded | CellHealth::Quarantined
            ) {
                violations.push(format!(
                    "cell {cell} ended in {:?}",
                    cell_health.final_health
                ));
            }
            if plan.crash_cells.contains(&cell) {
                if cell_health.crashes_observed == 0 {
                    violations.push(format!(
                        "cell {cell} was scheduled to crash but no crash was observed"
                    ));
                }
                if cell_health.restart_sources.is_empty()
                    && cell_health.final_health != CellHealth::Quarantined
                {
                    violations.push(format!(
                        "crashed cell {cell} was neither restored nor quarantined"
                    ));
                }
            }
        } else {
            // Non-faulted cells: supervision must be invisible.
            if !reports_equivalent(report, &result.goldens[cell]) {
                violations.push(format!(
                    "non-faulted cell {cell} diverged from its fault-free golden"
                ));
            }
            if cell_health.restarts != 0 {
                violations.push(format!(
                    "non-faulted cell {cell} was restarted {} times",
                    cell_health.restarts
                ));
            }
            if cell_health.crashes_observed != 0 {
                violations.push(format!("cell {cell} panicked without a scheduled crash"));
            }
        }
    }

    let faulted_count = plan.faulted.iter().filter(|f| **f).count();
    if health.quarantined() > faulted_count {
        violations.push(format!(
            "{} cells quarantined but only {faulted_count} were faulted",
            health.quarantined()
        ));
    }
    violations
}

/// Check that the fleet blueprint cache is *transparent*: the same
/// storm run with [`RobustConfig::fleet_cache`] enabled and disabled
/// must produce outcomes that differ only in wall-clock. Compares
/// every supervised report (via [`reports_equivalent`], which already
/// excludes `inference_micros` and compares floats bit-exactly),
/// every fault-free golden, and the per-cell health ledgers. Returns
/// a human-readable violation list — empty means the cache was
/// invisible.
pub fn verify_cache_transparency(
    cached: &ChaosRunResult,
    uncached: &ChaosRunResult,
) -> Vec<String> {
    let mut violations = Vec::new();
    if cached.outcome.reports.len() != uncached.outcome.reports.len() {
        violations.push(format!(
            "cached run produced {} reports, uncached {}",
            cached.outcome.reports.len(),
            uncached.outcome.reports.len()
        ));
        return violations;
    }
    if cached.goldens.len() != uncached.goldens.len() {
        violations.push(format!(
            "cached run produced {} goldens, uncached {}",
            cached.goldens.len(),
            uncached.goldens.len()
        ));
        return violations;
    }
    for (cell, (a, b)) in cached
        .outcome
        .reports
        .iter()
        .zip(&uncached.outcome.reports)
        .enumerate()
    {
        if !reports_equivalent(a, b) {
            violations.push(format!(
                "cell {cell}: supervised report diverged between cached and uncached runs"
            ));
        }
    }
    for (cell, (a, b)) in cached.goldens.iter().zip(&uncached.goldens).enumerate() {
        if !reports_equivalent(a, b) {
            violations.push(format!(
                "cell {cell}: fault-free golden diverged between cached and uncached runs"
            ));
        }
    }
    let (ha, hb) = (&cached.outcome.health, &uncached.outcome.health);
    if ha.rounds != hb.rounds {
        violations.push(format!(
            "round counts diverged: cached {} vs uncached {}",
            ha.rounds, hb.rounds
        ));
    }
    if ha.completed != hb.completed {
        violations.push(format!(
            "completion diverged: cached {} vs uncached {}",
            ha.completed, hb.completed
        ));
    }
    for (cell, (a, b)) in ha.cells.iter().zip(&hb.cells).enumerate() {
        if a.final_health != b.final_health
            || a.restarts != b.restarts
            || a.restart_sources != b.restart_sources
            || a.transitions != b.transitions
            || a.crashes_observed != b.crashes_observed
        {
            violations.push(format!(
                "cell {cell}: health ledger diverged between cached and uncached runs"
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compilation_is_deterministic_and_bounded() {
        let plan_a = ChaosPlan::compile(ChaosConfig::default()).unwrap();
        let plan_b = ChaosPlan::compile(ChaosConfig::default()).unwrap();
        assert_eq!(plan_a.scripts, plan_b.scripts);
        assert_eq!(plan_a.crash_cells, plan_b.crash_cells);
        assert_eq!(plan_a.torn_cells, plan_b.torn_cells);
        // crash_fraction 0.34 of 6 cells = ceil -> 3; torn 0.5 of 3 -> 2.
        assert_eq!(plan_a.crash_cells.len(), 3);
        assert_eq!(plan_a.torn_cells.len(), 2);
        assert!(plan_a
            .torn_cells
            .iter()
            .all(|c| plan_a.crash_cells.contains(c)));
        for &cell in &plan_a.crash_cells {
            assert!(plan_a.faulted[cell]);
            assert_eq!(plan_a.scripts[cell].crash_subframes(), vec![30_000]);
        }
        let different = ChaosPlan::compile(ChaosConfig {
            seed: 1,
            ..ChaosConfig::default()
        })
        .unwrap();
        assert_ne!(plan_a.crash_cells, different.crash_cells);
    }

    #[test]
    fn crash_schedule_overflow_is_a_typed_error_at_u32_max_boundaries() {
        // u32::MAX-adjacent values that still fit in u64 compile exactly.
        let edge = ChaosPlan::compile(ChaosConfig {
            crash_start_subframe: u64::from(u32::MAX),
            crash_spacing_subframes: u64::from(u32::MAX),
            crashes_per_cell: 2,
            ..ChaosConfig::default()
        })
        .unwrap();
        let cell = edge.crash_cells[0];
        assert_eq!(
            edge.scripts[cell].crash_subframes(),
            vec![u64::from(u32::MAX), 2 * u64::from(u32::MAX)]
        );

        // One step past the u64 ceiling is a typed overflow, not a wrap
        // that would silently reorder the script.
        match ChaosPlan::compile(ChaosConfig {
            crash_start_subframe: u64::MAX,
            crash_spacing_subframes: 1,
            crashes_per_cell: 2,
            ..ChaosConfig::default()
        }) {
            Err(BluError::Overflow { what }) => assert!(what.contains("crash")),
            other => panic!("expected Overflow, got {other:?}"),
        }
        match ChaosPlan::compile(ChaosConfig {
            crash_start_subframe: 0,
            crash_spacing_subframes: u64::MAX,
            crashes_per_cell: 3,
            ..ChaosConfig::default()
        }) {
            Err(BluError::Overflow { what }) => assert!(what.contains("crash")),
            other => panic!("expected Overflow, got {other:?}"),
        }
    }

    #[test]
    fn churn_storms_compile_deterministically_and_mark_every_cell_faulted() {
        let cfg = ChaosConfig {
            churn_rate_hz: 0.5,
            ..ChaosConfig::default()
        };
        let plan_a = ChaosPlan::compile(cfg.clone()).unwrap();
        let plan_b = ChaosPlan::compile(cfg).unwrap();
        assert_eq!(plan_a.scripts, plan_b.scripts);
        assert!(
            plan_a.faulted.iter().all(|f| *f),
            "churn touches every cell"
        );
        // Churn events land inside the window and differ across cells.
        let topo_a = plan_a.scripts[0].topology_event_subframes();
        assert!(!topo_a.is_empty());
        assert!(topo_a.iter().all(|&sf| (20_000..60_000).contains(&sf)));
        assert_ne!(
            plan_a.scripts[0].topology_event_subframes(),
            plan_a.scripts[1].topology_event_subframes(),
            "per-cell churn streams must be independent"
        );
        // Churn rejects non-finite rates like every other knob.
        assert!(ChaosPlan::compile(ChaosConfig {
            churn_rate_hz: f64::NAN,
            ..ChaosConfig::default()
        })
        .is_err());
    }

    #[test]
    fn fractions_out_of_range_are_rejected() {
        for bad in [
            ChaosConfig {
                crash_fraction: 1.5,
                ..ChaosConfig::default()
            },
            ChaosConfig {
                poison_rate: f64::NAN,
                ..ChaosConfig::default()
            },
            ChaosConfig {
                n_cells: 0,
                ..ChaosConfig::default()
            },
            ChaosConfig {
                stall_fraction: 0.5,
                stall_factor: 1,
                ..ChaosConfig::default()
            },
        ] {
            assert!(ChaosPlan::compile(bad).is_err());
        }
    }

    #[test]
    fn torn_hook_halves_files_for_chosen_cells_only() {
        let dir = std::env::temp_dir().join(format!("blu-torn-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let torn_path = dir.join("cell-0.json");
        let safe_path = dir.join("cell-1.json");
        fs::write(&torn_path, vec![b'x'; 100]).unwrap();
        fs::write(&safe_path, vec![b'x'; 100]).unwrap();

        let mut hook = TornCheckpointHook::new(&[0], 2);
        hook.after_checkpoint_save(0, &torn_path, 0);
        hook.after_checkpoint_save(1, &safe_path, 0);
        assert_eq!(fs::read(&torn_path).unwrap().len(), 50);
        assert_eq!(fs::read(&safe_path).unwrap().len(), 100);
        assert_eq!(hook.tears, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
