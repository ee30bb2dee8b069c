//! Workload generation: every input the program receives derives from
//! the run's `--seed` through [`mix`], so one seed is one workload.

use blu_core::runtime::wire::CellSpec;
use blu_harness::chaos::ChaosConfig;

/// The seed whose outputs are committed under `reference/`.
pub const DEFAULT_SEED: u64 = 1;

/// The three workloads, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 16 phased cells behind `blu serve`.
    ServePhased,
    /// 8 streaming cells under Poisson UE/HT churn behind `blu serve`.
    ServeChurn,
    /// The batch supervised fleet under a compiled chaos storm.
    ChaosStorm,
}

impl Workload {
    /// Every workload, in the order the summary prints them.
    pub const ALL: [Workload; 3] = [
        Workload::ServePhased,
        Workload::ServeChurn,
        Workload::ChaosStorm,
    ];

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServePhased => "serve_phased",
            Workload::ServeChurn => "serve_churn",
            Workload::ChaosStorm => "chaos_storm",
        }
    }

    /// Whether the workload drives the daemon over the wire.
    pub fn is_serve(self) -> bool {
        self != Workload::ChaosStorm
    }
}

/// Shape of one serve workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeShape {
    /// Resident cells per episode.
    pub cells: usize,
    /// Trace length per cell, in seconds of air time.
    pub cell_seconds: u64,
    /// Streaming window (`0` = phased).
    pub stream_window: u64,
    /// Poisson churn rate in milli-hertz (`0` = none).
    pub churn_millihz: u64,
    /// Rounds per controller `Step` burst.
    pub burst: u64,
    /// Rounds per `Step` burst of the cadence-check episode.
    pub check_burst: u64,
    /// Open-loop `Status` period of the monitor, in milliseconds.
    pub status_period_ms: u64,
    /// Host seconds one episode (set-up included) is expected to take;
    /// fixes the episode count for a given `--seconds`.
    pub episode_seconds: f64,
}

/// The serve workloads' shapes.
pub fn serve_shape(workload: Workload) -> ServeShape {
    match workload {
        Workload::ServePhased => ServeShape {
            cells: 16,
            cell_seconds: 120,
            stream_window: 0,
            churn_millihz: 0,
            burst: 4,
            check_burst: 7,
            status_period_ms: 20,
            episode_seconds: 3.3,
        },
        _ => ServeShape {
            cells: 8,
            cell_seconds: 60,
            stream_window: 2_000,
            churn_millihz: 500,
            burst: 1,
            check_burst: 3,
            status_period_ms: 25,
            episode_seconds: 4.8,
        },
    }
}

/// Shape of the chaos workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StormShape {
    /// Fleet size.
    pub cells: usize,
    /// Trace length per cell, in seconds.
    pub cell_seconds: u64,
    /// Crashes per crash-faulted cell.
    pub crashes_per_cell: u32,
    /// Fleet blueprint cache capacity.
    pub cache_capacity: usize,
    /// Checkpoint cadence in sub-frames.
    pub checkpoint_every: u64,
    /// Supervised rounds per timed step window.
    pub step_rounds: u64,
    /// Period of the open-loop checkpoint-directory reader, in ms.
    pub status_period_ms: u64,
    /// Host seconds one episode is expected to take.
    pub episode_seconds: f64,
}

/// The chaos workload's shape.
pub fn storm_shape() -> StormShape {
    StormShape {
        cells: 8,
        cell_seconds: 120,
        crashes_per_cell: 2,
        cache_capacity: 64,
        checkpoint_every: 4_000,
        step_rounds: 16,
        status_period_ms: 25,
        episode_seconds: 2.5,
    }
}

/// Episodes a run of `seconds` makes: a pure function of the
/// workload and `--seconds`, so a seed fixes the work done. At least
/// three, so that set-up time has a median.
pub fn episodes(seconds: u64, episode_seconds: f64) -> usize {
    ((seconds as f64 / episode_seconds).round() as usize).max(3)
}

/// SplitMix64 finalizer over `seed` and two labels.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z =
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The cell specs of one serve episode: distinct capture seeds, the
/// workload's churn and streaming settings, default priority.
pub fn serve_specs(workload: Workload, seed: u64, episode: usize) -> Vec<CellSpec> {
    let shape = serve_shape(workload);
    (0..shape.cells)
        .map(|cell| CellSpec {
            churn_millihz: shape.churn_millihz,
            stream_window: shape.stream_window,
            ..CellSpec::new(
                mix(seed, episode as u64 + 1, cell as u64 + 1),
                shape.cell_seconds,
            )
        })
        .collect()
}

/// The chaos storm of one episode: `ChaosConfig::default()` fractions
/// with the workload's fleet size, trace length and crash count.
pub fn storm_config(seed: u64, episode: usize) -> ChaosConfig {
    let shape = storm_shape();
    ChaosConfig {
        n_cells: shape.cells,
        seconds: shape.cell_seconds,
        seed: mix(seed, episode as u64 + 1, 0xC4A05),
        crashes_per_cell: shape.crashes_per_cell,
        ..ChaosConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        for w in [Workload::ServePhased, Workload::ServeChurn] {
            assert_eq!(serve_specs(w, 7, 0), serve_specs(w, 7, 0));
            assert_ne!(serve_specs(w, 7, 0), serve_specs(w, 8, 0));
            assert_ne!(serve_specs(w, 7, 0), serve_specs(w, 7, 1));
            let seeds: std::collections::BTreeSet<u64> =
                serve_specs(w, 7, 0).iter().map(|s| s.seed).collect();
            assert_eq!(seeds.len(), serve_shape(w).cells, "cell seeds are distinct");
        }
        assert_eq!(storm_config(7, 2).seed, storm_config(7, 2).seed);
        assert_ne!(storm_config(7, 2).seed, storm_config(8, 2).seed);
        let a = blu_harness::chaos::ChaosPlan::compile(storm_config(7, 0)).unwrap();
        let b = blu_harness::chaos::ChaosPlan::compile(storm_config(7, 0)).unwrap();
        assert_eq!(a.scripts, b.scripts);
        assert_eq!(a.crash_cells, b.crash_cells);
        assert_eq!(a.torn_cells, b.torn_cells);
    }

    #[test]
    fn episode_count_depends_only_on_seconds() {
        assert_eq!(episodes(1, 3.0), 3);
        assert_eq!(episodes(12, 3.0), 4);
        assert_eq!(episodes(12, 3.0), episodes(12, 3.0));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }
}
