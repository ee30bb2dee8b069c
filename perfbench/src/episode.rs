//! What every episode reports, and how a run's episodes fold into the
//! end-to-end metrics.

use crate::gate::CellRecord;
use crate::openloop::Sample;
use crate::stats::{median, percentile};

/// Operations sent and operations that failed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Ops {
    /// Requests sent.
    pub attempted: u64,
    /// Requests answered `Busy`, `Rejected` or `Error`, or lost to a
    /// wire failure.
    pub failed: u64,
}

impl std::ops::Add for Ops {
    type Output = Ops;
    fn add(self, o: Ops) -> Ops {
        Ops {
            attempted: self.attempted + o.attempted,
            failed: self.failed + o.failed,
        }
    }
}

/// One episode's measurements.
#[derive(Debug, Clone, Default)]
pub struct EpisodeStats {
    /// Seconds from start until the fleet was admitted and ready.
    pub setup_s: f64,
    /// Seconds of the run phase.
    pub run_s: f64,
    /// Cell-sub-frames advanced in the run phase.
    pub cell_subframes: u64,
    /// Closed-loop step latencies, ms.
    pub step_ms: Vec<f64>,
    /// Open-loop status requests.
    pub status: Vec<Sample>,
    /// Operations sent.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Per-cell outcome records.
    pub records: Vec<CellRecord>,
    /// Fleet rounds stepped.
    pub rounds: u64,
    /// Process CPU seconds over the run phase.
    pub cpu_s: f64,
    /// Host steal seconds over the run phase.
    pub steal_s: f64,
}

/// A run's end-to-end metrics, folded over its episodes.
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEnd {
    /// Median episode set-up time, s.
    pub setup_s: f64,
    /// Median over episodes of cell-sub-frames per second of run-phase
    /// wall time.
    pub cell_subframes_per_s: f64,
    /// Step latency p50 over every sample, ms.
    pub step_p50_ms: f64,
    /// Median over episodes of each episode's step latency p95, ms.
    pub step_p95_ep_ms: f64,
    /// Open-loop status latency (from due) p50 over every sample, ms.
    pub status_p50_ms: f64,
    /// Median over episodes of each episode's status latency p90, ms.
    pub status_p90_ep_ms: f64,
    /// Mean per-cell effective UL throughput, Mbit/s.
    pub ul_mbps: f64,
    /// Utilized over scheduled RB-grants, fleet-wide.
    pub rb_utilization: f64,
    /// Step and status sample counts.
    pub step_samples: usize,
    /// See `step_samples`.
    pub status_samples: usize,
    /// Median and maximum lateness of the open-loop generator, ms.
    pub status_late_p50_ms: f64,
    /// See `status_late_p50_ms`.
    pub status_late_max_ms: f64,
    /// Operations sent and failed.
    pub ops: Ops,
    /// Run-phase seconds, CPU seconds and host steal seconds.
    pub run_s: f64,
    /// See `run_s`.
    pub cpu_s: f64,
    /// See `run_s`.
    pub steal_s: f64,
}

/// Fold episodes into end-to-end metrics. Set-up time and throughput
/// are medians over episodes, so one episode spoiled by a burst of host
/// noise does not move them. The p50s are nearest-rank over every
/// sample of every episode, pooled. The tails (p95 of steps, p90 of
/// the fewer status reads) are taken within each episode and their
/// median over episodes is reported, for the same reason: every episode is a whole fleet lifecycle (admission, first
/// solves, steady state, drain), so a stall the program causes recurs
/// in every episode and moves the median, while a burst of host CPU
/// steal hits a few. `ul_mbps` is the mean over every cell of every
/// episode, summed in record order, so it repeats bit-exactly for a
/// given seed.
pub fn fold(episodes: &[EpisodeStats]) -> EndToEnd {
    let setups: Vec<f64> = episodes.iter().map(|e| e.setup_s).collect();
    let rates: Vec<f64> = episodes
        .iter()
        .map(|e| e.cell_subframes as f64 / e.run_s)
        .collect();
    let run_s: f64 = episodes.iter().map(|e| e.run_s).sum();
    let steps: Vec<f64> = episodes
        .iter()
        .flat_map(|e| e.step_ms.iter().copied())
        .collect();
    let status: Vec<&Sample> = episodes.iter().flat_map(|e| e.status.iter()).collect();
    let status_ms: Vec<f64> = status
        .iter()
        .map(|s| s.latency().as_secs_f64() * 1e3)
        .collect();
    let late_ms: Vec<f64> = status
        .iter()
        .map(|s| s.lateness().as_secs_f64() * 1e3)
        .collect();
    let records: Vec<&CellRecord> = episodes.iter().flat_map(|e| e.records.iter()).collect();
    let ul_sum: f64 = records.iter().map(|r| r.ul_mbps).sum();
    let sched: u64 = records.iter().map(|r| r.rbs_scheduled).sum();
    let util: u64 = records.iter().map(|r| r.rbs_utilized).sum();
    EndToEnd {
        setup_s: median(&setups),
        cell_subframes_per_s: median(&rates),
        step_p50_ms: percentile(&steps, 50.0),
        step_p95_ep_ms: episode_percentile(episodes.iter().map(|e| e.step_ms.clone()), 95.0),
        status_p50_ms: percentile(&status_ms, 50.0),
        status_p90_ep_ms: episode_percentile(
            episodes.iter().map(|e| {
                e.status
                    .iter()
                    .map(|s| s.latency().as_secs_f64() * 1e3)
                    .collect()
            }),
            90.0,
        ),
        ul_mbps: ul_sum / records.len() as f64,
        rb_utilization: util as f64 / sched as f64,
        step_samples: steps.len(),
        status_samples: status_ms.len(),
        status_late_p50_ms: percentile(&late_ms, 50.0),
        status_late_max_ms: late_ms.iter().copied().fold(0.0, f64::max),
        ops: Ops {
            attempted: episodes.iter().map(|e| e.attempted).sum(),
            failed: episodes.iter().map(|e| e.failed).sum(),
        },
        run_s,
        cpu_s: episodes.iter().map(|e| e.cpu_s).sum(),
        steal_s: episodes.iter().map(|e| e.steal_s).sum(),
    }
}

/// Median over episodes of each episode's nearest-rank percentile `q`.
pub fn episode_percentile(per_episode: impl Iterator<Item = Vec<f64>>, q: f64) -> f64 {
    let tails: Vec<f64> = per_episode.map(|v| percentile(&v, q)).collect();
    median(&tails)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 300 samples of 5 ms, of which every `every`-th (from `first`)
    /// is a stall of 50 ms.
    fn episode(every: usize, first: usize) -> Vec<f64> {
        (0..300)
            .map(|i| {
                if every > 0 && i >= first && (i - first).is_multiple_of(every) {
                    50.0
                } else {
                    5.0
                }
            })
            .collect()
    }

    #[test]
    fn a_periodic_stall_in_every_episode_moves_the_episode_percentile() {
        let clean = episode_percentile((0..9).map(|_| episode(0, 0)), 95.0);
        assert_eq!(clean, 5.0);
        // A stall on every 10th sample: 10% of the samples, in every
        // episode, as a regression of the program would be.
        assert_eq!(
            episode_percentile((0..9).map(|_| episode(10, 0)), 95.0),
            50.0
        );
        // Also when each episode catches it at another phase.
        assert_eq!(
            episode_percentile((0..9).map(|e| episode(10, e)), 95.0),
            50.0
        );
        // Below 5% of the samples, a p95 does not see it.
        assert_eq!(
            episode_percentile((0..9).map(|_| episode(25, 0)), 95.0),
            5.0
        );
    }

    #[test]
    fn host_bursts_in_a_minority_of_episodes_do_not_move_the_episode_percentile() {
        // Four of nine episodes stall on 20% of their samples.
        let p95 = episode_percentile((0..9).map(|e| episode(if e < 4 { 5 } else { 0 }, 0)), 95.0);
        assert_eq!(p95, 5.0);
        // Pooled, the same samples move the p95 to the stall.
        let pooled: Vec<f64> = (0..9)
            .flat_map(|e| episode(if e < 4 { 5 } else { 0 }, 0))
            .collect();
        assert_eq!(percentile(&pooled, 95.0), 50.0);
    }
}
