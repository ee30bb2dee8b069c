//! Turning grant outcomes into access-distribution measurements.
//!
//! The estimator consumes per-RB decode observations
//! ([`RbObservation`]) and updates the empirical access statistics.
//! The crucial filter (paper §3.3): only *blocked* outcomes (no
//! pilot) count as "could not access"; *fading* losses — pilot
//! received, data lost — mean the client did access the channel, and
//! a *collision* between over-scheduled clients also proves all of
//! them accessed. Conflating fading with blocking would corrupt
//! `p(i)` and poison the blue-print.

use blu_phy::outcome::{DecodeOutcome, RbObservation};
use blu_sim::clientset::ClientSet;
use blu_traces::stats::EmpiricalAccess;
use serde::{Deserialize, Serialize};

/// Accumulates access statistics from scheduler outcomes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutcomeEstimator {
    stats: EmpiricalAccess,
}

impl OutcomeEstimator {
    /// New estimator over `n` clients.
    pub fn new(n: usize) -> Self {
        OutcomeEstimator {
            stats: EmpiricalAccess::new(n),
        }
    }

    /// Ingest one sub-frame's observations (one entry per RB). Each
    /// scheduled client is counted once per sub-frame regardless of
    /// how many RBs it held: its access state is a per-sub-frame
    /// property (one CCA per grant).
    pub fn record_subframe(&mut self, observations: &[RbObservation]) {
        let mut observed = ClientSet::EMPTY;
        let mut accessed = ClientSet::EMPTY;
        for obs in observations {
            for &(ue, outcome) in &obs.outcomes {
                observed.insert(ue);
                match outcome {
                    DecodeOutcome::Blocked => {}
                    DecodeOutcome::Collision
                    | DecodeOutcome::Fading
                    | DecodeOutcome::Success { .. } => {
                        accessed.insert(ue);
                    }
                }
            }
        }
        if !observed.is_empty() {
            self.stats.record(observed, accessed);
        }
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> &EmpiricalAccess {
        &self.stats
    }

    /// Mutable access for callers that record (observed, accessible)
    /// sets directly — e.g. the measurement phase, where the schedule
    /// itself defines who is observed.
    pub fn stats_mut(&mut self) -> &mut EmpiricalAccess {
        &mut self.stats
    }

    /// Age the accumulated statistics by `keep` (see
    /// [`EmpiricalAccess::decay`]): called before a re-measurement so
    /// the shortened phase's fresh samples outweigh pre-drift history.
    pub fn decay(&mut self, keep: f64) {
        self.stats.decay(keep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blu_phy::outcome::classify_rb;

    #[test]
    fn blocked_counts_as_no_access() {
        let mut est = OutcomeEstimator::new(3);
        let obs = classify_rb(
            ClientSet::from_iter([0, 1]),
            ClientSet::singleton(0),
            1,
            |_| Some(10.0),
        );
        est.record_subframe(&[obs]);
        assert_eq!(est.stats().p_individual(0), Some(1.0));
        assert_eq!(est.stats().p_individual(1), Some(0.0));
        assert_eq!(est.stats().p_individual(2), None);
    }

    #[test]
    fn fading_still_counts_as_access() {
        let mut est = OutcomeEstimator::new(2);
        let obs = classify_rb(
            ClientSet::singleton(0),
            ClientSet::singleton(0),
            1,
            |_| None, // fading loss
        );
        est.record_subframe(&[obs]);
        assert_eq!(est.stats().p_individual(0), Some(1.0));
    }

    #[test]
    fn collision_counts_as_access_for_all() {
        let mut est = OutcomeEstimator::new(2);
        let sched = ClientSet::from_iter([0, 1]);
        let obs = classify_rb(sched, sched, 1, |_| Some(5.0));
        est.record_subframe(&[obs]);
        assert_eq!(est.stats().p_individual(0), Some(1.0));
        assert_eq!(est.stats().p_individual(1), Some(1.0));
        assert_eq!(est.stats().p_pair(0, 1), Some(1.0));
    }

    #[test]
    fn client_counted_once_per_subframe() {
        // Same client on two RBs in one sub-frame: one observation.
        let mut est = OutcomeEstimator::new(2);
        let obs1 = classify_rb(ClientSet::singleton(0), ClientSet::EMPTY, 1, |_| None);
        let obs2 = classify_rb(ClientSet::singleton(0), ClientSet::singleton(0), 1, |_| {
            Some(1.0)
        });
        // Blocked on one RB, success on the other cannot happen
        // physically (one CCA per sub-frame), but if pilots straddle,
        // access on *any* RB proves channel access.
        est.record_subframe(&[obs1, obs2]);
        assert_eq!(est.stats().obs_individual[0], 1);
        assert_eq!(est.stats().p_individual(0), Some(1.0));
    }

    #[test]
    fn empty_subframe_ignored() {
        let mut est = OutcomeEstimator::new(2);
        est.record_subframe(&[]);
        assert_eq!(est.stats().p_individual(0), None);
    }

    #[test]
    fn pairwise_statistics_accumulate() {
        let mut est = OutcomeEstimator::new(2);
        let sched = ClientSet::from_iter([0, 1]);
        // Sub-frame 1: both access (collision on SISO).
        est.record_subframe(&[classify_rb(sched, sched, 1, |_| Some(1.0))]);
        // Sub-frame 2: only client 0.
        est.record_subframe(&[classify_rb(sched, ClientSet::singleton(0), 1, |_| {
            Some(1.0)
        })]);
        assert_eq!(est.stats().p_pair(0, 1), Some(0.5));
        assert_eq!(est.stats().p_individual(0), Some(1.0));
        assert_eq!(est.stats().p_individual(1), Some(0.5));
    }
}
