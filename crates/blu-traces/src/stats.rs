//! Empirical access statistics from traces.
//!
//! Computes the measured `p(i)`, `p(i,j)` and arbitrary joint access
//! frequencies `P(U, V̄)` from an [`AccessTrace`] — the "direct from
//! traces" path the paper uses as the perfect-knowledge upper bound
//! (Fig. 15), and as the source of measured pairwise distributions
//! feeding the blue-printing inference.

use crate::schema::AccessTrace;
use blu_sim::clientset::ClientSet;
use serde::{Deserialize, Serialize};

/// Empirical access statistics accumulated from (a window of) an
/// access trace. Counts are over sub-frames in which the clients in
/// question were *observed* — for a full trace every sub-frame
/// observes every client; the measurement scheduler in `blu-core`
/// feeds partial observations instead.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EmpiricalAccess {
    /// Number of clients.
    pub n: usize,
    /// `obs[i]` — sub-frames where client `i`'s access was observed.
    pub obs_individual: Vec<u64>,
    /// `acc[i]` — of those, sub-frames where it could access.
    pub acc_individual: Vec<u64>,
    /// Upper-triangular pair counts, indexed via [`pair_index`].
    pub obs_pair: Vec<u64>,
    /// Pair joint-access counts (both accessible).
    pub acc_pair: Vec<u64>,
}

/// Index of the unordered pair `(i, j)`, `i < j`, in a flat
/// upper-triangular array for `n` clients.
pub fn pair_index(n: usize, i: usize, j: usize) -> usize {
    assert!(i < j && j < n, "bad pair ({i},{j}) for n={n}");
    // Row-major upper triangle: offset of row i = i*n − i(i+1)/2.
    i * n - i * (i + 1) / 2 + (j - i - 1)
}

/// Number of unordered pairs.
pub fn n_pairs(n: usize) -> usize {
    n * (n - 1) / 2
}

impl EmpiricalAccess {
    /// Empty accumulator for `n` clients.
    pub fn new(n: usize) -> Self {
        EmpiricalAccess {
            n,
            obs_individual: vec![0; n],
            acc_individual: vec![0; n],
            obs_pair: vec![0; n_pairs(n)],
            acc_pair: vec![0; n_pairs(n)],
        }
    }

    /// Record one sub-frame in which the clients in `observed` were
    /// scheduled (their access state is known) and `accessible ∩
    /// observed` of them could access.
    pub fn record(&mut self, observed: ClientSet, accessible: ClientSet) {
        for i in observed.iter() {
            self.obs_individual[i] += 1;
            if accessible.contains(i) {
                self.acc_individual[i] += 1;
            }
        }
        // After yielding `i`, the member iterator holds exactly the
        // members above it: the pairs `(i, j)`, `i < j`, with no
        // buffer.
        let mut members = observed.iter();
        while let Some(i) = members.next() {
            for j in members.clone() {
                let idx = pair_index(self.n, i, j);
                self.obs_pair[idx] += 1;
                if accessible.contains(i) && accessible.contains(j) {
                    self.acc_pair[idx] += 1;
                }
            }
        }
    }

    /// Remove one previously [`record`](Self::record)ed sub-frame.
    ///
    /// Runs the same loops as `record` with the increments inverted,
    /// so for any multiset of recorded sub-frames the counters after
    /// `unrecord(o, a)` are *bit-identical* to never having recorded
    /// `(o, a)` at all — the property the sliding
    /// `ObservationWindow` in `blu-core` retires on. Saturating
    /// subtraction guards against un-recording a sub-frame that was
    /// never recorded (a caller bug must not wrap the books to
    /// `u64::MAX`).
    pub fn unrecord(&mut self, observed: ClientSet, accessible: ClientSet) {
        for i in observed.iter() {
            self.obs_individual[i] = self.obs_individual[i].saturating_sub(1);
            if accessible.contains(i) {
                self.acc_individual[i] = self.acc_individual[i].saturating_sub(1);
            }
        }
        let mut members = observed.iter();
        while let Some(i) = members.next() {
            for j in members.clone() {
                let idx = pair_index(self.n, i, j);
                self.obs_pair[idx] = self.obs_pair[idx].saturating_sub(1);
                if accessible.contains(i) && accessible.contains(j) {
                    self.acc_pair[idx] = self.acc_pair[idx].saturating_sub(1);
                }
            }
        }
    }

    /// Ingest a full trace (every client observed every sub-frame).
    pub fn from_trace(trace: &AccessTrace) -> Self {
        let mut e = EmpiricalAccess::new(trace.n_ues);
        let all = ClientSet::all(trace.n_ues);
        for &acc in &trace.accessible {
            e.record(all, acc);
        }
        e
    }

    /// Measured `p(i)`; `None` if never observed.
    pub fn p_individual(&self, i: usize) -> Option<f64> {
        if self.obs_individual[i] == 0 {
            None
        } else {
            Some(self.acc_individual[i] as f64 / self.obs_individual[i] as f64)
        }
    }

    /// Measured `p(i,j)`; `None` if the pair was never co-observed.
    pub fn p_pair(&self, i: usize, j: usize) -> Option<f64> {
        let (i, j) = if i < j { (i, j) } else { (j, i) };
        let idx = pair_index(self.n, i, j);
        if self.obs_pair[idx] == 0 {
            None
        } else {
            Some(self.acc_pair[idx] as f64 / self.obs_pair[idx] as f64)
        }
    }

    /// Exponentially age the accumulated counts: every counter is
    /// scaled by `keep ∈ [0, 1]` (rounded down). A tracking
    /// orchestrator calls this before re-measuring so stale
    /// observations from a pre-drift environment stop dominating the
    /// empirical probabilities while recent evidence is retained
    /// (staleness windowing, §3.7). `keep = 0` forgets everything;
    /// `keep = 1` is a no-op. Out-of-range values are clamped, and a
    /// non-finite `keep` (NaN/±inf from an upstream arithmetic bug) is
    /// treated as "retain everything" rather than silently zeroing the
    /// books — note `NaN.clamp(0.0, 1.0)` stays NaN and `NaN as u64`
    /// saturates to 0, so without this guard a single NaN would erase
    /// every counter.
    pub fn decay(&mut self, keep: f64) {
        let keep = if keep.is_nan() {
            1.0
        } else {
            keep.clamp(0.0, 1.0)
        };
        if keep == 1.0 {
            return;
        }
        let scale = |c: &mut u64| *c = (*c as f64 * keep).floor() as u64;
        self.obs_individual.iter_mut().for_each(scale);
        self.acc_individual.iter_mut().for_each(scale);
        self.obs_pair.iter_mut().for_each(scale);
        self.acc_pair.iter_mut().for_each(scale);
        // Scaling acc and obs independently can never produce
        // acc > obs because floor is monotone and acc ≤ obs held
        // before; re-establish the invariant defensively anyway.
        for (acc, obs) in self
            .acc_individual
            .iter_mut()
            .zip(self.obs_individual.iter())
            .chain(self.acc_pair.iter_mut().zip(self.obs_pair.iter()))
        {
            *acc = (*acc).min(*obs);
        }
    }

    /// Minimum number of samples across all pairs (coverage check for
    /// the measurement scheduler).
    pub fn min_pair_samples(&self) -> u64 {
        self.obs_pair.iter().copied().min().unwrap_or(0)
    }
}

/// Empirical joint frequency `P(U accessible, V blocked)` from a full
/// access trace (used for the perfect-knowledge scheduler and for
/// testing the conditioning math).
pub fn empirical_joint(trace: &AccessTrace, succeed: ClientSet, fail: ClientSet) -> f64 {
    assert!(succeed.is_disjoint(fail));
    if trace.is_empty() {
        return 0.0;
    }
    let hits = trace
        .accessible
        .iter()
        .filter(|&&acc| succeed.is_subset_of(acc) && fail.is_disjoint(acc))
        .count();
    hits as f64 / trace.accessible.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_index_is_a_bijection() {
        let n = 10;
        let mut seen = vec![false; n_pairs(n)];
        for i in 0..n {
            for j in (i + 1)..n {
                let idx = pair_index(n, i, j);
                assert!(!seen[idx], "duplicate index for ({i},{j})");
                seen[idx] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn record_accumulates() {
        let mut e = EmpiricalAccess::new(3);
        // Observe {0,1}: 0 accessible, 1 not.
        e.record(ClientSet::from_iter([0, 1]), ClientSet::singleton(0));
        // Observe {0,1,2}: all accessible.
        e.record(ClientSet::all(3), ClientSet::all(3));
        assert_eq!(e.p_individual(0), Some(1.0));
        assert_eq!(e.p_individual(1), Some(0.5));
        assert_eq!(e.p_individual(2), Some(1.0));
        assert_eq!(e.p_pair(0, 1), Some(0.5));
        assert_eq!(e.p_pair(1, 2), Some(1.0));
        assert_eq!(e.p_pair(2, 0), Some(1.0)); // order-insensitive

        // Members at the top of the 128-bit set pair without a shift
        // past the mask's width.
        let mut top = EmpiricalAccess::new(ClientSet::CAPACITY);
        let observed = ClientSet::from_iter([0, 126, 127]);
        top.record(observed, ClientSet::singleton(127));
        top.record(ClientSet::singleton(127), ClientSet::singleton(127));
        assert_eq!(top.p_individual(127), Some(1.0));
        assert_eq!(top.p_individual(0), Some(0.0));
        assert_eq!(top.p_pair(126, 127), Some(0.0));
        assert_eq!(top.p_pair(0, 127), Some(0.0));
        assert_eq!(top.p_pair(0, 126), Some(0.0));
        assert_eq!(top.obs_pair.iter().sum::<u64>(), 3);
        top.unrecord(observed, ClientSet::singleton(127));
        assert_eq!(top.obs_pair.iter().sum::<u64>(), 0);
        assert_eq!(top.obs_individual[127], 1);
    }

    #[test]
    fn unrecord_inverts_record_bit_exactly() {
        use blu_sim::rng::DetRng;
        let mut rng = DetRng::seed_from_u64(0xACCE55);
        let n = 6;
        let frames: Vec<(ClientSet, ClientSet)> = (0..64)
            .map(|_| {
                let obs = ClientSet::from_iter((0..n).filter(|_| rng.chance(0.7)));
                let acc = ClientSet::from_iter(obs.iter().filter(|_| rng.chance(0.5)));
                (obs, acc)
            })
            .collect();
        let mut full = EmpiricalAccess::new(n);
        for &(o, a) in &frames {
            full.record(o, a);
        }
        // Remove the first half and compare against recording only
        // the second half from scratch.
        for &(o, a) in &frames[..32] {
            full.unrecord(o, a);
        }
        let mut tail = EmpiricalAccess::new(n);
        for &(o, a) in &frames[32..] {
            tail.record(o, a);
        }
        assert_eq!(full, tail);
    }

    #[test]
    fn unrecord_saturates_instead_of_wrapping() {
        let mut e = EmpiricalAccess::new(3);
        e.unrecord(ClientSet::all(3), ClientSet::all(3));
        assert_eq!(e, EmpiricalAccess::new(3));
    }

    #[test]
    fn unobserved_is_none() {
        let e = EmpiricalAccess::new(2);
        assert_eq!(e.p_individual(0), None);
        assert_eq!(e.p_pair(0, 1), None);
        assert_eq!(e.min_pair_samples(), 0);
    }

    #[test]
    fn from_trace_matches_manual_counts() {
        let trace = AccessTrace {
            n_ues: 2,
            accessible: vec![
                ClientSet::all(2),
                ClientSet::singleton(0),
                ClientSet::EMPTY,
                ClientSet::all(2),
            ],
        };
        let e = EmpiricalAccess::from_trace(&trace);
        assert_eq!(e.p_individual(0), Some(0.75));
        assert_eq!(e.p_individual(1), Some(0.5));
        assert_eq!(e.p_pair(0, 1), Some(0.5));
        assert_eq!(e.min_pair_samples(), 4);
    }

    #[test]
    fn empirical_joint_counts_patterns() {
        let trace = AccessTrace {
            n_ues: 3,
            accessible: vec![
                ClientSet::from_iter([0, 1]),
                ClientSet::from_iter([0]),
                ClientSet::from_iter([0, 1, 2]),
                ClientSet::from_iter([1]),
            ],
        };
        // P(0 accessible, 2 blocked) — sub-frames 0, 1 → 2/4.
        let p = empirical_joint(&trace, ClientSet::singleton(0), ClientSet::singleton(2));
        assert_eq!(p, 0.5);
        // P(all accessible) = 1/4.
        assert_eq!(
            empirical_joint(&trace, ClientSet::all(3), ClientSet::EMPTY),
            0.25
        );
        // Empty sets: probability 1.
        assert_eq!(
            empirical_joint(&trace, ClientSet::EMPTY, ClientSet::EMPTY),
            1.0
        );
    }

    #[test]
    fn empirical_matches_generative_model() {
        // Sample from a known topology and check measured p(i), p(i,j)
        // converge to the closed forms.
        use blu_sim::rng::DetRng;
        use blu_sim::topology::InterferenceTopology;
        let mut rng = DetRng::seed_from_u64(1);
        let topo = InterferenceTopology::random(5, 4, (0.2, 0.6), 0.4, &mut rng);
        let accessible: Vec<ClientSet> =
            (0..100_000).map(|_| topo.sample_access(&mut rng)).collect();
        let trace = AccessTrace {
            n_ues: 5,
            accessible,
        };
        let e = EmpiricalAccess::from_trace(&trace);
        for i in 0..5 {
            let emp = e.p_individual(i).unwrap();
            assert!((emp - topo.p_individual(i)).abs() < 0.01);
            for j in (i + 1)..5 {
                let emp = e.p_pair(i, j).unwrap();
                assert!((emp - topo.p_pair(i, j)).abs() < 0.01);
            }
        }
    }
}
