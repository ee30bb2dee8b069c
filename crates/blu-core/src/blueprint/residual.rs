//! Incrementally maintained constraint residuals — the shared kernel
//! behind both the gradient repairer ([`crate::blueprint::infer`])
//! and the MCMC chain ([`crate::blueprint::mcmc`]).
//!
//! A [`ResidualTracker`] holds one `f64` residual
//! (`contribution − target`) per constraint of a
//! [`ConstraintSystem`], in the canonical constraint order (see
//! [`ConstraintSystem::all_constraints`]), and exposes the two edit
//! primitives every topology move decomposes into:
//!
//! * **shift** — add `delta` contribution to every constraint touched
//!   by an edge set (a hidden terminal appearing, disappearing, or
//!   changing weight);
//! * **edge change** — move a hidden terminal of weight `w` from edge
//!   set `old` to `new` (constraints it leaves lose `w`, constraints
//!   it joins gain `w`).
//!
//! Each primitive has a `*_cost` twin that returns the total-violation
//! delta `Σ (|r + d| − |r|)` **without** applying, so a caller can
//! evaluate a candidate move in `O(constraints touched)` instead of
//! recomputing the full objective — the classic delta-energy trick of
//! annealing/MCMC systems, applied to Eqn. 6's constraint violation.
//!
//! Perf notes, because this sits under both inference hot loops:
//!
//! * Edge sets are iterated **directly as bitsets** (`u128` bit
//!   tricks); no `Vec<usize>` member list is ever materialized.
//! * Triple coverage uses a **triple index** built once per tracker:
//!   each triple's three clients collapsed into a [`ClientSet`] mask,
//!   so "does this edge set cover triple `t`" is a single
//!   subset test (`mask & !edges == 0`) instead of three `contains`
//!   calls through a tuple.
//! * The residual arrays are flat `Vec<f64>` buffers reused across
//!   restarts/chains via [`ResidualTracker::reset`] — a full
//!   inference run allocates them once.
//!
//! Floating-point contract: all iteration orders (members ascending,
//! pairs lexicographic, triples by index) match the historical
//! `Vec`-materializing implementation exactly, so every cost and
//! residual is **bit-identical** to the pre-optimization path; the
//! differential tests in `mcmc.rs` and the proptests in
//! `tests/residual_proptest.rs` pin this down.

use crate::blueprint::constraints::{ConstraintRef, ConstraintSystem};
use blu_sim::clientset::ClientSet;
use blu_traces::stats::{pair_index, EmpiricalAccess};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Visit every unordered pair `(i, j)`, `i < j`, of a bitset in
/// lexicographic order without materializing a member list.
#[inline]
fn for_each_pair(edges: ClientSet, mut f: impl FnMut(usize, usize)) {
    let mut outer = edges.0;
    while outer != 0 {
        let i = outer.trailing_zeros() as usize;
        outer &= outer - 1; // drop i; remaining bits are all > i
        let mut inner = outer;
        while inner != 0 {
            let j = inner.trailing_zeros() as usize;
            inner &= inner - 1;
            f(i, j);
        }
    }
}

/// The owned flat buffers of a [`ResidualTracker`], detached from any
/// constraint system so they can be recycled across cells of a batch
/// (see [`ResidualTracker::rebind`]). A default value is simply empty
/// buffers; rebinding grows them to the target system's shape and
/// they stay at high-water-mark capacity from then on.
#[derive(Debug, Clone, Default)]
pub struct TrackerBuffers {
    ind: Vec<f64>,
    pair: Vec<f64>,
    triple: Vec<f64>,
    triple_masks: Vec<ClientSet>,
}

/// Residuals of a candidate topology against a constraint system,
/// maintained incrementally under topology edits.
#[derive(Debug, Clone)]
pub struct ResidualTracker<'a> {
    sys: &'a ConstraintSystem,
    /// Residual per individual constraint.
    ind: Vec<f64>,
    /// Residual per pair constraint (`pair_index` layout).
    pair: Vec<f64>,
    /// Residual per triple constraint.
    triple: Vec<f64>,
    /// Triple index: constraint `t`'s clients as a single bitmask, so
    /// coverage is one subset test. Built once per tracker.
    triple_masks: Vec<ClientSet>,
}

impl<'a> ResidualTracker<'a> {
    /// Tracker for the **empty** topology: every residual starts at
    /// `−target`.
    pub fn new(sys: &'a ConstraintSystem) -> Self {
        Self::rebind(sys, TrackerBuffers::default())
    }

    /// Tracker for the empty topology of `sys`, recycling the flat
    /// buffers of a previous tracker (possibly bound to a *different*
    /// system — the buffers are cleared and refilled to `sys`'s
    /// shape). The residual values are identical to
    /// [`new`][Self::new]; only the allocation is reused.
    pub fn rebind(sys: &'a ConstraintSystem, mut bufs: TrackerBuffers) -> Self {
        bufs.ind.clear();
        bufs.ind.extend(sys.individual.iter().map(|t| -t));
        bufs.pair.clear();
        bufs.pair.extend(sys.pair.iter().map(|t| -t));
        bufs.triple.clear();
        bufs.triple.extend(sys.triples.iter().map(|t| -t.target));
        bufs.triple_masks.clear();
        bufs.triple_masks.extend(sys.triples.iter().map(|t| {
            let (i, j, k) = t.clients;
            ClientSet::from_iter([i, j, k])
        }));
        ResidualTracker {
            sys,
            ind: bufs.ind,
            pair: bufs.pair,
            triple: bufs.triple,
            triple_masks: bufs.triple_masks,
        }
    }

    /// Detach the flat buffers for recycling into the next
    /// [`rebind`][Self::rebind].
    pub fn into_buffers(self) -> TrackerBuffers {
        TrackerBuffers {
            ind: self.ind,
            pair: self.pair,
            triple: self.triple,
            triple_masks: self.triple_masks,
        }
    }

    /// Reset to the empty topology, reusing the flat buffers (no
    /// allocation).
    pub fn reset(&mut self) {
        for (r, t) in self.ind.iter_mut().zip(&self.sys.individual) {
            *r = -t;
        }
        for (r, t) in self.pair.iter_mut().zip(&self.sys.pair) {
            *r = -t;
        }
        for (r, t) in self.triple.iter_mut().zip(&self.sys.triples) {
            *r = -t.target;
        }
    }

    /// The constraint system being tracked.
    pub fn sys(&self) -> &'a ConstraintSystem {
        self.sys
    }

    /// Residual of one constraint.
    pub fn residual(&self, c: ConstraintRef) -> f64 {
        match c {
            ConstraintRef::Individual(i) => self.ind[i],
            ConstraintRef::Pair(i, j) => self.pair[pair_index(self.sys.n, i, j)],
            ConstraintRef::Triple(t) => self.triple[t],
        }
    }

    /// Total violation `Σ |r|`, recomputed from the flat arrays in
    /// canonical order (individuals, pairs, triples). `O(constraints)`
    /// but branch-free and cache-friendly; callers that need a running
    /// total accumulate the deltas returned by [`shift`][Self::shift]
    /// and [`apply_edge_change`][Self::apply_edge_change] instead.
    pub fn recompute_violation(&self) -> f64 {
        self.ind.iter().map(|r| r.abs()).sum::<f64>()
            + self.pair.iter().map(|r| r.abs()).sum::<f64>()
            + self.triple.iter().map(|r| r.abs()).sum::<f64>()
    }

    /// The constraint with the largest absolute residual (ties keep
    /// the earliest in canonical order), with its residual.
    pub fn max_violated(&self) -> (ConstraintRef, f64) {
        let mut best = (ConstraintRef::Individual(0), 0.0f64);
        for (i, &r) in self.ind.iter().enumerate() {
            if r.abs() > best.1.abs() {
                best = (ConstraintRef::Individual(i), r);
            }
        }
        let n = self.sys.n;
        for i in 0..n {
            for j in (i + 1)..n {
                let r = self.pair[pair_index(n, i, j)];
                if r.abs() > best.1.abs() {
                    best = (ConstraintRef::Pair(i, j), r);
                }
            }
        }
        for (t, &r) in self.triple.iter().enumerate() {
            if r.abs() > best.1.abs() {
                best = (ConstraintRef::Triple(t), r);
            }
        }
        best
    }

    /// Violation delta of adding `delta` contribution to every
    /// constraint touched by `edges`, without applying.
    pub fn shift_cost(&self, edges: ClientSet, delta: f64) -> f64 {
        let mut cost = 0.0;
        for i in edges.iter() {
            let r = self.ind[i];
            cost += (r + delta).abs() - r.abs();
        }
        for_each_pair(edges, |i, j| {
            let r = self.pair[pair_index(self.sys.n, i, j)];
            cost += (r + delta).abs() - r.abs();
        });
        for (t, &mask) in self.triple_masks.iter().enumerate() {
            if mask.is_subset_of(edges) {
                let r = self.triple[t];
                cost += (r + delta).abs() - r.abs();
            }
        }
        cost
    }

    /// Add `delta` contribution to every constraint touched by
    /// `edges`; returns the violation delta (same value
    /// [`shift_cost`][Self::shift_cost] would have reported).
    pub fn shift(&mut self, edges: ClientSet, delta: f64) -> f64 {
        let mut dv = 0.0;
        for i in edges.iter() {
            let r = self.ind[i];
            dv += (r + delta).abs() - r.abs();
            self.ind[i] = r + delta;
        }
        let n = self.sys.n;
        {
            // Split borrows: `pair` mutably, the rest by value.
            let pair = &mut self.pair;
            for_each_pair(edges, |i, j| {
                let idx = pair_index(n, i, j);
                let r = pair[idx];
                dv += (r + delta).abs() - r.abs();
                pair[idx] = r + delta;
            });
        }
        for (t, &mask) in self.triple_masks.iter().enumerate() {
            if mask.is_subset_of(edges) {
                let r = self.triple[t];
                dv += (r + delta).abs() - r.abs();
                self.triple[t] = r + delta;
            }
        }
        dv
    }

    /// Violation delta of moving a hidden terminal of weight `w` from
    /// edge set `old` to `new`, without applying.
    pub fn edge_change_cost(&self, old: ClientSet, new: ClientSet, w: f64) -> f64 {
        let mut cost = 0.0;
        // Individuals: leaving lose w, joining gain w.
        for i in old.difference(new).iter() {
            let r = self.ind[i];
            cost += (r - w).abs() - r.abs();
        }
        for i in new.difference(old).iter() {
            let r = self.ind[i];
            cost += (r + w).abs() - r.abs();
        }
        // Pairs: coverage before vs after, over the union.
        for_each_pair(old.union(new), |i, j| {
            let before = old.contains(i) && old.contains(j);
            let after = new.contains(i) && new.contains(j);
            if before == after {
                return;
            }
            let delta = if after { w } else { -w };
            let r = self.pair[pair_index(self.sys.n, i, j)];
            cost += (r + delta).abs() - r.abs();
        });
        // Triples: coverage changes via the triple index.
        for (t, &mask) in self.triple_masks.iter().enumerate() {
            let before = mask.is_subset_of(old);
            let after = mask.is_subset_of(new);
            if before == after {
                continue;
            }
            let delta = if after { w } else { -w };
            let r = self.triple[t];
            cost += (r + delta).abs() - r.abs();
        }
        cost
    }

    /// Move a hidden terminal of weight `w` from edge set `old` to
    /// `new`; returns the violation delta.
    pub fn apply_edge_change(&mut self, old: ClientSet, new: ClientSet, w: f64) -> f64 {
        let mut dv = 0.0;
        for i in old.difference(new).iter() {
            let r = self.ind[i];
            dv += (r - w).abs() - r.abs();
            self.ind[i] = r - w;
        }
        for i in new.difference(old).iter() {
            let r = self.ind[i];
            dv += (r + w).abs() - r.abs();
            self.ind[i] = r + w;
        }
        let n = self.sys.n;
        {
            let pair = &mut self.pair;
            for_each_pair(old.union(new), |i, j| {
                let before = old.contains(i) && old.contains(j);
                let after = new.contains(i) && new.contains(j);
                if before == after {
                    return;
                }
                let delta = if after { w } else { -w };
                let idx = pair_index(n, i, j);
                let r = pair[idx];
                dv += (r + delta).abs() - r.abs();
                pair[idx] = r + delta;
            });
        }
        for (t, &mask) in self.triple_masks.iter().enumerate() {
            let before = mask.is_subset_of(old);
            let after = mask.is_subset_of(new);
            if before == after {
                continue;
            }
            let delta = if after { w } else { -w };
            let r = self.triple[t];
            dv += (r + delta).abs() - r.abs();
            self.triple[t] = r + delta;
        }
        dv
    }
}

/// A bounded sliding window of per-subframe access observations with
/// incrementally maintained [`EmpiricalAccess`] counters — the ingest
/// path of streaming online inference.
///
/// Each entry is one sub-frame's `(observed, accessible)` client
/// sets. Admitting a new sub-frame when the ring is full first
/// *retires* the oldest entry by running
/// [`EmpiricalAccess::unrecord`] — the exact integer inverse of
/// [`EmpiricalAccess::record`] — so both directions are
/// `O(touched clients²)` per sub-frame regardless of window size,
/// and the running counters are **bit-identical** to recording only
/// the retained ring contents from scratch (pinned by
/// `tests/stream_window_proptest.rs`). The counters therefore track
/// ground truth as it churns: observations from a pre-churn topology
/// age out of the window instead of dominating the books forever.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ObservationWindow {
    capacity: usize,
    ring: VecDeque<(ClientSet, ClientSet)>,
    stats: EmpiricalAccess,
}

// Deserialize is hand-rolled to clamp `capacity` to at least 1; the
// derived Serialize writes the ring front to back (oldest first), so
// the on-disk form is canonical regardless of where the ring's head
// sits in its backing buffer.
impl Deserialize for ObservationWindow {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let map = v
            .as_map()
            .ok_or_else(|| serde::DeError::custom("ObservationWindow: expected map"))?;
        let capacity: usize = serde::de_field(map, "capacity", "ObservationWindow")?;
        let ring: Vec<(ClientSet, ClientSet)> = serde::de_field(map, "ring", "ObservationWindow")?;
        let stats: EmpiricalAccess = serde::de_field(map, "stats", "ObservationWindow")?;
        Ok(ObservationWindow {
            capacity: capacity.max(1),
            ring: ring.into(),
            stats,
        })
    }
}

impl ObservationWindow {
    /// Empty window over `n` clients retaining at most `capacity`
    /// sub-frames (`capacity` is clamped to at least 1).
    pub fn new(n: usize, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        ObservationWindow {
            capacity,
            ring: VecDeque::with_capacity(capacity),
            stats: EmpiricalAccess::new(n),
        }
    }

    /// Number of clients the window accumulates over.
    pub fn n_clients(&self) -> usize {
        self.stats.n
    }

    /// Maximum retained sub-frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Currently retained sub-frames.
    pub fn occupancy(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring holds no observations.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Admit one sub-frame, retiring the oldest if the ring is full.
    pub fn admit(&mut self, observed: ClientSet, accessible: ClientSet) {
        if self.ring.len() == self.capacity {
            self.retire();
        }
        self.ring.push_back((observed, accessible));
        self.stats.record(observed, accessible);
    }

    /// Retire the oldest retained sub-frame, if any.
    pub fn retire(&mut self) -> Option<(ClientSet, ClientSet)> {
        let (observed, accessible) = self.ring.pop_front()?;
        self.stats.unrecord(observed, accessible);
        Some((observed, accessible))
    }

    /// Drop every retained sub-frame and zero the counters.
    pub fn clear(&mut self) {
        self.ring.clear();
        self.stats = EmpiricalAccess::new(self.stats.n);
    }

    /// The incrementally maintained counters over the retained ring.
    pub fn stats(&self) -> &EmpiricalAccess {
        &self.stats
    }

    /// The retained `(observed, accessible)` sub-frames, oldest
    /// first (test/diagnostic access).
    pub fn entries(&self) -> impl Iterator<Item = (ClientSet, ClientSet)> + '_ {
        self.ring.iter().copied()
    }

    /// Counters recomputed from scratch over the retained ring —
    /// the differential-test oracle for the incremental path.
    pub fn scratch_stats(&self) -> EmpiricalAccess {
        let mut stats = EmpiricalAccess::new(self.stats.n);
        for &(observed, accessible) in &self.ring {
            stats.record(observed, accessible);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blueprint::constraints::{TransformedHt, TransformedTopology};
    use blu_sim::rng::DetRng;
    use blu_sim::topology::InterferenceTopology;

    fn system_with_triples(seed: u64) -> ConstraintSystem {
        let mut rng = DetRng::seed_from_u64(seed);
        let topo = InterferenceTopology::random(6, 4, (0.1, 0.7), 0.4, &mut rng);
        let mut sys = ConstraintSystem::from_topology(&topo);
        sys.add_triples_from_topology(&topo, &[(0, 1, 2), (2, 4, 5)]);
        sys
    }

    /// Mirror of the tracker's state as a plain topology, for
    /// from-scratch comparison.
    fn assert_tracker_matches(
        tracker: &ResidualTracker<'_>,
        sys: &ConstraintSystem,
        topo: &TransformedTopology,
    ) {
        for c in sys.all_constraints() {
            let want = sys.residual(topo, c);
            let got = tracker.residual(c);
            assert!(
                (got - want).abs() < 1e-9,
                "{c:?}: tracked {got} vs scratch {want}"
            );
        }
        let v = tracker.recompute_violation();
        let want_v = sys.total_violation(topo);
        assert!((v - want_v).abs() < 1e-9, "violation {v} vs {want_v}");
    }

    #[test]
    fn shift_tracks_scratch_recompute() {
        let sys = system_with_triples(1);
        let mut tracker = ResidualTracker::new(&sys);
        let mut topo = TransformedTopology::default();
        let mut rng = DetRng::seed_from_u64(7);
        let mut running = tracker.recompute_violation();
        for _ in 0..50 {
            let mut edges = ClientSet::EMPTY;
            for i in 0..sys.n {
                if rng.chance(0.4) {
                    edges.insert(i);
                }
            }
            if edges.is_empty() {
                continue;
            }
            let q = rng.range_f64(0.05, 0.6);
            running += tracker.shift(edges, q);
            topo.hts.push(TransformedHt { q_t: q, edges });
            assert_tracker_matches(&tracker, &sys, &topo);
            assert!((running - tracker.recompute_violation()).abs() < 1e-9);
        }
    }

    #[test]
    fn edge_change_tracks_scratch_recompute() {
        let sys = system_with_triples(2);
        let mut tracker = ResidualTracker::new(&sys);
        let mut topo = TransformedTopology::default();
        let edges = ClientSet::from_iter([0, 1, 2, 4]);
        tracker.shift(edges, 0.3);
        topo.hts.push(TransformedHt { q_t: 0.3, edges });
        let mut rng = DetRng::seed_from_u64(9);
        for _ in 0..60 {
            let old = topo.hts[0].edges;
            let c = rng.below(sys.n);
            let new = if old.contains(c) {
                old.without(c)
            } else {
                old.with(c)
            };
            if new.is_empty() {
                continue;
            }
            let cost = tracker.edge_change_cost(old, new, 0.3);
            let dv = tracker.apply_edge_change(old, new, 0.3);
            assert_eq!(cost.to_bits(), dv.to_bits(), "cost/apply must agree");
            topo.hts[0].edges = new;
            assert_tracker_matches(&tracker, &sys, &topo);
        }
    }

    #[test]
    fn cost_twins_do_not_mutate() {
        let sys = system_with_triples(3);
        let tracker = ResidualTracker::new(&sys);
        let before = tracker.clone();
        let edges = ClientSet::from_iter([1, 3, 5]);
        let _ = tracker.shift_cost(edges, 0.2);
        let _ = tracker.edge_change_cost(edges, edges.with(0), 0.2);
        for c in sys.all_constraints() {
            assert_eq!(tracker.residual(c).to_bits(), before.residual(c).to_bits());
        }
    }

    #[test]
    fn reset_restores_empty_topology() {
        let sys = system_with_triples(4);
        let mut tracker = ResidualTracker::new(&sys);
        tracker.shift(ClientSet::from_iter([0, 2]), 0.5);
        tracker.reset();
        let fresh = ResidualTracker::new(&sys);
        for c in sys.all_constraints() {
            assert_eq!(tracker.residual(c).to_bits(), fresh.residual(c).to_bits());
        }
        assert!((tracker.recompute_violation() - sys.target_mass()).abs() < 1e-12);
    }

    #[test]
    fn window_matches_scratch_recompute_after_wraparound() {
        let n = 6;
        let mut rng = DetRng::seed_from_u64(0x517D);
        let mut window = ObservationWindow::new(n, 16);
        for step in 0..200 {
            let obs = ClientSet::from_iter((0..n).filter(|_| rng.chance(0.6)));
            let acc = ClientSet::from_iter(obs.iter().filter(|_| rng.chance(0.5)));
            window.admit(obs, acc);
            assert!(window.occupancy() <= 16);
            assert_eq!(
                window.stats(),
                &window.scratch_stats(),
                "incremental counters diverged at step {step}"
            );
        }
        assert_eq!(window.occupancy(), 16);
    }

    #[test]
    fn window_retire_and_clear() {
        let mut window = ObservationWindow::new(4, 8);
        assert!(window.is_empty());
        assert!(window.retire().is_none());
        window.admit(ClientSet::all(4), ClientSet::singleton(1));
        window.admit(ClientSet::all(4), ClientSet::all(4));
        assert_eq!(window.occupancy(), 2);
        let first = window.retire().unwrap();
        assert_eq!(first, (ClientSet::all(4), ClientSet::singleton(1)));
        assert_eq!(window.stats(), &window.scratch_stats());
        window.clear();
        assert!(window.is_empty());
        assert_eq!(window.stats(), &EmpiricalAccess::new(4));
    }

    #[test]
    fn window_round_trips_through_serde() {
        let mut window = ObservationWindow::new(3, 4);
        window.admit(ClientSet::all(3), ClientSet::singleton(0));
        window.admit(ClientSet::from_iter([0, 2]), ClientSet::from_iter([0, 2]));
        let json = serde_json::to_string(&window).unwrap();
        let back: ObservationWindow = serde_json::from_str(&json).unwrap();
        assert_eq!(window, back);
    }

    #[test]
    fn max_violated_matches_constraint_system() {
        let sys = system_with_triples(5);
        let tracker = ResidualTracker::new(&sys);
        let (c, r) = tracker.max_violated();
        let (want_c, want_r) = sys
            .max_violated(&TransformedTopology::default())
            .expect("non-empty system");
        assert_eq!(c, want_c);
        assert!((r - want_r).abs() < 1e-12);
    }
}
