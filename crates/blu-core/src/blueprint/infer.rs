//! Gradient topology repair (paper §3.4.2).
//!
//! Start from a candidate topology; at each iteration find the
//! maximally-violated constraint and enumerate the paper's repair
//! moves (adjust a hidden terminal's weight, add/remove edges, spawn
//! a new hidden terminal); apply the move that most reduces total
//! violation; stop at (near-)zero violation or an iteration budget,
//! keeping the best configuration seen. Residuals are maintained
//! incrementally by a [`ResidualTracker`] (see
//! [`crate::blueprint::residual`]) so candidate evaluation costs
//! `O(|edges|²)` instead of a full constraint sweep — with no
//! per-move allocation: edge sets are walked as bitsets and the
//! tracker's flat buffers are reused across every restart of a run.

use crate::blueprint::constraints::{
    ConstraintRef, ConstraintSystem, TransformedHt, TransformedTopology,
};
use crate::blueprint::residual::{ResidualTracker, TrackerBuffers};
use crate::error::BluError;
use crate::runtime::deadline::{Deadline, DeadlineToken};
use blu_sim::clientset::ClientSet;
use blu_sim::topology::InterferenceTopology;
use blu_traces::stats::pair_index;
use serde::{Deserialize, Serialize};

/// Weight below which a hidden terminal is considered gone.
const MIN_WEIGHT: f64 = 1e-4;

/// Configuration of the repair loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InferenceConfig {
    /// Iteration budget per restart.
    pub max_iters: usize,
    /// Total violation below which the topology is accepted.
    pub epsilon: f64,
    /// Number of random restarts (in addition to the structured
    /// initializations).
    pub random_restarts: usize,
    /// Enable the weight-refinement pass after structural repair.
    pub refine_weights: bool,
    /// Residual fraction (violation over constraint target mass) at
    /// or below which the blueprint counts as
    /// [`Converged`](InferenceVerdict::Converged). Measured inputs never reach
    /// `epsilon`, so this is the noisy-regime acceptance knob.
    pub accept_residual: f64,
    /// Residual fraction at or above which the blueprint is
    /// [`Degraded`](InferenceVerdict::Degraded): the constraint
    /// system left most of its target mass unexplained and the
    /// orchestrator should not speculate on it.
    pub degraded_residual: f64,
    /// Time budget for the whole inference (all restarts plus
    /// refinement). On expiry the best-so-far blueprint is returned
    /// with [`InferenceResult::completed`] `= false`. The default
    /// ([`Deadline::None`]) runs to convergence, bit-identical to the
    /// pre-deadline behavior.
    pub deadline: Deadline,
}

impl Default for InferenceConfig {
    fn default() -> Self {
        InferenceConfig {
            max_iters: 400,
            epsilon: 1e-6,
            random_restarts: 6,
            refine_weights: true,
            accept_residual: 0.05,
            degraded_residual: 0.5,
            deadline: Deadline::None,
        }
    }
}

impl InferenceConfig {
    /// Reject configurations that would produce NaN thresholds or a
    /// loop that can never run, with a typed
    /// [`BluError::InvalidConfig`].
    pub fn validate(&self) -> Result<(), BluError> {
        if self.max_iters == 0 {
            return Err(BluError::InvalidConfig(
                "inference max_iters must be > 0".into(),
            ));
        }
        if !self.epsilon.is_finite() || self.epsilon <= 0.0 {
            return Err(BluError::InvalidConfig(format!(
                "inference epsilon must be finite and > 0, got {}",
                self.epsilon
            )));
        }
        if !self.accept_residual.is_finite() || !(0.0..=1.0).contains(&self.accept_residual) {
            return Err(BluError::InvalidConfig(format!(
                "accept_residual must be finite in [0, 1], got {}",
                self.accept_residual
            )));
        }
        if !self.degraded_residual.is_finite() || !(0.0..=1.0).contains(&self.degraded_residual) {
            return Err(BluError::InvalidConfig(format!(
                "degraded_residual must be finite in [0, 1], got {}",
                self.degraded_residual
            )));
        }
        if self.degraded_residual < self.accept_residual {
            return Err(BluError::InvalidConfig(format!(
                "degraded_residual ({}) must be >= accept_residual ({})",
                self.degraded_residual, self.accept_residual
            )));
        }
        self.deadline.validate()
    }
}

/// How much the returned blueprint should be trusted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InferenceVerdict {
    /// The constraint system is (near-)fully explained: residual
    /// violation under `epsilon` or within `accept_residual` of the
    /// target mass.
    Converged,
    /// The optimisation budget ran out before reaching the acceptance
    /// threshold. The blueprint is the best found and usually usable,
    /// but its confidence should gate speculation.
    MaxIters,
    /// The inputs were inconsistent or pathological (non-finite
    /// violation, no candidate produced, or most of the target mass
    /// unexplained). Callers must not speculate on this blueprint.
    Degraded,
}

impl std::fmt::Display for InferenceVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InferenceVerdict::Converged => write!(f, "converged"),
            InferenceVerdict::MaxIters => write!(f, "max-iters"),
            InferenceVerdict::Degraded => write!(f, "degraded"),
        }
    }
}

/// Result of inference.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InferenceResult {
    /// The inferred topology (probability domain, canonicalized).
    pub topology: InterferenceTopology,
    /// Total violation of the returned topology.
    pub violation: f64,
    /// Repair iterations spent across all restarts.
    pub iterations: usize,
    /// Number of restarts attempted.
    pub restarts: usize,
    /// Fraction of the constraint system's target mass left
    /// unexplained, in `[0, 1]`.
    pub residual_fraction: f64,
    /// Convergence verdict.
    pub verdict: InferenceVerdict,
    /// Whether the run finished within its deadline (always `true`
    /// under [`Deadline::None`]). When `false` the blueprint is the
    /// anytime best-so-far.
    pub completed: bool,
    /// Always `0`: step budgets are exact, so no work runs past a
    /// deadline. Kept because every checkpoint serializes it
    /// ([`CellSnapshot::blueprint`]); dropping it changes checkpoint
    /// bytes and every reference digest, so it waits for the next
    /// snapshot version bump (ROADMAP item 2).
    ///
    /// [`CellSnapshot::blueprint`]: crate::engine::CellSnapshot::blueprint
    pub overshoot: u64,
}

impl InferenceResult {
    /// Blueprint confidence in `[0, 1]`: the explained fraction of
    /// the constraint target mass. `1.0` means every measured
    /// individual/pair statistic is reproduced by the blueprint.
    pub fn confidence(&self) -> f64 {
        (1.0 - self.residual_fraction).clamp(0.0, 1.0)
    }
}

/// Residual fraction and verdict for a final violation — shared by
/// the gradient path ([`infer_topology`]) and the MCMC backend
/// ([`crate::blueprint::mcmc::infer_mcmc_result`]) so both report
/// confidence on the same scale.
pub(crate) fn classify(
    sys: &ConstraintSystem,
    violation: f64,
    config: &InferenceConfig,
) -> (f64, InferenceVerdict) {
    let mass = sys.target_mass();
    let residual_fraction = if !violation.is_finite() {
        1.0
    } else if mass > 0.0 {
        (violation / mass).clamp(0.0, 1.0)
    } else if violation > config.epsilon {
        1.0
    } else {
        0.0
    };
    let verdict = if !violation.is_finite() {
        InferenceVerdict::Degraded
    } else if violation <= config.epsilon || residual_fraction <= config.accept_residual {
        InferenceVerdict::Converged
    } else if residual_fraction >= config.degraded_residual {
        InferenceVerdict::Degraded
    } else {
        InferenceVerdict::MaxIters
    };
    (residual_fraction, verdict)
}

/// The repair engine: a candidate topology plus a borrowed
/// [`ResidualTracker`] holding the incrementally maintained
/// residuals. The tracker outlives the repairer so its flat buffers
/// are reused across restarts instead of reallocated per start.
pub(crate) struct Repairer<'t, 'a> {
    res: &'t mut ResidualTracker<'a>,
    topo: TransformedTopology,
    /// Reusable candidate-move buffer (cleared per iteration).
    cand: Vec<Move>,
}

/// One repair move.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Move {
    /// `q_t[k] += delta` (delta may be negative but must keep > 0).
    AdjustWeight { k: usize, delta: f64 },
    /// Add edges `added` to HT `k`.
    AddEdges { k: usize, added: ClientSet },
    /// Remove edges `removed` from HT `k`.
    RemoveEdges { k: usize, removed: ClientSet },
    /// Create a new HT.
    NewHt { edges: ClientSet, q_t: f64 },
}

impl<'t, 'a> Repairer<'t, 'a> {
    /// Start a repair from `start`. Resets the tracker, so the same
    /// tracker can be handed to successive repairers.
    pub(crate) fn new(res: &'t mut ResidualTracker<'a>, start: &TransformedTopology) -> Self {
        res.reset();
        let mut r = Repairer {
            res,
            topo: TransformedTopology::default(),
            cand: Vec::new(),
        };
        for ht in &start.hts {
            r.apply(Move::NewHt {
                edges: ht.edges,
                q_t: ht.q_t,
            });
        }
        r
    }

    fn total_violation(&self) -> f64 {
        self.res.recompute_violation()
    }

    fn edge_change_cost(&self, old: ClientSet, new: ClientSet, w: f64) -> f64 {
        self.res.edge_change_cost(old, new, w)
    }

    fn move_cost(&self, m: Move) -> f64 {
        match m {
            Move::AdjustWeight { k, delta } => self.res.shift_cost(self.topo.hts[k].edges, delta),
            Move::AddEdges { k, added } => {
                let ht = &self.topo.hts[k];
                self.res
                    .edge_change_cost(ht.edges, ht.edges.union(added), ht.q_t)
            }
            Move::RemoveEdges { k, removed } => {
                let ht = &self.topo.hts[k];
                self.res
                    .edge_change_cost(ht.edges, ht.edges.difference(removed), ht.q_t)
            }
            Move::NewHt { edges, q_t } => self.res.shift_cost(edges, q_t),
        }
    }

    fn apply(&mut self, m: Move) {
        match m {
            Move::AdjustWeight { k, delta } => {
                let edges = self.topo.hts[k].edges;
                self.res.shift(edges, delta);
                self.topo.hts[k].q_t += delta;
            }
            Move::AddEdges { k, added } => {
                let ht = self.topo.hts[k];
                let new = ht.edges.union(added);
                self.apply_edge_change(k, ht.edges, new, ht.q_t);
            }
            Move::RemoveEdges { k, removed } => {
                let ht = self.topo.hts[k];
                let new = ht.edges.difference(removed);
                self.apply_edge_change(k, ht.edges, new, ht.q_t);
            }
            Move::NewHt { edges, q_t } => {
                self.res.shift(edges, q_t);
                self.topo.hts.push(TransformedHt { q_t, edges });
            }
        }
    }

    fn apply_edge_change(&mut self, k: usize, old: ClientSet, new: ClientSet, w: f64) {
        self.res.apply_edge_change(old, new, w);
        self.topo.hts[k].edges = new;
    }

    /// Enumerate repair candidates for the given violated constraint
    /// (the paper's Case 1 / Case 2 catalogues) into the reusable
    /// candidate buffer.
    fn candidates(&mut self, c: ConstraintRef, residual: f64) {
        self.cand.clear();
        let out = &mut self.cand;
        let topo = &self.topo;
        let sys = self.res.sys();
        let over = residual > 0.0;
        let mag = residual.abs();
        match c {
            ConstraintRef::Individual(i) => {
                for (k, ht) in topo.hts.iter().enumerate() {
                    let has = ht.edges.contains(i);
                    if over && has {
                        // Reduce contribution or drop the edge.
                        if ht.q_t - mag > MIN_WEIGHT {
                            out.push(Move::AdjustWeight { k, delta: -mag });
                        }
                        out.push(Move::RemoveEdges {
                            k,
                            removed: ClientSet::singleton(i),
                        });
                    } else if !over && has {
                        out.push(Move::AdjustWeight { k, delta: mag });
                    } else if !over && !has {
                        out.push(Move::AddEdges {
                            k,
                            added: ClientSet::singleton(i),
                        });
                    }
                }
                if !over {
                    out.push(Move::NewHt {
                        edges: ClientSet::singleton(i),
                        q_t: mag,
                    });
                }
            }
            ConstraintRef::Pair(i, j) => {
                let pair = ClientSet::from_iter([i, j]);
                for (k, ht) in topo.hts.iter().enumerate() {
                    let shared = ht.edges.contains(i) && ht.edges.contains(j);
                    if over && shared {
                        if ht.q_t - mag > MIN_WEIGHT {
                            out.push(Move::AdjustWeight { k, delta: -mag });
                        }
                        out.push(Move::RemoveEdges {
                            k,
                            removed: ClientSet::singleton(i),
                        });
                        out.push(Move::RemoveEdges {
                            k,
                            removed: ClientSet::singleton(j),
                        });
                        out.push(Move::RemoveEdges { k, removed: pair });
                    } else if !over && shared {
                        out.push(Move::AdjustWeight { k, delta: mag });
                    } else if !over && !shared {
                        // Add the missing edge(s).
                        let missing = pair.difference(ht.edges);
                        out.push(Move::AddEdges { k, added: missing });
                    }
                }
                if !over {
                    out.push(Move::NewHt {
                        edges: pair,
                        q_t: mag,
                    });
                }
            }
            ConstraintRef::Triple(t) => {
                let (i, j, k) = sys.triples[t].clients;
                let trio = ClientSet::from_iter([i, j, k]);
                for (kk, ht) in topo.hts.iter().enumerate() {
                    let covers =
                        ht.edges.contains(i) && ht.edges.contains(j) && ht.edges.contains(k);
                    if over && covers {
                        if ht.q_t - mag > MIN_WEIGHT {
                            out.push(Move::AdjustWeight { k: kk, delta: -mag });
                        }
                        // Break the triple coverage by dropping any
                        // one of the three edges.
                        for c in [i, j, k] {
                            out.push(Move::RemoveEdges {
                                k: kk,
                                removed: ClientSet::singleton(c),
                            });
                        }
                    } else if !over && covers {
                        out.push(Move::AdjustWeight { k: kk, delta: mag });
                    } else if !over && !covers {
                        let missing = trio.difference(ht.edges);
                        out.push(Move::AddEdges {
                            k: kk,
                            added: missing,
                        });
                    }
                }
                if !over {
                    out.push(Move::NewHt {
                        edges: trio,
                        q_t: mag,
                    });
                }
            }
        }
    }

    /// Run the repair loop; returns (best topology, its violation,
    /// iterations used). The deadline token is consulted once per
    /// iteration (the work-unit granularity of the gradient path);
    /// on expiry the best state seen so far is returned.
    pub(crate) fn run(
        mut self,
        max_iters: usize,
        epsilon: f64,
        token: &mut DeadlineToken,
    ) -> (TransformedTopology, f64, usize) {
        /// Non-improving iterations tolerated before giving up on
        /// this restart (the move catalogue is uphill-capable, so
        /// bounded patience beats both strict descent and cycling to
        /// the iteration cap).
        const PATIENCE: usize = 60;
        let mut best = self.topo.clone();
        let mut best_v = self.total_violation();
        let mut iters = 0;
        let mut stagnant = 0usize;
        while iters < max_iters && stagnant < PATIENCE {
            if token.tick() {
                break;
            }
            iters += 1;
            let v = self.total_violation();
            if v < best_v - 1e-12 {
                best = self.topo.clone();
                best_v = v;
                stagnant = 0;
            } else {
                stagnant += 1;
            }
            if v < epsilon {
                break;
            }
            let (c, r) = self.res.max_violated();
            if r.abs() < epsilon {
                break;
            }
            self.candidates(c, r);
            if self.cand.is_empty() {
                break;
            }
            // First strict minimum by cost (`Iterator::min_by`
            // semantics), evaluated without materializing a
            // `(Move, cost)` vector.
            let mut chosen: Option<(Move, f64)> = None;
            for idx in 0..self.cand.len() {
                let m = self.cand[idx];
                let cost = self.move_cost(m);
                let better = match chosen {
                    None => true,
                    Some((_, bc)) => cost.total_cmp(&bc) == std::cmp::Ordering::Less,
                };
                if better {
                    chosen = Some((m, cost));
                }
            }
            let Some((m, _cost)) = chosen else {
                break; // no applicable move: keep the best seen
            };
            self.apply(m);
            // Garbage-collect dead HTs so candidate lists stay small.
            if iters % 16 == 0 {
                self.gc();
            }
        }
        let v = self.total_violation();
        if v < best_v {
            best = self.topo.clone();
            best_v = v;
        }
        best.prune(MIN_WEIGHT);
        (best, best_v, iters)
    }

    /// Remove edgeless/weightless HTs, keeping residuals consistent.
    fn gc(&mut self) {
        let mut k = 0;
        while k < self.topo.hts.len() {
            let ht = self.topo.hts[k];
            if ht.edges.is_empty() || ht.q_t <= MIN_WEIGHT {
                // Undo its contribution, then drop it.
                self.res.shift(ht.edges, -ht.q_t);
                self.topo.hts.swap_remove(k);
            } else {
                k += 1;
            }
        }
    }
}

/// Reusable working memory for one inference worker: the residual
/// tracker's flat buffers, the weight-refinement arrays and sparse
/// coverage, and the restart records of the current portfolio. One
/// scratch serves any number of successive cells
/// ([`infer_topology_with`] rebinds it to each cell's constraint
/// system), so a batch shard allocates once instead of per cell.
/// Results are **bit-identical** to the scratch-free reference
/// entry points — only the allocations, the refinement kernel's
/// memory layout and the replay of repeated restarts differ, never
/// the floating-point operation order.
#[derive(Debug, Default)]
pub struct InferScratch {
    tracker: TrackerBuffers,
    refine: RefineScratch,
    restarts: Vec<RestartRecord>,
}

/// Reusable buffers of [`refine_weights_with`]: the weight vector, the
/// gradient, and the constraint × terminal coverage in compressed
/// sparse rows — one row per constraint that at least one terminal
/// covers, in canonical constraint order.
#[derive(Debug, Default)]
struct RefineScratch {
    rows: Vec<CoveredRow>,
    /// Covering terminal indices, ascending within each row.
    cols: Vec<u32>,
    q: Vec<f64>,
    grad: Vec<f64>,
}

/// One covered constraint of [`RefineScratch`]: its target and its
/// span of `cols`.
#[derive(Debug, Clone, Copy)]
struct CoveredRow {
    target: f64,
    start: u32,
    end: u32,
}

/// One restart of the portfolio that ran to its end with the deadline
/// unexpired: its start, and everything [`infer_topology_with`] takes
/// from running it.
#[derive(Debug)]
struct RestartRecord {
    start: TransformedTopology,
    topo: TransformedTopology,
    violation: f64,
    iters: usize,
}

/// Bitwise equality of two starts: same terminals in the same order,
/// with equal edge sets and equal weight *bits*. `f64` `==` cannot be
/// the key — it equates `-0.0` with `0.0` (which need not repair to
/// the same bits) and never matches a NaN weight.
fn same_start(a: &TransformedTopology, b: &TransformedTopology) -> bool {
    a.hts.len() == b.hts.len()
        && a.hts
            .iter()
            .zip(&b.hts)
            .all(|(x, y)| x.edges == y.edges && x.q_t.to_bits() == y.q_t.to_bits())
}

/// Local polish: single-edge toggles on the inferred terminals,
/// accepted whenever they reduce total violation, interleaved with
/// weight re-fits. The strict exact-edge-set metric is most often
/// lost to exactly one wrong edge; this pass repairs those directly.
/// Weights are re-fit through the plain [`refine_weights`] — the
/// reference path of [`infer_topology`].
fn polish_plain(tracker: &mut ResidualTracker<'_>, topo: &mut TransformedTopology, passes: usize) {
    polish_impl(tracker, topo, passes, &mut |sys, topo| {
        refine_weights(sys, topo)
    });
}

/// [`polish_plain`] with refinement scratch — the fast path of
/// [`infer_topology_with`].
fn polish_with(
    tracker: &mut ResidualTracker<'_>,
    topo: &mut TransformedTopology,
    passes: usize,
    refine: &mut RefineScratch,
) {
    polish_impl(tracker, topo, passes, &mut |sys, topo| {
        refine_weights_with(sys, topo, refine)
    });
}

/// The shared polish loop, parameterized over the weight re-fit so
/// the reference and scratch paths drive identical toggle sequences.
fn polish_impl(
    tracker: &mut ResidualTracker<'_>,
    topo: &mut TransformedTopology,
    passes: usize,
    refine: &mut dyn FnMut(&ConstraintSystem, &mut TransformedTopology),
) {
    let sys = tracker.sys();
    for _ in 0..passes {
        let mut improved = false;
        let mut r = Repairer::new(tracker, topo);
        for k in 0..r.topo.hts.len() {
            for i in 0..sys.n {
                let ht = r.topo.hts[k];
                if ht.q_t <= MIN_WEIGHT {
                    continue;
                }
                let new = if ht.edges.contains(i) {
                    ht.edges.without(i)
                } else {
                    ht.edges.with(i)
                };
                if new.is_empty() {
                    continue;
                }
                let cost = r.edge_change_cost(ht.edges, new, ht.q_t);
                if cost < -1e-9 {
                    r.apply_edge_change(k, ht.edges, new, ht.q_t);
                    improved = true;
                }
            }
        }
        *topo = r.topo;
        refine(sys, topo);
        if !improved {
            break;
        }
    }
}

/// Non-negative least-squares refinement of the weights `Q(k)` with
/// the edge structure held fixed (projected gradient on the linear
/// system of Eqn. 6). Cleans up weight error left by the
/// combinatorial repair.
///
/// This is the plain reference implementation;
/// `refine_weights_with` is the scratch-backed fast path that
/// produces bit-identical weights.
pub fn refine_weights(sys: &ConstraintSystem, topo: &mut TransformedTopology) {
    let h = topo.hts.len();
    if h == 0 {
        return;
    }
    // Rows: every constraint; columns: HTs. Entry 1 if HT contributes.
    let contributes = |c: ConstraintRef, ht: &TransformedHt| -> bool {
        match c {
            ConstraintRef::Individual(i) => ht.edges.contains(i),
            ConstraintRef::Pair(i, j) => ht.edges.contains(i) && ht.edges.contains(j),
            ConstraintRef::Triple(t) => {
                let (i, j, k) = sys.triples[t].clients;
                ht.edges.contains(i) && ht.edges.contains(j) && ht.edges.contains(k)
            }
        }
    };
    let constraints: Vec<(ConstraintRef, f64)> = sys
        .all_constraints()
        .map(|c| {
            let target = match c {
                ConstraintRef::Individual(i) => sys.individual[i],
                ConstraintRef::Pair(i, j) => sys.pair[pair_index(sys.n, i, j)],
                ConstraintRef::Triple(t) => sys.triples[t].target,
            };
            (c, target)
        })
        .collect();
    let mut q: Vec<f64> = topo.hts.iter().map(|ht| ht.q_t).collect();
    // Lipschitz-safe step: 1 / (max column count × rows touched).
    let step = 1.0 / (constraints.len() as f64).max(1.0);
    // One gradient buffer for all 400 iterations.
    let mut grad = vec![0.0; h];
    for _ in 0..400 {
        grad.iter_mut().for_each(|g| *g = 0.0);
        for &(c, target) in &constraints {
            let mut contrib = 0.0;
            for (k, ht) in topo.hts.iter().enumerate() {
                if contributes(c, ht) {
                    contrib += q[k];
                }
            }
            let r = contrib - target;
            for (k, ht) in topo.hts.iter().enumerate() {
                if contributes(c, ht) {
                    grad[k] += 2.0 * r;
                }
            }
        }
        let mut moved = 0.0;
        for k in 0..h {
            let new = (q[k] - step * grad[k]).max(0.0);
            moved += (new - q[k]).abs();
            q[k] = new;
        }
        if moved < 1e-10 {
            break;
        }
    }
    for (k, ht) in topo.hts.iter_mut().enumerate() {
        ht.q_t = q[k];
    }
    topo.prune(MIN_WEIGHT);
}

/// [`refine_weights`] against caller-provided scratch. The coverage
/// (which terminals contribute to which constraint) is built once up
/// front as compressed sparse rows — the edge structure is held fixed
/// here, so the 400 gradient iterations walk each row's covering
/// terminals instead of re-testing bitsets — and every buffer is
/// recycled across calls. Rows no terminal covers are dropped: they
/// never touch the gradient. The floating-point operations are those
/// of [`refine_weights`] in the same order (each row's contribution
/// summed over terminals ascending, the gradient accumulated in
/// canonical row order, the step still `1 / all constraints`), so the
/// refined weights are bit-identical.
fn refine_weights_with(
    sys: &ConstraintSystem,
    topo: &mut TransformedTopology,
    scratch: &mut RefineScratch,
) {
    let h = topo.hts.len();
    if h == 0 {
        return;
    }
    let RefineScratch {
        rows,
        cols,
        q,
        grad,
    } = scratch;
    rows.clear();
    cols.clear();
    let mut n_constraints = 0usize;
    for c in sys.all_constraints() {
        n_constraints += 1;
        let (target, needs) = match c {
            ConstraintRef::Individual(i) => (sys.individual[i], ClientSet::singleton(i)),
            ConstraintRef::Pair(i, j) => (
                sys.pair[pair_index(sys.n, i, j)],
                ClientSet::from_iter([i, j]),
            ),
            ConstraintRef::Triple(t) => {
                let (i, j, k) = sys.triples[t].clients;
                (sys.triples[t].target, ClientSet::from_iter([i, j, k]))
            }
        };
        let start = cols.len() as u32;
        cols.extend((0..h as u32).filter(|&k| needs.is_subset_of(topo.hts[k as usize].edges)));
        let end = cols.len() as u32;
        if end > start {
            rows.push(CoveredRow { target, start, end });
        }
    }
    q.clear();
    q.extend(topo.hts.iter().map(|ht| ht.q_t));
    // Lipschitz-safe step: 1 / (max column count × rows touched).
    let step = 1.0 / (n_constraints as f64).max(1.0);
    // One gradient buffer for all 400 iterations.
    grad.clear();
    grad.resize(h, 0.0);
    for _ in 0..400 {
        grad.iter_mut().for_each(|g| *g = 0.0);
        for row in rows.iter() {
            let cover = &cols[row.start as usize..row.end as usize];
            let mut contrib = 0.0;
            for &k in cover {
                contrib += q[k as usize];
            }
            let r = contrib - row.target;
            for &k in cover {
                grad[k as usize] += 2.0 * r;
            }
        }
        let mut moved = 0.0;
        for k in 0..h {
            let new = (q[k] - step * grad[k]).max(0.0);
            moved += (new - q[k]).abs();
            q[k] = new;
        }
        if moved < 1e-10 {
            break;
        }
    }
    for (k, ht) in topo.hts.iter_mut().enumerate() {
        ht.q_t = q[k];
    }
    topo.prune(MIN_WEIGHT);
}

/// Full inference: multi-point initialization (see
/// [`crate::blueprint::init`]), repair from each start, pick the
/// topology with the smallest violation, breaking ties toward fewer
/// hidden terminals; optionally refine weights. One
/// [`ResidualTracker`] is allocated for the whole run and reset per
/// restart.
///
/// This is the plain reference entry point; batch workers use
/// [`infer_topology_with`], which returns bit-identical results from
/// recycled working memory.
pub fn infer_topology(sys: &ConstraintSystem, config: &InferenceConfig) -> InferenceResult {
    let starts = crate::blueprint::init::starting_topologies(sys, config.random_restarts);
    let restarts = starts.len();
    let mut tracker = ResidualTracker::new(sys);
    let mut best: Option<(TransformedTopology, f64)> = None;
    let mut total_iters = 0;
    let mut token = config.deadline.token();
    for start in starts {
        let repairer = Repairer::new(&mut tracker, &start);
        let (mut topo, mut v, iters) = repairer.run(config.max_iters, config.epsilon, &mut token);
        total_iters += iters;
        // Skip the (unbudgeted) refinement pass once out of budget:
        // the anytime contract is "best repaired state so far, now".
        if config.refine_weights && v > config.epsilon && !token.expired() {
            refine_weights(sys, &mut topo);
            polish_plain(&mut tracker, &mut topo, 6);
            v = sys.total_violation(&topo);
        }
        let better = match &best {
            None => true,
            Some((bt, bv)) => {
                // Smallest violation wins; near-ties go to fewer HTs.
                v < bv - config.epsilon
                    || ((v - bv).abs() <= config.epsilon && topo.hts.len() < bt.hts.len())
            }
        };
        if better {
            let stop = v < config.epsilon;
            best = Some((topo, v));
            if stop {
                break;
            }
        }
        if token.expired() {
            break;
        }
    }
    // `starting_topologies` always yields at least the empty start,
    // but a pathological constraint system must degrade, not panic.
    let (topo, violation) =
        best.unwrap_or_else(|| (TransformedTopology { hts: Vec::new() }, f64::INFINITY));
    let (residual_fraction, verdict) = classify(sys, violation, config);
    InferenceResult {
        topology: topo.to_topology(sys.n).canonicalize(),
        violation,
        iterations: total_iters,
        restarts,
        residual_fraction,
        verdict,
        completed: !token.expired(),
        overshoot: 0,
    }
}

/// [`infer_topology`] against caller-provided scratch: the tracker's
/// flat buffers are rebound to this cell's constraint system instead
/// of allocated, weight refinement runs its sparse-coverage kernel
/// (`refine_weights_with`) from recycled arrays, and a start
/// bitwise equal to an earlier one in the same
/// portfolio (see `same_start`) is not run again: repair, refinement
/// and polish are pure functions of the start, so the earlier
/// restart's result is replayed — provided the deadline token can
/// account for its iterations exactly ([`DeadlineToken::try_replay`]).
/// Bit-identical to [`infer_topology`] (pinned by the batch and
/// portfolio differential tests).
pub fn infer_topology_with(
    sys: &ConstraintSystem,
    config: &InferenceConfig,
    scratch: &mut InferScratch,
) -> InferenceResult {
    let starts = crate::blueprint::init::starting_topologies(sys, config.random_restarts);
    run_portfolio_with(sys, config, starts, scratch)
}

/// The restart loop of [`infer_topology_with`] over any start
/// sequence.
fn run_portfolio_with(
    sys: &ConstraintSystem,
    config: &InferenceConfig,
    starts: Vec<TransformedTopology>,
    scratch: &mut InferScratch,
) -> InferenceResult {
    let restarts = starts.len();
    let mut tracker = ResidualTracker::rebind(sys, std::mem::take(&mut scratch.tracker));
    let records = &mut scratch.restarts;
    records.clear();
    let mut best: Option<(TransformedTopology, f64)> = None;
    let mut total_iters = 0;
    let mut token = config.deadline.token();
    for start in starts {
        let replay = records
            .iter()
            .find(|rec| same_start(&rec.start, &start))
            .filter(|rec| token.try_replay(rec.iters as u64));
        let (topo, v) = if let Some(rec) = replay {
            total_iters += rec.iters;
            (rec.topo.clone(), rec.violation)
        } else {
            let repairer = Repairer::new(&mut tracker, &start);
            let (mut topo, mut v, iters) =
                repairer.run(config.max_iters, config.epsilon, &mut token);
            total_iters += iters;
            // Skip the (unbudgeted) refinement pass once out of
            // budget: the anytime contract is "best repaired state so
            // far, now".
            if config.refine_weights && v > config.epsilon && !token.expired() {
                refine_weights_with(sys, &mut topo, &mut scratch.refine);
                polish_with(&mut tracker, &mut topo, 6, &mut scratch.refine);
                v = sys.total_violation(&topo);
            }
            // Only a restart that ran to its end is a pure function of
            // its start; one cut by the deadline is not replayable.
            if !token.expired() {
                records.push(RestartRecord {
                    start,
                    topo: topo.clone(),
                    violation: v,
                    iters,
                });
            }
            (topo, v)
        };
        let better = match &best {
            None => true,
            Some((bt, bv)) => {
                // Smallest violation wins; near-ties go to fewer HTs.
                v < bv - config.epsilon
                    || ((v - bv).abs() <= config.epsilon && topo.hts.len() < bt.hts.len())
            }
        };
        if better {
            let stop = v < config.epsilon;
            best = Some((topo, v));
            if stop {
                break;
            }
        }
        if token.expired() {
            break;
        }
    }
    // Hand the flat buffers back for the next cell on this scratch.
    scratch.tracker = tracker.into_buffers();
    // `starting_topologies` always yields at least the empty start,
    // but a pathological constraint system must degrade, not panic.
    let (topo, violation) =
        best.unwrap_or_else(|| (TransformedTopology { hts: Vec::new() }, f64::INFINITY));
    let (residual_fraction, verdict) = classify(sys, violation, config);
    InferenceResult {
        topology: topo.to_topology(sys.n).canonicalize(),
        violation,
        iterations: total_iters,
        restarts,
        residual_fraction,
        verdict,
        completed: !token.expired(),
        overshoot: 0,
    }
}

/// Incremental warm-start refinement — the streaming counterpart of
/// [`infer_topology_with`]. Instead of the full restart portfolio, a
/// single `Repairer` runs from `start` (typically the serving
/// blueprint lifted back into the log domain via
/// [`TransformedTopology::from_topology`]) against a constraint
/// system built from the current sliding observation window, then
/// takes the usual weight-refinement/polish pass. Under a small
/// [`Deadline::Steps`] budget this folds window deltas into the
/// blueprint between sub-frame segments at a fraction of a full
/// inference's cost; the verdict/confidence semantics are identical
/// to the full path, so the orchestrator gates installation the same
/// way.
pub fn refine_topology_with(
    sys: &ConstraintSystem,
    config: &InferenceConfig,
    start: TransformedTopology,
    scratch: &mut InferScratch,
) -> InferenceResult {
    let mut tracker = ResidualTracker::rebind(sys, std::mem::take(&mut scratch.tracker));
    let mut token = config.deadline.token();
    let repairer = Repairer::new(&mut tracker, &start);
    let (mut topo, mut v, iterations) = repairer.run(config.max_iters, config.epsilon, &mut token);
    if config.refine_weights && v > config.epsilon && !token.expired() {
        refine_weights_with(sys, &mut topo, &mut scratch.refine);
        polish_with(&mut tracker, &mut topo, 6, &mut scratch.refine);
        v = sys.total_violation(&topo);
    }
    scratch.tracker = tracker.into_buffers();
    let (residual_fraction, verdict) = classify(sys, v, config);
    InferenceResult {
        topology: topo.to_topology(sys.n).canonicalize(),
        violation: v,
        iterations,
        restarts: 1,
        residual_fraction,
        verdict,
        completed: !token.expired(),
        overshoot: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blueprint::accuracy::topology_accuracy;
    use blu_sim::rng::DetRng;
    use blu_sim::topology::{HiddenTerminal, InterferenceTopology};

    fn topo(n: usize, spec: &[(f64, &[usize])]) -> InterferenceTopology {
        InterferenceTopology {
            n_clients: n,
            hts: spec
                .iter()
                .map(|&(q, edges)| HiddenTerminal {
                    q,
                    edges: edges.iter().copied().collect(),
                })
                .collect(),
        }
    }

    #[test]
    fn warm_start_refine_keeps_a_correct_blueprint() {
        // Refining from the truth against the truth's constraint
        // system must converge immediately and keep the topology.
        let t = topo(4, &[(0.4, &[0, 1]), (0.25, &[2]), (0.6, &[1, 2, 3])]);
        let sys = ConstraintSystem::from_topology(&t);
        let start = TransformedTopology::from_topology(&t);
        let mut scratch = InferScratch::default();
        let r = refine_topology_with(&sys, &InferenceConfig::default(), start, &mut scratch);
        assert_eq!(r.verdict, InferenceVerdict::Converged);
        assert_eq!(r.restarts, 1);
        assert!(r.completed);
        let acc = topology_accuracy(&t, &r.topology).exact_fraction();
        assert!(acc > 0.99, "accuracy {acc}");
    }

    #[test]
    fn warm_start_refine_tracks_a_perturbed_system() {
        // The environment drifts (one HT's q changes): a warm start
        // from the stale blueprint must recover the new truth in a
        // single budgeted repair.
        let old = topo(5, &[(0.4, &[0, 1]), (0.3, &[2, 3])]);
        let new = topo(5, &[(0.4, &[0, 1]), (0.55, &[2, 3])]);
        let sys = ConstraintSystem::from_topology(&new);
        let start = TransformedTopology::from_topology(&old);
        let mut scratch = InferScratch::default();
        let config = InferenceConfig {
            deadline: Deadline::Steps(200),
            ..InferenceConfig::default()
        };
        let r = refine_topology_with(&sys, &config, start, &mut scratch);
        assert_eq!(r.verdict, InferenceVerdict::Converged);
        let acc = topology_accuracy(&new, &r.topology).exact_fraction();
        assert!(acc > 0.99, "accuracy {acc}");
    }

    #[test]
    fn ground_truth_is_a_fixed_point() {
        // Starting from the truth, the repairer must not move.
        let t = topo(4, &[(0.4, &[0, 1]), (0.25, &[2]), (0.6, &[1, 2, 3])]);
        let sys = ConstraintSystem::from_topology(&t);
        let start = TransformedTopology::from_topology(&t);
        let mut tracker = ResidualTracker::new(&sys);
        let r = Repairer::new(&mut tracker, &start);
        let (out, v, iters) = r.run(100, 1e-9, &mut Deadline::None.token());
        assert!(v < 1e-9, "violation {v}");
        assert!(iters <= 2);
        assert_eq!(out.hts.len(), 3);
    }

    #[test]
    fn recovers_single_hidden_terminal() {
        let t = topo(3, &[(0.5, &[0, 1, 2])]);
        let sys = ConstraintSystem::from_topology(&t);
        let result = infer_topology(&sys, &InferenceConfig::default());
        assert!(result.violation < 1e-6, "violation {}", result.violation);
        let acc = topology_accuracy(&t, &result.topology);
        assert_eq!(acc.exact_fraction(), 1.0, "{result:?}");
    }

    #[test]
    fn recovers_disjoint_hidden_terminals() {
        let t = topo(4, &[(0.3, &[0, 1]), (0.6, &[2, 3])]);
        let sys = ConstraintSystem::from_topology(&t);
        let result = infer_topology(&sys, &InferenceConfig::default());
        assert!(result.violation < 1e-6);
        assert_eq!(
            topology_accuracy(&t, &result.topology).exact_fraction(),
            1.0
        );
    }

    #[test]
    fn recovers_overlapping_hidden_terminals() {
        let t = topo(4, &[(0.4, &[0, 1, 2]), (0.2, &[2, 3])]);
        let sys = ConstraintSystem::from_topology(&t);
        let result = infer_topology(&sys, &InferenceConfig::default());
        assert!(result.violation < 1e-5, "violation {}", result.violation);
        let acc = topology_accuracy(&t, &result.topology);
        assert!(acc.exact_fraction() >= 0.5, "{:?}", result.topology);
    }

    #[test]
    fn recovered_weights_match_truth() {
        let t = topo(3, &[(0.45, &[0, 1, 2])]);
        let sys = ConstraintSystem::from_topology(&t);
        let result = infer_topology(&sys, &InferenceConfig::default());
        assert_eq!(result.topology.n_hidden(), 1);
        assert!(
            (result.topology.hts[0].q - 0.45).abs() < 1e-4,
            "q = {}",
            result.topology.hts[0].q
        );
    }

    #[test]
    fn empty_system_yields_empty_topology() {
        let t = InterferenceTopology::interference_free(4);
        let sys = ConstraintSystem::from_topology(&t);
        let result = infer_topology(&sys, &InferenceConfig::default());
        assert_eq!(result.topology.n_hidden(), 0);
        assert!(result.violation < 1e-9);
    }

    #[test]
    fn refine_weights_fixes_perturbed_weights() {
        let t = topo(4, &[(0.4, &[0, 1]), (0.3, &[2, 3])]);
        let sys = ConstraintSystem::from_topology(&t);
        let mut perturbed = TransformedTopology::from_topology(&t);
        perturbed.hts[0].q_t *= 1.5;
        perturbed.hts[1].q_t *= 0.5;
        refine_weights(&sys, &mut perturbed);
        let v = sys.total_violation(&perturbed);
        assert!(v < 1e-3, "violation after refinement {v}");
    }

    #[test]
    fn random_topologies_inferred_with_high_accuracy() {
        // Noiseless inputs, moderate size: expect mostly-exact
        // recovery across seeds (paper Fig. 14 regime).
        let mut total_acc = 0.0;
        let trials = 20;
        for seed in 0..trials {
            let mut rng = DetRng::seed_from_u64(seed);
            let truth =
                InterferenceTopology::random(6, 3, (0.15, 0.6), 0.4, &mut rng).canonicalize();
            let sys = ConstraintSystem::from_topology(&truth);
            let result = infer_topology(&sys, &InferenceConfig::default());
            let acc = topology_accuracy(&truth, &result.topology).exact_fraction();
            total_acc += acc;
        }
        let mean = total_acc / trials as f64;
        assert!(mean > 0.8, "mean exact-edge accuracy {mean}");
    }
}

#[cfg(test)]
mod fast_path_tests {
    use super::*;
    use crate::blueprint::constraints::TripleConstraint;
    use proptest::prelude::*;

    /// A random transformed topology over `n` clients whose terminals
    /// touch only the clients in `reach`, so every constraint on a
    /// client outside it is an uncovered row.
    fn sparse_topology(
        n: usize,
        reach: u128,
        h: usize,
        rng: &mut blu_sim::rng::DetRng,
    ) -> TransformedTopology {
        let hts = (0..h)
            .map(|_| {
                let mut edges = ClientSet::EMPTY;
                while edges.is_empty() {
                    for i in (0..n).filter(|&i| reach >> i & 1 == 1) {
                        if rng.chance(0.4) {
                            edges.insert(i);
                        }
                    }
                }
                TransformedHt {
                    q_t: rng.range_f64(0.01, 1.5),
                    edges,
                }
            })
            .collect();
        TransformedTopology { hts }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The sparse-coverage kernel against the plain reference, on
        /// systems that leave rows uncovered, with triples, and with
        /// more than 64 terminals; one scratch serves every system.
        #[test]
        fn sparse_refine_matches_reference(
            seed in any::<u64>(),
            n in 2usize..=12,
            reach_bits in any::<u128>(),
            h in 1usize..=80,
            triples in 0usize..=4,
        ) {
            let mut rng = blu_sim::rng::DetRng::seed_from_u64(seed);
            let mut sys = ConstraintSystem {
                n,
                individual: (0..n).map(|_| rng.range_f64(0.0, 1.0)).collect(),
                pair: (0..n * (n - 1) / 2).map(|_| rng.range_f64(0.0, 0.5)).collect(),
                triples: Vec::new(),
            };
            if n >= 3 {
                for _ in 0..triples {
                    let i = rng.below(n - 2);
                    let j = i + 1 + rng.below(n - 2 - i);
                    let k = j + 1 + rng.below(n - 1 - j);
                    sys.triples.push(TripleConstraint {
                        clients: (i, j, k),
                        target: rng.range_f64(0.0, 0.3),
                    });
                }
            }
            // At least one client in reach, and (when n > 1) usually
            // some left out.
            let reach = (reach_bits & ((1u128 << n) - 1)).max(1);
            let start = sparse_topology(n, reach, h, &mut rng);
            let mut reference = start.clone();
            refine_weights(&sys, &mut reference);
            SCRATCH.with(|scratch| {
                let mut fast = start.clone();
                refine_weights_with(&sys, &mut fast, &mut scratch.borrow_mut());
                prop_assert_eq!(fast.hts.len(), reference.hts.len());
                for (a, b) in fast.hts.iter().zip(&reference.hts) {
                    prop_assert_eq!(a.edges, b.edges);
                    prop_assert_eq!(a.q_t.to_bits(), b.q_t.to_bits());
                }
                Ok(())
            })?;
        }
    }

    thread_local! {
        static SCRATCH: std::cell::RefCell<RefineScratch> =
            std::cell::RefCell::new(RefineScratch::default());
    }

    #[test]
    fn signed_zero_weights_are_different_starts() {
        let ht = |q_t: f64| TransformedHt {
            q_t,
            edges: ClientSet::from_iter([0, 1]),
        };
        let pos = TransformedTopology {
            hts: vec![ht(0.3), ht(0.0)],
        };
        let neg = TransformedTopology {
            hts: vec![ht(0.3), ht(-0.0)],
        };
        assert_eq!(pos, neg, "f64 == equates the two");
        assert!(!same_start(&pos, &neg));
        assert!(same_start(&pos, &pos.clone()));
        // NaN weights with equal bits are the same start (f64 ==
        // would never match them).
        let nan = TransformedTopology {
            hts: vec![ht(f64::NAN)],
        };
        assert!(same_start(&nan, &nan.clone()));
        // Order matters: the repair applies terminals in order.
        let swapped = TransformedTopology {
            hts: vec![ht(0.0), ht(0.3)],
        };
        assert!(!same_start(&pos, &swapped));
    }

    /// Starts that differ only in a signed zero are both run (two
    /// records); a bitwise repeat is replayed (one record) and returns
    /// what running it again returns.
    #[test]
    fn signed_zero_start_is_not_replayed() {
        let t = InterferenceTopology {
            n_clients: 4,
            hts: vec![
                blu_sim::topology::HiddenTerminal {
                    q: 0.4,
                    edges: ClientSet::from_iter([0, 1, 2]),
                },
                blu_sim::topology::HiddenTerminal {
                    q: 0.3,
                    edges: ClientSet::from_iter([2, 3]),
                },
            ],
        };
        let mut sys = ConstraintSystem::from_topology(&t);
        // Noise keeps every restart above epsilon, so none stops the
        // portfolio early.
        sys.pair[0] *= 1.3;
        sys.individual[3] *= 0.8;
        let config = InferenceConfig::default();
        let start = |zero: f64| TransformedTopology {
            hts: vec![
                TransformedHt {
                    q_t: zero,
                    edges: ClientSet::from_iter([0, 1]),
                },
                TransformedHt {
                    q_t: 0.2,
                    edges: ClientSet::from_iter([1, 2, 3]),
                },
            ],
        };
        let mut scratch = InferScratch::default();
        let signed = vec![start(0.0), start(-0.0)];
        let both = run_portfolio_with(&sys, &config, signed, &mut scratch);
        assert_eq!(scratch.restarts.len(), 2, "-0.0 must not replay 0.0");
        let repeated = vec![start(0.0), start(0.0)];
        let replayed = run_portfolio_with(&sys, &config, repeated, &mut scratch);
        assert_eq!(scratch.restarts.len(), 1, "a bitwise repeat is replayed");
        let once = run_portfolio_with(&sys, &config, vec![start(0.0)], &mut scratch);
        assert!(both.violation > config.epsilon);
        assert_eq!(replayed.topology, once.topology);
        assert_eq!(replayed.violation.to_bits(), once.violation.to_bits());
        assert_eq!(replayed.iterations, 2 * once.iterations);
    }
}

#[cfg(test)]
mod triple_inference_tests {
    use super::*;
    use crate::blueprint::accuracy::topology_accuracy;
    use blu_sim::rng::DetRng;
    use blu_sim::topology::HiddenTerminal;

    /// Paper §3.5: pairwise statistics cannot separate a "star +
    /// singles" truth from a cheaper "triangle" explanation, so the
    /// fewest-terminals tie-break picks the triangle; one triple
    /// measurement restores the truth.
    #[test]
    fn triple_evidence_disambiguates_skewed_topology() {
        let q = 0.4;
        let star = InterferenceTopology {
            n_clients: 3,
            hts: vec![
                HiddenTerminal {
                    q,
                    edges: ClientSet::from_iter([0, 1, 2]),
                },
                HiddenTerminal {
                    q,
                    edges: ClientSet::singleton(0),
                },
                HiddenTerminal {
                    q,
                    edges: ClientSet::singleton(1),
                },
                HiddenTerminal {
                    q,
                    edges: ClientSet::singleton(2),
                },
            ],
        };
        // Pairwise only: the inferred solution explains the stats but
        // need not match the star (triangle is cheaper).
        let sys_pairwise = ConstraintSystem::from_topology(&star);
        let r_pairwise = infer_topology(&sys_pairwise, &InferenceConfig::default());
        assert!(r_pairwise.violation < 1e-6);

        // With the triple: only the star satisfies everything.
        let mut sys_triple = ConstraintSystem::from_topology(&star);
        sys_triple.add_triples_from_topology(&star, &[(0, 1, 2)]);
        let r_triple = infer_topology(&sys_triple, &InferenceConfig::default());
        assert!(
            r_triple.violation < 1e-5,
            "violation {}",
            r_triple.violation
        );
        let acc = topology_accuracy(&star, &r_triple.topology);
        assert_eq!(
            acc.exact_fraction(),
            1.0,
            "star not recovered: {:?}",
            r_triple.topology
        );
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        assert!(InferenceConfig::default().validate().is_ok());
        let bad = [
            InferenceConfig {
                max_iters: 0,
                ..Default::default()
            },
            InferenceConfig {
                epsilon: 0.0,
                ..Default::default()
            },
            InferenceConfig {
                epsilon: f64::NAN,
                ..Default::default()
            },
            InferenceConfig {
                accept_residual: 1.5,
                ..Default::default()
            },
            InferenceConfig {
                degraded_residual: f64::INFINITY,
                ..Default::default()
            },
            InferenceConfig {
                accept_residual: 0.4,
                degraded_residual: 0.1,
                ..Default::default()
            },
            InferenceConfig {
                deadline: Deadline::Steps(0),
                ..Default::default()
            },
        ];
        for cfg in bad {
            assert!(
                matches!(
                    cfg.validate(),
                    Err(crate::error::BluError::InvalidConfig(_))
                ),
                "{cfg:?} should be rejected"
            );
        }
    }

    fn deadline_test_system() -> ConstraintSystem {
        let mut rng = DetRng::seed_from_u64(77);
        let truth = InterferenceTopology::random(8, 5, (0.15, 0.6), 0.4, &mut rng);
        ConstraintSystem::from_topology(&truth)
    }

    /// The no-deadline differential contract: adding the (default)
    /// `Deadline::None` field must leave inference bit-identical to a
    /// config that never heard of deadlines, and a roomy step budget
    /// must match exactly as well (the token is only consulted, never
    /// drawn from).
    #[test]
    fn no_deadline_is_bit_identical_to_roomy_budget() {
        let sys = deadline_test_system();
        let unbounded = infer_topology(&sys, &InferenceConfig::default());
        assert!(unbounded.completed);
        assert_eq!(unbounded.overshoot, 0);
        let roomy = infer_topology(
            &sys,
            &InferenceConfig {
                deadline: Deadline::Steps(u64::MAX),
                ..Default::default()
            },
        );
        assert_eq!(roomy.topology, unbounded.topology);
        assert_eq!(roomy.violation.to_bits(), unbounded.violation.to_bits());
        assert_eq!(roomy.verdict, unbounded.verdict);
        assert_eq!(roomy.iterations, unbounded.iterations);
        assert_eq!(roomy.restarts, unbounded.restarts);
        assert!(roomy.completed);
    }

    /// A budget far below convergence still yields a usable anytime
    /// result: finite violation, `completed = false`, zero overshoot
    /// (step budgets are exact), and determinism across runs.
    #[test]
    fn tiny_step_budget_returns_best_so_far() {
        let sys = deadline_test_system();
        let cfg = InferenceConfig {
            deadline: Deadline::Steps(3),
            ..Default::default()
        };
        let a = infer_topology(&sys, &cfg);
        let b = infer_topology(&sys, &cfg);
        assert!(!a.completed, "3 repair iterations cannot converge here");
        assert_eq!(a.overshoot, 0);
        assert!(a.violation.is_finite());
        assert!(!a.topology.p_individual(0).is_nan());
        assert_eq!(a.topology, b.topology, "bounded runs stay deterministic");
        assert_eq!(a.violation.to_bits(), b.violation.to_bits());
        // The anytime result is strictly coarser than (or equal to)
        // the converged one.
        let full = infer_topology(&sys, &InferenceConfig::default());
        assert!(a.violation >= full.violation);
    }
}
