//! BLU's speculative scheduler (paper §3.2.2, Eqns. 3–4).
//!
//! Per RB, clients are added greedily: starting from the empty group,
//! add the client `ℓ*` with the largest *expected* utility increment
//! `E(G ∪ ℓ) − E(G)` (Eqn. 3), where the expectation runs over the
//! joint access pattern of the group (Eqn. 4):
//!
//! ```text
//! E(G) = Σ_{patterns} P(pattern) · penalty(|g|) · Σ_{i∈g} r_{i,b}/R_i
//! ```
//!
//! with `g` the clients of the pattern that transmit; patterns with
//! more than `M` transmitters contribute nothing (collision). The
//! group grows while the increment is positive, up to the `f·M` cap
//! (f = 2 by default) — beyond which collisions erase the gains (the
//! paper's diminishing-returns observation).
//!
//! ## Hot-path structure
//!
//! The greedy builder is *incremental*: the per-RB weight vector and
//! the per-client access probabilities are hoisted out of the
//! candidate loop (and, since the distribution source is immutable
//! for the scheduler's lifetime, `p(i)` is filled once per instance
//! rather than once per sub-frame), the subset-sum table is a reused
//! scratch buffer (no allocation per candidate), and candidates are
//! pruned with the admissible upper bound
//!
//! ```text
//! E(G ∪ ℓ) ≤ E(G) + p(ℓ)·w(ℓ)
//! ```
//!
//! (ℓ's own contribution is at most `p(ℓ)·w(ℓ)` since the MIMO
//! penalty is ≤ 1, and adding a client can only *lower* the existing
//! members' contribution: the penalty is non-increasing in stream
//! count and extra collisions zero terms out). A candidate whose
//! bound cannot beat both the incumbent best and the acceptance
//! threshold is skipped without evaluating the `O(2^w)` expectation.
//!
//! Two further short-circuits keep the pruned path allocation- and
//! lock-free in steady state, both **bit-identical** by construction:
//!
//! * **Singleton fast path** — on the first greedy iteration the
//!   group is empty, and `expectation_kernel` over `{ℓ}` reduces
//!   *exactly* (same float ops: `x·1.0 = x`, `x−0.0 = x`,
//!   `mimo_penalty(1, m) = m/m = 1.0`) to `p(ℓ)·w(ℓ)` — the already
//!   cached pruning bound. The dominant `O(N)` singleton candidates
//!   per RB therefore cost one multiply each, no distribution query.
//! * **Local distribution memo** — the provider's shared cache is
//!   behind a `Mutex` (it serves the parallel trial fan-out); the
//!   scheduler keeps a private sorted `(bitmask, Arc)` memo so repeat
//!   candidates across RBs and sub-frames skip the lock and hash
//!   entirely. Same `Arc`s, same values.
//!
//! Pruned and exhaustive modes share one float kernel
//! (`expectation_kernel`) and therefore produce **bit-identical**
//! schedules — `SpeculativeScheduler::exhaustive` keeps the
//! evaluate-everything path alive as the differential-test oracle.
//!
//! Cost: the pattern distribution is `O(h·2^w)` (cached per client
//! set by the provider, handed out as a shared `Arc<[f64]>`) and the
//! expectation `O(2^w)` via the subset-sum table, `w ≤ f·M ≤ 8`.

use super::{
    mimo_penalty, pf::PfScheduler, pf::PfScratch, MatrixRates, RateMap, SchedInput, UlScheduler,
};
use crate::error::BluError;
use crate::joint::AccessDistribution;
use blu_phy::grant::RbSchedule;
use blu_sim::clientset::ClientSet;
use std::sync::Arc;

/// Minimum expected-utility increment to keep adding clients.
const MIN_GAIN: f64 = 1e-9;

/// Safety slack subtracted from the pruning threshold so float noise
/// in the upper bound can never skip a candidate the exhaustive path
/// would have picked.
const PRUNE_SLACK: f64 = 1e-9;

/// Bound on the scheduler-local distribution memo. The working set is
/// the candidate groups of one cell (`O(N·fM)` per RB, heavily
/// repeated across RBs and sub-frames); on overflow the memo is
/// cleared wholesale — deterministic, and the next sub-frame rebuilds
/// the live entries from the provider's shared cache.
const DIST_MEMO_CAP: usize = 1024;

/// Eqn. 4 evaluated over an explicit pattern distribution: the
/// expected PF utility of a group whose members (ascending) have
/// per-RB PF `weights`. `blocked_sum` is caller-provided scratch for
/// the subset-sum table — reused across calls, no allocation on the
/// hot path. This single kernel backs both the pruned and the
/// exhaustive builder, which is what makes their schedules
/// bit-identical.
fn expectation_kernel(
    dist: &[f64],
    weights: &[f64],
    m_ant: usize,
    blocked_sum: &mut Vec<f64>,
) -> f64 {
    let n = weights.len();
    debug_assert_eq!(dist.len(), 1 << n);
    let total: f64 = weights.iter().sum();
    // Unrolled n ∈ {1, 2}: the same pattern terms in the same
    // accumulation order as the generic loop below, with the exact
    // identities `blocked_sum[0] = 0`, `total − 0.0 = total` and
    // `mimo_penalty(1, m) = 1.0` (for m ≥ 1) substituted — every
    // product is bit-identical to the table path. Groups of one and
    // two dominate the emulator workload (SISO over-scheduling caps
    // groups at f·M = 2), and skipping the subset-sum table halves the
    // pair-candidate cost.
    if n == 1 {
        let p = dist[0];
        return if p != 0.0 && m_ant >= 1 {
            p * total
        } else {
            0.0
        };
    }
    if n == 2 {
        let mut e = 0.0;
        let p_both = dist[0];
        if p_both != 0.0 && 2 <= m_ant {
            e += p_both * mimo_penalty(2, m_ant) * total;
        }
        if m_ant >= 1 {
            let p1 = dist[1]; // member 0 blocked, member 1 transmits
            if p1 != 0.0 {
                e += p1 * (total - weights[0]);
            }
            let p2 = dist[2]; // member 1 blocked, member 0 transmits
            if p2 != 0.0 {
                e += p2 * (total - weights[1]);
            }
        }
        return e;
    }
    blocked_sum.clear();
    blocked_sum.resize(1 << n, 0.0);
    // Subset-sum of weights over blocked masks.
    for m in 1usize..(1 << n) {
        let low = m.trailing_zeros() as usize;
        blocked_sum[m] = blocked_sum[m & (m - 1)] + weights[low];
    }
    let mut e = 0.0;
    for (m, &p) in dist.iter().enumerate() {
        if p == 0.0 {
            continue;
        }
        let transmitting = n - m.count_ones() as usize;
        if transmitting == 0 || transmitting > m_ant {
            continue; // silence or collision
        }
        e += p * mimo_penalty(transmitting, m_ant) * (total - blocked_sum[m]);
    }
    e
}

/// Reusable buffers for one scheduler instance — sized once, reused
/// across candidates, RBs and sub-frames.
#[derive(Default)]
struct Scratch {
    /// `input.weight(ue, rb)` for the RB being built (hoisted out of
    /// the candidate loop — the weight of a client does not change
    /// while one RB's group is grown).
    weights_rb: Vec<f64>,
    /// Individual access probability per client, for the pruning
    /// bound and the singleton fast path. The distribution source is
    /// fixed and immutable for the scheduler's lifetime, so this is
    /// filled once per instance (refreshed only if the client count
    /// changes).
    p_ind: Vec<f64>,
    /// Members of the group under construction, ascending.
    members: Vec<usize>,
    /// Weight vector of a candidate group, member order.
    weights: Vec<f64>,
    /// Subset-sum table for [`expectation_kernel`].
    blocked_sum: Vec<f64>,
    /// Scheduler-local pattern-distribution memo, sorted by client-set
    /// bitmask: repeat candidates skip the provider cache's mutex and
    /// hash. Handed-out `Arc`s are the provider's own — same values.
    memo: Vec<(u128, Arc<[f64]>)>,
    /// Precomputed pair expectation terms, indexed `lo·n + hi` for
    /// `lo < hi` (see [`PairTerms`]). The distribution source is
    /// immutable, so pair pattern probabilities never change for a
    /// scheduler's lifetime — only the PF weights do, and those enter
    /// as two multiplies at evaluation time.
    pairs: Vec<PairTerms>,
    /// `(n_clients, m_antennas)` the pair table was built for.
    pairs_shape: (usize, usize),
    /// Flat-path weight matrix, `ue·n_rbs + rb` — the whole sub-frame's
    /// PF weights computed row-sequentially once per `schedule` call.
    w_mat: Vec<f64>,
    /// Flat-path best singleton expectation per RB.
    best_e: Vec<f64>,
    /// Flat-path best singleton client per RB (`usize::MAX` = none).
    best_ue: Vec<usize>,
    /// Scratch for the PF fallback on empty RBs.
    pf: PfScratch,
}

/// One pair's weight-independent expectation coefficients, laid out so
/// the pair evaluation replays [`expectation_kernel`]'s `n = 2` float
/// operations exactly:
/// `e = t0pen·(w_lo + w_hi) + t1·(total − w_lo) + t2·(total − w_hi)`.
#[derive(Default, Clone, Copy)]
struct PairTerms {
    /// `dist[0] · mimo_penalty(2, M)` (both members transmit); `0.0`
    /// when `M < 2`, matching the kernel's collision skip.
    t0pen: f64,
    /// `dist[1]` — member `lo` blocked, `hi` transmits alone
    /// (`mimo_penalty(1, M) = 1.0` exactly, so the probability is the
    /// whole coefficient).
    t1: f64,
    /// `dist[2]` — member `hi` blocked, `lo` transmits alone.
    t2: f64,
}

/// The speculative scheduler, parameterized by a joint access
/// distribution source (inferred blue-print, ground truth, empirical
/// trace statistics, or an independence approximation).
pub struct SpeculativeScheduler<'a> {
    dist: &'a dyn AccessDistribution,
    prune: bool,
    scratch: Scratch,
}

impl<'a> SpeculativeScheduler<'a> {
    /// Wrap an access-distribution source (pruned hot path — the
    /// default).
    pub fn new(dist: &'a dyn AccessDistribution) -> Self {
        SpeculativeScheduler {
            dist,
            prune: true,
            scratch: Scratch::default(),
        }
    }

    /// Reference mode: evaluate every candidate, no pruning. Produces
    /// bit-identical schedules to [`SpeculativeScheduler::new`]
    /// (shared float kernel); kept as the oracle for differential
    /// tests and as the pre-optimization baseline for perf runs.
    pub fn exhaustive(dist: &'a dyn AccessDistribution) -> Self {
        SpeculativeScheduler {
            dist,
            prune: false,
            scratch: Scratch::default(),
        }
    }

    /// Whether the admissible-bound pruning is active.
    pub fn pruning_enabled(&self) -> bool {
        self.prune
    }

    /// Eqn. 4: the expected PF utility of scheduling group `w` on
    /// RB `rb`.
    pub fn expected_utility(
        &self,
        input: &SchedInput<'_>,
        rb: usize,
        w: ClientSet,
    ) -> Result<f64, BluError> {
        if w.is_empty() {
            return Ok(0.0);
        }
        let dist = self.dist.pattern_distribution(w)?;
        let weights: Vec<f64> = w.iter().map(|ue| input.weight(ue, rb)).collect();
        let mut blocked_sum = Vec::new();
        Ok(expectation_kernel(
            &dist,
            &weights,
            input.m_antennas,
            &mut blocked_sum,
        ))
    }

    /// Fill the pruning inputs: individual access probabilities and
    /// the pair-term table. The distribution source is immutable for
    /// the scheduler's lifetime, so after the first sub-frame these
    /// are shape checks. No-op in exhaustive mode.
    fn prepare(&mut self, input: &SchedInput<'_>) -> Result<(), BluError> {
        if !self.prune {
            return Ok(());
        }
        let n = input.n_clients;
        if self.scratch.p_ind.len() != n {
            self.scratch.p_ind.clear();
            for ue in 0..n {
                self.scratch.p_ind.push(self.dist.p_individual(ue)?);
            }
        }
        let m = input.m_antennas;
        if self.scratch.pairs_shape != (n, m) {
            self.scratch.pairs.clear();
            self.scratch.pairs.resize(n * n, PairTerms::default());
            // M = 0 never grants anyone; leave the table zeroed so the
            // (unreachable) pair evaluation matches the kernel's
            // all-patterns-skipped result.
            if m >= 1 {
                for lo in 0..n {
                    for hi in (lo + 1)..n {
                        let d = self
                            .dist
                            .pattern_distribution(ClientSet::EMPTY.with(lo).with(hi))?;
                        self.scratch.pairs[lo * n + hi] = PairTerms {
                            t0pen: if m >= 2 {
                                d[0] * mimo_penalty(2, m)
                            } else {
                                0.0
                            },
                            t1: d[1],
                            t2: d[2],
                        };
                    }
                }
            }
            self.scratch.pairs_shape = (n, m);
        }
        Ok(())
    }

    /// The greedy group construction for one RB (Eqn. 3), under the
    /// hard cell-wide `K`-distinct-clients budget.
    fn best_group_for_rb(
        &mut self,
        input: &SchedInput<'_>,
        rb: usize,
        used: ClientSet,
    ) -> Result<ClientSet, BluError> {
        let dist_src = self.dist;
        let prune = self.prune;
        let Scratch {
            weights_rb,
            p_ind,
            members,
            weights,
            blocked_sum,
            memo,
            pairs,
            ..
        } = &mut self.scratch;

        // Hoisted: every candidate this RB reuses these weights. The
        // dense-matrix downcast replays `SchedInput::weight`'s exact
        // expression through a concrete type — same loads, same
        // divide, no virtual dispatch per lookup.
        weights_rb.clear();
        if let Some(mat) = input.rates.as_matrix() {
            for ue in 0..input.n_clients {
                weights_rb.push(mat.rate(ue, rb) / input.avg_tput[ue].max(1.0));
            }
        } else {
            for ue in 0..input.n_clients {
                weights_rb.push(input.weight(ue, rb));
            }
        }

        members.clear();
        let mut group = ClientSet::EMPTY;
        let mut e = 0.0;
        while group.len() < input.max_group {
            let budget_left = input.k_max.saturating_sub(used.union(group).len());
            let mut best: Option<(usize, f64)> = None;
            for ue in 0..input.n_clients {
                if group.contains(ue) {
                    continue;
                }
                if !used.contains(ue) && budget_left == 0 {
                    continue; // would exceed K distinct clients
                }
                let w_ue = weights_rb[ue];
                if w_ue <= 0.0 {
                    continue;
                }
                if prune {
                    // Admissible bound: E(G∪ℓ) ≤ E(G) + p(ℓ)·w(ℓ).
                    // To matter, a candidate must strictly beat the
                    // incumbent best AND clear the acceptance
                    // threshold e + MIN_GAIN; a bound below both
                    // (minus slack) cannot change the outcome.
                    let ub = e + p_ind[ue] * w_ue;
                    let threshold = match best {
                        Some((_, b)) => b.max(e + MIN_GAIN),
                        None => e + MIN_GAIN,
                    };
                    if ub < threshold - PRUNE_SLACK {
                        continue;
                    }
                    if members.is_empty() && input.m_antennas >= 1 {
                        // Singleton fast path: the kernel over {ue}
                        // computes 0.0 + p·mimo_penalty(1,M)·(w−0.0)
                        // with penalty exactly M/M = 1.0 — i.e. p·w,
                        // the bound itself. Skip the distribution
                        // query. (M = 0 would make the kernel skip
                        // the pattern as a collision; leave that
                        // degenerate case to the full evaluation.)
                        let e_new = p_ind[ue] * w_ue;
                        if best.is_none_or(|(_, b)| e_new > b) {
                            best = Some((ue, e_new));
                        }
                        continue;
                    }
                    if members.len() == 1 && input.m_antennas >= 1 {
                        // Pair fast path: the precomputed terms replay
                        // the kernel's n = 2 evaluation — `total` is
                        // the same left-to-right sum, each product the
                        // same two roundings — so `e_new` is bit-equal
                        // to the kernel over the pair distribution.
                        let b0 = members[0];
                        let (lo, hi) = if ue < b0 { (ue, b0) } else { (b0, ue) };
                        let t = &pairs[lo * input.n_clients + hi];
                        let w_lo = weights_rb[lo];
                        let w_hi = weights_rb[hi];
                        let total = w_lo + w_hi;
                        let e_new = t.t0pen * total + t.t1 * (total - w_lo) + t.t2 * (total - w_hi);
                        if best.is_none_or(|(_, b)| e_new > b) {
                            best = Some((ue, e_new));
                        }
                        continue;
                    }
                }
                let w = group.with(ue);
                let fresh: Arc<[f64]>;
                // The local memo is a pruned-path optimization only:
                // the exhaustive oracle keeps querying the provider
                // directly, so the perf baseline that pairs it with a
                // clone-per-query provider stays a faithful
                // reconstruction of the pre-overhaul path.
                let dist: &[f64] = if prune {
                    match memo.binary_search_by_key(&w.0, |ent| ent.0) {
                        Ok(i) => &memo[i].1,
                        Err(pos) => {
                            let d = dist_src.pattern_distribution(w)?;
                            if memo.len() >= DIST_MEMO_CAP {
                                memo.clear();
                                memo.push((w.0, d));
                                &memo[memo.len() - 1].1
                            } else {
                                memo.insert(pos, (w.0, d));
                                &memo[pos].1
                            }
                        }
                    }
                } else {
                    fresh = dist_src.pattern_distribution(w)?;
                    &fresh
                };
                // Candidate weight vector in ascending-member order.
                let pos = members.partition_point(|&m| m < ue);
                weights.clear();
                weights.extend(members[..pos].iter().map(|&m| weights_rb[m]));
                weights.push(w_ue);
                weights.extend(members[pos..].iter().map(|&m| weights_rb[m]));
                let e_new = expectation_kernel(dist, weights, input.m_antennas, blocked_sum);
                if best.is_none_or(|(_, b)| e_new > b) {
                    best = Some((ue, e_new));
                }
            }
            match best {
                Some((ue, e_new)) if e_new - e > MIN_GAIN => {
                    group.insert(ue);
                    let pos = members.partition_point(|&m| m < ue);
                    members.insert(pos, ue);
                    e = e_new;
                }
                _ => break,
            }
        }
        Ok(group)
    }

    /// Whether the vectorized whole-sub-frame builder applies. Each
    /// condition removes a behaviour the flat path does not replicate:
    /// pruning (the flat path *is* the pruned fast path — the
    /// exhaustive oracle keeps the per-RB builder), a dense rate
    /// matrix (hoisting the weight computation out of the RB loop),
    /// `M ≥ 1` (the singleton/pair fast paths assume
    /// `mimo_penalty(1, M) = 1`), groups capped at pairs (the table
    /// only covers pairs), and a `K` budget that can never bind
    /// (`K ≥ N` makes the `budget_left == 0 ∧ ue ∉ used` skip
    /// unreachable — when the budget hits zero every client is already
    /// in `used ∪ group` — so the flat path may drop the sequential
    /// `used` threading entirely).
    fn flat_path_applies(&self, input: &SchedInput<'_>) -> bool {
        self.prune
            && input.m_antennas >= 1
            && (1..=2).contains(&input.max_group)
            && input.k_max >= input.n_clients
    }

    /// Vectorized greedy over the whole sub-frame (the data-oriented
    /// twin of [`SpeculativeScheduler::best_group_for_rb`], gated by
    /// [`SpeculativeScheduler::flat_path_applies`]). Phase one computes
    /// the best *singleton* for every RB columnar-style: the weight
    /// matrix is filled row-sequentially (same `rate / avg.max(1.0)`
    /// divide as [`SchedInput::weight`]), then one pass per client
    /// updates a running argmax per RB. The update rule
    /// `none ∨ e > best` replays the per-RB candidate loop's
    /// `is_none_or` exactly — ascending client order, strict greater,
    /// first-wins ties — so the chosen singleton (and its expectation
    /// bits) match the scalar path on every RB. Phase two replays the
    /// second greedy iteration per RB through the [`PairTerms`] table,
    /// identical float ops in identical order. The per-RB schedules
    /// this produces are bit-identical to the scalar builder's; the
    /// differential tests drive both against the exhaustive oracle.
    fn schedule_flat(&mut self, input: &SchedInput<'_>, mat: &MatrixRates, sched: &mut RbSchedule) {
        let n = input.n_clients;
        let n_rbs = input.n_rbs;
        let Scratch {
            p_ind,
            pairs,
            w_mat,
            best_e,
            best_ue,
            pf,
            ..
        } = &mut self.scratch;

        w_mat.clear();
        for ue in 0..n {
            let av = input.avg_tput[ue].max(1.0);
            for rb in 0..n_rbs {
                w_mat.push(mat.rate(ue, rb) / av);
            }
        }
        best_e.clear();
        best_e.resize(n_rbs, 0.0);
        best_ue.clear();
        best_ue.resize(n_rbs, usize::MAX);
        for ue in 0..n {
            let p = p_ind[ue];
            let row = &w_mat[ue * n_rbs..(ue + 1) * n_rbs];
            for (rb, &w) in row.iter().enumerate() {
                if w <= 0.0 {
                    continue;
                }
                let e = p * w;
                if best_ue[rb] == usize::MAX || e > best_e[rb] {
                    best_e[rb] = e;
                    best_ue[rb] = ue;
                }
            }
        }
        for rb in 0..n_rbs {
            let b0 = best_ue[rb];
            let e = best_e[rb];
            // Acceptance replays `e_new − e > MIN_GAIN` with e = 0.0
            // (`x − 0.0` never changes the comparison's outcome). The
            // negation must stay NaN-rejecting: a NaN best falls back
            // exactly like the scalar path's empty group.
            if b0 == usize::MAX || e.partial_cmp(&MIN_GAIN) != Some(std::cmp::Ordering::Greater) {
                // Same PF fallback as the scalar path's empty-group
                // case. `used` is irrelevant under the `K ≥ N` gate
                // (see `flat_path_applies`): PF's budget skip is as
                // unreachable as ours.
                let (fallback, _) = PfScheduler::best_group_for_rb_with(
                    input,
                    rb,
                    ClientSet::EMPTY,
                    input.m_antennas,
                    &|ue, rb| input.weight(ue, rb),
                    pf,
                );
                for ue in fallback.iter() {
                    sched.assign(rb, ue);
                }
                continue;
            }
            sched.assign(rb, b0);
            if input.max_group < 2 {
                continue;
            }
            let mut best: Option<(usize, f64)> = None;
            for ue in 0..n {
                if ue == b0 {
                    continue;
                }
                let w_ue = w_mat[ue * n_rbs + rb];
                if w_ue <= 0.0 {
                    continue;
                }
                let ub = e + p_ind[ue] * w_ue;
                let threshold = match best {
                    Some((_, b)) => b.max(e + MIN_GAIN),
                    None => e + MIN_GAIN,
                };
                if ub < threshold - PRUNE_SLACK {
                    continue;
                }
                let (lo, hi) = if ue < b0 { (ue, b0) } else { (b0, ue) };
                let t = &pairs[lo * n + hi];
                let w_lo = w_mat[lo * n_rbs + rb];
                let w_hi = w_mat[hi * n_rbs + rb];
                let total = w_lo + w_hi;
                let e_new = t.t0pen * total + t.t1 * (total - w_lo) + t.t2 * (total - w_hi);
                if best.is_none_or(|(_, b)| e_new > b) {
                    best = Some((ue, e_new));
                }
            }
            if let Some((ue, e_new)) = best {
                if e_new - e > MIN_GAIN {
                    sched.assign(rb, ue);
                }
            }
        }
    }
}

impl UlScheduler for SpeculativeScheduler<'_> {
    fn name(&self) -> &'static str {
        "BLU"
    }

    fn schedule(&mut self, input: &SchedInput<'_>) -> RbSchedule {
        let mut sched = RbSchedule::empty(input.n_rbs);
        let mut used = ClientSet::EMPTY;
        // Distribution errors route into PF fallback (library error
        // policy: a scheduler that panics is strictly worse than one
        // that schedules conservatively).
        let prepared = self.prepare(input).is_ok();
        if prepared && self.flat_path_applies(input) {
            if let Some(mat) = input.rates.as_matrix() {
                self.schedule_flat(input, mat, &mut sched);
                return sched;
            }
        }
        for rb in 0..input.n_rbs {
            let group = if prepared {
                self.best_group_for_rb(input, rb, used)
                    .unwrap_or(ClientSet::EMPTY)
            } else {
                ClientSet::EMPTY
            };
            if group.is_empty() {
                // Never leave an RB unallocated if anyone is
                // schedulable: fall back to the best PF client (the
                // paper allocates all RBs every sub-frame).
                let (fallback, _) = PfScheduler::best_group_for_rb_with(
                    input,
                    rb,
                    used,
                    input.m_antennas,
                    &|ue, rb| input.weight(ue, rb),
                    &mut self.scratch.pf,
                );
                for ue in fallback.iter() {
                    sched.assign(rb, ue);
                    used.insert(ue);
                }
                continue;
            }
            for ue in group.iter() {
                sched.assign(rb, ue);
                used.insert(ue);
            }
        }
        sched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::joint::{IndependentAccess, TopologyAccess};
    use crate::sched::rates::MatrixRates;
    use blu_sim::rng::DetRng;
    use blu_sim::topology::{HiddenTerminal, InterferenceTopology};

    fn input<'a>(
        rates: &'a MatrixRates,
        avg: &'a [f64],
        m: usize,
        max_group: usize,
        n_rbs: usize,
    ) -> SchedInput<'a> {
        SchedInput {
            n_clients: avg.len(),
            n_rbs,
            m_antennas: m,
            k_max: 10,
            max_group,
            rates,
            avg_tput: avg,
        }
    }

    #[test]
    fn reduces_to_pf_without_interference() {
        // DESIGN.md invariant 4: interference-free topology → BLU
        // schedules exactly like PF (no over-scheduling: a second
        // always-transmitting client would only collide).
        let topo = InterferenceTopology::interference_free(4);
        let acc = TopologyAccess::new(&topo);
        let rates = MatrixRates::build(4, 6, |ue, rb| 100.0 + (ue * 7 + rb * 3) as f64);
        let avg = vec![50.0, 80.0, 120.0, 60.0];
        let inp = input(&rates, &avg, 1, 2, 6);
        let mut blu = SpeculativeScheduler::new(&acc);
        let mut pf = PfScheduler;
        let sb = blu.schedule(&inp);
        let sp = pf.schedule(&inp);
        assert_eq!(sb, sp);
    }

    #[test]
    fn overschedules_interference_diverse_clients() {
        // Clients 0 and 1 are blocked by *different* HTs half the
        // time: over-scheduling both on the same RB nearly doubles
        // expected utilization. Client 2 shares client 0's HT.
        // q = 0.7: blocking severe enough that over-scheduling a
        // diverse pair strictly beats a single client (at q = 0.5 the
        // two choices tie exactly and BLU correctly declines).
        let topo = InterferenceTopology {
            n_clients: 3,
            hts: vec![
                HiddenTerminal {
                    q: 0.7,
                    edges: ClientSet::from_iter([0, 2]),
                },
                HiddenTerminal {
                    q: 0.7,
                    edges: ClientSet::singleton(1),
                },
            ],
        };
        let acc = TopologyAccess::new(&topo);
        let rates = MatrixRates::flat(3, 1, 100.0);
        let avg = vec![10.0; 3];
        let inp = input(&rates, &avg, 1, 2, 1);
        let mut blu = SpeculativeScheduler::new(&acc);
        let sched = blu.schedule(&inp);
        let g = sched.group(0);
        assert_eq!(g.len(), 2, "should over-schedule: {g}");
        // The pair must be interference-diverse (0,1) or (2,1),
        // never the shared-HT pair (0,2).
        assert!(g.contains(1), "{g}");
    }

    #[test]
    fn never_pairs_clients_sharing_a_hidden_terminal() {
        // Only clients 0 and 2 available, both under the same HT:
        // their accesses are perfectly correlated — over-scheduling
        // can only collide. BLU must schedule one.
        let topo = InterferenceTopology {
            n_clients: 2,
            hts: vec![HiddenTerminal {
                q: 0.5,
                edges: ClientSet::from_iter([0, 1]),
            }],
        };
        let acc = TopologyAccess::new(&topo);
        let rates = MatrixRates::flat(2, 1, 100.0);
        let avg = vec![10.0; 2];
        let inp = input(&rates, &avg, 1, 2, 1);
        let mut blu = SpeculativeScheduler::new(&acc);
        let sched = blu.schedule(&inp);
        assert_eq!(sched.group(0).len(), 1);
    }

    #[test]
    fn respects_group_cap() {
        // Many perfectly-diverse clients: group must stop at f·M.
        let hts = (0..8)
            .map(|i| HiddenTerminal {
                q: 0.7,
                edges: ClientSet::singleton(i),
            })
            .collect();
        let topo = InterferenceTopology { n_clients: 8, hts };
        let acc = TopologyAccess::new(&topo);
        let rates = MatrixRates::flat(8, 1, 100.0);
        let avg = vec![10.0; 8];
        let inp = input(&rates, &avg, 2, 4, 1);
        let mut blu = SpeculativeScheduler::new(&acc);
        let sched = blu.schedule(&inp);
        assert!(sched.max_group_size() <= 4);
        assert!(sched.max_group_size() > 2, "should over-schedule past M");
    }

    #[test]
    fn expected_utility_example_from_paper() {
        // The paper's SISO example: s₂ is over-scheduled only if
        // P(s₂,s̄₁)·w₂ + P(s̄₂,s₁)·w₁ > P(s₁)·w₁.
        let topo = InterferenceTopology {
            n_clients: 2,
            hts: vec![
                HiddenTerminal {
                    q: 0.4,
                    edges: ClientSet::singleton(0),
                },
                HiddenTerminal {
                    q: 0.4,
                    edges: ClientSet::singleton(1),
                },
            ],
        };
        let acc = TopologyAccess::new(&topo);
        let rates = MatrixRates::flat(2, 1, 100.0);
        let avg = vec![10.0; 2];
        let inp = input(&rates, &avg, 1, 2, 1);
        let blu = SpeculativeScheduler::new(&acc);
        let _w = 100.0 / 10.0;
        // E({0}) = p(0)·w = 0.6·10 = 6.
        let e1 = blu
            .expected_utility(&inp, 0, ClientSet::singleton(0))
            .unwrap();
        assert!((e1 - 6.0).abs() < 1e-9, "{e1}");
        // E({0,1}) = P(0, 1̄)·w + P(0̄, 1)·w = 0.6·0.4·10 ×2 = 4.8.
        // (Both transmitting is a SISO collision: no utility.)
        let e2 = blu
            .expected_utility(&inp, 0, ClientSet::from_iter([0, 1]))
            .unwrap();
        assert!((e2 - 4.8).abs() < 1e-9, "{e2}");
        // 4.8 < 6 → this pair must NOT be over-scheduled at q = 0.4…
        let mut sched = SpeculativeScheduler::new(&acc);
        let s = sched.schedule(&inp);
        assert_eq!(s.group(0).len(), 1);
        // …but at q = 0.6 blocking (p = 0.4):
        // E({0}) = 4, E({0,1}) = 2·(0.4·0.6·10) = 4.8 > 4 → pair.
        let topo2 = InterferenceTopology {
            n_clients: 2,
            hts: vec![
                HiddenTerminal {
                    q: 0.6,
                    edges: ClientSet::singleton(0),
                },
                HiddenTerminal {
                    q: 0.6,
                    edges: ClientSet::singleton(1),
                },
            ],
        };
        let acc2 = TopologyAccess::new(&topo2);
        let mut sched2 = SpeculativeScheduler::new(&acc2);
        let s2 = sched2.schedule(&inp);
        assert_eq!(s2.group(0).len(), 2);
    }

    #[test]
    fn mumimo_expected_utility_counts_up_to_m_streams() {
        let topo = InterferenceTopology::interference_free(2);
        let acc = TopologyAccess::new(&topo);
        let rates = MatrixRates::flat(2, 1, 100.0);
        let avg = vec![10.0; 2];
        let inp = input(&rates, &avg, 2, 4, 1);
        let blu = SpeculativeScheduler::new(&acc);
        // Both always transmit; M = 2 decodes both at penalty 0.5.
        let e = blu
            .expected_utility(&inp, 0, ClientSet::from_iter([0, 1]))
            .unwrap();
        assert!((e - 0.5 * 20.0).abs() < 1e-9);
    }

    #[test]
    fn rb_never_left_empty_when_clients_exist() {
        // A client that never accesses still shouldn't leave RBs
        // unallocated (the paper allocates every RB; spectral
        // resources are never intentionally wasted).
        let topo = InterferenceTopology {
            n_clients: 1,
            hts: vec![HiddenTerminal {
                q: 1.0,
                edges: ClientSet::singleton(0),
            }],
        };
        let acc = TopologyAccess::new(&topo);
        let rates = MatrixRates::flat(1, 2, 100.0);
        let avg = vec![10.0];
        let inp = input(&rates, &avg, 1, 2, 2);
        let mut blu = SpeculativeScheduler::new(&acc);
        let sched = blu.schedule(&inp);
        assert_eq!(sched.occupied_rbs(), 2);
    }

    #[test]
    fn independence_assumption_overschedules_shared_ht_pairs() {
        // Ablation seed: with the independence approximation BLU
        // pairs clients sharing one HT (wrongly) — demonstrating why
        // the joint distribution matters.
        let ind = IndependentAccess::new(vec![0.4, 0.4]).unwrap();
        let rates = MatrixRates::flat(2, 1, 100.0);
        let avg = vec![10.0; 2];
        let inp = input(&rates, &avg, 1, 2, 1);
        let mut blu = SpeculativeScheduler::new(&ind);
        let sched = blu.schedule(&inp);
        // Independence says pairing is worth it (E = 2·0.4·0.6·10 =
        // 4.8 > 4) — but if the truth were a shared HT this collides.
        assert_eq!(sched.group(0).len(), 2);
    }

    #[test]
    fn distribution_error_falls_back_to_pf() {
        // A provider that only knows 2 clients, driven with 3:
        // queries for client 2 error, and the error must route into
        // PF fallback (never panic, never leave RBs empty).
        let ind = IndependentAccess::new(vec![0.5, 0.5]).unwrap();
        let rates = MatrixRates::flat(3, 2, 100.0);
        let avg = vec![10.0; 3];
        let inp = input(&rates, &avg, 1, 2, 2);
        let mut blu = SpeculativeScheduler::new(&ind);
        let sched = blu.schedule(&inp);
        assert_eq!(sched.occupied_rbs(), 2);
    }

    #[test]
    fn warm_scheduler_state_never_leaks_across_subframes() {
        // One pruned instance reused across many sub-frames — its
        // p_ind fill, singleton fast path and distribution memo all
        // warm — must stay bit-identical to a *fresh* exhaustive
        // oracle at every step.
        for seed in 0..10u64 {
            let mut rng = DetRng::seed_from_u64(seed * 31 + 5);
            let topo = InterferenceTopology::random(8, 5, (0.05, 0.9), 0.5, &mut rng);
            let acc = TopologyAccess::new(&topo);
            let m = 1 + (seed % 2) as usize;
            let mut pruned = SpeculativeScheduler::new(&acc);
            for step in 0usize..12 {
                let rates = MatrixRates::build(8, 5, |ue, rb| {
                    if (ue * 7 + rb + step) % 5 == 0 {
                        0.0
                    } else {
                        40.0 + ((ue * 11 + rb * 3 + step * 13) % 83) as f64
                    }
                });
                let avg: Vec<f64> = (0..8)
                    .map(|i| 8.0 + ((i * 19 + step * 7) % 31) as f64)
                    .collect();
                let inp = input(&rates, &avg, m, 2 * m, 5);
                let mut exact = SpeculativeScheduler::exhaustive(&acc);
                let a = pruned.schedule(&inp);
                let b = exact.schedule(&inp);
                assert_eq!(a, b, "seed {seed} step {step}: warm state diverged");
            }
        }
    }

    #[test]
    fn flat_path_matches_exhaustive_on_random_geometries() {
        // max_group = 2 with a dense matrix and K ≥ N routes the
        // pruned scheduler through `schedule_flat` (the vectorized
        // whole-sub-frame builder); M ∈ {1, 2} exercises both the
        // collision-zeroed and the penalty-weighted pair terms. The
        // schedules must be bit-identical to the exhaustive per-RB
        // oracle, including RBs where weights go to zero (PF
        // fallback) and sub-frames where avg throughputs shift.
        for seed in 0..24u64 {
            let mut rng = DetRng::seed_from_u64(seed * 101 + 17);
            let topo = InterferenceTopology::random(7, 4, (0.05, 0.95), 0.6, &mut rng);
            let acc = TopologyAccess::new(&topo);
            let m = 1 + (seed % 2) as usize;
            let mut flat = SpeculativeScheduler::new(&acc);
            for step in 0usize..6 {
                let rates = MatrixRates::build(7, 9, |ue, rb| {
                    if (ue * 5 + rb * 3 + step) % 7 == 0 {
                        0.0
                    } else {
                        30.0 + ((ue * 13 + rb * 11 + step * 5) % 71) as f64
                    }
                });
                let avg: Vec<f64> = (0..7)
                    .map(|i| 5.0 + ((i * 23 + step * 9) % 41) as f64)
                    .collect();
                let inp = SchedInput {
                    n_clients: 7,
                    n_rbs: 9,
                    m_antennas: m,
                    k_max: 7, // == N: budget provably can't bind
                    max_group: 2,
                    rates: &rates,
                    avg_tput: &avg,
                };
                assert!(flat.flat_path_applies(&inp));
                let mut exact = SpeculativeScheduler::exhaustive(&acc);
                let a = flat.schedule(&inp);
                let b = exact.schedule(&inp);
                assert_eq!(a, b, "seed {seed} step {step} m {m}: flat diverged");
            }
        }
    }

    #[test]
    fn pruned_matches_exhaustive_on_random_topologies() {
        // The bound E(G∪ℓ) ≤ E(G) + p(ℓ)·w(ℓ) is admissible, and both
        // paths share one float kernel — schedules must be
        // bit-identical, not merely equal in utility.
        for seed in 0..30u64 {
            let mut rng = DetRng::seed_from_u64(seed);
            let topo = InterferenceTopology::random(8, 5, (0.05, 0.9), 0.5, &mut rng);
            let acc = TopologyAccess::new(&topo);
            let rates = MatrixRates::build(8, 5, |ue, rb| {
                50.0 + ((ue * 13 + rb * 7 + seed as usize * 3) % 97) as f64
            });
            let avg: Vec<f64> = (0..8).map(|i| 10.0 + (i * 17 % 29) as f64).collect();
            let m = 1 + (seed % 2) as usize;
            let inp = input(&rates, &avg, m, 2 * m, 5);
            let mut pruned = SpeculativeScheduler::new(&acc);
            let mut exact = SpeculativeScheduler::exhaustive(&acc);
            assert!(pruned.pruning_enabled());
            assert!(!exact.pruning_enabled());
            let a = pruned.schedule(&inp);
            let b = exact.schedule(&inp);
            assert_eq!(a, b, "seed {seed}: pruned and exhaustive diverged");
        }
    }
}
