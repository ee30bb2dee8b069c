//! Fleet-level blueprint cache with delayed-hit coalescing.
//!
//! At fleet scale many cells see near-identical interference
//! topologies — stochastic-geometry models of unlicensed coexistence
//! predict exactly this clustering of geometry classes and
//! hidden-terminal counts — yet each cell pays the full ~1.5 ms
//! inference solve even when a neighbouring cell just solved the same
//! problem. This module amortizes that work across the fleet:
//!
//! * [`TopologySignature`] canonicalizes a [`ConstraintSystem`] into a
//!   labeling-independent byte string (WL-style invariant refinement
//!   over UE labels, deterministic tie-break) and hashes it together
//!   with the [`InferenceConfig`] and backend identity/seed into a
//!   stable `u128` key. The permutation that produced the canonical
//!   labeling is kept so a cached result can be mapped back into the
//!   requesting cell's own labels.
//! * [`FleetBlueprintCache`] is a bounded, `Send + Sync` cache over
//!   the shared [`LruCore`](crate::runtime::lru::LruCore) whose
//!   entries move `Vacant → InFlight → Ready`: the first cell to miss
//!   on a signature becomes the *owner* and solves; cells that miss
//!   while the solve is in flight **park on a condvar** and are woken
//!   with the shared result (a *delayed hit*) instead of duplicating
//!   the solve — single-flight per signature across the whole fleet.
//!
//! ## Determinism contract
//!
//! A hit whose requester has the same canonical permutation as the
//! entry's first-seen representative (the overwhelmingly common case:
//! re-measurement storms, repeated topology classes, stall repeats)
//! returns a **clone of the representative's solve**, which is
//! byte-identical to what the requester's own fresh solve would have
//! produced, because the two systems are byte-identical under the
//! shared canonical form and the solvers are deterministic. This is
//! pinned by differential tests here and in
//! `tests/fleetcache_proptest.rs`. Before serving any hit the
//! requester's canonical bytes are compared **byte-exactly** against
//! the entry's; a mismatch (hash collision, or WL-indistinguishable
//! but non-identical systems) falls back to an uncached fresh solve,
//! counted as a [`FleetCacheEvent::Bypass`] — the cache can therefore
//! never serve a wrong blueprint. With the cache disabled (`None`
//! handles everywhere) no code path changes, pinned by the existing
//! engine goldens.

use crate::blueprint::constraints::ConstraintSystem;
use crate::blueprint::infer::{InferenceConfig, InferenceResult};
use crate::blueprint::InferenceBackend;
use crate::runtime::deadline::Deadline;
use crate::runtime::lru::LruCore;
use blu_sim::clientset::ClientSet;
use blu_traces::stats::pair_index;
use serde::Serialize;
use std::collections::HashSet;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Default number of blueprints kept resident per fleet cache: one
/// slot per plausible geometry class in a large fleet.
pub const DEFAULT_FLEET_CACHE_CAPACITY: usize = 256;

// ---------------------------------------------------------------------------
// Canonical topology signature
// ---------------------------------------------------------------------------

/// 128-bit FNV-1a over `bytes` — no external hash dependency, stable
/// across runs, platforms and process restarts.
fn fnv1a_128(bytes: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013B;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Assign dense class ids to UEs by their invariant byte strings.
/// Equal invariants share an id; ids are ordered by the invariant's
/// lexicographic rank, so they are independent of UE labeling.
fn classes_of(inv: &[Vec<u8>]) -> (Vec<usize>, usize) {
    let mut sorted: Vec<&Vec<u8>> = inv.iter().collect();
    sorted.sort();
    sorted.dedup();
    let ids = inv
        .iter()
        .map(|v| sorted.binary_search(&v).expect("own invariant present"))
        .collect();
    let n_classes = sorted.len();
    (ids, n_classes)
}

/// Pair target bits for UEs `i`, `j` in either order.
fn pair_bits(sys: &ConstraintSystem, i: usize, j: usize) -> u64 {
    let (a, b) = if i < j { (i, j) } else { (j, i) };
    sys.pair[pair_index(sys.n, a, b)].to_bits()
}

/// Compute the canonical UE ordering of `sys` by Weisfeiler–Lehman
/// style invariant refinement. Returns `to_canon`: `to_canon[i]` is
/// the canonical slot of original UE `i`.
///
/// Round 0 distinguishes UEs by their own target, the multiset of
/// incident pair targets, and the multiset of incident triple
/// targets; each subsequent round folds in the neighbour classes of
/// the previous round, until the partition stops refining (at most
/// `n` rounds). The final order sorts by `(class, original index)`:
/// for truly symmetric (automorphic) UEs either order yields the same
/// canonical bytes, so the tie-break cannot break label invariance.
fn canonical_order(sys: &ConstraintSystem) -> Vec<usize> {
    let n = sys.n;
    if n == 0 {
        return Vec::new();
    }
    // Round-0 invariants.
    let inv: Vec<Vec<u8>> = (0..n)
        .map(|i| {
            let mut b = Vec::new();
            b.extend_from_slice(&sys.individual[i].to_bits().to_le_bytes());
            let mut pairs: Vec<u64> = (0..n)
                .filter(|&j| j != i)
                .map(|j| pair_bits(sys, i, j))
                .collect();
            pairs.sort_unstable();
            for p in pairs {
                b.extend_from_slice(&p.to_le_bytes());
            }
            let mut tris: Vec<u64> = sys
                .triples
                .iter()
                .filter(|t| t.clients.0 == i || t.clients.1 == i || t.clients.2 == i)
                .map(|t| t.target.to_bits())
                .collect();
            tris.sort_unstable();
            for t in tris {
                b.extend_from_slice(&t.to_le_bytes());
            }
            b
        })
        .collect();
    let (mut classes, mut n_classes) = classes_of(&inv);
    for _ in 0..n {
        if n_classes == n {
            break; // fully discrete: no further refinement possible
        }
        let refined: Vec<Vec<u8>> = (0..n)
            .map(|i| {
                let mut b = Vec::new();
                b.extend_from_slice(&(classes[i] as u64).to_le_bytes());
                let mut pairs: Vec<(u64, u64)> = (0..n)
                    .filter(|&j| j != i)
                    .map(|j| (classes[j] as u64, pair_bits(sys, i, j)))
                    .collect();
                pairs.sort_unstable();
                for (c, p) in pairs {
                    b.extend_from_slice(&c.to_le_bytes());
                    b.extend_from_slice(&p.to_le_bytes());
                }
                let mut tris: Vec<(u64, u64, u64)> = sys
                    .triples
                    .iter()
                    .filter(|t| t.clients.0 == i || t.clients.1 == i || t.clients.2 == i)
                    .map(|t| {
                        let others: Vec<usize> = [t.clients.0, t.clients.1, t.clients.2]
                            .into_iter()
                            .filter(|&c| c != i)
                            .collect();
                        let (mut x, mut y) = (
                            classes[others[0]] as u64,
                            classes[others.get(1).copied().unwrap_or(others[0])] as u64,
                        );
                        if x > y {
                            std::mem::swap(&mut x, &mut y);
                        }
                        (t.target.to_bits(), x, y)
                    })
                    .collect();
                tris.sort_unstable();
                for (t, x, y) in tris {
                    b.extend_from_slice(&t.to_le_bytes());
                    b.extend_from_slice(&x.to_le_bytes());
                    b.extend_from_slice(&y.to_le_bytes());
                }
                b
            })
            .collect();
        let (new_classes, new_count) = classes_of(&refined);
        let stable = new_count == n_classes;
        classes = new_classes;
        n_classes = new_count;
        if stable {
            break;
        }
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (classes[i], i));
    let mut to_canon = vec![0usize; n];
    for (slot, &i) in order.iter().enumerate() {
        to_canon[i] = slot;
    }
    to_canon
}

/// Serialize `sys` under the canonical labeling, followed by the
/// inference configuration and backend identity — the exact byte
/// string two requests must share to be served from one entry.
fn canonical_bytes(
    sys: &ConstraintSystem,
    to_canon: &[usize],
    config: &InferenceConfig,
    backend: &InferenceBackend,
) -> Vec<u8> {
    let n = sys.n;
    let mut from_canon = vec![0usize; n];
    for (i, &slot) in to_canon.iter().enumerate() {
        from_canon[slot] = i;
    }
    let mut b = Vec::with_capacity(16 + 8 * (n + n * n / 2 + 4 * sys.triples.len()) + 64);
    b.extend_from_slice(&(n as u64).to_le_bytes());
    for &orig in &from_canon {
        b.extend_from_slice(&sys.individual[orig].to_bits().to_le_bytes());
    }
    for a in 0..n {
        for c in (a + 1)..n {
            b.extend_from_slice(&pair_bits(sys, from_canon[a], from_canon[c]).to_le_bytes());
        }
    }
    let mut tris: Vec<([usize; 3], u64)> = sys
        .triples
        .iter()
        .map(|t| {
            let mut cl = [
                to_canon[t.clients.0],
                to_canon[t.clients.1],
                to_canon[t.clients.2],
            ];
            cl.sort_unstable();
            (cl, t.target.to_bits())
        })
        .collect();
    tris.sort_unstable();
    b.extend_from_slice(&(tris.len() as u64).to_le_bytes());
    for (cl, bits) in tris {
        for c in cl {
            b.extend_from_slice(&(c as u64).to_le_bytes());
        }
        b.extend_from_slice(&bits.to_le_bytes());
    }
    // Inference configuration: any knob that changes the solve output
    // must split the key.
    b.extend_from_slice(&(config.max_iters as u64).to_le_bytes());
    b.extend_from_slice(&config.epsilon.to_bits().to_le_bytes());
    b.extend_from_slice(&(config.random_restarts as u64).to_le_bytes());
    b.push(config.refine_weights as u8);
    b.extend_from_slice(&config.accept_residual.to_bits().to_le_bytes());
    b.extend_from_slice(&config.degraded_residual.to_bits().to_le_bytes());
    match config.deadline {
        Deadline::None => b.push(0),
        Deadline::Steps(s) => {
            b.push(1);
            b.extend_from_slice(&s.to_le_bytes());
        }
        Deadline::Wall(d) => {
            b.push(2);
            b.extend_from_slice(&d.as_nanos().to_le_bytes());
        }
    }
    match backend {
        InferenceBackend::Gradient => b.push(0),
        InferenceBackend::Mcmc { config: mc, seed } => {
            b.push(1);
            b.extend_from_slice(&(mc.steps as u64).to_le_bytes());
            b.extend_from_slice(&mc.t_start.to_bits().to_le_bytes());
            b.extend_from_slice(&mc.t_end.to_bits().to_le_bytes());
            b.extend_from_slice(&(mc.max_hts as u64).to_le_bytes());
            b.extend_from_slice(&mc.ht_penalty.to_bits().to_le_bytes());
            b.extend_from_slice(&seed.to_le_bytes());
        }
    }
    b
}

/// Canonical, labeling-independent identity of one inference request:
/// the constraint system up to UE relabeling, plus the configuration
/// and backend that will solve it.
#[derive(Debug, Clone)]
pub struct TopologySignature {
    key: u128,
    to_canon: Vec<usize>,
    canon_bytes: Vec<u8>,
}

impl TopologySignature {
    /// Canonicalize and hash one inference request.
    pub fn new(
        sys: &ConstraintSystem,
        config: &InferenceConfig,
        backend: &InferenceBackend,
    ) -> Self {
        let to_canon = canonical_order(sys);
        let canon_bytes = canonical_bytes(sys, &to_canon, config, backend);
        TopologySignature {
            key: fnv1a_128(&canon_bytes),
            to_canon,
            canon_bytes,
        }
    }

    /// The stable 128-bit cache key.
    pub fn key(&self) -> u128 {
        self.key
    }

    /// The canonical permutation: `to_canon()[i]` is the canonical
    /// slot of this cell's UE `i`.
    pub fn to_canon(&self) -> &[usize] {
        &self.to_canon
    }
}

/// Relabel a constraint system: UE `i` becomes UE `perm[i]`. Pair and
/// triple targets move with their endpoints. Used by the
/// permutation-invariance tests; `perm` must be a permutation of
/// `0..sys.n`.
pub fn relabel_system(sys: &ConstraintSystem, perm: &[usize]) -> ConstraintSystem {
    let n = sys.n;
    assert_eq!(perm.len(), n, "permutation arity mismatch");
    let mut individual = vec![0.0; n];
    for i in 0..n {
        individual[perm[i]] = sys.individual[i];
    }
    let mut pair = vec![0.0; sys.pair.len()];
    for i in 0..n {
        for j in (i + 1)..n {
            let (a, b) = if perm[i] < perm[j] {
                (perm[i], perm[j])
            } else {
                (perm[j], perm[i])
            };
            pair[pair_index(n, a, b)] = sys.pair[pair_index(n, i, j)];
        }
    }
    let triples = sys
        .triples
        .iter()
        .map(|t| {
            let mut cl = [perm[t.clients.0], perm[t.clients.1], perm[t.clients.2]];
            cl.sort_unstable();
            crate::blueprint::constraints::TripleConstraint {
                clients: (cl[0], cl[1], cl[2]),
                target: t.target,
            }
        })
        .collect();
    ConstraintSystem {
        n,
        individual,
        pair,
        triples,
    }
}

// ---------------------------------------------------------------------------
// The fleet cache
// ---------------------------------------------------------------------------

/// What one lookup did — surfaced per inference through the
/// [`SubframeObserver`](crate::engine::SubframeObserver) seam.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetCacheEvent {
    /// Served from a ready entry without waiting.
    Hit,
    /// Parked on an in-flight entry and woken with the shared result.
    DelayedHit,
    /// Cold signature: this request performed the solve and published
    /// the entry.
    Miss,
    /// Key matched but canonical bytes differed (hash collision or
    /// WL-indistinguishable non-identical systems): solved fresh,
    /// uncached, so correctness never depends on the hash.
    Bypass,
}

/// Counters of one fleet cache, snapshotted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct FleetCacheStats {
    /// Lookups served from a ready entry without waiting.
    pub hits: u64,
    /// Lookups that parked on an in-flight solve and shared its
    /// result.
    pub delayed_hits: u64,
    /// Lookups that performed the solve (including retries after an
    /// owner failed).
    pub misses: u64,
    /// Lookups that matched on key but not on canonical bytes and
    /// solved fresh, uncached.
    pub bypasses: u64,
    /// Ready entries evicted to make room.
    pub evictions: u64,
}

impl FleetCacheStats {
    /// Total lookups observed.
    pub fn lookups(&self) -> u64 {
        self.hits + self.delayed_hits + self.misses + self.bypasses
    }

    /// Fraction of lookups that skipped a solve — the
    /// `fleet_infer_work_saved` metric (0 when no lookups were made).
    pub fn work_saved(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            (self.hits + self.delayed_hits) as f64 / total as f64
        }
    }
}

/// One ready entry: the first-seen representative's canonical bytes
/// and permutation, plus its solve.
struct CachedBlueprint {
    canon_bytes: Vec<u8>,
    to_canon: Vec<usize>,
    result: InferenceResult,
}

struct FleetState {
    ready: LruCore<Arc<CachedBlueprint>>,
    /// Signatures currently being solved by an owner. Kept **outside**
    /// the LRU so eviction pressure can never orphan waiters.
    inflight: HashSet<u128>,
    stats: FleetCacheStats,
}

/// Bounded, shared, single-flight blueprint cache. `Send + Sync`;
/// one instance is shared by every cell of a fleet (and across
/// supervised restarts).
pub struct FleetBlueprintCache {
    state: Mutex<FleetState>,
    cv: Condvar,
    capacity: usize,
}

impl std::fmt::Debug for FleetBlueprintCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.lock();
        f.debug_struct("FleetBlueprintCache")
            .field("capacity", &self.capacity)
            .field("len", &st.ready.len())
            .field("stats", &st.stats)
            .finish()
    }
}

/// Removes the in-flight marker and wakes waiters if the owner's
/// solve panics, so a waiter can claim the flight instead of parking
/// forever.
struct FlightGuard<'a> {
    cache: &'a FleetBlueprintCache,
    key: u128,
    armed: bool,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            let mut st = self.cache.lock();
            st.inflight.remove(&self.key);
            drop(st);
            self.cache.cv.notify_all();
        }
    }
}

impl FleetBlueprintCache {
    /// New cache holding at most `capacity` ready blueprints
    /// (`capacity` is clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        FleetBlueprintCache {
            state: Mutex::new(FleetState {
                ready: LruCore::new(capacity),
                inflight: HashSet::new(),
                stats: FleetCacheStats::default(),
            }),
            cv: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The configured bound on ready entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of ready blueprints currently resident.
    pub fn len(&self) -> usize {
        self.lock().ready.len()
    }

    /// Whether no blueprints are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> FleetCacheStats {
        self.lock().stats
    }

    /// Lock the state, recovering from poisoning: the solve closure
    /// runs outside the lock, so a poisoned mutex can only mean a
    /// panic inside trivial bookkeeping — the counters and map are
    /// still structurally sound.
    fn lock(&self) -> MutexGuard<'_, FleetState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Fetch the blueprint for `sig`, solving at most once per
    /// signature across all concurrent callers.
    ///
    /// * ready entry with byte-identical canonical form → clone,
    ///   mapped into the requester's labels ([`FleetCacheEvent::Hit`],
    ///   or [`FleetCacheEvent::DelayedHit`] if this caller parked on
    ///   an in-flight solve first);
    /// * signature in flight → park on the condvar until the owner
    ///   publishes (or fails, in which case one waiter claims the
    ///   flight);
    /// * vacant → this caller becomes the owner: `solve` runs
    ///   **outside** the lock, the entry is published, and all
    ///   waiters wake ([`FleetCacheEvent::Miss`]);
    /// * key collision (canonical bytes differ) → `solve` runs fresh
    ///   and nothing is cached ([`FleetCacheEvent::Bypass`]).
    ///
    /// A panic in `solve` unwinds through to the caller, but the
    /// owner's [`FlightGuard`] clears the in-flight marker on the way
    /// out, so waiters never deadlock on a dead owner: one of them
    /// claims the flight and solves.
    pub fn get_or_solve(
        &self,
        sig: &TopologySignature,
        solve: impl FnOnce() -> InferenceResult,
    ) -> (InferenceResult, FleetCacheEvent) {
        let mut waited = false;
        let mut st = self.lock();
        loop {
            if let Some(entry) = st.ready.peek_bump(sig.key) {
                if entry.canon_bytes == sig.canon_bytes {
                    let event = if waited {
                        st.stats.delayed_hits += 1;
                        FleetCacheEvent::DelayedHit
                    } else {
                        st.stats.hits += 1;
                        FleetCacheEvent::Hit
                    };
                    drop(st);
                    return (map_into_requester_labels(&entry, sig), event);
                }
                st.stats.bypasses += 1;
                drop(st);
                return (solve(), FleetCacheEvent::Bypass);
            }
            if st.inflight.contains(&sig.key) {
                waited = true;
                st = self.cv.wait(st).unwrap_or_else(|p| p.into_inner());
                continue;
            }
            st.inflight.insert(sig.key);
            st.stats.misses += 1;
            break;
        }
        drop(st);
        let mut guard = FlightGuard {
            cache: self,
            key: sig.key,
            armed: true,
        };
        let result = solve(); // FlightGuard cleans up on panic
        let entry = Arc::new(CachedBlueprint {
            canon_bytes: sig.canon_bytes.clone(),
            to_canon: sig.to_canon.clone(),
            result: result.clone(),
        });
        let mut st = self.lock();
        st.inflight.remove(&sig.key);
        let evictions_before = st.ready.evictions();
        st.ready.insert(sig.key, entry);
        st.stats.evictions += st.ready.evictions() - evictions_before;
        drop(st);
        guard.armed = false;
        self.cv.notify_all();
        (result, FleetCacheEvent::Miss)
    }
}

/// Map a cached result into the requester's UE labels. When the
/// requester's canonical permutation equals the representative's, the
/// labelings agree and the representative's solve is returned
/// verbatim — byte-identical to the requester's own fresh solve.
/// Otherwise hidden-terminal edge sets are pushed through
/// `σ = req_from_canon ∘ rep_to_canon` and re-sorted deterministically
/// (probabilities and scalar diagnostics are label-free and move
/// unchanged).
fn map_into_requester_labels(entry: &CachedBlueprint, sig: &TopologySignature) -> InferenceResult {
    if entry.to_canon == sig.to_canon {
        return entry.result.clone();
    }
    let n = sig.to_canon.len();
    let mut req_from_canon = vec![0usize; n];
    for (req, &slot) in sig.to_canon.iter().enumerate() {
        req_from_canon[slot] = req;
    }
    let mut result = entry.result.clone();
    for ht in result.topology.hts.iter_mut() {
        let mut mapped = ClientSet(0);
        for a in ht.edges.iter() {
            mapped.insert(req_from_canon[entry.to_canon[a]]);
        }
        ht.edges = mapped;
    }
    result
        .topology
        .hts
        .sort_by_key(|ht| (ht.edges.0, ht.q.to_bits()));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    fn small_system(salt: u64) -> ConstraintSystem {
        // Deterministic, mildly-noisy 4-UE system; `salt` perturbs the
        // targets so distinct salts give distinct signatures.
        let n = 4;
        let jitter = |k: u64| ((salt.wrapping_mul(31).wrapping_add(k) % 97) as f64) * 1e-4;
        let individual: Vec<f64> = (0..n)
            .map(|i| 0.55 + 0.08 * i as f64 + jitter(i as u64))
            .collect();
        let mut pair = vec![0.0; blu_traces::stats::n_pairs(n)];
        for i in 0..n {
            for j in (i + 1)..n {
                pair[pair_index(n, i, j)] =
                    (individual[i] * individual[j] * (0.9 + jitter((i * n + j) as u64))).min(1.0);
            }
        }
        ConstraintSystem {
            n,
            individual,
            pair,
            triples: Vec::new(),
        }
    }

    fn assert_results_bit_identical(a: &InferenceResult, b: &InferenceResult) {
        assert_eq!(a.topology.n_clients, b.topology.n_clients);
        assert_eq!(a.topology.hts.len(), b.topology.hts.len());
        for (x, y) in a.topology.hts.iter().zip(&b.topology.hts) {
            assert_eq!(x.edges.0, y.edges.0, "HT edge sets differ");
            assert_eq!(x.q.to_bits(), y.q.to_bits(), "HT probability bits differ");
        }
        assert_eq!(a.violation.to_bits(), b.violation.to_bits());
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.restarts, b.restarts);
        assert_eq!(a.residual_fraction.to_bits(), b.residual_fraction.to_bits());
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.overshoot, b.overshoot);
    }

    #[test]
    fn signature_is_invariant_under_relabeling() {
        let sys = small_system(7);
        let config = InferenceConfig::default();
        let backend = InferenceBackend::default();
        let base = TopologySignature::new(&sys, &config, &backend);
        for perm in [[1usize, 0, 3, 2], [3, 2, 1, 0], [2, 0, 3, 1]] {
            let relabeled = relabel_system(&sys, &perm);
            let sig = TopologySignature::new(&relabeled, &config, &backend);
            assert_eq!(
                sig.key(),
                base.key(),
                "key changed under relabeling {perm:?}"
            );
            assert_eq!(
                sig.canon_bytes, base.canon_bytes,
                "canonical bytes changed under relabeling {perm:?}"
            );
        }
    }

    #[test]
    fn signature_splits_on_config_and_backend() {
        let sys = small_system(7);
        let config = InferenceConfig::default();
        let backend = InferenceBackend::default();
        let base = TopologySignature::new(&sys, &config, &backend);

        let mut other = config;
        other.epsilon *= 2.0;
        assert_ne!(
            TopologySignature::new(&sys, &other, &backend).key(),
            base.key()
        );
        let mcmc = InferenceBackend::Mcmc {
            config: crate::blueprint::McmcConfig::default(),
            seed: 42,
        };
        assert_ne!(
            TopologySignature::new(&sys, &config, &mcmc).key(),
            base.key()
        );
        let sys2 = small_system(8);
        assert_ne!(
            TopologySignature::new(&sys2, &config, &backend).key(),
            base.key()
        );
    }

    #[test]
    fn unpermuted_hit_is_byte_identical_to_fresh_solve() {
        let sys = small_system(3);
        let config = InferenceConfig::default();
        let backend = InferenceBackend::default();
        let fresh = backend.infer(&sys, &config);

        let cache = FleetBlueprintCache::new(8);
        let sig = TopologySignature::new(&sys, &config, &backend);
        let (first, ev1) = cache.get_or_solve(&sig, || backend.infer(&sys, &config));
        assert_eq!(ev1, FleetCacheEvent::Miss);
        let (second, ev2) = cache.get_or_solve(&sig, || panic!("hit must not re-solve"));
        assert_eq!(ev2, FleetCacheEvent::Hit);
        assert_results_bit_identical(&first, &fresh);
        assert_results_bit_identical(&second, &fresh);
        let s = cache.stats();
        assert_eq!((s.misses, s.hits, s.delayed_hits, s.bypasses), (1, 1, 0, 0));
    }

    #[test]
    fn key_collision_bypasses_instead_of_serving_wrong_entry() {
        let sys = small_system(3);
        let config = InferenceConfig::default();
        let backend = InferenceBackend::default();
        let sig = TopologySignature::new(&sys, &config, &backend);
        let cache = FleetBlueprintCache::new(8);
        cache.get_or_solve(&sig, || backend.infer(&sys, &config));

        // Forge a signature with the same key but different canonical
        // bytes — exactly what a 128-bit hash collision would produce.
        let mut forged = sig.clone();
        forged.canon_bytes.push(0xFF);
        let solved = AtomicUsize::new(0);
        let (_, ev) = cache.get_or_solve(&forged, || {
            solved.fetch_add(1, Ordering::SeqCst);
            backend.infer(&sys, &config)
        });
        assert_eq!(ev, FleetCacheEvent::Bypass);
        assert_eq!(solved.load(Ordering::SeqCst), 1, "bypass must solve fresh");
        assert_eq!(cache.stats().bypasses, 1);
        assert_eq!(cache.len(), 1, "bypass must not publish");
    }

    #[test]
    fn racing_threads_on_one_cold_signature_solve_exactly_once() {
        const THREADS: usize = 8;
        let sys = small_system(11);
        let config = InferenceConfig::default();
        let backend = InferenceBackend::default();
        let sig = TopologySignature::new(&sys, &config, &backend);
        let fresh = backend.infer(&sys, &config);

        let cache = FleetBlueprintCache::new(8);
        let solves = AtomicUsize::new(0);
        let barrier = Barrier::new(THREADS);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    barrier.wait();
                    let (result, _) = cache.get_or_solve(&sig, || {
                        solves.fetch_add(1, Ordering::SeqCst);
                        // Hold the flight open long enough that the
                        // other racers park instead of racing past.
                        std::thread::sleep(std::time::Duration::from_millis(100));
                        backend.infer(&sys, &config)
                    });
                    assert_results_bit_identical(&result, &fresh);
                });
            }
        });
        assert_eq!(solves.load(Ordering::SeqCst), 1, "single-flight violated");
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(
            s.hits + s.delayed_hits,
            (THREADS - 1) as u64,
            "every non-owner must be served from the shared solve"
        );
        assert!(
            s.delayed_hits >= 1,
            "with a 100 ms flight and a start barrier at least one racer must park"
        );
    }

    #[test]
    fn owner_failure_wakes_waiters_and_a_retry_succeeds() {
        let sys = small_system(5);
        let config = InferenceConfig::default();
        let backend = InferenceBackend::default();
        let sig = TopologySignature::new(&sys, &config, &backend);
        let cache = FleetBlueprintCache::new(8);
        let attempts = AtomicUsize::new(0);
        let barrier = Barrier::new(2);
        std::thread::scope(|s| {
            let failer = s.spawn(|| {
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cache.get_or_solve(&sig, || {
                        attempts.fetch_add(1, Ordering::SeqCst);
                        barrier.wait(); // waiter is about to park
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        panic!("solver exploded")
                    })
                }));
                let payload = r.expect_err("the owner's panic unwinds to its caller");
                assert_eq!(
                    crate::runtime::panic_message(payload.as_ref()),
                    "solver exploded"
                );
            });
            let waiter = s.spawn(|| {
                barrier.wait();
                let (result, _) = cache.get_or_solve(&sig, || {
                    attempts.fetch_add(1, Ordering::SeqCst);
                    backend.infer(&sys, &config)
                });
                assert_results_bit_identical(&result, &backend.infer(&sys, &config));
            });
            failer.join().unwrap();
            waiter.join().unwrap();
        });
        assert_eq!(
            attempts.load(Ordering::SeqCst),
            2,
            "failed owner plus exactly one retry"
        );
        assert_eq!(cache.len(), 1, "retry must publish");
    }

    #[test]
    fn eviction_is_counted_and_bounded() {
        let config = InferenceConfig::default();
        let backend = InferenceBackend::default();
        let cache = FleetBlueprintCache::new(1);
        for salt in 0..3u64 {
            let sys = small_system(salt);
            let sig = TopologySignature::new(&sys, &config, &backend);
            cache.get_or_solve(&sig, || backend.infer(&sys, &config));
        }
        assert_eq!(cache.len(), 1);
        let s = cache.stats();
        assert_eq!(s.misses, 3);
        assert_eq!(s.evictions, 2);
        assert!(s.work_saved() == 0.0);
    }

    #[test]
    fn permuted_hit_maps_topology_back_into_requester_labels() {
        // A symmetric 3-UE system where relabeling is exact: the
        // cached representative's result must come back with edge
        // sets expressed in the requester's labels.
        let sys = small_system(9);
        let perm = [2usize, 0, 3, 1];
        let relabeled = relabel_system(&sys, &perm);
        let config = InferenceConfig::default();
        let backend = InferenceBackend::default();
        let sig_a = TopologySignature::new(&sys, &config, &backend);
        let sig_b = TopologySignature::new(&relabeled, &config, &backend);
        assert_eq!(sig_a.key(), sig_b.key());

        let cache = FleetBlueprintCache::new(8);
        let (rep, _) = cache.get_or_solve(&sig_a, || backend.infer(&sys, &config));
        let (mapped, ev) = cache.get_or_solve(&sig_b, || {
            panic!("relabeled request must hit the shared entry")
        });
        assert_eq!(ev, FleetCacheEvent::Hit);
        // Label-free scalars move unchanged…
        assert_eq!(mapped.violation.to_bits(), rep.violation.to_bits());
        assert_eq!(mapped.topology.hts.len(), rep.topology.hts.len());
        // …and every mapped edge set is the σ-image of a rep edge set.
        for ht in &mapped.topology.hts {
            let pre_image = ClientSet::from_iter(ht.edges.iter().map(|c| {
                // invert σ: requester label c → rep label
                let slot = sig_b.to_canon()[c];
                sig_a.to_canon().iter().position(|&s| s == slot).unwrap()
            }));
            assert!(
                rep.topology
                    .hts
                    .iter()
                    .any(|r| r.edges.0 == pre_image.0 && r.q.to_bits() == ht.q.to_bits()),
                "mapped HT has no σ-pre-image in the representative solve"
            );
        }
    }
}
