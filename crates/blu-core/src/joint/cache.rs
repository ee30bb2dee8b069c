//! Bounded, thread-safe memoization of pattern distributions.
//!
//! The speculative scheduler issues `O(N · fM)` pattern-distribution
//! queries per RB and re-queries the same candidate groups across RBs
//! and sub-frames, so memoization is essential — but the seed's
//! unbounded `RefCell<HashMap<_, Vec<f64>>>` both leaked memory over
//! long runs (every distinct client set ever queried stayed resident
//! forever) and cloned a `2^|w|` vector out of the map on every hit.
//!
//! [`DistributionCache`] fixes both: distributions are stored once as
//! immutable shared slices (`Arc<[f64]>`) and handed out by refcount
//! bump, and the cache is **bounded** with deterministic LRU
//! eviction. The recency/eviction machinery itself lives in the
//! shared [`LruCore`] (the fleet
//! blueprint cache runs on the same core); this wrapper contributes
//! the `Arc<[f64]>` value type and the interior `Mutex` (instead of
//! `RefCell`) that lets providers be `Send + Sync` and shared across
//! the parallel trial fan-out. The extraction is pinned bit-identical
//! to the pre-extraction hand-rolled implementation by the
//! differential test below.

use crate::runtime::lru::{CacheStats, LruCore};
use parking_lot::Mutex;
use std::sync::Arc;

/// Default number of distinct client sets kept resident. The greedy
/// builder's working set is the candidate groups of one cell
/// (`O(N · fM)` per RB, heavily repeated), which fits comfortably;
/// pathological query streams evict instead of growing.
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

/// A bounded LRU-style cache from client-set bitmasks to shared
/// pattern-distribution slices.
pub struct DistributionCache {
    inner: Mutex<LruCore<Arc<[f64]>>>,
    capacity: usize,
}

impl std::fmt::Debug for DistributionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistributionCache")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

impl DistributionCache {
    /// New cache holding at most `capacity` distributions
    /// (`capacity` is clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        DistributionCache {
            inner: Mutex::new(LruCore::new(capacity)),
            capacity: capacity.max(1),
        }
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of distributions currently resident.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss/eviction counters, snapshotted under one short lock.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().stats()
    }

    /// Fetch the distribution for `key`, computing and inserting it on
    /// a miss. Hits bump the entry's recency; misses evict the
    /// least-recently-used entry first when the cache is full. Errors
    /// from `compute` are returned without touching the cache.
    pub fn get_or_insert_with<E>(
        &self,
        key: u128,
        compute: impl FnOnce() -> Result<Arc<[f64]>, E>,
    ) -> Result<Arc<[f64]>, E> {
        self.inner.lock().get_or_insert_with(key, compute)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist_of(v: f64) -> Arc<[f64]> {
        Arc::from(vec![v])
    }

    #[test]
    fn hit_returns_shared_slice_without_recompute() {
        let c = DistributionCache::new(8);
        let a = c.get_or_insert_with::<()>(1, || Ok(dist_of(0.5))).unwrap();
        let b = c
            .get_or_insert_with::<()>(1, || panic!("must not recompute on hit"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hits must share storage");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn bound_is_enforced() {
        let c = DistributionCache::new(4);
        for k in 0..100u128 {
            c.get_or_insert_with::<()>(k, || Ok(dist_of(k as f64)))
                .unwrap();
            assert!(c.len() <= 4, "cache exceeded bound at key {k}");
        }
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn eviction_is_lru_and_deterministic() {
        let c = DistributionCache::new(2);
        c.get_or_insert_with::<()>(1, || Ok(dist_of(1.0))).unwrap();
        c.get_or_insert_with::<()>(2, || Ok(dist_of(2.0))).unwrap();
        // Touch 1 so 2 becomes the LRU victim.
        c.get_or_insert_with::<()>(1, || panic!("hit expected"))
            .unwrap();
        c.get_or_insert_with::<()>(3, || Ok(dist_of(3.0))).unwrap();
        // 1 must still be resident; 2 must have been evicted.
        c.get_or_insert_with::<()>(1, || panic!("1 was evicted"))
            .unwrap();
        let recomputed = std::cell::Cell::new(false);
        c.get_or_insert_with::<()>(2, || {
            recomputed.set(true);
            Ok(dist_of(2.0))
        })
        .unwrap();
        assert!(recomputed.get(), "2 should have been evicted");
    }

    #[test]
    fn compute_error_leaves_cache_untouched() {
        let c = DistributionCache::new(2);
        let r = c.get_or_insert_with(9, || Err("boom"));
        assert_eq!(r.unwrap_err(), "boom");
        assert!(c.is_empty());
    }

    #[test]
    fn capacity_clamped_to_one() {
        let c = DistributionCache::new(0);
        assert_eq!(c.capacity(), 1);
        c.get_or_insert_with::<()>(1, || Ok(dist_of(1.0))).unwrap();
        c.get_or_insert_with::<()>(2, || Ok(dist_of(2.0))).unwrap();
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn shared_across_threads() {
        let c = DistributionCache::new(64);
        std::thread::scope(|s| {
            for t in 0..4u128 {
                let c = &c;
                s.spawn(move || {
                    for k in 0..256u128 {
                        let d = c
                            .get_or_insert_with::<()>(k % 32, || Ok(dist_of((t + k) as f64)))
                            .unwrap();
                        assert_eq!(d.len(), 1);
                    }
                });
            }
        });
        assert!(c.len() <= 32);
    }

    #[test]
    fn stats_snapshot_counts_hits_and_misses() {
        let c = DistributionCache::new(2);
        c.get_or_insert_with::<()>(1, || Ok(dist_of(1.0))).unwrap();
        c.get_or_insert_with::<()>(1, || Ok(dist_of(1.0))).unwrap();
        c.get_or_insert_with::<()>(2, || Ok(dist_of(2.0))).unwrap();
        c.get_or_insert_with::<()>(3, || Ok(dist_of(3.0))).unwrap();
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 3, 1));
        assert!((s.hit_rate() - 0.25).abs() < 1e-12);
    }

    // ------------------------------------------------------------------
    // Differential pin: the shared-core rebuild must reproduce the
    // pre-extraction hand-rolled implementation's eviction order
    // exactly — same resident sets, same hit/miss outcome per call —
    // over a long adversarial call sequence including failed computes.
    // ------------------------------------------------------------------

    /// Verbatim copy of the pre-extraction `DistributionCache`
    /// internals (PR 2), kept as the differential reference.
    mod reference {
        use std::collections::HashMap;
        use std::sync::Arc;

        struct Entry {
            dist: Arc<[f64]>,
            last_used: u64,
        }

        pub struct RefCache {
            map: HashMap<u128, Entry>,
            tick: u64,
            capacity: usize,
        }

        impl RefCache {
            pub fn new(capacity: usize) -> Self {
                RefCache {
                    map: HashMap::new(),
                    tick: 0,
                    capacity: capacity.max(1),
                }
            }

            pub fn resident(&self) -> Vec<u128> {
                let mut keys: Vec<u128> = self.map.keys().copied().collect();
                keys.sort_unstable();
                keys
            }

            pub fn get_or_insert_with<E>(
                &mut self,
                key: u128,
                compute: impl FnOnce() -> Result<Arc<[f64]>, E>,
            ) -> Result<Arc<[f64]>, E> {
                self.tick += 1;
                let tick = self.tick;
                if let Some(e) = self.map.get_mut(&key) {
                    e.last_used = tick;
                    return Ok(e.dist.clone());
                }
                let dist = compute()?;
                if self.map.len() >= self.capacity {
                    if let Some(&victim) = self
                        .map
                        .iter()
                        .min_by_key(|(k, e)| (e.last_used, *k))
                        .map(|(k, _)| k)
                    {
                        self.map.remove(&victim);
                    }
                }
                self.map.insert(
                    key,
                    Entry {
                        dist: dist.clone(),
                        last_used: tick,
                    },
                );
                Ok(dist)
            }
        }
    }

    #[test]
    fn rebuild_matches_pre_extraction_eviction_order_exactly() {
        // Deterministic pseudo-random op stream over a small key space
        // so hits, misses, evictions and re-insertions all occur, plus
        // periodic failed computes that consume ticks without
        // inserting. Residency is never probed directly (a probe would
        // perturb recency); instead every call records whether its
        // compute closure ran. With 2 000 ops over 11 keys, any
        // eviction-order divergence surfaces as a hit/miss divergence
        // within a few steps, so per-call agreement pins the eviction
        // order bit-identically.
        let mut state = 0x9E37_79B9u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u128
        };
        for capacity in [1usize, 2, 3, 7] {
            let new = DistributionCache::new(capacity);
            let mut old = reference::RefCache::new(capacity);
            for step in 0..2_000u64 {
                let key = next() % 11;
                let fail = step % 13 == 5;
                let new_computed = std::cell::Cell::new(false);
                let old_computed = std::cell::Cell::new(false);
                let n = new.get_or_insert_with(key, || {
                    new_computed.set(true);
                    if fail {
                        Err("boom")
                    } else {
                        Ok(dist_of(key as f64))
                    }
                });
                let o = old.get_or_insert_with(key, || {
                    old_computed.set(true);
                    if fail {
                        Err("boom")
                    } else {
                        Ok(dist_of(key as f64))
                    }
                });
                assert_eq!(
                    n.is_ok(),
                    o.is_ok(),
                    "step {step} (cap {capacity}): outcome diverged"
                );
                assert_eq!(
                    new_computed.get(),
                    old_computed.get(),
                    "step {step} (cap {capacity}): hit/miss diverged"
                );
                assert_eq!(
                    new.len(),
                    old.resident().len(),
                    "step {step} (cap {capacity}): resident counts diverged"
                );
            }
        }
    }
}
