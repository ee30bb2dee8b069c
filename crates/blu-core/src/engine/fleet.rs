//! Sharded fleet execution with per-shard scratch state.
//!
//! [`FleetEngine`] is the one parallel executor: it fans a work list
//! across a chunked [`std::thread::scope`] pool —
//! `min(RAYON_NUM_THREADS | available_parallelism, items)` workers,
//! balanced contiguous chunks, joined in spawn order — so results come
//! back input-ordered and byte-identical to a sequential map.
//! `RAYON_NUM_THREADS` keeps its conventional name because the
//! benchmark harness sets it.
//!
//! Each worker builds one scratch value with `init()` and threads it
//! through every item of its chunk. Callers whose per-item work is
//! allocation-heavy — batch blueprint inference re-allocating
//! residual trackers per cell — amortize those allocations across the
//! shard instead of paying them per item. With `St = ()` the engine
//! is a plain ordered map.

use crate::error::BluError;
use crate::runtime::panic_message;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Number of worker shards for `n_items` items: the configured worker
/// count, never more than one shard per item. Placement (and
/// therefore per-shard scratch reuse boundaries) depends only on
/// these two numbers.
fn shards_for(n_items: usize) -> usize {
    let hw = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    hw.min(n_items).max(1)
}

/// The sharded fleet executor. Stateless; its methods are associated
/// functions so call sites read `FleetEngine::run(..)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetEngine;

impl FleetEngine {
    /// Map `f` over `items` across balanced contiguous shards,
    /// returning results in input order. Each shard calls `init()`
    /// once and passes the resulting scratch to every `f` call of its
    /// chunk.
    ///
    /// Determinism contract: shard boundaries depend only on
    /// `(items.len(), worker count)`, shards are joined in spawn
    /// order, and a single-worker run degenerates to a plain
    /// sequential loop — so a pure, deterministic `f` yields
    /// bit-identical output at any parallelism level.
    pub fn run<T, R, St, I, F>(items: Vec<T>, init: I, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        I: Fn() -> St + Sync,
        F: Fn(&mut St, T) -> R + Sync,
    {
        Self::run_isolated(items, init, f)
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| panic!("fleet shard panicked: {e}")))
            .collect()
    }

    /// [`FleetEngine::run`] with **per-item panic isolation**: a panic
    /// inside `f` is contained at the item boundary and surfaces as
    /// that item's [`BluError::Panicked`] (payload rendered through
    /// [`panic_message`]); every other item — including the rest of
    /// the panicking item's own shard — still produces its result.
    /// The shard scratch is rebuilt with `init()` after a contained
    /// panic, since the unwound `f` may have left it torn.
    ///
    /// The determinism contract of [`FleetEngine::run`] carries over
    /// unchanged: input-ordered results, placement from
    /// `(items.len(), worker count)` only, sequential degeneration at
    /// one worker.
    pub fn run_isolated<T, R, St, I, F>(items: Vec<T>, init: I, f: F) -> Vec<Result<R, BluError>>
    where
        T: Send,
        R: Send,
        I: Fn() -> St + Sync,
        F: Fn(&mut St, T) -> R + Sync,
    {
        let n = items.len();
        let shards = shards_for(n);
        let run_shard = |chunk: Vec<T>| -> Vec<Result<R, BluError>> {
            let mut scratch = init();
            chunk
                .into_iter()
                .map(
                    |x| match catch_unwind(AssertUnwindSafe(|| f(&mut scratch, x))) {
                        Ok(r) => Ok(r),
                        Err(payload) => {
                            // The unwound closure may have left the
                            // shard scratch half-updated — rebuild it
                            // before the next item.
                            scratch = init();
                            Err(BluError::Panicked(panic_message(payload.as_ref())))
                        }
                    },
                )
                .collect()
        };
        if shards <= 1 {
            return run_shard(items);
        }
        // Balanced contiguous chunks: sizes differ by at most one, and
        // boundaries depend only on (n, shards) — never on timing.
        let base = n / shards;
        let extra = n % shards;
        let mut it = items.into_iter();
        let chunks: Vec<Vec<T>> = (0..shards)
            .map(|i| {
                let len = base + usize::from(i < extra);
                it.by_ref().take(len).collect()
            })
            .collect();
        let run_shard = &run_shard;
        std::thread::scope(|s| {
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|chunk| (chunk.len(), s.spawn(move || run_shard(chunk))))
                .collect();
            let mut out = Vec::with_capacity(n);
            for (len, h) in handles {
                // Join in spawn order — the ordered reduction. With
                // `f` panics contained per item, a shard thread can
                // only die in `init()`; that still must not take the
                // other shards' results down, so the whole chunk
                // degrades to per-item `Panicked` errors instead.
                match h.join() {
                    Ok(results) => out.extend(results),
                    Err(payload) => {
                        let e = BluError::Panicked(panic_message(payload.as_ref()));
                        out.extend(std::iter::repeat_n(e, len).map(Err));
                    }
                }
            }
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let got = FleetEngine::run((0..1_000u64).collect(), || (), |_, x| x * 3);
        let want: Vec<u64> = (0..1_000u64).map(|x| x * 3).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn shard_scratch_is_reused_within_a_shard() {
        // Scratch counts the items its shard has seen; every shard
        // must see a contiguous run starting at 1.
        let counts = FleetEngine::run(
            (0..64usize).collect(),
            || 0usize,
            |seen, _| {
                *seen += 1;
                *seen
            },
        );
        assert_eq!(counts.len(), 64);
        assert_eq!(counts[0], 1, "first item of the first shard");
        // Counts only ever step by 1 or reset to 1 at a shard start.
        for w in counts.windows(2) {
            assert!(w[1] == w[0] + 1 || w[1] == 1);
        }
    }

    #[test]
    fn panicking_item_surfaces_as_error_and_spares_the_rest() {
        // Items 7 and 20 panic; every other item — whatever shard it
        // landed on, including the panicking items' own shards — must
        // still produce its result, in input order.
        let got = FleetEngine::run_isolated(
            (0..32u64).collect(),
            || (),
            |_, x| {
                if x == 7 || x == 20 {
                    panic!("boom on {x}");
                }
                x * 2
            },
        );
        assert_eq!(got.len(), 32);
        for (i, r) in got.iter().enumerate() {
            if i == 7 || i == 20 {
                match r {
                    Err(BluError::Panicked(msg)) => {
                        assert!(msg.contains(&format!("boom on {i}")), "{msg}");
                    }
                    other => panic!("item {i}: expected Panicked, got {other:?}"),
                }
            } else {
                assert_eq!(*r, Ok(i as u64 * 2));
            }
        }
    }

    #[test]
    fn shard_scratch_is_rebuilt_after_a_contained_panic() {
        // Every item records itself into the shard scratch *before*
        // item 5 panics mid-update. If the scratch were reused as-is,
        // the item after 5 (in 5's shard) would observe 5's residue;
        // a rebuilt scratch never contains it — and neither does any
        // other shard's, so the assertion is placement-independent.
        let got =
            FleetEngine::run_isolated((0..16usize).collect(), Vec::<usize>::new, |seen, x| {
                seen.push(x);
                if x == 5 {
                    panic!("tearing the scratch");
                }
                seen.clone()
            });
        assert!(matches!(got[5], Err(BluError::Panicked(_))));
        for (i, r) in got.iter().enumerate() {
            if i == 5 {
                continue;
            }
            let seen = r.as_ref().expect("only item 5 panicked");
            assert!(
                !seen.contains(&5),
                "item {i} saw the torn scratch: {seen:?}"
            );
            assert_eq!(*seen.last().unwrap(), i);
        }
    }

    #[test]
    fn plain_run_repanics_on_contained_panic() {
        let caught = std::panic::catch_unwind(|| {
            FleetEngine::run(
                (0..4u32).collect(),
                || (),
                |_, x| {
                    if x == 2 {
                        panic!("original payload");
                    }
                    x
                },
            )
        });
        let payload = caught.expect_err("must propagate the panic");
        let msg = crate::runtime::panic_message(payload.as_ref());
        assert!(msg.contains("original payload"), "{msg}");
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u8> = FleetEngine::run(Vec::<u8>::new(), || (), |_, x| x);
        assert!(empty.is_empty());
        let one = FleetEngine::run(vec![7u8], || (), |_, x| x + 1);
        assert_eq!(one, vec![8]);
    }
}
