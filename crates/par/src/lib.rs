#![warn(missing_docs)]
//! # booters-par
//!
//! Deterministic data parallelism for the simulate→group→fit pipeline:
//! a zero-dependency scoped thread-pool with chunked [`par_map`] /
//! [`par_for_each`] / [`par_map_collect`] and a hard determinism
//! contract. The executor exists so the per-country Table 2 fan-out,
//! netsim packet generation, flow grouping and the intervention-window
//! scan can use every core **without perturbing a single byte** of the
//! seeded artifacts.
//!
//! ## The determinism contract
//!
//! 1. **Submission-order reduction.** Results are merged in the order
//!    items were submitted, never in completion order. Workers tag every
//!    result with its input index; the pool sorts by that index before
//!    returning, so scheduling jitter cannot reorder outputs.
//! 2. **Split RNG streams.** Tasks must never share a sequentially
//!    consumed generator. [`stream_seed`] derives an independent seed per
//!    task index with the testkit's splitmix64, so a seeded simulation
//!    produces byte-identical output at any thread count.
//! 3. **Sequential fallback.** With one thread (or one item) every entry
//!    point degenerates to the plain `iter().map(...)` loop the
//!    pre-executor code ran — no pool, no channels, no reordering.
//!
//! ## Thread-count resolution
//!
//! [`threads`] resolves, in priority order: a scoped [`with_threads`]
//! override on the current thread → the `BOOTERS_THREADS` environment
//! variable (read once per process) → `std::thread::available_parallelism`.
//! Inside a pool worker it always reports 1, so nested calls fall back to
//! the sequential path instead of deadlocking or oversubscribing.
//!
//! ## Small-work cutoff and size-aware scheduling
//!
//! Spawning the pool costs tens of microseconds; a Table 2 fan-out has
//! eight items. Every `par_*` entry point therefore runs sequentially
//! when the batch has fewer than [`min_items`] items (default 16),
//! resolved as: a scoped [`with_min_items`] override → the
//! `BOOTERS_PAR_MIN_ITEMS` environment variable (read once per process)
//! → 16. Above the cutoff, worker count is *size-aware*: at most one
//! worker per [`min_items`] items is spawned, so a batch barely past the
//! cutoff gets two threads, not eight two-item ones — and the implied
//! chunk size never drops below `min_items / CHUNKS_PER_WORKER`.
//! Because the sequential path is already part of the determinism
//! contract (point 3), neither the cutoff nor the worker cap can ever
//! change a result — only when and how many threads are spawned. Set
//! `BOOTERS_PAR_MIN_ITEMS=1` to disable both.
//!
//! Batches of *few but individually heavy* items (decoding store chunks,
//! grouping per-shard packet buckets) are the one shape the item-count
//! cutoff misjudges; [`par_map_coarse`] is the entry point for them — no
//! item-count cutoff, one item per scheduling unit.
//!
//! ## Kernel selection
//!
//! The crate also hosts the workspace's runtime switch between optimized
//! byte-level kernels and their scalar reference oracles
//! ([`scalar_kernels`] / [`with_scalar_kernels`] /
//! `BOOTERS_SCALAR_KERNELS`) — see the [`mod@kernels`] module docs.

pub mod kernels;
mod pool;
mod seed;

pub use kernels::{scalar_kernels, with_scalar_kernels};
pub use pool::{par_for_each, par_map, par_map_coarse, par_map_collect, par_map_indexed};
pub use seed::stream_seed;

use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    /// Scoped per-thread override installed by [`with_threads`].
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Scoped per-thread override installed by [`with_min_items`].
    static MIN_ITEMS_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Set on pool worker threads so nested parallelism degrades to the
    /// sequential path.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Default sequential cutoff: batches smaller than this never spawn the
/// pool. Chosen so the pipeline's eight-country and six-candidate
/// fan-outs (whose per-item work is dwarfed by pool spawn cost at small
/// n) stay sequential while real data-parallel sweeps are unaffected.
const DEFAULT_MIN_ITEMS: usize = 16;

/// Parse a `BOOTERS_THREADS` value; non-numeric input is ignored and 0 is
/// clamped to 1 (the sequential path).
fn parse_threads(v: &str) -> Option<usize> {
    v.trim().parse::<usize>().ok().map(|n| n.max(1))
}

/// Process-wide configured thread count: `BOOTERS_THREADS` if set (read
/// once), otherwise the hardware parallelism.
fn configured_threads() -> usize {
    static CONFIGURED: OnceLock<usize> = OnceLock::new();
    *CONFIGURED.get_or_init(|| {
        std::env::var("BOOTERS_THREADS")
            .ok()
            .and_then(|v| parse_threads(&v))
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// The machine's hardware parallelism (cached `available_parallelism`;
/// 1 when it cannot be determined). Unlike [`threads`], this ignores
/// `BOOTERS_THREADS` and overrides — it answers "can worker threads
/// actually run concurrently here?", so size-aware callers (e.g.
/// `group_flows_par`) can skip sharding overhead that can never pay on
/// the current host. Results are identical either way by the
/// determinism contract; only the schedule changes.
pub fn hardware_parallelism() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The thread count the next `par_*` call on this thread will use.
///
/// Always 1 inside a pool worker (nested parallelism is sequential).
pub fn threads() -> usize {
    if in_pool() {
        return 1;
    }
    THREAD_OVERRIDE
        .with(|c| c.get())
        .unwrap_or_else(configured_threads)
}

/// True while the current thread runs pool tasks (where [`threads`]
/// reports 1): on a spawned worker, or on the calling thread while it
/// works its share of a batch.
pub fn in_pool() -> bool {
    IN_POOL.with(|c| c.get())
}

/// Mark the current thread as a pool worker until the guard drops, so
/// `par_*` calls made by the tasks it runs take the sequential path.
pub(crate) fn enter_pool() -> PoolGuard {
    PoolGuard(IN_POOL.with(|c| c.replace(true)))
}

/// Restores the previous pool-worker flag on drop (also on panic).
pub(crate) struct PoolGuard(bool);

impl Drop for PoolGuard {
    fn drop(&mut self) {
        IN_POOL.with(|c| c.set(self.0));
    }
}

/// Parse a `BOOTERS_PAR_MIN_ITEMS` value; non-numeric input is ignored
/// and 0 is clamped to 1 (cutoff disabled — every batch may go parallel).
fn parse_min_items(v: &str) -> Option<usize> {
    v.trim().parse::<usize>().ok().map(|n| n.max(1))
}

/// Process-wide configured cutoff: `BOOTERS_PAR_MIN_ITEMS` if set (read
/// once), otherwise [`DEFAULT_MIN_ITEMS`].
fn configured_min_items() -> usize {
    static CONFIGURED: OnceLock<usize> = OnceLock::new();
    *CONFIGURED.get_or_init(|| {
        std::env::var("BOOTERS_PAR_MIN_ITEMS")
            .ok()
            .and_then(|v| parse_min_items(&v))
            .unwrap_or(DEFAULT_MIN_ITEMS)
    })
}

/// Batches with fewer items than this run sequentially on the calling
/// thread (same results by the determinism contract, no pool spawn).
pub fn min_items() -> usize {
    MIN_ITEMS_OVERRIDE
        .with(|c| c.get())
        .unwrap_or_else(configured_min_items)
}

/// Run `f` with the small-work cutoff pinned to `n` items on this thread
/// (clamped to ≥ 1; 1 disables the cutoff), restoring the previous
/// setting afterwards — also on panic. Tests and benches use this to
/// force the pool on for small batches without touching the process
/// environment.
pub fn with_min_items<T>(n: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            MIN_ITEMS_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = MIN_ITEMS_OVERRIDE.with(|c| c.replace(Some(n.max(1))));
    let _restore = Restore(prev);
    f()
}

/// Run `f` with the executor pinned to `n` threads on this thread
/// (clamped to ≥ 1), restoring the previous setting afterwards — also on
/// panic. This is how the invariance tests and benches sweep thread
/// counts without touching the process environment.
pub fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = THREAD_OVERRIDE.with(|c| c.replace(Some(n.max(1))));
    let _restore = Restore(prev);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_threads_clamps_and_rejects() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads(" 8 "), Some(8));
        assert_eq!(parse_threads("0"), Some(1));
        assert_eq!(parse_threads("many"), None);
        assert_eq!(parse_threads(""), None);
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = threads();
        let inner = with_threads(3, threads);
        assert_eq!(inner, 3);
        assert_eq!(threads(), outer);
        // Clamped to at least one.
        assert_eq!(with_threads(0, threads), 1);
        // Nested overrides restore the enclosing override, not the default.
        with_threads(5, || {
            assert_eq!(with_threads(2, threads), 2);
            assert_eq!(threads(), 5);
        });
    }

    #[test]
    fn parse_min_items_clamps_and_rejects() {
        assert_eq!(parse_min_items("16"), Some(16));
        assert_eq!(parse_min_items(" 1 "), Some(1));
        assert_eq!(parse_min_items("0"), Some(1));
        assert_eq!(parse_min_items("lots"), None);
        assert_eq!(parse_min_items(""), None);
    }

    #[test]
    fn with_min_items_overrides_and_restores() {
        let outer = min_items();
        assert_eq!(with_min_items(3, min_items), 3);
        assert_eq!(min_items(), outer);
        // Clamped to at least one (1 = cutoff disabled).
        assert_eq!(with_min_items(0, min_items), 1);
        with_min_items(32, || {
            assert_eq!(with_min_items(2, min_items), 2);
            assert_eq!(min_items(), 32);
        });
    }

    #[test]
    fn with_min_items_restores_on_panic() {
        let before = min_items();
        let caught = std::panic::catch_unwind(|| {
            with_min_items(9, || panic!("boom"));
        });
        assert!(caught.is_err());
        assert_eq!(min_items(), before);
    }

    #[test]
    fn with_threads_restores_on_panic() {
        let before = threads();
        let caught = std::panic::catch_unwind(|| {
            with_threads(7, || panic!("boom"));
        });
        assert!(caught.is_err());
        assert_eq!(threads(), before);
    }
}
