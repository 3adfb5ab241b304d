#![warn(missing_docs)]
//! # booters-par
//!
//! Deterministic data parallelism for the simulate→group→fit pipeline:
//! a zero-dependency thread pool of parked, process-wide helpers behind
//! one fan-out, [`par_map`], with a hard determinism contract. The
//! executor exists so the per-country Table 2 fits, the duration scan,
//! the scenario suite, netsim packet generation and the store, query and
//! serve backends can use every core **without perturbing a single
//! byte** of the seeded artifacts.
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
//! 3. **Sequential fallback.** With one thread (or one item) [`par_map`]
//!    degenerates to the plain `iter().map(...)` loop the
//!    pre-executor code ran — no pool, no channels, no reordering.
//!
//! ## The helpers
//!
//! The calling thread always works its share of a batch. The other
//! workers are helper threads started lazily and parked between
//! dispatches for the life of the process; the set grows to the largest
//! thread count ever requested. A helper that has not joined a dispatch
//! by the time the caller has finished every item does not join it at
//! all, so a dispatch never waits on a helper that is slow to wake.
//! While one dispatch owns the helpers, a dispatch from another OS thread
//! runs its batch alone on that thread. `DESIGN.md` §5b has the life
//! cycle and the safety argument.
//!
//! ## The stage
//!
//! [`pipeline`] is the one two-stage primitive: it runs a producer on a
//! process-wide stage thread, started once and parked between runs like
//! the helpers, and hands its items to the caller in batches through a
//! bounded queue, so the caller's work overlaps the producer's. With
//! fewer than two threads, inside a pool worker, or while another run
//! owns the stage, it is the interleaved loop on the calling thread.
//! `DESIGN.md` §5b has the life cycle, batching and panic semantics.
//!
//! ## Thread-count resolution
//!
//! [`threads`] resolves, in priority order: a scoped [`with_threads`]
//! override on the current thread → the `BOOTERS_THREADS` environment
//! variable (read once per process) → `std::thread::available_parallelism`.
//! Inside a pool worker it always reports 1, so nested calls fall back to
//! the sequential path instead of deadlocking or oversubscribing.

mod pool;
mod seed;
mod stage;
mod workers;

pub use pool::par_map;
pub use seed::stream_seed;
pub use stage::pipeline;

use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    /// Scoped per-thread override installed by [`with_threads`].
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Set on pool worker threads so nested parallelism degrades to the
    /// sequential path.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

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

/// The thread count the next [`par_map`] on this thread will use.
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
/// reports 1): always on a pool helper, and on the calling thread while
/// it works its share of a batch.
pub fn in_pool() -> bool {
    IN_POOL.with(|c| c.get())
}

/// Mark the current thread as a pool worker until the guard drops, so
/// [`par_map`] calls made by the tasks it runs take the sequential path.
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
    fn with_threads_restores_on_panic() {
        let before = threads();
        let caught = std::panic::catch_unwind(|| {
            with_threads(7, || panic!("boom"));
        });
        assert!(caught.is_err());
        assert_eq!(threads(), before);
    }
}
