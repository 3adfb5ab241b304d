//! The chunked scoped executor behind `par_map` and friends.
//!
//! Work distribution is dynamic (workers pull chunks off a shared atomic
//! cursor, so an expensive item does not stall the rest), but reduction is
//! static: every result carries its submission index and the pool sorts by
//! that index before returning. The output is therefore a pure function of
//! the input — never of the schedule.
//!
//! The calling thread is one of the workers: it spawns the others, then
//! pulls chunks alongside them instead of idling until they join. That
//! saves one thread spawn per dispatch, and the spans a task opens on
//! the caller stay inside the caller's `booters-obs` span tree.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Chunks handed out per worker (over-decomposition for load balance; the
/// value only affects scheduling granularity, never results).
const CHUNKS_PER_WORKER: usize = 4;

fn chunk_len(items: usize, workers: usize) -> usize {
    items.div_ceil(workers * CHUNKS_PER_WORKER).max(1)
}

/// Size-aware worker count for a fine-grained batch of `len` items:
/// 1 (the sequential path) below the [`crate::min_items`] cutoff, and at
/// most one worker per `min_items` items above it, capped by the
/// configured thread count. Spawning a thread costs tens of
/// microseconds, so a worker that would receive less than one cutoff's
/// worth of items costs more than it contributes; capping workers this
/// way also floors the chunk size at `min_items / CHUNKS_PER_WORKER`.
/// Results never depend on the answer (determinism contract points 1
/// and 3) — only the spawn count does.
fn plan_workers(len: usize) -> usize {
    let threads = crate::threads().min(len);
    let min = crate::min_items();
    if threads <= 1 || len < min {
        return 1;
    }
    threads.min(len / min).max(1)
}

/// Map `f` over `items` on the configured thread count, returning results
/// in submission order. With one thread (or ≤ 1 item, or inside a pool
/// worker) this is exactly `items.iter().map(f).collect()`.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed(items, |_, x| f(x))
}

/// [`par_map`] whose closure also receives the item's submission index —
/// the hook for per-task RNG stream splitting via
/// [`stream_seed`](crate::stream_seed).
pub fn par_map_indexed<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let workers = plan_workers(items.len());
    if workers <= 1 {
        // Sequential fallback: the exact code path the pre-executor
        // callers ran. Small batches take it too (see the small-work
        // cutoff in the crate docs) — same results, no pool spawn.
        booters_obs::counter_add("par.seq_fallbacks", 1);
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    booters_obs::counter_add("par.pool_dispatches", 1);
    run_on_pool(items, workers, chunk_len(items.len(), workers), &f)
}

/// [`par_map`] for batches of **few but individually heavy** items —
/// store chunks to decode, per-shard packet buckets to group. The
/// item-count cutoff does not apply (eight multi-megabyte buckets are
/// not "small work") and each item is its own scheduling unit, so an
/// expensive straggler never pins cheap siblings to the same worker.
/// Determinism is unchanged: submission-order reduction, sequential
/// fallback at one thread or one item.
pub fn par_map_coarse<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let workers = crate::threads().min(items.len());
    if workers <= 1 {
        booters_obs::counter_add("par.seq_fallbacks", 1);
        return items.iter().map(&f).collect();
    }
    booters_obs::counter_add("par.pool_dispatches", 1);
    run_on_pool(items, workers, 1, &|_, x| f(x))
}

/// Run `f` for each item on the configured thread count. Side effects must
/// be independent per item; completion order is unspecified, but the call
/// returns only after every item ran (or propagates the first panic by
/// submission order among those observed).
pub fn par_for_each<T, F>(items: &[T], f: F)
where
    T: Sync,
    F: Fn(&T) + Sync,
{
    par_map_indexed(items, |_, x| f(x));
}

/// Fallible ordered map: apply `f` to every item and collect into
/// `Result<Vec<U>, E>`, returning the error of the **earliest failing
/// item** (submission order), never of whichever task failed first on the
/// clock. On the parallel path all items are evaluated even when one
/// errors, so the returned error is schedule-independent; the sequential
/// path short-circuits like plain `collect()`.
pub fn par_map_collect<T, U, E, F>(items: &[T], f: F) -> Result<Vec<U>, E>
where
    T: Sync,
    U: Send,
    E: Send,
    F: Fn(&T) -> Result<U, E> + Sync,
{
    let workers = plan_workers(items.len());
    if workers <= 1 {
        booters_obs::counter_add("par.seq_fallbacks", 1);
        return items.iter().map(f).collect();
    }
    booters_obs::counter_add("par.pool_dispatches", 1);
    run_on_pool(items, workers, chunk_len(items.len(), workers), &|_, x| f(x))
        .into_iter()
        .collect()
}

/// The scoped pool: spawn `workers - 1` threads, work alongside them on
/// the calling thread, hand out chunks off an atomic cursor, join
/// everything, then merge results by submission index.
///
/// A panicking task sets the abort flag (other workers stop at their next
/// chunk boundary — no hang, no orphan threads: `thread::scope` joins them
/// all) and the lowest-index captured panic is resumed on the caller.
fn run_on_pool<T, U, F>(items: &[T], workers: usize, chunk: usize, f: &F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let n_chunks = items.len().div_ceil(chunk);
    let cursor = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let panics: Mutex<Vec<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(Vec::new());
    // Workers must see the same fast-vs-scalar kernel selection as the
    // submitting thread (the override is thread-local, and kernels run
    // inside fanned-out closures — chunk decode, flow grouping).
    let scalar_kernels = crate::scalar_kernels();

    // One worker's loop: pull chunks until the cursor runs out or a task
    // panics. Runs with the pool flag set, so nested calls are sequential.
    let work = || {
        let _in_pool = crate::enter_pool();
        let mut local: Vec<(usize, U)> = Vec::new();
        while !abort.load(Ordering::Relaxed) {
            let c = cursor.fetch_add(1, Ordering::Relaxed);
            if c >= n_chunks {
                break;
            }
            let start = c * chunk;
            let end = (start + chunk).min(items.len());
            for i in start..end {
                match catch_unwind(AssertUnwindSafe(|| f(i, &items[i]))) {
                    Ok(v) => local.push((i, v)),
                    Err(payload) => {
                        abort.store(true, Ordering::Relaxed);
                        panics.lock().expect("panic log poisoned").push((i, payload));
                        return local;
                    }
                }
            }
        }
        local
    };

    let mut tagged: Vec<(usize, U)> = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers)
            .map(|_| {
                scope.spawn(|| {
                    crate::kernels::inherit_kernels(scalar_kernels);
                    work()
                })
            })
            .collect();
        tagged.extend(work());
        for h in handles {
            // Worker bodies catch task panics, so join itself cannot fail.
            tagged.extend(h.join().expect("pool worker crashed outside a task"));
        }
    });

    let mut panics = panics.into_inner().expect("panic log poisoned");
    if !panics.is_empty() {
        panics.sort_by_key(|(i, _)| *i);
        resume_unwind(panics.remove(0).1);
    }

    // Submission-order reduction: indices are unique, so this sort yields
    // one canonical order regardless of which worker produced what.
    tagged.sort_unstable_by_key(|(i, _)| *i);
    debug_assert_eq!(tagged.len(), items.len(), "executor lost results");
    tagged.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_len_covers_all_items() {
        for items in [0usize, 1, 2, 3, 7, 100, 1001] {
            for workers in [1usize, 2, 4, 8] {
                let c = chunk_len(items, workers);
                assert!(c >= 1);
                assert!(c * items.div_ceil(c.max(1)) >= items);
            }
        }
    }

    #[test]
    fn par_map_matches_sequential_map() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for t in [1usize, 2, 3, 4, 8] {
            let got = crate::with_threads(t, || par_map(&items, |x| x * x + 1));
            assert_eq!(got, expected, "threads={t}");
        }
    }

    #[test]
    fn small_batches_stay_on_the_calling_thread() {
        // Below the cutoff no pool is spawned even with threads available:
        // the closure observes the calling thread, not a pool worker.
        let items: Vec<u32> = (0..8).collect();
        let on_pool = crate::with_threads(4, || {
            crate::with_min_items(16, || par_map(&items, |_| crate::in_pool()))
        });
        assert!(on_pool.iter().all(|&p| !p));
        // min_items = 1 disables the cutoff and forces the pool on.
        let on_pool = crate::with_threads(4, || {
            crate::with_min_items(1, || par_map(&items, |_| crate::in_pool()))
        });
        assert!(on_pool.iter().all(|&p| p));
    }

    #[test]
    fn cutoff_does_not_change_results() {
        let items: Vec<u64> = (0..15).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for min in [1usize, 4, 16, 64] {
            let got = crate::with_threads(4, || {
                crate::with_min_items(min, || par_map(&items, |x| x * 3 + 1))
            });
            assert_eq!(got, expected, "min_items={min}");
        }
    }

    #[test]
    fn plan_workers_is_size_aware() {
        crate::with_threads(8, || {
            crate::with_min_items(16, || {
                assert_eq!(plan_workers(8), 1); // below the cutoff
                assert_eq!(plan_workers(16), 1); // one cutoff's worth: not enough for 2
                assert_eq!(plan_workers(32), 2);
                assert_eq!(plan_workers(64), 4);
                assert_eq!(plan_workers(10_000), 8); // capped by threads
            });
            // min_items = 1 restores the plain threads.min(len) plan.
            crate::with_min_items(1, || {
                assert_eq!(plan_workers(3), 3);
                assert_eq!(plan_workers(100), 8);
            });
        });
        crate::with_threads(1, || assert_eq!(plan_workers(1_000_000), 1));
    }

    #[test]
    fn size_aware_workers_do_not_change_results() {
        // Sweep batch sizes across the worker-cap breakpoints: output must
        // equal the sequential map everywhere.
        for len in [15usize, 16, 17, 31, 32, 33, 64, 257] {
            let items: Vec<u64> = (0..len as u64).collect();
            let expected: Vec<u64> = items.iter().map(|x| x * 7 + 3).collect();
            let got = crate::with_threads(8, || par_map(&items, |x| x * 7 + 3));
            assert_eq!(got, expected, "len={len}");
        }
    }

    #[test]
    fn par_map_coarse_matches_sequential_and_skips_the_cutoff() {
        let items: Vec<u64> = (0..7).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for t in [1usize, 2, 4, 8] {
            let got = crate::with_threads(t, || par_map_coarse(&items, |x| x * x));
            assert_eq!(got, expected, "threads={t}");
        }
        // Seven items is below the default cutoff, yet the coarse entry
        // point still runs them on pool workers.
        let on_pool = crate::with_threads(4, || par_map_coarse(&items, |_| crate::in_pool()));
        assert!(on_pool.iter().all(|&p| p));
        let on_pool = crate::with_threads(1, || par_map_coarse(&items, |_| crate::in_pool()));
        assert!(on_pool.iter().all(|&p| !p));
    }

    #[test]
    fn par_map_collect_short_circuits_sequentially() {
        // threads=1 must behave like plain collect(): stop at the first
        // error without touching later items.
        let touched = std::sync::atomic::AtomicUsize::new(0);
        let items: Vec<u32> = (0..10).collect();
        let r: Result<Vec<u32>, String> = crate::with_threads(1, || {
            par_map_collect(&items, |&x| {
                touched.fetch_add(1, Ordering::Relaxed);
                if x == 3 {
                    Err(format!("bad {x}"))
                } else {
                    Ok(x)
                }
            })
        });
        assert_eq!(r, Err("bad 3".to_string()));
        assert_eq!(touched.load(Ordering::Relaxed), 4);
    }
}
