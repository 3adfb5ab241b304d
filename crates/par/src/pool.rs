//! The executor behind [`par_map`].
//!
//! Work distribution is dynamic (workers pull items off a shared atomic
//! cursor, so an expensive item does not stall the rest), but reduction is
//! static: every result carries its submission index and the pool sorts by
//! that index before returning. The output is therefore a pure function of
//! the input — never of the schedule.
//!
//! The calling thread is one of the workers: it wakes parked helpers
//! ([`crate::workers`]), then pulls items alongside them instead of
//! idling until they finish. The spans a task opens on the caller stay
//! inside the caller's `booters-obs` span tree.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Map `f` over `items` on the configured thread count, returning results
/// in submission order. Each item is its own scheduling unit, so an
/// expensive straggler never pins cheap siblings to the same worker; the
/// fan-outs are few but individually heavy items (country fits,
/// duration-scan refits, one week's packet commands, store chunks, serve
/// shards). With one thread, one item, or inside a pool worker this is
/// exactly `items.iter().map(f).collect()`.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
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
    run_on_pool(items, workers, &f)
}

/// One dispatch: the calling thread and up to `workers - 1` parked
/// helpers ([`crate::workers`]) pull items off an atomic cursor, then
/// results merge by submission index.
///
/// A panicking task sets the abort flag (other workers stop before their
/// next item, and the dispatch still waits for every helper that joined
/// it) and the lowest-index captured panic is resumed on the caller.
fn run_on_pool<T, U, F>(items: &[T], workers: usize, f: &F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let cursor = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    // Every worker deposits its results and any panic here once, when it
    // runs out of items. Nothing panics while holding the lock, so a
    // poisoned guard is still whole.
    let done: Mutex<Collected<U>> = Mutex::new(Collected {
        tagged: Vec::with_capacity(items.len()),
        panics: Vec::new(),
    });

    // One worker's loop: pull items until the cursor runs out or a task
    // panics. Runs with the pool flag set, so nested calls are sequential.
    let work = || {
        let _in_pool = crate::enter_pool();
        let mut local: Vec<(usize, U)> = Vec::new();
        let mut panicked = None;
        while !abort.load(Ordering::Relaxed) {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                break;
            }
            match catch_unwind(AssertUnwindSafe(|| f(&items[i]))) {
                Ok(v) => local.push((i, v)),
                Err(payload) => {
                    abort.store(true, Ordering::Relaxed);
                    panicked = Some((i, payload));
                    break;
                }
            }
        }
        let mut done = done.lock().unwrap_or_else(PoisonError::into_inner);
        done.tagged.append(&mut local);
        done.panics.extend(panicked);
    };
    let helper_job = || {
        // The caller takes its first item right after waking helpers,
        // so a helper that finds none taken was most likely woken onto
        // the caller's core and preempted it. Hand the core back until
        // the caller has started: otherwise the helper can run the whole
        // batch while the caller waits, and the scheduler may keep
        // placing the two together on later dispatches.
        while cursor.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        work();
    };
    match crate::workers::HELPERS.claim(workers - 1) {
        Some(claim) => claim.run(&helper_job, &work),
        // Another dispatch owns the helpers: the whole batch runs here.
        None => work(),
    }

    let Collected { mut tagged, mut panics } = done.into_inner().unwrap_or_else(PoisonError::into_inner);
    if !panics.is_empty() {
        panics.sort_by_key(|(i, _)| *i);
        resume_unwind(panics.swap_remove(0).1);
    }

    // Submission-order reduction: indices are unique, so this sort yields
    // one canonical order regardless of which worker produced what.
    tagged.sort_unstable_by_key(|(i, _)| *i);
    debug_assert_eq!(tagged.len(), items.len(), "executor lost results");
    tagged.into_iter().map(|(_, v)| v).collect()
}

/// What the workers of one dispatch hand back.
struct Collected<U> {
    tagged: Vec<(usize, U)>,
    panics: Vec<(usize, Box<dyn std::any::Any + Send>)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_sequential_map() {
        for len in [7usize, 257] {
            let items: Vec<u64> = (0..len as u64).collect();
            let expected: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
            for t in [1usize, 2, 3, 4, 8] {
                let got = crate::with_threads(t, || par_map(&items, |x| x * x + 1));
                assert_eq!(got, expected, "len={len} threads={t}");
            }
        }
    }

    #[test]
    fn par_map_runs_every_item_on_the_pool_above_one_thread() {
        let items: Vec<u64> = (0..7).collect();
        let on_pool = crate::with_threads(4, || par_map(&items, |_| crate::in_pool()));
        assert!(on_pool.iter().all(|&p| p));
        let on_pool = crate::with_threads(1, || par_map(&items, |_| crate::in_pool()));
        assert!(on_pool.iter().all(|&p| !p));
    }
}
