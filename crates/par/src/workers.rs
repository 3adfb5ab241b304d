//! The process-wide helper threads behind every pool dispatch.
//!
//! Helpers are started lazily, the first time a dispatch asks for more of
//! them than exist, and then live for the rest of the process, parked on
//! a condition variable between dispatches. The set only grows, to the
//! largest thread count any dispatch has asked for; how many of them a
//! dispatch uses is still decided per call (`BOOTERS_THREADS`,
//! [`crate::with_threads`]). Waking a parked helper costs a few
//! microseconds where spawning a scoped thread cost about 21 µs, which is
//! what lets batches of a few 40 µs items, such as one week's packet
//! commands, go parallel at all.
//!
//! A dispatch publishes one job, a borrowed closure, and opens a fixed
//! number of claim slots. A woken helper claims a slot, runs the job,
//! flushes its `booters-obs` metrics and reports done. The dispatcher runs
//! its own share of the work meanwhile; once that share is finished it
//! withdraws the job, so a helper that has not claimed it by then never
//! will, and waits only for the helpers that did claim it. One dispatch
//! owns the helpers at a time: a dispatch from another OS thread that
//! finds them busy runs its whole batch on its own thread, which gives
//! the same results (determinism contract point 3) and cannot deadlock.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// A dispatch's work as the helpers see it. The real closure borrows the
/// dispatcher's stack; [`run`] erases that lifetime (see its SAFETY
/// argument).
type Job = dyn Fn() + Sync;

/// Everything helpers and dispatchers share, guarded by one mutex.
struct State {
    /// True while a dispatch owns the helpers.
    busy: bool,
    /// The published job; `None` once its dispatcher has withdrawn it.
    job: Option<&'static Job>,
    /// Claim slots left on the published job.
    open: usize,
    /// Helpers that claimed the published job and have not finished it.
    running: usize,
    /// Helper threads started so far.
    spawned: usize,
}

static STATE: Mutex<State> = Mutex::new(State {
    busy: false,
    job: None,
    open: 0,
    running: 0,
    spawned: 0,
});
/// Parked helpers wait here for a job.
static WORK: Condvar = Condvar::new();
/// The dispatcher waits here for claimed helpers to finish.
static DONE: Condvar = Condvar::new();

/// No code panics while holding [`STATE`], but a poisoned lock must not
/// take the pool down either: the state is consistent at every unlock.
fn lock() -> MutexGuard<'static, State> {
    STATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Run `caller` on this thread while up to `helpers` parked helpers run
/// `job`, and return `caller`'s result once every helper that claimed the
/// job has finished it. `job` must tolerate running anywhere from zero to
/// `helpers` times: none at all when another dispatch owns the pool, when
/// the job is withdrawn before any helper wakes, or when the OS refuses a
/// new thread.
pub(crate) fn run<R>(helpers: usize, job: &(dyn Fn() + Sync), caller: impl FnOnce() -> R) -> R {
    let mut st = lock();
    if st.busy {
        drop(st);
        return caller();
    }
    while st.spawned < helpers && spawn_helper() {
        st.spawned += 1;
    }
    // SAFETY: the erased reference is only dereferenced by helpers that
    // claim the job, which they do under the lock while `st.job` holds
    // it, counting themselves in `st.running`. `Withdraw` below clears
    // `st.job` and then blocks until `st.running` is zero, and it runs
    // when this function leaves by any path, unwinding included. So
    // `job`, and everything it borrows, outlives every use a helper
    // makes of it.
    let job: &'static Job = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static Job>(job) };
    st.busy = true;
    st.job = Some(job);
    st.open = helpers.min(st.spawned);
    debug_assert_eq!(st.running, 0, "a finished dispatch left claimants behind");
    let wake = st.open;
    // Notify after unlocking, so a woken helper does not block on the
    // lock and need a second wake-up from this thread.
    drop(st);
    for _ in 0..wake {
        WORK.notify_one();
    }

    /// Withdraws the job and waits out its claimants on drop.
    struct Withdraw;
    impl Drop for Withdraw {
        fn drop(&mut self) {
            let mut st = lock();
            st.job = None;
            st.open = 0;
            while st.running > 0 {
                st = DONE.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
            st.busy = false;
        }
    }
    let _withdraw = Withdraw;
    caller()
}

/// Start one more helper; false when the OS refuses a thread (the pool
/// then simply runs with the helpers it has).
fn spawn_helper() -> bool {
    std::thread::Builder::new()
        .name("booters-par".into())
        .spawn(helper_loop)
        .is_ok()
}

/// A helper's whole life: wait for a job with a free claim slot, run it,
/// flush its metrics, report done, repeat. A helper that finishes while
/// the job is still published may claim a spare slot again; it then
/// just finds fewer chunks left.
fn helper_loop() {
    // Everything a helper runs is pool work: nested `par_*` calls made by
    // its tasks take the sequential path.
    let _in_pool = crate::enter_pool();
    loop {
        let job = {
            let mut st = lock();
            loop {
                match st.job {
                    Some(job) if st.open > 0 => {
                        st.open -= 1;
                        st.running += 1;
                        break job;
                    }
                    _ => st = WORK.wait(st).unwrap_or_else(PoisonError::into_inner),
                }
            }
        };
        // Jobs catch their tasks' panics themselves; this only keeps a
        // helper alive, and the count below honest, if one ever escapes.
        let _ = catch_unwind(AssertUnwindSafe(job));
        // Before reporting done: the dispatcher's caller may snapshot the
        // registry as soon as the dispatch returns.
        booters_obs::flush();
        let mut st = lock();
        st.running -= 1;
        let last = st.running == 0;
        drop(st);
        if last {
            DONE.notify_one();
        }
    }
}
