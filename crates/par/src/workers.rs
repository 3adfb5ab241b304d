//! Parked threads: the process-wide helper threads behind every pool
//! dispatch ([`HELPERS`]) and the stage thread behind every
//! [`crate::pipeline`] run share this one primitive, a [`Crew`].
//!
//! A crew's threads are started lazily, the first time a run asks for
//! more of them than exist, and then live for the rest of the process,
//! parked on a condition variable between runs. The set only grows, to
//! the largest thread count any run has asked for; how many of them a run
//! uses is still decided per call (`BOOTERS_THREADS`,
//! [`crate::with_threads`]). Waking a parked helper costs a few
//! microseconds where spawning a scoped thread cost about 21 µs, which is
//! what lets batches of a few 40 µs items, such as one week's packet
//! commands, go parallel at all.
//!
//! A run publishes one job, a borrowed closure, and opens a fixed number
//! of claim slots. A woken thread claims a slot, runs the job, flushes its
//! `booters-obs` metrics and reports done. The caller runs its own part of
//! the work meanwhile; once that is finished it withdraws the job, so a
//! thread that has not claimed it by then never will, and waits only for
//! the threads that did claim it. One run owns a crew at a time: a run
//! from another OS thread that finds it busy gets no [`Claim`] and does
//! its whole work on its own thread, which gives the same results
//! (determinism contract point 3) and cannot deadlock.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// A run's work as the crew sees it. The real closure borrows the
/// caller's stack; [`Claim::run`] erases that lifetime (see its SAFETY
/// argument).
type Job = dyn Fn() + Sync;

/// The pool's helpers.
pub(crate) static HELPERS: Crew = Crew::new("booters-par");

/// A set of parked threads and the one run that may own them.
pub(crate) struct Crew {
    /// Name of the crew's threads.
    name: &'static str,
    state: Mutex<State>,
    /// Parked threads wait here for a job.
    work: Condvar,
    /// The owning run waits here for claimed threads to finish.
    done: Condvar,
}

/// Everything a crew's threads and its owning run share, guarded by one
/// mutex.
struct State {
    /// True while a run owns the crew.
    busy: bool,
    /// The published job; `None` once its run has withdrawn it.
    job: Option<&'static Job>,
    /// Claim slots left on the published job.
    open: usize,
    /// Threads that claimed the published job and have not finished it.
    running: usize,
    /// Threads started so far.
    spawned: usize,
}

impl Crew {
    pub(crate) const fn new(name: &'static str) -> Crew {
        Crew {
            name,
            state: Mutex::new(State {
                busy: false,
                job: None,
                open: 0,
                running: 0,
                spawned: 0,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        }
    }

    /// No code panics while holding the lock, but a poisoned lock must not
    /// take the crew down either: the state is consistent at every unlock.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Own the crew for one run of up to `threads` of its threads,
    /// starting any that do not exist yet. `None` when another run owns
    /// it or when the OS refused every thread it asked for.
    pub(crate) fn claim(&'static self, threads: usize) -> Option<Claim> {
        let mut st = self.lock();
        if st.busy {
            return None;
        }
        while st.spawned < threads && self.spawn() {
            st.spawned += 1;
        }
        if st.spawned == 0 {
            return None;
        }
        st.busy = true;
        debug_assert_eq!(st.running, 0, "a finished run left claimants behind");
        Some(Claim {
            crew: self,
            threads: threads.min(st.spawned),
        })
    }

    /// Start one more thread; false when the OS refuses one (the crew then
    /// runs with the threads it has).
    fn spawn(&'static self) -> bool {
        std::thread::Builder::new()
            .name(self.name.into())
            .spawn(move || self.park_loop())
            .is_ok()
    }

    /// A thread's whole life: wait for a job with a free claim slot, run
    /// it, flush its metrics, report done, repeat. A thread that finishes
    /// while the job is still published may claim a spare slot again; it
    /// then just finds less work left.
    fn park_loop(&self) {
        // Everything a crew runs is pool work: nested `par_map` calls made
        // by its jobs take the sequential path.
        let _in_pool = crate::enter_pool();
        loop {
            let job = {
                let mut st = self.lock();
                loop {
                    match st.job {
                        Some(job) if st.open > 0 => {
                            st.open -= 1;
                            st.running += 1;
                            break job;
                        }
                        _ => st = self.work.wait(st).unwrap_or_else(PoisonError::into_inner),
                    }
                }
            };
            // Jobs catch their own panics; this only keeps the thread
            // alive, and the count below honest, if one ever escapes.
            let _ = catch_unwind(AssertUnwindSafe(job));
            // Before reporting done: the run's caller may snapshot the
            // registry as soon as the run returns.
            booters_obs::flush();
            let mut st = self.lock();
            st.running -= 1;
            let last = st.running == 0;
            drop(st);
            if last {
                self.done.notify_one();
            }
        }
    }
}

/// One run's ownership of a [`Crew`]. Dropping it withdraws any published
/// job, waits out the threads that claimed it and frees the crew.
pub(crate) struct Claim {
    crew: &'static Crew,
    /// Claim slots the run opens.
    threads: usize,
}

impl Claim {
    /// Run `caller` on this thread while up to the claimed number of crew
    /// threads run `job`, and return `caller`'s result once every thread
    /// that claimed the job has finished it. `job` must tolerate running
    /// from zero up to that many times: none at all when `caller` returns
    /// before any thread wakes.
    pub(crate) fn run<R>(self, job: &(dyn Fn() + Sync), caller: impl FnOnce() -> R) -> R {
        // SAFETY: the erased reference is only dereferenced by threads
        // that claim the job, which they do under the lock while `st.job`
        // holds it, counting themselves in `st.running`. Dropping `self`
        // clears `st.job` and then blocks until `st.running` is zero, and
        // `self` is dropped when this function leaves by any path,
        // unwinding included. So `job`, and everything it borrows,
        // outlives every use a thread makes of it.
        let job: &'static Job = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static Job>(job) };
        let mut st = self.crew.lock();
        st.job = Some(job);
        st.open = self.threads;
        // Notify after unlocking, so a woken thread does not block on the
        // lock and need a second wake-up from this thread.
        drop(st);
        for _ in 0..self.threads {
            self.crew.work.notify_one();
        }
        caller()
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        let mut st = self.crew.lock();
        st.job = None;
        st.open = 0;
        while st.running > 0 {
            st = self.crew.done.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.busy = false;
    }
}
