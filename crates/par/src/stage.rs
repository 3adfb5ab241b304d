//! The two-stage pipeline behind [`pipeline`]: one process-wide stage
//! thread produces items while the caller consumes them.
//!
//! The stage is a one-thread [`Crew`] of its own: started the first time
//! a pipeline needs it, then parked between runs for the rest of the
//! process, with the pool's helpers' life cycle ([`crate::workers`]). A
//! run's job calls `produce` until it returns `None` and sends the items
//! in batches of [`BATCH`] through a `std::sync::mpsc::sync_channel` of at
//! most [`DEPTH`] batches. The caller receives the batches and calls
//! `consume` on each item, in produce order. A side that waits for the
//! other parks in the channel, never polls, so a host that gives the run
//! only one core pays a wake-up per batch and nothing more.
//!
//! One run owns the stage at a time. A run from another OS thread that
//! finds it busy, a run on one thread (`threads() < 2`) and a run inside
//! a pool worker take the interleaved loop on the calling thread, which
//! is the sequential fallback [`crate::par_map`] takes too.

use crate::workers::Crew;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Items per hand-off. A batch amortises the wake-up of the side that
/// waits (a few microseconds) over several items.
const BATCH: usize = 8;

/// Batches the channel holds ahead of the caller before the stage
/// blocks; with the batch in progress, the stage runs at most
/// `(DEPTH + 1) · BATCH` items ahead.
const DEPTH: usize = 2;

/// The stage thread.
static STAGE: Crew = Crew::new("booters-par-stage");

/// Producers catch their own panics, so a poisoned lock still guards
/// consistent state.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Run `produce` until it returns `None` and hand every item, in order,
/// to `consume` on the calling thread.
///
/// At two or more threads ([`crate::threads`]) `produce` runs on the
/// stage thread while the caller consumes, so the two overlap; otherwise,
/// and whenever another run owns the stage, this is the plain loop
/// `while let Some(x) = produce() { consume(x) }`. Either way `consume`
/// sees the same items in the same order, so the results cannot depend
/// on which path ran, provided `produce` and `consume` share no state.
///
/// `produce` runs with the pool flag set, so any [`crate::par_map`] it makes
/// is sequential. Spans it opens are recorded on the stage thread,
/// outside the caller's span path; its metrics are flushed before the
/// run returns.
///
/// A panic in `produce` reaches the caller after it has consumed every
/// item produced before the panic. A panic in `consume` stops the stage
/// after at most one more batch and leaves it free for the next run.
pub fn pipeline<T, P, C>(mut produce: P, mut consume: C)
where
    T: Send,
    P: FnMut() -> Option<T> + Send,
    C: FnMut(T),
{
    // Inside a pool worker, `threads()` is 1.
    let claim = if crate::threads() < 2 { None } else { STAGE.claim(1) };
    let Some(claim) = claim else {
        while let Some(item) = produce() {
            consume(item);
        }
        return;
    };

    let (send, receive) = mpsc::sync_channel::<Vec<T>>(DEPTH);
    let failed = Mutex::new(None);
    // A crew runs `Fn` jobs; the lock lends the one stage thread the
    // producer's `&mut`.
    let producer = Mutex::new((Some(send), &mut produce));
    let job = || {
        let mut producer = lock(&producer);
        let (send, produce) = &mut *producer;
        // Dropped when the job ends, which ends the caller's receive
        // loop once it has every batch.
        let Some(send) = send.take() else { return };
        loop {
            let mut batch = Vec::with_capacity(BATCH);
            let mut last = false;
            while batch.len() < BATCH {
                match catch_unwind(AssertUnwindSafe(&mut **produce)) {
                    Ok(Some(item)) => batch.push(item),
                    Ok(None) => {
                        last = true;
                        break;
                    }
                    Err(payload) => {
                        *lock(&failed) = Some(payload);
                        last = true;
                        break;
                    }
                }
            }
            // A send fails once the caller has stopped receiving.
            if send.send(batch).is_err() || last {
                break;
            }
        }
    };
    // The caller owns `receive`, so a panic in `consume` drops it before
    // the claim waits for the stage: a stage blocked on a full channel
    // then fails its send and ends its job.
    claim.run(&job, move || {
        for batch in receive {
            batch.into_iter().for_each(&mut consume);
        }
    });
    if let Some(payload) = failed.into_inner().unwrap_or_else(PoisonError::into_inner) {
        resume_unwind(payload);
    }
}
