//! Executor unit suite: the edge cases the determinism contract hinges
//! on — empty/small inputs, submission-order reduction under adversarial
//! scheduling, clean panic propagation (no hang, no orphan threads), and
//! the nested-call sequential fallback.

use booters_par::{par_map, stream_seed, threads, with_threads};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

#[test]
fn empty_input_yields_empty_output() {
    let empty: Vec<u32> = Vec::new();
    for t in [1usize, 2, 8] {
        with_threads(t, || {
            assert!(par_map(&empty, |_| -> u32 { panic!("must never run") }).is_empty());
        });
    }
}

#[test]
fn input_smaller_than_thread_count_is_complete_and_ordered() {
    // 1 to 5 items across 8 threads: fewer items than workers; every item
    // must appear exactly once, in order.
    for len in [1usize, 2, 3, 5] {
        let items: Vec<usize> = (0..len).collect();
        let got = with_threads(8, || par_map(&items, |&x| x * 10));
        assert_eq!(got, items.iter().map(|x| x * 10).collect::<Vec<_>>());
    }
}

#[test]
fn reduction_is_submission_order_not_completion_order() {
    // Early items sleep longest, so completion order is roughly the
    // reverse of submission order; the output must still be ascending.
    let items: Vec<u64> = (0..16).collect();
    let got = with_threads(4, || {
        par_map(&items, |&x| {
            std::thread::sleep(Duration::from_millis((15 - x) * 2));
            x
        })
    });
    assert_eq!(got, items);
}

#[test]
fn panic_in_one_task_joins_cleanly_and_propagates() {
    let items: Vec<u32> = (0..64).collect();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        with_threads(4, || {
            par_map(&items, |&x| {
                if x == 9 {
                    panic!("task 9 exploded");
                }
                x
            })
        })
    }));
    let payload = outcome.expect_err("panic must propagate to the caller");
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(message.contains("task 9 exploded"), "payload: {message:?}");

    // The helpers survive a panicked dispatch: the next call works
    // normally (no poisoned state, no helper left counted as busy).
    let ok = with_threads(4, || par_map(&items, |&x| x + 1));
    assert_eq!(ok.len(), items.len());
}

#[test]
fn panic_does_not_hang_remaining_workers() {
    // Workers must stop before their next item once a task panics;
    // bound the whole call with a watchdog to catch a hang as a test
    // failure instead of a timeout.
    let items: Vec<u32> = (0..1024).collect();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            with_threads(8, || {
                par_map(&items, |&x| {
                    if x == 0 {
                        panic!("first item dies");
                    }
                })
            })
        }));
        tx.send(outcome.is_err()).ok();
    });
    let propagated = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("executor hung after a task panic");
    assert!(propagated);
}

#[test]
fn nested_par_map_falls_back_to_sequential() {
    let outer: Vec<u32> = (0..8).collect();
    let inner_threads = with_threads(4, || {
        par_map(&outer, |_| {
            // Inside a worker the executor must report a single thread and
            // run nested maps inline — this completing at all proves no
            // deadlock, and the reported count proves the fallback.
            let inner: Vec<u32> = (0..8).collect();
            let nested = par_map(&inner, |&y| y * 2);
            assert_eq!(nested, inner.iter().map(|y| y * 2).collect::<Vec<_>>());
            threads()
        })
    });
    assert!(
        inner_threads.iter().all(|&t| t == 1),
        "nested threads(): {inner_threads:?}"
    );
}

#[test]
fn split_streams_make_parallel_rng_thread_count_invariant() {
    use booters_testkit::rngs::StdRng;
    use booters_testkit::{Rng, SeedableRng};
    let items: Vec<usize> = (0..40).collect();
    let draw = |t: usize| {
        with_threads(t, || {
            par_map(&items, |&i| {
                let mut rng = StdRng::seed_from_u64(stream_seed(0x5EED, i as u64));
                (0..8).map(|_| rng.gen::<u64>()).collect::<Vec<u64>>()
            })
        })
    };
    let baseline = draw(1);
    for t in [2usize, 4, 8] {
        assert_eq!(draw(t), baseline, "threads={t}");
    }
}
