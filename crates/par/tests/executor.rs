//! Executor unit suite: the edge cases the determinism contract hinges
//! on — empty/small inputs, submission-order reduction under adversarial
//! scheduling, clean panic propagation (no hang, no orphan threads), and
//! the nested-call sequential fallback.

use booters_par::{
    par_for_each, par_map, par_map_collect, par_map_indexed, stream_seed, threads, with_min_items,
    with_threads,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

#[test]
fn empty_input_yields_empty_output() {
    let empty: Vec<u32> = Vec::new();
    for t in [1usize, 2, 8] {
        with_threads(t, || {
            assert!(par_map(&empty, |x| x + 1).is_empty());
            assert_eq!(
                par_map_collect(&empty, |x| Ok::<u32, String>(x + 1)),
                Ok(Vec::new())
            );
            par_for_each(&empty, |_| panic!("must never run"));
        });
    }
}

#[test]
fn input_smaller_than_chunk_size_is_complete_and_ordered() {
    // 2 and 3 items across 8 threads: fewer items than workers, and far
    // fewer than a "natural" chunk; every item must appear exactly once,
    // in order.
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
    // Workers must stop at the next chunk boundary once a task panics;
    // bound the whole call with a watchdog to catch a hang as a test
    // failure instead of a timeout.
    let items: Vec<u32> = (0..1024).collect();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            with_threads(8, || {
                par_for_each(&items, |&x| {
                    if x == 0 {
                        panic!("first chunk dies");
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
    // with_min_items(1) defeats the small-work cutoff so the 8-item outer
    // map really lands on pool workers (where the fallback applies).
    let outer: Vec<u32> = (0..8).collect();
    let inner_threads = with_threads(4, || {
        with_min_items(1, || {
            par_map(&outer, |_| {
            // Inside a worker the executor must report a single thread and
            // run nested maps inline — this completing at all proves no
            // deadlock, and the reported count proves the fallback.
                let inner: Vec<u32> = (0..8).collect();
                let nested = par_map(&inner, |&y| y * 2);
                assert_eq!(nested, inner.iter().map(|y| y * 2).collect::<Vec<_>>());
                threads()
            })
        })
    });
    assert!(
        inner_threads.iter().all(|&t| t == 1),
        "nested threads(): {inner_threads:?}"
    );
}

#[test]
fn par_map_collect_returns_earliest_error_in_submission_order() {
    // Items 3 and 11 both fail; 11 (larger index) finishes first because 3
    // sleeps. The caller must still see item 3's error at any thread count.
    let items: Vec<u32> = (0..16).collect();
    for t in [1usize, 2, 4, 8] {
        let r: Result<Vec<u32>, String> = with_threads(t, || {
            par_map_collect(&items, |&x| {
                if x == 3 {
                    std::thread::sleep(Duration::from_millis(30));
                    Err("error at 3".to_string())
                } else if x == 11 {
                    Err("error at 11".to_string())
                } else {
                    Ok(x)
                }
            })
        });
        assert_eq!(r, Err("error at 3".to_string()), "threads={t}");
    }
}

#[test]
fn par_for_each_visits_every_item_exactly_once() {
    let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
    let items: Vec<usize> = (0..100).collect();
    with_threads(4, || {
        par_for_each(&items, |&i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        })
    });
    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
}

#[test]
fn indexed_map_supplies_submission_indices() {
    let items = vec!["a", "b", "c", "d", "e"];
    let got = with_threads(3, || par_map_indexed(&items, |i, s| format!("{i}:{s}")));
    assert_eq!(got, vec!["0:a", "1:b", "2:c", "3:d", "4:e"]);
}

#[test]
fn split_streams_make_parallel_rng_thread_count_invariant() {
    use booters_testkit::rngs::StdRng;
    use booters_testkit::{Rng, SeedableRng};
    let items: Vec<usize> = (0..40).collect();
    let draw = |t: usize| {
        with_threads(t, || {
            par_map_indexed(&items, |i, _| {
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
