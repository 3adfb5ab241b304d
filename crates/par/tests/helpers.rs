//! The parked helpers across dispatches: they outlive a panicking task,
//! keep nested calls sequential, tolerate concurrent dispatchers and more
//! threads than cores.

use booters_par::{in_pool, par_map, threads, with_threads};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Barrier;
use std::time::Duration;

/// Run `f` on its own thread and fail instead of hanging when it does not
/// finish within a generous bound.
fn within_30s<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        tx.send(f()).ok();
    });
    rx.recv_timeout(Duration::from_secs(30))
        .expect("dispatch hung")
}

#[test]
fn a_panicking_task_reaches_the_caller_and_the_pool_serves_the_next_dispatch() {
    within_30s(|| {
        let items: Vec<u32> = (0..6).collect();
        for round in 0..20u32 {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                with_threads(2, || {
                    par_map(&items, |&x| {
                        if x == round % 6 {
                            panic!("task {x} exploded");
                        }
                        x
                    })
                })
            }));
            let payload = outcome.expect_err("the panic must reach the caller");
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert_eq!(message, format!("task {} exploded", round % 6));
            let ok = with_threads(2, || par_map(&items, |&x| x * 3));
            assert_eq!(ok, vec![0, 3, 6, 9, 12, 15], "round {round}");
        }
    });
}

#[test]
fn the_lowest_index_panic_wins() {
    within_30s(|| {
        let items: Vec<u32> = (0..8).collect();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            with_threads(2, || {
                par_map(&items, |&x| {
                    if x == 1 {
                        // Let the later panic land first on the clock.
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    if x == 1 || x == 6 {
                        panic!("task {x}");
                    }
                    x
                })
            })
        }));
        let payload = outcome.expect_err("panic must propagate");
        // Item 6 may never run once item 1 aborts the batch, but when both
        // panic the caller sees item 1's.
        assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("task 1"));
    });
}

#[test]
fn a_nested_call_inside_a_task_stays_sequential() {
    within_30s(|| {
        let outer: Vec<u32> = (0..4).collect();
        let seen = with_threads(2, || {
            par_map(&outer, |&x| {
                let inner: Vec<u32> = (0..32).collect();
                let nested = par_map(&inner, |&y| y + x);
                assert_eq!(nested, inner.iter().map(|y| y + x).collect::<Vec<_>>());
                (in_pool(), threads())
            })
        });
        assert!(seen.iter().all(|&s| s == (true, 1)), "{seen:?}");
    });
}

#[test]
fn two_threads_dispatching_at_once_both_get_their_results() {
    within_30s(|| {
        let start = Barrier::new(2);
        std::thread::scope(|s| {
            let dispatchers: Vec<_> = (0..2u64)
                .map(|k| {
                    let start = &start;
                    s.spawn(move || {
                        let items: Vec<u64> = (0..40).collect();
                        start.wait();
                        for round in 0..50u64 {
                            let got = with_threads(2, || {
                                par_map(&items, |&x| {
                                    std::hint::black_box((0..200).sum::<u64>());
                                    x * k + round
                                })
                            });
                            let want: Vec<u64> = items.iter().map(|&x| x * k + round).collect();
                            assert_eq!(got, want, "dispatcher {k} round {round}");
                        }
                    })
                })
                .collect();
            for d in dispatchers {
                d.join().expect("dispatcher failed");
            }
        });
    });
}

#[test]
fn more_threads_than_cores_still_reduce_in_order() {
    within_30s(|| {
        let items: Vec<u64> = (0..64).collect();
        for _ in 0..10 {
            let got = with_threads(8, || par_map(&items, |&x| x * x));
            assert_eq!(got, items.iter().map(|x| x * x).collect::<Vec<_>>());
            let few = with_threads(8, || par_map(&items[..9], |&x| x + 1));
            assert_eq!(few, (1..10).collect::<Vec<_>>());
        }
    });
}
