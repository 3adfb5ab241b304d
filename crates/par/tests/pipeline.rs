//! The two-stage `pipeline`: the parked stage thread hands every item
//! over in order, keeps the producer's `par_*` calls sequential, passes a
//! producer's panic to the caller, survives a consumer's panic, and
//! leaves a second concurrent run to the interleaved loop.

use booters_par::{in_pool, par_map, pipeline, threads, with_threads};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Mutex, MutexGuard, PoisonError};
use std::thread::ThreadId;
use std::time::Duration;

/// The stage is process-wide and a run that finds it busy takes the
/// interleaved loop, so every test holds this while it runs pipelines.
static STAGE: Mutex<()> = Mutex::new(());

fn own_stage() -> MutexGuard<'static, ()> {
    STAGE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Run `f` on its own thread and fail instead of hanging when it does not
/// finish within a generous bound.
fn within_30s<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        tx.send(f()).ok();
    });
    rx.recv_timeout(Duration::from_secs(30))
        .expect("pipeline hung")
}

/// `0..n` through a pipeline, with the thread each side ran on.
fn count_to(n: u64) -> (Vec<u64>, Vec<ThreadId>, Vec<ThreadId>) {
    let mut next = 0;
    let mut producers = Vec::new();
    let mut consumed = Vec::new();
    let mut consumers = Vec::new();
    pipeline(
        || {
            producers.push(std::thread::current().id());
            (next < n).then(|| {
                next += 1;
                next - 1
            })
        },
        |x| {
            consumers.push(std::thread::current().id());
            consumed.push(x);
        },
    );
    (consumed, producers, consumers)
}

#[test]
fn every_item_arrives_in_order_at_every_thread_count() {
    within_30s(|| {
        let _stage = own_stage();
        for n in [0u64, 1, 7, 8, 9, 16, 17, 25, 100] {
            for t in [1usize, 2, 4, 8] {
                let (got, _, _) = with_threads(t, || count_to(n));
                assert_eq!(got, (0..n).collect::<Vec<_>>(), "n={n} threads={t}");
            }
        }
    });
}

#[test]
fn produce_runs_on_the_stage_only_at_two_threads_outside_the_pool() {
    within_30s(|| {
        let _stage = own_stage();
        let me = std::thread::current().id();
        let (_, producers, consumers) = with_threads(2, || count_to(30));
        assert!(
            producers.iter().all(|&p| p != me),
            "two threads: produce on the stage"
        );
        assert!(
            consumers.iter().all(|&c| c == me),
            "consume stays on the caller"
        );
        let (_, producers, _) = with_threads(1, || count_to(30));
        assert!(
            producers.iter().all(|&p| p == me),
            "one thread: the interleaved loop"
        );
        // Inside a pool worker `threads()` is 1: the interleaved loop on
        // the worker, never the stage.
        let on_workers = with_threads(2, || {
            par_map(&[0u8, 1], |_| {
                let worker = std::thread::current().id();
                let (got, producers, _) = count_to(20);
                (got.len(), producers.iter().all(|&p| p == worker))
            })
        });
        assert_eq!(on_workers, vec![(20, true), (20, true)]);
    });
}

#[test]
fn produce_gets_sequential_par() {
    within_30s(|| {
        let _stage = own_stage();
        let mut seen = Vec::new();
        with_threads(2, || {
            let mut left = 3;
            pipeline(
                || {
                    (left > 0).then(|| {
                        left -= 1;
                        (in_pool(), threads())
                    })
                },
                |s| seen.push(s),
            )
        });
        assert_eq!(seen, vec![(true, 1); 3]);
    });
}

#[test]
fn a_panic_in_produce_reaches_the_caller_and_never_a_truncated_dataset() {
    within_30s(|| {
        let _stage = own_stage();
        for t in [1usize, 2] {
            for fail_at in [0u64, 5, 8, 20] {
                let mut delivered = 0;
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    let mut dataset = Vec::new();
                    let mut next = 0;
                    with_threads(t, || {
                        pipeline(
                            || {
                                if next == fail_at {
                                    panic!("market week {next} exploded");
                                }
                                next += 1;
                                Some(next - 1)
                            },
                            |x| {
                                delivered += 1;
                                dataset.push(x);
                            },
                        )
                    });
                    dataset
                }));
                let payload = outcome.expect_err("the producer's panic must reach the caller");
                assert_eq!(
                    payload.downcast_ref::<String>().map(String::as_str),
                    Some(format!("market week {fail_at} exploded").as_str())
                );
                // Like the interleaved loop, the caller consumed every
                // item produced before the panic, and got no dataset.
                assert_eq!(delivered, fail_at, "threads={t}");
            }
            let (got, _, _) = with_threads(t, || count_to(40));
            assert_eq!(got, (0..40).collect::<Vec<_>>());
        }
    });
}

#[test]
fn after_a_panic_in_consume_the_stage_serves_the_next_run() {
    within_30s(|| {
        let _stage = own_stage();
        let me = std::thread::current().id();
        for round in 0..20u64 {
            // An endless producer: only the dropped channel stops the stage.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let mut next = 0u64;
                with_threads(2, || {
                    pipeline(
                        || {
                            next += 1;
                            Some(next)
                        },
                        |x| {
                            if x == round + 1 {
                                panic!("observer failed at {x}");
                            }
                        },
                    )
                })
            }));
            assert!(outcome.is_err(), "round {round}");
            let (got, producers, _) = with_threads(2, || count_to(50));
            assert_eq!(got, (0..50).collect::<Vec<_>>(), "round {round}");
            assert!(
                producers.iter().all(|&p| p != me),
                "round {round}: the next run must get the stage back"
            );
        }
    });
}

#[test]
fn a_second_concurrent_run_takes_the_interleaved_loop() {
    within_30s(|| {
        let _stage = own_stage();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (holding_tx, holding_rx) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            // The first run holds the stage: its producer waits for the
            // second run to finish before ending.
            let first = s.spawn(move || {
                let mut step = 0;
                let mut got = Vec::new();
                with_threads(2, || {
                    pipeline(
                        move || {
                            step += 1;
                            match step {
                                1 => Some(1),
                                2 => {
                                    holding_tx.send(()).unwrap();
                                    release_rx.recv().unwrap();
                                    Some(2)
                                }
                                _ => None,
                            }
                        },
                        |x| got.push(x),
                    )
                });
                got
            });
            holding_rx.recv().unwrap();
            let me = std::thread::current().id();
            let (got, producers, _) = with_threads(2, || count_to(30));
            assert_eq!(got, (0..30).collect::<Vec<_>>());
            assert!(
                producers.iter().all(|&p| p == me),
                "a busy stage means the interleaved loop"
            );
            release_tx.send(()).unwrap();
            assert_eq!(first.join().expect("first run failed"), vec![1, 2]);
        });
    });
}
