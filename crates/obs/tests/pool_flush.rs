//! Metrics raised on `booters-par`'s parked helpers reach the registry
//! before the dispatch that raised them returns, although the helpers
//! never exit, and each `par_map` call counts exactly one dispatch or
//! one sequential fallback.

use booters_par::{par_map, with_threads};

#[test]
fn helper_counters_are_in_the_snapshot_when_the_dispatch_returns() {
    booters_obs::set_enabled(true);
    let items: Vec<u64> = (1..=8).collect();
    let mut helped = false;
    for round in 1..=20u64 {
        booters_obs::reset();
        let on_helper = with_threads(2, || {
            par_map(&items, |&x| {
                booters_obs::counter_add("test.items", x);
                booters_obs::gauge_max("test.peak", x * round);
                {
                    booters_obs::span!("test.task");
                    // Long enough that the helper wakes before the caller
                    // has taken every item.
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                std::thread::current().name() == Some("booters-par")
            })
        });
        let snap = booters_obs::snapshot();
        assert_eq!(snap.counter("test.items"), 36, "round {round}");
        assert_eq!(snap.gauges["test.peak"], 8 * round, "round {round}");
        assert_eq!(snap.spans["test.task"].count, 8, "round {round}");
        helped |= on_helper.iter().any(|&h| h);
    }
    // The checks above mean something only if helpers did some of the
    // work; with 200 µs items they do.
    assert!(helped, "no item ran on a helper");

    // The scheduling counters the end-to-end benchmark reports per layer.
    // One test function only: the registry is global to the process and
    // the harness runs tests on parallel threads.
    let dispatch_counts = |threads: usize, items: &[u64]| {
        booters_obs::reset();
        with_threads(threads, || par_map(items, |&x| x + 1));
        let snap = booters_obs::snapshot();
        (
            snap.counter("par.pool_dispatches"),
            snap.counter("par.seq_fallbacks"),
        )
    };
    assert_eq!(dispatch_counts(2, &items), (1, 0), "8 items at 2 threads");
    assert_eq!(dispatch_counts(1, &items), (0, 1), "8 items at 1 thread");
    assert_eq!(
        dispatch_counts(2, &items[..1]),
        (0, 1),
        "1 item at 2 threads"
    );
    booters_obs::set_enabled(false);
}
