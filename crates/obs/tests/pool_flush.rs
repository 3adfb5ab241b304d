//! Metrics raised on `booters-par`'s parked helpers reach the registry
//! before the dispatch that raised them returns, although the helpers
//! never exit.

use booters_par::{par_map_coarse, with_threads};

#[test]
fn helper_counters_are_in_the_snapshot_when_the_dispatch_returns() {
    booters_obs::set_enabled(true);
    let items: Vec<u64> = (1..=8).collect();
    let mut helped = false;
    for round in 1..=20u64 {
        booters_obs::reset();
        let on_helper = with_threads(2, || {
            par_map_coarse(&items, |&x| {
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
    booters_obs::set_enabled(false);
}
