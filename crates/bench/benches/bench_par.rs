//! Parallel-executor benchmarks: the cost of one dispatch, and the
//! per-country Table-2 fits (a hot path `booters-par` fans out) measured
//! sequentially and at 2/4/8 worker threads via the thread-local
//! override, so one run emits the full scaling comparison regardless of
//! `BOOTERS_THREADS`.
//!
//! Speedup is hardware-bound: on a single-core host the threaded runs
//! only measure executor overhead. The determinism contract is what the
//! test suite pins; these numbers pin the cost of it.

use booters_bench::repro_config;
use booters_core::pipeline::PipelineConfig;
use booters_core::pipeline::fit_countries;
use booters_core::scenario::Scenario;
use booters_market::calibration::Calibration;
use booters_testkit::bench::Criterion;
use booters_testkit::{bench_group, bench_main};
use std::hint::black_box;

const BENCH_SCALE: f64 = 0.02;
const THREADS: [usize; 4] = [1, 2, 4, 8];

fn bench_country_fits(c: &mut Criterion) {
    let scenario = Scenario::run(repro_config(BENCH_SCALE));
    let cal = Calibration::default();
    let cfg = PipelineConfig::default();
    let countries = Calibration::table2_countries();
    let mut group = c.benchmark_group("country_fits");
    group.sample_size(10);
    for threads in THREADS {
        group.bench_function(&format!("threads_{threads}"), |b| {
            b.iter(|| {
                booters_par::with_threads(threads, || {
                    let fits = fit_countries(&scenario.honeypot, &cal, &countries, &cfg).unwrap();
                    black_box(fits.len())
                })
            })
        });
    }
    group.finish();
}

/// The fixed cost of one dispatch at two threads.
///
/// - `dispatch_roundtrip`: two trivial items. The caller may finish both
///   before a helper wakes, so this is the cost a dispatch adds to a
///   batch too small to share.
/// - `helper_wake_roundtrip`: two items that each wait until both have
///   started, so the second one must run on a helper: the cost of waking
///   it, handing it the item and waiting for it to finish.
fn bench_dispatch_roundtrip(c: &mut Criterion) {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let items = [1u64, 2];
    let mut group = c.benchmark_group("par");
    group.sample_size(20);
    group.bench_function("dispatch_roundtrip", |b| {
        b.iter(|| {
            booters_par::with_threads(2, || {
                black_box(booters_par::par_map(&items, |&x| black_box(x) + 1))
            })
        })
    });
    let started = AtomicUsize::new(0);
    group.bench_function("helper_wake_roundtrip", |b| {
        b.iter(|| {
            started.store(0, Ordering::Relaxed);
            booters_par::with_threads(2, || {
                black_box(booters_par::par_map(&items, |&x| {
                    started.fetch_add(1, Ordering::AcqRel);
                    while started.load(Ordering::Acquire) < 2 {
                        std::hint::spin_loop();
                    }
                    x
                }))
            })
        })
    });
    group.finish();
}

bench_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_dispatch_roundtrip, bench_country_fits
}
bench_main!(benches);
