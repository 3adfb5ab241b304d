//! Figure regeneration benchmarks: one per paper figure, timing the data
//! extraction/rendering for each series the figures plot.

use booters_bench::repro_config;
use booters_core::pipeline::PipelineConfig;
use booters_core::pipeline::fit_global;
use booters_core::report::{
    fig1_csv, fig2_csv, fig3_csv, fig4_table, fig5_csv, fig6_csv, fig7_csv, fig8_csv,
};
use booters_core::scenario::Scenario;
use booters_core::verify::{cross_dataset_correlation, validate_top_booters};
use booters_market::calibration::Calibration;
use booters_timeseries::Date;
use booters_testkit::bench::Criterion;
use booters_testkit::{bench_group, bench_main};
use std::hint::black_box;

const BENCH_SCALE: f64 = 0.02;

fn bench_figures(c: &mut Criterion) {
    let scenario = Scenario::run(repro_config(BENCH_SCALE));
    let cal = Calibration::default();
    let cfg = PipelineConfig::default();
    let fit = fit_global(&scenario.honeypot, &cal, &cfg).unwrap();
    let mut group = c.benchmark_group("figures");

    group.bench_function("fig1_timeline", |b| {
        b.iter(|| black_box(fig1_csv(&scenario.honeypot).len()))
    });
    group.bench_function("fig2_model_overlay", |b| {
        b.iter(|| black_box(fig2_csv(&fit).len()))
    });
    group.bench_function("fig3_by_country", |b| {
        b.iter(|| black_box(fig3_csv(&scenario.honeypot).len()))
    });
    group.bench_function("fig4_correlation", |b| {
        b.iter(|| {
            black_box(
                fig4_table(
                    &scenario.honeypot,
                    Date::new(2016, 6, 6),
                    Date::new(2019, 4, 1),
                )
                .render()
                .len(),
            )
        })
    });
    group.bench_function("fig5_index_and_slopes", |b| {
        b.iter(|| {
            let (csv, slopes) = fig5_csv(&scenario.honeypot);
            black_box((csv.len(), slopes.uk_relative_decline()))
        })
    });
    group.bench_function("fig6_by_protocol", |b| {
        b.iter(|| black_box(fig6_csv(&scenario.honeypot).len()))
    });
    group.bench_function("fig7_selfreport_stack", |b| {
        b.iter(|| black_box(fig7_csv(&scenario.selfreport, 70).len()))
    });
    group.bench_function("fig8_lifecycle", |b| {
        b.iter(|| black_box(fig8_csv(&scenario.selfreport).len()))
    });
    group.bench_function("validation_suite", |b| {
        b.iter(|| {
            let v = validate_top_booters(&scenario.selfreport, 10);
            let r = cross_dataset_correlation(&scenario.honeypot, &scenario.selfreport);
            black_box((v.len(), r))
        })
    });
    group.finish();
}

bench_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_figures
}
bench_main!(benches);
