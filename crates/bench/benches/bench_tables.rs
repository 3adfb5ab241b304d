//! Table regeneration benchmarks: one benchmark per paper table, timing
//! the full simulate → observe → fit → render chain at reduced scale,
//! plus the Poisson-vs-NB ablation the paper's model choice rests on.

use booters_bench::repro_config;
use booters_core::pipeline::PipelineConfig;
use booters_core::pipeline::{fit_global, fit_series, global_intervention_windows};
use booters_core::report::{table1, table2, table3};
use booters_core::scenario::Scenario;
use booters_glm::irls::IrlsOptions;
use booters_glm::poisson::fit_poisson;
use booters_market::calibration::Calibration;
use booters_timeseries::design::{its_design, DesignConfig};
use booters_testkit::bench::Criterion;
use booters_testkit::{bench_group, bench_main};
use std::hint::black_box;

const BENCH_SCALE: f64 = 0.02;

fn bench_table1(c: &mut Criterion) {
    let scenario = Scenario::run(repro_config(BENCH_SCALE));
    let cal = Calibration::default();
    let cfg = PipelineConfig::default();
    c.bench_function("table1_fit_and_render", |b| {
        b.iter(|| {
            let fit = fit_global(&scenario.honeypot, &cal, &cfg).unwrap();
            black_box(table1(&fit).len())
        })
    });
}

fn bench_table2(c: &mut Criterion) {
    let scenario = Scenario::run(repro_config(BENCH_SCALE));
    let cal = Calibration::default();
    let cfg = PipelineConfig::default();
    let mut group = c.benchmark_group("tables");
    group.sample_size(10);
    group.bench_function("table2_eight_models", |b| {
        b.iter(|| black_box(table2(&scenario.honeypot, &cal, &cfg).unwrap().len()))
    });
    group.finish();
}

fn bench_table3(c: &mut Criterion) {
    let scenario = Scenario::run(repro_config(BENCH_SCALE));
    c.bench_function("table3_shares", |b| {
        b.iter(|| black_box(table3(&scenario.honeypot).len()))
    });
}

/// Ablation: Poisson vs NB2 on the same series — quantifies the cost of
/// the dispersion search relative to plain Poisson IRLS.
fn bench_poisson_ablation(c: &mut Criterion) {
    let scenario = Scenario::run(repro_config(BENCH_SCALE));
    let cal = Calibration::default();
    let cfg = PipelineConfig::default();
    let series = scenario
        .honeypot
        .global
        .window(cfg.window_start, cfg.window_end)
        .unwrap();
    let windows = global_intervention_windows(&cal);
    let design = its_design(&series, &windows, &DesignConfig::default());
    let mut group = c.benchmark_group("ablation");
    group.bench_function("poisson_only", |b| {
        b.iter(|| {
            let fit = fit_poisson(
                &design.x,
                series.values(),
                &design.names,
                &IrlsOptions::default(),
                0.95,
            )
            .unwrap();
            black_box(fit.fit.deviance)
        })
    });
    group.bench_function("negbin_profile_alpha", |b| {
        b.iter(|| {
            let fit = fit_series(&series, &windows, &cfg).unwrap();
            black_box(fit.fit.alpha)
        })
    });
    group.finish();
}

/// The automated window-detection loop (baseline fit + residual scan +
/// greedy LR-tested additions) at the paper's series size.
fn bench_detection(c: &mut Criterion) {
    use booters_core::detect::{detect_interventions, DetectOptions};
    use booters_timeseries::Date;
    let scenario = Scenario::run(repro_config(BENCH_SCALE));
    let series = scenario
        .honeypot
        .global
        .window(Date::new(2016, 6, 6), Date::new(2019, 4, 1))
        .unwrap();
    let cfg = PipelineConfig::default();
    let mut group = c.benchmark_group("detection");
    group.sample_size(10);
    group.bench_function("detect_interventions_full_series", |b| {
        b.iter(|| {
            let found = detect_interventions(&series, &cfg, &DetectOptions::default()).unwrap();
            black_box(found.len())
        })
    });
    group.finish();
}

bench_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_table1, bench_table2, bench_table3, bench_poisson_ablation, bench_detection
}
bench_main!(benches);
