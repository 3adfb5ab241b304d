//! Market simulation benchmarks: the weekly step, a full five-year run,
//! the scenario suite's nine markets, and the end-to-end observed
//! scenario.

use booters_core::scenario::{Fidelity, Scenario, ScenarioConfig};
use booters_market::market::{MarketConfig, MarketSim};
use booters_market::scn::builtin_scenarios;
use booters_market::shocks::ScenarioSpec;
use booters_testkit::bench::Criterion;
use booters_testkit::{bench_group, bench_main};
use std::hint::black_box;

fn bench_weekly_step(c: &mut Criterion) {
    c.bench_function("market_weekly_step", |b| {
        b.iter_with_setup(
            || {
                MarketSim::new(MarketConfig {
                    scale: 0.1,
                    seed: 1,
                    ..MarketConfig::default()
                })
            },
            |mut sim| {
                let out = sim.step().unwrap();
                black_box(out.total)
            },
        )
    });
}

fn bench_full_run(c: &mut Criterion) {
    c.bench_function("market_five_year_run_scale_0.05", |b| {
        b.iter(|| {
            let sim = MarketSim::new(MarketConfig {
                scale: 0.05,
                seed: 2,
                ..MarketConfig::default()
            });
            let weeks = sim.run();
            black_box(weeks.len())
        })
    });
}

/// The scenario suite's market layer: the shockless baseline plus the
/// eight built-in specs, each run to completion at the suite's default
/// scale and seed.
fn bench_suite_markets(c: &mut Criterion) {
    let mut specs = vec![ScenarioSpec::baseline()];
    specs.extend(builtin_scenarios());
    c.bench_function("market_suite_9_runs_scale_0.05", |b| {
        b.iter(|| {
            let weeks: usize = specs
                .iter()
                .map(|spec| {
                    MarketSim::new(MarketConfig {
                        scale: 0.05,
                        seed: 0xB00735,
                        scenario: Some(spec.clone()),
                        ..MarketConfig::default()
                    })
                    .run()
                    .len()
                })
                .sum();
            black_box(weeks)
        })
    });
}

fn bench_observed_scenario(c: &mut Criterion) {
    c.bench_function("scenario_aggregate_scale_0.02", |b| {
        b.iter(|| {
            let s = Scenario::run(ScenarioConfig {
                market: MarketConfig {
                    scale: 0.02,
                    seed: 3,
                    ..MarketConfig::default()
                },
                fidelity: Fidelity::Aggregate,
                ..ScenarioConfig::default()
            });
            black_box(s.honeypot.global.total())
        })
    });
}

bench_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_weekly_step, bench_full_run, bench_suite_markets, bench_observed_scenario
}
bench_main!(benches);
