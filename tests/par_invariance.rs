//! Thread-count-invariance properties for the `booters-par` executor.
//!
//! The determinism contract (DESIGN.md) says parallelism is an
//! implementation detail: for any seed, every parallelised stage of the
//! simulate → group → fit chain must produce *bit-identical* output at
//! every `BOOTERS_THREADS` setting. These properties drive random inputs
//! through each stage at threads ∈ {1, 2, 4, 8} and compare against the
//! sequential run — down to f64 bit patterns, not just tolerances.

use booting_the_booters::core::pipeline::{fit_countries, fit_global, PipelineConfig};
use booting_the_booters::core::report::table1;
use booting_the_booters::core::scenario::{observe_honeypot, Fidelity, Scenario, ScenarioConfig};
use booting_the_booters::market::calibration::Calibration;
use booting_the_booters::market::market::MarketConfig;
use booting_the_booters::market::scn::builtin_scenarios;
use booting_the_booters::par::with_threads;
use booting_the_booters::timeseries::Date;
use booters_testkit::{forall, prop_assert, prop_assert_eq};

/// Every output of a scenario run — honeypot and ground-truth series,
/// the self-report scrape and the raw market weeks — as text. `{:?}`
/// prints each f64 in its shortest round-trip form, so equal text means
/// equal bits.
fn whole<T: std::fmt::Debug>(run: &T) -> String {
    format!("{run:?}")
}

/// A scenario configuration over `start..end` at scale 0.01.
fn short_config(seed: u64, start: Date, end: Date, fidelity: Fidelity) -> ScenarioConfig {
    ScenarioConfig {
        market: MarketConfig {
            calibration: Calibration {
                scenario_start: start,
                scenario_end: end,
                ..Calibration::default()
            },
            scale: 0.01,
            seed,
            ..MarketConfig::default()
        },
        fidelity,
        ..ScenarioConfig::default()
    }
}

/// A short full-packet scenario: the whole measurement chain (packet
/// synthesis, 15-minute-gap grouping, classification) on an 8-week window.
fn full_packet_scenario(seed: u64) -> Scenario {
    Scenario::run(short_config(
        seed,
        Date::new(2018, 9, 3),
        Date::new(2018, 10, 29),
        Fidelity::FullPackets { per_week: 30 },
    ))
}

forall! {
    #![cases(3)]

    fn full_packet_scenario_is_thread_count_invariant(seed in 1u64..1_000_000) {
        let reference = with_threads(1, || full_packet_scenario(seed));
        prop_assert!(reference.honeypot.global.total() > 0.0);
        let reference = whole(&reference);
        for threads in [2, 4, 8] {
            let parallel = whole(&with_threads(threads, || full_packet_scenario(seed)));
            prop_assert!(parallel == reference, "scenario differs at {} threads", threads);
        }
    }

    fn aggregate_and_sampled_scenarios_are_thread_count_invariant(seed in 1u64..1_000_000) {
        // One year around Xmas 2018: the market stepped on the stage thread
        // from two threads up, interleaved with the observer at one.
        for fidelity in [Fidelity::Aggregate, Fidelity::PacketSampled { per_week: 200 }] {
            let config = short_config(seed, Date::new(2018, 6, 4), Date::new(2019, 4, 1), fidelity);
            let reference = with_threads(1, || Scenario::run(config.clone()));
            prop_assert!(reference.honeypot.global.total() > 0.0);
            let reference = whole(&reference);
            for threads in [2, 4, 8] {
                let parallel = whole(&with_threads(threads, || Scenario::run(config.clone())));
                prop_assert!(parallel == reference, "{:?} differs at {} threads", fidelity, threads);
            }
        }
    }

    fn observe_honeypot_on_a_rebrand_is_thread_count_invariant(seed in 1u64..1_000_000) {
        // A takedown, then a rebrand that revives the closed booter: the
        // population the observer mirrors is reworked mid-run.
        let spec = builtin_scenarios()
            .into_iter()
            .find(|s| s.name == "rebrand_migration")
            .expect("built-in rebrand scenario");
        for fidelity in [Fidelity::Aggregate, Fidelity::FullPackets { per_week: 8 }] {
            let mut config =
                short_config(seed, Date::new(2017, 8, 7), Date::new(2017, 11, 27), fidelity);
            config.market.scenario = Some(spec.clone());
            let reference = whole(&with_threads(1, || observe_honeypot(config.clone())));
            let full = with_threads(1, || Scenario::run(config.clone()));
            prop_assert!(full.honeypot.global.total() > 0.0);
            prop_assert!(whole(&full.honeypot) == reference, "{:?}: the two drivers differ", fidelity);
            for threads in [2, 4, 8] {
                let parallel = whole(&with_threads(threads, || observe_honeypot(config.clone())));
                prop_assert!(parallel == reference, "{:?} differs at {} threads", fidelity, threads);
            }
        }
    }
}

forall! {
    #![cases(2)]

    fn country_coefficients_and_table1_are_thread_count_invariant(seed in 1u64..1_000_000) {
        let scenario = Scenario::run(ScenarioConfig {
            market: MarketConfig {
                scale: 0.02,
                seed,
                ..MarketConfig::default()
            },
            fidelity: Fidelity::Aggregate,
            ..ScenarioConfig::default()
        });
        let cal = Calibration::default();
        let cfg = PipelineConfig::default();
        let countries = Calibration::table2_countries();
        // Per-country coefficient vectors, as raw f64 bits.
        let betas = |threads: usize| -> Vec<Vec<u64>> {
            with_threads(threads, || {
                fit_countries(&scenario.honeypot, &cal, &countries, &cfg)
                    .unwrap()
                    .iter()
                    .map(|r| r.model.fit.fit.beta.iter().map(|b| b.to_bits()).collect())
                    .collect()
            })
        };
        let t1 = |threads: usize| -> String {
            with_threads(threads, || {
                table1(&fit_global(&scenario.honeypot, &cal, &cfg).unwrap())
            })
        };
        let ref_betas = betas(1);
        let ref_t1 = t1(1);
        prop_assert_eq!(ref_betas.len(), countries.len());
        for threads in [2, 4, 8] {
            prop_assert_eq!(&betas(threads), &ref_betas, "betas at {} threads", threads);
            prop_assert_eq!(&t1(threads), &ref_t1, "table1 at {} threads", threads);
        }
    }
}
