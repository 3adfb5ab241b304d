#![allow(clippy::field_reassign_with_default)]
//! Property-based tests for the market simulator: sampling kernels,
//! conservation laws and concentration metrics.

use booters_market::concentration::{herfindahl, top_k_share};
use booters_market::market::{sample_binomial, sample_multinomial, MarketConfig, MarketSim};
use booters_market::scn::builtin_scenarios;
use booters_market::shocks::ScenarioSpec;
use booters_market::Calibration;
use booters_timeseries::Date;
use booters_testkit::strategy::prop;
use booters_testkit::{any, forall, prop_assert, prop_assert_eq};
use booters_testkit::rngs::StdRng;
use booters_testkit::SeedableRng;

forall! {
    #![cases(64)]

    fn binomial_sample_within_bounds(n in 0u64..1_000_000, p in 0.0..1.0f64, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = sample_binomial(&mut rng, n, p);
        prop_assert!(k <= n);
    }

    fn multinomial_conserves(
        n in 0u64..500_000,
        weights in prop::collection::vec(0.0..10.0f64, 1..12),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let out = sample_multinomial(&mut rng, n, &weights);
        prop_assert_eq!(out.len(), weights.len());
        if weights.iter().sum::<f64>() > 0.0 {
            prop_assert_eq!(out.iter().sum::<u64>(), n);
        }
        // Zero-weight cells get nothing (except the final remainder cell,
        // which absorbs rounding only when it has weight).
        for (i, (&w, &k)) in weights.iter().zip(&out).enumerate() {
            if w == 0.0 && i != weights.len() - 1 {
                prop_assert_eq!(k, 0, "cell {} got {} with zero weight", i, k);
            }
        }
    }

    fn herfindahl_bounds(volumes in prop::collection::vec(0u64..10_000, 1..30)) {
        let h = herfindahl(&volumes);
        if h.is_finite() {
            let n = volumes.iter().filter(|&&v| v > 0).count() as f64;
            prop_assert!(h <= 1.0 + 1e-12);
            prop_assert!(h >= 1.0 / n - 1e-12, "h={h} below 1/n");
            // Top-1 share bounds HHI: s1² ≤ HHI ≤ s1.
            let s1 = top_k_share(&volumes, 1);
            prop_assert!(s1 * s1 <= h + 1e-12);
            prop_assert!(h <= s1 + 1e-12);
        }
    }

    fn weekly_outputs_always_consistent(seed in any::<u64>(), scale_milli in 1u64..20) {
        let mut cal = Calibration::default();
        // Short window keeps each case fast.
        cal.scenario_start = Date::new(2018, 10, 1);
        cal.scenario_end = Date::new(2019, 1, 7);
        let mut sim = MarketSim::new(MarketConfig {
            calibration: cal,
            scale: scale_milli as f64 / 1000.0,
            seed,
            ..MarketConfig::default()
        });
        while let Some(w) = sim.step() {
            prop_assert_eq!(w.total, w.country_counts.iter().sum::<u64>());
            prop_assert_eq!(w.total, w.protocol_counts.iter().sum::<u64>());
            let alloc: u64 = w.booter_attacks.iter().map(|(_, n)| n).sum();
            prop_assert_eq!(w.total, alloc);
            let joint: u64 = w.country_protocol.iter().flatten().sum();
            prop_assert_eq!(w.total, joint);
        }
    }

    fn displayed_counters_respect_artifacts(seed in any::<u64>()) {
        let mut cal = Calibration::default();
        cal.scenario_start = Date::new(2018, 1, 1);
        cal.scenario_end = Date::new(2018, 4, 2);
        let mut sim = MarketSim::new(MarketConfig {
            calibration: cal,
            scale: 0.01,
            seed,
            ..MarketConfig::default()
        });
        while let Some(w) = sim.step() {
            for (_, c) in &w.displayed_counters {
                // Counters are plain u64s; the rounds-to-1000 artifact
                // implies divisibility.
                prop_assert!(*c < u64::MAX / 2);
            }
        }
    }
}

forall! {
    #![cases(20)]

    /// The premises of the scenario observer's population mirror
    /// (DESIGN.md §5j): after every step the population has only grown,
    /// each booter's id is its index, and the fields the observer reads
    /// (`avoids_honeypots`, `protocols`) still hold their values at
    /// spawn — for the paper's own history, the shockless baseline and
    /// every built-in scenario, whose rebrands and displacements rework
    /// the population.
    fn population_only_grows_and_keeps_observed_fields_from_spawn(
        seed in any::<u64>(),
        which in 0usize..10,
    ) {
        let scenario = match which {
            0 => None,
            1 => Some(ScenarioSpec::baseline()),
            k => Some(builtin_scenarios().swap_remove(k - 2)),
        };
        let mut sim = MarketSim::new(MarketConfig {
            scale: 0.01,
            seed,
            scenario,
            ..MarketConfig::default()
        });
        let mut at_spawn = Vec::new();
        loop {
            let booters = sim.population().booters();
            prop_assert!(booters.len() >= at_spawn.len(), "the population shrank");
            for (i, b) in booters.iter().enumerate() {
                prop_assert_eq!(b.id as usize, i, "a booter's id is its index");
            }
            for (b, (avoids, protocols)) in booters.iter().zip(&at_spawn) {
                prop_assert_eq!(b.avoids_honeypots, *avoids, "booter {} avoids_honeypots", b.id);
                prop_assert_eq!(&b.protocols, protocols, "booter {} protocols", b.id);
            }
            at_spawn.extend(
                booters[at_spawn.len()..]
                    .iter()
                    .map(|b| (b.avoids_honeypots, b.protocols.clone())),
            );
            if sim.step().is_none() {
                break;
            }
        }
        prop_assert!(at_spawn.len() > 46, "no booter was born in {} weeks", sim.n_weeks());
    }
}
