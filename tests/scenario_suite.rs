//! End-to-end goldens for the intervention-scenario library.
//!
//! The acceptance bar (DESIGN.md §5j): every built-in scenario runs the
//! full market → honeypot → NB2 pipeline, and every rendered suite
//! output is **byte-identical** across thread counts — the same
//! determinism contract (§5b) the rest of the repo is held to. On top of the byte
//! contract, the fitted outcomes must tell the documented qualitative
//! story (EXPERIMENTS.md): rebranding claws back most of a takedown's
//! suppression, payment friction sustains it.

use booting_the_booters::core::datasets::HoneypotDataset;
use booting_the_booters::core::scenario::{observe_honeypot, Fidelity, Scenario, ScenarioConfig};
use booting_the_booters::core::scenarios::{
    run_builtin_suite, ScenarioOutcome, ScenarioRunConfig, ScenarioSuite,
};
use booting_the_booters::market::market::MarketConfig;
use booting_the_booters::market::scn::builtin_scenarios;
use booting_the_booters::market::shocks::ScenarioSpec;
use booting_the_booters::par::with_threads;
use booting_the_booters::timeseries::Date;

/// Small scale keeps the nine simulate+refit runs test-sized; the
/// deltas and fitted percentages are scale-free.
fn cfg() -> ScenarioRunConfig {
    ScenarioRunConfig {
        scale: 0.02,
        ..ScenarioRunConfig::default()
    }
}

fn rendered(suite: &ScenarioSuite) -> (String, String, String) {
    (
        suite.summary_csv(),
        suite.coefficients_csv(),
        suite.details_text(),
    )
}

fn outcome<'a>(suite: &'a ScenarioSuite, name: &str) -> &'a ScenarioOutcome {
    suite
        .outcomes
        .iter()
        .find(|o| o.spec.name == name)
        .unwrap_or_else(|| panic!("missing scenario {name}"))
}

#[test]
fn builtin_suite_is_byte_identical_across_threads() {
    let run = || run_builtin_suite(&cfg()).expect("suite");
    let reference = with_threads(1, run);
    let ref_out = rendered(&reference);
    assert_eq!(reference.outcomes.len(), 8, "all built-ins must run");
    let suite = with_threads(4, run);
    assert_eq!(
        rendered(&suite),
        ref_out,
        "threads=4 diverged from the reference"
    );

    // --- Qualitative outcomes, asserted on the reference run ---------

    // The paper's WebStresser-takedown dip is recovered from the
    // re-simulated world, at roughly the injected -21%.
    let ws = outcome(&reference, "webstresser");
    let dip = ws
        .effects
        .iter()
        .find(|e| e.name == "s3_demand_shift")
        .expect("webstresser dip window");
    assert!(dip.significant(), "p={}", dip.p_value);
    assert!(
        dip.mean_pct > -35.0 && dip.mean_pct < -8.0,
        "webstresser dip {}%",
        dip.mean_pct
    );
    // The Dutch reprisal spike shows up in the NL country fit.
    let nl = ws
        .country_effects
        .iter()
        .find(|(c, _)| c.label() == "NL")
        .map(|(_, e)| e)
        .expect("NL fit");
    let reprisal = nl
        .iter()
        .find(|e| e.name == "s4_reprisal")
        .expect("reprisal window");
    assert!(
        reprisal.mean_pct > 40.0,
        "NL reprisal spike {}%",
        reprisal.mean_pct
    );

    // Payment friction sustains suppression: a long window, fitted
    // strongly negative and significant, with the largest total delta
    // among the purely-financial scenarios.
    let pf = outcome(&reference, "payment_friction");
    let pf_eff = &pf.effects[0];
    assert!(pf_eff.significant(), "p={}", pf_eff.p_value);
    assert!(
        pf_eff.mean_pct < -25.0,
        "payment friction fitted {}%",
        pf_eff.mean_pct
    );
    assert!(
        reference.delta_vs_baseline_pct(pf) < -2.0,
        "sustained suppression must dent the total"
    );

    // Rebrand/resurrection claws the suppression back: the takedown-
    // plus-rebrand scenario ends closer to baseline than payment
    // friction does.
    let rb = outcome(&reference, "rebrand_migration");
    assert!(
        reference.delta_vs_baseline_pct(rb) > reference.delta_vs_baseline_pct(pf),
        "rebranding must recover volume relative to sustained friction"
    );

    // PowerOFF: the domain seizure is a real, significant dip, and the
    // decaying deterrence means the suppression is deepest right after
    // the action and largely gone by the following year — read off the
    // trajectory, since the seizure and deterrence windows overlap too
    // much for the fit to split them cleanly.
    let po = outcome(&reference, "poweroff");
    let seizure = po
        .effects
        .iter()
        .find(|e| e.name == "s1_domain_seizure")
        .expect("seizure window");
    assert!(seizure.significant(), "p={}", seizure.p_value);
    assert!(seizure.mean_pct < -10.0, "seizure {}%", seizure.mean_pct);
    let shock_week = Date::new(2018, 6, 18)
        .days_since(reference.baseline.weekly.start()) as usize
        / 7;
    let ratio = |range: std::ops::Range<usize>| {
        let (mut s, mut b) = (0.0, 0.0);
        for w in range {
            s += po.weekly.values()[w];
            b += reference.baseline.weekly.values()[w];
        }
        s / b
    };
    let early = ratio(shock_week..shock_week + 8);
    let late = ratio(shock_week + 30..shock_week + 40);
    assert!(
        early < late - 0.1,
        "deterrence must decay: early ratio {early:.3}, late {late:.3}"
    );

    // The Christmas 2018 raids recover near the injected -32%.
    let xmas = outcome(&reference, "xmas2018");
    let xe = xmas
        .effects
        .iter()
        .find(|e| e.name == "s3_demand_shift")
        .expect("xmas window");
    assert!(xe.significant(), "p={}", xe.p_value);
    assert!(
        xe.mean_pct > -45.0 && xe.mean_pct < -20.0,
        "xmas dip {}%",
        xe.mean_pct
    );
}

/// Every series of a dataset as raw `f64` bits, so the comparison is
/// bit-exact (no float tolerance, NaN-safe).
fn bits(ds: &HoneypotDataset) -> Vec<Vec<u64>> {
    std::iter::once(&ds.global)
        .chain(&ds.by_country)
        .chain(&ds.by_protocol)
        .chain(&ds.country_protocol)
        .map(|s| s.values().iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn honeypot_only_driver_matches_the_full_scenario_bit_for_bit() {
    // The suite observes through the honeypot-only driver; the full
    // scenario path must have seen exactly the same honeypot.
    let specs: Vec<ScenarioSpec> = std::iter::once(ScenarioSpec::baseline())
        .chain(builtin_scenarios())
        .collect();
    assert_eq!(specs.len(), 9);
    for seed in [1u64, 7, 0xB00735, 0xDEAD_BEEF] {
        for spec in &specs {
            let config = ScenarioConfig {
                market: MarketConfig {
                    scale: 0.02,
                    seed,
                    scenario: Some(spec.clone()),
                    ..MarketConfig::default()
                },
                fidelity: Fidelity::Aggregate,
                ..ScenarioConfig::default()
            };
            let full = Scenario::run(config.clone());
            let only = observe_honeypot(config);
            assert!(full.honeypot.global.total() > 0.0, "seed={seed} {}", spec.name);
            assert!(
                bits(&only) == bits(&full.honeypot),
                "seed={seed} scenario={}: honeypot-only driver diverged",
                spec.name
            );
        }
    }
}
