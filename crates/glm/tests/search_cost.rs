//! The cost of the profile-α search, counted in IRLS solves.
//!
//! A paper-shaped NB2 fit (148 weeks × 19 columns) makes one Poisson
//! pre-fit, a handful of profile-score evaluations to bracket and polish
//! the root, and one final solve at α̂. The count comes from the
//! `glm.irls_fits` counter, so this lives in its own test binary: the
//! metrics registry is process-wide and another test's fits would
//! pollute it.

use booters_glm::negbin::{fit_negbin, NegBinOptions};
use booters_linalg::Matrix;
use booters_stats::dist::NegativeBinomial;
use booters_testkit::rngs::StdRng;
use booters_testkit::SeedableRng;
use booters_timeseries::design::{its_design, DesignConfig};
use booters_timeseries::{Date, InterventionWindow, WeeklySeries};

/// The paper's design (5 interventions + Easter + 11 seasonals + trend +
/// constant) over its 148-week window, with NB2 counts around a trend.
fn paper_problem(seed: u64) -> (Matrix, Vec<f64>, Vec<String>) {
    let series = WeeklySeries::covering(Date::new(2016, 6, 6), Date::new(2019, 4, 1));
    let windows = vec![
        InterventionWindow::immediate("xmas", Date::new(2018, 12, 19), 10),
        InterventionWindow::delayed("webstresser", Date::new(2018, 4, 24), 2, 3),
        InterventionWindow::immediate("mirai", Date::new(2018, 10, 26), 8),
        InterventionWindow::immediate("hackforums", Date::new(2016, 10, 28), 13),
        InterventionWindow::immediate("vdos", Date::new(2017, 12, 19), 3),
    ];
    let design = its_design(&series, &windows, &DesignConfig::default());
    let mut rng = StdRng::seed_from_u64(seed);
    let y = (0..series.len())
        .map(|i| {
            let mu = (10.0 + 0.01 * i as f64).exp();
            NegativeBinomial::new(mu, 0.01).sample(&mut rng) as f64
        })
        .collect();
    (design.x, y, design.names)
}

#[test]
fn paper_shaped_fit_makes_at_most_twelve_irls_solves() {
    booters_obs::set_enabled(true);
    for seed in 1..=8 {
        let (x, y, names) = paper_problem(seed);
        booters_obs::reset();
        fit_negbin(&x, &y, &names, &NegBinOptions::default()).unwrap();
        let snap = booters_obs::snapshot();
        assert_eq!(snap.counter("glm.negbin_fits"), 1);
        let solves = snap.counter("glm.irls_fits");
        assert!(solves <= 12, "seed {seed}: {solves} IRLS solves");
    }
}
