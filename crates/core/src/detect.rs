//! Automated intervention detection.
//!
//! The paper added dummy variables "for all periods in the time series
//! which drop significantly below the modelled series", tuned by hand.
//! This module automates that procedure:
//!
//! 1. fit a baseline NB model (trend + seasonality + Easter, no
//!    interventions);
//! 2. scan the Pearson residuals for maximal runs of consecutive weeks
//!    below a z-threshold;
//! 3. greedily add the run with the deepest cumulative drop as a dummy,
//!    refit, and keep it if the likelihood-ratio test accepts it;
//! 4. repeat until no candidate survives or the window budget is spent.
//!
//! Detected windows are matched against the §2 event timeline so the
//! "drops correspond closely to \[police\] events" claim of the paper can
//! be checked mechanically.

use crate::pipeline::{fit_series, PipelineConfig, PipelineError};
use booters_glm::irls::lr_test;
use booters_market::events;
use booters_timeseries::{Date, InterventionWindow, WeeklySeries};

/// Options for [`detect_interventions`].
#[derive(Debug, Clone, Copy)]
pub struct DetectOptions {
    /// Standardised-residual threshold for a week to count as "below the
    /// model" (negative).
    pub z_threshold: f64,
    /// Minimum run length in weeks.
    pub min_run: usize,
    /// Maximum number of windows to add.
    pub max_windows: usize,
    /// LR-test significance level for keeping a window.
    pub alpha: f64,
}

impl Default for DetectOptions {
    fn default() -> Self {
        DetectOptions {
            z_threshold: -0.8,
            min_run: 2,
            max_windows: 8,
            alpha: 0.01,
        }
    }
}

/// One detected drop window.
#[derive(Debug, Clone)]
pub struct DetectedWindow {
    /// Monday of the first affected week.
    pub start: Date,
    /// Length in weeks.
    pub duration_weeks: usize,
    /// Fitted coefficient once included in the model.
    pub coef: f64,
    /// LR-test p-value for the window's inclusion.
    pub p_value: f64,
    /// Name of the §2 event whose date falls within `tolerance_weeks` of
    /// the window start (if any) — the paper's correspondence claim.
    pub matched_event: Option<String>,
}

/// Find the maximal below-threshold runs in the standardised residuals.
fn candidate_runs(
    series: &WeeklySeries,
    fitted: &[f64],
    alpha: f64,
    opts: &DetectOptions,
) -> Vec<(usize, usize, f64)> {
    // Standardise with the NB variance at the fitted mean.
    let z: Vec<f64> = series
        .values()
        .iter()
        .zip(fitted)
        .map(|(&y, &mu)| {
            let var = (mu + alpha * mu * mu).max(1e-9);
            (y - mu) / var.sqrt()
        })
        .collect();
    let mut runs = Vec::new();
    let mut i = 0;
    while i < z.len() {
        if z[i] < opts.z_threshold {
            let start = i;
            let mut depth = 0.0;
            while i < z.len() && z[i] < opts.z_threshold {
                depth += z[i];
                i += 1;
            }
            let len = i - start;
            if len >= opts.min_run {
                runs.push((start, len, depth));
            }
        } else {
            i += 1;
        }
    }
    // Deepest cumulative drop first.
    runs.sort_by(|a, b| a.2.total_cmp(&b.2));
    runs
}

/// Detect intervention-like drop windows in a weekly series.
///
/// Returns windows in detection order (deepest first). `cfg` supplies the
/// seasonal/trend design; its window bounds are ignored (the series passed
/// in is modelled as-is).
pub fn detect_interventions(
    series: &WeeklySeries,
    cfg: &PipelineConfig,
    opts: &DetectOptions,
) -> Result<Vec<DetectedWindow>, PipelineError> {
    let mut windows: Vec<InterventionWindow> = Vec::new();
    let mut detected: Vec<DetectedWindow> = Vec::new();

    // Each round's baseline is the previous round's accepted fit: it was
    // fitted on exactly the windows the round starts from.
    let mut base = fit_series(series, &windows, cfg)?;
    for round in 0..opts.max_windows {
        let runs = candidate_runs(series, &base.fit.fit.mu, base.fit.alpha, opts);
        // Skip runs overlapping an already-accepted window.
        let fresh = runs.into_iter().find(|&(start, len, _)| {
            let s = series.week_date(start);
            let e = series.week_date(start + len - 1);
            !windows.iter().any(|w| {
                let ws = w.effect_start();
                let we = w.effect_end();
                s < we && e >= ws
            })
        });
        let Some((start, len, _)) = fresh else { break };

        let name = format!("detected_{round}");
        let candidate = InterventionWindow::immediate(&name, series.week_date(start), len);
        let mut trial = windows.clone();
        trial.push(candidate.clone());
        let with = fit_series(series, &trial, cfg)?;
        let (_, p) = lr_test(base.fit.log_likelihood, with.fit.log_likelihood, 1);
        if p >= opts.alpha {
            break;
        }
        let coef = with
            .fit
            .inference
            .coef(&name)
            .ok_or_else(|| PipelineError::Argument(format!("fit has no `{name}` column")))?
            .coef;
        detected.push(DetectedWindow {
            start: series.week_date(start),
            duration_weeks: len,
            coef,
            p_value: p,
            matched_event: None,
        });
        windows = trial;
        base = with;
    }

    Ok(detected)
}

/// Match detected windows to the §2 event timeline: an event matches when
/// its date falls within `tolerance_weeks` weeks before the window start
/// (interventions precede drops).
pub fn match_events(detected: &mut [DetectedWindow], tolerance_weeks: i64) {
    let timeline = events::timeline();
    for d in detected.iter_mut() {
        let best = timeline
            .iter()
            .filter_map(|e| {
                let gap_days = d.start.days_since(e.date.week_start());
                let gap_weeks = gap_days / 7;
                if (-1..=tolerance_weeks).contains(&gap_weeks) {
                    Some((gap_weeks.abs(), e.name))
                } else {
                    None
                }
            })
            .min_by_key(|&(gap, _)| gap);
        d.matched_event = best.map(|(_, name)| name.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Fidelity, Scenario, ScenarioConfig};
    use booters_market::market::MarketConfig;
    use booters_stats::dist::NegativeBinomial;
    use booters_timeseries::design::DesignConfig;
    use booters_testkit::rngs::StdRng;
    use booters_testkit::SeedableRng;

    fn cfg() -> PipelineConfig {
        PipelineConfig::default()
    }

    #[test]
    fn detects_a_planted_drop() {
        // Clean synthetic series with one 8-week drop of −0.5 log units.
        let mut rng = StdRng::seed_from_u64(8);
        let start = Date::new(2016, 6, 6);
        let mut series = WeeklySeries::zeros(start, 140);
        for i in 0..140 {
            let drop = if (60..68).contains(&i) { -0.5 } else { 0.0 };
            let mu = (9.0 + 0.01 * i as f64 + drop).exp();
            series.set(i, NegativeBinomial::new(mu, 0.01).sample(&mut rng) as f64);
        }
        let found = detect_interventions(&series, &cfg(), &DetectOptions::default()).unwrap();
        assert!(!found.is_empty(), "no window detected");
        let w = &found[0];
        let true_start = start.add_days(7 * 60);
        let gap = (w.start.days_since(true_start) / 7).abs();
        assert!(gap <= 2, "detected at {} (true {true_start})", w.start);
        assert!((4..=10).contains(&w.duration_weeks), "len={}", w.duration_weeks);
        assert!(w.coef < -0.3, "coef={}", w.coef);
    }

    #[test]
    fn clean_series_yields_no_detections() {
        let mut rng = StdRng::seed_from_u64(10);
        let start = Date::new(2016, 6, 6);
        let mut series = WeeklySeries::zeros(start, 140);
        for i in 0..140 {
            let mu = (9.0 + 0.01 * i as f64).exp();
            series.set(i, NegativeBinomial::new(mu, 0.01).sample(&mut rng) as f64);
        }
        let found = detect_interventions(&series, &cfg(), &DetectOptions::default()).unwrap();
        assert!(found.len() <= 1, "spurious detections: {}", found.len());
    }

    #[test]
    fn scenario_detections_match_real_events() {
        // The paper's key claim: detected drops "correspond closely to
        // events discussed in §2".
        let s = Scenario::run(ScenarioConfig {
            market: MarketConfig {
                scale: 0.05,
                seed: 44,
                ..MarketConfig::default()
            },
            fidelity: Fidelity::Aggregate,
            ..ScenarioConfig::default()
        });
        let series = s
            .honeypot
            .global
            .window(Date::new(2016, 6, 6), Date::new(2019, 4, 1))
            .unwrap();
        let mut found = detect_interventions(&series, &cfg(), &DetectOptions::default()).unwrap();
        match_events(&mut found, 3);
        assert!(found.len() >= 2, "found only {} windows", found.len());
        let matched = found.iter().filter(|d| d.matched_event.is_some()).count();
        assert!(
            matched * 2 >= found.len(),
            "only {matched}/{} windows matched a real event",
            found.len()
        );
        // The two deepest drops should include Xmas2018 or HackForums.
        let names: Vec<String> = found
            .iter()
            .take(3)
            .filter_map(|d| d.matched_event.clone())
            .collect();
        assert!(
            names.iter().any(|n| n.contains("Xmas") || n.contains("Hackforums")),
            "top detections matched: {names:?}"
        );
    }

    #[test]
    fn detection_ignores_seasonal_dips_when_modelled() {
        // A series with strong June dips (seasonal) must not flag them
        // when the design includes seasonal dummies.
        let mut rng = StdRng::seed_from_u64(9);
        let start = Date::new(2016, 6, 6);
        let mut series = WeeklySeries::zeros(start, 140);
        let dcfg = DesignConfig::default();
        for i in 0..140 {
            let monday = series.week_date(i);
            let seasonal = if monday.month() == 6 { -0.3 } else { 0.0 };
            let mu = (9.0 + 0.01 * i as f64 + seasonal).exp();
            series.set(i, NegativeBinomial::new(mu, 0.01).sample(&mut rng) as f64);
        }
        let mut c = cfg();
        c.design = dcfg;
        let found = detect_interventions(&series, &c, &DetectOptions::default()).unwrap();
        // June happens three times in the window; none should be flagged.
        for d in &found {
            assert_ne!(d.start.month(), 6, "flagged a modelled seasonal dip at {}", d.start);
        }
    }
}
