//! Ablations of the paper's modelling choices.
//!
//! Three design decisions carry the paper's results; each is ablated here
//! so the benches can quantify its contribution:
//!
//! * **Seasonality** — §5 notes the concurrent Kopp et al. study found a
//!   *smaller* Xmas2018 effect, "possibly because they only model attacks
//!   over the period Oct 2018 to Jan 2019, thereby ignoring seasonal
//!   effects". [`kopp_style_short_window`] reproduces that design.
//! * **Negative binomial vs Poisson** — §4's overdispersion argument.
//!   [`poisson_vs_negbin`] compares standard errors and information
//!   criteria.
//! * **The Easter term** — the moving-holiday component.
//!   [`with_without_easter`] measures what it buys.

use crate::datasets::HoneypotDataset;
use crate::pipeline::{
    fit_series, global_intervention_windows, window_of, with_fit_workspace, PipelineConfig,
    PipelineError,
};
use booters_glm::irls::IrlsOptions;
use booters_glm::poisson::fit_poisson_with;
use booters_market::calibration::Calibration;
use booters_timeseries::design::{its_design, DesignConfig};
use booters_timeseries::{Date, InterventionWindow};

/// The intervention the Kopp-style and dispersion ablations measure.
const XMAS: &str = "Xmas 2018 event";

/// The error for a model without the [`XMAS`] term, which a calibration
/// that lacks the Xmas 2018 intervention produces.
fn no_xmas(model: &str) -> PipelineError {
    PipelineError::Argument(format!(
        "the {model} has no `{XMAS}` term: the calibration lacks the Xmas 2018 intervention"
    ))
}

/// Result of the Kopp-style ablation on the Xmas2018 effect.
#[derive(Debug, Clone, Copy)]
pub struct ShortWindowAblation {
    /// Effect (% change) from the full seasonal model over the full
    /// window — the paper's design.
    pub full_model_pct: f64,
    /// Effect from a model fit only on Oct 2018 – Jan 2019 without
    /// seasonal terms — the Kopp et al. design.
    pub short_window_pct: f64,
}

impl ShortWindowAblation {
    /// The paper's §5 expectation: the short-window design understates
    /// the drop (December's seasonal high is misread as the baseline).
    pub fn short_window_understates(&self) -> bool {
        self.short_window_pct > self.full_model_pct
    }
}

/// Reproduce the Kopp et al. design: fit the Xmas2018 intervention on a
/// short Oct 2018 – Jan 2019 window without seasonal adjustment, and
/// compare with the full model.
pub fn kopp_style_short_window(
    ds: &HoneypotDataset,
    cal: &Calibration,
    cfg: &PipelineConfig,
) -> Result<ShortWindowAblation, PipelineError> {
    // Full design (paper).
    let series = window_of(&ds.global, "global", cfg.window_start, cfg.window_end)?;
    let full = fit_series(&series, &global_intervention_windows(cal), cfg)?;
    let full_pct = full
        .intervention_effects()
        .into_iter()
        .find(|e| e.name == XMAS)
        .ok_or_else(|| no_xmas("full model"))?
        .mean_pct;

    // Kopp-style: Oct 2018 – end of Jan 2019, trend + dummy only.
    let short_series = window_of(&ds.global, "global", Date::new(2018, 10, 1), Date::new(2019, 2, 4))?;
    let window = InterventionWindow::immediate(XMAS, Date::new(2018, 12, 19), 6);
    let mut short_cfg = cfg.clone();
    short_cfg.design = DesignConfig {
        seasonal: false,
        easter: false,
        trend: true,
        easter_window: (7, 7),
    };
    let short = fit_series(&short_series, &[window], &short_cfg)?;
    let short_pct = short
        .intervention_effects()
        .into_iter()
        .find(|e| e.name == XMAS)
        .ok_or_else(|| no_xmas("short-window model"))?
        .mean_pct;

    Ok(ShortWindowAblation {
        full_model_pct: full_pct,
        short_window_pct: short_pct,
    })
}

/// Poisson vs NB2 comparison on the paper's global model.
#[derive(Debug, Clone, Copy)]
pub struct DispersionAblation {
    /// NB2 dispersion estimate.
    pub alpha: f64,
    /// Xmas2018 standard error under Poisson.
    pub poisson_se: f64,
    /// Xmas2018 standard error under NB2.
    pub negbin_se: f64,
    /// Poisson AIC.
    pub poisson_aic: f64,
    /// NB2 AIC (counting α as a parameter).
    pub negbin_aic: f64,
}

/// Quantify the §4 model choice: Poisson SEs are fantasy on overdispersed
/// counts; NB2 pays one parameter and wins on AIC by a mile.
pub fn poisson_vs_negbin(
    ds: &HoneypotDataset,
    cal: &Calibration,
    cfg: &PipelineConfig,
) -> Result<DispersionAblation, PipelineError> {
    let series = window_of(&ds.global, "global", cfg.window_start, cfg.window_end)?;
    let windows = global_intervention_windows(cal);
    let nb = fit_series(&series, &windows, cfg)?;
    let po = {
        // A model fit like `fit_series`'s, timed and counted as one.
        booters_obs::span!("fit");
        let design = its_design(&series, &windows, &cfg.design);
        with_fit_workspace(|ws| {
            fit_poisson_with(
                ws,
                &design.x,
                series.values(),
                &design.names,
                &IrlsOptions::default(),
                0.95,
            )
        })?
    };
    Ok(DispersionAblation {
        alpha: nb.fit.alpha,
        poisson_se: po
            .inference
            .coef(XMAS)
            .ok_or_else(|| no_xmas("Poisson model"))?
            .std_error,
        negbin_se: nb
            .fit
            .inference
            .coef(XMAS)
            .ok_or_else(|| no_xmas("NB2 model"))?
            .std_error,
        poisson_aic: po.fit.aic(0),
        negbin_aic: nb.fit.fit.aic(1),
    })
}

/// Easter-term ablation: log-likelihoods with and without the component.
#[derive(Debug, Clone, Copy)]
pub struct EasterAblation {
    /// Log-likelihood with the Easter dummy.
    pub with_easter_ll: f64,
    /// Log-likelihood without.
    pub without_easter_ll: f64,
}

/// Fit the global model with and without the Easter component.
pub fn with_without_easter(
    ds: &HoneypotDataset,
    cal: &Calibration,
    cfg: &PipelineConfig,
) -> Result<EasterAblation, PipelineError> {
    let series = window_of(&ds.global, "global", cfg.window_start, cfg.window_end)?;
    let windows = global_intervention_windows(cal);
    let with = fit_series(&series, &windows, cfg)?;
    let mut no_easter = cfg.clone();
    no_easter.design.easter = false;
    let without = fit_series(&series, &windows, &no_easter)?;
    Ok(EasterAblation {
        with_easter_ll: with.fit.log_likelihood,
        without_easter_ll: without.fit.log_likelihood,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Fidelity, Scenario, ScenarioConfig};
    use booters_market::events::EventId;
    use booters_market::market::MarketConfig;

    fn scenario() -> Scenario {
        Scenario::run(ScenarioConfig {
            market: MarketConfig {
                scale: 0.05,
                seed: 60,
                ..MarketConfig::default()
            },
            fidelity: Fidelity::Aggregate,
            ..ScenarioConfig::default()
        })
    }

    #[test]
    fn short_window_understates_the_xmas_effect() {
        let s = scenario();
        let a = kopp_style_short_window(&s.honeypot, &Calibration::default(), &PipelineConfig::default())
            .unwrap();
        assert!(a.full_model_pct < -20.0, "full={}", a.full_model_pct);
        assert!(
            a.short_window_understates(),
            "short={} full={} — §5 expects the short design to be shallower",
            a.short_window_pct,
            a.full_model_pct
        );
    }

    #[test]
    fn a_calibration_without_xmas_is_an_argument_error() {
        let s = scenario();
        let mut cal = Calibration::default();
        cal.interventions.retain(|ic| ic.id != EventId::Xmas2018);
        let cfg = PipelineConfig::default();
        for result in [
            kopp_style_short_window(&s.honeypot, &cal, &cfg).map(|_| ()),
            poisson_vs_negbin(&s.honeypot, &cal, &cfg).map(|_| ()),
        ] {
            match result {
                Err(PipelineError::Argument(msg)) => {
                    assert!(msg.contains("lacks the Xmas 2018 intervention"), "{msg}")
                }
                other => panic!("expected an argument error, got {other:?}"),
            }
        }
    }

    #[test]
    fn negbin_beats_poisson_on_aic_with_wider_se() {
        let s = scenario();
        let a = poisson_vs_negbin(&s.honeypot, &Calibration::default(), &PipelineConfig::default())
            .unwrap();
        assert!(a.negbin_aic < a.poisson_aic - 100.0, "nb={} po={}", a.negbin_aic, a.poisson_aic);
        assert!(a.negbin_se > 3.0 * a.poisson_se, "nb_se={} po_se={}", a.negbin_se, a.poisson_se);
        assert!(a.alpha > 0.001);
    }

    #[test]
    fn easter_ablation_is_small_but_nonnegative() {
        // The DGP's Easter coefficient (−0.016) is tiny, so the LL gain is
        // small — but adding a parameter can never reduce the maximised
        // likelihood (up to optimiser tolerance).
        let s = scenario();
        let a = with_without_easter(&s.honeypot, &Calibration::default(), &PipelineConfig::default())
            .unwrap();
        assert!(a.with_easter_ll >= a.without_easter_ll - 0.5);
        assert!((a.with_easter_ll - a.without_easter_ll).abs() < 20.0);
    }
}
