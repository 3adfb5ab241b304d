//! Iteratively reweighted least squares — the shared GLM fitting engine.
//!
//! At each iteration, with current means μ and linear predictor η:
//!
//! * working response  z = η + (y − μ) / (dμ/dη)
//! * working weight    w = (dμ/dη)² / Var(μ)
//!
//! and β is updated by solving the weighted normal equations
//! `XᵀWX β = XᵀWz` via Cholesky (with automatic ridge rescue when a dummy
//! column is momentarily degenerate). Convergence is declared on relative
//! deviance change.

use crate::family::Family;
use crate::link::Link;
use crate::workspace::{fit_irls_into, IrlsWorkspace, WarmStart};
use booters_linalg::{LinalgError, Matrix};
use std::fmt;

/// Errors from GLM fitting.
#[derive(Debug, Clone, PartialEq)]
pub enum GlmError {
    /// Design and response dimensions do not match.
    DimensionMismatch {
        /// Rows of the design matrix.
        rows: usize,
        /// Length of the response vector.
        y_len: usize,
    },
    /// Fewer observations than parameters.
    TooFewObservations {
        /// Number of observations.
        n: usize,
        /// Number of parameters.
        p: usize,
    },
    /// The response contains values invalid for the family (e.g. negative
    /// counts for Poisson/NB).
    InvalidResponse {
        /// Index of the offending observation.
        at: usize,
    },
    /// The weighted least squares subproblem was unsolvable.
    Numerical(LinalgError),
    /// IRLS failed to converge within the iteration budget.
    NotConverged {
        /// Iterations performed.
        iterations: usize,
        /// Last relative deviance change observed.
        last_change: f64,
    },
}

impl fmt::Display for GlmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GlmError::DimensionMismatch { rows, y_len } => {
                write!(f, "design has {rows} rows but response has {y_len}")
            }
            GlmError::TooFewObservations { n, p } => {
                write!(f, "{n} observations for {p} parameters")
            }
            GlmError::InvalidResponse { at } => {
                write!(f, "invalid response value at index {at}")
            }
            GlmError::Numerical(e) => write!(f, "numerical failure: {e}"),
            GlmError::NotConverged {
                iterations,
                last_change,
            } => write!(
                f,
                "IRLS did not converge after {iterations} iterations (last relative change {last_change:.3e})"
            ),
        }
    }
}

impl std::error::Error for GlmError {}

impl From<LinalgError> for GlmError {
    fn from(e: LinalgError) -> Self {
        GlmError::Numerical(e)
    }
}

/// IRLS tuning options.
#[derive(Debug, Clone, Copy)]
pub struct IrlsOptions {
    /// Maximum number of IRLS iterations.
    pub max_iterations: usize,
    /// Convergence tolerance on relative deviance change.
    pub tolerance: f64,
}

impl Default for IrlsOptions {
    fn default() -> Self {
        IrlsOptions {
            max_iterations: 100,
            tolerance: 1e-10,
        }
    }
}

/// A converged GLM fit for a fixed family (no dispersion estimation here;
/// see [`crate::negbin`] for the profile-ML α loop on top).
#[derive(Debug, Clone)]
pub struct GlmFit {
    /// Estimated coefficients, one per design column.
    pub beta: Vec<f64>,
    /// Fitted means μ̂.
    pub mu: Vec<f64>,
    /// Linear predictor η̂.
    pub eta: Vec<f64>,
    /// Final IRLS working weights (the diagonal of W).
    pub weights: Vec<f64>,
    /// Total log-likelihood at the fit.
    pub log_likelihood: f64,
    /// Total deviance at the fit.
    pub deviance: f64,
    /// Number of IRLS iterations used.
    pub iterations: usize,
    /// Number of observations.
    pub n: usize,
    /// Number of parameters.
    pub p: usize,
}

impl GlmFit {

    /// Pearson residuals (y − μ̂)/√Var(μ̂) for the given family.
    fn pearson_residuals(&self, y: &[f64], family: &dyn Family) -> Vec<f64> {
        y.iter()
            .zip(&self.mu)
            .map(|(&yi, &mi)| (yi - mi) / family.variance(mi).sqrt())
            .collect()
    }

    /// Pearson χ² statistic (sum of squared Pearson residuals).
    pub fn pearson_chi2(&self, y: &[f64], family: &dyn Family) -> f64 {
        self.pearson_residuals(y, family).iter().map(|r| r * r).sum()
    }

    /// Deviance residuals sign(y−μ)·√dᵢ — the residuals used for the
    /// Ljung–Box serial-correlation diagnostic on fitted count models.
    pub fn deviance_residuals(&self, y: &[f64], family: &dyn Family) -> Vec<f64> {
        y.iter()
            .zip(&self.mu)
            .map(|(&yi, &mi)| {
                let d = family.unit_deviance(yi, mi).max(0.0).sqrt();
                if yi >= mi {
                    d
                } else {
                    -d
                }
            })
            .collect()
    }

    /// Akaike information criterion, counting `extra_params` parameters
    /// beyond the linear coefficients (1 for NB2's dispersion).
    pub fn aic(&self, extra_params: usize) -> f64 {
        2.0 * (self.p + extra_params) as f64 - 2.0 * self.log_likelihood
    }

    /// Bayesian information criterion.
    pub fn bic(&self, extra_params: usize) -> f64 {
        (self.p + extra_params) as f64 * (self.n as f64).ln() - 2.0 * self.log_likelihood
    }
}

/// Likelihood-ratio test of a nested pair of fits: returns (statistic,
/// p-value) for 2·(ℓ₁ − ℓ₀) on `df` degrees of freedom.
pub fn lr_test(ll_restricted: f64, ll_full: f64, df: usize) -> (f64, f64) {
    let stat = (2.0 * (ll_full - ll_restricted)).max(0.0);
    let p = booters_stats::dist::ChiSquared::new(df.max(1) as f64).sf(stat);
    (stat, p)
}

/// Fit a GLM by IRLS.
///
/// `x` is the n×p design (including any constant column), `y` the response.
/// Count families require non-negative responses.
pub fn fit_irls(
    x: &Matrix,
    y: &[f64],
    family: &dyn Family,
    link: &dyn Link,
    options: &IrlsOptions,
) -> Result<GlmFit, GlmError> {
    fit_irls_offset(x, y, None, family, link, options)
}

/// Fit a GLM by IRLS with an optional offset: η = Xβ + o.
///
/// The classic use is a log-exposure offset in count models — e.g.
/// modelling attack *rates* per active booter by passing
/// `o = ln(active booters)` — so coefficients keep their incidence-rate
/// interpretation while exposure varies.
pub fn fit_irls_offset(
    x: &Matrix,
    y: &[f64],
    offset: Option<&[f64]>,
    family: &dyn Family,
    link: &dyn Link,
    options: &IrlsOptions,
) -> Result<GlmFit, GlmError> {
    let mut ws = IrlsWorkspace::new();
    fit_irls_into(&mut ws, x, y, offset, family, link, options, WarmStart::Cold)?;
    Ok(ws.to_glm_fit())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::{Gaussian, PoissonFamily};
    use crate::link::{IdentityLink, LogLink};
    use booters_testkit::rngs::StdRng;
    use booters_testkit::SeedableRng;

    fn design_with_intercept(xs: &[f64]) -> Matrix {
        let mut m = Matrix::zeros(xs.len(), 2);
        for (i, &x) in xs.iter().enumerate() {
            m[(i, 0)] = 1.0;
            m[(i, 1)] = x;
        }
        m
    }

    #[test]
    fn gaussian_identity_recovers_ols() {
        // Exact line: IRLS with Gaussian/identity is OLS and converges in
        // one step.
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let y: Vec<f64> = xs.iter().map(|&x| 3.0 + 2.0 * x).collect();
        let x = design_with_intercept(&xs);
        let fit = fit_irls(&x, &y, &Gaussian, &IdentityLink, &IrlsOptions::default()).unwrap();
        assert!((fit.beta[0] - 3.0).abs() < 1e-8);
        assert!((fit.beta[1] - 2.0).abs() < 1e-8);
        assert!(fit.deviance < 1e-12);
    }

    #[test]
    fn poisson_log_recovers_known_coefficients() {
        // Simulate y ~ Poisson(exp(1 + 0.05 x)) and recover (1, 0.05).
        let mut rng = StdRng::seed_from_u64(42);
        let xs: Vec<f64> = (0..400).map(|i| (i % 40) as f64).collect();
        let y: Vec<f64> = xs
            .iter()
            .map(|&x| {
                let mu = (1.0 + 0.05 * x).exp();
                booters_stats::dist::Poisson::new(mu).sample(&mut rng) as f64
            })
            .collect();
        let x = design_with_intercept(&xs);
        let fit = fit_irls(&x, &y, &PoissonFamily, &LogLink, &IrlsOptions::default()).unwrap();
        assert!((fit.beta[0] - 1.0).abs() < 0.1, "b0={}", fit.beta[0]);
        assert!((fit.beta[1] - 0.05).abs() < 0.005, "b1={}", fit.beta[1]);
    }

    #[test]
    fn poisson_intercept_only_fits_mean() {
        // With only a constant, μ̂ = ȳ exactly (score equation).
        let y = vec![2.0, 4.0, 6.0, 8.0];
        let mut x = Matrix::zeros(4, 1);
        for i in 0..4 {
            x[(i, 0)] = 1.0;
        }
        let fit = fit_irls(&x, &y, &PoissonFamily, &LogLink, &IrlsOptions::default()).unwrap();
        assert!((fit.beta[0] - 5.0f64.ln()).abs() < 1e-8);
        assert!((fit.mu[0] - 5.0).abs() < 1e-7);
    }

    #[test]
    fn rejects_negative_counts() {
        let y = vec![1.0, -2.0, 3.0];
        let x = design_with_intercept(&[0.0, 1.0, 2.0]);
        assert!(matches!(
            fit_irls(&x, &y, &PoissonFamily, &LogLink, &IrlsOptions::default()),
            Err(GlmError::InvalidResponse { at: 1 })
        ));
    }

    #[test]
    fn rejects_dimension_mismatch() {
        let y = vec![1.0, 2.0];
        let x = design_with_intercept(&[0.0, 1.0, 2.0]);
        assert!(matches!(
            fit_irls(&x, &y, &PoissonFamily, &LogLink, &IrlsOptions::default()),
            Err(GlmError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn rejects_underdetermined() {
        let y = vec![1.0];
        let x = design_with_intercept(&[0.0]);
        assert!(matches!(
            fit_irls(&x, &y, &PoissonFamily, &LogLink, &IrlsOptions::default()),
            Err(GlmError::TooFewObservations { .. })
        ));
    }

    #[test]
    fn pearson_residuals_standardise() {
        let y = vec![2.0, 4.0, 6.0, 8.0];
        let mut x = Matrix::zeros(4, 1);
        for i in 0..4 {
            x[(i, 0)] = 1.0;
        }
        let fit = fit_irls(&x, &y, &PoissonFamily, &LogLink, &IrlsOptions::default()).unwrap();
        let r = fit.pearson_residuals(&y, &PoissonFamily);
        // (y - 5)/sqrt(5)
        assert!((r[0] - (2.0 - 5.0) / 5.0f64.sqrt()).abs() < 1e-6);
        let chi2 = fit.pearson_chi2(&y, &PoissonFamily);
        assert!((chi2 - r.iter().map(|v| v * v).sum::<f64>()).abs() < 1e-12);
    }

    #[test]
    fn offset_recovers_rate_model() {
        // y ~ Poisson(exposure * exp(b0 + b1 x)); fitting with
        // offset = ln(exposure) must recover (b0, b1) regardless of the
        // exposure pattern.
        let mut rng = StdRng::seed_from_u64(61);
        let n = 600;
        let xs: Vec<f64> = (0..n).map(|i| (i % 20) as f64 / 5.0).collect();
        let exposure: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
        let y: Vec<f64> = (0..n)
            .map(|i| {
                let mu = exposure[i] * (0.5 + 0.4 * xs[i]).exp();
                booters_stats::dist::Poisson::new(mu).sample(&mut rng) as f64
            })
            .collect();
        let x = design_with_intercept(&xs);
        let offset: Vec<f64> = exposure.iter().map(|e| e.ln()).collect();
        let fit = fit_irls_offset(
            &x,
            &y,
            Some(&offset),
            &PoissonFamily,
            &LogLink,
            &IrlsOptions::default(),
        )
        .unwrap();
        assert!((fit.beta[0] - 0.5).abs() < 0.08, "b0={}", fit.beta[0]);
        assert!((fit.beta[1] - 0.4).abs() < 0.04, "b1={}", fit.beta[1]);
        // Without the offset the intercept absorbs mean exposure and is
        // biased upward.
        let no_offset =
            fit_irls(&x, &y, &PoissonFamily, &LogLink, &IrlsOptions::default()).unwrap();
        assert!(no_offset.beta[0] > fit.beta[0] + 0.5);
    }

    #[test]
    fn offset_length_checked() {
        let y = vec![1.0, 2.0, 3.0];
        let x = design_with_intercept(&[0.0, 1.0, 2.0]);
        let bad = vec![0.0; 2];
        assert!(matches!(
            fit_irls_offset(&x, &y, Some(&bad), &PoissonFamily, &LogLink, &IrlsOptions::default()),
            Err(GlmError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn aic_bic_penalise_parameters() {
        let y = vec![2.0, 4.0, 6.0, 8.0, 3.0, 5.0, 7.0, 4.0];
        let mut x = Matrix::zeros(8, 1);
        for i in 0..8 {
            x[(i, 0)] = 1.0;
        }
        let fit = fit_irls(&x, &y, &PoissonFamily, &LogLink, &IrlsOptions::default()).unwrap();
        assert!((fit.aic(0) - (2.0 - 2.0 * fit.log_likelihood)).abs() < 1e-12);
        assert!(fit.aic(1) > fit.aic(0));
        // BIC's per-parameter penalty ln(8) ≈ 2.08 exceeds AIC's 2.
        assert!(fit.bic(0) > fit.aic(0));
    }

    #[test]
    fn deviance_residuals_sign_and_magnitude() {
        let y = vec![2.0, 8.0];
        let mut x = Matrix::zeros(2, 1);
        x[(0, 0)] = 1.0;
        x[(1, 0)] = 1.0;
        let fit = fit_irls(&x, &y, &PoissonFamily, &LogLink, &IrlsOptions::default()).unwrap();
        let r = fit.deviance_residuals(&y, &PoissonFamily);
        assert!(r[0] < 0.0 && r[1] > 0.0); // below/above the fitted mean 5
        let dev: f64 = r.iter().map(|v| v * v).sum();
        assert!((dev - fit.deviance).abs() < 1e-9);
    }

    #[test]
    fn lr_test_basics() {
        let (stat, p) = lr_test(-100.0, -90.0, 1);
        assert!((stat - 20.0).abs() < 1e-12);
        assert!(p < 1e-4);
        let (stat0, p0) = lr_test(-90.0, -90.0, 1);
        assert_eq!(stat0, 0.0);
        assert!((p0 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn error_display_is_readable() {
        let e = GlmError::NotConverged {
            iterations: 100,
            last_change: 0.5,
        };
        assert!(e.to_string().contains("did not converge"));
    }
}
