//! Poisson regression — the overdispersion baseline.
//!
//! The paper explicitly rejects Poisson in favour of negative binomial
//! because DoS attack counts are overdispersed; we keep the Poisson fitter
//! both as the NB starting point and as the ablation baseline
//! (`booters_core::ablation::poisson_vs_negbin` compares the two).

use crate::family::PoissonFamily;
use crate::inference::{wald_inference, CovarianceKind, FitInference};
use crate::irls::{GlmError, GlmFit, IrlsOptions};
use crate::link::LogLink;
use crate::workspace::{fit_irls_into, IrlsWorkspace, WarmStart};
use booters_linalg::Matrix;

/// A fitted Poisson regression.
#[derive(Debug, Clone)]
pub struct PoissonFit {
    /// The converged IRLS fit.
    pub fit: GlmFit,
    /// Wald inference for the coefficients.
    pub inference: FitInference,
}

impl PoissonFit {
    /// Pearson dispersion statistic χ²/(n−p); values ≫ 1 indicate
    /// overdispersion and motivate the NB model.
    pub fn dispersion(&self, y: &[f64]) -> f64 {
        let chi2 = self.fit.pearson_chi2(y, &PoissonFamily);
        chi2 / (self.fit.n - self.fit.p).max(1) as f64
    }
}

/// Fit a Poisson regression of `y` on `x` with column `names`.
pub fn fit_poisson(
    x: &Matrix,
    y: &[f64],
    names: &[String],
    irls: &IrlsOptions,
    level: f64,
) -> Result<PoissonFit, GlmError> {
    let mut ws = IrlsWorkspace::new();
    fit_poisson_with(&mut ws, x, y, names, irls, level)
}

/// Fit a Poisson regression into a caller-owned workspace (see
/// [`IrlsWorkspace`]); results are bit-identical to [`fit_poisson`].
pub fn fit_poisson_with(
    ws: &mut IrlsWorkspace,
    x: &Matrix,
    y: &[f64],
    names: &[String],
    irls: &IrlsOptions,
    level: f64,
) -> Result<PoissonFit, GlmError> {
    fit_irls_into(ws, x, y, None, &PoissonFamily, &LogLink, irls, WarmStart::Cold)?;
    let fit = ws.to_glm_fit();
    let inference = wald_inference(x, y, &fit, names, CovarianceKind::ModelBased, level)?;
    Ok(PoissonFit { fit, inference })
}

#[cfg(test)]
mod tests {
    use super::*;
    use booters_testkit::rngs::StdRng;
    use booters_testkit::SeedableRng;

    #[test]
    fn fits_and_reports_dispersion_near_one_for_poisson_data() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 500;
        let mut x = Matrix::zeros(n, 2);
        let mut y = vec![0.0; n];
        for i in 0..n {
            let xi = (i % 25) as f64 / 5.0;
            x[(i, 0)] = 1.0;
            x[(i, 1)] = xi;
            let mu = (1.0 + 0.3 * xi).exp();
            y[i] = booters_stats::dist::Poisson::new(mu).sample(&mut rng) as f64;
        }
        let names = vec!["_cons".into(), "x".into()];
        let fit = fit_poisson(&x, &y, &names, &IrlsOptions::default(), 0.95).unwrap();
        let disp = fit.dispersion(&y);
        assert!((disp - 1.0).abs() < 0.25, "dispersion={disp}");
        assert!((fit.inference.coef("x").unwrap().coef - 0.3).abs() < 0.03);
    }

    #[test]
    fn dispersion_flags_overdispersed_counts() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 500;
        let mut x = Matrix::zeros(n, 1);
        let mut y = vec![0.0; n];
        for i in 0..n {
            x[(i, 0)] = 1.0;
            y[i] = booters_stats::dist::NegativeBinomial::new(30.0, 1.0).sample(&mut rng) as f64;
        }
        let fit = fit_poisson(&x, &y, &["_cons".into()], &IrlsOptions::default(), 0.95).unwrap();
        assert!(fit.dispersion(&y) > 10.0);
    }
}
