//! Wald inference for fitted GLMs: standard errors, z statistics,
//! p-values, confidence intervals and incidence-rate ratios.
//!
//! Two covariance estimators are provided:
//!
//! * **Model-based** — the inverse expected information `(XᵀWX)⁻¹`, valid
//!   when the variance function is correctly specified.
//! * **HC1 sandwich** — `(XᵀWX)⁻¹ (Σ uᵢuᵢᵀ) (XᵀWX)⁻¹ · n/(n−p)` with score
//!   contributions uᵢ; robust to variance misspecification. This matches
//!   the "log-pseudolikelihood" language in the paper (Stata's `vce(robust)`).

use crate::irls::{GlmError, GlmFit};
use booters_linalg::{cholesky_with_ridge, Matrix};
use booters_stats::dist::{standard_normal_quantile, Normal};

/// Which covariance estimator to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CovarianceKind {
    /// Inverse expected information (classic ML standard errors).
    ModelBased,
    /// Heteroskedasticity-robust HC1 sandwich (Stata `vce(robust)`).
    RobustHc1,
}

/// Inference for a single coefficient.
#[derive(Debug, Clone, PartialEq)]
pub struct CoefEstimate {
    /// Column name.
    pub name: String,
    /// Point estimate.
    pub coef: f64,
    /// Standard error.
    pub std_error: f64,
    /// Wald z statistic.
    pub z: f64,
    /// Two-sided p-value.
    pub p_value: f64,
    /// Lower bound of the confidence interval.
    pub ci_lower: f64,
    /// Upper bound of the confidence interval.
    pub ci_upper: f64,
}

impl CoefEstimate {

    /// Percentage change in the expected count, `100·(exp(coef)−1)` —
    /// the "Mean −32%" numbers of Table 2.
    pub fn percent_change(&self) -> f64 {
        100.0 * (self.coef.exp() - 1.0)
    }

    /// Percentage-change confidence interval endpoints (lower, upper).
    pub fn percent_change_ci(&self) -> (f64, f64) {
        (
            100.0 * (self.ci_lower.exp() - 1.0),
            100.0 * (self.ci_upper.exp() - 1.0),
        )
    }

    /// Significance marker in the paper's notation: `**` for p < 0.01,
    /// `*` for p < 0.05, empty otherwise.
    pub fn stars(&self) -> &'static str {
        if self.p_value < 0.01 {
            "**"
        } else if self.p_value < 0.05 {
            "*"
        } else {
            ""
        }
    }
}

/// Full Wald inference for a fitted model.
#[derive(Debug, Clone)]
pub struct FitInference {
    /// Per-coefficient estimates, in design-column order.
    pub coefficients: Vec<CoefEstimate>,
    /// The covariance matrix used.
    pub covariance: Matrix,
    /// Which estimator produced it.
    pub kind: CovarianceKind,
    /// Confidence level (e.g. 0.95).
    pub level: f64,
}

impl FitInference {
    /// Look up a coefficient by name.
    pub fn coef(&self, name: &str) -> Option<&CoefEstimate> {
        self.coefficients.iter().find(|c| c.name == name)
    }
}

/// Joint Wald test that a block of coefficients is simultaneously zero:
/// W = βᵀ V⁻¹ β ~ χ²(k) with V the corresponding covariance block.
///
/// Used to test the five-intervention block of the paper's model as a
/// whole rather than coefficient by coefficient.
pub fn joint_wald_test(
    inference: &FitInference,
    names: &[&str],
) -> Option<booters_stats::tests::TestResult> {
    let idx: Vec<usize> = names
        .iter()
        .map(|n| inference.coefficients.iter().position(|c| &c.name == n))
        .collect::<Option<Vec<_>>>()?;
    let k = idx.len();
    if k == 0 {
        return None;
    }
    let mut v = Matrix::zeros(k, k);
    let mut beta = vec![0.0; k];
    for (a, &i) in idx.iter().enumerate() {
        beta[a] = inference.coefficients[i].coef;
        for (b, &j) in idx.iter().enumerate() {
            v[(a, b)] = inference.covariance[(i, j)];
        }
    }
    let (chol, _) = cholesky_with_ridge(&v, 14).ok()?;
    let solved = chol.solve(&beta).ok()?;
    let stat: f64 = beta.iter().zip(&solved).map(|(b, s)| b * s).sum();
    Some(booters_stats::tests::TestResult {
        statistic: stat,
        df: k as f64,
        p_value: booters_stats::dist::ChiSquared::new(k as f64).sf(stat),
    })
}

/// Compute Wald inference for an IRLS fit.
///
/// `x` must be the same design the fit used; `y` is needed for the robust
/// sandwich scores. `names` labels the columns.
pub fn wald_inference(
    x: &Matrix,
    y: &[f64],
    fit: &GlmFit,
    names: &[String],
    kind: CovarianceKind,
    level: f64,
) -> Result<FitInference, GlmError> {
    assert_eq!(names.len(), fit.p, "wald_inference: {} names for {} columns", names.len(), fit.p);
    assert!((0.5..1.0).contains(&level), "confidence level {level} out of range");

    // Bread: inverse expected information.
    let xtwx = x.xtwx(&fit.weights)?;
    let (chol, _ridge) = cholesky_with_ridge(&xtwx, 14)?;
    let bread = chol.inverse()?;

    let cov = match kind {
        CovarianceKind::ModelBased => bread,
        CovarianceKind::RobustHc1 => {
            // Scores for a GLM with canonical-style working weights:
            // uᵢ = xᵢ wᵢ (zᵢ − ηᵢ) where wᵢ(zᵢ−ηᵢ) = wᵢ(yᵢ−μᵢ)/(dμ/dη).
            // For log-link count models this reduces to xᵢ (yᵢ−μᵢ)/(1+αμᵢ).
            // We compute it generically as wᵢ·(yᵢ−μᵢ)/dᵢ with dᵢ = wᵢ·vᵢ/dᵢ
            // folded in via the stored weights: score scale sᵢ = wᵢ (yᵢ−μᵢ) / dᵢ
            // where dᵢ = dμ/dη. Using w = d²/v gives s = d(y−μ)/v.
            // We recover d from w·v = d², v from μ via the family — but the
            // fit does not carry the family, so we use the equivalent form
            // s = w · (y − μ) / d with d = sqrt(w · v). To stay family-free
            // we exploit that z − η = (y − μ)/d, so s = w (y − μ)/d = w·(z−η),
            // and (z−η) = (y−μ)/d. d is recoverable as w·v/d ... instead we
            // simply recompute d from η via the link-free identity below.
            //
            // In practice every model in this workspace uses the log link,
            // where d = μ, v = μ(1+αμ), w = μ/(1+αμ) and the score scale is
            // s = (y−μ)/(1+αμ) = w·(y−μ)/μ. The general identity
            // s = w·(y−μ)·(d/ (d²)) = w (y−μ)/d holds with d = μ for log
            // links; we use d = μ here and document the restriction.
            let n = fit.n as f64;
            let p = fit.p as f64;
            let mut meat = Matrix::zeros(fit.p, fit.p);
            for i in 0..fit.n {
                let d = fit.mu[i].max(1e-10); // dμ/dη for the log link
                let s = fit.weights[i] * (y[i] - fit.mu[i]) / d;
                let row = x.row(i);
                for a in 0..fit.p {
                    for b in a..fit.p {
                        meat[(a, b)] += row[a] * row[b] * s * s;
                    }
                }
            }
            for a in 0..fit.p {
                for b in 0..a {
                    meat[(a, b)] = meat[(b, a)];
                }
            }
            let sandwich = bread.matmul(&meat)?.matmul(&bread)?;
            &sandwich * (n / (n - p).max(1.0))
        }
    };

    let zcrit = standard_normal_quantile(0.5 + level / 2.0);
    let mut coefficients = Vec::with_capacity(fit.p);
    for j in 0..fit.p {
        let coef = fit.beta[j];
        let var = cov[(j, j)].max(0.0);
        let se = var.sqrt();
        let z = if se > 0.0 { coef / se } else { f64::INFINITY };
        let p_value = Normal::two_sided_p(z);
        coefficients.push(CoefEstimate {
            name: names[j].clone(),
            coef,
            std_error: se,
            z,
            p_value,
            ci_lower: coef - zcrit * se,
            ci_upper: coef + zcrit * se,
        });
    }

    Ok(FitInference {
        coefficients,
        covariance: cov,
        kind,
        level,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::PoissonFamily;
    use crate::irls::{fit_irls, IrlsOptions};
    use crate::link::LogLink;
    use booters_testkit::rngs::StdRng;
    use booters_testkit::SeedableRng;

    fn simulate_poisson(n: usize, b0: f64, b1: f64, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Matrix::zeros(n, 2);
        let mut y = vec![0.0; n];
        for i in 0..n {
            let xi = (i % 50) as f64 / 10.0;
            x[(i, 0)] = 1.0;
            x[(i, 1)] = xi;
            let mu = (b0 + b1 * xi).exp();
            y[i] = booters_stats::dist::Poisson::new(mu).sample(&mut rng) as f64;
        }
        (x, y)
    }

    #[test]
    fn poisson_ci_covers_truth() {
        let (x, y) = simulate_poisson(500, 1.2, 0.3, 7);
        let fit = fit_irls(&x, &y, &PoissonFamily, &LogLink, &IrlsOptions::default()).unwrap();
        let names = vec!["_cons".to_string(), "x".to_string()];
        let inf = wald_inference(&x, &y, &fit, &names, CovarianceKind::ModelBased, 0.95).unwrap();
        let c = inf.coef("x").unwrap();
        assert!(c.ci_lower < 0.3 && 0.3 < c.ci_upper, "CI [{}, {}]", c.ci_lower, c.ci_upper);
        assert!(c.p_value < 1e-6);
        assert_eq!(c.stars(), "**");
    }

    #[test]
    fn robust_se_close_to_model_se_when_specified() {
        let (x, y) = simulate_poisson(800, 1.0, 0.2, 11);
        let fit = fit_irls(&x, &y, &PoissonFamily, &LogLink, &IrlsOptions::default()).unwrap();
        let names = vec!["_cons".to_string(), "x".to_string()];
        let a = wald_inference(&x, &y, &fit, &names, CovarianceKind::ModelBased, 0.95).unwrap();
        let b = wald_inference(&x, &y, &fit, &names, CovarianceKind::RobustHc1, 0.95).unwrap();
        let ra = a.coef("x").unwrap().std_error;
        let rb = b.coef("x").unwrap().std_error;
        assert!((ra / rb - 1.0).abs() < 0.3, "model={ra} robust={rb}");
    }

    #[test]
    fn robust_se_larger_under_overdispersion() {
        // Generate NB data but fit Poisson: the sandwich should exceed the
        // (too-optimistic) model-based errors.
        let mut rng = StdRng::seed_from_u64(5);
        let n = 600;
        let mut x = Matrix::zeros(n, 2);
        let mut y = vec![0.0; n];
        for i in 0..n {
            let xi = (i % 30) as f64 / 10.0;
            x[(i, 0)] = 1.0;
            x[(i, 1)] = xi;
            let mu = (2.0 + 0.3 * xi).exp();
            y[i] =
                booters_stats::dist::NegativeBinomial::new(mu, 0.8).sample(&mut rng) as f64;
        }
        let fit = fit_irls(&x, &y, &PoissonFamily, &LogLink, &IrlsOptions::default()).unwrap();
        let names = vec!["_cons".to_string(), "x".to_string()];
        let a = wald_inference(&x, &y, &fit, &names, CovarianceKind::ModelBased, 0.95).unwrap();
        let b = wald_inference(&x, &y, &fit, &names, CovarianceKind::RobustHc1, 0.95).unwrap();
        assert!(
            b.coef("x").unwrap().std_error > 1.5 * a.coef("x").unwrap().std_error,
            "robust SEs should blow up under overdispersion"
        );
    }

    #[test]
    fn joint_wald_rejects_for_real_effects_only() {
        let (x, y) = simulate_poisson(600, 1.0, 0.3, 19);
        let fit = fit_irls(&x, &y, &PoissonFamily, &LogLink, &IrlsOptions::default()).unwrap();
        let names = vec!["_cons".to_string(), "x".to_string()];
        let inf = wald_inference(&x, &y, &fit, &names, CovarianceKind::ModelBased, 0.95).unwrap();
        // The slope block (true coef 0.3) rejects decisively.
        let test = joint_wald_test(&inf, &["x"]).unwrap();
        assert!(test.p_value < 1e-10, "p={}", test.p_value);
        // An unknown name returns None.
        assert!(joint_wald_test(&inf, &["nope"]).is_none());
        // Empty block returns None.
        assert!(joint_wald_test(&inf, &[]).is_none());
        // Single-coefficient Wald matches z² (χ²(1)).
        let z = inf.coef("x").unwrap().z;
        assert!((test.statistic - z * z).abs() / test.statistic < 1e-9);
    }

    #[test]
    fn percent_change_math() {
        let c = CoefEstimate {
            name: "i".into(),
            coef: -0.393, // Table 1 Xmas2018
            std_error: 0.039,
            z: -10.05,
            p_value: 0.0,
            ci_lower: -0.469,
            ci_upper: -0.316,
        };
        // exp(-0.393)-1 = -32.5% — the paper's "reduction of between 37% and
        // 27%" comes from the CI endpoints.
        assert!((c.percent_change() + 32.5).abs() < 0.5);
        let (lo, hi) = c.percent_change_ci();
        assert!((lo + 37.4).abs() < 0.5, "lo={lo}");
        assert!((hi + 27.1).abs() < 0.5, "hi={hi}");
    }

    #[test]
    fn stars_thresholds() {
        let mk = |p| CoefEstimate {
            name: "x".into(),
            coef: 1.0,
            std_error: 1.0,
            z: 1.0,
            p_value: p,
            ci_lower: 0.0,
            ci_upper: 2.0,
        };
        assert_eq!(mk(0.005).stars(), "**");
        assert_eq!(mk(0.03).stars(), "*");
        assert_eq!(mk(0.2).stars(), "");
    }
}
