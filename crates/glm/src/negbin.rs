//! NB2 negative binomial regression with profile-ML dispersion.
//!
//! The paper's model: weekly attack counts regressed on intervention
//! dummies, seasonal dummies, Easter and a linear trend under a log link,
//! "fitting for optimum log-pseudolikelihood". We estimate β by IRLS for
//! fixed α and maximise the profile log-likelihood ℓ(α) = max_β ℓ(β, α)
//! by finding the root of its analytic score in ln α: the method-of-moments
//! estimate from a Poisson pre-fit starts a unit-step bracket search, and
//! Brent's zero-finder polishes the root inside the bracket.

use crate::family::{NegBin2, PoissonFamily};
use crate::inference::{wald_inference, CovarianceKind, FitInference};
use crate::irls::{GlmError, GlmFit, IrlsOptions};
use crate::link::LogLink;
use crate::workspace::{fit_irls_into, IrlsWorkspace, WarmStart};
use booters_linalg::Matrix;
use booters_stats::special::digamma;

/// Options for [`fit_negbin`].
#[derive(Debug, Clone, Copy)]
pub struct NegBinOptions {
    /// IRLS options for each inner β fit.
    pub irls: IrlsOptions,
    /// Lower bound of the α search (exclusive of 0; small α ⇒ Poisson).
    pub alpha_min: f64,
    /// Upper bound of the α search.
    pub alpha_max: f64,
    /// Width in ln α of the bracket around the profile-score root at
    /// which the α search stops (so α̂ is the root to within this
    /// relative tolerance).
    pub alpha_tolerance: f64,
    /// Confidence level for the Wald intervals.
    pub level: f64,
    /// Covariance estimator.
    pub covariance: CovarianceKind,
    /// Seed each profile-α IRLS solve with the previous α's converged β
    /// (continuation). The optimum is unchanged to well within the IRLS
    /// tolerance — only the iteration path differs — and any warm solve
    /// that fails is retried cold. Disable to start every solve from the
    /// response instead; estimates then agree with the warm path to
    /// tolerance, not bit for bit.
    pub warm_start: bool,
}

impl Default for NegBinOptions {
    fn default() -> Self {
        NegBinOptions {
            irls: IrlsOptions::default(),
            alpha_min: 1e-6,
            alpha_max: 20.0,
            alpha_tolerance: 1e-7,
            level: 0.95,
            covariance: CovarianceKind::ModelBased,
            warm_start: true,
        }
    }
}

/// A fitted NB2 regression.
#[derive(Debug, Clone)]
pub struct NegBinFit {
    /// The converged IRLS fit at the ML dispersion.
    pub fit: GlmFit,
    /// ML estimate of the dispersion α.
    pub alpha: f64,
    /// Wald inference for the coefficients.
    pub inference: FitInference,
    /// Profile log-likelihood at the optimum.
    pub log_likelihood: f64,
    /// Log-likelihood of the Poisson fit (α→0 boundary), for the
    /// overdispersion likelihood-ratio test.
    pub poisson_log_likelihood: f64,
}

impl NegBinFit {
    /// Likelihood-ratio statistic for H₀: α = 0 (Poisson) vs H₁: α > 0.
    ///
    /// Under H₀ the statistic is a 50:50 mixture of 0 and χ²(1) (boundary
    /// problem), so the p-value is half the χ²(1) upper tail.
    pub fn overdispersion_lr(&self) -> (f64, f64) {
        let stat = (2.0 * (self.log_likelihood - self.poisson_log_likelihood)).max(0.0);
        let p = 0.5 * booters_stats::dist::ChiSquared::new(1.0).sf(stat);
        (stat, p)
    }

}

/// Solve for β̂(α) into the workspace. With `warm_start`, IRLS is seeded
/// from `warm` (the previous profile point's β — continuation) and
/// retried cold on any failure; on success `warm` is refreshed with the
/// new optimum for the next point.
fn profile_solve_into(
    ws: &mut IrlsWorkspace,
    warm: &mut [f64],
    x: &Matrix,
    y: &[f64],
    alpha: f64,
    options: &NegBinOptions,
) -> Result<(), GlmError> {
    let family = NegBin2::new(alpha);
    if options.warm_start {
        let attempt = fit_irls_into(
            ws,
            x,
            y,
            None,
            &family,
            &LogLink,
            &options.irls,
            WarmStart::Beta(warm),
        );
        if attempt.is_err() {
            booters_obs::counter_add("glm.warm_start_retries", 1);
            fit_irls_into(ws, x, y, None, &family, &LogLink, &options.irls, WarmStart::Cold)?;
        } else {
            booters_obs::counter_add("glm.warm_start_hits", 1);
        }
        warm.copy_from_slice(ws.beta());
    } else {
        fit_irls_into(ws, x, y, None, &family, &LogLink, &options.irls, WarmStart::Cold)?;
    }
    Ok(())
}

/// Profile score in ln α: dℓ(β̂(α), α)/d ln α = Σᵢ α·∂ℓᵢ/∂α at the
/// fitted means. By the envelope theorem β̂'s own dependence on α drops
/// out, so this is the exact derivative of the profile log-likelihood:
///
/// ∂ℓᵢ/∂α = α⁻²·[ln(1+αμᵢ) − ψ(yᵢ+α⁻¹) + ψ(α⁻¹)] + (yᵢ−μᵢ)/(α(1+αμᵢ)).
fn profile_score(y: &[f64], mu: &[f64], alpha: f64) -> f64 {
    let inv_a = 1.0 / alpha;
    let psi_inv_a = digamma(inv_a);
    let sum: f64 = y
        .iter()
        .zip(mu)
        .map(|(&yi, &mi)| {
            let mi = mi.max(f64::MIN_POSITIVE);
            let am = alpha * mi;
            inv_a * inv_a * (am.ln_1p() - digamma(yi + inv_a) + psi_inv_a)
                + (yi - mi) / (alpha * (1.0 + am))
        })
        .sum();
    alpha * sum
}

/// Method-of-moments starting α from a Poisson fit:
/// α̂ = Σ[(y−μ)² − μ] / Σ μ² (Cameron & Trivedi's auxiliary regression).
fn moment_alpha(y: &[f64], mu: &[f64]) -> f64 {
    let num: f64 = y
        .iter()
        .zip(mu)
        .map(|(&yi, &mi)| (yi - mi) * (yi - mi) - mi)
        .sum();
    let den: f64 = mu.iter().map(|&m| m * m).sum();
    (num / den.max(1e-12)).max(1e-6)
}

/// Fit an NB2 regression of `y` on `x` with column `names`.
///
/// Convenience wrapper over [`fit_negbin_with`] with a private, throwaway
/// workspace. Callers fitting many models (the pipeline's per-country and
/// duration-scan loops) should hold an [`IrlsWorkspace`] and call
/// [`fit_negbin_with`] to amortise the buffer allocations.
pub fn fit_negbin(
    x: &Matrix,
    y: &[f64],
    names: &[String],
    options: &NegBinOptions,
) -> Result<NegBinFit, GlmError> {
    let mut ws = IrlsWorkspace::new();
    fit_negbin_with(&mut ws, x, y, names, options)
}

/// Fit an NB2 regression into a caller-owned workspace.
///
/// All per-iteration IRLS buffers live in `ws`, so the entire profile-α
/// search — typically 8–10 IRLS solves counting the Poisson pre-fit and
/// the final solve at α̂ — allocates only at the final
/// [`GlmFit`]/inference materialisation. With
/// [`NegBinOptions::warm_start`] each profile point seeds IRLS from the
/// previous point's β, so most solves after the first take one or two
/// iterations.
///
/// α̂ is the root of the profile score within `alpha_tolerance` in ln α,
/// or `alpha_min`/`alpha_max` itself when the score still points out of
/// the search range at that bound.
pub fn fit_negbin_with(
    ws: &mut IrlsWorkspace,
    x: &Matrix,
    y: &[f64],
    names: &[String],
    options: &NegBinOptions,
) -> Result<NegBinFit, GlmError> {
    booters_obs::counter_add("glm.negbin_fits", 1);
    // Poisson pre-fit: seeds α, anchors the LR test, and (warm path)
    // provides the first continuation point for β.
    fit_irls_into(
        ws,
        x,
        y,
        None,
        &PoissonFamily,
        &LogLink,
        &options.irls,
        WarmStart::Cold,
    )?;
    let poisson_log_likelihood = ws.log_likelihood();
    let alpha0 = moment_alpha(y, ws.mu()).clamp(options.alpha_min, options.alpha_max);
    let mut warm = ws.beta().to_vec();

    // Root-find the profile score g(ln α) = dℓ/d ln α. The bounds map back
    // to the exact option values, so a boundary estimate is reported as
    // `alpha_min`/`alpha_max` itself.
    let (lo, hi) = (options.alpha_min.ln(), options.alpha_max.ln());
    let alpha_at = |t: f64| {
        if t <= lo {
            options.alpha_min
        } else if t >= hi {
            options.alpha_max
        } else {
            t.exp()
        }
    };
    let mut score = |t: f64| -> Result<f64, GlmError> {
        let alpha = alpha_at(t);
        profile_solve_into(ws, &mut warm, x, y, alpha, options)?;
        Ok(profile_score(y, ws.mu(), alpha))
    };

    // Bracket: from the moment estimate, step 1 in ln α the way the score
    // points (uphill in ℓ) until it changes sign. A score that still points
    // out of the search range at a bound puts the estimate on that bound.
    let mut a = alpha0.ln().clamp(lo, hi);
    let mut fa = score(a)?;
    let t_hat = loop {
        if fa == 0.0 {
            break a;
        }
        let b = if fa > 0.0 { (a + 1.0).min(hi) } else { (a - 1.0).max(lo) };
        if b == a {
            break a;
        }
        let fb = score(b)?;
        if fb == 0.0 || (fa > 0.0) != (fb > 0.0) {
            break zeroin(a, fa, b, fb, options.alpha_tolerance, &mut score)?;
        }
        a = b;
        fa = fb;
    };
    let alpha = alpha_at(t_hat);
    profile_solve_into(ws, &mut warm, x, y, alpha, options)?;
    let log_likelihood = ws.log_likelihood();
    let fit = ws.to_glm_fit();
    let inference = wald_inference(x, y, &fit, names, options.covariance, options.level)?;

    Ok(NegBinFit {
        fit,
        alpha,
        inference,
        log_likelihood,
        poisson_log_likelihood,
    })
}

/// Brent's zero-finder (`zeroin`, Brent 1973 ch. 4): the root of `f` in
/// the bracket `[a, b]`, where `fa = f(a)` and `fb = f(b)` have opposite
/// signs. Each step takes an inverse-quadratic or secant step when it
/// stays safely inside the bracket and bisects otherwise, so convergence
/// is superlinear on smooth `f` and never slower than bisection. Stops
/// once the bracket is `tol` wide (plus a machine-epsilon term) and
/// returns the secant point between its ends, or earlier, without
/// evaluating it, at an accepted interpolation step shorter than `tol/2`.
fn zeroin(
    mut a: f64,
    mut fa: f64,
    mut b: f64,
    mut fb: f64,
    tol: f64,
    f: &mut impl FnMut(f64) -> Result<f64, GlmError>,
) -> Result<f64, GlmError> {
    let mut c = a;
    let mut fc = fa;
    let mut d = b - a;
    let mut e = d;
    loop {
        if (fb > 0.0) == (fc > 0.0) {
            c = a;
            fc = fa;
            d = b - a;
            e = d;
        }
        if fc.abs() < fb.abs() {
            a = b;
            b = c;
            c = a;
            fa = fb;
            fb = fc;
            fc = fa;
        }
        let tol1 = 2.0 * f64::EPSILON * b.abs() + 0.5 * tol;
        let xm = 0.5 * (c - b);
        if fb == 0.0 {
            return Ok(b);
        }
        if xm.abs() <= tol1 {
            // `b` and `c` bracket the root: finish with the secant point
            // between them, which costs no evaluation and stays inside.
            return Ok(b - fb * (c - b) / (fc - fb));
        }
        if e.abs() >= tol1 && fa.abs() > fb.abs() {
            let s = fb / fa;
            let (mut p, mut q) = if a == c {
                // Secant step.
                (2.0 * xm * s, 1.0 - s)
            } else {
                // Inverse quadratic interpolation.
                let q = fa / fc;
                let r = fb / fc;
                (
                    s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0)),
                    (q - 1.0) * (r - 1.0) * (s - 1.0),
                )
            };
            if p > 0.0 {
                q = -q;
            } else {
                p = -p;
            }
            if 2.0 * p < (3.0 * xm * q - (tol1 * q).abs()).min((e * q).abs()) {
                e = d;
                d = p / q;
                if d.abs() <= tol1 {
                    // The interpolant puts the root within half the
                    // tolerance of `b`: take that point rather than pay
                    // an evaluation only to confirm the bracket.
                    return Ok(b + d);
                }
            } else {
                d = xm;
                e = d;
            }
        } else {
            d = xm;
            e = d;
        }
        a = b;
        fa = fb;
        b += if d.abs() > tol1 { d } else { tol1.copysign(xm) };
        fb = f(b)?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use booters_stats::dist::NegativeBinomial;
    use booters_testkit::rngs::StdRng;
    use booters_testkit::SeedableRng;

    fn simulate_nb(
        n: usize,
        b0: f64,
        b1: f64,
        alpha: f64,
        seed: u64,
    ) -> (Matrix, Vec<f64>, Vec<String>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Matrix::zeros(n, 2);
        let mut y = vec![0.0; n];
        for i in 0..n {
            let xi = (i % 40) as f64 / 10.0;
            x[(i, 0)] = 1.0;
            x[(i, 1)] = xi;
            let mu = (b0 + b1 * xi).exp();
            y[i] = NegativeBinomial::new(mu, alpha).sample(&mut rng) as f64;
        }
        (x, y, vec!["_cons".into(), "x".into()])
    }

    #[test]
    fn recovers_coefficients_and_alpha() {
        let (x, y, names) = simulate_nb(1200, 2.0, 0.4, 0.5, 99);
        let fit = fit_negbin(&x, &y, &names, &NegBinOptions::default()).unwrap();
        assert!((fit.inference.coef("_cons").unwrap().coef - 2.0).abs() < 0.15);
        assert!((fit.inference.coef("x").unwrap().coef - 0.4).abs() < 0.05);
        assert!(
            (fit.alpha - 0.5).abs() < 0.12,
            "alpha = {} (true 0.5)",
            fit.alpha
        );
    }

    #[test]
    fn ci_covers_true_slope() {
        let (x, y, names) = simulate_nb(800, 1.5, 0.25, 0.3, 4);
        let fit = fit_negbin(&x, &y, &names, &NegBinOptions::default()).unwrap();
        let c = fit.inference.coef("x").unwrap();
        assert!(c.ci_lower < 0.25 && 0.25 < c.ci_upper);
    }

    #[test]
    fn overdispersion_lr_rejects_poisson_for_nb_data() {
        let (x, y, names) = simulate_nb(600, 2.5, 0.2, 0.8, 17);
        let fit = fit_negbin(&x, &y, &names, &NegBinOptions::default()).unwrap();
        let (stat, p) = fit.overdispersion_lr();
        assert!(stat > 50.0, "stat={stat}");
        assert!(p < 1e-10);
    }

    #[test]
    fn near_poisson_data_gives_small_alpha() {
        // Simulate pure Poisson; α̂ should collapse towards the boundary.
        let mut rng = StdRng::seed_from_u64(23);
        let n = 600;
        let mut x = Matrix::zeros(n, 1);
        let mut y = vec![0.0; n];
        for i in 0..n {
            x[(i, 0)] = 1.0;
            y[i] = booters_stats::dist::Poisson::new(20.0).sample(&mut rng) as f64;
        }
        let fit = fit_negbin(&x, &y, &["_cons".into()], &NegBinOptions::default()).unwrap();
        assert!(fit.alpha < 0.01, "alpha={}", fit.alpha);
        let (_, p) = fit.overdispersion_lr();
        assert!(p > 0.01, "should not reject Poisson, p={p}");
    }

    #[test]
    fn negbin_se_wider_than_poisson_for_overdispersed_data() {
        let (x, y, names) = simulate_nb(600, 2.0, 0.3, 0.6, 31);
        let nb = fit_negbin(&x, &y, &names, &NegBinOptions::default()).unwrap();
        let po = crate::poisson::fit_poisson(&x, &y, &names, &IrlsOptions::default(), 0.95)
            .unwrap();
        let nb_se = nb.inference.coef("x").unwrap().std_error;
        let po_se = po.inference.coef("x").unwrap().std_error;
        assert!(nb_se > 1.5 * po_se, "nb={nb_se} po={po_se}");
    }

    #[test]
    fn profile_score_is_the_ln_alpha_derivative_of_the_loglik() {
        // At fixed means, g(ln α) must equal dℓ/d ln α; check it against a
        // central difference of the NB2 log-likelihood.
        use crate::family::Family;
        let y = [0.0, 1.0, 3.0, 7.0, 12.0, 40.0, 150.0, 900.0];
        let mu = [0.5, 2.0, 2.5, 9.0, 10.0, 55.0, 120.0, 1000.0];
        let loglik = |t: f64| -> f64 {
            let f = NegBin2::new(t.exp());
            y.iter().zip(&mu).map(|(&yi, &mi)| f.log_likelihood(yi, mi)).sum()
        };
        for alpha in [1e-3, 0.05, 0.4, 3.0] {
            let (t, h) = (f64::ln(alpha), 1e-5);
            let fd = (loglik(t + h) - loglik(t - h)) / (2.0 * h);
            let g = profile_score(&y, &mu, alpha);
            assert!((g - fd).abs() < 1e-5 * g.abs().max(1.0), "alpha {alpha}: g {g} fd {fd}");
        }
    }

    #[test]
    fn underdispersed_data_puts_alpha_on_the_lower_bound() {
        // Counts at their rounded means are less dispersed than Poisson:
        // the profile score is negative down to the bound, so α̂ is
        // `alpha_min` itself and the fit still succeeds.
        let n = 120;
        let mut x = Matrix::zeros(n, 2);
        let mut y = vec![0.0; n];
        for i in 0..n {
            let xi = (i % 12) as f64 / 4.0;
            x[(i, 0)] = 1.0;
            x[(i, 1)] = xi;
            y[i] = (2.0 + 0.3 * xi).exp().round();
        }
        let options = NegBinOptions::default();
        let fit = fit_negbin(&x, &y, &["_cons".into(), "x".into()], &options).unwrap();
        assert_eq!(fit.alpha, options.alpha_min);
        assert!(fit.fit.beta.iter().all(|b| b.is_finite()));
    }

    #[test]
    fn extreme_overdispersion_clamps_at_alpha_max() {
        // Nine zeros in ten with the rest at 30: the moment estimate (≈ 8.7)
        // starts inside the range, but the likelihood keeps rising past
        // `alpha_max`, so the search stops on that bound.
        let n = 100;
        let x = Matrix::from_vec(n, 1, vec![1.0; n]);
        let y: Vec<f64> = (0..n).map(|i| if i % 10 == 0 { 30.0 } else { 0.0 }).collect();
        let options = NegBinOptions::default();
        let fit = fit_negbin(&x, &y, &["_cons".into()], &options).unwrap();
        assert_eq!(fit.alpha, options.alpha_max);
        assert!((fit.fit.mu[0] - 3.0).abs() < 1e-6, "mu = {}", fit.fit.mu[0]);
    }

    #[test]
    fn warm_start_matches_cold_start_to_tolerance() {
        // Continuation changes the IRLS trajectory, not the optimum: both
        // paths find the same profile-score root, and each converged β
        // agrees to well within the deviance tolerance.
        let (x, y, names) = simulate_nb(400, 2.0, 0.3, 0.5, 55);
        let warm = fit_negbin(&x, &y, &names, &NegBinOptions::default()).unwrap();
        let cold = fit_negbin(
            &x,
            &y,
            &names,
            &NegBinOptions {
                warm_start: false,
                ..NegBinOptions::default()
            },
        )
        .unwrap();
        // α agrees to the search tolerance: the two paths evaluate the
        // score at slightly different β (IRLS stopping noise), so their
        // root-finder steps differ below ~1e-7 in ln α. β and ℓ are far
        // tighter.
        assert!(
            (warm.alpha - cold.alpha).abs() < 1e-6 * warm.alpha.max(1.0),
            "alpha warm={} cold={}",
            warm.alpha,
            cold.alpha
        );
        assert!((warm.log_likelihood - cold.log_likelihood).abs() < 1e-6);
        for (a, b) in warm.fit.beta.iter().zip(&cold.fit.beta) {
            assert!((a - b).abs() < 1e-6, "warm {a} cold {b}");
        }
    }

    #[test]
    fn workspace_reuse_across_models_matches_fresh_workspace() {
        let (x1, y1, names1) = simulate_nb(300, 1.8, 0.2, 0.4, 8);
        let (x2, y2, names2) = simulate_nb(500, 2.2, 0.35, 0.6, 21);
        let mut ws = IrlsWorkspace::new();
        let a1 = fit_negbin_with(&mut ws, &x1, &y1, &names1, &NegBinOptions::default()).unwrap();
        let a2 = fit_negbin_with(&mut ws, &x2, &y2, &names2, &NegBinOptions::default()).unwrap();
        let b1 = fit_negbin(&x1, &y1, &names1, &NegBinOptions::default()).unwrap();
        let b2 = fit_negbin(&x2, &y2, &names2, &NegBinOptions::default()).unwrap();
        assert_eq!(a1.fit.beta, b1.fit.beta);
        assert_eq!(a1.alpha, b1.alpha);
        assert_eq!(a2.fit.beta, b2.fit.beta);
        assert_eq!(a2.alpha, b2.alpha);
    }

    #[test]
    fn intervention_recovery_end_to_end() {
        // The core claim of the reproduction: a step-dummy effect of −0.4
        // on a trending, seasonal NB series is recovered with correct sign
        // and magnitude.
        let mut rng = StdRng::seed_from_u64(77);
        let n = 148; // paper's ~148-week window
        let mut x = Matrix::zeros(n, 3);
        let mut y = vec![0.0; n];
        for i in 0..n {
            let t = i as f64;
            let dummy = if (90..100).contains(&i) { 1.0 } else { 0.0 };
            x[(i, 0)] = dummy;
            x[(i, 1)] = t;
            x[(i, 2)] = 1.0;
            let mu = (10.0 + 0.01 * t - 0.4 * dummy).exp();
            y[i] = NegativeBinomial::new(mu, 0.02).sample(&mut rng) as f64;
        }
        let names = vec!["intervention".into(), "time".into(), "_cons".into()];
        let fit = fit_negbin(&x, &y, &names, &NegBinOptions::default()).unwrap();
        let c = fit.inference.coef("intervention").unwrap();
        assert!(c.coef < -0.2 && c.coef > -0.6, "coef={}", c.coef);
        assert!(c.p_value < 0.01);
        assert!((fit.inference.coef("time").unwrap().coef - 0.01).abs() < 0.003);
    }
}
