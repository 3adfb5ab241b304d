//! The allocation-free IRLS core: a reusable buffer arena and a
//! `fit_irls_into` entry point that performs **zero heap allocations per
//! iteration** once the workspace is warmed to the problem shape.
//!
//! Why this exists: `fit_negbin` makes several IRLS solves per model — a
//! Poisson pre-fit, one per profile-score evaluation of its α search,
//! and a final solve at α̂ — and the pipeline fits dozens of models per
//! run (148×19 designs refit per country, per candidate window, per
//! ablation). Allocating ~6 vectors and 2 matrices *per iteration* would
//! make allocator traffic rival the floating-point work.
//! [`IrlsWorkspace`] owns every per-iteration buffer (z, w, η, μ, XᵀWX,
//! XᵀWz, the Cholesky factor and its scratch) and the fused
//! `booters-linalg` `_into` kernels write straight into them.
//!
//! ## Determinism contract
//!
//! A cold-started [`fit_irls_into`] is **bit-identical** to the historic
//! allocating `fit_irls`: the fused kernels preserve per-entry f64
//! summation order, the in-place Cholesky (ridge schedule included)
//! reproduces the cloning version bit for bit, and the iteration
//! structure is unchanged. Warm starts ([`WarmStart::Beta`]) change the
//! IRLS *trajectory*, so they are only **tolerance-equal** (same optimum
//! to ~1e-8); see `DESIGN.md` §5d for where each guarantee is relied on.

use crate::family::Family;
use crate::irls::{GlmError, GlmFit, IrlsOptions};
use crate::link::Link;
use booters_linalg::{cholesky_solve_into, cholesky_with_ridge_into, Matrix};

/// How [`fit_irls_into`] initialises the IRLS state.
#[derive(Debug, Clone, Copy)]
pub enum WarmStart<'a> {
    /// The standard GLM start: μ seeded from the response.
    Cold,
    /// Continuation: seed β (and hence η = Xβ + offset and μ) from a
    /// previously converged fit on the same design — the profile-α loop
    /// passes the neighbouring α's coefficients. A slice of the wrong
    /// length falls back to the cold start.
    Beta(&'a [f64]),
}

/// Reusable buffers for [`fit_irls_into`]. Create once, pass to many
/// fits; buffers are (re)sized on first use per problem shape and reused
/// verbatim afterwards, so steady-state iterations never touch the heap.
#[derive(Debug)]
pub struct IrlsWorkspace {
    n: usize,
    p: usize,
    z: Vec<f64>,
    w: Vec<f64>,
    eta: Vec<f64>,
    mu: Vec<f64>,
    new_eta: Vec<f64>,
    new_mu: Vec<f64>,
    beta: Vec<f64>,
    new_beta: Vec<f64>,
    xtwx: Matrix,
    xtwz: Vec<f64>,
    factor: Matrix,
    diag: Vec<f64>,
    log_likelihood: f64,
    deviance: f64,
    iterations: usize,
}

impl IrlsWorkspace {
    /// An empty workspace; buffers are allocated lazily by the first fit.
    pub fn new() -> IrlsWorkspace {
        IrlsWorkspace {
            n: 0,
            p: 0,
            z: Vec::new(),
            w: Vec::new(),
            eta: Vec::new(),
            mu: Vec::new(),
            new_eta: Vec::new(),
            new_mu: Vec::new(),
            beta: Vec::new(),
            new_beta: Vec::new(),
            xtwx: Matrix::zeros(0, 0),
            xtwz: Vec::new(),
            factor: Matrix::zeros(0, 0),
            diag: Vec::new(),
            log_likelihood: 0.0,
            deviance: 0.0,
            iterations: 0,
        }
    }

    /// Size every buffer for an `n × p` problem. Allocates only when the
    /// shape grows (or `p` changes, for the square buffers).
    fn ensure(&mut self, n: usize, p: usize) {
        if self.n != n {
            self.z.resize(n, 0.0);
            self.w.resize(n, 0.0);
            self.eta.resize(n, 0.0);
            self.mu.resize(n, 0.0);
            self.new_eta.resize(n, 0.0);
            self.new_mu.resize(n, 0.0);
            self.n = n;
        }
        if self.p != p {
            self.beta.resize(p, 0.0);
            self.new_beta.resize(p, 0.0);
            self.xtwz.resize(p, 0.0);
            self.diag.resize(p, 0.0);
            self.xtwx = Matrix::zeros(p, p);
            self.factor = Matrix::zeros(p, p);
            self.p = p;
        }
    }

    /// Converged coefficients of the last successful fit.
    pub fn beta(&self) -> &[f64] {
        &self.beta
    }

    /// Fitted means of the last successful fit.
    pub fn mu(&self) -> &[f64] {
        &self.mu
    }

    /// Linear predictor of the last successful fit.
    pub fn eta(&self) -> &[f64] {
        &self.eta
    }

    /// Final working weights of the last successful fit.
    pub fn weights(&self) -> &[f64] {
        &self.w
    }

    /// Log-likelihood at the last converged state.
    pub fn log_likelihood(&self) -> f64 {
        self.log_likelihood
    }

    /// Deviance at the last converged state.
    pub fn deviance(&self) -> f64 {
        self.deviance
    }

    /// IRLS iterations the last fit used.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Materialise the last converged state as an owned [`GlmFit`]
    /// (allocates — call once per fit, outside the iteration loop).
    pub fn to_glm_fit(&self) -> GlmFit {
        GlmFit {
            beta: self.beta.clone(),
            mu: self.mu.clone(),
            eta: self.eta.clone(),
            weights: self.w.clone(),
            log_likelihood: self.log_likelihood,
            deviance: self.deviance,
            iterations: self.iterations,
            n: self.n,
            p: self.p,
        }
    }
}

impl Default for IrlsWorkspace {
    fn default() -> IrlsWorkspace {
        IrlsWorkspace::new()
    }
}

/// The IRLS working terms at one observation: `(dμ/dη, w)` with the
/// clamps the fitter has always applied. One definition shared by the
/// solve loop and the final-weights pass (historically the two sites
/// duplicated this computation).
#[inline]
fn working_terms(link: &dyn Link, family: &dyn Family, eta: f64, mu: f64) -> (f64, f64) {
    let d = link.d_inverse(eta).max(1e-10);
    let v = family.variance(mu).max(1e-10);
    (d, d * d / v)
}

/// Fit a GLM by IRLS into a caller-owned workspace.
///
/// Validation, initialisation (for [`WarmStart::Cold`]), iteration
/// structure and convergence rule are exactly those of
/// [`crate::fit_irls_offset`] — which now delegates here — but every
/// per-iteration buffer lives in `ws`, so steady-state iterations perform
/// zero heap allocations (asserted by the counting-allocator test in
/// `tests/alloc_counter.rs`). On success the converged state is left in
/// `ws` (see [`IrlsWorkspace::to_glm_fit`]); on error the workspace
/// contents are unspecified but safely reusable.
#[allow(clippy::too_many_arguments)]
pub fn fit_irls_into(
    ws: &mut IrlsWorkspace,
    x: &Matrix,
    y: &[f64],
    offset: Option<&[f64]>,
    family: &dyn Family,
    link: &dyn Link,
    options: &IrlsOptions,
    warm: WarmStart<'_>,
) -> Result<(), GlmError> {
    let n = x.rows();
    let p = x.cols();
    if y.len() != n {
        return Err(GlmError::DimensionMismatch { rows: n, y_len: y.len() });
    }
    if n < p {
        return Err(GlmError::TooFewObservations { n, p });
    }
    for (i, &yi) in y.iter().enumerate() {
        if !yi.is_finite() {
            return Err(GlmError::InvalidResponse { at: i });
        }
        // Count families cannot see negative responses.
        if matches!(family.name(), "poisson" | "negbin2") && yi < 0.0 {
            return Err(GlmError::InvalidResponse { at: i });
        }
    }
    if let Some(o) = offset {
        if o.len() != n {
            return Err(GlmError::DimensionMismatch { rows: n, y_len: o.len() });
        }
    }
    ws.ensure(n, p);
    let off = |i: usize| offset.map_or(0.0, |o| o[i]);

    match warm {
        WarmStart::Beta(beta0) if beta0.len() == p => {
            // Continuation: η = Xβ₀ + o, μ = g⁻¹(η).
            ws.beta.copy_from_slice(beta0);
            x.matvec_into(&ws.beta, &mut ws.eta)?;
            if offset.is_some() {
                for (i, e) in ws.eta.iter_mut().enumerate() {
                    *e += off(i);
                }
            }
            for i in 0..n {
                ws.mu[i] = link.inverse(ws.eta[i]);
            }
        }
        _ => {
            // Initialise μ from the response (standard GLM start): nudge
            // counts off zero, then η = g(μ).
            let mean_y = y.iter().sum::<f64>() / n as f64;
            for i in 0..n {
                ws.mu[i] = ((y[i] + mean_y.max(1.0)) / 2.0).max(1e-8);
                ws.eta[i] = link.link(ws.mu[i]);
            }
            ws.beta.fill(0.0);
        }
    }
    ws.deviance = y
        .iter()
        .zip(&ws.mu)
        .map(|(&yi, &mi)| family.unit_deviance(yi, mi))
        .sum();
    let mut last_change = f64::INFINITY;

    for iter in 1..=options.max_iterations {
        // Working response and weights.
        for i in 0..n {
            let (d, wi) = working_terms(link, family, ws.eta[i], ws.mu[i]);
            // Offset enters η but is not estimated: regress z − o on X.
            ws.z[i] = (ws.eta[i] - off(i)) + (y[i] - ws.mu[i]) / d;
            ws.w[i] = wi;
        }

        // Solve XᵀWX β = XᵀWz with the fused, in-place kernels.
        x.xtwx_xtwz_into(&ws.w, &ws.z, &mut ws.xtwx, &mut ws.xtwz)?;
        cholesky_with_ridge_into(&mut ws.xtwx, &mut ws.factor, &mut ws.diag, 14)?;
        cholesky_solve_into(&ws.factor, &ws.xtwz, &mut ws.new_beta)?;

        // Update state.
        x.matvec_into(&ws.new_beta, &mut ws.new_eta)?;
        if offset.is_some() {
            for (i, e) in ws.new_eta.iter_mut().enumerate() {
                *e += off(i);
            }
        }
        for i in 0..n {
            ws.new_mu[i] = link.inverse(ws.new_eta[i]);
        }
        let new_deviance: f64 = y
            .iter()
            .zip(&ws.new_mu)
            .map(|(&yi, &mi)| family.unit_deviance(yi, mi))
            .sum();

        std::mem::swap(&mut ws.beta, &mut ws.new_beta);
        std::mem::swap(&mut ws.eta, &mut ws.new_eta);
        std::mem::swap(&mut ws.mu, &mut ws.new_mu);
        last_change = ((ws.deviance - new_deviance).abs()) / (new_deviance.abs() + 0.1);
        ws.deviance = new_deviance;

        if last_change < options.tolerance {
            ws.log_likelihood = y
                .iter()
                .zip(&ws.mu)
                .map(|(&yi, &mi)| family.log_likelihood(yi, mi))
                .sum();
            // Final working weights at the *converged* η/μ (one step
            // fresher than the weights the last solve used) — same pass
            // as above, not a duplicated formula.
            for i in 0..n {
                ws.w[i] = working_terms(link, family, ws.eta[i], ws.mu[i]).1;
            }
            ws.iterations = iter;
            booters_obs::counter_add("glm.irls_fits", 1);
            booters_obs::counter_add("glm.irls_iterations", iter as u64);
            return Ok(());
        }
    }

    Err(GlmError::NotConverged {
        iterations: options.max_iterations,
        last_change,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::PoissonFamily;
    use crate::link::LogLink;
    use booters_testkit::rngs::StdRng;
    use booters_testkit::SeedableRng;

    fn poisson_problem(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Matrix::zeros(n, 2);
        let mut y = vec![0.0; n];
        for i in 0..n {
            let xi = (i % 30) as f64 / 10.0;
            x[(i, 0)] = 1.0;
            x[(i, 1)] = xi;
            let mu = (1.0 + 0.2 * xi).exp();
            y[i] = booters_stats::dist::Poisson::new(mu).sample(&mut rng) as f64;
        }
        (x, y)
    }

    #[test]
    fn workspace_fit_is_bit_identical_to_fit_irls() {
        let (x, y) = poisson_problem(200, 11);
        let reference =
            crate::fit_irls(&x, &y, &PoissonFamily, &LogLink, &IrlsOptions::default()).unwrap();
        let mut ws = IrlsWorkspace::new();
        fit_irls_into(
            &mut ws,
            &x,
            &y,
            None,
            &PoissonFamily,
            &LogLink,
            &IrlsOptions::default(),
            WarmStart::Cold,
        )
        .unwrap();
        assert_eq!(ws.beta(), reference.beta.as_slice());
        assert_eq!(ws.mu(), reference.mu.as_slice());
        assert_eq!(ws.eta(), reference.eta.as_slice());
        assert_eq!(ws.weights(), reference.weights.as_slice());
        assert_eq!(ws.log_likelihood(), reference.log_likelihood);
        assert_eq!(ws.deviance(), reference.deviance);
        assert_eq!(ws.iterations(), reference.iterations);
        let fit = ws.to_glm_fit();
        assert_eq!(fit.beta, reference.beta);
        assert_eq!(fit.n, reference.n);
        assert_eq!(fit.p, reference.p);
    }

    #[test]
    fn workspace_is_reusable_across_shapes() {
        let mut ws = IrlsWorkspace::new();
        for (n, seed) in [(60usize, 1u64), (200, 2), (60, 3)] {
            let (x, y) = poisson_problem(n, seed);
            fit_irls_into(
                &mut ws,
                &x,
                &y,
                None,
                &PoissonFamily,
                &LogLink,
                &IrlsOptions::default(),
                WarmStart::Cold,
            )
            .unwrap();
            let reference =
                crate::fit_irls(&x, &y, &PoissonFamily, &LogLink, &IrlsOptions::default())
                    .unwrap();
            assert_eq!(ws.beta(), reference.beta.as_slice(), "n={n}");
        }
    }

    #[test]
    fn warm_start_from_solution_converges_fast_to_same_optimum() {
        let (x, y) = poisson_problem(300, 5);
        let mut ws = IrlsWorkspace::new();
        fit_irls_into(
            &mut ws,
            &x,
            &y,
            None,
            &PoissonFamily,
            &LogLink,
            &IrlsOptions::default(),
            WarmStart::Cold,
        )
        .unwrap();
        let cold_beta = ws.beta().to_vec();
        let cold_iters = ws.iterations();
        fit_irls_into(
            &mut ws,
            &x,
            &y,
            None,
            &PoissonFamily,
            &LogLink,
            &IrlsOptions::default(),
            WarmStart::Beta(&cold_beta),
        )
        .unwrap();
        assert!(
            ws.iterations() < cold_iters,
            "warm {} vs cold {}",
            ws.iterations(),
            cold_iters
        );
        for (a, b) in ws.beta().iter().zip(&cold_beta) {
            assert!((a - b).abs() < 1e-8, "warm {a} vs cold {b}");
        }
    }

    #[test]
    fn wrong_length_warm_start_falls_back_to_cold() {
        let (x, y) = poisson_problem(80, 9);
        let mut cold = IrlsWorkspace::new();
        fit_irls_into(
            &mut cold,
            &x,
            &y,
            None,
            &PoissonFamily,
            &LogLink,
            &IrlsOptions::default(),
            WarmStart::Cold,
        )
        .unwrap();
        let mut ws = IrlsWorkspace::new();
        fit_irls_into(
            &mut ws,
            &x,
            &y,
            None,
            &PoissonFamily,
            &LogLink,
            &IrlsOptions::default(),
            WarmStart::Beta(&[0.0; 7]),
        )
        .unwrap();
        assert_eq!(ws.beta(), cold.beta());
        assert_eq!(ws.iterations(), cold.iterations());
    }

    #[test]
    fn validation_errors_match_fit_irls() {
        let (x, _) = poisson_problem(10, 1);
        let mut ws = IrlsWorkspace::new();
        let short = vec![1.0; 4];
        assert!(matches!(
            fit_irls_into(
                &mut ws,
                &x,
                &short,
                None,
                &PoissonFamily,
                &LogLink,
                &IrlsOptions::default(),
                WarmStart::Cold,
            ),
            Err(GlmError::DimensionMismatch { .. })
        ));
        let neg = vec![-1.0; 10];
        assert!(matches!(
            fit_irls_into(
                &mut ws,
                &x,
                &neg,
                None,
                &PoissonFamily,
                &LogLink,
                &IrlsOptions::default(),
                WarmStart::Cold,
            ),
            Err(GlmError::InvalidResponse { at: 0 })
        ));
    }
}
