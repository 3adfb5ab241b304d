//! Property-based tests for the GLM stack: estimator invariances that
//! must hold for any data.

use booters_glm::irls::{fit_irls, IrlsOptions};
use booters_glm::negbin::{fit_negbin, NegBinOptions};
use booters_glm::ols::fit_simple;
use booters_glm::summary::{push_fixed, push_whole};
use booters_glm::{LogLink, NegBin2, PoissonFamily};
use booters_linalg::Matrix;
use booters_stats::special::digamma;
use booters_testkit::strategy::prop;
use booters_testkit::{any, forall, prop_assert, prop_assert_eq, Strategy};

/// Strategy: a small regression problem with positive counts.
fn count_problem() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    prop::collection::vec((0.0..10.0f64, 0u64..400), 12..60).prop_map(|rows| {
        let xs: Vec<f64> = rows.iter().map(|(x, _)| *x).collect();
        let ys: Vec<f64> = rows.iter().map(|(_, y)| *y as f64).collect();
        (xs, ys)
    })
}

/// Strategy: a Table-1-shaped NB2 problem — 148 weekly observations on a
/// design with intercept, linear trend, an annual harmonic pair, and two
/// intervention dummies, with multiplicative noise on the conditional
/// mean to induce overdispersion. Mirrors the paper's global model shape
/// without being collinear (the dummies never sum to the intercept).
fn table1_problem() -> impl Strategy<Value = (Matrix, Vec<f64>)> {
    (
        prop::collection::vec(0.25..4.0f64, 148),
        -1.0..1.0f64,
        -1.5..0.5f64,
    )
        .prop_map(|(noise, trend, effect)| {
            let n = 148;
            let mut x = Matrix::zeros(n, 6);
            let mut y = Vec::with_capacity(n);
            for i in 0..n {
                let t = i as f64 / n as f64;
                let theta = 2.0 * std::f64::consts::PI * i as f64 / 52.0;
                let d1 = if (60..66).contains(&i) { 1.0 } else { 0.0 };
                let d2 = if i >= 120 { 1.0 } else { 0.0 };
                x[(i, 0)] = 1.0;
                x[(i, 1)] = t;
                x[(i, 2)] = theta.sin();
                x[(i, 3)] = theta.cos();
                x[(i, 4)] = d1;
                x[(i, 5)] = d2;
                let eta = 4.0
                    + trend * t
                    + 0.3 * theta.sin()
                    + 0.2 * theta.cos()
                    + effect * d1
                    + 0.5 * effect * d2;
                y.push((eta.exp() * noise[i]).round());
            }
            (x, y)
        })
}

fn table1_names() -> Vec<String> {
    ["_cons", "trend", "sin52", "cos52", "window1", "window2"]
        .iter()
        .map(|s| s.to_string())
        .collect()
}

/// The NB2 profile score dℓ/d ln α = Σᵢ α·∂ℓᵢ/∂α at fitted means `mu`,
/// written out from the NB2 log-likelihood
/// ℓᵢ = lnΓ(y+1/α) − lnΓ(1/α) − lnΓ(y+1) + y ln(αμ) − (y+1/α) ln(1+αμ).
fn score_ln_alpha(y: &[f64], mu: &[f64], alpha: f64) -> f64 {
    let k = 1.0 / alpha;
    y.iter()
        .zip(mu)
        .map(|(&yi, &mi)| {
            let d_alpha = k * k * ((1.0 + alpha * mi).ln() - digamma(yi + k) + digamma(k))
                + (yi - mi) / (alpha * (1.0 + alpha * mi));
            alpha * d_alpha
        })
        .sum()
}

fn design(xs: &[f64]) -> Matrix {
    let mut m = Matrix::zeros(xs.len(), 2);
    for (i, &x) in xs.iter().enumerate() {
        m[(i, 0)] = 1.0;
        m[(i, 1)] = x;
    }
    m
}

forall! {
    #![cases(48)]

    fn ols_residuals_sum_to_zero_with_intercept((xs, ys) in count_problem()) {
        if let Ok(fit) = fit_simple(&xs, &ys, 0.95) {
            let s: f64 = fit.residuals.iter().sum();
            prop_assert!(s.abs() < 1e-6 * ys.len() as f64, "Σr = {s}");
            // R² in [0, 1].
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(&fit.r_squared));
        }
    }

    fn ols_shift_equivariance((xs, ys) in count_problem(), c in -100.0..100.0f64) {
        let shifted: Vec<f64> = ys.iter().map(|y| y + c).collect();
        if let (Ok(a), Ok(b)) = (fit_simple(&xs, &ys, 0.95), fit_simple(&xs, &shifted, 0.95)) {
            // Slope unchanged, intercept shifts by c.
            let sa = a.coef("x").unwrap().coef;
            let sb = b.coef("x").unwrap().coef;
            prop_assert!((sa - sb).abs() < 1e-6, "slopes {sa} vs {sb}");
            let ia = a.coef("_cons").unwrap().coef;
            let ib = b.coef("_cons").unwrap().coef;
            prop_assert!((ib - ia - c).abs() < 1e-6);
        }
    }

    fn poisson_score_equation_holds((xs, ys) in count_problem()) {
        // At the MLE, Σ(y−μ)=0 and Σx(y−μ)=0 (score equations for the
        // canonical log link).
        let x = design(&xs);
        if ys.iter().sum::<f64>() == 0.0 {
            return;
        }
        if let Ok(fit) = fit_irls(&x, &ys, &PoissonFamily, &LogLink, &IrlsOptions::default()) {
            let r: Vec<f64> = ys.iter().zip(&fit.mu).map(|(y, m)| y - m).collect();
            let scale = ys.iter().sum::<f64>().max(1.0);
            prop_assert!(r.iter().sum::<f64>().abs() / scale < 1e-5);
            let xr: f64 = xs.iter().zip(&r).map(|(x, e)| x * e).sum();
            prop_assert!(xr.abs() / scale < 1e-4);
        }
    }

    fn log_link_scale_shifts_only_intercept((xs, ys) in count_problem(), k in 2u64..10) {
        // Multiplying counts by k shifts the intercept by ln k and leaves
        // the slope (approximately — k·y is still integer-valued Poisson-
        // like) unchanged.
        if ys.iter().sum::<f64>() == 0.0 {
            return;
        }
        let x = design(&xs);
        let scaled: Vec<f64> = ys.iter().map(|y| y * k as f64).collect();
        let a = fit_irls(&x, &ys, &PoissonFamily, &LogLink, &IrlsOptions::default());
        let b = fit_irls(&x, &scaled, &PoissonFamily, &LogLink, &IrlsOptions::default());
        if let (Ok(a), Ok(b)) = (a, b) {
            prop_assert!((b.beta[1] - a.beta[1]).abs() < 1e-5, "slopes differ");
            prop_assert!((b.beta[0] - a.beta[0] - (k as f64).ln()).abs() < 1e-5);
        }
    }

    fn warm_start_negbin_matches_cold_start((x, y) in table1_problem()) {
        // The warm-started profile search seeds each inner IRLS from the
        // previous β. The converged answers are tolerance-equal, not
        // bit-equal: β and the log-likelihood agree to ~1e-8
        // (scale-relative), and α to the root-finder's tolerance (~1e-7
        // in ln α) — IRLS stopping noise in the score moves the two
        // paths' root-finder steps apart below that.
        let names = table1_names();
        let warm = fit_negbin(&x, &y, &names, &NegBinOptions::default());
        let cold = fit_negbin(
            &x,
            &y,
            &names,
            &NegBinOptions { warm_start: false, ..NegBinOptions::default() },
        );
        if let (Ok(a), Ok(b)) = (warm, cold) {
            let scale = b.fit.beta.iter().fold(1.0f64, |m, v| m.max(v.abs()));
            for (j, (wa, co)) in a.fit.beta.iter().zip(&b.fit.beta).enumerate() {
                prop_assert!(
                    (wa - co).abs() <= 1e-6 * scale,
                    "beta[{j}] warm {wa} vs cold {co}"
                );
            }
            let ll_scale = b.log_likelihood.abs().max(1.0);
            prop_assert!(
                (a.log_likelihood - b.log_likelihood).abs() <= 1e-8 * ll_scale,
                "ll warm {} vs cold {}",
                a.log_likelihood,
                b.log_likelihood
            );
            prop_assert!(
                (a.alpha - b.alpha).abs() <= 1e-6 * b.alpha.max(1e-3),
                "alpha warm {} vs cold {}",
                a.alpha,
                b.alpha
            );
        }
    }

    fn negbin_alpha_is_a_root_of_the_profile_score((x, y) in table1_problem()) {
        // α̂ maximises the profile log-likelihood, so the profile score
        // vanishes there — or α̂ sits on a bound with the score pointing
        // out of the search range. β̂(α̂) is refitted with a tight IRLS
        // tolerance so the check sees the score, not IRLS stopping noise.
        let options = NegBinOptions::default();
        let fit = fit_negbin(&x, &y, &table1_names(), &options);
        prop_assert!(fit.is_ok(), "fit failed: {:?}", fit.err());
        let alpha = fit.unwrap().alpha;
        let tight = IrlsOptions { max_iterations: 200, tolerance: 1e-13 };
        let refit = fit_irls(&x, &y, &NegBin2::new(alpha), &LogLink, &tight);
        prop_assert!(refit.is_ok(), "tight refit at alpha {alpha} failed");
        let g = score_ln_alpha(&y, &refit.unwrap().mu, alpha);
        let outward = (alpha == options.alpha_min && g < 0.0)
            || (alpha == options.alpha_max && g > 0.0);
        prop_assert!(outward || g.abs() <= 1e-6, "score {g:e} at alpha {alpha}");
    }

    fn negbin_loglik_at_least_poisson((xs, ys) in count_problem()) {
        // The NB2 profile likelihood dominates the Poisson boundary value
        // (up to search tolerance).
        if ys.iter().sum::<f64>() == 0.0 {
            return;
        }
        let x = design(&xs);
        let names = vec!["_cons".to_string(), "x".to_string()];
        if let Ok(fit) = fit_negbin(&x, &ys, &names, &NegBinOptions::default()) {
            prop_assert!(
                fit.log_likelihood >= fit.poisson_log_likelihood - 0.5,
                "nb ll {} below poisson ll {}",
                fit.log_likelihood,
                fit.poisson_log_likelihood
            );
            prop_assert!(fit.alpha > 0.0);
            // Fitted means are positive and finite.
            prop_assert!(fit.fit.mu.iter().all(|m| m.is_finite() && *m > 0.0));
        }
    }
}

forall! {
    #![cases(4096)]

    fn push_fixed_matches_the_standard_formatter(
        bits in any::<u64>(),
        unit in -1.0..1.0f64,
        magnitude in -12i32..16,
        prec in 0usize..7,
        width in 0usize..14,
    ) {
        // Any bit pattern (NaN, infinities, subnormals, huge values), a
        // table-range number, exact binary ties k/2^j, which the
        // standard formatter rounds to even, and whole numbers on both
        // sides of 2^53 (the figures' counts take a shortcut below it).
        let table_range = unit * 10f64.powi(magnitude);
        let tie = (unit * 4096.0).round() / 2f64.powi(magnitude.rem_euclid(8));
        let whole = table_range.round();
        let near_2_53 = 2f64.powi(53) + (unit * 8.0).round();
        for v in [f64::from_bits(bits), table_range, tie, -tie, whole, near_2_53, -near_2_53] {
            let mut fast = String::new();
            push_fixed(&mut fast, v, width, prec);
            prop_assert_eq!(fast, format!("{v:>width$.prec$}"));
        }
    }

    fn push_whole_matches_to_string(n in any::<u64>(), digits in 0u32..20) {
        // Every digit count, not only the 19- and 20-digit values most
        // random words have.
        let n = if digits == 0 { n } else { n % 10u64.pow(digits) };
        let mut fast = String::from("x");
        push_whole(&mut fast, n);
        prop_assert_eq!(fast, format!("x{n}"));
    }
}
