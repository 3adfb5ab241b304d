//! Hypothesis tests used by §3 of the paper to validate the booter
//! self-reported attack counters:
//!
//! * [`white_test`] — White's test for heteroskedasticity (count data
//!   "tends to be heteroskedastistic ... as numbers go up the variance
//!   ... will increase as well"). Genuine counter series should reject
//!   homoskedasticity.
//! * [`dagostino_k2`] — the skewness/kurtosis normality test ("real-world
//!   data are often normally distributed, and faking with random data would
//!   produce uniform distributions").
//! * [`jarque_bera`] — the simpler moment-based normality test, kept as a
//!   cross-check.
//! * [`ljung_box`] — serial-correlation test used by the model diagnostics.
//! * [`prime_multiplier_check`] — the paper's "no sequences of any length
//!   had values which were all divisible by any prime less than 50" check
//!   for crude multiplicative forgery.

use crate::describe::{excess_kurtosis, mean, skewness};
use crate::dist::ChiSquared;
use booters_linalg::{Matrix, Qr};

/// Outcome of a hypothesis test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestResult {
    /// The test statistic.
    pub statistic: f64,
    /// Degrees of freedom of the reference distribution.
    pub df: f64,
    /// The p-value (upper tail unless documented otherwise).
    pub p_value: f64,
}

impl TestResult {
    /// True if the null hypothesis is rejected at the given level.
    pub fn reject_at(&self, level: f64) -> bool {
        self.p_value < level
    }
}

/// Residuals of the least-squares fit of `y` on `design`, the first `k`
/// columns of the matrix `qr` factors. Internal helper for [`white_test`].
fn ols_residuals(design: &Matrix, qr: &Qr, k: usize, y: &[f64]) -> Option<Vec<f64>> {
    let beta = qr.solve_leading(y, k).ok()?;
    let fitted = design.matvec(&beta).ok()?;
    Some(y.iter().zip(&fitted).map(|(a, b)| a - b).collect())
}

/// R² of a regression of `y` given residuals `resid`.
fn r_squared(y: &[f64], resid: &[f64]) -> f64 {
    let my = mean(y);
    let tss: f64 = y.iter().map(|v| (v - my) * (v - my)).sum();
    let rss: f64 = resid.iter().map(|e| e * e).sum();
    if tss <= 0.0 {
        return 0.0;
    }
    1.0 - rss / tss
}

/// White's test for heteroskedasticity of `y` regressed on a single
/// regressor `x` (the paper regresses weekly attack counts on time).
///
/// Procedure: OLS of y on (1, x); then the auxiliary regression of the
/// squared residuals on (1, x, x²). The LM statistic n·R² of the auxiliary
/// regression is χ²(2) under homoskedasticity. A *low* p-value means
/// heteroskedasticity — which for count data is the signature of genuine
/// (un-faked) series.
pub fn white_test(x: &[f64], y: &[f64]) -> Option<TestResult> {
    let n = x.len();
    if n != y.len() || n < 5 {
        return None;
    }
    // The main design (1, x) is the leading two columns of the auxiliary
    // one (1, x, x²), whose factorisation therefore serves both
    // regressions (`Qr::solve_leading`).
    let mut main = Matrix::zeros(n, 2);
    let mut aux = Matrix::zeros(n, 3);
    for (i, &xi) in x.iter().enumerate() {
        main[(i, 0)] = 1.0;
        main[(i, 1)] = xi;
        aux[(i, 0)] = 1.0;
        aux[(i, 1)] = xi;
        aux[(i, 2)] = xi * xi;
    }
    let qr = Qr::new(&aux).ok()?;
    let resid = ols_residuals(&main, &qr, 2, y)?;
    let e2: Vec<f64> = resid.iter().map(|e| e * e).collect();
    let aux_resid = ols_residuals(&aux, &qr, 3, &e2)?;
    let r2 = r_squared(&e2, &aux_resid);
    let stat = n as f64 * r2.max(0.0);
    let df = 2.0;
    Some(TestResult {
        statistic: stat,
        df,
        p_value: ChiSquared::new(df).sf(stat),
    })
}

/// D'Agostino's skewness z-test (the first half of K²).
fn dagostino_skewness_z(xs: &[f64]) -> Option<f64> {
    let n = xs.len() as f64;
    if n < 8.0 {
        return None;
    }
    let g1 = skewness(xs);
    let y = g1 * ((n + 1.0) * (n + 3.0) / (6.0 * (n - 2.0))).sqrt();
    let beta2 = 3.0 * (n * n + 27.0 * n - 70.0) * (n + 1.0) * (n + 3.0)
        / ((n - 2.0) * (n + 5.0) * (n + 7.0) * (n + 9.0));
    let w2 = -1.0 + (2.0 * (beta2 - 1.0)).sqrt();
    let delta = 1.0 / (0.5 * w2.ln()).sqrt();
    let alpha = (2.0 / (w2 - 1.0)).sqrt();
    let t = y / alpha;
    Some(delta * (t + (t * t + 1.0).sqrt()).ln())
}

/// Anscombe–Glynn kurtosis z-test (the second half of K²).
fn dagostino_kurtosis_z(xs: &[f64]) -> Option<f64> {
    let n = xs.len() as f64;
    if n < 20.0 {
        return None;
    }
    let b2 = excess_kurtosis(xs) + 3.0;
    let eb2 = 3.0 * (n - 1.0) / (n + 1.0);
    let vb2 = 24.0 * n * (n - 2.0) * (n - 3.0) / ((n + 1.0).powi(2) * (n + 3.0) * (n + 5.0));
    let x = (b2 - eb2) / vb2.sqrt();
    let sqrt_beta1 = 6.0 * (n * n - 5.0 * n + 2.0) / ((n + 7.0) * (n + 9.0))
        * (6.0 * (n + 3.0) * (n + 5.0) / (n * (n - 2.0) * (n - 3.0))).sqrt();
    let a = 6.0 + 8.0 / sqrt_beta1 * (2.0 / sqrt_beta1 + (1.0 + 4.0 / (sqrt_beta1 * sqrt_beta1)).sqrt());
    let num = 1.0 - 2.0 / (9.0 * a);
    let den_inner = (1.0 - 2.0 / a) / (1.0 + x * (2.0 / (a - 4.0)).sqrt());
    let z = (num - den_inner.cbrt()) / (2.0 / (9.0 * a)).sqrt();
    Some(z)
}

/// D'Agostino–Pearson K² omnibus normality test.
///
/// K² = Z₁² + Z₂² ~ χ²(2) under normality. Used on the top booter series to
/// check the self-reported counters look like real-world (≈ normal weekly
/// increments) rather than uniform machine-generated noise.
pub fn dagostino_k2(xs: &[f64]) -> Option<TestResult> {
    let z1 = dagostino_skewness_z(xs)?;
    let z2 = dagostino_kurtosis_z(xs)?;
    let stat = z1 * z1 + z2 * z2;
    Some(TestResult {
        statistic: stat,
        df: 2.0,
        p_value: ChiSquared::new(2.0).sf(stat),
    })
}

/// Jarque–Bera normality test. JB = n/6 (g₁² + g₂²/4) ~ χ²(2).
pub fn jarque_bera(xs: &[f64]) -> Option<TestResult> {
    let n = xs.len() as f64;
    if n < 8.0 {
        return None;
    }
    let g1 = skewness(xs);
    let g2 = excess_kurtosis(xs);
    let stat = n / 6.0 * (g1 * g1 + g2 * g2 / 4.0);
    Some(TestResult {
        statistic: stat,
        df: 2.0,
        p_value: ChiSquared::new(2.0).sf(stat),
    })
}

/// Ljung–Box test for serial correlation up to `lags`.
///
/// Q = n(n+2) Σ r_k²/(n−k) ~ χ²(lags). Used as a residual diagnostic on the
/// fitted negative binomial model.
pub fn ljung_box(xs: &[f64], lags: usize) -> Option<TestResult> {
    let n = xs.len();
    if lags == 0 || n <= lags + 1 {
        return None;
    }
    let nf = n as f64;
    let mut q = 0.0;
    for (k, r) in (1..=lags).zip(crate::describe::autocorrelations(xs, 1..=lags)) {
        if !r.is_finite() {
            return None;
        }
        q += r * r / (nf - k as f64);
    }
    q *= nf * (nf + 2.0);
    Some(TestResult {
        statistic: q,
        df: lags as f64,
        p_value: ChiSquared::new(lags as f64).sf(q),
    })
}

/// The primes below 50, as used by the paper's multiplier check.
pub const PRIMES_BELOW_50: [u64; 15] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47];

/// Result of the prime-divisibility multiplier check on one series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiplierCheck {
    /// For each prime below 50, the length of the longest run of
    /// consecutive values all divisible by that prime.
    pub longest_runs: Vec<(u64, usize)>,
    /// Length of the series examined.
    pub len: usize,
}

impl MultiplierCheck {
    /// True when some prime divides a run at least `threshold` long —
    /// the signature of a crude "multiply a genuine counter by k" forgery.
    pub fn suspicious(&self, threshold: usize) -> bool {
        self.longest_runs.iter().any(|&(_, run)| run >= threshold)
    }

    /// The prime with the longest divisible run, if any run is non-zero.
    pub fn worst(&self) -> Option<(u64, usize)> {
        self.longest_runs
            .iter()
            .copied()
            .max_by_key(|&(_, run)| run)
            .filter(|&(_, run)| run > 0)
    }
}

/// Check whether any prime below 50 divides every element of a long run of
/// the series (paper §3: "no sequences of any length had values which were
/// all divisible by any prime less than 50").
///
/// Zero values are treated as divisible by everything (a zeroed counter is
/// not evidence of forgery), so runs are broken only by a non-zero,
/// non-divisible value.
pub fn prime_multiplier_check(series: &[u64]) -> MultiplierCheck {
    /// The longest run of values divisible by `P`. A constant divisor
    /// compiles to a multiplication instead of a 64-bit division, which
    /// was most of the check's cost.
    fn longest_run<const P: u64>(series: &[u64]) -> usize {
        let (mut best, mut run) = (0, 0);
        for &v in series {
            if v % P == 0 {
                run += 1;
                best = best.max(run);
            } else {
                run = 0;
            }
        }
        best
    }
    const RUNS: [fn(&[u64]) -> usize; PRIMES_BELOW_50.len()] = [
        longest_run::<{ PRIMES_BELOW_50[0] }>,
        longest_run::<{ PRIMES_BELOW_50[1] }>,
        longest_run::<{ PRIMES_BELOW_50[2] }>,
        longest_run::<{ PRIMES_BELOW_50[3] }>,
        longest_run::<{ PRIMES_BELOW_50[4] }>,
        longest_run::<{ PRIMES_BELOW_50[5] }>,
        longest_run::<{ PRIMES_BELOW_50[6] }>,
        longest_run::<{ PRIMES_BELOW_50[7] }>,
        longest_run::<{ PRIMES_BELOW_50[8] }>,
        longest_run::<{ PRIMES_BELOW_50[9] }>,
        longest_run::<{ PRIMES_BELOW_50[10] }>,
        longest_run::<{ PRIMES_BELOW_50[11] }>,
        longest_run::<{ PRIMES_BELOW_50[12] }>,
        longest_run::<{ PRIMES_BELOW_50[13] }>,
        longest_run::<{ PRIMES_BELOW_50[14] }>,
    ];
    MultiplierCheck {
        longest_runs: PRIMES_BELOW_50
            .iter()
            .zip(RUNS)
            .map(|(&p, run)| (p, run(series)))
            .collect(),
        len: series.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use booters_testkit::rngs::StdRng;
    use booters_testkit::{Rng, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5EED)
    }

    #[test]
    fn white_detects_heteroskedasticity() {
        // Variance grows with x — like genuine count data.
        let mut r = rng();
        let n = 300;
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|&xi| {
                let sd = 1.0 + 0.2 * xi;
                2.0 + 0.5 * xi + sd * crate::dist::standard_normal_sample(&mut r)
            })
            .collect();
        let res = white_test(&x, &y).unwrap();
        assert!(res.reject_at(0.05), "p={}", res.p_value);
    }

    #[test]
    fn white_accepts_homoskedastic_data() {
        let mut r = rng();
        let n = 300;
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|&xi| 2.0 + 0.5 * xi + 3.0 * crate::dist::standard_normal_sample(&mut r))
            .collect();
        let res = white_test(&x, &y).unwrap();
        assert!(!res.reject_at(0.01), "p={}", res.p_value);
    }

    #[test]
    fn white_too_short_returns_none() {
        assert!(white_test(&[1.0, 2.0], &[1.0, 2.0]).is_none());
    }

    #[test]
    fn k2_accepts_normal_data() {
        let mut r = rng();
        let xs: Vec<f64> = (0..500)
            .map(|_| 10.0 + 2.0 * crate::dist::standard_normal_sample(&mut r))
            .collect();
        let res = dagostino_k2(&xs).unwrap();
        assert!(!res.reject_at(0.01), "p={}", res.p_value);
    }

    #[test]
    fn k2_rejects_uniform_data() {
        // Uniform data has strongly negative excess kurtosis; the paper's
        // forgery scenario ("faking with random data would produce uniform
        // distributions") should be flagged.
        let mut r = rng();
        let xs: Vec<f64> = (0..500).map(|_| r.gen::<f64>() * 100.0).collect();
        let res = dagostino_k2(&xs).unwrap();
        assert!(res.reject_at(0.05), "p={}", res.p_value);
    }

    #[test]
    fn k2_rejects_exponential_data() {
        let mut r = rng();
        let xs: Vec<f64> = (0..400).map(|_| -(r.gen::<f64>().max(1e-12)).ln()).collect();
        let res = dagostino_k2(&xs).unwrap();
        assert!(res.reject_at(0.05));
    }

    #[test]
    fn jarque_bera_agrees_with_k2_direction() {
        let mut r = rng();
        let normal: Vec<f64> = (0..400)
            .map(|_| crate::dist::standard_normal_sample(&mut r))
            .collect();
        let uniform: Vec<f64> = (0..400).map(|_| r.gen::<f64>()).collect();
        assert!(!jarque_bera(&normal).unwrap().reject_at(0.01));
        assert!(jarque_bera(&uniform).unwrap().reject_at(0.05));
    }

    #[test]
    fn ljung_box_detects_autocorrelation() {
        // AR(1) with phi = 0.8.
        let mut r = rng();
        let mut xs = vec![0.0f64; 400];
        for i in 1..400 {
            xs[i] = 0.8 * xs[i - 1] + crate::dist::standard_normal_sample(&mut r);
        }
        let res = ljung_box(&xs, 10).unwrap();
        assert!(res.reject_at(0.001));
    }

    #[test]
    fn ljung_box_accepts_white_noise() {
        let mut r = rng();
        let xs: Vec<f64> = (0..400)
            .map(|_| crate::dist::standard_normal_sample(&mut r))
            .collect();
        let res = ljung_box(&xs, 10).unwrap();
        assert!(!res.reject_at(0.01), "p={}", res.p_value);
    }

    #[test]
    fn multiplier_check_flags_scaled_series() {
        // A counter multiplied by 7: every value divisible by 7.
        let series: Vec<u64> = (1..50).map(|i| i * 7).collect();
        let check = prime_multiplier_check(&series);
        assert!(check.suspicious(20));
        assert_eq!(check.worst().unwrap().0 % 7, 0);
    }

    #[test]
    fn multiplier_check_passes_genuine_series() {
        // Odd/even mixed increments: no prime divides long runs.
        let mut r = rng();
        let mut total = 1_000u64;
        let series: Vec<u64> = (0..100)
            .map(|_| {
                total += r.gen_range(10u64..200);
                total
            })
            .collect();
        let check = prime_multiplier_check(&series);
        // Runs of divisibility by 2 happen by chance but stay short.
        assert!(!check.suspicious(15), "worst={:?}", check.worst());
    }

    #[test]
    fn multiplier_check_zero_values_do_not_break_runs() {
        let series = [14u64, 0, 21, 28];
        let check = prime_multiplier_check(&series);
        let seven = check.longest_runs.iter().find(|&&(p, _)| p == 7).unwrap();
        assert_eq!(seven.1, 4);
    }

    #[test]
    fn multiplier_check_equals_division_by_each_prime() {
        // Multiples of products of small primes, zeros and arbitrary
        // 64-bit values, against the plain runtime-divisor loop.
        let mut r = rng();
        for len in [0usize, 1, 7, 200] {
            let series: Vec<u64> = (0..len)
                .map(|i| match i % 5 {
                    0 => 0,
                    1 => r.gen(),
                    2 => u64::MAX - r.gen_range(0u64..50),
                    _ => PRIMES_BELOW_50[r.gen_range(0usize..15)] * r.gen_range(0..u64::MAX / 47),
                })
                .collect();
            let check = prime_multiplier_check(&series);
            assert_eq!(check.len, len);
            for (&p, &(q, run)) in PRIMES_BELOW_50.iter().zip(&check.longest_runs) {
                let (mut best, mut cur) = (0, 0);
                for &v in &series {
                    cur = if v % p == 0 { cur + 1 } else { 0 };
                    best = best.max(cur);
                }
                assert_eq!((q, run), (p, best), "len={len}");
            }
        }
    }

    #[test]
    fn test_result_reject_levels() {
        let t = TestResult {
            statistic: 5.0,
            df: 2.0,
            p_value: 0.03,
        };
        assert!(t.reject_at(0.05));
        assert!(!t.reject_at(0.01));
    }
}
