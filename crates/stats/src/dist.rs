//! Probability distributions with density, CDF, quantile and sampling.
//!
//! Each distribution is a small value type; sampling takes any
//! [`booters_testkit::Rng`] so simulations stay seedable and deterministic.
//! CDFs route through the incomplete gamma/beta functions in
//! [`crate::special`]; quantiles use closed forms where they exist and
//! bracketed Newton refinement otherwise.

use crate::special::{beta_inc, gamma_p, gamma_q, ln_gamma};
use booters_testkit::Rng;

// ---------------------------------------------------------------------------
// Normal
// ---------------------------------------------------------------------------

/// Normal (Gaussian) distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    /// Mean.
    pub mu: f64,
    /// Standard deviation (> 0).
    pub sigma: f64,
}

impl Normal {
    /// Construct; panics if `sigma <= 0`.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma > 0.0, "Normal: sigma must be > 0, got {sigma}");
        Normal { mu, sigma }
    }

    /// The standard normal N(0, 1).
    pub fn standard() -> Self {
        Normal { mu: 0.0, sigma: 1.0 }
    }

    /// Cumulative distribution function.
    pub fn cdf(&self, x: f64) -> f64 {
        let z = (x - self.mu) / (self.sigma * std::f64::consts::SQRT_2);
        0.5 * crate::special::erfc(-z)
    }

    /// Two-sided tail probability for a z-statistic: `P(|Z| > |z|)`.
    pub fn two_sided_p(z: f64) -> f64 {
        crate::special::erfc(z.abs() / std::f64::consts::SQRT_2)
    }

    /// Quantile (inverse CDF) via the Acklam rational approximation with a
    /// single Halley refinement step; absolute error below 1e-13.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "Normal::quantile: p={p}");
        self.mu + self.sigma * standard_normal_quantile(p)
    }

    /// Draw one sample (Box–Muller polar/Marsaglia method).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mu + self.sigma * standard_normal_sample(rng)
    }
}

/// Standard normal quantile (Acklam's algorithm + one Halley step).
pub fn standard_normal_quantile(p: f64) -> f64 {
    if p == 0.0 {
        return f64::NEG_INFINITY;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }
    // Acklam's coefficients.
    const A: [f64; 6] = [
        -39.696_830_286_653_76,
        220.946_098_424_520_9,
        -275.928_510_446_968_9,
        138.357_751_867_269,
        -30.664_798_066_147_16,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -54.476_098_798_224_06,
        161.585_836_858_040_9,
        -155.698_979_859_886_6,
        66.801_311_887_719_72,
        -13.280_681_552_885_72,
    ];
    const C: [f64; 6] = [
        -0.007_784_894_002_430_293,
        -0.322_396_458_041_136_4,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        0.007_784_695_709_041_462,
        0.322_467_129_070_039_8,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;
    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    // One Halley refinement step against the true CDF.
    let std = Normal::standard();
    let e = std.cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Draw a standard normal variate by the Marsaglia polar method.
pub fn standard_normal_sample<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen_range(-1.0..1.0);
        let v: f64 = rng.gen_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

// ---------------------------------------------------------------------------
// Poisson
// ---------------------------------------------------------------------------

/// Poisson distribution with rate `lambda`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    /// Rate (mean) parameter, > 0.
    pub lambda: f64,
}

impl Poisson {
    /// Construct; panics if `lambda <= 0`.
    pub fn new(lambda: f64) -> Self {
        assert!(lambda > 0.0, "Poisson: lambda must be > 0, got {lambda}");
        Poisson { lambda }
    }

    /// Log probability mass at `k`.
    pub fn ln_pmf(&self, k: u64) -> f64 {
        let kf = k as f64;
        kf * self.lambda.ln() - self.lambda - ln_gamma(kf + 1.0)
    }

    /// Probability mass at `k`.
    pub fn pmf(&self, k: u64) -> f64 {
        self.ln_pmf(k).exp()
    }

    /// CDF: `P(X <= k) = Q(k+1, λ)` (regularised upper incomplete gamma).
    pub fn cdf(&self, k: u64) -> f64 {
        gamma_q(k as f64 + 1.0, self.lambda)
    }

    /// Draw one sample. Knuth's product method for small λ, the
    /// normal-approximation with acceptance correction (PTRS-lite: rounded
    /// Gaussian with rejection against the exact pmf ratio) for large λ.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.lambda < 30.0 {
            // Knuth: multiply uniforms until the product drops below e^{-λ}.
            let limit = (-self.lambda).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= rng.gen::<f64>();
                if p <= limit {
                    return k;
                }
                k += 1;
            }
        }
        // Atkinson's transformed rejection from a logistic envelope.
        let lambda = self.lambda;
        let beta = std::f64::consts::PI / (3.0 * lambda).sqrt();
        let alpha = beta * lambda;
        let k_const = (0.767 - 3.36 / lambda).ln() - lambda - beta.ln();
        loop {
            let u: f64 = rng.gen();
            if u <= 0.0 || u >= 1.0 {
                continue;
            }
            let x = (alpha - ((1.0 - u) / u).ln()) / beta;
            let n = (x + 0.5).floor();
            if n < 0.0 {
                continue;
            }
            let v: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            let y = alpha - beta * x;
            let t = 1.0 + y.exp();
            let lhs = y + (v / (t * t)).ln();
            let rhs = k_const + n * lambda.ln() - ln_gamma(n + 1.0);
            if lhs <= rhs {
                return n as u64;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Gamma
// ---------------------------------------------------------------------------

/// Gamma distribution with shape `k` and scale `theta` (mean = k·θ).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GammaDist {
    /// Shape parameter, > 0.
    pub shape: f64,
    /// Scale parameter, > 0.
    pub scale: f64,
}

impl GammaDist {
    /// Construct; panics on non-positive parameters.
    pub fn new(shape: f64, scale: f64) -> Self {
        assert!(shape > 0.0 && scale > 0.0, "GammaDist: shape={shape}, scale={scale}");
        GammaDist { shape, scale }
    }

    /// CDF via the regularised lower incomplete gamma.
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        gamma_p(self.shape, x / self.scale)
    }

    /// Draw one sample via Marsaglia–Tsang (2000), with the shape<1 boost.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let shape = self.shape;
        if shape < 1.0 {
            // Boost: X(a) = X(a+1) * U^{1/a}
            let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            let boosted = GammaDist::new(shape + 1.0, 1.0).sample(rng);
            return boosted * u.powf(1.0 / shape) * self.scale;
        }
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = standard_normal_sample(rng);
            let v = 1.0 + c * x;
            if v <= 0.0 {
                continue;
            }
            let v3 = v * v * v;
            let u: f64 = rng.gen();
            if u < 1.0 - 0.0331 * x.powi(4)
                || u.ln() < 0.5 * x * x + d * (1.0 - v3 + v3.ln())
            {
                return d * v3 * self.scale;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Negative binomial (NB2 parameterisation)
// ---------------------------------------------------------------------------

/// Negative binomial distribution in the NB2 (mean, dispersion) form used by
/// count regression: mean `mu`, dispersion `alpha` with Var = μ + α μ².
///
/// Equivalently a Poisson(λ) with λ ~ Gamma(shape = 1/α, scale = α μ).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NegativeBinomial {
    /// Mean, > 0.
    pub mu: f64,
    /// Dispersion α, > 0. As α → 0 the distribution approaches Poisson(μ).
    pub alpha: f64,
}

impl NegativeBinomial {
    /// Construct; panics on non-positive parameters.
    pub fn new(mu: f64, alpha: f64) -> Self {
        assert!(mu > 0.0 && alpha > 0.0, "NegativeBinomial: mu={mu}, alpha={alpha}");
        NegativeBinomial { mu, alpha }
    }

    /// Size parameter r = 1/α (number of failures in the classic form).
    pub fn r(&self) -> f64 {
        1.0 / self.alpha
    }

    /// Success probability p = r/(r+μ) in the classic parameterisation.
    pub fn p(&self) -> f64 {
        self.r() / (self.r() + self.mu)
    }

    /// Variance μ + α μ².
    pub fn variance(&self) -> f64 {
        self.mu + self.alpha * self.mu * self.mu
    }

    /// Log probability mass at `k`.
    pub fn ln_pmf(&self, k: u64) -> f64 {
        let kf = k as f64;
        let r = self.r();
        ln_gamma(kf + r) - ln_gamma(r) - ln_gamma(kf + 1.0)
            + r * (r / (r + self.mu)).ln()
            + kf * (self.mu / (r + self.mu)).ln()
    }

    /// Probability mass at `k`.
    pub fn pmf(&self, k: u64) -> f64 {
        self.ln_pmf(k).exp()
    }

    /// CDF: `P(X <= k) = I_p(r, k+1)` (regularised incomplete beta).
    pub fn cdf(&self, k: u64) -> f64 {
        beta_inc(self.r(), k as f64 + 1.0, self.p())
    }

    /// Draw one sample as a Gamma–Poisson mixture.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let lambda = GammaDist::new(self.r(), self.alpha * self.mu).sample(rng);
        if lambda <= 0.0 {
            return 0;
        }
        Poisson::new(lambda.max(1e-12)).sample(rng)
    }
}

// ---------------------------------------------------------------------------
// Binomial
// ---------------------------------------------------------------------------

/// Binomial distribution with `n` trials and success probability `p`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Binomial {
    /// Number of trials.
    pub n: u64,
    /// Success probability in [0, 1].
    pub p: f64,
}

impl Binomial {
    /// Construct; panics if `p` is outside [0, 1].
    pub fn new(n: u64, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "Binomial: p={p}");
        Binomial { n, p }
    }

    /// Log probability mass at `k`.
    pub fn ln_pmf(&self, k: u64) -> f64 {
        if k > self.n {
            return f64::NEG_INFINITY;
        }
        if self.p == 0.0 {
            return if k == 0 { 0.0 } else { f64::NEG_INFINITY };
        }
        if self.p == 1.0 {
            return if k == self.n { 0.0 } else { f64::NEG_INFINITY };
        }
        let (nf, kf) = (self.n as f64, k as f64);
        ln_gamma(nf + 1.0) - ln_gamma(kf + 1.0) - ln_gamma(nf - kf + 1.0)
            + kf * self.p.ln()
            + (nf - kf) * (1.0 - self.p).ln()
    }

    /// Probability mass at `k`.
    pub fn pmf(&self, k: u64) -> f64 {
        self.ln_pmf(k).exp()
    }

    /// CDF via the regularised incomplete beta:
    /// `P(X <= k) = I_{1-p}(n-k, k+1)`.
    pub fn cdf(&self, k: u64) -> f64 {
        if k >= self.n {
            return 1.0;
        }
        beta_inc((self.n - k) as f64, k as f64 + 1.0, 1.0 - self.p)
    }

    /// Mean `n·p`.
    pub fn mean(&self) -> f64 {
        self.n as f64 * self.p
    }

    /// Variance `n·p·(1−p)`.
    pub fn variance(&self) -> f64 {
        self.n as f64 * self.p * (1.0 - self.p)
    }
}

// ---------------------------------------------------------------------------
// Exponential
// ---------------------------------------------------------------------------

/// Exponential distribution with rate λ (mean 1/λ) — inter-arrival times
/// of Poisson attack processes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    /// Rate parameter, > 0.
    pub rate: f64,
}

impl Exponential {
    /// Construct; panics unless `rate > 0`.
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0, "Exponential: rate={rate}");
        Exponential { rate }
    }

    /// CDF.
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            1.0 - (-self.rate * x).exp()
        }
    }

    /// Quantile (inverse CDF).
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..1.0).contains(&p), "Exponential::quantile: p={p}");
        -(1.0 - p).ln() / self.rate
    }

    /// Draw one sample by inversion.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        -u.ln() / self.rate
    }
}

// ---------------------------------------------------------------------------
// Chi-squared
// ---------------------------------------------------------------------------

/// Chi-squared distribution with `df` degrees of freedom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChiSquared {
    /// Degrees of freedom, > 0.
    pub df: f64,
}

impl ChiSquared {
    /// Construct; panics if `df <= 0`.
    pub fn new(df: f64) -> Self {
        assert!(df > 0.0, "ChiSquared: df must be > 0, got {df}");
        ChiSquared { df }
    }

    /// CDF.
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        gamma_p(self.df / 2.0, x / 2.0)
    }

    /// Upper tail probability (the p-value of a chi-squared statistic).
    pub fn sf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 1.0;
        }
        gamma_q(self.df / 2.0, x / 2.0)
    }

    /// Quantile via bracketing + bisection/Newton hybrid.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..1.0).contains(&p), "ChiSquared::quantile: p={p}");
        if p == 0.0 {
            return 0.0;
        }
        // Wilson–Hilferty starting point, then bisection refinement.
        let z = standard_normal_quantile(p);
        let d = self.df;
        let mut x = d * (1.0 - 2.0 / (9.0 * d) + z * (2.0 / (9.0 * d)).sqrt()).powi(3);
        if !(x.is_finite() && x > 0.0) {
            x = d;
        }
        // Bracket.
        let (mut lo, mut hi) = (0.0_f64, x.max(1.0));
        while self.cdf(hi) < p {
            hi *= 2.0;
            if hi > 1e10 {
                break;
            }
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) < p {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo < 1e-12 * hi.max(1.0) {
                break;
            }
        }
        0.5 * (lo + hi)
    }

    /// Draw one sample as Gamma(df/2, 2).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        GammaDist::new(self.df / 2.0, 2.0).sample(rng)
    }
}

// ---------------------------------------------------------------------------
// Student's t
// ---------------------------------------------------------------------------

/// Student's t distribution with `df` degrees of freedom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudentsT {
    /// Degrees of freedom, > 0.
    pub df: f64,
}

impl StudentsT {
    /// Construct; panics if `df <= 0`.
    pub fn new(df: f64) -> Self {
        assert!(df > 0.0, "StudentsT: df must be > 0, got {df}");
        StudentsT { df }
    }

    /// CDF.
    pub fn cdf(&self, t: f64) -> f64 {
        let d = self.df;
        let x = d / (d + t * t);
        let tail = 0.5 * beta_inc(d / 2.0, 0.5, x);
        if t >= 0.0 {
            1.0 - tail
        } else {
            tail
        }
    }

    /// Two-sided tail probability `P(|T| > |t|)`.
    pub fn two_sided_p(&self, t: f64) -> f64 {
        let d = self.df;
        beta_inc(d / 2.0, 0.5, d / (d + t * t))
    }

    /// Quantile via symmetry + bisection on the CDF.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..1.0).contains(&p) && p > 0.0, "StudentsT::quantile: p={p}");
        if (p - 0.5).abs() < 1e-16 {
            return 0.0;
        }
        if p < 0.5 {
            return -self.quantile(1.0 - p);
        }
        let (mut lo, mut hi) = (0.0_f64, 1.0_f64);
        while self.cdf(hi) < p {
            hi *= 2.0;
            if hi > 1e12 {
                break;
            }
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) < p {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo < 1e-13 * hi.max(1.0) {
                break;
            }
        }
        0.5 * (lo + hi)
    }
}

// ---------------------------------------------------------------------------
// F distribution
// ---------------------------------------------------------------------------

/// Fisher–Snedecor F distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FDist {
    /// Numerator degrees of freedom, > 0.
    pub df1: f64,
    /// Denominator degrees of freedom, > 0.
    pub df2: f64,
}

impl FDist {
    /// Construct; panics on non-positive degrees of freedom.
    pub fn new(df1: f64, df2: f64) -> Self {
        assert!(df1 > 0.0 && df2 > 0.0, "FDist: df1={df1}, df2={df2}");
        FDist { df1, df2 }
    }

    /// CDF.
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let (d1, d2) = (self.df1, self.df2);
        beta_inc(d1 / 2.0, d2 / 2.0, d1 * x / (d1 * x + d2))
    }

    /// Upper tail probability (the p-value of an F statistic).
    pub fn sf(&self, x: f64) -> f64 {
        1.0 - self.cdf(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use booters_testkit::rngs::StdRng;
    use booters_testkit::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xB007E2)
    }

    #[test]
    fn normal_pdf_cdf_known_values() {
        let n = Normal::standard();
        assert!((n.cdf(0.0) - 0.5).abs() < 1e-12);
        assert!((n.cdf(1.959_963_984_540_054) - 0.975).abs() < 1e-9);
        assert!((n.cdf(-1.959_963_984_540_054) - 0.025).abs() < 1e-9);
    }

    #[test]
    fn normal_quantile_inverts_cdf() {
        let n = Normal::new(2.0, 3.0);
        for &p in &[0.001, 0.025, 0.2, 0.5, 0.8, 0.975, 0.999] {
            let x = n.quantile(p);
            assert!((n.cdf(x) - p).abs() < 1e-9, "p={p}");
        }
    }

    #[test]
    fn normal_two_sided_p() {
        assert!((Normal::two_sided_p(1.959_963_984_540_054) - 0.05).abs() < 1e-9);
        assert!((Normal::two_sided_p(-2.575_829_303_548_901) - 0.01).abs() < 1e-8);
    }

    #[test]
    fn normal_sample_moments() {
        let n = Normal::new(5.0, 2.0);
        let mut r = rng();
        let xs: Vec<f64> = (0..20_000).map(|_| n.sample(&mut r)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((mean - 5.0).abs() < 0.06, "mean={mean}");
        assert!((var - 4.0).abs() < 0.25, "var={var}");
    }

    #[test]
    fn poisson_pmf_sums_to_one() {
        let p = Poisson::new(4.2);
        let total: f64 = (0..100).map(|k| p.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn poisson_cdf_matches_partial_sums() {
        let p = Poisson::new(7.5);
        let mut acc = 0.0;
        for k in 0..20 {
            acc += p.pmf(k);
            assert!((p.cdf(k) - acc).abs() < 1e-10, "k={k}");
        }
    }

    #[test]
    fn poisson_sample_mean_small_lambda() {
        let p = Poisson::new(3.0);
        let mut r = rng();
        let n = 20_000;
        let mean = (0..n).map(|_| p.sample(&mut r) as f64).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean={mean}");
    }

    #[test]
    fn poisson_sample_mean_large_lambda() {
        let p = Poisson::new(500.0);
        let mut r = rng();
        let n = 5_000;
        let xs: Vec<f64> = (0..n).map(|_| p.sample(&mut r) as f64).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 500.0).abs() < 2.0, "mean={mean}");
        assert!((var / 500.0 - 1.0).abs() < 0.15, "var={var}");
    }

    #[test]
    fn gamma_cdf_exponential_case() {
        let g = GammaDist::new(1.0, 2.0);
        // Exp(scale 2): CDF(x) = 1 - e^{-x/2}
        for &x in &[0.5, 1.0, 4.0] {
            assert!((g.cdf(x) - (1.0 - (-x / 2.0f64).exp())).abs() < 1e-12);
        }
    }

    #[test]
    fn gamma_sample_moments() {
        let g = GammaDist::new(3.0, 2.0); // mean 6, var 12
        let mut r = rng();
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| g.sample(&mut r)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 6.0).abs() < 0.1, "mean={mean}");
        assert!((var - 12.0).abs() < 0.7, "var={var}");
    }

    #[test]
    fn gamma_sample_shape_below_one() {
        let g = GammaDist::new(0.5, 1.0); // mean 0.5
        let mut r = rng();
        let n = 20_000;
        let mean = (0..n).map(|_| g.sample(&mut r)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.03, "mean={mean}");
    }

    #[test]
    fn negbin_pmf_sums_to_one() {
        let nb = NegativeBinomial::new(10.0, 0.5);
        let total: f64 = (0..2000).map(|k| nb.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn negbin_moments_match_formula() {
        let nb = NegativeBinomial::new(10.0, 0.5);
        let mean: f64 = (0..4000).map(|k| k as f64 * nb.pmf(k)).sum();
        let var: f64 = (0..4000).map(|k| (k as f64 - mean).powi(2) * nb.pmf(k)).sum();
        assert!((mean - 10.0).abs() < 1e-6);
        assert!((var - nb.variance()).abs() < 1e-4);
        assert!((nb.variance() - 60.0).abs() < 1e-12); // 10 + 0.5*100
    }

    #[test]
    fn negbin_cdf_matches_partial_sums() {
        let nb = NegativeBinomial::new(5.0, 0.8);
        let mut acc = 0.0;
        for k in 0..30 {
            acc += nb.pmf(k);
            assert!((nb.cdf(k) - acc).abs() < 1e-9, "k={k}");
        }
    }

    #[test]
    fn negbin_approaches_poisson_as_alpha_vanishes() {
        let nb = NegativeBinomial::new(6.0, 1e-8);
        let po = Poisson::new(6.0);
        for k in 0..20 {
            assert!((nb.pmf(k) - po.pmf(k)).abs() < 1e-5, "k={k}");
        }
    }

    #[test]
    fn negbin_sample_moments() {
        let nb = NegativeBinomial::new(50.0, 0.2); // var = 50 + 0.2*2500 = 550
        let mut r = rng();
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| nb.sample(&mut r) as f64).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 50.0).abs() < 0.7, "mean={mean}");
        assert!((var / 550.0 - 1.0).abs() < 0.12, "var={var}");
    }

    #[test]
    fn binomial_pmf_sums_to_one_and_moments() {
        let b = Binomial::new(30, 0.3);
        let total: f64 = (0..=30).map(|k| b.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        let mean: f64 = (0..=30).map(|k| k as f64 * b.pmf(k)).sum();
        assert!((mean - b.mean()).abs() < 1e-10);
        assert!((b.variance() - 6.3).abs() < 1e-12);
    }

    #[test]
    fn binomial_cdf_matches_partial_sums() {
        let b = Binomial::new(20, 0.45);
        let mut acc = 0.0;
        for k in 0..20 {
            acc += b.pmf(k);
            assert!((b.cdf(k) - acc).abs() < 1e-10, "k={k}");
        }
        assert_eq!(b.cdf(20), 1.0);
    }

    #[test]
    fn binomial_degenerate_p() {
        let b0 = Binomial::new(5, 0.0);
        assert_eq!(b0.pmf(0), 1.0);
        assert_eq!(b0.pmf(1), 0.0);
        let b1 = Binomial::new(5, 1.0);
        assert_eq!(b1.pmf(5), 1.0);
        assert_eq!(b1.pmf(4), 0.0);
    }

    #[test]
    fn exponential_cdf_quantile_roundtrip() {
        let e = Exponential::new(2.5);
        for &p in &[0.1, 0.5, 0.9, 0.99] {
            assert!((e.cdf(e.quantile(p)) - p).abs() < 1e-12);
        }
    }

    #[test]
    fn exponential_sample_mean() {
        let e = Exponential::new(0.5); // mean 2
        let mut r = rng();
        let n = 20_000;
        let mean = (0..n).map(|_| e.sample(&mut r)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean={mean}");
    }

    #[test]
    fn chi_squared_cdf_and_quantile() {
        let c = ChiSquared::new(1.0);
        assert!((c.cdf(3.841_458_820_694_124) - 0.95).abs() < 1e-8);
        assert!((c.quantile(0.95) - 3.841_458_820_694_124).abs() < 1e-6);
        let c5 = ChiSquared::new(5.0);
        assert!((c5.quantile(0.95) - 11.070_497_693_516_35).abs() < 1e-6);
        assert!((c5.sf(11.070_497_693_516_35) - 0.05).abs() < 1e-8);
    }

    #[test]
    fn chi_squared_sample_mean() {
        let c = ChiSquared::new(7.0);
        let mut r = rng();
        let n = 20_000;
        let mean = (0..n).map(|_| c.sample(&mut r)).sum::<f64>() / n as f64;
        assert!((mean - 7.0).abs() < 0.1, "mean={mean}");
    }

    #[test]
    fn students_t_cdf_and_quantile() {
        let t = StudentsT::new(10.0);
        assert!((t.cdf(0.0) - 0.5).abs() < 1e-12);
        assert!((t.cdf(2.228_138_851_986_273) - 0.975).abs() < 1e-8);
        assert!((t.quantile(0.975) - 2.228_138_851_986_273).abs() < 1e-6);
        assert!((t.quantile(0.025) + 2.228_138_851_986_273).abs() < 1e-6);
    }

    #[test]
    fn students_t_two_sided() {
        let t = StudentsT::new(30.0);
        let p = t.two_sided_p(2.042_272_456_301_238);
        assert!((p - 0.05).abs() < 1e-7, "p={p}");
    }

    #[test]
    fn students_t_approaches_normal() {
        let t = StudentsT::new(1e6);
        let n = Normal::standard();
        for &x in &[-2.0, -0.5, 0.7, 1.96] {
            assert!((t.cdf(x) - n.cdf(x)).abs() < 1e-5);
        }
    }

    #[test]
    fn f_dist_cdf_known_value() {
        // F(1, n) is the square of t(n): P(F_{1,10} <= t²) = P(|T| <= t)
        let f = FDist::new(1.0, 10.0);
        let t = 2.228_138_851_986_273_f64;
        assert!((f.cdf(t * t) - 0.95).abs() < 1e-8);
        assert!((f.sf(t * t) - 0.05).abs() < 1e-8);
    }

}
