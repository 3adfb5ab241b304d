//! Descriptive statistics: moments, skewness/kurtosis, correlation and
//! autocorrelation, used both by the hypothesis tests (§3 of the paper)
//! and the country-correlation analysis (Figure 4).

/// Arithmetic mean. Returns `NaN` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample variance (divide by n−1). Returns `NaN` for fewer than 2 points.
pub fn variance_sample(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return f64::NAN;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample standard deviation.
fn std_dev(xs: &[f64]) -> f64 {
    variance_sample(xs).sqrt()
}

/// Sample skewness g₁ = m₃ / m₂^{3/2} (biased/moment form, as used by the
/// D'Agostino test which applies its own small-sample correction).
pub fn skewness(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    if n < 3.0 {
        return f64::NAN;
    }
    let m = mean(xs);
    let m2 = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / n;
    let m3 = xs.iter().map(|x| (x - m).powi(3)).sum::<f64>() / n;
    if m2 == 0.0 {
        return 0.0;
    }
    m3 / m2.powf(1.5)
}

/// Sample excess kurtosis g₂ = m₄ / m₂² − 3 (moment form).
pub fn excess_kurtosis(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    if n < 4.0 {
        return f64::NAN;
    }
    let m = mean(xs);
    let m2 = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / n;
    let m4 = xs.iter().map(|x| (x - m).powi(4)).sum::<f64>() / n;
    if m2 == 0.0 {
        return 0.0;
    }
    m4 / (m2 * m2) - 3.0
}

/// Sample covariance (divide by n−1).
pub fn covariance(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "covariance: length mismatch");
    if xs.len() < 2 {
        return f64::NAN;
    }
    let mx = mean(xs);
    let my = mean(ys);
    xs.iter()
        .zip(ys)
        .map(|(x, y)| (x - mx) * (y - my))
        .sum::<f64>()
        / (xs.len() - 1) as f64
}

/// Pearson product-moment correlation coefficient.
///
/// Returns `NaN` if either series is constant (zero variance) — the paper's
/// Figure 4 treats such series as uncorrelatable rather than perfectly
/// correlated.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "pearson: length mismatch");
    let sx = std_dev(xs);
    let sy = std_dev(ys);
    if !(sx > 0.0 && sy > 0.0) {
        return f64::NAN;
    }
    covariance(xs, ys) / (sx * sy)
}

/// Mid-ranks of a sample (ties share the average rank), 1-based.
pub fn ranks(xs: &[f64]) -> Vec<f64> {
    let n = xs.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).expect("ranks: NaN in data"));
    let mut out = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        // Average rank for the tie group [i, j].
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = avg;
        }
        i = j + 1;
    }
    out
}

/// Spearman rank correlation — Pearson correlation of mid-ranks; robust
/// to the heavy tails of attack-count data.
pub fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "spearman: length mismatch");
    pearson(&ranks(xs), &ranks(ys))
}

/// Lag-k sample autocorrelation (denominator n, standard Box–Jenkins form).
pub fn autocorrelation(xs: &[f64], lag: usize) -> f64 {
    autocorrelations(xs, lag..=lag).next().unwrap_or(f64::NAN)
}

/// [`autocorrelation`] at each lag in `lags`, with the mean and the
/// denominator computed once.
pub fn autocorrelations(
    xs: &[f64],
    lags: std::ops::RangeInclusive<usize>,
) -> impl Iterator<Item = f64> + '_ {
    let n = xs.len();
    let m = mean(xs);
    let denom: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum();
    lags.map(move |lag| {
        if lag >= n || denom == 0.0 {
            return f64::NAN;
        }
        let num: f64 = (0..n - lag).map(|i| (xs[i] - m) * (xs[i + lag] - m)).sum();
        num / denom
    })
}

/// Quantile of a sample via linear interpolation (type-7, the R default).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile: q={q} outside [0,1]");
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("quantile: NaN in data"));
    let h = (sorted.len() - 1) as f64 * q;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

/// Median (50% quantile).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Min and max of a slice; `None` when empty.
pub fn min_max(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.is_empty() {
        return None;
    }
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &x in xs {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    Some((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_basic() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert!((variance_sample(&xs) - 32.0 / 7.0).abs() < 1e-12);
        assert!((std_dev(&xs) - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_slices_give_nan() {
        assert!(mean(&[]).is_nan());
        assert!(variance_sample(&[1.0]).is_nan());
    }

    #[test]
    fn skewness_symmetric_is_zero() {
        let xs = [-2.0, -1.0, 0.0, 1.0, 2.0];
        assert!(skewness(&xs).abs() < 1e-12);
    }

    #[test]
    fn skewness_right_tail_positive() {
        let xs = [1.0, 1.0, 1.0, 1.0, 10.0];
        assert!(skewness(&xs) > 1.0);
    }

    #[test]
    fn kurtosis_uniform_is_negative() {
        // Discrete uniform has negative excess kurtosis.
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let k = excess_kurtosis(&xs);
        assert!(k < -1.0 && k > -1.3, "k={k}"); // continuous uniform: -1.2
    }

    #[test]
    fn constant_series_zero_skew_kurt() {
        let xs = [3.0; 10];
        assert_eq!(skewness(&xs), 0.0);
        assert_eq!(excess_kurtosis(&xs), 0.0);
    }

    #[test]
    fn pearson_perfect_and_inverse() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let zs = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&xs, &zs) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_series_is_nan() {
        assert!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]).is_nan());
    }

    #[test]
    fn covariance_hand_computed() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [2.0, 2.0, 5.0];
        // means: 2, 3; products: (−1)(−1)+(0)(−1)+(1)(2)=3; /2 = 1.5
        assert!((covariance(&xs, &ys) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn ranks_handle_ties_with_mid_ranks() {
        let xs = [10.0, 20.0, 20.0, 30.0];
        assert_eq!(ranks(&xs), vec![1.0, 2.5, 2.5, 4.0]);
        let ys = [5.0, 1.0, 3.0];
        assert_eq!(ranks(&ys), vec![3.0, 1.0, 2.0]);
    }

    #[test]
    fn spearman_monotone_transform_invariance() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys: Vec<f64> = xs.iter().map(|&x: &f64| (x * x).exp()).collect(); // monotone
        assert!((spearman(&xs, &ys) - 1.0).abs() < 1e-12);
        let zs: Vec<f64> = xs.iter().map(|&x| -x * x * x).collect();
        assert!((spearman(&xs, &zs) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_robust_to_outlier() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut ys = [2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        ys[5] = 1e9; // outlier preserves the rank order
        assert!((spearman(&xs, &ys) - 1.0).abs() < 1e-12);
        assert!(pearson(&xs, &ys) < 0.9); // pearson is distorted
    }

    #[test]
    fn autocorrelation_lag_zero_is_one() {
        let xs = [1.0, 3.0, 2.0, 5.0, 4.0];
        assert!((autocorrelation(&xs, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn autocorrelation_alternating_is_negative() {
        let xs = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0];
        assert!(autocorrelation(&xs, 1) < -0.8);
    }

    #[test]
    fn quantile_and_median() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.25), 1.75);
    }

    #[test]
    fn min_max_works() {
        assert_eq!(min_max(&[3.0, -1.0, 7.0]), Some((-1.0, 7.0)));
        assert_eq!(min_max(&[]), None);
    }

}
