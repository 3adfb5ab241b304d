//! Table 1-style rendering of fitted models.
//!
//! The paper's Table 1 lists, per regressor: coefficient, standard error,
//! z, P>|z| and the 95% CI, with `*`/`**` significance markers. This module
//! renders the same layout from a [`FitInference`].

use crate::inference::FitInference;
use crate::negbin::NegBinFit;
use std::fmt::Write as _;

/// Append `v` to `out` exactly as `format!("{v:>width$.prec$}")` renders
/// it, several times faster: the rendered tables are mostly fixed-point
/// numbers, and the standard formatter's exact mode is their main cost.
///
/// The value is m·2^e exactly, so m·10^prec·2^e is rounded to an integer
/// in 128-bit arithmetic, ties to even, as the standard formatter rounds
/// the exact binary value. Precisions above 9, non-finite values and
/// magnitudes beyond 2^64/10^prec take the standard formatter.
pub fn push_fixed(out: &mut String, v: f64, width: usize, prec: usize) {
    const POW10: [u128; 10] = [
        1,
        10,
        100,
        1_000,
        10_000,
        100_000,
        1_000_000,
        10_000_000,
        100_000_000,
        1_000_000_000,
    ];
    let bits = v.to_bits();
    let exp_bits = ((bits >> 52) & 0x7ff) as i32;
    let frac = bits & ((1 << 52) - 1);
    let (m, e) = if exp_bits == 0 {
        (frac, -1074)
    } else {
        (frac | 1 << 52, exp_bits - 1075)
    };
    // Whole numbers below 2^53 at precision 0 (the figures' counts) are
    // their own rounding.
    let whole = v.abs() as u64;
    let rounded = if prec == 0 && whole < 1 << 53 && whole as f64 == v.abs() {
        if width == 0 && bits >> 63 == 0 {
            push_whole(out, whole);
            return;
        }
        Some(whole)
    } else {
        let scaled = (prec < POW10.len()).then(|| m as u128 * POW10[prec]);
        match scaled {
            _ if exp_bits == 0x7ff || e > 40 => None,
            Some(scaled) if e >= 0 => Some(scaled << e),
            // Below 2^-128 the value is under half a unit of any precision.
            Some(_) if e <= -128 => Some(0),
            Some(scaled) => {
                let shift = -e as u32;
                let (q, r) = (scaled >> shift, scaled & ((1 << shift) - 1));
                let half = 1 << (shift - 1);
                Some(q + u128::from(r > half || (r == half && q & 1 == 1)))
            }
            None => None,
        }
        .and_then(|n| u64::try_from(n).ok())
    };
    let Some(mut n) = rounded else {
        let _ = write!(out, "{v:>width$.prec$}");
        return;
    };
    // Digits right to left, the point `prec` digits in, at least one
    // integer digit, then the sign (kept for negative zero, as std does).
    let mut buf = [b' '; 32];
    let mut at = buf.len();
    if prec > 0 {
        for _ in 0..prec {
            at -= 1;
            buf[at] = b'0' + (n % 10) as u8;
            n /= 10;
        }
        at -= 1;
        buf[at] = b'.';
    }
    at = push_whole_digits(&mut buf[..at], n);
    if bits >> 63 == 1 {
        at -= 1;
        buf[at] = b'-';
    }
    // Left padding comes from the buffer's leading spaces.
    let at = at.min(buf.len().saturating_sub(width));
    for _ in buf.len() - at..width {
        out.push(' ');
    }
    // Byte by byte: for these few ASCII bytes this is about twice as
    // fast as `push_str` of a checked `str`.
    out.extend(buf[at..].iter().map(|&b| char::from(b)));
}

/// Append `n` to `out` as `n.to_string()` renders it: the figures'
/// counts, most of what the reports render.
pub fn push_whole(out: &mut String, n: u64) {
    let mut buf = [0u8; 20];
    let at = push_whole_digits(&mut buf, n);
    out.extend(buf[at..].iter().map(|&b| char::from(b)));
}

/// Write `n`'s decimal digits at the end of `buf`, two per division;
/// returns where they start. `buf` must hold at least 20 bytes.
fn push_whole_digits(buf: &mut [u8], mut n: u64) -> usize {
    const PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
        2021222324252627282930313233343536373839\
        4041424344454647484950515253545556575859\
        6061626364656667686970717273747576777879\
        8081828384858687888990919293949596979899";
    let mut at = buf.len();
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + n as u8;
    }
    at
}

/// Append `text` left-aligned in `width` characters, as
/// `format!("{text:<width$}")` renders it.
pub fn push_left(out: &mut String, text: &str, width: usize) {
    out.push_str(text);
    for _ in text.chars().count()..width {
        out.push(' ');
    }
}

fn push_coefficient_table(out: &mut String, inference: &FitInference) {
    let _ = writeln!(
        out,
        "{:<28} {:>10} {:>10} {:>8} {:>8}  {:>9} {:>9}",
        "", "Coef.", "Std.err.", "z", "P>|z|", "L95", "U95"
    );
    for c in &inference.coefficients {
        push_left(out, &c.name, 28);
        out.push(' ');
        push_fixed(out, c.coef, 10, 3);
        out.push(' ');
        push_fixed(out, c.std_error, 10, 4);
        out.push(' ');
        push_fixed(out, c.z, 8, 2);
        out.push(' ');
        push_fixed(out, c.p_value, 6, 3);
        push_left(out, c.stars(), 2);
        out.push(' ');
        push_fixed(out, c.ci_lower, 9, 3);
        out.push(' ');
        push_fixed(out, c.ci_upper, 9, 3);
        out.push('\n');
    }
}

/// Render a full NB2 model summary: header with α, log-likelihood and the
/// overdispersion LR test, then the coefficient table.
pub fn negbin_summary(fit: &NegBinFit) -> String {
    let (lr, lr_p) = fit.overdispersion_lr();
    let mut out = String::from("Negative binomial regression (NB2, log link)\n");
    let _ = write!(
        out,
        "  n = {}    parameters = {}    alpha = ",
        fit.fit.n, fit.fit.p
    );
    push_fixed(&mut out, fit.alpha, 0, 5);
    out.push_str("\n  log-likelihood = ");
    push_fixed(&mut out, fit.log_likelihood, 0, 2);
    out.push_str("    Poisson LL = ");
    push_fixed(&mut out, fit.poisson_log_likelihood, 0, 2);
    out.push_str("    LR(alpha=0) = ");
    push_fixed(&mut out, lr, 0, 1);
    let _ = writeln!(out, " (p = {lr_p:.2e})");
    let _ = write!(out, "  covariance: {:?}, ", fit.inference.kind);
    push_fixed(&mut out, fit.inference.level * 100.0, 0, 0);
    out.push_str("% CI\n\n");
    push_coefficient_table(&mut out, &fit.inference);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use booters_linalg::Matrix;
    use booters_stats::dist::NegativeBinomial;
    use booters_testkit::rngs::StdRng;
    use booters_testkit::SeedableRng;

    #[test]
    fn summary_contains_expected_fields() {
        let mut rng = StdRng::seed_from_u64(13);
        let n = 200;
        let mut x = Matrix::zeros(n, 2);
        let mut y = vec![0.0; n];
        for i in 0..n {
            x[(i, 0)] = 1.0;
            x[(i, 1)] = (i % 10) as f64;
            let mu = (2.0 + 0.1 * x[(i, 1)]).exp();
            y[i] = NegativeBinomial::new(mu, 0.3).sample(&mut rng) as f64;
        }
        let names = vec!["_cons".to_string(), "time".to_string()];
        let fit =
            crate::negbin::fit_negbin(&x, &y, &names, &crate::negbin::NegBinOptions::default())
                .unwrap();
        let s = negbin_summary(&fit);
        assert!(s.contains("Negative binomial regression"));
        assert!(s.contains("alpha"));
        assert!(s.contains("_cons"));
        assert!(s.contains("time"));
        assert!(s.contains("L95"));
        // Table has one line per coefficient plus headers.
        assert!(s.lines().count() >= 7);
    }
}
