use crate::{LinalgError, Matrix, Result};

/// Householder QR factorisation `A = Q R` of an m×n matrix with m ≥ n.
///
/// QR is the numerically stable route for the weighted least squares
/// subproblems in IRLS when the normal equations `XᵀWX` are ill-conditioned
/// (e.g. a time trend column spanning 0..148 next to 0/1 dummies). We store
/// the Householder vectors in the lower trapezoid and R in the upper
/// triangle, as LAPACK does.
#[derive(Debug, Clone)]
pub struct Qr {
    /// Packed factors: R in the upper triangle, Householder vectors below.
    qr: Matrix,
    /// The leading coefficients of the Householder vectors (`v[0]` values).
    betas: Vec<f64>,
    rows: usize,
    cols: usize,
    /// Numerical-rank threshold: pivots below this are treated as zero.
    tol: f64,
}

impl Qr {
    /// Factor `a` (m×n, m ≥ n).
    pub fn new(a: &Matrix) -> Result<Self> {
        let (m, n) = a.shape();
        if m < n {
            return Err(LinalgError::Underdetermined { rows: m, cols: n });
        }
        let mut qr = a.clone();
        let mut betas = vec![0.0; n];
        // Numerical-rank threshold, scaled to the matrix magnitude à la LAPACK.
        let tol = a.max_abs().max(f64::MIN_POSITIVE) * (m.max(n) as f64) * f64::EPSILON * 8.0;
        for k in 0..n {
            // Compute the Householder reflector for column k below the diagonal.
            let mut norm = 0.0_f64;
            for i in k..m {
                norm = norm.hypot(qr[(i, k)]);
            }
            if norm <= tol {
                // Column is (numerically) zero below the diagonal: rank deficient.
                return Err(LinalgError::Singular { at: k });
            }
            // Choose sign to avoid cancellation.
            let alpha = if qr[(k, k)] > 0.0 { -norm } else { norm };
            let v0 = qr[(k, k)] - alpha;
            // Normalise the reflector so v[k] = 1 implicitly; store tail.
            for i in (k + 1)..m {
                qr[(i, k)] /= v0;
            }
            betas[k] = -v0 / alpha;
            qr[(k, k)] = alpha;
            // Apply the reflector to the remaining columns.
            for j in (k + 1)..n {
                let mut s = qr[(k, j)];
                for i in (k + 1)..m {
                    s += qr[(i, k)] * qr[(i, j)];
                }
                s *= betas[k];
                qr[(k, j)] -= s;
                for i in (k + 1)..m {
                    let vik = qr[(i, k)];
                    qr[(i, j)] -= s * vik;
                }
            }
        }
        Ok(Qr {
            qr,
            betas,
            rows: m,
            cols: n,
            tol,
        })
    }

    /// Apply the first `cols` reflectors of `Qᵀ` to a vector of length m,
    /// in place.
    fn apply_qt(&self, b: &mut [f64], cols: usize) {
        for k in 0..cols {
            let mut s = b[k];
            for i in (k + 1)..self.rows {
                s += self.qr[(i, k)] * b[i];
            }
            s *= self.betas[k];
            b[k] -= s;
            for i in (k + 1)..self.rows {
                b[i] -= s * self.qr[(i, k)];
            }
        }
    }

    /// Solve the least squares problem `min ||A x - b||₂`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        self.solve_leading(b, self.cols)
    }

    /// Solve the least squares problem on the first `k` columns of `A`
    /// only. Householder QR factors the columns left to right, so the
    /// first `k` reflectors and the leading k×k block of R are exactly the
    /// factorisation of those columns: the result equals
    /// `Qr::new(&a_k)?.solve(b)` for the m×k leading block `a_k`, bit for
    /// bit, whenever this factorisation exists.
    pub fn solve_leading(&self, b: &[f64], k: usize) -> Result<Vec<f64>> {
        assert!(
            k <= self.cols,
            "qr solve_leading: {k} > {} columns",
            self.cols
        );
        if b.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "qr solve",
                left: (self.rows, self.cols),
                right: (b.len(), 1),
            });
        }
        let mut y = b.to_vec();
        self.apply_qt(&mut y, k);
        // Back substitution on the leading k×k of R.
        let n = k;
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for j in (i + 1)..n {
                sum -= self.qr[(i, j)] * x[j];
            }
            let rii = self.qr[(i, i)];
            if rii.abs() <= self.tol {
                return Err(LinalgError::Singular { at: i });
            }
            x[i] = sum / rii;
        }
        Ok(x)
    }

    /// Extract the n×n upper-triangular factor `R`.
    pub fn r(&self) -> Matrix {
        let n = self.cols;
        let mut r = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                r[(i, j)] = self.qr[(i, j)];
            }
        }
        r
    }

    /// `(RᵀR)⁻¹ = (AᵀA)⁻¹`, the unscaled OLS covariance.
    pub fn xtx_inverse(&self) -> Result<Matrix> {
        let n = self.cols;
        // Invert R by back substitution against each unit vector, then
        // (AᵀA)⁻¹ = R⁻¹ R⁻ᵀ.
        let r = self.r();
        let mut rinv = Matrix::zeros(n, n);
        for j in 0..n {
            let mut x = vec![0.0; n];
            for i in (0..=j).rev() {
                let mut sum = if i == j { 1.0 } else { 0.0 };
                for k in (i + 1)..=j {
                    sum -= r[(i, k)] * x[k];
                }
                if r[(i, i)] == 0.0 {
                    return Err(LinalgError::Singular { at: i });
                }
                x[i] = sum / r[(i, i)];
            }
            for i in 0..n {
                rinv[(i, j)] = x[i];
            }
        }
        rinv.matmul(&rinv.transpose())
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::max_abs_diff;

    #[test]
    fn exact_square_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x_true = vec![1.5, -0.5];
        let b = a.matvec(&x_true).unwrap();
        let x = Qr::new(&a).unwrap().solve(&b).unwrap();
        assert!(max_abs_diff(&x, &x_true) < 1e-12);
    }

    #[test]
    fn overdetermined_least_squares_matches_normal_equations() {
        // Fit y = b0 + b1 x to 4 points; compare with hand-computed OLS.
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]);
        let b = [1.0, 2.1, 2.9, 4.2];
        let x = Qr::new(&a).unwrap().solve(&b).unwrap();
        // OLS closed form: slope = Sxy/Sxx with x̄=1.5, ȳ=2.55
        let slope = ((0.0 - 1.5) * (1.0 - 2.55)
            + (1.0 - 1.5) * (2.1 - 2.55)
            + (2.0 - 1.5) * (2.9 - 2.55)
            + (3.0 - 1.5) * (4.2 - 2.55))
            / ((0.0f64 - 1.5).powi(2) + (1.0f64 - 1.5).powi(2) + (2.0f64 - 1.5).powi(2) + (3.0f64 - 1.5).powi(2));
        let intercept = 2.55 - slope * 1.5;
        assert!((x[1] - slope).abs() < 1e-12);
        assert!((x[0] - intercept).abs() < 1e-12);
    }

    #[test]
    fn r_reconstructs_gram_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let qr = Qr::new(&a).unwrap();
        let r = qr.r();
        let rtr = r.transpose().matmul(&r).unwrap();
        let ata = a.transpose().matmul(&a).unwrap();
        assert!(max_abs_diff(rtr.as_slice(), ata.as_slice()) < 1e-10);
    }

    #[test]
    fn xtx_inverse_matches_direct_inverse() {
        let a = Matrix::from_rows(&[&[1.0, 0.5], &[1.0, -1.0], &[1.0, 2.0], &[1.0, 0.0]]);
        let qr = Qr::new(&a).unwrap();
        let got = qr.xtx_inverse().unwrap();
        let ata = a.transpose().matmul(&a).unwrap();
        let expect = crate::Lu::new(&ata).unwrap().inverse().unwrap();
        assert!(max_abs_diff(got.as_slice(), expect.as_slice()) < 1e-10);
    }

    #[test]
    fn underdetermined_rejected() {
        assert!(matches!(
            Qr::new(&Matrix::zeros(2, 3)),
            Err(LinalgError::Underdetermined { .. })
        ));
    }

    #[test]
    fn rank_deficient_detected() {
        // Second column is 2x the first.
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        let r = Qr::new(&a).and_then(|qr| qr.solve(&[1.0, 2.0, 3.0]));
        assert!(r.is_err());
    }
}
