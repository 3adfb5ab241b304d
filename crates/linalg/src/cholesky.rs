use crate::{LinalgError, Matrix, Result};

/// Cholesky factorisation `A = L Lᵀ` of a symmetric positive definite matrix.
///
/// This is the workhorse for GLM inference: the Fisher information `XᵀWX` is
/// SPD whenever the design has full column rank and weights are positive, so
/// we factor once and then solve for coefficients, invert for covariance, and
/// read off the log-determinant for likelihood computations.
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor, stored dense (upper part zeroed).
    l: Matrix,
}

impl Cholesky {
    /// Factor a symmetric positive definite matrix.
    ///
    /// Only the lower triangle of `a` is read; symmetry of the upper part is
    /// the caller's responsibility (our producers build exact-symmetric
    /// matrices). Fails with [`LinalgError::NotPositiveDefinite`] when a
    /// pivot is not strictly positive.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(LinalgError::NotPositiveDefinite { at: i });
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Borrow the lower-triangular factor `L`.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Solve `A x = b` via forward/back substitution.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky solve",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        // Forward: L y = b
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= self.l[(i, k)] * y[k];
            }
            y[i] = sum / self.l[(i, i)];
        }
        // Back: Lᵀ x = y
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in (i + 1)..n {
                sum -= self.l[(k, i)] * x[k];
            }
            x[i] = sum / self.l[(i, i)];
        }
        Ok(x)
    }

    /// Solve `A X = B` column by column.
    fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky solve_matrix",
                left: (n, n),
                right: b.shape(),
            });
        }
        let mut out = Matrix::zeros(n, b.cols());
        for j in 0..b.cols() {
            let col = b.col(j);
            let x = self.solve(&col)?;
            for i in 0..n {
                out[(i, j)] = x[i];
            }
        }
        Ok(out)
    }

    /// Inverse of the factored matrix, `A⁻¹`.
    pub fn inverse(&self) -> Result<Matrix> {
        self.solve_matrix(&Matrix::identity(self.dim()))
    }

    /// `log det A = 2 Σ log Lᵢᵢ`.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }
}

/// Factor `a = L Lᵀ` into the caller-owned buffer `l` without allocating.
///
/// Same algorithm, pivot test, and arithmetic as [`Cholesky::new`] — the
/// factor is bit-identical — but the output matrix is reused across calls
/// (the IRLS hot loop re-factors every iteration). The upper triangle of
/// `l` is zeroed; on error its contents are unspecified.
fn cholesky_into(a: &Matrix, l: &mut Matrix) -> Result<()> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { shape: a.shape() });
    }
    if l.shape() != a.shape() {
        return Err(LinalgError::ShapeMismatch {
            op: "cholesky_into",
            left: a.shape(),
            right: l.shape(),
        });
    }
    let n = a.rows();
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)];
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if sum <= 0.0 || !sum.is_finite() {
                    return Err(LinalgError::NotPositiveDefinite { at: i });
                }
                l[(i, j)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
        for j in (i + 1)..n {
            l[(i, j)] = 0.0;
        }
    }
    Ok(())
}

/// Solve `A x = b` given a factor produced by
/// [`cholesky_with_ridge_into`], without allocating: `b` is copied into
/// `x` and the forward/back substitutions run in place. The substitution
/// arithmetic — and therefore every bit of `x` — matches
/// [`Cholesky::solve`] (the back pass reads `y[i]` before overwriting it
/// and `x[k]` for `k > i` after, exactly like the two-buffer version).
pub fn cholesky_solve_into(l: &Matrix, b: &[f64], x: &mut [f64]) -> Result<()> {
    let n = l.rows();
    if !l.is_square() || b.len() != n || x.len() != n {
        return Err(LinalgError::ShapeMismatch {
            op: "cholesky_solve_into",
            left: l.shape(),
            right: (b.len(), x.len()),
        });
    }
    x.copy_from_slice(b);
    // Forward: L y = b (x holds y below index i, still b at and above).
    for i in 0..n {
        let mut sum = x[i];
        for k in 0..i {
            sum -= l[(i, k)] * x[k];
        }
        x[i] = sum / l[(i, i)];
    }
    // Back: Lᵀ x = y (x holds the solution above index i, still y at and
    // below).
    for i in (0..n).rev() {
        let mut sum = x[i];
        for k in (i + 1)..n {
            sum -= l[(k, i)] * x[k];
        }
        x[i] = sum / l[(i, i)];
    }
    Ok(())
}

/// Allocation-free [`cholesky_with_ridge`]: factors into `l`, and on a
/// failed pivot perturbs only the diagonal of `a` in place (originals
/// saved in `diag_scratch`, restored before returning) instead of cloning
/// the whole matrix per retry. The lambda schedule and per-try arithmetic
/// match the cloning version, so the resulting factor is bit-identical.
/// Returns the ridge used (0.0 when none was needed).
pub fn cholesky_with_ridge_into(
    a: &mut Matrix,
    l: &mut Matrix,
    diag_scratch: &mut [f64],
    max_tries: usize,
) -> Result<f64> {
    match cholesky_into(a, l) {
        Ok(()) => return Ok(0.0),
        Err(e @ (LinalgError::NotSquare { .. } | LinalgError::ShapeMismatch { .. })) => {
            return Err(e)
        }
        Err(_) => {}
    }
    let n = a.rows();
    if diag_scratch.len() != n {
        return Err(LinalgError::ShapeMismatch {
            op: "cholesky_with_ridge_into",
            left: (n, n),
            right: (diag_scratch.len(), 1),
        });
    }
    for i in 0..n {
        diag_scratch[i] = a[(i, i)];
    }
    let scale = a.max_abs().max(1.0);
    let mut lambda = scale * 1e-10;
    let mut outcome = Err(LinalgError::NotPositiveDefinite { at: 0 });
    for _ in 0..max_tries {
        // a[(i,i)] + lambda from the pristine diagonal: the same value
        // `clone + add_ridge` produces each try.
        for i in 0..n {
            a[(i, i)] = diag_scratch[i] + lambda;
        }
        if cholesky_into(a, l).is_ok() {
            outcome = Ok(lambda);
            break;
        }
        lambda *= 10.0;
    }
    for i in 0..n {
        a[(i, i)] = diag_scratch[i];
    }
    outcome
}

/// Factor `a`, retrying with growing ridge `λI` if it is not numerically SPD.
///
/// IRLS can produce nearly rank-deficient normal matrices mid-iteration
/// (e.g. an intervention dummy over a window with no events yet); a tiny
/// ridge keeps the solve alive without visibly biasing the estimates. The
/// ridge used (0.0 when none was needed) is returned alongside the factor.
pub fn cholesky_with_ridge(a: &Matrix, max_tries: usize) -> Result<(Cholesky, f64)> {
    match Cholesky::new(a) {
        Ok(c) => return Ok((c, 0.0)),
        Err(LinalgError::NotSquare { shape }) => {
            return Err(LinalgError::NotSquare { shape })
        }
        Err(_) => {}
    }
    let scale = a.max_abs().max(1.0);
    let mut lambda = scale * 1e-10;
    for _ in 0..max_tries {
        let mut ridged = a.clone();
        ridged.add_ridge(lambda);
        if let Ok(c) = Cholesky::new(&ridged) {
            return Ok((c, lambda));
        }
        lambda *= 10.0;
    }
    Err(LinalgError::NotPositiveDefinite { at: 0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::max_abs_diff;

    fn spd3() -> Matrix {
        // A = Bᵀ B + I for B full-rank => SPD
        Matrix::from_rows(&[&[4.0, 2.0, 0.6], &[2.0, 5.0, 1.0], &[0.6, 1.0, 3.0]])
    }

    #[test]
    fn factor_reconstructs_matrix() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        let l = c.factor();
        let llt = l.matmul(&l.transpose()).unwrap();
        assert!(max_abs_diff(llt.as_slice(), a.as_slice()) < 1e-12);
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = spd3();
        let x_true = vec![1.0, -2.0, 0.5];
        let b = a.matvec(&x_true).unwrap();
        let c = Cholesky::new(&a).unwrap();
        let x = c.solve(&b).unwrap();
        assert!(max_abs_diff(&x, &x_true) < 1e-12);
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = spd3();
        let inv = Cholesky::new(&a).unwrap().inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!(max_abs_diff(prod.as_slice(), Matrix::identity(3).as_slice()) < 1e-10);
    }

    #[test]
    fn log_det_matches_2x2_closed_form() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let det: f64 = 2.0 * 3.0 - 1.0; // = 5
        let c = Cholesky::new(&a).unwrap();
        assert!((c.log_det() - det.ln()).abs() < 1e-12);
    }

    #[test]
    fn rejects_indefinite_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_rectangular() {
        assert!(matches!(
            Cholesky::new(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn solve_rejects_wrong_length() {
        let c = Cholesky::new(&spd3()).unwrap();
        assert!(c.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn ridge_rescues_singular_matrix() {
        // Rank-1 matrix: not PD, but PD after ridging.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let (c, lambda) = cholesky_with_ridge(&a, 12).unwrap();
        assert!(lambda > 0.0);
        assert_eq!(c.dim(), 2);
    }

    #[test]
    fn ridge_not_applied_when_unneeded() {
        let (_, lambda) = cholesky_with_ridge(&spd3(), 12).unwrap();
        assert_eq!(lambda, 0.0);
    }

    #[test]
    fn in_place_factor_and_solve_are_bit_identical() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        // Factor into a dirty buffer: both triangles must come out right.
        let mut l = Matrix::from_rows(&[
            &[9.0, 9.0, 9.0],
            &[9.0, 9.0, 9.0],
            &[9.0, 9.0, 9.0],
        ]);
        cholesky_into(&a, &mut l).unwrap();
        assert_eq!(l.as_slice(), c.factor().as_slice());

        let b = [1.0, -2.0, 0.5];
        let expected = c.solve(&b).unwrap();
        let mut x = [f64::NAN; 3];
        cholesky_solve_into(&l, &b, &mut x).unwrap();
        assert_eq!(x.as_slice(), expected.as_slice());
    }

    #[test]
    fn in_place_ridge_matches_cloning_ridge_and_restores_diagonal() {
        let a0 = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let (c, lambda) = cholesky_with_ridge(&a0, 12).unwrap();
        let mut a = a0.clone();
        let mut l = Matrix::zeros(2, 2);
        let mut diag = [0.0; 2];
        let lambda2 = cholesky_with_ridge_into(&mut a, &mut l, &mut diag, 12).unwrap();
        assert_eq!(lambda2, lambda);
        assert_eq!(l.as_slice(), c.factor().as_slice());
        assert_eq!(a.as_slice(), a0.as_slice(), "diagonal not restored");

        // SPD input: no ridge, and `a` untouched.
        let spd = spd3();
        let mut a = spd.clone();
        let mut l = Matrix::zeros(3, 3);
        let mut diag = [0.0; 3];
        assert_eq!(
            cholesky_with_ridge_into(&mut a, &mut l, &mut diag, 12).unwrap(),
            0.0
        );
        assert_eq!(a.as_slice(), spd.as_slice());
    }

    #[test]
    fn in_place_variants_reject_bad_shapes() {
        let a = spd3();
        let mut l2 = Matrix::zeros(2, 2);
        assert!(cholesky_into(&a, &mut l2).is_err());
        let mut l3 = Matrix::zeros(3, 3);
        cholesky_into(&a, &mut l3).unwrap();
        let mut x = [0.0; 2];
        assert!(cholesky_solve_into(&l3, &[1.0, 2.0, 3.0], &mut x).is_err());
        assert!(cholesky_solve_into(&l3, &[1.0, 2.0], &mut [0.0; 3]).is_err());
    }
}
