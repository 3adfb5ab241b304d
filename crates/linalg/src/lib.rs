#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]
//! Small dense linear algebra kernel for the booters analysis stack.
//!
//! The GLM fitter (`booters-glm`) solves repeated weighted least squares
//! problems with at most a few dozen columns, so this crate implements the
//! classic dense factorisations directly rather than pulling in a BLAS:
//!
//! * [`Matrix`] — row-major dense matrix of `f64` with the usual arithmetic,
//!   products and reductions.
//! * [`Cholesky`] — factorisation of symmetric positive definite matrices,
//!   used to invert Fisher information matrices.
//! * [`Lu`] — LU with partial pivoting for general square systems.
//! * [`Qr`] — Householder QR for (possibly rectangular) least squares.
//!
//! All routines are deterministic and allocation is kept to factorisation
//! time; solving reuses the factor. Errors (shape mismatch, singularity,
//! loss of positive definiteness) are reported via [`LinalgError`] rather
//! than panics so the GLM layer can recover (e.g. by ridging).

mod cholesky;
mod error;
mod lu;
mod matrix;
mod qr;

pub use cholesky::{cholesky_solve_into, cholesky_with_ridge, cholesky_with_ridge_into, Cholesky};
pub use error::LinalgError;
pub use lu::Lu;
pub use matrix::Matrix;
pub use qr::Qr;

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics if the slices differ in length (callers control both sides).
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm of a slice, computed with scaling to avoid overflow.
pub fn norm2(a: &[f64]) -> f64 {
    let max = a.iter().fold(0.0_f64, |m, &x| m.max(x.abs()));
    if max == 0.0 {
        return 0.0;
    }
    let sum: f64 = a.iter().map(|&x| (x / max) * (x / max)).sum();
    max * sum.sqrt()
}

/// Maximum absolute difference between two equal-length slices.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "max_abs_diff: length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn dot_empty() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn norm2_matches_pythagoras() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn norm2_zero_vector() {
        assert_eq!(norm2(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn norm2_handles_large_values_without_overflow() {
        let big = 1e200;
        let n = norm2(&[big, big]);
        assert!(n.is_finite());
        assert!((n - big * 2f64.sqrt()).abs() / n < 1e-12);
    }

    #[test]
    fn max_abs_diff_basic() {
        assert_eq!(max_abs_diff(&[1.0, 2.0], &[1.5, 1.0]), 1.0);
    }
}
