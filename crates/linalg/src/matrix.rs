use crate::{LinalgError, Result};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// Row-major dense matrix of `f64`.
///
/// Sized for the regression problems in this workspace: design matrices with
/// a few hundred rows and a few dozen columns. Storage is a single `Vec` so
/// rows are contiguous and the hot loops in the factorisations stay simple.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create the `n`×`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Create a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} != {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Create a matrix from nested row slices.
    ///
    /// # Panics
    /// Panics if rows are ragged.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), ncols, "Matrix::from_rows: row {i} is ragged");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: nrows,
            cols: ncols,
            data,
        }
    }

    /// Create a column vector (n×1 matrix) from a slice.
    pub fn column(v: &[f64]) -> Self {
        Matrix::from_vec(v.len(), 1, v.to_vec())
    }

    /// Create a diagonal matrix from a slice.
    pub fn diag(v: &[f64]) -> Self {
        let n = v.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &x) in v.iter().enumerate() {
            m[(i, i)] = x;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i` as a slice.
    fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy column `j` into a new `Vec`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "col index {j} out of bounds ({})", self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Transpose into a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * other`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                left: self.shape(),
                right: other.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let orow = other.row(k);
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(orow) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if self.cols != v.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec",
                left: self.shape(),
                right: (v.len(), 1),
            });
        }
        Ok((0..self.rows).map(|i| crate::dot(self.row(i), v)).collect())
    }

    /// [`Matrix::matvec`] into a caller-owned buffer: writes `self * v`
    /// over `out` without allocating. Arithmetic (and therefore every
    /// output bit) is identical to the allocating version.
    pub fn matvec_into(&self, v: &[f64], out: &mut [f64]) -> Result<()> {
        if self.cols != v.len() || self.rows != out.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec_into",
                left: self.shape(),
                right: (v.len(), out.len()),
            });
        }
        for i in 0..self.rows {
            out[i] = crate::dot(self.row(i), v);
        }
        Ok(())
    }

    /// `Aᵀ v` without materialising the transpose.
    pub fn tr_matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if self.rows != v.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "tr_matvec",
                left: (self.cols, self.rows),
                right: (v.len(), 1),
            });
        }
        let mut out = vec![0.0; self.cols];
        for i in 0..self.rows {
            let r = self.row(i);
            let vi = v[i];
            for (o, &a) in out.iter_mut().zip(r) {
                *o += a * vi;
            }
        }
        Ok(out)
    }

    /// `Aᵀ W A` for a diagonal weight vector `w` (the IRLS normal matrix),
    /// computed symmetrically without materialising `Aᵀ` or `W`.
    pub fn xtwx(&self, w: &[f64]) -> Result<Matrix> {
        if self.rows != w.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "xtwx",
                left: self.shape(),
                right: (w.len(), 1),
            });
        }
        let p = self.cols;
        let mut out = Matrix::zeros(p, p);
        for i in 0..self.rows {
            let r = self.row(i);
            let wi = w[i];
            if wi == 0.0 {
                continue;
            }
            for a in 0..p {
                let ra = r[a] * wi;
                if ra == 0.0 {
                    continue;
                }
                for b in a..p {
                    out[(a, b)] += ra * r[b];
                }
            }
        }
        for a in 0..p {
            for b in 0..a {
                out[(a, b)] = out[(b, a)];
            }
        }
        Ok(out)
    }

    /// `Aᵀ W y` for a diagonal weight vector `w`.
    pub fn xtwy(&self, w: &[f64], y: &[f64]) -> Result<Vec<f64>> {
        if self.rows != w.len() || self.rows != y.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "xtwy",
                left: self.shape(),
                right: (w.len(), y.len()),
            });
        }
        let mut out = vec![0.0; self.cols];
        for i in 0..self.rows {
            let r = self.row(i);
            let s = w[i] * y[i];
            for (o, &a) in out.iter_mut().zip(r) {
                *o += a * s;
            }
        }
        Ok(out)
    }

    /// [`Matrix::xtwx`] into a caller-owned `p×p` buffer (no allocation).
    ///
    /// The accumulation is the same row-outer rank-1 update in the same
    /// row order with the same zero-weight/zero-entry skips, so every
    /// entry's f64 summation order — and therefore every output bit — is
    /// identical to the allocating kernel. It walks row slices rather than
    /// indexing entry by entry, which lets the inner loop run without
    /// bounds checks.
    pub fn xtwx_into(&self, w: &[f64], out: &mut Matrix) -> Result<()> {
        if self.rows != w.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "xtwx_into",
                left: self.shape(),
                right: (w.len(), 1),
            });
        }
        let p = self.cols;
        if out.rows != p || out.cols != p {
            return Err(LinalgError::ShapeMismatch {
                op: "xtwx_into",
                left: (p, p),
                right: out.shape(),
            });
        }
        out.data.fill(0.0);
        if p == 0 {
            return Ok(());
        }
        for (r, &wi) in self.data.chunks_exact(p).zip(w) {
            if wi != 0.0 {
                add_weighted_outer_upper(&mut out.data, r, wi);
            }
        }
        out.mirror_upper();
        Ok(())
    }

    /// [`Matrix::xtwy`] into a caller-owned length-`p` buffer (no
    /// allocation), named for its IRLS role (`z` is the working
    /// response). Bit-identical to the allocating kernel.
    pub fn xtwz_into(&self, w: &[f64], z: &[f64], out: &mut [f64]) -> Result<()> {
        if self.rows != w.len() || self.rows != z.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "xtwz_into",
                left: self.shape(),
                right: (w.len(), z.len()),
            });
        }
        if out.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "xtwz_into",
                left: (self.cols, 1),
                right: (out.len(), 1),
            });
        }
        out.fill(0.0);
        for i in 0..self.rows {
            let r = self.row(i);
            let s = w[i] * z[i];
            for (o, &a) in out.iter_mut().zip(r) {
                *o += a * s;
            }
        }
        Ok(())
    }

    /// Fused IRLS normal-equation kernel: one pass over the design rows
    /// computing both `XᵀWX` (into `out_xtwx`) and `XᵀWz` (into
    /// `out_xtwz`) with k-outer rank-1 accumulation and no allocation.
    ///
    /// Each output entry is a sum over rows accumulated in row order with
    /// exactly the per-row arithmetic of [`Matrix::xtwx`] /
    /// [`Matrix::xtwy`] (including their zero skips), so fusing the
    /// passes changes which entry is touched *next* but never the
    /// summation order *within* an entry — results are bit-identical to
    /// the separate naive kernels (property-tested in `tests/props.rs`).
    pub fn xtwx_xtwz_into(
        &self,
        w: &[f64],
        z: &[f64],
        out_xtwx: &mut Matrix,
        out_xtwz: &mut [f64],
    ) -> Result<()> {
        if self.rows != w.len() || self.rows != z.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "xtwx_xtwz_into",
                left: self.shape(),
                right: (w.len(), z.len()),
            });
        }
        let p = self.cols;
        if out_xtwx.rows != p || out_xtwx.cols != p {
            return Err(LinalgError::ShapeMismatch {
                op: "xtwx_xtwz_into",
                left: (p, p),
                right: out_xtwx.shape(),
            });
        }
        if out_xtwz.len() != p {
            return Err(LinalgError::ShapeMismatch {
                op: "xtwx_xtwz_into",
                left: (p, 1),
                right: (out_xtwz.len(), 1),
            });
        }
        out_xtwx.data.fill(0.0);
        out_xtwz.fill(0.0);
        if p == 0 {
            return Ok(());
        }
        for ((r, &wi), &zi) in self.data.chunks_exact(p).zip(w).zip(z) {
            // XᵀWz leg: always runs (xtwy has no zero skip).
            let s = wi * zi;
            for (o, &a) in out_xtwz.iter_mut().zip(r) {
                *o += a * s;
            }
            // XᵀWX leg: rank-1 update with xtwx's skip conditions.
            if wi != 0.0 {
                add_weighted_outer_upper(&mut out_xtwx.data, r, wi);
            }
        }
        out_xtwx.mirror_upper();
        Ok(())
    }

    /// Copy the upper triangle of a square matrix onto its lower triangle.
    fn mirror_upper(&mut self) {
        let p = self.cols;
        for a in 0..p {
            for b in 0..a {
                self.data[a * p + b] = self.data[b * p + a];
            }
        }
    }

    /// Scale every element by `s` in place.
    pub fn scale(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Maximum absolute element.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// True if every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Extract the diagonal.
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self[(i, i)]).collect()
    }

    /// Check symmetry up to tolerance `tol` (absolute).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Add `lambda` to every diagonal entry (ridge regularisation).
    pub fn add_ridge(&mut self, lambda: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += lambda;
        }
    }

}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix add: shape mismatch");
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix sub: shape mismatch");
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a - b).collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, s: f64) -> Matrix {
        let mut m = self.clone();
        m.scale(s);
        m
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:>12.6}", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Add `wi · r rᵀ` to the upper triangle (diagonal included) of the
/// row-major `p×p` buffer `out`, where `p = r.len()`, skipping the
/// products [`Matrix::xtwx`] skips (`r[a]·wi == 0`). Entry `(a, b)` gets
/// exactly the one `+= (r[a]·wi)·r[b]` the naive kernel adds for this row.
#[inline]
fn add_weighted_outer_upper(out: &mut [f64], r: &[f64], wi: f64) {
    for (a, out_row) in out.chunks_exact_mut(r.len()).enumerate() {
        let ra = r[a] * wi;
        if ra == 0.0 {
            continue;
        }
        for (o, &rb) in out_row[a..].iter_mut().zip(&r[a..]) {
            *o += ra * rb;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m22(a: f64, b: f64, c: f64, d: f64) -> Matrix {
        Matrix::from_vec(2, 2, vec![a, b, c, d])
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i.diagonal(), vec![1.0; 3]);
    }

    #[test]
    fn from_rows_builds_row_major() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_rejects_ragged() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let b = m22(5.0, 6.0, 7.0, 8.0);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, m22(19.0, 22.0, 43.0, 50.0));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, -2.0, 0.5], &[0.0, 3.0, 9.0]]);
        let i = Matrix::identity(3);
        assert_eq!(a.matmul(&i).unwrap(), a);
    }

    #[test]
    fn matmul_shape_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn matvec_and_transpose_matvec() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0, 11.0]);
        assert_eq!(a.tr_matvec(&[1.0, 1.0, 1.0]).unwrap(), vec![9.0, 12.0]);
    }

    #[test]
    fn xtwx_matches_explicit_computation() {
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[1.0, -1.0], &[1.0, 0.5]]);
        let w = [2.0, 1.0, 4.0];
        let got = x.xtwx(&w).unwrap();
        let xt = x.transpose();
        let wx = {
            let mut wx = x.clone();
            for i in 0..3 {
                for v in wx.row_mut(i) {
                    *v *= w[i];
                }
            }
            wx
        };
        let expect = xt.matmul(&wx).unwrap();
        assert!(crate::max_abs_diff(got.as_slice(), expect.as_slice()) < 1e-12);
        assert!(got.is_symmetric(1e-14));
    }

    #[test]
    fn xtwy_matches_explicit_computation() {
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[1.0, -1.0]]);
        let got = x.xtwy(&[3.0, 5.0], &[2.0, 4.0]).unwrap();
        // XᵀWy = [[1,1],[2,-1]] * [6, 20] = [26, -8]
        assert_eq!(got, vec![26.0, -8.0]);
    }

    #[test]
    fn add_sub_scale() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let b = m22(4.0, 3.0, 2.0, 1.0);
        assert_eq!(&a + &b, m22(5.0, 5.0, 5.0, 5.0));
        assert_eq!(&a - &b, m22(-3.0, -1.0, 1.0, 3.0));
        assert_eq!(&a * 2.0, m22(2.0, 4.0, 6.0, 8.0));
    }

    #[test]
    fn ridge_adds_to_diagonal_only() {
        let mut a = m22(1.0, 2.0, 3.0, 4.0);
        a.add_ridge(0.5);
        assert_eq!(a, m22(1.5, 2.0, 3.0, 4.5));
    }

    #[test]
    fn symmetry_check() {
        assert!(m22(1.0, 2.0, 2.0, 1.0).is_symmetric(0.0));
        assert!(!m22(1.0, 2.0, 2.1, 1.0).is_symmetric(1e-3));
        assert!(!Matrix::zeros(2, 3).is_symmetric(1.0));
    }

    #[test]
    fn diag_builds_diagonal_matrix() {
        let d = Matrix::diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d.diagonal(), vec![1.0, 2.0, 3.0]);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    fn display_renders_rows() {
        let s = format!("{}", m22(1.0, 2.0, 3.0, 4.0));
        assert_eq!(s.lines().count(), 2);
    }

    /// An awkward little design: zero weights, zero entries, negatives —
    /// the cases where a careless fused kernel could drift by a bit.
    fn fused_fixture() -> (Matrix, Vec<f64>, Vec<f64>) {
        let x = Matrix::from_rows(&[
            &[1.0, 0.3, -2.0],
            &[1.0, 0.0, 0.7],
            &[1.0, -0.1, 1e-7],
            &[1.0, 5.0, 3.0],
            &[1.0, 0.2, -0.4],
        ]);
        let w = vec![0.5, 0.0, 1.25, 1e-3, 7.0];
        let z = vec![1.1, -0.2, 0.0, 3.5, -4.0];
        (x, w, z)
    }

    #[test]
    fn into_kernels_are_bit_identical_to_allocating_kernels() {
        let (x, w, z) = fused_fixture();
        let naive_xtwx = x.xtwx(&w).unwrap();
        let naive_xtwz = x.xtwy(&w, &z).unwrap();
        let naive_mv = x.matvec(&z[..3]).unwrap();

        let mut m = Matrix::zeros(3, 3);
        let mut v = vec![f64::NAN; 3];
        x.xtwx_into(&w, &mut m).unwrap();
        assert_eq!(m.as_slice(), naive_xtwx.as_slice());
        x.xtwz_into(&w, &z, &mut v).unwrap();
        assert_eq!(v, naive_xtwz);

        // Fused pass, into dirty buffers.
        m.data.fill(f64::NAN);
        v.fill(f64::NAN);
        x.xtwx_xtwz_into(&w, &z, &mut m, &mut v).unwrap();
        assert_eq!(m.as_slice(), naive_xtwx.as_slice());
        assert_eq!(v, naive_xtwz);

        let mut mv = vec![f64::NAN; 5];
        x.matvec_into(&z[..3], &mut mv).unwrap();
        assert_eq!(mv, naive_mv);
    }

    #[test]
    fn into_kernels_reject_bad_shapes() {
        let (x, w, z) = fused_fixture();
        let mut m = Matrix::zeros(3, 3);
        let mut m2 = Matrix::zeros(2, 3);
        let mut v = vec![0.0; 3];
        assert!(x.xtwx_into(&w[..4], &mut m).is_err());
        assert!(x.xtwx_into(&w, &mut m2).is_err());
        assert!(x.xtwz_into(&w, &z[..4], &mut v).is_err());
        assert!(x.xtwz_into(&w, &z, &mut v[..2]).is_err());
        assert!(x.xtwx_xtwz_into(&w[..4], &z, &mut m, &mut v).is_err());
        assert!(x.xtwx_xtwz_into(&w, &z, &mut m2, &mut v).is_err());
        assert!(x.xtwx_xtwz_into(&w, &z, &mut m, &mut v[..2]).is_err());
        assert!(x.matvec_into(&z, &mut v).is_err());
        assert!(x.matvec_into(&z[..3], &mut v).is_err());
    }
}
