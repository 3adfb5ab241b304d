//! Property-based tests for the linear algebra kernel.

use booters_linalg::{cholesky_with_ridge, dot, max_abs_diff, norm2, Cholesky, Lu, Matrix, Qr};
use booters_testkit::strategy::prop;
use booters_testkit::{forall, prop_assert, prop_assert_eq, Strategy};

/// Strategy: a random matrix with entries in [-10, 10].
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-10.0..10.0f64, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

/// Strategy: non-negative IRLS-style weights where roughly a quarter of
/// the entries are *exactly* zero, exercising the kernels' skip paths.
fn weights(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-2.0..6.0f64, n)
        .prop_map(|v| v.into_iter().map(|w| if w < 0.0 { 0.0 } else { w }).collect())
}

/// Strategy: a random SPD matrix A = BᵀB + εI.
fn spd(n: usize) -> impl Strategy<Value = Matrix> {
    matrix(n + 2, n).prop_map(move |b| {
        let mut a = b.transpose().matmul(&b).expect("shapes");
        a.add_ridge(0.5);
        a
    })
}

forall! {
    #![cases(64)]

    fn transpose_is_involution(m in matrix(4, 3)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    fn matmul_associative(a in matrix(3, 4), b in matrix(4, 2), c in matrix(2, 5)) {
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        prop_assert!(max_abs_diff(left.as_slice(), right.as_slice()) < 1e-9);
    }

    fn matmul_distributes_over_addition(a in matrix(3, 3), b in matrix(3, 3), c in matrix(3, 2)) {
        let left = (&a + &b).matmul(&c).unwrap();
        let right = &a.matmul(&c).unwrap() + &b.matmul(&c).unwrap();
        prop_assert!(max_abs_diff(left.as_slice(), right.as_slice()) < 1e-9);
    }

    fn xtwx_is_symmetric_psd(x in matrix(8, 3), w in prop::collection::vec(0.0..5.0f64, 8)) {
        let g = x.xtwx(&w).unwrap();
        prop_assert!(g.is_symmetric(1e-9));
        // PSD: vᵀGv >= 0 for a probe vector.
        let v = [1.0, -2.0, 0.5];
        let gv = g.matvec(&v).unwrap();
        prop_assert!(dot(&v, &gv) >= -1e-9);
    }

    fn cholesky_solves_spd_systems(a in spd(4), x in prop::collection::vec(-5.0..5.0f64, 4)) {
        let b = a.matvec(&x).unwrap();
        let chol = Cholesky::new(&a).unwrap();
        let got = chol.solve(&b).unwrap();
        prop_assert!(max_abs_diff(&got, &x) < 1e-6, "got {got:?} want {x:?}");
    }

    fn cholesky_inverse_roundtrip(a in spd(3)) {
        let inv = Cholesky::new(&a).unwrap().inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        prop_assert!(max_abs_diff(prod.as_slice(), Matrix::identity(3).as_slice()) < 1e-6);
    }

    fn lu_det_matches_cholesky_logdet(a in spd(3)) {
        let det = Lu::new(&a).unwrap().det();
        let logdet = Cholesky::new(&a).unwrap().log_det();
        prop_assert!(det > 0.0);
        prop_assert!((det.ln() - logdet).abs() < 1e-8);
    }

    fn qr_least_squares_residual_is_orthogonal(
        x in matrix(10, 3),
        y in prop::collection::vec(-5.0..5.0f64, 10),
    ) {
        // Skip near-rank-deficient draws.
        let qr = match Qr::new(&x) {
            Ok(q) => q,
            Err(_) => return,
        };
        let beta = match qr.solve(&y) {
            Ok(b) => b,
            Err(_) => return,
        };
        let fitted = x.matvec(&beta).unwrap();
        let resid: Vec<f64> = y.iter().zip(&fitted).map(|(a, b)| a - b).collect();
        // Xᵀr ≈ 0 — the defining normal-equation property.
        let xtr = x.tr_matvec(&resid).unwrap();
        let scale = norm2(&y).max(1.0);
        prop_assert!(norm2(&xtr) / scale < 1e-7, "Xᵀr = {xtr:?}");
    }

    fn qr_leading_solve_is_the_leading_columns_factorisation(
        x in matrix(10, 3),
        y in prop::collection::vec(-5.0..5.0f64, 10),
    ) {
        let Ok(qr) = Qr::new(&x) else { return };
        for k in 1..=3 {
            let mut leading = Matrix::zeros(10, k);
            for i in 0..10 {
                for j in 0..k {
                    leading[(i, j)] = x[(i, j)];
                }
            }
            let own = Qr::new(&leading).and_then(|q| q.solve(&y)).ok();
            prop_assert_eq!(qr.solve_leading(&y, k).ok(), own, "k={}", k);
        }
    }

    fn into_kernels_bit_identical_to_naive(
        x in matrix(10, 3),
        w in weights(10),
        z in prop::collection::vec(-5.0..5.0f64, 10),
    ) {
        // The allocation-free kernels promise *bit identity* with the
        // allocating ones — same per-entry summation order, same zero
        // skips — so compare with == rather than a tolerance.
        let naive_xtwx = x.xtwx(&w).unwrap();
        let naive_xtwz = x.xtwy(&w, &z).unwrap();

        let mut gm = Matrix::zeros(3, 3);
        x.xtwx_into(&w, &mut gm).unwrap();
        prop_assert_eq!(&gm, &naive_xtwx);

        let mut gv = vec![0.0; 3];
        x.xtwz_into(&w, &z, &mut gv).unwrap();
        prop_assert_eq!(&gv, &naive_xtwz);

        let mut fm = Matrix::zeros(3, 3);
        let mut fv = vec![0.0; 3];
        x.xtwx_xtwz_into(&w, &z, &mut fm, &mut fv).unwrap();
        prop_assert_eq!(fm, naive_xtwx);
        prop_assert_eq!(fv, naive_xtwz);
    }

    fn matvec_into_bit_identical_to_matvec(
        x in matrix(6, 4),
        v in prop::collection::vec(-5.0..5.0f64, 4),
    ) {
        let naive = x.matvec(&v).unwrap();
        let mut out = vec![0.0; 6];
        x.matvec_into(&v, &mut out).unwrap();
        prop_assert_eq!(out, naive);
    }

    fn ridge_rescue_never_panics(a in matrix(4, 4)) {
        // Symmetrise an arbitrary matrix, then ridge-rescue must either
        // succeed or return a clean error.
        let sym = &(&a + &a.transpose()) * 0.5;
        let _ = cholesky_with_ridge(&sym, 14);
    }

    fn solve_then_multiply_roundtrips_lu(
        a in matrix(4, 4),
        x in prop::collection::vec(-3.0..3.0f64, 4),
    ) {
        if let Ok(lu) = Lu::new(&a) {
            // Guard against ill-conditioned draws via the determinant.
            if lu.det().abs() > 1e-3 {
                let b = a.matvec(&x).unwrap();
                let got = lu.solve(&b).unwrap();
                prop_assert!(max_abs_diff(&got, &x) < 1e-5);
            }
        }
    }
}
