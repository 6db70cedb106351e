//! Numerical verification helpers used across the test suites.
//!
//! The paper's experimental section states that "for each experiment, we
//! generated a matrix with prescribed singular values ... and checked that
//! the computed singular values were satisfactory up to machine precision".
//! These helpers implement the corresponding residual and orthogonality
//! checks.

use crate::dense::Matrix;

/// Machine epsilon for `f64`.
pub const EPS: f64 = f64::EPSILON;

/// Relative orthogonality error `||Q^T Q - I||_max`.
pub fn orthogonality_error(q: &Matrix) -> f64 {
    let n = q.cols();
    let qtq = q.matmul_tn(q);
    qtq.sub(&Matrix::identity(n)).norm_max()
}

/// Relative reconstruction error `||A - B||_F / ||A||_F`.
pub fn relative_error(a: &Matrix, b: &Matrix) -> f64 {
    let denom = a.norm_fro().max(EPS);
    a.sub(b).norm_fro() / denom
}

/// Relative difference between two sets of singular values, both sorted
/// descending internally: `max_i |s1_i - s2_i| / s1_0`.
pub fn singular_value_error(s1: &[f64], s2: &[f64]) -> f64 {
    assert_eq!(s1.len(), s2.len(), "spectrum length mismatch");
    let mut a = s1.to_vec();
    let mut b = s2.to_vec();
    a.sort_by(|x, y| y.partial_cmp(x).unwrap());
    b.sort_by(|x, y| y.partial_cmp(x).unwrap());
    let scale = a.first().copied().unwrap_or(1.0).max(EPS);
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0_f64, f64::max)
        / scale
}

/// `true` when the singular values agree to `tol * sigma_max` absolute
/// accuracy (this is the accuracy that orthogonal reductions guarantee).
pub fn singular_values_match(s1: &[f64], s2: &[f64], tol: f64) -> bool {
    singular_value_error(s1, s2) <= tol
}

/// Whether an operand of [`matmul_reference`] is transposed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefOp {
    /// Use the operand as stored.
    None,
    /// Use the transpose of the operand.
    Transpose,
}

/// Naive triple-loop `C += alpha * op(A) * op(B)` reference in the plainest
/// possible index order — the oracle the packed/blocked GEMM paths are
/// property-tested against.  Deliberately free of unrolling, views and
/// accumulation tricks so a bug in the fast paths cannot be mirrored here.
pub fn matmul_reference(
    c: &mut Matrix,
    alpha: f64,
    a: &Matrix,
    op_a: RefOp,
    b: &Matrix,
    op_b: RefOp,
) {
    let get_a = |i: usize, l: usize| match op_a {
        RefOp::None => a.get(i, l),
        RefOp::Transpose => a.get(l, i),
    };
    let get_b = |l: usize, j: usize| match op_b {
        RefOp::None => b.get(l, j),
        RefOp::Transpose => b.get(j, l),
    };
    let k = match op_a {
        RefOp::None => a.cols(),
        RefOp::Transpose => a.rows(),
    };
    for j in 0..c.cols() {
        for i in 0..c.rows() {
            let mut s = 0.0;
            for l in 0..k {
                s += get_a(i, l) * get_b(l, j);
            }
            c.set(i, j, c.get(i, j) + alpha * s);
        }
    }
}

/// The upper triangle of `a` (diagonal included), zeros below — e.g. the
/// `R` of a factored tile with the Householder vectors masked off.
pub fn upper_triangle_of(a: &Matrix) -> Matrix {
    Matrix::from_fn(
        a.rows(),
        a.cols(),
        |i, j| if j >= i { a.get(i, j) } else { 0.0 },
    )
}

/// The lower triangle of `a` (diagonal included), zeros above — the LQ
/// dual of [`upper_triangle_of`].
pub fn lower_triangle_of(a: &Matrix) -> Matrix {
    Matrix::from_fn(
        a.rows(),
        a.cols(),
        |i, j| if j <= i { a.get(i, j) } else { 0.0 },
    )
}

/// Frobenius mass outside the upper bidiagonal band, relative to the matrix
/// norm: measures "how far from upper bidiagonal".
pub fn off_bidiagonal_mass(a: &Matrix) -> f64 {
    let mut s = 0.0;
    for j in 0..a.cols() {
        for i in 0..a.rows() {
            if i != j && i + 1 != j {
                s += a.get(i, j).powi(2);
            }
        }
    }
    s.sqrt() / a.norm_fro().max(EPS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{latms, random_orthonormal, SpectrumKind};

    #[test]
    fn orthogonality_of_random_q() {
        let q = random_orthonormal(15, 5, 11);
        assert!(orthogonality_error(&q) < 1e-12);
    }

    #[test]
    fn relative_error_zero_for_equal() {
        let (a, _) = latms(6, 6, &SpectrumKind::Uniform, 1);
        assert_eq!(relative_error(&a, &a), 0.0);
    }

    #[test]
    fn singular_value_error_is_scale_relative() {
        let s1 = vec![10.0, 5.0, 1.0];
        let s2 = vec![10.0, 5.0, 1.0 + 1e-8];
        assert!(singular_value_error(&s1, &s2) < 1e-8);
        assert!(singular_values_match(&s1, &s2, 1e-8));
        assert!(!singular_values_match(&s1, &[10.0, 4.0, 1.0], 1e-3));
    }

    #[test]
    fn masses_detect_structure() {
        let mut a = Matrix::zeros(4, 4);
        for i in 0..4 {
            a[(i, i)] = 1.0;
        }
        assert_eq!(off_bidiagonal_mass(&a), 0.0);
        a[(3, 0)] = 1.0;
        assert!(off_bidiagonal_mass(&a) > 0.1);
    }
}
