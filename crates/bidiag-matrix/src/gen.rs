//! Test-matrix generators.
//!
//! The paper validates its implementation with matrices of prescribed
//! singular values produced by LAPACK's `xLATMS`.  We reproduce the same
//! functionality: [`latms`] builds `A = U * diag(sigma) * V^T` with random
//! orthogonal factors: the thin-QR `Q` factor (positive `R` diagonal) of a
//! Gaussian matrix.
//!
//! [`random_orthonormal`] computes that `Q` by block classical Gram–Schmidt
//! with reorthogonalization (BCGS2; Barlow and Smoktunowicz,
//! *Reorthogonalized block classical Gram–Schmidt*, Numer. Math. 123,
//! 2013).  Each block of `BLOCK` columns takes two passes, and a pass
//! projects the block against the finished columns through the packed GEMM
//! ([`crate::gemm`]), then orthonormalizes it inside by modified
//! Gram–Schmidt on the SIMD lanes.  The second pass repairs what the
//! first one's in-block step amplified when the block is ill-conditioned:
//! projecting twice and only then orthonormalizing inside the block (by
//! MGS twice) left `||Q^T Q - I||_max` at 1.7e-13 on a 64 x 64 draw,
//! against 8.9e-16 for MGS2.  On full-rank input this is the `Q` of
//! element-wise modified Gram–Schmidt run twice (MGS2) up to rounding.
//! [`latms`] then forms the product with the same GEMM in the tall
//! factor's own storage.  Every output is determined by the seed on a
//! given SIMD backend; two backends round differently.

use crate::dense::Matrix;
use crate::gemm::{gemm_nn_scratch, gemm_tn_scratch, GemmScratch};
use crate::simd::{self, LaneKernel, SimdLane};
use crate::view::{MatrixView, MatrixViewMut};
use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Prescribed singular-value profiles, mirroring the LATMS `MODE` parameter.
#[derive(Clone, Debug, PartialEq)]
pub enum SpectrumKind {
    /// All singular values equal to 1.
    Uniform,
    /// Geometric decay from 1 down to `cond^-1`: `sigma_i = cond^(-i/(n-1))`.
    Geometric {
        /// Condition number (ratio of largest to smallest singular value).
        cond: f64,
    },
    /// Arithmetic decay from 1 down to `cond^-1`.
    Arithmetic {
        /// Condition number (ratio of largest to smallest singular value).
        cond: f64,
    },
    /// One large singular value, the rest equal to `cond^-1`.
    OneLarge {
        /// Condition number (ratio of largest to smallest singular value).
        cond: f64,
    },
    /// Explicit list of singular values (must have length `min(m, n)`).
    Explicit(Vec<f64>),
}

impl SpectrumKind {
    /// Materialise the singular values, sorted in non-increasing order.
    pub fn values(&self, k: usize) -> Vec<f64> {
        let mut s = match self {
            SpectrumKind::Uniform => vec![1.0; k],
            SpectrumKind::Geometric { cond } => (0..k)
                .map(|i| {
                    if k == 1 {
                        1.0
                    } else {
                        cond.powf(-(i as f64) / ((k - 1) as f64))
                    }
                })
                .collect(),
            SpectrumKind::Arithmetic { cond } => (0..k)
                .map(|i| {
                    if k == 1 {
                        1.0
                    } else {
                        1.0 - (1.0 - 1.0 / cond) * (i as f64) / ((k - 1) as f64)
                    }
                })
                .collect(),
            SpectrumKind::OneLarge { cond } => {
                let mut v = vec![1.0 / cond; k];
                if k > 0 {
                    v[0] = 1.0;
                }
                v
            }
            SpectrumKind::Explicit(v) => {
                assert_eq!(v.len(), k, "explicit spectrum length mismatch");
                v.clone()
            }
        };
        s.sort_by(|a, b| b.partial_cmp(a).unwrap());
        s
    }
}

/// Standard normal matrix with a deterministic seed.
pub fn random_gaussian(m: usize, n: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let normal = NormalBoxMuller::new();
    Matrix::from_fn(m, n, |_, _| normal.sample(&mut rng))
}

/// Box–Muller standard normal sampler (keeps us independent of the
/// `rand_distr` crate, which is not in the approved dependency list).
struct NormalBoxMuller;

impl NormalBoxMuller {
    fn new() -> Self {
        Self
    }
    fn sample(&self, rng: &mut StdRng) -> f64 {
        let dist = rand::distributions::Uniform::new(f64::MIN_POSITIVE, 1.0f64);
        let u1: f64 = dist.sample(rng);
        let u2: f64 = dist.sample(rng);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

/// Columns per Gram–Schmidt block of [`random_orthonormal`]: the width of
/// its GEMM projections against the finished columns.
const BLOCK: usize = 32;

/// Rows of the tall factor per GEMM call of [`latms`]'s in-place product.
const ROWS: usize = 128;

/// Random matrix with orthonormal columns (`m x n`, `m >= n`): the thin-QR
/// `Q` factor, with a positive `R` diagonal, of `random_gaussian(m, n,
/// seed)`, by BCGS2 (see the module docs).
pub fn random_orthonormal(m: usize, n: usize, seed: u64) -> Matrix {
    assert!(m >= n);
    let mut q = random_gaussian(m, n, seed);
    // `R`'s block column above the diagonal block: `j0 x b`, at most
    // `(n - b) x b`.
    let mut r = vec![0.0; n.saturating_sub(BLOCK) * BLOCK];
    let mut scratch = GemmScratch::new();
    for j0 in (0..n).step_by(BLOCK) {
        let b = BLOCK.min(n - j0);
        let (done, rest) = q.data_mut().split_at_mut(j0 * m);
        let block = &mut rest[..b * m];
        let finished = MatrixView::new(done, m, j0, m);
        for _ in 0..2 {
            if j0 > 0 {
                // R = Q_done^T X, then X -= Q_done R.
                let r = &mut r[..j0 * b];
                r.fill(0.0);
                let mut rv = MatrixViewMut::new(r, j0, b, j0);
                let x = MatrixView::new(block, m, b, m);
                gemm_tn_scratch(&mut rv, 1.0, finished, x, &mut scratch);
                let mut x = MatrixViewMut::new(block, m, b, m);
                gemm_nn_scratch(&mut x, -1.0, finished, rv.as_view(), &mut scratch);
            }
            simd::dispatch(OrthonormalizeBlock { block, m });
        }
    }
    q
}

/// Modified Gram–Schmidt on the `m`-row columns of `block` (contiguous,
/// column-major), in place.
struct OrthonormalizeBlock<'a> {
    block: &'a mut [f64],
    m: usize,
}

impl LaneKernel for OrthonormalizeBlock<'_> {
    type Output = ();

    #[inline(always)]
    fn run<S: SimdLane>(self, s: S) {
        let OrthonormalizeBlock { block, m } = self;
        for j in 0..block.len() / m {
            let (done, rest) = block.split_at_mut(j * m);
            let x = &mut rest[..m];
            for q in done.chunks_exact(m) {
                let d = simd::dot_body(s, q, x);
                simd::axpy_body(s, x, -d, q);
            }
            let nrm = simd::dot_body(s, x, x).sqrt();
            assert!(
                nrm > 0.0,
                "rank-deficient random matrix (astronomically unlikely)"
            );
            for v in x.iter_mut() {
                *v /= nrm;
            }
        }
    }
}

/// LATMS-style generator: an `m x n` matrix with prescribed singular values.
///
/// `A = U * diag(sigma) * V^T`, where `U` is `m x k` and `V` is `n x k` with
/// orthonormal columns (`k = min(m, n)`), both pseudo-random but determined
/// by `seed` on a given SIMD backend.
pub fn latms(m: usize, n: usize, spectrum: &SpectrumKind, seed: u64) -> (Matrix, Vec<f64>) {
    let k = m.min(n);
    let sigma = spectrum.values(k);
    let u = random_orthonormal(m, k, seed ^ 0x5eed_0001);
    let v = random_orthonormal(n, k, seed ^ 0x5eed_0002);
    // The factor with `k` rows is square: A = U (S V^T), or A^T = V (S U^T).
    let a = if m >= n {
        scaled_product(u, v, &sigma)
    } else {
        scaled_product(v, u, &sigma).transpose()
    };
    (a, sigma)
}

/// `tall * diag(sigma) * square^T` in `tall`'s storage: `square` becomes
/// `diag(sigma) * square^T` in place, then each block of `ROWS` rows of
/// `tall` is replaced by its product with it through the packed GEMM.
fn scaled_product(mut tall: Matrix, mut square: Matrix, sigma: &[f64]) -> Matrix {
    let (m, k) = (tall.rows(), tall.cols());
    assert_eq!((square.rows(), square.cols()), (k, k));
    let w = square.data_mut();
    for j in 0..k {
        for i in j + 1..k {
            w.swap(j * k + i, i * k + j);
        }
    }
    for col in w.chunks_exact_mut(k.max(1)) {
        for (x, s) in col.iter_mut().zip(sigma) {
            *x *= s;
        }
    }
    let mut scratch = GemmScratch::new();
    let mut rows = vec![0.0; ROWS.min(m) * k];
    for i0 in (0..m).step_by(ROWS) {
        let h = ROWS.min(m - i0);
        let t = &mut rows[..h * k];
        t.fill(0.0);
        let mut tv = MatrixViewMut::new(t, h, k, h);
        gemm_nn_scratch(
            &mut tv,
            1.0,
            tall.view(i0, 0, h, k),
            square.as_view(),
            &mut scratch,
        );
        for (j, tj) in t.chunks_exact(h).enumerate() {
            tall.col_mut(j)[i0..i0 + h].copy_from_slice(tj);
        }
    }
    tall
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spectra_are_sorted_and_sized() {
        for kind in [
            SpectrumKind::Uniform,
            SpectrumKind::Geometric { cond: 100.0 },
            SpectrumKind::Arithmetic { cond: 10.0 },
            SpectrumKind::OneLarge { cond: 50.0 },
        ] {
            let s = kind.values(7);
            assert_eq!(s.len(), 7);
            for w in s.windows(2) {
                assert!(w[0] >= w[1]);
            }
            assert!((s[0] - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn random_orthonormal_has_orthonormal_columns() {
        let q = random_orthonormal(20, 6, 42);
        let qtq = q.matmul_tn(&q);
        let err = qtq.sub(&Matrix::identity(6)).norm_max();
        assert!(err < 1e-12, "orthogonality error {err}");
    }

    #[test]
    fn latms_reproducible_and_right_shape() {
        let (a1, s1) = latms(12, 8, &SpectrumKind::Geometric { cond: 1e3 }, 7);
        let (a2, s2) = latms(12, 8, &SpectrumKind::Geometric { cond: 1e3 }, 7);
        assert_eq!(a1, a2);
        assert_eq!(s1, s2);
        assert_eq!(a1.rows(), 12);
        assert_eq!(a1.cols(), 8);
    }

    #[test]
    fn latms_frobenius_norm_matches_spectrum() {
        // ||A||_F^2 = sum sigma_i^2 for any orthogonally invariant construction.
        let spec = SpectrumKind::Explicit(vec![3.0, 2.0, 1.0, 0.5]);
        let (a, s) = latms(10, 4, &spec, 3);
        let fro2: f64 = s.iter().map(|x| x * x).sum();
        assert!((a.norm_fro().powi(2) - fro2).abs() < 1e-9 * fro2);
    }

    #[test]
    fn gaussian_is_seeded() {
        assert_eq!(random_gaussian(5, 5, 1), random_gaussian(5, 5, 1));
        assert_ne!(random_gaussian(5, 5, 1), random_gaussian(5, 5, 2));
    }
}
