//! Test-matrix generators.
//!
//! The paper validates its implementation with matrices of prescribed
//! singular values produced by LAPACK's `xLATMS`.  We reproduce the same
//! functionality: [`latms`] builds `A = U * diag(sigma) * V^T` with random
//! orthogonal factors obtained from Householder QR of Gaussian matrices.

use crate::dense::Matrix;
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

/// Orthonormalise the columns of `a` in place with modified Gram–Schmidt and
/// return the resulting matrix (used to build random orthogonal factors).
fn orthonormal_columns(mut a: Matrix) -> Matrix {
    let n = a.cols();
    for j in 0..n {
        // Two MGS passes for numerical safety.
        for _ in 0..2 {
            for k in 0..j {
                let mut dot = 0.0;
                for i in 0..a.rows() {
                    dot += a.get(i, k) * a.get(i, j);
                }
                for i in 0..a.rows() {
                    let v = a.get(i, j) - dot * a.get(i, k);
                    a.set(i, j, v);
                }
            }
        }
        let nrm: f64 = (0..a.rows())
            .map(|i| a.get(i, j).powi(2))
            .sum::<f64>()
            .sqrt();
        assert!(
            nrm > 0.0,
            "rank-deficient random matrix (astronomically unlikely)"
        );
        for i in 0..a.rows() {
            let v = a.get(i, j) / nrm;
            a.set(i, j, v);
        }
    }
    a
}

/// Random matrix with orthonormal columns (`m x n`, `m >= n`).
pub fn random_orthonormal(m: usize, n: usize, seed: u64) -> Matrix {
    assert!(m >= n);
    orthonormal_columns(random_gaussian(m, n, seed))
}

/// LATMS-style generator: an `m x n` matrix with prescribed singular values.
///
/// `A = U * diag(sigma) * V^T`, where `U` is `m x k` and `V` is `n x k` with
/// orthonormal columns (`k = min(m, n)`), both pseudo-random but fully
/// determined by `seed`.
pub fn latms(m: usize, n: usize, spectrum: &SpectrumKind, seed: u64) -> (Matrix, Vec<f64>) {
    let k = m.min(n);
    let sigma = spectrum.values(k);
    let u = random_orthonormal(m, k, seed ^ 0x5eed_0001);
    let v = random_orthonormal(n, k, seed ^ 0x5eed_0002);
    // A = U * S * V^T computed as (U * S) * V^T.
    let mut us = u;
    for (j, &s) in sigma.iter().enumerate() {
        for i in 0..us.rows() {
            let val = us.get(i, j) * s;
            us.set(i, j, val);
        }
    }
    (us.matmul_nt(&v), sigma)
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
