//! Unblocked (Level-2 BLAS style) bidiagonalization, LAPACK `xGEBD2`.
//!
//! This is the classical Golub–Kahan algorithm: alternate column reflectors
//! (from the left) and row reflectors (from the right), one column and one
//! row at a time.  It serves three roles in the reproduction:
//!
//! * as the one-stage algorithm class the paper's two-stage reduction is
//!   measured against (MKL/ScaLAPACK's `GEBRD` is a blocked version of
//!   this; `fig2_shared_memory` times it next to `ge2val`),
//! * as the direct path of every problem of order at most
//!   `DIRECT_CROSSOVER` (the batched session, `ge2val` under a crossover),
//! * as the final stage applied to small dense matrices in tests.
//!
//! Step `k` runs on the reflector plane of [`crate::householder`], shared
//! with the bulge chase: the column reflector is generated in place on the
//! contiguous `A[k.., k]` and applied from the left; the row reflector is
//! gathered from row `k` (one entry per column, `m` apart), applied from the
//! right with rows as lanes, and scattered back.  As in the chase the matrix
//! is first scaled by an exact power of two (largest entry in `(0.5, 1]`),
//! so a reflector's norm is one plain sum of squares.
//!
//! At the orders the direct path serves nothing fills a whole number of
//! registers — every step is one row and one column shorter than the last —
//! so what the plane does with a tail is what the kernel costs: the rows of
//! a right apply are one chunk of `ceil(rows / LANES)` registers, the last
//! one masked, and a column reflector of up to sixteen registers (64 rows on
//! four lanes, 128 on eight) stays in them for its whole left apply.  One
//! [`simd::dispatch`] per call: `Avx2` runs four lanes, `Avx512` eight.

use crate::householder::{left_apply, prescale, reflector, right_apply};
use bidiag_matrix::simd::{self, LaneKernel, SimdLane};
use bidiag_matrix::Matrix;

/// Result of a bidiagonalization: the main diagonal and super-diagonal of the
/// upper-bidiagonal factor `B` such that `A = U B V^T`.
#[derive(Clone, Debug, PartialEq)]
pub struct Bidiagonal {
    /// Main diagonal, length `min(m, n)`.
    pub diag: Vec<f64>,
    /// Super-diagonal, length `min(m, n) - 1` (empty when `min(m, n) < 2`).
    pub superdiag: Vec<f64>,
}

impl Bidiagonal {
    /// Number of rows/columns of the bidiagonal factor.
    pub fn len(&self) -> usize {
        self.diag.len()
    }

    /// True when the bidiagonal factor is empty.
    pub fn is_empty(&self) -> bool {
        self.diag.is_empty()
    }

    /// Materialise the bidiagonal matrix as a dense square matrix.
    pub fn to_dense(&self) -> Matrix {
        let n = self.diag.len();
        let mut b = Matrix::zeros(n, n);
        for i in 0..n {
            b[(i, i)] = self.diag[i];
            if i + 1 < n {
                b[(i, i + 1)] = self.superdiag[i];
            }
        }
        b
    }

    /// Frobenius norm of the bidiagonal factor.
    pub fn norm_fro(&self) -> f64 {
        let s: f64 = self.diag.iter().map(|x| x * x).sum::<f64>()
            + self.superdiag.iter().map(|x| x * x).sum::<f64>();
        s.sqrt()
    }
}

/// Reduce a dense `m x n` matrix (`m >= n`) to upper bidiagonal form in
/// place using Householder reflections, and return the bidiagonal factor.
///
/// On exit `a` holds the Householder vectors (below the diagonal for the
/// column reflectors, right of the superdiagonal for the row reflectors) and
/// the bidiagonal entries on its diagonal / superdiagonal, following the
/// LAPACK `xGEBD2` storage convention.
pub fn gebd2(a: &mut Matrix) -> Bidiagonal {
    let mut b = Bidiagonal {
        diag: Vec::with_capacity(a.cols()),
        superdiag: Vec::with_capacity(a.cols().saturating_sub(1)),
    };
    let mut tail = Vec::with_capacity(a.cols().saturating_sub(1));
    gebd2_with(a, &mut tail, &mut b);
    b
}

/// [`gebd2`] writing into caller-owned buffers: `tail` is the row-reflector
/// scratch (grown once, reused every row) and `out` receives the
/// bidiagonal factor (its vectors are cleared and refilled, keeping their
/// capacity).  Arithmetic is identical to [`gebd2`] — same reflectors in
/// the same order — so the results are bitwise equal; the only difference
/// is that steady-state calls with same-or-smaller problems allocate
/// nothing.  This is the small-size direct path of the batched SVD
/// session.
pub fn gebd2_with(a: &mut Matrix, tail: &mut Vec<f64>, out: &mut Bidiagonal) {
    let (m, n) = (a.rows(), a.cols());
    assert!(m >= n, "gebd2 expects m >= n (use the transpose otherwise)");
    gebd2_window(a.data_mut(), m, tail, out);
}

/// [`gebd2_with`] on the `m`-row columns of the column-major slice `a`.
fn gebd2_window(a: &mut [f64], m: usize, row: &mut Vec<f64>, out: &mut Bidiagonal) {
    // Each vector backend runs its own lane.  Hot, us per call at n = 16 /
    // 32 / 48 / 64 (`table1_kernel_weights`): 2.8 / 10.5 / 26.6 / 54.5 on
    // the 256-bit lane while what did not fill a register went element by
    // element (eight lanes then read 3.5 / 13.0 / 31.2 / 60.0 and first won
    // at n = 256); with the masked tail and `v` resident in the left apply,
    // 2.2 / 8.1 / 21.8 / 47.6 on four lanes and 2.3 / 7.6 / 17.6 / 36.1 on
    // eight.
    simd::dispatch(Gebd2 { a, m, row, out });
}

/// The arguments of [`gebd2_window`].
struct Gebd2<'a> {
    a: &'a mut [f64],
    m: usize,
    row: &'a mut Vec<f64>,
    out: &'a mut Bidiagonal,
}

impl LaneKernel for Gebd2<'_> {
    type Output = ();

    #[inline(always)]
    fn run<S: SimdLane>(self, s: S) {
        let Gebd2 { a, m, row, out } = self;
        gebd2_body(s, a, m, row, out)
    }
}

/// Lane-generic body of [`gebd2_with`]: prescale, then the steps of the
/// module docs, scaling each bidiagonal entry back as it is stored.
#[inline(always)]
fn gebd2_body<S: SimdLane>(
    s: S,
    a: &mut [f64],
    m: usize,
    row: &mut Vec<f64>,
    out: &mut Bidiagonal,
) {
    // `m >= n`, so no rows means no columns.
    let n = a.len().checked_div(m).unwrap_or(0);
    out.diag.clear();
    out.superdiag.clear();
    let (scale, unscale) = prescale(a.iter().fold(0.0, |acc: f64, v| acc.max(v.abs())));
    a.iter_mut().for_each(|v| *v *= scale);
    for k in 0..n {
        let (head, trail) = a.split_at_mut((k + 1) * m);
        let col = &mut head[k * m + k..];
        let r = reflector(s, col);
        if r.tau != 0.0 && k + 1 < n {
            left_apply(s, &mut trail[k..], m, n - k - 1, col, r.tau);
        }
        col[0] = r.beta * unscale;
        out.diag.push(col[0]);
        if k + 1 < n {
            row.clear();
            row.extend(trail[k..].iter().step_by(m));
            let r = reflector(s, row);
            if r.tau != 0.0 {
                right_apply(s, &mut trail[k + 1..], m, m - k - 1, row, r.tau);
            }
            row[0] = r.beta * unscale;
            let row_k = trail[k..].iter_mut().step_by(m);
            row_k.zip(&*row).for_each(|(x, vj)| *x = *vj);
            out.superdiag.push(row[0]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::householder::larfg;
    use crate::svd::dqds_singular_values;
    use bidiag_matrix::checks::{off_bidiagonal_mass, singular_values_match};
    use bidiag_matrix::gen::{latms, random_gaussian, SpectrumKind};

    /// The element-wise `get`/`set` loop [`gebd2_with`] used to be (LAPACK
    /// `dgebd2` with `dlarfg`'s scaled norm, no prescaling), kept as the
    /// oracle of the lane-generic one.
    fn gebd2_scalar(a: &mut Matrix) -> Bidiagonal {
        let (m, n) = (a.rows(), a.cols());
        let (mut diag, mut superdiag, mut tail) = (Vec::new(), Vec::new(), Vec::new());
        for k in 0..n {
            // --- Column reflector: zero A[k+1..m, k].
            let alpha = a.get(k, k);
            tail.clear();
            tail.extend((k + 1..m).map(|i| a.get(i, k)));
            let refl = larfg(alpha, &mut tail);
            a.set(k, k, refl.beta);
            for (idx, i) in (k + 1..m).enumerate() {
                a.set(i, k, tail[idx]);
            }
            if refl.tau != 0.0 {
                for j in (k + 1)..n {
                    let mut w = a.get(k, j);
                    for (idx, i) in (k + 1..m).enumerate() {
                        w += tail[idx] * a.get(i, j);
                    }
                    w *= refl.tau;
                    a.set(k, j, a.get(k, j) - w);
                    for (idx, i) in (k + 1..m).enumerate() {
                        a.set(i, j, a.get(i, j) - tail[idx] * w);
                    }
                }
            }
            diag.push(a.get(k, k));

            // --- Row reflector: zero A[k, k+2..n].
            if k + 1 < n {
                let alpha = a.get(k, k + 1);
                tail.clear();
                tail.extend((k + 2..n).map(|j| a.get(k, j)));
                let refl = larfg(alpha, &mut tail);
                a.set(k, k + 1, refl.beta);
                for (idx, j) in (k + 2..n).enumerate() {
                    a.set(k, j, tail[idx]);
                }
                if refl.tau != 0.0 {
                    for i in (k + 1)..m {
                        let mut w = a.get(i, k + 1);
                        for (idx, j) in (k + 2..n).enumerate() {
                            w += tail[idx] * a.get(i, j);
                        }
                        w *= refl.tau;
                        a.set(i, k + 1, a.get(i, k + 1) - w);
                        for (idx, j) in (k + 2..n).enumerate() {
                            a.set(i, j, a.get(i, j) - tail[idx] * w);
                        }
                    }
                }
                superdiag.push(a.get(k, k + 1));
            }
        }
        Bidiagonal { diag, superdiag }
    }

    /// Every remainder path of the two applies: orders around one, two and
    /// four registers of either vector width, and tall windows.
    const SHAPES: [(usize, usize); 17] = [
        (1, 1),
        (2, 2),
        (3, 3),
        (4, 4),
        (5, 5),
        (7, 7),
        (8, 8),
        (9, 9),
        (15, 15),
        (17, 17),
        (31, 31),
        (32, 32),
        (33, 33),
        (64, 64),
        (40, 5),
        (65, 3),
        (9, 8),
    ];

    /// The two factors agree entry by entry up to sign, to `entry_tol` of
    /// the factor's norm (single entries of a bidiagonal factor are not
    /// determined to full relative precision; its spectrum is), and their
    /// spectra agree to `1e-13` relative.
    fn assert_same_factor(got: &Bidiagonal, expect: &Bidiagonal, entry_tol: f64, what: &str) {
        let tol = entry_tol * expect.norm_fro();
        for (x, y) in [
            (&got.diag, &expect.diag),
            (&got.superdiag, &expect.superdiag),
        ] {
            assert_eq!(x.len(), y.len(), "{what}");
            for (i, (a, b)) in x.iter().zip(y).enumerate() {
                assert!(
                    (a.abs() - b.abs()).abs() <= tol,
                    "{what} [{i}]: {a:e} vs {b:e}"
                );
            }
        }
        let spectrum = |b: &Bidiagonal| dqds_singular_values(&b.diag, &b.superdiag);
        assert!(
            singular_values_match(&spectrum(got), &spectrum(expect), 1e-13),
            "{what} spectrum"
        );
    }

    #[test]
    fn every_backend_matches_the_scalar_oracle_and_the_others() {
        // Every square order up to five registers of eight, and a tall
        // window of nine: each register count and each mask of both applies,
        // in every combination a reduction runs them in.  Over that many
        // seeds some factor has an entry that is determined to `1e-11` only
        // (entry 37 of the 39 x 39 one, whatever computes it), so these
        // compare entries to `1e-10` — a wrong mask is an error of order one
        // — and the curated shapes stay at `1e-13`.
        let swept = (1..=40).map(|n| (n, n, 1e-10)).chain([(70, 33, 1e-10)]);
        for (m, n, entry_tol) in swept.chain(SHAPES.map(|(m, n)| (m, n, 1e-13))) {
            let a0 = random_gaussian(m, n, (m * 131 + n) as u64);
            let oracle = gebd2_scalar(&mut a0.clone());
            let runs = simd::on_each_backend(|| {
                let mut a = a0.clone();
                let b = gebd2(&mut a);
                (a, b)
            });
            for (be, (a, b)) in &runs {
                let what = format!("{m}x{n} {}", be.name());
                assert_same_factor(b, &oracle, entry_tol, &what);
                let what = format!("{what} vs scalar lane");
                assert_same_factor(b, &runs[0].1 .1, entry_tol, &what);
                // LAPACK storage: the unscaled factor on the two diagonals.
                assert_eq!(a.diag(), b.diag, "{what}");
                assert_eq!(a.superdiag(), b.superdiag, "{what}");
            }
        }
    }

    #[test]
    fn window_reads_and_writes_only_its_own_entries() {
        // The `m x n` window sits in a NaN-poisoned buffer and the row
        // scratch has a poisoned capacity: a read outside the window turns
        // the factor NaN, a write outside it replaces a NaN.
        const PAD: usize = 96;
        for (m, n) in SHAPES {
            let a0 = random_gaussian(m, n, (m * 137 + n) as u64);
            for (be, expect) in simd::on_each_backend(|| gebd2(&mut a0.clone())) {
                let mut buf = vec![f64::NAN; m * n + 2 * PAD];
                buf[PAD..PAD + m * n].copy_from_slice(a0.data());
                let mut tail = vec![f64::NAN; 2 * n];
                tail.clear();
                let mut got = Bidiagonal {
                    diag: Vec::new(),
                    superdiag: Vec::new(),
                };
                simd::with_forced_backend(be, || {
                    gebd2_window(&mut buf[PAD..PAD + m * n], m, &mut tail, &mut got)
                });
                assert_eq!(got, expect, "{m}x{n} {}", be.name());
                let outside = buf[..PAD].iter().chain(&buf[PAD + m * n..]);
                assert!(outside.clone().all(|v| v.is_nan()), "{m}x{n} {}", be.name());
                assert!(buf[PAD..PAD + m * n].iter().all(|v| v.is_finite()));
            }
        }
    }

    /// The factor of `scale * A` must carry `scale` times the spectrum of
    /// `A`: the prescaling is a power of two, so nothing may underflow,
    /// overflow or be deflated on the way.
    #[test]
    fn extreme_scales_keep_the_spectrum() {
        let a0 = random_gaussian(24, 17, 41);
        let reference = gebd2_scalar(&mut a0.clone());
        let reference = dqds_singular_values(&reference.diag, &reference.superdiag);
        for scale in [1e-150, 1e150, 2.0f64.powi(-1000), 2.0f64.powi(1000)] {
            for (be, b) in simd::on_each_backend(|| {
                let mut a = a0.clone();
                a.scale(scale);
                gebd2(&mut a)
            }) {
                // Scale the factor back before the solver sees it.
                let back = |x: &[f64]| x.iter().map(|v| v / scale).collect::<Vec<_>>();
                let got = dqds_singular_values(&back(&b.diag), &back(&b.superdiag));
                assert!(
                    singular_values_match(&reference, &got, 1e-13),
                    "scale {scale:e} on {}",
                    be.name()
                );
            }
        }
    }

    #[test]
    fn identity_reflectors_return_exact_values() {
        simd::on_each_backend(|| {
            // All zero: every reflector is the identity.
            let b = gebd2(&mut Matrix::zeros(9, 6));
            assert!(b.diag.iter().chain(&b.superdiag).all(|&v| v == 0.0));
            assert_eq!((b.diag.len(), b.superdiag.len()), (6, 5));

            // Already bidiagonal (any magnitude): the factor is the input.
            for scale in [1.0, 3e-200, 7e200] {
                let d: Vec<f64> = (1..=7).map(|i| scale * f64::from(i)).collect();
                let e: Vec<f64> = (1..7).map(|i| -scale / f64::from(i)).collect();
                let mut a = Matrix::zeros(10, 7);
                for i in 0..7 {
                    a[(i, i)] = d[i];
                    if i + 1 < 7 {
                        a[(i, i + 1)] = e[i];
                    }
                }
                let b = gebd2(&mut a);
                assert_eq!((b.diag, b.superdiag), (d, e), "scale {scale:e}");
            }

            // A zero first column: `tau == 0`, an exact zero on the diagonal,
            // and the rest of the reduction goes on.
            let mut a0 = random_gaussian(12, 9, 77);
            a0.col_mut(0).fill(0.0);
            let b = gebd2(&mut a0.clone());
            assert_eq!(b.diag[0], 0.0);
            assert_same_factor(&b, &gebd2_scalar(&mut a0), 1e-13, "zero column");
        });
    }

    #[test]
    fn gebd2_produces_bidiagonal_with_same_frobenius_norm() {
        let a0 = random_gaussian(12, 8, 5);
        let mut a = a0.clone();
        let b = gebd2(&mut a);
        assert_eq!(b.diag.len(), 8);
        assert_eq!(b.superdiag.len(), 7);
        // Orthogonal transformations preserve the Frobenius norm.
        assert!((b.norm_fro() - a0.norm_fro()).abs() < 1e-10 * a0.norm_fro());
        assert!(off_bidiagonal_mass(&b.to_dense()) < 1e-13);
    }

    #[test]
    fn gebd2_on_square_matrix() {
        let a0 = random_gaussian(6, 6, 9);
        let mut a = a0.clone();
        let b = gebd2(&mut a);
        assert_eq!(b.len(), 6);
        assert!((b.norm_fro() - a0.norm_fro()).abs() < 1e-12 * a0.norm_fro());
    }

    #[test]
    fn gebd2_diagonal_matrix_is_fixed_point() {
        let spec = vec![4.0, 3.0, 2.0, 1.0];
        let mut a = Matrix::from_diag(&spec);
        let b = gebd2(&mut a);
        // Diagonal input: the bidiagonal factor has the same singular values
        // (up to sign) and zero superdiagonal.
        let mut d: Vec<f64> = b.diag.iter().map(|x| x.abs()).collect();
        d.sort_by(|a, b| b.partial_cmp(a).unwrap());
        for (x, y) in d.iter().zip(spec.iter()) {
            assert!((x - y).abs() < 1e-14);
        }
        for e in &b.superdiag {
            assert!(e.abs() < 1e-14);
        }
    }

    #[test]
    fn gebd2_with_reused_buffers_is_bitwise_identical() {
        // One long-lived scratch set across problems of different shapes:
        // every result must equal the allocating entry point bit for bit.
        // Both run in one forced scope (sibling tests flip the backend).
        simd::on_each_backend(|| {
            let mut tail = Vec::new();
            let mut out = Bidiagonal {
                diag: Vec::new(),
                superdiag: Vec::new(),
            };
            for (m, n, seed) in [(12usize, 8usize, 5u64), (6, 6, 9), (20, 3, 1), (9, 7, 3)] {
                let a0 = random_gaussian(m, n, seed);
                let mut a1 = a0.clone();
                let mut a2 = a0.clone();
                let reference = gebd2(&mut a1);
                gebd2_with(&mut a2, &mut tail, &mut out);
                assert_eq!(reference.diag, out.diag, "{m}x{n}");
                assert_eq!(reference.superdiag, out.superdiag, "{m}x{n}");
                assert_eq!(a1, a2, "{m}x{n}: reflector storage diverged");
            }
        });
    }

    #[test]
    fn gebd2_preserves_frobenius_of_prescribed_spectrum() {
        let (a, sigma) = latms(20, 10, &SpectrumKind::Geometric { cond: 100.0 }, 17);
        let mut w = a.clone();
        let b = gebd2(&mut w);
        let fro2: f64 = sigma.iter().map(|s| s * s).sum();
        assert!((b.norm_fro().powi(2) - fro2).abs() < 1e-9 * fro2);
    }
}
