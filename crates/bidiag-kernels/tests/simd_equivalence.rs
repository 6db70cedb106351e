//! Forced-backend equivalence of the SIMD-ported kernel layer.
//!
//! The QR tile kernels run one lane-generic compact-WY chunk kernel, the
//! LQ kernels its right-sided mirror image, and the band bulge chase applies its
//! reflectors through one lane-generic body of its own. This suite pins
//! every vector backend of the host (AVX2; AVX-512, which widens the chunk
//! kernels only) to the scalar one through the *real* dispatch path
//! ([`simd::with_forced_backend`] + [`simd::backend`]), at two levels:
//!
//! * **Tile kernels** — outputs compared normwise at `1e-13`: a composite
//!   kernel runs thousands of fused-vs-unfused multiply-adds through
//!   reflector normalizations, so the ~1 ulp/op backend gap amplifies past
//!   the flat `1e-15` the primitive kernels are held to (the same reason
//!   the blocked-vs-unblocked suite uses `1e-13`).
//! * **BND2BD** — compared via the singular values of the resulting
//!   bidiagonal at `1e-12`: a bulge chase is a long *chain* of reflectors
//!   each computed from entries already perturbed by the previous ones,
//!   so the factors themselves may diverge entry-wise
//!   while the spectrum (the quantity BND2BD exists to preserve) stays
//!   pinned. The spectra are extracted with the bisection oracle, which
//!   has no SIMD dispatch of its own.
//!
//! On a host without AVX2+FMA there is nothing to compare and every test
//! passes trivially.

use bidiag_kernels::band::BandMatrix;
use bidiag_kernels::lq::{gelqt, tslqt, tsmlq, ttlqt, ttmlq, unmlq};
use bidiag_kernels::qr::{geqrt, tsmqr, tsqrt, ttmqr, ttqrt, unmqr};
use bidiag_kernels::svd::bisection_singular_values;
use bidiag_matrix::checks::{lower_triangle_of, relative_error, upper_triangle_of};
use bidiag_matrix::gen::random_gaussian;
use bidiag_matrix::simd;

/// Cross-backend tolerance for composite tile kernels (see module docs).
const TOL: f64 = 1e-13;
/// Tile sizes straddling the `IB = 8` chunk boundary and the 4- and 8-lane
/// steps.
const NBS: [usize; 5] = [5, 8, 9, 17, 33];

fn assert_taus_close(s: &[f64], v: &[f64], what: &str) {
    assert_eq!(s.len(), v.len());
    for (i, (a, b)) in s.iter().zip(v).enumerate() {
        assert!(
            (a - b).abs() <= TOL * a.abs().max(1.0),
            "{what} tau[{i}]: {a} vs {b}"
        );
    }
}

#[test]
fn qr_tile_kernels_agree_across_backends() {
    for &nb in &NBS {
        let m = nb + nb.div_ceil(2) + 1;
        let a0 = random_gaussian(m, nb, (m * 311 + nb) as u64);
        let c0 = random_gaussian(m, nb + 3, (m * 313) as u64);

        let results = simd::on_each_backend(|| {
            let mut a = a0.clone();
            let tf = geqrt(&mut a);
            let mut c = c0.clone();
            unmqr(&tf, &mut c);
            (a, tf.taus().to_vec(), c)
        });
        let (_, s) = &results[0];
        for (be, v) in &results[1..] {
            let on = format!("nb={nb} {be:?}");
            assert!(relative_error(&s.0, &v.0) < TOL, "GEQRT factor {on}");
            assert_taus_close(&s.1, &v.1, "GEQRT");
            assert!(relative_error(&s.2, &v.2) < TOL, "UNMQR {on}");
        }
    }
}

#[test]
fn ts_and_tt_qr_kernels_agree_across_backends() {
    for &nb in &NBS {
        for m2 in [nb, nb.div_ceil(2)] {
            let r1_0 = upper_triangle_of(&random_gaussian(nb, nb, (nb * 331 + m2) as u64));
            let a2_0 = random_gaussian(m2, nb, (nb * 337 + m2) as u64);
            let c1_0 = random_gaussian(nb, nb, 41);
            let c2_0 = random_gaussian(m2, nb, 43);

            let results = simd::on_each_backend(|| {
                let mut r1 = r1_0.clone();
                let mut a2 = a2_0.clone();
                let tf = tsqrt(&mut r1, &mut a2);
                let mut b1 = c1_0.clone();
                let mut b2 = c2_0.clone();
                tsmqr(&mut b1, &mut b2, &a2, &tf);
                (r1, a2, b1, b2)
            });
            let (_, s) = &results[0];
            for (be, v) in &results[1..] {
                let on = format!("nb={nb} m2={m2} {be:?}");
                assert!(relative_error(&s.0, &v.0) < TOL, "TSQRT R1 {on}");
                assert!(relative_error(&s.1, &v.1) < TOL, "TSQRT V2 {on}");
                assert!(relative_error(&s.2, &v.2) < TOL, "TSMQR C1 {on}");
                assert!(relative_error(&s.3, &v.3) < TOL, "TSMQR C2 {on}");
            }

            // TT variants: the triangle-on-triangle kernels exercise the
            // clipped upper-triangular corner of the chunk kernel.
            let r2_0 = upper_triangle_of(&random_gaussian(m2.min(nb), nb, (nb * 347) as u64));
            let results = simd::on_each_backend(|| {
                let mut r1 = r1_0.clone();
                let mut r2 = r2_0.clone();
                let tf = ttqrt(&mut r1, &mut r2);
                let mut b1 = c1_0.clone();
                let mut b2 = random_gaussian(r2_0.rows(), nb, 47);
                ttmqr(&mut b1, &mut b2, &r2, &tf);
                (r1, r2, b1, b2)
            });
            let (_, s) = &results[0];
            for (be, v) in &results[1..] {
                let on = format!("nb={nb} m2={m2} {be:?}");
                assert!(relative_error(&s.0, &v.0) < TOL, "TTQRT R1 {on}");
                assert!(relative_error(&s.1, &v.1) < TOL, "TTQRT V2 {on}");
                assert!(relative_error(&s.2, &v.2) < TOL, "TTMQR C1 {on}");
                assert!(relative_error(&s.3, &v.3) < TOL, "TTMQR C2 {on}");
            }
        }
    }
}

#[test]
fn lq_tile_kernels_agree_across_backends() {
    for &nb in &NBS {
        let n = nb + nb.div_ceil(2) + 1;
        let a0 = random_gaussian(nb, n, (n * 353 + nb) as u64);
        let c0 = random_gaussian(nb + 3, n, (n * 359) as u64);

        let results = simd::on_each_backend(|| {
            let mut a = a0.clone();
            let tf = gelqt(&mut a);
            let mut c = c0.clone();
            unmlq(&tf, &mut c);
            (a, tf.taus().to_vec(), c)
        });
        let (_, s) = &results[0];
        for (be, v) in &results[1..] {
            let on = format!("nb={nb} {be:?}");
            assert!(relative_error(&s.0, &v.0) < TOL, "GELQT factor {on}");
            assert_taus_close(&s.1, &v.1, "GELQT");
            assert!(relative_error(&s.2, &v.2) < TOL, "UNMLQ {on}");
        }

        for n2 in [nb, nb.div_ceil(2)] {
            let l1_0 = lower_triangle_of(&random_gaussian(nb, nb, (nb * 367 + n2) as u64));
            let a2_0 = random_gaussian(nb, n2, (nb * 373 + n2) as u64);
            let t2_0 = lower_triangle_of(&random_gaussian(nb, n2, (nb * 379 + n2) as u64));
            // Row counts off the 4-lane step: the right-sided chunk kernel
            // vectorizes over the rows of C and finishes one row at a time.
            let c1_0 = random_gaussian(nb + 2, nb, 53);
            let c2_0 = random_gaussian(nb + 2, n2, 59);

            let results = simd::on_each_backend(|| {
                let mut l1 = l1_0.clone();
                let mut a2 = a2_0.clone();
                let tf = tslqt(&mut l1, &mut a2);
                let mut b1 = c1_0.clone();
                let mut b2 = c2_0.clone();
                tsmlq(&mut b1, &mut b2, &a2, &tf);

                let mut t1 = l1_0.clone();
                let mut t2 = t2_0.clone();
                let tg = ttlqt(&mut t1, &mut t2);
                let mut d1 = c1_0.clone();
                let mut d2 = c2_0.clone();
                ttmlq(&mut d1, &mut d2, &t2, &tg);
                [l1, a2, b1, b2, t1, t2, d1, d2]
            });
            let (_, s) = &results[0];
            for (be, v) in &results[1..] {
                let names = [
                    "TSLQT L1", "TSLQT V2", "TSMLQ C1", "TSMLQ C2", "TTLQT L1", "TTLQT V2",
                    "TTMLQ C1", "TTMLQ C2",
                ];
                for ((s, v), name) in s.iter().zip(v).zip(names) {
                    assert!(relative_error(s, v) < TOL, "{name} nb={nb} n2={n2} {be:?}");
                }
            }
        }
    }
}

/// Random banded upper-triangular matrix of order `n`, bandwidth `bw`.
fn random_band(n: usize, bw: usize, seed: u64) -> BandMatrix {
    let dense = random_gaussian(n, n, seed);
    let mut band = BandMatrix::zeros(n, bw);
    for i in 0..n {
        for j in i..(i + bw + 1).min(n) {
            band.set(i, j, dense.get(i, j));
        }
    }
    band
}

fn spectra_close(s: &[f64], v: &[f64], tol: f64, what: &str) {
    assert_eq!(s.len(), v.len());
    let scale = s.first().copied().unwrap_or(1.0).max(f64::MIN_POSITIVE);
    for (a, b) in s.iter().zip(v) {
        assert!((a - b).abs() <= tol * scale, "{what}: {a} vs {b}");
    }
}

#[test]
fn bnd2bd_spectra_agree_across_backends() {
    for &(n, bw) in &[(24usize, 3usize), (40, 5), (64, 8), (33, 2), (150, 37)] {
        let band0 = random_band(n, bw, (n * 389 + bw) as u64);
        let results = simd::on_each_backend(|| {
            let mut band = band0.clone();
            let bd = band.reduce_to_bidiagonal();
            bisection_singular_values(&bd.diag, &bd.superdiag)
        });
        let (_, s) = &results[0];
        for (be, v) in &results[1..] {
            spectra_close(s, v, 1e-12, &format!("BND2BD n={n} bw={bw} {be:?}"));
        }
    }
}
