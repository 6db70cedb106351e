//! Property tests of the kernel layer.
//!
//! Two families:
//!
//! * proptest checks of the Householder reflector (orthogonality,
//!   annihilation) and of the accumulated `Q` of a tile QR on random inputs;
//! * exhaustive blocked-vs-unblocked equivalence: every blocked compact-WY
//!   tile kernel must match its unblocked reference (`bidiag-oracles`) to
//!   `1e-13` (relative), the six factorizations also on inputs scaled to
//!   `1e±150`.
//!   The QR side — one fused chunk kernel under six tile kernels — and the
//!   three LQ applies — its right-sided mirror image — are swept over every
//!   pair of row and column counts around the vector steps (4 and 8), the
//!   chunk width (`IB = 8`) and the reference tile (64), with one and two
//!   ragged chunks of reflectors, and every SIMD backend
//!   of the host;
//!   further tests pin what the kernels must *not* read (NaNs in the
//!   unstored part of the reflector tile) and that the `T` blocks are the
//!   chunk-local `larft` of the unblocked vectors.  Both sides are
//!   also swept over square, tall, wide and ragged last-tile shapes for
//!   `nb in {1, 3, 5, 7, 8, 9, 15, 16, 17, 64, 65, 100}` — full-width
//!   reflector tiles from one reflector to more rows and columns than the
//!   left kernel's bounded panel and `W` strip hold at a time.

use bidiag_kernels::householder::larfg;
use bidiag_kernels::lq::{gelqt, tslqt, tsmlq, ttlqt, ttmlq, unmlq};
use bidiag_kernels::qr::{geqrt, tsmqr, tsqrt, ttmqr, ttqrt, unmqr};
use bidiag_kernels::TFactor;
use bidiag_matrix::checks::{
    lower_triangle_of, orthogonality_error, relative_error, upper_triangle_of,
};
use bidiag_matrix::gen::random_gaussian;
use bidiag_matrix::simd;
use bidiag_matrix::Matrix;
use bidiag_oracles::build_q;
use bidiag_oracles::lq::{
    gelqt_unblocked, tslqt_unblocked, tsmlq_unblocked, ttlqt_unblocked, ttmlq_unblocked,
    unmlq_unblocked,
};
use bidiag_oracles::qr::{
    geqrt_unblocked, tsmqr_unblocked, tsqrt_unblocked, ttmqr_unblocked, ttqrt_unblocked,
    unmqr_unblocked,
};
use proptest::prelude::*;

/// Tile sizes exercised by the per-tile-size blocked-vs-unblocked sweeps.
/// The chunk kernels take the rows of `C` in passes of two row groups (16
/// rows on 8 lanes, 8 on 4), then at most one leftover group, then the
/// leftover rows one at a time.  The sizes run every mix of the three on
/// both lane widths — on 8 lanes rows only (1..7), a group (8, 9, 15),
/// whole passes (16, 17, 64, 65) and a pass plus a group (24, 31); on 4
/// lanes a pass plus a group at 15 — around the `IB = 8` chunk boundaries,
/// and 65/100 rows and columns, which the left kernel takes in more than
/// one panel block and `W` strip.
const NBS: [usize; 14] = [1, 3, 5, 7, 8, 9, 15, 16, 17, 24, 31, 64, 65, 100];
/// Row / column counts of the QR- and LQ-side sweeps: around the `IB = 8`
/// chunk and the reference tile size, and through the same classes of
/// row-group passes as `NBS` — a pass plus a group and rows at 63 on 8
/// lanes, at 15 and 63 on 4.
const DIMS: [usize; 13] = [1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65];
/// Reflector-tile widths straddling one and two chunks.
const KS: [usize; 5] = [7, 8, 9, 15, 17];
/// Matching tolerance (relative) between blocked and unblocked results.
const TOL: f64 = 1e-13;

/// Blocked and unblocked factorizations generate reflectors in the same
/// serial order, but the blocked panel sweeps run through the SIMD layer
/// (fused multiply-adds, other summation orders), so the tau scalars agree
/// to a tight relative tolerance rather than bitwise: every entry within
/// `tol` of its counterpart.
fn taus_within(a: &[f64], b: &[f64], tol: f64) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() <= tol * x.abs().max(y.abs()).max(1.0))
}

/// [`taus_within`] at [`TOL`]: the bound for every tile up to the reference
/// size (64 rows and columns).
fn taus_close(a: &[f64], b: &[f64]) -> bool {
    taus_within(a, b, TOL)
}

/// Per-entry tau bound of the `NBS` sweeps: [`TOL`] up to the reference
/// tile, growing with the tile size above it (65 -> 1.02e-13, 100 ->
/// 1.56e-13).  Measured worst entry over all sweeps and backends: GELQT
/// 50x100, tau 48 of 50 — 9.6e-14 scalar, 7.6e-14 avx2, 1.32e-13 avx512
/// (normwise over the vector: 1.9e-14 / 1.5e-14 / 2.6e-14); every other tau
/// of every sweep is below 3e-14.
fn tau_tol(nb: usize) -> f64 {
    TOL * nb.max(64) as f64 / 64.0
}

/// Square, tall, wide and ragged (last-tile-like, one dimension much
/// smaller) shapes for a given tile size.
fn shapes(nb: usize) -> Vec<(usize, usize)> {
    let mut s = vec![(nb, nb)];
    s.push((nb + nb.div_ceil(2) + 1, nb)); // tall
    s.push((nb, nb + nb.div_ceil(2) + 1)); // wide
    if nb > 1 {
        s.push((nb.div_ceil(2), nb)); // ragged last tile row
        s.push((nb, nb.div_ceil(2))); // ragged last tile column
    }
    s
}

/// Run `f` under every SIMD backend the host supports, check each result
/// against `oracle` and the backends pairwise against each other at [`TOL`].
fn check_on_backends(what: &str, oracle: &[&Matrix], f: impl Fn() -> Vec<Matrix>) {
    let results = simd::on_each_backend(f);
    for (n, (be, got)) in results.iter().enumerate() {
        assert_eq!(got.len(), oracle.len());
        for (i, (want, got)) in oracle.iter().zip(got).enumerate() {
            assert!(
                relative_error(want, got) < TOL,
                "{what}: output {i} differs from the unblocked reference under {be:?}"
            );
        }
        for (other, theirs) in &results[..n] {
            for (i, (a, b)) in theirs.iter().zip(got).enumerate() {
                assert!(
                    relative_error(a, b) < TOL,
                    "{what}: {other:?} and {be:?} disagree on output {i}"
                );
            }
        }
    }
}

/// A vector of scalars as a one-column matrix, so taus go through the same
/// comparisons as tiles.
fn as_column(x: &[f64]) -> Matrix {
    Matrix::from_fn(x.len(), 1, |i, _| x[i])
}

#[test]
fn blocked_geqrt_and_unmqr_match_unblocked() {
    for &nb in &NBS {
        for &(m, n) in &shapes(nb) {
            let a0 = random_gaussian(m, n, (m * 1000 + n) as u64);
            let mut ab = a0.clone();
            let tf = geqrt(&mut ab);
            let mut au = a0.clone();
            let taus = geqrt_unblocked(&mut au);
            assert!(
                relative_error(&au, &ab) < TOL,
                "GEQRT tile differs for {m}x{n}"
            );
            assert!(
                taus_within(tf.taus(), &taus, tau_tol(nb)),
                "GEQRT taus differ for {m}x{n}"
            );

            // Apply to square-ish and skinny C operands.
            for nc in [1usize, nb, nb + 3] {
                let c0 = random_gaussian(m, nc, (m * 7 + nc) as u64);
                let mut cb = c0.clone();
                unmqr(&tf, &mut cb);
                let mut cu = c0.clone();
                unmqr_unblocked(&au, &taus, &mut cu);
                assert!(
                    relative_error(&cu, &cb) < TOL,
                    "UNMQR differs for {m}x{n}, C cols {nc},"
                );
            }
        }
    }
}

#[test]
fn blocked_tsqrt_and_tsmqr_match_unblocked() {
    for &nb in &NBS {
        // Second-tile row counts: full tile and ragged last tile.
        for m2 in [nb, nb.div_ceil(2)] {
            let r1_0 = upper_triangle_of(&random_gaussian(nb, nb, (nb * 31 + m2) as u64));
            let a2_0 = random_gaussian(m2, nb, (nb * 37 + m2) as u64);

            let mut r1b = r1_0.clone();
            let mut a2b = a2_0.clone();
            let tf = tsqrt(&mut r1b, &mut a2b);
            let mut r1u = r1_0.clone();
            let mut a2u = a2_0.clone();
            let taus = tsqrt_unblocked(&mut r1u, &mut a2u);
            assert!(
                relative_error(&r1u, &r1b) < TOL,
                "TSQRT R1, nb={nb} m2={m2}"
            );
            assert!(
                relative_error(&a2u, &a2b) < TOL,
                "TSQRT V2, nb={nb} m2={m2}"
            );
            assert!(taus_within(tf.taus(), &taus, tau_tol(nb)));

            for nc in [1usize, nb] {
                let c1_0 = random_gaussian(nb, nc, 3);
                let c2_0 = random_gaussian(m2, nc, 4);
                let mut b1 = c1_0.clone();
                let mut b2 = c2_0.clone();
                tsmqr(&mut b1, &mut b2, &a2b, &tf);
                let mut u1 = c1_0.clone();
                let mut u2 = c2_0.clone();
                tsmqr_unblocked(&mut u1, &mut u2, &a2u, &taus);
                assert!(
                    relative_error(&u1, &b1) < TOL && relative_error(&u2, &b2) < TOL,
                    "TSMQR differs, nb={nb} m2={m2} nc={nc}"
                );
            }
        }
    }
}

#[test]
fn blocked_ttqrt_and_ttmqr_match_unblocked() {
    for &nb in &NBS {
        for m2 in [nb, nb.div_ceil(2)] {
            let r1_0 = upper_triangle_of(&random_gaussian(nb, nb, (nb * 41 + m2) as u64));
            let r2_0 = upper_triangle_of(&random_gaussian(m2, nb, (nb * 43 + m2) as u64));

            let mut r1b = r1_0.clone();
            let mut r2b = r2_0.clone();
            let tf = ttqrt(&mut r1b, &mut r2b);
            let mut r1u = r1_0.clone();
            let mut r2u = r2_0.clone();
            let taus = ttqrt_unblocked(&mut r1u, &mut r2u);
            assert!(
                relative_error(&r1u, &r1b) < TOL,
                "TTQRT R1, nb={nb} m2={m2}"
            );
            assert!(
                relative_error(&r2u, &r2b) < TOL,
                "TTQRT V2, nb={nb} m2={m2}"
            );
            assert!(taus_within(tf.taus(), &taus, tau_tol(nb)));

            for nc in [1usize, nb] {
                let c1_0 = random_gaussian(nb, nc, 5);
                let c2_0 = random_gaussian(m2, nc, 6);
                let mut b1 = c1_0.clone();
                let mut b2 = c2_0.clone();
                ttmqr(&mut b1, &mut b2, &r2b, &tf);
                let mut u1 = c1_0.clone();
                let mut u2 = c2_0.clone();
                ttmqr_unblocked(&mut u1, &mut u2, &r2u, &taus);
                assert!(
                    relative_error(&u1, &b1) < TOL && relative_error(&u2, &b2) < TOL,
                    "TTMQR differs, nb={nb} m2={m2} nc={nc}"
                );
            }
        }
    }
}

#[test]
fn qr_side_kernels_match_unblocked_on_ragged_shapes() {
    // For every row count m: factor with k columns (k straddling IB), check
    // the TS/TT tiles and taus against the oracle; then apply all three
    // shapes to every column count n.
    for &m in &DIMS {
        for &k in &KS {
            let seed = (m * 100 + k) as u64;
            // UNMQR: the reflectors of an m x k tile (GEQRT itself is swept
            // over every shape pair in its own test).
            let a0 = random_gaussian(m, k, seed);
            let mut vu = a0.clone();
            let taus = geqrt_unblocked(&mut vu);
            // TSQRT / TTQRT: a k x k triangle on top of an m-row tile.
            let r1_0 = upper_triangle_of(&random_gaussian(k, k, seed + 1));
            let a2_0 = random_gaussian(m, k, seed + 2);
            let t2_0 = upper_triangle_of(&a2_0);
            let (mut s1u, mut s2u) = (r1_0.clone(), a2_0.clone());
            let ts_taus = tsqrt_unblocked(&mut s1u, &mut s2u);
            check_on_backends(
                &format!("TSQRT {m}x{k}"),
                &[&s1u, &s2u, &as_column(&ts_taus)],
                || {
                    let (mut r1, mut a2) = (r1_0.clone(), a2_0.clone());
                    let tf = tsqrt(&mut r1, &mut a2);
                    vec![r1, a2, as_column(tf.taus())]
                },
            );
            let (mut t1u, mut t2u) = (r1_0.clone(), t2_0.clone());
            let tt_taus = ttqrt_unblocked(&mut t1u, &mut t2u);
            check_on_backends(
                &format!("TTQRT {m}x{k}"),
                &[&t1u, &t2u, &as_column(&tt_taus)],
                || {
                    let (mut r1, mut r2) = (r1_0.clone(), t2_0.clone());
                    let tf = ttqrt(&mut r1, &mut r2);
                    vec![r1, r2, as_column(tf.taus())]
                },
            );

            let mut vb = a0.clone();
            let tf = geqrt(&mut vb);
            let (mut s1b, mut s2b) = (r1_0.clone(), a2_0.clone());
            let ts_tf = tsqrt(&mut s1b, &mut s2b);
            let (mut t1b, mut t2b) = (r1_0.clone(), t2_0.clone());
            let tt_tf = ttqrt(&mut t1b, &mut t2b);
            for &n in &DIMS {
                let c0 = random_gaussian(m, n, seed + 3);
                let h0 = random_gaussian(k, n, seed + 4);
                let what = format!("m={m} k={k} n={n}");
                let mut cu = c0.clone();
                unmqr_unblocked(&vu, &taus, &mut cu);
                check_on_backends(&format!("UNMQR {what}"), &[&cu], || {
                    let mut c = c0.clone();
                    unmqr(&tf, &mut c);
                    vec![c]
                });
                let (mut h, mut c) = (h0.clone(), c0.clone());
                tsmqr_unblocked(&mut h, &mut c, &s2u, &ts_taus);
                check_on_backends(&format!("TSMQR {what}"), &[&h, &c], || {
                    let (mut h, mut c) = (h0.clone(), c0.clone());
                    tsmqr(&mut h, &mut c, &s2b, &ts_tf);
                    vec![h, c]
                });
                let (mut h, mut c) = (h0.clone(), c0.clone());
                ttmqr_unblocked(&mut h, &mut c, &t2u, &tt_taus);
                check_on_backends(&format!("TTMQR {what}"), &[&h, &c], || {
                    let (mut h, mut c) = (h0.clone(), c0.clone());
                    ttmqr(&mut h, &mut c, &t2b, &tt_tf);
                    vec![h, c]
                });
            }
        }
    }
}

#[test]
fn lq_side_applies_match_unblocked_on_ragged_shapes() {
    // The mirror image of the QR-side sweep: for every column count n,
    // factor k rows (k straddling IB), then apply all three shapes from the
    // right to every row count r.
    for &n in &DIMS {
        for &k in &KS {
            let seed = (n * 100 + k) as u64;
            // UNMLQ: the reflectors of a k x n tile.
            let mut vu = random_gaussian(k, n, seed);
            let mut vb = vu.clone();
            let taus = gelqt_unblocked(&mut vu);
            let tf = gelqt(&mut vb);
            // TSLQT / TTLQT: a k x k triangle next to an n-column tile.
            let l1_0 = lower_triangle_of(&random_gaussian(k, k, seed + 1));
            let a2_0 = random_gaussian(k, n, seed + 2);
            let t2_0 = lower_triangle_of(&a2_0);
            let (mut s1u, mut s2u) = (l1_0.clone(), a2_0.clone());
            let ts_taus = tslqt_unblocked(&mut s1u, &mut s2u);
            let (mut s1b, mut s2b) = (l1_0.clone(), a2_0.clone());
            let ts_tf = tslqt(&mut s1b, &mut s2b);
            let (mut t1u, mut t2u) = (l1_0.clone(), t2_0.clone());
            let tt_taus = ttlqt_unblocked(&mut t1u, &mut t2u);
            let (mut t1b, mut t2b) = (l1_0.clone(), t2_0.clone());
            let tt_tf = ttlqt(&mut t1b, &mut t2b);

            for &r in &DIMS {
                let c0 = random_gaussian(r, n, seed + 3);
                let h0 = random_gaussian(r, k, seed + 4);
                let what = format!("n={n} k={k} r={r}");
                let mut cu = c0.clone();
                unmlq_unblocked(&vu, &taus, &mut cu);
                check_on_backends(&format!("UNMLQ {what}"), &[&cu], || {
                    let mut c = c0.clone();
                    unmlq(&tf, &mut c);
                    vec![c]
                });
                let (mut h, mut c) = (h0.clone(), c0.clone());
                tsmlq_unblocked(&mut h, &mut c, &s2u, &ts_taus);
                check_on_backends(&format!("TSMLQ {what}"), &[&h, &c], || {
                    let (mut h, mut c) = (h0.clone(), c0.clone());
                    tsmlq(&mut h, &mut c, &s2b, &ts_tf);
                    vec![h, c]
                });
                let (mut h, mut c) = (h0.clone(), c0.clone());
                ttmlq_unblocked(&mut h, &mut c, &t2u, &tt_taus);
                check_on_backends(&format!("TTMLQ {what}"), &[&h, &c], || {
                    let (mut h, mut c) = (h0.clone(), c0.clone());
                    ttmlq(&mut h, &mut c, &t2b, &tt_tf);
                    vec![h, c]
                });
            }
        }
    }
}

#[test]
fn geqrt_matches_unblocked_on_every_shape_pair() {
    for &m in &DIMS {
        for &n in &DIMS {
            let a0 = random_gaussian(m, n, (m * 1000 + n) as u64);
            let mut au = a0.clone();
            let taus = geqrt_unblocked(&mut au);
            check_on_backends(&format!("GEQRT {m}x{n}"), &[&au, &as_column(&taus)], || {
                let mut a = a0.clone();
                let tf = geqrt(&mut a);
                vec![a, as_column(tf.taus())]
            });
        }
    }
}

/// Check a factorization of the tiles `inputs` against its unblocked
/// reference under every backend: the factored tiles and the taus.
fn check_factorization<const N: usize>(
    what: &str,
    inputs: [&Matrix; N],
    unblocked: impl Fn(&mut [Matrix; N]) -> Vec<f64>,
    blocked: impl Fn(&mut [Matrix; N]) -> TFactor,
) {
    let mut want = inputs.map(Matrix::clone);
    let taus = as_column(&unblocked(&mut want));
    let oracle: Vec<&Matrix> = want.iter().chain([&taus]).collect();
    check_on_backends(what, &oracle, || {
        let mut got = inputs.map(Matrix::clone);
        let tf = blocked(&mut got);
        got.into_iter().chain([as_column(tf.taus())]).collect()
    });
}

#[test]
fn factorizations_survive_extreme_scales() {
    // The panel takes reflector norms from a plain sum of squares and falls
    // back to the scaled norm when that leaves the safe range.
    for scale in [1e150, 1e-150] {
        let scaled = |m, n, seed| {
            let mut a = random_gaussian(m, n, seed);
            a.scale(scale);
            a
        };
        let what = |kernel: &str| format!("{kernel} at scale {scale:e}");
        // One tile, and a triangle on top of (QR) or left of (LQ) a full
        // tile or a triangle.
        let a = scaled(12, 9, 5);
        let r1 = upper_triangle_of(&scaled(9, 9, 6));
        let a2 = scaled(12, 9, 7);
        let r2 = upper_triangle_of(&a2);
        let (at, l1, b2, l2) = (
            a.transpose(),
            r1.transpose(),
            a2.transpose(),
            r2.transpose(),
        );

        check_factorization(
            &what("GEQRT"),
            [&a],
            |[a]| geqrt_unblocked(a),
            |[a]| geqrt(a),
        );
        check_factorization(
            &what("TSQRT"),
            [&r1, &a2],
            |[r, a]| tsqrt_unblocked(r, a),
            |[r, a]| tsqrt(r, a),
        );
        check_factorization(
            &what("TTQRT"),
            [&r1, &r2],
            |[r, a]| ttqrt_unblocked(r, a),
            |[r, a]| ttqrt(r, a),
        );
        check_factorization(
            &what("GELQT"),
            [&at],
            |[a]| gelqt_unblocked(a),
            |[a]| gelqt(a),
        );
        check_factorization(
            &what("TSLQT"),
            [&l1, &b2],
            |[l, a]| tslqt_unblocked(l, a),
            |[l, a]| tslqt(l, a),
        );
        check_factorization(
            &what("TTLQT"),
            [&l1, &l2],
            |[l, a]| ttlqt_unblocked(l, a),
            |[l, a]| ttlqt(l, a),
        );
    }
}

#[test]
fn never_read_parts_of_the_reflector_tile_may_hold_nan() {
    // Clean and poisoned runs are compared bitwise, so each backend is
    // forced for the whole comparison (sibling tests flip the process-wide
    // backend while they run).
    for be in simd::available_backends() {
        simd::with_forced_backend(be, nan_poisoned_tiles_give_identical_output);
    }
}

fn nan_poisoned_tiles_give_identical_output() {
    // The strictly lower part of a TTMQR `v2` tile holds an earlier GEQRT's
    // vectors: they do not belong to the reflectors, so NaNs there must not
    // reach the output.  UNMQR reads no tile at all: its reflectors travel
    // in the GEQRT factor, so a tile poisoned whole after the factorization
    // leaves its output alone.  Likewise for the transposed storage of the
    // LQ side.
    for &(m, k) in &[
        (5usize, 7usize),
        (8, 8),
        (17, 9),
        (64, 64),
        (65, 17),
        (9, 15),
    ] {
        let kk = m.min(k);
        let ns = [1usize, 4, 7, 64];
        let mut v = random_gaussian(m, k, 7);
        let tf = geqrt(&mut v);
        let cleans: Vec<Matrix> = ns
            .iter()
            .map(|&n| {
                let mut c = random_gaussian(m, n, 10);
                unmqr(&tf, &mut c);
                c
            })
            .collect();
        v.data_mut().fill(f64::NAN);
        let mut r1 = upper_triangle_of(&random_gaussian(k, k, 8));
        let mut v2 = upper_triangle_of(&random_gaussian(m, k, 9));
        let tt_tf = ttqrt(&mut r1, &mut v2);
        let poisoned_v2 = Matrix::from_fn(m, k, |i, j| if i > j { f64::NAN } else { v2.get(i, j) });
        for (&n, clean) in ns.iter().zip(&cleans) {
            let c0 = random_gaussian(m, n, 10);
            let h0 = random_gaussian(k, n, 11);
            let mut c = c0.clone();
            unmqr(&tf, &mut c);
            assert!(c.data().iter().all(|x| x.is_finite()));
            assert_eq!(
                &c, clean,
                "UNMQR read its tile, {m}x{k} ({kk} reflectors) n={n}"
            );

            let (mut h_clean, mut c_clean) = (h0.clone(), c0.clone());
            ttmqr(&mut h_clean, &mut c_clean, &v2, &tt_tf);
            let (mut h, mut c) = (h0.clone(), c0.clone());
            ttmqr(&mut h, &mut c, &poisoned_v2, &tt_tf);
            assert!(h.data().iter().chain(c.data()).all(|x| x.is_finite()));
            assert!(
                h == h_clean && c == c_clean,
                "TTMQR read below the triangle, {m}x{k} n={n}"
            );
        }

        // The LQ side stores the transposes: the strictly upper part of a
        // TTMLQ `v2` tile holds an earlier GELQT's vectors, and UNMLQ reads
        // its reflectors from the GELQT factor.
        let n = m;
        let rs = [1usize, 4, 7, 64];
        let mut v = random_gaussian(k, n, 12);
        let tf = gelqt(&mut v);
        let cleans: Vec<Matrix> = rs
            .iter()
            .map(|&r| {
                let mut c = random_gaussian(r, n, 15);
                unmlq(&tf, &mut c);
                c
            })
            .collect();
        v.data_mut().fill(f64::NAN);
        let mut l1 = lower_triangle_of(&random_gaussian(k, k, 13));
        let mut v2 = lower_triangle_of(&random_gaussian(k, n, 14));
        let tt_tf = ttlqt(&mut l1, &mut v2);
        let poisoned_v2 = Matrix::from_fn(k, n, |i, j| if i < j { f64::NAN } else { v2.get(i, j) });
        for (&r, clean) in rs.iter().zip(&cleans) {
            let c0 = random_gaussian(r, n, 15);
            let h0 = random_gaussian(r, k, 16);
            let mut c = c0.clone();
            unmlq(&tf, &mut c);
            assert!(c.data().iter().all(|x| x.is_finite()));
            assert_eq!(&c, clean, "UNMLQ read its tile, {k}x{n} r={r}");

            let (mut h_clean, mut c_clean) = (h0.clone(), c0.clone());
            ttmlq(&mut h_clean, &mut c_clean, &v2, &tt_tf);
            let (mut h, mut c) = (h0.clone(), c0.clone());
            ttmlq(&mut h, &mut c, &poisoned_v2, &tt_tf);
            assert!(h.data().iter().chain(c.data()).all(|x| x.is_finite()));
            assert!(
                h == h_clean && c == c_clean,
                "TTMLQ read above the triangle, {k}x{n} r={r}"
            );
        }
    }
}

#[test]
fn factorizations_neither_read_nor_write_outside_their_regions() {
    // `TileOp::accesses` gives a TS/TT factorization the pivot tile's
    // triangle only — the other side holds an earlier GEQRT's / GELQT's
    // reflectors, whose region key the factorization must leave alone —
    // and TTQRT / TTLQT the triangle of the second tile only.  NaNs there
    // must neither reach the outputs nor lose a bit; GEQRT / GELQT own their
    // whole tile.  Bitwise, so each backend is forced for the comparison.
    for be in simd::available_backends() {
        simd::with_forced_backend(be, factorizations_keep_to_their_regions);
    }
}

/// A NaN with a payload, so that a kernel that rewrote one is caught.
const POISON: u64 = 0x7ff8_dead_beef_0001;

/// Factor `tiles` clean, then with the entries `poison(t, i, j)` of tile `t`
/// set to [`POISON`]: the factors and every other entry agree bitwise, and
/// the poisoned entries keep their bits.
fn check_regions<const N: usize>(
    what: &str,
    tiles: [Matrix; N],
    poison: impl Fn(usize, usize, usize) -> bool,
    factor: impl Fn(&mut [Matrix; N]) -> TFactor,
) {
    let mut clean = tiles.clone();
    let tf_clean = factor(&mut clean);
    let mut dirty = tiles;
    for (t, x) in dirty.iter_mut().enumerate() {
        *x = Matrix::from_fn(x.rows(), x.cols(), |i, j| {
            if poison(t, i, j) {
                f64::from_bits(POISON)
            } else {
                x.get(i, j)
            }
        });
    }
    let tf = factor(&mut dirty);
    assert_eq!(format!("{tf:?}"), format!("{tf_clean:?}"), "{what}: factor");
    for (t, (x, y)) in dirty.iter().zip(&clean).enumerate() {
        for j in 0..x.cols() {
            for i in 0..x.rows() {
                let want = if poison(t, i, j) {
                    POISON
                } else {
                    y.get(i, j).to_bits()
                };
                assert_eq!(x.get(i, j).to_bits(), want, "{what}: tile {t} ({i}, {j})");
            }
        }
    }
}

fn factorizations_keep_to_their_regions() {
    for nb in [24usize, 31, 64, 65] {
        // Square second tiles, and ragged ones (a last tile row or column).
        for k2 in [nb, nb.div_ceil(2)] {
            let what = |kernel: &str| format!("{kernel} nb={nb} second tile {k2}");
            let seed = (nb * 7 + k2) as u64;
            let (r1, l1) = (
                random_gaussian(nb, nb, seed),
                random_gaussian(nb, nb, seed + 1),
            );
            let (a2, b2) = (
                random_gaussian(k2, nb, seed + 2),
                random_gaussian(nb, k2, seed + 3),
            );
            let below = |_: usize, i: usize, j: usize| i > j;
            let above = |_: usize, i: usize, j: usize| i < j;
            let nothing = |_: usize, _: usize, _: usize| false;
            check_regions(&what("GEQRT"), [a2.clone()], nothing, |[a]| geqrt(a));
            check_regions(&what("GELQT"), [b2.clone()], nothing, |[a]| gelqt(a));
            let pivot_below = |t: usize, i: usize, j: usize| t == 0 && i > j;
            let pivot_above = |t: usize, i: usize, j: usize| t == 0 && i < j;
            check_regions(
                &what("TSQRT"),
                [r1.clone(), a2.clone()],
                pivot_below,
                |[r, a]| tsqrt(r, a),
            );
            check_regions(&what("TTQRT"), [r1.clone(), a2], below, |[r, a]| {
                ttqrt(r, a)
            });
            check_regions(
                &what("TSLQT"),
                [l1.clone(), b2.clone()],
                pivot_above,
                |[l, a]| tslqt(l, a),
            );
            check_regions(&what("TTLQT"), [l1, b2], above, |[l, a]| ttlqt(l, a));
        }
    }
}

/// The `ib x ib` `larft` factor of reflectors `p..p+ib` alone, from their
/// explicit vectors (columns of `v`) and taus.
fn chunk_larft(v: &Matrix, taus: &[f64], p: usize, ib: usize) -> Matrix {
    let mut t = Matrix::zeros(ib, ib);
    for kk in 0..ib {
        let tau = taus[p + kk];
        for l in 0..kk {
            let mut s = 0.0;
            for c in l..kk {
                let vdot: f64 = (0..v.rows())
                    .map(|i| v.get(i, p + c) * v.get(i, p + kk))
                    .sum();
                s += t.get(l, c) * vdot;
            }
            t.set(l, kk, -tau * s);
        }
        t.set(kk, kk, tau);
    }
    t
}

#[test]
fn t_blocks_are_the_chunk_local_larft_of_the_unblocked_vectors() {
    let check = |what: &str, tf: &TFactor, v: &Matrix, taus: &[f64]| {
        assert!(taus_close(tf.taus(), taus), "{what}: taus");
        let mut p = 0;
        while p < taus.len() {
            let tb = tf.t_block(p);
            let want = chunk_larft(v, taus, p, tb.cols());
            let got = Matrix::from_fn(tb.rows(), tb.cols(), |i, j| tb.get(i, j));
            assert!(relative_error(&want, &got) < TOL, "{what}: T block at {p}");
            // Whatever the chunk width: the next block starts where this
            // one ends.
            p += tb.cols();
        }
    };
    for &(m, n) in &[
        (7usize, 7usize),
        (9, 8),
        (17, 17),
        (64, 64),
        (65, 15),
        (15, 65),
        (3, 9),
    ] {
        // GEQRT: vectors are the unit-lower trapezoid of the factored tile.
        let a0 = random_gaussian(m, n, (m * 10 + n) as u64);
        let mut ab = a0.clone();
        let tf = geqrt(&mut ab);
        let mut au = a0.clone();
        let taus = geqrt_unblocked(&mut au);
        assert!(
            relative_error(&au, &ab) < TOL,
            "GEQRT {m}x{n}: R and vectors"
        );
        let v = Matrix::from_fn(m, taus.len(), |i, j| match i.cmp(&j) {
            std::cmp::Ordering::Less => 0.0,
            std::cmp::Ordering::Equal => 1.0,
            std::cmp::Ordering::Greater => au.get(i, j),
        });
        check(&format!("GEQRT {m}x{n}"), &tf, &v, &taus);

        // TTQRT: e_k on top of the upper triangle of the second tile.
        let r1_0 = upper_triangle_of(&random_gaussian(n, n, 3));
        let r2_0 = upper_triangle_of(&random_gaussian(m, n, 4));
        let (mut r1b, mut r2b) = (r1_0.clone(), r2_0.clone());
        let tf = ttqrt(&mut r1b, &mut r2b);
        let (mut r1u, mut r2u) = (r1_0.clone(), r2_0.clone());
        let taus = ttqrt_unblocked(&mut r1u, &mut r2u);
        assert!(
            relative_error(&r1u, &r1b) < TOL && relative_error(&r2u, &r2b) < TOL,
            "TTQRT {m}x{n}: R and vectors"
        );
        let v = Matrix::from_fn(n + m, n, |i, j| {
            if i < n {
                if i == j {
                    1.0
                } else {
                    0.0
                }
            } else if i - n <= j {
                r2u.get(i - n, j)
            } else {
                0.0
            }
        });
        check(&format!("TTQRT {m}x{n}"), &tf, &v, &taus);
    }
}

#[test]
fn blocked_lq_kernels_match_unblocked() {
    for &nb in &NBS {
        // GELQT / UNMLQ over the shape sweep.
        for &(m, n) in &shapes(nb) {
            let a0 = random_gaussian(m, n, (m * 53 + n) as u64);
            let mut ab = a0.clone();
            let tf = gelqt(&mut ab);
            let mut au = a0.clone();
            let taus = gelqt_unblocked(&mut au);
            assert!(relative_error(&au, &ab) < TOL, "GELQT tile, {m}x{n}");
            assert!(taus_within(tf.taus(), &taus, tau_tol(nb)));

            for rc in [1usize, nb] {
                let c0 = random_gaussian(rc, n, (rc * 3 + n) as u64);
                let mut cb = c0.clone();
                unmlq(&tf, &mut cb);
                let mut cu = c0.clone();
                unmlq_unblocked(&au, &taus, &mut cu);
                assert!(
                    relative_error(&cu, &cb) < TOL,
                    "UNMLQ differs, {m}x{n} rows {rc}"
                );
            }
        }

        // TSLQT / TSMLQ and TTLQT / TTMLQ with ragged second-tile columns.
        for n2 in [nb, nb.div_ceil(2)] {
            let l1_0 = lower_triangle_of(&random_gaussian(nb, nb, (nb * 59 + n2) as u64));
            let a2_0 = random_gaussian(nb, n2, (nb * 61 + n2) as u64);
            let mut l1b = l1_0.clone();
            let mut a2b = a2_0.clone();
            let tf = tslqt(&mut l1b, &mut a2b);
            let mut l1u = l1_0.clone();
            let mut a2u = a2_0.clone();
            let taus = tslqt_unblocked(&mut l1u, &mut a2u);
            assert!(
                relative_error(&l1u, &l1b) < TOL,
                "TSLQT L1, nb={nb} n2={n2}"
            );
            assert!(
                relative_error(&a2u, &a2b) < TOL,
                "TSLQT V2, nb={nb} n2={n2}"
            );
            assert!(taus_within(tf.taus(), &taus, tau_tol(nb)));

            for rc in [1usize, nb] {
                let c1_0 = random_gaussian(rc, nb, 7);
                let c2_0 = random_gaussian(rc, n2, 8);
                let mut b1 = c1_0.clone();
                let mut b2 = c2_0.clone();
                tsmlq(&mut b1, &mut b2, &a2b, &tf);
                let mut u1 = c1_0.clone();
                let mut u2 = c2_0.clone();
                tsmlq_unblocked(&mut u1, &mut u2, &a2u, &taus);
                assert!(
                    relative_error(&u1, &b1) < TOL && relative_error(&u2, &b2) < TOL,
                    "TSMLQ differs, nb={nb} n2={n2} rc={rc}"
                );
            }

            let t2_0 = lower_triangle_of(&random_gaussian(nb, n2, (nb * 67 + n2) as u64));
            let mut t1b = l1_0.clone();
            let mut t2b = t2_0.clone();
            let tf = ttlqt(&mut t1b, &mut t2b);
            let mut t1u = l1_0.clone();
            let mut t2u = t2_0.clone();
            let taus = ttlqt_unblocked(&mut t1u, &mut t2u);
            assert!(
                relative_error(&t1u, &t1b) < TOL,
                "TTLQT L1, nb={nb} n2={n2}"
            );
            assert!(
                relative_error(&t2u, &t2b) < TOL,
                "TTLQT V2, nb={nb} n2={n2}"
            );
            assert!(taus_within(tf.taus(), &taus, tau_tol(nb)));

            for rc in [1usize, nb] {
                let c1_0 = random_gaussian(rc, nb, 9);
                let c2_0 = random_gaussian(rc, n2, 10);
                let mut b1 = c1_0.clone();
                let mut b2 = c2_0.clone();
                ttmlq(&mut b1, &mut b2, &t2b, &tf);
                let mut u1 = c1_0.clone();
                let mut u2 = c2_0.clone();
                ttmlq_unblocked(&mut u1, &mut u2, &t2u, &taus);
                assert!(
                    relative_error(&u1, &b1) < TOL && relative_error(&u2, &b2) < TOL,
                    "TTMLQ differs, nb={nb} n2={n2} rc={rc}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The explicit reflector `H = I - tau * v * v^T` built from `larfg` is
    /// orthogonal (`||H^T H - I|| <= tol`) and annihilates the tail of the
    /// vector it was generated from.
    #[test]
    fn householder_reflector_is_orthogonal(n in 2usize..24, seed in 0u64..1000) {
        let g = random_gaussian(n, 1, seed);
        let alpha = g.get(0, 0);
        let mut tail: Vec<f64> = (1..n).map(|i| g.get(i, 0)).collect();
        let r = larfg(alpha, &mut tail);

        // v = (1, tail), H = I - tau * v * v^T.
        let mut v = vec![1.0];
        v.extend_from_slice(&tail);
        let h = Matrix::from_fn(n, n, |i, j| {
            (if i == j { 1.0 } else { 0.0 }) - r.tau * v[i] * v[j]
        });
        prop_assert!(orthogonality_error(&h) < 1e-13, "||H^T H - I|| too large");

        // H * (alpha, x_old) = (beta, 0, ..., 0).
        let hx = h.matmul(&g);
        prop_assert!((hx.get(0, 0) - r.beta).abs() < 1e-12 * (1.0 + r.beta.abs()));
        for i in 1..n {
            prop_assert!(hx.get(i, 0).abs() < 1e-12, "tail entry {} not annihilated", i);
        }
    }

    /// The accumulated Q of a full blocked tile QR factorization is
    /// orthogonal and reproduces the input.
    #[test]
    fn accumulated_q_is_orthogonal(m in 1usize..24, n in 1usize..24, seed in 0u64..1000) {
        let a0 = random_gaussian(m, n, seed);
        let mut a = a0.clone();
        let tf = geqrt(&mut a);
        let q = build_q(&a, tf.taus());
        prop_assert!(orthogonality_error(&q) < 1e-12, "||Q^T Q - I|| too large");
        let r = upper_triangle_of(&a);
        prop_assert!(relative_error(&a0, &q.matmul(&r)) < 1e-12, "A != QR");
    }

    /// Blocked and unblocked GEQRT and UNMQR agree on random shapes.
    #[test]
    fn blocked_kernels_match_on_random_shapes(m in 1usize..20, n in 1usize..20, seed in 0u64..500) {
        let a0 = random_gaussian(m, n, seed);
        let mut ab = a0.clone();
        let tf = geqrt(&mut ab);
        let mut au = a0.clone();
        let taus = geqrt_unblocked(&mut au);
        prop_assert!(relative_error(&au, &ab) < 1e-13);
        prop_assert!(taus_close(tf.taus(), &taus));

        let c0 = random_gaussian(m, n, seed + 1);
        let (mut cb, mut cu) = (c0.clone(), c0);
        unmqr(&tf, &mut cb);
        unmqr_unblocked(&au, &taus, &mut cu);
        prop_assert!(relative_error(&cu, &cb) < 1e-12);
    }
}
