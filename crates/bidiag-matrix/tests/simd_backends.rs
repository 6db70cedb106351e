//! Forced-backend equivalence matrix for the SIMD layer.
//!
//! Every kernel routed through `bidiag_matrix::simd` must produce the same
//! answer under every backend of the host, exercised through the *real*
//! dispatch path: [`simd::with_forced_backend`] pins the process-global
//! backend, then [`simd::dispatch`] — under the public entry points
//! (`microkernel_8x4`, `gemm_nn_scratch`, ...) and the kernels below —
//! consults [`simd::backend`] exactly as production code does.
//!
//! Tolerances follow the module's numerical contract: the scalar backend
//! is unfused, the vector ones fuse multiply-adds, so they agree to ~1 ulp
//! per operation — a flat `1e-15` for element-wise kernels, `1e-15 *
//! sqrt(n)` for length-`n` accumulations, and a backward-style normwise
//! `1e-15 * sqrt(k)` for GEMM.
//!
//! Each test splits [`simd::on_each_backend`]'s results into the scalar one
//! and the rest.  On a host without AVX2+FMA there is no second backend to
//! compare with (the `BIDIAG_SIMD=scalar` CI leg still runs everything);
//! under AVX-512 the GEMM microkernel runs its AVX2 instantiation, so that
//! backend pins the opt-out.  The `axpy` / `dot` bodies and the lanes'
//! masked `load_head` / `store_head`, which only other crates' kernels use,
//! run as kernels of this file on the lane of each backend, and so do the
//! bounds checks that make the lanes' memory methods safe.

use bidiag_matrix::gemm::{gemm_nn_scratch, gemm_tn_scratch, GemmScratch};
use bidiag_matrix::gen::random_gaussian;
use bidiag_matrix::simd::{self, LaneKernel, SimdBackend, SimdLane};
use bidiag_matrix::Matrix;
use proptest::prelude::*;

/// The ISSUE-mandated size ladder: degenerate (1), below/at/above every
/// vector step (3..9), straddling the 4-lane and unroll boundaries
/// (15/16/17), a cache-friendly block (64) and a ragged prime (97).
const SIZES: [usize; 13] = [1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 64, 97];

/// Deterministic test vector (same LCG as the simd unit tests).
fn test_vec(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
        .collect()
}

fn acc_tol(n: usize) -> f64 {
    1e-15 * (n as f64).sqrt().max(1.0)
}

/// `y + a x` and `x . z` through the lane-generic bodies other crates'
/// kernels are built from.
struct Primitives<'a> {
    y: &'a [f64],
    a: f64,
    x: &'a [f64],
    z: &'a [f64],
}

impl LaneKernel for Primitives<'_> {
    type Output = (Vec<f64>, f64);

    #[inline(always)]
    fn run<S: SimdLane>(self, s: S) -> Self::Output {
        let Primitives { y, a, x, z } = self;
        assert!(x.len() >= y.len() && z.len() >= x.len());
        let mut y = y.to_vec();
        simd::axpy_body(s, &mut y, a, x);
        (y, simd::dot_body(s, x, z))
    }
}

#[test]
fn primitive_kernels_agree_across_backends_on_size_ladder() {
    for &n in &SIZES {
        let x0 = test_vec(n, 1 + n as u64);
        let x1 = test_vec(n, 2 + n as u64);
        let y0 = test_vec(n, 5 + n as u64);

        let results = simd::on_each_backend(|| {
            simd::dispatch(Primitives {
                y: &y0,
                a: 0.37,
                x: &x0,
                z: &x1,
            })
        });
        let (_, s) = &results[0];
        for (be, v) in &results[1..] {
            for i in 0..n {
                assert!(
                    (s.0[i] - v.0[i]).abs() <= 1e-15 * s.0[i].abs().max(1.0),
                    "{be:?} axpy n={n} i={i}: {} vs {}",
                    s.0[i],
                    v.0[i]
                );
            }
            assert!(
                (s.1 - v.1).abs() <= acc_tol(n) * s.1.abs().max(1.0),
                "{be:?} dot n={n}: {} vs {}",
                s.1,
                v.1
            );
        }
    }
}

#[test]
fn microkernel_agrees_across_backends_on_size_ladder() {
    for &kc in &SIZES {
        let ap = test_vec(kc * simd::MR, 11 + kc as u64);
        let bp = test_vec(kc * simd::NR, 13 + kc as u64);
        let results = simd::on_each_backend(|| simd::microkernel_8x4(kc, &ap, &bp));
        let (_, s) = &results[0];
        for (be, v) in &results[1..] {
            for j in 0..simd::NR {
                for i in 0..simd::MR {
                    assert!(
                        (s[j][i] - v[j][i]).abs() <= acc_tol(kc) * s[j][i].abs().max(1.0),
                        "{be:?} microkernel kc={kc} i={i} j={j}: {} vs {}",
                        s[j][i],
                        v[j][i]
                    );
                }
            }
        }
    }
}

/// `load_head` / `store_head` of lane `S` for every live-lane count `k`, at
/// a few offsets: on a slice that **ends** at `i + k` (a lane that touched
/// the element after it would trip the scalar lanes' bounds check, or
/// AddressSanitizer under the vector ones) the load returns the `k` values
/// and zeros; the store into a NaN-poisoned buffer — one that ends at
/// `i + k`, one that goes on — changes exactly those `k` slots.
#[inline(always)]
fn check_heads<S: SimdLane>(s: S) {
    for k in 1..=S::LANES {
        for i in [0usize, 1, 5] {
            let src = test_vec(i + k, 3 + k as u64);
            let mut lanes = vec![f64::NAN; S::LANES];
            s.store(&mut lanes, 0, s.load_head(&src, i, k));
            assert_eq!(lanes[..k], src[i..], "lanes={} k={k} i={i}", S::LANES);
            assert!(lanes[k..].iter().all(|x| x.to_bits() == 0), "k={k} i={i}");

            let full = test_vec(S::LANES, 9 + k as u64);
            for pad in [0, S::LANES + 1] {
                let mut dst = vec![f64::NAN; i + k + pad];
                s.store_head(&mut dst, i, k, s.load(&full, 0));
                assert_eq!(dst[i..i + k], full[..k], "lanes={} k={k} i={i}", S::LANES);
                let rest = dst[..i].iter().chain(&dst[i + k..]);
                assert!(rest.clone().all(|x| x.is_nan()), "k={k} i={i} pad={pad}");
            }
        }
    }
}

/// [`check_heads`] on the lane of the backend in force.
struct Heads;

impl LaneKernel for Heads {
    type Output = ();

    #[inline(always)]
    fn run<S: SimdLane>(self, s: S) {
        check_heads(s)
    }
}

#[test]
fn masked_heads_touch_exactly_their_lanes_on_every_backend() {
    simd::on_each_backend(|| simd::dispatch(Heads));
}

/// The bounds the memory methods of lane `S` check, each one value (or one
/// lane) past its edge: `load` / `store` one value short, `load_head` /
/// `store_head` with no lane, with one lane more than the register and one
/// value short, `transpose` one vector short on either side.  Each must
/// panic; the exact fits beside them must not.
#[inline(always)]
fn check_bounds<S: SimdLane>(s: S) {
    let n = S::LANES;
    let panics = |what: String, f: &mut dyn FnMut()| {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        assert!(caught.is_err(), "{what} on {n} lanes did not panic");
    };
    let p = test_vec(2 * n + 1, 17);
    let mut q = p.clone();
    let len = p.len();
    s.store(&mut q, len - n, s.load(&p, len - n));
    panics("load".into(), &mut || {
        let _ = s.load(&p, len - n + 1);
    });
    panics("store".into(), &mut || {
        s.store(&mut q, len - n + 1, s.zero())
    });
    let mut bad = vec![(0, 0), (0, n + 1)];
    for k in 1..=n {
        s.store_head(&mut q, len - k, k, s.load_head(&p, len - k, k));
        bad.push((len + 1 - k, k));
    }
    for (i, k) in bad {
        let at = format!("i = {i}, k = {k}");
        panics(format!("load_head {at}"), &mut || {
            let _ = s.load_head(&p, i, k);
        });
        panics(format!("store_head {at}"), &mut || {
            s.store_head(&mut q, i, k, s.zero())
        });
    }
    assert_eq!(q, p, "lanes={n}: the exact fits move the values they read");
    let ld = n + 1;
    let block = (n - 1) * ld + n;
    let (src, mut dst) = (test_vec(block, 19), vec![0.0; block]);
    s.transpose(&src, ld, &mut dst, ld);
    panics("transpose of a short source".into(), &mut || {
        s.transpose(&src[..block - 1], ld, &mut dst, ld)
    });
    panics("transpose into a short destination".into(), &mut || {
        s.transpose(&src, ld, &mut dst[..block - 1], ld)
    });
}

/// [`check_bounds`] on the lane of the backend in force.
struct Bounds;

impl LaneKernel for Bounds {
    type Output = ();

    #[inline(always)]
    fn run<S: SimdLane>(self, s: S) {
        check_bounds(s)
    }
}

#[test]
fn lane_memory_methods_panic_out_of_bounds_on_every_backend() {
    simd::on_each_backend(|| simd::dispatch(Bounds));
}

/// Backward-style normwise gap between two GEMM results sharing the same
/// operands: `||s - v|| / max(||s||, ||A|| ||B||)`.
fn gemm_gap(s: &Matrix, v: &Matrix, a: &Matrix, b: &Matrix) -> f64 {
    s.sub(v).norm_fro()
        / s.norm_fro()
            .max(a.norm_fro() * b.norm_fro())
            .max(f64::EPSILON)
}

#[test]
fn gemm_dispatch_agrees_across_backends_on_size_ladder() {
    // The full m x n x k cross-product is 13^3 GEMMs per variant; thin it to
    // the diagonal-plus-extremes mix that still straddles every microkernel
    // and cache-block boundary in each dimension.
    for &m in &SIZES {
        for &n in &[1usize, 8, 17, 64, 97] {
            for &k in &[1usize, 4, 31, 97] {
                let a = random_gaussian(m, k, (m * 211 + k) as u64);
                let b = random_gaussian(k, n, (n * 223 + k) as u64);
                let c0 = random_gaussian(m, n, (m * 227 + n) as u64);
                let results = simd::on_each_backend(|| {
                    let mut c = c0.clone();
                    let mut scratch = GemmScratch::new();
                    gemm_nn_scratch(
                        &mut c.as_view_mut(),
                        1.25,
                        a.as_view(),
                        b.as_view(),
                        &mut scratch,
                    );
                    c
                });
                let (_, s) = &results[0];
                for (be, v) in &results[1..] {
                    assert!(
                        gemm_gap(s, v, &a, &b) <= acc_tol(k.max(1)),
                        "{be:?} gemm_nn {m}x{n}x{k}: gap {}",
                        gemm_gap(s, v, &a, &b)
                    );
                }
            }
        }
    }
}

#[test]
fn gemm_tn_agrees_across_backends() {
    for &(m, n, k) in &[
        (31usize, 17usize, 97usize),
        (97, 64, 31),
        (8, 8, 8),
        (5, 3, 7),
    ] {
        let at = random_gaussian(k, m, (m * 229 + k) as u64); // op(A) = A^T
        let b = random_gaussian(k, n, (n * 241 + k) as u64);
        let c0 = random_gaussian(m, n, (m * 251 + n) as u64);

        let results = simd::on_each_backend(|| {
            let mut c = c0.clone();
            let mut scratch = GemmScratch::new();
            gemm_tn_scratch(
                &mut c.as_view_mut(),
                -0.5,
                at.as_view(),
                b.as_view(),
                &mut scratch,
            );
            c
        });
        let (_, s) = &results[0];
        for (be, v) in &results[1..] {
            assert!(
                gemm_gap(s, v, &at, &b) <= acc_tol(k),
                "{be:?} gemm_tn {m}x{n}x{k}"
            );
        }
    }
}

#[test]
fn gemm_on_ld_subviews_agrees_across_backends() {
    // Windows of a larger buffer (leading dimension > rows): the GEMM's
    // pack routines and the vector microkernels must agree on strided
    // inputs exactly as on contiguous ones.
    let big_a = random_gaussian(120, 120, 17);
    let big_b = random_gaussian(120, 120, 18);
    for &(m, n, k, ro, co) in &[
        (97usize, 33usize, 41usize, 11usize, 5usize),
        (64, 64, 64, 1, 19),
        (9, 17, 97, 23, 0),
    ] {
        let c0 = random_gaussian(m, n, (ro * 257 + co) as u64);
        let a = big_a.block(ro, co, m, k);
        let b = big_b.block(co, ro, k, n);
        let results = simd::on_each_backend(|| {
            let mut scratch = GemmScratch::new();
            let mut c = c0.clone();
            gemm_nn_scratch(
                &mut c.as_view_mut(),
                1.0,
                big_a.as_view().submatrix(ro, co, m, k),
                big_b.as_view().submatrix(co, ro, k, n),
                &mut scratch,
            );
            c
        });
        let (_, s) = &results[0];
        for (be, v) in &results[1..] {
            assert!(
                gemm_gap(s, v, &a, &b) <= acc_tol(k),
                "{be:?} subview gemm {m}x{n}x{k} @({ro},{co})"
            );
        }
    }
}

/// The `BIDIAG_SIMD` override must be honored by a *fresh process* (the
/// in-crate unit tests can only pin the pure policy function, because by
/// the time any test runs the process-global decision may already be
/// made). Re-exec this test binary filtered to this very test with the
/// env var set; the child branch prints the decided backend.
#[test]
fn env_override_is_respected_at_process_startup() {
    if std::env::var("SIMD_BACKENDS_CHILD").is_ok() {
        println!("decided-backend={}", simd::backend().name());
        return;
    }
    let exe = std::env::current_exe().unwrap();
    // Every backend the host supports can be named, and `auto` (like an
    // unset variable) is the widest of them.
    let available: Vec<SimdBackend> = simd::available_backends().collect();
    let mut cases: Vec<(&str, &str)> = available.iter().map(|be| (be.name(), be.name())).collect();
    cases.push(("auto", available.last().unwrap().name()));
    for (env_val, expect) in cases {
        let out = std::process::Command::new(&exe)
            .args([
                "env_override_is_respected_at_process_startup",
                "--exact",
                "--nocapture",
            ])
            .env("BIDIAG_SIMD", env_val)
            .env("SIMD_BACKENDS_CHILD", "1")
            .output()
            .expect("re-exec test binary");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains(&format!("decided-backend={expect}")),
            "BIDIAG_SIMD={env_val}: expected {expect}, child said:\n{stdout}"
        );
    }
    // An unrecognized value, or a backend the host lacks, must abort startup
    // with a diagnostic, not silently fall back.
    let unsupported = SimdBackend::ALL.iter().filter(|be| !be.available());
    for env_val in unsupported.map(|be| be.name()).chain(["sse9000"]) {
        let out = std::process::Command::new(&exe)
            .args([
                "env_override_is_respected_at_process_startup",
                "--exact",
                "--nocapture",
            ])
            .env("BIDIAG_SIMD", env_val)
            .env("SIMD_BACKENDS_CHILD", "1")
            .output()
            .expect("re-exec test binary");
        assert!(
            !out.status.success(),
            "BIDIAG_SIMD={env_val} should fail the child process"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Randomized shapes and scalars: dispatching GEMM agrees across
    /// backends everywhere, not just on the curated ladder.
    #[test]
    fn gemm_agrees_across_backends_on_random_shapes(
        m in 1usize..48,
        n in 1usize..48,
        k in 1usize..48,
        seed in 0u64..1000,
    ) {
        let a = random_gaussian(m, k, seed.wrapping_mul(3).wrapping_add(1));
        let b = random_gaussian(k, n, seed.wrapping_mul(5).wrapping_add(2));
        let c0 = random_gaussian(m, n, seed.wrapping_mul(7).wrapping_add(3));
        let results = simd::on_each_backend(|| {
            let mut c = c0.clone();
            let mut scratch = GemmScratch::new();
            gemm_nn_scratch(&mut c.as_view_mut(), 1.0, a.as_view(), b.as_view(), &mut scratch);
            c
        });
        let (_, s) = &results[0];
        for (_, v) in &results[1..] {
            prop_assert!(
                gemm_gap(s, v, &a, &b) <= acc_tol(k),
                "gemm {}x{}x{} seed {}: gap {}", m, n, k, seed, gemm_gap(s, v, &a, &b)
            );
        }
    }

    /// Randomized axpy/dot lengths, including the remainder-heavy short
    /// range the size ladder samples only sparsely.
    #[test]
    fn primitives_agree_across_backends_on_random_lengths(
        n in 1usize..200,
        seed in 0u64..1000,
    ) {
        let x = test_vec(n, seed.wrapping_add(11));
        let y0 = test_vec(n, seed.wrapping_add(13));
        let results = simd::on_each_backend(|| {
            simd::dispatch(Primitives { y: &y0, a: -0.91, x: &x, z: &y0 })
        });
        let (_, s) = &results[0];
        for (_, v) in &results[1..] {
            for i in 0..n {
                prop_assert!((s.0[i] - v.0[i]).abs() <= 1e-15 * s.0[i].abs().max(1.0));
            }
            prop_assert!((s.1 - v.1).abs() <= acc_tol(n) * s.1.abs().max(1.0));
        }
    }
}
