//! The dqds fast path: Fernando–Parlett differential quotient-difference
//! with shifts (the algorithm behind LAPACK `dlasq`).
//!
//! Works on the *squared* bidiagonal in qd form — `q_i = d_i^2`,
//! `e_i = e_i^2` — where one dqds pass
//!
//! ```text
//! d_1 = q_1 - s
//! for i = 1 .. m-1:   qhat_i = d_i + e_i
//!                     ehat_i = e_i * (q_{i+1} / qhat_i)
//!                     d_{i+1} = d_i * (q_{i+1} / qhat_i) - s
//! qhat_m = d_m
//! ```
//!
//! is one shifted Cholesky LR step on `B^T B` performed entirely in
//! factored quantities: every intermediate stays non-negative whenever the
//! shift `s` is below the smallest eigenvalue, which is both the
//! high-relative-accuracy argument (no subtractive cancellation on the
//! data, only on the shift accumulator) and the shift-rejection test — a
//! negative `d` proves the shift overshot and the pass is discarded.
//!
//! The driver adds the standard production machinery: splitting at
//! negligible `e`, flipping graded segments so deflation happens at the
//! cheap end, ping-pong buffers so a rejected pass costs nothing,
//! aggressive bottom deflation, Gershgorin-capped shifts, closed-form
//! `1x1`/`2x2` finishes, and a safeguarded *fallback ladder* for any
//! segment that refuses to converge — robustness never depends on the qd
//! iteration.
//!
//! The ladder (`ladder_fallback`) has two rungs per segment:
//!
//! 1. **Non-finite data** (a NaN/Inf that crept into the qd arrays, e.g.
//!    via fault injection) cannot be solved by any iteration: the segment's
//!    values are emitted as NaN and counted in
//!    [`DqdsStats::poisoned_values`], so callers detect the poisoning at
//!    the output instead of hanging or panicking inside an iteration.
//! 2. **Per-value bisection oracle** ([`GkBisection`]): maximally robust,
//!    always correct.  Counted in [`DqdsStats::fallback_values`], which is
//!    therefore every value the qd iteration did not produce itself.
//!
//! The failpoint `svd::segment` (PoisonNan corrupts the segment's leading
//! `q`, Trigger forces the ladder without a real convergence failure) lets
//! the robustness suite exercise both rungs deterministically.
//!
//! Computing all `n` values costs `O(n)` passes of `O(m)` work each —
//! `O(n^2)` total with a small constant, versus the `O(n^2 log(1/eps))`
//! of per-value bisection with its ~50 full Sturm passes per value.

use crate::sturm::GkBisection;
use bidiag_matrix::simd;
use bidiag_obs as obs;

/// Aggressive-deflation threshold: `tol2 = (100 eps)^2`, the square of
/// LAPACK `dlasq`'s `TOL`, because we deflate in the squared (qd) world —
/// a deflation perturbs a squared eigenvalue by at most `tol2` relative,
/// i.e. half that on the singular value itself.
const TOL2: f64 = (100.0 * f64::EPSILON) * (100.0 * f64::EPSILON);

/// Flip bias (LAPACK `dlasq2`'s `CBIAS`): a segment is reversed when its
/// bottom corner is this much larger than its top, so the smallest
/// eigenvalues emerge at the deflation end.
const CBIAS: f64 = 1.5;

/// Per-shift safety factor: the next shift is this fraction of the `dmin`
/// estimate from the previous pass (rejection handles the overshoots the
/// factor does not).
const SHIFT_SAFETY: f64 = 0.98;

/// Counters describing how a [`dqds_singular_values_with_stats`] run went.
#[derive(Clone, Copy, Debug, Default)]
pub struct DqdsStats {
    /// Total dqds passes executed (including rejected shift attempts).
    pub passes: usize,
    /// Number of unreduced segments processed, counting sub-segments the
    /// driver split off at deflation-induced zeros.
    pub segments: usize,
    /// Number of singular values that were computed by the per-value
    /// bisection oracle (the fallback ladder, on a segment with finite
    /// data that the qd iteration gave up on).
    pub fallback_values: usize,
    /// Number of singular values emitted as NaN because their segment's qd
    /// data was non-finite (poisoned input or injected fault) — the ladder
    /// refuses to iterate on NaN/Inf and surfaces the damage at the output.
    pub poisoned_values: usize,
    /// Number of segment flips performed.
    pub flips: usize,
}

/// One independent unreduced segment of the squared problem, in qd form.
struct Segment {
    q: Vec<f64>,
    e: Vec<f64>,
    /// Accumulated shift: eigenvalues of the original segment are
    /// `(eigenvalues of the current qd array) + sigma`.
    sigma: f64,
}

/// Reusable scratch of the dqds driver: a pool of recycled `(q, e)` buffer
/// pairs (the qd arrays, the ping-pong buffers and any split-off
/// sub-segments all draw from and return to it), the segment stack, and
/// the eigenvalue accumulator.
///
/// After a warm-up call, [`dqds_singular_values_into`] with the same (or a
/// smaller) problem size performs **zero heap allocations** outside the
/// rare bisection-fallback path — buffer capacities grow to the
/// high-water mark and stay there.  One scratch per long-lived worker is
/// the intended usage (the batched SVD session owns one per worker).
#[derive(Debug, Default)]
pub struct DqdsScratch {
    /// Recycled buffer pairs; `take_pair` pops (or creates) a cleared pair,
    /// and every retired segment / ping-pong pair is pushed back.
    free: Vec<(Vec<f64>, Vec<f64>)>,
    stack: Vec<Segment>,
    lambdas: Vec<f64>,
}

impl std::fmt::Debug for Segment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Segment")
            .field("len", &self.q.len())
            .field("sigma", &self.sigma)
            .finish()
    }
}

impl DqdsScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scratch pre-sized for bidiagonals of order up to `n`, so even the
    /// first solve is allocation-free: three buffer pairs (live arrays,
    /// ping-pong, one split) of capacity `n` each.
    pub fn for_len(n: usize) -> Self {
        DqdsScratch {
            free: (0..3)
                .map(|_| (Vec::with_capacity(n), Vec::with_capacity(n)))
                .collect(),
            stack: Vec::with_capacity(4),
            lambdas: Vec::with_capacity(n),
        }
    }
}

/// Pop a recycled buffer pair (or create an empty one), cleared and ready
/// to be filled.
fn take_pair(free: &mut Vec<(Vec<f64>, Vec<f64>)>) -> (Vec<f64>, Vec<f64>) {
    let (mut q, mut e) = free.pop().unwrap_or_default();
    q.clear();
    e.clear();
    (q, e)
}

/// Singular values of the bidiagonal matrix with main diagonal `d` and
/// superdiagonal `e`, in non-increasing order, via dqds.
///
/// See [`dqds_singular_values_with_stats`] for the variant that also
/// reports iteration/fallback counters and [`dqds_singular_values_into`]
/// for the allocation-free variant with caller-owned scratch.
pub fn dqds_singular_values(d: &[f64], e: &[f64]) -> Vec<f64> {
    dqds_singular_values_with_stats(d, e).0
}

/// [`dqds_singular_values`] plus the [`DqdsStats`] counters (used by the
/// benches and the property tests to confirm the fast path actually ran).
///
/// The scratch is sized for `d.len()` up front, not grown: an empty one
/// pushes `lambdas` through a `realloc` at every power of two, and glibc
/// keeps the small pieces those split off in its thread cache, where they
/// are never coalesced — in a process that solves in a loop they pile up
/// in front of the heap's largest free block until a matrix that used to
/// fit there comes from fresh pages (`peak_rss_mib` on `square_1t` read
/// 17.0 or 21.5 MiB by how many set-ups a run fitted in; CHANGES, PR 22).
pub fn dqds_singular_values_with_stats(d: &[f64], e: &[f64]) -> (Vec<f64>, DqdsStats) {
    let mut scratch = DqdsScratch::for_len(d.len());
    let mut out = Vec::with_capacity(d.len());
    let stats = dqds_singular_values_into(d, e, &mut scratch, &mut out);
    (out, stats)
}

/// [`dqds_singular_values`] writing into caller-owned scratch and output
/// buffers: `out` is cleared and refilled with the singular values in
/// non-increasing order.
///
/// The arithmetic is identical to the allocating entry points — the
/// recycled buffers receive exactly the values the fresh allocations
/// would — so the results are **bitwise equal**; in steady state (same
/// problem size, warm scratch) the call performs no heap allocation unless
/// a segment falls back to bisection (see [`DqdsScratch`]).
pub fn dqds_singular_values_into(
    d: &[f64],
    e: &[f64],
    scratch: &mut DqdsScratch,
    out: &mut Vec<f64>,
) -> DqdsStats {
    let n = d.len();
    let mut stats = DqdsStats::default();
    out.clear();
    if n == 0 {
        return stats;
    }
    assert_eq!(e.len(), n - 1, "superdiagonal must have length n-1");

    // Scale by a power of two so the largest entry is in (0.5, 1]: exact
    // (no rounding) and keeps all squares far from overflow/underflow.
    let amax = d
        .iter()
        .chain(e.iter())
        .fold(0.0_f64, |acc, &v| acc.max(v.abs()));
    if amax == 0.0 {
        out.resize(n, 0.0);
        return stats;
    }
    let scale = (-amax.log2().ceil()) as i32;
    let s2 = 2.0_f64.powi(scale);
    let unscale = 2.0_f64.powi(-scale);

    let DqdsScratch {
        free,
        stack,
        lambdas,
    } = scratch;
    debug_assert!(stack.is_empty());
    lambdas.clear();

    // The squared, scaled qd arrays. Squaring underflows only for entries
    // below ~1e-154 * amax, and an underflowed e^2 == 0 simply becomes a
    // split point (a relative perturbation far below eps on any sigma).
    let (mut q0, mut e0) = take_pair(free);
    q0.extend(d.iter().map(|&v| (v * s2) * (v * s2)));
    e0.extend(e.iter().map(|&v| (v * s2) * (v * s2)));

    // Split into unreduced segments at exact zeros of e^2.
    let mut start = 0usize;
    for i in 0..n {
        if i + 1 == n || e0[i] == 0.0 {
            let (mut qs, mut es) = take_pair(free);
            qs.extend_from_slice(&q0[start..=i]);
            es.extend_from_slice(&e0[start..i]);
            stack.push(Segment {
                q: qs,
                e: es,
                sigma: 0.0,
            });
            start = i + 1;
        }
    }
    free.push((q0, e0));

    // Shared pass budget: dqds needs a handful of passes per eigenvalue;
    // anything beyond this bound is pathological and goes to bisection.
    let mut budget = 30 * n + 100;
    while let Some(seg) = stack.pop() {
        stats.segments += 1;
        solve_segment(seg, stack, free, lambdas, &mut budget, &mut stats);
    }
    debug_assert_eq!(lambdas.len(), n);

    // NaN lambdas (poisoned segments) must survive to the output —
    // `f64::max(NaN, 0.0)` would silently launder them into zeros.
    out.extend(lambdas.iter().map(|&l| {
        if l.is_nan() {
            f64::NAN
        } else {
            l.max(0.0).sqrt() * unscale
        }
    }));
    // In-place unstable sort: elements comparing equal here are bitwise
    // identical (all outputs are non-negative with +0.0 zeros), so the
    // result is byte-for-byte the same as a stable sort — without the
    // stable sort's temporary allocation.  `total_cmp` orders exactly like
    // `partial_cmp` on these values and stays a total order (no panic)
    // when poisoned NaNs pass through.
    out.sort_unstable_by(|a, b| b.total_cmp(a));
    if obs::enabled() {
        // Aggregate the per-solve ladder counters into the process-wide
        // registry; the caller still gets the exact per-solve stats.
        let reg = obs::registry();
        reg.dqds_passes.add(stats.passes as u64);
        reg.dqds_segments.add(stats.segments as u64);
        reg.dqds_fallback_values.add(stats.fallback_values as u64);
        reg.dqds_poisoned_values.add(stats.poisoned_values as u64);
        reg.dqds_flips.add(stats.flips as u64);
    }
    stats
}

/// Iterate one segment to completion, pushing eigenvalues (of the squared
/// problem, original scaling minus nothing — `lambda = qd eigenvalue +
/// sigma`) into `lambdas` and any split-off sub-segments onto `stack`.
/// The segment's buffers (and the ping-pong pair drawn from `free`) are
/// returned to `free` when the segment retires, so steady-state solves
/// recycle instead of allocating.
fn solve_segment(
    seg: Segment,
    stack: &mut Vec<Segment>,
    free: &mut Vec<(Vec<f64>, Vec<f64>)>,
    lambdas: &mut Vec<f64>,
    budget: &mut usize,
    stats: &mut DqdsStats,
) {
    let Segment { q, e, sigma } = seg;
    let m = q.len();

    // Ping-pong buffers: `cur` holds the live arrays, `alt` receives the
    // next pass; a rejected shift simply never swaps, so retrying with a
    // smaller shift re-reads intact data.
    let mut cur = (q, e);
    let mut alt = take_pair(free);
    alt.0.resize(m, 0.0);
    alt.1.resize(m.saturating_sub(1), 0.0);
    let mut force_ladder = false;
    match failpoint::fire("svd::segment") {
        Some(failpoint::FailAction::PoisonNan) => {
            if let Some(q0) = cur.0.first_mut() {
                *q0 = f64::NAN;
            }
        }
        Some(failpoint::FailAction::Trigger) => force_ladder = true,
        _ => {}
    }
    if m > 0 {
        if force_ladder {
            ladder_fallback(&cur.0[..m], &cur.1[..m - 1], sigma, lambdas, stats);
        } else {
            iterate_segment(
                &mut cur, &mut alt, sigma, stack, free, lambdas, budget, stats,
            );
        }
    }
    free.push(cur);
    free.push(alt);
}

/// The iteration loop of [`solve_segment`], separated so every exit path
/// funnels through one place that recycles the ping-pong buffers.
#[allow(clippy::too_many_arguments)]
fn iterate_segment(
    cur: &mut (Vec<f64>, Vec<f64>),
    alt: &mut (Vec<f64>, Vec<f64>),
    sigma: f64,
    stack: &mut Vec<Segment>,
    free: &mut Vec<(Vec<f64>, Vec<f64>)>,
    lambdas: &mut Vec<f64>,
    budget: &mut usize,
    stats: &mut DqdsStats,
) {
    let mut m = cur.0.len();
    let mut sigma = sigma;
    let mut dmin_est = f64::INFINITY; // no estimate before the first pass
    let mut shift = 0.0_f64; // first pass is a pure (safe) dqd

    loop {
        let (q, e) = (&mut cur.0, &mut cur.1);

        // --- deflation at the bottom + tiny closed forms -----------------
        loop {
            match m {
                0 => return,
                1 => {
                    lambdas.push(q[0] + sigma);
                    return;
                }
                2 => {
                    let (big, small) = two_by_two(q[0], q[1], e[0]);
                    lambdas.push(big + sigma);
                    lambdas.push(small + sigma);
                    return;
                }
                _ => {}
            }
            if e[m - 2] <= TOL2 * (sigma + q[m - 1]) {
                lambdas.push(q[m - 1] + sigma);
                m -= 1;
            } else {
                break;
            }
        }

        // --- split at interior zeros (can appear as the iteration drives
        //     individual e's to underflow) ---------------------------------
        if let Some(i) = (0..m - 1).find(|&i| e[i] == 0.0) {
            let (mut q1, mut e1) = take_pair(free);
            q1.extend_from_slice(&q[..=i]);
            e1.extend_from_slice(&e[..i]);
            stack.push(Segment {
                q: q1,
                e: e1,
                sigma,
            });
            let (mut q2, mut e2) = take_pair(free);
            q2.extend_from_slice(&q[i + 1..m]);
            e2.extend_from_slice(&e[i + 1..m - 1]);
            stack.push(Segment {
                q: q2,
                e: e2,
                sigma,
            });
            return;
        }

        // --- budget exhausted: hand the segment to the ladder ------------
        if *budget == 0 {
            ladder_fallback(&q[..m], &e[..m - 1], sigma, lambdas, stats);
            return;
        }

        // --- flip so the (expected) small end sits at the bottom ---------
        if CBIAS * q[0] < q[m - 1] {
            q[..m].reverse();
            e[..m - 1].reverse();
            stats.flips += 1;
        }

        // --- Gershgorin-safe shift: lambda_min is at most the smallest
        //     diagonal of the associated tridiagonal B^T B, whose qd
        //     coordinates are q_i + e_{i-1} ---------------------------------
        let mut gersh = q[0];
        for i in 1..m {
            gersh = gersh.min(q[i] + e[i - 1]);
        }
        if dmin_est.is_finite() {
            shift = (SHIFT_SAFETY * dmin_est).clamp(0.0, 0.99 * gersh);
        }

        // --- one dqds pass, with shift rejection --------------------------
        loop {
            *budget = budget.saturating_sub(1);
            stats.passes += 1;
            let dmin = dqds_pass(&cur.0[..m], &cur.1[..m - 1], shift, &mut alt.0, &mut alt.1);
            if dmin >= 0.0 && dmin.is_finite() {
                sigma += shift;
                dmin_est = dmin;
                std::mem::swap(cur, alt);
                break;
            }
            if shift == 0.0 {
                // A zero-shift dqd pass can only fail through over/underflow
                // pathologies (or non-finite data); the ladder takes over.
                ladder_fallback(&cur.0[..m], &cur.1[..m - 1], sigma, lambdas, stats);
                return;
            }
            // Shift overshot the smallest eigenvalue: retry smaller, then
            // give up and take the always-safe unshifted pass.
            shift = if shift > 1e-3 * gersh {
                shift * 0.25
            } else {
                0.0
            };
            if *budget == 0 {
                ladder_fallback(&cur.0[..m], &cur.1[..m - 1], sigma, lambdas, stats);
                return;
            }
        }
    }
}

/// One dqds transform: reads `(q, e)`, writes `(qh, eh)` (only the first
/// `m` / `m-1` entries), returns the running minimum of the `d` values —
/// non-negative iff the shift was admissible.
///
/// Dispatches on [`bidiag_matrix::simd::backend`] like the other hot
/// loops, but the recurrence is a serial `d`-chain (each `d_{i+1}` needs
/// the division from step `i`), so the AVX2 shell only recompiles the
/// same body under `target_feature` — no reassociation, no fusion.  All
/// backends therefore produce **bitwise-identical** output; the dispatch
/// exists so the forced-backend equivalence suite covers this kernel and
/// so a future vectorized variant (e.g. a speculative two-pass scheme)
/// has its slot ready.
fn dqds_pass(q: &[f64], e: &[f64], s: f64, qh: &mut [f64], eh: &mut [f64]) -> f64 {
    match simd::backend() {
        simd::SimdBackend::Scalar => dqds_pass_body(q, e, s, qh, eh),
        // No 512-bit shell: the d-chain is serial, wider lanes have nothing
        // to fill.  Every backend is named so that a new one cannot fall
        // through to the baseline-compiled body unnoticed.
        #[cfg(target_arch = "x86_64")]
        simd::SimdBackend::Avx2 | simd::SimdBackend::Avx512 => {
            simd::check_avx2();
            // SAFETY: `check_avx2` above verified AVX2+FMA are available
            // on this CPU, which is the only precondition of the shell.
            unsafe { dqds_pass_avx2(q, e, s, qh, eh) }
        }
    }
}

/// The dqds recurrence itself, shared verbatim by every backend.
#[inline(always)]
fn dqds_pass_body(q: &[f64], e: &[f64], s: f64, qh: &mut [f64], eh: &mut [f64]) -> f64 {
    let m = q.len();
    let mut d = q[0] - s;
    let mut dmin = d;
    for i in 0..m - 1 {
        qh[i] = d + e[i];
        let t = q[i + 1] / qh[i];
        eh[i] = e[i] * t;
        d = d * t - s;
        if d < dmin {
            dmin = d;
        }
    }
    qh[m - 1] = d;
    if !d.is_finite() {
        return f64::NAN;
    }
    dmin
}

/// [`dqds_pass_body`] compiled with AVX2+FMA enabled (VEX encodings,
/// vector min for the `dmin` reduction where LLVM finds one legal).
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn dqds_pass_avx2(q: &[f64], e: &[f64], s: f64, qh: &mut [f64], eh: &mut [f64]) -> f64 {
    dqds_pass_body(q, e, s, qh, eh)
}

/// Eigenvalues of the order-2 qd segment `(q0, q1, e0)` — i.e. of the
/// 2x2 symmetric tridiagonal `[[q0, c], [c, q1 + e0]]` with `c^2 = q0 e0`
/// — via the stable trace/determinant formulas: the discriminant is the
/// cancellation-free sum `(q0 - q1 + e0)^2 + 4 q1 e0` and the small root
/// comes from `det / lambda_max`, so both roots keep relative accuracy.
fn two_by_two(q0: f64, q1: f64, e0: f64) -> (f64, f64) {
    let tr = q0 + q1 + e0;
    let disc = {
        let u = q0 - q1 + e0;
        (u * u + 4.0 * q1 * e0).max(0.0)
    };
    let big = 0.5 * (tr + disc.sqrt());
    let small = if big > 0.0 { (q0 * q1) / big } else { 0.0 };
    (big, small)
}

/// Robust finish for a segment the qd iteration could not close out — the
/// escalation ladder of the module docs.  Works on the segment's
/// bidiagonal (`sqrt` of the qd arrays — the signs are irrelevant to
/// singular values), re-squared and shifted back into the caller's
/// eigenvalue coordinates:
///
/// 1. non-finite qd data → one NaN per value (`poisoned_values`);
/// 2. per-value bisection oracle (`fallback_values`).
fn ladder_fallback(
    q: &[f64],
    e: &[f64],
    sigma: f64,
    lambdas: &mut Vec<f64>,
    stats: &mut DqdsStats,
) {
    let m = q.len();
    if q.iter().chain(e.iter()).any(|v| !v.is_finite()) {
        // No rung can solve a poisoned segment; refuse to iterate on
        // NaN/Inf and make the damage visible at the output instead.
        lambdas.extend(std::iter::repeat_n(f64::NAN, m));
        stats.poisoned_values += m;
        return;
    }
    let d: Vec<f64> = q.iter().map(|&v| v.max(0.0).sqrt()).collect();
    let ee: Vec<f64> = e.iter().map(|&v| v.max(0.0).sqrt()).collect();

    let b = GkBisection::new(&d, &ee);
    for j in 0..b.num_values() {
        let s = b.nth_largest(j);
        lambdas.push(s * s + sigma);
    }
    stats.fallback_values += m;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        let scale = a.first().copied().unwrap_or(1.0).max(f64::MIN_POSITIVE);
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() <= tol * scale, "{x} vs {y} (scale {scale})");
        }
    }

    #[test]
    fn diagonal_matrix() {
        let (sv, stats) = dqds_singular_values_with_stats(&[3.0, -1.0, 2.0], &[0.0, 0.0]);
        assert_close(&sv, &[3.0, 2.0, 1.0], 1e-15);
        assert_eq!(stats.fallback_values, 0);
    }

    #[test]
    fn two_by_two_golden_ratio() {
        // B = [[1, 1], [0, 1]]: sigma = sqrt((3 ± sqrt(5)) / 2).
        let sv = dqds_singular_values(&[1.0, 1.0], &[1.0]);
        let expect = [
            ((3.0 + 5.0_f64.sqrt()) / 2.0).sqrt(),
            ((3.0 - 5.0_f64.sqrt()) / 2.0).sqrt(),
        ];
        assert_close(&sv, &expect, 1e-15);
    }

    #[test]
    fn matches_bisection_oracle_on_random_bidiagonals() {
        // Deterministic pseudo-random data without pulling in rand: a
        // simple LCG driving d and e.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        for n in [1usize, 2, 3, 5, 8, 17, 33, 64] {
            let d: Vec<f64> = (0..n).map(|_| next() * 3.0).collect();
            let e: Vec<f64> = (0..n - 1).map(|_| next()).collect();
            let (sv, _) = dqds_singular_values_with_stats(&d, &e);
            let b = GkBisection::new(&d, &e);
            let oracle: Vec<f64> = (0..n).map(|j| b.nth_largest(j)).collect();
            assert_close(&sv, &oracle, 1e-13);
        }
    }

    #[test]
    fn huge_and_tiny_scales_are_handled() {
        for s in [1e-150_f64, 1e150, 1.0] {
            let d = [3.0 * s, 1.0 * s, 2.0 * s];
            let e = [0.5 * s, 0.25 * s];
            let sv = dqds_singular_values(&d, &e);
            let b = GkBisection::new(&d, &e);
            let oracle: Vec<f64> = (0..3).map(|j| b.nth_largest(j)).collect();
            assert_close(&sv, &oracle, 1e-13);
        }
    }

    #[test]
    fn zero_and_empty() {
        assert!(dqds_singular_values(&[], &[]).is_empty());
        let sv = dqds_singular_values(&[0.0, 0.0], &[0.0]);
        assert_eq!(sv, vec![0.0, 0.0]);
        let sv = dqds_singular_values(&[1.0, 0.0, 2.0], &[0.0, 0.0]);
        assert_close(&sv, &[2.0, 1.0, 0.0], 1e-15);
    }

    #[test]
    fn reused_scratch_is_bitwise_identical_to_fresh_calls() {
        // One warm scratch across a mixed-size stream (including splits via
        // zero superdiagonal entries): every result must equal the
        // allocating entry point bit for bit.
        let mut scratch = DqdsScratch::for_len(8);
        let mut out = Vec::new();
        let problems: Vec<(Vec<f64>, Vec<f64>)> = vec![
            (vec![3.0, -1.0, 2.0], vec![0.0, 0.0]),
            (vec![1.0, 1.0], vec![1.0]),
            (
                (1..=33).map(|i| ((i * 7) % 13) as f64 - 6.0).collect(),
                (1..33).map(|i| ((i * 5) % 11) as f64 / 11.0).collect(),
            ),
            (vec![4.0, 3.0, 2.0, 1.0, 0.5], vec![0.6, 0.0, 0.4, 0.2]),
            (vec![], vec![]),
            (vec![0.0, 0.0], vec![0.0]),
        ];
        for _ in 0..3 {
            for (d, e) in &problems {
                let reference = dqds_singular_values(d, e);
                dqds_singular_values_into(d, e, &mut scratch, &mut out);
                assert_eq!(reference, out, "n={}", d.len());
            }
        }
    }

    #[test]
    fn tiny_singular_value_keeps_relative_accuracy() {
        let (sv, _) = dqds_singular_values_with_stats(&[1.0, 1e-8, 1.0], &[0.0, 0.0]);
        assert!((sv[2] - 1e-8).abs() < 1e-22, "tiny value lost: {}", sv[2]);
    }

    #[test]
    fn nan_input_yields_nan_output_not_a_panic_or_hang() {
        let (sv, stats) =
            dqds_singular_values_with_stats(&[f64::NAN, 1.0, 2.0, 0.5], &[0.5, 0.25, 0.75]);
        assert_eq!(sv.len(), 4);
        assert!(sv.iter().any(|v| v.is_nan()), "poison must stay visible");
        assert!(stats.poisoned_values > 0, "{stats:?}");
    }

    #[test]
    fn ladder_takes_the_oracle_on_finite_segments_and_shifts_back() {
        // Drive the ladder directly (as budget exhaustion would) on a
        // healthy segment with a non-zero accumulated shift: every value
        // is the oracle's, squared and moved back by sigma.
        let q = [4.0, 2.25, 1.0, 0.25];
        let e = [0.09, 0.04, 0.01];
        let mut lambdas = Vec::new();
        let mut stats = DqdsStats::default();
        ladder_fallback(&q, &e, 0.5, &mut lambdas, &mut stats);
        assert_eq!(stats.fallback_values, 4);
        assert_eq!(stats.poisoned_values, 0);
        let d: Vec<f64> = q.iter().map(|&v| v.sqrt()).collect();
        let ee: Vec<f64> = e.iter().map(|&v| v.sqrt()).collect();
        let b = GkBisection::new(&d, &ee);
        let oracle: Vec<f64> = (0..4)
            .map(|j| {
                let s = b.nth_largest(j);
                s * s + 0.5
            })
            .collect();
        assert_eq!(lambdas, oracle);
    }

    #[test]
    fn ladder_emits_nan_for_poisoned_segments() {
        let q = [1.0, f64::NAN, 2.0];
        let e = [0.5, 0.5];
        let mut lambdas = Vec::new();
        let mut stats = DqdsStats::default();
        ladder_fallback(&q, &e, 0.0, &mut lambdas, &mut stats);
        assert_eq!(lambdas.len(), 3);
        assert!(lambdas.iter().all(|v| v.is_nan()));
        assert_eq!(stats.poisoned_values, 3);
        assert_eq!(stats.fallback_values, 0);
    }
}
