//! The dqds fast path: Fernando–Parlett differential quotient-difference
//! with shifts, driven the way LAPACK `dlasq2`–`dlasq5` drive it (Parlett &
//! Marques, *An implementation of the dqds algorithm (positive case)*, LAA
//! 309, 2000).
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
//! Each pass runs at the latency of its `add → div → mul → sub` chain, so
//! the cost of a solve is the number of inner steps, and the driver exists
//! to keep that number down.
//!
//! # The driver
//!
//! The scratch owns two `(q, e)` array pairs of the problem's length. A
//! *window* `(lo, hi, sigma, side)` is an unreduced stretch of one of them
//! whose eigenvalues are those of its qd arrays plus `sigma`; a pass reads
//! the window on one side and writes it on the other, so a rejected pass
//! costs nothing to undo, and no window is ever copied. Per window, until
//! it is used up (`solve_window`):
//!
//! 1. **Deflate at the bottom**, one value or two (criteria below); windows
//!    of order 1 and 2 finish in closed form.
//! 2. **Flip** the window when its bottom corner is `CBIAS = 1.5` times its
//!    top, so that the small eigenvalues emerge at the deflation end; the
//!    pass after a flip is unshifted, as the minima below no longer say
//!    anything about where they are.
//! 3. **Choose the shift** (`choose_shift`, LAPACK `dlasq4`): the pass
//!    returns, besides the running minimum `dmin` of the `d`s, the minima
//!    `dmin1`, `dmin2` that exclude the last one and two, the last three
//!    `d`s themselves (`dn`, `dn1`, `dn2`) — all of them on the pass's
//!    dependency chain already. Where the minimum sits tells which
//!    eigenvalue bound applies: a Rayleigh-quotient bound with a Gershgorin
//!    gap when the bottom has almost converged (cases 2–3), a
//!    twisted-factorization bound on the norm of the approximate
//!    eigenvector (cases 4–5, 7–8, 10), a fraction of `dmin` where nothing
//!    is known (6, 9, 11, 12). A fresh window starts from the one-off
//!    bound `max(0, q_min - 2 sqrt(q_min e_max))`, which is `(sqrt(q_min)
//!    - sqrt(e_max))^2 - e_max`, a lower bound on `sigma_min(B)^2` by
//!    Weyl's inequality on `B = diag + superdiag`.
//! 4. **Pass, accepted on `dmin >= 0`.** A rejected pass is retried as
//!    `dlasq3` does: if only the last `d` went negative the shift was
//!    barely too large and `tau + dmin` is an excellent one; an earlier
//!    failure quarters it; the third attempt is unshifted. A pass whose
//!    only negative is a `dn` below `100 eps sigma` next to a negligible
//!    `e` is accepted with that `q` set to zero (convergence hidden by a
//!    negative `dn`). The shift is added to `sigma` with a compensation
//!    term, since a window accumulates hundreds of them.
//! 5. **Split** when the pass's smallest new `e` says a split exists: the
//!    window is opened again, and opening a window scans it from the bottom
//!    for an `e` below the threshold, pushes the two parts (the larger
//!    first, so the stack never holds more than `log2 n + 2` windows) and
//!    otherwise computes the one-off bound of step 3. The parts inherit
//!    `sigma` and the side, and share nothing else.
//!
//! **One deviation from `dlasq4`.** After a deflation of one (two) values
//! the minimum of the `d`s of what is left of the window is `dmin1`
//! (`dmin2`), and that is what decides between "unshifted pass" and the
//! case analysis. LAPACK tests `dmin`, which after a well-shifted pass *is*
//! the deflated `dn == 0`, and so follows every such deflation by an
//! unshifted pass that throws the window's convergence away (with
//! LAPACK's test the benchmark's inputs take 5–11 % more inner steps:
//! 52.7 against 46.8 per value on the geometric spectrum at n = 32, 1 134
//! against 1 037 at n = 768).
//!
//! # The three negligibility criteria
//!
//! All deflate in the squared world with `TOL2 = (100 eps)^2`, and each
//! moves an eigenvalue `lambda = lambda_hat + sigma` of the original
//! squared problem by a relative `O(100 eps)`, i.e. half that on the
//! singular value:
//!
//! * **one value**, `e_{m-1} <= TOL2 (sigma + q_m)`: the coupling of
//!   `BB^T`'s last row is `sqrt(q_m e_{m-1}) <= 100 eps sqrt(q_m (sigma +
//!   q_m))`, and dropping an off-diagonal `c` next to a diagonal `q_m`
//!   moves eigenvalues by at most `c`, which is below `100 eps (q_m +
//!   sigma)`.
//! * **two values**, `e_{m-2} <= TOL2 sigma`, then a closed-form `2x2`.
//! * **split**, `e_i <= TOL2 sigma` anywhere. Both are the same bound:
//!   zeroing `b = sqrt(e_i) <= 100 eps sqrt(sigma)` in the bidiagonal moves
//!   a singular value `s` of the window by at most `b`, hence `s^2 + sigma`
//!   by at most `2 s b + b^2 <= 100 eps (s^2 + sigma)` (AM–GM). With
//!   `sigma == 0` it is the exact-zero split of the input.
//!
//! `dlasq2` also splits where `e_i <= TOL2 q_i`; that is relative to the
//! window's norm, not to each eigenvalue, and is **not** used here — this
//! crate promises per-value relative accuracy.
//!
//! # The fallback ladder
//!
//! Robustness never depends on the qd iteration. A window that exhausts
//! the shared pass budget, or whose unshifted pass fails, goes down the
//! ladder (`ladder_fallback`), which has two rungs:
//!
//! 1. **Non-finite data** (a NaN/Inf that crept into the qd arrays, e.g.
//!    via fault injection) cannot be solved by any iteration: the window's
//!    values are emitted as NaN and counted in
//!    [`DqdsStats::poisoned_values`], so callers detect the poisoning at
//!    the output instead of hanging or panicking inside an iteration.
//! 2. **Per-value bisection oracle** ([`GkBisection`]): maximally robust,
//!    always correct.  Counted in [`DqdsStats::fallback_values`], which is
//!    therefore every value the qd iteration did not produce itself.
//!
//! The failpoint `svd::segment` (PoisonNan corrupts the window's leading
//! `q`, Trigger forces the ladder without a real convergence failure) lets
//! the robustness suite exercise both rungs deterministically.
//!
//! Computing all `n` values costs `O(n)` passes of `O(m)` work each —
//! `O(n^2)` total with a small constant, versus the `O(n^2 log(1/eps))`
//! of per-value bisection with its ~50 full Sturm passes per value.

use crate::sturm::GkBisection;
use crate::Pow2Scale;
use bidiag_matrix::simd;
use bidiag_obs as obs;

/// LAPACK `dlasq`'s `TOL`: what counts as converged, relative, in the
/// squared (qd) world.
const TOL: f64 = 100.0 * f64::EPSILON;

/// `TOL^2`, the threshold of the three negligibility criteria of the module
/// docs: an `e` is the *square* of a bidiagonal entry.
const TOL2: f64 = TOL * TOL;

/// Flip bias (LAPACK `dlasq2`'s `CBIAS`): a window is reversed when its
/// bottom corner is this much larger than its top, so the smallest
/// eigenvalues emerge at the deflation end.
const CBIAS: f64 = 1.5;

/// Counters describing how a [`dqds_singular_values_with_stats`] run went.
#[derive(Clone, Copy, Debug, Default)]
pub struct DqdsStats {
    /// Total dqds passes executed (including rejected shift attempts).
    pub passes: usize,
    /// Passes discarded because the shift overshot (or the pass produced a
    /// non-finite value); each was repeated with a smaller shift.
    pub rejected_passes: usize,
    /// Inner steps of all passes: the sum over passes of the length of the
    /// window the pass ran on. This, not `passes`, is what a solve costs.
    pub inner_steps: usize,
    /// Number of unreduced windows iterated, counting the parts a window
    /// was split into (so it rises with the order of the problem: a window
    /// of several hundred values splits a few dozen times on its way down).
    pub segments: usize,
    /// Number of singular values that were computed by the per-value
    /// bisection oracle (the fallback ladder, on a window with finite
    /// data that the qd iteration gave up on).
    pub fallback_values: usize,
    /// Number of singular values emitted as NaN because their window's qd
    /// data was non-finite (poisoned input or injected fault) — the ladder
    /// refuses to iterate on NaN/Inf and surfaces the damage at the output.
    pub poisoned_values: usize,
    /// Number of window flips performed.
    pub flips: usize,
}

impl std::ops::AddAssign for DqdsStats {
    /// Sum the counters of two solves, field by field.
    fn add_assign(&mut self, other: Self) {
        self.passes += other.passes;
        self.rejected_passes += other.rejected_passes;
        self.inner_steps += other.inner_steps;
        self.segments += other.segments;
        self.fallback_values += other.fallback_values;
        self.poisoned_values += other.poisoned_values;
        self.flips += other.flips;
    }
}

/// An unreduced stretch `lo..hi` of the qd arrays on `side`: its
/// eigenvalues are those of `(q[lo..hi], e[lo..hi - 1])` plus `sigma`.
#[derive(Clone, Copy, Debug)]
struct Window {
    lo: usize,
    hi: usize,
    /// Accumulated shift.
    sigma: f64,
    /// Which of the scratch's two array pairs holds the live data.
    side: usize,
}

/// One `(q, e)` array pair over the whole problem, `e` one shorter.
type QdArrays = (Vec<f64>, Vec<f64>);

/// Reusable scratch of the dqds driver: the two `(q, e)` array pairs a pass
/// reads from and writes to, the stack of windows still to solve, and the
/// eigenvalue accumulator.
///
/// After a warm-up call, [`dqds_singular_values_into`] with the same (or a
/// smaller) problem size performs **zero heap allocations** outside the
/// rare bisection-fallback path, however often the problem splits — buffer
/// capacities grow to the high-water mark and stay there.  One scratch per
/// long-lived worker is the intended usage (the batched SVD session owns
/// one per worker).
#[derive(Debug, Default)]
pub struct DqdsScratch {
    sides: [QdArrays; 2],
    stack: Vec<Window>,
    lambdas: Vec<f64>,
}

impl DqdsScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scratch pre-sized for bidiagonals of order up to `n`, so even the
    /// first solve is allocation-free: the four arrays and the eigenvalue
    /// accumulator of capacity `n`, and the deepest stack a problem of that
    /// order can build (`log2 n + 2` windows; see the module docs).
    pub fn for_len(n: usize) -> Self {
        let pair = || (Vec::with_capacity(n), Vec::with_capacity(n));
        DqdsScratch {
            sides: [pair(), pair()],
            stack: Vec::with_capacity(n.max(1).ilog2() as usize + 2),
            lambdas: Vec::with_capacity(n),
        }
    }
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
/// The arithmetic is identical to the allocating entry points — nothing a
/// pass reads is left over from an earlier call — so the results are
/// **bitwise equal**; in steady state (same problem size, warm scratch)
/// the call performs no heap allocation unless a window falls back to
/// bisection (see [`DqdsScratch`]).
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
    let Some(scale) = Pow2Scale::for_bidiagonal(d, e) else {
        out.resize(n, 0.0);
        return stats;
    };

    let DqdsScratch {
        sides,
        stack,
        lambdas,
    } = scratch;
    debug_assert!(stack.is_empty());
    lambdas.clear();

    // The squared, scaled qd arrays. Squaring underflows only for entries
    // below ~1e-154 * amax, and an underflowed e^2 == 0 simply becomes a
    // split point (a relative perturbation far below eps on any sigma).
    let square = |&v: &f64| {
        let v = scale.down(v);
        v * v
    };
    let [(q0, e0), (q1, e1)] = sides;
    q0.clear();
    q0.extend(d.iter().map(square));
    e0.clear();
    e0.extend(e.iter().map(square));
    for (other, len) in [(q1, n), (e1, n - 1)] {
        other.clear();
        other.resize(len, 0.0);
    }

    // One window over everything; opening it finds the input's exact zeros.
    stack.push(Window {
        lo: 0,
        hi: n,
        sigma: 0.0,
        side: 0,
    });
    solve_stack(sides, stack, lambdas, &mut stats);
    debug_assert_eq!(lambdas.len(), n);

    // NaN lambdas (poisoned windows) must survive to the output —
    // `f64::max(NaN, 0.0)` would silently launder them into zeros.
    out.extend(lambdas.iter().map(|&l| {
        if l.is_nan() {
            f64::NAN
        } else {
            scale.up(l.max(0.0).sqrt())
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
        // Aggregate the per-solve counters into the process-wide registry;
        // the caller still gets the exact per-solve stats.
        let reg = obs::registry();
        reg.dqds_passes.add(stats.passes as u64);
        reg.dqds_rejected_passes.add(stats.rejected_passes as u64);
        reg.dqds_inner_steps.add(stats.inner_steps as u64);
        reg.dqds_segments.add(stats.segments as u64);
        reg.dqds_fallback_values.add(stats.fallback_values as u64);
        reg.dqds_poisoned_values.add(stats.poisoned_values as u64);
        reg.dqds_flips.add(stats.flips as u64);
    }
    stats
}

/// Solve every window on `stack`, and those they split into, pushing the
/// eigenvalues into `lambdas`.
fn solve_stack(
    sides: &mut [QdArrays; 2],
    stack: &mut Vec<Window>,
    lambdas: &mut Vec<f64>,
    stats: &mut DqdsStats,
) {
    // Shared pass budget: dqds needs a handful of passes per eigenvalue;
    // anything beyond this bound is pathological and goes to bisection.
    let n: usize = stack.iter().map(|w| w.hi - w.lo).sum();
    let mut budget = 30 * n + 100;
    while let Some(w) = stack.pop() {
        if let Some(first_shift) = open_window(w, sides, stack) {
            stats.segments += 1;
            solve_window(w, first_shift, sides, stack, lambdas, &mut budget, stats);
        }
    }
}

/// Look a window over before iterating on it: scan it from the bottom for
/// an `e <= TOL2 * sigma` (the split criterion of the module docs; with
/// `sigma == 0`, an exact zero). If there is one, push the two parts and
/// return `None`; if not, the window is unreduced and the result is its
/// first shift, `dlasq2`'s bound `max(0, q_min - 2 sqrt(q_min e_max))`.
///
/// The larger part is pushed first, so the part solved next is at most
/// half its parent: by induction a window of order `m` never has more than
/// `log2 m + 2` windows above what was on the stack when it was popped.
fn open_window(w: Window, sides: &[QdArrays; 2], stack: &mut Vec<Window>) -> Option<f64> {
    let Window { lo, hi, sigma, .. } = w;
    let (q, e) = &sides[w.side];
    let negligible = TOL2 * sigma;
    let mut qmin = q[hi - 1];
    let mut emax = 0.0_f64;
    for i in (lo..hi - 1).rev() {
        if e[i] <= negligible {
            let top = Window { hi: i + 1, ..w };
            let bottom = Window { lo: i + 1, ..w };
            let bottom_is_larger = hi - bottom.lo > top.hi - lo;
            stack.extend(if bottom_is_larger {
                [bottom, top]
            } else {
                [top, bottom]
            });
            return None;
        }
        qmin = qmin.min(q[i]);
        emax = emax.max(e[i]);
    }
    Some((qmin - 2.0 * qmin.sqrt() * emax.sqrt()).max(0.0))
}

/// Iterate the unreduced window `w` until it is used up, pushing its
/// eigenvalues (`qd eigenvalue + sigma`) into `lambdas`, or until a pass
/// says it splits, in which case it goes back on `stack` for
/// [`open_window`] to take apart.
fn solve_window(
    w: Window,
    first_shift: f64,
    sides: &mut [QdArrays; 2],
    stack: &mut Vec<Window>,
    lambdas: &mut Vec<f64>,
    budget: &mut usize,
    stats: &mut DqdsStats,
) {
    let Window {
        lo,
        mut hi,
        mut sigma,
        mut side,
    } = w;
    match failpoint::fire("svd::segment") {
        Some(failpoint::FailAction::PoisonNan) => sides[side].0[lo] = f64::NAN,
        Some(failpoint::FailAction::Trigger) => {
            let (q, e) = &sides[side];
            return ladder_fallback(&q[lo..hi], &e[lo..hi - 1], sigma, lambdas, stats);
        }
        _ => {}
    }

    // What the last pass reported, and how many values were deflated
    // since. A negative `dmin` asks `choose_shift` for exactly that shift.
    let mut last = PassMinima {
        dmin: -first_shift,
        ..PassMinima::default()
    };
    let mut deflated = 0usize;
    let mut choice = ShiftChoice::default();
    // Low-order part of `sigma` (the shifts are summed with compensation).
    let mut desig = 0.0_f64;

    loop {
        let (src, dst) = {
            let (a, b) = sides.split_at_mut(1);
            if side == 0 {
                (&mut a[0], &mut b[0])
            } else {
                (&mut b[0], &mut a[0])
            }
        };
        let (q, e) = (&mut src.0, &mut src.1);

        // --- deflation at the bottom + tiny closed forms -----------------
        loop {
            match hi - lo {
                1 => return lambdas.push(q[lo] + sigma),
                2 => {
                    let (big, small) = two_by_two(q[lo], q[lo + 1], e[lo]);
                    return lambdas.extend([big + sigma, small + sigma]);
                }
                _ => {}
            }
            if e[hi - 2] <= TOL2 * (sigma + q[hi - 1]) {
                lambdas.push(q[hi - 1] + sigma);
                hi -= 1;
                deflated += 1;
            } else if e[hi - 3] <= TOL2 * sigma {
                let (big, small) = two_by_two(q[hi - 2], q[hi - 1], e[hi - 2]);
                lambdas.extend([big + sigma, small + sigma]);
                hi -= 2;
                deflated += 2;
            } else {
                break;
            }
        }

        // --- budget exhausted: hand the window to the ladder -------------
        if *budget == 0 {
            return ladder_fallback(&q[lo..hi], &e[lo..hi - 1], sigma, lambdas, stats);
        }

        // --- flip so the (expected) small end sits at the bottom; only
        //     worth looking at when the bottom just changed ---------------
        if (last.dmin <= 0.0 || deflated > 0) && CBIAS * q[lo] < q[hi - 1] {
            q[lo..hi].reverse();
            e[lo..hi - 1].reverse();
            stats.flips += 1;
            last.dmin = 0.0;
            deflated = 0;
        }

        let mut tau = choose_shift(
            (&q[lo..hi], &e[lo..hi - 1]),
            (&dst.0[lo..hi], &dst.1[lo..hi - 1]),
            &last,
            deflated,
            &mut choice,
        );

        // --- one dqds pass, with shift rejection --------------------------
        let mut failures = 0;
        let now = loop {
            *budget = budget.saturating_sub(1);
            stats.passes += 1;
            stats.inner_steps += hi - lo;
            let now = dqds_pass(
                &q[lo..hi],
                &e[lo..hi - 1],
                tau,
                &mut dst.0[lo..hi],
                &mut dst.1[lo..hi - 1],
            );
            if now.dmin >= 0.0 {
                break now;
            }
            if now.dmin < 0.0
                && now.dmin1 > 0.0
                && dst.1[hi - 2] < TOL * (sigma + now.dn1)
                && now.dn.abs() < TOL * sigma
            {
                // Convergence hidden by a negative `dn`.
                dst.0[hi - 1] = 0.0;
                break PassMinima { dmin: 0.0, ..now };
            }
            if tau == 0.0 {
                // An unshifted pass can only fail through over/underflow
                // pathologies (or non-finite data); the ladder takes over.
                return ladder_fallback(&q[lo..hi], &e[lo..hi - 1], sigma, lambdas, stats);
            }
            stats.rejected_passes += 1;
            failures += 1;
            tau = if failures >= 2 || now.dmin.is_nan() {
                0.0
            } else if now.dmin1 > 0.0 {
                // Late failure: only the last `d` went negative.
                choice.ttype -= 11;
                (tau + now.dmin) * (1.0 - 2.0 * f64::EPSILON)
            } else {
                // Early failure.
                choice.ttype -= 12;
                0.25 * tau
            };
            if *budget == 0 {
                return ladder_fallback(&q[lo..hi], &e[lo..hi - 1], sigma, lambdas, stats);
            }
        };
        last = now;
        deflated = 0;
        side ^= 1;
        if tau < sigma {
            desig += tau;
            let t = sigma + desig;
            desig -= t - sigma;
            sigma = t;
        } else {
            let t = sigma + tau;
            desig += sigma - (t - tau);
            sigma = t;
        }

        // --- the pass drove an interior `e` below the split threshold -----
        if now.emin <= TOL2 * sigma {
            return stack.push(Window {
                lo,
                hi,
                sigma,
                side,
            });
        }
    }
}

/// What one dqds pass reports besides the transformed arrays (LAPACK
/// `dlasq5`'s outputs): the last three `d`s, the running minimum of the
/// `d`s with and without them, and the smallest new `e` above the last two.
#[derive(Clone, Copy, Debug, Default)]
struct PassMinima {
    /// Minimum of all `d`s — non-negative iff the shift was admissible;
    /// NaN if the pass produced a non-finite value.
    dmin: f64,
    /// Minimum without the last `d`.
    dmin1: f64,
    /// Minimum without the last two.
    dmin2: f64,
    /// The last `d` (the new bottom `q`).
    dn: f64,
    /// The one before it.
    dn1: f64,
    /// And the one before that.
    dn2: f64,
    /// Smallest new `e` among all but the bottom two, which the deflation
    /// tests look at anyway.
    emin: f64,
}

/// Which case of [`choose_shift`] chose the last shift and how that went —
/// LAPACK's `TTYPE` and `G`, reduced to what the next choice reads.
#[derive(Clone, Copy, Debug, Default)]
struct ShiftChoice {
    /// `dlasq4`'s case number, negated, minus 11 per late and 12 per early
    /// failure of the pass that used the shift.
    ttype: i32,
    /// Case 6's fraction of `dmin`, raised each time the case repeats.
    g: f64,
}

/// The shift for the next pass on the window `(q, e)`, from where the last
/// pass saw its minima — LAPACK `dlasq4`, with the deviation of the module
/// docs. `old` is the window on the other side, i.e. what the last pass
/// read (only looked at when `deflated == 0`, when it is exactly that);
/// `deflated` is the number of values deflated since that pass.
///
/// Every case returns a finite `tau >= 0` that is at most the minimum it
/// was derived from; whether it is below the smallest eigenvalue is for the
/// pass to find out.
fn choose_shift(
    (q, e): (&[f64], &[f64]),
    (q_old, e_old): (&[f64], &[f64]),
    last: &PassMinima,
    deflated: usize,
    choice: &mut ShiftChoice,
) -> f64 {
    const CNST1: f64 = 0.563;
    const CNST2: f64 = 1.01;
    const CNST3: f64 = 1.05;
    let PassMinima {
        dmin1,
        dmin2,
        dn,
        dn1,
        dn2,
        ..
    } = *last;
    // The minimum over what is left of the window (the deviation).
    let dmin = match deflated {
        0 => last.dmin,
        1 => dmin1,
        2 => dmin2,
        _ => {
            // Case 12: more than two values gone, no information.
            choice.ttype = -12;
            return 0.0;
        }
    };
    // A non-positive minimum forces the shift to its absolute value: the
    // first shift of a window, or an unshifted pass.
    if dmin <= 0.0 {
        choice.ttype = -1;
        return dmin.abs();
    }
    // Index of the bottom; `solve_window` never asks below order 3.
    let l = q.len() - 1;
    // The squared norm of the part of the approximate eigenvector above
    // row `from`, by the twisted factorization: a running product of
    // `e_k / q_k`, given up (`None`) where that ratio exceeds one.
    let norm_above = |from: usize, mut b2: f64, mut a2: f64, stop_at_cnst1: bool| {
        for k in (0..from).rev() {
            if b2 == 0.0 {
                break;
            }
            let b1 = b2;
            if e[k] > q[k] {
                return None;
            }
            b2 *= e[k] / q[k];
            a2 += b2;
            if 100.0 * b2.max(b1) < a2 || (stop_at_cnst1 && CNST1 < a2) {
                break;
            }
        }
        Some(a2)
    };
    // The Rayleigh-quotient bound of cases 7–8 and 10: `dmin / (1 +
    // norm)`, improved by the gap to the rest of the spectrum if known.
    let rayleigh = |s: f64, dmin: f64, b2: f64, gap: f64| {
        let b2 = (CNST3 * b2).sqrt();
        let a2 = dmin / (1.0 + b2 * b2);
        let gap2 = gap - a2;
        if gap2 > 0.0 && gap2 > b2 * a2 {
            (s.max(a2 * (1.0 - CNST2 * a2 * (b2 / gap2) * b2)), true)
        } else {
            (s.max(a2 * (1.0 - CNST2 * b2)), false)
        }
    };

    match deflated {
        // No value deflated: the minimum is at the bottom, or it is not.
        0 if dmin == dn || dmin == dn1 => {
            let b1 = q[l].sqrt() * e[l - 1].sqrt();
            let b2 = q[l - 1].sqrt() * e[l - 2].sqrt();
            let a2 = q[l - 1] + e[l - 1];
            if dmin == dn && dmin1 == dn1 {
                // Cases 2 and 3: the bottom has almost converged.
                let gap2 = dmin2 - a2 - dmin2 * 0.25;
                let gap1 = if gap2 > 0.0 && gap2 > b2 {
                    a2 - dn - (b2 / gap2) * b2
                } else {
                    a2 - dn - (b1 + b2)
                };
                if gap1 > 0.0 && gap1 > b1 {
                    choice.ttype = -2;
                    (dn - (b1 / gap1) * b1).max(0.5 * dmin)
                } else {
                    choice.ttype = -3;
                    let mut s = if dn > b1 { dn - b1 } else { 0.0 };
                    if a2 > b1 + b2 {
                        s = s.min(a2 - (b1 + b2));
                    }
                    s.max(dmin / 3.0)
                }
            } else {
                // Case 4: the minimum is at one of the last two rows.
                choice.ttype = -4;
                let s = 0.25 * dmin;
                let (gam, from, b2, a2) = if dmin == dn {
                    if e[l - 1] > q[l - 1] {
                        return s;
                    }
                    (dn, l - 1, e[l - 1] / q[l - 1], 0.0)
                } else {
                    if e_old[l - 1] > q_old[l] || e[l - 2] > q[l - 2] {
                        return s;
                    }
                    (dn1, l - 2, e[l - 2] / q[l - 2], e_old[l - 1] / q_old[l])
                };
                match norm_above(from, b2, a2 + b2, true) {
                    Some(a2) if CNST3 * a2 < CNST1 => {
                        let a2 = CNST3 * a2;
                        gam * (1.0 - a2.sqrt()) / (1.0 + a2)
                    }
                    _ => s,
                }
            }
        }
        0 if dmin == dn2 => {
            // Case 5: the minimum is three rows up.
            choice.ttype = -5;
            let s = 0.25 * dmin;
            let (b1, b2) = (q_old[l], q_old[l - 1]);
            if e_old[l - 2] > b2 || e_old[l - 1] > b1 {
                return s;
            }
            let mut a2 = (e_old[l - 2] / b2) * (1.0 + e_old[l - 1] / b1);
            if l > 2 {
                let b2 = e[l - 3] / q[l - 3];
                a2 = match norm_above(l - 3, b2, a2 + b2, true) {
                    Some(a2) => CNST3 * a2,
                    None => return s,
                };
            }
            if a2 < CNST1 {
                dn2 * (1.0 - a2.sqrt()) / (1.0 + a2)
            } else {
                s
            }
        }
        0 => {
            // Case 6: no information; a growing fraction of `dmin` for as
            // long as the case repeats without failing.
            choice.g = match choice.ttype {
                -6 => choice.g + (1.0 - choice.g) / 3.0,
                -18 => 0.25 / 3.0,
                _ => 0.25,
            };
            choice.ttype = -6;
            choice.g * dmin
        }
        // One value just deflated: `dmin1`, `dn1` play `dmin`, `dn`.
        1 if dmin1 == dn1 && dmin2 == dn2 => {
            // Cases 7 and 8.
            choice.ttype = -7;
            let s = dmin1 / 3.0;
            if e[l - 1] > q[l - 1] {
                return s;
            }
            let b1 = e[l - 1] / q[l - 1];
            let Some(b2) = norm_above(l - 1, b1, b1, false) else {
                return s;
            };
            let (s, gap_used) = rayleigh(s, dmin1, b2, 0.5 * dmin2);
            if !gap_used {
                choice.ttype = -8;
            }
            s
        }
        1 => {
            // Case 9.
            choice.ttype = -9;
            if dmin1 == dn1 {
                0.5 * dmin1
            } else {
                0.25 * dmin1
            }
        }
        // Two values deflated: `dmin2`, `dn2` play `dmin`, `dn`.
        _ if dmin2 == dn2 && 2.0 * e[l - 1] < q[l - 1] => {
            // Case 10.
            choice.ttype = -10;
            let s = dmin2 / 3.0;
            let b1 = e[l - 1] / q[l - 1];
            let Some(b2) = norm_above(l - 1, b1, b1, false) else {
                return s;
            };
            let gap = q[l - 1] + e[l - 2] - q[l - 2].sqrt() * e[l - 2].sqrt();
            rayleigh(s, dmin2, b2, gap).0
        }
        _ => {
            // Case 11.
            choice.ttype = -11;
            0.25 * dmin2
        }
    }
}

/// One dqds transform: reads `(q, e)`, writes `(qh, eh)`, returns the
/// [`PassMinima`] — `dmin` non-negative iff the shift was admissible.
///
/// Dispatches on [`bidiag_matrix::simd::backend`] like the other hot
/// loops, but the recurrence is a serial `d`-chain (each `d_{i+1}` needs
/// the division from step `i`), so the AVX2 shell only recompiles the
/// same body under `target_feature` — no reassociation, no fusion.  All
/// backends therefore produce **bitwise-identical** output; the dispatch
/// exists so the forced-backend equivalence suite covers this kernel.
fn dqds_pass(q: &[f64], e: &[f64], s: f64, qh: &mut [f64], eh: &mut [f64]) -> PassMinima {
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

/// The dqds recurrence itself, shared verbatim by every backend, on a
/// window of order `m >= 3`. The last two steps are peeled off the loop so
/// that the minima before them cost a register copy and nothing on the
/// `d`-chain.
#[inline(always)]
fn dqds_pass_body(q: &[f64], e: &[f64], s: f64, qh: &mut [f64], eh: &mut [f64]) -> PassMinima {
    let m = q.len();
    let (e, qh, eh) = (&e[..m - 1], &mut qh[..m], &mut eh[..m - 1]);
    let mut d = q[0] - s;
    let mut dmin = d;
    let mut emin = f64::INFINITY;
    // One step: writes `qh[i]`, `eh[i]`, returns the next `d` and `eh[i]`.
    let mut step = |i: usize, d: f64| {
        qh[i] = d + e[i];
        let t = q[i + 1] / qh[i];
        eh[i] = e[i] * t;
        (d * t - s, eh[i])
    };
    for i in 0..m - 3 {
        let ehat;
        (d, ehat) = step(i, d);
        if d < dmin {
            dmin = d;
        }
        if ehat < emin {
            emin = ehat;
        }
    }
    let (dn2, dmin2) = (d, dmin);
    let (dn1, _) = step(m - 3, dn2);
    let dmin1 = if dn1 < dmin2 { dn1 } else { dmin2 };
    let (dn, _) = step(m - 2, dn1);
    let dmin = if dn < dmin1 { dn } else { dmin1 };
    qh[m - 1] = dn;
    PassMinima {
        dmin: if dn.is_finite() { dmin } else { f64::NAN },
        dmin1,
        dmin2,
        dn,
        dn1,
        dn2,
        emin,
    }
}

/// [`dqds_pass_body`] compiled with AVX2+FMA enabled (VEX encodings).
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn dqds_pass_avx2(
    q: &[f64],
    e: &[f64],
    s: f64,
    qh: &mut [f64],
    eh: &mut [f64],
) -> PassMinima {
    dqds_pass_body(q, e, s, qh, eh)
}

/// Eigenvalues of the order-2 qd window `(q0, q1, e0)` — i.e. of the
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

/// Robust finish for a window the qd iteration could not close out — the
/// escalation ladder of the module docs.  Works on the window's
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
        // No rung can solve a poisoned window; refuse to iterate on
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
    use proptest::prelude::*;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        let scale = a.first().copied().unwrap_or(1.0).max(f64::MIN_POSITIVE);
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() <= tol * scale, "{x} vs {y} (scale {scale})");
        }
    }

    /// Per-value relative agreement.
    fn assert_rel_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() <= tol * x.abs().max(y.abs()), "{x} vs {y}");
        }
    }

    fn oracle(d: &[f64], e: &[f64]) -> Vec<f64> {
        let b = GkBisection::new(d, e);
        (0..d.len()).map(|j| b.nth_largest(j)).collect()
    }

    /// Eigenvalues `s^2 + sigma` of the qd arrays `(q, e)` by the oracle,
    /// in non-increasing order.
    fn qd_oracle(q: &[f64], e: &[f64], sigma: f64) -> Vec<f64> {
        let root = |v: &[f64]| v.iter().map(|x| x.sqrt()).collect::<Vec<_>>();
        oracle(&root(q), &root(e))
            .iter()
            .map(|s| s * s + sigma)
            .collect()
    }

    /// Two array pairs of order `q.len()` with `(q, e)` on `side` and NaN
    /// everywhere a pass must not read before it has written.
    fn sides_with(q: &[f64], e: &[f64], side: usize) -> [QdArrays; 2] {
        let n = q.len();
        let mut sides = [
            (vec![f64::NAN; n], vec![f64::NAN; n - 1]),
            (vec![f64::NAN; n], vec![f64::NAN; n - 1]),
        ];
        sides[side].0.copy_from_slice(q);
        sides[side].1.copy_from_slice(e);
        sides
    }

    /// Run the driver on the given windows of `(q, e)` held on `side`;
    /// eigenvalues in non-increasing order.
    fn drive(
        q: &[f64],
        e: &[f64],
        side: usize,
        windows: &[(usize, usize, f64)],
    ) -> (Vec<f64>, DqdsStats) {
        let mut sides = sides_with(q, e, side);
        let mut stack: Vec<Window> = windows
            .iter()
            .map(|&(lo, hi, sigma)| Window {
                lo,
                hi,
                sigma,
                side,
            })
            .collect();
        let (mut lambdas, mut stats) = (Vec::new(), DqdsStats::default());
        solve_stack(&mut sides, &mut stack, &mut lambdas, &mut stats);
        lambdas.sort_by(|a, b| b.total_cmp(a));
        (lambdas, stats)
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

    /// Deterministic pseudo-random data in `(-1, 1)` without pulling in
    /// rand: a simple LCG.
    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        }
    }

    #[test]
    fn matches_bisection_oracle_on_random_bidiagonals() {
        let mut next = lcg(0x9e37_79b9_7f4a_7c15);
        for n in [1usize, 2, 3, 5, 8, 17, 33, 64] {
            let d: Vec<f64> = (0..n).map(|_| next() * 3.0).collect();
            let e: Vec<f64> = (0..n - 1).map(|_| next()).collect();
            let (sv, _) = dqds_singular_values_with_stats(&d, &e);
            assert_close(&sv, &oracle(&d, &e), 1e-13);
        }
    }

    #[test]
    fn huge_and_tiny_scales_are_handled() {
        for s in [1e-150_f64, 1e150, 1.0] {
            let d = [3.0 * s, 1.0 * s, 2.0 * s];
            let e = [0.5 * s, 0.25 * s];
            let sv = dqds_singular_values(&d, &e);
            assert_close(&sv, &oracle(&d, &e), 1e-13);
        }
    }

    #[test]
    fn every_finite_scale_is_solved() {
        // `2^scale` is not a finite f64 once the largest entry is subnormal
        // (or, for its inverse, at least 2^1023): these returned four NaN
        // with `passes: 0` and `poisoned_values: 0`.
        let d = [3.0, 1.0, 2.0, 5.0];
        let e = [0.5, 0.25, 0.75];
        let reference = dqds_singular_values(&d, &e);
        for s in [1e-310_f64, 1e-320, 3.4e307] {
            let scaled = |v: &[f64]| v.iter().map(|x| x * s).collect::<Vec<_>>();
            let (sv, stats) = dqds_singular_values_with_stats(&scaled(&d), &scaled(&e));
            assert_eq!(stats.poisoned_values + stats.fallback_values, 0, "{s}");
            for (got, want) in sv.iter().zip(&reference) {
                // A subnormal holds only as many bits as it has above 5e-324.
                let ulp = (want * s * f64::EPSILON).max(5e-324);
                assert!(
                    (got - want * s).abs() <= 4.0 * ulp,
                    "{s}: {got} vs {}",
                    want * s
                );
            }
        }
        // The issue's second input, as given: largest entry above 2^1023.
        let sv = dqds_singular_values(
            &[1.7e308, 0.51e308, 0.34e308, 0.85e308],
            &[8.5e306, 4.25e306, 1.275e307],
        );
        assert!(sv.iter().all(|v| v.is_finite()), "{sv:?}");
        assert_rel_close(
            &sv,
            &oracle(
                &[1.7e308, 0.51e308, 0.34e308, 0.85e308],
                &[8.5e306, 4.25e306, 1.275e307],
            ),
            1e-13,
        );
    }

    #[test]
    fn zero_and_empty() {
        assert!(dqds_singular_values(&[], &[]).is_empty());
        let sv = dqds_singular_values(&[0.0, 0.0], &[0.0]);
        assert_eq!(sv, vec![0.0, 0.0]);
        let sv = dqds_singular_values(&[1.0, 0.0, 2.0], &[0.0, 0.0]);
        assert_close(&sv, &[2.0, 1.0, 0.0], 1e-15);
    }

    /// A bidiagonal of order `n` in `blocks` weakly coupled blocks whose
    /// scales step down by `1e-3`: the couplings fall below the split
    /// threshold as soon as the shift has grown, long before the blocks
    /// themselves have converged.
    fn weakly_coupled(n: usize, blocks: usize) -> (Vec<f64>, Vec<f64>) {
        let mut next = lcg(7);
        let per = n / blocks;
        let scale = |i: usize| 1e-3_f64.powi((i / per) as i32);
        let d = (0..n).map(|i| scale(i) * (1.0 + 0.5 * next())).collect();
        let e = (0..n - 1)
            .map(|i| {
                if (i + 1) % per == 0 {
                    1e-13 * scale(i + 1)
                } else {
                    0.3 * scale(i) * next()
                }
            })
            .collect();
        (d, e)
    }

    #[test]
    fn reused_scratch_is_bitwise_identical_to_fresh_calls() {
        // One warm scratch across a mixed-size stream (including splits via
        // zero superdiagonal entries, and one whose windows split while
        // they iterate): every result must equal the allocating entry point
        // bit for bit.
        let mut scratch = DqdsScratch::for_len(8);
        let mut out = Vec::new();
        let splitting = weakly_coupled(40, 5);
        let stats = dqds_singular_values_with_stats(&splitting.0, &splitting.1).1;
        assert!(stats.segments > 2 * 3, "wanted three splits: {stats:?}");
        let problems: Vec<(Vec<f64>, Vec<f64>)> = vec![
            (vec![3.0, -1.0, 2.0], vec![0.0, 0.0]),
            (vec![1.0, 1.0], vec![1.0]),
            (
                (1..=33).map(|i| ((i * 7) % 13) as f64 - 6.0).collect(),
                (1..33).map(|i| ((i * 5) % 11) as f64 / 11.0).collect(),
            ),
            splitting,
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
    fn two_values_deflate_at_once_below_tol2_sigma() {
        // e[1] is negligible against sigma but not an exact zero, e[2] is
        // not negligible at all: the bottom 2x2 goes in closed form, then
        // the rest does, and no pass runs.
        let (q, e, sigma) = ([4.0, 3.0, 2.0, 1.0], [0.5, 1e-29, 0.3], 1.0);
        assert!(e[1] <= TOL2 * sigma && e[2] > TOL2 * (sigma + q[3]));
        let mut sides = sides_with(&q, &e, 0);
        let (mut lambdas, mut stats) = (Vec::new(), DqdsStats::default());
        let w = Window {
            lo: 0,
            hi: 4,
            sigma,
            side: 0,
        };
        solve_window(
            w,
            0.0,
            &mut sides,
            &mut Vec::new(),
            &mut lambdas,
            &mut 100,
            &mut stats,
        );
        let (b_big, b_small) = two_by_two(q[2], q[3], e[2]);
        let (t_big, t_small) = two_by_two(q[0], q[1], e[0]);
        assert_eq!(
            lambdas,
            [b_big + 1.0, b_small + 1.0, t_big + 1.0, t_small + 1.0]
        );
        assert_eq!(stats.passes, 0);
        lambdas.sort_by(|a, b| b.total_cmp(a));
        assert_rel_close(&lambdas, &qd_oracle(&q, &e, sigma), 1e-14);
    }

    /// An order-8 qd problem whose middle coupling is below `TOL2 * sigma`;
    /// the bottom half is graded upwards, so it flips once it is on its own.
    const SPLIT_Q: [f64; 8] = [4.0, 3.0, 2.5, 2.0, 1e-3, 0.5, 1.0, 3.0];
    const SPLIT_E: [f64; 7] = [0.5, 0.4, 0.3, 1e-29, 2e-4, 0.1, 0.2];
    const SPLIT_SIGMA: f64 = 0.5;

    #[test]
    fn split_at_tol2_sigma_solves_both_children_in_either_order() {
        let whole = (0, 8, SPLIT_SIGMA);
        let (top, bottom) = ((0, 4, SPLIT_SIGMA), (4, 8, SPLIT_SIGMA));
        let (lambdas, stats) = drive(&SPLIT_Q, &SPLIT_E, 0, &[whole]);
        assert_eq!(stats.segments, 2, "{stats:?}");
        assert_eq!(stats.fallback_values, 0);
        assert_rel_close(&lambdas, &qd_oracle(&SPLIT_Q, &SPLIT_E, SPLIT_SIGMA), 1e-13);
        // The children share nothing: either order, or each alone, gives
        // the same bits.
        assert_eq!(lambdas, drive(&SPLIT_Q, &SPLIT_E, 0, &[top, bottom]).0);
        assert_eq!(lambdas, drive(&SPLIT_Q, &SPLIT_E, 0, &[bottom, top]).0);
        let mut alone = drive(&SPLIT_Q, &SPLIT_E, 0, &[top]).0;
        alone.extend(drive(&SPLIT_Q, &SPLIT_E, 0, &[bottom]).0);
        alone.sort_by(|a, b| b.total_cmp(a));
        assert_eq!(lambdas, alone);
    }

    #[test]
    fn children_inherit_the_side_and_flip_in_place() {
        // The same problem held on the other array pair (NaN where nothing
        // may be read): the bottom child flips where it lies, between its
        // sibling and the end of the arrays, and the values are the same.
        let whole = (0, 8, SPLIT_SIGMA);
        let (on_side_0, stats) = drive(&SPLIT_Q, &SPLIT_E, 0, &[whole]);
        assert!(stats.flips >= 1, "{stats:?}");
        let (on_side_1, _) = drive(&SPLIT_Q, &SPLIT_E, 1, &[whole]);
        assert_eq!(on_side_0, on_side_1);
        // And a child in the middle of longer arrays leaves its neighbours
        // alone.
        let mut sides = sides_with(&SPLIT_Q, &SPLIT_E, 1);
        let mut stack = vec![Window {
            lo: 4,
            hi: 7,
            sigma: SPLIT_SIGMA,
            side: 1,
        }];
        solve_stack(
            &mut sides,
            &mut stack,
            &mut Vec::new(),
            &mut DqdsStats::default(),
        );
        for side in &sides {
            assert!(side.0[..4]
                .iter()
                .chain(&side.0[7..])
                .all(|v| v.is_nan() || SPLIT_Q.contains(v)));
        }
        assert_eq!(sides[1].0[..4], SPLIT_Q[..4]);
        assert_eq!(sides[1].0[7], SPLIT_Q[7]);
    }

    #[test]
    fn convergence_hidden_by_a_negative_dn_is_accepted() {
        // The first shift is a hair above the bottom q, whose coupling is
        // negligible at `TOL` but not yet at `TOL2`: only `dn` goes
        // negative, by far less than `TOL * sigma`, and the pass stands.
        let (q, e, sigma) = ([2.0, 1.0, 1e-3], [0.1, 1e-20], 1.0);
        let tau = 1e-3 + 1e-17;
        assert!(tau > q[2] && e[1] > TOL2 * (sigma + q[2]));
        let mut sides = sides_with(&q, &e, 0);
        let (mut lambdas, mut stats) = (Vec::new(), DqdsStats::default());
        let w = Window {
            lo: 0,
            hi: 3,
            sigma,
            side: 0,
        };
        solve_window(
            w,
            tau,
            &mut sides,
            &mut Vec::new(),
            &mut lambdas,
            &mut 100,
            &mut stats,
        );
        assert_eq!(stats.rejected_passes, 0, "{stats:?}");
        assert_eq!(stats.fallback_values, 0);
        assert!(stats.passes >= 1);
        lambdas.sort_by(|a, b| b.total_cmp(a));
        assert_rel_close(&lambdas, &qd_oracle(&q, &e, sigma), 1e-13);
    }

    #[test]
    fn an_overshooting_shift_is_rejected_and_retried() {
        let (q, e) = ([2.0, 1.0, 0.5, 0.25], [0.1, 0.1, 0.1]);
        let mut sides = sides_with(&q, &e, 0);
        let (mut lambdas, mut stats) = (Vec::new(), DqdsStats::default());
        let w = Window {
            lo: 0,
            hi: 4,
            sigma: 0.0,
            side: 0,
        };
        solve_window(
            w,
            0.3,
            &mut sides,
            &mut Vec::new(),
            &mut lambdas,
            &mut 100,
            &mut stats,
        );
        assert!(stats.rejected_passes >= 1, "{stats:?}");
        assert!(stats.inner_steps >= stats.passes);
        lambdas.sort_by(|a, b| b.total_cmp(a));
        assert_rel_close(&lambdas, &qd_oracle(&q, &e, 0.0), 1e-13);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// The shift chooser alone: whatever positive finite window and
        /// consistent minima it is shown, wherever the minimum sits and
        /// however many values were deflated, the shift is finite, not
        /// negative and not above the minimum it came from.
        #[test]
        fn chosen_shift_is_finite_and_between_zero_and_the_minimum(
            m in 3usize..12,
            exps in proptest::collection::vec(-8.0f64..2.0, 44),
            dmin2_exp in -12.0f64..0.0,
            last_ds in proptest::collection::vec(0.0f64..2.0, 3),
            deflated in 0usize..4,
            ttype in 0usize..4,
        ) {
            let pos: Vec<f64> = exps.iter().map(|x| 10f64.powf(*x)).collect();
            let (q, e) = (&pos[..m], &pos[11..11 + m - 1]);
            let (q_old, e_old) = (&pos[22..22 + m], &pos[33..33 + m - 1]);
            // Minima as a pass builds them: the minimum above the last two
            // rows (attained by `dn2` half of the time), then two more `d`s
            // on either side of it.
            let dmin2 = 10f64.powf(dmin2_exp);
            let dn2 = dmin2 * (1.0 + (last_ds[0] - 1.0).max(0.0));
            let (dn1, dn) = (dmin2 * last_ds[1], dmin2 * last_ds[2]);
            let dmin1 = dmin2.min(dn1);
            let dmin = dmin1.min(dn);
            let last = PassMinima { dmin, dmin1, dmin2, dn, dn1, dn2, emin: 0.0 };
            let mut choice = ShiftChoice { ttype: [0, -6, -18, -2][ttype], g: 0.5 };
            let tau = choose_shift((q, e), (q_old, e_old), &last, deflated, &mut choice);
            let minimum = [dmin, dmin1, dmin2, f64::INFINITY][deflated];
            prop_assert!(tau.is_finite() && (0.0..=minimum).contains(&tau),
                "tau {tau} for {last:?}, deflated {deflated}, case {}", choice.ttype);
        }

        /// An unshifted pass on positive finite data is never rejected.
        #[test]
        fn an_unshifted_pass_is_never_rejected(
            m in 3usize..40,
            exps in proptest::collection::vec(-150.0f64..150.0, 80),
        ) {
            let pos: Vec<f64> = exps.iter().map(|x| 10f64.powf(*x)).collect();
            let (mut qh, mut eh) = (vec![0.0; m], vec![0.0; m - 1]);
            let r = dqds_pass(&pos[..m], &pos[40..40 + m - 1], 0.0, &mut qh, &mut eh);
            prop_assert!(r.dmin >= 0.0, "{r:?}");
            prop_assert!(qh.iter().chain(&eh).all(|v| *v >= 0.0 && v.is_finite()));
        }
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
        assert_eq!(lambdas, qd_oracle(&q, &e, 0.5));
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
