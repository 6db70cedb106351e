//! Runtime-dispatched SIMD kernel layer.
//!
//! This module is the single home of every explicitly vectorized inner loop
//! in the workspace. It follows the faer-rs pattern: each kernel is written
//! **once** as a generic body over a [`SimdLane`] (a zero-sized token that
//! knows how to load/store/FMA one register's worth of `f64`s), and the body
//! is instantiated once per lane —
//!
//! * with [`ScalarLane`] (`LANES = 1`, plain `f64` arithmetic, no `unsafe`
//!   ISA requirements) — this is the portable fallback and is exactly the
//!   scalar code the kernels used before this layer existed,
//! * with [`Avx2Lane`] (`LANES = 4`, `__m256d` + FMA via `core::arch`)
//!   inside a `#[target_feature(enable = "avx2,fma")]` shell so LLVM emits
//!   256-bit FMA instructions for it, and
//! * with [`Avx512Lane`] (`LANES = 8`, `__m512d`) inside a
//!   `#[target_feature(enable = "avx512f,avx2,fma")]` shell — only where
//!   eight lanes were measured to pay: the three compact-WY chunk kernels of
//!   `bidiag_kernels::wy` and the reflector plane of
//!   `bidiag_kernels::householder` under `gebd2` and the bulge chase.  The
//!   kernels of this module (`axpy`, `dot`, the GEMM microkernel) and the
//!   dqds pass have no 512-bit body and run their AVX2 shell under
//!   [`SimdBackend::Avx512`].
//!
//! A run of values that does not fill its last register needs no scalar
//! tail: [`SimdLane::load_head`] / [`SimdLane::store_head`] move the first
//! `k` lanes of a register and touch nothing past them (`vmaskmovpd` with a
//! sliding mask on 256 bits, a `__mmask8` on 512, the element itself on
//! [`ScalarLane`]).
//!
//! # Dispatch
//!
//! The backend is decided **once per process** (guarded by an atomic
//! compare-exchange; see [`backend`]) from the `BIDIAG_SIMD` environment
//! variable (`auto` | `scalar` | `avx2` | `avx512`) and
//! `is_x86_feature_detected!`: `auto` picks the widest backend the CPU
//! supports, a backend named explicitly that the CPU lacks is an error.
//! After that, the hot path pays one relaxed atomic load + a predictable
//! branch per kernel call — never a `cpuid`-backed feature test.
//! [`selection_count`] exposes the number of detections so tests can pin
//! the decided-exactly-once property.
//!
//! # Safety argument
//!
//! All `unsafe` here reduces to two obligations, discharged at the dispatch
//! boundary:
//!
//! 1. **ISA availability** — [`Avx2Lane`] methods require AVX2+FMA,
//!    [`Avx512Lane`] methods AVX-512F on top. The only paths that construct
//!    one are the `#[target_feature]` wrappers, and every dispatcher asserts
//!    [`check_avx2`] / [`check_avx512`] before calling one (so even a
//!    hand-constructed [`SimdBackend::Avx2`] on a non-AVX2 host panics
//!    instead of executing illegal instructions).
//! 2. **Bounds** — lane `load`/`store` use unchecked indexing. Every public
//!    dispatcher asserts the full slice-length contract up front, and the
//!    generic bodies only touch indices below those lengths (plain
//!    `debug_assert!`s re-state the per-access contract).
//!
//! # Numerical contract
//!
//! The scalar lane deliberately implements [`SimdLane::mul_add`] as an
//! **unfused** `a * b + c`: the fallback must never lower to a libm `fma`
//! call on hosts without the instruction, and it keeps the scalar backend
//! bit-identical to the pre-SIMD kernels. The vector lanes fuse. The
//! backends therefore agree to ~1 ulp per operation, not bitwise; the
//! forced-backend equivalence suite pins them to each other at `1e-15`
//! relative error on remainder-straddling sizes.
//!
//! # Adding a kernel
//!
//! Write one `#[inline(always)] unsafe fn foo_body<S: SimdLane>(...)`
//! using only lane ops plus a scalar tail (or a masked last register), add a
//! `#[target_feature(enable = "avx2,fma")] unsafe fn foo_avx2` shell that
//! calls it with [`Avx2Lane`], and a safe `pub fn foo(be: SimdBackend, ...)`
//! that asserts lengths and matches on the backend (`Avx2 | Avx512` on one
//! arm unless a measurement earns the kernel a 512-bit shell of its own).
//! Then extend the forced-backend equivalence tests with the new kernel;
//! they run through [`on_each_backend`].

use core::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Rows of the packed-GEMM register microkernel (C tile height).
pub const MR: usize = 8;
/// Columns of the packed-GEMM register microkernel (C tile width).
pub const NR: usize = 4;

/// Which instruction-set backend the kernels in this module run on.  The
/// x86 variants exist only where they can run, so a `match` over the
/// backend needs no arm for them elsewhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdBackend {
    /// Portable scalar fallback (the pre-SIMD kernel bodies, `LANES = 1`).
    Scalar,
    /// AVX2 + FMA (`__m256d`, 4 × f64 lanes, fused multiply-add).
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// AVX-512F on top of AVX2 + FMA (`__m512d`, 8 × f64 lanes) under the
    /// compact-WY chunk kernels, `gebd2` and the bulge chase; every other
    /// kernel runs its AVX2 shell.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl SimdBackend {
    /// Every backend of this build, narrowest first (declaration order):
    /// `auto` selects the last one the CPU supports.
    pub const ALL: &'static [SimdBackend] = &[
        SimdBackend::Scalar,
        #[cfg(target_arch = "x86_64")]
        SimdBackend::Avx2,
        #[cfg(target_arch = "x86_64")]
        SimdBackend::Avx512,
    ];

    /// Human-readable backend name (`"scalar"` / `"avx2"` / `"avx512"`), as
    /// accepted by the `BIDIAG_SIMD` environment variable.
    pub fn name(self) -> &'static str {
        match self {
            SimdBackend::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx512 => "avx512",
        }
    }

    /// f64 lanes per vector register of the backend's widest lane.
    pub fn lanes(self) -> usize {
        match self {
            SimdBackend::Scalar => 1,
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx2 => 4,
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx512 => 8,
        }
    }

    /// Does this CPU support the backend?
    ///
    /// `is_x86_feature_detected!` caches the cpuid result internally, but
    /// the hot path never reaches this: [`backend`] consults it only on the
    /// single undecided→decided transition.
    pub fn available(self) -> bool {
        match self {
            SimdBackend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f") && SimdBackend::Avx2.available()
            }
        }
    }
}

/// The backends this CPU supports, narrowest first.
pub fn available_backends() -> impl Iterator<Item = SimdBackend> {
    SimdBackend::ALL.iter().copied().filter(|be| be.available())
}

const STATE_UNDECIDED: u8 = 0;

/// Cached backend decision: `STATE_UNDECIDED` until the first [`backend`]
/// call (or a [`with_forced_backend`] override) stores one, then the
/// backend's index in [`SimdBackend::ALL`] plus one.
static STATE: AtomicU8 = AtomicU8::new(STATE_UNDECIDED);
/// Number of times the undecided→decided transition ran environment/CPU
/// selection. Pinned to exactly 1 per process by the dispatch tests.
static SELECTIONS: AtomicUsize = AtomicUsize::new(0);
/// Serializes [`with_forced_backend`] scopes (tests in one binary run on
/// multiple threads; a forced backend is process-global state).
static FORCE_LOCK: Mutex<()> = Mutex::new(());

fn encode(be: SimdBackend) -> u8 {
    // `ALL` lists the variants in declaration order.
    be as u8 + 1
}

fn decode(state: u8) -> Option<SimdBackend> {
    SimdBackend::ALL
        .get(usize::from(state).wrapping_sub(1))
        .copied()
}

/// Pure backend-selection policy: combine the `BIDIAG_SIMD` override
/// (`None` = unset) with the backends the CPU supports (`available`,
/// narrowest first, as [`available_backends`] lists them).  `auto` is the
/// widest available one; `Err` carries a diagnostic for misconfigurations
/// (unknown value, or a backend forced on a host without it).
pub fn choose_backend(env: Option<&str>, available: &[SimdBackend]) -> Result<SimdBackend, String> {
    let name = env
        .map(|s| s.trim().to_ascii_lowercase())
        .filter(|s| !s.is_empty() && s != "auto");
    let Some(name) = name else {
        return Ok(*available.last().unwrap_or(&SimdBackend::Scalar));
    };
    match SimdBackend::ALL.iter().find(|be| be.name() == name) {
        Some(be) if available.contains(be) => Ok(*be),
        Some(_) => Err(format!(
            "BIDIAG_SIMD={name} but this CPU does not support that backend"
        )),
        None => Err(format!(
            "BIDIAG_SIMD={name:?} is not recognized (expected auto, scalar, avx2 or avx512)"
        )),
    }
}

#[cold]
fn select_backend() -> SimdBackend {
    let env = std::env::var("BIDIAG_SIMD").ok();
    let mut available = [SimdBackend::Scalar; SimdBackend::ALL.len()];
    let mut n = 0;
    for be in available_backends() {
        available[n] = be;
        n += 1;
    }
    let chosen = match choose_backend(env.as_deref(), &available[..n]) {
        Ok(be) => be,
        Err(msg) => panic!("{msg}"),
    };
    // Only the thread that wins the undecided->decided race records a
    // selection; losers adopt whatever the winner stored.
    match STATE.compare_exchange(
        STATE_UNDECIDED,
        encode(chosen),
        Ordering::AcqRel,
        Ordering::Acquire,
    ) {
        Ok(_) => {
            SELECTIONS.fetch_add(1, Ordering::Relaxed);
            chosen
        }
        Err(existing) => decode(existing).unwrap_or(chosen),
    }
}

/// The process-wide SIMD backend, decided once on first call.
///
/// Hot-path cost after the first call: one relaxed atomic load and a
/// predictable branch. Override with
/// `BIDIAG_SIMD={auto,scalar,avx2,avx512}` (read at decision time), or
/// scoped in tests/benches via [`with_forced_backend`].
#[inline]
pub fn backend() -> SimdBackend {
    match decode(STATE.load(Ordering::Relaxed)) {
        Some(be) => be,
        None => select_backend(),
    }
}

/// How many times backend selection (env + CPU detection) has run in this
/// process. The dispatch tests pin this to exactly 1: kernels must never
/// re-detect per call.
pub fn selection_count() -> usize {
    SELECTIONS.load(Ordering::Relaxed)
}

/// Run `f` with the backend forced to `be`, restoring the previous decision
/// state afterwards (even on panic). Scopes are serialized by a global lock
/// so concurrent tests cannot observe each other's forced backend.
///
/// Forcing a backend the CPU does not support panics.
/// This is a test/bench hook; production code selects via [`backend`].
pub fn with_forced_backend<R>(be: SimdBackend, f: impl FnOnce() -> R) -> R {
    let _guard = FORCE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    assert!(
        be.available(),
        "cannot force the {} backend: this CPU does not support it",
        be.name()
    );
    struct Restore(u8);
    impl Drop for Restore {
        fn drop(&mut self) {
            STATE.store(self.0, Ordering::Release);
        }
    }
    let _restore = Restore(STATE.load(Ordering::Acquire));
    STATE.store(encode(be), Ordering::Release);
    f()
}

/// `f` under every backend the CPU supports, each forced in turn: the
/// scalar result first, then the wider ones.  The loop of the
/// forced-backend equivalence tests.
pub fn on_each_backend<R>(f: impl Fn() -> R) -> Vec<(SimdBackend, R)> {
    available_backends()
        .map(|be| (be, with_forced_backend(be, &f)))
        .collect()
}

// ---------------------------------------------------------------------------
// Lane abstraction
// ---------------------------------------------------------------------------

/// One register's worth of `f64` arithmetic: the abstraction each generic
/// kernel body is written against.
///
/// # Safety
///
/// Every method is `unsafe` under a single contract:
///
/// * the CPU supports the lane's instruction set (trivially true for
///   [`ScalarLane`]; AVX2+FMA for [`Avx2Lane`], AVX-512F on top for
///   [`Avx512Lane`] — guaranteed by constructing them only inside
///   `#[target_feature]` wrappers that enable those features), and
/// * for `load`/`store`, `i + Self::LANES <= p.len()`; for
///   `load_head`/`store_head` of `k` lanes, `1 <= k <= Self::LANES` and
///   `i + k <= p.len()`; for `transpose`, the bound of `load`/`store` for
///   the last vector of the block on either side.
pub trait SimdLane: Copy {
    /// Number of `f64` lanes per register.
    const LANES: usize;
    /// The register type.
    type V: Copy;

    /// Broadcast `x` into all lanes.
    ///
    /// # Safety
    /// See the trait-level contract.
    unsafe fn splat(self, x: f64) -> Self::V;
    /// All-zero register.
    ///
    /// # Safety
    /// See the trait-level contract.
    unsafe fn zero(self) -> Self::V;
    /// Load `LANES` values from `p[i..]`.
    ///
    /// # Safety
    /// See the trait-level contract; requires `i + LANES <= p.len()`.
    unsafe fn load(self, p: &[f64], i: usize) -> Self::V;
    /// Store `LANES` values to `p[i..]`.
    ///
    /// # Safety
    /// See the trait-level contract; requires `i + LANES <= p.len()`.
    unsafe fn store(self, p: &mut [f64], i: usize, v: Self::V);
    /// Load the `k` values `p[i..i + k]` into the first `k` lanes and zero
    /// into the others: the last register of a run that does not fill it.
    /// Nothing at or past `p[i + k]` is read, so `p` may end there.
    ///
    /// # Safety
    /// See the trait-level contract; requires `1 <= k <= LANES` and
    /// `i + k <= p.len()`.
    unsafe fn load_head(self, p: &[f64], i: usize, k: usize) -> Self::V;
    /// Store the first `k` lanes of `v` to `p[i..i + k]`; nothing at or past
    /// `p[i + k]` is written (or read).
    ///
    /// # Safety
    /// See the trait-level contract; requires `1 <= k <= LANES` and
    /// `i + k <= p.len()`.
    unsafe fn store_head(self, p: &mut [f64], i: usize, k: usize, v: Self::V);
    /// Lane-wise `a + b`.
    ///
    /// # Safety
    /// See the trait-level contract.
    unsafe fn add(self, a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise `a * b`.
    ///
    /// # Safety
    /// See the trait-level contract.
    unsafe fn mul(self, a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise `a * b + c` — **fused** on AVX2, **unfused** on scalar
    /// (see the module-level numerical contract).
    ///
    /// # Safety
    /// See the trait-level contract.
    unsafe fn mul_add(self, a: Self::V, b: Self::V, c: Self::V) -> Self::V;
    /// Horizontal sum of all lanes.
    ///
    /// # Safety
    /// See the trait-level contract.
    unsafe fn reduce_sum(self, a: Self::V) -> f64;
    /// Transpose one `LANES x LANES` block: column `c` of the block is
    /// `src[c * lds..][..LANES]`, and row `r` of it is written to
    /// `dst[r * ldd..][..LANES]`.  Element by element here; the vector
    /// lanes do it in registers.
    ///
    /// # Safety
    /// See the trait-level contract; requires
    /// `(LANES - 1) * lds + LANES <= src.len()` and
    /// `(LANES - 1) * ldd + LANES <= dst.len()`.
    #[inline(always)]
    unsafe fn transpose(self, src: &[f64], lds: usize, dst: &mut [f64], ldd: usize) {
        for c in 0..Self::LANES {
            for r in 0..Self::LANES {
                dst[r * ldd + c] = src[c * lds + r];
            }
        }
    }
}

/// `LANES = 1` lane: plain `f64` arithmetic, no ISA requirements. The
/// generic bodies instantiated with this lane are the portable fallback
/// kernels (and match the pre-SIMD scalar code bit-for-bit).
#[derive(Clone, Copy)]
pub struct ScalarLane;

impl SimdLane for ScalarLane {
    const LANES: usize = 1;
    type V = f64;

    #[inline(always)]
    unsafe fn splat(self, x: f64) -> f64 {
        x
    }
    #[inline(always)]
    unsafe fn zero(self) -> f64 {
        0.0
    }
    #[inline(always)]
    unsafe fn load(self, p: &[f64], i: usize) -> f64 {
        debug_assert!(i < p.len());
        // SAFETY: caller guarantees i + LANES (= 1) <= p.len().
        unsafe { *p.get_unchecked(i) }
    }
    #[inline(always)]
    unsafe fn store(self, p: &mut [f64], i: usize, v: f64) {
        debug_assert!(i < p.len());
        // SAFETY: caller guarantees i + LANES (= 1) <= p.len().
        unsafe {
            *p.get_unchecked_mut(i) = v;
        }
    }
    #[inline(always)]
    unsafe fn load_head(self, p: &[f64], i: usize, k: usize) -> f64 {
        debug_assert!(k == 1 && i < p.len());
        // SAFETY: one lane, so the head is the register: `i + 1 <= p.len()`.
        unsafe { self.load(p, i) }
    }
    #[inline(always)]
    unsafe fn store_head(self, p: &mut [f64], i: usize, k: usize, v: f64) {
        debug_assert!(k == 1 && i < p.len());
        // SAFETY: one lane, so the head is the register: `i + 1 <= p.len()`.
        unsafe { self.store(p, i, v) }
    }
    #[inline(always)]
    unsafe fn add(self, a: f64, b: f64) -> f64 {
        a + b
    }
    #[inline(always)]
    unsafe fn mul(self, a: f64, b: f64) -> f64 {
        a * b
    }
    #[inline(always)]
    unsafe fn mul_add(self, a: f64, b: f64, c: f64) -> f64 {
        // Deliberately unfused: keeps the fallback free of soft-float fma
        // on hosts without the instruction, and bit-identical to the
        // pre-SIMD kernel bodies.
        a * b + c
    }
    #[inline(always)]
    unsafe fn reduce_sum(self, a: f64) -> f64 {
        a
    }
}

/// AVX2+FMA lane: `__m256d`, 4 × f64.
///
/// Constructed only via [`Avx2Lane::new_unchecked`] inside
/// `#[target_feature(enable = "avx2,fma")]` wrappers, so its methods always
/// execute with the features they require.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub struct Avx2Lane(());

#[cfg(target_arch = "x86_64")]
impl Avx2Lane {
    /// Construct the AVX2 lane token.
    ///
    /// # Safety
    /// The caller must guarantee the CPU supports AVX2 and FMA (e.g. by
    /// being inside a `#[target_feature(enable = "avx2,fma")]` function
    /// reached through a [`SimdBackend::available`] check).
    #[inline(always)]
    pub unsafe fn new_unchecked() -> Self {
        Avx2Lane(())
    }

    /// The `vmaskmovpd` mask of the first `k` lanes: a window of four into
    /// a table of four set and four clear sign bits, sliding with `k`.
    ///
    /// # Safety
    /// AVX2 (asserted by the lane token) and `k <= 4`.
    #[inline(always)]
    unsafe fn head_mask(k: usize) -> core::arch::x86_64::__m256i {
        const TABLE: [i64; 8] = [-1, -1, -1, -1, 0, 0, 0, 0];
        debug_assert!(k <= 4);
        // SAFETY: `4 - k + 4 <= 8` for `k <= 4`, so the unaligned 32-byte
        // load stays inside the table.
        unsafe { core::arch::x86_64::_mm256_loadu_si256(TABLE.as_ptr().add(4 - k).cast()) }
    }
}

#[cfg(target_arch = "x86_64")]
impl SimdLane for Avx2Lane {
    const LANES: usize = 4;
    type V = core::arch::x86_64::__m256d;

    #[inline(always)]
    unsafe fn splat(self, x: f64) -> Self::V {
        // SAFETY: constructing an Avx2Lane asserts AVX2 support.
        unsafe { core::arch::x86_64::_mm256_set1_pd(x) }
    }
    #[inline(always)]
    unsafe fn zero(self) -> Self::V {
        // SAFETY: constructing an Avx2Lane asserts AVX2 support.
        unsafe { core::arch::x86_64::_mm256_setzero_pd() }
    }
    #[inline(always)]
    unsafe fn load(self, p: &[f64], i: usize) -> Self::V {
        debug_assert!(i + 4 <= p.len());
        // SAFETY: caller guarantees i + LANES (= 4) <= p.len(); loadu has no
        // alignment requirement; AVX2 support is asserted by the lane token.
        unsafe { core::arch::x86_64::_mm256_loadu_pd(p.as_ptr().add(i)) }
    }
    #[inline(always)]
    unsafe fn store(self, p: &mut [f64], i: usize, v: Self::V) {
        debug_assert!(i + 4 <= p.len());
        // SAFETY: caller guarantees i + LANES (= 4) <= p.len(); storeu has no
        // alignment requirement; AVX2 support is asserted by the lane token.
        unsafe { core::arch::x86_64::_mm256_storeu_pd(p.as_mut_ptr().add(i), v) }
    }
    #[inline(always)]
    unsafe fn load_head(self, p: &[f64], i: usize, k: usize) -> Self::V {
        debug_assert!((1..=4).contains(&k) && i + k <= p.len());
        // SAFETY: caller guarantees 1 <= k <= 4 and i + k <= p.len();
        // `vmaskmovpd` neither reads nor faults on the lanes its mask clears,
        // and the mask sets the first k; AVX2 is asserted by the lane token.
        unsafe { core::arch::x86_64::_mm256_maskload_pd(p.as_ptr().add(i), Self::head_mask(k)) }
    }
    #[inline(always)]
    unsafe fn store_head(self, p: &mut [f64], i: usize, k: usize, v: Self::V) {
        debug_assert!((1..=4).contains(&k) && i + k <= p.len());
        // SAFETY: as in `load_head`; the cleared lanes are not written.
        unsafe {
            core::arch::x86_64::_mm256_maskstore_pd(p.as_mut_ptr().add(i), Self::head_mask(k), v)
        }
    }
    #[inline(always)]
    unsafe fn add(self, a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: constructing an Avx2Lane asserts AVX2 support.
        unsafe { core::arch::x86_64::_mm256_add_pd(a, b) }
    }
    #[inline(always)]
    unsafe fn mul(self, a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: constructing an Avx2Lane asserts AVX2 support.
        unsafe { core::arch::x86_64::_mm256_mul_pd(a, b) }
    }
    #[inline(always)]
    unsafe fn mul_add(self, a: Self::V, b: Self::V, c: Self::V) -> Self::V {
        // SAFETY: constructing an Avx2Lane asserts AVX2+FMA support.
        unsafe { core::arch::x86_64::_mm256_fmadd_pd(a, b, c) }
    }
    #[inline(always)]
    unsafe fn reduce_sum(self, a: Self::V) -> f64 {
        use core::arch::x86_64::*;
        // SAFETY: constructing an Avx2Lane asserts AVX2 support (the SSE2
        // ops below are a strict subset).
        unsafe {
            let lo = _mm256_castpd256_pd128(a);
            let hi = _mm256_extractf128_pd::<1>(a);
            let s2 = _mm_add_pd(lo, hi);
            let s1 = _mm_add_sd(s2, _mm_unpackhi_pd(s2, s2));
            _mm_cvtsd_f64(s1)
        }
    }
    #[inline(always)]
    unsafe fn transpose(self, src: &[f64], lds: usize, dst: &mut [f64], ldd: usize) {
        use core::arch::x86_64::*;
        // SAFETY: the caller guarantees that the four vectors `lds` apart
        // lie inside `src` and the four `ldd` apart inside `dst`; AVX2
        // support is asserted by the lane token.
        unsafe {
            let (c0, c1) = (self.load(src, 0), self.load(src, lds));
            let (c2, c3) = (self.load(src, 2 * lds), self.load(src, 3 * lds));
            // 64-bit interleave inside each 128-bit half, then pair halves.
            let (e0, o0) = (_mm256_unpacklo_pd(c0, c1), _mm256_unpackhi_pd(c0, c1));
            let (e1, o1) = (_mm256_unpacklo_pd(c2, c3), _mm256_unpackhi_pd(c2, c3));
            self.store(dst, 0, _mm256_permute2f128_pd::<0x20>(e0, e1));
            self.store(dst, ldd, _mm256_permute2f128_pd::<0x20>(o0, o1));
            self.store(dst, 2 * ldd, _mm256_permute2f128_pd::<0x31>(e0, e1));
            self.store(dst, 3 * ldd, _mm256_permute2f128_pd::<0x31>(o0, o1));
        }
    }
}

/// AVX-512F lane: `__m512d`, 8 × f64.
///
/// Constructed only via [`Avx512Lane::new_unchecked`] inside
/// `#[target_feature(enable = "avx512f,avx2,fma")]` wrappers, so its methods
/// always execute with the features they require.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub struct Avx512Lane(());

#[cfg(target_arch = "x86_64")]
impl Avx512Lane {
    /// Construct the AVX-512 lane token.
    ///
    /// # Safety
    /// The caller must guarantee the CPU supports AVX-512F (e.g. by being
    /// inside a `#[target_feature(enable = "avx512f,avx2,fma")]` function
    /// reached through a [`check_avx512`]).
    #[inline(always)]
    pub unsafe fn new_unchecked() -> Self {
        Avx512Lane(())
    }

    /// The `__mmask8` of the first `k <= 8` lanes.
    #[inline(always)]
    fn head_mask(k: usize) -> u8 {
        debug_assert!(k <= 8);
        ((1u32 << k) - 1) as u8
    }
}

#[cfg(target_arch = "x86_64")]
impl SimdLane for Avx512Lane {
    const LANES: usize = 8;
    type V = core::arch::x86_64::__m512d;

    #[inline(always)]
    unsafe fn splat(self, x: f64) -> Self::V {
        // SAFETY: constructing an Avx512Lane asserts AVX-512F support.
        unsafe { core::arch::x86_64::_mm512_set1_pd(x) }
    }
    #[inline(always)]
    unsafe fn zero(self) -> Self::V {
        // SAFETY: constructing an Avx512Lane asserts AVX-512F support.
        unsafe { core::arch::x86_64::_mm512_setzero_pd() }
    }
    #[inline(always)]
    unsafe fn load(self, p: &[f64], i: usize) -> Self::V {
        debug_assert!(i + 8 <= p.len());
        // SAFETY: caller guarantees i + LANES (= 8) <= p.len(); loadu has no
        // alignment requirement; AVX-512F is asserted by the lane token.
        unsafe { core::arch::x86_64::_mm512_loadu_pd(p.as_ptr().add(i)) }
    }
    #[inline(always)]
    unsafe fn store(self, p: &mut [f64], i: usize, v: Self::V) {
        debug_assert!(i + 8 <= p.len());
        // SAFETY: caller guarantees i + LANES (= 8) <= p.len(); storeu has no
        // alignment requirement; AVX-512F is asserted by the lane token.
        unsafe { core::arch::x86_64::_mm512_storeu_pd(p.as_mut_ptr().add(i), v) }
    }
    #[inline(always)]
    unsafe fn load_head(self, p: &[f64], i: usize, k: usize) -> Self::V {
        debug_assert!((1..=8).contains(&k) && i + k <= p.len());
        // SAFETY: caller guarantees 1 <= k <= 8 and i + k <= p.len(); a
        // masked `vmovupd` neither reads nor faults on the lanes its
        // `__mmask8` clears, and the mask sets the first k; AVX-512F is
        // asserted by the lane token.
        unsafe { core::arch::x86_64::_mm512_maskz_loadu_pd(Self::head_mask(k), p.as_ptr().add(i)) }
    }
    #[inline(always)]
    unsafe fn store_head(self, p: &mut [f64], i: usize, k: usize, v: Self::V) {
        debug_assert!((1..=8).contains(&k) && i + k <= p.len());
        // SAFETY: as in `load_head`; the cleared lanes are not written.
        unsafe {
            core::arch::x86_64::_mm512_mask_storeu_pd(p.as_mut_ptr().add(i), Self::head_mask(k), v)
        }
    }
    #[inline(always)]
    unsafe fn add(self, a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: constructing an Avx512Lane asserts AVX-512F support.
        unsafe { core::arch::x86_64::_mm512_add_pd(a, b) }
    }
    #[inline(always)]
    unsafe fn mul(self, a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: constructing an Avx512Lane asserts AVX-512F support.
        unsafe { core::arch::x86_64::_mm512_mul_pd(a, b) }
    }
    #[inline(always)]
    unsafe fn mul_add(self, a: Self::V, b: Self::V, c: Self::V) -> Self::V {
        // SAFETY: constructing an Avx512Lane asserts AVX-512F support.
        unsafe { core::arch::x86_64::_mm512_fmadd_pd(a, b, c) }
    }
    #[inline(always)]
    unsafe fn reduce_sum(self, a: Self::V) -> f64 {
        // SAFETY: constructing an Avx512Lane asserts AVX-512F support.
        unsafe { core::arch::x86_64::_mm512_reduce_add_pd(a) }
    }
    #[inline(always)]
    unsafe fn transpose(self, src: &[f64], lds: usize, dst: &mut [f64], ldd: usize) {
        use core::arch::x86_64::*;
        // SAFETY: the caller guarantees that the eight vectors `lds` apart
        // lie inside `src` and the eight `ldd` apart inside `dst`; AVX-512F
        // support is asserted by the lane token.
        unsafe {
            // 64-bit interleave inside each 128-bit quarter: quarter `q` of
            // `i[2 * k + h]` holds rows `2 * q + h` of columns `2 * k` and
            // `2 * k + 1`.
            let mut i = [self.zero(); 8];
            for k in 0..4 {
                let (a, b) = (
                    self.load(src, 2 * k * lds),
                    self.load(src, (2 * k + 1) * lds),
                );
                i[2 * k] = _mm512_unpacklo_pd(a, b);
                i[2 * k + 1] = _mm512_unpackhi_pd(a, b);
            }
            // Two rounds of quarter shuffles gather the four quarters of a
            // row: `lo[2 * g + h]` holds rows `h` and `h + 4` of columns
            // `4 * g..4 * g + 4`, `hi[2 * g + h]` rows `h + 2` and `h + 6`.
            let (mut lo, mut hi) = ([self.zero(); 4], [self.zero(); 4]);
            for n in 0..4 {
                let (a, b) = (i[4 * (n / 2) + n % 2], i[4 * (n / 2) + n % 2 + 2]);
                lo[n] = _mm512_shuffle_f64x2::<0x88>(a, b);
                hi[n] = _mm512_shuffle_f64x2::<0xdd>(a, b);
            }
            for h in 0..2 {
                let (l, u) = ((lo[h], lo[h + 2]), (hi[h], hi[h + 2]));
                self.store(dst, h * ldd, _mm512_shuffle_f64x2::<0x88>(l.0, l.1));
                self.store(dst, (h + 2) * ldd, _mm512_shuffle_f64x2::<0x88>(u.0, u.1));
                self.store(dst, (h + 4) * ldd, _mm512_shuffle_f64x2::<0xdd>(l.0, l.1));
                self.store(dst, (h + 6) * ldd, _mm512_shuffle_f64x2::<0xdd>(u.0, u.1));
            }
        }
    }
}

/// Panic unless the AVX2 shells may legally run on this host. Called by
/// every dispatcher (including downstream crates' own dispatch points,
/// e.g. the dqds pass in `bidiag-svd`) before entering a
/// `#[target_feature(enable = "avx2,fma")]` wrapper, which makes the safe
/// dispatch API sound even against a hand-constructed
/// [`SimdBackend::Avx2`].
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub fn check_avx2() {
    assert!(
        SimdBackend::Avx2.available(),
        "an AVX2 kernel was dispatched on a host without AVX2+FMA"
    );
}

/// Panic unless the AVX-512 shells may legally run on this host; the guard
/// in front of every `#[target_feature(enable = "avx512f,avx2,fma")]`
/// wrapper, as [`check_avx2`] is for the 256-bit ones.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub fn check_avx512() {
    assert!(
        SimdBackend::Avx512.available(),
        "an AVX-512 kernel was dispatched on a host without AVX-512F"
    );
}

// ---------------------------------------------------------------------------
// Generic kernel bodies (one body per kernel, instantiated per lane)
// ---------------------------------------------------------------------------

/// `y[i] += a * x[i]`, lane-generic body: callable from another crate's
/// generic kernel body so that it is compiled inside that kernel's own
/// `#[target_feature]` shell (no dispatch of its own).
///
/// # Safety
/// The lane's ISA contract (see [`SimdLane`]) and `x.len() >= y.len()`.
#[inline(always)]
pub unsafe fn axpy_body<S: SimdLane>(s: S, y: &mut [f64], a: f64, x: &[f64]) {
    let n = y.len();
    debug_assert!(x.len() >= n);
    // SAFETY (whole body): caller upholds the lane's ISA contract and
    // x.len() >= y.len() = n; every index below is < n.
    unsafe {
        let av = s.splat(a);
        let mut i = 0;
        while i + S::LANES <= n {
            let yv = s.mul_add(s.load(x, i), av, s.load(y, i));
            s.store(y, i, yv);
            i += S::LANES;
        }
        while i < n {
            y[i] += a * x[i];
            i += 1;
        }
    }
}

/// Dot product with 4 independent accumulators (ILP), reduced as
/// `(a0 + a1) + (a2 + a3)`, then one vector at a time into the first
/// accumulator and a sequential tail shorter than a vector; lane-generic
/// body, public for the same reason as [`axpy_body`].
///
/// # Safety
/// The lane's ISA contract (see [`SimdLane`]) and `b.len() >= a.len()`.
#[inline(always)]
pub unsafe fn dot_body<S: SimdLane>(s: S, a: &[f64], b: &[f64]) -> f64 {
    let n = a.len();
    debug_assert!(b.len() >= n);
    // SAFETY (whole body): caller upholds the lane's ISA contract and
    // b.len() >= a.len() = n; every index below is < n.
    unsafe {
        let mut acc0 = s.zero();
        let mut acc1 = s.zero();
        let mut acc2 = s.zero();
        let mut acc3 = s.zero();
        let step = 4 * S::LANES;
        let mut i = 0;
        while i + step <= n {
            acc0 = s.mul_add(s.load(a, i), s.load(b, i), acc0);
            acc1 = s.mul_add(s.load(a, i + S::LANES), s.load(b, i + S::LANES), acc1);
            acc2 = s.mul_add(
                s.load(a, i + 2 * S::LANES),
                s.load(b, i + 2 * S::LANES),
                acc2,
            );
            acc3 = s.mul_add(
                s.load(a, i + 3 * S::LANES),
                s.load(b, i + 3 * S::LANES),
                acc3,
            );
            i += step;
        }
        while i + S::LANES <= n {
            acc0 = s.mul_add(s.load(a, i), s.load(b, i), acc0);
            i += S::LANES;
        }
        let mut sum = s.reduce_sum(s.add(s.add(acc0, acc1), s.add(acc2, acc3)));
        while i < n {
            sum += a[i] * b[i];
            i += 1;
        }
        sum
    }
}

/// The packed-GEMM register microkernel: `RV` registers of `S::LANES` rows
/// cover the `MR`-row tile; `NR` broadcast-FMA columns. `RV * LANES == MR`.
/// Contract: `ap.len() >= kc * MR`, `bp.len() >= kc * NR`.
#[inline(always)]
unsafe fn microkernel_body<S: SimdLane, const RV: usize>(
    s: S,
    kc: usize,
    ap: &[f64],
    bp: &[f64],
) -> [[f64; MR]; NR] {
    debug_assert_eq!(RV * S::LANES, MR);
    debug_assert!(ap.len() >= kc * MR && bp.len() >= kc * NR);
    // SAFETY (whole body): caller upholds the lane's ISA contract,
    // ap.len() >= kc*MR and bp.len() >= kc*NR; loads read a-panel index
    // l*MR + r*LANES + LANES <= kc*MR and b-panel index l*NR + j < kc*NR;
    // stores write out[j][r*LANES..r*LANES+LANES] within MR.
    unsafe {
        let mut acc = [[s.zero(); RV]; NR];
        for l in 0..kc {
            let mut av = [s.zero(); RV];
            for (r, avr) in av.iter_mut().enumerate() {
                *avr = s.load(ap, l * MR + r * S::LANES);
            }
            for (j, accj) in acc.iter_mut().enumerate() {
                let bj = s.splat(*bp.get_unchecked(l * NR + j));
                for (r, accjr) in accj.iter_mut().enumerate() {
                    *accjr = s.mul_add(av[r], bj, *accjr);
                }
            }
        }
        let mut out = [[0.0f64; MR]; NR];
        for (outj, accj) in out.iter_mut().zip(&acc) {
            for (r, accjr) in accj.iter().enumerate() {
                s.store(outj, r * S::LANES, *accjr);
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// AVX2 target_feature shells
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2_shells {
    use super::*;

    /// # Safety
    /// Caller must guarantee AVX2+FMA and `x.len() >= y.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn axpy(y: &mut [f64], a: f64, x: &[f64]) {
        // SAFETY: inside this target_feature fn AVX2+FMA are enabled, so
        // constructing the lane token is sound; slice contract forwarded.
        unsafe { axpy_body(Avx2Lane::new_unchecked(), y, a, x) }
    }

    /// # Safety
    /// Caller must guarantee AVX2+FMA and `b.len() >= a.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot(a: &[f64], b: &[f64]) -> f64 {
        // SAFETY: as in `axpy`.
        unsafe { dot_body(Avx2Lane::new_unchecked(), a, b) }
    }

    /// # Safety
    /// Caller must guarantee AVX2+FMA, `ap.len() >= kc*MR`, `bp.len() >= kc*NR`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn microkernel(kc: usize, ap: &[f64], bp: &[f64]) -> [[f64; MR]; NR] {
        // SAFETY: as in `axpy`; MR = 8 = 2 registers * 4 lanes.
        unsafe { microkernel_body::<Avx2Lane, 2>(Avx2Lane::new_unchecked(), kc, ap, bp) }
    }
}

// ---------------------------------------------------------------------------
// Safe dispatchers
// ---------------------------------------------------------------------------

/// `y += a * x` over the dispatched backend. Panics unless
/// `x.len() >= y.len()`.
#[inline]
pub fn axpy(be: SimdBackend, y: &mut [f64], a: f64, x: &[f64]) {
    assert!(x.len() >= y.len());
    match be {
        // SAFETY: scalar lane has no ISA requirements; lengths checked above.
        SimdBackend::Scalar => unsafe { axpy_body(ScalarLane, y, a, x) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: check_avx2 verifies AVX2+FMA; lengths checked above.
        SimdBackend::Avx2 | SimdBackend::Avx512 => {
            check_avx2();
            unsafe { avx2_shells::axpy(y, a, x) }
        }
    }
}

/// Dot product over the dispatched backend. Panics unless
/// `b.len() >= a.len()`.
#[inline]
pub fn dot(be: SimdBackend, a: &[f64], b: &[f64]) -> f64 {
    assert!(b.len() >= a.len());
    match be {
        // SAFETY: scalar lane has no ISA requirements; lengths checked above.
        SimdBackend::Scalar => unsafe { dot_body(ScalarLane, a, b) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: check_avx2 verifies AVX2+FMA; lengths checked above.
        SimdBackend::Avx2 | SimdBackend::Avx512 => {
            check_avx2();
            unsafe { avx2_shells::dot(a, b) }
        }
    }
}

/// The `MR x NR` packed-GEMM register microkernel:
/// `out[j][i] = sum_l ap[l*MR + i] * bp[l*NR + j]` (a rank-1 update per
/// depth step, broadcast-FMA on AVX2). Panics unless `ap.len() >= kc*MR`
/// and `bp.len() >= kc*NR`.
#[inline]
pub fn microkernel_8x4(be: SimdBackend, kc: usize, ap: &[f64], bp: &[f64]) -> [[f64; MR]; NR] {
    assert!(ap.len() >= kc * MR && bp.len() >= kc * NR);
    match be {
        // SAFETY: scalar lane has no ISA requirements; lengths checked
        // above; MR = 8 = 8 registers * 1 lane.
        SimdBackend::Scalar => unsafe { microkernel_body::<ScalarLane, 8>(ScalarLane, kc, ap, bp) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: check_avx2 verifies AVX2+FMA; lengths checked above.
        SimdBackend::Avx2 | SimdBackend::Avx512 => {
            check_avx2();
            unsafe { avx2_shells::microkernel(kc, ap, bp) }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(a: f64, b: f64) -> f64 {
        (a - b).abs() / b.abs().max(1.0)
    }

    /// Backend-equivalence tolerance for length-`n` accumulations: the two
    /// backends differ by ~1 ulp per fused-vs-unfused multiply-add, so the
    /// normwise gap grows like sqrt(n) * 1e-15 (element-wise kernels with no
    /// accumulation are pinned at a flat 1e-15).
    fn acc_tol(n: usize) -> f64 {
        1e-15 * (n as f64).sqrt().max(1.0)
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn choose_backend_policy() {
        use SimdBackend::*;
        let (none, x86_256, x86_512) = (&[Scalar][..], &[Scalar, Avx2][..], SimdBackend::ALL);
        // `ALL` is in declaration order: the cached state is an index into it.
        for (i, &be) in SimdBackend::ALL.iter().enumerate() {
            assert_eq!(be as usize, i);
            assert_eq!(decode(encode(be)), Some(be));
        }
        assert_eq!(decode(STATE_UNDECIDED), None);
        // auto / unset pick the widest backend the CPU supports
        for auto in [None, Some("auto"), Some(""), Some(" Auto ")] {
            assert_eq!(choose_backend(auto, x86_512), Ok(Avx512));
            assert_eq!(choose_backend(auto, x86_256), Ok(Avx2));
            assert_eq!(choose_backend(auto, none), Ok(Scalar));
        }
        // explicit scalar always honored
        assert_eq!(choose_backend(Some("scalar"), x86_512), Ok(Scalar));
        assert_eq!(choose_backend(Some("scalar"), none), Ok(Scalar));
        // a narrower backend can be forced on a wider host
        assert_eq!(choose_backend(Some("avx2"), x86_512), Ok(Avx2));
        assert_eq!(choose_backend(Some("avx512"), x86_512), Ok(Avx512));
        // case/whitespace insensitive
        assert_eq!(choose_backend(Some(" AVX2 "), x86_256), Ok(Avx2));
        assert_eq!(choose_backend(Some("Scalar"), x86_256), Ok(Scalar));
        // a backend forced on an incapable host is an error, not a silent fallback
        assert!(choose_backend(Some("avx2"), none).is_err());
        assert!(choose_backend(Some("avx512"), x86_256).is_err());
        assert!(choose_backend(Some("avx512"), none).is_err());
        // garbage is an error
        assert!(choose_backend(Some("sse9"), x86_512).is_err());
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn forcing_or_dispatching_an_unsupported_backend_panics() {
        for &be in SimdBackend::ALL {
            let forced = std::panic::catch_unwind(|| with_forced_backend(be, backend));
            assert_eq!(forced.ok(), be.available().then_some(be));
        }
        // The guards in front of the `#[target_feature]` shells.
        let guards: [(fn(), SimdBackend); 2] = [
            (check_avx2, SimdBackend::Avx2),
            (check_avx512, SimdBackend::Avx512),
        ];
        for (guard, be) in guards {
            assert_eq!(std::panic::catch_unwind(guard).is_ok(), be.available());
        }
        assert_eq!(available_backends().next(), Some(SimdBackend::Scalar));
        assert!(available_backends().all(SimdBackend::available));
    }

    #[test]
    fn backend_decided_exactly_once() {
        // Hammer backend() from several threads; selection must run once
        // per process no matter who wins the race (other tests in this
        // binary may already have decided it — still exactly once).
        let first = backend();
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| (0..1000).map(|_| backend()).next_back().unwrap()))
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), first);
        }
        assert_eq!(
            selection_count(),
            1,
            "backend selection must run exactly once"
        );
        for _ in 0..1000 {
            let _ = backend();
        }
        assert_eq!(
            selection_count(),
            1,
            "backend() must not re-detect per call"
        );
    }

    #[test]
    fn forced_backend_is_scoped_and_restored() {
        let before = backend();
        for be in available_backends() {
            assert_eq!(with_forced_backend(be, backend), be);
            assert_eq!(backend(), before);
        }
    }

    fn test_vec(n: usize, seed: u64) -> Vec<f64> {
        // Small deterministic LCG; values in [-1, 1).
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect()
    }

    /// Remainder-straddling lengths around the 4-lane and 16-element steps.
    const SIZES: [usize; 13] = [1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 64, 97];

    #[test]
    fn primitives_scalar_matches_naive() {
        for &n in &SIZES {
            let x = test_vec(n, 1);
            let y0 = test_vec(n, 2);
            let mut y = y0.clone();
            axpy(SimdBackend::Scalar, &mut y, 0.37, &x);
            for i in 0..n {
                assert_eq!(y[i], y0[i] + 0.37 * x[i]);
            }
            let naive: f64 = x.iter().zip(&y0).map(|(a, b)| a * b).sum();
            assert!(rel(dot(SimdBackend::Scalar, &x, &y0), naive) < 1e-13);
        }
    }

    #[test]
    fn primitives_match_scalar_on_every_backend() {
        // Under `Avx512` these run the AVX2 shells: the arm is what is pinned.
        for be in available_backends().skip(1) {
            for &n in &SIZES {
                let x = test_vec(n, 3);
                let y0 = test_vec(n, 7);

                let mut ys = y0.clone();
                let mut yv = y0.clone();
                axpy(SimdBackend::Scalar, &mut ys, 0.73, &x);
                axpy(be, &mut yv, 0.73, &x);
                for i in 0..n {
                    assert!(rel(yv[i], ys[i]) < 1e-15, "{be:?} axpy n={n} i={i}");
                }

                assert!(
                    rel(dot(be, &x, &y0), dot(SimdBackend::Scalar, &x, &y0)) < acc_tol(n),
                    "{be:?} dot n={n}"
                );
            }
        }
    }

    #[test]
    fn microkernel_matches_scalar_on_every_backend() {
        for be in available_backends().skip(1) {
            for &kc in &SIZES {
                let ap = test_vec(kc * MR, 8);
                let bp = test_vec(kc * NR, 9);
                let cs = microkernel_8x4(SimdBackend::Scalar, kc, &ap, &bp);
                let cv = microkernel_8x4(be, kc, &ap, &bp);
                for j in 0..NR {
                    for i in 0..MR {
                        assert!(
                            rel(cv[j][i], cs[j][i]) < acc_tol(kc),
                            "{be:?} kc={kc} i={i} j={j}"
                        );
                    }
                }
            }
        }
    }

    /// `S::transpose` on a block cut out of larger arrays, checked entry by
    /// entry (and that nothing outside the block's rows is written).
    ///
    /// # Safety
    /// The lane's ISA contract.
    #[inline(always)]
    unsafe fn check_transpose<S: SimdLane>(s: S) {
        let (lds, ldd) = (S::LANES + 3, S::LANES + 5);
        let src = test_vec(S::LANES * lds, 21);
        let mut dst = vec![-7.0; S::LANES * ldd];
        // SAFETY: both arrays hold LANES vectors at their leading dimension.
        unsafe { s.transpose(&src[1..], lds, &mut dst[2..], ldd) };
        for (at, &x) in dst.iter().enumerate() {
            let want = match at.checked_sub(2).map(|k| (k / ldd, k % ldd)) {
                Some((r, c)) if c < S::LANES => src[1 + c * lds + r],
                _ => -7.0,
            };
            assert_eq!(x, want, "lanes={} dst[{at}]", S::LANES);
        }
    }

    #[test]
    fn lane_transposes_are_exact() {
        // SAFETY: the scalar lane has no ISA requirements.
        unsafe { check_transpose(ScalarLane) };
        #[cfg(target_arch = "x86_64")]
        {
            #[target_feature(enable = "avx2,fma")]
            unsafe fn avx2() {
                // SAFETY: AVX2+FMA are enabled here.
                unsafe { check_transpose(Avx2Lane::new_unchecked()) }
            }
            #[target_feature(enable = "avx512f,avx2,fma")]
            unsafe fn avx512() {
                // SAFETY: AVX-512F is enabled here.
                unsafe { check_transpose(Avx512Lane::new_unchecked()) }
            }
            if SimdBackend::Avx2.available() {
                // SAFETY: availability checked.
                unsafe { avx2() };
            }
            if SimdBackend::Avx512.available() {
                // SAFETY: availability checked.
                unsafe { avx512() };
            }
        }
    }

    #[test]
    fn microkernel_scalar_matches_naive() {
        for &kc in &SIZES {
            let ap = test_vec(kc * MR, 10);
            let bp = test_vec(kc * NR, 11);
            let c = microkernel_8x4(SimdBackend::Scalar, kc, &ap, &bp);
            for j in 0..NR {
                for i in 0..MR {
                    let naive: f64 = (0..kc).map(|l| ap[l * MR + i] * bp[l * NR + j]).sum();
                    assert!(rel(c[j][i], naive) < 1e-13, "kc={kc} i={i} j={j}");
                }
            }
        }
    }
}
