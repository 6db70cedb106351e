//! Runtime-dispatched SIMD kernel layer.
//!
//! This module is the single home of every explicitly vectorized inner loop
//! in the workspace and of the one way a kernel reaches its instruction
//! set. It follows the faer-rs / pulp pattern: each kernel is written
//! **once** as a generic body over a [`SimdLane`] (a zero-sized token that
//! knows how to load/store/FMA one register's worth of `f64`s), packaged as
//! a value implementing [`LaneKernel`] (pulp's `WithSimd`), and handed to
//! [`dispatch`], which instantiates it with the lane of the backend in force
//! —
//!
//! * [`ScalarLane`] (`LANES = 1`, plain `f64` arithmetic, no ISA
//!   requirements) — this is the portable fallback and is exactly the
//!   scalar code the kernels used before this layer existed,
//! * [`Avx2Lane`] (`LANES = 4`, `__m256d` + FMA via `core::arch`) inside
//!   the `#[target_feature(enable = "avx2,fma")]` shell so LLVM emits
//!   256-bit FMA instructions for it, and
//! * [`Avx512Lane`] (`LANES = 8`, `__m512d`) inside the
//!   `#[target_feature(enable = "avx512f,avx2,fma")]` shell — only where
//!   eight lanes were measured to pay: the compact-WY chunk kernels of
//!   `bidiag_kernels::wy` and the reflector plane of
//!   `bidiag_kernels::householder` under `gebd2` and the bulge chase.  The
//!   GEMM microkernel of this module and the dqds gang opt out
//!   ([`LaneKernel::AVX512`]) and run their AVX2 instantiation under
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
//! [`selection_count`] exposes the number of detections so tests can pin
//! the decided-exactly-once property.
//!
//! [`dispatch`] is the only reader of the decision on a kernel's path: one
//! relaxed atomic load and a predictable branch per call — never a
//! `cpuid`-backed feature test — then [`LaneKernel::scalar`] inline, or one
//! of the two `#[target_feature]` shells of this module, generic over the
//! kernel, which calls [`LaneKernel::avx2`] or [`LaneKernel::avx512`].
//! Those default to [`LaneKernel::run`] with the backend's lane; a kernel
//! whose compile-time constants depend on the lane (register counts, row
//! groups, the chunk kernels' eight-wide scalar rows) overrides them
//! instead.  The kernel's `#[inline(always)]` body is inlined into the
//! shell, so it is compiled with the shell's features.
//!
//! # Safety argument
//!
//! [`SimdLane`] is a safe trait of safe methods, and every `unsafe` of the
//! workspace's kernels is in this module, down to one obligation: **ISA
//! availability**.  [`Avx2Lane`] methods require AVX2+FMA, [`Avx512Lane`]
//! methods AVX-512F on top.  A lane token is the proof: it is minted only
//! by this module's two shells, and [`dispatch`] asserts `check_avx2` /
//! `check_avx512` before calling one (so even a hand-constructed
//! [`SimdBackend::Avx2`] state on a non-AVX2 host panics instead of
//! executing illegal instructions).  Holding a token is therefore enough
//! to call a lane method.  Bounds are no obligation of the caller: the
//! lanes' memory methods cut the slice they touch with checked indexing
//! and panic outside it, so a kernel body is plain safe code.
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
//! Write one safe `#[inline(always)] fn foo_body<S: SimdLane>(...)` using
//! only lane ops plus a scalar tail (or a masked last register); cutting
//! its operands to the lengths it walks lets the compiler drop the lanes'
//! per-access checks.  Wrap its arguments in a struct, implement
//! [`LaneKernel`] for it with an `#[inline(always)]` `run` that calls it,
//! and call [`dispatch`] with a value of it — no `unsafe`, no
//! `#[target_feature]` function, no backend `match`, no lane token of your
//! own.  Set [`LaneKernel::AVX512`] to `false` unless a measurement earns
//! the kernel eight lanes.  Then extend the forced-backend equivalence
//! tests with the new kernel; they run through [`on_each_backend`].

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
    /// compact-WY chunk kernels, `gebd2` and the bulge chase; a kernel that
    /// opts out ([`LaneKernel::AVX512`]) runs its AVX2 instantiation.
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
/// Unforced callers are **not** excluded: a kernel another thread runs
/// while a scope is open takes the forced backend, so two unforced runs of
/// one test may run on two backends when a sibling test in the same binary
/// forces one.  A test that compares runs bitwise runs them all inside one
/// scope (or one [`on_each_backend`] closure).
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
/// Every method is safe.  The arithmetic needs nothing but the token: a
/// lane with instruction-set requirements is not constructible outside
/// this module ([`Avx2Lane`] and [`Avx512Lane`] are minted only by
/// [`dispatch`]'s shells, behind the guard of their instruction set), so
/// holding one proves the CPU runs it.  The memory methods check their
/// bounds and panic instead of touching memory outside the slice; see each
/// method's `# Panics`.
pub trait SimdLane: Copy {
    /// Number of `f64` lanes per register.
    const LANES: usize;
    /// The register type.
    type V: Copy;

    /// Broadcast `x` into all lanes.
    fn splat(self, x: f64) -> Self::V;
    /// All-zero register.
    fn zero(self) -> Self::V;
    /// Load `LANES` values from `p[i..]`.
    ///
    /// # Panics
    /// Unless `i + LANES <= p.len()`.
    fn load(self, p: &[f64], i: usize) -> Self::V;
    /// Store `LANES` values to `p[i..]`.
    ///
    /// # Panics
    /// Unless `i + LANES <= p.len()`.
    fn store(self, p: &mut [f64], i: usize, v: Self::V);
    /// Load the `k` values `p[i..i + k]` into the first `k` lanes and zero
    /// into the others: the last register of a run that does not fill it.
    /// Nothing at or past `p[i + k]` is read, so `p` may end there.
    ///
    /// # Panics
    /// Unless `1 <= k <= LANES` and `i + k <= p.len()`.
    fn load_head(self, p: &[f64], i: usize, k: usize) -> Self::V;
    /// Store the first `k` lanes of `v` to `p[i..i + k]`; nothing at or past
    /// `p[i + k]` is written (or read).
    ///
    /// # Panics
    /// Unless `1 <= k <= LANES` and `i + k <= p.len()`.
    fn store_head(self, p: &mut [f64], i: usize, k: usize, v: Self::V);
    /// Lane-wise `a + b`.
    fn add(self, a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise `a * b`.
    fn mul(self, a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise `a * b + c` — **fused** on AVX2, **unfused** on scalar
    /// (see the module-level numerical contract).
    fn mul_add(self, a: Self::V, b: Self::V, c: Self::V) -> Self::V;
    /// Horizontal sum of all lanes.
    fn reduce_sum(self, a: Self::V) -> f64;
    /// Transpose one `LANES x LANES` block: column `c` of the block is
    /// `src[c * lds..][..LANES]`, and row `r` of it is written to
    /// `dst[r * ldd..][..LANES]`.  Element by element here; the vector
    /// lanes do it in registers.
    ///
    /// # Panics
    /// Unless `(LANES - 1) * lds + LANES <= src.len()` and
    /// `(LANES - 1) * ldd + LANES <= dst.len()`.
    #[inline(always)]
    fn transpose(self, src: &[f64], lds: usize, dst: &mut [f64], ldd: usize) {
        for c in 0..Self::LANES {
            for r in 0..Self::LANES {
                dst[r * ldd + c] = src[c * lds + r];
            }
        }
    }
}

/// Panic unless `1 <= k <= lanes`: the head of a register is neither empty
/// nor wider than the register.
#[inline(always)]
fn check_head(k: usize, lanes: usize) {
    assert!(
        (1..=lanes).contains(&k),
        "a head of {k} lanes on a {lanes}-lane register"
    );
}

/// How many values a `lanes x lanes` block spans in a slice whose vectors
/// start `ld` apart: `(lanes - 1) * ld + lanes`.  The vector lanes'
/// transposes cut both sides to it once and then touch nothing past it.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn block_len(ld: usize, lanes: usize) -> usize {
    ld.checked_mul(lanes - 1)
        .and_then(|n| n.checked_add(lanes))
        .expect("a block that fits in memory")
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
    fn splat(self, x: f64) -> f64 {
        x
    }
    #[inline(always)]
    fn zero(self) -> f64 {
        0.0
    }
    #[inline(always)]
    fn load(self, p: &[f64], i: usize) -> f64 {
        p[i]
    }
    #[inline(always)]
    fn store(self, p: &mut [f64], i: usize, v: f64) {
        p[i] = v;
    }
    #[inline(always)]
    fn load_head(self, p: &[f64], i: usize, k: usize) -> f64 {
        check_head(k, 1);
        p[i]
    }
    #[inline(always)]
    fn store_head(self, p: &mut [f64], i: usize, k: usize, v: f64) {
        check_head(k, 1);
        p[i] = v;
    }
    #[inline(always)]
    fn add(self, a: f64, b: f64) -> f64 {
        a + b
    }
    #[inline(always)]
    fn mul(self, a: f64, b: f64) -> f64 {
        a * b
    }
    #[inline(always)]
    fn mul_add(self, a: f64, b: f64, c: f64) -> f64 {
        // Deliberately unfused: keeps the fallback free of soft-float fma
        // on hosts without the instruction, and bit-identical to the
        // pre-SIMD kernel bodies.
        a * b + c
    }
    #[inline(always)]
    fn reduce_sum(self, a: f64) -> f64 {
        a
    }
}

/// AVX2+FMA lane: `__m256d`, 4 × f64.
///
/// Constructed only by [`dispatch`]'s `#[target_feature(enable =
/// "avx2,fma")]` shell, so its methods always execute with the features
/// they require.  Nothing else can make one — no public field, constructor
/// or `Default`:
///
/// ```compile_fail
/// let _ = bidiag_matrix::simd::Avx2Lane(());
/// ```
/// ```compile_fail
/// let _ = unsafe { bidiag_matrix::simd::Avx2Lane::new_unchecked() };
/// ```
/// ```compile_fail
/// let _: bidiag_matrix::simd::Avx2Lane = Default::default();
/// ```
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub struct Avx2Lane(());

#[cfg(target_arch = "x86_64")]
impl Avx2Lane {
    /// Construct the AVX2 lane token.
    ///
    /// # Safety
    /// The caller must guarantee the CPU supports AVX2 and FMA (the shell
    /// that calls this is reached only through `check_avx2`).
    #[inline(always)]
    unsafe fn new_unchecked() -> Self {
        Avx2Lane(())
    }

    /// The `vmaskmovpd` mask of the first `k` lanes: a window of four into
    /// a table of four set and four clear sign bits, sliding with `k`.
    /// Panics unless `k <= 4`.
    #[inline(always)]
    fn head_mask(self, k: usize) -> core::arch::x86_64::__m256i {
        const TABLE: [i64; 8] = [-1, -1, -1, -1, 0, 0, 0, 0];
        let window = &TABLE[4 - k..][..4];
        // SAFETY: `window` is four `i64`s, the 32 bytes the unaligned load
        // reads; AVX2 is proven by the lane token.
        unsafe { core::arch::x86_64::_mm256_loadu_si256(window.as_ptr().cast()) }
    }
}

#[cfg(target_arch = "x86_64")]
impl SimdLane for Avx2Lane {
    const LANES: usize = 4;
    type V = core::arch::x86_64::__m256d;

    #[inline(always)]
    fn splat(self, x: f64) -> Self::V {
        // SAFETY: the lane token proves AVX2.
        unsafe { core::arch::x86_64::_mm256_set1_pd(x) }
    }
    #[inline(always)]
    fn zero(self) -> Self::V {
        // SAFETY: the lane token proves AVX2.
        unsafe { core::arch::x86_64::_mm256_setzero_pd() }
    }
    #[inline(always)]
    fn load(self, p: &[f64], i: usize) -> Self::V {
        let p = &p[i..i + 4];
        // SAFETY: `p` is the four values read; loadu has no alignment
        // requirement; the lane token proves AVX2.
        unsafe { core::arch::x86_64::_mm256_loadu_pd(p.as_ptr()) }
    }
    #[inline(always)]
    fn store(self, p: &mut [f64], i: usize, v: Self::V) {
        let p = &mut p[i..i + 4];
        // SAFETY: `p` is the four values written; storeu has no alignment
        // requirement; the lane token proves AVX2.
        unsafe { core::arch::x86_64::_mm256_storeu_pd(p.as_mut_ptr(), v) }
    }
    #[inline(always)]
    fn load_head(self, p: &[f64], i: usize, k: usize) -> Self::V {
        check_head(k, 4);
        let p = &p[i..i + k];
        // SAFETY: `vmaskmovpd` neither reads nor faults on the lanes its
        // mask clears, and the mask sets the first `k`, the length of `p`;
        // the lane token proves AVX2.
        unsafe { core::arch::x86_64::_mm256_maskload_pd(p.as_ptr(), self.head_mask(k)) }
    }
    #[inline(always)]
    fn store_head(self, p: &mut [f64], i: usize, k: usize, v: Self::V) {
        check_head(k, 4);
        let p = &mut p[i..i + k];
        // SAFETY: `vmaskmovpd` neither writes nor faults on the lanes its
        // mask clears, and the mask sets the first `k`, the length of `p`;
        // the lane token proves AVX2.
        unsafe { core::arch::x86_64::_mm256_maskstore_pd(p.as_mut_ptr(), self.head_mask(k), v) }
    }
    #[inline(always)]
    fn add(self, a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: the lane token proves AVX2.
        unsafe { core::arch::x86_64::_mm256_add_pd(a, b) }
    }
    #[inline(always)]
    fn mul(self, a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: the lane token proves AVX2.
        unsafe { core::arch::x86_64::_mm256_mul_pd(a, b) }
    }
    #[inline(always)]
    fn mul_add(self, a: Self::V, b: Self::V, c: Self::V) -> Self::V {
        // SAFETY: the lane token proves AVX2+FMA.
        unsafe { core::arch::x86_64::_mm256_fmadd_pd(a, b, c) }
    }
    #[inline(always)]
    fn reduce_sum(self, a: Self::V) -> f64 {
        use core::arch::x86_64::*;
        // SAFETY: the lane token proves AVX2 (the SSE2 ops below are a
        // strict subset).
        unsafe {
            let lo = _mm256_castpd256_pd128(a);
            let hi = _mm256_extractf128_pd::<1>(a);
            let s2 = _mm_add_pd(lo, hi);
            let s1 = _mm_add_sd(s2, _mm_unpackhi_pd(s2, s2));
            _mm_cvtsd_f64(s1)
        }
    }
    #[inline(always)]
    fn transpose(self, src: &[f64], lds: usize, dst: &mut [f64], ldd: usize) {
        use core::arch::x86_64::*;
        let (src, dst) = (&src[..block_len(lds, 4)], &mut dst[..block_len(ldd, 4)]);
        let (s, d) = (src.as_ptr(), dst.as_mut_ptr());
        // SAFETY: vector `k < 4` of either side is the four values from
        // `k * ld` on, which end at or before `3 * ld + 4`, the length both
        // sides are cut to; the lane token proves AVX2.
        unsafe {
            let (c0, c1) = (_mm256_loadu_pd(s), _mm256_loadu_pd(s.add(lds)));
            let (c2, c3) = (
                _mm256_loadu_pd(s.add(2 * lds)),
                _mm256_loadu_pd(s.add(3 * lds)),
            );
            // 64-bit interleave inside each 128-bit half, then pair halves.
            let (e0, o0) = (_mm256_unpacklo_pd(c0, c1), _mm256_unpackhi_pd(c0, c1));
            let (e1, o1) = (_mm256_unpacklo_pd(c2, c3), _mm256_unpackhi_pd(c2, c3));
            _mm256_storeu_pd(d, _mm256_permute2f128_pd::<0x20>(e0, e1));
            _mm256_storeu_pd(d.add(ldd), _mm256_permute2f128_pd::<0x20>(o0, o1));
            _mm256_storeu_pd(d.add(2 * ldd), _mm256_permute2f128_pd::<0x31>(e0, e1));
            _mm256_storeu_pd(d.add(3 * ldd), _mm256_permute2f128_pd::<0x31>(o0, o1));
        }
    }
}

/// AVX-512F lane: `__m512d`, 8 × f64.
///
/// Constructed only by [`dispatch`]'s `#[target_feature(enable =
/// "avx512f,avx2,fma")]` shell, so its methods always execute with the
/// features they require.  Nothing else can make one — no public field,
/// constructor or `Default`:
///
/// ```compile_fail
/// let _ = bidiag_matrix::simd::Avx512Lane(());
/// ```
/// ```compile_fail
/// let _ = unsafe { bidiag_matrix::simd::Avx512Lane::new_unchecked() };
/// ```
/// ```compile_fail
/// let _: bidiag_matrix::simd::Avx512Lane = Default::default();
/// ```
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub struct Avx512Lane(());

#[cfg(target_arch = "x86_64")]
impl Avx512Lane {
    /// Construct the AVX-512 lane token.
    ///
    /// # Safety
    /// The caller must guarantee the CPU supports AVX-512F on top of
    /// AVX2+FMA (the shell that calls this is reached only through
    /// `check_avx512`).
    #[inline(always)]
    unsafe fn new_unchecked() -> Self {
        Avx512Lane(())
    }

    /// The `__mmask8` of the first `k <= 8` lanes.
    #[inline(always)]
    fn head_mask(k: usize) -> u8 {
        ((1u32 << k) - 1) as u8
    }
}

#[cfg(target_arch = "x86_64")]
impl SimdLane for Avx512Lane {
    const LANES: usize = 8;
    type V = core::arch::x86_64::__m512d;

    #[inline(always)]
    fn splat(self, x: f64) -> Self::V {
        // SAFETY: the lane token proves AVX-512F.
        unsafe { core::arch::x86_64::_mm512_set1_pd(x) }
    }
    #[inline(always)]
    fn zero(self) -> Self::V {
        // SAFETY: the lane token proves AVX-512F.
        unsafe { core::arch::x86_64::_mm512_setzero_pd() }
    }
    #[inline(always)]
    fn load(self, p: &[f64], i: usize) -> Self::V {
        let p = &p[i..i + 8];
        // SAFETY: `p` is the eight values read; loadu has no alignment
        // requirement; the lane token proves AVX-512F.
        unsafe { core::arch::x86_64::_mm512_loadu_pd(p.as_ptr()) }
    }
    #[inline(always)]
    fn store(self, p: &mut [f64], i: usize, v: Self::V) {
        let p = &mut p[i..i + 8];
        // SAFETY: `p` is the eight values written; storeu has no alignment
        // requirement; the lane token proves AVX-512F.
        unsafe { core::arch::x86_64::_mm512_storeu_pd(p.as_mut_ptr(), v) }
    }
    #[inline(always)]
    fn load_head(self, p: &[f64], i: usize, k: usize) -> Self::V {
        check_head(k, 8);
        let p = &p[i..i + k];
        // SAFETY: a masked `vmovupd` neither reads nor faults on the lanes
        // its `__mmask8` clears, and the mask sets the first `k`, the length
        // of `p`; the lane token proves AVX-512F.
        unsafe { core::arch::x86_64::_mm512_maskz_loadu_pd(Self::head_mask(k), p.as_ptr()) }
    }
    #[inline(always)]
    fn store_head(self, p: &mut [f64], i: usize, k: usize, v: Self::V) {
        check_head(k, 8);
        let p = &mut p[i..i + k];
        // SAFETY: a masked `vmovupd` neither writes nor faults on the lanes
        // its `__mmask8` clears, and the mask sets the first `k`, the length
        // of `p`; the lane token proves AVX-512F.
        unsafe { core::arch::x86_64::_mm512_mask_storeu_pd(p.as_mut_ptr(), Self::head_mask(k), v) }
    }
    #[inline(always)]
    fn add(self, a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: the lane token proves AVX-512F.
        unsafe { core::arch::x86_64::_mm512_add_pd(a, b) }
    }
    #[inline(always)]
    fn mul(self, a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: the lane token proves AVX-512F.
        unsafe { core::arch::x86_64::_mm512_mul_pd(a, b) }
    }
    #[inline(always)]
    fn mul_add(self, a: Self::V, b: Self::V, c: Self::V) -> Self::V {
        // SAFETY: the lane token proves AVX-512F.
        unsafe { core::arch::x86_64::_mm512_fmadd_pd(a, b, c) }
    }
    #[inline(always)]
    fn reduce_sum(self, a: Self::V) -> f64 {
        // SAFETY: the lane token proves AVX-512F.
        unsafe { core::arch::x86_64::_mm512_reduce_add_pd(a) }
    }
    #[inline(always)]
    fn transpose(self, src: &[f64], lds: usize, dst: &mut [f64], ldd: usize) {
        use core::arch::x86_64::*;
        let (src, dst) = (&src[..block_len(lds, 8)], &mut dst[..block_len(ldd, 8)]);
        let (s, d) = (src.as_ptr(), dst.as_mut_ptr());
        // SAFETY: vector `k < 8` of either side is the eight values from
        // `k * ld` on, which end at or before `7 * ld + 8`, the length both
        // sides are cut to; the lane token proves AVX-512F.
        unsafe {
            // 64-bit interleave inside each 128-bit quarter: quarter `q` of
            // `i[2 * k + h]` holds rows `2 * q + h` of columns `2 * k` and
            // `2 * k + 1`.
            let mut i = [self.zero(); 8];
            for k in 0..4 {
                let (a, b) = (
                    _mm512_loadu_pd(s.add(2 * k * lds)),
                    _mm512_loadu_pd(s.add((2 * k + 1) * lds)),
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
                _mm512_storeu_pd(d.add(h * ldd), _mm512_shuffle_f64x2::<0x88>(l.0, l.1));
                _mm512_storeu_pd(d.add((h + 2) * ldd), _mm512_shuffle_f64x2::<0x88>(u.0, u.1));
                _mm512_storeu_pd(d.add((h + 4) * ldd), _mm512_shuffle_f64x2::<0xdd>(l.0, l.1));
                _mm512_storeu_pd(d.add((h + 6) * ldd), _mm512_shuffle_f64x2::<0xdd>(u.0, u.1));
            }
        }
    }
}

/// Panic unless the AVX2 shell may legally run on this host: [`dispatch`]
/// calls it before entering the `#[target_feature(enable = "avx2,fma")]`
/// shell, which keeps the safe dispatch sound even against a
/// hand-constructed [`SimdBackend::Avx2`] state.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn check_avx2() {
    assert!(
        SimdBackend::Avx2.available(),
        "an AVX2 kernel was dispatched on a host without AVX2+FMA"
    );
}

/// Panic unless the AVX-512 shell may legally run on this host; the guard
/// in front of the `#[target_feature(enable = "avx512f,avx2,fma")]` shell,
/// as [`check_avx2`] is for the 256-bit one.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn check_avx512() {
    assert!(
        SimdBackend::Avx512.available(),
        "an AVX-512 kernel was dispatched on a host without AVX-512F"
    );
}

// ---------------------------------------------------------------------------
// Dispatch: one trait, one function, two shells
// ---------------------------------------------------------------------------

/// A kernel: a value holding its operands, with one lane-generic body
/// ([`LaneKernel::run`]) that [`dispatch`] instantiates with the lane of
/// the backend in force — the shape of pulp's `WithSimd`.
///
/// Implementations mark `run` (and any entry point they override)
/// `#[inline(always)]`: the body must be inlined into the
/// `#[target_feature]` shell that calls it to be compiled with the shell's
/// instruction set.
pub trait LaneKernel: Sized {
    /// What the kernel returns.
    type Output;

    /// Whether the kernel has a 512-bit body.  `false` runs its AVX2 entry
    /// point under [`SimdBackend::Avx512`] — for a kernel that eight lanes
    /// were not measured to speed up.
    const AVX512: bool = true;

    /// The kernel's body on lane `s`.  A lane token exists only where its
    /// instruction set is available (see the module's safety argument).
    fn run<S: SimdLane>(self, s: S) -> Self::Output;

    /// The kernel under [`SimdBackend::Scalar`]: `run` on [`ScalarLane`]
    /// unless the kernel has constants of its own for the scalar backend.
    #[inline(always)]
    fn scalar(self) -> Self::Output {
        self.run(ScalarLane)
    }

    /// The kernel under [`SimdBackend::Avx2`] (and under
    /// [`SimdBackend::Avx512`] when it opts out of eight lanes), compiled
    /// inside the AVX2 shell: `run` on `s` unless the kernel has constants
    /// of its own for four lanes.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn avx2(self, s: Avx2Lane) -> Self::Output {
        self.run(s)
    }

    /// The kernel under [`SimdBackend::Avx512`], compiled inside the
    /// AVX-512 shell: `run` on `s` unless the kernel has constants of its
    /// own for eight lanes.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn avx512(self, s: Avx512Lane) -> Self::Output {
        self.run(s)
    }
}

/// Run `kernel` on the process-wide backend ([`backend`]): its scalar entry
/// point inline, or, behind the guard of the backend's instruction set, the
/// `#[target_feature]` shell of its lane.  The one way any kernel of the
/// workspace reaches a vector lane.
#[inline]
pub fn dispatch<K: LaneKernel>(kernel: K) -> K::Output {
    match backend() {
        SimdBackend::Scalar => kernel.scalar(),
        #[cfg(target_arch = "x86_64")]
        SimdBackend::Avx512 if K::AVX512 => {
            check_avx512();
            // SAFETY: check_avx512 verified AVX-512F on top of AVX2+FMA.
            unsafe { avx512_shell(kernel) }
        }
        #[cfg(target_arch = "x86_64")]
        SimdBackend::Avx2 | SimdBackend::Avx512 => {
            check_avx2();
            // SAFETY: check_avx2 verified AVX2+FMA.
            unsafe { avx2_shell(kernel) }
        }
    }
}

/// `kernel`'s AVX2 entry point compiled with AVX2+FMA enabled.
///
/// # Safety
/// The CPU supports AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn avx2_shell<K: LaneKernel>(kernel: K) -> K::Output {
    // SAFETY: the caller guarantees AVX2+FMA, all the token asserts.
    kernel.avx2(unsafe { Avx2Lane::new_unchecked() })
}

/// `kernel`'s AVX-512 entry point compiled with AVX-512F enabled.
///
/// # Safety
/// The CPU supports AVX-512F, AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn avx512_shell<K: LaneKernel>(kernel: K) -> K::Output {
    // SAFETY: the caller guarantees AVX-512F on top of AVX2+FMA, all the
    // token asserts.
    kernel.avx512(unsafe { Avx512Lane::new_unchecked() })
}

// ---------------------------------------------------------------------------
// Generic kernel bodies (one body per kernel, instantiated per lane)
// ---------------------------------------------------------------------------

/// `y[i] += a * x[i]`, lane-generic body: callable from another crate's
/// generic kernel body so that it is compiled inside the shell that runs
/// that kernel (no dispatch of its own).  Panics unless
/// `x.len() >= y.len()`.
#[inline(always)]
pub fn axpy_body<S: SimdLane>(s: S, y: &mut [f64], a: f64, x: &[f64]) {
    let x = &x[..y.len()];
    let av = s.splat(a);
    // Whole registers as chunks, so that no load or store checks a bound.
    let (mut ys, mut xs) = (y.chunks_exact_mut(S::LANES), x.chunks_exact(S::LANES));
    for (yc, xc) in (&mut ys).zip(&mut xs) {
        let yv = s.mul_add(s.load(xc, 0), av, s.load(yc, 0));
        s.store(yc, 0, yv);
    }
    for (y, x) in ys.into_remainder().iter_mut().zip(xs.remainder()) {
        *y += a * x;
    }
}

/// Dot product with 4 independent accumulators (ILP), reduced as
/// `(a0 + a1) + (a2 + a3)`, then one vector at a time into the first
/// accumulator and a sequential tail shorter than a vector; lane-generic
/// body, public for the same reason as [`axpy_body`].  Panics unless
/// `b.len() >= a.len()`.
#[inline(always)]
pub fn dot_body<S: SimdLane>(s: S, a: &[f64], b: &[f64]) -> f64 {
    let b = &b[..a.len()];
    let mut acc = [s.zero(); 4];
    // Whole groups of four registers, then whole registers, as chunks, so
    // that no load checks a bound.
    let (mut a4, mut b4) = (a.chunks_exact(4 * S::LANES), b.chunks_exact(4 * S::LANES));
    for (x, y) in (&mut a4).zip(&mut b4) {
        for (r, acc) in acc.iter_mut().enumerate() {
            let at = r * S::LANES;
            *acc = s.mul_add(s.load(x, at), s.load(y, at), *acc);
        }
    }
    let (mut a1, mut b1) = (
        a4.remainder().chunks_exact(S::LANES),
        b4.remainder().chunks_exact(S::LANES),
    );
    for (x, y) in (&mut a1).zip(&mut b1) {
        acc[0] = s.mul_add(s.load(x, 0), s.load(y, 0), acc[0]);
    }
    let mut sum = s.reduce_sum(s.add(s.add(acc[0], acc[1]), s.add(acc[2], acc[3])));
    for (x, y) in a1.remainder().iter().zip(b1.remainder()) {
        sum += x * y;
    }
    sum
}

/// The packed-GEMM register microkernel: `RV` registers of `S::LANES` rows
/// cover the `MR`-row tile; `NR` broadcast-FMA columns. `RV * LANES == MR`.
/// Contract: `ap.len() >= kc * MR`, `bp.len() >= kc * NR`.
#[inline(always)]
fn microkernel_body<S: SimdLane, const RV: usize>(
    s: S,
    kc: usize,
    ap: &[f64],
    bp: &[f64],
) -> [[f64; MR]; NR] {
    debug_assert_eq!(RV * S::LANES, MR);
    let mut acc = [[s.zero(); RV]; NR];
    let depth = ap[..kc * MR]
        .chunks_exact(MR)
        .zip(bp[..kc * NR].chunks_exact(NR));
    for (a, b) in depth {
        let mut av = [s.zero(); RV];
        for (r, avr) in av.iter_mut().enumerate() {
            *avr = s.load(a, r * S::LANES);
        }
        for (accj, &bj) in acc.iter_mut().zip(b) {
            let bj = s.splat(bj);
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

/// The arguments of [`microkernel_8x4`].  No 512-bit body: `MR` rows are
/// one register there, and the microkernel was not measured at that width.
struct Microkernel<'a> {
    kc: usize,
    ap: &'a [f64],
    bp: &'a [f64],
}

impl LaneKernel for Microkernel<'_> {
    type Output = [[f64; MR]; NR];
    const AVX512: bool = false;

    #[inline(always)]
    fn run<S: SimdLane>(self, s: S) -> Self::Output {
        let Microkernel { kc, ap, bp } = self;
        // `RV * LANES == MR` in the arm that runs (the lane width is a
        // constant, so the others are never reached).
        match S::LANES {
            1 => microkernel_body::<S, 8>(s, kc, ap, bp),
            4 => microkernel_body::<S, 2>(s, kc, ap, bp),
            _ => microkernel_body::<S, 1>(s, kc, ap, bp),
        }
    }
}

/// The `MR x NR` packed-GEMM register microkernel:
/// `out[j][i] = sum_l ap[l*MR + i] * bp[l*NR + j]` (a rank-1 update per
/// depth step, broadcast-FMA on the vector backends) on the process-wide
/// backend. Panics unless `ap.len() >= kc*MR` and `bp.len() >= kc*NR`.
#[inline]
pub fn microkernel_8x4(kc: usize, ap: &[f64], bp: &[f64]) -> [[f64; MR]; NR] {
    dispatch(Microkernel { kc, ap, bp })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(a: f64, b: f64) -> f64 {
        (a - b).abs() / b.abs().max(1.0)
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

    /// A kernel that reports the width of the lane it runs on; `WIDE =
    /// false` opts out of the 512-bit lane.
    struct Lanes<const WIDE: bool>;

    impl<const WIDE: bool> LaneKernel for Lanes<WIDE> {
        type Output = usize;
        const AVX512: bool = WIDE;

        #[inline(always)]
        fn run<S: SimdLane>(self, _: S) -> usize {
            S::LANES
        }
    }

    #[test]
    fn dispatch_routes_to_the_named_lane() {
        // Decide the backend outside any forced scope, so that the count
        // below is the process's one selection.
        {
            let _no_forced_scope = FORCE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
            backend();
        }
        let widths = |run: &dyn Fn() -> usize| -> Vec<usize> {
            on_each_backend(run).into_iter().map(|(_, n)| n).collect()
        };
        // Scalar, AVX2, AVX-512, as far as the CPU goes.
        let n = available_backends().count();
        assert_eq!(widths(&|| dispatch(Lanes::<true>)), [1, 4, 8][..n]);
        assert_eq!(widths(&|| dispatch(Lanes::<false>)), [1, 4, 4][..n]);
        assert_eq!(selection_count(), 1, "dispatch must not re-detect");
    }

    #[test]
    fn primitives_scalar_matches_naive() {
        for &n in &SIZES {
            let x = test_vec(n, 1);
            let y0 = test_vec(n, 2);
            let mut y = y0.clone();
            axpy_body(ScalarLane, &mut y, 0.37, &x);
            for i in 0..n {
                assert_eq!(y[i], y0[i] + 0.37 * x[i]);
            }
            let naive: f64 = x.iter().zip(&y0).map(|(a, b)| a * b).sum();
            let dot = dot_body(ScalarLane, &x, &y0);
            assert!(rel(dot, naive) < 1e-13);
        }
    }

    /// `S::transpose` on a block cut out of larger arrays, checked entry by
    /// entry (and that nothing outside the block's rows is written).
    #[inline(always)]
    fn check_transpose<S: SimdLane>(s: S) {
        let (lds, ldd) = (S::LANES + 3, S::LANES + 5);
        let src = test_vec(S::LANES * lds, 21);
        let mut dst = vec![-7.0; S::LANES * ldd];
        s.transpose(&src[1..], lds, &mut dst[2..], ldd);
        for (at, &x) in dst.iter().enumerate() {
            let want = match at.checked_sub(2).map(|k| (k / ldd, k % ldd)) {
                Some((r, c)) if c < S::LANES => src[1 + c * lds + r],
                _ => -7.0,
            };
            assert_eq!(x, want, "lanes={} dst[{at}]", S::LANES);
        }
    }

    /// [`check_transpose`] on the lane of the backend in force.
    struct Transpose;

    impl LaneKernel for Transpose {
        type Output = ();

        #[inline(always)]
        fn run<S: SimdLane>(self, s: S) {
            check_transpose(s)
        }
    }

    #[test]
    fn lane_transposes_are_exact() {
        on_each_backend(|| dispatch(Transpose));
    }

    #[test]
    fn microkernel_scalar_matches_naive() {
        for &kc in &SIZES {
            let ap = test_vec(kc * MR, 10);
            let bp = test_vec(kc * NR, 11);
            let c = Microkernel {
                kc,
                ap: &ap,
                bp: &bp,
            }
            .run(ScalarLane);
            for j in 0..NR {
                for i in 0..MR {
                    let naive: f64 = (0..kc).map(|l| ap[l * MR + i] * bp[l * NR + j]).sum();
                    assert!(rel(c[j][i], naive) < 1e-13, "kc={kc} i={i} j={j}");
                }
            }
        }
    }
}
