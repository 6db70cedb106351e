//! High-level user-facing pipelines.
//!
//! * [`ge2bnd`] — full matrix to band bidiagonal form (the paper's core
//!   kernel), returning the factored tiled matrix and the extracted band,
//! * [`ge2val`] — full matrix to singular values, i.e. the three-stage
//!   pipeline `GE2BND -> BND2BD -> BD2VAL` used in every GE2VAL experiment
//!   (callers that want the stage-1 output call [`ge2bnd`]),
//! * [`Ge2Options`] — tile size, reduction tree, algorithm selection and
//!   threading knobs.
//!
//! BD2VAL is dqds (`bidiag-svd`) on every path.  A blocked [`ge2val`] runs
//! the one lowering `SvdSession` submits for a blocked problem
//! (`exec::lower_ge2val`): the GE2BND tile-kernel DAG, one task running the
//! sequential Householder bulge chase (the paper delegates this stage to
//! PLASMA's bulge-chasing kernel; this one does not scale with threads),
//! one task running dqds.  With `threads > 1` the tasks run on one pool
//! built for the call; with one thread, task by task in list order on the
//! calling thread.  [`ge2bnd`] runs the GE2BND tasks alone, the same two
//! ways.  The thread count never changes the numerical result — the task
//! graph encodes every data conflict of the sequential order, so any
//! schedule executes the same arithmetic (see the `bidiag-runtime` crate
//! docs).  Below the small-size crossover, [`ge2val`] runs the session's
//! direct path on a gang of one.

use crate::batch::DirectScratch;
use crate::drivers::Algorithm;
use crate::error::{check_spectrum, validate_finite, SvdError};
use crate::exec::{execute_parallel, lower_ge2val, setup_blocked};
use crate::flops;
use crate::ops::ops_flops;
use bidiag_kernels::band::BandMatrix;
use bidiag_matrix::{Matrix, TiledMatrix};
use bidiag_obs as obs;
use bidiag_svd::Bd2ValOptions;
use bidiag_trees::NamedTree;

/// Default small-size crossover of the *batched* drivers (`SvdSession`,
/// `ge2val_batch`): problems whose larger dimension is at most this run the
/// one-stage `gebd2` direct path instead of the tiled three-stage pipeline.
///
/// Below some size the blocked machinery (tiling, T-factors, band
/// extraction, bulge chasing) costs more than it saves.  The committed
/// sweep (`crossover_sweep_direct_vs_blocked`, run with `--ignored
/// --nocapture`) times per-call [`ge2val`], single-threaded at `nb = 64`
/// on the reference container; direct speed-up over blocked at
/// n = 16 / 32 / 48 / 64 / 96 / 128, three alternating runs of each side:
///
/// | `gebd2` | 16 | 32 | 48 | 64 | 96 | 128 |
/// |---|---|---|---|---|---|---|
/// | element-wise `get`/`set` loop (before PR 22) | 1.30x | 0.91x | 0.73x | 0.68x | 0.55x | 0.38x |
/// | on the bulge chase's vector-lane applies (PR 22) | 1.57x | 1.31x | 1.22x | 1.19x | 1.20x | 1.11x |
/// | eight lanes, masked tails, resident left apply (PR 24) | 1.59x | 1.39x | 1.29x | 1.28x | 1.44x | 1.18x |
///
/// (It read 2.5x at n = 32 and 2.1x at n = 64 when 64 was picked, before
/// the fused compact-WY tile kernels and the Householder bulge chase made
/// the blocked side 3–4x faster.)  The constant is unchanged at 64, and
/// the sweep now supports it: the direct path wins per call at every order
/// it serves, by a margin that shrinks towards 128 (the last row is the
/// median of three runs; both sides moved with it, since the blocked path's
/// BND2BD runs the same applies).  What the sweep cannot
/// see is what the direct path saves *in a session* — it allocates nothing,
/// and `SvdSession::compute_into` runs it inline, without the hand-off to a
/// pool worker — so whether the constant should rather go *up* is for a
/// session-level reading on both sides of it, which is still owed: the
/// benchmark has no workload between 33 and 128 yet (`batch_mid`, which
/// the ROADMAP's benchmark-only PR adds and its small-problem item reads
/// to re-pick this constant).  Plain [`ge2val`] keeps the crossover *disabled* by
/// default (`direct_crossover = 0`) so existing callers exercise the
/// blocked pipeline at every size; opt in with
/// [`Ge2Options::with_direct_crossover`].
pub const DIRECT_CROSSOVER: usize = 64;

/// How the GE2BND algorithm is chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlgorithmChoice {
    /// Always BIDIAG.
    Bidiag,
    /// Always R-BIDIAG.
    RBidiag,
    /// Choose by Chan's flop rule (`m >= 5n/3` selects R-BIDIAG).
    Auto,
}

/// Options of the GE2BND / GE2VAL pipelines.
#[derive(Clone, Copy, Debug)]
pub struct Ge2Options {
    /// Tile size `nb`.
    pub nb: usize,
    /// Reduction tree.
    pub tree: NamedTree,
    /// BIDIAG vs R-BIDIAG selection.
    pub algorithm: AlgorithmChoice,
    /// Number of worker threads (1 runs every task in order on the calling
    /// thread).
    pub threads: usize,
    /// Carries nothing: BD2VAL is dqds on every path.  Kept only because
    /// the benchmark's call sites still pass it to
    /// [`bd2val_on_runtime`](crate::exec::bd2val_on_runtime) and
    /// `singular_values_with`.
    pub bd2val: Bd2ValOptions,
    /// Small-size crossover: when `max(m, n) <= direct_crossover`,
    /// [`ge2val`] skips the tiled pipeline entirely and runs the one-stage
    /// `gebd2` + dqds direct path (`0` disables, the default here; the
    /// batched session enables [`DIRECT_CROSSOVER`]).
    pub direct_crossover: usize,
}

impl Ge2Options {
    /// Defaults for tile size `nb`: the paper's AUTO tree sized for one
    /// core (`NamedTree::Auto { gamma: 2.0, ncores: 1 }`), automatic
    /// algorithm selection (Chan's rule), sequential execution, no
    /// direct-path crossover.
    ///
    /// The AUTO rule (Section V) grows the FLATTS domains of a panel while
    /// `ceil(rows/a) * trailing >= gamma * ncores` holds.  At one core that
    /// is one FLATTS domain — a single chain of TS kernels — on every panel
    /// with two or more trailing tile columns, and two or three domains
    /// joined by TT kernels on the last two panels.  It is the cheaper tree
    /// here for the paper's reason: TS kernels do more work per call at a
    /// better rate than TT kernels.  Per Table I weight unit at `nb = 64`,
    /// 512-bit backend (256-bit in parentheses; the `table1_kernel_weights`
    /// binary prints both columns on a host that has both): TSMLQ 1.2 µs
    /// (2.35) and TSMQR 1.6 (2.6), TSQRT 2.8 (4.1) against UNMQR 1.9 (3.1),
    /// TTMQR 2.2 (3.3), GEQRT 4.3 (5.0) and TTQRT 7.0 (7.7).
    ///
    /// `ncores` is the constant 1, not [`threads`](Self::threads): a tree
    /// sized from the thread count would make
    /// [`with_threads`](Self::with_threads) change the arithmetic and break
    /// the "thread count never changes the result" contract.  On many
    /// cores, where one chain of TS kernels per panel starves the workers,
    /// pass `with_tree(NamedTree::Auto { gamma: 2.0, ncores })` (or
    /// `NamedTree::Greedy`) explicitly.
    pub fn new(nb: usize) -> Self {
        Self {
            nb,
            tree: NamedTree::Auto {
                gamma: 2.0,
                ncores: 1,
            },
            algorithm: AlgorithmChoice::Auto,
            threads: 1,
            bd2val: Bd2ValOptions,
            direct_crossover: 0,
        }
    }

    /// Builder-style: set the reduction tree.
    pub fn with_tree(mut self, tree: NamedTree) -> Self {
        self.tree = tree;
        self
    }

    /// Builder-style: force the algorithm.
    pub fn with_algorithm(mut self, algorithm: AlgorithmChoice) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Builder-style: set the number of worker threads.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Builder-style: set the small-size direct-path crossover (`0`
    /// disables; [`DIRECT_CROSSOVER`] is the bench-picked default of the
    /// batched session).
    pub fn with_direct_crossover(mut self, direct_crossover: usize) -> Self {
        self.direct_crossover = direct_crossover;
        self
    }

    /// True when a problem of the given dimensions takes the direct path
    /// under these options.
    pub fn takes_direct_path(&self, m: usize, n: usize) -> bool {
        self.direct_crossover > 0 && m.max(n) <= self.direct_crossover
    }

    pub(crate) fn resolve_algorithm(&self, m: usize, n: usize) -> Algorithm {
        match self.algorithm {
            AlgorithmChoice::Bidiag => Algorithm::Bidiag,
            AlgorithmChoice::RBidiag => Algorithm::RBidiag,
            AlgorithmChoice::Auto => flops::select_by_flops(m, n),
        }
    }

    /// A blocked run tiles its input: `nb == 0` is rejected before it
    /// does, rather than panicking inside the tiling.
    pub(crate) fn check_tile_size(&self, a: &Matrix) -> Result<(), SvdError> {
        if self.nb == 0 {
            return Err(SvdError::DimensionMismatch {
                context: "the tile size nb must be positive",
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        Ok(())
    }
}

/// Stamp the trace/snapshot header with the kernel backend a blocked run
/// dispatches (the choice is otherwise invisible outside benches).
fn record_backend() {
    if obs::enabled() {
        obs::registry().set_meta("simd_backend", bidiag_matrix::simd::backend().name());
    }
}

/// Output of [`ge2bnd`].
#[derive(Clone, Debug)]
pub struct Ge2BndResult {
    /// The factored tiled matrix (Householder vectors outside the band).
    pub factored: TiledMatrix,
    /// The band bidiagonal factor (upper bandwidth `nb`).
    pub band: BandMatrix,
    /// The algorithm that was actually run.
    pub algorithm: Algorithm,
    /// Number of tile kernels executed.
    pub num_tasks: usize,
    /// Flops executed by the tile kernels (cost-model count).
    pub kernel_flops: f64,
}

/// Reduce a dense `m x n` matrix (`m >= n >= 1`) to band bidiagonal form
/// using the tiled BIDIAG or R-BIDIAG algorithm.
pub fn ge2bnd(a: &Matrix, opts: &Ge2Options) -> Ge2BndResult {
    assert!(
        a.rows() >= a.cols() && a.cols() > 0,
        "ge2bnd expects m >= n >= 1; transpose a wide input"
    );
    record_backend();
    let (mut tiled, algorithm, ops, bw) = setup_blocked(a, opts);
    execute_parallel(&ops, &mut tiled, opts.threads);
    let band = BandMatrix::from_tiled(&tiled, bw);
    Ge2BndResult {
        band,
        algorithm,
        num_tasks: ops.len(),
        kernel_flops: ops_flops(&ops, opts.nb),
        factored: tiled,
    }
}

/// Output of [`ge2val`].
#[derive(Clone, Debug)]
pub struct Ge2ValResult {
    /// Singular values in non-increasing order.
    pub singular_values: Vec<f64>,
}

/// Compute all singular values of a dense matrix through the three-stage
/// pipeline `GE2BND -> BND2BD -> BD2VAL`.
///
/// Wide matrices (`m < n`) are handled by transposing the input (the
/// singular values are unchanged); an empty one (`min(m, n) == 0`) has an
/// empty spectrum and runs no stage.  The three stages are one task graph:
/// with `threads > 1` on one work-stealing pool built for the call, with
/// one thread task by task on the calling thread; the result is identical
/// at every thread count.
///
/// # Examples
///
/// ```
/// use bidiag_core::pipeline::{ge2val, Ge2Options};
/// use bidiag_matrix::gen::{latms, SpectrumKind};
///
/// // A 24 x 16 matrix with prescribed singular values 16, 15, ..., 1.
/// let sigma: Vec<f64> = (1..=16).map(f64::from).rev().collect();
/// let (a, _) = latms(24, 16, &SpectrumKind::Explicit(sigma.clone()), 7);
///
/// // Multi-threaded run: GE2BND, BND2BD and BD2VAL are one task graph on
/// // the work-stealing runtime, and the spectrum comes back bit-identical
/// // to the sequential result.
/// let par = ge2val(&a, &Ge2Options::new(4).with_threads(4));
/// let seq = ge2val(&a, &Ge2Options::new(4).with_threads(1));
/// assert_eq!(par.singular_values, seq.singular_values);
/// for (s, expect) in par.singular_values.iter().zip(&sigma) {
///     assert!((s - expect).abs() < 1e-10);
/// }
/// ```
pub fn ge2val(a: &Matrix, opts: &Ge2Options) -> Ge2ValResult {
    let (m, n) = (a.rows(), a.cols());
    let singular_values = if m.min(n) == 0 {
        Vec::new()
    } else if opts.takes_direct_path(m, n) {
        // Small-size crossover: the session's direct path on a gang of one
        // — Golub–Kahan bidiagonalization straight to dqds, no tiling, no
        // T-factors, no band stage — in an arena sized for this problem.
        let mut sv = Vec::new();
        DirectScratch::for_gang(m.max(n), 1).spectra(std::iter::once((a, &mut sv)));
        sv
    } else {
        record_backend();
        lower_ge2val(a, opts).solve(opts.threads)
    };
    Ge2ValResult { singular_values }
}

/// Fallible twin of [`ge2bnd`]: rejects wide and empty inputs and a zero
/// tile size with [`SvdError::DimensionMismatch`] and non-finite entries with
/// [`SvdError::NonFiniteInput`] instead of asserting or producing NaN
/// garbage.  On `Ok`, the result is exactly what [`ge2bnd`] returns.
pub fn try_ge2bnd(a: &Matrix, opts: &Ge2Options) -> Result<Ge2BndResult, SvdError> {
    if a.rows() < a.cols() || a.cols() == 0 {
        return Err(SvdError::DimensionMismatch {
            context: "ge2bnd requires m >= n >= 1; transpose a wide input",
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    opts.check_tile_size(a)?;
    validate_finite(a)?;
    Ok(ge2bnd(a, opts))
}

/// Fallible twin of [`ge2val`]: rejects non-finite entries with
/// [`SvdError::NonFiniteInput`] and, when the blocked path would run, a
/// zero tile size with [`SvdError::DimensionMismatch`], *before* any
/// factorization work runs, and
/// reports a solver that still produced non-finite values (a bug or
/// injected fault, never reachable from validated input) as
/// [`SvdError::SolverFailure`].  On `Ok`, the result is **bitwise** what
/// [`ge2val`] returns — validation reads the input but never changes the
/// arithmetic.
pub fn try_ge2val(a: &Matrix, opts: &Ge2Options) -> Result<Ge2ValResult, SvdError> {
    validate_finite(a)?;
    let (m, n) = (a.rows(), a.cols());
    if m.min(n) > 0 && !opts.takes_direct_path(m, n) {
        opts.check_tile_size(a)?;
    }
    let result = ge2val(a, opts);
    check_spectrum(&result.singular_values).map(|()| result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bidiag_matrix::checks::singular_values_match;
    use bidiag_matrix::gen::{latms, SpectrumKind};

    fn spectrum(n: usize) -> SpectrumKind {
        SpectrumKind::Explicit((1..=n).map(|i| i as f64).rev().collect())
    }

    #[test]
    fn ge2bnd_produces_a_band_with_the_right_bandwidth() {
        let (a, _) = latms(24, 16, &spectrum(16), 3);
        let r = ge2bnd(
            &a,
            &Ge2Options::new(4).with_algorithm(AlgorithmChoice::Bidiag),
        );
        assert_eq!(r.algorithm, Algorithm::Bidiag);
        let dense_band = r.band.to_dense();
        assert_eq!(dense_band.rows(), 16);
        assert!(dense_band.upper_bandwidth(1e-10) <= 4);
        // Orthogonal transformations preserve the Frobenius norm of the band.
        assert!((r.band.norm_fro() - a.norm_fro()).abs() < 1e-9 * a.norm_fro());
    }

    #[test]
    fn auto_choice_follows_chan_rule() {
        let (tall, _) = latms(40, 8, &spectrum(8), 1);
        let (square, _) = latms(12, 12, &spectrum(12), 2);
        let r_tall = ge2bnd(&tall, &Ge2Options::new(4));
        let r_square = ge2bnd(&square, &Ge2Options::new(4));
        assert_eq!(r_tall.algorithm, Algorithm::RBidiag);
        assert_eq!(r_square.algorithm, Algorithm::Bidiag);
        // A forced choice overrides the rule.
        let forced = Ge2Options::new(4).with_algorithm(AlgorithmChoice::RBidiag);
        assert_eq!(ge2bnd(&square, &forced).algorithm, Algorithm::RBidiag);
    }

    #[test]
    fn wide_matrices_are_transposed() {
        let (a, sigma) = latms(6, 18, &spectrum(6), 21);
        let r = ge2val(&a, &Ge2Options::new(4));
        assert!(singular_values_match(&r.singular_values, &sigma, 1e-10));
        // Empty shapes, wide or not: what the session returns, no stage run.
        let session = crate::batch::SvdSession::new(1);
        for (m, n) in [(5, 0), (0, 3), (0, 0)] {
            let a = Matrix::zeros(m, n);
            let r = try_ge2val(&a, &Ge2Options::new(4)).unwrap();
            assert!(r.singular_values.is_empty(), "{m}x{n}");
            let sv = session.submit(&a).unwrap().wait().unwrap();
            assert_eq!(r.singular_values, sv, "{m}x{n}");
            assert!(matches!(
                try_ge2bnd(&a, &Ge2Options::new(4)),
                Err(SvdError::DimensionMismatch { .. })
            ));
        }
        // A zero tile size is an error of every fallible entry point that
        // would tile the input, not a panic inside the tiling.
        let a = latms(10, 8, &spectrum(8), 22).0;
        let zero = Ge2Options::new(0);
        let names_the_tile_size = |e: Option<SvdError>| {
            matches!(e, Some(SvdError::DimensionMismatch { context, rows: 10, cols: 8 })
                if context.contains("tile size"))
        };
        assert!(names_the_tile_size(try_ge2val(&a, &zero).err()));
        assert!(names_the_tile_size(try_ge2bnd(&a, &zero).err()));
        let zero_session = crate::batch::SvdSession::with_options(zero);
        assert!(names_the_tile_size(zero_session.submit(&a).err()));
        // Below an armed crossover nothing is tiled: nb is never read.
        assert!(try_ge2val(&a, &zero.with_direct_crossover(DIRECT_CROSSOVER)).is_ok());
    }

    #[test]
    fn all_trees_give_the_same_singular_values() {
        let (a, sigma) = latms(21, 14, &SpectrumKind::Arithmetic { cond: 50.0 }, 8);
        for tree in [
            NamedTree::FlatTs,
            NamedTree::FlatTt,
            NamedTree::Greedy,
            NamedTree::Auto {
                gamma: 2.0,
                ncores: 4,
            },
        ] {
            let r = ge2val(
                &a,
                &Ge2Options::new(4)
                    .with_tree(tree)
                    .with_algorithm(AlgorithmChoice::Bidiag),
            );
            assert!(
                singular_values_match(&r.singular_values, &sigma, 1e-10),
                "tree {tree:?} changed the singular values"
            );
        }
    }

    #[test]
    fn direct_crossover_path_matches_the_blocked_pipeline() {
        // Sizes straddling the default crossover; the direct path must
        // reproduce the blocked spectra to full pipeline accuracy.
        for (m, n, seed) in [
            (8usize, 8usize, 1u64),
            (31, 20, 2),
            (32, 32, 3),
            (33, 33, 4),
            (64, 40, 5),
            (20, 64, 6), // wide: the direct path transposes too
        ] {
            let (a, _) = latms(m, n, &SpectrumKind::Geometric { cond: 1e4 }, seed);
            let blocked_opts = Ge2Options::new(16);
            let direct_opts = blocked_opts.with_direct_crossover(DIRECT_CROSSOVER);
            assert!(direct_opts.takes_direct_path(m, n), "{m}x{n}");
            let blocked = ge2val(&a, &blocked_opts);
            let direct = ge2val(&a, &direct_opts);
            assert!(
                singular_values_match(&blocked.singular_values, &direct.singular_values, 1e-13),
                "{m}x{n}: direct path diverged from the blocked pipeline"
            );
        }
    }

    #[test]
    fn crossover_disabled_and_above_threshold_stay_blocked() {
        // 97 > 64: even with the crossover armed, the blocked path runs.
        let armed = Ge2Options::new(16).with_direct_crossover(DIRECT_CROSSOVER);
        assert!(!armed.takes_direct_path(97, 60));
        // Default options never take the direct path, at any size.
        let opts = Ge2Options::new(4);
        assert!(!opts.takes_direct_path(8, 8));
        assert!(Ge2Options::new(4)
            .with_direct_crossover(64)
            .takes_direct_path(64, 64));
    }

    /// The sweep that picked [`DIRECT_CROSSOVER`].  Ignored by default
    /// (it is a timing run, not a correctness test); re-run it with
    /// `cargo test -p bidiag-core --release crossover_sweep -- --ignored
    /// --nocapture` when the kernels change and update the constant's doc
    /// numbers if the break-even moves.
    #[test]
    #[ignore = "timing sweep; run manually with --release --nocapture"]
    fn crossover_sweep_direct_vs_blocked() {
        for n in [16usize, 32, 48, 64, 96, 128] {
            let a = bidiag_matrix::gen::random_gaussian(n, n, 900);
            let blocked_opts = Ge2Options::new(64).with_threads(1);
            let direct_opts = blocked_opts.with_direct_crossover(n);
            let time = |opts: &Ge2Options| {
                // The first calls of a fresh process fault the heap in.
                for _ in 0..20 {
                    let _ = ge2val(&a, opts);
                }
                let mut best = f64::INFINITY;
                for _ in 0..5 {
                    let t0 = std::time::Instant::now();
                    let r = ge2val(&a, opts);
                    best = best.min(t0.elapsed().as_secs_f64());
                    assert_eq!(r.singular_values.len(), n);
                }
                best
            };
            let blocked = time(&blocked_opts);
            let direct = time(&direct_opts);
            println!(
                "n={n}\tblocked {:.1} us\tdirect {:.1} us\tdirect speedup {:.2}x",
                blocked * 1.0e6,
                direct * 1.0e6,
                blocked / direct
            );
        }
    }
}
