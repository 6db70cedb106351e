//! High-level user-facing pipelines.
//!
//! * [`ge2bnd`] — full matrix to band bidiagonal form (the paper's core
//!   kernel), returning the factored tiled matrix and the extracted band,
//! * [`ge2val`] — full matrix to singular values, i.e. the three-stage
//!   pipeline `GE2BND -> BND2BD -> BD2VAL` used in every GE2VAL experiment,
//! * [`Ge2Options`] — tile size, reduction tree, algorithm selection and
//!   threading knobs.
//!
//! With `threads > 1` every stage runs on the work-stealing task runtime of
//! `bidiag-runtime`: GE2BND as the tile-kernel DAG, BND2BD as a single
//! task running the sequential Householder bulge chase (the paper delegates
//! this stage to PLASMA's bulge-chasing kernel; this one does not scale
//! with threads), and BD2VAL as a single task running the `bidiag-svd`
//! solver [`Bd2ValOptions`] selects — dqds, or the bisection oracle.  The
//! thread count never changes the numerical result — the task graph
//! encodes every data conflict of the sequential order, so any schedule
//! executes the same arithmetic (see the `bidiag-runtime` crate docs).

use crate::drivers::{ge2bnd_ops, Algorithm, GenConfig};
use crate::error::{validate_finite, SvdError};
use crate::exec::{bd2val_on_runtime, bnd2bd_on_runtime, execute_parallel, execute_sequential};
use crate::flops;
use crate::ops::ops_flops;
use bidiag_kernels::band::BandMatrix;
use bidiag_kernels::gebd2::gebd2;
use bidiag_matrix::{Matrix, TiledMatrix};
use bidiag_obs as obs;
use bidiag_svd::{singular_values_with, Bd2ValOptions, SvdSolver};
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
/// benchmark has no workload between 33 and 128 yet (`batch_mid`, ROADMAP
/// item 2).  Plain [`ge2val`] keeps the crossover *disabled* by default
/// (`direct_crossover = 0`) so existing callers exercise the blocked
/// pipeline at every size; opt in with
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
    /// Number of worker threads (1 runs the reference sequential path).
    pub threads: usize,
    /// BD2VAL stage options: singular-value solver choice (defaults to
    /// dqds).
    pub bd2val: Bd2ValOptions,
    /// Small-size crossover: when `max(m, n) <= direct_crossover`,
    /// [`ge2val`] skips the tiled pipeline entirely and runs the one-stage
    /// `gebd2` + BD2VAL direct path (`0` disables, the default here; the
    /// batched session enables [`DIRECT_CROSSOVER`]).
    pub direct_crossover: usize,
}

impl Ge2Options {
    /// Defaults for tile size `nb`: the paper's AUTO tree sized for one
    /// core (`NamedTree::Auto { gamma: 2.0, ncores: 1 }`), automatic
    /// algorithm selection (Chan's rule), sequential execution, dqds, no
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
    /// binary prints both columns on a host that has both): TSMQR and TSMLQ
    /// 1.6–1.7 µs (2.8), TSQRT 3.0 (4.1) against UNMQR 2.15 (3.3), TTMQR
    /// 2.3 (3.5), GEQRT 4.5 (5.1) and TTQRT 7.2 (7.5).
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
            bd2val: Bd2ValOptions::default(),
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

    /// Builder-style: select the BD2VAL singular-value solver.
    pub fn with_svd_solver(mut self, solver: SvdSolver) -> Self {
        self.bd2val.solver = solver;
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

/// Reduce a dense `m x n` matrix (`m >= n`) to band bidiagonal form using
/// the tiled BIDIAG or R-BIDIAG algorithm.
pub fn ge2bnd(a: &Matrix, opts: &Ge2Options) -> Ge2BndResult {
    assert!(
        a.rows() >= a.cols(),
        "ge2bnd expects m >= n; transpose the input otherwise"
    );
    let algorithm = opts.resolve_algorithm(a.rows(), a.cols());
    if obs::enabled() {
        // Stamp the trace/snapshot header with the kernel backend actually
        // dispatched for this run (satellite of the SIMD layer: the choice
        // was previously invisible outside benches).
        obs::registry().set_meta("simd_backend", bidiag_matrix::simd::backend().name());
    }
    let mut tiled = TiledMatrix::from_dense(a, opts.nb);
    let cfg = GenConfig::shared(opts.tree);
    let ops = ge2bnd_ops(tiled.tile_rows(), tiled.tile_cols(), algorithm, &cfg);
    if opts.threads > 1 {
        execute_parallel(&ops, &mut tiled, opts.threads);
    } else {
        execute_sequential(&ops, &mut tiled);
    }
    let bw = opts.nb.min(a.cols().saturating_sub(1)).max(1);
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
    /// The GE2BND stage output — `None` when the small-size crossover
    /// took the direct path (no tiling, no band stage ran).
    pub ge2bnd: Option<Ge2BndResult>,
}

/// Compute all singular values of a dense matrix through the three-stage
/// pipeline `GE2BND -> BND2BD -> BD2VAL`.
///
/// Wide matrices (`m < n`) are handled by transposing the input (the
/// singular values are unchanged).  With `threads > 1` all three stages
/// are scheduled on the work-stealing task runtime; the result is
/// identical to the sequential path for every thread count.
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
/// // Multi-threaded run: GE2BND, BND2BD and BD2VAL all execute on the
/// // work-stealing runtime, and the spectrum comes back bit-identical to
/// // the sequential result.
/// let par = ge2val(&a, &Ge2Options::new(4).with_threads(4));
/// let seq = ge2val(&a, &Ge2Options::new(4).with_threads(1));
/// assert_eq!(par.singular_values, seq.singular_values);
/// for (s, expect) in par.singular_values.iter().zip(&sigma) {
///     assert!((s - expect).abs() < 1e-10);
/// }
/// ```
pub fn ge2val(a: &Matrix, opts: &Ge2Options) -> Ge2ValResult {
    if opts.takes_direct_path(a.rows(), a.cols()) {
        // Small-size crossover: Golub–Kahan bidiagonalization straight to
        // BD2VAL — no tiling, no T-factors, no band stage.  One copy of the
        // input, transposed when it is wide, is the work matrix.
        let mut w = if a.rows() >= a.cols() {
            a.clone()
        } else {
            a.transpose()
        };
        let bidiag = gebd2(&mut w);
        let mut sv = singular_values_with(&bidiag.diag, &bidiag.superdiag, &opts.bd2val);
        // `total_cmp` orders exactly like `partial_cmp` on the solver's
        // non-negative output and cannot panic if poisoned NaNs slip
        // through (they sort last and stay visible).
        sv.sort_by(|a, b| b.total_cmp(a));
        return Ge2ValResult {
            singular_values: sv,
            ge2bnd: None,
        };
    }
    let work;
    let a_ref = if a.rows() >= a.cols() {
        a
    } else {
        work = a.transpose();
        &work
    };
    // Stage-boundary spans: one run id for the whole pipeline, recorded on
    // the calling thread so the trace shows the coarse GE2BND/BND2BD/BD2VAL
    // phases above the per-task lanes.
    let run_id = if obs::enabled() {
        obs::next_submission_id()
    } else {
        0
    };
    let stage_span = |task: u32, kind: u32, start_ns: u64| {
        if run_id != 0 {
            obs::record_span(obs::Span {
                submission: run_id,
                task,
                kind,
                worker: obs::WORKER_CALLER,
                start_ns,
                end_ns: obs::now_ns(),
            });
        }
    };
    let t0 = if run_id != 0 { obs::now_ns() } else { 0 };
    let stage1 = ge2bnd(a_ref, opts);
    stage_span(0, obs::KIND_STAGE_GE2BND, t0);
    // BND2BD: the sequential bulge chase on the band (as one runtime task
    // when threaded).
    let mut band = stage1.band.clone();
    let t1 = if run_id != 0 { obs::now_ns() } else { 0 };
    let bidiag = if opts.threads > 1 {
        bnd2bd_on_runtime(&mut band, opts.threads)
    } else {
        band.reduce_to_bidiagonal()
    };
    stage_span(1, obs::KIND_STAGE_BND2BD, t1);
    // BD2VAL: the solver picked in the options — dqds by default, or the
    // per-value bisection oracle.
    let t2 = if run_id != 0 { obs::now_ns() } else { 0 };
    let mut sv = if opts.threads > 1 {
        bd2val_on_runtime(&bidiag.diag, &bidiag.superdiag, opts.threads, &opts.bd2val)
    } else {
        singular_values_with(&bidiag.diag, &bidiag.superdiag, &opts.bd2val)
    };
    stage_span(2, obs::KIND_STAGE_BD2VAL, t2);
    // See the direct path above: total order, no NaN panic path.
    sv.sort_by(|a, b| b.total_cmp(a));
    Ge2ValResult {
        singular_values: sv,
        ge2bnd: Some(stage1),
    }
}

/// Fallible twin of [`ge2bnd`]: rejects wide inputs with
/// [`SvdError::DimensionMismatch`] and non-finite entries with
/// [`SvdError::NonFiniteInput`] instead of asserting or producing NaN
/// garbage.  On `Ok`, the result is exactly what [`ge2bnd`] returns.
pub fn try_ge2bnd(a: &Matrix, opts: &Ge2Options) -> Result<Ge2BndResult, SvdError> {
    if a.rows() < a.cols() {
        return Err(SvdError::DimensionMismatch {
            context: "ge2bnd requires m >= n; transpose the input",
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    validate_finite(a)?;
    Ok(ge2bnd(a, opts))
}

/// Fallible twin of [`ge2val`]: rejects non-finite entries with
/// [`SvdError::NonFiniteInput`] *before* any factorization work runs, and
/// reports a solver that still produced non-finite values (a bug or
/// injected fault, never reachable from validated input) as
/// [`SvdError::SolverFailure`].  On `Ok`, the result is **bitwise** what
/// [`ge2val`] returns — validation reads the input but never changes the
/// arithmetic.
pub fn try_ge2val(a: &Matrix, opts: &Ge2Options) -> Result<Ge2ValResult, SvdError> {
    validate_finite(a)?;
    let result = ge2val(a, opts);
    if let Some(&bad) = result.singular_values.iter().find(|v| !v.is_finite()) {
        return Err(SvdError::SolverFailure(format!(
            "solver produced non-finite singular value {bad} from finite input"
        )));
    }
    Ok(result)
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
    fn ge2val_recovers_prescribed_singular_values_bidiag() {
        let (a, sigma) = latms(20, 12, &SpectrumKind::Geometric { cond: 1e4 }, 11);
        let r = ge2val(
            &a,
            &Ge2Options::new(4).with_algorithm(AlgorithmChoice::Bidiag),
        );
        assert!(singular_values_match(&r.singular_values, &sigma, 1e-10));
    }

    #[test]
    fn ge2val_recovers_prescribed_singular_values_rbidiag() {
        let (a, sigma) = latms(40, 8, &spectrum(8), 13);
        let r = ge2val(
            &a,
            &Ge2Options::new(4).with_algorithm(AlgorithmChoice::RBidiag),
        );
        let stage1 = r.ge2bnd.as_ref().expect("blocked path ran");
        assert_eq!(stage1.algorithm, Algorithm::RBidiag);
        assert!(singular_values_match(&r.singular_values, &sigma, 1e-10));
    }

    #[test]
    fn auto_choice_follows_chan_rule() {
        let (tall, _) = latms(40, 8, &spectrum(8), 1);
        let (square, _) = latms(12, 12, &spectrum(12), 2);
        let r_tall = ge2bnd(&tall, &Ge2Options::new(4));
        let r_square = ge2bnd(&square, &Ge2Options::new(4));
        assert_eq!(r_tall.algorithm, Algorithm::RBidiag);
        assert_eq!(r_square.algorithm, Algorithm::Bidiag);
    }

    #[test]
    fn wide_matrices_are_transposed() {
        let (a, sigma) = latms(6, 18, &spectrum(6), 21);
        let r = ge2val(&a, &Ge2Options::new(4));
        assert!(singular_values_match(&r.singular_values, &sigma, 1e-10));
    }

    #[test]
    fn parallel_pipeline_matches_sequential() {
        let (a, sigma) = latms(30, 18, &SpectrumKind::Geometric { cond: 100.0 }, 5);
        let seq = ge2val(
            &a,
            &Ge2Options::new(5)
                .with_threads(1)
                .with_tree(NamedTree::Greedy),
        );
        let par = ge2val(
            &a,
            &Ge2Options::new(5)
                .with_threads(4)
                .with_tree(NamedTree::Greedy),
        );
        assert!(singular_values_match(
            &seq.singular_values,
            &par.singular_values,
            1e-13
        ));
        assert!(singular_values_match(&seq.singular_values, &sigma, 1e-10));
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
    fn every_svd_solver_recovers_the_spectrum_at_every_thread_count() {
        let (a, sigma) = latms(26, 17, &SpectrumKind::Geometric { cond: 1e6 }, 19);
        for solver in [SvdSolver::Dqds, SvdSolver::Bisection] {
            let opts = |t: usize| Ge2Options::new(4).with_svd_solver(solver).with_threads(t);
            let seq = ge2val(&a, &opts(1));
            let par = ge2val(&a, &opts(4));
            // Same solver => bitwise identical values at every thread count.
            assert_eq!(
                seq.singular_values, par.singular_values,
                "{solver:?} diverged across thread counts"
            );
            assert!(
                singular_values_match(&seq.singular_values, &sigma, 1e-10),
                "{solver:?} missed the spectrum"
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
            let blocked = ge2val(&a, &Ge2Options::new(16));
            let direct = ge2val(
                &a,
                &Ge2Options::new(16).with_direct_crossover(DIRECT_CROSSOVER),
            );
            assert!(blocked.ge2bnd.is_some(), "{m}x{n}: blocked path skipped");
            assert!(direct.ge2bnd.is_none(), "{m}x{n}: direct path skipped");
            assert!(
                singular_values_match(&blocked.singular_values, &direct.singular_values, 1e-13),
                "{m}x{n}: direct path diverged from the blocked pipeline"
            );
        }
    }

    #[test]
    fn crossover_disabled_and_above_threshold_stay_blocked() {
        let (a, _) = latms(97, 60, &spectrum(60), 9);
        // 97 > 64: even with the crossover armed, the blocked path runs.
        let r = ge2val(
            &a,
            &Ge2Options::new(16).with_direct_crossover(DIRECT_CROSSOVER),
        );
        assert!(r.ge2bnd.is_some());
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

    #[test]
    fn non_multiple_tile_sizes_are_supported() {
        // 17 x 11 with nb = 4 exercises ragged tiles everywhere.
        let (a, sigma) = latms(17, 11, &spectrum(11), 31);
        for alg in [AlgorithmChoice::Bidiag, AlgorithmChoice::RBidiag] {
            let r = ge2val(&a, &Ge2Options::new(4).with_algorithm(alg));
            assert!(
                singular_values_match(&r.singular_values, &sigma, 1e-10),
                "{alg:?}"
            );
        }
    }
}
