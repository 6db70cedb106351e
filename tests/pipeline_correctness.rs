//! End-to-end integration tests of the full GE2BND -> BND2BD -> BD2VAL
//! pipeline across algorithms, trees, shapes and execution back-ends,
//! cross-validated against the one-sided Jacobi oracle and the one-stage
//! baselines of `bidiag-oracles` (which share no code with the tiled
//! pipeline).

use bidiag_oracles::{chan_singular_values, jacobi_singular_values, one_stage_singular_values};
use bidiag_repro::prelude::*;

#[test]
fn tiled_pipeline_matches_jacobi_oracle_on_random_matrices() {
    for (m, n, seed) in [(37usize, 23usize, 1u64), (50, 50, 2), (64, 17, 3)] {
        let a = random_gaussian(m, n, seed);
        let tiled = ge2val(&a, &Ge2Options::new(8)).singular_values;
        let oracle = jacobi_singular_values(&a);
        assert!(
            singular_values_match(&tiled, &oracle, 1e-10),
            "mismatch with Jacobi oracle for {m}x{n}"
        );
    }
}

#[test]
fn all_algorithms_and_baselines_agree() {
    let (a, sigma) = latms(60, 24, &SpectrumKind::Geometric { cond: 1.0e5 }, 7);
    let tiled_b = ge2val(
        &a,
        &Ge2Options::new(8).with_algorithm(AlgorithmChoice::Bidiag),
    )
    .singular_values;
    let tiled_r = ge2val(
        &a,
        &Ge2Options::new(8).with_algorithm(AlgorithmChoice::RBidiag),
    )
    .singular_values;
    let one_stage = one_stage_singular_values(&a);
    let chan = chan_singular_values(&a);
    for (name, sv) in [
        ("tiled BIDIAG", &tiled_b),
        ("tiled R-BIDIAG", &tiled_r),
        ("one-stage", &one_stage),
        ("Chan", &chan),
    ] {
        assert!(
            singular_values_match(sv, &sigma, 1e-10),
            "{name} lost the prescribed spectrum"
        );
    }
}

#[test]
fn every_tree_and_thread_count_gives_identical_results() {
    let (a, _) = latms(45, 30, &SpectrumKind::OneLarge { cond: 1.0e6 }, 13);
    let reference = ge2val(&a, &Ge2Options::new(8)).singular_values;
    for tree in [
        NamedTree::FlatTs,
        NamedTree::FlatTt,
        NamedTree::Greedy,
        NamedTree::Auto {
            gamma: 2.0,
            ncores: 3,
        },
    ] {
        for threads in [1usize, 3] {
            let sv = ge2val(
                &a,
                &Ge2Options::new(8).with_tree(tree).with_threads(threads),
            )
            .singular_values;
            assert!(
                singular_values_match(&reference, &sv, 1e-12),
                "tree {tree:?} with {threads} threads diverged"
            );
        }
    }
}

/// The differential matrix for the reduction trees.  Only FLATTS and
/// AUTO's domains (the default is AUTO at one core) run the TS kernels, so
/// this is their end-to-end cover: every algorithm x tree x shape x
/// spectrum must recover the prescribed LATMS spectrum and agree with
/// GREEDY, which shares no elimination kernel with FLATTS.
#[test]
fn every_algorithm_tree_shape_and_spectrum_recovers_the_prescribed_values() {
    const NB: usize = 8;
    let shapes = [
        ("square", 40usize, 40usize),
        ("tall 8:1", 128, 16),
        ("wide m < n", 18, 44),
        ("one tile column", 50, 7),
        ("ragged", 45, 29),
        ("n = 1", 37, 1),
    ];
    let scaled = |k: usize, scale: f64| {
        let base = SpectrumKind::Geometric { cond: 1.0e4 }.values(k);
        SpectrumKind::Explicit(base.iter().map(|s| s * scale).collect())
    };
    let clustered = |k: usize| {
        SpectrumKind::Explicit((0..k).map(|i| [1.0, 1.0e-2, 1.0e-5][3 * i / k]).collect())
    };
    // The trailing half exactly zero.
    let rank_deficient = |k: usize| {
        let rank = k.div_ceil(2);
        let mut s = SpectrumKind::Geometric { cond: 1.0e3 }.values(rank);
        s.resize(k, 0.0);
        SpectrumKind::Explicit(s)
    };
    // A factor of two per value whatever `k` is.
    let graded = |k: usize| SpectrumKind::Explicit((0..k).map(|i| 0.5f64.powi(i as i32)).collect());
    let trees = [
        ("default", None),
        ("FlatTs", Some(NamedTree::FlatTs)),
        ("FlatTt", Some(NamedTree::FlatTt)),
        (
            "Auto{2,4}",
            Some(NamedTree::Auto {
                gamma: 2.0,
                ncores: 4,
            }),
        ),
    ];
    for (shape, m, n) in shapes {
        let k = m.min(n);
        let spectra = [
            ("geometric 1e12", SpectrumKind::Geometric { cond: 1.0e12 }),
            ("clustered", clustered(k)),
            ("scaled 1e+150", scaled(k, 1.0e150)),
            ("scaled 1e-150", scaled(k, 1.0e-150)),
            ("geometric 1e15", SpectrumKind::Geometric { cond: 1.0e15 }),
            ("rank-deficient", rank_deficient(k)),
            ("graded", graded(k)),
        ];
        for (seed, (spectrum, kind)) in spectra.iter().enumerate() {
            let (a, sigma) = latms(m, n, kind, 40 + seed as u64);
            for alg in [AlgorithmChoice::Bidiag, AlgorithmChoice::RBidiag] {
                let run = |tree: Option<NamedTree>| {
                    let opts = Ge2Options::new(NB).with_algorithm(alg);
                    ge2val(&a, &tree.map_or(opts, |t| opts.with_tree(t))).singular_values
                };
                let greedy = run(Some(NamedTree::Greedy));
                let case = format!("{shape} {m}x{n}, {spectrum}, {alg:?}");
                assert!(
                    singular_values_match(&sigma, &greedy, 1e-10),
                    "{case}, Greedy: lost the prescribed spectrum"
                );
                for (name, tree) in trees {
                    let sv = run(tree);
                    assert!(
                        singular_values_match(&sigma, &sv, 1e-10),
                        "{case}, {name}: lost the prescribed spectrum"
                    );
                    assert!(
                        singular_values_match(&greedy, &sv, 1e-12),
                        "{case}, {name}: diverged from Greedy"
                    );
                }
            }
        }
    }
}

/// The default tree is AUTO sized for one core whatever the thread count:
/// sizing it from `threads` would make `with_threads` change the arithmetic.
#[test]
fn the_default_tree_is_auto_at_one_core_and_threads_never_change_the_result() {
    let auto_1 = NamedTree::Auto {
        gamma: 2.0,
        ncores: 1,
    };
    assert_eq!(Ge2Options::new(8).tree, auto_1);
    assert_eq!(Ge2Options::new(8).with_threads(4).tree, auto_1);
    // Ragged in both dimensions; TS chains share one pivot tile per panel,
    // so any write-ordering slip in the task graph shows up bitwise here.
    let (a, _) = latms(75, 29, &SpectrumKind::Geometric { cond: 1.0e6 }, 17);
    for alg in [AlgorithmChoice::Bidiag, AlgorithmChoice::RBidiag] {
        let run = |threads: usize| {
            let opts = Ge2Options::new(8).with_algorithm(alg).with_threads(threads);
            ge2val(&a, &opts).singular_values
        };
        let sequential = run(1);
        for threads in [2usize, 4] {
            assert_eq!(sequential, run(threads), "{alg:?} at {threads} threads");
        }
    }
}

#[test]
fn band_output_has_the_expected_structure() {
    let (a, _) = latms(48, 32, &SpectrumKind::Uniform, 5);
    let r = ge2bnd(
        &a,
        &Ge2Options::new(8).with_algorithm(AlgorithmChoice::Bidiag),
    );
    let band = r.band.to_dense();
    assert_eq!(band.rows(), 32);
    assert!(band.upper_bandwidth(1e-10) <= 8, "band wider than nb");
    // Norm preservation (orthogonal invariance).
    assert!((r.band.norm_fro() - a.norm_fro()).abs() < 1e-9 * a.norm_fro());
}

#[test]
fn difficult_spectra_are_preserved() {
    // Clustered and tiny singular values.
    let spectrum = vec![1.0, 1.0, 1.0, 1e-3, 1e-3, 1e-7, 1e-9, 0.0];
    let (a, sigma) = latms(40, 8, &SpectrumKind::Explicit(spectrum), 11);
    let sv = ge2val(&a, &Ge2Options::new(4)).singular_values;
    // Absolute accuracy relative to sigma_max is what orthogonal reductions guarantee.
    assert!(singular_values_match(&sv, &sigma, 1e-12));
}

#[test]
fn identity_and_rank_one_edge_cases() {
    let sv = ge2val(&Matrix::identity(20), &Ge2Options::new(4)).singular_values;
    assert!(singular_values_match(&sv, &[1.0; 20], 1e-12));

    // Rank-one matrix: u * v^T.
    let u = random_gaussian(30, 1, 1);
    let v = random_gaussian(12, 1, 2);
    let a = u.matmul(&v.transpose());
    let sv = ge2val(&a, &Ge2Options::new(4)).singular_values;
    let expected = u.norm_fro() * v.norm_fro();
    assert!((sv[0] - expected).abs() < 1e-10 * expected);
    for s in &sv[1..] {
        assert!(s.abs() < 1e-10 * expected);
    }
}
