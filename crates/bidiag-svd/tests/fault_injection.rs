//! Fault-injection tests of the dqds fallback ladder, driven by the
//! `failpoint` shim's named injection point `svd::segment`.
//!
//! Gated behind the `failpoints` cargo feature so the process-global
//! failpoint registry is only armed in the dedicated CI leg; within this
//! binary every test serializes through `failpoint::scoped`.

#![cfg(feature = "failpoints")]

use bidiag_kernels::gebd2::gebd2;
use bidiag_matrix::gen::{latms, random_gaussian, SpectrumKind};
use bidiag_svd::{
    bisection_singular_values, dqds_gang_into, dqds_singular_values, dqds_singular_values_into,
    dqds_singular_values_with_stats, DqdsScratch, DqdsStats, LANES,
};
use failpoint::FailAction;

mod common;
use common::{assert_rel_close, graded_bidiagonal, Bidiag};

const D: [f64; 6] = [4.0, -3.0, 2.5, 1.0, 0.5, 0.25];
const E: [f64; 5] = [0.7, -0.3, 0.2, 0.1, 0.05];

#[test]
fn injected_nan_poisons_the_segment_and_surfaces_as_nan_output() {
    {
        let _guard = failpoint::scoped(&[("svd::segment", FailAction::PoisonNan)]);
        let (sv, stats) = dqds_singular_values_with_stats(&D, &E);
        assert!(failpoint::hits("svd::segment") > 0, "site never fired");
        assert_eq!(sv.len(), D.len());
        assert!(
            sv.iter().any(|v| v.is_nan()),
            "poison was laundered: {sv:?}"
        );
        assert!(stats.poisoned_values > 0, "{stats:?}");
    }
    // Disarmed again: the same solve is clean and the stats say so.
    let _guard = failpoint::scoped(&[]);
    let (sv, stats) = dqds_singular_values_with_stats(&D, &E);
    assert_eq!(stats.poisoned_values, 0, "{stats:?}");
    assert_eq!(stats.fallback_values, 0, "{stats:?}");
    assert_rel_close(&sv, &bisection_singular_values(&D, &E), 1e-13, "disarmed");
}

/// A `latms` matrix with the given spectrum, reduced to its bidiagonal.
fn latms_bidiagonal(m: usize, n: usize, spectrum: SpectrumKind, seed: u64) -> Bidiag {
    let (mut a, _) = latms(m, n, &spectrum, seed);
    let bd = gebd2(&mut a);
    (bd.diag, bd.superdiag)
}

/// A random bidiagonal of order 12 scaled by `2^exp`.
fn scaled_bidiagonal(exp: i32) -> Bidiag {
    let s = 2.0_f64.powi(exp);
    let g = random_gaussian(12, 2, 0x5ca1e);
    let d = (0..12).map(|i| s * g.get(i, 0)).collect();
    let e = (0..11).map(|i| s * g.get(i, 1)).collect();
    (d, e)
}

/// The spectrum classes of `solver_properties.rs`, as bidiagonals `(d, e)`.
fn spectrum_classes() -> Vec<(&'static str, Bidiag)> {
    let mut clusters = vec![7.0; 10];
    clusters.extend(vec![3.0; 6]);
    clusters.extend(vec![1e-3; 4]);
    let zero_cluster = vec![5.0, 5.0, 5.0, 2.0, 2.0, 0.0, 0.0, 0.0];
    let tiny = vec![4.0, 3.0, 2.0, 1.0, 1e-8, 1e-8];
    let explicit = SpectrumKind::Explicit;
    vec![
        ("reference 6x6", (D.to_vec(), E.to_vec())),
        ("clusters", latms_bidiagonal(28, 20, explicit(clusters), 11)),
        (
            "zero cluster",
            latms_bidiagonal(16, 8, explicit(zero_cluster), 13),
        ),
        (
            "graded latms",
            latms_bidiagonal(24, 18, SpectrumKind::Geometric { cond: 1e12 }, 7),
        ),
        ("graded direct", graded_bidiagonal(33, 2)),
        ("tiny latms", latms_bidiagonal(14, 6, explicit(tiny), 5)),
        ("tiny direct", (vec![1.0, 1e-8, 1.0, 0.5], vec![0.0; 3])),
        (
            "zero diagonals",
            (vec![1.0, 0.0, 2.0, 0.0], vec![0.5, 0.25, 0.125]),
        ),
        ("leading zero", (vec![0.0, 3.0], vec![1.0])),
        ("scaled 2^120", scaled_bidiagonal(120)),
        ("scaled 2^-120", scaled_bidiagonal(-120)),
        ("n = 1", (vec![-3.0], vec![])),
        ("n = 2", (vec![1.0, 1.0], vec![1.0])),
    ]
}

#[test]
fn forced_ladder_takes_the_oracle_and_stays_correct() {
    let _guard = failpoint::scoped(&[("svd::segment", FailAction::Trigger)]);
    for (ctx, (d, e)) in spectrum_classes() {
        let (sv, stats) = dqds_singular_values_with_stats(&d, &e);
        assert_eq!(stats.fallback_values, d.len(), "{ctx}: {stats:?}");
        assert_eq!(stats.passes, 0, "{ctx}: {stats:?}");
        assert_eq!(stats.poisoned_values, 0, "{ctx}: {stats:?}");
        assert_rel_close(&sv, &bisection_singular_values(&d, &e), 1e-13, ctx);
    }
    assert!(failpoint::hits("svd::segment") > 0, "site never fired");
}

#[test]
fn a_scratch_reused_after_a_panic_mid_solve_carries_nothing_over() {
    // The exact zero splits the problem as its window opens, so the panic
    // at the first window's failpoint leaves the sibling on the stack.
    let mut scratch = DqdsScratch::new();
    let mut out = Vec::new();
    {
        let _guard = failpoint::scoped(&[("svd::segment", FailAction::Panic("mid-solve".into()))]);
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dqds_singular_values_into(
                &[4.0, 3.0, 2.0, 1.0],
                &[0.5, 0.0, 0.3],
                &mut scratch,
                &mut out,
            )
        }));
        assert!(died.is_err(), "the failpoint never fired");
    }
    let _guard = failpoint::scoped(&[]);
    let (d, e) = ([1.0, 2.0, 3.0], [0.1, 0.2]);
    dqds_singular_values_into(&d, &e, &mut scratch, &mut out);
    assert_eq!(out, dqds_singular_values(&d, &e));
}

/// A gang's outputs bit for bit (NaN included) and its summed counters.
fn gang(problems: &[Bidiag]) -> (Vec<Vec<u64>>, DqdsStats) {
    let mut outs = vec![Vec::new(); problems.len()];
    let mut lanes: Vec<DqdsScratch> = (0..LANES).map(|_| DqdsScratch::new()).collect();
    let stats = dqds_gang_into(
        problems
            .iter()
            .zip(&mut outs)
            .map(|((d, e), out)| (&d[..], &e[..], out)),
        &mut lanes,
    );
    let bits = outs
        .iter()
        .map(|sv| sv.iter().map(|v| v.to_bits()).collect())
        .collect();
    (bits, stats)
}

/// The same problems solved one at a time.
fn alone(problems: &[Bidiag]) -> (Vec<Vec<u64>>, DqdsStats) {
    let mut total = DqdsStats::default();
    let bits = problems
        .iter()
        .map(|(d, e)| {
            let (sv, stats) = dqds_singular_values_with_stats(d, e);
            total += stats;
            sv.iter().map(|v| v.to_bits()).collect()
        })
        .collect();
    (bits, total)
}

#[test]
fn poison_in_a_gang_stays_in_its_own_problem() {
    let classes: Vec<Bidiag> = spectrum_classes().into_iter().map(|(_, p)| p).collect();
    {
        // Every window the failpoint sees is poisoned, in a gang as alone:
        // each problem comes out of the gang as it does on its own.
        let _guard = failpoint::scoped(&[("svd::segment", FailAction::PoisonNan)]);
        let (in_gang, stats) = gang(&classes);
        let (one_by_one, alone_stats) = alone(&classes);
        assert_eq!(in_gang, one_by_one);
        assert_eq!(stats, alone_stats);
        assert!(stats.poisoned_values > 0, "{stats:?}");
    }
    // A problem poisoned at its input, between clean ones: the clean ones
    // are bitwise what they are alone, finite, and the poison stays put.
    let _guard = failpoint::scoped(&[]);
    let mut mixed = classes.clone();
    mixed.insert(3, (vec![1.0, f64::NAN, 2.0, 0.5], vec![0.5, 0.25, 0.75]));
    let (in_gang, stats) = gang(&mixed);
    assert_eq!(in_gang, alone(&mixed).0);
    assert_eq!(stats.poisoned_values, 4, "{stats:?}");
    for (k, sv) in in_gang.iter().enumerate() {
        let finite = sv.iter().all(|b| f64::from_bits(*b).is_finite());
        assert_eq!(finite, k != 3, "problem {k}");
    }
}
