//! Critical-path analysis (Section IV of the paper).
//!
//! The module provides three layers, which the test-suite cross-checks
//! against one another:
//!
//! 1. **per-step closed forms** — the critical path of one QR step of size
//!    `(u, v)` for the FLATTS, FLATTT and GREEDY trees,
//! 2. **algorithm closed forms** — the BIDIAG critical paths obtained by
//!    summing the steps (the paper proves consecutive steps cannot overlap),
//!    including the simplified polynomial forms `12pq - 6p + 2q - 4`
//!    (FLATTS) and `6pq - 4p + 12q - 10` (FLATTT),
//! 3. **measured critical paths** — the longest path of the actual task DAG
//!    generated by the drivers, weighted with Table I costs.
//!
//! All lengths are in the paper's time unit of `nb^3/3` flops.

use crate::drivers::{bidiag_ops, ge2bnd_ops, qr_factorization_ops, Algorithm, GenConfig};
use crate::exec::build_graph;
use bidiag_matrix::BlockCyclic;
use bidiag_trees::NamedTree;

/// Ceil of `log2(x)` for `x >= 1`.
pub fn ceil_log2(x: usize) -> usize {
    assert!(x >= 1);
    (usize::BITS - (x - 1).leading_zeros()) as usize
}

/// Critical path of one QR step on a `(u, v)`-tile matrix (panel of `u`
/// rows, `v` total columns including the panel) for the given tree.
///
/// Matches the expressions of Section IV.A.  Only the three static trees are
/// supported (the paper explicitly excludes AUTO from the analysis because it
/// is defined for bounded resources).
pub fn qr_step_cp(tree: NamedTree, u: usize, v: usize) -> f64 {
    assert!(u >= 1 && v >= 1);
    let last = v == 1;
    match tree {
        NamedTree::FlatTs => {
            if last {
                4.0 + 6.0 * (u as f64 - 1.0)
            } else {
                4.0 + 6.0 + 12.0 * (u as f64 - 1.0)
            }
        }
        NamedTree::FlatTt => {
            if last {
                4.0 + 2.0 * (u as f64 - 1.0)
            } else {
                4.0 + 6.0 + 6.0 * (u as f64 - 1.0)
            }
        }
        NamedTree::Greedy => {
            let l = ceil_log2(u) as f64;
            if last {
                4.0 + 2.0 * l
            } else {
                4.0 + 6.0 + 6.0 * l
            }
        }
        NamedTree::Auto { .. } => {
            panic!("critical path formulas are not defined for the AUTO tree")
        }
    }
}

/// Critical path of one LQ step on a `(u, v)`-tile matrix (`u` rows, panel of
/// `v` columns): by symmetry `LQ1step(u, v) = QR1step(v, u)`.
pub fn lq_step_cp(tree: NamedTree, u: usize, v: usize) -> f64 {
    qr_step_cp(tree, v, u)
}

/// Critical path of the BIDIAG algorithm on a `p x q` tile matrix obtained
/// by summing the per-step critical paths (Section IV.A: consecutive steps
/// cannot overlap).
pub fn bidiag_cp(tree: NamedTree, p: usize, q: usize) -> f64 {
    assert!(p >= q && q >= 1);
    let mut total = 0.0;
    for k in 1..=q {
        // Step QR(k) on a (p-k+1, q-k+1) matrix.
        total += qr_step_cp(tree, p - k + 1, q - k + 1);
        if k < q {
            // Step LQ(k) on a (p-k+1, q-k) matrix.
            total += lq_step_cp(tree, p - k + 1, q - k);
        }
    }
    total
}

/// Closed form for BIDIAG with FLATTS: `12pq - 6p + 2q - 4` (Section IV.A).
pub fn bidiag_cp_flatts_closed(p: usize, q: usize) -> f64 {
    let (p, q) = (p as f64, q as f64);
    12.0 * p * q - 6.0 * p + 2.0 * q - 4.0
}

/// Closed form for BIDIAG with FLATTT: `6pq - 4p + 12q - 10` (Section IV.A).
pub fn bidiag_cp_flattt_closed(p: usize, q: usize) -> f64 {
    let (p, q) = (p as f64, q as f64);
    6.0 * p * q - 4.0 * p + 12.0 * q - 10.0
}

/// Sum formula for BIDIAG with GREEDY (Section IV.A):
/// `sum_{k=1}^{q-1} (10 + 6 ceil(log2(p+1-k))) + sum_{k=1}^{q-1} (10 + 6 ceil(log2(q-k))) + 4 + 2 ceil(log2(p+1-q))`.
pub fn bidiag_cp_greedy_closed(p: usize, q: usize) -> f64 {
    let mut total = 0.0;
    for k in 1..=(q - 1) {
        total += 10.0 + 6.0 * ceil_log2(p + 1 - k) as f64;
        total += 10.0 + 6.0 * ceil_log2(q - k) as f64;
    }
    total + 4.0 + 2.0 * ceil_log2(p + 1 - q) as f64
}

/// Asymptotic equivalent of the optimal BIDIAG critical path for
/// `p = beta * q^(1+alpha)` (Theorem 1): `(12 + 6 alpha) q log2(q)`.
pub fn bidiag_cp_asymptotic(alpha: f64, q: usize) -> f64 {
    (12.0 + 6.0 * alpha) * q as f64 * (q as f64).log2()
}

/// Critical path measured on the task DAG generated by the drivers.
pub fn measured_cp(algorithm: Algorithm, tree: NamedTree, p: usize, q: usize) -> f64 {
    let cfg = GenConfig::shared(tree);
    let ops = ge2bnd_ops(p, q, algorithm, &cfg);
    build_graph(&ops, q, &BlockCyclic::single_node()).critical_path()
}

/// Critical path of the plain tiled QR factorization measured on its DAG.
pub fn measured_qr_cp(tree: NamedTree, p: usize, q: usize) -> f64 {
    let cfg = GenConfig::shared(tree);
    let ops = qr_factorization_ops(p, q, &cfg);
    build_graph(&ops, q, &BlockCyclic::single_node()).critical_path()
}

/// The paper's no-overlap estimate of the R-BIDIAG critical path: QR
/// factorization of `(p, q)` plus bidiagonalization of the square `(q, q)` R
/// factor minus the (already performed) first QR step.
pub fn rbidiag_cp_estimate(tree: NamedTree, p: usize, q: usize) -> f64 {
    measured_qr_cp(tree, p, q) + bidiag_cp(tree, q, q) - qr_step_cp(tree, q, q)
}

/// Result of the BIDIAG / R-BIDIAG crossover search for a fixed `q`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Crossover {
    /// Number of tile columns.
    pub q: usize,
    /// Smallest `p` for which R-BIDIAG has a critical path at most as long
    /// as BIDIAG (`None` if not found below the search bound).
    pub p_star: Option<usize>,
    /// The crossover ratio `delta_s = p*/q` when found.
    pub ratio: Option<f64>,
}

/// Find, for a fixed `q`, the smallest `p in [q, max_ratio*q]` such that the
/// measured critical path of R-BIDIAG (GREEDY trees) is no longer than the
/// measured critical path of BIDIAG.  Section IV.C reports that this ratio
/// oscillates between 5 and 8.
pub fn crossover(q: usize, max_ratio: usize) -> Crossover {
    assert!(q >= 2);
    let cfg = GenConfig::shared(NamedTree::Greedy);
    for p in q..=(max_ratio * q) {
        let b =
            build_graph(&bidiag_ops(p, q, &cfg), q, &BlockCyclic::single_node()).critical_path();
        let r = build_graph(
            &crate::drivers::rbidiag_ops(p, q, &cfg),
            q,
            &BlockCyclic::single_node(),
        )
        .critical_path();
        if r <= b {
            return Crossover {
                q,
                p_star: Some(p),
                ratio: Some(p as f64 / q as f64),
            };
        }
    }
    Crossover {
        q,
        p_star: None,
        ratio: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
    }

    #[test]
    fn closed_forms_match_per_step_sums() {
        for &(p, q) in &[
            (1usize, 1usize),
            (2, 2),
            (4, 4),
            (8, 3),
            (10, 10),
            (16, 5),
            (23, 7),
        ] {
            let sum_ts = bidiag_cp(NamedTree::FlatTs, p, q);
            assert!(
                (sum_ts - bidiag_cp_flatts_closed(p, q)).abs() < 1e-9,
                "FLATTS p={p} q={q}: {sum_ts} vs {}",
                bidiag_cp_flatts_closed(p, q)
            );
            let sum_tt = bidiag_cp(NamedTree::FlatTt, p, q);
            assert!(
                (sum_tt - bidiag_cp_flattt_closed(p, q)).abs() < 1e-9,
                "FLATTT p={p} q={q}: {sum_tt} vs {}",
                bidiag_cp_flattt_closed(p, q)
            );
            let sum_gr = bidiag_cp(NamedTree::Greedy, p, q);
            assert!(
                (sum_gr - bidiag_cp_greedy_closed(p, q)).abs() < 1e-9,
                "GREEDY p={p} q={q}: {sum_gr} vs {}",
                bidiag_cp_greedy_closed(p, q)
            );
        }
    }

    #[test]
    fn measured_dag_critical_path_equals_formulas() {
        // The strongest internal consistency check of the reproduction: the
        // longest path of the generated task DAG (with Table I weights) must
        // equal the paper's critical path expressions exactly.
        for &(p, q) in &[
            (2usize, 2usize),
            (4, 3),
            (5, 5),
            (8, 4),
            (9, 2),
            (7, 7),
            (12, 5),
        ] {
            for tree in [NamedTree::FlatTs, NamedTree::FlatTt, NamedTree::Greedy] {
                let measured = measured_cp(Algorithm::Bidiag, tree, p, q);
                let formula = bidiag_cp(tree, p, q);
                assert!(
                    (measured - formula).abs() < 1e-9,
                    "{tree:?} p={p} q={q}: measured {measured} vs formula {formula}"
                );
            }
        }
    }

    #[test]
    fn paper_special_cases_for_powers_of_two() {
        // If q is a power of two: BIDIAG_GREEDY(q, q) = 12 q log2(q) + 8q - 6 log2(q) - 4.
        for q in [2usize, 4, 8, 16, 32] {
            let lhs = bidiag_cp(NamedTree::Greedy, q, q);
            let lq = (q as f64).log2();
            let rhs = 12.0 * q as f64 * lq + 8.0 * q as f64 - 6.0 * lq - 4.0;
            assert!((lhs - rhs).abs() < 1e-9, "q={q}: {lhs} vs {rhs}");
        }
        // If p and q are powers of two with p > q:
        // BIDIAG_GREEDY(p, q) = 6q log2 p + 6q log2 q + 14q - 4 log2 p - 6 log2 q - 10.
        for &(p, q) in &[(8usize, 4usize), (16, 4), (32, 8), (64, 16)] {
            let lhs = bidiag_cp(NamedTree::Greedy, p, q);
            let (lp, lq) = ((p as f64).log2(), (q as f64).log2());
            let qf = q as f64;
            let rhs = 6.0 * qf * lp + 6.0 * qf * lq + 14.0 * qf - 4.0 * lp - 6.0 * lq - 10.0;
            assert!((lhs - rhs).abs() < 1e-9, "p={p} q={q}: {lhs} vs {rhs}");
        }
    }

    #[test]
    fn greedy_is_asymptotically_better_than_flat_trees() {
        let q = 64;
        let p = 64;
        let g = bidiag_cp(NamedTree::Greedy, p, q);
        let tt = bidiag_cp(NamedTree::FlatTt, p, q);
        let ts = bidiag_cp(NamedTree::FlatTs, p, q);
        assert!(
            g < tt && tt < ts,
            "expected GREEDY < FLATTT < FLATTS, got {g}, {tt}, {ts}"
        );
        // Order of magnitude: Theta(q log q) vs Theta(q^2).
        assert!(g < 0.2 * ts);
    }

    #[test]
    fn rbidiag_beats_bidiag_for_tall_matrices_and_not_for_square() {
        // Square: BIDIAG has the shorter critical path.
        let q = 6;
        let b_sq = measured_cp(Algorithm::Bidiag, NamedTree::Greedy, q, q);
        let r_sq = measured_cp(Algorithm::RBidiag, NamedTree::Greedy, q, q);
        assert!(
            b_sq <= r_sq,
            "square: BIDIAG {b_sq} should not exceed R-BIDIAG {r_sq}"
        );
        // Very tall and skinny: R-BIDIAG wins.
        let b_ts = measured_cp(Algorithm::Bidiag, NamedTree::Greedy, 60, 4);
        let r_ts = measured_cp(Algorithm::RBidiag, NamedTree::Greedy, 60, 4);
        assert!(
            r_ts < b_ts,
            "tall-skinny: R-BIDIAG {r_ts} should beat BIDIAG {b_ts}"
        );
    }

    #[test]
    fn crossover_ratio_in_reported_range() {
        // The paper reports delta_s oscillating between 5 and 8 (Section IV.C).
        // Allow a slightly wider interval: the paper's estimate ignores the
        // QR/bidiagonalization overlap that the measured DAG captures.
        for q in [3usize, 4, 6] {
            let c = crossover(q, 12);
            let ratio = c.ratio.expect("crossover must exist below 12q");
            assert!((2.0..=10.0).contains(&ratio), "q={q}: ratio {ratio}");
        }
    }

    #[test]
    fn asymptotic_helpers() {
        assert!(bidiag_cp_asymptotic(0.0, 1024) > 0.0);
    }

    #[test]
    fn rbidiag_estimate_is_close_to_measured() {
        // The no-overlap estimate must upper-bound (or equal) the measured
        // DAG critical path, and be within the first QR step of it.
        for &(p, q) in &[(12usize, 4usize), (20, 5), (9, 3)] {
            let est = rbidiag_cp_estimate(NamedTree::Greedy, p, q);
            let meas = measured_cp(Algorithm::RBidiag, NamedTree::Greedy, p, q);
            assert!(
                est + 1e-9 >= meas,
                "estimate {est} below measured {meas} for p={p} q={q}"
            );
            assert!(
                est - meas <= qr_step_cp(NamedTree::Greedy, p, q) + 30.0,
                "estimate too loose"
            );
        }
    }
}
