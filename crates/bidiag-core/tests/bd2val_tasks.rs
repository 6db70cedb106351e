//! Task-fan-out coverage of the BD2VAL runtime back-end, in the style of
//! `bidiag-runtime/tests/scheduler_stress.rs`: the sliced path must spawn
//! one task per spectrum *interval* — not one task per singular value
//! (512 task activations on the reference case) — and its
//! results must be independent of the thread count, including heavy
//! oversubscription.

use bidiag_core::exec::{bd2val_on_runtime, bd2val_task_count};
use bidiag_core::{Bd2ValOptions, SvdSolver};
use bidiag_matrix::gen::random_gaussian;
use bidiag_svd::{slice_spectrum, GkBisection, GkSturm};

fn reference_bidiagonal(n: usize) -> (Vec<f64>, Vec<f64>) {
    let g = random_gaussian(n, 2, 42);
    let d: Vec<f64> = (0..n).map(|i| g.get(i, 0)).collect();
    let e: Vec<f64> = (0..n - 1).map(|i| g.get(i, 1)).collect();
    (d, e)
}

#[test]
fn sliced_bd2val_spawns_one_task_per_interval_at_n_512() {
    let n = 512;
    let (d, e) = reference_bidiagonal(n);
    let opts = Bd2ValOptions::default().with_solver(SvdSolver::SlicedBisection);

    // The task count is the slice count: ~k / values_per_task, never k.
    let tasks = bd2val_task_count(&d, &e, &opts);
    let max_tasks = n.div_ceil(opts.values_per_task) + 1;
    assert!(
        (1..=max_tasks).contains(&tasks),
        "expected at most {max_tasks} interval tasks for {n} values, got {tasks}"
    );
    assert!(
        tasks * 8 <= n,
        "interval fan-out must be far below one-task-per-value ({tasks} vs {n})"
    );

    // The bisection oracle and dqds each run as a single task.
    let oracle_opts = Bd2ValOptions::default().with_solver(SvdSolver::Bisection);
    assert_eq!(bd2val_task_count(&d, &e, &oracle_opts), 1);
    assert_eq!(bd2val_task_count(&d, &e, &Bd2ValOptions::default()), 1);

    // And the slices really are the plan the runtime executes: they tile
    // all k values disjointly.
    let sturm = GkSturm::new(&d, &e);
    let slices = slice_spectrum(&sturm, opts.values_per_task);
    assert_eq!(slices.len(), tasks);
    let covered: usize = slices.iter().map(|s| s.num_values(n)).sum();
    assert_eq!(covered, n, "slices must cover every singular value once");
}

#[test]
fn sliced_bd2val_is_thread_count_invariant_under_oversubscription() {
    let n = 96;
    let (d, e) = reference_bidiagonal(n);
    let opts = Bd2ValOptions::default()
        .with_solver(SvdSolver::SlicedBisection)
        .with_values_per_task(8);

    let seq = bidiag_svd::singular_values_with(&d, &e, &opts);
    // 32 threads on (possibly) one core: most workers park, results must
    // not change by a single bit.
    for threads in [2usize, 4, 32] {
        let par = bd2val_on_runtime(&d, &e, threads, &opts);
        assert_eq!(seq, par, "{threads} threads diverged");
    }

    // Cross-check against the per-value oracle at sigma_max-relative 1e-13.
    let b = GkBisection::new(&d, &e);
    let smax = b.nth_largest(0);
    for (j, s) in seq.iter().enumerate() {
        let o = b.nth_largest(j);
        assert!((s - o).abs() <= 1e-13 * smax, "value {j}: {s} vs {o}");
    }
}
