//! Quickstart: compute the singular values of a matrix with the tiled
//! two-stage pipeline (GE2BND -> BND2BD -> BD2VAL) and check them against
//! the prescribed spectrum, exactly like the sanity check the paper performs
//! for every experiment.
//!
//! Run with: `cargo run --release --example quickstart`

use bidiag_repro::prelude::*;

fn main() {
    // A 600 x 400 matrix with a prescribed geometric spectrum (cond = 1e6),
    // the kind of test matrix LAPACK's LATMS produces.
    let (m, n) = (600, 400);
    let (a, sigma) = latms(m, n, &SpectrumKind::Geometric { cond: 1.0e6 }, 2024);
    println!("matrix: {m} x {n}, prescribed condition number 1e6");

    // Tiled bidiagonalization with the GREEDY reduction tree on 4 threads.
    let opts = Ge2Options::new(64)
        .with_tree(NamedTree::Greedy)
        .with_threads(4);
    let result = ge2val(&a, &opts);

    // `ge2val` returns the spectrum only; stage 1 on its own is `ge2bnd`.
    let stage1 = ge2bnd(&a, &opts);
    println!("algorithm selected by Chan's rule: {:?}", stage1.algorithm);
    println!("tile tasks in GE2BND: {}", stage1.num_tasks);
    println!(
        "largest singular values: {:?}",
        &result.singular_values[..5.min(n)]
    );

    let err = singular_value_error(&result.singular_values, &sigma);
    println!("max relative error vs prescribed spectrum: {err:.2e}");
    assert!(
        err < 1e-10,
        "singular values should be accurate to ~machine precision"
    );
    println!("OK — singular values recovered to machine precision");
}
