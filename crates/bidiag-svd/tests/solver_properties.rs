//! Property tests pinning the production solver — dqds — to the
//! [`GkBisection`] per-value oracle at 1e-13 relative accuracy, with the
//! fallback ladder never firing, across the spectrum shapes the subsystem
//! must survive:
//! clustered values, graded spectra (condition 1e12), random signs,
//! tiny (`1e-8`) values and zero/empty edge cases, both on directly
//! constructed bidiagonals and on `latms` matrices reduced through
//! `gebd2`; an adversarial sweep of six families up to order 152, where
//! windows are long enough to split, flip and deflate two at a time; pins
//! on the number of passes the driver takes on the benchmark's inputs; and
//! gangs of problems, which must be solved bitwise as one at a time.

use bidiag_kernels::gebd2::gebd2;
use bidiag_matrix::checks::singular_values_match;
use bidiag_matrix::gen::{latms, random_gaussian, SpectrumKind};
use bidiag_svd::{
    bisection_singular_values, dqds_gang_into, dqds_singular_values,
    dqds_singular_values_with_stats, DqdsScratch, DqdsStats,
};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};

mod common;
use common::{assert_rel_close, graded_bidiagonal, Bidiag};

/// Run dqds against the oracle on one bidiagonal.
fn check_against_oracle(d: &[f64], e: &[f64], ctx: &str) -> DqdsStats {
    let oracle = bisection_singular_values(d, e);
    let (dq, stats) = dqds_singular_values_with_stats(d, e);
    assert_rel_close(&dq, &oracle, 1e-13, &format!("{ctx} [dqds]"));
    assert_eq!(stats.fallback_values, 0, "{ctx}: the ladder fired");
    stats
}

/// Reduce a latms matrix with the given spectrum to bidiagonal form and
/// check dqds on it (against the oracle at 1e-13 relative, and against
/// the prescribed spectrum at orthogonal-reduction accuracy).
fn check_latms_spectrum(m: usize, n: usize, spectrum: &SpectrumKind, seed: u64, ctx: &str) {
    let (a, sigma) = latms(m, n, spectrum, seed);
    let mut w = a.clone();
    let bd = gebd2(&mut w);
    check_against_oracle(&bd.diag, &bd.superdiag, ctx);
    let sv = dqds_singular_values(&bd.diag, &bd.superdiag);
    assert!(
        singular_values_match(&sv, &sigma, 1e-10),
        "{ctx}: prescribed spectrum not recovered"
    );
}

#[test]
fn clustered_spectra() {
    // Ten-fold clusters, a cluster at the bottom, and a cluster of zeros.
    let mut spec = vec![7.0; 10];
    spec.extend(vec![3.0; 6]);
    spec.extend(vec![1e-3; 4]);
    check_latms_spectrum(28, 20, &SpectrumKind::Explicit(spec), 11, "clusters");

    let spec = vec![5.0, 5.0, 5.0, 2.0, 2.0, 0.0, 0.0, 0.0];
    check_latms_spectrum(16, 8, &SpectrumKind::Explicit(spec), 13, "zero cluster");
}

#[test]
fn graded_condition_1e12() {
    // Through latms + gebd2 (sigma_max-relative recovery) ...
    check_latms_spectrum(
        24,
        18,
        &SpectrumKind::Geometric { cond: 1e12 },
        7,
        "graded latms",
    );

    // ... and directly constructed graded bidiagonals with random signs,
    // where tiny values must keep *relative* accuracy down to 1e-12.
    for (n, seed) in [(12usize, 1u64), (33, 2), (48, 3)] {
        let (d, e) = graded_bidiagonal(n, seed);
        check_against_oracle(&d, &e, &format!("graded direct n={n}"));
    }
}

#[test]
fn tiny_values_1e_minus_8() {
    let spec = vec![4.0, 3.0, 2.0, 1.0, 1e-8, 1e-8];
    check_latms_spectrum(14, 6, &SpectrumKind::Explicit(spec), 5, "tiny latms");

    // Direct: an isolated 1e-8 on the diagonal must come back relatively
    // exact.
    let d = [1.0, 1e-8, 1.0, 0.5];
    let e = [0.0, 0.0, 0.0];
    check_against_oracle(&d, &e, "tiny direct");
    let (sv, _) = dqds_singular_values_with_stats(&d, &e);
    assert!((sv[3] - 1e-8).abs() < 1e-22, "dqds lost the tiny value");
}

#[test]
fn zero_and_empty_edge_cases() {
    check_against_oracle(&[], &[], "empty");
    check_against_oracle(&[0.0], &[], "1x1 zero");
    check_against_oracle(&[0.0, 0.0, 0.0], &[0.0, 0.0], "zero matrix");
    check_against_oracle(&[1.0, 0.0, 2.0, 0.0], &[0.5, 0.25, 0.125], "zero diagonals");
    check_against_oracle(&[0.0, 3.0], &[1.0], "leading zero");
    assert!(dqds_singular_values(&[], &[]).is_empty());
    assert_eq!(dqds_singular_values(&[0.0, 0.0], &[0.0]), vec![0.0, 0.0]);
}

#[test]
fn dqds_fast_path_actually_runs_on_benign_input() {
    // The oracle fallback must be an exception, not the steady state: on
    // random full-rank data every value comes from the qd iteration.
    let n = 64;
    let g = random_gaussian(n, 2, 99);
    let d: Vec<f64> = (0..n).map(|i| 1.0 + g.get(i, 0).abs()).collect();
    let e: Vec<f64> = (0..n - 1).map(|i| g.get(i, 1)).collect();
    let (_, stats) = dqds_singular_values_with_stats(&d, &e);
    assert_eq!(stats.fallback_values, 0, "dqds fell back on benign input");
    assert!(stats.passes > 0);
}

/// One case of the adversarial sweep: family `family` of six, order `n`.
fn adversarial(family: usize, n: usize, rng: &mut StdRng) -> Bidiag {
    // `mag` times a factor in ±[0.5, 1.5).
    let mut signed = |mag: f64| mag * (0.5 + rng.gen_f64()).copysign(rng.gen_f64() - 0.5);
    // Graded over twelve decades, `i` of `n` down the diagonal.
    let decade = |i: usize| 1e12_f64.powf(-(i as f64) / (n as f64 - 1.0));
    let (d, e): (Vec<f64>, Vec<f64>) = match family {
        // Random, all of one size.
        0 => (
            (0..n).map(|_| signed(2.0)).collect(),
            (1..n).map(|_| signed(1.0)).collect(),
        ),
        // Graded from large to small, and the other way round (flips).
        1 | 2 => {
            let at = |i: usize| decade(if family == 1 { i } else { n - 1 - i });
            (
                (0..n).map(|i| signed(at(i))).collect(),
                (1..n).map(|i| signed(0.3 * at(i))).collect(),
            )
        }
        // Clusters of relative width 1e-9, a few of them.
        3 => (
            (0..n)
                .map(|i| (1 + i % 3) as f64 * (1.0 + 1e-9 * signed(1.0)))
                .collect(),
            (1..n).map(|_| signed(1e-5)).collect(),
        ),
        // Tiny and exactly zero entries strewn over a random bidiagonal.
        4 => {
            let mut sparse = |mag: f64| match rng.next_u64() % 8 {
                0 => 0.0,
                1 => 1e-150 * mag,
                2 => 1e-14 * mag,
                _ => mag * (2.0 * rng.gen_f64() - 1.0),
            };
            (
                (0..n).map(|_| sparse(2.0)).collect(),
                (1..n).map(|_| sparse(1.0)).collect(),
            )
        }
        // Wilkinson-like: |i - n/2| down the diagonal, unit coupling — the
        // large values come in pairs that agree to many digits.
        _ => (
            (0..n)
                .map(|i| (i as f64 - (n / 2) as f64).abs() + 1e-3 * signed(1.0))
                .collect(),
            vec![1.0; n - 1],
        ),
    };
    (d, e)
}

#[test]
fn adversarial_sweep_of_six_families_up_to_order_152() {
    const CASES: usize = 500;
    let mut rng = StdRng::seed_from_u64(0xad5e);
    for family in 0..6 {
        let (mut values, mut total) = (0, DqdsStats::default());
        for case in 0..CASES {
            // Mostly small (the oracle is quadratic), every order reached
            // by one family or another.
            let n = if case < 25 {
                3 + (6 * case + family)
            } else {
                3 + (150.0 * rng.gen_f64().powi(3)) as usize
            };
            let (d, e) = adversarial(family, n, &mut rng);
            let stats = check_against_oracle(&d, &e, &format!("family {family} case {case} n={n}"));
            values += n;
            total += stats;
        }
        // What makes the sweep worth its time: long windows that split,
        // and (graded upwards) flip.
        assert!(total.passes < 8 * values, "family {family}: {total:?}");
        assert!(total.segments > CASES, "family {family}: {total:?}");
        assert!(family != 2 || total.flips > CASES / 2, "{total:?}");
    }
}

/// The bidiagonals the benchmark's workloads hand BD2VAL (`gebd2` of a
/// `latms` matrix; `table1_kernel_weights` prints the same table with
/// timings), and the most passes and rejected passes per singular value the
/// driver may take on each. Measured: 2.2 / 3.9 / 3.1 / 0 / 2.3 passes and
/// at most 0.15 rejected; the driver this one replaced took 2.5 / 6.3 / 5.4
/// / 0 / 2.5 and up to 1.2.
#[test]
fn pass_counts_on_benchmark_shaped_inputs_stay_at_lapacks() {
    let inputs = [
        ("geometric", 32, SpectrumKind::Geometric { cond: 1e6 }, 2.6),
        (
            "arithmetic",
            32,
            SpectrumKind::Arithmetic { cond: 1e3 },
            4.2,
        ),
        ("one large", 32, SpectrumKind::OneLarge { cond: 1e3 }, 3.5),
        ("uniform", 32, SpectrumKind::Uniform, 2.6),
        ("geometric", 256, SpectrumKind::Geometric { cond: 1e6 }, 2.6),
    ];
    for (name, n, spectrum, max_passes) in inputs {
        let seeds = if n == 32 { 16 } else { 1 };
        let mut total = DqdsStats::default();
        for seed in 0..seeds {
            let bd = gebd2(&mut latms(n, n, &spectrum, seed).0);
            total += check_against_oracle(&bd.diag, &bd.superdiag, name);
        }
        let per_value = |count: usize| count as f64 / (n * seeds as usize) as f64;
        assert!(
            per_value(total.passes) <= max_passes && per_value(total.rejected_passes) <= 0.25,
            "{name} n={n}: {:.2} passes, {:.2} rejected per value",
            per_value(total.passes),
            per_value(total.rejected_passes)
        );
        assert!(
            total.inner_steps >= total.passes,
            "a pass has at least one step"
        );
    }
}

/// Both solvers at the two ends of the exponent range: a largest entry
/// that is subnormal, or within a factor of sixteen of overflow.
#[test]
fn ends_of_the_exponent_range_match_oracle() {
    for exp in [-1074 + 6, -1060, -1030, -1022, -1000, 1000, 1019] {
        let s = 2.0f64.powi(exp);
        for seed in 0..4 {
            let g = random_gaussian(9, 2, seed ^ 0x5ca1e);
            let d: Vec<f64> = (0..9).map(|i| s * g.get(i, 0)).collect();
            let e: Vec<f64> = (0..8).map(|i| s * g.get(i, 1)).collect();
            let stats = check_against_oracle(&d, &e, &format!("scaled 2^{exp} seed={seed}"));
            assert_eq!(stats.poisoned_values, 0);
            let (sv, _) = dqds_singular_values_with_stats(&d, &e);
            assert!(sv[0] >= d.iter().fold(0.0, |m: f64, v| m.max(v.abs())) * 0.99);
        }
    }
    // The oracle squared unscaled entries: four times 1.5e300, and four
    // times 1.9e-320.
    for s in [1e300, 1e-300] {
        let d = [3.0 * s, 1.0 * s, 2.0 * s, 5.0 * s];
        let e = [0.5 * s, 0.25 * s, 0.75 * s];
        let sv = bisection_singular_values(&d, &e);
        let unit = bisection_singular_values(&[3.0, 1.0, 2.0, 5.0], &[0.5, 0.25, 0.75]);
        let scaled: Vec<f64> = unit.iter().map(|v| v * s).collect();
        assert_rel_close(&sv, &scaled, 1e-15, "oracle at 1e±300");
    }
}

/// The spectrum classes of the tests above, as a bidiagonal of order `n`
/// (any order, 0 and 1 included): graded, clustered, zero, tiny, splitting
/// late, flipping, and Wilkinson-like with its rejected passes.
fn class_bidiagonal(class: usize, n: usize, rng: &mut StdRng) -> Bidiag {
    if n < 2 {
        return ((0..n).map(|_| 2.0 * rng.gen_f64() - 1.0).collect(), vec![]);
    }
    match class {
        0 => graded_bidiagonal(n, rng.next_u64()),
        1 => adversarial(3, n, rng),
        2 => adversarial(4, n, rng),
        3 => (
            (0..n)
                .map(|i| {
                    if i % 3 == 1 {
                        1e-8
                    } else {
                        1.0 + rng.gen_f64()
                    }
                })
                .collect(),
            (1..n).map(|_| 1e-3 * rng.gen_f64()).collect(),
        ),
        4 => {
            // Blocks of eight whose couplings fall below the split threshold
            // once the shift has grown, long before the blocks converge.
            let scale = |i: usize| 1e-3_f64.powi((i / 8) as i32);
            (
                (0..n).map(|i| scale(i) * (1.0 + rng.gen_f64())).collect(),
                (1..n)
                    .map(|i| {
                        if i % 8 == 0 {
                            1e-13 * scale(i)
                        } else {
                            0.3 * scale(i) * rng.gen_f64()
                        }
                    })
                    .collect(),
            )
        }
        5 => adversarial(2, n, rng),
        _ => adversarial(5, n, rng),
    }
}

/// Solve `problems` as one gang on `lanes` lanes and one at a time; assert
/// the outputs are bitwise equal and so are the summed counters, which are
/// returned.
fn check_gang(problems: &[Bidiag], lanes: usize, ctx: &str) -> DqdsStats {
    let mut outs = vec![Vec::new(); problems.len()];
    let mut scratch: Vec<DqdsScratch> = (0..lanes).map(|_| DqdsScratch::new()).collect();
    let stats = dqds_gang_into(
        problems
            .iter()
            .zip(&mut outs)
            .map(|((d, e), out)| (&d[..], &e[..], out)),
        &mut scratch,
    );
    let mut alone = DqdsStats::default();
    for (k, ((d, e), out)) in problems.iter().zip(&outs).enumerate() {
        let (sv, one) = dqds_singular_values_with_stats(d, e);
        assert_eq!(&sv, out, "{ctx}: problem {k} of order {}", d.len());
        alone += one;
    }
    assert_eq!(stats, alone, "{ctx}");
    stats
}

#[test]
fn a_gang_of_every_class_is_one_at_a_time_bitwise() {
    // Every class at every order of the property test below, on every
    // number of lanes up to one more than there are: the classes do what
    // they are named for.
    let mut rng = StdRng::seed_from_u64(0x9a_46);
    let problems: Vec<Bidiag> = (0..7)
        .flat_map(|class| ORDERS.map(|n| (class, n)))
        .map(|(class, n)| class_bidiagonal(class, n, &mut rng))
        .collect();
    for lanes in 1..=5 {
        let stats = check_gang(&problems, lanes, &format!("{lanes} lanes"));
        assert!(stats.rejected_passes > 0 && stats.flips > 0, "{stats:?}");
        assert!(stats.segments > 2 * problems.len(), "{stats:?}");
        assert_eq!(
            stats.fallback_values + stats.poisoned_values,
            0,
            "{stats:?}"
        );
    }
}

/// The orders gangs are drawn from: the empty and the smallest problems,
/// the closed forms, the benchmark's 32 and up.
const ORDERS: [usize; 9] = [0, 1, 2, 3, 5, 17, 32, 64, 200];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Gangs of 1 to 17 problems of any class and order, on 1 to 5 lanes:
    /// the gang is one-at-a-time solving, bit for bit.
    #[test]
    fn gangs_are_one_at_a_time_bitwise(
        size in 1usize..18,
        orders in proptest::collection::vec(0usize..9, 17),
        classes in proptest::collection::vec(0usize..7, 17),
        lanes in 1usize..6,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let problems: Vec<Bidiag> = (0..size)
            .map(|k| class_bidiagonal(classes[k], ORDERS[orders[k]], &mut rng))
            .collect();
        check_gang(&problems, lanes, &format!("seed {seed}"));
    }

    /// Random bidiagonals (random magnitudes *and* signs): dqds agrees
    /// with the oracle at 1e-13 relative.
    #[test]
    fn random_sign_bidiagonals_match_oracle(n in 1usize..40, seed in 0u64..500) {
        let g = random_gaussian(n.max(1), 2, seed);
        let d: Vec<f64> = (0..n).map(|i| 3.0 * g.get(i, 0)).collect();
        let e: Vec<f64> = (0..n.saturating_sub(1)).map(|i| g.get(i, 1)).collect();
        check_against_oracle(&d, &e, &format!("random n={n} seed={seed}"));
    }

    /// Random *scaled* bidiagonals: the dqds power-of-two prescaling keeps
    /// extreme exponents exact.
    #[test]
    fn extreme_scales_match_oracle(n in 2usize..24, seed in 0u64..100, exp_off in 0u32..2090) {
        let exp = exp_off as i32 - 1070;
        let s = 2.0f64.powi(exp);
        let g = random_gaussian(n, 2, seed ^ 0x5ca1e);
        let d: Vec<f64> = (0..n).map(|i| s * g.get(i, 0)).collect();
        let e: Vec<f64> = (0..n - 1).map(|i| s * g.get(i, 1)).collect();
        check_against_oracle(&d, &e, &format!("scaled 2^{exp} n={n} seed={seed}"));
    }
}
