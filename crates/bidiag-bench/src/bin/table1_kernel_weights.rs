//! Table I: measured kernel costs versus the paper's weights, and the
//! performance gates CI holds the kernels to.
//!
//! Runs each of the twelve tile kernels on `nb x nb` tiles (`nb = 64`, the
//! tile size of the benchmark workloads, unless given as the first
//! argument), blocked and its unblocked reference (`bidiag-oracles`), keeps
//! the fastest of `REPS` calls (a quarter as many for the reference) —
//! operands restored from pristine copies outside the timed region, every
//! buffer 64-byte aligned like the pipeline's tiles — and prints the time
//! per call, the time per Table I weight unit (`nb^3/3` flops), the
//! measured weight in units of the cheapest kernel's per-unit time next to
//! the paper's weight, and the speedup over the reference: one table per
//! backend the host supports (scalar, then 256 and 512 bits).  Then come
//! the two GE2BND gates below, and three blocks, one row per backend:
//! `gebd2` at the direct path's orders, the bulge chase on the benchmark's
//! band, and dqds on the benchmark's bidiagonals.
//!
//! If the implementation matched the model the per-unit column would be
//! flat and the two weight columns equal.  It is not: the paper's point —
//! TS kernels are more efficient than TT kernels per flop — shows up as
//! TSMQR/TSMLQ at the bottom of the per-unit column and TTQRT/TTLQT at the
//! top, which is why the default tree (`Ge2Options::new`: AUTO sized for one
//! core) is FLATTS on all but the last two panels, and which kernel is the
//! next target.
//!
//! **Gates.**  Each prints a `# check: ... [PASS|FAIL]` line:
//!
//! * every blocked kernel is at least as fast as its unblocked reference,
//!   on every backend;
//! * GE2BND on `square_1t`'s input (768 x 768, `nb = 64`, one thread) runs
//!   at least 1.3x faster under every vector backend than under scalar;
//! * the observability plane, force-enabled, costs at most 2 % on that
//!   GE2BND at one thread (task spans recorded on the calling thread) and
//!   at two (on the pool's workers);
//! * a TSQRT / TSMQR stack of `qr::STACK` tiles costs no more per tile than
//!   the kernel on one tile, on every backend (each backend's table is
//!   followed by the per-tile times at stacks of 1, 2 and 4).
//!
//! The last two compare two timings taken in one process, and are decided
//! once, on the median of per-round paired ratios: each round times one
//! side, the other twice, then the first again (ABBA), and divides the
//! faster call of one side by the faster of the other, so a clock ramp
//! within a round hits both sides alike, a stalled call does not decide
//! its round, and a stall that spans a few rounds moves a few ratios, not
//! the median.  The first two are decided on a fastest-of-N reading; a
//! first miss there is measured once more, slower, and that reading
//! decides.  The binary exits non-zero if any gate misses.

use bidiag_bench::print_tsv;
use bidiag_core::pipeline::{ge2bnd, Ge2Options};
use bidiag_kernels::band::{bnd2bd_flops, bulge_wavefronts, BandMatrix};
use bidiag_kernels::cost::KernelKind;
use bidiag_kernels::gebd2::{gebd2, gebd2_with, Bidiagonal};
use bidiag_kernels::{lq, qr, TFactor};
use bidiag_matrix::checks::{lower_triangle_of as lower, upper_triangle_of as upper};
use bidiag_matrix::gen::{latms, random_gaussian, SpectrumKind};
use bidiag_matrix::simd::{self, SimdBackend};
use bidiag_matrix::Matrix;
use bidiag_oracles::{lq as lq_ref, qr as qr_ref};
use bidiag_svd::{dqds_singular_values_into, DqdsScratch, DqdsStats};
use std::hint::black_box;
use std::time::Instant;

/// Timed calls per kernel; the fastest one is reported.
const REPS: usize = 200;

/// Seconds of the fastest of `reps` calls of `kernel`, each on working
/// tiles freshly restored from `inputs` (the restore is not timed).
fn fastest<const N: usize>(
    reps: usize,
    inputs: [&Matrix; N],
    mut kernel: impl FnMut(&mut [Matrix; N]),
) -> f64 {
    let mut work = inputs.map(Matrix::clone);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        for (w, pristine) in work.iter_mut().zip(inputs) {
            w.copy_from(pristine);
        }
        let t0 = Instant::now();
        kernel(&mut work);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// One gate: `measure(retry)` returns a reading and whether it meets the
/// bound.  A first miss is measured once more, slower (`retry = true`), and
/// that reading decides.
fn gate(failed: &mut Vec<String>, what: &str, mut measure: impl FnMut(bool) -> (String, bool)) {
    let (mut reading, mut ok) = measure(false);
    if !ok {
        println!("# {what}: {reading} on the first pass; re-measuring");
        (reading, ok) = measure(true);
    }
    verdict(failed, what, &reading, ok);
}

/// Print a gate's `# check:` line and add a gate that missed to `failed`.
fn verdict(failed: &mut Vec<String>, what: &str, reading: &str, ok: bool) {
    let mark = if ok { "PASS" } else { "FAIL" };
    println!("# check: {what}: {reading} [{mark}]");
    if !ok {
        failed.push(what.to_string());
    }
}

/// The per-round ratios `b / a` of `rounds` rounds that each time `a`, `b`,
/// `b`, `a` (ABBA, so drift within a round hits both sides alike), sorted:
/// `a` and `b` run one timed call each and return its seconds, and a
/// round's ratio takes the faster call of each side, so one stalled call
/// does not decide it.
fn paired_ratios(
    rounds: usize,
    mut a: impl FnMut() -> f64,
    mut b: impl FnMut() -> f64,
) -> Vec<f64> {
    let mut ratios: Vec<f64> = (0..rounds)
        .map(|_| {
            let (a1, b1, b2, a2) = (a(), b(), b(), a());
            b1.min(b2) / a1.min(a2)
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios
}

/// A gate decided once, on the median of [`paired_ratios`]: `ok` judges
/// the median, and the reading gives it with the quartiles.
fn paired_gate(
    failed: &mut Vec<String>,
    what: &str,
    ratios: &[f64],
    show: impl Fn(f64) -> String,
    ok: impl Fn(f64) -> bool,
) {
    let q = |p: usize| ratios[(ratios.len() - 1) * p / 4];
    let reading = format!(
        "{} median of {} paired rounds (quartiles {}, {})",
        show(q(2)),
        ratios.len(),
        show(q(1)),
        show(q(3))
    );
    verdict(failed, what, &reading, ok(q(2)));
}

fn main() {
    let nb: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);
    let mut failed = Vec::new();
    for be in simd::available_backends() {
        simd::with_forced_backend(be, || table(nb, be, &mut failed));
    }
    let square = bench_input(768, 768);
    ge2bnd_gates(&square, &mut failed);
    gebd2_table();
    let band = staged_band(&square, 64);
    bnd2bd_table(&[&band, &staged_band(&square, 128)]);
    dqds_table(&band);
    bidiag_bench::maybe_write_trace();
    if !failed.is_empty() {
        eprintln!("gates missed twice: {}", failed.join("; "));
        std::process::exit(1);
    }
}

/// The benchmark's `m x n` input: `latms`, geometric spectrum, condition
/// 1e6, seed 42.
fn bench_input(m: usize, n: usize) -> Matrix {
    latms(m, n, &SpectrumKind::Geometric { cond: 1e6 }, 42).0
}

/// The band GE2BND hands to BND2BD on input `a` at tile size `nb`.
fn staged_band(a: &Matrix, nb: usize) -> BandMatrix {
    ge2bnd(a, &Ge2Options::new(nb)).band
}

/// The end-to-end gates on `square_1t`'s input `a` at `nb = 64`: GE2BND
/// under every vector backend against scalar at one thread, and the cost of
/// force-enabled tracing at one and two threads.
fn ge2bnd_gates(a: &Matrix, failed: &mut Vec<String>) {
    let opts = Ge2Options::new(64);
    // The fastest of `reps` runs after one warm-up, under backend `be`.
    let secs = |be, reps| {
        simd::with_forced_backend(be, || {
            black_box(ge2bnd(a, &opts));
            fastest(reps, [], |[]| drop(black_box(ge2bnd(a, &opts))))
        })
    };
    let scalar = secs(SimdBackend::Scalar, 5);
    for be in simd::available_backends().filter(|&be| be != SimdBackend::Scalar) {
        let what = format!("ge2bnd {} >= 1.3x scalar, 768 x 768, 1 thread", be.name());
        gate(failed, &what, |retry| {
            let (s, v) = if retry {
                (secs(SimdBackend::Scalar, 10), secs(be, 10))
            } else {
                (scalar, secs(be, 5))
            };
            let reading = format!("{:.2}x ({:.1} -> {:.1} ms)", s / v, s * 1e3, v * 1e3);
            (reading, s >= 1.3 * v)
        });
    }

    let was_enabled = bidiag_obs::enabled();
    for threads in [1, 2] {
        let opts = opts.with_threads(threads);
        let timed = |on: bool| {
            bidiag_obs::set_enabled(on);
            let t0 = Instant::now();
            black_box(ge2bnd(a, &opts));
            t0.elapsed().as_secs_f64()
        };
        timed(false);
        let rounds = TRACING_ROUNDS * threads;
        let ratios = paired_ratios(rounds, || timed(false), || timed(true));
        let what = format!("ge2bnd tracing overhead <= 2 %, 768 x 768, {threads} thread(s)");
        let pct = |r: f64| format!("{:+.2} %", (r - 1.0) * 100.0);
        paired_gate(failed, &what, &ratios, pct, |r| r <= 1.02);
    }
    bidiag_obs::set_enabled(was_enabled);
    println!();
}

/// Rounds of the one-thread tracing gate, four GE2BND solves each.  The
/// two-thread gate runs twice as many: its solves take about half as long,
/// and at 80 rounds its median (typically +0.9 %) missed 2 % in 1 of 11
/// runs on a 2-vCPU host.
const TRACING_ROUNDS: usize = 80;

/// BND2BD, the stage that is a third of `square_1t`: the bulge chase on the
/// benchmark's own band and on the same input at `nb = 128`, per backend
/// the host supports — fastest of ten reductions, each on a fresh copy.
fn bnd2bd_table(bands: &[&BandMatrix]) {
    let mut rows = Vec::new();
    for be in simd::available_backends() {
        for band in bands {
            let (n, bw) = (band.order(), band.bandwidth());
            let mut best = f64::INFINITY;
            for _ in 0..10 {
                let mut work = (*band).clone();
                let t0 = Instant::now();
                black_box(simd::with_forced_backend(be, || {
                    work.reduce_to_bidiagonal()
                }));
                best = best.min(t0.elapsed().as_secs_f64());
            }
            rows.push(vec![
                be.name().to_string(),
                format!("{n}/{bw}"),
                format!("{:.2}", best * 1.0e3),
                format!("{:.1}", bnd2bd_flops(n, bw) / best / 1.0e9),
                format!("{:.2}", best * 1.0e6 / bulge_wavefronts(n, bw).len() as f64),
            ]);
        }
    }
    print_tsv(
        "reduce_to_bidiagonal — the bulge chase on GE2BND's band, fastest of 10 reductions",
        &["backend", "n/bw", "ms", "GFlop/s", "us_per_block_step"],
        &rows,
    );
}

/// BD2VAL on the bidiagonals the benchmark's workloads hand it: `gebd2` of
/// sixteen `latms` matrices of order 32 per `batch_small` spectrum, and the
/// GE2BND + BND2BD output of `tall_1t` (n = 256) and `square_1t` (n = 768,
/// from its band `square`).  A pass runs at the latency of its dependency
/// chain (the ns-per-step column, flat in n), so what a solve costs is its
/// inner steps: passes, rejected passes and steps are per singular value.
fn dqds_table(square: &BandMatrix) {
    let small = |spectrum: SpectrumKind| -> Vec<Bidiagonal> {
        (0..16)
            .map(|seed| gebd2(&mut latms(32, 32, &spectrum, seed).0))
            .collect()
    };
    let inputs = [
        (
            "n=32 geometric 1e6",
            small(SpectrumKind::Geometric { cond: 1e6 }),
        ),
        (
            "n=32 arithmetic 1e3",
            small(SpectrumKind::Arithmetic { cond: 1e3 }),
        ),
        (
            "n=32 one-large 1e3",
            small(SpectrumKind::OneLarge { cond: 1e3 }),
        ),
        ("n=32 uniform", small(SpectrumKind::Uniform)),
        (
            "n=256 tall_1t",
            vec![staged_band(&bench_input(8192, 256), 64).reduce_to_bidiagonal()],
        ),
        (
            "n=768 square_1t",
            vec![square.clone().reduce_to_bidiagonal()],
        ),
    ];
    let rows: Vec<Vec<String>> = inputs
        .iter()
        .map(|(name, problems)| {
            let n = problems[0].diag.len();
            let mut scratch = DqdsScratch::for_len(n);
            let mut out = Vec::with_capacity(n);
            let mut solve_all = || {
                let mut total = DqdsStats::default();
                for b in problems {
                    total +=
                        dqds_singular_values_into(&b.diag, &b.superdiag, &mut scratch, &mut out);
                }
                total
            };
            let stats = solve_all();
            let mut best = f64::INFINITY;
            for _ in 0..REPS * 32 / (n * problems.len()).max(32) + 20 {
                let t0 = Instant::now();
                black_box(solve_all());
                best = best.min(t0.elapsed().as_secs_f64());
            }
            let values = (n * problems.len()) as f64;
            vec![
                name.to_string(),
                format!("{:.2}", stats.passes as f64 / values),
                format!("{:.3}", stats.rejected_passes as f64 / values),
                format!("{:.1}", stats.inner_steps as f64 / values),
                format!("{:.1}", stats.segments as f64 / problems.len() as f64),
                format!("{}", stats.fallback_values),
                match stats.inner_steps {
                    // A uniform spectrum deflates without a pass.
                    0 => "-".to_string(),
                    steps => format!("{:.1}", best * 1.0e9 / steps as f64),
                },
                format!("{:.1}", best * 1.0e6 / problems.len() as f64),
            ]
        })
        .collect();
    print_tsv(
        "dqds — per singular value on the benchmark's bidiagonals, hot, fastest run",
        &[
            "input",
            "passes/value",
            "rejected/value",
            "steps/value",
            "windows/solve",
            "fallback_values",
            "ns/step",
            "us/solve",
        ],
        &rows,
    );
}

/// The direct path's kernel, hot (reused buffers), at the orders the
/// session serves with it: one row per backend the host supports.
fn gebd2_table() {
    const ORDERS: [usize; 4] = [16, 32, 48, 64];
    let mut tail = Vec::new();
    let mut out = Bidiagonal {
        diag: Vec::new(),
        superdiag: Vec::new(),
    };
    let rows: Vec<Vec<String>> = simd::available_backends()
        .map(|be| {
            let us = ORDERS.map(|n| {
                let secs = simd::with_forced_backend(be, || {
                    fastest(REPS, [&random_gaussian(n, n, 6)], |[x]| {
                        gebd2_with(x, &mut tail, &mut out)
                    })
                });
                format!("{:.1}", secs * 1.0e6)
            });
            std::iter::once(be.name().to_string()).chain(us).collect()
        })
        .collect();
    print_tsv(
        &format!("gebd2 — us per call on n x n, fastest of {REPS} calls"),
        &["backend", "n=16", "n=32", "n=48", "n=64"],
        &rows,
    );
}

/// Seconds per call of the twelve kernels on `nb x nb` tiles, blocked and
/// unblocked, the fastest of `reps` and of `reps / 4` calls: a reference
/// runs three to fourteen times longer than its kernel, and a quarter as
/// many calls keep the tables at `nb = 128` to seconds.  The caller has
/// forced the backend.
fn kernel_times(nb: usize, reps: usize) -> [(KernelKind, f64, f64); 12] {
    let ref_reps = reps / 4;
    let a = random_gaussian(nb, nb, 1);
    let b = random_gaussian(nb, nb, 2);
    let c = random_gaussian(nb, nb, 3);
    let (r1, r2) = (upper(&a), upper(&random_gaussian(nb, nb, 4)));
    let (l1, l2) = (lower(&a), lower(&random_gaussian(nb, nb, 5)));

    // Reflector tiles and T factors for the six applies.
    let mut v_ge = a.clone();
    let tf_ge = qr::geqrt(&mut v_ge);
    let mut v_ts = b.clone();
    let tf_ts = qr::tsqrt(&mut r1.clone(), &mut v_ts);
    let mut v_tt = r2.clone();
    let tf_tt = qr::ttqrt(&mut r1.clone(), &mut v_tt);
    let mut w_ge = a.clone();
    let tf_gel = lq::gelqt(&mut w_ge);
    let mut w_ts = b.clone();
    let tf_tsl = lq::tslqt(&mut l1.clone(), &mut w_ts);
    let mut w_tt = l2.clone();
    let tf_ttl = lq::ttlqt(&mut l1.clone(), &mut w_tt);

    use KernelKind::*;
    [
        (
            Geqrt,
            fastest(reps, [&a], |[x]| drop(black_box(qr::geqrt(x)))),
            fastest(ref_reps, [&a], |[x]| {
                drop(black_box(qr_ref::geqrt_unblocked(x)))
            }),
        ),
        (
            Unmqr,
            fastest(reps, [&b], |[x]| qr::unmqr(&tf_ge, x)),
            fastest(ref_reps, [&b], |[x]| {
                qr_ref::unmqr_unblocked(&v_ge, tf_ge.taus(), x)
            }),
        ),
        (
            Tsqrt,
            fastest(reps, [&r1, &b], |[r, x]| drop(black_box(qr::tsqrt(r, x)))),
            fastest(ref_reps, [&r1, &b], |[r, x]| {
                drop(black_box(qr_ref::tsqrt_unblocked(r, x)))
            }),
        ),
        (
            Tsmqr,
            fastest(reps, [&b, &c], |[x, y]| qr::tsmqr(x, y, &v_ts, &tf_ts)),
            fastest(ref_reps, [&b, &c], |[x, y]| {
                qr_ref::tsmqr_unblocked(x, y, &v_ts, tf_ts.taus())
            }),
        ),
        (
            Ttqrt,
            fastest(reps, [&r1, &r2], |[r, x]| drop(black_box(qr::ttqrt(r, x)))),
            fastest(ref_reps, [&r1, &r2], |[r, x]| {
                drop(black_box(qr_ref::ttqrt_unblocked(r, x)))
            }),
        ),
        (
            Ttmqr,
            fastest(reps, [&b, &c], |[x, y]| qr::ttmqr(x, y, &v_tt, &tf_tt)),
            fastest(ref_reps, [&b, &c], |[x, y]| {
                qr_ref::ttmqr_unblocked(x, y, &v_tt, tf_tt.taus())
            }),
        ),
        (
            Gelqt,
            fastest(reps, [&a], |[x]| drop(black_box(lq::gelqt(x)))),
            fastest(ref_reps, [&a], |[x]| {
                drop(black_box(lq_ref::gelqt_unblocked(x)))
            }),
        ),
        (
            Unmlq,
            fastest(reps, [&b], |[x]| lq::unmlq(&tf_gel, x)),
            fastest(ref_reps, [&b], |[x]| {
                lq_ref::unmlq_unblocked(&w_ge, tf_gel.taus(), x)
            }),
        ),
        (
            Tslqt,
            fastest(reps, [&l1, &b], |[l, x]| drop(black_box(lq::tslqt(l, x)))),
            fastest(ref_reps, [&l1, &b], |[l, x]| {
                drop(black_box(lq_ref::tslqt_unblocked(l, x)))
            }),
        ),
        (
            Tsmlq,
            fastest(reps, [&b, &c], |[x, y]| lq::tsmlq(x, y, &w_ts, &tf_tsl)),
            fastest(ref_reps, [&b, &c], |[x, y]| {
                lq_ref::tsmlq_unblocked(x, y, &w_ts, tf_tsl.taus())
            }),
        ),
        (
            Ttlqt,
            fastest(reps, [&l1, &l2], |[l, x]| drop(black_box(lq::ttlqt(l, x)))),
            fastest(ref_reps, [&l1, &l2], |[l, x]| {
                drop(black_box(lq_ref::ttlqt_unblocked(l, x)))
            }),
        ),
        (
            Ttmlq,
            fastest(reps, [&b, &c], |[x, y]| lq::ttmlq(x, y, &w_tt, &tf_ttl)),
            fastest(ref_reps, [&b, &c], |[x, y]| {
                lq_ref::ttmlq_unblocked(x, y, &w_tt, tf_ttl.taus())
            }),
        ),
    ]
}

/// Time the twelve kernels on `nb x nb` tiles, print their table and gate
/// every blocked kernel against its unblocked reference; the caller has
/// forced `be`.
fn table(nb: usize, be: SimdBackend, failed: &mut Vec<String>) {
    let times = kernel_times(nb, REPS);

    // The paper's time unit: `nb^3/3` flops at the speed of the kernel that
    // is cheapest per unit.
    let unit_secs = times
        .iter()
        .map(|(k, secs, _)| secs / k.weight())
        .fold(f64::INFINITY, f64::min);
    let rows: Vec<Vec<String>> = times
        .iter()
        .map(|&(k, secs, unblocked)| {
            vec![
                k.name().to_string(),
                format!("{:.0}", k.weight()),
                format!("{:.2}", secs / unit_secs),
                format!("{:.0}", secs * 1.0e9),
                format!("{:.0}", secs * 1.0e9 / k.weight()),
                format!("{:.2}", k.flops(nb) / secs / 1.0e9),
                format!("{:.0}", unblocked * 1.0e9),
                format!("{:.2}x", unblocked / secs),
            ]
        })
        .collect();
    let unit_flops = (nb as f64).powi(3) / 3.0;
    print_tsv(
        &format!(
            "Table I — kernel weights (nb = {nb}, unit = nb^3/3 = {unit_flops:.0} flops, \
             fastest of {REPS} calls, {} unblocked, backend {})",
            REPS / 4,
            be.name()
        ),
        &[
            "kernel",
            "paper_weight",
            "measured_weight(cheapest unit = 1)",
            "ns_per_call",
            "ns_per_weight_unit",
            "GFlop/s",
            "unblocked_ns",
            "blocked/unblocked",
        ],
        &rows,
    );

    // A first miss re-times all twelve once, on five times as many calls.
    let mut retimed = None;
    for (i, (k, ..)) in times.iter().enumerate() {
        let what = format!(
            "blocked {} >= 1.0x unblocked, nb = {nb}, {}",
            k.name(),
            be.name()
        );
        gate(failed, &what, |retry| {
            let (_, blocked, unblocked) = if retry {
                retimed.get_or_insert_with(|| kernel_times(nb, 5 * REPS))[i]
            } else {
                times[i]
            };
            (format!("{:.2}x", unblocked / blocked), blocked <= unblocked)
        });
    }
    println!();
    stack_table(nb, be, failed);
}

/// Stack heights of the TS table: one tile, and the heights AUTO's
/// domains run at.
const HEIGHTS: [usize; 3] = [1, 2, qr::STACK];

/// A TSQRT / TSMQR stack of `d` `nb x nb` tiles under `R`: pristine
/// operands, and the working copies each timed call restores first.
struct Stack {
    r1: Matrix,
    tiles: Vec<Matrix>,
    v: Vec<Matrix>,
    tf: TFactor,
    r: Matrix,
    a: Vec<Matrix>,
}

impl Stack {
    fn new(nb: usize, d: usize) -> Self {
        let r1 = upper(&random_gaussian(nb, nb, 1));
        let tiles: Vec<Matrix> = (0..d)
            .map(|t| random_gaussian(nb, nb, 10 + t as u64))
            .collect();
        let mut v = tiles.clone();
        let tf = qr::tsqrt_stack(&mut r1.clone(), &mut v);
        let (r, a) = (r1.clone(), tiles.clone());
        Self {
            r1,
            tiles,
            v,
            tf,
            r,
            a,
        }
    }

    /// Seconds per tile of one TSQRT (`kernel` 0) or TSMQR (1) call on
    /// freshly restored operands (the restore is not timed).  The caller
    /// has forced the backend.
    fn per_tile(&mut self, kernel: usize) -> f64 {
        self.r.copy_from(&self.r1);
        for (w, t) in self.a.iter_mut().zip(&self.tiles) {
            w.copy_from(t);
        }
        let t0 = Instant::now();
        if kernel == 0 {
            drop(black_box(qr::tsqrt_stack(&mut self.r, &mut self.a)));
        } else {
            qr::tsmqr_stack(&mut self.r, &mut self.a, &self.v, &self.tf);
        }
        t0.elapsed().as_secs_f64() / self.tiles.len() as f64
    }
}

/// TSQRT and TSMQR per tile of `nb` rows on stacks of [`HEIGHTS`] tiles,
/// the fastest of `REPS` calls each, and the gate that a stack of
/// [`qr::STACK`] costs no more per tile than one tile, on the median of
/// `REPS` paired rounds; the caller has forced `be`.
fn stack_table(nb: usize, be: SimdBackend, failed: &mut Vec<String>) {
    let mut stacks = HEIGHTS.map(|d| Stack::new(nb, d));
    let times = stacks.each_mut().map(|s| {
        let mut best = [f64::INFINITY; 2];
        for _ in 0..REPS {
            for (kernel, best) in best.iter_mut().enumerate() {
                *best = best.min(s.per_tile(kernel));
            }
        }
        best
    });
    let rows: Vec<Vec<String>> = ["TSQRT", "TSMQR"]
        .iter()
        .enumerate()
        .map(|(k, name)| {
            let mut row = vec![name.to_string()];
            row.extend(times.iter().map(|t| format!("{:.2}", t[k] * 1e6)));
            row.push(format!("{:.3}", times[2][k] / times[0][k]));
            row
        })
        .collect();
    print_tsv(
        &format!(
            "TS stacks — us per {nb}-row tile, fastest of {REPS} calls, backend {}",
            be.name()
        ),
        &["kernel", "stack_1", "stack_2", "stack_4", "stack_4/stack_1"],
        &rows,
    );
    let [one, _, stack] = &mut stacks;
    for (k, name) in ["TSQRT", "TSMQR"].iter().enumerate() {
        let what = format!(
            "{name} stack of {} <= stack of 1 per tile, nb = {nb}, {}",
            qr::STACK,
            be.name()
        );
        let ratios = paired_ratios(REPS, || one.per_tile(k), || stack.per_tile(k));
        paired_gate(failed, &what, &ratios, |r| format!("{r:.3}x"), |r| r <= 1.0);
    }
    println!();
}
