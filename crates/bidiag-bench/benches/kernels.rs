//! Tile-kernel microbenchmarks: blocked compact-WY vs unblocked reference.
//!
//! For every Table I kernel (QR family and LQ duals) and
//! `nb in {32, 64, 128}`, times both implementations (best of 3 rounds,
//! each round amortized over enough iterations), prints a comparison table
//! with the blocked/unblocked speedup and GFlop/s (Table I flop model),
//! sweeps the packed vs unpacked GEMM paths over square sizes (the data
//! behind the `PACK_CROSSOVER_MNK` dispatch constant), and finishes with a
//! best-of-3 end-to-end GE2BND run plus a GE2VAL stage split on the
//! ROADMAP reference case (768x512, nb = 64, GREEDY, BIDIAG, 1 thread).
//!
//! The SIMD section compares the runtime-dispatched backends of
//! [`bidiag_matrix::simd`]: the packed GEMM microkernel and the blocked
//! UNMQR apply are timed under the forced scalar and AVX2+FMA backends and
//! reported as GFlop/s against the *machine FMA peak*
//! (`cores x rated_GHz x lanes x 2` flops/cycle; lanes = 1 scalar, 4 AVX2 —
//! a one-FMA-port model, so measured percentages can exceed 100% on wider
//! cores), followed by the reference GE2BND case run under both backends.
//!
//! **Acceptance gates:** every blocked kernel must be at least as fast as
//! its unblocked reference at the measured tile size — the check that
//! would have caught the PR 3 TTQRT/TTLQT regression — the BD2VAL
//! dqds solver must beat per-value bisection by at least 3x on the
//! reference bidiagonal (n = 512), and (when the host has AVX2+FMA) the
//! AVX2 backend must run the reference GE2BND at least 1.3x faster than
//! the forced-scalar backend.  All gates *assert* (non-zero exit) in
//! `--test` mode so CI enforces them.
//!
//! Results are emitted machine-readably to `BENCH_kernels.json` (fields:
//! `name`, `nb`, `variant`, `ns_per_iter`, `gflops`), and the end-to-end
//! numbers to the repo-top-level `BENCH.json` (machine info + per-stage
//! GE2VAL split + BD2VAL solver times + the `simd` GFlop/s-vs-peak block +
//! the cross-PR history) — see BENCHMARKING.md.
//!
//! Modes: no flag = full sweep; `--test` = CI gate (nb = 64 only, shorter
//! rounds, JSON to a temp path, no end-to-end run, but all acceptance
//! gates); `--gemm-sweep` = only the packed-vs-unpacked GEMM crossover
//! table; `--bd2val` = only the BD2VAL solver comparison; `--simd` = only
//! the SIMD backend comparison plus the GE2BND backend gate.

use bidiag_bench::{
    measure_bd2val_solvers, measure_ge2bnd_backends, measure_ge2bnd_scaling, measure_ge2val_stages,
};
use bidiag_core::flops::bidiag_flops;
use bidiag_core::pipeline::{AlgorithmChoice, Ge2Options};
use bidiag_kernels::cost::KernelKind;
use bidiag_kernels::{lq, qr, Trans, Workspace};
use bidiag_matrix::checks::{lower_triangle_of, upper_triangle_of};
use bidiag_matrix::gemm::{gemm_nn_packed, gemm_nn_unpacked, GemmScratch};
use bidiag_matrix::gen::{latms, random_gaussian, SpectrumKind};
use bidiag_matrix::simd::{self, SimdBackend};
use bidiag_trees::NamedTree;
use std::time::Instant;

/// One measured data point.
struct Record {
    name: &'static str,
    nb: usize,
    variant: &'static str,
    ns_per_iter: f64,
    gflops: f64,
}

/// Best-of-`rounds` timing of `f`, each round running `iters` iterations.
/// Returns seconds per iteration.
fn best_of(rounds: usize, iters: usize, f: &mut dyn FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64() / iters as f64);
    }
    best
}

struct Harness {
    rounds: usize,
    min_round_secs: f64,
    records: Vec<Record>,
}

impl Harness {
    /// Time one (kernel, nb, variant) cell: calibrate the iteration count to
    /// `min_round_secs`, run best-of-`rounds`, record ns/iter and GFlop/s.
    fn bench(
        &mut self,
        name: &'static str,
        flops: f64,
        nb: usize,
        variant: &'static str,
        mut f: impl FnMut(),
    ) {
        let once = best_of(1, 1, &mut f);
        let iters = ((self.min_round_secs / once.max(1e-9)).ceil() as usize).clamp(1, 10_000);
        let secs = best_of(self.rounds, iters, &mut f);
        self.records.push(Record {
            name,
            nb,
            variant,
            ns_per_iter: secs * 1.0e9,
            gflops: flops / secs / 1.0e9,
        });
    }

    fn pair(&self, name: &str, nb: usize) -> Option<(f64, f64, f64)> {
        let find = |variant: &str| {
            self.records
                .iter()
                .find(|r| r.name == name && r.nb == nb && r.variant == variant)
        };
        let b = find("blocked")?;
        let u = find("unblocked")?;
        Some((u.ns_per_iter, b.ns_per_iter, u.ns_per_iter / b.ns_per_iter))
    }
}

const KERNEL_NAMES: [&str; 12] = [
    "geqrt", "unmqr", "tsqrt", "tsmqr", "ttqrt", "ttmqr", "gelqt", "unmlq", "tslqt", "tsmlq",
    "ttlqt", "ttmlq",
];

/// Run every kernel pair at one tile size.
fn bench_tile_size(h: &mut Harness, nb: usize) {
    let mut ws = Workspace::new();
    let a = random_gaussian(nb, nb, 1);
    let b = random_gaussian(nb, nb, 2);
    let c = random_gaussian(nb, nb, 3);

    // Shared factored operands.
    let mut v = a.clone();
    let tf = qr::geqrt(&mut v);
    let taus = tf.taus().to_vec();
    let r1 = upper_triangle_of(&v);
    let mut rts = r1.clone();
    let mut vts = b.clone();
    let tf_ts = qr::tsqrt(&mut rts, &mut vts);
    let r2 = upper_triangle_of(&random_gaussian(nb, nb, 4));
    let mut rtt = r1.clone();
    let mut vtt = r2.clone();
    let tf_tt = qr::ttqrt(&mut rtt, &mut vtt);
    let mut vl = a.clone();
    let tf_l = lq::gelqt(&mut vl, &mut Workspace::new());
    let l1 = lower_triangle_of(&vl);
    let mut lts = l1.clone();
    let mut vlts = b.clone();
    let tf_lts = lq::tslqt(&mut lts, &mut vlts, &mut Workspace::new());
    let l2 = lower_triangle_of(&random_gaussian(nb, nb, 5));
    let mut ltt = l1.clone();
    let mut vltt = l2.clone();
    let tf_ltt = lq::ttlqt(&mut ltt, &mut vltt, &mut Workspace::new());

    // Reused output buffers: operand refresh is a contiguous copy, so the
    // timed loops allocate nothing.
    let mut w1 = a.clone();
    let mut w2 = b.clone();

    h.bench("geqrt", KernelKind::Geqrt.flops(nb), nb, "blocked", || {
        w1.copy_from(&a);
        let _ = qr::geqrt(&mut w1);
    });
    h.bench(
        "geqrt",
        KernelKind::Geqrt.flops(nb),
        nb,
        "unblocked",
        || {
            w1.copy_from(&a);
            let _ = qr::geqrt_unblocked(&mut w1);
        },
    );
    h.bench("unmqr", KernelKind::Unmqr.flops(nb), nb, "blocked", || {
        w1.copy_from(&b);
        qr::unmqr(&v, &tf, &mut w1, Trans::Transpose);
    });
    h.bench(
        "unmqr",
        KernelKind::Unmqr.flops(nb),
        nb,
        "unblocked",
        || {
            w1.copy_from(&b);
            qr::unmqr_unblocked(&v, &taus, &mut w1, Trans::Transpose);
        },
    );
    h.bench("tsqrt", KernelKind::Tsqrt.flops(nb), nb, "blocked", || {
        w1.copy_from(&r1);
        w2.copy_from(&b);
        let _ = qr::tsqrt(&mut w1, &mut w2);
    });
    h.bench(
        "tsqrt",
        KernelKind::Tsqrt.flops(nb),
        nb,
        "unblocked",
        || {
            w1.copy_from(&r1);
            w2.copy_from(&b);
            let _ = qr::tsqrt_unblocked(&mut w1, &mut w2);
        },
    );
    h.bench("tsmqr", KernelKind::Tsmqr.flops(nb), nb, "blocked", || {
        w1.copy_from(&b);
        w2.copy_from(&c);
        qr::tsmqr(&mut w1, &mut w2, &vts, &tf_ts, Trans::Transpose);
    });
    h.bench(
        "tsmqr",
        KernelKind::Tsmqr.flops(nb),
        nb,
        "unblocked",
        || {
            w1.copy_from(&b);
            w2.copy_from(&c);
            qr::tsmqr_unblocked(&mut w1, &mut w2, &vts, tf_ts.taus(), Trans::Transpose);
        },
    );
    h.bench("ttqrt", KernelKind::Ttqrt.flops(nb), nb, "blocked", || {
        w1.copy_from(&r1);
        w2.copy_from(&r2);
        let _ = qr::ttqrt(&mut w1, &mut w2);
    });
    h.bench(
        "ttqrt",
        KernelKind::Ttqrt.flops(nb),
        nb,
        "unblocked",
        || {
            w1.copy_from(&r1);
            w2.copy_from(&r2);
            let _ = qr::ttqrt_unblocked(&mut w1, &mut w2);
        },
    );
    h.bench("ttmqr", KernelKind::Ttmqr.flops(nb), nb, "blocked", || {
        w1.copy_from(&b);
        w2.copy_from(&c);
        qr::ttmqr(&mut w1, &mut w2, &vtt, &tf_tt, Trans::Transpose);
    });
    h.bench(
        "ttmqr",
        KernelKind::Ttmqr.flops(nb),
        nb,
        "unblocked",
        || {
            w1.copy_from(&b);
            w2.copy_from(&c);
            qr::ttmqr_unblocked(&mut w1, &mut w2, &vtt, tf_tt.taus(), Trans::Transpose);
        },
    );

    // LQ duals.
    h.bench("gelqt", KernelKind::Gelqt.flops(nb), nb, "blocked", || {
        w1.copy_from(&a);
        let _ = lq::gelqt(&mut w1, &mut ws);
    });
    h.bench(
        "gelqt",
        KernelKind::Gelqt.flops(nb),
        nb,
        "unblocked",
        || {
            w1.copy_from(&a);
            let _ = lq::gelqt_unblocked(&mut w1);
        },
    );
    h.bench("unmlq", KernelKind::Unmlq.flops(nb), nb, "blocked", || {
        w1.copy_from(&b);
        lq::unmlq(&vl, &tf_l, &mut w1, Trans::Transpose);
    });
    h.bench(
        "unmlq",
        KernelKind::Unmlq.flops(nb),
        nb,
        "unblocked",
        || {
            w1.copy_from(&b);
            lq::unmlq_unblocked(&vl, tf_l.taus(), &mut w1, Trans::Transpose);
        },
    );
    h.bench("tslqt", KernelKind::Tslqt.flops(nb), nb, "blocked", || {
        w1.copy_from(&l1);
        w2.copy_from(&b);
        let _ = lq::tslqt(&mut w1, &mut w2, &mut ws);
    });
    h.bench(
        "tslqt",
        KernelKind::Tslqt.flops(nb),
        nb,
        "unblocked",
        || {
            w1.copy_from(&l1);
            w2.copy_from(&b);
            let _ = lq::tslqt_unblocked(&mut w1, &mut w2);
        },
    );
    h.bench("tsmlq", KernelKind::Tsmlq.flops(nb), nb, "blocked", || {
        w1.copy_from(&b);
        w2.copy_from(&c);
        lq::tsmlq(&mut w1, &mut w2, &vlts, &tf_lts, Trans::Transpose);
    });
    h.bench(
        "tsmlq",
        KernelKind::Tsmlq.flops(nb),
        nb,
        "unblocked",
        || {
            w1.copy_from(&b);
            w2.copy_from(&c);
            lq::tsmlq_unblocked(&mut w1, &mut w2, &vlts, tf_lts.taus(), Trans::Transpose);
        },
    );
    h.bench("ttlqt", KernelKind::Ttlqt.flops(nb), nb, "blocked", || {
        w1.copy_from(&l1);
        w2.copy_from(&l2);
        let _ = lq::ttlqt(&mut w1, &mut w2, &mut ws);
    });
    h.bench(
        "ttlqt",
        KernelKind::Ttlqt.flops(nb),
        nb,
        "unblocked",
        || {
            w1.copy_from(&l1);
            w2.copy_from(&l2);
            let _ = lq::ttlqt_unblocked(&mut w1, &mut w2);
        },
    );
    h.bench("ttmlq", KernelKind::Ttmlq.flops(nb), nb, "blocked", || {
        w1.copy_from(&b);
        w2.copy_from(&c);
        lq::ttmlq(&mut w1, &mut w2, &vltt, &tf_ltt, Trans::Transpose);
    });
    h.bench(
        "ttmlq",
        KernelKind::Ttmlq.flops(nb),
        nb,
        "unblocked",
        || {
            w1.copy_from(&b);
            w2.copy_from(&c);
            lq::ttmlq_unblocked(&mut w1, &mut w2, &vltt, tf_ltt.taus(), Trans::Transpose);
        },
    );
}

/// Square sizes of the packed-vs-unpacked GEMM sweep (shared by the
/// measurement and printing loops of [`gemm_sweep`]).
const GEMM_SWEEP_SIZES: [usize; 8] = [32, 48, 64, 80, 96, 128, 192, 256];

/// Time the packed vs unpacked GEMM paths on square `s x s x s` products:
/// the measurement behind the `PACK_CROSSOVER_MNK` dispatch constant in
/// `bidiag_matrix::gemm`.
fn gemm_sweep(h: &mut Harness) {
    let mut scratch = GemmScratch::new();
    for &s in &GEMM_SWEEP_SIZES {
        let a = random_gaussian(s, s, 11);
        let b = random_gaussian(s, s, 12);
        let mut cw = random_gaussian(s, s, 13);
        let flops = 2.0 * (s as f64).powi(3);
        h.bench("gemm_nn", flops, s, "unpacked", || {
            gemm_nn_unpacked(&mut cw.as_view_mut(), 1.0, a.as_view(), b.as_view());
        });
        let mut cw = random_gaussian(s, s, 13);
        h.bench("gemm_nn", flops, s, "packed", || {
            gemm_nn_packed(
                &mut cw.as_view_mut(),
                1.0,
                a.as_view(),
                b.as_view(),
                &mut scratch,
            );
        });
    }
    println!("# packed vs unpacked GEMM (square sizes; crossover evidence for PACK_CROSSOVER_MNK)");
    println!("size\tunpacked_ns\tpacked_ns\tpacked/unpacked\tunpacked_GF\tpacked_GF");
    for &s in &GEMM_SWEEP_SIZES {
        let find = |variant: &str| {
            h.records
                .iter()
                .find(|r| r.name == "gemm_nn" && r.nb == s && r.variant == variant)
        };
        if let (Some(u), Some(p)) = (find("unpacked"), find("packed")) {
            println!(
                "{s}\t{:.0}\t{:.0}\t{:.2}x\t{:.2}\t{:.2}",
                u.ns_per_iter,
                p.ns_per_iter,
                u.ns_per_iter / p.ns_per_iter,
                u.gflops,
                p.gflops
            );
        }
    }
    println!();
}

/// The per-kernel acceptance gate: blocked must be >= 1.0x unblocked for
/// *every* kernel at the given tile size.  Prints one line per kernel and
/// returns the failing kernels (empty = all passed).
fn check_kernel_acceptance(h: &Harness, nb: usize) -> Vec<String> {
    let mut failures = Vec::new();
    println!("# acceptance: blocked >= 1.0x unblocked for every kernel @ nb={nb}");
    for name in KERNEL_NAMES {
        if let Some((_, _, speedup)) = h.pair(name, nb) {
            let verdict = if speedup >= 1.0 { "PASS" } else { "FAIL" };
            println!("# check: blocked {name} @ nb={nb}: {speedup:.2}x [{verdict}]");
            if speedup < 1.0 {
                failures.push(format!("{name} {speedup:.2}x"));
            }
        }
    }
    failures
}

/// BD2VAL solver comparison on the reference bidiagonal (the acceptance
/// data of the `bidiag-svd` subsystem): prints the per-solver table and
/// the dqds-vs-bisection speedup check, records the timings, and returns
/// them for the gate/JSON writers.  The nominal GFlop/s rate uses the
/// machine model's `30 n^2` BD2VAL operation count.
fn bd2val_comparison(h: &mut Harness, samples: usize) -> bidiag_bench::Bd2ValTimings {
    let t = measure_bd2val_solvers(768, 512, 64, samples);
    let nominal = 30.0 * (t.n as f64) * (t.n as f64);
    println!(
        "# BD2VAL solvers on the reference bidiagonal, n={} (768x512 nb=64 pipeline; best of {samples})",
        t.n
    );
    println!("solver\ttime_ms\tspeedup_vs_bisection");
    for (name, secs) in [("bisection", t.bisection), ("dqds", t.dqds)] {
        println!("{name}\t{:.2}\t{:.2}x", secs * 1.0e3, t.bisection / secs);
        h.records.push(Record {
            name: "bd2val_n512",
            nb: 64,
            variant: name,
            ns_per_iter: secs * 1.0e9,
            gflops: nominal / secs / 1.0e9,
        });
    }
    println!(
        "# dqds iteration profile: {} passes, {} flips, {} fallback values",
        t.dqds_stats.passes, t.dqds_stats.flips, t.dqds_stats.fallback_values
    );
    t
}

/// Nominal machine FMA peak, modelled as `cores x freq x lanes x 2`
/// (one 4-lane f64 FMA issued per cycle = 8 flops; hosts with two FMA
/// ports can double this, so measured rates are reported against the
/// conservative 1-port figure and can legitimately exceed 100% of the
/// scalar peak).
struct FmaPeak {
    /// Nominal clock in GHz (0.0 when undetectable — peaks become 0 and
    /// the vs-peak columns print as n/a).
    freq_ghz: f64,
    cores: usize,
}

impl FmaPeak {
    /// Parse the nominal frequency from `/proc/cpuinfo`: the `model name`
    /// `@ x.xxGHz` suffix when present (the *rated* clock), else the
    /// current `cpu MHz` reading.
    fn detect() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let from_model = info
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.rsplit_once('@'))
            .and_then(|(_, f)| f.trim().strip_suffix("GHz"))
            .and_then(|f| f.trim().parse::<f64>().ok());
        let from_mhz = info
            .lines()
            .find(|l| l.starts_with("cpu MHz"))
            .and_then(|l| l.split(':').nth(1))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .map(|mhz| mhz / 1000.0);
        FmaPeak {
            freq_ghz: from_model.or(from_mhz).unwrap_or(0.0),
            cores,
        }
    }

    /// One-core f64 FMA peak in GFlop/s at `lanes` lanes per register.
    fn core_peak(&self, lanes: usize) -> f64 {
        self.freq_ghz * lanes as f64 * 2.0
    }

    /// Whole-machine peak: `cores x freq x lanes x 2`.
    fn machine_peak(&self, lanes: usize) -> f64 {
        self.cores as f64 * self.core_peak(lanes)
    }
}

/// Percent-of-peak formatter tolerant of an undetectable clock.
fn pct_of(gflops: f64, peak: f64) -> String {
    if peak > 0.0 {
        format!("{:.0}%", 100.0 * gflops / peak)
    } else {
        "n/a".to_string()
    }
}

/// Measured GFlop/s of the two SIMD-dispatch flagship kernels (packed GEMM
/// and the blocked WY apply) under each forced backend, for the vs-peak
/// table and the BENCH.json `simd` block.
struct SimdGflops {
    /// (backend name, GFlop/s) for `gemm_nn_packed` at 256^3.
    gemm: Vec<(&'static str, f64)>,
    /// (backend name, GFlop/s) for blocked UNMQR at nb = 64.
    wy_unmqr: Vec<(&'static str, f64)>,
}

/// Time packed GEMM (256^3) and the blocked WY apply (UNMQR @ nb = 64)
/// under each available backend through the production dispatch path
/// ([`simd::with_forced_backend`] pins the process-global backend; the
/// kernels consult [`simd::backend`] as usual), and print GFlop/s against
/// the nominal FMA peaks.
fn simd_backend_comparison(h: &mut Harness, peak: &FmaPeak) -> SimdGflops {
    // Scalar and, where the CPU has it, the 256-bit backend.
    let backends: Vec<SimdBackend> = simd::available_backends()
        .filter(|be| be.lanes() <= 4)
        .collect();
    if backends.len() == 1 {
        println!("# AVX2+FMA not available: SIMD comparison covers the scalar backend only");
    }

    let s = 256;
    let a = random_gaussian(s, s, 21);
    let b = random_gaussian(s, s, 22);
    let gemm_flops = 2.0 * (s as f64).powi(3);
    let nb = 64;
    let cq = random_gaussian(nb, nb, 23);
    let mut v = random_gaussian(nb, nb, 24);
    let tf = qr::geqrt(&mut v);
    let unmqr_flops = KernelKind::Unmqr.flops(nb);

    let mut out = SimdGflops {
        gemm: Vec::new(),
        wy_unmqr: Vec::new(),
    };
    for be in backends {
        simd::with_forced_backend(be, || {
            let mut scratch = GemmScratch::new();
            let mut cw = random_gaussian(s, s, 25);
            h.bench("gemm_nn_simd", gemm_flops, s, be.name(), || {
                gemm_nn_packed(
                    &mut cw.as_view_mut(),
                    1.0,
                    a.as_view(),
                    b.as_view(),
                    &mut scratch,
                );
            });
            let mut w = cq.clone();
            h.bench("unmqr_simd", unmqr_flops, nb, be.name(), || {
                w.copy_from(&cq);
                qr::unmqr(&v, &tf, &mut w, Trans::Transpose);
            });
        });
        let gf = |name: &str| {
            h.records
                .iter()
                .find(|r| r.name == name && r.variant == be.name())
                .map_or(0.0, |r| r.gflops)
        };
        out.gemm.push((be.name(), gf("gemm_nn_simd")));
        out.wy_unmqr.push((be.name(), gf("unmqr_simd")));
    }

    println!(
        "# SIMD backends vs machine FMA peak ({} cores x {:.2} GHz x lanes x 2; 1-thread kernels, 1 FMA port)",
        peak.cores, peak.freq_ghz
    );
    println!("kernel\tbackend\tGFlop/s\tpeak_GF\tpct_of_peak");
    for (kernel, rows) in [("gemm_nn_256", &out.gemm), ("unmqr_nb64", &out.wy_unmqr)] {
        for &(name, gflops) in rows {
            let lanes = if name == "avx2" { 4 } else { 1 };
            let p = peak.machine_peak(lanes);
            println!(
                "{kernel}\t{name}\t{gflops:.2}\t{p:.1}\t{}",
                pct_of(gflops, p)
            );
        }
    }
    if let (Some((_, gs)), Some((_, gv))) = (out.gemm.first(), out.gemm.get(1)) {
        println!("# gemm avx2/scalar: {:.2}x", gv / gs);
    }
    if let (Some((_, ws_)), Some((_, wv))) = (out.wy_unmqr.first(), out.wy_unmqr.get(1)) {
        println!("# unmqr avx2/scalar: {:.2}x", wv / ws_);
    }
    println!();
    out
}

/// GE2BND on the reference case under each forced backend, with the PR 7
/// acceptance gate: AVX2 must be at least `1.3x` faster than the scalar
/// backend end-to-end.  Asserted in `--test` mode (when AVX2 exists) after
/// a slower re-measurement pass, mirroring the other gates' noise policy.
fn ge2bnd_backend_gate(samples: usize, test_mode: bool) -> Vec<bidiag_bench::BackendPoint> {
    let points = measure_ge2bnd_backends(768, 512, 64, samples);
    println!("# ge2bnd 768x512 nb=64 @1 thread, forced SIMD backends (best of {samples})");
    println!("backend\ttime_ms\tspeedup_vs_scalar");
    let scalar = points[0].seconds;
    for p in &points {
        println!(
            "{}\t{:.1}\t{:.2}x",
            p.backend,
            p.seconds * 1.0e3,
            scalar / p.seconds
        );
    }
    if let Some(avx2) = points.iter().find(|p| p.backend == "avx2") {
        let speedup = scalar / avx2.seconds;
        let verdict = if speedup >= 1.3 { "PASS" } else { "FAIL" };
        println!("# check: ge2bnd avx2 >= 1.3x scalar backend: {speedup:.2}x [{verdict}]");
        if test_mode && speedup < 1.3 {
            println!("# gate miss on first pass; re-measuring");
            let retry = measure_ge2bnd_backends(768, 512, 64, samples.max(3));
            let speedup2 = retry[0].seconds / retry.last().unwrap().seconds;
            assert!(
                speedup2 >= 1.3,
                "simd acceptance: avx2 ge2bnd only {speedup2:.2}x over scalar in both passes"
            );
        }
    }
    println!();
    points
}

/// Batched-SVD throughput: a stream of small problems through one
/// persistent `SvdSession` against per-call `ge2val`, with the PR 8
/// acceptance gate: the session must be at least `1.5x` faster than the
/// per-call path at `n = 32`.  Asserted in `--test` mode after a slower
/// re-measurement pass, mirroring the other gates' noise policy.
///
/// Full runs sweep n in {32, 64, 128, 256}.  The issue's nominal batch is
/// 10k problems per size; that is kept at n = 32 and scaled down with n
/// (printed per point, never silently) so a full run stays minutes-scale —
/// throughput is per-problem-rate times batch, so the rate is batch-size
/// independent once the batch amortises session startup.
fn batch_throughput_gate(test_mode: bool) -> Vec<bidiag_bench::BatchThroughputPoint> {
    let threads = std::thread::available_parallelism().map_or(1, |c| c.get());
    let sizes: &[(usize, usize)] = if test_mode {
        &[(32, 2_000)]
    } else {
        &[(32, 10_000), (64, 4_000), (128, 1_000), (256, 250)]
    };
    // Best-of-3 in full runs: the n=32 point feeds the BENCH.json history
    // and the admission-overhead comparison, so it gets the same noise
    // policy as the stage timings.  --test mode keeps 2 to stay quick.
    let samples = if test_mode { 2 } else { 3 };
    let points: Vec<_> = sizes
        .iter()
        .map(|&(n, batch)| {
            if !test_mode && batch < 10_000 {
                println!("# note: batch at n={n} scaled down to {batch} (nominal 10k) to keep full runs short");
            }
            bidiag_bench::measure_batch_throughput(n, batch, threads, samples)
        })
        .collect();
    println!("# batched SVD: persistent SvdSession vs per-call ge2val @{threads} thread(s), nb=64 (best of {samples})");
    println!("n\tbatch\tsession_probs_per_s\tper_call_probs_per_s\tspeedup");
    for p in &points {
        println!(
            "{}\t{}\t{:.0}\t{:.0}\t{:.2}x",
            p.n,
            p.batch,
            p.session_problems_per_sec(),
            p.per_call_problems_per_sec(),
            p.speedup()
        );
    }
    let p32 = points.iter().find(|p| p.n == 32).expect("n=32 point");
    let speedup = p32.speedup();
    let verdict = if speedup >= 1.5 { "PASS" } else { "FAIL" };
    println!("# check: SvdSession >= 1.5x per-call ge2val @ n=32: {speedup:.2}x [{verdict}]");
    if test_mode && speedup < 1.5 {
        println!("# gate miss on first pass; re-measuring");
        let retry = bidiag_bench::measure_batch_throughput(32, 4_000, threads, 3);
        assert!(
            retry.speedup() >= 1.5,
            "batch acceptance: session only {:.2}x over per-call ge2val at n=32 in both passes",
            retry.speedup()
        );
    }
    println!();
    points
}

/// Observability-plane cost on the reference GE2BND, measured as
/// force-enabled vs disabled at `threads >= 2` (the threaded executor is
/// where every span-recording site lives; at 1 thread the sequential path
/// has no sites on it).  The enabled-vs-disabled delta upper-bounds the
/// contract the plane makes — a *disabled* site costs one relaxed load or
/// one integer compare — so the PR 10 acceptance gate asserts the whole
/// delta stays <= 2% in `--test` mode, with the usual slower re-measure
/// before the gate turns red.  Returns the measured overhead in percent.
fn tracing_overhead_gate(samples: usize, test_mode: bool) -> f64 {
    let threads = std::thread::available_parallelism().map_or(2, |c| c.get().max(2));
    let a = latms(768, 512, &SpectrumKind::Geometric { cond: 1.0e4 }, 7).0;
    let opts = Ge2Options::new(64)
        .with_tree(NamedTree::Greedy)
        .with_algorithm(AlgorithmChoice::Bidiag)
        .with_threads(threads);
    let measure = |samples: usize| {
        let mut best = f64::INFINITY;
        for _ in 0..samples {
            let t0 = Instant::now();
            let r = bidiag_core::pipeline::ge2bnd(&a, &opts);
            best = best.min(t0.elapsed().as_secs_f64());
            assert!(r.num_tasks > 0);
        }
        best
    };
    // Interleave disabled/enabled rounds (best-of each), alternating which
    // side goes first in each round: slow drift and position effects
    // (frequency ramp, cache state, cgroup CPU-quota throttling of the
    // later run in a busy burst) then hit both sides equally instead of
    // biasing whichever side consistently ran second.
    let run_pair = |samples: usize| {
        bidiag_obs::set_enabled(false);
        let _ = measure(1); // untimed warm-up: first-touch + frequency ramp
        let mut off = f64::INFINITY;
        let mut on = f64::INFINITY;
        for round in 0..samples {
            for leg in 0..2 {
                let enabled = (round + leg) % 2 == 1;
                bidiag_obs::set_enabled(enabled);
                let t = measure(1);
                if enabled {
                    on = on.min(t);
                } else {
                    off = off.min(t);
                }
            }
        }
        bidiag_obs::set_enabled(false);
        (off, on, (on / off - 1.0) * 100.0)
    };
    let (off, on, mut pct) = run_pair(samples);
    let verdict = if pct <= 2.0 { "PASS" } else { "FAIL" };
    println!(
        "# ge2bnd 768x512 nb=64 @{threads} threads: tracing off {:.1} ms, force-enabled {:.1} ms, overhead {pct:+.2}% [{verdict}]",
        off * 1.0e3,
        on * 1.0e3
    );
    if pct > 2.0 {
        // A first reading past the gate is usually positional noise on a
        // throttled host; take the longer re-measurement as the result in
        // both modes (test mode additionally asserts it).
        println!("# gate miss on first pass; re-measuring");
        let (_, _, pct2) = run_pair(samples.max(8));
        if test_mode {
            assert!(
                pct2 <= 2.0,
                "tracing acceptance: observability overhead {pct2:+.2}% > 2% on ge2bnd in both passes"
            );
        }
        let verdict2 = if pct2 <= 2.0 { "PASS" } else { "FAIL" };
        println!("# re-measured tracing overhead: {pct2:+.2}% [{verdict2}]");
        pct = pct2;
    }
    println!();
    pct
}

/// Best-effort CPU model name (Linux /proc/cpuinfo).
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn write_json(path: &std::path::Path, records: &[Record]) {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"name\": \"{}\", \"nb\": {}, \"variant\": \"{}\", \"ns_per_iter\": {:.1}, \"gflops\": {:.3}}}{}\n",
            r.name,
            r.nb,
            r.variant,
            r.ns_per_iter,
            r.gflops,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    out.push_str("]\n");
    std::fs::write(path, out).expect("writing bench JSON");
    println!("# wrote {}", path.display());
}

/// Write the top-level BENCH.json: end-to-end numbers on the reference
/// case, the BD2VAL solver comparison, the machine they were measured on,
/// and the cross-PR trajectory (GE2BND plus, from PR 4 on, the BD2VAL
/// stage time and, from PR 5 on, the BND2BD stage time).
#[allow(clippy::too_many_arguments)] // one call site; mirrors the BENCH.json block list
fn write_top_level_bench(
    ge2bnd_ms: f64,
    stages: &bidiag_bench::StageTimes,
    bd2val: &bidiag_bench::Bd2ValTimings,
    peak: &FmaPeak,
    sg: &SimdGflops,
    backend_points: &[bidiag_bench::BackendPoint],
    batch: &[bidiag_bench::BatchThroughputPoint],
    tracing_overhead_pct: f64,
) {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let history: &[(&str, f64, Option<f64>, Option<f64>)] = &[
        (
            "PR 2: work-stealing runtime (pre-blocked kernels)",
            173.7,
            None,
            None,
        ),
        ("PR 3: compact-WY blocked tile kernels", 94.2, None, None),
        (
            "PR 4: packed GEMM + structure-aware WY + fused TT",
            72.8,
            Some(227.2),
            None,
        ),
        (
            "PR 5: bidiag-svd subsystem (dqds)",
            69.6,
            Some(6.1),
            Some(101.3),
        ),
        (
            "PR 6: pipelined cache-blocked BND2BD bulge chasing",
            76.5,
            Some(8.3),
            Some(25.5),
        ),
        (
            "PR 7: SIMD kernel layer (AVX2+FMA runtime dispatch)",
            59.9,
            Some(6.3),
            Some(29.6),
        ),
        (
            "PR 8: persistent batched SVD runtime (SvdSession + crossover)",
            67.6,
            Some(6.6),
            Some(31.5),
        ),
        (
            "PR 9: hardened service plane (typed errors + bounded admission)",
            63.5,
            Some(6.8),
            Some(42.8),
        ),
        (
            "PR 10: observability plane (span rings + Perfetto export)",
            ge2bnd_ms,
            Some(stages.bd2val * 1.0e3),
            Some(stages.bnd2bd * 1.0e3),
        ),
    ];
    let mut hist = String::new();
    for (i, (label, ms, bd, b2b)) in history.iter().enumerate() {
        let bd_field = bd.map_or(String::new(), |v| format!(", \"bd2val_ms\": {v:.1}"));
        let b2b_field = b2b.map_or(String::new(), |v| format!(", \"bnd2bd_ms\": {v:.1}"));
        // The live (last) entry also records the flagship-kernel GFlop/s
        // per backend, so the vectorization trajectory accumulates in the
        // history alongside the stage times.
        let gf_field = if i + 1 == history.len() {
            let field = |pts: &[(&'static str, f64)]| {
                pts.iter()
                    .map(|(be, gf)| format!("\"{be}\": {gf:.1}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            format!(
                ", \"gemm_gflops\": {{{}}}, \"unmqr_gflops\": {{{}}}",
                field(&sg.gemm),
                field(&sg.wy_unmqr)
            )
        } else {
            String::new()
        };
        // The live entry also records the batched-session throughput at
        // n = 32 next to its per-call baseline, so the batch trajectory
        // accumulates in the history like the stage times do.
        let batch_field = if i + 1 == history.len() {
            batch.iter().find(|p| p.n == 32).map_or(String::new(), |p| {
                format!(
                    ", \"batch32_session_ps\": {:.0}, \"batch32_per_call_ps\": {:.0}",
                    p.session_problems_per_sec(),
                    p.per_call_problems_per_sec()
                )
            })
        } else {
            String::new()
        };
        // The live entry records the observability plane's measured cost on
        // the threaded reference run (the PR 10 <= 2% acceptance quantity).
        let trace_field = if i + 1 == history.len() {
            format!(", \"tracing_overhead_pct\": {tracing_overhead_pct:.2}")
        } else {
            String::new()
        };
        hist.push_str(&format!(
            "    {{\"label\": \"{label}\", \"ge2bnd_ms\": {ms:.1}{b2b_field}{bd_field}{gf_field}{batch_field}{trace_field}}}{}\n",
            if i + 1 < history.len() { "," } else { "" }
        ));
    }

    // GFlop/s-vs-peak block: flagship kernels under each forced backend
    // plus the end-to-end backend split (see BENCHMARKING.md for the peak
    // model and why the 1-port figure can be exceeded).
    let kernel_rows = |rows: &[(&'static str, f64)]| -> String {
        rows.iter()
            .map(|(name, gflops)| {
                let lanes = if *name == "avx2" { 4 } else { 1 };
                format!(
                    "      {{\"backend\": \"{name}\", \"gflops\": {gflops:.2}, \"peak_gflops\": {:.1}}}",
                    peak.machine_peak(lanes)
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let backend_rows = backend_points
        .iter()
        .map(|p| {
            format!(
                "      {{\"backend\": \"{}\", \"ge2bnd_ms\": {:.1}, \"speedup_vs_scalar\": {:.2}}}",
                p.backend,
                p.seconds * 1.0e3,
                backend_points[0].seconds / p.seconds
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let simd_block = format!(
        r#"  "simd": {{
    "default_backend": "{default}",
    "freq_ghz": {freq:.2},
    "machine_fma_peak_gflops": {{"scalar": {ps:.1}, "avx2": {pv:.1}}},
    "gemm_nn_256": [
{gemm}
    ],
    "unmqr_nb64": [
{wy}
    ],
    "ge2bnd_backends": [
{be}
    ]
  }},"#,
        default = simd::backend().name(),
        freq = peak.freq_ghz,
        ps = peak.machine_peak(1),
        pv = peak.machine_peak(4),
        gemm = kernel_rows(&sg.gemm),
        wy = kernel_rows(&sg.wy_unmqr),
        be = backend_rows,
    );
    let batch_rows = batch
        .iter()
        .map(|p| {
            format!(
                "      {{\"n\": {}, \"batch\": {}, \"session_problems_per_sec\": {:.0}, \"per_call_problems_per_sec\": {:.0}, \"speedup\": {:.2}}}",
                p.n,
                p.batch,
                p.session_problems_per_sec(),
                p.per_call_problems_per_sec(),
                p.speedup()
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let batch_block = format!(
        r#"  "batch_throughput": {{
    "threads": {threads},
    "session": "persistent SvdSession, nb=64, direct crossover at n<=64, bounded blocking admission (max_in_flight=256, input validation on)",
    "per_call": "ge2val per problem, nb=64, crossover disabled (fresh executor+scratch per call)",
    "points": [
{batch_rows}
    ]
  }},"#,
        threads = batch.first().map_or(cores, |p| p.threads),
    );
    let out = format!(
        r#"{{
  "generated_by": "cargo bench -p bidiag-bench --bench kernels",
  "machine": {{
    "os": "{os}",
    "arch": "{arch}",
    "cores": {cores},
    "cpu": "{cpu}"
  }},
  "reference_case": {{
    "m": 768, "n": 512, "nb": 64, "threads": 1,
    "tree": "GREEDY", "algorithm": "BIDIAG", "timing": "best of 3"
  }},
  "ge2bnd_ms": {ge2bnd_ms:.1},
  "ge2val": {{
    "total_ms": {total:.1},
    "ge2bnd_ms": {s1:.1},
    "bnd2bd_ms": {s2:.1},
    "bd2val_ms": {s3:.1},
    "bd2val_solver": "dqds"
  }},
  "bd2val_solvers": {{
    "n": {bn},
    "bisection_ms": {bb:.2},
    "dqds_ms": {bq:.2},
    "dqds_speedup_vs_bisection": {bx:.2}
  }},
{batch_block}
{simd_block}
  "history": [
{hist}  ]
}}
"#,
        os = std::env::consts::OS,
        arch = std::env::consts::ARCH,
        cpu = cpu_model(),
        total = stages.total() * 1.0e3,
        s1 = stages.ge2bnd * 1.0e3,
        s2 = stages.bnd2bd * 1.0e3,
        s3 = stages.bd2val * 1.0e3,
        bn = bd2val.n,
        bb = bd2val.bisection * 1.0e3,
        bq = bd2val.dqds * 1.0e3,
        bx = bd2val.bisection / bd2val.dqds,
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH.json");
    std::fs::write(&path, out).expect("writing BENCH.json");
    println!("# wrote {}", path.display());
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let sweep_only = std::env::args().any(|a| a == "--gemm-sweep");
    let bd2val_only = std::env::args().any(|a| a == "--bd2val");
    let simd_only = std::env::args().any(|a| a == "--simd");
    let batch_only = std::env::args().any(|a| a == "--batch");
    let (nbs, rounds, min_round_secs): (&[usize], usize, f64) = if test_mode {
        // CI gate: one realistic tile size, short but real rounds — enough
        // to expose a kernel running slower than its reference.
        (&[64], 2, 0.02)
    } else {
        (&[32, 64, 128], 3, 0.05)
    };
    let mut h = Harness {
        rounds,
        min_round_secs,
        records: Vec::new(),
    };

    if sweep_only {
        gemm_sweep(&mut h);
        return;
    }
    if bd2val_only {
        bd2val_comparison(&mut h, 3);
        return;
    }
    if simd_only {
        let peak = FmaPeak::detect();
        simd_backend_comparison(&mut h, &peak);
        ge2bnd_backend_gate(3, false);
        return;
    }
    if batch_only {
        batch_throughput_gate(false);
        return;
    }

    for &nb in nbs {
        bench_tile_size(&mut h, nb);
    }

    // Per-kernel comparison table.
    println!("# tile kernels: blocked compact-WY vs unblocked reference (best of {rounds})");
    println!("kernel\tnb\tunblocked_ns\tblocked_ns\tspeedup\tblocked_GFlop/s");
    for &nb in nbs {
        for name in KERNEL_NAMES {
            if let Some((u_ns, b_ns, speedup)) = h.pair(name, nb) {
                let gf = h
                    .records
                    .iter()
                    .find(|r| r.name == name && r.nb == nb && r.variant == "blocked")
                    .map(|r| r.gflops)
                    .unwrap_or(0.0);
                println!("{name}\t{nb}\t{u_ns:.0}\t{b_ns:.0}\t{speedup:.2}x\t{gf:.2}");
            }
        }
    }

    // The acceptance gate (asserted in --test mode so CI fails on any
    // kernel regressing below its unblocked reference).  A first-pass miss
    // on a noisy runner gets one slower, more careful re-measurement before
    // the gate turns red — a real regression (like PR 3's 0.8x TTQRT)
    // fails both passes, a scheduler hiccup does not.
    let failures = check_kernel_acceptance(&h, 64);
    if !failures.is_empty() && test_mode {
        println!(
            "# gate miss on first pass ({}); re-measuring",
            failures.join(", ")
        );
        let mut h2 = Harness {
            rounds: 3,
            min_round_secs: 0.05,
            records: Vec::new(),
        };
        bench_tile_size(&mut h2, 64);
        let failures2 = check_kernel_acceptance(&h2, 64);
        assert!(
            failures2.is_empty(),
            "blocked kernels slower than their unblocked references @ nb=64 in both passes: {}",
            failures2.join(", ")
        );
    } else if !failures.is_empty() {
        println!(
            "# WARNING: blocked kernels slower than their unblocked references @ nb=64: {}",
            failures.join(", ")
        );
    }

    // BD2VAL acceptance: the dqds fast path must beat the per-value
    // bisection oracle by >= 3x on the reference bidiagonal (n = 512).
    // Asserted in --test mode so CI catches a fast-path regression; the
    // margin is wide (>= 10x on the reference host) so scheduler noise
    // cannot flip the gate.
    let bd2val = bd2val_comparison(&mut h, if test_mode { 2 } else { 3 });
    let dqds_speedup = bd2val.bisection / bd2val.dqds;
    let verdict = if dqds_speedup >= 3.0 { "PASS" } else { "FAIL" };
    println!(
        "# check: bd2val dqds >= 3x per-value bisection @ n={}: {dqds_speedup:.2}x [{verdict}]",
        bd2val.n
    );
    if test_mode {
        assert!(
            dqds_speedup >= 3.0,
            "bd2val acceptance: dqds only {dqds_speedup:.2}x over per-value bisection at n={}",
            bd2val.n
        );
    }

    // SIMD layer: flagship-kernel GFlop/s vs peak under both forced
    // backends, plus the end-to-end GE2BND backend split with the PR 7
    // acceptance gate (avx2 >= 1.3x scalar, asserted in --test mode when
    // the host has AVX2).
    let peak = FmaPeak::detect();
    let sg = simd_backend_comparison(&mut h, &peak);
    let backend_points = ge2bnd_backend_gate(if test_mode { 2 } else { 3 }, test_mode);

    // Batched-runtime acceptance: one persistent SvdSession must push a
    // stream of n = 32 problems at least 1.5x faster than calling ge2val
    // per problem (asserted in --test mode inside the gate).
    let batch_points = batch_throughput_gate(test_mode);

    // Observability acceptance: the span/metrics plane must cost <= 2% on
    // the threaded reference GE2BND even when force-enabled (asserted in
    // --test mode inside the gate; the disabled cost is strictly smaller).
    let tracing_overhead_pct = tracing_overhead_gate(5, test_mode);

    if !test_mode {
        gemm_sweep(&mut h);

        // Legacy PR 3 acceptance: UNMQR and TSMQR at least 2x unblocked at
        // nb = 64 (reported, not asserted — hosts vary).
        for name in ["unmqr", "tsmqr"] {
            if let Some((_, _, speedup)) = h.pair(name, 64) {
                let verdict = if speedup >= 2.0 { "PASS" } else { "FAIL" };
                println!(
                    "# check: blocked {name} @ nb=64 >= 2x unblocked: {speedup:.2}x [{verdict}]"
                );
            }
        }

        // End-to-end GE2BND on the ROADMAP reference case (768x512, nb=64,
        // GREEDY, BIDIAG, 1 thread; best of 3) against the pre-blocked
        // baseline of 173.7 ms recorded in ROADMAP.md.
        let points = measure_ge2bnd_scaling(768, 512, 64, &[1], 3);
        let secs = points[0].seconds;
        let baseline_ms = 173.7;
        let ratio = baseline_ms / (secs * 1.0e3);
        let verdict = if ratio >= 1.3 { "PASS" } else { "FAIL" };
        println!(
            "# ge2bnd 768x512 nb=64 @1 thread: {:.1} ms (baseline {baseline_ms} ms, {ratio:.2}x) [{verdict}]",
            secs * 1.0e3
        );
        h.records.push(Record {
            name: "ge2bnd_768x512",
            nb: 64,
            variant: "blocked",
            ns_per_iter: secs * 1.0e9,
            gflops: bidiag_flops(768, 512) / secs / 1.0e9,
        });

        // GE2VAL stage split (the data BENCH.json tracks across PRs).
        let stages = measure_ge2val_stages(768, 512, 64, 3);
        println!(
            "# ge2val 768x512 nb=64 @1 thread: total {:.1} ms = ge2bnd {:.1} + bnd2bd {:.1} + bd2val {:.1}",
            stages.total() * 1.0e3,
            stages.ge2bnd * 1.0e3,
            stages.bnd2bd * 1.0e3,
            stages.bd2val * 1.0e3
        );
        write_top_level_bench(
            secs * 1.0e3,
            &stages,
            &bd2val,
            &peak,
            &sg,
            &backend_points,
            &batch_points,
            tracing_overhead_pct,
        );
    }

    let path = if test_mode {
        std::env::temp_dir().join("BENCH_kernels.json")
    } else {
        std::path::PathBuf::from("BENCH_kernels.json")
    };
    write_json(&path, &h.records);
}
