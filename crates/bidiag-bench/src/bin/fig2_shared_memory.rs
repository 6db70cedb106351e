//! Figure 2: shared-memory performance.
//!
//! Top row — GE2BND GFlop/s for the four trees (FlatTS, FlatTT, Greedy,
//! Auto), BIDIAG and R-BIDIAG, on the three shapes of the paper: square,
//! tall-skinny with n = 2000, tall-skinny with a wider second dimension.
//! Bottom row — GE2VAL GFlop/s of our best variant and of the PLASMA-like
//! FlatTS pipeline.  These six panels come from the calibrated DAG
//! simulator of one 24-core node (see `bidiag-bench` documentation); sizes
//! are scaled down from the paper's 30000 so that the harness completes in
//! minutes (pass `--full` for the paper's sizes).
//!
//! The last three panels are *measured* on the host:
//!
//! * GE2VAL against the one-stage algorithm class (`gebd2` + dqds) the
//!   paper blames for the ScaLAPACK / Elemental ceiling, at one thread on
//!   square matrices of order 256 to 1024;
//! * the work-stealing runtime's GE2BND thread scaling on the ROADMAP's
//!   768x512 nb=64 case at 1/2/4/8 threads.  When the host actually has at
//!   least 8 cores it enforces >= 1.5x speedup at 8 threads; on smaller
//!   hosts the assertion is skipped (a 1-core host cannot speed
//!   anything up) and the table is printed for the record;
//! * the GE2VAL stage split on that case.

use bidiag_bench::*;
use bidiag_core::drivers::Algorithm;
use bidiag_core::flops::{gflops, reporting_flops};
use bidiag_core::pipeline::{ge2val, Ge2Options};
use bidiag_kernels::gebd2::gebd2;
use bidiag_matrix::gen::{latms, SpectrumKind};
use bidiag_matrix::BlockCyclic;
use bidiag_svd::dqds_singular_values;
use bidiag_trees::NamedTree;
use std::hint::black_box;
use std::time::Instant;

fn trees() -> Vec<NamedTree> {
    NamedTree::paper_variants(CORES_PER_NODE)
}

fn panel_ge2bnd(title: &str, shapes: &[(usize, usize)], algos: &[Algorithm], nb: usize) {
    let grid = BlockCyclic::single_node();
    let mut header = vec!["M".to_string(), "N".to_string()];
    for alg in algos {
        for t in trees() {
            header.push(if algos.len() > 1 {
                format!("{}-{}", alg.name(), t.name())
            } else {
                t.name().to_string()
            });
        }
    }
    let mut rows = Vec::new();
    for &(m, n) in shapes {
        let mut row = vec![m.to_string(), n.to_string()];
        for &alg in algos {
            for t in trees() {
                let g = ge2bnd_sim_gflops(m, n, nb, t, alg, 1, grid);
                row.push(format!("{g:.1}"));
            }
        }
        rows.push(row);
    }
    let hdr: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    print_tsv(title, &hdr, &rows);
}

fn panel_ge2val(title: &str, shapes: &[(usize, usize)], best_algo: Algorithm, nb: usize) {
    let grid = BlockCyclic::single_node();
    let mut rows = Vec::new();
    for &(m, n) in shapes {
        let auto = NamedTree::Auto {
            gamma: 2.0,
            ncores: CORES_PER_NODE,
        };
        let dplasma = ge2val_sim_gflops(m, n, nb, auto, best_algo, 1, grid);
        let plasma = ge2val_sim_gflops(m, n, nb, NamedTree::FlatTs, Algorithm::Bidiag, 1, grid);
        rows.push(vec![
            m.to_string(),
            n.to_string(),
            format!("{dplasma:.1}"),
            format!("{plasma:.1}"),
        ]);
    }
    print_tsv(title, &["M", "N", "DPLASMA(ours)", "PLASMA"], &rows);
}

/// Seconds of the fastest of three runs of `f`, after one warm-up.
fn fastest_of_3(mut f: impl FnMut()) -> f64 {
    f();
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Measured GE2VAL against the one-stage class at one thread, both from the
/// same `&Matrix` to singular values and both finished by dqds, on the
/// BENCHMARKING.md reference input: `ge2val` (tiled GE2BND, bulge chase)
/// and `gebd2` of a copy.  Rates use the BIDIAG operation count.
fn panel_measured_ge2val_vs_one_stage() {
    let nb = 64;
    let rows: Vec<Vec<String>> = [256usize, 512, 768, 1024]
        .into_iter()
        .map(|n| {
            let (a, _) = latms(n, n, &SpectrumKind::Geometric { cond: 1.0e4 }, 7);
            let tiled = fastest_of_3(|| drop(black_box(ge2val(&a, &Ge2Options::new(nb)))));
            let one_stage = fastest_of_3(|| {
                let b = gebd2(&mut a.clone());
                black_box(dqds_singular_values(&b.diag, &b.superdiag));
            });
            let flops = reporting_flops(n, n);
            vec![
                n.to_string(),
                format!("{:.1}", tiled * 1.0e3),
                format!("{:.2}", gflops(flops, tiled)),
                format!("{:.1}", one_stage * 1.0e3),
                format!("{:.2}", gflops(flops, one_stage)),
                format!("{:.2}x", one_stage / tiled),
            ]
        })
        .collect();
    print_tsv(
        &format!(
            "Fig 2 bottom, measured: GE2VAL vs one-stage (gebd2 + dqds), square, \
             1 thread, nb={nb} (fastest of 3)"
        ),
        &[
            "N",
            "ge2val_ms",
            "ge2val_GFlop/s",
            "one_stage_ms",
            "one_stage_GFlop/s",
            "ge2val_speedup",
        ],
        &rows,
    );
}

/// Measured (wall-clock) thread scaling of the real runtime on the
/// ROADMAP's reference case.  Enforces the >= 1.5x @ 8 threads acceptance
/// bar whenever the hardware can physically deliver it.
fn panel_measured_scaling() {
    let (m, n, nb) = (768usize, 512usize, 64usize);
    let threads = [1usize, 2, 4, 8];
    let points = measure_ge2bnd_scaling(m, n, nb, &threads, 3);
    print_scaling_table(
        &format!("Fig 2 extra: measured GE2BND thread scaling, {m}x{n} nb={nb} (Greedy, BiDiag)"),
        &points,
    );
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let at8 = points
        .iter()
        .find(|p| p.threads == 8)
        .expect("8-thread point measured");
    if cores >= 8 {
        assert!(
            at8.speedup >= 1.5,
            "8-thread speedup {:.2}x below the 1.5x bar on a {cores}-core host",
            at8.speedup
        );
        println!(
            "# scaling check: PASS ({:.2}x at 8 threads, {cores} cores)\n",
            at8.speedup
        );
    } else {
        println!(
            "# scaling check: SKIPPED (host exposes {cores} core(s); {:.2}x at 8 threads)\n",
            at8.speedup
        );
    }
}

/// Measured (wall-clock) GE2VAL stage breakdown on the ROADMAP reference
/// case: which of GE2BND / BND2BD / BD2VAL the next perf PR should attack
/// is read off this table, not guessed.
fn panel_stage_breakdown() {
    let (m, n, nb) = (768usize, 512usize, 64usize);
    let s = measure_ge2val_stages(m, n, nb, 3);
    let rows = vec![
        vec![
            "GE2BND".to_string(),
            format!("{:.1}", s.ge2bnd * 1.0e3),
            format!("{:.1}%", s.share(s.ge2bnd)),
        ],
        vec![
            "BND2BD".to_string(),
            format!("{:.1}", s.bnd2bd * 1.0e3),
            format!("{:.1}%", s.share(s.bnd2bd)),
        ],
        vec![
            "BD2VAL".to_string(),
            format!("{:.1}", s.bd2val * 1.0e3),
            format!("{:.1}%", s.share(s.bd2val)),
        ],
        vec![
            "total".to_string(),
            format!("{:.1}", s.total() * 1.0e3),
            "100.0%".to_string(),
        ],
    ];
    print_tsv(
        &format!(
            "Fig 2 extra: measured GE2VAL stage breakdown, {m}x{n} nb={nb} (best of 3; BD2VAL = dqds)"
        ),
        &["stage", "time_ms", "share"],
        &rows,
    );
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let nb = 160;
    let square: Vec<(usize, usize)> = if full {
        vec![5000, 10000, 15000, 20000, 25000, 30000]
            .into_iter()
            .map(|n| (n, n))
            .collect()
    } else {
        vec![2000, 4000, 6000, 8000, 10000, 12000]
            .into_iter()
            .map(|n| (n, n))
            .collect()
    };
    let ts2000: Vec<(usize, usize)> = if full {
        vec![5000, 10000, 20000, 30000, 40000]
            .into_iter()
            .map(|m| (m, 2000))
            .collect()
    } else {
        vec![4000, 8000, 16000, 24000, 32000, 40000]
            .into_iter()
            .map(|m| (m, 2000))
            .collect()
    };
    let ts_wide: Vec<(usize, usize)> = if full {
        vec![10000, 20000, 40000, 60000, 80000, 100000]
            .into_iter()
            .map(|m| (m, 10000))
            .collect()
    } else {
        vec![8000, 12000, 16000, 24000, 32000]
            .into_iter()
            .map(|m| (m, 4000))
            .collect()
    };

    println!("# Figure 2 — shared-memory performance");
    println!(
        "# The six GE2BND/GE2VAL panels are simulated (calibrated DAG model of one \
         24-core node, nb = {nb}); the last three are measured on the machine running it. \
         See BENCHMARKING.md.\n"
    );

    panel_ge2bnd(
        "Fig 2 top-left: GE2BND, square matrices (BiDiag)",
        &square,
        &[Algorithm::Bidiag],
        nb,
    );
    panel_ge2bnd(
        "Fig 2 top-middle: GE2BND, tall-skinny N=2000 (BiDiag vs R-BiDiag)",
        &ts2000,
        &[Algorithm::Bidiag, Algorithm::RBidiag],
        nb,
    );
    panel_ge2bnd(
        "Fig 2 top-right: GE2BND, tall-skinny wide panel (BiDiag vs R-BiDiag)",
        &ts_wide,
        &[Algorithm::Bidiag, Algorithm::RBidiag],
        nb,
    );
    panel_ge2val(
        "Fig 2 bottom-left: GE2VAL, square matrices",
        &square,
        Algorithm::Bidiag,
        nb,
    );
    panel_ge2val(
        "Fig 2 bottom-middle: GE2VAL, tall-skinny N=2000",
        &ts2000,
        Algorithm::RBidiag,
        nb,
    );
    panel_ge2val(
        "Fig 2 bottom-right: GE2VAL, tall-skinny wide panel",
        &ts_wide,
        Algorithm::RBidiag,
        nb,
    );
    panel_measured_ge2val_vs_one_stage();
    panel_measured_scaling();
    panel_stage_breakdown();
    bidiag_bench::maybe_write_trace();
}
