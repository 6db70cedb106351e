//! # bidiag-bench
//!
//! Shared machinery for regenerating every table and figure of the paper:
//!
//! * a calibrated performance model mapping the task DAGs of `bidiag-core`
//!   onto a miriel-like machine (24-core Haswell nodes, 37 GFlop/s per core,
//!   40 Gb/s network) through the list-scheduling simulator of
//!   `bidiag-runtime`,
//! * GFlop/s helpers matching the paper's normalisation (the BIDIAG
//!   operation count is used for every algorithm),
//! * the harness binaries `table1_kernel_weights`, `critical_paths`,
//!   `crossover`, `fig1_snapshots`, `fig2_shared_memory`,
//!   `fig3_distributed_strong` and `fig4_weak_scaling` (see `src/bin/`).
//!
//! The GE2BND/GE2VAL rate panels of Figures 2–4 are simulated (a
//! workstation is not a 600-core InfiniBand cluster): the quantities
//! expected to match the paper are their *relative* behaviours — which tree
//! wins on which shape, where BIDIAG/R-BIDIAG cross over, and how the
//! curves scale with nodes.  Everything else is measured on the host:
//! Table I, and Figure 2's one-thread GE2VAL-versus-one-stage panel, thread
//! scaling and stage split.  No figure prints another library's rate; see
//! BENCHMARKING.md.

#![warn(missing_docs)]

use bidiag_core::drivers::{ge2bnd_ops, Algorithm, GenConfig};
use bidiag_core::ops::TileOp;
use bidiag_kernels::band::bnd2bd_flops;
use bidiag_kernels::cost::KernelKind;
use bidiag_matrix::BlockCyclic;
use bidiag_runtime::{simulate, MachineModel, TaskGraph};
use bidiag_trees::NamedTree;

/// Kernel efficiency of the TS-family kernels relative to GEMM peak
/// (they are cast as calls to blocked Level-3 kernels).
pub const TS_KERNEL_EFFICIENCY: f64 = 0.85;
/// Kernel efficiency of the TT-family kernels: the paper stresses that they
/// "reach only a fraction of the performance of TS kernels".
pub const TT_KERNEL_EFFICIENCY: f64 = 0.45;
/// Sequential Level-2/memory-bound rate (GFlop/s) used for the BND2BD stage,
/// in the units of [`bnd2bd_flops`]: 15.21 charges the stage of an
/// order-`n` band at the paper's `nb = 160` the `84.16 n^2` ns the figures
/// were calibrated with.
pub const BND2BD_GFLOPS: f64 = 15.21;
/// Sequential Level-2/memory-bound rate (GFlop/s) used for the BD2VAL stage.
pub const BD2VAL_GFLOPS: f64 = 12.0;

/// Per-core GEMM rate of the reference machine (GFlop/s).
pub const CORE_GFLOPS: f64 = 37.0;
/// Cores per node of the reference machine.
pub const CORES_PER_NODE: usize = 24;
/// Network latency (s) of the reference machine.
pub const NET_LATENCY: f64 = 2.0e-6;
/// Network bandwidth (GB/s) of the reference machine (40 Gb/s InfiniBand).
pub const NET_GBYTES: f64 = 5.0;

/// A point of a figure: the problem shape and the measured/modelled rate.
#[derive(Clone, Copy, Debug)]
pub struct RatePoint {
    /// Number of matrix rows.
    pub m: usize,
    /// Number of matrix columns.
    pub n: usize,
    /// Number of nodes used.
    pub nodes: usize,
    /// GFlop/s normalised by the BIDIAG operation count.
    pub gflops: f64,
}

/// Kernel efficiency of one tile operation (fraction of GEMM peak).
pub fn kernel_efficiency(kernel: KernelKind) -> f64 {
    match kernel {
        KernelKind::Ttqrt | KernelKind::Ttmqr | KernelKind::Ttlqt | KernelKind::Ttmlq => {
            TT_KERNEL_EFFICIENCY
        }
        KernelKind::Laset => 1.0,
        _ => TS_KERNEL_EFFICIENCY,
    }
}

/// Build the simulation task graph of an operation list: the weight of every
/// task is its Table I weight divided by its kernel efficiency, so that one
/// weight unit corresponds to `nb^3/3` flops at GEMM peak.
pub fn build_sim_graph(ops: &[TileOp], q: usize, dist: &BlockCyclic) -> TaskGraph {
    let mut g = TaskGraph::new();
    for op in ops {
        let (oi, oj) = op.output_tile();
        let owner = dist.owner(oi, oj);
        let weight = op.weight() / kernel_efficiency(op.kernel());
        g.add_task(weight, owner, op.kernel() as u32, &op.accesses(q));
    }
    g
}

/// The machine model of a cluster of miriel-like nodes for tile size `nb`.
pub fn paper_machine(nodes: usize, nb: usize) -> MachineModel {
    MachineModel::calibrated(
        nodes,
        CORES_PER_NODE,
        CORE_GFLOPS,
        nb,
        NET_GBYTES,
        NET_LATENCY,
    )
}

/// Simulated execution time (seconds) of GE2BND for an `m x n` matrix on
/// `nodes` nodes with the given tree and algorithm.
pub fn ge2bnd_sim_seconds(
    m: usize,
    n: usize,
    nb: usize,
    tree: NamedTree,
    algorithm: Algorithm,
    nodes: usize,
    grid: BlockCyclic,
) -> f64 {
    let p = m.div_ceil(nb);
    let q = n.div_ceil(nb);
    let cfg = if nodes <= 1 {
        GenConfig::shared(tree)
    } else {
        GenConfig::distributed(tree, grid)
    };
    let ops = ge2bnd_ops(p, q, algorithm, &cfg);
    let graph = build_sim_graph(&ops, q, &grid);
    let machine = paper_machine(nodes, nb);
    simulate(&graph, &machine).makespan
}

/// Simulated GE2BND rate (GFlop/s, BIDIAG normalisation).
pub fn ge2bnd_sim_gflops(
    m: usize,
    n: usize,
    nb: usize,
    tree: NamedTree,
    algorithm: Algorithm,
    nodes: usize,
    grid: BlockCyclic,
) -> f64 {
    let t = ge2bnd_sim_seconds(m, n, nb, tree, algorithm, nodes, grid);
    bidiag_core::flops::gflops(bidiag_core::flops::reporting_flops(m, n), t)
}

/// Simulated GE2VAL rate: GE2BND (parallel, simulated) followed by the
/// shared-memory BND2BD and BD2VAL stages executed on a single node, exactly
/// like the paper's implementation (the band is gathered on one node and the
/// remaining nodes stay idle).
pub fn ge2val_sim_gflops(
    m: usize,
    n: usize,
    nb: usize,
    tree: NamedTree,
    algorithm: Algorithm,
    nodes: usize,
    grid: BlockCyclic,
) -> f64 {
    let t1 = ge2bnd_sim_seconds(m, n, nb, tree, algorithm, nodes, grid);
    let t2 = bnd2bd_flops(n.min(m), nb) / (BND2BD_GFLOPS * 1.0e9);
    // BD2VAL is O(n^2) on the bidiagonal: negligible but accounted for.
    let t3 = 30.0 * (n.min(m) as f64).powi(2) / (BD2VAL_GFLOPS * 1.0e9);
    bidiag_core::flops::gflops(bidiag_core::flops::reporting_flops(m, n), t1 + t2 + t3)
}

/// The serial-bottleneck upper bound of the distributed GE2VAL rate
/// (the "Upper Bound (BND2VAL)" line of Figure 3): even with an infinitely
/// fast GE2BND, the serial BND2BD + BD2VAL stages cap the rate.
pub fn ge2val_upper_bound_gflops(m: usize, n: usize, nb: usize) -> f64 {
    let t2 = bnd2bd_flops(n.min(m), nb) / (BND2BD_GFLOPS * 1.0e9);
    let t3 = 30.0 * (n.min(m) as f64).powi(2) / (BD2VAL_GFLOPS * 1.0e9);
    bidiag_core::flops::gflops(bidiag_core::flops::reporting_flops(m, n), t2 + t3)
}

/// Print a TSV table: a header followed by one row per entry of `rows`.
pub fn print_tsv(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("# {title}");
    println!("{}", header.join("\t"));
    for r in rows {
        println!("{}", r.join("\t"));
    }
    println!();
}

/// Write a Chrome trace to `$BIDIAG_TRACE` if that variable is set.
///
/// Every fig/table binary calls this on exit, so any harness run can be
/// replayed in Perfetto (`ui.perfetto.dev`) without recompiling.  A write
/// failure is reported on stderr but never fails the run.
pub fn maybe_write_trace() {
    match bidiag_obs::write_trace_if_requested() {
        Ok(Some(path)) => eprintln!("trace written to {path} (open in ui.perfetto.dev)"),
        Ok(None) => {}
        Err(e) => eprintln!("warning: failed to write BIDIAG_TRACE: {e}"),
    }
}

/// One measured point of a real (wall-clock) thread-scaling run.
#[derive(Clone, Copy, Debug)]
pub struct ScalingPoint {
    /// Worker threads used.
    pub threads: usize,
    /// Best-of-`samples` wall time in seconds.
    pub seconds: f64,
    /// Speedup relative to the 1-thread run of the same sweep.
    pub speedup: f64,
    /// Parallel efficiency: `speedup / threads`.
    pub efficiency: f64,
}

/// Measure the *real* (not simulated) wall-clock scaling of the threaded
/// `ge2bnd` on an `m x n` latms matrix with a geometric spectrum
/// (cond 1e4, seed 7 — the BENCHMARKING.md reference input): run each
/// thread count in `threads` `samples` times and keep the best time.
/// `threads` must start with 1 (asserted) so every speedup is relative
/// to the single-thread run of the same sweep.
pub fn measure_ge2bnd_scaling(
    m: usize,
    n: usize,
    nb: usize,
    threads: &[usize],
    samples: usize,
) -> Vec<ScalingPoint> {
    use bidiag_core::pipeline::{ge2bnd, AlgorithmChoice, Ge2Options};
    assert_eq!(
        threads.first(),
        Some(&1),
        "threads must start with 1: speedups are relative to the 1-thread run of this sweep"
    );
    let (a, _) = bidiag_matrix::gen::latms(
        m,
        n,
        &bidiag_matrix::gen::SpectrumKind::Geometric { cond: 1.0e4 },
        7,
    );
    let opts = |t: usize| {
        Ge2Options::new(nb)
            .with_tree(NamedTree::Greedy)
            .with_algorithm(AlgorithmChoice::Bidiag)
            .with_threads(t)
    };
    // Warm up allocators and caches once before timing anything.
    let _ = ge2bnd(&a, &opts(1));

    let mut points = Vec::with_capacity(threads.len());
    let mut t1 = f64::NAN;
    for &t in threads {
        let mut best = f64::INFINITY;
        for _ in 0..samples.max(1) {
            let start = std::time::Instant::now();
            let r = ge2bnd(&a, &opts(t));
            let dt = start.elapsed().as_secs_f64();
            assert!(r.num_tasks > 0);
            best = best.min(dt);
        }
        if t == 1 {
            t1 = best;
        }
        let speedup = t1 / best; // t1 is set by the first (1-thread) pass
        points.push(ScalingPoint {
            threads: t,
            seconds: best,
            speedup,
            efficiency: speedup / t as f64,
        });
    }
    points
}

/// Wall-time split of one measured GE2VAL run (seconds per stage).
#[derive(Clone, Copy, Debug)]
pub struct StageTimes {
    /// GE2BND: dense to band bidiagonal (the tile-kernel DAG).
    pub ge2bnd: f64,
    /// BND2BD: band to bidiagonal (bulge chasing).
    pub bnd2bd: f64,
    /// BD2VAL: singular values of the bidiagonal (dqds).
    pub bd2val: f64,
}

impl StageTimes {
    /// Total pipeline time in seconds.
    pub fn total(&self) -> f64 {
        self.ge2bnd + self.bnd2bd + self.bd2val
    }

    /// Percentage share of one stage time of the total.
    pub fn share(&self, stage: f64) -> f64 {
        100.0 * stage / self.total().max(1e-12)
    }
}

/// Measure the wall-time split of the sequential GE2VAL pipeline
/// (GE2BND / BND2BD / BD2VAL) on the BENCHMARKING.md reference input (latms
/// with a geometric spectrum, cond 1e4, seed 7).  Each of `samples` runs is
/// one `ge2val` call under [`ScopedObs`](bidiag_obs::ScopedObs), and its
/// split is read off the task spans the one-thread call records: GE2BND
/// from the first kernel's start to the last kernel's end, then the
/// BND2BD and BD2VAL tasks, so the table times exactly what `ge2val` runs.
/// Returns the split of the run with the best total, a consistent snapshot
/// of one run rather than a mix of per-stage minima.
///
/// This is the breakdown that picks the next perf target.
pub fn measure_ge2val_stages(m: usize, n: usize, nb: usize, samples: usize) -> StageTimes {
    use bidiag_core::pipeline::{ge2val, AlgorithmChoice, Ge2Options};
    use bidiag_obs as obs;

    let (a, _) = bidiag_matrix::gen::latms(
        m,
        n,
        &bidiag_matrix::gen::SpectrumKind::Geometric { cond: 1.0e4 },
        7,
    );
    let opts = Ge2Options::new(nb)
        .with_tree(NamedTree::Greedy)
        .with_algorithm(AlgorithmChoice::Bidiag);
    // Warm up allocators and caches once before timing anything.
    let _ = ge2val(&a, &opts);

    let mut best = StageTimes {
        ge2bnd: f64::INFINITY,
        bnd2bd: 0.0,
        bd2val: 0.0,
    };
    for _ in 0..samples.max(1) {
        let scope = obs::ScopedObs::new();
        let sv = ge2val(&a, &opts).singular_values;
        // In task order: the kernels, then the chase, then dqds.
        let spans = scope.spans();
        assert_eq!(sv.len(), m.min(n));
        let [first, .., last, chase, solve] = spans[..] else {
            panic!("a traced ge2val records every task")
        };
        let tails = [chase.kind, solve.kind];
        assert_eq!(tails, [obs::KIND_BND2BD, obs::KIND_BD2VAL]);
        let seconds = |start: u64, end: u64| (end - start) as f64 * 1.0e-9;
        let split = StageTimes {
            ge2bnd: seconds(first.start_ns, last.end_ns),
            bnd2bd: seconds(chase.start_ns, chase.end_ns),
            bd2val: seconds(solve.start_ns, solve.end_ns),
        };
        if split.total() < best.total() {
            best = split;
        }
    }
    best
}

/// Print a measured thread-scaling sweep as a TSV table.
pub fn print_scaling_table(title: &str, points: &[ScalingPoint]) {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.threads.to_string(),
                format!("{:.1}", p.seconds * 1.0e3),
                format!("{:.2}", p.speedup),
                format!("{:.2}", p.efficiency),
            ]
        })
        .collect();
    print_tsv(
        title,
        &["threads", "time_ms", "speedup", "efficiency"],
        &rows,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_ts_wins_large_square_and_greedy_wins_small() {
        // The qualitative content of Figure 2 (top-left): on small square
        // matrices the trees with more parallelism (Greedy/FlatTT) beat
        // FlatTS; on large matrices FlatTS catches up thanks to its more
        // efficient kernels.
        let grid = BlockCyclic::single_node();
        let small_greedy = ge2bnd_sim_gflops(
            2_000,
            2_000,
            160,
            NamedTree::Greedy,
            Algorithm::Bidiag,
            1,
            grid,
        );
        let small_flatts = ge2bnd_sim_gflops(
            2_000,
            2_000,
            160,
            NamedTree::FlatTs,
            Algorithm::Bidiag,
            1,
            grid,
        );
        assert!(
            small_greedy > small_flatts,
            "{small_greedy} vs {small_flatts}"
        );
        let large_greedy = ge2bnd_sim_gflops(
            12_000,
            12_000,
            160,
            NamedTree::Greedy,
            Algorithm::Bidiag,
            1,
            grid,
        );
        let large_flatts = ge2bnd_sim_gflops(
            12_000,
            12_000,
            160,
            NamedTree::FlatTs,
            Algorithm::Bidiag,
            1,
            grid,
        );
        assert!(
            large_flatts > large_greedy,
            "{large_flatts} vs {large_greedy}"
        );
    }

    #[test]
    fn auto_is_near_best_everywhere() {
        let grid = BlockCyclic::single_node();
        for (m, n) in [(2_000usize, 2_000usize), (10_000, 10_000), (24_000, 2_000)] {
            let auto = ge2bnd_sim_gflops(
                m,
                n,
                160,
                NamedTree::Auto {
                    gamma: 2.0,
                    ncores: 24,
                },
                Algorithm::Bidiag,
                1,
                grid,
            );
            let best = [NamedTree::FlatTs, NamedTree::FlatTt, NamedTree::Greedy]
                .into_iter()
                .map(|t| ge2bnd_sim_gflops(m, n, 160, t, Algorithm::Bidiag, 1, grid))
                .fold(0.0_f64, f64::max);
            assert!(auto >= 0.85 * best, "{m}x{n}: auto {auto} vs best {best}");
        }
    }

    #[test]
    fn rbidiag_beats_bidiag_on_tall_skinny_rates() {
        let grid = BlockCyclic::single_node();
        let (m, n) = (40_000usize, 2_000usize);
        let b = ge2bnd_sim_gflops(m, n, 160, NamedTree::Greedy, Algorithm::Bidiag, 1, grid);
        let r = ge2bnd_sim_gflops(m, n, 160, NamedTree::Greedy, Algorithm::RBidiag, 1, grid);
        assert!(r > b, "R-BiDiag {r} should beat BiDiag {b} on tall-skinny");
    }

    #[test]
    fn upper_bound_dominates_ge2val() {
        let grid = BlockCyclic::single_node();
        let (m, n) = (8_000usize, 8_000usize);
        let ub = ge2val_upper_bound_gflops(m, n, 160);
        let ours = ge2val_sim_gflops(m, n, 160, NamedTree::Greedy, Algorithm::Bidiag, 1, grid);
        assert!(ub >= ours);
    }
}
