//! The traced run: the same workload with `bidiag_obs` recording, in which
//! the benchmark itself calls each layer's public functions and records a
//! span around every call, so solve time nests into stages, stages into
//! the tile DAG plus overheads, and the tile DAG into per-kernel-kind time.
//!
//! Every per-layer metric of `BENCHMARK.json` is printed on every
//! workload; a metric whose layer the workload does not exercise reads 0.

use crate::contract::Better;
use crate::host::{self, HostWatch};
use crate::json::Json;
use crate::spans::Recorder;
use crate::stats::{best_rate, best_time, median, Summary};
use crate::workloads::{
    batch_options, batch_pass_inline, batch_pass_pingpong, batch_pass_windowed, batch_problems,
    is_disturbed, sample_json, setup_batch, setup_solve, BatchSetup, Plan, RunResult, Shape, Tally,
    Workload, NB, SPECTRUM_TOL,
};
use bidiag_core::batch::{SessionConfig, SvdSession};
use bidiag_core::drivers::{ge2bnd_ops, GenConfig};
use bidiag_core::exec::{
    bd2val_on_runtime, bnd2bd_on_runtime, build_graph, execute_parallel, execute_sequential,
};
use bidiag_core::pipeline::{ge2bnd, ge2val, Ge2Options};
use bidiag_core::{cp, flops, KernelScratch, TauTable, TileOp};
use bidiag_kernels::band::{bnd2bd_flops, bulge_wavefronts, BandMatrix};
use bidiag_kernels::gebd2::{gebd2, Bidiagonal};
use bidiag_kernels::KernelKind;
use bidiag_matrix::checks::singular_values_match;
use bidiag_matrix::gemm::{gemm_nn_scratch, gemm_tn_scratch, GemmScratch};
use bidiag_matrix::gen::random_gaussian;
use bidiag_matrix::{BlockCyclic, Matrix, TiledMatrix};
use bidiag_obs as obs;
use bidiag_runtime::TaskBody;
use bidiag_svd::{dqds_singular_values_with_stats, singular_values_with};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// The twelve tile kernels, with the span name and the metric stem of each.
pub const KERNELS: [(KernelKind, &str, &str); 12] = [
    (KernelKind::Geqrt, "kernels.geqrt", "geqrt"),
    (KernelKind::Unmqr, "kernels.unmqr", "unmqr"),
    (KernelKind::Tsqrt, "kernels.tsqrt", "tsqrt"),
    (KernelKind::Tsmqr, "kernels.tsmqr", "tsmqr"),
    (KernelKind::Ttqrt, "kernels.ttqrt", "ttqrt"),
    (KernelKind::Ttmqr, "kernels.ttmqr", "ttmqr"),
    (KernelKind::Gelqt, "kernels.gelqt", "gelqt"),
    (KernelKind::Unmlq, "kernels.unmlq", "unmlq"),
    (KernelKind::Tslqt, "kernels.tslqt", "tslqt"),
    (KernelKind::Tsmlq, "kernels.tsmlq", "tsmlq"),
    (KernelKind::Ttlqt, "kernels.ttlqt", "ttlqt"),
    (KernelKind::Ttmlq, "kernels.ttmlq", "ttmlq"),
];

/// Every per-layer metric, in print order: `(name, unit, direction)`.
pub fn layer_metrics() -> Vec<(String, &'static str, Better)> {
    use Better::{Higher, Lower};
    let mut v: Vec<(String, &'static str, Better)> = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: Better| {
        v.push((name.to_string(), unit, better));
    };
    add("core.ge2bnd_s", "s", Lower);
    add("core.bnd2bd_s", "s", Lower);
    add("core.bd2val_s", "s", Lower);
    add("core.stage_sum_ratio", "ratio", Lower);
    add("core.exec_dag_s", "s", Lower);
    add("core.ops_gen_s", "s", Lower);
    add("core.num_tasks", "count", Lower);
    add("core.gflops", "GFlop/s", Higher);
    add("core.speedup_vs_1t", "ratio", Higher);
    add("core.ge2bnd_speedup_vs_1t", "ratio", Higher);
    add("core.bnd2bd_speedup_vs_1t", "ratio", Higher);
    add("core.bd2val_speedup_vs_1t", "ratio", Higher);
    for (_, _, stem) in KERNELS {
        add(&format!("kernels.{stem}_ns"), "ns", Lower);
        add(&format!("kernels.{stem}_gflops"), "GFlop/s", Higher);
        add(&format!("kernels.{stem}_calls"), "count", Lower);
    }
    add("kernels.dag_predicted_s", "s", Lower);
    add("kernels.dag_predicted_ratio", "ratio", Lower);
    add("kernels.band_gflops", "GFlop/s", Higher);
    add("kernels.band_wavefronts", "count", Lower);
    add("kernels.gebd2_ns", "ns", Lower);
    add("matrix.gemm_nn_256_gflops", "GFlop/s", Higher);
    add("matrix.gemm_tn_64_gflops", "GFlop/s", Higher);
    add("matrix.tile_from_dense_s", "s", Lower);
    add("matrix.band_extract_s", "s", Lower);
    add("matrix.latms_s", "s", Lower);
    add("svd.dqds_s", "s", Lower);
    add("svd.dqds_passes", "count", Lower);
    add("svd.dqds_segments", "count", Lower);
    add("svd.fallback_values", "count", Lower);
    add("trees.cp_length", "nb3/3", Lower);
    add("trees.dag_parallelism", "ratio", Higher);
    add("runtime.graph_build_s", "s", Lower);
    add("runtime.empty_task_ns", "ns", Lower);
    add("runtime.ge2bnd_efficiency_2t", "ratio", Higher);
    add("runtime.tasks_executed", "count", Lower);
    add("runtime.steals", "count", Lower);
    add("runtime.parks", "count", Lower);
    add("runtime.idle_s", "s", Lower);
    add("session.create_s", "s", Lower);
    add("session.submit_ns", "ns", Lower);
    add("session.inline_compute_ns", "ns", Lower);
    add("session.pingpong_s", "s", Lower);
    add("session.handoff_ns", "ns", Lower);
    add("session.per_call_problems_per_s", "1/s", Higher);
    add("session.speedup_vs_per_call", "ratio", Higher);
    add("session.in_flight_peak", "count", Higher);
    add("session.queue_wait_p50_s", "s", Lower);
    add("session.compute_p50_s", "s", Lower);
    add("session.two_worker_problems_per_s", "1/s", Higher);
    add("session.mid_n128_problems_per_s", "1/s", Higher);
    add("obs.tracing_overhead_pct", "%", Lower);
    add("obs.spans_recorded", "count", Higher);
    add("diag.latency_p50_s", "s", Lower);
    add("diag.latency_p90_s", "s", Lower);
    add("diag.block_iqr_over_median", "ratio", Lower);
    add("host.steal_pct", "%", Lower);
    add("host.loadavg_1m", "load", Lower);
    add("host.nproc", "count", Higher);
    add("host.fma_peak_gflops", "GFlop/s", Higher);
    add("host.fma_scaling_2t", "ratio", Higher);
    v
}

/// The per-layer metric values of one run: every metric starts at 0 and a
/// name outside [`layer_metrics`] is a bug.
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn new() -> Self {
        Metrics(
            layer_metrics()
                .into_iter()
                .map(|(name, unit, _)| (name, 0.0, unit))
                .collect(),
        )
    }

    fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .iter_mut()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        slot.1 = value;
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
            .1
    }
}

/// Fastest duration of span `name`, or 0 when none was recorded.
fn span_best(rec: &Recorder, name: &str) -> f64 {
    let d = rec.durations(name);
    if d.is_empty() {
        0.0
    } else {
        best_time(&d)
    }
}

/// `a / b`, or 0 when the denominator was not measured.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Fastest seconds per call of `f`, called repeatedly for about `budget_s`.
fn time_boxed(budget_s: f64, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || start.elapsed().as_secs_f64() < budget_s {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    best_time(&samples)
}

/// Span names of one staged solve.
struct StageNames {
    solve: &'static str,
    ge2bnd: &'static str,
    bnd2bd: &'static str,
    bd2val: &'static str,
    apart: &'static str,
    exec_dag: &'static str,
}

/// Spans of the workload's own thread count.
const AT_WORKLOAD: StageNames = StageNames {
    solve: "solve",
    ge2bnd: "core.ge2bnd",
    bnd2bd: "core.bnd2bd",
    bd2val: "core.bd2val",
    apart: "core.ge2bnd_apart",
    exec_dag: "core.exec_dag",
};

/// Spans of the same calls at the other thread count (2 for a 1-thread
/// workload, 1 for a threaded one), which every cycle interleaves.
const AT_OTHER: StageNames = StageNames {
    solve: "solve@other",
    ge2bnd: "core.ge2bnd@other",
    bnd2bd: "core.bnd2bd@other",
    bd2val: "core.bd2val@other",
    apart: "core.ge2bnd_apart@other",
    exec_dag: "core.exec_dag@other",
};

/// `ge2val` stage by stage, exactly as `pipeline::ge2val` chains them, with
/// one span per stage under one solve span.
fn staged_solve(
    a: &Matrix,
    opts: &Ge2Options,
    rec: &mut Recorder,
    names: &StageNames,
) -> (Vec<f64>, Bidiagonal) {
    rec.next_solve();
    let solve = rec.begin(names.solve);
    let span = rec.begin(names.ge2bnd);
    let stage1 = ge2bnd(a, opts);
    rec.end(span);
    let span = rec.begin(names.bnd2bd);
    let mut band = stage1.band.clone();
    let bidiag = if opts.threads > 1 {
        bnd2bd_on_runtime(&mut band, opts.threads)
    } else {
        band.reduce_to_bidiagonal()
    };
    rec.end(span);
    let span = rec.begin(names.bd2val);
    let mut sv = if opts.threads > 1 {
        bd2val_on_runtime(&bidiag.diag, &bidiag.superdiag, opts.threads, &opts.bd2val)
    } else {
        singular_values_with(&bidiag.diag, &bidiag.superdiag, &opts.bd2val)
    };
    sv.sort_by(|x, y| y.total_cmp(x));
    rec.end(span);
    rec.end(solve);
    (sv, bidiag)
}

/// The tile grid and operation list `pipeline::ge2bnd` builds for an
/// `m x n` input under the default options.
struct Dag {
    p: usize,
    q: usize,
    ops: Vec<TileOp>,
    algorithm: bidiag_core::Algorithm,
    cfg: GenConfig,
}

impl Dag {
    fn of(m: usize, n: usize, opts: &Ge2Options) -> Dag {
        let (p, q) = (m.div_ceil(NB), n.div_ceil(NB));
        let algorithm = flops::select_by_flops(m, n);
        let cfg = GenConfig::shared(opts.tree);
        Dag {
            p,
            q,
            ops: ge2bnd_ops(p, q, algorithm, &cfg),
            algorithm,
            cfg,
        }
    }
}

/// `pipeline::ge2bnd` taken apart: tiling, operation list, the tile DAG,
/// band extraction — one span each under one `ge2bnd_apart` span.
fn ge2bnd_apart(a: &Matrix, threads: usize, dag: &Dag, rec: &mut Recorder, names: &StageNames) {
    rec.next_solve();
    let whole = rec.begin(names.apart);
    let span = rec.begin("matrix.tile_from_dense");
    let mut tiled = TiledMatrix::from_dense(a, NB);
    rec.end(span);
    let span = rec.begin("core.ops_gen");
    let ops = ge2bnd_ops(dag.p, dag.q, dag.algorithm, &dag.cfg);
    rec.end(span);
    let span = rec.begin(names.exec_dag);
    if threads > 1 {
        execute_parallel(&ops, &mut tiled, threads);
    } else {
        execute_sequential(&ops, &mut tiled);
    }
    rec.end(span);
    let span = rec.begin("matrix.band_extract");
    let bw = NB.min(a.cols().saturating_sub(1)).max(1);
    black_box(BandMatrix::from_dense(&tiled.extract_upper_band(bw), bw));
    rec.end(span);
    rec.end(whole);
}

/// The tile DAG run operation by operation on one thread (what
/// `exec::execute_sequential` does), with one span per kernel call.
/// Returns the seconds each kernel kind took in total, in [`KERNELS`] order.
fn kernel_loop(a: &Matrix, dag: &Dag, rec: &mut Recorder) -> [f64; KERNELS.len()] {
    rec.next_solve();
    let mut totals = [0.0; KERNELS.len()];
    let mut tiled = TiledMatrix::from_dense(a, NB);
    let taus = TauTable::for_ops(&dag.ops);
    let mut scratch = KernelScratch::for_tile(NB);
    let whole = rec.begin("kernels.dag");
    for (op_id, op) in dag.ops.iter().enumerate() {
        let kind = op.kernel();
        let slot = KERNELS.iter().position(|(k, _, _)| *k == kind);
        let t0 = rec.now_ns();
        op.execute(op_id, &mut tiled, &taus, &mut scratch);
        let t1 = rec.now_ns();
        rec.leaf(slot.map_or("kernels.laset", |i| KERNELS[i].1), t0, t1);
        if let Some(i) = slot {
            totals[i] += (t1 - t0) as f64 * 1e-9;
        }
    }
    rec.end(whole);
    black_box(tiled);
    totals
}

/// GFlop/s of one `n^3` GEMM shape, from the fastest call.
fn gemm_gflops(n: usize, transposed_a: bool) -> f64 {
    let a = random_gaussian(n, n, 11);
    let b = random_gaussian(n, n, 12);
    let mut c = Matrix::zeros(n, n);
    let mut scratch = GemmScratch::new();
    let per_call = time_boxed(0.15, || {
        // A small alpha keeps the accumulating C bounded over the calls.
        let mut cv = c.as_view_mut();
        if transposed_a {
            gemm_tn_scratch(&mut cv, 1e-3, a.as_view(), b.as_view(), &mut scratch);
        } else {
            gemm_nn_scratch(&mut cv, 1e-3, a.as_view(), b.as_view(), &mut scratch);
        }
    });
    black_box(&c);
    2.0 * (n as f64).powi(3) / per_call / 1e9
}

/// Metrics that do not depend on the workload: GEMM rates and the FMA peak.
fn host_and_gemm(out: &mut Metrics, smoke: bool) {
    out.set("matrix.gemm_nn_256_gflops", gemm_gflops(256, false));
    out.set("matrix.gemm_tn_64_gflops", gemm_gflops(64, true));
    let budget = if smoke { 0.05 } else { 0.3 };
    let rate = host::fma_rate(budget);
    out.set("host.fma_peak_gflops", rate.peak);
    out.set("host.fma_scaling_2t", host::fma_scaling_2t(budget, rate));
}

/// Latencies sampled through the traced run: the library call with
/// `bidiag_obs` off and on (what the stages must sum to, and the tracing
/// overhead), and the quantity the untraced run reports as latency.
struct Reference {
    untraced: Vec<f64>,
    traced: Vec<f64>,
    latency: Vec<f64>,
}

/// Traced run of a solve workload.
fn traced_solve(
    (m, n, threads): (usize, usize, usize),
    seed: u64,
    plan: &Plan,
    rec: &mut Recorder,
    out: &mut Metrics,
    tally: &mut Tally,
) -> Reference {
    let s = setup_solve(m, n, threads, seed, tally);
    let (a, want, opts) = (&s.input, &s.expected, s.opts);
    let other = if threads > 1 { 1 } else { 2 };
    let opts_other = opts.with_threads(other);
    let dag = Dag::of(m, n, &opts);
    out.set("matrix.latms_s", s.latms_s);

    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut bidiag = None;
    let mut kind_totals: Vec<Vec<f64>> = vec![Vec::new(); KERNELS.len()];
    s.timed_solve(tally);
    let start = Instant::now();
    while !plan.done(start, untraced.len()) {
        // The library call with tracing off, then on: their difference is
        // the tracing overhead, and the first is what the stages must sum to.
        obs::set_enabled(false);
        untraced.push(s.timed_solve(tally));
        obs::set_enabled(true);
        traced.push(s.timed_solve(tally));
        let (sv, b) = staged_solve(a, &opts, rec, &AT_WORKLOAD);
        tally.check(sv == *want);
        bidiag.get_or_insert(b);
        ge2bnd_apart(a, threads, &dag, rec, &AT_WORKLOAD);
        // The same input at the other thread count, in the same interval,
        // so the speed-ups compare like with like.
        let (sv, _) = staged_solve(a, &opts_other, rec, &AT_OTHER);
        tally.check(sv == *want);
        ge2bnd_apart(a, other, &dag, rec, &AT_OTHER);
        for (samples, total) in kind_totals.iter_mut().zip(kernel_loop(a, &dag, rec)) {
            samples.push(total);
        }
    }

    let latency = best_time(&untraced);
    let stage = |name: &str| span_best(rec, name);
    let (ge2bnd_s, bnd2bd_s, bd2val_s) = (
        stage("core.ge2bnd"),
        stage("core.bnd2bd"),
        stage("core.bd2val"),
    );
    out.set("core.ge2bnd_s", ge2bnd_s);
    out.set("core.bnd2bd_s", bnd2bd_s);
    out.set("core.bd2val_s", bd2val_s);
    out.set(
        "core.stage_sum_ratio",
        (ge2bnd_s + bnd2bd_s + bd2val_s) / latency,
    );
    out.set("core.exec_dag_s", stage("core.exec_dag"));
    out.set("core.ops_gen_s", stage("core.ops_gen"));
    out.set("core.num_tasks", dag.ops.len() as f64);
    out.set(
        "core.gflops",
        flops::gflops(flops::reporting_flops(m, n), latency),
    );
    let (one, two) = if threads > 1 {
        (&AT_OTHER, &AT_WORKLOAD)
    } else {
        (&AT_WORKLOAD, &AT_OTHER)
    };
    let speedup = |of: fn(&StageNames) -> &'static str| ratio(stage(of(one)), stage(of(two)));
    out.set("core.speedup_vs_1t", speedup(|names| names.solve));
    out.set("core.ge2bnd_speedup_vs_1t", speedup(|names| names.ge2bnd));
    out.set("core.bnd2bd_speedup_vs_1t", speedup(|names| names.bnd2bd));
    out.set("core.bd2val_speedup_vs_1t", speedup(|names| names.bd2val));
    let (exec_1t, bnd2bd_1t) = (stage(one.exec_dag), stage(one.bnd2bd));
    out.set(
        "runtime.ge2bnd_efficiency_2t",
        ratio(exec_1t, 2.0 * stage(two.exec_dag)),
    );

    // Kernels: per-kind time measured inside the workload's own DAG.  The
    // time per call is the kind's total over one DAG run divided by its
    // calls, so calls x time adds back up to the DAG.
    let mut predicted = 0.0;
    for ((kind, _, stem), totals) in KERNELS.iter().zip(&kind_totals) {
        let calls = dag.ops.iter().filter(|op| op.kernel() == *kind).count();
        out.set(&format!("kernels.{stem}_calls"), calls as f64);
        if calls > 0 {
            let total = best_time(totals);
            let per_call = total / calls as f64;
            out.set(&format!("kernels.{stem}_ns"), per_call * 1e9);
            out.set(
                &format!("kernels.{stem}_gflops"),
                kind.flops(NB) / per_call / 1e9,
            );
            predicted += total;
        }
    }
    out.set("kernels.dag_predicted_s", predicted);
    out.set("kernels.dag_predicted_ratio", ratio(exec_1t, predicted));
    let bw = NB.min(n.saturating_sub(1)).max(1);
    out.set(
        "kernels.band_gflops",
        ratio(bnd2bd_flops(n, bw) / 1e9, bnd2bd_1t),
    );
    out.set(
        "kernels.band_wavefronts",
        bulge_wavefronts(n, bw).len() as f64,
    );
    out.set("matrix.tile_from_dense_s", stage("matrix.tile_from_dense"));
    out.set("matrix.band_extract_s", stage("matrix.band_extract"));

    // BD2VAL alone, on the workload's own bidiagonal.
    let bidiag = bidiag.expect("at least one traced cycle ran");
    let mut stats = Default::default();
    let span = rec.begin("svd.dqds");
    out.set(
        "svd.dqds_s",
        time_boxed(0.1, || {
            stats = dqds_singular_values_with_stats(&bidiag.diag, &bidiag.superdiag).1;
        }),
    );
    rec.end(span);
    out.set("svd.dqds_passes", stats.passes as f64);
    out.set("svd.dqds_segments", stats.segments as f64);
    out.set("svd.fallback_values", stats.fallback_values as f64);

    // The DAG as the trees and the runtime see it.
    let span = rec.begin("runtime.graph_build");
    let mut graph = build_graph(&dag.ops, dag.q, &BlockCyclic::single_node());
    out.set(
        "runtime.graph_build_s",
        time_boxed(0.05, || {
            graph = build_graph(&dag.ops, dag.q, &BlockCyclic::single_node());
        }),
    );
    rec.end(span);
    let cp_length = cp::measured_cp(dag.algorithm, opts.tree, dag.p, dag.q);
    out.set("trees.cp_length", cp_length);
    out.set(
        "trees.dag_parallelism",
        ratio(graph.total_weight(), cp_length),
    );
    let span = rec.begin("runtime.empty_tasks");
    let per_run = time_boxed(0.2, || {
        let bodies: Vec<TaskBody> = (0..graph.len())
            .map(|_| Box::new(|| {}) as TaskBody)
            .collect();
        bidiag_runtime::execute_parallel(&graph, bodies, 2);
    });
    rec.end(span);
    out.set("runtime.empty_task_ns", per_run * 1e9 / graph.len() as f64);
    Reference {
        latency: untraced.clone(),
        untraced,
        traced,
    }
}

/// Traced run of the batch workload.
fn traced_batch(
    (problems, dim, window): (usize, usize, usize),
    seed: u64,
    plan: &Plan,
    rec: &mut Recorder,
    out: &mut Metrics,
    tally: &mut Tally,
) -> Reference {
    let s: BatchSetup = setup_batch(problems, dim, seed, tally);
    out.set("matrix.latms_s", median(&s.latms_s));
    let per_call_opts = batch_options(1);

    let mut untraced_rates = Vec::new();
    let mut untraced_pingpong = Vec::new();
    let mut traced_pingpong = Vec::new();
    let mut submit_s = Vec::new();
    let mut inline_s = Vec::new();
    let mut per_call_rates = Vec::new();
    let mut inline_out = Vec::with_capacity(dim);
    let mut pass = Vec::with_capacity(problems);
    batch_pass_windowed(&s, window, None, tally);
    let start = Instant::now();
    while !plan.done(start, untraced_rates.len()) {
        rec.next_solve();
        obs::set_enabled(false);
        let dt = batch_pass_windowed(&s, window, None, tally);
        untraced_rates.push(problems as f64 / dt);
        // Per pass, the median over its problems (they differ); across
        // passes, the fastest (the passes repeat the same work).
        untraced_pingpong.push(batch_pass_pingpong(&s, tally));
        obs::set_enabled(true);
        let span = rec.begin("session.pass_windowed");
        pass.clear();
        batch_pass_windowed(&s, window, Some(&mut pass), tally);
        submit_s.push(median(&pass));
        rec.end(span);
        let span = rec.begin("session.pass_pingpong");
        traced_pingpong.push(batch_pass_pingpong(&s, tally));
        rec.end(span);
        // The same problems solved on the calling thread through the
        // session, then by plain per-call `ge2val` without a session.
        let span = rec.begin("session.pass_inline");
        inline_s.push(batch_pass_inline(&s, &mut inline_out, tally));
        rec.end(span);
        let span = rec.begin("core.pass_per_call");
        let t0 = Instant::now();
        for (a, want) in s.problems.iter().zip(&s.expected) {
            tally.check(ge2val(a, &per_call_opts).singular_values == *want);
        }
        per_call_rates.push(problems as f64 / t0.elapsed().as_secs_f64());
        rec.end(span);
    }

    let rate = best_rate(&untraced_rates);
    let pingpong = best_time(&untraced_pingpong);
    let inline = best_time(&inline_s);
    out.set("core.gflops", flops::reporting_flops(dim, dim) * rate / 1e9);
    out.set("session.create_s", s.create_s);
    out.set("session.submit_ns", best_time(&submit_s) * 1e9);
    out.set("session.inline_compute_ns", inline * 1e9);
    out.set("session.pingpong_s", pingpong);
    out.set("session.handoff_ns", (pingpong - inline) * 1e9);
    let per_call = best_rate(&per_call_rates);
    out.set("session.per_call_problems_per_s", per_call);
    out.set("session.speedup_vs_per_call", rate / per_call);
    out.set("session.in_flight_peak", s.session.in_flight_peak() as f64);
    let registry = obs::registry().snapshot();
    out.set(
        "session.queue_wait_p50_s",
        registry.queue_wait.quantile(0.5) * 1e-9,
    );
    out.set(
        "session.compute_p50_s",
        registry.compute.quantile(0.5) * 1e-9,
    );

    // Informational: a second worker (three runnable threads on two CPUs
    // here), and mid-size problems above the direct crossover.
    let probe_budget = if plan.smoke { 0.05 } else { 0.4 };
    let span = rec.begin("session.two_workers");
    let two = BatchSetup {
        session: SvdSession::with_config(batch_options(2), SessionConfig::default()),
        problems: s.problems,
        expected: s.expected,
        latms_s: Vec::new(),
        create_s: 0.0,
    };
    let per_pass = time_boxed(probe_budget, || {
        batch_pass_windowed(&two, window, None, tally);
    });
    out.set(
        "session.two_worker_problems_per_s",
        problems as f64 / per_pass,
    );
    rec.end(span);
    let span = rec.begin("session.mid_n128");
    let mid_dim = if plan.smoke { 96 } else { 128 };
    let (mid, sigmas, _) = batch_problems(8, mid_dim, seed);
    let per_pass = time_boxed(probe_budget, || {
        let jobs: Vec<_> = mid.iter().map(|a| s.session.submit(a)).collect();
        for (job, sigma) in jobs.into_iter().zip(&sigmas) {
            let reply = job.and_then(bidiag_core::SvdJob::wait);
            tally.check(reply.is_ok_and(|sv| singular_values_match(&sv, sigma, SPECTRUM_TOL)));
        }
    });
    out.set(
        "session.mid_n128_problems_per_s",
        mid.len() as f64 / per_pass,
    );
    rec.end(span);

    // The two layers under the session, alone: scalar bidiagonalization and
    // dqds, problem by problem.
    let span = rec.begin("kernels.gebd2+svd.dqds");
    let mut gebd2_s = Vec::with_capacity(problems);
    let mut dqds_s = Vec::with_capacity(problems);
    let (mut passes, mut segments, mut fallback) = (0, 0, 0);
    for a in &two.problems {
        let mut work = a.clone();
        let t0 = Instant::now();
        let b = gebd2(&mut work);
        gebd2_s.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let (sv, stats) = dqds_singular_values_with_stats(&b.diag, &b.superdiag);
        dqds_s.push(t0.elapsed().as_secs_f64());
        black_box(sv);
        passes += stats.passes;
        segments += stats.segments;
        fallback += stats.fallback_values;
    }
    rec.end(span);
    out.set("kernels.gebd2_ns", median(&gebd2_s) * 1e9);
    out.set("svd.dqds_s", median(&dqds_s));
    out.set("svd.dqds_passes", passes as f64);
    out.set("svd.dqds_segments", segments as f64);
    out.set("svd.fallback_values", fallback as f64);
    Reference {
        untraced: untraced_pingpong,
        traced: traced_pingpong,
        latency: inline_s,
    }
}

/// The traced run of workload `w`.  Writes the benchmark's spans to
/// `trace_out` as Chrome-trace JSON when a path is given.
pub fn run_traced(w: &Workload, seed: u64, plan: &Plan, trace_out: Option<&Path>) -> RunResult {
    let watch = HostWatch::start();
    let before = obs::registry().snapshot();
    let mut rec = Recorder::new();
    let mut out = Metrics::new();
    let mut tally = Tally::default();
    // A traced cycle is several solves long: a handful of cycles is the
    // floor, not the ten blocks of the untraced run.
    let plan = Plan {
        min_blocks: 5,
        ..*plan
    };
    let reference = match plan.shape(w) {
        Shape::Solve { m, n, threads } => {
            traced_solve((m, n, threads), seed, &plan, &mut rec, &mut out, &mut tally)
        }
        Shape::Batch {
            problems,
            dim,
            window,
        } => traced_batch(
            (problems, dim, window),
            seed,
            &plan,
            &mut rec,
            &mut out,
            &mut tally,
        ),
    };
    host_and_gemm(&mut out, plan.smoke);
    obs::set_enabled(false);

    let after = obs::registry().snapshot();
    out.set(
        "runtime.tasks_executed",
        (after.tasks_executed - before.tasks_executed) as f64,
    );
    out.set("runtime.steals", (after.steals - before.steals) as f64);
    out.set("runtime.parks", (after.parks - before.parks) as f64);
    out.set(
        "runtime.idle_s",
        (after.idle_ns - before.idle_ns) as f64 * 1e-9,
    );
    let untraced = best_time(&reference.untraced);
    out.set(
        "obs.tracing_overhead_pct",
        100.0 * (best_time(&reference.traced) - untraced) / untraced,
    );
    out.set("obs.spans_recorded", obs::snapshot_spans().len() as f64);
    let latency = Summary::of(&reference.latency);
    out.set("diag.latency_p50_s", latency.median);
    out.set("diag.latency_p90_s", latency.p90);
    out.set("diag.block_iqr_over_median", latency.iqr_over_median());
    let host = watch.finish();
    out.set("host.steal_pct", host.steal_pct);
    out.set("host.loadavg_1m", host.load_after[0]);
    out.set("host.nproc", host.nproc as f64);

    let stage_sum_ratio = out.get("core.stage_sum_ratio");
    let nests = stage_sum_ratio == 0.0 || (0.9..=1.1).contains(&stage_sum_ratio);
    if !nests {
        eprintln!(
            "WARNING: {}: stages sum to {stage_sum_ratio:.3} of the untraced solve, outside [0.9, 1.1]",
            w.name
        );
    }
    let self_s = Json::Obj(
        rec.self_seconds_by_name()
            .into_iter()
            .map(|(name, s)| (name.to_string(), Json::Num(s)))
            .collect(),
    );
    let mut detail = Json::obj()
        .with("latency_s", sample_json(&reference.latency))
        .with("stages_nest", nests)
        .with("benchmark_spans", rec.spans().len())
        .with("self_seconds_by_span", self_s);
    if let Some(path) = trace_out {
        match std::fs::write(path, rec.chrome_trace()) {
            Ok(()) => detail.set("trace_file", path.display().to_string().as_str()),
            Err(e) => eprintln!("could not write trace to {}: {e}", path.display()),
        }
    }
    RunResult {
        tally,
        metrics: out.0,
        detail,
        host,
        disturbed: is_disturbed(&host, latency.iqr_over_median()),
    }
}
