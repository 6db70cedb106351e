//! The four workloads: what each one is, how its inputs are generated from
//! the seed, how set-up verifies them, and the untraced measurement that
//! yields the end-to-end metrics.
//!
//! The library is used with its defaults everywhere (`Ge2Options::new(64)`:
//! GREEDY tree, automatic BIDIAG/R-BIDIAG choice, dqds); only the thread
//! count and the shape of the input differ between workloads.

use crate::host::{self, HostRecord, HostWatch};
use crate::json::Json;
use crate::stats::{best_rate, best_time, median, Summary};
use bidiag_core::batch::{SessionConfig, SvdSession};
use bidiag_core::pipeline::{ge2val, Ge2Options, DIRECT_CROSSOVER};
use bidiag_matrix::checks::singular_values_match;
use bidiag_matrix::gen::{latms, SpectrumKind};
use bidiag_matrix::Matrix;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Tile size of every workload (the workspace-wide default).
pub const NB: usize = 64;
/// Accuracy (relative to the largest singular value) every distinct input
/// must reach against its LATMS-prescribed spectrum at set-up.
pub const SPECTRUM_TOL: f64 = 1e-10;
/// A reply that takes longer than this counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

/// Shape of a workload's inputs and how they are submitted.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Shape {
    /// One client calling `ge2val` on `m x n` matrices, one call at a time.
    Solve {
        /// Rows.
        m: usize,
        /// Columns.
        n: usize,
        /// `Ge2Options::threads`.
        threads: usize,
    },
    /// One client feeding `problems` square matrices of order `dim` to an
    /// `SvdSession` with one worker, `window` of them in flight.
    Batch {
        /// Problems per pass.
        problems: usize,
        /// Matrix order.
        dim: usize,
        /// Problems in flight in the throughput phase.
        window: usize,
    },
}

/// One named workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it is in the benchmark (one line, as in `BENCHMARK.json`).
    pub why: &'static str,
    /// Shape at full size.
    pub full: Shape,
    /// Shape at `--smoke` size: same code paths, toy dimensions.
    pub smoke: Shape,
    /// Listed in `BENCHMARK.json`, so the driver holds its end-to-end
    /// metrics to their bounds.  A workload that is not is run by `--all`,
    /// `--smoke` and `--aa` like the others.
    pub gated: bool,
}

/// The workloads, in the order `--all` runs them.  `square_2t` is not gated:
/// a solve at 2 threads parks and wakes a worker thousands of times, what
/// that costs is the hypervisor's doing, and on this host it moved the whole
/// distribution from 0.35 s to 0.47 s and back within the hour.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "square_1t",
        why: "768x768 at 1 thread: BIDIAG on a 12x12 tile grid, QR and LQ kernels in equal number, all three stages sequential; the plain single-threaded baseline",
        full: Shape::Solve {
            m: 768,
            n: 768,
            threads: 1,
        },
        smoke: Shape::Solve {
            m: 192,
            n: 192,
            threads: 1,
        },
        gated: true,
    },
    Workload {
        name: "tall_1t",
        why: "8192x256 at 1 thread: Auto picks R-BIDIAG, QR-side TT kernels are over 90% of the time, LQ kernels and BND2BD barely run; an LQ-only or band-only change must not move it",
        full: Shape::Solve {
            m: 8192,
            n: 256,
            threads: 1,
        },
        smoke: Shape::Solve {
            m: 1024,
            n: 128,
            threads: 1,
        },
        gated: true,
    },
    Workload {
        name: "square_2t",
        why: "the square_1t inputs at 2 threads: all three stages on the work-stealing runtime; scheduler, parking and wavefront-granularity work shows here and nowhere else",
        full: Shape::Solve {
            m: 768,
            n: 768,
            threads: 2,
        },
        smoke: Shape::Solve {
            m: 192,
            n: 192,
            threads: 2,
        },
        gated: false,
    },
    Workload {
        name: "batch_small",
        why: "1024 problems of 32x32 through one SvdSession: 256 in flight on one pool worker, then one at a time inline; no tile kernels, GEMM or DAG: TaskPool, admission, arenas, gebd2 and dqds do all the work",
        full: Shape::Batch {
            problems: 1024,
            dim: 32,
            window: 256,
        },
        smoke: Shape::Batch {
            problems: 64,
            dim: 32,
            window: 16,
        },
        gated: true,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How long each phase of a run lasts.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Measured phase, seconds.
    pub seconds: f64,
    /// Time (the first set-up included) before the measured phase, seconds.
    pub warmup_s: f64,
    /// In-process repetitions of set-up, at least: the first opens the run,
    /// the others are spread evenly over the measured phase, so that they
    /// do not all fall into one episode of interference.  `setup_s` is the
    /// fastest of them.
    pub setup_reps: usize,
    /// The measured phase also lasts until it holds this many blocks.
    pub min_blocks: usize,
    /// Toy sizes.
    pub smoke: bool,
    /// Test hook: damage the verified spectra after set-up, so every timed
    /// comparison must fail.
    pub corrupt_expected: bool,
}

impl Plan {
    /// Full-size plan measuring for `seconds`.
    pub fn full(seconds: f64) -> Plan {
        Plan {
            seconds,
            warmup_s: 3.0,
            setup_reps: 5,
            min_blocks: 10,
            smoke: false,
            corrupt_expected: false,
        }
    }

    /// Toy plan of `--smoke`: well under two seconds per run.
    pub fn smoke() -> Plan {
        Plan {
            seconds: 0.4,
            warmup_s: 0.1,
            setup_reps: 2,
            min_blocks: 5,
            smoke: true,
            corrupt_expected: false,
        }
    }

    /// The shape `w` runs at under this plan.
    pub fn shape(&self, w: &Workload) -> Shape {
        if self.smoke {
            w.smoke
        } else {
            w.full
        }
    }

    /// True once a measured phase that began at `start` may stop: the time
    /// is up and the block floor is met (or three times the time has gone,
    /// so a slow host cannot stretch a run without limit).
    pub fn done(&self, start: Instant, blocks: usize) -> bool {
        let elapsed = start.elapsed().as_secs_f64();
        elapsed >= self.seconds && (blocks >= self.min_blocks || elapsed >= 3.0 * self.seconds)
    }

    /// Set-up repetitions of a run whose first set-up took `first_s`: as
    /// many as fit into a sixth of the measured phase, `setup_reps` at
    /// least and twenty at most.
    pub fn setup_reps_for(&self, first_s: f64) -> usize {
        ((self.seconds / 6.0 / first_s) as usize).clamp(self.setup_reps, 20)
    }

    /// True when the measured phase that began at `start` owes another
    /// set-up repetition, `done` of `reps` having run: repetition `k` is
    /// due `k / reps` of the way through.
    pub fn setup_due(&self, start: Instant, done: usize, reps: usize) -> bool {
        done < reps && start.elapsed().as_secs_f64() >= self.seconds * done as f64 / reps as f64
    }
}

/// Operations attempted and failed (an error, a wrong result or a timeout).
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Operations whose result was checked.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Count one operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// The verified input of a solve workload.  One matrix: every seed
/// prescribes the same spectrum, so a pool of them would repeat the same
/// work, and the fastest repetition is what a run reports.
pub struct SolveSetup {
    /// The input matrix.
    pub input: Matrix,
    /// Its spectrum as first computed and verified against LATMS; every
    /// later result must equal it bit for bit.
    pub expected: Vec<f64>,
    /// Options of every call.
    pub opts: Ge2Options,
    /// Time of the `latms` call.
    pub latms_s: f64,
}

impl SolveSetup {
    /// One `ge2val` call timed from call to verified result.
    pub fn timed_solve(&self, tally: &mut Tally) -> f64 {
        let t0 = Instant::now();
        let sv = ge2val(&self.input, &self.opts).singular_values;
        let ok = sv == self.expected;
        let dt = t0.elapsed().as_secs_f64();
        tally.check(ok);
        dt
    }
}

/// Everything a solve workload pays before steady state: generate the
/// input, build the options, solve it once and verify the result against
/// the prescribed spectrum.
pub fn setup_solve(m: usize, n: usize, threads: usize, seed: u64, tally: &mut Tally) -> SolveSetup {
    let opts = Ge2Options::new(NB).with_threads(threads);
    let t0 = Instant::now();
    let (input, sigma) = latms(m, n, &SpectrumKind::Geometric { cond: 1e6 }, seed);
    let latms_s = t0.elapsed().as_secs_f64();
    let expected = ge2val(&input, &opts).singular_values;
    tally.check(
        expected.len() == sigma.len() && singular_values_match(&expected, &sigma, SPECTRUM_TOL),
    );
    SolveSetup {
        input,
        expected,
        opts,
        latms_s,
    }
}

/// The verified inputs of the batch workload and the session serving them.
pub struct BatchSetup {
    /// The problems of one pass.
    pub problems: Vec<Matrix>,
    /// Verified spectrum of each problem.
    pub expected: Vec<Vec<f64>>,
    /// One worker, default admission, direct crossover on.
    pub session: SvdSession,
    /// Time of each `latms` call.
    pub latms_s: Vec<f64>,
    /// Time of `SvdSession::with_config`.
    pub create_s: f64,
}

/// Options of the batch session: the library's batched defaults
/// (what `SvdSession::new(workers)` uses).
pub fn batch_options(workers: usize) -> Ge2Options {
    Ge2Options::new(NB)
        .with_threads(workers)
        .with_direct_crossover(DIRECT_CROSSOVER)
}

/// Spectrum kinds the batch problems cycle through, so dqds sees variety.
fn batch_spectrum(i: usize) -> SpectrumKind {
    match i % 4 {
        0 => SpectrumKind::Geometric { cond: 1e6 },
        1 => SpectrumKind::Arithmetic { cond: 1e3 },
        2 => SpectrumKind::OneLarge { cond: 1e3 },
        _ => SpectrumKind::Uniform,
    }
}

/// Generate `count` batch problems of order `dim` and their prescribed
/// spectra, timing each `latms` call.
pub fn batch_problems(
    count: usize,
    dim: usize,
    seed: u64,
) -> (Vec<Matrix>, Vec<Vec<f64>>, Vec<f64>) {
    let mut problems = Vec::with_capacity(count);
    let mut sigmas = Vec::with_capacity(count);
    let mut latms_s = Vec::with_capacity(count);
    for i in 0..count {
        let t0 = Instant::now();
        let (a, sigma) = latms(dim, dim, &batch_spectrum(i), seed + i as u64);
        latms_s.push(t0.elapsed().as_secs_f64());
        problems.push(a);
        sigmas.push(sigma);
    }
    (problems, sigmas, latms_s)
}

/// Everything the batch workload pays before steady state: generate the
/// problems, start the session, solve each problem once through it
/// (`submit_batch`, which admission keeps at 256 in flight) and verify it
/// against its prescribed spectrum.
pub fn setup_batch(count: usize, dim: usize, seed: u64, tally: &mut Tally) -> BatchSetup {
    let (problems, sigmas, latms_s) = batch_problems(count, dim, seed);
    let t0 = Instant::now();
    let session = SvdSession::with_config(batch_options(1), SessionConfig::default());
    let create_s = t0.elapsed().as_secs_f64();
    let mut expected = Vec::with_capacity(count);
    let mut jobs = session
        .submit_batch(&problems)
        .unwrap_or_default()
        .into_iter();
    for sigma in &sigmas {
        // A rejected batch leaves no jobs: every problem then counts as failed.
        let sv = jobs
            .next()
            .and_then(|job| job.wait_timeout(REPLY_TIMEOUT).ok())
            .unwrap_or_default();
        tally.check(sv.len() == sigma.len() && singular_values_match(&sv, sigma, SPECTRUM_TOL));
        expected.push(sv);
    }
    BatchSetup {
        problems,
        expected,
        session,
        latms_s,
        create_s,
    }
}

/// Damage every verified spectrum (the `--corrupt-expected` test hook).
pub fn corrupt(expected: &mut [Vec<f64>]) {
    for sv in expected {
        if let Some(first) = sv.first_mut() {
            *first = f64::from_bits(first.to_bits() ^ 1);
        }
    }
}

/// One throughput pass: every problem once, `window` in flight, each reply
/// compared bitwise to its verified spectrum.  Returns the pass wall time;
/// with `submit_s` given, also times every `submit` call into it.
pub fn batch_pass_windowed(
    s: &BatchSetup,
    window: usize,
    mut submit_s: Option<&mut Vec<f64>>,
    tally: &mut Tally,
) -> f64 {
    let t0 = Instant::now();
    let mut in_flight = VecDeque::with_capacity(window);
    let mut reap = |(i, job): (usize, Result<bidiag_core::SvdJob, bidiag_core::SvdError>)| {
        let reply = job.and_then(|j| j.wait_timeout(REPLY_TIMEOUT));
        tally.check(reply.is_ok_and(|sv| sv == s.expected[i]));
    };
    for (i, a) in s.problems.iter().enumerate() {
        if in_flight.len() == window {
            reap(in_flight.pop_front().expect("window is full"));
        }
        let job = match submit_s.as_deref_mut() {
            None => s.session.submit(a),
            Some(samples) => {
                let t = Instant::now();
                let job = s.session.submit(a);
                samples.push(t.elapsed().as_secs_f64());
                job
            }
        };
        in_flight.push_back((i, job));
    }
    in_flight.into_iter().for_each(&mut reap);
    t0.elapsed().as_secs_f64()
}

/// One latency pass: every problem once through `SvdSession::compute_into`
/// (solved on the calling thread from a pooled arena, the session's entry
/// point for one small problem), each timed from call to verified result.
/// Returns the median over the problems, which differ in their spectra.
///
/// The hand-off to the pool worker is deliberately not in this number:
/// `submit` then `wait` costs two thread wake-ups per problem, which on
/// this virtual machine took anywhere from 64 us to 150 us per problem
/// depending on the hour.  The traced run reports it
/// (`session.pingpong_s`, `session.handoff_ns`).
pub fn batch_pass_inline(s: &BatchSetup, out: &mut Vec<f64>, tally: &mut Tally) -> f64 {
    one_at_a_time(s, tally, |a, expected| {
        s.session.compute_into(a, out).is_ok() && out == expected
    })
}

/// Every problem once, one after the other, each timed through `solve`
/// (which says whether the result was right).  Returns the median time.
fn one_at_a_time(
    s: &BatchSetup,
    tally: &mut Tally,
    mut solve: impl FnMut(&Matrix, &Vec<f64>) -> bool,
) -> f64 {
    let mut latencies = Vec::with_capacity(s.problems.len());
    for (a, expected) in s.problems.iter().zip(&s.expected) {
        let t0 = Instant::now();
        let ok = solve(a, expected);
        latencies.push(t0.elapsed().as_secs_f64());
        tally.check(ok);
    }
    median(&latencies)
}

/// One ping-pong pass: every problem once, one in flight (`submit` then
/// `wait`), each timed from submit to verified reply.  Returns the median
/// over the problems.
pub fn batch_pass_pingpong(s: &BatchSetup, tally: &mut Tally) -> f64 {
    one_at_a_time(s, tally, |a, expected| {
        let reply = s
            .session
            .submit(a)
            .and_then(|job| job.wait_timeout(REPLY_TIMEOUT));
        reply.is_ok_and(|sv| sv == *expected)
    })
}

/// Result of one run, traced or not.
pub struct RunResult {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// The metrics of the result line: `(name, value, unit)`.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Distributions and host readings behind the metrics.
    pub detail: Json,
    /// Host readings over the run.
    pub host: HostRecord,
    /// Steal above 2 % or block spread above 0.10: reported, never hidden.
    pub disturbed: bool,
}

/// JSON form of a sample: its [`Summary`] and the values themselves, so
/// that any other estimator can be tried on a recorded run.
pub fn sample_json(samples: &[f64]) -> Json {
    let s = Summary::of(samples);
    Json::obj()
        .with("n", s.n)
        .with("min", s.min)
        .with("p10", s.p10)
        .with("q1", s.q1)
        .with("median", s.median)
        .with("q3", s.q3)
        .with("p90", s.p90)
        .with("max", s.max)
        .with("iqr_over_median", s.iqr_over_median())
        .with(
            "values",
            Json::Arr(samples.iter().map(|&x| Json::Num(x)).collect()),
        )
}

/// JSON form of a [`HostRecord`].
pub fn host_json(h: &HostRecord) -> Json {
    let loads = |l: [f64; 3]| Json::Arr(l.iter().map(|&x| Json::Num(x)).collect());
    Json::obj()
        .with("steal_pct", h.steal_pct)
        .with("loadavg_before", loads(h.load_before))
        .with("loadavg_after", loads(h.load_after))
        .with("nproc", h.nproc)
}

/// A run is disturbed when the hypervisor stole more than 2 % of the CPU
/// time or the blocks spread by more than a tenth of their median.
pub fn is_disturbed(host: &HostRecord, block_iqr_over_median: f64) -> bool {
    host.steal_pct > 2.0 || block_iqr_over_median > 0.10
}

/// Run `setup` and push the time it took onto `samples`.
fn timed_setup<T>(samples: &mut Vec<f64>, setup: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let state = setup();
    samples.push(t0.elapsed().as_secs_f64());
    state
}

/// The untraced run of workload `w`: set-up, warm-up, then the measured
/// phase cut into fixed-work blocks, with the remaining set-up repetitions
/// spread over it.  Every timing is the fastest of its repetitions and
/// throughput the highest over blocks (see [`crate::stats::best_time`] for
/// why not the median).
pub fn run_untraced(w: &Workload, seed: u64, plan: &Plan) -> RunResult {
    let watch = HostWatch::start();
    let begun = Instant::now();
    let mut tally = Tally::default();
    let mut setup_samples = Vec::with_capacity(plan.setup_reps);
    let (latencies, rates) = match plan.shape(w) {
        Shape::Solve { m, n, threads } => {
            let setup = |tally: &mut Tally| {
                let mut s = setup_solve(m, n, threads, seed, tally);
                if plan.corrupt_expected {
                    corrupt(std::slice::from_mut(&mut s.expected));
                }
                s
            };
            let mut s = timed_setup(&mut setup_samples, || setup(&mut tally));
            let reps = plan.setup_reps_for(setup_samples[0]);
            // Warm-up: untimed solves until `warmup_s` has passed since the
            // process began (the first set-up counts).
            while begun.elapsed().as_secs_f64() < plan.warmup_s {
                s.timed_solve(&mut tally);
            }
            let start = Instant::now();
            let mut latencies = Vec::new();
            while !plan.done(start, latencies.len()) {
                if plan.setup_due(start, setup_samples.len(), reps) {
                    // The old state is freed first: the memory peak must be
                    // that of one set-up.
                    drop(s);
                    s = timed_setup(&mut setup_samples, || setup(&mut tally));
                }
                latencies.push(s.timed_solve(&mut tally));
            }
            let rates: Vec<f64> = latencies.iter().map(|t| 1.0 / t).collect();
            (latencies, rates)
        }
        Shape::Batch {
            problems,
            dim,
            window,
        } => {
            let setup = |tally: &mut Tally| {
                let mut s = setup_batch(problems, dim, seed, tally);
                if plan.corrupt_expected {
                    corrupt(&mut s.expected);
                }
                s
            };
            let mut s = timed_setup(&mut setup_samples, || setup(&mut tally));
            let reps = plan.setup_reps_for(setup_samples[0]);
            let mut out = Vec::with_capacity(dim);
            while begun.elapsed().as_secs_f64() < plan.warmup_s {
                batch_pass_windowed(&s, window, None, &mut tally);
                batch_pass_inline(&s, &mut out, &mut tally);
            }
            // The two phases alternate pass by pass, so both sample the
            // whole measured interval and see the same host conditions.
            let start = Instant::now();
            let mut rates = Vec::new();
            let mut latency_medians = Vec::new();
            while !plan.done(start, rates.len()) {
                if plan.setup_due(start, setup_samples.len(), reps) {
                    drop(s);
                    s = timed_setup(&mut setup_samples, || setup(&mut tally));
                }
                let dt = batch_pass_windowed(&s, window, None, &mut tally);
                rates.push(problems as f64 / dt);
                latency_medians.push(batch_pass_inline(&s, &mut out, &mut tally));
            }
            (latency_medians, rates)
        }
    };
    let (latency, rate) = (Summary::of(&latencies), Summary::of(&rates));
    let host = watch.finish();
    let block_spread = latency.iqr_over_median().max(rate.iqr_over_median());
    let metrics = vec![
        ("problems_per_s".to_string(), best_rate(&rates), "1/s"),
        ("latency_min_s".to_string(), best_time(&latencies), "s"),
        ("setup_s".to_string(), best_time(&setup_samples), "s"),
        ("peak_rss_mib".to_string(), host::peak_rss_mib(), "MiB"),
    ];
    let detail = Json::obj()
        .with("latency_s", sample_json(&latencies))
        .with("problems_per_s", sample_json(&rates))
        .with("setup_s", sample_json(&setup_samples))
        .with("block_iqr_over_median", block_spread);
    RunResult {
        tally,
        metrics,
        detail,
        host,
        disturbed: is_disturbed(&host, block_spread),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_repetitions_fill_a_sixth_of_the_run_within_their_limits() {
        let plan = Plan::full(40.0);
        // 40 s / 6 = 6.7 s: four set-ups of 1.3 s fit, the floor is five.
        assert_eq!(plan.setup_reps_for(1.3), 5);
        assert_eq!(plan.setup_reps_for(0.8), 8);
        assert_eq!(plan.setup_reps_for(0.25), 20);
        assert_eq!(Plan::smoke().setup_reps_for(0.05), 2);
    }

    #[test]
    fn setup_repetitions_are_due_evenly_over_the_measured_phase() {
        let plan = Plan::full(1000.0);
        let start = Instant::now();
        // The first repetition opened the run; the second is due a fifth of
        // the way through, not at the start.
        assert!(!plan.setup_due(start, 1, 5));
        assert!(plan.setup_due(start, 0, 5));
        assert!(!plan.setup_due(start, 5, 5));
    }

    #[test]
    fn the_ungated_workload_is_the_threaded_one() {
        let ungated: Vec<_> = WORKLOADS.iter().filter(|w| !w.gated).collect();
        assert_eq!(ungated.len(), 1);
        assert_eq!(ungated[0].name, "square_2t");
    }
}
