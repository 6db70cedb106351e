//! The session's direct path in gangs, end to end: a 256-in-flight
//! windowed pass over 1 024 mixed direct-path problems (the benchmark's
//! `batch_small` shape, with every size, shape and spectrum below the
//! crossover) returns per-call `ge2val`'s spectra bit for bit at 1, 2 and 4
//! workers, and the metrics registry shows gangs of more than one formed.
//!
//! One test in its own binary: the registry is process-global, so no other
//! test may submit while this one counts. CI also runs it optimised, where
//! the workers keep up with the submitter less often.

use bidiag_core::batch::{SessionConfig, SvdSession};
use bidiag_core::pipeline::{ge2val, Ge2Options, DIRECT_CROSSOVER};
use bidiag_matrix::gen::{latms, random_gaussian, SpectrumKind};
use bidiag_matrix::Matrix;
use bidiag_obs as obs;
use std::collections::VecDeque;

const PROBLEMS: usize = 1024;
const WINDOW: usize = 256;

/// Problem `i`: square, tall and wide, from 1 x 1 to the crossover, over
/// the benchmark's four spectra and random Gaussian matrices.
fn problem(i: usize) -> Matrix {
    let n = 1 + (i * 37) % DIRECT_CROSSOVER;
    let m = match i % 3 {
        0 => n,
        1 => (n + i % 17).min(DIRECT_CROSSOVER),
        _ => (n / 2).max(1),
    };
    let seed = i as u64;
    match i % 5 {
        0 => latms(m, n, &SpectrumKind::Geometric { cond: 1e6 }, seed).0,
        1 => latms(m, n, &SpectrumKind::Arithmetic { cond: 1e3 }, seed).0,
        2 => latms(m, n, &SpectrumKind::OneLarge { cond: 1e3 }, seed).0,
        3 => latms(m, n, &SpectrumKind::Uniform, seed).0,
        _ => random_gaussian(m, n, seed),
    }
}

#[test]
fn windowed_gangs_are_per_call_ge2val_bitwise_at_one_two_and_four_workers() {
    let _scope = obs::ScopedObs::new();
    let opts = |threads| {
        Ge2Options::new(64)
            .with_threads(threads)
            .with_direct_crossover(DIRECT_CROSSOVER)
    };
    let problems: Vec<Matrix> = (0..PROBLEMS).map(problem).collect();
    assert!(problems
        .iter()
        .all(|a| opts(1).takes_direct_path(a.rows(), a.cols())));
    let expected: Vec<Vec<f64>> = problems
        .iter()
        .map(|a| ge2val(a, &opts(1)).singular_values)
        .collect();

    for threads in [1, 2, 4] {
        let session = SvdSession::with_config(opts(threads), SessionConfig::default());
        let before = obs::registry().snapshot();
        let mut in_flight = VecDeque::with_capacity(WINDOW);
        let mut reap = |(i, job): (usize, bidiag_core::SvdJob)| {
            assert_eq!(
                job.wait().unwrap(),
                expected[i],
                "{threads} workers, problem {i}"
            );
        };
        for (i, a) in problems.iter().enumerate() {
            if in_flight.len() == WINDOW {
                reap(in_flight.pop_front().expect("the window is full"));
            }
            in_flight.push_back((i, session.submit(a).unwrap()));
        }
        in_flight.into_iter().for_each(&mut reap);
        let after = obs::registry().snapshot();
        let gangs = after.direct_gangs - before.direct_gangs;
        let jobs = after.direct_gang_jobs - before.direct_gang_jobs;
        assert_eq!(jobs, PROBLEMS as u64, "{threads} workers");
        assert!(gangs < jobs, "{threads} workers: no gang of more than one");
    }
}
