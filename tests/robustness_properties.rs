//! Property-based robustness tests of the hardened service plane: hostile
//! inputs (NaN / infinity / denormal) pushed through every fallible entry
//! point must come back as a typed [`SvdError`] or as finite singular
//! values — never as a panic, and never as a hang (every wait in this file
//! is bounded by [`SvdJob::wait_timeout`]).

use bidiag_repro::prelude::*;
use proptest::prelude::*;
use std::time::Duration;

/// A generous per-job deadline: these problems solve in microseconds, so a
/// deadline hit means a liveness bug, not a slow machine.
const DEADLINE: Duration = Duration::from_secs(30);

/// How the fuzzer corrupts one entry of an otherwise healthy matrix.
fn corrupt(a: &mut Matrix, kind: usize, row: usize, col: usize) -> bool {
    let (r, c) = (row % a.rows(), col % a.cols());
    match kind {
        0 => false, // healthy
        1 => {
            a.set(r, c, f64::NAN);
            true
        }
        2 => {
            a.set(r, c, f64::INFINITY);
            true
        }
        3 => {
            a.set(r, c, f64::NEG_INFINITY);
            true
        }
        // Denormals are finite: the solver must accept and survive them.
        _ => {
            a.set(r, c, 4.9e-324);
            false
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `try_ge2val` on corrupted matrices: non-finite entries are rejected
    /// as `NonFiniteInput`; finite (including denormal) entries produce
    /// finite spectra. No case may panic.
    #[test]
    fn try_ge2val_never_panics_on_hostile_input(
        m in 1usize..40,
        dn in 0usize..12,
        kind in 0usize..5,
        row in 0usize..64,
        col in 0usize..64,
        nb in 3usize..9,
        seed in 0u64..1000,
    ) {
        let n = (m - dn.min(m - 1)).max(1);
        let mut a = random_gaussian(m, n, seed);
        let poisoned = corrupt(&mut a, kind, row, col);
        match try_ge2val(&a, &Ge2Options::new(nb)) {
            Ok(result) => {
                prop_assert!(!poisoned, "non-finite input was accepted");
                prop_assert!(result.singular_values.iter().all(|v| v.is_finite()),
                    "non-finite spectrum from finite input");
            }
            Err(SvdError::NonFiniteInput { row, col, value }) => {
                prop_assert!(poisoned, "finite input rejected as non-finite");
                prop_assert!(!value.is_finite());
                prop_assert!(row < a.rows() && col < a.cols());
                prop_assert!(!a.get(row, col).is_finite());
            }
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
        }
    }

    /// The same contract through the batched session, with every wait
    /// bounded: submission either rejects the poison or yields a finite
    /// spectrum within the deadline.
    #[test]
    fn session_submit_never_panics_or_hangs_on_hostile_input(
        m in 1usize..48,
        dn in 0usize..12,
        kind in 0usize..5,
        row in 0usize..64,
        col in 0usize..64,
        seed in 0u64..1000,
    ) {
        let n = (m - dn.min(m - 1)).max(1);
        let mut a = random_gaussian(m, n, seed);
        let poisoned = corrupt(&mut a, kind, row, col);
        let session = SvdSession::new(2);
        match session.submit(&a) {
            Ok(job) => {
                prop_assert!(!poisoned, "non-finite input was admitted");
                let sv = job
                    .wait_timeout(DEADLINE)
                    .unwrap_or_else(|e| panic!("job failed: {e}"));
                prop_assert_eq!(sv.len(), m.min(n));
                prop_assert!(sv.iter().all(|v| v.is_finite()));
            }
            Err(SvdError::NonFiniteInput { .. }) => {
                prop_assert!(poisoned, "finite input rejected as non-finite");
            }
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
        }
    }
}

/// The memory-bound guarantee of bounded admission: ten thousand
/// submissions against a `max_in_flight = 32` session never hold more than
/// 32 live job graphs — blocking `submit` parks the submitter instead.
#[test]
fn ten_thousand_submissions_never_exceed_the_admission_bound() {
    const CAP: usize = 32;
    let session = SvdSession::with_config(
        Ge2Options::new(16)
            .with_threads(4)
            .with_direct_crossover(DIRECT_CROSSOVER),
        SessionConfig { max_in_flight: CAP },
    );
    let problems: Vec<Matrix> = (0..8u64).map(|i| random_gaussian(8, 8, 60 + i)).collect();
    let expected: Vec<Vec<f64>> = problems
        .iter()
        .map(|a| ge2val(a, session.options()).singular_values)
        .collect();
    let mut jobs = Vec::with_capacity(10_000);
    for i in 0..10_000usize {
        jobs.push((
            i % problems.len(),
            session.submit(&problems[i % problems.len()]).unwrap(),
        ));
    }
    assert!(
        session.in_flight_peak() <= CAP,
        "peak {} exceeded the cap {CAP}",
        session.in_flight_peak()
    );
    for (idx, job) in jobs {
        let sv = job.wait_timeout(DEADLINE).expect("job within deadline");
        assert_eq!(
            expected[idx], sv,
            "bounded admission changed the arithmetic"
        );
    }
}
