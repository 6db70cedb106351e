//! Fault-injection coverage of the hardened service plane: every
//! [`SvdError`] variant is produced by at least one test here, driven by
//! the `failpoint` shim's named sites in the runtime (`pool::body`,
//! `pool::admission`) or by malformed inputs at the boundary.
//!
//! Gated behind the `failpoints` cargo feature so the process-global
//! failpoint registry is only armed in the dedicated CI leg; within this
//! binary every test holds the `failpoint::scoped` lock whenever it may run
//! pool bodies (`scoped(&[])` where it arms nothing), so a `pool::body`
//! armed by one test cannot fire inside a sibling's pool — a threaded
//! per-call `ge2val` runs pool bodies too.  (What an injected body panic
//! does to such a call is checked in `thread_leak.rs`, the one binary that
//! can also count the threads it leaves behind.)

#![cfg(feature = "failpoints")]

use bidiag_core::batch::{AdmissionPolicy, SessionConfig, SvdSession};
use bidiag_core::pipeline::{ge2val, try_ge2bnd, try_ge2val, Ge2Options, DIRECT_CROSSOVER};
use bidiag_core::SvdError;
use bidiag_matrix::gen::random_gaussian;
use failpoint::FailAction;
use std::time::Duration;

fn small_session(threads: usize) -> SvdSession {
    SvdSession::with_options(
        Ge2Options::new(16)
            .with_threads(threads)
            .with_direct_crossover(DIRECT_CROSSOVER),
    )
}

#[test]
fn non_finite_input_is_rejected_at_every_entry_point() {
    let _quiet = failpoint::scoped(&[]);
    let mut a = random_gaussian(8, 8, 1);
    a.set(5, 1, f64::NEG_INFINITY);
    let opts = Ge2Options::new(8);
    assert!(matches!(
        try_ge2val(&a, &opts),
        Err(SvdError::NonFiniteInput { row: 5, col: 1, .. })
    ));
    let session = small_session(1);
    assert!(matches!(
        session.submit(&a),
        Err(SvdError::NonFiniteInput { row: 5, col: 1, .. })
    ));
}

#[test]
fn dimension_mismatch_names_the_violated_contract() {
    let _quiet = failpoint::scoped(&[]);
    let wide = random_gaussian(3, 9, 2);
    match try_ge2bnd(&wide, &Ge2Options::new(4)) {
        Err(SvdError::DimensionMismatch {
            context,
            rows: 3,
            cols: 9,
        }) => {
            assert!(context.contains("m >= n"), "{context}");
        }
        other => panic!("expected DimensionMismatch, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn injected_body_panic_surfaces_as_solver_failure_and_the_pool_survives() {
    let session = small_session(2);
    let a = random_gaussian(12, 12, 3);

    {
        let _guard = failpoint::scoped(&[(
            "pool::body",
            FailAction::Panic("injected kernel panic".into()),
        )]);
        let job = session.submit(&a).expect("finite input admits");
        match job.wait() {
            Err(SvdError::SolverFailure(msg)) => {
                assert!(msg.contains("injected kernel panic"), "{msg}");
            }
            other => panic!("expected SolverFailure, got {:?}", other.map(|_| ())),
        }
        assert!(failpoint::hits("pool::body") > 0, "site never fired");
    }

    // The poisoned submission is contained: the same pool keeps serving,
    // and its results are bitwise what per-call ge2val computes.
    let _quiet = failpoint::scoped(&[]);
    for seed in 4..8u64 {
        let b = random_gaussian(12, 12, seed);
        assert_eq!(
            ge2val(&b, session.options()).singular_values,
            session.submit(&b).unwrap().wait().unwrap(),
            "pool damaged after an injected panic (seed {seed})"
        );
    }
}

#[test]
fn full_bounded_session_sheds_with_queue_full() {
    let session = SvdSession::with_config(
        Ge2Options::new(16)
            .with_threads(1)
            .with_direct_crossover(DIRECT_CROSSOVER),
        SessionConfig {
            max_in_flight: 1,
            admission: AdmissionPolicy::Reject,
        },
    );
    let a = random_gaussian(8, 8, 10);
    let _guard =
        failpoint::scoped(&[("pool::body", FailAction::Delay(Duration::from_millis(400)))]);
    // The first job is admitted and holds the only slot while its body
    // sleeps at the injected delay.
    let first = session.submit(&a).expect("slot was free");
    match session.try_submit(&a) {
        Err(SvdError::QueueFull { max_in_flight: 1 }) => {}
        other => panic!("expected QueueFull, got {:?}", other.map(|_| ())),
    }
    // Blocking submit (the configured policy is Reject, so go through the
    // pool-level guarantee instead): once the delayed job drains, the slot
    // frees and submissions are accepted again.
    first.wait().expect("delayed job still completes");
    let second = session.try_submit(&a).expect("slot freed after drain");
    second.wait().expect("second job completes");
}

#[test]
fn admission_failpoint_forces_queue_full_without_load() {
    let session = small_session(1);
    let a = random_gaussian(8, 8, 11);
    let _guard = failpoint::scoped(&[("pool::admission", FailAction::Trigger)]);
    assert!(matches!(
        session.try_submit(&a),
        Err(SvdError::QueueFull { .. })
    ));
    assert!(failpoint::hits("pool::admission") > 0, "site never fired");
}

#[test]
fn cancelled_queued_job_reports_cancelled_and_frees_its_slot() {
    // One worker held busy by an injected delay; the job queued behind it
    // is cancelled before any of its bodies run.
    let session = small_session(1);
    let a = random_gaussian(8, 8, 12);
    let _guard =
        failpoint::scoped(&[("pool::body", FailAction::Delay(Duration::from_millis(400)))]);
    let blocker = session.submit(&a).unwrap();
    let victim = session.submit(&a).unwrap();
    victim.cancel();
    assert!(matches!(victim.wait(), Err(SvdError::Cancelled)));
    blocker.wait().expect("the blocker was never cancelled");
    // Slots drained: a fresh submission runs normally.
    session.submit(&a).unwrap().wait().expect("pool healthy");
}

#[test]
fn expired_deadline_reports_timed_out() {
    let session = small_session(1);
    let a = random_gaussian(8, 8, 13);
    let _guard =
        failpoint::scoped(&[("pool::body", FailAction::Delay(Duration::from_millis(400)))]);
    let job = session.submit(&a).unwrap();
    match job.wait_timeout(Duration::from_millis(20)) {
        Err(SvdError::TimedOut) => {}
        other => panic!("expected TimedOut, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn closed_session_reports_pool_shutdown() {
    let _quiet = failpoint::scoped(&[]);
    let session = small_session(1);
    session.close();
    let a = random_gaussian(8, 8, 14);
    assert!(matches!(session.submit(&a), Err(SvdError::PoolShutdown)));
}

#[test]
fn poison_panic_and_cancel_never_change_subsequent_arithmetic() {
    // The acceptance scenario end to end: a NaN request, an injected
    // panic and a cancellation hit the same session back to back; the
    // spectra it serves afterwards are bitwise per-call ge2val.
    let session = small_session(2);
    let mut poison = random_gaussian(10, 10, 20);
    poison.set(0, 0, f64::NAN);
    {
        let _quiet = failpoint::scoped(&[]);
        assert!(matches!(
            session.submit(&poison),
            Err(SvdError::NonFiniteInput { .. })
        ));
    }
    {
        let _guard = failpoint::scoped(&[("pool::body", FailAction::Panic("boom".into()))]);
        let job = session.submit(&random_gaussian(10, 10, 21)).unwrap();
        assert!(matches!(job.wait(), Err(SvdError::SolverFailure(_))));
    }
    {
        let _guard =
            failpoint::scoped(&[("pool::body", FailAction::Delay(Duration::from_millis(200)))]);
        let job = session.submit(&random_gaussian(10, 10, 22)).unwrap();
        job.cancel();
        let _ = job.wait(); // Cancelled or Ok depending on timing; both contained
    }
    let _quiet = failpoint::scoped(&[]);
    for (seed, n) in [(23u64, 8usize), (24, 33), (25, 72)] {
        let a = random_gaussian(n, n, seed);
        assert_eq!(
            ge2val(&a, session.options()).singular_values,
            session.submit(&a).unwrap().wait().unwrap(),
            "n={n}"
        );
    }
}
