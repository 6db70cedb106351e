//! Worker threads do not outlive their [`SvdSession`], nor the threaded
//! [`ge2val`] call whose task graph runs on a pool built for the call.
//!
//! The check counts the threads of the whole process in
//! `/proc/self/status`, so it lives in a binary of its own: keep it to one
//! test, or sibling tests spawning pools of their own move the count.

use bidiag_core::batch::SvdSession;
use bidiag_core::pipeline::{ge2val, Ge2Options};
use bidiag_matrix::gen::random_gaussian;

#[test]
fn session_drop_and_recreate_does_not_leak_threads() {
    fn thread_count() -> usize {
        let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
        status
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .and_then(|v| v.trim().parse().ok())
            .expect("Threads: line")
    }
    let before = thread_count();
    for round in 0..5u64 {
        let session = SvdSession::new(3);
        let a = random_gaussian(40, 30, round);
        let _ = session.submit(&a).unwrap().wait().unwrap();
        drop(session);
        // Above the direct crossover (off by default): one one-shot pool
        // for the call's task graph, gone when the call returns.
        let threaded = Ge2Options::new(8).with_threads(3);
        let sv = ge2val(&a, &threaded).singular_values;
        // The same when a body panics (failpoints leg): the pool contains
        // the panic, joins its workers, and only then does the call panic.
        #[cfg(feature = "failpoints")]
        {
            let two = threaded.with_threads(2);
            let armed = failpoint::scoped(&[(
                "pool::body",
                failpoint::FailAction::Panic("injected".into()),
            )]);
            let panic = std::panic::catch_unwind(|| ge2val(&a, &two))
                .expect_err("the body panic must reach the caller");
            drop(armed);
            let msg = panic.downcast_ref::<String>().expect("a message");
            assert!(msg.contains("injected"), "{msg}");
            // Nothing of the failed run lingers in the next one.
            assert_eq!(ge2val(&a, &two).singular_values, sv);
        }
        assert_eq!(ge2val(&a, &threaded.with_threads(1)).singular_values, sv);
    }
    // Every pool joined its workers on drop: back to the baseline.
    assert_eq!(
        thread_count(),
        before,
        "worker threads leaked across session lifetimes"
    );
}
