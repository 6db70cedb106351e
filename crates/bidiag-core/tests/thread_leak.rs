//! Worker threads do not outlive their [`SvdSession`].
//!
//! The check counts the threads of the whole process in
//! `/proc/self/status`, so it lives in a binary of its own: keep it to one
//! test, or sibling tests spawning pools of their own move the count.

use bidiag_core::batch::SvdSession;
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
    }
    // Every pool joined its workers on drop: back to the baseline.
    assert_eq!(
        thread_count(),
        before,
        "worker threads leaked across session lifetimes"
    );
}
