//! A miniature "embedding service": one long-lived [`SvdSession`] serving a
//! stream of small SVD requests of mixed sizes, the workload the persistent
//! batched runtime was built for — now running the hardened service plane:
//!
//! * **Bounded admission.**  The session is created with a small
//!   [`SessionConfig::max_in_flight`] window; the service loop uses
//!   [`SvdSession::try_submit`] and *sheds* requests with
//!   [`SvdError::QueueFull`] instead of queueing unboundedly (a shed
//!   request would be retried or rerouted by a real front-end).
//! * **Per-request deadlines.**  Every harvest goes through
//!   [`SvdJob::wait_timeout`]; a request that overruns its budget is
//!   cancelled and counted, not waited on forever.
//! * **Poison containment.**  A request carrying NaN (a corrupted upstream
//!   feature vector) is rejected at submission with
//!   [`SvdError::NonFiniteInput`] — the shared pool never sees it, and the
//!   service keeps answering the healthy traffic.
//!
//! Prints per-request latency percentiles (p50/p99) from the observability
//! plane's latency histogram, the sustained throughput, the
//! shed/rejected/deadline counters, and the full metrics snapshot at exit.
//! Set `BIDIAG_TRACE=/tmp/service.json` to also get a Perfetto-loadable
//! trace of the run.
//!
//! Run with: `cargo run --release --example embedding_service`

use bidiag_repro::obs;
use bidiag_repro::prelude::*;
use std::time::{Duration, Instant};

fn main() {
    // The service measures itself through the observability plane: the pool
    // records queue-wait/compute/latency per submission, shed requests, and
    // the in-flight peak.
    obs::set_enabled(true);
    let threads = std::thread::available_parallelism().map_or(1, |c| c.get());
    // A service-sized admission window: big enough to keep the workers fed,
    // small enough that a burst cannot pile up unbounded job graphs.
    let window = (4 * threads).max(8);
    let session = SvdSession::with_config(
        Ge2Options::new(64)
            .with_threads(threads)
            .with_direct_crossover(DIRECT_CROSSOVER),
        SessionConfig {
            max_in_flight: window,
        },
    );

    // The request mix: covariance/Gram-sized problems a feature service
    // would see — mostly small, a few above the direct-path crossover.
    let sizes = [16usize, 24, 32, 48, 64, 96];
    let pool: Vec<Matrix> = sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| random_gaussian(n, n, 7 + i as u64))
        .collect();
    // One corrupted request: a NaN smuggled into an otherwise fine matrix.
    let poison = {
        let mut a = pool[0].clone();
        a.set(3, 3, f64::NAN);
        a
    };
    let requests = 2_000usize;
    let deadline = Duration::from_secs(5);
    println!(
        "serving {requests} requests of sizes {sizes:?} on one SvdSession \
         ({threads} thread(s), window {window}, crossover at {DIRECT_CROSSOVER})"
    );

    // Warm the arenas so the measured stream is steady-state, then clear
    // the warmup's samples out of the registry.
    for a in &pool {
        let sv = session.submit(a).unwrap().wait().unwrap();
        assert!(!sv.is_empty());
    }
    obs::registry().reset();

    let mut inflight: Vec<SvdJob> = Vec::with_capacity(window);
    let mut answered = 0usize;
    let mut shed = 0usize;
    let mut rejected = 0usize;
    let mut timed_out = 0usize;
    let harvest = |inflight: &mut Vec<SvdJob>, answered: &mut usize, timed_out: &mut usize| {
        for job in inflight.drain(..) {
            match job.wait_timeout(deadline) {
                Ok(sv) => {
                    *answered += 1;
                    assert!(sv[0] >= *sv.last().unwrap());
                }
                Err(SvdError::TimedOut) => *timed_out += 1,
                Err(e) => panic!("request failed: {e}"),
            }
        }
    };

    let t0 = Instant::now();
    for r in 0..requests {
        // Every 500th request is the poisoned one; it must bounce off the
        // submission boundary without disturbing the session.
        if r % 500 == 250 {
            match session.try_submit(&poison) {
                Err(SvdError::NonFiniteInput { row, col, .. }) => {
                    rejected += 1;
                    assert_eq!((row, col), (3, 3));
                }
                other => panic!("poison was admitted: {:?}", other.map(|_| ())),
            }
        }
        let a = &pool[r % pool.len()];
        match session.try_submit(a) {
            Ok(job) => inflight.push(job),
            // Window full: shed this request and drain the backlog, like a
            // load balancer retrying against another replica.
            Err(SvdError::QueueFull { .. }) => {
                shed += 1;
                harvest(&mut inflight, &mut answered, &mut timed_out);
            }
            Err(e) => panic!("submission failed: {e}"),
        }
        if inflight.len() == window {
            harvest(&mut inflight, &mut answered, &mut timed_out);
        }
    }
    harvest(&mut inflight, &mut answered, &mut timed_out);
    let elapsed = t0.elapsed().as_secs_f64();

    // Percentiles come from the registry's log2-bucketed latency histogram
    // (submission to completion, queue wait included), recorded by the pool
    // itself rather than by per-request stopwatches in the service loop.
    let snap = obs::registry().snapshot();
    let us = |ns: f64| ns / 1.0e3;
    println!(
        "latency: p50 {:.0} us, p99 {:.0} us, max {:.0} us (window of {window} in flight)",
        us(snap.latency.quantile(0.50)),
        us(snap.latency.quantile(0.99)),
        us(snap.latency.max as f64)
    );
    println!(
        "queue wait: p99 {:.0} us (mean {:.0} us) of {:.0} us mean latency",
        us(snap.queue_wait.quantile(0.99)),
        us(snap.queue_wait.mean()),
        us(snap.latency.mean())
    );
    println!(
        "throughput: {:.0} problems/s ({answered} answered in {:.2} s)",
        answered as f64 / elapsed,
        elapsed
    );
    println!(
        "robustness: {rejected} poisoned request(s) rejected, {shed} shed on backpressure, \
         {timed_out} past the {deadline:?} deadline; peak in flight {} <= {window}",
        session.in_flight_peak()
    );
    println!("--- metrics snapshot ---\n{snap}");
    assert!(rejected > 0, "the poisoned requests never arrived");
    assert!(session.in_flight_peak() <= window);
    assert_eq!(answered + shed, requests, "requests lost");
    assert_eq!(
        snap.shed_submissions, shed as u64,
        "shed accounting drifted"
    );
    // Timed-out jobs are cancelled but still drain through the pool, so
    // their completion may land after the snapshot: lower-bound only.
    assert!(snap.latency.count >= answered as u64);
    if let Some(path) = obs::write_trace_if_requested().expect("trace written") {
        println!("trace written to {path} (open in ui.perfetto.dev)");
    }
}
