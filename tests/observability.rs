//! Integration tests of the observability plane (PR 10).
//!
//! Every test takes a [`ScopedObs`] guard: scopes serialize all
//! observability tests across threads (the span rings and the metrics
//! registry are process-global), force recording on, and filter spans to
//! those recorded inside the scope.
//!
//! The headline test closes the paper's loop: a threaded GE2BND reference
//! run is traced, the recorded spans are reattached to the task DAG, and
//! the measured longest dependent chain must equal the Section IV model's
//! chain — made deterministic by the executor's record-before-release
//! invariant (`end[pred] <= start[succ]` on every edge).

use bidiag_repro::core::cp;
use bidiag_repro::core::exec::build_graph;
use bidiag_repro::obs;
use bidiag_repro::prelude::*;
use bidiag_repro::runtime::validate_trace;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The reference GE2BND problem: m = 64, n = 48, nb = 16 (p = 4, q = 3
/// tiles), greedy tree — the same shape the kernels bench gates on.
const M: usize = 64;
const N: usize = 48;
const NB: usize = 16;
const P: usize = 4;
const Q: usize = 3;

fn reference_matrix() -> Matrix {
    latms(M, N, &SpectrumKind::Geometric { cond: 1.0e4 }, 7).0
}

fn reference_opts(threads: usize) -> Ge2Options {
    Ge2Options::new(NB)
        .with_tree(NamedTree::Greedy)
        .with_algorithm(AlgorithmChoice::Bidiag)
        .with_threads(threads)
}

/// Kernel-task spans (tags 0..=12) of the single executor run inside the
/// scope, sorted by start time.
fn kernel_spans(scope: &ScopedObs) -> Vec<Span> {
    let spans: Vec<Span> = scope.spans().into_iter().filter(|s| s.kind <= 12).collect();
    let subs: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.submission).collect();
    assert_eq!(
        subs.len(),
        1,
        "expected exactly one traced run, got {subs:?}"
    );
    spans
}

#[test]
fn concurrent_ring_writers_produce_no_torn_spans_and_bounded_rings() {
    let _scope = ScopedObs::new();
    const WRITERS: usize = 4;
    const PER_WRITER: usize = 3 * obs::RING_CAPACITY; // force overwrite-oldest

    // A tag no recorder in this binary uses: the rings may still hold the
    // kernel spans (tags 0..=12) of a test that ran before this one.
    const SYNTHETIC_KIND: u32 = 999;
    let stop = Arc::new(AtomicBool::new(false));
    // Rings held by threads outside this test (e.g. other test threads that
    // recorded before blocking on the scope lock and have not exited yet).
    let held_elsewhere = obs::ring_count() - obs::idle_rings();

    // A span is torn iff its fields violate the writer's invariants:
    // end = start + 7777 and submission = worker << 32 | task.
    let check = |s: &Span| {
        if s.kind != SYNTHETIC_KIND {
            return; // span from another recorder (an earlier test's kernels)
        }
        assert_eq!(s.end_ns, s.start_ns.wrapping_add(7777), "torn span {s:?}");
        assert_eq!(
            s.submission,
            ((s.worker as u64) << 32) | s.task as u64,
            "torn span {s:?}"
        );
    };

    let run_wave = || {
        // All writers pass a barrier before recording, so every wave has
        // exactly WRITERS concurrently-recording threads — the ring demand
        // is deterministic, not scheduler-dependent.
        let barrier = std::sync::Barrier::new(WRITERS);
        let barrier = &barrier;
        std::thread::scope(|sc| {
            for w in 0..WRITERS {
                sc.spawn(move || {
                    barrier.wait();
                    for i in 0..PER_WRITER {
                        let start = (w * PER_WRITER + i) as u64;
                        obs::record_span(Span {
                            submission: ((w as u64) << 32) | i as u64,
                            task: i as u32,
                            kind: SYNTHETIC_KIND,
                            worker: w as u32,
                            start_ns: start,
                            end_ns: start + 7777,
                        });
                    }
                });
            }
            // Concurrent readers must never observe a torn span while the
            // writers overwrite their rings.
            let reader_stop = Arc::clone(&stop);
            sc.spawn(move || {
                while !reader_stop.load(Ordering::Relaxed) {
                    for s in obs::snapshot_spans() {
                        check(&s);
                    }
                }
            });
            for s in obs::snapshot_spans() {
                check(&s);
            }
            stop.store(true, Ordering::Relaxed);
        });
        stop.store(false, Ordering::Relaxed);
    };

    // A ring is returned by its owner's thread-local destructor, which can
    // run slightly after the thread becomes joinable — poll until the
    // wave's rings are actually back on the free list before proceeding.
    let wait_for_returns = || {
        let t0 = std::time::Instant::now();
        while obs::ring_count() - obs::idle_rings() > held_elsewhere {
            assert!(
                t0.elapsed().as_secs() < 5,
                "rings were not returned on thread exit"
            );
            std::thread::yield_now();
        }
    };
    // Waves of fresh threads must reuse retired rings: across any number
    // of waves, ring memory stays bounded by the peak number of
    // *concurrent* recorders (at most WRITERS new rings ever), not by the
    // total number of threads spawned (3 * WRITERS here).
    let initial_rings = obs::ring_count();
    for _ in 0..3 {
        run_wave();
        wait_for_returns();
        assert!(
            obs::ring_count() <= initial_rings + WRITERS,
            "rings grew past peak concurrency: {} -> {}",
            initial_rings,
            obs::ring_count()
        );
    }
    // And the final snapshot holds only stable, untorn spans.
    for s in obs::snapshot_spans() {
        check(&s);
    }
}

#[test]
fn ge2bnd_spans_are_complete_and_well_nested_per_worker() {
    let scope = ScopedObs::new();
    let a = reference_matrix();
    let result = ge2bnd(&a, &reference_opts(4));

    let spans = kernel_spans(&scope);
    assert_eq!(
        spans.len(),
        result.num_tasks,
        "spans recorded != tasks executed"
    );

    // Workers execute serially, so each worker's spans must be disjoint in
    // time (well-nested degenerates to non-overlap for flat task spans).
    let mut by_worker: std::collections::BTreeMap<u32, Vec<Span>> = Default::default();
    for s in spans {
        assert!(s.end_ns >= s.start_ns, "negative-duration span {s:?}");
        by_worker.entry(s.worker).or_default().push(s);
    }
    for (worker, mut ws) in by_worker {
        ws.sort_by_key(|s| s.start_ns);
        for pair in ws.windows(2) {
            assert!(
                pair[1].start_ns >= pair[0].end_ns,
                "overlapping spans on worker {worker}: {pair:?}"
            );
        }
    }
}

#[test]
fn measured_critical_path_matches_section_iv_model() {
    // On a pool of four, and task by task on the calling thread.
    for threads in [4, 1] {
        measured_critical_path_matches_section_iv_model_at(threads);
    }
}

fn measured_critical_path_matches_section_iv_model_at(threads: usize) {
    let scope = ScopedObs::new();
    let a = reference_matrix();
    let result = ge2bnd(&a, &reference_opts(threads));
    assert_eq!(result.algorithm, Algorithm::Bidiag);

    // Rebuild the exact DAG the run executed (same ops, same tile grid).
    let cfg = GenConfig::shared(NamedTree::Greedy);
    let ops = ge2bnd_ops(P, Q, Algorithm::Bidiag, &cfg);
    let graph = build_graph(&ops, Q, &BlockCyclic::single_node());
    assert_eq!(graph.len(), result.num_tasks);

    // The DAG's weighted critical path IS the Section IV model (the same
    // quantity `cp::measured_cp` feeds the sim and the paper's tables).
    assert_eq!(
        graph.critical_path(),
        cp::measured_cp(Algorithm::Bidiag, NamedTree::Greedy, P, Q)
    );

    // Reattach the measured spans to the DAG and recompute the longest
    // dependent chain from the trace.  Record-before-release makes this
    // deterministic: completeness, edge consistency, and the chain's task
    // count must all match the model.
    let v = validate_trace(&graph, &kernel_spans(&scope));
    assert_eq!(
        v.tasks_recorded,
        graph.len(),
        "incomplete trace at {threads}"
    );
    assert_eq!(
        v.edge_violations, 0,
        "a successor started before its predecessor ended"
    );
    assert_eq!(
        v.chain_tasks,
        graph.longest_chain_tasks(),
        "measured chain disagrees with the model"
    );
    assert!(v.matches_model(&graph));
    assert!(v.chain_ns <= v.makespan_ns);
    // Pin the reference numbers so a model regression cannot slip through
    // a compensating change in the trace analysis: 49 tasks, of which the
    // longest dependent chain visits 15.
    assert_eq!(v.tasks_recorded, 49);
    assert_eq!(v.chain_tasks, 15);

    // The same recorded spans export as a Perfetto-loadable Chrome trace.
    let json = obs::chrome_trace_json();
    assert!(json.contains("\"traceEvents\":["));
    assert!(json.contains("\"ph\":\"X\""));
    assert!(json.contains("\"name\":\"GEQRT\""));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    let path = std::env::temp_dir().join("bidiag_obs_test_trace.json");
    let path = path.to_str().expect("utf-8 temp path");
    obs::write_chrome_trace(path).expect("trace written");
    let on_disk = std::fs::read_to_string(path).expect("trace readable");
    assert_eq!(on_disk, json);
    let _ = std::fs::remove_file(path);
}

#[test]
fn threaded_ge2val_records_stage_and_pipeline_spans() {
    let a = reference_matrix();
    let ops = ge2bnd_ops(
        P,
        Q,
        Algorithm::Bidiag,
        &GenConfig::shared(NamedTree::Greedy),
    );
    // One submission of one task graph: one span per GE2BND kernel, then
    // one BND2BD task after the last of them, then one BD2VAL task.
    let pipeline_spans = |threads: usize| {
        let scope = ScopedObs::new();
        let sv = ge2val(&a, &reference_opts(threads)).singular_values;
        let spans = scope.spans();
        assert!(spans.iter().all(|s| s.submission == spans[0].submission));
        let (kernels, tail) = spans.split_at(spans.len() - 2);
        assert_eq!(kernels.len(), ops.len(), "one span per op at {threads}");
        assert!(kernels.iter().all(|s| s.kind <= 12));
        assert_eq!(
            [tail[0].kind, tail[1].kind],
            [obs::KIND_BND2BD, obs::KIND_BD2VAL]
        );
        assert!(kernels.iter().all(|s| s.end_ns <= tail[0].start_ns));
        assert!(tail[0].end_ns <= tail[1].start_ns);
        (sv, spans)
    };
    let kinds = |spans: &[Span]| {
        let mut kinds: Vec<u32> = spans.iter().map(|s| s.kind).collect();
        kinds.sort_unstable();
        kinds
    };
    // On a pool of four workers.
    let (threaded, pool) = pipeline_spans(4);
    assert!(pool.iter().all(|s| s.worker != obs::WORKER_CALLER));

    // At one thread: the same tasks on the calling thread, in list order,
    // with the same multiset of kinds.
    let (sequential, caller) = pipeline_spans(1);
    assert_eq!(sequential, threaded);
    assert!(caller.iter().all(|s| s.worker == obs::WORKER_CALLER));
    assert!(caller.iter().enumerate().all(|(t, s)| s.task as usize == t));
    assert!(caller.windows(2).all(|w| w[0].end_ns <= w[1].start_ns));
    assert_eq!(kinds(&caller), kinds(&pool));

    // The trace/snapshot header carries the dispatched SIMD backend.
    let snap = obs::registry().snapshot();
    let backend = snap.meta.get("simd_backend").expect("backend recorded");
    assert!(!backend.is_empty());
}

#[test]
fn session_metrics_wire_queue_wait_latency_and_dqds_signals() {
    let _scope = ScopedObs::new();
    obs::registry().reset();

    // Eight problems on the direct path (n = 32 with the crossover armed),
    // then eight through the tile DAG (crossover off): either way one
    // submission and one latency / queue-wait / compute sample each.
    let requests = 8usize;
    let (small, sigma) = latms(32, 32, &SpectrumKind::Geometric { cond: 100.0 }, 3);
    let solve_all = |opts: Ge2Options| {
        let session =
            SvdSession::with_config(opts.with_threads(2), SessionConfig { max_in_flight: 2 });
        for _ in 0..requests {
            let sv = session.submit(&small).unwrap().wait().unwrap();
            assert!(singular_values_match(&sv, &sigma, 1.0e-8));
        }
    };
    solve_all(Ge2Options::new(NB).with_direct_crossover(DIRECT_CROSSOVER));

    let snap = obs::registry().snapshot();
    assert_eq!(snap.submissions, requests as u64);
    assert_eq!(snap.latency.count, requests as u64);
    assert_eq!(snap.queue_wait.count, requests as u64);
    assert_eq!(snap.compute.count, requests as u64);
    assert!(snap.in_flight_peak >= 1 && snap.in_flight_peak <= 2);
    // One executed task per problem, in gangs the job lane counts: one at
    // a time here, as each submission is waited for.
    assert_eq!(snap.tasks_executed, requests as u64);
    assert_eq!(snap.direct_gang_jobs, requests as u64);
    assert!(snap.direct_gangs >= 1 && snap.direct_gangs <= snap.direct_gang_jobs);
    // The direct path's solver is the dqds ladder: the per-solve
    // `DqdsStats` must have been aggregated into the registry.
    assert!(snap.dqds_passes > 0, "dqds passes not recorded");
    assert!(snap.dqds_segments > 0, "dqds segments not recorded");
    assert!(
        snap.dqds_inner_steps >= snap.dqds_passes && snap.dqds_rejected_passes < snap.dqds_passes,
        "a pass has at least one inner step, and not every pass is rejected"
    );

    solve_all(Ge2Options::new(NB));
    let snap = obs::registry().snapshot();
    let total = 2 * requests as u64;
    assert_eq!(snap.submissions, total);
    assert_eq!(snap.latency.count, total);
    assert_eq!(snap.queue_wait.count, total);
    assert_eq!(snap.compute.count, total);
    assert!(snap.tasks_executed >= total);
    assert_eq!(
        snap.direct_gang_jobs, requests as u64,
        "the tile DAG is not a gang"
    );
    // Histogram sanity: latency >= compute on every submission, so the
    // means must be ordered too.
    assert!(snap.latency.mean() >= snap.compute.mean());
    // Both renderings carry the counters.
    let text = format!("{snap}");
    assert!(text.contains("submissions"));
    assert!(text.contains(&format!("jobs={requests}")));
    let json = snap.to_json();
    assert!(json.contains(&format!("\"submissions\":{total}")));
    assert!(json.contains(&format!("\"inner_steps\":{}", snap.dqds_inner_steps)));
    assert!(json.contains(&format!("\"direct_gangs\":{}", snap.direct_gangs)));
    assert!(json.contains(&format!("\"direct_gang_jobs\":{requests}")));
}
