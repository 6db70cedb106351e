//! Stress tests of the work-stealing scheduler through its one-shot entry
//! point: randomized layered DAGs must produce results identical to
//! sequential execution at every thread count, concurrent one-shot runs must
//! not disturb one another, and pathological graph shapes must not deadlock
//! even when the thread count far exceeds the hardware parallelism.

use bidiag_runtime::{execute_parallel, execute_sequential, AccessMode, TaskBody, TaskGraph};
use rand::{rngs::StdRng, RngCore, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Build a random layered DAG: `layers` layers of up to `width` tasks, each
/// task reading a few random outputs of the previous layer and writing its
/// own key.  Every dependency is expressed through the data-flow keys, so
/// the graph captures all conflicts.
fn random_layered_graph(layers: usize, width: usize, seed: u64) -> TaskGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = TaskGraph::new();
    let key = |layer: usize, slot: usize| (layer * width + slot) as u64;
    for layer in 0..layers {
        let count = 1 + (rng.next_u64() as usize) % width;
        for slot in 0..count {
            let mut accesses = vec![(key(layer + 1, slot), AccessMode::Write)];
            if layer > 0 {
                let fanin = 1 + (rng.next_u64() as usize) % 3;
                for _ in 0..fanin {
                    let src = (rng.next_u64() as usize) % width;
                    accesses.push((key(layer, src), AccessMode::Read));
                }
            }
            let weight = 1.0 + (rng.next_u64() % 5) as f64;
            g.add_task(weight, 0, 0, &accesses);
        }
    }
    g
}

/// Run the graph with bodies that fold each task's id into per-task cells
/// using an order-sensitive hash of its predecessors' cells, so any
/// dependency violation or dropped task changes the final digest.
fn run_digest(g: &TaskGraph, threads: Option<usize>) -> Vec<u64> {
    let n = g.len();
    let cells: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
    let bodies: Vec<TaskBody> = (0..n)
        .map(|i| {
            let cells = Arc::clone(&cells);
            let preds: Vec<usize> = g.predecessors(i).to_vec();
            Box::new(move || {
                let mut h = 0xcbf2_9ce4_8422_2325u64 ^ (i as u64);
                for &p in &preds {
                    let v = cells[p].load(Ordering::SeqCst);
                    assert_ne!(v, 0, "task {i} ran before its predecessor {p}");
                    h = h.wrapping_mul(0x100_0000_01b3).wrapping_add(v);
                }
                cells[i].store(h | 1, Ordering::SeqCst);
            }) as TaskBody
        })
        .collect();
    match threads {
        Some(t) => execute_parallel(g, bodies, t),
        None => execute_sequential(g, bodies),
    }
    cells.iter().map(|c| c.load(Ordering::SeqCst)).collect()
}

#[test]
fn random_layered_dags_match_sequential_at_every_thread_count() {
    const SEEDS: [u64; 4] = [1, 7, 42, 1234];
    for seed in SEEDS {
        let g = random_layered_graph(12, 9, seed);
        let reference = run_digest(&g, None);
        for threads in [1usize, 2, 4, 8] {
            let digest = run_digest(&g, Some(threads));
            assert_eq!(
                digest, reference,
                "seed {seed}, {threads} threads: digest diverged from sequential"
            );
        }
    }
    // The same DAGs again, one caller thread each, all at the same time:
    // every one-shot run builds a pool of its own, and the pools must
    // neither share nor leak state.
    let start = std::sync::Barrier::new(SEEDS.len());
    std::thread::scope(|scope| {
        for seed in SEEDS {
            let start = &start;
            scope.spawn(move || {
                let g = random_layered_graph(12, 9, seed);
                let reference = run_digest(&g, None);
                start.wait();
                for round in 0..8 {
                    assert_eq!(
                        run_digest(&g, Some(2)),
                        reference,
                        "seed {seed}, concurrent round {round}: digest diverged"
                    );
                }
            });
        }
    });
}

#[test]
fn deep_chain_matches_sequential() {
    // A single chain forces full serialization through the idle gate: every
    // completion publishes exactly one successor while other workers sleep.
    let mut g = TaskGraph::new();
    for _ in 0..400 {
        g.add_task(1.0, 0, 0, &[(0, AccessMode::Write)]);
    }
    let reference = run_digest(&g, None);
    for threads in [2usize, 8] {
        assert_eq!(run_digest(&g, Some(threads)), reference);
    }
}

#[test]
fn sink_heavy_graph_does_not_deadlock_under_oversubscription() {
    // Many independent diamonds all draining into one sink: the sink's
    // release is the last publication, and with 32 threads on (possibly)
    // one core, most workers spend the run parked.  The test passes iff it
    // terminates with the right digest.
    let mut g = TaskGraph::new();
    let diamonds = 40u64;
    for d in 0..diamonds {
        let top = 10 * d;
        g.add_task(1.0, 0, 0, &[(top, AccessMode::Write)]);
        g.add_task(
            1.0,
            0,
            0,
            &[(top, AccessMode::Read), (top + 1, AccessMode::Write)],
        );
        g.add_task(
            1.0,
            0,
            0,
            &[(top, AccessMode::Read), (top + 2, AccessMode::Write)],
        );
        g.add_task(
            1.0,
            0,
            0,
            &[
                (top + 1, AccessMode::Read),
                (top + 2, AccessMode::Read),
                (top + 3, AccessMode::Write),
            ],
        );
    }
    let sink_reads: Vec<(u64, AccessMode)> = (0..diamonds)
        .map(|d| (10 * d + 3, AccessMode::Read))
        .chain([(u64::MAX, AccessMode::Write)])
        .collect();
    g.add_task(1.0, 0, 0, &sink_reads);

    let reference = run_digest(&g, None);
    assert_eq!(run_digest(&g, Some(32)), reference);
}

#[test]
fn source_heavy_graph_seeds_every_worker() {
    // More sources than workers: round-robin seeding plus stealing must
    // execute every source exactly once (the digest catches double or
    // missed execution).
    let mut g = TaskGraph::new();
    for i in 0..100u64 {
        g.add_task(1.0, 0, 0, &[(i, AccessMode::Write)]);
    }
    let sink_reads: Vec<(u64, AccessMode)> = (0..100u64)
        .map(|i| (i, AccessMode::Read))
        .chain([(u64::MAX, AccessMode::Write)])
        .collect();
    g.add_task(1.0, 0, 0, &sink_reads);
    let reference = run_digest(&g, None);
    for threads in [3usize, 16] {
        assert_eq!(run_digest(&g, Some(threads)), reference);
    }
}
