//! Stress tests of the work-stealing scheduler through its two entry
//! points, one boxed body per task (`execute_parallel`) and one body per
//! graph (`TaskPool::submit`): randomized layered DAGs must produce results
//! identical to sequential execution at every thread count, concurrent
//! one-shot runs must not disturb one another, and pathological graph
//! shapes must not deadlock even when the thread count far exceeds the
//! hardware parallelism.

use bidiag_runtime::{
    execute_parallel, execute_sequential, AccessMode, TaskBody, TaskGraph, TaskId, TaskPool,
};
use rand::{rngs::StdRng, RngCore, SeedableRng};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
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

/// How [`run_digest`] runs a graph.
#[derive(Clone, Copy, Debug)]
enum Mode {
    /// `execute_sequential`: the reference.
    Sequential,
    /// `execute_parallel` on this many threads: one boxed body per task.
    Bodies(usize),
    /// `TaskPool::submit` on a pool of this many workers: one `Fn(TaskId)`
    /// body for the whole graph.
    OneBody(usize),
}

/// The state every task of a [`run_digest`] run shares.
struct Digest {
    preds: Vec<Vec<TaskId>>,
    cells: Vec<AtomicU64>,
    /// How many times each task started.
    runs: Vec<AtomicU32>,
}

impl Digest {
    /// Fold task `i`'s id into its cell using an order-sensitive hash of
    /// its predecessors' cells.
    fn task(&self, i: TaskId) {
        assert_eq!(
            self.runs[i].fetch_add(1, Ordering::SeqCst),
            0,
            "task {i} ran twice"
        );
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ (i as u64);
        for &p in &self.preds[i] {
            let v = self.cells[p].load(Ordering::SeqCst);
            assert_ne!(v, 0, "task {i} ran before its predecessor {p}");
            assert_eq!(
                self.runs[p].load(Ordering::SeqCst),
                1,
                "task {i} ran before its predecessor {p}"
            );
            h = h.wrapping_mul(0x100_0000_01b3).wrapping_add(v);
        }
        self.cells[i].store(h | 1, Ordering::SeqCst);
    }
}

/// Run the graph in `mode` with bodies that fold each task's id into
/// per-task cells ([`Digest::task`]), so any dependency violation or
/// dropped task changes the final digest, and a task run twice panics.
fn run_digest(g: &TaskGraph, mode: Mode) -> Vec<u64> {
    let n = g.len();
    let digest = Arc::new(Digest {
        preds: (0..n).map(|i| g.predecessors(i).to_vec()).collect(),
        cells: (0..n).map(|_| AtomicU64::new(0)).collect(),
        runs: (0..n).map(|_| AtomicU32::new(0)).collect(),
    });
    let bodies = || -> Vec<TaskBody> {
        (0..n)
            .map(|i| {
                let digest = Arc::clone(&digest);
                Box::new(move || digest.task(i)) as TaskBody
            })
            .collect()
    };
    match mode {
        Mode::Sequential => execute_sequential(g, bodies()),
        Mode::Bodies(t) => execute_parallel(g, bodies(), t),
        Mode::OneBody(t) => {
            let body = {
                let digest = Arc::clone(&digest);
                move |i| digest.task(i)
            };
            let pool = TaskPool::new(t);
            let outcome = pool.submit(g, body).expect("pool is open").wait();
            assert_eq!(outcome, Ok(()), "{mode:?}");
        }
    }
    for (i, runs) in digest.runs.iter().enumerate() {
        assert_eq!(
            runs.load(Ordering::SeqCst),
            1,
            "{mode:?}: task {i} did not run once"
        );
    }
    digest
        .cells
        .iter()
        .map(|c| c.load(Ordering::SeqCst))
        .collect()
}

/// Both parallel modes on `threads` workers: the digests of `g` each.
fn parallel_digests(g: &TaskGraph, threads: usize) -> [Vec<u64>; 2] {
    [Mode::Bodies(threads), Mode::OneBody(threads)].map(|mode| run_digest(g, mode))
}

#[test]
fn random_layered_dags_match_sequential_at_every_thread_count() {
    const SEEDS: [u64; 4] = [1, 7, 42, 1234];
    for seed in SEEDS {
        let g = random_layered_graph(12, 9, seed);
        let reference = run_digest(&g, Mode::Sequential);
        for threads in [1usize, 2, 4, 8] {
            for digest in parallel_digests(&g, threads) {
                assert_eq!(
                    digest, reference,
                    "seed {seed}, {threads} threads: digest diverged from sequential"
                );
            }
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
                let reference = run_digest(&g, Mode::Sequential);
                start.wait();
                for round in 0..8 {
                    for digest in parallel_digests(&g, 2) {
                        assert_eq!(
                            digest, reference,
                            "seed {seed}, concurrent round {round}: digest diverged"
                        );
                    }
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
    let reference = run_digest(&g, Mode::Sequential);
    for threads in [2usize, 8] {
        assert_eq!(
            parallel_digests(&g, threads),
            [reference.clone(), reference.clone()]
        );
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

    let reference = run_digest(&g, Mode::Sequential);
    assert_eq!(
        parallel_digests(&g, 32),
        [reference.clone(), reference.clone()]
    );
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
    let reference = run_digest(&g, Mode::Sequential);
    for threads in [3usize, 16] {
        assert_eq!(
            parallel_digests(&g, threads),
            [reference.clone(), reference.clone()]
        );
    }
}
