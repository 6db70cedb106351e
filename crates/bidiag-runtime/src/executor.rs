//! One-shot execution of a task graph: the entry points that run one graph
//! to completion and return.
//!
//! [`execute_graph`] is a submission like any other on the scheduler of
//! [`crate::pool`]: it builds a [`TaskPool`] for the duration of the call,
//! submits the graph with its one body, waits and drops the pool, so the
//! worker threads live exactly as long as the call.
//! [`execute_parallel`] runs one boxed body per task through it, and
//! [`execute_sequential`] runs those bodies in insertion order on the
//! calling thread, the oracle the parallel runs are tested against.

use crate::graph::{TaskGraph, TaskId};
use crate::pool::{TaskBody, TaskPool};
use parking_lot::Mutex;

/// Execute every task of `graph` on `threads` worker threads, respecting
/// the data-flow dependencies: `body(i)` runs exactly once for task `i`,
/// after `body` of each of its predecessors returned.
///
/// The pool is built for the call and joined before it returns, so `body`
/// has been dropped by then.  Any interleaving the scheduler produces is a
/// topological order of `graph` (see the [scheduler docs](crate::pool)).
///
/// Panics if a body panics (the remaining tasks are then skipped).
///
/// # Examples
///
/// ```
/// use bidiag_runtime::{execute_graph, AccessMode, TaskGraph};
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
///
/// // a -> b and a -> c: both updates read the value task `a` wrote.
/// let mut g = TaskGraph::new();
/// for mode in [AccessMode::Write, AccessMode::Read, AccessMode::Read] {
///     g.add_task(1.0, 0, 0, &[(7, mode)]); // 7: a data key of the caller's
/// }
/// let cell = Arc::new(AtomicU64::new(0));
/// let c = Arc::clone(&cell);
/// let body = move |id| match id {
///     0 => c.store(40, Ordering::SeqCst), // the write
///     _ => _ = c.fetch_add(1, Ordering::SeqCst), // runs after it
/// };
/// execute_graph(&g, body, 4);
/// assert_eq!(cell.load(Ordering::SeqCst), 42);
/// ```
pub fn execute_graph(
    graph: &TaskGraph,
    body: impl Fn(TaskId) + Send + Sync + 'static,
    threads: usize,
) {
    if graph.is_empty() {
        return;
    }
    let pool = TaskPool::new(threads.clamp(1, graph.len()));
    let outcome = pool
        .submit(graph, body)
        .expect("a pool nobody closed admits")
        .wait();
    // Join the workers before reporting: no thread outlives the call.
    drop(pool);
    if let Err(e) = outcome {
        // The pool contains a body panic as a value; a one-shot caller has
        // no handle to inspect, so the panic resumes here with its message.
        panic!("{e}");
    }
}

/// Execute every task of `graph` on `threads` worker threads, respecting the
/// data-flow dependencies.  `bodies[i]` is run exactly once for task `i`.
///
/// An adapter onto [`execute_graph`] for callers that hold one boxed body
/// per task; it goes with ROADMAP item 11, which moves its last callers to
/// [`execute_graph`].  The result equals [`execute_sequential`]'s whenever
/// the bodies only communicate through data the graph knows about.
///
/// Panics if `bodies.len() != graph.len()`, and if a body panics (the
/// remaining bodies are then skipped).
pub fn execute_parallel(graph: &TaskGraph, bodies: Vec<TaskBody>, threads: usize) {
    assert_eq!(bodies.len(), graph.len(), "one body per task is required");
    let slots: Vec<_> = bodies.into_iter().map(|b| Mutex::new(Some(b))).collect();
    let take = move |id: TaskId| slots[id].lock().take().expect("task executed twice");
    execute_graph(graph, move |id| take(id)(), threads);
}

/// Execute the tasks sequentially in insertion order (which is a topological
/// order).  This is the reference execution used by the correctness tests.
pub fn execute_sequential(graph: &TaskGraph, bodies: Vec<TaskBody>) {
    assert_eq!(bodies.len(), graph.len());
    for body in bodies {
        body();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::AccessMode::{Read, Write};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Build a random-ish layered DAG and check that parallel execution
    /// respects dependencies (every predecessor ran before its successor).
    #[test]
    fn parallel_execution_respects_dependencies() {
        let mut g = TaskGraph::new();
        // 4 chains of 25 tasks sharing a common root and a common sink.
        g.add_task(1.0, 0, 0, &[(999, Write)]);
        for c in 0..4u64 {
            for s in 0..25u64 {
                let key = 1000 + c;
                if s == 0 {
                    g.add_task(1.0, 0, 0, &[(999, Read), (key, Write)]);
                } else {
                    g.add_task(1.0, 0, 0, &[(key, Write)]);
                }
            }
        }
        let sink_accesses: Vec<_> = (0..4u64)
            .map(|c| (1000 + c, Read))
            .chain([(2000, Write)])
            .collect();
        g.add_task(1.0, 0, 0, &sink_accesses);

        let n = g.len();
        let stamp = Arc::new(AtomicU64::new(1));
        let order: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
        let bodies: Vec<TaskBody> = (0..n)
            .map(|i| {
                let stamp = Arc::clone(&stamp);
                let order = Arc::clone(&order);
                Box::new(move || {
                    let t = stamp.fetch_add(1, Ordering::SeqCst);
                    order[i].store(t, Ordering::SeqCst);
                }) as TaskBody
            })
            .collect();
        execute_parallel(&g, bodies, 8);

        for id in 0..n {
            let t = order[id].load(Ordering::SeqCst);
            assert!(t > 0, "task {id} never ran");
            for &p in g.predecessors(id) {
                let tp = order[p].load(Ordering::SeqCst);
                assert!(tp < t, "task {id} ran before its predecessor {p}");
            }
        }
    }

    #[test]
    fn parallel_and_sequential_produce_same_result() {
        // Sum reduction where each task adds its id into a shared accumulator
        // guarded by dependencies (single chain).
        let mut g = TaskGraph::new();
        let n = 50;
        for _ in 0..n {
            g.add_task(1.0, 0, 0, &[(1, Write)]);
        }
        let acc_par = Arc::new(AtomicU64::new(0));
        let bodies_par: Vec<TaskBody> = (0..n)
            .map(|i| {
                let acc = Arc::clone(&acc_par);
                Box::new(move || {
                    acc.fetch_add(i as u64, Ordering::SeqCst);
                }) as TaskBody
            })
            .collect();
        execute_parallel(&g, bodies_par, 4);

        let acc_seq = Arc::new(AtomicU64::new(0));
        let bodies_seq: Vec<TaskBody> = (0..n)
            .map(|i| {
                let acc = Arc::clone(&acc_seq);
                Box::new(move || {
                    acc.fetch_add(i as u64, Ordering::SeqCst);
                }) as TaskBody
            })
            .collect();
        execute_sequential(&g, bodies_seq);
        assert_eq!(
            acc_par.load(Ordering::SeqCst),
            acc_seq.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = TaskGraph::new();
        execute_parallel(&g, Vec::new(), 4);
        execute_sequential(&g, Vec::new());
    }

    #[test]
    fn single_thread_execution_works() {
        let mut g = TaskGraph::new();
        for _ in 0..10 {
            g.add_task(1.0, 0, 0, &[(7, Write)]);
        }
        let counter = Arc::new(AtomicU64::new(0));
        let bodies: Vec<TaskBody> = (0..10)
            .map(|_| {
                let c = Arc::clone(&counter);
                Box::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                }) as TaskBody
            })
            .collect();
        execute_parallel(&g, bodies, 1);
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn more_threads_than_tasks_terminates() {
        let mut g = TaskGraph::new();
        g.add_task(1.0, 0, 0, &[(1, Write)]);
        g.add_task(1.0, 0, 0, &[(1, Write)]);
        let counter = Arc::new(AtomicU64::new(0));
        let bodies: Vec<TaskBody> = (0..2)
            .map(|_| {
                let c = Arc::clone(&counter);
                Box::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                }) as TaskBody
            })
            .collect();
        execute_parallel(&g, bodies, 64);
        assert_eq!(counter.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn panicking_body_propagates_instead_of_deadlocking() {
        // One source panics while an independent chain keeps the other
        // workers busy; the pool must drain (no worker parks forever) and
        // the panic must reach the caller.
        let mut g = TaskGraph::new();
        g.add_task(1.0, 0, 0, &[(1, Write)]); // the panicking source
        for _ in 0..50 {
            g.add_task(1.0, 0, 0, &[(2, Write)]); // independent chain
        }
        let n = g.len();
        let bodies: Vec<TaskBody> = (0..n)
            .map(|i| {
                Box::new(move || {
                    if i == 0 {
                        panic!("kernel failure");
                    }
                }) as TaskBody
            })
            .collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_parallel(&g, bodies, 4);
        }));
        assert!(result.is_err(), "the body panic must propagate");
    }

    #[test]
    fn wide_fanout_releases_all_successors() {
        // One root releasing 100 independent successors at once exercises
        // the batched publish path (sort + push + single publish).
        let mut g = TaskGraph::new();
        g.add_task(1.0, 0, 0, &[(0, Write)]);
        for i in 0..100u64 {
            g.add_task((i % 7) as f64 + 1.0, 0, 0, &[(0, Read), (i + 1, Write)]);
        }
        let counter = Arc::new(AtomicU64::new(0));
        let bodies: Vec<TaskBody> = (0..g.len())
            .map(|_| {
                let c = Arc::clone(&counter);
                Box::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                }) as TaskBody
            })
            .collect();
        execute_parallel(&g, bodies, 8);
        assert_eq!(counter.load(Ordering::SeqCst), 101);
    }
}
