//! One-shot execution of a task graph: the entry points that run one graph
//! to completion and return.
//!
//! [`execute_parallel`] is a submission like any other on the scheduler of
//! [`crate::pool`]: it builds a [`TaskPool`] for the duration of the call,
//! submits the graph, waits and drops the pool, so the worker threads live
//! exactly as long as the call.  [`execute_sequential`] runs the bodies in
//! insertion order on the calling thread and is the oracle the parallel
//! runs are tested against.

use crate::graph::TaskGraph;
use crate::pool::{TaskBodyWith, TaskPool};

/// A task body: the closure that actually runs the kernel.  Bodies are
/// indexed by [`TaskId`](crate::TaskId) and own whatever shared state they
/// need (typically `Arc`s of per-tile locks).
pub type TaskBody = Box<dyn FnOnce() + Send>;

/// Execute every task of `graph` on `threads` worker threads, respecting the
/// data-flow dependencies.  `bodies[i]` is run exactly once for task `i`.
///
/// Workers follow the work-stealing, event-driven protocol of the
/// [scheduler docs](crate::pool).  Any interleaving the scheduler produces
/// is a topological order of `graph`, so the result equals
/// [`execute_sequential`]'s whenever the bodies only communicate through
/// data the graph knows about.
///
/// Panics if `bodies.len() != graph.len()`, and if a body panics (the
/// remaining bodies are then skipped).
///
/// # Examples
///
/// ```
/// use bidiag_runtime::{execute_parallel, AccessMode, TaskBody, TaskGraph};
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
///
/// // a -> b and a -> c: both updates read the value task `a` wrote.
/// let mut g = TaskGraph::new();
/// let data = 7u64; // opaque data key chosen by the caller
/// g.add_task(1.0, 0, 0, &[(data, AccessMode::Write)]);
/// g.add_task(1.0, 0, 0, &[(data, AccessMode::Read)]);
/// g.add_task(1.0, 0, 0, &[(data, AccessMode::Read)]);
///
/// let cell = Arc::new(AtomicU64::new(0));
/// let bodies: Vec<TaskBody> = (0..3)
///     .map(|i| {
///         let cell = Arc::clone(&cell);
///         Box::new(move || {
///             if i == 0 {
///                 cell.store(40, Ordering::SeqCst); // the write
///             } else {
///                 cell.fetch_add(1, Ordering::SeqCst); // runs after it
///             }
///         }) as TaskBody
///     })
///     .collect();
/// execute_parallel(&g, bodies, 4);
/// assert_eq!(cell.load(Ordering::SeqCst), 42);
/// ```
pub fn execute_parallel(graph: &TaskGraph, bodies: Vec<TaskBody>, threads: usize) {
    let bodies: Vec<TaskBodyWith<()>> = bodies
        .into_iter()
        .map(|b| Box::new(move |_: &mut ()| b()) as TaskBodyWith<()>)
        .collect();
    execute_parallel_with(graph, bodies, threads, || ());
}

/// Like [`execute_parallel`], but every worker thread owns a private
/// scratch value created by `init` and passes it to each body it runs.
///
/// This is the entry point of the blocked-kernel data plane: `bidiag-core`
/// hands a `KernelScratch`-producing `init` here, so the tile kernels a
/// worker executes share one operand snapshot buffer instead of
/// reallocating it per task.  `init` runs once per worker, on that worker's
/// thread.
pub fn execute_parallel_with<S: Send + 'static>(
    graph: &TaskGraph,
    bodies: Vec<TaskBodyWith<S>>,
    threads: usize,
    init: impl Fn() -> S + Send + Sync + 'static,
) {
    assert_eq!(bodies.len(), graph.len(), "one body per task is required");
    if graph.is_empty() {
        return;
    }
    let pool = TaskPool::new(threads.clamp(1, graph.len()), init);
    let outcome = pool
        .submit_ref(graph, bodies, true)
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
