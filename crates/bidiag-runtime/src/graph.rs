//! Task graphs with automatic data-flow dependency inference.
//!
//! The paper's implementation relies on the PaRSEC runtime, which derives the
//! task DAG from a symbolic data-flow description.  We obtain the identical
//! DAG by *task insertion*: the algorithm inserts its tasks in a valid
//! sequential order, declaring which data each task reads and writes, and the
//! graph records read-after-write, write-after-read and write-after-write
//! dependencies (the StarPU/QUARK model).  The resulting partial order is the
//! same as the PaRSEC one because both express exactly the data-flow
//! constraints of the sequential algorithm.

use std::collections::HashMap;

/// Identifier of a task inside a [`TaskGraph`].
pub type TaskId = usize;

/// Identifier of a piece of data (a tile, a tau vector, a band...).  The
/// caller chooses the encoding; the graph only uses it as an opaque key.
pub type DataKey = u64;

/// How a task accesses a piece of data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessMode {
    /// The task only reads the data.
    Read,
    /// The task writes (or reads and writes) the data.
    Write,
}

/// Static description of one task.
#[derive(Clone, Debug)]
pub struct TaskNode {
    /// Cost of the task in abstract time units (Table I weights for the tile
    /// kernels).
    pub weight: f64,
    /// Node (process) that executes the task under the owner-computes rule;
    /// `0` in shared memory.
    pub owner: usize,
    /// Free-form tag identifying the kind of task (used for reporting).
    pub tag: u32,
}

/// A directed acyclic graph of tasks with data-flow dependencies.
#[derive(Clone, Debug, Default)]
pub struct TaskGraph {
    tasks: Vec<TaskNode>,
    successors: Vec<Vec<TaskId>>,
    predecessors: Vec<Vec<TaskId>>,
    last_writer: HashMap<DataKey, TaskId>,
    readers_since_write: HashMap<DataKey, Vec<TaskId>>,
}

impl TaskGraph {
    /// Create an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when the graph has no task.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Total weight of all tasks (sequential execution time).
    pub fn total_weight(&self) -> f64 {
        self.tasks.iter().map(|t| t.weight).sum()
    }

    /// Borrow a task descriptor.
    pub fn task(&self, id: TaskId) -> &TaskNode {
        &self.tasks[id]
    }

    /// Successors of a task.
    pub fn successors(&self, id: TaskId) -> &[TaskId] {
        &self.successors[id]
    }

    /// Predecessors of a task.
    pub fn predecessors(&self, id: TaskId) -> &[TaskId] {
        &self.predecessors[id]
    }

    /// Insert a task.  `accesses` lists every piece of data the task touches
    /// together with the access mode; dependencies on previously inserted
    /// tasks are inferred automatically.
    pub fn add_task(
        &mut self,
        weight: f64,
        owner: usize,
        tag: u32,
        accesses: &[(DataKey, AccessMode)],
    ) -> TaskId {
        let id = self.tasks.len();
        self.tasks.push(TaskNode { weight, owner, tag });
        self.successors.push(Vec::new());
        self.predecessors.push(Vec::new());

        let mut preds: Vec<TaskId> = Vec::new();
        for &(key, mode) in accesses {
            match mode {
                AccessMode::Read => {
                    if let Some(&w) = self.last_writer.get(&key) {
                        preds.push(w);
                    }
                    self.readers_since_write.entry(key).or_default().push(id);
                }
                AccessMode::Write => {
                    // WAR on all readers since the last write, WAW/RAW on the
                    // last writer.
                    if let Some(readers) = self.readers_since_write.get(&key) {
                        preds.extend(readers.iter().copied());
                    }
                    if let Some(&w) = self.last_writer.get(&key) {
                        preds.push(w);
                    }
                    self.readers_since_write.insert(key, Vec::new());
                    self.last_writer.insert(key, id);
                }
            }
        }
        preds.sort_unstable();
        preds.dedup();
        preds.retain(|&p| p != id);
        for p in preds {
            self.successors[p].push(id);
            self.predecessors[id].push(p);
        }
        id
    }

    /// Length of the critical path (longest weighted path, node weights).
    ///
    /// Task insertion order is a topological order by construction, so a
    /// single forward sweep suffices.
    pub fn critical_path(&self) -> f64 {
        let mut finish = vec![0.0_f64; self.tasks.len()];
        let mut best: f64 = 0.0;
        for id in 0..self.tasks.len() {
            let start = self.predecessors[id]
                .iter()
                .map(|&p| finish[p])
                .fold(0.0_f64, f64::max);
            finish[id] = start + self.tasks[id].weight;
            best = best.max(finish[id]);
        }
        best
    }

    /// Number of tasks on the longest dependent chain (unit weights): the
    /// critical path *by task count*.  This is the quantity the
    /// observability plane's critical-path analyzer reconstructs from a
    /// recorded trace, so [`crate::trace::validate_trace`] can compare a
    /// measurement against the model without depending on kernel weights.
    pub fn longest_chain_tasks(&self) -> usize {
        let n = self.tasks.len();
        let mut depth = vec![0usize; n];
        let mut best = 0usize;
        for id in 0..n {
            let d = self.predecessors[id]
                .iter()
                .map(|&p| depth[p])
                .max()
                .unwrap_or(0)
                + 1;
            depth[id] = d;
            best = best.max(d);
        }
        best
    }

    /// Bottom levels: for each task, the longest weighted path from the task
    /// (inclusive) to any exit.  Used as the scheduling priority, exactly as
    /// the paper's runtime prioritises tasks on the critical path.
    pub fn bottom_levels(&self) -> Vec<f64> {
        let n = self.tasks.len();
        let mut bl = vec![0.0_f64; n];
        for id in (0..n).rev() {
            let succ_max = self.successors[id]
                .iter()
                .map(|&s| bl[s])
                .fold(0.0_f64, f64::max);
            bl[id] = self.tasks[id].weight + succ_max;
        }
        bl
    }

    /// Maximum number of simultaneously runnable tasks under an ASAP
    /// schedule with unbounded resources (a coarse parallelism metric).
    pub fn max_parallelism(&self) -> usize {
        // Simulate ASAP with unit sampling on event boundaries.
        let n = self.len();
        if n == 0 {
            return 0;
        }
        let mut start = vec![0.0_f64; n];
        let mut finish = vec![0.0_f64; n];
        for id in 0..n {
            let s = self.predecessors[id]
                .iter()
                .map(|&p| finish[p])
                .fold(0.0_f64, f64::max);
            start[id] = s;
            finish[id] = s + self.tasks[id].weight;
        }
        // Sweep events.
        let mut events: Vec<(f64, i32)> = Vec::with_capacity(2 * n);
        for id in 0..n {
            events.push((start[id], 1));
            events.push((finish[id], -1));
        }
        events.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        let mut cur = 0i64;
        let mut best = 0i64;
        for (_, d) in events {
            cur += d as i64;
            best = best.max(cur);
        }
        best as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const R: AccessMode = AccessMode::Read;
    const W: AccessMode = AccessMode::Write;

    #[test]
    fn raw_dependency() {
        let mut g = TaskGraph::new();
        let a = g.add_task(1.0, 0, 0, &[(1, W)]);
        let b = g.add_task(1.0, 0, 0, &[(1, R)]);
        assert_eq!(g.predecessors(b), &[a]);
        assert_eq!(g.successors(a), &[b]);
        assert_eq!(g.critical_path(), 2.0);
    }

    #[test]
    fn independent_reads_run_in_parallel() {
        let mut g = TaskGraph::new();
        let w = g.add_task(1.0, 0, 0, &[(1, W)]);
        let r1 = g.add_task(2.0, 0, 0, &[(1, R), (2, W)]);
        let r2 = g.add_task(3.0, 0, 0, &[(1, R), (3, W)]);
        assert_eq!(g.predecessors(r1), &[w]);
        assert_eq!(g.predecessors(r2), &[w]);
        assert_eq!(g.critical_path(), 4.0);
        assert_eq!(g.max_parallelism(), 2);
    }

    #[test]
    fn war_and_waw_dependencies() {
        let mut g = TaskGraph::new();
        let w1 = g.add_task(1.0, 0, 0, &[(7, W)]);
        let r = g.add_task(1.0, 0, 0, &[(7, R)]);
        let w2 = g.add_task(1.0, 0, 0, &[(7, W)]);
        // w2 must wait for both the reader (WAR) and the first writer (WAW).
        let mut preds = g.predecessors(w2).to_vec();
        preds.sort_unstable();
        assert_eq!(preds, vec![w1, r]);
        assert_eq!(g.critical_path(), 3.0);
    }

    #[test]
    fn duplicate_accesses_do_not_create_duplicate_edges() {
        let mut g = TaskGraph::new();
        let a = g.add_task(1.0, 0, 0, &[(1, W), (2, W)]);
        let b = g.add_task(1.0, 0, 0, &[(1, R), (2, W)]);
        assert_eq!(g.predecessors(b), &[a]);
        assert_eq!(g.successors(a).len(), 1);
    }

    #[test]
    fn chain_critical_path_and_bottom_levels() {
        let mut g = TaskGraph::new();
        let mut prev = None;
        for i in 0..5 {
            let accesses = [(0u64, W)];
            let id = g.add_task((i + 1) as f64, 0, 0, &accesses);
            prev = Some(id);
        }
        let _ = prev;
        assert_eq!(g.critical_path(), 15.0);
        let bl = g.bottom_levels();
        assert_eq!(bl[0], 15.0);
        assert_eq!(bl[4], 5.0);
        assert_eq!(g.max_parallelism(), 1);
    }

    #[test]
    fn total_weight_is_sequential_time() {
        let mut g = TaskGraph::new();
        g.add_task(2.0, 0, 0, &[(1, W)]);
        g.add_task(3.0, 0, 0, &[(2, W)]);
        assert_eq!(g.total_weight(), 5.0);
    }
}
