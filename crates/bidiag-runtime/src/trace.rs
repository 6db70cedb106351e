//! Critical-path analysis of recorded task traces.
//!
//! The paper's Section IV argument is a closed-form critical-path model of
//! the tiled GE2BND DAG.  The observability plane lets us check that model
//! against *measurements*: every task span recorded by the scheduler carries
//! its task id, so a run's spans can be reattached to the [`TaskGraph`] it
//! executed and the longest dependent chain recomputed from what actually
//! ran.  Because the scheduler records a task's span (including its end
//! timestamp) before releasing any successor, a correct run always satisfies
//! `end[pred] <= start[succ]` on every DAG edge — making the comparison
//! deterministic rather than timing-sensitive.

use crate::graph::TaskGraph;
use bidiag_obs::Span;

/// Result of checking one run's recorded spans against its task graph.
#[derive(Clone, Debug)]
pub struct TraceValidation {
    /// Distinct graph tasks with a recorded span.
    pub tasks_recorded: usize,
    /// Tasks in the graph (`tasks_recorded` should equal this when the ring
    /// did not wrap).
    pub tasks_expected: usize,
    /// DAG edges whose endpoint spans violate `end[pred] <= start[succ]`.
    pub edge_violations: usize,
    /// Longest dependent chain, by task count, restricted to recorded tasks.
    pub chain_tasks: usize,
    /// Sum of measured span durations (ns) along one such maximal chain.
    pub chain_ns: u64,
    /// Wall-clock extent of the run: latest end minus earliest start (ns).
    pub makespan_ns: u64,
}

impl TraceValidation {
    /// True when every task was recorded, no edge violated the
    /// record-before-release invariant, and the measured chain length
    /// matches the model's longest chain.
    pub fn matches_model(&self, graph: &TaskGraph) -> bool {
        self.tasks_recorded == self.tasks_expected
            && self.edge_violations == 0
            && self.chain_tasks == graph.longest_chain_tasks()
    }
}

/// Reattach `spans` (one GE2BND/pipeline run, already filtered to a single
/// submission id) to `graph` and recompute the longest dependent chain from
/// the measurement.
///
/// Spans whose task id falls outside the graph are ignored; if a task id
/// appears twice (ring wrap of a huge run), the last span wins.
pub fn validate_trace(graph: &TaskGraph, spans: &[Span]) -> TraceValidation {
    let n = graph.len();
    let mut recorded: Vec<Option<Span>> = vec![None; n];
    for s in spans {
        if (s.task as usize) < n {
            recorded[s.task as usize] = Some(*s);
        }
    }
    let tasks_recorded = recorded.iter().flatten().count();

    let mut edge_violations = 0usize;
    let mut first_start = u64::MAX;
    let mut last_end = 0u64;
    // Insertion order is a topological order, so one forward sweep computes
    // the deepest chain over recorded tasks; ties prefer the predecessor
    // chain with the larger measured duration.
    let mut depth = vec![0usize; n];
    let mut chain_dur = vec![0u64; n];
    let mut best = (0usize, 0u64);
    for id in 0..n {
        let span = match recorded[id] {
            Some(s) => s,
            None => continue,
        };
        first_start = first_start.min(span.start_ns);
        last_end = last_end.max(span.end_ns);
        let mut d = (0usize, 0u64);
        for &p in graph.predecessors(id) {
            if let Some(ps) = recorded[p] {
                if ps.end_ns > span.start_ns {
                    edge_violations += 1;
                }
                d = d.max((depth[p], chain_dur[p]));
            }
        }
        depth[id] = d.0 + 1;
        chain_dur[id] = d.1 + span.end_ns.saturating_sub(span.start_ns);
        best = best.max((depth[id], chain_dur[id]));
    }

    TraceValidation {
        tasks_recorded,
        tasks_expected: n,
        edge_violations,
        chain_tasks: best.0,
        chain_ns: best.1,
        makespan_ns: if tasks_recorded == 0 {
            0
        } else {
            last_end.saturating_sub(first_start)
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::AccessMode::{Read, Write};

    fn span(task: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            submission: 1,
            task,
            kind: 0,
            worker: 0,
            start_ns,
            end_ns,
        }
    }

    /// Diamond: 0 -> {1, 2} -> 3.  Chain by count is 3.
    fn diamond() -> TaskGraph {
        let mut g = TaskGraph::new();
        g.add_task(1.0, 0, 0, &[(0, Write)]);
        g.add_task(1.0, 0, 0, &[(0, Read), (1, Write)]);
        g.add_task(1.0, 0, 0, &[(0, Read), (2, Write)]);
        g.add_task(1.0, 0, 0, &[(1, Read), (2, Read), (3, Write)]);
        g
    }

    #[test]
    fn longest_chain_counts_tasks() {
        let g = diamond();
        assert_eq!(g.longest_chain_tasks(), 3);
        assert_eq!(TaskGraph::new().longest_chain_tasks(), 0);
    }

    #[test]
    fn consistent_trace_matches_model() {
        let g = diamond();
        let spans = vec![
            span(0, 0, 10),
            span(1, 10, 30),
            span(2, 12, 25),
            span(3, 30, 40),
        ];
        let v = validate_trace(&g, &spans);
        assert_eq!(v.tasks_recorded, 4);
        assert_eq!(v.edge_violations, 0);
        assert_eq!(v.chain_tasks, 3);
        // Deepest chain picks the longer-duration arm: 10 + 20 + 10.
        assert_eq!(v.chain_ns, 40);
        assert_eq!(v.makespan_ns, 40);
        assert!(v.matches_model(&g));
    }

    #[test]
    fn edge_violation_is_detected() {
        let g = diamond();
        let spans = vec![
            span(0, 0, 10),
            span(1, 5, 30), // starts before its predecessor ended
            span(2, 12, 25),
            span(3, 30, 40),
        ];
        let v = validate_trace(&g, &spans);
        assert_eq!(v.edge_violations, 1);
        assert!(!v.matches_model(&g));
    }

    #[test]
    fn missing_span_fails_completeness() {
        let g = diamond();
        let spans = vec![span(0, 0, 10), span(1, 10, 30), span(3, 30, 40)];
        let v = validate_trace(&g, &spans);
        assert_eq!(v.tasks_recorded, 3);
        assert!(!v.matches_model(&g));
    }
}
