//! Machine-model simulation of task graphs.
//!
//! Two uses in the reproduction:
//!
//! * **bounded-resource shared memory** — list-schedule the DAG on `c` cores
//!   to estimate parallel execution time and GFlop/s (Figure 2 trends),
//! * **distributed memory** — list-schedule on an `N`-node cluster with
//!   `c` cores per node, owner-computes task placement (2D block cyclic) and
//!   an `alpha + size * beta` communication cost for every dependency that
//!   crosses a node boundary (Figures 3 and 4 trends).
//!
//! The simulator is deterministic: tasks are started in order of data
//! availability, ties broken by the longest path to an exit (bottom level),
//! which mirrors the critical-path-first priority used by the DPLASMA
//! implementation.

use crate::graph::{TaskGraph, TaskId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Description of the simulated machine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MachineModel {
    /// Number of nodes (processes).
    pub nodes: usize,
    /// Cores per node; `usize::MAX` means unbounded (critical-path mode).
    pub cores_per_node: usize,
    /// Time of one abstract weight unit on one core (seconds per unit).  The
    /// tile kernels use Table I weights, i.e. one unit is `nb^3/3` flops.
    pub time_per_weight_unit: f64,
    /// Fixed latency of one inter-node data transfer (seconds).
    pub comm_latency: f64,
    /// Per-transfer serialized time of moving one tile between nodes
    /// (seconds); roughly `tile_bytes / bandwidth`.
    pub comm_tile_time: f64,
}

impl MachineModel {
    /// Unbounded resources, no communication: the makespan equals the
    /// critical path length (in weight units when `time_per_weight_unit = 1`).
    pub fn unbounded() -> Self {
        Self {
            nodes: 1,
            cores_per_node: usize::MAX,
            time_per_weight_unit: 1.0,
            comm_latency: 0.0,
            comm_tile_time: 0.0,
        }
    }

    /// A single shared-memory node with `cores` cores, unit weight time.
    pub fn shared_memory(cores: usize) -> Self {
        Self {
            nodes: 1,
            cores_per_node: cores,
            time_per_weight_unit: 1.0,
            comm_latency: 0.0,
            comm_tile_time: 0.0,
        }
    }

    /// A cluster of `nodes` nodes with `cores` cores each.
    pub fn cluster(
        nodes: usize,
        cores: usize,
        time_per_weight_unit: f64,
        comm_latency: f64,
        comm_tile_time: f64,
    ) -> Self {
        Self {
            nodes,
            cores_per_node: cores,
            time_per_weight_unit,
            comm_latency,
            comm_tile_time,
        }
    }

    /// Calibrate the model from hardware-like characteristics: per-core
    /// GFlop/s, tile size `nb`, network bandwidth (GB/s) and latency (s).
    ///
    /// The paper's platform is 24-core Haswell nodes at ~37 GFlop/s per core
    /// with a 40 Gb/s InfiniBand network.
    pub fn calibrated(
        nodes: usize,
        cores: usize,
        core_gflops: f64,
        nb: usize,
        net_gbytes_per_s: f64,
        latency: f64,
    ) -> Self {
        let unit_flops = (nb as f64).powi(3) / 3.0;
        let time_per_weight_unit = unit_flops / (core_gflops * 1.0e9);
        let tile_bytes = (nb * nb * 8) as f64;
        let comm_tile_time = tile_bytes / (net_gbytes_per_s * 1.0e9);
        Self {
            nodes,
            cores_per_node: cores,
            time_per_weight_unit,
            comm_latency: latency,
            comm_tile_time,
        }
    }
}

/// Result of a simulation.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Total simulated execution time (same unit as the machine model times).
    pub makespan: f64,
    /// Per-task finish times (same order as the task ids).
    pub finish_times: Vec<f64>,
    /// Number of inter-node transfers charged.
    pub messages: usize,
    /// Sum of per-core busy time divided by `makespan * total cores`
    /// (parallel efficiency of the schedule), `NaN` for unbounded cores.
    pub efficiency: f64,
}

/// Simulate the execution of `graph` on `machine`.
pub fn simulate(graph: &TaskGraph, machine: &MachineModel) -> SimResult {
    let n = graph.len();
    if n == 0 {
        return SimResult {
            makespan: 0.0,
            finish_times: Vec::new(),
            messages: 0,
            efficiency: 1.0,
        };
    }
    let unbounded = machine.cores_per_node == usize::MAX;
    let bl = graph.bottom_levels();

    // Remaining predecessor counts and per-task data-ready times.
    let mut remaining: Vec<usize> = (0..n).map(|i| graph.predecessors(i).len()).collect();
    let mut data_ready = vec![0.0_f64; n];
    let mut finish = vec![f64::NAN; n];
    let mut messages = 0usize;

    // Ready heap ordered by (ready time, -bottom level, id).
    #[derive(PartialEq)]
    struct Ready {
        time: f64,
        priority: f64,
        id: TaskId,
    }
    impl Eq for Ready {}
    impl PartialOrd for Ready {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Ready {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // BinaryHeap is a max-heap: invert time (earlier first), then take
            // larger priority first, then smaller id.
            other
                .time
                .partial_cmp(&self.time)
                .unwrap()
                .then(self.priority.partial_cmp(&other.priority).unwrap())
                .then(other.id.cmp(&self.id))
        }
    }

    let mut ready: BinaryHeap<Ready> = BinaryHeap::new();
    for id in 0..n {
        if remaining[id] == 0 {
            ready.push(Ready {
                time: 0.0,
                priority: bl[id],
                id,
            });
        }
    }

    // Per-node min-heaps of core-free times.
    let mut cores: Vec<BinaryHeap<Reverse<OrderedF64>>> = Vec::new();
    if !unbounded {
        for _ in 0..machine.nodes.max(1) {
            let mut h = BinaryHeap::new();
            for _ in 0..machine.cores_per_node {
                h.push(Reverse(OrderedF64(0.0)));
            }
            cores.push(h);
        }
    }
    let mut busy_time = 0.0_f64;
    let mut makespan = 0.0_f64;

    while let Some(Ready { time, id, .. }) = ready.pop() {
        let exec = graph.task(id).weight * machine.time_per_weight_unit;
        let node = if machine.nodes <= 1 {
            0
        } else {
            graph.task(id).owner % machine.nodes
        };
        let start = if unbounded {
            time
        } else {
            let Reverse(OrderedF64(core_free)) =
                cores[node].pop().expect("node has at least one core");
            let s = time.max(core_free);
            cores[node].push(Reverse(OrderedF64(s + exec)));
            s
        };
        let f = start + exec;
        finish[id] = f;
        busy_time += exec;
        makespan = makespan.max(f);

        for &succ in graph.successors(id) {
            // Communication cost if the successor lives on another node.
            let succ_node = if machine.nodes <= 1 {
                0
            } else {
                graph.task(succ).owner % machine.nodes
            };
            let mut avail = f;
            if succ_node != node && machine.nodes > 1 {
                avail += machine.comm_latency + machine.comm_tile_time;
                messages += 1;
            }
            if avail > data_ready[succ] {
                data_ready[succ] = avail;
            }
            remaining[succ] -= 1;
            if remaining[succ] == 0 {
                ready.push(Ready {
                    time: data_ready[succ],
                    priority: bl[succ],
                    id: succ,
                });
            }
        }
    }

    let efficiency = if unbounded {
        f64::NAN
    } else {
        let total_cores = (machine.nodes.max(1) * machine.cores_per_node) as f64;
        busy_time / (makespan.max(f64::MIN_POSITIVE) * total_cores)
    };
    SimResult {
        makespan,
        finish_times: finish,
        messages,
        efficiency,
    }
}

/// Total-order float wrapper for use inside heaps (simulation times are
/// always finite).
#[derive(PartialEq, PartialOrd, Clone, Copy, Debug)]
struct OrderedF64(f64);
impl Eq for OrderedF64 {}
#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.partial_cmp(other).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::AccessMode::{Read, Write};

    /// Diamond: a -> (b, c) -> d, unit weights.
    fn diamond() -> TaskGraph {
        let mut g = TaskGraph::new();
        g.add_task(1.0, 0, 0, &[(0, Write)]);
        g.add_task(1.0, 0, 0, &[(0, Read), (1, Write)]);
        g.add_task(1.0, 0, 0, &[(0, Read), (2, Write)]);
        g.add_task(1.0, 0, 0, &[(1, Read), (2, Read), (3, Write)]);
        g
    }

    #[test]
    fn unbounded_matches_critical_path() {
        let g = diamond();
        assert_eq!(g.critical_path(), 3.0);
        assert_eq!(simulate(&g, &MachineModel::unbounded()).makespan, 3.0);
    }

    #[test]
    fn one_core_matches_sequential_time() {
        let g = diamond();
        let r = simulate(&g, &MachineModel::shared_memory(1));
        assert_eq!(r.makespan, g.total_weight());
        assert!((r.efficiency - 1.0).abs() < 1e-12);
    }

    #[test]
    fn two_cores_exploit_the_diamond() {
        let g = diamond();
        let r = simulate(&g, &MachineModel::shared_memory(2));
        assert_eq!(r.makespan, 3.0);
        assert_eq!(r.messages, 0);
    }

    #[test]
    fn communication_is_charged_across_nodes() {
        let mut g = TaskGraph::new();
        // Task on node 0 feeding a task on node 1.
        g.add_task(1.0, 0, 0, &[(0, Write)]);
        g.add_task(1.0, 1, 0, &[(0, Read), (1, Write)]);
        let machine = MachineModel::cluster(2, 1, 1.0, 0.5, 0.25);
        let r = simulate(&g, &machine);
        assert_eq!(r.messages, 1);
        assert!((r.makespan - (1.0 + 0.5 + 0.25 + 1.0)).abs() < 1e-12);

        // Same graph on a single node: no communication.
        let r1 = simulate(&g, &MachineModel::shared_memory(1));
        assert_eq!(r1.messages, 0);
        assert_eq!(r1.makespan, 2.0);
    }

    #[test]
    fn makespan_monotone_in_core_count() {
        // A wide fork-join graph.
        let mut g = TaskGraph::new();
        g.add_task(1.0, 0, 0, &[(0, Write)]);
        for i in 0..16 {
            g.add_task(1.0, 0, 0, &[(0, Read), (10 + i, Write)]);
        }
        let accesses: Vec<_> = (0..16)
            .map(|i| (10 + i as u64, Read))
            .chain([(100u64, Write)])
            .collect();
        g.add_task(1.0, 0, 0, &accesses);

        let mut prev = f64::INFINITY;
        for cores in [1usize, 2, 4, 8, 16, 32] {
            let r = simulate(&g, &MachineModel::shared_memory(cores));
            assert!(
                r.makespan <= prev + 1e-12,
                "makespan increased with more cores"
            );
            prev = r.makespan;
        }
        // With >= 16 cores the makespan equals the critical path.
        assert_eq!(prev, g.critical_path());
    }

    #[test]
    fn calibrated_model_units() {
        let m = MachineModel::calibrated(4, 24, 37.0, 160, 5.0, 1.0e-6);
        // One weight unit = 160^3/3 flops at 37 GFlop/s.
        let expected = (160.0_f64.powi(3) / 3.0) / 37.0e9;
        assert!((m.time_per_weight_unit - expected).abs() < 1e-18);
        assert!(m.comm_tile_time > 0.0);
    }
}
