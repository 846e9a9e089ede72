//! Task orders shared by the integration tests that run the tiled
//! kernels in more than one order.

// Each test crate that includes this module uses only some of it.
#![allow(dead_code)]

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ugpc::hwsim::{Node, PlatformId};
use ugpc::runtime::{
    simulate_observed, DataRegistry, EventLog, ExecEvent, PerfModel, SimOptions, TaskGraph, TaskId,
};

/// A seeded random topological order of `graph`: Kahn's algorithm,
/// picking uniformly among the ready tasks at every step.
pub fn random_topological_order(graph: &TaskGraph, seed: u64) -> Vec<TaskId> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut indegree = graph.indegrees();
    let mut ready = graph.roots();
    let mut order = Vec::with_capacity(graph.len());
    while !ready.is_empty() {
        let task = ready.swap_remove(rng.gen_range(0..ready.len()));
        order.push(task);
        for &succ in graph.successors(task) {
            indegree[succ] -= 1;
            if indegree[succ] == 0 {
                ready.push(succ);
            }
        }
    }
    order
}

/// The order in which the simulator starts the tasks of `graph` on
/// `platform`, read from the `TaskStart` events of its stream.
pub fn dispatch_order(
    platform: PlatformId,
    graph: &TaskGraph,
    reg: &mut DataRegistry,
) -> Vec<TaskId> {
    let mut node = Node::new(platform);
    let mut log = EventLog::new();
    simulate_observed(
        &mut node,
        graph,
        reg,
        SimOptions::default(),
        &mut PerfModel::new(),
        &mut [&mut log],
    );
    log.events
        .iter()
        .filter_map(|e| match e {
            ExecEvent::TaskStart { task, .. } => Some(*task),
            _ => None,
        })
        .collect()
}
