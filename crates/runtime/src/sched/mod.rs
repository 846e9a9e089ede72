//! Scheduling policies.
//!
//! The paper's experiments use **dmdas**; the rest of StarPU's family is
//! implemented for the ablation study (`repro ablation`): `eager`,
//! `random`, `dm` (HEFT-style expected completion time), `dmda` (ECT +
//! data-transfer time), `dmdas` (dmda + priority-sorted assignment +
//! locality tie-break), and the future-work `energy` scheduler.

mod dm;
mod dmda;
mod dmdas;
mod eager;
mod energy;
mod random;

pub use dm::DmScheduler;
pub use dmda::DmdaScheduler;
pub use dmdas::DmdasScheduler;
pub use eager::EagerScheduler;
pub use energy::EnergyAwareScheduler;
pub use random::RandomScheduler;

use crate::data::{DataRegistry, MemNode};
use crate::graph::TaskGraph;
use crate::perfmodel::{PerfModel, PerfRow};
use crate::task::TaskId;
use crate::worker::{Worker, WorkerId};
use serde::{Deserialize, Serialize};
use ugpc_hwsim::{Joules, LinkTopology, Secs};

/// Scheduler selection, serializable for experiment configs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SchedPolicy {
    Eager,
    Random {
        seed: u64,
    },
    Dm,
    Dmda,
    Dmdas,
    /// dmdas with an energy term: cost = (1−λ)·t̂ + λ·ê (normalized).
    EnergyAware {
        lambda: f64,
    },
}

impl SchedPolicy {
    pub fn build(self) -> Box<dyn Scheduler> {
        match self {
            SchedPolicy::Eager => Box::new(EagerScheduler),
            SchedPolicy::Random { seed } => Box::new(RandomScheduler::new(seed)),
            SchedPolicy::Dm => Box::new(DmScheduler),
            SchedPolicy::Dmda => Box::new(DmdaScheduler),
            SchedPolicy::Dmdas => Box::new(DmdasScheduler::default()),
            SchedPolicy::EnergyAware { lambda } => Box::new(EnergyAwareScheduler::new(lambda)),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            SchedPolicy::Eager => "eager",
            SchedPolicy::Random { .. } => "random",
            SchedPolicy::Dm => "dm",
            SchedPolicy::Dmda => "dmda",
            SchedPolicy::Dmdas => "dmdas",
            SchedPolicy::EnergyAware { .. } => "energy",
        }
    }
}

/// Read-only view of runtime state offered to a scheduler at decision time.
pub struct SchedView<'a> {
    pub graph: &'a TaskGraph,
    pub workers: &'a [Worker],
    /// Virtual time at which each worker's queue drains.
    pub worker_free: &'a [Secs],
    pub perf: &'a PerfModel,
    pub data: &'a DataRegistry,
    pub links: &'a LinkTopology,
    pub now: Secs,
}

/// Pessimistic placeholder for uncalibrated (footprint, worker) pairs —
/// effectively excludes the worker unless nothing else can run the task.
const UNKNOWN_TIME: Secs = Secs(1e6);

/// Energy placeholder for workers without history.
const UNKNOWN_ENERGY: Joules = Joules(1e9);

impl<'a> SchedView<'a> {
    /// Can this worker execute this task at all (codelet has an
    /// implementation for the architecture)?
    pub fn can_run(&self, task: TaskId, w: &Worker) -> bool {
        let kind = self.graph.task(task).kind;
        if w.is_gpu() {
            kind.gpu_capable()
        } else {
            kind.cpu_capable()
        }
    }

    /// The history-model row of the task's footprint: look it up once
    /// per task, then cost each candidate with an index.
    pub(crate) fn perf_row(&self, task: TaskId) -> PerfRow<'a> {
        self.perf.row(self.graph.task(task).footprint())
    }

    /// Expected execution time from the history model.
    pub fn exec_estimate(&self, task: TaskId, w: &Worker) -> Secs {
        exec_in(&self.perf_row(task), w)
    }

    /// Expected energy of one execution on this worker.
    pub fn energy_estimate(&self, task: TaskId, w: &Worker) -> Joules {
        self.perf_row(task)
            .expected_energy(w.id)
            .unwrap_or(UNKNOWN_ENERGY)
    }

    /// Bandwidth-based estimate of the data-transfer time this task would
    /// incur on `w` (dmda's `transfer_model`): missing read operands moved
    /// over the worker's link, serialized.
    pub fn transfer_estimate(&self, task: TaskId, w: &Worker) -> Secs {
        let dst = w.mem_node();
        let mut total = Secs::ZERO;
        for &(d, mode) in &self.graph.task(task).data {
            if !mode.reads() {
                continue;
            }
            if let Some(src) = self.data.transfer_source(d, dst) {
                let bytes = self.data.bytes(d);
                total += match (src, dst) {
                    (crate::data::MemNode::Host, crate::data::MemNode::Gpu(_)) => {
                        self.links.h2d_time(bytes)
                    }
                    (crate::data::MemNode::Gpu(_), crate::data::MemNode::Host) => {
                        self.links.d2h_time(bytes)
                    }
                    (crate::data::MemNode::Gpu(_), crate::data::MemNode::Gpu(_)) => {
                        self.links.d2d_time(bytes)
                    }
                    (crate::data::MemNode::Host, crate::data::MemNode::Host) => Secs::ZERO,
                };
            }
        }
        total
    }

    /// Bytes of this task's operands already resident on `w`'s memory node.
    pub fn resident_bytes(&self, task: TaskId, w: &Worker) -> ugpc_hwsim::Bytes {
        self.data.resident_bytes(
            self.graph.task(task).data.iter().map(|&(d, _)| d),
            w.mem_node(),
        )
    }

    /// Workers capable of running the task.
    pub fn capable_workers(&self, task: TaskId) -> impl Iterator<Item = &Worker> {
        self.workers.iter().filter(move |w| self.can_run(task, w))
    }

    /// The expected completion time of every capable worker `w` (the dm
    /// family's objective), in worker order, alongside its execution
    /// estimate: `max(now, worker_free[w]) + transfer + exec`, where
    /// `transfer` is [`Self::transfer_estimate`] when `with_transfers` is
    /// set and zero otherwise, and `exec` is [`Self::exec_estimate`]. The
    /// task's history row is looked up once, and the transfer estimate —
    /// a function of the memory node alone — is computed once per run of
    /// consecutive workers on the same node: once for all the CPU cores
    /// sharing the host, once per GPU.
    pub(crate) fn estimates(
        &self,
        task: TaskId,
        with_transfers: bool,
    ) -> impl Iterator<Item = Estimate> + '_ {
        let row = self.perf_row(task);
        let mut transfers = PerNode::default();
        self.capable_workers(task).map(move |w| {
            let transfer = if with_transfers {
                transfers.get(w.mem_node(), || self.transfer_estimate(task, w))
            } else {
                Secs::ZERO
            };
            let exec = exec_in(&row, w);
            let start = self.now.max(self.worker_free[w.id]);
            Estimate {
                worker: w.id,
                exec,
                completion: start + transfer + exec,
            }
        })
    }
}

/// One capable worker's expected cost of a task (see
/// [`SchedView::estimates`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Estimate {
    pub(crate) worker: WorkerId,
    /// Expected execution time.
    pub(crate) exec: Secs,
    /// Expected completion time.
    pub(crate) completion: Secs,
}

/// A one-entry cache of a per-memory-node value. Workers come grouped by
/// node (CPU cores, then one worker per GPU), so remembering the last
/// node computes each node's value once; a node that recurs later is
/// recomputed, which costs time but never changes the value.
#[derive(Debug, Default)]
pub(crate) struct PerNode<T> {
    last: Option<(MemNode, T)>,
}

impl<T: Copy> PerNode<T> {
    pub(crate) fn get(&mut self, node: MemNode, compute: impl FnOnce() -> T) -> T {
        match self.last {
            Some((n, v)) if n == node => v,
            _ => {
                let v = compute();
                self.last = Some((node, v));
                v
            }
        }
    }
}

fn exec_in(row: &PerfRow, w: &Worker) -> Secs {
    row.expected_time_or_extrapolate(w.id)
        .unwrap_or(UNKNOWN_TIME)
}

/// A scheduling policy: orders each batch of newly-ready tasks, then
/// assigns each to a worker.
pub trait Scheduler {
    fn name(&self) -> &'static str;

    /// Reorder the ready batch before assignment. Default: submission
    /// (FIFO) order.
    fn order(&mut self, _ready: &mut Vec<TaskId>, _view: &SchedView) {}

    /// Pick the worker for `task`. Must return a capable worker.
    fn choose(&mut self, task: TaskId, view: &SchedView) -> WorkerId;
}

/// Shared helper: argmin of `cost` over capable workers (first wins ties).
pub(crate) fn argmin_worker<F: FnMut(&Worker) -> f64>(
    view: &SchedView,
    task: TaskId,
    mut cost: F,
) -> WorkerId {
    view.capable_workers(task)
        .map(|w| (w.id, cost(w)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap_or_else(|| panic!("no capable worker for task {task}"))
        .0
}

/// The capable worker with the earliest expected completion (first wins
/// ties) — the dm family's choice.
pub(crate) fn earliest_completion(
    view: &SchedView,
    task: TaskId,
    with_transfers: bool,
) -> WorkerId {
    view.estimates(task, with_transfers)
        .min_by(|a, b| a.completion.value().total_cmp(&b.completion.value()))
        .unwrap_or_else(|| panic!("no capable worker for task {task}"))
        .worker
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names() {
        assert_eq!(SchedPolicy::Dmdas.name(), "dmdas");
        assert_eq!(SchedPolicy::Random { seed: 1 }.name(), "random");
        assert_eq!(SchedPolicy::EnergyAware { lambda: 0.5 }.name(), "energy");
    }

    #[test]
    fn policies_build() {
        for p in [
            SchedPolicy::Eager,
            SchedPolicy::Random { seed: 42 },
            SchedPolicy::Dm,
            SchedPolicy::Dmda,
            SchedPolicy::Dmdas,
            SchedPolicy::EnergyAware { lambda: 0.3 },
        ] {
            let s = p.build();
            assert_eq!(s.name(), p.name());
        }
    }
}
