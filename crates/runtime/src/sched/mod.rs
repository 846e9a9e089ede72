//! Scheduling policies.
//!
//! The paper's experiments use **dmdas**; the rest of StarPU's family is
//! implemented for the ablation study (`repro ablation`): `eager`,
//! `random`, `dm` (HEFT-style expected completion time), `dmda` (ECT +
//! data-transfer time), `dmdas` (dmda + priority-sorted assignment +
//! locality tie-break), and the future-work `energy` scheduler.
//!
//! A policy that costs candidates does it through its `Costing` scratch:
//! one pass over the task's operands fills every memory node's transfer
//! total (and, for dmdas, its resident operand bytes), and one pass over
//! the workers reads each capable worker's expected time from the dense
//! history row. The policy hands the chosen worker's estimate back in its
//! [`Choice`], so the executor recomputes only what the policy did not
//! cost.

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

use crate::data::{DataId, DataRegistry, MemNode};
use crate::graph::TaskGraph;
use crate::perfmodel::{PerfModel, PerfRow};
use crate::task::{AccessMode, TaskId};
use crate::worker::{Worker, WorkerId};
use serde::{Deserialize, Serialize};
use ugpc_hwsim::{Bytes, Joules, LinkTopology, Secs};

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
            SchedPolicy::Dm => Box::new(DmScheduler::default()),
            SchedPolicy::Dmda => Box::new(DmdaScheduler::default()),
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
}

/// What a policy costs for each candidate worker (see [`Costing::cost`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum Terms {
    /// Execution estimates only (`dm`, `random`).
    #[default]
    Exec,
    /// Execution plus each memory node's transfer total (`dmda`, `energy`).
    Transfers,
    /// Both, plus each memory node's resident operand bytes (`dmdas`).
    Locality,
}

/// One capable worker's expected cost of a task (see [`Costing::cost`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Estimate {
    pub(crate) worker: WorkerId,
    /// Index of the worker's memory node: the host is 0, GPU `g` is `g + 1`.
    node: usize,
    /// Expected transfer time ([`SchedView::transfer_estimate`]); zero
    /// under [`Terms::Exec`].
    pub(crate) transfer: Secs,
    /// Expected execution time ([`SchedView::exec_estimate`]).
    pub(crate) exec: Secs,
    /// Expected completion time: `max(now, worker_free) + transfer + exec`.
    pub(crate) completion: Secs,
}

/// A policy's reusable scratch for costing one task's candidate workers.
///
/// [`Costing::cost`] makes one pass over the task's operands, filling each
/// memory node's transfer total and resident bytes, and one over the
/// workers, reading each candidate's execution estimate from the dense
/// history row. Up to 62 CPU workers share the host node, so the per-node
/// totals are what makes a decision cheap.
#[derive(Debug, Clone, Default)]
pub(crate) struct Costing {
    terms: Terms,
    /// The capable workers' estimates, in worker order.
    candidates: Vec<Estimate>,
    /// dmda's transfer total per memory node.
    transfer: Vec<Secs>,
    /// Bytes of the task's operands resident per memory node.
    resident: Vec<Bytes>,
}

fn node_index(node: MemNode) -> usize {
    match node {
        MemNode::Host => 0,
        MemNode::Gpu(g) => g + 1,
    }
}

impl Costing {
    /// Cost every capable worker of `task` for `terms`. Each memory node's
    /// transfer total and resident bytes add their operands' terms in
    /// operand order from zero, each operand's link time computed once, so
    /// they equal [`SchedView::transfer_estimate`] and
    /// [`SchedView::resident_bytes`] bit for bit (debug builds check it).
    /// An unobserved history entry falls back to the cubic extrapolation,
    /// then to `UNKNOWN_TIME`, as [`SchedView::exec_estimate`] does.
    ///
    /// # Panics
    ///
    /// If no worker can run the task.
    pub(crate) fn cost(&mut self, view: &SchedView, task: TaskId, terms: Terms) -> &Self {
        let desc = view.graph.task(task);
        let (on_cpu, on_gpu) = (desc.kind.cpu_capable(), desc.kind.gpu_capable());
        let row = view.perf.row(desc.footprint());
        self.terms = terms;
        self.candidates.clear();
        let mut nodes = 0;
        for w in view.workers {
            if !(if w.is_gpu() { on_gpu } else { on_cpu }) {
                continue;
            }
            let node = node_index(w.mem_node());
            nodes = nodes.max(node + 1);
            self.candidates.push(Estimate {
                worker: w.id,
                node,
                transfer: Secs::ZERO,
                exec: exec_in(&row, w),
                completion: Secs::ZERO,
            });
        }
        assert!(
            !self.candidates.is_empty(),
            "no capable worker for task {task}"
        );
        if terms != Terms::Exec {
            self.fill_nodes(view, &desc.data, nodes);
        }
        for e in &mut self.candidates {
            if terms != Terms::Exec {
                e.transfer = self.transfer[e.node];
            }
            let start = view.now.max(view.worker_free[e.worker]);
            e.completion = start + e.transfer + e.exec;
        }
        debug_assert!(
            self.matches_reference(view, task),
            "per-node totals of task {task} differ from the per-worker estimates"
        );
        self
    }

    /// The one pass over the operands: add each operand's link time to
    /// every node lacking a replica (dmda's transfer model: host-held data
    /// crosses one host-to-device link, GPU-only data is copied back to
    /// the host or across to another GPU), and, for [`Terms::Locality`],
    /// its bytes to every node holding one.
    fn fill_nodes(&mut self, view: &SchedView, operands: &[(DataId, AccessMode)], nodes: usize) {
        let residency = self.terms == Terms::Locality;
        self.transfer.clear();
        self.transfer.resize(nodes, Secs::ZERO);
        self.resident.clear();
        self.resident.resize(nodes, Bytes::ZERO);
        for &(d, mode) in operands {
            let valid = view.data.valid_nodes(d);
            let bytes = view.data.bytes(d);
            if residency {
                for &n in valid {
                    if let Some(r) = self.resident.get_mut(node_index(n)) {
                        *r += bytes;
                    }
                }
            }
            if !mode.reads() {
                continue;
            }
            let on_host = valid.contains(&MemNode::Host);
            if !on_host {
                self.transfer[0] += view.links.d2h_time(bytes);
            }
            let mut to_gpu = None;
            for (g, total) in self.transfer.iter_mut().enumerate().skip(1) {
                if !valid.contains(&MemNode::Gpu(g - 1)) {
                    *total += *to_gpu.get_or_insert_with(|| {
                        if on_host {
                            view.links.h2d_time(bytes)
                        } else {
                            view.links.d2d_time(bytes)
                        }
                    });
                }
            }
        }
    }

    /// Whether every candidate node's totals equal the per-worker
    /// reference estimates bitwise (the debug check of [`Self::cost`]).
    fn matches_reference(&self, view: &SchedView, task: TaskId) -> bool {
        if self.terms == Terms::Exec {
            return true;
        }
        let mut checked = vec![false; self.transfer.len()];
        self.candidates.iter().all(|e| {
            if std::mem::replace(&mut checked[e.node], true) {
                return true;
            }
            let w = &view.workers[e.worker];
            let transfer = view.transfer_estimate(task, w).value().to_bits();
            let resident = view.resident_bytes(task, w).value().to_bits();
            e.transfer.value().to_bits() == transfer
                && (self.terms != Terms::Locality
                    || self.resident[e.node].value().to_bits() == resident)
        })
    }

    /// The capable workers' estimates, in worker order.
    pub(crate) fn candidates(&self) -> &[Estimate] {
        &self.candidates
    }

    /// Bytes of the task's operands resident on `e`'s memory node (costed
    /// under [`Terms::Locality`] only).
    pub(crate) fn resident(&self, e: &Estimate) -> Bytes {
        self.resident[e.node]
    }

    /// The candidate with the earliest expected completion; `min_by` keeps
    /// the first of equal minima.
    pub(crate) fn earliest(&self) -> &Estimate {
        self.candidates
            .iter()
            .min_by(|a, b| a.completion.value().total_cmp(&b.completion.value()))
            .expect("cost() leaves at least one candidate")
    }

    /// Choose `e`, handing back the terms that were costed.
    pub(crate) fn choice(&self, e: &Estimate) -> Choice {
        Choice {
            worker: e.worker,
            transfer: (self.terms != Terms::Exec).then_some(e.transfer),
            exec: Some(e.exec),
        }
    }
}

fn exec_in(row: &PerfRow, w: &Worker) -> Secs {
    row.expected_time_or_extrapolate(w.id)
        .unwrap_or(UNKNOWN_TIME)
}

/// A policy's decision: the chosen worker, and whichever parts of its
/// expected cost the policy computed on the way. The executor advances the
/// worker's expected queue end by `transfer + exec`, computing only the
/// parts left out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Choice {
    pub worker: WorkerId,
    /// [`SchedView::transfer_estimate`] on `worker`, if the policy costed it.
    pub transfer: Option<Secs>,
    /// [`SchedView::exec_estimate`] on `worker`, if the policy costed it.
    pub exec: Option<Secs>,
}

/// A scheduling policy: orders each batch of newly-ready tasks, then
/// assigns each to a worker.
pub trait Scheduler {
    fn name(&self) -> &'static str;

    /// Reorder the ready batch before assignment. Default: submission
    /// (FIFO) order.
    fn order(&mut self, _ready: &mut Vec<TaskId>, _view: &SchedView) {}

    /// Pick the worker for `task`. Must return a capable worker, and only
    /// estimates equal to [`SchedView::transfer_estimate`] and
    /// [`SchedView::exec_estimate`] on it.
    fn choose(&mut self, task: TaskId, view: &SchedView) -> Choice;
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
